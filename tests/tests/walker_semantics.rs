//! Characterization corpus for the executors' name handling.
//!
//! Names resolve lexically, by the checker's rule: a name means its
//! innermost enclosing binding in the running body, else `SELF` / the
//! const / the group of that name, and an array-position name means the
//! running body's own array parameter, else the global. Widths are the
//! checker's: every literal carries the width it inferred, and every
//! operator is `lucid_check::arith`'s, so a `const` folds to what the
//! same expression computes at run time. Each row is a small program
//! run on every leg of the reference matrix (`lucid_tests::legs`: the
//! walker, bytecode at O0 and O2, and O2 sharded at two workers) and
//! compared against a **pinned literal** of everything observable:
//! final arrays, `Stats`, the full trace, printf lines and the fault
//! with its location. Pinning literals (not just executor agreement) is
//! what lets an executor be restructured underneath. Two rows were
//! re-pinned when the walker became lexical (PR 25): the block-local
//! read after its block, which the by-name walker's flat environment
//! answered differently from bytecode, and the callee naming a global
//! that shares a live caller's array-parameter name, which both
//! executors answered dynamically. One row was re-pinned when literals
//! took the checker's width: the untyped local `y` in
//! `assign_keeps_width_and_untyped_locals`, which used to widen to 32
//! bits beside a literal.

use lucid_check::parse_and_check;
use lucid_tests::{legs, observe, Limits, Schedule};

struct Row {
    name: &'static str,
    src: &'static str,
    switches: u64,
    /// `(switch, time_ns, event, args)` injections.
    schedule: &'static [(u64, u64, &'static str, &'static [u64])],
    /// What every executor must produce.
    want: Want,
}

enum Want {
    All(&'static str),
    /// The checker rejects the program: pin the diagnostic (proof that a
    /// resolver may decide the case statically).
    Rejected(&'static str),
}

fn check_row(row: &Row) {
    let want = match row.want {
        Want::All(want) => want,
        Want::Rejected(msg) => {
            let err = parse_and_check(row.src).expect_err(row.name).to_string();
            assert!(err.contains(msg), "{}: diagnostic was:\n{err}", row.name);
            return;
        }
    };
    let prog = parse_and_check(row.src).unwrap_or_else(|ds| panic!("{}: {ds}", row.name));
    let schedule = row
        .schedule
        .iter()
        .fold(Schedule::new(), |s, (sw, t, ev, args)| {
            s.event(*sw, *t, ev, args)
        });
    for leg in legs() {
        let got = observe(&prog, row.switches, leg, &schedule, Limits::events(10_000)).render();
        assert_eq!(
            got.trim(),
            unindent(want).trim(),
            "{} [{leg}]\n--- got ---\n{got}",
            row.name
        );
    }
}

/// Strip the literal's source indentation.
fn unindent(s: &str) -> String {
    s.lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("\n")
}

const ROWS: &[Row] = &[
    // `x` declared in both arms of an if/else and again in a later
    // sibling block: each block binds its own, at its declared width.
    Row {
        name: "sibling_block_locals_redeclare_one_name",
        src: r#"
            global o0 = new Array<<32>>(2);
            global o1 = new Array<<32>>(2);
            event go(int c);
            handle go(int c) {
                if (c == 0) { int<<8>> x = (int<<8>>) (c + 300); Array.set(o0, 0, (int<<32>>) x); }
                else { int x = c + 300; x = x + 1; Array.set(o0, 1, x); }
                if (c < 2) {
                    int<<4>> x = (int<<4>>) (c + 255);
                    x = x + 1;
                    printf("x=%d", x);
                    Array.set(o1, c, (int<<32>>) x);
                }
            }
        "#,
        switches: 1,
        schedule: &[
            (1, 0, "go", &[0]),
            (1, 100, "go", &[1]),
            (1, 200, "go", &[2]),
        ],
        want: Want::All(
            r#"
            s1 o0=[44, 303]
            s1 o1=[0, 1]
            stats processed=3 handled=3 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 3)]
            trace 0ns s1 go[0]
            trace 100ns s1 go[1]
            trace 200ns s1 go[2]
            printf "x=0"
            printf "x=1"
            fault none
        "#,
        ),
    },
    // Block-locals that share their names with a `const`, `SELF` and a
    // group, read after their block closes: the later reads mean the
    // const / `SELF` / the group, whether or not the block ran.
    Row {
        name: "block_locals_shadowing_const_self_group_read_after_their_block",
        src: r#"
            const int X = 5;
            const group G = {2};
            const group H = {3};
            global o0 = new Array<<32>>(2);
            global o1 = new Array<<32>>(2);
            global seen = new Array<<32>>(1);
            event ping(int v);
            handle ping(int v) { Array.set(seen, 0, v); }
            event go(int c);
            handle go(int c) {
                if (c == 1) { int X = 7; int SELF = 9; auto G = H; Array.set(o0, c, X); }
                Array.set(o1, c, X);
                printf("X=%d SELF=%d", X, SELF);
                mgenerate Event.mlocate(ping(X + SELF), G);
            }
        "#,
        switches: 3,
        schedule: &[(1, 0, "go", &[0]), (1, 100, "go", &[1])],
        want: Want::All(
            r#"
            s1 o0=[0, 7]
            s1 o1=[5, 5]
            s1 seen=[0]
            s2 o0=[0, 0]
            s2 o1=[0, 0]
            s2 seen=[6]
            s3 o0=[0, 0]
            s3 o1=[0, 0]
            s3 seen=[0]
            stats processed=4 handled=4 recirculated=0 sent_remote=2 exported=0 dropped=0 per_event=[("go", 2), ("ping", 2)]
            trace 0ns s1 go[0]
            trace 100ns s1 go[1]
            trace 1000ns s2 ping[6]
            trace 1100ns s2 ping[6]
            printf "X=5 SELF=1"
            printf "X=5 SELF=1"
            fault none
        "#,
        ),
    },
    // Assignment keeps the width of the `Int` already in the slot; an
    // untyped local takes the width the checker gives its initializer
    // (`a + 1` is int<<8>>, so `y + 255` wraps at 8 bits).
    Row {
        name: "assign_keeps_width_and_untyped_locals",
        src: r#"
            global o0 = new Array<<64>>(1);
            global o1 = new Array<<64>>(1);
            global o2 = new Array<<64>>(1);
            event go(int<<8>> a);
            handle go(int<<8>> a) {
                int<<8>> x = 255;
                x = x + 1;
                auto y = a + 1;
                auto z = a + a;
                y = y + 255;
                z = z + 255;
                bool b = a > 3;
                b = a < 3;
                printf("x=%d y=%d z=%d b=%d", x, y, z, b);
                Array.set(o0, 0, (int<<64>>) x);
                Array.set(o1, 0, (int<<64>>) y);
                Array.set(o2, 0, (int<<64>>) z);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[250])],
        want: Want::All(
            r#"
            s1 o0=[0]
            s1 o1=[250]
            s1 o2=[243]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[250]
            printf "x=0 y=250 z=243 b=false"
            fault none
        "#,
        ),
    },
    // A bool-typed const and a group const, the group through
    // `Event.mlocate`, `SELF` as a plain name.
    Row {
        name: "bool_const_group_const_and_self",
        src: r#"
            const bool ON = true;
            const bool OFF = false;
            const int<<8>> SMALL = 300;
            const group PEERS = {2, 3};
            global seen = new Array<<32>>(2);
            event ping(int from, int v);
            handle ping(int from, int v) { Array.set(seen, 0, from * 1000 + v); }
            event kick();
            handle kick() {
                if (ON && !OFF) {
                    mgenerate Event.mlocate(ping(SELF, (int<<32>>) SMALL + 1), PEERS);
                }
                printf("on=%d off=%d small=%d self=%d", ON, OFF, SMALL, SELF);
            }
        "#,
        switches: 3,
        schedule: &[(1, 0, "kick", &[]), (2, 50, "kick", &[])],
        want: Want::All(
            r#"
            s1 seen=[0, 0]
            s2 seen=[1045, 0]
            s3 seen=[2045, 0]
            stats processed=6 handled=6 recirculated=1 sent_remote=3 exported=0 dropped=0 per_event=[("kick", 2), ("ping", 4)]
            trace 0ns s1 kick[]
            trace 50ns s2 kick[]
            trace 650ns s2 ping[2, 45]
            trace 1000ns s2 ping[1, 45]
            trace 1000ns s3 ping[1, 45]
            trace 1050ns s3 ping[2, 45]
            printf "on=true off=false small=44 self=1"
            printf "on=true off=false small=44 self=2"
            fault none
        "#,
        ),
    },
    // One function with an array parameter, called with two different
    // globals; afterwards a plain access to the global that shares the
    // parameter's name means the global again.
    Row {
        name: "array_param_two_globals_then_plain_access",
        src: r#"
            global a = new Array<<32>>(4);
            global b = new Array<<32>>(4);
            global c = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            fun int bump(Array<<32>> c, int i, int by) {
                return Array.update(c, i, plus, by, plus, by);
            }
            event go(int i);
            handle go(int i) {
                int x = bump(a, i, 10);
                int y = bump(b, i, 20);
                Array.set(c, i, x + y + 1);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[1]), (1, 100, "go", &[1])],
        want: Want::All(
            r#"
            s1 a=[0, 20, 0, 0]
            s1 b=[0, 40, 0, 0]
            s1 c=[0, 61, 0, 0]
            stats processed=2 handled=2 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 2)]
            trace 0ns s1 go[1]
            trace 100ns s1 go[1]
            fault none
        "#,
        ),
    },
    // A callee names a global that shares its live caller's
    // array-parameter name: `a` inside `mark` is the global `a`, as the
    // checker and the P4 backend (`reg_a`) resolve it — not `via`'s
    // parameter, which is bound to `b`.
    Row {
        name: "callee_names_the_global_not_a_live_callers_array_parameter",
        src: r#"
            global a = new Array<<32>>(2);
            global b = new Array<<32>>(2);
            fun void mark(int v) { Array.set(a, 0, v); }
            fun void via(Array<<32>> a, int v) { mark(v); }
            event go(int v);
            handle go(int v) { via(b, v); }
        "#,
        switches: 2,
        schedule: &[(1, 0, "go", &[7]), (2, 50, "go", &[9])],
        want: Want::All(
            r#"
            s1 a=[7, 0]
            s1 b=[0, 0]
            s2 a=[9, 0]
            s2 b=[0, 0]
            stats processed=2 handled=2 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 2)]
            trace 0ns s1 go[7]
            trace 50ns s2 go[9]
            fault none
        "#,
        ),
    },
    // A local named `SELF` is what `SELF` means while it is in scope —
    // to the checker too: a bool plus an int is a type error.
    Row {
        name: "a_bool_local_named_self_is_typed_as_the_local",
        src: r#"
            global o = new Array<<32>>(1);
            event go(int v);
            handle go(int v) { bool SELF = true; Array.set(o, 0, SELF + 1); }
        "#,
        switches: 1,
        schedule: &[],
        want: Want::Rejected("expected an integer"),
    },
    // An event value held in a local, delayed and located, generated
    // twice (each `generate` consumes a copy, the local stays bound).
    Row {
        name: "event_local_delayed_located_generated_twice",
        src: r#"
            global got = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            event pong(int v);
            handle pong(int v) { Array.setm(got, v, plus, 1); }
            event go(int v);
            handle go(int v) {
                event e = pong(v);
                event d = Event.delay(e, 2);
                event l = Event.locate(d, 2);
                generate l;
                generate l;
                generate d;
                generate e;
            }
        "#,
        switches: 2,
        schedule: &[(1, 0, "go", &[3])],
        want: Want::All(
            r#"
            s1 got=[0, 0, 0, 2]
            s2 got=[0, 0, 0, 2]
            stats processed=5 handled=5 recirculated=2 sent_remote=2 exported=0 dropped=0 per_event=[("go", 1), ("pong", 4)]
            trace 0ns s1 go[3]
            trace 600ns s1 pong[3]
            trace 2600ns s1 pong[3]
            trace 3000ns s2 pong[3]
            trace 3000ns s2 pong[3]
            fault none
        "#,
        ),
    },
    // A void function called as a statement and bound to a local.
    Row {
        name: "void_function_as_statement_and_bound",
        src: r#"
            global a = new Array<<32>>(2);
            global b = new Array<<32>>(2);
            fun void note(Array<<32>> arr, int v) {
                if (v == 0) { return; }
                Array.set(arr, 0, v);
            }
            event go(int v);
            handle go(int v) {
                note(a, v);
                auto u = note(b, v + 1);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[0]), (1, 100, "go", &[6])],
        want: Want::All(
            r#"
            s1 a=[6, 0]
            s1 b=[7, 0]
            stats processed=2 handled=2 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 2)]
            trace 0ns s1 go[0]
            trace 100ns s1 go[6]
            fault none
        "#,
        ),
    },
    // A fault inside a function called from a handler: the write before
    // it lands, the one after does not, and the fault is located at the
    // handler's event.
    Row {
        name: "fault_inside_a_called_function",
        src: r#"
            global pre = new Array<<32>>(1);
            global a = new Array<<32>>(4);
            global post = new Array<<32>>(1);
            fun int rd(Array<<32>> arr, int i) { return Array.get(arr, i + 1); }
            event go(int i);
            handle go(int i) {
                Array.set(pre, 0, i);
                int v = rd(a, i);
                Array.set(post, 0, v + 1);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[1]), (1, 70, "go", &[3]), (1, 90, "go", &[0])],
        want: Want::All(
            r#"
            s1 pre=[3]
            s1 a=[0, 0, 0, 0]
            s1 post=[1]
            stats processed=2 handled=2 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 2)]
            trace 0ns s1 go[1]
            trace 70ns s1 go[3]
            fault IndexOutOfBounds { array: "a", index: 4, len: 4 } :: index 4 out of bounds for array `a` (len 4) — at `go` on switch 1 at 70ns (injection #2)
        "#,
        ),
    },
    // printf of ints (every conversion) and bools.
    Row {
        name: "printf_ints_and_bools",
        src: r#"
            global a = new Array<<32>>(1);
            event go(int v, bool f);
            handle go(int v, bool f) {
                printf("d=%d x=%x b=%b pct=%% f=%d nf=%d fx=%x", v, v, v, f, !f, f);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[10, 1]), (1, 10, "go", &[255, 0])],
        want: Want::All(
            r#"
            s1 a=[0]
            stats processed=2 handled=2 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 2)]
            trace 0ns s1 go[10, 1]
            trace 10ns s1 go[255, 0]
            printf "d=10 x=a b=1010 pct=% f=true nf=false fx=1"
            printf "d=255 x=ff b=11111111 pct=% f=false nf=true fx=0"
            fault none
        "#,
        ),
    },
    // Integer semantics are decided once (`lucid_check::arith`) and
    // every literal's width by the checker, so a `const` initializer
    // folds to what the same expression computes at run time: `(0 - 1)`
    // is the 32-bit all-ones before it is halved.
    Row {
        name: "const_division_folds_at_the_declared_width",
        src: r#"
            const int K = (0 - 1) / 2;
            global o = new Array<<32>>(1);
            event go(int a);
            handle go(int a) {
                printf("K=%d rt=%d", K, (0 - a) / 2);
                Array.set(o, 0, K);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[1])],
        want: Want::All(
            r#"
            s1 o=[2147483647]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[1]
            printf "K=2147483647 rt=2147483647"
            fault none
        "#,
        ),
    },
    // A shift past the 32-bit width of `int` clears the value in a
    // `const` exactly as it does at run time.
    Row {
        name: "const_shift_past_the_width_clears",
        src: r#"
            const int S = (1 << 40) >> 20;
            global o = new Array<<32>>(1);
            event go(int a);
            handle go(int a) {
                printf("S=%d rt=%d", S, (a << 40) >> 20);
                Array.set(o, 0, S);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[1])],
        want: Want::All(
            r#"
            s1 o=[0]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[1]
            printf "S=0 rt=0"
            fault none
        "#,
        ),
    },
    // A literal beside a 64-bit operand is a 64-bit literal: the mask
    // keeps all forty bits.
    Row {
        name: "literal_beside_a_64_bit_operand_keeps_its_bits",
        src: r#"
            global o = new Array<<64>>(1);
            event go(int<<64>> a);
            handle go(int<<64>> a) {
                Array.set(o, 0, a & 0xFFFFFFFFFF);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[1099511627775])],
        want: Want::All(
            r#"
            s1 o=[1099511627775]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[1099511627775]
            fault none
        "#,
        ),
    },
    // The checker types `b + 1` as int<<8>>, so it wraps to 0 at 255.
    Row {
        name: "narrow_sum_wraps_at_its_operands_width",
        src: r#"
            global o = new Array<<32>>(1);
            event go(int<<8>> b);
            handle go(int<<8>> b) {
                if (b + 1 == 0) { Array.set(o, 0, 1); }
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[255])],
        want: Want::All(
            r#"
            s1 o=[1]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[255]
            fault none
        "#,
        ),
    },
    // A local declared int<<8>> evaluates its initializer at 8 bits:
    // `(0 - 1)` is 255 before it is halved.
    Row {
        name: "narrow_local_initializer_divides_at_its_width",
        src: r#"
            global o = new Array<<8>>(1);
            event go();
            handle go() {
                int<<8>> q = (0 - 1) / 2;
                Array.set(o, 0, q);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[])],
        want: Want::All(
            r#"
            s1 o=[127]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[]
            fault none
        "#,
        ),
    },
    // `b + 255` wraps at 8 bits before the shift sees it.
    Row {
        name: "narrow_sum_wraps_before_a_shift",
        src: r#"
            global o = new Array<<8>>(1);
            event go(int<<8>> b);
            handle go(int<<8>> b) {
                Array.set(o, 0, (b + 255) >> 1);
            }
        "#,
        switches: 1,
        schedule: &[(1, 0, "go", &[1])],
        want: Want::All(
            r#"
            s1 o=[0]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[1]
            fault none
        "#,
        ),
    },
    // An `int<<8>>` argument injected as 300 arrives as 44. Bytecode
    // assigns it to the local with a plain move (the walker re-masks,
    // as the oracle): a value never leaves its width. Each operator
    // then wraps at the local's 8 bits (704 -> 192, 299 -> 43) before
    // the cast widens it.
    Row {
        name: "assigned_narrow_argument_keeps_its_width",
        src: r#"
            global shl = new Array<<32>>(1);
            global add = new Array<<32>>(1);
            event go(int<<8>> b);
            handle go(int<<8>> b) {
                int<<8>> x = 0;
                x = b;
                Array.set(shl, 0, (int<<32>>) (x << 4));
                Array.set(add, 0, (int<<32>>) (x + 255));
            }
        "#,
        switches: 2,
        schedule: &[(1, 0, "go", &[300]), (2, 10, "go", &[300])],
        want: Want::All(
            r#"
            s1 shl=[192]
            s1 add=[43]
            s2 shl=[192]
            s2 add=[43]
            stats processed=2 handled=2 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 2)]
            trace 0ns s1 go[44]
            trace 10ns s2 go[44]
            fault none
        "#,
        ),
    },
    // Arrays cannot be printed, whether named through an array
    // parameter or as the global itself: the checker decides it.
    Row {
        name: "printf_of_an_array_parameter_is_rejected",
        src: r#"
            global b = new Array<<32>>(1);
            fun void show(Array<<32>> arr, int v) { printf("arr=%d v=%d", arr, v); }
            event go(int v);
            handle go(int v) { show(b, v); }
        "#,
        switches: 1,
        schedule: &[],
        want: Want::Rejected("cannot print an array"),
    },
    Row {
        name: "printf_of_a_global_array_is_rejected",
        src: r#"
            global a = new Array<<32>>(4);
            event go(int v);
            handle go(int v) { printf("a=%d", a); }
        "#,
        switches: 1,
        schedule: &[],
        want: Want::Rejected("cannot print an array"),
    },
    // Event values cannot be printed: the checker decides it.
    Row {
        name: "printf_of_an_event_value_is_rejected",
        src: r#"
            event pong(int v);
            event go(int v);
            handle go(int v) { event e = pong(v); printf("e=%d", e); }
        "#,
        switches: 1,
        schedule: &[],
        want: Want::Rejected("cannot print a value of type event"),
    },
];

#[test]
fn walker_name_handling_matches_pinned_observables() {
    for row in ROWS {
        check_row(row);
    }
}
