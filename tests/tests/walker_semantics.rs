//! Characterization corpus for the executors' name handling.
//!
//! Names resolve lexically, by the checker's rule: a name means its
//! innermost enclosing binding in the running body, else `SELF` / the
//! const / the group of that name, and an array-position name means the
//! running body's own array parameter, else the global. What is still
//! decided at run time is width: assignment keeps the width of the value
//! already bound. Each row is a small program run under the walker and
//! under bytecode at every opt level — on the sequential engine and,
//! where it has two or more switches, sharded at two workers — and
//! compared against a **pinned literal** of everything observable:
//! final arrays, `Stats`, the full trace, printf lines and the fault
//! with its location. Pinning literals (not just executor agreement) is
//! what lets an executor be restructured underneath. Two rows were
//! re-pinned when the walker became lexical (PR 25): the block-local
//! read after its block, which the by-name walker's flat environment
//! answered differently from bytecode, and the callee naming a global
//! that shares a live caller's array-parameter name, which both
//! executors answered dynamically.

use lucid_check::parse_and_check;
use lucid_interp::{Engine, ExecMode, Interp, NetConfig, OptLevel};
use std::fmt::Write as _;

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

/// Everything observable about a finished (or faulted) run, rendered
/// deterministically.
fn observe(row: &Row, engine: Engine, exec: ExecMode, opt: OptLevel) -> String {
    let prog = parse_and_check(row.src).unwrap_or_else(|ds| panic!("{}: {ds}", row.name));
    let mut cfg = NetConfig::mesh(row.switches);
    cfg.engine = engine;
    cfg.exec = exec;
    cfg.opt = opt;
    let mut sim = Interp::new(&prog, cfg);
    for (sw, t, ev, args) in row.schedule {
        sim.schedule(*sw, *t, ev, args).expect("schedule");
    }
    let res = sim.run(10_000, u64::MAX);
    let mut out = String::new();
    for s in 1..=row.switches {
        for g in &prog.info.globals {
            writeln!(out, "s{s} {}={:?}", g.name, sim.array(s, &g.name)).unwrap();
        }
    }
    let st = &sim.stats;
    let mut per: Vec<_> = st.per_event.iter().collect();
    per.sort();
    writeln!(
        out,
        "stats processed={} handled={} recirculated={} sent_remote={} exported={} dropped={} per_event={per:?}",
        st.processed, st.handled, st.recirculated, st.sent_remote, st.exported, st.dropped
    )
    .unwrap();
    for h in &sim.trace {
        writeln!(
            out,
            "trace {}ns s{} {}{:?}",
            h.time_ns, h.switch, h.event, h.args
        )
        .unwrap();
    }
    for line in &sim.output {
        writeln!(out, "printf {line:?}").unwrap();
    }
    match res {
        Ok(()) => writeln!(out, "fault none").unwrap(),
        Err(e) => writeln!(out, "fault {:?} :: {e}", e.kind).unwrap(),
    }
    out
}

fn check_row(row: &Row) {
    if let Want::Rejected(msg) = row.want {
        let err = parse_and_check(row.src).expect_err(row.name).to_string();
        assert!(err.contains(msg), "{}: diagnostic was:\n{err}", row.name);
        return;
    }
    let mut engines = vec![(Engine::Sequential, "sequential")];
    if row.switches >= 2 {
        engines.push((
            Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            },
            "sharded-w2",
        ));
    }
    for (engine, elabel) in engines {
        let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
        combos.extend([OptLevel::O0, OptLevel::O1, OptLevel::O2].map(|l| (ExecMode::Bytecode, l)));
        for (exec, opt) in combos {
            let Want::All(want) = row.want else {
                unreachable!()
            };
            let got = observe(row, engine, exec, opt);
            let label = format!("{} [{elabel}/{}/O{}]", row.name, exec.label(), opt.label());
            assert_eq!(
                got.trim(),
                unindent(want).trim(),
                "{label}\n--- got ---\n{got}"
            );
        }
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
    // untyped local takes whatever width its initializer computed.
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
            s1 o1=[506]
            s1 o2=[243]
            stats processed=1 handled=1 recirculated=0 sent_remote=0 exported=0 dropped=0 per_event=[("go", 1)]
            trace 0ns s1 go[250]
            printf "x=0 y=506 z=243 b=false"
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
