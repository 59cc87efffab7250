//! Differential property testing of the interpreter's executors on the
//! reference matrix (`lucid_tests::legs`): the AST walker against
//! bytecode at `--opt=0` and `--opt=2` and the sharded engine, on
//! everything observable — final array state, statistics, the metrics
//! digest, trace and printf output — and on runtime faults. Sweeping the
//! bytecode executor at both levels means an optimizer miscompile cannot
//! hide behind an equally-wrong lowering (and vice versa).
//!
//! The programs are the bundled Figure-9 applications under random
//! event schedules, initial array states and topologies, and two
//! hand-written ones (`tests/programs/`): a kitchen sink that exercises
//! the whole bytecode ISA, and a program that makes every fused
//! superinstruction appear; beside them, small programs that pin one
//! rule each.
//!
//! The Figure-9 case count defaults low so `cargo test` stays quick;
//! CI's fuzz-smoke step raises it with `LUCID_FUZZ_CASES=64`. The
//! vendored proptest shim always starts from one fixed seed, so failures
//! reproduce run-to-run.

use lucid_core::interp::InterpFault;
use lucid_core::CheckedProgram;
use lucid_tests::{
    assert_agree, cases, legs, legs_with, observe, observe_legs, Leg, Limits, Observation, Schedule,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The Figure-9 apps, parsed and checked once per process.
fn apps() -> &'static Vec<(&'static str, CheckedProgram)> {
    static APPS: OnceLock<Vec<(&'static str, CheckedProgram)>> = OnceLock::new();
    APPS.get_or_init(|| {
        lucid_apps::all()
            .into_iter()
            .map(|app| (app.key, app.checked()))
            .collect()
    })
}

fn checked(src: &str) -> CheckedProgram {
    lucid_core::check::parse_and_check(src).unwrap_or_else(|ds| panic!("check failed:\n{ds}"))
}

const KITCHEN_SINK: &str = include_str!("../programs/kitchen_sink.lucid");
const FUSION_SINK: &str = include_str!("../programs/fusion_sink.lucid");

/// Worker counts every sharded comparison sweeps: the lone-worker
/// fast path, even and odd pools, a prime that misaligns the
/// round-robin shard partition, and a pool wider than most topologies.
const WORKER_SWEEP: [usize; 6] = [1, 2, 3, 4, 7, 8];

/// A virtual-time horizon bounds the self-perpetuating control loops
/// (sketch sweeps, timer scans) several apps run.
const APP_LIMITS: Limits = Limits {
    max_events: 50_000,
    max_time_ns: 200_000,
};

/// One generated workload, resolved against an app: pokes
/// `(switch_sel, array_sel, index_sel, value)` pick one of its arrays,
/// and injections `(switch_sel, time_ns, event_sel, arg pool)` one of
/// its events, taking its arity's worth of args from the pool.
fn app_schedule(
    prog: &CheckedProgram,
    switches: u64,
    pokes: &[(u64, u64, u64, u64)],
    events: &[(u64, u64, u64, [u64; 4])],
) -> Schedule {
    let mut schedule = Schedule::new();
    for (sw, arr, idx, val) in pokes {
        let g = &prog.info.globals[(*arr as usize) % prog.info.globals.len()];
        schedule = schedule.poke(sw % switches + 1, &g.name, (idx % g.len) as usize, *val);
    }
    for (sw, t, ev, pool) in events {
        let e = &prog.info.events[(*ev as usize) % prog.info.events.len()];
        let arity = e.params.len().min(pool.len());
        schedule = schedule.event(sw % switches + 1, *t, &e.name, &pool[..arity]);
    }
    schedule
}

/// Every leg after the walker must reproduce it. A faulted run is
/// compared on the sequential legs only: the sharded engine's
/// bookkeeping at a fault is its own.
fn agree_with_walker(
    prog: &CheckedProgram,
    switches: u64,
    legs: &[Leg],
    schedule: &Schedule,
    limits: Limits,
    context: &str,
) -> Observation {
    let reference = observe(prog, switches, Leg::Walker, schedule, limits);
    for &leg in &legs[1..] {
        if reference.fault.is_none() || leg.is_sequential() {
            let got = observe(prog, switches, leg, schedule, limits);
            assert_agree(&reference, &got, context);
        }
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// The headline property: for every Figure-9 app and any workload,
    /// bytecode is observably identical to the AST walker under the
    /// sequential engine, faults included — same fault kind, same
    /// offending event, same state left behind by the writes before it —
    /// and the sharded engine reproduces both on successful runs.
    #[test]
    fn figure9_apps_ast_bytecode_sharded_agree(
        app in 0u64..10_000,
        switches in 1u64..=4,
        // Index into WORKER_SWEEP: exercises the barrier-free lone-worker
        // path, small pools, and pools larger than the switch count
        // (clamped to one shard per worker internally).
        wsel in 0usize..WORKER_SWEEP.len(),
        pokes in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), 0u64..=1_000), 0..4),
        events in proptest::collection::vec(
            (any::<u64>(), 0u64..=50_000, any::<u64>(), (0u64..=300, 0u64..=300, 0u64..=300, 0u64..=300)),
            1..16,
        ),
    ) {
        let (key, prog) = &apps()[(app as usize) % apps().len()];
        let events: Vec<_> = events
            .into_iter()
            .map(|(sw, t, ev, (a, b, c, d))| (sw, t, ev, [a, b, c, d]))
            .collect();
        let schedule = app_schedule(prog, switches, &pokes, &events);
        let legs = legs_with(&[WORKER_SWEEP[wsel]]);
        let context = format!("{key} on {switches} switches: {schedule:?}");
        agree_with_walker(prog, switches, &legs, &schedule, APP_LIMITS, &context);
    }
}

/// A deterministic (non-random) sweep: one representative schedule per
/// app through every leg, the sharded engine at every worker count.
/// This keeps every app on the differential path even when the property
/// above samples few cases.
#[test]
fn every_app_runs_identically_across_the_matrix() {
    let legs = legs_with(&WORKER_SWEEP);
    for (key, prog) in apps() {
        let events: Vec<(u64, u64, u64, [u64; 4])> = (0..8)
            .map(|k| (k, k * 900, k + 1, [k % 7, (3 * k) % 11, k % 4, k % 2]))
            .collect();
        let schedule = app_schedule(prog, 3, &[(0, 0, 0, 5)], &events);
        let reference = agree_with_walker(prog, 3, &legs, &schedule, APP_LIMITS, key);
        // Ensure the workload actually did something — and that the
        // metrics collector actually saw it (a digest of empty
        // histograms would make the agreement above vacuous).
        if reference.fault.is_none() {
            assert!(reference.stats.processed > 0, "{key}: empty run");
            assert_ne!(
                reference.metrics,
                lucid_core::Metrics::default().digest(),
                "{key}: metrics digest is the empty digest despite processed events"
            );
        }
    }
}

/// Regression for shift-overflow semantics: `x << n` / `x >> n` keep
/// `x`'s width and a count at or past that width yields 0 — identically
/// in the AST walker and the bytecode executor at every optimization
/// level (const-operand fusion must not change shift-width rules), for
/// every operand width and every count up to well past 64 (where
/// `wrapping_shl` would have wrapped the count instead).
#[test]
fn shift_counts_past_the_width_agree_across_executors() {
    let src = r#"
        global shl8  = new Array<<8>>(80);
        global shr8  = new Array<<8>>(80);
        global shl16 = new Array<<16>>(80);
        global shr16 = new Array<<16>>(80);
        global shl32 = new Array<<32>>(80);
        global shr32 = new Array<<32>>(80);
        global shl64 = new Array<<64>>(80);
        global shr64 = new Array<<64>>(80);
        event go(int<<8>> a, int<<16>> b, int<<32>> c, int<<64>> d, int n);
        handle go(int<<8>> a, int<<16>> b, int<<32>> c, int<<64>> d, int n) {
            Array.set(shl8,  n, a << n);
            Array.set(shr8,  n, a >> n);
            Array.set(shl16, n, b << n);
            Array.set(shr16, n, b >> n);
            Array.set(shl32, n, c << n);
            Array.set(shr32, n, c >> n);
            Array.set(shl64, n, d << n);
            Array.set(shr64, n, d >> n);
        }
    "#;
    let prog = checked(src);
    let vals: [u64; 4] = [0xAB, 0xBEEF, 0xDEAD_BEEF, 0xDEAD_BEEF_CAFE_F00D];
    let schedule = (0..80u64).fold(Schedule::new(), |s, n| {
        s.event(1, n * 100, "go", &[vals[0], vals[1], vals[2], vals[3], n])
    });
    let reference = observe_legs(&prog, 1, &legs(), &schedule, Limits::QUIESCE, "shifts");
    assert_eq!(reference.fault, None);

    // Pin the semantics themselves, not just executor agreement. The
    // arrays are in declaration order: shl8, shr8, shl16, ...
    let cells = |k: usize| &reference.arrays[k].2;
    let mask = |w: u32| if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
    for (i, &w) in [8u32, 16, 32, 64].iter().enumerate() {
        let x = vals[i] & mask(w);
        for n in 0..80u64 {
            let want_shl = if n >= w as u64 { 0 } else { (x << n) & mask(w) };
            let want_shr = if n >= w as u64 { 0 } else { x >> n };
            assert_eq!(
                cells(2 * i)[n as usize],
                want_shl,
                "width {w}: {x:#x} << {n}"
            );
            assert_eq!(
                cells(2 * i + 1)[n as usize],
                want_shr,
                "width {w}: {x:#x} >> {n}"
            );
        }
    }
}

/// The kitchen sink on two switches, every leg.
#[test]
fn kitchen_sink_bytecode_matches_walker_everywhere() {
    let prog = checked(KITCHEN_SINK);
    let mut schedule = Schedule::new();
    for s in 1..=2u64 {
        for k in 0..6u64 {
            schedule = schedule.event(s, k * 300, "pkt", &[s * 40 + k, 3]);
        }
    }
    let limits = Limits::events(200_000);
    let reference = observe_legs(&prog, 2, &legs(), &schedule, limits, "kitchen sink");
    assert_eq!(reference.fault, None);
    // The workload actually exercised the interesting paths.
    assert!(!reference.output.is_empty(), "printf must fire");
    assert!(reference.stats.exported > 0, "reports must export");
    assert!(reference.stats.sent_remote > 0, "locate/mlocate must send");
}

/// The fault must hit at the same event, leave identical state behind
/// (writes before the faulting op included), print the same lines and
/// carry the same location on every leg, since the array ops carry the
/// fault themselves. In the second program the faulting op's memop
/// argument prints: the walker faults before evaluating it, so the
/// bytecode checks the index ahead of it, and `arg 9` must never
/// appear.
#[test]
fn out_of_bounds_is_bit_identical_including_prior_writes() {
    let pure = r#"
        global a = new Array<<32>>(4);
        global b = new Array<<32>>(4);
        memop plus(int m, int x) { return m + x; }
        event go(int i);
        handle go(int i) {
            Array.setm(a, 0, plus, 1);
            Array.set(b, i, 7);
        }
    "#;
    let impure = r#"
        global a = new Array<<32>>(4);
        global b = new Array<<32>>(4);
        memop plus(int m, int x) { return m + x; }
        fun int note(int v) { printf("arg %d", v); return v; }
        event go(int i);
        handle go(int i) {
            Array.setm(a, 0, plus, 1);
            Array.setm(b, i, plus, note(i));
        }
    "#;
    let schedule = Schedule::new()
        .event(1, 0, "go", &[1])
        .event(1, 50, "go", &[9]);
    for (src, checks, output) in [(pure, 0, vec![]), (impure, 1, vec!["arg 1".to_string()])] {
        let prog = checked(src);
        // Only an impure operand earns a separate `check` line.
        for level in [lucid_core::OptLevel::O0, lucid_core::OptLevel::O2] {
            let text = lucid_core::disassemble_opt(&prog, level);
            assert_eq!(text.matches(": check ").count(), checks, "{text}");
        }
        let reference = observe_legs(&prog, 1, &legs(), &schedule, Limits::QUIESCE, src);
        let err = reference.fault.as_ref().expect("the run faults");
        assert!(
            matches!(
                &err.kind,
                InterpFault::IndexOutOfBounds {
                    index: 9,
                    len: 4,
                    ..
                }
            ),
            "{err}"
        );
        let at = err.at.as_ref().expect("located");
        assert_eq!((at.time_ns, at.switch, at.event.as_str()), (50, 1, "go"));
        assert_eq!(
            reference.arrays[0].2[0], 2,
            "the write before the fault must have landed"
        );
        assert_eq!(reference.output, output);
    }
}

/// Literals run at the width the checker gives them (here `x`'s
/// int<<8>>, in every position), and that width must survive both
/// compilation and const-operand fusion exactly.
#[test]
fn width_mixing_literals_match_walker() {
    let src = r#"
        global o0 = new Array<<32>>(1);
        global o1 = new Array<<32>>(1);
        global o2 = new Array<<32>>(1);
        global o3 = new Array<<32>>(1);
        event go(int<<8>> x);
        handle go(int<<8>> x) {
            auto wide = x + 250;
            int<<8>> narrow = x;
            narrow = narrow + 250;
            Array.set(o0, 0, (int<<32>>) wide);
            Array.set(o1, 0, (int<<32>>) narrow);
            if (x + 250 > 255) { Array.set(o2, 0, 1); }
            Array.set(o3, 0, (int<<32>>) ((int<<8>>) (x + 250)));
        }
    "#;
    let schedule = Schedule::new().event(1, 0, "go", &[10]);
    let reference = observe_legs(&checked(src), 1, &legs(), &schedule, Limits::QUIESCE, src);
    let firsts: Vec<u64> = reference.arrays.iter().map(|(_, _, c)| c[0]).collect();
    // The checker types `x + 250` as int<<8>>, so it wraps to 4 wherever
    // it appears, and `x + 250 > 255` cannot hold.
    assert_eq!(firsts, vec![4, 4, 0, 4]);
}

#[test]
fn booleans_print_and_compute_like_the_walker() {
    let src = r#"
        global out = new Array<<32>>(2);
        event go(bool flag, int v);
        handle go(bool flag, int v) {
            bool both = flag && v > 2;
            printf("flag=%d both=%d v=%d", flag, both, v);
            if (!both) { Array.set(out, 0, 1); } else { Array.set(out, 1, 1); }
        }
    "#;
    let schedule = Schedule::new()
        .event(1, 0, "go", &[1, 7])
        .event(1, 10, "go", &[0, 1]);
    let reference = observe_legs(&checked(src), 1, &legs(), &schedule, Limits::QUIESCE, src);
    assert_eq!(
        reference.output,
        ["flag=true both=true v=7", "flag=false both=false v=1"]
    );
    assert_eq!(reference.arrays[0].2, [1, 1]);
}

/// `Array.setm` stores memop results unmasked and both executors mask
/// on *read*. The memop's argument is typed at the cell's width (the
/// literal adopts `x`'s int<<8>>), so the cell holds an in-width value
/// and the read returns it unchanged.
#[test]
fn array_get_masks_over_width_cells_like_the_walker() {
    let src = r#"
        global tag = new Array<<8>>(4);
        global out = new Array<<32>>(1);
        memop mset(int m, int x) { return x; }
        event wr(int<<8>> x);
        handle wr(int<<8>> x) { Array.setm(tag, 0, mset, x + 250); }
        event rd();
        handle rd() { Array.set(out, 0, (int<<32>>) Array.get(tag, 0)); }
    "#;
    let schedule = Schedule::new()
        .event(1, 0, "wr", &[10])
        .event(1, 100, "rd", &[]);
    let reference = observe_legs(&checked(src), 1, &legs(), &schedule, Limits::QUIESCE, src);
    // 10 + 250 runs at width 8 -> the memop stores 4.
    assert_eq!(
        reference.arrays[0].2[0], 4,
        "the memop's argument is typed at the cell width"
    );
    assert_eq!(reference.arrays[1].2[0], 4, "reads mask to the cell width");
}

/// Array-position names resolve lexically, as in the checker and the P4
/// backend: inside `inner`, called from `outer(b, ..)`, the bare name
/// `a` means the global `a` — `inner` cannot see the parameter of the
/// activation that called it.
#[test]
fn nested_calls_resolve_arrays_lexically() {
    let src = r#"
        global a = new Array<<32>>(4);
        global b = new Array<<32>>(4);
        global c = new Array<<32>>(4);
        fun int inner(int i) { return Array.get(a, i); }
        fun int outer(Array<<32>> a, int i) { return inner(i); }
        event go(int i);
        handle go(int i) {
            int v = outer(b, i);
            Array.set(c, 0, v);
        }
    "#;
    let schedule = Schedule::new()
        .poke(1, "a", 1, 111)
        .poke(1, "b", 1, 222)
        .event(1, 0, "go", &[1]);
    let reference = observe_legs(&checked(src), 1, &legs(), &schedule, Limits::QUIESCE, src);
    assert_eq!(
        reference.arrays[2].2[0], 111,
        "`a` inside inner must mean the global"
    );
}

/// The fused superinstructions run like the walker, in bounds and out.
#[test]
fn fused_ops_run_identically() {
    let prog = checked(FUSION_SINK);
    for idx in [0u64, 1, 2, 5] {
        let schedule = Schedule::new().event(1, 0, "go", &[idx, 7]);
        let limits = Limits::events(200_000);
        observe_legs(&prog, 1, &legs(), &schedule, limits, &format!("idx={idx}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random schedules, topology sizes, and worker counts over the
    /// kitchen sink: every leg must agree with the walker on state,
    /// stats, trace, and printf output.
    #[test]
    fn differential_random_schedules(
        switches in 1u64..=4,
        wsel in 0usize..WORKER_SWEEP.len(),
        raw in proptest::collection::vec((1u64..=4, 0u64..=5_000, 0u64..=255, 0u64..=4), 1..24)
    ) {
        let prog = checked(KITCHEN_SINK);
        let schedule = raw.iter().fold(Schedule::new(), |s, (sw, t, key, ttl)| {
            s.event((sw - 1) % switches + 1, *t, "pkt", &[*key, *ttl])
        });
        let legs = legs_with(&[WORKER_SWEEP[wsel]]);
        let context = format!("{switches} switches: {schedule:?}");
        let reference =
            observe_legs(&prog, switches, &legs, &schedule, Limits::events(200_000), &context);
        prop_assert_eq!(reference.fault, None);
    }

    /// Random *unvalidated* indices: runs that fault must fault
    /// identically (same kind, same location) on every leg, and runs
    /// that succeed must match.
    #[test]
    fn differential_faulting_runs(
        idx in proptest::collection::vec(0u64..=6, 1..8)
    ) {
        let src = r#"
            global a = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            event go(int i);
            handle go(int i) { Array.setm(a, i, plus, 1); }
        "#;
        let schedule = idx.iter().enumerate().fold(Schedule::new(), |s, (k, i)| {
            s.event(1, k as u64 * 100, "go", &[*i])
        });
        let context = format!("{schedule:?}");
        observe_legs(&checked(src), 1, &legs(), &schedule, Limits::events(200_000), &context);
    }
}
