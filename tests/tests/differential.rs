//! Differential property testing of the interpreter's executors:
//! random event schedules, initial array states, and topologies for the
//! bundled Figure-9 applications, asserting AST-walker == unoptimized
//! bytecode == optimized bytecode == sharded-bytecode on everything
//! observable — final array state, statistics, trace, and printf output
//! — and on runtime faults. Sweeping the bytecode executor at both
//! `--opt=0` and `--opt=2` means an optimizer miscompile cannot hide
//! behind an equally-wrong lowering (and vice versa).
//!
//! The case count defaults low so `cargo test` stays quick; CI's
//! fuzz-smoke step raises it with `LUCID_FUZZ_CASES=64`. The vendored
//! proptest shim always starts from one fixed seed, so failures
//! reproduce run-to-run.

use lucid_core::{CheckedProgram, Engine, ExecMode, Interp, InterpError, NetConfig, OptLevel};
use proptest::prelude::*;
use std::sync::OnceLock;

/// `LUCID_FUZZ_CASES` overrides the per-property case count (CI smoke).
fn cases() -> u32 {
    std::env::var("LUCID_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

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

/// Worker counts every sharded comparison sweeps: the lone-worker
/// fast path, even and odd pools, a prime that misaligns the
/// round-robin shard partition, and a pool wider than most topologies.
const WORKER_SWEEP: [usize; 6] = [1, 2, 3, 4, 7, 8];

/// One generated workload: a topology, initial pokes, and injections.
#[derive(Debug, Clone)]
struct Workload {
    app: usize,
    switches: u64,
    workers: usize,
    /// `(switch_sel, array_sel, index_sel, value)` — resolved modulo the
    /// app's actual arrays.
    pokes: Vec<(u64, u64, u64, u64)>,
    /// `(switch_sel, time_ns, event_sel, arg pool)` — resolved modulo
    /// the app's actual events; each event takes its arity's worth of
    /// args from the pool.
    events: Vec<(u64, u64, u64, [u64; 4])>,
}

/// Everything observable about one finished (or faulted) run. The final
/// `u64` is the metrics digest — per-event-class latency/residency
/// histograms folded to one value — so a single mis-bucketed sample in
/// the sharded collector shows up as a differential failure.
type Outcome = Result<
    (
        Vec<Vec<Vec<u64>>>,
        lucid_core::interp::Stats,
        Vec<lucid_core::interp::Handled>,
        Vec<String>,
        u64,
    ),
    InterpError,
>;

fn run(w: &Workload, engine: Engine, exec: ExecMode, opt: OptLevel) -> Outcome {
    let (key, prog) = &apps()[w.app];
    // Verify before executing: a miscompile must fail here with a V-code
    // naming the guilty pass, not downstream as a state divergence the
    // differential harness would have to diagnose back to the optimizer.
    if exec == ExecMode::Bytecode {
        if let Err(vs) = lucid_core::interp::CompiledProg::compile_verified(prog, opt) {
            panic!("{key}: verifier rejected O{} bytecode: {vs:?}", opt.label());
        }
    }
    let mut cfg = NetConfig::mesh(w.switches);
    cfg.engine = engine;
    cfg.exec = exec;
    cfg.opt = opt;
    let mut sim = Interp::new(prog, cfg);
    for (sw, arr, idx, val) in &w.pokes {
        let g = &prog.info.globals[(*arr as usize) % prog.info.globals.len()];
        sim.poke(
            (*sw % w.switches) + 1,
            &g.name,
            (*idx % g.len) as usize,
            *val,
        );
    }
    for (sw, t, ev, pool) in &w.events {
        let e = &prog.info.events[(*ev as usize) % prog.info.events.len()];
        let name = e.name.clone();
        let args: Vec<u64> = pool.iter().take(e.params.len()).copied().collect();
        sim.schedule((*sw % w.switches) + 1, *t, &name, &args)?;
    }
    // A virtual-time horizon bounds the self-perpetuating control loops
    // (sketch sweeps, timer scans) several apps run.
    sim.run(50_000, 200_000)?;
    let arrays = (1..=w.switches)
        .map(|s| {
            prog.info
                .globals
                .iter()
                .filter_map(|g| sim.try_array(s, &g.name).map(<[u64]>::to_vec))
                .collect()
        })
        .collect();
    Ok((
        arrays,
        sim.stats.clone(),
        sim.trace.clone(),
        sim.output.clone(),
        sim.metrics().digest(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The headline property: for every Figure-9 app and any workload,
    /// the bytecode executor is observably identical to the AST walker
    /// under the sequential engine, and the sharded engine reproduces
    /// both on successful runs.
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
        let w = Workload {
            app: (app as usize) % apps().len(),
            switches,
            workers: WORKER_SWEEP[wsel],
            pokes,
            events: events
                .into_iter()
                .map(|(sw, t, ev, (a, b, c, d))| (sw, t, ev, [a, b, c, d]))
                .collect(),
        };
        let reference = run(&w, Engine::Sequential, ExecMode::Ast, OptLevel::O2);
        // Sequential runs must agree on *everything*, faults included:
        // same fault kind, same offending event key, same state left
        // behind by the writes that preceded the fault — at the raw
        // lowering AND under the full optimizer pipeline.
        for opt in [OptLevel::O0, OptLevel::O2] {
            let bytecode = run(&w, Engine::Sequential, ExecMode::Bytecode, opt);
            prop_assert_eq!(&reference, &bytecode);
        }

        if reference.is_ok() {
            let sharded = run(
                &w,
                Engine::Sharded { workers: w.workers, epoch_ns: 0 },
                ExecMode::Bytecode,
                OptLevel::O2,
            );
            prop_assert_eq!(&reference, &sharded);
        }
    }
}

/// A deterministic (non-random) sweep: one representative schedule per
/// app through the full engine x exec x opt matrix. This keeps every
/// app on the differential path even when the property above samples
/// few cases.
#[test]
fn every_app_runs_identically_across_the_matrix() {
    for (i, (key, _)) in apps().iter().enumerate() {
        let events: Vec<(u64, u64, u64, [u64; 4])> = (0..8)
            .map(|k| (k, k * 900, k + 1, [k % 7, (3 * k) % 11, k % 4, k % 2]))
            .collect();
        let w = Workload {
            app: i,
            switches: 3,
            workers: 2,
            pokes: vec![(0, 0, 0, 5)],
            events,
        };
        let reference = run(&w, Engine::Sequential, ExecMode::Ast, OptLevel::O2);
        let mut engines = vec![(Engine::Sequential, "sequential".to_string())];
        for workers in WORKER_SWEEP {
            engines.push((
                Engine::Sharded {
                    workers,
                    epoch_ns: 0,
                },
                format!("sharded-w{workers}"),
            ));
        }
        for (engine, elabel) in engines {
            let combos = [
                (ExecMode::Ast, OptLevel::O2),
                (ExecMode::Bytecode, OptLevel::O0),
                (ExecMode::Bytecode, OptLevel::O2),
            ];
            for (exec, opt) in combos {
                if reference.is_err() && engine != Engine::Sequential {
                    // Error runs differ in sharded bookkeeping only; the
                    // sequential comparison above still pins them.
                    continue;
                }
                let got = run(&w, engine, exec, opt);
                assert_eq!(
                    reference,
                    got,
                    "{key}: {elabel}/{}/O{} diverges from the reference",
                    exec.label(),
                    opt.label()
                );
            }
        }
        // Ensure the workload actually did something — and that the
        // metrics collector actually saw it (a digest of empty
        // histograms would make the equality above vacuous).
        if let Ok((_, stats, _, _, digest)) = &reference {
            assert!(stats.processed > 0, "{key}: empty run");
            assert_ne!(
                *digest,
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
    let prog = lucid_core::check::parse_and_check(src).expect("program checks");
    let vals: [u64; 4] = [0xAB, 0xBEEF, 0xDEAD_BEEF, 0xDEAD_BEEF_CAFE_F00D];
    let mut observed = Vec::new();
    let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
    combos.extend([OptLevel::O0, OptLevel::O2].map(|l| (ExecMode::Bytecode, l)));
    for (exec, opt) in combos {
        let mut cfg = NetConfig::single();
        cfg.exec = exec;
        cfg.opt = opt;
        let mut sim = Interp::new(&prog, cfg);
        for n in 0..80u64 {
            sim.schedule(1, n * 100, "go", &[vals[0], vals[1], vals[2], vals[3], n])
                .unwrap();
        }
        sim.run_to_quiescence().unwrap();
        let arrays: Vec<Vec<u64>> = [
            "shl8", "shr8", "shl16", "shr16", "shl32", "shr32", "shl64", "shr64",
        ]
        .iter()
        .map(|a| sim.array(1, a).to_vec())
        .collect();
        observed.push(arrays);
    }
    for o in &observed[1..] {
        assert_eq!(&observed[0], o, "executors disagree on shifts");
    }

    // Pin the semantics themselves, not just executor agreement.
    let mask = |w: u32| if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
    for (i, &w) in [8u32, 16, 32, 64].iter().enumerate() {
        let x = vals[i] & mask(w);
        for n in 0..80u64 {
            let want_shl = if n >= w as u64 { 0 } else { (x << n) & mask(w) };
            let want_shr = if n >= w as u64 { 0 } else { x >> n };
            assert_eq!(
                observed[0][2 * i][n as usize],
                want_shl,
                "width {w}: {x:#x} << {n}"
            );
            assert_eq!(
                observed[0][2 * i + 1][n as usize],
                want_shr,
                "width {w}: {x:#x} >> {n}"
            );
        }
    }
}
