//! Integration tests of the streaming workload-generator subsystem:
//! seed-determinism of generator scenarios across the full engine x
//! executor matrix, lazy scaling through the `--events` override, and a
//! property sweep over randomly drawn generator specs.

use lucid_core::{
    run_scenario, run_scenario_with, ArgDist, Engine, ExecMode, GenSpec, Interp, InterpFault,
    NetConfig, OptLevel, Phase, Scenario, SimOptions, SimReport, SimSession, Workload,
};
use proptest::prelude::*;

/// A mesh program with cross-switch forwarding, so the sharded engine's
/// epoch barriers are actually exercised by generated traffic.
const MESH: &str = r#"
    global cnt = new Array<<32>>(256);
    global mix = new Array<<32>>(256);
    memop plus(int m, int x) { return m + x; }
    event pkt(int key, int ttl);
    handle pkt(int key, int ttl) {
        auto i = hash<<8>>(1, key);
        int c = Array.update(cnt, i, plus, 1, plus, 1);
        auto j = hash<<8>>(2, c, key);
        Array.setm(mix, j, plus, key);
        if (ttl > 0) {
            generate Event.locate(pkt(key + c, ttl - 1), ((key + c) & 3) + 1);
        }
    }
"#;

fn checked(src: &str) -> lucid_core::CheckedProgram {
    lucid_core::check::parse_and_check(src).expect("program checks")
}

const GEN_SCENARIO: &str = r#"{
    "name": "gen-mesh",
    "net": {"switches": 4},
    "seed": 5,
    "limits": {"max_events": 500000},
    "generators": [
      {"name": "hot", "event": "pkt", "switches": [1, 2, 3, 4],
       "rate_eps": 1000000, "jitter_ns": 150, "count": 4000,
       "args": [{"zipf": {"n": 512, "s": 1.2}}, 2]},
      {"name": "sweep", "event": "pkt", "switch": 2,
       "rate_eps": 400000, "count": 2000,
       "args": [{"seq": 300}, 1]},
      {"name": "burst", "event": "pkt", "switch": 3,
       "interval_ns": 900, "start_ns": 1000, "count": 1500,
       "phases": [{"at_ns": 500000, "rate_eps": 4000000}],
       "args": [{"uniform": [0, 4095]}, 0]}
    ]
}"#;

/// What "bit-identical" means for a report: everything except wall-clock
/// — including the per-event-class latency/residency histograms, folded
/// into the metrics digest.
fn fingerprint(r: &SimReport) -> (u64, lucid_core::interp::Stats, Vec<(String, u64)>, u64, u64) {
    (
        r.state_digest,
        r.stats.clone(),
        r.gens.clone(),
        r.sim_ns,
        r.metrics.digest(),
    )
}

/// [`MESH`] and [`GEN_SCENARIO`] stretched to a `switches`-wide mesh (a
/// power of two): the forwarding mask and the topology grow together, so
/// traffic that enters at switches 1-4 spreads over every shard.
fn mesh_case(switches: u64) -> (lucid_core::CheckedProgram, Scenario) {
    let (mask, net) = ("& 3)", r#""net": {"switches": 4}"#);
    assert!(MESH.contains(mask) && GEN_SCENARIO.contains(net));
    let prog = MESH.replace(mask, &format!("& {})", switches - 1));
    let sc = GEN_SCENARIO.replace(net, &format!(r#""net": {{"switches": {switches}}}"#));
    (checked(&prog), Scenario::from_json(&sc).unwrap())
}

/// One-shot run (open + drain, which is what `run_scenario_with` does)
/// that also hands back what the report leaves out: the drained world,
/// for its dispatch trace, per-source pull counters and queue depth.
fn run_to_world(
    prog: &lucid_core::CheckedProgram,
    sc: &Scenario,
    opts: &SimOptions,
) -> (SimReport, SimSession) {
    let mut session = SimSession::open(prog, sc, opts).unwrap();
    let report = session.drain().unwrap();
    (report, session)
}

/// A bare world over `sc`'s mesh and (uncapped) generators, for the
/// cases that stop a run part-way and carry on under another engine.
fn mesh_world(prog: &lucid_core::CheckedProgram, sc: &Scenario, engine: Engine) -> Interp {
    let mut cfg = NetConfig::mesh(sc.switches.len() as u64);
    cfg.engine = engine;
    let mut sim = Interp::new(prog, cfg);
    let gens = sc.generators.iter().enumerate();
    sim.set_source(Box::new(Workload::new(
        gens.map(|(i, g)| g.compile(prog, sc.seed, i)).collect(),
        None,
    )));
    sim
}

/// Everything a paused or finished world holds: the snapshot bytes
/// (clock, stats, trace, every array cell and latency histogram — what
/// both digests are functions of — the pending queue and each
/// generator's cursor) beside the fields read back directly.
fn observe(sim: &Interp) -> (Vec<u8>, lucid_core::interp::Stats, usize, Vec<u64>, u64) {
    let mut world = Vec::new();
    sim.save_world(&mut world).unwrap();
    (
        world,
        sim.stats.clone(),
        sim.pending(),
        sim.source_counts().to_vec(),
        sim.metrics().digest(),
    )
}

/// The generated-traffic oracle: engine x worker count x executor x opt
/// level on a cross-switch mesh, equal on every report field that is not
/// wall-clock *and* on the full dispatch trace, the per-generator pull
/// counters and the queue depth. The workload is uncapped and mixes one
/// multi-switch generator with two single-switch ones, so where a source
/// is pulled (which worker, how far ahead) must never show. The second
/// case is the wide one — sixteen shards, two per worker at eight — that
/// the app-level differential sweep (at most four switches) cannot reach.
#[test]
fn generator_matrix_is_bit_identical_and_seed_sensitive() {
    let sharded = |workers, epoch_ns| Engine::Sharded { workers, epoch_ns };
    let pool = [sharded(2, 0), sharded(4, 0), sharded(8, 0)];
    let cases: [(u64, &[Engine]); 2] = [
        (4, &[Engine::Sequential, pool[0], sharded(4, 250), pool[2]]),
        (16, &pool),
    ];
    for (switches, engines) in cases {
        let (prog, sc) = mesh_case(switches);
        let base = SimOptions::new()
            .engine(Engine::Sequential)
            .exec(ExecMode::Ast);
        let (reference, ref_world) = run_to_world(&prog, &sc, &base);
        let ref_trace = &ref_world.world().trace;
        assert_eq!(ref_world.world().source_counts(), [4000, 2000, 1500]);
        assert_eq!(ref_world.world().pending(), 0);
        assert_eq!(
            reference.gens,
            vec![
                ("hot".to_string(), 4000),
                ("sweep".to_string(), 2000),
                ("burst".to_string(), 1500)
            ]
        );
        // A root with ttl t is a chain of t + 1 events.
        assert_eq!(
            reference.stats.processed,
            4000 * 3 + 2000 * 2 + 1500,
            "{switches} switches"
        );
        assert_eq!(ref_trace.len() as u64, reference.stats.processed);
        assert!(
            reference.stats.sent_remote > 1000,
            "workload must cross switches: {:?}",
            reference.stats
        );
        // Only derived events sample dispatch latency; a zero median
        // would make the metrics-digest equality below vacuous.
        let latency = reference.metrics.overall().unwrap_or_default().dispatch;
        assert!(latency.p50() > 0, "{switches} switches: no causal chains");
        for &engine in engines {
            for (exec, opt) in [
                (ExecMode::Ast, OptLevel::O2),
                (ExecMode::Bytecode, OptLevel::O0),
                (ExecMode::Bytecode, OptLevel::O1),
                (ExecMode::Bytecode, OptLevel::O2),
            ] {
                let opts = SimOptions::new().engine(engine).exec(exec).opt(opt);
                let (got, world) = run_to_world(&prog, &sc, &opts);
                let world = world.world();
                let at = format!(
                    "{switches} switches [{:?}/{}/O{}] vs sequential/ast",
                    engine,
                    exec.label(),
                    opt.label()
                );
                assert_eq!(fingerprint(&reference), fingerprint(&got), "{at}");
                assert!(*ref_trace == world.trace, "{at}: dispatch traces differ");
                assert_eq!(world.source_counts(), [4000, 2000, 1500], "{at}");
                assert_eq!(world.pending(), 0, "{at}");
            }
        }
        // Pause every worker count at the same instant in the middle of
        // all three streams: the paused worlds — snapshot bytes included
        // — are one world. Then carry each on under a different worker
        // count (1 -> 4, 2 -> 8, 4 -> 1, 8 -> 2): every one lands on the
        // one-shot result.
        let engines = [Engine::Sequential, pool[0], pool[1], pool[2]];
        let mut oneshot = mesh_world(&prog, &sc, Engine::Sequential);
        oneshot.run_to_quiescence().unwrap();
        assert!(
            *ref_trace == oneshot.trace,
            "{switches} switches: bare world"
        );
        let mut paused: Vec<Interp> = Vec::new();
        let mut first = None;
        for engine in engines {
            let mut sim = mesh_world(&prog, &sc, engine);
            sim.run(u64::MAX, 600_000).unwrap();
            assert!(sim.source_pending(), "the pause must land mid-stream");
            let counts = sim.source_counts();
            assert!(counts.iter().all(|&n| n > 0) && counts[1] < 2000 && counts[2] < 1500);
            let seen = observe(&sim);
            let first = first.get_or_insert_with(|| seen.clone());
            assert!(
                *first == seen,
                "{switches} switches paused under {engine:?}"
            );
            paused.push(sim);
        }
        let done = observe(&oneshot);
        for (i, mut sim) in paused.into_iter().enumerate() {
            let (from, to) = (engines[i], engines[(i + 2) % engines.len()]);
            sim.config.engine = to;
            sim.run_to_quiescence().unwrap();
            let at = format!("{switches} switches {from:?} then {to:?}");
            assert!(done == observe(&sim), "{at}");
        }
        // Same seed, same run (every row above) — different seed,
        // different traffic.
        let reseeded = run_scenario_with(&prog, &sc, &base.seed(6)).unwrap();
        assert_ne!(reference.state_digest, reseeded.state_digest);
        assert_eq!(
            reseeded.stats.processed, reference.stats.processed,
            "a reseed moves keys around but not the volume"
        );
    }
}

#[test]
fn events_override_scales_lazily_and_engines_still_agree() {
    let prog = checked(MESH);
    let sc = Scenario::from_json(GEN_SCENARIO).unwrap();
    // 7500 authored events scaled to 60k: per-generator counts stretch
    // proportionally and the stream still never materializes.
    let ov = SimOptions {
        events: Some(60_000),
        ..SimOptions::default()
    };
    let seq = run_scenario_with(&prog, &sc, &ov).unwrap();
    let injected: u64 = seq.gens.iter().map(|(_, n)| n).sum();
    assert_eq!(injected, 60_000);
    assert_eq!(seq.gens[0].1, 32_000, "{:?}", seq.gens);
    assert_eq!(seq.gens[1].1, 16_000, "{:?}", seq.gens);
    let sh = run_scenario_with(
        &prog,
        &sc,
        &SimOptions {
            engine: Some(Engine::Sharded {
                workers: 3,
                epoch_ns: 0,
            }),
            exec: Some(ExecMode::Bytecode),
            ..ov
        },
    )
    .unwrap();
    assert_eq!(fingerprint(&seq), fingerprint(&sh));
}

/// A budget stop in the middle of the generator streams leaves the same
/// world behind under the sequential engine and the sharded engine at
/// one worker — error, stats, queue depth, clock, per-generator pull
/// counts — and resuming under the other engine lands on the one-shot
/// result.
#[test]
fn budget_stop_mid_stream_is_engine_independent_at_one_worker() {
    let prog = checked(MESH);
    let sc = Scenario::from_json(GEN_SCENARIO).unwrap();
    let world = |engine: Engine| mesh_world(&prog, &sc, engine);
    let observe = |sim: &Interp| {
        let arrays: Vec<Vec<u64>> = (1..=4)
            .flat_map(|s| [sim.array(s, "cnt").to_vec(), sim.array(s, "mix").to_vec()])
            .collect();
        (
            arrays,
            sim.stats.clone(),
            sim.pending(),
            sim.now_ns,
            sim.source_counts().to_vec(),
        )
    };
    let w1 = Engine::Sharded {
        workers: 1,
        epoch_ns: 0,
    };
    let mut oneshot = world(Engine::Sequential);
    oneshot.run_to_quiescence().unwrap();

    let mut stops = Vec::new();
    for (first, second) in [(Engine::Sequential, w1), (w1, Engine::Sequential)] {
        let mut sim = world(first);
        let err = sim.run(5_000, u64::MAX).unwrap_err();
        assert_eq!(err.kind, InterpFault::FuelExhausted { handled: 5_000 });
        assert!(sim.source_pending(), "the stop must land mid-stream");
        stops.push(observe(&sim));
        sim.config.engine = second;
        sim.run_to_quiescence().unwrap();
        assert_eq!(
            observe(&sim),
            observe(&oneshot),
            "{first:?} then {second:?}"
        );
    }
    assert_eq!(stops[0], stops[1], "sequential stop vs one-worker stop");
}

/// The bundled generator scenarios must be reproducible from their files
/// alone: same file, same seed, same digest on every engine x executor.
#[test]
fn bundled_generator_scenarios_are_matrix_deterministic() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut found = 0;
    for entry in std::fs::read_dir(root.join("crates/apps/scenarios")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let Some(base) = name.strip_suffix(".sim.json") else {
            continue;
        };
        let sc = Scenario::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        if sc.generators.is_empty() {
            continue;
        }
        found += 1;
        let app = base.split('.').next().unwrap();
        let prog = checked(
            &std::fs::read_to_string(root.join(format!("crates/apps/programs/{app}.lucid")))
                .unwrap(),
        );
        let reference =
            run_scenario(&prog, &sc, Some(Engine::Sequential), Some(ExecMode::Ast)).unwrap();
        assert!(reference.passed(), "{name}: {:?}", reference.mismatches);
        for engine in [
            Engine::Sequential,
            Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            },
        ] {
            for exec in [ExecMode::Ast, ExecMode::Bytecode] {
                let got = run_scenario(&prog, &sc, Some(engine), Some(exec)).unwrap();
                assert_eq!(
                    fingerprint(&reference),
                    fingerprint(&got),
                    "{name} [{}/{}]",
                    engine.label(),
                    exec.label()
                );
            }
        }
    }
    assert!(found >= 2, "expected >= 2 bundled generator scenarios");
}

// --------------------------------------------------------------- proptest

/// Build a scenario around randomly drawn generator specs.
fn scenario_of(switches: u64, seed: u64, gens: Vec<GenSpec>) -> Scenario {
    Scenario {
        name: "prop".into(),
        description: String::new(),
        switches: (1..=switches).collect(),
        link_latency_ns: 1_000,
        recirc_latency_ns: 600,
        engine: Engine::Sequential,
        exec: ExecMode::Ast,
        opt: Default::default(),
        max_events: 1_000_000,
        max_time_ns: u64::MAX,
        seed,
        init: Vec::new(),
        events: Vec::new(),
        generators: gens,
        failures: Vec::new(),
        expect: Default::default(),
        metrics: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random generator specs (every distribution kind, random rates,
    /// jitter, windows, phases): the engine x executor matrix must stay
    /// bit-identical, and injection counts must satisfy the spec bounds.
    #[test]
    fn random_generator_specs_stay_deterministic(
        switches in 1u64..=4,
        seed in 0u64..=1_000,
        raw in proptest::collection::vec(
            (1u64..=400, 0u64..=200, 1u64..=120, 0u64..=3, 1u64..=64, 0u64..=2),
            1..4
        )
    ) {
        let prog = checked(MESH);
        let gens: Vec<GenSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, (interval, jitter, count, dist, n, s_sel))| {
                let key_dist = match dist {
                    0 => ArgDist::Const(n % 7),
                    1 => ArgDist::Uniform { lo: 0, hi: *n },
                    2 => ArgDist::Zipf {
                        n: *n,
                        s: [0.8, 1.0, 1.3][*s_sel as usize],
                    },
                    _ => ArgDist::Seq { n: *n },
                };
                GenSpec {
                    name: format!("g{i}"),
                    event: "pkt".into(),
                    switches: (1..=(1 + (n % switches))).collect(),
                    interval_ns: *interval,
                    jitter_ns: *jitter,
                    start_ns: i as u64 * 50,
                    stop_ns: None,
                    count: Some(*count),
                    seed: *n,
                    args: vec![key_dist, ArgDist::Const(1)],
                    phases: if *s_sel == 2 {
                        vec![Phase { at_ns: 5_000, interval_ns: (*interval / 2).max(1) }]
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect();
        let total: u64 = gens.iter().map(|g| g.count.unwrap()).sum();
        let sc = scenario_of(switches, seed, gens);
        let reference =
            run_scenario(&prog, &sc, Some(Engine::Sequential), Some(ExecMode::Ast)).unwrap();
        let injected: u64 = reference.gens.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(injected, total);
        for (engine, exec) in [
            (Engine::Sequential, ExecMode::Bytecode),
            (Engine::Sharded { workers: 2, epoch_ns: 0 }, ExecMode::Ast),
            (Engine::Sharded { workers: 3, epoch_ns: 0 }, ExecMode::Bytecode),
        ] {
            let got = run_scenario(&prog, &sc, Some(engine), Some(exec)).unwrap();
            prop_assert_eq!(&fingerprint(&reference), &fingerprint(&got));
        }
    }
}
