//! Workload-generator scale gate and bytecode perf-trajectory gate (not
//! a paper figure — it benchmarks this reproduction's streaming
//! generator subsystem and the interpreter's optimizer pipeline).
//!
//! Three seeded sources (zipf flows, uniform background, a 10x attack
//! burst) feed an 8-switch telemetry mesh through the pull-based
//! `EventSource` path, so the full event list is never materialized.
//! Correctness gates first: the engine x executor x opt-level matrix
//! must agree on the final state digest, statistics, and per-generator
//! injection counts (the bytecode rows sweep `--opt=0|1|2`, so an
//! optimizer miscompile cannot hide behind an equally-wrong lowering).
//! Then scale: the full run injects >= 1M events and the slowest
//! combination must sustain a floor of events/sec. Then the trajectory:
//! fully-optimized bytecode must be at least 10x the AST walker — the
//! paper-era interpreter-speed multiplier this repo targets. CI runs
//! `--smoke` and records the JSON (with both speedups) in
//! `BENCH_PR.json`.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    // Floors hold with ~2x headroom on a single-core container (measured
    // slowest: ~170k eps smoke, ~130k eps full — sharded/ast, where the
    // worker pool is pure overhead without real cores).
    let (target, floor_eps) = if mode.smoke {
        (60_000u64, 20_000.0)
    } else {
        (1_200_000u64, 60_000.0)
    };
    // Measured ~11-13x on a single-core dev container (opt level 2,
    // superinstructions + regalloc, benchmark rows running with trace
    // retention off); the floor leaves noise headroom while still
    // catching any real regression toward the ~5.7x the unoptimized
    // bytecode sits at.
    let floor_speedup = 10.0;
    let t = lucid_bench::workload_scale(8, target, 0);
    assert!(
        t.identical,
        "engine x exec x opt combinations disagree on generator workload state — determinism bug"
    );
    for r in &t.rows {
        assert_eq!(
            r.injected, t.target_events,
            "{}/{}/o{}: expected {} injections, got {}",
            r.engine, r.exec, r.opt, t.target_events, r.injected
        );
    }
    assert!(
        t.tail.lat_p50_ns > 0,
        "dispatch-latency p50 is zero — generator roots must spawn causal \
         chains (ttl > 0) or the recorded latency_tail is meaningless"
    );
    assert!(
        t.min_events_per_sec >= floor_eps,
        "slowest combination sustained only {:.0} events/sec (floor {:.0})",
        t.min_events_per_sec,
        floor_eps
    );
    assert!(
        t.bytecode_speedup >= floor_speedup,
        "optimized bytecode is only {:.2}x the AST walker (floor {:.1}x)",
        t.bytecode_speedup,
        floor_speedup
    );

    if mode.json {
        let doc = lucid_core::frontend::json::write(|w| {
            w.obj(|w| {
                w.key("figure").str("fig_workload_scale");
                w.key("switches").u64(t.switches as u64);
                w.key("target_events").u64(t.target_events as u64);
                w.key("identical").bool(t.identical);
                w.key("min_events_per_sec").f64(t.min_events_per_sec, 4);
                w.key("bytecode_speedup").f64(t.bytecode_speedup, 4);
                w.key("opt_speedup").f64(t.opt_speedup, 4);
                w.key("latency_tail").raw(&t.tail.to_json());
                w.key("rows").arr(|w| {
                    for r in &t.rows {
                        w.obj(|w| {
                            w.key("engine").str(r.engine).key("exec").str(r.exec);
                            // Bare number, matching SimReport::to_json's "opt"
                            // so the recorded artifact stays one type per field.
                            w.key("opt").raw(r.opt);
                            w.key("events_processed").u64(r.events_processed);
                            w.key("injected").u64(r.injected);
                            w.key("wall_ms").f64(r.wall_ms, 4);
                            w.key("events_per_sec").f64(r.events_per_sec, 4);
                            w.key("state_digest").hex64(r.state_digest);
                        });
                    }
                });
            });
        });
        println!("{doc}");
        return;
    }

    println!(
        "Workload scale — {} switches, {} generator-sourced events per run\n",
        t.switches, t.target_events
    );
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.engine.to_string(),
                r.exec.to_string(),
                r.opt.to_string(),
                r.events_processed.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.events_per_sec),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &["engine", "exec", "opt", "events", "wall ms", "events/sec"],
            &rows
        )
    );
    println!(
        "\nstate digest, metrics digest, stats, and per-generator counts identical: {}",
        t.identical
    );
    println!("{}", t.tail.render());
    println!(
        "slowest combination: {:.0} events/sec (gate: >= {:.0})",
        t.min_events_per_sec, floor_eps
    );
    println!(
        "optimized bytecode over the AST walker: {:.2}x (gate: >= {:.1}x); \
         optimizer's own contribution over raw lowering: {:.2}x",
        t.bytecode_speedup, floor_speedup, t.opt_speedup
    );
}
