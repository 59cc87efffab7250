//! Worker-count scaling of the sharded engine (not a paper figure — it
//! benchmarks this reproduction's parallel interpreter core).
//!
//! Sweeps the sharded/bytecode engine across worker counts on a
//! 16-switch generator-driven mesh and compares every point — state
//! digest, metrics digest, statistics, and per-generator counts —
//! against the one-worker row, which is the sequential engine (one
//! driver loop runs every worker count). Correctness gates: all runs
//! must be bit-identical and the dispatch-latency p50 must be non-zero
//! (the workload injects causal chains precisely so the tail is
//! meaningful). Scaling above one worker is recorded but only flagged
//! (`monotone`), because on a single-core host every extra worker is
//! pure overhead; CI tracks the curve through `BENCH_PR.json`.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let target = if mode.smoke { 60_000u64 } else { 1_000_000u64 };
    let workers = [1usize, 2, 4, 8];
    let t = lucid_bench::parallel_scale(16, target, &workers);
    assert!(
        t.identical,
        "worker counts disagree on state/metrics/stats/generator counts — determinism bug"
    );
    assert!(
        t.tail.lat_p50_ns > 0,
        "dispatch-latency p50 is zero — the workload no longer generates causal chains"
    );

    if mode.json {
        let doc = lucid_core::frontend::json::write(|w| {
            w.obj(|w| {
                w.key("figure").str("fig_parallel_scale");
                w.key("switches").u64(t.switches as u64);
                w.key("target_events").u64(t.target_events as u64);
                w.key("identical").bool(t.identical);
                w.key("monotone").bool(t.monotone);
                w.key("available_parallelism")
                    .u64(t.available_parallelism as u64);
                w.key("latency_tail").raw(&t.tail.to_json());
                w.key("rows").arr(|w| {
                    for r in &t.rows {
                        w.obj(|w| {
                            w.key("workers").u64(r.workers as u64);
                            w.key("events_processed").u64(r.events_processed);
                            w.key("wall_ms").f64(r.wall_ms, 4);
                            w.key("events_per_sec").f64(r.events_per_sec, 4);
                            w.key("speedup").f64(r.speedup, 4);
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
        "Parallel scaling — {} switches, {} generator-sourced events per run\n",
        t.switches, t.target_events
    );
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                r.events_processed.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.events_per_sec),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &["workers", "events", "wall ms", "events/sec", "speedup"],
            &rows
        )
    );
    println!(
        "\nstate/metrics/stats/generator counts identical across all runs: {}",
        t.identical
    );
    println!("{}", t.tail.render());
    println!(
        "monotone above one worker: {} (host available_parallelism: {})",
        t.monotone, t.available_parallelism
    );
}
