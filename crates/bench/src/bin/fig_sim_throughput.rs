//! Simulation throughput: the engine x executor matrix on a
//! cross-traffic-heavy 16-switch mesh (not a paper figure — it
//! benchmarks this reproduction's own `lucidc sim` subsystem).
//!
//! Correctness gate first: all four combinations (sequential/sharded
//! engine x AST-walker/bytecode executor) must produce byte-identical
//! final array state, statistics, traces, printf output, and
//! per-event-class latency metrics. Then
//! events/sec. Two speedups are reported: sharded-over-sequential
//! reflects the host's core count (~1x on single-core boxes), while
//! bytecode-over-AST is the flat-dispatch payoff and must be >= 2x
//! everywhere — CI runs this binary in smoke mode and this assertion is
//! the gate.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let (switches, injected, ttl) = if mode.smoke {
        (16, 100, 3)
    } else {
        (16, 400, 4)
    };
    let t = lucid_bench::sim_throughput(switches, injected, ttl, 0);
    assert!(
        t.identical,
        "engine x exec combinations disagree on state/stats/trace/output/metrics — determinism bug"
    );
    assert!(
        t.bytecode_speedup >= 2.0,
        "bytecode must be at least 2x the AST walker, got {:.2}x",
        t.bytecode_speedup
    );

    if mode.json {
        let doc = lucid_core::frontend::json::write(|w| {
            w.obj(|w| {
                w.key("figure").str("fig_sim_throughput");
                w.key("switches").u64(t.switches as u64);
                w.key("injected_per_switch")
                    .u64(t.injected_per_switch as u64);
                w.key("workers").u64(t.workers as u64);
                w.key("identical").bool(t.identical);
                w.key("speedup").f64(t.speedup, 4);
                w.key("bytecode_speedup").f64(t.bytecode_speedup, 4);
                w.key("latency_tail").raw(&t.tail.to_json());
                w.key("rows").arr(|w| {
                    for r in &t.rows {
                        w.obj(|w| {
                            w.key("engine").str(r.engine).key("exec").str(r.exec);
                            w.key("events_processed").u64(r.events_processed);
                            w.key("wall_ms").f64(r.wall_ms, 4);
                            w.key("events_per_sec").f64(r.events_per_sec, 4);
                        });
                    }
                });
            });
        });
        println!("{doc}");
        return;
    }

    println!(
        "Simulation throughput — {} switches, {} injected events/switch, {} workers\n",
        t.switches, t.injected_per_switch, t.workers
    );
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.engine.to_string(),
                r.exec.to_string(),
                r.events_processed.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.events_per_sec),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &["engine", "exec", "events", "wall ms", "events/sec"],
            &rows
        )
    );
    println!(
        "\nstate/stats/trace/printf/metrics identical across the matrix: {}",
        t.identical
    );
    println!("{}", t.tail.render());
    println!(
        "bytecode speedup over the AST walker: {:.2}x (sequential engine)",
        t.bytecode_speedup
    );
    println!(
        "sharded speedup: {:.2}x ({} worker threads; expect ~1x on single-core hosts)",
        t.speedup, t.workers
    );
}
