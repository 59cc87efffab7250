//! Regenerates Figure 14: recirculation bandwidth and relative timing
//! error of delayed events, continuous recirculation (baseline) vs the
//! PFC-pausable delay queue, for 0..90 concurrent 64 B events on a
//! 100 Gb/s recirculation port.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure14();
    if mode.json {
        lucid_bench::jsonout::emit("fig14", |w| {
            for p in &data {
                w.obj(|w| {
                    w.key("events").u64(p.concurrent_events as u64);
                    w.key("baseline_gbps").f64(p.baseline_gbps, 4);
                    w.key("delay_queue_gbps").f64(p.delay_queue_gbps, 4);
                    w.key("baseline_rel_err").f64(p.baseline_rel_err, 4);
                    w.key("delay_queue_rel_err").f64(p.delay_queue_rel_err, 4);
                });
            }
        });
        return;
    }
    println!("Figure 14 — pausable queue overhead and accuracy\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|p| {
            vec![
                p.concurrent_events.to_string(),
                format!("{:.2}", p.baseline_gbps),
                format!("{:.2}", p.delay_queue_gbps),
                format!("{:.4}", p.baseline_rel_err),
                format!("{:.4}", p.delay_queue_rel_err),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &[
                "events",
                "baseline Gb/s",
                "delay-queue Gb/s",
                "baseline rel.err",
                "delay-queue rel.err"
            ],
            &rows
        )
    );
    println!("\npaper: baseline saturates (>95 Gb/s at 90 events); delay queue ~5.5 Gb/s —");
    println!("a ~20x bandwidth reduction bought with bounded timing error.");
}
