//! Regenerates Figure 16: modeled worst-case recirculation overhead for
//! the stateful firewall (N = 2^16 entries, i = 100 ms scan interval) on
//! the idealized PISA processor of §7.3.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure16();
    if mode.json {
        lucid_bench::jsonout::emit("fig16", |w| {
            for r in &data {
                w.obj(|w| {
                    w.key("flow_rate").f64(r.flow_rate, 4);
                    w.key("recirc_rate_pps").f64(r.recirc_rate_pps, 4);
                    w.key("pipeline_utilization").f64(r.pipeline_utilization, 4);
                    w.key("min_pkt_size_bytes").f64(r.min_pkt_size_bytes, 4);
                });
            }
        });
        return;
    }
    println!("Figure 16 — modeled worst-case SFW recirculation overhead");
    println!("(N = 2^16, i = 100 ms; r = N/i + f*log2(N))\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.0}K flows/s", r.flow_rate / 1_000.0),
                format!("{:.0}K pkts/s", r.recirc_rate_pps / 1_000.0),
                format!("{:.2}%", r.pipeline_utilization * 100.0),
                format!("{:.2} B", r.min_pkt_size_bytes),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &[
                "flow rate (f)",
                "recirc. rate",
                "pipeline utilization",
                "min. pkt. size"
            ],
            &rows
        )
    );
    println!("\npaper row check: 10K flows/s -> 815K pkts/s, 0.08%, ~125.3 B.");
}
