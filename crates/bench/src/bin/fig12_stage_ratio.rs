//! Regenerates Figure 12: optimized vs unoptimized stage count per app
//! (unoptimized = atomic tables on the longest control path, branch
//! tables included), plus the rearrangement ablation.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure12();
    if mode.json {
        lucid_bench::jsonout::emit("fig12", |w| {
            for r in &data {
                w.obj(|w| {
                    w.key("app").str(r.key);
                    w.key("unoptimized").u64(r.unoptimized_stages as u64);
                    w.key("optimized").u64(r.optimized_stages as u64);
                    w.key("ratio").f64(r.ratio, 4).key("no_rearrange");
                    match r.no_rearrange_stages {
                        Some(n) => w.u64(n as u64),
                        None => w.null(),
                    };
                });
            }
        });
        return;
    }
    println!("Figure 12 — optimized stage count vs unoptimized\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.key.to_string(),
                r.unoptimized_stages.to_string(),
                r.optimized_stages.to_string(),
                format!("{:.2}", r.ratio),
                r.no_rearrange_stages
                    .map_or_else(|| "-".into(), |n| n.to_string()),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &[
                "app",
                "unoptimized",
                "optimized",
                "ratio",
                "no-rearrange (ablation)"
            ],
            &rows
        )
    );
    println!("\npaper: ratios of 1.5-4x, larger for complex apps (*Flow, DNS).");
}
