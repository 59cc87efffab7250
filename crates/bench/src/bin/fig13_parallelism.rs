//! Regenerates Figure 13: ALU instructions the compiler mapped to each
//! pipeline stage (mean and max over occupied stages) — the measure of
//! how much instruction-level parallelism the merge/rearrange passes find.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure13();
    if mode.json {
        lucid_bench::jsonout::emit("fig13", |w| {
            for r in &data {
                w.obj(|w| {
                    w.key("app").str(r.key);
                    w.key("mean_alu_per_stage").f64(r.mean_alu_per_stage, 4);
                    w.key("max_alu_per_stage").u64(r.max_alu_per_stage as u64);
                });
            }
        });
        return;
    }
    println!("Figure 13 — ALU instructions per stage in optimized code\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.key.to_string(),
                format!("{:.1}", r.mean_alu_per_stage),
                r.max_alu_per_stage.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(&["app", "mean ALU/stage", "max ALU/stage"], &rows)
    );
    println!("\npaper: 2-13 statements per stage across the suite.");
}
