//! Figure 11 stand-in. The paper's Figure 11 is a human study (time for a
//! student without Tofino experience to write each app); developer time
//! cannot be simulated. We print the paper's numbers for reference and
//! report compile+check wall time — the iteration-loop latency a
//! developer actually feels.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure11();
    if mode.json {
        lucid_bench::jsonout::emit("fig11", |w| {
            for r in &data {
                w.obj(|w| {
                    w.key("app").str(r.key);
                    w.key("compile_time_us").f64(r.compile_time_us, 4);
                    w.key("paper_dev_time");
                    match r.paper_dev_time {
                        Some(t) => w.str(t),
                        None => w.null(),
                    };
                });
            }
        });
        return;
    }
    println!("Figure 11 — development time (paper, human study) and compile time (ours)\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.key.to_string(),
                r.paper_dev_time.unwrap_or("-").to_string(),
                format!("{:.1} ms", r.compile_time_us / 1_000.0),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(&["app", "paper dev. time", "our compile+check time"], &rows)
    );
    println!("\nnote: the dev-time study is not reproducible in software.");
}
