//! Regenerates the paper's Figure 9: the application table with Lucid
//! LoC, (generated) P4 LoC, and Tofino pipeline stages.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure09();
    if mode.json {
        lucid_bench::jsonout::emit("fig09", |w| {
            for r in &data {
                w.obj(|w| {
                    w.key("app").str(r.app.key);
                    w.key("lucid_loc").u64(r.lucid_loc as u64);
                    w.key("p4_loc").u64(r.p4_loc as u64);
                    w.key("stages").u64(r.stages as u64);
                });
            }
        });
        return;
    }
    println!("Figure 9 — applications with data-plane integrated control\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.app.name.to_string(),
                r.app.control_role.to_string(),
                r.lucid_loc.to_string(),
                r.p4_loc.to_string(),
                r.stages.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &[
                "Application",
                "Role of control events",
                "Lucid LoC",
                "P4 LoC",
                "Stages"
            ],
            &rows
        )
    );
    println!("\npaper: Lucid 41-215 LoC, P4 707-2267 LoC, 5-12 stages;");
    println!("the P4 column counts our compiler's output (within ~15% of hand-written P4, §7.1).");
}
