//! Regenerates Figure 10: breakdown of the generated P4 by category
//! (actions, register actions, tables, headers, parsers) next to the
//! whole Lucid program's line count.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure10();
    if mode.json {
        lucid_bench::jsonout::emit("fig10", |w| {
            for r in &data {
                w.obj(|w| {
                    w.key("app").str(r.key);
                    w.key("actions").u64(r.p4.actions as u64);
                    w.key("reg_actions").u64(r.p4.reg_actions as u64);
                    w.key("tables").u64(r.p4.tables as u64);
                    w.key("headers").u64(r.p4.headers as u64);
                    w.key("parsers").u64(r.p4.parsers as u64);
                    w.key("other").u64(r.p4.control as u64);
                    w.key("total").u64(r.p4.total() as u64);
                    w.key("lucid_loc").u64(r.lucid_loc as u64);
                });
            }
        });
        return;
    }
    println!("Figure 10 — breakdown of P4 code vs Lucid\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.key.to_string(),
                r.p4.actions.to_string(),
                r.p4.reg_actions.to_string(),
                r.p4.tables.to_string(),
                r.p4.headers.to_string(),
                r.p4.parsers.to_string(),
                r.p4.control.to_string(),
                r.p4.total().to_string(),
                r.lucid_loc.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(
            &[
                "app",
                "P4 Action",
                "P4 RegActions",
                "P4 Tables",
                "P4 Headers",
                "P4 Parsers",
                "P4 Other",
                "P4 Total",
                "Lucid"
            ],
            &rows
        )
    );
    println!("\npaper observation to check: for most apps the whole Lucid program is");
    println!("shorter than the P4 register actions alone (memops are reusable; P4");
    println!("RegisterActions are copied per register).");
}
