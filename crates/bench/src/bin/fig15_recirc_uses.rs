//! Regenerates Figure 15: how each application uses recirculation, with
//! the asymptotic recirculation rate per class.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let data = lucid_bench::figure15();
    if mode.json {
        lucid_bench::jsonout::emit("fig15", |w| {
            for (class, apps) in &data {
                w.obj(|w| {
                    w.key("class").str(class.label());
                    w.key("rate").str(class.rate()).key("apps").arr(|w| {
                        for app in apps {
                            w.str(app);
                        }
                    });
                });
            }
        });
        return;
    }
    println!("Figure 15 — recirculation uses in the Figure 9 applications\n");
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|(class, apps)| {
            vec![
                class.label().to_string(),
                class.rate().to_string(),
                apps.join(", "),
            ]
        })
        .collect();
    print!(
        "{}",
        lucid_bench::render_table(&["Recirc. use", "Recirc. rate", "Applications"], &rows)
    );
}
