//! Regenerates Figure 17: the CDF of stateful-firewall flow installation
//! time, data-plane integrated control (measured in the interpreter, 1000
//! trials, 2048-slot table, load factor 0.3125) vs the remote-control
//! baseline (Mantis latency model).

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    let trials = mode.trials(1000, 100);
    let f = lucid_bench::figure17(trials, 2021);
    if mode.json {
        lucid_bench::jsonout::emit("fig17", |w| {
            w.obj(|w| {
                w.key("trials").u64(trials as u64);
                w.key("integrated_mean_ns").f64(f.integrated_mean_ns, 4);
                w.key("remote_mean_ns").f64(f.remote_mean_ns, 4);
                w.key("speedup").f64(f.speedup, 4);
                w.key("frac_inline").f64(f.frac_inline, 4);
            });
        });
        return;
    }
    println!("Figure 17 — SFW flow installation times ({trials} trials)\n");

    println!("integrated control (Lucid):");
    print_cdf(&f.integrated);
    println!("\nremote control (baseline):");
    print_cdf(&f.remote);

    println!("\ninline installs (0 ns): {:.1}%", f.frac_inline * 100.0);
    println!(
        "mean integrated: {:.0} ns   mean remote: {:.0} ns",
        f.integrated_mean_ns, f.remote_mean_ns
    );
    println!(
        "speedup: {:.0}x  (paper: 49 ns vs 17.5 us — over 300x)",
        f.speedup
    );
}

/// Print a compact CDF: the probability at a fixed set of quantile knots.
fn print_cdf(cdf: &[(f64, f64)]) {
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00] {
        let idx = ((cdf.len() as f64 * q).ceil() as usize).min(cdf.len()) - 1;
        println!("  p{:<4} {:>10.0} ns", (q * 100.0) as u32, cdf[idx].0);
    }
}
