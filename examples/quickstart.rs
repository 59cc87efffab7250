//! Quickstart: write a Lucid program, check it, compile it to P4, and run
//! it in the event-driven interpreter.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lucid_core::{Compiler, Interp};

const PROGRAM: &str = r#"
    // A per-destination packet counter with a control event that ages it:
    // the 30-second version of integrated data-plane control.
    const int SLOTS = 256;
    global counts = new Array<<32>>(SLOTS);

    memop plus(int m, int x) { return m + x; }
    memop write(int m, int x) { return x; }

    event pkt(int dst);
    event reset(int idx);

    handle pkt(int dst) {
        auto slot = hash<<8>>(1, dst);
        Array.setm(counts, slot, plus, 1);
    }

    // A recursive control event: clears one slot per pipeline pass, then
    // re-schedules itself 100 microseconds later.
    handle reset(int idx) {
        Array.setm(counts, idx, write, 0);
        generate Event.delay(reset((idx + 1) & 255), 100);
    }
"#;

fn main() {
    // 1. Open a build session: parse, type-check (memops + ordered
    //    effects), lay out against the Tofino pipeline model, and generate
    //    P4_16 — each stage computed once, on demand.
    let mut build = Compiler::new().build("quickstart.lucid", PROGRAM);
    let Ok(p4) = build.p4().cloned() else {
        panic!("program compiles:\n{}", build.render_diagnostics());
    };
    let layout = build.layout().expect("placed on the way to P4");
    println!(
        "compiled: {} pipeline stages ({} before optimization), {} lines of P4",
        layout.total_stages,
        layout.unoptimized_stages,
        p4.loc.total(),
    );

    // 2. Run the same program in the interpreter: 1000 packets to a few
    //    destinations, with the aging thread running concurrently.
    let prog = build.checked_arc().expect("checked on the way to P4");
    let mut sim = Interp::single(&prog);
    sim.schedule(1, 0, "reset", &[0]).expect("reset scheduled");
    for i in 0..1000u64 {
        sim.schedule(1, 1_000 + i * 977, "pkt", &[i % 7])
            .expect("pkt scheduled");
    }
    // The aging thread never terminates, so run for a bounded window.
    sim.run(100_000, 2_000_000).expect("simulation runs");

    let counts = sim.array(1, "counts");
    let live: u64 = counts.iter().sum();
    println!("packets counted (after aging): {live}");
    println!(
        "events: {} handled, {} recirculated",
        sim.stats.handled, sim.stats.recirculated
    );

    // 3. A peek at the generated P4.
    let p4_head: String = p4
        .source
        .lines()
        .filter(|l| l.contains("RegisterAction") || l.contains("table tbl_"))
        .take(4)
        .collect::<Vec<_>>()
        .join("\n");
    println!("\ngenerated P4 (excerpt):\n{p4_head}");
}
