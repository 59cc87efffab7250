//! Serve-layer throughput gate (not a paper figure — it benchmarks this
//! reproduction's `lucidc serve` daemon path).
//!
//! A scripted client pushes events through a live session in batched
//! `ingest` request lines, advancing the engine after every batch, then
//! drains. The measured rate is the full daemon-side cost per event:
//! request JSON parsing, scheduling, simulation, and reply rendering.
//! Correctness gates first: the drained report must be byte-identical
//! (wall-clock fields aside) to a one-shot `sim` run of the same events
//! authored into a scenario — the serve path is not allowed to compute a
//! different run, only to deliver the same one incrementally. CI runs
//! `--smoke` and records the JSON in `BENCH_PR.json`.

fn main() {
    let mode = lucid_bench::BenchMode::from_args();
    // Floors hold with ~2x headroom on a single-core container; the
    // batched protocol path is dominated by request parsing, so the
    // sustained rate sits well below the raw engine's events/sec.
    let (target, floor_eps) = if mode.smoke {
        (60_000u64, 20_000.0)
    } else {
        (400_000u64, 40_000.0)
    };
    let t = lucid_bench::serve_ingest(4, target, 1_000);
    assert!(
        t.identical,
        "served session diverged from the one-shot run — determinism bug"
    );
    assert!(
        t.events_per_sec >= floor_eps,
        "serve path sustained only {:.0} events/sec (floor {:.0})",
        t.events_per_sec,
        floor_eps
    );

    if mode.json {
        let doc = lucid_core::frontend::json::write(|w| {
            w.obj(|w| {
                w.key("figure").str("fig_serve_ingest");
                w.key("switches").u64(t.switches as u64);
                w.key("target_events").u64(t.target_events as u64);
                w.key("batch").u64(t.batch as u64);
                w.key("requests").u64(t.requests as u64);
                w.key("identical").bool(t.identical);
                w.key("wall_ms").f64(t.wall_ms, 4);
                w.key("events_per_sec").f64(t.events_per_sec, 4);
                w.key("state_digest").hex64(t.state_digest);
            });
        });
        println!("{doc}");
        return;
    }

    println!(
        "Serve ingest — {} switches, {} events in batches of {} ({} request lines)\n",
        t.switches, t.target_events, t.batch, t.requests
    );
    println!("served report identical to one-shot sim: {}", t.identical);
    println!(
        "sustained: {:.0} served events/sec ({:.1} wall-ms; gate: >= {:.0})",
        t.events_per_sec, t.wall_ms, floor_eps
    );
}
