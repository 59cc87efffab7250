//! A session run with default options holds its in-flight frontier and
//! nothing else: resident memory must not grow with the number of
//! injections, whether a generator streams them or a serve-style caller
//! ingests them in batches.
//!
//! One test in a binary of its own, so no neighbour's allocations show
//! in the process-wide numbers it reads.

use lucid_core::interp::scenario::Injection;
use lucid_core::{CheckedProgram, Scenario, SimOptions, SimSession};
use lucid_tests::legs_with;

/// Cross-switch forwarding on a 4-switch mesh: every root spawns one
/// child somewhere else, so buffers change shards (and, at four workers,
/// workers) all run long.
const MESH: &str = r#"
    global cnt = new Array<<32>>(256);
    memop plus(int m, int x) { return m + x; }
    event pkt(int key, int ttl);
    handle pkt(int key, int ttl) {
        int c = Array.update(cnt, hash<<8>>(1, key), plus, 1, plus, 1);
        if (ttl > 0) {
            generate Event.locate(pkt(key + c, ttl - 1), ((key + c) & 3) + 1);
        }
    }
"#;

const FLOOD: &str = r#"{
    "name": "streaming-memory",
    "net": {"switches": 4},
    "seed": 11,
    "generators": [
      {"name": "flood", "event": "pkt", "switches": [1, 2, 3, 4],
       "interval_ns": 2, "count": 1000,
       "args": [{"zipf": {"n": 4096, "s": 1.1}}, 1]}
    ]
}"#;

/// The same mesh with no workload of its own: every event arrives
/// through `ingest`, the way `lucidc serve` feeds a session.
const SERVED: &str = r#"{"name": "streaming-memory-served", "net": {"switches": 4}}"#;

/// Events per `ingest` + `advance` step of the served leg.
const BATCH: u64 = 1000;

/// The process's resident high-water mark in KiB (`None` off Linux):
/// monotone, so the growth across a leg is what that leg added.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Fail unless the peak grew by less than 4 MiB from the short run to
/// the long one.
fn assert_flat(what: &str, peaks: &[u64]) {
    let growth_kib = peaks[1].saturating_sub(peaks[0]);
    assert!(
        growth_kib < 4 * 1024,
        "{what}: ten times the injections grew the resident peak by {growth_kib} KiB \
         ({} -> {} KiB): something retains memory per event",
        peaks[0],
        peaks[1]
    );
}

/// A default session fed `roots` explicit events in [`BATCH`]-sized
/// `ingest` + `advance` steps, then drained.
fn serve_roots(prog: &CheckedProgram, sc: &Scenario, roots: u64) {
    let mut session = SimSession::open(prog, sc, &SimOptions::default()).expect("scenario opens");
    for start in (0..roots).step_by(BATCH as usize) {
        let end = (start + BATCH).min(roots);
        let batch: Vec<Injection> = (start..end)
            .map(|i| Injection {
                time_ns: 2 * i,
                switch: i % 4 + 1,
                event: "pkt".to_string(),
                args: vec![i.wrapping_mul(2_654_435_761) % 4096, 1],
            })
            .collect();
        session.ingest(&batch).expect("batch schedules");
        session.advance(2 * (end - 1)).expect("batch runs");
    }
    let report = session.drain().expect("the flood quiesces");
    assert_eq!(report.stats.processed, 2 * roots, "served {roots} roots");
}

#[test]
fn default_flood_memory_is_independent_of_its_length() {
    if peak_rss_kib().is_none() {
        eprintln!("skipped: no /proc/self/status");
        return;
    }
    let prog = lucid_core::check::parse_and_check(MESH).expect("program checks");

    // The served leg first, so the generator legs' larger peaks cannot
    // hide what it retains.
    let served = Scenario::from_json(SERVED).expect("scenario parses");
    let mut peaks = Vec::new();
    for roots in [20_000u64, 200_000] {
        serve_roots(&prog, &served, roots);
        peaks.push(peak_rss_kib().expect("read once already"));
    }
    assert_flat("ingested in batches", &peaks);

    let sc = Scenario::from_json(FLOOD).expect("scenario parses");
    // The reference matrix, its sharded leg at one worker per switch.
    let legs = legs_with(&[4]);
    // Every leg at the small size first: whatever a run needs that does
    // not depend on its length (code, shards, thread stacks, the arena,
    // the frontier) is resident before the long runs start.
    let mut peaks = Vec::new();
    for roots in [200_000u64, 2_000_000] {
        let mut digests = Vec::new();
        for &leg in &legs {
            let opts = leg.options(SimOptions::new().events(roots));
            let mut session = SimSession::open(&prog, &sc, &opts).expect("scenario opens");
            let report = session.drain().expect("the flood quiesces");
            assert_eq!(report.stats.processed, 2 * roots, "{leg}");
            digests.push((report.state_digest, report.metrics.digest()));
        }
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "legs disagree at {roots} roots: {digests:x?}"
        );
        peaks.push(peak_rss_kib().expect("read once already"));
    }
    assert_flat("generated", &peaks);
}
