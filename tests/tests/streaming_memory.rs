//! A streamed, untraced run holds its in-flight frontier and nothing
//! else: resident memory must not grow with the number of injections.
//!
//! One test in a binary of its own, so no neighbour's allocations show
//! in the process-wide numbers it reads.

use lucid_core::{Engine, ExecMode, Scenario, SimOptions, SimSession};

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

/// The process's resident high-water mark in KiB (`None` off Linux):
/// monotone, so the growth across a leg is what that leg added.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn untraced_flood_memory_is_independent_of_its_length() {
    if peak_rss_kib().is_none() {
        eprintln!("skipped: no /proc/self/status");
        return;
    }
    let prog = lucid_core::check::parse_and_check(MESH).expect("program checks");
    let sc = Scenario::from_json(FLOOD).expect("scenario parses");
    let pool = Engine::Sharded {
        workers: 4,
        epoch_ns: 0,
    };
    let legs = [
        (ExecMode::Bytecode, Engine::Sequential),
        (ExecMode::Bytecode, pool),
        (ExecMode::Ast, Engine::Sequential),
        (ExecMode::Ast, pool),
    ];
    // Every leg at the small size first: whatever a run needs that does
    // not depend on its length (code, shards, thread stacks, the arena,
    // the frontier) is resident before the long runs start.
    let mut peaks = Vec::new();
    for roots in [200_000u64, 2_000_000] {
        let mut digests = Vec::new();
        for (exec, engine) in legs {
            let opts = SimOptions::new()
                .exec(exec)
                .engine(engine)
                .events(roots)
                .record_trace(false);
            let mut session = SimSession::open(&prog, &sc, &opts).expect("scenario opens");
            let report = session.drain().expect("the flood quiesces");
            assert_eq!(report.stats.processed, 2 * roots, "{exec:?} {engine:?}");
            digests.push((report.state_digest, report.metrics.digest()));
        }
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "legs disagree at {roots} roots: {digests:x?}"
        );
        peaks.push(peak_rss_kib().expect("read once already"));
    }
    let growth_kib = peaks[1].saturating_sub(peaks[0]);
    assert!(
        growth_kib < 4 * 1024,
        "ten times the injections grew the resident peak by {growth_kib} KiB \
         ({} -> {} KiB): something retains memory per event",
        peaks[0],
        peaks[1]
    );
}
