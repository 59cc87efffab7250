//! The `lucidc serve` wire protocol, request by request: golden
//! transcripts for every verb, the structured error surface (malformed
//! JSON, unknown sessions, rejected swaps, corrupted snapshots — never a
//! panic), and the headline invariant: a served session is bit-identical
//! to the one-shot `sim` run it decomposes, through snapshots, restores,
//! and segmented advances, under both engines.

use lucid_core::{
    handle_line, run_scenario_with, serve_lines, BuildHost, CheckHost, CheckedProgram, Compiler,
    Engine, ProgramHost, Scenario, ServeState, SimOptions, SimSession,
};
use std::sync::Arc;

const COUNTER: &str = r#"
global cts = new Array<<32>>(64);
memop plus(int m, int x) { return m + x; }
event pkt(int idx);
handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
"#;

const SCENARIO: &str = r#"{
  "name": "served",
  "net": {"switches": 2},
  "events": [
    {"time_ns": 0,   "switch": 1, "event": "pkt", "args": [3]},
    {"time_ns": 100, "switch": 2, "event": "pkt", "args": [3]},
    {"time_ns": 200, "switch": 1, "event": "pkt", "args": [5]}
  ]
}"#;

/// Quote a string as a JSON literal.
fn q(s: &str) -> String {
    format!("\"{}\"", lucid_core::frontend::json::escape(s))
}

/// One request through a `CheckHost`-backed server. Every reply any
/// transcript below collects — success or error — must itself be JSON.
fn ask(state: &mut ServeState, host: &mut CheckHost, line: &str) -> String {
    let reply = handle_line(state, host, line).reply().to_string();
    if let Err(e) = lucid_core::frontend::json::parse(&reply) {
        panic!("reply is not JSON ({e}): {reply}");
    }
    reply
}

/// The hex `bytes` field of a `snapshot` reply.
fn hex_payload(reply: &str) -> String {
    let rest = reply.split("\"bytes\":\"").nth(1);
    let hex = rest.and_then(|r| r.split('"').next());
    hex.expect("hex payload").to_string()
}

fn open_line() -> String {
    format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(COUNTER),
        q(SCENARIO)
    )
}

// ------------------------------------------------------------ verb goldens

#[test]
fn open_replies_with_the_session_header() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let reply = ask(&mut state, &mut host, &open_line());
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"scenario\":\"served\",\"switches\":2,\
         \"engine\":\"sequential\",\"exec\":\"bytecode\",\"opt\":2}"
    );
    // Session ids are allocated in order, never reused.
    let reply = ask(&mut state, &mut host, &open_line());
    assert!(reply.contains("\"session\":2"), "{reply}");
}

#[test]
fn open_accepts_engine_and_exec_options() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let line = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{},\
         \"options\":{{\"engine\":\"sharded\",\"exec\":\"ast\",\"workers\":2}}}}",
        q(COUNTER),
        q(SCENARIO)
    );
    let reply = ask(&mut state, &mut host, &line);
    assert!(reply.contains("\"engine\":\"sharded\""), "{reply}");
    assert!(reply.contains("\"exec\":\"ast\""), "{reply}");

    // Workers beside the sequential engine is rejected like the CLI.
    let line = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{},\
         \"options\":{{\"engine\":\"sequential\",\"workers\":2}}}}",
        q(COUNTER),
        q(SCENARIO)
    );
    let reply = ask(&mut state, &mut host, &line);
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(
        reply.contains("only applies to the sharded engine"),
        "{reply}"
    );

    // Level 1 is gone: `opt` takes 0 or 2, and the refusal is a
    // protocol error naming both.
    let line = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{},\
         \"options\":{{\"opt\":1}}}}",
        q(COUNTER),
        q(SCENARIO)
    );
    let reply = ask(&mut state, &mut host, &line);
    assert!(reply.contains("\"kind\":\"protocol\""), "{reply}");
    assert!(reply.contains("expected 0 or 2"), "{reply}");
}

#[test]
fn advance_and_query_report_deterministic_status() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    // Events at t=0 and t=100 have run; t=200 is still queued.
    assert!(
        reply.starts_with("{\"ok\":true,\"session\":1,\"now_ns\":"),
        "{reply}"
    );
    assert!(reply.contains("\"processed\":2"), "{reply}");
    assert!(reply.contains("\"pending\":1"), "{reply}");
    assert!(reply.contains("\"state_digest\":\""), "{reply}");

    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"query\",\"session\":1,\"array\":{\"switch\":2,\"name\":\"cts\"},\"metrics\":true}",
    );
    let cells: Vec<&str> = reply
        .split("\"array\":[")
        .nth(1)
        .and_then(|r| r.split(']').next())
        .expect("array in reply")
        .split(',')
        .collect();
    assert_eq!(cells[3], "1", "switch 2 counted idx 3 once: {reply}");
    assert!(reply.contains("\"metrics\":{"), "{reply}");
}

#[test]
fn ingest_schedules_events_and_attaches_generators() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"ingest\",\"session\":1,\"events\":[\
         {\"time_ns\":300,\"switch\":1,\"event\":\"pkt\",\"args\":[7]},\
         {\"time_ns\":400,\"switch\":2,\"event\":\"pkt\",\"args\":[7]}]}",
    );
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"ingested\":2,\"generators_attached\":0}"
    );

    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"ingest\",\"session\":1,\"generators\":[\
         {\"name\":\"g\",\"event\":\"pkt\",\"interval_ns\":50,\"count\":10,\
          \"args\":[{\"seq\":64}]}]}",
    );
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"ingested\":0,\"generators_attached\":1}"
    );

    // Drain sees all of it: 3 scenario events + 2 ingested + 10 generated.
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":15"), "{reply}");
    assert!(reply.contains("\"name\":\"g\",\"injected\":10"), "{reply}");
    assert!(state.is_empty(), "drain closes the session");
}

#[test]
fn snapshot_restore_round_trips_over_the_wire() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    let snap = ask(&mut state, &mut host, "{\"op\":\"snapshot\",\"session\":1}");
    assert!(
        snap.starts_with("{\"ok\":true,\"session\":1,\"len\":"),
        "{snap}"
    );
    let hex = hex_payload(&snap);

    // Drive the original forward, then rewind it with the snapshot.
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":200}",
    );
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{hex}\"}}"),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(
        reply.contains("\"processed\":2"),
        "rewound to t=100: {reply}"
    );
    assert!(reply.contains("\"pending\":1"), "{reply}");
}

#[test]
fn swap_reports_the_carry_statistics() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    // Same interface, different handler body: `cts` carries over.
    let v2 = COUNTER.replace("plus, 1", "plus, 2");
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"swap\",\"session\":1,\"program\":{}}}", q(&v2)),
    );
    assert_eq!(
        reply,
        // One `cts` per switch carries over; nothing is reset or dropped.
        "{\"ok\":true,\"session\":1,\"arrays_carried\":2,\"arrays_reset\":0,\
         \"queued_remapped\":1,\"queued_dropped\":0,\"sources_disabled\":0}"
    );
    // The queued t=200 event now runs under the new handler: +2, not +1.
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"query\",\"session\":1,\"array\":{\"switch\":1,\"name\":\"cts\"}}",
    );
    let after = ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":200}",
    );
    assert!(after.contains("\"processed\":3"), "{after}");
    let cells = ask(
        &mut state,
        &mut host,
        "{\"op\":\"query\",\"session\":1,\"array\":{\"switch\":1,\"name\":\"cts\"}}",
    );
    let nth = |reply: &str, i: usize| {
        reply
            .split("\"array\":[")
            .nth(1)
            .and_then(|r| r.split(']').next())
            .map(|cells| cells.split(',').nth(i).unwrap().to_string())
            .expect("array in reply")
    };
    assert_eq!(nth(&reply, 3), "1", "pre-advance: old increments only");
    assert_eq!(nth(&cells, 5), "2", "idx 5 ran under the swapped handler");
}

#[test]
fn close_and_shutdown_wind_the_sessions_down() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(&mut state, &mut host, &open_line());
    let reply = ask(&mut state, &mut host, "{\"op\":\"close\",\"session\":1}");
    assert_eq!(reply, "{\"ok\":true,\"session\":1,\"closed\":true}");
    assert_eq!(state.len(), 1);

    // Shutdown drains the survivors and replies with their final reports.
    let out = handle_line(&mut state, &mut CheckHost, "{\"op\":\"shutdown\"}");
    let lucid_core::Outcome::Shutdown(reply) = out else {
        panic!("shutdown must end the loop: {out:?}");
    };
    assert!(
        reply.starts_with("{\"ok\":true,\"shutdown\":true,\"reports\":["),
        "{reply}"
    );
    assert!(reply.contains("\"session\":2"), "{reply}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
    assert!(state.is_empty());
}

// ------------------------------------------------------------ error paths

#[test]
fn malformed_requests_are_structured_errors_not_panics() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    // Unbounded recursion would overflow the daemon's stack here — an
    // abort, not a panic a transport could catch.
    let deep = "[".repeat(100_000);
    // A mesh size the decoder would have to allocate `1..=N` for: this
    // one used to die in the allocator and take every session with it.
    let huge_mesh = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(COUNTER),
        q(r#"{"net":{"switches":9007199254740991}}"#)
    );
    // The Lucid parser recurses too: one `open` line of nested
    // parentheses used to abort the daemon the same way.
    let deep_program = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":\"{{}}\"}}",
        q(&format!(
            "event go(); handle go() {{ int y = {}1{}; }}",
            "(".repeat(100_000),
            ")".repeat(100_000)
        ))
    );
    for (line, kind, needle) in [
        ("{ not json", "protocol", "not valid JSON"),
        (deep.as_str(), "protocol", "nesting deeper than 128"),
        ("[1,2,3]", "protocol", "expected an object"),
        ("{\"no\":\"op\"}", "protocol", "missing required field `op`"),
        ("{\"op\":\"warp\"}", "protocol", "unknown op `warp`"),
        (
            "{\"op\":\"open\",\"scenario\":\"{}\"}",
            "protocol",
            "open needs `program` or `program_path`",
        ),
        (
            "{\"op\":\"advance\",\"session\":41,\"to_ns\":1}",
            "unknown_session",
            "no open session 41",
        ),
        (
            "{\"op\":\"snapshot\",\"session\":0}",
            "unknown_session",
            "no open session 0",
        ),
        (
            huge_mesh.as_str(),
            "scenario",
            "`$.net.switches`: a mesh has at most 4096 switches",
        ),
        (
            deep_program.as_str(),
            "compile",
            "error: nesting deeper than 128",
        ),
    ] {
        let reply = ask(&mut state, &mut host, line);
        assert!(
            reply.starts_with("{\"ok\":false,\"error\":{"),
            "{line} -> {reply}"
        );
        assert!(
            reply.contains(&format!("\"kind\":\"{kind}\"")),
            "{line} -> {reply}"
        );
        assert!(reply.contains(needle), "{line} -> {reply}");
    }
    assert!(state.is_empty(), "no session leaked from failed requests");
    // The daemon is unharmed: the next request on the same state succeeds.
    let reply = ask(&mut state, &mut host, &open_line());
    assert!(reply.starts_with("{\"ok\":true,\"session\":1,"), "{reply}");
}

#[test]
fn compile_and_scenario_failures_name_their_kind() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let reply = ask(
        &mut state,
        &mut host,
        &format!(
            "{{\"op\":\"open\",\"program\":\"event dup(); event dup();\",\"scenario\":{}}}",
            q("{}")
        ),
    );
    assert!(reply.contains("\"kind\":\"compile\""), "{reply}");

    let reply = ask(
        &mut state,
        &mut host,
        &format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":\"{{ nope\"}}",
            q(COUNTER)
        ),
    );
    assert!(reply.contains("\"kind\":\"scenario\""), "{reply}");

    // A scenario that parses but does not validate against the program.
    let bad = r#"{"events": [{"time_ns": 0, "switch": 1, "event": "zap", "args": []}]}"#;
    let reply = ask(
        &mut state,
        &mut host,
        &format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
            q(COUNTER),
            q(bad)
        ),
    );
    assert!(reply.contains("\"kind\":\"scenario\""), "{reply}");
    assert!(reply.contains("zap"), "{reply}");
    assert!(state.is_empty());
}

#[test]
fn swap_that_fails_the_typecheck_is_rejected_and_harmless() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"swap\",\"session\":1,\"program\":\"memop bad(int m, int x) { return m * m; }\"}",
    );
    assert!(reply.contains("\"kind\":\"swap\""), "{reply}");
    // The session survives a rejected swap, world intact.
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
}

#[test]
fn corrupted_snapshots_are_rejected_with_offsets() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let snap = ask(&mut state, &mut host, "{\"op\":\"snapshot\",\"session\":1}");
    let hex = hex_payload(&snap);

    // Not hex at all.
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"restore\",\"session\":1,\"bytes\":\"zz\"}",
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");
    assert!(reply.contains("bad hex"), "{reply}");

    // Truncated payload: a bounds error with a byte offset, not a panic.
    let truncated = &hex[..(hex.len() / 2) & !1];
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{truncated}\"}}"),
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");
    assert!(reply.contains("corrupt snapshot at byte"), "{reply}");

    // Flipped magic: rejected before any state is touched.
    let mut flipped = hex.clone();
    flipped.replace_range(0..2, if &hex[0..2] == "00" { "ff" } else { "00" });
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{flipped}\"}}"),
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");

    // A per-switch parked-event count other than zero: no snapshot ever
    // written carries one, so it is refused where it stands rather than
    // decoded into events no engine would run. The count follows the
    // switch's one array — a length of 64, then 64 zero cells.
    let cells = format!("4000000000000000{}", "0".repeat(64 * 16));
    let count_at = hex.find(&cells).expect("switch 1's array") + cells.len();
    let mut parked = hex.clone();
    parked.replace_range(count_at..count_at + 2, "01");
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{parked}\"}}"),
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");
    assert!(reply.contains("corrupt snapshot at byte"), "{reply}");
    assert!(reply.contains("parked events"), "{reply}");

    // A queued event addressed to a switch the topology does not have
    // (every enqueue path checks this, so the decoder must too). The
    // queue follows switch 2's array and parked count: an event count,
    // then per event time, class byte, origin, seq, switch.
    let switch_at = hex.rfind(&cells).expect("switch 2's array") + cells.len() + 16 * 5 + 2;
    let mut stray = hex.clone();
    stray.replace_range(switch_at..switch_at + 2, "63");
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{stray}\"}}"),
    );
    assert!(reply.contains("corrupt snapshot at byte"), "{reply}");
    assert!(reply.contains("switch 99 outside this topology"), "{reply}");
    // That failure struck inside the world section, after the decoder
    // had begun overwriting the session; the intact snapshot rewinds it.
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{hex}\"}}"),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // A snapshot from a *different program* is refused by fingerprint.
    let other = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q("global other = new Array<<32>>(8);\nevent tick(int i);\nhandle tick(int i) { int j = i; }"),
        q("{}")
    );
    ask(&mut state, &mut host, &other);
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":2,\"bytes\":\"{hex}\"}}"),
    );
    assert!(reply.contains("different program"), "{reply}");

    // A workload slot whose presence byte is zero: every slot holds a
    // generator in any snapshot ever written, so the hole is refused by
    // name. The byte sits right before the generator's name (a length
    // of 6, then "holey!"), whose last occurrence is the workload's.
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"ingest\",\"session\":3,\"generators\":[\
         {\"name\":\"holey!\",\"event\":\"pkt\",\"interval_ns\":50,\"count\":10,\
          \"args\":[{\"seq\":64}]}]}",
    );
    let snap = ask(&mut state, &mut host, "{\"op\":\"snapshot\",\"session\":3}");
    let mut holed = hex_payload(&snap);
    let name = "0600000000000000686f6c657921";
    let at = holed.rfind(name).expect("the generator's name") - 2;
    assert_eq!(&holed[at..at + 2], "01", "slot-presence byte");
    holed.replace_range(at..at + 2, "00");
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":3,\"bytes\":\"{holed}\"}}"),
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");
    assert!(reply.contains("corrupt snapshot at byte"), "{reply}");
    assert!(reply.contains("workload slot 0 is empty"), "{reply}");
    ask(&mut state, &mut host, "{\"op\":\"close\",\"session\":3}");

    // After all that abuse, the original session still drains clean.
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
}

/// A host whose compiler trips an internal invariant on marked source.
struct PanickyHost;

impl ProgramHost for PanickyHost {
    fn open_program(&mut self, id: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        assert!(!source.contains("// boom"), "compiler invariant broken");
        CheckHost.open_program(id, source)
    }

    fn swap_program(&mut self, id: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        self.open_program(id, source)
    }
}

/// A handler panic costs the request that hit it — answered with an
/// `internal` error — and the session that request was running; the
/// stream, and every other connection, keeps being served.
#[test]
fn a_panicking_handler_costs_one_request_not_the_daemon() {
    let boom = format!("{COUNTER}// boom");
    let open_boom = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(&boom),
        q(SCENARIO)
    );
    let script = [
        open_boom.clone(),
        open_line(),
        format!("{{\"op\":\"swap\",\"session\":1,\"program\":{}}}", q(&boom)),
        "{\"op\":\"query\",\"session\":1}".to_string(),
        open_line(),
    ]
    .join("\n");
    let mut out = Vec::new();
    let stopped = serve_lines(
        &mut ServeState::new(),
        &mut PanickyHost,
        script.as_bytes(),
        &mut out,
    );
    assert!(!stopped.expect("no I/O error"), "EOF, not shutdown");
    let out = String::from_utf8(out).unwrap();
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(
        replies[0],
        "{\"ok\":false,\"error\":{\"kind\":\"internal\",\
         \"msg\":\"request handler panicked: compiler invariant broken\"}}"
    );
    assert!(
        replies[1].starts_with("{\"ok\":true,\"session\":1,"),
        "{out}"
    );
    assert!(replies[2].contains("\"kind\":\"internal\""), "{out}");
    assert!(replies[2].contains("session 1 is closed"), "{out}");
    assert!(replies[3].contains("\"kind\":\"unknown_session\""), "{out}");
    assert!(
        replies[4].starts_with("{\"ok\":true,\"session\":2,"),
        "{out}"
    );
    assert_eq!(replies.len(), 5);

    #[cfg(unix)]
    {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        let path = std::env::temp_dir().join(format!("lucid-panic-{}.sock", std::process::id()));
        let daemon = {
            let path = path.clone();
            std::thread::spawn(move || {
                lucid_core::interp::serve::socket::serve_unix(&path, PanickyHost)
            })
        };
        let connect = || loop {
            // The daemon thread binds at its own pace.
            if let Ok(conn) = UnixStream::connect(&path) {
                return conn;
            }
            std::thread::yield_now();
        };
        let ask = |conn: &mut UnixStream, line: &str| {
            writeln!(conn, "{line}").unwrap();
            let mut reply = String::new();
            BufReader::new(&*conn).read_line(&mut reply).unwrap();
            reply
        };
        let (mut first, mut second) = (connect(), connect());
        let reply = ask(&mut first, &open_boom);
        assert!(reply.contains("\"kind\":\"internal\""), "{reply}");
        let reply = ask(&mut second, &open_line());
        assert!(reply.starts_with("{\"ok\":true,\"session\":1,"), "{reply}");
        let reply = ask(&mut first, "{\"op\":\"shutdown\"}");
        assert!(reply.contains("\"shutdown\":true"), "{reply}");
        // The daemon joins its connection threads, each reading to EOF.
        drop((first, second));
        daemon.join().unwrap().expect("daemon exits clean");
    }
}

// ----------------------------------------------------- bit-identity gates

/// Everything a run must agree on, with the two wall-clock fields and the
/// `wall_ms`-bearing report dropped.
fn fingerprint(report: &lucid_core::SimReport) -> (u64, u64, String, String) {
    (
        report.state_digest,
        report.metrics.digest(),
        format!("{:?}", report.stats),
        format!("{:?}", report.gens),
    )
}

#[test]
fn served_sessions_are_bit_identical_to_one_shot_runs() {
    let prog = lucid_core::check::parse_and_check(COUNTER).expect("program checks");
    let sc = Scenario::from_json(SCENARIO).expect("scenario parses");
    for engine in [
        Engine::Sequential,
        Engine::Sharded {
            workers: 2,
            epoch_ns: 0,
        },
    ] {
        let opts = SimOptions::new().engine(engine).record_trace(true);
        let oneshot = run_scenario_with(&prog, &sc, &opts).expect("one-shot runs");

        // Segmented advance: odd step sizes, a snapshot/restore detour in
        // the middle, then drain.
        let mut session = SimSession::open(&prog, &sc, &opts).expect("session opens");
        session.advance(70).expect("advance");
        let snap = session.snapshot().expect("snapshot");
        session.advance(130).expect("advance");
        session.restore(&snap).expect("restore rewinds");
        session.advance(130).expect("re-advance");
        let served = session.drain().expect("drain");

        assert_eq!(fingerprint(&served), fingerprint(&oneshot), "{engine:?}");

        // A restored world replays into the *same* trace, not just the
        // same digest.
        let mut a = SimSession::open(&prog, &sc, &opts).expect("session opens");
        a.advance(u64::MAX).expect("run");
        let mut b = SimSession::open(&prog, &sc, &opts).expect("session opens");
        b.advance(70).expect("advance");
        let snap = b.snapshot().expect("snapshot");
        b.restore(&snap).expect("restore");
        b.advance(u64::MAX).expect("run");
        for s in [&a, &b] {
            let world = s.world();
            assert_eq!(
                world.trace.len() as u64,
                world.stats.processed,
                "{engine:?}"
            );
        }
        assert_eq!(
            format!("{:?}", a.world().trace),
            format!("{:?}", b.world().trace),
            "{engine:?}"
        );
    }
}

#[test]
fn snapshots_transplant_between_sessions() {
    let prog = lucid_core::check::parse_and_check(COUNTER).expect("program checks");
    let sc = Scenario::from_json(SCENARIO).expect("scenario parses");
    let opts = SimOptions::default();
    let oneshot = run_scenario_with(&prog, &sc, &opts).expect("one-shot runs");

    // Default options run the walker: its resolved program is built with
    // each world and is no part of the snapshot.
    let mut donor = SimSession::open(&prog, &sc, &opts).expect("session opens");
    donor.advance(100).expect("advance");
    let snap = donor.snapshot().expect("snapshot");

    // A fresh session over the same program + scenario adopts the world.
    let mut heir = SimSession::open(&prog, &sc, &opts).expect("session opens");
    heir.restore(&snap).expect("restore");
    let served = heir.drain().expect("drain");
    assert_eq!(fingerprint(&served), fingerprint(&oneshot));
}

/// A traced session's snapshot restores into a default (untraced) one
/// without its trace: that world would never extend the restored prefix,
/// only carry it into every later snapshot.
#[test]
fn untraced_sessions_drop_a_restored_trace() {
    let prog = lucid_core::check::parse_and_check(COUNTER).expect("program checks");
    let sc = Scenario::from_json(SCENARIO).expect("scenario parses");
    let open = |opts: &SimOptions| {
        let mut session = SimSession::open(&prog, &sc, opts).expect("session opens");
        session.advance(150).expect("advance");
        session
    };
    let traced = open(&SimOptions::new().record_trace(true));
    assert_eq!(traced.world().trace.len(), 2);
    let snap = traced.snapshot().expect("snapshot");

    let mut heir = SimSession::open(&prog, &sc, &SimOptions::default()).expect("session opens");
    heir.restore(&snap).expect("restore");
    assert!(heir.world().trace.is_empty());
    assert_eq!(heir.world().stats, traced.world().stats);
    let (got, want) = (heir.status(), traced.status());
    assert_eq!(
        (got.state_digest, got.metrics_digest),
        (want.state_digest, want.metrics_digest)
    );

    // The heir's next snapshot is an untraced run's at the same instant:
    // a trace count of zero and no records.
    let resnap = heir.snapshot().expect("snapshot");
    assert_eq!(resnap, open(&SimOptions::default()).snapshot().unwrap());
    assert!(resnap.len() < snap.len());
}

#[test]
fn build_host_recompiles_only_when_the_source_changes() {
    let mut state = ServeState::new();
    let mut host = BuildHost::new(Compiler::new());
    let open = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(COUNTER),
        q(SCENARIO)
    );
    let reply = handle_line(&mut state, &mut host, &open)
        .reply()
        .to_string();
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // Swapping in the identical source reconfigures the cached build
    // instead of re-parsing (the stats stay at one parse, one check).
    let swap = format!(
        "{{\"op\":\"swap\",\"session\":1,\"program\":{}}}",
        q(COUNTER)
    );
    let reply = handle_line(&mut state, &mut host, &swap)
        .reply()
        .to_string();
    assert!(reply.contains("\"arrays_carried\":2"), "{reply}");
    let build = host.build(1).expect("session build cached");
    assert_eq!((build.stats().parse_runs, build.stats().check_runs), (1, 1));
}
