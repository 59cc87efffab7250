//! The `lucidc serve` protocol: a long-lived daemon owning simulation
//! sessions, driven by line-delimited JSON requests over stdin/stdout or
//! a Unix socket.
//!
//! Every request is one line: an object with an `op` field and the
//! verb's arguments. Every reply is one line: `{"ok":true,...}` or
//! `{"ok":false,"error":{"kind":...,"msg":...}}`. The verbs — `open`,
//! `ingest`, `advance`, `query`, `snapshot`, `restore`, `swap`, `drain`,
//! `close`, `shutdown` — are documented field-by-field in
//! `docs/serve-protocol.md`.
//!
//! The protocol core is [`handle_line`]: a pure request → reply function
//! over a [`ServeState`] and a [`ProgramHost`], so golden-transcript
//! tests can drive it without any I/O. [`serve_lines`] wraps it around a
//! reader/writer pair (the stdin/stdout daemon); `serve_unix` (Unix
//! only) accepts concurrent connections on a socket, serializing request
//! handling over one shared world. Both transports take their per-line
//! step from `serve_line`, which answers a panicking handler with an
//! `internal` error and closes the session it was running, so one bad
//! request never costs another client its daemon.
//!
//! Program compilation is behind the [`ProgramHost`] trait because this
//! crate sits below the build pipeline: the CLI plugs in a host backed
//! by `lucid_core::Build` (re-elaborating without re-parsing on `swap`),
//! while [`CheckHost`] compiles from scratch and keeps tests and
//! benchmarks dependency-light. A host error on `swap` leaves the
//! session untouched — a program that fails typecheck never reaches the
//! running world.

use crate::bytecode::{ExecMode, OptLevel};
use crate::machine::Engine;
use crate::scenario::{
    generators_of, injections_of, Scenario, ScenarioError, SimOptions, SimRunError,
};
use crate::session::{SessionStatus, SimSession};
use lucid_check::CheckedProgram;
use lucid_frontend::json::{self, Cursor, Json, PathError, Writer};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ------------------------------------------------------------ the host

/// Compiles program source on behalf of the protocol. Implementations
/// may cache per-session build state keyed by the session id (the CLI's
/// `Build`-backed host reuses the parse across `swap` epochs).
pub trait ProgramHost {
    /// Compile the program a new session opens with.
    fn open_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String>;

    /// Compile a replacement program for a hot-swap. An `Err` rejects
    /// the swap; the session keeps running its current program.
    fn swap_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String>;

    /// The session closed; drop any cached build state.
    fn drop_session(&mut self, _session: u64) {}
}

/// The dependency-light [`ProgramHost`]: parse + typecheck from scratch
/// on every compile, no caching. Tests and in-crate tools use it; the
/// CLI substitutes a `Build`-backed host.
#[derive(Debug, Default)]
pub struct CheckHost;

impl ProgramHost for CheckHost {
    fn open_program(&mut self, _session: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        lucid_check::parse_and_check(source)
            .map(Arc::new)
            .map_err(|ds| ds.to_string().trim_end().to_string())
    }

    fn swap_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        self.open_program(session, source)
    }
}

// ---------------------------------------------------------- error model

/// Which layer a request failed in. The kind is machine-readable so a
/// driver can branch (retry, re-open, give up) without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is malformed (bad JSON, missing field,
    /// unknown op, unreadable file path).
    Protocol,
    /// The program failed to parse or typecheck on `open`.
    Compile,
    /// The scenario failed to parse or does not fit the program.
    Scenario,
    /// The simulation faulted while advancing.
    Runtime,
    /// A snapshot could not be taken or a restore was refused.
    Snapshot,
    /// A hot-swap was rejected; the session keeps its current program.
    Swap,
    /// The request names a session id that is not open.
    UnknownSession,
    /// The request's handler panicked (a bug in this program, not in the
    /// request). The session the request named is closed; every other
    /// session and the daemon carry on.
    Internal,
}

impl ErrorKind {
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Compile => "compile",
            ErrorKind::Scenario => "scenario",
            ErrorKind::Runtime => "runtime",
            ErrorKind::Snapshot => "snapshot",
            ErrorKind::Swap => "swap",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured protocol error: every failure path — corrupted
/// snapshots and, under either transport, even a panicking handler —
/// comes back as one of these.
#[derive(Debug, Clone)]
pub struct ServeError {
    pub kind: ErrorKind,
    pub msg: String,
}

impl ServeError {
    fn new(kind: ErrorKind, msg: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            msg: msg.into(),
        }
    }

    /// The inner `{"kind":...,"msg":...}` object.
    fn write_body(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("kind").str(self.kind.label());
            w.key("msg").str(&self.msg);
        });
    }

    /// The full error reply line.
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.obj(|w| self.write_body(w.key("ok").bool(false).key("error")));
        })
    }
}

impl From<SimRunError> for ServeError {
    fn from(e: SimRunError) -> ServeError {
        let kind = match &e {
            SimRunError::Scenario(_) => ErrorKind::Scenario,
            SimRunError::Runtime(_) => ErrorKind::Runtime,
            SimRunError::Snapshot(_) => ErrorKind::Snapshot,
            SimRunError::Swap(_) => ErrorKind::Swap,
        };
        ServeError::new(kind, e.to_string())
    }
}

/// A malformed request line or request field is a protocol error,
/// worded the way the scenario loader words the same mistake.
fn protocol(e: impl Into<ScenarioError>) -> ServeError {
    ServeError::new(ErrorKind::Protocol, e.into().to_string())
}

impl From<PathError> for ServeError {
    fn from(e: PathError) -> ServeError {
        protocol(e)
    }
}

// ------------------------------------------------------------ the state

/// The daemon's world: every open session, keyed by id. Ids are assigned
/// once and never reused within a daemon's lifetime.
#[derive(Default)]
pub struct ServeState {
    sessions: BTreeMap<u64, SimSession>,
    next_id: u64,
}

impl ServeState {
    pub fn new() -> ServeState {
        ServeState {
            sessions: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Direct access to an open session (for in-process drivers like the
    /// serve benchmark's sanity checks).
    pub fn session(&self, id: u64) -> Option<&SimSession> {
        self.sessions.get(&id)
    }
}

/// What [`handle_line`] decided: reply and keep serving, or reply and
/// stop the daemon (the `shutdown` verb).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Reply(String),
    Shutdown(String),
}

impl Outcome {
    /// The reply line, whichever way the daemon goes afterwards.
    pub fn reply(&self) -> &str {
        match self {
            Outcome::Reply(s) | Outcome::Shutdown(s) => s,
        }
    }
}

// -------------------------------------------------------------- dispatch

/// Handle one request line: parse, dispatch, and render the reply. Pure
/// over `(state, host)` — no I/O — so transcripts are testable
/// byte-for-byte.
pub fn handle_line(state: &mut ServeState, host: &mut dyn ProgramHost, line: &str) -> Outcome {
    match dispatch(state, host, line) {
        Ok(outcome) => outcome,
        Err(e) => Outcome::Reply(e.to_json()),
    }
}

fn dispatch(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    line: &str,
) -> Result<Outcome, ServeError> {
    let doc = json::parse(line).map_err(protocol)?;
    let req = Cursor::root(&doc);
    match req.req("op")?.str()? {
        "open" => op_open(state, host, req).map(Outcome::Reply),
        "ingest" => op_ingest(state, req).map(Outcome::Reply),
        "advance" => op_advance(state, req).map(Outcome::Reply),
        "query" => op_query(state, req).map(Outcome::Reply),
        "snapshot" => op_snapshot(state, req).map(Outcome::Reply),
        "restore" => op_restore(state, req).map(Outcome::Reply),
        "swap" => op_swap(state, host, req).map(Outcome::Reply),
        "drain" => op_drain(state, host, req).map(Outcome::Reply),
        "close" => op_close(state, host, req).map(Outcome::Reply),
        "shutdown" => Ok(Outcome::Shutdown(op_shutdown(state, host))),
        other => Err(ServeError::new(
            ErrorKind::Protocol,
            format!(
                "unknown op `{other}` (expected open, ingest, advance, query, \
                 snapshot, restore, swap, drain, close, or shutdown)"
            ),
        )),
    }
}

// ------------------------------------------------------- request helpers

/// Resolve a source the verb requires, inline (`key`) or as a file
/// path (`key_path`).
fn source_of(req: Cursor, verb: &str, key: &str) -> Result<String, ServeError> {
    let path_key = format!("{key}_path");
    if let Some(j) = req.get(key) {
        return Ok(j.str()?.to_string());
    }
    let Some(j) = req.get(&path_key) else {
        return Err(ServeError::new(
            ErrorKind::Protocol,
            format!("{verb} needs `{key}` or `{path_key}`"),
        ));
    };
    let path = j.str()?;
    std::fs::read_to_string(path).map_err(|e| {
        ServeError::new(
            ErrorKind::Protocol,
            format!("cannot read {key} `{path}`: {e}"),
        )
    })
}

fn session_id(state: &ServeState, req: Cursor) -> Result<u64, ServeError> {
    let id = req.req("session")?.u64()?;
    if !state.sessions.contains_key(&id) {
        return Err(ServeError::new(
            ErrorKind::UnknownSession,
            format!("no open session {id}"),
        ));
    }
    Ok(id)
}

fn session_mut<'a>(
    state: &'a mut ServeState,
    req: Cursor,
) -> Result<(u64, &'a mut SimSession), ServeError> {
    let id = session_id(state, req)?;
    Ok((id, state.sessions.get_mut(&id).expect("checked")))
}

/// Parse the `open` verb's `options` object into [`SimOptions`] — the
/// same knobs `lucidc sim` takes, resolved the same way.
fn options_of(req: Cursor) -> Result<SimOptions, ServeError> {
    let Some(of) = req.get("options") else {
        return Ok(SimOptions::default());
    };
    of.only(&[
        "engine",
        "exec",
        "opt",
        "workers",
        "seed",
        "events",
        "record_trace",
    ])?;
    let mut opts = SimOptions::default();
    if let Some(v) = of.get("engine") {
        let name = v.str()?;
        opts.engine = Some(Engine::parse(name).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("unknown engine `{name}` (expected `sequential` or `sharded`)"),
            )
        })?);
    }
    if let Some(v) = of.get("exec") {
        let name = v.str()?;
        opts.exec = Some(ExecMode::parse(name).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("unknown exec `{name}` (expected `ast` or `bytecode`)"),
            )
        })?);
    }
    if let Some(v) = of.get("opt") {
        let n = v.u64()?;
        opts.opt = Some(OptLevel::parse(&n.to_string()).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("unknown opt level {n} (expected 0, 1, or 2)"),
            )
        })?);
    }
    if let Some(v) = of.get("workers") {
        let w = v.u64()?;
        if matches!(opts.engine, Some(Engine::Sequential)) {
            // Mirror the CLI: `--workers` beside `--engine=sequential`
            // is a contradiction, not a silent override.
            return Err(ServeError::new(
                ErrorKind::Protocol,
                "`workers` only applies to the sharded engine",
            ));
        }
        opts.workers = Some(w as usize);
    }
    if let Some(v) = of.get("seed") {
        opts.seed = Some(v.u64()?);
    }
    if let Some(v) = of.get("events") {
        opts.events = Some(v.u64()?);
    }
    if let Some(v) = of.get("record_trace") {
        let on = v
            .bool()
            .map_err(|e| ServeError::new(ErrorKind::Protocol, format!("{}: {}", e.path, e.msg)))?;
        opts.record_trace = Some(on);
    }
    Ok(opts)
}

/// A success reply: `{"ok":true,` then whatever `fields` appends.
fn ok_reply(fields: impl FnOnce(&mut Writer)) -> String {
    json::write(|w| {
        w.obj(|w| fields(w.key("ok").bool(true)));
    })
}

/// The status fields shared by `advance`, `query`, and `restore` replies.
fn status_fields(w: &mut Writer, id: u64, st: &SessionStatus) {
    w.key("session").u64(id).key("now_ns").u64(st.now_ns);
    w.key("pending").u64(st.pending as u64);
    w.key("source_pending").bool(st.source_pending);
    w.key("processed").u64(st.processed);
    w.key("handled").u64(st.handled);
    w.key("dropped").u64(st.dropped);
    w.key("state_digest").hex64(st.state_digest);
    w.key("metrics_digest").hex64(st.metrics_digest);
}

// ----------------------------------------------------------------- verbs

fn op_open(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    req: Cursor,
) -> Result<String, ServeError> {
    let program = source_of(req, "open", "program")?;
    let scenario_src = source_of(req, "open", "scenario")?;
    let opts = options_of(req)?;
    let sc = Scenario::from_json(&scenario_src)
        .map_err(|e| ServeError::new(ErrorKind::Scenario, e.to_string()))?;
    let id = state.next_id;
    let prog = host
        .open_program(id, &program)
        .map_err(|msg| ServeError::new(ErrorKind::Compile, msg))?;
    let session = SimSession::open_arc(prog, &sc, &opts).map_err(|e| {
        host.drop_session(id);
        ServeError::from(e)
    })?;
    state.next_id += 1;
    let (engine, exec, opt) = session.labels();
    state.sessions.insert(id, session);
    Ok(ok_reply(|w| {
        w.key("session").u64(id).key("scenario").str(&sc.name);
        w.key("switches").u64(sc.switches.len() as u64);
        w.key("engine").str(engine);
        w.key("exec").str(exec);
        w.key("opt").raw(opt);
    }))
}

fn op_ingest(state: &mut ServeState, req: Cursor) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, req)?;
    let mut ingested = 0;
    let mut attached = 0;
    if let Some(j) = req.get("events") {
        let events = injections_of(j)?;
        ingested = events.len() as u64;
        session.ingest(&events)?;
    }
    if let Some(j) = req.get("generators") {
        for spec in &generators_of(j)? {
            session.attach_generator(spec)?;
            attached += 1;
        }
    }
    Ok(ok_reply(|w| {
        w.key("session").u64(id).key("ingested").u64(ingested);
        w.key("generators_attached").u64(attached);
    }))
}

fn op_advance(state: &mut ServeState, req: Cursor) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, req)?;
    session.advance(req.req("to_ns")?.u64()?)?;
    Ok(ok_reply(|w| status_fields(w, id, &session.status())))
}

fn op_query(state: &mut ServeState, req: Cursor) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, req)?;
    let mut cells = None;
    if let Some(af) = req.get("array") {
        let switch = af.req("switch")?.u64()?;
        let name = af.req("name")?.str()?;
        if !session.program().info.globals_by_name.contains_key(name) {
            return Err(ServeError::new(
                ErrorKind::Protocol,
                format!("the program has no array `{name}`"),
            ));
        }
        cells = Some(session.world().try_array(switch, name).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("switch {switch} is unknown or failed"),
            )
        })?);
    }
    let metrics = matches!(req.get("metrics").map(|j| j.node()), Some(Json::Bool(true)));
    Ok(ok_reply(|w| {
        status_fields(w, id, &session.status());
        if let Some(cells) = cells {
            w.key("array").arr(|w| {
                for &cell in cells {
                    w.u64(cell);
                }
            });
        }
        if metrics {
            session.world().metrics().write_json(w.key("metrics"));
        }
    }))
}

fn op_snapshot(state: &mut ServeState, req: Cursor) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, req)?;
    let bytes = session.snapshot()?;
    Ok(ok_reply(|w| {
        w.key("session").u64(id).key("len").u64(bytes.len() as u64);
        w.key("bytes").str(&hex_encode(&bytes));
    }))
}

fn op_restore(state: &mut ServeState, req: Cursor) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, req)?;
    let bytes = hex_decode(req.req("bytes")?.str()?)
        .map_err(|msg| ServeError::new(ErrorKind::Snapshot, msg))?;
    session.restore(&bytes)?;
    Ok(ok_reply(|w| status_fields(w, id, &session.status())))
}

fn op_swap(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    req: Cursor,
) -> Result<String, ServeError> {
    let id = session_id(state, req)?;
    let source = source_of(req, "swap", "program")?;
    let prog = host
        .swap_program(id, &source)
        .map_err(|msg| ServeError::new(ErrorKind::Swap, msg))?;
    let session = state.sessions.get_mut(&id).expect("checked");
    let stats = session.swap(prog);
    Ok(ok_reply(|w| {
        w.key("session").u64(id);
        w.key("arrays_carried").u64(stats.arrays_carried as u64);
        w.key("arrays_reset").u64(stats.arrays_reset as u64);
        w.key("queued_remapped").u64(stats.queued_remapped);
        w.key("queued_dropped").u64(stats.queued_dropped);
        w.key("sources_disabled").u64(stats.sources_disabled as u64);
    }))
}

fn op_drain(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    req: Cursor,
) -> Result<String, ServeError> {
    let id = session_id(state, req)?;
    // An error mid-drain (runtime fault, unmet `--events` target) leaves
    // the session open so the caller can still query or close it.
    let report = state.sessions.get_mut(&id).expect("checked").drain()?;
    state.sessions.remove(&id);
    host.drop_session(id);
    Ok(ok_reply(|w| {
        report.write_json(w.key("session").u64(id).key("report"));
    }))
}

fn op_close(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    req: Cursor,
) -> Result<String, ServeError> {
    let id = session_id(state, req)?;
    state.sessions.remove(&id);
    host.drop_session(id);
    Ok(ok_reply(|w| {
        w.key("session").u64(id).key("closed").bool(true);
    }))
}

fn op_shutdown(state: &mut ServeState, host: &mut dyn ProgramHost) -> String {
    ok_reply(|w| {
        w.key("shutdown").bool(true).key("reports").arr(|w| {
            while let Some((id, mut session)) = state.sessions.pop_first() {
                w.obj(|w| match session.drain() {
                    Ok(report) => report.write_json(w.key("session").u64(id).key("report")),
                    Err(e) => ServeError::from(e).write_body(w.key("session").u64(id).key("error")),
                });
                host.drop_session(id);
            }
        });
    })
}

// ------------------------------------------------------------- transport

/// The per-line step both transports share: [`handle_line`], with a
/// panicking handler (walker invariants do panic) turned into an
/// `internal` error reply instead of a dead daemon. Blank lines get no
/// reply.
fn serve_line(state: &mut ServeState, host: &mut dyn ProgramHost, line: &str) -> Option<Outcome> {
    if line.trim().is_empty() {
        return None;
    }
    // Unwinding can leave exactly one thing half-updated: the session
    // the request was running. It is closed below, so nothing the next
    // request can reach is observed in a broken state.
    let attempt = catch_unwind(AssertUnwindSafe(|| handle_line(state, host, line)));
    Some(attempt.unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        let mut msg = format!("request handler panicked: {what}");
        let named = json::parse(line)
            .ok()
            .and_then(|doc| Cursor::root(&doc).get("session")?.u64().ok());
        if let Some(id) = named.filter(|id| state.sessions.contains_key(id)) {
            state.sessions.remove(&id);
            host.drop_session(id);
            msg.push_str(&format!("; session {id} is closed"));
        }
        Outcome::Reply(ServeError::new(ErrorKind::Internal, msg).to_json())
    }))
}

/// The stdin/stdout daemon loop: one request line in, one reply line
/// out, until EOF or `shutdown`. Returns whether `shutdown` was the
/// reason for stopping.
pub fn serve_lines<R: BufRead, W: Write>(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    input: R,
    mut output: W,
) -> io::Result<bool> {
    for line in input.lines() {
        let Some(outcome) = serve_line(state, host, &line?) else {
            continue;
        };
        writeln!(output, "{}", outcome.reply())?;
        output.flush()?;
        if matches!(outcome, Outcome::Shutdown(_)) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Unix-socket transport: concurrent connections over one shared world.
#[cfg(unix)]
pub mod socket {
    use super::{serve_line, Outcome, ProgramHost, ServeState};
    use std::io::{self, BufRead, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    struct Shared<H> {
        state: ServeState,
        host: H,
    }

    /// Bind `path` and serve until some connection issues `shutdown`.
    /// Connections are handled on their own threads; request handling is
    /// serialized over the shared state, so interleaved clients see a
    /// consistent world.
    pub fn serve_unix<H: ProgramHost + Send + 'static>(path: &Path, host: H) -> io::Result<()> {
        // A stale socket file from a dead daemon would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let shared = Arc::new(Mutex::new(Shared {
            state: ServeState::new(),
            host,
        }));
        let done = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for conn in listener.incoming() {
            if done.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            let sock = path.to_path_buf();
            workers.push(std::thread::spawn(move || {
                let _ = serve_conn(stream, &shared, &done, &sock);
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    fn serve_conn<H: ProgramHost>(
        stream: UnixStream,
        shared: &Mutex<Shared<H>>,
        done: &AtomicBool,
        sock: &Path,
    ) -> io::Result<()> {
        let reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        for line in reader.lines() {
            let line = line?;
            if done.load(Ordering::SeqCst) {
                break;
            }
            let outcome = {
                // `serve_line` contains a handler's panic and closes the
                // session it was running, so the state behind a poisoned
                // lock is as sound as behind a clean one.
                let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
                let Shared { state, host } = &mut *guard;
                serve_line(state, host, &line)
            };
            let Some(outcome) = outcome else {
                continue;
            };
            writeln!(writer, "{}", outcome.reply())?;
            if matches!(outcome, Outcome::Shutdown(_)) {
                done.store(true, Ordering::SeqCst);
                // The accept loop is blocked; a throwaway connection
                // wakes it so it can observe the flag and stop.
                let _ = UnixStream::connect(sock);
                break;
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------------- hex

/// Lowercase hex, two digits per byte (snapshots ride inside JSON
/// strings; base64 would save bytes but cost a dependency or a table).
pub fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`hex_encode`]; accepts either case, rejects everything
/// else with a message naming the offending character.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = nibble(pair[0]);
        let lo = nibble(pair[1]);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push((h << 4) | l),
            _ => {
                return Err(format!(
                    "bad hex at byte {}: `{}{}`",
                    out.len() * 2,
                    pair[0] as char,
                    pair[1] as char
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
        assert_eq!(
            hex_decode("DEADbeef").unwrap(),
            vec![0xDE, 0xAD, 0xBE, 0xEF]
        );
    }

    #[test]
    fn malformed_requests_get_protocol_errors() {
        let mut state = ServeState::new();
        let mut host = CheckHost;
        let r = handle_line(&mut state, &mut host, "not json");
        assert!(r.reply().contains("\"kind\":\"protocol\""));
        let r = handle_line(&mut state, &mut host, "{\"op\":\"warp\"}");
        assert!(r.reply().contains("unknown op `warp`"));
        let r = handle_line(
            &mut state,
            &mut host,
            "{\"op\":\"advance\",\"session\":9,\"to_ns\":1}",
        );
        assert!(r.reply().contains("\"kind\":\"unknown_session\""));
    }
}
