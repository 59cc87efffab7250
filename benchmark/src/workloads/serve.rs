//! `serve_bulk` and `serve_mixed`: one closed-loop client driving the real
//! `serve_lines` loop. The client sends its next request only after the
//! previous reply arrived.
//!
//! `serve_bulk` sends large lines (1000-event `ingest`s, each followed by
//! an `advance`); `serve_mixed` sends small ones (8-event `ingest`,
//! `advance`, `query` with an array read) and checkpoints a second session
//! through `snapshot`/`restore` on every 32nd cycle. One in 32 puts about
//! 3 % of the cycles in the slow class, so the p99 cycle sits inside that
//! class instead of on its edge.
//!
//! Client and daemon share a thread: `serve_lines` takes any reader and
//! writer, so the client *is* the reader (it hands out the next request
//! line when asked) and the writer (it takes the reply). Over a Unix socket
//! pair with the daemon on a thread of its own, the same session read 0.083
//! ms per `serve_mixed` cycle in twenty runs and 0.217 ms in the next —
//! the scheduler had put the two threads on two CPUs, and on this VM a
//! wake-up across CPUs costs 50 µs against 8 µs — and pinned to one CPU it
//! still read 0.087 or 0.108 ms. That time is the kernel's, a quarter of the
//! cycle, and none of it is code of this repository.

use crate::inputs::{self, Rng};
use crate::runner::{Checks, Layers, Rep, Size, Untraced, Workload, NS_PER_US, PROBE_REPS};
use crate::stats::{fast_decile, median, percentile};
use crate::trace::{TraceAccount, Tracer};
use lucid_core::interp::scenario::{json, Injection};
use lucid_core::interp::{hex_decode, hex_encode};
use lucid_core::{
    handle_line, serve_lines, BuildHost, CheckedProgram, Compiler, ExecMode, Outcome, Scenario,
    ServeState, SimOptions, SimSession,
};
use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const SWITCHES: u64 = 4;
const BULK_CYCLES: u64 = 10;
const BULK_BATCH: u64 = 1_000;
const MIXED_CYCLES: u64 = 512;
const MIXED_BATCH: u64 = 8;
const CHECKPOINT_EVERY: usize = 32;

const SCENARIO_NAME: &str = "serve";

/// One request of the session, in the order the client sends them.
struct Request {
    line: Line,
    /// The reply to this request completes a client cycle.
    ends_cycle: bool,
}

/// A `restore` line cannot be written ahead of time: it carries the bytes
/// the preceding `snapshot` reply returned.
enum Line {
    Fixed(String),
    RestoreLastSnapshot,
}

pub struct Serve<const MIXED: bool> {
    /// `open` (twice for `serve_mixed`: session 2 is the checkpoint
    /// target), the cycles, `drain`, `shutdown`.
    requests: Vec<Request>,
    /// The same events, decoded, in the same batches (session-layer probe).
    batches: Vec<Vec<Injection>>,
    prog: Arc<CheckedProgram>,
    sc: Scenario,
    /// What the served sessions open with, for the probes that open their
    /// own.
    opts: SimOptions,
    /// Stable part of the one-shot report the drained session must equal.
    want: String,
    events: u64,
    /// Traffic of the last rep, bytes.
    req_bytes: u64,
    reply_bytes: u64,
}

pub type ServeBulk = Serve<false>;
pub type ServeMixed = Serve<true>;

/// The verb of a request line this module built (`{"op":"<verb>",...`).
fn verb_of(line: &str) -> &str {
    line.strip_prefix("{\"op\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("?")
}

fn verb_span(line: &str) -> &'static str {
    match verb_of(line) {
        "open" => "serve.open",
        "ingest" => "serve.ingest",
        "advance" => "serve.advance",
        "query" => "serve.query",
        "snapshot" => "serve.snapshot",
        "restore" => "serve.restore",
        "drain" => "serve.drain",
        _ => "serve.other",
    }
}

/// A string field of a reply line (`"key":"value"`, no escapes inside).
fn reply_str<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let tail = reply.split_once(&format!("\"{key}\":\""))?.1;
    tail.split('"').next()
}

/// The client's sending half: a `BufRead` that yields the session's request
/// lines one at a time, each followed by a newline.
struct Sender<'a> {
    requests: &'a [Request],
    /// Index of the next request to hand out.
    next: usize,
    /// The line being read: the current request's text, or the `restore`
    /// line built for it, and how much of line-plus-newline is consumed.
    current: Option<usize>,
    built: String,
    consumed: usize,
    /// Hex of the last snapshot, written by the receiving half.
    snapshot_hex: Rc<RefCell<String>>,
    bytes: u64,
}

impl Sender<'_> {
    fn line(&self, index: usize) -> &str {
        match &self.requests[index].line {
            Line::Fixed(text) => text,
            Line::RestoreLastSnapshot => &self.built,
        }
    }
}

impl BufRead for Sender<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.current.is_none() {
            let Some(request) = self.requests.get(self.next) else {
                return Ok(&[]);
            };
            if matches!(request.line, Line::RestoreLastSnapshot) {
                self.built = format!(
                    "{{\"op\":\"restore\",\"session\":2,\"bytes\":\"{}\"}}",
                    self.snapshot_hex.borrow()
                );
            }
            self.current = Some(self.next);
            self.next += 1;
            self.consumed = 0;
        }
        let text = self.line(self.current.expect("just set")).as_bytes();
        Ok(if self.consumed < text.len() {
            &text[self.consumed..]
        } else {
            b"\n"
        })
    }

    fn consume(&mut self, n: usize) {
        self.consumed += n;
        self.bytes += n as u64;
        if let Some(index) = self.current {
            if self.consumed > self.line(index).len() {
                self.current = None;
            }
        }
    }
}

impl Read for Sender<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// The client's receiving half: a `Write` that takes one reply line per
/// flush, checks it, and times the cycles.
struct Receiver<'a> {
    requests: &'a [Request],
    /// Index of the request the next reply answers.
    answered: usize,
    reply: Vec<u8>,
    chk: &'a mut Checks,
    /// Stable part of the report the `drain` reply must carry.
    want: &'a str,
    snapshot_hex: Rc<RefCell<String>>,
    /// State digest the last `query` reported, which a `restore` of the
    /// snapshot taken right after it must reproduce.
    digest_at_snapshot: String,
    /// When the current cycle began: when the previous one's last reply (or
    /// the last `open`'s) had been dealt with.
    cycle_start: Option<Instant>,
    ops_us: Vec<f64>,
    bytes: u64,
}

impl Receiver<'_> {
    fn take_reply(&mut self) {
        let reply = String::from_utf8_lossy(&self.reply);
        let reply = reply.trim_end();
        let requests = self.requests;
        let Some(request) = requests.get(self.answered) else {
            self.chk
                .check(false, || format!("a reply nobody asked for: {reply}"));
            return;
        };
        let verb = match &request.line {
            Line::Fixed(text) => verb_of(text),
            Line::RestoreLastSnapshot => "restore",
        };
        self.chk.check(reply.starts_with("{\"ok\":true"), || {
            let shown: String = reply.chars().take(300).collect();
            format!("request `{verb}` failed: {shown}")
        });
        match verb {
            "query" => {
                self.digest_at_snapshot.clear();
                self.digest_at_snapshot
                    .push_str(reply_str(reply, "state_digest").unwrap_or("?"));
            }
            "snapshot" => {
                let mut hex = self.snapshot_hex.borrow_mut();
                hex.clear();
                hex.push_str(reply_str(reply, "bytes").unwrap_or(""));
            }
            "restore" => {
                let restored = reply_str(reply, "state_digest");
                let want = &self.digest_at_snapshot;
                self.chk.check(restored == Some(want), || {
                    format!("restored world digests to {restored:?}, the snapshotted one to {want}")
                });
            }
            "drain" => {
                // `{"ok":true,"session":1,"report":{...}}`: the report keeps
                // its own closing brace, only the reply's outer one goes.
                let report = reply
                    .split_once("\"report\":")
                    .and_then(|(_, r)| r.strip_suffix('}'))
                    .unwrap_or("");
                let want = self.want;
                self.chk.check(inputs::stable_report(report) == want, || {
                    "the drained report differs from the one-shot report of the same events"
                        .to_string()
                });
            }
            _ => {}
        }
        self.answered += 1;
        if request.ends_cycle {
            if let Some(start) = self.cycle_start {
                self.ops_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        if request.ends_cycle || verb == "open" {
            self.cycle_start = Some(Instant::now());
        }
    }
}

impl Write for Receiver<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.reply.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// `serve_lines` flushes once per reply line.
    fn flush(&mut self) -> io::Result<()> {
        if self.reply.last() == Some(&b'\n') {
            self.bytes += self.reply.len() as u64;
            self.take_reply();
            self.reply.clear();
        }
        Ok(())
    }
}

/// `serve_lines` with a span around each `handle_line` call and one around
/// everything else a request costs — reading the line, writing the reply,
/// the client's own work — which is the only way to see both from outside.
fn traced_serve_lines(tr: &mut Tracer, sender: &mut Sender<'_>, receiver: &mut Receiver<'_>) {
    let mut state = ServeState::new();
    let mut host = BuildHost::new(Compiler::new());
    let mut lines = sender.lines();
    loop {
        let framing = tr.enter("serve.transport");
        let Some(line) = lines.next() else {
            tr.exit(framing);
            break;
        };
        let line = line.expect("the sender cannot fail");
        let outcome = tr.leaf(verb_span(&line), || {
            handle_line(&mut state, &mut host, &line)
        });
        writeln!(receiver, "{}", outcome.reply())
            .and_then(|()| receiver.flush())
            .expect("the receiver cannot fail");
        tr.exit(framing);
        if matches!(outcome, Outcome::Shutdown(_)) {
            break;
        }
    }
}

impl<const MIXED: bool> Workload for Serve<MIXED> {
    fn prepare(seed: u64, size: Size, _chk: &mut Checks) -> Self {
        let (cycles, batch) = if MIXED {
            (size.scale(MIXED_CYCLES), MIXED_BATCH)
        } else {
            (BULK_CYCLES, size.scale(BULK_BATCH))
        };
        let events =
            inputs::counter_events(&mut Rng::new(seed), SWITCHES, (cycles * batch) as usize);
        let batches: Vec<Vec<Injection>> = events
            .chunks(batch as usize)
            .map(<[Injection]>::to_vec)
            .collect();

        let header = format!(
            "{{\"name\": \"{SCENARIO_NAME}\", \"net\": {{\"switches\": {SWITCHES}}}, \"exec\": \"bytecode\"}}"
        );
        // A checkpointed long-lived session does not retain the dispatch
        // log: every snapshot would carry all of it.
        let (opts, options_field) = if MIXED {
            (
                SimOptions::new().record_trace(false),
                ",\"options\":{\"record_trace\":false}",
            )
        } else {
            (SimOptions::default(), "")
        };
        let open = format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":{}{options_field}}}",
            crate::jsonw::s(inputs::COUNTER_PROGRAM),
            crate::jsonw::s(&header),
        );
        let fixed = |text: String| Request {
            line: Line::Fixed(text),
            ends_cycle: false,
        };
        let mut requests = vec![fixed(open.clone())];
        if MIXED {
            requests.push(fixed(open));
        }
        for (i, b) in batches.iter().enumerate() {
            let to_ns = b.last().map_or(0, |e| e.time_ns);
            requests.push(fixed(format!(
                "{{\"op\":\"ingest\",\"session\":1,\"events\":{}}}",
                inputs::events_json(b)
            )));
            requests.push(fixed(format!(
                "{{\"op\":\"advance\",\"session\":1,\"to_ns\":{to_ns}}}"
            )));
            if MIXED {
                requests.push(fixed(format!(
                    "{{\"op\":\"query\",\"session\":1,\"array\":{{\"switch\":{},\"name\":\"cts\"}}}}",
                    1 + i as u64 % SWITCHES
                )));
                if (i + 1) % CHECKPOINT_EVERY == 0 {
                    requests.push(fixed("{\"op\":\"snapshot\",\"session\":1}".to_string()));
                    requests.push(Request {
                        line: Line::RestoreLastSnapshot,
                        ends_cycle: false,
                    });
                }
            }
            requests.last_mut().expect("just pushed").ends_cycle = true;
        }
        requests.push(fixed("{\"op\":\"drain\",\"session\":1}".to_string()));
        requests.push(fixed("{\"op\":\"shutdown\"}".to_string()));

        // The reference report: the same events placed straight into a
        // scenario and run one-shot, never through a request decoder.
        let mut sc = inputs::blank_scenario(SCENARIO_NAME, SWITCHES);
        sc.exec = ExecMode::Bytecode;
        let prog = Compiler::new()
            .build("counter.lucid", inputs::COUNTER_PROGRAM)
            .checked_arc()
            .expect("the counter program checks");
        let mut oneshot = sc.clone();
        oneshot.events = events;
        let report = SimSession::open_arc(Arc::clone(&prog), &oneshot, &opts)
            .and_then(|mut s| s.drain())
            .expect("the reference scenario runs");
        Serve {
            requests,
            batches,
            prog,
            sc,
            opts,
            want: inputs::stable_report(&report.to_json()),
            events: cycles * batch,
            req_bytes: 0,
            reply_bytes: 0,
        }
    }

    fn rep(&mut self, tr: &mut Tracer, chk: &mut Checks) -> Rep {
        let snapshot_hex = Rc::new(RefCell::new(String::new()));
        let mut sender = Sender {
            requests: &self.requests,
            next: 0,
            current: None,
            built: String::new(),
            consumed: 0,
            snapshot_hex: Rc::clone(&snapshot_hex),
            bytes: 0,
        };
        let mut receiver = Receiver {
            requests: &self.requests,
            answered: 0,
            reply: Vec::new(),
            chk,
            want: &self.want,
            snapshot_hex,
            digest_at_snapshot: String::new(),
            cycle_start: None,
            ops_us: Vec::new(),
            bytes: 0,
        };
        if tr.is_on() {
            traced_serve_lines(tr, &mut sender, &mut receiver);
        } else {
            let mut host = BuildHost::new(Compiler::new());
            serve_lines(
                &mut ServeState::new(),
                &mut host,
                &mut sender,
                &mut receiver,
            )
            .expect("neither half of the client can fail");
        }
        self.req_bytes = sender.bytes;
        let answered = receiver.answered;
        self.reply_bytes = receiver.bytes;
        let ops_us = std::mem::take(&mut receiver.ops_us);
        receiver.chk.check(answered == self.requests.len(), || {
            format!(
                "the daemon answered {answered} of {} requests",
                self.requests.len()
            )
        });
        Rep {
            items: self.events,
            ops_us,
        }
    }

    fn layers(&mut self, acc: &TraceAccount, untraced: &Untraced, out: &mut Layers) {
        out.set_call("serve.open_us", acc, "serve.open", NS_PER_US);
        let ingest = if MIXED {
            "serve.ingest_small_us"
        } else {
            "serve.ingest_us"
        };
        out.set_call(ingest, acc, "serve.ingest", NS_PER_US);
        out.set_call("serve.advance_us", acc, "serve.advance", NS_PER_US);
        out.set_call("serve.query_us", acc, "serve.query", NS_PER_US);
        out.set_call("serve.snapshot_us", acc, "serve.snapshot", NS_PER_US);
        out.set_call("serve.restore_us", acc, "serve.restore", NS_PER_US);
        out.set_call("serve.drain_us", acc, "serve.drain", NS_PER_US);
        out.set("serve.req_bytes", self.req_bytes as f64);
        out.set("serve.reply_bytes", self.reply_bytes as f64);
        out.set(
            "serve.transport_us",
            acc.self_ns_per_rep("serve.transport") / NS_PER_US / self.requests.len() as f64,
        );
        out.set("machine.events_processed", self.events as f64);

        // Closed-loop cycle latency as a client sees it, contention and
        // all: percentiles over the cycles of every untraced rep.
        let cycles_us: Vec<f64> = untraced.ops_us.iter().flatten().copied().collect();
        out.set("serve.cycle_p50_us", percentile(&cycles_us, 50.0));
        out.set("serve.cycle_p99_us", percentile(&cycles_us, 99.0));
        out.set("serve.cycle_samples", cycles_us.len() as f64);
        let fixed_lines = || {
            self.requests.iter().filter_map(|r| match &r.line {
                Line::Fixed(text) => Some(text.as_str()),
                Line::RestoreLastSnapshot => None,
            })
        };

        // Decoding alone: each `ingest` line through the JSON reader that
        // `handle_line` starts with, then through `handle_line` itself, in
        // this thread, so both halves of the ratio see the same allocator
        // state.
        let mut shares = Vec::new();
        for _ in 0..PROBE_REPS {
            let mut state = ServeState::new();
            let mut host = BuildHost::new(Compiler::new());
            let (mut decode_s, mut handle_s) = (0.0, 0.0);
            for line in fixed_lines() {
                if verb_of(line) == "ingest" {
                    let t0 = Instant::now();
                    assert!(std::hint::black_box(json::parse(line)).is_ok());
                    decode_s += t0.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    handle_line(&mut state, &mut host, line);
                    handle_s += t0.elapsed().as_secs_f64();
                } else {
                    handle_line(&mut state, &mut host, line);
                }
            }
            shares.push(decode_s / handle_s);
        }
        out.set("serve.decode_share", median(&shares));

        // The session layer alone: the same batches, already decoded.
        let opts = self.opts;
        let (mut open_ms, mut ingest_us, mut advance_us, mut report_us) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            let mut session = SimSession::open_arc(Arc::clone(&self.prog), &self.sc, &opts)
                .expect("the serve scenario opens");
            open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut ingest_s = 0.0;
            for batch in &self.batches {
                let t0 = Instant::now();
                session
                    .ingest(batch)
                    .expect("decoded events fit the program");
                ingest_s += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                session
                    .advance(batch.last().map_or(0, |e| e.time_ns))
                    .expect("the counter program cannot fault");
                advance_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            ingest_us.push(ingest_s * 1e6 / self.events as f64);
            let t0 = Instant::now();
            let report = session.report();
            report_us.push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(report);
            last = Some(session);
        }
        out.set("session.open_ms", fast_decile(&open_ms));
        out.set("session.ingest_us_per_event", fast_decile(&ingest_us));
        out.set("session.advance_us", fast_decile(&advance_us));
        out.set("session.report_us", fast_decile(&report_us));

        if let (true, Some(session)) = (MIXED, last) {
            // The checkpoint path alone: world → bytes → hex → bytes →
            // a second world.
            let mut target = SimSession::open_arc(Arc::clone(&self.prog), &self.sc, &opts)
                .expect("the serve scenario opens");
            let (mut snap_us, mut hex_us, mut restore_us) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..PROBE_REPS {
                let t0 = Instant::now();
                let bytes = session
                    .snapshot()
                    .expect("a generator-less world snapshots");
                snap_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                let back = hex_decode(&hex_encode(&bytes)).expect("hex round-trips");
                hex_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                target.restore(&back).expect("same program, same scenario");
                restore_us.push(t0.elapsed().as_secs_f64() * 1e6);
                out.set("snap.bytes", bytes.len() as f64);
            }
            out.set("snap.snapshot_us", fast_decile(&snap_us));
            out.set("snap.hex_us", fast_decile(&hex_us));
            out.set("snap.restore_us", fast_decile(&restore_us));
        }
    }
}
