//! `explicit_load`: a one-shot verdict on a scenario document that spells
//! out every event. Decoding the document is nearly all of the work; the
//! engine runs a one-counter program for a few milliseconds.

use crate::inputs::{self, Rng};
use crate::runner::{
    Checks, Layers, Rep, Size, Untraced, Workload, NS_PER_MS, NS_PER_US, PROBE_REPS,
};
use crate::stats::fast_decile;
use crate::trace::{TraceAccount, Tracer};
use lucid_core::interp::scenario::json;
use lucid_core::{Compiler, ExecMode, Scenario, SimOptions, SimSession};
use std::time::Instant;

const SWITCHES: u64 = 4;
/// Explicit `events` entries in the document.
const EVENTS: u64 = 2_000;

pub struct ExplicitLoad {
    /// The scenario document, as a user's file would hold it.
    doc: String,
    /// The stable part of the report the document must produce, from a
    /// scenario whose events were filled in directly — the reference never
    /// passes through the decoder being measured.
    want: String,
    events: u64,
}

impl Workload for ExplicitLoad {
    fn prepare(seed: u64, size: Size, _chk: &mut Checks) -> Self {
        let n = size.scale(EVENTS);
        let events = inputs::counter_events(&mut Rng::new(seed), SWITCHES, n as usize);
        let doc = format!(
            "{{\"name\": \"explicit_load\", \"net\": {{\"switches\": {SWITCHES}}}, \
             \"exec\": \"bytecode\", \"events\": {}}}",
            inputs::events_json(&events)
        );

        let mut sc = inputs::blank_scenario("explicit_load", SWITCHES);
        sc.exec = ExecMode::Bytecode;
        sc.events = events;
        let prog = Compiler::new()
            .build("counter.lucid", inputs::COUNTER_PROGRAM)
            .checked_arc()
            .expect("the counter program checks");
        let report = SimSession::open_arc(prog, &sc, &SimOptions::default())
            .and_then(|mut s| s.drain())
            .expect("the reference scenario runs");
        ExplicitLoad {
            doc,
            want: inputs::stable_report(&report.to_json()),
            events: n,
        }
    }

    fn rep(&mut self, tr: &mut Tracer, chk: &mut Checks) -> Rep {
        let verdict = (|| -> Result<(String, u64), String> {
            let mut build = Compiler::new().build("counter.lucid", inputs::COUNTER_PROGRAM);
            tr.leaf("frontend.parse", || build.ast().map(|_| ()))
                .map_err(|_| build.render_diagnostics())?;
            let prog = tr
                .leaf("check.typecheck", || build.checked_arc())
                .map_err(|_| build.render_diagnostics())?;
            let sc = tr
                .leaf("scenario.from_json", || Scenario::from_json(&self.doc))
                .map_err(|e| e.to_string())?;
            tr.leaf("scenario.validate", || sc.validate(&prog))
                .map_err(|e| e.to_string())?;
            let mut session = tr
                .leaf("session.open", || {
                    SimSession::open_arc(prog, &sc, &SimOptions::default())
                })
                .map_err(|e| e.to_string())?;
            let report = tr
                .leaf("machine.bytecode_drain", || session.drain())
                .map_err(|e| e.to_string())?;
            let rendered = tr.leaf("scenario.report_render", || report.to_json());
            Ok((rendered, report.stats.processed))
        })();
        chk.check(
            matches!(&verdict, Ok((r, n)) if inputs::stable_report(r) == self.want && *n == self.events),
            || format!("the document's report differs from the directly-built reference: {verdict:?}"),
        );
        Rep {
            items: self.events,
            ops_us: Vec::new(),
        }
    }

    fn layers(&mut self, acc: &TraceAccount, _untraced: &Untraced, out: &mut Layers) {
        out.set_self("frontend.parse_us", acc, "frontend.parse", NS_PER_US);
        out.set_self("check.typecheck_us", acc, "check.typecheck", NS_PER_US);
        out.set_self(
            "scenario.from_json_ms",
            acc,
            "scenario.from_json",
            NS_PER_MS,
        );
        out.set_self("scenario.validate_ms", acc, "scenario.validate", NS_PER_MS);
        out.set_self("session.open_ms", acc, "session.open", NS_PER_MS);
        out.set_self(
            "scenario.report_render_us",
            acc,
            "scenario.report_render",
            NS_PER_US,
        );
        out.set("scenario.doc_bytes", self.doc.len() as f64);
        out.set("machine.events_processed", self.events as f64);

        // `from_json` parses the text into a tree and then reads the tree;
        // the first half alone, on the same text (so it is part of
        // `scenario.from_json_ms`, not beside it).
        let mut parse_s = Vec::new();
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            let tree = json::parse(&self.doc);
            parse_s.push(t0.elapsed().as_secs_f64());
            assert!(
                std::hint::black_box(tree).is_ok(),
                "the document is valid JSON"
            );
        }
        let parse_s = fast_decile(&parse_s);
        out.set("scenario.json_parse_ms", parse_s * 1e3);
        out.set(
            "scenario.json_mb_per_s",
            self.doc.len() as f64 / 1e6 / parse_s,
        );
    }
}
