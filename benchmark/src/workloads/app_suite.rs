//! `app_suite`: the eight bundled `*.sim.json` scenarios as authored —
//! executor, seeds and `expect` blocks included — each from program source
//! and scenario text to a rendered report, with the hand-written `expect`
//! blocks as the oracle.
//!
//! The scenarios keep their authored seeds: overriding a generator seed
//! voids the `expect` block written for it. `--seed` changes nothing here,
//! not even the order of the sweep: the order decides how the heap
//! fragments, and shuffling it moved peak memory between 19.5 and 27.5 MiB.
//! The one scenario that asks for the sharded engine with a worker per core
//! runs it with one worker, like every sharded run of this benchmark: with
//! two workers on two cores neither its wall time nor its peak memory
//! repeats (same seed, 19.5–26.3 MiB), and results do not depend on the
//! worker count.

use super::compile_apps::set_compile_layers;
use crate::runner::{Checks, Layers, Rep, Size, Untraced, Workload, NS_PER_MS, NS_PER_US};
use crate::trace::{TraceAccount, Tracer};
use lucid_core::{Compiler, Engine, ExecMode, Scenario, SimOptions, SimSession};

struct Case {
    name: &'static str,
    program: &'static str,
    scenario: &'static str,
}

macro_rules! case {
    ($scenario:literal, $program:literal) => {
        Case {
            name: $scenario,
            program: include_str!(concat!(
                "../../../crates/apps/programs/",
                $program,
                ".lucid"
            )),
            scenario: include_str!(concat!(
                "../../../crates/apps/scenarios/",
                $scenario,
                ".sim.json"
            )),
        }
    };
}

fn cases() -> Vec<Case> {
    vec![
        case!("dns_defense.flood", "dns_defense"),
        case!("dns_defense", "dns_defense"),
        case!("historical_sketch", "historical_sketch"),
        case!("nat", "nat"),
        case!("rip_router", "rip_router"),
        case!("shared_state", "shared_state"),
        case!("stateful_firewall", "stateful_firewall"),
        case!("stateful_firewall.zipf", "stateful_firewall"),
    ]
}

pub struct AppSuite {
    cases: Vec<Case>,
    /// Events the AST walker processed in the last sweep's generator-driven
    /// scenarios (the two that dominate the sweep).
    walker_gen_events: u64,
}

impl Workload for AppSuite {
    fn prepare(_seed: u64, _size: Size, _chk: &mut Checks) -> Self {
        // The authored scenarios are the input; `--quick` cannot shrink
        // them without voiding their `expect` blocks.
        AppSuite {
            cases: cases(),
            walker_gen_events: 0,
        }
    }

    fn rep(&mut self, tr: &mut Tracer, chk: &mut Checks) -> Rep {
        let compiler = Compiler::new();
        let mut items = 0;
        let mut walker_gen_events = 0;
        for case in &self.cases {
            let verdict = (|| -> Result<(bool, u64, usize), String> {
                let sc = tr
                    .leaf("scenario.from_json", || Scenario::from_json(case.scenario))
                    .map_err(|e| e.to_string())?;
                let mut build = compiler.build(case.name, case.program);
                tr.leaf("frontend.parse", || build.ast().map(|_| ()))
                    .map_err(|_| build.render_diagnostics())?;
                let prog = tr
                    .leaf("check.typecheck", || build.checked_arc())
                    .map_err(|_| build.render_diagnostics())?;
                let opts = match sc.engine {
                    Engine::Sequential => SimOptions::default(),
                    Engine::Sharded { .. } => SimOptions::new().workers(1),
                };
                let mut session = tr
                    .leaf("session.open", || SimSession::open_arc(prog, &sc, &opts))
                    .map_err(|e| e.to_string())?;
                let walker = sc.exec == ExecMode::Ast;
                let drain = match (walker, sc.generators.is_empty()) {
                    (true, false) => "machine.walker_gen_drain",
                    (true, true) => "machine.walker_drain",
                    (false, _) => "machine.bytecode_drain",
                };
                let report = tr
                    .leaf(drain, || session.drain())
                    .map_err(|e| e.to_string())?;
                let rendered = tr.leaf("scenario.report_render", || report.to_json());
                if walker && !sc.generators.is_empty() {
                    walker_gen_events += report.stats.processed;
                }
                Ok((report.passed(), report.stats.processed, rendered.len()))
            })();
            chk.check(matches!(verdict, Ok((true, _, len)) if len > 0), || {
                format!("{}: expectations not met: {verdict:?}", case.name)
            });
            if let Ok((_, processed, _)) = verdict {
                items += processed;
            }
        }
        self.walker_gen_events = walker_gen_events;
        Rep {
            items,
            ops_us: Vec::new(),
        }
    }

    fn layers(&mut self, acc: &TraceAccount, _untraced: &Untraced, out: &mut Layers) {
        set_compile_layers(acc, out);
        out.set_self(
            "scenario.from_json_ms",
            acc,
            "scenario.from_json",
            NS_PER_MS,
        );
        out.set_self("session.open_ms", acc, "session.open", NS_PER_MS);
        out.set_self(
            "scenario.report_render_us",
            acc,
            "scenario.report_render",
            NS_PER_US,
        );
        out.set(
            "scenario.doc_bytes",
            self.cases.iter().map(|c| c.scenario.len()).sum::<usize>() as f64,
        );
        out.set(
            "frontend.src_bytes",
            self.cases.iter().map(|c| c.program.len()).sum::<usize>() as f64,
        );
        out.set(
            "machine.walker_ns_per_event",
            acc.self_ns_per_rep("machine.walker_gen_drain") / self.walker_gen_events.max(1) as f64,
        );
    }
}
