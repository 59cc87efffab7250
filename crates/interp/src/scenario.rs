//! Scenario-driven simulation: JSON-specified traffic traces, topology,
//! fault schedules, and expected outcomes, mirroring the paper artifact's
//! "interpreter specification" files that let Lucid programs be tested
//! against event traces without the Tofino toolchain.
//!
//! A scenario file (`*.sim.json`) holds:
//!
//! * `net` — the topology and timing ([`NetConfig`]): a switch list (or a
//!   mesh size) plus wire/recirculation latencies;
//! * `engine` — which driver runs it (`"sequential"` or `"sharded"`);
//! * `limits` — event budget and virtual-time horizon;
//! * `init` — initial array state, applied with [`Interp::poke`](crate::machine::Interp::poke);
//! * `events` — timed external injections;
//! * `failures` — a switch fail/recover schedule;
//! * `expect` — final array cells/contents and event-count expectations.
//!
//! [`Scenario::from_json`] parses and shape-checks the file;
//! [`Scenario::validate`] resolves it against a checked program (unknown
//! events, bad arity, out-of-range switches and indices all become
//! structured [`ScenarioError`]s); [`run_scenario_with`] executes it and
//! returns a [`SimReport`] whose [`Mismatch`] list is empty exactly when
//! every expectation held.
//!
//! This file holds the model, validation, the run options and the
//! runner. Decoding (`from_json`, the generator schema) is the private
//! child `decode`; the report side ([`Mismatch`], [`SimReport`], the
//! expectation checks, the state digest) is the private child `report`.
//! JSON itself — parser, path-carrying reader, writer — is
//! [`lucid_frontend::json`], the one codec every crate shares.

mod decode;
mod report;

pub(crate) use decode::{generators_of, injections_of};
pub(crate) use report::{check_expectations, check_metric_expectations, digest_state};
pub use report::{Mismatch, SimReport};

use crate::bytecode::{ExecMode, OptLevel};
use crate::machine::{Engine, InterpError, NetConfig};
use crate::metrics::MetricSel;
use crate::workload::GenSpec;
use lucid_check::{mask, CheckedProgram};
use lucid_frontend::json::{self as codec, JsonError, PathError};
use std::fmt;

// ----------------------------------------------------------------- errors

/// A structured scenario failure: where in the file (JSON position or
/// field path) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The file is not well-formed JSON.
    Json {
        line: usize,
        col: usize,
        msg: String,
    },
    /// The JSON is well-formed but does not fit the scenario schema.
    Schema { path: String, msg: String },
    /// The scenario does not fit the program or topology (unknown event,
    /// wrong arity, out-of-range switch id or array index, ...).
    Validate { path: String, msg: String },
}

impl ScenarioError {
    pub(crate) fn validate(path: &str, msg: impl Into<String>) -> Self {
        ScenarioError::Validate {
            path: path.to_string(),
            msg: msg.into(),
        }
    }

    /// One-line JSON rendering (for `lucidc sim --json`).
    pub fn to_json(&self) -> String {
        codec::write(|w| {
            w.obj(|w| match self {
                ScenarioError::Json { line, col, msg } => {
                    w.key("kind").str("json").key("line").u64(*line as u64);
                    w.key("col").u64(*col as u64).key("msg").str(msg);
                }
                ScenarioError::Schema { path, msg } => {
                    w.key("kind").str("schema");
                    w.key("path").str(path);
                    w.key("msg").str(msg);
                }
                ScenarioError::Validate { path, msg } => {
                    w.key("kind").str("validate");
                    w.key("path").str(path);
                    w.key("msg").str(msg);
                }
            });
        })
    }
}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json {
            line: e.line,
            col: e.col,
            msg: e.msg,
        }
    }
}

impl From<PathError> for ScenarioError {
    fn from(e: PathError) -> Self {
        ScenarioError::Schema {
            path: e.path,
            msg: e.msg,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json { line, col, msg } => {
                write!(
                    f,
                    "scenario is not valid JSON (line {line}, col {col}): {msg}"
                )
            }
            ScenarioError::Schema { path, msg } => {
                write!(f, "scenario schema error at `{path}`: {msg}")
            }
            ScenarioError::Validate { path, msg } => {
                write!(f, "scenario does not fit the program at `{path}`: {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Why a scenario run failed outright (as opposed to finishing with
/// expectation mismatches, which land in [`SimReport::mismatches`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimRunError {
    Scenario(ScenarioError),
    Runtime(InterpError),
    /// A world snapshot could not be taken, or a restore was refused
    /// (corrupted bytes, or a snapshot from a different program,
    /// scenario, or topology).
    Snapshot(String),
    /// A hot-swap was rejected (the session keeps running its current
    /// program).
    Swap(String),
}

impl fmt::Display for SimRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimRunError::Scenario(e) => write!(f, "{e}"),
            SimRunError::Runtime(e) => write!(f, "runtime fault: {e}"),
            SimRunError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            SimRunError::Swap(msg) => write!(f, "swap rejected: {msg}"),
        }
    }
}

impl std::error::Error for SimRunError {}

impl From<ScenarioError> for SimRunError {
    fn from(e: ScenarioError) -> Self {
        SimRunError::Scenario(e)
    }
}

impl From<InterpError> for SimRunError {
    fn from(e: InterpError) -> Self {
        SimRunError::Runtime(e)
    }
}

// ------------------------------------------------------------ the schema

/// One initial-state write: `arrays[array][index] = value` on `switch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poke {
    pub switch: u64,
    pub array: String,
    pub index: u64,
    pub value: u64,
}

/// One timed external event injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    pub time_ns: u64,
    pub switch: u64,
    pub event: String,
    pub args: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    Fail,
    Recover,
}

/// One scheduled fault action, applied when the virtual clock reaches
/// `time_ns` (before any event at or after that instant runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureAction {
    pub time_ns: u64,
    pub switch: u64,
    pub kind: FailureKind,
}

/// One expected final array cell (or whole-array contents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayExpect {
    pub switch: u64,
    pub array: String,
    /// `Some((index, value))` for a single cell; `None` when `values`
    /// pins the whole array.
    pub cell: Option<(u64, u64)>,
    pub values: Option<Vec<u64>>,
}

/// Expected outcomes checked after the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expectations {
    pub arrays: Vec<ArrayExpect>,
    pub handled: Option<u64>,
    pub dropped: Option<u64>,
    pub exported: Option<u64>,
    pub per_event: Vec<(String, u64)>,
}

/// Comparison operator of one `$.metrics.expect` assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Parse a scenario `op` field.
    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            _ => return None,
        })
    }

    pub fn label(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    pub fn holds(self, got: u64, want: u64) -> bool {
        match self {
            CmpOp::Lt => got < want,
            CmpOp::Le => got <= want,
            CmpOp::Gt => got > want,
            CmpOp::Ge => got >= want,
            CmpOp::Eq => got == want,
            CmpOp::Ne => got != want,
        }
    }
}

/// One statistical assertion from the scenario's `metrics` block, e.g.
/// "the p99 dispatch latency of `pkt` on switch 1 is below 5 µs":
/// `{"event":"pkt","switch":1,"metric":"latency_p99_ns","op":"<","value":5000}`.
/// Without `switch` the assertion reads the event's histograms merged
/// across every switch. Metrics are deterministic, so exact assertions
/// (`==`) are as reproducible as bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricExpect {
    pub event: String,
    /// Pin one event class; `None` aggregates the event over all switches.
    pub switch: Option<u64>,
    pub metric: MetricSel,
    pub op: CmpOp,
    pub value: u64,
}

/// A parsed scenario file. (`Eq` stops at `PartialEq`: zipf exponents in
/// generator specs are floats.)
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub description: String,
    pub switches: Vec<u64>,
    pub link_latency_ns: u64,
    pub recirc_latency_ns: u64,
    pub engine: Engine,
    pub exec: ExecMode,
    /// Bytecode optimization level (`"opt"`; default 2, the full
    /// pipeline). `lucidc sim --opt` overrides it.
    pub opt: OptLevel,
    pub max_events: u64,
    pub max_time_ns: u64,
    /// Base seed mixed into every generator's stream (`lucidc sim
    /// --seed` overrides it).
    pub seed: u64,
    pub init: Vec<Poke>,
    pub events: Vec<Injection>,
    /// Streaming workload generators, drained lazily alongside `events`.
    pub generators: Vec<GenSpec>,
    pub failures: Vec<FailureAction>,
    pub expect: Expectations,
    /// Statistical assertions over the run's latency metrics
    /// (`$.metrics.expect`), checked alongside `expect`.
    pub metrics: Vec<MetricExpect>,
}

impl Scenario {
    /// Resolve the scenario against a checked program: every event name,
    /// arity, array name, switch id, array index, and initial cell value
    /// must fit.
    pub fn validate(&self, prog: &CheckedProgram) -> Result<(), ScenarioError> {
        fn invalid<T>(path: String, msg: String) -> Result<T, ScenarioError> {
            Err(ScenarioError::Validate { path, msg })
        }
        // Each check takes the path of what it checks as a closure that
        // only a failure calls: a scenario that fits renders no path.
        type Path<'p> = &'p dyn Fn() -> String;
        let info = &prog.info;
        let switch = |s: u64, path: Path| {
            if self.switches.contains(&s) {
                return Ok(());
            }
            invalid(path(), format!("switch {s} is not in the topology"))
        };
        let event = |name: &str, nargs: Option<usize>, at: Path| {
            let Some(ev) = info.event(name) else {
                return invalid(at() + ".event", format!("no event named `{name}`"));
            };
            match nargs {
                Some(got) if got != ev.params.len() => invalid(
                    at() + ".args",
                    format!("event `{name}` wants {} args, got {got}", ev.params.len()),
                ),
                _ => Ok(()),
            }
        };
        let array = |name: &str, at: Path| match info.globals_by_name.get(name) {
            Some(gid) => Ok(&info.globals[gid.0]),
            None => invalid(at() + ".array", format!("no global array named `{name}`")),
        };

        for (i, p) in self.init.iter().enumerate() {
            let at = || format!("$.init[{i}]");
            switch(p.switch, &|| at() + ".switch")?;
            let g = array(&p.array, &at)?;
            if p.index >= g.len {
                let (index, len) = (p.index, g.len);
                return invalid(
                    at() + ".index",
                    format!("index {index} out of range for `{}` (len {len})", p.array),
                );
            }
            // An oversized value used to be masked silently on write,
            // leaving the author none the wiser that their initial state
            // was not what they asked for.
            let width = g.cell_width;
            if mask(p.value, width) != p.value {
                return invalid(
                    at() + ".value",
                    format!(
                        "value {} does not fit `{}`'s {width}-bit cells \
                         (max {})",
                        p.value,
                        p.array,
                        mask(u64::MAX, width)
                    ),
                );
            }
        }

        for (i, g) in self.generators.iter().enumerate() {
            let at = || format!("$.generators[{i}]");
            event(&g.event, Some(g.args.len()), &at)?;
            for (k, s) in g.switches.iter().enumerate() {
                switch(*s, &|| match g.switches.len() {
                    1 => at() + ".switch",
                    _ => format!("{}.switches[{k}]", at()),
                })?;
            }
        }

        for (i, inj) in self.events.iter().enumerate() {
            let at = || format!("$.events[{i}]");
            switch(inj.switch, &|| at() + ".switch")?;
            event(&inj.event, Some(inj.args.len()), &at)?;
        }

        for (i, f) in self.failures.iter().enumerate() {
            switch(f.switch, &|| format!("$.failures[{i}].switch"))?;
        }

        for (i, x) in self.expect.arrays.iter().enumerate() {
            let at = || format!("$.expect.arrays[{i}]");
            switch(x.switch, &|| at() + ".switch")?;
            let len = array(&x.array, &at)?.len;
            if let Some((idx, _)) = x.cell.filter(|&(idx, _)| idx >= len) {
                return invalid(
                    at() + ".index",
                    format!("index {idx} out of range for `{}` (len {len})", x.array),
                );
            }
            if let Some(vs) = x.values.as_ref().filter(|vs| vs.len() as u64 != len) {
                let (array, given) = (&x.array, vs.len());
                return invalid(
                    at() + ".values",
                    format!("`{array}` has {len} cells but {given} values were given"),
                );
            }
        }

        for (name, _) in &self.expect.per_event {
            if info.event(name).is_none() {
                return invalid(
                    format!("$.expect.per_event.{name}"),
                    format!("no event named `{name}`"),
                );
            }
        }

        for (i, m) in self.metrics.iter().enumerate() {
            let at = || format!("$.metrics.expect[{i}]");
            event(&m.event, None, &at)?;
            if let Some(s) = m.switch {
                switch(s, &|| at() + ".switch")?;
            }
        }

        Ok(())
    }
}

// ----------------------------------------------------------------- runner

/// Run-time knobs layered over a scenario's own choices (`lucidc sim
/// --engine/--exec/--opt/--workers/--seed/--events`). [`Default`]
/// overrides nothing and records no trace; the builder methods set one
/// knob each and chain:
///
/// ```
/// use lucid_interp::{Engine, SimOptions};
/// let opts = SimOptions::new().engine(Engine::Sequential).seed(7).record_trace(true);
/// assert_eq!(opts.seed, Some(7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    pub engine: Option<Engine>,
    pub exec: Option<ExecMode>,
    /// Replaces the scenario's bytecode optimization level (`--opt`;
    /// a no-op under the AST walker).
    pub opt: Option<OptLevel>,
    /// Forces the sharded engine with this worker count (`0`: one per
    /// core), whatever engine the scenario or the `engine` override
    /// picked. The epoch length is kept when the resolved engine was
    /// already sharded, adaptive otherwise.
    pub workers: Option<usize>,
    /// Replaces the scenario's top-level `seed` (reshuffles every
    /// generator stream).
    pub seed: Option<u64>,
    /// Sets the total number of generator-sourced injections. Below the
    /// authored total the merged stream just stops early; above it,
    /// per-generator `count` caps scale up proportionally so the stream
    /// can reach the target. The event budget is raised to at least 4x
    /// the target so scaling past the authored `limits.max_events` does
    /// not trip the fuel limit.
    ///
    /// Either workload override (`seed` or `events`) invalidates the
    /// scenario's authored expectations — the run reports its statistics
    /// and digest but skips the `expect` checks.
    pub events: Option<u64>,
    /// Retain the per-event dispatch trace in the session's world
    /// ([`crate::SimSession::world`]). Off by default: nothing a session
    /// returns reads it — the report carries no trace — and stats,
    /// per-event counts, metrics, `printf` output and the state digest
    /// are the same either way. Callers that compare traces turn it on.
    pub record_trace: bool,
}

impl SimOptions {
    /// Options that override nothing (same as [`Default`]).
    pub fn new() -> SimOptions {
        SimOptions::default()
    }

    pub fn engine(mut self, engine: Engine) -> SimOptions {
        self.engine = Some(engine);
        self
    }

    pub fn exec(mut self, exec: ExecMode) -> SimOptions {
        self.exec = Some(exec);
        self
    }

    pub fn opt(mut self, opt: OptLevel) -> SimOptions {
        self.opt = Some(opt);
        self
    }

    pub fn workers(mut self, workers: usize) -> SimOptions {
        self.workers = Some(workers);
        self
    }

    pub fn seed(mut self, seed: u64) -> SimOptions {
        self.seed = Some(seed);
        self
    }

    pub fn events(mut self, events: u64) -> SimOptions {
        self.events = Some(events);
        self
    }

    pub fn record_trace(mut self, on: bool) -> SimOptions {
        self.record_trace = on;
        self
    }

    /// Resolve the effective network configuration for `sc`: the
    /// scenario's choices, overridden knob by knob, with `workers`
    /// folded into the engine last. The one place a run's configuration
    /// is decided.
    pub(crate) fn resolve(&self, sc: &Scenario) -> NetConfig {
        let mut engine = self.engine.unwrap_or(sc.engine);
        if let Some(workers) = self.workers {
            engine = match engine {
                Engine::Sharded { epoch_ns, .. } => Engine::Sharded { workers, epoch_ns },
                Engine::Sequential => Engine::Sharded {
                    workers,
                    epoch_ns: 0,
                },
            };
        }
        NetConfig {
            switches: sc.switches.clone(),
            link_latency_ns: sc.link_latency_ns,
            recirc_latency_ns: sc.recirc_latency_ns,
            engine,
            exec: self.exec.unwrap_or(sc.exec),
            opt: self.opt.unwrap_or(sc.opt),
        }
    }
}

/// Validate and execute a scenario against a checked program under
/// `ov` (`SimOptions::default()` runs the scenario's own choices).
/// Expectation failures are *not* errors — they come back in
/// [`SimReport::mismatches`] so the caller can render all of them.
/// One-shot runs are a served session opened and drained in one
/// breath — [`crate::session::SimSession`] is the single execution
/// path, which is what makes a served world bit-identical to this
/// function by construction.
pub fn run_scenario_with(
    prog: &CheckedProgram,
    sc: &Scenario,
    ov: &SimOptions,
) -> Result<SimReport, SimRunError> {
    let mut session = crate::session::SimSession::open(prog, sc, ov)?;
    session.drain()
}

/// The JSON reader under the path out-of-tree users have always imported
/// it from. The codec itself is [`lucid_frontend::json`]; this adds only
/// the mapping of its syntax error onto [`ScenarioError::Json`].
pub mod json {
    pub use lucid_frontend::json::Json;

    pub fn parse(src: &str) -> Result<Json, super::ScenarioError> {
        Ok(lucid_frontend::json::parse(src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_check::parse_and_check;

    const COUNTER: &str = r#"
        global cts = new Array<<32>>(8);
        memop plus(int m, int x) { return m + x; }
        event pkt(int idx);
        event done();
        handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
    "#;

    fn prog() -> CheckedProgram {
        parse_and_check(COUNTER).expect("counter checks")
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let j = json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\n\"y\""}, "d": true}"#).unwrap();
        let json::Json::Obj(fields) = &j else {
            panic!()
        };
        assert_eq!(fields.len(), 3);
        let json::Json::Arr(items) = &fields[0].1 else {
            panic!()
        };
        assert_eq!(items[1], json::Json::Num(2.5));
        // Escaped surrogate pairs combine; a lone half stays U+FFFD
        // without swallowing the escape after it.
        for (text, want) in [
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00x""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""caf\u00e9 \u2603 ☃""#, "café ☃ ☃"),
        ] {
            assert_eq!(
                json::parse(text),
                Ok(json::Json::Str(want.into())),
                "{text}"
            );
        }
        // `\u` takes exactly four hex digits: no sign, no short forms.
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\u12"#,
        ] {
            let err = json::parse(text).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Json { msg, .. } if msg.contains("\\u escape")),
                "{text}: {err:?}"
            );
        }
        // Nesting is bounded (the codec's own tests cover the edges).
        let err = json::parse(&"[".repeat(4096)).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Json { line: 1, col: 129, msg } if msg == "nesting deeper than 128"),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_json_reports_position() {
        let err = Scenario::from_json("{\n  \"name\": \"x\",\n  oops\n}").unwrap_err();
        let ScenarioError::Json { line, col, .. } = err else {
            panic!("want Json error, got {err:?}")
        };
        assert_eq!(line, 3);
        assert!(col >= 3, "col {col}");
    }

    #[test]
    fn unknown_field_is_a_schema_error_with_path() {
        let err = Scenario::from_json(r#"{"net": {"switchez": 3}}"#).unwrap_err();
        let ScenarioError::Schema { path, msg } = err else {
            panic!()
        };
        assert_eq!(path, "$.net");
        assert!(msg.contains("switchez"), "{msg}");
    }

    #[test]
    fn minimal_scenario_defaults() {
        let sc = Scenario::from_json(r#"{"name": "t"}"#).unwrap();
        assert_eq!(sc.switches, vec![1]);
        assert_eq!(sc.link_latency_ns, 1_000);
        assert_eq!(sc.engine, Engine::Sequential);
        assert_eq!(sc.max_events, 1_000_000);
        assert_eq!(sc.max_time_ns, u64::MAX);
    }

    #[test]
    fn mesh_shorthand_and_engine_object() {
        let sc = Scenario::from_json(
            r#"{"net": {"switches": 4},
                "engine": {"kind": "sharded", "workers": 2, "epoch_ns": 500}}"#,
        )
        .unwrap();
        assert_eq!(sc.switches, vec![1, 2, 3, 4]);
        assert_eq!(
            sc.engine,
            Engine::Sharded {
                workers: 2,
                epoch_ns: 500
            }
        );
        // The shorthand allocates `1..=N` while decoding, so N is bounded
        // on both sides before it does: the largest JSON integer used to
        // abort the process in the allocator.
        let max = decode::MAX_MESH_SWITCHES;
        let mesh = |n: u64| Scenario::from_json(&format!(r#"{{"net": {{"switches": {n}}}}}"#));
        assert_eq!(mesh(max).unwrap().switches.len() as u64, max);
        for (n, want) in [
            (0, "a mesh needs at least one switch".to_string()),
            (max + 1, format!("a mesh has at most {max} switches")),
            (
                9_007_199_254_740_991,
                format!("a mesh has at most {max} switches"),
            ),
        ] {
            let err = mesh(n).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Schema { path, msg } if path == "$.net.switches" && *msg == want),
                "{n}: {err:?}"
            );
        }
    }

    #[test]
    fn unknown_event_name_is_structured() {
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "nope", "args": []}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        let ScenarioError::Validate { path, msg } = err else {
            panic!()
        };
        assert_eq!(path, "$.events[0].event");
        assert!(msg.contains("nope"), "{msg}");
    }

    #[test]
    fn out_of_range_switch_id_is_structured() {
        let sc = Scenario::from_json(
            r#"{"net": {"switches": 2},
                "events": [{"time_ns": 0, "switch": 7, "event": "pkt", "args": [1]}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.events[0].switch"),
            "{err:?}"
        );
    }

    #[test]
    fn bad_arity_and_bad_index_are_structured() {
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1, 2]}]}"#,
        )
        .unwrap();
        assert!(matches!(
            sc.validate(&prog()).unwrap_err(),
            ScenarioError::Validate { .. }
        ));
        let sc = Scenario::from_json(
            r#"{"init": [{"switch": 1, "array": "cts", "index": 99, "value": 1}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.init[0].index"),
            "{err:?}"
        );
    }

    #[test]
    fn run_reports_structured_mismatches() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "count",
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]},
                           {"time_ns": 100, "switch": 1, "event": "pkt", "args": [3]}],
                "expect": {"handled": 2,
                           "per_event": {"done": 1},
                           "arrays": [{"switch": 1, "array": "cts", "index": 3, "value": 9}]}}"#,
        )
        .unwrap();
        let report = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.mismatches.len(), 2, "{:?}", report.mismatches);
        assert!(report.mismatches.contains(&Mismatch::Array {
            switch: 1,
            array: "cts".into(),
            index: 3,
            want: 9,
            got: 2
        }));
        assert!(report.mismatches.contains(&Mismatch::Count {
            what: "event:done".into(),
            want: 1,
            got: 0
        }));
        let j = report.to_json();
        assert!(j.contains("\"ok\":false"), "{j}");
        assert!(j.contains("\"kind\":\"array\""), "{j}");
    }

    #[test]
    fn passing_scenario_has_empty_mismatches() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "count",
                "init": [{"switch": 1, "array": "cts", "index": 0, "value": 5}],
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}],
                "expect": {"handled": 1,
                           "arrays": [{"switch": 1, "array": "cts", "values": [5,0,0,1,0,0,0,0]}]}}"#,
        )
        .unwrap();
        let report = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
        assert!(report.to_json().contains("\"ok\":true"));
    }

    #[test]
    fn failure_schedule_drops_and_recovers() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "fail",
                "net": {"switches": 2},
                "events": [{"time_ns": 0,    "switch": 2, "event": "pkt", "args": [1]},
                           {"time_ns": 2000, "switch": 2, "event": "pkt", "args": [1]},
                           {"time_ns": 9000, "switch": 2, "event": "pkt", "args": [2]}],
                "failures": [{"time_ns": 1000, "switch": 2, "action": "fail"},
                             {"time_ns": 5000, "switch": 2, "action": "recover"}],
                "expect": {"handled": 2, "dropped": 1,
                           "arrays": [{"switch": 2, "array": "cts", "index": 1, "value": 0},
                                      {"switch": 2, "array": "cts", "index": 2, "value": 1}]}}"#,
        )
        .unwrap();
        let report = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
    }

    #[test]
    fn engine_override_wins_and_matches() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "x", "net": {"switches": 3},
                "events": [{"time_ns": 0, "switch": 2, "event": "pkt", "args": [1]}]}"#,
        )
        .unwrap();
        let seq = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        let sh = run_scenario_with(
            &p,
            &sc,
            &SimOptions::new().engine(Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            }),
        )
        .unwrap();
        assert_eq!(seq.engine, "sequential");
        assert_eq!(sh.engine, "sharded");
        assert_eq!(seq.stats, sh.stats);
    }

    #[test]
    fn exec_override_and_field_select_bytecode() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "bc", "exec": "bytecode",
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}],
                "expect": {"arrays": [{"switch": 1, "array": "cts", "index": 3, "value": 1}]}}"#,
        )
        .unwrap();
        assert_eq!(sc.exec, ExecMode::Bytecode);
        let bc = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        assert_eq!(bc.exec, "bytecode");
        assert!(bc.passed(), "{:?}", bc.mismatches);
        assert!(bc.to_json().contains("\"exec\":\"bytecode\""));
        let ast = run_scenario_with(&p, &sc, &SimOptions::new().exec(ExecMode::Ast)).unwrap();
        assert_eq!(ast.exec, "ast");
        assert_eq!(ast.state_digest, bc.state_digest);
        assert_eq!(ast.stats, bc.stats);

        // Bytecode is the default; the walker is reached by name.
        let exec_of = |doc: &str| Scenario::from_json(doc).unwrap().exec;
        assert_eq!(exec_of("{}"), ExecMode::Bytecode);
        assert_eq!(exec_of(r#"{"exec": "ast"}"#), ExecMode::Ast);
        assert_eq!(exec_of(r#"{"exec": "walker"}"#), ExecMode::Ast);

        let err = Scenario::from_json(r#"{"exec": "jit"}"#).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Schema { path, .. } if path == "$.exec"),
            "{err:?}"
        );
    }

    #[test]
    fn opt_field_and_override_select_the_level() {
        // Unspecified: the full pipeline.
        let sc = Scenario::from_json(r#"{"name": "d"}"#).unwrap();
        assert_eq!(sc.opt, OptLevel::O2);
        // Authored level flows into the config and the report.
        let sc = Scenario::from_json(
            r#"{"name": "o0", "exec": "bytecode", "opt": 0,
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}]}"#,
        )
        .unwrap();
        assert_eq!(sc.opt, OptLevel::O0);
        assert_eq!(SimOptions::default().resolve(&sc).opt, OptLevel::O0);
        let report = run_scenario_with(&prog(), &sc, &SimOptions::default()).unwrap();
        assert_eq!(report.opt, "0");
        assert!(
            report.to_json().contains("\"opt\":0"),
            "{}",
            report.to_json()
        );
        // The CLI override wins.
        let report = run_scenario_with(&prog(), &sc, &SimOptions::new().opt(OptLevel::O2)).unwrap();
        assert_eq!(report.opt, "2");
        // Level 1 is gone; it, out-of-range and non-numeric levels are
        // schema errors at $.opt.
        for bad in [r#"{"opt": 1}"#, r#"{"opt": 3}"#, r#"{"opt": "two"}"#] {
            let err = Scenario::from_json(bad).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Schema { path, .. } if path == "$.opt"),
                "{err:?}"
            );
        }
        let err = Scenario::from_json(r#"{"opt": 1}"#).unwrap_err();
        assert!(err.to_string().contains("expected 0 or 2"), "{err}");
    }

    #[test]
    fn oversized_init_value_is_a_structured_error() {
        // Silent masking used to hide this; now the loader points at the
        // exact field.
        let sc = Scenario::from_json(
            r#"{"init": [{"switch": 1, "array": "cts", "index": 0, "value": 4294967296}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        let ScenarioError::Validate { path, msg } = &err else {
            panic!("want Validate, got {err:?}")
        };
        assert_eq!(path, "$.init[0].value");
        assert!(msg.contains("32-bit"), "{msg}");
        // The maximum representable value is still fine.
        let sc = Scenario::from_json(
            r#"{"init": [{"switch": 1, "array": "cts", "index": 0, "value": 4294967295}]}"#,
        )
        .unwrap();
        sc.validate(&prog()).unwrap();
    }

    #[test]
    fn generator_schema_errors_carry_paths() {
        for (body, want_path, want_msg) in [
            (
                r#"{"generators": [{"event": "pkt", "count": 5}]}"#,
                "$.generators[0]",
                "rate",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100}]}"#,
                "$.generators[0]",
                "unbounded",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "interval_ns": 5, "count": 1}]}"#,
                "$.generators[0]",
                "not both",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "count": 1,
                    "args": [{"uniform": [9, 2]}]}]}"#,
                "$.generators[0].args[0].uniform",
                "empty range",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "count": 1,
                    "args": [{"zipf": {"n": 0}}]}]}"#,
                "$.generators[0].args[0].zipf.n",
                "at least one",
            ),
            (
                r#"{"generators": [{"name": "a", "event": "pkt", "rate_eps": 1, "count": 1},
                                   {"name": "a", "event": "pkt", "rate_eps": 1, "count": 1}]}"#,
                "$.generators[1].name",
                "duplicate",
            ),
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 100, "count": 1,
                    "phases": [{"at_ns": 5, "rate_eps": 1}, {"at_ns": 5, "rate_eps": 2}]}]}"#,
                "$.generators[0].phases",
                "strictly increasing",
            ),
            // 2^53 + 1 is not an f64: it used to load, silently, as 2^53.
            (
                r#"{"generators": [{"event": "pkt", "rate_eps": 1, "count": 9007199254740993}]}"#,
                "$.generators[0].count",
                "no larger than 2^53 - 1",
            ),
        ] {
            let err = Scenario::from_json(body).unwrap_err();
            let ScenarioError::Schema { path, msg } = &err else {
                panic!("{body}: want Schema, got {err:?}")
            };
            assert_eq!(path, want_path, "{body}: {msg}");
            assert!(msg.contains(want_msg), "{body}: {msg}");
        }
    }

    #[test]
    fn generator_validation_resolves_against_the_program() {
        // Unknown event.
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "nope", "rate_eps": 10, "count": 1}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.generators[0].event"),
            "{err:?}"
        );
        // Wrong arity.
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "pkt", "rate_eps": 10, "count": 1, "args": [1, 2]}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.generators[0].args"),
            "{err:?}"
        );
        // Switch outside the topology.
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "pkt", "switch": 9, "rate_eps": 10,
                                "count": 1, "args": [1]}]}"#,
        )
        .unwrap();
        let err = sc.validate(&prog()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == "$.generators[0].switch"),
            "{err:?}"
        );
    }

    #[test]
    fn generator_scenario_runs_and_reports_per_source_counts() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "gen",
                "seed": 3,
                "generators": [
                  {"name": "hot", "event": "pkt", "rate_eps": 1000000, "count": 120,
                   "args": [{"zipf": {"n": 8, "s": 1.3}}]},
                  {"name": "sweep", "event": "pkt", "rate_eps": 500000, "count": 80,
                   "args": [{"seq": 8}]}],
                "expect": {"handled": 200, "per_event": {"pkt": 200}}}"#,
        )
        .unwrap();
        let report = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
        assert_eq!(
            report.gens,
            vec![("hot".to_string(), 120), ("sweep".to_string(), 80)]
        );
        let j = report.to_json();
        assert!(j.contains("\"name\":\"hot\",\"injected\":120"), "{j}");
        assert!(report.render().contains("generators: hot=120, sweep=80"));
        // Injections arrived exactly once each through the lazy path.
        let injected: u64 = report.gens.iter().map(|(_, n)| n).sum();
        assert_eq!(injected, report.stats.processed);
    }

    #[test]
    fn workload_overrides_scale_reseed_and_skip_expectations() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "gen",
                "generators": [
                  {"name": "a", "event": "pkt", "rate_eps": 1000000, "count": 30,
                   "args": [{"uniform": [0, 7]}]},
                  {"name": "b", "event": "pkt", "rate_eps": 1000000, "count": 10,
                   "args": [{"uniform": [0, 7]}]}],
                "expect": {"handled": 40}}"#,
        )
        .unwrap();
        // --events below the authored total: the stream stops early.
        let capped = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(12),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.stats.handled, 12);
        assert!(
            capped.passed(),
            "expectations must be skipped under --events: {:?}",
            capped.mismatches
        );
        // --events above it: counts scale proportionally (3:1 ratio kept).
        let scaled = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(400),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(scaled.stats.handled, 400);
        assert_eq!(scaled.gens[0].1, 300, "{:?}", scaled.gens);
        assert_eq!(scaled.gens[1].1, 100, "{:?}", scaled.gens);
        // --seed changes the stream but not the volume; expectations are
        // skipped there too.
        let reseeded = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                seed: Some(99),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(reseeded.stats.handled, 40);
        assert!(reseeded.passed());
        let baseline = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap();
        assert_ne!(
            baseline.state_digest, reseeded.state_digest,
            "a different seed must spread keys differently"
        );
    }

    #[test]
    fn events_scaling_skips_window_bounded_generators_but_still_hits_target() {
        // `a` is count-bounded and scales; `b` is stop_ns-bounded and
        // keeps its window. The total cap still lands exactly on target.
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"generators": [
                  {"name": "a", "event": "pkt", "interval_ns": 100, "count": 50,
                   "args": [{"uniform": [0, 7]}]},
                  {"name": "b", "event": "pkt", "interval_ns": 100, "stop_ns": 100000,
                   "args": [{"uniform": [0, 7]}]}]}"#,
        )
        .unwrap();
        let report = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(800),
                ..SimOptions::default()
            },
        )
        .unwrap();
        let injected: u64 = report.gens.iter().map(|(_, n)| n).sum();
        assert_eq!(injected, 800, "{:?}", report.gens);
        assert!(
            report.gens[0].1 > 50,
            "counted gen must scale: {:?}",
            report.gens
        );
    }

    #[test]
    fn events_target_unreachable_through_windows_is_a_loud_error() {
        // Every generator is window-bounded, so scaling cannot stretch
        // the stream to the target; the run must fail, not silently
        // deliver a smaller workload.
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"generators": [{"event": "pkt", "interval_ns": 100, "stop_ns": 1000,
                                "args": [{"uniform": [0, 7]}]}]}"#,
        )
        .unwrap();
        let err = run_scenario_with(
            &p,
            &sc,
            &SimOptions {
                events: Some(500),
                ..SimOptions::default()
            },
        )
        .unwrap_err();
        let SimRunError::Scenario(ScenarioError::Validate { path, msg }) = &err else {
            panic!("want a Validate error, got {err:?}")
        };
        assert_eq!(path, "$.generators");
        assert!(msg.contains("supplied only"), "{msg}");
    }

    #[test]
    fn workload_overrides_without_generators_are_rejected() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]}]}"#,
        )
        .unwrap();
        for ov in [
            SimOptions {
                events: Some(10),
                ..SimOptions::default()
            },
            SimOptions {
                seed: Some(1),
                ..SimOptions::default()
            },
        ] {
            let err = run_scenario_with(&p, &sc, &ov).unwrap_err();
            assert!(
                matches!(
                    &err,
                    SimRunError::Scenario(ScenarioError::Validate { path, .. })
                        if path == "$.generators"
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn standalone_generator_spec_parses_for_cli_gen_flag() {
        let one = Scenario::parse_generators(
            r#"{"event": "pkt", "rate_eps": 10, "count": 3, "args": [1]}"#,
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "gen0");
        let many = Scenario::parse_generators(
            r#"[{"event": "pkt", "rate_eps": 10, "count": 3, "args": [1]},
                {"name": "x", "event": "pkt", "interval_ns": 5, "stop_ns": 100, "args": [2]}]"#,
        )
        .unwrap();
        assert_eq!(many.len(), 2);
        assert_eq!(many[1].name, "x");
        assert!(Scenario::parse_generators("42").is_err());
    }

    #[test]
    fn runtime_fault_names_the_offending_injection() {
        let p = prog();
        let sc = Scenario::from_json(
            r#"{"name": "oob",
                "events": [{"time_ns": 40, "switch": 1, "event": "pkt", "args": [99]}]}"#,
        )
        .unwrap();
        let err = run_scenario_with(&p, &sc, &SimOptions::default()).unwrap_err();
        let SimRunError::Runtime(e) = err else {
            panic!("want runtime fault, got {err:?}")
        };
        let at = e.at.as_ref().expect("fault location");
        assert_eq!((at.time_ns, at.switch, at.event.as_str()), (40, 1, "pkt"));
        assert_eq!(at.origin, None, "an injected event has no origin switch");
        let msg = e.to_string();
        assert!(msg.contains("`pkt` on switch 1 at 40ns"), "{msg}");
        assert!(e.to_json().contains("\"time_ns\":40"), "{}", e.to_json());
    }
}
