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
//! * `init` — initial array state, applied with [`Interp::poke`];
//! * `events` — timed external injections;
//! * `failures` — a switch fail/recover schedule;
//! * `expect` — final array cells/contents and event-count expectations.
//!
//! [`Scenario::from_json`] parses and shape-checks the file;
//! [`Scenario::validate`] resolves it against a checked program (unknown
//! events, bad arity, out-of-range switches and indices all become
//! structured [`ScenarioError`]s); [`run_scenario`] executes it and
//! returns a [`SimReport`] whose [`Mismatch`] list is empty exactly when
//! every expectation held.

use crate::bytecode::{ExecMode, OptLevel};
use crate::machine::{Engine, Interp, InterpError, NetConfig, Stats};
use crate::metrics::{MetricSel, Metrics};
use crate::workload::{ArgDist, GenSpec, Phase};
use lucid_check::{mask, CheckedProgram};
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
    pub(crate) fn schema(path: &str, msg: impl Into<String>) -> Self {
        ScenarioError::Schema {
            path: path.to_string(),
            msg: msg.into(),
        }
    }

    pub(crate) fn validate(path: &str, msg: impl Into<String>) -> Self {
        ScenarioError::Validate {
            path: path.to_string(),
            msg: msg.into(),
        }
    }

    /// One-line JSON rendering (for `lucidc sim --json`).
    pub fn to_json(&self) -> String {
        match self {
            ScenarioError::Json { line, col, msg } => format!(
                "{{\"kind\":\"json\",\"line\":{line},\"col\":{col},\"msg\":\"{}\"}}",
                json_escape(msg)
            ),
            ScenarioError::Schema { path, msg } => format!(
                "{{\"kind\":\"schema\",\"path\":\"{}\",\"msg\":\"{}\"}}",
                json_escape(path),
                json_escape(msg)
            ),
            ScenarioError::Validate { path, msg } => format!(
                "{{\"kind\":\"validate\",\"path\":\"{}\",\"msg\":\"{}\"}}",
                json_escape(path),
                json_escape(msg)
            ),
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
    /// The [`NetConfig`] this scenario describes, with optional engine,
    /// executor, and opt-level overrides (e.g. from `lucidc sim
    /// --engine=...` / `--exec=...` / `--opt=...`).
    pub fn net_config(
        &self,
        engine_override: Option<Engine>,
        exec_override: Option<ExecMode>,
        opt_override: Option<OptLevel>,
    ) -> NetConfig {
        NetConfig {
            switches: self.switches.clone(),
            link_latency_ns: self.link_latency_ns,
            recirc_latency_ns: self.recirc_latency_ns,
            engine: engine_override.unwrap_or(self.engine),
            exec: exec_override.unwrap_or(self.exec),
            opt: opt_override.unwrap_or(self.opt),
        }
    }

    /// Parse a `*.sim.json` document. Shape errors carry the offending
    /// field path; syntax errors carry line/column.
    pub fn from_json(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(src)?;
        let fields = obj(&doc, "$")?;
        check_keys(
            fields,
            &[
                "name",
                "description",
                "net",
                "engine",
                "exec",
                "opt",
                "limits",
                "seed",
                "init",
                "events",
                "generators",
                "failures",
                "expect",
                "metrics",
            ],
            "$",
        )?;

        let name = match get(fields, "name") {
            Some(j) => str_of(j, "$.name")?.to_string(),
            None => "unnamed".to_string(),
        };
        let description = match get(fields, "description") {
            Some(j) => str_of(j, "$.description")?.to_string(),
            None => String::new(),
        };

        let mut switches: Vec<u64> = vec![1];
        let mut link_latency_ns = 1_000;
        let mut recirc_latency_ns = 600;
        if let Some(net) = get(fields, "net") {
            let nf = obj(net, "$.net")?;
            check_keys(
                nf,
                &["switches", "link_latency_ns", "recirc_latency_ns"],
                "$.net",
            )?;
            if let Some(sw) = get(nf, "switches") {
                switches = match sw {
                    json::Json::Num(_) => {
                        let n = u64_of(sw, "$.net.switches")?;
                        if n == 0 {
                            return Err(ScenarioError::schema(
                                "$.net.switches",
                                "a mesh needs at least one switch",
                            ));
                        }
                        (1..=n).collect()
                    }
                    json::Json::Arr(items) => {
                        let mut ids = Vec::with_capacity(items.len());
                        for (i, item) in items.iter().enumerate() {
                            ids.push(u64_of(item, &format!("$.net.switches[{i}]"))?);
                        }
                        if ids.is_empty() {
                            return Err(ScenarioError::schema(
                                "$.net.switches",
                                "topology needs at least one switch",
                            ));
                        }
                        let mut sorted = ids.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        if sorted.len() != ids.len() {
                            return Err(ScenarioError::schema(
                                "$.net.switches",
                                "duplicate switch id",
                            ));
                        }
                        ids
                    }
                    _ => {
                        return Err(ScenarioError::schema(
                            "$.net.switches",
                            "expected a switch-id array or a mesh size",
                        ))
                    }
                };
            }
            if let Some(j) = get(nf, "link_latency_ns") {
                link_latency_ns = u64_of(j, "$.net.link_latency_ns")?;
            }
            if let Some(j) = get(nf, "recirc_latency_ns") {
                recirc_latency_ns = u64_of(j, "$.net.recirc_latency_ns")?;
            }
        }

        let engine = match get(fields, "engine") {
            None => Engine::Sequential,
            Some(json::Json::Str(s)) => Engine::parse(s).ok_or_else(|| {
                ScenarioError::schema(
                    "$.engine",
                    format!("unknown engine `{s}` (expected `sequential` or `sharded`)"),
                )
            })?,
            Some(j @ json::Json::Obj(_)) => {
                let ef = obj(j, "$.engine")?;
                check_keys(ef, &["kind", "workers", "epoch_ns"], "$.engine")?;
                let kind = str_of(req(ef, "kind", "$.engine")?, "$.engine.kind")?;
                match Engine::parse(kind) {
                    Some(Engine::Sequential) => Engine::Sequential,
                    Some(Engine::Sharded { .. }) => Engine::Sharded {
                        workers: get(ef, "workers")
                            .map(|j| u64_of(j, "$.engine.workers"))
                            .transpose()?
                            .unwrap_or(0) as usize,
                        epoch_ns: get(ef, "epoch_ns")
                            .map(|j| u64_of(j, "$.engine.epoch_ns"))
                            .transpose()?
                            .unwrap_or(0),
                    },
                    None => {
                        return Err(ScenarioError::schema(
                            "$.engine.kind",
                            format!("unknown engine `{kind}`"),
                        ))
                    }
                }
            }
            Some(_) => {
                return Err(ScenarioError::schema(
                    "$.engine",
                    "expected an engine name or {kind, workers, epoch_ns}",
                ))
            }
        };

        let exec = match get(fields, "exec") {
            None => ExecMode::Ast,
            Some(json::Json::Str(s)) => ExecMode::parse(s).ok_or_else(|| {
                ScenarioError::schema(
                    "$.exec",
                    format!("unknown exec mode `{s}` (expected `ast` or `bytecode`)"),
                )
            })?,
            Some(_) => {
                return Err(ScenarioError::schema(
                    "$.exec",
                    "expected an exec-mode name (`ast` or `bytecode`)",
                ))
            }
        };

        let opt = match get(fields, "opt") {
            None => OptLevel::default(),
            Some(j @ json::Json::Num(_)) => match u64_of(j, "$.opt")? {
                0 => OptLevel::O0,
                1 => OptLevel::O1,
                2 => OptLevel::O2,
                n => {
                    return Err(ScenarioError::schema(
                        "$.opt",
                        format!("unknown opt level `{n}` (expected 0, 1, or 2)"),
                    ))
                }
            },
            Some(_) => {
                return Err(ScenarioError::schema(
                    "$.opt",
                    "expected an optimization level (0, 1, or 2)",
                ))
            }
        };

        let mut max_events = 1_000_000;
        let mut max_time_ns = u64::MAX;
        if let Some(limits) = get(fields, "limits") {
            let lf = obj(limits, "$.limits")?;
            check_keys(lf, &["max_events", "max_time_ns"], "$.limits")?;
            if let Some(j) = get(lf, "max_events") {
                max_events = u64_of(j, "$.limits.max_events")?;
            }
            if let Some(j) = get(lf, "max_time_ns") {
                max_time_ns = u64_of(j, "$.limits.max_time_ns")?;
            }
        }

        let seed = match get(fields, "seed") {
            Some(j) => u64_of(j, "$.seed")?,
            None => 0,
        };

        let generators = match get(fields, "generators") {
            Some(j) => generators_of(j, "$.generators")?,
            None => Vec::new(),
        };

        let mut init = Vec::new();
        if let Some(items) = get(fields, "init") {
            for (i, item) in arr(items, "$.init")?.iter().enumerate() {
                let path = format!("$.init[{i}]");
                let pf = obj(item, &path)?;
                check_keys(pf, &["switch", "array", "index", "value"], &path)?;
                init.push(Poke {
                    switch: u64_of(req(pf, "switch", &path)?, &format!("{path}.switch"))?,
                    array: str_of(req(pf, "array", &path)?, &format!("{path}.array"))?.to_string(),
                    index: u64_of(req(pf, "index", &path)?, &format!("{path}.index"))?,
                    value: u64_of(req(pf, "value", &path)?, &format!("{path}.value"))?,
                });
            }
        }

        let events = match get(fields, "events") {
            Some(items) => injections_of(items, "$.events")?,
            None => Vec::new(),
        };

        let mut failures = Vec::new();
        if let Some(items) = get(fields, "failures") {
            for (i, item) in arr(items, "$.failures")?.iter().enumerate() {
                let path = format!("$.failures[{i}]");
                let ff = obj(item, &path)?;
                check_keys(ff, &["time_ns", "switch", "action"], &path)?;
                let action = str_of(req(ff, "action", &path)?, &format!("{path}.action"))?;
                let kind = match action {
                    "fail" => FailureKind::Fail,
                    "recover" => FailureKind::Recover,
                    other => {
                        return Err(ScenarioError::schema(
                            &format!("{path}.action"),
                            format!("unknown action `{other}` (expected `fail` or `recover`)"),
                        ))
                    }
                };
                let time_ns = u64_of(req(ff, "time_ns", &path)?, &format!("{path}.time_ns"))?;
                if time_ns == 0 {
                    return Err(ScenarioError::schema(
                        &format!("{path}.time_ns"),
                        "failure actions must be scheduled at time >= 1 ns \
                         (use `init` for time-zero state)",
                    ));
                }
                failures.push(FailureAction {
                    time_ns,
                    switch: u64_of(req(ff, "switch", &path)?, &format!("{path}.switch"))?,
                    kind,
                });
            }
        }

        let mut expect = Expectations::default();
        if let Some(exp) = get(fields, "expect") {
            let xf = obj(exp, "$.expect")?;
            check_keys(
                xf,
                &["arrays", "handled", "dropped", "exported", "per_event"],
                "$.expect",
            )?;
            if let Some(j) = get(xf, "handled") {
                expect.handled = Some(u64_of(j, "$.expect.handled")?);
            }
            if let Some(j) = get(xf, "dropped") {
                expect.dropped = Some(u64_of(j, "$.expect.dropped")?);
            }
            if let Some(j) = get(xf, "exported") {
                expect.exported = Some(u64_of(j, "$.expect.exported")?);
            }
            if let Some(pe) = get(xf, "per_event") {
                for (name, j) in obj(pe, "$.expect.per_event")? {
                    expect.per_event.push((
                        name.clone(),
                        u64_of(j, &format!("$.expect.per_event.{name}"))?,
                    ));
                }
            }
            if let Some(items) = get(xf, "arrays") {
                for (i, item) in arr(items, "$.expect.arrays")?.iter().enumerate() {
                    let path = format!("$.expect.arrays[{i}]");
                    let af = obj(item, &path)?;
                    check_keys(af, &["switch", "array", "index", "value", "values"], &path)?;
                    let switch = u64_of(req(af, "switch", &path)?, &format!("{path}.switch"))?;
                    let array =
                        str_of(req(af, "array", &path)?, &format!("{path}.array"))?.to_string();
                    let cell = match (get(af, "index"), get(af, "value")) {
                        (Some(i_), Some(v)) => Some((
                            u64_of(i_, &format!("{path}.index"))?,
                            u64_of(v, &format!("{path}.value"))?,
                        )),
                        (None, None) => None,
                        _ => {
                            return Err(ScenarioError::schema(
                                &path,
                                "`index` and `value` must be given together",
                            ))
                        }
                    };
                    let values = match get(af, "values") {
                        Some(list) => {
                            let mut vs = Vec::new();
                            for (k, v) in arr(list, &format!("{path}.values"))?.iter().enumerate() {
                                vs.push(u64_of(v, &format!("{path}.values[{k}]"))?);
                            }
                            Some(vs)
                        }
                        None => None,
                    };
                    if cell.is_none() && values.is_none() {
                        return Err(ScenarioError::schema(
                            &path,
                            "expected either `index`+`value` or `values`",
                        ));
                    }
                    expect.arrays.push(ArrayExpect {
                        switch,
                        array,
                        cell,
                        values,
                    });
                }
            }
        }

        let mut metrics = Vec::new();
        if let Some(m) = get(fields, "metrics") {
            let mf = obj(m, "$.metrics")?;
            check_keys(mf, &["expect"], "$.metrics")?;
            if let Some(items) = get(mf, "expect") {
                for (i, item) in arr(items, "$.metrics.expect")?.iter().enumerate() {
                    let path = format!("$.metrics.expect[{i}]");
                    let xf = obj(item, &path)?;
                    check_keys(xf, &["event", "switch", "metric", "op", "value"], &path)?;
                    let event = str_of(req(xf, "event", &path)?, &format!("{path}.event"))?;
                    let switch = match get(xf, "switch") {
                        Some(j) => Some(u64_of(j, &format!("{path}.switch"))?),
                        None => None,
                    };
                    let sel = str_of(req(xf, "metric", &path)?, &format!("{path}.metric"))?;
                    let Some(metric) = MetricSel::parse(sel) else {
                        return Err(ScenarioError::schema(
                            &format!("{path}.metric"),
                            format!(
                                "unknown metric `{sel}` (expected one of {})",
                                MetricSel::all_labels().join(", ")
                            ),
                        ));
                    };
                    let op_s = str_of(req(xf, "op", &path)?, &format!("{path}.op"))?;
                    let Some(op) = CmpOp::parse(op_s) else {
                        return Err(ScenarioError::schema(
                            &format!("{path}.op"),
                            format!("unknown operator `{op_s}` (expected <, <=, >, >=, ==, !=)"),
                        ));
                    };
                    metrics.push(MetricExpect {
                        event: event.to_string(),
                        switch,
                        metric,
                        op,
                        value: u64_of(req(xf, "value", &path)?, &format!("{path}.value"))?,
                    });
                }
            }
        }

        Ok(Scenario {
            name,
            description,
            switches,
            link_latency_ns,
            recirc_latency_ns,
            engine,
            exec,
            opt,
            max_events,
            max_time_ns,
            seed,
            init,
            events,
            generators,
            failures,
            expect,
            metrics,
        })
    }

    /// Parse a standalone generator-spec document (`lucidc sim --gen`):
    /// either one generator object or an array of them, using the same
    /// schema as the scenario's `generators` section.
    pub fn parse_generators(src: &str) -> Result<Vec<GenSpec>, ScenarioError> {
        let doc = json::parse(src)?;
        match &doc {
            json::Json::Arr(_) => generators_of(&doc, "$"),
            json::Json::Obj(_) => Ok(vec![generator_of(&doc, "$", 0)?]),
            other => Err(ScenarioError::schema(
                "$",
                format!(
                    "expected a generator object or an array of them, found {}",
                    other.kind()
                ),
            )),
        }
    }

    /// Resolve the scenario against a checked program: every event name,
    /// arity, array name, switch id, array index, and initial cell value
    /// must fit.
    pub fn validate(&self, prog: &CheckedProgram) -> Result<(), ScenarioError> {
        let known_switch = |s: u64| self.switches.contains(&s);
        let array_len = |name: &str| -> Option<u64> {
            prog.info
                .globals_by_name
                .get(name)
                .map(|gid| prog.info.globals[gid.0].len)
        };

        for (i, p) in self.init.iter().enumerate() {
            let path = format!("$.init[{i}]");
            if !known_switch(p.switch) {
                return Err(ScenarioError::validate(
                    &format!("{path}.switch"),
                    format!("switch {} is not in the topology", p.switch),
                ));
            }
            let Some(len) = array_len(&p.array) else {
                return Err(ScenarioError::validate(
                    &format!("{path}.array"),
                    format!("no global array named `{}`", p.array),
                ));
            };
            if p.index >= len {
                return Err(ScenarioError::validate(
                    &format!("{path}.index"),
                    format!(
                        "index {} out of range for `{}` (len {len})",
                        p.index, p.array
                    ),
                ));
            }
            // An oversized value used to be masked silently on write,
            // leaving the author none the wiser that their initial state
            // was not what they asked for.
            let width = prog.info.globals[prog.info.globals_by_name[&p.array].0].cell_width;
            if mask(p.value, width) != p.value {
                return Err(ScenarioError::validate(
                    &format!("{path}.value"),
                    format!(
                        "value {} does not fit `{}`'s {width}-bit cells \
                         (max {})",
                        p.value,
                        p.array,
                        mask(u64::MAX, width)
                    ),
                ));
            }
        }

        for (i, g) in self.generators.iter().enumerate() {
            let path = format!("$.generators[{i}]");
            let Some(ev) = prog.info.event(&g.event) else {
                return Err(ScenarioError::validate(
                    &format!("{path}.event"),
                    format!("no event named `{}`", g.event),
                ));
            };
            if ev.params.len() != g.args.len() {
                return Err(ScenarioError::validate(
                    &format!("{path}.args"),
                    format!(
                        "event `{}` wants {} args, got {}",
                        g.event,
                        ev.params.len(),
                        g.args.len()
                    ),
                ));
            }
            for (k, s) in g.switches.iter().enumerate() {
                if !known_switch(*s) {
                    let field = if g.switches.len() == 1 {
                        format!("{path}.switch")
                    } else {
                        format!("{path}.switches[{k}]")
                    };
                    return Err(ScenarioError::validate(
                        &field,
                        format!("switch {s} is not in the topology"),
                    ));
                }
            }
        }

        for (i, inj) in self.events.iter().enumerate() {
            let path = format!("$.events[{i}]");
            if !known_switch(inj.switch) {
                return Err(ScenarioError::validate(
                    &format!("{path}.switch"),
                    format!("switch {} is not in the topology", inj.switch),
                ));
            }
            let Some(ev) = prog.info.event(&inj.event) else {
                return Err(ScenarioError::validate(
                    &format!("{path}.event"),
                    format!("no event named `{}`", inj.event),
                ));
            };
            if ev.params.len() != inj.args.len() {
                return Err(ScenarioError::validate(
                    &format!("{path}.args"),
                    format!(
                        "event `{}` wants {} args, got {}",
                        inj.event,
                        ev.params.len(),
                        inj.args.len()
                    ),
                ));
            }
        }

        for (i, f) in self.failures.iter().enumerate() {
            if !known_switch(f.switch) {
                return Err(ScenarioError::validate(
                    &format!("$.failures[{i}].switch"),
                    format!("switch {} is not in the topology", f.switch),
                ));
            }
        }

        for (i, x) in self.expect.arrays.iter().enumerate() {
            let path = format!("$.expect.arrays[{i}]");
            if !known_switch(x.switch) {
                return Err(ScenarioError::validate(
                    &format!("{path}.switch"),
                    format!("switch {} is not in the topology", x.switch),
                ));
            }
            let Some(len) = array_len(&x.array) else {
                return Err(ScenarioError::validate(
                    &format!("{path}.array"),
                    format!("no global array named `{}`", x.array),
                ));
            };
            if let Some((idx, _)) = x.cell {
                if idx >= len {
                    return Err(ScenarioError::validate(
                        &format!("{path}.index"),
                        format!("index {idx} out of range for `{}` (len {len})", x.array),
                    ));
                }
            }
            if let Some(vs) = &x.values {
                if vs.len() as u64 != len {
                    return Err(ScenarioError::validate(
                        &format!("{path}.values"),
                        format!(
                            "`{}` has {len} cells but {} values were given",
                            x.array,
                            vs.len()
                        ),
                    ));
                }
            }
        }

        for (name, _) in &self.expect.per_event {
            if prog.info.event(name).is_none() {
                return Err(ScenarioError::validate(
                    &format!("$.expect.per_event.{name}"),
                    format!("no event named `{name}`"),
                ));
            }
        }

        for (i, m) in self.metrics.iter().enumerate() {
            let path = format!("$.metrics.expect[{i}]");
            if prog.info.event(&m.event).is_none() {
                return Err(ScenarioError::validate(
                    &format!("{path}.event"),
                    format!("no event named `{}`", m.event),
                ));
            }
            if let Some(s) = m.switch {
                if !known_switch(s) {
                    return Err(ScenarioError::validate(
                        &format!("{path}.switch"),
                        format!("switch {s} is not in the topology"),
                    ));
                }
            }
        }

        Ok(())
    }
}

// ----------------------------------------------------------------- report

/// One failed expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// A final array cell differed.
    Array {
        switch: u64,
        array: String,
        index: u64,
        want: u64,
        got: u64,
    },
    /// An expected array sits on a switch that ended the run failed.
    FailedSwitch { switch: u64, array: String },
    /// An event-count expectation differed (`what` is `handled`,
    /// `dropped`, `exported`, or `event:<name>`).
    Count { what: String, want: u64, got: u64 },
    /// A `$.metrics.expect` assertion failed. `class` is `event@switch`
    /// or just `event` for all-switch aggregates; `metric` is the
    /// selector's canonical name; `op`/`want` restate the assertion.
    Metric {
        class: String,
        metric: &'static str,
        op: &'static str,
        want: u64,
        got: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Array {
                switch,
                array,
                index,
                want,
                got,
            } => write!(
                f,
                "switch {switch} `{array}[{index}]`: expected {want}, got {got}"
            ),
            Mismatch::FailedSwitch { switch, array } => write!(
                f,
                "switch {switch} `{array}`: switch ended the run failed; its arrays are gone"
            ),
            Mismatch::Count { what, want, got } => {
                write!(f, "{what}: expected {want}, got {got}")
            }
            Mismatch::Metric {
                class,
                metric,
                op,
                want,
                got,
            } => write!(
                f,
                "metrics `{class}` {metric}: expected {op} {want}, got {got}"
            ),
        }
    }
}

impl Mismatch {
    pub fn to_json(&self) -> String {
        match self {
            Mismatch::Array {
                switch,
                array,
                index,
                want,
                got,
            } => format!(
                "{{\"kind\":\"array\",\"switch\":{switch},\"array\":\"{}\",\
                 \"index\":{index},\"want\":{want},\"got\":{got}}}",
                json_escape(array)
            ),
            Mismatch::FailedSwitch { switch, array } => format!(
                "{{\"kind\":\"failed_switch\",\"switch\":{switch},\"array\":\"{}\"}}",
                json_escape(array)
            ),
            Mismatch::Count { what, want, got } => format!(
                "{{\"kind\":\"count\",\"what\":\"{}\",\"want\":{want},\"got\":{got}}}",
                json_escape(what)
            ),
            Mismatch::Metric {
                class,
                metric,
                op,
                want,
                got,
            } => format!(
                "{{\"kind\":\"metric\",\"class\":\"{}\",\"metric\":\"{metric}\",\
                 \"op\":\"{}\",\"want\":{want},\"got\":{got}}}",
                json_escape(class),
                json_escape(op)
            ),
        }
    }
}

/// The outcome of one scenario run: statistics, timings, and every failed
/// expectation.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub scenario: String,
    pub engine: &'static str,
    /// Which executor ran handler bodies (`ast` or `bytecode`).
    pub exec: &'static str,
    /// The bytecode optimization level the run used (`"0"`/`"1"`/`"2"`;
    /// reported even under the AST walker, which ignores it).
    pub opt: &'static str,
    pub switches: usize,
    pub stats: Stats,
    /// Final virtual clock, nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock run time, milliseconds.
    pub wall_ms: f64,
    /// Processed events per wall-clock second.
    pub events_per_sec: f64,
    /// FNV-1a digest of every switch's final array state, in switch and
    /// declaration order (failed switches hash as a marker). Two runs of
    /// one scenario agree on this exactly when their final states are
    /// byte-identical — the cheap cross-engine determinism check.
    pub state_digest: u64,
    /// Per-generator injection counts, in declaration order (empty when
    /// the scenario has no `generators` section).
    pub gens: Vec<(String, u64)>,
    /// Per-event-class latency metrics (dispatch latency and queue
    /// residency histograms with tail percentiles). Deterministic and
    /// engine-independent like `state_digest`.
    pub metrics: Metrics,
    pub mismatches: Vec<Mismatch>,
}

impl SimReport {
    /// True when every expectation held.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The machine-readable form `lucidc sim --json` prints.
    pub fn to_json(&self) -> String {
        let mm: Vec<String> = self.mismatches.iter().map(Mismatch::to_json).collect();
        let gens: Vec<String> = self
            .gens
            .iter()
            .map(|(name, n)| format!("{{\"name\":\"{}\",\"injected\":{n}}}", json_escape(name)))
            .collect();
        format!(
            "{{\"scenario\":\"{}\",\"engine\":\"{}\",\"exec\":\"{}\",\"opt\":{},\"switches\":{},\
             \"events_processed\":{},\"events_handled\":{},\"recirculated\":{},\
             \"sent_remote\":{},\"exported\":{},\"dropped\":{},\
             \"sim_ns\":{},\"wall_ms\":{:.3},\"events_per_sec\":{:.0},\
             \"state_digest\":\"{:016x}\",\"metrics\":{},\"generators\":[{}],\
             \"ok\":{},\"mismatches\":[{}]}}",
            json_escape(&self.scenario),
            self.engine,
            self.exec,
            self.opt,
            self.switches,
            self.stats.processed,
            self.stats.handled,
            self.stats.recirculated,
            self.stats.sent_remote,
            self.stats.exported,
            self.stats.dropped,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
            self.state_digest,
            self.metrics.to_json(),
            gens.join(","),
            self.passed(),
            mm.join(",")
        )
    }

    /// Human-readable summary (the default `lucidc sim` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario `{}`: {} switches, {} engine, {} exec (opt {})\n\
             events: {} processed ({} handled, {} recirculated, {} remote, \
             {} exported, {} dropped)\n\
             time:   {} sim-ns in {:.3} wall-ms ({:.0} events/sec)\n",
            self.scenario,
            self.switches,
            self.engine,
            self.exec,
            self.opt,
            self.stats.processed,
            self.stats.handled,
            self.stats.recirculated,
            self.stats.sent_remote,
            self.stats.exported,
            self.stats.dropped,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
        );
        if !self.gens.is_empty() {
            let parts: Vec<String> = self
                .gens
                .iter()
                .map(|(name, n)| format!("{name}={n}"))
                .collect();
            out.push_str(&format!("generators: {}\n", parts.join(", ")));
        }
        if self.passed() {
            out.push_str("expectations: all met\n");
        } else {
            out.push_str(&format!("expectations: {} FAILED\n", self.mismatches.len()));
            for m in &self.mismatches {
                out.push_str(&format!("  mismatch: {m}\n"));
            }
        }
        out
    }
}

// ----------------------------------------------------------------- runner

/// Run-time knobs layered over a scenario's own choices (`lucidc sim
/// --engine/--exec/--opt/--workers/--seed/--events/--no-trace`).
/// [`Default`] overrides nothing; the builder methods set one knob each
/// and chain:
///
/// ```
/// use lucid_interp::{Engine, SimOptions};
/// let opts = SimOptions::new().engine(Engine::Sequential).seed(7).record_trace(false);
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
    /// `Some(false)` disables trace retention for the run: handled and
    /// exported events are not logged (stats, per-event counts, metrics,
    /// `printf` output, and the state digest are unchanged). Benchmarks
    /// use it so wall-clock rows don't pay for a log nobody reads; the
    /// report drops the trace regardless.
    pub record_trace: Option<bool>,
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
        self.record_trace = Some(on);
        self
    }

    /// Resolve the effective network configuration for `sc`: the
    /// scenario's choices, overridden knob by knob, with `workers`
    /// folded into the engine last.
    pub(crate) fn resolve(&self, sc: &Scenario) -> NetConfig {
        let mut cfg = sc.net_config(self.engine, self.exec, self.opt);
        if let Some(w) = self.workers {
            cfg.engine = match cfg.engine {
                Engine::Sharded { epoch_ns, .. } => Engine::Sharded {
                    workers: w,
                    epoch_ns,
                },
                Engine::Sequential => Engine::Sharded {
                    workers: w,
                    epoch_ns: 0,
                },
            };
        }
        cfg
    }
}

/// Validate and execute a scenario against a checked program. The engine
/// and executor can be overridden (CLI `--engine` / `--exec`); otherwise
/// the scenario's own choices run. Expectation failures are *not* errors
/// — they come back in [`SimReport::mismatches`] so the caller can render
/// all of them.
pub fn run_scenario(
    prog: &CheckedProgram,
    sc: &Scenario,
    engine_override: Option<Engine>,
    exec_override: Option<ExecMode>,
) -> Result<SimReport, SimRunError> {
    run_scenario_with(
        prog,
        sc,
        &SimOptions {
            engine: engine_override,
            exec: exec_override,
            ..SimOptions::default()
        },
    )
}

/// [`run_scenario`] with the full option set, including the workload
/// knobs (`--seed`, `--events`). One-shot runs are a served session
/// opened and drained in one breath — [`crate::session::SimSession`] is
/// the single execution path, which is what makes a served world
/// bit-identical to this function by construction.
pub fn run_scenario_with(
    prog: &CheckedProgram,
    sc: &Scenario,
    ov: &SimOptions,
) -> Result<SimReport, SimRunError> {
    let mut session = crate::session::SimSession::open(prog, sc, ov)?;
    session.drain()
}

/// FNV-1a over every configured switch's final arrays. Sorted switch
/// order and declaration order make it engine-independent.
pub(crate) fn digest_state(prog: &CheckedProgram, sim: &Interp, switches: &[u64]) -> u64 {
    let mut sorted = switches.to_vec();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for i in 0..8 {
            h ^= (x >> (8 * i)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for s in sorted {
        mix(s);
        if !sim.alive(s) {
            mix(u64::MAX); // failed switch marker
            continue;
        }
        for g in &prog.info.globals {
            for &cell in sim.try_array(s, &g.name).expect("alive switch") {
                mix(cell);
            }
        }
    }
    h
}

pub(crate) fn check_expectations(sim: &Interp, expect: &Expectations, out: &mut Vec<Mismatch>) {
    for x in &expect.arrays {
        let Some(actual) = sim.try_array(x.switch, &x.array) else {
            out.push(Mismatch::FailedSwitch {
                switch: x.switch,
                array: x.array.clone(),
            });
            continue;
        };
        if let Some((idx, want)) = x.cell {
            let got = actual[idx as usize];
            if got != want {
                out.push(Mismatch::Array {
                    switch: x.switch,
                    array: x.array.clone(),
                    index: idx,
                    want,
                    got,
                });
            }
        }
        if let Some(want_all) = &x.values {
            for (idx, (&want, &got)) in want_all.iter().zip(actual.iter()).enumerate() {
                if want != got {
                    out.push(Mismatch::Array {
                        switch: x.switch,
                        array: x.array.clone(),
                        index: idx as u64,
                        want,
                        got,
                    });
                }
            }
        }
    }
    let mut count = |what: &str, want: Option<u64>, got: u64| {
        if let Some(want) = want {
            if want != got {
                out.push(Mismatch::Count {
                    what: what.to_string(),
                    want,
                    got,
                });
            }
        }
    };
    count("handled", expect.handled, sim.stats.handled);
    count("dropped", expect.dropped, sim.stats.dropped);
    count("exported", expect.exported, sim.stats.exported);
    for (name, want) in &expect.per_event {
        let got = sim.stats.per_event.get(name).copied().unwrap_or(0);
        count(&format!("event:{name}"), Some(*want), got);
    }
}

/// Evaluate every `$.metrics.expect` assertion against the run's merged
/// metrics. A class that never dispatched reads as an empty histogram
/// pair (count 0, every percentile 0), so "count >= N" naturally fails
/// and "latency < K" trivially holds on silence — assert `count` too
/// when silence would be a bug.
pub(crate) fn check_metric_expectations(
    metrics: &Metrics,
    expect: &[MetricExpect],
    out: &mut Vec<Mismatch>,
) {
    for m in expect {
        let hists = match m.switch {
            Some(s) => metrics.class(s, &m.event).map(|c| c.hists.clone()),
            None => metrics.aggregate_event(&m.event),
        }
        .unwrap_or_default();
        let got = m.metric.read(&hists);
        if !m.op.holds(got, m.value) {
            let class = match m.switch {
                Some(s) => format!("{}@{s}", m.event),
                None => m.event.clone(),
            };
            out.push(Mismatch::Metric {
                class,
                metric: m.metric.label(),
                op: m.op.label(),
                want: m.value,
                got,
            });
        }
    }
}

/// Escape a string's content for embedding inside a JSON string literal
/// (surrounding quotes not included): the front end's table, which every
/// hand-built JSON emitter in the workspace shares.
pub fn json_escape(s: &str) -> String {
    lucid_frontend::diag::json_escape(s)
}

// ------------------------------------------------------ generator schema

/// Parse a scenario `events` array (shared with the serve `ingest` verb,
/// whose batches use the same shape).
pub(crate) fn injections_of(j: &json::Json, path: &str) -> Result<Vec<Injection>, ScenarioError> {
    let mut events = Vec::new();
    for (i, item) in arr(j, path)?.iter().enumerate() {
        let path = format!("{path}[{i}]");
        let ef = obj(item, &path)?;
        check_keys(ef, &["time_ns", "switch", "event", "args"], &path)?;
        let mut args = Vec::new();
        if let Some(list) = get(ef, "args") {
            for (k, a) in arr(list, &format!("{path}.args"))?.iter().enumerate() {
                args.push(u64_of(a, &format!("{path}.args[{k}]"))?);
            }
        }
        events.push(Injection {
            time_ns: u64_of(req(ef, "time_ns", &path)?, &format!("{path}.time_ns"))?,
            switch: u64_of(req(ef, "switch", &path)?, &format!("{path}.switch"))?,
            event: str_of(req(ef, "event", &path)?, &format!("{path}.event"))?.to_string(),
            args,
        });
    }
    Ok(events)
}

pub(crate) fn generators_of(j: &json::Json, path: &str) -> Result<Vec<GenSpec>, ScenarioError> {
    let items = arr(j, path)?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(generator_of(item, &format!("{path}[{i}]"), i)?);
    }
    // Names key the per-generator report rows; duplicates would merge.
    for (i, g) in out.iter().enumerate() {
        if out[..i].iter().any(|h| h.name == g.name) {
            return Err(ScenarioError::schema(
                &format!("{path}[{i}].name"),
                format!("duplicate generator name `{}`", g.name),
            ));
        }
    }
    Ok(out)
}

/// A required rate expressed either way: `rate_eps` (events per virtual
/// second) or a raw `interval_ns` gap.
fn interval_of(fields: &[(String, json::Json)], path: &str) -> Result<u64, ScenarioError> {
    match (get(fields, "rate_eps"), get(fields, "interval_ns")) {
        (Some(_), Some(_)) => Err(ScenarioError::schema(
            path,
            "give either `rate_eps` or `interval_ns`, not both",
        )),
        (Some(r), None) => {
            let rate = u64_of(r, &format!("{path}.rate_eps"))?;
            if rate == 0 {
                return Err(ScenarioError::schema(
                    &format!("{path}.rate_eps"),
                    "rate must be at least 1 event per second",
                ));
            }
            Ok((1_000_000_000 / rate).max(1))
        }
        (None, Some(iv)) => {
            let iv = u64_of(iv, &format!("{path}.interval_ns"))?;
            if iv == 0 {
                return Err(ScenarioError::schema(
                    &format!("{path}.interval_ns"),
                    "the inter-arrival interval must be at least 1 ns",
                ));
            }
            Ok(iv)
        }
        (None, None) => Err(ScenarioError::schema(
            path,
            "missing rate: give `rate_eps` or `interval_ns`",
        )),
    }
}

fn generator_of(j: &json::Json, path: &str, index: usize) -> Result<GenSpec, ScenarioError> {
    let gf = obj(j, path)?;
    check_keys(
        gf,
        &[
            "name",
            "event",
            "switch",
            "switches",
            "rate_eps",
            "interval_ns",
            "jitter_ns",
            "start_ns",
            "stop_ns",
            "count",
            "seed",
            "args",
            "phases",
        ],
        path,
    )?;
    let name = match get(gf, "name") {
        Some(n) => str_of(n, &format!("{path}.name"))?.to_string(),
        None => format!("gen{index}"),
    };
    let event = str_of(req(gf, "event", path)?, &format!("{path}.event"))?.to_string();
    let switches = match (get(gf, "switch"), get(gf, "switches")) {
        (Some(_), Some(_)) => {
            return Err(ScenarioError::schema(
                path,
                "give either `switch` or `switches`, not both",
            ))
        }
        (Some(s), None) => vec![u64_of(s, &format!("{path}.switch"))?],
        (None, Some(list)) => {
            let spath = format!("{path}.switches");
            let items = arr(list, &spath)?;
            if items.is_empty() {
                return Err(ScenarioError::schema(&spath, "needs at least one switch"));
            }
            let mut ids = Vec::with_capacity(items.len());
            for (k, s) in items.iter().enumerate() {
                ids.push(u64_of(s, &format!("{spath}[{k}]"))?);
            }
            ids
        }
        (None, None) => vec![1],
    };
    let interval_ns = interval_of(gf, path)?;
    let jitter_ns = match get(gf, "jitter_ns") {
        Some(v) => u64_of(v, &format!("{path}.jitter_ns"))?,
        None => 0,
    };
    let start_ns = match get(gf, "start_ns") {
        Some(v) => u64_of(v, &format!("{path}.start_ns"))?,
        None => 0,
    };
    let stop_ns = get(gf, "stop_ns")
        .map(|v| u64_of(v, &format!("{path}.stop_ns")))
        .transpose()?;
    let count = get(gf, "count")
        .map(|v| u64_of(v, &format!("{path}.count")))
        .transpose()?;
    if stop_ns.is_none() && count.is_none() {
        return Err(ScenarioError::schema(
            path,
            "the generator is unbounded: give `count`, `stop_ns`, or both",
        ));
    }
    if let Some(stop) = stop_ns {
        if stop < start_ns {
            return Err(ScenarioError::schema(
                &format!("{path}.stop_ns"),
                format!("stop ({stop}) precedes start ({start_ns})"),
            ));
        }
    }
    let seed = match get(gf, "seed") {
        Some(v) => u64_of(v, &format!("{path}.seed"))?,
        None => index as u64,
    };
    let mut args = Vec::new();
    if let Some(list) = get(gf, "args") {
        for (k, a) in arr(list, &format!("{path}.args"))?.iter().enumerate() {
            args.push(arg_dist_of(a, &format!("{path}.args[{k}]"))?);
        }
    }
    let mut phases = Vec::new();
    if let Some(list) = get(gf, "phases") {
        for (k, p) in arr(list, &format!("{path}.phases"))?.iter().enumerate() {
            let ppath = format!("{path}.phases[{k}]");
            let pf = obj(p, &ppath)?;
            check_keys(pf, &["at_ns", "rate_eps", "interval_ns"], &ppath)?;
            let at_ns = u64_of(req(pf, "at_ns", &ppath)?, &format!("{ppath}.at_ns"))?;
            let interval_ns = interval_of(pf, &ppath)?;
            phases.push(Phase { at_ns, interval_ns });
        }
        for w in phases.windows(2) {
            if w[1].at_ns <= w[0].at_ns {
                return Err(ScenarioError::schema(
                    &format!("{path}.phases"),
                    "phases must be strictly increasing in `at_ns`",
                ));
            }
        }
    }
    Ok(GenSpec {
        name,
        event,
        switches,
        interval_ns,
        jitter_ns,
        start_ns,
        stop_ns,
        count,
        seed,
        args,
        phases,
    })
}

fn arg_dist_of(j: &json::Json, path: &str) -> Result<ArgDist, ScenarioError> {
    match j {
        json::Json::Num(_) => Ok(ArgDist::Const(u64_of(j, path)?)),
        json::Json::Obj(fields) => {
            check_keys(fields, &["const", "uniform", "zipf", "seq"], path)?;
            if fields.len() != 1 {
                return Err(ScenarioError::schema(
                    path,
                    "an argument distribution is exactly one of \
                     `const`, `uniform`, `zipf`, or `seq`",
                ));
            }
            let (kind, body) = &fields[0];
            match kind.as_str() {
                "const" => Ok(ArgDist::Const(u64_of(body, &format!("{path}.const"))?)),
                "uniform" => {
                    let upath = format!("{path}.uniform");
                    let (lo, hi) = match body {
                        // Compact form: "uniform": [lo, hi].
                        json::Json::Arr(items) if items.len() == 2 => (
                            u64_of(&items[0], &format!("{upath}[0]"))?,
                            u64_of(&items[1], &format!("{upath}[1]"))?,
                        ),
                        json::Json::Obj(uf) => {
                            check_keys(uf, &["lo", "hi"], &upath)?;
                            (
                                u64_of(req(uf, "lo", &upath)?, &format!("{upath}.lo"))?,
                                u64_of(req(uf, "hi", &upath)?, &format!("{upath}.hi"))?,
                            )
                        }
                        _ => {
                            return Err(ScenarioError::schema(
                                &upath,
                                "expected {lo, hi} or a two-element array",
                            ))
                        }
                    };
                    if lo > hi {
                        return Err(ScenarioError::schema(
                            &upath,
                            format!("empty range: lo ({lo}) > hi ({hi})"),
                        ));
                    }
                    Ok(ArgDist::Uniform { lo, hi })
                }
                "zipf" => {
                    let zpath = format!("{path}.zipf");
                    let zf = obj(body, &zpath)?;
                    check_keys(zf, &["n", "s"], &zpath)?;
                    let n = u64_of(req(zf, "n", &zpath)?, &format!("{zpath}.n"))?;
                    if n == 0 {
                        return Err(ScenarioError::schema(
                            &format!("{zpath}.n"),
                            "zipf needs at least one key",
                        ));
                    }
                    let s = match get(zf, "s") {
                        Some(v) => f64_of(v, &format!("{zpath}.s"))?,
                        None => 1.0,
                    };
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(ScenarioError::schema(
                            &format!("{zpath}.s"),
                            format!("the exponent must be positive and finite, got {s}"),
                        ));
                    }
                    Ok(ArgDist::Zipf { n, s })
                }
                "seq" => {
                    let n = u64_of(body, &format!("{path}.seq"))?;
                    if n == 0 {
                        return Err(ScenarioError::schema(
                            &format!("{path}.seq"),
                            "seq needs a nonzero modulus",
                        ));
                    }
                    Ok(ArgDist::Seq { n })
                }
                _ => unreachable!("check_keys filtered"),
            }
        }
        other => Err(ScenarioError::schema(
            path,
            format!(
                "expected a constant or a distribution object, found {}",
                other.kind()
            ),
        )),
    }
}

// -------------------------------------------------------- JSON accessors

pub(crate) fn obj<'a>(
    j: &'a json::Json,
    path: &str,
) -> Result<&'a [(String, json::Json)], ScenarioError> {
    match j {
        json::Json::Obj(fields) => Ok(fields),
        other => Err(ScenarioError::schema(
            path,
            format!("expected an object, found {}", other.kind()),
        )),
    }
}

pub(crate) fn arr<'a>(j: &'a json::Json, path: &str) -> Result<&'a [json::Json], ScenarioError> {
    match j {
        json::Json::Arr(items) => Ok(items),
        other => Err(ScenarioError::schema(
            path,
            format!("expected an array, found {}", other.kind()),
        )),
    }
}

pub(crate) fn get<'a>(fields: &'a [(String, json::Json)], key: &str) -> Option<&'a json::Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn req<'a>(
    fields: &'a [(String, json::Json)],
    key: &str,
    path: &str,
) -> Result<&'a json::Json, ScenarioError> {
    get(fields, key)
        .ok_or_else(|| ScenarioError::schema(path, format!("missing required field `{key}`")))
}

pub(crate) fn str_of<'a>(j: &'a json::Json, path: &str) -> Result<&'a str, ScenarioError> {
    match j {
        json::Json::Str(s) => Ok(s),
        other => Err(ScenarioError::schema(
            path,
            format!("expected a string, found {}", other.kind()),
        )),
    }
}

pub(crate) fn u64_of(j: &json::Json, path: &str) -> Result<u64, ScenarioError> {
    match j {
        json::Json::Num(n) => {
            if *n < 0.0 || n.fract() != 0.0 || *n > 9_007_199_254_740_992.0 {
                Err(ScenarioError::schema(
                    path,
                    format!("expected a non-negative integer, found {n}"),
                ))
            } else {
                Ok(*n as u64)
            }
        }
        other => Err(ScenarioError::schema(
            path,
            format!("expected a number, found {}", other.kind()),
        )),
    }
}

fn f64_of(j: &json::Json, path: &str) -> Result<f64, ScenarioError> {
    match j {
        json::Json::Num(n) => Ok(*n),
        other => Err(ScenarioError::schema(
            path,
            format!("expected a number, found {}", other.kind()),
        )),
    }
}

pub(crate) fn check_keys(
    fields: &[(String, json::Json)],
    allowed: &[&str],
    path: &str,
) -> Result<(), ScenarioError> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(ScenarioError::schema(
                path,
                format!(
                    "unknown field `{k}` (expected one of: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------------- mini-JSON

/// A minimal JSON reader. The workspace builds offline (no serde), and
/// scenarios only need objects/arrays/strings/numbers/bools, so a small
/// recursive-descent parser with line/column errors is all it takes.
pub mod json {
    use super::ScenarioError;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        /// Field order is preserved (useful for error paths).
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn kind(&self) -> &'static str {
            match self {
                Json::Null => "null",
                Json::Bool(_) => "a bool",
                Json::Num(_) => "a number",
                Json::Str(_) => "a string",
                Json::Arr(_) => "an array",
                Json::Obj(_) => "an object",
            }
        }
    }

    pub fn parse(src: &str) -> Result<Json, ScenarioError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: impl Into<String>) -> ScenarioError {
            let mut line = 1;
            let mut col = 1;
            for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
                if b == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            ScenarioError::Json {
                line,
                col,
                msg: msg.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ScenarioError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected `{}`", b as char)))
            }
        }

        fn value(&mut self) -> Result<Json, ScenarioError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, ScenarioError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err(format!("expected `{word}`")))
            }
        }

        fn object(&mut self) -> Result<Json, ScenarioError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(self.err("expected `,` or `}` in object")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, ScenarioError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected `,` or `]` in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ScenarioError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                if self.pos + 5 > self.bytes.len() {
                                    return Err(self.err("truncated \\u escape"));
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .ok()
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .ok_or_else(|| self.err("bad \\u escape"))?;
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(self.err("bad escape sequence")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is &str, so
                        // boundaries are valid).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        let c = rest.chars().next().expect("peeked");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, ScenarioError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        }
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
        let report = run_scenario(&p, &sc, None, None).unwrap();
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
        let report = run_scenario(&p, &sc, None, None).unwrap();
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
        let report = run_scenario(&p, &sc, None, None).unwrap();
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
        let seq = run_scenario(&p, &sc, None, None).unwrap();
        let sh = run_scenario(
            &p,
            &sc,
            Some(Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            }),
            None,
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
        let bc = run_scenario(&p, &sc, None, None).unwrap();
        assert_eq!(bc.exec, "bytecode");
        assert!(bc.passed(), "{:?}", bc.mismatches);
        assert!(bc.to_json().contains("\"exec\":\"bytecode\""));
        let ast = run_scenario(&p, &sc, None, Some(ExecMode::Ast)).unwrap();
        assert_eq!(ast.exec, "ast");
        assert_eq!(ast.state_digest, bc.state_digest);
        assert_eq!(ast.stats, bc.stats);

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
            r#"{"name": "o1", "exec": "bytecode", "opt": 1,
                "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [3]}]}"#,
        )
        .unwrap();
        assert_eq!(sc.opt, OptLevel::O1);
        assert_eq!(sc.net_config(None, None, None).opt, OptLevel::O1);
        let report = run_scenario(&prog(), &sc, None, None).unwrap();
        assert_eq!(report.opt, "1");
        assert!(
            report.to_json().contains("\"opt\":1"),
            "{}",
            report.to_json()
        );
        // The CLI override wins.
        let report = run_scenario_with(
            &prog(),
            &sc,
            &SimOptions {
                opt: Some(OptLevel::O0),
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.opt, "0");
        // Out-of-range and non-numeric levels are schema errors at $.opt.
        for bad in [r#"{"opt": 3}"#, r#"{"opt": "two"}"#] {
            let err = Scenario::from_json(bad).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Schema { path, .. } if path == "$.opt"),
                "{err:?}"
            );
        }
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
        let report = run_scenario(&p, &sc, None, None).unwrap();
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
        let baseline = run_scenario(&p, &sc, None, None).unwrap();
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
        let err = run_scenario(&p, &sc, None, None).unwrap_err();
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
