//! # lucid-core
//!
//! The umbrella crate for this Rust reproduction of *Lucid: A Language for
//! Control in the Data Plane* (SIGCOMM 2021). It re-exports the pipeline
//! stages and provides the staged driver API:
//!
//! * [`Compiler`] — a reusable configuration (target [`PipelineSpec`],
//!   [`LayoutOptions`], optimization toggle, [`CheckOptions`]);
//! * [`Build`] — a per-source compilation session with lazily computed,
//!   cached stage artifacts: [`ast`](Build::ast), [`checked`](Build::checked),
//!   [`handlers`](Build::handlers), [`layout`](Build::layout),
//!   [`p4`](Build::p4). Callers pay only for the stages they ask for, and
//!   can re-run the backend under a different target without re-parsing
//!   ([`reconfigure`](Build::reconfigure));
//! * structured diagnostics: every failure is a set of
//!   [`Diagnostic`]s with severity, stable
//!   code, and spans, rendered rustc-style
//!   ([`render_diagnostics`](Build::render_diagnostics)) or as JSON
//!   ([`diagnostics_json`](Build::diagnostics_json)) against the session's
//!   owned [`SourceMap`];
//! * [`Interp`] re-export — the event-driven network simulator (§3).
//!
//! ```
//! use lucid_core::Compiler;
//!
//! let mut build = Compiler::new().build("counter.lucid", r#"
//!     global cts = new Array<<32>>(64);
//!     memop plus(int m, int x) { return m + x; }
//!     event pkt(int idx);
//!     handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
//! "#);
//! let stages = build.layout().unwrap().total_stages;
//! assert!(stages <= 12);
//! assert!(build.p4().unwrap().source.contains("RegisterAction"));
//! ```
//!
//! Errors accumulate across declarations instead of stopping at the first:
//!
//! ```
//! use lucid_core::Compiler;
//!
//! let mut bad = Compiler::new().build("bad.lucid", r#"
//!     memop one(int m, int x) { return m * x; }
//!     memop two(int m, int x) { return x + x; }
//! "#);
//! assert!(bad.checked().is_err());
//! let diags = bad.diagnostics();
//! assert!(diags.error_count() >= 2);
//! assert!(bad.render_diagnostics().contains("error[E03"));
//! assert!(bad.diagnostics_json().starts_with('['));
//! ```

#![forbid(unsafe_code)]

pub use lucid_backend as backend;
pub use lucid_check as check;
pub use lucid_frontend as frontend;
pub use lucid_interp as interp;
pub use lucid_tofino as tofino;

pub use lucid_backend::{BackendOptions, Compiled, HandlerIr, Layout, LayoutOptions, P4Program};
pub use lucid_check::{Analysis, CheckOptions, CheckedProgram};
// Kept for `benchmark/`, which imports the escaper from this path.
pub use lucid_frontend::json::escape as json_escape;
pub use lucid_frontend::{Diagnostic, Diagnostics, Program, SourceMap};
pub use lucid_interp::{
    disassemble, disassemble_opt, handle_line, run_scenario, run_scenario_with, serve_lines,
    ArgDist, CheckHost, ClassHists, ClassMetrics, CmpOp, Engine, ErrorKind, EventSource, ExecMode,
    FaultAt, GenSpec, Histogram, Interp, InterpError, InterpFault, MetricExpect, MetricSel,
    Metrics, Mismatch, NetConfig, OptLevel, Outcome, Phase, ProgramHost, Scenario, ScenarioError,
    ServeError, ServeState, SessionStatus, SimOptions, SimReport, SimRunError, SimSession,
    SnapError, SourcedEvent, SwapStats, Violation, Workload,
};
pub use lucid_tofino::PipelineSpec;

use std::collections::BTreeMap;
use std::sync::Arc;

/// A reusable compiler configuration. `Compiler` is a builder: chain
/// [`target`](Compiler::target), [`layout`](Compiler::layout),
/// [`optimize`](Compiler::optimize), and
/// [`check_options`](Compiler::check_options), then call
/// [`build`](Compiler::build) once per source file to open a session.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    backend: BackendOptions,
    check: CheckOptions,
}

impl Compiler {
    /// Default configuration: the Tofino target, default layout options,
    /// optimizations on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile against `spec` instead of the default Tofino pipeline.
    pub fn target(mut self, spec: PipelineSpec) -> Self {
        self.backend.target = spec;
        self
    }

    /// Override the layout knobs (rearrangement, merge budget, dispatcher).
    pub fn layout(mut self, opts: LayoutOptions) -> Self {
        self.backend.layout = opts;
        self
    }

    /// Toggle the IR clean-up pass (copy propagation + dead-table
    /// elimination). On by default.
    pub fn optimize(mut self, on: bool) -> Self {
        self.backend.optimize = on;
        self
    }

    /// Override the semantic-analysis options.
    pub fn check_options(mut self, opts: CheckOptions) -> Self {
        self.check = opts;
        self
    }

    /// Open a compilation session for one source file. Nothing runs until
    /// a stage artifact is requested.
    pub fn build(&self, name: &str, src: &str) -> Build {
        Build {
            cfg: self.clone(),
            sm: SourceMap::new(name, src),
            stats: BuildStats::default(),
            warnings: Diagnostics::new(),
            ast: None,
            checked: None,
            checked_arc: None,
            lint: None,
            handlers: None,
            layout: None,
            p4: None,
        }
    }
}

/// How many times each stage actually ran in a [`Build`] session. Stage
/// artifacts are cached, so repeated accessor calls do not re-run earlier
/// stages; tests assert on these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    pub parse_runs: u32,
    pub check_runs: u32,
    pub lint_runs: u32,
    pub elaborate_runs: u32,
    pub layout_runs: u32,
    pub p4_runs: u32,
    pub interp_runs: u32,
    pub verify_runs: u32,
}

/// A per-source compilation session. Stage artifacts are computed on first
/// access and cached; an error in any stage is also cached and returned
/// from every later stage without recomputation.
///
/// The session owns the [`SourceMap`], so diagnostics from any stage render
/// against the original source without the caller re-supplying it.
pub struct Build {
    cfg: Compiler,
    sm: SourceMap,
    stats: BuildStats,
    /// Non-fatal diagnostics (warnings) accumulated by successful stages.
    warnings: Diagnostics,
    ast: Option<Result<Program, Diagnostics>>,
    checked: Option<Result<CheckedProgram, Diagnostics>>,
    /// Shared handle over the check artifact, created on first
    /// [`Build::checked_arc`] call. Long-lived simulation sessions hold
    /// the program this way; caching keeps every session and swap epoch
    /// of one build sharing a single allocation.
    checked_arc: Option<Arc<CheckedProgram>>,
    lint: Option<Result<Diagnostics, Diagnostics>>,
    handlers: Option<Result<Vec<HandlerIr>, Diagnostics>>,
    layout: Option<Result<Layout, Diagnostics>>,
    p4: Option<Result<P4Program, Diagnostics>>,
}

impl Build {
    /// The session's source map (file name + text + line index).
    pub fn source_map(&self) -> &SourceMap {
        &self.sm
    }

    /// The configuration this session compiles under.
    pub fn config(&self) -> &Compiler {
        &self.cfg
    }

    /// Per-stage execution counters (see [`BuildStats`]).
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Parse stage: the AST.
    pub fn ast(&mut self) -> Result<&Program, Diagnostics> {
        self.ensure_ast();
        as_result(self.ast.as_ref())
    }

    /// Semantic analysis stage: symbols, memop validation, and the ordered
    /// type-and-effect system, with diagnostics accumulated across
    /// declarations.
    pub fn checked(&mut self) -> Result<&CheckedProgram, Diagnostics> {
        self.ensure_checked();
        as_result(self.checked.as_ref())
    }

    /// The check artifact as a shared handle — the form long-lived
    /// simulation sessions hold. Cached: every call (and every session
    /// opened from this build) shares one allocation until
    /// [`Build::reconfigure`] invalidates the check stage.
    pub fn checked_arc(&mut self) -> Result<Arc<CheckedProgram>, Diagnostics> {
        self.ensure_checked();
        match self.checked.as_ref().expect("ensured") {
            Ok(p) => {
                if self.checked_arc.is_none() {
                    self.checked_arc = Some(Arc::new(p.clone()));
                }
                Ok(Arc::clone(self.checked_arc.as_ref().expect("just set")))
            }
            Err(ds) => Err(ds.clone()),
        }
    }

    /// Elaboration stage: per-handler atomic tables (optimized when the
    /// session's configuration says so).
    pub fn handlers(&mut self) -> Result<&[HandlerIr], Diagnostics> {
        self.ensure_handlers();
        as_result(self.handlers.as_ref()).map(Vec::as_slice)
    }

    /// Layout stage: table placement against the session's target.
    pub fn layout(&mut self) -> Result<&Layout, Diagnostics> {
        self.ensure_layout();
        as_result(self.layout.as_ref())
    }

    /// Code-generation stage: the P4_16 program.
    pub fn p4(&mut self) -> Result<&P4Program, Diagnostics> {
        self.ensure_p4();
        as_result(self.p4.as_ref())
    }

    /// Simulation stage: execute a [`Scenario`] in the interpreter against
    /// this session's checked program, under `opts` (engine, executor,
    /// opt level, workers, workload knobs — `SimOptions::default()`
    /// overrides nothing). Lazy like the other stages about its
    /// prerequisite — the first call pays for parse + check, later calls
    /// reuse the cached artifact — but each invocation runs the
    /// simulation afresh (a run is effectful, so its report is not
    /// cached). Runs counted in [`BuildStats::interp_runs`].
    pub fn interp(
        &mut self,
        scenario: &Scenario,
        opts: &SimOptions,
    ) -> Result<SimReport, SimError> {
        self.stats.interp_runs += 1;
        let prog = self.checked_arc().map_err(SimError::Diagnostics)?;
        let mut session = SimSession::open_arc(prog, scenario, opts).map_err(SimError::from)?;
        session.drain().map_err(SimError::from)
    }

    /// Compile this session's checked program to interpreter bytecode at
    /// the default optimization level and render the listing
    /// (`lucidc sim --dump-bytecode`).
    pub fn disassemble(&mut self) -> Result<String, Diagnostics> {
        self.disassemble_opt(OptLevel::default())
    }

    /// [`Build::disassemble`] at an explicit optimization level
    /// (`lucidc sim --opt=N --dump-bytecode`).
    pub fn disassemble_opt(&mut self, level: OptLevel) -> Result<String, Diagnostics> {
        self.checked()
            .map(|p| lucid_interp::disassemble_opt(p, level))
    }

    /// Lint stage: warning-severity `W05xx` diagnostics over the checked
    /// program (`lucidc check --lint`). Cached alongside the check
    /// artifact; `Err` means the program failed an earlier stage.
    pub fn lint(&mut self) -> Result<&Diagnostics, Diagnostics> {
        self.ensure_lint();
        as_result(self.lint.as_ref())
    }

    /// Compile this session's checked program to bytecode at `level` and
    /// run the bytecode verifier over every handler after every pass
    /// (`lucidc sim --verify-bytecode`). `Ok` carries the violation list
    /// (empty on a clean pipeline); `Err` means the program failed an
    /// earlier stage.
    pub fn verify_bytecode(&mut self, level: OptLevel) -> Result<Vec<Violation>, Diagnostics> {
        self.ensure_checked();
        let prog = match self.checked.as_ref().expect("ensured") {
            Ok(p) => p,
            Err(ds) => return Err(ds.clone()),
        };
        self.stats.verify_runs += 1;
        Ok(
            match lucid_interp::CompiledProg::compile_verified(prog, level) {
                Ok(_) => Vec::new(),
                Err(violations) => violations,
            },
        )
    }

    /// Swap in a different configuration, keeping every cache the new
    /// configuration cannot invalidate. The parse artifact always
    /// survives; the check artifact survives unless the check options
    /// changed; elaboration, layout, and P4 are recomputed on next access
    /// — this is how one session compiles the same (already-checked)
    /// program for several targets.
    pub fn reconfigure(&mut self, cfg: &Compiler) {
        if self.cfg.check != cfg.check {
            self.checked = None;
            self.checked_arc = None;
            self.lint = None;
            self.warnings = Diagnostics::new();
        }
        self.cfg = cfg.clone();
        self.handlers = None;
        self.layout = None;
        self.p4 = None;
    }

    /// Everything known about this session right now: warnings from
    /// successful stages plus the error set of the first failed stage (if
    /// any). Does not force any stage to run.
    pub fn diagnostics(&self) -> Diagnostics {
        // The checked-stage error set already contains the warnings that
        // analysis produced alongside the errors, so it stands alone.
        if let Some(Err(ds)) = &self.ast {
            return ds.clone();
        }
        if let Some(Err(ds)) = &self.checked {
            return ds.clone();
        }
        let mut out = self.warnings.clone();
        // A backend failure propagates through later stage caches as clones
        // of the same set, so only the first failed stage contributes.
        let backend_err = self
            .handlers
            .as_ref()
            .and_then(|r| r.as_ref().err())
            .or_else(|| self.layout.as_ref().and_then(|r| r.as_ref().err()))
            .or_else(|| self.p4.as_ref().and_then(|r| r.as_ref().err()));
        if let Some(ds) = backend_err {
            out.extend(ds.clone());
        }
        out
    }

    /// Render all current diagnostics rustc-style against the session's
    /// source map.
    pub fn render_diagnostics(&self) -> String {
        self.diagnostics().render(&self.sm)
    }

    /// Serialize all current diagnostics as a JSON array (for `lucidc
    /// --json-diagnostics`, editors, CI).
    pub fn diagnostics_json(&self) -> String {
        self.diagnostics().to_json(&self.sm)
    }

    /// Drive the whole pipeline and bundle owned artifacts (the shape the
    /// pre-session API returned). Prefer the borrowing accessors unless the
    /// artifacts must outlive the session.
    pub fn artifacts(&mut self) -> Result<Artifacts, Diagnostics> {
        self.ensure_p4();
        let checked = as_result(self.checked.as_ref())?.clone();
        let handlers = as_result(self.handlers.as_ref())?.clone();
        let layout = as_result(self.layout.as_ref())?.clone();
        let p4 = as_result(self.p4.as_ref())?.clone();
        Ok(Artifacts {
            checked,
            compiled: Compiled {
                handlers,
                layout,
                p4,
            },
        })
    }

    // ------------------------------------------------------ stage drivers

    fn ensure_ast(&mut self) {
        if self.ast.is_some() {
            return;
        }
        self.stats.parse_runs += 1;
        self.ast = Some(lucid_frontend::parse_program(&self.sm.src).map_err(|d| {
            let mut ds = Diagnostics::new();
            ds.push(d);
            ds
        }));
    }

    fn ensure_checked(&mut self) {
        if self.checked.is_some() {
            return;
        }
        self.ensure_ast();
        let result = match self.ast.as_ref().expect("ensured") {
            Err(ds) => Err(ds.clone()),
            Ok(program) => {
                self.stats.check_runs += 1;
                let analysis = lucid_check::analyze(program.clone(), &self.cfg.check);
                match analysis.program {
                    Some(p) => {
                        self.warnings.extend(analysis.diagnostics);
                        Ok(p)
                    }
                    None => Err(analysis.diagnostics),
                }
            }
        };
        self.checked = Some(result);
    }

    fn ensure_lint(&mut self) {
        if self.lint.is_some() {
            return;
        }
        self.ensure_checked();
        let result = match self.checked.as_ref().expect("ensured") {
            Err(ds) => Err(ds.clone()),
            Ok(prog) => {
                self.stats.lint_runs += 1;
                Ok(lucid_check::lint(prog))
            }
        };
        self.lint = Some(result);
    }

    fn ensure_handlers(&mut self) {
        if self.handlers.is_some() {
            return;
        }
        self.ensure_checked();
        let result = match self.checked.as_ref().expect("ensured") {
            Err(ds) => Err(ds.clone()),
            Ok(prog) => {
                self.stats.elaborate_runs += 1;
                lucid_backend::elaborate(prog).map(|mut handlers| {
                    if self.cfg.backend.optimize {
                        lucid_backend::optimize(&mut handlers);
                    }
                    handlers
                })
            }
        };
        self.handlers = Some(result);
    }

    fn ensure_layout(&mut self) {
        if self.layout.is_some() {
            return;
        }
        self.ensure_handlers();
        let result = match (self.checked.as_ref(), self.handlers.as_ref()) {
            (Some(Ok(prog)), Some(Ok(handlers))) => {
                self.stats.layout_runs += 1;
                lucid_backend::place(
                    prog,
                    handlers,
                    &self.cfg.backend.target,
                    self.cfg.backend.layout,
                )
            }
            (_, Some(Err(ds))) => Err(ds.clone()),
            _ => Err(self
                .checked
                .as_ref()
                .and_then(|r| r.as_ref().err().cloned())
                .unwrap_or_default()),
        };
        self.layout = Some(result);
    }

    fn ensure_p4(&mut self) {
        if self.p4.is_some() {
            return;
        }
        self.ensure_layout();
        let result = match (
            self.checked.as_ref(),
            self.handlers.as_ref(),
            self.layout.as_ref(),
        ) {
            (Some(Ok(prog)), Some(Ok(handlers)), Some(Ok(layout))) => {
                self.stats.p4_runs += 1;
                Ok(lucid_backend::generate(prog, handlers, layout))
            }
            (_, _, Some(Err(ds))) => Err(ds.clone()),
            _ => Err(self
                .layout
                .as_ref()
                .and_then(|r| r.as_ref().err().cloned())
                .unwrap_or_default()),
        };
        self.p4 = Some(result);
    }
}

fn as_result<T>(slot: Option<&Result<T, Diagnostics>>) -> Result<&T, Diagnostics> {
    match slot.expect("stage driver ran") {
        Ok(v) => Ok(v),
        Err(ds) => Err(ds.clone()),
    }
}

/// Why [`Build::interp`] failed outright (mismatched expectations are not
/// errors — they come back inside the [`SimReport`]).
#[derive(Debug, Clone)]
pub enum SimError {
    /// The program itself does not parse or check.
    Diagnostics(Diagnostics),
    /// The scenario does not fit the schema or the program.
    Scenario(ScenarioError),
    /// The simulation hit a runtime fault (out-of-bounds index, fuel).
    Runtime(InterpError),
    /// A world snapshot could not be taken or a restore was refused.
    Snapshot(String),
    /// A hot-swap was rejected; the session keeps its current program.
    Swap(String),
}

impl From<SimRunError> for SimError {
    fn from(e: SimRunError) -> Self {
        match e {
            SimRunError::Scenario(s) => SimError::Scenario(s),
            SimRunError::Runtime(r) => SimError::Runtime(r),
            SimRunError::Snapshot(m) => SimError::Snapshot(m),
            SimRunError::Swap(m) => SimError::Swap(m),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Diagnostics(ds) => {
                write!(f, "the program has {} diagnostics", ds.error_count())
            }
            SimError::Scenario(e) => write!(f, "{e}"),
            SimError::Runtime(e) => write!(f, "runtime fault: {e}"),
            SimError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            SimError::Swap(msg) => write!(f, "swap rejected: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Everything produced by a successful compile.
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub checked: CheckedProgram,
    pub compiled: Compiled,
}

/// A [`ProgramHost`] backed by [`Build`] sessions: the host `lucidc
/// serve` runs with. Each serve session owns one compilation session,
/// so diagnostics render against the session's own source and the parse
/// artifact survives across epochs — a hot-swap back to the same source
/// goes through [`Build::reconfigure`] and reuses the cached check
/// instead of re-parsing.
#[derive(Default)]
pub struct BuildHost {
    compiler: Compiler,
    builds: BTreeMap<u64, Build>,
}

impl BuildHost {
    /// A host compiling every session under `compiler`'s configuration.
    pub fn new(compiler: Compiler) -> BuildHost {
        BuildHost {
            compiler,
            builds: BTreeMap::new(),
        }
    }

    /// The compilation session behind a serve session, if open.
    pub fn build(&self, session: u64) -> Option<&Build> {
        self.builds.get(&session)
    }
}

impl ProgramHost for BuildHost {
    fn open_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        let mut build = self
            .compiler
            .build(&format!("session-{session}.lucid"), source);
        let prog = build
            .checked_arc()
            .map_err(|_| build.render_diagnostics())?;
        self.builds.insert(session, build);
        Ok(prog)
    }

    fn swap_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        if let Some(build) = self.builds.get_mut(&session) {
            if build.source_map().src == source {
                // A new epoch of the same source: re-elaborate through
                // `reconfigure` without re-parsing or re-checking.
                let cfg = build.config().clone();
                build.reconfigure(&cfg);
                return build.checked_arc().map_err(|_| build.render_diagnostics());
            }
        }
        let mut build = self
            .compiler
            .build(&format!("session-{session}.swap.lucid"), source);
        let prog = build
            .checked_arc()
            .map_err(|_| build.render_diagnostics())?;
        self.builds.insert(session, build);
        Ok(prog)
    }

    fn drop_session(&mut self, session: u64) {
        self.builds.remove(&session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = r#"
        global a = new Array<<32>>(8);
        event go(int i);
        handle go(int i) { Array.set(a, i, 1); }
    "#;

    #[test]
    fn build_end_to_end() {
        let mut b = Compiler::new().build("t.lucid", COUNTER);
        assert!(b.layout().unwrap().total_stages >= 2);
        assert!(b.p4().unwrap().loc.total() > 40);
    }

    #[test]
    fn empty_handler_builds_and_simulates_end_to_end() {
        // An empty handler body must survive the whole pipeline — empty
        // IR, dispatcher-only layout, P4 text — and run under both
        // executors (the event is consumed, not exported).
        let mut b = Compiler::new().build("sink.lucid", "event noop(); handle noop() { }");
        assert!(b.handlers().unwrap()[0].tables.is_empty());
        assert_eq!(b.layout().unwrap().body_stages, 0);
        assert!(b.p4().is_ok());
        let sc = Scenario::from_json(
            r#"{"events": [{"time_ns": 0, "switch": 1, "event": "noop", "args": []}],
                "expect": {"handled": 1, "exported": 0}}"#,
        )
        .unwrap();
        for exec in [ExecMode::Ast, ExecMode::Bytecode] {
            let report = b.interp(&sc, &SimOptions::new().exec(exec)).unwrap();
            assert!(report.passed(), "{exec:?}: {:?}", report.mismatches);
        }
    }

    #[test]
    fn stage_artifacts_are_cached() {
        let mut b = Compiler::new().build("t.lucid", COUNTER);
        b.p4().unwrap();
        b.p4().unwrap();
        b.layout().unwrap();
        b.checked().unwrap();
        let s = *b.stats();
        assert_eq!(
            (
                s.parse_runs,
                s.check_runs,
                s.elaborate_runs,
                s.layout_runs,
                s.p4_runs
            ),
            (1, 1, 1, 1, 1),
            "{s:?}"
        );
    }

    #[test]
    fn reconfigure_keeps_front_end() {
        let mut b = Compiler::new().build("t.lucid", COUNTER);
        let stages_default = b.layout().unwrap().total_stages;
        let tall = PipelineSpec {
            stages: 256,
            ..PipelineSpec::tofino()
        };
        b.reconfigure(&Compiler::new().target(tall).layout(LayoutOptions {
            dispatcher_stages: 3,
            ..LayoutOptions::default()
        }));
        let stages_tall = b.layout().unwrap().total_stages;
        assert_eq!(stages_tall, stages_default + 2, "dispatcher grew by 2");
        let s = *b.stats();
        assert_eq!(
            (s.parse_runs, s.check_runs),
            (1, 1),
            "front end not re-run: {s:?}"
        );
        assert_eq!(s.layout_runs, 2);
    }

    #[test]
    fn errors_render_with_source_excerpt() {
        let mut b = Compiler::new().build(
            "bad.lucid",
            "global a = new Array<<32>>(8);\nglobal b = new Array<<32>>(8);\n\
             event go(int i);\nhandle go(int i) {\n  int x = Array.get(b, i);\n  \
             Array.set(a, i, x);\n}\n",
        );
        assert!(b.p4().is_err());
        let msg = b.render_diagnostics();
        assert!(msg.contains("out of declaration order"), "{msg}");
        assert!(msg.contains("bad.lucid:6"), "{msg}");
        assert!(msg.contains("Array.set(a, i, x);"), "{msg}");
        assert!(msg.contains("[E0401]"), "{msg}");
    }

    #[test]
    fn memop_error_renders_at_the_operator() {
        let mut b = Compiler::new().build("m.lucid", "memop bad(int m, int x) { return m * x; }\n");
        assert!(b.checked().is_err());
        assert!(
            b.render_diagnostics().contains('*'),
            "{}",
            b.render_diagnostics()
        );
    }

    #[test]
    fn interp_stage_runs_scenarios_on_the_cached_check() {
        let mut b = Compiler::new().build("t.lucid", COUNTER);
        let sc = Scenario::from_json(
            r#"{"name": "poke-and-count",
                "events": [{"time_ns": 0, "switch": 1, "event": "go", "args": [2]}],
                "expect": {"handled": 1,
                           "arrays": [{"switch": 1, "array": "a", "index": 2, "value": 1}]}}"#,
        )
        .unwrap();
        let report = b.interp(&sc, &SimOptions::default()).unwrap();
        assert!(report.passed(), "{:?}", report.mismatches);
        let report2 = b.interp(&sc, &SimOptions::default()).unwrap();
        assert!(report2.passed());
        let s = *b.stats();
        assert_eq!(
            (s.parse_runs, s.check_runs, s.interp_runs),
            (1, 1, 2),
            "check artifact is reused across sim runs: {s:?}"
        );
        assert_eq!(s.p4_runs, 0, "simulation never touches the backend");

        // A scenario that does not fit the program is a structured error.
        let bad =
            Scenario::from_json(r#"{"events": [{"time_ns": 0, "switch": 1, "event": "nope"}]}"#)
                .unwrap();
        assert!(matches!(
            b.interp(&bad, &SimOptions::default()),
            Err(SimError::Scenario(_))
        ));

        // A broken program surfaces its diagnostics.
        let mut broken =
            Compiler::new().build("m.lucid", "memop bad(int m, int x) { return m * x; }");
        assert!(matches!(
            broken.interp(&sc, &SimOptions::default()),
            Err(SimError::Diagnostics(_))
        ));
    }

    #[test]
    fn build_host_serves_and_swaps_without_reparse() {
        let scenario = r#"{"name": "served",
            "events": [{"time_ns": 0, "switch": 1, "event": "go", "args": [3]}],
            "limits": {"max_time_ns": 100000}}"#;
        let mut state = ServeState::new();
        let mut host = BuildHost::new(Compiler::new());
        let open = format!(
            "{{\"op\":\"open\",\"program\":{:?},\"scenario\":{:?}}}",
            COUNTER, scenario
        );
        let r = handle_line(&mut state, &mut host, &open);
        assert!(r.reply().contains("\"ok\":true"), "{}", r.reply());
        // Swapping back the same source is an epoch change, not a rebuild:
        // the cached parse + check survive `reconfigure`.
        let swap = format!(
            "{{\"op\":\"swap\",\"session\":1,\"program\":{:?}}}",
            COUNTER
        );
        let r = handle_line(&mut state, &mut host, &swap);
        assert!(r.reply().contains("\"arrays_carried\":1"), "{}", r.reply());
        let stats = *host.build(1).unwrap().stats();
        assert_eq!(
            (stats.parse_runs, stats.check_runs),
            (1, 1),
            "swap re-used the front end: {stats:?}"
        );
        // A swap that fails typecheck is a structured `swap` error and
        // leaves the session running.
        let bad = "{\"op\":\"swap\",\"session\":1,\"program\":\"memop bad(int m, int x) { return m * x; }\"}";
        let r = handle_line(&mut state, &mut host, bad);
        assert!(r.reply().contains("\"kind\":\"swap\""), "{}", r.reply());
        let r = handle_line(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
        assert!(r.reply().contains("\"report\":{"), "{}", r.reply());
        assert!(state.is_empty());
    }
}
