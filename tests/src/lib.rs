//! The reference matrix every differential suite in `tests/tests/*.rs`
//! runs: one list of [`Leg`]s, one runner ([`observe`]) and one
//! comparison ([`assert_agree`]).
//!
//! The reference leg is [`Leg::Walker`], the AST walker on the
//! sequential engine. Every other leg — bytecode at `--opt=0` and
//! `--opt=2`, and the sharded engine on O2 bytecode — must reproduce
//! everything it observes: final arrays, statistics, the metrics
//! digest, the dispatch trace, `printf` lines and the fault. Which
//! runs a suite compares (say, faulted runs on sequential legs only)
//! stays the suite's own policy.

#![forbid(unsafe_code)]

use lucid_check::CheckedProgram;
use lucid_interp::{
    CompiledProg, Engine, ExecMode, Handled, Interp, InterpError, NetConfig, OptLevel, SimOptions,
    Stats,
};
use std::fmt::{self, Debug, Write as _};

/// The per-property case count: `LUCID_FUZZ_CASES` when set (CI's fuzz
/// smoke runs 64), else the suite's `default`.
pub fn cases(default: u32) -> u32 {
    std::env::var("LUCID_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One way to run a program: an executor, an opt level and an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// The AST walker on the sequential engine: the reference.
    Walker,
    /// Bytecode at one opt level on the sequential engine.
    Bytecode(OptLevel),
    /// O2 bytecode on the sharded engine at `workers` workers.
    Sharded { workers: usize },
}

/// The standard matrix: the walker (the reference), bytecode at O0 and
/// O2, and the sharded engine at two workers.
pub fn legs() -> Vec<Leg> {
    legs_with(&[2])
}

/// The walker, bytecode at O0 and O2, then one sharded leg per worker
/// count in `workers`.
pub fn legs_with(workers: &[usize]) -> Vec<Leg> {
    let sequential = [
        Leg::Walker,
        Leg::Bytecode(OptLevel::O0),
        Leg::Bytecode(OptLevel::O2),
    ];
    let sharded = workers.iter().map(|&workers| Leg::Sharded { workers });
    sequential.into_iter().chain(sharded).collect()
}

impl Leg {
    fn exec(self) -> ExecMode {
        match self {
            Leg::Walker => ExecMode::Ast,
            Leg::Bytecode(_) | Leg::Sharded { .. } => ExecMode::Bytecode,
        }
    }

    /// The bytecode opt level (`None` for the walker, which has none).
    fn opt(self) -> Option<OptLevel> {
        match self {
            Leg::Walker => None,
            Leg::Bytecode(level) => Some(level),
            Leg::Sharded { .. } => Some(OptLevel::O2),
        }
    }

    /// Whether the leg runs on the sequential engine.
    pub fn is_sequential(self) -> bool {
        !matches!(self, Leg::Sharded { .. })
    }

    /// `cfg` running on this leg.
    pub fn configure(self, mut cfg: NetConfig) -> NetConfig {
        cfg.exec = self.exec();
        cfg.opt = self.opt().unwrap_or(cfg.opt);
        cfg.engine = match self {
            Leg::Walker | Leg::Bytecode(_) => Engine::Sequential,
            Leg::Sharded { workers } => Engine::Sharded {
                workers,
                epoch_ns: 0,
            },
        };
        cfg
    }

    /// `opts` overridden to run on this leg. The sharded leg keeps an
    /// epoch cap the options or the scenario chose.
    pub fn options(self, opts: SimOptions) -> SimOptions {
        let opts = SimOptions {
            exec: Some(self.exec()),
            opt: self.opt().or(opts.opt),
            ..opts
        };
        match self {
            Leg::Sharded { workers } => opts.workers(workers),
            Leg::Walker | Leg::Bytecode(_) => SimOptions {
                engine: Some(Engine::Sequential),
                workers: None,
                ..opts
            },
        }
    }
}

impl fmt::Display for Leg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leg::Walker => f.write_str("walker"),
            Leg::Bytecode(level) => write!(f, "bytecode-O{}", level.label()),
            Leg::Sharded { workers } => write!(f, "sharded-w{workers}"),
        }
    }
}

/// What a run is fed before it starts: cell pokes, applied first, then
/// injections.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// `(switch, array, index, value)`.
    pub pokes: Vec<(u64, String, usize, u64)>,
    /// `(switch, time_ns, event, args)`.
    pub events: Vec<(u64, u64, String, Vec<u64>)>,
}

impl Schedule {
    pub fn new() -> Schedule {
        Schedule::default()
    }

    pub fn poke(mut self, switch: u64, array: &str, index: usize, value: u64) -> Schedule {
        self.pokes.push((switch, array.to_string(), index, value));
        self
    }

    pub fn event(mut self, switch: u64, time_ns: u64, event: &str, args: &[u64]) -> Schedule {
        self.events
            .push((switch, time_ns, event.to_string(), args.to_vec()));
        self
    }
}

/// How far a run may go: [`Interp::run`]'s event budget and horizon.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub max_events: u64,
    pub max_time_ns: u64,
}

impl Limits {
    /// [`Interp::run_to_quiescence`]'s budget.
    pub const QUIESCE: Limits = Limits::events(1_000_000);

    /// An event budget with no time horizon.
    pub const fn events(max_events: u64) -> Limits {
        Limits {
            max_events,
            max_time_ns: u64::MAX,
        }
    }
}

/// Everything observable about one finished (or faulted) run.
#[derive(Debug, Clone)]
pub struct Observation {
    pub leg: Leg,
    /// `(switch, global, cells)` for every live switch `1..=n`, globals
    /// in declaration order.
    pub arrays: Vec<(u64, String, Vec<u64>)>,
    pub stats: Stats,
    /// The per-event-class latency and residency histograms, folded to
    /// one value: one mis-bucketed sample shows as a difference.
    pub metrics: u64,
    pub trace: Vec<Handled>,
    pub output: Vec<String>,
    /// The fault that stopped the run, or the injection that failed.
    pub fault: Option<InterpError>,
}

/// Run `schedule` on a `switches`-wide mesh under `leg`. A bytecode leg
/// first compiles through the verifier: a miscompile fails here with a
/// V-code naming the guilty pass, not later as a divergence.
pub fn observe(
    prog: &CheckedProgram,
    switches: u64,
    leg: Leg,
    schedule: &Schedule,
    limits: Limits,
) -> Observation {
    if let Some(level) = leg.opt() {
        if let Err(vs) = CompiledProg::compile_verified(prog, level) {
            panic!("{leg}: the verifier rejected the bytecode: {vs:?}");
        }
    }
    let mut sim = Interp::new(prog, leg.configure(NetConfig::mesh(switches)));
    for (switch, array, index, value) in &schedule.pokes {
        sim.poke(*switch, array, *index, *value);
    }
    let fault = schedule
        .events
        .iter()
        .try_for_each(|(switch, t, event, args)| sim.schedule(*switch, *t, event, args))
        .and_then(|()| sim.run(limits.max_events, limits.max_time_ns))
        .err();
    let mut arrays = Vec::new();
    for switch in 1..=switches {
        for g in &prog.info.globals {
            if let Some(cells) = sim.try_array(switch, &g.name) {
                arrays.push((switch, g.name.clone(), cells.to_vec()));
            }
        }
    }
    Observation {
        leg,
        arrays,
        stats: sim.stats.clone(),
        metrics: sim.metrics().digest(),
        trace: std::mem::take(&mut sim.trace),
        output: std::mem::take(&mut sim.output),
        fault,
    }
}

/// Observe `schedule` on every leg of `legs`, assert each agrees with
/// the first (see [`assert_agree`]), and return the first's
/// observation.
pub fn observe_legs(
    prog: &CheckedProgram,
    switches: u64,
    legs: &[Leg],
    schedule: &Schedule,
    limits: Limits,
    context: &str,
) -> Observation {
    let reference = observe(prog, switches, legs[0], schedule, limits);
    for &leg in &legs[1..] {
        let got = observe(prog, switches, leg, schedule, limits);
        assert_agree(&reference, &got, context);
    }
    reference
}

/// Fail unless `got` observed exactly what `reference` did, naming the
/// first field that differs, both legs and the caller's `context` (the
/// seed, the program, the schedule).
pub fn assert_agree(reference: &Observation, got: &Observation, context: &str) {
    let (a, b) = (reference, got);
    let diff = differ("the fault", &a.fault, &b.fault)
        .or_else(|| differ_at("the arrays", &a.arrays, &b.arrays))
        .or_else(|| differ("the stats", &a.stats, &b.stats))
        .or_else(|| differ_at("the trace", &a.trace, &b.trace))
        .or_else(|| differ_at("the printf output", &a.output, &b.output))
        .or_else(|| differ("the metrics digest", &a.metrics, &b.metrics));
    if let Some(diff) = diff {
        panic!("{} disagrees with {} on {diff}\n{context}", b.leg, a.leg);
    }
}

fn differ<T: PartialEq + Debug>(what: &str, a: &T, b: &T) -> Option<String> {
    (a != b).then(|| format!("{what}:\n  reference: {a:?}\n  got:       {b:?}"))
}

/// Like [`differ`], but points at the first differing element (`None`
/// past the shorter list's end).
fn differ_at<T: PartialEq + Debug>(what: &str, a: &[T], b: &[T]) -> Option<String> {
    let i = a.iter().zip(b).position(|(x, y)| x != y);
    let i = i.unwrap_or(a.len().min(b.len()));
    differ(&format!("{what} at [{i}]"), &a.get(i), &b.get(i))
}

impl Observation {
    /// One deterministic text: a line per switch and global, the stats,
    /// the trace, the `printf` lines and the fault (the metrics digest
    /// is left out).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (switch, name, cells) in &self.arrays {
            writeln!(out, "s{switch} {name}={cells:?}").unwrap();
        }
        let st = &self.stats;
        let mut per: Vec<_> = st.per_event.iter().collect();
        per.sort();
        writeln!(
            out,
            "stats processed={} handled={} recirculated={} sent_remote={} exported={} dropped={} per_event={per:?}",
            st.processed, st.handled, st.recirculated, st.sent_remote, st.exported, st.dropped
        )
        .unwrap();
        for h in &self.trace {
            writeln!(
                out,
                "trace {}ns s{} {}{:?}",
                h.time_ns, h.switch, h.event, h.args
            )
            .unwrap();
        }
        for line in &self.output {
            writeln!(out, "printf {line:?}").unwrap();
        }
        match &self.fault {
            None => writeln!(out, "fault none").unwrap(),
            Some(e) => writeln!(out, "fault {:?} :: {e}", e.kind).unwrap(),
        }
        out
    }
}
