//! Runs one workload in this process: set-up, the time-boxed measured
//! region, output checks, and — in a traced run — the span account and the
//! layer probes.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{fast_decile, median};
use crate::trace::{TraceAccount, Tracer, ROOT};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up runs at least this many times, and on until it has taken
/// `SETUP_BUDGET_S` in all or run `MAX_SETUPS` times; `setup_s` reports the
/// first decile like every other timing, so cheap set-ups get more samples.
/// (Medians of ten runs' median set-up moved by up to 32 % between two
/// calibration sets half an hour apart; first deciles of the operations in
/// the same runs by 12 %.)
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;
/// At least this many measured reps, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A traced workload may leave this share of its wall time unattributed.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Input sizes: full, or a tenth for smoke runs (`--quick`), whose numbers
/// are not comparable with anything.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub quick: bool,
}

impl Size {
    pub fn scale(self, n: u64) -> u64 {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }
}

/// Correctness tally: every output comparison is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reader.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 12 {
                self.notes.push(what());
            }
        }
    }
}

/// What one measured rep did.
pub struct Rep {
    /// Work items completed: simulated events, or apps for `compile_apps`.
    pub items: u64,
    /// Latencies of the operations a user waits on inside the rep,
    /// microseconds. Empty when the rep itself is the operation.
    pub ops_us: Vec<f64>,
}

/// Per-layer metrics of one traced run, by their `BENCHMARK.json` names.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Median per-rep self time under span `span`, scaled from ns.
    pub fn set_self(&mut self, name: &'static str, acc: &TraceAccount, span: &str, per_ns: f64) {
        self.set(name, acc.self_ns_per_rep(span) / per_ns);
    }

    /// Median duration of one call under span `span`, scaled from ns.
    pub fn set_call(&mut self, name: &'static str, acc: &TraceAccount, span: &str, per_ns: f64) {
        self.set(name, acc.call_ns(span) / per_ns);
    }
}

/// A probe of a single layer repeats this often and reports the first
/// decile, like every other timing.
pub const PROBE_REPS: usize = 8;

pub const NS_PER_US: f64 = 1e3;
pub const NS_PER_MS: f64 = 1e6;

/// The untraced reps of a traced run, for probes that need clean timings.
pub struct Untraced {
    pub walls_s: Vec<f64>,
    pub ops_us: Vec<Vec<f64>>,
}

pub trait Workload: Sized {
    /// Build every input from `seed`, the references the outputs are
    /// checked against, and whatever the reps reuse. All of it is set-up.
    fn prepare(seed: u64, size: Size, chk: &mut Checks) -> Self;

    /// One measured rep: run the work, check its outputs. Calls into the
    /// program go through `tr` so a traced rep accounts for them.
    fn rep(&mut self, tr: &mut Tracer, chk: &mut Checks) -> Rep;

    /// Checks too slow to repeat in set-up, run once after the measured
    /// region of an untraced run.
    fn verify(&mut self, _chk: &mut Checks) {}

    /// Fill in this workload's per-layer metrics from the span account and
    /// from probes of single layers.
    fn layers(&mut self, acc: &TraceAccount, untraced: &Untraced, out: &mut Layers);
}

/// One finished run, traced or not.
pub struct Outcome {
    pub checks: Checks,
    /// `(name, value, unit)` for every metric of the run's kind, in
    /// `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and other context for the human reader.
    pub info: String,
    /// The trace file's content (traced runs only).
    pub trace_json: Option<String>,
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timed_rep<W: Workload>(w: &mut W, tr: &mut Tracer, chk: &mut Checks) -> (f64, Rep) {
    let t0 = Instant::now();
    let root = tr.enter(ROOT);
    let rep = w.rep(tr, chk);
    tr.exit(root);
    (t0.elapsed().as_secs_f64(), rep)
}

pub fn run_untraced<W: Workload>(seed: u64, size: Size, seconds: f64) -> Outcome {
    let mut chk = Checks::default();
    let mut tr = Tracer::off();
    // One set-up is everything before the first measured rep: building the
    // inputs and references, then one discarded rep that takes the page
    // faults and lazy initialisation.
    let mut setups = Vec::new();
    let mut prepared = None;
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // Drop the previous instance first so peak memory is one set-up's.
        drop(prepared.take());
        let t0 = Instant::now();
        let mut w = W::prepare(seed, size, &mut chk);
        timed_rep(&mut w, &mut tr, &mut chk);
        setups.push(t0.elapsed().as_secs_f64());
        prepared = Some(w);
    }
    let mut w = prepared.expect("set-up ran");

    let region = Instant::now();
    let mut walls = Vec::new();
    // Operation latencies pooled over every rep; a rep that is one
    // operation contributes its own wall time.
    let mut ops_us = Vec::new();
    let mut items = 0;
    while walls.len() < MIN_REPS || region.elapsed().as_secs_f64() < seconds {
        let (wall_s, rep) = timed_rep(&mut w, &mut tr, &mut chk);
        if rep.ops_us.is_empty() {
            ops_us.push(wall_s * 1e6);
        } else {
            ops_us.extend(rep.ops_us);
        }
        items = rep.items;
        walls.push(wall_s);
    }
    let region_s = region.elapsed().as_secs_f64();
    w.verify(&mut chk);

    let values = [
        fast_decile(&ops_us) / 1e3,
        items as f64 / fast_decile(&walls),
        peak_rss_mb(),
        fast_decile(&setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    Outcome {
        checks: chk,
        metrics,
        info: format!(
            "{} measured reps in {region_s:.2} s, {items} items per rep, {} operations; rep wall \
             min/decile/median/max {:.3}/{:.3}/{:.3}/{:.3} ms; {} set-ups",
            walls.len(),
            ops_us.len(),
            walls.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            fast_decile(&walls) * 1e3,
            median(&walls) * 1e3,
            walls.iter().copied().fold(0.0, f64::max) * 1e3,
            setups.len()
        ),
        trace_json: None,
    }
}

pub fn run_traced<W: Workload>(name: &str, seed: u64, size: Size, seconds: f64) -> Outcome {
    let mut chk = Checks::default();
    let mut w = W::prepare(seed, size, &mut chk);
    let mut off = Tracer::off();
    let mut on = Tracer::on();
    timed_rep(&mut w, &mut off, &mut chk);

    // Untraced and traced reps alternate, so both see the same host.
    let region = Instant::now();
    let mut untraced = Untraced {
        walls_s: Vec::new(),
        ops_us: Vec::new(),
    };
    let mut traced_walls = Vec::new();
    let mut acc = TraceAccount::default();
    while traced_walls.len() < MIN_REPS || region.elapsed().as_secs_f64() < seconds {
        let (wall_s, rep) = timed_rep(&mut w, &mut off, &mut chk);
        untraced.walls_s.push(wall_s);
        untraced.ops_us.push(rep.ops_us);
        let (wall_s, _) = timed_rep(&mut w, &mut on, &mut chk);
        traced_walls.push(wall_s);
        acc.push(on.take_rep());
    }

    let mut layers = Layers::default();
    w.layers(&acc, &untraced, &mut layers);
    let unattributed = acc.unattributed_share();
    chk.check(unattributed <= MAX_UNATTRIBUTED, || {
        format!(
            "trace.unattributed_share {unattributed:.4} exceeds {MAX_UNATTRIBUTED}: \
             the layer self times do not account for the traced wall time"
        )
    });
    layers.set("trace.unattributed_share", unattributed);
    layers.set(
        "trace.overhead_ratio",
        fast_decile(&traced_walls) / fast_decile(&untraced.walls_s),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.0.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    Outcome {
        checks: chk,
        metrics,
        info: format!(
            "{} traced and {} untraced reps, alternating",
            traced_walls.len(),
            untraced.walls_s.len()
        ),
        trace_json: Some(acc.to_json(name, seed)),
    }
}
