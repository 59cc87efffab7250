//! `flood` and `flood_w1`: the generator-driven mesh flood, on the
//! sequential engine and on the sharded engine pinned to one worker.
//!
//! The two are one workload measured through two drivers, kept as two
//! names so each engine's throughput is gated on its own: the sharded
//! engine at one worker shares the sequential driver's scheduling core,
//! and a planned change merges the loops.

use crate::inputs::{self, Rng};
use crate::runner::{Checks, Layers, Rep, Size, Untraced, Workload, NS_PER_MS, PROBE_REPS};
use crate::spec;
use crate::stats::{fast_decile, median};
use crate::trace::{TraceAccount, Tracer};
use lucid_core::{
    CheckedProgram, Compiler, Engine, EventSource, ExecMode, GenSpec, OptLevel, Scenario,
    SimOptions, SimReport, SimSession,
};
use std::sync::Arc;
use std::time::Instant;

const SWITCHES: u64 = 8;
/// Generator-sourced injections per rep; each is processed once and spawns
/// two children, so a rep simulates three times as many events.
const ROOTS: u64 = 100_000;
/// The executor cross-check in set-up runs this share of the stream.
const PREFIX_DIV: u64 = 10;
/// Roots of the informational two-worker probe.
const W2_ROOTS: u64 = 60_000;

const SEQUENTIAL: Engine = Engine::Sequential;
const SHARDED_ONE: Engine = Engine::Sharded {
    workers: 1,
    epoch_ns: 0,
};

/// What two runs of one flood must agree on, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    state_digest: u64,
    metrics_digest: u64,
    processed: u64,
    handled: u64,
    gens: Vec<(String, u64)>,
}

impl Observed {
    fn of(r: &SimReport) -> Observed {
        Observed {
            state_digest: r.state_digest,
            metrics_digest: r.metrics.digest(),
            processed: r.stats.processed,
            handled: r.stats.handled,
            gens: r.gens.clone(),
        }
    }
}

pub struct Flood<const SHARDED: bool> {
    seed: u64,
    roots: u64,
    prog: Arc<CheckedProgram>,
    sc: Scenario,
    /// The first measured rep's observables; every later rep, and the
    /// other engine, must reproduce them.
    reference: Option<Observed>,
}

pub type FloodSequential = Flood<false>;
pub type FloodShardedOne = Flood<true>;

fn scenario(seed: u64, roots: u64, gens: Vec<GenSpec>) -> Scenario {
    let mut sc = inputs::blank_scenario("flood", SWITCHES);
    sc.exec = ExecMode::Bytecode;
    sc.opt = OptLevel::O2;
    sc.seed = seed;
    sc.max_events = roots * 4 + 1_000;
    sc.generators = gens;
    sc
}

fn options(engine: Engine) -> SimOptions {
    SimOptions::new().engine(engine).record_trace(false)
}

fn run(prog: &Arc<CheckedProgram>, sc: &Scenario, opts: &SimOptions) -> SimReport {
    SimSession::open_arc(Arc::clone(prog), sc, opts)
        .and_then(|mut s| s.drain())
        .expect("the flood scenario fits its program and quiesces")
}

impl<const SHARDED: bool> Flood<SHARDED> {
    fn engine() -> Engine {
        if SHARDED {
            SHARDED_ONE
        } else {
            SEQUENTIAL
        }
    }

    fn other_engine() -> Engine {
        if SHARDED {
            SEQUENTIAL
        } else {
            SHARDED_ONE
        }
    }

    fn drain_span() -> &'static str {
        if SHARDED {
            "machine.w1_drain"
        } else {
            "machine.seq_drain"
        }
    }

    /// The digests `expected.json` pins for the seed commit apply to the
    /// pinned seed at full size only.
    fn check_pins(&self, seen: &Observed, chk: &mut Checks) {
        let pins = spec::expected();
        let flood = spec::field(&pins, "flood").expect("expected.json has a flood entry");
        let num = |k: &str| {
            spec::field(flood, k)
                .and_then(spec::as_f64)
                .map(|n| n as u64)
        };
        if self.seed != spec::PINNED_SEED || num("roots") != Some(self.roots) {
            return;
        }
        let hex = |k: &str| {
            spec::field(flood, k)
                .and_then(spec::as_str)
                .map(str::to_string)
        };
        chk.check(
            hex("state_digest") == Some(format!("{:016x}", seen.state_digest))
                && hex("metrics_digest") == Some(format!("{:016x}", seen.metrics_digest))
                && num("events") == Some(seen.processed),
            || {
                format!(
                    "flood at seed {} drifted from expected.json: state {:016x}, metrics {:016x}, {} events",
                    self.seed, seen.state_digest, seen.metrics_digest, seen.processed
                )
            },
        );
    }
}

impl<const SHARDED: bool> Workload for Flood<SHARDED> {
    fn prepare(seed: u64, size: Size, chk: &mut Checks) -> Self {
        let roots = size.scale(ROOTS);
        let mut rng = Rng::new(seed);
        let gens = inputs::flood_generators(&mut rng, SWITCHES, roots);
        let prog = Compiler::new()
            .build("mesh.lucid", &inputs::mesh_program(SWITCHES))
            .checked_arc()
            .expect("the mesh program checks");
        let sc = scenario(seed, roots, gens);

        // Executor and engine cross-check on a prefix of the same stream:
        // the AST walker is the reference semantics, so agreeing with it
        // does not depend on the bytecode under measurement being right.
        let prefix = roots / PREFIX_DIV;
        let walker = Observed::of(&run(
            &prog,
            &sc,
            &options(SEQUENTIAL).exec(ExecMode::Ast).events(prefix),
        ));
        for engine in [SEQUENTIAL, SHARDED_ONE] {
            let bytecode = Observed::of(&run(&prog, &sc, &options(engine).events(prefix)));
            chk.check(bytecode == walker, || {
                format!(
                    "bytecode on {} disagrees with the AST walker on the {prefix}-root prefix",
                    engine.label()
                )
            });
        }
        chk.check(walker.processed == 3 * prefix, || {
            format!(
                "prefix processed {} events, expected {}",
                walker.processed,
                3 * prefix
            )
        });
        Flood {
            seed,
            roots,
            prog,
            sc,
            reference: None,
        }
    }

    fn rep(&mut self, tr: &mut Tracer, chk: &mut Checks) -> Rep {
        let opts = options(Self::engine());
        let mut session = tr
            .leaf("session.open", || {
                SimSession::open_arc(Arc::clone(&self.prog), &self.sc, &opts)
            })
            .expect("the flood scenario fits its program");
        let report = tr
            .leaf(Self::drain_span(), || session.drain())
            .expect("the flood quiesces");
        // Tearing the world down is part of what a run costs its user.
        tr.leaf("session.close", || drop(session));
        let seen = Observed::of(&report);
        chk.check(seen.processed == 3 * self.roots, || {
            format!(
                "processed {} events, expected {}",
                seen.processed,
                3 * self.roots
            )
        });
        match &self.reference {
            None => {
                self.check_pins(&seen, chk);
                self.reference = Some(seen);
            }
            Some(first) => chk.check(*first == seen, || {
                "two reps of one flood disagree on digests or counts".to_string()
            }),
        }
        Rep {
            items: report.stats.processed,
            ops_us: Vec::new(),
        }
    }

    /// The other engine, once, at full size: sequential and sharded at one
    /// worker must be bit-identical for any seed.
    fn verify(&mut self, chk: &mut Checks) {
        let other = Observed::of(&run(&self.prog, &self.sc, &options(Self::other_engine())));
        chk.check(self.reference.as_ref() == Some(&other), || {
            format!(
                "{} and {} disagree at full size",
                Self::engine().label(),
                Self::other_engine().label()
            )
        });
    }

    fn layers(&mut self, acc: &TraceAccount, _untraced: &Untraced, out: &mut Layers) {
        out.set_self("session.open_ms", acc, "session.open", NS_PER_MS);
        out.set_self("machine.seq_drain_ms", acc, "machine.seq_drain", NS_PER_MS);
        out.set_self("machine.w1_drain_ms", acc, "machine.w1_drain", NS_PER_MS);
        let events = 3 * self.roots;
        out.set("machine.events_processed", events as f64);
        let drain_ns = acc.self_ns_per_rep(Self::drain_span());

        // Source layer alone: compile the generators, then pull the whole
        // root stream in the batches the engines use.
        let mut compile_us = Vec::new();
        let mut pull_ns = Vec::new();
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            let gens = self
                .sc
                .generators
                .iter()
                .enumerate()
                .map(|(i, g)| g.compile(&self.prog, self.sc.seed, i))
                .collect();
            compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let mut stream = lucid_core::Workload::new(gens, None);
            let mut batch = Vec::with_capacity(4096);
            let mut pulled = 0u64;
            let t0 = Instant::now();
            loop {
                batch.clear();
                stream.next_batch(u64::MAX, 4096, &mut batch);
                if batch.is_empty() {
                    break;
                }
                pulled += std::hint::black_box(&batch).len() as u64;
            }
            pull_ns.push(t0.elapsed().as_nanos() as f64 / pulled.max(1) as f64);
            out.set("workload.events_pulled", pulled as f64);
        }
        out.set("workload.compile_us", fast_decile(&compile_us));
        out.set("workload.pull_ns_per_event", fast_decile(&pull_ns));

        // Scheduling alone: the same root stream through a program whose
        // handler does nothing. What the flood's drain costs beyond it,
        // spread over the flood's events, is handler execution (and the
        // scheduling of the children only real handlers generate).
        let null_prog = Compiler::new()
            .build("null.lucid", inputs::NULL_MESH_PROGRAM)
            .checked_arc()
            .expect("the null program checks");
        let opts = options(Self::engine());
        let mut sched_ns = Vec::new();
        for _ in 0..PROBE_REPS {
            let mut session = SimSession::open_arc(Arc::clone(&null_prog), &self.sc, &opts)
                .expect("the null program has the same event interface");
            let t0 = Instant::now();
            let report = session.drain().expect("the null flood quiesces");
            sched_ns.push(t0.elapsed().as_nanos() as f64 / report.stats.processed.max(1) as f64);
        }
        let sched = fast_decile(&sched_ns);
        out.set("machine.sched_ns_per_event", sched);
        out.set(
            "bytecode.exec_ns_per_event",
            (drain_ns - sched * self.roots as f64) / events as f64,
        );

        if SHARDED {
            // Two workers on this host: informational only. The number a
            // later issue must explain; nothing is gated on it.
            let roots = W2_ROOTS.min(self.roots);
            let opts = options(Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            })
            .events(roots);
            let mut eps = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                let report = run(&self.prog, &self.sc, &opts);
                eps.push(report.stats.processed as f64 / t0.elapsed().as_secs_f64());
            }
            let (lo, hi) = eps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &e| {
                (lo.min(e), hi.max(e))
            });
            out.set("machine.w2_events_per_s", median(&eps));
            out.set("machine.w2_min_max_ratio", lo / hi);
        }
    }
}
