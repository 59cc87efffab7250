//! A resumable simulation session: the one-shot scenario runner carved
//! into open / ingest / advance / query / snapshot / restore / swap /
//! drain steps, so a long-lived service ([`crate::serve`]) can own a
//! world across many requests.
//!
//! `run_scenario_with` is implemented as `SimSession::open` + `drain`,
//! which makes the core invariant hold by construction: a served session
//! that advances in any number of steps — with a `snapshot`/`restore`
//! round-trip anywhere in between — produces state, stats, metrics
//! digests and (when recorded) trace bit-identical to the equivalent
//! one-shot run, under both engines. The engines already pause exactly
//! at a time horizon (events beyond it stay queued, keys are
//! materialization-independent), so segmentation is free; sessions just
//! expose it.

use crate::machine::{Interp, SwapStats};
use crate::metrics::Metrics;
use crate::scenario::{
    check_expectations, check_metric_expectations, digest_state, FailureAction, FailureKind,
    Injection, Scenario, ScenarioError, SimOptions, SimReport, SimRunError,
};
use crate::snap;
use crate::workload::{GenSpec, Workload};
use lucid_check::CheckedProgram;
use std::sync::Arc;
use std::time::Instant;

/// Snapshot container magic: wraps the world bytes with the session
/// cursor and the program/scenario fingerprints a restore must match.
const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"LUCSNAP\x01");

/// FNV-1a over a byte stream (the same construction as the state digest).
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of a program's simulation-relevant interface: event names
/// and arities plus global geometry, in declaration order. Two programs
/// with the same fingerprint produce interchangeable snapshots.
fn program_fingerprint(prog: &CheckedProgram) -> u64 {
    let mut bytes = Vec::new();
    for e in &prog.info.events {
        bytes.extend_from_slice(e.name.as_bytes());
        bytes.push(0);
        bytes.push(e.params.len() as u8);
    }
    bytes.push(1);
    for g in &prog.info.globals {
        bytes.extend_from_slice(g.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&g.cell_width.to_le_bytes());
        bytes.extend_from_slice(&g.len.to_le_bytes());
    }
    fnv(bytes)
}

/// Fingerprint of the scenario shape a session was opened from: name,
/// topology, limits, seed, and the sizes of its authored sections.
fn scenario_fingerprint(sc: &Scenario) -> u64 {
    let mut w = snap::Writer::new();
    w.str(&sc.name);
    w.u64s(&sc.switches);
    w.u64(sc.link_latency_ns);
    w.u64(sc.recirc_latency_ns);
    w.u64(sc.max_events);
    w.u64(sc.max_time_ns);
    w.u64(sc.seed);
    w.u64(sc.init.len() as u64);
    w.u64(sc.events.len() as u64);
    w.u64(sc.generators.len() as u64);
    w.u64(sc.failures.len() as u64);
    fnv(w.buf)
}

/// A cheap, deterministic view of a live session (the serve `query`
/// verb): where the clock is, what has been processed, and the two
/// digests the bit-identity gates compare.
#[derive(Debug, Clone)]
pub struct SessionStatus {
    /// Virtual clock, nanoseconds.
    pub now_ns: u64,
    /// Events still queued in the world.
    pub pending: usize,
    /// Whether the attached workload still has events to emit.
    pub source_pending: bool,
    /// Events processed so far.
    pub processed: u64,
    pub handled: u64,
    pub dropped: u64,
    /// FNV-1a digest of every switch's current array state.
    pub state_digest: u64,
    /// Digest of the per-class latency metrics accumulated so far.
    pub metrics_digest: u64,
}

/// A long-lived simulation world: a compiled program, a scenario's
/// topology and workload, and an [`Interp`] that advances on demand
/// instead of draining in one breath.
pub struct SimSession {
    prog: Arc<CheckedProgram>,
    sc: Scenario,
    opts: SimOptions,
    sim: Interp,
    /// Fuel ceiling (raised by an `events` override, like the one-shot
    /// runner).
    max_events: u64,
    /// The authored fault schedule, sorted by time; `applied` is the
    /// cursor of actions already executed (or skipped past the horizon).
    actions: Vec<FailureAction>,
    applied: usize,
    /// Per-source report names, in slot order (grows on generator attach).
    gen_names: Vec<String>,
    /// Whether the authored `expect`/`metrics` blocks still describe this
    /// run. Overriding the workload (seed/events), ingesting extra
    /// events, attaching generators, or swapping the program all void
    /// them; the report then carries stats and digests only.
    check_expect: bool,
    /// Busy wall-clock seconds accumulated across `advance` calls.
    wall_s: f64,
    engine: &'static str,
    exec: &'static str,
    opt: &'static str,
}

impl SimSession {
    /// Validate `sc` against `prog` and build the world: resolve the
    /// engine/exec/opt/workers configuration, compile the generator
    /// workload, apply `init` pokes, and schedule the authored events.
    /// Nothing runs until [`SimSession::advance`] or
    /// [`SimSession::drain`].
    pub fn open(
        prog: &CheckedProgram,
        sc: &Scenario,
        opts: &SimOptions,
    ) -> Result<SimSession, SimRunError> {
        SimSession::open_arc(Arc::new(prog.clone()), sc, opts)
    }

    /// [`SimSession::open`] without cloning an already-shared program.
    pub fn open_arc(
        prog: Arc<CheckedProgram>,
        sc: &Scenario,
        opts: &SimOptions,
    ) -> Result<SimSession, SimRunError> {
        let t0 = Instant::now();
        sc.validate(&prog)?;
        let cfg = opts.resolve(sc);
        let engine = cfg.engine.label();
        let exec = cfg.exec.label();
        let opt = cfg.opt.label();
        let mut sim = Interp::from_arc(Arc::clone(&prog), cfg);
        sim.set_record_trace(opts.record_trace);

        let gen_names: Vec<String> = sc.generators.iter().map(|g| g.name.clone()).collect();
        if sc.generators.is_empty() {
            // Workload overrides against a generator-less scenario would
            // be silent no-ops; surface the mismatch instead.
            if opts.events.is_some() || opts.seed.is_some() {
                return Err(ScenarioError::validate(
                    "$.generators",
                    "--seed/--events override the generator workload, \
                     but this scenario has no `generators` section",
                )
                .into());
            }
        } else {
            let seed = opts.seed.unwrap_or(sc.seed);
            let mut specs = sc.generators.clone();
            if let Some(target) = opts.events {
                // Scaling up: stretch authored `count` caps proportionally
                // so the stream can actually reach the target. Generators
                // bounded only by `stop_ns` keep their windows and are left
                // out of the proportion (the total cap still trims the
                // stream at exactly `target`).
                let total: u64 = specs.iter().filter_map(|g| g.count).sum();
                if total > 0 && target > total {
                    for g in &mut specs {
                        if let Some(c) = g.count {
                            let scaled = (c as u128 * target as u128).div_ceil(total as u128);
                            g.count = Some(scaled as u64);
                        }
                    }
                }
            }
            let gens = specs
                .iter()
                .enumerate()
                .map(|(i, g)| g.compile(&prog, seed, i))
                .collect();
            sim.set_source(Box::new(Workload::new(gens, opts.events)));
        }
        let max_events = match opts.events {
            Some(n) => sc.max_events.max(n.saturating_mul(4)),
            None => sc.max_events,
        };

        for p in &sc.init {
            sim.poke(p.switch, &p.array, p.index as usize, p.value);
        }
        for inj in &sc.events {
            sim.schedule(inj.switch, inj.time_ns, &inj.event, &inj.args)?;
        }

        let mut actions = sc.failures.clone();
        actions.sort_by_key(|a| a.time_ns);
        let check_expect =
            sc.generators.is_empty() || (opts.seed.is_none() && opts.events.is_none());
        Ok(SimSession {
            prog,
            sc: sc.clone(),
            opts: *opts,
            sim,
            max_events,
            actions,
            applied: 0,
            gen_names,
            check_expect,
            wall_s: t0.elapsed().as_secs_f64(),
            engine,
            exec,
            opt,
        })
    }

    /// The program currently installed (changes across [`SimSession::swap`]).
    pub fn program(&self) -> &Arc<CheckedProgram> {
        &self.prog
    }

    /// The scenario this session was opened from.
    pub fn scenario(&self) -> &Scenario {
        &self.sc
    }

    /// The resolved `(engine, exec, opt)` labels this session runs with.
    pub fn labels(&self) -> (&'static str, &'static str, &'static str) {
        (self.engine, self.exec, self.opt)
    }

    /// Direct read access to the world (arrays, stats, metrics, and the
    /// trace — empty unless the session was opened with
    /// `record_trace` on).
    pub fn world(&self) -> &Interp {
        &self.sim
    }

    /// Advance the world to `to_ns` (clamped to the scenario's
    /// `max_time_ns`): apply every fault action due by then, run the
    /// engines up to the horizon, and pause with everything later still
    /// queued. Advancing in any number of steps is bit-identical to one
    /// step — both engines pause exactly at a time horizon, and the
    /// fault schedule already segments one-shot runs the same way.
    pub fn advance(&mut self, to_ns: u64) -> Result<(), SimRunError> {
        let t0 = Instant::now();
        let res = self.advance_inner(to_ns.min(self.sc.max_time_ns));
        self.wall_s += t0.elapsed().as_secs_f64();
        res
    }

    fn advance_inner(&mut self, to: u64) -> Result<(), SimRunError> {
        let fuel = |sim: &Interp, cap: u64| cap.saturating_sub(sim.stats.processed);
        while self.applied < self.actions.len() {
            let a = self.actions[self.applied].clone();
            let horizon = (a.time_ns - 1).min(self.sc.max_time_ns);
            if horizon > to {
                break;
            }
            self.sim.run(fuel(&self.sim, self.max_events), horizon)?;
            if a.time_ns > self.sc.max_time_ns {
                // Actions are sorted: every remaining one is also past
                // the scenario horizon and never applies.
                self.applied = self.actions.len();
                break;
            }
            match a.kind {
                FailureKind::Fail => self.sim.fail_switch(a.switch),
                FailureKind::Recover => self.sim.recover_switch(a.switch),
            }
            self.applied += 1;
        }
        self.sim.run(fuel(&self.sim, self.max_events), to)?;
        Ok(())
    }

    /// Inject a batch of external events (the serve `ingest` verb). Each
    /// is scheduled exactly like an authored `events` entry; injecting
    /// events the one-shot scenario does not have voids its authored
    /// expectations (digests and stats still report).
    pub fn ingest(&mut self, batch: &[Injection]) -> Result<(), SimRunError> {
        for inj in batch {
            self.sim
                .schedule(inj.switch, inj.time_ns, &inj.event, &inj.args)?;
        }
        if !batch.is_empty() {
            self.check_expect = false;
        }
        Ok(())
    }

    /// Attach a generator spec mid-run, compiled with the session's
    /// effective seed. Returns its source slot.
    pub fn attach_generator(&mut self, spec: &GenSpec) -> Result<usize, SimRunError> {
        let seed = self.opts.seed.unwrap_or(self.sc.seed);
        let slot = self
            .sim
            .attach_generator(spec, seed)
            .map_err(|msg| ScenarioError::validate("$.generators", msg))?;
        self.gen_names.push(spec.name.clone());
        self.check_expect = false;
        Ok(slot)
    }

    /// The session's current status and digests (the serve `query` verb).
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            now_ns: self.sim.now_ns,
            pending: self.sim.pending(),
            source_pending: self.sim.source_pending(),
            processed: self.sim.stats.processed,
            handled: self.sim.stats.handled,
            dropped: self.sim.stats.dropped,
            state_digest: digest_state(&self.prog, &self.sim, &self.sc.switches),
            metrics_digest: self.sim.metrics().digest(),
        }
    }

    /// Encode the full world — session cursor included — into the
    /// deterministic snapshot format (see `docs/serve-protocol.md`).
    /// Identical world states encode to identical bytes.
    pub fn snapshot(&self) -> Result<Vec<u8>, SimRunError> {
        let mut w = snap::Writer::new();
        w.u64(SNAP_MAGIC);
        w.u64(program_fingerprint(&self.prog));
        w.u64(scenario_fingerprint(&self.sc));
        w.u64(self.applied as u64);
        w.bool(self.check_expect);
        w.u64(self.gen_names.len() as u64);
        for name in &self.gen_names {
            w.str(name);
        }
        let mut world = Vec::new();
        self.sim
            .save_world(&mut world)
            .map_err(SimRunError::Snapshot)?;
        w.bytes(&world);
        Ok(w.buf)
    }

    /// Overwrite this session's world from snapshot bytes. The session
    /// must have been opened from the same scenario, options, and an
    /// interface-compatible program — fingerprints are checked before
    /// anything is touched. Corrupted bytes yield a structured
    /// [`SimRunError::Snapshot`], never a panic.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SimRunError> {
        self.restore_inner(bytes)
            .map_err(|e| SimRunError::Snapshot(e.to_string()))
    }

    fn restore_inner(&mut self, bytes: &[u8]) -> Result<(), snap::SnapError> {
        let mut r = snap::Reader::new(bytes);
        let magic = r.u64()?;
        if magic != SNAP_MAGIC {
            return Err(r.err(format!("bad magic {magic:#018x}")));
        }
        let prog_fp = r.u64()?;
        if prog_fp != program_fingerprint(&self.prog) {
            return Err(r.err(
                "snapshot was taken under a different program (event or array interface differs)",
            ));
        }
        let sc_fp = r.u64()?;
        if sc_fp != scenario_fingerprint(&self.sc) {
            return Err(r.err("snapshot was taken from a different scenario"));
        }
        let applied = r.u64()? as usize;
        if applied > self.actions.len() {
            return Err(r.err(format!(
                "snapshot applied {applied} fault actions, scenario has {}",
                self.actions.len()
            )));
        }
        let check_expect = r.bool()?;
        let n = r.len(8, "generator names")?;
        let mut gen_names = Vec::with_capacity(n);
        for _ in 0..n {
            gen_names.push(r.str()?);
        }
        let world = r.bytes()?;
        r.expect_end()?;
        self.sim
            .load_world(world)
            .map_err(|msg| snap::SnapError { offset: 0, msg })?;
        self.applied = applied;
        self.check_expect = check_expect;
        self.gen_names = gen_names;
        Ok(())
    }

    /// Hot-swap the running program for a new epoch. State carries over
    /// where compatible (see [`Interp::swap_program`]); the caller has
    /// already typechecked `new` — a program that fails typecheck never
    /// reaches this method. Authored expectations are voided.
    pub fn swap(&mut self, new: Arc<CheckedProgram>) -> SwapStats {
        let stats = self.sim.swap_program(Arc::clone(&new));
        self.prog = new;
        self.check_expect = false;
        stats
    }

    /// Run the world to completion — the scenario horizon, with every
    /// remaining fault action applied — and assemble the final report.
    /// `open` + `drain` with no steps in between *is* the one-shot
    /// runner.
    pub fn drain(&mut self) -> Result<SimReport, SimRunError> {
        self.advance(u64::MAX)?;
        // `--events=N` promises exactly N injections; if the generators'
        // windows or the scenario horizon capped the stream short of
        // that, failing loudly beats a caller comparing digests of a
        // smaller run than it thinks it ran.
        if let Some(target) = self.opts.events {
            let injected: u64 = self.sim.source_counts().iter().sum();
            if injected < target {
                return Err(ScenarioError::validate(
                    "$.generators",
                    format!(
                        "--events asked for {target} injections but the generators \
                         supplied only {injected} (emission windows or the scenario \
                         horizon cap the stream)"
                    ),
                )
                .into());
            }
        }
        Ok(self.report())
    }

    /// Assemble a [`SimReport`] from the world as it stands (drained or
    /// not). Expectations are checked only while the session still runs
    /// the workload the author wrote them for.
    pub fn report(&self) -> SimReport {
        let mut mismatches = Vec::new();
        let metrics: Metrics = self.sim.metrics();
        if self.check_expect {
            check_expectations(&self.sim, &self.sc.expect, &mut mismatches);
            check_metric_expectations(&metrics, &self.sc.metrics, &mut mismatches);
        }
        let state_digest = digest_state(&self.prog, &self.sim, &self.sc.switches);
        let gens = self
            .gen_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    name.clone(),
                    self.sim.source_counts().get(i).copied().unwrap_or(0),
                )
            })
            .collect();
        SimReport {
            scenario: self.sc.name.clone(),
            engine: self.engine,
            exec: self.exec,
            opt: self.opt,
            switches: self.sc.switches.len(),
            sim_ns: self.sim.now_ns,
            wall_ms: self.wall_s * 1e3,
            events_per_sec: if self.wall_s > 0.0 {
                self.sim.stats.processed as f64 / self.wall_s
            } else {
                0.0
            },
            stats: self.sim.stats.clone(),
            state_digest,
            gens,
            metrics,
            mismatches,
        }
    }
}
