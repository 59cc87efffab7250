//! The event-driven interpreter: a discrete-event simulation of one or more
//! Lucid switches and the network between them.
//!
//! This plays the role of the Lucid interpreter from the paper's artifact
//! ("enables rapid prototyping and testing of data-plane applications
//! without requiring access to the Tofino toolchain"), extended with the
//! timing model of §2: handler execution is one pass through a PISA
//! pipeline, `generate` to the local switch costs one recirculation
//! (~600 ns on a Tofino, Fig. 17), and events sent to a neighbor take a
//! ~1 µs wire hop.
//!
//! # Engines
//!
//! Per-switch state is an independent *shard*: its register arrays, its
//! clock, and its emission counter. One driver executes the shards — the
//! lockstep round loop — and [`Engine`] only chooses how many workers it
//! runs on:
//!
//! * [`Engine::Sequential`] — the reference: one worker owns every shard
//!   and the one event queue, and dispatches strictly in `Key` order
//!   (virtual time, then origin). A lone worker has no horizon, no
//!   mailbox traffic and nobody to wait for at a barrier, so the round
//!   loop is a straight single-threaded drain.
//! * [`Engine::Sharded`] — a conservative parallel discrete-event
//!   simulation: shards are partitioned across a small worker pool, each
//!   worker scheduling its whole slice through one local heap. Workers
//!   run lockstep rounds bounded by an *adaptive horizon* derived from
//!   the wire latency, exchanging cross-worker events through batched
//!   per-round mailboxes at the round barrier. Because a cross-switch
//!   event can never arrive sooner than one wire hop, every event a
//!   worker dispatches below its horizon is final, so each shard
//!   observes exactly the event order a lone worker would produce.
//!   Successful runs are bit-identical at every worker count: final
//!   array state, statistics, trace, printf output, and metrics all
//!   match (each worker's dispatch log is a key-sorted run; the global
//!   trace is a k-way merge of them at run's end). A sharded run that
//!   resolves to one worker — one requested, a single switch, or a
//!   zero-latency wire, which admits no conservative horizon — *is* the
//!   sequential engine.
//!
//! At one worker every stop is exact: the budget is checked before each
//! dispatch and a fault ends the run on the spot. Above one worker the
//! budget and the fault cell are checked at round barriers, so a run may
//! overshoot `max_events` before reporting
//! [`InterpFault::FuelExhausted`], and sibling shards finish the round a
//! fault happened in. The *reported* error is still deterministic (the
//! fault with the smallest event key wins).
//!
//! # Executors
//!
//! Orthogonally, [`NetConfig::exec`] picks what runs a handler body: the
//! AST walker (`walker`: the reference semantics) or compiled bytecode
//! ([`crate::bytecode`]). A world holds the one form of its program that
//! its config selects; everything around the body — scheduling, `emit`,
//! trace, statistics, metrics — is this module's and is shared.

use crate::bytecode::{CompiledProg, ExecMode, OptLevel};
use crate::metrics::{ClassHists, Metrics, ShardMetrics};
use crate::value::{Location, Value};
use crate::workload::EventSource;
use lucid_check::{mask, CheckedProgram};
use lucid_frontend::ast::{BinOp, Ty};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

mod engine;
mod sched;
mod walker;
mod world;

pub(crate) use sched::Key;
use sched::{SchedHeap, Scheduled};
pub use world::SwapStats;

// The sharded engine shares `&CheckedProgram`, and the walker's resolved
// form of it, across worker threads; this fails to compile if either
// ever grows thread-unsafe interior mutability (e.g. `Rc`).
fn _assert_prog_thread_safe() {
    fn check<T: Send + Sync>() {}
    check::<CheckedProgram>();
    check::<walker::Resolved>();
}

/// How many workers the round loop executes the shards on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One worker, one queue, one thread: the reference engine — strict
    /// `Key` order with no horizon, mailbox or barrier wait.
    #[default]
    Sequential,
    /// Lockstep-round parallel execution on a worker pool, with adaptive
    /// epoch horizons and batched cross-worker mailboxes. Resolves to
    /// one worker (the sequential engine) on a single switch or a
    /// zero-latency wire.
    Sharded {
        /// Worker threads; `0` means one per available core (capped at
        /// the number of switches).
        workers: usize,
        /// Epoch cap in sim-nanoseconds; `0` (the default) means purely
        /// adaptive horizons sized from observed wire latency. A nonzero
        /// value additionally caps each round's horizon (clamped down to
        /// the wire latency — wider would add nothing; a lone worker has
        /// no horizon to cap).
        epoch_ns: u64,
    },
}

impl Engine {
    /// Parse a CLI/scenario engine name.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "sequential" | "seq" => Some(Engine::Sequential),
            "sharded" | "parallel" => Some(Engine::Sharded {
                workers: 0,
                epoch_ns: 0,
            }),
            _ => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Sharded { .. } => "sharded",
        }
    }
}

/// Network and hardware timing parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Switch identifiers. Events located at unknown switches are dropped.
    pub switches: Vec<u64>,
    /// One-way latency between any two distinct switches, in nanoseconds.
    /// (§2.1: "sending a message from a switch's data-plane processor to
    /// its neighbor takes around 1 µs".)
    pub link_latency_ns: u64,
    /// Latency of one recirculation pass (§7.4: one recirculation ≈ 600 ns).
    pub recirc_latency_ns: u64,
    /// Which driver to run the shards with.
    pub engine: Engine,
    /// Which executor runs handler bodies (orthogonal to `engine`).
    pub exec: ExecMode,
    /// How hard the bytecode pipeline optimizes (ignored by the AST
    /// walker). Every level is bit-identical; the default is the full
    /// pipeline.
    pub opt: OptLevel,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            switches: vec![1],
            link_latency_ns: 1_000,
            recirc_latency_ns: 600,
            engine: Engine::Sequential,
            exec: ExecMode::Ast,
            opt: OptLevel::default(),
        }
    }
}

impl NetConfig {
    /// A single-switch network (the common case for app tests).
    pub fn single() -> Self {
        Self::default()
    }

    /// A fully-connected network of `n` switches with ids `1..=n`.
    pub fn mesh(n: u64) -> Self {
        NetConfig {
            switches: (1..=n).collect(),
            ..Self::default()
        }
    }

    /// Select the sharded parallel engine (`workers == 0`: one per core).
    pub fn sharded(mut self, workers: usize) -> Self {
        self.engine = Engine::Sharded {
            workers,
            epoch_ns: 0,
        };
        self
    }

    /// Select the bytecode executor.
    pub fn bytecode(mut self) -> Self {
        self.exec = ExecMode::Bytecode;
        self
    }
}

/// A record of one handled event, for assertions and tracing. The event
/// name is shared (`Arc<str>`): every record of the same event points at
/// one interned string, resolved from the id-keyed shard logs when a run
/// surfaces its trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handled {
    pub time_ns: u64,
    pub switch: u64,
    pub event: Arc<str>,
    pub args: Vec<u64>,
}

/// The shard-local form of a trace record: the event is an id into the
/// program's event table, interned to an [`Arc<str>`] once when the
/// driver surfaces the record as a [`Handled`] — the dispatch path never
/// allocates or clones a name.
#[derive(Debug)]
struct TraceRec {
    time_ns: u64,
    switch: u64,
    event_id: usize,
    args: Vec<u64>,
}

impl TraceRec {
    fn into_handled(self, names: &[Arc<str>]) -> Handled {
        Handled {
            time_ns: self.time_ns,
            switch: self.switch,
            event: names[self.event_id].clone(),
            args: self.args,
        }
    }
}

/// A shard-local `printf` record. The bytecode executor defers
/// formatting: it records the interned format-string id plus the
/// evaluated values, and the driver renders the line once when the run
/// surfaces its output. The AST walker records the formatted line
/// directly.
#[derive(Debug)]
pub(crate) enum OutRec {
    Line(String),
    Fmt { fmt: u16, vals: Vec<Value> },
}

impl OutRec {
    fn render(self, code: &Code) -> String {
        match self {
            OutRec::Line(s) => s,
            OutRec::Fmt { fmt, vals } => {
                let Code::Bytecode(cp) = code else {
                    panic!("deferred printf comes from the bytecode executor")
                };
                format_printf(cp.fmt_str(fmt), &vals)
            }
        }
    }
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Events popped from a queue (handled + exported + dropped-at-switch).
    pub processed: u64,
    /// Events whose handler ran.
    pub handled: u64,
    /// Events generated to the local switch (each costs a recirculation).
    pub recirculated: u64,
    /// Events sent to other switches.
    pub sent_remote: u64,
    /// Events for which no handler exists (treated as exported packets).
    pub exported: u64,
    /// Events dropped because their destination switch does not exist or
    /// is failed.
    pub dropped: u64,
    /// Per-event-name counts of everything dispatched on a live switch
    /// (handled *and* exported events; dropped ones are not counted).
    pub per_event: HashMap<String, u64>,
}

impl Stats {
    /// Move `other`'s counts into `self`, leaving `other` zeroed.
    fn absorb(&mut self, other: &mut Stats) {
        self.processed += other.processed;
        self.handled += other.handled;
        self.recirculated += other.recirculated;
        self.sent_remote += other.sent_remote;
        self.exported += other.exported;
        self.dropped += other.dropped;
        for (name, n) in other.per_event.drain() {
            *self.per_event.entry(name).or_insert(0) += n;
        }
        *other = Stats {
            per_event: std::mem::take(&mut other.per_event),
            ..Stats::default()
        };
    }
}

/// What went wrong at runtime. The checker rules out type errors, so what
/// remains are data-dependent faults — exactly the ones a hardware target
/// would also hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpFault {
    /// Array index outside the declared length.
    IndexOutOfBounds { array: String, index: u64, len: u64 },
    /// The run exceeded its event budget (likely a runaway recursion).
    FuelExhausted { handled: u64 },
    /// An event was scheduled by name that does not exist.
    NoSuchEvent(String),
    /// Wrong number of arguments in an externally injected event.
    BadArity {
        event: String,
        want: usize,
        got: usize,
    },
}

/// Where a fault happened: the deterministic key of the event being
/// handled (or the injection being scheduled) plus its destination
/// switch, so a failing scenario points at the offending event instead
/// of a bare message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultAt {
    /// Virtual time of the event, nanoseconds.
    pub time_ns: u64,
    /// Destination switch.
    pub switch: u64,
    /// Event name.
    pub event: String,
    /// `None` for externally injected events, `Some(src)` for events a
    /// handler on switch `src` generated.
    pub origin: Option<u64>,
    /// The event key's tie-breaker: the injection counter (per workload
    /// source, for sourced events) for external events, the per-source
    /// emission counter for generated ones.
    pub seq: u64,
}

impl fmt::Display for FaultAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` on switch {} at {}ns ({})",
            self.event,
            self.switch,
            self.time_ns,
            match self.origin {
                None => format!("injection #{}", self.seq),
                Some(src) => format!("generated by switch {src}, #{}", self.seq),
            }
        )
    }
}

/// Runtime failure: the fault itself plus, when known, the event whose
/// handling (or injection) triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    pub kind: InterpFault,
    pub at: Option<FaultAt>,
}

impl From<InterpFault> for InterpError {
    fn from(kind: InterpFault) -> Self {
        InterpError { kind, at: None }
    }
}

impl InterpError {
    /// Attach a fault location, keeping an earlier (more precise) one.
    pub(crate) fn located(mut self, at: FaultAt) -> Self {
        if self.at.is_none() {
            self.at = Some(at);
        }
        self
    }

    /// One-line JSON rendering (for `lucidc sim --json`).
    pub fn to_json(&self) -> String {
        let kind = match &self.kind {
            InterpFault::IndexOutOfBounds { .. } => "index_out_of_bounds",
            InterpFault::FuelExhausted { .. } => "fuel_exhausted",
            InterpFault::NoSuchEvent(_) => "no_such_event",
            InterpFault::BadArity { .. } => "bad_arity",
        };
        lucid_frontend::json::write(|w| {
            w.obj(|w| {
                w.key("kind").str(kind);
                w.key("msg").str(&self.kind.to_string());
                w.key("at");
                let Some(at) = &self.at else {
                    w.null();
                    return;
                };
                w.obj(|w| {
                    w.key("time_ns").u64(at.time_ns);
                    w.key("switch").u64(at.switch);
                    w.key("event").str(&at.event).key("origin");
                    match at.origin {
                        Some(o) => w.u64(o),
                        None => w.null(),
                    };
                    w.key("seq").u64(at.seq);
                });
            });
        })
    }
}

impl fmt::Display for InterpFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpFault::IndexOutOfBounds { array, index, len } => write!(
                f,
                "index {index} out of bounds for array `{array}` (len {len})"
            ),
            InterpFault::FuelExhausted { handled } => {
                write!(f, "event budget exhausted after {handled} events")
            }
            InterpFault::NoSuchEvent(n) => write!(f, "no event named `{n}`"),
            InterpFault::BadArity { event, want, got } => {
                write!(f, "event `{event}` wants {want} args, got {got}")
            }
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(at) = &self.at {
            write!(f, " — at {at}")?;
        }
        Ok(())
    }
}

impl std::error::Error for InterpError {}

/// Per-switch persistent state: one `Vec<u64>` per global array, in
/// declaration (= stage) order. Registers reset to zero, as on hardware.
#[derive(Debug, Clone)]
pub struct SwitchState {
    pub arrays: Vec<Vec<u64>>,
}

impl SwitchState {
    fn zeroed(prog: &CheckedProgram) -> Self {
        SwitchState {
            arrays: prog
                .info
                .globals
                .iter()
                .map(|g| vec![0u64; g.len as usize])
                .collect(),
        }
    }
}

/// One switch's independent slice of the simulation: persistent arrays,
/// its clock, and run-local buffers that the driver drains back into the
/// [`Interp`] at the end of a run.
#[derive(Debug)]
pub(crate) struct Shard {
    switch: u64,
    /// A failed switch keeps its shard (so queued events can be counted
    /// as dropped) but loses its state.
    alive: bool,
    pub(crate) state: SwitchState,
    /// Per-source emission counter feeding [`Key::seq`].
    emit_seq: u64,
    /// This shard's virtual clock: the latest event time it has executed.
    pub(crate) now_ns: u64,
    trace: Vec<(Key, TraceRec)>,
    pub(crate) output: Vec<(Key, OutRec)>,
    stats: Stats,
    /// Events generated for *other* switches, awaiting routing.
    outbox: Vec<Scheduled>,
    /// The owning worker's argument arena, lent for the length of one
    /// dispatch (empty otherwise): the handler draws its `generate`
    /// buffers here and the dispatched event's buffer retires here.
    pub(crate) arena: ArgArena,
    /// Reusable bytecode register / object-slot / hash-argument buffers.
    pub(crate) bc_regs: Vec<crate::bytecode::Rv>,
    pub(crate) bc_objs: Vec<crate::bytecode::Obj>,
    pub(crate) bc_hash: Vec<u64>,
    /// Reusable walker buffer (it shares `bc_hash`): every live
    /// activation's locals.
    walk_frame: Vec<Value>,
    /// Per-event-id dispatch counts; folded into the name-keyed
    /// [`Stats::per_event`] once per run (keeps the dispatch hot path
    /// free of string allocation and hashing).
    per_event_ids: Vec<u64>,
    /// Per-event-id latency histograms, same id-indexed pattern as
    /// `per_event_ids`: lock-free on the dispatch path, folded into the
    /// interpreter-level [`Metrics`] once per run.
    metrics: ShardMetrics,
    /// Root-injection time of the event currently dispatching, so
    /// `generate` can thread the causal chain's root into its emissions.
    cur_root_ns: u64,
}

impl Shard {
    fn new(switch: u64, prog: &CheckedProgram) -> Self {
        Shard {
            switch,
            alive: true,
            state: SwitchState::zeroed(prog),
            emit_seq: 0,
            now_ns: 0,
            trace: Vec::new(),
            output: Vec::new(),
            stats: Stats::default(),
            outbox: Vec::new(),
            arena: ArgArena::default(),
            bc_regs: Vec::new(),
            bc_objs: Vec::new(),
            bc_hash: Vec::new(),
            walk_frame: Vec::new(),
            per_event_ids: vec![0; prog.info.events.len()],
            metrics: ShardMetrics::new(prog.info.events.len()),
            cur_root_ns: 0,
        }
    }
}

/// How many buffers an [`ArgArena`] keeps (≈ 56 KiB of three-word
/// argument lists): far above the in-flight frontier of any bundled
/// workload, and what bounds a worker that only ever receives buffers —
/// mailed to it by the source's puller or a sibling — and never sends
/// one back.
const ARENA_CAP: usize = 1024;

/// A worker's freelist of argument buffers for [`Scheduled`] events. An
/// event whose buffer does not move into the trace — every event of an
/// untraced run, and drops and multicast sources always — retires it
/// here, and the next `generate`, sourced pull or [`Interp::schedule`]
/// reuses it, so an untraced run's memory is bounded by its in-flight
/// frontier plus [`ARENA_CAP`] instead of growing with every injection.
/// Only cleared buffers are inside; the arena is never world state (no
/// snapshot or digest sees it) and parks on the [`Interp`] between runs.
#[derive(Debug, Default)]
pub(crate) struct ArgArena {
    free: Vec<Vec<u64>>,
}

impl ArgArena {
    /// An empty buffer: a recycled one, or — traced runs move every
    /// buffer into the trace, where slack would be kept for good — a
    /// fresh one of exactly `arity` words.
    pub(crate) fn take(&mut self, arity: usize) -> Vec<u64> {
        self.free.pop().unwrap_or_else(|| Vec::with_capacity(arity))
    }

    /// Retire the buffer of a dead event; past the cap it is freed.
    pub(crate) fn give(&mut self, mut buf: Vec<u64>) {
        if self.free.len() < ARENA_CAP {
            buf.clear();
            self.free.push(buf);
        }
    }
}

/// A `generate`d event on its way to [`Exec::emit`]: [`EventVal`]
/// without the name, which nothing on the emit path reads — the
/// bytecode executor builds these directly, the walker converts its
/// [`Value::Event`] at `generate`.
///
/// [`EventVal`]: crate::value::EventVal
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Emitted {
    pub(crate) event_id: usize,
    /// Carried data, already masked to each parameter's width.
    pub(crate) args: Vec<u64>,
    /// Extra delay accumulated from `Event.delay`, in nanoseconds.
    pub(crate) delay_ns: u64,
    pub(crate) location: Location,
}

/// The handler-execution engine: immutable program + timing parameters.
/// It mutates exactly one shard at a time, which is what lets the worker
/// pool run shards concurrently.
#[derive(Clone)]
pub(crate) struct Exec {
    prog: Arc<CheckedProgram>,
    recirc_ns: u64,
    link_ns: u64,
    /// Whether handled/exported events are retained in the trace. Off,
    /// the per-event record is skipped and its argument buffer goes
    /// straight back to the worker's arena — for throughput measurement,
    /// where nobody reads the trace and retaining it taxes every row.
    record_trace: bool,
    code: Code,
}

/// What runs handler bodies: the executable form of the program that
/// [`NetConfig::exec`] selects, built once per (program, world) — at
/// construction, on hot-swap, when `exec` / `opt` change between runs —
/// and shared with the worker pool.
#[derive(Clone)]
enum Code {
    /// The AST walker's resolved tree (the reference semantics).
    Walker(Arc<walker::Resolved>),
    Bytecode(Arc<CompiledProg>),
}

impl Code {
    fn build(prog: &CheckedProgram, config: &NetConfig, names: &[Arc<str>]) -> Code {
        match config.exec {
            ExecMode::Ast => Code::Walker(Arc::new(walker::Resolved::new(prog, names))),
            ExecMode::Bytecode => {
                Code::Bytecode(Arc::new(CompiledProg::compile_opt(prog, config.opt)))
            }
        }
    }
}

impl Exec {
    /// Declared event with no handler: it leaves the simulated network
    /// (e.g. a report exported to a collector). It still counts in
    /// `per_event`, so scenario expectations can assert on exported
    /// reports.
    fn note_exported(&self, shard: &mut Shard, sched: Scheduled) {
        shard.stats.exported += 1;
        shard.per_event_ids[sched.event_id] += 1;
        if !self.record_trace {
            shard.arena.give(sched.args);
            return;
        }
        shard.trace.push((
            sched.key,
            TraceRec {
                time_ns: sched.key.time_ns,
                switch: sched.switch,
                event_id: sched.event_id,
                args: sched.args,
            },
        ));
    }

    /// Record a handled event's trace entry. Called *after* the handler
    /// body ran (faulted or not) so the schedule entry's args move into
    /// the trace instead of being cloned — observably identical: the
    /// entry lands before the next event dispatches, faulting events
    /// included, and printf output lives in its own keyed buffer.
    fn note_handled(
        &self,
        shard: &mut Shard,
        event_id: usize,
        key: Key,
        switch: u64,
        args: Vec<u64>,
    ) {
        shard.stats.handled += 1;
        if !self.record_trace {
            shard.arena.give(args);
            return;
        }
        shard.trace.push((
            key,
            TraceRec {
                time_ns: key.time_ns,
                switch,
                event_id,
                args,
            },
        ));
    }

    /// Run one event on its shard. The caller has already popped it from
    /// the shard queue and advanced the shard clock.
    fn dispatch(&self, shard: &mut Shard, sched: Scheduled) -> Result<(), InterpError> {
        if !shard.alive {
            shard.stats.dropped += 1;
            shard.arena.give(sched.args);
            return Ok(());
        }

        // Metrics: both measurements are differences of deterministic
        // virtual instants (dispatch time is the event's own key time in
        // either engine), so sequential and sharded runs record
        // identical samples. Dropped events never dispatch and are not
        // measured; handled and exported events both are, matching
        // `per_event` counts. Only derived (class-1) events carry a
        // dispatch-latency sample — an injection is its own root. The
        // root instant is parked on the shard so any `generate` in the
        // handler body inherits it.
        shard.metrics.record(
            sched.event_id,
            (sched.key.class == 1).then(|| sched.key.time_ns - sched.root_ns),
            sched.key.time_ns - sched.enq_ns,
        );
        shard.cur_root_ns = sched.root_ns;

        // Either executor finds the handler by event id.
        let (id, key, switch) = (sched.event_id, sched.key, sched.switch);
        let ran = match &self.code {
            Code::Walker(w) => w.run_handler(id, self, shard, switch, key, &sched.args),
            Code::Bytecode(cp) => cp
                .handler(id)
                .map(|h| cp.run_handler(h, self, shard, switch, key, &sched.args)),
        };
        let Some(res) = ran else {
            self.note_exported(shard, sched);
            return Ok(());
        };
        shard.per_event_ids[id] += 1;
        self.note_handled(shard, id, key, switch, sched.args);
        // The event's name is cloned only into a fault's location.
        res.map_err(|e| e.located(key.fault_at(switch, &self.prog.info.events[id].name)))
    }

    /// Schedule a generated event according to its location and delay:
    /// one outbox entry per target, for the worker to route.
    pub(crate) fn emit(&self, shard: &mut Shard, ev: Emitted) {
        let from = shard.switch;
        let lat_to = |target: u64| {
            if target == from {
                self.recirc_ns
            } else {
                self.link_ns
            }
        };
        let Emitted {
            event_id: id,
            args,
            delay_ns: delay,
            location,
        } = ev;
        // Unicast (the overwhelmingly common case) moves the event's
        // args straight into the schedule entry: no clone, no target
        // vector. Multicast clones once per member.
        match location {
            Location::Here => self.emit_one(shard, from, self.recirc_ns + delay, id, args),
            Location::Switch(s) => self.emit_one(shard, s, lat_to(s) + delay, id, args),
            Location::Group(members) => {
                // Each member gets a copy built in an arena buffer; the
                // source buffer itself recycles once the fan-out is done.
                for &m in &members {
                    let mut copy = shard.arena.take(args.len());
                    copy.extend_from_slice(&args);
                    self.emit_one(shard, m, lat_to(m) + delay, id, copy);
                }
                shard.arena.give(args);
            }
        }
    }

    /// Schedule one copy of a generated event at one target, `after_ns`
    /// (wire or recirculation latency plus the event's own delay) from
    /// the shard's clock.
    fn emit_one(&self, shard: &mut Shard, target: u64, after_ns: u64, id: usize, args: Vec<u64>) {
        let from = shard.switch;
        shard.emit_seq += 1;
        let sched = Scheduled {
            key: Key {
                time_ns: shard.now_ns + after_ns,
                class: 1,
                origin: from,
                seq: shard.emit_seq,
            },
            switch: target,
            event_id: id,
            args,
            enq_ns: shard.now_ns,
            root_ns: shard.cur_root_ns,
        };
        if target == from {
            shard.stats.recirculated += 1;
        } else {
            shard.stats.sent_remote += 1;
        }
        // Every emission (recirculation or remote) goes through the
        // outbox; the worker owns the queue it lands on.
        shard.outbox.push(sched);
    }
}

/// The interpreter. Owns the checked program (shared via `Arc` so sessions,
/// snapshots, and hot-swap can hold the world without a borrow) and all
/// simulation state.
pub struct Interp {
    prog: Arc<CheckedProgram>,
    pub config: NetConfig,
    /// One shard per configured switch, keyed by switch id.
    shards: BTreeMap<u64, Shard>,
    /// The one event queue: every pending event between runs.
    queue: SchedHeap,
    /// Worker 0's argument arena, parked here between runs like `queue`
    /// so a session of many short runs warms it once.
    arena: ArgArena,
    /// Injection counter feeding [`Key::seq`] for external events.
    inj_seq: u64,
    /// Simulation clock, nanoseconds.
    pub now_ns: u64,
    /// Every handled event, in deterministic `Key` order. Cleared with
    /// [`Interp::clear_trace`].
    pub trace: Vec<Handled>,
    /// Interned event names, one `Arc<str>` per event id; every
    /// [`Handled`] record resolves its name here with a refcount bump
    /// when the id-keyed shard logs surface into `trace`.
    names: Vec<Arc<str>>,
    /// `printf` output lines, in the same deterministic order.
    pub output: Vec<String>,
    pub stats: Stats,
    /// When false, handled/exported events are not retained in `trace`
    /// (statistics, per-event counts, metrics, and `printf` output are
    /// unaffected). Defaults to true; benchmarks turn it off so rows
    /// don't pay for a per-event log nobody reads.
    record_trace: bool,
    /// The executable form of `prog` that `config.exec` selects.
    code: Code,
    /// Attached streaming injection source ([`Interp::set_source`]),
    /// drained lazily — events materialize only when due, so what a
    /// ten-million-event workload holds at once is its in-flight
    /// frontier (plus, with trace retention on, the trace).
    source: Option<Box<dyn EventSource + Send>>,
    /// Events injected per source index (for per-generator report rows).
    source_counts: Vec<u64>,
    /// Per-class latency histograms folded out of the shards once per
    /// run, keyed (switch, event name) for deterministic order. Each
    /// class lives on exactly one shard and histogram merge commutes, so
    /// both engines accumulate bit-identical content here.
    metrics_acc: BTreeMap<(u64, String), ClassHists>,
}

impl Interp {
    /// Build a world from a borrowed program (clones it into a shared
    /// [`Arc`]; use [`Interp::from_arc`] to avoid the copy).
    pub fn new(prog: &CheckedProgram, config: NetConfig) -> Self {
        Interp::from_arc(Arc::new(prog.clone()), config)
    }

    /// Build a world around an already-shared program.
    pub fn from_arc(prog: Arc<CheckedProgram>, config: NetConfig) -> Self {
        let shards = config
            .switches
            .iter()
            .map(|&s| (s, Shard::new(s, &prog)))
            .collect();
        let names = intern_names(&prog);
        Interp {
            code: Code::build(&prog, &config, &names),
            prog,
            config,
            shards,
            queue: SchedHeap::default(),
            arena: ArgArena::default(),
            inj_seq: 0,
            now_ns: 0,
            trace: Vec::new(),
            names,
            output: Vec::new(),
            stats: Stats::default(),
            record_trace: true,
            source: None,
            source_counts: Vec::new(),
            metrics_acc: BTreeMap::new(),
        }
    }

    /// Single-switch interpreter with default timing.
    pub fn single(prog: &CheckedProgram) -> Self {
        Interp::new(prog, NetConfig::single())
    }

    /// The program this world runs (shared handle).
    pub fn program(&self) -> &Arc<CheckedProgram> {
        &self.prog
    }

    /// Toggle trace retention (on by default). Off, handled/exported
    /// events skip their [`Handled`] record entirely; everything else —
    /// stats, per-event counts, metrics, `printf` output, final state —
    /// is byte-identical to a recording run.
    pub fn set_record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// `config` is public, so every run re-checks it: the code is rebuilt
    /// when [`NetConfig::exec`] / [`NetConfig::opt`] no longer select it
    /// (flipping them between runs is supported), and never otherwise.
    fn ensure_code(&mut self) {
        let current = match (&self.code, self.config.exec) {
            (Code::Walker(_), ExecMode::Ast) => true,
            (Code::Bytecode(cp), ExecMode::Bytecode) => cp.opt_level() == self.config.opt,
            _ => false,
        };
        if !current {
            self.code = Code::build(&self.prog, &self.config, &self.names);
        }
    }

    fn exec(&self) -> Exec {
        Exec {
            prog: Arc::clone(&self.prog),
            recirc_ns: self.config.recirc_latency_ns,
            link_ns: self.config.link_latency_ns,
            record_trace: self.record_trace,
            code: self.code.clone(),
        }
    }

    /// Schedule an externally injected event (e.g. a packet arrival) by
    /// name at an absolute time. Injections to switches outside the
    /// configured topology are counted as dropped immediately.
    pub fn schedule(
        &mut self,
        switch: u64,
        time_ns: u64,
        event: &str,
        args: &[u64],
    ) -> Result<(), InterpError> {
        // Failed injections point at themselves: the offending time,
        // switch, and name, so a scenario error names the bad line.
        let at = FaultAt {
            time_ns,
            switch,
            event: event.to_string(),
            origin: None,
            seq: self.inj_seq + 1,
        };
        let ev = self.prog.info.event(event).ok_or_else(|| {
            InterpError::from(InterpFault::NoSuchEvent(event.to_string())).located(at.clone())
        })?;
        if ev.params.len() != args.len() {
            return Err(InterpError::from(InterpFault::BadArity {
                event: event.to_string(),
                want: ev.params.len(),
                got: args.len(),
            })
            .located(at));
        }
        if !self.shards.contains_key(&switch) {
            self.stats.dropped += 1;
            return Ok(());
        }
        let mut masked = self.arena.take(args.len());
        let widths = ev.params.iter().map(|p| p.ty.int_width().unwrap_or(32));
        masked.extend(args.iter().zip(widths).map(|(a, w)| mask(*a, w)));
        self.inj_seq += 1;
        self.queue.push(Scheduled {
            key: Key {
                time_ns,
                class: 0,
                origin: 0,
                seq: self.inj_seq,
            },
            switch,
            event_id: ev.id,
            args: masked,
            // An injection roots its own causal chain and spends no
            // virtual time queued (it is scheduled at its arrival
            // instant), so both metric baselines are the key time.
            enq_ns: time_ns,
            root_ns: time_ns,
        });
        Ok(())
    }

    /// Attach a streaming injection source. Subsequent [`Interp::run`]
    /// calls drain it lazily, interleaved with explicitly scheduled
    /// events in deterministic key order (sourced events are class-0
    /// injections keyed per source — see `shape_sourced`). The source
    /// persists across runs until exhausted or replaced.
    pub fn set_source(&mut self, source: Box<dyn EventSource + Send>) {
        self.source_counts = vec![0; source.source_count()];
        self.source = Some(source);
    }

    /// Whether the attached source still has events to emit.
    pub fn source_pending(&self) -> bool {
        self.source.as_ref().is_some_and(|s| s.peek_ns().is_some())
    }

    /// Events injected so far per source index (empty without a source).
    pub fn source_counts(&self) -> &[u64] {
        &self.source_counts
    }

    /// Read a global array on a switch (for assertions). Panics if the
    /// switch is unknown or currently failed; see [`Interp::try_array`].
    pub fn array(&self, switch: u64, name: &str) -> &[u64] {
        self.try_array(switch, name)
            .unwrap_or_else(|| panic!("switch {switch} is unknown or failed"))
    }

    /// Read a global array on a switch, `None` when the switch is unknown
    /// or failed.
    pub fn try_array(&self, switch: u64, name: &str) -> Option<&[u64]> {
        let gid = self.prog.info.globals_by_name[name];
        let shard = self.shards.get(&switch)?;
        if !shard.alive {
            return None;
        }
        Some(&shard.state.arrays[gid.0])
    }

    /// Whether a switch is configured and currently alive.
    pub fn alive(&self, switch: u64) -> bool {
        self.shards.get(&switch).is_some_and(|s| s.alive)
    }

    /// Overwrite a global array cell (test setup / fault injection).
    pub fn poke(&mut self, switch: u64, name: &str, index: usize, value: u64) {
        let gid = self.prog.info.globals_by_name[name];
        let g = &self.prog.info.globals[gid.0];
        let v = mask(value, g.cell_width);
        self.shards
            .get_mut(&switch)
            .expect("switch exists")
            .state
            .arrays[gid.0][index] = v;
    }

    /// Fault injection: take a switch offline. Its state is lost and any
    /// event destined to it is dropped (counted in [`Stats::dropped`]),
    /// exactly like a dead box on the wire.
    pub fn fail_switch(&mut self, id: u64) {
        if let Some(shard) = self.shards.get_mut(&id) {
            shard.alive = false;
            shard.state = SwitchState::zeroed(&self.prog);
        }
    }

    /// Bring a previously failed switch back with zeroed registers (a
    /// rebooted switch does not remember its arrays).
    pub fn recover_switch(&mut self, id: u64) {
        if let Some(shard) = self.shards.get_mut(&id) {
            shard.alive = true;
            shard.state = SwitchState::zeroed(&self.prog);
        }
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    pub fn clear_trace(&mut self) {
        self.trace.clear();
        self.output.clear();
    }

    /// Fold every shard's id-indexed per-event counters into the
    /// name-keyed [`Stats::per_event`] map, zeroing the counters (safe
    /// to call any number of times).
    fn fold_per_event_counts(&mut self) {
        for shard in self.shards.values_mut() {
            for (id, n) in shard.per_event_ids.iter_mut().enumerate() {
                if *n > 0 {
                    *self
                        .stats
                        .per_event
                        .entry(self.prog.info.events[id].name.clone())
                        .or_insert(0) += *n;
                    *n = 0;
                }
            }
        }
    }

    /// Fold every shard's per-event histograms into the metrics
    /// accumulator, zeroing the shard collectors (safe to call any
    /// number of times; accumulates across segmented runs the way a
    /// failure schedule drives them).
    fn fold_metrics(&mut self) {
        for shard in self.shards.values_mut() {
            Metrics::absorb_shard(
                &mut self.metrics_acc,
                shard.switch,
                &mut shard.metrics,
                |id| self.prog.info.events[id].name.clone(),
            );
        }
    }

    /// The per-event-class latency metrics accumulated so far, one row
    /// per (switch, event) class in sorted order. Deterministic and
    /// engine-independent: both engines yield bit-identical metrics
    /// ([`Metrics::digest`]) on successful runs, same contract as state,
    /// stats, and trace.
    pub fn metrics(&self) -> Metrics {
        Metrics::from_acc(&self.metrics_acc)
    }

    /// Run with a generous default budget; most tests use this.
    pub fn run_to_quiescence(&mut self) -> Result<(), InterpError> {
        self.run(1_000_000, u64::MAX)
    }
}

/// One shared name per event id, for trace records and event values.
fn intern_names(prog: &CheckedProgram) -> Vec<Arc<str>> {
    let events = prog.info.events.iter();
    events.map(|e| Arc::from(e.name.as_str())).collect()
}

fn value_of(ty: Ty, raw: u64) -> Value {
    match ty {
        Ty::Bool => Value::Bool(raw != 0),
        Ty::Int(w) => Value::int(raw, w),
        _ => Value::int(raw, 32),
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    if op.is_comparison() {
        let a = l.as_int().expect("checked");
        let b = r.as_int().expect("checked");
        return Value::Bool(match op {
            BinOp::Eq => a == b,
            BinOp::Neq => a != b,
            BinOp::Lt => a < b,
            BinOp::Gt => a > b,
            BinOp::Le => a <= b,
            BinOp::Ge => a >= b,
            _ => unreachable!(),
        });
    }
    let (a, wa) = match l {
        Value::Int { v, width } => (*v, *width),
        Value::Bool(b) => (*b as u64, 1),
        _ => panic!("checked: arithmetic on non-int"),
    };
    let (b, wb) = match r {
        Value::Int { v, width } => (*v, *width),
        Value::Bool(b) => (*b as u64, 1),
        _ => panic!("checked: arithmetic on non-int"),
    };
    // Shifts keep the shifted operand's width (the checker types `a << b`
    // as `a`'s width regardless of `b`'s); everything else joins widths.
    let w = match op {
        BinOp::Shl | BinOp::Shr => wa,
        _ => wa.max(wb),
    };
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        // Division by zero yields zero in the data plane.
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Mod => a.checked_rem(b).unwrap_or(0),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        // A shift count at or past the operand width clears every bit of
        // a `width`-bit register; `wrapping_shl` alone would wrap the
        // count mod 64 and leave bits behind for 64-bit operands.
        BinOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                a.wrapping_shl(b as u32)
            }
        }
        BinOp::Shr => {
            if b >= w as u64 {
                0
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
        _ => unreachable!(),
    };
    Value::int(v, w)
}

/// Minimal printf: `%d` decimal, `%x` hex, `%b` binary, `%%` literal.
pub(crate) fn format_printf(fmt: &str, args: &[Value]) -> String {
    let mut out = String::new();
    let mut it = args.iter();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('d') | None => {
                if let Some(v) = it.next() {
                    out.push_str(&v.to_string());
                }
            }
            Some('x') => {
                if let Some(v) = it.next() {
                    out.push_str(&format!("{:x}", v.as_int().unwrap_or(0)));
                }
            }
            Some('b') => {
                if let Some(v) = it.next() {
                    out.push_str(&format!("{:b}", v.as_int().unwrap_or(0)));
                }
            }
            Some(other) => {
                out.push('%');
                out.push(other);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SourcedEvent;
    use lucid_check::parse_and_check;

    fn checked(src: &str) -> CheckedProgram {
        match parse_and_check(src) {
            Ok(p) => p,
            Err(ds) => panic!("check failed:\n{ds}"),
        }
    }

    #[test]
    fn counter_program_counts() {
        let prog = checked(
            r#"
            global cts = new Array<<32>>(8);
            memop plus(int m, int x) { return m + x; }
            event pkt(int idx);
            handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
            "#,
        );
        let mut i = Interp::single(&prog);
        for t in 0..5 {
            i.schedule(1, t * 100, "pkt", &[3]).unwrap();
        }
        i.schedule(1, 600, "pkt", &[5]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "cts")[3], 5);
        assert_eq!(i.array(1, "cts")[5], 1);
        assert_eq!(i.stats.handled, 6);
    }

    #[test]
    fn generate_recirculates_with_latency() {
        let prog = checked(
            r#"
            global hits = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            event ping(int n);
            handle ping(int n) {
                Array.setm(hits, 0, plus, 1);
                if (n > 0) { generate ping(n - 1); }
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "ping", &[3]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "hits")[0], 4);
        assert_eq!(i.stats.recirculated, 3);
        // 3 recirculations at 600 ns each.
        assert_eq!(i.trace.last().unwrap().time_ns, 3 * 600);
    }

    #[test]
    fn delay_combinator_shifts_execution_time() {
        let prog = checked(
            r#"
            event tick(int n);
            event noop();
            handle tick(int n) {
                generate Event.delay(noop(), 100);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "tick", &[0]).unwrap();
        i.run_to_quiescence().unwrap();
        // noop has no handler → exported; delay 100 µs + 600 ns recirc.
        let last = i.trace.last().unwrap();
        assert_eq!(&*last.event, "noop");
        assert_eq!(last.time_ns, 100_000 + 600);
        assert_eq!(i.stats.exported, 1);
    }

    #[test]
    fn locate_sends_to_other_switch() {
        let prog = checked(
            r#"
            global seen = new Array<<32>>(4);
            event probe(int from);
            handle probe(int from) {
                Array.set(seen, 0, from);
            }
            event kick(int target);
            handle kick(int target) {
                generate Event.locate(probe(SELF), target);
            }
            "#,
        );
        let mut i = Interp::new(&prog, NetConfig::mesh(2));
        i.schedule(1, 0, "kick", &[2]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(2, "seen")[0], 1, "switch 2 should record sender 1");
        assert_eq!(i.array(1, "seen")[0], 0);
        assert_eq!(i.stats.sent_remote, 1);
    }

    #[test]
    fn mlocate_broadcasts_to_group() {
        let prog = checked(
            r#"
            const group NEIGHBORS = {2, 3};
            global seen = new Array<<32>>(4);
            event probe(int from);
            handle probe(int from) { Array.set(seen, 0, from); }
            event kick();
            handle kick() {
                mgenerate Event.mlocate(probe(SELF), NEIGHBORS);
            }
            "#,
        );
        let mut i = Interp::new(&prog, NetConfig::mesh(3));
        i.schedule(1, 0, "kick", &[]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(2, "seen")[0], 1);
        assert_eq!(i.array(3, "seen")[0], 1);
    }

    #[test]
    fn array_update_returns_old_and_writes_new() {
        let prog = checked(
            r#"
            global slots = new Array<<32>>(4);
            global log = new Array<<32>>(4);
            memop read(int m, int x) { return m; }
            memop write(int m, int x) { return x; }
            event swap(int idx, int v);
            handle swap(int idx, int v) {
                int old = Array.update(slots, idx, read, 0, write, v);
                Array.set(log, idx, old);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "swap", &[2, 77]).unwrap();
        i.schedule(1, 100, "swap", &[2, 88]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "slots")[2], 88);
        assert_eq!(
            i.array(1, "log")[2],
            77,
            "second swap must observe the first value"
        );
    }

    #[test]
    fn function_with_array_param_runs() {
        let prog = checked(
            r#"
            global a = new Array<<32>>(4);
            global b = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            fun int bump(Array<<32>> arr, int i) {
                return Array.update(arr, i, plus, 1, plus, 1);
            }
            event go(int i);
            handle go(int i) {
                int x = bump(a, i);
                int y = bump(b, i);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[0]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "a")[0], 1);
        assert_eq!(i.array(1, "b")[0], 1);
    }

    #[test]
    fn out_of_bounds_traps() {
        let prog = checked(
            r#"
            global a = new Array<<32>>(4);
            event go(int i);
            handle go(int i) { Array.set(a, i, 1); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[9]).unwrap();
        let err = i.run_to_quiescence().unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::IndexOutOfBounds { index: 9, .. }),
            "{err}"
        );
    }

    #[test]
    fn runaway_recursion_hits_fuel() {
        let prog = checked(
            r#"
            event spin();
            handle spin() { generate spin(); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "spin", &[]).unwrap();
        let err = i.run(1_000, u64::MAX).unwrap_err();
        assert!(matches!(err.kind, InterpFault::FuelExhausted { .. }));
    }

    #[test]
    fn printf_formats() {
        let prog = checked(
            r#"
            event go(int x);
            handle go(int x) { printf("x=%d hex=%x pct=%%", x, x); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[255]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.output, vec!["x=255 hex=ff pct=%"]);
    }

    #[test]
    fn shift_by_width_or_more_clears_narrow_registers() {
        // `x << n` / `x >> n` keep x's width; a count at or past that
        // width must zero the register — not wrap the count mod 64, and
        // not widen the result to the count's width.
        let prog = checked(
            r#"
            global a = new Array<<8>>(1);
            global b = new Array<<8>>(1);
            global c = new Array<<8>>(1);
            global d = new Array<<8>>(1);
            event go(int<<8>> x, int n);
            handle go(int<<8>> x, int n) {
                Array.set(a, 0, x << 1);
                Array.set(b, 0, x << n);
                Array.set(c, 0, x >> n);
                Array.set(d, 0, x >> 2);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[0xAB, 9]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "a")[0], 0x56, "0xAB << 1 masked to 8 bits");
        assert_eq!(i.array(1, "b")[0], 0, "count 9 >= width 8 clears");
        assert_eq!(i.array(1, "c")[0], 0, "right shift past the width too");
        assert_eq!(i.array(1, "d")[0], 0x2A);
    }

    #[test]
    fn shift_by_64_or_more_clears_wide_registers() {
        // The 64-bit case is where `wrapping_shl` alone went wrong: a
        // count of 64 wraps to 0 and leaves the value untouched.
        let prog = checked(
            r#"
            global lo = new Array<<64>>(1);
            global hi = new Array<<64>>(1);
            event go(int<<64>> x, int n);
            handle go(int<<64>> x, int n) {
                Array.set(lo, 0, x << n);
                Array.set(hi, 0, x >> n);
            }
            "#,
        );
        for (n, want_shl) in [(63u64, 0x8000_0000_0000_0000u64), (64, 0), (200, 0)] {
            let mut i = Interp::single(&prog);
            i.schedule(1, 0, "go", &[1, n]).unwrap();
            i.run_to_quiescence().unwrap();
            assert_eq!(i.array(1, "lo")[0], want_shl, "1 << {n}");
            assert_eq!(i.array(1, "hi")[0], 0, "1 >> {n}");
        }
    }

    #[test]
    fn narrow_width_arithmetic_wraps() {
        let prog = checked(
            r#"
            global out = new Array<<8>>(1);
            event go(int<<8>> x);
            handle go(int<<8>> x) { Array.set(out, 0, x + 1); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[255]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "out")[0], 0, "8-bit 255+1 wraps to 0");
    }

    #[test]
    fn events_to_unknown_switch_dropped() {
        let prog = checked(
            r#"
            event probe(int from);
            event kick();
            handle kick() { generate Event.locate(probe(SELF), 99); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "kick", &[]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.stats.dropped, 1);
    }

    #[test]
    fn time_advances_monotonically_in_trace() {
        let prog = checked(
            r#"
            event a(int n);
            handle a(int n) { if (n > 0) { generate a(n - 1); } }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 500, "a", &[5]).unwrap();
        i.schedule(1, 0, "a", &[0]).unwrap();
        i.run_to_quiescence().unwrap();
        let times: Vec<u64> = i.trace.iter().map(|h| h.time_ns).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    // ------------------------------------------------- sharded engine

    /// A mesh program with heavy cross-switch traffic: every packet bumps
    /// a local sketch, then forwards to a hash-picked neighbor until its
    /// TTL drains. Exercises recirculation, remote sends, and timer ties.
    const MESH_MIX: &str = r#"
        global cnt = new Array<<32>>(64);
        global mix = new Array<<32>>(64);
        memop plus(int m, int x) { return m + x; }
        event pkt(int a, int b, int ttl);
        handle pkt(int a, int b, int ttl) {
            auto i = hash<<6>>(1, a, b);
            int c = Array.update(cnt, i, plus, 1, plus, 1);
            auto j = hash<<6>>(2, c, a);
            Array.setm(mix, j, plus, b);
            if (ttl > 0) {
                generate pkt(a + 1, b, ttl - 1);
                generate Event.locate(pkt(a, b + c, ttl - 1), ((a + b) & 7) + 1);
            }
        }
        "#;

    fn run_mesh(engine: Engine) -> (Vec<Vec<u64>>, Stats, Vec<Handled>, Vec<String>) {
        let prog = checked(MESH_MIX);
        let mut cfg = NetConfig::mesh(8);
        cfg.engine = engine;
        let mut i = Interp::new(&prog, cfg);
        for s in 1..=8u64 {
            for k in 0..6u64 {
                i.schedule(s, k * 400, "pkt", &[s * 17 + k, k, 4]).unwrap();
            }
        }
        i.run_to_quiescence().unwrap();
        let arrays: Vec<Vec<u64>> = (1..=8u64)
            .flat_map(|s| vec![i.array(s, "cnt").to_vec(), i.array(s, "mix").to_vec()])
            .collect();
        (arrays, i.stats.clone(), i.trace.clone(), i.output.clone())
    }

    #[test]
    fn sharded_engine_is_bit_identical_to_sequential() {
        let (seq_arrays, seq_stats, seq_trace, seq_out) = run_mesh(Engine::Sequential);
        let (sh_arrays, sh_stats, sh_trace, sh_out) = run_mesh(Engine::Sharded {
            workers: 4,
            epoch_ns: 0,
        });
        assert_eq!(seq_arrays, sh_arrays, "final array state must match");
        assert_eq!(seq_stats, sh_stats, "statistics must match");
        assert_eq!(seq_trace, sh_trace, "merged trace must match");
        assert_eq!(seq_out, sh_out);
        assert!(seq_stats.sent_remote > 100, "workload must cross switches");
    }

    #[test]
    fn sharded_engine_narrow_epoch_still_identical() {
        let (seq_arrays, seq_stats, ..) = run_mesh(Engine::Sequential);
        let (sh_arrays, sh_stats, ..) = run_mesh(Engine::Sharded {
            workers: 2,
            epoch_ns: 250,
        });
        assert_eq!(seq_arrays, sh_arrays);
        assert_eq!(seq_stats, sh_stats);
    }

    #[test]
    fn sharded_fuel_exhaustion_reports_error() {
        let prog = checked(
            r#"
            event spin();
            handle spin() { generate spin(); }
            "#,
        );
        let mut cfg = NetConfig::mesh(2);
        cfg.engine = Engine::Sharded {
            workers: 2,
            epoch_ns: 0,
        };
        let mut i = Interp::new(&prog, cfg);
        i.schedule(1, 0, "spin", &[]).unwrap();
        let err = i.run(1_000, u64::MAX).unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::FuelExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn sharded_zero_latency_loop_hits_fuel_instead_of_hanging() {
        // recirc_latency_ns == 0 lets a self-generating event stay inside
        // one epoch forever; the per-epoch budget must bound it.
        let prog = checked(
            r#"
            event spin();
            handle spin() { generate spin(); }
            "#,
        );
        let mut cfg = NetConfig::mesh(2);
        cfg.recirc_latency_ns = 0;
        cfg.engine = Engine::Sharded {
            workers: 2,
            epoch_ns: 0,
        };
        let mut i = Interp::new(&prog, cfg);
        i.schedule(1, 0, "spin", &[]).unwrap();
        let err = i.run(500, u64::MAX).unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::FuelExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn sharded_overshoot_that_drains_the_queue_still_errs() {
        // 12 same-epoch events across 2 workers, budget 10: each worker
        // gets the full remaining budget, so the round drains the queue
        // while exceeding max_events — that must still be FuelExhausted,
        // as the sequential engine would have reported at event 11.
        let prog = checked(
            r#"
            global n = new Array<<32>>(1);
            memop plus(int m, int x) { return m + x; }
            event ping();
            handle ping() { Array.setm(n, 0, plus, 1); }
            "#,
        );
        let mut cfg = NetConfig::mesh(2);
        cfg.engine = Engine::Sharded {
            workers: 2,
            epoch_ns: 0,
        };
        let mut i = Interp::new(&prog, cfg);
        for s in [1u64, 2] {
            for k in 0..6u64 {
                i.schedule(s, k, "ping", &[]).unwrap();
            }
        }
        let err = i.run(10, u64::MAX).unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::FuelExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn sharded_runtime_fault_is_deterministic() {
        let prog = checked(
            r#"
            global a = new Array<<32>>(4);
            event go(int i);
            handle go(int i) { Array.set(a, i, 1); }
            "#,
        );
        let mut cfg = NetConfig::mesh(4);
        cfg.engine = Engine::Sharded {
            workers: 4,
            epoch_ns: 0,
        };
        let mut i = Interp::new(&prog, cfg);
        // Two out-of-bounds faults in the same epoch: the smaller key
        // (earlier time) must win every run.
        i.schedule(3, 100, "go", &[9]).unwrap();
        i.schedule(2, 50, "go", &[7]).unwrap();
        let err = i.run_to_quiescence().unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::IndexOutOfBounds { index: 7, .. }),
            "{err}"
        );
    }

    #[test]
    fn failed_switch_drops_and_recovers_under_both_engines() {
        for engine in [
            Engine::Sequential,
            Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            },
        ] {
            let prog = checked(
                r#"
                global seen = new Array<<32>>(4);
                memop plus(int m, int x) { return m + x; }
                event pkt();
                handle pkt() { Array.setm(seen, 0, plus, 1); }
                "#,
            );
            let mut cfg = NetConfig::mesh(2);
            cfg.engine = engine;
            let mut i = Interp::new(&prog, cfg);
            i.fail_switch(2);
            i.schedule(2, 0, "pkt", &[]).unwrap();
            i.schedule(1, 0, "pkt", &[]).unwrap();
            i.run_to_quiescence().unwrap();
            assert_eq!(i.stats.dropped, 1, "{engine:?}");
            assert_eq!(i.array(1, "seen")[0], 1);
            assert!(i.try_array(2, "seen").is_none());
            i.recover_switch(2);
            i.schedule(2, 10_000, "pkt", &[]).unwrap();
            i.run_to_quiescence().unwrap();
            assert_eq!(i.array(2, "seen")[0], 1, "{engine:?}");
        }
    }

    #[test]
    fn resumed_runs_cross_engines() {
        // A run paused at a time horizon under one engine can be resumed
        // under any other: pending events survive in the global queue,
        // and the pause itself leaves the same world behind.
        let prog = checked(MESH_MIX);
        let mut j = Interp::new(&prog, NetConfig::mesh(8));
        for s in 1..=8u64 {
            j.schedule(s, 0, "pkt", &[s, 3, 6]).unwrap();
        }
        j.run_to_quiescence().unwrap();

        let sharded = |workers| Engine::Sharded {
            workers,
            epoch_ns: 0,
        };
        let mut paused = Vec::new();
        for (first, second) in [
            (Engine::Sequential, sharded(3)),
            (sharded(3), Engine::Sequential),
            (Engine::Sequential, sharded(1)),
            (sharded(1), Engine::Sequential),
        ] {
            let mut cfg = NetConfig::mesh(8);
            cfg.engine = first;
            let mut i = Interp::new(&prog, cfg);
            for s in 1..=8u64 {
                i.schedule(s, 0, "pkt", &[s, 3, 6]).unwrap();
            }
            i.run(1_000_000, 2_000).unwrap();
            let mid_pending = i.pending();
            assert!(mid_pending > 0, "horizon must leave events queued");
            paused.push((mid_pending, i.now_ns, i.stats.clone(), i.trace.clone()));
            i.config.engine = second;
            i.run_to_quiescence().unwrap();
            assert_eq!(i.pending(), 0);

            for s in 1..=8u64 {
                assert_eq!(i.array(s, "cnt"), j.array(s, "cnt"));
                assert_eq!(i.array(s, "mix"), j.array(s, "mix"));
            }
            assert_eq!(i.stats, j.stats, "{first:?} then {second:?}");
            assert_eq!(i.trace, j.trace, "{first:?} then {second:?}");
            assert_eq!(i.now_ns, j.now_ns);
        }
        assert!(
            paused.iter().all(|p| *p == paused[0]),
            "every engine pauses at the same world"
        );
    }

    #[test]
    fn resumed_runs_cross_executors() {
        // The executable form of the program is cached on the world and
        // rebuilt exactly when `config.exec` / `config.opt` stop matching
        // it. The executors are bit-identical, so a stale cache would not
        // show in any output: look at the cache itself, then check that a
        // run paused under the walker, continued under bytecode at two
        // opt levels and finished under the walker lands on the one-shot
        // world.
        fn built(i: &Interp) -> String {
            match &i.code {
                Code::Walker(_) => "walker".to_string(),
                Code::Bytecode(cp) => format!("bytecode O{}", cp.opt_level().label()),
            }
        }
        let prog = checked(MESH_MIX);
        let fresh = || {
            let mut i = Interp::new(&prog, NetConfig::mesh(8));
            for s in 1..=8u64 {
                i.schedule(s, 0, "pkt", &[s, 3, 6]).unwrap();
            }
            i
        };
        let mut oneshot = fresh();
        oneshot.run_to_quiescence().unwrap();

        let mut i = fresh();
        let Code::Walker(first) = i.code.clone() else {
            panic!("a world is built with the code its config selects")
        };
        i.run(1_000_000, 1_000).unwrap();
        i.run(1_000_000, 1_500).unwrap();
        assert!(
            matches!(&i.code, Code::Walker(w) if Arc::ptr_eq(w, &first)),
            "a run must not rebuild code that is still current"
        );
        for (opt, until_ns) in [(OptLevel::O2, 3_000), (OptLevel::O0, 4_500)] {
            i.config.exec = ExecMode::Bytecode;
            i.config.opt = opt;
            i.run(1_000_000, until_ns).unwrap();
            assert_eq!(built(&i), format!("bytecode O{}", opt.label()));
        }
        assert!(i.pending() > 0, "the walker must have work left");
        i.config.exec = ExecMode::Ast;
        i.run_to_quiescence().unwrap();
        assert_eq!(built(&i), "walker");

        for s in 1..=8u64 {
            assert_eq!(i.array(s, "cnt"), oneshot.array(s, "cnt"));
            assert_eq!(i.array(s, "mix"), oneshot.array(s, "mix"));
        }
        assert_eq!(i.stats, oneshot.stats);
        assert_eq!(i.trace, oneshot.trace);
        assert_eq!(i.metrics().digest(), oneshot.metrics().digest());
    }

    #[test]
    fn swapped_program_runs_its_new_bodies_under_both_executors() {
        // Hot-swap rebuilds the cached code: events queued before the
        // swap run the *new* handler body, walker and bytecode alike.
        let v1 = "global cts = new Array<<32>>(8);
            memop plus(int m, int x) { return m + x; }
            event pkt(int idx);
            handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }";
        let v2 = v1.replace("plus, 1", "plus, 2");
        for exec in [ExecMode::Ast, ExecMode::Bytecode] {
            let mut cfg = NetConfig::single();
            cfg.exec = exec;
            let mut i = Interp::new(&checked(v1), cfg);
            i.schedule(1, 0, "pkt", &[3]).unwrap();
            i.schedule(1, 200, "pkt", &[5]).unwrap();
            i.run(1_000_000, 100).unwrap();
            let st = i.swap_program(Arc::new(checked(&v2)));
            assert_eq!((st.arrays_carried, st.queued_remapped), (1, 1));
            i.run_to_quiescence().unwrap();
            assert_eq!(i.array(1, "cts")[3], 1, "{exec:?}: ran before the swap");
            assert_eq!(i.array(1, "cts")[5], 2, "{exec:?}: ran the swapped body");
        }
    }

    // -------------------------------------------------- argument arena

    #[test]
    fn arena_is_capped_and_holds_only_cleared_buffers() {
        let mut arena = ArgArena::default();
        let fresh = arena.take(3);
        assert_eq!((fresh.len(), fresh.capacity()), (0, 3), "exact arity");
        for i in 0..ARENA_CAP + 10 {
            arena.give(vec![i as u64; 3]);
        }
        assert_eq!(
            arena.free.len(),
            ARENA_CAP,
            "past the cap a buffer is freed"
        );
        assert!(arena.free.iter().all(Vec::is_empty));
        let reused = arena.take(1);
        assert_eq!(
            (reused.len(), reused.capacity()),
            (0, 3),
            "recycled, cleared"
        );
        assert_eq!(arena.free.len(), ARENA_CAP - 1);
    }

    /// Every way an event can die without reaching the trace — multicast
    /// source, unknown destination, failed switch, and (trace off)
    /// handled and exported — gives its buffer back exactly once, under
    /// both executors: `kick` fans `probe` out to a live switch, a failed
    /// one and one outside the topology, and the live `probe` exports a
    /// `note`. Five buffers are ever allocated (kick's, the fan-out
    /// source, three copies; `note` reuses one), so five must be parked
    /// after an untraced run and two after a traced one: the source and
    /// the two dropped copies, less the one `note` took into the trace.
    #[test]
    fn dead_events_return_their_buffers_exactly_once() {
        let prog = checked(
            r#"
            const group G = {2, 3, 99};
            event note(int from);
            event probe(int from);
            handle probe(int from) { generate note(from); }
            event kick(int x);
            handle kick(int x) { mgenerate Event.mlocate(probe(SELF), G); }
            "#,
        );
        for exec in [ExecMode::Ast, ExecMode::Bytecode] {
            for (record_trace, parked) in [(false, 5), (true, 2)] {
                let mut cfg = NetConfig::mesh(3);
                cfg.exec = exec;
                let mut i = Interp::new(&prog, cfg);
                i.set_record_trace(record_trace);
                i.fail_switch(3);
                i.schedule(1, 0, "kick", &[7]).unwrap();
                i.run_to_quiescence().unwrap();
                assert_eq!((i.stats.dropped, i.stats.exported), (2, 1), "{exec:?}");
                let free = &i.arena.free;
                assert_eq!(free.len(), parked, "{exec:?}, trace {record_trace}");
                assert!(free.iter().all(|b| b.is_empty() && b.capacity() == 1));
                let mut at: Vec<*const u64> = free.iter().map(Vec::as_ptr).collect();
                at.sort_unstable();
                at.dedup();
                assert_eq!(at.len(), parked, "one allocation parked twice");
            }
        }
    }

    // ------------------------------------------------- stop conditions

    /// A fixed list of sourced events — the simplest custom source: one
    /// slot, not splittable across workers, not snapshottable.
    struct ListSource(std::collections::VecDeque<SourcedEvent>);

    impl EventSource for ListSource {
        fn peek_ns(&self) -> Option<u64> {
            self.0.front().map(|e| e.time_ns)
        }
        fn next_event(&mut self) -> Option<SourcedEvent> {
            self.0.pop_front()
        }
    }

    /// `go` emits before it can fault (index 4 and up is out of bounds);
    /// `note` has no handler and is exported; `tick` emits nothing;
    /// `hop` crosses the wire.
    const STOPS: &str = r#"
        global a = new Array<<32>>(4);
        memop plus(int m, int x) { return m + x; }
        event note(int i);
        event go(int i);
        handle go(int i) {
            generate note(i);
            Array.setm(a, i, plus, 1);
        }
        event tick(int i);
        handle tick(int i) { Array.setm(a, i, plus, 1); }
        event hop(int i, int to);
        handle hop(int i, int to) { generate Event.locate(go(i), to); }
    "#;

    /// `(switch, time_ns, event, args)`.
    type Inj = (u64, u64, &'static str, &'static [u64]);

    /// Everything a stopped run leaves observable.
    #[derive(Debug, PartialEq)]
    struct Stopped {
        res: Result<(), InterpError>,
        stats: Stats,
        pending: usize,
        now_ns: u64,
        source_counts: Vec<u64>,
        trace: Vec<Handled>,
    }

    struct StopCase {
        name: &'static str,
        net: NetConfig,
        scheduled: &'static [Inj],
        sourced: &'static [Inj],
        /// `(max_events, max_time_ns)`.
        limits: (u64, u64),
        /// Engines whose stop must equal the sequential one field for
        /// field (above one worker only where the contract is exact:
        /// budget and fault stops there are checked at round barriers).
        engines: &'static [Engine],
        /// The sequential outcome, pinned: result, processed, dropped,
        /// pending, now_ns, source counts.
        want: (
            Result<(), InterpFault>,
            u64,
            u64,
            usize,
            u64,
            &'static [u64],
        ),
    }

    fn run_stop(case: &StopCase, engine: Engine) -> Stopped {
        let prog = checked(STOPS);
        let mut cfg = case.net.clone();
        cfg.engine = engine;
        let mut i = Interp::new(&prog, cfg);
        for &(sw, t, ev, args) in case.scheduled {
            i.schedule(sw, t, ev, args).unwrap();
        }
        if !case.sourced.is_empty() {
            let evs = case.sourced.iter().map(|&(sw, t, ev, args)| SourcedEvent {
                time_ns: t,
                switch: sw,
                event_id: prog.info.event(ev).unwrap().id,
                args: args.to_vec(),
                source: 0,
            });
            i.set_source(Box::new(ListSource(evs.collect())));
        }
        let res = i.run(case.limits.0, case.limits.1);
        Stopped {
            res,
            stats: i.stats.clone(),
            pending: i.pending(),
            now_ns: i.now_ns,
            source_counts: i.source_counts().to_vec(),
            trace: i.trace.clone(),
        }
    }

    #[test]
    fn stop_conditions_are_engine_independent() {
        const W1: Engine = Engine::Sharded {
            workers: 1,
            epoch_ns: 0,
        };
        const W4: Engine = Engine::Sharded {
            workers: 4,
            epoch_ns: 0,
        };
        let zero_wire = NetConfig {
            link_latency_ns: 0,
            ..NetConfig::mesh(4)
        };
        let cases = [
            StopCase {
                name: "budget spent, an event still due",
                net: NetConfig::mesh(4),
                scheduled: &[
                    (1, 0, "go", &[0]),
                    (2, 100, "go", &[0]),
                    (3, 200, "go", &[0]),
                    (4, 300, "go", &[0]),
                    (1, 400, "go", &[0]),
                ],
                sourced: &[],
                limits: (3, u64::MAX),
                engines: &[W1],
                // Two injections and three `note`s stay queued.
                want: (
                    Err(InterpFault::FuelExhausted { handled: 3 }),
                    3,
                    0,
                    5,
                    200,
                    &[],
                ),
            },
            StopCase {
                name: "budget spent mid-stream, sourced event tied with the queue head",
                net: NetConfig::mesh(4),
                scheduled: &[(3, 100, "tick", &[0])],
                sourced: &[(1, 0, "go", &[0]), (2, 100, "tick", &[1])],
                limits: (1, u64::MAX),
                engines: &[W1],
                // Everything due at or before the queue head is pulled
                // before the budget check: both sourced events count,
                // and the tied one waits in the queue with the explicit
                // injection and the `note`.
                want: (
                    Err(InterpFault::FuelExhausted { handled: 1 }),
                    1,
                    0,
                    3,
                    0,
                    &[2],
                ),
            },
            StopCase {
                name: "budget spent, only over-horizon events left",
                net: NetConfig::mesh(4),
                scheduled: &[
                    (1, 0, "tick", &[0]),
                    (2, 100, "tick", &[0]),
                    (3, 200, "tick", &[0]),
                    (4, 50_000, "tick", &[0]),
                ],
                sourced: &[],
                limits: (3, 10_000),
                engines: &[W1, W4],
                want: (Ok(()), 3, 0, 1, 200, &[]),
            },
            StopCase {
                name: "budget spent, only an unknown-switch sourced event left",
                net: NetConfig::mesh(4),
                scheduled: &[(3, 150, "tick", &[0])],
                sourced: &[
                    (1, 0, "tick", &[0]),
                    (2, 100, "tick", &[0]),
                    (99, 200, "tick", &[0]),
                ],
                limits: (3, u64::MAX),
                engines: &[W1, W4],
                // The stray event is pulled, counted and dropped; nothing
                // is left to spend budget on, so the run is complete.
                want: (Ok(()), 3, 1, 0, 150, &[3]),
            },
            StopCase {
                name: "budget of zero, only an unknown-switch sourced event left",
                net: NetConfig::mesh(4),
                scheduled: &[],
                sourced: &[(99, 200, "tick", &[0])],
                limits: (0, u64::MAX),
                engines: &[W1],
                want: (Ok(()), 0, 1, 0, 0, &[1]),
            },
            StopCase {
                name: "fault mid-handler after a generate",
                net: NetConfig::mesh(4),
                scheduled: &[
                    (1, 0, "tick", &[0]),
                    (3, 100, "go", &[7]),
                    (2, 50, "go", &[9]),
                ],
                sourced: &[],
                limits: (1_000, u64::MAX),
                engines: &[W1],
                // The smaller-key fault stops the run; its `note` and
                // the later faulting injection stay queued.
                want: (
                    Err(InterpFault::IndexOutOfBounds {
                        array: "a".into(),
                        index: 9,
                        len: 4,
                    }),
                    2,
                    0,
                    2,
                    50,
                    &[],
                ),
            },
            StopCase {
                name: "zero-latency wire resolves to one worker",
                net: zero_wire,
                scheduled: &[
                    (1, 0, "hop", &[0, 2]),
                    (2, 0, "hop", &[1, 3]),
                    (4, 5, "tick", &[0]),
                ],
                sourced: &[],
                limits: (4, u64::MAX),
                engines: &[W1, W4],
                // Both hops and both zero-delay arrivals run; the tick
                // and two `note`s wait.
                want: (
                    Err(InterpFault::FuelExhausted { handled: 4 }),
                    4,
                    0,
                    3,
                    0,
                    &[],
                ),
            },
            StopCase {
                name: "one switch resolves to one worker",
                net: NetConfig::single(),
                scheduled: &[(1, 0, "go", &[0]), (1, 100, "go", &[1])],
                sourced: &[],
                limits: (3, u64::MAX),
                engines: &[W1, W4],
                want: (
                    Err(InterpFault::FuelExhausted { handled: 3 }),
                    3,
                    0,
                    1,
                    600,
                    &[],
                ),
            },
        ];
        for case in &cases {
            let reference = run_stop(case, Engine::Sequential);
            let (res, processed, dropped, pending, now_ns, counts) = &case.want;
            assert_eq!(
                &reference.res.clone().map_err(|e| e.kind),
                res,
                "{}",
                case.name
            );
            assert_eq!(
                (
                    reference.stats.processed,
                    reference.stats.dropped,
                    reference.pending,
                    reference.now_ns,
                    &reference.source_counts[..],
                ),
                (*processed, *dropped, *pending, *now_ns, *counts),
                "{}",
                case.name
            );
            for &engine in case.engines {
                assert_eq!(
                    reference,
                    run_stop(case, engine),
                    "{} [{engine:?}]",
                    case.name
                );
            }
        }
        // The fault row, spelled out: the faulting event is in the trace
        // (after the tick that preceded it) and its emission was queued.
        let fault = run_stop(&cases[5], Engine::Sequential);
        let traced: Vec<&str> = fault.trace.iter().map(|h| &*h.event).collect();
        assert_eq!(traced, ["tick", "go"]);
        assert_eq!(fault.stats.recirculated, 1);
        let at = fault.res.unwrap_err().at.expect("fault is located");
        assert_eq!((at.switch, at.time_ns), (2, 50));
    }

    // --------------------------------------- mailbox/epoch stress tests

    /// Adversarial cross-shard traffic for the mailbox/epoch machinery:
    /// `spray` funnels every switch's emissions into one hotspot switch
    /// (all of a round's mail lands in a single mailbox), and `ping`
    /// bounces a chain between two switches with exactly one wire hop
    /// per step — the worst case for conservative horizons, where every
    /// dispatch depends on mail from the previous round.
    const STRESS: &str = r#"
        global hits = new Array<<32>>(16);
        memop plus(int m, int x) { return m + x; }
        event hot(int from);
        handle hot(int from) { Array.setm(hits, from & 15, plus, 1); }
        event spray(int from, int hub);
        handle spray(int from, int hub) {
            Array.setm(hits, 0, plus, 1);
            generate Event.locate(hot(from), hub);
        }
        event ping(int n, int me, int peer);
        handle ping(int n, int me, int peer) {
            Array.setm(hits, n & 15, plus, 1);
            if (n > 0) { generate Event.locate(ping(n - 1, peer, me), peer); }
        }
    "#;

    type Snapshot = (Vec<Vec<u64>>, Stats, Vec<Handled>, Vec<String>, u64);

    /// Run the stress schedule to quiescence; returns every observable
    /// plus the leftover queue depth (which must always be zero — a
    /// starved mailbox or a horizon that stopped advancing would leave
    /// events stranded).
    fn run_stress(
        engine: Engine,
        switches: u64,
        schedule: &[(u64, u64, &'static str, Vec<u64>)],
    ) -> (Snapshot, usize) {
        let prog = checked(STRESS);
        let mut cfg = NetConfig::mesh(switches);
        cfg.engine = engine;
        let mut i = Interp::new(&prog, cfg);
        for (sw, t, ev, args) in schedule {
            i.schedule(*sw, *t, ev, args).unwrap();
        }
        i.run_to_quiescence().unwrap();
        let arrays = (1..=switches)
            .map(|s| i.array(s, "hits").to_vec())
            .collect();
        (
            (
                arrays,
                i.stats.clone(),
                i.trace.clone(),
                i.output.clone(),
                i.metrics().digest(),
            ),
            i.pending(),
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Hotspot + ping-pong + bursty phases, across worker counts and
        /// epoch overrides: the sharded engine must drain completely
        /// (no starvation) and reproduce the sequential run bit for bit.
        #[test]
        fn mailbox_stress_stays_deterministic_and_drains(
            switches in 2u64..=6,
            wsel in 0usize..6,
            esel in 0usize..4,
            // (silence before the phase, burst length, intra-burst spacing):
            // long gaps force the adaptive horizon to leap between
            // activity floors; spacing 0 lands whole bursts on one tick.
            bursts in proptest::collection::vec(
                (0u64..=20_000, 1usize..=12, 0u64..=3),
                1..5,
            ),
            // (chain length, endpoint selectors)
            pings in proptest::collection::vec(
                (1u64..=6, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                0..6,
            ),
        ) {
            let workers = [1usize, 2, 3, 4, 7, 8][wsel];
            let epoch_ns = [0u64, 1, 250, 1_000][esel];
            let mut schedule: Vec<(u64, u64, &'static str, Vec<u64>)> = Vec::new();
            let mut t = 0u64;
            for (k, (gap, n, spacing)) in bursts.iter().enumerate() {
                t += gap;
                // Rotate the hotspot between phases so ownership of the
                // hammered mailbox moves across workers.
                let hub = (k as u64 % switches) + 1;
                for j in 0..*n {
                    let from = (j as u64 % switches) + 1;
                    schedule.push((from, t, "spray", vec![from * 31 + j as u64, hub]));
                    t += spacing;
                }
            }
            for (k, (n, a, b)) in pings.iter().enumerate() {
                let me = (a % switches) + 1;
                let peer = (b % switches) + 1;
                schedule.push((me, (k as u64) * 500, "ping", vec![*n, me, peer]));
            }

            let (reference, seq_pending) = run_stress(Engine::Sequential, switches, &schedule);
            prop_assert_eq!(seq_pending, 0);
            let (got, pending) =
                run_stress(Engine::Sharded { workers, epoch_ns }, switches, &schedule);
            // A nonzero count here means the sharded run left events
            // stranded (starved mailbox / stuck horizon).
            prop_assert_eq!(pending, 0);
            prop_assert_eq!(&reference, &got);
        }
    }
}
