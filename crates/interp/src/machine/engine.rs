//! The driver: one lockstep round loop that executes the shards on one
//! worker ([`Engine::Sequential`], or a sharded run that resolves to
//! one) or on a pool of them, and [`Interp::run`], which resolves the
//! worker count and tears a run down. See the `# Engines` section of
//! [`crate::machine`] for the contract between worker counts.

use super::sched::{merge_sorted_runs, shape_sourced, Key, SchedHeap, Scheduled, SwitchMap};
use super::{ArgArena, Engine, Exec, Interp, InterpError, InterpFault, OutRec, Shard, TraceRec};
use crate::workload::{EventSource, SourcedEvent};
use lucid_check::CheckedProgram;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Condvar, Mutex};

// The driver is coordinator-free: the calling thread is worker 0 and
// every worker runs the identical lockstep round protocol against a
// handful of shared cells. Each round has two phases separated by
// barriers:
//
//   P1  drain this worker's mailbox into its event heap, then publish
//       one word of "activity" — the earliest virtual instant this
//       worker could still produce work at (its heap head). Worker 0,
//       the attached source's one puller, also publishes the stream's
//       head.
//   P2  every worker reads all published words and computes the same
//       reduction, so all of them agree — with no messages — on whether
//       to stop (drained / fuel / fault) and on each worker's *horizon*:
//       how far its shards may run this round.
//
// The horizon is adaptive per worker (a conservative null-message bound
// in the CMB tradition): worker `w` may process strictly below
// `min(min(other workers' activity) + link, global min + 2·link)`. The
// first term bounds arrivals from events already queued on a sibling
// (one wire hop past its floor); the second bounds arrivals from chain
// events still in flight — in-flight mail is itself at least one hop
// past some worker's floor, so its re-emissions are two hops past the
// global minimum. Both are needed: the first alone lets a worker's own
// emissions bounce off a sibling and return below its already-consumed
// frontier. The global laggard therefore gets a double-wide window and
// everyone else the classic conservative one — and a lone worker (the
// sequential engine) has no horizon at all: its first round runs until
// the queue drains, the time limit passes, the budget is spent or a
// handler faults, and the second round's decision only names which.
//
// Cross-worker events are not exchanged per event: a round's emissions
// accumulate into per-destination batches and are appended to the
// destination's mailbox with one lock per (destination, round). Mail
// sent in round `k` is drained at round `k+1`'s P1, which is sound
// because a mailed arrival is at least one wire hop past its emitter's
// published activity — at or beyond every receiver horizon of round `k`.

/// How many sourced events the puller materializes per chunk. Chunking
/// amortizes the per-pull dispatch overhead while keeping in-flight
/// memory bounded by the frontier; correctness never depends on the
/// chunk size because sourced keys are pull-order-independent.
const SOURCE_CHUNK: usize = 64;

/// The per-worker shared cells. Plain `std` sync everywhere: the round
/// barriers provide the happens-before edges, so the atomics only need
/// `Relaxed` ordering.
#[derive(Default)]
struct WorkerCell {
    /// Cross-worker deliveries, appended in per-round batches.
    mailbox: Mutex<Vec<Scheduled>>,
    /// The worker's published activity floor (`u64::MAX`: idle).
    activity: AtomicU64,
    /// Cumulative events processed, published once per round.
    processed: AtomicU64,
}

/// Why the round loop stopped (every worker computes the same answer;
/// the driver reads worker 0's).
#[derive(Clone, Copy, PartialEq, Eq)]
enum StopWhy {
    /// Queues and sources drained, or the time horizon passed.
    Done,
    /// The event budget ran out (or the last round overshot it).
    Fuel,
    /// A handler faulted; the smallest-key fault is in the shared cell.
    Fault,
    /// The barrier was fused by a panicking sibling.
    Died,
}

/// Shared read-only round state (cells, reductions, network constants).
struct RoundCtx<'a> {
    cells: &'a [WorkerCell],
    /// Head time of the attached source, `u64::MAX` when exhausted or
    /// absent. Published by worker 0 (its puller), read by everyone:
    /// sourced arrivals carry their own absolute times, so every horizon
    /// is clamped at this instant.
    shared_peek: &'a AtomicU64,
    /// Sourced events bound for unknown switches (dropped, counted).
    dropped: &'a AtomicU64,
    /// The smallest-key fault of the run, min-merged by every worker.
    fault: &'a Mutex<Option<(Key, InterpError)>>,
    barrier: &'a RoundBarrier,
    /// switch id → owning worker.
    owner: &'a SwitchMap,
    link_ns: u64,
    /// Explicit `epoch_ns` override: an additional cap of
    /// `global_min + epoch` on every horizon (narrower rounds, same
    /// results). `None` is the adaptive default.
    epoch_cap: Option<u64>,
    max_events: u64,
    max_time_ns: u64,
}

/// A reusable rendezvous replacing [`std::sync::Barrier`] with one that
/// can be *fused*: a worker that unwinds mid-round breaks the barrier on
/// the way out ([`FuseOnPanic`]), waking every sibling with an error
/// instead of leaving them blocked on a rendezvous that can no longer
/// complete. (`std`'s barrier has no such escape hatch, and a panicking
/// handler — AST-walker invariants panic — must not deadlock the pool.)
struct RoundBarrier {
    /// (arrived, generation, fused)
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
    n: usize,
}

impl RoundBarrier {
    fn new(n: usize) -> Self {
        RoundBarrier {
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
            n,
        }
    }

    /// Rendezvous with the other `n - 1` workers. `Err(())` means the
    /// barrier was fused and the round protocol is dead.
    fn wait(&self) -> Result<(), ()> {
        let mut st = self.state.lock().expect("barrier state");
        if st.2 {
            return Err(());
        }
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let generation = st.1;
        while st.1 == generation && !st.2 {
            st = self.cv.wait(st).expect("barrier wait");
        }
        if st.2 {
            Err(())
        } else {
            Ok(())
        }
    }

    fn fuse(&self) {
        let mut st = self.state.lock().expect("barrier state");
        st.2 = true;
        self.cv.notify_all();
    }
}

/// Fuses the round barrier if the owning worker unwinds, so siblings
/// exit their round loop instead of blocking forever; the panic itself
/// still propagates through the scope join.
struct FuseOnPanic<'a>(&'a RoundBarrier);

impl Drop for FuseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fuse();
        }
    }
}

/// What a worker hands back when the round loop stops.
struct WorkerOut {
    shards: Vec<Shard>,
    /// Undispatched events (above the final horizon, or past a stop).
    heap: SchedHeap,
    /// Arrivals for a shard whose handler faulted earlier in the run,
    /// set aside off the hot path and re-queued once at teardown.
    parked: Vec<Scheduled>,
    /// This worker's dispatch log, already in global key order (one
    /// worker's dispatches are totally ordered), merged across workers
    /// once at run end.
    trace: Vec<(Key, TraceRec)>,
    output: Vec<(Key, OutRec)>,
    /// The argument arena, for worker 0's to park on the interpreter.
    arena: ArgArena,
    why: StopWhy,
    /// Events processed across all workers at stop time (identical on
    /// every worker; the driver reads worker 0's).
    total: u64,
}

/// What a worker starts the round loop with — the input counterpart of
/// [`WorkerOut`].
#[derive(Default)]
struct WorkerSeed {
    shards: Vec<Shard>,
    /// Pending events already owned by this worker's shards.
    heap: SchedHeap,
    /// Where every argument buffer of the worker's events comes from
    /// and retires to: sourced pulls, `generate`, dead events.
    arena: ArgArena,
}

/// The attached event source in the hands of the one worker that pulls
/// it this run — worker 0 — with the per-source pull counters that key
/// its events. A lone worker pulls what is due at or before its queue
/// head; with siblings to feed, worker 0 pulls one window ahead and mails
/// each event to its owner.
struct Puller<'a> {
    prog: &'a CheckedProgram,
    stream: &'a mut (dyn EventSource + Send),
    counts: &'a mut Vec<u64>,
    /// Scratch buffer for chunked pulls, reused across them.
    batch: Vec<SourcedEvent>,
    /// The stream's head time (`u64::MAX`: exhausted). It moves only on
    /// pulls, so between pulls "nothing is due" costs one integer
    /// compare per dispatch.
    head: u64,
}

impl Puller<'_> {
    /// Materialize every sourced injection due at or before `upto` —
    /// re-read between chunks, since a bound tied to the queue head
    /// tightens as earlier events land — [`SOURCE_CHUNK`] at a time so
    /// memory stays bounded by the in-flight frontier. Each goes onto
    /// `heap` when worker `id` owns its switch and into the owner's
    /// `outgoing` mail otherwise; one bound for an unknown switch is
    /// counted dropped. Argument buffers come out of the worker's
    /// `arena`. Sourced keys are pull-order-independent, so *when* an
    /// event is pulled never shows in the schedule.
    fn pull(
        &mut self,
        upto: impl Fn(&SchedHeap) -> u64,
        id: usize,
        heap: &mut SchedHeap,
        outgoing: &mut [Vec<Scheduled>],
        arena: &mut ArgArena,
        ctx: &RoundCtx<'_>,
    ) {
        while self.head <= upto(heap) {
            self.batch.clear();
            self.stream
                .next_batch(upto(heap), SOURCE_CHUNK, &mut self.batch);
            self.head = self.stream.peek_ns().unwrap_or(u64::MAX);
            if self.batch.is_empty() {
                break;
            }
            for ev in self.batch.drain(..) {
                let sched = shape_sourced(self.prog, self.counts, ev, arena);
                match ctx.owner.get(sched.switch) {
                    Some(w) if w as usize == id => heap.push(sched),
                    Some(w) => outgoing[w as usize].push(sched),
                    None => {
                        ctx.dropped.fetch_add(1, Relaxed);
                        arena.give(sched.args);
                    }
                }
            }
        }
    }
}

/// The lockstep round loop every worker (including the calling thread,
/// as worker 0) runs until all of them agree to stop. `puller` is the
/// attached event source, if any; only worker 0 is handed it.
#[allow(clippy::too_many_lines)]
fn run_round_worker(
    ctx: &RoundCtx<'_>,
    exec: &Exec,
    id: usize,
    seed: WorkerSeed,
    mut puller: Option<Puller<'_>>,
) -> WorkerOut {
    let WorkerSeed {
        mut shards,
        mut heap,
        mut arena,
    } = seed;
    let _fuse = FuseOnPanic(ctx.barrier);
    let nworkers = ctx.cells.len();
    let lone = nworkers == 1;
    // A lone worker's pull bound: whatever must dispatch before its
    // queue head does, within the time limit.
    let due = |heap: &SchedHeap| {
        let head = heap.peek_key().map_or(u64::MAX, |k| k.time_ns);
        head.min(ctx.max_time_ns)
    };
    let mut outgoing: Vec<Vec<Scheduled>> = (0..nworkers).map(|_| Vec::new()).collect();
    // switch id → index into this worker's `shards` (hot: every dispatch
    // resolves its shard through it).
    let at = SwitchMap::build(
        &shards
            .iter()
            .enumerate()
            .map(|(i, s)| (s.switch, u32::try_from(i).expect("shard count fits u32")))
            .collect::<Vec<_>>(),
    );
    let local = |id: u64| at.get(id).expect("routed to owning worker") as usize;
    let mut trace: Vec<(Key, TraceRec)> = Vec::new();
    let mut output: Vec<(Key, OutRec)> = Vec::new();
    // A shard whose handler faulted sits out the rest of the run (its
    // siblings still finish the round); the next round's reduction sees
    // the fault and stops.
    let mut poisoned = vec![false; shards.len()];
    let mut parked: Vec<Scheduled> = Vec::new();
    let mut cum = 0u64;
    let mut round_err: Option<(Key, InterpError)> = None;
    // Every stop decision reads a refilled queue — the first one
    // included, so a run whose budget is already spent still learns
    // whether anything dispatchable is left.
    if let (true, Some(p)) = (lone, &mut puller) {
        p.pull(due, id, &mut heap, &mut outgoing, &mut arena, ctx);
    }
    let (why, total) = loop {
        // ---- P1: drain mail, publish the previous round's results and
        // this worker's activity floor. Everything any decision reads is
        // written here, before the rendezvous — the P2-end barrier keeps
        // a fast worker's next P1 writes from racing a slow worker's
        // current decision reads.
        let mail = std::mem::take(&mut *ctx.cells[id].mailbox.lock().expect("mailbox"));
        for s in mail {
            heap.push(s);
        }
        ctx.cells[id].processed.store(cum, Relaxed);
        if let Some((k, e)) = round_err.take() {
            let mut cell = ctx.fault.lock().expect("fault cell");
            if cell.as_ref().is_none_or(|(fk, _)| k < *fk) {
                *cell = Some((k, e));
            }
        }
        let act = heap.peek_key().map_or(u64::MAX, |k| k.time_ns);
        ctx.cells[id].activity.store(act, Relaxed);
        if let Some(p) = &puller {
            ctx.shared_peek.store(p.head, Relaxed);
        }
        if ctx.barrier.wait().is_err() {
            break (StopWhy::Died, 0);
        }

        // ---- Decision: every worker computes the identical reduction
        // from the published cells, so they agree without messages.
        let speek = ctx.shared_peek.load(Relaxed);
        let mut gmin = speek;
        let mut min_other = u64::MAX;
        let mut total = 0u64;
        for (w, cell) in ctx.cells.iter().enumerate() {
            let a = cell.activity.load(Relaxed);
            gmin = gmin.min(a);
            if w != id {
                min_other = min_other.min(a);
            }
            total += cell.processed.load(Relaxed);
        }
        if ctx.fault.lock().expect("fault cell").is_some() {
            break (StopWhy::Fault, total);
        }
        // Overshoot from the previous round outranks "drained": each
        // worker gets the full remaining budget, so a draining round can
        // still blow past it — report fuel exhaustion exactly like a
        // lone worker would have at event `max_events + 1`.
        if total > ctx.max_events {
            break (StopWhy::Fuel, total);
        }
        if gmin == u64::MAX || gmin > ctx.max_time_ns {
            break (StopWhy::Done, total);
        }
        if total >= ctx.max_events {
            break (StopWhy::Fuel, total);
        }

        // ---- P2: process strictly below this worker's adaptive horizon.
        // Two bounds, both needed: an arrival from an event already
        // queued on a sibling is at least one wire hop past that
        // sibling's activity floor (`min_other + link`), while an
        // arrival from a *chain* event that is still in flight is at
        // least two hops past the global minimum (`gmin + 2*link` —
        // in-flight mail is itself a hop past some floor). The laggard
        // therefore gets a double-wide window and everyone else the
        // classic conservative one. Sourced arrivals carry absolute
        // times, so the stream head clamps every horizon. A
        // lone worker has no cross-worker causality at all: only the
        // time limit bounds it.
        let mut horizon = ctx.max_time_ns.saturating_add(1);
        if !lone {
            horizon = horizon
                .min(min_other.saturating_add(ctx.link_ns))
                .min(gmin.saturating_add(ctx.link_ns.saturating_mul(2)))
                .min(speek);
            if let Some(epoch) = ctx.epoch_cap {
                horizon = horizon.min(gmin.saturating_add(epoch));
            }
        }
        let budget = ctx.max_events - total;

        // With siblings to feed, worker 0 materializes the stream one
        // window ahead and mails each event to its owner (delivered next
        // round; sound because every sibling horizon is clamped at the
        // published stream head). Keys are pull-order-independent, so
        // pulling ahead of execution cannot perturb the schedule.
        if let (false, Some(p)) = (lone, &mut puller) {
            let width = ctx.epoch_cap.unwrap_or(ctx.link_ns);
            let last = gmin.saturating_add(width - 1).min(ctx.max_time_ns);
            p.pull(|_| last, id, &mut heap, &mut outgoing, &mut arena, ctx);
        }

        // One heap spans all of the worker's shards: they must
        // interleave in global key order anyway (a sibling shard's
        // emission can land below the horizon and has to sort between
        // the events already queued), so a single pop beats a per-shard
        // head scan.
        let mut done = 0u64;
        loop {
            if let (true, Some(p)) = (lone, &mut puller) {
                p.pull(due, id, &mut heap, &mut outgoing, &mut arena, ctx);
            }
            if heap.peek_key().is_none_or(|k| k.time_ns >= horizon) || done >= budget {
                break;
            }
            let sched = heap.pop().expect("peeked");
            let idx = local(sched.switch);
            if poisoned[idx] {
                parked.push(sched);
                continue;
            }
            let shard = &mut shards[idx];
            shard.now_ns = shard.now_ns.max(sched.key.time_ns);
            done += 1;
            let key = sched.key;
            // The shard holds the worker's arena while it dispatches.
            std::mem::swap(&mut shard.arena, &mut arena);
            if let Err(e) = exec.dispatch(shard, sched) {
                // Keep the smallest-key fault; this shard sits out the
                // rest of the run. Its partial emissions still route
                // below.
                if round_err.as_ref().is_none_or(|(k, _)| key < *k) {
                    round_err = Some((key, e));
                }
                poisoned[idx] = true;
            }
            // Route what the handler produced: same-worker siblings get
            // immediate delivery (their arrivals can precede this round's
            // horizon), remote workers get batched into the outgoing
            // mail, flushed once per round.
            let mut produced = std::mem::take(&mut shards[idx].outbox);
            for ev in produced.drain(..) {
                match ctx.owner.get(ev.switch) {
                    Some(w) if w as usize == id => heap.push(ev),
                    Some(w) => outgoing[w as usize].push(ev),
                    None => {
                        shards[idx].stats.dropped += 1;
                        shards[idx].arena.give(ev.args);
                    }
                }
            }
            shards[idx].outbox = produced;
            std::mem::swap(&mut shards[idx].arena, &mut arena);
            // Surface the dispatch's buffers into the worker-run log in
            // pop order, which already is this worker's global key order.
            trace.append(&mut shards[idx].trace);
            output.append(&mut shards[idx].output);
            // A lone worker's round is the whole run: it stops at the
            // first fault (which, in single-worker key order, is
            // necessarily the smallest-key fault).
            if lone && round_err.is_some() {
                break;
            }
        }

        // ---- End of round: flush the outgoing mail, one batched append
        // per destination worker. The count and any fault are published
        // at the next P1; appending here is safe because a mailbox is
        // only drained at its owner's P1, on the far side of the P2-end
        // barrier from every append.
        cum += done;
        for (w, batch) in outgoing.iter_mut().enumerate() {
            if !batch.is_empty() {
                ctx.cells[w].mailbox.lock().expect("mailbox").append(batch);
            }
        }
        if ctx.barrier.wait().is_err() {
            break (StopWhy::Died, 0);
        }
    };
    WorkerOut {
        shards,
        heap,
        parked,
        trace,
        output,
        arena,
        why,
        total,
    }
}

impl Interp {
    /// Run until the queue drains, `max_events` have been handled, or the
    /// clock passes `max_time_ns` (events after the horizon stay queued).
    /// [`super::NetConfig::engine`] picks the worker count; a zero-latency
    /// wire admits no conservative horizon and a single shard has nothing
    /// to parallelize, so both run on one worker whatever the engine.
    pub fn run(&mut self, max_events: u64, max_time_ns: u64) -> Result<(), InterpError> {
        self.ensure_code();
        let link = self.config.link_latency_ns;
        let (nworkers, epoch_cap) = match self.config.engine {
            Engine::Sharded { workers, epoch_ns } if link > 0 && self.shards.len() > 1 => {
                let n = if workers == 0 {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                } else {
                    workers
                };
                // `epoch_ns == 0` (the default) means adaptive horizons;
                // an explicit width additionally caps every round at
                // `global_min + epoch` (never wider than one wire hop).
                let cap = (epoch_ns != 0).then(|| epoch_ns.min(link));
                (n.min(self.shards.len()), cap)
            }
            _ => (1, None),
        };
        let res = self.run_rounds(max_events, max_time_ns, nworkers, epoch_cap);
        // Per-event counts accumulate as plain id-indexed counters on
        // the shards (the dispatch path never touches a hash map); they
        // materialize into `Stats::per_event` once per run — faulted
        // runs included, since tests compare those stats too.
        self.fold_per_event_counts();
        self.fold_metrics();
        res
    }

    fn run_rounds(
        &mut self,
        max_events: u64,
        max_time_ns: u64,
        nworkers: usize,
        epoch_cap: Option<u64>,
    ) -> Result<(), InterpError> {
        // Static partition: shard i (in switch-id order) → worker i % W.
        let shard_map = std::mem::take(&mut self.shards);
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        let mut seeds: Vec<WorkerSeed> = (0..nworkers).map(|_| WorkerSeed::default()).collect();
        for (i, (id, shard)) in shard_map.into_iter().enumerate() {
            let w = i % nworkers;
            pairs.push((id, u32::try_from(w).expect("worker count fits u32")));
            seeds[w].shards.push(shard);
        }
        let owner = SwitchMap::build(&pairs);

        // A lone worker takes the pending queue whole (and hands it back
        // the same way, so a run costs nothing per event left queued);
        // otherwise pending events go onto their owning workers' heaps.
        seeds[0].arena = std::mem::take(&mut self.arena);
        let queue = std::mem::take(&mut self.queue);
        if nworkers == 1 {
            seeds[0].heap = queue;
        } else {
            for ev in queue.into_events() {
                let w = owner.get(ev.switch).expect("queued for a known switch");
                seeds[w as usize].heap.push(ev);
            }
        }

        let cells: Vec<WorkerCell> = (0..nworkers).map(|_| WorkerCell::default()).collect();
        let shared_peek = AtomicU64::new(u64::MAX);
        let dropped = AtomicU64::new(0);
        let fault: Mutex<Option<(Key, InterpError)>> = Mutex::new(None);
        let barrier = RoundBarrier::new(nworkers);
        let ctx = RoundCtx {
            cells: &cells,
            shared_peek: &shared_peek,
            dropped: &dropped,
            fault: &fault,
            barrier: &barrier,
            owner: &owner,
            link_ns: self.config.link_latency_ns,
            epoch_cap,
            max_events,
            max_time_ns,
        };
        let exec = self.exec();

        // The calling thread is worker 0 and the attached source's one
        // puller (the source never leaves this thread, and its pull
        // counters go with it). Keys do not depend on pull interleaving,
        // so which worker pulls cannot perturb execution.
        let counts = &mut self.source_counts;
        let puller = self.source.as_deref_mut().map(|stream| Puller {
            prog: &exec.prog,
            head: stream.peek_ns().unwrap_or(u64::MAX),
            stream,
            counts,
            batch: Vec::new(),
        });
        let mut outs: Vec<WorkerOut> = Vec::with_capacity(nworkers);
        std::thread::scope(|scope| {
            let mut iter = seeds.into_iter();
            let seed0 = iter.next().expect("at least one worker");
            let mut handles = Vec::with_capacity(nworkers - 1);
            for (w, seed) in iter.enumerate() {
                let ctx = &ctx;
                let exec = exec.clone();
                handles.push(scope.spawn(move || run_round_worker(ctx, &exec, w + 1, seed, None)));
            }
            outs.push(run_round_worker(&ctx, &exec, 0, seed0, puller));
            for handle in handles {
                outs.push(handle.join().expect("worker panicked"));
            }
        });

        // Merge points: everything below happens exactly once, after the
        // pool has quiesced — no lock is contended and no order depends
        // on thread timing.
        let why = outs[0].why;
        let total_processed = outs[0].total;
        debug_assert!(why != StopWhy::Died, "a panicked worker fails the join");

        let mut traces: Vec<Vec<(Key, TraceRec)>> = Vec::with_capacity(nworkers);
        let mut outputs: Vec<Vec<(Key, OutRec)>> = Vec::with_capacity(nworkers);
        for (w, out) in outs.into_iter().enumerate() {
            // Mailboxes are drained at every round's P1, before the stop
            // decision, so none holds anything by now.
            debug_assert!(cells[w].mailbox.lock().expect("mailbox").is_empty());
            // Undispatched events go back to the one queue so a later
            // run (at any worker count) sees them: worker 0's heap
            // whole, the rest re-pushed.
            if w == 0 {
                self.queue = out.heap;
                self.arena = out.arena;
            } else {
                for ev in out.heap.into_events() {
                    self.queue.push(ev);
                }
            }
            for ev in out.parked {
                self.queue.push(ev);
            }
            traces.push(out.trace);
            outputs.push(out.output);
            for mut shard in out.shards {
                // Absorb the shard's run-local stats and advance the
                // interpreter clock.
                self.stats.absorb(&mut shard.stats);
                self.now_ns = self.now_ns.max(shard.now_ns);
                self.shards.insert(shard.switch, shard);
            }
        }
        self.stats.processed += total_processed;
        self.stats.dropped += dropped.load(Relaxed);
        // Each worker's dispatch log is already key-sorted; one k-way
        // merge (k = workers) recovers the global deterministic order,
        // resolving interned ids (event names, printf formats) exactly
        // once per record on the way out.
        let names = &self.names;
        merge_sorted_runs(traces, &mut self.trace, |r| r.into_handled(names));
        merge_sorted_runs(outputs, &mut self.output, |r| r.render(&exec.code));
        match why {
            StopWhy::Fault => {
                let (_, e) = fault
                    .into_inner()
                    .expect("fault cell")
                    .expect("fault stop implies a recorded fault");
                Err(e)
            }
            StopWhy::Fuel => Err(InterpFault::FuelExhausted {
                handled: total_processed,
            }
            .into()),
            _ => Ok(()),
        }
    }
}
