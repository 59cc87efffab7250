//! Event scheduling primitives shared by the interpreter and its driver:
//! the deterministic event [`Key`], the [`Scheduled`] queue entry, the
//! one event-queue representation ([`SchedHeap`]), the flat switch
//! routing table, and the helpers that shape sourced injections and
//! merge key-sorted dispatch logs.

use super::{ArgArena, FaultAt};
use lucid_check::{mask, CheckedProgram};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The deterministic total order on events. Ties in virtual time break on
/// class and origin: externally injected events come first — explicitly
/// scheduled ones (origin 0, in schedule order) before sourced ones (one
/// origin per workload source, in per-source pull order) — then generated
/// events by source switch and per-source emission count. Both engines
/// schedule with the same keys, which is what makes their per-shard
/// execution orders — and therefore their results — identical; no key
/// component depends on *when* an engine materializes the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub(crate) time_ns: u64,
    /// 0 = externally injected, 1 = handler-generated.
    pub(crate) class: u8,
    /// Source switch for generated events; for injections, 0 when
    /// explicitly scheduled or `1 + source index` when pulled from an
    /// attached [`EventSource`].
    pub(crate) origin: u64,
    /// Injection counter / per-source pull counter / per-switch emission
    /// counter, matching `class`/`origin`.
    pub(crate) seq: u64,
}

impl Key {
    /// The fault location this key describes, for error reports.
    pub(crate) fn fault_at(&self, switch: u64, event: &str) -> FaultAt {
        FaultAt {
            time_ns: self.time_ns,
            switch,
            event: event.to_string(),
            origin: (self.class == 1).then_some(self.origin),
            seq: self.seq,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Scheduled {
    pub(crate) key: Key,
    /// Destination switch.
    pub(crate) switch: u64,
    pub(crate) event_id: usize,
    pub(crate) args: Vec<u64>,
    /// Virtual instant this entry was enqueued: the emitting shard's
    /// clock for generated events, the arrival time itself for external
    /// injections. `key.time_ns - enq_ns` is the queue residency the
    /// metrics layer records.
    pub(crate) enq_ns: u64,
    /// Arrival time of the external injection at the root of this
    /// event's causal chain, inherited across `generate`.
    /// `key.time_ns - root_ns` is the dispatch latency.
    pub(crate) root_ns: u64,
}

/// A switch-id lookup table on the per-event routing path. Configs
/// number switches densely from 1, so the common case is a flat-array
/// read; arbitrary ids fall back to hashing (whose per-event SipHash is
/// measurable on this path).
pub(crate) enum SwitchMap {
    Dense(Vec<u32>),
    Sparse(HashMap<u64, u32>),
}

impl SwitchMap {
    const NONE: u32 = u32::MAX;

    /// Build from `(switch id, value)` pairs; values must be below
    /// [`Self::NONE`].
    pub(crate) fn build(pairs: &[(u64, u32)]) -> SwitchMap {
        let max = pairs.iter().map(|&(id, _)| id).max().unwrap_or(0);
        // Dense storage pays one u32 per id up to the largest; cap the
        // slack at a few KiB beyond what the entry count justifies.
        if (max as usize) < pairs.len() * 4 + 1024 {
            let mut v = vec![Self::NONE; max as usize + 1];
            for &(id, w) in pairs {
                v[id as usize] = w;
            }
            SwitchMap::Dense(v)
        } else {
            SwitchMap::Sparse(pairs.iter().map(|&(id, w)| (id, w)).collect())
        }
    }

    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<u32> {
        let w = match self {
            SwitchMap::Dense(v) => usize::try_from(id)
                .ok()
                .and_then(|i| v.get(i).copied())
                .unwrap_or(Self::NONE),
            SwitchMap::Sparse(m) => m.get(&id).copied().unwrap_or(Self::NONE),
        };
        (w != Self::NONE).then_some(w)
    }
}

/// A min-queue of [`Scheduled`] events built as an index heap over a
/// slab: the binary heap orders compact `(Key, slot)` pairs while the
/// much larger payloads stay put in a pooled slab, so every heap sift
/// moves less than half the bytes a `BinaryHeap<Scheduled>` would, and
/// head peeks never touch the slab at all. Keys are globally unique,
/// so pair order is exactly the key order the engine contract
/// requires. A popped slot leaves a dead record behind (empty args —
/// no allocation) and recycles through a freelist. This is the only
/// event queue: the interpreter's pending events between runs, handed
/// whole to a lone worker and partitioned onto per-worker heaps above
/// one.
#[derive(Default)]
pub(crate) struct SchedHeap {
    pool: Vec<Scheduled>,
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<(Key, u32)>>,
}

impl SchedHeap {
    pub(crate) fn with_capacity(n: usize) -> Self {
        SchedHeap {
            pool: Vec::with_capacity(n),
            free: Vec::new(),
            heap: BinaryHeap::with_capacity(n),
        }
    }

    fn dead() -> Scheduled {
        Scheduled {
            key: Key {
                time_ns: 0,
                class: 0,
                origin: 0,
                seq: 0,
            },
            switch: 0,
            event_id: 0,
            args: Vec::new(),
            enq_ns: 0,
            root_ns: 0,
        }
    }

    pub(crate) fn push(&mut self, s: Scheduled) {
        let key = s.key;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.pool[slot as usize] = s;
                slot
            }
            None => {
                self.pool.push(s);
                u32::try_from(self.pool.len() - 1).expect("in-flight events fit u32")
            }
        };
        self.heap.push(Reverse((key, slot)));
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Key of the minimum pending event, straight off the heap head.
    pub(crate) fn peek_key(&self) -> Option<Key> {
        self.heap.peek().map(|&Reverse((k, _))| k)
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        let Reverse((_, slot)) = self.heap.pop()?;
        self.free.push(slot);
        Some(std::mem::replace(
            &mut self.pool[slot as usize],
            Self::dead(),
        ))
    }

    /// Tear down into the undispatched events, in no particular order.
    pub(crate) fn into_events(self) -> impl Iterator<Item = Scheduled> {
        let mut pool = self.pool;
        self.heap.into_iter().map(move |Reverse((_, slot))| {
            std::mem::replace(&mut pool[slot as usize], Self::dead())
        })
    }

    /// The pending events in key order — heap and slab order are
    /// arbitrary and must never leak into snapshot bytes.
    pub(crate) fn in_key_order(&self) -> impl Iterator<Item = &Scheduled> {
        let mut pairs: Vec<(Key, u32)> = self.heap.iter().map(|r| r.0).collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, slot)| &self.pool[slot as usize])
    }
}

/// Shape one sourced event into a scheduled class-0 injection, assigning
/// the key `(time, class 0, origin = source index + 1, seq = per-source
/// pull count)` and bumping that source's counter (dropped events count
/// too, mirroring the per-generator report rows). The arguments land in
/// a buffer of the pulling worker's `arena`.
///
/// Keying sourced injections per *source* rather than by a global pull
/// counter is what lets the one puller run ahead of execution (a lone
/// worker up to its queue head, worker 0 of a pool a window ahead): the
/// key depends only on the source's own stream position, never on when
/// the pull happens. The total order is unchanged:
/// [`crate::workload::Workload`] merges sources in (time, source-index)
/// order with nondecreasing times per source — exactly the (time,
/// origin, seq) order these keys encode — and explicitly scheduled
/// events keep `origin = 0`, winning time-ties just as their lower
/// global pull order did.
pub(crate) fn shape_sourced(
    prog: &CheckedProgram,
    counts: &mut Vec<u64>,
    ev: crate::workload::SourcedEvent,
    arena: &mut ArgArena,
) -> Scheduled {
    if ev.source >= counts.len() {
        // Custom sources may misreport `source_count`; grow rather than
        // lose the per-source sequencing both engines must agree on.
        counts.resize(ev.source + 1, 0);
    }
    counts[ev.source] += 1;
    let params = &prog.info.events[ev.event_id].params;
    // Exactly one value per parameter, masked to its width — short
    // custom-source arg lists pad with zeros rather than leaving handler
    // parameters unbound.
    let mut args = arena.take(params.len());
    args.extend(params.iter().enumerate().map(|(i, p)| {
        mask(
            ev.args.get(i).copied().unwrap_or(0),
            p.ty.int_width().unwrap_or(32),
        )
    }));
    Scheduled {
        key: Key {
            time_ns: ev.time_ns,
            class: 0,
            origin: ev.source as u64 + 1,
            seq: counts[ev.source],
        },
        switch: ev.switch,
        event_id: ev.event_id,
        args,
        // An injection roots its own causal chain and spends no virtual
        // time queued, so both metric baselines are the key time.
        enq_ns: ev.time_ns,
        root_ns: ev.time_ns,
    }
}

/// K-way merge of key-sorted runs into `out`, dropping the keys and
/// mapping each record through `f` (the id-to-name resolution step).
/// Each run must be internally sorted (debug-asserted); equal keys can
/// only be adjacent records of one run (several printf lines from a
/// single handler activation) and keep their order — across runs every
/// [`Key`] is globally unique, so ties between runs are impossible.
pub(crate) fn merge_sorted_runs<T, U>(
    mut runs: Vec<Vec<(Key, T)>>,
    out: &mut Vec<U>,
    mut f: impl FnMut(T) -> U,
) {
    out.reserve(runs.iter().map(Vec::len).sum());
    runs.retain(|r| !r.is_empty());
    if let [run] = &mut runs[..] {
        // One non-empty run (every single-worker run): already in order.
        debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
        out.extend(std::mem::take(run).into_iter().map(|(_, v)| f(v)));
        return;
    }
    let mut iters: Vec<std::iter::Peekable<std::vec::IntoIter<(Key, T)>>> = runs
        .into_iter()
        .map(|r| {
            debug_assert!(r.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
            r.into_iter().peekable()
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(Key, usize)>> = iters
        .iter_mut()
        .enumerate()
        .filter_map(|(i, it)| it.peek().map(|(k, _)| Reverse((*k, i))))
        .collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let (_, v) = iters[i].next().expect("peeked");
        out.push(f(v));
        if let Some((k, _)) = iters[i].peek() {
            heap.push(Reverse((*k, i)));
        }
    }
}
