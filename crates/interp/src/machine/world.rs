//! The world as data: snapshot encode/decode of the full dynamic state
//! ([`Interp::save_world`] / [`Interp::load_world`]), in-place program
//! hot-swap ([`Interp::swap_program`]), and mid-session generator
//! attachment.

use super::sched::{Key, SchedHeap, Scheduled};
use super::{intern_names, Code, Handled, Interp, Stats};
use crate::metrics::{ClassHists, ShardMetrics};
use crate::snap;
use crate::workload::{GenSpec, Workload};
use lucid_check::{mask, CheckedProgram};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Snapshot magic number: `LUCWORLD` as little-endian bytes, bumped with
/// the format version in the low byte. A reader seeing anything else
/// refuses the blob up front.
const WORLD_MAGIC: u64 = u64::from_le_bytes(*b"LUCWRLD\x01");

/// What a [`Interp::swap_program`] hot-swap did to the running world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Per-switch arrays whose (name, cell width, length) matched the new
    /// program and were carried over.
    pub arrays_carried: usize,
    /// Arrays of the new program with no compatible predecessor, zeroed.
    pub arrays_reset: usize,
    /// Pending queued events remapped to the new program's event ids.
    pub queued_remapped: u64,
    /// Pending queued events whose event vanished (or changed arity),
    /// dropped.
    pub queued_dropped: u64,
    /// Attached workload generators disabled because their event is gone.
    pub sources_disabled: usize,
}

fn encode_sched(w: &mut snap::Writer, s: &Scheduled) {
    w.u64(s.key.time_ns);
    w.u8(s.key.class);
    w.u64(s.key.origin);
    w.u64(s.key.seq);
    w.u64(s.switch);
    w.u64(s.event_id as u64);
    w.u64s(&s.args);
    w.u64(s.enq_ns);
    w.u64(s.root_ns);
}

fn decode_sched(
    r: &mut snap::Reader<'_>,
    prog: &CheckedProgram,
) -> Result<Scheduled, snap::SnapError> {
    let key = Key {
        time_ns: r.u64()?,
        class: r.u8()?,
        origin: r.u64()?,
        seq: r.u64()?,
    };
    let switch = r.u64()?;
    let event_id = r.u64()? as usize;
    let args = r.u64s()?;
    let enq_ns = r.u64()?;
    let root_ns = r.u64()?;
    let Some(ev) = prog.info.events.get(event_id) else {
        return Err(r.err(format!("queued event id {event_id} out of range")));
    };
    if ev.params.len() != args.len() {
        return Err(r.err(format!(
            "queued '{}' carries {} args for {} params",
            ev.name,
            args.len(),
            ev.params.len()
        )));
    }
    Ok(Scheduled {
        key,
        switch,
        event_id,
        args,
        enq_ns,
        root_ns,
    })
}

impl Interp {
    /// Encode the full dynamic world — clock, stats, trace, `printf`
    /// output, metrics, per-switch state, the pending queue, and the
    /// attached source's cursors — into a deterministic byte stream.
    /// Two worlds in the same state encode to identical bytes, whichever
    /// engine produced them. Fails (without writing) when a custom
    /// source does not support [`crate::EventSource::save_state`].
    pub fn save_world(&self, out: &mut Vec<u8>) -> Result<(), String> {
        let mut src_bytes = None;
        if let Some(src) = &self.source {
            let mut bytes = Vec::new();
            if !src.save_state(&mut bytes) {
                return Err("attached event source does not support snapshots".to_string());
            }
            src_bytes = Some(bytes);
        }
        let mut w = snap::Writer::new();
        w.u64(WORLD_MAGIC);
        w.u64(self.now_ns);
        w.u64(self.inj_seq);
        w.u64(self.stats.processed);
        w.u64(self.stats.handled);
        w.u64(self.stats.recirculated);
        w.u64(self.stats.sent_remote);
        w.u64(self.stats.exported);
        w.u64(self.stats.dropped);
        let mut per_event: Vec<(&String, &u64)> = self.stats.per_event.iter().collect();
        per_event.sort();
        w.u64(per_event.len() as u64);
        for (name, n) in per_event {
            w.str(name);
            w.u64(*n);
        }
        w.u64(self.trace.len() as u64);
        for h in &self.trace {
            w.u64(h.time_ns);
            w.u64(h.switch);
            w.str(&h.event);
            w.u64s(&h.args);
        }
        w.u64(self.output.len() as u64);
        for line in &self.output {
            w.str(line);
        }
        w.u64s(&self.source_counts);
        w.u64(self.metrics_acc.len() as u64);
        for ((switch, event), hists) in &self.metrics_acc {
            w.u64(*switch);
            w.str(event);
            hists.encode(&mut w);
        }
        w.u64(self.shards.len() as u64);
        for (id, shard) in &self.shards {
            w.u64(*id);
            w.bool(shard.alive);
            w.u64(shard.now_ns);
            w.u64(shard.emit_seq);
            w.u64(shard.state.arrays.len() as u64);
            for arr in &shard.state.arrays {
                w.u64s(arr);
            }
            // The format's per-shard parked-event count: nothing parks
            // on a shard between runs, so it is always zero.
            w.u64(0);
        }
        w.u64(self.queue.len() as u64);
        for s in self.queue.in_key_order() {
            encode_sched(&mut w, s);
        }
        match src_bytes {
            None => w.bool(false),
            Some(bytes) => {
                w.bool(true);
                w.bytes(&bytes);
            }
        }
        out.extend_from_slice(&w.buf);
        Ok(())
    }

    /// Counterpart of [`Interp::save_world`]: overwrite this world's
    /// dynamic state from `bytes`. The world must have been built from
    /// the same program and topology (array geometry and switch ids are
    /// checked). Corrupted or mismatched bytes yield `Err` and leave the
    /// world unspecified-but-safe; they never panic.
    pub fn load_world(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.load_world_inner(bytes).map_err(|e| e.to_string())
    }

    fn load_world_inner(&mut self, bytes: &[u8]) -> Result<(), snap::SnapError> {
        let mut r = snap::Reader::new(bytes);
        let magic = r.u64()?;
        if magic != WORLD_MAGIC {
            return Err(r.err(format!("bad magic {magic:#018x}")));
        }
        self.now_ns = r.u64()?;
        self.inj_seq = r.u64()?;
        self.stats = Stats {
            processed: r.u64()?,
            handled: r.u64()?,
            recirculated: r.u64()?,
            sent_remote: r.u64()?,
            exported: r.u64()?,
            dropped: r.u64()?,
            per_event: HashMap::new(),
        };
        let n = r.len(9, "per-event stats")?;
        for _ in 0..n {
            let name = r.str()?;
            let count = r.u64()?;
            self.stats.per_event.insert(name, count);
        }
        // Trace records re-intern their event names: known events share
        // the world's interned `Arc<str>`s, names from an earlier program
        // epoch get their own allocation. A world that records no trace
        // still decodes (and bounds-checks) every record but keeps none:
        // it would never extend a restored prefix, only export it again.
        let by_name: HashMap<&str, usize> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (&**n, i))
            .collect();
        let n = r.len(25, "trace")?;
        self.trace = Vec::with_capacity(if self.record_trace { n } else { 0 });
        for _ in 0..n {
            let time_ns = r.u64()?;
            let switch = r.u64()?;
            let name = r.str()?;
            let args = r.u64s()?;
            if !self.record_trace {
                continue;
            }
            let event = match by_name.get(name.as_str()) {
                Some(&i) => self.names[i].clone(),
                None => Arc::from(name.as_str()),
            };
            self.trace.push(Handled {
                time_ns,
                switch,
                event,
                args,
            });
        }
        let n = r.len(8, "output")?;
        self.output = Vec::with_capacity(n);
        for _ in 0..n {
            self.output.push(r.str()?);
        }
        self.source_counts = r.u64s()?;
        let n = r.len(17, "metrics rows")?;
        self.metrics_acc = BTreeMap::new();
        for _ in 0..n {
            let switch = r.u64()?;
            let event = r.str()?;
            let hists = ClassHists::decode(&mut r)?;
            self.metrics_acc.insert((switch, event), hists);
        }
        let n = r.len(35, "shards")?;
        if n != self.shards.len() {
            return Err(r.err(format!(
                "snapshot has {n} switches, world has {}",
                self.shards.len()
            )));
        }
        for _ in 0..n {
            let id = r.u64()?;
            let Some(shard) = self.shards.get_mut(&id) else {
                return Err(r.err(format!("snapshot switch {id} not in this topology")));
            };
            shard.alive = r.bool()?;
            shard.now_ns = r.u64()?;
            shard.emit_seq = r.u64()?;
            let narr = r.len(8, "arrays")?;
            if narr != self.prog.info.globals.len() {
                return Err(r.err(format!(
                    "snapshot has {narr} arrays, program declares {}",
                    self.prog.info.globals.len()
                )));
            }
            let mut arrays = Vec::with_capacity(narr);
            for g in &self.prog.info.globals {
                let arr = r.u64s()?;
                if arr.len() as u64 != g.len {
                    return Err(r.err(format!(
                        "array '{}' has {} cells, program declares {}",
                        g.name,
                        arr.len(),
                        g.len
                    )));
                }
                arrays.push(arr);
            }
            shard.state.arrays = arrays;
            if r.u64()? != 0 {
                return Err(r.err(format!(
                    "switch {id} carries parked events; no snapshot ever written does"
                )));
            }
        }
        let nq = r.len(59, "pending events")?;
        self.queue = SchedHeap::with_capacity(nq);
        for _ in 0..nq {
            let s = decode_sched(&mut r, &self.prog)?;
            if !self.shards.contains_key(&s.switch) {
                return Err(r.err(format!(
                    "queued event targets switch {} outside this topology",
                    s.switch
                )));
            }
            self.queue.push(s);
        }
        if r.bool()? {
            let src_bytes = r.bytes()?;
            if self.source.is_none() {
                self.source = Some(Box::new(Workload::new(Vec::new(), None)));
            }
            let prog = Arc::clone(&self.prog);
            self.source
                .as_mut()
                .expect("just ensured")
                .load_state(&prog, src_bytes)
                .map_err(|msg| r.err(msg))?;
        } else {
            self.source = None;
        }
        r.expect_end()?;
        Ok(())
    }

    /// Hot-swap the running program for a new epoch, in place. State
    /// carries over where it can: per-switch arrays whose (name, cell
    /// width, length) match move across unchanged, pending events are
    /// remapped by event name where the arity still matches (arguments
    /// re-masked to the new widths) and dropped otherwise, and attached
    /// workload generators re-resolve their events. Stats, trace, and
    /// metrics accumulate across the swap — they are the session's
    /// history, not the epoch's.
    ///
    /// Must be called between runs (after [`Interp::run`] returned), when
    /// shard-local buffers are folded.
    pub fn swap_program(&mut self, new: Arc<CheckedProgram>) -> SwapStats {
        let mut st = SwapStats::default();
        // New global id → compatible old global id.
        let carry: Vec<Option<usize>> = new
            .info
            .globals
            .iter()
            .map(|g| {
                self.prog.info.globals_by_name.get(&g.name).and_then(|old| {
                    let og = &self.prog.info.globals[old.0];
                    (og.cell_width == g.cell_width && og.len == g.len).then_some(old.0)
                })
            })
            .collect();
        // Old event id → new event id (same name, same arity).
        let evmap: Vec<Option<usize>> = self
            .prog
            .info
            .events
            .iter()
            .map(|e| {
                new.info
                    .event(&e.name)
                    .and_then(|ne| (ne.params.len() == e.params.len()).then_some(ne.id))
            })
            .collect();
        let remap = |s: &mut Scheduled, st: &mut SwapStats| -> bool {
            match evmap.get(s.event_id).copied().flatten() {
                Some(nid) => {
                    s.event_id = nid;
                    for (a, p) in s.args.iter_mut().zip(&new.info.events[nid].params) {
                        *a = mask(*a, p.ty.int_width().unwrap_or(32));
                    }
                    st.queued_remapped += 1;
                    true
                }
                None => {
                    st.queued_dropped += 1;
                    false
                }
            }
        };
        let nevents = new.info.events.len();
        for shard in self.shards.values_mut() {
            let mut old: Vec<Option<Vec<u64>>> = std::mem::take(&mut shard.state.arrays)
                .into_iter()
                .map(Some)
                .collect();
            shard.state.arrays = carry
                .iter()
                .enumerate()
                .map(|(nid, c)| match c.and_then(|oid| old[oid].take()) {
                    Some(arr) => {
                        st.arrays_carried += 1;
                        arr
                    }
                    None => {
                        st.arrays_reset += 1;
                        vec![0; new.info.globals[nid].len as usize]
                    }
                })
                .collect();
            shard.per_event_ids = vec![0; nevents];
            shard.metrics = ShardMetrics::new(nevents);
        }
        for mut s in std::mem::take(&mut self.queue).into_events() {
            if remap(&mut s, &mut st) {
                self.queue.push(s);
            }
        }
        self.names = intern_names(&new);
        self.prog = new;
        self.code = Code::build(&self.prog, &self.config, &self.names);
        if let Some(src) = self.source.as_mut() {
            let prog = Arc::clone(&self.prog);
            st.sources_disabled = src.remap_events(&prog);
        }
        st
    }

    /// Attach a generator spec to the running world mid-session (the
    /// serve `ingest` verb). Creates an empty [`Workload`] if no source
    /// is attached yet; the new generator claims the next source slot so
    /// existing per-source counters keep their positions.
    pub fn attach_generator(
        &mut self,
        spec: &GenSpec,
        scenario_seed: u64,
    ) -> Result<usize, String> {
        let Some(ev) = self.prog.info.event(&spec.event) else {
            return Err(format!("generator emits unknown event '{}'", spec.event));
        };
        if spec.args.len() != ev.params.len() {
            return Err(format!(
                "generator for '{}' draws {} args, event has {} params",
                spec.event,
                spec.args.len(),
                ev.params.len()
            ));
        }
        for &s in &spec.switches {
            if !self.shards.contains_key(&s) {
                return Err(format!("generator targets unknown switch {s}"));
            }
        }
        if spec.switches.is_empty() {
            return Err("generator targets no switches".to_string());
        }
        if self.source.is_none() {
            self.source = Some(Box::new(Workload::new(Vec::new(), None)));
        }
        let src = self.source.as_mut().expect("just ensured");
        let slot = src.source_count();
        let gen = spec.compile(&self.prog, scenario_seed, slot);
        if !src.attach_generator(gen) {
            return Err("attached event source cannot accept generators".to_string());
        }
        self.source_counts.resize(src.source_count(), 0);
        Ok(slot)
    }
}
