//! Streaming workload generators: parameterized synthetic traffic for the
//! simulator, pulled lazily by both engines so a ten-million-event run
//! holds only the events in flight.
//!
//! A scenario's `"generators"` section compiles (against a checked
//! program) into one [`Workload`] — a deterministic, seeded stream of
//! timed injections. Each generator is an independent flow source with:
//!
//! * an **event** to inject and one destination **switch** (or a set the
//!   source picks from uniformly);
//! * a **rate** (`rate_eps`, events per virtual second, or a raw
//!   `interval_ns`) with optional ± `jitter_ns` on every gap;
//! * a **start/stop window** and/or a total event `count`;
//! * **phase changes** (`phases`: rate switches at given instants — e.g.
//!   an attack burst that multiplies the rate for a window);
//! * per-argument **distributions**: a constant, `uniform` over a closed
//!   range, `zipf` over `n` keys with exponent `s` (heavy hitters), or
//!   `seq` (a cycling counter, for full-range sweeps).
//!
//! Determinism is the load-bearing property: a generator's stream is a
//! pure function of its effective seed (scenario seed mixed with the
//! generator's own), so the same scenario produces bit-identical runs
//! under every engine × executor combination. Event times within one
//! source are nondecreasing, and [`Workload`] merges sources in global
//! (time, source-index) order. One worker pulls the whole stream in a
//! run, whatever the worker count, so every run pulls the identical
//! sequence.

use crate::snap;
use lucid_check::{mask, CheckedProgram};

/// One event pulled from a source: an external injection the interpreter
/// schedules with the usual class-0 key (so generated workload and
/// hand-written `events` share one deterministic order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourcedEvent {
    pub time_ns: u64,
    pub switch: u64,
    /// Index into `prog.info.events`.
    pub event_id: usize,
    /// Already masked to the event's parameter widths.
    pub args: Vec<u64>,
    /// Which source produced it (index into the workload's generators),
    /// for per-generator injection counts in the report.
    pub source: usize,
}

/// A pull-based injection stream, drained lazily by exactly one worker
/// per run: a lone worker pulls everything due at or before its queue
/// head, and — with siblings to feed — worker 0 pulls one round ahead
/// and mails each event to the worker owning its switch (always correct,
/// since per-source keys are independent of pull interleaving).
/// `peek_ns` must be nondecreasing across pulls.
pub trait EventSource {
    /// Virtual time of the next event, `None` when exhausted.
    fn peek_ns(&self) -> Option<u64>;
    /// Pull the next event. `None` exactly when `peek_ns` is `None`.
    fn next_event(&mut self) -> Option<SourcedEvent>;
    /// Pull every event due at or before `horizon_ns` — up to `max` of
    /// them — appending to `out` in stream order. Every pull goes
    /// through this in chunks, so a boxed source pays its virtual
    /// dispatch once per batch rather than twice per injection. The
    /// default loops `peek_ns`/`next_event`; implementations with a
    /// cheaper bulk path may override it, provided the pulled sequence
    /// is identical.
    fn next_batch(&mut self, horizon_ns: u64, max: usize, out: &mut Vec<SourcedEvent>) {
        for _ in 0..max {
            match self.peek_ns() {
                Some(t) if t <= horizon_ns => {
                    out.push(self.next_event().expect("peeked a due event"));
                }
                _ => break,
            }
        }
    }
    /// How many sources feed this stream (sizes the per-source counters).
    fn source_count(&self) -> usize {
        1
    }
    /// Serialize the source's full cursor state (specs, RNG positions,
    /// remaining budget) into `out` so a restored world resumes the
    /// exact stream. Returns `false` when the source does not support
    /// snapshots (the default) — snapshotting such a world is refused
    /// with a structured error rather than silently dropping the stream.
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }
    /// Counterpart of [`EventSource::save_state`]: overwrite this
    /// source's state from `bytes`, re-resolving event names against
    /// `prog`. Corrupted bytes yield `Err`, never a panic.
    fn load_state(&mut self, prog: &CheckedProgram, bytes: &[u8]) -> Result<(), String> {
        let _ = (prog, bytes);
        Err("event source does not support snapshot restore".to_string())
    }
    /// Re-resolve the source's events against a hot-swapped program.
    /// Constituent sources whose event vanished (or changed arity) are
    /// disabled; returns how many were. The default reports the whole
    /// source as incompatible without disabling anything.
    fn remap_events(&mut self, prog: &CheckedProgram) -> usize {
        let _ = prog;
        0
    }
    /// Append a constituent generator mid-run (the serve `ingest` verb).
    /// Returns `false` when the source cannot grow (the default).
    fn attach_generator(&mut self, gen: Generator) -> bool {
        let _ = gen;
        false
    }
}

// ------------------------------------------------------------------- rng

/// Self-contained deterministic generator (xoshiro256++ seeded through
/// splitmix64 — the same construction as the vendored `rand` shim, kept
/// local so `lucid-interp` stays dependency-free and the stream is pinned
/// by this crate alone).
#[derive(Debug, Clone)]
pub(crate) struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub(crate) fn seeded(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)` (multiply-shift; `n = 0` yields 0).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, span]` inclusive — safe for `span = u64::MAX`,
    /// where `below(span + 1)` would overflow.
    fn below_incl(&mut self, span: u64) -> u64 {
        if span == u64::MAX {
            self.next_u64()
        } else {
            self.below(span + 1)
        }
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Mix a scenario-level seed with a per-generator one into the effective
/// stream seed. Both levels matter: `--seed` reshuffles every source, a
/// generator's own `seed` decorrelates it from its siblings.
fn mix_seed(scenario_seed: u64, gen_seed: u64) -> u64 {
    let mut s = scenario_seed ^ gen_seed.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    splitmix64(&mut s)
}

// ----------------------------------------------------------------- specs

/// How one event argument is drawn.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgDist {
    /// The same value every time.
    Const(u64),
    /// Uniform over the closed range `[lo, hi]`.
    Uniform { lo: u64, hi: u64 },
    /// Zipf-like heavy-hitter distribution over keys `0..n`: key `k` is
    /// drawn with probability ∝ `(k+1)^-s` (continuous bounded power-law
    /// inversion — rank 0 is the hottest key).
    Zipf { n: u64, s: f64 },
    /// A cycling counter `0, 1, .., n-1, 0, ..` (deterministic sweeps).
    Seq { n: u64 },
}

/// One rate change: from `at_ns` on, gaps follow the new interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub at_ns: u64,
    pub interval_ns: u64,
}

/// A parsed generator spec (schema-level; compile with
/// [`GenSpec::compile`] against a checked program).
#[derive(Debug, Clone, PartialEq)]
pub struct GenSpec {
    pub name: String,
    pub event: String,
    /// Destination switches; one entry means a fixed destination, more
    /// mean a uniform pick per event.
    pub switches: Vec<u64>,
    /// Base inter-arrival gap, nanoseconds (≥ 1).
    pub interval_ns: u64,
    /// Uniform ± jitter applied to every gap.
    pub jitter_ns: u64,
    pub start_ns: u64,
    /// Inclusive horizon: no event is emitted after this instant.
    pub stop_ns: Option<u64>,
    /// Total event cap.
    pub count: Option<u64>,
    /// Per-generator seed (mixed with the scenario seed).
    pub seed: u64,
    pub args: Vec<ArgDist>,
    /// Rate changes, strictly increasing in `at_ns`.
    pub phases: Vec<Phase>,
}

impl GenSpec {
    /// Instantiate the runtime source. The caller has validated the spec
    /// against the program (event exists, arity matches, switches are in
    /// the topology), so resolution here cannot fail.
    pub fn compile(&self, prog: &CheckedProgram, scenario_seed: u64, index: usize) -> Generator {
        let ev = self.event_info(prog);
        let widths: Vec<u32> = ev
            .params
            .iter()
            .map(|p| p.ty.int_width().unwrap_or(32))
            .collect();
        Generator {
            spec: self.clone(),
            event_id: ev.id,
            widths,
            index,
            rng: Rng::seeded(mix_seed(scenario_seed, self.seed)),
            plans: self.args.iter().map(ArgPlan::of).collect(),
            seq_counters: vec![0; self.args.len()],
            emitted: 0,
            // `count: 0` is a disabled source, not a one-shot: the cap
            // must hold before the first emission too.
            next_time: if self.count == Some(0) {
                None
            } else {
                Some(self.start_ns)
            },
        }
    }

    fn event_info<'p>(&self, prog: &'p CheckedProgram) -> &'p lucid_check::EventInfo {
        prog.info.event(&self.event).expect("validated event name")
    }

    /// Snapshot encoding: the schema-level spec, written field by field
    /// in declaration order (floats as IEEE bit patterns).
    pub(crate) fn encode(&self, w: &mut snap::Writer) {
        w.str(&self.name);
        w.str(&self.event);
        w.u64s(&self.switches);
        w.u64(self.interval_ns);
        w.u64(self.jitter_ns);
        w.u64(self.start_ns);
        w.opt_u64(self.stop_ns);
        w.opt_u64(self.count);
        w.u64(self.seed);
        w.u64(self.args.len() as u64);
        for a in &self.args {
            match *a {
                ArgDist::Const(v) => {
                    w.u8(0);
                    w.u64(v);
                }
                ArgDist::Uniform { lo, hi } => {
                    w.u8(1);
                    w.u64(lo);
                    w.u64(hi);
                }
                ArgDist::Zipf { n, s } => {
                    w.u8(2);
                    w.u64(n);
                    w.f64(s);
                }
                ArgDist::Seq { n } => {
                    w.u8(3);
                    w.u64(n);
                }
            }
        }
        w.u64(self.phases.len() as u64);
        for p in &self.phases {
            w.u64(p.at_ns);
            w.u64(p.interval_ns);
        }
    }

    pub(crate) fn decode(r: &mut snap::Reader<'_>) -> Result<GenSpec, snap::SnapError> {
        let name = r.str()?;
        let event = r.str()?;
        let switches = r.u64s()?;
        let interval_ns = r.u64()?;
        let jitter_ns = r.u64()?;
        let start_ns = r.u64()?;
        let stop_ns = r.opt_u64()?;
        let count = r.opt_u64()?;
        let seed = r.u64()?;
        let nargs = r.len(9, "generator args")?;
        let mut args = Vec::with_capacity(nargs);
        for _ in 0..nargs {
            args.push(match r.u8()? {
                0 => ArgDist::Const(r.u64()?),
                1 => ArgDist::Uniform {
                    lo: r.u64()?,
                    hi: r.u64()?,
                },
                2 => ArgDist::Zipf {
                    n: r.u64()?,
                    s: r.f64()?,
                },
                3 => ArgDist::Seq { n: r.u64()? },
                t => return Err(r.err(format!("bad arg-dist tag {t}"))),
            });
        }
        let nphases = r.len(16, "generator phases")?;
        let mut phases = Vec::with_capacity(nphases);
        for _ in 0..nphases {
            phases.push(Phase {
                at_ns: r.u64()?,
                interval_ns: r.u64()?,
            });
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
}

// ------------------------------------------------------------- generator

/// One compiled flow source: spec + RNG + cursor. Emission is lazy — the
/// next event's time is precomputed (for `peek_ns`) but its payload is
/// drawn only when pulled.
#[derive(Debug, Clone)]
pub struct Generator {
    spec: GenSpec,
    event_id: usize,
    widths: Vec<u32>,
    index: usize,
    rng: Rng,
    /// One compiled [`ArgPlan`] per spec arg, draw-invariant constants
    /// folded once here instead of on every pull.
    plans: Vec<ArgPlan>,
    seq_counters: Vec<u64>,
    emitted: u64,
    /// Time of the next emission; `None` when the source is exhausted.
    next_time: Option<u64>,
}

/// One argument's sampling plan: an [`ArgDist`] with every constant the
/// draw would otherwise re-derive folded at compile time. The zipf
/// curves matter most — inverting the bounded power-law CDF per pull
/// re-computed its normalizer, a `powf`, that only depends on `(n, s)`.
/// Folding is value-preserving: a plan draws bit-identical samples from
/// the same RNG stream as the unfolded distribution.
#[derive(Debug, Clone)]
enum ArgPlan {
    Const(u64),
    Uniform {
        lo: u64,
        span: u64,
    },
    /// Degenerate zipf (`n <= 1`): always key 0, no randomness consumed.
    Zero,
    /// Zipf at `s ≈ 1`: `F(x) = ln x / ln(n+1)`, so `x = (n+1)^u`.
    ZipfLog {
        n: u64,
        nf: f64,
    },
    /// Zipf at `s ≠ 1` with `e = 1 - s`: `x = (1 + u·pow_span)^inv_e`
    /// where `pow_span = (n+1)^e - 1` and `inv_e = 1/e`.
    ZipfPow {
        n: u64,
        pow_span: f64,
        inv_e: f64,
    },
    Seq {
        n: u64,
    },
}

impl ArgPlan {
    fn of(d: &ArgDist) -> ArgPlan {
        match *d {
            ArgDist::Const(v) => ArgPlan::Const(v),
            ArgDist::Uniform { lo, hi } => ArgPlan::Uniform { lo, span: hi - lo },
            ArgDist::Zipf { n, s } => {
                if n <= 1 {
                    ArgPlan::Zero
                } else {
                    let nf = (n + 1) as f64;
                    if (s - 1.0).abs() < 1e-9 {
                        ArgPlan::ZipfLog { n, nf }
                    } else {
                        let e = 1.0 - s;
                        ArgPlan::ZipfPow {
                            n,
                            pow_span: nf.powf(e) - 1.0,
                            inv_e: 1.0 / e,
                        }
                    }
                }
            }
            ArgDist::Seq { n } => ArgPlan::Seq { n },
        }
    }

    /// Draw one value. `seq` is the caller-owned cycling counter for
    /// this argument slot (only [`ArgPlan::Seq`] touches it). The zipf
    /// arms invert the CDF on `x ∈ [1, n+1)`; floor lands in `[1, n]`
    /// and the clamp guards FP edge cases.
    fn sample(&self, rng: &mut Rng, seq: &mut u64) -> u64 {
        match *self {
            ArgPlan::Const(v) => v,
            ArgPlan::Uniform { lo, span } => lo + rng.below_incl(span),
            ArgPlan::Zero => 0,
            ArgPlan::ZipfLog { n, nf } => {
                let u = rng.unit_f64();
                (nf.powf(u) as u64).clamp(1, n) - 1
            }
            ArgPlan::ZipfPow { n, pow_span, inv_e } => {
                let u = rng.unit_f64();
                ((1.0 + u * pow_span).powf(inv_e) as u64).clamp(1, n) - 1
            }
            ArgPlan::Seq { n } => {
                let v = *seq;
                *seq = (v + 1) % n;
                v
            }
        }
    }
}

impl Generator {
    /// The inter-arrival interval in force at instant `t` (phases are
    /// sorted; the last one at or before `t` wins).
    fn interval_at(&self, t: u64) -> u64 {
        let mut iv = self.spec.interval_ns;
        for p in &self.spec.phases {
            if p.at_ns <= t {
                iv = p.interval_ns;
            } else {
                break;
            }
        }
        iv.max(1)
    }

    /// Advance the cursor past an emission at `t`.
    fn advance(&mut self, t: u64) {
        self.emitted += 1;
        if let Some(c) = self.spec.count {
            if self.emitted >= c {
                self.next_time = None;
                return;
            }
        }
        let iv = self.interval_at(t);
        let gap = if self.spec.jitter_ns == 0 {
            iv
        } else {
            // Uniform in [iv - j, iv + j], floored at zero so time never
            // runs backwards (same-instant bursts are legal; keys break
            // the tie deterministically). Saturating arithmetic keeps
            // absurd library-supplied jitters from overflowing.
            let j = self.spec.jitter_ns;
            let lo = iv.saturating_sub(j);
            let hi = iv.saturating_add(j);
            lo.saturating_add(self.rng.below_incl(hi - lo))
        };
        let next = t.saturating_add(gap);
        self.next_time = match self.spec.stop_ns {
            Some(stop) if next > stop => None,
            _ => Some(next),
        };
    }

    fn draw_args(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.plans.len());
        for (i, p) in self.plans.iter().enumerate() {
            let raw = p.sample(&mut self.rng, &mut self.seq_counters[i]);
            out.push(mask(raw, self.widths.get(i).copied().unwrap_or(32)));
        }
        out
    }

    /// Snapshot encoding: the spec plus the dynamic cursor (RNG state,
    /// seq counters, emission count, next emission time). Compiled
    /// plans and the resolved event are re-derived on load.
    fn encode(&self, w: &mut snap::Writer) {
        self.spec.encode(w);
        for s in self.rng.s {
            w.u64(s);
        }
        w.u64s(&self.seq_counters);
        w.u64(self.emitted);
        w.opt_u64(self.next_time);
    }

    /// Decode one generator for slot `index`, re-resolving its event
    /// against `prog`. The event must still exist with the spec's arity
    /// — a snapshot is only restorable onto a compatible program.
    fn decode(
        r: &mut snap::Reader<'_>,
        prog: &CheckedProgram,
        index: usize,
    ) -> Result<Generator, snap::SnapError> {
        let spec = GenSpec::decode(r)?;
        let Some(ev) = prog.info.event(&spec.event) else {
            return Err(r.err(format!(
                "generator '{}' emits unknown event '{}'",
                spec.name, spec.event
            )));
        };
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = r.u64()?;
        }
        let seq_counters = r.u64s()?;
        if seq_counters.len() != spec.args.len() {
            return Err(r.err(format!(
                "generator '{}' has {} seq counters for {} args",
                spec.name,
                seq_counters.len(),
                spec.args.len()
            )));
        }
        let emitted = r.u64()?;
        let next_time = r.opt_u64()?;
        // Seed value is irrelevant — the whole RNG state is overwritten.
        let mut gen = spec.compile(prog, 0, index);
        gen.event_id = ev.id;
        gen.rng = Rng { s };
        gen.seq_counters = seq_counters;
        gen.emitted = emitted;
        gen.next_time = next_time;
        Ok(gen)
    }
}

impl EventSource for Generator {
    fn peek_ns(&self) -> Option<u64> {
        self.next_time
    }

    fn next_event(&mut self) -> Option<SourcedEvent> {
        let t = self.next_time?;
        let switch = match self.spec.switches.as_slice() {
            [s] => *s,
            many => many[self.rng.below(many.len() as u64) as usize],
        };
        let args = self.draw_args();
        self.advance(t);
        Some(SourcedEvent {
            time_ns: t,
            switch,
            event_id: self.event_id,
            args,
            source: self.index,
        })
    }
}

// -------------------------------------------------------------- workload

/// The merged stream the interpreter drains: all generators of a
/// scenario, pulled in global (time, generator-index) order, optionally
/// capped at a total event budget (`lucidc sim --events N`).
#[derive(Debug, Clone)]
pub struct Workload {
    /// In slot order: a generator's position is its
    /// [`SourcedEvent::source`] index, which the merge order and the
    /// per-source keys are built on.
    gens: Vec<Generator>,
    /// Remaining total-event budget (`None`: uncapped).
    remaining: Option<u64>,
    /// Memoized `(time, index)` of the next source, invalidated on pull.
    /// A pull peeks before it takes, so without this the merge would
    /// scan the generator list more than once per event on the hot
    /// injection path.
    head: std::cell::Cell<Option<(u64, usize)>>,
}

impl Workload {
    pub fn new(gens: Vec<Generator>, total_cap: Option<u64>) -> Workload {
        Workload {
            gens,
            remaining: total_cap,
            head: std::cell::Cell::new(None),
        }
    }

    fn head(&self) -> Option<(u64, usize)> {
        if self.remaining == Some(0) {
            return None;
        }
        if let Some(h) = self.head.get() {
            return Some(h);
        }
        let mut best: Option<(u64, usize)> = None;
        for (i, g) in self.gens.iter().enumerate() {
            if let Some(t) = g.peek_ns() {
                // Strict `<` keeps the lowest index on ties — the merge
                // order both engines must agree on.
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        self.head.set(best);
        best
    }
}

impl EventSource for Workload {
    fn peek_ns(&self) -> Option<u64> {
        self.head().map(|(t, _)| t)
    }

    fn next_event(&mut self) -> Option<SourcedEvent> {
        let (_, i) = self.head()?;
        self.head.set(None);
        let ev = self.gens[i].next_event();
        if ev.is_some() {
            if let Some(r) = &mut self.remaining {
                *r -= 1;
            }
        }
        ev
    }

    fn source_count(&self) -> usize {
        self.gens.len()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let mut w = snap::Writer::new();
        w.u64(self.gens.len() as u64);
        for g in &self.gens {
            // The format's per-slot presence byte: every slot holds a
            // generator, so it is always one.
            w.bool(true);
            g.encode(&mut w);
        }
        w.opt_u64(self.remaining);
        out.extend_from_slice(&w.buf);
        true
    }

    fn load_state(&mut self, prog: &CheckedProgram, bytes: &[u8]) -> Result<(), String> {
        let mut r = snap::Reader::new(bytes);
        let mut inner = || -> Result<Workload, snap::SnapError> {
            let n = r.len(1, "workload slots")?;
            let mut gens = Vec::with_capacity(n);
            for index in 0..n {
                if !r.bool()? {
                    return Err(r.err(format!(
                        "workload slot {index} is empty; no snapshot ever written has one"
                    )));
                }
                gens.push(Generator::decode(&mut r, prog, index)?);
            }
            let remaining = r.opt_u64()?;
            r.expect_end()?;
            Ok(Workload {
                gens,
                remaining,
                head: std::cell::Cell::new(None),
            })
        };
        *self = inner().map_err(|e| e.to_string())?;
        Ok(())
    }

    fn remap_events(&mut self, prog: &CheckedProgram) -> usize {
        let mut disabled = 0;
        for g in &mut self.gens {
            match prog.info.event(&g.spec.event) {
                Some(ev) if ev.params.len() == g.widths.len() => {
                    g.event_id = ev.id;
                    g.widths = ev
                        .params
                        .iter()
                        .map(|p| p.ty.int_width().unwrap_or(32))
                        .collect();
                }
                _ => {
                    if g.next_time.is_some() {
                        g.next_time = None;
                        disabled += 1;
                    }
                }
            }
        }
        self.head.set(None);
        disabled
    }

    fn attach_generator(&mut self, mut gen: Generator) -> bool {
        gen.index = self.gens.len();
        self.gens.push(gen);
        self.head.set(None);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_check::parse_and_check;

    const PROG: &str = r#"
        global cts = new Array<<32>>(64);
        memop plus(int m, int x) { return m + x; }
        event pkt(int<<8>> key, int val);
        handle pkt(int<<8>> key, int val) { Array.setm(cts, 0, plus, 1); }
    "#;

    fn spec() -> GenSpec {
        GenSpec {
            name: "g".into(),
            event: "pkt".into(),
            switches: vec![1],
            interval_ns: 100,
            jitter_ns: 30,
            start_ns: 0,
            stop_ns: None,
            count: Some(500),
            seed: 7,
            args: vec![
                ArgDist::Zipf { n: 40, s: 1.2 },
                ArgDist::Uniform { lo: 5, hi: 9 },
            ],
            phases: vec![],
        }
    }

    fn pull_all(src: &mut impl EventSource) -> Vec<SourcedEvent> {
        let mut out = Vec::new();
        while let Some(ev) = src.next_event() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn times_are_nondecreasing_and_count_capped() {
        let prog = parse_and_check(PROG).unwrap();
        let mut g = spec().compile(&prog, 0, 0);
        let evs = pull_all(&mut g);
        assert_eq!(evs.len(), 500);
        for w in evs.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
        assert!(g.peek_ns().is_none());
    }

    #[test]
    fn same_seed_is_bit_identical_different_seed_is_not() {
        let prog = parse_and_check(PROG).unwrap();
        let a = pull_all(&mut spec().compile(&prog, 3, 0));
        let b = pull_all(&mut spec().compile(&prog, 3, 0));
        assert_eq!(a, b);
        let c = pull_all(&mut spec().compile(&prog, 4, 0));
        assert_ne!(a, c, "scenario seed must reshuffle the stream");
    }

    #[test]
    fn args_respect_distributions_and_widths() {
        let prog = parse_and_check(PROG).unwrap();
        let evs = pull_all(&mut spec().compile(&prog, 0, 0));
        let mut hist = [0u64; 40];
        for ev in &evs {
            let key = ev.args[0];
            assert!(key < 40, "zipf key {key} out of range");
            assert!((5..=9).contains(&ev.args[1]), "uniform {}", ev.args[1]);
            hist[key as usize] += 1;
        }
        // Heavy-hitter shape: rank 0 clearly hotter than the median rank.
        assert!(hist[0] > 4 * hist[20].max(1), "zipf skew missing: {hist:?}");
    }

    #[test]
    fn count_zero_is_a_disabled_source() {
        let prog = parse_and_check(PROG).unwrap();
        let mut s = spec();
        s.count = Some(0);
        let mut g = s.compile(&prog, 0, 0);
        assert!(g.peek_ns().is_none(), "count 0 must emit nothing");
        assert!(g.next_event().is_none());
    }

    #[test]
    fn uniform_and_jitter_survive_extreme_bounds() {
        // `hi = u64::MAX` and huge jitters must not overflow (the JSON
        // path caps values at 2^53, but the library path does not).
        let prog = parse_and_check(PROG).unwrap();
        let mut s = spec();
        s.count = Some(50);
        s.jitter_ns = u64::MAX / 2;
        s.args = vec![
            ArgDist::Uniform {
                lo: 0,
                hi: u64::MAX,
            },
            ArgDist::Const(0),
        ];
        let evs = pull_all(&mut s.compile(&prog, 1, 0));
        assert_eq!(evs.len(), 50);
        // The 8-bit first parameter masks the draw; the draws themselves
        // must vary (a wrapped `below(0)` would pin them to `lo`).
        let distinct: std::collections::HashSet<u64> = evs.iter().map(|e| e.args[0]).collect();
        assert!(distinct.len() > 10, "{distinct:?}");
        for w in evs.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
    }

    #[test]
    fn seq_distribution_cycles() {
        let prog = parse_and_check(PROG).unwrap();
        let mut s = spec();
        s.args = vec![ArgDist::Seq { n: 3 }, ArgDist::Const(1)];
        s.count = Some(7);
        let evs = pull_all(&mut s.compile(&prog, 0, 0));
        let keys: Vec<u64> = evs.iter().map(|e| e.args[0]).collect();
        assert_eq!(keys, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn stop_window_and_phase_changes_apply() {
        let prog = parse_and_check(PROG).unwrap();
        let mut s = spec();
        s.jitter_ns = 0;
        s.count = None;
        s.stop_ns = Some(10_000);
        // Burst: 10x the rate from t=5000 on.
        s.phases = vec![Phase {
            at_ns: 5_000,
            interval_ns: 10,
        }];
        let evs = pull_all(&mut s.compile(&prog, 0, 0));
        let before = evs.iter().filter(|e| e.time_ns < 5_000).count();
        let after = evs.len() - before;
        assert_eq!(before, 50, "base rate: one event per 100 ns");
        assert!(after > 400, "burst phase must dominate: {after}");
        assert!(evs.iter().all(|e| e.time_ns <= 10_000));
    }

    #[test]
    fn workload_merges_in_time_then_index_order_and_caps_total() {
        let prog = parse_and_check(PROG).unwrap();
        let mut a = spec();
        a.name = "a".into();
        a.jitter_ns = 0;
        a.count = Some(10);
        let mut b = a.clone();
        b.name = "b".into();
        let w = Workload::new(
            vec![a.compile(&prog, 0, 0), b.compile(&prog, 0, 1)],
            Some(15),
        );
        let mut w = w;
        let evs = pull_all(&mut w);
        assert_eq!(evs.len(), 15, "total cap");
        for pair in evs.windows(2) {
            let k0 = (pair[0].time_ns, pair[0].source);
            let k1 = (pair[1].time_ns, pair[1].source);
            assert!(k0 <= k1, "merge order violated: {k0:?} then {k1:?}");
        }
        // Same instant → source index breaks the tie.
        assert_eq!((evs[0].source, evs[1].source), (0, 1));
    }

    #[test]
    fn zipf_plans_cover_bounds() {
        // Every zipf arm (degenerate, s≈1 log form, s<1 and s>1 power
        // forms) must keep draws inside 0..n across the folded plans.
        let mut rng = Rng::seeded(1);
        let mut seq = 0u64;
        for n in [1u64, 2, 10, 1 << 20] {
            for s in [1.0f64, 1.5, 0.5] {
                let plan = ArgPlan::of(&ArgDist::Zipf { n, s });
                for _ in 0..200 {
                    assert!(plan.sample(&mut rng, &mut seq) < n, "n={n} s={s}");
                }
            }
        }
        assert_eq!(seq, 0, "zipf plans must not touch the seq counter");
    }
}
