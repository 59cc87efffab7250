//! Deterministic per-event-class latency metrics.
//!
//! Every live dispatch records two virtual-time measurements into the
//! shard that ran it, keyed by event class (event name × switch):
//!
//! * **dispatch latency** — nanoseconds elapsed from the *root* external
//!   injection of the event's causal chain to this dispatch. Recorded for
//!   *derived* (handler-generated) events only: an injected packet is its
//!   own root, so its latency would always be 0 and generator-driven runs
//!   would report all-zero tails. A handler-generated event inherits its
//!   cause's root, so a recirculate-then-report chain shows the full
//!   pipeline traversal time.
//! * **queue residency** — nanoseconds the event itself spent in flight:
//!   its dispatch instant minus the instant it was scheduled
//!   (recirculation/wire latency plus any `Event.delay`; 0 for external
//!   injections, which are scheduled at their own arrival instant).
//!
//! Both measurements are pure functions of the deterministic event
//! [`Key`](crate::machine) order, never of wall time or engine choice, so
//! the sequential and sharded engines produce **bit-identical** metrics —
//! [`Metrics::digest`] joins `state_digest` as a cross-engine equality
//! check, and the differential suites assert it.
//!
//! Samples land in [`Histogram`]s: log-bucketed (one bucket per power of
//! two) with exact `count`/`sum`/`min`/`max` sidecars. Recording is two
//! array increments and a handful of integer ops — no locks, no
//! allocation, no hashing — accumulated per shard and merged once at run
//! end, mirroring the `per_event_ids` counter pattern. Histogram merge is
//! element-wise addition, so any merge order yields the same result.
//!
//! Percentiles ([`Histogram::quantile`]) interpolate linearly inside the
//! selected bucket in pure integer arithmetic, clamped by the exact
//! min/max, so a report's p50/p90/p99/p999 are engine-independent too.

use crate::value::Fnv1a;
use lucid_frontend::json::{self, Writer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `buckets[0]` counts zeros; `buckets[b]` (1..=64) counts values with
/// bit-length `b`, i.e. the range `[2^(b-1), 2^b - 1]`.
const BUCKETS: usize = 65;

/// A log-bucketed fixed-bin histogram of `u64` samples (virtual
/// nanoseconds). One bucket per power of two keeps recording O(1) with a
/// bounded footprint at any value range, while the exact `min`/`max`
/// bounds make small histograms (the common scenario case) exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    /// Wrapping sum of all samples (overflow is deterministic and merges
    /// commute, which is all the digest needs).
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket a value lands in: 0 for 0, else its bit length.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound of bucket `b` (inclusive).
    fn bucket_lo(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Upper bound of bucket `b` (inclusive).
    fn bucket_hi(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Record one sample. O(1), allocation-free — this is the dispatch
    /// hot path.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold `other` into `self`. Element-wise addition: commutative and
    /// associative, so shard merge order cannot change the result.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 on an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 on an empty histogram).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `num/den` quantile (e.g. `quantile(99, 100)` for p99), in pure
    /// integer arithmetic so every engine and platform agrees bit-for-bit:
    /// pick the sample of rank `ceil(count * num / den)` (clamped to
    /// `[1, count]`), then interpolate linearly across its bucket's value
    /// range, tightened by the exact global min/max. Empty histograms
    /// report 0; a single sample reports itself at every quantile.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank =
            ((self.count as u128 * num as u128).div_ceil(den as u128)).clamp(1, self.count as u128);
        let mut before: u128 = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if before + n as u128 >= rank {
                // `k`-th sample of this bucket (1-based), interpolated
                // over the bucket's clamped value range.
                let k = (rank - before) as u64;
                let lo = Self::bucket_lo(b).max(self.min);
                let hi = Self::bucket_hi(b).min(self.max);
                let span = (hi - lo) as u128;
                // k=1 → lo, k=n → hi: the bucket's top rank reaches its
                // ceiling, so quantile(1, 1) of the last bucket == max.
                let denom = u128::from(n - 1).max(1);
                return lo + ((span * (k - 1) as u128) / denom) as u64;
            }
            before += n as u128;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(50, 100)
    }

    fn p90(&self) -> u64 {
        self.quantile(90, 100)
    }

    fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }

    fn p999(&self) -> u64 {
        self.quantile(999, 1000)
    }

    /// Mix this histogram's observable content into an FNV-1a state.
    fn digest_into(&self, h: &mut Fnv1a) {
        h.u64(self.count);
        h.u64(self.sum);
        h.u64(self.min());
        h.u64(self.max);
        for &b in &self.buckets {
            h.u64(b);
        }
    }

    /// The four tail percentiles as a JSON object (plus exact bounds).
    fn write_stats(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("p50").u64(self.p50()).key("p90").u64(self.p90());
            w.key("p99").u64(self.p99()).key("p999").u64(self.p999());
            w.key("min").u64(self.min()).key("max").u64(self.max());
        });
    }
}

/// The two per-class histograms every dispatch feeds, plus the exact
/// dispatch count.
///
/// The count is explicit rather than `dispatch.count()` because the two
/// measure different populations: every live dispatch counts (and records
/// queue residency), but only *derived* events — handler-generated, class
/// 1 — record a dispatch-latency sample. An external injection is its own
/// causal root, so its latency would always be the meaningless constant 0
/// and, at generator-driven volumes, would drown the tail of the chains
/// the metric exists to measure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassHists {
    /// Events dispatched (handled + exported).
    pub count: u64,
    /// Root-injection-to-dispatch latency of derived events.
    pub dispatch: Histogram,
    /// Enqueue-to-dispatch residency.
    pub residency: Histogram,
}

impl ClassHists {
    fn merge(&mut self, other: &ClassHists) {
        self.count += other.count;
        self.dispatch.merge(&other.dispatch);
        self.residency.merge(&other.residency);
    }

    /// Snapshot encoding: count, then both histograms in full (the
    /// non-zero buckets as sparse `(index, count)` pairs — latency
    /// histograms of one event class rarely span more than a handful of
    /// powers of two).
    pub(crate) fn encode(&self, w: &mut crate::snap::Writer) {
        w.u64(self.count);
        for h in [&self.dispatch, &self.residency] {
            w.u64(h.count);
            w.u64(h.sum);
            w.u64(h.min);
            w.u64(h.max);
            let nonzero: Vec<(usize, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (i, n))
                .collect();
            w.u64(nonzero.len() as u64);
            for (i, n) in nonzero {
                w.u32(i as u32);
                w.u64(n);
            }
        }
    }

    pub(crate) fn decode(
        r: &mut crate::snap::Reader<'_>,
    ) -> Result<ClassHists, crate::snap::SnapError> {
        let count = r.u64()?;
        let mut hists = [Histogram::default(), Histogram::default()];
        for h in &mut hists {
            h.count = r.u64()?;
            h.sum = r.u64()?;
            h.min = r.u64()?;
            h.max = r.u64()?;
            let n = r.len(12, "histogram buckets")?;
            for _ in 0..n {
                let i = r.u32()? as usize;
                if i >= BUCKETS {
                    return Err(r.err(format!("bucket index {i} out of range")));
                }
                h.buckets[i] = r.u64()?;
            }
        }
        let [dispatch, residency] = hists;
        Ok(ClassHists {
            count,
            dispatch,
            residency,
        })
    }
}

/// A shard's collector: one [`ClassHists`] per event id, indexed exactly
/// like `per_event_ids`. Zero locks and zero allocation on the dispatch
/// path; the driver folds it into the interpreter-level [`Metrics`] once
/// per run.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardMetrics {
    pub(crate) per_event: Vec<ClassHists>,
}

impl ShardMetrics {
    pub(crate) fn new(events: usize) -> Self {
        ShardMetrics {
            per_event: vec![ClassHists::default(); events],
        }
    }

    /// Record one dispatch. `event_id` indexes the program's event pool;
    /// `dispatch_ns` is `None` for external injections (their own causal
    /// root — no latency sample, see [`ClassHists`]).
    #[inline]
    pub(crate) fn record(&mut self, event_id: usize, dispatch_ns: Option<u64>, residency_ns: u64) {
        let h = &mut self.per_event[event_id];
        h.count += 1;
        if let Some(d) = dispatch_ns {
            h.dispatch.record(d);
        }
        h.residency.record(residency_ns);
    }
}

/// One event class (event name × switch) with its merged histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMetrics {
    pub switch: u64,
    pub event: String,
    pub hists: ClassHists,
}

impl ClassMetrics {
    /// Events dispatched in this class (handled + exported; dropped
    /// events never dispatch and are not measured).
    pub fn count(&self) -> u64 {
        self.hists.count
    }
}

/// The merged, engine-independent metrics of one simulation run: every
/// event class in (switch, event-name) order. Built by the interpreter at
/// run end from the per-shard collectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Sorted by (switch, event name); only classes with at least one
    /// dispatch appear.
    pub classes: Vec<ClassMetrics>,
}

impl Metrics {
    /// Fold one shard's per-event histograms into the accumulator map
    /// (keyed for deterministic order), zeroing the shard's collectors.
    pub(crate) fn absorb_shard(
        acc: &mut BTreeMap<(u64, String), ClassHists>,
        switch: u64,
        shard: &mut ShardMetrics,
        event_name: impl Fn(usize) -> String,
    ) {
        for (id, h) in shard.per_event.iter_mut().enumerate() {
            if h.count == 0 {
                continue;
            }
            acc.entry((switch, event_name(id))).or_default().merge(h);
            *h = ClassHists::default();
        }
    }

    pub(crate) fn from_acc(acc: &BTreeMap<(u64, String), ClassHists>) -> Metrics {
        Metrics {
            classes: acc
                .iter()
                .map(|((switch, event), hists)| ClassMetrics {
                    switch: *switch,
                    event: event.clone(),
                    hists: hists.clone(),
                })
                .collect(),
        }
    }

    /// Look up one class.
    pub fn class(&self, switch: u64, event: &str) -> Option<&ClassMetrics> {
        self.classes
            .iter()
            .find(|c| c.switch == switch && c.event == event)
    }

    /// Merge every switch's histograms for `event` into one pair (for
    /// assertions that do not pin a switch). `None` when no switch
    /// dispatched the event.
    pub fn aggregate_event(&self, event: &str) -> Option<ClassHists> {
        let mut out: Option<ClassHists> = None;
        for c in self.classes.iter().filter(|c| c.event == event) {
            out.get_or_insert_with(ClassHists::default).merge(&c.hists);
        }
        out
    }

    /// Every class merged into one histogram pair — the run's overall
    /// latency profile (what the benches floor). `None` on an empty run.
    pub fn overall(&self) -> Option<ClassHists> {
        let mut out: Option<ClassHists> = None;
        for c in &self.classes {
            out.get_or_insert_with(ClassHists::default).merge(&c.hists);
        }
        out
    }

    /// FNV-1a over every class's name, switch, and full histogram
    /// content, in sorted class order. Two runs agree on this exactly
    /// when their metrics are bit-identical — the engine-determinism
    /// check, same contract as `state_digest`.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for c in &self.classes {
            h.u64(c.switch);
            for &byte in c.event.as_bytes() {
                h.u64(u64::from(byte));
            }
            h.u64(c.hists.count);
            c.hists.dispatch.digest_into(&mut h);
            c.hists.residency.digest_into(&mut h);
        }
        h.finish()
    }

    /// The machine-readable form embedded in `lucidc sim --json` (and
    /// printed alone by `--metrics=json`).
    pub fn to_json(&self) -> String {
        json::write(|w| self.write_json(w))
    }

    pub(crate) fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("digest").hex64(self.digest());
            w.key("classes").arr(|w| {
                for c in &self.classes {
                    w.obj(|w| {
                        w.key("switch").u64(c.switch).key("event").str(&c.event);
                        w.key("count").u64(c.count()).key("latency_ns");
                        c.hists.dispatch.write_stats(w);
                        w.key("residency_ns");
                        c.hists.residency.write_stats(w);
                    });
                }
            });
        });
    }

    /// Human-readable percentile table (`lucidc sim --metrics`).
    pub fn render(&self) -> String {
        if self.classes.is_empty() {
            return "metrics: no events dispatched\n".to_string();
        }
        let mut out = String::from(
            "metrics (virtual ns; latency = root injection to dispatch, \
             residency = enqueue to dispatch):\n",
        );
        let _ = writeln!(
            out,
            "  {:<4} {:<16} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8}  {:>8} {:>8}",
            "sw", "event", "count", "lat p50", "p90", "p99", "p999", "max", "res p99", "max"
        );
        for c in &self.classes {
            let d = &c.hists.dispatch;
            let r = &c.hists.residency;
            let _ = writeln!(
                out,
                "  {:<4} {:<16} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8}  {:>8} {:>8}",
                c.switch,
                c.event,
                c.count(),
                d.p50(),
                d.p90(),
                d.p99(),
                d.p999(),
                d.max(),
                r.p99(),
                r.max()
            );
        }
        let _ = writeln!(out, "  metrics digest: {:016x}", self.digest());
        out
    }
}

/// Which scalar a scenario `metrics` assertion reads off a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSel {
    Count,
    LatencyP50,
    LatencyP90,
    LatencyP99,
    LatencyP999,
    LatencyMin,
    LatencyMax,
    ResidencyP50,
    ResidencyP90,
    ResidencyP99,
    ResidencyP999,
    ResidencyMin,
    ResidencyMax,
}

impl MetricSel {
    /// Parse a scenario `metric` field. The accepted names are the
    /// `--json` field paths flattened with `_`.
    pub fn parse(s: &str) -> Option<MetricSel> {
        Some(match s {
            "count" => MetricSel::Count,
            "latency_p50_ns" => MetricSel::LatencyP50,
            "latency_p90_ns" => MetricSel::LatencyP90,
            "latency_p99_ns" => MetricSel::LatencyP99,
            "latency_p999_ns" => MetricSel::LatencyP999,
            "latency_min_ns" => MetricSel::LatencyMin,
            "latency_max_ns" => MetricSel::LatencyMax,
            "residency_p50_ns" => MetricSel::ResidencyP50,
            "residency_p90_ns" => MetricSel::ResidencyP90,
            "residency_p99_ns" => MetricSel::ResidencyP99,
            "residency_p999_ns" => MetricSel::ResidencyP999,
            "residency_min_ns" => MetricSel::ResidencyMin,
            "residency_max_ns" => MetricSel::ResidencyMax,
            _ => return None,
        })
    }

    /// The canonical spelling (inverse of [`MetricSel::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            MetricSel::Count => "count",
            MetricSel::LatencyP50 => "latency_p50_ns",
            MetricSel::LatencyP90 => "latency_p90_ns",
            MetricSel::LatencyP99 => "latency_p99_ns",
            MetricSel::LatencyP999 => "latency_p999_ns",
            MetricSel::LatencyMin => "latency_min_ns",
            MetricSel::LatencyMax => "latency_max_ns",
            MetricSel::ResidencyP50 => "residency_p50_ns",
            MetricSel::ResidencyP90 => "residency_p90_ns",
            MetricSel::ResidencyP99 => "residency_p99_ns",
            MetricSel::ResidencyP999 => "residency_p999_ns",
            MetricSel::ResidencyMin => "residency_min_ns",
            MetricSel::ResidencyMax => "residency_max_ns",
        }
    }

    /// Every accepted name, for schema error messages.
    pub fn all_labels() -> &'static [&'static str] {
        &[
            "count",
            "latency_p50_ns",
            "latency_p90_ns",
            "latency_p99_ns",
            "latency_p999_ns",
            "latency_min_ns",
            "latency_max_ns",
            "residency_p50_ns",
            "residency_p90_ns",
            "residency_p99_ns",
            "residency_p999_ns",
            "residency_min_ns",
            "residency_max_ns",
        ]
    }

    /// Evaluate this selector against a class's histogram pair.
    pub fn read(self, hists: &ClassHists) -> u64 {
        let (h, q) = match self {
            MetricSel::Count => return hists.count,
            MetricSel::LatencyP50 => (&hists.dispatch, (50, 100)),
            MetricSel::LatencyP90 => (&hists.dispatch, (90, 100)),
            MetricSel::LatencyP99 => (&hists.dispatch, (99, 100)),
            MetricSel::LatencyP999 => (&hists.dispatch, (999, 1000)),
            MetricSel::LatencyMin => return hists.dispatch.min(),
            MetricSel::LatencyMax => return hists.dispatch.max(),
            MetricSel::ResidencyP50 => (&hists.residency, (50, 100)),
            MetricSel::ResidencyP90 => (&hists.residency, (90, 100)),
            MetricSel::ResidencyP99 => (&hists.residency, (99, 100)),
            MetricSel::ResidencyP999 => (&hists.residency, (999, 1000)),
            MetricSel::ResidencyMin => return hists.residency.min(),
            MetricSel::ResidencyMax => return hists.residency.max(),
        };
        h.quantile(q.0, q.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 is its own bucket; each power of two opens a new one.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 1..=64usize {
            // Every bucket's bounds round-trip through bucket_of.
            assert_eq!(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
            assert_eq!(Histogram::bucket_of(Histogram::bucket_hi(b)), b);
        }
        assert_eq!(Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.p50(), h.p99(), h.p999()), (0, 0, 0));
        assert_eq!((h.min(), h.max()), (0, 0));
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        // The exact min/max clamp collapses the bucket's range to the
        // one recorded value.
        for v in [0u64, 1, 7, 600, 1_000_000, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            for (n, d) in [(1, 100), (50, 100), (99, 100), (999, 1000), (1, 1)] {
                assert_eq!(h.quantile(n, d), v, "q{n}/{d} of single sample {v}");
            }
            assert_eq!((h.min(), h.max()), (v, v));
        }
    }

    #[test]
    fn saturated_bucket_interpolates_within_clamped_range() {
        // 1000 samples all in bucket [512, 1023], clamped to [600, 1000]:
        // quantiles spread linearly over the clamped span and stay inside.
        let mut h = Histogram::new();
        h.record(600);
        h.record(1000);
        for _ in 0..998 {
            h.record(800);
        }
        let (p50, p99) = (h.p50(), h.p99());
        assert!((600..=1000).contains(&p50), "p50 = {p50}");
        assert!((600..=1000).contains(&p99), "p99 = {p99}");
        assert!(p50 < p99, "interpolation is monotone: {p50} vs {p99}");
        assert_eq!(h.quantile(1, 1), 1000, "top rank reaches the exact max");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 17, 600, 600, 601, 4096, 100_000] {
            h.record(v);
        }
        let qs: Vec<u64> = [(1, 100), (25, 100), (50, 100), (90, 100), (99, 100)]
            .iter()
            .map(|&(n, d)| h.quantile(n, d))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "monotone: {qs:?}");
        }
        assert!(qs[0] >= h.min() && qs[4] <= h.max());
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        // The shard-merge contract in miniature: recording a stream into
        // two halves and merging equals recording it all into one.
        let stream: Vec<u64> = (0..500).map(|i| (i * 37) % 10_000).collect();
        let mut whole = Histogram::new();
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in stream.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&b); // merge order must not matter
        merged.merge(&a);
        assert_eq!(merged, whole);
    }

    #[test]
    fn digest_tracks_content() {
        let mut m1 = Metrics::default();
        let mut m2 = Metrics::default();
        let mut hists = ClassHists::default();
        hists.dispatch.record(600);
        hists.residency.record(0);
        m1.classes.push(ClassMetrics {
            switch: 1,
            event: "pkt".into(),
            hists: hists.clone(),
        });
        m2.classes.push(ClassMetrics {
            switch: 1,
            event: "pkt".into(),
            hists: hists.clone(),
        });
        assert_eq!(m1.digest(), m2.digest());
        m2.classes[0].hists.dispatch.record(600);
        assert_ne!(m1.digest(), m2.digest());
        m2.classes[0].switch = 2;
        assert_ne!(m1.digest(), m2.digest());
    }

    #[test]
    fn metric_selectors_round_trip_and_read() {
        for label in MetricSel::all_labels() {
            let sel = MetricSel::parse(label).expect("every listed label parses");
            assert_eq!(sel.label(), *label);
        }
        assert_eq!(MetricSel::parse("p99"), None);
        let mut hists = ClassHists::default();
        for v in [100u64, 200, 300] {
            hists.count += 1;
            hists.dispatch.record(v);
            hists.residency.record(v * 2);
        }
        assert_eq!(MetricSel::Count.read(&hists), 3);
        assert_eq!(MetricSel::LatencyMin.read(&hists), 100);
        assert_eq!(MetricSel::LatencyMax.read(&hists), 300);
        assert_eq!(MetricSel::ResidencyMax.read(&hists), 600);
        assert!(MetricSel::LatencyP50.read(&hists) <= MetricSel::LatencyP999.read(&hists));
    }
}
