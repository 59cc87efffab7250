//! In-memory spans around the calls this benchmark makes into each layer.
//!
//! The benchmark traces from outside: a span is opened before a public
//! function of a layer is called and closed when it returns. Spans of one
//! measured rep share the rep's index; each span names the span that was
//! open when it started. A layer's self time is its span minus the part
//! its children cover, so the self times of one rep sum to the rep's wall
//! time exactly, and whatever is left on the rep's own root span is the
//! time no named layer accounts for.

use crate::jsonw;
use std::collections::BTreeMap;
use std::time::Instant;

/// The root span of every rep. Its self time is harness overhead — loop
/// control, output checks, reply parsing — and counts as unattributed.
pub const ROOT: &str = "harness.rep";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same rep.
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one rep at a time. Switched off it records
/// nothing and reads no clock, so the untraced reps run the same code.
pub struct Tracer {
    on: bool,
    /// Span times count from here.
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close in the order they opened");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Span one call that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Hand over the finished rep's spans and start the next rep empty.
    pub fn take_rep(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a rep ends with every span closed");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of each span: its duration less the duration of its direct
/// children (clipped to the parent, so a self time cannot go below zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            let covered = end.saturating_sub(start);
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// What one traced rep's spans reduce to.
#[derive(Debug, Clone, Default)]
pub struct RepSummary {
    /// Wall time of the rep's root span.
    pub wall_ns: u64,
    /// Self time summed per span name (the root's is the unattributed part).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every call's full duration per span name.
    pub calls_ns: BTreeMap<&'static str, Vec<u64>>,
}

pub fn summarize(spans: &[Span]) -> RepSummary {
    let mut out = RepSummary::default();
    let own = self_times(spans);
    for (s, own_ns) in spans.iter().zip(own) {
        if s.parent.is_none() {
            out.wall_ns += s.dur_ns();
        }
        *out.self_ns.entry(s.name).or_default() += own_ns;
        out.calls_ns.entry(s.name).or_default().push(s.dur_ns());
    }
    out
}

/// The per-workload account over every traced rep.
#[derive(Debug, Default)]
pub struct TraceAccount {
    pub reps: Vec<RepSummary>,
    /// Raw spans of the first few reps, kept for the trace file.
    pub kept: Vec<Vec<Span>>,
}

/// Raw spans of this many reps go into the trace file; the per-layer
/// table in the same file covers every rep.
const KEEP_REPS: usize = 3;

impl TraceAccount {
    pub fn push(&mut self, spans: Vec<Span>) {
        self.reps.push(summarize(&spans));
        if self.kept.len() < KEEP_REPS {
            self.kept.push(spans);
        }
    }

    /// First decile over reps of the self time spent under `name`,
    /// nanoseconds (0 when no rep ever opened such a span).
    pub fn self_ns_per_rep(&self, name: &str) -> f64 {
        let per_rep: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.self_ns.get(name).copied().unwrap_or(0) as f64)
            .collect();
        crate::stats::fast_decile(&per_rep)
    }

    /// First decile of the full duration of one call under `name`,
    /// nanoseconds, over every call in every rep.
    pub fn call_ns(&self, name: &str) -> f64 {
        let calls: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.calls_ns.get(name))
            .flatten()
            .map(|&ns| ns as f64)
            .collect();
        crate::stats::fast_decile(&calls)
    }

    /// Share of the traced wall time that no named layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        let wall: u64 = self.reps.iter().map(|r| r.wall_ns).sum();
        let root: u64 = self
            .reps
            .iter()
            .map(|r| r.self_ns.get(ROOT).copied().unwrap_or(0))
            .sum();
        if wall == 0 {
            1.0
        } else {
            root as f64 / wall as f64
        }
    }

    /// The trace file: a per-layer self-time table over all reps, then the
    /// raw spans of the first reps (`id` is the index within its rep).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let wall: u64 = self.reps.iter().map(|r| r.wall_ns).sum();
        let mut layers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for r in &self.reps {
            for (name, ns) in &r.self_ns {
                let e = layers.entry(name).or_default();
                e.0 += ns;
                e.1 += r.calls_ns.get(name).map_or(0, Vec::len) as u64;
            }
        }
        let layer_rows: Vec<String> = layers
            .iter()
            .map(|(name, (ns, calls))| {
                jsonw::obj(&[
                    ("layer", jsonw::s(name)),
                    ("self_ns", ns.to_string()),
                    ("calls", calls.to_string()),
                    ("share", jsonw::f(*ns as f64 / wall.max(1) as f64)),
                ])
            })
            .collect();
        let reps: Vec<String> = self
            .kept
            .iter()
            .enumerate()
            .map(|(rep, spans)| {
                let rows: Vec<String> = spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        jsonw::obj(&[
                            ("id", id.to_string()),
                            ("name", jsonw::s(s.name)),
                            ("start_ns", s.start_ns.to_string()),
                            ("end_ns", s.end_ns.to_string()),
                            (
                                "parent",
                                s.parent.map_or("null".to_string(), |p| p.to_string()),
                            ),
                        ])
                    })
                    .collect();
                jsonw::obj(&[("rep", rep.to_string()), ("spans", jsonw::arr(&rows))])
            })
            .collect();
        jsonw::obj(&[
            ("workload", jsonw::s(workload)),
            ("seed", seed.to_string()),
            ("traced_reps", self.reps.len().to_string()),
            ("traced_wall_ns", wall.to_string()),
            ("unattributed_share", jsonw::f(self.unattributed_share())),
            ("layers", jsonw::arr(&layer_rows)),
            ("reps", jsonw::arr(&reps)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        // root 0..100; a 10..40 with child b 20..30; c 50..90.
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(own.iter().sum::<u64>(), 100);
        let sum = summarize(&spans);
        assert_eq!(sum.wall_ns, 100);
        assert_eq!(sum.self_ns[ROOT], 30);
        assert_eq!(sum.calls_ns["a"], vec![30]);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_nests_and_hands_reps_over() {
        let mut tr = Tracer::on();
        let root = tr.enter(ROOT);
        let request = tr.enter("serve.transport");
        assert_eq!(tr.leaf("serve.ingest", || 7), 7);
        tr.exit(request);
        tr.leaf("x", || ());
        tr.exit(root);
        let spans = tr.take_rep();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (ROOT, None),
                ("serve.transport", Some(0)),
                ("serve.ingest", Some(1)),
                ("x", Some(0)),
            ]
        );
        assert!(tr.take_rep().is_empty());

        let mut off = Tracer::off();
        let id = off.enter(ROOT);
        off.exit(id);
        assert!(off.take_rep().is_empty());
    }

    #[test]
    fn account_reports_the_unattributed_share_and_medians() {
        let mut acc = TraceAccount::default();
        for layer_ns in [80, 90, 100] {
            acc.push(vec![
                span(ROOT, 0, 100, None),
                span("layer", 0, layer_ns, Some(0)),
            ]);
        }
        assert_eq!(acc.self_ns_per_rep("layer"), 82.0);
        assert_eq!(acc.self_ns_per_rep("absent"), 0.0);
        assert_eq!(acc.call_ns("layer"), 82.0);
        assert!((acc.unattributed_share() - 30.0 / 300.0).abs() < 1e-12);
        let doc = acc.to_json("w", 42);
        lucid_core::interp::scenario::json::parse(&doc).expect("trace file is valid JSON");
    }
}
