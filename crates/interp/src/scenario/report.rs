//! The report side of a scenario run: failed expectations
//! ([`Mismatch`]), the run summary ([`SimReport`]) in its JSON and
//! human-readable forms, the expectation checks that fill it, and the
//! final-state digest.

use super::{Expectations, MetricExpect};
use crate::machine::{Interp, Stats};
use crate::metrics::Metrics;
use lucid_check::CheckedProgram;
use lucid_frontend::json::{self, Writer};
use std::fmt;

/// One failed expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// A final array cell differed.
    Array {
        switch: u64,
        array: String,
        index: u64,
        want: u64,
        got: u64,
    },
    /// An expected array sits on a switch that ended the run failed.
    FailedSwitch { switch: u64, array: String },
    /// An event-count expectation differed (`what` is `handled`,
    /// `dropped`, `exported`, or `event:<name>`).
    Count { what: String, want: u64, got: u64 },
    /// A `$.metrics.expect` assertion failed. `class` is `event@switch`
    /// or just `event` for all-switch aggregates; `metric` is the
    /// selector's canonical name; `op`/`want` restate the assertion.
    Metric {
        class: String,
        metric: &'static str,
        op: &'static str,
        want: u64,
        got: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Array {
                switch,
                array,
                index,
                want,
                got,
            } => write!(
                f,
                "switch {switch} `{array}[{index}]`: expected {want}, got {got}"
            ),
            Mismatch::FailedSwitch { switch, array } => write!(
                f,
                "switch {switch} `{array}`: switch ended the run failed; its arrays are gone"
            ),
            Mismatch::Count { what, want, got } => {
                write!(f, "{what}: expected {want}, got {got}")
            }
            Mismatch::Metric {
                class,
                metric,
                op,
                want,
                got,
            } => write!(
                f,
                "metrics `{class}` {metric}: expected {op} {want}, got {got}"
            ),
        }
    }
}

impl Mismatch {
    pub fn to_json(&self) -> String {
        json::write(|w| self.write_json(w))
    }

    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| match self {
            Mismatch::Array {
                switch,
                array,
                index,
                want,
                got,
            } => {
                w.key("kind").str("array").key("switch").u64(*switch);
                w.key("array").str(array).key("index").u64(*index);
                w.key("want").u64(*want).key("got").u64(*got);
            }
            Mismatch::FailedSwitch { switch, array } => {
                w.key("kind").str("failed_switch");
                w.key("switch").u64(*switch);
                w.key("array").str(array);
            }
            Mismatch::Count { what, want, got } => {
                w.key("kind").str("count").key("what").str(what);
                w.key("want").u64(*want).key("got").u64(*got);
            }
            Mismatch::Metric {
                class,
                metric,
                op,
                want,
                got,
            } => {
                w.key("kind").str("metric").key("class").str(class);
                w.key("metric").str(metric).key("op").str(op);
                w.key("want").u64(*want).key("got").u64(*got);
            }
        });
    }
}

/// The outcome of one scenario run: statistics, timings, and every failed
/// expectation.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub scenario: String,
    pub engine: &'static str,
    /// Which executor ran handler bodies (`ast` or `bytecode`).
    pub exec: &'static str,
    /// The bytecode optimization level the run used (`"0"`/`"1"`/`"2"`;
    /// reported even under the AST walker, which ignores it).
    pub opt: &'static str,
    pub switches: usize,
    pub stats: Stats,
    /// Final virtual clock, nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock run time, milliseconds.
    pub wall_ms: f64,
    /// Processed events per wall-clock second.
    pub events_per_sec: f64,
    /// FNV-1a digest of every switch's final array state, in switch and
    /// declaration order (failed switches hash as a marker). Two runs of
    /// one scenario agree on this exactly when their final states are
    /// byte-identical — the cheap cross-engine determinism check.
    pub state_digest: u64,
    /// Per-generator injection counts, in declaration order (empty when
    /// the scenario has no `generators` section).
    pub gens: Vec<(String, u64)>,
    /// Per-event-class latency metrics (dispatch latency and queue
    /// residency histograms with tail percentiles). Deterministic and
    /// engine-independent like `state_digest`.
    pub metrics: Metrics,
    pub mismatches: Vec<Mismatch>,
}

impl SimReport {
    /// True when every expectation held.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The machine-readable form `lucidc sim --json` prints.
    pub fn to_json(&self) -> String {
        json::write(|w| self.write_json(w))
    }

    pub(crate) fn write_json(&self, w: &mut Writer) {
        let st = &self.stats;
        w.obj(|w| {
            w.key("scenario").str(&self.scenario);
            w.key("engine").str(self.engine).key("exec").str(self.exec);
            w.key("opt").raw(self.opt);
            w.key("switches").u64(self.switches as u64);
            w.key("events_processed").u64(st.processed);
            w.key("events_handled").u64(st.handled);
            w.key("recirculated").u64(st.recirculated);
            w.key("sent_remote").u64(st.sent_remote);
            w.key("exported").u64(st.exported);
            w.key("dropped").u64(st.dropped);
            w.key("sim_ns").u64(self.sim_ns);
            w.key("wall_ms").f64(self.wall_ms, 3);
            w.key("events_per_sec").f64(self.events_per_sec, 0);
            w.key("state_digest").hex64(self.state_digest);
            w.key("metrics");
            self.metrics.write_json(w);
            w.key("generators").arr(|w| {
                for (name, n) in &self.gens {
                    w.obj(|w| {
                        w.key("name").str(name).key("injected").u64(*n);
                    });
                }
            });
            w.key("ok").bool(self.passed()).key("mismatches").arr(|w| {
                for m in &self.mismatches {
                    m.write_json(w);
                }
            });
        });
    }

    /// Human-readable summary (the default `lucidc sim` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario `{}`: {} switches, {} engine, {} exec (opt {})\n\
             events: {} processed ({} handled, {} recirculated, {} remote, \
             {} exported, {} dropped)\n\
             time:   {} sim-ns in {:.3} wall-ms ({:.0} events/sec)\n",
            self.scenario,
            self.switches,
            self.engine,
            self.exec,
            self.opt,
            self.stats.processed,
            self.stats.handled,
            self.stats.recirculated,
            self.stats.sent_remote,
            self.stats.exported,
            self.stats.dropped,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
        );
        if !self.gens.is_empty() {
            let parts: Vec<String> = self
                .gens
                .iter()
                .map(|(name, n)| format!("{name}={n}"))
                .collect();
            out.push_str(&format!("generators: {}\n", parts.join(", ")));
        }
        if self.passed() {
            out.push_str("expectations: all met\n");
        } else {
            out.push_str(&format!("expectations: {} FAILED\n", self.mismatches.len()));
            for m in &self.mismatches {
                out.push_str(&format!("  mismatch: {m}\n"));
            }
        }
        out
    }
}

/// FNV-1a over every configured switch's final arrays. Sorted switch
/// order and declaration order make it engine-independent.
pub(crate) fn digest_state(prog: &CheckedProgram, sim: &Interp, switches: &[u64]) -> u64 {
    let mut sorted = switches.to_vec();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for i in 0..8 {
            h ^= (x >> (8 * i)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for s in sorted {
        mix(s);
        if !sim.alive(s) {
            mix(u64::MAX); // failed switch marker
            continue;
        }
        for g in &prog.info.globals {
            for &cell in sim.try_array(s, &g.name).expect("alive switch") {
                mix(cell);
            }
        }
    }
    h
}

pub(crate) fn check_expectations(sim: &Interp, expect: &Expectations, out: &mut Vec<Mismatch>) {
    for x in &expect.arrays {
        let Some(actual) = sim.try_array(x.switch, &x.array) else {
            out.push(Mismatch::FailedSwitch {
                switch: x.switch,
                array: x.array.clone(),
            });
            continue;
        };
        if let Some((idx, want)) = x.cell {
            let got = actual[idx as usize];
            if got != want {
                out.push(Mismatch::Array {
                    switch: x.switch,
                    array: x.array.clone(),
                    index: idx,
                    want,
                    got,
                });
            }
        }
        if let Some(want_all) = &x.values {
            for (idx, (&want, &got)) in want_all.iter().zip(actual.iter()).enumerate() {
                if want != got {
                    out.push(Mismatch::Array {
                        switch: x.switch,
                        array: x.array.clone(),
                        index: idx as u64,
                        want,
                        got,
                    });
                }
            }
        }
    }
    let mut count = |what: &str, want: Option<u64>, got: u64| {
        if let Some(want) = want {
            if want != got {
                out.push(Mismatch::Count {
                    what: what.to_string(),
                    want,
                    got,
                });
            }
        }
    };
    count("handled", expect.handled, sim.stats.handled);
    count("dropped", expect.dropped, sim.stats.dropped);
    count("exported", expect.exported, sim.stats.exported);
    for (name, want) in &expect.per_event {
        let got = sim.stats.per_event.get(name).copied().unwrap_or(0);
        count(&format!("event:{name}"), Some(*want), got);
    }
}

/// Evaluate every `$.metrics.expect` assertion against the run's merged
/// metrics. A class that never dispatched reads as an empty histogram
/// pair (count 0, every percentile 0), so "count >= N" naturally fails
/// and "latency < K" trivially holds on silence — assert `count` too
/// when silence would be a bug.
pub(crate) fn check_metric_expectations(
    metrics: &Metrics,
    expect: &[MetricExpect],
    out: &mut Vec<Mismatch>,
) {
    for m in expect {
        let hists = match m.switch {
            Some(s) => metrics.class(s, &m.event).map(|c| c.hists.clone()),
            None => metrics.aggregate_event(&m.event),
        }
        .unwrap_or_default();
        let got = m.metric.read(&hists);
        if !m.op.holds(got, m.value) {
            let class = match m.switch {
                Some(s) => format!("{}@{s}", m.event),
                None => m.event.clone(),
            };
            out.push(Mismatch::Metric {
                class,
                metric: m.metric.label(),
                op: m.op.label(),
                want: m.value,
                got,
            });
        }
    }
}
