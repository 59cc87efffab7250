//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same tables for the driver; a unit test holds the two
//! together.

use lucid_core::interp::scenario::json::{self, Json};

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "flood",
        why: "seeded generator flood on an 8-switch mesh, sequential engine, bytecode O2, trace off: scheduling, bytecode exec and source pulls do the work; decoders, compiler and serve do none",
    },
    WorkloadSpec {
        name: "flood_w1",
        why: "the same flood on the sharded engine pinned to one worker: must stay level with flood, which guards the planned merge of the two driver loops",
    },
    WorkloadSpec {
        name: "app_suite",
        why: "the eight bundled app scenarios as authored, source and scenario text to rendered report, expect blocks checked: AST walker, trace and report render dominate, bytecode is mostly bypassed",
    },
    WorkloadSpec {
        name: "compile_apps",
        why: "the ten Figure-9 apps from source to P4 text and verified O2 bytecode: front end, checker, backend and bytecode compiler do all the work, the simulator none",
    },
    WorkloadSpec {
        name: "explicit_load",
        why: "one-shot verdict on a seeded document of explicit events: scenario decoding dominates and the engine idles, so a decoder fix shows here and flood must not move",
    },
    WorkloadSpec {
        name: "serve_bulk",
        why: "the real serve_lines loop driven by an in-thread closed-loop client, 1000-event ingest lines: request decode and session ingest dominate, per-request fixed cost is diluted",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "the same loop with small requests: 8-event ingests beside advances, array queries and snapshot/restore checkpoints, so per-request fixed cost, snapshot codec and hex dominate",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these from its untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("items_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these from its traced run; a layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("frontend.parse_us", "us", Lower),
    layer("check.typecheck_us", "us", Lower),
    layer("backend.handlers_us", "us", Lower),
    layer("backend.layout_us", "us", Lower),
    layer("backend.p4_us", "us", Lower),
    layer("bytecode.compile_us", "us", Lower),
    layer("frontend.src_bytes", "count", Lower),
    layer("backend.p4_loc", "count", Lower),
    layer("backend.stages", "count", Lower),
    layer("bytecode.words", "count", Lower),
    layer("scenario.json_parse_ms", "ms", Lower),
    layer("scenario.json_mb_per_s", "MB/s", Higher),
    layer("scenario.from_json_ms", "ms", Lower),
    layer("scenario.validate_ms", "ms", Lower),
    layer("scenario.doc_bytes", "count", Lower),
    layer("scenario.report_render_us", "us", Lower),
    layer("workload.compile_us", "us", Lower),
    layer("workload.pull_ns_per_event", "ns", Lower),
    layer("workload.events_pulled", "count", Higher),
    layer("machine.sched_ns_per_event", "ns", Lower),
    layer("machine.seq_drain_ms", "ms", Lower),
    layer("machine.w1_drain_ms", "ms", Lower),
    layer("machine.events_processed", "count", Higher),
    layer("bytecode.exec_ns_per_event", "ns", Lower),
    layer("machine.walker_ns_per_event", "ns", Lower),
    layer("machine.w2_events_per_s", "1/s", Higher),
    layer("machine.w2_min_max_ratio", "ratio", Higher),
    layer("session.open_ms", "ms", Lower),
    layer("session.ingest_us_per_event", "us", Lower),
    layer("session.advance_us", "us", Lower),
    layer("session.report_us", "us", Lower),
    layer("snap.snapshot_us", "us", Lower),
    layer("snap.restore_us", "us", Lower),
    layer("snap.hex_us", "us", Lower),
    layer("snap.bytes", "count", Lower),
    layer("serve.open_us", "us", Lower),
    layer("serve.ingest_us", "us", Lower),
    layer("serve.ingest_small_us", "us", Lower),
    layer("serve.advance_us", "us", Lower),
    layer("serve.query_us", "us", Lower),
    layer("serve.snapshot_us", "us", Lower),
    layer("serve.restore_us", "us", Lower),
    layer("serve.drain_us", "us", Lower),
    layer("serve.decode_share", "ratio", Lower),
    layer("serve.req_bytes", "count", Lower),
    layer("serve.reply_bytes", "count", Lower),
    layer("serve.transport_us", "us", Lower),
    layer("serve.cycle_p50_us", "us", Lower),
    layer("serve.cycle_p99_us", "us", Lower),
    layer("serve.cycle_samples", "count", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
];

/// The seed the correctness pins in `expected.json` were taken at.
pub const PINNED_SEED: u64 = 42;

/// `expected.json`: outputs pinned at the seed commit, the part of the
/// oracle that does not run the code under test.
pub fn expected() -> Json {
    json::parse(include_str!("../expected.json")).expect("expected.json is valid JSON")
}

/// Field `key` of a JSON object.
pub fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn as_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(j: &Json) -> &[Json] {
        match j {
            Json::Arr(items) => items,
            other => panic!("expected an array, found {}", other.kind()),
        }
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            arr(field(&doc, key).expect(key))
                .iter()
                .map(|m| {
                    as_str(field(m, "name").expect("name"))
                        .expect("str")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = arr(field(&doc, key).expect(key));
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, spec) in rows.iter().zip(table) {
                assert_eq!(as_str(field(row, "name").unwrap()), Some(spec.name));
                assert_eq!(
                    as_str(field(row, "unit").unwrap()),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    as_str(field(row, "better").unwrap()),
                    Some(match spec.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }),
                    "{}",
                    spec.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        as_f64(field(row, "bound").unwrap()),
                        Some(spec.bound),
                        "{}",
                        spec.name
                    );
                }
            }
        }
        for (w, row) in WORKLOADS.iter().zip(arr(field(&doc, "workloads").unwrap())) {
            assert_eq!(as_str(field(row, "why").unwrap()), Some(w.why));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
