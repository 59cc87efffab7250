//! Integration tests of the scenario-driven simulation subsystem: the
//! loader's structured diagnostics, the checked-in `*.sim.json` suite
//! (the same files CI's sim gate runs), and agreement on every leg of
//! the reference matrix, on the bundled scenarios and on an 8-switch
//! mesh.

use lucid_core::{run_scenario_with, Compiler, Scenario, ScenarioError, SimOptions, SimReport};
use lucid_tests::{legs, legs_with, Leg};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn checked(src: &str) -> lucid_core::CheckedProgram {
    lucid_core::check::parse_and_check(src).expect("program checks")
}

// ------------------------------------------------------ loader diagnostics

#[test]
fn malformed_json_carries_line_and_column() {
    let err = Scenario::from_json("{\n \"name\": \"x\",\n \"net\": [oops]\n}").unwrap_err();
    let ScenarioError::Json { line, .. } = err else {
        panic!("want a Json error, got {err:?}");
    };
    assert_eq!(line, 3);
    assert!(err.to_string().contains("line 3"), "{err}");
    assert!(err.to_json().contains("\"kind\":\"json\""));
}

#[test]
fn unknown_event_name_names_the_field_path() {
    let prog = checked("event pkt(int x); handle pkt(int x) { int y = x; }");
    let sc = Scenario::from_json(
        r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]},
                       {"time_ns": 1, "switch": 1, "event": "pktt", "args": [1]}]}"#,
    )
    .unwrap();
    let err = sc.validate(&prog).unwrap_err();
    let ScenarioError::Validate { path, msg } = &err else {
        panic!("want Validate, got {err:?}");
    };
    assert_eq!(path, "$.events[1].event");
    assert!(msg.contains("pktt"), "{msg}");
    assert!(err.to_json().contains("\"kind\":\"validate\""));
}

#[test]
fn out_of_range_switch_ids_are_rejected_everywhere() {
    let prog = checked(
        "global a = new Array<<32>>(4); event pkt(int x); handle pkt(int x) { Array.set(a, 0, x); }",
    );
    for (body, want_path) in [
        (
            r#"{"net": {"switches": 2},
                "events": [{"time_ns": 0, "switch": 3, "event": "pkt", "args": [1]}]}"#,
            "$.events[0].switch",
        ),
        (
            r#"{"net": {"switches": 2},
                "init": [{"switch": 9, "array": "a", "index": 0, "value": 1}]}"#,
            "$.init[0].switch",
        ),
        (
            r#"{"net": {"switches": 2},
                "failures": [{"time_ns": 5, "switch": 4, "action": "fail"}]}"#,
            "$.failures[0].switch",
        ),
        (
            r#"{"net": {"switches": 2},
                "expect": {"arrays": [{"switch": 7, "array": "a", "index": 0, "value": 0}]}}"#,
            "$.expect.arrays[0].switch",
        ),
    ] {
        let sc = Scenario::from_json(body).unwrap();
        let err = sc.validate(&prog).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == want_path),
            "body {body} gave {err:?}"
        );
    }
}

#[test]
fn expectation_mismatches_are_structured_and_rendered() {
    let prog = checked(
        "global a = new Array<<32>>(4); memop plus(int m, int x) { return m + x; } \
         event pkt(int i); handle pkt(int i) { Array.setm(a, i, plus, 1); }",
    );
    let sc = Scenario::from_json(
        r#"{"name": "mm",
            "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [2]}],
            "expect": {"handled": 5,
                       "arrays": [{"switch": 1, "array": "a", "values": [0, 0, 2, 0]}]}}"#,
    )
    .unwrap();
    let report = run_scenario_with(&prog, &sc, &SimOptions::default()).unwrap();
    assert!(!report.passed());
    // One count mismatch + one cell mismatch, each structured.
    assert_eq!(report.mismatches.len(), 2, "{:?}", report.mismatches);
    let rendered = report.render();
    assert!(
        rendered.contains("handled: expected 5, got 1"),
        "{rendered}"
    );
    assert!(rendered.contains("`a[2]`: expected 2, got 1"), "{rendered}");
    let json = report.to_json();
    assert!(json.contains("\"kind\":\"count\""), "{json}");
    assert!(json.contains("\"kind\":\"array\""), "{json}");
    assert!(json.contains("\"ok\":false"), "{json}");
}

// ------------------------------------------------- metrics expect blocks

#[test]
fn metrics_block_parses_and_validates() {
    let prog = checked("event pkt(int x); handle pkt(int x) { int y = x; }");
    let sc = Scenario::from_json(
        r#"{"net": {"switches": 2},
            "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]}],
            "metrics": {"expect": [
                {"event": "pkt", "switch": 1, "metric": "count", "op": "==", "value": 1},
                {"event": "pkt", "metric": "latency_p99_ns", "op": "<=", "value": 5000}
            ]}}"#,
    )
    .unwrap();
    assert_eq!(sc.metrics.len(), 2);
    sc.validate(&prog).unwrap();

    // Unknown event / out-of-range switch inside the block are caught at
    // validation with the field's JSON path.
    for (body, want_path) in [
        (
            r#"{"metrics": {"expect": [{"event": "nope", "metric": "count", "op": "==", "value": 0}]}}"#,
            "$.metrics.expect[0].event",
        ),
        (
            r#"{"net": {"switches": 2},
                "metrics": {"expect": [{"event": "pkt", "switch": 5, "metric": "count", "op": "==", "value": 0}]}}"#,
            "$.metrics.expect[0].switch",
        ),
    ] {
        let err = Scenario::from_json(body)
            .unwrap()
            .validate(&prog)
            .unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Validate { path, .. } if path == want_path),
            "body {body} gave {err:?}"
        );
    }
}

#[test]
fn unknown_metric_and_op_are_schema_errors() {
    let err = Scenario::from_json(
        r#"{"metrics": {"expect": [{"event": "pkt", "metric": "latency_p42_ns", "op": "==", "value": 0}]}}"#,
    )
    .unwrap_err();
    let msg = err.to_string();
    // The error lists the valid selector names so a typo is self-serviceable.
    assert!(msg.contains("latency_p42_ns"), "{msg}");
    assert!(msg.contains("latency_p99_ns"), "{msg}");

    let err = Scenario::from_json(
        r#"{"metrics": {"expect": [{"event": "pkt", "metric": "count", "op": "~=", "value": 0}]}}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("~="), "{err}");
}

#[test]
fn metric_expectation_failures_are_structured() {
    let prog = checked("event pkt(int x); handle pkt(int x) { int y = x; }");
    let sc = Scenario::from_json(
        r#"{"name": "mfail",
            "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]}],
            "metrics": {"expect": [
                {"event": "pkt", "switch": 1, "metric": "count", "op": "==", "value": 7},
                {"event": "pkt", "metric": "latency_max_ns", "op": ">", "value": 100}
            ]}}"#,
    )
    .unwrap();
    let report = run_scenario_with(&prog, &sc, &SimOptions::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.mismatches.len(), 2, "{:?}", report.mismatches);
    let rendered = report.render();
    assert!(
        rendered.contains("`pkt@1` count: expected == 7, got 1"),
        "{rendered}"
    );
    let json = report.to_json();
    assert!(json.contains("\"kind\":\"metric\""), "{json}");
    assert!(json.contains("\"metric\":\"latency_max_ns\""), "{json}");
}

/// Metric assertions describe the authored workload, so — like `expect`
/// — they are skipped when `--seed`/`--events` replace that workload.
#[test]
fn metric_expectations_skip_when_workload_overridden() {
    let prog = checked("event pkt(int x); handle pkt(int x) { int y = x; }");
    let sc = Scenario::from_json(
        r#"{"name": "mskip",
            "generators": [{"name": "g", "event": "pkt", "switch": 1, "rate_eps": 1000000,
                            "count": 10, "args": [3]}],
            "metrics": {"expect": [{"event": "pkt", "metric": "count", "op": "==", "value": 10}]}}"#,
    )
    .unwrap();
    let base = run_scenario_with(&prog, &sc, &SimOptions::default()).unwrap();
    assert!(base.passed(), "{:?}", base.mismatches);

    let overrides = SimOptions {
        events: Some(25),
        ..Default::default()
    };
    let rescaled = lucid_core::run_scenario_with(&prog, &sc, &overrides).unwrap();
    // count is now 25, contradicting the block — but the block is inert.
    assert!(rescaled.passed(), "{:?}", rescaled.mismatches);
    assert_eq!(rescaled.stats.processed, 25);
}

// ----------------------------------------------------- checked-in suite

/// Every `crates/apps/scenarios/*.sim.json` must load, validate against
/// its app, and pass — the in-tree mirror of CI's sim gate — and report
/// the same whether or not the run records its trace (wall-clock fields
/// aside).
#[test]
fn bundled_scenarios_all_pass() {
    let dir = repo_root().join("crates/apps/scenarios");
    let mut ran = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios dir exists") {
        let path = entry.unwrap().path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(base) = name.strip_suffix(".sim.json") else {
            continue;
        };
        // Same pairing rule as ci.sh: `<app>[.variant].sim.json`.
        let app = base.split('.').next().unwrap();
        let prog_path = repo_root().join(format!("crates/apps/programs/{app}.lucid"));
        let src = std::fs::read_to_string(&prog_path)
            .unwrap_or_else(|e| panic!("{app}: no program for scenario {name}: {e}"));
        let sc_text = std::fs::read_to_string(&path).unwrap();
        let sc =
            Scenario::from_json(&sc_text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        let mut build = Compiler::new().build(app, &src);
        let mut run = |opts: &SimOptions| {
            let mut report = build
                .interp(&sc, opts)
                .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
            (report.wall_ms, report.events_per_sec) = (0.0, 0.0);
            report
        };
        let report = run(&SimOptions::default());
        assert!(
            report.passed(),
            "{name} has mismatches: {:?}",
            report.mismatches
        );
        let traced = run(&SimOptions::new().record_trace(true));
        assert_eq!(
            report.to_json(),
            traced.to_json(),
            "{name}: recording the trace changed the report"
        );
        ran += 1;
    }
    assert!(
        ran >= 4,
        "expected at least four bundled scenarios, ran {ran}"
    );
}

/// Every bundled scenario must be leg-independent: identical final
/// state digest, statistics and latency metrics on every leg of the
/// reference matrix.
#[test]
fn bundled_scenarios_are_engine_deterministic() {
    let dir = repo_root().join("crates/apps/scenarios");
    for entry in std::fs::read_dir(&dir).expect("scenarios dir exists") {
        let path = entry.unwrap().path();
        let Some(app) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".sim.json"))
            .and_then(|n| n.split('.').next())
        else {
            continue;
        };
        let src =
            std::fs::read_to_string(repo_root().join(format!("crates/apps/programs/{app}.lucid")))
                .unwrap();
        let prog = checked(&src);
        let sc = Scenario::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let run = |leg: Leg| run_scenario_with(&prog, &sc, &leg.options(SimOptions::new()));
        let reference = run(Leg::Walker).unwrap();
        for leg in &legs()[1..] {
            let got = run(*leg).unwrap();
            same_run(&reference, &got, &format!("{app} [{leg}]"));
        }
    }
}

// -------------------------------------------------- 8-switch determinism

/// The satellite determinism gate: a cross-traffic-heavy 8-switch mesh
/// where every leg, the sharded one at 2, 4 and 8 workers, must
/// reproduce the walker's final array state, statistics and metrics
/// exactly.
#[test]
fn sharded_equals_sequential_on_eight_switch_mesh() {
    let prog = checked(
        r#"
        global load = new Array<<32>>(256);
        global relay = new Array<<32>>(256);
        memop plus(int m, int x) { return m + x; }
        event pkt(int flow, int hop);
        handle pkt(int flow, int hop) {
            auto i = hash<<8>>(1, flow, hop);
            int n = Array.update(load, i, plus, 1, plus, 1);
            if (hop > 0) {
                auto next = hash<<3>>(2, flow, n);
                Array.setm(relay, i, plus, hop);
                generate Event.locate(pkt(flow + n, hop - 1), (int<<32>>) next + 1);
            }
        }
        "#,
    );
    let mut events = String::new();
    for s in 1..=8u64 {
        for k in 0..12u64 {
            events.push_str(&format!(
                "{}{{\"time_ns\": {}, \"switch\": {s}, \"event\": \"pkt\", \"args\": [{}, 6]}}",
                if events.is_empty() { "" } else { "," },
                k * 700,
                s * 100 + k
            ));
        }
    }
    let sc = Scenario::from_json(&format!(
        r#"{{"name": "mesh8", "net": {{"switches": 8}}, "events": [{events}]}}"#
    ))
    .unwrap();

    let run = |leg: Leg| run_scenario_with(&prog, &sc, &leg.options(SimOptions::new()));
    let seq = run(Leg::Walker).unwrap();
    for leg in &legs_with(&[2, 4, 8])[1..] {
        same_run(&seq, &run(*leg).unwrap(), &format!("mesh8 [{leg}]"));
    }
    // The workload really is distributed and cross-switch.
    assert!(seq.stats.sent_remote > 200, "{:?}", seq.stats);
    assert_eq!(seq.stats.processed, 8 * 12 * 7);
    // And the metrics saw real multi-hop traffic: generated `pkt` events
    // cross wire hops, so tail latency and queue residency are nonzero.
    let overall = seq.metrics.overall().expect("metrics recorded");
    assert!(overall.dispatch.max() >= 1_000, "{:?}", overall.dispatch);
    assert!(overall.residency.max() >= 1_000, "{:?}", overall.residency);
    // Every dispatch counts, but only *derived* (handler-generated)
    // events record a dispatch-latency sample — an injection is its own
    // root. 96 roots, six generated hops each.
    assert_eq!(overall.count, seq.stats.processed);
    assert_eq!(overall.residency.count(), seq.stats.processed);
    assert_eq!(overall.dispatch.count(), 8 * 12 * 6);
}

/// Two reports of one scenario agree on the final state, the statistics
/// and the latency metrics.
fn same_run(reference: &SimReport, got: &SimReport, at: &str) {
    assert_eq!(
        reference.state_digest, got.state_digest,
        "{at}: state differs"
    );
    assert_eq!(reference.stats, got.stats, "{at}: statistics differ");
    assert_eq!(
        reference.metrics.digest(),
        got.metrics.digest(),
        "{at}: latency metrics differ"
    );
}
