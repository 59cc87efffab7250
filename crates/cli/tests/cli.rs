//! End-to-end tests of the `lucidc` binary: flags, output artifacts,
//! JSON diagnostics, and the exit-code contract (0 success, 1 program
//! diagnostics, 2 usage/I-O errors).

use std::path::PathBuf;
use std::process::{Command, Output};

fn lucidc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lucidc"))
        .args(args)
        .output()
        .expect("lucidc runs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lucidc-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp source");
    path
}

const GOOD: &str = r#"
global cts = new Array<<32>>(64);
memop plus(int m, int x) { return m + x; }
event pkt(int idx);
handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
"#;

const BAD_TWO_MEMOPS: &str = r#"
memop one(int m, int x) { return m * x; }
memop two(int m, int x) { return x + x; }
"#;

#[test]
fn check_good_program_exits_zero() {
    let f = write_temp("good.lucid", GOOD);
    let out = lucidc(&["check", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok: 1 globals"), "{stdout}");
}

#[test]
fn diagnostics_exit_code_is_one() {
    let f = write_temp("bad.lucid", BAD_TWO_MEMOPS);
    let out = lucidc(&["check", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Both independent memop violations, rendered with codes and carets.
    assert!(stderr.matches("error[E03").count() >= 2, "{stderr}");
    assert!(stderr.contains("m * x"), "{stderr}");
}

#[test]
fn json_diagnostics_are_structured() {
    let f = write_temp("bad2.lucid", BAD_TWO_MEMOPS);
    let out = lucidc(&["check", "--json-diagnostics", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let json = stderr.trim();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(
        json.matches("\"severity\":\"error\"").count() >= 2,
        "{json}"
    );
    assert!(json.contains("\"code\":\"E03"), "{json}");
    assert!(json.contains("\"line\":"), "{json}");
}

#[test]
fn io_and_usage_errors_exit_two() {
    let out = lucidc(&["check", "/nonexistent/definitely-missing.lucid"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = lucidc(&["check"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = lucidc(&["compile", "--emit=wat", "x.lucid"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_subcommand_hints_nearest() {
    let out = lucidc(&["chek", "x.lucid"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand `chek`"), "{stderr}");
    assert!(stderr.contains("did you mean `check`?"), "{stderr}");
}

#[test]
fn emit_variants_produce_artifacts() {
    let f = write_temp("emit.lucid", GOOD);
    let path = f.to_str().unwrap();

    let ast = lucidc(&["compile", "--emit=ast", path]);
    assert_eq!(ast.status.code(), Some(0));
    let s = String::from_utf8_lossy(&ast.stdout);
    assert!(s.contains("handle pkt"), "{s}");

    let ir = lucidc(&["compile", "--emit=ir", path]);
    assert_eq!(ir.status.code(), Some(0));
    let s = String::from_utf8_lossy(&ir.stdout);
    assert!(
        s.contains("handler pkt") && s.contains("atomic tables"),
        "{s}"
    );

    let layout = lucidc(&["compile", "--emit=layout", path]);
    assert_eq!(layout.status.code(), Some(0));
    let s = String::from_utf8_lossy(&layout.stdout);
    assert!(s.contains("total stages:"), "{s}");

    let p4 = lucidc(&["compile", path]);
    assert_eq!(p4.status.code(), Some(0));
    let s = String::from_utf8_lossy(&p4.stdout);
    assert!(s.contains("RegisterAction"), "{s}");
}

#[test]
fn no_opt_and_target_flags_are_accepted() {
    let f = write_temp("flags.lucid", GOOD);
    let path = f.to_str().unwrap();
    let out = lucidc(&["stages", "--no-opt", "--target=pisa", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("total stages:"), "{s}");
}

/// A program that checks cleanly but trips the lint pass: an unused
/// local (W0501), an unused parameter (W0502), and an unused global
/// (W0503).
const LINTY: &str = r#"
global cts = new Array<<32>>(64);
global idle = new Array<<32>>(8);
memop plus(int m, int x) { return m + x; }
event pkt(int idx, int extra);
handle pkt(int idx, int extra) {
    int scratch = 7;
    Array.setm(cts, idx, plus, 1);
}
"#;

#[test]
fn lint_flag_reports_w_codes_as_warnings() {
    let f = write_temp("linty.lucid", LINTY);
    let path = f.to_str().unwrap();

    // Without --lint the program is quietly clean.
    let out = lucidc(&["check", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("W05"), "{stderr}");

    // With --lint the W05xx warnings appear but the exit stays 0.
    let out = lucidc(&["check", "--lint", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W0501]"), "{stderr}");
    assert!(stderr.contains("warning[W0502]"), "{stderr}");
    assert!(stderr.contains("warning[W0503]"), "{stderr}");
    assert!(stderr.contains("scratch"), "{stderr}");

    // `compile --lint` carries the same diagnostics beside the artifact.
    let out = lucidc(&["compile", "--lint", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W0501]"), "{stderr}");

    // JSON mode reports the same codes, machine-readable.
    let out = lucidc(&["check", "--lint", "--json-diagnostics", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stderr).trim().to_string();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains("\"code\":\"W0501\""), "{json}");
    assert!(json.contains("\"severity\":\"warning\""), "{json}");
}

#[test]
fn deny_lints_promotes_warnings_and_exits_one() {
    let f = write_temp("linty-deny.lucid", LINTY);
    let path = f.to_str().unwrap();
    let out = lucidc(&["check", "--deny-lints", path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[W0501]"), "{stderr}");
    assert!(!stderr.contains("warning[W0501]"), "{stderr}");

    // A lint-clean program passes the gate.
    let clean = write_temp("lint-clean.lucid", GOOD);
    let out = lucidc(&["check", "--deny-lints", clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // `stages` rejects the flags (its output is a layout, not a listing).
    let out = lucidc(&["stages", "--lint", path]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

// ------------------------------------------------------------------- sim

const SIM_SCENARIO: &str = r#"{
  "name": "counter-cli",
  "net": {"switches": 2},
  "events": [
    {"time_ns": 0,   "switch": 1, "event": "pkt", "args": [3]},
    {"time_ns": 100, "switch": 2, "event": "pkt", "args": [3]},
    {"time_ns": 200, "switch": 1, "event": "pkt", "args": [5]}
  ],
  "expect": {
    "handled": 3,
    "arrays": [
      {"switch": 1, "array": "cts", "index": 3, "value": 1},
      {"switch": 2, "array": "cts", "index": 3, "value": 1},
      {"switch": 1, "array": "cts", "index": 5, "value": 1}
    ]
  }
}"#;

#[test]
fn sim_runs_scenario_green() {
    let prog = write_temp("sim-good.lucid", GOOD);
    let sc = write_temp("sim-good.sim.json", SIM_SCENARIO);
    let out = lucidc(&["sim", prog.to_str().unwrap(), sc.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("expectations: all met"), "{s}");
    assert!(s.contains("events: 3 processed"), "{s}");
}

#[test]
fn sim_engines_agree_and_json_is_structured() {
    let prog = write_temp("sim-json.lucid", GOOD);
    let sc = write_temp("sim-json.sim.json", SIM_SCENARIO);
    for engine in ["sequential", "sharded"] {
        let out = lucidc(&[
            "sim",
            &format!("--engine={engine}"),
            "--json",
            prog.to_str().unwrap(),
            sc.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{engine}: {out:?}");
        let s = String::from_utf8_lossy(&out.stdout);
        let line = s.trim();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(&format!("\"engine\":\"{engine}\"")), "{line}");
        assert!(line.contains("\"events_handled\":3"), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"events_per_sec\":"), "{line}");
    }
}

#[test]
fn sim_expectation_mismatch_exits_one_with_report() {
    let prog = write_temp("sim-miss.lucid", GOOD);
    let wrong = SIM_SCENARIO.replace("\"value\": 1", "\"value\": 7");
    let sc = write_temp("sim-miss.sim.json", &wrong);
    let out = lucidc(&["sim", prog.to_str().unwrap(), sc.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("FAILED"), "{s}");
    assert!(s.contains("expected 7, got 1"), "{s}");

    let out = lucidc(&[
        "sim",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("\"ok\":false"), "{s}");
    assert!(s.contains("\"kind\":\"array\""), "{s}");
}

#[test]
fn sim_scenario_errors_exit_one_with_structure() {
    let prog = write_temp("sim-err.lucid", GOOD);
    // Malformed JSON.
    let bad = write_temp("sim-bad.sim.json", "{ not json ");
    let out = lucidc(&["sim", prog.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let s = String::from_utf8_lossy(&out.stderr);
    assert!(s.contains("not valid JSON"), "{s}");

    // Unknown event, structured path in the JSON form.
    let unk = write_temp(
        "sim-unk.sim.json",
        r#"{"events": [{"time_ns": 0, "switch": 1, "event": "zap", "args": []}]}"#,
    );
    let out = lucidc(&[
        "sim",
        "--json",
        prog.to_str().unwrap(),
        unk.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("\"kind\":\"validate\""), "{s}");
    assert!(s.contains("$.events[0].event"), "{s}");

    // Usage errors stay 2.
    let out = lucidc(&["sim", prog.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let out = lucidc(&["sim", "--workers=x", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sim_runtime_fault_still_emits_json() {
    let prog = write_temp("sim-oob.lucid", GOOD);
    // Index 100 is in range of the 32-bit event arg but out of bounds for
    // the 64-cell array: a data-dependent runtime fault, not a scenario
    // validation error.
    let sc = write_temp(
        "sim-oob.sim.json",
        r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [100]}]}"#,
    );
    let out = lucidc(&[
        "sim",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    let line = s.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"kind\":\"runtime\""), "{line}");
    assert!(line.contains("out of bounds"), "{line}");
}

#[test]
fn printf_of_an_array_is_a_diagnostic_not_a_crash() {
    let prog = write_temp(
        "printf-array.lucid",
        "global a = new Array<<32>>(4); event go(int v); handle go(int v) { printf(\"a=%d\", a); }",
    );
    let sc = write_temp(
        "printf-array.sim.json",
        r#"{"events": [{"time_ns": 0, "switch": 1, "event": "go", "args": [1]}]}"#,
    );
    let out = lucidc(&["check", prog.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot print an array"),
        "{out:?}"
    );
    for exec in ["--exec=ast", "--exec=bytecode"] {
        let out = lucidc(&["sim", exec, prog.to_str().unwrap(), sc.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{exec}: {out:?}");
    }
}

#[test]
fn sim_exec_modes_agree_and_are_labeled() {
    let prog = write_temp("sim-exec.lucid", GOOD);
    let sc = write_temp(
        "sim-exec.sim.json",
        r#"{"name": "exec-matrix",
            "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [9]},
                       {"time_ns": 100, "switch": 1, "event": "pkt", "args": [9]}],
            "expect": {"handled": 2,
                       "arrays": [{"switch": 1, "array": "cts", "index": 9, "value": 2}]}}"#,
    );
    let mut digests = Vec::new();
    for exec in ["ast", "bytecode"] {
        let out = lucidc(&[
            "sim",
            &format!("--exec={exec}"),
            "--json",
            prog.to_str().unwrap(),
            sc.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{exec}: {out:?}");
        let s = String::from_utf8_lossy(&out.stdout);
        assert!(s.contains(&format!("\"exec\":\"{exec}\"")), "{s}");
        assert!(s.contains("\"ok\":true"), "{s}");
        let digest = s
            .split("\"state_digest\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .expect("digest in report")
            .to_string();
        digests.push(digest);
    }
    assert_eq!(digests[0], digests[1], "executors must agree on state");

    // Unknown exec value is a usage error.
    let out = lucidc(&["sim", "--exec=jit", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sim_dump_bytecode_prints_listing() {
    let prog = write_temp("sim-dump.lucid", GOOD);
    // Program-only invocation dumps and exits 0.
    let out = lucidc(&["sim", "--dump-bytecode", prog.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("handler `pkt`"), "{s}");
    assert!(s.contains("halt"), "{s}");
    assert!(s.contains("; array g0 `cts`: 64 x 32-bit"), "{s}");

    // The CLI surface and the library agree on the listing.
    let lib =
        lucid_core::disassemble(&lucid_core::check::parse_and_check(GOOD).expect("GOOD checks"));
    assert_eq!(s, lib);

    // With a scenario, the dump precedes the run's report.
    let sc = write_temp(
        "sim-dump.sim.json",
        r#"{"events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]}]}"#,
    );
    let out = lucidc(&[
        "sim",
        "--dump-bytecode",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("handler `pkt`"), "{s}");
    assert!(s.contains("expectations: all met"), "{s}");

    // A broken program still reports diagnostics with exit 1.
    let bad = write_temp("sim-dump-bad.lucid", BAD_TWO_MEMOPS);
    let out = lucidc(&["sim", "--dump-bytecode", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // Under --json the listing moves to stderr; stdout stays one
    // machine-readable document.
    let out = lucidc(&[
        "sim",
        "--dump-bytecode",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("handler `pkt`"),
        "{out:?}"
    );
}

#[test]
fn sim_verify_bytecode_gates_the_run() {
    let prog = write_temp("sim-verify.lucid", GOOD);
    let sc = write_temp("sim-verify.sim.json", SIM_SCENARIO);

    // A clean pipeline verifies silently and the scenario runs after it.
    let out = lucidc(&[
        "sim",
        "--verify-bytecode",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("expectations: all met"), "{s}");

    // Dump-only invocations accept the gate too, at every level.
    for opt in ["0", "1", "2"] {
        let out = lucidc(&[
            "sim",
            "--dump-bytecode",
            "--verify-bytecode",
            &format!("--opt={opt}"),
            prog.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "--opt={opt}: {out:?}");
    }

    // A broken program reports its diagnostics through the same path.
    let bad = write_temp("sim-verify-bad.lucid", BAD_TWO_MEMOPS);
    let out = lucidc(&[
        "sim",
        "--verify-bytecode",
        bad.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error[E03"),
        "{out:?}"
    );
}

#[test]
fn sim_runtime_fault_json_names_the_offending_event() {
    let prog = write_temp("sim-fault-at.lucid", GOOD);
    let sc = write_temp(
        "sim-fault-at.sim.json",
        r#"{"events": [{"time_ns": 70, "switch": 1, "event": "pkt", "args": [100]}]}"#,
    );
    let out = lucidc(&[
        "sim",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(line.contains("\"kind\":\"runtime\""), "{line}");
    assert!(line.contains("\"kind\":\"index_out_of_bounds\""), "{line}");
    assert!(line.contains("\"time_ns\":70"), "{line}");
    assert!(line.contains("\"event\":\"pkt\""), "{line}");

    // Human-readable form names the event too.
    let out = lucidc(&["sim", prog.to_str().unwrap(), sc.to_str().unwrap()]);
    let s = String::from_utf8_lossy(&out.stderr);
    assert!(s.contains("`pkt` on switch 1 at 70ns"), "{s}");
}

#[test]
fn opt_flag_unifies_both_backends() {
    let prog = write_temp("opt-flag.lucid", GOOD);
    let sc = write_temp("opt-flag.sim.json", SIM_SCENARIO);
    let path = prog.to_str().unwrap();

    // One flag story: `--opt` works on the P4 side...
    let out = lucidc(&["compile", "--opt=0", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = lucidc(&["stages", "--opt=2", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // ...and on the sim side, where every level must agree on state.
    let mut digests = Vec::new();
    for opt in ["0", "1", "2"] {
        let out = lucidc(&[
            "sim",
            "--exec=bytecode",
            &format!("--opt={opt}"),
            "--json",
            path,
            sc.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "--opt={opt}: {out:?}");
        let s = String::from_utf8_lossy(&out.stdout);
        assert!(s.contains(&format!("\"opt\":{opt}")), "{s}");
        assert!(s.contains("\"ok\":true"), "{s}");
        let digest = s
            .split("\"state_digest\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .expect("digest in report")
            .to_string();
        digests.push(digest);
    }
    assert!(
        digests.iter().all(|d| d == &digests[0]),
        "opt levels disagree on state: {digests:?}"
    );

    // `--no-opt` is the alias for level 0.
    let out = lucidc(&[
        "sim",
        "--exec=bytecode",
        "--no-opt",
        "--json",
        path,
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"opt\":0"),
        "{out:?}"
    );

    // Conflicts and bad values are usage errors (exit 2), and the
    // usage text documents the unified flag.
    for args in [
        vec!["sim", "--no-opt", "--opt=2", "a", "b"],
        vec!["compile", "--no-opt", "--opt=1", "x.lucid"],
        vec!["sim", "--opt=3", "a", "b"],
        vec!["check", "--opt=1", "x.lucid"],
    ] {
        let out = lucidc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--opt=0|1|2"), "usage text: {stderr}");
    }
}

#[test]
fn dump_bytecode_respects_opt_level() {
    // A program whose check cannot be elided (array smaller than the
    // index domain), so the optimized listing must show fused ops.
    let prog = write_temp(
        "opt-dump.lucid",
        r#"
        global small = new Array<<32>>(3);
        memop plus(int m, int x) { return m + x; }
        event pkt(int idx);
        handle pkt(int idx) { Array.setm(small, idx, plus, 1); }
        "#,
    );
    let path = prog.to_str().unwrap();

    let raw = lucidc(&["sim", "--dump-bytecode", "--opt=0", path]);
    assert_eq!(raw.status.code(), Some(0), "{raw:?}");
    let raw = String::from_utf8_lossy(&raw.stdout).to_string();
    assert!(raw.contains("; opt level 0"), "{raw}");
    assert!(
        raw.contains("check small") || raw.contains("check g0"),
        "{raw}"
    );
    assert!(!raw.contains("chk g0"), "{raw}");

    let opt = lucidc(&["sim", "--dump-bytecode", path]);
    assert_eq!(opt.status.code(), Some(0), "{opt:?}");
    let opt = String::from_utf8_lossy(&opt.stdout).to_string();
    assert!(opt.contains("; opt level 2"), "{opt}");
    assert!(opt.contains("chk g0"), "fused op missing:\n{opt}");
    assert!(
        opt.lines().count() <= raw.lines().count(),
        "optimized listing should not be longer"
    );

    // Dump-then-run without --opt renders at the *scenario's* level, so
    // the listing describes the bytecode that actually runs; an explicit
    // --opt still wins.
    let sc = write_temp(
        "opt-dump.sim.json",
        r#"{"exec": "bytecode", "opt": 1,
            "events": [{"time_ns": 0, "switch": 1, "event": "pkt", "args": [1]}]}"#,
    );
    let out = lucidc(&["sim", "--dump-bytecode", path, sc.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("; opt level 1"), "{s}");
    assert!(s.contains("(opt 1)"), "report runs the same level: {s}");
    let out = lucidc(&[
        "sim",
        "--dump-bytecode",
        "--opt=0",
        path,
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("; opt level 0"), "{s}");
    assert!(s.contains("(opt 0)"), "{s}");
}

#[test]
fn sim_generator_flags_drive_the_workload() {
    let prog = write_temp("sim-gen.lucid", GOOD);
    let sc = write_temp(
        "sim-gen.sim.json",
        r#"{"name": "gen",
            "seed": 1,
            "generators": [{"name": "src", "event": "pkt", "rate_eps": 1000000,
                            "count": 500, "args": [{"zipf": {"n": 64, "s": 1.1}}]}],
            "expect": {"handled": 500}}"#,
    );
    // As authored: expectations checked, per-generator counts reported.
    let out = lucidc(&[
        "sim",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("\"name\":\"src\",\"injected\":500"), "{s}");
    assert!(s.contains("\"ok\":true"), "{s}");

    // --events scales the stream up lazily; --seed reshuffles it. Both
    // bypass the authored expectations (the run is no longer that run).
    let out = lucidc(&[
        "sim",
        "--events=2000",
        "--seed=9",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("\"injected\":2000"), "{s}");
    assert!(s.contains("\"events_handled\":2000"), "{s}");

    // --gen replaces the scenario's generators (inline JSON form).
    let out = lucidc(&[
        "sim",
        "--gen={\"name\": \"inline\", \"event\": \"pkt\", \"interval_ns\": 50, \
         \"count\": 77, \"args\": [{\"uniform\": [0, 63]}]}",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("\"name\":\"inline\",\"injected\":77"), "{s}");

    // --gen from a spec file.
    let spec = write_temp(
        "sim-gen.gen.json",
        r#"[{"name": "filed", "event": "pkt", "rate_eps": 500000,
             "count": 33, "args": [{"seq": 64}]}]"#,
    );
    let out = lucidc(&[
        "sim",
        &format!("--gen={}", spec.to_str().unwrap()),
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("\"name\":\"filed\",\"injected\":33"), "{s}");

    // A broken --gen spec is a structured diagnostic, exit 1.
    let out = lucidc(&[
        "sim",
        "--gen={\"event\": \"pkt\", \"rate_eps\": 10}",
        "--json",
        prog.to_str().unwrap(),
        sc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("unbounded"), "{s}");

    // Bad numeric values are usage errors.
    let out = lucidc(&["sim", "--seed=x", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
    let out = lucidc(&["sim", "--events=x", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sim_no_trace_changes_nothing_observable() {
    let prog = write_temp("sim-notrace.lucid", GOOD);
    let sc = write_temp("sim-notrace.sim.json", SIM_SCENARIO);
    let mut reports = Vec::new();
    for flags in [&[][..], &["--no-trace"][..]] {
        let mut args = vec!["sim"];
        args.extend_from_slice(flags);
        args.extend_from_slice(&["--json", prog.to_str().unwrap(), sc.to_str().unwrap()]);
        let out = lucidc(&args);
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {out:?}");
        let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
        assert!(s.contains("\"ok\":true"), "{s}");
        // Strip the two wall-clock fields; everything else must match
        // byte for byte — dropping the trace is not allowed to perturb
        // stats, expectations, metrics, or the state digest.
        let stable: String = s
            .split(',')
            .filter(|f| !f.contains("\"wall_ms\"") && !f.contains("\"events_per_sec\""))
            .collect::<Vec<_>>()
            .join(",");
        reports.push(stable);
    }
    assert_eq!(reports[0], reports[1], "--no-trace changed the report");

    // The flag is sim-only.
    let out = lucidc(&["check", "--no-trace", "x.lucid"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

// ----------------------------------------------------------------- serve

/// Drive `lucidc serve` over stdin/stdout: write the request lines,
/// close stdin, and collect one response line per request.
fn serve_session(lines: &[String]) -> Vec<String> {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_lucidc"))
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("lucidc serve spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    for line in lines {
        writeln!(stdin, "{line}").expect("request written");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(std::string::ToString::to_string)
        .collect()
}

#[test]
fn serve_runs_a_scripted_session_end_to_end() {
    let requests = vec![
        format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
            json_quote(GOOD),
            json_quote(SIM_SCENARIO)
        ),
        r#"{"op":"advance","session":1,"to_ns":50}"#.to_string(),
        r#"{"op":"query","session":1,"array":{"switch":1,"name":"cts"}}"#.to_string(),
        r#"{"op":"drain","session":1}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ];
    let replies = serve_session(&requests);
    assert_eq!(replies.len(), 5, "{replies:?}");
    assert!(
        replies[0].contains("\"ok\":true,\"session\":1"),
        "{}",
        replies[0]
    );
    // At t=50 only the first injection has run.
    assert!(replies[1].contains("\"processed\":1"), "{}", replies[1]);
    assert!(replies[2].contains("\"array\":["), "{}", replies[2]);
    // The drained session reports like a one-shot run: all three events,
    // expectations met.
    assert!(
        replies[3].contains("\"events_handled\":3"),
        "{}",
        replies[3]
    );
    assert!(replies[3].contains("\"ok\":true"), "{}", replies[3]);
    assert!(replies[4].contains("\"shutdown\":true"), "{}", replies[4]);
}

#[test]
fn serve_rejects_unknown_arguments() {
    let out = lucidc(&["serve", "--port=80"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown `serve` argument"), "{stderr}");
}

/// Quote a string as a JSON string literal (tests only need the common
/// escapes: the embedded program/scenario sources are ASCII).
fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
