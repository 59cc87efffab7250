//! Integration tests for the staged `Compiler`/`Build` session API: lazy,
//! cached stage artifacts; multi-error accumulation with structured
//! diagnostics; and backend retargeting without re-parsing.

use lucid_core::{Compiler, PipelineSpec};
use std::sync::Arc;

const COUNTER: &str = r#"
    global cts = new Array<<32>>(64);
    memop plus(int m, int x) { return m + x; }
    event pkt(int idx);
    handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
"#;

// --- multi-error accumulation -------------------------------------------

#[test]
fn two_independent_memop_violations_both_reported() {
    let mut build = Compiler::new().build(
        "two.lucid",
        "memop one(int m, int x) { return m * x; }\n\
         memop two(int m, int x) { return x + x; }\n",
    );
    assert!(build.checked().is_err());
    let diags = build.diagnostics();
    assert!(diags.error_count() >= 2, "both memops reported: {diags:?}");
    // Every error is structured: severity, code, span.
    for d in diags
        .items
        .iter()
        .filter(|d| d.level == lucid_core::check::Level::Error)
    {
        assert!(d.code.is_some(), "{d:?}");
        assert!(d.span.is_some(), "{d:?}");
    }
    // Renderable as text (with both offending expressions quoted)...
    let text = build.render_diagnostics();
    assert!(text.contains("m * x") && text.contains("x + x"), "{text}");
    // ...and as JSON with resolved positions.
    let json = build.diagnostics_json();
    assert!(
        json.matches("\"severity\":\"error\"").count() >= 2,
        "{json}"
    );
    assert!(json.contains("\"file\":\"two.lucid\""), "{json}");
}

#[test]
fn memop_and_effect_errors_accumulate_across_phases() {
    // A bad memop AND a disordered handler: both surface in one pass.
    let mut build = Compiler::new().build(
        "multi.lucid",
        "global a = new Array<<32>>(4);\n\
         global b = new Array<<32>>(4);\n\
         memop bad(int m, int x) { return m * x; }\n\
         event go(int i);\n\
         handle go(int i) { int x = Array.get(b, i); Array.set(a, i, x); }\n",
    );
    assert!(build.checked().is_err());
    let diags = build.diagnostics();
    let codes: Vec<&str> = diags.items.iter().filter_map(|d| d.code).collect();
    assert!(
        codes.iter().any(|c| c.starts_with("E03")),
        "memop error present: {codes:?}"
    );
    assert!(
        codes.contains(&"E0401"),
        "ordering error present: {codes:?}"
    );
}

#[test]
fn bad_symbols_accumulate_per_declaration() {
    let mut build = Compiler::new().build(
        "sym.lucid",
        "global z = new Array<<32>>(0);\n\
         const int K = 1 / 0;\n",
    );
    assert!(build.checked().is_err());
    assert!(
        build.diagnostics().error_count() >= 2,
        "{}",
        build.render_diagnostics()
    );
}

// --- caching -------------------------------------------------------------

#[test]
fn second_p4_call_does_not_rerun_any_stage() {
    let mut build = Compiler::new().build("cache.lucid", COUNTER);
    build.p4().unwrap();
    let after_first = *build.stats();
    build.p4().unwrap();
    build.layout().unwrap();
    build.handlers().unwrap();
    build.checked().unwrap();
    build.ast().unwrap();
    assert_eq!(*build.stats(), after_first, "all stages cached");
    assert_eq!(after_first.elaborate_runs, 1);
}

#[test]
fn failed_stage_is_cached_too() {
    let mut build = Compiler::new().build("bad.lucid", "memop bad(int m, int x) { return m * x; }");
    assert!(build.checked().is_err());
    assert!(build.p4().is_err());
    assert!(build.layout().is_err());
    let s = *build.stats();
    assert_eq!(
        s.check_runs, 1,
        "check ran once despite three queries: {s:?}"
    );
    assert_eq!(
        s.elaborate_runs, 0,
        "backend never ran on a broken program: {s:?}"
    );
}

#[test]
fn stages_run_only_when_asked() {
    let mut build = Compiler::new().build("lazy.lucid", COUNTER);
    assert_eq!(
        *build.stats(),
        Default::default(),
        "nothing runs until asked"
    );
    build.checked().unwrap();
    let s = *build.stats();
    assert_eq!((s.parse_runs, s.check_runs), (1, 1));
    assert_eq!((s.elaborate_runs, s.layout_runs, s.p4_runs), (0, 0, 0));
}

// --- one artifact per stage --------------------------------------------

#[test]
fn check_shares_the_parsed_ast_and_writes_literal_widths_into_it() {
    let src = "event go(int<<8>> x);\nhandle go(int<<8>> x) { int<<8>> y = x + 1; }\n";
    let mut build = Compiler::new().build("w.lucid", src);
    // Before the check runs, every literal prints as written.
    let before = lucid_core::frontend::pretty::program(build.ast().unwrap());
    assert!(before.contains("x + 1;"), "{before}");
    let ast: *const _ = build.ast().unwrap();
    // The check artifact holds the parse artifact itself, not a copy...
    let checked = build.checked().unwrap();
    assert!(std::ptr::eq(&*checked.program, ast), "check copied the AST");
    // ...so after it, `ast()` shows the widths the checker decided.
    let after = lucid_core::frontend::pretty::program(build.ast().unwrap());
    assert!(after.contains("x + (int<<8>>) 1;"), "{after}");
    assert_eq!(build.stats().parse_runs, 1);
    // One tree checked twice decides the same widths both times.
    let tree = Arc::new(lucid_core::frontend::parse_program(src).unwrap());
    lucid_core::check::check(Arc::clone(&tree)).unwrap();
    let once = lucid_core::frontend::pretty::program(&tree);
    lucid_core::check::check(Arc::clone(&tree)).unwrap();
    assert_eq!(lucid_core::frontend::pretty::program(&tree), once);
    assert_eq!(once, after);
}

#[test]
fn checked_arc_is_a_handle_on_the_check_artifact() {
    let mut build = Compiler::new().build("arc.lucid", COUNTER);
    let a = build.checked_arc().unwrap();
    let b = build.checked_arc().unwrap();
    assert!(Arc::ptr_eq(&a, &b), "one allocation per build");
    assert!(
        std::ptr::eq(&*a, build.checked().unwrap()),
        "the handle is the artifact `checked()` borrows"
    );
    // Retargeting reaches only the backend: the handle survives it.
    build.reconfigure(&Compiler::new().target(PipelineSpec::idealized_pisa()));
    let c = build.checked_arc().unwrap();
    assert!(Arc::ptr_eq(&a, &c), "reconfigure keeps the check artifact");
}

// --- retargeting ---------------------------------------------------------

#[test]
fn reconfigure_rebuilds_backend_only() {
    let mut build = Compiler::new().build("ret.lucid", COUNTER);
    let tofino_stages = build.layout().unwrap().total_stages;
    build.reconfigure(&Compiler::new().target(PipelineSpec::idealized_pisa()));
    let pisa_stages = build.layout().unwrap().total_stages;
    assert_eq!(
        tofino_stages, pisa_stages,
        "same stage count on both targets here"
    );
    let s = *build.stats();
    assert_eq!(
        (s.parse_runs, s.check_runs),
        (1, 1),
        "front end reused: {s:?}"
    );
    assert_eq!(s.layout_runs, 2, "layout re-ran for the new target: {s:?}");
}

#[test]
fn no_opt_configuration_is_honored() {
    // The clean-up pass deletes dead tables; disabling it must leave at
    // least as many tables in the IR.
    let src = r#"
        event go(int a);
        event out(int x);
        handle go(int a) {
            int dead = a + 7;
            int live = a + 1;
            generate out(live);
        }
    "#;
    let mut opt = Compiler::new().build("opt.lucid", src);
    let mut raw = Compiler::new().optimize(false).build("raw.lucid", src);
    let n_opt: usize = opt.handlers().unwrap().iter().map(|h| h.tables.len()).sum();
    let n_raw: usize = raw.handlers().unwrap().iter().map(|h| h.tables.len()).sum();
    assert!(
        n_raw > n_opt,
        "dead table survives without optimization: {n_raw} vs {n_opt}"
    );
}

#[test]
fn reconfigure_keeps_the_check_and_its_warnings() {
    let src = "event go(int x);\n\
               fun int unused(int x) { return x; }\n\
               handle go(int x) { generate go(x); }\n";
    let dead_code = |build: &lucid_core::Build| {
        build
            .diagnostics()
            .items
            .iter()
            .any(|d| d.code == Some("W0001"))
    };
    let mut build = Compiler::new().build("rc.lucid", src);
    build.layout().unwrap();
    assert!(dead_code(&build), "dead-code warning is always on");
    build.reconfigure(&Compiler::new().target(PipelineSpec::idealized_pisa()));
    build.layout().unwrap();
    assert!(dead_code(&build), "the warning survives a retarget");
    let s = *build.stats();
    assert_eq!(
        (s.parse_runs, s.check_runs, s.layout_runs),
        (1, 1, 2),
        "{s:?}"
    );
}

// --- misc ----------------------------------------------------------------

#[test]
fn layout_options_thread_through_the_session() {
    let mut serial = Compiler::new()
        .target(PipelineSpec {
            stages: 256,
            ..PipelineSpec::tofino()
        })
        .rearrange(false)
        .build("fig6.lucid", FIG6);
    let mut rearranged = Compiler::new()
        .target(PipelineSpec {
            stages: 256,
            ..PipelineSpec::tofino()
        })
        .build("fig6.lucid", FIG6);
    assert!(
        serial.layout().unwrap().total_stages > rearranged.layout().unwrap().total_stages,
        "rearrangement saves stages"
    );
}

const FIG6: &str = r#"
    const int NUM_PORTS = 64;
    const int NUM_PORTS_X2 = 128;
    const int TCP = 6;
    const int UDP = 17;
    global nexthops = new Array<<32>>(256);
    global pcts = new Array<<32>>(192);
    global hcts = new Array<<32>>(256);
    memop plus(int cur, int x) { return cur + x; }
    event count_pkt(int dst, int proto);
    handle count_pkt(int dst, int proto) {
        int idx = Array.get(nexthops, dst);
        if (proto != TCP) {
            if (proto == UDP) { idx = idx + NUM_PORTS; }
            else { idx = idx + NUM_PORTS_X2; }
        }
        Array.setm(pcts, idx, plus, 1);
        if (proto == TCP) {
            Array.setm(hcts, dst, plus, 1);
        }
    }
"#;
