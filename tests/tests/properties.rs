//! Property-based tests across the whole pipeline: the §5 ordering
//! discipline, memop validation, interpreter determinism, and the
//! parser/pretty-printer round trip — on both generated programs and the
//! bundled application sources.

use lucid_check::parse_and_check;
use lucid_frontend::json::{self, Json, Writer};
use lucid_interp::{CompiledProg, Interp, OptLevel};
use proptest::prelude::*;

/// Build a program with `n_arrays` globals and one handler whose accesses
/// follow `order` (indices into the globals). Well-ordered iff `order` is
/// non-strictly increasing... strictly increasing, since each array may be
/// touched once per pass.
fn program_with_access_order(n_arrays: usize, order: &[usize]) -> String {
    let mut src = String::new();
    for i in 0..n_arrays {
        src.push_str(&format!("global g{i} = new Array<<32>>(16);\n"));
    }
    src.push_str("memop plus(int m, int x) { return m + x; }\n");
    src.push_str("event go(int idx);\nhandle go(int idx) {\n");
    for &a in order {
        src.push_str(&format!("    Array.setm(g{a}, idx, plus, 1);\n"));
    }
    src.push_str("}\n");
    src
}

/// Characters a JSON string must survive: every control character, the
/// two the escape table exists for, plain ASCII, and scalars outside the
/// BMP (which `\u` escapes can only spell as surrogate pairs).
fn arb_char() -> impl Strategy<Value = char> {
    let scalar = |c| char::from_u32(c).expect("no surrogates in these ranges");
    prop_oneof![
        (0u32..0x20).prop_map(scalar),
        Just('"'),
        Just('\\'),
        (0x20u32..0x7f).prop_map(scalar),
        (0xa0u32..0x800).prop_map(scalar),
        (0x1_0000u32..0x1_0400).prop_map(scalar),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..8).prop_map(String::from_iter)
}

/// Trees the writer can spell exactly: integers up to 2^53 - 1 and
/// sixteenths (four decimal places carry them without rounding).
fn arb_json(depth: u32) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (0u64..1 << 53).prop_map(|n| Json::Num(n as f64)),
        (0u32..4000).prop_map(|k| Json::Num(f64::from(k) / 16.0 - 100.0)),
        arb_string().prop_map(Json::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let fields = (arb_string(), arb_json(depth - 1));
    prop_oneof![
        leaf,
        proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
        proptest::collection::vec(fields, 0..4).prop_map(Json::Obj),
    ]
    .boxed()
}

fn write_tree(w: &mut Writer, tree: &Json) {
    match tree {
        Json::Null => w.null(),
        Json::Bool(b) => w.bool(*b),
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => w.u64(*n as u64),
        Json::Num(n) => w.f64(*n, 4),
        Json::Str(s) => w.str(s),
        Json::Arr(items) => w.arr(|w| items.iter().for_each(|item| write_tree(w, item))),
        Json::Obj(fields) => w.obj(|w| {
            for (key, value) in fields {
                write_tree(w.key(key), value);
            }
        }),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The codec is a pair: whatever tree the writer spells, the parser
    /// reads back unchanged.
    #[test]
    fn json_writer_output_parses_back_unchanged(tree in arb_json(3)) {
        let text = json::write(|w| write_tree(w, &tree));
        prop_assert!(json::parse(&text).as_ref() == Ok(&tree), "{tree:?} wrote {text}");
    }

    /// Any strictly increasing access sequence checks, compiles within a
    /// (tall enough) pipeline, and runs.
    #[test]
    fn ordered_programs_always_accepted(
        mask in proptest::collection::vec(any::<bool>(), 8)
    ) {
        let order: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let src = program_with_access_order(8, &order);
        // One session drives check → layout → P4 (8 arrays + dispatcher
        // fits the 12-stage Tofino).
        let mut build = lucid_core::Compiler::new().build("ordered.lucid", &src);
        prop_assert!(build.p4().is_ok(), "{}", build.render_diagnostics());
        let prog = build.checked().expect("checks").clone();
        // And runs: one event touches each selected array once.
        let mut sim = Interp::single(&prog);
        sim.schedule(1, 0, "go", &[3]).unwrap();
        sim.run_to_quiescence().unwrap();
        for &a in &order {
            prop_assert_eq!(sim.array(1, &format!("g{a}"))[3], 1);
        }
    }

    /// Any access sequence with an inversion (later-declared array before
    /// an earlier one, or the same array twice) is rejected by the type
    /// system — the §5 guarantee.
    #[test]
    fn disordered_programs_always_rejected(
        a in 0usize..6, b in 0usize..6
    ) {
        prop_assume!(a >= b);
        let src = program_with_access_order(6, &[a, b]);
        let err = parse_and_check(&src).expect_err("inversion must be rejected");
        prop_assert!(
            err.items.iter().any(|d| d.message.contains("out of declaration order")),
            "{err}"
        );
    }

    /// The interpreter is deterministic: the same schedule produces the
    /// same trace and the same final state, run after run.
    #[test]
    fn interpreter_is_deterministic(
        packets in proptest::collection::vec((0u64..16, 0u64..10_000), 1..50)
    ) {
        let src = program_with_access_order(4, &[0, 1, 2, 3]);
        let prog = parse_and_check(&src).unwrap();
        let run = || {
            let mut sim = Interp::single(&prog);
            for (idx, t) in &packets {
                sim.schedule(1, *t, "go", &[*idx]).unwrap();
            }
            sim.run_to_quiescence().unwrap();
            (sim.trace.clone(), sim.array(1, "g0").to_vec())
        };
        prop_assert_eq!(run(), run());
    }

    /// Counter semantics under arbitrary workloads: the data plane's
    /// per-index counters match a host-side reference computation.
    #[test]
    fn counter_agrees_with_reference(
        packets in proptest::collection::vec(0u64..16, 1..200)
    ) {
        let src = program_with_access_order(1, &[0]);
        let prog = parse_and_check(&src).unwrap();
        let mut sim = Interp::single(&prog);
        let mut reference = [0u64; 16];
        for (i, idx) in packets.iter().enumerate() {
            sim.schedule(1, i as u64 * 10, "go", &[*idx]).unwrap();
            reference[*idx as usize] += 1;
        }
        sim.run_to_quiescence().unwrap();
        prop_assert_eq!(sim.array(1, "g0"), &reference[..]);
    }

    /// Valid single-op memops are always accepted, and their evaluation
    /// matches direct arithmetic.
    #[test]
    fn valid_memops_accepted_and_correct(
        op in prop_oneof![Just("+"), Just("-"), Just("&"), Just("|"), Just("^")],
        mem in any::<u32>(),
        arg in any::<u32>(),
    ) {
        let src = format!("memop f(int m, int x) {{ return m {op} x; }}");
        let program = lucid_frontend::parse_program(&src).unwrap();
        let info = lucid_check::ProgramInfo::build(&program).unwrap();
        let irs = lucid_check::validate_memops(&program, &info).expect("valid memop");
        let got = lucid_check::eval_memop(&irs[0], mem as u64, arg as u64, 32);
        let want = match op {
            "+" => mem.wrapping_add(arg),
            "-" => mem.wrapping_sub(arg),
            "&" => mem & arg,
            "|" => mem | arg,
            "^" => mem ^ arg,
            _ => unreachable!(),
        } as u64;
        prop_assert_eq!(got, want);
    }

    /// Conditional memops take the right branch for every input.
    #[test]
    fn conditional_memops_branch_correctly(
        cmp in prop_oneof![Just("<"), Just(">"), Just("=="), Just("!="), Just("<="), Just(">=")],
        mem in any::<u16>(),
        arg in any::<u16>(),
    ) {
        let src = format!(
            "memop f(int m, int x) {{ if (m {cmp} x) {{ return x; }} else {{ return m; }} }}"
        );
        let program = lucid_frontend::parse_program(&src).unwrap();
        let info = lucid_check::ProgramInfo::build(&program).unwrap();
        let irs = lucid_check::validate_memops(&program, &info).expect("valid memop");
        let got = lucid_check::eval_memop(&irs[0], mem as u64, arg as u64, 32);
        let taken = match cmp {
            "<" => (mem as u64) < arg as u64,
            ">" => (mem as u64) > arg as u64,
            "==" => mem == arg,
            "!=" => mem != arg,
            "<=" => mem <= arg,
            ">=" => mem >= arg,
            _ => unreachable!(),
        };
        prop_assert_eq!(got, if taken { arg as u64 } else { mem as u64 });
    }

    /// Arithmetic in the interpreter masks exactly to the declared width.
    #[test]
    fn width_masking_is_exact(w in 1u32..=32, v in any::<u64>()) {
        let src = format!(
            "global out = new Array<<{w}>>(1);\n\
             event go(int<<{w}>> x);\n\
             handle go(int<<{w}>> x) {{ Array.set(out, 0, x + 1); }}\n"
        );
        let prog = parse_and_check(&src).unwrap();
        let mut sim = Interp::single(&prog);
        sim.schedule(1, 0, "go", &[v]).unwrap();
        sim.run_to_quiescence().unwrap();
        let masked_in = lucid_check::mask(v, w);
        prop_assert_eq!(sim.array(1, "out")[0], lucid_check::mask(masked_in + 1, w));
    }

    /// Every generated program compiles to *verified* bytecode at both
    /// optimization levels: init-before-use, width consistency,
    /// jump sanity, frame bounds and pool indexes all hold. The array
    /// size varies from below the `hash<<4>>` index range to above it.
    #[test]
    fn generated_programs_verify_at_every_level(
        mask in proptest::collection::vec(any::<bool>(), 8),
        size_pow in 1u32..=7,
    ) {
        let order: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let mut src = String::new();
        let size = 1u64 << size_pow;
        for i in 0..8 {
            src.push_str(&format!("global g{i} = new Array<<32>>({size});\n"));
        }
        src.push_str("memop plus(int m, int x) { return m + x; }\n");
        src.push_str("event go(int seed);\nhandle go(int seed) {\n");
        src.push_str("    auto h = hash<<4>>(3, seed);\n");
        src.push_str("    int idx = (int<<32>>) h;\n");
        for &a in &order {
            src.push_str(&format!("    Array.setm(g{a}, idx, plus, 1);\n"));
        }
        src.push_str("}\n");
        let prog = parse_and_check(&src).expect("generated program checks");
        for level in [OptLevel::O0, OptLevel::O2] {
            if let Err(vs) = CompiledProg::compile_verified(&prog, level) {
                prop_assert!(false, "O{}: {vs:?}", level.label());
            }
        }
    }
}

/// The pretty printer is a fixpoint on every bundled application.
#[test]
fn pretty_printer_roundtrips_all_apps() {
    for app in lucid_apps::all() {
        let p1 = lucid_frontend::parse_program(app.source)
            .unwrap_or_else(|e| panic!("{}: {e}", app.key));
        let printed = lucid_frontend::pretty::program(&p1);
        let p2 = lucid_frontend::parse_program(&printed)
            .unwrap_or_else(|e| panic!("{} reparse: {e}\n{printed}", app.key));
        assert_eq!(
            lucid_frontend::pretty::program(&p2),
            printed,
            "{}: pretty is not a fixpoint",
            app.key
        );
    }
}

/// Compilation is deterministic: identical input yields identical layout
/// and identical P4 text, across independent build sessions.
#[test]
fn compilation_is_deterministic() {
    for app in lucid_apps::all() {
        let compiler = lucid_core::Compiler::new();
        let mut a = compiler.build(app.key, app.source);
        let mut b = compiler.build(app.key, app.source);
        assert_eq!(
            a.p4().unwrap().source,
            b.p4().unwrap().source,
            "{}",
            app.key
        );
        assert_eq!(
            a.layout().unwrap().total_stages,
            b.layout().unwrap().total_stages
        );
    }
}

/// Every JSON emitter in the workspace writes text the workspace's own
/// parser accepts — with hostile names in every string position.
#[test]
fn every_emitter_writes_parseable_json() {
    use lucid_interp::{
        run_scenario_with, ErrorKind, FaultAt, InterpError, InterpFault, Mismatch, Scenario,
        ScenarioError, ServeError, SimOptions,
    };
    const NASTY: &str = "a\"b\\c\n\t\u{1}\u{1f600}";
    let parses = |what: &str, text: String| {
        if let Err(e) = json::parse(&text) {
            panic!("{what} is not JSON ({e}): {text}");
        }
    };

    let prog = parse_and_check(
        "global cts = new Array<<32>>(8);\n\
         memop plus(int m, int x) { return m + x; }\n\
         event pkt(int idx);\n\
         handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }",
    )
    .unwrap();
    let sc = Scenario::from_json(&json::write(|w| {
        w.obj(|w| {
            w.key("name").str(NASTY).key("generators").arr(|w| {
                w.obj(|w| {
                    w.key("name").str(NASTY).key("event").str("pkt");
                    w.key("rate_eps").u64(1000).key("count").u64(4);
                    w.key("args").arr(|w| {
                        w.u64(3);
                    });
                });
            });
            w.key("expect").obj(|w| {
                w.key("handled").u64(9);
            });
        });
    }))
    .unwrap();
    let report = run_scenario_with(&prog, &sc, &SimOptions::default()).unwrap();
    assert!(!report.passed(), "the report must embed a mismatch");
    parses("SimReport", report.to_json());
    parses("Metrics", report.metrics.to_json());

    for e in [
        Scenario::from_json("{ nope").unwrap_err(),
        Scenario::from_json(&format!("{{{:?}: 1}}", "k\"\\")).unwrap_err(),
        ScenarioError::Validate {
            path: format!("$.expect.per_event.{NASTY}"),
            msg: format!("no event named `{NASTY}`"),
        },
    ] {
        parses("ScenarioError", e.to_json());
    }
    for m in [
        Mismatch::Array {
            switch: 1,
            array: NASTY.into(),
            index: 2,
            want: 3,
            got: 4,
        },
        Mismatch::FailedSwitch {
            switch: 1,
            array: NASTY.into(),
        },
        Mismatch::Count {
            what: format!("event:{NASTY}"),
            want: 1,
            got: 0,
        },
        Mismatch::Metric {
            class: format!("{NASTY}@1"),
            metric: "latency_p99_ns",
            op: "<=",
            want: 1,
            got: 2,
        },
    ] {
        parses("Mismatch", m.to_json());
    }
    for at in [
        None,
        Some(FaultAt {
            time_ns: 40,
            switch: 1,
            event: NASTY.into(),
            origin: None,
            seq: 0,
        }),
        Some(FaultAt {
            time_ns: 40,
            switch: 1,
            event: "pkt".into(),
            origin: Some(2),
            seq: 7,
        }),
    ] {
        let kind = InterpFault::NoSuchEvent(NASTY.into());
        parses("InterpError", InterpError { kind, at }.to_json());
    }
    parses(
        "ServeError",
        ServeError {
            kind: ErrorKind::Protocol,
            msg: NASTY.into(),
        }
        .to_json(),
    );

    // Diagnostics: a real multi-error program, under a hostile file name.
    let mut build = lucid_core::Compiler::new().build(
        NASTY,
        "memop bad(int m, int x) { return m * x; }\nmemop bad2(int m, int x) { return x + x; }\n",
    );
    assert!(build.checked().is_err());
    assert!(build.diagnostics().len() >= 2);
    parses("Diagnostics", build.diagnostics_json());
    let first = &build.diagnostics().items[0];
    parses("Diagnostic", first.to_json(build.source_map()));
}
