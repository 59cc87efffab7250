//! Robustness of the front end: arbitrary input must never panic the
//! lexer, parser, or checker — every failure must be a [`Diagnostic`],
//! because actionable errors are the product (§4, §5).

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: lex+parse returns Ok or Err, never panics.
    #[test]
    fn parser_total_on_arbitrary_strings(s in "\\PC{0,200}") {
        let _ = lucid_frontend::parse_program(&s);
    }

    /// Arbitrary ASCII with Lucid-ish characters, denser in punctuation.
    #[test]
    fn parser_total_on_lucid_like_soup(
        s in proptest::collection::vec(
            prop_oneof![
                Just("event "), Just("handle "), Just("global "), Just("memop "),
                Just("if"), Just("("), Just(")"), Just("{"), Just("}"),
                Just("<<"), Just(">>"), Just(";"), Just("="), Just("Array.get"),
                Just("generate "), Just("int "), Just("x"), Just("7"), Just("+"),
                Just("\""), Just("//"), Just("/*"), Just("*/")
            ],
            0..60
        )
    ) {
        let src: String = s.concat();
        let _ = lucid_frontend::parse_program(&src);
    }

    /// Checking any *parsed* program is also total.
    #[test]
    fn checker_total_on_random_mutations(
        idx in 0usize..10,
        cut_at in 0usize..2000,
        insert in "\\PC{0,10}",
    ) {
        let app = lucid_apps::all().swap_remove(idx);
        let mut src = app.source.to_string();
        let pos = cut_at.min(src.len());
        // Mutate on a char boundary.
        let pos = (0..=pos).rev().find(|&p| src.is_char_boundary(p)).unwrap_or(0);
        src.insert_str(pos, &insert);
        if let Ok(program) = lucid_frontend::parse_program(&src) {
            let _ = lucid_check::check(program);
        }
    }

    /// Truncating a valid program anywhere never panics any phase: a build
    /// session driven to P4 either succeeds or reports diagnostics.
    #[test]
    fn pipeline_total_on_truncated_apps(idx in 0usize..10, frac in 0.0f64..1.0) {
        let app = lucid_apps::all().swap_remove(idx);
        let cut = (app.source.len() as f64 * frac) as usize;
        let cut = (0..=cut).rev().find(|&p| app.source.is_char_boundary(p)).unwrap_or(0);
        let src = &app.source[..cut];
        let mut build = lucid_core::Compiler::new().build("truncated.lucid", src);
        if build.p4().is_err() {
            let _ = build.render_diagnostics();
            let _ = build.diagnostics_json();
        }
    }
}

/// The parser bounds nesting — parentheses, unary chains, nested `if`,
/// `else if` chains — because it, and every pass after it, recurses
/// over the tree: at the limit a program parses and checks, one level
/// past it is a spanned `E0101`, and a hostile 200 000 levels is the
/// same diagnostic rather than a stack overflow (an abort no caller can
/// catch).
#[test]
fn nesting_is_bounded_not_a_stack_overflow() {
    // Each shape with its deepest node at level `n`, as the parser
    // counts them: a handler's statement is level 1, an expression's
    // operand one below its statement or operator.
    type Shape = fn(usize) -> String;
    let shapes: [(&str, Shape); 4] = [
        ("parens", |n| {
            let (open, close) = ("(".repeat(n - 2), ")".repeat(n - 2));
            format!("event go(int x); handle go(int x) {{ int y = {open}x{close}; }}")
        }),
        ("unary chain", |n| {
            let ops = "~".repeat(n - 2);
            format!("event go(int x); handle go(int x) {{ int y = {ops}x; }}")
        }),
        ("nested if", |n| {
            let (open, close) = ("if (x == 1) { ".repeat(n - 2), "}".repeat(n - 2));
            format!("event go(int x); handle go(int x) {{ {open}int y = x;{close} }}")
        }),
        ("else-if chain", |n| {
            let arms = "else if (x == 1) { } ".repeat(n - 3);
            format!("event go(int x); handle go(int x) {{ if (x == 0) {{ }} {arms}else {{ int y = x; }} }}")
        }),
    ];
    for (shape, program) in shapes {
        let at_limit = program(128);
        let checked = lucid_check::parse_and_check(&at_limit);
        assert!(checked.is_ok(), "{shape} at the limit: {:?}", checked.err());
        for n in [129, 200_000] {
            let src = program(n);
            let err = lucid_frontend::parse_program(&src).expect_err(shape);
            assert_eq!(err.code, Some("E0101"), "{shape} x{n}: {err}");
            assert_eq!(err.message, "nesting deeper than 128", "{shape} x{n}");
            assert!(err.span.is_some(), "{shape} x{n}: spanned");
        }
    }
    // An operator chain is parsed by a loop, not by recursion, yet
    // builds a tree just as deep: it is bounded all the same.
    let chain = |n: usize| format!("const int A = 1{};", " + 1".repeat(n));
    assert!(lucid_frontend::parse_program(&chain(127)).is_ok());
    for n in [128, 200_000] {
        let err = lucid_frontend::parse_program(&chain(n)).expect_err("chain");
        assert_eq!(err.code, Some("E0101"), "chain x{n}: {err}");
    }
}

/// Every diagnostic the checker produces on a corpus of broken programs
/// renders cleanly against its source map (no panics from span math).
#[test]
fn diagnostics_always_render() {
    let broken = [
        "global a = new Array<<32>>(0);",
        "event e(int x); handle e(bool x) { }",
        "memop m(int a, int b) { return a * b; }",
        "handle nope(int x) { int y = z; }",
        "event e(int x); handle e(int x) { generate q(); }",
        "global a = new Array<<32>>(4);\nglobal b = new Array<<32>>(4);\nevent e(int i);\nhandle e(int i) { int x = Array.get(b, i); Array.set(a, i, x); }",
        "const int A = 1 / 0;",
        "event e(); handle e() { printf(\"%d %d\"); }",
    ];
    for src in broken {
        let sm = lucid_frontend::SourceMap::new("broken.lucid", src);
        match lucid_frontend::parse_program(src) {
            Err(d) => {
                assert!(!d.render(&sm).is_empty());
            }
            Ok(program) => {
                let err = lucid_check::check(program).expect_err("corpus must be broken");
                assert!(!err.render(&sm).is_empty());
            }
        }
    }
}

/// Unicode in comments and strings survives the whole pipeline.
#[test]
fn unicode_handled_in_comments_and_strings() {
    let src = "// ein Kommentar mit Ümläuten 🚀\n\
               event go(int x);\n\
               handle go(int x) { printf(\"päckchen %d\", x); }\n";
    let prog = lucid_check::parse_and_check(src).expect("checks");
    let mut sim = lucid_interp::Interp::single(&prog);
    sim.schedule(1, 0, "go", &[5]).unwrap();
    sim.run_to_quiescence().unwrap();
    assert_eq!(sim.output, vec!["päckchen 5"]);
}
