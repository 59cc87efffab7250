//! The operator table, every way it is computed: every binary and unary
//! operator at widths {1, 8, 31, 32, 33, 63, 64} over the edge values
//! {0, 1, 2^(w-1), 2^w - 1} (and, for shift counts, w - 1 and w),
//! computed by the `const` folder and on every leg of the reference
//! matrix (`lucid_tests::legs`).
//!
//! Every evaluator calls `lucid_check::arith`, so none of them is an
//! independent reference any more. The expected values come from
//! [`model`] instead: `u128` arithmetic reduced mod 2^w, written without
//! reference to `arith`.
//!
//! Two things besides the operators are under test. Each result is
//! reduced to w bits before it is used (`(a op b) >> (w - 1)` is the
//! result's top bit, never a carry out of it), and a literal takes its
//! width from the other operand (the run-time cases put a literal on
//! one side and an `int<<w>>` argument on the other).

use lucid_check::parse_and_check;
use lucid_tests::{legs, observe, Limits, Schedule};
use std::fmt::Write as _;

const WIDTHS: [u32; 7] = [1, 8, 31, 32, 33, 63, 64];

/// The integer operators, by their surface spelling.
const OPS: [&str; 16] = [
    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", ">", "<=", ">=",
];

/// `a op b` on `w`-bit operands, as a 64-bit result (a comparison is 0
/// or 1).
fn model(op: &str, a: u64, b: u64, w: u32) -> u64 {
    let m: u128 = 1 << w;
    let (a, b) = (u128::from(a), u128::from(b));
    let r = match op {
        "+" => (a + b) % m,
        "-" => (a + m - b) % m,
        "*" => (a * b) % m,
        "/" if b == 0 => 0,
        "/" => a / b,
        "%" if b == 0 => 0,
        "%" => a % b,
        "&" => a & b,
        "|" => a | b,
        "^" => a ^ b,
        "<<" | ">>" if b >= u128::from(w) => 0,
        "<<" => (a << b) % m,
        ">>" => a >> b,
        "==" => u128::from(a == b),
        "!=" => u128::from(a != b),
        "<" => u128::from(a < b),
        ">" => u128::from(a > b),
        "<=" => u128::from(a <= b),
        ">=" => u128::from(a >= b),
        other => unreachable!("{other}"),
    };
    u64::try_from(r).expect("reduced below 2^64")
}

/// `op a` on a `w`-bit operand.
fn model_unary(op: &str, a: u64, w: u32) -> u64 {
    let m: u128 = 1 << w;
    let a = u128::from(a);
    let r = match op {
        "-" => (m - a) % m,
        "~" => m - 1 - a,
        other => unreachable!("{other}"),
    };
    u64::try_from(r).expect("reduced below 2^64")
}

/// The top bit of a `w`-bit result, by the model.
fn top_bit(v: u64, w: u32) -> u64 {
    model(">>", v, u64::from(w - 1), w)
}

fn edges(w: u32) -> Vec<u64> {
    let top = u64::try_from((1u128 << w) - 1).unwrap();
    let mut v = vec![0, 1, 1 << (w - 1), top];
    v.dedup();
    v
}

/// The right operands: the edge values plus the last in-width shift
/// count and the width itself.
fn counts(w: u32) -> Vec<u64> {
    let mut c = edges(w);
    c.extend([u64::from(w) - 1, u64::from(w)]);
    c.sort_unstable();
    c.dedup();
    c
}

fn is_comparison(op: &str) -> bool {
    matches!(op, "==" | "!=" | "<" | ">" | "<=" | ">=")
}

fn is_shift(op: &str) -> bool {
    matches!(op, "<<" | ">>")
}

fn render(op: &str, v: u64) -> String {
    match (is_comparison(op), v) {
        (true, 0) => "false".into(),
        (true, _) => "true".into(),
        (false, v) => v.to_string(),
    }
}

/// Every `(op, a, b)` case at width `w` that the `const` folder accepts
/// (it rejects a constant division by zero).
fn const_cases(w: u32) -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::new();
    for op in OPS {
        for a in edges(w) {
            for b in counts(w) {
                if !(matches!(op, "/" | "%") && b == 0) {
                    out.push((op, a, b));
                }
            }
        }
    }
    out
}

/// The `const` declarations at width `w`: `C{i}` is case `i`, `H{i}`
/// its top bit, and `N{a}`/`T{a}` (with top bits `HN{a}`/`HT{a}`) the
/// unary operators.
fn const_program(w: u32) -> String {
    let ty = format!("int<<{w}>>");
    let top = w - 1;
    let mut src = String::new();
    for v in counts(w) {
        writeln!(src, "const {ty} V{v} = {v};").unwrap();
    }
    for (i, (op, a, b)) in const_cases(w).into_iter().enumerate() {
        if is_comparison(op) {
            writeln!(src, "const bool C{i} = V{a} {op} V{b};").unwrap();
        } else {
            writeln!(src, "const {ty} C{i} = V{a} {op} V{b};").unwrap();
            writeln!(src, "const {ty} H{i} = (V{a} {op} V{b}) >> {top};").unwrap();
        }
    }
    for a in edges(w) {
        writeln!(
            src,
            "const {ty} N{a} = -V{a}; const {ty} HN{a} = (-V{a}) >> {top};"
        )
        .unwrap();
        writeln!(
            src,
            "const {ty} T{a} = ~V{a}; const {ty} HT{a} = (~V{a}) >> {top};"
        )
        .unwrap();
    }
    src
}

/// Whether the run-time program computes `x op b`. A shift count is
/// typed `int` whatever the shifted operand's width, so a count literal
/// must fit in 32 bits (the `const` leg covers the wider counts).
fn runs(op: &str, b: u64) -> bool {
    !is_shift(op) || b <= u64::from(u32::MAX)
}

/// The run-time program at width `w`: for each right operand `b` one
/// `printf` of every operator between the argument `x` and the literal
/// `b`, both ways round (a shift's left literal would be typed in its
/// own context, so shifts go one way), each arithmetic result's top
/// bit, and `-x`, `~x`.
fn run_program(w: u32) -> String {
    let ty = format!("int<<{w}>>");
    let top = w - 1;
    let mut body = String::new();
    for b in counts(w) {
        let mut exprs = Vec::new();
        for op in OPS.into_iter().filter(|op| runs(op, b)) {
            exprs.push(format!("x {op} {b}"));
            if !is_shift(op) {
                exprs.push(format!("{b} {op} x"));
            }
            if !is_comparison(op) {
                exprs.push(format!("(x {op} {b}) >> {top}"));
            }
        }
        exprs.extend(["-x".to_string(), "~x".to_string()]);
        let holes = vec!["%d"; exprs.len()].join(" ");
        writeln!(body, "    printf(\"{holes}\", {});", exprs.join(", ")).unwrap();
    }
    format!("event go({ty} x);\nhandle go({ty} x) {{\n{body}}}\n")
}

/// What [`run_program`] prints for `go(a)`, from the model.
fn expected_lines(a: u64, w: u32) -> Vec<String> {
    counts(w)
        .into_iter()
        .map(|b| {
            let mut parts = Vec::new();
            for op in OPS.into_iter().filter(|op| runs(op, b)) {
                parts.push(render(op, model(op, a, b, w)));
                if !is_shift(op) {
                    parts.push(render(op, model(op, b, a, w)));
                }
                if !is_comparison(op) {
                    parts.push(top_bit(model(op, a, b, w), w).to_string());
                }
            }
            parts.push(model_unary("-", a, w).to_string());
            parts.push(model_unary("~", a, w).to_string());
            parts.join(" ")
        })
        .collect()
}

#[test]
fn const_fold_matches_the_model_at_every_width() {
    for w in WIDTHS {
        let src = const_program(w);
        let prog = parse_and_check(&src).unwrap_or_else(|ds| panic!("int<<{w}>>: {ds}"));
        let c = |name: String| prog.info.consts[&name].value;
        for (i, (op, a, b)) in const_cases(w).into_iter().enumerate() {
            let want = model(op, a, b, w);
            assert_eq!(c(format!("C{i}")), want, "const int<<{w}>>: {a} {op} {b}");
            if !is_comparison(op) {
                let top = top_bit(want, w);
                assert_eq!(
                    c(format!("H{i}")),
                    top,
                    "const int<<{w}>>: ({a} {op} {b}) >> top"
                );
            }
        }
        for a in edges(w) {
            for (op, name) in [("-", "N"), ("~", "T")] {
                let want = model_unary(op, a, w);
                assert_eq!(c(format!("{name}{a}")), want, "const int<<{w}>>: {op}{a}");
                let top = top_bit(want, w);
                assert_eq!(
                    c(format!("H{name}{a}")),
                    top,
                    "const int<<{w}>>: ({op}{a}) >> top"
                );
            }
        }
    }
}

#[test]
fn constant_division_by_zero_stays_a_diagnostic() {
    for op in ["/", "%"] {
        let src = format!("const int<<8>> Z = 0; const int<<8>> C = 7 {op} Z;");
        let err = parse_and_check(&src).expect_err(op).to_string();
        assert!(err.contains("by zero in constant"), "{op}: {err}");
    }
}

#[test]
fn executors_match_the_model_at_every_width() {
    for w in WIDTHS {
        let src = run_program(w);
        let prog = parse_and_check(&src).unwrap_or_else(|ds| panic!("int<<{w}>>: {ds}\n{src}"));
        let args = edges(w);
        let schedule = args.iter().enumerate().fold(Schedule::new(), |s, (t, &a)| {
            s.event(1, t as u64 * 10, "go", &[a])
        });
        for leg in legs() {
            let obs = observe(&prog, 1, leg, &schedule, Limits::QUIESCE);
            assert_eq!(obs.fault, None, "int<<{w}>> [{leg}]");
            let mut got = obs.output.iter();
            for &a in &args {
                for (want, b) in expected_lines(a, w).iter().zip(counts(w)) {
                    assert_eq!(
                        got.next(),
                        Some(want),
                        "int<<{w}>> x={a} b={b} [{leg}]; per op: x op b, b op x, top bit"
                    );
                }
            }
            assert_eq!(got.next(), None);
        }
    }
}

#[test]
fn connectives_and_not_match_the_model() {
    let src = r#"
        const bool F = false;
        const bool T = true;
        const bool FF = F && F; const bool FT = F && T; const bool TF = T && F; const bool TT = T && T;
        const bool OFF = F || F; const bool OFT = F || T; const bool OTF = T || F; const bool OTT = T || T;
        const bool NF = !F; const bool NT = !T;
        event go(bool x, bool y);
        handle go(bool x, bool y) { printf("%d %d %d %d %d", x && y, x || y, x == y, x != y, !x); }
    "#;
    let prog = parse_and_check(src).unwrap();
    let c = |n: &str| prog.info.consts[n].value;
    assert_eq!([c("FF"), c("FT"), c("TF"), c("TT")], [0, 0, 0, 1]);
    assert_eq!([c("OFF"), c("OFT"), c("OTF"), c("OTT")], [0, 1, 1, 1]);
    assert_eq!([c("NF"), c("NT")], [1, 0]);
    let pairs = [(false, false), (false, true), (true, false), (true, true)];
    let want: Vec<String> = pairs
        .iter()
        .map(|&(x, y)| format!("{} {} {} {} {}", x && y, x || y, x == y, x != y, !x))
        .collect();
    let schedule = pairs
        .iter()
        .enumerate()
        .fold(Schedule::new(), |s, (t, &(x, y))| {
            s.event(1, t as u64 * 10, "go", &[x.into(), y.into()])
        });
    for leg in legs() {
        let obs = observe(&prog, 1, leg, &schedule, Limits::QUIESCE);
        assert_eq!(obs.fault, None, "[{leg}]");
        assert_eq!(obs.output, want, "[{leg}]");
    }
}
