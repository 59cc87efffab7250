//! The diagnostic-code registry: every stable code the toolchain can
//! emit — `E0xxx` errors, `W00xx` checker warnings, `W05xx` lints, and
//! `V0xxx` bytecode-verifier violations — is pinned here with its
//! meaning. The test scans the workspace sources for exact code
//! literals, so
//!
//! * inventing a code without registering it fails (users grep these
//!   codes; each one is interface, not implementation), and
//! * retiring a code without deleting its registry row fails (the
//!   registry never advertises codes the tools cannot produce), and
//! * every code sits in its phase's numeric range, so a code's prefix
//!   alone tells a user which subsystem complained.
//!
//! The scanner is deliberately dumb — a literal `"X0123"` string match,
//! no regex dependency — which is exactly the greppability property the
//! codes promise users.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every stable diagnostic code, with the one-line meaning a user would
/// find in the README catalog.
const REGISTRY: &[(&str, &str)] = &[
    // E01xx — lexing/parsing.
    ("E0100", "syntax error (lexer or parser)"),
    ("E0101", "program nests deeper than the parser accepts"),
    // E02xx — symbol resolution.
    ("E0200", "unresolved or duplicate symbol"),
    // E03xx — memop validation (the paper's §4.2 sALU discipline).
    ("E0300", "memop violates the single-ALU form"),
    // E04xx — the ordered type-and-effect system (§5).
    ("E0400", "type error"),
    ("E0401", "global accessed out of pipeline order"),
    ("E0402", "handler parameter shadows a global"),
    ("E0403", "width mismatch in assignment or call"),
    // E06xx — elaboration to atomic tables.
    ("E0600", "handler cannot be elaborated to atomic tables"),
    // E07xx — layout against the pipeline model.
    ("E0700", "program does not fit the target pipeline"),
    // W00xx — checker warnings (dead code).
    ("W0001", "expression result is unused"),
    ("W0002", "unreachable statement"),
    // W05xx — the lint pass (`lucidc check --lint`).
    ("W0501", "unused local variable"),
    ("W0502", "unused handler or function parameter"),
    ("W0503", "unused global array"),
    ("W0504", "statement after a generate-terminated if/else"),
    ("W0505", "condition always evaluates to the same value"),
    ("W0506", "handler neither reads nor writes any global"),
    ("W0507", "global accessed at more than one syntactic site"),
    // V0xxx — the bytecode verifier (`lucidc sim --verify-bytecode`).
    ("V0001", "read of an uninitialized register"),
    ("V0002", "register index outside the handler frame"),
    ("V0003", "object slot index outside the handler frame"),
    ("V0004", "read of an uninitialized or consumed object slot"),
    ("V0005", "bad width or unmasked immediate"),
    ("V0006", "jump target not a forward in-span boundary"),
    ("V0007", "handler does not end in halt"),
    ("V0008", "pool index out of range"),
    ("V0009", "array access neither checked nor elision-proven"),
    ("V0010", "event arity or argument-list violation"),
];

/// Exact-literal scan: a code is "emitted" iff the 7-byte sequence
/// `"X0123"` (quotes included) appears in a workspace source file.
fn codes_in(text: &str, out: &mut BTreeSet<String>) {
    let b = text.as_bytes();
    let mut i = 0;
    while i + 7 <= b.len() {
        if b[i] == b'"'
            && matches!(b[i + 1], b'E' | b'W' | b'V')
            && b[i + 2..i + 6].iter().all(u8::is_ascii_digit)
            && b[i + 6] == b'"'
        {
            out.insert(String::from_utf8_lossy(&b[i + 1..i + 6]).into_owned());
            i += 7;
        } else {
            i += 1;
        }
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read workspace dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // `vendor/` carries third-party shims whose codes (if any)
            // are not this toolchain's interface.
            if path
                .file_name()
                .is_some_and(|n| n == "vendor" || n == "target")
            {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn emitted_codes() -> BTreeSet<String> {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .join("crates");
    let mut files = Vec::new();
    rust_sources(&crates, &mut files);
    assert!(files.len() > 10, "scan found too few sources: {files:?}");
    let mut codes = BTreeSet::new();
    for f in files {
        codes_in(
            &std::fs::read_to_string(&f).expect("read source"),
            &mut codes,
        );
    }
    codes
}

#[test]
fn every_emitted_code_is_registered_and_vice_versa() {
    let emitted = emitted_codes();
    let registered: BTreeSet<String> = REGISTRY.iter().map(|(c, _)| c.to_string()).collect();
    assert_eq!(
        registered.len(),
        REGISTRY.len(),
        "duplicate code in the registry"
    );
    let unregistered: Vec<&String> = emitted.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "codes emitted but not in the registry (add a row + README entry): {unregistered:?}"
    );
    let stale: Vec<&String> = registered.difference(&emitted).collect();
    assert!(
        stale.is_empty(),
        "registry rows no source emits (retire them): {stale:?}"
    );
}

#[test]
fn codes_sit_in_their_phase_ranges() {
    for (code, _) in REGISTRY {
        let (prefix, num) = code.split_at(1);
        let num: u32 = num.parse().expect("numeric code");
        let ok = match prefix {
            // E05xx is deliberately unassigned (reserved between the
            // front-end and back-end phases).
            "E" => matches!(num / 100, 1 | 2 | 3 | 4 | 6 | 7),
            "W" => matches!(num / 100, 0 | 5),
            "V" => num / 100 == 0 && num > 0,
            _ => false,
        };
        assert!(ok, "{code} is outside its phase's numeric range");
    }
}

#[test]
fn scanner_recognizes_exact_literals_only() {
    let mut got = BTreeSet::new();
    codes_in(
        r#"x("E0100") y("W0501z") "notE0200" "V0009" "E999" "W00010""#,
        &mut got,
    );
    let want: BTreeSet<String> = ["E0100", "V0009"].map(String::from).into();
    assert_eq!(got, want);
}
