//! Golden-file tests for the bytecode disassembler: the
//! `lucidc sim --dump-bytecode` listing of every bundled Figure-9 app is
//! pinned **per optimization level** under
//! `tests/golden/<key>.o<level>.bc.txt` — o0 is the raw lowering, o2 the
//! peephole/superinstruction pass plus register allocation. A diff
//! means the compiler's lowering, an optimizer pass, or the listing
//! format changed — regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p lucid-tests --test golden_bytecode`
//! and review the diff like any other code change.
//!
//! `GOLDEN_DIR=<dir>` redirects reads/writes (the `ci.sh` golden-drift
//! guard regenerates into a temp dir and diffs against the checked-in
//! tree, so stale goldens fail fast with a readable diff).

use lucid_core::OptLevel;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    match std::env::var_os("GOLDEN_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden"),
    }
}

const LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

#[test]
fn bundled_app_bytecode_matches_golden_files() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut checked = 0;
    for app in lucid_apps::all() {
        let prog = app.checked();
        for level in LEVELS {
            let listing = lucid_interp::disassemble_opt(&prog, level);
            let path = dir.join(format!("{}.o{}.bc.txt", app.key, level.label()));
            if update {
                std::fs::write(&path, &listing).expect("write golden");
                checked += 1;
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "{}: missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
                    app.key,
                    path.display()
                )
            });
            assert_eq!(
                listing,
                want,
                "{} at O{}: bytecode listing drifted from {}; if intended, regenerate \
                 with UPDATE_GOLDEN=1 and review the diff",
                app.key,
                level.label(),
                path.display()
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked, 20,
        "all ten Figure-9 apps must have goldens at both opt levels"
    );
}

/// The listing is deterministic across compilations (pool numbering,
/// register allocation, and instruction order never depend on hash-map
/// iteration) — at every optimization level.
#[test]
fn disassembly_is_deterministic() {
    for app in lucid_apps::all().into_iter().take(3) {
        let prog = app.checked();
        for level in LEVELS {
            let a = lucid_interp::disassemble_opt(&prog, level);
            let b = lucid_interp::disassemble_opt(&prog, level);
            assert_eq!(a, b, "{} at O{}", app.key, level.label());
        }
    }
}

/// Optimization helps on the bundled apps: O2 never emits more
/// instructions than O0 and never a larger register frame — and across
/// the whole app suite it must shrink both somewhere. (The peephole's
/// own output, between the two, is pinned by the `lucid-interp` unit
/// tests, which call the pass directly.)
#[test]
fn optimizer_improves_the_bundled_apps() {
    let (mut code_shrank, mut regs_shrank) = (false, false);
    for app in lucid_apps::all() {
        let prog = app.checked();
        let sizes: Vec<(usize, usize)> = LEVELS
            .iter()
            .map(|&l| {
                let cp = lucid_interp::CompiledProg::compile_opt(&prog, l);
                let instrs: usize = cp.handlers().map(|h| h.instrs().len()).sum();
                let regs: usize = cp
                    .handlers()
                    .map(lucid_interp::bytecode::HandlerCode::nregs)
                    .sum();
                (instrs, regs)
            })
            .collect();
        let [(i0, r0), (i2, r2)] = sizes[..] else {
            unreachable!()
        };
        assert!(
            i2 <= i0,
            "{}: the optimizer grew the code {i0} -> {i2}",
            app.key
        );
        assert!(
            r2 <= r0,
            "{}: the optimizer grew the register frames {r0} -> {r2}",
            app.key
        );
        code_shrank |= i2 < i0;
        regs_shrank |= r2 < r0;
    }
    assert!(code_shrank, "the optimizer shortened no app at all");
    assert!(regs_shrank, "regalloc shrank no frame on any app");
}
