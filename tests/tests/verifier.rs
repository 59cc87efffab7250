//! Integration gate for the bytecode verifier: every bundled Figure-9
//! app must compile to *verified* bytecode at both optimization levels.
//! `compile_verified` re-runs the verifier after lowering and after each
//! optimizer pass, so a regression in `lower`, `peephole`, or `regalloc`
//! fails here with a V-code naming the guilty pass — before any
//! differential test gets a chance to observe the miscompile as a wrong
//! answer.

use lucid_core::OptLevel;
use lucid_interp::CompiledProg;

const LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

#[test]
fn bundled_apps_verify_at_every_level() {
    let mut checked = 0;
    for app in lucid_apps::all() {
        let prog = app.checked();
        for level in LEVELS {
            match CompiledProg::compile_verified(&prog, level) {
                Ok(_) => checked += 1,
                Err(vs) => {
                    let listing: Vec<String> = vs.iter().map(ToString::to_string).collect();
                    panic!(
                        "{} at O{}: verifier rejected the compiler's output:\n{}",
                        app.key,
                        level.label(),
                        listing.join("\n")
                    );
                }
            }
        }
    }
    assert_eq!(checked, 20, "ten apps x two levels must all verify");
}
