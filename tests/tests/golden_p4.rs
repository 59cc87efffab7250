//! Golden-file tests for the P4 backend: the `Build::p4()` text of every
//! bundled Figure-9 app (what `lucidc compile` prints) is pinned under
//! `tests/golden/<key>.p4`. A diff means elaboration, the IR clean-up,
//! layout or the emitter changed what the compiler produces —
//! regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p lucid-tests --test golden_p4`
//! and review the diff like any other code change.
//!
//! `GOLDEN_DIR=<dir>` redirects reads/writes, exactly like the bytecode
//! and lint goldens, so the `ci.sh` drift guard covers all three
//! families in one diff.

use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    match std::env::var_os("GOLDEN_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden"),
    }
}

#[test]
fn bundled_app_p4_matches_golden_files() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut checked = 0;
    for app in lucid_apps::all() {
        let mut build =
            lucid_core::Compiler::new().build(&format!("{}.lucid", app.key), app.source);
        let p4 = match build.p4() {
            Ok(p4) => p4.source.clone(),
            Err(_) => panic!(
                "{} does not compile:\n{}",
                app.key,
                build.render_diagnostics()
            ),
        };
        let path = dir.join(format!("{}.p4", app.key));
        if update {
            std::fs::write(&path, &p4).expect("write golden");
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
            p4,
            want,
            "{}: P4 drifted from {}; if intended, regenerate with UPDATE_GOLDEN=1 \
             and review the diff",
            app.key,
            path.display()
        );
        checked += 1;
    }
    assert_eq!(checked, 10, "all ten Figure-9 apps must have a P4 golden");
}
