//! `compile_apps`: the ten Figure-9 applications, each through a fresh
//! build session — parse, check, elaborate, place, emit P4 — and then to
//! verified `O2` bytecode. The paper's compiler itself; the simulator does
//! nothing here.

use crate::inputs::Rng;
use crate::runner::{Checks, Layers, Rep, Size, Untraced, Workload, NS_PER_US};
use crate::spec;
use crate::trace::{TraceAccount, Tracer};
use lucid_apps::AppInfo;
use lucid_core::interp::scenario::json::Json;
use lucid_core::interp::CompiledProg;
use lucid_core::{Compiler, OptLevel};

/// What one app's compile leaves that must not change silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sizes {
    stages: u64,
    p4_loc: u64,
    bytecode_words: u64,
}

pub struct CompileApps {
    /// The ten apps in a seeded order, each with the sizes `expected.json`
    /// pins for it.
    apps: Vec<(AppInfo, Sizes)>,
    /// Totals of the last sweep, for the layer counts.
    src_bytes: u64,
    totals: Sizes,
}

/// The sizes `expected.json` pins for app `key`; an app it does not know
/// pins zeros, which no compile produces, so the run fails and says what
/// the compile did produce.
fn pinned(pins: &Json, key: &str) -> Sizes {
    let app = spec::field(pins, "compile_apps").and_then(|apps| spec::field(apps, key));
    let num = |k: &str| {
        app.and_then(|a| spec::field(a, k))
            .and_then(spec::as_f64)
            .map_or(0, |n| n as u64)
    };
    Sizes {
        stages: num("stages"),
        p4_loc: num("p4_loc"),
        bytecode_words: num("bytecode_words"),
    }
}

impl Workload for CompileApps {
    fn prepare(seed: u64, _size: Size, _chk: &mut Checks) -> Self {
        // Ten apps are the whole input set; `--quick` has nothing to shrink.
        let pins = spec::expected();
        let mut apps: Vec<(AppInfo, Sizes)> = lucid_apps::all()
            .into_iter()
            .map(|app| {
                let sizes = pinned(&pins, app.key);
                (app, sizes)
            })
            .collect();
        Rng::new(seed).shuffle(&mut apps);
        CompileApps {
            apps,
            src_bytes: 0,
            totals: Sizes {
                stages: 0,
                p4_loc: 0,
                bytecode_words: 0,
            },
        }
    }

    fn rep(&mut self, tr: &mut Tracer, chk: &mut Checks) -> Rep {
        let compiler = Compiler::new();
        let mut totals = Sizes {
            stages: 0,
            p4_loc: 0,
            bytecode_words: 0,
        };
        let mut src_bytes = 0;
        for (app, want) in &self.apps {
            // Opening the session copies the source and indexes its lines:
            // front-end work, so it sits inside the front end's span.
            let parse = tr.enter("frontend.parse");
            let mut build = compiler.build(app.key, app.source);
            let parsed = build.ast().is_ok();
            tr.exit(parse);
            let checked = tr.leaf("check.typecheck", || build.checked().is_ok());
            let elaborated = tr.leaf("backend.handlers", || build.handlers().is_ok());
            let stages = tr.leaf("backend.layout", || {
                build.layout().map(|l| l.total_stages as u64)
            });
            let p4_loc = tr.leaf("backend.p4", || {
                build.p4().map(|p| (p.loc.total() as u64, p.source.len()))
            });
            let words = tr.leaf("bytecode.compile", || {
                let prog = build.checked().ok()?;
                let compiled = CompiledProg::compile_verified(prog, OptLevel::O2).ok()?;
                Some(compiled.handlers().map(|h| h.words().len() as u64).sum())
            });
            let got = match (stages, p4_loc, words) {
                (Ok(stages), Ok((p4_loc, p4_bytes)), Some(bytecode_words)) if p4_bytes > 0 => {
                    Some(Sizes {
                        stages,
                        p4_loc,
                        bytecode_words,
                    })
                }
                _ => None,
            };
            chk.check(
                parsed && checked && elaborated && got == Some(*want),
                || {
                    format!(
                        "{}: compiled to {got:?}, expected.json pins {want:?}\n{}",
                        app.key,
                        build.render_diagnostics()
                    )
                },
            );
            if let Some(got) = got {
                totals.stages += got.stages;
                totals.p4_loc += got.p4_loc;
                totals.bytecode_words += got.bytecode_words;
            }
            src_bytes += app.source.len() as u64;
            // Freeing six stages' artifacts is part of what a compile costs.
            tr.leaf("core.build_drop", || drop(build));
        }
        self.totals = totals;
        self.src_bytes = src_bytes;
        Rep {
            items: self.apps.len() as u64,
            ops_us: Vec::new(),
        }
    }

    fn layers(&mut self, acc: &TraceAccount, _untraced: &Untraced, out: &mut Layers) {
        set_compile_layers(acc, out);
        out.set("frontend.src_bytes", self.src_bytes as f64);
        out.set("backend.p4_loc", self.totals.p4_loc as f64);
        out.set("backend.stages", self.totals.stages as f64);
        out.set("bytecode.words", self.totals.bytecode_words as f64);
    }
}

/// The compiler-stage self times, for every workload that compiles.
pub fn set_compile_layers(acc: &TraceAccount, out: &mut Layers) {
    out.set_self("frontend.parse_us", acc, "frontend.parse", NS_PER_US);
    out.set_self("check.typecheck_us", acc, "check.typecheck", NS_PER_US);
    out.set_self("backend.handlers_us", acc, "backend.handlers", NS_PER_US);
    out.set_self("backend.layout_us", acc, "backend.layout", NS_PER_US);
    out.set_self("backend.p4_us", acc, "backend.p4", NS_PER_US);
    out.set_self("bytecode.compile_us", acc, "bytecode.compile", NS_PER_US);
}
