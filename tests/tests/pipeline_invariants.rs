//! Cross-crate invariants of the compiler backend, checked on every
//! bundled application: placement respects the hardware model, generated
//! P4 is structurally complete, and the evaluation metrics are internally
//! consistent.

use lucid_backend::ir::{MemKind, Operand};
use lucid_core::{Artifacts, Compiler, LayoutOptions, PipelineSpec};
use std::collections::HashMap;

/// Compile one bundled app through a build session.
fn build_app(app: &lucid_apps::AppInfo) -> Artifacts {
    let mut build = Compiler::new().build(app.key, app.source);
    build
        .artifacts()
        .unwrap_or_else(|_| panic!("{} compiles:\n{}", app.key, build.render_diagnostics()))
}

#[test]
fn every_array_lives_in_exactly_one_stage() {
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let c = art.compiled;
        // Each array appears in the stage map once, and in stage_stats in
        // exactly that stage.
        for (gid, stage) in &c.layout.array_stage {
            let hosting: Vec<usize> = c
                .layout
                .stage_stats
                .iter()
                .enumerate()
                .filter(|(_, st)| st.arrays.contains(gid))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hosting, vec![*stage], "{}: array {gid:?}", app.key);
        }
    }
}

#[test]
fn placement_respects_data_dependencies() {
    // Re-derive read-after-write constraints from the IR and confirm the
    // committed placement honors them (writer strictly before reader on
    // non-exclusive paths).
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let c = art.compiled;
        let stage_of: HashMap<(String, usize), usize> = c
            .layout
            .placements
            .iter()
            .map(|p| ((c.handlers[p.handler].name.clone(), p.table), p.stage))
            .collect();
        for h in &c.handlers {
            for t in &h.tables {
                let t_stage = stage_of[&(h.name.clone(), t.id)];
                let uses: Vec<&str> = t.op.uses();
                let guard_vars: Vec<&str> = t.guard.iter().map(|c| c.var.as_str()).collect();
                for p in &h.tables {
                    if p.id >= t.id || t.excludes(p) {
                        continue;
                    }
                    if let Some(def) = p.op.def() {
                        if uses.contains(&def) || guard_vars.contains(&def) {
                            let p_stage = stage_of[&(h.name.clone(), p.id)];
                            assert!(
                                p_stage < t_stage,
                                "{}: {} t{} (s{p_stage}) must precede t{} (s{t_stage}) — RAW on {def}",
                                app.key,
                                h.name,
                                p.id,
                                t.id
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stage_resources_stay_within_the_spec() {
    let spec = PipelineSpec::tofino();
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let c = art.compiled;
        for (i, st) in c.layout.stage_stats.iter().enumerate() {
            assert!(
                st.arrays.len() <= spec.salus_per_stage,
                "{} stage {i}: {} arrays > {} sALUs",
                app.key,
                st.arrays.len(),
                spec.salus_per_stage
            );
            assert!(
                st.action_ops <= spec.action_slots_per_stage,
                "{} stage {i}: {} action ops",
                app.key,
                st.action_ops
            );
            assert!(
                st.merged_tables <= spec.tables_per_stage,
                "{} stage {i}: {} merged tables",
                app.key,
                st.merged_tables
            );
        }
    }
}

#[test]
fn generated_p4_is_structurally_complete() {
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let (prog, c) = (art.checked, art.compiled);
        let p4 = &c.p4.source;
        // One header + one parser state per event.
        for ev in &prog.info.events {
            assert!(
                p4.contains(&format!("header ev_{}_t", ev.name)),
                "{}: {}",
                app.key,
                ev.name
            );
            assert!(
                p4.contains(&format!("parse_ev_{}", ev.name)),
                "{}: {}",
                app.key,
                ev.name
            );
        }
        // One register per global.
        for g in &prog.info.globals {
            assert!(
                p4.contains(&format!("reg_{}", g.name)),
                "{}: {}",
                app.key,
                g.name
            );
        }
        // Scheduler skeleton present.
        assert!(p4.contains("lucid_dispatch"), "{}", app.key);
        assert!(p4.contains("control LucidEgress"), "{}", app.key);
        // Every memory table got a RegisterAction.
        let mem_tables: usize = c
            .handlers
            .iter()
            .flat_map(|h| &h.tables)
            .filter(|t| t.op.salus() > 0)
            .count();
        let reg_actions = p4.matches("RegisterAction<").count();
        assert_eq!(reg_actions, mem_tables, "{}", app.key);
    }
}

#[test]
fn loc_classification_is_complete_and_disjoint() {
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let c = art.compiled;
        let nonblank = c.p4.source.lines().filter(|l| !l.trim().is_empty()).count();
        assert_eq!(c.p4.loc.total(), nonblank, "{}", app.key);
    }
}

#[test]
fn merge_key_budget_trades_tables_for_stages() {
    // DESIGN.md §4 ablation: a tighter merge budget means more logical
    // tables per stage are needed, which can only lengthen the pipeline.
    // One session, retargeted: the front end runs once for both layouts.
    let app = lucid_apps::by_key("dns").unwrap();
    let tall = PipelineSpec {
        stages: 256,
        ..PipelineSpec::tofino()
    };
    let mut build = Compiler::new()
        .target(tall.clone())
        .layout(LayoutOptions {
            merge_key_budget: 1,
            ..LayoutOptions::default()
        })
        .build(app.key, app.source);
    let tight = build.layout().unwrap().total_stages;
    build.reconfigure(&Compiler::new().target(tall).layout(LayoutOptions {
        merge_key_budget: 8,
        ..LayoutOptions::default()
    }));
    let loose = build.layout().unwrap().total_stages;
    assert!(tight >= loose, "tight {tight} vs loose {loose}");
    assert_eq!(
        build.stats().check_runs,
        1,
        "front end ran once for both targets"
    );
}

#[test]
fn dispatcher_overhead_is_exactly_configured() {
    let app = lucid_apps::by_key("cm").unwrap();
    let mut build = Compiler::new()
        .layout(LayoutOptions {
            dispatcher_stages: 0,
            ..LayoutOptions::default()
        })
        .build(app.key, app.source);
    let with0 = build.layout().unwrap().total_stages;
    build.reconfigure(&Compiler::new().layout(LayoutOptions {
        dispatcher_stages: 2,
        ..LayoutOptions::default()
    }));
    let with2 = build.layout().unwrap().total_stages;
    assert_eq!(with2, with0 + 2);
}

#[test]
fn unoptimized_depth_counts_branch_tables() {
    // The Figure 6 handler shape: 7 tables on the longest unoptimized path.
    let src = r#"
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
                if (proto == UDP) { idx = idx + 64; }
                else { idx = idx + 128; }
            }
            Array.setm(pcts, idx, plus, 1);
            if (proto == TCP) {
                Array.setm(hcts, dst, plus, 1);
            }
        }
    "#;
    let mut build = Compiler::new().build("fig6.lucid", src);
    assert_eq!(build.handlers().unwrap()[0].unoptimized_depth, 7);
    let stages = build.layout().unwrap().total_stages;
    assert!(stages <= 5, "optimized to {stages}");
}

#[test]
fn stage_counts_are_in_the_papers_range() {
    // Figure 9 reports 5–12 stages across the suite; our model should land
    // every app in 4–12 (SRO is naturally small).
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let c = art.compiled;
        assert!(
            (4..=12).contains(&c.layout.total_stages),
            "{}: {} stages",
            app.key,
            c.layout.total_stages
        );
    }
}

#[test]
fn lucid_shorter_than_generated_register_actions_plus_tables() {
    // Figure 10's observation, adapted to generated P4: Lucid programs are
    // around 10x shorter than P4 overall.
    let mut total_lucid = 0usize;
    let mut total_p4 = 0usize;
    for app in lucid_apps::all() {
        let art = build_app(&app);
        let c = art.compiled;
        total_lucid += app.lucid_loc();
        total_p4 += c.p4.loc.total();
    }
    let ratio = total_p4 as f64 / total_lucid as f64;
    assert!(ratio > 5.0, "aggregate P4/Lucid ratio {ratio:.1} too small");
}

#[test]
fn folded_immediates_store_what_the_interpreter_stores() {
    // Each global is written once with a value the backend folds to an
    // immediate. The immediate must be what the interpreter stores and
    // fit the array's cells (the constant folder and the executors share
    // one operator table and the checker's literal widths).
    let src = r#"
        const int K = (0 - 1) / 2;
        const int S = (1 << 40) >> 20;
        global k = new Array<<32>>(1);
        global s = new Array<<32>>(1);
        global q = new Array<<8>>(1);
        global m = new Array<<64>>(1);
        event go();
        handle go() {
            Array.set(k, 0, K);
            Array.set(s, 0, S);
            int<<8>> n = (0 - 1) / 2;
            Array.set(q, 0, n);
            int<<64>> wide = 1099511627775;
            Array.set(m, 0, wide & 0xFFFFFFFFFF);
        }
    "#;
    let mut build = Compiler::new().build("probe", src);
    let art = build
        .artifacts()
        .unwrap_or_else(|_| panic!("probe compiles:\n{}", build.render_diagnostics()));
    let mut sim = lucid_interp::Interp::new(&art.checked, lucid_interp::NetConfig::single());
    sim.schedule(1, 0, "go", &[]).unwrap();
    sim.run_to_quiescence().unwrap();
    let mut stored = Vec::new();
    for t in art.compiled.handlers.iter().flat_map(|h| &h.tables) {
        let lucid_backend::ir::AtomicOp::Mem {
            array,
            index: Operand::Const(i),
            kind: MemKind::Set {
                value: Operand::Const(v),
            },
            ..
        } = &t.op
        else {
            continue;
        };
        let g = &art.checked.info.globals[array.0];
        let ran = sim.array(1, &g.name)[*i as usize];
        assert_eq!(*v, ran, "`{}`: folded immediate vs interpreter", g.name);
        assert_eq!(
            *v,
            lucid_check::mask(*v, g.cell_width),
            "`{}` cell width",
            g.name
        );
        assert!(
            art.compiled.p4.source.contains(&format!("mem = {v};")),
            "`{}`: P4 stores {v}",
            g.name
        );
        stored.push((g.name.as_str(), *v));
    }
    stored.sort_unstable();
    assert_eq!(
        stored,
        [("k", 2147483647), ("q", 127), ("s", 0)],
        "the three constant stores fold"
    );
}
