//! Table placement: the §6.2 optimizations.
//!
//! Input: each handler's atomic tables (with branch conditions already
//! inlined as guards). This module:
//!
//! 1. builds the **data-flow graph** among each handler's tables
//!    (read-after-write is a strict stage ordering; write-after-read and
//!    non-exclusive write-after-write order placement without forcing a
//!    new stage where the PISA PHV semantics permit it);
//! 2. runs the paper's **greedy placement**: walking tables topologically,
//!    each is placed in the earliest stage that satisfies its data-flow
//!    constraints, its register array's fixed stage, and the stage's
//!    resource budget ([`PipelineSpec`]); register arrays are pinned to the
//!    stage of their first placement — with an outer fixpoint that bumps an
//!    array's floor and retries when a later handler proves it was pinned
//!    too early;
//! 3. **merges** co-staged tables with compatible match keys into
//!    multi-action tables, which is what makes the per-stage table budget
//!    realistic (Figure 8).
//!
//! The module also computes the *unoptimized* stage count (atomic tables on
//! the longest control path, branch tables included — Figure 6(1)) so the
//! Figure 12 ratio can be reproduced, and per-stage ALU-op counts for
//! Figure 13.

use crate::ir::{AtomicTable, Cond, HandlerIr};
use lucid_check::{CheckedProgram, GlobalId};
use lucid_frontend::diag::{Diagnostic, Diagnostics};
use lucid_tofino::spec::PipelineSpec;
use std::collections::HashMap;

/// Knobs for ablating the optimizations (DESIGN.md §4).
#[derive(Debug, Clone, Copy)]
pub struct LayoutOptions {
    /// §6.2 "Rearranging tables": when false, every table additionally
    /// depends on its program-order predecessor, serializing the layout.
    pub rearrange: bool,
    /// Maximum distinct match-key variables a merged table may carry.
    pub merge_key_budget: usize,
    /// Extra stages consumed by the event scheduler's dispatcher in
    /// ingress (static code shared by all Lucid programs).
    pub dispatcher_stages: usize,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            rearrange: true,
            merge_key_budget: 4,
            dispatcher_stages: 1,
        }
    }
}

/// A placed table: which handler, which table id, which stage.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Index of the handler in the slice [`place`] was given.
    pub handler: usize,
    pub table: usize,
    pub stage: usize,
}

/// Per-stage occupancy after placement and merging.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Atomic tables placed here.
    pub tables: usize,
    /// Merged logical tables (what counts against the per-stage budget).
    pub merged_tables: usize,
    /// Stateful-ALU instructions.
    pub salus: usize,
    /// Plain action-ALU operations.
    pub action_ops: usize,
    /// Register arrays resident in this stage.
    pub arrays: Vec<GlobalId>,
}

impl StageStats {
    /// Total ALU instructions (stateful + action) — the Figure 13 metric.
    pub fn alu_ops(&self) -> usize {
        self.salus + self.action_ops
    }
}

/// The result of compiling a whole program onto the pipeline.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Stages used by handler logic (excludes `dispatcher_stages`).
    pub body_stages: usize,
    /// Total stages including the event scheduler's dispatcher.
    pub total_stages: usize,
    /// Longest unoptimized control path over all handlers, plus the
    /// dispatcher — the Figure 12 numerator.
    pub unoptimized_stages: usize,
    pub placements: Vec<Placement>,
    pub stage_stats: Vec<StageStats>,
    pub array_stage: HashMap<GlobalId, usize>,
}

impl Layout {
    /// Figure 12: unoptimized-to-optimized stage ratio.
    pub fn stage_ratio(&self) -> f64 {
        self.unoptimized_stages as f64 / self.total_stages as f64
    }

    /// Figure 13: mean ALU instructions per occupied stage.
    pub fn mean_alu_per_stage(&self) -> f64 {
        let occupied: Vec<&StageStats> = self.stage_stats.iter().filter(|s| s.tables > 0).collect();
        if occupied.is_empty() {
            return 0.0;
        }
        occupied.iter().map(|s| s.alu_ops()).sum::<usize>() as f64 / occupied.len() as f64
    }

    /// Figure 13 (upper envelope): max ALU instructions in any stage.
    pub fn max_alu_per_stage(&self) -> usize {
        self.stage_stats
            .iter()
            .map(StageStats::alu_ops)
            .max()
            .unwrap_or(0)
    }
}

/// Strictness of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// Consumer must be in a *later* stage (RAW, guard-def, non-excl WAW).
    Strict,
    /// Consumer may share the producer's stage but not precede it (WAR).
    Weak,
}

/// Compile the elaborated handlers onto a pipeline.
pub fn place(
    prog: &CheckedProgram,
    handlers: &[HandlerIr],
    spec: &PipelineSpec,
    opts: LayoutOptions,
) -> Result<Layout, Diagnostics> {
    // The data-flow graph depends only on the tables, so it is built once,
    // outside the floor fixpoint.
    let deps: Vec<_> = handlers
        .iter()
        .map(|h| handler_deps(&h.tables, opts.rearrange))
        .collect();
    let mut floors: HashMap<GlobalId, usize> = HashMap::new();
    // Outer fixpoint on array stage floors (see module docs).
    for _round in 0..4096 {
        match try_place(prog, handlers, &deps, spec, opts, &floors) {
            Ok(layout) => return Ok(layout),
            Err(PlaceError::BumpArray { array, to }) => {
                let f = floors.entry(array).or_insert(0);
                if to <= *f {
                    break; // no progress; fall through to hard error
                }
                *f = to;
            }
            Err(PlaceError::Hard(d)) => {
                let mut ds = Diagnostics::new();
                ds.push(d.or_code("E0700"));
                return Err(ds);
            }
        }
    }
    let mut ds = Diagnostics::new();
    ds.push(
        Diagnostic::error_global(
            "table placement cannot make progress: register-array stage constraints are \
             unsatisfiable within the pipeline"
                .to_string(),
        )
        .with_code("E0700"),
    );
    Err(ds)
}

enum PlaceError {
    /// Array was pinned too early; retry with its floor raised.
    BumpArray {
        array: GlobalId,
        to: usize,
    },
    Hard(Diagnostic),
}

/// `deps[h]` is [`handler_deps`] of `handlers[h]`.
fn try_place(
    _prog: &CheckedProgram,
    handlers: &[HandlerIr],
    deps: &[Vec<Vec<(usize, Edge)>>],
    spec: &PipelineSpec,
    opts: LayoutOptions,
    floors: &HashMap<GlobalId, usize>,
) -> Result<Layout, PlaceError> {
    let mut array_stage: HashMap<GlobalId, usize> = HashMap::new();
    let mut stages: Vec<StageBuild> = Vec::new();
    let mut placements = Vec::new();

    for (hi, (h, deps)) in handlers.iter().zip(deps).enumerate() {
        // Stage of each table in this handler, by table id.
        let mut stage_of: Vec<usize> = vec![0; h.tables.len()];
        for t in &h.tables {
            let mut min_stage = 0usize;
            for (j, edge) in &deps[t.id] {
                let req = match edge {
                    Edge::Strict => stage_of[*j] + 1,
                    Edge::Weak => stage_of[*j],
                };
                min_stage = min_stage.max(req);
            }
            let stage = if let Some(array) = t.op.array() {
                let floor = floors.get(&array).copied().unwrap_or(0);
                match array_stage.get(&array) {
                    Some(&s) => {
                        if s < min_stage {
                            // Pinned too early for this handler's data flow.
                            return Err(PlaceError::BumpArray {
                                array,
                                to: min_stage,
                            });
                        }
                        // Register access adds a sALU to the array's stage;
                        // capacity there is guaranteed by construction
                        // (one sALU per array per handler, exclusive paths).
                        s
                    }
                    None => {
                        let s = find_stage(
                            &mut stages,
                            spec,
                            opts,
                            min_stage.max(floor),
                            t,
                            Some(array),
                        )
                        .map_err(PlaceError::Hard)?;
                        array_stage.insert(array, s);
                        s
                    }
                }
            } else {
                find_stage(&mut stages, spec, opts, min_stage, t, None).map_err(PlaceError::Hard)?
            };
            commit(&mut stages, stage, t, opts);
            stage_of[t.id] = stage;
            placements.push(Placement {
                handler: hi,
                table: t.id,
                stage,
            });
        }
    }

    let body_stages = stages
        .iter()
        .rposition(|s| s.stats.tables > 0)
        .map_or(0, |i| i + 1);
    let total_stages = body_stages + opts.dispatcher_stages;
    if total_stages > spec.stages {
        return Err(PlaceError::Hard(Diagnostic::error_global(format!(
            "program needs {total_stages} stages but the pipeline has {}",
            spec.stages
        ))));
    }
    let unopt_body = handlers
        .iter()
        .map(|h| h.unoptimized_depth)
        .max()
        .unwrap_or(0);
    Ok(Layout {
        body_stages,
        total_stages,
        unoptimized_stages: unopt_body + opts.dispatcher_stages,
        placements,
        stage_stats: stages.into_iter().map(|s| s.stats).collect(),
        array_stage,
    })
}

/// Per-handler dependency edges: `deps[i]` lists `(j, edge)` with `j < i`.
fn handler_deps(tables: &[AtomicTable], rearrange: bool) -> Vec<Vec<(usize, Edge)>> {
    // Each table's operands, read once: the pair loop below only compares.
    let uses: Vec<Vec<&str>> = tables.iter().map(|t| t.op.uses()).collect();
    // Does table `k` read `var`, as an operand or as a guard key?
    let reads = |k: usize, var: &str| {
        uses[k].contains(&var) || tables[k].guard.iter().any(|c| c.var == var)
    };
    let mut deps: Vec<Vec<(usize, Edge)>> = vec![Vec::new(); tables.len()];
    for (i, t) in tables.iter().enumerate() {
        let def = t.op.def();
        for (j, p) in tables.iter().enumerate().take(i) {
            if t.excludes(p) {
                // Mutually exclusive tables never observe each other's
                // effects: no ordering needed, in either mode. (Ordering
                // across exclusive branches would create cyclic demands on
                // register stages that no pipeline can satisfy.)
                continue;
            }
            let p_def = p.op.def();
            let mut edge: Option<Edge> = None;
            if !rearrange {
                edge = Some(Edge::Strict);
            }
            if let Some(d) = p_def {
                // RAW on operand or guard key.
                if reads(i, d) {
                    edge = Some(Edge::Strict);
                }
            }
            if let (Some(d), Some(pd)) = (def, p_def) {
                if d == pd && !t.excludes(p) {
                    // Non-exclusive WAW: later write must land later.
                    edge = Some(Edge::Strict);
                }
            }
            if edge.is_none() {
                if let Some(d) = def {
                    // WAR: reader (earlier) may share the stage (it reads
                    // the incoming PHV) but must not come after the writer.
                    if reads(j, d) {
                        edge = Some(Edge::Weak);
                    }
                }
            }
            if let Some(e) = edge {
                deps[i].push((j, e));
            }
        }
    }
    deps
}

/// A stage being filled: resource stats plus merge groups.
#[derive(Debug, Clone, Default)]
struct StageBuild<'a> {
    stats: StageStats,
    /// Merged logical tables: the match-key variables each carries,
    /// borrowed from the guards of the tables placed in it.
    merge_groups: Vec<Vec<&'a str>>,
}

/// Find the earliest stage ≥ `min_stage` with room for `t`.
fn find_stage(
    stages: &mut Vec<StageBuild<'_>>,
    spec: &PipelineSpec,
    opts: LayoutOptions,
    min_stage: usize,
    t: &AtomicTable,
    array: Option<GlobalId>,
) -> Result<usize, Diagnostic> {
    for s in min_stage..spec.stages.saturating_sub(opts.dispatcher_stages) {
        while stages.len() <= s {
            stages.push(StageBuild::default());
        }
        let st = &stages[s];
        // A stateful ALU serves one register array; accesses from different
        // (mutually exclusive) tables to the same array share it. The
        // budget therefore counts *distinct arrays* per stage.
        let salu_ok = match array {
            Some(a) => st.stats.arrays.contains(&a) || st.stats.arrays.len() < spec.salus_per_stage,
            None => true,
        };
        let act_ok = st.stats.action_ops + t.op.action_slots() <= spec.action_slots_per_stage;
        let merge_ok = can_merge(st, t, spec, opts);
        if salu_ok && act_ok && merge_ok {
            return Ok(s);
        }
    }
    Err(Diagnostic::error_global(format!(
        "no stage can host table {} of handler `{}`: the pipeline's {} stages are exhausted",
        t.id, t.handler, spec.stages
    )))
}

/// Would `t` fit into an existing merge group of `st`, or is there room for
/// a new logical table?
fn can_merge(st: &StageBuild, t: &AtomicTable, spec: &PipelineSpec, opts: LayoutOptions) -> bool {
    st.merge_groups
        .iter()
        .any(|g| union_len(g, &t.guard) <= opts.merge_key_budget)
        || st.merge_groups.len() < spec.tables_per_stage
}

/// Keys in a group after adding a guard's: each guard key not already in
/// the group counts (a key the guard names twice counts twice).
fn union_len(group: &[&str], guard: &[Cond]) -> usize {
    group.len()
        + guard
            .iter()
            .filter(|c| !group.contains(&c.var.as_str()))
            .count()
}

/// Record `t` in `stage`, updating stats and merge groups.
fn commit<'a>(
    stages: &mut Vec<StageBuild<'a>>,
    stage: usize,
    t: &'a AtomicTable,
    opts: LayoutOptions,
) {
    while stages.len() <= stage {
        stages.push(StageBuild::default());
    }
    let st = &mut stages[stage];
    st.stats.tables += 1;
    st.stats.salus += t.op.salus();
    st.stats.action_ops += t.op.action_slots();
    if let Some(a) = t.op.array() {
        if !st.stats.arrays.contains(&a) {
            st.stats.arrays.push(a);
        }
    }
    // Greedy merge (Figure 8): join the first group whose key union fits.
    for g in &mut st.merge_groups {
        if union_len(g, &t.guard) <= opts.merge_key_budget {
            for c in &t.guard {
                if !g.contains(&c.var.as_str()) {
                    g.push(&c.var);
                }
            }
            st.stats.merged_tables = st.merge_groups.len();
            return;
        }
    }
    st.merge_groups
        .push(t.guard.iter().map(|c| c.var.as_str()).collect());
    st.stats.merged_tables = st.merge_groups.len();
}

/// Convenience: [`crate::lower`] with default options on the Tofino.
pub fn compile_layout(prog: &CheckedProgram) -> Result<(Vec<HandlerIr>, Layout), Diagnostics> {
    crate::lower(prog, &crate::BackendOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use lucid_check::parse_and_check;

    fn layout_of(src: &str) -> Layout {
        let prog = parse_and_check(src).expect("checks");
        let handlers = elaborate(&prog).expect("elaborates");
        place(
            &prog,
            &handlers,
            &PipelineSpec::tofino(),
            LayoutOptions::default(),
        )
        .expect("places")
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

    #[test]
    fn figure6_optimizations_save_stages() {
        let l = layout_of(FIG6);
        // Figure 6: 7-deep control graph optimizes to 3 stages of tables
        // (nexthops+conds | idx writes | pcts), with hcts rearranged into an
        // early stage. Dispatcher adds one.
        assert_eq!(l.unoptimized_stages, 7 + 1);
        assert!(
            l.total_stages <= 5,
            "optimized to {} stages",
            l.total_stages
        );
        assert!(l.stage_ratio() > 1.5, "ratio {}", l.stage_ratio());
    }

    #[test]
    fn figure6_hcts_runs_early() {
        // §6.2 "Rearranging tables": hcts_fset has no dataflow deps on
        // earlier tables (dst and proto come with the packet), so it should
        // not wait for the nexthops/pcts chain.
        let l = layout_of(FIG6);
        let prog = parse_and_check(FIG6).unwrap();
        let hcts = prog.info.globals_by_name["hcts"];
        let pcts = prog.info.globals_by_name["pcts"];
        assert!(
            l.array_stage[&hcts] < l.array_stage[&pcts],
            "hcts at {} should precede pcts at {}",
            l.array_stage[&hcts],
            l.array_stage[&pcts]
        );
    }

    #[test]
    fn rearrangement_ablation_costs_stages() {
        let prog = parse_and_check(FIG6).unwrap();
        let handlers = elaborate(&prog).unwrap();
        let with = place(
            &prog,
            &handlers,
            &PipelineSpec::tofino(),
            LayoutOptions::default(),
        )
        .unwrap();
        let without = place(
            &prog,
            &handlers,
            &PipelineSpec::tofino(),
            LayoutOptions {
                rearrange: false,
                ..LayoutOptions::default()
            },
        )
        .unwrap();
        assert!(
            without.total_stages > with.total_stages,
            "serialized {} vs rearranged {}",
            without.total_stages,
            with.total_stages
        );
    }

    #[test]
    fn arrays_keep_declaration_order_across_handlers() {
        let l = layout_of(
            r#"
            global a = new Array<<32>>(8);
            global b = new Array<<32>>(8);
            event one(int i);
            event two(int i);
            handle one(int i) {
                int x = Array.get(a, i);
                Array.set(b, i, x);
            }
            handle two(int i) {
                Array.set(b, i, i);
            }
            "#,
        );
        let a = l.array_stage.iter().find(|(g, _)| g.0 == 0).unwrap().1;
        let b = l.array_stage.iter().find(|(g, _)| g.0 == 1).unwrap().1;
        assert!(a < b, "a at {a}, b at {b}");
    }

    #[test]
    fn fixpoint_bumps_array_pinned_too_early() {
        // Handler `fast` would pin `shared` at stage 0; handler `slow`
        // reaches it only after a 2-op chain, forcing a retry that floats
        // `shared` later.
        let l = layout_of(
            r#"
            global shared = new Array<<32>>(8);
            event fast(int i);
            event slow(int i);
            handle fast(int i) { Array.set(shared, i, i); }
            handle slow(int i) {
                int x = i + 1;
                int y = x + 2;
                Array.set(shared, y, i);
            }
            "#,
        );
        let shared = l.array_stage.iter().next().unwrap().1;
        assert!(*shared >= 2, "shared pinned at {shared}");
    }

    #[test]
    fn independent_ops_share_a_stage() {
        let l = layout_of(
            r#"
            event go(int a, int b);
            event out(int x, int y);
            handle go(int a, int b) {
                int x = a + 1;
                int y = b + 2;
                generate out(x, y);
            }
            "#,
        );
        // x and y have no mutual deps: both in stage 0.
        assert!(l.stage_stats[0].action_ops >= 2, "{:?}", l.stage_stats[0]);
    }

    #[test]
    fn empty_handler_occupies_only_the_dispatcher() {
        // Zero tables → zero body stages; the stage-count folds must not
        // assume a nonempty placement.
        let l = layout_of("event noop(); handle noop() { }");
        assert_eq!(l.body_stages, 0);
        assert_eq!(l.total_stages, LayoutOptions::default().dispatcher_stages);
        assert_eq!(
            l.unoptimized_stages,
            LayoutOptions::default().dispatcher_stages
        );
        assert!(l.placements.is_empty());
        assert_eq!(l.max_alu_per_stage(), 0);
        assert_eq!(l.mean_alu_per_stage(), 0.0);
    }

    #[test]
    fn alu_parallelism_reported() {
        let l = layout_of(FIG6);
        assert!(l.mean_alu_per_stage() >= 1.0);
        assert!(l.max_alu_per_stage() >= 2);
    }

    #[test]
    fn oversized_program_rejected_with_stage_count() {
        // 14 chained additions cannot fit 12 stages.
        let mut body = String::new();
        body.push_str("int x0 = a + 1;\n");
        for i in 1..14 {
            body.push_str(&format!("int x{i} = x{} + 1;\n", i - 1));
        }
        let src = format!(
            "event go(int a); event out(int x); handle go(int a) {{ {body} generate out(x13); }}"
        );
        let prog = parse_and_check(&src).unwrap();
        let handlers = elaborate(&prog).unwrap();
        let err = place(
            &prog,
            &handlers,
            &PipelineSpec::tofino(),
            LayoutOptions::default(),
        )
        .unwrap_err();
        assert!(err.items[0].message.contains("stages"), "{}", err.items[0]);
    }
}
