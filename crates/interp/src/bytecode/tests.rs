//! Unit tests for the bytecode pipeline: differential equivalence with
//! the AST walker across the full engine × opt matrix, plus the
//! optimizer-pass properties (peephole idempotence, regalloc frame
//! bounds, fused-op disassembly stability). The peephole's own output,
//! which no level stops at, is reached by calling the pass directly.

use super::*;
use crate::machine::{Engine, Interp, InterpFault, NetConfig};
use lucid_check::parse_and_check;
use proptest::prelude::*;

const LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

/// The raw lowering with only the peephole pass applied: what
/// [`OptLevel::O2`] hands to register allocation.
fn peephole_only(prog: &CheckedProgram) -> CompiledProg {
    let mut cp = CompiledProg::compile_opt(prog, OptLevel::O0);
    for h in cp.handlers.iter_mut().flatten() {
        opt::peephole(h);
    }
    cp
}

fn checked(src: &str) -> CheckedProgram {
    match parse_and_check(src) {
        Ok(p) => p,
        Err(ds) => panic!("check failed:\n{ds}"),
    }
}

/// A program that exercises the whole ISA: functions (with array
/// params and early returns), short-circuit logic, width-mixing
/// literals, casts, hashes, memops, all five array ops, delay /
/// locate / mlocate, exported reports, and printf.
const KITCHEN_SINK: &str = r#"
    const int THRESH = 3;
    const group PEERS = {1, 2};
    global cnt = new Array<<32>>(32);
    global tag = new Array<<8>>(32);
    global log = new Array<<32>>(4);
    memop plus(int m, int x) { return m + x; }
    memop mget(int m, int x) { return m; }
    memop mset(int m, int x) { return x; }
    event pkt(int key, int ttl);
    event report(int val);
    fun int clamp(int v, int hi) {
        if (v > hi) { return hi; }
        return v;
    }
    fun int bump(Array<<32>> arr, int i, int by) {
        return Array.update(arr, i, mget, 0, plus, by);
    }
    handle pkt(int key, int ttl) {
        auto h = hash<<5>>(7, key, ttl);
        int i = (int<<32>>) h;
        int old = bump(cnt, i, 1);
        int<<8>> t = (int<<8>>) (old + 1);
        Array.setm(tag, i, mset, t);
        bool hot = old > THRESH && ttl > 0;
        if (hot || key == 0) {
            printf("hot key=%d old=%x hot=%d", key, old, hot);
            generate Event.delay(report(clamp(old, 9) + 200), 5);
        }
        int x = bump(log, key & 3, 7);
        if (ttl > 0) {
            generate pkt(key + 1, ttl - 1);
            generate Event.locate(pkt(key, ttl - 1), ((key + ttl) & 1) + 1);
            mgenerate Event.mlocate(report(x), PEERS);
        }
    }
"#;

/// A program shaped so that every fused superinstruction appears once the
/// peephole has run,
/// beside all five array ops on arrays smaller than their index domain
/// (accesses run in declaration order to satisfy the effect system).
const FUSION_SINK: &str = r#"
    global a = new Array<<32>>(3);
    global b = new Array<<32>>(3);
    global c = new Array<<32>>(3);
    global d = new Array<<32>>(3);
    global e = new Array<<32>>(3);
    memop plus(int m, int x) { return m + x; }
    event go(int i, int v);
    event out(int v);
    handle go(int i, int v) {
        auto h = hash<<2>>(1, v);
        int r = Array.get(a, h);
        Array.set(b, i, v);
        int g = Array.getm(c, i, plus, 1);
        Array.setm(d, i, plus, v);
        int u = Array.update(e, i, plus, 1, plus, 2);
        int y = v + 1;
        if (i < v) { generate out(r + g); }
        if (v > 3) { generate out(u + y); }
    }
"#;

/// Everything observable about a finished run.
type Snapshot = (
    Vec<Vec<Vec<u64>>>,
    crate::machine::Stats,
    Vec<crate::machine::Handled>,
    Vec<String>,
);

fn run_snapshot(
    prog: &CheckedProgram,
    engine: Engine,
    exec: ExecMode,
    opt: OptLevel,
    switches: u64,
    schedule: &[(u64, u64, &str, Vec<u64>)],
) -> Result<Snapshot, crate::machine::InterpError> {
    let mut cfg = NetConfig::mesh(switches);
    cfg.engine = engine;
    cfg.exec = exec;
    cfg.opt = opt;
    let mut sim = Interp::new(prog, cfg);
    for (sw, t, ev, args) in schedule {
        sim.schedule(*sw, *t, ev, args)?;
    }
    sim.run(200_000, u64::MAX)?;
    let arrays = (1..=switches)
        .map(|s| {
            prog.info
                .globals
                .iter()
                .map(|g| sim.array(s, &g.name).to_vec())
                .collect()
        })
        .collect();
    Ok((
        arrays,
        sim.stats.clone(),
        sim.trace.clone(),
        sim.output.clone(),
    ))
}

#[test]
fn kitchen_sink_bytecode_matches_walker_everywhere() {
    let prog = checked(KITCHEN_SINK);
    let mut schedule = Vec::new();
    for s in 1..=2u64 {
        for k in 0..6u64 {
            schedule.push((s, k * 300, "pkt", vec![s * 40 + k, 3]));
        }
    }
    let reference = run_snapshot(
        &prog,
        Engine::Sequential,
        ExecMode::Ast,
        OptLevel::O2,
        2,
        &schedule,
    )
    .unwrap();
    for (engine, elabel) in [
        (Engine::Sequential, "sequential"),
        (
            Engine::Sharded {
                workers: 2,
                epoch_ns: 0,
            },
            "sharded",
        ),
    ] {
        for opt in LEVELS {
            let got = run_snapshot(&prog, engine, ExecMode::Bytecode, opt, 2, &schedule).unwrap();
            let label = format!("{elabel}/bytecode/O{}", opt.label());
            assert_eq!(reference.0, got.0, "{label}: array state");
            assert_eq!(reference.1, got.1, "{label}: stats");
            assert_eq!(reference.2, got.2, "{label}: trace");
            assert_eq!(reference.3, got.3, "{label}: printf output");
        }
    }
    // The workload actually exercised the interesting paths.
    assert!(!reference.3.is_empty(), "printf must fire");
    assert!(reference.1.exported > 0, "reports must export");
    assert!(reference.1.sent_remote > 0, "locate/mlocate must send");
}

#[test]
fn out_of_bounds_is_bit_identical_including_prior_writes() {
    // The fault must hit at the same event, leave identical state
    // behind (writes before the faulting op included), print the same
    // lines and carry the same location under both executors — at
    // every opt level, since the array ops carry the fault themselves.
    // In the second program the faulting op's memop argument prints:
    // the walker faults before evaluating it, so the bytecode checks the
    // index ahead of it, and `arg 9` must never appear.
    let pure = r#"
        global a = new Array<<32>>(4);
        global b = new Array<<32>>(4);
        memop plus(int m, int x) { return m + x; }
        event go(int i);
        handle go(int i) {
            Array.setm(a, 0, plus, 1);
            Array.set(b, i, 7);
        }
    "#;
    let impure = r#"
        global a = new Array<<32>>(4);
        global b = new Array<<32>>(4);
        memop plus(int m, int x) { return m + x; }
        fun int note(int v) { printf("arg %d", v); return v; }
        event go(int i);
        handle go(int i) {
            Array.setm(a, 0, plus, 1);
            Array.setm(b, i, plus, note(i));
        }
    "#;
    for (src, checks, output) in [(pure, 0, vec![]), (impure, 1, vec!["arg 1".to_string()])] {
        let prog = checked(src);
        // Only an impure operand earns a separate `check` line.
        for level in LEVELS {
            let text = disassemble_opt(&prog, level);
            assert_eq!(text.matches(": check ").count(), checks, "{text}");
        }
        let mut results = Vec::new();
        let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
        combos.extend(LEVELS.map(|l| (ExecMode::Bytecode, l)));
        for (exec, opt) in combos {
            let mut cfg = NetConfig::single();
            cfg.exec = exec;
            cfg.opt = opt;
            let mut sim = Interp::new(&prog, cfg);
            sim.schedule(1, 0, "go", &[1]).unwrap();
            sim.schedule(1, 50, "go", &[9]).unwrap();
            let err = sim.run_to_quiescence().unwrap_err();
            results.push((
                err,
                sim.array(1, "a").to_vec(),
                sim.array(1, "b").to_vec(),
                sim.stats.clone(),
                sim.output.clone(),
            ));
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
        let (err, a, _, _, out) = &results[0];
        assert!(
            matches!(
                &err.kind,
                InterpFault::IndexOutOfBounds {
                    index: 9,
                    len: 4,
                    ..
                }
            ),
            "{err}"
        );
        let at = err.at.as_ref().expect("located");
        assert_eq!((at.time_ns, at.switch, at.event.as_str()), (50, 1, "go"));
        assert_eq!(a[0], 2, "the write before the fault must have landed");
        assert_eq!(out, &output);
    }
}

#[test]
fn width_mixing_literals_match_walker() {
    // Literals keep their syntactic width at runtime (32 unless
    // annotated); the walker's max-width rule must survive both
    // compilation and const-operand fusion exactly.
    let src = r#"
        global o0 = new Array<<32>>(1);
        global o1 = new Array<<32>>(1);
        global o2 = new Array<<32>>(1);
        global o3 = new Array<<32>>(1);
        event go(int<<8>> x);
        handle go(int<<8>> x) {
            auto wide = x + 250;
            int<<8>> narrow = x;
            narrow = narrow + 250;
            Array.set(o0, 0, (int<<32>>) wide);
            Array.set(o1, 0, (int<<32>>) narrow);
            if (x + 250 > 255) { Array.set(o2, 0, 1); }
            Array.set(o3, 0, (int<<32>>) ((int<<8>>) (x + 250)));
        }
    "#;
    let prog = checked(src);
    let mut outs = Vec::new();
    let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
    combos.extend(LEVELS.map(|l| (ExecMode::Bytecode, l)));
    for (exec, opt) in combos {
        let mut cfg = NetConfig::single();
        cfg.exec = exec;
        cfg.opt = opt;
        let mut sim = Interp::new(&prog, cfg);
        sim.schedule(1, 0, "go", &[10]).unwrap();
        sim.run_to_quiescence().unwrap();
        outs.push(
            (0..4)
                .map(|k| sim.array(1, &format!("o{k}"))[0])
                .collect::<Vec<u64>>(),
        );
    }
    for o in &outs[1..] {
        assert_eq!(&outs[0], o);
    }
    // Literals run at width 32 (the walker's `unwrap_or(32)` rule), so
    // `x + 250` is 260 even though the checker typed it int<<8>>; the
    // re-assignment to `narrow` masks back to 8 bits.
    assert_eq!(outs[0], vec![260, 4, 1, 4]);
}

#[test]
fn booleans_print_and_compute_like_the_walker() {
    let src = r#"
        global out = new Array<<32>>(2);
        event go(bool flag, int v);
        handle go(bool flag, int v) {
            bool both = flag && v > 2;
            printf("flag=%d both=%d v=%d", flag, both, v);
            if (!both) { Array.set(out, 0, 1); } else { Array.set(out, 1, 1); }
        }
    "#;
    let prog = checked(src);
    let mut outs = Vec::new();
    let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
    combos.extend(LEVELS.map(|l| (ExecMode::Bytecode, l)));
    for (exec, opt) in combos {
        let mut cfg = NetConfig::single();
        cfg.exec = exec;
        cfg.opt = opt;
        let mut sim = Interp::new(&prog, cfg);
        sim.schedule(1, 0, "go", &[1, 7]).unwrap();
        sim.schedule(1, 10, "go", &[0, 1]).unwrap();
        sim.run_to_quiescence().unwrap();
        outs.push((sim.output.clone(), sim.array(1, "out").to_vec()));
    }
    for o in &outs[1..] {
        assert_eq!(&outs[0], o);
    }
    assert_eq!(outs[0].0[0], "flag=true both=true v=7");
    assert_eq!(outs[0].0[1], "flag=false both=false v=1");
}

#[test]
fn disassembly_is_stable_and_complete() {
    let prog = checked(KITCHEN_SINK);
    for level in LEVELS {
        let text = disassemble_opt(&prog, level);
        assert_eq!(
            text,
            disassemble_opt(&prog, level),
            "disassembly must be deterministic at O{}",
            level.label()
        );
        for needle in [
            "handler `pkt`",
            "args: r0=key r1=ttl",
            "halt",
            "generate o",
            "; array g0 `cnt`: 32 x 32-bit",
            "; group G0 `PEERS`: {1, 2}",
            "printf",
            "hash<<5>>",
            &format!("; opt level {}", level.label()),
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Handler-less events compile to no code block.
        assert!(!text.contains("handler `report`"), "{text}");
        // Every operand after an index here is pure, so each array op's
        // own check is the only one.
        assert!(!text.contains("check "), "{text}");
    }
}

#[test]
fn fused_ops_render_and_run_identically() {
    let prog = checked(FUSION_SINK);
    // Every superinstruction appears in the peephole's listing...
    let text = peephole_only(&prog).disasm();
    for needle in [
        "junless r0 < r1", // JCmp from `i < v`
        "junless r1 > 3",  // JCmpImm from `v > 3` (via CmpImm)
        " + 1 <<32>>",     // BinImm from `v + 1`
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // ...and none survive in the raw lowering.
    let raw = disassemble_opt(&prog, OptLevel::O0);
    for absent in ["junless", "jif"] {
        assert!(!raw.contains(absent), "unexpected {absent:?} in:\n{raw}");
    }
    // In-bounds and out-of-bounds runs agree with the walker.
    for idx in [0u64, 1, 2, 5] {
        let schedule = vec![(1u64, 0u64, "go", vec![idx, 7])];
        let reference = run_snapshot(
            &prog,
            Engine::Sequential,
            ExecMode::Ast,
            OptLevel::O2,
            1,
            &schedule,
        );
        for opt in LEVELS {
            let got = run_snapshot(
                &prog,
                Engine::Sequential,
                ExecMode::Bytecode,
                opt,
                1,
                &schedule,
            );
            assert_eq!(reference, got, "idx={idx} O{}", opt.label());
        }
    }
}

#[test]
fn peephole_is_idempotent() {
    // Running the peephole pass a second time must change nothing: the
    // pass iterates to an internal fixpoint.
    for src in [KITCHEN_SINK, FUSION_SINK] {
        let prog = checked(src);
        let cp = peephole_only(&prog);
        for h in cp.handlers.iter().flatten() {
            let mut again = h.clone();
            opt::peephole(&mut again);
            assert_eq!(h.code, again.code, "{}: peephole not idempotent", h.name);
        }
    }
}

#[test]
fn regalloc_never_grows_the_frame_and_shrinks_these() {
    for src in [KITCHEN_SINK, FUSION_SINK] {
        let prog = checked(src);
        let fused = peephole_only(&prog);
        let o2 = CompiledProg::compile_opt(&prog, OptLevel::O2);
        for (h1, h2) in fused.handlers().zip(o2.handlers()) {
            assert!(
                h2.nregs <= h1.nregs,
                "{}: regalloc grew the frame {} -> {}",
                h1.name,
                h1.nregs,
                h2.nregs
            );
            assert!(
                h2.code.len() <= h1.code.len(),
                "{}: regalloc grew the code",
                h1.name
            );
        }
    }
    // The kitchen sink has coalescable moves; the pass must actually
    // deliver on at least one handler, not just hold the bound.
    let prog = checked(KITCHEN_SINK);
    let fused = peephole_only(&prog);
    let o2 = CompiledProg::compile_opt(&prog, OptLevel::O2);
    let shrunk = fused
        .handlers()
        .zip(o2.handlers())
        .any(|(a, b)| b.nregs < a.nregs || b.code.len() < a.code.len());
    assert!(shrunk, "regalloc had no effect on the kitchen sink");
}

#[test]
fn optimization_strictly_shortens_the_kitchen_sink() {
    let prog = checked(KITCHEN_SINK);
    let count = |cp: CompiledProg| cp.handlers().map(|h| h.code.len()).sum::<usize>();
    let o0 = count(CompiledProg::compile_opt(&prog, OptLevel::O0));
    let fused = count(peephole_only(&prog));
    let o2 = count(CompiledProg::compile_opt(&prog, OptLevel::O2));
    assert!(fused < o0, "peephole did nothing: {o0} -> {fused}");
    assert!(o2 <= fused, "regalloc grew the code: {fused} -> {o2}");
}

#[test]
fn array_get_masks_over_width_cells_like_the_walker() {
    // `Array.setm` stores memop results unmasked, so a cell can hold
    // an over-width value; the walker masks on *read* and the
    // bytecode executor must too.
    let src = r#"
        global tag = new Array<<8>>(4);
        global out = new Array<<32>>(1);
        memop mset(int m, int x) { return x; }
        event wr(int<<8>> x);
        handle wr(int<<8>> x) { Array.setm(tag, 0, mset, x + 250); }
        event rd();
        handle rd() { Array.set(out, 0, (int<<32>>) Array.get(tag, 0)); }
    "#;
    let prog = checked(src);
    let mut outs = Vec::new();
    let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
    combos.extend(LEVELS.map(|l| (ExecMode::Bytecode, l)));
    for (exec, opt) in combos {
        let mut cfg = NetConfig::single();
        cfg.exec = exec;
        cfg.opt = opt;
        let mut sim = Interp::new(&prog, cfg);
        sim.schedule(1, 0, "wr", &[10]).unwrap();
        sim.schedule(1, 100, "rd", &[]).unwrap();
        sim.run_to_quiescence().unwrap();
        outs.push((sim.array(1, "tag").to_vec(), sim.array(1, "out").to_vec()));
    }
    for o in &outs[1..] {
        assert_eq!(&outs[0], o);
    }
    // 10 + 250 runs at width 32 (literal rule) -> the memop stores
    // 260 raw; the read masks it back to 8 bits.
    assert_eq!(outs[0].0[0], 260, "the cell itself holds the raw value");
    assert_eq!(outs[0].1[0], 4, "reads mask to the cell width");
}

#[test]
fn nested_calls_resolve_arrays_lexically() {
    // Array-position names resolve lexically, as in the checker and the
    // P4 backend: inside `inner`, called from `outer(b, ..)`, the bare
    // name `a` means the global `a` — `inner` cannot see the parameter
    // of the activation that called it.
    let src = r#"
        global a = new Array<<32>>(4);
        global b = new Array<<32>>(4);
        global c = new Array<<32>>(4);
        fun int inner(int i) { return Array.get(a, i); }
        fun int outer(Array<<32>> a, int i) { return inner(i); }
        event go(int i);
        handle go(int i) {
            int v = outer(b, i);
            Array.set(c, 0, v);
        }
    "#;
    let prog = checked(src);
    let mut outs = Vec::new();
    let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
    combos.extend(LEVELS.map(|l| (ExecMode::Bytecode, l)));
    for (exec, opt) in combos {
        let mut cfg = NetConfig::single();
        cfg.exec = exec;
        cfg.opt = opt;
        let mut sim = Interp::new(&prog, cfg);
        sim.poke(1, "a", 1, 111);
        sim.poke(1, "b", 1, 222);
        sim.schedule(1, 0, "go", &[1]).unwrap();
        sim.run_to_quiescence().unwrap();
        outs.push(sim.array(1, "c")[0]);
    }
    for o in &outs[1..] {
        assert_eq!(&outs[0], o);
    }
    assert_eq!(outs[0], 111, "`a` inside inner must mean the global");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random schedules, topology sizes, and worker counts over the
    /// kitchen-sink program: every engine x opt combination must agree
    /// with the sequential AST walker on state, stats, trace, and
    /// printf output.
    #[test]
    fn differential_random_schedules(
        switches in 1u64..=4,
        // Lone worker (the barrier-free path), odd/even pools, a prime
        // misaligning the round-robin partition, and an oversized pool.
        wsel in 0usize..6,
        raw in proptest::collection::vec((1u64..=4, 0u64..=5_000, 0u64..=255, 0u64..=4), 1..24)
    ) {
        let workers = [1usize, 2, 3, 4, 7, 8][wsel];
        let prog = checked(KITCHEN_SINK);
        let schedule: Vec<(u64, u64, &str, Vec<u64>)> = raw
            .iter()
            .map(|(sw, t, key, ttl)| {
                ((sw - 1) % switches + 1, *t, "pkt", vec![*key, *ttl])
            })
            .collect();
        let reference =
            run_snapshot(&prog, Engine::Sequential, ExecMode::Ast, OptLevel::O2, switches, &schedule)
                .expect("bounded workload quiesces");
        for engine in [Engine::Sequential, Engine::Sharded { workers, epoch_ns: 0 }] {
            for opt in LEVELS {
                let got = run_snapshot(&prog, engine, ExecMode::Bytecode, opt, switches, &schedule)
                    .expect("deterministic workload");
                prop_assert_eq!(&reference.0, &got.0);
                prop_assert_eq!(&reference.1, &got.1);
                prop_assert_eq!(&reference.2, &got.2);
                prop_assert_eq!(&reference.3, &got.3);
            }
        }
    }

    /// Random *unvalidated* indices: runs that fault must fault
    /// identically (same kind, same location) under both executors at
    /// every opt level, and runs that succeed must match.
    #[test]
    fn differential_faulting_runs(
        idx in proptest::collection::vec(0u64..=6, 1..8)
    ) {
        let src = r#"
            global a = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            event go(int i);
            handle go(int i) { Array.setm(a, i, plus, 1); }
        "#;
        let prog = checked(src);
        let schedule: Vec<(u64, u64, &str, Vec<u64>)> = idx
            .iter()
            .enumerate()
            .map(|(k, i)| (1u64, k as u64 * 100, "go", vec![*i]))
            .collect();
        let ast = run_snapshot(&prog, Engine::Sequential, ExecMode::Ast, OptLevel::O2, 1, &schedule);
        for opt in LEVELS {
            let bc = run_snapshot(&prog, Engine::Sequential, ExecMode::Bytecode, opt, 1, &schedule);
            prop_assert_eq!(&ast, &bc);
        }
    }
}

// ------------------------------------------------------------- verifier

/// The verifier must bless the compiler's own output at every level —
/// `compile_verified` is the always-on CI spelling of that contract.
#[test]
fn verifier_accepts_the_compilers_own_output() {
    for src in [KITCHEN_SINK, FUSION_SINK] {
        let prog = checked(src);
        for level in LEVELS {
            if let Err(vs) = CompiledProg::compile_verified(&prog, level) {
                panic!("verifier rejected clean O{} output: {vs:?}", level.label());
            }
        }
    }
}

/// Re-verify a mutated program and demand one specific V-code among the
/// violations (a mutation may trip several obligations at once).
fn expect_violation(cp: &CompiledProg, code: &str) {
    let vs = cp.verify();
    assert!(
        vs.iter().any(|v| v.code == code),
        "expected a {code} violation, got: {vs:?}"
    );
    assert!(
        vs.iter().all(|v| v.pass == "final"),
        "re-verification must blame the `final` pass: {vs:?}"
    );
}

fn mutated<F: FnOnce(&mut HandlerCode)>(prog: &CheckedProgram, f: F) -> CompiledProg {
    let mut cp = CompiledProg::compile_opt(prog, OptLevel::O0);
    let h = cp
        .handlers
        .iter_mut()
        .flatten()
        .next()
        .expect("a compiled handler");
    f(h);
    cp
}

/// The pc of the first instruction matching `f`.
fn find(h: &HandlerCode, what: &str, f: impl Fn(&Instr) -> bool) -> usize {
    h.code
        .iter()
        .position(f)
        .unwrap_or_else(|| panic!("no {what} in the handler"))
}

/// Mutation smoke test: each mutation below is one *miscompile class* —
/// a bug an optimizer pass could plausibly introduce — and the verifier
/// must reject it with the V-code documenting the broken invariant.
#[test]
fn verifier_rejects_classic_miscompiles() {
    let prog = checked(KITCHEN_SINK);

    // Class 1: a branch retargeted backwards. The source language has no
    // loops, so any backward edge is a miscompile (and would break the
    // verifier's single-forward-pass completeness argument).
    let cp = mutated(&prog, |h| {
        let pc = find(h, "conditional branch", |i| {
            matches!(i, Instr::Jz { .. } | Instr::Jnz { .. })
        });
        if let Instr::Jz { to, .. } | Instr::Jnz { to, .. } = &mut h.code[pc] {
            *to = 0;
        }
    });
    expect_violation(&cp, verify::codes::BAD_JUMP);

    // Class 2: a constant wider than its declared width — the register
    // file would carry an unmaskable value and every downstream masking
    // decision goes wrong.
    let cp = mutated(&prog, |h| {
        let pc = find(h, "constant load", |i| matches!(i, Instr::Const { .. }));
        if let Instr::Const { imm, w, .. } = &mut h.code[pc] {
            *imm = 0xff;
            *w = 1;
        }
    });
    expect_violation(&cp, verify::codes::BAD_WIDTH);

    // Class 3: a destination outside the register frame — the regalloc
    // bug class (a rename map entry pointing past the compacted frame).
    let cp = mutated(&prog, |h| {
        let dst = h.nregs as u16;
        h.code[0] = Instr::Const { dst, imm: 0, w: 32 };
    });
    expect_violation(&cp, verify::codes::REG_OUT_OF_FRAME);

    // Class 4: a read of a register no path has written — the
    // use-before-def class (e.g. a pass sinking a def below its use).
    let cp = mutated(&prog, |h| {
        assert!(h.nregs > 2, "kitchen sink frame is large");
        let src = h.nregs as u16 - 1;
        h.code[0] = Instr::Mov { dst: 0, src };
    });
    expect_violation(&cp, verify::codes::UNINIT_REG);

    // Class 5: a truncated handler — fell off the end without `halt`.
    let cp = mutated(&prog, |h| {
        assert!(matches!(h.code.pop(), Some(Instr::Halt)));
    });
    expect_violation(&cp, verify::codes::NO_HALT);

    // Class 6: an object operand past the object frame — regalloc's
    // bug class for the event/group slots.
    let cp = mutated(&prog, |h| {
        let nobjs = h.nobjs as u16;
        let pc = find(h, "generate", |i| matches!(i, Instr::Generate { .. }));
        h.code[pc] = Instr::Generate { obj: nobjs };
    });
    expect_violation(&cp, verify::codes::OBJ_OUT_OF_FRAME);

    // Class 7: a slot used after `generate` consumed it — a duplicated
    // emit, or a pass reordering a use below the consuming `generate`.
    let cp = mutated(&prog, |h| {
        let pc = find(h, "generate", |i| matches!(i, Instr::Generate { .. }));
        let again = h.code[pc].clone();
        h.code.insert(pc + 1, again);
        // Keep every jump on the instruction it targeted.
        for i in &mut h.code {
            if let Instr::Jmp { to } | Instr::Jz { to, .. } | Instr::Jnz { to, .. } = i {
                if *to as usize > pc {
                    *to += 1;
                }
            }
        }
    });
    expect_violation(&cp, verify::codes::UNINIT_OBJ);

    // Class 8: a pool index past its pool — an array id the program
    // never declared.
    let cp = mutated(&prog, |h| {
        let pc = find(h, "array op", |i| matches!(i, Instr::ArrSetm { .. }));
        if let Instr::ArrSetm { gid, .. } = &mut h.code[pc] {
            *gid = 99;
        }
    });
    expect_violation(&cp, verify::codes::BAD_POOL_INDEX);

    // Class 9: an event built with fewer arguments than its signature
    // declares — the executor would schedule a short argument list.
    let cp = mutated(&prog, |h| {
        let pc = find(
            h,
            "event construction",
            |i| matches!(i, Instr::MkEvent { args, .. } if !args.is_empty()),
        );
        if let Instr::MkEvent { args, .. } = &mut h.code[pc] {
            *args = args[1..].into();
        }
    });
    expect_violation(&cp, verify::codes::BAD_ARITY);
}
