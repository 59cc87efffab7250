//! Unit tests for the bytecode pipeline's optimizer and verifier:
//! peephole idempotence, regalloc frame bounds, disassembly stability,
//! and the verifier against its own output and classic miscompiles.
//! The peephole's own output, which no level stops at, is reached by
//! calling the pass directly. Executor agreement with the AST walker is
//! `tests/tests/differential.rs`'s, on the same two programs.

use super::*;
use lucid_check::parse_and_check;

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

/// Exercises the whole ISA (see the file's header).
const KITCHEN_SINK: &str = include_str!("../../../../tests/programs/kitchen_sink.lucid");

/// Every fused superinstruction after the peephole (see the file's
/// header).
const FUSION_SINK: &str = include_str!("../../../../tests/programs/fusion_sink.lucid");

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
fn fused_ops_render_only_after_the_peephole() {
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

    // Class 2, continued: registers hold bare values, so every width an
    // operator carries must be a real one, and a `BinImm`'s immediate
    // must fit it — unless it is a shift count, which may be any size.
    let replace_const = |make: &dyn Fn(u16) -> Instr| {
        mutated(&prog, |h| {
            let pc = find(h, "constant load", |i| matches!(i, Instr::Const { .. }));
            if let Instr::Const { dst, .. } = h.code[pc] {
                h.code[pc] = make(dst);
            }
        })
    };
    for w in [0, 65] {
        let ops: [&dyn Fn(u16) -> Instr; 4] = [
            &|dst| Instr::Bin {
                op: BinOp::Add,
                dst,
                a: 0,
                b: 0,
                w,
            },
            &|dst| Instr::BinImm {
                op: BinOp::Add,
                dst,
                a: 0,
                imm: 0,
                w,
            },
            &|dst| Instr::Neg { dst, src: 0, w },
            &|dst| Instr::BitNot { dst, src: 0, w },
        ];
        for make in ops {
            expect_violation(&replace_const(make), verify::codes::BAD_WIDTH);
        }
    }
    let binimm = |op, imm| {
        replace_const(&move |dst| Instr::BinImm {
            op,
            dst,
            a: 0,
            imm,
            w: 8,
        })
    };
    expect_violation(&binimm(BinOp::Add, 0x1ff), verify::codes::BAD_WIDTH);
    for op in [BinOp::Shl, BinOp::Shr] {
        assert_eq!(
            binimm(op, 40).verify(),
            vec![],
            "a shift count may pass the width"
        );
    }

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
