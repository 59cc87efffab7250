//! The bytecode optimizer behind [`OptLevel::O2`]: a
//! peephole/superinstruction pass followed by linear-scan register
//! allocation. [`OptLevel::O0`] runs neither.
//!
//! Everything here leans on one structural property of lowered
//! handlers: **jumps are forward-only** (Lucid has no loops). That
//! makes a single reverse pass a complete liveness fixpoint, makes
//! whole-span linear-scan register intervals sound (no dynamic path can
//! revisit an earlier pc), and bounds every rewrite loop.
//!
//! The peephole pass fuses adjacent pairs into single
//! superinstructions, iterated to a fixpoint (which is what makes the
//! pass idempotent — a property the tests assert): `Const`+`Bin`/`Cmp`
//! (const-operand arithmetic), and `Cmp`/`CmpImm`/`BoolOf`/`Not`
//! followed by a conditional jump (compare-and-branch). Pairs fuse only
//! when the intermediate register is dead afterwards and the second
//! instruction is not a jump target. Bounds checks are not its
//! business: every array op checks its own index at run time.
//!
//! Register allocation then repacks the frame: whole-span intervals per
//! register, smallest-free-first assignment, and `Mov` coalescing when
//! the source dies exactly where the destination is born. The new frame
//! is never larger than the old one (also asserted by tests).

use super::{HandlerCode, Instr};
use lucid_frontend::ast::BinOp;

/// The peephole/superinstruction pass, iterated to a fixpoint. One
/// fusion can expose another (a `Const` folded into its `Cmp` makes a
/// `CmpImm` adjacent to its branch), and every round strictly deletes
/// instructions, so the loop terminates. Running the pass again on its
/// own output changes nothing (idempotence, asserted by tests).
pub(super) fn peephole(h: &mut HandlerCode) {
    while fuse(&mut h.code, h.nregs) {}
}

// -------------------------------------------------------------- analysis

/// The register an instruction writes, if any.
pub(super) fn def(i: &Instr) -> Option<u16> {
    match i {
        Instr::Const { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::StoreMasked { dst, .. }
        | Instr::BoolOf { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::BitNot { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::BinImm { dst, .. }
        | Instr::Cmp { dst, .. }
        | Instr::CmpImm { dst, .. }
        | Instr::MaskW { dst, .. }
        | Instr::Hash { dst, .. }
        | Instr::ArrGet { dst, .. }
        | Instr::ArrGetm { dst, .. }
        | Instr::ArrUpdate { dst, .. }
        | Instr::LoadSelf { dst }
        | Instr::LoadTime { dst }
        | Instr::LoadPort { dst } => Some(*dst),
        _ => None,
    }
}

/// Invoke `f` on every register an instruction reads. `StoreMasked`
/// reads its destination's current width, so its `dst` counts as a use.
pub(super) fn uses(i: &Instr, f: &mut impl FnMut(u16)) {
    match i {
        Instr::Const { .. }
        | Instr::Jmp { .. }
        | Instr::ObjCopy { .. }
        | Instr::LoadGroup { .. }
        | Instr::EvMLocate { .. }
        | Instr::Generate { .. }
        | Instr::LoadSelf { .. }
        | Instr::LoadTime { .. }
        | Instr::LoadPort { .. }
        | Instr::Halt => {}
        Instr::Mov { src, .. }
        | Instr::BoolOf { src, .. }
        | Instr::Not { src, .. }
        | Instr::Neg { src, .. }
        | Instr::BitNot { src, .. }
        | Instr::MaskW { src, .. } => f(*src),
        Instr::StoreMasked { dst, src } => {
            f(*src);
            f(*dst);
        }
        Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Instr::BinImm { a, .. } | Instr::CmpImm { a, .. } | Instr::JCmpImm { a, .. } => f(*a),
        Instr::JCmp { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Instr::Hash { args, .. } | Instr::MkEvent { args, .. } => {
            for r in args {
                f(*r);
            }
        }
        Instr::Jz { cond, .. } | Instr::Jnz { cond, .. } => f(*cond),
        Instr::ArrCheck { idx, .. } | Instr::ArrGet { idx, .. } => f(*idx),
        Instr::ArrSet { idx, val, .. } => {
            f(*idx);
            f(*val);
        }
        Instr::ArrGetm { idx, local, .. } | Instr::ArrSetm { idx, local, .. } => {
            f(*idx);
            f(*local);
        }
        Instr::ArrUpdate {
            idx,
            getarg,
            setarg,
            ..
        } => {
            f(*idx);
            f(*getarg);
            f(*setarg);
        }
        Instr::EvDelay { us, .. } => f(*us),
        Instr::EvLocate { loc, .. } => f(*loc),
        Instr::Printf { args, .. } => {
            for p in args {
                f(p.reg);
            }
        }
    }
}

/// Rewrite every register operand through `map` (used by regalloc).
fn rewrite_regs(i: &mut Instr, map: &[u16]) {
    let m = |r: &mut u16| *r = map[*r as usize];
    match i {
        Instr::Const { dst, .. }
        | Instr::LoadSelf { dst }
        | Instr::LoadTime { dst }
        | Instr::LoadPort { dst } => m(dst),
        Instr::Mov { dst, src }
        | Instr::StoreMasked { dst, src }
        | Instr::BoolOf { dst, src }
        | Instr::Not { dst, src }
        | Instr::Neg { dst, src }
        | Instr::BitNot { dst, src }
        | Instr::MaskW { dst, src, .. } => {
            m(dst);
            m(src);
        }
        Instr::Bin { dst, a, b, .. } | Instr::Cmp { dst, a, b, .. } => {
            m(dst);
            m(a);
            m(b);
        }
        Instr::BinImm { dst, a, .. } | Instr::CmpImm { dst, a, .. } => {
            m(dst);
            m(a);
        }
        Instr::JCmp { a, b, .. } => {
            m(a);
            m(b);
        }
        Instr::JCmpImm { a, .. } => m(a),
        Instr::Hash { dst, args, .. } => {
            m(dst);
            for r in args.iter_mut() {
                m(r);
            }
        }
        Instr::MkEvent { args, .. } => {
            for r in args.iter_mut() {
                m(r);
            }
        }
        Instr::Jmp { .. } => {}
        Instr::Jz { cond, .. } | Instr::Jnz { cond, .. } => m(cond),
        Instr::ArrCheck { idx, .. } => m(idx),
        Instr::ArrGet { dst, idx, .. } => {
            m(dst);
            m(idx);
        }
        Instr::ArrSet { idx, val, .. } => {
            m(idx);
            m(val);
        }
        Instr::ArrGetm {
            dst, idx, local, ..
        } => {
            m(dst);
            m(idx);
            m(local);
        }
        Instr::ArrSetm { idx, local, .. } => {
            m(idx);
            m(local);
        }
        Instr::ArrUpdate {
            dst,
            idx,
            getarg,
            setarg,
            ..
        } => {
            m(dst);
            m(idx);
            m(getarg);
            m(setarg);
        }
        Instr::ObjCopy { .. } | Instr::LoadGroup { .. } | Instr::EvMLocate { .. } => {}
        Instr::EvDelay { us, .. } => m(us),
        Instr::EvLocate { loc, .. } => m(loc),
        Instr::Generate { .. } => {}
        Instr::Printf { args, .. } => {
            for p in args.iter_mut() {
                m(&mut p.reg);
            }
        }
        Instr::Halt => {}
    }
}

/// `targets[pc]` — some jump lands on `pc`.
fn jump_targets(code: &[Instr]) -> Vec<bool> {
    let mut t = vec![false; code.len() + 1];
    for i in code {
        if let Instr::Jmp { to }
        | Instr::Jz { to, .. }
        | Instr::Jnz { to, .. }
        | Instr::JCmp { to, .. }
        | Instr::JCmpImm { to, .. } = i
        {
            t[*to as usize] = true;
        }
    }
    t
}

/// A fixed-size register bitset.
#[derive(Clone, PartialEq)]
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(nregs: usize) -> BitSet {
        BitSet(vec![0; nregs.div_ceil(64).max(1)])
    }

    fn set(&mut self, r: u16) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    fn clear(&mut self, r: u16) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }

    fn get(&self, r: u16) -> bool {
        self.0[r as usize / 64] & (1 << (r % 64)) != 0
    }

    fn union(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// Per-instruction live-in sets. Handlers only jump forward, so one
/// reverse pass is a complete fixpoint: both successors of any `pc`
/// (fall-through and jump target) lie at higher addresses and are
/// already final when `pc` is processed.
fn live_in(code: &[Instr], nregs: usize) -> Vec<BitSet> {
    let mut live = vec![BitSet::new(nregs); code.len() + 1];
    for pc in (0..code.len()).rev() {
        let mut set = BitSet::new(nregs);
        match &code[pc] {
            Instr::Halt => {}
            Instr::Jmp { to } => set = live[*to as usize].clone(),
            Instr::Jz { to, .. }
            | Instr::Jnz { to, .. }
            | Instr::JCmp { to, .. }
            | Instr::JCmpImm { to, .. } => {
                set = live[pc + 1].clone();
                set.union(&live[*to as usize]);
            }
            _ => set = live[pc + 1].clone(),
        }
        if let Some(d) = def(&code[pc]) {
            set.clear(d);
        }
        uses(&code[pc], &mut |r| set.set(r));
        live[pc] = set;
    }
    live
}

/// Is `r` live after the instruction at `pc` (on any successor path)?
fn live_after(code: &[Instr], live: &[BitSet], pc: usize, r: u16) -> bool {
    match &code[pc] {
        Instr::Halt => false,
        Instr::Jmp { to } => live[*to as usize].get(r),
        Instr::Jz { to, .. }
        | Instr::Jnz { to, .. }
        | Instr::JCmp { to, .. }
        | Instr::JCmpImm { to, .. } => live[pc + 1].get(r) || live[*to as usize].get(r),
        _ => live[pc + 1].get(r),
    }
}

/// Drop the instructions marked dead and remap every jump target. A
/// dropped instruction that was itself a jump target maps to the next
/// kept one — valid because fusion folds a dropped instruction's effect
/// into its (kept) successor and regalloc only drops moves that
/// coalescing made no-ops.
fn compact(code: &[Instr], keep: &[bool]) -> Vec<Instr> {
    let mut map = vec![0u32; code.len() + 1];
    let mut n = 0u32;
    for (i, k) in keep.iter().enumerate() {
        map[i] = n;
        n += u32::from(*k);
    }
    map[code.len()] = n;
    code.iter()
        .zip(keep)
        .filter(|(_, k)| **k)
        .map(|(i, _)| {
            let mut i = i.clone();
            if let Instr::Jmp { to }
            | Instr::Jz { to, .. }
            | Instr::Jnz { to, .. }
            | Instr::JCmp { to, .. }
            | Instr::JCmpImm { to, .. } = &mut i
            {
                *to = map[*to as usize];
            }
            i
        })
        .collect()
}

// ---------------------------------------------------------------- fusion

/// Commutative integer ops (safe to swap a const left operand to the
/// immediate slot — `Bin`'s result width is the wider operand's, which
/// is symmetric for these).
fn commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor
    )
}

/// Mirror a comparison across its operands (`imm < x` ⇔ `x > imm`).
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Fuse adjacent instruction pairs into superinstructions. A pair fuses
/// only when the second instruction is not a jump target (a joining
/// path must see both halves execute) and any intermediate register is
/// dead downstream.
fn fuse(code: &mut Vec<Instr>, nregs: usize) -> bool {
    let live = live_in(code, nregs);
    let targets = jump_targets(code);
    let mut keep = vec![true; code.len()];
    let mut changed = false;
    let mut pc = 0;
    while pc + 1 < code.len() {
        if !keep[pc] || targets[pc + 1] {
            pc += 1;
            continue;
        }
        let fused: Option<Instr> = match (&code[pc], &code[pc + 1]) {
            // Const-operand arithmetic and comparison. The const's value
            // dies at the consumer (overwritten by it, or dead after).
            (Instr::Const { dst: c, imm, w }, Instr::Bin { op, dst, a, b }) => {
                let dead = dst == c || !live_after(code, &live, pc + 1, *c);
                if dead && b == c && a != c {
                    Some(Instr::BinImm {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        imm: *imm,
                        w: *w,
                    })
                } else if dead && a == c && b != c && commutative(*op) {
                    Some(Instr::BinImm {
                        op: *op,
                        dst: *dst,
                        a: *b,
                        imm: *imm,
                        w: *w,
                    })
                } else {
                    None
                }
            }
            (Instr::Const { dst: c, imm, .. }, Instr::Cmp { op, dst, a, b }) => {
                let dead = dst == c || !live_after(code, &live, pc + 1, *c);
                if dead && b == c && a != c {
                    Some(Instr::CmpImm {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        imm: *imm,
                    })
                } else if dead && a == c && b != c {
                    Some(Instr::CmpImm {
                        op: flip(*op),
                        dst: *dst,
                        a: *b,
                        imm: *imm,
                    })
                } else {
                    None
                }
            }
            // Compare-and-branch.
            (Instr::Cmp { op, dst, a, b }, Instr::Jz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::JCmp {
                    op: *op,
                    a: *a,
                    b: *b,
                    when: false,
                    to: *to,
                })
            }
            (Instr::Cmp { op, dst, a, b }, Instr::Jnz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::JCmp {
                    op: *op,
                    a: *a,
                    b: *b,
                    when: true,
                    to: *to,
                })
            }
            (Instr::CmpImm { op, dst, a, imm }, Instr::Jz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::JCmpImm {
                    op: *op,
                    a: *a,
                    imm: *imm,
                    when: false,
                    to: *to,
                })
            }
            (Instr::CmpImm { op, dst, a, imm }, Instr::Jnz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::JCmpImm {
                    op: *op,
                    a: *a,
                    imm: *imm,
                    when: true,
                    to: *to,
                })
            }
            // Boolean normalization feeding a branch tests the raw
            // value just as well; logical not flips the branch sense.
            (Instr::BoolOf { dst, src }, Instr::Jz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::Jz {
                    cond: *src,
                    to: *to,
                })
            }
            (Instr::BoolOf { dst, src }, Instr::Jnz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::Jnz {
                    cond: *src,
                    to: *to,
                })
            }
            (Instr::Not { dst, src }, Instr::Jz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::Jnz {
                    cond: *src,
                    to: *to,
                })
            }
            (Instr::Not { dst, src }, Instr::Jnz { cond, to })
                if cond == dst && !live_after(code, &live, pc + 1, *dst) =>
            {
                Some(Instr::Jz {
                    cond: *src,
                    to: *to,
                })
            }
            _ => None,
        };
        if let Some(f) = fused {
            keep[pc] = false;
            code[pc + 1] = f;
            changed = true;
        }
        pc += 1;
    }
    if changed {
        *code = compact(code, &keep);
    }
    changed
}

// --------------------------------------------------- register allocation

/// Linear-scan register allocation over whole-span intervals (first to
/// last static occurrence per register — sound because jumps only go
/// forward, so no dynamic path runs an earlier pc after a later one).
/// Repacks the frame smallest-free-first, coalesces `Mov`s whose source
/// dies exactly where the destination is born, and never grows the
/// frame: every new register reuses an old slot or extends below the
/// old high-water mark.
pub(super) fn regalloc(h: &mut HandlerCode) {
    let n = h.nregs;
    if n == 0 {
        return;
    }
    let nparams = h.binds.len();
    let code = &h.code;
    let mut start = vec![usize::MAX; n];
    let mut end = vec![0usize; n];
    for (pc, i) in code.iter().enumerate() {
        let mut touch = |r: u16| {
            let r = r as usize;
            start[r] = start[r].min(pc);
            end[r] = end[r].max(pc);
        };
        uses(i, &mut touch);
        if let Some(d) = def(i) {
            touch(d);
        }
    }
    // Parameters are defined at entry (dispatch fills `r0..rk` before
    // the first instruction) and must keep their indices.
    for s in start.iter_mut().take(nparams) {
        *s = 0;
    }

    // Old-register expiry events, bucketed by last-occurrence pc.
    let mut by_end: Vec<Vec<u16>> = vec![Vec::new(); code.len() + 1];
    for r in 0..n {
        if start[r] != usize::MAX {
            by_end[end[r]].push(r as u16);
        }
    }

    let mut map = vec![u16::MAX; n];
    let mut busy_until: Vec<usize> = Vec::new();
    let mut free: Vec<u16> = Vec::new();
    let alloc_new = |free: &mut Vec<u16>, busy_until: &mut Vec<usize>, until: usize| -> u16 {
        // Smallest free slot first keeps the assignment deterministic
        // and the frame dense.
        if let Some(pos) = free
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| **r)
            .map(|(i, _)| i)
        {
            let r = free.swap_remove(pos);
            busy_until[r as usize] = until;
            r
        } else {
            busy_until.push(until);
            (busy_until.len() - 1) as u16
        }
    };
    for p in 0..nparams {
        map[p] = alloc_new(&mut free, &mut busy_until, end[p]);
        debug_assert_eq!(map[p] as usize, p);
    }

    let mut keep = vec![true; code.len()];
    for pc in 0..code.len() {
        // Release slots whose owner's interval ended before this pc
        // (skipping slots a coalesce extended past that owner's end).
        if pc > 0 {
            for &r in &by_end[pc - 1] {
                let newr = map[r as usize];
                if newr != u16::MAX && busy_until[newr as usize] == end[r as usize] {
                    free.push(newr);
                    // A coalesced pair shares one slot and one expiry
                    // pc; the sentinel stops the second event from
                    // freeing the slot twice.
                    busy_until[newr as usize] = usize::MAX;
                }
            }
        }
        // Coalesce: the source dies here and the destination is born
        // here, so they can share a slot and the move disappears.
        if let Instr::Mov { dst, src } = code[pc] {
            let (d, s) = (dst as usize, src as usize);
            if d >= nparams
                && start[d] == pc
                && end[s] == pc
                && map[s] != u16::MAX
                && map[d] == u16::MAX
            {
                map[d] = map[s];
                let slot = map[s] as usize;
                busy_until[slot] = busy_until[slot].max(end[d]);
                keep[pc] = false;
                continue;
            }
        }
        let mut assign = |r: u16| {
            let r = r as usize;
            if map[r] == u16::MAX {
                map[r] = alloc_new(&mut free, &mut busy_until, end[r]);
            }
        };
        uses(&code[pc], &mut assign);
        if let Some(d) = def(&code[pc]) {
            assign(d);
        }
    }

    let new_count = busy_until.len();
    assert!(
        new_count <= n,
        "regalloc grew the frame: {n} -> {new_count}"
    );
    h.code = compact(&h.code, &keep);
    for i in &mut h.code {
        rewrite_regs(i, &map);
    }
    h.nregs = new_count;
}
