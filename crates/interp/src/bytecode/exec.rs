//! The flat dispatch loop. Mirrors the AST walker's `exec_block` bit
//! for bit at every [`OptLevel`](super::OptLevel): the fused
//! superinstructions compute exactly what their unfused expansions
//! would, including fault order and fault payloads.
//!
//! Dispatch is one `match` on each [`Instr`] of the handler span, the
//! same instructions the optimizer rewrote and the verifier checked:
//! operands are read straight out of the variant, and operand lists
//! (hash, event and printf arguments) are the variant's own boxed
//! slices.

use super::{CompiledProg, HandlerCode, Instr, Obj, Rv};
use crate::machine::{Emitted, Exec, InterpError, InterpFault, Key, OutRec, Shard};
use crate::value::{lucid_hash, Location, Value};
use lucid_check::{eval_memop, mask};
use lucid_frontend::ast::BinOp;

/// One arithmetic/bitwise/shift op, exactly as the walker's
/// `eval_binop` computes it: result width is the wider operand's,
/// shifts keep the shifted operand's width, and a shift count at or
/// past that width yields 0.
#[inline]
fn bin_eval(op: BinOp, a: u64, wa: u32, b: u64, wb: u32) -> Rv {
    let w = match op {
        BinOp::Shl | BinOp::Shr => wa,
        _ => wa.max(wb),
    };
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        // Division by zero yields zero in the data plane.
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Mod => a.checked_rem(b).unwrap_or(0),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                a.wrapping_shl(b as u32)
            }
        }
        BinOp::Shr => {
            if b >= w as u64 {
                0
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        other => unreachable!("comparison {other:?} executed as Bin"),
    };
    Rv { v: mask(v, w), w }
}

/// One comparison, on values only (widths do not participate, exactly
/// as in the walker).
#[inline]
fn cmp_eval(op: BinOp, a: u64, b: u64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Neq => a != b,
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        BinOp::Ge => a >= b,
        other => unreachable!("{other:?} executed as Cmp"),
    }
}

impl CompiledProg {
    /// Run one handler activation on its shard. Mirrors the AST walker's
    /// `exec_block` bit for bit; the caller (dispatch) has already
    /// recorded trace and statistics.
    pub(crate) fn run_handler(
        &self,
        h: &HandlerCode,
        exec: &Exec,
        shard: &mut Shard,
        switch: u64,
        key: Key,
        args: &[u64],
    ) -> Result<(), InterpError> {
        // Reuse the shard's scratch buffers across events.
        let mut regs = std::mem::take(&mut shard.bc_regs);
        let mut objs = std::mem::take(&mut shard.bc_objs);
        regs.clear();
        regs.resize(h.nregs, Rv::default());
        objs.clear();
        objs.resize(h.nobjs, Obj::None);
        for (i, (bind, raw)) in h.binds.iter().zip(args).enumerate() {
            regs[i] = match bind {
                super::ParamBind::Int(w) => Rv { v: *raw, w: *w },
                super::ParamBind::Bool => Rv {
                    v: (*raw != 0) as u64,
                    w: 1,
                },
            };
        }
        let res = self.exec_loop(&h.code, &mut regs, &mut objs, exec, shard, switch, key);
        shard.bc_regs = regs;
        shard.bc_objs = objs;
        res
    }

    /// The walker's fault for an out-of-bounds index, verbatim.
    fn oob(&self, gid: u32, idx: u64) -> InterpError {
        let m = &self.arrays[gid as usize];
        InterpFault::IndexOutOfBounds {
            array: m.name.clone(),
            index: idx,
            len: m.len,
        }
        .into()
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &self,
        code: &[Instr],
        regs: &mut [Rv],
        objs: &mut [Obj],
        exec: &Exec,
        shard: &mut Shard,
        switch: u64,
        key: Key,
    ) -> Result<(), InterpError> {
        let mut pc = 0usize;
        loop {
            match &code[pc] {
                Instr::Halt => return Ok(()),
                &Instr::Const { dst, imm, w } => {
                    regs[dst as usize] = Rv { v: imm, w };
                }
                &Instr::Mov { dst, src } => {
                    regs[dst as usize] = regs[src as usize];
                }
                &Instr::StoreMasked { dst, src } => {
                    let w = regs[dst as usize].w;
                    regs[dst as usize] = Rv {
                        v: mask(regs[src as usize].v, w),
                        w,
                    };
                }
                &Instr::BoolOf { dst, src } => {
                    regs[dst as usize] = Rv {
                        v: (regs[src as usize].v != 0) as u64,
                        w: 1,
                    };
                }
                &Instr::Not { dst, src } => {
                    regs[dst as usize] = Rv {
                        v: (regs[src as usize].v == 0) as u64,
                        w: 1,
                    };
                }
                &Instr::Neg { dst, src } => {
                    let Rv { v, w } = regs[src as usize];
                    regs[dst as usize] = Rv {
                        v: mask(v.wrapping_neg(), w),
                        w,
                    };
                }
                &Instr::BitNot { dst, src } => {
                    let Rv { v, w } = regs[src as usize];
                    regs[dst as usize] = Rv { v: mask(!v, w), w };
                }
                &Instr::MaskW { dst, src, w } => {
                    regs[dst as usize] = Rv {
                        v: mask(regs[src as usize].v, w),
                        w,
                    };
                }
                Instr::Hash { dst, w, args } => {
                    let seed = regs[args[0] as usize].v;
                    // Reuse the shard's buffer: no per-hash allocation.
                    shard.bc_hash.clear();
                    shard
                        .bc_hash
                        .extend(args[1..].iter().map(|&r| regs[r as usize].v));
                    regs[*dst as usize] = Rv {
                        v: lucid_hash(*w, seed, &shard.bc_hash),
                        w: *w,
                    };
                }
                Instr::HashChk { dst, w, args, gid } => {
                    let seed = regs[args[0] as usize].v;
                    shard.bc_hash.clear();
                    shard
                        .bc_hash
                        .extend(args[1..].iter().map(|&r| regs[r as usize].v));
                    let v = lucid_hash(*w, seed, &shard.bc_hash);
                    regs[*dst as usize] = Rv { v, w: *w };
                    if v >= self.arrays[*gid as usize].len {
                        return Err(self.oob(*gid, v));
                    }
                }
                &Instr::Jmp { to } => {
                    pc = to as usize;
                    continue;
                }
                &Instr::Jz { cond, to } => {
                    if regs[cond as usize].v == 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                &Instr::Jnz { cond, to } => {
                    if regs[cond as usize].v != 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                &Instr::ArrCheck { gid, idx } => {
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                }
                &Instr::ArrGet { dst, gid, idx } => {
                    let i = regs[idx as usize].v as usize;
                    debug_assert!(
                        (i as u64) < self.arrays[gid as usize].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[gid as usize].width;
                    // The walker masks on read (`Value::int(cur, w)`);
                    // cells can legally hold over-width values because
                    // `Array.setm` stores memop results unmasked.
                    regs[dst as usize] = Rv {
                        v: mask(shard.state.arrays[gid as usize][i], w),
                        w,
                    };
                }
                &Instr::ChkGet { dst, gid, idx } => {
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let w = self.arrays[gid as usize].width;
                    regs[dst as usize] = Rv {
                        v: mask(shard.state.arrays[gid as usize][i as usize], w),
                        w,
                    };
                }
                &Instr::ArrSet { gid, idx, val } => {
                    let i = regs[idx as usize].v as usize;
                    debug_assert!(
                        (i as u64) < self.arrays[gid as usize].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[gid as usize].width;
                    shard.state.arrays[gid as usize][i] = mask(regs[val as usize].v, w);
                }
                &Instr::ChkSet { gid, idx, val } => {
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let w = self.arrays[gid as usize].width;
                    shard.state.arrays[gid as usize][i as usize] = mask(regs[val as usize].v, w);
                }
                &Instr::ArrGetm {
                    dst,
                    gid,
                    idx,
                    memop,
                    local,
                } => {
                    let (gid, i) = (gid as usize, regs[idx as usize].v as usize);
                    debug_assert!(
                        (i as u64) < self.arrays[gid].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[gid].width;
                    let cur = shard.state.arrays[gid][i];
                    let local = regs[local as usize].v;
                    regs[dst as usize] = Rv {
                        v: mask(eval_memop(&self.memops[memop as usize], cur, local, w), w),
                        w,
                    };
                }
                &Instr::ChkGetm {
                    dst,
                    gid,
                    idx,
                    memop,
                    local,
                } => {
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let w = self.arrays[gid as usize].width;
                    let cur = shard.state.arrays[gid as usize][i as usize];
                    let local = regs[local as usize].v;
                    regs[dst as usize] = Rv {
                        v: mask(eval_memop(&self.memops[memop as usize], cur, local, w), w),
                        w,
                    };
                }
                &Instr::ArrSetm {
                    gid,
                    idx,
                    memop,
                    local,
                } => {
                    let (gid, i) = (gid as usize, regs[idx as usize].v as usize);
                    debug_assert!(
                        (i as u64) < self.arrays[gid].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[gid].width;
                    let cur = shard.state.arrays[gid][i];
                    let local = regs[local as usize].v;
                    shard.state.arrays[gid][i] =
                        eval_memop(&self.memops[memop as usize], cur, local, w);
                }
                &Instr::ChkSetm {
                    gid,
                    idx,
                    memop,
                    local,
                } => {
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let w = self.arrays[gid as usize].width;
                    let cur = shard.state.arrays[gid as usize][i as usize];
                    let local = regs[local as usize].v;
                    shard.state.arrays[gid as usize][i as usize] =
                        eval_memop(&self.memops[memop as usize], cur, local, w);
                }
                &Instr::ArrUpdate {
                    dst,
                    gid,
                    idx,
                    getop,
                    getarg,
                    setop,
                    setarg,
                } => {
                    let (gid, i) = (gid as usize, regs[idx as usize].v as usize);
                    debug_assert!(
                        (i as u64) < self.arrays[gid].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[gid].width;
                    let cur = shard.state.arrays[gid][i];
                    let ret = eval_memop(
                        &self.memops[getop as usize],
                        cur,
                        regs[getarg as usize].v,
                        w,
                    );
                    shard.state.arrays[gid][i] = eval_memop(
                        &self.memops[setop as usize],
                        cur,
                        regs[setarg as usize].v,
                        w,
                    );
                    regs[dst as usize] = Rv { v: mask(ret, w), w };
                }
                &Instr::ChkUpdate {
                    dst,
                    gid,
                    idx,
                    getop,
                    getarg,
                    setop,
                    setarg,
                } => {
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let (gid, i) = (gid as usize, i as usize);
                    let w = self.arrays[gid].width;
                    let cur = shard.state.arrays[gid][i];
                    let ret = eval_memop(
                        &self.memops[getop as usize],
                        cur,
                        regs[getarg as usize].v,
                        w,
                    );
                    shard.state.arrays[gid][i] = eval_memop(
                        &self.memops[setop as usize],
                        cur,
                        regs[setarg as usize].v,
                        w,
                    );
                    regs[dst as usize] = Rv { v: mask(ret, w), w };
                }
                Instr::MkEvent {
                    dst,
                    event_id,
                    args,
                } => {
                    let widths = &self.events[*event_id as usize].widths;
                    // Argument buffers come from the worker's arena: an
                    // event that never reaches the trace (untraced run,
                    // drop, multicast fan-out source) returns it there.
                    let mut vals = shard.arena.take(args.len());
                    vals.extend(
                        args.iter()
                            .zip(widths.iter())
                            .map(|(&r, w)| mask(regs[r as usize].v, *w)),
                    );
                    objs[*dst as usize] = Obj::Ev(Emitted {
                        event_id: *event_id as usize,
                        args: vals,
                        delay_ns: 0,
                        location: Location::Here,
                    });
                }
                &Instr::ObjCopy { dst, src } => {
                    objs[dst as usize] = objs[src as usize].clone();
                }
                &Instr::LoadGroup { dst, group } => {
                    objs[dst as usize] = Obj::Group(self.groups[group as usize].1.clone());
                }
                &Instr::EvDelay { obj, us } => {
                    let d_us = regs[us as usize].v;
                    if let Obj::Ev(ev) = &mut objs[obj as usize] {
                        ev.delay_ns += d_us * 1_000;
                    }
                }
                &Instr::EvLocate { obj, loc } => {
                    let loc = regs[loc as usize].v;
                    if let Obj::Ev(ev) = &mut objs[obj as usize] {
                        ev.location = Location::Switch(loc);
                    }
                }
                &Instr::EvMLocate { obj, group } => {
                    let members = match &objs[group as usize] {
                        Obj::Group(g) => g.clone(),
                        other => panic!("checked: group operand holds {other:?}"),
                    };
                    if let Obj::Ev(ev) = &mut objs[obj as usize] {
                        ev.location = Location::Group(members);
                    }
                }
                &Instr::Generate { obj } => {
                    let Obj::Ev(ev) = std::mem::take(&mut objs[obj as usize]) else {
                        panic!("checked: generate of non-event")
                    };
                    exec.emit(shard, ev);
                }
                &Instr::LoadSelf { dst } => {
                    regs[dst as usize] = Rv { v: switch, w: 32 };
                }
                &Instr::LoadTime { dst } => {
                    regs[dst as usize] = Rv {
                        v: mask(shard.now_ns / 1_000, 32),
                        w: 32,
                    };
                }
                &Instr::LoadPort { dst } => {
                    regs[dst as usize] = Rv { v: 0, w: 32 };
                }
                Instr::Printf { fmt, args } => {
                    let vals: Vec<Value> = args
                        .iter()
                        .map(|p| {
                            let r = regs[p.reg as usize];
                            if p.is_bool {
                                Value::Bool(r.v != 0)
                            } else {
                                Value::Int { v: r.v, width: r.w }
                            }
                        })
                        .collect();
                    // Defer formatting to the run's merge point: record
                    // the interned format id plus the evaluated values.
                    shard.output.push((key, OutRec::Fmt { fmt: *fmt, vals }));
                }
                &Instr::Bin { op, dst, a, b } => {
                    let Rv { v: x, w: wx } = regs[a as usize];
                    let Rv { v: y, w: wy } = regs[b as usize];
                    regs[dst as usize] = bin_eval(op, x, wx, y, wy);
                }
                &Instr::BinImm { op, dst, a, imm, w } => {
                    let Rv { v: x, w: wx } = regs[a as usize];
                    regs[dst as usize] = bin_eval(op, x, wx, imm, w);
                }
                &Instr::Cmp { op, dst, a, b } => {
                    let v = cmp_eval(op, regs[a as usize].v, regs[b as usize].v);
                    regs[dst as usize] = Rv { v: v as u64, w: 1 };
                }
                &Instr::CmpImm { op, dst, a, imm } => {
                    let v = cmp_eval(op, regs[a as usize].v, imm);
                    regs[dst as usize] = Rv { v: v as u64, w: 1 };
                }
                &Instr::JCmp { op, a, b, when, to } => {
                    if cmp_eval(op, regs[a as usize].v, regs[b as usize].v) == when {
                        pc = to as usize;
                        continue;
                    }
                }
                &Instr::JCmpImm {
                    op,
                    a,
                    imm,
                    when,
                    to,
                } => {
                    if cmp_eval(op, regs[a as usize].v, imm) == when {
                        pc = to as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
    }
}
