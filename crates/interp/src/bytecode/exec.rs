//! The flat dispatch loop. Mirrors the AST walker's `exec_block` bit
//! for bit at every [`OptLevel`](super::OptLevel): the fused
//! superinstructions compute exactly what their unfused expansions
//! would, including fault order and fault payloads. Every operator
//! (`Bin`, `Cmp`, the unary ops and their fused forms) is
//! `lucid_check::arith`'s, the table the walker calls too.
//!
//! Registers are bare `u64`s. A value never leaves its width, so a move
//! or an assignment copies it as it is, and an operator masks its result
//! to the width lowering wrote into the instruction: the loop decides no
//! width itself.
//!
//! Dispatch is one `match` on each [`Instr`] of the handler span, the
//! same instructions the optimizer rewrote and the verifier checked:
//! operands are read straight out of the variant, and operand lists
//! (hash, event and printf arguments) are the variant's own boxed
//! slices. Every array op reaches its cell through `cell_at`, and a miss
//! is the walker's `IndexOutOfBounds` fault: that one compare is the
//! whole bounds check.

use super::{CompiledProg, HandlerCode, Instr, Obj, ParamBind};
use crate::machine::{Emitted, Exec, InterpError, InterpFault, Key, OutRec, Shard};
use crate::value::{lucid_hash, Location, Value};
use lucid_check::{arith, eval_memop, mask};
use lucid_frontend::ast::UnOp;

/// The cell at index `i`, or `None` when `i` is out of range: the
/// bounds check of every array op.
#[inline]
fn cell_at(cells: &mut [u64], i: u64) -> Option<&mut u64> {
    usize::try_from(i).ok().and_then(|i| cells.get_mut(i))
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
        regs.resize(h.nregs, 0);
        objs.clear();
        objs.resize(h.nobjs, Obj::None);
        for (i, (bind, &raw)) in h.binds.iter().zip(args).enumerate() {
            regs[i] = match bind {
                ParamBind::Int => raw,
                ParamBind::Bool => u64::from(raw != 0),
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
        regs: &mut [u64],
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
                &Instr::Const { dst, imm, .. } => {
                    regs[dst as usize] = imm;
                }
                &Instr::Mov { dst, src } => {
                    regs[dst as usize] = regs[src as usize];
                }
                &Instr::BoolOf { dst, src } => {
                    regs[dst as usize] = u64::from(regs[src as usize] != 0);
                }
                &Instr::Not { dst, src } => {
                    regs[dst as usize] = arith::unop(UnOp::Not, regs[src as usize], 1);
                }
                &Instr::Neg { dst, src, w } => {
                    regs[dst as usize] = arith::unop(UnOp::Neg, regs[src as usize], w);
                }
                &Instr::BitNot { dst, src, w } => {
                    regs[dst as usize] = arith::unop(UnOp::BitNot, regs[src as usize], w);
                }
                &Instr::MaskW { dst, src, w } => {
                    regs[dst as usize] = mask(regs[src as usize], w);
                }
                Instr::Hash { dst, w, args } => {
                    let seed = regs[args[0] as usize];
                    // Reuse the shard's buffer: no per-hash allocation.
                    shard.bc_hash.clear();
                    shard
                        .bc_hash
                        .extend(args[1..].iter().map(|&r| regs[r as usize]));
                    regs[*dst as usize] = lucid_hash(*w, seed, &shard.bc_hash);
                }
                &Instr::Jmp { to } => {
                    pc = to as usize;
                    continue;
                }
                &Instr::Jz { cond, to } => {
                    if regs[cond as usize] == 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                &Instr::Jnz { cond, to } => {
                    if regs[cond as usize] != 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                &Instr::ArrCheck { gid, idx } => {
                    let i = regs[idx as usize];
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                }
                &Instr::ArrGet { dst, gid, idx } => {
                    let i = regs[idx as usize];
                    let Some(&mut cur) = cell_at(&mut shard.state.arrays[gid as usize], i) else {
                        return Err(self.oob(gid, i));
                    };
                    let w = self.arrays[gid as usize].width;
                    // The walker masks on read (`Value::int(cur, w)`);
                    // cells can legally hold over-width values because
                    // `Array.setm` stores memop results unmasked.
                    regs[dst as usize] = mask(cur, w);
                }
                &Instr::ArrSet { gid, idx, val } => {
                    let i = regs[idx as usize];
                    let w = self.arrays[gid as usize].width;
                    let Some(cell) = cell_at(&mut shard.state.arrays[gid as usize], i) else {
                        return Err(self.oob(gid, i));
                    };
                    *cell = mask(regs[val as usize], w);
                }
                &Instr::ArrGetm {
                    dst,
                    gid,
                    idx,
                    memop,
                    local,
                } => {
                    let i = regs[idx as usize];
                    let Some(&mut cur) = cell_at(&mut shard.state.arrays[gid as usize], i) else {
                        return Err(self.oob(gid, i));
                    };
                    let w = self.arrays[gid as usize].width;
                    let local = regs[local as usize];
                    regs[dst as usize] =
                        mask(eval_memop(&self.memops[memop as usize], cur, local, w), w);
                }
                &Instr::ArrSetm {
                    gid,
                    idx,
                    memop,
                    local,
                } => {
                    let i = regs[idx as usize];
                    let w = self.arrays[gid as usize].width;
                    let local = regs[local as usize];
                    let Some(cell) = cell_at(&mut shard.state.arrays[gid as usize], i) else {
                        return Err(self.oob(gid, i));
                    };
                    *cell = eval_memop(&self.memops[memop as usize], *cell, local, w);
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
                    let i = regs[idx as usize];
                    let w = self.arrays[gid as usize].width;
                    let (getarg, setarg) = (regs[getarg as usize], regs[setarg as usize]);
                    let Some(cell) = cell_at(&mut shard.state.arrays[gid as usize], i) else {
                        return Err(self.oob(gid, i));
                    };
                    let cur = *cell;
                    *cell = eval_memop(&self.memops[setop as usize], cur, setarg, w);
                    let ret = eval_memop(&self.memops[getop as usize], cur, getarg, w);
                    regs[dst as usize] = mask(ret, w);
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
                            .map(|(&r, w)| mask(regs[r as usize], *w)),
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
                    let d_us = regs[us as usize];
                    if let Obj::Ev(ev) = &mut objs[obj as usize] {
                        ev.delay_ns += d_us * 1_000;
                    }
                }
                &Instr::EvLocate { obj, loc } => {
                    let loc = regs[loc as usize];
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
                    regs[dst as usize] = switch;
                }
                &Instr::LoadTime { dst } => {
                    regs[dst as usize] = mask(shard.now_ns / 1_000, 32);
                }
                &Instr::LoadPort { dst } => {
                    regs[dst as usize] = 0;
                }
                Instr::Printf { fmt, args } => {
                    let vals: Vec<Value> = args
                        .iter()
                        .map(|p| {
                            let v = regs[p.reg as usize];
                            if p.is_bool {
                                Value::Bool(v != 0)
                            } else {
                                Value::Int { v, width: p.w }
                            }
                        })
                        .collect();
                    // Defer formatting to the run's merge point: record
                    // the interned format id plus the evaluated values.
                    shard.output.push((key, OutRec::Fmt { fmt: *fmt, vals }));
                }
                &Instr::Bin { op, dst, a, b, w } => {
                    regs[dst as usize] = arith::binop(op, regs[a as usize], regs[b as usize], w);
                }
                &Instr::BinImm { op, dst, a, imm, w } => {
                    regs[dst as usize] = arith::binop(op, regs[a as usize], imm, w);
                }
                &Instr::Cmp { op, dst, a, b } => {
                    regs[dst as usize] =
                        u64::from(arith::cmp(op, regs[a as usize], regs[b as usize]));
                }
                &Instr::CmpImm { op, dst, a, imm } => {
                    regs[dst as usize] = u64::from(arith::cmp(op, regs[a as usize], imm));
                }
                &Instr::JCmp { op, a, b, when, to } => {
                    if arith::cmp(op, regs[a as usize], regs[b as usize]) == when {
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
                    if arith::cmp(op, regs[a as usize], imm) == when {
                        pc = to as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
    }
}
