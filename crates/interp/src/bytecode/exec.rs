//! The flat dispatch loop. Mirrors the AST walker's `exec_block` bit
//! for bit at every [`OptLevel`](super::OptLevel): the fused
//! superinstructions compute exactly what their unfused expansions
//! would, including fault order and fault payloads.
//!
//! Dispatch runs directly on the packed [`Word`] stream: one load per
//! instruction, a dense match on the opcode byte, and operand fields
//! extracted by shifts. No [`Instr`](super::Instr) enum is materialized
//! here — wide immediates and variadic operand lists resolve through
//! the handler's [`SideTables`].

use super::word::{op, SideTables, Word, BIN_OPS, CMP_OPS, WIDE};
use super::{CompiledProg, HandlerCode, Obj, Rv};
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
        let res = self.exec_loop(
            &h.code, &h.tables, &mut regs, &mut objs, exec, shard, switch, key,
        );
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
        code: &[Word],
        tables: &SideTables,
        regs: &mut [Rv],
        objs: &mut [Obj],
        exec: &Exec,
        shard: &mut Shard,
        switch: u64,
        key: Key,
    ) -> Result<(), InterpError> {
        let wide = tables.wide.as_slice();
        let ext = tables.ext.as_slice();
        // Resolve a (field, D-byte) immediate pair: the wide flag routes
        // the field through the wide pool, otherwise the field is the
        // value. The verifier has already proven the index in range.
        let imm = |field: u16, d: u8| -> u64 {
            if d & WIDE != 0 {
                wide[field as usize]
            } else {
                field as u64
            }
        };
        let mut pc = 0usize;
        loop {
            let w = code[pc];
            let (a, b, c, d) = (w.a(), w.b(), w.c(), w.d());
            match w.op() {
                op::HALT => return Ok(()),
                op::CONST => {
                    regs[a as usize] = Rv {
                        v: imm(b, d),
                        w: (d & 0x7F) as u32,
                    };
                }
                op::MOV => {
                    regs[a as usize] = regs[b as usize];
                }
                op::STORE_MASKED => {
                    let w = regs[a as usize].w;
                    regs[a as usize] = Rv {
                        v: mask(regs[b as usize].v, w),
                        w,
                    };
                }
                op::BOOL_OF => {
                    regs[a as usize] = Rv {
                        v: (regs[b as usize].v != 0) as u64,
                        w: 1,
                    };
                }
                op::NOT => {
                    regs[a as usize] = Rv {
                        v: (regs[b as usize].v == 0) as u64,
                        w: 1,
                    };
                }
                op::NEG => {
                    let Rv { v, w } = regs[b as usize];
                    regs[a as usize] = Rv {
                        v: mask(v.wrapping_neg(), w),
                        w,
                    };
                }
                op::BIT_NOT => {
                    let Rv { v, w } = regs[b as usize];
                    regs[a as usize] = Rv { v: mask(!v, w), w };
                }
                op::MASKW => {
                    regs[a as usize] = Rv {
                        v: mask(regs[b as usize].v, d as u32),
                        w: d as u32,
                    };
                }
                op::HASH => {
                    let span = &ext[b as usize..b as usize + c as usize];
                    let seed = regs[span[0] as usize].v;
                    // Reuse the shard's buffer: no per-hash allocation.
                    shard.bc_hash.clear();
                    shard
                        .bc_hash
                        .extend(span[1..].iter().map(|&r| regs[r as usize].v));
                    regs[a as usize] = Rv {
                        v: lucid_hash(d as u32, seed, &shard.bc_hash),
                        w: d as u32,
                    };
                }
                op::HASH_CHK => {
                    let span = &ext[(b as usize)..=(b as usize + c as usize)];
                    let gid = span[0];
                    let seed = regs[span[1] as usize].v;
                    shard.bc_hash.clear();
                    shard
                        .bc_hash
                        .extend(span[2..].iter().map(|&r| regs[r as usize].v));
                    let v = lucid_hash(d as u32, seed, &shard.bc_hash);
                    regs[a as usize] = Rv { v, w: d as u32 };
                    if v >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, v));
                    }
                }
                op::JMP => {
                    pc = c as usize;
                    continue;
                }
                op::JZ => {
                    if regs[a as usize].v == 0 {
                        pc = c as usize;
                        continue;
                    }
                }
                op::JNZ => {
                    if regs[a as usize].v != 0 {
                        pc = c as usize;
                        continue;
                    }
                }
                op::ARR_CHECK => {
                    let idx = regs[b as usize].v;
                    if idx >= self.arrays[a as usize].len {
                        return Err(self.oob(a as u32, idx));
                    }
                }
                op::ARR_GET => {
                    let i = regs[c as usize].v as usize;
                    debug_assert!(
                        (i as u64) < self.arrays[b as usize].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[b as usize].width;
                    // The walker masks on read (`Value::int(cur, w)`);
                    // cells can legally hold over-width values because
                    // `Array.setm` stores memop results unmasked.
                    regs[a as usize] = Rv {
                        v: mask(shard.state.arrays[b as usize][i], w),
                        w,
                    };
                }
                op::CHK_GET => {
                    let i = regs[c as usize].v;
                    if i >= self.arrays[b as usize].len {
                        return Err(self.oob(b as u32, i));
                    }
                    let w = self.arrays[b as usize].width;
                    regs[a as usize] = Rv {
                        v: mask(shard.state.arrays[b as usize][i as usize], w),
                        w,
                    };
                }
                op::ARR_SET => {
                    let i = regs[b as usize].v as usize;
                    debug_assert!(
                        (i as u64) < self.arrays[a as usize].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[a as usize].width;
                    shard.state.arrays[a as usize][i] = mask(regs[c as usize].v, w);
                }
                op::CHK_SET => {
                    let i = regs[b as usize].v;
                    if i >= self.arrays[a as usize].len {
                        return Err(self.oob(a as u32, i));
                    }
                    let w = self.arrays[a as usize].width;
                    shard.state.arrays[a as usize][i as usize] = mask(regs[c as usize].v, w);
                }
                op::ARR_GETM => {
                    let s = &ext[b as usize..b as usize + 4];
                    let (gid, idx, memop, local) = (s[0] as usize, s[1], s[2], s[3]);
                    let i = regs[idx as usize].v as usize;
                    debug_assert!(
                        (i as u64) < self.arrays[gid].len,
                        "verifier invariant broken: unchecked array access out of bounds"
                    );
                    let w = self.arrays[gid].width;
                    let cur = shard.state.arrays[gid][i];
                    let local = regs[local as usize].v;
                    regs[a as usize] = Rv {
                        v: mask(eval_memop(&self.memops[memop as usize], cur, local, w), w),
                        w,
                    };
                }
                op::CHK_GETM => {
                    let s = &ext[b as usize..b as usize + 4];
                    let (gid, idx, memop, local) = (s[0], s[1], s[2], s[3]);
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let w = self.arrays[gid as usize].width;
                    let cur = shard.state.arrays[gid as usize][i as usize];
                    let local = regs[local as usize].v;
                    regs[a as usize] = Rv {
                        v: mask(eval_memop(&self.memops[memop as usize], cur, local, w), w),
                        w,
                    };
                }
                op::ARR_SETM => {
                    let s = &ext[a as usize..a as usize + 4];
                    let (gid, idx, memop, local) = (s[0] as usize, s[1], s[2], s[3]);
                    let i = regs[idx as usize].v as usize;
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
                op::CHK_SETM => {
                    let s = &ext[a as usize..a as usize + 4];
                    let (gid, idx, memop, local) = (s[0], s[1], s[2], s[3]);
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
                op::ARR_UPDATE => {
                    let s = &ext[b as usize..b as usize + 6];
                    let (gid, idx) = (s[0] as usize, s[1]);
                    let (getop, getarg, setop, setarg) = (s[2], s[3], s[4], s[5]);
                    let i = regs[idx as usize].v as usize;
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
                    regs[a as usize] = Rv { v: mask(ret, w), w };
                }
                op::CHK_UPDATE => {
                    let s = &ext[b as usize..b as usize + 6];
                    let (gid, idx) = (s[0], s[1]);
                    let (getop, getarg, setop, setarg) = (s[2], s[3], s[4], s[5]);
                    let i = regs[idx as usize].v;
                    if i >= self.arrays[gid as usize].len {
                        return Err(self.oob(gid, i));
                    }
                    let i = i as usize;
                    let w = self.arrays[gid as usize].width;
                    let cur = shard.state.arrays[gid as usize][i];
                    let ret = eval_memop(
                        &self.memops[getop as usize],
                        cur,
                        regs[getarg as usize].v,
                        w,
                    );
                    shard.state.arrays[gid as usize][i] = eval_memop(
                        &self.memops[setop as usize],
                        cur,
                        regs[setarg as usize].v,
                        w,
                    );
                    regs[a as usize] = Rv { v: mask(ret, w), w };
                }
                op::MK_EVENT => {
                    let widths = &self.events[b as usize].widths;
                    let span = &ext[c as usize..c as usize + d as usize];
                    // Argument buffers come from the worker's arena: an
                    // event that never reaches the trace (untraced run,
                    // drop, multicast fan-out source) returns it there.
                    let mut vals = shard.arena.take(span.len());
                    vals.extend(
                        span.iter()
                            .zip(widths.iter())
                            .map(|(&r, w)| mask(regs[r as usize].v, *w)),
                    );
                    objs[a as usize] = Obj::Ev(Emitted {
                        event_id: b as usize,
                        args: vals,
                        delay_ns: 0,
                        location: Location::Here,
                    });
                }
                op::OBJ_COPY => {
                    objs[a as usize] = objs[b as usize].clone();
                }
                op::LOAD_GROUP => {
                    objs[a as usize] = Obj::Group(self.groups[b as usize].1.clone());
                }
                op::EV_DELAY => {
                    let d_us = regs[b as usize].v;
                    if let Obj::Ev(ev) = &mut objs[a as usize] {
                        ev.delay_ns += d_us * 1_000;
                    }
                }
                op::EV_LOCATE => {
                    let loc = regs[b as usize].v;
                    if let Obj::Ev(ev) = &mut objs[a as usize] {
                        ev.location = Location::Switch(loc);
                    }
                }
                op::EV_MLOCATE => {
                    let members = match &objs[b as usize] {
                        Obj::Group(g) => g.clone(),
                        other => panic!("checked: group operand holds {other:?}"),
                    };
                    if let Obj::Ev(ev) = &mut objs[a as usize] {
                        ev.location = Location::Group(members);
                    }
                }
                op::GENERATE => {
                    let Obj::Ev(ev) = std::mem::take(&mut objs[a as usize]) else {
                        panic!("checked: generate of non-event")
                    };
                    exec.emit(shard, ev);
                }
                op::LOAD_SELF => {
                    regs[a as usize] = Rv { v: switch, w: 32 };
                }
                op::LOAD_TIME => {
                    regs[a as usize] = Rv {
                        v: mask(shard.now_ns / 1_000, 32),
                        w: 32,
                    };
                }
                op::LOAD_PORT => {
                    regs[a as usize] = Rv { v: 0, w: 32 };
                }
                op::PRINTF => {
                    let span = &ext[b as usize..b as usize + c as usize];
                    let vals: Vec<Value> = span
                        .iter()
                        .map(|&e| {
                            let r = regs[(e as u16) as usize];
                            if e >> 16 != 0 {
                                Value::Bool(r.v != 0)
                            } else {
                                Value::Int { v: r.v, width: r.w }
                            }
                        })
                        .collect();
                    // Defer formatting to the run's merge point: record
                    // the interned format id plus the evaluated values.
                    shard.output.push((key, OutRec::Fmt { fmt: a, vals }));
                }
                opb @ op::BIN..=op::BIN_LAST => {
                    let Rv { v: x, w: wx } = regs[b as usize];
                    let Rv { v: y, w: wy } = regs[c as usize];
                    regs[a as usize] = bin_eval(BIN_OPS[(opb - op::BIN) as usize], x, wx, y, wy);
                }
                opb @ op::BIN_IMM..=op::BIN_IMM_LAST => {
                    let Rv { v: x, w: wx } = regs[b as usize];
                    regs[a as usize] = bin_eval(
                        BIN_OPS[(opb - op::BIN_IMM) as usize],
                        x,
                        wx,
                        imm(c, d),
                        (d & 0x7F) as u32,
                    );
                }
                opb @ op::CMP..=op::CMP_LAST => {
                    let v = cmp_eval(
                        CMP_OPS[(opb - op::CMP) as usize],
                        regs[b as usize].v,
                        regs[c as usize].v,
                    );
                    regs[a as usize] = Rv { v: v as u64, w: 1 };
                }
                opb @ op::CMP_IMM..=op::CMP_IMM_LAST => {
                    let v = cmp_eval(
                        CMP_OPS[(opb - op::CMP_IMM) as usize],
                        regs[b as usize].v,
                        imm(c, d),
                    );
                    regs[a as usize] = Rv { v: v as u64, w: 1 };
                }
                opb @ op::JCMP..=op::JCMP_LAST => {
                    if cmp_eval(
                        CMP_OPS[(opb - op::JCMP) as usize],
                        regs[a as usize].v,
                        regs[b as usize].v,
                    ) == (d & 1 != 0)
                    {
                        pc = c as usize;
                        continue;
                    }
                }
                opb @ op::JCMP_IMM..=op::JCMP_IMM_LAST => {
                    if cmp_eval(
                        CMP_OPS[(opb - op::JCMP_IMM) as usize],
                        regs[a as usize].v,
                        imm(b, d),
                    ) == (d & 1 != 0)
                    {
                        pc = c as usize;
                        continue;
                    }
                }
                opb => unreachable!("verifier admitted opcode {opb:#04x}"),
            }
            pc += 1;
        }
    }
}
