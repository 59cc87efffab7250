//! The bytecode verifier: an independent static re-check of every
//! handler the pipeline produces.
//!
//! The optimizer rewrites each handler twice (superinstruction fusion,
//! register allocation) with nothing but differential testing between a
//! miscompile and silently wrong results. This module closes that trust
//! gap: it runs after lowering and after *each* optimizer pass, so a
//! violation names the guilty pass. Bounds are not among its
//! obligations: every array op checks its own index at run time.
//!
//! Per handler span the verifier proves:
//!
//! * **Initialization** — every register is written before it is read
//!   ([`V0001`]); every object slot holds an event/group before use and
//!   is not reused after `Generate` consumes it ([`V0004`]).
//! * **Frames** — every register and object-slot operand is inside the
//!   declared frame ([`V0002`], [`V0003`]), so regalloc can only ever
//!   shrink frames, never silently widen them.
//! * **Widths** — every width an instruction carries (`Const`, `Bin`,
//!   `BinImm`, `Neg`, `BitNot`, `MaskW`, `Hash`) is in `1..=64`, and
//!   every immediate but a shift count fits its width ([`V0005`]):
//!   registers hold bare values, so a constant that did not fit would
//!   carry bits no later mask is obliged to clear.
//! * **Control flow** — every branch target lands on an instruction
//!   boundary inside the span, strictly forward ([`V0006`]), and the
//!   span ends in `Halt` ([`V0007`]).
//! * **Pools** — every array/memop/group/format/event index resolves
//!   ([`V0008`]), and variable-arity operands match their signature
//!   ([`V0010`]).
//!
//! Verification is always on in debug builds (`cargo test`, CI) via
//! [`CompiledProg::compile_opt`], explicit via
//! [`CompiledProg::compile_verified`], and user-visible through
//! `lucidc sim --verify-bytecode`. Violations surface as `V0xxx`
//! diagnostics through the shared [`Diagnostic`] machinery.
//!
//! [`V0001`]: self::codes::UNINIT_REG
//! [`V0002`]: self::codes::REG_OUT_OF_FRAME
//! [`V0003`]: self::codes::OBJ_OUT_OF_FRAME
//! [`V0004`]: self::codes::UNINIT_OBJ
//! [`V0005`]: self::codes::BAD_WIDTH
//! [`V0006`]: self::codes::BAD_JUMP
//! [`V0007`]: self::codes::NO_HALT
//! [`V0008`]: self::codes::BAD_POOL_INDEX
//! [`V0010`]: self::codes::BAD_ARITY

use super::{opt, CompiledProg, HandlerCode, Instr};
use lucid_check::mask;
use lucid_frontend::ast::BinOp;
use lucid_frontend::diag::{Diagnostic, Diagnostics};
use std::fmt;

/// The stable verifier diagnostic codes (`V00xx` range; see the
/// code-registry test in `tests/tests/code_registry.rs`).
pub mod codes {
    /// Register read before any write on some path.
    pub const UNINIT_REG: &str = "V0001";
    /// Register operand outside the declared register frame.
    pub const REG_OUT_OF_FRAME: &str = "V0002";
    /// Object-slot operand outside the declared object frame.
    pub const OBJ_OUT_OF_FRAME: &str = "V0003";
    /// Object slot used while empty (never filled, or consumed by
    /// `generate`) on some path.
    pub const UNINIT_OBJ: &str = "V0004";
    /// Width outside `1..=64`, or an immediate that does not fit its
    /// declared width.
    pub const BAD_WIDTH: &str = "V0005";
    /// Jump target outside the span or not strictly forward.
    pub const BAD_JUMP: &str = "V0006";
    /// Handler span does not end in `Halt`.
    pub const NO_HALT: &str = "V0007";
    /// Array/memop/group/format/event pool index out of range.
    pub const BAD_POOL_INDEX: &str = "V0008";
    /// Variable-arity operand list does not match its signature
    /// (event arity, empty hash).
    pub const BAD_ARITY: &str = "V0010";
}

/// One verifier violation: which rule broke, where, and after which
/// pipeline pass — the pass name is what turns "the bytecode is bad"
/// into "this optimizer pass miscompiled".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable `V0xxx` code (one of [`codes`]).
    pub code: &'static str,
    /// Pipeline pass after which the violation was detected:
    /// `"lower"`, `"peephole"`, `"regalloc"`, or `"final"`.
    pub pass: &'static str,
    /// Handler (event) name.
    pub handler: String,
    /// Instruction index within the handler span.
    pub pc: usize,
    pub message: String,
}

impl Violation {
    /// Render as a span-less diagnostic through the shared machinery
    /// (so `--json-diagnostics` and plain rendering both work).
    fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::error_global(format!(
            "bytecode verifier: handler `{}`, pc {} (after {}): {}",
            self.handler, self.pc, self.pass, self.message
        ))
        .with_code(self.code)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: handler `{}`, pc {} (after {}): {}",
            self.code, self.handler, self.pc, self.pass, self.message
        )
    }
}

/// Collect violations into the shared diagnostics container.
pub fn violations_to_diagnostics(violations: &[Violation]) -> Diagnostics {
    let mut diags = Diagnostics::default();
    for v in violations {
        diags.push(v.to_diagnostic());
    }
    diags
}

/// Verify one handler against the program pools. Returns every
/// violation found (empty = the handler is well-formed).
pub(super) fn verify_handler(
    h: &HandlerCode,
    pools: &CompiledProg,
    pass: &'static str,
) -> Vec<Violation> {
    let mut v = Verifier {
        h,
        pools,
        pass,
        out: Vec::new(),
    };
    v.structural();
    // The dataflow pass indexes frames and jump targets by the numbers
    // the structural pass just validated; on structural breakage those
    // indexes are meaningless, so report what we have.
    if v.out.is_empty() {
        v.dataflow();
    }
    v.out
}

struct Verifier<'a> {
    h: &'a HandlerCode,
    pools: &'a CompiledProg,
    pass: &'static str,
    out: Vec<Violation>,
}

impl Verifier<'_> {
    fn report(&mut self, code: &'static str, pc: usize, message: String) {
        self.out.push(Violation {
            code,
            pass: self.pass,
            handler: self.h.name.clone(),
            pc,
            message,
        });
    }

    // ------------------------------------------------------ structural

    /// Frame bounds, pool indexes, widths, jump shape, `Halt`
    /// termination. Covers every instruction, reachable or not.
    fn structural(&mut self) {
        if self.h.nregs < self.h.binds.len() {
            self.report(
                codes::REG_OUT_OF_FRAME,
                0,
                format!(
                    "register frame of {} cannot hold {} parameters",
                    self.h.nregs,
                    self.h.binds.len()
                ),
            );
        }
        match self.h.code.last() {
            Some(Instr::Halt) => {}
            _ => self.report(
                codes::NO_HALT,
                self.h.code.len().saturating_sub(1),
                "handler span does not end in Halt".to_string(),
            ),
        }
        for (pc, i) in self.h.code.iter().enumerate() {
            self.check_frames(pc, i);
            self.check_pools(pc, i);
            self.check_widths(pc, i);
            if let Some(to) = jump_to(i) {
                let to = to as usize;
                if to >= self.h.code.len() {
                    self.report(
                        codes::BAD_JUMP,
                        pc,
                        format!(
                            "jump target {to} outside the span (len {})",
                            self.h.code.len()
                        ),
                    );
                } else if to <= pc {
                    self.report(
                        codes::BAD_JUMP,
                        pc,
                        format!("jump target {to} is not strictly forward"),
                    );
                }
            }
        }
    }

    fn check_frames(&mut self, pc: usize, i: &Instr) {
        let nregs = self.h.nregs;
        let mut bad_reg = Vec::new();
        let mut touch = |r: u16| {
            if r as usize >= nregs {
                bad_reg.push(r);
            }
        };
        opt::uses(i, &mut touch);
        if let Some(d) = opt::def(i) {
            touch(d);
        }
        for r in bad_reg {
            self.report(
                codes::REG_OUT_OF_FRAME,
                pc,
                format!("register r{r} outside the frame (nregs = {nregs})"),
            );
        }
        for o in obj_operands(i) {
            if o as usize >= self.h.nobjs {
                self.report(
                    codes::OBJ_OUT_OF_FRAME,
                    pc,
                    format!(
                        "object slot o{o} outside the frame (nobjs = {})",
                        self.h.nobjs
                    ),
                );
            }
        }
    }

    fn check_pools(&mut self, pc: usize, i: &Instr) {
        let gid = |g: u32| {
            if g as usize >= self.pools.arrays.len() {
                Some(format!(
                    "array id {g} (pool has {})",
                    self.pools.arrays.len()
                ))
            } else {
                None
            }
        };
        let memop = |m: u16| {
            if m as usize >= self.pools.memops.len() {
                Some(format!(
                    "memop id {m} (pool has {})",
                    self.pools.memops.len()
                ))
            } else {
                None
            }
        };
        let bad: Vec<String> = match i {
            Instr::ArrCheck { gid: g, .. }
            | Instr::ArrGet { gid: g, .. }
            | Instr::ArrSet { gid: g, .. } => gid(*g).into_iter().collect(),
            Instr::ArrGetm {
                gid: g, memop: m, ..
            }
            | Instr::ArrSetm {
                gid: g, memop: m, ..
            } => gid(*g).into_iter().chain(memop(*m)).collect(),
            Instr::ArrUpdate {
                gid: g,
                getop,
                setop,
                ..
            } => gid(*g)
                .into_iter()
                .chain(memop(*getop))
                .chain(memop(*setop))
                .collect(),
            Instr::LoadGroup { group, .. } => {
                if *group as usize >= self.pools.groups.len() {
                    vec![format!(
                        "group id {group} (pool has {})",
                        self.pools.groups.len()
                    )]
                } else {
                    vec![]
                }
            }
            Instr::Printf { fmt, .. } => {
                if *fmt as usize >= self.pools.fmts.len() {
                    vec![format!(
                        "format id {fmt} (pool has {})",
                        self.pools.fmts.len()
                    )]
                } else {
                    vec![]
                }
            }
            Instr::MkEvent { event_id, args, .. } => {
                match self.pools.events.get(*event_id as usize) {
                    None => vec![format!(
                        "event id {event_id} (pool has {})",
                        self.pools.events.len()
                    )],
                    Some(e) if e.widths.len() != args.len() => {
                        self.report(
                            codes::BAD_ARITY,
                            pc,
                            format!(
                                "event `{}` takes {} args, MkEvent passes {}",
                                e.name,
                                e.widths.len(),
                                args.len()
                            ),
                        );
                        vec![]
                    }
                    Some(_) => vec![],
                }
            }
            _ => vec![],
        };
        for b in bad {
            self.report(codes::BAD_POOL_INDEX, pc, format!("{b} out of range"));
        }
        if let Instr::Hash { args, .. } = i {
            if args.is_empty() {
                self.report(
                    codes::BAD_ARITY,
                    pc,
                    "hash needs at least a seed argument".to_string(),
                );
            }
        }
    }

    fn check_widths(&mut self, pc: usize, i: &Instr) {
        // A shift's immediate is its count, which need not fit `w`.
        let (w, imm) = match i {
            Instr::Const { imm, w, .. } => (*w, Some(*imm)),
            Instr::BinImm { op, imm, w, .. } => {
                (*w, (!matches!(op, BinOp::Shl | BinOp::Shr)).then_some(*imm))
            }
            Instr::Bin { w, .. }
            | Instr::Neg { w, .. }
            | Instr::BitNot { w, .. }
            | Instr::MaskW { w, .. }
            | Instr::Hash { w, .. } => (*w, None),
            _ => return,
        };
        if !(1..=64).contains(&w) {
            self.report(codes::BAD_WIDTH, pc, format!("width {w} outside 1..=64"));
        } else if let Some(imm) = imm.filter(|&imm| mask(imm, w) != imm) {
            self.report(
                codes::BAD_WIDTH,
                pc,
                format!("immediate {imm:#x} does not fit declared width {w}"),
            );
        }
    }

    // -------------------------------------------------------- dataflow

    /// Forward dataflow over the span. Jumps are forward-only, so one
    /// pass with pending inflow states at jump targets is a complete
    /// fixpoint: by the time `pc` is reached, every predecessor (all at
    /// lower addresses) has already contributed its out-state.
    fn dataflow(&mut self) {
        let code = &self.h.code;
        let mut inflow: Vec<Option<State>> = vec![None; code.len()];
        let mut cur = State::entry(self.h);
        // Whether `cur` describes a reachable path into the next pc;
        // code after an unconditional jump is skipped until a pending
        // inflow state revives it.
        let mut live = true;
        for pc in 0..code.len() {
            if let Some(p) = inflow[pc].take() {
                if live {
                    cur.merge(&p);
                } else {
                    cur = p;
                    live = true;
                }
            }
            if !live {
                continue;
            }
            let i = &code[pc];
            self.check_reads(pc, i, &cur);
            cur.transfer(i);
            match i {
                Instr::Jmp { to } => {
                    flow(&mut inflow, *to as usize, &cur);
                    live = false;
                }
                Instr::Jz { to, .. }
                | Instr::Jnz { to, .. }
                | Instr::JCmp { to, .. }
                | Instr::JCmpImm { to, .. } => flow(&mut inflow, *to as usize, &cur),
                Instr::Halt => live = false,
                _ => {}
            }
        }
    }

    fn check_reads(&mut self, pc: usize, i: &Instr, cur: &State) {
        let mut bad = Vec::new();
        opt::uses(i, &mut |r| {
            if !cur.init[r as usize] {
                bad.push(r);
            }
        });
        for r in bad {
            self.report(
                codes::UNINIT_REG,
                pc,
                format!("r{r} read before initialization"),
            );
        }
        for (o, is_use) in obj_operands_rw(i) {
            if is_use && !cur.obj[o as usize] {
                self.report(
                    codes::UNINIT_OBJ,
                    pc,
                    format!("object slot o{o} used while empty"),
                );
            }
        }
    }
}

fn flow(inflow: &mut [Option<State>], to: usize, s: &State) {
    match &mut inflow[to] {
        Some(p) => p.merge(s),
        slot @ None => *slot = Some(s.clone()),
    }
}

/// The jump target of a branching instruction.
fn jump_to(i: &Instr) -> Option<u32> {
    match i {
        Instr::Jmp { to }
        | Instr::Jz { to, .. }
        | Instr::Jnz { to, .. }
        | Instr::JCmp { to, .. }
        | Instr::JCmpImm { to, .. } => Some(*to),
        _ => None,
    }
}

/// Every object-slot operand of an instruction.
fn obj_operands(i: &Instr) -> Vec<u16> {
    obj_operands_rw(i).into_iter().map(|(o, _)| o).collect()
}

/// Object-slot operands with whether each is a *use* of the slot's
/// current contents (`false` = pure definition).
fn obj_operands_rw(i: &Instr) -> Vec<(u16, bool)> {
    match i {
        Instr::MkEvent { dst, .. } | Instr::LoadGroup { dst, .. } => vec![(*dst, false)],
        Instr::ObjCopy { dst, src } => vec![(*src, true), (*dst, false)],
        Instr::EvDelay { obj, .. } | Instr::EvLocate { obj, .. } => vec![(*obj, true)],
        Instr::EvMLocate { obj, group } => vec![(*obj, true), (*group, true)],
        Instr::Generate { obj } => vec![(*obj, true)],
        _ => vec![],
    }
}

/// The dataflow state at one program point.
#[derive(Clone)]
struct State {
    /// Registers definitely written on every path here.
    init: Vec<bool>,
    /// Object slots definitely holding a value on every path here.
    obj: Vec<bool>,
}

impl State {
    fn entry(h: &HandlerCode) -> State {
        let mut init = vec![false; h.nregs];
        // Dispatch fills `r0..rk` with the (pre-masked) parameters
        // before the first instruction.
        for r in init.iter_mut().take(h.binds.len()) {
            *r = true;
        }
        State {
            init,
            obj: vec![false; h.nobjs],
        }
    }

    /// Meet at a join point: facts must hold on *every* inbound path.
    fn merge(&mut self, o: &State) {
        for (a, b) in self.init.iter_mut().zip(&o.init) {
            *a &= *b;
        }
        for (a, b) in self.obj.iter_mut().zip(&o.obj) {
            *a &= *b;
        }
    }

    fn transfer(&mut self, i: &Instr) {
        if let Some(d) = opt::def(i) {
            self.init[d as usize] = true;
        }
        for (o, is_use) in obj_operands_rw(i) {
            if !is_use {
                self.obj[o as usize] = true;
            }
        }
        // `generate` consumes its slot (the executor `take`s it).
        if let Instr::Generate { obj } = i {
            self.obj[*obj as usize] = false;
        }
    }
}
