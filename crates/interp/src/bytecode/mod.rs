//! Bytecode compilation, optimization, and execution for the
//! interpreter's hot path.
//!
//! The AST walker in [`machine`](crate::machine) is the reference
//! semantics: it resolves names once, then walks the tree for every
//! event, deciding widths, scopes and calls as it goes. This module
//! decides them ahead of time: it lowers each checked handler
//! once, at [`Interp`](crate::Interp) construction, into a compact
//! register bytecode that a flat dispatch loop executes with no
//! allocation beyond what the program itself asks for (event values,
//! printf lines). Selecting it is [`ExecMode::Bytecode`] on
//! [`NetConfig`](crate::NetConfig); results are bit-identical to the
//! walker — state, statistics, trace, and printf output — which the
//! differential property suite in `tests/tests/differential.rs` and the
//! generator matrix in `tests/tests/workload.rs` both enforce.
//!
//! The module tree mirrors the pipeline:
//!
//! * `lower` — one pass over the checked AST per handler, producing
//!   raw bytecode (what [`OptLevel::O0`] executes);
//! * `opt` — the optimizer: a peephole/superinstruction pass
//!   ([`OptLevel::O1`]) that elides provably-safe bounds checks and
//!   fuses the dominant handler patterns (hash-then-index, checked
//!   memop load/modify/store, compare-and-branch, const-operand
//!   arithmetic) into single opcodes, then a linear-scan register
//!   allocation pass ([`OptLevel::O2`], the default) that coalesces
//!   moves and shrinks the per-shard scratch frame;
//! * `verify` — the independent static re-check run after each pass;
//! * `exec` — the flat dispatch loop;
//! * `disasm` — the stable listing golden-file tests pin
//!   (`lucidc sim --dump-bytecode`).
//!
//! Every stage speaks one form, the [`Instr`] stream: what `lower`
//! emits is what the optimizer rewrites in place, what the verifier
//! checks, what the disassembler prints and what `exec` dispatches on.
//! Every optimization level is bit-identical to the walker; the
//! differential suites sweep the full engine × exec × opt matrix.
//!
//! # The ISA
//!
//! * **Registers** (`r0`, `r1`, ...) hold a 64-bit value *and its bit
//!   width*. The reference walker gives every integer a dynamic width
//!   (literals default to 32 bits regardless of what the checker
//!   inferred, binary operators take the wider operand, casts re-mask),
//!   so widths travel with values at runtime rather than being guessed
//!   at compile time — this is what makes the two engines agree bit for
//!   bit even on width-mixing programs.
//! * **Object slots** (`o0`, `o1`, ...) hold event values and multicast
//!   groups — things a register cannot.
//! * **Handlers** are straight-line code with forward jumps only (Lucid
//!   has no loops; iteration happens through `generate`). Handler
//!   parameters arrive pre-masked in `r0..rN`.
//! * **Functions are inlined per call site**, mirroring the checker's
//!   per-instantiation analysis: array-typed parameters resolve to
//!   concrete global ids at compile time, value parameters become
//!   registers, `return` becomes a jump to the inlined epilogue.
//!
//! Array lengths, cell widths, memop bodies, event signatures, group
//! memberships, and printf format strings live in per-program pools so
//! instructions stay small.

mod disasm;
mod exec;
mod lower;
mod opt;
pub mod verify;

pub use disasm::{disassemble, disassemble_opt};
pub use verify::{violations_to_diagnostics, Violation};

use crate::machine::Emitted;
use lucid_check::{CheckedProgram, MemopIr};
use lucid_frontend::ast::*;

/// Which executor runs handler bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Tree-walk the checked AST — the reference semantics.
    #[default]
    Ast,
    /// Flat dispatch loop over compiled register bytecode.
    Bytecode,
}

impl ExecMode {
    /// Parse a CLI/scenario exec-mode name.
    pub fn parse(name: &str) -> Option<ExecMode> {
        match name {
            "ast" | "walker" => Some(ExecMode::Ast),
            "bytecode" | "bc" => Some(ExecMode::Bytecode),
            _ => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Ast => "ast",
            ExecMode::Bytecode => "bytecode",
        }
    }
}

/// How hard the bytecode pipeline optimizes between lowering and
/// execution. Every level is bit-identical to the AST walker; higher
/// levels only run faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// Raw lowering, exactly as `lower` emits it.
    O0,
    /// Peephole/superinstruction pass: bounds-check elision and the
    /// fused opcodes (hash-then-index, checked array ops,
    /// compare-and-branch, const-operand arithmetic).
    O1,
    /// Peephole plus linear-scan register allocation (move coalescing,
    /// dead-register reuse, smaller scratch frames). The default.
    #[default]
    O2,
}

impl OptLevel {
    /// Parse a CLI/scenario opt-level (`0`, `1`, or `2`).
    pub fn parse(name: &str) -> Option<OptLevel> {
        match name {
            "0" => Some(OptLevel::O0),
            "1" => Some(OptLevel::O1),
            "2" => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// The numeric level (`"0"`, `"1"`, `"2"`).
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::O0 => "0",
            OptLevel::O1 => "1",
            OptLevel::O2 => "2",
        }
    }
}

/// A register value: the payload and its current bit width (the same
/// pair [`Value::Int`](crate::value::Value) carries in the walker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rv {
    pub v: u64,
    pub w: u32,
}

impl Default for Rv {
    fn default() -> Self {
        Rv { v: 0, w: 32 }
    }
}

/// An object slot: an event value, a multicast group, or empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) enum Obj {
    #[default]
    None,
    Ev(Emitted),
    Group(Vec<u64>),
}

/// One printf argument: which register, and whether the walker would
/// have held a `bool` there (bools print as `true`/`false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrintArg {
    reg: u16,
    is_bool: bool,
}

/// One bytecode instruction. `dst`/`a`/`b`/... index registers; `obj`
/// fields index object slots; `gid`, `memop`, `group`, `fmt`, and
/// `event_id` index the per-program pools. The `Chk*`, `*Imm`, `JCmp*`,
/// and `HashChk` variants are superinstructions: `lower` never emits
/// them, the `opt` peephole pass fuses them out of the raw patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `r[dst] = (imm, w)`.
    Const {
        dst: u16,
        imm: u64,
        w: u32,
    },
    /// `r[dst] = r[src]` (value and width).
    Mov {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = mask(r[src], r[dst].w)` — assignment keeps the
    /// destination variable's width, as the walker does.
    StoreMasked {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = (r[src] != 0, 1)` — normalize to a boolean.
    BoolOf {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = (r[src] == 0, 1)` — logical not.
    Not {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = mask(-r[src], r[src].w)`.
    Neg {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = mask(!r[src], r[src].w)`.
    BitNot {
        dst: u16,
        src: u16,
    },
    /// Arithmetic/bitwise/shift op; result width is the wider operand's.
    Bin {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Fused `Const` + `Bin`: `r[dst] = r[a] op (imm, w)`. Identical
    /// width/masking rules to `Bin` with a `(imm, w)` right operand.
    BinImm {
        op: BinOp,
        dst: u16,
        a: u16,
        imm: u64,
        w: u32,
    },
    /// Comparison; result is a boolean.
    Cmp {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Fused `Const` + `Cmp`: `r[dst] = (r[a] op imm, 1)`.
    CmpImm {
        op: BinOp,
        dst: u16,
        a: u16,
        imm: u64,
    },
    /// `r[dst] = (mask(r[src], w), w)` — cast / typed-local write.
    MaskW {
        dst: u16,
        src: u16,
        w: u32,
    },
    /// `r[dst] = (hash<<w>>(args[0]; args[1..]), w)`.
    Hash {
        dst: u16,
        w: u32,
        args: Box<[u16]>,
    },
    /// Fused `Hash` + `ArrCheck` on the hash result (the hash-then-index
    /// hot path): hash into `dst`, then bounds-check it against `gid`.
    HashChk {
        dst: u16,
        w: u32,
        args: Box<[u16]>,
        gid: u32,
    },
    Jmp {
        to: u32,
    },
    /// Jump when `r[cond] == 0`.
    Jz {
        cond: u16,
        to: u32,
    },
    /// Jump when `r[cond] != 0`.
    Jnz {
        cond: u16,
        to: u32,
    },
    /// Fused compare-and-branch: jump when `(r[a] op r[b]) == when`.
    JCmp {
        op: BinOp,
        a: u16,
        b: u16,
        when: bool,
        to: u32,
    },
    /// Fused compare-immediate-and-branch: jump when
    /// `(r[a] op imm) == when`.
    JCmpImm {
        op: BinOp,
        a: u16,
        imm: u64,
        when: bool,
        to: u32,
    },
    /// Bounds-check `r[idx]` against array `gid` (faults exactly where
    /// the walker would, before any memop argument evaluates).
    ArrCheck {
        gid: u32,
        idx: u16,
    },
    /// `r[dst] = (cells[r[idx]], cell_w)`.
    ArrGet {
        dst: u16,
        gid: u32,
        idx: u16,
    },
    /// `cells[r[idx]] = mask(r[val], cell_w)`.
    ArrSet {
        gid: u32,
        idx: u16,
        val: u16,
    },
    /// `r[dst] = (mask(memop(cell, r[local]), cell_w), cell_w)`.
    ArrGetm {
        dst: u16,
        gid: u32,
        idx: u16,
        memop: u16,
        local: u16,
    },
    /// `cells[r[idx]] = memop(cell, r[local])`.
    ArrSetm {
        gid: u32,
        idx: u16,
        memop: u16,
        local: u16,
    },
    /// Parallel read-and-write through two memops.
    ArrUpdate {
        dst: u16,
        gid: u32,
        idx: u16,
        getop: u16,
        getarg: u16,
        setop: u16,
        setarg: u16,
    },
    /// Fused `ArrCheck` + `ArrGet`.
    ChkGet {
        dst: u16,
        gid: u32,
        idx: u16,
    },
    /// Fused `ArrCheck` + `ArrSet`.
    ChkSet {
        gid: u32,
        idx: u16,
        val: u16,
    },
    /// Fused `ArrCheck` + `ArrGetm` (the memop load/modify hot path).
    ChkGetm {
        dst: u16,
        gid: u32,
        idx: u16,
        memop: u16,
        local: u16,
    },
    /// Fused `ArrCheck` + `ArrSetm` (the memop modify/store hot path).
    ChkSetm {
        gid: u32,
        idx: u16,
        memop: u16,
        local: u16,
    },
    /// Fused `ArrCheck` + `ArrUpdate`.
    ChkUpdate {
        dst: u16,
        gid: u32,
        idx: u16,
        getop: u16,
        getarg: u16,
        setop: u16,
        setarg: u16,
    },
    /// `o[dst] = event_id(args...)` — args masked to parameter widths.
    MkEvent {
        dst: u16,
        event_id: u32,
        args: Box<[u16]>,
    },
    /// `o[dst] = o[src].clone()`.
    ObjCopy {
        dst: u16,
        src: u16,
    },
    /// `o[dst] = groups[group].clone()`.
    LoadGroup {
        dst: u16,
        group: u16,
    },
    /// `o[obj].delay_ns += r[us] * 1000` (events only; others pass).
    EvDelay {
        obj: u16,
        us: u16,
    },
    /// `o[obj].location = Switch(r[loc])`.
    EvLocate {
        obj: u16,
        loc: u16,
    },
    /// `o[obj].location = Group(o[group])`.
    EvMLocate {
        obj: u16,
        group: u16,
    },
    /// Emit `o[obj]` into the shard's schedule (consumes the slot).
    Generate {
        obj: u16,
    },
    /// `r[dst] = (switch_id, 32)`.
    LoadSelf {
        dst: u16,
    },
    /// `r[dst] = (mask(now_ns / 1000, 32), 32)`.
    LoadTime {
        dst: u16,
    },
    /// `r[dst] = (0, 32)` — `Sys.port()` is always 0 in the simulator.
    LoadPort {
        dst: u16,
    },
    /// Format `fmts[fmt]` with the given registers and record the line.
    Printf {
        fmt: u16,
        args: Box<[PrintArg]>,
    },
    /// End of handler.
    Halt,
}

/// How one handler parameter binds into its register at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamBind {
    /// `(raw, w)` — raw values arrive pre-masked from the scheduler.
    Int(u32),
    /// `(raw != 0, 1)` — the walker's `value_of(Ty::Bool, raw)`.
    Bool,
}

/// An elision proof: the O1 upper-bound analysis deleted the runtime
/// bounds check for accesses to array `gid` through register `idx`
/// because the register provably holds a value below `bound`
/// (exclusive) — and `bound` fits the array. The [`verify`] pass
/// re-derives the bound with its own dataflow; an access whose check
/// merely vanished, with no proof or with a proof the verifier cannot
/// reproduce, is a `V0009` violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Elision {
    pub gid: u32,
    pub idx: u16,
    pub bound: u128,
}

/// One handler's compiled body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerCode {
    event_id: usize,
    name: String,
    /// Parameter names, for the disassembly header.
    param_names: Vec<String>,
    binds: Vec<ParamBind>,
    nregs: usize,
    nobjs: usize,
    /// The handler span.
    code: Vec<Instr>,
    /// Bounds-check elision proofs recorded by the optimizer (empty at
    /// `O0`; regalloc remaps the index registers along with the code).
    elisions: Vec<Elision>,
}

impl HandlerCode {
    /// The handler span, exactly as the executor runs it.
    pub fn instrs(&self) -> &[Instr] {
        &self.code
    }

    /// [`HandlerCode::instrs`] under its old name. Kept for `benchmark/`:
    /// `benchmark/src/workloads/compile_apps.rs` counts `h.words().len()`.
    pub fn words(&self) -> &[Instr] {
        &self.code
    }

    /// The handler's event name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register-frame size (what each shard's scratch buffer resizes to
    /// per activation — the quantity regalloc shrinks).
    pub fn nregs(&self) -> usize {
        self.nregs
    }

    /// Object-slot frame size.
    pub fn nobjs(&self) -> usize {
        self.nobjs
    }

    /// The bounds-check elision proofs the optimizer recorded.
    pub fn elisions(&self) -> &[Elision] {
        &self.elisions
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ArrayMeta {
    name: String,
    len: u64,
    width: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct EventMeta {
    /// For the disassembly; execution goes by id.
    name: String,
    widths: Box<[u32]>,
}

/// A whole checked program lowered to bytecode: per-event handler code
/// plus the pools instructions index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProg {
    /// Indexed by event id; `None` = declared event with no handler.
    handlers: Vec<Option<HandlerCode>>,
    arrays: Vec<ArrayMeta>,
    events: Vec<EventMeta>,
    memops: Vec<MemopIr>,
    groups: Vec<(String, Vec<u64>)>,
    fmts: Vec<String>,
    /// The level the handlers were optimized at.
    opt: OptLevel,
}

impl CompiledProg {
    /// Lower every handler of a checked program and optimize at the
    /// default level ([`OptLevel::O2`]).
    pub fn compile(prog: &CheckedProgram) -> CompiledProg {
        CompiledProg::compile_opt(prog, OptLevel::default())
    }

    /// Lower every handler and run the optimizer pipeline at `level`.
    ///
    /// In debug builds (all tests, CI) every handler is re-verified
    /// after lowering and after each optimizer pass — a violation here
    /// is a compiler bug, so it panics with the rendered violations.
    /// Release builds skip verification on this path (it is compile-time
    /// work, but the perf gate pins end-to-end build+run time); use
    /// [`CompiledProg::compile_verified`] to verify explicitly.
    pub fn compile_opt(prog: &CheckedProgram, level: OptLevel) -> CompiledProg {
        match Self::compile_inner(prog, level, cfg!(debug_assertions)) {
            Ok(cp) => cp,
            Err(violations) => {
                let list: Vec<String> = violations.iter().map(ToString::to_string).collect();
                panic!(
                    "bytecode verifier rejected the compiler's own output:\n{}",
                    list.join("\n")
                );
            }
        }
    }

    /// Lower and optimize at `level`, verifying after lowering and
    /// after each optimizer pass regardless of build profile. The error
    /// names the pass that produced the first ill-formed handler.
    pub fn compile_verified(
        prog: &CheckedProgram,
        level: OptLevel,
    ) -> Result<CompiledProg, Vec<Violation>> {
        Self::compile_inner(prog, level, true)
    }

    fn compile_inner(
        prog: &CheckedProgram,
        level: OptLevel,
        verify: bool,
    ) -> Result<CompiledProg, Vec<Violation>> {
        let arrays = prog
            .info
            .globals
            .iter()
            .map(|g| ArrayMeta {
                name: g.name.clone(),
                len: g.len,
                width: g.cell_width,
            })
            .collect();
        let events = prog
            .info
            .events
            .iter()
            .map(|e| EventMeta {
                name: e.name.clone(),
                widths: e
                    .params
                    .iter()
                    .map(|p| p.ty.int_width().unwrap_or(32))
                    .collect(),
            })
            .collect();
        let mut cp = CompiledProg {
            handlers: Vec::new(),
            arrays,
            events,
            memops: Vec::new(),
            groups: Vec::new(),
            fmts: Vec::new(),
            opt: level,
        };
        // Event-id order keeps pool numbering (and the disassembly)
        // deterministic.
        let mut violations = Vec::new();
        for id in 0..prog.info.events.len() {
            let name = prog.info.events[id].name.clone();
            let code = prog.handler_body(&name).map(|(params, body)| {
                let mut h = lower::compile_handler(prog, &mut cp, id, &name, params, body);
                if verify {
                    violations.extend(verify::verify_handler(&h, &cp, "lower"));
                }
                if level >= OptLevel::O1 {
                    opt::peephole(&mut h, &cp);
                    if verify {
                        violations.extend(verify::verify_handler(&h, &cp, "peephole"));
                    }
                }
                if level >= OptLevel::O2 {
                    opt::regalloc(&mut h);
                    if verify {
                        violations.extend(verify::verify_handler(&h, &cp, "regalloc"));
                    }
                }
                h
            });
            cp.handlers.push(code);
        }
        if violations.is_empty() {
            Ok(cp)
        } else {
            Err(violations)
        }
    }

    /// Re-verify every compiled handler as-is (pass name `"final"`).
    /// This is the entry point the mutation smoke tests corrupt
    /// bytecode against, and what `lucidc sim --verify-bytecode` runs.
    pub fn verify(&self) -> Vec<Violation> {
        self.handlers
            .iter()
            .flatten()
            .flat_map(|h| verify::verify_handler(h, self, "final"))
            .collect()
    }

    /// The level this program was optimized at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// The compiled code for an event, if it has a handler.
    pub fn handler(&self, event_id: usize) -> Option<&HandlerCode> {
        self.handlers.get(event_id).and_then(|h| h.as_ref())
    }

    /// Every compiled handler, in event-id order.
    pub fn handlers(&self) -> impl Iterator<Item = &HandlerCode> {
        self.handlers.iter().flatten()
    }

    fn memop_id(&mut self, m: &MemopIr) -> u16 {
        match self.memops.iter().position(|x| x.name == m.name) {
            Some(i) => i as u16,
            None => {
                self.memops.push(m.clone());
                (self.memops.len() - 1) as u16
            }
        }
    }

    fn group_id(&mut self, name: &str, members: &[u64]) -> u16 {
        match self.groups.iter().position(|(n, _)| n == name) {
            Some(i) => i as u16,
            None => {
                self.groups.push((name.to_string(), members.to_vec()));
                (self.groups.len() - 1) as u16
            }
        }
    }

    /// The interned `printf` format string behind an id, for the driver
    /// rendering deferred output records at a run's merge point.
    pub(crate) fn fmt_str(&self, fmt: u16) -> &str {
        &self.fmts[fmt as usize]
    }

    fn fmt_id(&mut self, fmt: &str) -> u16 {
        match self.fmts.iter().position(|f| f == fmt) {
            Some(i) => i as u16,
            None => {
                self.fmts.push(fmt.to_string());
                (self.fmts.len() - 1) as u16
            }
        }
    }
}

#[cfg(test)]
mod tests;
