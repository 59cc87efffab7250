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
//! printf lines). It is the default executor ([`ExecMode::Bytecode`] on
//! [`NetConfig`](crate::NetConfig)); the walker runs only when asked
//! for (`--exec=ast`). Results are bit-identical to the walker — state,
//! statistics, trace, and printf output — which the differential
//! property suite in `tests/tests/differential.rs` and the generator
//! matrix in `tests/tests/workload.rs` both enforce.
//!
//! The module tree mirrors the pipeline:
//!
//! * `lower` — one pass over the checked AST per handler, producing
//!   raw bytecode (what [`OptLevel::O0`] executes);
//! * `opt` — the optimizer ([`OptLevel::O2`], the default): a
//!   peephole/superinstruction pass that fuses compare-and-branch and
//!   const-operand arithmetic into single opcodes, then a linear-scan
//!   register allocation pass that coalesces moves and shrinks the
//!   per-shard scratch frame;
//! * `verify` — the independent static re-check run after each pass;
//! * `exec` — the flat dispatch loop;
//! * `disasm` — the stable listing golden-file tests pin
//!   (`lucidc sim --dump-bytecode`).
//!
//! Every stage speaks one form, the [`Instr`] stream: what `lower`
//! emits is what the optimizer rewrites in place, what the verifier
//! checks, what the disassembler prints and what `exec` dispatches on.
//! Both optimization levels are bit-identical to the walker; the
//! differential suites sweep the full engine × exec × opt matrix.
//!
//! # The ISA
//!
//! * **Registers** (`r0`, `r1`, ...) hold a bare 64-bit value, always
//!   within its width. Widths are the checker's, fixed before anything
//!   runs: lowering reads each one off the checked AST (a literal's
//!   width, a declared type, a cell, hash or cast width) and writes it
//!   into the instructions that mask (`Bin`, `BinImm`, `Neg`, `BitNot`,
//!   `MaskW`, `Hash`), so nothing re-decides a width per instruction.
//!   The walker still carries widths with its values, as the oracle.
//! * **Object slots** (`o0`, `o1`, ...) hold event values and multicast
//!   groups — things a register cannot.
//! * **Handlers** are straight-line code with forward jumps only (Lucid
//!   has no loops; iteration happens through `generate`). Handler
//!   parameters arrive pre-masked in `r0..rN`.
//! * **Functions are inlined per call site**, mirroring the checker's
//!   per-instantiation analysis: array-typed parameters resolve to
//!   concrete global ids at compile time, value parameters become
//!   registers, `return` becomes a jump to the inlined epilogue.
//! * **Array ops check their own index**: an out-of-range index raises
//!   the walker's `IndexOutOfBounds` fault at the op itself. A separate
//!   `ArrCheck` precedes an op only when a later operand could fault or
//!   print, so the fault still comes before that operand runs.
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

/// Which executor runs handler bodies. `ExecMode::default()` is the one
/// place the default is named; `NetConfig` and the decoder call it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Tree-walk the checked AST — the reference semantics
    /// (`--exec=ast`, `"exec": "ast"`).
    Ast,
    /// Flat dispatch loop over compiled register bytecode. The default.
    #[default]
    Bytecode,
}

impl ExecMode {
    /// Parse an exec-mode name (`--exec`, scenario `exec`, serve
    /// `options.exec`). The error is the message every surface reports.
    pub fn parse(name: &str) -> Result<ExecMode, String> {
        match name {
            "ast" | "walker" => Ok(ExecMode::Ast),
            "bytecode" | "bc" => Ok(ExecMode::Bytecode),
            _ => Err(format!(
                "unknown exec mode `{name}` (expected `ast` or `bytecode`)"
            )),
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
/// execution. Both levels are bit-identical to the AST walker; the
/// numbers are the spellings (`--opt=0`, `"opt": 2`), so the gap at 1
/// is a refused value, not an oversight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Raw lowering, exactly as `lower` emits it: the optimizer's
    /// oracle leg.
    O0,
    /// Peephole/superinstruction fusion (compare-and-branch,
    /// const-operand arithmetic), then linear-scan register allocation
    /// (move coalescing, dead-register reuse, smaller scratch frames).
    /// The default.
    #[default]
    O2,
}

impl OptLevel {
    /// Decode a level number (scenario `opt`, serve `options.opt`).
    /// The error is the message every surface reports.
    pub fn from_number(n: u64) -> Result<OptLevel, String> {
        match n {
            0 => Ok(OptLevel::O0),
            2 => Ok(OptLevel::O2),
            _ => Err(format!("unknown opt level `{n}` (expected 0 or 2)")),
        }
    }

    /// Parse the command-line spelling (`--opt=N`): exactly a level's
    /// [`label`](OptLevel::label).
    pub fn parse(name: &str) -> Result<OptLevel, String> {
        match name.parse::<u64>() {
            Ok(n) if n.to_string() == name => OptLevel::from_number(n),
            _ => Err(format!("unknown opt level `{name}` (expected 0 or 2)")),
        }
    }

    /// The numeric level (`"0"` or `"2"`).
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::O0 => "0",
            OptLevel::O2 => "2",
        }
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

/// One printf argument: which register, whether the walker would have
/// held a `bool` there (bools print as `true`/`false`), and otherwise
/// the integer's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrintArg {
    reg: u16,
    is_bool: bool,
    w: u32,
}

/// One bytecode instruction. `dst`/`a`/`b`/... index registers; `obj`
/// fields index object slots; `gid`, `memop`, `group`, `fmt`, and
/// `event_id` index the per-program pools. The `*Imm` and `JCmp*`
/// variants are superinstructions: `lower` never emits them, the `opt`
/// peephole pass fuses them out of the raw patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `r[dst] = imm`; `imm` fits `w`, which only the verifier reads.
    Const {
        dst: u16,
        imm: u64,
        w: u32,
    },
    /// `r[dst] = r[src]`.
    Mov {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = r[src] != 0` — normalize to a boolean.
    BoolOf {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = r[src] == 0` — logical not.
    Not {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = mask(-r[src], w)`.
    Neg {
        dst: u16,
        src: u16,
        w: u32,
    },
    /// `r[dst] = mask(!r[src], w)`.
    BitNot {
        dst: u16,
        src: u16,
        w: u32,
    },
    /// Arithmetic/bitwise/shift op at result width `w`: both operands'
    /// width, or a shift's left operand's.
    Bin {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
        w: u32,
    },
    /// Fused `Const` + `Bin`: `r[dst] = r[a] op imm` at result width
    /// `w`, exactly as `Bin`. A shift's `imm` is its count, of any size.
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
    /// Fused `Const` + `Cmp`: `r[dst] = r[a] op imm`.
    CmpImm {
        op: BinOp,
        dst: u16,
        a: u16,
        imm: u64,
    },
    /// `r[dst] = mask(r[src], w)` — cast / typed-local write.
    MaskW {
        dst: u16,
        src: u16,
        w: u32,
    },
    /// `r[dst] = hash<<w>>(args[0]; args[1..])`.
    Hash {
        dst: u16,
        w: u32,
        args: Box<[u16]>,
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
    /// Bounds-check `r[idx]` against array `gid` ahead of an operand
    /// that could fault or print, so the fault lands where the walker's
    /// does: before that operand evaluates.
    ArrCheck {
        gid: u32,
        idx: u16,
    },
    /// `r[dst] = mask(cells[r[idx]], cell_w)`. This op and the four below
    /// fault on an out-of-range `r[idx]` themselves.
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
    /// `r[dst] = mask(memop(cell, r[local]), cell_w)`.
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
    /// `r[dst] = switch_id`.
    LoadSelf {
        dst: u16,
    },
    /// `r[dst] = mask(now_ns / 1000, 32)`.
    LoadTime {
        dst: u16,
    },
    /// `r[dst] = 0` — `Sys.port()` is always 0 in the simulator.
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
    /// `raw` — every entry masks an argument to its parameter's width.
    Int,
    /// `raw != 0` — the walker's `value_of(Ty::Bool, raw)`.
    Bool,
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
                if level == OptLevel::O2 {
                    opt::peephole(&mut h);
                    if verify {
                        violations.extend(verify::verify_handler(&h, &cp, "peephole"));
                    }
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
