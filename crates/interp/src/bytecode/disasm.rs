//! The stable disassembly (`lucidc sim --dump-bytecode`). Golden-file
//! tests pin this format per optimization level
//! (`tests/golden/<app>.o<level>.bc.txt`): the header names the level,
//! each handler line reports its post-regalloc register frame, every
//! fused superinstruction renders with its own mnemonic, and every
//! instruction that masks to a width shows it as `<<w>>`.

use super::{CompiledProg, Instr, OptLevel};
use lucid_check::CheckedProgram;
use std::fmt::Write as _;

/// Compile `prog` at `level` and render the listing.
pub fn disassemble_opt(prog: &CheckedProgram, level: OptLevel) -> String {
    CompiledProg::compile_opt(prog, level).disasm()
}

impl CompiledProg {
    /// A stable, human-readable listing of the whole compiled program:
    /// the pools, then each handler's code. Golden-file tests pin this
    /// format (`tests/golden/*.bc.txt`).
    pub fn disasm(&self) -> String {
        let mut out = String::new();
        let handlers = self.handlers.iter().flatten().count();
        let _ = writeln!(
            out,
            "; {} events, {} handlers, {} arrays, {} memops, {} groups",
            self.events.len(),
            handlers,
            self.arrays.len(),
            self.memops.len(),
            self.groups.len(),
        );
        let _ = writeln!(out, "; opt level {}", self.opt.label());
        for (i, a) in self.arrays.iter().enumerate() {
            let _ = writeln!(
                out,
                "; array g{i} `{}`: {} x {}-bit",
                a.name, a.len, a.width
            );
        }
        for (i, m) in self.memops.iter().enumerate() {
            let _ = writeln!(out, "; memop m{i} `{}`", m.name);
        }
        for (i, (name, members)) in self.groups.iter().enumerate() {
            let list: Vec<String> = members.iter().map(ToString::to_string).collect();
            let _ = writeln!(out, "; group G{i} `{name}`: {{{}}}", list.join(", "));
        }
        for h in self.handlers.iter().flatten() {
            out.push('\n');
            let _ = writeln!(
                out,
                "handler `{}` (event {}): {} regs, {} objs, {} instrs",
                h.name,
                h.event_id,
                h.nregs,
                h.nobjs,
                h.code.len()
            );
            if !h.param_names.is_empty() {
                let args: Vec<String> = h
                    .param_names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| format!("r{i}={n}"))
                    .collect();
                let _ = writeln!(out, "  args: {}", args.join(" "));
            }
            for (pc, i) in h.code.iter().enumerate() {
                let _ = writeln!(out, "  {pc:>4}: {}", self.instr_text(i));
            }
        }
        out
    }

    fn instr_text(&self, i: &Instr) -> String {
        let arr = |gid: &u32| format!("g{gid}");
        // Fused branches read as guards: `jif` jumps when the comparison
        // holds, `junless` when it does not.
        let jword = |when: &bool| if *when { "jif" } else { "junless" };
        match i {
            Instr::Const { dst, imm, w } => format!("r{dst} = const {imm} <<{w}>>"),
            Instr::Mov { dst, src } => format!("r{dst} = r{src}"),
            Instr::BoolOf { dst, src } => format!("r{dst} = bool r{src}"),
            Instr::Not { dst, src } => format!("r{dst} = !r{src}"),
            Instr::Neg { dst, src, w } => format!("r{dst} = -r{src} <<{w}>>"),
            Instr::BitNot { dst, src, w } => format!("r{dst} = ~r{src} <<{w}>>"),
            Instr::Bin { op, dst, a, b, w } => {
                format!("r{dst} = r{a} {} r{b} <<{w}>>", op.symbol())
            }
            Instr::BinImm { op, dst, a, imm, w } => {
                format!("r{dst} = r{a} {} {imm} <<{w}>>", op.symbol())
            }
            Instr::Cmp { op, dst, a, b } => format!("r{dst} = r{a} {} r{b}", op.symbol()),
            Instr::CmpImm { op, dst, a, imm } => format!("r{dst} = r{a} {} {imm}", op.symbol()),
            Instr::MaskW { dst, src, w } => format!("r{dst} = mask<<{w}>> r{src}"),
            Instr::Hash { dst, w, args } => {
                let rest: Vec<String> = args[1..].iter().map(|r| format!("r{r}")).collect();
                format!("r{dst} = hash<<{w}>>(r{}; {})", args[0], rest.join(", "))
            }
            Instr::Jmp { to } => format!("jmp {to}"),
            Instr::Jz { cond, to } => format!("jz r{cond} -> {to}"),
            Instr::Jnz { cond, to } => format!("jnz r{cond} -> {to}"),
            Instr::JCmp { op, a, b, when, to } => {
                format!("{} r{a} {} r{b} -> {to}", jword(when), op.symbol())
            }
            Instr::JCmpImm {
                op,
                a,
                imm,
                when,
                to,
            } => format!("{} r{a} {} {imm} -> {to}", jword(when), op.symbol()),
            Instr::ArrCheck { gid, idx } => format!("check {}[r{idx}]", arr(gid)),
            Instr::ArrGet { dst, gid, idx } => format!("r{dst} = {}[r{idx}]", arr(gid)),
            Instr::ArrSet { gid, idx, val } => format!("{}[r{idx}] = r{val}", arr(gid)),
            Instr::ArrGetm {
                dst,
                gid,
                idx,
                memop,
                local,
            } => format!("r{dst} = {}[r{idx}].m{memop}(r{local})", arr(gid)),
            Instr::ArrSetm {
                gid,
                idx,
                memop,
                local,
            } => format!("{}[r{idx}] = m{memop}(r{local})", arr(gid)),
            Instr::ArrUpdate {
                dst,
                gid,
                idx,
                getop,
                getarg,
                setop,
                setarg,
            } => format!(
                "r{dst} = update {}[r{idx}] get m{getop}(r{getarg}) set m{setop}(r{setarg})",
                arr(gid)
            ),
            Instr::MkEvent {
                dst,
                event_id,
                args,
            } => {
                let list: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
                format!(
                    "o{dst} = event `{}`({})",
                    self.events[*event_id as usize].name,
                    list.join(", ")
                )
            }
            Instr::ObjCopy { dst, src } => format!("o{dst} = o{src}"),
            Instr::LoadGroup { dst, group } => format!("o{dst} = group G{group}"),
            Instr::EvDelay { obj, us } => format!("o{obj}.delay += r{us} us"),
            Instr::EvLocate { obj, loc } => format!("o{obj}.loc = switch r{loc}"),
            Instr::EvMLocate { obj, group } => format!("o{obj}.loc = o{group}"),
            Instr::Generate { obj } => format!("generate o{obj}"),
            Instr::LoadSelf { dst } => format!("r{dst} = self"),
            Instr::LoadTime { dst } => format!("r{dst} = time"),
            Instr::LoadPort { dst } => format!("r{dst} = port"),
            Instr::Printf { fmt, args } => {
                let list: Vec<String> = args
                    .iter()
                    .map(|p| {
                        if p.is_bool {
                            format!("r{}:b", p.reg)
                        } else {
                            format!("r{}", p.reg)
                        }
                    })
                    .collect();
                format!(
                    "printf {:?} ({})",
                    self.fmts[*fmt as usize],
                    list.join(", ")
                )
            }
            Instr::Halt => "halt".to_string(),
        }
    }
}
