//! Lowering: one pass over a checked handler's AST emitting raw
//! bytecode. This is the whole story at [`OptLevel::O0`]
//! (`lucidc sim --opt=0`); the [`opt`](super::opt) pipeline rewrites the
//! output at higher levels. The lowering itself never emits the fused
//! superinstructions — keeping the raw ISA small is what makes the
//! differential matrix (walker vs. unoptimized vs. optimized bytecode)
//! meaningful.

use super::{CompiledProg, HandlerCode, Instr, ParamBind, PrintArg};
use lucid_check::{mask, CheckedProgram, GlobalId};
use lucid_frontend::ast::*;
use std::collections::HashMap;

/// What a variable name is bound to during compilation.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Reg {
        r: u16,
        is_bool: bool,
    },
    Obj(u16),
    /// An array-typed function parameter, resolved to its global.
    ArrayRef(GlobalId),
    /// A local bound to a void function call's "result".
    Void,
}

/// The result of compiling one expression.
#[derive(Debug, Clone, Copy)]
enum Val {
    Reg { r: u16, is_bool: bool, temp: bool },
    Obj { o: u16, temp: bool },
    Void,
}

/// Return-value plumbing for one inlined function activation.
struct RetCtx {
    slot: Slot,
    /// `Jmp` sites to patch to the inlined epilogue.
    jumps: Vec<usize>,
}

/// One activation frame: the handler itself, or an inlined function.
struct Frame {
    vars: HashMap<String, Slot>,
    /// `None` for the handler frame (its `return` halts).
    ret: Option<RetCtx>,
}

/// Register / object-slot allocator: a free list plus high-water mark.
#[derive(Default)]
struct Alloc {
    next: u16,
    free: Vec<u16>,
}

impl Alloc {
    fn get(&mut self) -> u16 {
        self.free.pop().unwrap_or_else(|| {
            let r = self.next;
            self.next = self.next.checked_add(1).expect("register file overflow");
            r
        })
    }

    fn put(&mut self, r: u16) {
        self.free.push(r);
    }
}

struct Cc<'p> {
    prog: &'p CheckedProgram,
    pools: &'p mut CompiledProg,
    code: Vec<Instr>,
    regs: Alloc,
    objs: Alloc,
    frames: Vec<Frame>,
    /// Inlining depth guard (the checker rules out recursion; this turns
    /// a hypothetical checker bug into a clean panic, not a hang).
    depth: usize,
}

pub(super) fn compile_handler(
    prog: &CheckedProgram,
    pools: &mut CompiledProg,
    event_id: usize,
    name: &str,
    params: &[Param],
    body: &Block,
) -> HandlerCode {
    let mut cc = Cc {
        prog,
        pools,
        code: Vec::new(),
        regs: Alloc::default(),
        objs: Alloc::default(),
        frames: Vec::new(),
        depth: 0,
    };
    let mut vars = HashMap::new();
    let mut binds = Vec::with_capacity(params.len());
    let mut param_names = Vec::with_capacity(params.len());
    for p in params {
        let r = cc.regs.get();
        let is_bool = p.ty == Ty::Bool;
        binds.push(match p.ty {
            Ty::Bool => ParamBind::Bool,
            ty => ParamBind::Int(ty.int_width().unwrap_or(32)),
        });
        vars.insert(p.name.name.clone(), Slot::Reg { r, is_bool });
        param_names.push(p.name.name.clone());
    }
    cc.frames.push(Frame { vars, ret: None });
    cc.block(body);
    cc.emit(Instr::Halt);
    HandlerCode {
        event_id,
        name: name.to_string(),
        param_names,
        binds,
        nregs: cc.regs.next as usize,
        nobjs: cc.objs.next as usize,
        code: cc.code,
        elisions: Vec::new(),
    }
}

impl Cc<'_> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    /// Point a forward jump at the current end of the code.
    fn patch(&mut self, at: usize) {
        let here = u32::try_from(self.code.len()).expect("handler span fits u32 jump targets");
        match &mut self.code[at] {
            Instr::Jmp { to } | Instr::Jz { to, .. } | Instr::Jnz { to, .. } => *to = here,
            other => panic!("patching a non-jump {other:?}"),
        }
    }

    /// Free the storage a consumed temporary held.
    fn release(&mut self, v: Val) {
        match v {
            Val::Reg { r, temp: true, .. } => self.regs.put(r),
            Val::Obj { o, temp: true, .. } => self.objs.put(o),
            _ => {}
        }
    }

    fn reg_of(&self, v: Val) -> u16 {
        match v {
            Val::Reg { r, .. } => r,
            other => panic!("checked program used {other:?} as an integer"),
        }
    }

    /// Get `v` into an object slot we may mutate (clone a variable's
    /// slot, exactly as the walker clones on env lookup).
    fn owned_obj(&mut self, v: Val) -> u16 {
        match v {
            Val::Obj { o, temp: true } => o,
            Val::Obj { o, temp: false } => {
                let dst = self.objs.get();
                self.emit(Instr::ObjCopy { dst, src: o });
                dst
            }
            other => panic!("checked program used {other:?} as an event/group"),
        }
    }

    /// Pin an expression result as a variable binding (reusing a
    /// temporary's storage, copying out of another variable's).
    fn bind_value(&mut self, v: Val) -> Slot {
        match v {
            Val::Reg {
                r,
                is_bool,
                temp: true,
            } => Slot::Reg { r, is_bool },
            Val::Reg {
                r,
                is_bool,
                temp: false,
            } => {
                let dst = self.regs.get();
                self.emit(Instr::Mov { dst, src: r });
                Slot::Reg { r: dst, is_bool }
            }
            Val::Obj { o, temp: true } => Slot::Obj(o),
            Val::Obj { o, temp: false } => {
                let dst = self.objs.get();
                self.emit(Instr::ObjCopy { dst, src: o });
                Slot::Obj(dst)
            }
            Val::Void => Slot::Void,
        }
    }

    // ------------------------------------------------------- statements

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Local { ty, name, init } => {
                let v = self.expr(init);
                // The walker re-masks only int-typed locals holding ints.
                let slot = match (ty, v) {
                    (Some(Ty::Int(w)), Val::Reg { r, temp, .. }) => {
                        let dst = if temp { r } else { self.regs.get() };
                        self.emit(Instr::MaskW { dst, src: r, w: *w });
                        Slot::Reg {
                            r: dst,
                            is_bool: false,
                        }
                    }
                    _ => self.bind_value(v),
                };
                self.frames
                    .last_mut()
                    .expect("frame")
                    .vars
                    .insert(name.name.clone(), slot);
            }
            StmtKind::Assign { name, value } => {
                let slot = *self
                    .frames
                    .last()
                    .expect("frame")
                    .vars
                    .get(&name.name)
                    .unwrap_or_else(|| panic!("checked program assigns unbound `{}`", name.name));
                let v = self.expr(value);
                match slot {
                    Slot::Reg { r: dst, is_bool } => {
                        let src = self.reg_of(v);
                        // Ints keep the variable's width; bools just move.
                        if is_bool {
                            self.emit(Instr::Mov { dst, src });
                        } else {
                            self.emit(Instr::StoreMasked { dst, src });
                        }
                    }
                    Slot::Obj(dst) => {
                        let src = match v {
                            Val::Obj { o, .. } => o,
                            other => panic!("checked program assigns {other:?} to an event"),
                        };
                        self.emit(Instr::ObjCopy { dst, src });
                    }
                    Slot::ArrayRef(_) | Slot::Void => {
                        panic!("checked program assigns to `{}`", name.name)
                    }
                }
                self.release(v);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.expr(cond);
                let jz = self.emit(Instr::Jz {
                    cond: self.reg_of(c),
                    to: u32::MAX,
                });
                self.release(c);
                // A branch's own declarations leave scope at its end, as
                // in the checker and the walker.
                let saved = self.frames.last().expect("frame").vars.clone();
                self.block(then_blk);
                if let Some(e) = else_blk {
                    let jend = self.emit(Instr::Jmp { to: u32::MAX });
                    self.patch(jz);
                    self.frames.last_mut().expect("frame").vars = saved.clone();
                    self.block(e);
                    self.patch(jend);
                } else {
                    self.patch(jz);
                }
                self.frames.last_mut().expect("frame").vars = saved;
            }
            StmtKind::Generate(e) | StmtKind::MGenerate(e) => {
                let v = self.expr(e);
                let obj = self.owned_obj(v);
                self.emit(Instr::Generate { obj });
                self.objs.put(obj);
            }
            StmtKind::Return(val) => {
                let v = val.as_ref().map(|e| self.expr(e));
                let in_fun = self.frames.last().expect("frame").ret.is_some();
                if !in_fun {
                    // Handler-level return: evaluate (for effects) and stop.
                    if let Some(v) = v {
                        self.release(v);
                    }
                    self.emit(Instr::Halt);
                    return;
                }
                if let Some(v) = v {
                    let slot = self
                        .frames
                        .last()
                        .expect("frame")
                        .ret
                        .as_ref()
                        .expect("fun")
                        .slot;
                    match (slot, v) {
                        (Slot::Reg { r: dst, .. }, Val::Reg { r: src, .. }) => {
                            self.emit(Instr::Mov { dst, src });
                        }
                        (Slot::Obj(dst), Val::Obj { o: src, .. }) => {
                            self.emit(Instr::ObjCopy { dst, src });
                        }
                        (Slot::Void, _) | (_, Val::Void) => {}
                        (s, v) => panic!("checked function returns {v:?} into {s:?}"),
                    }
                    self.release(v);
                }
                let j = self.emit(Instr::Jmp { to: u32::MAX });
                self.frames
                    .last_mut()
                    .expect("frame")
                    .ret
                    .as_mut()
                    .expect("fun")
                    .jumps
                    .push(j);
            }
            StmtKind::Printf { fmt, args } => {
                let vals: Vec<Val> = args.iter().map(|a| self.expr(a)).collect();
                let pargs: Box<[PrintArg]> = vals
                    .iter()
                    .map(|v| match *v {
                        Val::Reg { r, is_bool, .. } => PrintArg { reg: r, is_bool },
                        other => panic!("checked printf arg {other:?}"),
                    })
                    .collect();
                let fmt = self.pools.fmt_id(fmt);
                self.emit(Instr::Printf { fmt, args: pargs });
                for v in vals {
                    self.release(v);
                }
            }
            StmtKind::Expr(e) => {
                let v = self.expr(e);
                self.release(v);
            }
        }
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self, e: &Expr) -> Val {
        match &e.kind {
            ExprKind::Int { value, width } => {
                let w = width.unwrap_or(32);
                let dst = self.regs.get();
                self.emit(Instr::Const {
                    dst,
                    imm: mask(*value, w),
                    w,
                });
                Val::Reg {
                    r: dst,
                    is_bool: false,
                    temp: true,
                }
            }
            ExprKind::Bool(b) => {
                let dst = self.regs.get();
                self.emit(Instr::Const {
                    dst,
                    imm: *b as u64,
                    w: 1,
                });
                Val::Reg {
                    r: dst,
                    is_bool: true,
                    temp: true,
                }
            }
            ExprKind::Var(id) => self.var(id),
            ExprKind::Unary { op, arg } => {
                let v = self.expr(arg);
                let src = self.reg_of(v);
                self.release(v);
                let dst = self.regs.get();
                let is_bool = match op {
                    UnOp::Not => {
                        self.emit(Instr::Not { dst, src });
                        true
                    }
                    UnOp::Neg => {
                        self.emit(Instr::Neg { dst, src });
                        false
                    }
                    UnOp::BitNot => {
                        self.emit(Instr::BitNot { dst, src });
                        false
                    }
                };
                Val::Reg {
                    r: dst,
                    is_bool,
                    temp: true,
                }
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs),
            ExprKind::Cast { width, arg } => {
                let v = self.expr(arg);
                let src = self.reg_of(v);
                self.release(v);
                let dst = self.regs.get();
                self.emit(Instr::MaskW {
                    dst,
                    src,
                    w: *width,
                });
                Val::Reg {
                    r: dst,
                    is_bool: false,
                    temp: true,
                }
            }
            ExprKind::Hash { width, args } => {
                let vals: Vec<Val> = args.iter().map(|a| self.expr(a)).collect();
                let regs: Box<[u16]> = vals.iter().map(|v| self.reg_of(*v)).collect();
                for v in vals {
                    self.release(v);
                }
                let dst = self.regs.get();
                self.emit(Instr::Hash {
                    dst,
                    w: *width,
                    args: regs,
                });
                Val::Reg {
                    r: dst,
                    is_bool: false,
                    temp: true,
                }
            }
            ExprKind::Call { callee, args } => self.call(callee, args),
            ExprKind::BuiltinCall { builtin, args, .. } => self.builtin(*builtin, args),
        }
    }

    fn var(&mut self, id: &Ident) -> Val {
        if let Some(slot) = self.frames.last().expect("frame").vars.get(&id.name) {
            return match *slot {
                Slot::Reg { r, is_bool } => Val::Reg {
                    r,
                    is_bool,
                    temp: false,
                },
                Slot::Obj(o) => Val::Obj { o, temp: false },
                // The checker admits an array name only in array position.
                Slot::ArrayRef(_) => panic!("checked: array `{}` read as a value", id.name),
                Slot::Void => Val::Void,
            };
        }
        if id.name == "SELF" {
            let dst = self.regs.get();
            self.emit(Instr::LoadSelf { dst });
            return Val::Reg {
                r: dst,
                is_bool: false,
                temp: true,
            };
        }
        if let Some(c) = self.prog.info.consts.get(&id.name) {
            let (imm, w, is_bool) = match c.ty {
                Ty::Bool => ((c.value != 0) as u64, 1, true),
                Ty::Int(w) => (c.value, w, false),
                _ => (c.value, 32, false),
            };
            let dst = self.regs.get();
            self.emit(Instr::Const { dst, imm, w });
            return Val::Reg {
                r: dst,
                is_bool,
                temp: true,
            };
        }
        if let Some(g) = self.prog.info.groups.get(&id.name) {
            let members = g.members.clone();
            let group = self.pools.group_id(&id.name, &members);
            let dst = self.objs.get();
            self.emit(Instr::LoadGroup { dst, group });
            return Val::Obj { o: dst, temp: true };
        }
        panic!("checked program has unbound var `{}`", id.name)
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Val {
        // The logical connectives short-circuit, exactly as the walker
        // does: the right operand must not run when the left decides.
        if op == BinOp::And || op == BinOp::Or {
            let dst = self.regs.get();
            let l = self.expr(lhs);
            self.emit(Instr::BoolOf {
                dst,
                src: self.reg_of(l),
            });
            self.release(l);
            let j = if op == BinOp::And {
                self.emit(Instr::Jz {
                    cond: dst,
                    to: u32::MAX,
                })
            } else {
                self.emit(Instr::Jnz {
                    cond: dst,
                    to: u32::MAX,
                })
            };
            let r = self.expr(rhs);
            self.emit(Instr::BoolOf {
                dst,
                src: self.reg_of(r),
            });
            self.release(r);
            self.patch(j);
            return Val::Reg {
                r: dst,
                is_bool: true,
                temp: true,
            };
        }
        let l = self.expr(lhs);
        let r = self.expr(rhs);
        let (a, b) = (self.reg_of(l), self.reg_of(r));
        self.release(l);
        self.release(r);
        let dst = self.regs.get();
        if op.is_comparison() {
            self.emit(Instr::Cmp { op, dst, a, b });
            Val::Reg {
                r: dst,
                is_bool: true,
                temp: true,
            }
        } else {
            self.emit(Instr::Bin { op, dst, a, b });
            Val::Reg {
                r: dst,
                is_bool: false,
                temp: true,
            }
        }
    }

    /// Event construction, or a user function inlined at this call site.
    fn call(&mut self, callee: &Ident, args: &[Expr]) -> Val {
        if let Some(ev) = self.prog.info.event(&callee.name) {
            let event_id = ev.id as u32;
            let vals: Vec<Val> = args.iter().map(|a| self.expr(a)).collect();
            let regs: Box<[u16]> = vals.iter().map(|v| self.reg_of(*v)).collect();
            for v in vals {
                self.release(v);
            }
            let dst = self.objs.get();
            self.emit(Instr::MkEvent {
                dst,
                event_id,
                args: regs,
            });
            return Val::Obj { o: dst, temp: true };
        }

        let (ret_ty, params, body) = self
            .prog
            .fun_body(&callee.name)
            .unwrap_or_else(|| panic!("checked program calls unknown `{}`", callee.name));
        let (ret_ty, params, body) = (*ret_ty, params.clone(), body.clone());
        self.depth += 1;
        assert!(self.depth <= 64, "function inlining depth exceeded");

        // Bind arguments in declaration order, resolving each — array
        // names included — in the caller's frame.
        let mut vars = HashMap::new();
        for (p, a) in params.iter().zip(args) {
            let slot = match p.ty {
                Ty::Array(_) => Slot::ArrayRef(self.resolve_array(a)),
                _ => {
                    let v = self.expr(a);
                    self.bind_value(v)
                }
            };
            vars.insert(p.name.name.clone(), slot);
        }
        let ret_slot = match ret_ty {
            Ty::Void => Slot::Void,
            Ty::Event | Ty::Group => Slot::Obj(self.objs.get()),
            Ty::Bool => Slot::Reg {
                r: self.regs.get(),
                is_bool: true,
            },
            _ => Slot::Reg {
                r: self.regs.get(),
                is_bool: false,
            },
        };
        self.frames.push(Frame {
            vars,
            ret: Some(RetCtx {
                slot: ret_slot,
                jumps: Vec::new(),
            }),
        });
        self.block(&body);
        let frame = self.frames.pop().expect("fun frame");
        for j in frame.ret.expect("fun").jumps {
            self.patch(j);
        }
        self.depth -= 1;
        match ret_slot {
            Slot::Reg { r, is_bool } => Val::Reg {
                r,
                is_bool,
                temp: true,
            },
            Slot::Obj(o) => Val::Obj { o, temp: true },
            _ => Val::Void,
        }
    }

    /// Resolve an array-position name as the checker does: the current
    /// frame's array parameter of that name, else the global.
    fn resolve_array(&self, e: &Expr) -> GlobalId {
        let ExprKind::Var(id) = &e.kind else {
            panic!("checked: array argument is a name")
        };
        match self.frames.last().expect("frame").vars.get(&id.name) {
            Some(Slot::ArrayRef(gid)) => *gid,
            _ => self.prog.info.globals_by_name[&id.name],
        }
    }

    fn memop_id(&mut self, e: &Expr) -> u16 {
        let ExprKind::Var(id) = &e.kind else {
            panic!("checked: memop position holds a name")
        };
        let ir = self.prog.memops[&id.name].clone();
        self.pools.memop_id(&ir)
    }

    fn builtin(&mut self, builtin: Builtin, args: &[Expr]) -> Val {
        match builtin {
            Builtin::ArrayGet
            | Builtin::ArrayGetm
            | Builtin::ArraySet
            | Builtin::ArraySetm
            | Builtin::ArrayUpdate => {
                let gid = self.resolve_array(&args[0]).0 as u32;
                let iv = self.expr(&args[1]);
                let idx = self.reg_of(iv);
                // The walker bounds-checks before evaluating any memop
                // argument; keeping that order keeps error runs
                // bit-identical too.
                self.emit(Instr::ArrCheck { gid, idx });
                let out = match builtin {
                    Builtin::ArrayGet => {
                        let dst = self.regs.get();
                        self.emit(Instr::ArrGet { dst, gid, idx });
                        Val::Reg {
                            r: dst,
                            is_bool: false,
                            temp: true,
                        }
                    }
                    Builtin::ArrayGetm => {
                        let memop = self.memop_id(&args[2]);
                        let lv = self.expr(&args[3]);
                        let local = self.reg_of(lv);
                        self.release(lv);
                        let dst = self.regs.get();
                        self.emit(Instr::ArrGetm {
                            dst,
                            gid,
                            idx,
                            memop,
                            local,
                        });
                        Val::Reg {
                            r: dst,
                            is_bool: false,
                            temp: true,
                        }
                    }
                    Builtin::ArraySet => {
                        let vv = self.expr(&args[2]);
                        let val = self.reg_of(vv);
                        self.release(vv);
                        self.emit(Instr::ArrSet { gid, idx, val });
                        Val::Void
                    }
                    Builtin::ArraySetm => {
                        let memop = self.memop_id(&args[2]);
                        let lv = self.expr(&args[3]);
                        let local = self.reg_of(lv);
                        self.release(lv);
                        self.emit(Instr::ArrSetm {
                            gid,
                            idx,
                            memop,
                            local,
                        });
                        Val::Void
                    }
                    Builtin::ArrayUpdate => {
                        let getop = self.memop_id(&args[2]);
                        let gv = self.expr(&args[3]);
                        let setop = self.memop_id(&args[4]);
                        let sv = self.expr(&args[5]);
                        let (getarg, setarg) = (self.reg_of(gv), self.reg_of(sv));
                        self.release(gv);
                        self.release(sv);
                        let dst = self.regs.get();
                        self.emit(Instr::ArrUpdate {
                            dst,
                            gid,
                            idx,
                            getop,
                            getarg,
                            setop,
                            setarg,
                        });
                        Val::Reg {
                            r: dst,
                            is_bool: false,
                            temp: true,
                        }
                    }
                    _ => unreachable!(),
                };
                self.release(iv);
                out
            }
            Builtin::EventDelay | Builtin::EventLocate => {
                let ev = self.expr(&args[0]);
                let obj = self.owned_obj(ev);
                let av = self.expr(&args[1]);
                let arg = self.reg_of(av);
                self.release(av);
                if builtin == Builtin::EventDelay {
                    self.emit(Instr::EvDelay { obj, us: arg });
                } else {
                    self.emit(Instr::EvLocate { obj, loc: arg });
                }
                Val::Obj { o: obj, temp: true }
            }
            Builtin::EventMLocate => {
                let ev = self.expr(&args[0]);
                let obj = self.owned_obj(ev);
                let gv = self.expr(&args[1]);
                let group = match gv {
                    Val::Obj { o, .. } => o,
                    other => panic!("checked: group argument, got {other:?}"),
                };
                self.emit(Instr::EvMLocate { obj, group });
                self.release(gv);
                Val::Obj { o: obj, temp: true }
            }
            Builtin::SysTime => {
                let dst = self.regs.get();
                self.emit(Instr::LoadTime { dst });
                Val::Reg {
                    r: dst,
                    is_bool: false,
                    temp: true,
                }
            }
            Builtin::SysSelf => {
                let dst = self.regs.get();
                self.emit(Instr::LoadSelf { dst });
                Val::Reg {
                    r: dst,
                    is_bool: false,
                    temp: true,
                }
            }
            Builtin::SysPort => {
                let dst = self.regs.get();
                self.emit(Instr::LoadPort { dst });
                Val::Reg {
                    r: dst,
                    is_bool: false,
                    temp: true,
                }
            }
        }
    }
}
