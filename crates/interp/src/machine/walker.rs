//! The AST walker — the reference executor — in two halves: a resolver
//! that runs once per (program, world), and an evaluator that walks what
//! it produced once per event.
//!
//! The checked AST speaks in names, and looking them up per event (a
//! `String`-keyed environment, a hash per const / global / callee, a
//! scan of the declarations per handler) used to be most of the walker's
//! cost. [`Resolved::new`] copies every handler body, and every function
//! body a handler can reach, into a private tree whose nodes carry what
//! each name *denotes*: a local slot, a const's value, `SELF`, a group's
//! members, a [`GlobalId`] or a reference to the dynamic array-parameter
//! stack, a memop / function / event-constructor index.
//!
//! It is resolution only. Nothing is folded, inlined or inferred:
//! [`Value`]s still carry their width at run time, evaluation order is
//! the by-name walker's (index, bounds check, then memop operands), and
//! every `checked:` invariant still panics — so this stays a
//! structurally independent oracle for the bytecode compiler, which
//! *does* decide widths, scopes and call sites statically. What the
//! by-name walker answered dynamically, this one does too:
//!
//! * the environment is flat per activation — one slot per distinct
//!   name a body binds, whichever block binds it — and reading a slot
//!   nothing has bound yet falls through to `SELF` / the const / the
//!   group of that name, exactly as the environment miss did;
//! * assignment keeps the width of the `Int` already in the slot;
//! * array-position names resolve through the array parameters of *all*
//!   live activations, innermost first, before the globals.
//!
//! An activation's locals are a window of one `Vec` kept on the
//! [`Shard`] (like the bytecode register file), so handling an event
//! allocates only the argument buffers of the events it generates and
//! the `printf` lines it prints.

use super::{
    eval_binop, format_printf, value_of, Emitted, Exec, InterpError, InterpFault, Key, OutRec,
    Shard,
};
use crate::value::{lucid_hash, EventVal, Location, Value};
use lucid_check::{eval_memop, mask, CheckedProgram, GlobalId, MemopIr};
use lucid_frontend::ast::{self, BinOp, Builtin, ExprKind, StmtKind, Ty, UnOp};
use std::sync::Arc;

/// A checked program with its names resolved, ready to walk.
pub(crate) struct Resolved {
    /// Indexed by event id; `None` = declared event with no handler.
    handlers: Vec<Option<Body>>,
    /// Every function a handler can reach, in first-call order.
    funs: Vec<Body>,
    /// Every memop a reachable body names, in first-use order.
    memops: Vec<MemopIr>,
    /// Per event id, what constructing one needs: its parameter widths
    /// (arguments are masked to them) and the world's interned name.
    events: Vec<(Box<[u32]>, Arc<str>)>,
}

/// One handler or function body.
#[derive(Default)]
struct Body {
    /// The slot each parameter binds, in declaration order.
    params: Box<[(u32, Ty)]>,
    /// Distinct names the body binds: the size of its activation window.
    nslots: usize,
    block: Block,
}

type Block = Box<[Stmt]>;

enum Stmt {
    /// `(slot, w, init)`: a declared `int<<w>>` re-masks an `Int`
    /// initializer; any other declaration binds the value as it is.
    Local(u32, Option<u32>, Expr),
    /// `(slot, value)`.
    Assign(u32, Expr),
    /// `(cond, then, else)`.
    If(Expr, Block, Option<Block>),
    Generate(Expr),
    Return(Option<Expr>),
    /// `(format, args)`.
    Printf(Box<str>, Box<[Expr]>),
    Expr(Expr),
}

enum Expr {
    /// `(value, width)`.
    Int(u64, u32),
    Bool(bool),
    /// A name in value position: the activation's slot for it, if the
    /// body binds that name anywhere before this read, and what the name
    /// means otherwise — or while the slot is still unbound.
    Var(Option<u32>, Global),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `(width, arg)`.
    Cast(u32, Box<Expr>),
    /// `(width, seed and args)`.
    Hash(u32, Box<[Expr]>),
    /// Event constructor: `(event id, args)`.
    MkEvent(u32, Box<[Expr]>),
    /// User function call: `(index into Resolved::funs, args)`.
    Call(u32, Box<[Arg]>),
    Array(Box<ArrayOp>),
    /// `Event.*` (event, then its operand) and `Sys.*` (no arguments).
    Builtin(Builtin, Box<[Expr]>),
}

/// What a name denotes when no local binds it.
enum Global {
    SelfId,
    Const(Box<Value>),
    Group(Box<[u64]>),
    /// Nothing: reading it is a checker bug, reported by name.
    Unbound(Box<str>),
}

/// A call argument, by the kind of parameter it binds.
enum Arg {
    /// `(id of the parameter's name, argument)`: an array parameter goes
    /// on the dynamic array stack under its own name.
    Array(u32, ArrayRef),
    Val(Expr),
}

/// A name in array position.
enum ArrayRef {
    Global(GlobalId),
    /// `(name id, global of that name)`: the name is some function's
    /// array parameter, so a live activation may have bound it — search
    /// the dynamic stack first, then fall back to the global, if any.
    Param(u32, Option<GlobalId>),
}

/// `Array.*(arr, idx, ..)`; memops are indexes into [`Resolved::memops`].
struct ArrayOp {
    arr: ArrayRef,
    idx: Expr,
    rest: ArrayRest,
}

enum ArrayRest {
    Get,
    /// `(memop, local)`.
    Getm(u32, Expr),
    Set(Expr),
    /// `(memop, local)`.
    Setm(u32, Expr),
    /// `(getop, getarg, setop, setarg)`.
    Update(u32, Expr, u32, Expr),
}

// ------------------------------------------------------------ resolver

struct Resolver<'p> {
    prog: &'p CheckedProgram,
    out: Resolved,
    /// `out.funs[i]` is the function named `fun_names[i]`.
    fun_names: Vec<&'p str>,
    /// Every array-parameter name in the program. Only these can be on
    /// the dynamic array stack, so only they resolve through it.
    array_names: Vec<&'p str>,
    /// The body being resolved: slot `i` belongs to `scope[i]`.
    scope: Vec<&'p str>,
}

fn index_of(names: &[&str], name: &str) -> Option<u32> {
    names.iter().position(|n| *n == name).map(|i| i as u32)
}

impl Resolved {
    /// Resolve every handler of `prog`, and every function one can
    /// reach. Uncalled functions are skipped, as the checker skips them:
    /// nothing has vouched for their bodies. `names` are the world's
    /// interned event names, by event id.
    pub(crate) fn new(prog: &CheckedProgram, names: &[Arc<str>]) -> Resolved {
        let ctor = |(e, name): (&lucid_check::EventInfo, &Arc<str>)| {
            let widths = e.params.iter().map(|p| p.ty.int_width().unwrap_or(32));
            (widths.collect(), Arc::clone(name))
        };
        let mut r = Resolver {
            prog,
            out: Resolved {
                handlers: Vec::new(),
                funs: Vec::new(),
                memops: Vec::new(),
                events: prog.info.events.iter().zip(names).map(ctor).collect(),
            },
            fun_names: Vec::new(),
            array_names: Vec::new(),
            scope: Vec::new(),
        };
        for decl in &prog.program.decls {
            if let ast::DeclKind::Fun { params, .. } = &decl.kind {
                let arrays = params.iter().filter(|p| matches!(p.ty, Ty::Array(_)));
                r.array_names.extend(arrays.map(|p| p.name.name.as_str()));
            }
        }
        for ev in &prog.info.events {
            let handler = prog.handler_body(&ev.name);
            let handler = handler.map(|(params, body)| r.body(params, body));
            r.out.handlers.push(handler);
        }
        r.out
    }
}

impl<'p> Resolver<'p> {
    fn body(&mut self, params: &'p [ast::Param], block: &'p ast::Block) -> Body {
        let outer = std::mem::take(&mut self.scope);
        let params = params.iter().map(|p| (self.declare(&p.name.name), p.ty));
        let body = Body {
            params: params.collect(),
            block: self.block(block),
            nslots: self.scope.len(),
        };
        self.scope = outer;
        body
    }

    /// The slot `name` binds in the current body, made on first sight:
    /// the environment is flat, so every binding of one name — in any
    /// block — is the same slot.
    fn declare(&mut self, name: &'p str) -> u32 {
        index_of(&self.scope, name).unwrap_or_else(|| {
            self.scope.push(name);
            (self.scope.len() - 1) as u32
        })
    }

    fn memop(&mut self, e: &ast::Expr) -> u32 {
        let ExprKind::Var(id) = &e.kind else {
            panic!("checked: memop position holds a name")
        };
        let at = self.out.memops.iter().position(|m| m.name == id.name);
        at.unwrap_or_else(|| {
            self.out.memops.push(self.prog.memops[&id.name].clone());
            self.out.memops.len() - 1
        }) as u32
    }

    fn array(&self, e: &ast::Expr) -> ArrayRef {
        let ExprKind::Var(id) = &e.kind else {
            panic!("checked: array argument is a name")
        };
        let global = self.prog.info.globals_by_name.get(&id.name).copied();
        match (index_of(&self.array_names, &id.name), global) {
            (Some(name), global) => ArrayRef::Param(name, global),
            (None, Some(gid)) => ArrayRef::Global(gid),
            (None, None) => panic!("checked: `{}` is not an array", id.name),
        }
    }

    fn block(&mut self, b: &'p ast::Block) -> Block {
        b.stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn exprs(&mut self, es: &'p [ast::Expr]) -> Box<[Expr]> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn boxed(&mut self, e: &'p ast::Expr) -> Box<Expr> {
        Box::new(self.expr(e))
    }

    fn stmt(&mut self, s: &'p ast::Stmt) -> Stmt {
        match &s.kind {
            // An initializer is resolved before the name it binds: it
            // cannot see that binding.
            StmtKind::Local { ty, name, init } => {
                let init = self.expr(init);
                Stmt::Local(self.declare(&name.name), ty.and_then(Ty::int_width), init)
            }
            StmtKind::Assign { name, value } => {
                let value = self.expr(value);
                Stmt::Assign(self.declare(&name.name), value)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (cond, then_blk) = (self.expr(cond), self.block(then_blk));
                Stmt::If(cond, then_blk, else_blk.as_ref().map(|b| self.block(b)))
            }
            StmtKind::Generate(e) | StmtKind::MGenerate(e) => Stmt::Generate(self.expr(e)),
            StmtKind::Return(e) => Stmt::Return(e.as_ref().map(|e| self.expr(e))),
            StmtKind::Printf { fmt, args } => Stmt::Printf(fmt.as_str().into(), self.exprs(args)),
            StmtKind::Expr(e) => Stmt::Expr(self.expr(e)),
        }
    }

    fn expr(&mut self, e: &'p ast::Expr) -> Expr {
        match &e.kind {
            ExprKind::Int { value, width } => Expr::Int(*value, width.unwrap_or(32)),
            ExprKind::Bool(b) => Expr::Bool(*b),
            ExprKind::Var(id) => Expr::Var(index_of(&self.scope, &id.name), self.global(&id.name)),
            ExprKind::Unary { op, arg } => Expr::Unary(*op, self.boxed(arg)),
            ExprKind::Binary { op, lhs, rhs } => {
                let lhs = self.boxed(lhs);
                Expr::Binary(*op, lhs, self.boxed(rhs))
            }
            ExprKind::Cast { width, arg } => Expr::Cast(*width, self.boxed(arg)),
            ExprKind::Hash { width, args } => Expr::Hash(*width, self.exprs(args)),
            ExprKind::Call { callee, args } => match self.prog.info.event(&callee.name) {
                Some(ev) => Expr::MkEvent(ev.id as u32, self.exprs(args)),
                None => self.call(&callee.name, args),
            },
            ExprKind::BuiltinCall { builtin, args, .. } => self.builtin(*builtin, args),
        }
    }

    /// What `name` means when no local binds it, in the by-name walker's
    /// order: `SELF`, then consts, then groups.
    fn global(&self, name: &str) -> Global {
        let info = &self.prog.info;
        if name == "SELF" {
            Global::SelfId
        } else if let Some(c) = info.consts.get(name) {
            Global::Const(Box::new(value_of(c.ty, c.value)))
        } else if let Some(g) = info.groups.get(name) {
            Global::Group(g.members.as_slice().into())
        } else {
            Global::Unbound(name.into())
        }
    }

    fn call(&mut self, callee: &'p str, args: &'p [ast::Expr]) -> Expr {
        let fun = self.prog.fun_body(callee);
        let (_, params, body) = fun.expect("checked: function exists");
        let fun = index_of(&self.fun_names, callee).unwrap_or_else(|| {
            // First call: resolve the body. The index is claimed before
            // descending, so functions the body calls number after it.
            let id = self.fun_names.len();
            self.fun_names.push(callee);
            self.out.funs.push(Body::default());
            self.out.funs[id] = self.body(params, body);
            id as u32
        });
        let arg = |(p, a): (&'p ast::Param, &'p ast::Expr)| match p.ty {
            Ty::Array(_) => {
                let name = index_of(&self.array_names, &p.name.name);
                Arg::Array(name.expect("collected up front"), self.array(a))
            }
            _ => Arg::Val(self.expr(a)),
        };
        Expr::Call(fun, params.iter().zip(args).map(arg).collect())
    }

    fn builtin(&mut self, builtin: Builtin, args: &'p [ast::Expr]) -> Expr {
        let rest = match builtin {
            Builtin::ArrayGet => ArrayRest::Get,
            Builtin::ArrayGetm => ArrayRest::Getm(self.memop(&args[2]), self.expr(&args[3])),
            Builtin::ArraySet => ArrayRest::Set(self.expr(&args[2])),
            Builtin::ArraySetm => ArrayRest::Setm(self.memop(&args[2]), self.expr(&args[3])),
            Builtin::ArrayUpdate => {
                let (getop, getarg) = (self.memop(&args[2]), self.expr(&args[3]));
                ArrayRest::Update(getop, getarg, self.memop(&args[4]), self.expr(&args[5]))
            }
            _ => return Expr::Builtin(builtin, self.exprs(args)),
        };
        let (arr, idx) = (self.array(&args[0]), self.expr(&args[1]));
        Expr::Array(Box::new(ArrayOp { arr, idx, rest }))
    }
}

// ----------------------------------------------------------- evaluator

/// Faults are rare and [`InterpError`] is wide: boxed, it stops widening
/// every value an expression returns.
type Eval<T> = Result<T, Box<InterpError>>;

/// Flow of control inside a body.
enum Flow {
    Normal,
    Returned(Value),
}

/// One handler activation (and, nested inside it, the activations of
/// the functions it calls) on one shard.
struct Walk<'a> {
    code: &'a Resolved,
    exec: &'a Exec,
    shard: &'a mut Shard,
    switch: u64,
    key: Key,
    /// Where the running activation's window starts in
    /// `shard.walk_frame`.
    base: usize,
}

impl Resolved {
    /// Run the event's handler — `None` if it has none — on its shard;
    /// the caller (dispatch) records trace and statistics.
    pub(crate) fn run_handler(
        &self,
        event_id: usize,
        exec: &Exec,
        shard: &mut Shard,
        switch: u64,
        key: Key,
        args: &[u64],
    ) -> Option<Result<(), InterpError>> {
        let h = self.handlers[event_id].as_ref()?;
        // Reuse the shard's scratch buffers across events; a faulted
        // activation may have left them mid-use.
        shard.walk_frame.clear();
        shard.walk_frame.resize(h.nslots, None);
        shard.walk_arrays.clear();
        shard.bc_hash.clear();
        for ((slot, ty), raw) in h.params.iter().zip(args) {
            shard.walk_frame[*slot as usize] = Some(value_of(*ty, *raw));
        }
        let mut walk = Walk {
            code: self,
            exec,
            shard,
            switch,
            key,
            base: 0,
        };
        Some(walk.block(&h.block).map(drop).map_err(|e| *e))
    }
}

impl Walk<'_> {
    fn slot(&mut self, slot: u32) -> &mut Option<Value> {
        &mut self.shard.walk_frame[self.base + slot as usize]
    }

    fn int(&mut self, e: &Expr) -> Eval<u64> {
        Ok(self.eval(e)?.as_int().expect("checked"))
    }

    fn bool(&mut self, e: &Expr) -> Eval<bool> {
        Ok(self.eval(e)?.as_bool().expect("checked"))
    }

    fn block(&mut self, b: &[Stmt]) -> Eval<Flow> {
        for s in b {
            if let r @ Flow::Returned(_) = self.stmt(s)? {
                return Ok(r);
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, s: &Stmt) -> Eval<Flow> {
        match s {
            Stmt::Local(slot, width, init) => {
                let mut v = self.eval(init)?;
                if let (Some(w), Value::Int { v: x, .. }) = (width, &v) {
                    v = Value::int(*x, *w);
                }
                *self.slot(*slot) = Some(v);
            }
            Stmt::Assign(slot, value) => {
                let v = self.eval(value)?;
                let cell = self.slot(*slot);
                *cell = Some(match (&*cell, v) {
                    (Some(Value::Int { width, .. }), Value::Int { v: x, .. }) => {
                        Value::int(x, *width)
                    }
                    (_, v) => v,
                });
            }
            Stmt::If(cond, then_blk, else_blk) => {
                if self.bool(cond)? {
                    return self.block(then_blk);
                } else if let Some(e) = else_blk {
                    return self.block(e);
                }
            }
            Stmt::Generate(e) => {
                let Value::Event(ev) = self.eval(e)? else {
                    panic!("checked: generate of non-event")
                };
                let ev = Emitted {
                    event_id: ev.event_id,
                    args: ev.args,
                    delay_ns: ev.delay_ns,
                    location: ev.location,
                };
                self.exec.emit(self.shard, ev);
            }
            Stmt::Return(None) => return Ok(Flow::Returned(Value::Void)),
            Stmt::Return(Some(e)) => return Ok(Flow::Returned(self.eval(e)?)),
            Stmt::Printf(fmt, args) => {
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let line = format_printf(fmt, &vals);
                self.shard.output.push((self.key, OutRec::Line(line)));
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(&mut self, e: &Expr) -> Eval<Value> {
        Ok(match e {
            Expr::Int(value, width) => Value::int(*value, *width),
            Expr::Bool(b) => Value::Bool(*b),
            Expr::Var(slot, global) => {
                let bound = slot.map(|s| &self.shard.walk_frame[self.base + s as usize]);
                match (bound, global) {
                    (Some(Some(v)), _) => v.clone(),
                    (_, Global::SelfId) => Value::int(self.switch, 32),
                    (_, Global::Const(v)) => (**v).clone(),
                    (_, Global::Group(members)) => Value::Group(members.to_vec()),
                    (_, Global::Unbound(name)) => {
                        panic!("checked program has unbound var `{name}`")
                    }
                }
            }
            Expr::Unary(op, arg) => match (op, self.eval(arg)?) {
                (UnOp::Not, v) => Value::Bool(!v.as_bool().expect("checked")),
                (UnOp::Neg, Value::Int { v, width }) => Value::int(v.wrapping_neg(), width),
                (UnOp::BitNot, Value::Int { v, width }) => Value::int(!v, width),
                _ => panic!("checked"),
            },
            // The logical connectives short-circuit.
            Expr::Binary(BinOp::And, lhs, rhs) => Value::Bool(self.bool(lhs)? && self.bool(rhs)?),
            Expr::Binary(BinOp::Or, lhs, rhs) => Value::Bool(self.bool(lhs)? || self.bool(rhs)?),
            Expr::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs)?;
                eval_binop(*op, &l, &self.eval(rhs)?)
            }
            Expr::Cast(width, arg) => Value::int(self.int(arg)?, *width),
            Expr::Hash(width, args) => {
                // Operands collect on a stack the shard keeps, above
                // those of any hash this one is an operand of.
                let mark = self.shard.bc_hash.len();
                for a in args {
                    let v = self.int(a)?;
                    self.shard.bc_hash.push(v);
                }
                let operands = self.shard.bc_hash[mark..].split_first();
                let (seed, rest) = operands.expect("parser: nonempty");
                let h = lucid_hash(*width, *seed, rest);
                self.shard.bc_hash.truncate(mark);
                Value::int(h, *width)
            }
            Expr::MkEvent(event, args) => {
                let code = self.code;
                let (widths, name) = &code.events[*event as usize];
                // From the worker's arena (exactly sized when fresh): the
                // buffer outlives the handler, in the schedule and then
                // the trace or the arena again.
                let mut vals = self.shard.arena.take(args.len());
                for (a, w) in args.iter().zip(widths.iter()) {
                    vals.push(mask(self.int(a)?, *w));
                }
                Value::Event(EventVal {
                    event_id: *event as usize,
                    name: Arc::clone(name),
                    args: vals,
                    delay_ns: 0,
                    location: Location::Here,
                })
            }
            Expr::Call(fun, args) => self.call(*fun, args)?,
            Expr::Array(op) => self.array_op(op)?,
            Expr::Builtin(Builtin::SysTime, _) => Value::int(self.shard.now_ns / 1_000, 32),
            Expr::Builtin(Builtin::SysSelf, _) => Value::int(self.switch, 32),
            Expr::Builtin(Builtin::SysPort, _) => Value::int(0, 32),
            Expr::Builtin(op, args) => {
                let mut v = self.eval(&args[0])?;
                let arg = self.eval(&args[1])?;
                if let Value::Event(ev) = &mut v {
                    match (op, arg) {
                        (Builtin::EventDelay, d_us) => {
                            ev.delay_ns += d_us.as_int().expect("checked") * 1_000;
                        }
                        (Builtin::EventLocate, loc) => {
                            ev.location = Location::Switch(loc.as_int().expect("checked"));
                        }
                        (_, Value::Group(g)) => ev.location = Location::Group(g),
                        _ => panic!("checked: group"),
                    }
                }
                v
            }
        })
    }

    /// Run a user function: evaluate the arguments in the caller's
    /// window, binding each into a fresh window above every live one,
    /// then run the body there.
    fn call(&mut self, fun: u32, args: &[Arg]) -> Eval<Value> {
        let code = self.code;
        let f = &code.funs[fun as usize];
        let window = self.shard.walk_frame.len();
        self.shard.walk_frame.resize(window + f.nslots, None);
        let arrays = self.shard.walk_arrays.len();
        for ((slot, _), a) in f.params.iter().zip(args) {
            let v = match a {
                // An array parameter goes on the dynamic stack as soon
                // as it is bound — later arguments already see it — and
                // reads as its global's id in value position.
                Arg::Array(name, arr) => {
                    let gid = self.array(arr);
                    self.shard.walk_arrays.push((*name, gid));
                    Value::int(gid.0 as u64, 32)
                }
                Arg::Val(e) => self.eval(e)?,
            };
            self.shard.walk_frame[window + *slot as usize] = Some(v);
        }
        let caller = std::mem::replace(&mut self.base, window);
        let flow = self.block(&f.block)?;
        self.base = caller;
        self.shard.walk_frame.truncate(window);
        self.shard.walk_arrays.truncate(arrays);
        Ok(match flow {
            Flow::Returned(v) => v,
            Flow::Normal => Value::Void,
        })
    }

    /// The global an array-position name denotes right now.
    fn array(&self, arr: &ArrayRef) -> GlobalId {
        match arr {
            ArrayRef::Global(gid) => *gid,
            ArrayRef::Param(name, global) => {
                let mut live = self.shard.walk_arrays.iter().rev();
                let bound = live.find(|(n, _)| n == name).map(|(_, gid)| *gid);
                bound.or(*global).expect("checked: array name is bound")
            }
        }
    }

    fn array_op(&mut self, op: &ArrayOp) -> Eval<Value> {
        let (code, exec) = (self.code, self.exec);
        let gid = self.array(&op.arr);
        let g = &exec.prog.info.globals[gid.0];
        let idx = self.int(&op.idx)?;
        if idx >= g.len {
            return Err(Box::new(
                InterpFault::IndexOutOfBounds {
                    array: g.name.clone(),
                    index: idx,
                    len: g.len,
                }
                .into(),
            ));
        }
        let (i, w) = (idx as usize, g.cell_width);
        let cur = self.shard.state.arrays[gid.0][i];
        let memop = |m: &u32, local: u64| eval_memop(&code.memops[*m as usize], cur, local, w);
        Ok(match &op.rest {
            ArrayRest::Get => Value::int(cur, w),
            ArrayRest::Getm(m, local) => Value::int(memop(m, self.int(local)?), w),
            ArrayRest::Set(value) => {
                self.shard.state.arrays[gid.0][i] = mask(self.int(value)?, w);
                Value::Void
            }
            ArrayRest::Setm(m, local) => {
                self.shard.state.arrays[gid.0][i] = memop(m, self.int(local)?);
                Value::Void
            }
            ArrayRest::Update(getop, getarg, setop, setarg) => {
                let (getarg, setarg) = (self.int(getarg)?, self.int(setarg)?);
                let ret = memop(getop, getarg);
                self.shard.state.arrays[gid.0][i] = memop(setop, setarg);
                Value::int(ret, w)
            }
        })
    }
}
