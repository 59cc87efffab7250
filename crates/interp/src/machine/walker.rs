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
//! members, a [`GlobalId`] or an array parameter's slot, a memop /
//! function / event-constructor index.
//!
//! Names resolve lexically, by the checker's rule (and the bytecode
//! compiler's and the P4 backend's): a name means its innermost
//! enclosing binding in the running body — a parameter, or a local whose
//! block is still open — and otherwise `SELF`, the const or the group of
//! that name. In array position it means the running body's own array
//! parameter of that name, or else the global. Each binding owns a slot,
//! reused once its block closes, so a read never meets an unbound slot.
//!
//! It is resolution only. Nothing is folded, inlined or inferred: a
//! literal takes the width the checker wrote into it, every operator is
//! `lucid_check::arith`'s (the bytecode executor calls the same table),
//! [`Value`]s carry their width at run time (assignment keeps the width
//! of the `Int` already in the slot), evaluation order is the by-name
//! walker's (index, bounds check, then memop operands), and every
//! `checked:` invariant still panics — so this stays a structurally
//! independent oracle for the bytecode compiler's control flow, call
//! sites and register use.
//!
//! An activation's locals are a window of one `Vec` kept on the
//! [`Shard`] (like the bytecode register file), so handling an event
//! allocates only the argument buffers of the events it generates and
//! the `printf` lines it prints.

use super::{format_printf, value_of, Emitted, Exec, InterpError, InterpFault, Key, OutRec, Shard};
use crate::value::{lucid_hash, EventVal, Location, Value};
use lucid_check::{arith, eval_memop, mask, CheckedProgram, GlobalId, MemopIr};
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
    /// Parameter types in declaration order; parameter `i` binds slot `i`.
    params: Box<[Ty]>,
    /// Most bindings live at once: the size of its activation window.
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
    /// A name in value position bound in the running body: its slot.
    Local(u32),
    SelfId,
    Const(Box<Value>),
    Group(Box<[u64]>),
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

/// A call argument, by the kind of parameter it binds.
enum Arg {
    Array(ArrayRef),
    Val(Expr),
}

/// A name in array position.
enum ArrayRef {
    Global(GlobalId),
    /// The running body's array parameter: its slot holds the global's id.
    Param(u32),
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
    /// The bindings live at this point of the body being resolved,
    /// innermost last: slot `i` belongs to `scope[i]`, a `(name, is an
    /// array parameter)` pair.
    scope: Vec<(&'p str, bool)>,
    /// The body's most bindings live at once.
    nslots: usize,
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
            scope: Vec::new(),
            nslots: 0,
        };
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
        let outer = (std::mem::take(&mut self.scope), self.nslots);
        self.nslots = 0;
        for p in params {
            self.declare(&p.name.name, matches!(p.ty, Ty::Array(_)));
        }
        let block = self.block(block);
        let body = Body {
            params: params.iter().map(|p| p.ty).collect(),
            nslots: self.nslots,
            block,
        };
        (self.scope, self.nslots) = outer;
        body
    }

    /// A new binding of `name`, in a slot of its own.
    fn declare(&mut self, name: &'p str, array: bool) -> u32 {
        self.scope.push((name, array));
        self.nslots = self.nslots.max(self.scope.len());
        (self.scope.len() - 1) as u32
    }

    /// The innermost live binding of `name`: `(slot, is an array param)`.
    fn lookup(&self, name: &str) -> Option<(u32, bool)> {
        let at = self.scope.iter().rposition(|(n, _)| *n == name)?;
        Some((at as u32, self.scope[at].1))
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
        match self.lookup(&id.name) {
            Some((slot, true)) => ArrayRef::Param(slot),
            _ => ArrayRef::Global(self.prog.info.globals_by_name[&id.name]),
        }
    }

    /// The block's own bindings leave scope at its end.
    fn block(&mut self, b: &'p ast::Block) -> Block {
        let open = self.scope.len();
        let block = b.stmts.iter().map(|s| self.stmt(s)).collect();
        self.scope.truncate(open);
        block
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
                Stmt::Local(
                    self.declare(&name.name, false),
                    ty.and_then(Ty::int_width),
                    init,
                )
            }
            StmtKind::Assign { name, value } => {
                let (slot, _) = self.lookup(&name.name).expect("checked: assigns a local");
                Stmt::Assign(slot, self.expr(value))
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
            ExprKind::Int { value, width } => {
                Expr::Int(*value, *width.get().expect("checked: literal width"))
            }
            ExprKind::Bool(b) => Expr::Bool(*b),
            ExprKind::Var(id) => self.var(&id.name),
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

    /// A name in value position: the innermost binding, else `SELF`,
    /// the const or the group of that name.
    fn var(&self, name: &str) -> Expr {
        let info = &self.prog.info;
        if let Some((slot, _)) = self.lookup(name) {
            Expr::Local(slot)
        } else if name == "SELF" {
            Expr::SelfId
        } else if let Some(c) = info.consts.get(name) {
            Expr::Const(Box::new(value_of(c.ty, c.value)))
        } else if let Some(g) = info.groups.get(name) {
            Expr::Group(g.members.as_slice().into())
        } else {
            panic!("checked program has unbound var `{name}`")
        }
    }

    fn call(&mut self, callee: &'p str, args: &'p [ast::Expr]) -> Expr {
        let fun = self.prog.fun_body(callee);
        let (_, params, body) = fun.expect("checked: function exists");
        let known = self.fun_names.iter().position(|n| *n == callee);
        let fun = known.unwrap_or_else(|| {
            // First call: resolve the body. The index is claimed before
            // descending, so functions the body calls number after it.
            let id = self.fun_names.len();
            self.fun_names.push(callee);
            self.out.funs.push(Body::default());
            self.out.funs[id] = self.body(params, body);
            id
        }) as u32;
        let arg = |(p, a): (&'p ast::Param, &'p ast::Expr)| match p.ty {
            Ty::Array(_) => Arg::Array(self.array(a)),
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
        shard.walk_frame.resize(h.nslots, Value::Void);
        shard.bc_hash.clear();
        for (slot, (ty, raw)) in shard.walk_frame.iter_mut().zip(h.params.iter().zip(args)) {
            *slot = value_of(*ty, *raw);
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
    fn slot(&mut self, slot: u32) -> &mut Value {
        &mut self.shard.walk_frame[self.base + slot as usize]
    }

    fn int(&mut self, e: &Expr) -> Eval<u64> {
        Ok(self.eval(e)?.as_int().expect("checked"))
    }

    fn bool(&mut self, e: &Expr) -> Eval<bool> {
        Ok(self.eval(e)?.as_bool().expect("checked"))
    }

    /// An operand of an integer operator and its width (a boolean is one
    /// bit).
    fn operand(&mut self, e: &Expr) -> Eval<(u64, u32)> {
        Ok(match self.eval(e)? {
            Value::Int { v, width } => (v, width),
            Value::Bool(b) => (b as u64, 1),
            _ => panic!("checked: arithmetic on non-int"),
        })
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
                *self.slot(*slot) = v;
            }
            Stmt::Assign(slot, value) => {
                let v = self.eval(value)?;
                let cell = self.slot(*slot);
                *cell = match (&*cell, v) {
                    (Value::Int { width, .. }, Value::Int { v: x, .. }) => Value::int(x, *width),
                    (_, v) => v,
                };
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
            Expr::Local(slot) => self.shard.walk_frame[self.base + *slot as usize].clone(),
            Expr::SelfId => Value::int(self.switch, 32),
            Expr::Const(v) => (**v).clone(),
            Expr::Group(members) => Value::Group(members.to_vec()),
            Expr::Unary(UnOp::Not, arg) => Value::Bool(!self.bool(arg)?),
            Expr::Unary(op, arg) => {
                let (a, width) = self.operand(arg)?;
                Value::Int {
                    v: arith::unop(*op, a, width),
                    width,
                }
            }
            // The logical connectives short-circuit.
            Expr::Binary(BinOp::And, lhs, rhs) => Value::Bool(self.bool(lhs)? && self.bool(rhs)?),
            Expr::Binary(BinOp::Or, lhs, rhs) => Value::Bool(self.bool(lhs)? || self.bool(rhs)?),
            Expr::Binary(op, lhs, rhs) => {
                let (a, wa) = self.operand(lhs)?;
                let (b, wb) = self.operand(rhs)?;
                debug_assert!(
                    wa == wb || matches!(op, BinOp::Shl | BinOp::Shr),
                    "checked: the operands of `{op}` have one width (E0403), got {wa} and {wb}"
                );
                if op.is_comparison() {
                    Value::Bool(arith::cmp(*op, a, b))
                } else {
                    Value::Int {
                        v: arith::binop(*op, a, b, wa),
                        width: wa,
                    }
                }
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
        self.shard.walk_frame.resize(window + f.nslots, Value::Void);
        for (slot, a) in (window..).zip(args) {
            self.shard.walk_frame[slot] = match a {
                // An array parameter reads as its global's id.
                Arg::Array(arr) => Value::int(self.array(arr).0 as u64, 32),
                Arg::Val(e) => self.eval(e)?,
            };
        }
        let caller = std::mem::replace(&mut self.base, window);
        let flow = self.block(&f.block)?;
        self.base = caller;
        self.shard.walk_frame.truncate(window);
        Ok(match flow {
            Flow::Returned(v) => v,
            Flow::Normal => Value::Void,
        })
    }

    /// The global an array-position name denotes.
    fn array(&self, arr: &ArrayRef) -> GlobalId {
        match arr {
            ArrayRef::Global(gid) => *gid,
            ArrayRef::Param(slot) => {
                let id = self.shard.walk_frame[self.base + *slot as usize].as_int();
                GlobalId(id.expect("checked: an array parameter holds its global's id") as usize)
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
