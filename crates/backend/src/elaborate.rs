//! Elaboration: checked AST → atomic tables (§6.1).
//!
//! Three transformations happen here, in one recursive walk per handler:
//!
//! 1. **Function inlining** — every call is replaced by the callee's body
//!    with parameters substituted (array parameters bind to concrete
//!    globals, mirroring the checker's per-instantiation discipline).
//!    Bodies are first *return-normalized* so that early `return`s become
//!    properly nested branches.
//! 2. **Subexpression elimination** — expressions flatten into
//!    three-address form: every intermediate lands in a fresh temp, so each
//!    statement needs at most one ALU.
//! 3. **Branch-condition inlining** — instead of materializing branch
//!    tables, each atomic table records its *guard*: the conjunction of
//!    branch-condition temps on its control path (§6.2 step 1). The
//!    pre-optimization depth (with branch tables, Figure 6(1)) is computed
//!    structurally for the Figure 12 comparison.

use crate::ir::*;
use lucid_check::{CheckedProgram, GlobalId};
use lucid_frontend::ast::*;
use lucid_frontend::diag::{Diagnostic, Diagnostics};
use std::collections::HashMap;

/// Elaborate every handler of a checked program.
pub fn elaborate(prog: &CheckedProgram) -> Result<Vec<HandlerIr>, Diagnostics> {
    let mut out = Vec::new();
    let mut diags = Diagnostics::new();
    for decl in &prog.program.decls {
        if let DeclKind::Handler { name, params, body } = &decl.kind {
            let event_id = prog.info.event(&name.name).expect("checked").id;
            let mut cx = Elab {
                prog,
                tables: Vec::new(),
                guard: Vec::new(),
                tmp: 0,
                handler: name.name.clone(),
                diags: &mut diags,
            };
            let mut env = Env::default();
            for p in params {
                // Handler parameters arrive in the event header; they are
                // already named PHV fields.
                env.bind(
                    &p.name.name,
                    Binding::Value(Operand::Var(p.name.name.clone())),
                );
            }
            let body = normalize_returns(body.clone(), None);
            cx.block(&body, &mut env);
            let unoptimized_depth = control_graph_depth(&body);
            out.push(HandlerIr {
                name: name.name.clone(),
                event_id,
                tables: cx.tables,
                unoptimized_depth,
            });
        }
    }
    if diags.has_errors() {
        Err(diags.or_code_all("E0600"))
    } else {
        Ok(out)
    }
}

/// Depth of the unoptimized atomic-table control graph (Figure 6(1)):
/// every atomic statement is one table-stage, every `if` adds a branch
/// table ahead of its branches.
fn control_graph_depth(b: &Block) -> usize {
    b.stmts.iter().map(stmt_depth).sum()
}

fn stmt_depth(s: &Stmt) -> usize {
    match &s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            let t = control_graph_depth(then_blk);
            let e = else_blk.as_ref().map_or(0, control_graph_depth);
            1 + t.max(e)
        }
        // `printf` is interpreter-only; it occupies no table.
        StmtKind::Printf { .. } => 0,
        StmtKind::Return(_) => 0,
        _ => 1,
    }
}

/// Rewrite a block so every `return` is in tail position, by pushing the
/// continuation of an early-returning `if` into its non-returning branch.
/// `ret_var`, when given, is the variable that receives returned values
/// (function inlining); handlers pass `None` and returns just cut the path.
fn normalize_returns(b: Block, ret_var: Option<&str>) -> Block {
    let span = b.span;
    Block::new(normalize_stmts(b.stmts, ret_var), span)
}

fn normalize_stmts(stmts: Vec<Stmt>, ret_var: Option<&str>) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut stmts = std::collections::VecDeque::from(stmts);
    while let Some(s) = stmts.pop_front() {
        match s.kind {
            StmtKind::Return(val) => {
                if let (Some(rv), Some(e)) = (ret_var, val) {
                    out.push(Stmt {
                        span: s.span,
                        kind: StmtKind::Assign {
                            name: Ident::synth(rv),
                            value: e,
                        },
                    });
                }
                // Anything after a return is unreachable (checker warned).
                return out;
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let then_returns = may_return(&then_blk);
                let else_returns = else_blk.as_ref().is_some_and(may_return);
                if (then_returns || else_returns) && !stmts.is_empty() {
                    let rest: Vec<Stmt> = stmts.drain(..).collect();
                    // Push the continuation into each branch; branches that
                    // return get normalized with the return swallowed.
                    let then2 = {
                        let mut ss = then_blk.stmts;
                        if !block_definitely_returns(&ss) {
                            ss.extend(rest.iter().cloned());
                        }
                        normalize_stmts(ss, ret_var)
                    };
                    let else2 = {
                        let mut ss = else_blk.map(|b| b.stmts).unwrap_or_default();
                        if !block_definitely_returns(&ss) {
                            ss.extend(rest.iter().cloned());
                        }
                        normalize_stmts(ss, ret_var)
                    };
                    let span = s.span;
                    out.push(Stmt {
                        span,
                        kind: StmtKind::If {
                            cond,
                            then_blk: Block::new(then2, span),
                            else_blk: Some(Block::new(else2, span)),
                        },
                    });
                    return out;
                }
                let span = s.span;
                out.push(Stmt {
                    span,
                    kind: StmtKind::If {
                        cond,
                        then_blk: normalize_returns(then_blk, ret_var),
                        else_blk: else_blk.map(|e| normalize_returns(e, ret_var)),
                    },
                });
            }
            other => out.push(Stmt {
                kind: other,
                span: s.span,
            }),
        }
    }
    out
}

fn may_return(b: &Block) -> bool {
    b.stmts.iter().any(|s| match &s.kind {
        StmtKind::Return(_) => true,
        StmtKind::If {
            then_blk, else_blk, ..
        } => may_return(then_blk) || else_blk.as_ref().is_some_and(may_return),
        _ => false,
    })
}

fn block_definitely_returns(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match &s.kind {
        StmtKind::Return(_) => true,
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            block_definitely_returns(&then_blk.stmts)
                && else_blk
                    .as_ref()
                    .is_some_and(|e| block_definitely_returns(&e.stmts))
        }
        _ => false,
    })
}

/// A symbolic event value tracked during elaboration.
#[derive(Debug, Clone)]
struct EventSpec {
    event_id: usize,
    event_name: String,
    args: Vec<Operand>,
    delay: Option<Operand>,
    location: LocSpec,
}

/// What a source-level name means during elaboration.
#[derive(Debug, Clone)]
enum Binding {
    Value(Operand),
    Array(GlobalId),
    Event(EventSpec),
}

/// Substitution environment: scoped map from source names to bindings.
#[derive(Debug, Clone, Default)]
struct Env {
    map: HashMap<String, Binding>,
}

impl Env {
    fn bind(&mut self, name: &str, b: Binding) {
        self.map.insert(name.to_string(), b);
    }

    fn get(&self, name: &str) -> Option<&Binding> {
        self.map.get(name)
    }

    /// Does `e` name anything this environment binds? Such a name
    /// shadows any `const` of the same name.
    fn mentions(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Var(id) => self.map.contains_key(&id.name),
            ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => self.mentions(arg),
            ExprKind::Binary { lhs, rhs, .. } => self.mentions(lhs) || self.mentions(rhs),
            _ => false,
        }
    }
}

struct Elab<'p, 'd> {
    prog: &'p CheckedProgram,
    tables: Vec<AtomicTable>,
    /// Current control-path guard.
    guard: Vec<Cond>,
    tmp: usize,
    handler: String,
    diags: &'d mut Diagnostics,
}

impl Elab<'_, '_> {
    fn fresh(&mut self, hint: &str) -> String {
        self.tmp += 1;
        format!("{}__{}_{}", self.handler, hint, self.tmp)
    }

    fn emit(&mut self, op: AtomicOp) {
        let id = self.tables.len();
        self.tables.push(AtomicTable {
            id,
            handler: self.handler.clone(),
            op,
            guard: self.guard.clone(),
        });
    }

    fn err(&mut self, msg: impl Into<String>, span: lucid_frontend::Span) {
        self.diags.push(Diagnostic::error(msg, span));
    }

    // ------------------------------------------------------------- blocks

    /// The block's own locals leave `env` at its end (the checker rules
    /// out a local that shadows another, so nothing outer is lost).
    fn block(&mut self, b: &Block, env: &mut Env) {
        for s in &b.stmts {
            self.stmt(s, env);
        }
        for s in &b.stmts {
            if let StmtKind::Local { name, .. } = &s.kind {
                env.map.remove(&name.name);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt, env: &mut Env) {
        match &s.kind {
            StmtKind::Local { name, init, .. } => {
                if let Some(spec) = self.try_event_expr(init, env) {
                    env.bind(&name.name, Binding::Event(spec));
                    return;
                }
                let dst = self.fresh(&name.name);
                self.flatten_into(&dst, init, env);
                env.bind(&name.name, Binding::Value(Operand::Var(dst)));
            }
            StmtKind::Assign { name, value } => {
                if let Some(spec) = self.try_event_expr(value, env) {
                    env.bind(&name.name, Binding::Event(spec));
                    return;
                }
                // In-place update: write through to the variable's current
                // storage so later reads (possibly on other paths) see it.
                let dst = match env.get(&name.name) {
                    Some(Binding::Value(Operand::Var(v))) => v.clone(),
                    _ => {
                        // First write to e.g. an inlined return slot.
                        let v = self.fresh(&name.name);
                        env.bind(&name.name, Binding::Value(Operand::Var(v.clone())));
                        v
                    }
                };
                self.flatten_into(&dst, value, env);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                // Directly-matchable conditions (`var cmp const`, Figure 7's
                // branch table keying on `proto`) become guard predicates
                // without materializing a temp.
                let gcond = match self.direct_cond(cond, env) {
                    Some(g) => g,
                    None => {
                        let c = self.flatten(cond, env);
                        match c {
                            Operand::Var(v) => Cond {
                                var: v,
                                cmp: BinOp::Neq,
                                value: 0,
                            },
                            Operand::Const(k) => {
                                // Constant-folded branch: elaborate only the
                                // taken side.
                                if k != 0 {
                                    self.block(then_blk, env);
                                } else if let Some(e) = else_blk {
                                    self.block(e, env);
                                }
                                return;
                            }
                        }
                    }
                };
                self.guard.push(gcond.clone());
                self.block(then_blk, env);
                self.guard.pop();
                if let Some(e) = else_blk {
                    self.guard.push(gcond.negate());
                    self.block(e, env);
                    self.guard.pop();
                }
            }
            StmtKind::Generate(e) | StmtKind::MGenerate(e) => {
                let Some(spec) = self.try_event_expr(e, env) else {
                    self.err(
                        "generate requires an event constructed on this control path",
                        e.span,
                    );
                    return;
                };
                self.emit(AtomicOp::Generate {
                    event_id: spec.event_id,
                    event_name: spec.event_name,
                    args: spec.args,
                    delay: spec.delay,
                    location: spec.location,
                });
            }
            StmtKind::Return(_) => {
                // normalize_returns removed all returns; a stray one here is
                // a handler's bare `return;` in tail position — a no-op.
            }
            StmtKind::Printf { .. } => {
                // Interpreter-only; generates no hardware.
            }
            StmtKind::Expr(e) => {
                let _ = self.flatten(e, env);
            }
        }
    }

    // -------------------------------------------------------- expressions

    /// If `e` is event-typed, build its symbolic spec.
    fn try_event_expr(&mut self, e: &Expr, env: &mut Env) -> Option<EventSpec> {
        match &e.kind {
            ExprKind::Var(id) => match env.get(&id.name) {
                Some(Binding::Event(spec)) => Some(spec.clone()),
                _ => None,
            },
            ExprKind::Call { callee, args } => {
                let ev = self.prog.info.event(&callee.name)?;
                let (event_id, event_name) = (ev.id, ev.name.clone());
                let ops: Vec<Operand> = args.iter().map(|a| self.flatten(a, env)).collect();
                Some(EventSpec {
                    event_id,
                    event_name,
                    args: ops,
                    delay: None,
                    location: LocSpec::Here,
                })
            }
            ExprKind::BuiltinCall { builtin, args, .. } => match builtin {
                Builtin::EventDelay => {
                    let mut spec = self.try_event_expr(&args[0], env)?;
                    spec.delay = Some(self.flatten(&args[1], env));
                    Some(spec)
                }
                Builtin::EventLocate => {
                    let mut spec = self.try_event_expr(&args[0], env)?;
                    spec.location = LocSpec::Switch(self.flatten(&args[1], env));
                    Some(spec)
                }
                Builtin::EventMLocate => {
                    let mut spec = self.try_event_expr(&args[0], env)?;
                    match &args[1].kind {
                        ExprKind::Var(g) => match self.prog.info.groups.get(&g.name) {
                            Some(gi) => {
                                spec.location = LocSpec::Group(gi.members.clone());
                            }
                            None => {
                                self.err(
                                    format!("`{}` is not a const group", g.name),
                                    args[1].span,
                                );
                            }
                        },
                        _ => self.err(
                            "Event.mlocate requires a named const group in the backend",
                            args[1].span,
                        ),
                    }
                    Some(spec)
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// If `cond` is `var cmp const` (either side), build the match-rule
    /// guard directly. Returns `None` for anything needing computation.
    fn direct_cond(&mut self, cond: &Expr, env: &mut Env) -> Option<Cond> {
        // Bare boolean variable / its negation: match the 0/1 temp itself.
        match &cond.kind {
            ExprKind::Var(id) => {
                if let Some(Binding::Value(Operand::Var(v))) = env.get(&id.name) {
                    return Some(Cond {
                        var: v.clone(),
                        cmp: BinOp::Neq,
                        value: 0,
                    });
                }
            }
            ExprKind::Unary { op: UnOp::Not, arg } => {
                if let ExprKind::Var(id) = &arg.kind {
                    if let Some(Binding::Value(Operand::Var(v))) = env.get(&id.name) {
                        return Some(Cond {
                            var: v.clone(),
                            cmp: BinOp::Eq,
                            value: 0,
                        });
                    }
                }
            }
            _ => {}
        }
        let ExprKind::Binary { op, lhs, rhs } = &cond.kind else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        let (var_e, cmp, value) = match (self.fold(lhs, env), self.fold(rhs, env)) {
            (None, Some(v)) => (lhs, *op, v),
            (Some(v), None) => {
                // Mirror: `5 < x` is `x > 5`.
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Ge => BinOp::Le,
                    o => *o,
                };
                (rhs, flipped, v)
            }
            _ => return None,
        };
        match &var_e.kind {
            ExprKind::Var(id) => match env.get(&id.name) {
                Some(Binding::Value(Operand::Var(v))) => Some(Cond {
                    var: v.clone(),
                    cmp,
                    value,
                }),
                _ => None,
            },
            _ => None,
        }
    }

    /// `e`'s value, if the front end can evaluate it and no name in it
    /// is one `env` binds.
    fn fold(&self, e: &Expr, env: &Env) -> Option<u64> {
        if env.mentions(e) {
            return None;
        }
        self.prog.info.eval_const(e).ok()
    }

    /// Flatten `e` into an operand, emitting tables for intermediates.
    fn flatten(&mut self, e: &Expr, env: &mut Env) -> Operand {
        // Constant folding first: anything the front end can evaluate
        // becomes an immediate.
        if let Some(v) = self.fold(e, env) {
            return Operand::Const(v);
        }
        match &e.kind {
            ExprKind::Int { value, .. } => Operand::Const(*value),
            ExprKind::Bool(b) => Operand::Const(*b as u64),
            ExprKind::Var(id) => match env.get(&id.name) {
                Some(Binding::Value(op)) => op.clone(),
                None if id.name == "SELF" => Operand::Var("lucid_self".into()),
                Some(Binding::Array(_) | Binding::Event(_)) | None => {
                    // Arrays/events are consumed by their special
                    // contexts; reaching here is a checker-guaranteed
                    // impossibility for valid programs.
                    Operand::Var(id.name.clone())
                }
            },
            _ => {
                let dst = self.fresh("t");
                self.flatten_into(&dst, e, env);
                Operand::Var(dst)
            }
        }
    }

    /// Flatten `e`, directing its result into `dst`.
    fn flatten_into(&mut self, dst: &str, e: &Expr, env: &mut Env) {
        if let Some(v) = self.fold(e, env) {
            self.emit(AtomicOp::Mov {
                dst: dst.into(),
                src: Operand::Const(v),
            });
            return;
        }
        match &e.kind {
            ExprKind::Int { value, .. } => {
                self.emit(AtomicOp::Mov {
                    dst: dst.into(),
                    src: Operand::Const(*value),
                });
            }
            ExprKind::Bool(b) => {
                self.emit(AtomicOp::Mov {
                    dst: dst.into(),
                    src: Operand::Const(*b as u64),
                });
            }
            ExprKind::Var(_) => {
                let src = self.flatten(e, env);
                self.emit(AtomicOp::Mov {
                    dst: dst.into(),
                    src,
                });
            }
            ExprKind::Unary { op, arg } => {
                let a = self.flatten(arg, env);
                self.emit(AtomicOp::Un {
                    dst: dst.into(),
                    op: *op,
                    a,
                });
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let Some((op, lhs, rhs)) = self.lower_binop(*op, lhs, rhs, e, env) else {
                    return;
                };
                let a = self.flatten(&lhs, env);
                let b = self.flatten(&rhs, env);
                // Logical && / || over 0/1 temps lower to bitwise ops.
                let op = match op {
                    BinOp::And => BinOp::BitAnd,
                    BinOp::Or => BinOp::BitOr,
                    o => o,
                };
                self.emit(AtomicOp::Bin {
                    dst: dst.into(),
                    op,
                    a,
                    b,
                });
            }
            ExprKind::Cast { width, arg } => {
                // A cast is a PHV move with truncation: one action slot.
                let a = self.flatten(arg, env);
                self.emit(AtomicOp::Bin {
                    dst: dst.into(),
                    op: BinOp::BitAnd,
                    a,
                    b: Operand::Const(lucid_check::mask(u64::MAX, *width)),
                });
            }
            ExprKind::Hash { width, args } => {
                let seed = match self.fold(&args[0], env) {
                    Some(s) => s,
                    None => {
                        self.err(
                            "hash seed must be a compile-time constant (it configures \
                             the hash engine's polynomial)",
                            args[0].span,
                        );
                        0
                    }
                };
                let ops: Vec<Operand> = args[1..].iter().map(|a| self.flatten(a, env)).collect();
                self.emit(AtomicOp::Hash {
                    dst: dst.into(),
                    width: *width,
                    seed,
                    args: ops,
                });
            }
            ExprKind::Call { callee, args } => {
                if self.prog.info.event(&callee.name).is_some() {
                    self.err("event values cannot be stored in integer variables", e.span);
                    return;
                }
                self.inline_call(dst, callee, args, env, e.span);
            }
            ExprKind::BuiltinCall { builtin, args, .. } => {
                self.builtin_into(Some(dst), *builtin, args, env, e.span);
            }
        }
    }

    /// Rewrite `* / %` into shifts/masks when a side is a power-of-two
    /// constant; reject otherwise (no multiplier in the match pipeline).
    fn lower_binop(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        whole: &Expr,
        env: &Env,
    ) -> Option<(BinOp, Expr, Expr)> {
        if !matches!(op, BinOp::Mul | BinOp::Div | BinOp::Mod) {
            return Some((op, lhs.clone(), rhs.clone()));
        }
        let (var_side, k) = match (self.fold(lhs, env), self.fold(rhs, env)) {
            (_, Some(k)) => (lhs.clone(), k),
            (Some(k), _) if op == BinOp::Mul => (rhs.clone(), k),
            _ => {
                self.err(
                    format!(
                        "`{}` of two run-time values cannot execute in a match-action \
                         ALU; restructure the computation",
                        op.symbol()
                    ),
                    whole.span,
                );
                return None;
            }
        };
        if !k.is_power_of_two() {
            self.err(
                format!(
                    "`{} {k}` is only supported when the constant is a power of two \
                     (lowered to a shift)",
                    op.symbol()
                ),
                whole.span,
            );
            return None;
        }
        let sh = k.trailing_zeros() as u64;
        let shift_expr = Expr::synth_int(sh);
        Some(match op {
            BinOp::Mul => (BinOp::Shl, var_side, shift_expr),
            BinOp::Div => (BinOp::Shr, var_side, shift_expr),
            BinOp::Mod => (BinOp::BitAnd, var_side, Expr::synth_int(k - 1)),
            _ => unreachable!(),
        })
    }

    fn inline_call(
        &mut self,
        dst: &str,
        callee: &Ident,
        args: &[Expr],
        env: &mut Env,
        span: lucid_frontend::Span,
    ) {
        let Some((_, params, body)) = self.prog.fun_body(&callee.name) else {
            self.err(format!("unknown function `{}`", callee.name), span);
            return;
        };
        let (params, body) = (params.clone(), body.clone());
        let mut inner = Env::default();
        for (p, a) in params.iter().zip(args) {
            match p.ty {
                Ty::Array(_) => {
                    let gid = self.array_of(a, env);
                    inner.bind(&p.name.name, Binding::Array(gid));
                }
                _ => {
                    let op = self.flatten(a, env);
                    inner.bind(&p.name.name, Binding::Value(op));
                }
            }
        }
        let body = normalize_returns(body, Some(dst));
        // The return slot starts live so Assign writes through.
        inner.bind(dst, Binding::Value(Operand::Var(dst.to_string())));
        self.block(&body, &mut inner);
    }

    /// Resolve an array-position expression to a global id, through any
    /// in-scope array parameter bindings.
    fn array_of(&mut self, e: &Expr, env: &Env) -> GlobalId {
        match &e.kind {
            ExprKind::Var(id) => match env.get(&id.name) {
                Some(Binding::Array(gid)) => *gid,
                _ => self.prog.info.globals_by_name[&id.name],
            },
            _ => unreachable!("checked: array args are names"),
        }
    }

    fn builtin_into(
        &mut self,
        dst: Option<&str>,
        builtin: Builtin,
        args: &[Expr],
        env: &mut Env,
        span: lucid_frontend::Span,
    ) {
        match builtin {
            Builtin::ArrayGet
            | Builtin::ArrayGetm
            | Builtin::ArraySet
            | Builtin::ArraySetm
            | Builtin::ArrayUpdate => {
                let array = self.array_of(&args[0], env);
                let index = self.flatten(&args[1], env);
                let memname = |e: &Expr| match &e.kind {
                    ExprKind::Var(id) => id.name.clone(),
                    _ => unreachable!("checked: memop name"),
                };
                let kind = match builtin {
                    Builtin::ArrayGet => MemKind::Get,
                    Builtin::ArrayGetm => MemKind::Getm {
                        memop: memname(&args[2]),
                        arg: self.flatten(&args[3], env),
                    },
                    Builtin::ArraySet => MemKind::Set {
                        value: self.flatten(&args[2], env),
                    },
                    Builtin::ArraySetm => MemKind::Setm {
                        memop: memname(&args[2]),
                        arg: self.flatten(&args[3], env),
                    },
                    Builtin::ArrayUpdate => MemKind::Update {
                        getop: memname(&args[2]),
                        getarg: self.flatten(&args[3], env),
                        setop: memname(&args[4]),
                        setarg: self.flatten(&args[5], env),
                    },
                    _ => unreachable!(),
                };
                let dst = if kind.reads() {
                    dst.map(String::from)
                } else {
                    None
                };
                self.emit(AtomicOp::Mem {
                    dst,
                    array,
                    index,
                    kind,
                });
            }
            Builtin::EventDelay | Builtin::EventLocate | Builtin::EventMLocate => {
                self.err(
                    "event combinators produce event values; bind them with \
                     `event x = ..;` and `generate x;`",
                    span,
                );
            }
            Builtin::SysTime => {
                if let Some(d) = dst {
                    self.emit(AtomicOp::Mov {
                        dst: d.into(),
                        src: Operand::Var("lucid_ts".into()),
                    });
                }
            }
            Builtin::SysSelf => {
                if let Some(d) = dst {
                    self.emit(AtomicOp::Mov {
                        dst: d.into(),
                        src: Operand::Var("lucid_self".into()),
                    });
                }
            }
            Builtin::SysPort => {
                if let Some(d) = dst {
                    self.emit(AtomicOp::Mov {
                        dst: d.into(),
                        src: Operand::Var("lucid_port".into()),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_check::parse_and_check;

    fn elab(src: &str) -> Vec<HandlerIr> {
        let prog = parse_and_check(src).expect("checks");
        elaborate(&prog).expect("elaborates")
    }

    #[test]
    fn counter_handler_lowered_to_one_mem_table() {
        let hs = elab(
            r#"
            global cts = new Array<<32>>(8);
            memop plus(int m, int x) { return m + x; }
            event pkt(int idx);
            handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
            "#,
        );
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].tables.len(), 1);
        assert!(matches!(hs[0].tables[0].op, AtomicOp::Mem { .. }));
        assert_eq!(hs[0].unoptimized_depth, 1);
    }

    #[test]
    fn empty_handler_elaborates_to_empty_ir() {
        // A handler with no statements is legal Lucid (a sink that only
        // consumes its event); it must produce an empty table list, not
        // trip any nonempty-iterator assumption downstream.
        let hs = elab("event noop(); handle noop() { }");
        assert_eq!(hs.len(), 1);
        assert!(hs[0].tables.is_empty());
        assert_eq!(hs[0].unoptimized_depth, 0);
        let max_guard = hs[0].tables.iter().map(|t| t.guard.len()).max();
        assert_eq!(max_guard, None, "no tables, no guards — and no panic");
    }

    #[test]
    fn effectless_bodies_elaborate_to_empty_ir() {
        // Bodies whose statements generate no hardware (printf, a bare
        // return, a branch around nothing) reduce to zero tables too.
        for body in [
            "{ }",
            "{ printf(\"seen %d\", x); }",
            "{ return; }",
            "{ if (x == 0) { } }",
            "{ if (x == 0) { } else { printf(\"odd\"); } }",
        ] {
            let hs = elab(&format!("event go(int x); handle go(int x) {body}"));
            assert!(
                hs[0].tables.is_empty(),
                "body {body} left tables: {:#?}",
                hs[0].tables
            );
        }
    }

    #[test]
    fn figure6_count_pkt_depths() {
        // The paper's Figure 6 handler: 7 tables on the longest unoptimized
        // path (nexthops_get, if, nested if, idx write, pcts, if, hcts).
        let hs = elab(
            r#"
            const int NUM_PORTS = 64;
            const int NUM_PORTS_X2 = 128;
            const int TCP = 6;
            const int UDP = 17;
            global nexthops = new Array<<32>>(256);
            global pcts = new Array<<32>>(192);
            global hcts = new Array<<32>>(256);
            memop plus(int cur, int x) { return cur + x; }
            event count_pkt(int dst, int proto);
            handle count_pkt(int dst, int proto) {
                int idx = Array.get(nexthops, dst);
                if (proto != TCP) {
                    if (proto == UDP) { idx = idx + NUM_PORTS; }
                    else { idx = idx + NUM_PORTS_X2; }
                }
                Array.setm(pcts, idx, plus, 1);
                if (proto == TCP) {
                    Array.setm(hcts, dst, plus, 1);
                }
            }
            "#,
        );
        let h = &hs[0];
        assert_eq!(h.unoptimized_depth, 7, "Figure 6(1) longest path");
        // Three memory tables.
        let mems = h.tables.iter().filter(|t| t.op.salus() == 1).count();
        assert_eq!(mems, 3);
        // The nested idx updates carry two-condition guards.
        let max_guard = h.tables.iter().map(|t| t.guard.len()).max().unwrap();
        assert_eq!(max_guard, 2);
    }

    #[test]
    fn function_inlining_substitutes_arrays() {
        let hs = elab(
            r#"
            global a = new Array<<32>>(8);
            global b = new Array<<32>>(8);
            memop plus(int m, int x) { return m + x; }
            fun int bump(Array<<32>> arr, int i) {
                return Array.getm(arr, i, plus, 1);
            }
            event go(int i);
            handle go(int i) {
                int x = bump(a, i);
                int y = bump(b, i);
            }
            "#,
        );
        let arrays: Vec<GlobalId> = hs[0].tables.iter().filter_map(|t| t.op.array()).collect();
        assert_eq!(arrays, vec![GlobalId(0), GlobalId(1)]);
    }

    #[test]
    fn callee_names_the_global_not_a_live_callers_array_parameter() {
        let hs = elab(
            r#"
            global a = new Array<<32>>(2);
            global b = new Array<<32>>(2);
            fun void mark(int v) { Array.set(a, 0, v); }
            fun void via(Array<<32>> a, int v) { mark(v); }
            event go(int v);
            handle go(int v) { via(b, v); }
            "#,
        );
        let arrays: Vec<GlobalId> = hs[0].tables.iter().filter_map(|t| t.op.array()).collect();
        assert_eq!(arrays, vec![GlobalId(0)]);
    }

    #[test]
    fn block_locals_shadow_consts_and_self_until_their_block_ends() {
        let hs = elab(
            r#"
            const int X = 5;
            global o0 = new Array<<32>>(1);
            global o1 = new Array<<32>>(1);
            global o2 = new Array<<32>>(1);
            global o3 = new Array<<32>>(1);
            event go(int c);
            handle go(int c) {
                if (c == 1) { int X = 7; int SELF = c; Array.set(o0, 0, X); Array.set(o1, 0, SELF); }
                Array.set(o2, 0, X);
                Array.set(o3, 0, SELF);
            }
            "#,
        );
        let set_values: Vec<&Operand> = hs[0]
            .tables
            .iter()
            .filter_map(|t| match &t.op {
                AtomicOp::Mem {
                    kind: MemKind::Set { value },
                    ..
                } => Some(value),
                _ => None,
            })
            .collect();
        // Inside the block the names are the locals (not `mem = 5;`);
        // after it `X` is the const and `SELF` the switch id again.
        assert!(matches!(set_values[0], Operand::Var(v) if v.contains("__X_")));
        assert!(matches!(set_values[1], Operand::Var(v) if v.contains("__SELF_")));
        assert_eq!(set_values[2], &Operand::Const(5));
        assert_eq!(set_values[3], &Operand::Var("lucid_self".into()));
    }

    #[test]
    fn early_return_normalizes_into_branches() {
        let hs = elab(
            r#"
            event go(int x);
            fun int pick(int x) {
                if (x == 0) { return 10; }
                return 20;
            }
            handle go(int x) {
                int y = pick(x);
                generate go(y);
            }
            "#,
        );
        let h = &hs[0];
        // Both constants must be written, under opposite guards.
        let movs: Vec<&AtomicTable> = h
            .tables
            .iter()
            .filter(|t| {
                matches!(
                    t.op,
                    AtomicOp::Mov {
                        src: Operand::Const(_),
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(movs.len(), 2, "{:#?}", h.tables);
        assert!(movs[0].excludes(movs[1]), "branch writes must be exclusive");
    }

    #[test]
    fn generate_with_combinators() {
        let hs = elab(
            r#"
            const group G = {2, 3};
            event c(int v);
            event go(int v);
            handle go(int v) {
                event e = Event.delay(Event.mlocate(c(v), G), 100);
                mgenerate e;
            }
            "#,
        );
        let g = hs[0]
            .tables
            .iter()
            .find_map(|t| match &t.op {
                AtomicOp::Generate {
                    delay, location, ..
                } => Some((delay.clone(), location.clone())),
                _ => None,
            })
            .expect("a generate op");
        assert_eq!(g.0, Some(Operand::Const(100)));
        assert_eq!(g.1, LocSpec::Group(vec![2, 3]));
    }

    #[test]
    fn constant_branches_fold() {
        let hs = elab(
            r#"
            const bool FEATURE = false;
            global a = new Array<<32>>(4);
            event go(int x);
            handle go(int x) {
                if (FEATURE) { Array.set(a, 0, x); }
            }
            "#,
        );
        assert!(hs[0].tables.is_empty(), "disabled feature should vanish");
    }

    #[test]
    fn multiply_by_power_of_two_becomes_shift() {
        let hs = elab(
            r#"
            event go(int x);
            event out(int x);
            handle go(int x) { generate out(x * 8); }
            "#,
        );
        let has_shift = hs[0].tables.iter().any(|t| {
            matches!(
                t.op,
                AtomicOp::Bin {
                    op: BinOp::Shl,
                    b: Operand::Const(3),
                    ..
                }
            )
        });
        assert!(has_shift, "{:#?}", hs[0].tables);
    }

    #[test]
    fn multiply_of_variables_rejected() {
        let prog = parse_and_check(
            r#"
            event go(int x, int y);
            event out(int x);
            handle go(int x, int y) { generate out(x * y); }
            "#,
        )
        .unwrap();
        let err = elaborate(&prog).unwrap_err();
        assert!(
            err.items[0].message.contains("match-action ALU"),
            "{}",
            err.items[0]
        );
    }

    #[test]
    fn hash_requires_const_seed() {
        let prog = parse_and_check(
            r#"
            event go(int x);
            event out(int x);
            handle go(int x) { generate out(hash<<32>>(x, x)); }
            "#,
        )
        .unwrap();
        let err = elaborate(&prog).unwrap_err();
        assert!(err.items[0].message.contains("seed"), "{}", err.items[0]);
    }

    #[test]
    fn printf_emits_no_tables() {
        let hs = elab(r#"event go(int x); handle go(int x) { printf("%d", x); }"#);
        assert!(hs[0].tables.is_empty());
    }

    #[test]
    fn guards_nest_with_negation() {
        let hs = elab(
            r#"
            event go(int x);
            event a(); event b();
            handle go(int x) {
                if (x == 1) { generate a(); } else { generate b(); }
            }
            "#,
        );
        let gens: Vec<&AtomicTable> = hs[0]
            .tables
            .iter()
            .filter(|t| matches!(t.op, AtomicOp::Generate { .. }))
            .collect();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].guard.len(), 1);
        assert_eq!(gens[0].guard[0].cmp, BinOp::Eq);
        assert_eq!(gens[1].guard[0].cmp, BinOp::Neq);
        assert_eq!(gens[0].guard[0].var, gens[1].guard[0].var);
    }
}
