//! Type checking and the ordered type-and-effect system (§5, Appendix A).
//!
//! This module walks every handler (and, transitively, every function it
//! calls) doing two jobs at once, exactly as the paper's combined
//! type-and-effect judgement `Γ, ε₁ ⊢ e : τ, ε₂` does:
//!
//! * **Types**: bit-width-aware integer typing, booleans, event values,
//!   groups, and the builtin `Array`/`Event`/`Sys` modules.
//! * **Effects**: the *current stage* — the index of the earliest global
//!   array the computation may still access. Accessing global `gᵢ` requires
//!   `stage ≤ i` and leaves the computation at stage `i + 1`. Declaration
//!   order of `global` arrays is the specification (§5.1); any handler that
//!   violates it gets a source-level error naming both accesses.
//!
//! Functions are checked **per instantiation**: a call site binds the
//! function's `Array<<w>>` parameters to concrete globals and re-checks the
//! body at the caller's current stage. This gives the effect polymorphism
//! the appendix describes ("a single function definition can be re-used ...
//! at different starting stages") without a constraint solver, because every
//! Lucid call graph is finite and non-recursive (recursion in the data plane
//! happens through `generate`, i.e. a fresh pipeline pass, not a call).

use crate::memop::{validate_memops, MemopIr};
use crate::symbols::{GlobalId, ProgramInfo};
use lucid_frontend::ast::*;
use lucid_frontend::diag::{Diagnostic, Diagnostics};
use lucid_frontend::span::Span;
use std::collections::HashMap;

/// A fully checked program: the AST plus every table later phases need.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    pub program: Program,
    pub info: ProgramInfo,
    /// Validated memops by name.
    pub memops: HashMap<String, MemopIr>,
}

impl CheckedProgram {
    /// Handler body lookup.
    pub fn handler_body(&self, name: &str) -> Option<(&Vec<Param>, &Block)> {
        self.program.decls.iter().find_map(|d| match &d.kind {
            DeclKind::Handler {
                name: n,
                params,
                body,
            } if n.name == name => Some((params, body)),
            _ => None,
        })
    }

    /// Function body lookup.
    pub fn fun_body(&self, name: &str) -> Option<(&Ty, &Vec<Param>, &Block)> {
        self.program.decls.iter().find_map(|d| match &d.kind {
            DeclKind::Fun {
                ret_ty,
                name: n,
                params,
                body,
            } if n.name == name => Some((ret_ty, params, body)),
            _ => None,
        })
    }
}

/// Options threaded through semantic analysis (configured per-session by
/// `lucid_core::Compiler`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOptions {
    /// Emit warnings for uncalled functions and unreachable statements.
    pub warn_dead_code: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            warn_dead_code: true,
        }
    }
}

/// Outcome of [`analyze`]: the checked program (when error-free) plus every
/// diagnostic — errors *and* warnings — accumulated across all phases.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// `Some` exactly when no error-level diagnostic was produced.
    pub program: Option<CheckedProgram>,
    pub diagnostics: Diagnostics,
}

/// Parse-tree in, checked program out. Runs, in order: symbol construction,
/// memop validation, then the combined type-and-effect pass over every
/// handler. Collects as many diagnostics as it can.
pub fn check(program: Program) -> Result<CheckedProgram, Diagnostics> {
    let analysis = analyze(program, &CheckOptions::default());
    match analysis.program {
        Some(p) => Ok(p),
        None => Err(analysis.diagnostics),
    }
}

/// Full semantic analysis, accumulating diagnostics across declarations and
/// phases instead of stopping at the first error: every bad memop, every
/// handler's violations, and all type errors are reported in one pass.
/// (Symbol-table errors still gate the later phases — a broken symbol table
/// would only produce cascades.)
pub fn analyze(program: Program, opts: &CheckOptions) -> Analysis {
    let (info, mut diags) = ProgramInfo::build_all(&program);
    if diags.has_errors() {
        return Analysis {
            program: None,
            diagnostics: diags,
        };
    }

    // Memop validation already reports every bad memop; the type-and-effect
    // pass still runs afterwards (membership checks resolve through the
    // declaration table, so missing IR for an invalid memop cannot cascade).
    let memops: HashMap<String, MemopIr> = match validate_memops(&program, &info) {
        Ok(irs) => irs.into_iter().map(|m| (m.name.clone(), m)).collect(),
        Err(ds) => {
            // (validate_memops already stamped the E0300 phase code.)
            diags.extend(ds);
            HashMap::new()
        }
    };

    let mut checker = Checker {
        program: &program,
        info: &info,
        memops: &memops,
        diags: Diagnostics::new(),
        call_stack: Vec::new(),
        opts: opts.clone(),
    };
    checker.check_all();
    diags.extend(checker.diags.or_code_all("E0400"));

    if diags.has_errors() {
        return Analysis {
            program: None,
            diagnostics: diags,
        };
    }
    Analysis {
        program: Some(CheckedProgram {
            program,
            info,
            memops,
        }),
        diagnostics: diags,
    }
}

/// What a name is bound to during checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CkTy {
    Val(Ty),
    /// An array reference, resolved to a concrete global.
    ArrayRef(GlobalId),
}

/// The effect state threaded through a handler: the current stage plus the
/// most recent access, kept for diagnostics.
#[derive(Debug, Clone)]
struct Stage {
    current: usize,
    last: Option<(String, Span)>,
}

impl Stage {
    fn start() -> Self {
        Stage {
            current: 0,
            last: None,
        }
    }

    /// Join of two control-flow branches: the pipeline must be laid out for
    /// whichever branch reaches further.
    fn join(a: Stage, b: Stage) -> Stage {
        if a.current >= b.current {
            a
        } else {
            b
        }
    }
}

struct Scopes {
    frames: Vec<HashMap<String, CkTy>>,
}

impl Scopes {
    fn new() -> Self {
        Scopes {
            frames: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn lookup(&self, name: &str) -> Option<CkTy> {
        self.frames.iter().rev().find_map(|f| f.get(name).copied())
    }

    fn insert(&mut self, name: &str, ty: CkTy) -> bool {
        // Reject redefinition anywhere in the chain: data-plane programs are
        // short, and silent shadowing of e.g. an event parameter has bitten
        // real P4 programs.
        if self.lookup(name).is_some() {
            return false;
        }
        self.frames
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), ty);
        true
    }
}

struct Checker<'a> {
    program: &'a Program,
    info: &'a ProgramInfo,
    memops: &'a HashMap<String, MemopIr>,
    diags: Diagnostics,
    call_stack: Vec<String>,
    opts: CheckOptions,
}

impl<'a> Checker<'a> {
    fn check_all(&mut self) {
        // Every handler must correspond to a declared event with an
        // identical signature: handlers *are* the computations bound to
        // events (§3.1).
        for decl in &self.program.decls {
            if let DeclKind::Handler { name, params, body } = &decl.kind {
                match self.info.event(&name.name) {
                    None => self.diags.push(
                        Diagnostic::error(
                            format!("handler `{name}` has no matching `event` declaration"),
                            name.span,
                        )
                        .with_help(format!("declare `event {name}(..);` before the handler")),
                    ),
                    Some(ev) => {
                        let ev_tys: Vec<Ty> = ev.params.iter().map(|p| p.ty).collect();
                        let h_tys: Vec<Ty> = params.iter().map(|p| p.ty).collect();
                        if ev_tys != h_tys {
                            self.diags.push(
                                Diagnostic::error(
                                    format!("handler `{name}` signature does not match its event"),
                                    name.span,
                                )
                                .with_note("event declared here", ev.span),
                            );
                        }
                    }
                }
                self.check_body(&name.name, params, body, None, Stage::start());
            }
        }
        // Standalone sanity check of function bodies that are never called
        // from a handler would require instantiation choices for their array
        // parameters, so uncalled functions are only syntax-checked (the
        // parser already did that). Warn so dead code is visible.
        if self.opts.warn_dead_code {
            for decl in &self.program.decls {
                if let DeclKind::Fun { name, .. } = &decl.kind {
                    if !program_calls(self.program, &name.name) {
                        self.diags.push(
                            Diagnostic::warning(
                                format!("function `{name}` is never called"),
                                name.span,
                            )
                            .with_code("W0001"),
                        );
                    }
                }
            }
        }
    }

    /// Check a handler or (instantiated) function body. Returns the stage at
    /// exit. `ret_ty = None` means "handler" (only bare `return;` allowed).
    fn check_body(
        &mut self,
        owner: &str,
        params: &[Param],
        body: &Block,
        ret_ty: Option<Ty>,
        entry: Stage,
    ) -> Stage {
        let mut scopes = Scopes::new();
        for p in params {
            let ck = match p.ty {
                Ty::Array(_) => {
                    // Handlers cannot take arrays (events carry data, not
                    // state); functions get arrays bound at the call site,
                    // which uses `check_fun_call` instead of this path.
                    self.diags.push(Diagnostic::error(
                        format!("handler `{owner}` cannot take an array parameter"),
                        p.span,
                    ));
                    continue;
                }
                t => CkTy::Val(t),
            };
            if !scopes.insert(&p.name.name, ck) {
                self.diags.push(Diagnostic::error(
                    format!("duplicate parameter `{}`", p.name),
                    p.name.span,
                ));
            }
        }
        let (stage, returns) = self.check_block(body, &mut scopes, entry, ret_ty);
        if let Some(rt) = ret_ty {
            if rt != Ty::Void && !returns {
                self.diags.push(Diagnostic::error(
                    format!("function `{owner}` does not return a value on every path"),
                    body.span,
                ));
            }
        }
        stage
    }

    /// Check an instantiated function call. Binds array parameters to the
    /// caller's concrete globals, then re-checks the body starting at the
    /// caller's stage — this is effect polymorphism by substitution.
    fn check_fun_call(
        &mut self,
        callee: &Ident,
        args: &[Expr],
        scopes: &mut Scopes,
        stage: Stage,
    ) -> (CkTy, Stage) {
        let (ret_ty, params) = match self.info.funs.get(&callee.name) {
            Some(f) => f.clone(),
            None => unreachable!("caller checked existence"),
        };
        if args.len() != params.len() {
            self.diags.push(Diagnostic::error(
                format!(
                    "`{}` expects {} argument(s), got {}",
                    callee.name,
                    params.len(),
                    args.len()
                ),
                callee.span,
            ));
            return (CkTy::Val(ret_ty), stage);
        }
        if self.call_stack.contains(&callee.name) {
            self.diags.push(
                Diagnostic::error(format!("recursive call to `{}`", callee.name), callee.span)
                    .with_help(
                        "functions execute within a single pipeline pass and cannot recurse; \
                     to iterate over time, `generate` a recursive *event* instead (§3.1)",
                    )
                    .with_code("E0402"),
            );
            return (CkTy::Val(ret_ty), stage);
        }

        // Evaluate arguments left to right, threading the stage: argument
        // expressions may themselves touch state.
        let mut cur = stage;
        let mut fun_scopes = Scopes::new();
        for (p, a) in params.iter().zip(args) {
            match p.ty {
                Ty::Array(w) => {
                    let gid = self.resolve_array_arg(a, scopes);
                    if let Some(gid) = gid {
                        let g = &self.info.globals[gid.0];
                        if g.cell_width != w {
                            self.diags.push(
                                Diagnostic::error(
                                    format!(
                                        "array `{}` has cell width {}, but parameter `{}` \
                                         requires Array<<{w}>>",
                                        g.name, g.cell_width, p.name
                                    ),
                                    a.span,
                                )
                                .with_note("declared here", g.span),
                            );
                        }
                        fun_scopes.insert(&p.name.name, CkTy::ArrayRef(gid));
                    }
                }
                t => {
                    let (aty, s2) = self.check_expr(a, scopes, cur, Some(t));
                    cur = s2;
                    self.expect_val(&aty, t, a.span);
                    fun_scopes.insert(&p.name.name, CkTy::Val(t));
                }
            }
        }

        let body = self
            .program
            .decls
            .iter()
            .find_map(|d| match &d.kind {
                DeclKind::Fun { name, body, .. } if name.name == callee.name => Some(body),
                _ => None,
            })
            .expect("function body exists");

        self.call_stack.push(callee.name.clone());
        let (out, returns) = self.check_block(body, &mut fun_scopes, cur, Some(ret_ty));
        self.call_stack.pop();
        if ret_ty != Ty::Void && !returns {
            self.diags.push(Diagnostic::error(
                format!(
                    "function `{}` does not return a value on every path",
                    callee.name
                ),
                callee.span,
            ));
        }
        (CkTy::Val(ret_ty), out)
    }

    /// Resolve an expression in array-argument position to a global.
    fn resolve_array_arg(&mut self, e: &Expr, scopes: &Scopes) -> Option<GlobalId> {
        match &e.kind {
            ExprKind::Var(id) => {
                if let Some(CkTy::ArrayRef(gid)) = scopes.lookup(&id.name) {
                    return Some(gid);
                }
                if let Some(g) = self.info.global(&id.name) {
                    return Some(g.id);
                }
                self.diags.push(
                    Diagnostic::error(format!("`{}` is not a global array", id.name), id.span)
                        .with_help("declare it with `global name = new Array<<w>>(n);`"),
                );
                None
            }
            _ => {
                self.diags.push(Diagnostic::error(
                    "expected the name of a global array here",
                    e.span,
                ));
                None
            }
        }
    }

    /// Check a block; returns (exit stage, definitely-returns).
    fn check_block(
        &mut self,
        block: &Block,
        scopes: &mut Scopes,
        mut stage: Stage,
        ret_ty: Option<Ty>,
    ) -> (Stage, bool) {
        scopes.push();
        let mut returns = false;
        for stmt in &block.stmts {
            if returns && self.opts.warn_dead_code {
                self.diags.push(
                    Diagnostic::warning("unreachable statement", stmt.span).with_code("W0002"),
                );
            }
            let (s2, r) = self.check_stmt(stmt, scopes, stage, ret_ty);
            stage = s2;
            returns |= r;
        }
        scopes.pop();
        (stage, returns)
    }

    fn check_stmt(
        &mut self,
        stmt: &Stmt,
        scopes: &mut Scopes,
        stage: Stage,
        ret_ty: Option<Ty>,
    ) -> (Stage, bool) {
        match &stmt.kind {
            StmtKind::Local { ty, name, init } => {
                let (ity, s2) = self.check_expr(init, scopes, stage, *ty);
                let final_ty = match (ty, &ity) {
                    (Some(t), _) => {
                        self.expect_val(&ity, *t, init.span);
                        *t
                    }
                    (None, CkTy::Val(t)) => *t,
                    (None, CkTy::ArrayRef(_)) => {
                        self.diags.push(Diagnostic::error(
                            "cannot bind an array to a local variable",
                            init.span,
                        ));
                        Ty::Int(32)
                    }
                };
                if !scopes.insert(&name.name, CkTy::Val(final_ty)) {
                    self.diags.push(Diagnostic::error(
                        format!("`{name}` is already defined in this handler"),
                        name.span,
                    ));
                }
                (s2, false)
            }
            StmtKind::Assign { name, value } => {
                let target = scopes.lookup(&name.name);
                match target {
                    Some(CkTy::Val(t)) => {
                        let (vty, s2) = self.check_expr(value, scopes, stage, Some(t));
                        self.expect_val(&vty, t, value.span);
                        (s2, false)
                    }
                    Some(CkTy::ArrayRef(_)) => {
                        self.diags.push(
                            Diagnostic::error(
                                format!("cannot assign to array `{name}`"),
                                name.span,
                            )
                            .with_help("use Array.set / Array.setm to write array cells"),
                        );
                        (stage, false)
                    }
                    None => {
                        let msg = if self.info.consts.contains_key(&name.name) {
                            format!("cannot assign to constant `{name}`")
                        } else {
                            format!("assignment to undeclared variable `{name}`")
                        };
                        self.diags.push(Diagnostic::error(msg, name.span));
                        (stage, false)
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (cty, s0) = self.check_expr(cond, scopes, stage, Some(Ty::Bool));
                self.expect_val(&cty, Ty::Bool, cond.span);
                let (s_then, r_then) = self.check_block(then_blk, scopes, s0.clone(), ret_ty);
                match else_blk {
                    Some(e) => {
                        let (s_else, r_else) = self.check_block(e, scopes, s0, ret_ty);
                        (Stage::join(s_then, s_else), r_then && r_else)
                    }
                    None => (Stage::join(s_then, s0), false),
                }
            }
            StmtKind::Generate(e) | StmtKind::MGenerate(e) => {
                let (ty, s2) = self.check_expr(e, scopes, stage, Some(Ty::Event));
                self.expect_val(&ty, Ty::Event, e.span);
                (s2, false)
            }
            StmtKind::Return(val) => {
                match (ret_ty, val) {
                    (None, None) => {}
                    (None, Some(v)) => {
                        self.diags
                            .push(Diagnostic::error("handlers cannot return a value", v.span));
                    }
                    (Some(Ty::Void), Some(v)) => {
                        self.diags.push(Diagnostic::error(
                            "void function cannot return a value",
                            v.span,
                        ));
                    }
                    (Some(Ty::Void), None) => {}
                    (Some(t), Some(v)) => {
                        let (vty, s2) = self.check_expr(v, scopes, stage.clone(), Some(t));
                        self.expect_val(&vty, t, v.span);
                        return (s2, true);
                    }
                    (Some(_), None) => {
                        self.diags.push(Diagnostic::error(
                            "this function must return a value",
                            stmt.span,
                        ));
                    }
                }
                (stage, true)
            }
            StmtKind::Printf { fmt, args } => {
                let holes = fmt.matches('%').count() - 2 * fmt.matches("%%").count();
                if holes != args.len() {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "format string has {holes} placeholder(s) but {} argument(s) \
                             were supplied",
                            args.len()
                        ),
                        stmt.span,
                    ));
                }
                let mut cur = stage;
                for a in args {
                    let (ty, s2) = self.check_expr(a, scopes, cur, None);
                    cur = s2;
                    let bad = match ty {
                        CkTy::Val(t) if t.int_width().is_none() && t != Ty::Bool => {
                            format!("cannot print a value of type {t}")
                        }
                        CkTy::Val(_) => continue,
                        CkTy::ArrayRef(_) => "cannot print an array".to_string(),
                    };
                    self.diags.push(Diagnostic::error(bad, a.span));
                }
                (cur, false)
            }
            StmtKind::Expr(e) => {
                let (_, s2) = self.check_expr(e, scopes, stage, None);
                (s2, false)
            }
        }
    }

    /// Check an expression. `expected` lets integer literals adopt a width.
    /// Returns the expression's type and the stage after evaluating it.
    fn check_expr(
        &mut self,
        e: &Expr,
        scopes: &mut Scopes,
        stage: Stage,
        expected: Option<Ty>,
    ) -> (CkTy, Stage) {
        match &e.kind {
            ExprKind::Int { value, width } => {
                let w = width.or(expected.and_then(Ty::int_width)).unwrap_or(32);
                if w < 64 && *value >= (1u64 << w) {
                    self.diags.push(Diagnostic::error(
                        format!("literal {value} does not fit in int<<{w}>>"),
                        e.span,
                    ));
                }
                (CkTy::Val(Ty::Int(w)), stage)
            }
            ExprKind::Bool(_) => (CkTy::Val(Ty::Bool), stage),
            ExprKind::Var(id) => {
                if let Some(b) = scopes.lookup(&id.name) {
                    return (b, stage);
                }
                if id.name == "SELF" {
                    return (CkTy::Val(Ty::Int(32)), stage);
                }
                if let Some(c) = self.info.consts.get(&id.name) {
                    return (CkTy::Val(c.ty), stage);
                }
                if self.info.groups.contains_key(&id.name) {
                    return (CkTy::Val(Ty::Group), stage);
                }
                if let Some(g) = self.info.global(&id.name) {
                    return (CkTy::ArrayRef(g.id), stage);
                }
                let mut d = Diagnostic::error(format!("unbound variable `{}`", id.name), id.span);
                if self.info.memops.contains_key(&id.name) {
                    d = d.with_help("memops can only be used as arguments to Array.get/set/update");
                }
                self.diags.push(d);
                (CkTy::Val(Ty::Int(32)), stage)
            }
            ExprKind::Unary { op, arg } => match op {
                UnOp::Not => {
                    let (t, s) = self.check_expr(arg, scopes, stage, Some(Ty::Bool));
                    self.expect_val(&t, Ty::Bool, arg.span);
                    (CkTy::Val(Ty::Bool), s)
                }
                UnOp::Neg | UnOp::BitNot => {
                    let (t, s) = self.check_expr(arg, scopes, stage, expected);
                    let w = match t {
                        CkTy::Val(Ty::Int(w)) => w,
                        _ => {
                            self.diags.push(Diagnostic::error(
                                format!("`{}` requires an integer operand", op.symbol()),
                                arg.span,
                            ));
                            32
                        }
                    };
                    (CkTy::Val(Ty::Int(w)), s)
                }
            },
            ExprKind::Binary { op, lhs, rhs } => {
                self.check_binary(e, *op, lhs, rhs, scopes, stage, expected)
            }
            ExprKind::Cast { width, arg } => {
                let (t, s) = self.check_expr(arg, scopes, stage, None);
                if !matches!(t, CkTy::Val(Ty::Int(_) | Ty::Bool)) {
                    self.diags.push(Diagnostic::error(
                        "only integers and booleans can be cast",
                        arg.span,
                    ));
                }
                (CkTy::Val(Ty::Int(*width)), s)
            }
            ExprKind::Hash { width, args } => {
                let mut cur = stage;
                for a in args {
                    let (t, s) = self.check_expr(a, scopes, cur, None);
                    cur = s;
                    if !matches!(t, CkTy::Val(Ty::Int(_) | Ty::Bool)) {
                        self.diags.push(Diagnostic::error(
                            "hash arguments must be integers or booleans",
                            a.span,
                        ));
                    }
                }
                (CkTy::Val(Ty::Int(*width)), cur)
            }
            ExprKind::Call { callee, args } => {
                // Event constructor?
                if let Some(ev) = self.info.event(&callee.name).cloned() {
                    if args.len() != ev.params.len() {
                        self.diags.push(
                            Diagnostic::error(
                                format!(
                                    "event `{}` carries {} field(s), got {}",
                                    callee.name,
                                    ev.params.len(),
                                    args.len()
                                ),
                                e.span,
                            )
                            .with_note("event declared here", ev.span),
                        );
                    }
                    let mut cur = stage;
                    for (p, a) in ev.params.iter().zip(args) {
                        let (t, s) = self.check_expr(a, scopes, cur, Some(p.ty));
                        cur = s;
                        self.expect_val(&t, p.ty, a.span);
                    }
                    return (CkTy::Val(Ty::Event), cur);
                }
                if self.info.funs.contains_key(&callee.name) {
                    return self.check_fun_call(callee, args, scopes, stage);
                }
                if self.info.memops.contains_key(&callee.name) {
                    self.diags.push(
                        Diagnostic::error(
                            format!("memop `{}` cannot be called directly", callee.name),
                            callee.span,
                        )
                        .with_help(
                            "memops execute inside a stateful ALU; pass them to \
                             Array.get/set/update instead",
                        ),
                    );
                } else {
                    self.diags.push(Diagnostic::error(
                        format!("unknown function or event `{}`", callee.name),
                        callee.span,
                    ));
                }
                (CkTy::Val(Ty::Int(32)), stage)
            }
            ExprKind::BuiltinCall {
                builtin,
                args,
                span_path,
            } => self.check_builtin(e, *builtin, args, *span_path, scopes, stage),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_binary(
        &mut self,
        e: &Expr,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        scopes: &mut Scopes,
        stage: Stage,
        expected: Option<Ty>,
    ) -> (CkTy, Stage) {
        if op.is_logical() {
            let (lt, s1) = self.check_expr(lhs, scopes, stage, Some(Ty::Bool));
            self.expect_val(&lt, Ty::Bool, lhs.span);
            let (rt, s2) = self.check_expr(rhs, scopes, s1, Some(Ty::Bool));
            self.expect_val(&rt, Ty::Bool, rhs.span);
            return (CkTy::Val(Ty::Bool), s2);
        }
        if matches!(op, BinOp::Shl | BinOp::Shr) {
            let (lt, s1) = self.check_expr(lhs, scopes, stage, expected);
            let w = self.int_width_of(&lt, lhs.span);
            let (rt, s2) = self.check_expr(rhs, scopes, s1, Some(Ty::Int(32)));
            self.int_width_of(&rt, rhs.span);
            return (CkTy::Val(Ty::Int(w)), s2);
        }

        // Arithmetic / bitwise / comparison: both sides must be ints of the
        // same width (or bools for ==/!=). Infer the non-literal side first
        // so literals adopt its width.
        let lhs_literal = matches!(lhs.kind, ExprKind::Int { .. });
        let rhs_literal = matches!(rhs.kind, ExprKind::Int { .. });
        let (lt, rt, s_out) = if lhs_literal && !rhs_literal {
            let (rt, s1) = self.check_expr(rhs, scopes, stage, expected);
            let want = match rt {
                CkTy::Val(t) => Some(t),
                _ => None,
            };
            let (lt, s2) = self.check_expr(lhs, scopes, s1, want);
            (lt, rt, s2)
        } else {
            let (lt, s1) = self.check_expr(lhs, scopes, stage, expected);
            let want = match lt {
                CkTy::Val(t) => Some(t),
                _ => None,
            };
            let (rt, s2) = self.check_expr(rhs, scopes, s1, want);
            (lt, rt, s2)
        };

        if op.is_comparison() {
            match (&lt, &rt) {
                (CkTy::Val(Ty::Bool), CkTy::Val(Ty::Bool))
                    if matches!(op, BinOp::Eq | BinOp::Neq) => {}
                (CkTy::Val(Ty::Int(a)), CkTy::Val(Ty::Int(b))) => {
                    if a != b {
                        self.width_mismatch(e, *a, *b);
                    }
                }
                _ => {
                    self.diags.push(Diagnostic::error(
                        format!("`{}` requires two integers of equal width", op.symbol()),
                        e.span,
                    ));
                }
            }
            return (CkTy::Val(Ty::Bool), s_out);
        }

        let wa = self.int_width_of(&lt, lhs.span);
        let wb = self.int_width_of(&rt, rhs.span);
        if wa != wb {
            self.width_mismatch(e, wa, wb);
        }
        (CkTy::Val(Ty::Int(wa)), s_out)
    }

    fn check_builtin(
        &mut self,
        e: &Expr,
        builtin: Builtin,
        args: &[Expr],
        span_path: Span,
        scopes: &mut Scopes,
        stage: Stage,
    ) -> (CkTy, Stage) {
        let argc_err = |this: &mut Self, want: &str| {
            this.diags.push(Diagnostic::error(
                format!(
                    "{} expects {want} argument(s), got {}",
                    builtin.path(),
                    args.len()
                ),
                span_path,
            ));
        };
        match builtin {
            Builtin::ArrayGet
            | Builtin::ArrayGetm
            | Builtin::ArraySet
            | Builtin::ArraySetm
            | Builtin::ArrayUpdate => {
                let want: &[usize] = match builtin {
                    Builtin::ArrayGet => &[2],
                    Builtin::ArraySet => &[3],
                    Builtin::ArrayGetm | Builtin::ArraySetm => &[4],
                    Builtin::ArrayUpdate => &[6],
                    _ => unreachable!(),
                };
                if !want.contains(&args.len()) {
                    argc_err(self, &format!("{want:?}"));
                    return (CkTy::Val(Ty::Int(32)), stage);
                }
                let Some(gid) = self.resolve_array_arg(&args[0], scopes) else {
                    return (CkTy::Val(Ty::Int(32)), stage);
                };
                let cell_w = self.info.globals[gid.0].cell_width;
                // Index.
                let (it, s1) = self.check_expr(&args[1], scopes, stage, Some(Ty::Int(32)));
                self.int_width_of(&it, args[1].span);
                // Memop-position and value-position arguments.
                let mut cur = s1;
                match builtin {
                    Builtin::ArraySet => {
                        let (vt, s2) =
                            self.check_expr(&args[2], scopes, cur, Some(Ty::Int(cell_w)));
                        self.expect_val(&vt, Ty::Int(cell_w), args[2].span);
                        cur = s2;
                    }
                    Builtin::ArrayGetm | Builtin::ArraySetm => {
                        self.expect_memop(&args[2]);
                        let (vt, s2) =
                            self.check_expr(&args[3], scopes, cur, Some(Ty::Int(cell_w)));
                        self.expect_val(&vt, Ty::Int(cell_w), args[3].span);
                        cur = s2;
                    }
                    Builtin::ArrayUpdate => {
                        self.expect_memop(&args[2]);
                        self.reject_complex_in_update(&args[2]);
                        self.reject_complex_in_update(&args[4]);
                        let (gt, s2) =
                            self.check_expr(&args[3], scopes, cur, Some(Ty::Int(cell_w)));
                        self.expect_val(&gt, Ty::Int(cell_w), args[3].span);
                        self.expect_memop(&args[4]);
                        let (st, s3) = self.check_expr(&args[5], scopes, s2, Some(Ty::Int(cell_w)));
                        self.expect_val(&st, Ty::Int(cell_w), args[5].span);
                        cur = s3;
                    }
                    _ => {}
                }
                // The ordered-effect step: `stage ≤ gid` or error (§5.2).
                let out = self.access_global(gid, e.span, cur);
                let ret = match builtin {
                    Builtin::ArraySet | Builtin::ArraySetm => Ty::Void,
                    _ => Ty::Int(cell_w),
                };
                (CkTy::Val(ret), out)
            }
            Builtin::EventDelay => {
                if args.len() != 2 {
                    argc_err(self, "2");
                    return (CkTy::Val(Ty::Event), stage);
                }
                let (et, s1) = self.check_expr(&args[0], scopes, stage, Some(Ty::Event));
                self.expect_val(&et, Ty::Event, args[0].span);
                let (dt, s2) = self.check_expr(&args[1], scopes, s1, Some(Ty::Int(32)));
                self.int_width_of(&dt, args[1].span);
                (CkTy::Val(Ty::Event), s2)
            }
            Builtin::EventLocate => {
                if args.len() != 2 {
                    argc_err(self, "2");
                    return (CkTy::Val(Ty::Event), stage);
                }
                let (et, s1) = self.check_expr(&args[0], scopes, stage, Some(Ty::Event));
                self.expect_val(&et, Ty::Event, args[0].span);
                let (lt, s2) = self.check_expr(&args[1], scopes, s1, Some(Ty::Int(32)));
                self.int_width_of(&lt, args[1].span);
                (CkTy::Val(Ty::Event), s2)
            }
            Builtin::EventMLocate => {
                if args.len() != 2 {
                    argc_err(self, "2");
                    return (CkTy::Val(Ty::Event), stage);
                }
                let (et, s1) = self.check_expr(&args[0], scopes, stage, Some(Ty::Event));
                self.expect_val(&et, Ty::Event, args[0].span);
                let (gt, s2) = self.check_expr(&args[1], scopes, s1, Some(Ty::Group));
                self.expect_val(&gt, Ty::Group, args[1].span);
                (CkTy::Val(Ty::Event), s2)
            }
            Builtin::SysTime | Builtin::SysSelf | Builtin::SysPort => {
                if !args.is_empty() {
                    argc_err(self, "0");
                }
                (CkTy::Val(Ty::Int(32)), stage)
            }
        }
    }

    /// The heart of §5: check and advance the stage for an access to `gid`.
    fn access_global(&mut self, gid: GlobalId, span: Span, stage: Stage) -> Stage {
        let g = &self.info.globals[gid.0];
        if gid.0 < stage.current {
            let mut d = Diagnostic::error(
                format!("global `{}` is accessed out of declaration order", g.name),
                span,
            )
            .with_note(
                format!("`{}` was declared here (stage {})", g.name, gid.0),
                g.span,
            );
            if let Some((prev, pspan)) = &stage.last {
                d = d.with_note(
                    format!(
                        "a later-declared global `{prev}` was already accessed here, \
                         so the packet has passed `{}`'s pipeline stage",
                        g.name
                    ),
                    *pspan,
                );
            }
            d = d.with_help(
                "declaration order of globals is the pipeline layout specification (§5.1); \
                 reorder the `global` declarations, or split this computation into a second \
                 event so it traverses the pipeline again",
            );
            self.diags.push(d.with_code("E0401"));
            // Recover: leave the stage unchanged so we report each bad
            // access once.
            return stage;
        }
        Stage {
            current: gid.0 + 1,
            last: Some((g.name.clone(), span)),
        }
    }

    /// Appendix C: a compound-condition memop consumes the sALU's whole
    /// predicate capacity, so `Array.update` (which must fit *two* memops
    /// in one instruction) cannot take one.
    fn reject_complex_in_update(&mut self, e: &Expr) {
        if let ExprKind::Var(id) = &e.kind {
            if let Some(m) = self.memops.get(&id.name) {
                if m.is_complex() {
                    self.diags.push(
                        Diagnostic::error(
                            format!(
                                "memop `{}` has a compound condition and cannot be used                                  in Array.update",
                                id.name
                            ),
                            e.span,
                        )
                        .with_help(
                            "an Array.update compiles two memops into one sALU                              instruction; a compound condition already uses both                              predicate slots (Appendix C). Use this memop with                              Array.get/Array.set, or simplify the condition",
                        ),
                    );
                }
            }
        }
    }

    fn expect_memop(&mut self, e: &Expr) {
        // Membership resolves through the declaration table so that a memop
        // whose *body* failed validation does not also cascade into a bogus
        // "not a declared memop" here.
        match &e.kind {
            ExprKind::Var(id) if self.info.memops.contains_key(&id.name) => {}
            ExprKind::Var(id) => {
                self.diags.push(
                    Diagnostic::error(format!("`{}` is not a declared memop", id.name), id.span)
                        .with_help("declare it with `memop name(int stored, int arg) { .. }`"),
                );
            }
            _ => {
                self.diags.push(Diagnostic::error(
                    "expected a memop name in this argument position",
                    e.span,
                ));
            }
        }
    }

    fn expect_val(&mut self, got: &CkTy, want: Ty, span: Span) {
        match got {
            CkTy::Val(t) if *t == want => {}
            CkTy::Val(t) => {
                self.diags.push(Diagnostic::error(
                    format!("expected {want}, found {t}"),
                    span,
                ));
            }
            CkTy::ArrayRef(gid) => {
                let g = &self.info.globals[gid.0];
                self.diags.push(Diagnostic::error(
                    format!("expected {want}, found array `{}`", g.name),
                    span,
                ));
            }
        }
    }

    fn int_width_of(&mut self, t: &CkTy, span: Span) -> u32 {
        match t {
            CkTy::Val(Ty::Int(w)) => *w,
            _ => {
                self.diags
                    .push(Diagnostic::error("expected an integer", span));
                32
            }
        }
    }

    fn width_mismatch(&mut self, e: &Expr, a: u32, b: u32) {
        self.diags.push(
            Diagnostic::error(
                format!("operand widths differ: int<<{a}>> vs int<<{b}>>"),
                e.span,
            )
            .with_help("insert an explicit cast, e.g. `(int<<{w}>>) x`")
            .with_code("E0403"),
        );
    }
}

/// Does any handler or function in `program` call `fun_name`?
fn program_calls(program: &Program, fun_name: &str) -> bool {
    fn expr_calls(e: &Expr, fun: &str) -> bool {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                callee.name == fun || args.iter().any(|a| expr_calls(a, fun))
            }
            ExprKind::BuiltinCall { args, .. } | ExprKind::Hash { args, .. } => {
                args.iter().any(|a| expr_calls(a, fun))
            }
            ExprKind::Binary { lhs, rhs, .. } => expr_calls(lhs, fun) || expr_calls(rhs, fun),
            ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => expr_calls(arg, fun),
            _ => false,
        }
    }
    fn block_calls(b: &Block, fun: &str) -> bool {
        b.stmts.iter().any(|s| match &s.kind {
            StmtKind::Local { init, .. } => expr_calls(init, fun),
            StmtKind::Assign { value, .. } => expr_calls(value, fun),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                expr_calls(cond, fun)
                    || block_calls(then_blk, fun)
                    || else_blk.as_ref().is_some_and(|e| block_calls(e, fun))
            }
            StmtKind::Generate(e) | StmtKind::MGenerate(e) | StmtKind::Expr(e) => {
                expr_calls(e, fun)
            }
            StmtKind::Return(Some(e)) => expr_calls(e, fun),
            StmtKind::Return(None) => false,
            StmtKind::Printf { args, .. } => args.iter().any(|a| expr_calls(a, fun)),
        })
    }
    program.decls.iter().any(|d| match &d.kind {
        DeclKind::Handler { body, .. } | DeclKind::Fun { body, .. } => block_calls(body, fun_name),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frontend::parse_program;

    fn check_src(src: &str) -> Result<CheckedProgram, Diagnostics> {
        check(parse_program(src).unwrap())
    }

    fn first_error(src: &str) -> Diagnostic {
        let ds = check_src(src).expect_err("expected check failure");
        ds.items
            .into_iter()
            .find(|d| d.level == crate::Level::Error)
            .expect("an error")
    }

    // --- the paper's Figure 5 -------------------------------------------

    #[test]
    fn figure5_disordered_program_rejected() {
        let src = r#"
            const int SIZE = 16;
            global arr1 = new Array<<32>>(SIZE);
            global arr2 = new Array<<32>>(SIZE);
            event setArr1(int idx, int data);
            event setArr2(int idx, int data);
            handle setArr1(int idx, int data) {
                int x = Array.get(arr2, idx);
                Array.set(arr1, idx, x);
            }
            handle setArr2(int idx, int data) {
                int x = Array.get(arr1, idx);
                Array.set(arr2, idx, x);
            }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("arr1"), "{d}");
        assert!(d.message.contains("out of declaration order"), "{d}");
        // The error must name the conflicting earlier access.
        assert!(
            d.notes.iter().any(|(n, _)| n.contains("arr2")),
            "notes should reference arr2: {d:?}"
        );
    }

    #[test]
    fn figure5_fixed_by_reordering_handler() {
        // Same state, but both handlers access in declaration order.
        let src = r#"
            const int SIZE = 16;
            global arr1 = new Array<<32>>(SIZE);
            global arr2 = new Array<<32>>(SIZE);
            event setBoth(int idx, int data);
            handle setBoth(int idx, int data) {
                int x = Array.get(arr1, idx);
                Array.set(arr2, idx, x);
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    // --- effect polymorphism via instantiation ---------------------------

    #[test]
    fn function_usable_at_multiple_stages() {
        let src = r#"
            global a = new Array<<32>>(8);
            global b = new Array<<32>>(8);
            memop plus(int m, int x) { return m + x; }
            fun int bump(Array<<32>> arr, int idx) {
                return Array.get(arr, idx, plus, 1);
            }
            event go(int idx);
            handle go(int idx) {
                int x = bump(a, idx);
                int y = bump(b, idx);
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn function_instantiation_catches_disorder() {
        let src = r#"
            global a = new Array<<32>>(8);
            global b = new Array<<32>>(8);
            fun int rd(Array<<32>> arr, int idx) { return Array.get(arr, idx); }
            event go(int idx);
            handle go(int idx) {
                int y = rd(b, idx);
                int x = rd(a, idx);
            }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("out of declaration order"), "{d}");
    }

    #[test]
    fn recursion_rejected_with_generate_hint() {
        let src = r#"
            fun int f(int x) { return f(x); }
            event go(int x);
            handle go(int x) { int y = f(x); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("recursive"), "{d}");
        assert!(d.notes.iter().any(|(n, _)| n.contains("generate")), "{d:?}");
    }

    // --- branches ---------------------------------------------------------

    #[test]
    fn branch_join_takes_max_stage() {
        // then-branch reaches stage 2, else stays at 0; accessing stage-1
        // global afterwards must fail because the *pipeline* has to lay the
        // handler out for the deeper branch.
        let src = r#"
            global a = new Array<<32>>(8);
            global b = new Array<<32>>(8);
            event go(int x);
            handle go(int x) {
                if (x == 0) {
                    Array.set(b, 0, x);
                }
                Array.set(a, 0, x);
            }
        "#;
        let d = first_error(src);
        assert!(d.message.contains('a'), "{d}");
    }

    #[test]
    fn same_array_twice_rejected() {
        // Accessing a global advances past it: a second access would need a
        // second sALU pass over the same stage.
        let src = r#"
            global a = new Array<<32>>(8);
            event go(int x);
            handle go(int x) {
                Array.set(a, 0, x);
                Array.set(a, 1, x);
            }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("out of declaration order"), "{d}");
    }

    #[test]
    fn parallel_branches_may_access_same_stage() {
        // Two exclusive branches touching the same array is fine: only one
        // executes per packet.
        let src = r#"
            global a = new Array<<32>>(8);
            event go(int x);
            handle go(int x) {
                if (x == 0) { Array.set(a, 0, x); } else { Array.set(a, 1, x); }
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    // --- plain typing -----------------------------------------------------

    #[test]
    fn event_constructor_types_args() {
        let src = r#"
            event reply(int<<16>> code);
            event go(int x);
            handle go(int x) { generate reply(x); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("int<<16>>"), "{d}");
    }

    #[test]
    fn generate_requires_event() {
        let d = first_error("event go(int x); handle go(int x) { generate x; }");
        assert!(d.message.contains("expected event"), "{d}");
    }

    #[test]
    fn width_mismatch_reported() {
        let src = r#"
            event go(int<<16>> a, int<<32>> b);
            handle go(int<<16>> a, int<<32>> b) { int c = a + b; }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("widths differ"), "{d}");
    }

    #[test]
    fn literal_adopts_context_width() {
        let src = r#"
            event go(int<<8>> a);
            handle go(int<<8>> a) { int<<8>> b = a + 1; }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn literal_too_wide_for_context() {
        let src = r#"
            event go(int<<8>> a);
            handle go(int<<8>> a) { int<<8>> b = a + 300; }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("does not fit"), "{d}");
    }

    #[test]
    fn handler_without_event_rejected() {
        let d = first_error("handle orphan(int x) { int y = x; }");
        assert!(d.message.contains("no matching `event`"), "{d}");
    }

    #[test]
    fn handler_signature_must_match_event() {
        let d = first_error("event e(int<<16>> x); handle e(int x) { int y = x; }");
        assert!(d.message.contains("does not match"), "{d}");
    }

    #[test]
    fn memop_direct_call_rejected() {
        let src = r#"
            memop plus(int m, int x) { return m + x; }
            event go(int x);
            handle go(int x) { int y = plus(x, x); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("cannot be called directly"), "{d}");
    }

    #[test]
    fn array_update_full_form_checks() {
        let src = r#"
            global cts = new Array<<32>>(64);
            memop read(int m, int x) { return m; }
            memop plus(int m, int x) { return m + x; }
            event go(int i);
            handle go(int i) {
                int old = Array.update(cts, i, read, 0, plus, 1);
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn non_memop_in_memop_position() {
        let src = r#"
            global cts = new Array<<32>>(64);
            event go(int i);
            handle go(int i) { int x = Array.get(cts, i, i, 1); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("not a declared memop"), "{d}");
    }

    #[test]
    fn array_cell_width_enforced() {
        let src = r#"
            global flags = new Array<<8>>(64);
            event go(int i);
            handle go(int i) { Array.set(flags, i, i); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("expected int<<8>>"), "{d}");
    }

    #[test]
    fn unreachable_code_warns() {
        let src = r#"
            event go(int x);
            fun int f(int x) { return x; int y = x; return y; }
            handle go(int x) { int z = f(x); }
        "#;
        let p = check_src(src);
        // Warnings don't fail the check, but are recorded.
        assert!(p.is_ok());
    }

    #[test]
    fn missing_return_path_rejected() {
        let src = r#"
            event go(int x);
            fun int f(int x) { if (x == 0) { return 1; } }
            handle go(int x) { int z = f(x); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("every path"), "{d}");
    }

    #[test]
    fn self_is_predefined() {
        let src = r#"
            event reply(int who);
            event go(int x);
            handle go(int x) { generate Event.locate(reply(SELF), x); }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn mlocate_requires_group() {
        let src = r#"
            event c();
            event go(int x);
            handle go(int x) { mgenerate Event.mlocate(c(), x); }
        "#;
        let d = first_error(src);
        assert!(d.message.contains("expected group"), "{d}");
    }

    #[test]
    fn paper_event_combinator_example_checks() {
        let src = r#"
            const group GRP = {2, 3};
            event a();
            event b();
            event c();
            handle a() {
                generate b();
                mgenerate Event.delay(Event.mlocate(c(), GRP), 10000);
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn assignment_to_const_rejected() {
        let src = "const int K = 4; event go(int x); handle go(int x) { K = x; }";
        let d = first_error(src);
        assert!(d.message.contains("constant"), "{d}");
    }

    #[test]
    fn printf_arity_checked() {
        let src = r#"event go(int x); handle go(int x) { printf("a %d b %d", x); }"#;
        let d = first_error(src);
        assert!(d.message.contains("placeholder"), "{d}");
    }
}
