//! The Lucid lint pass: post-typecheck analyses over the checked AST
//! that flag *suspicious but legal* programs. The type-and-effect
//! system answers "can this run on the pipeline at all"; lints answer
//! "did you mean to write this" — every finding here type-checks, so
//! all diagnostics are warning-severity with stable `W05xx` codes
//! (`W00xx` stays with the checker's own dead-code warnings).
//!
//! | code    | finding |
//! |---------|---------|
//! | `W0501` | local variable never read |
//! | `W0502` | handler/function parameter never read |
//! | `W0503` | global array never accessed by any handler or function |
//! | `W0504` | statement follows an `if` whose branches all end the event flow (`generate`/`return`) |
//! | `W0505` | condition always evaluates to the same value |
//! | `W0506` | handler neither reads nor writes any global |
//! | `W0507` | one handler accesses the same global at several sites (serialized into extra stages by layout) |
//!
//! Lints run on demand (`lucidc check --lint`, `lucidc compile --lint`,
//! `Build::lint`); `--deny-lints` promotes them to errors. Output for
//! the bundled Figure-9 apps is pinned by golden files
//! (`tests/golden/<app>.lints.txt`).

use crate::arith;
use crate::symbols::ConstInfo;
use crate::typecheck::CheckedProgram;
use lucid_frontend::ast::*;
use lucid_frontend::diag::{Diagnostic, Diagnostics};
use std::collections::{HashMap, HashSet};

/// The stable lint codes (`W05xx` range; see the code-registry test).
pub mod codes {
    /// Local variable never read.
    pub const UNUSED_LOCAL: &str = "W0501";
    /// Parameter never read in its handler/function body.
    pub const UNUSED_PARAM: &str = "W0502";
    /// Global array no handler or function ever touches.
    pub const UNUSED_GLOBAL: &str = "W0503";
    /// Statement after an `if` whose branches all `generate`/`return`.
    pub const AFTER_GENERATE: &str = "W0504";
    /// Constant condition.
    pub const CONST_CONDITION: &str = "W0505";
    /// Handler that touches no global state.
    pub const STATELESS_HANDLER: &str = "W0506";
    /// Several access sites on one global in one handler.
    pub const DUPLICATE_ACCESS: &str = "W0507";
}

/// Run every lint over a checked program. Diagnostics come out in
/// declaration order, so output is deterministic and golden-pinnable.
pub fn lint(prog: &CheckedProgram) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let global_reads = all_reads(prog);
    let fun_touches = fun_global_touches(prog);

    for decl in &prog.program.decls {
        match &decl.kind {
            DeclKind::GlobalArray { name, .. } if !global_reads.contains(name.name.as_str()) => {
                diags.push(
                    Diagnostic::warning(
                        format!("global array `{}` is never accessed", name.name),
                        name.span,
                    )
                    .with_code(codes::UNUSED_GLOBAL)
                    .with_help("every global occupies pipeline stages whether or not it is used"),
                );
            }
            DeclKind::Handler { name, params, body } => {
                lint_body(&mut diags, prog, "handler", name, params, body);
                lint_handler_state(&mut diags, prog, &fun_touches, name, body);
            }
            DeclKind::Fun {
                name, params, body, ..
            } => {
                lint_body(&mut diags, prog, "function", name, params, body);
            }
            _ => {}
        }
    }
    diags
}

/// The per-body lints: unused locals/params, constant conditions, and
/// statements following generate-terminated branches.
fn lint_body(
    diags: &mut Diagnostics,
    prog: &CheckedProgram,
    what: &str,
    name: &Ident,
    params: &[Param],
    body: &Block,
) {
    let mut reads = HashSet::new();
    block_reads(body, &mut reads);

    for p in params {
        if !reads.contains(p.name.name.as_str()) {
            diags.push(
                Diagnostic::warning(
                    format!(
                        "parameter `{}` of {what} `{}` is never read",
                        p.name.name, name.name
                    ),
                    p.name.span,
                )
                .with_code(codes::UNUSED_PARAM),
            );
        }
    }
    lint_block(diags, prog, &reads, body);
}

/// Walk one block: locals, conditions, and post-`generate` statements;
/// recurses into nested blocks.
fn lint_block(
    diags: &mut Diagnostics,
    prog: &CheckedProgram,
    reads: &HashSet<&str>,
    block: &Block,
) {
    for (i, stmt) in block.stmts.iter().enumerate() {
        match &stmt.kind {
            StmtKind::Local { name, .. } if !reads.contains(name.name.as_str()) => {
                diags.push(
                    Diagnostic::warning(format!("local `{}` is never read", name.name), name.span)
                        .with_code(codes::UNUSED_LOCAL),
                );
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if let Some(v) = fold_bool(cond, &prog.info.consts) {
                    diags.push(
                        Diagnostic::warning(
                            format!("condition always evaluates to `{v}`"),
                            cond.span,
                        )
                        .with_code(codes::CONST_CONDITION),
                    );
                }
                // A branch pair that always ends the event flow —
                // both terminate, at least one via `generate` (plain
                // double-return is the checker's W0002) — makes any
                // following statement a likely mistake: the handler's
                // continuation event was already emitted on every path.
                if stmt_term(&stmt.kind) == Term::Generate {
                    if let Some(next) = block.stmts.get(i + 1) {
                        diags.push(
                            Diagnostic::warning(
                                "statement follows an `if` whose branches all end the \
                                 event flow with `generate`",
                                next.span,
                            )
                            .with_code(codes::AFTER_GENERATE)
                            .with_note("every path through this `if` already generated", stmt.span),
                        );
                    }
                }
                lint_block(diags, prog, reads, then_blk);
                if let Some(e) = else_blk {
                    lint_block(diags, prog, reads, e);
                }
            }
            _ => {}
        }
    }
}

/// How a statement leaves the surrounding event flow.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Term {
    /// Falls through to the next statement.
    No,
    /// Ends via `return` on every path.
    Return,
    /// Ends on every path, at least one of them via `generate`.
    Generate,
}

fn stmt_term(kind: &StmtKind) -> Term {
    match kind {
        StmtKind::Return(_) => Term::Return,
        StmtKind::Generate(_) | StmtKind::MGenerate(_) => Term::Generate,
        StmtKind::If {
            then_blk,
            else_blk: Some(else_blk),
            ..
        } => match (block_term(then_blk), block_term(else_blk)) {
            (Term::No, _) | (_, Term::No) => Term::No,
            (Term::Return, Term::Return) => Term::Return,
            _ => Term::Generate,
        },
        _ => Term::No,
    }
}

fn block_term(block: &Block) -> Term {
    block.stmts.last().map_or(Term::No, |s| stmt_term(&s.kind))
}

/// `W0506`: a handler that touches no global — directly or through any
/// function it calls — does pure per-packet compute the switch could do
/// without Lucid's state model at all.
fn lint_handler_state(
    diags: &mut Diagnostics,
    prog: &CheckedProgram,
    fun_touches: &HashMap<&str, bool>,
    name: &Ident,
    body: &Block,
) {
    if prog.info.globals.is_empty() {
        return;
    }
    if !touches_global(body, fun_touches) {
        diags.push(
            Diagnostic::warning(
                format!(
                    "handler `{}` neither reads nor writes any global",
                    name.name
                ),
                name.span,
            )
            .with_code(codes::STATELESS_HANDLER),
        );
    }
    lint_duplicate_accesses(diags, prog, name, body);
}

/// `W0507`: several syntactic access sites on one global within one
/// handler. The calculus only admits them on mutually exclusive paths,
/// and the layout model still serializes each site into its own stage
/// — usually a single hoisted access was intended.
fn lint_duplicate_accesses(
    diags: &mut Diagnostics,
    prog: &CheckedProgram,
    name: &Ident,
    body: &Block,
) {
    let mut sites: Vec<(&str, lucid_frontend::span::Span)> = Vec::new();
    collect_access_sites(body, prog, &mut sites);
    let mut first: HashMap<&str, lucid_frontend::span::Span> = HashMap::new();
    let mut warned: HashSet<&str> = HashSet::new();
    for (arr, span) in sites {
        match first.get(arr) {
            None => {
                first.insert(arr, span);
            }
            Some(first_span) if !warned.contains(arr) => {
                warned.insert(arr);
                diags.push(
                    Diagnostic::warning(
                        format!(
                            "handler `{}` accesses global `{arr}` at more than one site",
                            name.name
                        ),
                        span,
                    )
                    .with_code(codes::DUPLICATE_ACCESS)
                    .with_note("first access site", *first_span)
                    .with_help(
                        "the layout model serializes each syntactic access into its own \
                         stage; hoisting one shared access saves pipeline stages",
                    ),
                );
            }
            Some(_) => {}
        }
    }
}

fn collect_access_sites<'a>(
    block: &'a Block,
    prog: &CheckedProgram,
    out: &mut Vec<(&'a str, lucid_frontend::span::Span)>,
) {
    for stmt in &block.stmts {
        stmt_exprs(stmt, &mut |e| {
            if let ExprKind::BuiltinCall { builtin, args, .. } = &e.kind {
                if builtin.is_array_op() {
                    if let Some(Expr {
                        kind: ExprKind::Var(id),
                        ..
                    }) = args.first()
                    {
                        if prog.info.globals_by_name.contains_key(&id.name) {
                            out.push((id.name.as_str(), e.span));
                        }
                    }
                }
            }
        });
        if let StmtKind::If {
            then_blk, else_blk, ..
        } = &stmt.kind
        {
            collect_access_sites(then_blk, prog, out);
            if let Some(e) = else_blk {
                collect_access_sites(e, prog, out);
            }
        }
    }
}

/// Does this block touch any global, directly or through a called
/// function?
fn touches_global(block: &Block, fun_touches: &HashMap<&str, bool>) -> bool {
    let mut found = false;
    for stmt in &block.stmts {
        stmt_exprs(stmt, &mut |e| match &e.kind {
            ExprKind::BuiltinCall { builtin, .. } if builtin.is_array_op() => found = true,
            ExprKind::Call { callee, .. } => {
                found |= fun_touches
                    .get(callee.name.as_str())
                    .copied()
                    .unwrap_or(false);
            }
            _ => {}
        });
        if let StmtKind::If {
            then_blk, else_blk, ..
        } = &stmt.kind
        {
            found |= touches_global(then_blk, fun_touches);
            if let Some(e) = else_blk {
                found |= touches_global(e, fun_touches);
            }
        }
    }
    found
}

/// Per-function "touches a global" table, closed transitively. Lucid
/// call graphs are finite and non-recursive, so iterating to a fixpoint
/// terminates quickly.
fn fun_global_touches(prog: &CheckedProgram) -> HashMap<&str, bool> {
    let mut touches: HashMap<&str, bool> = HashMap::new();
    loop {
        let mut changed = false;
        for decl in &prog.program.decls {
            if let DeclKind::Fun { name, body, .. } = &decl.kind {
                let now = touches_global(body, &touches);
                let entry = touches.entry(name.name.as_str()).or_insert(false);
                if now && !*entry {
                    *entry = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return touches;
        }
    }
}

// ------------------------------------------------------------ read sets

/// Every identifier the whole program reads in expression position —
/// what `W0503` checks globals against.
fn all_reads(prog: &CheckedProgram) -> HashSet<&str> {
    let mut reads = HashSet::new();
    for decl in &prog.program.decls {
        match &decl.kind {
            DeclKind::Handler { body, .. }
            | DeclKind::Fun { body, .. }
            | DeclKind::Memop { body, .. } => block_reads(body, &mut reads),
            _ => {}
        }
    }
    reads
}

/// Every identifier a block reads (`Var` in any expression). Assignment
/// *targets* deliberately do not count: a local that is only ever
/// written is still unused.
fn block_reads<'a>(block: &'a Block, reads: &mut HashSet<&'a str>) {
    for stmt in &block.stmts {
        stmt_exprs(stmt, &mut |e| {
            if let ExprKind::Var(id) = &e.kind {
                reads.insert(id.name.as_str());
            }
        });
        if let StmtKind::If {
            then_blk, else_blk, ..
        } = &stmt.kind
        {
            block_reads(then_blk, reads);
            if let Some(e) = else_blk {
                block_reads(e, reads);
            }
        }
    }
}

/// Invoke `f` on every expression node a statement owns directly
/// (nested blocks are the caller's job — lints differ on whether they
/// recurse).
fn stmt_exprs<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Local { init, .. } => walk_expr(init, f),
        StmtKind::Assign { value, .. } => walk_expr(value, f),
        StmtKind::If { cond, .. } => walk_expr(cond, f),
        StmtKind::Generate(e) | StmtKind::MGenerate(e) => walk_expr(e, f),
        StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Return(None) => {}
        StmtKind::Printf { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        StmtKind::Expr(e) => walk_expr(e, f),
    }
}

fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Int { .. } | ExprKind::Bool(_) | ExprKind::Var(_) => {}
        ExprKind::Unary { arg, .. } | ExprKind::Cast { arg, .. } => walk_expr(arg, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Call { args, .. }
        | ExprKind::BuiltinCall { args, .. }
        | ExprKind::Hash { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
    }
}

// ------------------------------------------------------ constant folding

/// A folded compile-time value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CVal {
    Int(u64),
    Bool(bool),
}

/// Fold a condition to a constant boolean, if literals and declared
/// `const`s fully determine it. Deliberately conservative: arithmetic
/// and casts are skipped (width semantics belong to the evaluator),
/// only comparisons and boolean connectives fold.
fn fold_bool(e: &Expr, consts: &HashMap<String, ConstInfo>) -> Option<bool> {
    match fold(e, consts)? {
        CVal::Bool(b) => Some(b),
        CVal::Int(_) => None,
    }
}

fn fold(e: &Expr, consts: &HashMap<String, ConstInfo>) -> Option<CVal> {
    match &e.kind {
        ExprKind::Int { value, .. } => Some(CVal::Int(*value)),
        ExprKind::Bool(b) => Some(CVal::Bool(*b)),
        ExprKind::Var(id) => consts.get(&id.name).map(|c| CVal::Int(c.value)),
        ExprKind::Unary { op: UnOp::Not, arg } => match fold(arg, consts)? {
            CVal::Bool(b) => Some(CVal::Bool(!b)),
            CVal::Int(_) => None,
        },
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (fold(lhs, consts)?, fold(rhs, consts)?);
            match (op, a, b) {
                (BinOp::And, CVal::Bool(x), CVal::Bool(y)) => Some(CVal::Bool(x && y)),
                (BinOp::Or, CVal::Bool(x), CVal::Bool(y)) => Some(CVal::Bool(x || y)),
                (BinOp::Eq, CVal::Bool(x), CVal::Bool(y)) => Some(CVal::Bool(x == y)),
                (BinOp::Neq, CVal::Bool(x), CVal::Bool(y)) => Some(CVal::Bool(x != y)),
                (op, CVal::Int(x), CVal::Int(y)) if op.is_comparison() => {
                    Some(CVal::Bool(arith::cmp(*op, x, y)))
                }
                _ => None,
            }
        }
        _ => None,
    }
}
