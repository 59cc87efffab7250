//! The memop validator (§4.2 and Appendix C of the paper).
//!
//! A *memop* is a two-argument function that a single stateful ALU of a PISA
//! switch can evaluate in one shot: read one SRAM word, combine it with one
//! packet-local operand, and write back and/or return the result. Lucid
//! guarantees — *syntactically, before any lowering* — that every declared
//! memop fits, so that `Array` method calls can never fail deep inside a
//! target backend.
//!
//! The rules, verbatim from the paper:
//!
//! 1. the body is either a single `return` statement, or an `if` statement
//!    containing one `return` statement in each branch;
//! 2. each variable is used at most once per expression; and
//! 3. only ALU-supported operators are used.
//!
//! Appendix C discusses operations the Tofino can implement that the base
//! memop syntax rejects. This implementation enforces the base rules (no
//! reads of more than one packet-local variable, no complex arithmetic)
//! and additionally implements the appendix's proposed **extension**: a
//! compound condition (`&&`/`||` of two comparisons) is accepted as a
//! *complex* memop, flagged via [`MemopIr::is_complex`], and the type
//! checker bars complex memops from `Array.update` — where two memops
//! must share one sALU instruction — while allowing them in
//! `Array.get`/`Array.set`.
//!
//! Every rejection carries the span of the offending expression so the
//! programmer sees *exactly* which construct exceeds one sALU.

use crate::arith;
use crate::symbols::ProgramInfo;
use lucid_frontend::ast::*;
use lucid_frontend::diag::{Diagnostic, Diagnostics};

/// The validated shape of a memop, consumed by the interpreter (to evaluate
/// it) and by the backend (to emit a `RegisterAction`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemopIr {
    pub name: String,
    /// Name of the first parameter — bound to the stored SRAM word.
    pub mem_param: String,
    /// Name of the second parameter — bound to the packet-local operand.
    pub local_param: String,
    pub body: MemopBody,
}

impl MemopIr {
    /// True for extended (Appendix C) memops that consume a whole sALU's
    /// predicate capacity and therefore cannot share an `Array.update`.
    pub fn is_complex(&self) -> bool {
        matches!(self.body, MemopBody::CondCompound { .. })
    }
}

/// Body of a validated memop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemopBody {
    /// `return <cell>;`
    Return(MemopCell),
    /// `if (<a> <cmp> <b>) { return <t>; } else { return <f>; }`
    Cond {
        lhs: MemopAtom,
        cmp: BinOp,
        rhs: MemopAtom,
        then_val: MemopCell,
        else_val: MemopCell,
    },
    /// Extended memop (Appendix C): a *compound* condition of two simple
    /// comparisons joined by `&&`/`||`. A single sALU can evaluate this,
    /// but only when it is the instruction's sole memop — so memops of
    /// this shape are restricted to `Array.get`/`Array.set` positions and
    /// rejected in `Array.update` (enforced by the type checker).
    CondCompound {
        and: bool,
        a: (MemopAtom, BinOp, MemopAtom),
        b: (MemopAtom, BinOp, MemopAtom),
        then_val: MemopCell,
        else_val: MemopCell,
    },
}

/// A value expression inside a memop: one atom or one ALU op over two atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemopCell {
    Atom(MemopAtom),
    Binop {
        op: BinOp,
        lhs: MemopAtom,
        rhs: MemopAtom,
    },
}

/// A leaf operand of a memop expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemopAtom {
    /// The stored (SRAM) parameter.
    Mem,
    /// The packet-local parameter.
    Local,
    /// A literal or `const` value.
    Const(u64),
}

/// Intermediate condition shape during validation.
enum MemopCondition {
    Simple(MemopAtom, BinOp, MemopAtom),
    Compound {
        and: bool,
        a: (MemopAtom, BinOp, MemopAtom),
        b: (MemopAtom, BinOp, MemopAtom),
    },
}

/// Validate every memop in `program`, returning their IR forms keyed by
/// name. All violations are collected (not fail-fast) so a programmer sees
/// each offending construct in one compile.
pub fn validate_memops(program: &Program, info: &ProgramInfo) -> Result<Vec<MemopIr>, Diagnostics> {
    let mut out = Vec::new();
    let mut diags = Diagnostics::new();
    for decl in &program.decls {
        if let DeclKind::Memop { name, params, body } = &decl.kind {
            match validate_one(name, params, body, info) {
                Ok(ir) => out.push(ir),
                Err(mut ds) => diags.items.append(&mut ds.items),
            }
        }
    }
    if diags.has_errors() {
        Err(diags.or_code_all("E0300"))
    } else {
        Ok(out)
    }
}

fn validate_one(
    name: &Ident,
    params: &[Param],
    body: &Block,
    info: &ProgramInfo,
) -> Result<MemopIr, Diagnostics> {
    let mut diags = Diagnostics::new();

    if params.len() != 2 {
        diags.push(
            Diagnostic::error(
                format!(
                    "memop `{name}` must take exactly two arguments (the stored value and one \
                     local operand); it takes {}",
                    params.len()
                ),
                name.span,
            )
            .with_help(
                "a stateful ALU reads one SRAM word and one packet operand per packet — \
                 more inputs cannot fit in a single sALU (paper §4.2, Appendix C)",
            ),
        );
        return Err(diags);
    }
    for p in params {
        if p.ty.int_width().is_none() {
            diags.push(Diagnostic::error(
                format!(
                    "memop parameter `{}` must be an integer, not {}",
                    p.name, p.ty
                ),
                p.span,
            ));
        }
    }
    if diags.has_errors() {
        return Err(diags);
    }

    let mem = params[0].name.name.clone();
    let local = params[1].name.name.clone();
    let cx = Cx {
        mem: &mem,
        local: &local,
        info,
    };

    let ir_body = match &body.stmts[..] {
        [Stmt {
            kind: StmtKind::Return(Some(e)),
            ..
        }] => cx.cell(e, &mut diags).map(MemopBody::Return),
        [Stmt {
            kind:
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk: Some(else_blk),
                },
            ..
        }] => {
            let ret_of = |blk: &Block, diags: &mut Diagnostics| -> Option<Expr> {
                match &blk.stmts[..] {
                    [Stmt {
                        kind: StmtKind::Return(Some(e)),
                        ..
                    }] => Some(e.clone()),
                    _ => {
                        diags.push(
                            Diagnostic::error(
                                "each branch of a memop's `if` must be exactly one `return`",
                                blk.span,
                            )
                            .with_help(
                                "a stateful ALU evaluates one predicated expression per branch; \
                                 extra statements cannot execute in the same sALU pass",
                            ),
                        );
                        None
                    }
                }
            };
            let cond_ir = cx.condition(cond, &mut diags);
            let t = ret_of(then_blk, &mut diags).and_then(|e| cx.cell(&e, &mut diags));
            let f = ret_of(else_blk, &mut diags).and_then(|e| cx.cell(&e, &mut diags));
            match (cond_ir, t, f) {
                (Some(MemopCondition::Simple(lhs, cmp, rhs)), Some(then_val), Some(else_val)) => {
                    Some(MemopBody::Cond {
                        lhs,
                        cmp,
                        rhs,
                        then_val,
                        else_val,
                    })
                }
                (Some(MemopCondition::Compound { and, a, b }), Some(then_val), Some(else_val)) => {
                    Some(MemopBody::CondCompound {
                        and,
                        a,
                        b,
                        then_val,
                        else_val,
                    })
                }
                _ => None,
            }
        }
        _ => {
            diags.push(
                Diagnostic::error(
                    format!(
                        "memop `{name}` body must be a single `return`, or one `if` with a \
                         `return` in each branch"
                    ),
                    body.span,
                )
                .with_help("this is the complete set of shapes a single stateful ALU supports"),
            );
            None
        }
    };

    match ir_body {
        Some(b) if !diags.has_errors() => Ok(MemopIr {
            name: name.name.clone(),
            mem_param: mem,
            local_param: local,
            body: b,
        }),
        _ => Err(diags),
    }
}

struct Cx<'a> {
    mem: &'a str,
    local: &'a str,
    info: &'a ProgramInfo,
}

impl Cx<'_> {
    /// Parse an expression as a memop *cell* (rule: at most one ALU op, each
    /// variable used at most once per expression).
    fn cell(&self, e: &Expr, diags: &mut Diagnostics) -> Option<MemopCell> {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } => {
                if !op.salu_supported() {
                    diags.push(
                        Diagnostic::error(
                            format!(
                                "operator `{op}` is not supported inside a memop; a stateful \
                                 ALU provides only `+`, `-`, `&`, `|`, `^`"
                            ),
                            e.span,
                        )
                        .with_help(
                            "compute the complex part into a local variable *before* the \
                             Array call, then pass it as the memop's second argument",
                        ),
                    );
                    return None;
                }
                let l = self.atom(lhs, diags)?;
                let r = self.atom(rhs, diags)?;
                self.check_single_use(&[l, r], e, diags)?;
                Some(MemopCell::Binop {
                    op: *op,
                    lhs: l,
                    rhs: r,
                })
            }
            _ => Some(MemopCell::Atom(self.atom(e, diags)?)),
        }
    }

    /// Parse a memop *condition*: one comparison, or (Appendix C) one
    /// `&&`/`||` of two comparisons.
    fn condition(&self, e: &Expr, diags: &mut Diagnostics) -> Option<MemopCondition> {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
                let l = self.atom(lhs, diags)?;
                let r = self.atom(rhs, diags)?;
                self.check_single_use(&[l, r], e, diags)?;
                Some(MemopCondition::Simple(l, *op, r))
            }
            ExprKind::Binary { op, lhs, rhs } if op.is_logical() => {
                // Appendix C extension: one `&&`/`||` of two simple
                // comparisons. Per-comparison single-use still applies, but
                // the memop is flagged complex and barred from
                // Array.update by the type checker.
                let a = self.simple_cmp(lhs, diags)?;
                let b = self.simple_cmp(rhs, diags)?;
                Some(MemopCondition::Compound {
                    and: *op == BinOp::And,
                    a,
                    b,
                })
            }
            _ => {
                diags.push(Diagnostic::error(
                    "memop condition must be a single comparison between two operands",
                    e.span,
                ));
                None
            }
        }
    }

    /// One simple comparison inside a compound condition.
    fn simple_cmp(
        &self,
        e: &Expr,
        diags: &mut Diagnostics,
    ) -> Option<(MemopAtom, BinOp, MemopAtom)> {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
                let l = self.atom(lhs, diags)?;
                let r = self.atom(rhs, diags)?;
                self.check_single_use(&[l, r], e, diags)?;
                Some((l, *op, r))
            }
            _ => {
                diags.push(Diagnostic::error(
                    "each side of a compound memop condition must be a simple comparison",
                    e.span,
                ));
                None
            }
        }
    }

    /// Parse a leaf operand: a parameter or a constant.
    fn atom(&self, e: &Expr, diags: &mut Diagnostics) -> Option<MemopAtom> {
        match &e.kind {
            ExprKind::Int { value, .. } => Some(MemopAtom::Const(*value)),
            ExprKind::Bool(b) => Some(MemopAtom::Const(*b as u64)),
            ExprKind::Var(id) if id.name == self.mem => Some(MemopAtom::Mem),
            ExprKind::Var(id) if id.name == self.local => Some(MemopAtom::Local),
            ExprKind::Var(id) => {
                if let Some(c) = self.info.consts.get(&id.name) {
                    Some(MemopAtom::Const(c.value))
                } else {
                    diags.push(
                        Diagnostic::error(
                            format!(
                                "`{}` is not a memop parameter or a `const`; a memop can read \
                                 only its two arguments and compile-time constants",
                                id.name
                            ),
                            id.span,
                        )
                        .with_help(
                            "to use another packet-local value, pass it as the memop's \
                             second argument at the Array call site",
                        ),
                    );
                    None
                }
            }
            ExprKind::Binary { .. } => {
                diags.push(
                    Diagnostic::error(
                        "nested arithmetic exceeds one stateful ALU; a memop expression may \
                         contain at most one operator",
                        e.span,
                    )
                    .with_help("hoist part of the computation out of the memop"),
                );
                None
            }
            _ => {
                diags.push(Diagnostic::error(
                    "unsupported expression inside a memop",
                    e.span,
                ));
                None
            }
        }
    }

    /// Rule 2: each variable used at most once per expression.
    fn check_single_use(
        &self,
        atoms: &[MemopAtom],
        e: &Expr,
        diags: &mut Diagnostics,
    ) -> Option<()> {
        let mems = atoms.iter().filter(|a| matches!(a, MemopAtom::Mem)).count();
        let locals = atoms
            .iter()
            .filter(|a| matches!(a, MemopAtom::Local))
            .count();
        if mems > 1 || locals > 1 {
            let which = if mems > 1 { self.mem } else { self.local };
            diags.push(
                Diagnostic::error(
                    format!("variable `{which}` is used more than once in this expression"),
                    e.span,
                )
                .with_help(
                    "each sALU operand port can be wired to a value once per expression \
                     (paper §4.2, rule 2)",
                ),
            );
            return None;
        }
        Some(())
    }
}

/// Evaluate a validated memop on concrete values — the reference semantics
/// shared by the interpreter and by tests of the backend's RegisterAction
/// translation. `width` masks all intermediate results, mirroring the
/// fixed-width ALU datapath.
pub fn eval_memop(m: &MemopIr, mem: u64, local: u64, width: u32) -> u64 {
    let atom = |a: MemopAtom| -> u64 {
        match a {
            MemopAtom::Mem => mem,
            MemopAtom::Local => local,
            MemopAtom::Const(c) => arith::mask(c, width),
        }
    };
    let cell = |c: &MemopCell| -> u64 {
        match c {
            MemopCell::Atom(a) => atom(*a),
            MemopCell::Binop { op, lhs, rhs } => arith::binop(*op, atom(*lhs), atom(*rhs), width),
        }
    };
    let cmp_eval = |l: MemopAtom, cmp: BinOp, r: MemopAtom| arith::cmp(cmp, atom(l), atom(r));
    match &m.body {
        MemopBody::Return(c) => cell(c),
        MemopBody::Cond {
            lhs,
            cmp,
            rhs,
            then_val,
            else_val,
        } => {
            if cmp_eval(*lhs, *cmp, *rhs) {
                cell(then_val)
            } else {
                cell(else_val)
            }
        }
        MemopBody::CondCompound {
            and,
            a,
            b,
            then_val,
            else_val,
        } => {
            let ra = cmp_eval(a.0, a.1, a.2);
            let rb = cmp_eval(b.0, b.1, b.2);
            let taken = if *and { ra && rb } else { ra || rb };
            if taken {
                cell(then_val)
            } else {
                cell(else_val)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frontend::parse_program;

    fn validate(src: &str) -> Result<Vec<MemopIr>, Diagnostics> {
        let p = parse_program(src).unwrap();
        let info = ProgramInfo::build(&p).unwrap();
        validate_memops(&p, &info)
    }

    #[test]
    fn paper_incr_memop_is_valid() {
        let irs = validate("memop incr(int stored, int added) { return stored + added; }").unwrap();
        assert_eq!(irs.len(), 1);
        assert_eq!(eval_memop(&irs[0], 10, 5, 32), 15);
    }

    #[test]
    fn conditional_memop_is_valid() {
        let irs = validate(
            "memop newer(int stored, int t) { if (stored < t) { return t; } else { return stored; } }",
        )
        .unwrap();
        assert_eq!(eval_memop(&irs[0], 3, 9, 32), 9);
        assert_eq!(eval_memop(&irs[0], 12, 9, 32), 12);
    }

    #[test]
    fn paper_register_action_example_rejected() {
        // The P4 RegisterAction from §4 that is "too complex for the Tofino":
        // both branches compute, and one reads two locals. In memop form the
        // closest encoding uses nested arithmetic; it must be rejected.
        let err = validate(
            "memop bad(int memCell, int y) {
                if (memCell > y) { return memCell + y; } else { return y + y; }
             }",
        )
        .unwrap_err();
        assert!(
            err.items
                .iter()
                .any(|d| d.message.contains("more than once")),
            "{err}"
        );
    }

    #[test]
    fn compound_condition_accepted_as_complex_memop() {
        // Appendix C extension: the compound-condition memop that the base
        // design rejects is representable as a *complex* memop, flagged so
        // the checker can keep it out of Array.update.
        let irs = validate(
            "memop cc(int m, int y) {
                if (m == 1 || m == 2) { return m; } else { return y; }
             }",
        )
        .unwrap();
        assert!(irs[0].is_complex());
        assert_eq!(eval_memop(&irs[0], 2, 9, 32), 2);
        assert_eq!(eval_memop(&irs[0], 3, 9, 32), 9);
    }

    #[test]
    fn compound_and_condition_evaluates() {
        let irs = validate(
            "memop inband(int m, int y) {
                if (m >= 10 && m <= 20) { return y; } else { return m; }
             }",
        )
        .unwrap();
        assert_eq!(eval_memop(&irs[0], 15, 1, 32), 1);
        assert_eq!(eval_memop(&irs[0], 25, 1, 32), 25);
    }

    #[test]
    fn nested_compound_condition_still_rejected() {
        let err = validate(
            "memop cc(int m, int y) {
                if ((m == 1 || m == 2) || m == 3) { return m; } else { return y; }
             }",
        )
        .unwrap_err();
        assert!(
            err.items[0].message.contains("simple comparison"),
            "{}",
            err.items[0]
        );
    }

    #[test]
    fn appendix_c_multiply_rejected() {
        let err = validate(
            "const int N = 10;
             memop multiply(int memval, int x) { return (N * memval) + x; }",
        )
        .unwrap_err();
        assert!(
            err.items
                .iter()
                .any(|d| d.message.contains("nested") || d.message.contains("not supported")),
            "{err}"
        );
    }

    #[test]
    fn three_params_rejected() {
        let err = validate(
            "memop two(int memval, int y, int z) {
                if (memval == 1) { return y; } else { return z; }
             }",
        )
        .unwrap_err();
        assert!(
            err.items[0].message.contains("exactly two arguments"),
            "{}",
            err.items[0]
        );
    }

    #[test]
    fn foreign_variable_rejected() {
        let err = validate("memop f(int m, int y) { return m + other; }").unwrap_err();
        assert!(err.items[0].message.contains("other"), "{}", err.items[0]);
    }

    #[test]
    fn const_operands_allowed() {
        let irs =
            validate("const int LIMIT = 100; memop capped(int m, int y) { if (m < LIMIT) { return y; } else { return m; } }")
                .unwrap();
        assert_eq!(eval_memop(&irs[0], 50, 7, 32), 7);
        assert_eq!(eval_memop(&irs[0], 150, 7, 32), 150);
    }

    #[test]
    fn extra_statements_in_branch_rejected() {
        let err = validate(
            "memop f(int m, int y) {
                if (m == 0) { int t = y; return t; } else { return m; }
             }",
        )
        .unwrap_err();
        assert!(
            err.items[0].message.contains("exactly one `return`"),
            "{}",
            err.items[0]
        );
    }

    #[test]
    fn multiple_memops_collect_all_errors() {
        let err = validate(
            "memop a(int m, int y) { return m * y; }
             memop b(int m, int y) { return m + q; }",
        )
        .unwrap_err();
        assert!(
            err.items.len() >= 2,
            "expected both memops to report: {err}"
        );
    }

    #[test]
    fn eval_masks_to_width() {
        let irs = validate("memop inc(int m, int y) { return m + y; }").unwrap();
        assert_eq!(eval_memop(&irs[0], 0xff, 1, 8), 0);
    }

    #[test]
    fn subtraction_wraps() {
        let irs = validate("memop dec(int m, int y) { return m - y; }").unwrap();
        assert_eq!(eval_memop(&irs[0], 0, 1, 32), u32::MAX as u64);
    }
}
