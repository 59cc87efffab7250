//! Symbol tables and compile-time constant evaluation.
//!
//! [`ProgramInfo`] is the first artifact of semantic analysis: it collects
//! every top-level declaration into lookup tables, resolves `const`
//! expressions to values, and assigns each `global` array its **stage
//! index** — the declaration-order position that the ordered type-and-effect
//! system (§5 of the paper) treats as the specification of pipeline layout.

use crate::arith::{self, mask};
use crate::typecheck::{literal_width, type_operands, width_mismatch};
use lucid_frontend::ast::*;
use lucid_frontend::diag::{Diagnostic, Diagnostics};
use lucid_frontend::span::Span;
use std::collections::HashMap;

/// Identifier of a global array: its declaration-order index. The type
/// system's "stage" for the array is exactly this number (Appendix A assigns
/// `g_i` the type `ref(T_i, i)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub usize);

/// A resolved global array declaration.
#[derive(Debug, Clone)]
pub struct GlobalInfo {
    pub id: GlobalId,
    pub name: String,
    /// Bit width of each cell.
    pub cell_width: u32,
    /// Number of cells, resolved from the (constant) size expression.
    pub len: u64,
    pub span: Span,
}

/// A resolved event declaration.
#[derive(Debug, Clone)]
pub struct EventInfo {
    /// Index of the event in declaration order; doubles as its wire
    /// identifier in generated packet headers.
    pub id: usize,
    pub name: String,
    pub params: Vec<Param>,
    pub span: Span,
}

/// A resolved compile-time constant.
#[derive(Debug, Clone)]
pub struct ConstInfo {
    pub name: String,
    pub ty: Ty,
    pub value: u64,
    pub span: Span,
}

/// A resolved multicast group.
#[derive(Debug, Clone)]
pub struct GroupInfo {
    pub name: String,
    /// Switch locations, resolved to constants.
    pub members: Vec<u64>,
    pub span: Span,
}

/// Symbol tables for a parsed program. Function, handler, and memop bodies
/// stay in the AST; this structure only records their signatures.
#[derive(Debug, Clone, Default)]
pub struct ProgramInfo {
    pub consts: HashMap<String, ConstInfo>,
    pub groups: HashMap<String, GroupInfo>,
    pub globals: Vec<GlobalInfo>,
    pub globals_by_name: HashMap<String, GlobalId>,
    pub events: Vec<EventInfo>,
    pub events_by_name: HashMap<String, usize>,
    /// Function name → (return type, params).
    pub funs: HashMap<String, (Ty, Vec<Param>)>,
    /// Memop name → params (always two ints once validated).
    pub memops: HashMap<String, Vec<Param>>,
    /// Handler name → params.
    pub handlers: HashMap<String, Vec<Param>>,
}

impl ProgramInfo {
    /// Build symbol tables from a parsed program, resolving constants.
    /// Returns the first error; [`ProgramInfo::build_all`] accumulates.
    pub fn build(program: &Program) -> Result<ProgramInfo, Diagnostic> {
        let (info, mut diags) = Self::build_all(program);
        match diags.items.is_empty() {
            true => Ok(info),
            false => Err(diags.items.remove(0)),
        }
    }

    /// Build symbol tables from a parsed program, resolving constants and
    /// accumulating one diagnostic per bad declaration instead of stopping
    /// at the first (a bad declaration is skipped; the rest still resolve).
    ///
    /// Duplicate names across any namespace are rejected: Lucid identifiers
    /// share one namespace so that error messages never depend on which
    /// table a name resolved from.
    pub fn build_all(program: &Program) -> (ProgramInfo, Diagnostics) {
        let mut info = ProgramInfo::default();
        let mut diags = Diagnostics::new();
        let mut taken: HashMap<String, Span> = HashMap::new();
        let claim = |name: &Ident, taken: &mut HashMap<String, Span>| {
            if let Some(prev) = taken.get(&name.name) {
                return Err(Diagnostic::error(
                    format!("duplicate declaration of `{}`", name.name),
                    name.span,
                )
                .with_note("previously declared here", *prev));
            }
            taken.insert(name.name.clone(), name.span);
            Ok(())
        };

        for decl in &program.decls {
            // One bad declaration must not hide problems in the next, so
            // each arm reports into `diags` and continues the scan.
            let result: Result<(), Diagnostic> = (|| {
                match &decl.kind {
                    DeclKind::Const { ty, name, value } => {
                        claim(name, &mut taken)?;
                        let (v, _) = info.eval_typed(value, Some(*ty))?;
                        let v = match ty {
                            Ty::Int(w) => mask(v, *w),
                            Ty::Bool => {
                                if v > 1 {
                                    return Err(Diagnostic::error(
                                        format!(
                                            "boolean constant `{}` must be 0/1/true/false",
                                            name
                                        ),
                                        value.span,
                                    ));
                                }
                                v
                            }
                            other => {
                                return Err(Diagnostic::error(
                                    format!("`const` of type {other} is not supported"),
                                    decl.span,
                                ))
                            }
                        };
                        info.consts.insert(
                            name.name.clone(),
                            ConstInfo {
                                name: name.name.clone(),
                                ty: *ty,
                                value: v,
                                span: name.span,
                            },
                        );
                    }
                    DeclKind::Group { name, members } => {
                        claim(name, &mut taken)?;
                        let mut vals = Vec::with_capacity(members.len());
                        for m in members {
                            vals.push(info.eval_const(m)?);
                        }
                        info.groups.insert(
                            name.name.clone(),
                            GroupInfo {
                                name: name.name.clone(),
                                members: vals,
                                span: name.span,
                            },
                        );
                    }
                    DeclKind::GlobalArray {
                        name,
                        cell_width,
                        size,
                    } => {
                        claim(name, &mut taken)?;
                        let len = info.eval_const(size)?;
                        if len == 0 {
                            return Err(Diagnostic::error(
                                format!("global array `{name}` has zero length"),
                                size.span,
                            ));
                        }
                        let id = GlobalId(info.globals.len());
                        info.globals.push(GlobalInfo {
                            id,
                            name: name.name.clone(),
                            cell_width: *cell_width,
                            len,
                            span: name.span,
                        });
                        info.globals_by_name.insert(name.name.clone(), id);
                    }
                    DeclKind::Event { name, params } => {
                        claim(name, &mut taken)?;
                        let id = info.events.len();
                        info.events.push(EventInfo {
                            id,
                            name: name.name.clone(),
                            params: params.clone(),
                            span: name.span,
                        });
                        info.events_by_name.insert(name.name.clone(), id);
                    }
                    DeclKind::Handler { name, params, .. } => {
                        // Handlers share their event's name; do not claim it.
                        if info.handlers.contains_key(&name.name) {
                            return Err(Diagnostic::error(
                                format!("duplicate handler `{name}`"),
                                name.span,
                            ));
                        }
                        info.handlers.insert(name.name.clone(), params.clone());
                    }
                    DeclKind::Fun {
                        ret_ty,
                        name,
                        params,
                        ..
                    } => {
                        claim(name, &mut taken)?;
                        info.funs
                            .insert(name.name.clone(), (*ret_ty, params.clone()));
                    }
                    DeclKind::Memop { name, params, .. } => {
                        claim(name, &mut taken)?;
                        info.memops.insert(name.name.clone(), params.clone());
                    }
                }
                Ok(())
            })();
            if let Err(d) = result {
                diags.push(d.or_code("E0200"));
            }
        }
        (info, diags)
    }

    /// Evaluate a compile-time constant expression. Only integers, booleans,
    /// previously-declared constants, and pure operators are allowed.
    pub fn eval_const(&self, e: &Expr) -> Result<u64, Diagnostic> {
        self.eval_typed(e, None).map(|(v, _)| v)
    }

    /// [`ProgramInfo::eval_const`] with `context` as the type the value
    /// is wanted at: the value and its width (a boolean is one bit),
    /// computed with the checker's literal widths and the run time's
    /// operators.
    fn eval_typed(&self, e: &Expr, context: Option<Ty>) -> Result<(u64, u32), Diagnostic> {
        match &e.kind {
            ExprKind::Int { value, width } => {
                let w = width.get().copied();
                let w = w.unwrap_or_else(|| literal_width(context));
                Ok((mask(*value, w), w))
            }
            ExprKind::Bool(b) => Ok((*b as u64, 1)),
            ExprKind::Var(id) => match self.consts.get(&id.name) {
                Some(c) => Ok((c.value, c.ty.int_width().unwrap_or(1))),
                None => Err(Diagnostic::error(
                    format!(
                        "`{}` is not a compile-time constant (only `const` names may appear here)",
                        id.name
                    ),
                    id.span,
                )),
            },
            ExprKind::Unary { op, arg } => {
                let (v, w) = self.eval_typed(arg, context)?;
                Ok((arith::unop(*op, v, w), if *op == UnOp::Not { 1 } else { w }))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, r) = type_operands(
                    *op,
                    lhs,
                    rhs,
                    context,
                    |x, want| self.eval_typed(x, want),
                    |r| r.as_ref().ok().map(|&(_, w)| Ty::Int(w)),
                );
                let ((a, wa), (b, wb)) = (l?, r?);
                let shift = matches!(op, BinOp::Shl | BinOp::Shr);
                if wa != wb && !shift && !op.is_logical() {
                    return Err(width_mismatch(e, wa, wb));
                }
                if b == 0 && matches!(op, BinOp::Div | BinOp::Mod) {
                    let what = if *op == BinOp::Div {
                        "division"
                    } else {
                        "modulo"
                    };
                    return Err(Diagnostic::error(
                        format!("{what} by zero in constant"),
                        e.span,
                    ));
                }
                let w = if op.is_comparison() || op.is_logical() {
                    1
                } else {
                    wa
                };
                Ok((arith::binop(*op, a, b, w), w))
            }
            ExprKind::Cast { width, arg } => {
                let (v, _) = self.eval_typed(arg, None)?;
                Ok((mask(v, *width), *width))
            }
            _ => Err(Diagnostic::error(
                "this expression is not a compile-time constant",
                e.span,
            )),
        }
    }

    /// Look up a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalInfo> {
        self.globals_by_name.get(name).map(|id| &self.globals[id.0])
    }

    /// Look up an event by name.
    pub fn event(&self, name: &str) -> Option<&EventInfo> {
        self.events_by_name.get(name).map(|id| &self.events[*id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frontend::parse_program;

    fn build(src: &str) -> ProgramInfo {
        ProgramInfo::build(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn const_folding_through_references() {
        let info = build("const int A = 4; const int B = A * 2 + 1;");
        assert_eq!(info.consts["B"].value, 9);
    }

    #[test]
    fn global_sizes_resolve_to_constants() {
        let info = build("const int N = 16; global t = new Array<<32>>(N * 4);");
        assert_eq!(info.global("t").unwrap().len, 64);
        assert_eq!(info.global("t").unwrap().id, GlobalId(0));
    }

    #[test]
    fn stage_indices_follow_declaration_order() {
        let info = build(
            "global a = new Array<<32>>(1); global b = new Array<<16>>(2); \
             global c = new Array<<8>>(3);",
        );
        assert_eq!(info.global("a").unwrap().id, GlobalId(0));
        assert_eq!(info.global("b").unwrap().id, GlobalId(1));
        assert_eq!(info.global("c").unwrap().id, GlobalId(2));
        assert_eq!(info.global("c").unwrap().cell_width, 8);
    }

    #[test]
    fn duplicate_names_rejected_across_namespaces() {
        let err = ProgramInfo::build(
            &parse_program("const int x = 1; global x = new Array<<32>>(4);").unwrap(),
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn handler_may_share_event_name() {
        let info = build("event ping(int x); handle ping(int x) { generate ping(x); }");
        assert!(info.event("ping").is_some());
        assert!(info.handlers.contains_key("ping"));
    }

    #[test]
    fn zero_length_array_rejected() {
        let err = ProgramInfo::build(&parse_program("global a = new Array<<32>>(0);").unwrap())
            .unwrap_err();
        assert!(err.message.contains("zero length"));
    }

    #[test]
    fn non_constant_size_rejected() {
        let src = "event e(int n); global a = new Array<<32>>(n);";
        let err = ProgramInfo::build(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.message.contains("not a compile-time constant"));
    }

    #[test]
    fn const_mask_applies_width() {
        let info = build("const int<<8>> A = 300;");
        assert_eq!(info.consts["A"].value, 300 & 0xff);
    }

    #[test]
    fn const_operands_of_two_widths_rejected() {
        // The run-time rule (E0403) holds in constants too: nothing
        // joins two widths, so `A + B` has no one width to wrap at.
        let src = "const int<<8>> A = 200; const int<<16>> B = 300; const int<<16>> C = A + B;";
        let err = ProgramInfo::build(&parse_program(src).unwrap()).unwrap_err();
        assert_eq!(err.code, Some("E0403"), "{err}");
        let info =
            build("const int<<8>> A = 200; const int<<8>> B = A << 4; const int C = 1 << A;");
        assert_eq!((info.consts["B"].value, info.consts["C"].value), (128, 0));
    }

    #[test]
    fn groups_resolve_members() {
        let info = build("const int S2 = 2; const group G = {S2, 3, 4};");
        assert_eq!(info.groups["G"].members, vec![2, 3, 4]);
    }
}
