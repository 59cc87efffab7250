//! Pretty-printer for Lucid ASTs.
//!
//! Produces valid Lucid source text: `parse(pretty(parse(src)))` equals
//! `parse(src)` up to spans. This is exercised by property tests and is also
//! used by the CLI's `fmt`-style dump and by error messages that quote
//! rewritten code.

use crate::ast::*;
use std::fmt::Write;

/// Pretty-print a whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for d in &p.decls {
        decl(&mut out, d);
        out.push('\n');
    }
    out
}

/// Pretty-print one declaration.
pub fn decl(out: &mut String, d: &Decl) {
    match &d.kind {
        DeclKind::Const { ty, name, value } => {
            let _ = writeln!(out, "const {ty} {name} = {};", expr_str(value));
        }
        DeclKind::Group { name, members } => {
            let ms: Vec<_> = members.iter().map(expr_str).collect();
            let _ = writeln!(out, "const group {name} = {{{}}};", ms.join(", "));
        }
        DeclKind::GlobalArray {
            name,
            cell_width,
            size,
        } => {
            let _ = writeln!(
                out,
                "global {name} = new Array<<{cell_width}>>({});",
                expr_str(size)
            );
        }
        DeclKind::Event { name, params } => {
            let _ = writeln!(out, "event {name}({});", params_str(params));
        }
        DeclKind::Handler { name, params, body } => {
            let _ = write!(out, "handle {name}({}) ", params_str(params));
            block(out, body, 0);
            out.push('\n');
        }
        DeclKind::Fun {
            ret_ty,
            name,
            params,
            body,
        } => {
            let _ = write!(out, "fun {ret_ty} {name}({}) ", params_str(params));
            block(out, body, 0);
            out.push('\n');
        }
        DeclKind::Memop { name, params, body } => {
            let _ = write!(out, "memop {name}({}) ", params_str(params));
            block(out, body, 0);
            out.push('\n');
        }
    }
}

fn params_str(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| format!("{} {}", p.ty, p.name))
        .collect::<Vec<_>>()
        .join(", ")
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

/// Pretty-print a block at the given indentation depth.
pub fn block(out: &mut String, b: &Block, depth: usize) {
    out.push_str("{\n");
    for s in &b.stmts {
        stmt(out, s, depth + 1);
    }
    indent(out, depth);
    out.push('}');
}

/// Pretty-print one statement.
pub fn stmt(out: &mut String, s: &Stmt, depth: usize) {
    indent(out, depth);
    match &s.kind {
        StmtKind::Local { ty, name, init } => {
            match ty {
                Some(t) => {
                    let _ = writeln!(out, "{t} {name} = {};", expr_str(init));
                }
                None => {
                    let _ = writeln!(out, "auto {name} = {};", expr_str(init));
                }
            };
        }
        StmtKind::Assign { name, value } => {
            let _ = writeln!(out, "{name} = {};", expr_str(value));
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            let _ = write!(out, "if ({}) ", expr_str(cond));
            block(out, then_blk, depth);
            if let Some(e) = else_blk {
                out.push_str(" else ");
                block(out, e, depth);
            }
            out.push('\n');
        }
        StmtKind::Generate(e) => {
            let _ = writeln!(out, "generate {};", expr_str(e));
        }
        StmtKind::MGenerate(e) => {
            let _ = writeln!(out, "mgenerate {};", expr_str(e));
        }
        StmtKind::Return(None) => out.push_str("return;\n"),
        StmtKind::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", expr_str(e));
        }
        StmtKind::Printf { fmt, args } => {
            let escaped = fmt
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            if args.is_empty() {
                let _ = writeln!(out, "printf(\"{escaped}\");");
            } else {
                let a: Vec<_> = args.iter().map(expr_str).collect();
                let _ = writeln!(out, "printf(\"{escaped}\", {});", a.join(", "));
            }
        }
        StmtKind::Expr(e) => {
            let _ = writeln!(out, "{};", expr_str(e));
        }
    }
}

/// Render an expression, parenthesizing conservatively: any nested binary or
/// unary expression is wrapped, which keeps the printer simple and always
/// correct with respect to precedence.
fn expr_str(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Int { value, width } => match width.get() {
            None => format!("{value}"),
            Some(w) => format!("(int<<{w}>>) {value}"),
        },
        ExprKind::Bool(b) => format!("{b}"),
        ExprKind::Var(id) => id.name.clone(),
        ExprKind::Unary { op, arg } => format!("{}{}", op.symbol(), atom(arg)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("{} {} {}", atom(lhs), op.symbol(), atom(rhs))
        }
        ExprKind::Call { callee, args } => {
            let a: Vec<_> = args.iter().map(expr_str).collect();
            format!("{}({})", callee.name, a.join(", "))
        }
        ExprKind::BuiltinCall { builtin, args, .. } => {
            let a: Vec<_> = args.iter().map(expr_str).collect();
            format!("{}({})", builtin.path(), a.join(", "))
        }
        ExprKind::Hash { width, args } => {
            let a: Vec<_> = args.iter().map(expr_str).collect();
            format!("hash<<{width}>>({})", a.join(", "))
        }
        ExprKind::Cast { width, arg } => format!("(int<<{width}>>) {}", atom(arg)),
    }
}

/// Like [`expr_str`] but parenthesizes compound expressions.
fn atom(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Binary { .. } | ExprKind::Unary { .. } | ExprKind::Cast { .. } => {
            format!("({})", expr_str(e))
        }
        _ => expr_str(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    /// Strip spans by re-parsing: two programs are structurally equal if
    /// their pretty forms match.
    fn roundtrip(src: &str) {
        let p1 = parse_program(src).expect("first parse");
        let printed = program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        assert_eq!(program(&p2), printed, "pretty printing is not a fixpoint");
    }

    #[test]
    fn roundtrip_paper_example() {
        roundtrip(
            r#"
            const int SIZE = 16;
            global arr1 = new Array<<32>>(SIZE);
            global arr2 = new Array<<32>>(SIZE);
            handle setArr1(int idx, int data) {
                int x = Array.get(arr2, idx);
                Array.set(arr1, idx, x);
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_operators_and_casts() {
        roundtrip(
            r#"
            handle h(int a, int b) {
                int c = ((a + b) * 2) >> 1;
                int d = (int<<16>>) c;
                bool e = (a == b) || (!(a < b) && (b != 0));
                if (e) { generate h(c, d); }
            }
            event hh(int a, int b);
            "#,
        );
    }

    #[test]
    fn expr_parenthesization_preserves_structure() {
        let e1 = parse_expr("1 + 2 * 3").unwrap();
        let printed = expr_str(&e1);
        let e2 = parse_expr(&printed).unwrap();
        assert_eq!(expr_str(&e2), printed);
        assert_eq!(printed, "1 + (2 * 3)");
    }

    #[test]
    fn printf_escaping() {
        roundtrip(r#"handle h(int x) { printf("a\"b\nc %d", x); }"#);
    }
}
