//! Recursive-descent parser for Lucid.
//!
//! The grammar follows the paper's surface syntax (§3–§5):
//!
//! ```text
//! program  := decl*
//! decl     := 'const' 'group' ID '=' '{' expr,* '}' ';'
//!           | 'const' ty ID '=' expr ';'
//!           | 'global' ID '=' 'new' 'Array' '<<' INT '>>' '(' expr ')' ';'
//!           | 'event' ID '(' params ')' ';'
//!           | 'handle' ID '(' params ')' block
//!           | 'fun' ty ID '(' params ')' block
//!           | 'memop' ID '(' params ')' block
//! stmt     := ty ID '=' expr ';'            (local)
//!           | ID '=' expr ';'               (assignment)
//!           | 'if' '(' expr ')' block ('else' (block | if))?
//!           | 'generate' expr ';' | 'mgenerate' expr ';'
//!           | 'return' expr? ';'
//!           | 'printf' '(' STR (',' expr)* ')' ';'
//!           | expr ';'
//! ```
//!
//! Expressions use standard C precedence. Three constructs reuse the `<<`
//! token in type position: `int<<w>>`, `Array<<w>>`, and `hash<<w>>(..)`;
//! the parser disambiguates with one token of lookahead.
//!
//! Nesting is bounded (`MAX_NESTING`): this parser and every pass after
//! it recurse over the tree, and a stack overflow is an abort no caller
//! can catch.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Deepest statement-plus-expression nesting accepted (`E0101` beyond
/// it), and so the depth of the tree every later pass recurses over; the
/// bundled apps reach 7. Sized, like the JSON codec's `MAX_DEPTH`, to a
/// 2 MiB thread (a `lucidc serve` connection, a test): over parenthesis,
/// unary, cast, call, `hash` and operator chains and nested `if` /
/// `else if`, the hungriest pass (parser, checker, lints, the walker and
/// its resolver, bytecode lowering) takes 1.5 KiB of stack per level in
/// a release build and 11.4 KiB unoptimized — a tenth and three quarters
/// of that stack at the limit.
const MAX_NESTING: usize = 128;

/// Parse a complete program. On failure, returns the first diagnostic
/// (code `E0100`: parsing stops at the first syntax error by design;
/// `E0101` when the program nests deeper than the parser accepts).
pub fn parse_program(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(src).map_err(|d| d.or_code("E0100"))?;
    Parser::new(tokens)
        .program()
        .map_err(|d| d.or_code("E0100"))
}

/// Parse a single expression (used by tests and the REPL-style tools).
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostic> {
    let mut p = Parser::new(lex(src)?);
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// How many statements and expressions enclose the one being parsed.
    depth: usize,
    /// The deepest any node under the operator chain being parsed sits:
    /// `a + b + c + …` is parsed by a loop, not by recursion, yet every
    /// operator pushes all that came before it one level further down.
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
        }
    }

    /// Step one level into a statement or operand.
    fn enter(&mut self) -> Result<(), Diagnostic> {
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        self.check_nesting()
    }

    fn check_nesting(&self) -> Result<(), Diagnostic> {
        if self.deepest > MAX_NESTING {
            return Err(Diagnostic::error(
                format!("nesting deeper than {MAX_NESTING}"),
                self.peek().span,
            )
            .with_help("split the expression into locals, or the handler into functions")
            .with_code("E0101"));
        }
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    /// Consume the current token and return it. The parser never looks
    /// back (`pos` only grows), so the token's payload is moved out, not
    /// copied; the final `Eof` stays put.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        let i = self.pos.min(last);
        if i < last {
            self.pos += 1;
        }
        let t = &mut self.tokens[i];
        Token {
            kind: std::mem::replace(&mut t.kind, TokenKind::Eof),
            span: t.span,
        }
    }

    /// Consume the current token, which the caller has seen is an
    /// `Ident` or a `Str`, and return its text.
    fn bump_text(&mut self) -> (String, Span) {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(s) | TokenKind::Str(s) => (s, t.span),
            other => unreachable!("bump_text at {other:?}"),
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn unexpected(&self, context: &str) -> Diagnostic {
        Diagnostic::error(
            format!("{context}, found {}", self.peek_kind().describe()),
            self.peek().span,
        )
    }

    fn ident(&mut self) -> Result<Ident, Diagnostic> {
        if !matches!(self.peek_kind(), TokenKind::Ident(_)) {
            return Err(self.unexpected("expected an identifier"));
        }
        let (name, span) = self.bump_text();
        if name.contains('.') {
            return Err(Diagnostic::error(
                format!("expected a plain identifier, found dotted path `{name}`"),
                span,
            ));
        }
        Ok(Ident::new(name, span))
    }

    // ---------------------------------------------------------------- decls

    fn program(&mut self) -> Result<Program, Diagnostic> {
        let mut decls = Vec::new();
        while !self.at(&TokenKind::Eof) {
            decls.push(self.decl()?);
        }
        Ok(Program { decls })
    }

    fn decl(&mut self) -> Result<Decl, Diagnostic> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::KwConst => {
                self.bump();
                if self.at(&TokenKind::KwGroup) {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(TokenKind::Assign)?;
                    self.expect(TokenKind::LBrace)?;
                    let mut members = Vec::new();
                    if !self.at(&TokenKind::RBrace) {
                        loop {
                            members.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RBrace)?;
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Decl {
                        kind: DeclKind::Group { name, members },
                        span: start.merge(end),
                    })
                } else {
                    let ty = self.ty()?;
                    let name = self.ident()?;
                    self.expect(TokenKind::Assign)?;
                    let value = self.expr()?;
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Decl {
                        kind: DeclKind::Const { ty, name, value },
                        span: start.merge(end),
                    })
                }
            }
            TokenKind::KwGlobal => {
                self.bump();
                let name = self.ident()?;
                self.expect(TokenKind::Assign)?;
                self.expect(TokenKind::KwNew)?;
                match self.peek_kind() {
                    TokenKind::Ident(s) if s == "Array" => {
                        self.bump();
                    }
                    _ => return Err(self.unexpected("expected `Array` after `new`")),
                }
                self.expect(TokenKind::Shl)?;
                let cell_width = self.int_width()?;
                self.expect(TokenKind::Shr)?;
                self.expect(TokenKind::LParen)?;
                let size = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Decl {
                    kind: DeclKind::GlobalArray {
                        name,
                        cell_width,
                        size,
                    },
                    span: start.merge(end),
                })
            }
            TokenKind::KwEvent => {
                self.bump();
                let name = self.ident()?;
                let params = self.params()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Decl {
                    kind: DeclKind::Event { name, params },
                    span: start.merge(end),
                })
            }
            TokenKind::KwHandle => {
                self.bump();
                let name = self.ident()?;
                let params = self.params()?;
                let body = self.block()?;
                let span = start.merge(body.span);
                Ok(Decl {
                    kind: DeclKind::Handler { name, params, body },
                    span,
                })
            }
            TokenKind::KwFun => {
                self.bump();
                let ret_ty = self.ty()?;
                let name = self.ident()?;
                let params = self.params()?;
                let body = self.block()?;
                let span = start.merge(body.span);
                Ok(Decl {
                    kind: DeclKind::Fun {
                        ret_ty,
                        name,
                        params,
                        body,
                    },
                    span,
                })
            }
            TokenKind::KwMemop => {
                self.bump();
                let name = self.ident()?;
                let params = self.params()?;
                let body = self.block()?;
                let span = start.merge(body.span);
                Ok(Decl {
                    kind: DeclKind::Memop { name, params, body },
                    span,
                })
            }
            _ => Err(self.unexpected(
                "expected a declaration (`const`, `global`, `event`, `handle`, `fun`, or `memop`)",
            )),
        }
    }

    fn params(&mut self) -> Result<Vec<Param>, Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let start = self.peek().span;
                let ty = self.ty()?;
                let name = self.ident()?;
                let span = start.merge(name.span);
                params.push(Param { ty, name, span });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(params)
    }

    // ---------------------------------------------------------------- types

    /// Parse a type. `Array` is recognized as an identifier-shaped keyword.
    fn ty(&mut self) -> Result<Ty, Diagnostic> {
        match self.peek_kind() {
            TokenKind::KwInt => {
                self.bump();
                if self.eat(&TokenKind::Shl) {
                    let w = self.int_width()?;
                    self.expect(TokenKind::Shr)?;
                    Ok(Ty::Int(w))
                } else {
                    Ok(Ty::Int(32))
                }
            }
            TokenKind::KwBool => {
                self.bump();
                Ok(Ty::Bool)
            }
            TokenKind::KwVoid => {
                self.bump();
                Ok(Ty::Void)
            }
            TokenKind::KwEvent => {
                self.bump();
                Ok(Ty::Event)
            }
            TokenKind::KwGroup => {
                self.bump();
                Ok(Ty::Group)
            }
            TokenKind::Ident(s) if s == "Array" => {
                self.bump();
                self.expect(TokenKind::Shl)?;
                let w = self.int_width()?;
                self.expect(TokenKind::Shr)?;
                Ok(Ty::Array(w))
            }
            _ => Err(self.unexpected("expected a type")),
        }
    }

    /// True if the current token starts a type (used to distinguish local
    /// declarations from assignments/expression statements).
    fn at_type(&self) -> bool {
        match self.peek_kind() {
            TokenKind::KwInt | TokenKind::KwBool | TokenKind::KwAuto => true,
            // `event e = ..;` local binding of an event value.
            TokenKind::KwEvent => matches!(self.peek2_kind(), TokenKind::Ident(_)),
            TokenKind::Ident(s) if s == "Array" => matches!(self.peek2_kind(), TokenKind::Shl),
            _ => false,
        }
    }

    fn int_width(&mut self) -> Result<u32, Diagnostic> {
        let t = self.bump();
        match t.kind {
            TokenKind::Int(n) if (1..=64).contains(&n) => Ok(n as u32),
            TokenKind::Int(n) => Err(Diagnostic::error(
                format!("bit width must be between 1 and 64, got {n}"),
                t.span,
            )),
            other => Err(Diagnostic::error(
                format!("expected a bit width, found {}", other.describe()),
                t.span,
            )),
        }
    }

    // ----------------------------------------------------------- statements

    fn block(&mut self) -> Result<Block, Diagnostic> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Block::new(stmts, start.merge(end)))
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        self.enter()?;
        // The arms that nest — `if` here, four in `primary` — are out of
        // line, so a level costs their frame, not every arm's temporaries.
        let stmt = if self.at(&TokenKind::KwIf) {
            self.if_stmt()?
        } else {
            self.simple_stmt()?
        };
        self.depth -= 1;
        Ok(stmt)
    }

    fn simple_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::KwGenerate => {
                self.bump();
                let e = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Generate(e),
                    span: start.merge(end),
                })
            }
            TokenKind::KwMGenerate => {
                self.bump();
                let e = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::MGenerate(e),
                    span: start.merge(end),
                })
            }
            TokenKind::KwReturn => {
                self.bump();
                let e = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Return(e),
                    span: start.merge(end),
                })
            }
            TokenKind::KwPrintf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                if !matches!(self.peek_kind(), TokenKind::Str(_)) {
                    return Err(self.unexpected("expected a format string"));
                }
                let (fmt, _) = self.bump_text();
                let mut args = Vec::new();
                while self.eat(&TokenKind::Comma) {
                    args.push(self.expr()?);
                }
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Printf { fmt, args },
                    span: start.merge(end),
                })
            }
            TokenKind::KwAuto => {
                self.bump();
                let name = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let init = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Local {
                        ty: None,
                        name,
                        init,
                    },
                    span: start.merge(end),
                })
            }
            _ if self.at_type() => {
                let ty = self.ty()?;
                let name = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let init = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Local {
                        ty: Some(ty),
                        name,
                        init,
                    },
                    span: start.merge(end),
                })
            }
            TokenKind::Ident(name)
                if !name.contains('.') && matches!(self.peek2_kind(), TokenKind::Assign) =>
            {
                let name = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let value = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Assign { name, value },
                    span: start.merge(end),
                })
            }
            _ => {
                let e = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    kind: StmtKind::Expr(e),
                    span: start.merge(end),
                })
            }
        }
    }

    /// `if (cond) block (else (block | if))?`
    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.bump().span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_blk = self.block()?;
        let mut span = start.merge(then_blk.span);
        let else_blk = if self.eat(&TokenKind::KwElse) {
            let blk = if self.at(&TokenKind::KwIf) {
                // `else if` sugar: wrap the nested if in a block.
                let nested = self.stmt()?;
                let nspan = nested.span;
                Block::new(vec![nested], nspan)
            } else {
                self.block()?
            };
            span = span.merge(blk.span);
            Some(blk)
        } else {
            None
        };
        Ok(Stmt {
            kind: StmtKind::If {
                cond,
                then_blk,
                else_blk,
            },
            span,
        })
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        self.binary(0)
    }

    /// Precedence-climbing binary expression parser. `min_prec` is the
    /// lowest binding power this call may consume.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, Diagnostic> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek_kind() {
                TokenKind::OrOr => (BinOp::Or, 1),
                TokenKind::AndAnd => (BinOp::And, 2),
                TokenKind::EqEq => (BinOp::Eq, 3),
                TokenKind::NotEq => (BinOp::Neq, 3),
                TokenKind::Lt => (BinOp::Lt, 4),
                TokenKind::Gt => (BinOp::Gt, 4),
                TokenKind::Le => (BinOp::Le, 4),
                TokenKind::Ge => (BinOp::Ge, 4),
                TokenKind::Pipe => (BinOp::BitOr, 5),
                TokenKind::Caret => (BinOp::BitXor, 6),
                TokenKind::Amp => (BinOp::BitAnd, 7),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Mod, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            // The operator node goes on top of the whole chain so far.
            self.deepest += 1;
            self.check_nesting()?;
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        self.deepest = self.deepest.max(outer);
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        self.enter()?;
        let e = self.unary_at_depth()?;
        self.depth -= 1;
        Ok(e)
    }

    fn unary_at_depth(&mut self) -> Result<Expr, Diagnostic> {
        let start = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.unary()?;
            let span = start.merge(arg.span);
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    arg: Box::new(arg),
                },
                span,
            ));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, Diagnostic> {
        let start = self.peek().span;
        match *self.peek_kind() {
            TokenKind::Int(value) => {
                self.bump();
                let width = std::sync::OnceLock::new();
                Ok(Expr::new(ExprKind::Int { value, width }, start))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), start))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), start))
            }
            TokenKind::LParen => self.paren(start),
            TokenKind::Ident(ref name) if name == "hash" => self.hash(start),
            TokenKind::Ident(ref name) if name.contains('.') => self.builtin_call(start),
            TokenKind::Ident(_) => {
                let id = self.ident()?;
                if self.at(&TokenKind::LParen) {
                    let (args, end) = self.call_args()?;
                    let span = start.merge(end);
                    Ok(Expr::new(ExprKind::Call { callee: id, args }, span))
                } else {
                    Ok(Expr::new(ExprKind::Var(id), start))
                }
            }
            _ => Err(self.unexpected("expected an expression")),
        }
    }

    /// `( expr )`, or a cast `(int<<w>>) e` / `(int) e`.
    fn paren(&mut self, start: Span) -> Result<Expr, Diagnostic> {
        self.bump();
        if self.at(&TokenKind::KwInt) {
            self.bump();
            let width = if self.eat(&TokenKind::Shl) {
                let w = self.int_width()?;
                self.expect(TokenKind::Shr)?;
                w
            } else {
                32
            };
            self.expect(TokenKind::RParen)?;
            let arg = self.unary()?;
            let span = start.merge(arg.span);
            return Ok(Expr::new(
                ExprKind::Cast {
                    width,
                    arg: Box::new(arg),
                },
                span,
            ));
        }
        let e = self.expr()?;
        let end = self.expect(TokenKind::RParen)?.span;
        Ok(Expr::new(e.kind, start.merge(end)))
    }

    /// `hash<<w>>(seed, args..)`.
    fn hash(&mut self, start: Span) -> Result<Expr, Diagnostic> {
        self.bump();
        self.expect(TokenKind::Shl)?;
        let width = self.int_width()?;
        self.expect(TokenKind::Shr)?;
        let (args, end) = self.call_args()?;
        if args.is_empty() {
            return Err(Diagnostic::error(
                "hash requires at least a seed argument",
                start.merge(end),
            ));
        }
        Ok(Expr::new(ExprKind::Hash { width, args }, start.merge(end)))
    }

    /// `Module.fn(args..)`.
    fn builtin_call(&mut self, start: Span) -> Result<Expr, Diagnostic> {
        let (name, span_path) = self.bump_text();
        let builtin = Builtin::from_path(&name).ok_or_else(|| {
            Diagnostic::error(format!("unknown builtin `{name}`"), span_path).with_help(
                "available modules: Array.{get,getm,set,setm,update}, \
                 Event.{delay,locate,mlocate}, Sys.{time,self,port}",
            )
        })?;
        let (args, end) = self.call_args()?;
        let span = start.merge(end);
        // The paper overloads Array.get/set with memop arguments;
        // normalize the long forms onto getm/setm.
        let builtin = match (builtin, args.len()) {
            (Builtin::ArrayGet, 4) => Builtin::ArrayGetm,
            (Builtin::ArraySet, 4) => Builtin::ArraySetm,
            (b, _) => b,
        };
        Ok(Expr::new(
            ExprKind::BuiltinCall {
                builtin,
                args,
                span_path,
            },
            span,
        ))
    }

    fn call_args(&mut self) -> Result<(Vec<Expr>, Span), Diagnostic> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RParen)?.span;
        Ok((args, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse_program(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}\nsource: {src}"),
        }
    }

    #[test]
    fn parses_paper_route_query_handler() {
        let src = r#"
            const int SELF_ID = 1;
            global pathlens = new Array<<32>>(1024);
            memop incr(int stored, int added) { return stored + added; }
            fun int get_pathlen(int dst) {
                return Array.get(pathlens, dst, incr, 0);
            }
            event route_reply(int sender_id, int dst, int pathlen);
            event route_query(int sender_id, int dst);
            handle route_query(int sender_id, int dst) {
                int pathlen = get_pathlen(dst);
                event reply = route_reply(SELF_ID, dst, pathlen);
                generate Event.locate(reply, sender_id);
            }
        "#;
        let p = parse_ok(src);
        assert_eq!(p.decls.len(), 7);
        assert!(p.find("route_query").is_some());
    }

    #[test]
    fn four_arg_array_get_normalizes_to_getm() {
        let e = parse_expr("Array.get(a, i, m, 1)").unwrap();
        match e.kind {
            ExprKind::BuiltinCall { builtin, args, .. } => {
                assert_eq!(builtin, Builtin::ArrayGetm);
                assert_eq!(args.len(), 4);
            }
            other => panic!("expected builtin call, got {other:?}"),
        }
    }

    #[test]
    fn two_arg_array_get_stays_get() {
        let e = parse_expr("Array.get(a, i)").unwrap();
        match e.kind {
            ExprKind::BuiltinCall { builtin, .. } => assert_eq!(builtin, Builtin::ArrayGet),
            other => panic!("expected builtin call, got {other:?}"),
        }
    }

    #[test]
    fn precedence_is_c_like() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // ((1 + (2*3)) == 7) && true
        match e.kind {
            ExprKind::Binary {
                op: BinOp::And,
                lhs,
                ..
            } => match lhs.kind {
                ExprKind::Binary { op: BinOp::Eq, .. } => {}
                other => panic!("expected ==, got {other:?}"),
            },
            other => panic!("expected &&, got {other:?}"),
        }
    }

    #[test]
    fn hash_expression() {
        let e = parse_expr("hash<<16>>(7, src, dst)").unwrap();
        match e.kind {
            ExprKind::Hash { width, args } => {
                assert_eq!(width, 16);
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected hash, got {other:?}"),
        }
    }

    #[test]
    fn cast_expression() {
        let e = parse_expr("(int<<16>>) x + 1").unwrap();
        // Cast binds tighter than +.
        match e.kind {
            ExprKind::Binary {
                op: BinOp::Add,
                lhs,
                ..
            } => match lhs.kind {
                ExprKind::Cast { width: 16, .. } => {}
                other => panic!("expected cast, got {other:?}"),
            },
            other => panic!("expected +, got {other:?}"),
        }
    }

    #[test]
    fn shift_still_parses_in_expressions() {
        let e = parse_expr("x << 2").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Shl, .. }));
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            handle h(int x) {
                if (x == 0) { generate foo(); }
                else if (x == 1) { generate bar(); }
                else { generate baz(); }
            }
        "#;
        let p = parse_ok(src);
        let (_, _, body) = p.handlers().next().unwrap();
        match &body.stmts[0].kind {
            StmtKind::If {
                else_blk: Some(e), ..
            } => {
                assert!(matches!(e.stmts[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn group_declaration() {
        let p = parse_ok("const group NEIGHBORS = {2, 3, 4};");
        match &p.decls[0].kind {
            DeclKind::Group { members, .. } => assert_eq!(members.len(), 3),
            other => panic!("expected group, got {other:?}"),
        }
    }

    #[test]
    fn printf_statement() {
        let p = parse_ok(r#"handle h(int x) { printf("x=%d", x); }"#);
        let (_, _, body) = p.handlers().next().unwrap();
        assert!(matches!(body.stmts[0].kind, StmtKind::Printf { .. }));
    }

    #[test]
    fn unknown_builtin_is_friendly_error() {
        let err = parse_program("handle h(int x) { Array.pop(a); }").unwrap_err();
        assert!(err.message.contains("Array.pop"), "{err}");
    }

    #[test]
    fn event_local_binding() {
        let p = parse_ok("event e(int a); handle h(int x) { event ev = e(x); generate ev; }");
        let (_, _, body) = p.handlers().next().unwrap();
        assert!(matches!(
            body.stmts[0].kind,
            StmtKind::Local {
                ty: Some(Ty::Event),
                ..
            }
        ));
    }

    #[test]
    fn auto_local_binding() {
        let p = parse_ok("handle h(int x) { auto y = x + 1; }");
        let (_, _, body) = p.handlers().next().unwrap();
        assert!(matches!(
            body.stmts[0].kind,
            StmtKind::Local { ty: None, .. }
        ));
    }

    #[test]
    fn width_out_of_range_rejected() {
        assert!(parse_program("global a = new Array<<65>>(8);").is_err());
        assert!(parse_program("global a = new Array<<0>>(8);").is_err());
    }

    #[test]
    fn mgenerate_statement() {
        let src =
            "const group G = {2,3}; event c(); handle h() { mgenerate Event.mlocate(c(), G); }";
        let p = parse_ok(src);
        let (_, _, body) = p.handlers().next().unwrap();
        assert!(matches!(body.stmts[0].kind, StmtKind::MGenerate(_)));
    }

    #[test]
    fn missing_semi_points_at_next_token() {
        let err = parse_program("const int A = 3").unwrap_err();
        assert!(err.message.contains("expected `;`"), "{err}");
    }
}
