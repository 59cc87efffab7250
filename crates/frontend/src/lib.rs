//! # lucid-frontend
//!
//! Front end for the Lucid data-plane programming language — the lexer,
//! parser, AST, and diagnostics infrastructure for this Rust reproduction of
//! *Lucid: A Language for Control in the Data Plane* (SIGCOMM 2021).
//!
//! The surface language covers the constructs the paper uses:
//!
//! * `const` / `const group` declarations,
//! * `global name = new Array<<w>>(n);` persistent arrays,
//! * `event` declarations and `handle`rs,
//! * `fun`ctions and `memop`s,
//! * `generate` / `mgenerate` with the `Event.delay` / `Event.locate`
//!   combinators,
//! * integer types of explicit bit width, `hash<<w>>(..)`, and casts.
//!
//! Parsing stops at the first error and reports it with a source span; the
//! [`diag`] module renders rustc-style excerpts. Semantic analysis (memop
//! validation and the ordered type-and-effect system) lives in the
//! `lucid-check` crate.

#![forbid(unsafe_code)]

pub mod ast;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::{
    Block, Builtin, Decl, DeclKind, Expr, ExprKind, Ident, Param, Program, Stmt, StmtKind, Ty,
};
pub use diag::{Diagnostic, Diagnostics, Level};
pub use parser::{parse_expr, parse_program};
pub use span::{LineCol, SourceMap, Span};
