//! # lucid-check
//!
//! Semantic analysis for Lucid: symbol resolution, the memop validator
//! (§4.2), and the ordered type-and-effect system (§5 / Appendix A) that
//! together implement the paper's "correct-by-construction" approach to
//! data-plane state.
//!
//! [`analyze`] takes a parsed [`Program`](lucid_frontend::Program) and
//! returns every diagnostic, warnings included, with a [`CheckedProgram`]
//! when there is no error: the symbol tables ([`ProgramInfo`]) and
//! validated memop IR that the interpreter (`lucid-interp`) and compiler
//! backend (`lucid-backend`) both consume. `lucid_core::Build`, the one
//! way into the compiler, calls it as its check stage; [`check`] is the
//! same pass in `Result` form for callers that want the program or the
//! errors.
//!
//! The [`calculus`] module is an executable rendition of the appendix's
//! formal system, with property tests standing in for the paper-and-pencil
//! soundness proof.

#![forbid(unsafe_code)]

pub mod arith;
pub mod calculus;
pub mod lint;
pub mod memop;
pub mod symbols;
pub mod typecheck;

pub use arith::mask;
pub use lint::lint;
pub use lucid_frontend::diag::{Diagnostic, Diagnostics, Level};
pub use memop::{eval_memop, validate_memops, MemopAtom, MemopBody, MemopCell, MemopIr};
pub use symbols::{ConstInfo, EventInfo, GlobalId, GlobalInfo, GroupInfo, ProgramInfo};
pub use typecheck::{analyze, check, Analysis, CheckedProgram};

/// The deepest chain of nested function calls a handler may make
/// (`E0404` beyond it). Functions are inlined per call site, so this
/// bounds what the checker, the walker and the bytecode compiler
/// recurse through.
pub const MAX_CALL_DEPTH: usize = 64;

/// Parse and check in one call.
pub fn parse_and_check(src: &str) -> Result<CheckedProgram, Diagnostics> {
    let program = lucid_frontend::parse_program(src).map_err(|d| {
        let mut ds = Diagnostics::new();
        ds.push(d);
        ds
    })?;
    check(program)
}
