//! # lucid-backend
//!
//! The optimizing compiler backend (§6 of the paper): checked Lucid
//! programs → atomic tables → optimized pipeline layout → Tofino-style
//! P4_16.
//!
//! Pipeline:
//!
//! 1. [`mod@elaborate`] — function inlining, return normalization, and
//!    subexpression elimination down to atomic (one-ALU) statements, with
//!    branch conditions inlined as table guards (§6.1 and §6.2 step 1).
//! 2. [`layout`] — dataflow-driven rearrangement, greedy merging, and stage
//!    placement against the [`PipelineSpec`](lucid_tofino::PipelineSpec)
//!    resource model (§6.2 steps 2–3).
//! 3. [`p4`] — P4_16 text generation with Figure 10's per-category line
//!    accounting.
//!
//! `lucid_core::Build` is the only code that runs them in order, caching
//! each stage's artifact; this crate exports the stages themselves.

#![forbid(unsafe_code)]

pub mod elaborate;
pub mod ir;
pub mod layout;
pub mod opt;
pub mod p4;

pub use elaborate::elaborate;
pub use ir::{AtomicOp, AtomicTable, Cond, HandlerIr, LocSpec, MemKind, Operand};
pub use layout::{place, Layout, Placement, StageStats};
pub use opt::{optimize, OptStats};
pub use p4::{generate, P4Loc, P4Program};
