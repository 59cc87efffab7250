//! # lucid-tofino
//!
//! A software model of the paper's hardware target — the Intel Tofino /
//! PISA pipeline — standing in for the testbed we do not have. Four
//! pieces:
//!
//! * [`spec`] — the static resource model (stages, tables, stateful ALUs,
//!   register SRAM) that the compiler backend allocates against.
//! * [`recirc`] — the recirculation port, including the *baseline* way to
//!   delay events (continuous recirculation) measured in Figure 14.
//! * [`delay_queue`] — the PFC-pausable egress queue of §3.2 that makes
//!   delayed events cheap, the other Figure 14 series.
//! * [`model`] / [`remote`] — the §7.3 recirculation-overhead model
//!   (Figure 16) and the Mantis-like remote-control latency baseline used
//!   by Figure 17.

#![forbid(unsafe_code)]

pub mod delay_queue;
pub mod model;
pub mod recirc;
pub mod remote;
pub mod spec;

pub use delay_queue::{DelayQueue, DelayQueueReport};
pub use model::{figure16_rows, sfw_recirc_model, SfwModelParams, SfwModelRow};
pub use recirc::{BaselineReport, RecircPort, WIRE_OVERHEAD_BYTES};
pub use remote::{ecdf, percentile, RemoteControlModel};
pub use spec::{PipelineSpec, StageUsage};
