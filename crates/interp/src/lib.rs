//! # lucid-interp
//!
//! An event-driven interpreter for checked Lucid programs: a discrete-event
//! simulation of a network of PISA switches, mirroring the Lucid
//! interpreter the paper's artifact ships for "rapid prototyping and
//! testing ... without requiring access to the Tofino toolchain".
//!
//! * Events are the unit of work: externally injected (packet arrivals,
//!   `Interp::schedule`) or produced by handlers (`generate`).
//! * Handler execution is atomic, as on hardware (§2.4): one handler's
//!   reads and writes never interleave with another's.
//! * Time is modeled at nanosecond resolution: local `generate` costs one
//!   recirculation pass (default 600 ns, §7.4), a located event costs a
//!   wire hop (default 1 µs, §2.1), and `Event.delay(e, us)` adds the given
//!   number of microseconds.
//!
//! ```
//! use lucid_check::parse_and_check;
//! use lucid_interp::{Interp, NetConfig};
//!
//! let prog = parse_and_check(r#"
//!     global cts = new Array<<32>>(16);
//!     memop plus(int m, int x) { return m + x; }
//!     event pkt(int idx);
//!     handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
//! "#).unwrap();
//! let mut sim = Interp::single(&prog);
//! sim.schedule(1, 0, "pkt", &[7]).unwrap();
//! sim.run_to_quiescence().unwrap();
//! assert_eq!(sim.array(1, "cts")[7], 1);
//! ```

#![forbid(unsafe_code)]

pub mod bytecode;
pub mod machine;
pub mod metrics;
pub mod scenario;
pub mod serve;
pub mod session;
mod snap;
pub mod value;
pub mod workload;

pub use bytecode::{
    disassemble_opt, violations_to_diagnostics, CompiledProg, ExecMode, OptLevel, Violation,
};
pub use machine::SwapStats;
pub use machine::{
    Engine, FaultAt, Handled, Interp, InterpError, InterpFault, NetConfig, Stats, SwitchState,
};
pub use metrics::{ClassHists, ClassMetrics, Histogram, MetricSel, Metrics};
pub use scenario::{
    run_scenario_with, CmpOp, MetricExpect, Mismatch, Scenario, ScenarioError, SimOptions,
    SimReport, SimRunError,
};
pub use serve::{
    handle_line, hex_decode, hex_encode, serve_lines, CheckHost, ErrorKind, Outcome, ProgramHost,
    ServeError, ServeState,
};
pub use session::{SessionStatus, SimSession};
pub use snap::SnapError;
pub use value::{lucid_hash, EventVal, Location, Value};
pub use workload::{ArgDist, EventSource, GenSpec, Generator, Phase, SourcedEvent, Workload};
