//! The seven workloads. Each module says why its workload exists and what
//! a rep does; `spec::WORKLOADS` holds the one-line reasons the driver reads.

pub mod app_suite;
pub mod compile_apps;
pub mod explicit_load;
pub mod flood;
pub mod serve;
