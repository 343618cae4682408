//! # mdbs-workload
//!
//! Workload specification and generation for the MDBS experiments: global
//! transaction programs spanning several sites, background local
//! transactions (the source of the *indirect conflicts* the GTM cannot
//! see), access-skew distributions, and scenario presets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributions;
pub mod generator;
pub mod scenarios;
pub mod spec;

pub use distributions::AccessDistribution;
pub use generator::Workload;
pub use spec::{LocalOp, LocalTxnProgram, WorkloadSpec};
