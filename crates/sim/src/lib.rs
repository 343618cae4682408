//! # mdbs-sim
//!
//! A deterministic discrete-event simulator for the whole multidatabase:
//! GTM1 + GTM2 (with any conservative scheme) on top of heterogeneous local
//! DBMSs, with servers, message latencies, background local transactions,
//! blocked-operation timeouts (the practical resolution for cross-layer
//! global deadlocks, which the paper leaves out of scope), global-abort
//! retries, metrics, and a global-serializability auditor.
//!
//! The simulator is the test bench for experiments EXP-GS, EXP-IND,
//! EXP-AMRT and EXP-E2E (see `EXPERIMENTS.md` at the workspace root).
//!
//! [`MdbsSystem`] is the one driver; it runs over the seeded event queue
//! or, with [`MdbsSystem::run_live`], live threads ([`threaded`]). On
//! either transport, [`MdbsSystem::enable_trace`] records the run as one
//! list of stamped [`SchedEvent`](mdbs_common::instrument::SchedEvent)s:
//! the driver's and both GTMs', in the order they happened.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod event;
pub mod metrics;
mod server;
pub mod system;
pub mod threaded;

pub use audit::audit_sites;
pub use metrics::{Metrics, ResponseStats};
pub use system::{LatencyConfig, MdbsSystem, RunReport, SystemConfig, SystemConfigBuilder};
pub use threaded::{ThreadedMdbs, ThreadedRunReport};
