//! # mdbs-common
//!
//! Shared vocabulary for the multidatabase (MDBS) concurrency control
//! reproduction of Mehrotra, Rastogi, Breitbart, Korth and Silberschatz,
//! *"The Concurrency Control Problem in Multidatabases: Characteristics and
//! Solutions"* (SIGMOD 1992).
//!
//! This crate holds the types every other crate in the workspace speaks:
//!
//! - [`ids`] — strongly typed identifiers for sites, transactions, and data
//!   items. Global transactions, local transactions and the per-site
//!   subtransactions of a global transaction all get distinct id spaces so
//!   the type system prevents the classic "used a local id where a global id
//!   was meant" bug.
//! - [`ops`] — the operation vocabulary: data operations (`begin`, `read`,
//!   `write`, `commit`, `abort`) executed at local DBMSs, and the GTM2 queue
//!   operations of the paper (`init_i`, `ser_k(G_i)`, `ack(ser_k(G_i))`,
//!   `fin_i`).
//! - [`instrument`] — structured instrumentation: the metrics [`Registry`]
//!   (counters, gauges, log₂-bucket histograms) every component exports
//!   into, and the pluggable [`TraceSink`] for typed scheduling events.
//! - [`step`] — abstract step counting. The paper analyses scheme complexity
//!   in abstract "steps"; instrumenting the schemes with an explicit counter
//!   lets the experiment harness measure exactly the quantity Theorems 4, 6
//!   and 9 are about, independent of machine noise.
//! - [`rng`] — deterministic seeded randomness used across workload
//!   generation and simulation so every experiment is reproducible from a
//!   `u64` seed.
//! - [`error`] — the workspace error type.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dense;
pub mod error;
pub mod ids;
pub mod instrument;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod step;

pub use dense::{DenseBitSet, DenseInterner};
pub use error::{MdbsError, Result};
pub use ids::{DataItemId, GlobalTxnId, LocalTxnId, SiteId, TxnId};
pub use instrument::{Histogram, Registry, SchedEvent, TraceSink};
pub use ops::{DataOp, DataOpKind, QueueOp, QueueOpKind};
pub use step::StepCounter;
