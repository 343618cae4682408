//! # mdbs — Multidatabase Concurrency Control
//!
//! A full reproduction of Mehrotra, Rastogi, Breitbart, Korth and
//! Silberschatz, *"The Concurrency Control Problem in Multidatabases:
//! Characteristics and Solutions"* (SIGMOD 1992), as a production-quality
//! Rust workspace.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`common`] — ids, operations, instrumentation ([`mdbs_common`])
//! - [`schedule`] — schedule theory and serializability testing
//!   ([`mdbs_schedule`])
//! - [`localdb`] — local DBMS engines with heterogeneous concurrency
//!   control protocols ([`mdbs_localdb`])
//! - [`core`] — the paper's contribution: serialization functions,
//!   GTM1/GTM2, conservative Schemes 0–3 and baselines ([`mdbs_core`])
//! - [`sim`] — discrete-event MDBS simulator and auditor ([`mdbs_sim`])
//! - [`workload`] — workload generation ([`mdbs_workload`])
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use mdbs::prelude::*;
//!
//! // Two sites with different local protocols, Scheme 3 at the GTM.
//! let config = SystemConfig::builder()
//!     .site(LocalProtocolKind::TwoPhaseLocking)
//!     .site(LocalProtocolKind::TimestampOrdering)
//!     .scheme(SchemeKind::Scheme3)
//!     .seed(42)
//!     .build();
//! let mut system = MdbsSystem::new(config);
//! let report = system.run(Workload::uniform_smoke(2, 8));
//! assert!(report.audit.is_serializable());
//! ```

pub use mdbs_common as common;
pub use mdbs_core as core;
pub use mdbs_localdb as localdb;
pub use mdbs_schedule as schedule;
pub use mdbs_sim as sim;
pub use mdbs_workload as workload;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use mdbs_common::{
        DataItemId, DataOp, GlobalTxnId, LocalTxnId, MdbsError, QueueOp, SiteId, StepCounter, TxnId,
    };
    pub use mdbs_core::{SchemeKind, SerializationFnKind};
    pub use mdbs_localdb::LocalProtocolKind;
    pub use mdbs_schedule::{GlobalSerializability, History};
    pub use mdbs_sim::{MdbsSystem, RunReport, SystemConfig};
    pub use mdbs_workload::Workload;
}
