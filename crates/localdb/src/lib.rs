//! # mdbs-localdb
//!
//! Local DBMS engines for the MDBS reproduction. Each site of the
//! multidatabase runs one [`LocalDbms`]: an in-memory storage engine plus a
//! pluggable concurrency control protocol. The paper's central difficulty is
//! *heterogeneity* — each pre-existing local DBMS may follow a different
//! protocol and exposes no concurrency control information — so this crate
//! provides six protocols with genuinely different serialization behavior:
//!
//! - [`twopl`] — strict two-phase locking with a waits-for deadlock
//!   detector (serialization order = lock-point order; the commit operation
//!   is a valid serialization event).
//! - [`twopl_variants`] — strict 2PL with deadlock *prevention* instead,
//!   wait-die and wound-wait (same serialization event as [`twopl`]).
//! - [`to`] — strict timestamp ordering (timestamps assigned at `begin`;
//!   the begin operation is the serialization event).
//! - [`sgt`] — serialization-graph testing (no natural serialization
//!   event exists; global subtransactions take a **ticket** — a forced
//!   conflict on a designated item — per Section 2.2 of the paper).
//! - [`occ`] — backward-validation optimistic concurrency control
//!   (serialization order = validation order; commit is the serialization
//!   event).
//!
//! The engine (and therefore the GTM above it) treats local transactions
//! and global subtransactions identically — the paper's autonomy
//! assumption. Every executed operation is recorded in a
//! [`mdbs_schedule::History`], which the global auditor unions to judge
//! global serializability.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// A local protocol call that panics takes the whole site down (Section 3:
// the scheduler refuses what it cannot handle). A site that cannot fire
// carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod deadlock;
pub mod engine;
pub mod locks;
pub mod occ;
pub mod protocol;
pub mod serfn;
pub mod sgt;
pub mod storage;
pub mod to;
pub mod twopl;
pub mod twopl_variants;

pub use engine::{Completion, LocalDbms, OpOutcome, SubmitResult};
pub use protocol::{CcProtocol, Decision, LocalProtocolKind};
pub use serfn::SerializationEvent;
pub use storage::{Storage, Value};
