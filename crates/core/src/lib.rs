//! # mdbs-core
//!
//! The paper's contribution: global concurrency control for multidatabases.
//!
//! The reduction (Theorems 1–2) turns global serializability into the
//! serializability of `ser(S)` — the schedule of serialization events
//! `ser_k(G_i)`, where two events conflict iff they occur at the same site.
//! The GTM is split into:
//!
//! - **GTM1** ([`gtm1`]) — routes each global transaction's operations:
//!   serialization events go to GTM2 as `ser_k(G_i)` queue operations,
//!   everything else goes directly to the local DBMSs; one operation per
//!   transaction is outstanding at a time; `init_i`/`fin_i` bracket each
//!   transaction's GTM2 lifetime.
//! - **GTM2** ([`gtm2`]) — the conservative scheduler of Figures 2–3: a
//!   QUEUE of operations, a WAIT set, and a pluggable scheme providing
//!   `cond`/`act`.
//!
//! [`coordinator`] wires the two together as Figure 2's single GTM step;
//! the simulator and the live runtime both drive it.
//!
//! Four conservative schemes are provided, exactly as in the paper:
//!
//! | scheme | section | structure | complexity |
//! |--------|---------|-----------|------------|
//! | [`scheme0`] | §4 | per-site FIFO queues | `O(d_av)` |
//! | [`scheme1`] | §5 | transaction-site graph (TSG) | `O(m + n + n·d_av)` |
//! | [`scheme2`] | §6 | TSG with dependencies (TSGD) + `Eliminate_Cycles` | `O(n²·d_av)` |
//! | [`scheme3`] | §7 | `ser_bef` sets (O-scheme, admits all serializable schedules) | `O(n²·d_av)` |
//!
//! plus the non-conservative baselines of the prior literature
//! ([`baselines`]): an aborting timestamp scheduler on `ser(S)` and an
//! optimistic (ticket-style) validator, used by the experiments that
//! motivate conservatism (Section 3, item 1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Section 3: aborting a global transaction is prohibitively expensive, so
// the scheduler refuses input it cannot handle rather than fail on it — no
// panicking construct outside tests, and every match over an enum names its
// variants, so a new protocol operation fails the build, not the protocol.
// A site that cannot fire carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::wildcard_enum_match_arm
    )
)]

pub mod baselines;
pub mod coordinator;
pub mod gtm1;
pub mod gtm2;
pub mod kernel_dense;
pub mod parallel;
pub mod replay;
pub mod scheme;
pub mod scheme0;
pub mod scheme1;
pub mod scheme2;
pub mod scheme3;
pub mod scheme_sg;
pub mod ser_s;
pub mod tsgd;
pub mod tsgd_dense;
pub mod txn;

pub use coordinator::{Arrival, Coordinator, Outbound};
pub use gtm1::{Gtm1, Gtm1Effect, Gtm1Event};
pub use gtm2::{Gtm2, Gtm2Stats};
pub use parallel::replay_parallel;
pub use scheme::SchemeEffect;
pub use scheme::{Gtm2Scheme, KernelKind, SchemeKind, WakeCandidates};
pub use ser_s::SerSLog;
pub use txn::{GlobalTransaction, Step, StepKind};
