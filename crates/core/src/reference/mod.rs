//! The paper's text, transcribed: Schemes 1–3 and the TSGD of Sections 5–7
//! over id-keyed `BTreeMap`/`BTreeSet`s, one `cond`/`act` clause per line
//! of the pseudocode.
//!
//! These kernels are the specification the shipped ones refine. The dense
//! kernels that [`SchemeKind::build`] returns
//! ([`crate::kernel_dense`], [`crate::tsgd_dense`]) are proved against
//! them: the same decisions and the same paper-step charges on every
//! stream GTM2 can receive (`crates/core/tests/kernel_equivalence.rs` and
//! the scenario tests of each module here, which run both realizations).
//! Tests reach them through [`build`], or through [`realizations`] to run
//! one check on every kernel a scheme has.
//!
//! Two things run on them outside tests: Scheme 2-MIN
//! ([`SchemeKind::Scheme2Minimal`], Theorem 7's exact minimum Δ) is
//! [`scheme2::Scheme2`] with the exhaustive search, and experiment EXP-NP
//! times [`tsgd::minimal_delta_exact`] against [`tsgd::eliminate_cycles`].

use crate::scheme::{Gtm2Scheme, SchemeKind};

pub mod scheme1;
pub mod scheme2;
pub mod scheme3;
pub mod tsgd;

/// The reference kernel of `kind`, for the schemes that have a second
/// realization (Schemes 1–3); `None` for every other kind, whose one
/// kernel is what [`SchemeKind::build`] returns.
pub fn build(kind: SchemeKind) -> Option<Box<dyn Gtm2Scheme + Send>> {
    match kind {
        SchemeKind::Scheme1 => Some(Box::new(scheme1::Scheme1::new())),
        SchemeKind::Scheme2 => Some(Box::new(scheme2::Scheme2::new())),
        SchemeKind::Scheme3 => Some(Box::new(scheme3::Scheme3::new())),
        SchemeKind::Scheme0
        | SchemeKind::Scheme2Minimal
        | SchemeKind::SiteGraph
        | SchemeKind::AbortingTo
        | SchemeKind::OptimisticTicket => None,
    }
}

/// Every realization of `kind`, by name: the reference kernel
/// (`"btree"`) where [`build`] has one, then the one [`SchemeKind::build`]
/// returns (`"dense"`). A check that must hold on every kernel of a scheme
/// runs over this; Scheme 0 and the other one-kernel schemes yield once.
pub fn realizations(
    kind: SchemeKind,
) -> impl Iterator<Item = (&'static str, Box<dyn Gtm2Scheme + Send>)> {
    let reference = build(kind).map(|scheme| ("btree", scheme));
    reference.into_iter().chain([("dense", kind.build())])
}

/// What the tests of both realizations of Schemes 1–3 and the TSGD share:
/// id and operation builders, and [`scenario::engines`].
#[cfg(test)]
pub(crate) mod scenario {
    use super::realizations;
    use crate::gtm2::Gtm2;
    use crate::scheme::SchemeKind;
    use crate::tsgd_dense::Dep;
    use mdbs_common::ids::{GlobalTxnId, SiteId};
    use mdbs_common::ops::QueueOp;

    pub(crate) fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    pub(crate) fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    pub(crate) fn init(i: u64, sites: &[u32]) -> QueueOp {
        QueueOp::Init {
            txn: g(i),
            sites: sites.iter().map(|&k| s(k)).collect(),
        }
    }
    pub(crate) fn ser(i: u64, k: u32) -> QueueOp {
        QueueOp::Ser {
            txn: g(i),
            site: s(k),
        }
    }
    pub(crate) fn ack(i: u64, k: u32) -> QueueOp {
        QueueOp::Ack {
            txn: g(i),
            site: s(k),
        }
    }
    pub(crate) fn fin(i: u64) -> QueueOp {
        QueueOp::Fin { txn: g(i) }
    }
    /// The dependency `(G_a, s_k) → (s_k, G_b)`.
    pub(crate) fn dep(k: u32, a: u64, b: u64) -> Dep {
        Dep {
            site: s(k),
            before: g(a),
            after: g(b),
        }
    }

    /// A validating engine over each realization of a Scheme 1–3 kind:
    /// the reference kernel, then the shipped one. The scenario tests of
    /// these schemes run on both.
    pub(crate) fn engines(kind: SchemeKind) -> impl Iterator<Item = Gtm2> {
        realizations(kind).map(|(_, scheme)| {
            let mut engine = Gtm2::new(scheme);
            engine.set_validate(true);
            engine
        })
    }
}
