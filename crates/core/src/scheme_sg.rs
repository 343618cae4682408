//! The **naive** site-graph scheme — a literal reading of the
//! Breitbart–Silberschatz site graph the paper's Scheme 1 improves on
//! (its TSG is "a data structure similar to the site graph introduced in
//! \[BS88\]").
//!
//! The **site graph** has one node per site; an active global transaction
//! contributes edges connecting its sites (a path over them). A new
//! transaction may become active only if its edges keep the site graph
//! **acyclic as a multigraph**; edges are deleted when the transaction
//! finishes.
//!
//! ## This scheme is (demonstrably) unsound
//!
//! Deleting a transaction's edges at its `fin` is not safe: serialization
//! orders persist after the transaction is gone, and a cycle can thread
//! through *transitive overlap chains* — e.g. `T2 < T1` at `s1`,
//! `T1 < T3` at `s0` (T3 starts after T1's edges left the graph),
//! `T3 < T4` at `s3`, `T4 < T2` at `s2`, with the site graph a forest at
//! every instant. Experiment EXP-SG measures the violation rate; the
//! paper's Scheme 1 fixes precisely this with its **delete queues** (a
//! transaction's TSG edges leave only when its acks head every delete
//! queue, which orders fins consistently with the serialization order).
//!
//! The scheme is kept as a *negative baseline*: historically instructive,
//! high wait counts, and a concrete demonstration of why Scheme 1's
//! bookkeeping is shaped the way it is. It is not in
//! [`SchemeKind::CONSERVATIVE`](crate::scheme::SchemeKind) and must not be
//! used for correctness-critical scheduling.

use crate::scheme::{Gtm2Scheme, SchemeEffect, WaitSet, WakeCandidates};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::{StepCounter, StepKind};
use mdbs_schedule::UnGraph;
use std::collections::BTreeMap;

/// BS88 site-graph scheme state.
#[derive(Clone, Debug, Default)]
pub struct SiteGraphScheme {
    /// Active transactions and their site lists (init acted, fin pending).
    active: BTreeMap<GlobalTxnId, Vec<SiteId>>,
    /// Submitted-but-unacked event per site.
    outstanding: BTreeMap<SiteId, GlobalTxnId>,
}

impl SiteGraphScheme {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Would activating `candidate` keep the site graph acyclic?
    ///
    /// The multigraph is rebuilt from the active set: each transaction
    /// contributes the path `s_1 - s_2 - … - s_d` over its (sorted) sites.
    /// A multigraph is a forest iff every added edge joins two previously
    /// disconnected components — parallel edges therefore count as cycles.
    fn admits(&self, candidate: &[SiteId], steps: &mut StepCounter) -> bool {
        let mut graph: UnGraph<SiteId> = UnGraph::new();
        let paths = self
            .active
            .values()
            .map(Vec::as_slice)
            .chain(std::iter::once(candidate));
        for path in paths {
            steps.bump(StepKind::Cond, path.len() as u64);
            for pair in path.windows(2) {
                let &[a, b] = pair else { continue };
                // Joining already-connected sites (including via a parallel
                // edge) closes a cycle.
                if graph.contains_node(a) && graph.contains_node(b) && graph.connected(a, b) {
                    return false;
                }
                graph.add_edge(a, b);
            }
            // Single-site transactions still occupy their node.
            if let [only] = path {
                graph.add_node(*only);
            }
        }
        true
    }
}

impl Gtm2Scheme for SiteGraphScheme {
    fn name(&self) -> &'static str {
        "Naive-SG (BS88)"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            // The defining restriction: a transaction activates only when
            // the site graph stays a forest.
            QueueOp::Init { txn, sites } => {
                debug_assert!(!self.active.contains_key(txn));
                self.admits(sites, steps)
            }
            QueueOp::Ser { txn, site } => {
                // Must be active (its init may still be waiting), and the
                // site must have no outstanding event.
                self.active.contains_key(txn) && !self.outstanding.contains_key(site)
            }
            QueueOp::Ack { .. } | QueueOp::Fin { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        steps.tick(StepKind::Act);
        match op {
            QueueOp::Init { txn, sites } => {
                self.active.insert(*txn, sites.clone());
            }
            QueueOp::Ser { txn, site } => {
                self.outstanding.insert(*site, *txn);
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                debug_assert_eq!(self.outstanding.get(site), Some(txn));
                self.outstanding.remove(site);
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                self.active.remove(txn);
            }
        }
    }

    fn wake_candidates(&self, acted: &QueueOp, _wait: &WaitSet) -> WakeCandidates {
        match acted {
            // A fin frees site-graph edges: waiting inits are candidates.
            QueueOp::Fin { .. } => WakeCandidates::Inits,
            // An activated transaction's ser ops may already be waiting.
            QueueOp::Init { txn, .. } => WakeCandidates::SerOf(*txn),
            QueueOp::Ack { site, .. } => WakeCandidates::SerAt(*site),
            QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn debug_validate(&self) {
        // The active set must always form a forest.
        let mut steps = StepCounter::new();
        assert!(
            self.admits(&[], &mut steps),
            "site graph cycle among active txns"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtm2::Gtm2;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    fn init(i: u64, sites: &[u32]) -> QueueOp {
        QueueOp::Init {
            txn: g(i),
            sites: sites.iter().map(|&k| s(k)).collect(),
        }
    }
    fn ser(i: u64, k: u32) -> QueueOp {
        QueueOp::Ser {
            txn: g(i),
            site: s(k),
        }
    }
    fn ack(i: u64, k: u32) -> QueueOp {
        QueueOp::Ack {
            txn: g(i),
            site: s(k),
        }
    }
    fn fin(i: u64) -> QueueOp {
        QueueOp::Fin { txn: g(i) }
    }

    fn engine() -> Gtm2 {
        let mut e = Gtm2::new(Box::new(SiteGraphScheme::new()));
        e.set_validate(true);
        e
    }

    /// Two transactions over the same two sites: the second INIT waits
    /// (parallel edge = cycle) — coarser than any of the paper's schemes.
    #[test]
    fn overlapping_txn_init_waits() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.pump();
        assert_eq!(e.stats().waited_kind[0], 1, "second init waits");
        e.enqueue(ack(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 1));
        e.enqueue(fin(1));
        let _ = e.pump();
        // G1's fin frees the edges; G2 activates.
        assert_eq!(e.stats().inits, 2);
        assert_eq!(e.wait_len(), 0);
    }

    /// Sharing one site is fine (no cycle).
    #[test]
    fn single_shared_site_concurrent() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[1, 2]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(2, 2));
        let fx = e.pump();
        assert_eq!(fx.len(), 2);
        assert_eq!(e.stats().waited, 0);
    }

    /// A ser op arriving before its (waiting) init waits too, and both run
    /// once the graph frees up.
    #[test]
    fn ser_waits_for_waiting_init() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(2, 0));
        e.pump();
        assert_eq!(e.stats().waited_kind[1], 1, "ser of inactive txn waits");
        e.enqueue(ser(1, 0));
        e.pump();
        e.enqueue(ack(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 1));
        e.enqueue(fin(1));
        let fx = e.pump();
        // fin(G1) -> init(G2) activates -> its waiting ser runs.
        assert!(
            fx.contains(&SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(0)
            }),
            "{fx:?}"
        );
        assert!(e.ser_log().check().is_ok());
    }

    /// Three transactions forming a ring over three sites: the third init
    /// waits until one of the others finishes.
    #[test]
    fn ring_blocks_third() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[1, 2]));
        e.enqueue(init(3, &[2, 0]));
        e.pump();
        assert_eq!(e.stats().inits, 2);
        assert_eq!(e.stats().waited_kind[0], 1);
    }
}
