//! Scheme 1 — the Transaction-Site Graph scheme (Section 5 of the paper).
//!
//! The TSG is an undirected bipartite graph of transaction nodes and site
//! nodes with an edge `(Ĝ_i, s_k)` for every `ser_k(G_i) ∈ Ĝ_i`. The TSG
//! may contain cycles; serializability is protected by **marking**: when
//! `init_i` is processed, each of `Ĝ_i`'s operations whose TSG edge lies on
//! a cycle is marked, and a marked operation may only be processed when it
//! is first in its site's *insert queue* — i.e. after everything inserted
//! before it at that site has been processed *and acknowledged*. Unmarked
//! operations are unconstrained (beyond the one-outstanding-per-site rule
//! every scheme needs so the act order is the local execution order).
//!
//! Departures from a literal reading: none in behavior; for the cycle test
//! we compute *bridges* of the TSG in a single DFS — an edge lies on a
//! cycle iff it is not a bridge — which is what gives Theorem 4's
//! `O(m + n + n·d_av)` bound (one DFS per `init`, not one per edge).

use crate::scheme::{
    Gtm2Scheme, ProtocolViolationKind, SchemeEffect, WaitSet, WakeCandidates, WakeScope,
};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::{StepCounter, StepKind};
use mdbs_schedule::UnGraph;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A TSG node: transaction or site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TsgNode {
    /// Transaction node `Ĝ_i`.
    Txn(GlobalTxnId),
    /// Site node `s_k`.
    Site(SiteId),
}

/// Scheme 1 state.
#[derive(Clone, Debug)]
pub struct Scheme1 {
    tsg: UnGraph<TsgNode>,
    /// Per-site insert queues (entries live from `init` to `ack`).
    insert_queues: BTreeMap<SiteId, VecDeque<GlobalTxnId>>,
    /// Per-site delete queues (entries live from `ack` to `fin`).
    delete_queues: BTreeMap<SiteId, VecDeque<GlobalTxnId>>,
    /// Marked operations.
    marked: BTreeSet<(GlobalTxnId, SiteId)>,
    /// Site with a submitted-but-unacknowledged operation.
    outstanding: BTreeMap<SiteId, GlobalTxnId>,
    /// Site set per live transaction (contents of `Ĝ_i`).
    sites: BTreeMap<GlobalTxnId, Vec<SiteId>>,
}

impl Default for Scheme1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheme1 {
    /// Fresh state.
    pub fn new() -> Self {
        Scheme1 {
            tsg: UnGraph::new(),
            insert_queues: BTreeMap::new(),
            delete_queues: BTreeMap::new(),
            marked: BTreeSet::new(),
            outstanding: BTreeMap::new(),
            sites: BTreeMap::new(),
        }
    }

    /// Number of marked operations currently tracked (diagnostics).
    pub fn marked_count(&self) -> usize {
        self.marked.len()
    }

    fn insert_front(&self, site: SiteId) -> Option<GlobalTxnId> {
        self.insert_queues
            .get(&site)
            .and_then(|q| q.front().copied())
    }

    fn delete_front(&self, site: SiteId) -> Option<GlobalTxnId> {
        self.delete_queues
            .get(&site)
            .and_then(|q| q.front().copied())
    }
}

impl Gtm2Scheme for Scheme1 {
    fn name(&self) -> &'static str {
        "Scheme 1"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => {
                // No submitted-but-unacked operation at the site…
                if self.outstanding.contains_key(site) {
                    return false;
                }
                // …and a marked operation must head its insert queue.
                if self.marked.contains(&(*txn, *site)) {
                    return self.insert_front(*site) == Some(*txn);
                }
                true
            }
            QueueOp::Fin { txn } => {
                let sites = self.sites.get(txn).map_or(&[][..], Vec::as_slice);
                steps.bump(StepKind::Cond, sites.len() as u64);
                sites.iter().all(|&k| self.delete_front(k) == Some(*txn))
            }
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter) -> Vec<SchemeEffect> {
        match op {
            QueueOp::Init { txn, sites } => {
                // Insert Ĝ_i and its edges.
                for &site in sites {
                    steps.tick(StepKind::Act);
                    self.tsg.add_edge(TsgNode::Txn(*txn), TsgNode::Site(site));
                    self.insert_queues.entry(site).or_default().push_back(*txn);
                }
                self.sites.insert(*txn, sites.clone());
                // One bridge DFS marks all of Ĝ_i's cycle edges (an edge is
                // on a cycle iff it is not a bridge). Charge V + E steps.
                steps.bump(
                    StepKind::Act,
                    (self.tsg.node_count() + self.tsg.edge_count()) as u64,
                );
                let bridges = self.tsg.bridges();
                for &site in sites {
                    let a = TsgNode::Txn(*txn);
                    let b = TsgNode::Site(site);
                    let key = if a < b { (a, b) } else { (b, a) };
                    if !bridges.contains(&key) {
                        self.marked.insert((*txn, site));
                    }
                }
                Vec::new()
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                self.outstanding.insert(*site, *txn);
                vec![SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Ack { txn, site } => {
                // Delete from the insert queue (note: not necessarily the
                // front — unmarked operations overtake marked ones). A
                // malformed ack is refused, not panicked on: acks come
                // from site servers, outside the scheduler's trust base.
                // Refusing leaves the site's outstanding `ser` in place.
                let Some(q) = self.insert_queues.get_mut(site) else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: Some(*site),
                        kind: ProtocolViolationKind::UnknownSite,
                    }];
                };
                let pos = q.iter().position(|t| t == txn);
                let Some(pos) = pos.filter(|_| self.outstanding.get(site) == Some(txn)) else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: Some(*site),
                        kind: ProtocolViolationKind::AckNotQueued,
                    }];
                };
                steps.bump(StepKind::Act, pos as u64 + 1);
                q.remove(pos);
                self.outstanding.remove(site);
                self.marked.remove(&(*txn, *site));
                self.delete_queues.entry(*site).or_default().push_back(*txn);
                vec![SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Fin { txn } => {
                let Some(sites) = self.sites.remove(txn) else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: None,
                        kind: ProtocolViolationKind::UnmatchedFin,
                    }];
                };
                let mut effects = Vec::new();
                for &site in &sites {
                    steps.tick(StepKind::Act);
                    let Some(q) = self.delete_queues.get_mut(&site) else {
                        effects.push(SchemeEffect::ProtocolViolation {
                            txn: *txn,
                            site: Some(site),
                            kind: ProtocolViolationKind::UnknownSite,
                        });
                        continue;
                    };
                    let front = q.pop_front();
                    debug_assert_eq!(front, Some(*txn), "cond(fin) guaranteed front");
                    self.tsg
                        .remove_edge(TsgNode::Txn(*txn), TsgNode::Site(site));
                }
                self.tsg.remove_node(TsgNode::Txn(*txn));
                effects
            }
        }
    }

    fn wake_candidates(
        &self,
        acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        match acted {
            QueueOp::Ack { site, .. } => {
                // The site lost its outstanding op and its insert-queue
                // front may have changed: waiting ser ops there are
                // candidates. The ack also appended to the delete queue,
                // which can enable a fin whose other sites were ready —
                // only the acked transaction's own, in fact. The dense
                // kernel charges the other fins without re-testing them;
                // this kernel re-tests them all, and so is the oracle the
                // equivalence tests hold that charge against.
                steps.bump(
                    StepKind::WaitScan,
                    (wait.ser_count_at(*site) + wait.fin_count()) as u64,
                );
                WakeCandidates::SerAtThenFins(*site)
            }
            QueueOp::Fin { .. } => {
                // Delete-queue fronts changed: other fins are candidates.
                // The dense kernel re-tests only the fronts and charges the
                // rest; this kernel re-tests them all, and so is the oracle
                // for that charge too.
                steps.bump(StepKind::WaitScan, wait.fin_count() as u64);
                WakeCandidates::Fins
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn wake_scope(&self, kind: QueueOpKind) -> WakeScope {
        // Mirrors `wake_candidates`: an ack wakes ser waiters at its own
        // site plus (siteless) fin waiters; a fin wakes other fins.
        match kind {
            QueueOpKind::Ack => WakeScope::ACTED_SITE_AND_SITELESS,
            QueueOpKind::Fin => WakeScope::SITELESS,
            QueueOpKind::Init | QueueOpKind::Ser => WakeScope::NOTHING,
        }
    }

    fn debug_validate(&self) {
        // Outstanding ops are unique per site and correspond to inserted
        // transactions.
        for (site, txn) in &self.outstanding {
            assert!(
                self.insert_queues
                    .get(site)
                    .is_some_and(|q| q.contains(txn)),
                "outstanding {txn} not in insert queue of {site}"
            );
        }
        // A transaction never sits in both queues of one site.
        for (site, iq) in &self.insert_queues {
            if let Some(dq) = self.delete_queues.get(site) {
                for t in iq {
                    assert!(!dq.contains(t), "{t} in both queues at {site}");
                }
            }
        }
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

    /// Transactions at disjoint sites are never marked and never wait.
    #[test]
    fn disjoint_txns_unconstrained() {
        let mut e = Gtm2::new(Box::new(Scheme1::new()));
        e.enqueue(init(1, &[0]));
        e.enqueue(init(2, &[1]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(2, 1));
        let fx = e.pump();
        assert_eq!(fx.len(), 2);
        assert_eq!(e.stats().waited, 0);
    }

    /// Two transactions sharing two sites form a TSG cycle: all four edges
    /// marked, forcing insert-queue order.
    #[test]
    fn shared_pair_of_sites_marks_and_orders() {
        let mut e = Gtm2::new(Box::new(Scheme1::new()));
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        // G2's ops arrive first but G1 heads both insert queues.
        e.enqueue(ser(2, 0));
        e.enqueue(ser(2, 1));
        let fx = e.pump();
        assert!(fx.is_empty(), "marked non-front ops must wait: {fx:?}");
        assert_eq!(e.stats().waited, 2);
        e.enqueue(ser(1, 0));
        e.enqueue(ser(1, 1));
        let fx = e.pump();
        assert_eq!(fx.len(), 2); // G1 submits at both sites
        e.enqueue(ack(1, 0));
        e.enqueue(ack(1, 1));
        let fx = e.pump();
        // G1's acks free the queue fronts; G2's waiting sers run.
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(0)
        }));
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(1)
        }));
        assert!(e.ser_log().check().is_ok());
    }

    /// Scheme 1 beats Scheme 0: a single shared site does not create a TSG
    /// cycle, so the later transaction proceeds without waiting for the
    /// earlier one's ack — Scheme 0 would have queued it.
    #[test]
    fn single_shared_site_no_marks() {
        let mut e = Gtm2::new(Box::new(Scheme1::new()));
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 2]));
        e.enqueue(ser(1, 0));
        let fx = e.pump();
        assert_eq!(fx.len(), 1);
        e.enqueue(ack(1, 0));
        e.enqueue(ser(2, 0));
        let fx = e.pump();
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(0)
        }));
        assert_eq!(e.stats().waited, 0);
    }

    /// fins respect per-site ack order via the delete queues.
    #[test]
    fn fin_waits_for_delete_queue_front() {
        let mut e = Gtm2::new(Box::new(Scheme1::new()));
        e.enqueue(init(1, &[0]));
        e.enqueue(init(2, &[0]));
        e.enqueue(ser(1, 0));
        e.pump();
        e.enqueue(ack(1, 0));
        e.enqueue(ser(2, 0));
        e.pump();
        e.enqueue(ack(2, 0));
        e.pump();
        // G2's fin must wait until G1's fin pops the delete queue.
        e.enqueue(fin(2));
        e.pump();
        assert_eq!(e.wait_len(), 1);
        e.enqueue(fin(1));
        e.pump();
        assert_eq!(e.wait_len(), 0);
        assert_eq!(e.stats().fins, 2);
    }

    #[test]
    fn marked_count_tracks_cycle_edges() {
        let mut scheme = Scheme1::new();
        let mut steps = mdbs_common::step::StepCounter::new();
        scheme.act(&init(1, &[0, 1]), &mut steps);
        assert_eq!(scheme.marked_count(), 0, "no cycle with one txn");
        scheme.act(&init(2, &[0, 1]), &mut steps);
        // The TSG cycle marks all four edges of G1 and G2? Only G2's edges
        // are marked (marking happens at each txn's own init).
        assert_eq!(scheme.marked_count(), 2);
    }

    /// Later unmarked ops may overtake a waiting marked op at the same
    /// site (the paper: only marked ops are queue-constrained).
    #[test]
    fn unmarked_overtakes_marked() {
        let mut e = Gtm2::new(Box::new(Scheme1::new()));
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1])); // cycle with G1: G2 marked behind G1
        e.enqueue(init(3, &[0, 2])); // no cycle: unmarked at site 0
        e.enqueue(ser(2, 0)); // marked, not front -> waits
        e.enqueue(ser(3, 0)); // unmarked -> proceeds
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(3),
                site: s(0)
            }]
        );
        assert_eq!(e.stats().waited, 1);
    }
}
