//! Non-conservative baselines.
//!
//! Section 3, item 1 of the paper argues MDBS schedulers must be
//! *conservative*: because every pair of same-site serialization events
//! conflicts, aggressive schedulers abort constantly, and aborting a global
//! transaction wastes work at every site it touched. These two baselines
//! make that argument measurable (experiment EXP-AB); they implement the
//! two non-conservative approaches cited by the paper:
//!
//! - [`AbortingTo`] — timestamp ordering applied to `ser(S)` (the
//!   Breitbart-style ordering by transaction arrival, enforced by aborts
//!   instead of delays): a serialization event arriving at a site after a
//!   younger transaction's event has executed there aborts its transaction.
//! - [`OptimisticTicket`] — the optimistic ticket method in the style of
//!   Georgakopoulos–Rusinkiewicz–Sheth (GRS91): events execute freely
//!   (take tickets), and at `fin` the transaction validates that its
//!   ticket order is consistent across sites, aborting on a cycle.
//!
//! Both run only in the abstract replay harness ([`crate::replay`]) — the
//! full MDBS simulation uses the conservative schemes, since undoing
//! locally committed subtransactions would need global atomic commitment,
//! which the paper leaves to future work.

use crate::scheme::{Gtm2Scheme, SchemeEffect, WaitSet, WakeCandidates};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::{StepCounter, StepKind};
use mdbs_schedule::DiGraph;
use std::collections::{BTreeMap, BTreeSet};

/// Timestamp ordering on `ser(S)` with aborts instead of waits.
#[derive(Clone, Debug, Default)]
pub struct AbortingTo {
    /// Timestamps by init order.
    ts: BTreeMap<GlobalTxnId, u64>,
    next_ts: u64,
    /// Largest timestamp executed per site.
    max_ts: BTreeMap<SiteId, u64>,
    aborted: BTreeSet<GlobalTxnId>,
}

impl AbortingTo {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Gtm2Scheme for AbortingTo {
    fn name(&self) -> &'static str {
        "Aborting-TO"
    }

    fn cond(&self, _op: &QueueOp, steps: &mut StepCounter) -> bool {
        // Never waits — that is the point.
        steps.tick(StepKind::Cond);
        true
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        steps.tick(StepKind::Act);
        match op {
            QueueOp::Init { txn, .. } => {
                self.ts.insert(*txn, self.next_ts);
                self.next_ts += 1;
            }
            QueueOp::Ser { txn, site } => {
                if self.aborted.contains(txn) {
                    return; // remaining events of a victim are vacuous
                }
                // `init_i` came first (see `Gtm2::enqueue`) and gave a live
                // transaction its timestamp.
                let ts = self.ts.get(txn).copied();
                debug_assert!(ts.is_some(), "ser of {txn} before its init");
                let ts = ts.unwrap_or(self.next_ts);
                match self.max_ts.get(site) {
                    Some(&max) if ts < max => {
                        // Event arrives too late: abort the transaction.
                        self.aborted.insert(*txn);
                        self.ts.remove(txn);
                        out.push(SchemeEffect::AbortGlobal { txn: *txn });
                    }
                    _ => {
                        self.max_ts.insert(*site, ts);
                        out.push(SchemeEffect::SubmitSer {
                            txn: *txn,
                            site: *site,
                        });
                    }
                }
            }
            QueueOp::Ack { txn, site } => {
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                self.ts.remove(txn);
                self.aborted.remove(txn);
            }
        }
    }

    fn wake_candidates(
        &self,
        _acted: &QueueOp,
        _wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        WakeCandidates::None // nothing ever waits
    }
}

/// Optimistic ticket-style validation: execute freely, validate at `fin`.
#[derive(Clone, Debug)]
pub struct OptimisticTicket {
    /// Serialization-order graph over live and not-yet-forgotten committed
    /// transactions.
    graph: DiGraph<GlobalTxnId>,
    /// Events executed per site, in order (for edge creation).
    site_order: BTreeMap<SiteId, Vec<GlobalTxnId>>,
    /// Live transactions.
    active: BTreeSet<GlobalTxnId>,
    /// Committed transactions still retained in the graph.
    committed: BTreeSet<GlobalTxnId>,
    aborted: BTreeSet<GlobalTxnId>,
}

impl Default for OptimisticTicket {
    fn default() -> Self {
        Self::new()
    }
}

impl OptimisticTicket {
    /// Fresh state.
    pub fn new() -> Self {
        OptimisticTicket {
            graph: DiGraph::new(),
            site_order: BTreeMap::new(),
            active: BTreeSet::new(),
            committed: BTreeSet::new(),
            aborted: BTreeSet::new(),
        }
    }

    /// Drop a transaction from the graph and the site orders.
    fn purge(&mut self, txn: GlobalTxnId) {
        self.graph.remove_node(txn);
        for order in self.site_order.values_mut() {
            order.retain(|t| *t != txn);
        }
    }

    /// Forget committed transactions that can never again lie on a cycle.
    /// A committed transaction's events have all executed, so its incoming
    /// edges are frozen: once its in-degree reaches zero it is a permanent
    /// source and can be removed — iteratively, like SGT's conflict-graph
    /// garbage collection. (A retention policy based on "who was live at
    /// commit" is unsound: serialization edges chain transitively through
    /// committed nodes, so a node must stay while it is reachable from any
    /// live transaction.)
    fn collect_garbage(&mut self) {
        loop {
            let removable: Vec<GlobalTxnId> = self
                .committed
                .iter()
                .copied()
                .filter(|&t| !self.graph.contains_node(t) || self.graph.in_degree(t) == 0)
                .collect();
            if removable.is_empty() {
                return;
            }
            for t in removable {
                self.committed.remove(&t);
                self.purge(t);
            }
        }
    }
}

impl Gtm2Scheme for OptimisticTicket {
    fn name(&self) -> &'static str {
        "Optimistic-Ticket"
    }

    fn cond(&self, _op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        true
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        steps.tick(StepKind::Act);
        match op {
            QueueOp::Init { txn, .. } => {
                self.active.insert(*txn);
                self.graph.add_node(*txn);
            }
            QueueOp::Ser { txn, site } => {
                if self.aborted.contains(txn) {
                    return;
                }
                // Take the ticket: ordered after everything already
                // executed at this site.
                let order = self.site_order.entry(*site).or_default();
                steps.bump(StepKind::Act, order.len() as u64);
                for &prev in order.iter() {
                    if prev != *txn {
                        self.graph.add_edge(prev, *txn);
                    }
                }
                order.push(*txn);
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                self.active.remove(txn);
                if self.aborted.remove(txn) {
                    return;
                }
                // Validate: a cycle through txn means its ticket orders
                // disagree across sites.
                steps.bump(StepKind::Act, self.graph.edge_count() as u64);
                let cyclic = self
                    .graph
                    .successors(*txn)
                    .any(|succ| self.graph.has_path(succ, *txn));
                if cyclic {
                    self.purge(*txn);
                    self.collect_garbage();
                    out.push(SchemeEffect::AbortGlobal { txn: *txn });
                    return;
                }
                // Commit: retain until unreachable from live transactions.
                self.committed.insert(*txn);
                self.collect_garbage();
            }
        }
    }

    fn wake_candidates(
        &self,
        _acted: &QueueOp,
        _wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        WakeCandidates::None
    }

    fn debug_validate(&self) {
        // Every graph node is live or retained-committed.
        for t in self.graph.nodes() {
            assert!(
                self.active.contains(&t) || self.committed.contains(&t),
                "{t} leaked in ticket graph"
            );
        }
        // No committed source nodes survive garbage collection.
        for &t in &self.committed {
            assert!(
                !self.graph.contains_node(t) || self.graph.in_degree(t) > 0,
                "{t} should have been collected"
            );
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
    fn fin(i: u64) -> QueueOp {
        QueueOp::Fin { txn: g(i) }
    }

    #[test]
    fn aborting_to_kills_late_events() {
        let mut e = Gtm2::new(Box::new(AbortingTo::new()));
        e.enqueue(init(1, &[0]));
        e.enqueue(init(2, &[0]));
        e.enqueue(ser(2, 0)); // younger executes first
        e.enqueue(ser(1, 0)); // older arrives late -> abort
        let fx = e.pump();
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(0)
        }));
        assert!(fx.contains(&SchemeEffect::AbortGlobal { txn: g(1) }));
        assert_eq!(e.stats().waited, 0);
        assert_eq!(e.stats().scheme_aborts, 1);
        // The aborted event never reached the ser log.
        assert_eq!(e.ser_log().site_order(s(0)), &[g(2)]);
    }

    #[test]
    fn aborting_to_in_order_commits_all() {
        let mut e = Gtm2::new(Box::new(AbortingTo::new()));
        for i in 1..=3 {
            e.enqueue(init(i, &[0, 1]));
        }
        for i in 1..=3 {
            e.enqueue(ser(i, 0));
            e.enqueue(ser(i, 1));
        }
        let fx = e.pump();
        assert_eq!(
            fx.iter()
                .filter(|f| matches!(f, SchemeEffect::AbortGlobal { .. }))
                .count(),
            0
        );
        assert!(e.ser_log().check().is_ok());
    }

    #[test]
    fn optimistic_ticket_aborts_on_crossed_orders() {
        let mut e = Gtm2::new(Box::new(OptimisticTicket::new()));
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(2, 0));
        e.enqueue(ser(2, 1));
        e.enqueue(ser(1, 1)); // crossed: G1<G2 at s0, G2<G1 at s1
        e.pump();
        e.enqueue(fin(1)); // validation sees the cycle
        let fx = e.pump();
        assert_eq!(fx, vec![SchemeEffect::AbortGlobal { txn: g(1) }]);
        e.enqueue(fin(2)); // survivor validates fine
        let fx = e.pump();
        assert!(fx.is_empty());
    }

    #[test]
    fn optimistic_ticket_consistent_orders_commit() {
        let mut e = Gtm2::new(Box::new(OptimisticTicket::new()));
        e.set_validate(true);
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        for i in [1, 2] {
            e.enqueue(ser(i, 0));
            e.enqueue(ser(i, 1));
        }
        e.pump();
        e.enqueue(fin(1));
        e.enqueue(fin(2));
        let fx = e.pump();
        assert!(fx
            .iter()
            .all(|f| !matches!(f, SchemeEffect::AbortGlobal { .. })));
        assert_eq!(e.stats().scheme_aborts, 0);
    }

    #[test]
    fn optimistic_ticket_retains_committed_until_safe() {
        let mut e = Gtm2::new(Box::new(OptimisticTicket::new()));
        e.set_validate(true);
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        // G1 finishes both events and fins while G2 is mid-flight with
        // only its s1 event... G2 executed at s1 BEFORE G1's s1 event:
        e.enqueue(ser(2, 1));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(fin(1)); // G1: G2 -> G1 at s1, no cycle yet; commits
        e.pump();
        // G2 now executes at s0 after G1: G1 -> G2, closing the cycle.
        e.enqueue(ser(2, 0));
        e.pump();
        e.enqueue(fin(2));
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![SchemeEffect::AbortGlobal { txn: g(2) }],
            "retention must catch the late cycle"
        );
    }
}
