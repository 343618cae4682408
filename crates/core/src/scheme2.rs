//! Scheme 2 — the TSG-with-dependencies scheme (Section 6 of the paper).
//!
//! Scheme 2 improves on Scheme 1 by *exploiting the order in which
//! operations are processed*: instead of freezing a transaction's position
//! at `init` time with queue marks, it records **dependencies** — the
//! relative processing order of serialization events at each site — and
//! only restricts operations as far as needed to keep the TSGD acyclic
//! (see [`crate::tsgd`] for the cycle semantics and the `Eliminate_Cycles`
//! procedure of Figure 4).
//!
//! | op | `cond` | `act` |
//! |----|--------|-------|
//! | `init_i` | true | insert `Ĝ_i` + edges; add deps from already-executed events at shared sites; `D ∪= Eliminate_Cycles(TSGD, Ĝ_i)` |
//! | `ser_k(G_i)` | every dep-predecessor at `s_k` is acked | record executed; pin `Ĝ_i` before every not-yet-executed `Ĝ_j` at `s_k`; submit |
//! | `ack` | true | record acked; forward |
//! | `fin_i` | `Ĝ_i` has no incoming dependencies | delete `Ĝ_i`, its edges and dependencies |
//!
//! Complexity: `O(n²·d_av)` per transaction (Theorem 6), dominated by
//! `Eliminate_Cycles`.
//!
//! This module is the reference (BTree) realization and the step-accounting
//! oracle. The production path is [`crate::kernel_dense::Scheme2Dense`],
//! which charges identical abstract steps but cuts the *machine* cost:
//! [`crate::tsgd_dense::eliminate_cycles_dense_with`] keeps each node's scan
//! cursor in its DFS frame (a `(arrival site, node)` state is entered at
//! most once per call), charges a column the node already emptied without
//! rescanning it, reads column positions that
//! [`crate::tsgd_dense::DenseTsgd`] stores instead of searching for them,
//! and hands Δ and the `act` dependency fans over in slot space.

use crate::scheme::{Gtm2Scheme, SchemeEffect, WaitSet, WakeCandidates};
use crate::tsgd::{eliminate_cycles, Dep, Tsgd};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::{StepCounter, StepKind};
use std::collections::BTreeSet;

/// Scheme 2 state.
#[derive(Clone, Debug, Default)]
pub struct Scheme2 {
    tsgd: Tsgd,
    /// `(txn, site)` pairs whose `act(ser)` has run.
    executed: BTreeSet<(GlobalTxnId, SiteId)>,
    /// `(txn, site)` pairs whose ack has been processed.
    acked: BTreeSet<(GlobalTxnId, SiteId)>,
    /// Use the exact (exponential) minimum-Δ search instead of
    /// `Eliminate_Cycles` — the variant Theorem 7 proves NP-hard. Falls
    /// back to `Eliminate_Cycles` when the candidate set is too large to
    /// enumerate.
    minimal: bool,
}

impl Scheme2 {
    /// Fresh state (paper's Scheme 2: polynomial `Eliminate_Cycles`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The ablation variant: minimum-size Δ by exhaustive search (the
    /// NP-hard problem of Theorem 7), maximizing Scheme 2's concurrency.
    pub fn new_minimal() -> Self {
        Scheme2 {
            minimal: true,
            ..Self::default()
        }
    }

    /// Read access to the TSGD (experiments, diagnostics).
    pub fn tsgd(&self) -> &Tsgd {
        &self.tsgd
    }

    /// True iff `txn` has any incoming dependency.
    fn has_incoming_dep(&self, txn: GlobalTxnId) -> bool {
        self.tsgd.deps().any(|d| d.after == txn)
    }
}

impl Gtm2Scheme for Scheme2 {
    fn name(&self) -> &'static str {
        if self.minimal {
            "Scheme 2-MIN"
        } else {
            "Scheme 2"
        }
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => {
                // Single pass over the dependency list: count the
                // predecessors (the paper's cost, charged in full either
                // way) and check their acks as they stream by.
                let mut preds = 0u64;
                let mut all_acked = true;
                for d in self.tsgd.deps() {
                    if d.site == *site && d.after == *txn {
                        preds += 1;
                        all_acked &= self.acked.contains(&(d.before, *site));
                    }
                }
                steps.bump(StepKind::Cond, preds + 1);
                all_acked
            }
            QueueOp::Fin { txn } => {
                steps.bump(StepKind::Cond, self.tsgd.dep_count() as u64);
                !self.has_incoming_dep(*txn)
            }
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter) -> Vec<SchemeEffect> {
        match op {
            QueueOp::Init { txn, sites } => {
                self.tsgd.insert_txn(*txn, sites);
                steps.bump(StepKind::Act, sites.len() as u64);
                // Order Ĝ_i after every already-executed event at shared
                // sites.
                for &site in sites {
                    let executed_here: Vec<GlobalTxnId> = self
                        .tsgd
                        .txns_at(site)
                        .filter(|&j| j != *txn && self.executed.contains(&(j, site)))
                        .collect();
                    steps.bump(StepKind::Act, executed_here.len() as u64 + 1);
                    for j in executed_here {
                        self.tsgd.add_dep(Dep {
                            site,
                            before: j,
                            after: *txn,
                        });
                    }
                }
                // Break every remaining cycle involving Ĝ_i.
                let delta = if self.minimal {
                    let candidates: usize = sites
                        .iter()
                        .map(|&k| self.tsgd.txns_at(k).filter(|&j| j != *txn).count())
                        .sum();
                    if candidates <= 16 {
                        // Charge the exponential enumeration honestly.
                        steps.bump(StepKind::Act, 1u64 << candidates.min(30));
                        // The exact search enumerates the full candidate
                        // set, so on a well-formed TSGD it always finds a
                        // delta; fall back to the greedy eliminator rather
                        // than panic the pump if that ever breaks.
                        crate::tsgd::minimal_delta_exact(&self.tsgd, *txn)
                            .unwrap_or_else(|| eliminate_cycles(&self.tsgd, *txn, steps))
                    } else {
                        eliminate_cycles(&self.tsgd, *txn, steps)
                    }
                } else {
                    eliminate_cycles(&self.tsgd, *txn, steps)
                };
                for d in delta {
                    self.tsgd.add_dep(d);
                }
                Vec::new()
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                self.executed.insert((*txn, *site));
                // Pin Ĝ_i before every not-yet-executed event at the site.
                let pending: Vec<GlobalTxnId> = self
                    .tsgd
                    .txns_at(*site)
                    .filter(|&j| j != *txn && !self.executed.contains(&(j, *site)))
                    .collect();
                steps.bump(StepKind::Act, pending.len() as u64 + 1);
                for j in pending {
                    self.tsgd.add_dep(Dep {
                        site: *site,
                        before: *txn,
                        after: j,
                    });
                }
                vec![SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                self.acked.insert((*txn, *site));
                vec![SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Fin { txn } => {
                steps.bump(StepKind::Act, self.tsgd.sites_of(*txn).count() as u64 + 1);
                self.tsgd.remove_txn(*txn);
                self.executed.retain(|(t, _)| t != txn);
                self.acked.retain(|(t, _)| t != txn);
                Vec::new()
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
            // An ack can satisfy waiting ser conds at its site.
            QueueOp::Ack { site, .. } => {
                steps.bump(StepKind::WaitScan, wait.ser_count_at(*site) as u64);
                WakeCandidates::SerAt(*site)
            }
            // A fin removes dependencies out of the finished transaction,
            // which can unblock other fins.
            QueueOp::Fin { .. } => {
                steps.bump(StepKind::WaitScan, wait.fin_count() as u64);
                WakeCandidates::Fins
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn debug_validate(&self) {
        // The induction of Theorem 5: the TSGD stays acyclic. The direct
        // checker is exponential, so guard by size.
        if self.tsgd.txns().count() <= 10 {
            assert!(!self.tsgd.has_any_cycle(), "TSGD must remain acyclic");
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

    fn engine() -> Gtm2 {
        let mut e = Gtm2::new(Box::new(Scheme2::new()));
        e.set_validate(true);
        e
    }

    /// The dependency mechanism orders overlapping transactions safely.
    #[test]
    fn overlapping_txns_safe_order() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(2, 1));
        let fx = e.pump();
        // Eliminate_Cycles at init(2) pinned G1 before G2 (Δ dependencies
        // always point into the initializing transaction), so G1's event
        // runs and G2's waits for G1's ack at its site.
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(1),
                site: s(0)
            }]
        );
        assert_eq!(e.stats().waited, 1);
        e.enqueue(ack(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 1));
        let fx = e.pump();
        // G1's ack at site 1 wakes G2's waiting event there.
        assert!(
            fx.contains(&SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(1)
            }),
            "{fx:?}"
        );
        e.enqueue(ack(2, 1));
        e.enqueue(ser(2, 0));
        e.pump();
        e.enqueue(ack(2, 0));
        e.pump();
        assert!(e.ser_log().check().is_ok());
        assert_eq!(e.ser_log().site_order(s(0)), &[g(1), g(2)]);
        assert_eq!(e.ser_log().site_order(s(1)), &[g(1), g(2)]);
    }

    /// Scheme 2 exploits processing order: if G1's events all execute and
    /// ack before G2's init, G2 is simply ordered after G1 — no waits.
    #[test]
    fn sequential_txns_never_wait() {
        let mut e = engine();
        for i in 1..=3u64 {
            e.enqueue(init(i, &[0, 1]));
            e.enqueue(ser(i, 0));
            e.enqueue(ser(i, 1));
            e.pump();
            e.enqueue(ack(i, 0));
            e.enqueue(ack(i, 1));
            e.enqueue(fin(i));
            e.pump();
        }
        assert_eq!(e.stats().waited, 0);
        assert!(e.ser_log().check().is_ok());
    }

    /// Scheme 2 permits what Scheme 0 forbids: inits in one order, events
    /// executed in the other order at a single shared site.
    #[test]
    fn single_site_out_of_init_order_ok() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 2]));
        // G2's event at the shared site first — Scheme 0 would queue it
        // behind G1; Scheme 2 has no cycle, hence no dependency forcing.
        e.enqueue(ser(2, 0));
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(0)
            }]
        );
        e.enqueue(ack(2, 0));
        e.enqueue(ser(1, 0));
        let fx = e.pump();
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(1),
            site: s(0)
        }));
        assert_eq!(e.stats().waited, 0);
        assert!(e.ser_log().check().is_ok());
    }

    /// fin waits until incoming dependencies disappear (predecessors fin).
    #[test]
    fn fin_respects_dependency_order() {
        let mut e = engine();
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 0));
        e.enqueue(ack(1, 1));
        e.enqueue(ser(2, 0));
        e.enqueue(ser(2, 1));
        e.pump();
        e.enqueue(ack(2, 0));
        e.enqueue(ack(2, 1));
        // G2 was ordered after G1 by Eliminate_Cycles: its fin must wait
        // for G1's fin.
        e.enqueue(fin(2));
        e.pump();
        assert_eq!(e.wait_len(), 1);
        e.enqueue(fin(1));
        e.pump();
        assert_eq!(e.wait_len(), 0);
        assert_eq!(e.stats().fins, 2);
        assert!(e.ser_log().check().is_ok());
    }
}
