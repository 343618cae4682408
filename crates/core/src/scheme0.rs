//! Scheme 0 — per-site FIFO queues (Section 4 of the paper).
//!
//! The simplest conservative scheme, analogous to conservative TO:
//! transactions are serialized in the order their `init_i` operations are
//! processed. Data structures: one queue per site.
//!
//! | op | `cond` | `act` |
//! |----|--------|-------|
//! | `init_i` | true | append `ser_k(G_i)` to the queue of every site of `Ĝ_i` |
//! | `ser_k(G_i)` | first in `s_k`'s queue | submit to the local DBMS |
//! | `ack(ser_k(G_i))` | true | dequeue from `s_k`'s queue; forward ack |
//! | `fin_i` | true | — |
//!
//! Complexity: `O(d_av)` per transaction (the paper's Section 4 analysis):
//! `act(init)` enqueues `d_av` entries; every other `cond`/`act` is `O(1)`,
//! and after `act(ack(ser_k(G_i)))` only the *new front* of `s_k`'s queue
//! can have become eligible — a single wake candidate.

use crate::scheme::{Gtm2Scheme, SchemeEffect, WaitSet, WakeCandidates};
use mdbs_common::dense::IdHashMap;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::{StepCounter, StepKind};
use std::collections::VecDeque;

/// Scheme 0 state: one FIFO queue per site. Scheme 0's one kernel: it has
/// no paper-text twin in [`crate::reference`], since its queues have no
/// set algebra for a dense realization to speed up.
#[derive(Clone, Debug, Default)]
pub struct Scheme0 {
    /// Site → its queue. Only `debug_validate` iterates it, and that check
    /// does not depend on order.
    queues: IdHashMap<SiteId, VecDeque<GlobalTxnId>>,
}

impl Scheme0 {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    fn front(&self, site: SiteId) -> Option<GlobalTxnId> {
        self.queues.get(&site).and_then(|q| q.front().copied())
    }
}

impl Gtm2Scheme for Scheme0 {
    fn name(&self) -> &'static str {
        "Scheme 0"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => self.front(*site) == Some(*txn),
            QueueOp::Init { .. } | QueueOp::Ack { .. } | QueueOp::Fin { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        match op {
            QueueOp::Init { txn, sites } => {
                for &site in sites {
                    steps.tick(StepKind::Act);
                    self.queues.entry(site).or_default().push_back(*txn);
                }
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                // Only the front's `ser` at a site can have been submitted,
                // and its ack comes once (see `Gtm2::enqueue`).
                let front = self.queues.get_mut(site).and_then(VecDeque::pop_front);
                debug_assert_eq!(
                    front,
                    Some(*txn),
                    "ack of {txn} at {site} is not the front's"
                );
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { .. } => {
                steps.tick(StepKind::Act);
            }
        }
    }

    fn wake_candidates(&self, acted: &QueueOp, wait: &WaitSet) -> WakeCandidates {
        match acted {
            // Only an ack changes a queue front; the only waiting ops are
            // ser ops, and only the new front can be eligible.
            QueueOp::Ack { site, .. } => match self.front(*site) {
                Some(front_txn) => match wait.ser_key(front_txn, *site) {
                    Some(key) => WakeCandidates::One(key),
                    None => WakeCandidates::None,
                },
                None => WakeCandidates::None,
            },
            QueueOp::Init { .. } | QueueOp::Ser { .. } | QueueOp::Fin { .. } => {
                WakeCandidates::None
            }
        }
    }

    fn debug_validate(&self) {
        // A transaction appears at most once per site queue.
        for (site, q) in &self.queues {
            let mut seen = std::collections::BTreeSet::new();
            for t in q {
                assert!(seen.insert(*t), "{t} enqueued twice at {site}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtm2::Gtm2;
    use mdbs_common::ids::{GlobalTxnId, SiteId};

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    #[test]
    fn serializes_in_init_order() {
        let mut e = Gtm2::new(Box::new(Scheme0::new()));
        // G2's init first even though G1's ser ops arrive first.
        e.enqueue(QueueOp::Init {
            txn: g(2),
            sites: vec![s(0), s(1)],
        });
        e.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0), s(1)],
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ser {
            txn: g(2),
            site: s(0),
        });
        let fx = e.pump();
        // Only G2 (front of queue) proceeds.
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(0)
            }]
        );
        e.enqueue(QueueOp::Ack {
            txn: g(2),
            site: s(0),
        });
        let fx = e.pump();
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(1),
            site: s(0)
        }));
        assert!(e.ser_log().check().is_ok());
    }

    #[test]
    fn steps_scale_with_dav() {
        // act(init) is O(d): verify the step counter reflects it.
        let mut flat = Gtm2::new(Box::new(Scheme0::new()));
        flat.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0)],
        });
        flat.pump();
        let one = flat.steps().act;

        let mut wide = Gtm2::new(Box::new(Scheme0::new()));
        wide.enqueue(QueueOp::Init {
            txn: g(1),
            sites: (0..8).map(s).collect(),
        });
        wide.pump();
        let eight = wide.steps().act;
        assert_eq!(eight, one + 7);
    }

    #[test]
    fn independent_sites_proceed_concurrently() {
        let mut e = Gtm2::new(Box::new(Scheme0::new()));
        e.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0)],
        });
        e.enqueue(QueueOp::Init {
            txn: g(2),
            sites: vec![s(1)],
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ser {
            txn: g(2),
            site: s(1),
        });
        let fx = e.pump();
        assert_eq!(fx.len(), 2);
        assert_eq!(e.stats().waited, 0);
    }
}
