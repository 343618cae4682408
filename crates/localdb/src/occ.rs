//! Backward-validation optimistic concurrency control (BOCC).
//!
//! Reads and writes always proceed (writes into a per-transaction buffer
//! owned by the engine); at commit the transaction validates against every
//! transaction that committed since it began: any overlap between its read
//! set and their write sets aborts it. Write phases are serial (the engine
//! applies buffers atomically inside the commit grant), so the serialization
//! order is exactly the commit order.
//!
//! **Serialization function**: commit — validation and write application
//! happen there, making it the serialization event
//! ([`SerializationEvent::Commit`](crate::serfn::SerializationEvent)).
//!
//! ## Two-phase commit mode
//!
//! When the GTM runs 2PC, validation moves to the **prepare** (which then
//! is the serialization event) while the write buffer is applied at the
//! later commit. Splitting validation from application requires two extra
//! rules, or serialization order and data visibility diverge:
//!
//! 1. a read of an item in a *prepared* (in-doubt) transaction's write set
//!    **waits** until that transaction finishes — otherwise a transaction
//!    beginning after the prepare would read pre-prepare data while being
//!    serialized after the writer;
//! 2. a prepared transaction's commit **waits** for earlier-prepared
//!    transactions with intersecting write sets, keeping the apply order
//!    equal to the validation order.
//!
//! Both wait relations point from later to earlier prepares, so they are
//! deadlock-free; prepared transactions cannot be aborted unilaterally
//! (see [`LocalDbms::request_abort`](crate::engine::LocalDbms)), which is
//! exactly the classic 2PC participant contract.
//!
//! The per-transaction table is an [`IdHashMap`]; its walks only ask
//! whether any entry matches or take a minimum, which no order changes.
//! The committed log stays a `BTreeMap`, range-queried by commit number,
//! and the blocked set a `BTreeSet`, woken in ascending id order.

use crate::protocol::{CcProtocol, Decision, WriteStyle};
use mdbs_common::dense::IdHashMap;
use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, TxnId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug, Default)]
struct TxnInfo {
    read_set: BTreeSet<DataItemId>,
    write_set: BTreeSet<DataItemId>,
    /// Commit counter value when this transaction began.
    start_tn: u64,
    /// Commit number reserved at a successful prepare (two-phase commit):
    /// validation already happened and the write set is already in the
    /// committed log, so the later commit is unconditional.
    prepared_tn: Option<u64>,
}

/// BOCC protocol state.
#[derive(Debug, Default)]
pub struct Optimistic {
    txns: IdHashMap<TxnId, TxnInfo>,
    /// Committed write sets, keyed by commit number.
    committed: BTreeMap<u64, BTreeSet<DataItemId>>,
    /// Monotonic commit counter.
    tn: u64,
    /// Transactions blocked on in-doubt (prepared) data or on apply order.
    blocked: BTreeSet<TxnId>,
}

impl Optimistic {
    /// Fresh protocol state.
    pub fn new() -> Self {
        Self::default()
    }

    #[expect(
        clippy::expect_used,
        reason = "the engine contract guarantees on_begin before any other protocol call."
    )]
    fn info(&mut self, txn: TxnId) -> &mut TxnInfo {
        self.txns
            .get_mut(&txn)
            .expect("on_begin precedes operations")
    }

    /// Drop committed write sets no active transaction can still conflict
    /// with (all active transactions began after them).
    fn collect_garbage(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "a minimum does not depend on the order it is taken in."
        )]
        let min_start = self
            .txns
            .values()
            .map(|i| i.start_tn)
            .min()
            .unwrap_or(self.tn);
        self.committed.retain(|&tn, _| tn > min_start);
    }
}

impl CcProtocol for Optimistic {
    fn name(&self) -> &'static str {
        "OCC"
    }

    fn write_style(&self) -> WriteStyle {
        WriteStyle::Deferred
    }

    fn on_begin(&mut self, txn: TxnId, _seq: u64) {
        self.txns.insert(
            txn,
            TxnInfo {
                start_tn: self.tn,
                ..TxnInfo::default()
            },
        );
    }

    fn on_read(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        // In-doubt rule (2PC): wait for a prepared transaction whose write
        // set covers the item — its value is decided but not yet applied.
        #[expect(
            clippy::disallowed_methods,
            reason = "whether any entry matches does not depend on the order they are tested in."
        )]
        let in_doubt = self.txns.iter().any(|(&u, info)| {
            u != txn && info.prepared_tn.is_some() && info.write_set.contains(&item)
        });
        if in_doubt {
            self.blocked.insert(txn);
            return Decision::Block;
        }
        self.info(txn).read_set.insert(item);
        Decision::Grant
    }

    fn on_write(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        self.info(txn).write_set.insert(item);
        Decision::Grant
    }

    fn on_commit(&mut self, txn: TxnId) -> Decision {
        #[expect(
            clippy::expect_used,
            reason = "the engine contract guarantees on_begin before on_commit."
        )]
        let info = self.txns.get(&txn).expect("on_begin precedes commit");
        if let Some(my_tn) = info.prepared_tn {
            // Already validated at prepare; keep the apply order equal to
            // the validation order for intersecting write sets.
            #[expect(
                clippy::disallowed_methods,
                reason = "whether any entry matches does not depend on the order they are tested in."
            )]
            let must_wait = self.txns.iter().any(|(&u, other)| {
                u != txn
                    && other.prepared_tn.is_some_and(|t| t < my_tn)
                    && other
                        .write_set
                        .intersection(&info.write_set)
                        .next()
                        .is_some()
            });
            if must_wait {
                self.blocked.insert(txn);
                return Decision::Block;
            }
            return Decision::Grant;
        }
        // Backward validation: conflicts with transactions committed during
        // our read phase abort us.
        for (_, ws) in self.committed.range((info.start_tn + 1)..) {
            if ws.intersection(&info.read_set).next().is_some() {
                return Decision::Abort(AbortReason::ValidationFailure);
            }
        }
        Decision::Grant
    }

    fn on_prepare(&mut self, txn: TxnId) -> Decision {
        #[expect(
            clippy::expect_used,
            reason = "the engine contract guarantees on_begin before on_prepare."
        )]
        let info = self.txns.get(&txn).expect("on_begin precedes prepare");
        for (_, ws) in self.committed.range((info.start_tn + 1)..) {
            if ws.intersection(&info.read_set).next().is_some() {
                return Decision::Abort(AbortReason::ValidationFailure);
            }
        }
        // Reserve the serialization point now: enter the committed log so
        // concurrent validators see this write set; a later global abort
        // withdraws it in on_end.
        self.tn += 1;
        let tn = self.tn;
        #[expect(
            clippy::expect_used,
            reason = "same entry was read a few lines above; nothing removed it."
        )]
        let info = self.txns.get_mut(&txn).expect("live");
        info.prepared_tn = Some(tn);
        if !info.write_set.is_empty() {
            let ws = info.write_set.clone();
            self.committed.insert(tn, ws);
        }
        Decision::Grant
    }

    fn on_end(&mut self, txn: TxnId, committed: bool) -> Vec<TxnId> {
        self.blocked.remove(&txn);
        if let Some(info) = self.txns.remove(&txn) {
            match info.prepared_tn {
                Some(tn) => {
                    if !committed {
                        // Globally aborted after prepare: withdraw the
                        // reserved entry.
                        self.committed.remove(&tn);
                    }
                }
                None => {
                    if committed && !info.write_set.is_empty() {
                        self.tn += 1;
                        self.committed.insert(self.tn, info.write_set);
                    }
                }
            }
        }
        self.collect_garbage();
        // Retry everyone blocked on in-doubt data or apply order; the
        // engine re-evaluates their conditions.
        std::mem::take(&mut self.blocked).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::GlobalTxnId;

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    #[test]
    fn read_write_always_grant() {
        let mut p = Optimistic::new();
        p.on_begin(t(1), 1);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(1), x(2)), Decision::Grant);
    }

    #[test]
    fn overlapping_read_fails_validation() {
        let mut p = Optimistic::new();
        p.on_begin(t(1), 1);
        p.on_begin(t(2), 2);
        p.on_read(t(1), x(1));
        p.on_write(t(2), x(1));
        assert_eq!(p.on_commit(t(2)), Decision::Grant);
        p.on_end(t(2), true);
        assert_eq!(
            p.on_commit(t(1)),
            Decision::Abort(AbortReason::ValidationFailure)
        );
    }

    #[test]
    fn disjoint_txns_both_commit() {
        let mut p = Optimistic::new();
        p.on_begin(t(1), 1);
        p.on_begin(t(2), 2);
        p.on_read(t(1), x(1));
        p.on_write(t(1), x(1));
        p.on_read(t(2), x(2));
        p.on_write(t(2), x(2));
        assert_eq!(p.on_commit(t(1)), Decision::Grant);
        p.on_end(t(1), true);
        assert_eq!(p.on_commit(t(2)), Decision::Grant);
        p.on_end(t(2), true);
    }

    #[test]
    fn commits_before_begin_do_not_conflict() {
        let mut p = Optimistic::new();
        p.on_begin(t(1), 1);
        p.on_write(t(1), x(1));
        assert_eq!(p.on_commit(t(1)), Decision::Grant);
        p.on_end(t(1), true);
        // t2 begins after t1 committed: reading x1 is fine.
        p.on_begin(t(2), 2);
        p.on_read(t(2), x(1));
        assert_eq!(p.on_commit(t(2)), Decision::Grant);
    }

    #[test]
    fn write_write_overlap_allowed_with_serial_write_phase() {
        // Blind write overlap: serializable in commit order, no abort.
        let mut p = Optimistic::new();
        p.on_begin(t(1), 1);
        p.on_begin(t(2), 2);
        p.on_write(t(1), x(1));
        p.on_write(t(2), x(1));
        assert_eq!(p.on_commit(t(1)), Decision::Grant);
        p.on_end(t(1), true);
        assert_eq!(p.on_commit(t(2)), Decision::Grant);
    }

    #[test]
    fn aborted_txn_leaves_no_trace() {
        let mut p = Optimistic::new();
        p.on_begin(t(1), 1);
        p.on_write(t(1), x(1));
        p.on_end(t(1), false);
        p.on_begin(t(2), 2);
        p.on_read(t(2), x(1));
        assert_eq!(p.on_commit(t(2)), Decision::Grant);
    }

    #[test]
    fn garbage_collection_bounds_committed_log() {
        let mut p = Optimistic::new();
        for i in 1..=10 {
            p.on_begin(t(i), i);
            p.on_write(t(i), x(i));
            assert_eq!(p.on_commit(t(i)), Decision::Grant);
            p.on_end(t(i), true);
        }
        // No active transactions: the committed log is fully collectable.
        assert!(p.committed.is_empty());
    }
}
