//! Strict two-phase locking.
//!
//! Reads take shared locks, writes exclusive locks; all locks are held
//! until termination (strictness ⇒ no dirty reads, no cascading aborts).
//! Blocked requests wait in FIFO queues; deadlocks are detected on each
//! block by a waits-for walk from the requester, and a cycle it finds is
//! broken by [`crate::deadlock`]'s victim selection.
//!
//! **Serialization function** (paper, Section 2.2): any operation between a
//! transaction's last lock acquisition and its first lock release is a
//! serialization event; under *strict* 2PL, the commit operation qualifies,
//! so this site reports [`SerializationEvent::Commit`](crate::serfn::SerializationEvent).

use crate::deadlock::first_victim;
use crate::locks::{Acquire, LockManager, LockMode};
use crate::protocol::{CcProtocol, DeadlockOutcome, Decision, WriteStyle};
use mdbs_common::ids::{DataItemId, TxnId};
use std::collections::BTreeMap;

/// Strict 2PL protocol state.
#[derive(Debug, Default)]
pub struct TwoPhaseLocking {
    locks: LockManager,
    age: BTreeMap<TxnId, u64>,
}

impl TwoPhaseLocking {
    /// Fresh protocol state.
    pub fn new() -> Self {
        Self::default()
    }

    fn request(&mut self, txn: TxnId, item: DataItemId, mode: LockMode) -> Decision {
        match self.locks.acquire(txn, item, mode) {
            Acquire::Granted => Decision::Grant,
            Acquire::Queued => Decision::Block,
        }
    }

    /// The first victim over the waits-for graph of the whole lock table
    /// (scanned item by item, without the per-transaction index the walk
    /// uses).
    pub(crate) fn scan_for_victim(&self) -> DeadlockOutcome {
        first_victim(&self.locks.waits_for_edges(), &self.age)
    }
}

impl CcProtocol for TwoPhaseLocking {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn write_style(&self) -> WriteStyle {
        WriteStyle::Immediate
    }

    fn on_begin(&mut self, txn: TxnId, seq: u64) {
        self.age.insert(txn, seq);
    }

    fn on_read(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        self.request(txn, item, LockMode::Shared)
    }

    fn on_write(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        self.request(txn, item, LockMode::Exclusive)
    }

    fn on_commit(&mut self, _txn: TxnId) -> Decision {
        // Strict 2PL commits unconditionally; locks release in on_end.
        Decision::Grant
    }

    fn on_end(&mut self, txn: TxnId, _committed: bool) -> Vec<TxnId> {
        self.age.remove(&txn);
        self.locks
            .release_all(txn)
            .into_iter()
            .map(|g| g.txn)
            .collect()
    }

    fn check_deadlock(&mut self, requester: TxnId) -> DeadlockOutcome {
        // Any cycle passes through the requester (see `crate::deadlock`),
        // so the table is scanned only once its own walk has found one.
        if !self.locks.waits_for_itself(requester) {
            return DeadlockOutcome::None;
        }
        self.scan_for_victim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::{GlobalTxnId, LocalTxnId, SiteId};

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn l(i: u64) -> TxnId {
        TxnId::Local(LocalTxnId {
            site: SiteId(0),
            seq: i,
        })
    }
    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    #[test]
    fn conflicting_write_blocks() {
        let mut p = TwoPhaseLocking::new();
        p.on_begin(t(1), 1);
        p.on_begin(t(2), 2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        assert_eq!(p.check_deadlock(t(2)), DeadlockOutcome::None);
        let woken = p.on_end(t(1), true);
        assert_eq!(woken, vec![t(2)]);
    }

    #[test]
    fn deadlock_detected_and_local_victimized() {
        let mut p = TwoPhaseLocking::new();
        p.on_begin(t(1), 1);
        p.on_begin(l(2), 2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(l(2), x(2)), Decision::Grant);
        assert_eq!(p.on_write(t(1), x(2)), Decision::Block);
        assert_eq!(p.check_deadlock(t(1)), DeadlockOutcome::None);
        assert_eq!(p.on_write(l(2), x(1)), Decision::Block);
        assert_eq!(p.check_deadlock(l(2)), DeadlockOutcome::Victim(l(2)));
    }

    #[test]
    fn commit_always_grants() {
        let mut p = TwoPhaseLocking::new();
        p.on_begin(t(1), 1);
        assert_eq!(p.on_commit(t(1)), Decision::Grant);
    }

    #[test]
    fn reads_share() {
        let mut p = TwoPhaseLocking::new();
        p.on_begin(t(1), 1);
        p.on_begin(t(2), 2);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
    }

    #[test]
    fn wake_order_is_fifo() {
        let mut p = TwoPhaseLocking::new();
        for i in 1..=4 {
            p.on_begin(t(i), i);
        }
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        assert_eq!(p.on_read(t(3), x(1)), Decision::Block);
        assert_eq!(p.on_write(t(4), x(1)), Decision::Block);
        // Releasing t1 wakes the two readers but not the writer behind them.
        assert_eq!(p.on_end(t(1), true), vec![t(2), t(3)]);
    }
}
