//! Strict timestamp ordering.
//!
//! Timestamps are the site-local begin sequence numbers. The classic basic
//! TO rules reject too-late operations; *strictness* is added by making an
//! operation on an item wait while an older transaction holds an
//! uncommitted write on it — this prevents dirty reads (so aborts never
//! cascade) and guarantees that the recorded history orders every
//! conflicting pair by timestamp. Waits always point from younger to older
//! transactions, so they can never deadlock.
//!
//! **Serialization function** (paper, Section 2.2): the local DBMS assigns
//! timestamps at `begin`, so the begin operation is the serialization event
//! ([`SerializationEvent::Begin`](crate::serfn::SerializationEvent)).

use crate::protocol::{CcProtocol, Decision, WriteStyle};
use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, TxnId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug, Default)]
struct ItemState {
    /// Largest timestamp of any granted read.
    rts: u64,
    /// Largest timestamp of any granted write.
    wts: u64,
    /// Active transactions holding an uncommitted write on the item.
    dirty: BTreeSet<TxnId>,
    /// Transactions blocked on this item's dirty writers.
    waiters: BTreeSet<TxnId>,
}

#[derive(Clone, Copy, Debug)]
struct TxnState {
    /// Timestamp: the begin sequence number.
    ts: u64,
    /// The item whose waiter set holds the transaction, while blocked.
    waiting_on: Option<DataItemId>,
}

/// Strict TO protocol state.
#[derive(Debug, Default)]
pub struct TimestampOrdering {
    txns: BTreeMap<TxnId, TxnState>,
    items: BTreeMap<DataItemId, ItemState>,
    /// Items each active transaction has dirty writes on (for release).
    writes: BTreeMap<TxnId, BTreeSet<DataItemId>>,
}

impl TimestampOrdering {
    /// Fresh protocol state.
    pub fn new() -> Self {
        Self::default()
    }

    #[expect(
        clippy::expect_used,
        reason = "the engine contract guarantees on_begin before any other protocol call."
    )]
    fn timestamp(&self, txn: TxnId) -> u64 {
        self.txns
            .get(&txn)
            .expect("on_begin precedes operations")
            .ts
    }

    /// Queue `txn` behind the dirty writers of `item`.
    #[expect(
        clippy::expect_used,
        reason = "the engine contract guarantees on_begin before any other protocol call."
    )]
    fn block_on(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        #[expect(
            clippy::expect_used,
            reason = "is_dirty_for only returns true for an existing entry."
        )]
        self.items
            .get_mut(&item)
            .expect("entry")
            .waiters
            .insert(txn);
        self.txns.get_mut(&txn).expect("live txn").waiting_on = Some(item);
        Decision::Block
    }

    /// True iff some *other* transaction holds an uncommitted write.
    fn is_dirty_for(&self, item: DataItemId, txn: TxnId) -> bool {
        self.items
            .get(&item)
            .is_some_and(|s| s.dirty.iter().any(|&d| d != txn))
    }
}

impl CcProtocol for TimestampOrdering {
    fn name(&self) -> &'static str {
        "TO"
    }

    fn write_style(&self) -> WriteStyle {
        WriteStyle::Immediate
    }

    fn on_begin(&mut self, txn: TxnId, seq: u64) {
        self.txns.insert(
            txn,
            TxnState {
                ts: seq,
                waiting_on: None,
            },
        );
    }

    fn on_read(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        let ts = self.timestamp(txn);
        let state = self.items.entry(item).or_default();
        if ts < state.wts {
            return Decision::Abort(AbortReason::TimestampOrder);
        }
        if self.is_dirty_for(item, txn) {
            // All dirty writers have wts <= ts and differ from txn, hence
            // are strictly older: wait for them (younger waits for older —
            // acyclic).
            return self.block_on(txn, item);
        }
        #[expect(
            clippy::expect_used,
            reason = "the entry was created by or_default earlier in on_read."
        )]
        let state = self.items.get_mut(&item).expect("entry");
        state.rts = state.rts.max(ts);
        Decision::Grant
    }

    fn on_write(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        let ts = self.timestamp(txn);
        let state = self.items.entry(item).or_default();
        if ts < state.rts || ts < state.wts {
            return Decision::Abort(AbortReason::TimestampOrder);
        }
        if self.is_dirty_for(item, txn) {
            return self.block_on(txn, item);
        }
        #[expect(
            clippy::expect_used,
            reason = "the entry was created by or_default at the top of on_write."
        )]
        let state = self.items.get_mut(&item).expect("entry");
        state.wts = state.wts.max(ts);
        state.dirty.insert(txn);
        self.writes.entry(txn).or_default().insert(item);
        Decision::Grant
    }

    fn on_commit(&mut self, _txn: TxnId) -> Decision {
        Decision::Grant
    }

    fn on_end(&mut self, txn: TxnId, _committed: bool) -> Vec<TxnId> {
        let ended = self.txns.remove(&txn);
        let mut woken: Vec<(u64, TxnId)> = Vec::new();
        let written = self.writes.remove(&txn).unwrap_or_default();
        for item in written {
            #[expect(
                clippy::expect_used,
                reason = "every item in `writes` got an `items` entry when the write was granted."
            )]
            let state = self.items.get_mut(&item).expect("written item exists");
            state.dirty.remove(&txn);
            if state.dirty.is_empty() {
                // Wake all waiters; they retry their decision. Oldest first
                // so the retry order matches timestamp order.
                for w in std::mem::take(&mut state.waiters) {
                    if let Some(waiter) = self.txns.get_mut(&w) {
                        waiter.waiting_on = None;
                        woken.push((waiter.ts, w));
                    }
                }
            }
        }
        // The transaction may be waiting itself; drop its queue entry.
        if let Some(item) = ended.and_then(|t| t.waiting_on) {
            if let Some(state) = self.items.get_mut(&item) {
                state.waiters.remove(&txn);
            }
        }
        woken.sort_unstable();
        woken.dedup();
        woken.into_iter().map(|(_, t)| t).collect()
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

    fn proto_with(n: u64) -> TimestampOrdering {
        let mut p = TimestampOrdering::new();
        for i in 1..=n {
            p.on_begin(t(i), i);
        }
        p
    }

    #[test]
    fn late_read_aborts() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
        p.on_end(t(2), true);
        assert_eq!(
            p.on_read(t(1), x(1)),
            Decision::Abort(AbortReason::TimestampOrder)
        );
    }

    #[test]
    fn late_write_after_read_aborts() {
        let mut p = proto_with(2);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
        assert_eq!(
            p.on_write(t(1), x(1)),
            Decision::Abort(AbortReason::TimestampOrder)
        );
    }

    #[test]
    fn read_of_dirty_item_blocks_until_commit() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        let woken = p.on_end(t(1), true);
        assert_eq!(woken, vec![t(2)]);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
    }

    #[test]
    fn own_dirty_write_readable() {
        let mut p = proto_with(1);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
    }

    #[test]
    fn in_order_operations_all_grant() {
        let mut p = proto_with(3);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(3), x(1)), Decision::Grant);
    }

    #[test]
    fn waiters_woken_oldest_first() {
        let mut p = proto_with(3);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(3), x(1)), Decision::Block);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        assert_eq!(p.on_end(t(1), true), vec![t(2), t(3)]);
    }

    #[test]
    fn aborted_writer_clears_dirty() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        let woken = p.on_end(t(1), false);
        assert_eq!(woken, vec![t(2)]);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
    }

    #[test]
    fn write_write_in_order() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        // Younger write waits for older dirty write (strictness), then
        // proceeds.
        assert_eq!(p.on_write(t(2), x(1)), Decision::Block);
        p.on_end(t(1), true);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
    }
}
