//! Item-granularity lock manager for the 2PL protocol.
//!
//! Shared/exclusive locks with FIFO wait queues. Lock upgrades (S→X by the
//! sole shared holder are granted immediately; otherwise the upgrade waits
//! at the *front* of the queue so it cannot starve behind later arrivals —
//! upgrade-upgrade conflicts surface as deadlocks for the detector.
//!
//! A transaction has at most one queued request at a time (the engine's
//! one-outstanding-operation contract, see [`crate::protocol::CcProtocol`]);
//! the table indexes it, so releasing a transaction and walking the
//! waits-for relation from it cost its own holdings and waits, not a scan
//! of the table.

use mdbs_common::ids::{DataItemId, TxnId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    /// Mode compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Result of an acquire call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquire {
    /// Lock granted (possibly re-entrantly).
    Granted,
    /// Request queued.
    Queued,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct WaitingRequest {
    txn: TxnId,
    mode: LockMode,
    /// True when the requester already holds a shared lock and wants
    /// exclusive.
    upgrade: bool,
}

#[derive(Clone, Debug, Default)]
struct ItemLock {
    holders: BTreeMap<TxnId, LockMode>,
    queue: VecDeque<WaitingRequest>,
}

impl ItemLock {
    fn grantable(&self, req: &WaitingRequest) -> bool {
        if req.upgrade {
            // Upgrade: grantable iff the requester is the only holder.
            self.holders.len() == 1 && self.holders.contains_key(&req.txn)
        } else {
            self.holders.values().all(|&h| h.compatible(req.mode))
        }
    }

    /// Transactions the request `req`, at queue position `qi`, waits for:
    /// every incompatible holder and every incompatible request ahead of it.
    fn blockers<'a>(
        &'a self,
        qi: usize,
        req: &'a WaitingRequest,
    ) -> impl Iterator<Item = TxnId> + 'a {
        let holders = self
            .holders
            .iter()
            // An upgrade waits for all *other* holders; a fresh request
            // for the incompatible ones.
            .filter(move |&(&holder, &hmode)| {
                holder != req.txn && (req.upgrade || !hmode.compatible(req.mode))
            })
            .map(|(&holder, _)| holder);
        let ahead = self
            .queue
            .iter()
            .take(qi)
            .filter(move |ahead| ahead.txn != req.txn && !ahead.mode.compatible(req.mode))
            .map(|ahead| ahead.txn);
        holders.chain(ahead)
    }
}

/// A newly granted lock produced by a release or cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Granted {
    /// The transaction whose waiting request was granted.
    pub txn: TxnId,
    /// The item the lock covers.
    pub item: DataItemId,
    /// The granted mode.
    pub mode: LockMode,
}

/// The lock table for one site.
#[derive(Clone, Debug, Default)]
pub struct LockManager {
    items: BTreeMap<DataItemId, ItemLock>,
    /// Items each transaction holds locks on (for O(holdings) release).
    held: BTreeMap<TxnId, BTreeSet<DataItemId>>,
    /// The item each waiting transaction has its queued request on.
    waiting: BTreeMap<TxnId, DataItemId>,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `mode` on `item` for `txn`.
    pub fn acquire(&mut self, txn: TxnId, item: DataItemId, mode: LockMode) -> Acquire {
        let lock = self.items.entry(item).or_default();
        match lock.holders.get(&txn).copied() {
            Some(LockMode::Exclusive) => return Acquire::Granted,
            Some(LockMode::Shared) if mode == LockMode::Shared => return Acquire::Granted,
            Some(LockMode::Shared) => {
                // Upgrade request.
                let req = WaitingRequest {
                    txn,
                    mode: LockMode::Exclusive,
                    upgrade: true,
                };
                if lock.grantable(&req) {
                    lock.holders.insert(txn, LockMode::Exclusive);
                    return Acquire::Granted;
                }
                lock.queue.push_front(req);
                self.index_waiter(txn, item);
                return Acquire::Queued;
            }
            None => {}
        }
        let req = WaitingRequest {
            txn,
            mode,
            upgrade: false,
        };
        // FIFO fairness: a fresh request may only jump the queue if the
        // queue is empty and it is compatible with the holders.
        if lock.queue.is_empty() && lock.grantable(&req) {
            lock.holders.insert(txn, mode);
            self.held.entry(txn).or_default().insert(item);
            Acquire::Granted
        } else {
            lock.queue.push_back(req);
            self.index_waiter(txn, item);
            Acquire::Queued
        }
    }

    fn index_waiter(&mut self, txn: TxnId, item: DataItemId) {
        let prev = self.waiting.insert(txn, item);
        debug_assert!(prev.is_none(), "{txn} already has a queued request");
    }

    /// Release all locks of `txn` and drop any queued request it still has;
    /// returns newly granted requests in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<Granted> {
        let mut granted = Vec::new();
        let mut items: Vec<DataItemId> = self.held.remove(&txn).into_iter().flatten().collect();
        // Its queued request sits on a held item (an upgrade) or on one
        // more item, released last.
        if let Some(item) = self.waiting.remove(&txn) {
            if !items.contains(&item) {
                items.push(item);
            }
        }
        for item in items {
            if let Some(lock) = self.items.get_mut(&item) {
                lock.holders.remove(&txn);
                lock.queue.retain(|r| r.txn != txn);
            }
            self.drain_queue(item, &mut granted);
            self.gc(item);
        }
        granted
    }

    /// Grant queue-front requests that became compatible.
    fn drain_queue(&mut self, item: DataItemId, granted: &mut Vec<Granted>) {
        loop {
            let lock = match self.items.get_mut(&item) {
                Some(l) => l,
                None => return,
            };
            let Some(front) = lock.queue.front().cloned() else {
                return;
            };
            if !lock.grantable(&front) {
                return;
            }
            lock.queue.pop_front();
            self.waiting.remove(&front.txn);
            lock.holders.insert(front.txn, front.mode);
            self.held.entry(front.txn).or_default().insert(item);
            granted.push(Granted {
                txn: front.txn,
                item,
                mode: front.mode,
            });
        }
    }

    fn gc(&mut self, item: DataItemId) {
        if let Some(l) = self.items.get(&item) {
            if l.holders.is_empty() && l.queue.is_empty() {
                self.items.remove(&item);
            }
        }
    }

    /// Current mode `txn` holds on `item`, if any.
    pub fn held_mode(&self, txn: TxnId, item: DataItemId) -> Option<LockMode> {
        self.items
            .get(&item)
            .and_then(|l| l.holders.get(&txn))
            .copied()
    }

    /// Current holders of `item` with their modes.
    pub fn holders_of(&self, item: DataItemId) -> Vec<(TxnId, LockMode)> {
        self.items
            .get(&item)
            .map(|l| l.holders.iter().map(|(&t, &m)| (t, m)).collect())
            .unwrap_or_default()
    }

    /// Transactions queued ahead of `txn`'s waiting request on `item`
    /// (empty if `txn` has no queued request there).
    pub fn queued_ahead_of(&self, txn: TxnId, item: DataItemId) -> Vec<TxnId> {
        let Some(lock) = self.items.get(&item) else {
            return Vec::new();
        };
        let Some(pos) = lock.queue.iter().position(|r| r.txn == txn) else {
            return Vec::new();
        };
        lock.queue.iter().take(pos).map(|r| r.txn).collect()
    }

    /// Waits-for edges implied by the current table: each queued request
    /// waits for every incompatible holder and every incompatible request
    /// ahead of it.
    pub fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for lock in self.items.values() {
            for (qi, req) in lock.queue.iter().enumerate() {
                edges.extend(lock.blockers(qi, req).map(|b| (req.txn, b)));
            }
        }
        edges
    }

    /// True iff `txn` reaches itself along waits-for edges, i.e. its queued
    /// request lies on a deadlock cycle. Walks only the requests reachable
    /// from `txn`: each hop is a lookup of the item a transaction waits on.
    pub fn waits_for_itself(&self, txn: TxnId) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![txn];
        while let Some(t) = stack.pop() {
            let Some(lock) = self.waiting.get(&t).and_then(|item| self.items.get(item)) else {
                continue; // not waiting: no out-edges
            };
            let Some((qi, req)) = lock.queue.iter().enumerate().find(|(_, r)| r.txn == t) else {
                continue;
            };
            for b in lock.blockers(qi, req) {
                if b == txn {
                    return true;
                }
                if seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    }

    /// Number of items with any lock state (diagnostics).
    pub fn active_items(&self) -> usize {
        self.items.len()
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
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(t(1), x(1), LockMode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(t(2), x(1), LockMode::Shared), Acquire::Granted);
    }

    #[test]
    fn exclusive_blocks_everything() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), x(1), LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(lm.acquire(t(2), x(1), LockMode::Shared), Acquire::Queued);
        assert_eq!(lm.acquire(t(3), x(1), LockMode::Exclusive), Acquire::Queued);
    }

    #[test]
    fn reentrant_acquires() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), x(1), LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(lm.acquire(t(1), x(1), LockMode::Shared), Acquire::Granted);
        assert_eq!(
            lm.acquire(t(1), x(1), LockMode::Exclusive),
            Acquire::Granted
        );
    }

    #[test]
    fn release_grants_fifo() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Exclusive);
        lm.acquire(t(2), x(1), LockMode::Shared);
        lm.acquire(t(3), x(1), LockMode::Shared);
        let granted = lm.release_all(t(1));
        assert_eq!(granted.len(), 2);
        assert_eq!(granted[0].txn, t(2));
        assert_eq!(granted[1].txn, t(3));
        assert_eq!(lm.held_mode(t(2), x(1)), Some(LockMode::Shared));
    }

    #[test]
    fn fifo_prevents_jumping() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Shared);
        lm.acquire(t(2), x(1), LockMode::Exclusive); // queued
                                                     // A later shared request must not jump over the queued X.
        assert_eq!(lm.acquire(t(3), x(1), LockMode::Shared), Acquire::Queued);
        let granted = lm.release_all(t(1));
        assert_eq!(granted[0].txn, t(2));
        assert_eq!(granted[0].mode, LockMode::Exclusive);
        assert_eq!(granted.len(), 1); // t3 still behind t2
    }

    #[test]
    fn sole_holder_upgrade_granted() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Shared);
        assert_eq!(
            lm.acquire(t(1), x(1), LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(lm.held_mode(t(1), x(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn contended_upgrade_waits_at_front() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Shared);
        lm.acquire(t(2), x(1), LockMode::Shared);
        assert_eq!(lm.acquire(t(1), x(1), LockMode::Exclusive), Acquire::Queued);
        let granted = lm.release_all(t(2));
        assert_eq!(
            granted,
            vec![Granted {
                txn: t(1),
                item: x(1),
                mode: LockMode::Exclusive
            }]
        );
    }

    #[test]
    fn upgrade_deadlock_visible_in_waits_for() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Shared);
        lm.acquire(t(2), x(1), LockMode::Shared);
        lm.acquire(t(1), x(1), LockMode::Exclusive);
        lm.acquire(t(2), x(1), LockMode::Exclusive);
        let edges = lm.waits_for_edges();
        assert!(edges.contains(&(t(1), t(2))));
        assert!(edges.contains(&(t(2), t(1))));
    }

    #[test]
    fn releasing_a_waiter_unblocks_queue() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Exclusive);
        lm.acquire(t(2), x(1), LockMode::Exclusive);
        lm.acquire(t(3), x(1), LockMode::Shared);
        // Drop t2's wait; t3 still blocked behind t1's X lock.
        assert!(lm.release_all(t(2)).is_empty());
        let granted = lm.release_all(t(1));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].txn, t(3));
    }

    #[test]
    fn waits_for_covers_queue_order() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Exclusive);
        lm.acquire(t(2), x(1), LockMode::Exclusive);
        lm.acquire(t(3), x(1), LockMode::Exclusive);
        let edges = lm.waits_for_edges();
        assert!(edges.contains(&(t(2), t(1))));
        assert!(edges.contains(&(t(3), t(1))));
        assert!(edges.contains(&(t(3), t(2))));
    }

    #[test]
    fn gc_removes_idle_items() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), x(1), LockMode::Exclusive);
        assert_eq!(lm.active_items(), 1);
        lm.release_all(t(1));
        assert_eq!(lm.active_items(), 0);
    }
}
