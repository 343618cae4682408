//! Timestamp-based deadlock-*prevention* variants of strict 2PL.
//!
//! Real federations mix lock-based systems that resolve conflicts
//! differently; these two classic variants broaden the heterogeneity the
//! GTM must cope with, while keeping the same serialization function as
//! plain strict 2PL (commit — locks are held to termination):
//!
//! - **Wait-die** (non-preemptive): an older requester waits for a younger
//!   holder; a younger requester *dies* (aborts) immediately.
//! - **Wound-wait** (preemptive): an older requester *wounds* (aborts)
//!   younger holders; a younger requester waits.
//!
//! Both orderings make the waits-for relation acyclic by construction, so
//! no deadlock detector is needed. Wounding is reported through the
//! `check_deadlock` hook: after a `Block`, the engine repeatedly asks for
//! victims, which is exactly the shape wound-wait needs.

use crate::locks::{Acquire, LockManager, LockMode};
use crate::protocol::{CcProtocol, DeadlockOutcome, Decision, WriteStyle};
use mdbs_common::dense::IdHashMap;
use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, TxnId};

/// Which prevention policy a [`PreventionTwoPhaseLocking`] instance runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreventionPolicy {
    /// Older waits, younger dies.
    WaitDie,
    /// Older wounds, younger waits.
    WoundWait,
}

/// Strict 2PL with timestamp-based deadlock prevention.
#[derive(Debug)]
pub struct PreventionTwoPhaseLocking {
    policy: PreventionPolicy,
    locks: LockManager,
    /// Begin sequence = age (smaller = older).
    age: IdHashMap<TxnId, u64>,
    /// Pending wound targets discovered at block time, oldest requester
    /// first; drained through `check_deadlock`.
    wounded: Vec<TxnId>,
}

impl PreventionTwoPhaseLocking {
    /// Fresh state under `policy`.
    pub fn new(policy: PreventionPolicy) -> Self {
        PreventionTwoPhaseLocking {
            policy,
            locks: LockManager::new(),
            age: IdHashMap::default(),
            wounded: Vec::new(),
        }
    }

    fn age_of(&self, txn: TxnId) -> u64 {
        self.age.get(&txn).copied().unwrap_or(u64::MAX)
    }

    /// Every transaction a freshly blocked request of `txn` on `item`
    /// waits behind: incompatible current holders *plus anything queued
    /// ahead of it* (FIFO queues make it wait for those too — ignoring
    /// them would let queue promotion re-introduce young-waits-for-old
    /// edges and, with them, deadlocks).
    fn waits_behind(&self, txn: TxnId, item: DataItemId, mode: LockMode) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .locks
            .holders_of(item)
            .into_iter()
            .filter(|&(h, hmode)| {
                h != txn && (!hmode.compatible(mode) || mode == LockMode::Exclusive)
            })
            .map(|(h, _)| h)
            .collect();
        for ahead in self.locks.queued_ahead_of(txn, item) {
            if ahead != txn && !out.contains(&ahead) {
                out.push(ahead);
            }
        }
        out
    }

    fn request(&mut self, txn: TxnId, item: DataItemId, mode: LockMode) -> Decision {
        match self.locks.acquire(txn, item, mode) {
            Acquire::Granted => Decision::Grant,
            Acquire::Queued => {
                let my_age = self.age_of(txn);
                let holders = self.waits_behind(txn, item, mode);
                match self.policy {
                    PreventionPolicy::WaitDie => {
                        // Younger than any conflicting holder => die. (The
                        // queued request is cleaned up by on_end.)
                        if holders.iter().any(|&h| self.age_of(h) < my_age) {
                            return Decision::Abort(AbortReason::Deadlock);
                        }
                        Decision::Block
                    }
                    PreventionPolicy::WoundWait => {
                        // Older than a holder => wound every younger holder.
                        let younger: Vec<TxnId> = holders
                            .into_iter()
                            .filter(|&h| self.age_of(h) > my_age)
                            .collect();
                        self.wounded.extend(younger);
                        Decision::Block
                    }
                }
            }
        }
    }
}

impl CcProtocol for PreventionTwoPhaseLocking {
    fn name(&self) -> &'static str {
        match self.policy {
            PreventionPolicy::WaitDie => "2PL-WD",
            PreventionPolicy::WoundWait => "2PL-WW",
        }
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
        Decision::Grant
    }

    fn on_end(&mut self, txn: TxnId, _committed: bool) -> Vec<TxnId> {
        self.age.remove(&txn);
        self.wounded.retain(|&w| w != txn);
        self.locks
            .release_all(txn)
            .into_iter()
            .map(|g| g.txn)
            .collect()
    }

    fn check_deadlock(&mut self, _requester: TxnId) -> DeadlockOutcome {
        // Wound-wait drains its victims here; wait-die never has any.
        match self.wounded.pop() {
            Some(victim) if self.age.contains_key(&victim) => DeadlockOutcome::Victim(victim),
            Some(_) => self.check_deadlock(_requester), // already gone
            None => DeadlockOutcome::None,
        }
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

    fn begun(policy: PreventionPolicy, n: u64) -> PreventionTwoPhaseLocking {
        let mut p = PreventionTwoPhaseLocking::new(policy);
        for i in 1..=n {
            p.on_begin(t(i), i); // t(1) oldest
        }
        p
    }

    #[test]
    fn wait_die_older_waits() {
        let mut p = begun(PreventionPolicy::WaitDie, 2);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
        // t1 is older than holder t2: waits.
        assert_eq!(p.on_write(t(1), x(1)), Decision::Block);
        assert_eq!(p.check_deadlock(t(1)), DeadlockOutcome::None);
        assert_eq!(p.on_end(t(2), true), vec![t(1)]);
    }

    #[test]
    fn wait_die_younger_dies() {
        let mut p = begun(PreventionPolicy::WaitDie, 2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        // t2 is younger than holder t1: dies.
        assert_eq!(
            p.on_write(t(2), x(1)),
            Decision::Abort(AbortReason::Deadlock)
        );
    }

    #[test]
    fn wound_wait_younger_waits() {
        let mut p = begun(PreventionPolicy::WoundWait, 2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Block);
        assert_eq!(p.check_deadlock(t(2)), DeadlockOutcome::None);
    }

    #[test]
    fn wound_wait_older_wounds() {
        let mut p = begun(PreventionPolicy::WoundWait, 2);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
        // t1 older: blocks but wounds the younger holder.
        assert_eq!(p.on_write(t(1), x(1)), Decision::Block);
        assert_eq!(p.check_deadlock(t(1)), DeadlockOutcome::Victim(t(2)));
        // Engine aborts t2 -> release grants t1.
        assert_eq!(p.on_end(t(2), false), vec![t(1)]);
        assert_eq!(p.check_deadlock(t(1)), DeadlockOutcome::None);
    }

    #[test]
    fn wound_targets_only_younger_holders() {
        let mut p = begun(PreventionPolicy::WoundWait, 3);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(3), x(1)), Decision::Grant);
        // t2 wants X: holders are t1 (older: wait) and t3 (younger: wound).
        assert_eq!(p.on_write(t(2), x(1)), Decision::Block);
        assert_eq!(p.check_deadlock(t(2)), DeadlockOutcome::Victim(t(3)));
        p.on_end(t(3), false);
        assert_eq!(p.check_deadlock(t(2)), DeadlockOutcome::None);
    }

    #[test]
    fn shared_locks_coexist_under_both() {
        for policy in [PreventionPolicy::WaitDie, PreventionPolicy::WoundWait] {
            let mut p = begun(policy, 2);
            assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
            assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
        }
    }
}
