//! A threaded facade over a local DBMS.
//!
//! The discrete-event simulator is single-threaded by design (determinism).
//! [`ConcurrentSite`] demonstrates the same engines under genuine OS-thread
//! concurrency: many client threads issue operations against one site; a
//! blocked operation parks its thread on a condvar and resumes when the
//! engine completes it (or aborts the transaction).
//!
//! Used by the `heterogeneous_sites` example and the concurrency smoke
//! tests.
#![expect(
    clippy::disallowed_methods,
    reason = "a blocking facade by design: client threads park here, never a scheduler"
)]

use mdbs_common::error::{MdbsError, Result};
use mdbs_common::ids::{DataItemId, SiteId, TxnId};
use mdbs_localdb::engine::{LocalDbms, OpOutcome, SubmitResult};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::storage::Value;
use mdbs_schedule::History;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

struct Shared {
    db: LocalDbms,
    /// Results delivered for blocked operations, keyed by transaction.
    delivered: BTreeMap<TxnId, std::result::Result<OpOutcome, MdbsError>>,
}

/// A thread-safe local DBMS with blocking operation semantics.
///
/// Clone the handle freely; all clones address the same site.
#[derive(Clone)]
pub struct ConcurrentSite {
    shared: Arc<(Mutex<Shared>, Condvar)>,
}

impl ConcurrentSite {
    /// Create a site running `protocol`.
    pub fn new(site: SiteId, protocol: LocalProtocolKind) -> Self {
        ConcurrentSite {
            shared: Arc::new((
                Mutex::new(Shared {
                    db: LocalDbms::new(site, protocol),
                    delivered: BTreeMap::new(),
                }),
                Condvar::new(),
            )),
        }
    }

    /// Begin a transaction.
    pub fn begin(&self, txn: TxnId) -> Result<()> {
        let (lock, _) = &*self.shared;
        lock.lock().db.begin(txn)
    }

    /// Read `item`, blocking the calling thread while the engine delays it.
    pub fn read(&self, txn: TxnId, item: DataItemId) -> Result<Value> {
        match self.run_op(txn, |db| db.submit_read(txn, item))? {
            OpOutcome::Read(v) => Ok(v),
            other => Err(MdbsError::Invariant(format!("read returned {other:?}"))),
        }
    }

    /// Write `item`, blocking while delayed.
    pub fn write(&self, txn: TxnId, item: DataItemId, value: Value) -> Result<()> {
        self.run_op(txn, |db| db.submit_write(txn, item, value))
            .map(|_| ())
    }

    /// Commit, blocking while delayed.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.run_op(txn, |db| db.submit_commit(txn)).map(|_| ())
    }

    /// Abort the transaction.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let (lock, cvar) = &*self.shared;
        let mut guard = lock.lock();
        let r = guard.db.request_abort(txn);
        Self::deliver(&mut guard);
        cvar.notify_all();
        r
    }

    /// Snapshot of the recorded local schedule.
    pub fn history(&self) -> History {
        let (lock, _) = &*self.shared;
        lock.lock().db.history().clone()
    }

    /// Read a committed value outside any transaction (for assertions).
    pub fn peek(&self, item: DataItemId) -> Value {
        let (lock, _) = &*self.shared;
        lock.lock().db.storage().read(item)
    }

    fn run_op(
        &self,
        txn: TxnId,
        submit: impl FnOnce(&mut LocalDbms) -> Result<SubmitResult>,
    ) -> Result<OpOutcome> {
        let (lock, cvar) = &*self.shared;
        let mut guard = lock.lock();
        match submit(&mut guard.db)? {
            SubmitResult::Done(outcome) => {
                Self::deliver(&mut guard);
                cvar.notify_all();
                Ok(outcome)
            }
            SubmitResult::Blocked => {
                // Someone else's engine call will complete us; wait for the
                // delivery addressed to this transaction.
                loop {
                    Self::deliver(&mut guard);
                    if let Some(result) = guard.delivered.remove(&txn) {
                        cvar.notify_all();
                        return result;
                    }
                    cvar.wait(&mut guard);
                }
            }
        }
    }

    /// Move engine completions into the delivery map.
    fn deliver(shared: &mut Shared) {
        for comp in shared.db.take_completions() {
            shared.delivered.insert(comp.txn, comp.outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::GlobalTxnId;
    use std::thread;
    use std::time::Duration;

    fn g(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    #[test]
    fn blocking_read_resumes_after_commit() {
        let site = ConcurrentSite::new(SiteId(0), LocalProtocolKind::TwoPhaseLocking);
        site.begin(g(1)).unwrap();
        site.write(g(1), DataItemId(1), 42).unwrap();

        let reader = {
            let site = site.clone();
            thread::spawn(move || {
                site.begin(g(2)).unwrap();
                site.read(g(2), DataItemId(1)).unwrap()
            })
        };
        // Give the reader time to block on the lock.
        thread::sleep(Duration::from_millis(50));
        site.commit(g(1)).unwrap();
        assert_eq!(reader.join().unwrap(), 42);
    }

    #[test]
    fn many_threads_stay_serializable() {
        let site = ConcurrentSite::new(SiteId(0), LocalProtocolKind::TwoPhaseLocking);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let site = site.clone();
                thread::spawn(move || {
                    let txn = g(i + 1);
                    site.begin(txn).unwrap();
                    let item = DataItemId(1 + (i % 2));
                    if let Ok(v) = site.read(txn, item) {
                        // Blind increments; deadlock victims just stop.
                        if site.write(txn, item, v + 1).is_ok() {
                            let _ = site.commit(txn);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let h = site.history();
        assert!(h.is_well_formed());
        assert!(mdbs_schedule::is_conflict_serializable(&h));
    }

    #[test]
    fn abort_unblocks_waiters() {
        let site = ConcurrentSite::new(SiteId(0), LocalProtocolKind::TwoPhaseLocking);
        site.begin(g(1)).unwrap();
        site.write(g(1), DataItemId(7), 1).unwrap();
        let waiter = {
            let site = site.clone();
            thread::spawn(move || {
                site.begin(g(2)).unwrap();
                site.read(g(2), DataItemId(7))
            })
        };
        thread::sleep(Duration::from_millis(50));
        site.abort(g(1)).unwrap();
        // The waiter gets the pre-image (0) after the abort undoes.
        assert_eq!(waiter.join().unwrap().unwrap(), 0);
    }
}
