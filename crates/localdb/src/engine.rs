//! The local DBMS engine.
//!
//! [`LocalDbms`] combines a [`Storage`], a [`CcProtocol`] and a
//! [`History`] recorder into one site of the multidatabase. It owns all
//! data movement — immediate writes with undo logs, or deferred write
//! buffers applied at commit, per the protocol's
//! write-style hint ([`WriteStyle`]) — so protocols remain pure
//! decision logic.
//!
//! ## Submission contract
//!
//! Exactly one operation per transaction may be outstanding. `submit_*`
//! returns:
//!
//! - `Ok(SubmitResult::Done(outcome))` — executed synchronously;
//! - `Ok(SubmitResult::Blocked)` — queued; the result arrives later as a
//!   [`Completion`] from [`LocalDbms::take_completions`] (always via a
//!   completion, even if the operation becomes runnable within the same
//!   call, e.g. after a deadlock victim is aborted);
//! - `Err(MdbsError::Aborted{..})` — the protocol aborted the *requesting*
//!   transaction.
//!
//! A transaction aborted while it has no outstanding operation (a deadlock
//! victim between operations) is discovered on its next submission, which
//! returns `Err(Aborted)` — mirroring how a real DBMS reports
//! victimization on the next call.

use crate::protocol::{CcProtocol, DeadlockOutcome, Decision, LocalProtocolKind, WriteStyle};
use crate::serfn::SerializationEvent;
use crate::storage::{Storage, Value};
use mdbs_common::error::{AbortReason, MdbsError, Result};
use mdbs_common::ids::{DataItemId, SiteId, TxnId};
use mdbs_common::instrument::Registry;
use mdbs_common::ops::DataOp;
use mdbs_schedule::History;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Result of an executed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// A read returning the observed value.
    Read(Value),
    /// A write completed (immediate) or buffered (deferred).
    Write,
    /// The transaction committed.
    Committed,
}

/// Synchronous result of a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitResult {
    /// Executed now.
    Done(OpOutcome),
    /// Queued; result will arrive as a [`Completion`].
    Blocked,
}

/// Deferred result of a previously blocked operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The transaction whose blocked operation resolved.
    pub txn: TxnId,
    /// Its outcome: executed, or the transaction was aborted while waiting.
    pub outcome: std::result::Result<OpOutcome, MdbsError>,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (any reason).
    pub aborts: u64,
    /// Aborts of *global subtransactions* specifically (expensive in an
    /// MDBS — Section 3 of the paper).
    pub global_aborts: u64,
    /// Operations granted synchronously.
    pub granted: u64,
    /// Operations that blocked at least once.
    pub blocked: u64,
    /// Deadlock victims chosen at this site.
    pub deadlock_victims: u64,
}

impl EngineStats {
    /// Export these counters into a metrics [`Registry`], keyed by site,
    /// e.g. `site.0.commits`. Exporting several sites into one registry
    /// also accumulates the `site.total.*` roll-up counters.
    pub fn export_metrics(&self, site: SiteId, registry: &mut Registry) {
        for (name, value) in [
            ("begins", self.begins),
            ("commits", self.commits),
            ("aborts", self.aborts),
            ("global_aborts", self.global_aborts),
            ("granted", self.granted),
            ("blocked", self.blocked),
            ("deadlock_victims", self.deadlock_victims),
        ] {
            registry.inc(&format!("site.{}.{name}", site.0), value);
            registry.inc(&format!("site.total.{name}"), value);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendingOp {
    Read(DataItemId),
    Write(DataItemId, Value),
    Commit,
}

#[derive(Clone, Debug)]
enum TxnStatus {
    Active,
    Blocked(PendingOp),
}

#[derive(Clone, Debug)]
struct TxnState {
    status: TxnStatus,
    undo: Vec<(DataItemId, Value)>,
    buffer: BTreeMap<DataItemId, Value>,
    /// Voted yes in two-phase commit: only a global decision may abort it.
    prepared: bool,
}

/// One site of the multidatabase: storage + protocol + history recorder.
///
/// ```
/// use mdbs_localdb::engine::{LocalDbms, OpOutcome, SubmitResult};
/// use mdbs_localdb::protocol::LocalProtocolKind;
/// use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId, TxnId};
///
/// let mut site = LocalDbms::new(SiteId(0), LocalProtocolKind::TwoPhaseLocking);
/// let txn: TxnId = GlobalTxnId(1).into();
/// site.begin(txn)?;
/// site.submit_write(txn, DataItemId(1), 42)?;
/// assert_eq!(
///     site.submit_read(txn, DataItemId(1))?,
///     SubmitResult::Done(OpOutcome::Read(42)),
/// );
/// site.submit_commit(txn)?;
/// assert!(mdbs_schedule::is_conflict_serializable(site.history()));
/// # Ok::<(), mdbs_common::MdbsError>(())
/// ```
pub struct LocalDbms {
    site: SiteId,
    kind: LocalProtocolKind,
    protocol: Box<dyn CcProtocol + Send>,
    storage: Storage,
    history: History,
    txns: BTreeMap<TxnId, TxnState>,
    /// Finished transactions: `None` = committed, `Some(reason)` = aborted.
    finished: BTreeMap<TxnId, Option<AbortReason>>,
    next_seq: u64,
    completions: Vec<Completion>,
    stats: EngineStats,
}

impl LocalDbms {
    /// Create a site running the given protocol over empty storage.
    pub fn new(site: SiteId, kind: LocalProtocolKind) -> Self {
        Self::with_storage(site, kind, Storage::new())
    }

    /// Create a site with pre-populated storage.
    pub fn with_storage(site: SiteId, kind: LocalProtocolKind, storage: Storage) -> Self {
        let protocol: Box<dyn CcProtocol + Send> = match kind {
            LocalProtocolKind::TwoPhaseLocking => Box::new(crate::twopl::TwoPhaseLocking::new()),
            LocalProtocolKind::TwoPhaseLockingWaitDie => {
                Box::new(crate::twopl_variants::PreventionTwoPhaseLocking::new(
                    crate::twopl_variants::PreventionPolicy::WaitDie,
                ))
            }
            LocalProtocolKind::TwoPhaseLockingWoundWait => {
                Box::new(crate::twopl_variants::PreventionTwoPhaseLocking::new(
                    crate::twopl_variants::PreventionPolicy::WoundWait,
                ))
            }
            LocalProtocolKind::TimestampOrdering => Box::new(crate::to::TimestampOrdering::new()),
            LocalProtocolKind::SerializationGraphTesting => {
                Box::new(crate::sgt::SerializationGraphTesting::new())
            }
            LocalProtocolKind::Optimistic => Box::new(crate::occ::Optimistic::new()),
        };
        LocalDbms {
            site,
            kind,
            protocol,
            storage,
            history: History::new(),
            txns: BTreeMap::new(),
            finished: BTreeMap::new(),
            next_seq: 0,
            completions: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The protocol this site runs.
    pub fn protocol_kind(&self) -> LocalProtocolKind {
        self.kind
    }

    /// The serialization event for subtransactions at this site.
    pub fn serialization_event(&self) -> SerializationEvent {
        SerializationEvent::for_protocol(self.kind)
    }

    /// The recorded local schedule.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Give up the recorded local schedule, leaving an empty one: for a
    /// site that is shutting down and hands its history to an auditor.
    pub fn take_history(&mut self) -> History {
        std::mem::take(&mut self.history)
    }

    /// Current storage contents.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Export engine counters into a metrics [`Registry`], keyed by site
    /// (see [`EngineStats::export_metrics`]).
    pub fn export_metrics(&self, registry: &mut Registry) {
        self.stats.export_metrics(self.site, registry);
        registry.max_gauge(
            &format!("site.{}.active_txns", self.site.0),
            self.txns.len() as i64,
        );
    }

    /// Number of live (begun, unfinished) transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// True iff the transaction has a blocked operation.
    pub fn is_blocked(&self, txn: TxnId) -> bool {
        matches!(
            self.txns.get(&txn),
            Some(TxnState {
                status: TxnStatus::Blocked(_),
                ..
            })
        )
    }

    /// Drain completions of previously blocked operations.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Begin a transaction.
    pub fn begin(&mut self, txn: TxnId) -> Result<()> {
        if self.txns.contains_key(&txn) || self.finished.contains_key(&txn) {
            return Err(MdbsError::DuplicateBegin(txn));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.protocol.on_begin(txn, seq);
        self.history.push(DataOp::begin(txn));
        self.txns.insert(
            txn,
            TxnState {
                status: TxnStatus::Active,
                undo: Vec::new(),
                buffer: BTreeMap::new(),
                prepared: false,
            },
        );
        self.stats.begins += 1;
        Ok(())
    }

    /// Submit a read.
    pub fn submit_read(&mut self, txn: TxnId, item: DataItemId) -> Result<SubmitResult> {
        self.submit(txn, PendingOp::Read(item))
    }

    /// Submit a write of `value`.
    pub fn submit_write(
        &mut self,
        txn: TxnId,
        item: DataItemId,
        value: Value,
    ) -> Result<SubmitResult> {
        self.submit(txn, PendingOp::Write(item, value))
    }

    /// Submit a commit.
    pub fn submit_commit(&mut self, txn: TxnId) -> Result<SubmitResult> {
        self.submit(txn, PendingOp::Commit)
    }

    /// Two-phase-commit vote: ask the protocol whether the transaction can
    /// commit. Never blocks. On a no-vote the transaction is aborted (with
    /// the protocol's reason) and `Err(Aborted)` returned; after a yes-vote
    /// the subsequent `submit_commit` is guaranteed to succeed.
    #[expect(
        clippy::expect_used,
        reason = "check_live above guarantees the entry exists."
    )]
    pub fn submit_prepare(&mut self, txn: TxnId) -> Result<()> {
        self.check_live(txn)?;
        if self.is_blocked(txn) {
            return Err(MdbsError::Invariant(format!(
                "{txn} prepared while an operation is outstanding"
            )));
        }
        match self.protocol.on_prepare(txn) {
            Decision::Grant => {
                self.txns.get_mut(&txn).expect("live").prepared = true;
                Ok(())
            }
            Decision::Block => Err(MdbsError::Invariant(format!(
                "{txn}: prepare must not block"
            ))),
            Decision::Abort(reason) => {
                self.abort_txn(txn, reason, false);
                Err(MdbsError::Aborted { txn, reason })
            }
        }
    }

    /// Abort a transaction on behalf of its client (or a timeout). Refuses
    /// for a *prepared* transaction — after voting yes in two-phase commit
    /// a participant may only abort on the coordinator's decision
    /// ([`LocalDbms::resolve_abort`]).
    pub fn request_abort(&mut self, txn: TxnId) -> Result<()> {
        self.check_live(txn)?;
        if self.txns.get(&txn).is_some_and(|t| t.prepared) {
            return Err(MdbsError::Invariant(format!(
                "{txn} is prepared; only the global decision may abort it"
            )));
        }
        self.abort_txn(txn, AbortReason::UserRequested, true);
        Ok(())
    }

    /// Abort on the coordinator's global decision — allowed even for a
    /// prepared transaction (its vote is withdrawn).
    pub fn resolve_abort(&mut self, txn: TxnId) -> Result<()> {
        self.check_live(txn)?;
        self.abort_txn(txn, AbortReason::UserRequested, true);
        Ok(())
    }

    /// Crash the DBMS: volatile state is lost — every active transaction
    /// aborts — while durable state survives: committed storage, the
    /// recorded history, and **prepared** transactions (their votes are on
    /// stable storage; they stay in-doubt awaiting the coordinator, per
    /// the 2PC participant contract). Returns the number of transactions
    /// the crash killed; their blocked operations complete with
    /// `Err(Aborted)` like any other abort.
    pub fn crash(&mut self) -> usize {
        // Kill blocked victims first: aborting a lock holder first would
        // briefly wake (grant) a waiter that the same crash is about to
        // kill — a real crash is instantaneous.
        let mut victims: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, st)| !st.prepared)
            .map(|(&t, _)| t)
            .collect();
        victims.sort_by_key(|&t| !self.is_blocked(t));
        let n = victims.len();
        for txn in victims {
            // A victim may already have been aborted by a cascade from an
            // earlier victim in this loop.
            if self.txns.contains_key(&txn) {
                self.abort_txn(txn, AbortReason::SiteFailure, true);
            }
        }
        n
    }

    fn check_live(&self, txn: TxnId) -> Result<()> {
        if self.txns.contains_key(&txn) {
            return Ok(());
        }
        match self.finished.get(&txn) {
            Some(Some(reason)) => Err(MdbsError::Aborted {
                txn,
                reason: *reason,
            }),
            Some(None) => Err(MdbsError::TxnFinished(txn)),
            None => Err(MdbsError::UnknownTxn(txn)),
        }
    }

    fn submit(&mut self, txn: TxnId, op: PendingOp) -> Result<SubmitResult> {
        self.check_live(txn)?;
        if self.is_blocked(txn) {
            return Err(MdbsError::Invariant(format!(
                "{txn} submitted an operation while one is outstanding"
            )));
        }
        match self.decide(txn, op) {
            Decision::Grant => {
                self.stats.granted += 1;
                Ok(SubmitResult::Done(self.execute(txn, op)))
            }
            Decision::Block => {
                self.stats.blocked += 1;
                self.set_blocked(txn, op);
                if let Some(reason) = self.resolve_deadlocks(txn, false) {
                    return Err(MdbsError::Aborted { txn, reason });
                }
                Ok(SubmitResult::Blocked)
            }
            Decision::Abort(reason) => {
                self.abort_txn(txn, reason, false);
                Err(MdbsError::Aborted { txn, reason })
            }
        }
    }

    fn decide(&mut self, txn: TxnId, op: PendingOp) -> Decision {
        match op {
            PendingOp::Read(item) => self.protocol.on_read(txn, item),
            PendingOp::Write(item, _) => self.protocol.on_write(txn, item),
            PendingOp::Commit => self.protocol.on_commit(txn),
        }
    }

    /// Execute a granted operation. Must only be called after a `Grant`.
    fn execute(&mut self, txn: TxnId, op: PendingOp) -> OpOutcome {
        match op {
            PendingOp::Read(item) => {
                #[expect(
                    clippy::expect_used,
                    reason = "execute() is only reached for transactions the protocol just granted, which are live."
                )]
                let state = self.txns.get(&txn).expect("live txn");
                let value = match state.buffer.get(&item) {
                    Some(&v) => v,
                    None => self.storage.read(item),
                };
                self.history.push(DataOp::read(txn, item));
                OpOutcome::Read(value)
            }
            PendingOp::Write(item, value) => {
                match self.protocol.write_style() {
                    WriteStyle::Immediate => {
                        let prev = self.storage.write(item, value);
                        #[expect(
                            clippy::expect_used,
                            reason = "granted op implies a live transaction."
                        )]
                        let state = self.txns.get_mut(&txn).expect("live txn");
                        state.undo.push((item, prev));
                        self.history.push(DataOp::write(txn, item));
                    }
                    WriteStyle::Deferred => {
                        #[expect(
                            clippy::expect_used,
                            reason = "granted op implies a live transaction."
                        )]
                        let state = self.txns.get_mut(&txn).expect("live txn");
                        state.buffer.insert(item, value);
                        // Recorded in the history at commit, when applied.
                    }
                }
                OpOutcome::Write
            }
            PendingOp::Commit => {
                #[expect(
                    clippy::expect_used,
                    reason = "granted commit implies a live transaction."
                )]
                let state = self.txns.remove(&txn).expect("live txn");
                // Apply deferred writes atomically (serial write phase).
                for (item, value) in state.buffer {
                    self.storage.write(item, value);
                    self.history.push(DataOp::write(txn, item));
                }
                self.history.push(DataOp::commit(txn));
                self.finished.insert(txn, None);
                self.stats.commits += 1;
                let woken = self.protocol.on_end(txn, true);
                self.process_wakes(woken);
                OpOutcome::Committed
            }
        }
    }

    fn set_blocked(&mut self, txn: TxnId, op: PendingOp) {
        #[expect(
            clippy::expect_used,
            reason = "callers block a transaction they just looked up via check_live/decide."
        )]
        let state = self.txns.get_mut(&txn).expect("live txn");
        state.status = TxnStatus::Blocked(op);
    }

    /// Abort `txn`: undo its writes, record the abort, release protocol
    /// resources and wake others. If it had a blocked operation and
    /// `notify`, a failure [`Completion`] is emitted.
    fn abort_txn(&mut self, txn: TxnId, reason: AbortReason, notify: bool) {
        #[expect(
            clippy::expect_used,
            reason = "every abort path checks liveness before calling abort_txn."
        )]
        let state = self.txns.remove(&txn).expect("abort of live txn");
        if let TxnStatus::Blocked(_) = state.status {
            if notify {
                self.completions.push(Completion {
                    txn,
                    outcome: Err(MdbsError::Aborted { txn, reason }),
                });
            }
        }
        // Undo immediate writes in reverse order.
        for (item, prev) in state.undo.into_iter().rev() {
            self.storage.write(item, prev);
        }
        self.history.push(DataOp::abort(txn));
        self.finished.insert(txn, Some(reason));
        self.stats.aborts += 1;
        if txn.is_global() {
            self.stats.global_aborts += 1;
        }
        let woken = self.protocol.on_end(txn, false);
        self.process_wakes(woken);
    }

    /// Retry the pending operations of woken transactions until quiescent.
    fn process_wakes(&mut self, initial: Vec<TxnId>) {
        let mut queue: VecDeque<TxnId> = initial.into();
        while let Some(txn) = queue.pop_front() {
            let op = match self.txns.get_mut(&txn) {
                Some(state) => match state.status {
                    TxnStatus::Blocked(op) => {
                        state.status = TxnStatus::Active;
                        op
                    }
                    TxnStatus::Active => continue, // already resolved
                },
                None => continue, // aborted
            };
            match self.decide(txn, op) {
                Decision::Grant => {
                    let outcome = self.execute(txn, op);
                    self.completions.push(Completion {
                        txn,
                        outcome: Ok(outcome),
                    });
                }
                Decision::Block => {
                    self.set_blocked(txn, op);
                    // A retry can participate in a fresh deadlock.
                    self.resolve_deadlocks(txn, true);
                }
                Decision::Abort(reason) => {
                    // Mark blocked again so abort_txn emits the completion.
                    self.set_blocked(txn, op);
                    self.abort_txn(txn, reason, true);
                }
            }
        }
    }

    /// Break every deadlock involving the blocked `requester`. Returns
    /// `Some(reason)` iff the requester itself was chosen as victim (in
    /// which case it has been aborted; a completion was emitted iff
    /// `notify_requester`).
    fn resolve_deadlocks(
        &mut self,
        requester: TxnId,
        notify_requester: bool,
    ) -> Option<AbortReason> {
        loop {
            if !self.is_blocked(requester) {
                // Resolved by a wake (or the requester was aborted as a
                // victim of a nested resolution).
                return match self.finished.get(&requester) {
                    Some(Some(reason)) => Some(*reason),
                    _ => None,
                };
            }
            match self.protocol.check_deadlock(requester) {
                DeadlockOutcome::None => return None,
                DeadlockOutcome::Victim(v) if v == requester => {
                    self.stats.deadlock_victims += 1;
                    self.abort_txn(requester, AbortReason::Deadlock, notify_requester);
                    return Some(AbortReason::Deadlock);
                }
                DeadlockOutcome::Victim(v) => {
                    self.stats.deadlock_victims += 1;
                    self.abort_txn(v, AbortReason::Deadlock, true);
                }
            }
        }
    }
}

impl std::fmt::Debug for LocalDbms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalDbms")
            .field("site", &self.site)
            .field("protocol", &self.protocol.name())
            .field("active", &self.txns.len())
            .field("history_len", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::{GlobalTxnId, LocalTxnId};
    use mdbs_schedule::is_conflict_serializable;

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    fn db(kind: LocalProtocolKind) -> LocalDbms {
        LocalDbms::new(SiteId(0), kind)
    }

    #[test]
    fn twopl_read_your_write() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        assert_eq!(
            d.submit_write(t(1), x(1), 42).unwrap(),
            SubmitResult::Done(OpOutcome::Write)
        );
        assert_eq!(
            d.submit_read(t(1), x(1)).unwrap(),
            SubmitResult::Done(OpOutcome::Read(42))
        );
        assert_eq!(
            d.submit_commit(t(1)).unwrap(),
            SubmitResult::Done(OpOutcome::Committed)
        );
        assert_eq!(d.storage().read(x(1)), 42);
    }

    #[test]
    fn occ_read_your_buffered_write() {
        let mut d = db(LocalProtocolKind::Optimistic);
        d.begin(t(1)).unwrap();
        d.submit_write(t(1), x(1), 7).unwrap();
        // Buffered: storage untouched, own read sees it.
        assert_eq!(d.storage().read(x(1)), 0);
        assert_eq!(
            d.submit_read(t(1), x(1)).unwrap(),
            SubmitResult::Done(OpOutcome::Read(7))
        );
        d.submit_commit(t(1)).unwrap();
        assert_eq!(d.storage().read(x(1)), 7);
    }

    #[test]
    fn blocked_op_completes_after_commit() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_write(t(1), x(1), 5).unwrap();
        assert_eq!(d.submit_read(t(2), x(1)).unwrap(), SubmitResult::Blocked);
        assert!(d.is_blocked(t(2)));
        assert!(d.take_completions().is_empty());
        d.submit_commit(t(1)).unwrap();
        let comps = d.take_completions();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].txn, t(2));
        assert_eq!(comps[0].outcome, Ok(OpOutcome::Read(5)));
    }

    #[test]
    fn abort_undoes_immediate_writes() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.submit_write(t(1), x(1), 99).unwrap();
        assert_eq!(d.storage().read(x(1)), 99);
        d.request_abort(t(1)).unwrap();
        assert_eq!(d.storage().read(x(1)), 0);
        // Next op reports the abort.
        assert!(matches!(
            d.submit_read(t(1), x(1)),
            Err(MdbsError::Aborted {
                reason: AbortReason::UserRequested,
                ..
            })
        ));
    }

    #[test]
    fn abort_unblocks_waiters() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_write(t(1), x(7), 1).unwrap();
        assert_eq!(d.submit_read(t(2), x(7)).unwrap(), SubmitResult::Blocked);
        assert!(d.take_completions().is_empty());
        d.request_abort(t(1)).unwrap();
        // The reader gets the pre-image the abort restored.
        assert_eq!(
            d.take_completions(),
            vec![Completion {
                txn: t(2),
                outcome: Ok(OpOutcome::Read(0)),
            }]
        );
        assert!(!d.is_blocked(t(2)));
    }

    #[test]
    fn deadlock_broken_and_survivor_completes() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_write(t(1), x(1), 1).unwrap();
        d.submit_write(t(2), x(2), 2).unwrap();
        assert_eq!(
            d.submit_write(t(1), x(2), 3).unwrap(),
            SubmitResult::Blocked
        );
        // t2 closing the cycle becomes the victim (youngest).
        let r = d.submit_write(t(2), x(1), 4);
        assert!(matches!(
            r,
            Err(MdbsError::Aborted {
                reason: AbortReason::Deadlock,
                ..
            })
        ));
        // t1's blocked write was granted by the victim's release.
        let comps = d.take_completions();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].txn, t(1));
        assert_eq!(comps[0].outcome, Ok(OpOutcome::Write));
        assert_eq!(
            d.submit_commit(t(1)).unwrap(),
            SubmitResult::Done(OpOutcome::Committed)
        );
        // t2's write of x2 was undone.
        assert_eq!(d.storage().read(x(2)), 3);
    }

    #[test]
    fn to_rejection_surfaces_as_abort() {
        let mut d = db(LocalProtocolKind::TimestampOrdering);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_read(t(2), x(1)).unwrap();
        let r = d.submit_write(t(1), x(1), 5);
        assert!(matches!(
            r,
            Err(MdbsError::Aborted {
                reason: AbortReason::TimestampOrder,
                ..
            })
        ));
    }

    #[test]
    fn occ_validation_failure_aborts_and_discards_buffer() {
        let mut d = db(LocalProtocolKind::Optimistic);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_read(t(1), x(1)).unwrap();
        d.submit_write(t(1), x(2), 1).unwrap();
        d.submit_write(t(2), x(1), 9).unwrap();
        d.submit_commit(t(2)).unwrap();
        let r = d.submit_commit(t(1));
        assert!(matches!(
            r,
            Err(MdbsError::Aborted {
                reason: AbortReason::ValidationFailure,
                ..
            })
        ));
        // t1's buffered write never reached storage.
        assert_eq!(d.storage().read(x(2)), 0);
        assert_eq!(d.storage().read(x(1)), 9);
    }

    #[test]
    fn histories_are_well_formed_and_serializable() {
        for kind in LocalProtocolKind::ALL {
            let mut d = db(kind);
            d.begin(t(1)).unwrap();
            d.begin(t(2)).unwrap();
            let _ = d.submit_write(t(1), x(1), 1);
            let _ = d.submit_read(t(2), x(2));
            let _ = d.submit_commit(t(1));
            let _ = d.submit_commit(t(2));
            // Drain any blocked completions.
            let _ = d.take_completions();
            assert!(d.history().is_well_formed(), "{kind}: {:?}", d.history());
            assert!(is_conflict_serializable(d.history()), "{kind}");
        }
    }

    #[test]
    fn duplicate_begin_rejected() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        assert!(matches!(d.begin(t(1)), Err(MdbsError::DuplicateBegin(_))));
        d.submit_commit(t(1)).unwrap();
        assert!(matches!(d.begin(t(1)), Err(MdbsError::DuplicateBegin(_))));
    }

    #[test]
    fn op_while_blocked_is_invariant_error() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_write(t(1), x(1), 1).unwrap();
        assert_eq!(d.submit_read(t(2), x(1)).unwrap(), SubmitResult::Blocked);
        assert!(matches!(
            d.submit_read(t(2), x(1)),
            Err(MdbsError::Invariant(_))
        ));
    }

    #[test]
    fn unknown_txn_errors() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        assert!(matches!(
            d.submit_read(t(9), x(1)),
            Err(MdbsError::UnknownTxn(_))
        ));
    }

    #[test]
    fn stats_track_outcomes() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_write(t(1), x(1), 1).unwrap();
        d.submit_read(t(2), x(1)).unwrap(); // blocked
        d.submit_commit(t(1)).unwrap();
        let _ = d.take_completions();
        d.submit_commit(t(2)).unwrap();
        let s = d.stats();
        assert_eq!(s.begins, 2);
        assert_eq!(s.commits, 2);
        assert_eq!(s.blocked, 1);
        assert_eq!(s.aborts, 0);
    }

    #[test]
    fn crash_kills_active_spares_prepared_and_storage() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        // Committed data survives.
        d.begin(t(1)).unwrap();
        d.submit_write(t(1), x(1), 11).unwrap();
        d.submit_commit(t(1)).unwrap();
        // An active transaction with a dirty write dies and is undone.
        d.begin(t(2)).unwrap();
        d.submit_write(t(2), x(2), 22).unwrap();
        // A prepared transaction survives in-doubt.
        d.begin(t(3)).unwrap();
        d.submit_write(t(3), x(3), 33).unwrap();
        d.submit_prepare(t(3)).unwrap();
        let killed = d.crash();
        assert_eq!(killed, 1, "only the unprepared active txn dies");
        assert_eq!(d.storage().read(x(1)), 11, "committed data durable");
        assert_eq!(d.storage().read(x(2)), 0, "dirty write undone");
        // The prepared transaction can still commit (coordinator decision).
        assert_eq!(
            d.submit_commit(t(3)).unwrap(),
            SubmitResult::Done(OpOutcome::Committed)
        );
        assert_eq!(d.storage().read(x(3)), 33);
        // The crashed transaction reports its fate.
        assert!(matches!(
            d.submit_read(t(2), x(2)),
            Err(MdbsError::Aborted {
                reason: AbortReason::SiteFailure,
                ..
            })
        ));
        assert!(d.history().is_well_formed());
        assert!(is_conflict_serializable(d.history()));
    }

    #[test]
    fn crash_completes_blocked_ops_with_failure() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_write(t(1), x(1), 1).unwrap();
        assert_eq!(d.submit_read(t(2), x(1)).unwrap(), SubmitResult::Blocked);
        d.crash();
        let comps = d.take_completions();
        assert!(comps.iter().any(|c| c.txn == t(2) && c.outcome.is_err()));
    }

    #[test]
    fn prepared_txn_refuses_unilateral_abort() {
        let mut d = db(LocalProtocolKind::Optimistic);
        d.begin(t(1)).unwrap();
        d.submit_write(t(1), x(1), 5).unwrap();
        d.submit_prepare(t(1)).unwrap();
        assert!(matches!(
            d.request_abort(t(1)),
            Err(MdbsError::Invariant(_))
        ));
        // The coordinator's decision still goes through.
        d.resolve_abort(t(1)).unwrap();
        assert_eq!(d.storage().read(x(1)), 0);
    }

    #[test]
    fn occ_prepare_validation_failure_aborts() {
        let mut d = db(LocalProtocolKind::Optimistic);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_read(t(1), x(1)).unwrap();
        d.submit_write(t(2), x(1), 9).unwrap();
        d.submit_commit(t(2)).unwrap();
        assert!(matches!(
            d.submit_prepare(t(1)),
            Err(MdbsError::Aborted {
                reason: AbortReason::ValidationFailure,
                ..
            })
        ));
    }

    #[test]
    fn occ_reads_wait_on_in_doubt_data() {
        let mut d = db(LocalProtocolKind::Optimistic);
        d.begin(t(1)).unwrap();
        d.submit_write(t(1), x(1), 7).unwrap();
        d.submit_prepare(t(1)).unwrap();
        // Another transaction reading the in-doubt item blocks...
        d.begin(t(2)).unwrap();
        assert_eq!(d.submit_read(t(2), x(1)).unwrap(), SubmitResult::Blocked);
        // ...until the coordinator commits the prepared writer.
        d.submit_commit(t(1)).unwrap();
        let comps = d.take_completions();
        assert_eq!(comps.len(), 1);
        assert_eq!(
            comps[0].outcome,
            Ok(OpOutcome::Read(7)),
            "sees the applied value"
        );
    }

    #[test]
    fn sgt_cycle_abort_via_engine() {
        let mut d = db(LocalProtocolKind::SerializationGraphTesting);
        d.begin(t(1)).unwrap();
        d.begin(t(2)).unwrap();
        d.submit_read(t(1), x(1)).unwrap();
        d.submit_write(t(2), x(1), 1).unwrap();
        d.submit_read(t(2), x(2)).unwrap();
        let r = d.submit_write(t(1), x(2), 2);
        assert!(matches!(
            r,
            Err(MdbsError::Aborted {
                reason: AbortReason::SerializationCycle,
                ..
            })
        ));
        d.submit_commit(t(2)).unwrap();
        assert!(is_conflict_serializable(d.history()));
    }

    fn l(i: u64) -> TxnId {
        TxnId::Local(LocalTxnId {
            site: SiteId(0),
            seq: i,
        })
    }

    fn deadlock_abort(txn: TxnId) -> Completion {
        Completion {
            txn,
            outcome: Err(MdbsError::Aborted {
                txn,
                reason: AbortReason::Deadlock,
            }),
        }
    }

    /// A victim's abort wakes two waiters; the first retry takes the item
    /// and the requester's own retry blocks behind it, inside
    /// `process_wakes` (`resolve_deadlocks(_, true)` nested in the
    /// requester's own `resolve_deadlocks(_, false)`). The requester must
    /// come out with exactly one outcome.
    #[test]
    fn sgt_requester_retry_blocks_again_inside_victim_abort() {
        let mut d = db(LocalProtocolKind::SerializationGraphTesting);
        for txn in [t(1), t(2), l(9)] {
            d.begin(txn).unwrap();
        }
        d.submit_write(l(9), x(1), 1).unwrap();
        d.submit_write(t(2), x(2), 2).unwrap();
        assert_eq!(
            d.submit_write(t(1), x(1), 3).unwrap(),
            SubmitResult::Blocked
        );
        assert_eq!(d.submit_read(l(9), x(2)).unwrap(), SubmitResult::Blocked);
        // t2 -> l9 -> t2: the local transaction is the victim. Its abort
        // wakes t1 and t2; t1 writes x1 first, so t2 blocks again.
        assert_eq!(
            d.submit_write(t(2), x(1), 4).unwrap(),
            SubmitResult::Blocked
        );
        assert_eq!(d.stats().deadlock_victims, 1);
        assert!(d.is_blocked(t(2)));
        assert_eq!(
            d.take_completions(),
            vec![
                deadlock_abort(l(9)),
                Completion {
                    txn: t(1),
                    outcome: Ok(OpOutcome::Write),
                },
            ]
        );
        d.submit_commit(t(1)).unwrap();
        assert_eq!(
            d.take_completions(),
            vec![Completion {
                txn: t(2),
                outcome: Ok(OpOutcome::Write),
            }]
        );
        d.submit_commit(t(2)).unwrap();
        assert_eq!(d.stats().deadlock_victims, 1);
        assert!(is_conflict_serializable(d.history()));
    }

    /// The requester closes two cycles at once (it waits for two shared
    /// holders, each of which waits for it). Breaking the first leaves the
    /// requester blocked on the second, so `resolve_deadlocks` must find
    /// it on its next pass; the requester gets exactly one outcome.
    #[test]
    fn twopl_requester_on_two_cycles_breaks_both() {
        let mut d = db(LocalProtocolKind::TwoPhaseLocking);
        for txn in [t(3), l(1), l(2)] {
            d.begin(txn).unwrap();
        }
        d.submit_write(t(3), x(3), 1).unwrap();
        d.submit_write(t(3), x(4), 1).unwrap();
        d.submit_read(l(1), x(1)).unwrap();
        d.submit_read(l(2), x(1)).unwrap();
        assert_eq!(d.submit_read(l(1), x(3)).unwrap(), SubmitResult::Blocked);
        assert_eq!(d.submit_read(l(2), x(4)).unwrap(), SubmitResult::Blocked);
        // t3 -> l1 -> t3 and t3 -> l2 -> t3.
        assert_eq!(
            d.submit_write(t(3), x(1), 2).unwrap(),
            SubmitResult::Blocked
        );
        assert_eq!(d.stats().deadlock_victims, 2);
        let comps = d.take_completions();
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&deadlock_abort(l(1))));
        assert!(comps.contains(&deadlock_abort(l(2))));
        assert_eq!(
            comps[2],
            Completion {
                txn: t(3),
                outcome: Ok(OpOutcome::Write),
            }
        );
        d.submit_commit(t(3)).unwrap();
        assert!(d.take_completions().is_empty());
    }
}
