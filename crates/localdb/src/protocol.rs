//! The concurrency control protocol abstraction.
//!
//! A [`CcProtocol`] is the decision core of a local DBMS: for every
//! access/commit request it answers *grant*, *block*, or *abort*, and on
//! transaction termination it reports which blocked transactions become
//! runnable. Protocols are pure bookkeeping — the engine
//! ([`crate::engine::LocalDbms`]) owns data movement, undo logs, write
//! buffers, and history recording, so each protocol stays a faithful,
//! readable transcription of its textbook rule set.

use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, TxnId};
use serde::{Deserialize, Serialize};

/// A protocol's answer to an access or commit request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Execute the operation now.
    Grant,
    /// Enqueue the operation; the protocol will name the transaction in a
    /// later `on_end` result when it becomes runnable.
    Block,
    /// Abort the requesting transaction.
    Abort(AbortReason),
}

/// Which write style the engine must use for a protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStyle {
    /// Writes go straight to storage; the engine keeps an undo log and the
    /// protocol guarantees strictness (no one reads or overwrites dirty
    /// data), so aborts never cascade.
    Immediate,
    /// Writes are buffered per transaction and applied atomically when the
    /// protocol grants commit (optimistic protocols).
    Deferred,
}

/// Outcome of a deadlock check after a `Block` decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeadlockOutcome {
    /// No deadlock; the requester stays blocked.
    None,
    /// Deadlock found; the named transaction must be aborted by the engine.
    /// May be the requester itself.
    Victim(TxnId),
}

/// The local concurrency control protocol interface.
///
/// Invariants the engine guarantees to every protocol:
/// - `on_begin` precedes any other call for a transaction;
/// - at most one operation per transaction is outstanding (begin→grant/
///   block→...); a blocked transaction issues nothing until woken;
/// - `on_end` is called exactly once per transaction (commit or abort),
///   after which its id is never reused.
pub trait CcProtocol {
    /// Short protocol name for diagnostics ("2PL", "TO", ...).
    fn name(&self) -> &'static str;

    /// Write style the engine must apply.
    fn write_style(&self) -> WriteStyle;

    /// A transaction enters the system. `seq` is a site-local monotonically
    /// increasing sequence number (used by TO as the timestamp and by
    /// deadlock victim selection as age).
    fn on_begin(&mut self, txn: TxnId, seq: u64);

    /// Decide a read of `item`.
    fn on_read(&mut self, txn: TxnId, item: DataItemId) -> Decision;

    /// Decide a write of `item`.
    fn on_write(&mut self, txn: TxnId, item: DataItemId) -> Decision;

    /// Decide a commit request (optimistic protocols validate here).
    fn on_commit(&mut self, txn: TxnId) -> Decision;

    /// Decide a prepare request (two-phase commit vote). Must not block.
    /// Default: vote yes — strict lock/timestamp protocols can always
    /// commit once their operations succeeded. Optimistic protocols
    /// validate here instead of at commit, moving their serialization
    /// point to the prepare.
    fn on_prepare(&mut self, txn: TxnId) -> Decision {
        let _ = txn;
        Decision::Grant
    }

    /// The transaction terminated (committed iff `committed`); release its
    /// resources — including any still-queued blocked request it has — and
    /// return transactions whose blocked operation is now runnable, in wake
    /// order. This is also how the engine cancels a blocked waiter: it
    /// aborts the transaction and calls `on_end(txn, false)`.
    fn on_end(&mut self, txn: TxnId, committed: bool) -> Vec<TxnId>;

    /// After a `Block` decision for `requester`, check for deadlock. The
    /// engine calls this after every `Block` and aborts the named victims
    /// until the answer is `None`, so an implementation may take the
    /// waits-for graph to have been acyclic before `requester` blocked (see
    /// [`crate::deadlock`]).
    /// Default: protocols whose waits are intrinsically acyclic report none.
    fn check_deadlock(&mut self, requester: TxnId) -> DeadlockOutcome {
        let _ = requester;
        DeadlockOutcome::None
    }
}

/// Enumeration of the provided protocols, used in system configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocalProtocolKind {
    /// Strict two-phase locking (waits-for deadlock detection).
    TwoPhaseLocking,
    /// Strict 2PL with wait-die deadlock prevention.
    TwoPhaseLockingWaitDie,
    /// Strict 2PL with wound-wait deadlock prevention.
    TwoPhaseLockingWoundWait,
    /// Strict timestamp ordering.
    TimestampOrdering,
    /// Serialization-graph testing.
    SerializationGraphTesting,
    /// Backward-validation optimistic CC.
    Optimistic,
}

impl LocalProtocolKind {
    /// All provided protocols, for exhaustive experiment sweeps.
    pub const ALL: [LocalProtocolKind; 6] = [
        LocalProtocolKind::TwoPhaseLocking,
        LocalProtocolKind::TwoPhaseLockingWaitDie,
        LocalProtocolKind::TwoPhaseLockingWoundWait,
        LocalProtocolKind::TimestampOrdering,
        LocalProtocolKind::SerializationGraphTesting,
        LocalProtocolKind::Optimistic,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            LocalProtocolKind::TwoPhaseLocking => "2PL",
            LocalProtocolKind::TwoPhaseLockingWaitDie => "2PL-WD",
            LocalProtocolKind::TwoPhaseLockingWoundWait => "2PL-WW",
            LocalProtocolKind::TimestampOrdering => "TO",
            LocalProtocolKind::SerializationGraphTesting => "SGT",
            LocalProtocolKind::Optimistic => "OCC",
        }
    }

    /// Whether global subtransactions at a site running this protocol need
    /// a ticket (forced conflict) because no natural serialization function
    /// exists (Section 2.2 of the paper).
    pub fn needs_ticket(self) -> bool {
        matches!(self, LocalProtocolKind::SerializationGraphTesting)
    }
}

impl std::fmt::Display for LocalProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(LocalProtocolKind::TwoPhaseLocking.to_string(), "2PL");
        assert_eq!(
            LocalProtocolKind::TwoPhaseLockingWoundWait.to_string(),
            "2PL-WW"
        );
        assert_eq!(LocalProtocolKind::ALL.len(), 6);
    }

    #[test]
    fn only_sgt_needs_tickets() {
        for k in LocalProtocolKind::ALL {
            assert_eq!(
                k.needs_ticket(),
                k == LocalProtocolKind::SerializationGraphTesting
            );
        }
    }
}
