//! Workspace error type.

use crate::ids::TxnId;
use std::fmt;

/// Errors surfaced by MDBS components.
///
/// Conservative schemes never abort transactions, so in the happy path of
/// the paper's protocols few of these ever occur; they exist for the
/// non-conservative baselines (which do abort), for local protocol aborts
/// (deadlock victims, timestamp violations of *local* transactions), and for
/// outright API misuse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MdbsError {
    /// A transaction id was used before `begin` / after `commit`/`abort`.
    UnknownTxn(TxnId),
    /// The local protocol aborted the transaction (victim of deadlock
    /// resolution, timestamp-order violation, or failed optimistic
    /// validation).
    Aborted {
        /// The transaction that was aborted.
        txn: TxnId,
        /// Human-readable reason recorded by the protocol.
        reason: AbortReason,
    },
    /// An operation was submitted for a transaction that already finished.
    TxnFinished(TxnId),
    /// Duplicate `begin` for the same transaction id.
    DuplicateBegin(TxnId),
    /// Internal invariant violation; indicates a bug, surfaced rather than
    /// panicking so fuzzing can catch it.
    Invariant(String),
}

/// Why a protocol aborted a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// Chosen as a deadlock victim by the 2PL waits-for detector.
    Deadlock,
    /// Basic TO rejected an operation that arrived too late.
    TimestampOrder,
    /// SGT refused an operation that would close a cycle in the local
    /// serialization graph.
    SerializationCycle,
    /// Optimistic validation failed at commit.
    ValidationFailure,
    /// Explicit user abort.
    UserRequested,
    /// The site's DBMS crashed and lost its volatile state.
    SiteFailure,
    /// The GTM refused the program at admission: it fails
    /// `GlobalTransaction::validate` or names a site the GTM was not
    /// configured with. Nothing ran; a retry would be refused again.
    Refused,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Deadlock => "deadlock victim",
            AbortReason::TimestampOrder => "timestamp-order violation",
            AbortReason::SerializationCycle => "would close serialization-graph cycle",
            AbortReason::ValidationFailure => "optimistic validation failed",
            AbortReason::UserRequested => "user requested",
            AbortReason::SiteFailure => "site failure",
            AbortReason::Refused => "refused at admission",
        };
        f.write_str(s)
    }
}

impl fmt::Display for MdbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdbsError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            MdbsError::Aborted { txn, reason } => write!(f, "transaction {txn} aborted: {reason}"),
            MdbsError::TxnFinished(t) => write!(f, "transaction {t} already finished"),
            MdbsError::DuplicateBegin(t) => write!(f, "duplicate begin for {t}"),
            MdbsError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for MdbsError {}

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, MdbsError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GlobalTxnId;

    #[test]
    fn display_formats() {
        let e = MdbsError::Aborted {
            txn: TxnId::Global(GlobalTxnId(3)),
            reason: AbortReason::Deadlock,
        };
        assert_eq!(e.to_string(), "transaction G3 aborted: deadlock victim");
        assert_eq!(
            MdbsError::UnknownTxn(TxnId::Global(GlobalTxnId(9))).to_string(),
            "unknown transaction G9"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MdbsError::TxnFinished(TxnId::Global(GlobalTxnId(1))));
    }
}
