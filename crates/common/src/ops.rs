//! Operation vocabulary.
//!
//! Two layers of operations exist in the paper's model:
//!
//! 1. **Data operations** ([`DataOp`]) — `begin`, `read`, `write`, `commit`
//!    and `abort` submitted to local DBMSs. Local schedules are total orders
//!    over these.
//! 2. **GTM2 queue operations** ([`QueueOp`]) — the elements of `QUEUE` in
//!    Figure 2/3 of the paper: `init_i`, `ser_k(G_i)`, `ack(ser_k(G_i))`
//!    and `fin_i`. Conservative schemes are specified by `cond`/`act` over
//!    these.

use crate::ids::{DataItemId, GlobalTxnId, SiteId, TxnId};
use std::fmt;

/// The kind of a data operation, without its operands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataOpKind {
    /// Transaction begin (`b_i`). At TO sites this is the serialization
    /// event: the timestamp is assigned here.
    Begin,
    /// Read of a data item (`r_i[x]`).
    Read,
    /// Write of a data item (`w_i[x]`).
    Write,
    /// Commit (`c_i`). At strict-2PL sites this is a valid serialization
    /// event (it lies between the last lock acquisition and the first lock
    /// release).
    Commit,
    /// Abort (`a_i`). Only non-conservative baselines ever abort global
    /// transactions; local protocols may abort local transactions (e.g. on
    /// deadlock).
    Abort,
}

impl DataOpKind {
    /// True for `Read`/`Write` (the operations that take a data item).
    #[inline]
    pub fn is_access(self) -> bool {
        matches!(self, DataOpKind::Read | DataOpKind::Write)
    }
}

/// A data operation as submitted to (and recorded by) a local DBMS.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataOp {
    /// Issuing transaction (global subtransaction or local transaction).
    pub txn: TxnId,
    /// Operation kind.
    pub kind: DataOpKind,
    /// Data item for `Read`/`Write`; `None` for begin/commit/abort.
    pub item: Option<DataItemId>,
}

impl DataOp {
    /// `b_i`.
    pub fn begin(txn: impl Into<TxnId>) -> Self {
        DataOp {
            txn: txn.into(),
            kind: DataOpKind::Begin,
            item: None,
        }
    }

    /// `r_i[x]`.
    pub fn read(txn: impl Into<TxnId>, item: DataItemId) -> Self {
        DataOp {
            txn: txn.into(),
            kind: DataOpKind::Read,
            item: Some(item),
        }
    }

    /// `w_i[x]`.
    pub fn write(txn: impl Into<TxnId>, item: DataItemId) -> Self {
        DataOp {
            txn: txn.into(),
            kind: DataOpKind::Write,
            item: Some(item),
        }
    }

    /// `c_i`.
    pub fn commit(txn: impl Into<TxnId>) -> Self {
        DataOp {
            txn: txn.into(),
            kind: DataOpKind::Commit,
            item: None,
        }
    }

    /// `a_i`.
    pub fn abort(txn: impl Into<TxnId>) -> Self {
        DataOp {
            txn: txn.into(),
            kind: DataOpKind::Abort,
            item: None,
        }
    }

    /// Two data operations conflict iff they belong to different
    /// transactions, access the same item, and at least one writes it.
    pub fn conflicts_with(&self, other: &DataOp) -> bool {
        if self.txn == other.txn {
            return false;
        }
        match (self.item, other.item) {
            (Some(a), Some(b)) if a == b => {
                self.kind == DataOpKind::Write || other.kind == DataOpKind::Write
            }
            _ => false,
        }
    }
}

impl fmt::Debug for DataOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            DataOpKind::Begin => "b",
            DataOpKind::Read => "r",
            DataOpKind::Write => "w",
            DataOpKind::Commit => "c",
            DataOpKind::Abort => "a",
        };
        match self.item {
            Some(x) => write!(f, "{k}[{:?}]({:?})", x, self.txn),
            None => write!(f, "{k}({:?})", self.txn),
        }
    }
}

impl fmt::Display for DataOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The kind of a GTM2 queue operation (Section 4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueueOpKind {
    /// `init_i` — announces transaction `Ĝ_i` (its set of sites) to GTM2
    /// before any of its serialization events is requested.
    Init,
    /// `ser_k(G_i)` — request to execute `G_i`'s serialization event at
    /// site `s_k`.
    Ser,
    /// `ack(ser_k(G_i))` — the local DBMS completed `ser_k(G_i)`.
    Ack,
    /// `fin_i` — all of `Ĝ_i`'s serialization events have been acknowledged;
    /// GTM2 may release `Ĝ_i`'s bookkeeping.
    Fin,
}

/// A GTM2 queue operation: an element of `QUEUE` in Figures 2 and 3.
///
/// `Init`/`Fin` carry the transaction and its site set; `Ser`/`Ack` carry
/// the transaction and the site of the serialization event.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum QueueOp {
    /// `init_i`, carrying the sites at which `G_i` executes (the contents of
    /// `Ĝ_i`). The paper: "operation `init_i` contains information relating
    /// to transaction `Ĝ_i`".
    Init {
        /// The announced transaction.
        txn: GlobalTxnId,
        /// Sites at which `G_i` executes, i.e. the sites of its
        /// serialization events. Sorted, no duplicates.
        sites: Vec<SiteId>,
    },
    /// `ser_k(G_i)`.
    Ser {
        /// Owning global transaction.
        txn: GlobalTxnId,
        /// Site of the serialization event.
        site: SiteId,
    },
    /// `ack(ser_k(G_i))`.
    Ack {
        /// Owning global transaction.
        txn: GlobalTxnId,
        /// Site whose local DBMS acknowledged the event.
        site: SiteId,
    },
    /// `fin_i`.
    Fin {
        /// The finished transaction.
        txn: GlobalTxnId,
    },
}

impl QueueOp {
    /// The transaction this queue operation concerns.
    #[inline]
    pub fn txn(&self) -> GlobalTxnId {
        match self {
            QueueOp::Init { txn, .. }
            | QueueOp::Ser { txn, .. }
            | QueueOp::Ack { txn, .. }
            | QueueOp::Fin { txn } => *txn,
        }
    }

    /// The site, for `Ser`/`Ack` operations.
    #[inline]
    pub fn site(&self) -> Option<SiteId> {
        match self {
            QueueOp::Ser { site, .. } | QueueOp::Ack { site, .. } => Some(*site),
            _ => None,
        }
    }

    /// The operation kind.
    #[inline]
    pub fn kind(&self) -> QueueOpKind {
        match self {
            QueueOp::Init { .. } => QueueOpKind::Init,
            QueueOp::Ser { .. } => QueueOpKind::Ser,
            QueueOp::Ack { .. } => QueueOpKind::Ack,
            QueueOp::Fin { .. } => QueueOpKind::Fin,
        }
    }
}

impl fmt::Debug for QueueOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueOp::Init { txn, sites } => write!(f, "init({txn:?},{sites:?})"),
            QueueOp::Ser { txn, site } => write!(f, "ser_{}({txn:?})", site.0),
            QueueOp::Ack { txn, site } => write!(f, "ack(ser_{}({txn:?}))", site.0),
            QueueOp::Fin { txn } => write!(f, "fin({txn:?})"),
        }
    }
}

impl fmt::Display for QueueOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GlobalTxnId, LocalTxnId};

    fn g(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    #[test]
    fn conflict_requires_shared_item_and_a_write() {
        let x = DataItemId(1);
        let y = DataItemId(2);
        assert!(DataOp::read(GlobalTxnId(1), x).conflicts_with(&DataOp::write(GlobalTxnId(2), x)));
        assert!(DataOp::write(GlobalTxnId(1), x).conflicts_with(&DataOp::write(GlobalTxnId(2), x)));
        assert!(!DataOp::read(GlobalTxnId(1), x).conflicts_with(&DataOp::read(GlobalTxnId(2), x)));
        assert!(!DataOp::write(GlobalTxnId(1), x).conflicts_with(&DataOp::write(GlobalTxnId(2), y)));
    }

    #[test]
    fn same_txn_never_conflicts() {
        let x = DataItemId(1);
        let op1 = DataOp::write(GlobalTxnId(1), x);
        let op2 = DataOp::read(GlobalTxnId(1), x);
        assert!(!op1.conflicts_with(&op2));
    }

    #[test]
    fn non_access_ops_never_conflict() {
        let c = DataOp::commit(GlobalTxnId(1));
        let w = DataOp::write(GlobalTxnId(2), DataItemId(1));
        assert!(!c.conflicts_with(&w));
        assert!(!w.conflicts_with(&c));
    }

    #[test]
    fn global_and_local_txns_conflict_symmetrically() {
        let x = DataItemId(3);
        let l: TxnId = LocalTxnId {
            site: SiteId(0),
            seq: 1,
        }
        .into();
        let a = DataOp {
            txn: g(1),
            kind: DataOpKind::Write,
            item: Some(x),
        };
        let b = DataOp {
            txn: l,
            kind: DataOpKind::Read,
            item: Some(x),
        };
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
    }

    #[test]
    fn queue_op_accessors() {
        let op = QueueOp::Ser {
            txn: GlobalTxnId(4),
            site: SiteId(2),
        };
        assert_eq!(op.txn(), GlobalTxnId(4));
        assert_eq!(op.site(), Some(SiteId(2)));
        assert_eq!(op.kind(), QueueOpKind::Ser);
        let init = QueueOp::Init {
            txn: GlobalTxnId(4),
            sites: vec![SiteId(0)],
        };
        assert_eq!(init.site(), None);
        assert_eq!(init.kind(), QueueOpKind::Init);
    }

    #[test]
    fn queue_op_display() {
        let op = QueueOp::Ack {
            txn: GlobalTxnId(1),
            site: SiteId(3),
        };
        assert_eq!(op.to_string(), "ack(ser_3(G1))");
    }
}
