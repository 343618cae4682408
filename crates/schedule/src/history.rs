//! Histories: totally ordered operation logs.
//!
//! A [`History`] is what one local DBMS records — the paper's local schedule
//! `S_k`: the sequence of all data operations (of both local transactions
//! and global subtransactions) in the order the DBMS actually executed them.
//!
//! Histories are *append-only*; analysis functions live in [`crate::csr`].

use mdbs_common::ids::{DataItemId, TxnId};
use mdbs_common::ops::{DataOp, DataOpKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A totally ordered sequence of executed data operations.
///
/// ```
/// use mdbs_common::ids::{DataItemId, GlobalTxnId};
/// use mdbs_common::ops::DataOp;
/// use mdbs_schedule::{is_conflict_serializable, History};
///
/// // w1[x] r2[x] w2[y] r1[y]: the classic non-serializable interleaving.
/// let h = History::from_ops(vec![
///     DataOp::begin(GlobalTxnId(1)),
///     DataOp::begin(GlobalTxnId(2)),
///     DataOp::write(GlobalTxnId(1), DataItemId(1)),
///     DataOp::read(GlobalTxnId(2), DataItemId(1)),
///     DataOp::write(GlobalTxnId(2), DataItemId(2)),
///     DataOp::read(GlobalTxnId(1), DataItemId(2)),
///     DataOp::commit(GlobalTxnId(1)),
///     DataOp::commit(GlobalTxnId(2)),
/// ]);
/// assert!(h.is_well_formed());
/// assert!(!is_conflict_serializable(&h));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct History {
    ops: Vec<DataOp>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History { ops: Vec::new() }
    }

    /// Build a history from operations already in execution order.
    pub fn from_ops(ops: Vec<DataOp>) -> Self {
        History { ops }
    }

    /// Append an executed operation.
    pub fn push(&mut self, op: DataOp) {
        self.ops.push(op);
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[DataOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff no operation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Distinct transactions appearing in the history, ascending.
    pub fn txns(&self) -> Vec<TxnId> {
        let set: BTreeSet<TxnId> = self.ops.iter().map(|o| o.txn).collect();
        set.into_iter().collect()
    }

    /// Transactions that committed in this history, ascending.
    pub fn committed_txns(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self
            .ops
            .iter()
            .filter(|o| o.kind == DataOpKind::Commit)
            .map(|o| o.txn)
            .collect();
        txns.sort_unstable();
        txns.dedup();
        txns
    }

    /// Transactions that aborted in this history.
    pub fn aborted_txns(&self) -> Vec<TxnId> {
        let set: BTreeSet<TxnId> = self
            .ops
            .iter()
            .filter(|o| o.kind == DataOpKind::Abort)
            .map(|o| o.txn)
            .collect();
        set.into_iter().collect()
    }

    /// The *committed projection*: operations of committed transactions
    /// only. Serializability of a history is defined over this projection
    /// (aborted transactions' effects are undone by the local DBMS).
    pub fn committed_projection(&self) -> History {
        let committed: BTreeSet<TxnId> = self.committed_txns().into_iter().collect();
        History {
            ops: self
                .ops
                .iter()
                .filter(|o| committed.contains(&o.txn))
                .copied()
                .collect(),
        }
    }

    /// Restriction to a subset of transactions, preserving order — the
    /// paper's footnote-1 notion of restriction.
    pub fn restrict<F: Fn(TxnId) -> bool>(&self, keep: F) -> History {
        History {
            ops: self.ops.iter().filter(|o| keep(o.txn)).copied().collect(),
        }
    }

    /// Positions of each access (read/write) to `item`, in order.
    pub fn accesses_of(&self, item: DataItemId) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.item == Some(item) && o.kind.is_access())
            .map(|(i, _)| i)
            .collect()
    }

    /// True iff every transaction's operations appear in a legal per-
    /// transaction order: at most one `begin` (first), reads/writes only
    /// between `begin` and termination, at most one terminal
    /// `commit`/`abort` (last).
    pub fn is_well_formed(&self) -> bool {
        use std::collections::BTreeMap;
        #[derive(PartialEq)]
        enum Phase {
            Fresh,
            Active,
            Done,
        }
        let mut phase: BTreeMap<TxnId, Phase> = BTreeMap::new();
        for op in &self.ops {
            let p = phase.entry(op.txn).or_insert(Phase::Fresh);
            match op.kind {
                DataOpKind::Begin => {
                    if *p != Phase::Fresh {
                        return false;
                    }
                    *p = Phase::Active;
                }
                DataOpKind::Read | DataOpKind::Write => {
                    if *p != Phase::Active {
                        return false;
                    }
                }
                DataOpKind::Commit | DataOpKind::Abort => {
                    if *p != Phase::Active {
                        return false;
                    }
                    *p = Phase::Done;
                }
            }
        }
        true
    }

    /// Interleave check: is `self` a serial history (no transaction's
    /// operations interleave with another's)?
    pub fn is_serial(&self) -> bool {
        let mut finished: BTreeSet<TxnId> = BTreeSet::new();
        let mut current: Option<TxnId> = None;
        for op in &self.ops {
            match current {
                Some(t) if t == op.txn => {}
                _ => {
                    if finished.contains(&op.txn) {
                        return false;
                    }
                    if let Some(prev) = current {
                        finished.insert(prev);
                    }
                    current = Some(op.txn);
                }
            }
        }
        true
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{op:?}")?;
        }
        write!(f, "]")
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

    fn sample() -> History {
        History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(1), x(1)),
            DataOp::write(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::abort(GlobalTxnId(2)),
        ])
    }

    #[test]
    fn txn_enumeration() {
        let h = sample();
        assert_eq!(h.txns(), vec![t(1), t(2)]);
        assert_eq!(h.committed_txns(), vec![t(1)]);
        assert_eq!(h.aborted_txns(), vec![t(2)]);
    }

    #[test]
    fn committed_projection_drops_aborted() {
        let p = sample().committed_projection();
        assert_eq!(p.len(), 3);
        assert!(p.ops().iter().all(|o| o.txn == t(1)));
    }

    #[test]
    fn restriction_preserves_order() {
        let h = sample();
        let r = h.restrict(|id| id == t(2));
        assert_eq!(r.len(), 3);
        assert_eq!(r.ops()[0].kind, DataOpKind::Begin);
        assert_eq!(r.ops()[1].kind, DataOpKind::Write);
        assert_eq!(r.ops()[2].kind, DataOpKind::Abort);
    }

    #[test]
    fn accesses_of_item() {
        let h = sample();
        assert_eq!(h.accesses_of(x(1)), vec![2, 3]);
        assert_eq!(h.accesses_of(x(9)), Vec::<usize>::new());
    }

    #[test]
    fn well_formedness_accepts_sample() {
        assert!(sample().is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_read_before_begin() {
        let h = History::from_ops(vec![DataOp::read(GlobalTxnId(1), x(1))]);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_double_begin() {
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(1)),
        ]);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_op_after_commit() {
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::read(GlobalTxnId(1), x(1)),
        ]);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn serial_check() {
        let serial = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        assert!(serial.is_serial());
        assert!(!sample().is_serial());
    }

    #[test]
    fn debug_render() {
        let h = History::from_ops(vec![DataOp::read(GlobalTxnId(1), x(2))]);
        assert_eq!(format!("{h:?}"), "[r[x2](G1)]");
    }
}
