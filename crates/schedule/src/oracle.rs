//! Brute-force serializability oracles.
//!
//! Two independent ground truths for property tests of the linear checker
//! in [`crate::csr`], neither on any run path:
//! [`is_serializable_by_enumeration`] checks conflict-equivalence against
//! *every* serial order of the committed transactions (exponential), and
//! [`all_pairs_serialization_graph`] is the serialization graph written
//! exactly as the Serializability Theorem defines it (quadratic).

use crate::graph::DiGraph;
use crate::history::History;
use mdbs_common::ids::TxnId;

/// The serialization graph of the committed projection of `h` with an edge
/// for *every* conflicting pair of operations, found by comparing all
/// pairs. [`crate::csr::serialization_graph`] must have a subset of these
/// edges and the same transitive closure.
pub fn all_pairs_serialization_graph(h: &History) -> DiGraph<TxnId> {
    let committed = h.committed_projection();
    let mut g = DiGraph::new();
    for t in committed.txns() {
        g.add_node(t);
    }
    let ops = committed.ops();
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            if a.conflicts_with(b) {
                g.add_edge(a.txn, b.txn);
            }
        }
    }
    g
}

/// True iff the committed projection of `h` is conflict-equivalent to some
/// serial history, decided by enumerating all permutations of the committed
/// transactions. Only use on histories with few transactions (≤ 8 or so).
pub fn is_serializable_by_enumeration(h: &History) -> bool {
    let committed = h.committed_projection();
    let txns = committed.txns();
    if txns.len() <= 1 {
        return true;
    }
    let mut perm = txns;
    permute(&mut perm, 0, &committed)
}

/// Heap-style recursive permutation search with early exit.
fn permute(perm: &mut [TxnId], k: usize, h: &History) -> bool {
    if k == perm.len() {
        return conflict_equivalent_to_serial(h, perm);
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        if permute(perm, k + 1, h) {
            perm.swap(k, i);
            return true;
        }
        perm.swap(k, i);
    }
    false
}

/// Is `h` conflict-equivalent to the serial history executing transactions
/// in exactly `order`? True iff every conflicting pair of operations in `h`
/// is ordered consistently with `order`.
fn conflict_equivalent_to_serial(h: &History, order: &[TxnId]) -> bool {
    let pos = |t: TxnId| order.iter().position(|&x| x == t).expect("txn in order");
    let ops = h.ops();
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            if a.conflicts_with(b) && pos(a.txn) > pos(b.txn) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::is_conflict_serializable;
    use mdbs_common::ids::{DataItemId, GlobalTxnId};
    use mdbs_common::ops::DataOp;

    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    #[test]
    fn oracle_agrees_on_classic_cases() {
        let bad = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::write(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::write(GlobalTxnId(1), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        assert!(!is_serializable_by_enumeration(&bad));
        assert!(!is_conflict_serializable(&bad));

        let good = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::write(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(1), x(2)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        assert!(is_serializable_by_enumeration(&good));
        assert!(is_conflict_serializable(&good));
    }

    #[test]
    fn trivial_histories_are_serializable() {
        assert!(is_serializable_by_enumeration(&History::new()));
        let single = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
        ]);
        assert!(is_serializable_by_enumeration(&single));
    }

    #[test]
    fn three_txn_cycle_detected() {
        // w1[a] r2[a], w2[b] r3[b], w3[c] r1[c]: cycle T1->T2->T3->T1.
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::begin(GlobalTxnId(3)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::read(GlobalTxnId(3), x(2)),
            DataOp::write(GlobalTxnId(3), x(3)),
            DataOp::read(GlobalTxnId(1), x(3)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
            DataOp::commit(GlobalTxnId(3)),
        ]);
        assert!(!is_serializable_by_enumeration(&h));
        assert!(!is_conflict_serializable(&h));
    }
}
