//! Conflict serializability (CSR) testing.
//!
//! The Serializability Theorem: a history is conflict-serializable iff its
//! serialization graph — nodes are committed transactions, edge
//! `T_i -> T_j` iff some operation of `T_i` precedes and conflicts with an
//! operation of `T_j` — is acyclic. This is the paper's notion of
//! serializability (its footnote 2 restricts attention to CSR).
//!
//! Acyclicity, reachability and the witness order depend only on the
//! graph's transitive closure, so [`serialization_graph`] does not list
//! the conflict relation pair by pair. One sweep keeps, per data item, the
//! last writer and the readers since it, and emits a *reduction* of the
//! relation with the same closure in `O(ops)` edges (the dependency chain
//! DGCC builds per record). The literal all-pairs relation is
//! [`crate::oracle::all_pairs_serialization_graph`], the ground truth the
//! sweep is tested against.

use crate::graph::DiGraph;
use crate::history::History;
use mdbs_common::dense::IdHashMap;
use mdbs_common::ids::{DataItemId, TxnId};
use mdbs_common::ops::DataOpKind;

/// Accesses to one item by committed transactions, as far as later
/// conflicts can still see them.
#[derive(Default)]
struct ItemChain {
    last_writer: Option<TxnId>,
    /// Readers since `last_writer`; a transaction re-reading in a row is
    /// listed once.
    readers: Vec<TxnId>,
}

/// Sweep `h` once: append its committed transactions to `nodes` (sorted,
/// distinct) and a reduction of its conflict relation to `edges`.
///
/// Per item, with writes `w_1 w_2 ..` in history order: each read gets an
/// edge from the last writer before it; each write gets an edge from every
/// reader since the previous write, or — only if nobody read in between —
/// from that previous write. Every conflicting pair the all-pairs relation
/// lists is then joined by a path: `w_k -> w_(k+1)` directly or through any
/// reader between them (which follows `w_k` and precedes `w_(k+1)`, or is
/// one of the two), and a conflict that spans several writes rides that
/// chain. Same-transaction pairs never make an edge. At most two edges per
/// read and one per write.
///
/// The item map is only ever looked up, never iterated, so `edges` comes
/// out in history order.
pub(crate) fn sweep_conflicts(
    h: &History,
    nodes: &mut Vec<TxnId>,
    edges: &mut Vec<(TxnId, TxnId)>,
) {
    let committed = h.committed_txns();
    let mut items: IdHashMap<DataItemId, ItemChain> = IdHashMap::default();
    for op in h.ops() {
        let (Some(item), true) = (op.item, op.kind.is_access()) else {
            continue;
        };
        if committed.binary_search(&op.txn).is_err() {
            continue;
        }
        let chain = items.entry(item).or_default();
        let mut edge_from = |from: TxnId| {
            if from != op.txn {
                edges.push((from, op.txn));
            }
        };
        if op.kind == DataOpKind::Write {
            if let (Some(w), true) = (chain.last_writer, chain.readers.is_empty()) {
                edge_from(w);
            }
            chain.readers.drain(..).for_each(edge_from);
            chain.last_writer = Some(op.txn);
        } else {
            if let Some(w) = chain.last_writer {
                edge_from(w);
            }
            if chain.readers.last() != Some(&op.txn) {
                chain.readers.push(op.txn);
            }
        }
    }
    nodes.extend(committed);
}

/// Build the serialization graph of the committed projection of `h`, in
/// reduced form: an edge `T_i -> T_j` only if some operation of `T_i`
/// precedes and conflicts with one of `T_j`, and a path `T_i ->* T_j`
/// whenever one does (see the module docs).
///
/// Every committed transaction appears as a node even if it conflicts with
/// nothing (so topological orders enumerate all transactions).
pub fn serialization_graph(h: &History) -> DiGraph<TxnId> {
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    sweep_conflicts(h, &mut nodes, &mut edges);
    let mut g = DiGraph::new();
    for t in nodes {
        g.add_node(t);
    }
    for (a, b) in edges {
        g.add_edge(a, b);
    }
    g
}

/// True iff the committed projection of `h` is conflict-serializable.
pub fn is_conflict_serializable(h: &History) -> bool {
    !serialization_graph(h).has_cycle()
}

/// A full CSR analysis of a history.
#[derive(Clone, Debug)]
pub struct CsrReport {
    /// The serialization graph over committed transactions.
    pub graph: DiGraph<TxnId>,
    /// A serialization order (topological order of the graph) if one
    /// exists; `None` when the history is not serializable.
    pub serialization_order: Option<Vec<TxnId>>,
    /// One offending cycle when not serializable.
    pub cycle: Option<Vec<TxnId>>,
}

impl CsrReport {
    /// Analyze a history.
    pub fn analyze(h: &History) -> Self {
        let graph = serialization_graph(h);
        let serialization_order = graph.topo_sort();
        let cycle = if serialization_order.is_none() {
            graph.find_cycle()
        } else {
            None
        };
        CsrReport {
            graph,
            serialization_order,
            cycle,
        }
    }

    /// True iff the history is conflict-serializable.
    pub fn is_serializable(&self) -> bool {
        self.serialization_order.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::{DataItemId, GlobalTxnId};
    use mdbs_common::ops::DataOp;

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    /// w1[x] r2[x] w2[y] r1[y] — classic non-serializable interleaving.
    fn nonserializable() -> History {
        History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::read(GlobalTxnId(1), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ])
    }

    /// w1[x] r2[x] r1[y] w2[y]... actually serializable as T1 then T2.
    fn serializable() -> History {
        History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ])
    }

    #[test]
    fn serializable_history_passes() {
        assert!(is_conflict_serializable(&serializable()));
        let r = CsrReport::analyze(&serializable());
        assert!(r.is_serializable());
        assert_eq!(r.serialization_order, Some(vec![t(1), t(2)]));
        assert!(r.cycle.is_none());
    }

    #[test]
    fn nonserializable_history_fails_with_cycle() {
        assert!(!is_conflict_serializable(&nonserializable()));
        let r = CsrReport::analyze(&nonserializable());
        assert!(!r.is_serializable());
        let cycle = r.cycle.expect("cycle reported");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn aborted_txns_do_not_create_edges() {
        // T2 aborts, so its conflicting read must not serialize against T1.
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::read(GlobalTxnId(1), x(2)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::abort(GlobalTxnId(2)),
        ]);
        assert!(is_conflict_serializable(&h));
        let g = serialization_graph(&h);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(is_conflict_serializable(&History::new()));
    }

    #[test]
    fn conflict_free_txns_all_appear_as_nodes() {
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let g = serialization_graph(&h);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn ww_conflicts_count() {
        let h = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::write(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let g = serialization_graph(&h);
        assert!(g.has_edge(t(1), t(2)));
        assert!(!g.has_edge(t(2), t(1)));
    }
}
