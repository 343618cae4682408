//! Property tests: the polynomial graph-based CSR checker must agree with
//! the brute-force enumeration oracle on arbitrary small histories, and
//! basic structural properties of serialization graphs must hold.

use mdbs_common::ids::{DataItemId, GlobalTxnId, TxnId};
use mdbs_common::ops::DataOp;
use mdbs_schedule::{
    all_pairs_serialization_graph, is_conflict_serializable, is_serializable_by_enumeration,
    serialization_graph, CsrReport, History,
};
use proptest::prelude::*;

/// Generate a random well-formed history over up to `max_txns` transactions
/// and `max_items` items: every transaction begins, performs its accesses,
/// and commits or aborts; interleaving is arbitrary.
fn arb_history(max_txns: u64, max_items: u64, max_access: usize) -> impl Strategy<Value = History> {
    // For each transaction: a list of (is_write, item) accesses and a
    // commit/abort flag.
    let per_txn = (
        prop::collection::vec((any::<bool>(), 1..=max_items), 0..=max_access),
        any::<bool>(),
    );
    (
        prop::collection::vec(per_txn, 1..=max_txns as usize),
        any::<u64>(),
    )
        .prop_map(|(txns, seed)| {
            // Build per-transaction op lists.
            let mut streams: Vec<Vec<DataOp>> = Vec::new();
            for (i, (accesses, commit)) in txns.iter().enumerate() {
                let id = GlobalTxnId(i as u64 + 1);
                let mut ops = vec![DataOp::begin(id)];
                for &(w, item) in accesses {
                    let item = DataItemId(item);
                    ops.push(if w {
                        DataOp::write(id, item)
                    } else {
                        DataOp::read(id, item)
                    });
                }
                ops.push(if *commit {
                    DataOp::commit(id)
                } else {
                    DataOp::abort(id)
                });
                streams.push(ops);
            }
            // Interleave deterministically from the seed.
            let mut h = History::new();
            let mut cursors = vec![0usize; streams.len()];
            let mut z = seed;
            loop {
                let remaining: Vec<usize> = streams
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| cursors[*i] < s.len())
                    .map(|(i, _)| i)
                    .collect();
                if remaining.is_empty() {
                    break;
                }
                z = mdbs_common::rng::splitmix64(z);
                let pick = remaining[(z % remaining.len() as u64) as usize];
                h.push(streams[pick][cursors[pick]]);
                cursors[pick] += 1;
            }
            h
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Serializability Theorem, empirically: graph test == enumeration.
    #[test]
    fn csr_checker_agrees_with_oracle(h in arb_history(5, 4, 4)) {
        prop_assert!(h.is_well_formed());
        let fast = is_conflict_serializable(&h);
        let slow = is_serializable_by_enumeration(&h);
        prop_assert_eq!(fast, slow, "graph checker and oracle disagree on {:?}", h);
    }

    /// The sweep graph is a reduction of the all-pairs conflict relation:
    /// a subset of its edges, the same transitive closure, and therefore
    /// the same witness order. (`tests/linear_audit.rs` proves this on
    /// every history of 3 transactions × 2 items; this samples wider ones.)
    #[test]
    fn sweep_graph_has_the_all_pairs_closure_and_order(h in arb_history(5, 4, 4)) {
        let sweep = serialization_graph(&h);
        let full = all_pairs_serialization_graph(&h);
        for (a, b) in sweep.edges() {
            prop_assert!(full.has_edge(a, b), "{:?} -> {:?} is no conflict in {:?}", a, b, h);
        }
        for a in full.nodes() {
            for b in full.nodes() {
                prop_assert_eq!(
                    sweep.has_path(a, b), full.has_path(a, b),
                    "closure differs on {:?} ->* {:?} in {:?}", a, b, h
                );
            }
        }
        prop_assert_eq!(sweep.topo_sort(), full.topo_sort(), "witness order on {:?}", h);
    }

    /// A reported serialization order must order every conflicting pair
    /// consistently with the history.
    #[test]
    fn witness_order_is_conflict_consistent(h in arb_history(5, 4, 4)) {
        let report = CsrReport::analyze(&h);
        if let Some(order) = &report.serialization_order {
            let committed = h.committed_projection();
            let pos = |t: TxnId| order.iter().position(|&x| x == t).unwrap();
            let ops = committed.ops();
            for (i, a) in ops.iter().enumerate() {
                for b in &ops[i + 1..] {
                    if a.conflicts_with(b) {
                        prop_assert!(pos(a.txn) < pos(b.txn));
                    }
                }
            }
        }
    }

    /// A reported cycle must consist of real edges.
    #[test]
    fn reported_cycle_is_real(h in arb_history(5, 4, 4)) {
        let report = CsrReport::analyze(&h);
        if let Some(cycle) = &report.cycle {
            prop_assert!(cycle.len() >= 2);
            for i in 0..cycle.len() {
                let a = cycle[i];
                let b = cycle[(i + 1) % cycle.len()];
                prop_assert!(report.graph.has_edge(a, b));
            }
        }
    }

    /// Serial histories are always serializable.
    #[test]
    fn serial_histories_serializable(h in arb_history(5, 4, 4)) {
        // Project each transaction's ops contiguously => serial history.
        let mut serial = History::new();
        for t in h.txns() {
            for op in h.restrict(|id| id == t).ops() {
                serial.push(*op);
            }
        }
        prop_assert!(serial.is_serial());
        prop_assert!(is_conflict_serializable(&serial));
    }

    /// The serialization graph only contains committed transactions.
    #[test]
    fn graph_nodes_are_committed(h in arb_history(5, 4, 4)) {
        let g = serialization_graph(&h);
        let committed = h.committed_txns();
        for n in g.nodes() {
            prop_assert!(committed.contains(&n));
        }
        prop_assert_eq!(g.node_count(), committed.len());
    }
}
