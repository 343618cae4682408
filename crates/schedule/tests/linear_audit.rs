//! The linear conflict sweep against its ground truths.
//!
//! `serialization_graph` lists a reduction of the conflict relation, not
//! the relation. These tests pin what that may and may not change:
//!
//! - *Proved at small scope*: on every history of up to five accesses by
//!   three transactions to two items — all committed, or (up to four
//!   accesses) the third aborted — the sweep graph, the all-pairs graph and the
//!   permutation oracle give one verdict; the sweep's edges are a subset of
//!   the all-pairs edges with the same transitive closure; and the witness
//!   order is the same from either edge set and from `check_global`.
//! - *Linear as a count*: the sweep emits at most two edges per read and
//!   one per write where the all-pairs relation is quadratic, and
//!   `check_global` audits 4 sites × 10 000 transactions inside the default
//!   debug test run.

use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId, TxnId};
use mdbs_common::ops::{DataOp, DataOpKind};
use mdbs_common::rng::splitmix64;
use mdbs_schedule::global::check_global;
use mdbs_schedule::{
    all_pairs_serialization_graph, is_serializable_by_enumeration, serialization_graph,
    GlobalSerializability, History,
};

const TXNS: u64 = 3;
const ITEMS: u64 = 2;
const MAX_ACCESSES: u32 = 5;

/// The `code`-th sequence of `len` accesses: each position picks a
/// transaction, read or write, and an item — so the sequences of one
/// length are exactly the interleavings of every choice of per-transaction
/// programs. Begins lead and terminations trail (neither takes part in a
/// conflict); transaction 3 aborts iff `abort_last`.
fn history(len: u32, mut code: u64, abort_last: bool) -> History {
    let mut ops: Vec<DataOp> = (1..=TXNS).map(|t| DataOp::begin(GlobalTxnId(t))).collect();
    for _ in 0..len {
        let txn = GlobalTxnId(1 + code % TXNS);
        code /= TXNS;
        let write = code % 2 == 1;
        code /= 2;
        let item = DataItemId(1 + code % ITEMS);
        code /= ITEMS;
        ops.push(if write {
            DataOp::write(txn, item)
        } else {
            DataOp::read(txn, item)
        });
    }
    for t in 1..=TXNS {
        ops.push(if abort_last && t == TXNS {
            DataOp::abort(GlobalTxnId(t))
        } else {
            DataOp::commit(GlobalTxnId(t))
        });
    }
    History::from_ops(ops)
}

/// Everything the sweep must share with the all-pairs relation on `h`.
/// Returns the verdict.
fn assert_sweep_equivalent(h: &History) -> bool {
    let sweep = serialization_graph(h);
    let full = all_pairs_serialization_graph(h);

    let nodes: Vec<TxnId> = full.nodes().collect();
    assert_eq!(sweep.nodes().collect::<Vec<_>>(), nodes, "{h:?}");
    for (a, b) in sweep.edges() {
        assert!(full.has_edge(a, b), "{h:?}: {a:?} -> {b:?} is no conflict");
    }
    for &a in &nodes {
        for &b in &nodes {
            assert_eq!(
                sweep.has_path(a, b),
                full.has_path(a, b),
                "{h:?}: closure differs on {a:?} ->* {b:?}"
            );
        }
    }

    let order = full.topo_sort();
    assert_eq!(sweep.topo_sort(), order, "{h:?}: witness order");
    assert_eq!(
        order.is_some(),
        is_serializable_by_enumeration(h),
        "{h:?}: graph verdict against the permutation oracle"
    );
    let serializable = order.is_some();
    match (check_global([(SiteId(0), h)]), order) {
        (GlobalSerializability::Serializable { order: global }, Some(order)) => {
            assert_eq!(global, order, "{h:?}: check_global's witness order");
        }
        (GlobalSerializability::NotSerializable { .. }, None) => {}
        (verdict, _) => panic!("{h:?}: check_global says {verdict:?}"),
    }
    serializable
}

#[test]
fn sweep_equals_all_pairs_on_every_small_history() {
    let per_access = TXNS * 2 * ITEMS;
    let (mut histories, mut cyclic) = (0u64, 0u64);
    for abort_last in [false, true] {
        // An aborted transaction's accesses drop out, so one access fewer
        // loses no two-transaction shape.
        for len in 0..=MAX_ACCESSES - u32::from(abort_last) {
            for code in 0..per_access.pow(len) {
                let h = history(len, code, abort_last);
                // Items only ever compare equal or not: histories that
                // open on item 2 mirror those that open on item 1.
                if h.ops()[TXNS as usize].item == Some(DataItemId(2)) {
                    continue;
                }
                debug_assert!(h.is_well_formed());
                histories += 1;
                cyclic += u64::from(!assert_sweep_equivalent(&h));
            }
        }
    }
    let upto = |max: u32| 1 + (1..=max).map(|l| 12u64.pow(l) / 2).sum::<u64>();
    assert_eq!(histories, upto(MAX_ACCESSES) + upto(MAX_ACCESSES - 1));
    // The scope is wide enough to hold real violations.
    assert!(cyclic > 5_000, "only {cyclic} non-serializable histories");
}

/// `n` transactions, one after another, that each read-modify-write the
/// ticket (item 0) and touch `extra` uniformly drawn items out of 64 — the
/// shape a ticket site records.
fn ticket_chain(site: u32, n: u64, extra: u64) -> History {
    let mut h = History::new();
    let mut z = u64::from(site) + 1;
    for i in 1..=n {
        let t = GlobalTxnId(i);
        h.push(DataOp::begin(t));
        h.push(DataOp::read(t, DataItemId(0)));
        h.push(DataOp::write(t, DataItemId(0)));
        for _ in 0..extra {
            z = splitmix64(z);
            let item = DataItemId(1 + z % 64);
            h.push(if z & (1 << 32) == 0 {
                DataOp::read(t, item)
            } else {
                DataOp::write(t, item)
            });
        }
        h.push(DataOp::commit(t));
    }
    h
}

fn accesses(h: &History) -> (usize, usize) {
    let count = |kind| h.ops().iter().filter(|o| o.kind == kind).count();
    (count(DataOpKind::Read), count(DataOpKind::Write))
}

#[test]
fn sweep_edges_are_linear_where_all_pairs_are_quadratic() {
    let h = ticket_chain(0, 10_000, 4);
    let (reads, writes) = accesses(&h);
    let edges = serialization_graph(&h).edge_count();
    assert!(edges >= 9_999, "the ticket chain alone has n - 1 edges");
    assert!(
        edges <= reads + writes,
        "{edges} edges from {reads} reads and {writes} writes"
    );

    // The bound that holds for any history: a read draws one edge from the
    // last writer and feeds one into the next; a write draws one from the
    // previous writer only when no read did.
    let mut z = 7;
    let ops = (0..40_000u64).map(|i| {
        z = splitmix64(z);
        let (t, item) = (GlobalTxnId(1 + z % 500), DataItemId((z >> 16) % 8));
        match (i < 500, z & (1 << 40) == 0) {
            (true, _) => DataOp::begin(GlobalTxnId(i + 1)),
            (false, true) => DataOp::read(t, item),
            (false, false) => DataOp::write(t, item),
        }
    });
    let mut h = History::from_ops(ops.collect());
    for t in 1..=500 {
        h.push(DataOp::commit(GlobalTxnId(t)));
    }
    let (reads, writes) = accesses(&h);
    let edges = serialization_graph(&h).edge_count();
    assert!(
        edges <= 2 * reads + writes,
        "{edges} edges from {reads} reads and {writes} writes"
    );

    let n = 200;
    let small = ticket_chain(0, n, 0);
    assert!(all_pairs_serialization_graph(&small).edge_count() as u64 >= n * (n - 1) / 2);
    assert_eq!(serialization_graph(&small).edge_count() as u64, n - 1);
}

#[test]
fn check_global_audits_forty_thousand_subtransactions() {
    let sites: Vec<History> = (0..4).map(|s| ticket_chain(s, 10_000, 4)).collect();
    let verdict = check_global(sites.iter().enumerate().map(|(s, h)| (SiteId(s as u32), h)));
    // Every site runs the transactions in id order, so that is the only
    // serial order — and the smallest.
    let expected: Vec<TxnId> = (1..=10_000)
        .map(|i| TxnId::Global(GlobalTxnId(i)))
        .collect();
    assert_eq!(
        verdict,
        GlobalSerializability::Serializable { order: expected }
    );
}
