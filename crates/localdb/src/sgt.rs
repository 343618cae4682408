//! Serialization-graph testing.
//!
//! The protocol maintains the conflict (serialization) graph over active
//! and not-yet-forgotten committed transactions; an operation that would
//! close a cycle aborts its transaction. Strictness is added the same way
//! as in [`crate::to`]: operations on an item with an uncommitted write
//! wait for the writer, preventing dirty reads. Unlike TO, these waits have
//! no timestamp order, so they *can* deadlock — the protocol reports
//! waits-for cycles through `check_deadlock`.
//!
//! **Serialization function**: none exists naturally — SGT serializes
//! transactions in an order only fully determined at the end. Per Section
//! 2.2 of the paper, sites like this force conflicts through a **ticket**:
//! every global subtransaction read-modify-writes the reserved
//! [`DataItemId::TICKET`](mdbs_common::ids::DataItemId) item, and its
//! ticket write is the serialization event
//! ([`SerializationEvent::TicketWrite`](crate::serfn::SerializationEvent)).
//!
//! The per-item, per-transaction and age tables are [`IdHashMap`]s. The
//! orders that decide something are fixed where they are used: an ending
//! writer's waiters wake in ascending id order, and the whole-site
//! waits-for edge list is sorted before a victim is picked from it.

use crate::deadlock::first_victim;
use crate::protocol::{CcProtocol, DeadlockOutcome, Decision, WriteStyle};
use mdbs_common::dense::IdHashMap;
use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, TxnId};
use mdbs_schedule::DiGraph;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
}

#[derive(Clone, Debug, Default)]
struct ItemAccesses {
    /// Past granted accesses in execution order.
    log: Vec<(TxnId, AccessKind)>,
    /// Active transaction holding an uncommitted write, if any.
    dirty: Option<TxnId>,
    /// Transactions blocked on the dirty writer.
    waiters: BTreeSet<TxnId>,
}

impl ItemAccesses {
    /// Nothing left to remember about the item.
    fn is_idle(&self) -> bool {
        self.log.is_empty() && self.dirty.is_none() && self.waiters.is_empty()
    }
}

/// What one transaction has at the site, kept with the transaction so that
/// ending it, forgetting it or testing it for deadlock costs its own
/// accesses, not a pass over every item.
#[derive(Clone, Debug, Default)]
struct TxnAccesses {
    /// Items whose log holds an entry of the transaction.
    items: Vec<DataItemId>,
    /// The item whose dirty writer the transaction is blocked on, if any.
    waiting_on: Option<DataItemId>,
    /// Committed, but still a node of the graph.
    committed: bool,
}

/// SGT protocol state.
#[derive(Debug)]
pub struct SerializationGraphTesting {
    graph: DiGraph<TxnId>,
    items: IdHashMap<DataItemId, ItemAccesses>,
    /// Active transactions and committed ones not yet forgotten.
    txns: IdHashMap<TxnId, TxnAccesses>,
    /// Begin sequence of each active transaction.
    age: IdHashMap<TxnId, u64>,
}

impl Default for SerializationGraphTesting {
    fn default() -> Self {
        Self::new()
    }
}

impl SerializationGraphTesting {
    /// Fresh protocol state.
    pub fn new() -> Self {
        SerializationGraphTesting {
            graph: DiGraph::new(),
            items: IdHashMap::default(),
            txns: IdHashMap::default(),
            age: IdHashMap::default(),
        }
    }

    /// Edges induced by `txn` performing `kind` on `item` (from prior
    /// conflicting accessors to `txn`).
    fn induced_edges(&self, txn: TxnId, item: DataItemId, kind: AccessKind) -> Vec<(TxnId, TxnId)> {
        let Some(acc) = self.items.get(&item) else {
            return Vec::new();
        };
        let mut edges = Vec::new();
        for &(prior, pkind) in &acc.log {
            if prior == txn {
                continue;
            }
            let conflicting = pkind == AccessKind::Write || kind == AccessKind::Write;
            if conflicting && !edges.contains(&(prior, txn)) {
                edges.push((prior, txn));
            }
        }
        edges
    }

    /// True iff `txn` reaches the source of one of `added` — edges that all
    /// enter `txn`. The graph was acyclic before they were added, so that is
    /// exactly when they close a cycle.
    fn closes_cycle(&self, txn: TxnId, added: &[(TxnId, TxnId)]) -> bool {
        if added.is_empty() {
            return false;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![txn];
        while let Some(n) = stack.pop() {
            for m in self.graph.successors(n) {
                if added.iter().any(|&(source, _)| source == m) {
                    return true;
                }
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        false
    }

    fn try_access(&mut self, txn: TxnId, item: DataItemId, kind: AccessKind) -> Decision {
        // Strictness: wait for an uncommitted writer.
        if let Some(acc) = self.items.get_mut(&item) {
            if acc.dirty.is_some_and(|dirty| dirty != txn) {
                acc.waiters.insert(txn);
                self.txns.entry(txn).or_default().waiting_on = Some(item);
                return Decision::Block;
            }
        }
        // Tentatively add conflict edges; roll back on cycle.
        let edges = self.induced_edges(txn, item, kind);
        let mut added = Vec::new();
        for &(a, b) in &edges {
            if self.graph.add_edge(a, b) {
                added.push((a, b));
            }
        }
        if self.closes_cycle(txn, &added) {
            for (a, b) in added {
                self.graph.remove_edge(a, b);
            }
            return Decision::Abort(AbortReason::SerializationCycle);
        }
        let acc = self.items.entry(item).or_default();
        acc.log.push((txn, kind));
        if kind == AccessKind::Write {
            acc.dirty = Some(txn);
        }
        let mine = &mut self.txns.entry(txn).or_default().items;
        if !mine.contains(&item) {
            mine.push(item);
        }
        Decision::Grant
    }

    /// Drop `txn` from the graph, from the logs of the items it accessed
    /// and from the protocol's memory; an item left with nothing to
    /// remember goes too.
    fn forget(&mut self, txn: TxnId) {
        self.graph.remove_node(txn);
        let Some(accesses) = self.txns.remove(&txn) else {
            return;
        };
        for item in accesses.items {
            if let Some(acc) = self.items.get_mut(&item) {
                acc.log.retain(|&(a, _)| a != txn);
                if acc.is_idle() {
                    self.items.remove(&item);
                }
            }
        }
    }

    /// Forget committed transactions that can no longer join a cycle:
    /// committed nodes with no incoming edges. Only a node of `candidates`
    /// can have become one, and forgetting a node makes candidates of its
    /// successors.
    fn collect_garbage(&mut self, mut candidates: Vec<TxnId>) {
        while let Some(t) = candidates.pop() {
            let forgettable =
                self.txns.get(&t).is_some_and(|a| a.committed) && self.graph.in_degree(t) == 0;
            if forgettable {
                candidates.extend(self.graph.successors(t));
                self.forget(t);
            }
        }
    }

    /// The waits-for graph of the whole site: every blocked transaction
    /// waits for the dirty writer of the item it is queued on. Listed in
    /// ascending order of the waiting transaction.
    fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the edges are collected, then sorted before a victim is picked."
        )]
        let mut edges: Vec<(TxnId, TxnId)> = self
            .txns
            .iter()
            .filter_map(|(&t, a)| Some((t, self.dirty_writer_awaited(a)?)))
            .collect();
        edges.sort_unstable();
        edges
    }

    fn age_of(&self, txn: TxnId) -> Option<u64> {
        self.age.get(&txn).copied()
    }

    fn dirty_writer_awaited(&self, accesses: &TxnAccesses) -> Option<TxnId> {
        self.items.get(&accesses.waiting_on?)?.dirty
    }

    /// True iff `txn` reaches itself along waits-for edges. Each blocked
    /// transaction waits for exactly one other, so the walk is a chain.
    fn waits_for_itself(&self, txn: TxnId) -> bool {
        let mut seen = Vec::new();
        let mut t = txn;
        while let Some(next) = self.txns.get(&t).and_then(|a| self.dirty_writer_awaited(a)) {
            if next == txn {
                return true;
            }
            if seen.contains(&next) {
                return false; // a cycle, but not through `txn`
            }
            seen.push(next);
            t = next;
        }
        false
    }

    /// The first victim over the site's waits-for graph, computed from the
    /// items' waiter sets alone — no per-transaction index — as the oracle
    /// for the walk-first check. Items are visited in ascending order.
    #[cfg(test)]
    pub(crate) fn table_scan_for_victim(&self) -> DeadlockOutcome {
        #[expect(
            clippy::disallowed_methods,
            reason = "the items are collected, then sorted before any edge is listed."
        )]
        let mut items: Vec<(DataItemId, &ItemAccesses)> =
            self.items.iter().map(|(&item, acc)| (item, acc)).collect();
        items.sort_unstable_by_key(|&(item, _)| item);
        let mut edges = Vec::new();
        for (_, acc) in items {
            if let Some(d) = acc.dirty {
                edges.extend(acc.waiters.iter().map(|&w| (w, d)));
            }
        }
        first_victim(&edges, |t| self.age_of(t))
    }
}

impl CcProtocol for SerializationGraphTesting {
    fn name(&self) -> &'static str {
        "SGT"
    }

    fn write_style(&self) -> WriteStyle {
        WriteStyle::Immediate
    }

    fn on_begin(&mut self, txn: TxnId, seq: u64) {
        self.txns.insert(txn, TxnAccesses::default());
        self.age.insert(txn, seq);
        self.graph.add_node(txn);
    }

    fn on_read(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        self.try_access(txn, item, AccessKind::Read)
    }

    fn on_write(&mut self, txn: TxnId, item: DataItemId) -> Decision {
        self.try_access(txn, item, AccessKind::Write)
    }

    fn on_commit(&mut self, _txn: TxnId) -> Decision {
        Decision::Grant
    }

    fn on_end(&mut self, txn: TxnId, committed: bool) -> Vec<TxnId> {
        self.age.remove(&txn);
        let mut woken: Vec<TxnId> = Vec::new();
        let accesses = self.txns.entry(txn).or_default();
        accesses.committed = committed;
        // Its dirty writes are on items it has a log entry on.
        for item in &accesses.items {
            if let Some(acc) = self.items.get_mut(item) {
                if acc.dirty == Some(txn) {
                    acc.dirty = None;
                    woken.extend(std::mem::take(&mut acc.waiters));
                }
            }
        }
        // It may be waiting itself; drop its queue entry.
        if let Some(item) = accesses.waiting_on.take() {
            if let Some(acc) = self.items.get_mut(&item) {
                acc.waiters.remove(&txn);
            }
        }
        woken.sort_unstable();
        woken.dedup();
        for w in &woken {
            if let Some(waiter) = self.txns.get_mut(w) {
                waiter.waiting_on = None;
            }
        }
        if committed {
            self.collect_garbage(vec![txn]);
        } else {
            // Aborted: its accesses and edges vanish.
            let successors: Vec<TxnId> = self.graph.successors(txn).collect();
            self.forget(txn);
            self.collect_garbage(successors);
        }
        woken
    }

    fn check_deadlock(&mut self, requester: TxnId) -> DeadlockOutcome {
        // Any cycle passes through the requester (see `crate::deadlock`),
        // so the site is scanned only once its own walk has found one.
        if !self.waits_for_itself(requester) {
            return DeadlockOutcome::None;
        }
        first_victim(&self.waits_for_edges(), |t| self.age_of(t))
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

    fn proto_with(n: u64) -> SerializationGraphTesting {
        let mut p = SerializationGraphTesting::new();
        for i in 1..=n {
            p.on_begin(t(i), i);
        }
        p
    }

    #[test]
    fn cycle_closing_op_aborts() {
        let mut p = proto_with(2);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant); // T1 -> T2
        assert_eq!(p.on_read(t(2), x(2)), Decision::Grant);
        // T1 writing x2 would add T2 -> T1: cycle.
        assert_eq!(
            p.on_write(t(1), x(2)),
            Decision::Abort(AbortReason::SerializationCycle)
        );
    }

    #[test]
    fn acyclic_interleaving_grants() {
        let mut p = proto_with(2);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(2)), Decision::Grant);
        // T1 -> T2 twice: still acyclic.
        p.on_end(t(2), true);
        p.on_end(t(1), true);
    }

    #[test]
    fn dirty_item_blocks_other_txns() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        let woken = p.on_end(t(1), true);
        assert_eq!(woken, vec![t(2)]);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Grant);
    }

    #[test]
    fn dirty_wait_deadlock_detected() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(2)), Decision::Grant);
        assert_eq!(p.on_read(t(1), x(2)), Decision::Block);
        assert_eq!(p.check_deadlock(t(1)), DeadlockOutcome::None);
        assert_eq!(p.on_read(t(2), x(1)), Decision::Block);
        match p.check_deadlock(t(2)) {
            DeadlockOutcome::Victim(v) => assert!(v == t(1) || v == t(2)),
            DeadlockOutcome::None => panic!("deadlock expected"),
        }
    }

    #[test]
    fn aborted_txn_edges_removed() {
        let mut p = proto_with(2);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
        p.on_end(t(1), false); // abort T1: edge T1->T2 gone
                               // T2 can now do anything without cycling through T1.
        assert_eq!(p.on_read(t(2), x(2)), Decision::Grant);
        assert!(!p.graph.contains_node(t(1)));
    }

    #[test]
    fn committed_source_nodes_garbage_collected() {
        let mut p = proto_with(2);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        p.on_end(t(1), true);
        // t1 committed with no incoming edges: forgotten.
        assert!(!p.graph.contains_node(t(1)));
        assert!(!p.txns.contains_key(&t(1)));
        // A later conflicting access gains no edge from the forgotten node.
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant);
        assert_eq!(p.graph.edge_count(), 0);
    }

    #[test]
    fn committed_node_with_incoming_edge_retained() {
        let mut p = proto_with(2);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant); // T1 -> T2
        p.on_end(t(2), true);
        // T2 committed but has an incoming edge from active T1: retained.
        assert!(p.graph.contains_node(t(2)));
        // T1 must still be unable to read T2's... write order means T2->T1
        // edge would close the cycle.
        assert_eq!(
            p.on_read(t(1), x(1)),
            Decision::Abort(AbortReason::SerializationCycle)
        );
    }

    #[test]
    fn own_dirty_write_ok() {
        let mut p = proto_with(1);
        assert_eq!(p.on_write(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
    }

    #[test]
    fn forgetting_cascades_along_the_chain() {
        // T1 -> T2 -> T3, committed last to first: T3 and T2 are retained
        // until T1's commit frees the whole chain.
        let mut p = proto_with(3);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_read(t(2), x(2)), Decision::Grant);
        assert_eq!(p.on_write(t(3), x(2)), Decision::Grant); // T2 -> T3
        p.on_end(t(3), true);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant); // T1 -> T2
        p.on_end(t(2), true);
        assert_eq!(p.graph.node_count(), 3);
        p.on_end(t(1), true);
        assert_eq!(p.graph.node_count(), 0);
        assert!(p.txns.is_empty());
    }

    #[test]
    fn abort_frees_committed_successors() {
        let mut p = proto_with(2);
        assert_eq!(p.on_read(t(1), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(2), x(1)), Decision::Grant); // T1 -> T2
        p.on_end(t(2), true);
        assert!(p.graph.contains_node(t(2)));
        p.on_end(t(1), false);
        assert_eq!(p.graph.node_count(), 0);
        assert!(p.txns.is_empty());
    }

    #[test]
    fn items_are_forgotten_with_their_last_access() {
        let mut p = SerializationGraphTesting::new();
        for i in 1..=50 {
            p.on_begin(t(i), i);
            assert_eq!(p.on_read(t(i), x(2 * i)), Decision::Grant);
            assert_eq!(p.on_write(t(i), x(2 * i + 1)), Decision::Grant);
            p.on_end(t(i), i % 5 != 0);
        }
        assert!(p.items.is_empty(), "{} items remembered", p.items.len());
        assert!(p.txns.is_empty() && p.age.is_empty());
        // An item is kept exactly while someone's access to it is.
        p.on_begin(t(51), 51);
        p.on_begin(t(52), 52);
        assert_eq!(p.on_read(t(51), x(1)), Decision::Grant);
        assert_eq!(p.on_write(t(52), x(1)), Decision::Grant); // T51 -> T52
        p.on_end(t(52), true);
        assert_eq!(p.items.len(), 1);
        p.on_end(t(51), true);
        assert!(p.items.is_empty());
    }
}
