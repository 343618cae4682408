//! `ser(S)` — the schedule of serialization events.
//!
//! Theorem 2 of the paper: a global schedule `S` is serializable if
//! `ser(S)` is serializable, where the operations of `ser(S)` are the
//! `ser_k(G_i)` events and two operations conflict **iff they occur at the
//! same site**. GTM2 controls the execution order of these events, so its
//! act order per site *is* the local conflict order; `ser(S)` is
//! serializable iff the union of the per-site total orders is acyclic over
//! transactions.
//!
//! [`SerSLog`] records the act order and performs that check — the
//! empirical verification of Theorems 3, 5 and 8 for each scheme.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_schedule::{lex_topo_order, DiGraph};
use std::collections::BTreeMap;

/// The recorded `ser(S)`: per-site sequences of serialization events in
/// execution (act) order.
#[derive(Clone, Debug, Default)]
pub struct SerSLog {
    per_site: BTreeMap<SiteId, Vec<GlobalTxnId>>,
    total: Vec<(GlobalTxnId, SiteId)>,
}

impl SerSLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `ser_site(txn)` was acted (submitted for execution).
    pub fn record(&mut self, txn: GlobalTxnId, site: SiteId) {
        self.per_site.entry(site).or_default().push(txn);
        self.total.push((txn, site));
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }

    /// All events in global act order.
    pub fn events(&self) -> &[(GlobalTxnId, SiteId)] {
        &self.total
    }

    /// The event sequence of one site.
    pub fn site_order(&self, site: SiteId) -> &[GlobalTxnId] {
        self.per_site.get(&site).map_or(&[], Vec::as_slice)
    }

    /// Build the serialization graph of `ser(S)` in transitive-reduction
    /// form: per site, an edge between *consecutive* events only. A site's
    /// act order is a total order, so its full conflict relation is the
    /// transitive closure of this chain — reachability (and therefore the
    /// acyclicity verdict and any topological witness) is identical, while
    /// construction is `O(events)` instead of `O(events²)` per site. The
    /// quadratic all-pairs build used to dominate large-replay wall-clock
    /// (~97% of Scheme 0 at 1000 txns) and capped every engine speedup.
    pub fn graph(&self) -> DiGraph<GlobalTxnId> {
        self.graph_excluding(&[])
    }

    /// [`graph`](SerSLog::graph) over the committed projection: events of
    /// `aborted` transactions are dropped *before* chaining, so surviving
    /// neighbours of an excluded event stay connected (removing a node
    /// from an already-built chain would break transitivity).
    pub fn graph_excluding(&self, aborted: &[GlobalTxnId]) -> DiGraph<GlobalTxnId> {
        let (nodes, edges) = self.chains_excluding(aborted);
        let mut g = DiGraph::new();
        for txn in nodes {
            g.add_node(txn);
        }
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// The surviving transactions (one entry per event) and the
    /// consecutive-event edges of every site, `aborted` dropped first.
    fn chains_excluding(
        &self,
        aborted: &[GlobalTxnId],
    ) -> (Vec<GlobalTxnId>, Vec<(GlobalTxnId, GlobalTxnId)>) {
        // Non-conservative baselines abort a large share of what they run:
        // membership is asked once per event, so sort once and bisect.
        let mut aborted = aborted.to_vec();
        aborted.sort_unstable();
        let survives = |txn: &GlobalTxnId| aborted.binary_search(txn).is_err();
        let nodes = self
            .total
            .iter()
            .map(|(txn, _)| *txn)
            .filter(survives)
            .collect();
        let mut edges = Vec::new();
        for order in self.per_site.values() {
            let mut prev: Option<GlobalTxnId> = None;
            for &b in order.iter().filter(|t| survives(t)) {
                if let Some(a) = prev {
                    if a != b {
                        edges.push((a, b));
                    }
                }
                prev = Some(b);
            }
        }
        (nodes, edges)
    }

    /// Check serializability of the recorded `ser(S)`. Returns the witness
    /// total order (Theorem 1's total order on global transactions), or the
    /// offending cycle.
    pub fn check(&self) -> Result<Vec<GlobalTxnId>, Vec<GlobalTxnId>> {
        self.check_excluding(&[])
    }

    /// Check serializability of the *committed projection* of `ser(S)` —
    /// events of aborted transactions excluded. Non-conservative baselines
    /// execute events of transactions they later abort, so their
    /// correctness claim is over this projection (exactly like the
    /// committed projection of a history).
    ///
    /// The verdict and the witness come from one dense topological sort of
    /// the chains; the [`DiGraph`] is built only to extract a cycle.
    #[expect(
        clippy::expect_used,
        reason = "no topological order means the graph is cyclic, so find_cycle always succeeds."
    )]
    pub fn check_excluding(
        &self,
        aborted: &[GlobalTxnId],
    ) -> Result<Vec<GlobalTxnId>, Vec<GlobalTxnId>> {
        let (nodes, edges) = self.chains_excluding(aborted);
        lex_topo_order(nodes, edges).ok_or_else(|| {
            self.graph_excluding(aborted)
                .find_cycle()
                .expect("cyclic graph has a cycle")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    /// `Err(cycle)` must walk real edges of the graph it was found in.
    fn assert_is_cycle_of(graph: &DiGraph<GlobalTxnId>, cycle: &[GlobalTxnId]) {
        assert!(!cycle.is_empty());
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            assert!(graph.has_edge(a, b), "{a} -> {b} is not an edge");
        }
    }

    #[test]
    fn consistent_orders_serializable() {
        let mut log = SerSLog::new();
        log.record(g(1), s(0));
        log.record(g(1), s(1));
        log.record(g(2), s(0));
        log.record(g(2), s(1));
        let order = log.check().expect("serializable");
        let pos = |t| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(g(1)) < pos(g(2)));
    }

    #[test]
    fn opposite_orders_cycle() {
        let mut log = SerSLog::new();
        log.record(g(1), s(0));
        log.record(g(2), s(0));
        log.record(g(2), s(1));
        log.record(g(1), s(1));
        let cycle = log.check().expect_err("must cycle");
        assert_eq!(cycle.len(), 2);
        assert_is_cycle_of(&log.graph(), &cycle);
    }

    #[test]
    fn single_site_is_always_serializable() {
        let mut log = SerSLog::new();
        for i in (1..=5).rev() {
            log.record(g(i), s(0));
        }
        assert_eq!(log.check().unwrap(), vec![g(5), g(4), g(3), g(2), g(1)]);
    }

    #[test]
    fn disjoint_sites_never_conflict() {
        let mut log = SerSLog::new();
        log.record(g(1), s(0));
        log.record(g(2), s(1));
        assert!(log.check().is_ok());
        assert_eq!(log.graph().edge_count(), 0);
    }

    /// The chain-edge graph must give the same verdict *and the same
    /// witness order* as the full all-pairs conflict graph it is the
    /// transitive reduction of — including under exclusion, where events
    /// must be filtered *before* chaining — and a reported cycle must be a
    /// cycle of `graph_excluding`.
    #[test]
    fn chain_graph_check_matches_all_pairs() {
        let mut state = 0x5e75u64;
        let mut next = move || {
            state = state.wrapping_add(1);
            mdbs_common::rng::splitmix64(state)
        };
        let mut cycles = 0;
        for case in 0..200u64 {
            let mut log = SerSLog::new();
            let txns = 2 + (next() % 8);
            let sites = 1 + (next() % 4) as u32;
            for _ in 0..(txns * 2) {
                log.record(g(1 + next() % txns), s((next() % u64::from(sites)) as u32));
            }
            // Unsorted, so the check's own sort is exercised.
            let aborted: Vec<GlobalTxnId> = (1..=txns)
                .rev()
                .filter(|_| next() % 4 == 0)
                .map(g)
                .collect();
            // Brute-force all-pairs graph over the committed projection.
            let mut full = DiGraph::new();
            for (txn, _) in log.events() {
                if !aborted.contains(txn) {
                    full.add_node(*txn);
                }
            }
            for (_, order) in log.per_site.iter() {
                let kept: Vec<_> = order.iter().filter(|t| !aborted.contains(t)).collect();
                for i in 0..kept.len() {
                    for j in (i + 1)..kept.len() {
                        if kept[i] != kept[j] {
                            full.add_edge(*kept[i], *kept[j]);
                        }
                    }
                }
            }
            match log.check_excluding(&aborted) {
                Ok(order) => assert_eq!(Some(order), full.topo_sort(), "case {case}"),
                Err(cycle) => {
                    assert!(full.topo_sort().is_none(), "case {case}: spurious cycle");
                    assert_is_cycle_of(&log.graph_excluding(&aborted), &cycle);
                    cycles += 1;
                }
            }
        }
        assert!((20..180).contains(&cycles), "{cycles} of 200 cases cyclic");
    }

    #[test]
    fn site_order_accessor() {
        let mut log = SerSLog::new();
        log.record(g(2), s(3));
        log.record(g(1), s(3));
        assert_eq!(log.site_order(s(3)), &[g(2), g(1)]);
        assert_eq!(log.site_order(s(9)), &[] as &[GlobalTxnId]);
        assert_eq!(log.len(), 2);
    }
}
