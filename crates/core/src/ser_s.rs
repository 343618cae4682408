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
//!
//! Recording costs O(1) per event whatever the length of the history:
//! each site is numbered the first time it is recorded, and its chain of
//! events lives at that number in a `Vec` (one hash probe per event). The
//! audit ranks once, with no search per event: one radix sort puts every
//! event in transaction-id order, a sweep of that order ranks the
//! distinct transactions and writes each event's rank at its place, and
//! the chains' consecutive events, read off as rank pairs, go to
//! [`lex_topo_ranks`], the workspace's one Kahn. The log holds nothing per
//! transaction besides its events.

use mdbs_common::dense::IdHashMap;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_schedule::{lex_topo_ranks, DiGraph};
use std::collections::hash_map::Entry;

/// The recorded `ser(S)`: per-site sequences of serialization events in
/// execution (act) order.
#[derive(Clone, Debug, Default)]
pub struct SerSLog {
    /// Every event in act order.
    total: Vec<(GlobalTxnId, SiteId)>,
    /// Site → its number: its position in `per_site`.
    site_numbers: IdHashMap<SiteId, usize>,
    /// Each site's events in act order, by site number.
    per_site: Vec<Vec<GlobalTxnId>>,
}

/// The committed projection of a [`SerSLog`], ranked: `txns[r]` is the
/// transaction of rank `r` (ranks follow id order), and `edges` are the
/// consecutive-event pairs of every site as ranks.
struct Ranked {
    txns: Vec<GlobalTxnId>,
    edges: Vec<(u32, u32)>,
}

impl SerSLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `ser_site(txn)` was acted (submitted for execution).
    pub fn record(&mut self, txn: GlobalTxnId, site: SiteId) {
        match self.site_numbers.entry(site) {
            Entry::Occupied(number) => {
                if let Some(chain) = self.per_site.get_mut(*number.get()) {
                    chain.push(txn);
                }
            }
            Entry::Vacant(number) => {
                number.insert(self.per_site.len());
                self.per_site.push(vec![txn]);
            }
        }
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
        self.site_numbers
            .get(&site)
            .and_then(|&k| self.per_site.get(k))
            .map_or(&[], Vec::as_slice)
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
        self.ranked_excluding(aborted).graph()
    }

    /// The surviving transactions ranked by id, and the consecutive-event
    /// edges of every site between their ranks, `aborted` dropped first.
    /// Every event is put in id order by one radix sort; a sweep of that
    /// order ranks the distinct survivors and writes each event's rank at
    /// its place in the chains, which then read their edges off it.
    #[expect(
        clippy::indexing_slicing,
        reason = "a place is a position in the chains laid end to end, which `rank_at` is as long as."
    )]
    #[expect(
        clippy::expect_used,
        reason = "2^32 - 1 events is past any run's size; the ranks are 32-bit for the Kahn's sake."
    )]
    fn ranked_excluding(&self, aborted: &[GlobalTxnId]) -> Ranked {
        const DROPPED: u32 = u32::MAX;
        // Places and ranks stay below the event count, so below `DROPPED`.
        let events = u32::try_from(self.total.len())
            .ok()
            .filter(|&n| n < DROPPED)
            .expect("fewer than 2^32 - 1 events");
        // Non-conservative baselines abort a large share of what they run:
        // sort once and bisect, once per distinct transaction.
        let mut aborted = aborted.to_vec();
        aborted.sort_unstable();
        // Each event's transaction id and place, the chains laid end to end.
        let mut keyed: Vec<(u64, u32)> = (0..events)
            .zip(self.per_site.iter().flatten())
            .map(|(at, txn)| (txn.0, at))
            .collect();
        radix_sort(&mut keyed);
        let mut rank_at = vec![DROPPED; keyed.len()];
        let mut txns = Vec::new();
        let mut rank = DROPPED;
        let mut previous = None;
        for &(id, at) in &keyed {
            let txn = GlobalTxnId(id);
            if previous != Some(txn) {
                previous = Some(txn);
                rank = DROPPED;
                if aborted.binary_search(&txn).is_err() {
                    rank = txns.len() as u32;
                    txns.push(txn);
                }
            }
            rank_at[at as usize] = rank;
        }
        let mut edges = Vec::with_capacity(keyed.len());
        let mut rest = rank_at.as_slice();
        for chain in &self.per_site {
            let (here, after) = rest.split_at(chain.len());
            rest = after;
            let mut prev = DROPPED;
            for &b in here.iter().filter(|&&b| b != DROPPED) {
                if prev != DROPPED && prev != b {
                    edges.push((prev, b));
                }
                prev = b;
            }
        }
        Ranked { txns, edges }
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
    /// The verdict and the witness — the smallest topological order by id
    /// — come from one rank-level topological sort of the chains
    /// ([`lex_topo_ranks`]); the [`DiGraph`] is built only to extract a
    /// cycle.
    ///
    /// # Panics
    ///
    /// If the log holds 2³² − 1 events or more.
    #[expect(
        clippy::expect_used,
        reason = "no topological order means the graph is cyclic, so find_cycle always succeeds."
    )]
    pub fn check_excluding(
        &self,
        aborted: &[GlobalTxnId],
    ) -> Result<Vec<GlobalTxnId>, Vec<GlobalTxnId>> {
        let ranked = self.ranked_excluding(aborted);
        match lex_topo_ranks(ranked.txns.len(), &ranked.edges) {
            Some(order) => Ok(order
                .into_iter()
                .filter_map(|r| ranked.txns.get(r as usize).copied())
                .collect()),
            None => Err(ranked
                .graph()
                .find_cycle()
                .expect("cyclic graph has a cycle")),
        }
    }
}

impl Ranked {
    /// The ranked chains as a graph over transaction ids.
    fn graph(&self) -> DiGraph<GlobalTxnId> {
        let mut g = DiGraph::new();
        for &txn in &self.txns {
            g.add_node(txn);
        }
        let id = |r: u32| self.txns.get(r as usize).copied();
        for &(a, b) in &self.edges {
            if let (Some(a), Some(b)) = (id(a), id(b)) {
                g.add_edge(a, b);
            }
        }
        g
    }
}

/// Sort `pairs` by key: a least-significant-digit radix sort, one
/// counting pass per byte that some key has set (two for keys below
/// 2¹⁶), each pass stable.
#[expect(
    clippy::indexing_slicing,
    reason = "a digit is below 256, and a bucket's next slot stays below the count of the keys before and in it."
)]
fn radix_sort(pairs: &mut Vec<(u64, u32)>) {
    let used = pairs.iter().fold(0, |bits, &(key, _)| bits | key);
    let mut spare = vec![(0, 0); pairs.len()];
    let mut shift = 0;
    while shift < u64::BITS && used >> shift != 0 {
        let digit = |key: u64| (key >> shift & 0xff) as usize;
        let mut next = [0usize; 256];
        for &(key, _) in pairs.iter() {
            next[digit(key)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        for &pair in pairs.iter() {
            let slot = &mut next[digit(pair.0)];
            spare[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(pairs, &mut spare);
        shift += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// A Kahn that shares no code with the audit: in-degrees in a
    /// `BTreeMap`, the ready set a `BTreeSet` whose minimum is taken next.
    /// A copy of the reference `mdbs_schedule`'s graph tests keep under
    /// this name, over the graph's public API.
    fn btree_kahn(g: &DiGraph<GlobalTxnId>) -> Option<Vec<GlobalTxnId>> {
        let mut indeg: BTreeMap<GlobalTxnId, usize> =
            g.nodes().map(|n| (n, g.in_degree(n))).collect();
        let mut ready: BTreeSet<GlobalTxnId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::with_capacity(indeg.len());
        while let Some(n) = ready.pop_first() {
            out.push(n);
            for m in g.successors(n) {
                let d = indeg.get_mut(&m).expect("successor node exists");
                *d -= 1;
                if *d == 0 {
                    ready.insert(m);
                }
            }
        }
        (out.len() == g.node_count()).then_some(out)
    }

    /// The chain-edge graph must give the same verdict *and the same
    /// witness order* as the full all-pairs conflict graph it is the
    /// transitive reduction of, sorted by [`btree_kahn`] — including
    /// under exclusion, where events must be filtered *before* chaining,
    /// and with a transaction's events repeated at a site — and a reported
    /// cycle must be a cycle of `graph_excluding`.
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
            // Every other case spreads the ids over all 64 bits, so the
            // audit's radix sort runs every pass.
            let id = |i: u64| match case % 2 {
                0 => g(i),
                _ => g(mdbs_common::rng::splitmix64(i)),
            };
            for _ in 0..(txns * 2) {
                log.record(id(1 + next() % txns), s((next() % u64::from(sites)) as u32));
            }
            // Unsorted, so the check's own sort is exercised.
            let aborted: Vec<GlobalTxnId> = (1..=txns)
                .rev()
                .filter(|_| next() % 4 == 0)
                .map(id)
                .collect();
            // Brute-force all-pairs graph over the committed projection.
            let mut full = DiGraph::new();
            for (txn, _) in log.events() {
                if !aborted.contains(txn) {
                    full.add_node(*txn);
                }
            }
            for order in &log.per_site {
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
                Ok(order) => assert_eq!(Some(order), btree_kahn(&full), "case {case}"),
                Err(cycle) => {
                    assert!(btree_kahn(&full).is_none(), "case {case}: spurious cycle");
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
