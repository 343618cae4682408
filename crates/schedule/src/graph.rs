//! A small directed-graph toolkit.
//!
//! Serialization graphs, waits-for graphs (2PL deadlock detection), local
//! SGT conflict graphs and the global quotient graph all need the same
//! operations: insert/remove nodes and edges, cycle detection, topological
//! sort and path queries. [`DiGraph`] keeps them in one generic,
//! well-tested place.
//!
//! [`DiGraph`] is built for incremental mutation (nodes come and go as
//! transactions start and finish): adjacency is a
//! `BTreeMap<N, BTreeSet<N>>`, giving deterministic iteration order — which
//! matters for reproducible experiments — and `O(log v)` updates. The one
//! whole-graph pass that end-of-run audits repeat over tens of thousands
//! of transactions, the topological sort, does not walk those maps:
//! [`lex_topo_order`] is the repository's only Kahn, over dense ranks, and
//! [`DiGraph::topo_sort`], the conflict auditors and the `ser(S)` check all
//! call it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// The lexicographically smallest topological order of the digraph with
/// node set `nodes` and edge list `edges`, or `None` iff it has a cycle
/// (a self-loop is one).
///
/// `nodes` may arrive unsorted and with repeats; every edge endpoint must
/// be among them. Parallel edges are allowed and change nothing. Because
/// the smallest ready node is always taken next, the result depends only
/// on the *transitive closure* of `edges`, neither on their order nor on
/// which reduction of the relation the caller chose to list — so a linear
/// conflict sweep and the all-pairs conflict relation yield the same
/// witness.
///
/// Kahn's algorithm over dense ranks: nodes are ranked by position in the
/// sorted `nodes`, edges bucketed by source into compressed sparse rows,
/// and the ready set is a min-heap: `O((v + e) log v)`, no per-node or
/// per-edge allocation.
///
/// # Panics
///
/// If an edge endpoint is not in `nodes` — a bug in the caller.
pub fn lex_topo_order<N: Ord + Copy>(
    mut nodes: Vec<N>,
    edges: impl IntoIterator<Item = (N, N)>,
) -> Option<Vec<N>> {
    nodes.sort_unstable();
    nodes.dedup();
    let n = nodes.len();
    let rank = |node: &N| {
        nodes
            .binary_search(node)
            .expect("every edge endpoint is listed in `nodes`")
    };
    let ranked: Vec<(usize, usize)> = edges
        .into_iter()
        .map(|(a, b)| (rank(&a), rank(&b)))
        .collect();

    // Rows: `succ[row[a]..row[a + 1]]` are the successors of rank `a`.
    let mut row = vec![0usize; n + 1];
    let mut indegree = vec![0usize; n];
    for &(a, b) in &ranked {
        row[a + 1] += 1;
        indegree[b] += 1;
    }
    for a in 0..n {
        row[a + 1] += row[a];
    }
    let mut fill = row.clone();
    let mut succ = vec![0usize; ranked.len()];
    for &(a, b) in &ranked {
        succ[fill[a]] = b;
        fill[a] += 1;
    }

    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&a| indegree[a] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(a)) = ready.pop() {
        order.push(nodes[a]);
        for &b in &succ[row[a]..row[a + 1]] {
            indegree[b] -= 1;
            if indegree[b] == 0 {
                ready.push(Reverse(b));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// A directed graph over copyable ordered node ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiGraph<N: Ord + Copy> {
    succ: BTreeMap<N, BTreeSet<N>>,
    pred: BTreeMap<N, BTreeSet<N>>,
}

impl<N: Ord + Copy> DiGraph<N> {
    /// An empty graph.
    pub fn new() -> Self {
        DiGraph {
            succ: BTreeMap::new(),
            pred: BTreeMap::new(),
        }
    }

    /// Insert a node (no-op if present).
    pub fn add_node(&mut self, n: N) {
        self.succ.entry(n).or_default();
        self.pred.entry(n).or_default();
    }

    /// True iff the node exists.
    pub fn contains_node(&self, n: N) -> bool {
        self.succ.contains_key(&n)
    }

    /// Insert edge `a -> b`, adding missing endpoints. Returns `true` if the
    /// edge was new.
    pub fn add_edge(&mut self, a: N, b: N) -> bool {
        self.add_node(a);
        self.add_node(b);
        let inserted = self.succ.get_mut(&a).expect("node a just added").insert(b);
        self.pred.get_mut(&b).expect("node b just added").insert(a);
        inserted
    }

    /// True iff edge `a -> b` exists.
    pub fn has_edge(&self, a: N, b: N) -> bool {
        self.succ.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// Remove edge `a -> b` if present; returns whether it existed.
    pub fn remove_edge(&mut self, a: N, b: N) -> bool {
        let existed = self.succ.get_mut(&a).is_some_and(|s| s.remove(&b));
        if existed {
            self.pred.get_mut(&b).expect("pred mirror").remove(&a);
        }
        existed
    }

    /// Remove a node and all incident edges; returns whether it existed.
    pub fn remove_node(&mut self, n: N) -> bool {
        let Some(out) = self.succ.remove(&n) else {
            return false;
        };
        for b in out {
            self.pred.get_mut(&b).expect("pred mirror").remove(&n);
        }
        let inc = self.pred.remove(&n).expect("pred mirror");
        for a in inc {
            self.succ.get_mut(&a).expect("succ mirror").remove(&n);
        }
        true
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.values().map(BTreeSet::len).sum()
    }

    /// Iterate over nodes in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.succ.keys().copied()
    }

    /// Iterate over edges `(a, b)` in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (N, N)> + '_ {
        self.succ
            .iter()
            .flat_map(|(&a, bs)| bs.iter().map(move |&b| (a, b)))
    }

    /// Successors of `n` (empty iterator if absent).
    pub fn successors(&self, n: N) -> impl Iterator<Item = N> + '_ {
        self.succ
            .get(&n)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Predecessors of `n` (empty iterator if absent).
    pub fn predecessors(&self, n: N) -> impl Iterator<Item = N> + '_ {
        self.pred
            .get(&n)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// In-degree of `n` (0 if absent).
    pub fn in_degree(&self, n: N) -> usize {
        self.pred.get(&n).map_or(0, BTreeSet::len)
    }

    /// True iff the graph contains a directed cycle.
    pub fn has_cycle(&self) -> bool {
        self.topo_sort().is_none()
    }

    /// Topological sort; `None` iff the graph is cyclic. Ties are broken
    /// by node order ([`lex_topo_order`]), so the result is deterministic.
    pub fn topo_sort(&self) -> Option<Vec<N>> {
        lex_topo_order(self.nodes().collect(), self.edges())
    }

    /// True iff a directed path `from ->* to` exists (including length 0).
    pub fn has_path(&self, from: N, to: N) -> bool {
        if !self.contains_node(from) || !self.contains_node(to) {
            return false;
        }
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        seen.insert(from);
        while let Some(n) = queue.pop_front() {
            for m in self.successors(n) {
                if m == to {
                    return true;
                }
                if seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        false
    }

    /// Finds one directed cycle, as the list of nodes along it (first node
    /// repeated implicitly), or `None` if acyclic.
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<N, Color> = self.succ.keys().map(|&n| (n, Color::White)).collect();
        let mut parent: BTreeMap<N, N> = BTreeMap::new();

        for &root in self.succ.keys() {
            if color[&root] != Color::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, successor list).
            let mut stack = vec![(root, self.successors(root).collect::<Vec<_>>())];
            color.insert(root, Color::Gray);
            while let Some((n, succs)) = stack.last_mut() {
                let n = *n;
                if let Some(m) = succs.pop() {
                    match color[&m] {
                        Color::White => {
                            parent.insert(m, n);
                            color.insert(m, Color::Gray);
                            stack.push((m, self.successors(m).collect()));
                        }
                        Color::Gray => {
                            // Found a back edge n -> m; walk parents from n
                            // back to m to extract the cycle.
                            let mut cycle = vec![m];
                            let mut cur = n;
                            while cur != m {
                                cycle.push(cur);
                                cur = parent[&cur];
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(n, Color::Black);
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Kahn `topo_sort` ran before it delegated to [`lex_topo_order`]:
    /// in-degrees in a `BTreeMap`, the ready set a `BTreeSet` whose minimum
    /// is taken next. Kept as the reference the dense routine must equal.
    fn btree_kahn<N: Ord + Copy>(g: &DiGraph<N>) -> Option<Vec<N>> {
        let mut indeg: BTreeMap<N, usize> = g.succ.keys().map(|&n| (n, g.in_degree(n))).collect();
        let mut ready: BTreeSet<N> = indeg
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
        (out.len() == g.succ.len()).then_some(out)
    }

    fn diamond() -> DiGraph<u32> {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        g
    }

    #[test]
    fn counts_and_membership() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert!(g.contains_node(4));
        assert!(!g.contains_node(9));
    }

    #[test]
    fn add_edge_reports_novelty() {
        let mut g = DiGraph::new();
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(1, 2));
    }

    #[test]
    fn remove_node_cleans_both_directions() {
        let mut g = diamond();
        assert!(g.remove_node(4));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(2, 4));
        assert_eq!(g.successors(2).count(), 0);
        assert!(!g.remove_node(4));
    }

    #[test]
    fn remove_edge_behaviour() {
        let mut g = diamond();
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.in_degree(2), 0);
    }

    #[test]
    fn topo_sort_of_dag() {
        let g = diamond();
        let order = g.topo_sort().expect("diamond is acyclic");
        let pos = |n: u32| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(4));
        assert!(pos(3) < pos(4));
    }

    /// Dense Kahn against the reference on random graphs: the same order
    /// on every DAG, `None` exactly on the cyclic ones, and indifferent to
    /// edge order, repeated edges and unsorted, repeated nodes.
    #[test]
    fn dense_kahn_equals_btree_kahn_on_random_graphs() {
        let mut state = 0x6b61_686eu64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            mdbs_common::rng::splitmix64(state) % bound
        };
        let (mut dags, mut cyclic) = (0, 0);
        for case in 0..600u64 {
            let n = 1 + next(24);
            // Sparse ids under a random labelling, so a DAG's topological
            // order is not its id order; some nodes stay isolated.
            let mut label: Vec<u64> = (0..n).map(|i| i * 3).collect();
            for i in (1..n as usize).rev() {
                label.swap(i, next(i as u64 + 1) as usize);
            }
            let mut g = DiGraph::new();
            for &l in &label {
                g.add_node(l);
            }
            let mut listed = Vec::new();
            for _ in 0..next(3 * n) {
                let (mut a, mut b) = (next(n) as usize, next(n) as usize);
                if case % 2 == 0 {
                    // Forward-only in label position: acyclic by construction.
                    if a == b {
                        continue;
                    }
                    (a, b) = (a.min(b), a.max(b));
                }
                g.add_edge(label[a], label[b]);
                listed.push((label[a], label[b]));
            }
            let reference = btree_kahn(&g);
            assert_eq!(g.topo_sort(), reference, "case {case}");
            assert_eq!(reference.is_none(), g.find_cycle().is_some(), "case {case}");
            // Same closure, different listing: reversed, every edge twice,
            // nodes in label order and doubled.
            listed.reverse();
            let twice = listed.iter().chain(listed.iter()).copied();
            let nodes: Vec<u64> = label.iter().chain(label.iter()).copied().collect();
            assert_eq!(lex_topo_order(nodes, twice), reference, "case {case}");
            match reference {
                Some(_) => dags += 1,
                None => cyclic += 1,
            }
        }
        assert!(dags >= 300 && cyclic >= 50, "{dags} DAGs, {cyclic} cyclic");
    }

    #[test]
    fn cycle_detection() {
        let mut g = diamond();
        assert!(!g.has_cycle());
        g.add_edge(4, 1);
        assert!(g.has_cycle());
        assert!(g.topo_sort().is_none());
    }

    #[test]
    fn find_cycle_returns_an_actual_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        g.add_edge(3, 4);
        let cycle = g.find_cycle().expect("cycle exists");
        assert!(cycle.len() >= 2);
        for w in cycle.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "edge {:?} missing", w);
        }
        assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]));
    }

    #[test]
    fn find_cycle_none_on_dag() {
        assert!(diamond().find_cycle().is_none());
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(1, 1);
        assert!(g.has_cycle());
        let c = g.find_cycle().unwrap();
        assert_eq!(c, vec![1]);
    }

    #[test]
    fn has_path_queries() {
        let g = diamond();
        assert!(g.has_path(1, 4));
        assert!(!g.has_path(4, 1));
        assert!(g.has_path(2, 2));
        assert!(!g.has_path(2, 3));
        assert!(!g.has_path(1, 99));
    }

    #[test]
    fn deterministic_iteration() {
        let mut g = DiGraph::new();
        g.add_edge(3, 1);
        g.add_edge(2, 1);
        g.add_edge(1, 0);
        let nodes: Vec<u32> = g.nodes().collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }
}
