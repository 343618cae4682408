//! Global serializability analysis.
//!
//! A global schedule `S` in the paper is the union of the local schedules
//! `S_1 .. S_m`. Its serializability is judged over a **quotient** graph:
//! all subtransactions of a global transaction `G_i` are one node (a global
//! transaction must appear at one point in the global serial order), while
//! each purely local transaction is its own node.
//!
//! Because [`mdbs_common::ids::TxnId`] already embeds the site into local
//! transaction ids and uses a single id for every subtransaction of a global
//! transaction, simply unioning the per-site serialization graphs yields
//! exactly this quotient graph.
//!
//! This module is the *auditor* every simulator and threaded run ends
//! with (and experiments EXP-GS / EXP-IND read): it answers "was this run
//! of the whole MDBS globally serializable?" and, if not, produces a
//! witness cycle naming the sites involved. The answer a correct run gets
//! — [`check_global`] returning a witness order — costs one linear sweep
//! per site and one dense topological sort; the
//! [`GlobalSerializationGraph`] with its per-edge site lists is only built
//! to explain a violation.

use crate::csr::{serialization_graph, sweep_conflicts};
use crate::graph::{lex_topo_order, DiGraph};
use crate::history::History;
use mdbs_common::ids::{SiteId, TxnId};
use std::collections::BTreeMap;

/// The union (quotient) serialization graph of a set of local histories.
#[derive(Clone, Debug)]
pub struct GlobalSerializationGraph {
    /// Quotient graph: one node per global transaction or local transaction.
    pub graph: DiGraph<TxnId>,
    /// For every edge of `graph`, the sites whose sweep emitted it (for
    /// diagnostics). The graph is a reduction of the conflict relation, so
    /// a site that orders two transactions only through a third is listed
    /// on those two edges, not on a direct one.
    pub edge_sites: BTreeMap<(TxnId, TxnId), Vec<SiteId>>,
}

impl GlobalSerializationGraph {
    /// Build from per-site histories.
    pub fn build<'a>(locals: impl IntoIterator<Item = (SiteId, &'a History)>) -> Self {
        let mut graph = DiGraph::new();
        let mut edge_sites: BTreeMap<(TxnId, TxnId), Vec<SiteId>> = BTreeMap::new();
        for (site, h) in locals {
            let g = serialization_graph(h);
            for n in g.nodes() {
                graph.add_node(n);
            }
            for (a, b) in g.edges() {
                graph.add_edge(a, b);
                edge_sites.entry((a, b)).or_default().push(site);
            }
        }
        GlobalSerializationGraph { graph, edge_sites }
    }

    /// Analyze for global serializability.
    pub fn check(&self) -> GlobalSerializability {
        match self.graph.topo_sort() {
            Some(order) => GlobalSerializability::Serializable { order },
            None => {
                let cycle = self.graph.find_cycle().expect("cyclic graph has a cycle");
                let mut sites = Vec::new();
                for i in 0..cycle.len() {
                    let a = cycle[i];
                    let b = cycle[(i + 1) % cycle.len()];
                    if let Some(s) = self.edge_sites.get(&(a, b)) {
                        for &site in s {
                            if !sites.contains(&site) {
                                sites.push(site);
                            }
                        }
                    }
                }
                GlobalSerializability::NotSerializable { cycle, sites }
            }
        }
    }
}

/// Verdict of the global-serializability auditor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalSerializability {
    /// The global schedule is serializable; `order` is one witness global
    /// serial order over all (global and local) transactions.
    Serializable {
        /// Witness serialization order.
        order: Vec<TxnId>,
    },
    /// Not serializable: `cycle` is a cycle in the quotient graph and
    /// `sites` the sites whose conflicts participate in it.
    NotSerializable {
        /// Offending transaction cycle.
        cycle: Vec<TxnId>,
        /// Sites inducing the cycle's edges.
        sites: Vec<SiteId>,
    },
}

impl GlobalSerializability {
    /// True iff serializable.
    pub fn is_serializable(&self) -> bool {
        matches!(self, GlobalSerializability::Serializable { .. })
    }
}

/// Check a set of local histories for global serializability.
///
/// All sites' conflict sweeps go into one node list and one edge list —
/// the quotient graph, since a global transaction has one id everywhere —
/// and [`lex_topo_order`] decides. Its order depends only on the union's
/// transitive closure, so it is the order
/// [`GlobalSerializationGraph::check`] reports; that graph is built only
/// when there is a cycle to name.
pub fn check_global<'a>(
    locals: impl IntoIterator<Item = (SiteId, &'a History)>,
) -> GlobalSerializability {
    let locals: Vec<(SiteId, &History)> = locals.into_iter().collect();
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    for (_, h) in &locals {
        sweep_conflicts(h, &mut nodes, &mut edges);
    }
    match lex_topo_order(nodes, edges) {
        Some(order) => GlobalSerializability::Serializable { order },
        None => GlobalSerializationGraph::build(locals).check(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::all_pairs_serialization_graph;
    use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId};
    use mdbs_common::ops::DataOp;

    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    /// The failing path names real witnesses: every step of `cycle` is a
    /// conflict of the all-pairs oracle at some site, and `sites` is
    /// non-empty and names only sites that induce one of those steps.
    fn assert_real_witness(locals: &[(SiteId, &History)], verdict: &GlobalSerializability) {
        let GlobalSerializability::NotSerializable { cycle, sites } = verdict else {
            panic!("must not be serializable");
        };
        let mut inducing = Vec::new();
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            let at: Vec<SiteId> = locals
                .iter()
                .filter(|(_, h)| all_pairs_serialization_graph(h).has_edge(a, b))
                .map(|&(site, _)| site)
                .collect();
            assert!(!at.is_empty(), "{a:?} -> {b:?} conflicts at no site");
            inducing.extend(at);
        }
        assert!(!sites.is_empty());
        for site in sites {
            assert!(inducing.contains(site), "{site:?} induces no cycle edge");
        }
    }

    /// The paper's motivating scenario: each local schedule serializable,
    /// but the two sites order G1 and G2 oppositely — globally broken.
    #[test]
    fn opposite_local_orders_break_global_serializability() {
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let s1 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(5)),
            DataOp::commit(GlobalTxnId(2)),
            DataOp::begin(GlobalTxnId(1)),
            DataOp::read(GlobalTxnId(1), x(5)),
            DataOp::commit(GlobalTxnId(1)),
        ]);
        assert!(crate::csr::is_conflict_serializable(&s0));
        assert!(crate::csr::is_conflict_serializable(&s1));
        let locals = [(SiteId(0), &s0), (SiteId(1), &s1)];
        let verdict = check_global(locals);
        assert_real_witness(&locals, &verdict);
        match verdict {
            GlobalSerializability::NotSerializable { cycle, sites } => {
                assert_eq!(cycle.len(), 2);
                assert_eq!(sites.len(), 2);
            }
            GlobalSerializability::Serializable { .. } => panic!("must not be serializable"),
        }
    }

    /// Indirect conflict (Section 1): global transactions access disjoint
    /// items at a site, but a *local* transaction bridges them.
    #[test]
    fn indirect_conflict_via_local_txn_detected() {
        let l = TxnId::Local(LocalTxnId {
            site: SiteId(0),
            seq: 1,
        });
        // Site 0: G1 writes a; local L reads a then writes b; G2 reads b.
        // Induces G1 -> L -> G2 even though G1, G2 share no item.
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Begin,
                item: None,
            },
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Read,
                item: Some(x(1)),
            },
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Write,
                item: Some(x(2)),
            },
            DataOp {
                txn: l,
                kind: mdbs_common::ops::DataOpKind::Commit,
                item: None,
            },
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(2)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        // Site 1: G2 before G1 directly.
        let s1 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(7)),
            DataOp::commit(GlobalTxnId(2)),
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(7)),
            DataOp::commit(GlobalTxnId(1)),
        ]);
        let locals = [(SiteId(0), &s0), (SiteId(1), &s1)];
        let verdict = check_global(locals);
        assert!(!verdict.is_serializable());
        assert_real_witness(&locals, &verdict);
        // G1 -> L -> G2 is site 0's doing, G2 -> G1 site 1's.
        let GlobalSerializability::NotSerializable { cycle, sites } = verdict else {
            unreachable!();
        };
        assert_eq!(cycle.len(), 3);
        assert!(cycle.contains(&l));
        assert_eq!(sites.len(), 2);
    }

    #[test]
    fn consistent_orders_are_serializable_with_witness() {
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let s1 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(3)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::write(GlobalTxnId(2), x(3)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let verdict = check_global([(SiteId(0), &s0), (SiteId(1), &s1)]);
        match verdict {
            GlobalSerializability::Serializable { order } => {
                let pos = |t: TxnId| order.iter().position(|&x| x == t).unwrap();
                assert!(pos(TxnId::Global(GlobalTxnId(1))) < pos(TxnId::Global(GlobalTxnId(2))));
            }
            GlobalSerializability::NotSerializable { .. } => panic!("should be serializable"),
        }
    }

    #[test]
    fn empty_system_is_serializable() {
        let verdict = check_global(std::iter::empty::<(SiteId, &History)>());
        assert!(verdict.is_serializable());
    }

    #[test]
    fn edge_sites_recorded() {
        let s0 = History::from_ops(vec![
            DataOp::begin(GlobalTxnId(1)),
            DataOp::write(GlobalTxnId(1), x(1)),
            DataOp::commit(GlobalTxnId(1)),
            DataOp::begin(GlobalTxnId(2)),
            DataOp::read(GlobalTxnId(2), x(1)),
            DataOp::commit(GlobalTxnId(2)),
        ]);
        let g = GlobalSerializationGraph::build([(SiteId(3), &s0)]);
        let key = (TxnId::Global(GlobalTxnId(1)), TxnId::Global(GlobalTxnId(2)));
        assert_eq!(g.edge_sites.get(&key), Some(&vec![SiteId(3)]));
    }
}
