//! The Transaction-Site Graph with Dependencies (TSGD) — Section 6.
//!
//! A TSGD is `(V, E, D)`: transaction and site nodes, undirected edges
//! `(Ĝ_i, s_k)`, and **dependencies** between edges incident on a common
//! site node. A dependency `(Ĝ_i, s_k) → (s_k, Ĝ_j)` records that
//! `ser_k(G_i)` is processed before `ser_k(G_j)`.
//!
//! ## Cycles
//!
//! Edges `(v_1,v_2), (v_2,v_3), …, (v_k,v_1)` with `v_1` a *transaction*
//! node and all nodes distinct form a cycle iff the traversal can proceed
//! in at least one direction with **no dependency along the traversal
//! direction at any site turn** — a dependency `(v_{i-1},v_i) → (v_i,
//! v_{i+1})` on the path *breaks* that direction (the order is already
//! pinned; only undetermined or consistently opposite orders are
//! dangerous). The TSGD is acyclic iff no such cycle exists; Scheme 2
//! maintains acyclicity, which keeps `ser(S)` serializable (Theorem 5).
//!
//! ## This module
//!
//! - [`Tsgd`] — the structure with node/edge/dependency bookkeeping;
//! - [`Tsgd::has_cycle_involving`] — a direct (exponential, test-grade)
//!   implementation of the cycle definition, used for invariant checking
//!   and as ground truth;
//! - [`eliminate_cycles`] — the paper's Figure 4 procedure: a polynomial
//!   marking traversal returning a dependency set `Δ` (all of the form
//!   `(Ĝ_j, s_k) → (s_k, Ĝ_i)`) such that `(V, E, D ∪ Δ)` has no cycle
//!   involving `Ĝ_i`;
//! - [`minimal_delta_exact`] — exponential search for a minimum-size `Δ`,
//!   the problem Theorem 7 proves NP-hard (computing a *minimal* Δ), used
//!   by experiment EXP-NP to exhibit the blow-up and the gap between
//!   `Eliminate_Cycles` and the optimum.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::step::{StepCounter, StepKind};
use std::collections::{BTreeMap, BTreeSet};

/// A dependency `(txn_before, site) → (site, txn_after)`: `ser_site(before)`
/// is processed before `ser_site(after)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Dep {
    /// Common site node.
    pub site: SiteId,
    /// Transaction whose event comes first.
    pub before: GlobalTxnId,
    /// Transaction whose event comes second.
    pub after: GlobalTxnId,
}

/// The TSGD.
///
/// ```
/// use mdbs_core::tsgd::{eliminate_cycles, Tsgd};
/// use mdbs_common::ids::{GlobalTxnId, SiteId};
/// use mdbs_common::step::StepCounter;
/// use std::collections::BTreeSet;
///
/// // Two transactions sharing two sites: undetermined orders = a cycle.
/// let mut tsgd = Tsgd::new();
/// tsgd.insert_txn(GlobalTxnId(1), &[SiteId(0), SiteId(1)]);
/// tsgd.insert_txn(GlobalTxnId(2), &[SiteId(0), SiteId(1)]);
/// assert!(tsgd.has_cycle_involving(GlobalTxnId(2), &BTreeSet::new()));
///
/// // Figure 4 returns dependencies that break every cycle through G2.
/// let mut steps = StepCounter::new();
/// let delta = eliminate_cycles(&tsgd, GlobalTxnId(2), &mut steps);
/// assert!(!tsgd.has_cycle_involving(GlobalTxnId(2), &delta));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tsgd {
    /// Edges grouped by transaction.
    txn_sites: BTreeMap<GlobalTxnId, BTreeSet<SiteId>>,
    /// Edges grouped by site.
    site_txns: BTreeMap<SiteId, BTreeSet<GlobalTxnId>>,
    /// The dependency set `D`.
    deps: BTreeSet<Dep>,
}

impl Tsgd {
    /// Empty TSGD.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert transaction `txn` with edges to `sites`.
    pub fn insert_txn(&mut self, txn: GlobalTxnId, sites: &[SiteId]) {
        let entry = self.txn_sites.entry(txn).or_default();
        for &s in sites {
            entry.insert(s);
            self.site_txns.entry(s).or_default().insert(txn);
        }
    }

    /// Remove a transaction, its edges, and all dependencies touching it.
    pub fn remove_txn(&mut self, txn: GlobalTxnId) {
        if let Some(sites) = self.txn_sites.remove(&txn) {
            for s in sites {
                if let Some(ts) = self.site_txns.get_mut(&s) {
                    ts.remove(&txn);
                    if ts.is_empty() {
                        self.site_txns.remove(&s);
                    }
                }
            }
        }
        self.deps.retain(|d| d.before != txn && d.after != txn);
    }

    /// Add a dependency.
    pub fn add_dep(&mut self, dep: Dep) {
        debug_assert!(self.has_edge(dep.before, dep.site), "dep on missing edge");
        debug_assert!(self.has_edge(dep.after, dep.site), "dep on missing edge");
        self.deps.insert(dep);
    }

    /// True iff edge `(txn, site)` exists.
    pub fn has_edge(&self, txn: GlobalTxnId, site: SiteId) -> bool {
        self.txn_sites.get(&txn).is_some_and(|s| s.contains(&site))
    }

    /// True iff the transaction node exists.
    pub fn contains_txn(&self, txn: GlobalTxnId) -> bool {
        self.txn_sites.contains_key(&txn)
    }

    /// Sites of a transaction.
    pub fn sites_of(&self, txn: GlobalTxnId) -> impl Iterator<Item = SiteId> + '_ {
        self.txn_sites.get(&txn).into_iter().flatten().copied()
    }

    /// Transactions at a site.
    pub fn txns_at(&self, site: SiteId) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.site_txns.get(&site).into_iter().flatten().copied()
    }

    /// All transactions.
    pub fn txns(&self) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.txn_sites.keys().copied()
    }

    /// All dependencies.
    pub fn deps(&self) -> impl Iterator<Item = Dep> + '_ {
        self.deps.iter().copied()
    }

    /// Number of dependencies.
    pub fn dep_count(&self) -> usize {
        self.deps.len()
    }

    /// Direct implementation of the paper's cycle definition, restricted to
    /// cycles through `start`: DFS over alternating txn–site paths starting
    /// at `start`, where a site turn `(prev_txn, site) → (site, next_txn)`
    /// may be taken iff the dependency `(prev_txn, site) → (site,
    /// next_txn)` is absent (optionally considering `extra` dependencies as
    /// present). Exponential in the worst case — test/validation use only.
    pub fn has_cycle_involving(&self, start: GlobalTxnId, extra: &BTreeSet<Dep>) -> bool {
        if !self.contains_txn(start) {
            return false;
        }
        let blocked = |site: SiteId, before: GlobalTxnId, after: GlobalTxnId| {
            let d = Dep {
                site,
                before,
                after,
            };
            self.deps.contains(&d) || extra.contains(&d)
        };
        // Path state: current txn node, the site we arrived through, and
        // the sets of visited txn/site nodes.
        struct Search<'a, F: Fn(SiteId, GlobalTxnId, GlobalTxnId) -> bool> {
            tsgd: &'a Tsgd,
            start: GlobalTxnId,
            blocked: F,
        }
        impl<F: Fn(SiteId, GlobalTxnId, GlobalTxnId) -> bool> Search<'_, F> {
            fn dfs(
                &self,
                at: GlobalTxnId,
                seen_txns: &mut BTreeSet<GlobalTxnId>,
                seen_sites: &mut BTreeSet<SiteId>,
                depth: usize,
            ) -> bool {
                for site in self.tsgd.sites_of(at) {
                    if seen_sites.contains(&site) {
                        continue;
                    }
                    for next in self.tsgd.txns_at(site) {
                        if next == at {
                            continue;
                        }
                        // Site turn (at, site) -> (site, next) must be
                        // dependency-free in the traversal direction.
                        if (self.blocked)(site, at, next) {
                            continue;
                        }
                        if next == self.start {
                            // Closed a cycle with ≥ 2 txns and ≥ 2 sites
                            // (k > 2 requires depth >= 1 and a distinct
                            // return site).
                            if depth >= 1 {
                                return true;
                            }
                            continue;
                        }
                        if seen_txns.contains(&next) {
                            continue;
                        }
                        seen_txns.insert(next);
                        seen_sites.insert(site);
                        if self.dfs(next, seen_txns, seen_sites, depth + 1) {
                            return true;
                        }
                        seen_sites.remove(&site);
                        seen_txns.remove(&next);
                    }
                }
                false
            }
        }
        let search = Search {
            tsgd: self,
            start,
            blocked,
        };
        let mut seen_txns = BTreeSet::from([start]);
        let mut seen_sites = BTreeSet::new();
        search.dfs(start, &mut seen_txns, &mut seen_sites, 0)
    }

    /// True iff any cycle exists (tries every transaction as the start).
    pub fn has_any_cycle(&self) -> bool {
        let none = BTreeSet::new();
        self.txns().any(|t| self.has_cycle_involving(t, &none))
    }
}

/// The paper's `Eliminate_Cycles` (Figure 4): returns `Δ` — dependencies of
/// the form `(Ĝ_j, s_k) → (s_k, Ĝ_i)` — such that `(V, E, D ∪ Δ)` contains
/// no cycle involving `gi`. Work is charged to `steps`.
pub fn eliminate_cycles(tsgd: &Tsgd, gi: GlobalTxnId, steps: &mut StepCounter) -> BTreeSet<Dep> {
    // Step 1.
    let mut used: BTreeSet<(SiteId, GlobalTxnId)> = BTreeSet::new();
    let mut s_par: BTreeMap<GlobalTxnId, Vec<SiteId>> = BTreeMap::new();
    let mut t_par: BTreeMap<GlobalTxnId, Vec<GlobalTxnId>> = BTreeMap::new();
    let mut delta: BTreeSet<Dep> = BTreeSet::new();
    let mut v = gi;

    loop {
        steps.tick(StepKind::Act);
        // Steps 2–3: find a traversable pair of edges (v,u), (u,w).
        let arrived_via = s_par.get(&v).and_then(|l| l.first().copied());
        let mut chosen: Option<(SiteId, GlobalTxnId)> = None;
        'search: for u in tsgd.sites_of(v) {
            if arrived_via == Some(u) {
                continue; // head(s_par(v)) = u
            }
            for w in tsgd.txns_at(u) {
                steps.tick(StepKind::Act);
                if w == v {
                    continue; // (v,u) and (u,w) must be distinct edges
                }
                if w != gi && used.contains(&(u, w)) {
                    continue;
                }
                let dep = Dep {
                    site: u,
                    before: v,
                    after: w,
                };
                if tsgd.deps.contains(&dep) || delta.contains(&dep) {
                    continue;
                }
                chosen = Some((u, w));
                break 'search;
            }
        }
        match chosen {
            Some((u, w)) => {
                used.insert((u, w));
                if w == gi {
                    // Cycle found: break it by pinning v before gi at u.
                    delta.insert(Dep {
                        site: u,
                        before: v,
                        after: gi,
                    });
                } else {
                    s_par.entry(w).or_default().insert(0, u);
                    t_par.entry(w).or_default().insert(0, v);
                    v = w;
                }
            }
            None => {
                // Step 4: backtrack.
                if v == gi {
                    break;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the backtracking search records s_par/t_par together before descending, so a visited node always has both."
                )]
                let tp = t_par.get_mut(&v).expect("visited node has parents");
                let temp = tp.remove(0);
                #[expect(
                    clippy::expect_used,
                    reason = "s_par and t_par are updated in lockstep above."
                )]
                s_par.get_mut(&v).expect("parents in sync").remove(0);
                v = temp;
            }
        }
    }
    delta
}

/// Exact minimum-size `Δ` (all candidates of the paper's form
/// `(Ĝ_j, s_k) → (s_k, Ĝ_i)`) such that no cycle involves `gi`. Searches
/// subsets in increasing size — exponential, per Theorem 7. Returns `None`
/// if even the full candidate set fails (cannot happen on well-formed
/// TSGDs; kept as an honest signature for fuzzing).
pub fn minimal_delta_exact(tsgd: &Tsgd, gi: GlobalTxnId) -> Option<BTreeSet<Dep>> {
    let candidates: Vec<Dep> = tsgd
        .sites_of(gi)
        .flat_map(|site| {
            tsgd.txns_at(site)
                .filter(move |&w| w != gi)
                .map(move |w| Dep {
                    site,
                    before: w,
                    after: gi,
                })
        })
        .filter(|d| !tsgd.deps.contains(d))
        .collect();
    // Increasing-size subset enumeration via bitmasks grouped by popcount.
    let n = candidates.len();
    assert!(
        n <= 24,
        "exact search is exponential; candidate set too large ({n})"
    );
    let mut masks: Vec<u32> = (0u32..(1 << n)).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        let delta: BTreeSet<Dep> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, d)| *d)
            .collect();
        if !tsgd.has_cycle_involving(gi, &delta) {
            return Some(delta);
        }
    }
    None
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
    fn dep(k: u32, a: u64, b: u64) -> Dep {
        Dep {
            site: s(k),
            before: g(a),
            after: g(b),
        }
    }

    /// Two txns sharing two sites, no deps: the classic undetermined cycle.
    fn two_txn_cycle() -> Tsgd {
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0), s(1)]);
        t.insert_txn(g(2), &[s(0), s(1)]);
        t
    }

    #[test]
    fn undetermined_orders_cycle() {
        let t = two_txn_cycle();
        assert!(t.has_cycle_involving(g(1), &BTreeSet::new()));
        assert!(t.has_cycle_involving(g(2), &BTreeSet::new()));
        assert!(t.has_any_cycle());
    }

    #[test]
    fn consistent_dependencies_break_cycle() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        t.add_dep(dep(1, 1, 2));
        assert!(!t.has_any_cycle());
    }

    #[test]
    fn opposite_dependencies_are_a_real_cycle() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2)); // G1 before G2 at s0
        t.add_dep(dep(1, 2, 1)); // G2 before G1 at s1
        assert!(
            t.has_any_cycle(),
            "genuine serialization cycle must be detected"
        );
    }

    #[test]
    fn one_dependency_leaves_other_direction_open() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        // Direction G1->s0->G2 blocked, but reverse traversal still
        // dependency-free: still a cycle.
        assert!(t.has_any_cycle());
    }

    #[test]
    fn single_shared_site_never_cycles() {
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0), s(1)]);
        t.insert_txn(g(2), &[s(0), s(2)]);
        assert!(!t.has_any_cycle());
    }

    #[test]
    fn three_txn_ring_cycles() {
        // G1-{s0,s1}, G2-{s1,s2}, G3-{s2,s0}: a 6-cycle.
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0), s(1)]);
        t.insert_txn(g(2), &[s(1), s(2)]);
        t.insert_txn(g(3), &[s(2), s(0)]);
        assert!(t.has_any_cycle());
        assert!(t.has_cycle_involving(g(2), &BTreeSet::new()));
    }

    #[test]
    fn eliminate_cycles_produces_acyclic_tsgd() {
        let t = two_txn_cycle();
        let mut steps = StepCounter::new();
        let delta = eliminate_cycles(&t, g(2), &mut steps);
        assert!(!delta.is_empty());
        for d in &delta {
            assert_eq!(d.after, g(2), "all Δ deps point into G_i");
        }
        assert!(!t.has_cycle_involving(g(2), &delta));
        assert!(steps.total() > 0);
    }

    #[test]
    fn eliminate_cycles_on_ring() {
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0), s(1)]);
        t.insert_txn(g(2), &[s(1), s(2)]);
        t.insert_txn(g(3), &[s(2), s(0)]);
        let mut steps = StepCounter::new();
        let delta = eliminate_cycles(&t, g(3), &mut steps);
        assert!(!t.has_cycle_involving(g(3), &delta));
    }

    #[test]
    fn eliminate_cycles_no_cycles_empty_delta() {
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0)]);
        t.insert_txn(g(2), &[s(0), s(1)]);
        let mut steps = StepCounter::new();
        assert!(eliminate_cycles(&t, g(2), &mut steps).is_empty());
    }

    #[test]
    fn minimal_delta_at_most_eliminate_cycles() {
        let t = two_txn_cycle();
        let mut steps = StepCounter::new();
        let ec = eliminate_cycles(&t, g(2), &mut steps);
        let min = minimal_delta_exact(&t, g(2)).expect("solvable");
        assert!(min.len() <= ec.len());
        assert!(!t.has_cycle_involving(g(2), &min));
    }

    #[test]
    fn minimal_delta_is_zero_when_acyclic() {
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0), s(1)]);
        t.insert_txn(g(2), &[s(0), s(2)]);
        assert_eq!(minimal_delta_exact(&t, g(2)).unwrap().len(), 0);
    }

    #[test]
    fn remove_txn_drops_deps() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        t.remove_txn(g(1));
        assert_eq!(t.dep_count(), 0);
        assert!(!t.contains_txn(g(1)));
        assert!(!t.has_any_cycle());
    }

    /// A denser random-ish instance: Eliminate_Cycles must always produce
    /// an acyclic-for-gi result.
    #[test]
    fn eliminate_cycles_dense_instance() {
        let mut t = Tsgd::new();
        t.insert_txn(g(1), &[s(0), s(1), s(2)]);
        t.insert_txn(g(2), &[s(0), s(1)]);
        t.insert_txn(g(3), &[s(1), s(2)]);
        t.insert_txn(g(4), &[s(0), s(2)]);
        // Pre-existing deps pinning some orders.
        t.add_dep(dep(0, 1, 2));
        t.add_dep(dep(1, 2, 3));
        let mut steps = StepCounter::new();
        let fresh = g(5);
        let mut t2 = t.clone();
        t2.insert_txn(fresh, &[s(0), s(1), s(2)]);
        let delta = eliminate_cycles(&t2, fresh, &mut steps);
        assert!(!t2.has_cycle_involving(fresh, &delta), "Δ = {delta:?}");
    }
}
