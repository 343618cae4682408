//! Property tests for the TSGD and `Eliminate_Cycles` (Figure 4).
//!
//! Ground truth is the direct implementation of the paper's cycle
//! definition (`Tsgd::has_cycle_involving`); `eliminate_cycles` must
//! always produce a Δ (of the correct `(Ĝ_j, s_k) → (s_k, Ĝ_i)` form)
//! that removes every cycle through the new transaction, and the exact
//! exponential search must never find a larger minimum than EC's output.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::step::StepCounter;
use mdbs_core::reference::tsgd::{eliminate_cycles, minimal_delta_exact, Tsgd};
use mdbs_core::tsgd_dense::Dep;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build a random TSGD plus a fresh transaction to initialize.
///
/// `shape[i]` is a bitmask of the sites transaction i touches (over up to
/// 4 sites); `dep_picks` selects consistent pre-existing dependencies
/// (only between co-located pairs, oriented by transaction id so the
/// pre-existing D is acyclic — as Scheme 2's induction guarantees).
fn build(shape: &[u8], dep_picks: &[bool], fresh_mask: u8) -> (Tsgd, GlobalTxnId) {
    let mut t = Tsgd::new();
    let site_list = |mask: u8| -> Vec<SiteId> {
        (0..4u32)
            .filter(|b| mask & (1 << b) != 0)
            .map(SiteId)
            .collect()
    };
    for (i, &mask) in shape.iter().enumerate() {
        let sites = site_list(mask | 1 << (i % 4)); // at least one site
        t.insert_txn(GlobalTxnId(i as u64 + 1), &sites);
    }
    // Deterministic dependency candidates: ordered pairs at shared sites.
    let mut candidates = Vec::new();
    let txns: Vec<GlobalTxnId> = t.txns().collect();
    for (ai, &a) in txns.iter().enumerate() {
        for &b in &txns[ai + 1..] {
            let sites_a: BTreeSet<SiteId> = t.sites_of(a).collect();
            for s in t.sites_of(b) {
                if sites_a.contains(&s) {
                    candidates.push(Dep {
                        site: s,
                        before: a,
                        after: b,
                    });
                }
            }
        }
    }
    for (i, dep) in candidates.into_iter().enumerate() {
        if dep_picks.get(i).copied().unwrap_or(false) {
            t.add_dep(dep);
        }
    }
    let fresh = GlobalTxnId(999);
    let fresh_sites = site_list(fresh_mask | 1);
    t.insert_txn(fresh, &fresh_sites);
    (t, fresh)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn eliminate_cycles_is_sound(
        shape in prop::collection::vec(0u8..16, 1..6),
        dep_picks in prop::collection::vec(any::<bool>(), 0..24),
        fresh_mask in 0u8..16,
    ) {
        let (t, fresh) = build(&shape, &dep_picks, fresh_mask);
        let mut steps = StepCounter::new();
        let delta = eliminate_cycles(&t, fresh, &mut steps);
        // Form: every Δ dependency points into the fresh transaction.
        for d in &delta {
            prop_assert_eq!(d.after, fresh);
            prop_assert!(t.has_edge(d.before, d.site));
            prop_assert!(t.has_edge(fresh, d.site));
        }
        // Soundness: no cycle through the fresh transaction remains.
        prop_assert!(
            !t.has_cycle_involving(fresh, &delta),
            "Δ = {delta:?} leaves a cycle"
        );
        // EC does nontrivial work only when needed.
        if delta.is_empty() {
            prop_assert!(!t.has_cycle_involving(fresh, &BTreeSet::new()));
        }
    }

    #[test]
    fn exact_minimum_never_exceeds_ec(
        shape in prop::collection::vec(0u8..16, 1..4),
        dep_picks in prop::collection::vec(any::<bool>(), 0..12),
        fresh_mask in 0u8..16,
    ) {
        let (t, fresh) = build(&shape, &dep_picks, fresh_mask);
        let mut steps = StepCounter::new();
        let ec = eliminate_cycles(&t, fresh, &mut steps);
        if let Some(min) = minimal_delta_exact(&t, fresh) {
            prop_assert!(min.len() <= ec.len());
            prop_assert!(!t.has_cycle_involving(fresh, &min));
        } else {
            prop_assert!(false, "full candidate set must always suffice");
        }
    }

    /// The cycle checker is symmetric in direction: reversing every
    /// dependency preserves (a)cyclicity, because a cycle's reverse
    /// traversal is blocked by the reversed dependencies exactly when the
    /// original was.
    #[test]
    fn cycle_check_direction_symmetry(
        shape in prop::collection::vec(0u8..16, 2..5),
        dep_picks in prop::collection::vec(any::<bool>(), 0..16),
    ) {
        let (t, _) = build(&shape, &dep_picks, 0);
        let mut reversed = Tsgd::new();
        for txn in t.txns() {
            let sites: Vec<SiteId> = t.sites_of(txn).collect();
            reversed.insert_txn(txn, &sites);
        }
        for d in t.deps() {
            reversed.add_dep(Dep { site: d.site, before: d.after, after: d.before });
        }
        prop_assert_eq!(t.has_any_cycle(), reversed.has_any_cycle());
    }

    /// Removing a transaction can never create a cycle.
    #[test]
    fn removal_monotonicity(
        shape in prop::collection::vec(0u8..16, 2..5),
        dep_picks in prop::collection::vec(any::<bool>(), 0..16),
        victim_idx in 0usize..5,
    ) {
        let (t, fresh) = build(&shape, &dep_picks, 3);
        let mut steps = StepCounter::new();
        let delta = eliminate_cycles(&t, fresh, &mut steps);
        let mut t2 = t.clone();
        for d in &delta {
            t2.add_dep(*d);
        }
        // After installing Δ there is no cycle through fresh; removing any
        // transaction keeps it that way.
        let txns: Vec<GlobalTxnId> = t2.txns().filter(|&x| x != fresh).collect();
        if let Some(&victim) = txns.get(victim_idx % txns.len().max(1)) {
            t2.remove_txn(victim);
            prop_assert!(!t2.has_cycle_involving(fresh, &BTreeSet::new()));
        }
    }
}
