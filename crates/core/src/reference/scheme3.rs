//! Scheme 3 — the O-scheme that permits all serializable schedules
//! (Section 7 of the paper).
//!
//! BT-schemes freeze a transaction's constraints at `init` and therefore
//! either concede concurrency (Schemes 0, 1) or tractability (minimal
//! dependencies are NP-hard — Theorem 7). Scheme 3 instead adds the
//! *minimum* restriction every time an `init_i` **or** `ser_k(G_i)` is
//! processed, tracking for each active transaction the set `ser_bef(Ĝ_i)`
//! of transactions serialized before it:
//!
//! - `last_k` — the transaction whose event most recently executed at `s_k`;
//! - `set_k` — transactions announced at `s_k` whose event has not yet
//!   executed;
//! - when `ser_k(G_i)` executes, `Ĝ_i` is serialized before everything
//!   still in `set_k`, and that ordering propagates transitively.
//!
//! `cond(ser_k(G_i))` holds iff the previous event at `s_k` is acked (the
//! per-site serial-execution rule every scheme needs) **and** no
//! transaction that must precede `Ĝ_i` is still pending at `s_k`
//! (`ser_bef(Ĝ_i) ∩ set_k = ∅`) — processing it then can never close a
//! serialization cycle (Theorem 8), and *not* processing it would be
//! necessary, which is why Scheme 3 admits every serializable insertion
//! order. Complexity `O(n²·d_av)` (Theorem 9), dominated by the
//! `ser_bef` propagation at `act(ser)`.

use crate::scheme::{Gtm2Scheme, SchemeEffect, WaitSet, WakeCandidates};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::{StepCounter, StepKind};
use std::collections::{BTreeMap, BTreeSet};

/// Shared empty set for the borrow-not-clone paths in `act(ser)`.
static EMPTY_SET: BTreeSet<GlobalTxnId> = BTreeSet::new();

/// Scheme 3 state.
#[derive(Clone, Debug, Default)]
pub struct Scheme3 {
    /// `ser_bef(Ĝ_i)`: transactions serialized before `Ĝ_i`. Maintained
    /// transitively closed.
    ser_bef: BTreeMap<GlobalTxnId, BTreeSet<GlobalTxnId>>,
    /// `last_k`: most recent transaction whose event executed at the site.
    last: BTreeMap<SiteId, GlobalTxnId>,
    /// `set_k`: announced-but-not-executed transactions per site.
    sets: BTreeMap<SiteId, BTreeSet<GlobalTxnId>>,
    /// Acked `(txn, site)` events.
    acked: BTreeSet<(GlobalTxnId, SiteId)>,
    /// Site list per live transaction.
    sites: BTreeMap<GlobalTxnId, Vec<SiteId>>,
}

impl Scheme3 {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// `ser_bef(Ĝ_i)` (empty if unknown) — exposed for experiments.
    pub fn ser_bef(&self, txn: GlobalTxnId) -> BTreeSet<GlobalTxnId> {
        self.ser_bef.get(&txn).cloned().unwrap_or_default()
    }

    fn set_at(&self, site: SiteId) -> Option<&BTreeSet<GlobalTxnId>> {
        self.sets.get(&site)
    }
}

impl Gtm2Scheme for Scheme3 {
    fn name(&self) -> &'static str {
        "Scheme 3"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => {
                // Previous event at the site must be acked.
                if let Some(&l) = self.last.get(site) {
                    steps.tick(StepKind::Cond);
                    if !self.acked.contains(&(l, *site)) {
                        return false;
                    }
                }
                // No must-precede transaction may still be pending here.
                let bef = self.ser_bef.get(txn);
                let set = self.set_at(*site);
                match (bef, set) {
                    (Some(bef), Some(set)) => {
                        steps.bump(StepKind::Cond, bef.len().min(set.len()) as u64);
                        bef.intersection(set).next().is_none()
                    }
                    _ => true,
                }
            }
            QueueOp::Fin { txn } => self.ser_bef.get(txn).is_none_or(BTreeSet::is_empty),
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        match op {
            QueueOp::Init { txn, sites } => {
                let mut bef = BTreeSet::new();
                for &site in sites {
                    steps.tick(StepKind::Act);
                    self.sets.entry(site).or_default().insert(*txn);
                    // Everything serialized up to the site's last event is
                    // before Ĝ_i.
                    if let Some(&l) = self.last.get(&site) {
                        if let Some(lb) = self.ser_bef.get(&l) {
                            steps.bump(StepKind::Act, lb.len() as u64);
                            bef.extend(lb.iter().copied());
                        }
                        bef.insert(l);
                    }
                }
                self.ser_bef.insert(*txn, bef);
                self.sites.insert(*txn, sites.clone());
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                // `init_i` announced the site (see `Gtm2::enqueue`).
                let pending = self.sets.get_mut(site).is_some_and(|set| set.remove(txn));
                debug_assert!(pending, "ser of {txn} at {site} not announced by its init");
                self.last.insert(*site, *txn);
                // Set1 = ser_bef(Ĝ_i) ∪ {Ĝ_i}. Ĝ_i's own row is taken out
                // of the map for the duration (it is never a target — no
                // self-before-self) rather than cloned; Ĝ_i ∉ ser_bef(Ĝ_i),
                // so |Set1| = |row| + 1.
                let own_row = self.ser_bef.remove(txn);
                let set1_extra = own_row.as_ref().unwrap_or(&EMPTY_SET);
                let set1_len = set1_extra.len() as u64 + 1;
                // Targets: everything still pending at the site, plus every
                // transaction already ordered after something pending here
                // (Set2) — keeps ser_bef transitively closed.
                let targets: Vec<GlobalTxnId> = {
                    // Borrowed, not cloned: the map mutation below happens
                    // after this scope ends.
                    let set_k = self.sets.get(site).map_or(&EMPTY_SET, |s| s);
                    self.ser_bef
                        .iter()
                        .filter(|(j, bef)| {
                            **j != *txn
                                && (set_k.contains(j) || bef.intersection(set_k).next().is_some())
                        })
                        .map(|(j, _)| *j)
                        .collect()
                };
                // The scan charge covers the whole map, own row included.
                steps.bump(
                    StepKind::Act,
                    self.ser_bef.len() as u64 + u64::from(own_row.is_some()),
                );
                for j in targets {
                    // Targets were collected from `ser_bef` above, so the
                    // re-borrow only misses if the map changed in between
                    // (it cannot); skip rather than panic.
                    let Some(bef_j) = self.ser_bef.get_mut(&j) else {
                        continue;
                    };
                    steps.bump(StepKind::Act, set1_len);
                    bef_j.extend(set1_extra.iter().copied());
                    bef_j.insert(*txn);
                    debug_assert!(!bef_j.contains(&j), "{j} serialized before itself");
                }
                if let Some(row) = own_row {
                    self.ser_bef.insert(*txn, row);
                }
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                self.acked.insert((*txn, *site));
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                // Ĝ_i leaves: drop it from every ser_bef and clear last_k.
                for (_, bef) in self.ser_bef.iter_mut() {
                    steps.tick(StepKind::Act);
                    bef.remove(txn);
                }
                self.ser_bef.remove(txn);
                let sites = self.sites.remove(txn).unwrap_or_default();
                for site in sites {
                    steps.tick(StepKind::Act);
                    if self.last.get(&site) == Some(txn) {
                        self.last.remove(&site);
                    }
                    self.acked.remove(&(*txn, site));
                }
            }
        }
    }

    fn wake_candidates(
        &self,
        acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        match acted {
            // An ack satisfies the "previous event acked" clause at its
            // site.
            QueueOp::Ack { site, .. } => {
                steps.bump(StepKind::WaitScan, wait.ser_count_at(*site) as u64);
                WakeCandidates::SerAt(*site)
            }
            // A ser shrinks set_k, which can clear another event's
            // ser_bef ∩ set_k at this site — but the site's last event is
            // now unacked, so nothing here can run until the ack; no
            // candidates. A fin empties ser_bef sets: other fins are
            // candidates.
            QueueOp::Fin { .. } => {
                steps.bump(StepKind::WaitScan, wait.fin_count() as u64);
                WakeCandidates::Fins
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn debug_validate(&self) {
        for (t, bef) in &self.ser_bef {
            assert!(!bef.contains(t), "{t} serialized before itself");
        }
        // ser_bef is transitively closed over live transactions.
        for (t, bef) in &self.ser_bef {
            for b in bef {
                if let Some(bb) = self.ser_bef.get(b) {
                    for x in bb {
                        assert!(
                            bef.contains(x),
                            "transitivity broken: {x} < {b} < {t} but {x} not in ser_bef({t})"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scenario::{ack, engines, fin, g, init, s, ser};
    use crate::scheme::SchemeKind;

    /// The classic unsafe interleaving is blocked: after G1 executes first
    /// at s0, G2 (now ordered after G1) may not execute at s1 while G1 is
    /// still pending there.
    #[test]
    fn blocks_exactly_the_nonserializable_order() {
        for mut e in engines(SchemeKind::Scheme3) {
            e.enqueue(init(1, &[0, 1]));
            e.enqueue(init(2, &[0, 1]));
            e.enqueue(ser(1, 0));
            e.pump();
            e.enqueue(ack(1, 0));
            e.pump();
            // G2 at s1 would serialize G2 before G1 at s1 but after at s0.
            e.enqueue(ser(2, 1));
            e.pump();
            assert_eq!(e.stats().waited, 1, "unsafe ser must wait");
            // G1's event at s1 proceeds, then its ack frees G2.
            e.enqueue(ser(1, 1));
            e.pump();
            e.enqueue(ack(1, 1));
            let fx = e.pump();
            assert!(fx.contains(&SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(1)
            }));
            assert!(e.ser_log().check().is_ok());
        }
    }

    /// Scheme 3 admits orders every BT-scheme forbids: transactions
    /// serialize in the order their events actually run, regardless of
    /// init order.
    #[test]
    fn admits_anti_init_order() {
        for mut e in engines(SchemeKind::Scheme3) {
            e.enqueue(init(1, &[0, 1]));
            e.enqueue(init(2, &[0, 1]));
            // G2 runs first at both sites — serializable (G2 before G1),
            // though inits said otherwise. Scheme 0 would queue G2 behind G1.
            e.enqueue(ser(2, 0));
            e.pump();
            e.enqueue(ack(2, 0));
            e.enqueue(ser(2, 1));
            e.pump();
            e.enqueue(ack(2, 1));
            e.enqueue(ser(1, 0));
            e.pump();
            e.enqueue(ack(1, 0));
            e.enqueue(ser(1, 1));
            e.pump();
            e.enqueue(ack(1, 1));
            e.pump();
            assert_eq!(
                e.stats().waited,
                0,
                "a serializable order must run waitless"
            );
            let order = e.ser_log().check().unwrap();
            let pos = |t| order.iter().position(|&x| x == t).unwrap();
            assert!(pos(g(2)) < pos(g(1)));
        }
    }

    /// fin waits for predecessors to fin (ser_bef must drain).
    #[test]
    fn fin_order_respects_serialization() {
        for mut e in engines(SchemeKind::Scheme3) {
            e.enqueue(init(1, &[0]));
            e.enqueue(init(2, &[0]));
            e.enqueue(ser(1, 0));
            e.pump();
            e.enqueue(ack(1, 0));
            e.enqueue(ser(2, 0));
            e.pump();
            e.enqueue(ack(2, 0));
            e.enqueue(fin(2));
            e.pump();
            assert_eq!(e.wait_len(), 1, "G2's fin waits for G1");
            e.enqueue(fin(1));
            e.pump();
            assert_eq!(e.wait_len(), 0);
            assert_eq!(e.stats().fins, 2);
        }
    }

    /// Per-site serial execution: the next event waits for the previous
    /// event's ack even when unrelated.
    #[test]
    fn site_events_serialized_by_ack() {
        for mut e in engines(SchemeKind::Scheme3) {
            e.enqueue(init(1, &[0]));
            e.enqueue(init(2, &[0]));
            e.enqueue(ser(1, 0));
            e.enqueue(ser(2, 0));
            let fx = e.pump();
            assert_eq!(
                fx,
                vec![SchemeEffect::SubmitSer {
                    txn: g(1),
                    site: s(0)
                }]
            );
            e.enqueue(ack(1, 0));
            let fx = e.pump();
            assert!(fx.contains(&SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(0)
            }));
        }
    }

    #[test]
    fn ser_bef_accessor_reflects_order() {
        let mut scheme = Scheme3::new();
        let mut steps = StepCounter::new();
        let mut fx = Vec::new();
        scheme.act(&init(1, &[0]), &mut steps, &mut fx);
        scheme.act(&init(2, &[0]), &mut steps, &mut fx);
        scheme.act(&ser(1, 0), &mut steps, &mut fx);
        assert!(scheme.ser_bef(g(2)).contains(&g(1)));
        assert!(scheme.ser_bef(g(1)).is_empty());
    }

    /// Transitive propagation: G1 < G2 at s0 and G2 < G3 at s1 implies
    /// G1 ∈ ser_bef(G3); G3's event at s2 must wait while G1 is pending
    /// there.
    #[test]
    fn transitive_ser_bef_blocks() {
        for mut e in engines(SchemeKind::Scheme3) {
            e.enqueue(init(1, &[0, 2]));
            e.enqueue(init(2, &[0, 1]));
            e.enqueue(init(3, &[1, 2]));
            // G1 then G2 at s0.
            e.enqueue(ser(1, 0));
            e.pump();
            e.enqueue(ack(1, 0));
            e.enqueue(ser(2, 0));
            e.pump();
            e.enqueue(ack(2, 0));
            // G2 then G3 at s1.
            e.enqueue(ser(2, 1));
            e.pump();
            e.enqueue(ack(2, 1));
            e.enqueue(ser(3, 1));
            e.pump();
            e.enqueue(ack(3, 1));
            // Now G1 < G2 < G3; G3 at s2 while G1 pending at s2 must wait.
            e.enqueue(ser(3, 2));
            e.pump();
            assert_eq!(e.stats().waited, 1);
            e.enqueue(ser(1, 2));
            e.pump();
            e.enqueue(ack(1, 2));
            let fx = e.pump();
            assert!(fx.contains(&SchemeEffect::SubmitSer {
                txn: g(3),
                site: s(2)
            }));
            assert!(e.ser_log().check().is_ok());
        }
    }
}
