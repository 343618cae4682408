//! Waits-for deadlock detection and victim selection.
//!
//! Used by the 2PL protocol (lock waits) and the SGT protocol (dirty-item
//! waits). Detection runs when a request blocks, in two steps.
//!
//! 1. The protocol walks waits-for edges from the requester and asks only
//!    "does it reach itself?". That is enough because of one invariant:
//!    **every waits-for edge added since the graph was last acyclic has the
//!    requester as an endpoint**, so any cycle passes through it. A fresh
//!    lock request queues at the back (out-edges of the requester only); an
//!    upgrade queues at the front (also in-edges, from the requests already
//!    queued); an SGT retry after a wake blocks on one dirty writer (one
//!    out-edge); granting queued requests on a release adds no edge; and
//!    every block is followed by this check, which leaves the graph acyclic
//!    again. The walk costs the requests reachable from the requester, and
//!    almost always answers "no".
//! 2. Only when it answers "yes" is the waits-for graph of the whole site
//!    rebuilt from the protocol's queues and handed to [`select_victims`],
//!    which breaks every cycle by aborting a victim.
//!
//! The `walk_first_check_*` tests below pin the invariant: on random
//! contended operation sequences the two-step check names, at every block,
//! the victim a whole-table scan names.
//!
//! Victim policy reflects Section 3 of the paper — aborting a *global*
//! transaction is expensive in an MDBS (its other subtransactions and the
//! GTM's work are wasted), so local transactions are preferred victims;
//! ties break to the youngest transaction (least work lost).

use crate::protocol::DeadlockOutcome;
use mdbs_common::ids::TxnId;
use mdbs_schedule::DiGraph;
use std::collections::BTreeMap;

/// Detect deadlocks in a waits-for edge list and select victims until the
/// graph is acyclic. `age` maps transactions to their begin sequence number
/// (larger = younger). Returns victims in selection order.
pub fn select_victims(edges: &[(TxnId, TxnId)], age: &BTreeMap<TxnId, u64>) -> Vec<TxnId> {
    let mut g: DiGraph<TxnId> = DiGraph::new();
    for &(a, b) in edges {
        g.add_edge(a, b);
    }
    let mut victims = Vec::new();
    while let Some(cycle) = g.find_cycle() {
        let victim = pick_victim(&cycle, age);
        g.remove_node(victim);
        victims.push(victim);
    }
    victims
}

/// Step 2 of a check: the first victim [`select_victims`] names over the
/// site's whole waits-for edge list (the engine aborts it and checks
/// again).
pub fn first_victim(edges: &[(TxnId, TxnId)], age: &BTreeMap<TxnId, u64>) -> DeadlockOutcome {
    match select_victims(edges, age).first() {
        Some(&victim) => DeadlockOutcome::Victim(victim),
        None => DeadlockOutcome::None,
    }
}

/// Choose the victim from one cycle: prefer local transactions; among the
/// preferred class, pick the youngest (largest begin sequence).
#[expect(
    clippy::expect_used,
    reason = "`pool` is either the cycle (non-empty by construction) or its non-empty local subset."
)]
fn pick_victim(cycle: &[TxnId], age: &BTreeMap<TxnId, u64>) -> TxnId {
    let locals: Vec<TxnId> = cycle.iter().copied().filter(|t| !t.is_global()).collect();
    let pool: &[TxnId] = if locals.is_empty() { cycle } else { &locals };
    *pool
        .iter()
        .max_by_key(|t| age.get(t).copied().unwrap_or(0))
        .expect("cycle is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CcProtocol, Decision};
    use crate::sgt::SerializationGraphTesting;
    use crate::twopl::TwoPhaseLocking;
    use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId, SiteId};
    use mdbs_common::rng::splitmix64;
    use std::collections::VecDeque;

    fn g(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn l(i: u64) -> TxnId {
        TxnId::Local(LocalTxnId {
            site: SiteId(0),
            seq: i,
        })
    }
    fn ages(pairs: &[(TxnId, u64)]) -> BTreeMap<TxnId, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn no_cycle_no_victim() {
        let edges = vec![(g(1), g(2)), (g(2), g(3))];
        assert!(select_victims(&edges, &ages(&[])).is_empty());
    }

    #[test]
    fn local_txn_preferred_as_victim() {
        let edges = vec![(g(1), l(9)), (l(9), g(1))];
        let age = ages(&[(g(1), 1), (l(9), 0)]);
        // The local txn is older but still chosen over the global one.
        assert_eq!(select_victims(&edges, &age), vec![l(9)]);
    }

    #[test]
    fn youngest_of_preferred_class_chosen() {
        let edges = vec![(l(1), l(2)), (l(2), l(1))];
        let age = ages(&[(l(1), 10), (l(2), 20)]);
        assert_eq!(select_victims(&edges, &age), vec![l(2)]);
    }

    #[test]
    fn all_global_cycle_aborts_youngest_global() {
        let edges = vec![(g(1), g(2)), (g(2), g(1))];
        let age = ages(&[(g(1), 5), (g(2), 7)]);
        assert_eq!(select_victims(&edges, &age), vec![g(2)]);
    }

    #[test]
    fn multiple_cycles_all_broken() {
        // Two disjoint 2-cycles.
        let edges = vec![(g(1), g(2)), (g(2), g(1)), (l(3), l(4)), (l(4), l(3))];
        let age = ages(&[(g(1), 1), (g(2), 2), (l(3), 3), (l(4), 4)]);
        let victims = select_victims(&edges, &age);
        assert_eq!(victims.len(), 2);
        assert!(victims.contains(&g(2)));
        assert!(victims.contains(&l(4)));
    }

    #[test]
    fn overlapping_cycles_may_share_victim() {
        // g1 -> g2 -> g1 and g2 -> g3 -> g2: removing g2 breaks both.
        let edges = vec![(g(1), g(2)), (g(2), g(1)), (g(2), g(3)), (g(3), g(2))];
        let age = ages(&[(g(1), 1), (g(2), 9), (g(3), 2)]);
        let victims = select_victims(&edges, &age);
        // g2 is youngest in the first cycle found; removing it also breaks
        // the second cycle.
        assert_eq!(victims, vec![g(2)]);
    }

    /// A protocol with a waits-for detector, and the oracle for it: the
    /// first victim over the edge list of a whole-table scan.
    trait Detector: CcProtocol + Default {
        fn table_scan(&self) -> DeadlockOutcome;
    }
    impl Detector for TwoPhaseLocking {
        fn table_scan(&self) -> DeadlockOutcome {
            self.scan_for_victim()
        }
    }
    impl Detector for SerializationGraphTesting {
        fn table_scan(&self) -> DeadlockOutcome {
            self.table_scan_for_victim()
        }
    }

    #[derive(Clone, Copy)]
    enum Op {
        Read(DataItemId),
        Write(DataItemId),
    }

    #[derive(Clone, Copy)]
    enum Slot {
        Active(TxnId),
        Blocked(TxnId, Op),
    }

    /// What a run exercised, so a test can tell it reached the cases it is
    /// there for.
    #[derive(Default)]
    struct Coverage {
        checks: u64,
        victims: u64,
        /// Blocks of a woken transaction's retry.
        retry_blocks: u64,
    }

    /// The engine's handling of decisions, wakes and deadlock resolution
    /// (`LocalDbms::{submit, process_wakes, resolve_deadlocks}`) over a
    /// bare protocol, with the oracle consulted at every block.
    struct Driver<P: Detector> {
        p: P,
        slots: Vec<Option<Slot>>,
        next_id: u64,
        coverage: Coverage,
    }

    impl<P: Detector> Driver<P> {
        fn slot_of(&self, txn: TxnId) -> Option<usize> {
            self.slots.iter().position(|s| match s {
                Some(Slot::Active(t)) | Some(Slot::Blocked(t, _)) => *t == txn,
                None => false,
            })
        }

        fn decide(&mut self, txn: TxnId, op: Op) -> Decision {
            match op {
                Op::Read(item) => self.p.on_read(txn, item),
                Op::Write(item) => self.p.on_write(txn, item),
            }
        }

        fn end(&mut self, txn: TxnId, committed: bool) {
            let i = self.slot_of(txn).expect("ending a live txn");
            self.slots[i] = None;
            let mut queue: VecDeque<TxnId> = self.p.on_end(txn, committed).into();
            while let Some(w) = queue.pop_front() {
                let Some(i) = self.slot_of(w) else { continue };
                let Some(Slot::Blocked(_, op)) = self.slots[i] else {
                    continue;
                };
                self.slots[i] = Some(Slot::Active(w));
                self.apply(w, op, true);
            }
        }

        fn apply(&mut self, txn: TxnId, op: Op, retry: bool) {
            match self.decide(txn, op) {
                Decision::Grant => {}
                Decision::Abort(_) => self.end(txn, false),
                Decision::Block => {
                    let i = self.slot_of(txn).expect("live");
                    self.slots[i] = Some(Slot::Blocked(txn, op));
                    self.coverage.retry_blocks += u64::from(retry);
                    self.resolve(txn);
                }
            }
        }

        fn resolve(&mut self, requester: TxnId) {
            while let Some(Slot::Blocked(..)) = self.slot_of(requester).and_then(|i| self.slots[i])
            {
                self.coverage.checks += 1;
                let want = self.p.table_scan();
                let got = self.p.check_deadlock(requester);
                assert_eq!(got, want, "{}: requester {requester}", self.p.name());
                let DeadlockOutcome::Victim(v) = got else {
                    return;
                };
                self.coverage.victims += 1;
                self.end(v, false);
            }
        }

        /// One random step: begin a transaction in a free slot, end or
        /// abort a live one (blocked ones included: the engine cancels a
        /// waiter by aborting it), or submit an access for an active one.
        fn step(&mut self, z: u64, items: u64) {
            let i = (z % self.slots.len() as u64) as usize;
            let roll = (z >> 16) % 16;
            let item = DataItemId((z >> 32) % items);
            match self.slots[i] {
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    // Both classes, so victim selection's preference shows.
                    let txn = match id % 3 {
                        0 => TxnId::Local(LocalTxnId {
                            site: SiteId(0),
                            seq: id,
                        }),
                        _ => TxnId::Global(GlobalTxnId(id)),
                    };
                    self.p.on_begin(txn, id);
                    self.slots[i] = Some(Slot::Active(txn));
                }
                Some(Slot::Blocked(txn, _)) if roll == 0 => self.end(txn, false),
                Some(Slot::Blocked(..)) => {}
                Some(Slot::Active(txn)) => match roll {
                    0 => self.end(txn, false),
                    1 | 2 => self.end(txn, true),
                    r if r % 2 == 0 => self.apply(txn, Op::Read(item), false),
                    _ => self.apply(txn, Op::Write(item), false),
                },
            }
        }
    }

    fn walk_first_matches_table_scan<P: Detector>(
        cases: u64,
        steps: u64,
        txns: usize,
        items: u64,
    ) -> Coverage {
        let mut coverage = Coverage::default();
        for case in 0..cases {
            let mut d = Driver {
                p: P::default(),
                slots: vec![None; txns],
                next_id: 1,
                coverage,
            };
            let mut z = splitmix64(case ^ 0xdead_10cc);
            for _ in 0..steps {
                z = splitmix64(z);
                d.step(z, items);
            }
            coverage = d.coverage;
        }
        coverage
    }

    #[test]
    fn walk_first_check_matches_table_scan_2pl() {
        let c = walk_first_matches_table_scan::<TwoPhaseLocking>(150, 400, 6, 3);
        assert!(c.checks > 1_000 && c.victims > 100, "too little contention");
    }

    #[test]
    fn walk_first_check_matches_table_scan_sgt() {
        let c = walk_first_matches_table_scan::<SerializationGraphTesting>(150, 400, 6, 3);
        assert!(c.checks > 1_000 && c.victims > 100, "too little contention");
        assert!(c.retry_blocks > 100, "no woken retry ever blocked");
    }

    #[test]
    #[ignore = "soak test; run explicitly in release"]
    fn walk_first_check_matches_table_scan_long() {
        walk_first_matches_table_scan::<TwoPhaseLocking>(1_000, 1_500, 12, 8);
        walk_first_matches_table_scan::<SerializationGraphTesting>(1_000, 1_500, 12, 8);
    }
}
