//! The wake path's edge cases.
//!
//! Figure 3's inner loop re-tests waiters in place, and the dense kernels
//! of Schemes 1 and 3 have re-tests that must fail charged in closed form:
//! Scheme 1's `fin`s after an `ack`, all but the delete-queue fronts after
//! a `fin`, the `ser`s behind a woken `ser` at its site, and all but the
//! insert-queue front's once no member of that queue is unmarked; Scheme 3's
//! `fin`s after a `fin` but those whose `ser_bef` row a `fin` emptied, and
//! the `ser`s behind a woken `ser` at its site. The BTree kernels run them
//! all, and so are the oracle for the charge. These tests pin what random
//! valid scripts never reach, or reach without saying so:
//!
//! - a `fin` that arrives *before* its transaction's last `ack` — the one
//!   order in which an `ack` can enable a waiting `fin` — is still woken
//!   by that `ack`;
//! - an `ack` of some other transaction, arriving while fins wait, charges
//!   in closed form exactly what the literal re-tests charge;
//! - a fin pass wakes a front its own wakes exposed above its cursor in the
//!   same pass, and one below it in the next;
//! - a woken `ser` cuts off only the sers behind it at its site, after the
//!   ones before it were re-tested;
//! - an unmarked waiter passes ahead of a marked insert-queue front, and
//!   once none is left the front is the one `ser` re-tested;
//! - the same two passes for Scheme 3, where a fin whose row stays
//!   non-empty is charged every pass and never re-tested.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, SchedEvent};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::reference::realizations;
use mdbs_core::scheme::{Gtm2Scheme, SchemeEffect, SchemeKind};

fn init(txn: u64, sites: &[u32]) -> QueueOp {
    QueueOp::Init {
        txn: GlobalTxnId(txn),
        sites: sites.iter().map(|&s| SiteId(s)).collect(),
    }
}
fn ser(txn: u64, site: u32) -> QueueOp {
    QueueOp::Ser {
        txn: GlobalTxnId(txn),
        site: SiteId(site),
    }
}
fn ack(txn: u64, site: u32) -> QueueOp {
    QueueOp::Ack {
        txn: GlobalTxnId(txn),
        site: SiteId(site),
    }
}
fn fin(txn: u64) -> QueueOp {
    QueueOp::Fin {
        txn: GlobalTxnId(txn),
    }
}

/// Everything two runs of one operation sequence are compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    effects: Vec<SchemeEffect>,
    stats: Gtm2Stats,
    steps: StepCounter,
    waiting: usize,
}

/// Enqueue `ops` and pump the engine dry.
fn feed(e: &mut Gtm2, ops: &[QueueOp]) -> Vec<SchemeEffect> {
    ops.iter().for_each(|op| e.enqueue(op.clone()));
    e.pump()
}

fn observed(e: &Gtm2, effects: Vec<SchemeEffect>) -> Observed {
    Observed {
        effects,
        stats: e.stats(),
        steps: e.steps(),
        waiting: e.wait_len(),
    }
}

fn counter(e: &Gtm2, name: &str) -> u64 {
    let mut registry = Registry::new();
    e.export_metrics(&mut registry);
    registry.counter(name)
}

fn wake_elided(e: &Gtm2) -> u64 {
    counter(e, "gtm2.wake_elided")
}

/// Feed `rounds` one after another, pumping dry after each.
fn run(scheme: Box<dyn Gtm2Scheme + Send>, rounds: &[&[QueueOp]]) -> Gtm2 {
    let mut engine = Gtm2::new(scheme);
    for round in rounds {
        feed(&mut engine, round);
    }
    engine
}

/// `fin_1` is enqueued after `G1`'s first ack but before its last: it is
/// waiting when the ack that makes `G1` the front of s1's delete queue
/// arrives, and only that ack can wake it. `fin_2` waits behind it at s0
/// so the fin → fins cascade runs too.
#[test]
fn fin_enqueued_before_its_last_ack_is_woken_by_that_ack() {
    let rounds: [&[QueueOp]; 5] = [
        &[init(1, &[0, 1]), init(2, &[0]), ser(1, 0), ser(1, 1)],
        &[ack(1, 0), ser(2, 0)],
        &[ack(2, 0), fin(2)], // fin_2 waits: s0's delete front is G1
        &[fin(1)],            // early: s1 has no delete-queue entry yet
        &[ack(1, 1)],         // wakes fin_1, whose pops wake fin_2
    ];
    let mut seen = Vec::new();
    for (kernel, scheme) in realizations(SchemeKind::Scheme1) {
        let mut e = run(scheme, &rounds[..4]);
        assert_eq!(
            e.wait_len(),
            2,
            "{kernel}: both fins wait before the last ack"
        );
        let fx = feed(&mut e, rounds[4]);
        let after = observed(&e, fx);
        assert_eq!(after.waiting, 0, "{kernel}: ack woke the fins");
        assert_eq!(after.stats.fins, 2, "{kernel}");
        assert_eq!(after.stats.protocol_violations, 0, "{kernel}");
        seen.push(after);
    }
    assert_eq!(seen[0], seen[1], "BTree vs Dense");
}

/// An ack of a transaction whose fin is *not* waiting, while another fin
/// is: the dense kernel charges that fin's re-test without running it, the
/// BTree kernel runs it, and the step counters must agree.
#[test]
fn unrelated_ack_charges_waiting_fins_like_the_literal_retest() {
    let rounds: [&[QueueOp]; 5] = [
        &[init(1, &[0]), init(2, &[0, 1]), init(3, &[1]), ser(1, 0)],
        &[ack(1, 0), ser(2, 0)],
        &[ack(2, 0), ser(2, 1)],
        &[ack(2, 1), fin(2)], // waits: s0's delete front is G1
        &[ser(3, 1)],
    ];
    let mut engines: Vec<Gtm2> = realizations(SchemeKind::Scheme1)
        .map(|(_, scheme)| run(scheme, &rounds))
        .collect();
    let [btree, dense] = &mut engines[..] else {
        panic!("Scheme 1 has a btree and a dense kernel");
    };
    let elided_before = wake_elided(dense);
    // G3's ack appends to s1's delete queue behind G2: fin_2 still
    // fails, and is charged 1 + |Ĝ_2| = 3 Cond steps either way.
    let cond_before = observed(dense, Vec::new()).steps.cond;
    let b = feed(btree, &[ack(3, 1)]);
    let d = feed(dense, &[ack(3, 1)]);
    let (b, d) = (observed(btree, b), observed(dense, d));
    assert_eq!(b, d, "BTree vs Dense");
    assert_eq!(d.waiting, 1, "fin_2 still waits");
    assert_eq!(d.steps.cond - cond_before, 1 + 3);
    assert_eq!(wake_elided(dense) - elided_before, 1);
    assert_eq!(wake_elided(btree), 0);
    // And the run still finishes identically on both kernels.
    let tail = [fin(1), fin(3)];
    let (b, d) = (feed(btree, &tail), feed(dense, &tail));
    let (b, d) = (observed(btree, b), observed(dense, d));
    assert_eq!(b, d, "BTree vs Dense at the end");
    assert_eq!((d.waiting, d.stats.fins), (0, 3));
}

/// Delete queues s0 = [G1, G5, G2] and s1 = [G5, G8], with `fin_5`
/// (sites s0, s1), `fin_2` (s0) and `fin_8` (s1) waiting. `fin_1` pops s0,
/// and the pass it queues wakes `fin_5`, whose pops expose G2 at s0 and G8
/// at s1. `fin_8` lies above the pass's cursor (G5) and wakes in the same
/// pass; `fin_2` lies below it and wakes in the pass `fin_5`'s act queued.
/// Literally the first pass re-tests 2, 5, 8 and the second 2; the dense
/// kernel re-tests only 5, 8 and then 2, and charges `fin_2`'s first
/// re-test in closed form.
#[test]
fn fin_pass_wakes_a_later_front_now_and_an_earlier_one_next_pass() {
    let rounds: [&[QueueOp]; 5] = [
        &[
            init(1, &[0]),
            init(5, &[0, 1]),
            init(2, &[0]),
            init(8, &[1]),
            ser(1, 0),
        ],
        &[ack(1, 0), ser(5, 0), ser(5, 1)],
        &[ack(5, 0), ack(5, 1), ser(2, 0), ser(8, 1)],
        &[ack(2, 0), ack(8, 1)],
        &[fin(5), fin(2), fin(8)],
    ];
    let mut seen = Vec::new();
    let mut elided = Vec::new();
    for (kernel, scheme) in realizations(SchemeKind::Scheme1) {
        let mut e = run(scheme, &rounds);
        let before = observed(&e, Vec::new());
        assert_eq!(before.waiting, 3, "{kernel}: three fins wait");
        let elided_before = wake_elided(&e);
        let fx = feed(&mut e, &[fin(1)]);
        let after = observed(&e, fx);
        assert_eq!(after.waiting, 0, "{kernel}: every fin woke");
        assert_eq!(after.stats.fins, 4, "{kernel}");
        // `fin_1` (1 + 1); first pass: fins 2, 5, 8 (2 + 3 + 2);
        // second: fin 2 (2).
        assert_eq!(
            after.steps.cond - before.steps.cond,
            2 + 2 + 3 + 2 + 2,
            "{kernel}"
        );
        elided.push(wake_elided(&e) - elided_before);
        seen.push(after);
    }
    assert_eq!(seen[0], seen[1], "BTree vs Dense");
    assert_eq!(elided, [0, 1], "wake_elided, BTree and Dense");
    // The order of the wakes.
    for (kernel, scheme) in realizations(SchemeKind::Scheme1) {
        let mut engine = run(scheme, &rounds);
        engine.set_tracing(true);
        feed(&mut engine, &[fin(1)]);
        let woken: Vec<u64> = engine
            .drain_events()
            .filter_map(|event| match event {
                SchedEvent::Wake { txn, .. } => Some(txn.0),
                _ => None,
            })
            .collect();
        assert_eq!(woken, [5, 8, 2], "{kernel}: wake order");
    }
}

/// At s0, G3's `ser` is outstanding while four sers wait: G2's is marked
/// (G1 and G2 share s0 and s1) behind G1, which heads s0's insert queue,
/// and G4's, G5's and G6's are unmarked. `ack_3` re-tests G2 (fails: not
/// the front), wakes G4, and G4's outstanding `ser` then fails G5 and G6 at
/// one `Cond` step each — re-tested by the BTree kernel, charged by the
/// dense one.
#[test]
fn woken_ser_cuts_off_only_the_sers_behind_it() {
    let rounds: [&[QueueOp]; 2] = [
        &[
            init(1, &[0, 1]),
            init(2, &[0, 1]),
            init(3, &[0]),
            init(4, &[0]),
            init(5, &[0]),
            init(6, &[0]),
            ser(3, 0),
        ],
        &[ser(2, 0), ser(4, 0), ser(5, 0), ser(6, 0)],
    ];
    let mut seen = Vec::new();
    let mut elided = Vec::new();
    for (kernel, scheme) in realizations(SchemeKind::Scheme1) {
        let mut e = run(scheme, &rounds);
        let before = observed(&e, Vec::new());
        assert_eq!(before.waiting, 4, "{kernel}: four sers wait");
        let elided_before = wake_elided(&e);
        let fx = feed(&mut e, &[ack(3, 0)]);
        let after = observed(&e, fx);
        assert_eq!(
            after.effects,
            [
                SchemeEffect::ForwardAck {
                    txn: GlobalTxnId(3),
                    site: SiteId(0)
                },
                SchemeEffect::SubmitSer {
                    txn: GlobalTxnId(4),
                    site: SiteId(0)
                },
            ],
            "{kernel}"
        );
        assert_eq!(after.waiting, 3, "{kernel}: G2, G5, G6 wait");
        // One step for the ack's `cond`, one for each ser re-test.
        assert_eq!(after.steps.cond - before.steps.cond, 1 + 4, "{kernel}");
        elided.push(wake_elided(&e) - elided_before);
        seen.push(after);
    }
    assert_eq!(seen[0], seen[1], "BTree vs Dense");
    assert_eq!(elided, [0, 2], "wake_elided, BTree and Dense");
}

/// At s0, G1's `ser` is outstanding while G3's and G2's wait: G1 and G3
/// share s0 and s1, so G3 is marked at s0, and G2 (s0 only) is unmarked.
/// `ack_1` makes G3 the front of s0's insert queue, but G2 is unmarked, so
/// the range is walked literally: G2 wakes ahead of the front, and its
/// outstanding `ser` fails G3 — charged by the dense kernel. `ack_2` leaves
/// no member unmarked at s0, so the dense kernel re-tests only the front,
/// G3, which wakes. The BTree kernel re-tests every waiter both times.
#[test]
fn unmarked_waiter_passes_ahead_of_a_marked_front() {
    let rounds: [&[QueueOp]; 2] = [
        &[init(1, &[0, 1]), init(3, &[0, 1]), init(2, &[0]), ser(1, 0)],
        &[ser(3, 0), ser(2, 0)],
    ];
    let submitted = |txn| SchemeEffect::SubmitSer {
        txn: GlobalTxnId(txn),
        site: SiteId(0),
    };
    let forwarded = |txn| SchemeEffect::ForwardAck {
        txn: GlobalTxnId(txn),
        site: SiteId(0),
    };
    let mut seen = Vec::new();
    let mut work = Vec::new();
    for (kernel, scheme) in realizations(SchemeKind::Scheme1) {
        let mut e = run(scheme, &rounds);
        let before = observed(&e, Vec::new());
        assert_eq!(before.waiting, 2, "{kernel}: G3's and G2's sers wait");
        let fx = feed(&mut e, &[ack(1, 0)]);
        let after_first = observed(&e, fx);
        assert_eq!(
            after_first.effects,
            [forwarded(1), submitted(2)],
            "{kernel}"
        );
        // One step for the ack's `cond`, one for each ser's.
        assert_eq!(
            after_first.steps.cond - before.steps.cond,
            1 + 2,
            "{kernel}"
        );
        let fx = feed(&mut e, &[ack(2, 0)]);
        let after = observed(&e, fx);
        assert_eq!(after.effects, [forwarded(2), submitted(3)], "{kernel}");
        assert_eq!(after.waiting, 0, "{kernel}");
        assert_eq!(after.steps.cond - after_first.steps.cond, 1 + 1, "{kernel}");
        work.push((wake_elided(&e), counter(&e, "gtm2.retests_ser")));
        seen.push((after_first, after));
    }
    assert_eq!(seen[0], seen[1], "BTree vs Dense");
    assert_eq!(
        work,
        [(0, 3), (1, 2)],
        "(wake_elided, retests_ser), BTree and Dense"
    );
}

/// Scheme 3: `fin_5` (row {G1}), `fin_2` and `fin_8` (rows {G1, G5}) and
/// `fin_9` (row {G7}, G7 still live) wait. `fin_1` empties `fin_5`'s row
/// only, and the pass it queues wakes `fin_5`, whose act empties the rows
/// of `fin_2` and `fin_8`. `fin_8` lies above the pass's cursor (G5) and
/// wakes in the same pass; `fin_2` lies at or below it and wakes in the
/// pass `fin_5`'s act queued. `fin_9`'s row never empties: every pass
/// charges its one `Cond` step, and the dense kernel never runs it.
#[test]
fn scheme3_fin_pass_wakes_only_rows_a_fin_emptied() {
    let rounds: [&[QueueOp]; 7] = [
        &[init(1, &[0]), ser(1, 0)],
        &[ack(1, 0), init(5, &[0, 1]), init(7, &[2]), ser(7, 2)],
        &[ser(5, 0), ser(5, 1), ack(7, 2), init(9, &[2])],
        &[
            ack(5, 0),
            ack(5, 1),
            init(2, &[0]),
            init(8, &[1]),
            ser(9, 2),
        ],
        &[ser(2, 0), ser(8, 1), ack(9, 2)],
        &[ack(2, 0), ack(8, 1)],
        &[fin(5), fin(2), fin(8), fin(9)],
    ];
    let mut seen = Vec::new();
    let mut elided = Vec::new();
    for (kernel, scheme) in realizations(SchemeKind::Scheme3) {
        let mut e = run(scheme, &rounds);
        let before = observed(&e, Vec::new());
        assert_eq!(before.waiting, 4, "{kernel}: four fins wait");
        let elided_before = wake_elided(&e);
        let fx = feed(&mut e, &[fin(1)]);
        let after = observed(&e, fx);
        assert_eq!(after.waiting, 1, "{kernel}: fin_9 still waits");
        assert_eq!(after.stats.fins, 4, "{kernel}");
        // `fin_1`, then four passes: fins 2, 5, 8, 9; then 2, 9; then 9
        // twice. One step each.
        assert_eq!(
            after.steps.cond - before.steps.cond,
            1 + 4 + 2 + 1 + 1,
            "{kernel}"
        );
        elided.push(wake_elided(&e) - elided_before);
        seen.push(after);
    }
    assert_eq!(seen[0], seen[1], "BTree vs Dense");
    // The dense passes re-test 5, 8; 2; nothing; nothing.
    assert_eq!(elided, [0, 2 + 1 + 1 + 1], "wake_elided, BTree and Dense");
    // The order of the wakes, and which fins were re-tested.
    for ((kernel, scheme), fin_9_retests) in realizations(SchemeKind::Scheme3).zip([4, 0]) {
        let mut engine = run(scheme, &rounds);
        engine.set_tracing(true);
        feed(&mut engine, &[fin(1)]);
        let events: Vec<SchedEvent> = engine.drain_events().collect();
        let woken: Vec<u64> = events
            .iter()
            .filter_map(|event| match *event {
                SchedEvent::Wake { txn, .. } => Some(txn.0),
                _ => None,
            })
            .collect();
        assert_eq!(woken, [5, 8, 2], "{kernel}: wake order");
        let retests = events
            .iter()
            .filter(|event| matches!(event, SchedEvent::Cond { txn, .. } if *txn == GlobalTxnId(9)))
            .count();
        assert_eq!(retests, fin_9_retests, "{kernel}: re-tests of fin_9");
    }
}

/// Scheme 3 at s0: G3's `ser` ran and is unacked while four sers wait.
/// G2's has G1 in its `ser_bef` (G1 ran at s1 while G2 was pending there)
/// and G1 is still pending at s0; G4's, G5's and G6's only wait for G3's
/// ack. `ack_3` re-tests G2 (fails on `ser_bef ∩ set_0`), wakes G4, and
/// G4's unacked event then fails G5 and G6 at two `Cond` steps each —
/// re-tested by the BTree kernel, charged by the dense one.
#[test]
fn scheme3_woken_ser_cuts_off_the_sers_behind_it() {
    let rounds: [&[QueueOp]; 2] = [
        &[
            init(1, &[0, 1]),
            init(2, &[0, 1]),
            init(3, &[0]),
            init(4, &[0]),
            init(5, &[0]),
            init(6, &[0]),
            ser(1, 1),
            ser(3, 0),
        ],
        &[ser(2, 0), ser(4, 0), ser(5, 0), ser(6, 0)],
    ];
    let mut seen = Vec::new();
    let mut elided = Vec::new();
    for (kernel, scheme) in realizations(SchemeKind::Scheme3) {
        let mut e = run(scheme, &rounds);
        let before = observed(&e, Vec::new());
        assert_eq!(before.waiting, 4, "{kernel}: four sers wait");
        let elided_before = wake_elided(&e);
        let fx = feed(&mut e, &[ack(3, 0)]);
        let after = observed(&e, fx);
        assert_eq!(
            after.effects,
            [
                SchemeEffect::ForwardAck {
                    txn: GlobalTxnId(3),
                    site: SiteId(0)
                },
                SchemeEffect::SubmitSer {
                    txn: GlobalTxnId(4),
                    site: SiteId(0)
                },
            ],
            "{kernel}"
        );
        assert_eq!(after.waiting, 3, "{kernel}: G2, G5, G6 wait");
        // The ack's `cond`; G2: 2 + min(|{G1, G3}|, |set_0|); G4:
        // 2 + min(|{G3}|, |set_0|); G5 and G6: 2 each.
        assert_eq!(
            after.steps.cond - before.steps.cond,
            1 + 4 + 3 + 2 + 2,
            "{kernel}"
        );
        elided.push(wake_elided(&e) - elided_before);
        seen.push(after);
    }
    assert_eq!(seen[0], seen[1], "BTree vs Dense");
    assert_eq!(elided, [0, 2], "wake_elided, BTree and Dense");
}
