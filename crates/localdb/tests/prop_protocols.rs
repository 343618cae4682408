//! Property tests for the local DBMS engines.
//!
//! For every protocol and random concurrent workload:
//! 1. the recorded local schedule is well-formed and conflict-serializable;
//! 2. the run never wedges (every block is eventually resolved or aborted);
//! 3. final storage equals the last committed writer's value per item
//!    (validates undo logs and deferred buffers);
//! 4. the protocol's **serialization function** (paper Section 2.2) is
//!    honest: for every direct serialization-graph edge `a -> b`, the
//!    serialization event of `a` precedes that of `b` in the local schedule.

use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId, SiteId, TxnId};
use mdbs_common::ops::DataOpKind;
use mdbs_common::rng::{fnv1a, splitmix64, FNV_OFFSET_BASIS};
use mdbs_localdb::engine::{Completion, LocalDbms, OpOutcome, SubmitResult};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_schedule::{serialization_graph, History};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
enum ScriptOp {
    Read(DataItemId),
    Write(DataItemId),
    Commit,
}

#[derive(Clone, Debug)]
struct Client {
    txn: TxnId,
    script: Vec<ScriptOp>,
    cursor: usize,
    waiting: bool,
    done: bool,
}

/// Value written by `txn` to `item` — unique per (txn, item) so final
/// storage can be predicted from the history.
fn write_value(txn: TxnId, item: DataItemId) -> i64 {
    let id = match txn {
        TxnId::Global(g) => g.0,
        TxnId::Local(l) => 1_000_000 + l.seq,
    };
    (id as i64) * 10_000 + item.0 as i64
}

/// Run `clients` against a fresh site with `kind`, interleaving by `seed`.
/// Returns the engine after all clients finished.
fn run_workload(kind: LocalProtocolKind, clients: Vec<Client>, seed: u64) -> LocalDbms {
    run_workload_recording(kind, clients, seed).0
}

/// [`run_workload`], also returning every completion the engine emitted,
/// in emission order.
fn run_workload_recording(
    kind: LocalProtocolKind,
    mut clients: Vec<Client>,
    seed: u64,
) -> (LocalDbms, Vec<Completion>) {
    let mut db = LocalDbms::new(SiteId(0), kind);
    let mut completions = Vec::new();
    for c in &clients {
        db.begin(c.txn).expect("begin");
    }
    let mut z = seed;
    let mut stuck_guard = 0usize;
    loop {
        // Drain completions.
        for comp in db.take_completions() {
            let c = clients
                .iter_mut()
                .find(|c| c.txn == comp.txn)
                .expect("client");
            c.waiting = false;
            match comp.outcome {
                Ok(OpOutcome::Committed) => c.done = true,
                Ok(_) => c.cursor += 1,
                Err(_) => c.done = true, // aborted while waiting
            }
            completions.push(comp);
        }
        let ready: Vec<usize> = clients
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.done && !c.waiting)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if clients.iter().all(|c| c.done) {
                break;
            }
            panic!("stuck: all unfinished clients are blocked ({kind:?})");
        }
        z = splitmix64(z);
        let c = &mut clients[ready[(z % ready.len() as u64) as usize]];
        let op = c.script[c.cursor];
        let result = match op {
            ScriptOp::Read(item) => db.submit_read(c.txn, item),
            ScriptOp::Write(item) => db.submit_write(c.txn, item, write_value(c.txn, item)),
            ScriptOp::Commit => db.submit_commit(c.txn),
        };
        match result {
            Ok(SubmitResult::Done(OpOutcome::Committed)) => c.done = true,
            Ok(SubmitResult::Done(_)) => c.cursor += 1,
            Ok(SubmitResult::Blocked) => c.waiting = true,
            Err(_) => c.done = true, // aborted
        }
        stuck_guard += 1;
        assert!(stuck_guard < 100_000, "runaway workload");
    }
    // Final drain (completions raced with the last finish).
    completions.extend(db.take_completions());
    (db, completions)
}

/// Build clients from proptest raw material. Each transaction accesses each
/// item at most once (reads may repeat items of other txns). At SGT sites a
/// ticket read-modify-write prefixes the script, per the paper.
fn make_clients(kind: LocalProtocolKind, raw: &[Vec<(bool, u64)>]) -> Vec<Client> {
    raw.iter()
        .enumerate()
        .map(|(i, accesses)| {
            let txn = TxnId::Global(GlobalTxnId(i as u64 + 1));
            let mut script = Vec::new();
            if kind.needs_ticket() {
                script.push(ScriptOp::Read(DataItemId::TICKET));
                script.push(ScriptOp::Write(DataItemId::TICKET));
            }
            let mut seen = Vec::new();
            for &(is_write, item) in accesses {
                let item = DataItemId(1 + item); // item 0 reserved for ticket
                if seen.contains(&item) {
                    continue;
                }
                seen.push(item);
                script.push(if is_write {
                    ScriptOp::Write(item)
                } else {
                    ScriptOp::Read(item)
                });
            }
            script.push(ScriptOp::Commit);
            Client {
                txn,
                script,
                cursor: 0,
                waiting: false,
                done: false,
            }
        })
        .collect()
}

/// Position of the serialization event of `txn` in the history.
fn ser_event_pos(h: &History, txn: TxnId, ev: SerializationEvent) -> Option<usize> {
    h.ops().iter().enumerate().find_map(|(pos, op)| {
        if op.txn != txn {
            return None;
        }
        let hit = match ev {
            SerializationEvent::Begin => op.kind == DataOpKind::Begin,
            SerializationEvent::Commit => op.kind == DataOpKind::Commit,
            SerializationEvent::TicketWrite => {
                op.kind == DataOpKind::Write && op.item == Some(DataItemId::TICKET)
            }
            // 2PC mode only; prepares are not recorded in histories and
            // these workloads run in paper mode.
            SerializationEvent::Prepare => false,
        };
        hit.then_some(pos)
    })
}

fn check_run(kind: LocalProtocolKind, raw: &[Vec<(bool, u64)>], seed: u64) {
    let clients = make_clients(kind, raw);
    let scripts: BTreeMap<TxnId, Vec<ScriptOp>> =
        clients.iter().map(|c| (c.txn, c.script.clone())).collect();
    let db = run_workload(kind, clients, seed);
    let h = db.history().clone();

    // (1) Well-formed, conflict-serializable local schedule.
    assert!(h.is_well_formed(), "{kind:?}: malformed history {h:?}");
    assert!(
        mdbs_schedule::is_conflict_serializable(&h),
        "{kind:?}: non-serializable local schedule {h:?}"
    );

    // (3) Final storage = last committed writer per item.
    let committed = h.committed_txns();
    let mut expected: BTreeMap<DataItemId, i64> = BTreeMap::new();
    for op in h.ops() {
        if op.kind == DataOpKind::Write && committed.contains(&op.txn) {
            let item = op.item.expect("write has item");
            expected.insert(item, write_value(op.txn, item));
        }
    }
    for (item, value) in &expected {
        assert_eq!(
            db.storage().read(*item),
            *value,
            "{kind:?}: storage mismatch at {item:?}"
        );
    }
    // Items never written by a committed txn must be untouched.
    for (item, value) in db.storage().iter() {
        if value != 0 {
            assert!(
                expected.contains_key(&item),
                "{kind:?}: stray value at {item:?}"
            );
        }
    }

    // (4) Serialization-function honesty on direct edges.
    let ev = SerializationEvent::for_protocol(kind);
    let g = serialization_graph(&h);
    for (a, b) in g.edges() {
        // For ticket sites the guarantee covers ticket-taking transactions;
        // in this workload that is everyone.
        let pa =
            ser_event_pos(&h, a, ev).unwrap_or_else(|| panic!("{kind:?}: no ser event for {a:?}"));
        let pb =
            ser_event_pos(&h, b, ev).unwrap_or_else(|| panic!("{kind:?}: no ser event for {b:?}"));
        assert!(
            pa < pb,
            "{kind:?}: serialization function violated on edge {a:?} -> {b:?} ({pa} >= {pb})"
        );
    }

    // Sanity: scripts drove real work.
    assert!(h.len() >= scripts.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn twopl_random_workloads(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..6), 0..5), 1..6),
        seed in any::<u64>(),
    ) {
        check_run(LocalProtocolKind::TwoPhaseLocking, &raw, seed);
    }

    #[test]
    fn to_random_workloads(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..6), 0..5), 1..6),
        seed in any::<u64>(),
    ) {
        check_run(LocalProtocolKind::TimestampOrdering, &raw, seed);
    }

    #[test]
    fn sgt_random_workloads(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..6), 0..5), 1..6),
        seed in any::<u64>(),
    ) {
        check_run(LocalProtocolKind::SerializationGraphTesting, &raw, seed);
    }

    #[test]
    fn occ_random_workloads(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..6), 0..5), 1..6),
        seed in any::<u64>(),
    ) {
        check_run(LocalProtocolKind::Optimistic, &raw, seed);
    }

    #[test]
    fn wait_die_random_workloads(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..6), 0..5), 1..6),
        seed in any::<u64>(),
    ) {
        check_run(LocalProtocolKind::TwoPhaseLockingWaitDie, &raw, seed);
    }

    #[test]
    fn wound_wait_random_workloads(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..6), 0..5), 1..6),
        seed in any::<u64>(),
    ) {
        check_run(LocalProtocolKind::TwoPhaseLockingWoundWait, &raw, seed);
    }

    /// Mixed local and global transactions: the engine must not care.
    #[test]
    fn mixed_txn_kinds_serializable(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u64..4), 1..4), 2..5),
        seed in any::<u64>(),
        kind_idx in 0usize..6,
    ) {
        let kind = LocalProtocolKind::ALL[kind_idx];
        let mut clients = make_clients(kind, &raw);
        // Relabel odd clients as local transactions.
        for (i, c) in clients.iter_mut().enumerate() {
            if i % 2 == 1 {
                c.txn = TxnId::Local(LocalTxnId {
                    site: SiteId(0),
                    seq: i as u64,
                });
            }
        }
        let db = run_workload(kind, clients, seed);
        prop_assert!(db.history().is_well_formed());
        prop_assert!(mdbs_schedule::is_conflict_serializable(db.history()));
    }
}

/// Deterministic regression: heavy write contention on one item.
#[test]
fn single_item_contention_all_protocols() {
    for kind in LocalProtocolKind::ALL {
        let raw: Vec<Vec<(bool, u64)>> = (0..6).map(|_| vec![(true, 0)]).collect();
        check_run(kind, &raw, 0xfeed);
    }
}

/// Deterministic regression: read-mostly workload commits everyone under
/// 2PL (shared locks never conflict).
#[test]
fn read_only_workload_commits_all_under_2pl() {
    let raw: Vec<Vec<(bool, u64)>> = (0..5).map(|_| vec![(false, 0), (false, 1)]).collect();
    let clients = make_clients(LocalProtocolKind::TwoPhaseLocking, &raw);
    let db = run_workload(LocalProtocolKind::TwoPhaseLocking, clients, 7);
    assert_eq!(db.stats().commits, 5);
    assert_eq!(db.stats().aborts, 0);
}

/// Fold the `Debug` rendering of `value` into the FNV-1a digest `h`.
fn digest_of(h: &mut u64, value: &dyn std::fmt::Debug) {
    *h = fnv1a(*h, format!("{value:?}").as_bytes());
}

/// Eight transactions (odd ones local, so victim selection sees both
/// classes) of four accesses each over three hot items. Items repeat
/// within a script, so read-then-write lock upgrades occur.
fn hot_item_clients(kind: LocalProtocolKind, seed: u64) -> Vec<Client> {
    let mut z = seed;
    (0..8u64)
        .map(|i| {
            let txn = if i % 2 == 1 {
                TxnId::Local(LocalTxnId {
                    site: SiteId(0),
                    seq: i,
                })
            } else {
                TxnId::Global(GlobalTxnId(i + 1))
            };
            let mut script = Vec::new();
            if kind.needs_ticket() && txn.is_global() {
                script.push(ScriptOp::Read(DataItemId::TICKET));
                script.push(ScriptOp::Write(DataItemId::TICKET));
            }
            for _ in 0..4 {
                z = splitmix64(z);
                let item = DataItemId(1 + (z >> 8) % 3);
                script.push(if z & 1 == 0 {
                    ScriptOp::Write(item)
                } else {
                    ScriptOp::Read(item)
                });
            }
            script.push(ScriptOp::Commit);
            Client {
                txn,
                script,
                cursor: 0,
                waiting: false,
                done: false,
            }
        })
        .collect()
}

/// Golden decision digests: per protocol, over a fixed seed list of
/// hot-item workloads, the recorded history (every executed operation and
/// abort, in order), the completion sequence (every wake and every abort
/// of a blocked transaction, in order) and the engine counters (deadlock
/// victims among them). A change to `crates/localdb` that is meant to keep
/// every grant, block, abort, wake and victim must leave these constants
/// alone.
#[test]
fn golden_decision_digests_hot_items() {
    const GOLDEN: [u64; 6] = [
        18_135_070_356_257_100_594,
        14_382_966_902_467_057_528,
        255_275_399_169_123_650,
        12_794_326_017_773_748_849,
        8_440_447_967_588_679_571,
        8_898_889_386_928_816_110,
    ];
    let mut digests = [0u64; 6];
    let mut victims = [0u64; 6];
    for ((digest, victims), kind) in digests
        .iter_mut()
        .zip(&mut victims)
        .zip(LocalProtocolKind::ALL)
    {
        *digest = FNV_OFFSET_BASIS;
        for seed in 0..32u64 {
            let (db, completions) =
                run_workload_recording(kind, hot_item_clients(kind, seed), seed ^ 0xd1ce);
            assert!(mdbs_schedule::is_conflict_serializable(db.history()));
            digest_of(digest, db.history());
            digest_of(digest, &completions);
            digest_of(digest, &db.stats());
            *victims += db.stats().deadlock_victims;
        }
    }
    // ALL[0] is 2PL and ALL[4] is SGT: the two waits-for detectors.
    assert!(
        victims[0] > 0 && victims[4] > 0,
        "a detector never resolved a deadlock: {victims:?}"
    );
    assert_eq!(digests, GOLDEN, "local protocol decisions changed");
}
