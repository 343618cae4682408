//! Kernel-equivalence property suite: the dense slot/bitset kernels
//! (`kernel_dense`, `tsgd_dense`) are observationally identical to the
//! reference BTree kernels on every stream GTM2 can receive — every
//! caller keeps Figure 2's order, and malformed input is refused at
//! GTM1's door before it reaches GTM2 (`crates/core/tests/door.rs`).
//!
//! "Identical" is strict: same effect sequence, same per-site `ser(S)`
//! orders, same engine stats, and — the load-bearing invariant for the
//! paper's complexity measurements — byte-identical `StepCounter` values.
//! The dense kernels are a machine-cost optimization only; if any of these
//! assertions fail, a counted step moved.
//!
//! Also covered:
//! - every valid script over two or three transactions at two sites
//!   (the latter up to renaming), enumerated by
//!   `replay::for_every_script` rather than sampled;
//! - slot recycling: replaying a script *twice through one engine* reuses
//!   every transaction id after its `fin`, so freed slots are re-interned
//!   and must carry no stale state;
//! - Scheme 3's `ser_bef` bit matrix widening under live rows, compared
//!   with the oracle set by set after every op;
//! - `eliminate_cycles_dense_with` computes exactly the reference Δ with
//!   exactly the reference step charges (Figure 4 parity);
//! - `DenseTsgd::deps_acyclic` agrees with `DiGraph::find_cycle` on the
//!   reference dependency digraph, cycles included.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::Registry;
use mdbs_common::ops::QueueOp;
use mdbs_common::rng::derive_rng;
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::kernel_dense::Scheme3Dense;
use mdbs_core::reference::realizations;
use mdbs_core::reference::scheme3::Scheme3;
use mdbs_core::reference::tsgd::{eliminate_cycles, Tsgd};
use mdbs_core::replay::{for_every_script, replay_with, ReplayOutcome, Script, ScriptEvent};
use mdbs_core::scheme::{Gtm2Scheme, SchemeEffect, SchemeKind};
use mdbs_core::tsgd_dense::{eliminate_cycles_dense_with, DenseTsgd, Dep, EliminateScratch};
use mdbs_schedule::DiGraph;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Strategy: a valid random script described by (n, m, dav, seed).
fn arb_script() -> impl Strategy<Value = Script> {
    (2usize..12, 2usize..5, 10u64..35, any::<u64>())
        .prop_map(|(n, m, dav10, seed)| Script::random(n, m, dav10 as f64 / 10.0, seed))
}

/// Strategy: adversarial scripts for the incremental Scheme 2 path — many
/// transactions crowded onto few sites (cycle-heavy: `Eliminate_Cycles`
/// emits Δ-dependencies constantly) with the replay loop's automatic fins
/// deleting dependency edges while later inits are still arriving.
fn arb_adversarial_script() -> impl Strategy<Value = Script> {
    (8usize..20, 2usize..4, 25u64..40, any::<u64>())
        .prop_map(|(n, m, dav10, seed)| Script::random(n, m, dav10 as f64 / 10.0, seed))
}

/// An engine on every realization of `kind`, reference first, each
/// validating the scheme's invariants after every act.
fn engines(kind: SchemeKind) -> Vec<Gtm2> {
    realizations(kind)
        .map(|(_, scheme)| {
            let mut engine = Gtm2::new(scheme);
            engine.set_validate(true);
            engine
        })
        .collect()
}

/// `script` replayed on every realization of `kind`, reference first.
fn replays(kind: SchemeKind, script: &Script) -> Vec<ReplayOutcome> {
    realizations(kind)
        .map(|(_, scheme)| replay_with(&mut Gtm2::new(scheme), script))
        .collect()
}

/// Build matching reference and dense TSGDs (same shape/dependencies) plus
/// a fresh transaction, mirroring `prop_tsgd::build`.
fn build_pair(shape: &[u8], dep_picks: &[bool], fresh_mask: u8) -> (Tsgd, DenseTsgd, GlobalTxnId) {
    let site_list = |mask: u8| -> Vec<SiteId> {
        (0..4u32)
            .filter(|b| mask & (1 << b) != 0)
            .map(SiteId)
            .collect()
    };
    let mut reference = Tsgd::new();
    let mut dense = DenseTsgd::new();
    for (i, &mask) in shape.iter().enumerate() {
        let sites = site_list(mask | 1 << (i % 4));
        reference.insert_txn(GlobalTxnId(i as u64 + 1), &sites);
        dense.insert_txn(GlobalTxnId(i as u64 + 1), &sites);
    }
    let mut candidates = Vec::new();
    let txns: Vec<GlobalTxnId> = reference.txns().collect();
    for (ai, &a) in txns.iter().enumerate() {
        for &b in &txns[ai + 1..] {
            let sites_a: std::collections::BTreeSet<SiteId> = reference.sites_of(a).collect();
            for s in reference.sites_of(b) {
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
            reference.add_dep(dep);
            dense.add_dep(dep);
        }
    }
    let fresh = GlobalTxnId(999);
    let fresh_sites = site_list(fresh_mask | 1);
    reference.insert_txn(fresh, &fresh_sites);
    dense.insert_txn(fresh, &fresh_sites);
    (reference, dense, fresh)
}

/// The reference dependency digraph: one arc `before → after` per dependency.
fn dep_digraph(reference: &Tsgd) -> DiGraph<GlobalTxnId> {
    let mut g = DiGraph::new();
    for t in reference.txns() {
        g.add_node(t);
    }
    for d in reference.deps() {
        g.add_edge(d.before, d.after);
    }
    g
}

/// Equivalence at the size where the wake storm lives: the benchmark's
/// `sched_burst` shape (nearly every transaction active at once, hundreds
/// of fins waiting per ack), where the dense Scheme 1 kernel's closed-form
/// fin charge and the engine's in-place re-tests do nearly all their work.
/// The proptests below stop at a dozen transactions. Full outcome equality
/// against the BTree oracle.
fn burst_scale_outcomes_match(n: usize) {
    let script = Script::random(n, 10, 2.5, 11);
    // Per-act invariant validation (on by default in debug builds) is cubic
    // in the live transactions; the proptests cover it at small sizes.
    let run = |scheme| {
        let mut engine = Gtm2::new(scheme);
        engine.set_validate(false);
        replay_with(&mut engine, &script)
    };
    for kind in [SchemeKind::Scheme1, SchemeKind::Scheme3] {
        let outcomes: Vec<_> = realizations(kind).map(|(_, scheme)| run(scheme)).collect();
        let [reference, dense] = &outcomes[..] else {
            panic!("{kind} has a btree and a dense kernel");
        };
        assert_identical(reference, dense, &kind.to_string());
        assert_eq!(reference.aborted, dense.aborted, "{kind}");
        assert_eq!(dense.completed, n, "{kind}");
        assert_eq!(dense.protocol_violations, 0, "{kind}");
        assert!(dense.ser_serializable, "{kind}");
    }
}

/// The two kernels' outcomes are identical: same total order of `ser(S)`,
/// same stats, same step counts, same wake-scan work.
fn assert_identical(reference: &ReplayOutcome, dense: &ReplayOutcome, label: &str) {
    assert_eq!(reference.ser_events, dense.ser_events, "{label}: ser(S)");
    assert_eq!(reference.stats, dense.stats, "{label}: stats");
    assert_eq!(reference.steps, dense.steps, "{label}: steps");
    assert_eq!(reference.completed, dense.completed, "{label}: completed");
    assert_eq!(
        (reference.wake_scan_count, reference.wake_scan_sum),
        (dense.wake_scan_count, dense.wake_scan_sum),
        "{label}: wake-scan work"
    );
}

/// 300 transactions still keep ~10² fins waiting per ack, and an
/// unoptimized build replays the BTree side in seconds.
#[test]
fn burst_scale_outcomes_match_reference() {
    burst_scale_outcomes_match(300);
}

/// The benchmark's full 1 000 transactions, where Scheme 3's `ser_bef`
/// rows reach 16 words. The BTree side takes minutes unoptimized, so this
/// runs with the release soak (`--ignored`).
#[test]
#[ignore = "1 000-transaction oracle replay; run in release with --ignored"]
fn burst_scale_1000_outcomes_match_reference() {
    burst_scale_outcomes_match(1000);
}

/// A fixed mixed stream with explicit acks and fins, whose last
/// transaction reuses a slot a fin freed, produces the same effects after
/// every op, and the same steps, stats and `ser(S)`, on both kernels of
/// Schemes 1–3; Scheme 0, which has one kernel, runs it once and must
/// finish it serializably.
#[test]
fn fixed_script_matches_reference_kernels() {
    let sites = |ks: &[u32]| ks.iter().map(|&k| SiteId(k)).collect();
    let init = |i, ks: &[u32]| QueueOp::Init {
        txn: GlobalTxnId(i),
        sites: sites(ks),
    };
    let ser = |i, k| QueueOp::Ser {
        txn: GlobalTxnId(i),
        site: SiteId(k),
    };
    let ack = |i, k| QueueOp::Ack {
        txn: GlobalTxnId(i),
        site: SiteId(k),
    };
    let fin = |i| QueueOp::Fin {
        txn: GlobalTxnId(i),
    };
    let script = [
        init(1, &[0, 1]),
        init(2, &[0, 1]),
        init(3, &[1, 2]),
        ser(1, 0),
        ser(2, 1),
        ack(1, 0),
        ser(1, 1),
        ack(1, 1),
        ser(2, 0),
        ack(2, 1),
        ack(2, 0),
        ser(3, 1),
        ser(3, 2),
        ack(3, 1),
        ack(3, 2),
        fin(1),
        fin(2),
        fin(3),
        // A fresh id in a slot the fins freed.
        init(4, &[0, 2]),
        ser(4, 0),
        ack(4, 0),
        ser(4, 2),
        ack(4, 2),
        fin(4),
    ];
    for kind in SchemeKind::CONSERVATIVE {
        let mut engines = engines(kind);
        for op in &script {
            let effects: Vec<_> = engines
                .iter_mut()
                .map(|engine| {
                    engine.enqueue(op.clone());
                    engine.pump()
                })
                .collect();
            for pair in effects.windows(2) {
                assert_eq!(pair[0], pair[1], "{kind}: effects of {op:?}");
            }
        }
        for engine in &engines {
            assert_eq!(engine.wait_len(), 0, "{kind}: ops left waiting");
            assert!(engine.ser_log().check().is_ok(), "{kind}: ser(S)");
        }
        for pair in engines.windows(2) {
            let [reference, dense] = [&pair[0], &pair[1]];
            assert_eq!(reference.steps(), dense.steps(), "{kind}: steps");
            assert_eq!(reference.stats(), dense.stats(), "{kind}: stats");
            assert_eq!(
                reference.ser_log().events(),
                dense.ser_log().events(),
                "{kind}: ser(S)"
            );
        }
    }
}

/// Scheme 3's kernels side by side, driven op by op the way Figure 3
/// drives one: an op waits in `pending` until `cond` holds, a submitted
/// `ser` is acked at once, and a transaction's last ack enqueues its `fin`.
struct Scheme3Pair {
    reference: Scheme3,
    dense: Scheme3Dense,
    steps_ref: StepCounter,
    steps_dense: StepCounter,
    pending: Vec<QueueOp>,
    /// Live transaction → announced sites and acks still owed.
    live: BTreeMap<GlobalTxnId, (Vec<SiteId>, usize)>,
    peak_live: usize,
    peak_waiting: usize,
    peak_ser_bef: usize,
}

impl Scheme3Pair {
    fn new() -> Self {
        Scheme3Pair {
            reference: Scheme3::new(),
            dense: Scheme3Dense::new(),
            steps_ref: StepCounter::new(),
            steps_dense: StepCounter::new(),
            pending: Vec::new(),
            live: BTreeMap::new(),
            peak_live: 0,
            peak_waiting: 0,
            peak_ser_bef: 0,
        }
    }

    /// Both kernels' `cond(op)`: the same verdict at the same charge.
    fn cond(&self, op: &QueueOp) -> bool {
        let (mut steps_ref, mut steps_dense) = (StepCounter::new(), StepCounter::new());
        let verdict = self.reference.cond(op, &mut steps_ref);
        assert_eq!(
            verdict,
            self.dense.cond(op, &mut steps_dense),
            "cond({op:?})"
        );
        assert_eq!(steps_ref, steps_dense, "cond({op:?}) charge");
        verdict
    }

    /// Enqueue `op`, then act every pending op whose `cond` holds, the
    /// oldest first, until none does.
    fn submit(&mut self, op: QueueOp) {
        self.pending.push(op);
        while let Some(i) = self.pending.iter().position(|op| self.cond(op)) {
            let op = self.pending.remove(i);
            self.act(&op);
        }
        self.peak_waiting = self.peak_waiting.max(self.pending.len());
    }

    /// Live transactions whose oracle `ser_bef` holds `txn`.
    fn ordered_after(&self, txn: GlobalTxnId) -> u64 {
        self.live
            .keys()
            .filter(|&&j| self.reference.ser_bef(j).contains(&txn))
            .count() as u64
    }

    /// Live transactions other than `txn` whose oracle `ser_bef` lacks
    /// `txn` and some member of `ser_bef(txn)`: those that become targets
    /// of `txn`'s `ser` gain a bit besides `Ĝ_i`.
    fn lacking_set1(&self, txn: GlobalTxnId) -> Vec<GlobalTxnId> {
        let bef = self.reference.ser_bef(txn);
        self.live
            .keys()
            .filter(|&&j| j != txn)
            .filter(|&&j| {
                let row = self.reference.ser_bef(j);
                !row.contains(&txn) && !bef.is_subset(&row)
            })
            .copied()
            .collect()
    }

    /// The dense kernel's `gtm2.ser_bef_targets`,
    /// `gtm2.ser_bef_ors_elided` and `gtm2.ser_bef_ors_widened`.
    fn ser_bef_work(&self) -> (u64, u64, u64) {
        let mut metrics = Registry::new();
        self.dense.export_metrics(&mut metrics);
        (
            metrics.counter("gtm2.ser_bef_targets"),
            metrics.counter("gtm2.ser_bef_ors_elided"),
            metrics.counter("gtm2.ser_bef_ors_widened"),
        )
    }

    fn act(&mut self, op: &QueueOp) {
        // A `ser`'s targets as the oracle sees them: it charges one step,
        // one per `ser_bef` entry and `|Set1|` per target, and every target
        // holds `Ĝ_i` afterwards. Those that held it before are the ORs the
        // dense kernel skips.
        let ser = match op {
            QueueOp::Ser { txn, .. } => Some((
                *txn,
                self.steps_ref.act + 1 + self.live.len() as u64,
                self.reference.ser_bef(*txn).len() as u64 + 1,
                self.ordered_after(*txn),
                self.lacking_set1(*txn),
                self.ser_bef_work(),
            )),
            QueueOp::Init { .. } | QueueOp::Ack { .. } | QueueOp::Fin { .. } => None,
        };
        let (mut fx_ref, mut fx_dense) = (Vec::new(), Vec::new());
        self.reference.act(op, &mut self.steps_ref, &mut fx_ref);
        self.dense.act(op, &mut self.steps_dense, &mut fx_dense);
        assert_eq!(fx_ref, fx_dense, "act({op:?})");
        assert_eq!(self.steps_ref, self.steps_dense, "act({op:?}) charge");
        if let Some((txn, fixed, set1_len, held, lacking, (targets0, elided0, widened0))) = ser {
            let per_target = self.steps_ref.act - fixed;
            assert_eq!(per_target % set1_len, 0, "act({op:?}) charge per target");
            let targets = per_target / set1_len;
            let elided = targets - (self.ordered_after(txn) - held);
            let widened = lacking
                .iter()
                .filter(|&&j| self.reference.ser_bef(j).contains(&txn))
                .count() as u64;
            let (targets1, elided1, widened1) = self.ser_bef_work();
            assert_eq!(
                (targets1 - targets0, elided1 - elided0, widened1 - widened0),
                (targets, elided, widened),
                "act({op:?}): targets, skipped ORs and widening ORs"
            );
        }
        match op {
            QueueOp::Init { txn, sites } => {
                self.live.insert(*txn, (sites.clone(), sites.len()));
                self.peak_live = self.peak_live.max(self.live.len());
            }
            QueueOp::Fin { txn } => {
                self.live.remove(txn);
            }
            QueueOp::Ser { .. } | QueueOp::Ack { .. } => {}
        }
        for effect in fx_ref {
            match effect {
                SchemeEffect::SubmitSer { txn, site } => {
                    self.pending.push(QueueOp::Ack { txn, site });
                }
                SchemeEffect::ForwardAck { txn, .. } => {
                    let (_, left) = self.live.get_mut(&txn).expect("ack for a live transaction");
                    *left -= 1;
                    if *left == 0 {
                        self.pending.push(QueueOp::Fin { txn });
                    }
                }
                SchemeEffect::AbortGlobal { .. } | SchemeEffect::ProtocolViolation { .. } => {
                    panic!("Scheme 3 produced {effect:?} on a valid script");
                }
            }
        }
        self.dense.debug_validate();
        for (&txn, (sites, _)) in &self.live {
            let ser_bef = self.reference.ser_bef(txn);
            self.peak_ser_bef = self.peak_ser_bef.max(ser_bef.len());
            assert_eq!(
                ser_bef,
                self.dense.ser_bef(txn),
                "ser_bef({txn}) after {op:?}"
            );
            self.cond(&QueueOp::Fin { txn });
            for &site in sites {
                self.cond(&QueueOp::Ser { txn, site });
            }
        }
    }
}
/// Scheme 3's `ser_bef` matrix widens while its rows are live. A valid
/// script holds more than 64, then more than 128, transactions live at
/// once, each running at its first site eight inits after its own, so rows
/// fill while the stride doubles at slots 64 and 128; a second round
/// through the same kernels re-interns every recycled slot. After every
/// op, each live transaction's `ser_bef` is the oracle's, each `cond(ser)`
/// and `cond(fin)` probe gives the oracle's verdict at the oracle's
/// charge, and the dense kernel's `debug_validate` holds: its `ser_aft`
/// matrix is exactly `ser_bef`'s transpose and every kept row size is the
/// row's popcount. After every `ser`, the targets the dense kernel counted
/// and the ORs it skipped are those the oracle's charge and rows imply.
#[test]
fn scheme3_matrix_growth_matches_reference() {
    const N: u64 = 136;
    const SITES: u64 = 12;
    let sites_of = |i: u64| {
        let a = i % SITES;
        let b = (i * 5 + 7) % SITES;
        let b = if b == a { (a + 1) % SITES } else { b };
        [SiteId(a as u32), SiteId(b as u32)]
    };
    let ser = |i: u64, k: usize| QueueOp::Ser {
        txn: GlobalTxnId(i),
        site: sites_of(i)[k],
    };
    let mut pair = Scheme3Pair::new();
    for round in 0..2 {
        for i in 0..N {
            pair.submit(QueueOp::Init {
                txn: GlobalTxnId(i),
                sites: sites_of(i).to_vec(),
            });
            if let Some(j) = i.checked_sub(8) {
                pair.submit(ser(j, 0));
            }
        }
        for j in N - 8..N {
            pair.submit(ser(j, 0));
        }
        assert_eq!(
            pair.live.len(),
            N as usize,
            "round {round}: a fin ran early"
        );
        // Second sites newest first, so most of them wait on a predecessor.
        for i in (0..N).rev() {
            pair.submit(ser(i, 1));
        }
        assert!(
            pair.pending.is_empty(),
            "round {round}: {:?} still wait",
            pair.pending
        );
        assert!(
            pair.live.is_empty(),
            "round {round}: transactions left live"
        );
    }
    assert!(pair.peak_live > 128, "peak of {} live", pair.peak_live);
    // The script is not vacuous: most second-site sers wait, and rows
    // hold dozens of members.
    assert!(
        pair.peak_waiting >= 64,
        "peak of {} waiting",
        pair.peak_waiting
    );
    assert!(
        pair.peak_ser_bef >= 32,
        "largest ser_bef {}",
        pair.peak_ser_bef
    );
    // Both sides of the skip ran, and both sides of the OR test.
    let (targets, elided, widened) = pair.ser_bef_work();
    assert!(
        0 < elided && elided < targets,
        "{elided} of {targets} ORs skipped"
    );
    assert!(
        0 < widened && widened < targets - elided,
        "{widened} of {} ORs widened a row",
        targets - elided
    );
}

/// `Eliminate_Cycles` enters a degree-3 transaction through two sites, and
/// the second state charges the column the first emptied without scanning
/// it. `G9`'s init walks `G9 →s0 G1`: that state takes `G1 → G9` at s1 as
/// Δ and scans s2's column `[G1, G2]` to its end (through the leaf state
/// `(s2, G2)`). Back at the root, `G9 →s1 G1` takes s0's Δ and finds s2
/// already emptied. The dense kernel counts the elision (and debug builds
/// re-run the scan); the BTree kernel exports no such counter. Both charge
/// the same steps.
#[test]
fn eliminate_cycles_elides_a_column_the_node_emptied() {
    let ops = [
        QueueOp::Init {
            txn: GlobalTxnId(1),
            sites: vec![SiteId(0), SiteId(1), SiteId(2)],
        },
        QueueOp::Init {
            txn: GlobalTxnId(2),
            sites: vec![SiteId(2)],
        },
        QueueOp::Init {
            txn: GlobalTxnId(9),
            sites: vec![SiteId(0), SiteId(1)],
        },
    ];
    let elim = |engine: &Gtm2| {
        let mut metrics = Registry::new();
        engine.export_metrics(&mut metrics);
        (
            metrics.counter("gtm2.elim_states"),
            metrics.counter("gtm2.elim_scans_elided"),
        )
    };
    let mut engines = engines(SchemeKind::Scheme2);
    let [btree, dense] = &mut engines[..] else {
        panic!("Scheme 2 has a btree and a dense kernel");
    };
    let mut before = (0, 0);
    for (i, op) in ops.iter().enumerate() {
        btree.enqueue(op.clone());
        dense.enqueue(op.clone());
        assert_eq!(btree.pump(), dense.pump(), "op {i}");
        assert_eq!(btree.steps(), dense.steps(), "op {i}");
        let now = elim(dense);
        // Only the last init walks through G1 twice.
        let elided = now.1 - before.1;
        assert_eq!(elided > 0, i == 2, "op {i}: {elided} elided scans");
        before = now;
    }
    // G2's init enters (s2, G1); G9's enters (s0, G1), (s2, G2), (s1, G1).
    assert_eq!(before, (4, 1), "dense: states entered, scans elided");
    assert_eq!(elim(btree), (0, 0), "btree");
}

/// A script whose first transaction has an edge at each of 70 sites, so
/// its row runs past 64 edges, and whose later transactions share a few
/// of those sites with it, some past the 64th: an `init` walks through
/// the first transaction more than once, with columns that state already
/// emptied at both ends of its row.
fn wide_row_script() -> Script {
    let sites = |ks: &[u32]| ks.iter().map(|&k| SiteId(k)).collect::<Vec<_>>();
    let txns: [(u64, Vec<SiteId>); 4] = [
        (1, (0..70).map(SiteId).collect()),
        (2, sites(&[0, 1, 65, 66, 67])),
        (3, sites(&[0, 2, 66, 68])),
        (4, sites(&[1, 65, 69])),
    ];
    let mut events: Vec<ScriptEvent> = txns
        .iter()
        .map(|(t, ss)| ScriptEvent::Init(GlobalTxnId(*t), ss.clone()))
        .collect();
    // The later transactions' sers first, in reverse, then the first
    // transaction's: every site sees them in an order the inits left open.
    for (t, ss) in txns.iter().rev() {
        events.extend(ss.iter().map(|&k| ScriptEvent::Ser(GlobalTxnId(*t), k)));
    }
    let script = Script { events };
    assert_eq!(script.validate(), Ok(()));
    script
}

/// Grow a reference and a dense TSGD from `script` with no removals — each
/// `init` inserts its transaction and folds in its Δ, each `ser` adds a
/// dependency from every earlier `ser` at its site that does not oppose one
/// already there — and require the dense `Eliminate_Cycles` to find the
/// reference Δ, in slot form, with the reference step charges at every
/// `init`. Returns the dense walk's (states, scans elided, Δ) counts.
fn assert_delta_parity(script: &Script, label: &str) -> (u64, u64, u64) {
    let (mut reference, mut dense) = (Tsgd::new(), DenseTsgd::new());
    let mut scratch = EliminateScratch::new();
    let mut deps = std::collections::BTreeSet::new();
    let mut sered: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
    let mut add = |reference: &mut Tsgd, dense: &mut DenseTsgd, dep: Dep| {
        let reverse = Dep {
            before: dep.after,
            after: dep.before,
            ..dep
        };
        if !deps.contains(&reverse) && deps.insert(dep) {
            reference.add_dep(dep);
            dense.add_dep(dep);
        }
    };
    for ev in &script.events {
        match ev {
            ScriptEvent::Init(txn, sites) => {
                reference.insert_txn(*txn, sites);
                dense.insert_txn(*txn, sites);
                let (mut steps_ref, mut steps_dense) = (StepCounter::new(), StepCounter::new());
                let delta = eliminate_cycles(&reference, *txn, &mut steps_ref);
                eliminate_cycles_dense_with(&mut dense, *txn, &mut steps_dense, &mut scratch);
                assert_eq!(dense.delta_set(&scratch), delta, "{label}: Δ of {txn}");
                assert_eq!(steps_dense, steps_ref, "{label}: steps of {txn}");
                for dep in delta {
                    add(&mut reference, &mut dense, dep);
                }
            }
            ScriptEvent::Ser(txn, site) => {
                let earlier = sered.entry(*site).or_default();
                for &before in earlier.iter() {
                    let dep = Dep {
                        site: *site,
                        before,
                        after: *txn,
                    };
                    add(&mut reference, &mut dense, dep);
                }
                earlier.push(*txn);
            }
        }
    }
    assert!(dense.edges_consistent(), "{label}: edge records");
    (scratch.states(), scratch.scans_elided(), scratch.deltas())
}

/// Scheme 2's dense walk against the oracle past one word: the proptests
/// stop at a dozen transactions over four sites, so they never build a
/// column of more than 64 members or a row of more than 64 edges. Two
/// scripts do. In `Script::random(80, 2, 2.0, _)` every transaction is at
/// both sites, so both columns reach 80 members; `wide_row_script` has a
/// 70-edge row. Each must give identical `ser(S)`, stats and steps on both
/// kernels, and the same Δ at every `init` of a TSGD grown from it. The
/// dense walk's (states, scans elided, Δ) counts on that TSGD are pinned
/// too: the wide row's elisions include columns past its 64th edge.
#[test]
fn eliminate_cycles_matches_reference_past_one_word() {
    for (label, script, elim) in [
        (
            "two 80-member columns",
            Script::random(80, 2, 2.0, 5),
            (6_320, 0, 6_320),
        ),
        ("a 70-edge row", wide_row_script(), (22, 1_038, 16)),
    ] {
        let outcomes = replays(SchemeKind::Scheme2, &script);
        let [reference, dense] = &outcomes[..] else {
            panic!("Scheme 2 has a btree and a dense kernel");
        };
        assert_identical(reference, dense, label);
        assert_eq!(dense.completed, script.txn_count(), "{label}");
        assert_eq!(dense.protocol_violations, 0, "{label}");
        assert_eq!(
            assert_delta_parity(&script, label),
            elim,
            "{label}: walk work"
        );
    }
}

/// Kernel equivalence *proved* at small scope rather than sampled, for one
/// scheme: every valid script over 2 transactions × 2 sites, and over
/// 3 transactions × 2 sites up to transaction renaming
/// (`replay::for_every_script`), through `Gtm2` on the BTree and the dense
/// kernel, which must be identical (Scheme 0, which has one kernel, replays
/// each once) and complete every transaction. The scope leaves out one
/// site-set assignment — all three transactions spanning both sites, 2 240
/// of the 5 440 three-transaction scripts — which the release soak
/// `tests/theorems.rs::wide_scope_census_and_kernel_equivalence` covers.
fn check_every_small_script(kind: SchemeKind) {
    let mut check = |script: &Script| {
        assert_eq!(script.validate(), Ok(()), "{script:?}");
        let label = format!("{kind} {script:?}");
        let outcomes = replays(kind, script);
        for pair in outcomes.windows(2) {
            assert_identical(&pair[0], &pair[1], &label);
        }
        for outcome in &outcomes {
            assert_eq!(outcome.protocol_violations, 0, "{label}");
            assert!(outcome.aborted.is_empty(), "{label}");
            assert!(outcome.ser_serializable, "{label}");
            assert_eq!(outcome.completed, script.txn_count(), "{label}");
        }
    };
    // A changed count means the enumerator, not an engine, changed.
    assert_eq!(for_every_script(2, 2, 4, false, &mut check), 184);
    assert_eq!(for_every_script(3, 2, 5, true, &mut check), 3200);
}

#[test]
fn every_small_script_scheme0() {
    check_every_small_script(SchemeKind::Scheme0);
}

#[test]
fn every_small_script_scheme1() {
    check_every_small_script(SchemeKind::Scheme1);
}

#[test]
fn every_small_script_scheme2() {
    check_every_small_script(SchemeKind::Scheme2);
}

#[test]
fn every_small_script_scheme3() {
    check_every_small_script(SchemeKind::Scheme3);
}

/// One operation of [`drive_tsgd_pair`]: `(kind, a, b, c)`.
type TsgdOp = (u8, u16, u16, u8);

/// A site list over `sites` sites from `(a, b, c)`: one to three sites
/// starting at `a`, `b` apart, so it is often out of id order, and with
/// its first site repeated when `c` is odd.
fn site_list(sites: u32, a: u16, b: u16, c: u8) -> Vec<SiteId> {
    let (first, step) = (u32::from(a) % sites, 1 + u32::from(b) % (sites - 1).max(1));
    let mut list: Vec<SiteId> = (0..1 + u32::from(a) % 3)
        .map(|k| SiteId((first + k * step) % sites))
        .collect();
    if c & 1 == 1 {
        list.push(list[0]);
    }
    list
}

/// Drive a reference and a dense TSGD through the same operations, with
/// transaction ids drawn from a shuffled pool of `pool` ids over `sites`
/// site ids:
/// - kind 0 inserts a fresh id, so it lands mid-column, with an unsorted
///   site list that may repeat a site (mid-row inserts and idempotent
///   merges), then runs `Eliminate_Cycles` for it on both and folds Δ in,
///   as `act(init)` does: Δ and the step charge must be the reference's;
/// - kind 1 merges more sites into a live transaction, mid-row when the
///   row already has dependencies;
/// - kind 2 adds a dependency between two live transactions at a shared
///   site, oriented by `c`;
/// - kind 3 removes a live transaction from anywhere in the live list,
///   so columns lose members below live ones; a site left without edges
///   frees its slot, which a later site id re-interns.
///
/// Every `check_every` ops and at the end, the dense TSGD must pass
/// `edges_consistent` (rows and columns agree, column entries name their
/// edges, each dependency count matches the after sets, and each
/// edge-table record and mask matches its edge) and hold the reference's
/// dependencies. Returns the number of Δ dependencies folded in.
fn drive_tsgd_pair(ops: &[TsgdOp], sites: u32, pool: u64, seed: u64, check_every: usize) -> u64 {
    let (mut reference, mut dense) = (Tsgd::new(), DenseTsgd::new());
    let mut scratch = EliminateScratch::new();
    let mut live: Vec<GlobalTxnId> = Vec::new();
    let mut ids: Vec<u64> = (1..=pool).collect();
    ids.shuffle(&mut derive_rng(seed, "tsgd-table-ids"));
    for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
        match kind % 4 {
            0 => {
                let Some(id) = ids.pop() else {
                    continue;
                };
                let txn = GlobalTxnId(id);
                let list = site_list(sites, a, b, c);
                reference.insert_txn(txn, &list);
                dense.insert_txn(txn, &list);
                live.push(txn);
                let (mut steps_ref, mut steps_dense) = (StepCounter::new(), StepCounter::new());
                let delta = eliminate_cycles(&reference, txn, &mut steps_ref);
                eliminate_cycles_dense_with(&mut dense, txn, &mut steps_dense, &mut scratch);
                assert_eq!(dense.delta_set(&scratch), delta, "op {i}: Δ of {txn}");
                assert_eq!(steps_dense, steps_ref, "op {i}: steps of {txn}");
                for dep in delta {
                    reference.add_dep(dep);
                }
                dense.add_delta(&scratch);
            }
            1 if !live.is_empty() => {
                let txn = live[usize::from(b) % live.len()];
                let list = site_list(sites, a, b.rotate_left(3), c);
                reference.insert_txn(txn, &list);
                dense.insert_txn(txn, &list);
            }
            2 if live.len() > 1 => {
                let x = live[usize::from(a) % live.len()];
                let y = live[usize::from(b) % live.len()];
                let shared = reference.sites_of(x).find(|&s| reference.has_edge(y, s));
                if let Some(site) = shared.filter(|_| x != y) {
                    let (before, after) = if c & 1 == 0 { (x, y) } else { (y, x) };
                    let dep = Dep {
                        site,
                        before,
                        after,
                    };
                    reference.add_dep(dep);
                    dense.add_dep(dep);
                }
            }
            3 if !live.is_empty() => {
                let txn = live.remove(usize::from(a) % live.len());
                reference.remove_txn(txn);
                dense.remove_txn(txn);
            }
            _ => continue,
        }
        if (i + 1) % check_every == 0 || i + 1 == ops.len() {
            assert!(
                dense.edges_consistent(),
                "op {i}: an edge record or the edge table went stale"
            );
            let ref_deps: std::collections::BTreeSet<Dep> = reference.deps().collect();
            assert_eq!(
                ref_deps,
                dense.deps_set(),
                "op {i}: dependency sets diverged"
            );
            assert_eq!(dense.desync_count(), 0, "op {i}");
        }
    }
    scratch.deltas()
}

/// [`drive_tsgd_pair`] at the size of the benchmark's burst cell: 1 000
/// transactions over 10 sites, about four in five of them still live at the
/// end, so columns run to well past 64 members and the edge table re-lays
/// wider as they grow.
#[test]
#[ignore = "soak: 1 000-transaction oracle walk; run in release with --ignored"]
fn edge_table_matches_reference_at_burst_size() {
    let mut rng = derive_rng(11, "tsgd-table-soak");
    let ops: Vec<TsgdOp> = (0..1_400)
        .map(|_| {
            let kind = match rng.gen_range(0..20) {
                0..=13 => 0,
                14 => 1,
                15..=17 => 2,
                _ => 3,
            };
            (kind, rng.gen(), rng.gen(), rng.gen())
        })
        .collect();
    let deltas = drive_tsgd_pair(&ops, 10, 1_000, 11, 50);
    assert!(deltas > 0, "the walk must find cycles to break");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: for Schemes 1–3, the dense kernel replays
    /// any valid script with byte-identical steps, stats, and per-site
    /// serialization orders to the BTree oracle's. Every conservative
    /// scheme, Scheme 0 included, finishes it serializably.
    #[test]
    fn dense_kernel_matches_reference_on_any_order(script in arb_script()) {
        for kind in SchemeKind::CONSERVATIVE {
            let outcomes = replays(kind, &script);
            for outcome in &outcomes {
                prop_assert_eq!(outcome.protocol_violations, 0, "{}", kind);
                prop_assert!(outcome.ser_serializable, "{}", kind);
            }
            for pair in outcomes.windows(2) {
                assert_identical(&pair[0], &pair[1], &kind.to_string());
            }
        }
    }

    /// Id recycling: the same script replayed twice through one engine
    /// re-interns every transaction id after its slot was freed at `fin`.
    /// Stale bits in any recycled slot would change effects or steps.
    /// Every conservative scheme runs it, each engine validating its
    /// invariants after every act and draining WAIT; Schemes 1–3, the ones
    /// with a reference kernel, also compare the two after each round.
    #[test]
    fn recycled_ids_carry_no_stale_state(script in arb_script()) {
        for kind in SchemeKind::CONSERVATIVE {
            let mut engines = engines(kind);
            for _round in 0..2 {
                for engine in &mut engines {
                    let outcome = replay_with(engine, &script);
                    prop_assert_eq!(outcome.protocol_violations, 0, "{}", kind);
                    prop_assert!(outcome.aborted.is_empty(), "{}", kind);
                }
                let [reference, dense] = &engines[..] else { continue };
                prop_assert_eq!(
                    reference.steps(), dense.steps(),
                    "{}: steps diverged across recycling rounds", kind
                );
                prop_assert_eq!(
                    reference.stats(), dense.stats(),
                    "{}: stats diverged across recycling rounds", kind
                );
                prop_assert_eq!(
                    reference.ser_log().events(), dense.ser_log().events(),
                    "{}: ser(S) diverged across recycling rounds", kind
                );
            }
        }
    }

    /// Figure 4 parity: the dense Eliminate_Cycles produces exactly the
    /// reference Δ with exactly the reference step charges.
    #[test]
    fn eliminate_cycles_dense_matches_reference(
        shape in prop::collection::vec(0u8..16, 1..6),
        dep_picks in prop::collection::vec(any::<bool>(), 0..24),
        fresh_mask in 0u8..16,
    ) {
        let (reference, mut dense, fresh) = build_pair(&shape, &dep_picks, fresh_mask);
        let ref_deps: std::collections::BTreeSet<Dep> = reference.deps().collect();
        prop_assert_eq!(ref_deps, dense.deps_set(), "construction mismatch");
        let mut steps_ref = StepCounter::new();
        let delta_ref = eliminate_cycles(&reference, fresh, &mut steps_ref);
        // Both on a fresh scratch and on one that already served a call.
        let mut scratch = EliminateScratch::new();
        for _round in 0..2 {
            let mut steps_cursor = StepCounter::new();
            eliminate_cycles_dense_with(&mut dense, fresh, &mut steps_cursor, &mut scratch);
            let delta_cursor = dense.delta_set(&scratch);
            prop_assert_eq!(&delta_ref, &delta_cursor, "cursor Δ diverged");
            prop_assert_eq!(steps_ref, steps_cursor, "cursor EC step charges diverged");
        }
    }

    /// Adversarial kernel matrix: cycle-heavy, fin-deletion-heavy scripts
    /// must leave the dense and BTree Scheme 2 kernels byte-identical.
    #[test]
    fn adversarial_scripts_keep_kernel_matrix_equal(script in arb_adversarial_script()) {
        let outcomes = replays(SchemeKind::Scheme2, &script);
        let [reference, dense] = &outcomes[..] else {
            panic!("Scheme 2 has a btree and a dense kernel");
        };
        assert_identical(reference, dense, "Scheme 2");
        prop_assert_eq!(dense.protocol_violations, 0);
        prop_assert!(dense.ser_serializable);
    }

    /// Adversarial add/remove-dep interleaving straight against the TSGD
    /// structures: inserts, deliberate dependency cycles (both directions of
    /// shared-site pairs), fin-style removals that release and recycle site
    /// slots, and Eliminate_Cycles rounds whose Δ is folded back in (in slot
    /// space on the dense side). New ids come from a shuffled pool, so
    /// inserts land mid-column and removals close holes below live members:
    /// after every op each stored column position must index its own
    /// transaction and the dependency sets must be equal. After every
    /// removal and at the end, `deps_acyclic` must give the verdict
    /// `DiGraph::find_cycle` (a DFS — `deps_acyclic` and `has_cycle` share
    /// one topological sort) gives on the reference dependency digraph.
    #[test]
    fn adversarial_dep_interleaving_matches_reference(
        ops in prop::collection::vec((0u8..4, any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        shuffle_seed in any::<u64>(),
    ) {
        let mut reference = Tsgd::new();
        let mut dense = DenseTsgd::new();
        let mut scratch = EliminateScratch::new();
        let mut live: Vec<GlobalTxnId> = Vec::new();
        let mut pool: Vec<u64> = (1..=80).collect();
        pool.shuffle(&mut derive_rng(shuffle_seed, "id-pool"));
        for (op, a, b, c) in ops {
            match op {
                0 => {
                    let Some(id) = pool.pop() else {
                        continue;
                    };
                    let txn = GlobalTxnId(id);
                    let sites: Vec<SiteId> = (0..4u32)
                        .filter(|bit| (a | 1 << (id % 4)) & (1 << bit) != 0)
                        .map(SiteId)
                        .collect();
                    reference.insert_txn(txn, &sites);
                    dense.insert_txn(txn, &sites);
                    live.push(txn);
                }
                1 => {
                    let mut candidates = Vec::new();
                    for (ai, &ta) in live.iter().enumerate() {
                        let sites_a: std::collections::BTreeSet<SiteId> =
                            reference.sites_of(ta).collect();
                        for &tb in &live[ai + 1..] {
                            for s in reference.sites_of(tb) {
                                if sites_a.contains(&s) {
                                    candidates.push((s, ta, tb));
                                }
                            }
                        }
                    }
                    if candidates.is_empty() {
                        continue;
                    }
                    let (site, ta, tb) =
                        candidates[(a as usize + (b as usize) * 256) % candidates.len()];
                    // Odd `c` flips the direction, so opposite picks of the
                    // same pair build genuine dependency cycles.
                    let (before, after) = if c & 1 == 0 { (ta, tb) } else { (tb, ta) };
                    let dep = Dep { site, before, after };
                    reference.add_dep(dep);
                    dense.add_dep(dep);
                }
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let txn = live.remove(a as usize % live.len());
                    reference.remove_txn(txn);
                    dense.remove_txn(txn);
                    prop_assert_eq!(
                        dense.deps_acyclic(), dep_digraph(&reference).find_cycle().is_none(),
                        "acyclicity verdict diverged after removing {}", txn
                    );
                }
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let target = live[a as usize % live.len()];
                    let mut steps_ref = StepCounter::new();
                    let mut steps_cursor = StepCounter::new();
                    let delta_ref = eliminate_cycles(&reference, target, &mut steps_ref);
                    eliminate_cycles_dense_with(&mut dense, target, &mut steps_cursor, &mut scratch);
                    let delta_cursor = dense.delta_set(&scratch);
                    prop_assert_eq!(&delta_ref, &delta_cursor, "Δ diverged at {}", target);
                    prop_assert_eq!(steps_ref, steps_cursor, "EC steps diverged at {}", target);
                    for dep in delta_ref {
                        reference.add_dep(dep);
                    }
                    dense.add_delta(&scratch);
                }
            }
            prop_assert_eq!(dense.desync_count(), 0);
            prop_assert!(dense.edges_consistent(), "an edge record, a dependency count or the edge table went stale");
            let ref_deps: std::collections::BTreeSet<Dep> = reference.deps().collect();
            prop_assert_eq!(ref_deps, dense.deps_set(), "dependency sets diverged");
        }
        prop_assert_eq!(
            dense.deps_acyclic(), dep_digraph(&reference).find_cycle().is_none(),
            "final acyclicity verdict diverged"
        );
    }

    /// The edge table and the row indices in the columns against the
    /// reference TSGD, checked after every operation
    /// ([`drive_tsgd_pair`]): few site ids, so slots recycle often.
    #[test]
    fn edge_table_matches_reference(
        ops in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>(), any::<u8>()), 1..60),
        seed in any::<u64>(),
    ) {
        drive_tsgd_pair(&ops, 6, 40, seed, 1);
    }
}
