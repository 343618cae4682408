//! Kernel-equivalence property suite: the dense slot/bitset kernels
//! (`kernel_dense`, `tsgd_dense`) are observationally identical to the
//! reference BTree kernels on every valid input, on the malformed `ack`s
//! of [`malformed_acks_keep_kernels_equal`], and on Scheme 3's duplicate
//! `init` of [`duplicate_init_emptying_a_waiting_fins_row_keeps_scheme3_kernels_equal`].
//!
//! "Identical" is strict: same effect sequence, same per-site `ser(S)`
//! orders, same engine stats, and — the load-bearing invariant for the
//! paper's complexity measurements — byte-identical `StepCounter` values.
//! The dense kernels are a machine-cost optimization only; if any of these
//! assertions fail, a counted step moved.
//!
//! Also covered:
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
use mdbs_core::replay::{
    replay_kernel, replay_sharded_kernel, replay_sharded_with, replay_with, Script, ScriptEvent,
};
use mdbs_core::scheme::{Gtm2Scheme, KernelKind, SchemeEffect, SchemeKind};
use mdbs_core::scheme3::Scheme3;
use mdbs_core::sharded::ShardedGtm2;
use mdbs_core::tsgd::{eliminate_cycles, Dep, Tsgd};
use mdbs_core::tsgd_dense::{eliminate_cycles_dense_with, DenseTsgd, EliminateScratch};
use mdbs_schedule::DiGraph;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;

fn init(txn: u64, sites: &[u32]) -> QueueOp {
    QueueOp::Init {
        txn: GlobalTxnId(txn),
        sites: sites.iter().map(|&k| SiteId(k)).collect(),
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

/// Drive `script` through an existing engine with zero-latency acks and
/// automatic fins (the replay harness's closed loop, reimplemented here so
/// one engine can absorb several scripts back-to-back and recycle ids).
fn drive(engine: &mut Gtm2, script: &Script) {
    let mut acks_needed: BTreeMap<GlobalTxnId, usize> = BTreeMap::new();
    for ev in &script.events {
        match ev {
            ScriptEvent::Init(txn, sites) => {
                acks_needed.insert(*txn, sites.len());
                engine.enqueue(QueueOp::Init {
                    txn: *txn,
                    sites: sites.clone(),
                });
            }
            ScriptEvent::Ser(txn, site) => {
                engine.enqueue(QueueOp::Ser {
                    txn: *txn,
                    site: *site,
                });
            }
        }
        loop {
            let effects = engine.pump();
            if effects.is_empty() {
                break;
            }
            for fx in effects {
                match fx {
                    SchemeEffect::SubmitSer { txn, site } => {
                        engine.enqueue(QueueOp::Ack { txn, site });
                    }
                    SchemeEffect::ForwardAck { txn, .. } => {
                        if let Some(left) = acks_needed.get_mut(&txn) {
                            *left -= 1;
                            if *left == 0 {
                                acks_needed.remove(&txn);
                                engine.enqueue(QueueOp::Fin { txn });
                            }
                        }
                    }
                    SchemeEffect::AbortGlobal { .. } | SchemeEffect::ProtocolViolation { .. } => {
                        panic!("conservative scheme produced {fx:?} on a valid script");
                    }
                }
            }
        }
    }
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
/// against the BTree oracle, on the single engine and at 10 shards.
fn burst_scale_outcomes_match(n: usize) {
    let script = Script::random(n, 10, 2.5, 11);
    // Per-act invariant validation (on by default in debug builds) is cubic
    // in the live transactions; the proptests cover it at small sizes.
    let single = |kind: SchemeKind, kernel| {
        let mut engine = Gtm2::new(kind.build_kernel(kernel));
        engine.set_validate(false);
        replay_with(&mut engine, &script)
    };
    let sharded = |kind, kernel| {
        let mut engine = ShardedGtm2::new_with_kernel(kind, kernel, 10);
        engine.set_validate(false);
        replay_sharded_with(engine, &script)
    };
    for kind in [SchemeKind::Scheme1, SchemeKind::Scheme3] {
        let runs = [
            (
                "single",
                single(kind, KernelKind::BTree),
                single(kind, KernelKind::Dense),
            ),
            (
                "10 shards",
                sharded(kind, KernelKind::BTree),
                sharded(kind, KernelKind::Dense),
            ),
        ];
        for (engine, reference, dense) in runs {
            assert_eq!(reference.steps, dense.steps, "{kind} {engine}: steps");
            assert_eq!(reference.stats, dense.stats, "{kind} {engine}: stats");
            assert_eq!(
                reference.ser_events, dense.ser_events,
                "{kind} {engine}: ser(S)"
            );
            assert_eq!(
                (reference.wake_scan_count, reference.wake_scan_sum),
                (dense.wake_scan_count, dense.wake_scan_sum),
                "{kind} {engine}: wake-scan histogram"
            );
            assert_eq!(reference.aborted, dense.aborted, "{kind} {engine}");
            assert_eq!(dense.completed, n, "{kind} {engine}");
            assert_eq!(dense.protocol_violations, 0, "{kind} {engine}");
            assert!(dense.ser_serializable, "{kind} {engine}");
        }
    }
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

    fn act(&mut self, op: &QueueOp) {
        let fx = self.reference.act(op, &mut self.steps_ref);
        assert_eq!(fx, self.dense.act(op, &mut self.steps_dense), "act({op:?})");
        assert_eq!(self.steps_ref, self.steps_dense, "act({op:?}) charge");
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
        for effect in fx {
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
/// charge, and the dense kernel's `debug_validate` holds.
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
}

/// Every conservative scheme under malformed `ack`s (protocol violations):
/// a duplicated `ack`, an `ack` before its `init`, an `ack` at a site the
/// transaction never announced (announced later by a second `init`), and an
/// `ack` for a transaction that never exists. Each script runs op by op
/// through both kernels directly — after every op, `cond(ser)` for every
/// `(txn, site)` must give the same verdict at the same step charge — and
/// through a validating engine per kernel, whose effects, stats
/// (`protocol_violations` included), steps and `ser(S)` must agree.
///
/// Driven directly, Scheme 2's kernels act every op: their `act` is defined
/// on any input (the dense one keeps acks on TSG edges and counts each
/// edge's unacked predecessors, the reference keeps a set of acked pairs).
/// The other kernels' `act` assumes its `cond` held — Scheme 1's `fin` pops
/// the delete-queue front it tested — so they act an op only when both
/// kernels' `cond` holds, as Figure 3 would; the engines run every script
/// in full either way.
#[test]
fn malformed_acks_keep_kernels_equal() {
    let scripts = [
        (
            "duplicated ack",
            vec![
                init(1, &[0, 1]),
                init(2, &[0, 1]),
                ser(1, 0),
                ack(1, 0),
                ack(1, 0),
                ser(2, 0),
                ser(1, 1),
                ser(2, 1),
                ack(2, 0),
                ack(2, 0),
                ack(1, 1),
                ack(2, 1),
                fin(1),
                fin(2),
            ],
        ),
        (
            "ack before init",
            vec![
                ack(1, 0),
                init(1, &[0, 1]),
                init(2, &[0, 1]),
                ser(1, 0),
                ser(2, 0),
                ser(1, 1),
                ack(2, 0),
                ack(1, 1),
                ser(2, 1),
                ack(1, 0),
                ack(2, 1),
                fin(1),
                fin(2),
            ],
        ),
        (
            "ack at an unannounced site",
            vec![
                init(1, &[0]),
                init(2, &[0, 1]),
                ack(1, 1),
                ser(2, 1),
                init(1, &[1]),
                ser(1, 1),
                init(3, &[1]),
                ser(3, 1),
                ack(2, 1),
                ser(1, 0),
                ack(1, 0),
                ser(2, 0),
                ack(2, 0),
                ack(3, 1),
                fin(1),
                fin(2),
                fin(3),
            ],
        ),
        (
            "ack for an unknown transaction",
            vec![
                init(1, &[0]),
                ack(9, 0),
                ser(1, 0),
                init(2, &[0]),
                ser(2, 0),
                ack(9, 0),
                ack(1, 0),
                ack(2, 0),
                fin(9),
                fin(1),
                fin(2),
            ],
        ),
    ];
    for kind in SchemeKind::CONSERVATIVE {
        for (case, script) in &scripts {
            assert_kernels_agree_on(kind, case, script);
        }
    }
}

/// Scheme 3 under a duplicate `init` of a transaction whose `fin` waits:
/// G2's `fin` waits on G1 in its `ser_bef`, and G2 is then announced again
/// at a site with no `last_k`, which rewrites its row empty. The next `fin`
/// (G3's, unrelated) must wake G2's on both kernels, at the same charges:
/// the dense kernel's fin wake re-tests only rows a `fin` emptied, so the
/// duplicate `init` has to record the row it emptied too. (Scheme 1's dense
/// kernel documents this input as the one where its charge may differ.)
#[test]
fn duplicate_init_emptying_a_waiting_fins_row_keeps_scheme3_kernels_equal() {
    let script = [
        init(1, &[0]),
        ser(1, 0),
        ack(1, 0),
        init(2, &[0]),
        ser(2, 0),
        ack(2, 0),
        fin(2),
        init(2, &[1]),
        init(3, &[2]),
        ser(3, 2),
        ack(3, 2),
        fin(3),
        fin(1),
    ];
    let engines = assert_kernels_agree_on(SchemeKind::Scheme3, "duplicate init", &script);
    for engine in &engines {
        assert_eq!(engine.stats().fins, 3, "{engine:?}: every fin ran");
        assert_eq!(engine.wait_len(), 0, "{engine:?}");
    }
}

/// Run `script` op by op through both kernels of `kind` directly and
/// through a validating engine per kernel, asserting after every op what
/// [`malformed_acks_keep_kernels_equal`] describes. Returns the engines,
/// BTree first.
fn assert_kernels_agree_on(kind: SchemeKind, case: &str, script: &[QueueOp]) -> [Gtm2; 2] {
    let probes: Vec<QueueOp> = (1..=3)
        .chain([9])
        .flat_map(|t| (0..3).map(move |k| ser(t, k)))
        .collect();
    let mut reference = kind.build_kernel(KernelKind::BTree);
    let mut dense = kind.build_kernel(KernelKind::Dense);
    let mut engines = [KernelKind::BTree, KernelKind::Dense].map(|kernel| {
        let mut engine = Gtm2::new(kind.build_kernel(kernel));
        engine.set_validate(true);
        engine
    });
    for (i, op) in script.iter().enumerate() {
        let (mut steps_ref, mut steps_dense) = (StepCounter::new(), StepCounter::new());
        let ready_ref = reference.cond(op, &mut steps_ref);
        let ready_dense = dense.cond(op, &mut steps_dense);
        assert_eq!(ready_ref, ready_dense, "{kind} {case}, op {i} {op:?}: cond");
        if kind == SchemeKind::Scheme2 || ready_ref {
            let fx_ref = reference.act(op, &mut steps_ref);
            let fx_dense = dense.act(op, &mut steps_dense);
            assert_eq!(
                fx_ref, fx_dense,
                "{kind} {case}, op {i} {op:?}: act effects"
            );
        }
        for probe in &probes {
            let verdict_ref = reference.cond(probe, &mut steps_ref);
            let verdict_dense = dense.cond(probe, &mut steps_dense);
            assert_eq!(
                verdict_ref, verdict_dense,
                "{kind} {case}, after op {i} {op:?}: cond({probe:?})"
            );
        }
        assert_eq!(
            steps_ref, steps_dense,
            "{kind} {case}, op {i} {op:?}: steps"
        );
        let [fx_ref, fx_dense] = engines.each_mut().map(|engine| {
            engine.enqueue(op.clone());
            engine.pump()
        });
        assert_eq!(
            fx_ref, fx_dense,
            "{kind} {case}, op {i} {op:?}: engine effects"
        );
        let [ref_engine, dense_engine] = &engines;
        assert_eq!(
            ref_engine.stats(),
            dense_engine.stats(),
            "{kind} {case}, op {i}"
        );
        assert_eq!(
            ref_engine.steps(),
            dense_engine.steps(),
            "{kind} {case}, op {i}"
        );
    }
    let [ref_engine, dense_engine] = &engines;
    assert_eq!(
        ref_engine.ser_log().events(),
        dense_engine.ser_log().events(),
        "{kind} {case}: ser(S)"
    );
    assert_eq!(
        ref_engine.wait_len(),
        dense_engine.wait_len(),
        "{kind} {case}"
    );
    engines
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
    let [mut btree, mut dense] = [KernelKind::BTree, KernelKind::Dense].map(|kernel| {
        let mut engine = Gtm2::new(SchemeKind::Scheme2.build_kernel(kernel));
        engine.set_validate(true);
        engine
    });
    let mut before = (0, 0);
    for (i, op) in ops.iter().enumerate() {
        btree.enqueue(op.clone());
        dense.enqueue(op.clone());
        assert_eq!(btree.pump(), dense.pump(), "op {i}");
        assert_eq!(btree.steps(), dense.steps(), "op {i}");
        let now = elim(&dense);
        // Only the last init walks through G1 twice.
        let elided = now.1 - before.1;
        assert_eq!(elided > 0, i == 2, "op {i}: {elided} elided scans");
        before = now;
    }
    // G2's init enters (s2, G1); G9's enters (s0, G1), (s2, G2), (s1, G1).
    assert_eq!(before, (4, 1), "dense: states entered, scans elided");
    assert_eq!(elim(&btree), (0, 0), "btree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: for every conservative scheme, the dense
    /// kernel replays any valid script with byte-identical steps, stats,
    /// and per-site serialization orders.
    #[test]
    fn dense_kernel_matches_reference_on_any_order(script in arb_script()) {
        for kind in SchemeKind::CONSERVATIVE {
            let reference = replay_kernel(kind, KernelKind::BTree, &script);
            let dense = replay_kernel(kind, KernelKind::Dense, &script);
            prop_assert_eq!(
                reference.steps, dense.steps,
                "{}: step counters diverged", kind
            );
            prop_assert_eq!(
                reference.stats, dense.stats,
                "{}: engine stats diverged", kind
            );
            prop_assert_eq!(
                &reference.ser_events, &dense.ser_events,
                "{}: ser(S) diverged", kind
            );
            prop_assert_eq!(
                (reference.wake_scan_count, reference.wake_scan_sum),
                (dense.wake_scan_count, dense.wake_scan_sum),
                "{}: wake-scan histogram diverged", kind
            );
            prop_assert_eq!(dense.protocol_violations, 0, "{}", kind);
            prop_assert!(dense.ser_serializable, "{}", kind);
        }
    }

    /// Same invariant through the sharded engine's deterministic pump
    /// (partitioned routing + cross-shard handoffs on top of the kernels).
    #[test]
    fn dense_kernel_matches_reference_sharded(
        script in arb_script(),
        nshards in 1usize..4,
    ) {
        for kind in SchemeKind::CONSERVATIVE {
            let reference = replay_sharded_kernel(kind, KernelKind::BTree, nshards, &script);
            let dense = replay_sharded_kernel(kind, KernelKind::Dense, nshards, &script);
            prop_assert_eq!(
                reference.steps, dense.steps,
                "{} @ {} shards: steps diverged", kind, nshards
            );
            prop_assert_eq!(
                reference.stats, dense.stats,
                "{} @ {} shards: stats diverged", kind, nshards
            );
            prop_assert_eq!(
                &reference.ser_events, &dense.ser_events,
                "{} @ {} shards: ser(S) diverged", kind, nshards
            );
        }
    }

    /// Id recycling: the same script replayed twice through one engine
    /// re-interns every transaction id after its slot was freed at `fin`.
    /// Stale bits in any recycled slot would change effects or steps.
    #[test]
    fn recycled_ids_carry_no_stale_state(script in arb_script()) {
        for kind in SchemeKind::CONSERVATIVE {
            let mut reference = Gtm2::new(kind.build_kernel(KernelKind::BTree));
            let mut dense = Gtm2::new(kind.build_kernel(KernelKind::Dense));
            reference.set_validate(true);
            dense.set_validate(true);
            for _round in 0..2 {
                drive(&mut reference, &script);
                drive(&mut dense, &script);
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
            prop_assert_eq!(reference.wait_len(), 0, "{}", kind);
            prop_assert_eq!(dense.wait_len(), 0, "{}", kind);
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
        let (reference, dense, fresh) = build_pair(&shape, &dep_picks, fresh_mask);
        let ref_deps: std::collections::BTreeSet<Dep> = reference.deps().collect();
        prop_assert_eq!(ref_deps, dense.deps_set(), "construction mismatch");
        let mut steps_ref = StepCounter::new();
        let delta_ref = eliminate_cycles(&reference, fresh, &mut steps_ref);
        // Both on a fresh scratch and on one that already served a call.
        let mut scratch = EliminateScratch::new();
        for _round in 0..2 {
            let mut steps_cursor = StepCounter::new();
            eliminate_cycles_dense_with(&dense, fresh, &mut steps_cursor, &mut scratch);
            let delta_cursor = dense.delta_set(&scratch);
            prop_assert_eq!(&delta_ref, &delta_cursor, "cursor Δ diverged");
            prop_assert_eq!(steps_ref, steps_cursor, "cursor EC step charges diverged");
        }
    }

    /// Adversarial kernel matrix: cycle-heavy, fin-deletion-heavy scripts
    /// must leave the dense and BTree Scheme 2 kernels byte-identical,
    /// through both the single engine and the sharded pump.
    #[test]
    fn adversarial_scripts_keep_kernel_matrix_equal(
        script in arb_adversarial_script(),
        nshards in 1usize..4,
    ) {
        let kind = SchemeKind::Scheme2;
        let reference = replay_kernel(kind, KernelKind::BTree, &script);
        let sharded_ref = replay_sharded_kernel(kind, KernelKind::BTree, nshards, &script);
        let kernel = KernelKind::Dense;
        let dense = replay_kernel(kind, kernel, &script);
        prop_assert_eq!(
            reference.steps, dense.steps,
            "{}: step counters diverged", kernel.name()
        );
        prop_assert_eq!(
            reference.stats, dense.stats,
            "{}: engine stats diverged", kernel.name()
        );
        prop_assert_eq!(
            &reference.ser_events, &dense.ser_events,
            "{}: ser(S) diverged", kernel.name()
        );
        prop_assert_eq!(dense.protocol_violations, 0, "{}", kernel.name());
        prop_assert!(dense.ser_serializable, "{}", kernel.name());
        let sharded = replay_sharded_kernel(kind, kernel, nshards, &script);
        prop_assert_eq!(
            sharded_ref.steps, sharded.steps,
            "{} @ {} shards: steps diverged", kernel.name(), nshards
        );
        prop_assert_eq!(
            &sharded_ref.ser_events, &sharded.ser_events,
            "{} @ {} shards: ser(S) diverged", kernel.name(), nshards
        );
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
                    eliminate_cycles_dense_with(&dense, target, &mut steps_cursor, &mut scratch);
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
            prop_assert!(dense.edges_consistent(), "an edge record went stale or lost a dependency's other half");
            let ref_deps: std::collections::BTreeSet<Dep> = reference.deps().collect();
            prop_assert_eq!(ref_deps, dense.deps_set(), "dependency sets diverged");
        }
        prop_assert_eq!(
            dense.deps_acyclic(), dep_digraph(&reference).find_cycle().is_none(),
            "final acyclicity verdict diverged"
        );
    }
}
