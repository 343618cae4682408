//! Theorem-by-theorem checks on replays, beside the verdict rows of
//! `crates/bench/tests/committed_results.rs` (the paper has no measured
//! evaluation, so its theorems are our "figures" — see EXPERIMENTS.md).
//!
//! Sections 4–7's degree-of-concurrency claims are decided exactly at small
//! scope: `small_scope_concurrency_census` replays every script
//! `replay::for_every_script` enumerates over two or three transactions at
//! two sites through Schemes 0–3 and pins what holds on each script. The
//! release soak `wide_scope_census_and_kernel_equivalence` does the same,
//! plus the kernel-equivalence check, over two wider scopes. The sampled
//! checks beside them (`thm_3_5_8_ser_s_serializable`,
//! `concurrency_dominance_on_same_orders`) run the same schemes on larger
//! random scripts.

use mdbs::common::ids::{GlobalTxnId, SiteId};
use mdbs::core::gtm2::Gtm2;
use mdbs::core::reference::realizations;
use mdbs::core::replay::{
    for_every_script, replay, replay_with, ReplayOutcome, Script, ScriptEvent,
};
use mdbs::core::scheme::SchemeKind;
use mdbs::core::SerSLog;

/// Theorems 3, 5, 8: every conservative scheme keeps ser(S) serializable
/// on arbitrary insertion orders.
#[test]
fn thm_3_5_8_ser_s_serializable() {
    for seed in 0..30 {
        let script = Script::random(14, 5, 2.4, seed);
        for kind in SchemeKind::CONSERVATIVE {
            let out = replay(kind, &script);
            assert!(out.ser_serializable, "{kind} seed {seed}");
            assert!(out.aborted.is_empty(), "{kind} is conservative");
            assert_eq!(out.completed, 14, "{kind} completes everyone");
        }
    }
}

/// Section 4/7 degree-of-concurrency ordering. The paper's dominance is
/// stated for a fixed QUEUE insertion order; under closed-loop feedback
/// (acks/fins follow each scheme's own decisions) the executions diverge,
/// so per-order inversions can occur rarely. We assert: strict aggregate
/// dominance of Scheme 3, rarity of per-order inversions, and that the
/// BT-schemes do not wait more than Scheme 0 in aggregate.
#[test]
fn concurrency_dominance_on_same_orders() {
    let mut totals = [0u64; 4];
    let mut inversions = 0u32;
    const RUNS: u64 = 40;
    for seed in 0..RUNS {
        let script = Script::random(12, 4, 2.5, seed);
        let w = ser_waits(&script);
        if w[3] > w[0] || w[3] > w[1] || w[3] > w[2] {
            inversions += 1;
        }
        for i in 0..4 {
            totals[i] += w[i];
        }
    }
    let [s0_total, s1_total, s2_total, s3_total] = totals;
    assert!(s3_total < s1_total && s3_total < s2_total && s3_total < s0_total);
    assert!(
        inversions <= 2,
        "feedback inversions must be rare: {inversions}/{RUNS}"
    );
    assert!(
        s1_total <= s0_total,
        "Scheme 1 provides more concurrency than 0"
    );
    assert!(
        s2_total <= s0_total,
        "Scheme 2 provides more concurrency than 0"
    );
}

/// `init_txn` announcing `sites`.
fn init(txn: u64, sites: &[u32]) -> ScriptEvent {
    ScriptEvent::Init(GlobalTxnId(txn), sites.iter().map(|&k| SiteId(k)).collect())
}

/// `ser_site(G_txn)`.
fn ser(txn: u64, site: u32) -> ScriptEvent {
    ScriptEvent::Ser(GlobalTxnId(txn), SiteId(site))
}

/// The `ser`s each of Schemes 0–3 adds to WAIT on `script`.
fn ser_waits(script: &Script) -> [u64; 4] {
    SchemeKind::CONSERVATIVE.map(|kind| replay(kind, script).stats.waited_kind[1])
}

/// Scheme 1 and Scheme 2 are incomparable (Section 6): there exist
/// insertion orders where each waits less than the other. The two
/// witnesses are the first of each kind `small_scope_concurrency_census`
/// visits, and no script of its scope with fewer events is one.
#[test]
fn scheme1_scheme2_incomparable() {
    let one_beats_two = Script {
        events: vec![
            init(1, &[0, 1]),
            ser(1, 1),
            init(2, &[0, 1]),
            ser(2, 0),
            ser(2, 1),
            init(3, &[0]),
            ser(3, 0),
            ser(1, 0),
        ],
    };
    assert_eq!(ser_waits(&one_beats_two), [2, 1, 2, 1]);
    let two_beats_one = Script {
        events: vec![
            init(1, &[0, 1]),
            ser(1, 0),
            init(2, &[0]),
            init(3, &[0, 1]),
            ser(1, 1),
            ser(3, 0),
            ser(2, 0),
            ser(3, 1),
        ],
    };
    assert_eq!(ser_waits(&two_beats_one), [1, 1, 0, 0]);
}

/// Exact degree-of-concurrency facts over every script of one scope: the
/// `ser`s each of Schemes 0–3 adds to WAIT, compared script by script.
#[derive(Debug, Default, PartialEq, Eq)]
struct Census {
    /// Scripts visited.
    scripts: usize,
    /// Scripts that insert their `ser`s in a serializable order.
    serializable: usize,
    /// Per scheme, the serializable orders on which it ser-waits.
    waits_on_serializable: [usize; 4],
    /// Per scheme, the other orders on which it ser-waits.
    waits_on_other: [usize; 4],
    /// Scripts on which Scheme 1 or Scheme 2 waits more `ser`s than
    /// Scheme 0.
    bt_above_scheme0: usize,
    /// Scripts on which Scheme 3 waits more `ser`s than another scheme.
    scheme3_above_another: usize,
    /// Scripts on which Scheme 3 waits more `ser`s than each other scheme.
    scheme3_above_all: usize,
    /// Scripts on which Scheme 1 waits fewer `ser`s than Scheme 2.
    scheme1_below_scheme2: usize,
    /// Scripts on which Scheme 2 waits fewer `ser`s than Scheme 1.
    scheme2_below_scheme1: usize,
}

impl Census {
    /// Counts `script`, given its replay through each of Schemes 0–3, and
    /// asserts that every scheme completed every transaction serializably,
    /// with no abort and no protocol violation.
    fn add(&mut self, script: &Script, outcomes: &[ReplayOutcome; 4]) {
        for (kind, out) in SchemeKind::CONSERVATIVE.iter().zip(outcomes) {
            assert_eq!(out.completed, script.txn_count(), "{kind} {script:?}");
            assert!(out.ser_serializable, "{kind} {script:?}");
            assert!(out.aborted.is_empty(), "{kind} {script:?}");
            assert_eq!(out.protocol_violations, 0, "{kind} {script:?}");
        }
        let w = outcomes.each_ref().map(|out| out.stats.waited_kind[1]);
        let mut inserted = SerSLog::new();
        for ev in &script.events {
            if let ScriptEvent::Ser(txn, site) = ev {
                inserted.record(*txn, *site);
            }
        }
        let serializable = inserted.check().is_ok();
        self.scripts += 1;
        self.serializable += usize::from(serializable);
        let waits = if serializable {
            &mut self.waits_on_serializable
        } else {
            &mut self.waits_on_other
        };
        for (count, &waited) in waits.iter_mut().zip(&w) {
            *count += usize::from(waited > 0);
        }
        self.bt_above_scheme0 += usize::from(w[1] > w[0] || w[2] > w[0]);
        self.scheme3_above_another += usize::from(w[3] > w[0].min(w[1]).min(w[2]));
        self.scheme3_above_all += usize::from(w[3] > w[0].max(w[1]).max(w[2]));
        self.scheme1_below_scheme2 += usize::from(w[1] < w[2]);
        self.scheme2_below_scheme1 += usize::from(w[2] < w[1]);
    }
}

/// Sections 4–7 decided exactly at small scope: every script over 2
/// transactions × 2 sites (184), and over 3 transactions × 2 sites with at
/// most 5 `ser`s up to renaming (3 200), replayed through Schemes 0–3.
/// - Section 7: Scheme 3 ser-waits on no serializable order, and (since
///   it keeps `ser(S)` serializable) on every other one.
/// - Schemes 1 and 2 never wait more `ser`s than Scheme 0, and Scheme 3
///   never more than any of them, on any script.
/// - Section 6: Schemes 1 and 2 are incomparable, each waiting fewer
///   `ser`s on some scripts.
/// - Every scheme completes every transaction.
#[test]
fn small_scope_concurrency_census() {
    let mut census = Census::default();
    let mut visit = |script: &Script| {
        let outcomes = SchemeKind::CONSERVATIVE.map(|kind| replay(kind, script));
        census.add(script, &outcomes);
    };
    assert_eq!(for_every_script(2, 2, 4, false, &mut visit), 184);
    assert_eq!(for_every_script(3, 2, 5, true, &mut visit), 3200);
    assert_eq!(
        census,
        Census {
            scripts: 3384,
            serializable: 2340,
            waits_on_serializable: [1420, 448, 388, 0],
            waits_on_other: [1044; 4],
            bt_above_scheme0: 0,
            scheme3_above_another: 0,
            scheme3_above_all: 0,
            scheme1_below_scheme2: 280,
            scheme2_below_scheme1: 176,
        }
    );
}

/// Scheme 3's feedback inversions: each scheme's own decisions place its
/// acks and fins, so on these insertion orders Scheme 3 ser-waits more
/// than each of Schemes 0–2. The paper's dominance is stated for a fixed
/// QUEUE order, acks and fins included; these are the witnesses that the
/// feedback form differs. Each is the first the release soak's scopes
/// visit: two transactions over three sites (the smallest, 8 events), and
/// three transactions over two sites (9 events).
fn scheme3_feedback_inversions() -> [Script; 2] {
    [
        Script {
            events: vec![
                init(1, &[0, 1, 2]),
                init(2, &[0, 1, 2]),
                ser(2, 0),
                ser(1, 0),
                ser(1, 1),
                ser(1, 2),
                ser(2, 1),
                ser(2, 2),
            ],
        },
        Script {
            events: vec![
                init(1, &[0, 1]),
                ser(1, 0),
                init(2, &[0, 1]),
                init(3, &[0, 1]),
                ser(3, 1),
                ser(1, 1),
                ser(2, 0),
                ser(2, 1),
                ser(3, 0),
            ],
        },
    ]
}

#[test]
fn scheme3_feedback_inversion_witnesses() {
    let [two_txns, three_txns] = scheme3_feedback_inversions();
    assert_eq!(ser_waits(&two_txns), [1, 1, 1, 2]);
    assert_eq!(ser_waits(&three_txns), [1, 1, 1, 2]);
}

/// The census of every script `for_every_script(ntxns, sites, 6, true, …)`
/// visits, with the kernel-equivalence check of
/// `crates/core/tests/kernel_equivalence.rs` on each: every realization of
/// each scheme must replay it identically. Also returns the first script on
/// which Scheme 3 ser-waits more than another scheme.
fn wide_census(ntxns: usize, sites: usize) -> (Census, Option<Script>) {
    let mut census = Census::default();
    let mut first_inversion = None;
    let mut visit = |script: &Script| {
        let outcomes = SchemeKind::CONSERVATIVE.map(|kind| {
            let mut outs: Vec<ReplayOutcome> = realizations(kind)
                .map(|(_, scheme)| replay_with(&mut Gtm2::new(scheme), script))
                .collect();
            let observed = |o: &ReplayOutcome| {
                let ser_s = o.ser_events.clone();
                (ser_s, o.stats, o.steps, o.wake_scan_count, o.wake_scan_sum)
            };
            for pair in outs.windows(2) {
                assert_eq!(observed(&pair[0]), observed(&pair[1]), "{kind} {script:?}");
            }
            outs.pop().expect("every scheme has a kernel")
        });
        let inversions = census.scheme3_above_another;
        census.add(script, &outcomes);
        if census.scheme3_above_another > inversions && first_inversion.is_none() {
            first_inversion = Some(script.clone());
        }
    };
    let visited = for_every_script(ntxns, sites, 6, true, &mut visit);
    assert_eq!(visited, census.scripts);
    (census, first_inversion)
}

/// The census and the kernel-equivalence check over two scopes past
/// `small_scope_concurrency_census`'s: 3 transactions × 2 sites up to
/// renaming, now with the assignment it leaves out (every transaction at
/// both sites), and 2 transactions × 3 sites.
#[test]
#[ignore = "8 797 scripts on every kernel; run in release with --ignored"]
fn wide_scope_census_and_kernel_equivalence() {
    let [two_txns_witness, three_txns_witness] = scheme3_feedback_inversions();
    let (three_txns, first_inversion) = wide_census(3, 2);
    assert_eq!(first_inversion, Some(three_txns_witness));
    assert_eq!(
        three_txns,
        Census {
            scripts: 5440,
            serializable: 2662,
            waits_on_serializable: [1654, 714, 654, 0],
            waits_on_other: [2778; 4],
            bt_above_scheme0: 0,
            scheme3_above_another: 40,
            scheme3_above_all: 40,
            scheme1_below_scheme2: 280,
            scheme2_below_scheme1: 176,
        }
    );
    let (three_sites, first_inversion) = wide_census(2, 3);
    assert_eq!(first_inversion, Some(two_txns_witness));
    assert_eq!(
        three_sites,
        Census {
            scripts: 3357,
            serializable: 1845,
            waits_on_serializable: [537, 306, 306, 0],
            waits_on_other: [1512; 4],
            bt_above_scheme0: 0,
            scheme3_above_another: 90,
            scheme3_above_all: 90,
            scheme1_below_scheme2: 0,
            scheme2_below_scheme1: 0,
        }
    );
}
