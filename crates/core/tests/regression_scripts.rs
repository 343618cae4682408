//! Deterministic replays of proptest shrink cases.
//!
//! `prop_schemes.proptest-regressions` stores the shrunk failure seeds,
//! but those only re-run under the proptest harness. Each script is
//! transcribed here literally so the cases stay reproducible as plain
//! `#[test]`s — independent of proptest's RNG, shrinking, or regression
//! file handling — and so a bisect can point at the exact scheme change
//! that regressed them.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::Registry;
use mdbs_common::rng::{fnv1a, FNV_OFFSET_BASIS};
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay, replay_with, Script, ScriptEvent};
use mdbs_core::scheme::{FullRescan, KernelKind, SchemeKind};

fn init(txn: u64, sites: &[u32]) -> ScriptEvent {
    ScriptEvent::Init(GlobalTxnId(txn), sites.iter().map(|&s| SiteId(s)).collect())
}

fn ser(txn: u64, site: u32) -> ScriptEvent {
    ScriptEvent::Ser(GlobalTxnId(txn), SiteId(site))
}

/// Shrink case `59eeaa2e…`: 8 transactions, all spanning 3 sites, with a
/// heavily interleaved insertion order. Historically tripped the
/// wake-hint-completeness / safety properties.
fn shrink_case_dense_8txn_3site() -> Script {
    let script = Script {
        events: vec![
            init(5, &[0, 1, 2]),
            ser(5, 1),
            init(7, &[0, 1, 2]),
            ser(7, 0),
            ser(7, 2),
            init(8, &[0, 1, 2]),
            ser(8, 0),
            init(4, &[0, 1, 2]),
            ser(4, 2),
            ser(8, 2),
            init(3, &[0, 1, 2]),
            ser(3, 1),
            ser(5, 2),
            init(1, &[0, 1, 2]),
            ser(1, 0),
            ser(5, 0),
            ser(1, 2),
            ser(1, 1),
            ser(3, 2),
            init(6, &[0, 1, 2]),
            ser(6, 2),
            ser(7, 1),
            init(2, &[0, 1, 2]),
            ser(2, 2),
            ser(6, 1),
            ser(8, 1),
            ser(2, 0),
            ser(4, 0),
            ser(6, 0),
            ser(3, 0),
            ser(2, 1),
            ser(4, 1),
        ],
    };
    assert_eq!(script.validate(), Ok(()));
    script
}

/// Shrink case `753a3c91…`: 3 transactions on overlapping 2-site sets,
/// the minimal overlap chain (G2 bridges G3 and G1 through s2/s1 while
/// G3 and G1 share only s0).
fn shrink_case_overlap_chain_3txn() -> Script {
    let script = Script {
        events: vec![
            init(3, &[0, 2]),
            ser(3, 2),
            init(2, &[1, 2]),
            ser(2, 2),
            ser(2, 1),
            init(1, &[0, 1]),
            ser(1, 0),
            ser(3, 0),
            ser(1, 1),
        ],
    };
    assert_eq!(script.validate(), Ok(()));
    script
}

/// Safety on the shrunk scripts: every conservative scheme completes all
/// transactions, aborts none, and leaves a serializable ser(S).
fn assert_safe(script: &Script) {
    let n = script.txn_count();
    for kind in SchemeKind::CONSERVATIVE {
        let out = replay(kind, script);
        assert!(out.ser_serializable, "{kind}: ser(S) not serializable");
        assert!(out.aborted.is_empty(), "{kind}: aborted {:?}", out.aborted);
        assert_eq!(out.completed, n, "{kind}: incomplete");
    }
}

/// Wake-hint completeness on the shrunk scripts: replacing each scheme's
/// wake hints with a full WAIT rescan must not change what gets
/// processed, how often operations wait, or who completes.
fn assert_hints_complete(script: &Script) {
    for kind in SchemeKind::CONSERVATIVE {
        let mut hinted_engine = Gtm2::new(kind.build());
        hinted_engine.set_validate(true);
        let hinted = replay_with(&mut hinted_engine, script);

        let mut full_engine = Gtm2::new(Box::new(FullRescan(kind.build())));
        full_engine.set_validate(true);
        let full = replay_with(&mut full_engine, script);

        assert_eq!(
            hinted.stats.processed, full.stats.processed,
            "{kind}: hinted vs full processed"
        );
        assert_eq!(
            hinted.stats.waited, full.stats.waited,
            "{kind}: hinted vs full waits"
        );
        assert_eq!(hinted.completed, full.completed, "{kind}: completions");
        assert!(hinted.ser_serializable && full.ser_serializable, "{kind}");
    }
}

#[test]
fn dense_8txn_3site_schemes_safe() {
    assert_safe(&shrink_case_dense_8txn_3site());
}

#[test]
fn dense_8txn_3site_wake_hints_complete() {
    assert_hints_complete(&shrink_case_dense_8txn_3site());
}

#[test]
fn overlap_chain_3txn_schemes_safe() {
    assert_safe(&shrink_case_overlap_chain_3txn());
}

#[test]
fn overlap_chain_3txn_wake_hints_complete() {
    assert_hints_complete(&shrink_case_overlap_chain_3txn());
}

/// The replay cell the benchmark's `sched_burst` workload is shaped like
/// (1000 transactions, 10 sites, d_av 2.5; nearly all active at once),
/// pinned for the dense kernels: step charges, waits, wake-scan work, a
/// digest of `ser(S)`, the states Scheme 2's `Eliminate_Cycles` entered
/// and the column scans it elided, and the wake re-tests Schemes 1 and 3
/// charged in closed form. `step_gate` stops at 150 transactions and the
/// benchmark reads wall-clock only, so nothing else holds this cell's
/// decisions still. Ignored by default: a debug build validates every act
/// and takes minutes; the release soak step runs it in well under a second.
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn burst_cell_dense_decisions_golden() {
    // (scheme, cond, act, wait_scan, waited, wake_scan_sum, ser(S) digest)
    const GOLDEN: [(SchemeKind, u64, u64, u64, u64, u64, u64); 4] = [
        (
            SchemeKind::Scheme0,
            9_512,
            8_590,
            7_060,
            2_452,
            2_452,
            0xc61b_1dc0_acbe_b606,
        ),
        (
            SchemeKind::Scheme1,
            2_438_898,
            1_775_305,
            911_890,
            3_200,
            904_830,
            0xe149_6e48_683a_5ad6,
        ),
        (
            SchemeKind::Scheme2,
            26_037_917_870,
            549_594_065,
            490_897,
            3_200,
            483_837,
            0xcb16_f344_4940_bf7e,
        ),
        (
            SchemeKind::Scheme3,
            14_279_785,
            214_384_707,
            479_256,
            2_229,
            472_196,
            0xf71b_84be_052b_dc66,
        ),
    ];
    // Scheme 2's `Eliminate_Cycles` work on the cell: states entered below
    // the root, and column scans charged without running them. Machine
    // work, not decisions — but a walk that stops eliding, or enters a
    // state twice, moves them.
    const SCHEME2_ELIM: (u64, u64) = (1_247_446, 775_997);
    // The wake re-tests each scheme charged without running them, in
    // `GOLDEN`'s order: Scheme 1's fins after an `ack` or a `fin` and sers
    // behind a woken `ser`, Scheme 3's fins after a `fin` and sers behind a
    // woken `ser`. Machine work too: an elision that silently stops keeps
    // every step above and moves these.
    const WAKE_ELIDED: [u64; 4] = [0, 755_831, 0, 365_242];
    let script = Script::random(1000, 10, 2.5, 42);
    for ((kind, cond, act, wait_scan, waited, wake_scan_sum, ser_digest), elided) in
        GOLDEN.into_iter().zip(WAKE_ELIDED)
    {
        let mut engine = Gtm2::new(kind.build_kernel(KernelKind::Dense));
        let out = replay_with(&mut engine, &script);
        let mut metrics = Registry::new();
        engine.export_metrics(&mut metrics);
        let elim = (
            metrics.counter("gtm2.elim_states"),
            metrics.counter("gtm2.elim_scans_elided"),
        );
        let expected = if kind == SchemeKind::Scheme2 {
            SCHEME2_ELIM
        } else {
            (0, 0)
        };
        assert_eq!(elim, expected, "{kind}: Eliminate_Cycles work changed");
        assert_eq!(
            metrics.counter("gtm2.wake_elided"),
            elided,
            "{kind}: closed-form wake re-tests changed"
        );
        let digest = out
            .ser_events
            .iter()
            .fold(FNV_OFFSET_BASIS, |h, (txn, site)| {
                fnv1a(fnv1a(h, &txn.0.to_le_bytes()), &site.0.to_le_bytes())
            });
        assert_eq!(
            (
                out.steps.cond,
                out.steps.act,
                out.steps.wait_scan,
                out.stats.waited,
                out.wake_scan_sum,
                digest
            ),
            (cond, act, wait_scan, waited, wake_scan_sum, ser_digest),
            "{kind}: burst-cell decisions changed"
        );
        assert_eq!(out.completed, 1000, "{kind}: incomplete");
        assert_eq!(out.protocol_violations, 0, "{kind}");
    }
}
