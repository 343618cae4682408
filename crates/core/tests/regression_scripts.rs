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
use mdbs_core::reference;
use mdbs_core::replay::{replay, replay_with, Script, ScriptEvent};
use mdbs_core::scheme::{FullRescan, Gtm2Scheme, SchemeKind};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

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

/// One dense-kernel replay cell's decisions and machine work, per scheme
/// in `Scheme0..Scheme3` order: (scheme, cond, act, wait_scan, waited,
/// wake_scan_sum, `ser(S)` digest).
type CellGolden = [(SchemeKind, u64, u64, u64, u64, u64, u64); 4];

/// Run `replay` on a thread of its own and wait for its result at most
/// `limit` — about ten times the replay's time in a release build, a
/// hundred times that in a debug build, which validates every act — so a
/// kernel that loops fails the test, naming `what`, instead of hanging
/// it. A timed-out thread is left running: the test process ends it.
#[expect(
    clippy::disallowed_methods,
    reason = "a test waits, with a deadline, for the replay it runs on its own thread"
)]
fn within<T: Send + 'static>(
    what: &str,
    limit: Duration,
    replay: impl FnOnce() -> T + Send + 'static,
) -> T {
    let limit = if cfg!(debug_assertions) {
        100 * limit
    } else {
        limit
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(replay()));
    match rx.recv_timeout(limit) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no result within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the replay panicked"),
    }
}

/// Replay `script` on every scheme's dense kernel and compare with
/// `golden`, Scheme 2's `Eliminate_Cycles` work (states entered below the
/// root, column scans charged without running them, Δ dependencies
/// added; `(0, 0, 0)` for the other schemes) with `scheme2_elim`, its
/// calls, the edge-table records laid out and the searches of an edge row
/// (`(0, 0, 0)` for the other schemes) with `scheme2_table`, Scheme
/// 3's `act(ser)` targets, the ORs it skipped and the ORs that widened a
/// row past `Ĝ_i` (`(0, 0, 0)` for the other schemes) with
/// `scheme3_ser_bef`, and each scheme's `gtm2.wake_elided`
/// and (`gtm2.retests_ser`, `gtm2.retests_fin`) with `wake`. Scheme 2's
/// `gtm2.col_repair_words` (0 for the other schemes) is compared with
/// `scheme2_repair`. Each replay runs [`within`] `limit`.
#[expect(
    clippy::too_many_arguments,
    reason = "one golden per argument, each named at its call site"
)]
fn assert_dense_cell(
    cell: &'static str,
    script: &Script,
    limit: Duration,
    golden: CellGolden,
    scheme2_elim: (u64, u64, u64),
    (scheme2_table, scheme2_repair): ((u64, u64, u64), u64),
    scheme3_ser_bef: (u64, u64, u64),
    wake: ([u64; 4], [(u64, u64); 4]),
) {
    let n = script.txn_count();
    let (wake_elided, retests) = wake;
    for (((kind, cond, act, wait_scan, waited, wake_scan_sum, ser_digest), elided), retests) in
        golden.into_iter().zip(wake_elided).zip(retests)
    {
        let script = script.clone();
        let (out, metrics) = within(&format!("{cell} {kind}"), limit, move || {
            let mut engine = Gtm2::new(kind.build());
            let out = replay_with(&mut engine, &script);
            let mut metrics = Registry::new();
            engine.export_metrics(&mut metrics);
            (out, metrics)
        });
        let elim = (
            metrics.counter("gtm2.elim_states"),
            metrics.counter("gtm2.elim_scans_elided"),
            metrics.counter("gtm2.elim_delta"),
        );
        let digest = out
            .ser_events
            .iter()
            .fold(FNV_OFFSET_BASIS, |h, (txn, site)| {
                fnv1a(fnv1a(h, &txn.0.to_le_bytes()), &site.0.to_le_bytes())
            });
        let expected = if kind == SchemeKind::Scheme2 {
            scheme2_elim
        } else {
            (0, 0, 0)
        };
        assert_eq!(
            elim, expected,
            "{cell} {kind}: Eliminate_Cycles work changed"
        );
        let table = (
            metrics.counter("gtm2.elim_calls"),
            metrics.counter("gtm2.elim_recs"),
            metrics.counter("gtm2.edge_searches"),
        );
        let expected = if kind == SchemeKind::Scheme2 {
            scheme2_table
        } else {
            (0, 0, 0)
        };
        assert_eq!(
            table, expected,
            "{cell} {kind}: edge-table or edge-search work changed"
        );
        let expected = if kind == SchemeKind::Scheme2 {
            scheme2_repair
        } else {
            0
        };
        assert_eq!(
            metrics.counter("gtm2.col_repair_words"),
            expected,
            "{cell} {kind}: column repair work changed"
        );
        let ser_bef = (
            metrics.counter("gtm2.ser_bef_targets"),
            metrics.counter("gtm2.ser_bef_ors_elided"),
            metrics.counter("gtm2.ser_bef_ors_widened"),
        );
        let expected = if kind == SchemeKind::Scheme3 {
            scheme3_ser_bef
        } else {
            (0, 0, 0)
        };
        assert_eq!(
            ser_bef, expected,
            "{cell} {kind}: act(ser) propagation work changed"
        );
        assert_eq!(
            metrics.counter("gtm2.wake_elided"),
            elided,
            "{cell} {kind}: closed-form wake re-tests changed"
        );
        assert_eq!(
            (
                metrics.counter("gtm2.retests_ser"),
                metrics.counter("gtm2.retests_fin")
            ),
            retests,
            "{cell} {kind}: wake re-tests run changed"
        );
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
            "{cell} {kind}: decisions changed"
        );
        assert_eq!(out.completed, n, "{cell} {kind}: incomplete");
        assert_eq!(out.protocol_violations, 0, "{cell} {kind}");
    }
}

/// The replay cell the benchmark's `sched_burst` workload is shaped like
/// (1000 transactions, 10 sites, d_av 2.5; nearly all active at once),
/// pinned for the dense kernels: step charges, waits, wake-scan work, a
/// digest of `ser(S)`, Scheme 2's `Eliminate_Cycles` work, Scheme 3's
/// `act(ser)` targets and skipped ORs, and the wake re-tests Schemes 1 and
/// 3 charged in closed form. Its columns average
/// about 168 members, so most of Scheme 2's scans run over several words.
/// `step_cells_golden` stops at 150 transactions and the benchmark reads
/// wall-clock only, so nothing else holds this cell's decisions still.
/// Ignored by default: a debug build validates every act and takes
/// minutes; the release soak step runs it in well under a second.
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn burst_cell_dense_decisions_golden() {
    const GOLDEN: CellGolden = [
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
    // the root, column scans charged without running them, and Δ
    // dependencies added. The first two are machine work, not decisions —
    // but a walk that stops eliding, or enters a state twice, moves them.
    const SCHEME2_ELIM: (u64, u64, u64) = (1_247_446, 775_997, 304_819);
    // Scheme 2's `Eliminate_Cycles` calls (one per `init`), the edge-table
    // records laid out (one per edge at insert, plus every record again
    // each time a row or column outgrew the table), and the searches of an
    // edge row (one per `cond(ser)`, `act(ser)` and `act(ack)`): a path
    // that goes back to searching, or a table that re-lays per call,
    // moves them.
    const SCHEME2_TABLE: (u64, u64, u64) = (1_000, 8_284, 289_758);
    // The edge-table mask words Scheme 2's column repair rewrote: a
    // repair that goes back to re-laying whole columns, or stops leaving
    // alone the members with nothing above the hole, moves it.
    const SCHEME2_REPAIR: u64 = 1_417_626;
    // The wake re-tests each scheme charged without running them, in
    // `GOLDEN`'s order: Scheme 1's fins after an `ack` or a `fin` and sers
    // behind a woken `ser` or not the insert-queue front, Scheme 3's fins
    // after a `fin` and sers behind a woken `ser`. Machine work too: an
    // elision that silently stops keeps every step above and moves these.
    const WAKE_ELIDED: [u64; 4] = [0, 896_183, 0, 365_242];
    // The wake re-tests each scheme ran, on waiting (`ser`s, `fin`s): what
    // the elisions above leave.
    const RETESTS: [(u64, u64); 4] = [
        (2_452, 0),
        (2_450, 4_748),
        (282_168, 200_012),
        (104_816, 744),
    ];
    // Scheme 3's `act(ser)` targets (Set2 members charged `|Set1|`), those
    // already ordered after the serialized transaction, whose OR the
    // kernel skips, and those whose row gained a bit besides `Ĝ_i`, whose
    // OR runs. All three are functions of the scheme's state; a kernel
    // that stops skipping keeps every step above and moves none, but one
    // that builds a different Set2 moves the first.
    const SCHEME3_SER_BEF: (u64, u64, u64) = (970_142, 699_351, 2_112);
    let script = Script::random(1000, 10, 2.5, 42);
    // The slowest replay, Scheme 2's, takes about 0.1 s in release.
    assert_dense_cell(
        "burst",
        &script,
        Duration::from_secs(1),
        GOLDEN,
        SCHEME2_ELIM,
        (SCHEME2_TABLE, SCHEME2_REPAIR),
        SCHEME3_SER_BEF,
        (WAKE_ELIDED, RETESTS),
    );
}

/// The replay cell the benchmark's `sched_stream` workload is shaped like
/// (10 000 transactions, 10 sites, d_av 2.5, at most 64 open at once;
/// [`Script::windowed`] at seed 42), pinned like the burst cell above.
/// Its columns average about 49 members, so most of Scheme 2's scans run
/// in one word: between them the two cells cover both sides of that
/// branch.
/// Ignored by default for the same reason as the burst cell.
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn stream_cell_dense_decisions_golden() {
    const GOLDEN: CellGolden = [
        (
            SchemeKind::Scheme0,
            92_291,
            85_063,
            70_042,
            22_249,
            22_249,
            0x9f47_5b53_2110_e828,
        ),
        (
            SchemeKind::Scheme1,
            5_350_390,
            6_603_678,
            1_951_312,
            29_592,
            1_881_270,
            0xdf95_6e34_3493_4388,
        ),
        (
            SchemeKind::Scheme2,
            5_685_705_007,
            574_139_791,
            943_612,
            29_517,
            873_570,
            0x6cb5_27eb_d04d_1420,
        ),
        (
            SchemeKind::Scheme3,
            4_370_965,
            113_106_283,
            825_000,
            20_479,
            754_958,
            0x4ab1_f211_6e47_a42c,
        ),
    ];
    const SCHEME2_ELIM: (u64, u64, u64) = (4_465_963, 2_665_203, 703_284);
    const SCHEME2_TABLE: (u64, u64, u64) = (10_000, 25_496, 525_920);
    const SCHEME2_REPAIR: u64 = 1_275_068;
    const WAKE_ELIDED: [u64; 4] = [0, 1_790_983, 0, 621_164];
    const RETESTS: [(u64, u64); 4] = [
        (22_249, 0),
        (22_259, 47_287),
        (450_857, 402_176),
        (112_514, 7_420),
    ];
    const SCHEME3_SER_BEF: (u64, u64, u64) = (1_931_689, 1_478_834, 35_538);
    let script = Script::windowed(10_000, 10, 2.5, 64, 42);
    // The slowest replay, Scheme 2's, takes about 0.3 s in release.
    assert_dense_cell(
        "stream",
        &script,
        Duration::from_secs(4),
        GOLDEN,
        SCHEME2_ELIM,
        (SCHEME2_TABLE, SCHEME2_REPAIR),
        SCHEME3_SER_BEF,
        (WAKE_ELIDED, RETESTS),
    );
}

/// Scheme 3's dense kernel validated after every act on the stream cell,
/// where about one `act(ser)` target in thirteen gains a bit besides
/// `Ĝ_i` and so takes the OR path (on the burst cell, which CI's debug
/// replay validates, fewer than one in a hundred do): `debug_validate`
/// checks the `ser_aft` transpose, the kept sizes and transitivity.
/// Ignored by default: about 12 s in release.
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn stream_cell_scheme3_validated() {
    let script = Script::windowed(10_000, 10, 2.5, 64, 42);
    let n = script.txn_count();
    let out = within(
        "stream Scheme 3 validated",
        Duration::from_secs(120),
        move || {
            let mut engine = Gtm2::new(SchemeKind::Scheme3.build());
            engine.set_validate(true);
            replay_with(&mut engine, &script)
        },
    );
    assert_eq!(out.completed, n, "incomplete");
    assert_eq!(out.protocol_violations, 0);
}

/// The paper's complexity results (Theorems 4, 6 and 9) are step counts,
/// and the dense kernels change machine cost without moving one counted
/// step. Two fixed replay cells, `small` (50 transactions, 4 sites, d_av
/// 2.0) and `medium` (150, 6, 2.5), both seed 42, pin every conservative
/// scheme's `cond` / `act` / wait-scan charges on the dense kernel and,
/// for Schemes 1–3, on the BTree oracle (Scheme 0 has one kernel): a kernel
/// that forgot a charge, or a wake path that re-tests a different set,
/// moves a cell. The `small` cell also pins the wake candidate sets no
/// conservative kernel returns — a full WAIT rescan over each conservative
/// scheme, the naive site graph's waiting inits and one transaction's
/// sers, and the aborting baselines' empty set — with their waits and
/// aborts.
/// Ignored by default: a debug build validates every act and takes over a
/// minute; the release soak step runs it in about a second.
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn step_cells_golden() {
    // (cond, act, wait_scan)
    type Steps = (u64, u64, u64);
    // (scheme, [steps on small, steps on medium])
    const GOLDEN: [(SchemeKind, [Steps; 2]); 4] = [
        (
            SchemeKind::Scheme0,
            [(370, 350, 300), (1_372, 1_266, 1_044)],
        ),
        (
            SchemeKind::Scheme1,
            [(2_886, 3_832, 1_511), (45_521, 41_275, 20_048)],
        ),
        (
            SchemeKind::Scheme2,
            [(119_087, 57_479, 1_113), (12_595_552, 3_073_329, 13_010)],
        ),
        (
            SchemeKind::Scheme3,
            [(3_394, 11_215, 936), (111_964, 516_988, 8_908)],
        ),
    ];
    // On `small`: (engine, cond, act, wait_scan, waited, aborted), the
    // engines in `wake_vocabulary`'s order.
    const WAKE_VOCABULARY: [(&str, u64, u64, u64, u64, usize); 7] = [
        ("FullRescan Scheme 0", 6_527, 350, 6_227, 70, 0),
        ("FullRescan Scheme 1", 9_789, 3_832, 7_156, 89, 0),
        ("FullRescan Scheme 2", 709_718, 57_479, 7_022, 89, 0),
        ("FullRescan Scheme 3", 32_342, 11_215, 4_698, 64, 0),
        ("Naive-SG (BS88)", 8_567, 300, 1_923, 122, 0),
        ("Aborting-TO", 261, 261, 261, 0, 39),
        ("Optimistic-Ticket", 300, 6_356, 300, 0, 30),
    ];
    let cells = [
        ("small", Script::random(50, 4, 2.0, 42)),
        ("medium", Script::random(150, 6, 2.5, 42)),
    ];
    for (kind, expected) in GOLDEN {
        for ((size, script), steps) in cells.iter().zip(expected) {
            for (kernel, scheme) in reference::realizations(kind) {
                let out = replay_with(&mut Gtm2::new(scheme), script);
                let cell = format!("{kind} {size} {kernel}");
                assert_eq!(out.completed, script.txn_count(), "{cell}: incomplete");
                assert_eq!(
                    (out.steps.cond, out.steps.act, out.steps.wait_scan),
                    steps,
                    "{cell}: paper step counts (cond, act, wait_scan) moved"
                );
            }
        }
    }
    let small = &cells[0].1;
    for ((label, cond, act, wait_scan, waited, aborted), scheme) in
        WAKE_VOCABULARY.into_iter().zip(wake_vocabulary())
    {
        let out = replay_with(&mut Gtm2::new(scheme), small);
        assert_eq!(
            out.completed + out.aborted.len(),
            small.txn_count(),
            "{label} small: incomplete"
        );
        assert_eq!(
            (
                out.steps.cond,
                out.steps.act,
                out.steps.wait_scan,
                out.stats.waited,
                out.aborted.len()
            ),
            (cond, act, wait_scan, waited, aborted),
            "{label} small: steps (cond, act, wait_scan), waits or aborts moved"
        );
    }
}

/// The engines whose wake candidate sets no conservative kernel returns:
/// [`FullRescan`] over each conservative scheme (`All`), the naive site
/// graph (`Inits`, `SerOf`), and the two aborting baselines (`None`).
fn wake_vocabulary() -> Vec<Box<dyn Gtm2Scheme + Send>> {
    let mut engines: Vec<Box<dyn Gtm2Scheme + Send>> = SchemeKind::CONSERVATIVE
        .into_iter()
        .map(|kind| Box::new(FullRescan(kind.build())) as Box<dyn Gtm2Scheme + Send>)
        .collect();
    engines.extend(
        [
            SchemeKind::SiteGraph,
            SchemeKind::AbortingTo,
            SchemeKind::OptimisticTicket,
        ]
        .map(SchemeKind::build),
    );
    engines
}
