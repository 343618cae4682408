//! The shared perf-smoke cell matrix: which (scheme × mode × tier ×
//! kernel) cells exist, and how to measure one cell N times into a
//! [`SampleRecord`].
//!
//! Both `perf_smoke` (writes the `mdbs-bench-smoke-v5` snapshot report)
//! and `bench_gate` (re-samples cells and tests them against the stored
//! history) drive this module, so a gate verdict is always about
//! *exactly* the cell the snapshot trail records — same script seed,
//! same tier definitions, same kernel inclusion rules.
//!
//! Sampling repeats the whole replay (fresh engine, same deterministic
//! script) and records one wall-clock entry per repetition; all
//! deterministic counters are asserted identical across repetitions, so
//! a record carries one set of step counters and a *distribution* of
//! wall-clock. The `inject` factor multiplies every measured wall-clock
//! sample and exists purely so the gate can be demonstrated (and
//! property-tested in CI) against an artificial slowdown without
//! de-optimizing real code; `1.0` is a no-op.

use crate::store::{CellKey, SampleRecord};
use mdbs_core::parallel::replay_parallel;
use mdbs_core::replay::{replay_kernel, replay_sharded_kernel, ReplayOutcome, Script};
use mdbs_core::scheme::{KernelKind, SchemeKind};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_sim::system::{MdbsSystem, SystemConfig};
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::WorkloadSpec;
use serde::Serialize;
use std::time::Instant;

/// One replay workload tier.
#[derive(Clone, Copy, Debug)]
pub struct ReplayTier {
    /// Tier label (`small` / `medium` / `large`).
    pub name: &'static str,
    /// Global transactions in the script.
    pub txns: usize,
    /// Sites (also the shard count of the sharded cell).
    pub sites: usize,
    /// Average sites per transaction.
    pub dav: f64,
}

/// Replay tiers — must stay in lockstep with `step_gate`'s small/medium
/// definitions so the golden step file doubles as the step column of
/// the bench trail. The `large` tier skips the btree kernel: the
/// reference Scheme 2 kernel is superlinear in n and would turn the
/// smoke run into minutes at 1000 txns — exactly the regime the dense
/// kernels exist for.
pub const REPLAY_TIERS: [ReplayTier; 3] = [
    ReplayTier {
        name: "small",
        txns: 50,
        sites: 4,
        dav: 2.0,
    },
    ReplayTier {
        name: "medium",
        txns: 150,
        sites: 6,
        dav: 2.5,
    },
    ReplayTier {
        name: "large",
        txns: 1000,
        sites: 10,
        dav: 2.5,
    },
];

/// One DES workload tier: (label, global txns, sites, mpl).
#[derive(Clone, Copy, Debug)]
pub struct DesTier {
    /// Tier label.
    pub name: &'static str,
    /// Global transactions.
    pub txns: usize,
    /// Sites.
    pub sites: usize,
    /// Multiprogramming level.
    pub mpl: usize,
}

/// DES tiers (full simulator runs; default kernel only).
pub const DES_TIERS: [DesTier; 3] = [
    DesTier {
        name: "small",
        txns: 30,
        sites: 3,
        mpl: 4,
    },
    DesTier {
        name: "medium",
        txns: 80,
        sites: 4,
        mpl: 6,
    },
    DesTier {
        name: "large",
        txns: 160,
        sites: 6,
        mpl: 8,
    },
];

/// Measure the machine-speed calibration: the median wall-clock (ms) of
/// `reps` runs of a fixed pure-CPU spin workload (FNV-1a over a 1 MiB
/// buffer, 4 passes). Replay cells are CPU-bound, so CPU-frequency
/// scaling and runner contention move this spin and the cells together;
/// the gate divides wall-clock by it to cancel uniform machine drift
/// between runs. Magnitude is irrelevant — only run-to-run stability
/// relative to the cells matters.
pub fn calibration_ms(reps: usize) -> f64 {
    assert!(reps >= 1);
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 + 7) as u8).collect();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for _ in 0..4 {
            for &b in &buf {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        std::hint::black_box(h);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::gate::median(&samples)
}

/// Which replay cells each kernel contributes: btree stops before
/// `large`, dense runs everything.
pub fn kernel_included(kernel: KernelKind, tier: &str) -> bool {
    match kernel {
        KernelKind::BTree => tier != "large",
        KernelKind::Dense => true,
    }
}

/// Identity of one replay cell to be measured.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySpec {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Kernel under test.
    pub kernel: KernelKind,
    /// Whether to pump through [`ShardedGtm2`] (one shard per site).
    ///
    /// [`ShardedGtm2`]: mdbs_core::sharded::ShardedGtm2
    pub sharded: bool,
    /// Workload tier.
    pub tier: ReplayTier,
}

impl ReplaySpec {
    /// The database key this cell's records carry.
    pub fn key(&self) -> CellKey {
        CellKey {
            scheme: format!("{:?}", self.scheme),
            mode: if self.sharded {
                "replay-sharded".to_string()
            } else {
                "replay".to_string()
            },
            tier: self.tier.name.to_string(),
            kernel: self.kernel.name().to_string(),
            shards: if self.sharded {
                self.tier.sites as u32
            } else {
                1
            },
        }
    }
}

/// The full replay matrix restricted to the given tier labels, in the
/// canonical order (scheme-major, kernel, tier, single-then-sharded).
pub fn replay_matrix(tiers: &[&str]) -> Vec<ReplaySpec> {
    let mut out = Vec::new();
    for scheme in SchemeKind::CONSERVATIVE {
        for kernel in [KernelKind::BTree, KernelKind::Dense] {
            for tier in REPLAY_TIERS {
                if !tiers.contains(&tier.name) || !kernel_included(kernel, tier.name) {
                    continue;
                }
                for sharded in [false, true] {
                    out.push(ReplaySpec {
                        scheme,
                        kernel,
                        sharded,
                        tier,
                    });
                }
            }
        }
    }
    out
}

/// Identity of one `replay-parallel` cell: the work-stealing pool engine
/// ([`replay_parallel`]) at a given worker count. The worker count is
/// recorded in the `shards` column (one pump shard per site task), so
/// the trend report's shard axis doubles as the parallelism axis.
#[derive(Clone, Copy, Debug)]
pub struct ParallelSpec {
    /// Scheme under test — only the partitioned engines (Schemes 0/1)
    /// are in the matrix; the funnel schemes would just re-measure the
    /// single engine plus pool overhead.
    pub scheme: SchemeKind,
    /// Pool worker threads.
    pub workers: usize,
    /// Workload tier.
    pub tier: ReplayTier,
}

impl ParallelSpec {
    /// The database key this cell's records carry.
    pub fn key(&self) -> CellKey {
        CellKey {
            scheme: format!("{:?}", self.scheme),
            mode: "replay-parallel".to_string(),
            tier: self.tier.name.to_string(),
            kernel: "dense".to_string(),
            shards: self.workers as u32,
        }
    }
}

/// Worker counts the parallel cells sweep: 1 (the serialized baseline
/// every speedup is measured against), 2, 4, and the machine's actual
/// parallelism, deduplicated and sorted.
pub fn parallel_workers() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep = vec![1, 2, 4, cores];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// The `replay-parallel` matrix: Schemes 0/1 × {medium, large} × the
/// worker sweep. `small` is excluded — at 50 txns pool startup is a
/// visible fraction of the cell and the number would measure thread
/// spawn, not the scheduler.
pub fn parallel_matrix(tiers: &[&str]) -> Vec<ParallelSpec> {
    let mut out = Vec::new();
    for scheme in [SchemeKind::Scheme0, SchemeKind::Scheme1] {
        for tier in REPLAY_TIERS {
            if tier.name == "small" || !tiers.contains(&tier.name) {
                continue;
            }
            for workers in parallel_workers() {
                out.push(ParallelSpec {
                    scheme,
                    workers,
                    tier,
                });
            }
        }
    }
    out
}

/// Measure one `replay-parallel` cell `samples` times. Steps and stats
/// are bit-identical to the single engine by construction (the
/// equivalence suite enforces it), so the deterministic-counter check
/// applies unchanged; only the two peak gauges are interleaving-
/// dependent, and those are not compared across repetitions.
pub fn sample_parallel(spec: &ParallelSpec, samples: usize, inject: f64) -> SampleRecord {
    assert!(samples >= 1, "need at least one sample");
    let t = spec.tier;
    let script = Script::random(t.txns, t.sites, t.dav, 42);
    let mut wall_ms_samples = Vec::with_capacity(samples);
    let mut first: Option<ReplayOutcome> = None;
    for _ in 0..samples {
        let start = Instant::now();
        let outcome = replay_parallel(spec.scheme, spec.workers, &script);
        let wall = start.elapsed();
        assert_eq!(
            outcome.completed, t.txns,
            "{spec:?}: parallel replay must complete every txn"
        );
        wall_ms_samples.push(wall.as_secs_f64() * 1e3 * inject);
        match &first {
            None => first = Some(outcome),
            Some(f) => assert_eq!(
                (f.steps.cond, f.steps.act, f.completed),
                (outcome.steps.cond, outcome.steps.act, outcome.completed),
                "{spec:?}: deterministic counters moved between repetitions"
            ),
        }
    }
    let outcome = first.expect("samples >= 1");
    SampleRecord {
        commit: String::new(),
        source: String::new(),
        gate_eligible: true,
        key: spec.key(),
        txns: t.txns as u64,
        wall_ms_samples,
        calib_ms: None,
        steps_cond: outcome.steps.cond,
        steps_act: outcome.steps.act,
        steps_wait_scan: outcome.steps.wait_scan,
        waits: outcome.stats.waited,
        peak_wait: outcome.stats.peak_wait,
        peak_active: outcome.stats.peak_active,
        wake_scan_count: Some(outcome.wake_scan_count),
        wake_scan_sum: Some(outcome.wake_scan_sum),
        p50_response_us: None,
        p99_response_us: None,
    }
}

fn assert_consistent(spec: &ReplaySpec, first: &ReplayOutcome, outcome: &ReplayOutcome) {
    assert_eq!(
        (first.steps.cond, first.steps.act, first.completed),
        (outcome.steps.cond, outcome.steps.act, outcome.completed),
        "{spec:?}: deterministic counters moved between repetitions"
    );
}

/// Measure one replay cell `samples` times. Every repetition replays the
/// same seed-42 script on a fresh engine; wall-clock entries are scaled
/// by `inject` (test hook, 1.0 in real use).
pub fn sample_replay(spec: &ReplaySpec, samples: usize, inject: f64) -> SampleRecord {
    assert!(samples >= 1, "need at least one sample");
    let t = spec.tier;
    let script = Script::random(t.txns, t.sites, t.dav, 42);
    let mut wall_ms_samples = Vec::with_capacity(samples);
    let mut first: Option<ReplayOutcome> = None;
    for _ in 0..samples {
        let start = Instant::now();
        let outcome = if spec.sharded {
            replay_sharded_kernel(spec.scheme, spec.kernel, t.sites, &script)
        } else {
            replay_kernel(spec.scheme, spec.kernel, &script)
        };
        let wall = start.elapsed();
        assert_eq!(
            outcome.completed, t.txns,
            "{spec:?}: replay must complete every txn"
        );
        wall_ms_samples.push(wall.as_secs_f64() * 1e3 * inject);
        match &first {
            None => first = Some(outcome),
            Some(f) => assert_consistent(spec, f, &outcome),
        }
    }
    let outcome = first.expect("samples >= 1");
    SampleRecord {
        commit: String::new(),
        source: String::new(),
        gate_eligible: true,
        key: spec.key(),
        txns: t.txns as u64,
        wall_ms_samples,
        calib_ms: None,
        steps_cond: outcome.steps.cond,
        steps_act: outcome.steps.act,
        steps_wait_scan: outcome.steps.wait_scan,
        waits: outcome.stats.waited,
        peak_wait: outcome.stats.peak_wait,
        peak_active: outcome.stats.peak_active,
        wake_scan_count: Some(outcome.wake_scan_count),
        wake_scan_sum: Some(outcome.wake_scan_sum),
        p50_response_us: None,
        p99_response_us: None,
    }
}

/// Measure one full-DES cell `samples` times (default kernel). Response
/// percentiles are in *simulated* time and deterministic, so they carry
/// no distribution; wall-clock does.
pub fn sample_des(scheme: SchemeKind, tier: DesTier, samples: usize, inject: f64) -> SampleRecord {
    assert!(samples >= 1, "need at least one sample");
    let spec = WorkloadSpec {
        sites: tier.sites,
        global_txns: tier.txns,
        avg_sites_per_txn: 2.0_f64.min(tier.sites as f64),
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 16,
        distribution: AccessDistribution::Uniform,
        local_txns_per_site: 2,
        ops_per_local_txn: 2,
        seed: 42,
    };
    let mut wall_ms_samples = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let mut b = SystemConfig::builder()
            .scheme(scheme)
            .seed(spec.seed)
            .mpl(tier.mpl);
        for _ in 0..tier.sites {
            b = b.site(LocalProtocolKind::TwoPhaseLocking);
        }
        let mut system = MdbsSystem::new(b.build());
        let start = Instant::now();
        let report = system.run(Workload::generate(&spec));
        let wall = start.elapsed();
        assert!(
            report.is_serializable(),
            "{scheme:?}/{}: not serializable",
            tier.name
        );
        assert!(
            report.ser_s_ok,
            "{scheme:?}/{}: ser(S) not serializable",
            tier.name
        );
        wall_ms_samples.push(wall.as_secs_f64() * 1e3 * inject);
        last = Some(report);
    }
    let report = last.expect("samples >= 1");
    let wake_scan = report.registry.histogram("gtm2.wake_scan");
    SampleRecord {
        commit: String::new(),
        source: String::new(),
        gate_eligible: true,
        key: CellKey {
            scheme: format!("{scheme:?}"),
            mode: "des".to_string(),
            tier: tier.name.to_string(),
            kernel: KernelKind::Dense.name().to_string(),
            shards: 1,
        },
        txns: tier.txns as u64,
        wall_ms_samples,
        calib_ms: None,
        steps_cond: report.gtm2_steps.cond,
        steps_act: report.gtm2_steps.act,
        steps_wait_scan: report.gtm2_steps.wait_scan,
        waits: report.gtm2.waited,
        peak_wait: report.gtm2.peak_wait,
        peak_active: report.gtm2.peak_active,
        wake_scan_count: wake_scan.as_ref().map(|h| h.count()),
        wake_scan_sum: wake_scan.as_ref().map(|h| h.sum()),
        p50_response_us: Some(report.metrics.global_response.percentile(50.0)),
        p99_response_us: Some(report.metrics.global_response.percentile(99.0)),
    }
}

/// One cell of the `mdbs-bench-smoke-v5` report, as `perf_smoke` writes
/// it. `wall_ms` keeps the historical single-number column (it is the
/// median) so eyeball diffs against old snapshots still work; the full
/// distribution is in `samples`.
#[derive(Serialize)]
pub struct ReportCell {
    /// Scheme name.
    pub scheme: String,
    /// Execution mode.
    pub mode: String,
    /// Tier label (named `size` since v1).
    pub size: String,
    /// Kernel name.
    pub kernel: String,
    /// Pump shard count.
    pub shards: u32,
    /// Transactions in the workload.
    pub txns: u64,
    /// Wall-clock per repetition, ms, in measurement order.
    pub samples: Vec<f64>,
    /// Machine-speed calibration of the measuring run (see
    /// [`calibration_ms`]); `null` in migrated pre-v4 snapshots.
    pub calib_ms: Option<f64>,
    /// Median wall-clock (the historical `wall_ms` column).
    pub wall_ms: f64,
    /// Fastest repetition.
    pub wall_ms_min: f64,
    /// Median repetition (same value as `wall_ms`).
    pub wall_ms_median: f64,
    /// Slowest repetition.
    pub wall_ms_max: f64,
    /// Transactions per wall-second, from the median repetition.
    pub throughput_txn_per_sec: f64,
    /// DES p50 response (simulated µs); `null` for replay cells.
    pub p50_response_us: Option<u64>,
    /// DES p99 response (simulated µs); `null` for replay cells.
    pub p99_response_us: Option<u64>,
    /// Paper-step `cond` charges.
    pub steps_cond: u64,
    /// Paper-step `act` charges.
    pub steps_act: u64,
    /// Wait-scan steps.
    pub steps_wait_scan: u64,
    /// Operations that waited at least once.
    pub waits: u64,
    /// Peak WAIT-set size.
    pub peak_wait: u64,
    /// Peak active-transaction count.
    pub peak_active: u64,
    /// Wake scans performed.
    pub wake_scan_count: Option<u64>,
    /// Total wake candidates examined.
    pub wake_scan_sum: Option<u64>,
}

/// Convert a measured record into its v5 report cell.
pub fn report_cell(rec: &SampleRecord) -> ReportCell {
    let median = rec.wall_ms_median();
    ReportCell {
        scheme: rec.key.scheme.clone(),
        mode: rec.key.mode.clone(),
        size: rec.key.tier.clone(),
        kernel: rec.key.kernel.clone(),
        shards: rec.key.shards,
        txns: rec.txns,
        samples: rec.wall_ms_samples.clone(),
        calib_ms: rec.calib_ms,
        wall_ms: median,
        wall_ms_min: rec.wall_ms_min(),
        wall_ms_median: median,
        wall_ms_max: rec.wall_ms_max(),
        throughput_txn_per_sec: if median > 0.0 {
            rec.txns as f64 / (median / 1e3)
        } else {
            0.0
        },
        p50_response_us: rec.p50_response_us,
        p99_response_us: rec.p99_response_us,
        steps_cond: rec.steps_cond,
        steps_act: rec.steps_act,
        steps_wait_scan: rec.steps_wait_scan,
        waits: rec.waits,
        peak_wait: rec.peak_wait,
        peak_active: rec.peak_active,
        wake_scan_count: rec.wake_scan_count,
        wake_scan_sum: rec.wake_scan_sum,
    }
}

/// The `mdbs-bench-smoke-v5` snapshot report.
#[derive(Serialize)]
pub struct SmokeReport {
    /// Always [`crate::store::DB_SCHEMA`].
    pub schema: &'static str,
    /// Commit (or label) the snapshot was measured at.
    pub commit: String,
    /// All measured cells.
    pub cells: Vec<ReportCell>,
}

impl SmokeReport {
    /// Build the v5 report from measured records.
    pub fn from_records(commit: &str, records: &[SampleRecord]) -> SmokeReport {
        SmokeReport {
            schema: crate::store::DB_SCHEMA,
            commit: commit.to_string(),
            cells: records.iter().map(report_cell).collect(),
        }
    }
}
