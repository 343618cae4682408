//! Parallel-pool equivalence suite.
//!
//! `replay_parallel` runs Schemes 0/1 as genuinely concurrent pool tasks
//! (per-site tasks, plus a domain task for Scheme 1) and funnels the
//! engine-global schemes through one task. That restructuring must be
//! *observationally invisible* — and for the paper's accounting it must
//! be **bit-identical**: same per-site `ser(S)` projection, same
//! `cond`/`act`/`wait_scan` step totals, same WAIT counts by kind, same
//! wake-scan work, zero violations, every transaction completed. The
//! suite drives that contract across many seeds, all four conservative
//! schemes, and worker counts from degenerate (1) through the machine's
//! parallelism, so true interleavings race on CI's multi-core runners.
//!
//! The vendored proptest runs deterministic cases without shrinking, so
//! any failure seed found here should be transcribed as an explicit
//! regression test in the "regressions" module below (repo convention
//! from PR 1).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdbs::common::ids::{GlobalTxnId, SiteId};
use mdbs::common::pool::{Mailbox, Poll, Pool};
use mdbs::core::parallel::replay_parallel;
use mdbs::core::replay::{replay, Script};
use mdbs::core::SchemeKind;
use mdbs::localdb::protocol::LocalProtocolKind;
use mdbs::sim::threaded::ThreadedMdbs;
use mdbs::workload::generator::Workload;
use mdbs::workload::spec::WorkloadSpec;
use proptest::prelude::*;

/// Worker counts to sweep: degenerate, small, medium, and whatever the
/// machine actually has (deduplicated).
fn worker_sweep() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep = vec![1, 2, 4, cores];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// Group a `ser(S)` event log by site, preserving per-site order.
fn per_site_order(events: &[(GlobalTxnId, SiteId)]) -> BTreeMap<SiteId, Vec<GlobalTxnId>> {
    let mut by_site: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
    for &(txn, site) in events {
        by_site.entry(site).or_default().push(txn);
    }
    by_site
}

/// The bit-exactness contract between the single engine and a parallel
/// run: everything except the two documented peak gauges.
fn assert_parallel_exact(kind: SchemeKind, workers: usize, script: &Script, seed_label: u64) {
    let single = replay(kind, script);
    let par = replay_parallel(kind, workers, script);
    let label = format!("{kind} workers={workers} seed={seed_label}");
    assert_eq!(single.completed, par.completed, "{label}: completed");
    assert_eq!(par.protocol_violations, 0, "{label}: violations");
    assert!(par.aborted.is_empty(), "{label}: conservative aborts");
    assert!(par.ser_serializable, "{label}: parallel ser(S) audit");
    assert_eq!(single.steps, par.steps, "{label}: paper steps");
    assert_eq!(
        (single.stats.enqueued, single.stats.processed),
        (par.stats.enqueued, par.stats.processed),
        "{label}: queue counters"
    );
    assert_eq!(single.stats.waited, par.stats.waited, "{label}: waited");
    assert_eq!(
        single.stats.waited_kind, par.stats.waited_kind,
        "{label}: waited by kind"
    );
    assert_eq!(
        (single.stats.inits, single.stats.fins),
        (par.stats.inits, par.stats.fins),
        "{label}: init/fin counts"
    );
    assert_eq!(
        (single.wake_scan_count, single.wake_scan_sum),
        (par.wake_scan_count, par.wake_scan_sum),
        "{label}: wake-scan work"
    );
    assert_eq!(
        per_site_order(&single.ser_events),
        per_site_order(&par.ser_events),
        "{label}: per-site ser(S) order diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random workloads, all four conservative schemes, every worker
    /// count in the sweep. Schemes 0/1 exercise the genuinely-parallel
    /// site/domain task engines; Schemes 2/3 exercise the funnel.
    #[test]
    fn parallel_replay_matches_single_engine(
        n in 3usize..20,
        m in 1usize..6,
        seed in any::<u64>(),
    ) {
        let script = Script::random(n, m, (m as f64).min(2.5), seed);
        for kind in SchemeKind::CONSERVATIVE {
            for workers in worker_sweep() {
                assert_parallel_exact(kind, workers, &script, seed);
            }
        }
    }

    /// Serializable insertion orders complete everywhere in parallel too.
    #[test]
    fn parallel_replay_serializable_orders_complete(
        n in 3usize..12,
        m in 2usize..6,
        seed in any::<u64>(),
    ) {
        let script = Script::serializable_order(n, m, 2.0, seed);
        for kind in SchemeKind::CONSERVATIVE {
            for workers in worker_sweep() {
                let out = replay_parallel(kind, workers, &script);
                prop_assert_eq!(out.completed, n, "{} workers={}", kind, workers);
                prop_assert_eq!(out.protocol_violations, 0);
            }
        }
    }
}

/// Larger-scale determinism: the partitioned schemes reconstruct even the
/// *total* `ser(S)` order (drains are tagged with script position), many
/// times in a row so scheduler interleavings actually vary.
#[test]
fn parallel_total_order_is_stable_under_racing() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for kind in [SchemeKind::Scheme0, SchemeKind::Scheme1] {
        let script = Script::random(80, 6, 2.5, 4242);
        let single = replay(kind, &script);
        for round in 0..20 {
            let par = replay_parallel(kind, cores.max(2), &script);
            assert_eq!(
                single.ser_events, par.ser_events,
                "{kind} round {round}: total ser(S) order diverged"
            );
            assert_eq!(single.steps, par.steps, "{kind} round {round}: steps");
        }
    }
}

/// The threaded runtime on the pool-task site workers: every protocol
/// message accounted for (`send_dropped == 0`), audit green, with 3 and 4
/// sites multiplexed onto the pool's `min(sites, nproc)` workers.
#[test]
fn threaded_pool_runtime_drops_nothing() {
    for sites in [3usize, 4] {
        let spec = WorkloadSpec {
            sites,
            global_txns: 12,
            avg_sites_per_txn: 2.0,
            ops_per_subtxn: 2,
            read_ratio: 0.5,
            items_per_site: 16,
            distribution: mdbs::workload::AccessDistribution::Uniform,
            local_txns_per_site: 0,
            ops_per_local_txn: 0,
            seed: 31,
        };
        let rt = ThreadedMdbs::new(
            vec![LocalProtocolKind::TwoPhaseLocking; sites],
            SchemeKind::Scheme1,
            4,
        );
        let report = rt.run(Workload::generate(&spec).globals);
        assert_eq!(report.commits + report.aborts, 12);
        assert!(report.is_serializable(), "{:?}", report.audit);
        assert!(report.ser_s_ok);
        assert_eq!(
            report.registry.counter("threaded.send_dropped"),
            0,
            "sites={sites}: dropped sends"
        );
    }
}

/// Regressions (deterministic reproductions of races the proptests can
/// only make likely).
mod regressions {
    use super::*;

    /// A wake delivered to a shard whose owning task is mid-park must not
    /// be lost. One worker, one mailbox-driven consumer task: wait until
    /// the worker has demonstrably parked (the `pool.park` counter), then
    /// send. The consumer must run again and drain the message — if the
    /// wake were dropped the pool would idle forever and the deadline
    /// assert fires.
    #[test]
    fn wake_delivered_to_parked_shard_owner_is_processed() {
        let pool = Pool::new(1);
        let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
        let consumed = Arc::new(AtomicU64::new(0));
        let (mb, seen) = (Arc::clone(&mailbox), Arc::clone(&consumed));
        let handle = pool.spawn(move || {
            while let Some(v) = mb.pop() {
                if v == u64::MAX {
                    return Poll::Done;
                }
                seen.fetch_add(v, Ordering::SeqCst);
            }
            Poll::Pending
        });
        mailbox.bind(handle.clone());
        // First poll: empty mailbox, the task suspends and the lone
        // worker parks.
        handle.wake();
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.counters().1 == 0 {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
        // The worker is at (or past) its park point: deliver the value
        // and the shutdown sentinel through the mailbox wake path.
        mailbox.send(7);
        mailbox.send(u64::MAX);
        assert!(
            pool.wait_idle(Duration::from_secs(30)),
            "mid-park wake was lost: consumer never drained its mailbox"
        );
        assert_eq!(consumed.load(Ordering::SeqCst), 7);
    }

    /// Scheme 1's site↔domain mailbox traffic under the maximum
    /// cross-site contention shape: every transaction spans every site,
    /// so every drain crosses the domain task. Repeated to let parks and
    /// sends race; the outcome must stay bit-identical every time.
    #[test]
    fn scheme1_full_span_contention_stays_exact() {
        let script = Script::random(30, 3, 3.0, 99);
        let single = replay(SchemeKind::Scheme1, &script);
        for round in 0..30 {
            let par = replay_parallel(SchemeKind::Scheme1, 2, &script);
            assert_eq!(single.steps, par.steps, "round {round}");
            assert_eq!(
                per_site_order(&single.ser_events),
                per_site_order(&par.ser_events),
                "round {round}"
            );
        }
    }
}
