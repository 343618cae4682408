//! Soak/stress tests — larger than the default suite, still seconds in
//! release. Run with `cargo test --release --test stress -- --ignored`.

use mdbs::prelude::*;
use mdbs::workload::generator::Workload;
use mdbs::workload::spec::WorkloadSpec;

fn big_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        sites: 8,
        global_txns: 200,
        avg_sites_per_txn: 3.0,
        ops_per_subtxn: 3,
        read_ratio: 0.6,
        items_per_site: 48,
        distribution: mdbs::workload::AccessDistribution::Zipf { theta: 0.5 },
        local_txns_per_site: 12,
        ops_per_local_txn: 3,
        seed,
    }
}

#[test]
#[ignore = "soak test; run explicitly in release"]
fn soak_every_scheme_200_txns_8_sites() {
    for scheme in SchemeKind::CONSERVATIVE {
        let cfg = SystemConfig::builder()
            .sites(3, LocalProtocolKind::TwoPhaseLocking)
            .site(LocalProtocolKind::TwoPhaseLockingWaitDie)
            .site(LocalProtocolKind::TwoPhaseLockingWoundWait)
            .site(LocalProtocolKind::TimestampOrdering)
            .site(LocalProtocolKind::SerializationGraphTesting)
            .site(LocalProtocolKind::Optimistic)
            .scheme(scheme)
            .seed(1000)
            .mpl(16)
            .build();
        let report = MdbsSystem::new(cfg).run(Workload::generate(&big_spec(1000)));
        assert!(report.is_serializable(), "{scheme}: {:?}", report.audit);
        assert!(report.ser_s_ok, "{scheme}");
        assert_eq!(
            report.metrics.global_commits + report.metrics.global_failures,
            200,
            "{scheme}"
        );
        assert!(
            report.metrics.global_commits >= 190,
            "{scheme}: most commit"
        );
    }
}

#[test]
#[ignore = "soak test; run explicitly in release"]
fn soak_replay_dominance_large() {
    use mdbs::core::replay::{replay, Script};
    let mut totals = [0u64; 4];
    for seed in 0..100 {
        let script = Script::random(40, 8, 3.0, 50_000 + seed);
        for (i, kind) in SchemeKind::CONSERVATIVE.iter().enumerate() {
            let out = replay(*kind, &script);
            assert!(out.ser_serializable, "{kind} seed {seed}");
            totals[i] += out.stats.waited_kind[1];
        }
    }
    assert!(totals[3] < totals[0] && totals[3] < totals[1] && totals[3] < totals[2]);
}

#[test]
#[ignore = "soak test; run explicitly in release"]
fn soak_2pc_crashes_and_conservation() {
    use mdbs::common::SiteId;
    use mdbs::workload::scenarios::Banking;
    const BANKS: usize = 4;
    const ACCOUNTS: u64 = 16;
    const BALANCE: i64 = 1_000;
    let scenario = Banking {
        banks: BANKS,
        accounts: ACCOUNTS,
        initial_balance: BALANCE,
    };
    for seed in 0..5u64 {
        let transfers = scenario.transfers(120, seed);
        let n = transfers.len();
        let workload = Workload {
            globals: transfers,
            locals: scenario.tellers(6, seed),
            spec: WorkloadSpec {
                sites: BANKS,
                global_txns: n,
                avg_sites_per_txn: 2.0,
                ops_per_subtxn: 1,
                read_ratio: 0.0,
                items_per_site: ACCOUNTS,
                distribution: mdbs::workload::AccessDistribution::Uniform,
                local_txns_per_site: 6,
                ops_per_local_txn: 2,
                seed,
            },
        };
        let cfg = SystemConfig::builder()
            .site(LocalProtocolKind::TwoPhaseLocking)
            .site(LocalProtocolKind::Optimistic)
            .site(LocalProtocolKind::Optimistic)
            .site(LocalProtocolKind::TimestampOrdering)
            .scheme(SchemeKind::Scheme3)
            .seed(seed)
            .mpl(10)
            .prefill(ACCOUNTS, BALANCE)
            .two_phase_commit(true)
            .crash(10_000, SiteId((seed % 4) as u32), 25_000)
            .crash(80_000, SiteId(((seed + 1) % 4) as u32), 25_000)
            .build();
        let report = MdbsSystem::new(cfg).run(workload);
        assert!(report.is_serializable(), "seed {seed}");
        let total: i128 = report.storage_totals.iter().sum();
        assert_eq!(
            total,
            i128::from(BALANCE) * i128::from(ACCOUNTS) * BANKS as i128,
            "seed {seed}"
        );
    }
}

/// Determinism is part of the contract: identical configs and seeds give
/// bit-identical reports. (Not ignored — it is quick.)
#[test]
fn determinism_across_schemes_and_seeds() {
    for scheme in SchemeKind::CONSERVATIVE {
        for seed in [1u64, 99] {
            let mk = || {
                let cfg = SystemConfig::builder()
                    .site(LocalProtocolKind::TwoPhaseLocking)
                    .site(LocalProtocolKind::TimestampOrdering)
                    .scheme(scheme)
                    .seed(seed)
                    .mpl(4)
                    .build();
                let mut spec = big_spec(seed);
                spec.sites = 2;
                spec.global_txns = 12;
                spec.avg_sites_per_txn = 2.0;
                spec.local_txns_per_site = 3;
                MdbsSystem::new(cfg).run(Workload::generate(&spec))
            };
            let (a, b) = (mk(), mk());
            assert_eq!(
                a.metrics.makespan, b.metrics.makespan,
                "{scheme} seed {seed}"
            );
            assert_eq!(a.metrics.global_commits, b.metrics.global_commits);
            assert_eq!(a.metrics.events, b.metrics.events);
            assert_eq!(a.gtm2.waited, b.gtm2.waited);
            assert_eq!(a.gtm2_steps, b.gtm2_steps);
            assert_eq!(a.storage_totals, b.storage_totals);
        }
    }
}

/// Retry exhaustion is reported honestly: with a zero retry budget and
/// brutal contention, failures appear and are counted.
#[test]
fn retry_exhaustion_reports_failures() {
    let spec = WorkloadSpec {
        sites: 2,
        global_txns: 20,
        avg_sites_per_txn: 2.0,
        ops_per_subtxn: 3,
        read_ratio: 0.0,
        items_per_site: 2, // two hot items: constant conflicts
        distribution: mdbs::workload::AccessDistribution::Uniform,
        local_txns_per_site: 6,
        ops_per_local_txn: 3,
        seed: 123,
    };
    let cfg = SystemConfig::builder()
        .site(LocalProtocolKind::TimestampOrdering)
        .site(LocalProtocolKind::TimestampOrdering)
        .scheme(SchemeKind::Scheme3)
        .seed(123)
        .mpl(10)
        .max_retries(0)
        .build();
    let report = MdbsSystem::new(cfg).run(Workload::generate(&spec));
    assert!(report.is_serializable());
    assert_eq!(
        report.metrics.global_commits + report.metrics.global_failures,
        20
    );
    assert!(
        report.metrics.global_failures > 0,
        "zero retry budget under contention must abandon someone"
    );
}

/// Live threaded runs: the coordinator scheduling for four sites on their
/// site workers must stay serializable and lose no messages. Kept small enough
/// to run in the default (non-ignored) suite; the soak variants above
/// cover scale.
#[test]
fn threaded_runtime_sweep() {
    use mdbs::sim::threaded::ThreadedMdbs;

    let spec = WorkloadSpec {
        sites: 4,
        global_txns: 16,
        avg_sites_per_txn: 2.5,
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 24,
        distribution: mdbs::workload::AccessDistribution::Uniform,
        local_txns_per_site: 0,
        ops_per_local_txn: 0,
        seed: 0,
    };
    for scheme in [SchemeKind::Scheme1, SchemeKind::Scheme3] {
        for seed in [11u64, 12, 13] {
            let programs = Workload::generate(&WorkloadSpec {
                seed,
                ..spec.clone()
            })
            .globals;
            let rt = ThreadedMdbs::new(vec![LocalProtocolKind::TwoPhaseLocking; 4], scheme, 6);
            let report = rt.run(programs);
            let label = format!("{scheme} seed={seed}");
            assert_eq!(report.commits + report.aborts, 16, "{label}");
            assert!(report.is_serializable(), "{label}: {:?}", report.audit);
            assert!(report.ser_s_ok, "{label}");
            assert_eq!(
                report.registry.counter("threaded.send_dropped"),
                0,
                "{label}: dropped sends"
            );
        }
    }
}
