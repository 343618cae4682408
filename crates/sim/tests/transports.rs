//! One driver, two transports: the same configuration — EXP-E2E(a)'s
//! federation with background local load and retries — runs on the seeded
//! event queue and on live threads, and both runs are audited.

use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_core::scheme::SchemeKind;
use mdbs_core::txn::{GlobalTransaction, Step, StepKind};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_sim::system::{LatencyConfig, MdbsSystem, RunReport, SystemConfig};
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::WorkloadSpec;

/// EXP-E2E(a): 48 globals over four strict-2PL sites, zipf(0.6) over 32
/// items per site, 6 local transactions per site.
fn e2e_a() -> Workload {
    Workload::generate(&WorkloadSpec {
        sites: 4,
        global_txns: 48,
        avg_sites_per_txn: 2.5,
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 32,
        distribution: AccessDistribution::Zipf { theta: 0.6 },
        local_txns_per_site: 6,
        ops_per_local_txn: 2,
        seed: 88,
    })
}

fn config(scheme: SchemeKind, latency: LatencyConfig) -> SystemConfig {
    SystemConfig::builder()
        .sites(4, LocalProtocolKind::TwoPhaseLocking)
        .scheme(scheme)
        .seed(88)
        .mpl(6)
        .latency(latency)
        .build()
}

fn assert_audited(report: &RunReport, label: &str) {
    assert!(report.is_serializable(), "{label}: {:?}", report.audit);
    assert!(report.ser_s_ok, "{label}: ser(S)");
}

/// Nothing about timing is asserted: the live run's outcomes depend on
/// how its messages raced.
#[test]
fn threaded_and_simulated_transports_run_one_configuration() {
    // On threads the physical hop is the delay; a short block timeout
    // keeps cross-layer stalls cheap.
    let live_latency = LatencyConfig {
        net: 0,
        proc: 0,
        block_timeout: 20_000,
        ..LatencyConfig::default()
    };
    for scheme in SchemeKind::CONSERVATIVE {
        let des = MdbsSystem::new(config(scheme, LatencyConfig::default())).run(e2e_a());
        assert_audited(&des, &format!("{scheme} DES"));

        let live = MdbsSystem::new(config(scheme, live_latency)).run_live(e2e_a());
        let label = format!("{scheme} live");
        assert_audited(&live, &label);
        let m = &live.metrics;
        assert_eq!(m.global_commits + m.global_failures, 48, "{label}: {m:?}");
        assert!(m.local_commits > 0, "{label}: {m:?}");
        let r = &live.registry;
        assert_eq!(r.counter("threaded.send_dropped"), 0, "{label}");
        assert_eq!(r.counter("sim.local_commits"), m.local_commits, "{label}");
    }
}

/// A program that fails `GlobalTransaction::validate` (a read with no
/// begin) is refused at admission and answered, so the run ends on either
/// transport with that program failed and every other one committed.
#[test]
fn threaded_and_simulated_transports_answer_a_refused_program() {
    let mut workload = Workload::uniform_smoke(2, 4);
    workload.globals.push(GlobalTransaction {
        id: GlobalTxnId(0),
        steps: vec![Step::new(SiteId(0), StepKind::Read(DataItemId(1)))],
    });
    let cfg = SystemConfig::builder()
        .sites(2, LocalProtocolKind::TwoPhaseLocking)
        .scheme(SchemeKind::Scheme1)
        .build();
    for live in [false, true] {
        let mut system = MdbsSystem::new(cfg.clone());
        let report = if live {
            system.run_live(workload.clone())
        } else {
            system.run(workload.clone())
        };
        let label = format!("live={live}");
        let m = &report.metrics;
        assert_eq!(
            (m.global_commits, m.global_failures),
            (4, 1),
            "{label}: {m:?}"
        );
        assert_eq!(report.gtm1.protocol_violations, 1, "{label}");
        assert_audited(&report, &label);
    }
}
