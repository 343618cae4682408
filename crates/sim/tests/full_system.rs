//! End-to-end simulator tests: every conservative scheme over every
//! protocol mix must complete its workload and produce a globally
//! serializable execution (EXP-GS), with local background load creating
//! the paper's indirect conflicts.

use mdbs_common::ids::SiteId;
use mdbs_common::rng::{fnv1a, FNV_OFFSET_BASIS};
use mdbs_core::scheme::SchemeKind;
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_sim::system::{MdbsSystem, SystemConfig};
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::WorkloadSpec;

fn spec(sites: usize, globals: usize, locals: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        sites,
        global_txns: globals,
        avg_sites_per_txn: 2.0_f64.min(sites as f64),
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 16,
        distribution: AccessDistribution::Uniform,
        local_txns_per_site: locals,
        ops_per_local_txn: 2,
        seed,
    }
}

fn run(
    protocols: &[LocalProtocolKind],
    scheme: SchemeKind,
    seed: u64,
    globals: usize,
    locals: usize,
) -> mdbs_sim::RunReport {
    let mut builder = SystemConfig::builder().scheme(scheme).seed(seed).mpl(6);
    for &p in protocols {
        builder = builder.site(p);
    }
    let cfg = builder.build();
    let workload = Workload::generate(&spec(protocols.len(), globals, locals, seed));
    MdbsSystem::new(cfg).run(workload)
}

#[test]
fn homogeneous_2pl_all_schemes_serializable() {
    for scheme in SchemeKind::CONSERVATIVE {
        let r = run(&[LocalProtocolKind::TwoPhaseLocking; 3], scheme, 11, 20, 4);
        assert!(r.is_serializable(), "{scheme}: {:?}", r.audit);
        assert!(r.ser_s_ok, "{scheme}: ser(S) must be serializable");
        assert_eq!(r.metrics.global_commits, 20, "{scheme}");
        assert_eq!(r.metrics.global_failures, 0, "{scheme}");
    }
}

#[test]
fn heterogeneous_mix_all_schemes_serializable() {
    let mix = [
        LocalProtocolKind::TwoPhaseLocking,
        LocalProtocolKind::TimestampOrdering,
        LocalProtocolKind::SerializationGraphTesting,
        LocalProtocolKind::Optimistic,
    ];
    for scheme in SchemeKind::CONSERVATIVE {
        let r = run(&mix, scheme, 23, 16, 3);
        assert!(r.is_serializable(), "{scheme}: {:?}", r.audit);
        assert!(r.ser_s_ok, "{scheme}");
        assert_eq!(
            r.metrics.global_commits + r.metrics.global_failures,
            16,
            "{scheme}: all programs accounted"
        );
        assert!(
            r.metrics.global_commits >= 12,
            "{scheme}: most should commit"
        );
    }
}

#[test]
fn many_seeds_scheme3_audited() {
    for seed in 0..8 {
        let r = run(
            &[
                LocalProtocolKind::TwoPhaseLocking,
                LocalProtocolKind::TimestampOrdering,
                LocalProtocolKind::Optimistic,
            ],
            SchemeKind::Scheme3,
            seed,
            15,
            4,
        );
        assert!(r.is_serializable(), "seed {seed}: {:?}", r.audit);
        assert!(r.ser_s_ok, "seed {seed}");
    }
}

#[test]
fn sgt_sites_use_tickets_and_serialize() {
    for scheme in SchemeKind::CONSERVATIVE {
        let r = run(
            &[LocalProtocolKind::SerializationGraphTesting; 2],
            scheme,
            31,
            12,
            3,
        );
        assert!(r.is_serializable(), "{scheme}: {:?}", r.audit);
        // Ticket writes show up as engine activity on item 0; check the
        // recorded histories mention the ticket at each SGT site.
        assert!(r.metrics.global_commits >= 10, "{scheme}");
    }
}

#[test]
fn prevention_2pl_variants_serializable() {
    let mix = [
        LocalProtocolKind::TwoPhaseLockingWaitDie,
        LocalProtocolKind::TwoPhaseLockingWoundWait,
        LocalProtocolKind::TwoPhaseLocking,
    ];
    for scheme in SchemeKind::CONSERVATIVE {
        let r = run(&mix, scheme, 53, 16, 4);
        assert!(r.is_serializable(), "{scheme}: {:?}", r.audit);
        assert!(r.ser_s_ok, "{scheme}");
        assert_eq!(
            r.metrics.global_commits + r.metrics.global_failures,
            16,
            "{scheme}"
        );
    }
}

#[test]
fn scheme2_minimal_full_system() {
    let mix = [
        LocalProtocolKind::TwoPhaseLocking,
        LocalProtocolKind::TimestampOrdering,
    ];
    let r = run(&mix, SchemeKind::Scheme2Minimal, 61, 12, 3);
    assert!(r.is_serializable(), "{:?}", r.audit);
    assert!(r.ser_s_ok);
}

#[test]
fn local_only_load_trivially_serializable() {
    let mut builder = SystemConfig::builder().scheme(SchemeKind::Scheme0).seed(5);
    builder = builder.site(LocalProtocolKind::TwoPhaseLocking);
    let cfg = builder.build();
    let workload = Workload::generate(&spec(1, 0, 10, 5));
    let r = MdbsSystem::new(cfg).run(workload);
    assert!(r.is_serializable());
    assert_eq!(r.metrics.global_commits, 0);
    assert!(r.metrics.local_commits > 0);
}

#[test]
fn conservative_schemes_never_scheme_abort() {
    for scheme in SchemeKind::CONSERVATIVE {
        let r = run(
            &[
                LocalProtocolKind::TwoPhaseLocking,
                LocalProtocolKind::TimestampOrdering,
            ],
            scheme,
            41,
            12,
            2,
        );
        assert_eq!(r.gtm2.scheme_aborts, 0, "{scheme}");
    }
}

#[test]
fn deterministic_given_seed() {
    let a = run(
        &[LocalProtocolKind::TwoPhaseLocking; 2],
        SchemeKind::Scheme1,
        77,
        10,
        2,
    );
    let b = run(
        &[LocalProtocolKind::TwoPhaseLocking; 2],
        SchemeKind::Scheme1,
        77,
        10,
        2,
    );
    assert_eq!(a.metrics.global_commits, b.metrics.global_commits);
    assert_eq!(a.metrics.makespan, b.metrics.makespan);
    assert_eq!(a.gtm2.waited, b.gtm2.waited);
    assert_eq!(a.storage_totals, b.storage_totals);
}

#[test]
fn contention_still_terminates_and_serializes() {
    // One hot item per site: heavy conflicts, retries, timeouts.
    let spec = WorkloadSpec {
        sites: 2,
        global_txns: 12,
        avg_sites_per_txn: 2.0,
        ops_per_subtxn: 2,
        read_ratio: 0.2,
        items_per_site: 2,
        distribution: AccessDistribution::Uniform,
        local_txns_per_site: 4,
        ops_per_local_txn: 2,
        seed: 99,
    };
    for scheme in SchemeKind::CONSERVATIVE {
        let cfg = SystemConfig::builder()
            .site(LocalProtocolKind::TwoPhaseLocking)
            .site(LocalProtocolKind::TimestampOrdering)
            .scheme(scheme)
            .seed(99)
            .mpl(6)
            .build();
        let r = MdbsSystem::new(cfg).run(Workload::generate(&spec));
        assert!(r.is_serializable(), "{scheme}: {:?}", r.audit);
    }
}

/// A baseline scheme would abort global transactions mid-run; the
/// simulator refuses it up front instead.
#[test]
#[should_panic(expected = "Optimistic-Ticket is not conservative")]
fn non_conservative_scheme_is_refused() {
    let cfg = SystemConfig::builder()
        .sites(3, LocalProtocolKind::TwoPhaseLocking)
        .scheme(SchemeKind::OptimisticTicket)
        .build();
    MdbsSystem::new(cfg);
}

/// An override naming a site the config has no protocol for is refused up
/// front: GTM1 would admit programs there and command a missing server.
#[test]
#[should_panic(expected = "serialization-event override names site s2, but only 2 sites")]
fn override_for_an_unconfigured_site_is_refused() {
    let cfg = SystemConfig::builder()
        .sites(2, LocalProtocolKind::TwoPhaseLocking)
        .override_serialization_event(SiteId(2), SerializationEvent::Commit)
        .build();
    MdbsSystem::new(cfg);
}

/// A crash scheduled at a site the config has no protocol for is refused
/// up front, not when it fires.
#[test]
#[should_panic(expected = "crash names site s5, but only 2 sites")]
fn crash_at_an_unconfigured_site_is_refused() {
    let cfg = SystemConfig::builder()
        .sites(2, LocalProtocolKind::TwoPhaseLocking)
        .crash(0, SiteId(5), 1000)
        .build();
    MdbsSystem::new(cfg);
}

/// A program naming a site the system was not configured with fails at
/// admission: GTM1 refuses it, counts a protocol violation and answers
/// with a `Refused` completion, which the driver does not retry. Every
/// other program still finishes.
#[test]
fn program_naming_an_unconfigured_site_fails_at_admission() {
    let cfg = SystemConfig::builder()
        .sites(2, LocalProtocolKind::TwoPhaseLocking)
        .scheme(SchemeKind::Scheme0)
        .mpl(4)
        .build();
    let workload = Workload::generate(&spec(3, 12, 0, 5));
    let foreign = workload
        .globals
        .iter()
        .filter(|gt| gt.sites().iter().any(|s| s.index() >= 2))
        .count() as u64;
    assert!(0 < foreign && foreign < 12, "{foreign} of 12 name site 2");
    let r = MdbsSystem::new(cfg).run(workload);
    assert_eq!(r.metrics.global_failures, foreign, "{:?}", r.metrics);
    assert_eq!(r.metrics.global_commits, 12 - foreign, "{:?}", r.metrics);
    assert_eq!(r.gtm1.submitted, 12 - foreign);
    assert_eq!(r.registry.counter("gtm1.submitted"), 12 - foreign);
    assert_eq!(r.gtm1.protocol_violations, foreign);
    assert!(r.is_serializable(), "{:?}", r.audit);
}

#[test]
fn trace_records_run_lifecycle() {
    let cfg = SystemConfig::builder()
        .site(LocalProtocolKind::TwoPhaseLocking)
        .site(LocalProtocolKind::TimestampOrdering)
        .scheme(SchemeKind::Scheme1)
        .seed(21)
        .mpl(4)
        .build();
    let mut system = MdbsSystem::new(cfg);
    system.enable_trace();
    let report = system.run(Workload::generate(&spec(2, 8, 2, 21)));
    assert!(report.is_serializable());
    let trace = system.take_trace().expect("tracing enabled");
    use mdbs_common::instrument::SchedEvent;
    use mdbs_common::ops::QueueOpKind::Ser;
    let count = |pred: fn(&SchedEvent) -> bool| trace.iter().filter(|e| pred(&e.event)).count();
    let submitted = count(|e| matches!(e, SchedEvent::Submitted { .. }));
    let completed = count(|e| matches!(e, SchedEvent::Completed { .. }));
    // GTM2 acts each ser once, from QUEUE or woken from WAIT.
    let scheduled = count(|e| {
        matches!(
            e,
            SchedEvent::Act { kind: Ser, .. } | SchedEvent::Wake { kind: Ser, .. }
        )
    });
    assert!(submitted >= 8, "every program submitted at least once");
    assert_eq!(submitted, completed, "every attempt completes");
    assert!(scheduled >= submitted, "one ser event per site per attempt");
    // Timestamps are monotone.
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
}

/// The trace of one seeded DES run, pinned: heterogeneous sites, local
/// load, a crash and short block timeouts, so every event variant shows
/// up under every scheme. Each entry is rendered as `at` and the event's
/// `Debug` form (variant name, then its fields in order), and the
/// renderings are hashed in order, so the digest moves if any event is
/// lost, gained, restamped or reordered. A change meant to keep the trace
/// must leave these constants alone.
#[test]
fn trace_pin_every_variant_all_schemes() {
    use mdbs_sim::system::LatencyConfig;
    use std::collections::BTreeMap;
    const NAMES: [&str; 10] = [
        "Abort",
        "Act",
        "Completed",
        "Cond",
        "Crash",
        "Enqueue",
        "Submitted",
        "Timeout",
        "Wait",
        "Wake",
    ];
    const COUNTS: [[usize; 10]; 4] = [
        [28, 347, 68, 469, 1, 408, 68, 13, 61, 61],
        [26, 327, 66, 480, 1, 396, 66, 9, 69, 69],
        [21, 304, 61, 479, 1, 366, 61, 8, 62, 62],
        [16, 286, 56, 386, 1, 336, 56, 5, 50, 50],
    ];
    const DIGESTS: [u64; 4] = [
        855_117_197_699_427_492,
        11_493_654_845_480_015_789,
        12_164_882_621_118_058_227,
        10_226_920_038_860_355_507,
    ];
    let spec = WorkloadSpec {
        sites: 4,
        global_txns: 40,
        avg_sites_per_txn: 2.0,
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 32,
        distribution: AccessDistribution::Hotspot {
            hot_frac: 0.1,
            hot_prob: 0.8,
        },
        local_txns_per_site: 6,
        ops_per_local_txn: 3,
        seed: 5,
    };
    let latency = LatencyConfig {
        block_timeout: 4_000,
        ..LatencyConfig::default()
    };
    for (i, scheme) in SchemeKind::CONSERVATIVE.into_iter().enumerate() {
        let mut builder = SystemConfig::builder()
            .scheme(scheme)
            .seed(5)
            .mpl(8)
            .latency(latency)
            .crash(20_000, SiteId(1), 10_000);
        for p in [
            LocalProtocolKind::TwoPhaseLocking,
            LocalProtocolKind::TimestampOrdering,
            LocalProtocolKind::SerializationGraphTesting,
            LocalProtocolKind::Optimistic,
        ] {
            builder = builder.site(p);
        }
        let mut system = MdbsSystem::new(builder.build());
        system.enable_trace();
        system.run(Workload::generate(&spec));
        let trace = system.take_trace().expect("tracing enabled");
        let mut counts = BTreeMap::new();
        let mut digest = FNV_OFFSET_BASIS;
        for traced in &trace {
            let row = format!("{} {:?}", traced.at, traced.event);
            let name = row.split(' ').nth(1).expect("a variant name");
            *counts.entry(name.to_string()).or_insert(0) += 1;
            digest = fnv1a(fnv1a(digest, row.as_bytes()), b"\n");
        }
        let expected = NAMES.iter().map(|n| n.to_string()).zip(COUNTS[i]);
        assert_eq!(counts, expected.collect(), "{scheme}: events per variant");
        assert_eq!(digest, DIGESTS[i], "{scheme}: trace digest");
    }
}

/// The makespan ends with the last finished program, not with the timers
/// still queued behind it: a block that resolved leaves its timeout in
/// the queue, and that no-op must not stretch the run by the timeout.
/// Here seven blocks resolve and none times out, so the run is the same
/// at either timeout.
#[test]
fn makespan_ignores_stale_block_timeouts() {
    use mdbs_sim::system::LatencyConfig;
    let spec = WorkloadSpec {
        items_per_site: 24,
        ..spec(3, 40, 0, 1)
    };
    let run = |block_timeout| {
        let cfg = SystemConfig::builder()
            .sites(3, LocalProtocolKind::TwoPhaseLocking)
            .scheme(SchemeKind::Scheme1)
            .seed(1)
            .mpl(4)
            .latency(LatencyConfig {
                block_timeout,
                ..LatencyConfig::default()
            })
            .build();
        MdbsSystem::new(cfg).run(Workload::generate(&spec))
    };
    let (short, long) = (run(60_000), run(600_000));
    let blocked = |r: &mdbs_sim::RunReport| r.site_stats.iter().map(|s| s.2.blocked).sum::<u64>();
    assert_eq!((blocked(&short), short.metrics.timeouts), (7, 0));
    assert_eq!((blocked(&long), long.metrics.timeouts), (7, 0));
    assert_eq!(short.metrics.global_commits, 40);
    assert_eq!(short.metrics.makespan, long.metrics.makespan);
    assert!(short.metrics.makespan < 60_000, "{:?}", short.metrics);
}

#[test]
fn latency_scales_makespan() {
    use mdbs_sim::system::LatencyConfig;
    let run_with_net = |net: u64| {
        let cfg = SystemConfig::builder()
            .site(LocalProtocolKind::TwoPhaseLocking)
            .site(LocalProtocolKind::TwoPhaseLocking)
            .scheme(SchemeKind::Scheme3)
            .seed(8)
            .mpl(4)
            .latency(LatencyConfig {
                net,
                ..LatencyConfig::default()
            })
            .build();
        MdbsSystem::new(cfg).run(Workload::generate(&spec(2, 10, 0, 8)))
    };
    let fast = run_with_net(100);
    let slow = run_with_net(2_000);
    assert!(fast.is_serializable() && slow.is_serializable());
    assert!(
        slow.metrics.makespan > fast.metrics.makespan * 2,
        "20x network latency must dominate the makespan: {} vs {}",
        slow.metrics.makespan,
        fast.metrics.makespan
    );
}

#[test]
fn mpl_one_serial_execution_baseline() {
    // At multiprogramming level 1 there is no concurrency to manage: no
    // GTM2 ser-waits, no aborts, pure latency-bound execution.
    for scheme in SchemeKind::CONSERVATIVE {
        let cfg = SystemConfig::builder()
            .site(LocalProtocolKind::TwoPhaseLocking)
            .site(LocalProtocolKind::TimestampOrdering)
            .scheme(scheme)
            .seed(4)
            .mpl(1)
            .build();
        let r = MdbsSystem::new(cfg).run(Workload::generate(&spec(2, 8, 0, 4)));
        assert!(r.is_serializable(), "{scheme}");
        assert_eq!(r.metrics.global_commits, 8, "{scheme}");
        assert_eq!(r.metrics.global_aborts, 0, "{scheme}");
        assert_eq!(
            r.gtm2.waited_kind[1], 0,
            "{scheme}: nothing to wait for at mpl=1"
        );
    }
}

/// Section 2.2 made executable: tickets are what make SGT sites safe, and
/// a ticket is also a *valid alternative* serialization function at TO
/// sites (the paper's footnote 3: several functions can be valid).
#[test]
fn serialization_event_overrides() {
    use mdbs_schedule::{all_pairs_serialization_graph, GlobalSerializability};
    // Valid override: tickets at TO sites.
    let cfg = SystemConfig::builder()
        .site(LocalProtocolKind::TimestampOrdering)
        .site(LocalProtocolKind::TimestampOrdering)
        .scheme(SchemeKind::Scheme3)
        .seed(2)
        .mpl(5)
        .override_serialization_event(SiteId(0), SerializationEvent::TicketWrite)
        .override_serialization_event(SiteId(1), SerializationEvent::TicketWrite)
        .build();
    let r = MdbsSystem::new(cfg).run(Workload::generate(&spec(2, 12, 3, 2)));
    assert!(r.is_serializable(), "{:?}", r.audit);

    // Invalid override: begin-event at SGT sites must eventually violate
    // global serializability (scan seeds for a witness).
    let mut violated = false;
    for seed in 0..20 {
        let cfg = SystemConfig::builder()
            .site(LocalProtocolKind::SerializationGraphTesting)
            .site(LocalProtocolKind::SerializationGraphTesting)
            .scheme(SchemeKind::Scheme3)
            .seed(2000 + seed)
            .mpl(6)
            .override_serialization_event(SiteId(0), SerializationEvent::Begin)
            .override_serialization_event(SiteId(1), SerializationEvent::Begin)
            .build();
        let mut s = spec(2, 14, 3, 2000 + seed);
        s.items_per_site = 10;
        s.read_ratio = 0.4;
        let mut system = MdbsSystem::new(cfg);
        let r = system.run(Workload::generate(&s));
        if let GlobalSerializability::NotSerializable { cycle, sites } = &r.audit {
            // The audit's failing path names real witnesses: each step of
            // the cycle is a conflict (by the all-pairs oracle) at some
            // site, and only such sites are blamed.
            let oracles = [SiteId(0), SiteId(1)].map(|site| {
                let history = system.site(site).history();
                (site, all_pairs_serialization_graph(history))
            });
            let mut inducing = Vec::new();
            for (i, &a) in cycle.iter().enumerate() {
                let b = cycle[(i + 1) % cycle.len()];
                let before = inducing.len();
                inducing.extend(
                    oracles
                        .iter()
                        .filter(|(_, conflicts)| conflicts.has_edge(a, b))
                        .map(|&(site, _)| site),
                );
                assert!(
                    inducing.len() > before,
                    "{a:?} -> {b:?} conflicts at no site"
                );
            }
            assert!(!sites.is_empty());
            assert!(
                sites.iter().all(|site| inducing.contains(site)),
                "{sites:?}"
            );
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "an invalid serialization function must break Theorem 1's premise"
    );
}

/// Fold the `Debug` rendering of `value` into the FNV-1a digest `h`.
fn digest_of(h: &mut u64, value: &dyn std::fmt::Debug) {
    *h = fnv1a(*h, format!("{value:?}").as_bytes());
}

/// Golden decision digest: heterogeneous sites, hot items, local
/// transactions — the `des_contended` shape at test size. Every grant,
/// block, abort, wake and deadlock victim of the four local protocols
/// shows up in a site history, the event count or the engine counters, so
/// a change to `crates/localdb` that is meant to keep every decision must
/// leave these constants alone.
#[test]
fn golden_decision_digest_hot_heterogeneous_sites() {
    const GOLDEN: [u64; 4] = [
        13_456_166_051_020_773_589,
        13_456_166_051_020_773_589,
        15_865_838_994_775_190_009,
        4_143_170_071_851_687_417,
    ];
    let mix = [
        LocalProtocolKind::TwoPhaseLocking,
        LocalProtocolKind::TimestampOrdering,
        LocalProtocolKind::SerializationGraphTesting,
        LocalProtocolKind::Optimistic,
    ];
    let spec = WorkloadSpec {
        sites: 4,
        global_txns: 150,
        avg_sites_per_txn: 2.0,
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 64,
        distribution: AccessDistribution::Hotspot {
            hot_frac: 0.05,
            hot_prob: 0.8,
        },
        local_txns_per_site: 40,
        ops_per_local_txn: 3,
        seed: 7,
    };
    // Tracing only records: the traced runs must decide the same.
    for traced in [false, true] {
        let mut digests = [0u64; 4];
        // Deadlock victims at the 2PL site and at the SGT site.
        let mut victims = [0u64; 2];
        for (digest, scheme) in digests.iter_mut().zip(SchemeKind::CONSERVATIVE) {
            let mut builder = SystemConfig::builder().scheme(scheme).seed(7).mpl(16);
            for p in mix {
                builder = builder.site(p);
            }
            let mut system = MdbsSystem::new(builder.build());
            if traced {
                system.enable_trace();
            }
            let r = system.run(Workload::generate(&spec));
            assert!(r.is_serializable(), "{scheme}: {:?}", r.audit);
            assert_eq!(system.take_trace().is_some(), traced);
            *digest = FNV_OFFSET_BASIS;
            for (site, _, _) in &r.site_stats {
                digest_of(digest, system.site(*site).history());
            }
            victims[0] += r.site_stats[0].2.deadlock_victims;
            victims[1] += r.site_stats[2].2.deadlock_victims;
            digest_of(digest, &r.metrics.events);
            digest_of(digest, &r.site_stats);
        }
        assert!(
            victims.iter().all(|&v| v > 0),
            "the workload must reach both deadlock detectors: {victims:?}"
        );
        assert_eq!(
            digests, GOLDEN,
            "traced={traced}: local protocol decisions changed"
        );
    }
}
