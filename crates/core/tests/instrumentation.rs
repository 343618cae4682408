//! Instrumentation-layer integration tests: structured protocol-violation
//! effects, the GTM2 active-count clamp, sink toggling mid-run, and the
//! guarantee that attaching a sink never changes scheduling behavior.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, SchedEvent, SharedSink};
use mdbs_common::ops::QueueOp;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay_with, Script};
use mdbs_core::scheme::{ProtocolViolationKind, SchemeEffect, SchemeKind};
use mdbs_core::scheme0::Scheme0;

fn g(i: u64) -> GlobalTxnId {
    GlobalTxnId(i)
}
fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn scheme0() -> Gtm2 {
    Gtm2::new(Box::new(Scheme0::new()))
}

// ---------------------------------------------------------------------
// Scheme 0 ack hardening: malformed acks surface as structured
// ProtocolViolation effects instead of panicking the scheduler.
// ---------------------------------------------------------------------

#[test]
fn scheme0_ack_for_unknown_site_is_violation() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Ack {
        txn: g(1),
        site: s(7),
    });
    let fx = e.pump();
    assert_eq!(
        fx,
        vec![SchemeEffect::ProtocolViolation {
            txn: g(1),
            site: Some(s(7)),
            kind: ProtocolViolationKind::UnknownSite,
        }]
    );
    assert_eq!(e.stats().protocol_violations, 1);
}

#[test]
fn scheme0_out_of_order_ack_still_forwards() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.enqueue(QueueOp::Init {
        txn: g(2),
        sites: vec![s(0)],
    });
    e.pump();
    // G2 is queued behind G1 but its ack arrives first (a server bug):
    // the scheduler notes the violation, removes exactly G2, and still
    // forwards the ack because the local DBMS genuinely executed it.
    e.enqueue(QueueOp::Ack {
        txn: g(2),
        site: s(0),
    });
    let fx = e.pump();
    assert!(fx.contains(&SchemeEffect::ProtocolViolation {
        txn: g(2),
        site: Some(s(0)),
        kind: ProtocolViolationKind::AckOutOfOrder,
    }));
    assert!(fx.contains(&SchemeEffect::ForwardAck {
        txn: g(2),
        site: s(0),
    }));
    assert_eq!(e.stats().protocol_violations, 1);
    // G1 keeps its queue position: its ser op is still eligible.
    e.enqueue(QueueOp::Ser {
        txn: g(1),
        site: s(0),
    });
    let fx = e.pump();
    assert!(fx.contains(&SchemeEffect::SubmitSer {
        txn: g(1),
        site: s(0),
    }));
}

#[test]
fn scheme0_ack_never_queued_is_violation_without_forward() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    e.enqueue(QueueOp::Ack {
        txn: g(9),
        site: s(0),
    });
    let fx = e.pump();
    assert_eq!(
        fx,
        vec![SchemeEffect::ProtocolViolation {
            txn: g(9),
            site: Some(s(0)),
            kind: ProtocolViolationKind::AckNotQueued,
        }]
    );
}

// ---------------------------------------------------------------------
// GTM2 active-count clamp: a fin without a matching init must not
// underflow; it is counted as a protocol violation instead.
// ---------------------------------------------------------------------

#[test]
fn gtm2_fin_without_init_clamps_active_count() {
    let mut e = scheme0();
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    let stats = e.stats();
    assert_eq!(stats.protocol_violations, 1);
    // A normal init/fin cycle afterwards still balances.
    e.enqueue(QueueOp::Init {
        txn: g(2),
        sites: vec![s(0)],
    });
    e.enqueue(QueueOp::Fin { txn: g(2) });
    e.pump();
    let stats = e.stats();
    assert_eq!(stats.protocol_violations, 1);
    assert_eq!(stats.fins, 2);

    let mut registry = Registry::default();
    e.export_metrics(&mut registry);
    assert_eq!(registry.counter("gtm2.protocol_violations"), 1);
    assert_eq!(registry.counter("gtm2.fins"), 2);
}

// ---------------------------------------------------------------------
// Sink lifecycle: toggling mid-run only affects what is recorded, never
// what is scheduled.
// ---------------------------------------------------------------------

#[test]
fn sink_toggling_mid_run_records_only_while_attached() {
    let sink = SharedSink::new();
    let mut e = scheme0();

    // Phase 1: no sink — nothing recorded.
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    assert!(sink.is_empty());

    // Phase 2: sink attached — events flow.
    e.set_sink(Some(Box::new(sink.clone())));
    e.enqueue(QueueOp::Ser {
        txn: g(1),
        site: s(0),
    });
    e.pump();
    let recorded_attached = sink.drain();
    assert!(
        recorded_attached
            .iter()
            .any(|ev| matches!(ev.event, SchedEvent::Enqueue { .. })),
        "expected an enqueue event, got {recorded_attached:?}"
    );
    assert!(recorded_attached
        .iter()
        .any(|ev| matches!(ev.event, SchedEvent::Act { .. })));

    // Phase 3: sink detached again — scheduling continues, recording stops.
    e.set_sink(None);
    e.enqueue(QueueOp::Ack {
        txn: g(1),
        site: s(0),
    });
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    assert!(sink.is_empty());
    let stats = e.stats();
    assert_eq!(stats.fins, 1);
    assert_eq!(stats.protocol_violations, 0);
}

#[test]
fn sink_events_carry_the_engine_clock() {
    let sink = SharedSink::new();
    let mut e = scheme0();
    e.set_sink(Some(Box::new(sink.clone())));
    e.set_now(42);
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    e.set_now(99);
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    let events = sink.drain();
    assert!(events.iter().any(|ev| ev.at == 42));
    assert!(events.iter().any(|ev| ev.at == 99));
    assert!(events.iter().all(|ev| ev.at == 42 || ev.at == 99));
}

// ---------------------------------------------------------------------
// Observation is free of side effects: for every conservative scheme and
// a spread of random scripts, a run with a sink attached produces the
// identical schedule (stats, step counts, completions) as one without.
// ---------------------------------------------------------------------

#[test]
fn sinks_do_not_change_scheduling() {
    for kind in SchemeKind::CONSERVATIVE {
        for seed in 0..8u64 {
            let script = Script::random(24, 5, 2.5, seed);

            let plain = replay_with(&mut Gtm2::new(kind.build()), &script);

            let sink = SharedSink::new();
            let mut observed_engine = Gtm2::new(kind.build());
            observed_engine.set_sink(Some(Box::new(sink.clone())));
            let observed = replay_with(&mut observed_engine, &script);

            assert_eq!(
                plain.stats, observed.stats,
                "{kind:?} seed {seed}: stats diverged with a sink attached"
            );
            assert_eq!(
                plain.steps, observed.steps,
                "{kind:?} seed {seed}: step counts diverged with a sink attached"
            );
            assert_eq!(plain.completed, observed.completed);
            assert_eq!(plain.ser_serializable, observed.ser_serializable);
            // And the observation itself is non-trivial.
            assert!(!sink.is_empty(), "{kind:?} seed {seed}: no events recorded");
        }
    }
}
