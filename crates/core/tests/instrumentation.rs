//! Instrumentation-layer integration tests: tracing toggled mid-run, the
//! coordinator's timestamps, and the guarantee that tracing never changes
//! scheduling behavior.

use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_common::instrument::{SchedEvent, TracedEvent};
use mdbs_common::ops::QueueOp;
use mdbs_core::coordinator::{Arrival, Coordinator};
use mdbs_core::gtm1::{Gtm1, Gtm1Event};
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay_with, Script};
use mdbs_core::scheme::SchemeKind;
use mdbs_core::scheme0::Scheme0;
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::serfn::SerializationEvent;

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
// Tracing lifecycle: toggling mid-run only affects what is recorded,
// never what is scheduled.
// ---------------------------------------------------------------------

#[test]
fn tracing_toggled_mid_run_records_only_while_on() {
    let mut e = scheme0();

    // Phase 1: tracing off — nothing recorded.
    e.enqueue(QueueOp::Init {
        txn: g(1),
        sites: vec![s(0)],
    });
    e.pump();
    assert_eq!(e.drain_events().count(), 0);

    // Phase 2: tracing on — events flow.
    e.set_tracing(true);
    e.enqueue(QueueOp::Ser {
        txn: g(1),
        site: s(0),
    });
    e.pump();
    let recorded_attached: Vec<SchedEvent> = e.drain_events().collect();
    assert!(
        recorded_attached
            .iter()
            .any(|ev| matches!(ev, SchedEvent::Enqueue { .. })),
        "expected an enqueue event, got {recorded_attached:?}"
    );
    assert!(recorded_attached
        .iter()
        .any(|ev| matches!(ev, SchedEvent::Act { .. })));

    // Phase 3: tracing off again — scheduling continues, recording stops.
    e.set_tracing(false);
    e.enqueue(QueueOp::Ack {
        txn: g(1),
        site: s(0),
    });
    e.enqueue(QueueOp::Fin { txn: g(1) });
    e.pump();
    assert_eq!(e.drain_events().count(), 0);
    let stats = e.stats();
    assert_eq!(stats.fins, 1);
    assert_eq!(stats.protocol_violations, 0);
}

/// The coordinator stamps what both GTMs trace with the time of the
/// `handle` call that caused it: a two-site journey, one arrival per
/// instant, where every event a call traced carries that call's `at`;
/// then a second transaction fails at its site, and GTM1's abort is
/// stamped like GTM2's events.
#[test]
fn coordinator_stamps_every_event_with_its_handle_time() {
    let events = [
        (s(0), SerializationEvent::Commit),
        (s(1), SerializationEvent::Begin),
    ];
    let gtm1 = Gtm1::new(events.into_iter().collect());
    let mut c = Coordinator::new(gtm1, Gtm2::new(SchemeKind::Scheme1.build()));
    c.set_tracing(true);
    let program = GlobalTransaction::builder(g(1))
        .read(s(0), DataItemId(1))
        .write(s(1), DataItemId(2), 5)
        .build()
        .expect("valid program");
    let failing = GlobalTransaction::builder(g(2))
        .write(s(0), DataItemId(3), 1)
        .build()
        .expect("valid program");
    let failed = Arrival::Gtm1(Gtm1Event::ServerFailed {
        txn: g(2),
        site: s(0),
        reason: mdbs_common::error::AbortReason::Deadlock,
    });
    let done = |site| Arrival::Gtm1(Gtm1Event::ServerDone { txn: g(1), site });
    let ack = |site| Arrival::Ack { txn: g(1), site };
    // Whether the call traces: the reply to `begin` only moves GTM1 on
    // (GTM1 traces aborts alone), and a second ack is refused at the door.
    let journey = [
        (10, Arrival::Gtm1(Gtm1Event::Submit(program)), true),
        (20, done(s(0)), false),
        (30, done(s(0)), true),
        (40, ack(s(1)), true),
        (50, done(s(1)), true),
        (60, ack(s(0)), true),
        (70, done(s(1)), true),
        (80, ack(s(0)), false),
        (90, Arrival::Gtm1(Gtm1Event::Submit(failing)), true),
        (100, failed, true),
    ];
    let mut out = Vec::new();
    let mut aborts = Vec::new();
    for (at, arrival, traces) in journey {
        c.handle(at, arrival, &mut out);
        let traced: Vec<_> = c.drain_trace().collect();
        assert_eq!(!traced.is_empty(), traces, "at {at}: {traced:?}");
        assert!(traced.iter().all(|ev| ev.at == at), "at {at}: {traced:?}");
        let abort = |ev: &&TracedEvent| matches!(ev.event, SchedEvent::Abort { .. });
        aborts.extend(traced.iter().filter(abort).map(|ev| ev.at));
    }
    assert_eq!(aborts, [100]);
    assert_eq!(c.gtm2().stats().fins, 1);
    assert_eq!(c.gtm1().stats().protocol_violations, 1);
    c.set_tracing(false);
    assert_eq!(c.drain_trace().count(), 0);
}

// ---------------------------------------------------------------------
// Observation is free of side effects: for every conservative scheme and
// a spread of random scripts, a traced run produces the identical
// schedule (stats, step counts, completions) as one without.
// ---------------------------------------------------------------------

#[test]
fn tracing_does_not_change_scheduling() {
    for kind in SchemeKind::CONSERVATIVE {
        for seed in 0..8u64 {
            let script = Script::random(24, 5, 2.5, seed);

            let plain = replay_with(&mut Gtm2::new(kind.build()), &script);

            let mut observed_engine = Gtm2::new(kind.build());
            observed_engine.set_tracing(true);
            let observed = replay_with(&mut observed_engine, &script);

            assert_eq!(
                plain.stats, observed.stats,
                "{kind:?} seed {seed}: stats diverged with tracing on"
            );
            assert_eq!(
                plain.steps, observed.steps,
                "{kind:?} seed {seed}: step counts diverged with tracing on"
            );
            assert_eq!(plain.completed, observed.completed);
            assert_eq!(plain.ser_serializable, observed.ser_serializable);
            // And the observation itself is non-trivial.
            assert!(
                observed_engine.drain_events().count() > 0,
                "{kind:?} seed {seed}: no events recorded"
            );
        }
    }
}
