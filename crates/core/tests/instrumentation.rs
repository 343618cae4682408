//! Instrumentation-layer integration tests: sink toggling mid-run, sink
//! timestamps, and the guarantee that attaching a sink never changes
//! scheduling behavior.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{SchedEvent, SharedSink};
use mdbs_common::ops::QueueOp;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay_with, Script};
use mdbs_core::scheme::SchemeKind;
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
