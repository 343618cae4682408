//! GTM1 is the GTM's one door for malformed input.
//!
//! A two-transaction, two-site journey runs through a [`Coordinator`]
//! cleanly, once per conservative scheme and kernel (the dense kernel that
//! runs, and for Schemes 1–3 the paper-text oracle). Then it runs again
//! with one malformed arrival injected before each arrival of the clean
//! run where that kind of input applies. Each malformed arrival must be
//! refused where it arrives: it counts once in `gtm1.protocol_violations`,
//! never reaches GTM2 (whose `protocol_violations` stays 0), and leaves the
//! outbound messages, GTM2's counters and steps and `ser(S)` exactly as in
//! the clean run. It sends nothing out, except that a refused program with
//! a fresh id is answered with one `Completed` aborted as `Refused`, so
//! whoever submitted it is not left waiting.

use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_common::step::StepCounter;
use mdbs_core::coordinator::{Arrival, Coordinator, Outbound};
use mdbs_core::gtm1::{Gtm1, Gtm1Event, Gtm1Stats, ServerCommand};
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::reference;
use mdbs_core::scheme::SchemeKind;
use mdbs_core::txn::{GlobalTransaction, Step, StepKind};
use mdbs_localdb::serfn::SerializationEvent;
use std::collections::VecDeque;

const G1: GlobalTxnId = GlobalTxnId(1);
const G2: GlobalTxnId = GlobalTxnId(2);
/// A commit-event site and a begin-event site, both used by both
/// transactions.
const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
/// Configured, but announced by neither transaction.
const S2: SiteId = SiteId(2);
/// Not configured.
const S9: SiteId = SiteId(9);

/// A coordinator over `scheme`'s realization named `kernel`.
fn coordinator(scheme: SchemeKind, kernel: &str) -> Coordinator {
    let events = [
        (S0, SerializationEvent::Commit),
        (S1, SerializationEvent::Begin),
        (S2, SerializationEvent::Commit),
    ];
    let (_, realization) = reference::realizations(scheme)
        .find(|&(name, _)| name == kernel)
        .expect("the scheme has this kernel");
    let gtm2 = Gtm2::new(realization);
    Coordinator::new(Gtm1::new(events.into_iter().collect()), gtm2)
}

/// G1 starts at s0, G2 at s1; each then moves to the other site, so one
/// `ser` waits behind the other's unacked one at s1.
fn program(txn: GlobalTxnId) -> GlobalTransaction {
    let (first, second) = if txn == G1 { (S0, S1) } else { (S1, S0) };
    GlobalTransaction::builder(txn)
        .read(first, DataItemId(txn.0))
        .write(second, DataItemId(10 + txn.0), 5)
        .build()
        .expect("valid program")
}

/// A site server that always succeeds: a serialization event is acked to
/// GTM2, every other command is reported done to GTM1.
fn reply(txn: GlobalTxnId, site: SiteId, cmd: ServerCommand) -> Option<Arrival> {
    match cmd {
        ServerCommand::SerEvent { .. } => Some(Arrival::Ack { txn, site }),
        ServerCommand::AbortSubtxn => None,
        ServerCommand::Begin
        | ServerCommand::Read(_)
        | ServerCommand::Write(..)
        | ServerCommand::Add(..)
        | ServerCommand::Commit
        | ServerCommand::Prepare => Some(Arrival::Gtm1(Gtm1Event::ServerDone { txn, site })),
    }
}

/// What a journey is compared on.
#[derive(Debug, PartialEq)]
struct Journey {
    /// Arrivals handled, in order (the injected one excluded).
    arrivals: Vec<Arrival>,
    /// What each of them sent out.
    out: Vec<Vec<Outbound>>,
    gtm1: Gtm1Stats,
    gtm2: Gtm2Stats,
    steps: StepCounter,
    ser_s: Vec<(GlobalTxnId, SiteId)>,
}

/// A malformed arrival, and what it must send out.
type Bad = (Arrival, Vec<Outbound>);

/// Drive both transactions to completion, arrivals first in first out.
/// With `inject = Some((p, (bad, reply)))`, `bad` is handled just before
/// the `p`-th arrival (or after the last, for `p` = their count) and must
/// send out exactly `reply`.
fn journey(scheme: SchemeKind, kernel: &str, inject: Option<(usize, &Bad)>) -> Journey {
    let mut c = coordinator(scheme, kernel);
    let mut fifo: VecDeque<Arrival> = [G1, G2]
        .map(|txn| Arrival::Gtm1(Gtm1Event::Submit(program(txn))))
        .into();
    let (mut arrivals, mut outs) = (Vec::new(), Vec::new());
    for i in 0.. {
        if let Some((_, (bad, reply))) = inject.filter(|&(p, _)| p == i) {
            let mut out = Vec::new();
            c.handle(0, bad.clone(), &mut out);
            assert_eq!(&out, reply, "{scheme} {kernel}: {bad:?}");
        }
        let Some(arrival) = fifo.pop_front() else {
            break;
        };
        let mut out = Vec::new();
        c.handle(0, arrival.clone(), &mut out);
        for msg in &out {
            if let Outbound::Server { txn, site, cmd } = *msg {
                fifo.extend(reply(txn, site, cmd));
            }
        }
        arrivals.push(arrival);
        outs.push(out);
    }
    Journey {
        arrivals,
        out: outs,
        gtm1: c.gtm1().stats(),
        gtm2: c.gtm2().stats(),
        steps: c.gtm2().steps(),
        ser_s: c.gtm2().ser_log().events().to_vec(),
    }
}

/// Index of the first handled arrival whose output satisfies `pred`.
fn first_out(clean: &Journey, pred: impl Fn(&Outbound) -> bool) -> usize {
    clean
        .out
        .iter()
        .position(|out| out.iter().any(&pred))
        .expect("the clean journey emits it")
}

/// GTM1's answer to a refused program with a fresh id.
fn refused(txn: GlobalTxnId) -> Vec<Outbound> {
    vec![Outbound::Completed {
        txn,
        aborted: Some(AbortReason::Refused),
    }]
}

/// Every malformed arrival with its reply and the positions (indices into
/// the clean run's arrivals) before which it is injected, labelled.
fn malformed(clean: &Journey) -> Vec<(&'static str, Bad, Vec<usize>)> {
    let len = clean.arrivals.len();
    let everywhere: Vec<usize> = (0..=len).collect();
    let submit = |txn| Arrival::Gtm1(Gtm1Event::Submit(program(txn)));
    let mut cases = Vec::new();
    for (i, arrival) in clean.arrivals.iter().enumerate() {
        if let Arrival::Ack { .. } = arrival {
            cases.push((
                "duplicated ack",
                (arrival.clone(), vec![]),
                (i + 1..=len).collect(),
            ));
        }
    }
    for txn in [G1, G2] {
        for site in [S0, S1] {
            let submitted = first_out(clean, |m| {
                matches!(*m, Outbound::Server { txn: t, site: k, cmd: ServerCommand::SerEvent { .. } }
                    if (t, k) == (txn, site))
            });
            let ack = Arrival::Ack { txn, site };
            cases.push((
                "ack before its ser was submitted",
                (ack, vec![]),
                (0..=submitted).collect(),
            ));
            let internal = [
                Gtm1Event::Gtm2SubmitSer { txn, site },
                Gtm1Event::Gtm2Ack { txn, site },
            ];
            for event in internal {
                cases.push((
                    "GTM2 event from outside",
                    (Arrival::Gtm1(event), vec![]),
                    everywhere.clone(),
                ));
            }
        }
        let unannounced = Arrival::Ack { txn, site: S2 };
        cases.push((
            "ack at an unannounced site",
            (unannounced, vec![]),
            everywhere.clone(),
        ));
        let admitted = clean
            .arrivals
            .iter()
            .position(|a| *a == submit(txn))
            .expect("submitted");
        let completed = first_out(
            clean,
            |m| matches!(*m, Outbound::Completed { txn: t, .. } if t == txn),
        );
        cases.push((
            "submit of a live id",
            (submit(txn), vec![]),
            (admitted + 1..=completed).collect(),
        ));
        cases.push((
            "submit of a completed id",
            (submit(txn), vec![]),
            (completed + 1..=len).collect(),
        ));
    }
    let stranger = Arrival::Ack {
        txn: GlobalTxnId(9),
        site: S0,
    };
    cases.push((
        "ack for an id never submitted",
        (stranger, vec![]),
        everywhere.clone(),
    ));
    let two_begins = GlobalTransaction {
        id: GlobalTxnId(3),
        steps: [StepKind::Begin, StepKind::Begin, StepKind::Commit]
            .map(|kind| Step::new(S1, kind))
            .to_vec(),
    };
    let two_begins = Arrival::Gtm1(Gtm1Event::Submit(two_begins));
    cases.push((
        "submit with two begins at one site",
        (two_begins, refused(GlobalTxnId(3))),
        everywhere.clone(),
    ));
    let unconfigured = GlobalTransaction::builder(GlobalTxnId(4))
        .read(S9, DataItemId(1))
        .build()
        .expect("valid shape");
    let unconfigured = Arrival::Gtm1(Gtm1Event::Submit(unconfigured));
    cases.push((
        "submit naming an unconfigured site",
        (unconfigured, refused(GlobalTxnId(4))),
        everywhere,
    ));
    cases
}

#[test]
fn every_malformed_arrival_is_refused_once_and_changes_nothing() {
    for scheme in SchemeKind::CONSERVATIVE {
        for (kernel, _) in reference::realizations(scheme) {
            let clean = journey(scheme, kernel, None);
            let completed = clean.out.iter().flatten();
            let completed =
                completed.filter(|m| matches!(m, Outbound::Completed { aborted: None, .. }));
            assert_eq!(completed.count(), 2, "{scheme} {kernel}: both commit");
            assert_eq!(clean.gtm1.protocol_violations, 0, "{scheme} {kernel}");
            assert_eq!(clean.gtm2.protocol_violations, 0, "{scheme} {kernel}");
            assert!(clean.gtm2.waited > 0, "{scheme} {kernel}: a ser waits");
            let counted = Gtm1Stats {
                protocol_violations: 1,
                ..clean.gtm1
            };
            for (case, bad, positions) in malformed(&clean) {
                assert!(!positions.is_empty(), "{case}: {bad:?} applies nowhere");
                for p in positions {
                    let seen = journey(scheme, kernel, Some((p, &bad)));
                    let at = format!("{scheme} {kernel}, {case} {bad:?} before arrival {p}");
                    assert_eq!(seen.gtm1, counted, "{at}");
                    assert_eq!(seen.arrivals, clean.arrivals, "{at}");
                    assert_eq!(seen.out, clean.out, "{at}");
                    assert_eq!(seen.gtm2, clean.gtm2, "{at}");
                    assert_eq!(seen.steps, clean.steps, "{at}");
                    assert_eq!(seen.ser_s, clean.ser_s, "{at}");
                }
            }
        }
    }
}
