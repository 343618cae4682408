//! The GTM of Figure 2 as one sequential step: GTM1 routes a global
//! transaction's operations, GTM2 orders its serialization events, and
//! each hands the other work until neither has any left.
//!
//! Both runtimes drive this one type; they only move messages and time.
//! Every message that reaches the GTM — a new transaction, a server's
//! reply, a site's `ack` — is one [`Arrival`] passed to
//! [`Coordinator::handle`]. What the GTM sends back — commands for site
//! servers and finished transactions — comes out as [`Outbound`]
//! messages, in the order GTM1 produced them.
//!
//! `handle` is the GTM's one door for malformed input, and GTM1's
//! per-transaction state machine keeps it: a bad `Submit`, a reply or
//! `ack` no transaction waits for, and GTM2's own events arriving from
//! outside are refused there and counted in `gtm1.protocol_violations`.
//! So GTM2 and its kernels see only Figure 2's order.

use crate::gtm1::{Gtm1, Gtm1Effect, Gtm1Event, ServerCommand};
use crate::gtm2::Gtm2;
use crate::scheme::SchemeEffect;
use mdbs_common::error::AbortReason;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, TracedEvent};
use mdbs_common::ops::QueueOp;
use std::collections::VecDeque;

/// A message that reaches the GTM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// An event for GTM1: a new transaction, or a server's reply to one
    /// of its commands.
    Gtm1(Gtm1Event),
    /// `ack(ser_site(txn))` from the site's server, for GTM2's QUEUE.
    Ack {
        /// Transaction acknowledged.
        txn: GlobalTxnId,
        /// Site acknowledging.
        site: SiteId,
    },
}

/// A message the GTM sends out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outbound {
    /// A command for a site's server.
    Server {
        /// Transaction on whose behalf.
        txn: GlobalTxnId,
        /// Target site.
        site: SiteId,
        /// The command.
        cmd: ServerCommand,
    },
    /// The global transaction finished.
    Completed {
        /// Transaction.
        txn: GlobalTxnId,
        /// `None` = committed everywhere; `Some(reason)` = globally
        /// aborted.
        aborted: Option<AbortReason>,
    },
}

/// GTM1 and GTM2 wired together (Figure 2).
#[derive(Debug)]
pub struct Coordinator {
    gtm1: Gtm1,
    gtm2: Gtm2,
    /// GTM1 events that GTM2's effects produced; empty between calls.
    pending: VecDeque<Gtm1Event>,
    /// GTM1's and GTM2's effect buffers, empty between calls: a round
    /// allocates nothing for them once they have grown.
    gtm1_effects: Vec<Gtm1Effect>,
    gtm2_effects: Vec<SchemeEffect>,
    /// Both GTMs' events in the order they happened, each stamped with
    /// the time of the `handle` call that made it; `None` = tracing off.
    trace: Option<Vec<TracedEvent>>,
}

impl Coordinator {
    /// Wire `gtm1` to `gtm2`.
    pub fn new(gtm1: Gtm1, gtm2: Gtm2) -> Self {
        Coordinator {
            gtm1,
            gtm2,
            pending: VecDeque::new(),
            gtm1_effects: Vec::new(),
            gtm2_effects: Vec::new(),
            trace: None,
        }
    }

    /// Take one arrival at time `at` and run the GTM until nothing is
    /// pending: GTM1 handles every pending event, GTM2 pumps once, and
    /// the `ser` submissions and `ack`s it releases go back to GTM1.
    /// Outbound messages are appended to `out`.
    ///
    /// Malformed input is refused at the door and counted, never panicked
    /// on: an `ack` reaches GTM2 only if GTM1 waits for exactly that ack,
    /// GTM2's own events are refused when they arrive from outside, and
    /// GTM1 refuses the rest. Every scheme's `cond(ack)` holds, so an
    /// admitted ack is acted and forwarded within this call, and a second
    /// copy finds GTM1 no longer waiting. GTM2's effects that route nothing
    /// (scheme aborts and violations, which GTM2 counts) are dropped here.
    ///
    /// Every event either GTM traces during the call is stamped `at`.
    pub fn handle(&mut self, at: u64, arrival: Arrival, out: &mut Vec<Outbound>) {
        match arrival {
            Arrival::Gtm1(event) => {
                if self.gtm1.admits_external(&event) {
                    self.pending.push_back(event);
                }
            }
            Arrival::Ack { txn, site } => {
                if self.gtm1.admits_ack(txn, site) {
                    self.enqueue(at, QueueOp::Ack { txn, site });
                }
            }
        }
        let mut gtm1_effects = std::mem::take(&mut self.gtm1_effects);
        let mut gtm2_effects = std::mem::take(&mut self.gtm2_effects);
        loop {
            while let Some(event) = self.pending.pop_front() {
                self.gtm1.handle_into(event, &mut gtm1_effects);
                self.collect(at);
                for fx in gtm1_effects.drain(..) {
                    match fx {
                        Gtm1Effect::EnqueueGtm2(op) => self.enqueue(at, op),
                        Gtm1Effect::Server { txn, site, cmd } => {
                            out.push(Outbound::Server { txn, site, cmd });
                        }
                        Gtm1Effect::Completed { txn, aborted } => {
                            out.push(Outbound::Completed { txn, aborted });
                        }
                    }
                }
            }
            self.gtm2.pump_into(&mut gtm2_effects);
            self.collect(at);
            for fx in gtm2_effects.drain(..) {
                let event = match fx {
                    SchemeEffect::SubmitSer { txn, site } => Gtm1Event::Gtm2SubmitSer { txn, site },
                    SchemeEffect::ForwardAck { txn, site } => Gtm1Event::Gtm2Ack { txn, site },
                    SchemeEffect::AbortGlobal { .. } | SchemeEffect::ProtocolViolation { .. } => {
                        continue
                    }
                };
                self.pending.push_back(event);
            }
            if self.pending.is_empty() {
                break;
            }
        }
        self.gtm1_effects = gtm1_effects;
        self.gtm2_effects = gtm2_effects;
    }

    fn enqueue(&mut self, at: u64, op: QueueOp) {
        self.gtm2.enqueue(op);
        self.collect(at);
    }

    /// Move what the last call into GTM1 or GTM2 recorded into the trace,
    /// stamped `at`. Only the GTM just called has recorded anything, so
    /// the trace keeps the order the events happened in.
    fn collect(&mut self, at: u64) {
        if let Some(trace) = &mut self.trace {
            let events = self.gtm1.drain_events().chain(self.gtm2.drain_events());
            trace.extend(events.map(|event| TracedEvent { at, event }));
        }
    }

    /// Start (or stop) tracing both GTMs into one record; stopping drops
    /// any events not yet drained.
    pub fn set_tracing(&mut self, on: bool) {
        self.gtm1.set_tracing(on);
        self.gtm2.set_tracing(on);
        self.trace = on.then(Vec::new);
    }

    /// The events traced since the last drain, in the order they happened.
    pub fn drain_trace(&mut self) -> impl Iterator<Item = TracedEvent> + '_ {
        self.trace.iter_mut().flat_map(|trace| trace.drain(..))
    }

    /// Export both GTMs' counters (`gtm1.*`, `gtm2.*`) into `registry`.
    pub fn export_metrics(&self, registry: &mut Registry) {
        self.gtm1.export_metrics(registry);
        self.gtm2.export_metrics(registry);
    }

    /// GTM1, for its counters.
    pub fn gtm1(&self) -> &Gtm1 {
        &self.gtm1
    }

    /// GTM2, for its counters, `ser(S)` log and WAIT/QUEUE sizes.
    pub fn gtm2(&self) -> &Gtm2 {
        &self.gtm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;
    use crate::txn::GlobalTransaction;
    use mdbs_common::ids::DataItemId;
    use mdbs_localdb::serfn::SerializationEvent::{self, Begin, Commit};
    use ServerCommand as C;

    const G: GlobalTxnId = GlobalTxnId(1);
    const S0: SiteId = SiteId(0);
    const S1: SiteId = SiteId(1);

    /// A 2PL site (`s0`, commit event) and a TO site (`s1`, begin event).
    fn coordinator(scheme: SchemeKind) -> Coordinator {
        let events = [(S0, Commit), (S1, Begin)].into_iter().collect();
        Coordinator::new(Gtm1::new(events), Gtm2::new(scheme.build()))
    }

    fn violations(c: &Coordinator) -> (u64, u64) {
        let gtm1 = c.gtm1().stats().protocol_violations;
        (gtm1, c.gtm2().stats().protocol_violations)
    }

    #[test]
    fn ack_for_an_unsubmitted_transaction_is_counted_once() {
        for scheme in SchemeKind::CONSERVATIVE {
            let mut c = coordinator(scheme);
            let mut out = Vec::new();
            c.handle(0, Arrival::Ack { txn: G, site: S0 }, &mut out);
            assert!(out.is_empty(), "{scheme}: {out:?}");
            // GTM1 refuses it at the door; GTM2 never sees it.
            assert_eq!(violations(&c), (1, 0), "{scheme}");
            assert_eq!(c.gtm2().stats().enqueued, 0, "{scheme}");
        }
    }

    #[test]
    fn two_site_journey_emits_commands_in_order_then_completes() {
        let mut c = coordinator(SchemeKind::Scheme1);
        let (x1, x2) = (DataItemId(1), DataItemId(2));
        let program = GlobalTransaction::builder(G)
            .read(S0, x1)
            .write(S1, x2, 5)
            .build()
            .expect("valid program");
        let cmd = |site, cmd| vec![Outbound::Server { txn: G, site, cmd }];
        let ser = |event: SerializationEvent| C::SerEvent {
            event,
            vacuous: false,
        };
        let done = |site| Arrival::Gtm1(Gtm1Event::ServerDone { txn: G, site });
        let ack = |site| Arrival::Ack { txn: G, site };
        let committed = Outbound::Completed {
            txn: G,
            aborted: None,
        };
        let journey = [
            (Arrival::Gtm1(Gtm1Event::Submit(program)), cmd(S0, C::Begin)),
            (done(S0), cmd(S0, C::Read(x1))),
            (done(S0), cmd(S1, ser(Begin))),
            (ack(S1), cmd(S1, C::Write(x2, 5))),
            (done(S1), cmd(S0, ser(Commit))),
            (ack(S0), cmd(S1, C::Commit)),
            (done(S1), vec![committed]),
        ];
        for (step, (arrival, expected)) in journey.into_iter().enumerate() {
            let mut out = Vec::new();
            c.handle(0, arrival, &mut out);
            assert_eq!(out, expected, "step {step}");
        }
        assert_eq!(c.gtm2().stats().fins, 1);
        assert_eq!(c.gtm2().wait_len() + c.gtm2().queue_len(), 0);
        assert_eq!(violations(&c), (0, 0));
    }
}
