//! GTM1 — global transaction routing (Figure 1 of the paper).
//!
//! GTM1 executes each global transaction's program one operation at a time
//! (the paper's rule: no operation of `G_i` is submitted until the previous
//! one is acknowledged). It decides, per site, which operation is the
//! serialization event — using the site's protocol
//! ([`SerializationEvent`]) — and routes:
//!
//! - serialization events through GTM2 as `ser_k(G_i)` queue operations
//!   (bracketed by `init_i`/`fin_i`);
//! - every other operation directly to the site's server.
//!
//! GTM1 is a pure state machine: the
//! [`Coordinator`](crate::coordinator::Coordinator) feeds it
//! [`Gtm1Event`]s and carries out the returned [`Gtm1Effect`]s (queueing to
//! GTM2, commanding servers, reporting completions). A reply the
//! transaction is not waiting for is refused and counted as a protocol
//! violation. If any subtransaction is aborted
//! locally, GTM1 aborts the global transaction everywhere and completes the
//! remaining serialization events **vacuously** — the queue positions are
//! honored so the conservative scheme's bookkeeping drains, but no local
//! work runs. (Global atomic commitment is out of scope, as in the paper.)

use crate::txn::{GlobalTransaction, Step, StepKind};
use mdbs_common::error::AbortReason;
use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, SchedEvent, TraceSink};
use mdbs_common::ops::QueueOp;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_localdb::storage::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Commands GTM1 issues to a site's server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerCommand {
    /// Begin the subtransaction.
    Begin,
    /// Read an item.
    Read(DataItemId),
    /// Write an item.
    Write(DataItemId, Value),
    /// Read-modify-write: add `delta` to the item.
    Add(DataItemId, Value),
    /// Commit the subtransaction.
    Commit,
    /// Two-phase-commit vote (never blocks; a no-vote aborts the
    /// subtransaction).
    Prepare,
    /// Abort the subtransaction (global abort propagation).
    AbortSubtxn,
    /// Execute the serialization event. When `vacuous`, the transaction
    /// was aborted: acknowledge without touching the local DBMS (and abort
    /// the subtransaction if it is still live).
    SerEvent {
        /// Which event to run.
        event: SerializationEvent,
        /// Skip local execution (aborted transaction draining its queue
        /// positions).
        vacuous: bool,
    },
}

/// Events the surrounding system feeds into GTM1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Gtm1Event {
    /// A new global transaction arrives.
    Submit(GlobalTransaction),
    /// A direct (non-ser) server command completed.
    ServerDone {
        /// Transaction.
        txn: GlobalTxnId,
        /// Site that completed.
        site: SiteId,
    },
    /// A server command failed because the local DBMS aborted the
    /// subtransaction.
    ServerFailed {
        /// Transaction.
        txn: GlobalTxnId,
        /// Failing site.
        site: SiteId,
        /// Local protocol's reason.
        reason: AbortReason,
    },
    /// GTM2 scheduled `ser_site(txn)` for execution (its `SubmitSer`
    /// effect).
    Gtm2SubmitSer {
        /// Transaction.
        txn: GlobalTxnId,
        /// Site of the event.
        site: SiteId,
    },
    /// The serialization event's local execution failed (the event itself
    /// still gets acknowledged to GTM2 by the server).
    SerEventFailed {
        /// Transaction.
        txn: GlobalTxnId,
        /// Failing site.
        site: SiteId,
        /// Local protocol's reason.
        reason: AbortReason,
    },
    /// GTM2 forwarded `ack(ser_site(txn))`.
    Gtm2Ack {
        /// Transaction.
        txn: GlobalTxnId,
        /// Acknowledged site.
        site: SiteId,
    },
}

/// Effects GTM1 asks the surrounding system to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Gtm1Effect {
    /// Insert an operation into GTM2's QUEUE.
    EnqueueGtm2(QueueOp),
    /// Issue a command to a site's server.
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

/// GTM1 counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gtm1Stats {
    /// Transactions submitted.
    pub submitted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions globally aborted.
    pub aborted: u64,
    /// Direct operations issued to servers.
    pub direct_ops: u64,
    /// Serialization events routed through GTM2.
    pub ser_ops: u64,
    /// Events that referenced an unknown transaction or site. A correct
    /// surrounding system never produces these; GTM1 refuses the event
    /// and counts it rather than panicking (the scheduler must outlive
    /// any single misbehaving server).
    pub protocol_violations: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum PlanStep {
    Direct(Step),
    Ser(SiteId),
    /// Two-phase-commit vote at a site whose serialization event is not
    /// the prepare (a plain server command).
    Prepare(SiteId),
    /// Second phase of two-phase commit: unconditional after every vote.
    FinalCommit(SiteId),
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Awaiting {
    /// Ready to issue the next step.
    Nothing,
    /// A direct server command is outstanding.
    Server(SiteId),
    /// A `ser` op is with GTM2 (submitted, not yet acked back).
    SerAck(SiteId),
}

#[derive(Debug)]
struct TxnCtl {
    plan: Vec<PlanStep>,
    cursor: usize,
    awaiting: Awaiting,
    zombie: Option<AbortReason>,
    /// Sites whose subtransaction has begun and not terminated.
    live_sites: BTreeSet<SiteId>,
}

/// The GTM1 state machine.
pub struct Gtm1 {
    site_events: BTreeMap<SiteId, SerializationEvent>,
    txns: BTreeMap<GlobalTxnId, TxnCtl>,
    stats: Gtm1Stats,
    /// Run two-phase commit: every subtransaction votes (prepare) before
    /// any subtransaction commits, making global commitment atomic — the
    /// fault-tolerance direction the paper leaves as future work.
    two_pc: bool,
    /// Structured event sink (global aborts); `None` = disabled.
    sink: Option<Box<dyn TraceSink + Send>>,
    /// Timestamp stamped onto sink events (simulated time when driven by
    /// the DES; 0 elsewhere).
    clock: u64,
}

impl std::fmt::Debug for Gtm1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gtm1")
            .field("txns", &self.txns)
            .field("stats", &self.stats)
            .field("two_pc", &self.two_pc)
            .finish()
    }
}

impl Gtm1 {
    /// Create GTM1 for sites with the given serialization events.
    pub fn new(site_events: BTreeMap<SiteId, SerializationEvent>) -> Self {
        Gtm1 {
            site_events,
            txns: BTreeMap::new(),
            stats: Gtm1Stats::default(),
            two_pc: false,
            sink: None,
            clock: 0,
        }
    }

    /// Create GTM1 in two-phase-commit mode: commit-event sites serialize
    /// at the prepare and all commits run unconditionally afterwards.
    pub fn new_two_phase(site_events: BTreeMap<SiteId, SerializationEvent>) -> Self {
        Gtm1 {
            site_events,
            txns: BTreeMap::new(),
            stats: Gtm1Stats::default(),
            two_pc: true,
            sink: None,
            clock: 0,
        }
    }

    /// Attach (or with `None`, detach) a structured event sink. GTM1
    /// reports global aborts through it.
    pub fn set_sink(&mut self, sink: Option<Box<dyn TraceSink + Send>>) {
        self.sink = sink;
    }

    /// Set the timestamp stamped onto subsequent sink events.
    pub fn set_now(&mut self, at: u64) {
        self.clock = at;
    }

    /// Export GTM1's counters into `registry` under the `gtm1.` prefix.
    pub fn export_metrics(&self, registry: &mut Registry) {
        registry.inc("gtm1.submitted", self.stats.submitted);
        registry.inc("gtm1.committed", self.stats.committed);
        registry.inc("gtm1.aborted", self.stats.aborted);
        registry.inc("gtm1.direct_ops", self.stats.direct_ops);
        registry.inc("gtm1.ser_ops", self.stats.ser_ops);
        registry.inc("gtm1.protocol_violations", self.stats.protocol_violations);
        registry.max_gauge("gtm1.active_txns", self.txns.len() as i64);
    }

    /// The serialization event effective at a site under the current
    /// mode, or `None` for a site GTM1 was not configured with.
    fn effective_event(&self, site: SiteId) -> Option<SerializationEvent> {
        let ev = *self.site_events.get(&site)?;
        Some(if self.two_pc {
            ev.under_two_phase_commit()
        } else {
            ev
        })
    }

    /// Counters.
    pub fn stats(&self) -> Gtm1Stats {
        self.stats
    }

    /// Number of in-flight transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// Compile a program into a plan, inserting serialization events:
    /// - `Begin` at a begin-event site becomes the `ser` op itself;
    /// - `Begin` at a ticket site is followed by the ticket `ser` op;
    /// - `Commit` at a commit-event site becomes the `ser` op.
    fn compile(&self, gt: &GlobalTransaction) -> Vec<PlanStep> {
        let mut plan = Vec::with_capacity(gt.steps.len() + 2 * gt.degree());
        for step in &gt.steps {
            let event = self.site_events.get(&step.site).copied();
            match (step.kind, event) {
                (StepKind::Begin, Some(SerializationEvent::Begin)) => {
                    plan.push(PlanStep::Ser(step.site));
                }
                (StepKind::Begin, Some(SerializationEvent::TicketWrite)) => {
                    plan.push(PlanStep::Direct(*step));
                    plan.push(PlanStep::Ser(step.site));
                }
                (StepKind::Commit, Some(SerializationEvent::Commit)) => {
                    if self.two_pc {
                        // Vote is the serialization event; the actual commit
                        // becomes the unconditional second phase.
                        plan.push(PlanStep::Ser(step.site));
                    } else {
                        plan.push(PlanStep::Ser(step.site));
                    }
                }
                (StepKind::Commit, _) if self.two_pc => {
                    // Begin/ticket-event site: vote first, commit in phase 2.
                    plan.push(PlanStep::Prepare(step.site));
                }
                _ => plan.push(PlanStep::Direct(*step)),
            }
        }
        if self.two_pc {
            // Phase 2: unconditional commits after every vote succeeded.
            for site in gt.sites() {
                plan.push(PlanStep::FinalCommit(site));
            }
        }
        plan
    }

    /// Handle an event, producing effects.
    pub fn handle(&mut self, event: Gtm1Event) -> Vec<Gtm1Effect> {
        let mut effects = Vec::new();
        match event {
            Gtm1Event::Submit(gt) => {
                let txn = gt.id;
                let plan = self.compile(&gt);
                let sites = gt.sites();
                self.stats.submitted += 1;
                effects.push(Gtm1Effect::EnqueueGtm2(QueueOp::Init { txn, sites }));
                self.txns.insert(
                    txn,
                    TxnCtl {
                        plan,
                        cursor: 0,
                        awaiting: Awaiting::Nothing,
                        zombie: None,
                        live_sites: BTreeSet::new(),
                    },
                );
                self.issue_next(txn, &mut effects);
            }
            Gtm1Event::ServerDone { txn, site } => {
                let Some(ctl) = self.awaiting_ctl(txn, Awaiting::Server(site)) else {
                    return effects;
                };
                ctl.awaiting = Awaiting::Nothing;
                ctl.cursor += 1;
                self.issue_next(txn, &mut effects);
            }
            Gtm1Event::ServerFailed { txn, site, reason } => {
                let Some(ctl) = self.awaiting_ctl(txn, Awaiting::Server(site)) else {
                    return effects;
                };
                ctl.awaiting = Awaiting::Nothing;
                ctl.cursor += 1;
                self.mark_zombie(txn, site, reason, &mut effects);
                self.issue_next(txn, &mut effects);
            }
            Gtm1Event::Gtm2SubmitSer { txn, site } => {
                let Some(event) = self.effective_event(site) else {
                    self.stats.protocol_violations += 1;
                    return effects;
                };
                let Some(ctl) = self.awaiting_ctl(txn, Awaiting::SerAck(site)) else {
                    return effects;
                };
                let vacuous = ctl.zombie.is_some();
                if !vacuous && event == SerializationEvent::Begin {
                    ctl.live_sites.insert(site);
                }
                effects.push(Gtm1Effect::Server {
                    txn,
                    site,
                    cmd: ServerCommand::SerEvent { event, vacuous },
                });
            }
            Gtm1Event::SerEventFailed { txn, site, reason } => {
                // Still awaiting the Gtm2Ack (the server acks regardless);
                // just mark the global abort.
                self.mark_zombie(txn, site, reason, &mut effects);
            }
            Gtm1Event::Gtm2Ack { txn, site } => {
                let Some(event) = self.effective_event(site) else {
                    self.stats.protocol_violations += 1;
                    return effects;
                };
                let Some(ctl) = self.awaiting_ctl(txn, Awaiting::SerAck(site)) else {
                    return effects;
                };
                // A successful commit-event terminates the subtransaction
                // (a prepare event does not — the second phase commits).
                if ctl.zombie.is_none() && event == SerializationEvent::Commit {
                    ctl.live_sites.remove(&site);
                }
                ctl.awaiting = Awaiting::Nothing;
                ctl.cursor += 1;
                self.issue_next(txn, &mut effects);
            }
        }
        effects
    }

    /// The transaction's control block, if it is waiting for exactly this
    /// reply. Anything else — an unknown transaction (a server replying
    /// after the global decision, a buggy server inventing work) or a
    /// reply to an operation it has not issued — is refused and counted,
    /// never panicked on, and leaves the plan where it was.
    fn awaiting_ctl(&mut self, txn: GlobalTxnId, awaiting: Awaiting) -> Option<&mut TxnCtl> {
        match self.txns.get_mut(&txn) {
            Some(ctl) if ctl.awaiting == awaiting => Some(ctl),
            _ => {
                self.stats.protocol_violations += 1;
                None
            }
        }
    }

    /// Abort the global transaction: abort live subtransactions everywhere
    /// and continue the plan vacuously.
    fn mark_zombie(
        &mut self,
        txn: GlobalTxnId,
        failed_site: SiteId,
        reason: AbortReason,
        effects: &mut Vec<Gtm1Effect>,
    ) {
        let Some(ctl) = self.txns.get_mut(&txn) else {
            self.stats.protocol_violations += 1;
            return;
        };
        ctl.live_sites.remove(&failed_site); // already dead there
        if ctl.zombie.is_some() {
            return;
        }
        ctl.zombie = Some(reason);
        if let Some(sink) = &mut self.sink {
            sink.record(self.clock, SchedEvent::Abort { txn });
        }
        for site in std::mem::take(&mut ctl.live_sites) {
            effects.push(Gtm1Effect::Server {
                txn,
                site,
                cmd: ServerCommand::AbortSubtxn,
            });
        }
    }

    /// Issue plan steps until one is outstanding or the plan ends.
    fn issue_next(&mut self, txn: GlobalTxnId, effects: &mut Vec<Gtm1Effect>) {
        loop {
            let Some(ctl) = self.txns.get_mut(&txn) else {
                self.stats.protocol_violations += 1;
                return;
            };
            debug_assert_eq!(ctl.awaiting, Awaiting::Nothing);
            let Some(step) = ctl.plan.get(ctl.cursor).cloned() else {
                // Plan complete: every ser op was acked along the way.
                effects.push(Gtm1Effect::EnqueueGtm2(QueueOp::Fin { txn }));
                let aborted = ctl.zombie;
                match aborted {
                    Some(_) => self.stats.aborted += 1,
                    None => self.stats.committed += 1,
                }
                effects.push(Gtm1Effect::Completed { txn, aborted });
                self.txns.remove(&txn);
                return;
            };
            match step {
                PlanStep::Direct(step) => {
                    if ctl.zombie.is_some() {
                        // Vacuous: skip local work.
                        ctl.cursor += 1;
                        continue;
                    }
                    let cmd = match step.kind {
                        StepKind::Begin => {
                            ctl.live_sites.insert(step.site);
                            ServerCommand::Begin
                        }
                        StepKind::Read(item) => ServerCommand::Read(item),
                        StepKind::Write(item, v) => ServerCommand::Write(item, v),
                        StepKind::Add(item, d) => ServerCommand::Add(item, d),
                        StepKind::Commit => {
                            ctl.live_sites.remove(&step.site);
                            ServerCommand::Commit
                        }
                    };
                    ctl.awaiting = Awaiting::Server(step.site);
                    self.stats.direct_ops += 1;
                    effects.push(Gtm1Effect::Server {
                        txn,
                        site: step.site,
                        cmd,
                    });
                    return;
                }
                PlanStep::Ser(site) => {
                    ctl.awaiting = Awaiting::SerAck(site);
                    self.stats.ser_ops += 1;
                    effects.push(Gtm1Effect::EnqueueGtm2(QueueOp::Ser { txn, site }));
                    return;
                }
                PlanStep::Prepare(site) => {
                    if ctl.zombie.is_some() {
                        ctl.cursor += 1;
                        continue;
                    }
                    ctl.awaiting = Awaiting::Server(site);
                    self.stats.direct_ops += 1;
                    effects.push(Gtm1Effect::Server {
                        txn,
                        site,
                        cmd: ServerCommand::Prepare,
                    });
                    return;
                }
                PlanStep::FinalCommit(site) => {
                    if ctl.zombie.is_some() {
                        ctl.cursor += 1;
                        continue;
                    }
                    ctl.live_sites.remove(&site);
                    ctl.awaiting = Awaiting::Server(site);
                    self.stats.direct_ops += 1;
                    effects.push(Gtm1Effect::Server {
                        txn,
                        site,
                        cmd: ServerCommand::Commit,
                    });
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::GlobalTxnId;
    use mdbs_localdb::protocol::LocalProtocolKind;

    fn events(kinds: &[LocalProtocolKind]) -> BTreeMap<SiteId, SerializationEvent> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| (SiteId(i as u32), SerializationEvent::for_protocol(k)))
            .collect()
    }

    fn txn_two_sites() -> GlobalTransaction {
        GlobalTransaction::builder(GlobalTxnId(1))
            .read(SiteId(0), DataItemId(1))
            .write(SiteId(1), DataItemId(2), 5)
            .build()
            .unwrap()
    }

    /// 2PL site + TO site: ser ops are commit@s0 and begin@s1.
    #[test]
    fn plan_routes_events_per_protocol() {
        let mut g = Gtm1::new(events(&[
            LocalProtocolKind::TwoPhaseLocking,
            LocalProtocolKind::TimestampOrdering,
        ]));
        let fx = g.handle(Gtm1Event::Submit(txn_two_sites()));
        // init + first step (begin at 2PL site is direct).
        assert_eq!(fx.len(), 2);
        assert!(matches!(
            &fx[0],
            Gtm1Effect::EnqueueGtm2(QueueOp::Init { .. })
        ));
        assert_eq!(
            fx[1],
            Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(0),
                cmd: ServerCommand::Begin
            }
        );
        // Walk the full plan.
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(0),
                cmd: ServerCommand::Read(DataItemId(1))
            }]
        );
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        // Next: begin at TO site = ser op via GTM2.
        assert_eq!(
            fx,
            vec![Gtm1Effect::EnqueueGtm2(QueueOp::Ser {
                txn: GlobalTxnId(1),
                site: SiteId(1)
            })]
        );
        let fx = g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(1),
                cmd: ServerCommand::SerEvent {
                    event: SerializationEvent::Begin,
                    vacuous: false
                }
            }]
        );
        let fx = g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(1),
                cmd: ServerCommand::Write(DataItemId(2), 5)
            }]
        );
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        // Commit at s0 = ser op (2PL commit event).
        assert_eq!(
            fx,
            vec![Gtm1Effect::EnqueueGtm2(QueueOp::Ser {
                txn: GlobalTxnId(1),
                site: SiteId(0)
            })]
        );
        g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        let fx = g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        // Commit at s1 is a direct op (TO site's event was begin).
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(1),
                cmd: ServerCommand::Commit
            }]
        );
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        assert_eq!(fx.len(), 2);
        assert!(matches!(
            &fx[0],
            Gtm1Effect::EnqueueGtm2(QueueOp::Fin { .. })
        ));
        assert_eq!(
            fx[1],
            Gtm1Effect::Completed {
                txn: GlobalTxnId(1),
                aborted: None
            }
        );
        assert_eq!(g.stats().committed, 1);
        assert_eq!(g.active_txns(), 0);
    }

    /// An `ack` for a `ser` GTM1 has not issued is refused: it is counted,
    /// issues nothing, and the outstanding command still completes.
    #[test]
    fn reply_the_transaction_is_not_waiting_for_is_refused() {
        let mut g = Gtm1::new(events(&[
            LocalProtocolKind::TwoPhaseLocking,
            LocalProtocolKind::TimestampOrdering,
        ]));
        g.handle(Gtm1Event::Submit(txn_two_sites())); // Begin at s0 outstanding
        let (txn, s0, s1) = (GlobalTxnId(1), SiteId(0), SiteId(1));
        for early in [
            Gtm1Event::Gtm2Ack { txn, site: s1 },
            Gtm1Event::Gtm2SubmitSer { txn, site: s1 },
            Gtm1Event::ServerDone { txn, site: s1 },
        ] {
            assert!(g.handle(early).is_empty());
        }
        assert_eq!(g.stats().protocol_violations, 3);
        let fx = g.handle(Gtm1Event::ServerDone { txn, site: s0 });
        let read = Gtm1Effect::Server {
            txn,
            site: s0,
            cmd: ServerCommand::Read(DataItemId(1)),
        };
        assert_eq!(fx, [read]);
        assert_eq!(g.stats().protocol_violations, 3);
    }

    /// A ticket site: begin is direct, followed by the ticket ser op.
    #[test]
    fn ticket_site_inserts_ticket_event() {
        let mut g = Gtm1::new(events(&[LocalProtocolKind::SerializationGraphTesting]));
        let t = GlobalTransaction::builder(GlobalTxnId(2))
            .read(SiteId(0), DataItemId(3))
            .build()
            .unwrap();
        let fx = g.handle(Gtm1Event::Submit(t));
        assert_eq!(
            fx[1],
            Gtm1Effect::Server {
                txn: GlobalTxnId(2),
                site: SiteId(0),
                cmd: ServerCommand::Begin
            }
        );
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(2),
            site: SiteId(0),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::EnqueueGtm2(QueueOp::Ser {
                txn: GlobalTxnId(2),
                site: SiteId(0)
            })]
        );
        let fx = g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(2),
            site: SiteId(0),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(2),
                site: SiteId(0),
                cmd: ServerCommand::SerEvent {
                    event: SerializationEvent::TicketWrite,
                    vacuous: false
                }
            }]
        );
    }

    /// Two-phase-commit compilation: commit-event sites serialize at the
    /// prepare; begin-event sites get a direct prepare; all commits run as
    /// an unconditional second phase.
    #[test]
    fn two_pc_plan_shape() {
        let mut g = Gtm1::new_two_phase(events(&[
            LocalProtocolKind::TwoPhaseLocking,   // commit-event site
            LocalProtocolKind::TimestampOrdering, // begin-event site
        ]));
        let t = txn_two_sites();
        let fx = g.handle(Gtm1Event::Submit(t));
        assert!(matches!(
            &fx[0],
            Gtm1Effect::EnqueueGtm2(QueueOp::Init { .. })
        ));
        // Walk: begin s0 (direct), read s0, ser-begin s1, write s1,
        // then PHASE 1: ser(prepare) at s0, direct prepare at s1,
        // then PHASE 2: commits at both sites.
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        }); // begin
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        }); // read
        g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        }); // begin@TO
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        }); // write
            // Now the 2PL site's Commit step compiles to its ser op (prepare).
        let fx = g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(0),
                cmd: ServerCommand::SerEvent {
                    event: SerializationEvent::Prepare,
                    vacuous: false
                }
            }]
        );
        let fx = g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        // TO site's commit step becomes a direct prepare (vote).
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(1),
                cmd: ServerCommand::Prepare
            }]
        );
        // Phase 2: unconditional commits at both sites in site order.
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(0),
                cmd: ServerCommand::Commit
            }]
        );
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(1),
                cmd: ServerCommand::Commit
            }]
        );
        let fx = g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        assert!(fx.contains(&Gtm1Effect::Completed {
            txn: GlobalTxnId(1),
            aborted: None
        }));
    }

    /// Under 2PC, a failed vote (prepare) aborts before ANY commit runs.
    #[test]
    fn two_pc_failed_vote_skips_all_commits() {
        let mut g = Gtm1::new_two_phase(events(&[
            LocalProtocolKind::TimestampOrdering,
            LocalProtocolKind::TimestampOrdering,
        ]));
        let t = txn_two_sites();
        g.handle(Gtm1Event::Submit(t));
        // Walk to the first vote.
        g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        }); // begin s0
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        }); // read
        g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        }); // begin s1
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        }); // write
            // First vote (prepare at s0) fails.
        let fx = g.handle(Gtm1Event::ServerFailed {
            txn: GlobalTxnId(1),
            site: SiteId(0),
            reason: AbortReason::ValidationFailure,
        });
        // No Commit command may ever be issued; the txn aborts.
        let mut all = fx;
        // The remaining prepare step is vacuous-skipped; fin + completion
        // arrive in the same cascade or after remaining acks.
        assert!(
            all.iter().all(|e| !matches!(
                e,
                Gtm1Effect::Server {
                    cmd: ServerCommand::Commit,
                    ..
                }
            )),
            "{all:?}"
        );
        assert!(
            all.iter().any(|e| matches!(
                e,
                Gtm1Effect::Completed {
                    aborted: Some(_),
                    ..
                }
            )),
            "{all:?}"
        );
        all.clear();
        assert_eq!(g.stats().aborted, 1);
    }

    /// A direct-op failure aborts globally: live subtransactions get abort
    /// commands, the rest of the plan is vacuous, and fin still flows.
    #[test]
    fn local_failure_triggers_global_abort() {
        let mut g = Gtm1::new(events(&[
            LocalProtocolKind::TwoPhaseLocking,
            LocalProtocolKind::TwoPhaseLocking,
        ]));
        let t = txn_two_sites();
        g.handle(Gtm1Event::Submit(t));
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        }); // begin s0
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        }); // read s0
            // begin at s1 (2PL: direct), then the write fails.
        g.handle(Gtm1Event::ServerDone {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        let fx = g.handle(Gtm1Event::ServerFailed {
            txn: GlobalTxnId(1),
            site: SiteId(1),
            reason: AbortReason::Deadlock,
        });
        // Abort propagated to s0; plan continues with the two commit-ser
        // ops (vacuous).
        assert!(fx.contains(&Gtm1Effect::Server {
            txn: GlobalTxnId(1),
            site: SiteId(0),
            cmd: ServerCommand::AbortSubtxn
        }));
        assert!(fx.contains(&Gtm1Effect::EnqueueGtm2(QueueOp::Ser {
            txn: GlobalTxnId(1),
            site: SiteId(0)
        })));
        let fx = g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        assert_eq!(
            fx,
            vec![Gtm1Effect::Server {
                txn: GlobalTxnId(1),
                site: SiteId(0),
                cmd: ServerCommand::SerEvent {
                    event: SerializationEvent::Commit,
                    vacuous: true
                }
            }]
        );
        g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(0),
        });
        g.handle(Gtm1Event::Gtm2SubmitSer {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        let fx = g.handle(Gtm1Event::Gtm2Ack {
            txn: GlobalTxnId(1),
            site: SiteId(1),
        });
        assert!(fx.contains(&Gtm1Effect::Completed {
            txn: GlobalTxnId(1),
            aborted: Some(AbortReason::Deadlock)
        }));
        assert_eq!(g.stats().aborted, 1);
    }
}
