//! The paper's per-site *server*: executes GTM1's [`ServerCommand`]s
//! against one site's [`LocalDbms`], resuming multi-step commands (`Add`
//! read-modify-writes, ticket takes) when a blocked step completes.
//!
//! Both runtimes run this one state machine. It knows nothing about time
//! or transport: every outcome is pushed, in order, into a caller-supplied
//! buffer of [`Reply`]s, and the caller — the DES with simulated latencies
//! and `BlockTimeout` epochs, the threaded runtime with channels and
//! `Instant`s — decides how each one travels. A reply for the GTM is an
//! [`Arrival`] from the server onward: it crosses either transport
//! unchanged and is handed as-is to [`Coordinator::handle`].
//!
//! [`Coordinator::handle`]: mdbs_core::coordinator::Coordinator::handle

use mdbs_common::error::{AbortReason, MdbsError};
use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId, TxnId};
use mdbs_core::coordinator::Arrival;
use mdbs_core::gtm1::{Gtm1Event, ServerCommand};
use mdbs_localdb::engine::{LocalDbms, OpOutcome, SubmitResult};
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_localdb::storage::Value;
use std::collections::BTreeMap;

/// What the server asks its runtime to do, in the order it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Deliver this message to the GTM: a GTM1 event, or
    /// `ack(ser_site(txn))` for GTM2.
    Gtm(Arrival),
    /// The command's current step blocked inside the engine: arm a timer.
    Blocked(GlobalTxnId),
    /// A blocked step resolved: disarm the timer (what became of the
    /// command follows as further replies).
    Unblocked(GlobalTxnId),
    /// A *local* transaction's blocked operation resolved; its driver is
    /// the runtime's business.
    LocalCompletion(LocalTxnId, Result<OpOutcome, MdbsError>),
}

impl Reply {
    fn gtm1(event: Gtm1Event) -> Self {
        Reply::Gtm(Arrival::Gtm1(event))
    }
}

/// What to do when the engine finishes a command's current step.
#[derive(Clone, Copy, Debug)]
enum Continuation {
    /// Reply `ServerDone` to GTM1.
    ReplyDone,
    /// Write `item = read + delta`, then reply.
    AddWrite { item: DataItemId, delta: Value },
    /// Write the incremented ticket, then ack.
    TicketWrite,
    /// Ack the serialization event to GTM2.
    AckAfter,
}

/// One site's server: the engine plus the continuations of commands whose
/// current step is blocked inside it.
pub(crate) struct Server {
    /// The engine, open to the runtime for what is not a GTM1 command:
    /// local transactions, a timeout's `request_abort`, crashes. Follow any
    /// call that can wake or kill a transaction with [`Server::drain`].
    pub(crate) db: LocalDbms,
    pending: BTreeMap<GlobalTxnId, Continuation>,
}

impl Server {
    pub(crate) fn new(db: LocalDbms) -> Self {
        let pending = BTreeMap::new();
        Server { db, pending }
    }

    /// `ack(ser_site(txn))` for this site, addressed to GTM2.
    fn ack(&self, txn: GlobalTxnId) -> Reply {
        let site = self.db.site();
        Reply::Gtm(Arrival::Ack { txn, site })
    }

    /// Execute one GTM1 command for `txn` and route every completion it
    /// caused.
    pub(crate) fn execute(&mut self, txn: GlobalTxnId, cmd: ServerCommand, out: &mut Vec<Reply>) {
        use Continuation::{AckAfter, ReplyDone};
        let t: TxnId = txn.into();
        // `begin` and `prepare` never block and carry no value; the two
        // continuations they run under ignore the placeholder outcome.
        let unit = |r: Result<(), MdbsError>| r.map(|()| SubmitResult::Done(OpOutcome::Write));
        let (result, cont) = match cmd {
            ServerCommand::Begin => (unit(self.db.begin(t)), ReplyDone),
            ServerCommand::Read(item) => (self.db.submit_read(t, item), ReplyDone),
            ServerCommand::Write(item, value) => (self.db.submit_write(t, item, value), ReplyDone),
            ServerCommand::Add(item, delta) => (
                self.db.submit_read(t, item),
                Continuation::AddWrite { item, delta },
            ),
            ServerCommand::Commit => (self.db.submit_commit(t), ReplyDone),
            ServerCommand::Prepare => (unit(self.db.submit_prepare(t)), ReplyDone),
            ServerCommand::AbortSubtxn => {
                // Global decision: may abort even a prepared subtransaction.
                let _ = self.db.resolve_abort(t);
                return self.drain(out);
            }
            // An aborted transaction draining its queue positions: the
            // engine is not touched.
            ServerCommand::SerEvent { vacuous: true, .. } => return out.push(self.ack(txn)),
            ServerCommand::SerEvent { event, .. } => match event {
                SerializationEvent::Begin => (unit(self.db.begin(t)), AckAfter),
                SerializationEvent::Commit => (self.db.submit_commit(t), AckAfter),
                SerializationEvent::Prepare => (unit(self.db.submit_prepare(t)), AckAfter),
                SerializationEvent::TicketWrite => (
                    self.db.submit_read(t, DataItemId::TICKET),
                    Continuation::TicketWrite,
                ),
            },
        };
        self.settle(txn, result, cont, out);
        self.drain(out);
    }

    /// Route every completion the engine has queued — resuming the global
    /// commands they unblock, which can queue more — until it is quiet.
    pub(crate) fn drain(&mut self, out: &mut Vec<Reply>) {
        loop {
            let completions = self.db.take_completions();
            if completions.is_empty() {
                return;
            }
            for comp in completions {
                match comp.txn {
                    TxnId::Local(l) => out.push(Reply::LocalCompletion(l, comp.outcome)),
                    TxnId::Global(g) => {
                        // A completion for a command the server no longer
                        // tracks (its submit already failed inline) is
                        // ignored.
                        let Some(cont) = self.pending.remove(&g) else {
                            continue;
                        };
                        out.push(Reply::Unblocked(g));
                        self.settle(g, comp.outcome.map(SubmitResult::Done), cont, out);
                    }
                }
            }
        }
    }

    /// One engine step came back: run the continuation, park it, or fail
    /// the command.
    fn settle(
        &mut self,
        txn: GlobalTxnId,
        result: Result<SubmitResult, MdbsError>,
        cont: Continuation,
        out: &mut Vec<Reply>,
    ) {
        match result {
            Ok(SubmitResult::Done(outcome)) => self.resume(txn, cont, outcome, out),
            Ok(SubmitResult::Blocked) => {
                self.pending.insert(txn, cont);
                out.push(Reply::Blocked(txn));
            }
            Err(e) => self.fail(txn, cont, e, out),
        }
    }

    /// A step finished: reply, or run the write half of a read-modify-write.
    fn resume(
        &mut self,
        txn: GlobalTxnId,
        cont: Continuation,
        outcome: OpOutcome,
        out: &mut Vec<Reply>,
    ) {
        let site = self.db.site();
        let (item, value, next) = match (cont, outcome) {
            (Continuation::ReplyDone, _) => {
                return out.push(Reply::gtm1(Gtm1Event::ServerDone { txn, site }));
            }
            (Continuation::AckAfter, _) => return out.push(self.ack(txn)),
            (Continuation::AddWrite { item, delta }, OpOutcome::Read(v)) => {
                (item, v + delta, Continuation::ReplyDone)
            }
            (Continuation::TicketWrite, OpOutcome::Read(v)) => {
                (DataItemId::TICKET, v + 1, Continuation::AckAfter)
            }
            (_, other) => unreachable!("{cont:?} continuation expects a read, got {other:?}"),
        };
        let written = self.db.submit_write(txn.into(), item, value);
        self.settle(txn, written, next, out);
    }

    /// A step failed: the local DBMS aborted the subtransaction (any other
    /// engine error still means it cannot proceed).
    fn fail(&mut self, txn: GlobalTxnId, cont: Continuation, e: MdbsError, out: &mut Vec<Reply>) {
        let site = self.db.site();
        let reason = match e {
            MdbsError::Aborted { reason, .. } => reason,
            _ => AbortReason::UserRequested,
        };
        match cont {
            Continuation::ReplyDone | Continuation::AddWrite { .. } => {
                out.push(Reply::gtm1(Gtm1Event::ServerFailed { txn, site, reason }));
            }
            // The serialization event still acknowledges (vacuously) so
            // GTM2's queues drain; GTM1 learns of the failure separately.
            Continuation::AckAfter | Continuation::TicketWrite => {
                out.push(Reply::gtm1(Gtm1Event::SerEventFailed { txn, site, reason }));
                out.push(self.ack(txn));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::SiteId;
    use mdbs_localdb::protocol::LocalProtocolKind::{Optimistic, TwoPhaseLocking};
    use ServerCommand as C;

    const G: GlobalTxnId = GlobalTxnId(1); // runs the command under test
    const H: GlobalTxnId = GlobalTxnId(2); // stands in its way
    const X: DataItemId = DataItemId(7);
    const TICKET: DataItemId = DataItemId::TICKET;
    const SITE: SiteId = SiteId(0);

    /// What makes the command block in the two blocking scenarios.
    #[derive(Clone, Copy, PartialEq)]
    enum Blocker {
        /// Nothing can.
        Never,
        /// H holds a 2PL write lock on the item, having written 10.
        Writer(DataItemId),
        /// H holds a 2PL read lock: G's read half passes, its write parks.
        Reader(DataItemId),
        /// OCC under 2PC: H prepared a write of X before G did.
        Prepared,
    }
    use Blocker::{Never, Prepared, Reader, Writer};

    fn run(server: &mut Server, txn: GlobalTxnId, cmd: ServerCommand) -> Vec<Reply> {
        let mut out = Vec::new();
        server.execute(txn, cmd, &mut out);
        out
    }

    fn ack(txn: GlobalTxnId) -> Reply {
        Reply::Gtm(Arrival::Ack { txn, site: SITE })
    }

    fn done(txn: GlobalTxnId) -> Reply {
        Reply::gtm1(Gtm1Event::ServerDone { txn, site: SITE })
    }

    #[test]
    fn every_command_inline_blocked_then_completed_and_blocked_then_aborted() {
        use SerializationEvent as E;
        let ser = |event, vacuous| C::SerEvent { event, vacuous };
        let (txn, site, reason) = (G, SITE, AbortReason::UserRequested);
        let cmd_failed = Reply::gtm1(Gtm1Event::ServerFailed { txn, site, reason });
        let ser_failed = Reply::gtm1(Gtm1Event::SerEventFailed { txn, site, reason });
        let table = [
            (C::Begin, Never),
            (C::Read(X), Writer(X)),
            (C::Write(X, 5), Writer(X)),
            (C::Add(X, 5), Writer(X)),
            (C::Add(X, 5), Reader(X)),
            (C::Commit, Prepared),
            (C::Prepare, Never),
            (C::AbortSubtxn, Never),
            (ser(E::Begin, false), Never),
            (ser(E::Commit, false), Prepared),
            (ser(E::Prepare, false), Never),
            (ser(E::TicketWrite, false), Writer(TICKET)),
            (ser(E::TicketWrite, false), Reader(TICKET)),
            (ser(E::Commit, true), Never),
        ];
        for (cmd, blocker) in table {
            let (ok, failed) = match cmd {
                C::AbortSubtxn => (vec![], vec![]),
                // GTM2's queue must still drain: the ack follows the failure.
                C::SerEvent { .. } => (vec![ack(G)], vec![ser_failed.clone(), ack(G)]),
                _ => (vec![done(G)], vec![cmd_failed.clone()]),
            };
            for fate in ["inline", "completed", "aborted"] {
                if fate != "inline" && blocker == Never {
                    continue;
                }
                let kind = [TwoPhaseLocking, Optimistic][usize::from(blocker == Prepared)];
                let s = &mut Server::new(LocalDbms::new(SITE, kind));
                if cmd != C::Begin && cmd != ser(E::Begin, false) {
                    run(s, G, C::Begin);
                }
                if fate != "inline" {
                    run(s, H, C::Begin);
                    match blocker {
                        Writer(item) => run(s, H, C::Write(item, 10)),
                        Reader(item) => run(s, H, C::Read(item)),
                        _ => [run(s, H, C::Write(X, 2)), run(s, H, C::Prepare)].concat(),
                    };
                }
                if blocker == Prepared {
                    run(s, G, C::Write(X, 1));
                    run(s, G, C::Prepare);
                }
                let first = run(s, G, cmd);
                if fate == "inline" {
                    assert_eq!(first, ok, "{cmd:?} inline");
                } else {
                    assert_eq!(first, [Reply::Blocked(G)], "{cmd:?} {fate}");
                    let (released, mut expected, tail) = match fate {
                        "completed" => (run(s, H, C::Commit), vec![done(H)], &ok),
                        _ => (run(s, G, C::AbortSubtxn), vec![], &failed),
                    };
                    expected.push(Reply::Unblocked(G));
                    expected.extend(tail.iter().cloned());
                    assert_eq!(released, expected, "{cmd:?} {fate}");
                }
                // A read-modify-write writes what it read, plus its delta.
                let read = match (fate, blocker) {
                    ("completed", Writer(_)) => 10,
                    _ => 0,
                };
                match cmd {
                    _ if fate == "aborted" => {}
                    C::Add(item, delta) => assert_eq!(s.db.storage().read(item), read + delta),
                    C::SerEvent { .. } if matches!(blocker, Writer(_) | Reader(_)) => {
                        assert_eq!(s.db.storage().read(TICKET), read + 1);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn untracked_completions_and_non_abort_errors() {
        let s = &mut Server::new(LocalDbms::new(SITE, TwoPhaseLocking));
        // Any engine error fails the command, abort or not (G never began).
        let (txn, site, reason) = (G, SITE, AbortReason::UserRequested);
        let failed = Reply::gtm1(Gtm1Event::ServerFailed { txn, site, reason });
        assert_eq!(run(s, G, C::Read(X)), [failed]);
        // G blocks behind H without the server's knowledge: when H's commit
        // completes G's read, nothing is routed for it.
        run(s, H, C::Begin);
        run(s, H, C::Write(X, 1));
        s.db.begin(G.into()).unwrap();
        let blocked = s.db.submit_read(G.into(), X);
        assert_eq!(blocked, Ok(SubmitResult::Blocked));
        assert_eq!(run(s, H, C::Commit), [done(H)]);
        assert!(!s.db.is_blocked(G.into()));
    }
}
