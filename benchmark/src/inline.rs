//! The inline coordinator: the traced run of the program-driven workloads.
//!
//! The benchmark is itself the coordinator here — one thread, a GTM1, a
//! GTM2 on the dense kernel, one `LocalDbms` per site and a FIFO of
//! pending messages — so that every call into a layer's public function
//! can be wrapped in a span. Commands map onto engine calls exactly as the
//! threaded runtime's site worker maps them (including the `Add` and
//! ticket read-then-write continuations and the `take_completions`
//! drain). There are no timers: when the FIFO runs dry while transactions
//! remain, the subtransaction blocked longest is aborted with
//! `request_abort`, so a run is deterministic.
//!
//! With span recording off the same driver is the untraced inline
//! baseline for `trace.overhead_share` and
//! `threaded.live_minus_inline_us_per_txn`.

use crate::span::{Span, Tracer};
use mdbs_common::error::{AbortReason, MdbsError};
use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::StepCounter;
use mdbs_core::gtm1::{Gtm1, Gtm1Effect, Gtm1Event, ServerCommand};
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::scheme::{KernelKind, SchemeEffect, SchemeKind};
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::engine::{LocalDbms, OpOutcome, SubmitResult};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_localdb::storage::Value;
use mdbs_schedule::global::check_global;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// A message waiting in the coordinator's FIFO.
enum Msg {
    Gtm1(Gtm1Event),
    Command {
        txn: GlobalTxnId,
        site: SiteId,
        cmd: ServerCommand,
    },
    Ack {
        txn: GlobalTxnId,
        site: SiteId,
    },
}

/// What to do when a blocked engine step completes (the site worker's
/// continuation set).
#[derive(Clone, Copy)]
enum Cont {
    ReplyDone,
    AddWrite { item: DataItemId, delta: Value },
    TicketWrite,
    AckAfter,
}

enum Step {
    Read(DataItemId),
    Write(DataItemId, Value),
    Commit,
}

/// The span name of a GTM2 pump, by the kind of operation that caused it.
pub fn pump_span(kind: QueueOpKind) -> &'static str {
    match kind {
        QueueOpKind::Init => "gtm2.init",
        QueueOpKind::Ser => "gtm2.ser",
        QueueOpKind::Ack => "gtm2.ack",
        QueueOpKind::Fin => "gtm2.fin",
    }
}

/// Outcome of one inline run.
#[derive(Clone, Debug)]
pub struct InlineReport {
    /// Transactions committed everywhere.
    pub commits: u64,
    /// Transactions aborted (not retried, as in the threaded runtime).
    pub aborts: u64,
    /// Protocol violations reported by GTM1 or GTM2.
    pub protocol_violations: u64,
    /// Global serializability audit over the site histories.
    pub serializable: bool,
    /// `ser(S)` as recorded by GTM2 was serializable.
    pub ser_s_ok: bool,
    /// Why the run stopped early, if it did.
    pub wedged: Option<String>,
    /// Wall seconds of the whole run including the audit.
    pub wall_s: f64,
    /// Effects GTM1 returned, over all `handle` calls.
    pub gtm1_effects: u64,
    /// Engine submissions that returned `Blocked`.
    pub db_blocked: u64,
    /// Engine submissions (`submit_read/write/commit`).
    pub db_submits: u64,
    /// Subtransactions begun, summed over sites.
    pub db_begins: u64,
    /// Subtransactions aborted, summed over sites.
    pub db_aborts: u64,
    /// GTM2 counters.
    pub gtm2: Gtm2Stats,
    /// GTM2 abstract step counts.
    pub steps: StepCounter,
    /// Wake candidates examined.
    pub wake_scanned: u64,
    /// The recorded spans (empty with recording off).
    pub spans: Vec<Span>,
}

struct Inline {
    gtm1: Gtm1,
    gtm2: Gtm2,
    sites: Vec<LocalDbms>,
    fifo: VecDeque<Msg>,
    /// Per site: blocked steps with their continuation and the order in
    /// which they blocked.
    pending: Vec<BTreeMap<GlobalTxnId, (Cont, u64)>>,
    block_seq: u64,
    tr: Tracer,
    waiting: VecDeque<GlobalTransaction>,
    done: usize,
    commits: u64,
    aborts: u64,
    violations: u64,
    gtm1_effects: u64,
    db_submits: u64,
    db_blocked: u64,
}

/// Run `programs` to completion on one thread and audit the result.
pub fn run_inline(
    protocols: &[LocalProtocolKind],
    scheme: SchemeKind,
    mpl: usize,
    programs: Vec<GlobalTransaction>,
    record_spans: bool,
) -> InlineReport {
    let site_events: BTreeMap<SiteId, SerializationEvent> = protocols
        .iter()
        .enumerate()
        .map(|(i, &p)| (SiteId(i as u32), SerializationEvent::for_protocol(p)))
        .collect();
    let total = programs.len();
    let mut d = Inline {
        gtm1: Gtm1::new(site_events),
        gtm2: Gtm2::new(scheme.build_kernel(KernelKind::Dense)),
        sites: protocols
            .iter()
            .enumerate()
            .map(|(i, &p)| LocalDbms::new(SiteId(i as u32), p))
            .collect(),
        fifo: VecDeque::new(),
        pending: vec![BTreeMap::new(); protocols.len()],
        block_seq: 0,
        tr: Tracer::new(record_spans),
        waiting: programs.into(),
        done: 0,
        commits: 0,
        aborts: 0,
        violations: 0,
        gtm1_effects: 0,
        db_submits: 0,
        db_blocked: 0,
    };
    let started = Instant::now();
    let root = d.tr.enter("run", 0);
    for _ in 0..mpl.min(total) {
        d.admit();
    }
    let mut wedged = None;
    while d.done < total {
        match d.fifo.pop_front() {
            Some(Msg::Gtm1(event)) => d.gtm1_event(event),
            Some(Msg::Command { txn, site, cmd }) => {
                d.execute(txn, site, cmd);
                d.drain(site);
            }
            Some(Msg::Ack { txn, site }) => d.gtm2_op(QueueOp::Ack { txn, site }),
            None => {
                if let Err(why) = d.break_stall() {
                    wedged = Some(format!("{why}: {}/{total} complete", d.done));
                    break;
                }
            }
        }
    }
    let s = d.tr.enter("schedule.check_global", 0);
    let audit = check_global(d.sites.iter().map(|db| (db.site(), db.history())));
    d.tr.exit(s);
    let s = d.tr.enter("schedule.ser_log_check", 0);
    let ser_s_ok = d.gtm2.ser_log().check().is_ok();
    d.tr.exit(s);
    d.tr.exit(root);
    let wall_s = started.elapsed().as_secs_f64();

    let gtm2 = d.gtm2.stats();
    let (mut db_begins, mut db_aborts) = (0, 0);
    for db in &d.sites {
        db_begins += db.stats().begins;
        db_aborts += db.stats().aborts;
    }
    InlineReport {
        commits: d.commits,
        aborts: d.aborts,
        protocol_violations: d.violations
            + d.gtm1.stats().protocol_violations
            + gtm2.protocol_violations,
        serializable: audit.is_serializable(),
        ser_s_ok,
        wedged,
        wall_s,
        gtm1_effects: d.gtm1_effects,
        db_blocked: d.db_blocked,
        db_submits: d.db_submits,
        db_begins,
        db_aborts,
        gtm2,
        steps: d.gtm2.steps(),
        wake_scanned: d.gtm2.wake_scan_histogram().sum(),
        spans: d.tr.into_spans(),
    }
}

impl Inline {
    fn admit(&mut self) {
        if let Some(next) = self.waiting.pop_front() {
            self.fifo.push_back(Msg::Gtm1(Gtm1Event::Submit(next)));
        }
    }

    fn gtm1_event(&mut self, event: Gtm1Event) {
        let txn = match &event {
            Gtm1Event::Submit(gt) => gt.id,
            Gtm1Event::ServerDone { txn, .. }
            | Gtm1Event::ServerFailed { txn, .. }
            | Gtm1Event::Gtm2SubmitSer { txn, .. }
            | Gtm1Event::SerEventFailed { txn, .. }
            | Gtm1Event::Gtm2Ack { txn, .. } => *txn,
        };
        let s = self.tr.enter("gtm1.handle", txn.0);
        let effects = self.gtm1.handle(event);
        self.tr.exit(s);
        self.gtm1_effects += effects.len() as u64;
        for fx in effects {
            match fx {
                Gtm1Effect::EnqueueGtm2(op) => self.gtm2_op(op),
                Gtm1Effect::Server { txn, site, cmd } => {
                    self.fifo.push_back(Msg::Command { txn, site, cmd });
                }
                Gtm1Effect::Completed { aborted, .. } => {
                    self.done += 1;
                    match aborted {
                        None => self.commits += 1,
                        Some(_) => self.aborts += 1,
                    }
                    self.admit();
                }
            }
        }
    }

    /// Enqueue one operation and pump, as the threaded coordinator does
    /// after every enqueue; the span carries the kind that caused the pump.
    fn gtm2_op(&mut self, op: QueueOp) {
        let s = self.tr.enter(pump_span(op.kind()), op.txn().0);
        self.gtm2.enqueue(op);
        let effects = self.gtm2.pump();
        self.tr.exit(s);
        for fx in effects {
            match fx {
                SchemeEffect::SubmitSer { txn, site } => {
                    self.fifo
                        .push_back(Msg::Gtm1(Gtm1Event::Gtm2SubmitSer { txn, site }));
                }
                SchemeEffect::ForwardAck { txn, site } => {
                    self.fifo
                        .push_back(Msg::Gtm1(Gtm1Event::Gtm2Ack { txn, site }));
                }
                // Conservative schemes never abort; a violation is counted
                // by GTM2 itself. Either way the run fails its check.
                SchemeEffect::AbortGlobal { .. } => self.violations += 1,
                SchemeEffect::ProtocolViolation { .. } => {}
            }
        }
    }

    fn db(&mut self, site: SiteId) -> &mut LocalDbms {
        &mut self.sites[site.index()]
    }

    fn execute(&mut self, txn: GlobalTxnId, site: SiteId, cmd: ServerCommand) {
        match cmd {
            ServerCommand::Begin => match self.begin(txn, site) {
                Ok(()) => self.reply_done(txn, site),
                Err(e) => self.reply_failed(txn, site, &e, false),
            },
            ServerCommand::Read(item) => self.step(txn, site, Step::Read(item), Cont::ReplyDone),
            ServerCommand::Write(item, v) => {
                self.step(txn, site, Step::Write(item, v), Cont::ReplyDone);
            }
            ServerCommand::Add(item, delta) => {
                self.step(txn, site, Step::Read(item), Cont::AddWrite { item, delta });
            }
            ServerCommand::Commit => self.step(txn, site, Step::Commit, Cont::ReplyDone),
            ServerCommand::Prepare => match self.prepare(txn, site) {
                Ok(()) => self.reply_done(txn, site),
                Err(e) => self.reply_failed(txn, site, &e, false),
            },
            ServerCommand::AbortSubtxn => {
                let s = self.tr.enter("localdb.resolve_abort", txn.0);
                // Already-finished subtransactions refuse; that is the
                // expected answer to a global abort that raced a commit.
                let _ = self.db(site).resolve_abort(txn.into());
                self.tr.exit(s);
            }
            ServerCommand::SerEvent { event, vacuous } => {
                if vacuous {
                    self.send_ack(txn, site);
                    return;
                }
                match event {
                    SerializationEvent::Begin => {
                        if let Err(e) = self.begin(txn, site) {
                            self.reply_failed(txn, site, &e, true);
                        }
                        self.send_ack(txn, site);
                    }
                    SerializationEvent::Commit => {
                        self.step(txn, site, Step::Commit, Cont::AckAfter);
                    }
                    SerializationEvent::Prepare => {
                        if let Err(e) = self.prepare(txn, site) {
                            self.reply_failed(txn, site, &e, true);
                        }
                        self.send_ack(txn, site);
                    }
                    SerializationEvent::TicketWrite => {
                        self.step(txn, site, Step::Read(DataItemId::TICKET), Cont::TicketWrite);
                    }
                }
            }
        }
    }

    fn begin(&mut self, txn: GlobalTxnId, site: SiteId) -> Result<(), MdbsError> {
        let s = self.tr.enter("localdb.begin", txn.0);
        let r = self.db(site).begin(txn.into());
        self.tr.exit(s);
        r
    }

    fn prepare(&mut self, txn: GlobalTxnId, site: SiteId) -> Result<(), MdbsError> {
        let s = self.tr.enter("localdb.submit_prepare", txn.0);
        let r = self.db(site).submit_prepare(txn.into());
        self.tr.exit(s);
        r
    }

    fn step(&mut self, txn: GlobalTxnId, site: SiteId, step: Step, cont: Cont) {
        self.db_submits += 1;
        let result = match step {
            Step::Read(item) => {
                let s = self.tr.enter("localdb.submit_read", txn.0);
                let r = self.db(site).submit_read(txn.into(), item);
                self.tr.exit(s);
                r
            }
            Step::Write(item, v) => {
                let s = self.tr.enter("localdb.submit_write", txn.0);
                let r = self.db(site).submit_write(txn.into(), item, v);
                self.tr.exit(s);
                r
            }
            Step::Commit => {
                let s = self.tr.enter("localdb.submit_commit", txn.0);
                let r = self.db(site).submit_commit(txn.into());
                self.tr.exit(s);
                r
            }
        };
        match result {
            Ok(SubmitResult::Done(outcome)) => self.continue_with(txn, site, cont, outcome),
            Ok(SubmitResult::Blocked) => {
                self.db_blocked += 1;
                self.block_seq += 1;
                self.pending[site.index()].insert(txn, (cont, self.block_seq));
            }
            Err(e) => self.step_failed(txn, site, cont, &e),
        }
    }

    fn continue_with(&mut self, txn: GlobalTxnId, site: SiteId, cont: Cont, outcome: OpOutcome) {
        match (cont, outcome) {
            (Cont::ReplyDone, _) => self.reply_done(txn, site),
            (Cont::AddWrite { item, delta }, OpOutcome::Read(v)) => {
                self.step(txn, site, Step::Write(item, v + delta), Cont::ReplyDone);
            }
            (Cont::TicketWrite, OpOutcome::Read(v)) => {
                self.step(
                    txn,
                    site,
                    Step::Write(DataItemId::TICKET, v + 1),
                    Cont::AckAfter,
                );
            }
            (Cont::AckAfter, _) => self.send_ack(txn, site),
            // A read continuation resumed by a non-read outcome: the
            // engine broke its contract; count it so the run fails.
            (Cont::AddWrite { .. } | Cont::TicketWrite, _) => self.violations += 1,
        }
    }

    fn step_failed(&mut self, txn: GlobalTxnId, site: SiteId, cont: Cont, e: &MdbsError) {
        match cont {
            Cont::ReplyDone | Cont::AddWrite { .. } => self.reply_failed(txn, site, e, false),
            Cont::AckAfter | Cont::TicketWrite => {
                self.reply_failed(txn, site, e, true);
                self.send_ack(txn, site);
            }
        }
    }

    /// Route completions of previously blocked steps until none remain.
    fn drain(&mut self, site: SiteId) {
        loop {
            let s = self.tr.enter("localdb.take_completions", 0);
            let completions = self.db(site).take_completions();
            self.tr.exit(s);
            if completions.is_empty() {
                return;
            }
            for comp in completions {
                let Some(g) = comp.txn.as_global() else {
                    continue;
                };
                let Some((cont, _)) = self.pending[site.index()].remove(&g) else {
                    continue;
                };
                match comp.outcome {
                    Ok(outcome) => self.continue_with(g, site, cont, outcome),
                    Err(e) => self.step_failed(g, site, cont, &e),
                }
            }
        }
    }

    fn reply_done(&mut self, txn: GlobalTxnId, site: SiteId) {
        self.fifo
            .push_back(Msg::Gtm1(Gtm1Event::ServerDone { txn, site }));
    }

    fn reply_failed(&mut self, txn: GlobalTxnId, site: SiteId, e: &MdbsError, ser: bool) {
        let reason = match e {
            MdbsError::Aborted { reason, .. } => *reason,
            _ => AbortReason::UserRequested,
        };
        let event = if ser {
            Gtm1Event::SerEventFailed { txn, site, reason }
        } else {
            Gtm1Event::ServerFailed { txn, site, reason }
        };
        self.fifo.push_back(Msg::Gtm1(event));
    }

    fn send_ack(&mut self, txn: GlobalTxnId, site: SiteId) {
        self.fifo.push_back(Msg::Ack { txn, site });
    }

    /// The FIFO is empty and transactions remain: every one of them waits
    /// on a lock (or on GTM2 behind a lock-waiter). Abort the
    /// subtransaction that has been blocked longest.
    fn break_stall(&mut self) -> Result<(), String> {
        let victim = self
            .pending
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.iter().map(move |(txn, (_, seq))| (*seq, i, *txn)))
            .min();
        let Some((_, i, txn)) = victim else {
            return Err(format!(
                "wedged with nothing blocked (gtm2 wait {} queue {})",
                self.gtm2.wait_len(),
                self.gtm2.queue_len()
            ));
        };
        let site = SiteId(i as u32);
        let s = self.tr.enter("localdb.request_abort", txn.0);
        let r = self.db(site).request_abort(txn.into());
        self.tr.exit(s);
        if let Err(e) = r {
            // A prepared transaction cannot be aborted locally; nothing in
            // these workloads prepares, so this is a wedge, not a retry.
            return Err(format!("request_abort({txn}) refused: {e}"));
        }
        self.drain(site);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{programs, WorkloadId};
    use crate::measure::SCHEMES;

    #[test]
    fn inline_driver_commits_or_aborts_everything_and_repeats() {
        for id in [WorkloadId::LiveSpread, WorkloadId::DesContended] {
            let globals = programs(id, 50, 21).globals;
            for scheme in SCHEMES {
                let run =
                    |spans| run_inline(&id.protocols(), scheme, id.mpl(), globals.clone(), spans);
                let a = run(true);
                assert_eq!(a.wedged, None, "{} {scheme}", id.name());
                assert_eq!(a.commits + a.aborts, 50, "{} {scheme}", id.name());
                assert!(a.serializable, "{} {scheme}: check_global", id.name());
                assert!(a.ser_s_ok, "{} {scheme}: ser log", id.name());
                assert_eq!(a.protocol_violations, 0);
                assert!(a.commits > 0);
                let b = run(false);
                assert!(b.spans.is_empty());
                let counts = |r: &InlineReport| {
                    (
                        r.commits,
                        r.aborts,
                        r.db_aborts,
                        r.gtm2,
                        r.steps,
                        r.wake_scanned,
                        r.db_submits,
                        r.db_blocked,
                    )
                };
                assert_eq!(
                    counts(&a),
                    counts(&b),
                    "{} {scheme}: runs differ",
                    id.name()
                );
                // One root; every other span has a parent; pumps are tagged.
                assert_eq!(
                    a.spans
                        .iter()
                        .filter(|s| s.parent == crate::span::NO_PARENT)
                        .count(),
                    1
                );
                assert!(a.spans.iter().any(|s| s.name == "gtm2.fin" && s.txn > 0));
            }
        }
    }
}
