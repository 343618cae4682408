//! GTM2 — the Basic_Scheme engine of Figure 3.
//!
//! ```text
//! procedure Basic_Scheme():
//!   Initialize data structures;
//!   while (true)
//!     Select operation o_j from the front of QUEUE;
//!     if cond(o_j) then
//!        act(o_j);
//!        while (there exists o_l ∈ WAIT such that cond(o_l)) do
//!            act(o_l);  WAIT := WAIT − {o_l}
//!     else WAIT := WAIT ∪ {o_j};
//! ```
//!
//! [`Gtm2::pump`] runs this loop over whatever is currently in QUEUE; the
//! surrounding system calls [`Gtm2::enqueue`] as GTM1 and the servers
//! produce operations. The inner "while exists" search is driven by the
//! scheme's [`wake_candidates`](crate::scheme::Gtm2Scheme::wake_candidates)
//! hints, and the engine charges each hint's `WaitScan` steps by the one
//! rule [`WakeCandidates`] states, so each scheme pays exactly its own
//! rescan cost. The hints become a worklist of `Pending` entries: a site's
//! waiting sers and the waiting fins are one entry each, walked in key
//! order straight off WAIT's ordered indexes when the worklist reaches
//! them, and anything else is one key. A waiter is re-tested where it sits
//! and leaves WAIT only when eligible. Re-tests a scheme proves must fail
//! are charged their steps without being run (`gtm2.wake_elided` counts
//! them; `gtm2.retests_ser` and `gtm2.retests_fin` count the re-tests that
//! run); Scheme 1's dense kernel asks for three, Scheme 3's for the last
//! two:
//!
//! - after an `ack`, the waiting fins ([`WakeCandidates::SerAtFinsCharged`]);
//! - after a `fin`, every waiting fin but the ones the scheme names ready
//!   ([`WakeCandidates::FinPass`], run by `fin_pass`): Scheme 1's
//!   delete-queue fronts, Scheme 3's transactions whose `ser_bef` row a
//!   `fin` emptied;
//! - in a site's [`WakeCandidates::SerAt`] range, every `ser` but the one
//!   the scheme names ready, in one charge
//!   ([`ser_ready_at`](crate::scheme::Gtm2Scheme::ser_ready_at)): none
//!   once `k` has an outstanding `ser` (Scheme 1) or an unacked `last_k`
//!   (Scheme 3), and, for Scheme 1, the insert-queue front once no
//!   insert-queue member at `k` is unmarked there.
//!
//! The engine also maintains the [`SerSLog`] — the order in which
//! `ser_k(G_i)` operations were acted — from which the serializability of
//! `ser(S)` is checked (Theorems 3, 5, 8 empirically).
//!
//! This module is the **only** implementation of the loop: one [`Gtm2`]
//! holds the one QUEUE, the one WAIT and the scheme, as the paper's GTM2 is
//! one process.

use crate::scheme::{
    wait_key, Gtm2Scheme, Pending, SchemeEffect, WaitKey, WaitSet, WakeCandidates,
};
use crate::ser_s::SerSLog;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{Histogram, Registry, SchedEvent};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::{StepCounter, StepKind};
use std::collections::VecDeque;

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gtm2Stats {
    /// Operations inserted into QUEUE.
    pub enqueued: u64,
    /// Operations acted (processed successfully).
    pub processed: u64,
    /// Operations added to WAIT at least once — the paper's degree-of-
    /// concurrency metric (fewer is better).
    pub waited: u64,
    /// Operations added to WAIT, by kind `[init, ser, ack, fin]`. The
    /// paper's Scheme 3 all-serializable-schedules claim is about the `ser`
    /// component.
    pub waited_kind: [u64; 4],
    /// Global transactions aborted by the scheme (always 0 for the paper's
    /// conservative schemes; nonzero only for baselines).
    pub scheme_aborts: u64,
    /// `init` operations processed (transactions entering GTM2).
    pub inits: u64,
    /// `fin` operations processed (transactions leaving GTM2).
    pub fins: u64,
    /// Peak size of the WAIT set.
    pub peak_wait: u64,
    /// Peak number of concurrently active transactions (`n` observed).
    pub peak_active: u64,
    /// Broken internal invariants a scheme reported as
    /// [`SchemeEffect::ProtocolViolation`]: today only Scheme 2's dense
    /// kernel, when its dependency accounting desyncs. Malformed input is
    /// refused before GTM2 (see [`Gtm2::enqueue`]), so this stays 0.
    pub protocol_violations: u64,
}

/// The GTM2 scheduler: QUEUE + WAIT + a scheme.
///
/// ```
/// use mdbs_core::gtm2::Gtm2;
/// use mdbs_core::scheme::{SchemeEffect, SchemeKind};
/// use mdbs_common::ids::{GlobalTxnId, SiteId};
/// use mdbs_common::ops::QueueOp;
///
/// let mut gtm2 = Gtm2::new(SchemeKind::Scheme0.build());
/// gtm2.enqueue(QueueOp::Init { txn: GlobalTxnId(1), sites: vec![SiteId(0)] });
/// gtm2.enqueue(QueueOp::Ser { txn: GlobalTxnId(1), site: SiteId(0) });
/// let effects = gtm2.pump();
/// assert_eq!(
///     effects,
///     vec![SchemeEffect::SubmitSer { txn: GlobalTxnId(1), site: SiteId(0) }],
/// );
/// ```
pub struct Gtm2 {
    /// Operations inserted but not yet examined, in insertion order.
    queue: VecDeque<QueueOp>,
    /// Operations whose `cond` failed, each with its recorded `Cond` charge.
    wait: WaitSet,
    scheme: Box<dyn Gtm2Scheme + Send>,
    steps: StepCounter,
    stats: Gtm2Stats,
    ser_log: SerSLog,
    /// Currently active transactions (`init`ed, not `fin`ished).
    active: u64,
    /// Re-tests charged in closed form instead of being run: the waiting
    /// fins of [`WakeCandidates::SerAtFinsCharged`], the fins a
    /// [`WakeCandidates::FinPass`] does not re-test, and the sers of a
    /// range [`Gtm2Scheme::ser_ready_at`] charges.
    wake_elided: u64,
    /// `cond` evaluations the wake loop ran on waiting `ser`s.
    retests_ser: u64,
    /// `cond` evaluations the wake loop ran on waiting `fin`s.
    retests_fin: u64,
    /// Wake candidates examined per act (log₂ histogram).
    wake_scan: Histogram,
    /// Reusable buffer for the cascading wake worklist (no per-act
    /// allocation).
    wake_buf: VecDeque<Pending>,
    /// Reusable buffer for a fin pass's ready fins.
    ready_buf: Vec<GlobalTxnId>,
    /// Validate scheme invariants after every act (used by tests).
    validate: bool,
    /// Structured events not yet drained; `None` = tracing off (one
    /// branch, no formatting or allocation on the hot path).
    trace: Option<Vec<SchedEvent>>,
}

impl Gtm2 {
    /// Create an engine around a scheme, with tracing off; use
    /// [`Gtm2::set_tracing`] to record structured events.
    pub fn new(scheme: Box<dyn Gtm2Scheme + Send>) -> Self {
        Gtm2 {
            queue: VecDeque::new(),
            wait: WaitSet::new(),
            scheme,
            steps: StepCounter::new(),
            stats: Gtm2Stats::default(),
            ser_log: SerSLog::new(),
            active: 0,
            wake_elided: 0,
            retests_ser: 0,
            retests_fin: 0,
            wake_scan: Histogram::new(),
            wake_buf: VecDeque::new(),
            ready_buf: Vec::new(),
            validate: cfg!(debug_assertions),
            trace: None,
        }
    }

    /// Enable/disable per-act scheme invariant validation.
    pub fn set_validate(&mut self, on: bool) {
        self.validate = on;
    }

    /// Start (or stop) recording structured events; stopping drops any not
    /// yet drained. Can be toggled mid-run; scheduling behavior is
    /// unaffected either way.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = on.then(Vec::new);
    }

    /// The events recorded since the last drain, in order. Unstamped: the
    /// engine has no clock, so whoever drives it stamps them.
    pub fn drain_events(&mut self) -> impl Iterator<Item = SchedEvent> + '_ {
        self.trace.iter_mut().flat_map(|trace| trace.drain(..))
    }

    /// Wake candidates examined per act.
    pub fn wake_scan_histogram(&self) -> &Histogram {
        &self.wake_scan
    }

    /// Export counters, gauges and the wake-scan histogram into `registry`
    /// under the `gtm2.` prefix, then the scheme's own metrics.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let s = &self.stats;
        registry.inc("gtm2.enqueued", s.enqueued);
        registry.inc("gtm2.processed", s.processed);
        registry.inc("gtm2.waited", s.waited);
        registry.inc("gtm2.waited.init", s.waited_kind[0]);
        registry.inc("gtm2.waited.ser", s.waited_kind[1]);
        registry.inc("gtm2.waited.ack", s.waited_kind[2]);
        registry.inc("gtm2.waited.fin", s.waited_kind[3]);
        registry.inc("gtm2.scheme_aborts", s.scheme_aborts);
        registry.inc("gtm2.inits", s.inits);
        registry.inc("gtm2.fins", s.fins);
        registry.inc("gtm2.protocol_violations", s.protocol_violations);
        registry.inc("gtm2.steps.cond", self.steps.cond);
        registry.inc("gtm2.steps.act", self.steps.act);
        registry.inc("gtm2.steps.wait_scan", self.steps.wait_scan);
        registry.max_gauge("gtm2.peak_wait", s.peak_wait as i64);
        registry.max_gauge("gtm2.peak_active", s.peak_active as i64);
        registry.merge_histogram("gtm2.wake_scan", &self.wake_scan);
        registry.inc("gtm2.wake_elided", self.wake_elided);
        registry.inc("gtm2.retests_ser", self.retests_ser);
        registry.inc("gtm2.retests_fin", self.retests_fin);
        self.scheme.export_metrics(registry);
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Accumulated abstract step counts.
    pub fn steps(&self) -> StepCounter {
        self.steps
    }

    /// Engine counters.
    pub fn stats(&self) -> Gtm2Stats {
        self.stats
    }

    /// The recorded `ser(S)` log.
    pub fn ser_log(&self) -> &SerSLog {
        &self.ser_log
    }

    /// Number of operations currently waiting.
    pub fn wait_len(&self) -> usize {
        self.wait.len()
    }

    /// Number of operations queued but not yet examined.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Insert an operation at the end of QUEUE.
    ///
    /// Every caller keeps Figure 2's order, and GTM2 and its kernels
    /// assume it (debug builds assert parts of it):
    ///
    /// - an `init_i` names no live transaction;
    /// - a `ser_k(G_i)` follows `init_i`, names a site `init_i` announced,
    ///   and is sent once;
    /// - an `ack(ser_k(G_i))` follows the `SubmitSer` of its `ser`, and is
    ///   sent once;
    /// - a `fin_i` follows `init_i`, and is sent once. It may come before
    ///   the transaction's acks (a baseline's aborted victim does).
    ///
    /// The callers are GTM1 behind the
    /// [`Coordinator`](crate::coordinator::Coordinator)'s door, the replay
    /// harness ([`crate::replay`]) and the benchmark's inline drain.
    /// Malformed input from outside is refused at the door, never here.
    pub fn enqueue(&mut self, op: QueueOp) {
        if let Some(trace) = &mut self.trace {
            trace.push(SchedEvent::enqueue(&op));
        }
        self.queue.push_back(op);
        self.stats.enqueued += 1;
    }

    /// Run the Basic_Scheme loop until QUEUE is empty. Returns the effects
    /// produced, in order.
    pub fn pump(&mut self) -> Vec<SchemeEffect> {
        let mut out = Vec::new();
        self.pump_into(&mut out);
        out
    }

    /// [`Gtm2::pump`], appending the effects to `out`: a caller that keeps
    /// `out` between rounds pumps without allocating.
    pub fn pump_into(&mut self, out: &mut Vec<SchemeEffect>) {
        while let Some(op) = self.queue.pop_front() {
            self.process_op(op, out);
        }
    }

    /// `if cond(o_j) then act(o_j); re-examine WAIT else WAIT := WAIT ∪ {o_j}`.
    fn process_op(&mut self, op: QueueOp, out: &mut Vec<SchemeEffect>) {
        let cond_before = self.steps.cond;
        let eligible = self.scheme.cond(&op, &mut self.steps);
        if let Some(trace) = &mut self.trace {
            trace.push(SchedEvent::cond(&op, eligible));
        }
        if eligible {
            let mut candidates = std::mem::take(&mut self.wake_buf);
            candidates.clear();
            self.act_one(&op, false, out, &mut candidates);
            self.cascade(candidates, out);
            return;
        }
        let kind = op.kind();
        let wait_event = SchedEvent::wait(&op);
        let inserted = self.wait.insert(op, self.steps.cond - cond_before);
        debug_assert!(inserted, "an operation was enqueued twice");
        if let Some(trace) = &mut self.trace {
            trace.push(wait_event);
        }
        self.stats.waited += 1;
        match kind {
            QueueOpKind::Init => self.stats.waited_kind[0] += 1,
            QueueOpKind::Ser => self.stats.waited_kind[1] += 1,
            QueueOpKind::Ack => self.stats.waited_kind[2] += 1,
            QueueOpKind::Fin => self.stats.waited_kind[3] += 1,
        }
        self.stats.peak_wait = self.stats.peak_wait.max(self.wait.len() as u64);
    }

    /// `act(op)`: bookkeeping, scheme act, effect recording, and the wake
    /// candidates it seeds.
    fn act_one(
        &mut self,
        acted: &QueueOp,
        woken: bool,
        out: &mut Vec<SchemeEffect>,
        candidates: &mut VecDeque<Pending>,
    ) {
        if let Some(trace) = &mut self.trace {
            let ev = if woken {
                SchedEvent::wake(acted)
            } else {
                SchedEvent::act(acted)
            };
            trace.push(ev);
        }
        self.note_processed(acted);
        let start = out.len();
        self.scheme.act(acted, &mut self.steps, out);
        if self.validate {
            self.scheme.debug_validate();
        }
        for effect in out.iter().skip(start) {
            match effect {
                SchemeEffect::SubmitSer { txn, site } => self.ser_log.record(*txn, *site),
                SchemeEffect::AbortGlobal { txn } => {
                    self.stats.scheme_aborts += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.push(SchedEvent::Abort { txn: *txn });
                    }
                }
                SchemeEffect::ForwardAck { .. } => {}
                SchemeEffect::ProtocolViolation { .. } => {
                    self.stats.protocol_violations += 1;
                }
            }
        }
        self.push_wake_candidates(acted, candidates);
    }

    /// The wake candidates for an acted operation, appended to
    /// `candidates` (resolved against WAIT without allocating), and their
    /// wait-scan charge. Every waiting fin a closed form covers is counted
    /// as scanned, as its literal re-test would be: `scanned` goes into
    /// the wake-scan histogram, and [`wait_scan_charge`] turns it into
    /// `WaitScan` steps. Where the scheme asks for the waiting fins to be
    /// charged outright ([`WakeCandidates::SerAtFinsCharged`]), this is
    /// where they are: their recorded `Cond` steps added, none of them put
    /// on the worklist. A [`WakeCandidates::FinPass`] is charged when the
    /// worklist reaches it.
    fn push_wake_candidates(&mut self, acted: &QueueOp, candidates: &mut VecDeque<Pending>) {
        let wake = self.scheme.wake_candidates(acted, &self.wait);
        let mut scanned = self.wait.resolve_into(&wake, candidates) as u64;
        let fins = self.wait.fin_count() as u64;
        if let WakeCandidates::SerAtFinsCharged(_) = wake {
            debug_check_fin_charges(&self.wait, self.scheme.as_ref(), |_| false);
            self.steps.bump(StepKind::Cond, self.wait.fin_cond_cost());
            self.wake_elided += fins;
            scanned += fins;
        } else if wake == WakeCandidates::FinPass {
            scanned += fins;
        }
        self.steps
            .bump(StepKind::WaitScan, wait_scan_charge(&wake, scanned));
        self.wake_scan.observe(scanned);
    }

    /// Figure 3's inner loop, `while ∃ o_l ∈ WAIT with cond(o_l): act(o_l)`.
    /// Each candidate is re-tested **in place** — `cond` on the operation
    /// where it waits, or on one rebuilt from its key — and leaves WAIT
    /// only if it is eligible, so a failing re-test costs its `cond` and
    /// nothing else. An eligible waiter is acted **immediately**, with
    /// `cond` evaluated against the *current* data structures, and its own
    /// candidates join the worklist: batching the eligibility checks would
    /// let two mutually exclusive operations (e.g. two ser ops at one site
    /// whose conds both looked true before either acted) slip through
    /// together. No operation joins WAIT during a cascade, so WAIT only
    /// shrinks — the fact the range entries and both closed forms below
    /// rest on. Takes ownership of the seeded worklist (the reusable
    /// buffer) and parks it back when drained.
    fn cascade(&mut self, mut worklist: VecDeque<Pending>, out: &mut Vec<SchemeEffect>) {
        while let Some(next) = worklist.pop_front() {
            match next {
                Pending::Key(key) => self.retest(&key, out, &mut worklist),
                Pending::SerAt(site) => self.retest_range(Some(site), out, &mut worklist),
                Pending::Fins => self.retest_range(None, out, &mut worklist),
                Pending::FinPass => self.fin_pass(out, &mut worklist),
            }
        }
        self.wake_buf = worklist;
    }

    /// Re-test the operation waiting under `key` and act it if it is
    /// eligible.
    fn retest(
        &mut self,
        key: &WaitKey,
        out: &mut Vec<SchemeEffect>,
        worklist: &mut VecDeque<Pending>,
    ) {
        // `None`: still not eligible, or woken already by an earlier
        // candidate of the same cascade.
        let woken = self.wait.take_if(key, |waiting| {
            match waiting.kind() {
                QueueOpKind::Ser => self.retests_ser += 1,
                QueueOpKind::Fin => self.retests_fin += 1,
                QueueOpKind::Init | QueueOpKind::Ack => {}
            }
            let eligible = self.scheme.cond(waiting, &mut self.steps);
            if let Some(trace) = &mut self.trace {
                trace.push(SchedEvent::cond(waiting, eligible));
            }
            eligible
        });
        if let Some(woken) = woken {
            self.act_one(&woken, true, out, worklist);
        }
    }

    /// Re-test a range entry: the `Ser`s waiting at `site`
    /// ([`Pending::SerAt`]) or, for `None`, the waiting `Fin`s
    /// ([`Pending::Fins`]), in key order straight off WAIT's ordered index.
    /// `cond` runs on the operation rebuilt from the index, so a failing
    /// re-test touches neither the map nor the index; a passing one leaves
    /// WAIT, acts, and the walk resumes above it.
    ///
    /// A `ser` range asks the scheme ([`Gtm2Scheme::ser_ready_at`]) when
    /// it starts and after each wake; an answer ends the walk, which
    /// `retest_ready` finishes. The sers waiting above the cursor are the
    /// site's waiting sers less the ones that failed in this walk (each
    /// below the cursor, none woken since).
    fn retest_range(
        &mut self,
        site: Option<SiteId>,
        out: &mut Vec<SchemeEffect>,
        worklist: &mut VecDeque<Pending>,
    ) {
        let mut cursor = None;
        let mut failed = 0;
        loop {
            if let Some(site) = site {
                if let Some((ready, charge)) = self.scheme.ser_ready_at(site) {
                    let rest = self.wait.ser_count_at(site) as u64 - failed;
                    self.retest_ready(site, cursor, rest, (ready, charge), out, worklist);
                    return;
                }
            }
            let scheme = self.scheme.as_ref();
            let (steps, trace) = (&mut self.steps, &mut self.trace);
            let woken = match site {
                Some(site) => first_eligible(
                    scheme,
                    steps,
                    trace,
                    (&mut failed, &mut self.retests_ser),
                    self.wait
                        .sers_above(site, cursor)
                        .map(|txn| QueueOp::Ser { txn, site }),
                ),
                None => first_eligible(
                    scheme,
                    steps,
                    trace,
                    (&mut failed, &mut self.retests_fin),
                    self.wait.fins_above(cursor).map(|txn| QueueOp::Fin { txn }),
                ),
            };
            let Some(woken) = woken else {
                return;
            };
            cursor = Some(woken.txn());
            let taken = self.wait.take_if(&wait_key(&woken), |_| true);
            debug_assert!(taken.is_some(), "{woken:?} was re-tested off WAIT's index");
            self.act_one(&woken, true, out, worklist);
        }
    }

    /// Finish a `ser` range at `site` on the scheme's answer `(ready, c)`:
    /// of the `rest` sers waiting above `cursor`, re-test only `ready`'s
    /// (if it is one of them) and act it if it passes, and charge every
    /// other one `c` `Cond` steps in one sum, counted as elided and left in
    /// WAIT. The literal walk would re-test the ones below `ready` before it
    /// acts and the ones above after; the answer says each fails at `c`
    /// either way. Debug builds re-test every charged ser on both sides of
    /// the act and assert that it fails at `c`.
    fn retest_ready(
        &mut self,
        site: SiteId,
        cursor: Option<GlobalTxnId>,
        rest: u64,
        (ready, charge): (Option<GlobalTxnId>, u64),
        out: &mut Vec<SchemeEffect>,
        worklist: &mut VecDeque<Pending>,
    ) {
        let ready = ready.filter(|&txn| {
            Some(txn) > cursor && self.wait.contains(&(QueueOpKind::Ser, txn, Some(site)))
        });
        let charged = rest - u64::from(ready.is_some());
        debug_check_ser_charges(
            &self.wait,
            self.scheme.as_ref(),
            site,
            (cursor, charged),
            ready,
            charge,
        );
        self.steps.bump(StepKind::Cond, charge * charged);
        self.wake_elided += charged;
        let Some(txn) = ready else {
            return;
        };
        let key = (QueueOpKind::Ser, txn, Some(site));
        self.retest(&key, out, worklist);
        if !self.wait.contains(&key) {
            let scheme = self.scheme.as_ref();
            debug_check_ser_charges(&self.wait, scheme, site, (cursor, charged), None, charge);
        }
    }

    /// One pass over the waiting fins in closed form
    /// ([`WakeCandidates::FinPass`]): the charges and wakes of the literal
    /// pass, which re-tests every fin waiting when it starts once, in key
    /// order, for the re-tests of the scheme's ready fins only.
    ///
    /// - *The charge is one sum.* WAIT only shrinks during a cascade, and a
    ///   fin leaves it only through its own re-test, so the literal pass
    ///   re-tests each fin waiting when it starts exactly once, at the `Cond`
    ///   charge recorded when the fin joined WAIT: [`WaitSet::fin_cond_cost`],
    ///   taken when the pass starts.
    /// - *Only a ready fin can pass.* The pass re-tests the lowest waiting
    ///   fin [`Gtm2Scheme::ready_fins`] names above a cursor; every waiting fin
    ///   between the cursor and it fails, as its literal re-test would.
    /// - *The ready set is re-read after each wake.* The wake's act can make a
    ///   later fin ready, and the literal pass reaches that fin in this same
    ///   pass; one it makes ready at or below the cursor is re-tested by the
    ///   pass the wake queued.
    ///
    /// The re-tests run on a scratch counter; every waiting fin not re-tested
    /// counts into `gtm2.wake_elided` and emits no `Cond` event.
    fn fin_pass(&mut self, out: &mut Vec<SchemeEffect>, worklist: &mut VecDeque<Pending>) {
        let mut ready = std::mem::take(&mut self.ready_buf);
        let waiting = self.wait.fin_count() as u64;
        self.steps.bump(StepKind::Cond, self.wait.fin_cond_cost());
        let mut retested = 0;
        let mut cursor = None;
        'pass: loop {
            ready.clear();
            self.scheme.ready_fins(&mut ready);
            ready.sort_unstable();
            debug_check_fin_charges(&self.wait, self.scheme.as_ref(), |txn| {
                ready.binary_search(&txn).is_ok()
            });
            for &txn in &ready {
                if Some(txn) <= cursor {
                    continue;
                }
                cursor = Some(txn);
                let woken = self.wait.take_if(&(QueueOpKind::Fin, txn, None), |fin| {
                    retested += 1;
                    let eligible = self.scheme.cond(fin, &mut StepCounter::new());
                    if let Some(trace) = &mut self.trace {
                        trace.push(SchedEvent::cond(fin, eligible));
                    }
                    eligible
                });
                if let Some(woken) = woken {
                    self.act_one(&woken, true, out, worklist);
                    continue 'pass;
                }
            }
            break;
        }
        self.wake_elided += waiting - retested;
        self.retests_fin += retested;
        self.ready_buf = ready;
    }

    /// Stats bookkeeping for a processed operation.
    fn note_processed(&mut self, op: &QueueOp) {
        self.stats.processed += 1;
        match op.kind() {
            QueueOpKind::Init => {
                self.stats.inits += 1;
                self.active += 1;
                self.stats.peak_active = self.stats.peak_active.max(self.active);
            }
            QueueOpKind::Fin => {
                self.stats.fins += 1;
                self.active -= 1;
            }
            QueueOpKind::Ser | QueueOpKind::Ack => {}
        }
    }
}

impl std::fmt::Debug for Gtm2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gtm2")
            .field("scheme", &self.scheme.name())
            .field("queue", &self.queue.len())
            .field("wait", &self.wait.len())
            .finish()
    }
}

/// The `WaitScan` steps for naming `scanned` waiters with `wake`, the rule
/// [`WakeCandidates`] states: naming nothing or one key is one step, a
/// full rescan is one step per waiter, and a range or filter is one step
/// to find it plus one per waiter it names.
fn wait_scan_charge(wake: &WakeCandidates, scanned: u64) -> u64 {
    match wake {
        WakeCandidates::None | WakeCandidates::One(_) => 1,
        WakeCandidates::All => scanned,
        WakeCandidates::SerAt(_)
        | WakeCandidates::Fins
        | WakeCandidates::SerAtThenFins(_)
        | WakeCandidates::SerAtFinsCharged(_)
        | WakeCandidates::FinPass
        | WakeCandidates::Inits
        | WakeCandidates::SerOf(_) => 1 + scanned,
    }
}

/// `cond(op)` on a scratch counter: the verdict and the `Cond` steps a
/// re-test would charge.
fn retest_charge(scheme: &dyn Gtm2Scheme, op: &QueueOp) -> (bool, u64) {
    let mut fresh = StepCounter::new();
    let eligible = scheme.cond(op, &mut fresh);
    (eligible, fresh.cond)
}

/// Re-test `ops` in order on the engine's counter and trace until one is
/// eligible, and return it; each re-test adds one to `ran`, and each failing
/// one one to `failed`.
fn first_eligible(
    scheme: &dyn Gtm2Scheme,
    steps: &mut StepCounter,
    trace: &mut Option<Vec<SchedEvent>>,
    (failed, ran): (&mut u64, &mut u64),
    ops: impl Iterator<Item = QueueOp>,
) -> Option<QueueOp> {
    for op in ops {
        *ran += 1;
        let eligible = scheme.cond(&op, steps);
        if let Some(trace) = trace {
            trace.push(SchedEvent::cond(&op, eligible));
        }
        if eligible {
            return Some(op);
        }
        *failed += 1;
    }
    None
}

/// Debug builds: the promise of a [`Gtm2Scheme::ser_ready_at`] answer.
/// Every `ser` waiting at `site` but `ready`'s fails its `cond`, evaluated
/// now, at `charge` `Cond` steps, and `n` of them wait above `cursor`.
/// Release builds skip the walk.
fn debug_check_ser_charges(
    wait: &WaitSet,
    scheme: &dyn Gtm2Scheme,
    site: SiteId,
    (cursor, n): (Option<GlobalTxnId>, u64),
    ready: Option<GlobalTxnId>,
    charge: u64,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut above = 0;
    for txn in wait
        .sers_above(site, None)
        .filter(|&txn| Some(txn) != ready)
    {
        let blocked = QueueOp::Ser { txn, site };
        debug_assert_eq!(
            retest_charge(scheme, &blocked),
            (false, charge),
            "{blocked:?}: a charged ser must fail at the stated charge"
        );
        above += u64::from(Some(txn) > cursor);
    }
    debug_assert_eq!(above, n, "site {site}: the range's count is stale");
}

/// Debug builds: the precondition of a closed-form fin charge. Every
/// waiting fin's `cond`, evaluated now, charges exactly the `Cond` steps
/// WAIT recorded when the fin joined it, and a fin whose `cond` holds is
/// one `may_pass` admits. Release builds skip the walk.
fn debug_check_fin_charges(
    wait: &WaitSet,
    scheme: &dyn Gtm2Scheme,
    may_pass: impl Fn(GlobalTxnId) -> bool,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (fin, recorded) in wait.fin_waiters() {
        let (eligible, charge) = retest_charge(scheme, fin);
        debug_assert_eq!(charge, recorded, "{fin:?}: recorded fin charge is stale");
        debug_assert!(
            !eligible || may_pass(fin.txn()),
            "{fin:?} can pass but the closed form does not re-test it"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;
    use mdbs_common::ids::{GlobalTxnId, SiteId};

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    /// Drive one transaction through Scheme 0 end to end.
    #[test]
    fn single_txn_flows_through() {
        let mut e = Gtm2::new(SchemeKind::Scheme0.build());
        e.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0), s(1)],
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(1),
        });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![
                SchemeEffect::SubmitSer {
                    txn: g(1),
                    site: s(0)
                },
                SchemeEffect::SubmitSer {
                    txn: g(1),
                    site: s(1)
                },
            ]
        );
        e.enqueue(QueueOp::Ack {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ack {
            txn: g(1),
            site: s(1),
        });
        e.enqueue(QueueOp::Fin { txn: g(1) });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![
                SchemeEffect::ForwardAck {
                    txn: g(1),
                    site: s(0)
                },
                SchemeEffect::ForwardAck {
                    txn: g(1),
                    site: s(1)
                },
            ]
        );
        assert_eq!(e.stats().processed, 6);
        assert_eq!(e.stats().waited, 0);
        assert_eq!(e.wait_len(), 0);
        assert!(e.ser_log().check().is_ok());
    }

    /// Two transactions at one site: the second ser op waits for the
    /// first's ack under Scheme 0.
    #[test]
    fn contention_waits_and_wakes() {
        let mut e = Gtm2::new(SchemeKind::Scheme0.build());
        e.enqueue(QueueOp::Init {
            txn: g(1),
            sites: vec![s(0)],
        });
        e.enqueue(QueueOp::Init {
            txn: g(2),
            sites: vec![s(0)],
        });
        e.enqueue(QueueOp::Ser {
            txn: g(1),
            site: s(0),
        });
        e.enqueue(QueueOp::Ser {
            txn: g(2),
            site: s(0),
        });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(1),
                site: s(0)
            }]
        );
        assert_eq!(e.wait_len(), 1);
        assert_eq!(e.stats().waited, 1);
        // Ack of g1 wakes g2's ser.
        e.enqueue(QueueOp::Ack {
            txn: g(1),
            site: s(0),
        });
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![
                SchemeEffect::ForwardAck {
                    txn: g(1),
                    site: s(0)
                },
                SchemeEffect::SubmitSer {
                    txn: g(2),
                    site: s(0)
                },
            ]
        );
        assert_eq!(e.wait_len(), 0);
    }

    /// A scheme whose verdicts are scripted: a `ser` or `fin` of a
    /// transaction in `pass` is eligible, anything else fails, at one
    /// `Cond` step — with two exceptions at a site, each also
    /// `ser_ready_at`'s answer there. Once a `ser` has acted at the site
    /// and `block` is `Some(c)`, every `ser` there fails at `c`:
    /// `(None, c)`. Before that, if `ready` is `Some((r, c))`, every `ser`
    /// there but `r`'s fails at `c`: `(r, c)`. Acts change nothing else,
    /// and every act names `wake` as its wake candidates.
    struct Scripted {
        pass: Vec<u64>,
        block: Option<u64>,
        ready: Option<(Option<u64>, u64)>,
        blocked: Vec<SiteId>,
        wake: WakeCandidates,
    }

    impl Gtm2Scheme for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
            if let QueueOp::Ser { txn, site } = op {
                if let Some((ready, c)) = self.ser_ready_at(*site) {
                    if ready != Some(*txn) {
                        steps.bump(StepKind::Cond, c);
                        return false;
                    }
                }
            }
            steps.tick(StepKind::Cond);
            self.pass.contains(&op.txn().0)
        }
        fn act(&mut self, op: &QueueOp, _steps: &mut StepCounter, _out: &mut Vec<SchemeEffect>) {
            if let (Some(_), QueueOp::Ser { site, .. }) = (self.block, op) {
                self.blocked.push(*site);
            }
        }
        fn wake_candidates(&self, _acted: &QueueOp, _wait: &WaitSet) -> WakeCandidates {
            self.wake.clone()
        }
        fn ser_ready_at(&self, site: SiteId) -> Option<(Option<GlobalTxnId>, u64)> {
            if self.blocked.contains(&site) {
                return self.block.map(|c| (None, c));
            }
            self.ready.map(|(ready, c)| (ready.map(g), c))
        }
    }

    impl Scripted {
        /// Passes `pass`, blocks a site at `block` once a `ser` acts
        /// there, names no ready `ser` and wakes nobody.
        fn new(pass: &[u64], block: Option<u64>) -> Self {
            Scripted {
                pass: pass.to_vec(),
                block,
                ready: None,
                blocked: Vec::new(),
                wake: WakeCandidates::None,
            }
        }

        /// An engine over this scheme, tracing, with `waiting` in WAIT.
        fn engine(self, waiting: &[QueueOp]) -> Gtm2 {
            let mut e = Gtm2::new(Box::new(self));
            e.set_tracing(true);
            // Every waiter's transaction counts as active, so a woken fin
            // leaves the count at or above zero.
            e.active = waiting.len() as u64;
            for op in waiting {
                assert!(e.wait.insert(op.clone(), 1));
            }
            e
        }
    }

    /// An engine over [`Scripted::new`], tracing, with `waiting` in WAIT.
    fn scripted(pass: &[u64], block: Option<u64>, waiting: &[QueueOp]) -> Gtm2 {
        Scripted::new(pass, block).engine(waiting)
    }

    fn ser(txn: u64, site: u32) -> QueueOp {
        QueueOp::Ser {
            txn: g(txn),
            site: s(site),
        }
    }

    fn fin(txn: u64) -> QueueOp {
        QueueOp::Fin { txn: g(txn) }
    }

    /// Run `worklist` as one cascade; return the re-tests it ran, in order,
    /// with their verdicts, and the operations it woke.
    fn run(e: &mut Gtm2, worklist: &[Pending]) -> (Vec<SchedEvent>, Vec<SchedEvent>) {
        e.cascade(worklist.iter().copied().collect(), &mut Vec::new());
        e.drain_events()
            .partition(|event| matches!(event, SchedEvent::Cond { .. }))
    }

    /// The trace of re-tests a cascade should run.
    fn retested(ops: &[(QueueOp, bool)]) -> Vec<SchedEvent> {
        ops.iter()
            .map(|(op, ok)| SchedEvent::cond(op, *ok))
            .collect()
    }

    /// The trace of wakes a cascade should make.
    fn woke(ops: &[QueueOp]) -> Vec<SchedEvent> {
        ops.iter().map(SchedEvent::wake).collect()
    }

    /// A ser woken after a failing prefix of its range cuts off the rest
    /// (`ser_ready_at` answers `(None, c)` once it acts): the `n` waiters
    /// above it are charged `n·c` in one sum, counted as
    /// elided, never re-tested, and stay in WAIT; another site's sers are
    /// outside the range.
    #[test]
    fn cut_off_after_failing_prefix_charges_n_times_c() {
        let waiting = [
            ser(2, 1),
            ser(1, 0),
            ser(2, 0),
            ser(3, 0),
            ser(4, 0),
            ser(5, 0),
            ser(6, 0),
            ser(9, 1),
        ];
        let mut e = scripted(&[3, 9], Some(5), &waiting);
        let (retests, woken) = run(&mut e, &[Pending::SerAt(s(0))]);
        assert_eq!(
            retests,
            retested(&[(ser(1, 0), false), (ser(2, 0), false), (ser(3, 0), true)])
        );
        assert_eq!(woken, woke(&[ser(3, 0)]));
        assert_eq!(e.steps().cond, 3 + 3 * 5);
        assert_eq!((e.wake_elided, e.retests_ser), (3, 3));
        assert_eq!(e.wait_len(), waiting.len() - 1);
        assert_eq!(e.wait.ser_count_at(s(1)), 2);
    }

    /// A ready `ser` in mid-range is the range's only re-test: the waiters
    /// below it (which the literal walk re-tests before it acts) and above
    /// it (after) are charged `c` each in one sum and counted as elided;
    /// another site's sers are outside the range.
    #[test]
    fn ready_in_mid_range_is_the_only_retest() {
        let waiting = [
            ser(2, 1),
            ser(1, 0),
            ser(2, 0),
            ser(3, 0),
            ser(4, 0),
            ser(5, 0),
            ser(6, 0),
            ser(9, 1),
        ];
        let mut e = Scripted {
            ready: Some((Some(4), 3)),
            ..Scripted::new(&[4], Some(3))
        }
        .engine(&waiting);
        let (retests, woken) = run(&mut e, &[Pending::SerAt(s(0))]);
        assert_eq!(retests, retested(&[(ser(4, 0), true)]));
        assert_eq!(woken, woke(&[ser(4, 0)]));
        assert_eq!(e.steps().cond, 1 + 5 * 3);
        assert_eq!((e.wake_elided, e.retests_ser), (5, 1));
        assert_eq!(e.wait_len(), waiting.len() - 1);
        assert_eq!(e.wait.ser_count_at(s(1)), 2);
    }

    /// A ready `ser` that is not waiting in the range — here it waits at
    /// another site — leaves all `n` waiters charged `c`, none re-tested or
    /// woken; one that waits but fails its re-test adds its own charge.
    #[test]
    fn ready_not_waiting_charges_every_waiter() {
        let waiting = [ser(1, 0), ser(2, 0), ser(3, 0), ser(9, 1)];
        let mut e = Scripted {
            ready: Some((Some(9), 3)),
            ..Scripted::new(&[9], Some(3))
        }
        .engine(&waiting);
        let (retests, woken) = run(&mut e, &[Pending::SerAt(s(0))]);
        assert_eq!((retests, woken), (vec![], vec![]));
        assert_eq!(e.steps().cond, 3 * 3);
        assert_eq!((e.wake_elided, e.retests_ser), (3, 0));
        assert_eq!(e.wait_len(), waiting.len());

        let mut e = Scripted {
            ready: Some((Some(2), 3)),
            ..Scripted::new(&[], Some(3))
        }
        .engine(&waiting);
        let (retests, woken) = run(&mut e, &[Pending::SerAt(s(0))]);
        assert_eq!((retests, woken), (retested(&[(ser(2, 0), false)]), vec![]));
        assert_eq!(e.steps().cond, 2 * 3 + 1);
        assert_eq!((e.wake_elided, e.retests_ser), (2, 1));
        assert_eq!(e.wait_len(), waiting.len());
    }

    /// With no cut-off (`ser_ready_at` answers `None`), a range entry
    /// re-tests each waiter once, in key order, resuming above each wake —
    /// the literal walk; a `Fins` entry does the same over the waiting
    /// fins.
    #[test]
    fn range_without_cut_off_retests_each_waiter_once_in_key_order() {
        let waiting = [
            ser(6, 0),
            ser(4, 0),
            ser(5, 0),
            ser(1, 0),
            ser(3, 0),
            ser(2, 0),
            fin(8),
            fin(3),
            fin(1),
        ];
        let mut e = scripted(&[2, 4, 3], None, &waiting);
        let (retests, woken) = run(&mut e, &[Pending::SerAt(s(0)), Pending::Fins]);
        assert_eq!(
            retests,
            retested(&[
                (ser(1, 0), false),
                (ser(2, 0), true),
                (ser(3, 0), true),
                (ser(4, 0), true),
                (ser(5, 0), false),
                (ser(6, 0), false),
                (fin(1), false),
                (fin(3), true),
                (fin(8), false),
            ])
        );
        assert_eq!(woken, woke(&[ser(2, 0), ser(3, 0), ser(4, 0), fin(3)]));
        assert_eq!(e.steps().cond, 9);
        assert_eq!((e.wake_elided, e.retests_ser, e.retests_fin), (0, 6, 3));
        assert_eq!(e.wait_len(), 5);
    }

    /// A range entry over an empty range does nothing.
    #[test]
    fn empty_range_does_nothing() {
        let mut e = scripted(&[1, 2], Some(5), &[ser(1, 1), ser(2, 1)]);
        let (retests, woken) = run(&mut e, &[Pending::SerAt(s(0)), Pending::Fins]);
        assert_eq!((retests, woken), (vec![], vec![]));
        assert_eq!((e.steps(), e.wake_elided), (StepCounter::new(), 0));
        assert_eq!(e.wait_len(), 2);
    }

    /// The wait-scan rule, variant by variant, against one WAIT of two sers
    /// at site 0, one more ser of the same transaction at site 1, two fins
    /// and two inits: `None` and `One` charge 1, `All` charges |WAIT|, and
    /// every range or filter charges 1 plus what it names — a closed-form
    /// fin half counting every waiting fin. The histogram observes the
    /// named count once per act.
    #[test]
    fn wait_scan_rule_charges_each_variant_from_what_it_names() {
        let init = |txn| QueueOp::Init {
            txn: g(txn),
            sites: vec![s(0)],
        };
        let waiting = [
            ser(1, 0),
            ser(3, 0),
            ser(3, 1),
            fin(4),
            fin(5),
            init(6),
            init(7),
        ];
        // (candidates, waiters named, WaitScan steps)
        let cases = [
            (WakeCandidates::None, 0, 1),
            (WakeCandidates::One(wait_key(&ser(1, 0))), 1, 1),
            (WakeCandidates::All, 7, 7),
            (WakeCandidates::SerAt(s(0)), 2, 3),
            (WakeCandidates::Fins, 2, 3),
            (WakeCandidates::SerAtThenFins(s(0)), 4, 5),
            (WakeCandidates::SerAtFinsCharged(s(0)), 4, 5),
            (WakeCandidates::FinPass, 2, 3),
            (WakeCandidates::Inits, 2, 3),
            (WakeCandidates::SerOf(g(3)), 2, 3),
        ];
        for (wake, scanned, charge) in cases {
            let mut e = Scripted {
                wake: wake.clone(),
                ..Scripted::new(&[], None)
            }
            .engine(&waiting);
            let mut worklist = VecDeque::new();
            e.push_wake_candidates(&ser(9, 2), &mut worklist);
            assert_eq!(e.steps().wait_scan, charge, "{wake:?}: WaitScan charge");
            let hist = e.wake_scan_histogram();
            assert_eq!((hist.count(), hist.sum()), (1, scanned), "{wake:?}");
        }
    }

    #[test]
    fn stats_track_active_peak() {
        let mut e = Gtm2::new(SchemeKind::Scheme0.build());
        for i in 1..=3 {
            e.enqueue(QueueOp::Init {
                txn: g(i),
                sites: vec![s(0)],
            });
        }
        e.pump();
        assert_eq!(e.stats().peak_active, 3);
        assert_eq!(e.stats().inits, 3);
    }
}
