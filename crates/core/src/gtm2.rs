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
//! hints so each scheme pays exactly its own rescan cost. A waiter is
//! re-tested where it sits and leaves WAIT only when eligible. Re-tests a
//! scheme proves must fail are charged their steps without being run
//! (`gtm2.wake_elided` counts them); Scheme 1's dense kernel asks for three,
//! Scheme 3's for the last two:
//!
//! - after an `ack`, the waiting fins ([`WakeCandidates::SerAtFinsCharged`]);
//! - after a `fin`, every waiting fin but the ones the scheme names ready
//!   ([`WakeCandidates::FinPass`], run by `fin_pass`): Scheme 1's
//!   delete-queue fronts, Scheme 3's transactions whose `ser_bef` row a
//!   `fin` emptied;
//! - after a woken `ser_k`, the worklist's leading sers at site `k`, which
//!   now has an outstanding `ser` (Scheme 1) or an unacked `last_k`
//!   (Scheme 3)
//!   ([`ser_blocked_at`](crate::scheme::Gtm2Scheme::ser_blocked_at)).
//!
//! The engine also maintains the [`SerSLog`] — the order in which
//! `ser_k(G_i)` operations were acted — from which the serializability of
//! `ser(S)` is checked (Theorems 3, 5, 8 empirically).
//!
//! This module is the **only** implementation of the loop: one [`Gtm2`]
//! holds the one QUEUE, the one WAIT and the scheme, as the paper's GTM2 is
//! one process.

use crate::scheme::{Gtm2Scheme, Pending, SchemeEffect, WaitKey, WaitSet, WakeCandidates};
use crate::ser_s::SerSLog;
use mdbs_common::ids::GlobalTxnId;
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
    /// [`WakeCandidates::FinPass`] does not re-test, and the sers cut off
    /// by [`Gtm2Scheme::ser_blocked_at`].
    wake_elided: u64,
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
    /// `candidates` (resolved against WAIT without allocating). Every
    /// waiting fin a closed form covers is counted into the wake-scan
    /// histogram as scanned, as its literal re-test would be. Where the
    /// scheme asks for the waiting fins to be charged outright
    /// ([`WakeCandidates::SerAtFinsCharged`]), this is where they are: their
    /// recorded `Cond` steps added, none of them put on the worklist. A
    /// [`WakeCandidates::FinPass`] is charged when the worklist reaches it.
    fn push_wake_candidates(&mut self, acted: &QueueOp, candidates: &mut VecDeque<Pending>) {
        let wake = self
            .scheme
            .wake_candidates(acted, &self.wait, &mut self.steps);
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
        self.wake_scan.observe(scanned);
    }

    /// Figure 3's inner loop, `while ∃ o_l ∈ WAIT with cond(o_l): act(o_l)`.
    /// Each candidate is re-tested **in place** ([`WaitSet::take_if`]) —
    /// `cond` on the operation borrowed from WAIT — and leaves WAIT only if
    /// it is eligible, so a failing re-test costs its `cond` and one lookup,
    /// nothing else. An eligible waiter is acted **immediately**, with
    /// `cond` evaluated against the *current* data structures, and its own
    /// candidates join the worklist: batching the eligibility checks would
    /// let two mutually exclusive operations (e.g. two ser ops at one site
    /// whose conds both looked true before either acted) slip through
    /// together. No operation joins WAIT during a cascade, so WAIT only
    /// shrinks — the fact both closed forms below rest on. Takes ownership
    /// of the seeded worklist (the reusable buffer) and parks it back when
    /// drained.
    fn cascade(&mut self, mut worklist: VecDeque<Pending>, out: &mut Vec<SchemeEffect>) {
        while let Some(next) = worklist.pop_front() {
            match next {
                Pending::Key(key) => self.retest(&key, out, &mut worklist),
                Pending::FinPass => self.fin_pass(out, &mut worklist),
            }
        }
        self.wake_buf = worklist;
    }

    /// Re-test the operation waiting under `key` and act it if it is
    /// eligible. A woken `ser` at a site the scheme reports blocked
    /// ([`Gtm2Scheme::ser_blocked_at`]) cuts off the worklist's leading sers
    /// at that site: each would fail at the reported charge, so each is
    /// charged that, counted as elided, and dropped.
    fn retest(
        &mut self,
        key: &WaitKey,
        out: &mut Vec<SchemeEffect>,
        worklist: &mut VecDeque<Pending>,
    ) {
        // `None`: still not eligible, or woken already by an earlier
        // candidate of the same cascade.
        let woken = self.wait.take_if(key, |waiting| {
            let eligible = self.scheme.cond(waiting, &mut self.steps);
            if let Some(trace) = &mut self.trace {
                trace.push(SchedEvent::cond(waiting, eligible));
            }
            eligible
        });
        let Some(woken) = woken else {
            return;
        };
        self.act_one(&woken, true, out, worklist);
        let QueueOp::Ser { site, .. } = woken else {
            return;
        };
        let Some(charge) = self.scheme.ser_blocked_at(site) else {
            return;
        };
        while let Some(&Pending::Key(next)) = worklist.front() {
            if next.0 != QueueOpKind::Ser || next.2 != Some(site) {
                break;
            }
            worklist.pop_front();
            if let Some(blocked) = self.wait.get(&next) {
                debug_assert_eq!(
                    retest_charge(self.scheme.as_ref(), blocked),
                    (false, charge),
                    "{blocked:?}: a cut-off ser must fail at the blocked charge"
                );
                self.steps.bump(StepKind::Cond, charge);
                self.wake_elided += 1;
            }
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

/// `cond(op)` on a scratch counter: the verdict and the `Cond` steps a
/// re-test would charge.
fn retest_charge(scheme: &dyn Gtm2Scheme, op: &QueueOp) -> (bool, u64) {
    let mut fresh = StepCounter::new();
    let eligible = scheme.cond(op, &mut fresh);
    (eligible, fresh.cond)
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
