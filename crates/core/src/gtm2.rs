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
//! This module is the **only** implementation of the loop. It is written
//! over a *slot* (one slice of QUEUE and WAIT) and a *core* (the scheme and
//! the totally-ordered counters): [`Gtm2`] owns one of each outright, and
//! [`ShardedGtm2`](crate::sharded::ShardedGtm2), a replay-only model, runs
//! the same functions over one slot per shard — see the slot-logic section
//! below the `Gtm2` type.

use crate::scheme::{Gtm2Scheme, Pending, SchemeEffect, WaitKey, WaitSet, WakeCandidates};
use crate::ser_s::SerSLog;
use mdbs_common::ids::GlobalTxnId;
use mdbs_common::instrument::{Histogram, Registry, SchedEvent, TraceSink};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::{StepCounter, StepKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Malformed operations detected (unmatched fins, out-of-order acks —
    /// surfaced by schemes as [`SchemeEffect::ProtocolViolation`]).
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
    /// The whole of QUEUE and WAIT: a single, unshared slot.
    slot: ShardCore,
    core: GlobalCore,
}

impl Gtm2 {
    /// Create an engine around a scheme, with no trace sink; use
    /// [`Gtm2::set_sink`] to collect structured events.
    pub fn new(scheme: Box<dyn Gtm2Scheme + Send>) -> Self {
        Gtm2 {
            slot: ShardCore::new(),
            core: GlobalCore::new(scheme),
        }
    }

    /// Enable/disable per-act scheme invariant validation.
    pub fn set_validate(&mut self, on: bool) {
        self.core.validate = on;
    }

    /// Attach (or with `None`, detach) a structured event sink. Can be
    /// toggled mid-run; scheduling behavior is unaffected either way.
    pub fn set_sink(&mut self, sink: Option<Box<dyn TraceSink + Send>>) {
        self.core.sink = sink;
    }

    /// Set the clock value stamped onto subsequent sink events.
    pub fn set_now(&mut self, at: u64) {
        self.core.clock = at;
    }

    /// Wake candidates examined per act.
    pub fn wake_scan_histogram(&self) -> &Histogram {
        &self.slot.wake_scan
    }

    /// Export counters, gauges and histograms into `registry` under the
    /// `gtm2.` prefix.
    pub fn export_metrics(&self, registry: &mut Registry) {
        self.core.export_metrics(&self.slot.wake_scan, registry);
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.core.scheme.name()
    }

    /// Accumulated abstract step counts.
    pub fn steps(&self) -> StepCounter {
        self.core.steps
    }

    /// Engine counters.
    pub fn stats(&self) -> Gtm2Stats {
        self.core.stats
    }

    /// The recorded `ser(S)` log.
    pub fn ser_log(&self) -> &SerSLog {
        &self.core.ser_log
    }

    /// Number of operations currently waiting.
    pub fn wait_len(&self) -> usize {
        self.slot.wait.len()
    }

    /// Number of operations queued but not yet examined.
    pub fn queue_len(&self) -> usize {
        self.slot.inbox.len()
    }

    /// Insert an operation at the end of QUEUE.
    pub fn enqueue(&mut self, op: QueueOp) {
        enqueue_into(&mut self.slot, &mut self.core, op);
    }

    /// Run the Basic_Scheme loop until QUEUE is empty. Returns the effects
    /// produced, in order.
    pub fn pump(&mut self) -> Vec<SchemeEffect> {
        let mut out = PumpOut::default();
        while step_slot(SlotCtx::SINGLE, &mut self.slot, &mut self.core, &mut out) {}
        out.effects
    }
}

impl std::fmt::Debug for Gtm2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gtm2")
            .field("scheme", &self.core.scheme.name())
            .field("queue", &self.slot.inbox.len())
            .field("wait", &self.slot.wait.len())
            .finish()
    }
}

// ----------------------------------------------------------------------
// The Basic_Scheme slot logic — the one implementation of Figure 3.
//
// A *slot* is one partition of QUEUE and WAIT (`ShardCore`); the scheme
// and every counter whose updates must be totally ordered live in one
// `GlobalCore`. `Gtm2` owns exactly one of each and runs the loop with
// `SlotCtx::SINGLE`; `ShardedGtm2` owns one slot per shard and adds
// routing and handoff delivery around the same functions. With one
// slot `handoff_targets` is empty and the pre-init gate is off, so the
// sharding branches below cost the single engine a compare each.
// ----------------------------------------------------------------------

/// One slot's mutable state: its slice of QUEUE and WAIT.
pub(crate) struct ShardCore {
    /// Arrival-stamped operations routed to this slot (`QUEUE ∩ slot`).
    pub(crate) inbox: VecDeque<(u64, QueueOp)>,
    /// Acted operations handed off from other slots, pending re-test.
    pub(crate) handoff: VecDeque<QueueOp>,
    /// This slot's partition of the WAIT set.
    pub(crate) wait: WaitSet,
    /// `ser` operations that raced ahead of their `init` (possible only
    /// with more than one slot): parked here until the `init`'s act is
    /// handed off from slot 0.
    pre_init: BTreeMap<GlobalTxnId, Vec<(u64, QueueOp)>>,
    /// Wake candidates examined per act in this slot (log₂ histogram).
    pub(crate) wake_scan: Histogram,
    /// Reusable buffer for the cascading wake worklist (no per-act
    /// allocation).
    wake_buf: VecDeque<Pending>,
    /// Reusable buffer for a fin pass's ready fins.
    ready_buf: Vec<GlobalTxnId>,
    /// Peak size of this slot's WAIT partition.
    pub(crate) wait_peak: u64,
    /// Handoff messages actually delivered into this slot.
    pub(crate) handoffs_in: u64,
}

impl ShardCore {
    pub(crate) fn new() -> Self {
        ShardCore {
            inbox: VecDeque::new(),
            handoff: VecDeque::new(),
            wait: WaitSet::new(),
            pre_init: BTreeMap::new(),
            wake_scan: Histogram::new(),
            wake_buf: VecDeque::new(),
            ready_buf: Vec::new(),
            wait_peak: 0,
            handoffs_in: 0,
        }
    }

    /// True if a handoff delivered here could possibly do anything.
    pub(crate) fn has_waiters(&self) -> bool {
        !self.wait.is_empty() || !self.pre_init.is_empty()
    }

    /// Operations queued (inbox + handoffs + pre-init parkings) but not
    /// yet examined.
    pub(crate) fn backlog(&self) -> usize {
        let parked: usize = self.pre_init.values().map(Vec::len).sum();
        self.inbox.len() + self.handoff.len() + parked
    }
}

/// Global (unsharded) state: the scheme and every counter whose updates
/// must be totally ordered.
pub(crate) struct GlobalCore {
    pub(crate) scheme: Box<dyn Gtm2Scheme + Send>,
    pub(crate) steps: StepCounter,
    pub(crate) stats: Gtm2Stats,
    pub(crate) ser_log: SerSLog,
    /// Transactions whose `init` has been acted, maintained only with
    /// more than one slot (the pre-init gate's lookup). Never pruned
    /// within a run: a late `ser` must not re-trip the gate after `fin`.
    inited: BTreeSet<GlobalTxnId>,
    /// Currently active transactions (`init`ed, not `fin`ished).
    active: u64,
    /// Exact current WAIT population across all slots.
    pub(crate) wait_live: u64,
    /// Re-tests charged in closed form instead of being run: the waiting
    /// fins of [`WakeCandidates::SerAtFinsCharged`], the fins a
    /// [`WakeCandidates::FinPass`] does not re-test, and the sers cut off
    /// by [`Gtm2Scheme::ser_blocked_at`].
    wake_elided: u64,
    /// Validate scheme invariants after every act (used by tests).
    pub(crate) validate: bool,
    /// Structured event sink; `None` = tracing disabled (one branch, no
    /// formatting or allocation on the hot path).
    pub(crate) sink: Option<Box<dyn TraceSink + Send>>,
    /// Producer clock stamped onto sink events (set by the embedding
    /// runtime; stays 0 where there is no clock).
    clock: u64,
}

impl GlobalCore {
    /// A fresh core around `scheme`, with no trace sink.
    pub(crate) fn new(scheme: Box<dyn Gtm2Scheme + Send>) -> Self {
        GlobalCore {
            scheme,
            steps: StepCounter::new(),
            stats: Gtm2Stats::default(),
            ser_log: SerSLog::new(),
            inited: BTreeSet::new(),
            active: 0,
            wait_live: 0,
            wake_elided: 0,
            validate: cfg!(debug_assertions),
            sink: None,
            clock: 0,
        }
    }

    /// Export the engine's counters, gauges and the (merged) wake-scan
    /// histogram under the `gtm2.` prefix, then the scheme's own metrics.
    pub(crate) fn export_metrics(&self, wake_scan: &Histogram, registry: &mut Registry) {
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
        registry.merge_histogram("gtm2.wake_scan", wake_scan);
        registry.inc("gtm2.wake_elided", self.wake_elided);
        self.scheme.export_metrics(registry);
    }
}

/// Effects plus the acted operations (with their handoff targets)
/// produced while one slot was being pumped.
#[derive(Default)]
pub(crate) struct PumpOut {
    pub(crate) effects: Vec<SchemeEffect>,
    /// `(acted op, slots to hand it off to)`; always empty with one slot.
    pub(crate) handoffs: Vec<(QueueOp, Vec<usize>)>,
}

/// Where a slot sits among its peers.
#[derive(Clone, Copy)]
pub(crate) struct SlotCtx {
    /// Index of the slot being pumped.
    pub(crate) shard: usize,
    /// Number of slots operations are spread over (site `k` lives in slot
    /// `k mod nshards`, siteless operations in slot 0).
    pub(crate) nshards: usize,
}

impl SlotCtx {
    /// The single engine's only slot.
    const SINGLE: SlotCtx = SlotCtx {
        shard: 0,
        nshards: 1,
    };
}

/// Record and count an arriving operation, stamping it with its arrival
/// number (the count of operations enqueued before it, engine-wide).
pub(crate) fn enqueue_into(core: &mut ShardCore, global: &mut GlobalCore, op: QueueOp) {
    if let Some(sink) = &mut global.sink {
        sink.record(global.clock, SchedEvent::enqueue(&op));
    }
    core.inbox.push_back((global.stats.enqueued, op));
    global.stats.enqueued += 1;
}

/// One turn of Figure 3's outer loop in one slot: a pending handoff if
/// there is one (they re-test existing waiters), else the operation at the
/// front of the slot's QUEUE slice. Returns whether there was anything to
/// do.
pub(crate) fn step_slot(
    ctx: SlotCtx,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) -> bool {
    if let Some(acted) = core.handoff.pop_front() {
        process_handoff(ctx, acted, core, global, out);
    } else if let Some((seq, op)) = core.inbox.pop_front() {
        process_op(ctx, seq, op, core, global, out);
    } else {
        return false;
    }
    true
}

/// `if cond(o_j) then act(o_j); re-examine WAIT else WAIT := WAIT ∪ {o_j}`.
fn process_op(
    ctx: SlotCtx,
    seq: u64,
    op: QueueOp,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) {
    // Pre-init gate: with several slots a `ser` can reach its site's slot
    // before slot 0 has acted the `init`. Park it; the `init`'s handoff
    // releases it. (With one slot a genuinely init-less `ser` is instead
    // flagged by the scheme as SerWithoutInit; for well-formed input —
    // GTM1 always announces before serializing — the gate never observably
    // differs.)
    if ctx.nshards > 1 && op.kind() == QueueOpKind::Ser && !global.inited.contains(&op.txn()) {
        core.pre_init.entry(op.txn()).or_default().push((seq, op));
        return;
    }
    let cond_before = global.steps.cond;
    let eligible = global.scheme.cond(&op, &mut global.steps);
    if let Some(sink) = &mut global.sink {
        sink.record(global.clock, SchedEvent::cond(&op, eligible));
    }
    if eligible {
        let mut candidates = std::mem::take(&mut core.wake_buf);
        candidates.clear();
        act_one(ctx, &op, false, core, global, out, &mut candidates);
        cascade(ctx, candidates, core, global, out);
        return;
    }
    let kind = op.kind();
    let wait_event = SchedEvent::wait(&op);
    if !core.wait.insert(op, global.steps.cond - cond_before) {
        // The same operation is already waiting: it was sent twice. The
        // first copy stays and nothing new waits.
        global.stats.protocol_violations += 1;
        return;
    }
    if let Some(sink) = &mut global.sink {
        sink.record(global.clock, wait_event);
    }
    global.stats.waited += 1;
    match kind {
        QueueOpKind::Init => global.stats.waited_kind[0] += 1,
        QueueOpKind::Ser => global.stats.waited_kind[1] += 1,
        QueueOpKind::Ack => global.stats.waited_kind[2] += 1,
        QueueOpKind::Fin => global.stats.waited_kind[3] += 1,
    }
    global.wait_live += 1;
    global.stats.peak_wait = global.stats.peak_wait.max(global.wait_live);
    core.wait_peak = core.wait_peak.max(core.wait.len() as u64);
}

/// Re-test this slot's waiters against an operation acted elsewhere.
fn process_handoff(
    ctx: SlotCtx,
    acted: QueueOp,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) {
    // An init acted at slot 0 releases any ser ops parked behind it here.
    if acted.kind() == QueueOpKind::Init {
        if let Some(mut parked) = core.pre_init.remove(&acted.txn()) {
            parked.sort_unstable_by_key(|&(seq, _)| seq);
            for (seq, op) in parked {
                process_op(ctx, seq, op, core, global, out);
            }
        }
    }
    let mut candidates = std::mem::take(&mut core.wake_buf);
    candidates.clear();
    local_candidates(&acted, core, global, &mut candidates);
    cascade(ctx, candidates, core, global, out);
}

/// `act(op)`: bookkeeping, scheme act, effect recording, handoff-target
/// computation, and this slot's wake candidates.
fn act_one(
    ctx: SlotCtx,
    acted: &QueueOp,
    woken: bool,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
    candidates: &mut VecDeque<Pending>,
) {
    if let Some(sink) = &mut global.sink {
        let ev = if woken {
            SchedEvent::wake(acted)
        } else {
            SchedEvent::act(acted)
        };
        sink.record(global.clock, ev);
    }
    note_processed(acted, global);
    let fx = global.scheme.act(acted, &mut global.steps);
    if global.validate {
        global.scheme.debug_validate();
    }
    for effect in &fx {
        match effect {
            SchemeEffect::SubmitSer { txn, site } => global.ser_log.record(*txn, *site),
            SchemeEffect::AbortGlobal { txn } => {
                global.stats.scheme_aborts += 1;
                if let Some(sink) = &mut global.sink {
                    sink.record(global.clock, SchedEvent::Abort { txn: *txn });
                }
            }
            SchemeEffect::ForwardAck { .. } => {}
            SchemeEffect::ProtocolViolation { .. } => {
                global.stats.protocol_violations += 1;
            }
        }
    }
    out.effects.extend(fx.iter().copied());
    if ctx.nshards > 1 {
        if acted.kind() == QueueOpKind::Init {
            global.inited.insert(acted.txn());
        }
        let targets = handoff_targets(ctx, acted, global.scheme.as_ref());
        if !targets.is_empty() {
            out.handoffs.push((acted.clone(), targets));
        }
    }
    local_candidates(acted, core, global, candidates);
}

/// This slot's wake candidates for an acted operation, appended to
/// `candidates` (resolved against this slot's WAIT partition without
/// allocating). Every waiting fin a closed form covers is counted into the
/// wake-scan histogram as scanned, as its literal re-test would be. Where
/// the scheme asks for the waiting fins to be charged outright
/// ([`WakeCandidates::SerAtFinsCharged`]), this is where they are: their
/// recorded `Cond` steps added, none of them put on the worklist. A
/// [`WakeCandidates::FinPass`] is charged when the worklist reaches it.
fn local_candidates(
    acted: &QueueOp,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    candidates: &mut VecDeque<Pending>,
) {
    let wake = global
        .scheme
        .wake_candidates(acted, &core.wait, &mut global.steps);
    let mut scanned = core.wait.resolve_into(&wake, candidates) as u64;
    let fins = core.wait.fin_count() as u64;
    if let WakeCandidates::SerAtFinsCharged(_) = wake {
        debug_check_fin_charges(&core.wait, global.scheme.as_ref(), |_| false);
        global.steps.bump(StepKind::Cond, core.wait.fin_cond_cost());
        global.wake_elided += fins;
        scanned += fins;
    } else if wake == WakeCandidates::FinPass {
        scanned += fins;
    }
    core.wake_scan.observe(scanned);
}

/// Figure 3's inner loop, `while ∃ o_l ∈ WAIT with cond(o_l): act(o_l)`,
/// over this slot's WAIT partition. Each candidate is re-tested **in
/// place** ([`WaitSet::take_if`]) — `cond` on the operation borrowed from
/// WAIT — and leaves WAIT only if it is eligible, so a failing re-test
/// costs its `cond` and one lookup, nothing else. An eligible waiter is
/// acted **immediately**, with `cond` evaluated against the *current* data
/// structures, and its own candidates join the worklist: batching the
/// eligibility checks would let two mutually exclusive operations (e.g.
/// two ser ops at one site whose conds both looked true before either
/// acted) slip through together. No operation joins WAIT during a cascade,
/// so WAIT only shrinks — the fact both closed forms below rest on. Takes
/// ownership of the seeded worklist (the slot's reusable buffer) and parks
/// it back on the slot when drained.
fn cascade(
    ctx: SlotCtx,
    mut worklist: VecDeque<Pending>,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) {
    while let Some(next) = worklist.pop_front() {
        match next {
            Pending::Key(key) => retest(ctx, &key, core, global, out, &mut worklist),
            Pending::FinPass => fin_pass(ctx, core, global, out, &mut worklist),
        }
    }
    core.wake_buf = worklist;
}

/// Re-test the operation waiting under `key` and act it if it is eligible.
/// A woken `ser` at a site the scheme reports blocked
/// ([`Gtm2Scheme::ser_blocked_at`]) cuts off the worklist's leading sers at
/// that site: each would fail at the reported charge, so each is charged
/// that, counted as elided, and dropped.
fn retest(
    ctx: SlotCtx,
    key: &WaitKey,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
    worklist: &mut VecDeque<Pending>,
) {
    // `None`: still not eligible — or woken already, which is also what
    // makes stale/duplicate handoff hints harmless.
    let woken = core.wait.take_if(key, |waiting| {
        let eligible = global.scheme.cond(waiting, &mut global.steps);
        if let Some(sink) = &mut global.sink {
            sink.record(global.clock, SchedEvent::cond(waiting, eligible));
        }
        eligible
    });
    let Some(woken) = woken else {
        return;
    };
    global.wait_live = global.wait_live.saturating_sub(1);
    act_one(ctx, &woken, true, core, global, out, worklist);
    let QueueOp::Ser { site, .. } = woken else {
        return;
    };
    let Some(charge) = global.scheme.ser_blocked_at(site) else {
        return;
    };
    while let Some(&Pending::Key(next)) = worklist.front() {
        if next.0 != QueueOpKind::Ser || next.2 != Some(site) {
            break;
        }
        worklist.pop_front();
        if let Some(blocked) = core.wait.get(&next) {
            debug_assert_eq!(
                retest_charge(global.scheme.as_ref(), blocked),
                (false, charge),
                "{blocked:?}: a cut-off ser must fail at the blocked charge"
            );
            global.steps.bump(StepKind::Cond, charge);
            global.wake_elided += 1;
        }
    }
}

/// One pass over this slot's waiting fins in closed form
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
fn fin_pass(
    ctx: SlotCtx,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
    worklist: &mut VecDeque<Pending>,
) {
    let mut ready = std::mem::take(&mut core.ready_buf);
    let waiting = core.wait.fin_count() as u64;
    global.steps.bump(StepKind::Cond, core.wait.fin_cond_cost());
    let mut retested = 0;
    let mut cursor = None;
    'pass: loop {
        ready.clear();
        global.scheme.ready_fins(&mut ready);
        ready.sort_unstable();
        debug_check_fin_charges(&core.wait, global.scheme.as_ref(), |txn| {
            ready.binary_search(&txn).is_ok()
        });
        for &txn in &ready {
            if Some(txn) <= cursor {
                continue;
            }
            cursor = Some(txn);
            let woken = core.wait.take_if(&(QueueOpKind::Fin, txn, None), |fin| {
                retested += 1;
                let eligible = global.scheme.cond(fin, &mut StepCounter::new());
                if let Some(sink) = &mut global.sink {
                    sink.record(global.clock, SchedEvent::cond(fin, eligible));
                }
                eligible
            });
            if let Some(woken) = woken {
                global.wait_live = global.wait_live.saturating_sub(1);
                act_one(ctx, &woken, true, core, global, out, worklist);
                continue 'pass;
            }
        }
        break;
    }
    global.wake_elided += waiting - retested;
    core.ready_buf = ready;
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

/// Which slots (other than the acting one) must re-test their waiters
/// after `acted` was acted, per the scheme's `wake_scope` bound plus the
/// pre-init gate (an `init` must reach the slots of its announced sites to
/// release parked sers). Only called with more than one slot.
fn handoff_targets(ctx: SlotCtx, acted: &QueueOp, scheme: &dyn Gtm2Scheme) -> Vec<usize> {
    let mut targets = BTreeSet::new();
    let scope = scheme.wake_scope(acted.kind());
    if scope.elsewhere {
        targets.extend(0..ctx.nshards);
    } else {
        if scope.acted_site {
            if let Some(site) = acted.site() {
                targets.insert(site.index() % ctx.nshards);
            }
        }
        if scope.siteless {
            // Siteless (init/fin) waiters always live in slot 0.
            targets.insert(0);
        }
    }
    if let QueueOp::Init { sites, .. } = acted {
        for site in sites {
            targets.insert(site.index() % ctx.nshards);
        }
    }
    targets.remove(&ctx.shard);
    targets.into_iter().collect()
}

/// Stats bookkeeping for a processed operation.
fn note_processed(op: &QueueOp, global: &mut GlobalCore) {
    global.stats.processed += 1;
    match op.kind() {
        QueueOpKind::Init => {
            global.stats.inits += 1;
            global.active += 1;
            global.stats.peak_active = global.stats.peak_active.max(global.active);
        }
        QueueOpKind::Fin => {
            global.stats.fins += 1;
            // An unmatched fin must not underflow the active count
            // (and thereby skew peak_active for the rest of the run).
            match global.active.checked_sub(1) {
                Some(a) => global.active = a,
                None => global.stats.protocol_violations += 1,
            }
        }
        QueueOpKind::Ser | QueueOpKind::Ack => {}
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
