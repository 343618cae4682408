//! `ShardedGtm2` — the Basic_Scheme loop with a site-partitioned WAIT set.
//!
//! The loop itself (`cond` → `act` → cascading WAIT re-test, stats, sink
//! events, metric export) is [`crate::gtm2`]'s slot logic, shared with the
//! single engine. This module holds only what sharding adds to it:
//! routing, the two-level [`OrderedMutex`] locking, handoff delivery
//! between shards, and the per-shard observers.
//!
//! Theorem 2 reduces global serializability to the serializability of
//! `ser(S)`, whose conflict relation is *per site*: two `ser_k(G_i)`
//! events conflict only when they occur at the same site. This engine
//! exploits that structure. QUEUE and WAIT are partitioned into shards
//! (site `k` owns shard `k mod nshards`), each pumped independently —
//! by its own [`SiteWorker`](../../mdbs_sim/threaded/index.html) thread in
//! the threaded runtime — while the scheme state itself, the one structure
//! whose updates must stay totally ordered, lives in a single global core
//! behind its own lock.
//!
//! ## Routing
//!
//! - **Scheme 0 / Scheme 1** partition cleanly: `ser`/`ack` operations are
//!   examined in the shard owning their site; siteless `init`/`fin` go to
//!   shard 0. Their `wake_candidates` hints are site-local (Scheme 0) or
//!   site-local-plus-fins (Scheme 1), so most wakes never leave a shard.
//! - **Schemes 2/3 and the baselines**: `cond` depends on cross-site state
//!   (`ser_bef` sets, TSGD paths), so all operations funnel through shard
//!   0 — the global shard — and the other shards stay empty. In this
//!   configuration the engine is operation-for-operation identical to
//!   [`Gtm2`](crate::gtm2::Gtm2).
//!
//! ## Cross-shard handoff
//!
//! After `act(o)` in shard `j`, waiters in *other* shards may have become
//! eligible. The acting thread consults the scheme's
//! [`wake_scope`](crate::scheme::Gtm2Scheme::wake_scope) bound to compute
//! the target shards, appends `o` to each target's handoff queue, and
//! reports those shards as hints: the caller pumps them itself or wakes
//! the tasks that own them. Receiving shards re-run
//! `wake_candidates`/`cond` against *current* global state, so handoffs
//! are idempotent re-test hints: a stale or duplicate handoff finds the
//! waiter already gone (its key is removed from WAIT before the re-test)
//! and wakes nothing — this is what makes the wake exactly-once.
//!
//! ## Lock order
//!
//! The discipline is strict `shard → global`: a shard lock may be held
//! when the global lock is taken, never the reverse, and never two shard
//! locks together (handoffs are delivered after the source shard's guard
//! is dropped). Both locks are bounded spins ([`OrderedMutex`]), so the
//! pump path never blocks; the acquisition order is visible in the
//! `lock_order.dot` artifact emitted by mdbs-lint.

use crate::gtm2::{enqueue_into, step_slot, GlobalCore, Gtm2Stats, PumpOut, ShardCore, SlotCtx};
use crate::scheme::{KernelKind, SchemeEffect, SchemeKind};
use crate::ser_s::SerSLog;
use mdbs_common::instrument::{Histogram, Registry, TraceSink};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::StepCounter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// A mutex with an adaptive spin-then-park acquire path for the pump and
/// a declared place in the engine's lock order (`shard` before `global`,
/// see module docs).
///
/// Critical sections are short and bounded (no I/O, no channel
/// operations, no nested shard locks), so the common contended case
/// resolves within a few dozen spin iterations; past that bound the
/// acquirer parks on the OS mutex instead of burning a core (the old
/// `try_lock` + `yield_now` loop busy-waited unboundedly, which starves
/// the holder on oversubscribed pools). Contended acquires and parks are
/// counted and exported as `gtm2.shard_lock_contended` /
/// `gtm2.shard_lock_parks`.
struct OrderedMutex<T> {
    raw: Mutex<T>,
    /// Acquires that found the lock held at least once.
    contended: AtomicU64,
    /// Acquires that exhausted the spin budget and parked on `raw`.
    parks: AtomicU64,
}

/// Spin budget before parking: each iteration issues a `spin_loop` hint
/// with exponentially growing repeat counts (1, 2, 4, ... capped), which
/// is the usual adaptive shape — cheap for near-instant handoffs, quickly
/// backing off when the holder is descheduled.
const SPIN_LIMIT: u32 = 6;

impl<T> OrderedMutex<T> {
    fn new(value: T) -> Self {
        OrderedMutex {
            raw: Mutex::new(value),
            contended: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Acquire from [`enqueue`](ShardedGtm2::enqueue) and the observers.
    /// Same implementation as [`spin`](OrderedMutex::spin); the distinct
    /// name marks the call sites that define the engine's
    /// lock-acquisition order for review (mdbs-lint tracks `lock` calls).
    fn lock(&self) -> MutexGuard<'_, T> {
        self.spin()
    }

    /// Acquire by adaptive spin, then park (the pump path).
    fn spin(&self) -> MutexGuard<'_, T> {
        for round in 0..=SPIN_LIMIT {
            match self.raw.try_lock() {
                Ok(guard) => return guard,
                // A panicked holder cannot leave the scheduler state
                // half-updated in a way we can repair; keep going with
                // whatever is there, as Gtm2's embedders do.
                Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    if round == 0 {
                        self.contended.fetch_add(1, Ordering::Relaxed);
                    }
                    for _ in 0..(1u32 << round.min(SPIN_LIMIT)) {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        // mdbs-lint: allow(blocking-in-pump) — the designed backoff: 2^7 bounded spins above always run first, and shard locks never nest (deliver() drops the source guard), so this park is deadlock-free and brief by construction.
        match self.raw.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// `(contended acquires, parks)` recorded on this mutex so far.
    fn contention(&self) -> (u64, u64) {
        (
            self.contended.load(Ordering::Relaxed),
            self.parks.load(Ordering::Relaxed),
        )
    }

    /// Exclusive access without locking (deterministic single-threaded
    /// callers).
    fn get_mut(&mut self) -> &mut T {
        match self.raw.get_mut() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// One shard cell. The field is named `shard` so the lock appears as
/// `shard` in the mdbs-lint lock-order graph.
struct ShardCell {
    shard: OrderedMutex<ShardCore>,
    /// Lock-free mirrors of this shard's `wake_scan` histogram totals,
    /// refreshed (under the shard lock, so writes never race) at the end
    /// of every drained slot. Concurrent pumps of *other* shards can't
    /// lose or tear these updates, so aggregation across shards is
    /// coherent mid-run without taking every shard lock.
    wake_scan_count: AtomicU64,
    wake_scan_sum: AtomicU64,
}

impl ShardCell {
    fn new() -> Self {
        ShardCell {
            shard: OrderedMutex::new(ShardCore::new()),
            wake_scan_count: AtomicU64::new(0),
            wake_scan_sum: AtomicU64::new(0),
        }
    }

    /// Refresh the atomic mirrors from the locked core (caller holds the
    /// shard guard, making this the only writer).
    fn publish_wake_scan(&self, core: &ShardCore) {
        self.wake_scan_sum
            .store(core.wake_scan.sum(), Ordering::Release);
        self.wake_scan_count
            .store(core.wake_scan.count(), Ordering::Release);
    }
}

/// The GTM2 scheduler with QUEUE and WAIT partitioned by site.
///
/// The Basic_Scheme loop itself is [`crate::gtm2`]'s; this type adds what
/// partitioning needs around it: routing, the shard and global locks,
/// handoff delivery, and the per-shard observers.
/// [`enqueue`](ShardedGtm2::enqueue) and
/// [`pump_shard`](ShardedGtm2::pump_shard) are safe to call from many
/// threads; [`pump_all`](ShardedGtm2::pump_all) is the deterministic
/// single-owner pump used by replay.
///
/// ```
/// use mdbs_core::sharded::ShardedGtm2;
/// use mdbs_core::scheme::{SchemeEffect, SchemeKind};
/// use mdbs_common::ids::{GlobalTxnId, SiteId};
/// use mdbs_common::ops::QueueOp;
///
/// let mut gtm2 = ShardedGtm2::new(SchemeKind::Scheme0, 2);
/// gtm2.enqueue(QueueOp::Init { txn: GlobalTxnId(1), sites: vec![SiteId(0)] });
/// gtm2.enqueue(QueueOp::Ser { txn: GlobalTxnId(1), site: SiteId(0) });
/// let effects = gtm2.pump_all();
/// assert_eq!(
///     effects,
///     vec![SchemeEffect::SubmitSer { txn: GlobalTxnId(1), site: SiteId(0) }],
/// );
/// ```
pub struct ShardedGtm2 {
    kind: SchemeKind,
    /// How many shards operations are actually spread over: the shard
    /// count for the schemes that partition by site (0 and 1), else 1
    /// (everything funnels through shard 0 and the rest stay empty).
    spread: usize,
    cells: Vec<ShardCell>,
    global: OrderedMutex<GlobalCore>,
}

impl ShardedGtm2 {
    /// Create an engine for `kind` with `nshards` pump shards (clamped to
    /// at least 1). As with [`Gtm2::new`](crate::gtm2::Gtm2::new), the
    /// `MDBS_TRACE` environment variable attaches a stderr trace sink.
    pub fn new(kind: SchemeKind, nshards: usize) -> Self {
        Self::new_with_kernel(kind, KernelKind::Dense, nshards)
    }

    /// Like [`new`](ShardedGtm2::new), but selecting the scheme kernel
    /// ([`KernelKind::BTree`] reference maps vs [`KernelKind::Dense`]
    /// slot/bitset) explicitly. Both kernels are step-for-step identical;
    /// only machine cost differs.
    pub fn new_with_kernel(kind: SchemeKind, kernel: KernelKind, nshards: usize) -> Self {
        let nshards = nshards.max(1);
        // Only schemes whose cond/wake structure is per-site may spread
        // operations over shards; everything else runs in shard 0 and is
        // identical to the single engine by construction.
        let spread = match kind {
            SchemeKind::Scheme0 | SchemeKind::Scheme1 => nshards,
            SchemeKind::Scheme2
            | SchemeKind::Scheme2Minimal
            | SchemeKind::SiteGraph
            | SchemeKind::Scheme3
            | SchemeKind::AbortingTo
            | SchemeKind::OptimisticTicket => 1,
        };
        ShardedGtm2 {
            kind,
            spread,
            cells: (0..nshards).map(|_| ShardCell::new()).collect(),
            global: OrderedMutex::new(GlobalCore::new(kind.build_kernel(kernel))),
        }
    }

    /// Number of pump shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The shard that examines (and, if it waits, holds) `op`.
    fn route(&self, op: &QueueOp) -> usize {
        match op.site() {
            Some(site) => site.index() % self.spread,
            None => 0,
        }
    }

    /// Enable/disable per-act scheme invariant validation.
    pub fn set_validate(&mut self, on: bool) {
        self.global.get_mut().validate = on;
    }

    /// Attach (or with `None`, detach) a structured event sink.
    pub fn set_sink(&mut self, sink: Option<Box<dyn TraceSink + Send>>) {
        self.global.get_mut().sink = sink;
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.kind.name()
    }

    /// Insert an operation into its shard's slice of QUEUE, from the
    /// coordinator or a pump thread. Returns the shard index, to be passed
    /// to [`pump_shard`](ShardedGtm2::pump_shard). The ordered `lock`
    /// acquisitions make this the canonical statement of the
    /// `shard → global` lock order in the mdbs-lint graph.
    // mdbs-lint: allow(blocking-in-pump, scope=item) — site workers enqueue their acks here, and `OrderedMutex::lock` is the bounded spin-then-park acquire justified at `OrderedMutex::spin`, not a std lock; it is spelled `lock` so the lock-order graph records the edge.
    pub fn enqueue(&self, op: QueueOp) -> usize {
        let j = self.route(&op);
        if let Some(cell) = self.cells.get(j) {
            let mut core = cell.shard.lock();
            let mut global = self.global.lock();
            enqueue_into(&mut core, &mut global, op);
        }
        j
    }

    /// Run the Basic_Scheme loop over shard `j`'s pending handoffs and its
    /// slice of QUEUE, then deliver any cross-shard handoffs it produced
    /// without following them into the target shards' locks. Returns the
    /// effects plus the shards that received a handoff — **waker hints**:
    /// each hinted shard needs a `pump_shard` of its own, from this thread
    /// or (in a task runtime where every shard has an owning pump task)
    /// from the owner once woken. Handoffs are idempotent re-test hints,
    /// so a hint raced by the owner's own pump is harmless.
    pub fn pump_shard(&self, j: usize) -> (Vec<SchemeEffect>, Vec<usize>) {
        self.pump_steps(j, usize::MAX)
    }

    /// [`pump_shard`](ShardedGtm2::pump_shard) bounded to `max_steps`
    /// turns of the loop.
    fn pump_steps(&self, j: usize, max_steps: usize) -> (Vec<SchemeEffect>, Vec<usize>) {
        let mut out = PumpOut::default();
        {
            let Some(cell) = self.cells.get(j) else {
                return (Vec::new(), Vec::new());
            };
            let mut core = cell.shard.spin();
            if core.handoff.is_empty() && core.inbox.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let mut global = self.global.spin();
            let ctx = SlotCtx {
                shard: j,
                nshards: self.spread,
            };
            for _ in 0..max_steps {
                if !step_slot(ctx, &mut core, &mut global, &mut out) {
                    break;
                }
            }
            cell.publish_wake_scan(&core);
        }
        let hints = self.deliver(j, &out);
        (out.effects, hints)
    }

    /// Deliver `out`'s handoffs (source shard's guards must already be
    /// dropped — shard locks never nest). Returns the shards that received
    /// at least one message; deliveries to shards with no waiters are
    /// skipped and not counted.
    fn deliver(&self, source: usize, out: &PumpOut) -> Vec<usize> {
        let mut touched = Vec::new();
        for (op, targets) in &out.handoffs {
            for &t in targets {
                if t == source {
                    continue;
                }
                let Some(cell) = self.cells.get(t) else {
                    continue;
                };
                let mut core = cell.shard.spin();
                if !core.has_waiters() {
                    continue;
                }
                core.handoff.push_back(op.clone());
                core.handoffs_in += 1;
                if !touched.contains(&t) {
                    touched.push(t);
                }
            }
        }
        touched
    }

    /// Deterministically run all shards dry from a single owner: pending
    /// handoffs first (to a fixpoint, sweeping shards in index order),
    /// then always the globally oldest queued operation, one at a time —
    /// which reproduces the single engine's FIFO examination order.
    /// Returns the effects in order.
    pub fn pump_all(&mut self) -> Vec<SchemeEffect> {
        let mut effects = Vec::new();
        loop {
            let mut handed_off = false;
            for j in 0..self.cells.len() {
                while self
                    .cells
                    .get_mut(j)
                    .is_some_and(|c| !c.shard.get_mut().handoff.is_empty())
                {
                    effects.extend(self.pump_steps(j, 1).0);
                    handed_off = true;
                }
            }
            if handed_off {
                continue;
            }
            let oldest = self
                .cells
                .iter_mut()
                .enumerate()
                .filter_map(|(j, cell)| {
                    let front = cell.shard.get_mut().inbox.front();
                    front.map(|&(seq, _)| (seq, j))
                })
                .min();
            let Some((_, j)) = oldest else {
                break;
            };
            effects.extend(self.pump_steps(j, 1).0);
        }
        effects
    }

    // ------------------------------------------------------------------
    // Observers.
    // ------------------------------------------------------------------

    /// Accumulated abstract step counts.
    pub fn steps(&self) -> StepCounter {
        self.global.lock().steps
    }

    /// Engine counters.
    pub fn stats(&self) -> Gtm2Stats {
        self.global.lock().stats
    }

    /// Clone of the recorded `ser(S)` log.
    pub fn ser_log_snapshot(&self) -> SerSLog {
        self.global.lock().ser_log.clone()
    }

    /// Number of operations currently waiting, across all shards.
    pub fn wait_len(&self) -> usize {
        self.global.lock().wait_live as usize
    }

    /// Operations queued (inboxes + handoffs + pre-init parkings) but not
    /// yet examined, across all shards.
    pub fn queue_len(&self) -> usize {
        let mut total = 0;
        for cell in &self.cells {
            total += cell.shard.spin().backlog();
        }
        total
    }

    /// Total handoff messages delivered across shards so far.
    pub fn cross_shard_handoffs(&self) -> u64 {
        let mut total = 0;
        for cell in &self.cells {
            total += cell.shard.spin().handoffs_in;
        }
        total
    }

    /// Merged wake-scan histogram totals across shards: `(count, sum)`.
    /// Reads the per-shard atomic mirrors, so it is safe (and lock-free)
    /// to call while other threads pump shards — no sampled shard's
    /// totals can be lost or torn, each is a drain-boundary snapshot.
    pub fn wake_scan_totals(&self) -> (u64, u64) {
        let mut count = 0u64;
        let mut sum = 0u64;
        for cell in &self.cells {
            count += cell.wake_scan_count.load(Ordering::Acquire);
            sum += cell.wake_scan_sum.load(Ordering::Acquire);
        }
        (count, sum)
    }

    /// Shard-lock contention counters summed over every shard plus the
    /// global core: `(contended acquires, parks)`.
    pub fn lock_contention(&self) -> (u64, u64) {
        let (mut contended, mut parks) = self.global.contention();
        for cell in &self.cells {
            let (c, p) = cell.shard.contention();
            contended += c;
            parks += p;
        }
        (contended, parks)
    }

    /// Export counters, gauges and histograms into `registry` under the
    /// `gtm2.` prefix — the same names as
    /// [`Gtm2::export_metrics`](crate::gtm2::Gtm2::export_metrics), plus
    /// the per-shard series (`gtm2.shard<j>.wake_scan`,
    /// `gtm2.shard_wait_peak`), `gtm2.cross_shard_handoff` and the lock
    /// contention counters.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let mut merged = Histogram::new();
        let mut handoffs = 0u64;
        for (j, cell) in self.cells.iter().enumerate() {
            let core = cell.shard.spin();
            registry.merge_histogram(&format!("gtm2.shard{j}.wake_scan"), &core.wake_scan);
            registry.max_gauge("gtm2.shard_wait_peak", core.wait_peak as i64);
            merged.merge(&core.wake_scan);
            handoffs += core.handoffs_in;
        }
        registry.inc("gtm2.cross_shard_handoff", handoffs);
        let (lock_contended, lock_parks) = self.lock_contention();
        registry.inc("gtm2.shard_lock_contended", lock_contended);
        registry.inc("gtm2.shard_lock_parks", lock_parks);
        self.global.lock().export_metrics(&merged, registry);
    }
}

impl std::fmt::Debug for ShardedGtm2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGtm2")
            .field("scheme", &self.kind.name())
            .field("shards", &self.cells.len())
            .field("partitioned", &(self.spread > 1))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtm2::Gtm2;
    use mdbs_common::ids::{GlobalTxnId, SiteId};
    use std::collections::VecDeque;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    fn init(txn: u64, sites: &[u32]) -> QueueOp {
        QueueOp::Init {
            txn: g(txn),
            sites: sites.iter().map(|&i| s(i)).collect(),
        }
    }
    fn ser(txn: u64, site: u32) -> QueueOp {
        QueueOp::Ser {
            txn: g(txn),
            site: s(site),
        }
    }
    fn ack(txn: u64, site: u32) -> QueueOp {
        QueueOp::Ack {
            txn: g(txn),
            site: s(site),
        }
    }
    fn fin(txn: u64) -> QueueOp {
        QueueOp::Fin { txn: g(txn) }
    }

    /// Pump shard `start`, then every shard a pump hints at, until no
    /// hints remain — what a thread following its own handoffs does.
    fn pump_following(engine: &ShardedGtm2, start: usize) -> Vec<SchemeEffect> {
        let mut effects = Vec::new();
        let mut worklist = VecDeque::from([start]);
        while let Some(j) = worklist.pop_front() {
            let (fx, hints) = engine.pump_shard(j);
            effects.extend(fx);
            worklist.extend(hints);
        }
        effects
    }

    /// Full lifecycle of `txns` single-site transactions at `site`,
    /// submitted through the shared-reference API.
    fn run_site_lifecycles(engine: &ShardedGtm2, site: u32, txns: &[u64]) {
        for &t in txns {
            pump_following(engine, engine.enqueue(init(t, &[site])));
        }
        for &t in txns {
            pump_following(engine, engine.enqueue(ser(t, site)));
        }
        for &t in txns {
            pump_following(engine, engine.enqueue(ack(t, site)));
            pump_following(engine, engine.enqueue(fin(t)));
        }
    }

    #[test]
    fn cross_shard_ack_wakes_fin_exactly_once() {
        // Scheme 1, 2 shards: site 1 lives in shard 1, fins in shard 0.
        // fin(2) waits in shard 0 until ack(2, 1) is acted in shard 1 —
        // the wake must cross shards, exactly once.
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(1, &[1]), init(2, &[1])] {
            let j = engine.enqueue(op);
            assert_eq!(j, 0, "inits route to shard 0");
            pump_following(&engine, j);
        }
        for op in [ser(1, 1), ack(1, 1)] {
            let j = engine.enqueue(op);
            assert_eq!(j, 1, "site-1 ops route to shard 1");
            pump_following(&engine, j);
        }
        let j = engine.enqueue(fin(1));
        pump_following(&engine, j);
        let j = engine.enqueue(ser(2, 1));
        pump_following(&engine, j);
        let j = engine.enqueue(fin(2));
        pump_following(&engine, j);
        assert_eq!(engine.wait_len(), 1, "fin(2) must wait for ack(2,1)");

        let j = engine.enqueue(ack(2, 1));
        let effects = pump_following(&engine, j);
        assert!(
            effects.contains(&SchemeEffect::ForwardAck {
                txn: g(2),
                site: s(1)
            }),
            "{effects:?}"
        );
        let stats = engine.stats();
        assert_eq!(stats.fins, 2, "each fin acted exactly once");
        assert_eq!(engine.wait_len(), 0);
        assert_eq!(engine.queue_len(), 0);
        assert!(
            engine.cross_shard_handoffs() >= 1,
            "the fin wakeup must travel via handoff"
        );
        assert_eq!(stats.protocol_violations, 0);
    }

    #[test]
    fn handoff_to_empty_shard_is_skipped() {
        // All traffic at site 0 (shard 0); shard 1 never has waiters, so
        // nothing may be delivered to it.
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        run_site_lifecycles(&engine, 0, &[1, 2]);
        assert_eq!(engine.stats().fins, 2);
        assert_eq!(engine.wait_len(), 0);
        assert_eq!(engine.queue_len(), 0);
        assert_eq!(
            engine.cross_shard_handoffs(),
            0,
            "deliveries to waiter-less shards must be skipped"
        );
    }

    #[test]
    fn self_handoff_stays_local() {
        // Scheme 0, 2 shards, contention at one site: the ack wakes the
        // waiting ser through the local cascade, not the handoff queue.
        let engine = ShardedGtm2::new(SchemeKind::Scheme0, 2);
        for op in [init(1, &[1]), init(2, &[1])] {
            let j = engine.enqueue(op);
            pump_following(&engine, j);
        }
        let j = engine.enqueue(ser(1, 1));
        pump_following(&engine, j);
        let j = engine.enqueue(ser(2, 1));
        pump_following(&engine, j);
        assert_eq!(engine.wait_len(), 1, "ser(2,1) waits behind ser(1,1)");
        let j = engine.enqueue(ack(1, 1));
        let effects = pump_following(&engine, j);
        let woken = effects
            .iter()
            .filter(|fx| {
                matches!(
                    fx,
                    SchemeEffect::SubmitSer { txn, site } if *txn == g(2) && *site == s(1)
                )
            })
            .count();
        assert_eq!(woken, 1, "ser(2,1) woken exactly once: {effects:?}");
        assert_eq!(
            engine.cross_shard_handoffs(),
            0,
            "a same-shard wake must not use the handoff queue"
        );
    }

    #[test]
    fn stale_handoff_after_waiter_left_is_harmless() {
        // Scheme 1, 2 shards: two acks are acted back-to-back in shard 1
        // before shard 0 runs. The first handoff wakes both waiting fins
        // (the second fin's cond is true once the first acts); the second
        // handoff then finds no candidates — it must do nothing, not
        // double-act a fin.
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(2, &[1]), init(3, &[1])] {
            let j = engine.enqueue(op);
            pump_following(&engine, j);
        }
        for op in [ser(2, 1), ack(2, 1), ser(3, 1), ack(3, 1)] {
            let j = engine.enqueue(op);
            pump_following(&engine, j);
        }
        // Delete queue at site 1 is now [G2, G3]; fins act immediately in
        // order. Re-run the shape with the fins *waiting* instead:
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(2, &[1]), init(3, &[1])] {
            pump_following(&engine, engine.enqueue(op));
        }
        for op in [ser(2, 1), ser(3, 1)] {
            pump_following(&engine, engine.enqueue(op));
        }
        // ser(3,1) waits behind ser(2,1)'s outstanding slot; fins wait too.
        for op in [fin(2), fin(3)] {
            pump_following(&engine, engine.enqueue(op));
        }
        assert!(engine.wait_len() >= 2);
        // Both acks into shard 1's inbox, then one pump: their two
        // handoffs land in shard 0 together.
        engine.enqueue(ack(2, 1));
        engine.enqueue(ack(3, 1));
        pump_following(&engine, 1);
        let stats = engine.stats();
        assert_eq!(stats.fins, 2, "fins acted exactly once each");
        assert_eq!(stats.processed, 8, "2 init + 2 ser + 2 ack + 2 fin");
        assert_eq!(engine.wait_len(), 0);
        assert_eq!(engine.queue_len(), 0);
        assert_eq!(stats.protocol_violations, 0);
    }

    #[test]
    fn pre_init_gate_parks_and_releases() {
        // A ser that reaches its site shard before the init is parked,
        // then released exactly once by the init's handoff.
        let engine = ShardedGtm2::new(SchemeKind::Scheme0, 2);
        engine.enqueue(ser(1, 1)); // shard 1, but G1 not inited yet
        pump_following(&engine, 1);
        assert_eq!(engine.queue_len(), 1, "ser parked behind missing init");
        assert_eq!(engine.stats().protocol_violations, 0);
        let j = engine.enqueue(init(1, &[1]));
        let effects = pump_following(&engine, j);
        assert_eq!(
            effects,
            vec![SchemeEffect::SubmitSer {
                txn: g(1),
                site: s(1)
            }]
        );
        assert_eq!(engine.queue_len(), 0);
        assert_eq!(engine.stats().processed, 2);
    }

    #[test]
    fn deterministic_pump_matches_single_engine() {
        // Identical op streams through Gtm2 and the sharded deterministic
        // pump must produce identical effects, stats and ser(S) for the
        // partitioned schemes.
        for kind in [SchemeKind::Scheme0, SchemeKind::Scheme1] {
            for shards in [1usize, 2, 3] {
                let ops = [
                    init(1, &[0, 1]),
                    init(2, &[1, 2]),
                    ser(1, 0),
                    ser(1, 1),
                    ser(2, 1),
                    ack(1, 0),
                    ack(1, 1),
                    ser(2, 2),
                    ack(2, 1),
                    fin(1),
                    ack(2, 2),
                    fin(2),
                ];
                let mut single = Gtm2::new(kind.build());
                let mut sharded = ShardedGtm2::new(kind, shards);
                let mut fx_single = Vec::new();
                let mut fx_sharded = Vec::new();
                for op in ops {
                    single.enqueue(op.clone());
                    fx_single.extend(single.pump());
                    sharded.enqueue(op);
                    fx_sharded.extend(sharded.pump_all());
                }
                assert_eq!(fx_single, fx_sharded, "{kind:?} @ {shards} shards");
                assert_eq!(single.stats(), sharded.stats(), "{kind:?} @ {shards}");
                assert_eq!(
                    single.ser_log().events(),
                    sharded.ser_log_snapshot().events(),
                    "{kind:?} @ {shards}"
                );
                assert_eq!(sharded.wait_len(), 0);
                assert_eq!(sharded.queue_len(), 0);
            }
        }
    }

    #[test]
    fn unpartitioned_schemes_funnel_through_shard_zero() {
        let engine = ShardedGtm2::new(SchemeKind::Scheme3, 4);
        for op in [init(1, &[2]), ser(1, 2), ack(1, 2), fin(1)] {
            let j = engine.enqueue(op);
            assert_eq!(j, 0, "Scheme 3 must route everything to shard 0");
            pump_following(&engine, j);
        }
        assert_eq!(engine.stats().fins, 1);
        assert_eq!(engine.cross_shard_handoffs(), 0);
    }
}
