//! `ShardedGtm2` — the Basic_Scheme loop with a site-partitioned WAIT set,
//! as a deterministic single-owner **replay model**.
//!
//! The loop itself (`cond` → `act` → cascading WAIT re-test, stats, sink
//! events, metric export) is [`crate::gtm2`]'s slot logic, shared with the
//! single engine. This module holds only what partitioning adds to it:
//! routing, handoff delivery between shards, and the per-shard observers.
//! Nothing here is shared between threads: the live runtime runs one plain
//! [`Gtm2`](crate::gtm2::Gtm2) on its coordinator, and this engine is
//! driven by replay ([`replay_sharded`](crate::replay::replay_sharded))
//! and the equivalence tests, which ask what partitioning the WAIT set
//! costs and prove it admits exactly the single engine's outcomes.
//!
//! Theorem 2 reduces global serializability to the serializability of
//! `ser(S)`, whose conflict relation is *per site*: two `ser_k(G_i)`
//! events conflict only when they occur at the same site. This engine
//! exploits that structure. QUEUE and WAIT are partitioned into shards
//! (site `k` owns shard `k mod nshards`), each pumped on its own, while
//! the scheme state itself, the one structure whose updates must stay
//! totally ordered, lives in a single global core.
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
//! eligible. The pump consults the scheme's
//! [`wake_scope`](crate::scheme::Gtm2Scheme::wake_scope) bound to compute
//! the target shards and appends `o` to each target's handoff queue.
//! Receiving shards re-run `wake_candidates`/`cond` against *current*
//! global state, so handoffs are idempotent re-test hints: a stale or
//! duplicate handoff finds the waiter already gone (its key is removed
//! from WAIT before the re-test) and wakes nothing — this is what makes
//! the wake exactly-once.

use crate::gtm2::{enqueue_into, step_slot, GlobalCore, Gtm2Stats, PumpOut, ShardCore, SlotCtx};
use crate::scheme::{KernelKind, SchemeEffect, SchemeKind};
use crate::ser_s::SerSLog;
use mdbs_common::instrument::{Histogram, Registry};
use mdbs_common::ops::QueueOp;
use mdbs_common::step::StepCounter;

/// The GTM2 scheduler with QUEUE and WAIT partitioned by site.
///
/// The Basic_Scheme loop itself is [`crate::gtm2`]'s; this type adds what
/// partitioning needs around it: routing, handoff delivery, and the
/// per-shard observers. It has one owner: every method that changes the
/// engine takes `&mut self`, and [`pump_all`](ShardedGtm2::pump_all) is
/// the deterministic pump replay drives it with.
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
    cells: Vec<ShardCore>,
    global: GlobalCore,
}

impl ShardedGtm2 {
    /// Create an engine for `kind` with `nshards` pump shards (clamped to
    /// at least 1).
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
            cells: (0..nshards).map(|_| ShardCore::new()).collect(),
            global: GlobalCore::new(kind.build_kernel(kernel)),
        }
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
        self.global.validate = on;
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.kind.name()
    }

    /// Insert an operation into its shard's slice of QUEUE. Returns the
    /// shard index.
    pub fn enqueue(&mut self, op: QueueOp) -> usize {
        let j = self.route(&op);
        if let Some(core) = self.cells.get_mut(j) {
            enqueue_into(core, &mut self.global, op);
        }
        j
    }

    /// Run up to `max_steps` turns of the Basic_Scheme loop over shard
    /// `j`'s pending handoffs and its slice of QUEUE, then deliver the
    /// cross-shard handoffs it produced: each target shard with waiters
    /// gets the acted operation on its handoff queue and needs a pump of
    /// its own (a target with no waiters is skipped and not counted).
    /// Handoffs are idempotent re-test hints, so pumping a shard whose
    /// waiter has meanwhile left is harmless. Returns the effects.
    fn pump_shard(&mut self, j: usize, max_steps: usize) -> Vec<SchemeEffect> {
        let mut out = PumpOut::default();
        let Some(core) = self.cells.get_mut(j) else {
            return Vec::new();
        };
        let ctx = SlotCtx {
            shard: j,
            nshards: self.spread,
        };
        for _ in 0..max_steps {
            if !step_slot(ctx, core, &mut self.global, &mut out) {
                break;
            }
        }
        // `handoff_targets` never names the acting shard itself.
        for (op, targets) in out.handoffs {
            for t in targets {
                if let Some(core) = self.cells.get_mut(t).filter(|c| c.has_waiters()) {
                    core.handoff.push_back(op.clone());
                    core.handoffs_in += 1;
                }
            }
        }
        out.effects
    }

    /// Deterministically run all shards dry: pending handoffs first (to a
    /// fixpoint, sweeping shards in index order), then always the globally
    /// oldest queued operation, one at a time — which reproduces the
    /// single engine's FIFO examination order. Returns the effects in
    /// order.
    pub fn pump_all(&mut self) -> Vec<SchemeEffect> {
        let mut effects = Vec::new();
        loop {
            let mut handed_off = false;
            for j in 0..self.cells.len() {
                while self.cells.get(j).is_some_and(|c| !c.handoff.is_empty()) {
                    effects.extend(self.pump_shard(j, 1));
                    handed_off = true;
                }
            }
            if handed_off {
                continue;
            }
            let oldest = self
                .cells
                .iter()
                .enumerate()
                .filter_map(|(j, core)| core.inbox.front().map(|&(seq, _)| (seq, j)))
                .min();
            let Some((_, j)) = oldest else {
                break;
            };
            effects.extend(self.pump_shard(j, 1));
        }
        effects
    }

    // ------------------------------------------------------------------
    // Observers.
    // ------------------------------------------------------------------

    /// Accumulated abstract step counts.
    pub fn steps(&self) -> StepCounter {
        self.global.steps
    }

    /// Engine counters.
    pub fn stats(&self) -> Gtm2Stats {
        self.global.stats
    }

    /// Clone of the recorded `ser(S)` log.
    pub fn ser_log_snapshot(&self) -> SerSLog {
        self.global.ser_log.clone()
    }

    /// Number of operations currently waiting, across all shards.
    pub fn wait_len(&self) -> usize {
        self.global.wait_live as usize
    }

    /// Operations queued (inboxes + handoffs + pre-init parkings) but not
    /// yet examined, across all shards.
    pub fn queue_len(&self) -> usize {
        self.cells.iter().map(ShardCore::backlog).sum()
    }

    /// Total handoff messages delivered across shards so far.
    pub fn cross_shard_handoffs(&self) -> u64 {
        self.cells.iter().map(|core| core.handoffs_in).sum()
    }

    /// Merged wake-scan histogram totals across shards: `(count, sum)`.
    pub fn wake_scan_totals(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(count, sum), core| {
            (count + core.wake_scan.count(), sum + core.wake_scan.sum())
        })
    }

    /// Export counters, gauges and histograms into `registry` under the
    /// `gtm2.` prefix — the same names as
    /// [`Gtm2::export_metrics`](crate::gtm2::Gtm2::export_metrics), plus
    /// the per-shard series (`gtm2.shard<j>.wake_scan`,
    /// `gtm2.shard_wait_peak`) and `gtm2.cross_shard_handoff`.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let mut merged = Histogram::new();
        for (j, core) in self.cells.iter().enumerate() {
            registry.merge_histogram(&format!("gtm2.shard{j}.wake_scan"), &core.wake_scan);
            registry.max_gauge("gtm2.shard_wait_peak", core.wait_peak as i64);
            merged.merge(&core.wake_scan);
        }
        registry.inc("gtm2.cross_shard_handoff", self.cross_shard_handoffs());
        self.global.export_metrics(&merged, registry);
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

    /// Pump shard `start`, then every shard holding a handoff, until none
    /// is left.
    fn pump_following(engine: &mut ShardedGtm2, start: usize) -> Vec<SchemeEffect> {
        let mut effects = engine.pump_shard(start, usize::MAX);
        while let Some(j) = engine.cells.iter().position(|c| !c.handoff.is_empty()) {
            effects.extend(engine.pump_shard(j, usize::MAX));
        }
        effects
    }

    /// Enqueue `op` and pump its shard, following the handoffs.
    fn feed(engine: &mut ShardedGtm2, op: QueueOp) -> Vec<SchemeEffect> {
        let j = engine.enqueue(op);
        pump_following(engine, j)
    }

    /// Full lifecycle of `txns` single-site transactions at `site`.
    fn run_site_lifecycles(engine: &mut ShardedGtm2, site: u32, txns: &[u64]) {
        for &t in txns {
            feed(engine, init(t, &[site]));
        }
        for &t in txns {
            feed(engine, ser(t, site));
        }
        for &t in txns {
            feed(engine, ack(t, site));
            feed(engine, fin(t));
        }
    }

    #[test]
    fn cross_shard_ack_wakes_fin_exactly_once() {
        // Scheme 1, 2 shards: site 1 lives in shard 1, fins in shard 0.
        // fin(2) waits in shard 0 until ack(2, 1) is acted in shard 1 —
        // the wake must cross shards, exactly once.
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(1, &[1]), init(2, &[1])] {
            let j = engine.enqueue(op);
            assert_eq!(j, 0, "inits route to shard 0");
            pump_following(&mut engine, j);
        }
        for op in [ser(1, 1), ack(1, 1)] {
            let j = engine.enqueue(op);
            assert_eq!(j, 1, "site-1 ops route to shard 1");
            pump_following(&mut engine, j);
        }
        let j = engine.enqueue(fin(1));
        pump_following(&mut engine, j);
        let j = engine.enqueue(ser(2, 1));
        pump_following(&mut engine, j);
        let j = engine.enqueue(fin(2));
        pump_following(&mut engine, j);
        assert_eq!(engine.wait_len(), 1, "fin(2) must wait for ack(2,1)");

        let j = engine.enqueue(ack(2, 1));
        let effects = pump_following(&mut engine, j);
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
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        run_site_lifecycles(&mut engine, 0, &[1, 2]);
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
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme0, 2);
        for op in [init(1, &[1]), init(2, &[1])] {
            let j = engine.enqueue(op);
            pump_following(&mut engine, j);
        }
        let j = engine.enqueue(ser(1, 1));
        pump_following(&mut engine, j);
        let j = engine.enqueue(ser(2, 1));
        pump_following(&mut engine, j);
        assert_eq!(engine.wait_len(), 1, "ser(2,1) waits behind ser(1,1)");
        let j = engine.enqueue(ack(1, 1));
        let effects = pump_following(&mut engine, j);
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
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(2, &[1]), init(3, &[1])] {
            let j = engine.enqueue(op);
            pump_following(&mut engine, j);
        }
        for op in [ser(2, 1), ack(2, 1), ser(3, 1), ack(3, 1)] {
            let j = engine.enqueue(op);
            pump_following(&mut engine, j);
        }
        // Delete queue at site 1 is now [G2, G3]; fins act immediately in
        // order. Re-run the shape with the fins *waiting* instead:
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(2, &[1]), init(3, &[1])] {
            feed(&mut engine, op);
        }
        for op in [ser(2, 1), ser(3, 1)] {
            feed(&mut engine, op);
        }
        // ser(3,1) waits behind ser(2,1)'s outstanding slot; fins wait too.
        for op in [fin(2), fin(3)] {
            feed(&mut engine, op);
        }
        assert!(engine.wait_len() >= 2);
        // Both acks into shard 1's inbox, then one pump: their two
        // handoffs land in shard 0 together.
        engine.enqueue(ack(2, 1));
        engine.enqueue(ack(3, 1));
        pump_following(&mut engine, 1);
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
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme0, 2);
        engine.enqueue(ser(1, 1)); // shard 1, but G1 not inited yet
        pump_following(&mut engine, 1);
        assert_eq!(engine.queue_len(), 1, "ser parked behind missing init");
        assert_eq!(engine.stats().protocol_violations, 0);
        let j = engine.enqueue(init(1, &[1]));
        let effects = pump_following(&mut engine, j);
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
        let mut engine = ShardedGtm2::new(SchemeKind::Scheme3, 4);
        for op in [init(1, &[2]), ser(1, 2), ack(1, 2), fin(1)] {
            let j = engine.enqueue(op);
            assert_eq!(j, 0, "Scheme 3 must route everything to shard 0");
            pump_following(&mut engine, j);
        }
        assert_eq!(engine.stats().fins, 1);
        assert_eq!(engine.cross_shard_handoffs(), 0);
    }
}
