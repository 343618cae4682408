//! Deterministic replay of QUEUE insertion orders.
//!
//! Section 4 of the paper compares schemes by degree of concurrency: *for
//! any given order of insertion of operations into QUEUE by GTM1*, a
//! higher-concurrency scheme adds no more operations to WAIT. The replay
//! harness makes that comparison executable: a [`Script`] fixes the
//! insertion order of `init` and `ser` operations; acknowledgements are
//! inserted the moment a `ser` is submitted (a zero-latency local DBMS) and
//! `fin_i` the moment all of `Ĝ_i`'s acks are forwarded — i.e. identical
//! GTM1/server behavior across schemes, so wait counts are comparable.
//!
//! The harness also generates scripts:
//! - [`Script::random`] — valid random insertion orders;
//! - [`Script::serializable_order`] — orders whose immediate processing is
//!   serializable (per-site event sequences follow one global total
//!   order), used to verify the Section 7 claim that Scheme 3 adds **no**
//!   `ser` operation to WAIT on such orders.

use crate::gtm2::{Gtm2, Gtm2Stats};
use crate::scheme::{KernelKind, SchemeEffect, SchemeKind};
use crate::ser_s::SerSLog;
use crate::sharded::ShardedGtm2;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::rng::derive_rng;
use mdbs_common::step::StepCounter;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// A scripted insertion event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptEvent {
    /// `init_i` with the transaction's site set.
    Init(GlobalTxnId, Vec<SiteId>),
    /// `ser_k(G_i)` request.
    Ser(GlobalTxnId, SiteId),
}

/// A replayable insertion order.
///
/// ```
/// use mdbs_core::replay::{replay, Script};
/// use mdbs_core::scheme::SchemeKind;
///
/// // Same random insertion order through two schemes: both keep ser(S)
/// // serializable; Scheme 3 waits no more often.
/// let script = Script::random(8, 3, 2.0, 7);
/// let s0 = replay(SchemeKind::Scheme0, &script);
/// let s3 = replay(SchemeKind::Scheme3, &script);
/// assert!(s0.ser_serializable && s3.ser_serializable);
/// assert_eq!(s3.completed, 8);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Script {
    /// The events in insertion order.
    pub events: Vec<ScriptEvent>,
}

impl Script {
    /// Validate: every `Ser` is preceded by its `Init` and listed in its
    /// site set; no duplicates; every announced site gets exactly one
    /// `Ser`.
    pub fn validate(&self) -> Result<(), String> {
        let mut announced: BTreeMap<GlobalTxnId, BTreeSet<SiteId>> = BTreeMap::new();
        let mut seen: BTreeSet<(GlobalTxnId, SiteId)> = BTreeSet::new();
        for ev in &self.events {
            match ev {
                ScriptEvent::Init(txn, sites) => {
                    if announced
                        .insert(*txn, sites.iter().copied().collect())
                        .is_some()
                    {
                        return Err(format!("duplicate init for {txn}"));
                    }
                }
                ScriptEvent::Ser(txn, site) => {
                    let Some(sites) = announced.get(txn) else {
                        return Err(format!("ser before init for {txn}"));
                    };
                    if !sites.contains(site) {
                        return Err(format!("{txn} has no edge at {site}"));
                    }
                    if !seen.insert((*txn, *site)) {
                        return Err(format!("duplicate ser {txn}@{site}"));
                    }
                }
            }
        }
        for (txn, sites) in &announced {
            for site in sites {
                if !seen.contains(&(*txn, *site)) {
                    return Err(format!("missing ser {txn}@{site}"));
                }
            }
        }
        Ok(())
    }

    /// Random valid script: `n` transactions over `m` sites, each touching
    /// `d_av` sites on average; `init` is inserted just before the
    /// transaction's first `ser`, and ser events interleave arbitrarily.
    pub fn random(n: usize, m: usize, dav: f64, seed: u64) -> Script {
        let mut rng = derive_rng(seed, "replay-script");
        let all_sites: Vec<SiteId> = (0..m as u32).map(SiteId).collect();
        // Per-transaction site sets.
        let mut pending: Vec<(GlobalTxnId, Vec<SiteId>)> = (0..n)
            .map(|i| {
                let txn = GlobalTxnId(i as u64 + 1);
                let d = sample_degree(dav, m, &mut rng);
                let mut sites = all_sites.clone();
                sites.shuffle(&mut rng);
                sites.truncate(d);
                sites.sort_unstable();
                (txn, sites)
            })
            .collect();
        // Interleave: pick a random transaction with events left; emit its
        // init lazily.
        let mut events = Vec::new();
        let mut inited: BTreeSet<GlobalTxnId> = BTreeSet::new();
        let mut remaining: Vec<(GlobalTxnId, Vec<SiteId>)> = Vec::new();
        std::mem::swap(&mut pending, &mut remaining);
        while !remaining.is_empty() {
            let idx = rng.gen_range(0..remaining.len());
            // mdbs-lint: allow(no-panic-in-scheduler) — idx was just sampled from 0..remaining.len().
            let (txn, sites) = &mut remaining[idx];
            if inited.insert(*txn) {
                events.push(ScriptEvent::Init(*txn, sites.clone()));
            }
            let site_idx = rng.gen_range(0..sites.len());
            let site = sites.remove(site_idx);
            events.push(ScriptEvent::Ser(*txn, site));
            if sites.is_empty() {
                remaining.remove(idx);
            }
        }
        let script = Script { events };
        debug_assert_eq!(script.validate(), Ok(()));
        script
    }

    /// A script whose immediate processing is serializable: transactions
    /// are totally ordered (by id) and each site's ser events appear in
    /// that order, with random interleaving *across* sites.
    pub fn serializable_order(n: usize, m: usize, dav: f64, seed: u64) -> Script {
        let mut rng = derive_rng(seed, "replay-serializable");
        let all_sites: Vec<SiteId> = (0..m as u32).map(SiteId).collect();
        let txns: Vec<(GlobalTxnId, Vec<SiteId>)> = (0..n)
            .map(|i| {
                let txn = GlobalTxnId(i as u64 + 1);
                let d = sample_degree(dav, m, &mut rng);
                let mut sites = all_sites.clone();
                sites.shuffle(&mut rng);
                sites.truncate(d);
                sites.sort_unstable();
                (txn, sites)
            })
            .collect();
        // Per-site queues in total (id) order.
        let mut site_queues: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
        for (txn, sites) in &txns {
            for &s in sites {
                site_queues.entry(s).or_default().push(*txn);
            }
        }
        let site_sets: BTreeMap<GlobalTxnId, Vec<SiteId>> = txns.into_iter().collect();
        let mut cursors: BTreeMap<SiteId, usize> = BTreeMap::new();
        let mut events = Vec::new();
        let mut inited: BTreeSet<GlobalTxnId> = BTreeSet::new();
        loop {
            let ready: Vec<SiteId> = site_queues
                .iter()
                .filter(|(s, q)| cursors.get(s).copied().unwrap_or(0) < q.len())
                .map(|(&s, _)| s)
                .collect();
            if ready.is_empty() {
                break;
            }
            // mdbs-lint: allow(no-panic-in-scheduler) — index sampled from 0..ready.len(), which is non-empty here.
            let site = ready[rng.gen_range(0..ready.len())];
            let cursor = cursors.entry(site).or_insert(0);
            // mdbs-lint: allow(no-panic-in-scheduler) — `ready` only lists sites whose cursor is still within the queue.
            let txn = site_queues[&site][*cursor];
            *cursor += 1;
            if inited.insert(txn) {
                // mdbs-lint: allow(no-panic-in-scheduler) — site_sets holds every txn that appears in a queue.
                events.push(ScriptEvent::Init(txn, site_sets[&txn].clone()));
            }
            events.push(ScriptEvent::Ser(txn, site));
        }
        let script = Script { events };
        debug_assert_eq!(script.validate(), Ok(()));
        script
    }

    /// Number of transactions in the script.
    pub fn txn_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ScriptEvent::Init(..)))
            .count()
    }

    /// Total number of ser events.
    pub fn ser_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ScriptEvent::Ser(..)))
            .count()
    }
}

/// Draw a transaction degree with mean `dav`, clamped to `[1, m]`:
/// `floor(dav)` or `ceil(dav)` with the fractional probability.
fn sample_degree(dav: f64, m: usize, rng: &mut impl Rng) -> usize {
    let lo = dav.floor() as usize;
    let frac = dav - dav.floor();
    let d = if rng.gen_bool(frac.clamp(0.0, 1.0)) {
        lo + 1
    } else {
        lo
    };
    d.clamp(1, m)
}

/// Result of replaying a script through one scheme.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Engine counters (waits are the concurrency metric).
    pub stats: Gtm2Stats,
    /// Abstract step counts (the complexity metric).
    pub steps: StepCounter,
    /// Global transactions aborted by the scheme (baselines only).
    pub aborted: Vec<GlobalTxnId>,
    /// Whether the recorded `ser(S)` was serializable.
    pub ser_serializable: bool,
    /// Transactions that completed (fin processed).
    pub completed: usize,
    /// Protocol violations reported by the scheme during the replay.
    /// Scripts are validated and acks are generated by the harness, so a
    /// non-zero count indicates a scheme bug; the count is surfaced (not
    /// panicked on) so callers can assert on it.
    pub protocol_violations: u64,
    /// The acted `ser(S)` events in act order, as `(txn, site)` — lets
    /// differential tests compare per-site serialization orders between
    /// engines.
    pub ser_events: Vec<(GlobalTxnId, SiteId)>,
    /// Number of wake scans performed (wake-scan histogram count).
    pub wake_scan_count: u64,
    /// Total wake candidates examined (wake-scan histogram sum).
    pub wake_scan_sum: u64,
}

/// Replay a script through a scheme with zero-latency acks and automatic
/// fins. Panics if the scheme wedges (operations left waiting at the end —
/// that would be a scheme bug, since the script is valid and complete).
pub fn replay(kind: SchemeKind, script: &Script) -> ReplayOutcome {
    replay_with(&mut Gtm2::new(kind.build()), script)
}

/// [`replay`] with an explicit kernel choice — used by the bench harness
/// and the `step_gate` tool to compare the reference BTree kernels against
/// the dense slot/bitset ones on identical inputs.
pub fn replay_kernel(kind: SchemeKind, kernel: KernelKind, script: &Script) -> ReplayOutcome {
    replay_with(&mut Gtm2::new(kind.build_kernel(kernel)), script)
}

/// Replay through a caller-built engine (lets callers toggle validation,
/// and read the engine's metrics afterwards).
pub fn replay_with(engine: &mut Gtm2, script: &Script) -> ReplayOutcome {
    run_script(engine, script)
}

/// Replay through the sharded engine's deterministic pump. `nshards = 1`
/// reproduces the single engine exactly; larger counts exercise the
/// per-site routing and cross-shard handoff paths (for the partitioned
/// schemes — the others funnel through shard 0 regardless).
pub fn replay_sharded(kind: SchemeKind, nshards: usize, script: &Script) -> ReplayOutcome {
    replay_sharded_with(ShardedGtm2::new(kind, nshards), script)
}

/// [`replay_sharded`] with an explicit kernel choice.
pub fn replay_sharded_kernel(
    kind: SchemeKind,
    kernel: KernelKind,
    nshards: usize,
    script: &Script,
) -> ReplayOutcome {
    replay_sharded_with(ShardedGtm2::new_with_kernel(kind, kernel, nshards), script)
}

/// [`replay_with`] for the sharded engine: replay through a pre-built
/// engine (lets callers toggle validation).
pub fn replay_sharded_with(mut engine: ShardedGtm2, script: &Script) -> ReplayOutcome {
    run_script(&mut engine, script)
}

/// What differs between the engines the replay loop can drive.
trait ReplayEngine {
    fn enqueue_op(&mut self, op: QueueOp);
    fn pump_ops(&mut self) -> Vec<SchemeEffect>;
    /// End-of-run snapshot of the engine's observers.
    fn end_state(&self) -> Observed;
}

struct Observed {
    name: &'static str,
    stats: Gtm2Stats,
    steps: StepCounter,
    waiting: usize,
    queued: usize,
    ser_log: SerSLog,
    /// Wake-scan histogram `(count, sum)`.
    wake_scan: (u64, u64),
}

impl ReplayEngine for Gtm2 {
    fn enqueue_op(&mut self, op: QueueOp) {
        self.enqueue(op);
    }
    fn pump_ops(&mut self) -> Vec<SchemeEffect> {
        self.pump()
    }
    fn end_state(&self) -> Observed {
        let h = self.wake_scan_histogram();
        Observed {
            name: self.scheme_name(),
            stats: self.stats(),
            steps: self.steps(),
            waiting: self.wait_len(),
            queued: self.queue_len(),
            ser_log: self.ser_log().clone(),
            wake_scan: (h.count(), h.sum()),
        }
    }
}

impl ReplayEngine for ShardedGtm2 {
    fn enqueue_op(&mut self, op: QueueOp) {
        self.enqueue(op);
    }
    fn pump_ops(&mut self) -> Vec<SchemeEffect> {
        self.pump_all()
    }
    fn end_state(&self) -> Observed {
        Observed {
            name: self.scheme_name(),
            stats: self.stats(),
            steps: self.steps(),
            waiting: self.wait_len(),
            queued: self.queue_len(),
            ser_log: self.ser_log_snapshot(),
            wake_scan: self.wake_scan_totals(),
        }
    }
}

/// The shared replay loop body.
fn run_script<E: ReplayEngine>(engine: &mut E, script: &Script) -> ReplayOutcome {
    let mut ctl = DrainCtl::default();
    for ev in &script.events {
        match ev {
            ScriptEvent::Init(txn, sites) => {
                ctl.acks_needed.insert(*txn, sites.len());
                engine.enqueue_op(QueueOp::Init {
                    txn: *txn,
                    sites: sites.clone(),
                });
            }
            ScriptEvent::Ser(txn, site) => {
                if ctl.aborted.contains(txn) {
                    continue; // GTM1 stops submitting for victims
                }
                engine.enqueue_op(QueueOp::Ser {
                    txn: *txn,
                    site: *site,
                });
            }
        }
        drain(engine, &mut ctl);
    }
    let seen = engine.end_state();
    assert_eq!(seen.waiting, 0, "{}: script left waiters", seen.name);
    assert_eq!(seen.queued, 0, "{}: queue not drained", seen.name);
    let aborted: Vec<GlobalTxnId> = ctl.aborted.into_iter().collect();
    ReplayOutcome {
        stats: seen.stats,
        steps: seen.steps,
        completed: seen.stats.fins as usize - aborted.len(),
        // Serializability is judged on the committed projection: baselines
        // execute events of transactions they later abort.
        ser_serializable: seen.ser_log.check_excluding(&aborted).is_ok(),
        ser_events: seen.ser_log.events().to_vec(),
        aborted,
        protocol_violations: ctl.protocol_violations,
        wake_scan_count: seen.wake_scan.0,
        wake_scan_sum: seen.wake_scan.1,
    }
}

/// GTM1-side bookkeeping for the replay loop.
#[derive(Default)]
struct DrainCtl {
    acks_needed: BTreeMap<GlobalTxnId, usize>,
    aborted: BTreeSet<GlobalTxnId>,
    fin_sent: BTreeSet<GlobalTxnId>,
    protocol_violations: u64,
}

/// Pump and respond to effects (acks, fins) until quiescent.
fn drain<E: ReplayEngine>(engine: &mut E, ctl: &mut DrainCtl) {
    loop {
        let effects = engine.pump_ops();
        if effects.is_empty() {
            return;
        }
        for fx in effects {
            match fx {
                SchemeEffect::SubmitSer { txn, site } => {
                    // Zero-latency local DBMS: ack immediately.
                    engine.enqueue_op(QueueOp::Ack { txn, site });
                }
                SchemeEffect::ForwardAck { txn, .. } => {
                    // Acks can still arrive for a just-aborted victim.
                    let Some(left) = ctl.acks_needed.get_mut(&txn) else {
                        continue;
                    };
                    *left -= 1;
                    if *left == 0 && ctl.fin_sent.insert(txn) {
                        engine.enqueue_op(QueueOp::Fin { txn });
                    }
                }
                SchemeEffect::AbortGlobal { txn } => {
                    ctl.aborted.insert(txn);
                    ctl.acks_needed.remove(&txn);
                    // GTM1 completes the victim vacuously with a fin so the
                    // scheme releases its bookkeeping — unless the abort
                    // was decided while processing that very fin
                    // (optimistic validation).
                    if ctl.fin_sent.insert(txn) {
                        engine.enqueue_op(QueueOp::Fin { txn });
                    }
                }
                SchemeEffect::ProtocolViolation { .. } => {
                    // Scripts are validated and acks are generated by this
                    // harness, so a violation here is a scheme bug. Count
                    // it (surfaced via ReplayOutcome) instead of bringing
                    // the replay down.
                    ctl.protocol_violations += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scripts_validate() {
        for seed in 0..20 {
            let s = Script::random(8, 4, 2.0, seed);
            assert_eq!(s.validate(), Ok(()));
            assert_eq!(s.txn_count(), 8);
            assert!(s.ser_count() >= 8);
        }
    }

    #[test]
    fn serializable_scripts_validate() {
        for seed in 0..20 {
            let s = Script::serializable_order(8, 4, 2.0, seed);
            assert_eq!(s.validate(), Ok(()));
        }
    }

    /// The naive site-graph baseline completes everything but is unsound:
    /// fin-time edge deletion lets cycles thread through transitive
    /// overlap chains. Both facts are asserted — if the violation ever
    /// disappears, the negative baseline stopped demonstrating its point.
    #[test]
    fn naive_site_graph_completes_but_violates() {
        let mut violations = 0;
        for seed in 0..25 {
            let script = Script::random(10, 4, 2.2, seed);
            let out = replay(SchemeKind::SiteGraph, &script);
            assert_eq!(out.completed, 10, "seed {seed}");
            assert!(out.aborted.is_empty());
            if !out.ser_serializable {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "the known BS88 deletion flaw must reproduce"
        );
        assert!(violations < 25, "most runs still come out serializable");
    }

    #[test]
    fn all_conservative_schemes_complete_and_serialize() {
        for seed in 0..10 {
            let script = Script::random(10, 4, 2.2, seed);
            for kind in SchemeKind::CONSERVATIVE {
                let out = replay(kind, &script);
                assert_eq!(out.completed, 10, "{kind} seed {seed}");
                assert!(out.ser_serializable, "{kind} seed {seed}");
                assert!(out.aborted.is_empty(), "{kind} must not abort");
                assert_eq!(
                    out.protocol_violations, 0,
                    "{kind} seed {seed}: scheme reported protocol violations"
                );
            }
        }
    }

    /// The paper's Section 7 claim: Scheme 3 adds no ser op to WAIT when
    /// the insertion order is serializable.
    #[test]
    fn scheme3_waitless_on_serializable_orders() {
        for seed in 0..20 {
            let script = Script::serializable_order(10, 4, 2.5, seed);
            let out = replay(SchemeKind::Scheme3, &script);
            assert_eq!(
                out.stats.waited_kind[1], 0,
                "Scheme 3 ser-waited on serializable order, seed {seed}"
            );
        }
    }

    /// Degree-of-concurrency dominance: Scheme 3 never waits more than
    /// Scheme 0 on the same insertion order (ser ops).
    #[test]
    fn scheme3_dominates_scheme0() {
        for seed in 0..20 {
            let script = Script::random(12, 4, 2.5, seed);
            let w0 = replay(SchemeKind::Scheme0, &script).stats.waited_kind[1];
            let w3 = replay(SchemeKind::Scheme3, &script).stats.waited_kind[1];
            assert!(w3 <= w0, "seed {seed}: scheme3 {w3} > scheme0 {w0}");
        }
    }

    #[test]
    fn scheme2_minimal_safe_and_at_least_as_concurrent() {
        for seed in 0..15 {
            let script = Script::random(8, 3, 2.0, seed);
            let base = replay(SchemeKind::Scheme2, &script);
            let min = replay(SchemeKind::Scheme2Minimal, &script);
            assert!(min.ser_serializable, "seed {seed}");
            assert!(min.aborted.is_empty());
            assert_eq!(min.completed, 8);
            // Fewer (or equal) dependencies can only reduce waits under
            // identical feedback; allow tiny feedback-induced slack.
            assert!(
                min.stats.waited_kind[1] <= base.stats.waited_kind[1] + 1,
                "seed {seed}: minimal {} vs base {}",
                min.stats.waited_kind[1],
                base.stats.waited_kind[1]
            );
        }
    }

    #[test]
    fn baselines_replay_without_wedging() {
        for seed in 0..10 {
            let script = Script::random(10, 3, 2.0, seed);
            for kind in [SchemeKind::AbortingTo, SchemeKind::OptimisticTicket] {
                let out = replay(kind, &script);
                assert!(out.ser_serializable, "{kind} seed {seed}");
                assert_eq!(
                    out.completed + out.aborted.len(),
                    10,
                    "{kind} seed {seed}: all txns accounted for"
                );
            }
        }
    }

    #[test]
    fn invalid_scripts_rejected() {
        let s = Script {
            events: vec![ScriptEvent::Ser(GlobalTxnId(1), SiteId(0))],
        };
        assert!(s.validate().is_err());
        let s = Script {
            events: vec![
                ScriptEvent::Init(GlobalTxnId(1), vec![SiteId(0)]),
                ScriptEvent::Ser(GlobalTxnId(1), SiteId(1)),
            ],
        };
        assert!(s.validate().is_err());
    }
}
