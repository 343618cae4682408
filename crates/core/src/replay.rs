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
//! - [`Script::windowed`] — a long history through a small sliding window
//!   of open transactions;
//! - [`Script::serializable_order`] — orders whose immediate processing is
//!   serializable (per-site event sequences follow one global total
//!   order), used to verify the Section 7 claim that Scheme 3 adds **no**
//!   `ser` operation to WAIT on such orders.

use crate::gtm2::{Gtm2, Gtm2Stats};
use crate::scheme::{KernelKind, SchemeEffect, SchemeKind};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::ops::QueueOp;
use mdbs_common::rng::{derive_rng, splitmix64};
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
    /// Validate: every `Init` announces a non-empty set of distinct sites;
    /// every `Ser` is preceded by its `Init` and listed in its site set; no
    /// duplicates; every announced site gets exactly one `Ser`.
    pub fn validate(&self) -> Result<(), String> {
        let mut announced: BTreeMap<GlobalTxnId, BTreeSet<SiteId>> = BTreeMap::new();
        let mut seen: BTreeSet<(GlobalTxnId, SiteId)> = BTreeSet::new();
        for ev in &self.events {
            match ev {
                ScriptEvent::Init(txn, sites) => {
                    let set: BTreeSet<SiteId> = sites.iter().copied().collect();
                    if set.is_empty() {
                        return Err(format!("{txn} announces no site"));
                    }
                    if set.len() != sites.len() {
                        return Err(format!("{txn} announces a site twice"));
                    }
                    if announced.insert(*txn, set).is_some() {
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
            #[expect(
                clippy::indexing_slicing,
                reason = "idx was just sampled from 0..remaining.len()."
            )]
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

    /// A valid script of `n` transactions over `m` sites, mean degree
    /// `dav`, emitted through a sliding window: at most `window`
    /// transactions have been announced (`init`) without all their `ser`
    /// events emitted. The live graph stays small while the history grows
    /// long — the opposite shape to [`Script::random`], where nearly all
    /// `n` are open at once. The benchmark's `sched_stream` workload draws
    /// the same events for the same arguments.
    pub fn windowed(n: usize, m: usize, dav: f64, window: usize, seed: u64) -> Script {
        let mut rng = SplitMix(seed);
        let mut open: Vec<(GlobalTxnId, Vec<SiteId>)> = Vec::with_capacity(window);
        let mut events = Vec::new();
        let mut admitted = 0usize;
        loop {
            while open.len() < window && admitted < n {
                admitted += 1;
                let txn = GlobalTxnId(admitted as u64);
                let frac = dav - dav.floor();
                let extra = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                let degree = (dav.floor() as usize + usize::from(extra < frac)).clamp(1, m);
                // Partial Fisher–Yates: the first `degree` entries are a
                // uniform sample of the sites.
                let mut sites: Vec<SiteId> = (0..m as u32).map(SiteId).collect();
                for i in 0..degree {
                    let j = i + rng.below(m - i);
                    sites.swap(i, j);
                }
                sites.truncate(degree);
                sites.sort_unstable();
                events.push(ScriptEvent::Init(txn, sites.clone()));
                open.push((txn, sites));
            }
            if open.is_empty() {
                break;
            }
            let idx = rng.below(open.len());
            let Some((txn, sites)) = open.get_mut(idx) else {
                break;
            };
            let site = sites.swap_remove(rng.below(sites.len()));
            events.push(ScriptEvent::Ser(*txn, site));
            if sites.is_empty() {
                open.swap_remove(idx);
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
            #[expect(
                clippy::indexing_slicing,
                reason = "index sampled from 0..ready.len(), which is non-empty here."
            )]
            let site = ready[rng.gen_range(0..ready.len())];
            let cursor = cursors.entry(site).or_insert(0);
            #[expect(
                clippy::indexing_slicing,
                reason = "`ready` only lists sites whose cursor is still within the queue."
            )]
            let txn = site_queues[&site][*cursor];
            *cursor += 1;
            if inited.insert(txn) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "site_sets holds every txn that appears in a queue."
                )]
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

/// A tiny deterministic generator (a splitmix64 stream) for
/// [`Script::windowed`], so its events depend on nothing but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// sizes used here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
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
    /// The engine's `protocol_violations`: broken internal invariants the
    /// scheme reported. Scripts are validated and acks are generated by
    /// the harness, so a non-zero count indicates a scheme bug; the count
    /// is surfaced (not panicked on) so callers can assert on it.
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

/// [`replay`], under the signature the standalone benchmark
/// (`benchmark/src/{measure,probes,replay_trace}.rs`) imports; ROADMAP
/// item 2 retires it along with [`replay_sharded_kernel`] and the kernel
/// kind.
pub fn replay_kernel(kind: SchemeKind, kernel: KernelKind, script: &Script) -> ReplayOutcome {
    let _ = kernel;
    replay(kind, script)
}

/// Kept for the benchmark's engine-ratio probe, which imports this
/// signature: `nshards` is unused, and the outcome is
/// [`replay_kernel`]'s. ROADMAP item 2 retires the function.
pub fn replay_sharded_kernel(
    kind: SchemeKind,
    kernel: KernelKind,
    nshards: usize,
    script: &Script,
) -> ReplayOutcome {
    let _ = nshards;
    replay_kernel(kind, kernel, script)
}

/// Replay through a caller-built engine (lets callers toggle validation,
/// and read the engine's metrics afterwards).
pub fn replay_with(engine: &mut Gtm2, script: &Script) -> ReplayOutcome {
    let mut ctl = DrainCtl::default();
    let mut effects = Vec::new();
    for ev in &script.events {
        match ev {
            ScriptEvent::Init(txn, sites) => {
                ctl.acks_needed.insert(*txn, sites.len());
                engine.enqueue(QueueOp::Init {
                    txn: *txn,
                    sites: sites.clone(),
                });
            }
            ScriptEvent::Ser(txn, site) => {
                if ctl.aborted.contains(txn) {
                    continue; // GTM1 stops submitting for victims
                }
                engine.enqueue(QueueOp::Ser {
                    txn: *txn,
                    site: *site,
                });
            }
        }
        drain(engine, &mut ctl, &mut effects);
    }
    let name = engine.scheme_name();
    assert_eq!(engine.wait_len(), 0, "{name}: script left waiters");
    assert_eq!(engine.queue_len(), 0, "{name}: queue not drained");
    let stats = engine.stats();
    let ser_log = engine.ser_log();
    let wake_scan = engine.wake_scan_histogram();
    let aborted: Vec<GlobalTxnId> = ctl.aborted.into_iter().collect();
    ReplayOutcome {
        stats,
        steps: engine.steps(),
        completed: stats.fins as usize - aborted.len(),
        // Serializability is judged on the committed projection: baselines
        // execute events of transactions they later abort.
        ser_serializable: ser_log.check_excluding(&aborted).is_ok(),
        ser_events: ser_log.events().to_vec(),
        aborted,
        protocol_violations: stats.protocol_violations,
        wake_scan_count: wake_scan.count(),
        wake_scan_sum: wake_scan.sum(),
    }
}

/// GTM1-side bookkeeping for the replay loop.
#[derive(Default)]
struct DrainCtl {
    acks_needed: BTreeMap<GlobalTxnId, usize>,
    aborted: BTreeSet<GlobalTxnId>,
    fin_sent: BTreeSet<GlobalTxnId>,
}

/// Pump and respond to effects (acks, fins) until quiescent. `effects`
/// is the pump's buffer, empty on entry and on return.
fn drain(engine: &mut Gtm2, ctl: &mut DrainCtl, effects: &mut Vec<SchemeEffect>) {
    loop {
        engine.pump_into(effects);
        if effects.is_empty() {
            return;
        }
        for fx in effects.drain(..) {
            match fx {
                SchemeEffect::SubmitSer { txn, site } => {
                    // Zero-latency local DBMS: ack immediately.
                    engine.enqueue(QueueOp::Ack { txn, site });
                }
                SchemeEffect::ForwardAck { txn, .. } => {
                    // Acks can still arrive for a just-aborted victim.
                    let Some(left) = ctl.acks_needed.get_mut(&txn) else {
                        continue;
                    };
                    *left -= 1;
                    if *left == 0 && ctl.fin_sent.insert(txn) {
                        engine.enqueue(QueueOp::Fin { txn });
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
                        engine.enqueue(QueueOp::Fin { txn });
                    }
                }
                // Counted by the engine, surfaced via ReplayOutcome.
                SchemeEffect::ProtocolViolation { .. } => {}
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
    fn windowed_scripts_validate_and_keep_the_window() {
        for seed in 0..8 {
            let s = Script::windowed(300, 10, 2.5, 16, seed);
            assert_eq!(s.validate(), Ok(()));
            assert_eq!(s.txn_count(), 300);
            let mut left: BTreeMap<GlobalTxnId, usize> = BTreeMap::new();
            let mut peak = 0;
            for ev in &s.events {
                match ev {
                    ScriptEvent::Init(txn, sites) => {
                        left.insert(*txn, sites.len());
                    }
                    ScriptEvent::Ser(txn, _) => {
                        if let Some(n) = left.get_mut(txn) {
                            *n -= 1;
                            if *n == 0 {
                                left.remove(txn);
                            }
                        }
                    }
                }
                peak = peak.max(left.len());
            }
            assert_eq!(peak, 16, "seed {seed}: the window fills and holds");
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
        // An init that repeats a site, or announces none, could never
        // finish: the replay would report no transaction completed.
        let s = Script {
            events: vec![
                ScriptEvent::Init(GlobalTxnId(1), vec![SiteId(0), SiteId(0)]),
                ScriptEvent::Ser(GlobalTxnId(1), SiteId(0)),
            ],
        };
        assert!(s.validate().is_err());
        let s = Script {
            events: vec![ScriptEvent::Init(GlobalTxnId(1), vec![])],
        };
        assert!(s.validate().is_err());
    }
}
