//! The conservative-scheme abstraction (Section 4 of the paper).
//!
//! A scheme is specified by its data structures plus `cond(o_j)` /
//! `act(o_j)` for the four queue operation kinds — exactly how the paper
//! specifies Schemes 0–3. One shared engine ([`crate::gtm2::Gtm2`]) runs
//! the Basic_Scheme loop of Figure 3 over any [`Gtm2Scheme`].
//!
//! The paper's complexity accounting charges a scheme for (1) `cond`
//! evaluations, (2) `act` executions, and (3) the work of determining which
//! waiting operations became eligible after an `act`. Point (3) is exposed
//! as [`Gtm2Scheme::wake_candidates`]: after `act(o)`, the scheme names the
//! waiting operations whose `cond` could have turned true. Scheme 0 returns
//! a single candidate (the new queue front) — that is how it achieves
//! `O(1)` wait rescans; a naive scheme may return
//! [`WakeCandidates::All`].

use mdbs_common::dense::IdHashMap;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::Registry;
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::StepCounter;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, VecDeque};

/// Unique identity of a queue operation (for the WAIT set). `site` is
/// `None` for `Init`/`Fin`.
pub type WaitKey = (QueueOpKind, GlobalTxnId, Option<SiteId>);

/// Compute the wait key of an operation.
pub fn wait_key(op: &QueueOp) -> WaitKey {
    (op.kind(), op.txn(), op.site())
}

/// The WAIT set: waiting operations in a hash map keyed by identity, so a
/// re-test ([`WaitSet::take_if`]) is one hash probe; every enumeration is
/// in key order.
///
/// Beside the map the set keeps what a wake pass needs without walking
/// WAIT: the waiting `ser`s ordered by site (so [`WakeCandidates::SerAt`]
/// resolves in O(candidates)) and counted per site, the waiting `fin`s in
/// transaction order, the `init` count, and the `Cond` steps the waiting
/// `fin`s were charged when they failed — the closed-form charge behind
/// [`WakeCandidates::SerAtFinsCharged`] and [`WakeCandidates::FinPass`].
/// Schemes read the counts to charge their wake-scan steps; the engine
/// expands candidates into a reused worklist with
/// [`WaitSet::resolve_into`].
#[derive(Clone, Debug, Default)]
pub struct WaitSet {
    /// Every waiter, by key. Never iterated in map order.
    ops: IdHashMap<WaitKey, Waiter>,
    /// Waiting `Ser`s as `(site, txn)`: one flat ordered set, so a site's
    /// waiters are a contiguous range in transaction order — their key
    /// order — and no per-site container is created or dropped as sites
    /// fill and empty.
    ser_by_site: BTreeSet<(SiteId, GlobalTxnId)>,
    /// Site → number of its waiting `Ser`s (the size of its range in
    /// `ser_by_site`). A site keeps its entry at 0.
    ser_counts: IdHashMap<SiteId, usize>,
    /// Waiting `Fin`s, in key order. Touched when a fin starts or stops
    /// waiting, never by a re-test.
    fins: BTreeSet<GlobalTxnId>,
    /// Sum of [`Waiter::cond_cost`] over the waiting `Fin`s.
    fin_cond: u64,
    /// Waiting `Init` count.
    inits: usize,
}

/// One entry of the WAIT set.
#[derive(Clone, Debug)]
struct Waiter {
    op: QueueOp,
    /// `Cond` steps the failing `cond` that put the operation here charged.
    cond_cost: u64,
}

impl WaitSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a waiting operation whose failing `cond` charged `cond_cost`
    /// `Cond` steps. Returns whether the key was new; a duplicate leaves
    /// the set (and the operation already waiting) untouched.
    pub fn insert(&mut self, op: QueueOp, cond_cost: u64) -> bool {
        let key = wait_key(&op);
        let Entry::Vacant(slot) = self.ops.entry(key) else {
            return false;
        };
        slot.insert(Waiter { op, cond_cost });
        match key {
            (QueueOpKind::Ser, txn, Some(site)) => {
                self.ser_by_site.insert((site, txn));
                *self.ser_counts.entry(site).or_default() += 1;
            }
            (QueueOpKind::Fin, txn, _) => {
                self.fins.insert(txn);
                self.fin_cond += cond_cost;
            }
            (QueueOpKind::Init, ..) => self.inits += 1,
            _ => {}
        }
        true
    }

    /// Whether an operation is waiting under `key`.
    pub fn contains(&self, key: &WaitKey) -> bool {
        self.ops.contains_key(key)
    }

    /// The operation waiting under `key`, if any.
    pub(crate) fn get(&self, key: &WaitKey) -> Option<&QueueOp> {
        self.ops.get(key).map(|waiter| &waiter.op)
    }

    /// Re-test the operation waiting under `key` in place: `eligible` is
    /// shown the operation where it sits, and only if it says yes does the
    /// operation leave WAIT (and get returned). A failing re-test costs one
    /// hash probe; a wake adds the removal.
    ///
    /// `#[inline]` keeps it inside the engine's re-test loops, which call
    /// it once per literal wake re-test; without the hint, how the crate
    /// is split into codegen units decides, and an out-of-line call cost
    /// `sched_burst` s1 about 11 % on 2 vCPU.
    #[inline]
    pub fn take_if(
        &mut self,
        key: &WaitKey,
        eligible: impl FnOnce(&QueueOp) -> bool,
    ) -> Option<QueueOp> {
        if !eligible(&self.ops.get(key)?.op) {
            return None;
        }
        let taken = self.ops.remove(key)?;
        match *key {
            (QueueOpKind::Ser, txn, Some(site)) => {
                self.ser_by_site.remove(&(site, txn));
                if let Some(count) = self.ser_counts.get_mut(&site) {
                    *count -= 1;
                }
            }
            (QueueOpKind::Fin, txn, _) => {
                self.fins.remove(&txn);
                self.fin_cond -= taken.cond_cost;
            }
            (QueueOpKind::Init, ..) => self.inits -= 1,
            _ => {}
        }
        Some(taken.op)
    }

    /// Number of waiting operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Key of a specific waiting `Ser` operation if present.
    pub fn ser_key(&self, txn: GlobalTxnId, site: SiteId) -> Option<WaitKey> {
        let key = (QueueOpKind::Ser, txn, Some(site));
        self.contains(&key).then_some(key)
    }

    /// The waiting `Ser`s at `site`, as transactions in ascending order.
    fn sers_at(&self, site: SiteId) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.ser_by_site
            .range((site, GlobalTxnId(0))..=(site, GlobalTxnId(u64::MAX)))
            .map(|&(_, txn)| txn)
    }

    /// Number of waiting `Ser` operations at `site` (O(1), maintained).
    pub fn ser_count_at(&self, site: SiteId) -> usize {
        self.ser_counts.get(&site).copied().unwrap_or(0)
    }

    /// Number of waiting `Ser` operations of `txn` (O(|WAIT|): only the
    /// naive site-graph baseline asks).
    pub fn ser_count_of(&self, txn: GlobalTxnId) -> usize {
        self.ops.keys().filter(|k| is_ser_of(k, txn)).count()
    }

    /// Number of waiting `Fin` operations (O(1), maintained).
    pub fn fin_count(&self) -> usize {
        self.fins.len()
    }

    /// `Cond` steps the waiting `Fin`s were charged when each failed its
    /// `cond` and joined WAIT, summed (O(1), maintained).
    pub fn fin_cond_cost(&self) -> u64 {
        self.fin_cond
    }

    /// Number of waiting `Init` operations (O(1), maintained).
    pub fn init_count(&self) -> usize {
        self.inits
    }

    /// The waiting `Fin`s' keys, in key order.
    fn fin_keys(&self) -> impl Iterator<Item = WaitKey> + '_ {
        self.fins.iter().map(|&txn| (QueueOpKind::Fin, txn, None))
    }

    /// The waiting `Fin`s in key order, each with the `Cond` steps its
    /// failing `cond` charged when it joined WAIT.
    pub(crate) fn fin_waiters(&self) -> impl Iterator<Item = (&QueueOp, u64)> + '_ {
        self.fin_keys()
            .filter_map(|key| self.ops.get(&key))
            .map(|waiter| (&waiter.op, waiter.cond_cost))
    }

    /// Append the waiting keys that satisfy `pred` to `out`, then sort the
    /// appended range in place — the map has no order of its own. O(|WAIT|),
    /// for the candidate sets no benchmarked scheme asks for.
    fn extend_sorted(&self, out: &mut VecDeque<Pending>, pred: impl Fn(&WaitKey) -> bool) {
        let start = out.len();
        out.extend(
            self.ops
                .keys()
                .filter(|k| pred(k))
                .map(|&k| Pending::Key(k)),
        );
        if let Some(appended) = out.make_contiguous().get_mut(start..) {
            appended.sort_unstable();
        }
    }

    /// Append what `cands` asks to have re-tested to the worklist `out`:
    /// keys in key order within each symbolic part, and for
    /// [`WakeCandidates::FinPass`] one [`Pending::FinPass`] entry, without
    /// allocating. Returns the number of keys appended — which leaves out
    /// the fins of [`WakeCandidates::SerAtFinsCharged`] and
    /// [`WakeCandidates::FinPass`], because those are charged in closed
    /// form.
    pub fn resolve_into(&self, cands: &WakeCandidates, out: &mut VecDeque<Pending>) -> usize {
        let before = out.len();
        let ser_at = |site: SiteId| {
            self.sers_at(site)
                .map(move |txn| Pending::Key((QueueOpKind::Ser, txn, Some(site))))
        };
        let fins = || self.fin_keys().map(Pending::Key);
        match cands {
            WakeCandidates::None => {}
            WakeCandidates::All => self.extend_sorted(out, |_| true),
            WakeCandidates::One(key) => out.push_back(Pending::Key(*key)),
            WakeCandidates::SerAt(site) | WakeCandidates::SerAtFinsCharged(site) => {
                out.extend(ser_at(*site))
            }
            WakeCandidates::Fins => out.extend(fins()),
            WakeCandidates::FinPass => {
                out.push_back(Pending::FinPass);
                return 0;
            }
            WakeCandidates::SerAtThenFins(site) => {
                out.extend(ser_at(*site));
                out.extend(fins());
            }
            WakeCandidates::Inits => self.extend_sorted(out, |k| k.0 == QueueOpKind::Init),
            WakeCandidates::SerOf(txn) => self.extend_sorted(out, |k| is_ser_of(k, *txn)),
        }
        out.len() - before
    }
}

/// True iff `key` is a `Ser` of `txn`.
fn is_ser_of(key: &WaitKey, txn: GlobalTxnId) -> bool {
    key.0 == QueueOpKind::Ser && key.1 == txn
}

/// Which waiting operations may have become eligible after an `act`.
///
/// The symbolic variants (`One`, `SerAt`, `Fins`, …) describe a candidate
/// set *by predicate* instead of materializing it: the engine expands them
/// against the WAIT set via [`WaitSet::resolve_into`] into a reused buffer,
/// so a scheme's `wake_candidates` never allocates on the hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WakeCandidates {
    /// Nothing can have changed.
    None,
    /// Re-evaluate every waiting operation (cost: the whole WAIT set).
    All,
    /// Re-evaluate exactly this key.
    One(WaitKey),
    /// Every waiting `Ser` at the site.
    SerAt(SiteId),
    /// Every waiting `Fin`.
    Fins,
    /// Every waiting `Ser` at the site, then every waiting `Fin` (the
    /// order Scheme 1's ack path re-tests in).
    SerAtThenFins(SiteId),
    /// [`SerAtThenFins`](Self::SerAtThenFins) with the fin half in closed
    /// form: every waiting `Ser` at the site is re-tested; every waiting
    /// `Fin` is counted as scanned and charged the `Cond` steps recorded
    /// when it joined WAIT ([`WaitSet::fin_cond_cost`]), but not re-tested.
    /// A scheme may return this only after an act for which it can prove
    /// that every waiting `fin` still fails its `cond`, and that a `fin`'s
    /// `cond` charges the same steps each time it is evaluated while the
    /// `fin` waits — then the literal re-tests would charge exactly this
    /// and wake nobody.
    SerAtFinsCharged(SiteId),
    /// [`Fins`](Self::Fins) in closed form: one pass over the waiting
    /// `Fin`s that charges every fin waiting when it starts the `Cond`
    /// steps recorded when it joined WAIT ([`WaitSet::fin_cond_cost`]),
    /// and re-tests only the ones [`Gtm2Scheme::ready_fins`] names, in key
    /// order, re-reading them after each wake. The engine counts every
    /// waiting fin as scanned. A scheme may return this only if a `fin`'s
    /// `cond` charges the same steps each time it is evaluated while the
    /// `fin` waits.
    FinPass,
    /// Every waiting `Init`.
    Inits,
    /// Every waiting `Ser` of one transaction.
    SerOf(GlobalTxnId),
}

/// One entry of the engine's wake worklist (Figure 3's inner loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pending {
    /// Re-test the operation waiting under this key, if it still waits.
    Key(WaitKey),
    /// Run one closed-form pass over the waiting fins
    /// ([`WakeCandidates::FinPass`]).
    FinPass,
}

/// How a scheme's internal invariant broke. Malformed input never gets
/// this far: GTM1 refuses it at the door, and every caller of
/// [`Gtm2::enqueue`](crate::gtm2::Gtm2::enqueue) keeps Figure 2's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolViolationKind {
    /// Internal dependency accounting desynced: a checked decrement in the
    /// dense TSGD's `remove_txn` found its counter already at zero. Never
    /// produced on well-formed inputs; counted instead of panicking in the
    /// scheduler.
    DesyncedDependency,
}

impl std::fmt::Display for ProtocolViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtocolViolationKind::DesyncedDependency => "dependency accounting desynced",
        };
        f.write_str(s)
    }
}

/// Effects an `act` can request from the surrounding system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeEffect {
    /// Submit `ser_k(G_i)` to the local DBMS through the site's server.
    SubmitSer {
        /// Transaction whose serialization event runs.
        txn: GlobalTxnId,
        /// Site of the event.
        site: SiteId,
    },
    /// Forward `ack(ser_k(G_i))` to GTM1.
    ForwardAck {
        /// Transaction acknowledged.
        txn: GlobalTxnId,
        /// Site acknowledging.
        site: SiteId,
    },
    /// Abort the global transaction (non-conservative baselines only; the
    /// paper's conservative schemes never emit this).
    AbortGlobal {
        /// Victim.
        txn: GlobalTxnId,
    },
    /// A scheme's internal invariant broke while acting the operation
    /// (see [`ProtocolViolationKind`]). The scheme reports instead of
    /// panicking; the engine counts these in
    /// `Gtm2Stats::protocol_violations`.
    ProtocolViolation {
        /// Transaction named by the offending operation.
        txn: GlobalTxnId,
        /// Site named by the offending operation, if any.
        site: Option<SiteId>,
        /// What was violated.
        kind: ProtocolViolationKind,
    },
}

/// A GTM2 scheduling scheme: data structures plus `cond`/`act`.
pub trait Gtm2Scheme {
    /// Display name ("Scheme 0", ...).
    fn name(&self) -> &'static str;

    /// Evaluate `cond(op)` over the scheme's data structures. Must be free
    /// of side effects on scheduling state; charges its work to `steps`.
    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool;

    /// Execute `act(op)`, mutating the data structures and appending its
    /// effects to `out`, which may already hold earlier ones. Only called
    /// when `cond(op)` holds.
    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>);

    /// After `act(acted)`, which waiting operations might now satisfy their
    /// `cond`? Charged to `steps` as wait-scan work.
    fn wake_candidates(
        &self,
        acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        let _ = acted;
        steps.bump(mdbs_common::step::StepKind::WaitScan, wait.len() as u64);
        WakeCandidates::All
    }

    /// The transactions whose waiting `fin` may pass its `cond` now, into
    /// `out` (cleared by the caller): a superset is fine, in any order,
    /// with repeats. Asked only during a [`WakeCandidates::FinPass`], which
    /// re-tests just these fins and charges every other one in closed
    /// form, so a scheme that never returns `FinPass` keeps the default,
    /// which names none.
    fn ready_fins(&self, out: &mut Vec<GlobalTxnId>) {
        let _ = out;
    }

    /// `Some(c)` if every waiting `ser` at `site` must fail its `cond` now,
    /// each charging `c` `Cond` steps. After a woken `ser` at the site
    /// acts, the engine charges the worklist's leading `ser`s at the site
    /// `c` each instead of re-testing them. The default, `None`, keeps
    /// every re-test literal.
    fn ser_blocked_at(&self, site: SiteId) -> Option<u64> {
        let _ = site;
        None
    }

    /// Internal consistency check, called by the engine after every act in
    /// tests. Panics on violation.
    fn debug_validate(&self) {}

    /// Export scheme-internal counters (cache hit rates, recompute counts)
    /// into `registry`. Called once by the engine's own `export_metrics`;
    /// the default exports nothing.
    fn export_metrics(&self, registry: &mut Registry) {
        let _ = registry;
    }
}

/// Wraps a scheme, discarding its wake hints in favor of re-examining the
/// whole WAIT set after every act — the naive reading of Figure 3's inner
/// loop. Behaviorally identical to the wrapped scheme (property-tested),
/// but pays `O(|WAIT|)` rescan steps per act; the EXP-WAIT experiment uses
/// it to measure what the paper's wake-targeting accounting saves.
pub struct FullRescan(pub Box<dyn Gtm2Scheme + Send>);

impl Gtm2Scheme for FullRescan {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        self.0.cond(op, steps)
    }
    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        self.0.act(op, steps, out);
    }
    fn wake_candidates(
        &self,
        _acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.bump(mdbs_common::step::StepKind::WaitScan, wait.len() as u64);
        WakeCandidates::All
    }
    fn debug_validate(&self) {
        self.0.debug_validate();
    }
    fn export_metrics(&self, registry: &mut Registry) {
        self.0.export_metrics(registry);
    }
}

/// The one kernel kind [`SchemeKind::build_kernel`] accepts.
///
/// It exists only because the standalone benchmark
/// (`benchmark/src/{inline,measure,probes,replay_trace}.rs`) imports it;
/// ROADMAP item 2 retires it together with [`SchemeKind::build_kernel`],
/// [`crate::replay::replay_kernel`] and
/// [`crate::replay::replay_sharded_kernel`]. The paper-text kernels are
/// not a runtime choice: tests reach them through
/// [`crate::reference::build`].
#[derive(Clone, Copy, Debug)]
pub enum KernelKind {
    /// The kernels [`SchemeKind::build`] returns.
    Dense,
}

/// Enumeration of the provided GTM2 schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Scheme 0 — per-site FIFO queues (conservative-TO-like).
    Scheme0,
    /// Scheme 1 — transaction-site graph.
    Scheme1,
    /// Scheme 2 — TSG with dependencies.
    Scheme2,
    /// Ablation: Scheme 2 with exact minimum Δ (Theorem 7's NP-hard
    /// variant) instead of `Eliminate_Cycles`.
    Scheme2Minimal,
    /// Historical negative baseline: the naive BS88-style site-graph
    /// scheme with fin-time edge deletion — **unsound** (see
    /// [`crate::scheme_sg`]); kept to demonstrate the flaw Scheme 1's
    /// delete queues fix.
    SiteGraph,
    /// Scheme 3 — the O-scheme admitting all serializable schedules.
    Scheme3,
    /// Baseline: aborting timestamp scheduler on `ser(S)`.
    AbortingTo,
    /// Baseline: optimistic validation at `fin` (ticket-method flavor).
    OptimisticTicket,
}

impl SchemeKind {
    /// The four conservative schemes of the paper.
    pub const CONSERVATIVE: [SchemeKind; 4] = [
        SchemeKind::Scheme0,
        SchemeKind::Scheme1,
        SchemeKind::Scheme2,
        SchemeKind::Scheme3,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Scheme0 => "Scheme 0",
            SchemeKind::Scheme1 => "Scheme 1",
            SchemeKind::Scheme2 => "Scheme 2",
            SchemeKind::Scheme2Minimal => "Scheme 2-MIN",
            SchemeKind::SiteGraph => "Naive-SG (BS88)",
            SchemeKind::Scheme3 => "Scheme 3",
            SchemeKind::AbortingTo => "Aborting-TO",
            SchemeKind::OptimisticTicket => "Optimistic-Ticket",
        }
    }

    /// Instantiate the scheme. Schemes 1–3 run on the dense kernels
    /// ([`crate::kernel_dense`]); their paper-text oracles live in
    /// [`crate::reference`], which also holds Scheme 2-MIN's exact search.
    pub fn build(self) -> Box<dyn Gtm2Scheme + Send> {
        match self {
            SchemeKind::Scheme0 => Box::new(crate::scheme0::Scheme0::new()),
            SchemeKind::Scheme1 => Box::new(crate::kernel_dense::Scheme1Dense::new()),
            SchemeKind::Scheme2 => Box::new(crate::kernel_dense::Scheme2Dense::new()),
            SchemeKind::Scheme2Minimal => {
                Box::new(crate::reference::scheme2::Scheme2::new_minimal())
            }
            SchemeKind::SiteGraph => Box::new(crate::scheme_sg::SiteGraphScheme::new()),
            SchemeKind::Scheme3 => Box::new(crate::kernel_dense::Scheme3Dense::new()),
            SchemeKind::AbortingTo => Box::new(crate::baselines::AbortingTo::new()),
            SchemeKind::OptimisticTicket => Box::new(crate::baselines::OptimisticTicket::new()),
        }
    }

    /// [`SchemeKind::build`], under the signature the standalone benchmark
    /// imports; ROADMAP item 2 retires it.
    pub fn build_kernel(self, kernel: KernelKind) -> Box<dyn Gtm2Scheme + Send> {
        let _ = kernel;
        self.build()
    }

    /// True for the paper's conservative schemes (never abort).
    pub fn is_conservative(self) -> bool {
        !matches!(self, SchemeKind::AbortingTo | SchemeKind::OptimisticTicket)
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The oracle `resolve_into` is checked against: the waiting keys, in
    /// key order, that satisfy `pred` — a filtered walk of all of WAIT,
    /// sorted here so that it does not depend on the map's own order.
    fn keys_where(w: &WaitSet, pred: impl Fn(&WaitKey) -> bool) -> Vec<WaitKey> {
        let mut keys: Vec<WaitKey> = w.ops.keys().copied().filter(|k| pred(k)).collect();
        keys.sort_unstable();
        keys
    }

    fn ser(txn: u64, site: u32) -> QueueOp {
        QueueOp::Ser {
            txn: GlobalTxnId(txn),
            site: SiteId(site),
        }
    }

    fn fin(txn: u64) -> QueueOp {
        QueueOp::Fin {
            txn: GlobalTxnId(txn),
        }
    }

    /// The keys of a worklist, without its fin passes.
    fn keys_of<'a>(worklist: impl IntoIterator<Item = &'a Pending>) -> Vec<WaitKey> {
        worklist
            .into_iter()
            .filter_map(|entry| match entry {
                Pending::Key(key) => Some(*key),
                Pending::FinPass => None,
            })
            .collect()
    }

    fn resolved(w: &WaitSet, cands: &WakeCandidates) -> Vec<WaitKey> {
        let mut buf = VecDeque::new();
        let n = w.resolve_into(cands, &mut buf);
        let keys = keys_of(&buf);
        assert_eq!(n, keys.len());
        keys
    }

    #[test]
    fn wait_set_basics() {
        let mut w = WaitSet::new();
        let op = ser(1, 2);
        assert!(w.insert(op.clone(), 1));
        assert_eq!(w.len(), 1);
        assert_eq!(w.ser_count_at(SiteId(2)), 1);
        assert_eq!(w.ser_count_at(SiteId(3)), 0);
        assert!(w.ser_key(GlobalTxnId(1), SiteId(2)).is_some());
        let key = wait_key(&op);
        assert!(w.contains(&key));
        assert_eq!(w.take_if(&key, |_| false), None);
        assert_eq!(w.len(), 1, "a failing re-test leaves the waiter in place");
        assert_eq!(w.take_if(&key, |_| true), Some(op));
        assert!(w.is_empty());
        assert!(!w.contains(&key));
    }

    #[test]
    fn counters_and_resolve_match_filtered_walk() {
        let mut w = WaitSet::new();
        // Inserted out of key order; site 1 sits between two site-0 sers.
        for op in [ser(2, 1), ser(2, 0), ser(1, 0), ser(7, 0), ser(3, 2)] {
            assert!(w.insert(op, 1));
        }
        assert!(w.insert(fin(3), 3));
        assert!(w.insert(fin(9), 4));
        assert!(w.insert(
            QueueOp::Init {
                txn: GlobalTxnId(4),
                sites: vec![SiteId(0)],
            },
            1
        ));
        fn ser_at(w: &WaitSet, site: u32) -> Vec<WaitKey> {
            keys_where(w, |k| k.0 == QueueOpKind::Ser && k.2 == Some(SiteId(site)))
        }
        let fins = keys_where(&w, |k| k.0 == QueueOpKind::Fin);
        assert_eq!(w.ser_count_at(SiteId(0)), 3);
        assert_eq!(w.ser_count_of(GlobalTxnId(2)), 2);
        assert_eq!(w.fin_count(), 2);
        assert_eq!(w.fin_cond_cost(), 7);
        assert_eq!(w.init_count(), 1);

        assert_eq!(
            resolved(&w, &WakeCandidates::SerAt(SiteId(0))),
            ser_at(&w, 0)
        );
        assert_eq!(
            resolved(&w, &WakeCandidates::SerAt(SiteId(1))),
            ser_at(&w, 1)
        );
        assert_eq!(resolved(&w, &WakeCandidates::SerAt(SiteId(5))), vec![]);
        assert_eq!(resolved(&w, &WakeCandidates::Fins), fins);
        let mut both = ser_at(&w, 0);
        both.extend(fins);
        assert_eq!(
            resolved(&w, &WakeCandidates::SerAtThenFins(SiteId(0))),
            both
        );
        // The closed forms re-test the sers only, and a fin pass is one
        // worklist entry.
        assert_eq!(
            resolved(&w, &WakeCandidates::SerAtFinsCharged(SiteId(0))),
            ser_at(&w, 0)
        );
        let mut pass = VecDeque::new();
        assert_eq!(w.resolve_into(&WakeCandidates::FinPass, &mut pass), 0);
        assert_eq!(Vec::from(pass), vec![Pending::FinPass]);
        assert_eq!(
            w.fin_waiters()
                .map(|(op, cost)| (wait_key(op), cost))
                .collect::<Vec<_>>(),
            vec![(wait_key(&fin(3)), 3), (wait_key(&fin(9)), 4)]
        );
        assert_eq!(w.get(&wait_key(&fin(9))), Some(&fin(9)));
        assert_eq!(w.get(&wait_key(&fin(8))), None);
        assert_eq!(
            resolved(&w, &WakeCandidates::SerOf(GlobalTxnId(2))),
            keys_where(&w, |k| k.0 == QueueOpKind::Ser && k.1 == GlobalTxnId(2))
        );
        assert_eq!(
            resolved(&w, &WakeCandidates::Inits),
            keys_where(&w, |k| k.0 == QueueOpKind::Init)
        );
        assert_eq!(resolved(&w, &WakeCandidates::All), keys_where(&w, |_| true));

        // A duplicate is refused and counts nothing twice; removal undoes
        // exactly what the insert did.
        assert!(!w.insert(ser(1, 0), 1));
        assert!(!w.insert(fin(3), 50));
        assert_eq!(w.ser_count_at(SiteId(0)), 3);
        assert_eq!((w.fin_count(), w.fin_cond_cost()), (2, 7));
        w.take_if(&wait_key(&ser(1, 0)), |_| true);
        assert_eq!(w.ser_count_at(SiteId(0)), 2);
        assert_eq!(
            resolved(&w, &WakeCandidates::SerAt(SiteId(0))),
            ser_at(&w, 0)
        );
        w.take_if(&wait_key(&fin(3)), |_| true);
        assert_eq!((w.fin_count(), w.fin_cond_cost()), (1, 4));
    }

    /// The `init` / `ser` / `fin` a WAIT key names (an `init` announces
    /// one site).
    fn op_of(key: WaitKey) -> QueueOp {
        match key {
            (QueueOpKind::Init, txn, _) => QueueOp::Init {
                txn,
                sites: vec![SiteId(0)],
            },
            (QueueOpKind::Ser, txn, Some(site)) => ser(txn.0, site.0),
            (_, txn, _) => fin(txn.0),
        }
    }

    /// Every candidate set the churn test resolves, with the model's
    /// answer: its keys in key order (the fins' closed forms re-test none;
    /// a fin pass is one entry).
    fn model_candidates(
        model: &BTreeMap<WaitKey, u64>,
        probe: WaitKey,
    ) -> Vec<(WakeCandidates, Vec<Pending>)> {
        let keys = |pred: &dyn Fn(&WaitKey) -> bool| -> Vec<Pending> {
            model
                .keys()
                .copied()
                .filter(|k| pred(k))
                .map(Pending::Key)
                .collect()
        };
        let ser_at = |s: u32| keys(&|k| k.0 == QueueOpKind::Ser && k.2 == Some(SiteId(s)));
        let fins = keys(&|k| k.0 == QueueOpKind::Fin);
        let mut all = vec![
            (WakeCandidates::None, vec![]),
            (WakeCandidates::All, keys(&|_| true)),
            (WakeCandidates::One(probe), vec![Pending::Key(probe)]),
            (WakeCandidates::Fins, fins.clone()),
            (WakeCandidates::FinPass, vec![Pending::FinPass]),
            (WakeCandidates::Inits, keys(&|k| k.0 == QueueOpKind::Init)),
        ];
        for s in 0..5 {
            let site = SiteId(s);
            let mut then_fins = ser_at(s);
            then_fins.extend(fins.iter().copied());
            all.push((WakeCandidates::SerAt(site), ser_at(s)));
            all.push((WakeCandidates::SerAtFinsCharged(site), ser_at(s)));
            all.push((WakeCandidates::SerAtThenFins(site), then_fins));
        }
        for t in 0..9 {
            let txn = GlobalTxnId(t);
            all.push((WakeCandidates::SerOf(txn), keys(&|k| is_ser_of(k, txn))));
        }
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert / duplicate insert / `take_if(true|false)` churn
        /// over {init, ser, fin} × 8 txns × 4 sites, checked after every
        /// operation against a `BTreeMap` model: every candidate set
        /// resolves to the model's keys in key order — appended behind a
        /// wrapped, non-empty worklist that it must leave alone — and every
        /// count equals the model's recount.
        #[test]
        fn wait_set_churn_matches_ordered_model(
            steps in prop::collection::vec((0u8..4, 0u8..3, 0u64..8, 0u32..4, 0u64..10), 0..120)
        ) {
            let mut w = WaitSet::new();
            let mut model: BTreeMap<WaitKey, u64> = BTreeMap::new();
            for (action, kind, txn, site, cost) in steps {
                let mut key = match kind {
                    0 => (QueueOpKind::Init, GlobalTxnId(txn), None),
                    1 => (QueueOpKind::Ser, GlobalTxnId(txn), Some(SiteId(site))),
                    _ => (QueueOpKind::Fin, GlobalTxnId(txn), None),
                };
                match action {
                    0 => {
                        let new = !model.contains_key(&key);
                        if new {
                            model.insert(key, cost);
                        }
                        prop_assert_eq!(w.insert(op_of(key), cost), new);
                    }
                    1 => {
                        // Re-insert a key that is waiting, at another cost.
                        if let Some(&k) = model.keys().nth((txn * 4 + u64::from(site)) as usize % model.len().max(1)) {
                            key = k;
                            prop_assert!(!w.insert(op_of(key), cost + 100));
                        }
                    }
                    2 => {
                        let want = model.remove(&key).map(|_| op_of(key));
                        prop_assert_eq!(w.take_if(&key, |op| wait_key(op) == key), want);
                    }
                    _ => {
                        prop_assert_eq!(w.take_if(&key, |_| false), None);
                    }
                }
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(w.contains(&key), model.contains_key(&key));
                let fins = model.iter().filter(|(k, _)| k.0 == QueueOpKind::Fin);
                prop_assert_eq!(w.fin_count(), fins.clone().count());
                prop_assert_eq!(w.fin_cond_cost(), fins.map(|(_, c)| c).sum::<u64>());
                prop_assert_eq!(
                    w.init_count(),
                    model.keys().filter(|k| k.0 == QueueOpKind::Init).count()
                );
                for s in 0..5 {
                    let at = |k: &&WaitKey| k.0 == QueueOpKind::Ser && k.2 == Some(SiteId(s));
                    prop_assert_eq!(w.ser_count_at(SiteId(s)), model.keys().filter(at).count());
                    prop_assert_eq!(w.ser_count_at(SiteId(s)), w.sers_at(SiteId(s)).count());
                }
                for t in 0..9 {
                    let of = |k: &&WaitKey| is_ser_of(k, GlobalTxnId(t));
                    prop_assert_eq!(w.ser_count_of(GlobalTxnId(t)), model.keys().filter(of).count());
                }
                let prefix = [Pending::Key(wait_key(&fin(99))), Pending::Key(wait_key(&ser(98, 7)))];
                for (cands, want) in model_candidates(&model, key) {
                    // A wrapped worklist: its head is not at index 0.
                    let mut out = VecDeque::with_capacity(4);
                    out.extend([prefix[0], prefix[0], prefix[0]]);
                    out.pop_front();
                    out.pop_front();
                    out.push_back(prefix[1]);
                    let n = w.resolve_into(&cands, &mut out);
                    prop_assert_eq!(n, keys_of(&want).len(), "{:?}", cands);
                    let got: Vec<Pending> = out.iter().copied().collect();
                    prop_assert_eq!(&got[..2], &prefix[..], "{:?}", cands);
                    prop_assert_eq!(&got[2..], &want[..], "{:?}", cands);
                }
            }
        }
    }

    #[test]
    fn scheme_kind_metadata() {
        assert!(SchemeKind::Scheme3.is_conservative());
        assert!(!SchemeKind::AbortingTo.is_conservative());
        assert_eq!(SchemeKind::CONSERVATIVE.len(), 4);
        assert_eq!(SchemeKind::Scheme1.to_string(), "Scheme 1");
    }
}
