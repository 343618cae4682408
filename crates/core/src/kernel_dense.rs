//! Dense-id kernels for Schemes 1–3.
//!
//! These are drop-in re-implementations of Schemes 1, 2 and 3
//! on top of [`mdbs_common::DenseInterner`] + [`mdbs_common::DenseBitSet`]
//! (and, for Scheme 2, [`crate::tsgd_dense::DenseTsgd`]): live transaction
//! and site ids are interned into compact `u32` slots (recycled at `fin`),
//! and every set the paper's pseudocode manipulates becomes a bitset over
//! slots — intersection tests are word-wise ANDs, and the per-op hot path
//! performs no allocation. Scheme 0 has no dense kernel: its per-site FIFO
//! queues have no set algebra to speed up, so [`crate::scheme0::Scheme0`]
//! runs under both kernel kinds.
//!
//! **The paper-step accounting is bit-for-bit identical to the reference
//! kernels** (`scheme1`–`scheme3`): every `tick`/`bump` here mirrors one in
//! the reference, with the same operand values on every input. That is a
//! hard invariant — the abstract complexity measurements (Theorems 4, 6, 9)
//! must not depend on which kernel ran — and is enforced by the
//! `kernel_equivalence` property suite and the `step_gate` CI gate. The
//! kernels may diverge from the reference only on *protocol-violating*
//! inputs (where the reference's id-keyed maps remember dead ids that a
//! slot-recycling kernel cannot represent); valid GTM2 scripts never reach
//! those paths, and each is commented at the site.
//!
//! Machine-cost improvements with no counted-step footprint:
//!
//! - Scheme 1 replaces the per-`init` bridge DFS with a union-find over
//!   site connectivity (`mdbs_schedule::UnionFind`): an edge `(Ĝ_i, s_k)`
//!   lies on a TSG cycle iff `s_k` is connected to another site of `Ĝ_i`
//!   in the pre-`init` graph. Inits union incrementally; only `fin`s (edge
//!   deletions) force a rebuild, counted by `gtm2.bridge_recompute`.
//! - Scheme 1 has the engine charge in closed form the re-tests it can
//!   prove fail, instead of running them; each is counted by
//!   `gtm2.wake_elided`, and the reference kernel runs them all, which is
//!   what proves the charges equal:
//!   - after an `ack`, the waiting fins
//!     ([`WakeCandidates::SerAtFinsCharged`]): an append to a delete queue
//!     cannot enable another transaction's fin;
//!   - after a `fin`, every waiting fin but the delete-queue fronts
//!     ([`WakeCandidates::FinPass`] with `ready_fins`): a fin passes only
//!     if its transaction heads every delete queue at its sites;
//!   - after a woken `ser_k`, the other sers at `s_k` still on the
//!     worklist (`ser_blocked_at`): `s_k` now has an outstanding `ser`.
//!
//!   A fin's charge is `1 + |Ĝ_i|`, fixed while it waits, which is what
//!   lets the engine sum the charges WAIT recorded. A duplicate `init` of a
//!   transaction whose fin waits rewrites `Ĝ_i` and breaks that: it is the
//!   one protocol-violating input where the dense charge can differ from
//!   the reference (see `act(init)`).
//! - Scheme 2 keeps one record per TSG edge ([`DenseTsgd`]): its column
//!   position, both halves of its dependencies, and whether it has run and
//!   been acked. `Eliminate_Cycles` reads a column's blocked set and the
//!   position to skip off the edge it stands on, and Δ and the `act`
//!   dependency fans are added in slot space.
//! - Scheme 3's `ser_bef` sets are the rows of one row-major bit matrix
//!   over transaction slots, all of one stride, which doubles (re-laying
//!   the rows) when a slot outgrows it. Propagation is a plain word-wise
//!   OR: no row keeps a count, because the workspace builds for baseline
//!   x86-64, which has no POPCNT, and a maintained count would pay a
//!   software popcount per OR'd word. A row is popcounted only where a
//!   step charge reads its size.
//! - Scheme 3 has the engine charge two of Scheme 1's closed forms, on
//!   proofs of its own:
//!   - after a `fin`, every waiting fin but those whose row an `act(fin)`
//!     emptied ([`WakeCandidates::FinPass`] with `ready_fins`): `cond(fin_i)`
//!     charges one step and holds iff `ser_bef(Ĝ_i)` is empty, and only
//!     `act(fin)`'s column clear takes bits out of a row;
//!   - after a woken `ser_k`, the other sers at `s_k` still on the worklist
//!     (`ser_blocked_at`): `last_k` is now unacked, so each fails at its
//!     second step.
//!
//!   A duplicate `init` that leaves a live row empty records it too, so the
//!   dense charge matches the reference's on that input as well.
//! - `wake_candidates` return symbolic [`WakeCandidates`] variants
//!   (`SerAt`, `Fins`, …) resolved by the engine against the WAIT set
//!   without allocating.

use crate::scheme::{
    Gtm2Scheme, ProtocolViolationKind, SchemeEffect, WaitSet, WakeCandidates, WakeScope,
};
use crate::tsgd_dense::{eliminate_cycles_dense_with, DenseTsgd, EliminateScratch};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::Registry;
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::{StepCounter, StepKind};
use mdbs_common::{DenseBitSet, DenseInterner};
use mdbs_schedule::UnionFind;
use std::collections::{BTreeSet, VecDeque};

// ---------------------------------------------------------------------------
// Scheme 1
// ---------------------------------------------------------------------------

/// Scheme 1 on dense slots: the TSG as per-transaction edge bitsets, queue
/// marks as bitsets, and the per-`init` bridge computation replaced by an
/// incrementally maintained union-find over site connectivity.
///
/// Site slots are never recycled (the reference TSG keeps site nodes
/// forever); transaction slots recycle at `fin`.
#[derive(Clone, Debug, Default)]
pub struct Scheme1Dense {
    txns: DenseInterner<GlobalTxnId>,
    sites: DenseInterner<SiteId>,
    /// Txn slot → site slots with a TSG edge.
    edges: Vec<DenseBitSet>,
    /// Txn slot → does a TSG transaction node exist (≥1 edge ever added,
    /// not yet finned)?
    has_node: Vec<bool>,
    /// Live transaction nodes in the TSG.
    txn_nodes: usize,
    /// Site nodes in the TSG (monotone: site nodes are never removed).
    site_nodes: usize,
    /// Live TSG edges.
    edge_count: usize,
    insert_queues: Vec<VecDeque<GlobalTxnId>>,
    delete_queues: Vec<VecDeque<GlobalTxnId>>,
    /// Site slot → has an insert queue (some `init` announced the site);
    /// doubles as "site node exists in the TSG".
    iq_exists: Vec<bool>,
    /// Site slot → has a delete queue (some `ack` ran at the site).
    dq_exists: Vec<bool>,
    /// Txn slot → marked site slots.
    marked: Vec<DenseBitSet>,
    /// Site slot → submitted-but-unacked transaction.
    outstanding: Vec<Option<GlobalTxnId>>,
    /// Txn slot → announced site list (contents of `Ĝ_i`).
    sites_map: Vec<Option<Vec<SiteId>>>,
    /// Site connectivity of the current TSG (valid when `!dsu_dirty`).
    dsu: UnionFind,
    /// Set by edge deletions (`fin`); forces a rebuild at the next `init`.
    dsu_dirty: bool,
    /// Rebuilds performed (exported as `gtm2.bridge_recompute`).
    bridge_recomputes: u64,
    /// Scratch: (site slot, pre-init DSU root) per announced site.
    scratch_roots: Vec<(u32, u32)>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner and every row Vec is grown by ensure_*_rows/intern before use; the kernel-equivalence proptests and debug_validate exercise the invariant on random scripts."
)]
impl Scheme1Dense {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of marked operations currently tracked (diagnostics).
    pub fn marked_count(&self) -> usize {
        self.marked.iter().map(DenseBitSet::len).sum()
    }

    fn ensure_txn_rows(&mut self, ts: u32) {
        let n = ts as usize + 1;
        if self.edges.len() < n {
            self.edges.resize_with(n, DenseBitSet::new);
            self.has_node.resize(n, false);
            self.marked.resize_with(n, DenseBitSet::new);
            self.sites_map.resize_with(n, || None);
        }
    }

    fn ensure_site_rows(&mut self, ss: u32) {
        let n = ss as usize + 1;
        if self.insert_queues.len() < n {
            self.insert_queues.resize_with(n, VecDeque::new);
            self.delete_queues.resize_with(n, VecDeque::new);
            self.iq_exists.resize(n, false);
            self.dq_exists.resize(n, false);
            self.outstanding.resize(n, None);
        }
    }

    fn insert_front(&self, ss: u32) -> Option<GlobalTxnId> {
        self.insert_queues[ss as usize].front().copied()
    }

    fn delete_front(&self, site: SiteId) -> Option<GlobalTxnId> {
        self.sites
            .slot_of(&site)
            .filter(|&ss| self.dq_exists[ss as usize])
            .and_then(|ss| self.delete_queues[ss as usize].front().copied())
    }

    /// Recompute site connectivity of the current TSG from scratch. Only
    /// deletions (fins) force this; inits maintain the DSU incrementally.
    fn rebuild_dsu(&mut self) {
        self.dsu.grow(self.sites.capacity());
        self.dsu.reset();
        for (ts, edges) in self.edges.iter().enumerate() {
            if !self.has_node[ts] {
                continue;
            }
            let mut first: Option<u32> = None;
            for ss in edges.iter() {
                match first {
                    None => first = Some(ss),
                    Some(f) => {
                        self.dsu.union(f, ss);
                    }
                }
            }
        }
        self.bridge_recomputes += 1;
        self.dsu_dirty = false;
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner and every row Vec is grown by ensure_*_rows/intern before use; the kernel-equivalence proptests and debug_validate exercise the invariant on random scripts."
)]
impl Gtm2Scheme for Scheme1Dense {
    fn name(&self) -> &'static str {
        "Scheme 1"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => {
                if let Some(ss) = self.sites.slot_of(site) {
                    if self.outstanding[ss as usize].is_some() {
                        return false;
                    }
                    if let Some(ts) = self.txns.slot_of(txn) {
                        if self.marked[ts as usize].contains(ss) {
                            return self.insert_front(ss) == Some(*txn);
                        }
                    }
                }
                true
            }
            QueueOp::Fin { txn } => {
                let sites = self
                    .txns
                    .slot_of(txn)
                    .and_then(|ts| self.sites_map[ts as usize].as_deref())
                    .unwrap_or(&[]);
                steps.bump(StepKind::Cond, sites.len() as u64);
                sites.iter().all(|&k| self.delete_front(k) == Some(*txn))
            }
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter) -> Vec<SchemeEffect> {
        match op {
            QueueOp::Init { txn, sites } => {
                let ts = self.txns.intern(*txn);
                self.ensure_txn_rows(ts);
                // The marking rule below needs *pre-init* connectivity, so
                // any pending rebuild happens before Ĝ_i's edges land (a
                // freshly interned transaction contributes no edges).
                if self.dsu_dirty {
                    self.rebuild_dsu();
                }
                for &site in sites {
                    steps.tick(StepKind::Act);
                    let ss = self.sites.intern(site);
                    self.ensure_site_rows(ss);
                    if !self.iq_exists[ss as usize] {
                        self.iq_exists[ss as usize] = true;
                        self.site_nodes += 1;
                    }
                    if self.edges[ts as usize].insert(ss) {
                        self.edge_count += 1;
                        if !self.has_node[ts as usize] {
                            self.has_node[ts as usize] = true;
                            self.txn_nodes += 1;
                        }
                    }
                    self.insert_queues[ss as usize].push_back(*txn);
                }
                // A duplicate `init` (a protocol violation) overwrites Ĝ_i,
                // as in the reference. If `fin_i` is waiting, its `cond`
                // now charges `1 + |new Ĝ_i|` while WAIT still holds the
                // old figure, and with an empty new Ĝ_i it passes without
                // `G_i` heading any delete queue. The reference re-tests it
                // literally; the closed-form fin charges here read WAIT's
                // figure and re-test only delete-queue fronts, so this is
                // the one input where the dense charge can differ from the
                // reference (debug builds assert that it does not arise).
                self.sites_map[ts as usize] = Some(sites.clone());
                // Same V + E charge as the reference's bridge DFS — the
                // union-find shortcut is a machine-cost optimization, not
                // an accounting one.
                steps.bump(
                    StepKind::Act,
                    (self.txn_nodes + self.site_nodes + self.edge_count) as u64,
                );
                // Edge (Ĝ_i, s_k) lies on a cycle iff s_k was connected to
                // another site of Ĝ_i before this init: collect pre-init
                // roots, mark slots whose root occurs twice, then fold
                // Ĝ_i's star into the DSU.
                self.dsu.grow(self.sites.capacity());
                self.scratch_roots.clear();
                for ss in self.edges[ts as usize].iter() {
                    let root = self.dsu.find(ss);
                    self.scratch_roots.push((ss, root));
                }
                for i in 0..self.scratch_roots.len() {
                    let (ss, root) = self.scratch_roots[i];
                    let shared = self
                        .scratch_roots
                        .iter()
                        .filter(|&&(_, r)| r == root)
                        .count()
                        >= 2;
                    if shared {
                        self.marked[ts as usize].insert(ss);
                    }
                }
                for i in 1..self.scratch_roots.len() {
                    let (first, _) = self.scratch_roots[0];
                    let (ss, _) = self.scratch_roots[i];
                    self.dsu.union(first, ss);
                }
                Vec::new()
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                let ss = self.sites.intern(*site);
                self.ensure_site_rows(ss);
                self.outstanding[ss as usize] = Some(*txn);
                vec![SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Ack { txn, site } => {
                // A malformed ack is refused and leaves the site's
                // outstanding `ser` in place, as in the reference kernel.
                let Some(ss) = self
                    .sites
                    .slot_of(site)
                    .filter(|&ss| self.iq_exists[ss as usize])
                else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: Some(*site),
                        kind: ProtocolViolationKind::UnknownSite,
                    }];
                };
                let q = &mut self.insert_queues[ss as usize];
                let pos = q.iter().position(|t| t == txn);
                let Some(pos) = pos.filter(|_| self.outstanding[ss as usize] == Some(*txn)) else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: Some(*site),
                        kind: ProtocolViolationKind::AckNotQueued,
                    }];
                };
                steps.bump(StepKind::Act, pos as u64 + 1);
                q.remove(pos);
                self.outstanding[ss as usize] = None;
                if let Some(ts) = self.txns.slot_of(txn) {
                    self.marked[ts as usize].remove(ss);
                }
                self.dq_exists[ss as usize] = true;
                self.delete_queues[ss as usize].push_back(*txn);
                vec![SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Fin { txn } => {
                let Some(ts) = self.txns.slot_of(txn) else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: None,
                        kind: ProtocolViolationKind::UnmatchedFin,
                    }];
                };
                let Some(announced) = self.sites_map[ts as usize].take() else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: None,
                        kind: ProtocolViolationKind::UnmatchedFin,
                    }];
                };
                let mut effects = Vec::new();
                let mut removed_any = false;
                for &site in &announced {
                    steps.tick(StepKind::Act);
                    let Some(ss) = self
                        .sites
                        .slot_of(&site)
                        .filter(|&ss| self.dq_exists[ss as usize])
                    else {
                        effects.push(SchemeEffect::ProtocolViolation {
                            txn: *txn,
                            site: Some(site),
                            kind: ProtocolViolationKind::UnknownSite,
                        });
                        continue;
                    };
                    let front = self.delete_queues[ss as usize].pop_front();
                    debug_assert_eq!(front, Some(*txn), "cond(fin) guaranteed front");
                    if self.edges[ts as usize].remove(ss) {
                        self.edge_count -= 1;
                        removed_any = true;
                    }
                }
                // Mirror of the reference's `remove_node`: strip edges a
                // skipped (unknown-site) iteration left behind.
                let leftover = self.edges[ts as usize].len();
                if leftover > 0 {
                    self.edge_count -= leftover;
                    self.edges[ts as usize].clear();
                    removed_any = true;
                }
                if self.has_node[ts as usize] {
                    self.has_node[ts as usize] = false;
                    self.txn_nodes -= 1;
                }
                self.marked[ts as usize].clear();
                if removed_any {
                    self.dsu_dirty = true;
                }
                self.txns.release(txn);
                effects
            }
        }
    }

    fn wake_candidates(
        &self,
        acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        match acted {
            QueueOp::Ack { txn, site } => {
                steps.bump(
                    StepKind::WaitScan,
                    (wait.ser_count_at(*site) + wait.fin_count()) as u64,
                );
                // The ack appended `txn` to one delete queue. An append
                // changes a queue's front only if the queue was empty, and
                // then the front becomes `txn` — so a waiting fin of any
                // *other* transaction, which failed because some front is
                // not its own, fails again, charging the `1 + |Ĝ|` it
                // charged before. Those re-tests are charged, not run. The
                // one fin the ack can enable is `txn`'s own, which on
                // protocol arrives after all of `txn`'s acks; if it is
                // waiting already, every fin is re-tested literally.
                if wait.contains(&(QueueOpKind::Fin, *txn, None)) {
                    WakeCandidates::SerAtThenFins(*site)
                } else {
                    WakeCandidates::SerAtFinsCharged(*site)
                }
            }
            QueueOp::Fin { .. } => {
                // A pop can bring any queued transaction to a front, and
                // each woken fin pops again. Only a front can pass, so the
                // engine re-tests the fronts (`ready_fins`) and charges
                // every other waiting fin the `1 + |Ĝ|` it charged before.
                steps.bump(StepKind::WaitScan, wait.fin_count() as u64);
                WakeCandidates::FinPass
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn ready_fins(&self, out: &mut Vec<GlobalTxnId>) {
        // `cond(fin_i)` holds only if G_i heads the delete queue of each
        // of its sites, so in particular of one.
        out.extend(self.delete_queues.iter().filter_map(|q| q.front().copied()));
    }

    fn ser_blocked_at(&self, site: SiteId) -> Option<u64> {
        // `cond(ser)` ticks once and fails while the site has an
        // outstanding `ser`.
        self.sites
            .slot_of(&site)
            .filter(|&ss| self.outstanding[ss as usize].is_some())
            .map(|_| 1)
    }

    fn wake_scope(&self, kind: QueueOpKind) -> WakeScope {
        match kind {
            QueueOpKind::Ack => WakeScope::ACTED_SITE_AND_SITELESS,
            QueueOpKind::Fin => WakeScope::SITELESS,
            QueueOpKind::Init | QueueOpKind::Ser => WakeScope::NOTHING,
        }
    }

    fn debug_validate(&self) {
        for (ss, out) in self.outstanding.iter().enumerate() {
            if let Some(t) = out {
                assert!(
                    self.insert_queues[ss].contains(t),
                    "outstanding {t} not in insert queue of site slot {ss}"
                );
            }
        }
        for (ss, iq) in self.insert_queues.iter().enumerate() {
            let dq = &self.delete_queues[ss];
            for t in iq {
                assert!(!dq.contains(t), "{t} in both queues at site slot {ss}");
            }
        }
    }

    fn export_metrics(&self, registry: &mut Registry) {
        registry.inc("gtm2.bridge_recompute", self.bridge_recomputes);
    }
}

// ---------------------------------------------------------------------------
// Scheme 2
// ---------------------------------------------------------------------------

/// Scheme 2 on the slot-indexed [`DenseTsgd`]: whether `act(ser)` ran and
/// whether the ack came are two flags on the TSG edge (`ran`, `acked`),
/// and each edge counts its dependency predecessors still unacked, so
/// `cond(ser)` is one counter read (no dependency-list scan, no walk of
/// the predecessors).
///
/// The `fb_*` fallbacks hold `(txn, site)` pairs recorded when no TSG edge
/// exists to carry the flag (protocol-violating inputs only — an
/// `ack`/`ser` for a transaction or site the TSGD does not know). The
/// reference remembers such pairs by id until the transaction's `fin`; an
/// edge vanishes at `fin` and its slots recycle, so they live in a plain
/// set (never touched on valid runs), and an `init` that creates the edge
/// of an early `ack` marks it acked.
#[derive(Clone, Debug, Default)]
pub struct Scheme2Dense {
    tsgd: DenseTsgd,
    fb_executed: BTreeSet<(GlobalTxnId, SiteId)>,
    fb_acked: BTreeSet<(GlobalTxnId, SiteId)>,
    /// Scratch for two-phase collect-then-mutate loops: the txn slots of
    /// the column members a dependency fan picked.
    scratch: Vec<u32>,
    /// Reusable traversal state (and the Δ) of `Eliminate_Cycles`.
    elim: EliminateScratch,
}

impl Scheme2Dense {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Has `act(ser)` run for column member `(j, js)` at `site`?
    fn ran_at(&self, (j, js): (GlobalTxnId, u32), site: SiteId) -> bool {
        self.tsgd.edge(js, site).is_some_and(|e| e.ran)
            || (!self.fb_executed.is_empty() && self.fb_executed.contains(&(j, site)))
    }
}

impl Gtm2Scheme for Scheme2Dense {
    fn name(&self) -> &'static str {
        "Scheme 2"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => match self
                .tsgd
                .txn_slot(*txn)
                .and_then(|ts| self.tsgd.edge(ts, *site))
            {
                Some(edge) => {
                    steps.bump(StepKind::Cond, edge.pred_count() as u64 + 1);
                    edge.preds_acked()
                }
                None => {
                    steps.bump(StepKind::Cond, 1);
                    true
                }
            },
            QueueOp::Fin { txn } => {
                steps.bump(StepKind::Cond, self.tsgd.dep_count() as u64);
                self.tsgd.incoming_deps(*txn) == 0
            }
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter) -> Vec<SchemeEffect> {
        match op {
            QueueOp::Init { txn, sites } => {
                let ts = self.tsgd.insert_txn(*txn, sites);
                steps.bump(StepKind::Act, sites.len() as u64);
                // An ack that came before its edge (a protocol violation)
                // lands on the edge now.
                if !self.fb_acked.is_empty() {
                    for &site in sites {
                        if self.fb_acked.contains(&(*txn, site)) {
                            self.tsgd.mark_acked(ts, site);
                        }
                    }
                }
                for &site in sites {
                    let Some(ss) = self.tsgd.site_slot(site) else {
                        steps.bump(StepKind::Act, 1);
                        continue;
                    };
                    // Everyone already executed at `site` precedes `txn`
                    // there.
                    self.scratch.clear();
                    for &(j, js) in self.tsgd.txns_col(ss) {
                        if j != *txn && self.ran_at((j, js), site) {
                            self.scratch.push(js);
                        }
                    }
                    steps.bump(StepKind::Act, self.scratch.len() as u64 + 1);
                    for &js in &self.scratch {
                        self.tsgd.add_dep_slots(site, js, ts);
                    }
                }
                eliminate_cycles_dense_with(&self.tsgd, *txn, steps, &mut self.elim);
                self.tsgd.add_delta(&self.elim);
                Vec::new()
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                let ts = self.tsgd.txn_slot(*txn);
                match ts.and_then(|ts| self.tsgd.edge_mut(ts, *site)) {
                    Some(edge) => edge.ran = true,
                    None => {
                        self.fb_executed.insert((*txn, *site));
                    }
                }
                if let Some(ss) = self.tsgd.site_slot(*site) {
                    // `txn` precedes everyone not yet executed at `site`.
                    self.scratch.clear();
                    for &(j, js) in self.tsgd.txns_col(ss) {
                        if j != *txn && !self.ran_at((j, js), *site) {
                            self.scratch.push(js);
                        }
                    }
                    steps.bump(StepKind::Act, self.scratch.len() as u64 + 1);
                    if let Some(ts) = ts {
                        for &js in &self.scratch {
                            self.tsgd.add_dep_slots(*site, ts, js);
                        }
                    }
                } else {
                    steps.bump(StepKind::Act, 1);
                }
                vec![SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                let ts = self.tsgd.txn_slot(*txn);
                if !ts.is_some_and(|ts| self.tsgd.mark_acked(ts, *site)) {
                    self.fb_acked.insert((*txn, *site));
                }
                vec![SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Fin { txn } => {
                let announced = self
                    .tsgd
                    .txn_slot(*txn)
                    .map_or(0, |ts| self.tsgd.row(ts).len());
                steps.bump(StepKind::Act, announced as u64 + 1);
                self.tsgd.remove_txn(*txn);
                if !self.fb_executed.is_empty() {
                    self.fb_executed.retain(|(t, _)| t != txn);
                }
                if !self.fb_acked.is_empty() {
                    self.fb_acked.retain(|(t, _)| t != txn);
                }
                // A checked decrement failed inside remove_txn: surface it
                // as a counted violation instead of a scheduler panic.
                if self.tsgd.take_desync() > 0 {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: None,
                        kind: ProtocolViolationKind::DesyncedDependency,
                    }];
                }
                Vec::new()
            }
        }
    }

    fn wake_candidates(
        &self,
        acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        match acted {
            QueueOp::Ack { site, .. } => {
                steps.bump(StepKind::WaitScan, wait.ser_count_at(*site) as u64);
                WakeCandidates::SerAt(*site)
            }
            QueueOp::Fin { .. } => {
                steps.bump(StepKind::WaitScan, wait.fin_count() as u64);
                WakeCandidates::Fins
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn export_metrics(&self, registry: &mut Registry) {
        registry.inc("gtm2.elim_states", self.elim.states());
        registry.inc("gtm2.elim_scans_elided", self.elim.scans_elided());
    }

    fn debug_validate(&self) {
        // Theorem 5's induction, via the exponential oracle (guarded by
        // size, like the reference).
        if self.tsgd.live_txn_count() <= 10 {
            let none = BTreeSet::new();
            for t in self.tsgd.txns() {
                assert!(
                    !self.tsgd.has_cycle_involving_oracle(t, &none),
                    "TSGD must remain acyclic (cycle through {t})"
                );
            }
        }
        // At any size: a dependency cycle would imply a TSGD cycle that
        // Eliminate_Cycles missed.
        assert!(
            self.tsgd.deps_acyclic(),
            "dependency digraph grew a cycle on a valid run"
        );
        assert_eq!(self.tsgd.desync_count(), 0, "checked decrement failed");
        assert!(
            self.tsgd.edges_consistent(),
            "an edge record went stale or lost a dependency's other half"
        );
    }
}

// ---------------------------------------------------------------------------
// Scheme 3
// ---------------------------------------------------------------------------

/// Row-major bit matrix over transaction slots: row `t` is the words
/// `t·stride .. (t+1)·stride`, and every row has the same `stride`.
#[derive(Clone, Debug, Default)]
struct BitMatrix {
    words: Vec<u64>,
    stride: usize,
}

#[expect(
    clippy::indexing_slicing,
    reason = "every row index is a slot below the row count reserve() laid out, and every word index is below the stride that holds the slot; the kernel-equivalence proptests and debug_validate exercise the invariant on random scripts."
)]
impl BitMatrix {
    /// Lay out `rows` rows, each wide enough for bit `slot`. When the
    /// slot does not fit, the stride doubles and the existing rows are
    /// re-laid at the new width; new rows are all zero.
    fn reserve(&mut self, rows: usize, slot: u32) {
        let old = self.stride;
        if slot as usize >= 64 * old {
            let mut stride = old.max(1);
            while slot as usize >= 64 * stride {
                stride *= 2;
            }
            let mut words = vec![0; rows.max(self.rows()) * stride];
            if old > 0 {
                for (new, row) in words
                    .chunks_exact_mut(stride)
                    .zip(self.words.chunks_exact(old))
                {
                    new[..old].copy_from_slice(row);
                }
            }
            self.words = words;
            self.stride = stride;
        } else if rows > self.rows() {
            self.words.resize(rows * old, 0);
        }
    }

    fn rows(&self) -> usize {
        self.words.len() / self.stride.max(1)
    }

    fn row(&self, t: u32) -> &[u64] {
        let start = t as usize * self.stride;
        &self.words[start..start + self.stride]
    }

    fn row_mut(&mut self, t: u32) -> &mut [u64] {
        let start = t as usize * self.stride;
        &mut self.words[start..start + self.stride]
    }
}

fn row_contains(row: &[u64], bit: u32) -> bool {
    row.get(bit as usize / 64)
        .is_some_and(|w| w & (1 << (bit % 64)) != 0)
}

fn row_popcount(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// `a ∩ b ≠ ∅`, four words per test so the ANDs vectorize; a missing
/// word counts as zero.
#[expect(
    clippy::indexing_slicing,
    reason = "both slices are cut at the shorter length."
)]
fn rows_intersect(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a4, a_rest) = a[..n].as_chunks::<4>();
    let (b4, b_rest) = b[..n].as_chunks::<4>();
    a4.iter()
        .zip(b4)
        .any(|(x, y)| (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]) != 0)
        || a_rest.iter().zip(b_rest).any(|(x, y)| x & y != 0)
}

/// Scheme 3 on dense slots: `set_k` is a bitset over transaction slots,
/// and every `ser_bef` set is one row of a row-major bit matrix, so
/// `cond(ser)`'s emptiness test is a word-wise AND and
/// `act(ser)`'s transitive propagation is a plain word-wise OR of Set1
/// into each target row.
///
/// Row `t` belongs to transaction slot `t`; all rows share one stride.
/// When a slot at or past `64·stride` is interned, the stride doubles and
/// the rows are re-laid. Slots recycle LIFO, so the row count stays near
/// the peak number of live transactions. A row is `live` iff the
/// reference map has the entry (the transaction was inited and has not
/// finned); a row that is not live is all zero. No row keeps its size:
/// the workspace builds for baseline x86-64, which has no POPCNT, so a
/// maintained count would pay a software popcount on every OR'd word.
/// A row is popcounted only where a step charge reads its size
/// (`cond(ser)` and `act(init)`), and Set1 once per `act(ser)`.
///
/// `cond(fin_i)` holds iff row `i` is all zero, so a `fin` that failed can
/// pass only once its row empties, and only `act(fin)` takes bits out of a
/// live row (a duplicate `init` can too, by rewriting it). Those rows are
/// tracked in `emptied`, and a fin wake re-tests only their fins.
///
/// Transaction slots recycle at `fin`; site slots are permanent (the
/// reference keeps `sets`/`last` entries for ever).
#[derive(Clone, Debug, Default)]
pub struct Scheme3Dense {
    txns: DenseInterner<GlobalTxnId>,
    sites: DenseInterner<SiteId>,
    /// Txn slot → `ser_bef(Ĝ_i)` as a row of bits over txn slots.
    ser_bef: BitMatrix,
    /// Txn slot → does the reference map have a `ser_bef` entry?
    live: Vec<bool>,
    /// Live txn slots whose row an `act(fin)` or a duplicate `init` left
    /// all zero, and which no `act(ser)` has OR'd into since.
    emptied: DenseBitSet,
    /// Number of live rows — the reference's `ser_bef.len()`.
    ser_bef_len: usize,
    /// Site slot → `last_k` (stored by id, like the reference — the id may
    /// outlive the transaction's slot on violating runs).
    last: Vec<Option<GlobalTxnId>>,
    /// Site slot → `set_k` as a bitset over txn slots.
    sets: Vec<DenseBitSet>,
    /// Site slot → does the reference `sets` map have this entry (some
    /// `init` announced the site)?
    site_has_set: Vec<bool>,
    /// Txn slot → acked site slots.
    acked: Vec<DenseBitSet>,
    /// Acked pairs that must outlive the transaction's slot (acks at
    /// never-announced sites — violating runs only; the reference keeps
    /// them by id forever).
    fb_acked: BTreeSet<(GlobalTxnId, SiteId)>,
    /// Txn slot → announced site list.
    sites_map: Vec<Option<Vec<SiteId>>>,
    /// One matrix row of scratch: `act(init)`'s new row and `act(ser)`'s
    /// Set1 (reused across calls).
    scratch_row: Vec<u64>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner and every row Vec is grown by ensure_*_rows/intern before use; the kernel-equivalence proptests and debug_validate exercise the invariant on random scripts."
)]
impl Scheme3Dense {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// `ser_bef(Ĝ_i)` resolved back to ids (empty if unknown) — exposed
    /// for experiments.
    pub fn ser_bef(&self, txn: GlobalTxnId) -> BTreeSet<GlobalTxnId> {
        let Some(ts) = self.txns.slot_of(&txn) else {
            return BTreeSet::new();
        };
        let bef = self.ser_bef.row(ts);
        (0..self.live.len() as u32)
            .filter(|&b| row_contains(bef, b))
            .filter_map(|b| self.txns.key_of(b))
            .collect()
    }

    fn ensure_txn_rows(&mut self, ts: u32) {
        let n = ts as usize + 1;
        if self.live.len() < n {
            self.live.resize(n, false);
            self.acked.resize_with(n, DenseBitSet::new);
            self.sites_map.resize_with(n, || None);
        }
        self.ser_bef.reserve(n, ts);
        self.scratch_row.resize(self.ser_bef.stride, 0);
    }

    fn ensure_site_rows(&mut self, ss: u32) {
        let n = ss as usize + 1;
        if self.last.len() < n {
            self.last.resize(n, None);
            self.sets.resize_with(n, DenseBitSet::new);
            self.site_has_set.resize(n, false);
        }
    }

    fn acked_pair(&self, l: GlobalTxnId, site: SiteId) -> bool {
        if let (Some(lt), Some(ss)) = (self.txns.slot_of(&l), self.sites.slot_of(&site)) {
            if self.acked[lt as usize].contains(ss) {
                return true;
            }
        }
        !self.fb_acked.is_empty() && self.fb_acked.contains(&(l, site))
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner and every row Vec is grown by ensure_*_rows/intern before use; the kernel-equivalence proptests and debug_validate exercise the invariant on random scripts."
)]
impl Gtm2Scheme for Scheme3Dense {
    fn name(&self) -> &'static str {
        "Scheme 3"
    }

    fn cond(&self, op: &QueueOp, steps: &mut StepCounter) -> bool {
        steps.tick(StepKind::Cond);
        match op {
            QueueOp::Ser { txn, site } => {
                if let Some(ss) = self.sites.slot_of(site) {
                    if let Some(l) = self.last[ss as usize] {
                        steps.tick(StepKind::Cond);
                        if !self.acked_pair(l, *site) {
                            return false;
                        }
                    }
                }
                let set = self
                    .sites
                    .slot_of(site)
                    .filter(|&ss| self.site_has_set[ss as usize])
                    .map(|ss| &self.sets[ss as usize]);
                // A row that is not live is all zero: it charges nothing
                // and meets nothing, as the reference's missing entry.
                match (self.txns.slot_of(txn), set) {
                    (Some(ts), Some(set)) => {
                        let bef = self.ser_bef.row(ts);
                        steps.bump(StepKind::Cond, row_popcount(bef).min(set.len()) as u64);
                        !rows_intersect(bef, set.as_words())
                    }
                    _ => true,
                }
            }
            QueueOp::Fin { txn } => self
                .txns
                .slot_of(txn)
                .is_none_or(|ts| self.ser_bef.row(ts).iter().all(|&w| w == 0)),
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter) -> Vec<SchemeEffect> {
        match op {
            QueueOp::Init { txn, sites } => {
                let ts = self.txns.intern(*txn);
                self.ensure_txn_rows(ts);
                self.scratch_row.fill(0);
                for &site in sites {
                    steps.tick(StepKind::Act);
                    let ss = self.sites.intern(site);
                    self.ensure_site_rows(ss);
                    self.site_has_set[ss as usize] = true;
                    self.sets[ss as usize].insert(ts);
                    if let Some(l) = self.last[ss as usize] {
                        if let Some(lt) = self.txns.slot_of(&l) {
                            let lb = self.ser_bef.row(lt);
                            steps.bump(StepKind::Act, row_popcount(lb) as u64);
                            for (w, &b) in self.scratch_row.iter_mut().zip(lb) {
                                *w |= b;
                            }
                            self.scratch_row[lt as usize / 64] |= 1 << (lt % 64);
                        }
                        // A `last` id with no live slot can only arise on a
                        // protocol-violating run (its fin already
                        // processed); the reference would remember the
                        // dead id, which a recycling kernel cannot.
                    }
                }
                if self.live[ts as usize] {
                    // A duplicate `init` (a protocol violation) rewrites a
                    // live row, which may be a waiting fin's: one it leaves
                    // empty can pass.
                    if self.scratch_row.iter().all(|&w| w == 0) {
                        self.emptied.insert(ts);
                    } else {
                        self.emptied.remove(ts);
                    }
                } else {
                    self.live[ts as usize] = true;
                    self.ser_bef_len += 1;
                }
                self.ser_bef.row_mut(ts).copy_from_slice(&self.scratch_row);
                self.sites_map[ts as usize] = Some(sites.clone());
                Vec::new()
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                let Some(ss) = self
                    .sites
                    .slot_of(site)
                    .filter(|&ss| self.site_has_set[ss as usize])
                else {
                    return vec![SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: Some(*site),
                        kind: ProtocolViolationKind::SerWithoutInit,
                    }];
                };
                let ts = self.txns.intern(*txn);
                self.ensure_txn_rows(ts);
                self.sets[ss as usize].remove(ts);
                self.last[ss as usize] = Some(*txn);
                // Set1 = ser_bef(Ĝ_i) ∪ {Ĝ_i}, built in the scratch row.
                let set1 = &mut self.scratch_row;
                set1.copy_from_slice(self.ser_bef.row(ts));
                set1[ts as usize / 64] |= 1 << (ts % 64);
                let set1_len = row_popcount(set1) as u64;
                steps.bump(StepKind::Act, self.ser_bef_len as u64);
                // Targets: everything still pending at the site, plus every
                // transaction already ordered after something pending here
                // (Set2). A target's test reads only its own row, so each
                // is OR'd as soon as it is found.
                let set_k = &self.sets[ss as usize];
                let stride = self.ser_bef.stride;
                for (j, (bef_j, &live)) in self
                    .ser_bef
                    .words
                    .chunks_exact_mut(stride)
                    .zip(&self.live)
                    .enumerate()
                {
                    let j = j as u32;
                    if live
                        && j != ts
                        && (set_k.contains(j) || rows_intersect(bef_j, set_k.as_words()))
                    {
                        steps.bump(StepKind::Act, set1_len);
                        for (w, &b) in bef_j.iter_mut().zip(set1.iter()) {
                            *w |= b;
                        }
                        self.emptied.remove(j);
                        debug_assert!(!row_contains(bef_j, j), "slot {j} serialized before itself");
                    }
                }
                vec![SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                let ts = self.txns.intern(*txn);
                self.ensure_txn_rows(ts);
                let ss = self.sites.intern(*site);
                self.ensure_site_rows(ss);
                self.acked[ts as usize].insert(ss);
                vec![SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                }]
            }
            QueueOp::Fin { txn } => {
                // Ĝ_i leaves: drop it from every ser_bef row (one counted
                // step per live entry, known or not — like the reference),
                // noting each row that leaves empty.
                steps.bump(StepKind::Act, self.ser_bef_len as u64);
                let Some(ts) = self.txns.slot_of(txn) else {
                    return Vec::new();
                };
                let (word, bit) = (ts as usize / 64, 1u64 << (ts % 64));
                for (j, row) in self
                    .ser_bef
                    .words
                    .chunks_exact_mut(self.ser_bef.stride)
                    .enumerate()
                {
                    if row[word] & bit != 0 {
                        row[word] &= !bit;
                        if row.iter().all(|&w| w == 0) {
                            self.emptied.insert(j as u32);
                        }
                    }
                }
                self.ser_bef.row_mut(ts).fill(0);
                self.emptied.remove(ts);
                if self.live[ts as usize] {
                    self.live[ts as usize] = false;
                    self.ser_bef_len -= 1;
                }
                let announced = self.sites_map[ts as usize].take().unwrap_or_default();
                for site in announced {
                    steps.tick(StepKind::Act);
                    if let Some(ss) = self.sites.slot_of(&site) {
                        if self.last[ss as usize] == Some(*txn) {
                            self.last[ss as usize] = None;
                        }
                        self.acked[ts as usize].remove(ss);
                    }
                }
                // The reference never prunes `set_k` at fin; on valid runs
                // the bits are already gone (every announced event ran).
                // Clear them anyway so a recycled slot cannot inherit one.
                for set in self.sets.iter_mut() {
                    set.remove(ts);
                }
                // Acked pairs at never-announced sites outlive the slot in
                // the reference; park them under the id before recycling.
                for ss in self.acked[ts as usize].iter() {
                    if let Some(site) = self.sites.key_of(ss) {
                        self.fb_acked.insert((*txn, site));
                    }
                }
                self.acked[ts as usize].clear();
                self.txns.release(txn);
                Vec::new()
            }
        }
    }

    fn wake_candidates(
        &self,
        acted: &QueueOp,
        wait: &WaitSet,
        steps: &mut StepCounter,
    ) -> WakeCandidates {
        steps.tick(StepKind::WaitScan);
        match acted {
            QueueOp::Ack { site, .. } => {
                steps.bump(StepKind::WaitScan, wait.ser_count_at(*site) as u64);
                WakeCandidates::SerAt(*site)
            }
            QueueOp::Fin { .. } => {
                // `cond(fin)` charges one step, pass or fail, so the engine
                // re-tests the fins of the rows a fin emptied (`ready_fins`)
                // and charges every other waiting fin that step.
                steps.bump(StepKind::WaitScan, wait.fin_count() as u64);
                WakeCandidates::FinPass
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn ready_fins(&self, out: &mut Vec<GlobalTxnId>) {
        // A waiting fin's row was not empty when it failed.
        out.extend(self.emptied.iter().filter_map(|t| self.txns.key_of(t)));
    }

    fn ser_blocked_at(&self, site: SiteId) -> Option<u64> {
        // `cond(ser)` ticks once, ticks again to read `last_k`, and fails
        // while `last_k`'s event is unacked, before any `ser_bef` work.
        let ss = self.sites.slot_of(&site)?;
        let l = self.last[ss as usize]?;
        (!self.acked_pair(l, site)).then_some(2)
    }

    fn debug_validate(&self) {
        assert_eq!(
            self.live.iter().filter(|&&l| l).count(),
            self.ser_bef_len,
            "ser_bef_len is not the live row count"
        );
        for t in self.emptied.iter() {
            assert!(
                self.live.get(t as usize) == Some(&true),
                "slot {t}: emptied but not live"
            );
            assert!(
                self.ser_bef.row(t).iter().all(|&w| w == 0),
                "slot {t}: emptied row not zero"
            );
        }
        for (t, &live) in self.live.iter().enumerate() {
            let t = t as u32;
            let bef = self.ser_bef.row(t);
            if !live {
                assert!(bef.iter().all(|&w| w == 0), "slot {t}: dead row not zero");
                continue;
            }
            assert!(!row_contains(bef, t), "slot {t} serialized before itself");
            for b in (0..self.live.len() as u32).filter(|&b| row_contains(bef, b)) {
                assert!(
                    self.txns.key_of(b).is_some(),
                    "slot {t}: released slot {b} still in ser_bef"
                );
                let closed = self
                    .ser_bef
                    .row(b)
                    .iter()
                    .zip(bef)
                    .all(|(x, y)| x & !y == 0);
                assert!(
                    closed,
                    "transitivity broken: ser_bef({b}) ⊄ ser_bef({t}) (slots)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtm2::Gtm2;
    use crate::scheme::{KernelKind, SchemeKind};
    use crate::tsgd::Dep;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    fn init(i: u64, sites: &[u32]) -> QueueOp {
        QueueOp::Init {
            txn: g(i),
            sites: sites.iter().map(|&k| s(k)).collect(),
        }
    }
    fn ser(i: u64, k: u32) -> QueueOp {
        QueueOp::Ser {
            txn: g(i),
            site: s(k),
        }
    }
    fn ack(i: u64, k: u32) -> QueueOp {
        QueueOp::Ack {
            txn: g(i),
            site: s(k),
        }
    }
    fn fin(i: u64) -> QueueOp {
        QueueOp::Fin { txn: g(i) }
    }

    #[test]
    fn scheme1_dense_marks_and_orders_shared_pair() {
        let mut e = Gtm2::new(Box::new(Scheme1Dense::new()));
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(2, 0));
        e.enqueue(ser(2, 1));
        let fx = e.pump();
        assert!(fx.is_empty(), "marked non-front ops must wait: {fx:?}");
        assert_eq!(e.stats().waited, 2);
        e.enqueue(ser(1, 0));
        e.enqueue(ser(1, 1));
        assert_eq!(e.pump().len(), 2);
        e.enqueue(ack(1, 0));
        e.enqueue(ack(1, 1));
        let fx = e.pump();
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(0)
        }));
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(1)
        }));
        assert!(e.ser_log().check().is_ok());
    }

    #[test]
    fn scheme1_dense_marked_count_tracks_cycle_edges() {
        let mut scheme = Scheme1Dense::new();
        let mut steps = StepCounter::new();
        scheme.act(&init(1, &[0, 1]), &mut steps);
        assert_eq!(scheme.marked_count(), 0, "no cycle with one txn");
        scheme.act(&init(2, &[0, 1]), &mut steps);
        assert_eq!(scheme.marked_count(), 2, "only G2's edges are marked");
    }

    #[test]
    fn scheme2_dense_overlapping_txns_safe_order() {
        let mut e = Gtm2::new(Box::new(Scheme2Dense::new()));
        e.set_validate(true);
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(2, 1));
        let fx = e.pump();
        assert_eq!(
            fx,
            vec![SchemeEffect::SubmitSer {
                txn: g(1),
                site: s(0)
            }]
        );
        assert_eq!(e.stats().waited, 1);
        e.enqueue(ack(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 1));
        let fx = e.pump();
        assert!(
            fx.contains(&SchemeEffect::SubmitSer {
                txn: g(2),
                site: s(1)
            }),
            "{fx:?}"
        );
        e.enqueue(ack(2, 1));
        e.enqueue(ser(2, 0));
        e.pump();
        e.enqueue(ack(2, 0));
        e.pump();
        assert!(e.ser_log().check().is_ok());
        assert_eq!(e.ser_log().site_order(s(0)), &[g(1), g(2)]);
        assert_eq!(e.ser_log().site_order(s(1)), &[g(1), g(2)]);
    }

    #[test]
    fn scheme2_dense_fin_respects_dependency_order() {
        let mut e = Gtm2::new(Box::new(Scheme2Dense::new()));
        e.set_validate(true);
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 0));
        e.enqueue(ack(1, 1));
        e.enqueue(ser(2, 0));
        e.enqueue(ser(2, 1));
        e.pump();
        e.enqueue(ack(2, 0));
        e.enqueue(ack(2, 1));
        e.enqueue(fin(2));
        e.pump();
        assert_eq!(e.wait_len(), 1);
        e.enqueue(fin(1));
        e.pump();
        assert_eq!(e.wait_len(), 0);
        assert_eq!(e.stats().fins, 2);
        assert!(e.ser_log().check().is_ok());
    }

    #[test]
    #[should_panic(expected = "dependency digraph grew a cycle")]
    fn scheme2_dense_validate_rejects_dependency_cycle() {
        let mut scheme = Scheme2Dense::new();
        // Eleven live transactions put the TSGD past the exponential
        // oracle's size guard, so the dependency check must be what fires.
        for i in 3..=11 {
            scheme.tsgd.insert_txn(g(i), &[s(i as u32)]);
        }
        scheme.tsgd.insert_txn(g(1), &[s(0), s(1)]);
        scheme.tsgd.insert_txn(g(2), &[s(0), s(1)]);
        for (site, before, after) in [(0, 1, 2), (1, 2, 1)] {
            scheme.tsgd.add_dep(Dep {
                site: s(site),
                before: g(before),
                after: g(after),
            });
        }
        scheme.debug_validate();
    }

    #[test]
    fn scheme3_dense_blocks_exactly_the_nonserializable_order() {
        let mut e = Gtm2::new(Box::new(Scheme3Dense::new()));
        e.set_validate(true);
        e.enqueue(init(1, &[0, 1]));
        e.enqueue(init(2, &[0, 1]));
        e.enqueue(ser(1, 0));
        e.pump();
        e.enqueue(ack(1, 0));
        e.pump();
        e.enqueue(ser(2, 1));
        e.pump();
        assert_eq!(e.stats().waited, 1, "unsafe ser must wait");
        e.enqueue(ser(1, 1));
        e.pump();
        e.enqueue(ack(1, 1));
        let fx = e.pump();
        assert!(fx.contains(&SchemeEffect::SubmitSer {
            txn: g(2),
            site: s(1)
        }));
        assert!(e.ser_log().check().is_ok());
    }

    #[test]
    fn scheme3_dense_ser_bef_accessor_and_recycling() {
        let mut scheme = Scheme3Dense::new();
        let mut steps = StepCounter::new();
        scheme.act(&init(1, &[0]), &mut steps);
        scheme.act(&init(2, &[0]), &mut steps);
        scheme.act(&ser(1, 0), &mut steps);
        assert!(scheme.ser_bef(g(2)).contains(&g(1)));
        assert!(scheme.ser_bef(g(1)).is_empty());
        // Recycle G1's slot: a fresh transaction must inherit nothing.
        scheme.act(&ser(2, 0), &mut steps);
        scheme.act(&ack(1, 0), &mut steps);
        scheme.act(&ack(2, 0), &mut steps);
        scheme.act(&fin(1), &mut steps);
        scheme.act(&init(3, &[0]), &mut steps);
        assert!(
            scheme.ser_bef(g(3)).contains(&g(2)),
            "G2 is site 0's last event"
        );
        assert!(!scheme.ser_bef(g(3)).contains(&g(1)), "G1 is gone");
        scheme.debug_validate();
    }

    /// The load-bearing invariant, in miniature: a fixed mixed workload
    /// produces byte-identical steps, stats, and effects on both kernels
    /// of every conservative scheme. (The full randomized version lives in
    /// `tests/kernel_equivalence.rs`.)
    #[test]
    fn fixed_script_matches_reference_kernels() {
        let script: Vec<QueueOp> = vec![
            init(1, &[0, 1]),
            init(2, &[0, 1]),
            init(3, &[1, 2]),
            ser(1, 0),
            ser(2, 1),
            ack(1, 0),
            ser(1, 1),
            ack(1, 1),
            ser(2, 0),
            ack(2, 1),
            ack(2, 0),
            ser(3, 1),
            ser(3, 2),
            ack(3, 1),
            ack(3, 2),
            fin(1),
            fin(2),
            fin(3),
            // Recycled ids after fin.
            init(4, &[0, 2]),
            ser(4, 0),
            ack(4, 0),
            ser(4, 2),
            ack(4, 2),
            fin(4),
        ];
        for kind in SchemeKind::CONSERVATIVE {
            let mut reference = Gtm2::new(kind.build_kernel(KernelKind::BTree));
            let mut dense = Gtm2::new(kind.build_kernel(KernelKind::Dense));
            reference.set_validate(true);
            dense.set_validate(true);
            for op in &script {
                reference.enqueue(op.clone());
                dense.enqueue(op.clone());
                let fx_ref = reference.pump();
                let fx_dense = dense.pump();
                assert_eq!(fx_ref, fx_dense, "{kind}: effects diverged on {op:?}");
            }
            assert_eq!(
                reference.steps(),
                dense.steps(),
                "{kind}: step counters diverged"
            );
            assert_eq!(
                reference.stats(),
                dense.stats(),
                "{kind}: engine stats diverged"
            );
            assert_eq!(
                reference.ser_log().events(),
                dense.ser_log().events(),
                "{kind}: serialization order diverged"
            );
        }
    }
}
