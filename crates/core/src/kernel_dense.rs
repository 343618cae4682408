//! Dense-id kernels for Schemes 1–3: the kernels that run.
//!
//! [`SchemeKind::build`](crate::scheme::SchemeKind::build) returns these
//! for Schemes 1, 2 and 3. They refine the paper-text kernels of
//! [`crate::reference`] on top of [`mdbs_common::DenseInterner`] +
//! [`mdbs_common::DenseBitSet`] (and, for Scheme 2,
//! [`crate::tsgd_dense::DenseTsgd`]): live transaction and site ids are
//! interned into compact `u32` slots (recycled at `fin`), and every set the
//! paper's pseudocode manipulates becomes a bitset over slots —
//! intersection tests are word-wise ANDs, and the per-op hot path performs
//! no allocation. Scheme 0 has no dense kernel: its per-site FIFO queues
//! have no set algebra to speed up, so [`crate::scheme0::Scheme0`] is its
//! one kernel.
//!
//! **The paper-step accounting is bit-for-bit identical to the reference
//! kernels** ([`crate::reference`]): every `tick`/`bump` here mirrors one in
//! the reference, with the same operand values on every input. That is a
//! hard invariant — the abstract complexity measurements (Theorems 4, 6, 9)
//! must not depend on which kernel ran — and is enforced by the
//! `kernel_equivalence` suite and the `step_cells_golden` soak test
//! (`crates/core/tests/regression_scripts.rs`). The
//! kernels are equivalent to the reference on every stream GTM2 can
//! receive: every caller keeps Figure 2's order (see
//! [`Gtm2::enqueue`](crate::gtm2::Gtm2::enqueue)), and GTM1 refuses
//! malformed input before it reaches GTM2.
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
//!   - in a `SerAt(k)` range (`ser_ready_at`), every waiting `ser` at
//!     `s_k` while `s_k` has an outstanding `ser`, as after a woken one;
//!   - in a `SerAt(k)` range with nothing outstanding at `s_k`, every
//!     waiting `ser` there but the insert-queue front's, once no member of
//!     that queue is unmarked at `s_k` (a per-site count kept at `init` and
//!     `ack`): a marked `ser` passes only at the front, and the front's
//!     act makes it outstanding. `cond(ser)` charges one step pass or
//!     fail, so one charge covers them all.
//!
//!   A fin's charge is `1 + |Ĝ_i|`, fixed while it waits (`init_i` comes
//!   once), which is what lets the engine sum the charges WAIT recorded.
//! - Scheme 2 keeps one record per TSG edge ([`DenseTsgd`]): its column
//!   position, the dependencies out of it, counts of those into it, and
//!   whether it has run and been acked; each column entry names its
//!   edge's row index, so the
//!   `act` dependency fans, an ack's releases and a fin's removal reach
//!   every edge without a search. `Eliminate_Cycles` reads a compact edge
//!   table the TSGD keeps beside its rows, and Δ and the fans are added in
//!   slot space.
//! - Scheme 3's `ser_bef` sets are the rows of one row-major bit matrix
//!   over transaction slots, all of one stride, which doubles (re-laying
//!   the rows) when a slot outgrows it, and a second matrix keeps its
//!   transpose. `act(ser)` builds Set2 from the transposed rows of the
//!   transactions pending at the site, skips every target already ordered
//!   after `Ĝ_i` (transitivity makes that OR a no-op), sets `Ĝ_i`'s bit in
//!   each other target and ORs in `ser_bef(Ĝ_i)` only where a read-only
//!   subset test says a bit is missing, and `act(fin)` clears `Ĝ_i`'s
//!   column by walking its transposed row. Each row's size is kept,
//!   counted from the bits an act adds or clears, so no step charge
//!   popcounts a row (baseline x86-64 has no POPCNT).
//! - Scheme 3 has the engine charge two of Scheme 1's closed forms, on
//!   proofs of its own:
//!   - after a `fin`, every waiting fin but those whose row an `act(fin)`
//!     emptied ([`WakeCandidates::FinPass`] with `ready_fins`): `cond(fin_i)`
//!     charges one step and holds iff `ser_bef(Ĝ_i)` is empty, and only
//!     `act(fin)`'s column clear takes bits out of a row;
//!   - after a woken `ser_k`, the other sers at `s_k` still on the worklist
//!     (`ser_ready_at`, naming none ready): `last_k` is now unacked, so
//!     each fails at its second step.
//! - `wake_candidates` return symbolic [`WakeCandidates`] variants
//!   (`SerAt`, `Fins`, …) and charge nothing: the engine resolves them
//!   against the WAIT set without allocating and charges the wait scan
//!   from what they name, by the rule [`WakeCandidates`] states.

use crate::scheme::{Gtm2Scheme, ProtocolViolationKind, SchemeEffect, WaitSet, WakeCandidates};
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
    /// Txn slot → marked site slots.
    marked: Vec<DenseBitSet>,
    /// Site slot → submitted-but-unacked transaction.
    outstanding: Vec<Option<GlobalTxnId>>,
    /// Site slot → insert-queue members not marked at the site.
    unmarked: Vec<u32>,
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
            self.outstanding.resize(n, None);
            self.unmarked.resize(n, 0);
        }
    }

    fn insert_front(&self, ss: u32) -> Option<GlobalTxnId> {
        self.insert_queues[ss as usize].front().copied()
    }

    fn delete_front(&self, site: SiteId) -> Option<GlobalTxnId> {
        self.sites
            .slot_of(&site)
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

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
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
                debug_assert!(self.sites_map[ts as usize].is_none(), "{txn} inited twice");
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
                for &(ss, _) in &self.scratch_roots {
                    if !self.marked[ts as usize].contains(ss) {
                        self.unmarked[ss as usize] += 1;
                    }
                }
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                let ss = self.sites.intern(*site);
                self.ensure_site_rows(ss);
                self.outstanding[ss as usize] = Some(*txn);
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                // The ack follows its `ser`'s submission (see
                // `Gtm2::enqueue`): `init` interned the site and `txn`, and
                // `txn` is the site's outstanding transaction.
                let ss = self.sites.intern(*site);
                self.ensure_site_rows(ss);
                debug_assert_eq!(
                    self.outstanding[ss as usize],
                    Some(*txn),
                    "ack of {txn} at {site}"
                );
                let q = &mut self.insert_queues[ss as usize];
                let pos = q.iter().position(|t| t == txn);
                if let Some(pos) = pos {
                    q.remove(pos);
                }
                steps.bump(StepKind::Act, pos.unwrap_or_default() as u64 + 1);
                self.outstanding[ss as usize] = None;
                let was_marked = self
                    .txns
                    .slot_of(txn)
                    .is_some_and(|ts| self.marked[ts as usize].remove(ss));
                if pos.is_some() && !was_marked {
                    self.unmarked[ss as usize] -= 1;
                }
                self.delete_queues[ss as usize].push_back(*txn);
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                // `cond(fin)` held: `txn` heads the delete queue of every
                // site `init` announced, and every such site has a slot.
                let Some(ts) = self.txns.slot_of(txn) else {
                    return;
                };
                let mut removed_any = false;
                for site in self.sites_map[ts as usize].take().unwrap_or_default() {
                    steps.tick(StepKind::Act);
                    let Some(ss) = self.sites.slot_of(&site) else {
                        continue;
                    };
                    let front = self.delete_queues[ss as usize].pop_front();
                    debug_assert_eq!(front, Some(*txn), "cond(fin) guaranteed front");
                    if self.edges[ts as usize].remove(ss) {
                        self.edge_count -= 1;
                        removed_any = true;
                    }
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
            }
        }
    }

    fn wake_candidates(&self, acted: &QueueOp, wait: &WaitSet) -> WakeCandidates {
        match acted {
            QueueOp::Ack { txn, site } => {
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

    fn ser_ready_at(&self, site: SiteId) -> Option<(Option<GlobalTxnId>, u64)> {
        // `cond(ser)` ticks once, pass or fail. It fails while the site has
        // an outstanding `ser`. With none, a waiting `ser` (its
        // transaction is in the insert queue until the ack) passes if it
        // is unmarked at the site or heads the queue; with no member
        // unmarked, only the front can, and its act makes it outstanding.
        let ss = self.sites.slot_of(&site)?;
        if self.outstanding[ss as usize].is_some() {
            Some((None, 1))
        } else if self.unmarked[ss as usize] == 0 {
            Some((self.insert_front(ss), 1))
        } else {
            None
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
            let unmarked = iq
                .iter()
                .filter(|t| {
                    self.txns
                        .slot_of(t)
                        .is_none_or(|ts| !self.marked[ts as usize].contains(ss as u32))
                })
                .count();
            assert_eq!(
                unmarked, self.unmarked[ss] as usize,
                "unmarked count of site slot {ss}"
            );
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
/// the predecessors). Every `ser` and `ack` names an edge its `init`
/// created (see [`Gtm2::enqueue`](crate::gtm2::Gtm2::enqueue)).
#[derive(Clone, Debug, Default)]
pub struct Scheme2Dense {
    tsgd: DenseTsgd,
    /// Scratch for two-phase collect-then-mutate loops: the edges
    /// `(txn slot, row index)` of the column members a dependency fan
    /// picked.
    scratch: Vec<(u32, u32)>,
    /// Reusable traversal state (and the Δ) of `Eliminate_Cycles`.
    elim: EliminateScratch,
}

impl Scheme2Dense {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
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

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        match op {
            QueueOp::Init { txn, sites } => {
                let ts = self.tsgd.insert_txn(*txn, sites);
                steps.bump(StepKind::Act, sites.len() as u64);
                for &site in sites {
                    let Some(ss) = self.tsgd.site_slot(site) else {
                        steps.bump(StepKind::Act, 1);
                        continue;
                    };
                    // Everyone already executed at `site` precedes `txn`
                    // there; `txn`'s own column entry names its edge.
                    self.scratch.clear();
                    let mut own = None;
                    for &(_, js, ji) in self.tsgd.txns_col(ss) {
                        if js == ts {
                            own = Some((ts, ji));
                        } else if self.tsgd.edge_at(js, ji).ran {
                            self.scratch.push((js, ji));
                        }
                    }
                    steps.bump(StepKind::Act, self.scratch.len() as u64 + 1);
                    if let Some(after) = own {
                        for &before in &self.scratch {
                            self.tsgd.add_dep_at(site, before, after);
                        }
                    }
                }
                eliminate_cycles_dense_with(&mut self.tsgd, *txn, steps, &mut self.elim);
                self.tsgd.add_delta(&self.elim);
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                let ts = self.tsgd.txn_slot(*txn);
                let own = ts.and_then(|ts| Some((ts, self.tsgd.edge_index(ts, *site)? as u32)));
                debug_assert!(own.is_some(), "ser of {txn} at {site} has no TSG edge");
                if let Some((ts, ti)) = own {
                    self.tsgd.edge_at_mut(ts, ti).ran = true;
                }
                if let Some(ss) = self.tsgd.site_slot(*site) {
                    // `txn` precedes everyone not yet executed at `site`.
                    self.scratch.clear();
                    for &(_, js, ji) in self.tsgd.txns_col(ss) {
                        if Some(js) != ts && !self.tsgd.edge_at(js, ji).ran {
                            self.scratch.push((js, ji));
                        }
                    }
                    steps.bump(StepKind::Act, self.scratch.len() as u64 + 1);
                    if let Some(before) = own {
                        for &after in &self.scratch {
                            self.tsgd.add_dep_at(*site, before, after);
                        }
                    }
                } else {
                    steps.bump(StepKind::Act, 1);
                }
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                let ts = self.tsgd.txn_slot(*txn);
                let acked = ts.is_some_and(|ts| self.tsgd.mark_acked(ts, *site));
                debug_assert!(acked, "ack of {txn} at {site} has no TSG edge");
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                let announced = self
                    .tsgd
                    .txn_slot(*txn)
                    .map_or(0, |ts| self.tsgd.row(ts).len());
                steps.bump(StepKind::Act, announced as u64 + 1);
                self.tsgd.remove_txn(*txn);
                // A checked decrement failed inside remove_txn: surface it
                // as a counted violation instead of a scheduler panic.
                if self.tsgd.take_desync() > 0 {
                    out.push(SchemeEffect::ProtocolViolation {
                        txn: *txn,
                        site: None,
                        kind: ProtocolViolationKind::DesyncedDependency,
                    });
                }
            }
        }
    }

    fn wake_candidates(&self, acted: &QueueOp, _wait: &WaitSet) -> WakeCandidates {
        match acted {
            QueueOp::Ack { site, .. } => WakeCandidates::SerAt(*site),
            QueueOp::Fin { .. } => WakeCandidates::Fins,
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn export_metrics(&self, registry: &mut Registry) {
        registry.inc("gtm2.elim_calls", self.elim.calls());
        registry.inc("gtm2.elim_states", self.elim.states());
        registry.inc("gtm2.elim_scans_elided", self.elim.scans_elided());
        registry.inc("gtm2.elim_delta", self.elim.deltas());
        registry.inc("gtm2.elim_recs", self.tsgd.records_laid());
        registry.inc("gtm2.edge_searches", self.tsgd.edge_searches());
    }

    fn debug_validate(&self) {
        // Theorem 5's induction, via the reference's exponential oracle
        // (guarded by size, like the reference).
        if self.tsgd.live_txn_count() <= 10 {
            assert!(
                !self.tsgd.to_reference().has_any_cycle(),
                "TSGD must remain acyclic"
            );
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
            "an edge record, a dependency count or the edge table went stale"
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

    fn contains(&self, t: u32, bit: u32) -> bool {
        row_contains(self.row(t), bit)
    }

    fn set(&mut self, t: u32, bit: u32) {
        self.row_mut(t)[bit as usize / 64] |= 1 << (bit % 64);
    }

    fn clear(&mut self, t: u32, bit: u32) {
        self.row_mut(t)[bit as usize / 64] &= !(1 << (bit % 64));
    }
}

fn row_contains(row: &[u64], bit: u32) -> bool {
    row.get(bit as usize / 64)
        .is_some_and(|w| w & (1 << (bit % 64)) != 0)
}

/// The set bits of `row`, ascending.
fn row_bits(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                64 * w as u32 + bit
            })
        })
    })
}

/// A row's size recounted from its words — for validation only: the
/// kernel keeps every row's size.
fn row_popcount(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// `row |= add`, calling `new_bit` once for each bit `row` did not hold;
/// returns how many there were.
fn or_new_bits(row: &mut [u64], add: &[u64], mut new_bit: impl FnMut(u32)) -> u32 {
    let mut added = 0;
    for (w, (x, &a)) in row.iter_mut().zip(add).enumerate() {
        let new = a & !*x;
        if new != 0 {
            *x |= new;
            for bit in row_bits(&[new]) {
                new_bit(64 * w as u32 + bit);
                added += 1;
            }
        }
    }
    added
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

/// `add ⊄ row`: does `add` hold a bit `row` does not? Read-only, four
/// words per test like [`rows_intersect`]. Both cover the same words.
fn row_lacks_any(row: &[u64], add: &[u64]) -> bool {
    debug_assert_eq!(row.len(), add.len(), "the same words of two rows");
    let (r4, r_rest) = row.as_chunks::<4>();
    let (a4, a_rest) = add.as_chunks::<4>();
    r4.iter()
        .zip(a4)
        .any(|(x, y)| (y[0] & !x[0]) | (y[1] & !x[1]) | (y[2] & !x[2]) | (y[3] & !x[3]) != 0)
        || r_rest.iter().zip(a_rest).any(|(x, y)| y & !x != 0)
}

/// Scheme 3 on dense slots: `set_k` is a bitset over transaction slots,
/// and every `ser_bef` set is one row of a row-major bit matrix, so
/// `cond(ser)`'s emptiness test is a word-wise AND and
/// `act(ser)`'s transitive propagation sets `Ĝ_i`'s bit in each target
/// row and ORs in `ser_bef(Ĝ_i)` where the row lacks some of it.
///
/// Row `t` belongs to transaction slot `t`; all rows share one stride.
/// When a slot at or past `64·stride` is interned, the stride doubles and
/// the rows are re-laid. Slots recycle LIFO, so the row count stays near
/// the peak number of live transactions. A row is `live` iff the
/// reference map has the entry (the transaction was inited and has not
/// finned); a row that is not live is all zero.
///
/// A second matrix, `ser_aft`, is the exact transpose: row `b` holds every
/// `j` with `b ∈ ser_bef(j)`. `act(ser_k(Ĝ_i))` builds Set2 as
/// `set_k ∪ ⋃_{l ∈ set_k} ser_aft(l)`, one OR per pending transaction,
/// instead of testing every row against `set_k`. A target that already
/// holds `Ĝ_i` is charged but not touched: `ser_bef` is transitively
/// closed, so it holds all of Set1 already. Every other target gains
/// `Ĝ_i`, new there by construction, and nearly all of them hold the rest
/// of Set1 already (on the benchmark's burst cell all but 0.8 %): a
/// read-only, word-parallel test of `ser_bef(Ĝ_i) ⊄ ser_bef(j)` decides
/// whether the OR runs, and that OR reports the bits it adds, so only
/// those reach `ser_aft` bit by bit. `Ĝ_i`'s own `ser_aft` row takes every
/// such target in one row OR. The row's kept size grows by `1` plus the
/// bits the OR added. `last_k` is kept as a transaction slot, so
/// `cond(ser)` reads `acked` directly. `act(fin_i)` clears `Ĝ_i`'s column
/// by walking `ser_aft(Ĝ_i)`. The kept sizes are what the step charges of
/// `cond(ser)`, `act(init)` and Set1 read: the workspace builds for
/// baseline x86-64, which has no POPCNT, so a recount would pay a software
/// popcount over the whole row.
///
/// `cond(fin_i)` holds iff row `i` is all zero, so a `fin` that failed can
/// pass only once its row empties, and only `act(fin)` takes bits out of a
/// live row. Those rows are tracked in `emptied`, and a fin wake re-tests
/// only their fins.
///
/// Transaction slots recycle at `fin`; site slots are permanent (the
/// reference keeps `sets`/`last` entries for ever).
#[derive(Clone, Debug, Default)]
pub struct Scheme3Dense {
    txns: DenseInterner<GlobalTxnId>,
    sites: DenseInterner<SiteId>,
    /// Txn slot → `ser_bef(Ĝ_i)` as a row of bits over txn slots.
    ser_bef: BitMatrix,
    /// The transpose of `ser_bef`: row `b` holds every `j` with
    /// `b ∈ ser_bef(j)`. Same stride as `ser_bef`.
    ser_aft: BitMatrix,
    /// Txn slot → `|ser_bef(Ĝ_i)|`, kept from the bits each act adds or
    /// clears.
    ser_bef_sizes: Vec<u32>,
    /// Txn slot → does the reference map have a `ser_bef` entry?
    live: Vec<bool>,
    /// Live txn slots whose row an `act(fin)` left all zero, and which no
    /// `act(ser)` has OR'd into since.
    emptied: DenseBitSet,
    /// Number of live rows — the reference's `ser_bef.len()`.
    ser_bef_len: usize,
    /// Site slot → `last_k`'s txn slot (`act(fin)` clears it before the
    /// slot recycles, so it never names a later transaction).
    last: Vec<Option<u32>>,
    /// Site slot → `set_k` as a bitset over txn slots.
    sets: Vec<DenseBitSet>,
    /// Txn slot → acked site slots.
    acked: Vec<DenseBitSet>,
    /// Txn slot → announced site list.
    sites_map: Vec<Option<Vec<SiteId>>>,
    /// One matrix row of scratch: `act(init)`'s new row and `act(ser)`'s
    /// `ser_bef(Ĝ_i)`, Set1 without `Ĝ_i` (reused across calls).
    scratch_row: Vec<u64>,
    /// One matrix row of scratch: `act(ser)`'s Set2.
    scratch_targets: Vec<u64>,
    /// Set2 members `act(ser)` charged `|Set1|` (exported as
    /// `gtm2.ser_bef_targets`).
    ser_bef_targets: u64,
    /// Set2 members that already held `Ĝ_i`, so no OR ran (exported as
    /// `gtm2.ser_bef_ors_elided`).
    ser_bef_ors_elided: u64,
    /// Set2 members whose row gained a bit besides `Ĝ_i`, so the OR of
    /// `ser_bef(Ĝ_i)` ran (exported as `gtm2.ser_bef_ors_widened`).
    ser_bef_ors_widened: u64,
}

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
        row_bits(self.ser_bef.row(ts))
            .filter_map(|b| self.txns.key_of(b))
            .collect()
    }

    fn ensure_txn_rows(&mut self, ts: u32) {
        let n = ts as usize + 1;
        if self.live.len() < n {
            self.live.resize(n, false);
            self.ser_bef_sizes.resize(n, 0);
            self.acked.resize_with(n, DenseBitSet::new);
            self.sites_map.resize_with(n, || None);
        }
        self.ser_bef.reserve(n, ts);
        self.ser_aft.reserve(n, ts);
        self.scratch_row.resize(self.ser_bef.stride, 0);
        self.scratch_targets.resize(self.ser_bef.stride, 0);
    }

    fn ensure_site_rows(&mut self, ss: u32) {
        let n = ss as usize + 1;
        if self.last.len() < n {
            self.last.resize(n, None);
            self.sets.resize_with(n, DenseBitSet::new);
        }
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
                let Some(ss) = self.sites.slot_of(site) else {
                    return true;
                };
                if let Some(lt) = self.last[ss as usize] {
                    steps.tick(StepKind::Cond);
                    if !self.acked[lt as usize].contains(ss) {
                        return false;
                    }
                }
                // A row that is not live is all zero: it charges nothing
                // and meets nothing, as the reference's missing entry.
                self.txns.slot_of(txn).is_none_or(|ts| {
                    let set = &self.sets[ss as usize];
                    let size = self.ser_bef_sizes[ts as usize] as usize;
                    steps.bump(StepKind::Cond, size.min(set.len()) as u64);
                    size == 0 || !rows_intersect(self.ser_bef.row(ts), set.as_words())
                })
            }
            QueueOp::Fin { txn } => self
                .txns
                .slot_of(txn)
                .is_none_or(|ts| self.ser_bef_sizes[ts as usize] == 0),
            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,
        }
    }

    fn act(&mut self, op: &QueueOp, steps: &mut StepCounter, out: &mut Vec<SchemeEffect>) {
        match op {
            QueueOp::Init { txn, sites } => {
                let ts = self.txns.intern(*txn);
                self.ensure_txn_rows(ts);
                self.scratch_row.fill(0);
                for &site in sites {
                    steps.tick(StepKind::Act);
                    let ss = self.sites.intern(site);
                    self.ensure_site_rows(ss);
                    self.sets[ss as usize].insert(ts);
                    if let Some(lt) = self.last[ss as usize] {
                        steps.bump(StepKind::Act, u64::from(self.ser_bef_sizes[lt as usize]));
                        for (w, &b) in self.scratch_row.iter_mut().zip(self.ser_bef.row(lt)) {
                            *w |= b;
                        }
                        self.scratch_row[lt as usize / 64] |= 1 << (lt % 64);
                    }
                }
                debug_assert!(!self.live[ts as usize], "{txn} inited twice");
                self.live[ts as usize] = true;
                self.ser_bef_len += 1;
                // A row that is not live is all zero, so every bit is new.
                let mut size = 0;
                for b in row_bits(&self.scratch_row) {
                    self.ser_aft.set(b, ts);
                    size += 1;
                }
                self.ser_bef_sizes[ts as usize] = size;
                self.ser_bef.row_mut(ts).copy_from_slice(&self.scratch_row);
                self.sites_map[ts as usize] = Some(sites.clone());
            }
            QueueOp::Ser { txn, site } => {
                steps.tick(StepKind::Act);
                let ss = self.sites.intern(*site);
                self.ensure_site_rows(ss);
                let ts = self.txns.intern(*txn);
                self.ensure_txn_rows(ts);
                // `init_i` announced the site (see `Gtm2::enqueue`).
                let pending = self.sets[ss as usize].remove(ts);
                debug_assert!(pending, "ser of {txn} at {site} not announced by its init");
                self.last[ss as usize] = Some(ts);
                // Set1 = ser_bef(Ĝ_i) ∪ {Ĝ_i}; Ĝ_i ∉ ser_bef(Ĝ_i), so
                // |Set1| = |row| + 1. Only ser_bef(Ĝ_i) is copied to the
                // scratch row: each target gets Ĝ_i's bit directly.
                let bef = &mut self.scratch_row;
                bef.copy_from_slice(self.ser_bef.row(ts));
                let set1_len = u64::from(self.ser_bef_sizes[ts as usize]) + 1;
                steps.bump(StepKind::Act, self.ser_bef_len as u64);
                // Targets: everything still pending at the site, plus every
                // transaction already ordered after something pending here
                // (Set2), read off the pending transactions' `ser_aft` rows.
                let set_k = &self.sets[ss as usize];
                // A pending transaction already in the union is ordered
                // after one OR'd before it, so its row adds nothing.
                let set2 = &mut self.scratch_targets;
                set2.fill(0);
                for l in set_k.iter() {
                    if !row_contains(set2, l) {
                        for (w, &b) in set2.iter_mut().zip(self.ser_aft.row(l)) {
                            *w |= b;
                        }
                    }
                }
                for (w, &b) in set2.iter_mut().zip(set_k.as_words()) {
                    *w |= b;
                }
                set2[ts as usize / 64] &= !(1 << (ts % 64));
                // The targets that already hold Ĝ_i are Set2 ∩ ser_aft(Ĝ_i).
                // ser_bef is transitively closed, so each holds ser_bef(Ĝ_i)
                // too and its OR would add nothing: they are charged and
                // counted here, and only the rest are visited.
                let mut elided = 0;
                for (w, &after) in set2.iter_mut().zip(self.ser_aft.row(ts)) {
                    if *w & after != 0 {
                        elided += u64::from((*w & after).count_ones());
                        *w &= !after;
                    }
                }
                // Every target left gains Ĝ_i, which is new there. Most
                // already hold the rest of Set1, so a read-only test over
                // the words where ser_bef(Ĝ_i) has bits decides whether it
                // is OR'd in at all, and only the bits that OR adds are
                // written to `ser_aft` one by one.
                let (ts_word, ts_bit) = (ts as usize / 64, 1u64 << (ts % 64));
                let lo = bef.iter().position(|&w| w != 0).unwrap_or(0);
                let hi = bef.iter().rposition(|&w| w != 0).map_or(0, |w| w + 1);
                let mut ored = 0;
                for j in row_bits(set2) {
                    debug_assert!(self.live[j as usize], "slot {j}: target not live");
                    let row = self.ser_bef.row_mut(j);
                    row[ts_word] |= ts_bit;
                    let mut added = 1;
                    if lo < hi && row_lacks_any(&row[lo..hi], &bef[lo..hi]) {
                        let ser_aft = &mut self.ser_aft;
                        added += or_new_bits(row, bef, |b| ser_aft.set(b, j));
                        self.ser_bef_ors_widened += 1;
                    }
                    self.ser_bef_sizes[j as usize] += added;
                    self.emptied.remove(j);
                    debug_assert!(
                        !self.ser_bef.contains(j, j),
                        "slot {j} serialized before itself"
                    );
                    ored += 1;
                }
                // Ĝ_i's `ser_aft` row gains every target it was just set in.
                for (w, &b) in self.ser_aft.row_mut(ts).iter_mut().zip(set2.iter()) {
                    *w |= b;
                }
                steps.bump(StepKind::Act, (elided + ored) * set1_len);
                self.ser_bef_targets += elided + ored;
                self.ser_bef_ors_elided += elided;
                out.push(SchemeEffect::SubmitSer {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Ack { txn, site } => {
                steps.tick(StepKind::Act);
                // The ack follows its `ser`, so both have slots.
                if let (Some(ts), Some(ss)) = (self.txns.slot_of(txn), self.sites.slot_of(site)) {
                    self.acked[ts as usize].insert(ss);
                }
                out.push(SchemeEffect::ForwardAck {
                    txn: *txn,
                    site: *site,
                });
            }
            QueueOp::Fin { txn } => {
                // Ĝ_i leaves: drop it from every ser_bef row (one counted
                // step per live entry, known or not — like the reference),
                // noting each row that leaves empty.
                steps.bump(StepKind::Act, self.ser_bef_len as u64);
                let Some(ts) = self.txns.slot_of(txn) else {
                    return;
                };
                // Ĝ_i's column is its `ser_aft` row; its own row names the
                // `ser_aft` rows that hold it.
                let (stride, ts_word) = (self.ser_bef.stride, ts as usize / 64);
                let keep = !(1u64 << (ts % 64));
                for j in row_bits(self.ser_aft.row(ts)) {
                    self.ser_bef.words[j as usize * stride + ts_word] &= keep;
                    let size = &mut self.ser_bef_sizes[j as usize];
                    *size -= 1;
                    if *size == 0 {
                        self.emptied.insert(j);
                    }
                }
                for b in row_bits(self.ser_bef.row(ts)) {
                    self.ser_aft.clear(b, ts);
                }
                self.ser_aft.row_mut(ts).fill(0);
                self.ser_bef.row_mut(ts).fill(0);
                self.ser_bef_sizes[ts as usize] = 0;
                self.emptied.remove(ts);
                if self.live[ts as usize] {
                    self.live[ts as usize] = false;
                    self.ser_bef_len -= 1;
                }
                let announced = self.sites_map[ts as usize].take().unwrap_or_default();
                for site in announced {
                    steps.tick(StepKind::Act);
                    if let Some(ss) = self.sites.slot_of(&site) {
                        if self.last[ss as usize] == Some(ts) {
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
                debug_assert!(
                    self.acked[ts as usize].is_empty(),
                    "{txn} acked at an unannounced site"
                );
                self.txns.release(txn);
            }
        }
    }

    fn wake_candidates(&self, acted: &QueueOp, _wait: &WaitSet) -> WakeCandidates {
        match acted {
            QueueOp::Ack { site, .. } => WakeCandidates::SerAt(*site),
            QueueOp::Fin { .. } => {
                // `cond(fin)` charges one step, pass or fail, so the engine
                // re-tests the fins of the rows a fin emptied (`ready_fins`)
                // and charges every other waiting fin that step.
                WakeCandidates::FinPass
            }
            QueueOp::Init { .. } | QueueOp::Ser { .. } => WakeCandidates::None,
        }
    }

    fn ready_fins(&self, out: &mut Vec<GlobalTxnId>) {
        // A waiting fin's row was not empty when it failed.
        out.extend(self.emptied.iter().filter_map(|t| self.txns.key_of(t)));
    }

    fn ser_ready_at(&self, site: SiteId) -> Option<(Option<GlobalTxnId>, u64)> {
        // `cond(ser)` ticks once, ticks again to read `last_k`, and fails
        // while `last_k`'s event is unacked, before any `ser_bef` work.
        let ss = self.sites.slot_of(&site)?;
        let lt = self.last[ss as usize]?;
        (!self.acked[lt as usize].contains(ss)).then_some((None, 2))
    }

    fn export_metrics(&self, registry: &mut Registry) {
        registry.inc("gtm2.ser_bef_targets", self.ser_bef_targets);
        registry.inc("gtm2.ser_bef_ors_elided", self.ser_bef_ors_elided);
        registry.inc("gtm2.ser_bef_ors_widened", self.ser_bef_ors_widened);
    }

    fn debug_validate(&self) {
        assert_eq!(
            self.live.iter().filter(|&&l| l).count(),
            self.ser_bef_len,
            "ser_bef_len is not the live row count"
        );
        // ser_aft is ser_bef's transpose: every bit of ser_bef has its
        // mirror, and neither matrix holds a bit more.
        assert_eq!(
            (self.ser_aft.stride, self.ser_aft.rows()),
            (self.ser_bef.stride, self.ser_bef.rows()),
            "ser_aft's layout is not ser_bef's"
        );
        let mut mirrored = 0;
        for t in 0..self.ser_bef.rows() as u32 {
            for b in row_bits(self.ser_bef.row(t)) {
                assert!(
                    self.ser_aft.contains(b, t),
                    "slot {b} ∈ ser_bef({t}) but {t} ∉ ser_aft({b})"
                );
                mirrored += 1;
            }
        }
        assert_eq!(
            row_popcount(&self.ser_aft.words),
            mirrored,
            "ser_aft holds a bit ser_bef does not"
        );
        for (t, &size) in self.ser_bef_sizes.iter().enumerate() {
            assert_eq!(
                size as usize,
                row_popcount(self.ser_bef.row(t as u32)),
                "slot {t}: kept ser_bef size drifted"
            );
        }
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
            for b in row_bits(bef) {
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
    use crate::reference::scenario::{ack, dep, fin, g, init, s, ser};

    #[test]
    fn scheme1_dense_marked_count_tracks_cycle_edges() {
        let mut scheme = Scheme1Dense::new();
        let mut steps = StepCounter::new();
        let mut fx = Vec::new();
        scheme.act(&init(1, &[0, 1]), &mut steps, &mut fx);
        assert_eq!(scheme.marked_count(), 0, "no cycle with one txn");
        scheme.act(&init(2, &[0, 1]), &mut steps, &mut fx);
        assert_eq!(scheme.marked_count(), 2, "only G2's edges are marked");
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
        scheme.tsgd.add_dep(dep(0, 1, 2));
        scheme.tsgd.add_dep(dep(1, 2, 1));
        scheme.debug_validate();
    }

    #[test]
    fn scheme3_dense_ser_bef_accessor_and_recycling() {
        let mut scheme = Scheme3Dense::new();
        let mut steps = StepCounter::new();
        let mut fx = Vec::new();
        scheme.act(&init(1, &[0]), &mut steps, &mut fx);
        scheme.act(&init(2, &[0]), &mut steps, &mut fx);
        scheme.act(&ser(1, 0), &mut steps, &mut fx);
        assert!(scheme.ser_bef(g(2)).contains(&g(1)));
        assert!(scheme.ser_bef(g(1)).is_empty());
        // Recycle G1's slot: a fresh transaction must inherit nothing.
        scheme.act(&ser(2, 0), &mut steps, &mut fx);
        scheme.act(&ack(1, 0), &mut steps, &mut fx);
        scheme.act(&ack(2, 0), &mut steps, &mut fx);
        scheme.act(&fin(1), &mut steps, &mut fx);
        scheme.act(&init(3, &[0]), &mut steps, &mut fx);
        assert!(
            scheme.ser_bef(g(3)).contains(&g(2)),
            "G2 is site 0's last event"
        );
        assert!(!scheme.ser_bef(g(3)).contains(&g(1)), "G1 is gone");
        scheme.debug_validate();
    }

    /// `act(ser)` skips a target already ordered after `Ĝ_i` and ORs the
    /// rest, at the oracle's charge; `act(fin)` clears `Ĝ_i`'s column from
    /// both matrices, so the transaction that recycles its slot starts
    /// with no bit in either.
    #[test]
    fn scheme3_dense_skips_ordered_targets_and_fin_clears_both_matrices() {
        use crate::reference::scheme3::Scheme3;
        let mut scheme = Scheme3Dense::new();
        let mut oracle = Scheme3::new();
        let (mut steps, mut oracle_steps) = (StepCounter::new(), StepCounter::new());
        let mut fx = Vec::new();
        let mut run = |scheme: &mut Scheme3Dense, op: QueueOp| {
            scheme.act(&op, &mut steps, &mut fx);
            oracle.act(&op, &mut oracle_steps, &mut fx);
            scheme.debug_validate();
            assert_eq!(steps, oracle_steps, "{op:?}");
            steps.act
        };
        let work = |scheme: &Scheme3Dense| (scheme.ser_bef_targets, scheme.ser_bef_ors_elided);
        run(&mut scheme, init(1, &[0, 1]));
        run(&mut scheme, init(2, &[0, 1]));
        run(&mut scheme, init(3, &[1]));
        // s0's pending set is {G2}: G2 is ordered after G1.
        run(&mut scheme, ser(1, 0));
        assert_eq!(work(&scheme), (1, 0));
        // s1's pending set is {G2, G3}. G2 already holds G1, so only G3's
        // row is OR'd; both are charged |Set1| = 1.
        let charged = run(&mut scheme, ser(1, 1));
        assert_eq!(charged, 5 + 5 + 6, "inits 2 + 2 + 1; sers 1 + 3 + targets");
        assert_eq!(work(&scheme), (3, 1));
        assert!(scheme.ser_bef(g(1)).is_empty());
        assert_eq!(scheme.ser_bef(g(2)), BTreeSet::from([g(1)]));
        assert_eq!(scheme.ser_bef(g(3)), BTreeSet::from([g(1)]));
        let g1 = scheme.txns.slot_of(&g(1)).expect("G1 is live");
        assert_eq!(row_bits(scheme.ser_aft.row(g1)).count(), 2);
        run(&mut scheme, ack(1, 0));
        run(&mut scheme, ack(1, 1));
        run(&mut scheme, fin(1));
        assert!(scheme.ser_bef(g(2)).is_empty() && scheme.ser_bef(g(3)).is_empty());
        assert_eq!(
            scheme.emptied.iter().count(),
            2,
            "G2's and G3's rows emptied"
        );
        // G4 recycles G1's slot and must inherit no bit in either matrix.
        run(&mut scheme, init(4, &[2]));
        assert_eq!(scheme.txns.slot_of(&g(4)), Some(g1));
        for t in 0..scheme.ser_bef.rows() as u32 {
            assert!(!scheme.ser_bef.contains(t, g1), "slot {g1} in ser_bef({t})");
            assert!(!scheme.ser_aft.contains(t, g1), "slot {g1} in ser_aft({t})");
        }
        assert_eq!(row_bits(scheme.ser_bef.row(g1)).count(), 0);
        assert_eq!(row_bits(scheme.ser_aft.row(g1)).count(), 0);
        assert_eq!(scheme.ser_bef_sizes[g1 as usize], 0);
    }

    /// One `act(ser)` with a target of each kind: `G3` already holds `G2`
    /// (skipped), `G4` holds `ser_bef(G2)` = `{G1}` and gains only `G2`, and
    /// `G5`, whose row a fin emptied, gains `G2` and `G1` through the OR.
    /// Rows, kept sizes, both transposed rows, `emptied` and the three
    /// counters come out as the oracle's rows imply, at the oracle's charge,
    /// and a transaction that recycles a finned `last_k`'s slot inherits
    /// nothing.
    #[test]
    fn scheme3_dense_ser_sets_g_i_and_ors_only_where_a_bit_is_missing() {
        use crate::reference::scheme3::Scheme3;
        let mut scheme = Scheme3Dense::new();
        let mut oracle = Scheme3::new();
        let (mut steps, mut oracle_steps) = (StepCounter::new(), StepCounter::new());
        let mut fx = Vec::new();
        let mut run = |scheme: &mut Scheme3Dense, op: QueueOp| {
            scheme.act(&op, &mut steps, &mut fx);
            oracle.act(&op, &mut oracle_steps, &mut fx);
            scheme.debug_validate();
            assert_eq!(steps, oracle_steps, "{op:?}");
        };
        let work = |scheme: &Scheme3Dense| {
            (
                scheme.ser_bef_targets,
                scheme.ser_bef_ors_elided,
                scheme.ser_bef_ors_widened,
            )
        };
        for op in [
            init(1, &[0]),
            init(2, &[0, 1, 2]),
            init(4, &[0, 1]),
            init(3, &[2, 1]),
            init(6, &[3]),
            init(5, &[1, 3]),
            // G5 gains G6, then loses it at G6's fin: its row is emptied.
            ser(6, 3),
            ack(6, 3),
            fin(6),
            // G2 and G4 gain G1; G3 gains G2 and, through the OR, G1.
            ser(1, 0),
            ser(2, 2),
        ] {
            run(&mut scheme, op);
        }
        let slot = |scheme: &Scheme3Dense, i| scheme.txns.slot_of(&g(i)).expect("live");
        let g5 = slot(&scheme, 5);
        assert_eq!(scheme.emptied.iter().collect::<Vec<_>>(), [g5]);
        assert_eq!(work(&scheme), (4, 0, 1));
        // Site 1's pending set is {G3, G4, G5}.
        run(&mut scheme, ser(2, 1));
        assert_eq!(work(&scheme), (4 + 3, 1, 1 + 1), "G3 skipped, G5 widened");
        for j in [3, 4, 5] {
            assert_eq!(scheme.ser_bef(g(j)), BTreeSet::from([g(1), g(2)]), "G{j}");
            assert_eq!(scheme.ser_bef_sizes[slot(&scheme, j) as usize], 2, "G{j}");
        }
        let after = |scheme: &Scheme3Dense, i| {
            row_bits(scheme.ser_aft.row(slot(scheme, i)))
                .filter_map(|b| scheme.txns.key_of(b))
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(after(&scheme, 2), BTreeSet::from([g(3), g(4), g(5)]));
        assert_eq!(after(&scheme, 1), BTreeSet::from([g(2), g(3), g(4), g(5)]));
        assert!(scheme.emptied.is_empty(), "G5's row is no longer empty");
        // G7 takes G6's recycled slot at site 3, whose `last_k` G6's fin
        // cleared: G7 starts with nothing before it.
        run(&mut scheme, init(7, &[3]));
        assert!(scheme.ser_bef(g(7)).is_empty());
    }
}
