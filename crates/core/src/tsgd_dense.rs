//! Slot-indexed TSGD for the dense Scheme 2 kernel.
//!
//! [`DenseTsgd`] is semantically the same structure as the paper-text
//! [`crate::reference::tsgd::Tsgd`] — transaction/site nodes, undirected
//! edges, dependencies ([`Dep`]) between edges at a common site — but stored over compact `u32` slots handed out by
//! [`DenseInterner`]s, so the per-operation hot path touches vectors and
//! bitsets instead of `BTreeMap`s and allocates nothing:
//!
//! - adjacency is kept as **id-sorted** vectors — a transaction's row of
//!   edges by site id, a site's column of `(txn id, slot)` pairs by txn id —
//!   so every traversal visits neighbours in exactly the order the
//!   reference `BTreeMap` kernels do, and step counts that depend on
//!   traversal order (notably [`eliminate_cycles_dense_with`]) stay
//!   byte-identical;
//! - Section 6 defines a dependency as a relation between two *edges* at a
//!   common site, so each TSG edge `(Ĝ_i, s_k)` is **one record** in
//!   `Ĝ_i`'s row: its position in `s_k`'s column, the *before* slots of the
//!   dependencies into it, and the *after* column positions of the
//!   dependencies out of it. Each dependency is stored on both its edges;
//! - so Scheme 2's `cond(ser)` is a read of one edge's count of unacked
//!   predecessors (kept by `add_dep_slots`, `mark_acked` and
//!   `remove_txn`, so a failed WAIT re-test walks nothing), and `cond(fin)`'s
//!   "no incoming dependency" test is an O(1) counter read;
//! - `Eliminate_Cycles` walks a **per-call edge table**: when a call
//!   starts, each TSG edge gets one record holding its site slot, its
//!   column's length, a skip mask (the edge's after set, in the column's
//!   own position space, OR its own position) and an emptied flag. A
//!   column scan ANDs the complement of that mask into one flat per-call
//!   bitmap of states not yet entered and takes the first set bit — one
//!   word and one `trailing_zeros` for a column of up to 64 members, a
//!   loop over the words past that — with no search;
//! - the walk pays about one column scan per DFS state: the state's cursor
//!   lives in its frame; a Δ choice sets `G_i`'s bit in the edge's mask
//!   and the scan goes on; a column another state of the same node already
//!   scanned to the end has its record flagged and is charged without a
//!   scan; and Δ is left in slot space with both edges' row indices, so
//!   [`DenseTsgd::add_delta`] searches nothing.
//!
//! The frame can hold the cursor because of one invariant of Figure 4: it
//! descends to a node `w ≠ G_i` only by choosing a candidate `(u, w)`, and
//! choosing puts `(u, w)` into `used`, which every later scan skips. So a
//! `(arrival site u, node w)` state is **entered at most once per call**,
//! the node being scanned is always the newest state on the path, and
//! `head(s_par(v))` is its arrival site — the reference's `s_par`/`t_par`
//! maps are the path itself. The edge table rests on a second one:
//! whether node `v` skips a column position does not depend on the state
//! `v` was entered through, and once true stays true for the call (see
//! [`eliminate_cycles_dense_with`]) — so the skip mask and the emptied
//! flag belong to the edge, not to the state scanning it.
//!
//! Nothing here answers a scheduling question that the reference does not:
//! `cond` reads an edge's unacked count / `incoming_deps` / `dep_count`,
//! `act` calls `insert_txn` / `add_dep_slots` / `mark_acked` / `remove_txn`
//! and [`eliminate_cycles_dense_with`], which charges `steps` tick-for-tick
//! like [`crate::reference::tsgd::eliminate_cycles`] (Figure 4). The Theorem 5 invariants are *checked*, not maintained:
//! `DenseTsgd::to_reference` (a copy for the reference's exponential
//! cycle oracle) and [`DenseTsgd::deps_acyclic`] (a topological sort of
//! the dependencies) are validation grade and run only from
//! `debug_validate` and tests, as does
//! [`DenseTsgd::edges_consistent`], which checks that every edge record
//! agrees with its column and every dependency sits on both its edges.

use crate::reference::tsgd::Tsgd;
use mdbs_common::dense::{DenseBitSet, DenseInterner};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::step::{StepCounter, StepKind};
use mdbs_schedule::lex_topo_order;
use std::cell::Cell;
use std::collections::BTreeSet;

/// A dependency `(txn_before, site) → (site, txn_after)`: `ser_site(before)`
/// is processed before `ser_site(after)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Dep {
    /// Common site node.
    pub site: SiteId,
    /// Transaction whose event comes first.
    pub before: GlobalTxnId,
    /// Transaction whose event comes second.
    pub after: GlobalTxnId,
}

/// One TSG edge `(Ĝ_i, s_k)`, kept in `Ĝ_i`'s row: where it sits in
/// `s_k`'s column, both halves of every dependency at `s_k` it is part of,
/// and Scheme 2's progress on it. Only `ran` is writable outside this
/// module (`acked` through [`DenseTsgd::mark_acked`]): the rest must agree
/// with the columns and with the other edge of each dependency
/// ([`DenseTsgd::edges_consistent`]).
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    site: SiteId,
    /// `site`'s slot.
    ss: u32,
    /// The transaction's index in the site's `site_txns` column, kept right
    /// by `repair_column`.
    pos: u32,
    /// Slots of the *before* transactions of dependencies into this edge.
    before: DenseBitSet,
    /// Column positions of the *after* transactions of dependencies out of
    /// this edge — the order `Eliminate_Cycles` scans, so one column's
    /// blocked set copies word-wise into the edge's skip mask. A column
    /// insertion or removal hole-shifts it (`repair_column`).
    after: DenseBitSet,
    /// Scheme 2: `act(ser)` has run on this edge.
    pub(crate) ran: bool,
    /// Scheme 2: its ack has been processed.
    acked: bool,
    /// How many `before` members' own edges at `site` are not yet acked —
    /// Scheme 2's `cond(ser)` holds iff this is 0.
    unacked_before: u32,
}

impl Edge {
    /// Scheme 2's `cond(ser)` on this edge: every dependency predecessor
    /// at the site has been acked.
    #[inline]
    pub(crate) fn preds_acked(&self) -> bool {
        self.unacked_before == 0
    }

    /// Number of dependencies into this edge.
    #[inline]
    pub(crate) fn pred_count(&self) -> usize {
        self.before.len()
    }
}

/// The TSGD over dense slots. See the module docs for the storage scheme.
#[derive(Clone, Debug, Default)]
pub struct DenseTsgd {
    txns: DenseInterner<GlobalTxnId>,
    sites: DenseInterner<SiteId>,
    /// Txn slot → its edges, sorted by site id.
    edges: Vec<Vec<Edge>>,
    /// Site slot → edges as `(txn id, txn slot)`, sorted by txn id.
    site_txns: Vec<Vec<(GlobalTxnId, u32)>>,
    /// After-txn slot → number of incoming dependencies (O(1) `cond(fin)`).
    incoming: Vec<u32>,
    dep_count: usize,
    /// Checked-decrement failures in [`DenseTsgd::remove_txn`] — a desynced
    /// dependency bitset is counted here (and surfaced by the kernel as a
    /// protocol violation) instead of panicking in the scheduler.
    desync: Cell<u64>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner and adjacency rows are grown at insert_txn; prop_tsgd + kernel_equivalence pin the invariant against the reference Tsgd."
)]
impl DenseTsgd {
    /// Empty TSGD.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert transaction `txn` with edges to `sites` (idempotent-merging,
    /// like the reference). Returns the transaction's slot.
    pub fn insert_txn(&mut self, txn: GlobalTxnId, sites: &[SiteId]) -> u32 {
        let ts = self.txns.intern(txn);
        if self.edges.len() <= ts as usize {
            self.edges.resize_with(ts as usize + 1, Vec::new);
            self.incoming.resize(ts as usize + 1, 0);
        }
        for &site in sites {
            let ss = self.sites.intern(site);
            if self.site_txns.len() <= ss as usize {
                self.site_txns.resize_with(ss as usize + 1, Vec::new);
            }
            let row = &mut self.edges[ts as usize];
            if let Err(i) = row.binary_search_by_key(&site, |e| e.site) {
                let col = &mut self.site_txns[ss as usize];
                let pos = col.partition_point(|e| e.0 < txn);
                col.insert(pos, (txn, ts));
                row.insert(
                    i,
                    Edge {
                        site,
                        ss,
                        pos: pos as u32,
                        before: DenseBitSet::new(),
                        after: DenseBitSet::new(),
                        ran: false,
                        acked: false,
                        unacked_before: 0,
                    },
                );
                // Mid-column insert: the members above moved up one. The
                // new member has no dependencies at this site yet.
                if pos + 1 < col.len() {
                    self.repair_column(site, ss, pos, true);
                }
            }
        }
        ts
    }

    /// The column of site slot `ss` just gained (`opened`) or lost an entry
    /// at position `at`: re-record every member's position on its edge, and
    /// open/close the hole in the edge's position-space after set.
    fn repair_column(&mut self, site: SiteId, ss: u32, at: usize, opened: bool) {
        let Self {
            edges, site_txns, ..
        } = self;
        for (p, &(_, js)) in site_txns[ss as usize].iter().enumerate() {
            if let Some(e) = Self::edge_in(&mut edges[js as usize], site) {
                e.pos = p as u32;
                if opened {
                    e.after.shift_up_from(at as u32);
                } else {
                    e.after.shift_down_from(at as u32);
                }
            }
        }
    }

    /// The edge at `site` in a row.
    #[inline]
    fn edge_in(row: &mut [Edge], site: SiteId) -> Option<&mut Edge> {
        let i = row.binary_search_by_key(&site, |e| e.site).ok()?;
        row.get_mut(i)
    }

    /// Edge `(transaction in slot ts, site)`, if it exists.
    #[inline]
    pub(crate) fn edge(&self, ts: u32, site: SiteId) -> Option<&Edge> {
        self.row(ts).get(self.edge_index(ts, site)?)
    }

    /// [`DenseTsgd::edge`], mutably.
    #[inline]
    pub(crate) fn edge_mut(&mut self, ts: u32, site: SiteId) -> Option<&mut Edge> {
        Self::edge_in(self.edges.get_mut(ts as usize)?, site)
    }

    /// Record the ack of edge `(transaction in slot ts, site)`: the first
    /// time, every dependency out of the edge loses one unacked
    /// predecessor. Returns `false` if no such edge exists.
    pub(crate) fn mark_acked(&mut self, ts: u32, site: SiteId) -> bool {
        let (Some(i), Some(txn)) = (self.edge_index(ts, site), self.txns.key_of(ts)) else {
            return false;
        };
        let e = &mut self.edges[ts as usize][i];
        if std::mem::replace(&mut e.acked, true) {
            return true;
        }
        let after = std::mem::take(&mut e.after);
        let ss = e.ss as usize;
        for apos in after.iter() {
            let a = self.site_txns[ss].get(apos as usize).map(|&(_, a)| a);
            self.release_waiter(a, site, txn);
        }
        self.edges[ts as usize][i].after = after;
        true
    }

    /// One predecessor of the after-edge `(a, site)` was acked: a checked
    /// decrement of its unacked count.
    fn release_waiter(&mut self, a: Option<u32>, site: SiteId, txn: GlobalTxnId) {
        match a.and_then(|a| self.edge_mut(a, site)) {
            Some(ae) if ae.unacked_before > 0 => ae.unacked_before -= 1,
            _ => self.desynced(txn),
        }
    }

    /// Count a failed checked decrement in [`DenseTsgd::remove_txn`] or
    /// [`DenseTsgd::mark_acked`]; the debug assert pins the invariant in
    /// tests.
    fn desynced(&self, txn: GlobalTxnId) {
        debug_assert!(false, "dependency accounting desynced at {txn}");
        self.desync.set(self.desync.get() + 1);
    }

    /// Remove a transaction, its edges, and all dependencies touching it;
    /// releases its slot (and the slot of any site left with no edges).
    pub fn remove_txn(&mut self, txn: GlobalTxnId) {
        let Some(ts) = self.txns.slot_of(&txn) else {
            return;
        };
        // Each dependency is on two edges: clear its other half, and an
        // unacked edge stops holding up its after-edges. Decrements are
        // checked — a desynced edge is counted, not a scheduler panic.
        let mut row = std::mem::take(&mut self.edges[ts as usize]);
        for e in &row {
            for apos in e.after.iter() {
                // Columns are still intact here, so the stored position
                // resolves to the after-transaction's slot.
                let Some(&(_, a)) = self.site_txns[e.ss as usize].get(apos as usize) else {
                    self.desynced(txn);
                    continue;
                };
                let Some(ae) = self.edge_mut(a, e.site).filter(|ae| ae.before.contains(ts)) else {
                    continue;
                };
                ae.before.remove(ts);
                // The after-edge found here also takes the unacked
                // decrement: one search per dependency.
                let released = e.acked || ae.unacked_before > 0;
                if !e.acked && released {
                    ae.unacked_before -= 1;
                }
                if !released {
                    self.desynced(txn);
                }
                if self.incoming[a as usize] == 0 || self.dep_count == 0 {
                    self.desynced(txn);
                } else {
                    self.incoming[a as usize] -= 1;
                    self.dep_count -= 1;
                }
            }
            for b in e.before.iter() {
                if let Some(be) = self.edge_mut(b, e.site) {
                    be.after.remove(e.pos);
                }
                if self.dep_count == 0 {
                    self.desynced(txn);
                } else {
                    self.dep_count -= 1;
                }
            }
        }
        self.incoming[ts as usize] = 0;
        // Edges; release site slots that end up edge-free (the reference
        // drops empty site nodes from `site_txns` the same way). Every
        // dependency touching `txn` is gone, so no after set holds the
        // vacated position and the hole can be shifted closed.
        for e in &row {
            let col = &mut self.site_txns[e.ss as usize];
            debug_assert_eq!(col.get(e.pos as usize), Some(&(txn, ts)), "stale position");
            col.remove(e.pos as usize);
            if (e.pos as usize) < col.len() {
                self.repair_column(e.site, e.ss, e.pos as usize, false);
            } else if col.is_empty() {
                self.sites.release(&e.site);
            }
        }
        row.clear();
        self.edges[ts as usize] = row;
        self.txns.release(&txn);
    }

    /// Add a dependency. Debug-asserts both edges exist (like the
    /// reference); silently skips if one does not, which only input
    /// outside Figure 2's order could cause, and GTM2 never receives it.
    pub fn add_dep(&mut self, dep: Dep) {
        match (
            self.txns.slot_of(&dep.before),
            self.txns.slot_of(&dep.after),
        ) {
            (Some(before), Some(after)) => self.add_dep_slots(dep.site, before, after),
            _ => debug_assert!(false, "dep on missing edge"),
        }
    }

    /// [`DenseTsgd::add_dep`] for callers already in slot space: the
    /// dependency `before → after` at `site`, stored on both edges (an
    /// unacked `before` edge holds `after`'s up).
    pub(crate) fn add_dep_slots(&mut self, site: SiteId, before: u32, after: u32) {
        let (Some(bi), Some(ai)) = (self.edge_index(before, site), self.edge_index(after, site))
        else {
            debug_assert!(false, "dep on missing edge");
            return;
        };
        self.add_dep_at(site, (before, bi), (after, ai));
    }

    /// [`DenseTsgd::add_dep_slots`] with both edges already found: each is
    /// `(txn slot, index in its row)`.
    fn add_dep_at(&mut self, site: SiteId, (before, bi): (u32, usize), (after, ai): (u32, usize)) {
        let unacked = match self.row(before).get(bi) {
            Some(b) if b.site == site => u32::from(!b.acked),
            _ => {
                debug_assert!(false, "dep on missing edge");
                return;
            }
        };
        let Some(a) = self.edges[after as usize]
            .get_mut(ai)
            .filter(|a| a.site == site)
        else {
            debug_assert!(false, "dep on missing edge");
            return;
        };
        if a.before.insert(before) {
            a.unacked_before += unacked;
            let apos = a.pos;
            self.incoming[after as usize] += 1;
            self.dep_count += 1;
            self.edges[before as usize][bi].after.insert(apos);
        }
    }

    #[inline]
    fn edge_index(&self, ts: u32, site: SiteId) -> Option<usize> {
        self.row(ts).binary_search_by_key(&site, |e| e.site).ok()
    }

    /// Fold in the Δ the last [`eliminate_cycles_dense_with`] call left in
    /// `scratch` (the TSGD must not have changed since that call): each
    /// entry carries both edges' row indices, so nothing is searched.
    pub fn add_delta(&mut self, scratch: &EliminateScratch) {
        for d in &scratch.delta {
            let (bi, ai) = (d.before_idx as usize, d.gi_idx as usize);
            self.add_dep_at(d.site, (d.before, bi), (scratch.gslot, ai));
        }
    }

    /// That Δ as paper-level [`Dep`]s (test/inspection only).
    pub fn delta_set(&self, scratch: &EliminateScratch) -> BTreeSet<Dep> {
        let resolve = |d: &DeltaDep| {
            Some(Dep {
                site: d.site,
                before: self.txns.key_of(d.before)?,
                after: self.txns.key_of(scratch.gslot)?,
            })
        };
        scratch.delta.iter().filter_map(resolve).collect()
    }

    /// Slot of a live transaction.
    #[inline]
    pub fn txn_slot(&self, txn: GlobalTxnId) -> Option<u32> {
        self.txns.slot_of(&txn)
    }

    /// Slot of a live site (a site is live while it has at least one edge).
    #[inline]
    pub fn site_slot(&self, site: SiteId) -> Option<u32> {
        self.sites.slot_of(&site)
    }

    /// Edges of the transaction in `slot`, sorted by site id.
    #[inline]
    pub(crate) fn row(&self, slot: u32) -> &[Edge] {
        self.edges
            .get(slot as usize)
            .map_or(&[][..], |v| v.as_slice())
    }

    /// Edges at the site in `slot`, sorted by transaction id.
    #[inline]
    pub fn txns_col(&self, slot: u32) -> &[(GlobalTxnId, u32)] {
        self.site_txns
            .get(slot as usize)
            .map_or(&[][..], |v| v.as_slice())
    }

    /// All live transactions in id order.
    pub fn txns(&self) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.txns.iter_sorted().map(|(k, _)| k)
    }

    /// Number of live transactions.
    #[inline]
    pub fn live_txn_count(&self) -> usize {
        self.txns.live()
    }

    /// Number of dependencies.
    #[inline]
    pub fn dep_count(&self) -> usize {
        self.dep_count
    }

    /// Number of dependencies *into* `txn` — O(1), maintained.
    #[inline]
    pub fn incoming_deps(&self, txn: GlobalTxnId) -> usize {
        self.txns
            .slot_of(&txn)
            .map_or(0, |ts| self.incoming[ts as usize] as usize)
    }

    /// Before-slots of dependencies `(·, site) → (site, txn)` — empty if
    /// there are none, `None` if the edge does not exist. Cardinality is the
    /// reference `dep_preds(txn, site).len()`.
    #[cfg(test)]
    pub fn preds_at(&self, txn: GlobalTxnId, site: SiteId) -> Option<&DenseBitSet> {
        self.edge(self.txns.slot_of(&txn)?, site).map(|e| &e.before)
    }

    /// The dependency set as paper-level [`Dep`]s (test/inspection only).
    pub fn deps_set(&self) -> BTreeSet<Dep> {
        let mut out = BTreeSet::new();
        for (after, ts) in self.txns.iter_sorted() {
            for e in self.row(ts) {
                for before in e.before.iter().filter_map(|b| self.txns.key_of(b)) {
                    out.insert(Dep {
                        site: e.site,
                        before,
                        after,
                    });
                }
            }
        }
        out
    }

    /// True iff every edge record is right: each edge `(site, ss, pos)` of a
    /// live transaction finds that transaction at `pos` in column `ss`, and
    /// rows and columns hold the same edges; every dependency is on both its
    /// edges (a `before` bit has the matching `after` position on the
    /// before-transaction's edge at the same site, and an `after` position
    /// the matching `before` bit); each edge's `unacked_before` counts the
    /// `before` members whose edge is not acked; `incoming[t]` counts the
    /// `before` bits on `t`'s edges; and `dep_count` is the sum of
    /// `incoming`.
    /// Test/validation grade.
    pub fn edges_consistent(&self) -> bool {
        let mut edges = 0;
        for (txn, ts) in self.txns.iter_sorted() {
            let mut preds = 0;
            for e in self.row(ts) {
                edges += 1;
                preds += e.before.len();
                let col = self.txns_col(e.ss);
                let placed = self.sites.key_of(e.ss) == Some(e.site)
                    && col.get(e.pos as usize) == Some(&(txn, ts));
                let mut unacked = 0;
                let befores_mirrored = e.before.iter().all(|b| {
                    self.edge(b, e.site).is_some_and(|be| {
                        unacked += u32::from(!be.acked);
                        be.after.contains(e.pos)
                    })
                });
                let afters_mirrored = e.after.iter().all(|p| {
                    col.get(p as usize).is_some_and(|&(_, a)| {
                        self.edge(a, e.site)
                            .is_some_and(|ae| ae.before.contains(ts))
                    })
                });
                if !(placed && befores_mirrored && afters_mirrored && e.unacked_before == unacked) {
                    return false;
                }
            }
            if self.incoming[ts as usize] as usize != preds {
                return false;
            }
        }
        let in_columns = |(_, ss)| self.txns_col(ss).len();
        let incoming: usize = self.incoming.iter().map(|&n| n as usize).sum();
        edges == self.sites.iter_sorted().map(in_columns).sum::<usize>()
            && self.dep_count == incoming
    }

    /// Checked-decrement failures observed so far (see
    /// [`DenseTsgd::remove_txn`]).
    #[inline]
    pub fn desync_count(&self) -> u64 {
        self.desync.get()
    }

    /// Read and reset the desync counter — the kernel turns a non-zero
    /// return into a counted `ProtocolViolation` effect.
    #[inline]
    pub fn take_desync(&self) -> u64 {
        self.desync.replace(0)
    }

    /// True iff the dependency digraph (transactions as nodes, one arc per
    /// dependency) is acyclic, by the workspace's one topological sort over
    /// the edges' after sets (resolved through the columns, so every arc
    /// joins two live transactions). Test/validation grade — no
    /// `cond`/`act` asks, because a dependency cycle implies a TSGD cycle
    /// that `Eliminate_Cycles` already broke.
    pub fn deps_acyclic(&self) -> bool {
        let slots: Vec<u32> = self.txns.iter_sorted().map(|(_, slot)| slot).collect();
        let mut arcs = Vec::new();
        for &before in &slots {
            for e in self.row(before) {
                let col = self.txns_col(e.ss);
                let afters = e.after.iter().filter_map(|p| col.get(p as usize));
                arcs.extend(afters.map(|&(_, after)| (before, after)));
            }
        }
        lex_topo_order(slots, arcs).is_some()
    }

    /// The same graph as a [`Tsgd`], whose exponential
    /// [`Tsgd::has_cycle_involving`] is the one cycle oracle: the kernel's
    /// `debug_validate` asks it. Test/validation grade.
    pub(crate) fn to_reference(&self) -> Tsgd {
        let mut out = Tsgd::new();
        for (txn, ts) in self.txns.iter_sorted() {
            let sites: Vec<SiteId> = self.row(ts).iter().map(|e| e.site).collect();
            out.insert_txn(txn, &sites);
        }
        for dep in self.deps_set() {
            out.add_dep(dep);
        }
        out
    }
}

/// The root's "no arrival site".
const NONE: u32 = u32::MAX;

/// One Figure 4 state on the traversal path: the node, the site it was
/// reached through (`NONE` for `G_i`, the root), the end of its row in the
/// call's edge table, and its scan cursor — the edge record and column
/// position of the next candidate to examine, and the abstract ticks
/// already charged for the (permanently skipped) prefix before it.
#[derive(Clone, Copy, Debug)]
struct Frame {
    v: u32,
    arrived: u32,
    at: u32,
    end: u32,
    txn_idx: u32,
    charged: u64,
}

/// A candidate `(u, w)` a scan chose: `u`'s site slot, `w`'s position in
/// `u`'s column and `w`'s slot.
#[derive(Clone, Copy, Debug)]
struct Cand {
    us: u32,
    q: u32,
    ws: u32,
}

/// One Δ dependency `(before, site) → (site, G_i)`, with both edges'
/// indices in their rows — the call stood on the before-edge and resolved
/// `G_i`'s row when it started, so [`DenseTsgd::add_delta`] searches
/// nothing.
#[derive(Clone, Copy, Debug)]
struct DeltaDep {
    site: SiteId,
    before: u32,
    before_idx: u32,
    gi_idx: u32,
}

/// One TSG edge `(v, s_u)` in a call's edge table: what node `v`'s scan of
/// `s_u`'s column needs, and what the call has learned about it.
#[derive(Clone, Copy, Debug)]
struct EdgeRec {
    /// The column positions `v` skips, for a column of at most 64
    /// members: the edge's after set, its own position, and `G_i`'s
    /// position once `v` took Δ here. Unused for a longer column.
    mask: u64,
    /// `s_u`'s slot.
    ss: u32,
    /// `s_u`'s column length.
    len: u32,
    /// For a column of more than 64 members: the first of its mask's
    /// `len.div_ceil(64)` words in the scratch's `masks`.
    spill: u32,
    /// A state of `v` has scanned this column to its end in this call.
    emptied: bool,
}

/// Reusable scratch for [`eliminate_cycles_dense_with`]: one call's states
/// not yet entered, its edge table, the traversal path, the Δ the last
/// call found, and four lifetime counters. Every table is laid out anew
/// when a call starts, so no call reads another's; the hot loop allocates
/// nothing after warm-up.
#[derive(Clone, Debug, Default)]
pub struct EliminateScratch {
    /// Site slot → the first word of its column in `open`.
    base: Vec<u32>,
    /// The states not yet entered (the complement of Figure 4's `used`),
    /// one bit per column position, the columns laid end to end from
    /// `base`: bit `p` of site `u`'s words is set until state
    /// `(u, column[p])` is entered. `G_i`'s bits are never cleared — the
    /// reference never consults `used` for `G_i` — and bits past a column's
    /// end are clear. Position space is stable for the whole call: the TSGD
    /// is borrowed shared, so no column mutates underneath.
    open: Vec<u64>,
    /// One record per TSG edge, each transaction's row in row order.
    recs: Vec<EdgeRec>,
    /// Txn slot → its row's first record in `recs`; the row ends where the
    /// next slot's begins (one entry past the last slot).
    rows: Vec<u32>,
    /// The skip masks of the columns longer than 64 members, each
    /// `len.div_ceil(64)` words from its record's `spill`.
    masks: Vec<u64>,
    /// Site slot → `G_i`'s row index there, set from its row when a call
    /// starts. Only a Δ choice reads it, and Δ lies at one of `G_i`'s
    /// sites, so the other entries may be left over from earlier calls.
    gi_at: Vec<u32>,
    /// The ancestors of the state being scanned, root first.
    path: Vec<Frame>,
    /// `G_i`'s slot in the last call, and the Δ that call found, in the
    /// reference's order — unique by construction, since a Δ choice blocks
    /// `G_i`'s position in the edge's mask.
    gslot: u32,
    delta: Vec<DeltaDep>,
    /// States entered below the root, over every call.
    states: u64,
    /// Column scans charged in closed form, over every call.
    scans_elided: u64,
    /// Δ dependencies found, over every call.
    deltas: u64,
    /// Edge records laid out, over every call.
    recs_laid: u64,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slots and site slots are below the capacities begin() sized the tables to, `open` and `masks` hold every column's words from its `base` and `spill`, records index a row below its end, and scans index a column below its length."
)]
impl EliminateScratch {
    /// Fresh scratch (grows lazily to the TSGD's slot capacities).
    pub fn new() -> Self {
        Self::default()
    }

    /// Figure 4 states entered by choosing a candidate (the root `G_i` is
    /// not counted), over every call made with this scratch.
    pub fn states(&self) -> u64 {
        self.states
    }

    /// Column scans charged in closed form, because an earlier state of
    /// the same node had already scanned the column to its end, over every
    /// call made with this scratch.
    pub fn scans_elided(&self) -> u64 {
        self.scans_elided
    }

    /// Δ dependencies found, over every call made with this scratch.
    pub fn deltas(&self) -> u64 {
        self.deltas
    }

    /// Edge records a call's setup laid out (one per TSG edge), over every
    /// call made with this scratch: the setup's share of a call's work, as
    /// [`EliminateScratch::states`] is the walk's.
    pub fn recs_laid(&self) -> u64 {
        self.recs_laid
    }

    /// Start a call for `G_i` in slot `gslot`: open every state, lay out
    /// one record per edge and record `G_i`'s edges.
    fn begin(&mut self, tsgd: &DenseTsgd, gslot: u32) {
        let site_cap = tsgd.sites.capacity();
        if self.gi_at.len() < site_cap {
            self.base.resize(site_cap, 0);
            self.gi_at.resize(site_cap, 0);
        }
        self.open.clear();
        for (ss, base) in self.base.iter_mut().enumerate().take(site_cap) {
            *base = self.open.len() as u32;
            let len = tsgd.txns_col(ss as u32).len();
            self.open.extend(std::iter::repeat_n(!0u64, len / 64));
            if !len.is_multiple_of(64) {
                self.open.push((1u64 << (len % 64)) - 1);
            }
        }
        self.recs.clear();
        self.rows.clear();
        self.masks.clear();
        for row in &tsgd.edges {
            self.rows.push(self.recs.len() as u32);
            for e in row {
                let len = tsgd.txns_col(e.ss).len();
                let after = e.after.as_words();
                let own = 1u64 << (e.pos % 64);
                let mut rec = EdgeRec {
                    mask: 0,
                    ss: e.ss,
                    len: len as u32,
                    spill: self.masks.len() as u32,
                    emptied: false,
                };
                if len <= 64 {
                    rec.mask = after.first().copied().unwrap_or(0) | own;
                } else {
                    let words = (0..len.div_ceil(64)).map(|w| after.get(w).copied().unwrap_or(0));
                    self.masks.extend(words);
                    self.masks[rec.spill as usize + e.pos as usize / 64] |= own;
                }
                self.recs.push(rec);
            }
        }
        self.rows.push(self.recs.len() as u32);
        self.recs_laid += self.recs.len() as u64;
        for (i, e) in tsgd.row(gslot).iter().enumerate() {
            self.gi_at[e.ss as usize] = i as u32;
        }
        self.gslot = gslot;
        self.path.clear();
    }

    /// State `(arrived, v)`, just entered: cursor at the start of `v`'s row.
    fn frame(&self, v: u32, arrived: u32) -> Frame {
        Frame {
            v,
            arrived,
            at: self.rows[v as usize],
            end: self.rows[v as usize + 1],
            txn_idx: 0,
            charged: 0,
        }
    }

    /// Enter state `(u, w)` of a chosen candidate.
    fn enter(&mut self, c: Cand) {
        self.states += 1;
        let word = &mut self.open[self.base[c.us as usize] as usize + c.q as usize / 64];
        let bit = 1u64 << (c.q % 64);
        debug_assert!(
            *word & bit != 0,
            "state (site {}, node {}) entered twice",
            c.us,
            c.ws
        );
        *word &= !bit;
    }

    /// The first position at or after `from` (< the column's length) in
    /// the column of edge record `rec` that its node's scan would choose:
    /// an open state its skip mask does not hold.
    #[inline(always)]
    fn first_candidate(&self, rec: &EdgeRec, from: usize) -> Option<usize> {
        let open = &self.open[self.base[rec.ss as usize] as usize..];
        if rec.len <= 64 {
            let c = open[0] & !rec.mask & (!0u64 << from);
            return (c != 0).then_some(c.trailing_zeros() as usize);
        }
        let masks = &self.masks[rec.spill as usize..];
        let mut keep = !0u64 << (from % 64);
        for w in from / 64..(rec.len as usize).div_ceil(64) {
            let c = open[w] & !masks[w] & keep;
            if c != 0 {
                return Some(w * 64 + c.trailing_zeros() as usize);
            }
            keep = !0;
        }
        None
    }

    /// `G_i`'s position `q` joins record `r`'s skip mask: its node took Δ
    /// there.
    fn block(&mut self, r: usize, q: usize) {
        let rec = &mut self.recs[r];
        let bit = 1u64 << (q % 64);
        if rec.len <= 64 {
            rec.mask |= bit;
        } else {
            self.masks[rec.spill as usize + q / 64] |= bit;
        }
    }

    /// Run state `f` from its cursor until it chooses a candidate that
    /// enters a state, or runs out (`None`). A Δ choice is settled here:
    /// the reference's next trip (one tick plus the replayed prefix) is
    /// added to `ticks` and the scan goes on. A column that an earlier
    /// state of the same node scanned to the end is charged without a
    /// scan; a column this scan finishes is marked so. Inlined into the
    /// walk's one loop: the walk is all control flow.
    #[inline(always)]
    fn scan(&mut self, tsgd: &DenseTsgd, f: &mut Frame, ticks: &mut u64) -> Option<Cand> {
        let (mut r, mut ti, mut charged) = (f.at as usize, f.txn_idx as usize, f.charged);
        let mut chosen = None;
        'row: while r < f.end as usize {
            let rec = self.recs[r];
            let len = rec.len as usize;
            // `arrived` is the reference's `head(s_par(v))`: not scanned.
            if rec.ss != f.arrived {
                if rec.emptied {
                    if ti < len {
                        debug_assert!(
                            self.first_candidate(&rec, ti).is_none(),
                            "elided scan of node {} at site slot {} has a candidate",
                            f.v,
                            rec.ss
                        );
                        self.scans_elided += 1;
                        charged += (len - ti) as u64;
                    }
                } else {
                    while ti < len {
                        let Some(q) = self.first_candidate(&rec, ti) else {
                            charged += (len - ti) as u64;
                            break;
                        };
                        charged += (q - ti) as u64 + 1;
                        ti = q + 1;
                        let ws = tsgd.txns_col(rec.ss)[q].1;
                        if ws != self.gslot {
                            chosen = Some(Cand {
                                us: rec.ss,
                                q: q as u32,
                                ws,
                            });
                            break 'row;
                        }
                        // Cycle found: pin `v` before `G_i` at the site.
                        self.block(r, q);
                        let si = r - self.rows[f.v as usize] as usize;
                        self.delta.push(DeltaDep {
                            site: tsgd.row(f.v)[si].site,
                            before: f.v,
                            before_idx: si as u32,
                            gi_idx: self.gi_at[rec.ss as usize],
                        });
                        *ticks += 1 + charged;
                    }
                    self.recs[r].emptied = true;
                }
            }
            r += 1;
            ti = 0;
        }
        *ticks += charged - f.charged;
        (f.at, f.txn_idx, f.charged) = (r as u32, ti as u32, charged);
        chosen
    }
}

/// Figure 4 (`Eliminate_Cycles`) over the dense storage: the same Δ, in the
/// same order, and **identical step charges** as the reference
/// [`crate::reference::tsgd::eliminate_cycles`] — adjacency vectors are
/// id-sorted, so the traversal examines candidates in the reference order —
/// at a machine cost of about one column scan per state. Δ is left in
/// `scratch` in slot space: [`DenseTsgd::add_delta`] folds it in,
/// [`DenseTsgd::delta_set`] resolves it to [`Dep`]s.
///
/// A call starts by laying out one record per TSG edge (site slot, column
/// length, skip mask = the after set OR the edge's own column position,
/// emptied flag), so a scan reads one record and ANDs one mask into the
/// not-yet-entered states. Within one call whether node `v` skips the
/// candidate at a column position never depends on the state `v` was
/// entered through, and once true stays true: `w == v` is fixed, `v`'s
/// after set cannot change through the shared borrow, the set of
/// not-yet-entered states only shrinks, and `G_i`'s position joins `v`'s
/// mask at a site for good once `v` took it as Δ there. A chosen candidate
/// is skipped from then on (its state was entered, or it became Δ). Three
/// consequences make the walk cheap:
///
/// - **The cursor lives in the frame.** Coming back to a state, the
///   reference re-examines a prefix of skipped candidates, one tick each:
///   the frame charges that prefix as one number and resumes where it
///   stopped. A state is entered at most once per call (module docs), so
///   the frame is its only cursor.
/// - **A column the node emptied is charged, not scanned.** When any state
///   of `v` has scanned a column to its end, every position in it is
///   skipped for `v` for the rest of the call, so the edge's record is
///   flagged and a later state of `v` charges `col_len − ti` for it
///   without a scan (counted by [`EliminateScratch::scans_elided`]; debug
///   builds re-run the scan and assert that it finds nothing).
/// - **Δ choices are settled in the scanning frame.** A Δ choice ends the
///   reference's trip and starts the next at the same cursor, so its
///   `1 + charged` ticks are added and the scan goes on.
pub fn eliminate_cycles_dense_with(
    tsgd: &DenseTsgd,
    gi: GlobalTxnId,
    steps: &mut StepCounter,
    scratch: &mut EliminateScratch,
) {
    scratch.delta.clear();
    let Some(gslot) = tsgd.txn_slot(gi) else {
        // Reference behaviour for an absent gi: one outer tick, empty Δ.
        steps.tick(StepKind::Act);
        return;
    };
    scratch.begin(tsgd, gslot);
    // Every trip of the reference loop costs one tick plus the candidates
    // it examines; they are summed here and charged in one `bump`.
    let mut cur = scratch.frame(gslot, NONE);
    let mut ticks = 1;
    loop {
        if let Some(c) = scratch.scan(tsgd, &mut cur, &mut ticks) {
            // Descend: the child's first trip.
            scratch.enter(c);
            ticks += 1;
            let child = scratch.frame(c.ws, c.us);
            scratch.path.push(std::mem::replace(&mut cur, child));
        } else if let Some(parent) = scratch.path.pop() {
            // Back at the parent: its next trip replays the prefix it
            // already charged, then resumes at the cursor.
            cur = parent;
            ticks += 1 + cur.charged;
        } else {
            break;
        }
    }
    steps.bump(StepKind::Act, ticks);
    scratch.deltas += scratch.delta.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::scenario::{dep, g, s};
    use crate::reference::tsgd::eliminate_cycles;

    /// G1 and G2 over the same two sites, in both implementations.
    fn two_txn_cycle() -> (DenseTsgd, Tsgd) {
        let mut dense = DenseTsgd::new();
        let mut reference = Tsgd::new();
        for t in [1, 2] {
            dense.insert_txn(g(t), &[s(0), s(1)]);
            reference.insert_txn(g(t), &[s(0), s(1)]);
        }
        (dense, reference)
    }

    /// The dense graph holds exactly the reference's transactions, edges
    /// and dependencies, so the reference's cycle facts are its facts.
    fn assert_mirrors(dense: &DenseTsgd, reference: &Tsgd) {
        let copy = dense.to_reference();
        assert!(copy.txns().eq(reference.txns()));
        for t in reference.txns() {
            assert!(copy.sites_of(t).eq(reference.sites_of(t)), "edges of {t}");
        }
        assert!(copy.deps().eq(reference.deps()));
    }

    #[test]
    fn undetermined_orders_cycle() {
        let (dense, reference) = two_txn_cycle();
        assert_mirrors(&dense, &reference);
        assert!(reference.has_cycle_involving(g(1), &BTreeSet::new()));
        assert!(reference.has_cycle_involving(g(2), &BTreeSet::new()));
        assert!(reference.has_any_cycle());
    }

    #[test]
    fn consistent_dependencies_break_cycle() {
        let (mut t, mut reference) = two_txn_cycle();
        for d in [dep(0, 1, 2), dep(1, 1, 2)] {
            t.add_dep(d);
            reference.add_dep(d);
        }
        assert_mirrors(&t, &reference);
        assert!(!reference.has_any_cycle());
        assert!(t.deps_acyclic());
        assert_eq!(t.dep_count(), 2);
        assert_eq!(t.incoming_deps(g(2)), 2);
        assert_eq!(t.preds_at(g(2), s(0)).map(|b| b.len()), Some(1));
    }

    #[test]
    fn opposite_dependencies_are_a_real_cycle() {
        let (mut t, mut reference) = two_txn_cycle();
        for d in [dep(0, 1, 2), dep(1, 2, 1)] {
            t.add_dep(d);
            reference.add_dep(d);
        }
        assert_mirrors(&t, &reference);
        assert!(reference.has_any_cycle());
        assert!(!t.deps_acyclic());
        // Removing a member removes its dependencies: acyclic again.
        t.remove_txn(g(2));
        reference.remove_txn(g(2));
        assert_mirrors(&t, &reference);
        assert!(!reference.has_any_cycle());
        assert!(t.deps_acyclic());
    }

    #[test]
    fn eliminate_cycles_matches_reference_delta_and_steps() {
        // Mirror the same structure into both implementations and compare
        // Δ and the exact step charge.
        let mut reference = Tsgd::new();
        let mut dense = DenseTsgd::new();
        let txns: &[(u64, &[u32])] = &[
            (1, &[0, 1, 2]),
            (2, &[0, 1]),
            (3, &[1, 2]),
            (4, &[0, 2]),
            (5, &[0, 1, 2]),
        ];
        for &(t, ss) in txns {
            let sites: Vec<SiteId> = ss.iter().map(|&k| s(k)).collect();
            reference.insert_txn(g(t), &sites);
            dense.insert_txn(g(t), &sites);
        }
        for d in [dep(0, 1, 2), dep(1, 2, 3)] {
            reference.add_dep(d);
            dense.add_dep(d);
        }
        let mut steps_ref = StepCounter::new();
        let mut steps_dense = StepCounter::new();
        let delta_ref = eliminate_cycles(&reference, g(5), &mut steps_ref);
        let mut scratch = EliminateScratch::new();
        eliminate_cycles_dense_with(&dense, g(5), &mut steps_dense, &mut scratch);
        let delta_dense = dense.delta_set(&scratch);
        assert_eq!(delta_ref, delta_dense);
        assert_eq!(steps_ref, steps_dense);
        assert_mirrors(&dense, &reference);
        assert!(!reference.has_cycle_involving(g(5), &delta_ref));
    }

    #[test]
    fn eliminate_cycles_missing_txn_is_one_tick() {
        let dense = DenseTsgd::new();
        let mut steps = StepCounter::new();
        let mut scratch = EliminateScratch::new();
        eliminate_cycles_dense_with(&dense, g(9), &mut steps, &mut scratch);
        assert!(dense.delta_set(&scratch).is_empty());
        assert_eq!(steps.act, 1);
    }

    #[test]
    fn remove_txn_drops_deps_and_recycles_slots() {
        let (mut t, mut reference) = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        reference.add_dep(dep(0, 1, 2));
        let old_slot = t.txn_slot(g(1)).unwrap();
        t.remove_txn(g(1));
        reference.remove_txn(g(1));
        assert_eq!(t.dep_count(), 0);
        assert_eq!(t.incoming_deps(g(2)), 0);
        assert!(t.txn_slot(g(1)).is_none());
        assert_mirrors(&t, &reference);
        assert!(!reference.has_any_cycle());
        // The freed slot is recycled and must carry no stale state.
        let new_slot = t.insert_txn(g(7), &[s(0), s(1)]);
        reference.insert_txn(g(7), &[s(0), s(1)]);
        assert_eq!(new_slot, old_slot);
        assert_eq!(t.incoming_deps(g(7)), 0);
        assert!(t.preds_at(g(7), s(0)).is_some_and(DenseBitSet::is_empty));
        // G7 and G2 now share two undetermined sites: a fresh cycle.
        assert_mirrors(&t, &reference);
        assert!(reference.has_cycle_involving(g(7), &BTreeSet::new()));
    }

    /// `(txn, site)`'s count of unacked dependency predecessors.
    fn unacked(t: &DenseTsgd, txn: u64, site: u32) -> u32 {
        let ts = t.txn_slot(g(txn)).unwrap();
        t.edge(ts, s(site)).unwrap().unacked_before
    }

    #[test]
    fn unacked_count_follows_acks_deps_and_removals() {
        let mut t = DenseTsgd::new();
        for i in 1..=3 {
            t.insert_txn(g(i), &[s(0)]);
        }
        let slot = |t: &DenseTsgd, i| t.txn_slot(g(i)).unwrap();
        // A dependency from an already-acked edge holds nothing up.
        assert!(t.mark_acked(slot(&t, 1), s(0)));
        t.add_dep(dep(0, 1, 3));
        assert_eq!(unacked(&t, 3, 0), 0);
        // One from an unacked edge does, until that edge is acked — once,
        // however often the ack repeats.
        t.add_dep(dep(0, 2, 3));
        assert_eq!(unacked(&t, 3, 0), 1);
        assert!(!t.edge(slot(&t, 3), s(0)).unwrap().preds_acked());
        assert!(t.mark_acked(slot(&t, 2), s(0)));
        assert!(t.mark_acked(slot(&t, 2), s(0)));
        assert_eq!(unacked(&t, 3, 0), 0);
        assert!(t.edges_consistent());
        // No edge, no ack.
        assert!(!t.mark_acked(slot(&t, 3), s(9)));
        assert!(!t.mark_acked(77, s(0)));
        assert_eq!(t.take_desync(), 0);
    }

    #[test]
    fn removing_an_unacked_predecessor_releases_the_waiter() {
        let (mut t, _) = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        t.add_dep(dep(1, 1, 2));
        assert_eq!((unacked(&t, 2, 0), unacked(&t, 2, 1)), (1, 1));
        t.remove_txn(g(1));
        assert_eq!((unacked(&t, 2, 0), unacked(&t, 2, 1)), (0, 0));
        assert!(t.edges_consistent());
        assert_eq!(t.take_desync(), 0);
    }

    #[test]
    fn recycled_slot_starts_with_no_unacked_preds() {
        let mut t = DenseTsgd::new();
        t.insert_txn(g(1), &[s(0)]);
        t.insert_txn(g(2), &[s(0)]);
        t.add_dep(dep(0, 1, 2));
        let old_slot = t.txn_slot(g(2)).unwrap();
        t.remove_txn(g(2));
        assert_eq!(t.insert_txn(g(5), &[s(0)]), old_slot);
        assert_eq!(unacked(&t, 5, 0), 0);
        assert!(t.edges_consistent());
    }

    #[test]
    fn site_slots_release_when_edge_free() {
        let mut t = DenseTsgd::new();
        t.insert_txn(g(1), &[s(5)]);
        assert!(t.site_slot(s(5)).is_some());
        t.remove_txn(g(1));
        assert!(t.site_slot(s(5)).is_none());
    }

    #[test]
    fn cursor_eliminate_matches_rescan_and_reference() {
        let mut reference = Tsgd::new();
        let mut dense = DenseTsgd::new();
        let txns: &[(u64, &[u32])] = &[
            (1, &[0, 1, 2]),
            (2, &[0, 1]),
            (3, &[1, 2]),
            (4, &[0, 2]),
            (5, &[0, 1, 2]),
        ];
        for &(t, ss) in txns {
            let sites: Vec<SiteId> = ss.iter().map(|&k| s(k)).collect();
            reference.insert_txn(g(t), &sites);
            dense.insert_txn(g(t), &sites);
        }
        for d in [dep(0, 1, 2), dep(1, 2, 3)] {
            reference.add_dep(d);
            dense.add_dep(d);
        }
        let mut scratch = EliminateScratch::new();
        // Several rounds through one scratch: each call's tables must be
        // laid out anew, and charges must equal the reference every time.
        for target in [5u64, 1, 4] {
            let mut steps_ref = StepCounter::new();
            let mut steps_cur = StepCounter::new();
            let delta_ref = eliminate_cycles(&reference, g(target), &mut steps_ref);
            eliminate_cycles_dense_with(&dense, g(target), &mut steps_cur, &mut scratch);
            let delta_cur = dense.delta_set(&scratch);
            assert_eq!(delta_ref, delta_cur, "Δ diverged for G{target}");
            assert_eq!(steps_ref, steps_cur, "steps diverged for G{target}");
        }
        // Absent-txn path: one outer tick, like the reference, and the
        // previous call's Δ is gone.
        let mut steps = StepCounter::new();
        eliminate_cycles_dense_with(&dense, g(9), &mut steps, &mut scratch);
        assert!(dense.delta_set(&scratch).is_empty());
        assert_eq!(steps.act, 1);
    }

    #[test]
    fn recycled_site_slot_carries_no_stale_deps() {
        let mut t = DenseTsgd::new();
        // Site 10 is used only by G1/G4 and carries a dependency; removing
        // both releases its slot with the dependency rows fully cleared.
        t.insert_txn(g(1), &[s(10)]);
        t.insert_txn(g(4), &[s(10)]);
        t.insert_txn(g(2), &[s(0)]);
        t.add_dep(dep(10, 1, 4));
        let old_ss = t.site_slot(s(10)).unwrap();
        t.remove_txn(g(1));
        t.remove_txn(g(4));
        assert!(t.site_slot(s(10)).is_none(), "slot released");
        assert_eq!(t.dep_count(), 0);
        // A different site re-interned into the recycled slot must see no
        // trace of site 10's dependency bitsets.
        t.insert_txn(g(3), &[s(99), s(0)]);
        assert_eq!(t.site_slot(s(99)), Some(old_ss), "slot recycled");
        assert!(t.preds_at(g(3), s(99)).is_some_and(DenseBitSet::is_empty));
        assert!(t.preds_at(g(2), s(99)).is_none());
        assert_eq!(t.incoming_deps(g(3)), 0);
        t.add_dep(dep(0, 2, 3));
        assert_eq!(
            t.deps_set(),
            BTreeSet::from([dep(0, 2, 3)]),
            "no aliasing into site 99"
        );
        assert!(t.deps_acyclic());
        assert_eq!(t.take_desync(), 0);
    }
}
