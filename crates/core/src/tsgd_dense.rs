//! Slot-indexed TSGD for the dense Scheme 2 kernel.
//!
//! [`DenseTsgd`] is semantically the same structure as the paper-text
//! [`crate::reference::tsgd::Tsgd`] — transaction/site nodes, undirected
//! edges, dependencies ([`Dep`]) between edges at a common site — but stored over compact `u32` slots handed out by
//! [`DenseInterner`]s, so the per-operation hot path touches vectors and
//! bitsets instead of `BTreeMap`s and allocates nothing:
//!
//! - adjacency is kept as **id-sorted** vectors — a transaction's row of
//!   edges by site id, a site's column of `(txn id, slot, row index)` by
//!   txn id — so every traversal visits neighbours in exactly the order the
//!   reference `BTreeMap` kernels do, and step counts that depend on
//!   traversal order (notably [`eliminate_cycles_dense_with`]) stay
//!   byte-identical;
//! - Section 6 defines a dependency as a relation between two *edges* at a
//!   common site, so each TSG edge `(Ĝ_i, s_k)` is **one record** in
//!   `Ĝ_i`'s row: its position in `s_k`'s column, the column positions of
//!   the *after* edges of the dependencies out of it, and counts of the
//!   dependencies into it (all of them, and those whose before-edge is not
//!   yet acked). Each dependency is stored once, on its before-edge;
//! - **edges are reached by index, not by search**: a column entry carries
//!   its edge's index in the transaction's row, kept right at insert, at
//!   remove, by `repair_column` and on a mid-row insert, so a column
//!   position — and so a dependency — names its edge. A
//!   row is searched ([`DenseTsgd::edge_searches`]) only where an
//!   operation names `(txn, site)`: Scheme 2's `cond(ser)`, `act(ser)` and
//!   `act(ack)`;
//! - so Scheme 2's `cond(ser)` is a read of one edge's count of unacked
//!   predecessors (kept by `add_dep_at`, `mark_acked` and `remove_txn`, so
//!   a failed WAIT re-test walks nothing), and `cond(fin)`'s "no incoming
//!   dependency" test is an O(1) counter read;
//! - `Eliminate_Cycles` walks a **persistent edge table** kept beside the
//!   rows: each TSG edge has one 16-byte record holding its site slot,
//!   word 0 of a skip mask (the edge's after set, in the column's own
//!   position space, OR its own position; the other words sit in a side
//!   array, read only for a column past 64 members) and an emptied stamp.
//!   A record is laid out when `insert_txn` adds its edge, and its mask
//!   follows the bit operations `add_dep_at` and `repair_column` apply to
//!   the after set; a row or column that outgrows the table re-lays it
//!   wider ([`DenseTsgd::records_laid`]). A call only re-opens its bitmap
//!   of states not yet entered and takes a fresh stamp. A column scan ANDs
//!   the complement of the mask into that bitmap and takes the first set
//!   bit — one word and one `trailing_zeros` for a column of up to 64
//!   members, a loop over the words past that — with no search;
//! - the walk pays about one column scan per DFS state: the state's cursor
//!   lives in its frame; a Δ choice sets `G_i`'s bit in the edge's mask
//!   (cleared when the call ends) and the scan goes on; a column another
//!   state of the same node already scanned to the end has its record
//!   stamped and is charged without a scan; and Δ is left in slot space
//!   with both edges' row indices, so [`DenseTsgd::add_delta`] searches
//!   nothing.
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
//! mark belong to the edge, not to the state scanning it.
//!
//! Nothing here answers a scheduling question that the reference does not:
//! `cond` reads an edge's unacked count / `incoming_deps` / `dep_count`,
//! `act` calls `insert_txn` / `add_dep_at` / `mark_acked` / `remove_txn`
//! and [`eliminate_cycles_dense_with`], which charges `steps` tick-for-tick
//! like [`crate::reference::tsgd::eliminate_cycles`] (Figure 4). The Theorem 5 invariants are *checked*, not maintained:
//! `DenseTsgd::to_reference` (a copy for the reference's exponential
//! cycle oracle) and [`DenseTsgd::deps_acyclic`] (a topological sort of
//! the dependencies) are validation grade and run only from
//! `debug_validate` and tests, as does
//! [`DenseTsgd::edges_consistent`], which checks that every edge record
//! agrees with its column, every column entry names its edge, every
//! dependency count matches the after sets, and every edge-table record
//! and mask matches its edge.

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
/// `s_k`'s column, the dependencies at `s_k` out of it, counts of those
/// into it, and Scheme 2's progress on it. Only `ran` is writable outside this
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
    /// Column positions of the *after* transactions of dependencies out of
    /// this edge — the order `Eliminate_Cycles` scans, so one column's
    /// blocked set copies word-wise into the edge's skip mask. A column
    /// insertion or removal hole-shifts it (`repair_column`). Each
    /// dependency is stored here only, on its before-edge.
    after: DenseBitSet,
    /// Number of dependencies into this edge: the column members whose
    /// after set holds this edge's position.
    preds: u32,
    /// Scheme 2: `act(ser)` has run on this edge.
    pub(crate) ran: bool,
    /// Scheme 2: its ack has been processed.
    acked: bool,
    /// How many of those members' own edges at `site` are not yet acked —
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
        self.preds as usize
    }
}

/// The TSGD over dense slots. See the module docs for the storage scheme.
#[derive(Clone, Debug, Default)]
pub struct DenseTsgd {
    txns: DenseInterner<GlobalTxnId>,
    sites: DenseInterner<SiteId>,
    /// Txn slot → its edges, sorted by site id.
    edges: Vec<Vec<Edge>>,
    /// Site slot → edges as `(txn id, txn slot, index in the txn's row)`,
    /// sorted by txn id: a column position or a dependency reaches its
    /// edge without a search.
    site_txns: Vec<Vec<(GlobalTxnId, u32, u32)>>,
    /// After-txn slot → number of incoming dependencies (O(1) `cond(fin)`).
    incoming: Vec<u32>,
    dep_count: usize,
    /// Checked-decrement failures in [`DenseTsgd::remove_txn`] — a desynced
    /// dependency bitset is counted here (and surfaced by the kernel as a
    /// protocol violation) instead of panicking in the scheduler.
    desync: Cell<u64>,
    /// Searches of a transaction's row for the edge at a site, over the
    /// TSGD's life (`DenseTsgd::edge_index`).
    searches: Cell<u64>,
    /// The records [`eliminate_cycles_dense_with`] walks, one per edge.
    table: EdgeTable,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner, adjacency rows are grown at insert_txn, and a column entry's row index is kept right at every row insert; prop_tsgd + kernel_equivalence pin the invariant against the reference Tsgd."
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
            self.table.lens.resize(ts as usize + 1, 0);
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
                col.insert(pos, (txn, ts, i as u32));
                let len = col.len();
                row.insert(
                    i,
                    Edge {
                        site,
                        ss,
                        pos: pos as u32,
                        after: DenseBitSet::new(),
                        preds: 0,
                        ran: false,
                        acked: false,
                        unacked_before: 0,
                    },
                );
                // Mid-row insert: the edges above moved up one in the row.
                for (k, e) in row.iter().enumerate().skip(i + 1) {
                    self.site_txns[e.ss as usize][e.pos as usize].2 = k as u32;
                }
                self.lay_record(ts, i, len);
                // Mid-column insert: the members above moved up one. The
                // new member has no dependencies at this site yet.
                if pos + 1 < len {
                    self.repair_column(ss, pos, true);
                }
            }
        }
        ts
    }

    /// The column of site slot `ss` just gained (`opened`) or lost an entry
    /// at position `at`: re-record every member's position on its edge,
    /// open/close the hole in the edge's position-space after set — closing
    /// it drops the dependencies into the lost entry — and lay its record's
    /// mask out again.
    fn repair_column(&mut self, ss: u32, at: usize, opened: bool) {
        let Self {
            edges,
            site_txns,
            table,
            ..
        } = self;
        let stride = table.stride as usize;
        for (p, &(_, js, ji)) in site_txns[ss as usize].iter().enumerate() {
            let e = &mut edges[js as usize][ji as usize];
            e.pos = p as u32;
            if opened {
                e.after.shift_up_from(at as u32);
            } else {
                e.after.remove(at as u32);
                e.after.shift_down_from(at as u32);
            }
            table.write(js as usize * stride + ji as usize, e);
        }
    }

    /// Index of the edge `(transaction in slot ts, site)` in the
    /// transaction's row, by a search of the row — counted in
    /// [`DenseTsgd::edge_searches`]. Only an operation that names
    /// `(txn, site)` asks: every other path reaches an edge through a
    /// column entry's row index.
    #[inline]
    pub(crate) fn edge_index(&self, ts: u32, site: SiteId) -> Option<usize> {
        self.searches.set(self.searches.get() + 1);
        self.row(ts).binary_search_by_key(&site, |e| e.site).ok()
    }

    /// Edge `(transaction in slot ts, site)`, if it exists.
    #[inline]
    pub(crate) fn edge(&self, ts: u32, site: SiteId) -> Option<&Edge> {
        self.row(ts).get(self.edge_index(ts, site)?)
    }

    /// Edge `i` of the row of the transaction in slot `ts`: a column entry
    /// or an [`DenseTsgd::edge_index`] names it.
    #[inline]
    pub(crate) fn edge_at(&self, ts: u32, i: u32) -> &Edge {
        &self.edges[ts as usize][i as usize]
    }

    /// [`DenseTsgd::edge_at`], mutably.
    #[inline]
    pub(crate) fn edge_at_mut(&mut self, ts: u32, i: u32) -> &mut Edge {
        &mut self.edges[ts as usize][i as usize]
    }

    /// Searches of a transaction's row for the edge at a site run so far:
    /// one per lookup by `(txn, site)`, which only Scheme 2's `cond(ser)`,
    /// `act(ser)` and `act(ack)` (and the id-level [`DenseTsgd::add_dep`])
    /// make.
    #[inline]
    pub fn edge_searches(&self) -> u64 {
        self.searches.get()
    }

    /// Record the ack of edge `(transaction in slot ts, site)`: the first
    /// time, every dependency out of the edge loses one unacked
    /// predecessor (a checked decrement). Returns `false` if no such edge
    /// exists.
    pub(crate) fn mark_acked(&mut self, ts: u32, site: SiteId) -> bool {
        let Some(i) = self.edge_index(ts, site) else {
            return false;
        };
        let e = &mut self.edges[ts as usize][i];
        if std::mem::replace(&mut e.acked, true) {
            return true;
        }
        let after = std::mem::take(&mut e.after);
        let ss = e.ss as usize;
        for apos in after.iter() {
            let a = self.site_txns[ss].get(apos as usize).copied();
            match a.and_then(|(_, a, ai)| self.edges[a as usize].get_mut(ai as usize)) {
                Some(ae) if ae.unacked_before > 0 => ae.unacked_before -= 1,
                _ => self.desynced(ts),
            }
        }
        self.edges[ts as usize][i].after = after;
        true
    }

    /// Count a failed checked decrement in [`DenseTsgd::remove_txn`] or
    /// [`DenseTsgd::mark_acked`]; the debug assert pins the invariant in
    /// tests.
    fn desynced(&self, ts: u32) {
        debug_assert!(false, "dependency accounting desynced at txn slot {ts}");
        self.desync.set(self.desync.get() + 1);
    }

    /// Remove a transaction, its edges, and all dependencies touching it;
    /// releases its slot (and the slot of any site left with no edges).
    pub fn remove_txn(&mut self, txn: GlobalTxnId) {
        let Some(ts) = self.txns.slot_of(&txn) else {
            return;
        };
        // An unacked edge stops holding up its after-edges. Decrements are
        // checked — a desynced edge is counted, not a scheduler panic.
        // Columns are still intact here, so a stored position resolves to
        // the other transaction's column entry and through it to its edge.
        // The dependencies into the transaction's edges are dropped by the
        // column repair below, which visits every member anyway.
        let mut row = std::mem::take(&mut self.edges[ts as usize]);
        for e in &row {
            for apos in e.after.iter() {
                let Some(&(_, a, ai)) = self.site_txns[e.ss as usize].get(apos as usize) else {
                    self.desynced(ts);
                    continue;
                };
                let Some(ae) = self.edges[a as usize].get_mut(ai as usize) else {
                    self.desynced(ts);
                    continue;
                };
                let released = e.acked || ae.unacked_before > 0;
                if !e.acked && released {
                    ae.unacked_before -= 1;
                }
                let counted = ae.preds > 0 && self.incoming[a as usize] > 0;
                if counted {
                    ae.preds -= 1;
                    self.incoming[a as usize] -= 1;
                }
                if !(released && counted) {
                    self.desynced(ts);
                }
            }
            let deps = e.after.len() + e.preds as usize;
            match self.dep_count.checked_sub(deps) {
                Some(left) => self.dep_count = left,
                None => self.desynced(ts),
            }
        }
        self.incoming[ts as usize] = 0;
        self.table.lens[ts as usize] = 0;
        // Edges; release site slots that end up edge-free (the reference
        // drops empty site nodes from `site_txns` the same way).
        for e in &row {
            let col = &mut self.site_txns[e.ss as usize];
            debug_assert_eq!(
                col.get(e.pos as usize).map(|m| (m.0, m.1)),
                Some((txn, ts)),
                "stale position"
            );
            col.remove(e.pos as usize);
            if col.is_empty() {
                self.sites.release(&e.site);
            } else {
                self.repair_column(e.ss, e.pos as usize, false);
            }
        }
        row.clear();
        self.edges[ts as usize] = row;
        self.txns.release(&txn);
    }

    /// Add a dependency, finding both edges by a search of their rows.
    /// Debug-asserts both edges exist (like the reference); silently skips
    /// if one does not, which only input outside Figure 2's order could
    /// cause, and GTM2 never receives it.
    pub fn add_dep(&mut self, dep: Dep) {
        let edge = |txn| {
            let ts = self.txns.slot_of(&txn)?;
            Some((ts, self.edge_index(ts, dep.site)? as u32))
        };
        match (edge(dep.before), edge(dep.after)) {
            (Some(before), Some(after)) => self.add_dep_at(dep.site, before, after),
            _ => debug_assert!(false, "dep on missing edge"),
        }
    }

    /// The dependency `before → after` at `site`, with both edges already
    /// found — each is `(txn slot, index in its row)`: `after`'s position
    /// joins the before-edge's after set, and the after-edge counts it (an
    /// unacked `before` edge holds `after`'s up).
    pub(crate) fn add_dep_at(
        &mut self,
        site: SiteId,
        (before, bi): (u32, u32),
        (after, ai): (u32, u32),
    ) {
        let r = self.rec_index(before, bi);
        let Some(apos) = self
            .row(after)
            .get(ai as usize)
            .filter(|a| a.site == site)
            .map(|a| a.pos)
        else {
            debug_assert!(false, "dep on missing edge");
            return;
        };
        let Some(b) = self.edges[before as usize]
            .get_mut(bi as usize)
            .filter(|b| b.site == site)
        else {
            debug_assert!(false, "dep on missing edge");
            return;
        };
        if b.after.insert(apos) {
            let unacked = u32::from(!b.acked);
            let a = &mut self.edges[after as usize][ai as usize];
            a.preds += 1;
            a.unacked_before += unacked;
            self.incoming[after as usize] += 1;
            self.dep_count += 1;
            self.table.set(r, apos);
        }
    }

    /// Fold in the Δ the last [`eliminate_cycles_dense_with`] call left in
    /// `scratch` (the TSGD must not have changed since that call): each
    /// entry carries both edges' row indices, so nothing is searched.
    pub fn add_delta(&mut self, scratch: &EliminateScratch) {
        for d in &scratch.delta {
            self.add_dep_at(d.site, (d.before, d.before_idx), (scratch.gslot, d.gi_idx));
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

    /// Edges at the site in `slot` as `(txn id, txn slot, index in the
    /// txn's row)`, sorted by transaction id.
    #[inline]
    pub fn txns_col(&self, slot: u32) -> &[(GlobalTxnId, u32, u32)] {
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

    /// Number of dependencies `(·, site) → (site, txn)` — `None` if the
    /// edge does not exist; the reference's `dep_preds(txn, site).len()`.
    #[cfg(test)]
    pub fn preds_at(&self, txn: GlobalTxnId, site: SiteId) -> Option<usize> {
        self.edge(self.txns.slot_of(&txn)?, site)
            .map(Edge::pred_count)
    }

    /// The dependency set as paper-level [`Dep`]s (test/inspection only).
    pub fn deps_set(&self) -> BTreeSet<Dep> {
        let mut out = BTreeSet::new();
        for (before, ts) in self.txns.iter_sorted() {
            for e in self.row(ts) {
                let col = self.txns_col(e.ss);
                for &(after, _, _) in e.after.iter().filter_map(|p| col.get(p as usize)) {
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
    /// that column entry's row index names the edge; rows and columns hold
    /// the same edges; every `after` position names another member of the
    /// column; each edge's `preds` counts the members whose after set holds
    /// its position, and `unacked_before` those of them whose edge is not
    /// acked; `incoming[t]` sums `preds` over `t`'s edges; `dep_count` is
    /// the sum of `incoming`; and the edge table matches the edges.
    /// Test/validation grade.
    pub fn edges_consistent(&self) -> bool {
        let mut edges = 0;
        for (txn, ts) in self.txns.iter_sorted() {
            let mut preds = 0;
            for (i, e) in self.row(ts).iter().enumerate() {
                edges += 1;
                preds += e.preds;
                let col = self.txns_col(e.ss);
                let placed = self.sites.key_of(e.ss) == Some(e.site)
                    && col.get(e.pos as usize) == Some(&(txn, ts, i as u32));
                let afters_valid = e
                    .after
                    .iter()
                    .all(|p| p != e.pos && (p as usize) < col.len());
                let (mut into, mut unacked) = (0, 0);
                for &(_, js, ji) in col {
                    let Some(o) = self.row(js).get(ji as usize).filter(|o| o.ss == e.ss) else {
                        return false;
                    };
                    if o.after.contains(e.pos) {
                        into += 1;
                        unacked += u32::from(!o.acked);
                    }
                }
                if !(placed && afters_valid && e.preds == into && e.unacked_before == unacked) {
                    return false;
                }
            }
            if self.incoming[ts as usize] != preds {
                return false;
            }
        }
        let in_columns = |(_, ss)| self.txns_col(ss).len();
        let incoming: usize = self.incoming.iter().map(|&n| n as usize).sum();
        edges == self.sites.iter_sorted().map(in_columns).sum::<usize>()
            && self.dep_count == incoming
            && self.table_consistent()
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
                arcs.extend(afters.map(|&(_, after, _)| (before, after)));
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

/// Edge `(v, s_u)`'s record in the walk's edge table: what node `v`'s scan
/// of `s_u`'s column needs, in 16 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct EdgeRec {
    /// Word 0 of the column positions `v` skips: the edge's after set OR
    /// its own position — and, during a call, `G_i`'s position once `v`
    /// took Δ there. Words 1 and up are in the table's `masks`.
    mask: u64,
    /// `s_u`'s slot.
    ss: u32,
    /// The stamp of the last call in which a state of `v` scanned `s_u`'s
    /// column to its end.
    emptied: u32,
}

/// The walk's compact edge table, kept beside the rows: one [`EdgeRec`]
/// per TSG edge, each row `stride` records from the last, so a record's
/// index is `slot · stride + row index`. A record is laid out when
/// `insert_txn` adds its edge; its mask follows the bit operations that
/// `add_dep_at` and `repair_column` apply to the edge's after set. A row
/// longer than `stride`, or a column longer than `64 · (spill + 1)`
/// members, re-lays the whole table wider.
#[derive(Clone, Debug, Default)]
struct EdgeTable {
    recs: Vec<EdgeRec>,
    /// Txn slot → its row's length.
    lens: Vec<u32>,
    /// Records per row: the longest row so far.
    stride: u32,
    /// Words 1 to `spill` of each record's skip mask, `spill` words from
    /// `index · spill` — read only for a column of more than 64 members.
    masks: Vec<u64>,
    /// Mask words per record past the first: the most a column has needed.
    spill: u32,
    /// Records laid out (at insert, or re-laid on growth) over the table's
    /// life.
    laid: u64,
    /// The last call's stamp (0 before the first call, which no record's
    /// `emptied` matches).
    stamp: u32,
}

impl EdgeTable {
    /// Word `w` of edge `e`'s skip mask: its after set OR its own position.
    fn mask_word(e: &Edge, w: usize) -> u64 {
        let own = u64::from(e.pos as usize / 64 == w) << (e.pos % 64);
        e.after.as_words().get(w).copied().unwrap_or(0) | own
    }

    /// Record `r` from its edge.
    fn write(&mut self, r: usize, e: &Edge) {
        let spill = self.spill as usize;
        if let Some(rec) = self.recs.get_mut(r) {
            *rec = EdgeRec {
                mask: Self::mask_word(e, 0),
                ss: e.ss,
                emptied: 0,
            };
        }
        let masks = self.masks.iter_mut().skip(r * spill).take(spill);
        for (w, m) in masks.enumerate() {
            *m = Self::mask_word(e, w + 1);
        }
    }

    /// Mask word `p / 64` of record `r`.
    fn word_mut(&mut self, r: usize, p: u32) -> Option<&mut u64> {
        match p as usize / 64 {
            0 => self.recs.get_mut(r).map(|rec| &mut rec.mask),
            w => self.masks.get_mut(r * self.spill as usize + w - 1),
        }
    }

    /// Position `p` joins record `r`'s skip mask.
    fn set(&mut self, r: usize, p: u32) {
        if let Some(m) = self.word_mut(r, p) {
            *m |= 1 << (p % 64);
        }
    }

    /// Position `p` leaves record `r`'s skip mask.
    fn clear(&mut self, r: usize, p: u32) {
        if let Some(m) = self.word_mut(r, p) {
            *m &= !(1 << (p % 64));
        }
    }

    /// True iff record `r`'s site and mask are what [`EdgeTable::write`]
    /// lays out for `e`.
    fn agrees(&self, r: usize, e: &Edge) -> bool {
        let spill = self.spill as usize;
        let masks = self.masks.get(r * spill..(r + 1) * spill);
        self.recs
            .get(r)
            .is_some_and(|rec| (rec.ss, rec.mask) == (e.ss, Self::mask_word(e, 0)))
            && masks.is_some_and(|m| {
                m.iter()
                    .enumerate()
                    .all(|(w, &m)| m == Self::mask_word(e, w + 1))
            })
    }

    /// A fresh stamp for a call starting now; on wrap-around every record
    /// is un-marked first.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
            self.recs.iter_mut().for_each(|rec| rec.emptied = 0);
            1
        });
        self.stamp
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "the table holds `stride` records (and `stride · spill` mask words) for every slot of `edges`, and `lens` one entry per slot, from insert_txn on; a row index is below its row's length."
)]
impl DenseTsgd {
    /// Lay out the record of edge `i` of the row of `ts`, just inserted
    /// into a column that now has `col_len` members; re-lay the table if
    /// the row or the column outgrew it.
    fn lay_record(&mut self, ts: u32, i: usize, col_len: usize) {
        let row = &self.edges[ts as usize];
        let t = &mut self.table;
        let spill = col_len.div_ceil(64).saturating_sub(1) as u32;
        if row.len() > t.stride as usize || spill > t.spill {
            t.stride = t.stride.max(row.len() as u32);
            t.spill = t.spill.max(spill);
            return self.relay();
        }
        let (stride, spill) = (t.stride as usize, t.spill as usize);
        let slots = self.edges.len();
        if t.recs.len() < slots * stride {
            t.recs.resize(slots * stride, EdgeRec::default());
            t.masks.resize(slots * stride * spill, 0);
        }
        // Mid-row insert: the records above move up one, like the edges.
        let (r, end) = (ts as usize * stride + i, ts as usize * stride + row.len());
        t.recs.copy_within(r..end - 1, r + 1);
        t.masks
            .copy_within(r * spill..(end - 1) * spill, (r + 1) * spill);
        t.write(r, &row[i]);
        t.lens[ts as usize] = row.len() as u32;
        t.laid += 1;
    }

    /// Lay out every record again at the table's current `stride` and
    /// `spill`.
    fn relay(&mut self) {
        let t = &mut self.table;
        let (stride, spill) = (t.stride as usize, t.spill as usize);
        let slots = self.edges.len();
        t.recs.clear();
        t.recs.resize(slots * stride, EdgeRec::default());
        t.masks.clear();
        t.masks.resize(slots * stride * spill, 0);
        for (ts, row) in self.edges.iter().enumerate() {
            for (i, e) in row.iter().enumerate() {
                t.write(ts * stride + i, e);
            }
            t.lens[ts] = row.len() as u32;
            t.laid += row.len() as u64;
        }
    }

    /// Index of edge `i` of the row of `ts` in the table.
    #[inline]
    fn rec_index(&self, ts: u32, i: u32) -> usize {
        ts as usize * self.table.stride as usize + i as usize
    }

    /// Edge records laid out, at insert or re-laid when the table grew,
    /// over the TSGD's life.
    pub fn records_laid(&self) -> u64 {
        self.table.laid
    }

    /// True iff the table covers every slot and column, and each live
    /// edge's record is the one [`EdgeTable::write`] lays out for it.
    /// Test/validation grade.
    fn table_consistent(&self) -> bool {
        let t = &self.table;
        let stride = t.stride as usize;
        let wide = |(_, ss)| self.txns_col(ss).len().div_ceil(64) <= t.spill as usize + 1;
        t.lens.len() >= self.edges.len()
            && t.recs.len() >= self.edges.len() * stride
            && t.masks.len() >= t.recs.len() * t.spill as usize
            && self.sites.iter_sorted().all(wide)
            && self.txns.iter_sorted().all(|(_, ts)| {
                let row = self.row(ts);
                t.lens[ts as usize] as usize == row.len()
                    && row.len() <= stride
                    && row
                        .iter()
                        .enumerate()
                        .all(|(i, e)| t.agrees(self.rec_index(ts, i as u32), e))
            })
    }
}

/// One Figure 4 state on the traversal path: the node, the site it was
/// reached through (`NONE` for `G_i`, the root), the end of its row in the
/// edge table, and its scan cursor — the edge record and column position
/// of the next candidate to examine, and the abstract ticks already
/// charged for the (permanently skipped) prefix before it.
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
/// indices in their rows — the call stood on the before-edge and read
/// `G_i`'s from its column entry, so [`DenseTsgd::add_delta`] searches
/// nothing — and `G_i`'s position in the site's column.
#[derive(Clone, Copy, Debug)]
struct DeltaDep {
    site: SiteId,
    before: u32,
    before_idx: u32,
    gi_idx: u32,
    gi_pos: u32,
}

/// A column in one call: where its words start in `open`, and its length.
#[derive(Clone, Copy, Debug, Default)]
struct Col {
    base: u32,
    len: u32,
}

/// Reusable scratch for [`eliminate_cycles_dense_with`]: one call's states
/// not yet entered, its columns and stamp, the traversal path, the Δ the
/// last call found, and five lifetime counters. Each call re-opens `open`
/// and takes a fresh stamp, so no call reads another's marks on the edge
/// table; the hot loop allocates nothing after warm-up.
#[derive(Clone, Debug, Default)]
pub struct EliminateScratch {
    /// Site slot → its column in this call.
    cols: Vec<Col>,
    /// The states not yet entered (the complement of Figure 4's `used`),
    /// one bit per column position, the columns laid end to end from
    /// their `base`: bit `p` of site `u`'s words is set until state
    /// `(u, column[p])` is entered. `G_i`'s bits are never cleared — the
    /// reference never consults `used` for `G_i` — and bits past a column's
    /// end are clear. Position space is stable for the whole call: the
    /// walk writes only the edge table's marks and masks, so no column
    /// mutates underneath.
    open: Vec<u64>,
    /// This call's stamp on the edge table's `emptied` marks.
    stamp: u32,
    /// The ancestors of the state being scanned, root first.
    path: Vec<Frame>,
    /// `G_i`'s slot in the last call, and the Δ that call found, in the
    /// reference's order — unique by construction, since a Δ choice blocks
    /// `G_i`'s position in the edge's mask.
    gslot: u32,
    delta: Vec<DeltaDep>,
    /// Calls, over every call.
    calls: u64,
    /// States entered below the root, over every call.
    states: u64,
    /// Column scans charged in closed form, over every call.
    scans_elided: u64,
    /// Δ dependencies found, over every call.
    deltas: u64,
}

#[expect(
    clippy::indexing_slicing,
    reason = "site slots are below the capacity begin() sized `cols` to, `open` holds every column's words from its `base`, records index a row below its length, and scans index a column below its length."
)]
impl EliminateScratch {
    /// Fresh scratch (grows lazily to the TSGD's slot capacities).
    pub fn new() -> Self {
        Self::default()
    }

    /// `Eliminate_Cycles` calls made with this scratch.
    pub fn calls(&self) -> u64 {
        self.calls
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

    /// Start a call for `G_i` in slot `gslot`: open every state and take a
    /// fresh stamp.
    fn begin(&mut self, tsgd: &mut DenseTsgd, gslot: u32) {
        let site_cap = tsgd.sites.capacity();
        if self.cols.len() < site_cap {
            self.cols.resize(site_cap, Col::default());
        }
        self.open.clear();
        for (ss, col) in self.cols.iter_mut().enumerate().take(site_cap) {
            let len = tsgd.txns_col(ss as u32).len();
            *col = Col {
                base: self.open.len() as u32,
                len: len as u32,
            };
            self.open.extend(std::iter::repeat_n(!0u64, len / 64));
            if !len.is_multiple_of(64) {
                self.open.push((1u64 << (len % 64)) - 1);
            }
        }
        self.stamp = tsgd.table.next_stamp();
        self.gslot = gslot;
        self.path.clear();
    }

    /// State `(arrived, v)`, just entered: cursor at the start of `v`'s row.
    fn frame(tsgd: &DenseTsgd, v: u32, arrived: u32) -> Frame {
        let at = tsgd.rec_index(v, 0) as u32;
        Frame {
            v,
            arrived,
            at,
            end: at + tsgd.table.lens[v as usize],
            txn_idx: 0,
            charged: 0,
        }
    }

    /// Enter state `(u, w)` of a chosen candidate.
    fn enter(&mut self, c: Cand) {
        self.states += 1;
        let word = &mut self.open[self.cols[c.us as usize].base as usize + c.q as usize / 64];
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
    /// column `col` that the scan of edge record `r` would choose: an open
    /// state its skip mask (word 0 of which is `mask`) does not hold.
    #[inline(always)]
    fn first_candidate(
        &self,
        table: &EdgeTable,
        (r, mask): (usize, u64),
        col: Col,
        from: usize,
    ) -> Option<usize> {
        let open = &self.open[col.base as usize..];
        if col.len <= 64 {
            let c = open[0] & !mask & (!0u64 << from);
            return (c != 0).then_some(c.trailing_zeros() as usize);
        }
        let spill = table.spill as usize;
        let masks = &table.masks[r * spill..];
        let mut keep = !0u64 << (from % 64);
        for w in from / 64..(col.len as usize).div_ceil(64) {
            let skip = if w == 0 { mask } else { masks[w - 1] };
            let c = open[w] & !skip & keep;
            if c != 0 {
                return Some(w * 64 + c.trailing_zeros() as usize);
            }
            keep = !0;
        }
        None
    }

    /// Cycle found: pin node `v` (standing on edge record `r`) before
    /// `G_i` — at column position `q`, edge `gi_idx` of its row — at the
    /// site, and block `q` in the record's mask for the rest of the call.
    #[cold]
    #[inline(never)]
    fn take_delta(&mut self, tsgd: &mut DenseTsgd, (v, r): (u32, usize), q: u32, gi_idx: u32) {
        tsgd.table.set(r, q);
        let si = r - tsgd.rec_index(v, 0);
        self.delta.push(DeltaDep {
            site: tsgd.row(v)[si].site,
            before: v,
            before_idx: si as u32,
            gi_idx,
            gi_pos: q,
        });
    }

    /// Run state `f` from its cursor until it chooses a candidate that
    /// enters a state, or runs out (`None`). A Δ choice is settled here:
    /// `G_i`'s position joins the edge's mask for the rest of the call,
    /// the reference's next trip (one tick plus the replayed prefix) is
    /// added to `ticks` and the scan goes on. A column that an earlier
    /// state of the same node scanned to the end is charged without a
    /// scan; a column this scan finishes is marked so. Inlined into the
    /// walk's one loop: the walk is all control flow.
    #[inline(always)]
    fn scan(&mut self, tsgd: &mut DenseTsgd, f: &mut Frame, ticks: &mut u64) -> Option<Cand> {
        let (mut r, mut ti, mut charged) = (f.at as usize, f.txn_idx as usize, f.charged);
        let mut chosen = None;
        'row: while r < f.end as usize {
            let rec = tsgd.table.recs[r];
            // `arrived` is the reference's `head(s_par(v))`: not scanned.
            if rec.ss != f.arrived {
                let col = self.cols[rec.ss as usize];
                let len = col.len as usize;
                if rec.emptied == self.stamp {
                    if ti < len {
                        debug_assert!(
                            self.first_candidate(&tsgd.table, (r, rec.mask), col, ti)
                                .is_none(),
                            "elided scan of node {} at site slot {} has a candidate",
                            f.v,
                            rec.ss
                        );
                        self.scans_elided += 1;
                        charged += (len - ti) as u64;
                    }
                } else {
                    // A Δ choice at `q` blocks `q` in the table's mask, but
                    // this scan has passed it, so `rec.mask` stays good.
                    while ti < len {
                        let Some(q) = self.first_candidate(&tsgd.table, (r, rec.mask), col, ti)
                        else {
                            charged += (len - ti) as u64;
                            break;
                        };
                        charged += (q - ti) as u64 + 1;
                        ti = q + 1;
                        let (_, ws, wi) = tsgd.txns_col(rec.ss)[q];
                        if ws != self.gslot {
                            chosen = Some(Cand {
                                us: rec.ss,
                                q: q as u32,
                                ws,
                            });
                            break 'row;
                        }
                        self.take_delta(tsgd, (f.v, r), q as u32, wi);
                        *ticks += 1 + charged;
                    }
                    tsgd.table.recs[r].emptied = self.stamp;
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
/// [`DenseTsgd::delta_set`] resolves it to [`Dep`]s. The TSGD is borrowed
/// mutably only for its edge table's per-call marks: it leaves the call
/// with the same transactions, edges, dependencies and masks.
///
/// The walk reads the TSGD's edge table: one record per TSG edge (site
/// slot, skip mask = the after set OR the edge's own column position),
/// laid out when the edge was inserted, so a scan reads one record and
/// ANDs one mask into the not-yet-entered states. Within one call whether
/// node `v` skips the candidate at a column position never depends on the
/// state `v` was entered through, and once true stays true: `w == v` is
/// fixed, no after set changes during the call, the set of not-yet-entered
/// states only shrinks, and `G_i`'s position joins `v`'s mask at a site
/// for the rest of the call once `v` took it as Δ there (the call clears
/// those bits when it ends). A chosen candidate is skipped from then on
/// (its state was entered, or it became Δ). Three consequences make the
/// walk cheap:
///
/// - **The cursor lives in the frame.** Coming back to a state, the
///   reference re-examines a prefix of skipped candidates, one tick each:
///   the frame charges that prefix as one number and resumes where it
///   stopped. A state is entered at most once per call (module docs), so
///   the frame is its only cursor.
/// - **A column the node emptied is charged, not scanned.** When any state
///   of `v` has scanned a column to its end, every position in it is
///   skipped for `v` for the rest of the call, so the edge's record is
///   stamped and a later state of `v` charges `col_len − ti` for it
///   without a scan (counted by [`EliminateScratch::scans_elided`]; debug
///   builds re-run the scan and assert that it finds nothing).
/// - **Δ choices are settled in the scanning frame.** A Δ choice ends the
///   reference's trip and starts the next at the same cursor, so its
///   `1 + charged` ticks are added and the scan goes on.
pub fn eliminate_cycles_dense_with(
    tsgd: &mut DenseTsgd,
    gi: GlobalTxnId,
    steps: &mut StepCounter,
    scratch: &mut EliminateScratch,
) {
    scratch.calls += 1;
    scratch.delta.clear();
    let Some(gslot) = tsgd.txn_slot(gi) else {
        // Reference behaviour for an absent gi: one outer tick, empty Δ.
        steps.tick(StepKind::Act);
        return;
    };
    scratch.begin(tsgd, gslot);
    // Every trip of the reference loop costs one tick plus the candidates
    // it examines; they are summed here and charged in one `bump`.
    let mut cur = EliminateScratch::frame(tsgd, gslot, NONE);
    let mut ticks = 1;
    loop {
        if let Some(c) = scratch.scan(tsgd, &mut cur, &mut ticks) {
            // Descend: the child's first trip.
            scratch.enter(c);
            ticks += 1;
            let child = EliminateScratch::frame(tsgd, c.ws, c.us);
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
    // Each Δ choice set a mask bit its after set does not hold: clear it.
    for d in &scratch.delta {
        let r = tsgd.rec_index(d.before, d.before_idx);
        tsgd.table.clear(r, d.gi_pos);
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
        assert_eq!(t.preds_at(g(2), s(0)), Some(1));
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
        eliminate_cycles_dense_with(&mut dense, g(5), &mut steps_dense, &mut scratch);
        let delta_dense = dense.delta_set(&scratch);
        assert_eq!(delta_ref, delta_dense);
        assert_eq!(steps_ref, steps_dense);
        assert_mirrors(&dense, &reference);
        assert!(!reference.has_cycle_involving(g(5), &delta_ref));
    }

    #[test]
    fn eliminate_cycles_missing_txn_is_one_tick() {
        let mut dense = DenseTsgd::new();
        let mut steps = StepCounter::new();
        let mut scratch = EliminateScratch::new();
        eliminate_cycles_dense_with(&mut dense, g(9), &mut steps, &mut scratch);
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
        assert_eq!(t.preds_at(g(7), s(0)), Some(0));
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
        // Several rounds through one scratch, the stamp wrapping around
        // between them: no call may read another's marks or Δ blocks, and
        // charges must equal the reference every time.
        dense.table.stamp = u32::MAX - 1;
        for target in [5u64, 1, 4, 5] {
            let mut steps_ref = StepCounter::new();
            let mut steps_cur = StepCounter::new();
            let delta_ref = eliminate_cycles(&reference, g(target), &mut steps_ref);
            eliminate_cycles_dense_with(&mut dense, g(target), &mut steps_cur, &mut scratch);
            let delta_cur = dense.delta_set(&scratch);
            assert_eq!(delta_ref, delta_cur, "Δ diverged for G{target}");
            assert_eq!(steps_ref, steps_cur, "steps diverged for G{target}");
            assert!(dense.edges_consistent(), "a Δ block outlived its call");
        }
        assert_eq!(dense.table.stamp, 3, "the stamp wrapped at the second call");
        // Absent-txn path: one outer tick, like the reference, and the
        // previous call's Δ is gone.
        let mut steps = StepCounter::new();
        eliminate_cycles_dense_with(&mut dense, g(9), &mut steps, &mut scratch);
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
        assert_eq!(t.preds_at(g(3), s(99)), Some(0));
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
