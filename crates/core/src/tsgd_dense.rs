//! Slot-indexed TSGD for the dense Scheme 2 kernel.
//!
//! [`DenseTsgd`] is semantically the same structure as the paper-text
//! [`crate::reference::tsgd::Tsgd`] — transaction/site nodes, undirected
//! edges, dependencies ([`Dep`]) between edges at a common site — but stored over compact `u32` slots handed out by
//! [`DenseInterner`]s, so the per-operation hot path touches vectors and
//! bit words instead of `BTreeMap`s and allocates nothing:
//!
//! - adjacency is kept as **id-sorted** sequences — a transaction's row of
//!   edges by site id, a site's column of `(txn id, slot, row index)` by
//!   txn id — so every traversal visits neighbours in exactly the order the
//!   reference `BTreeMap` kernels do, and step counts that depend on
//!   traversal order (notably [`eliminate_cycles_dense_with`]) stay
//!   byte-identical. The columns share one flat table, each site's at a
//!   fixed offset `site slot · 64 · words`, so a column position is one
//!   load away from its entry;
//! - Section 6 defines a dependency as a relation between two *edges* at a
//!   common site, so each TSG edge `(Ĝ_i, s_k)` is **one record** in
//!   `Ĝ_i`'s row: its position in `s_k`'s column, how many dependencies
//!   leave it, and counts of the dependencies into it (all of them, and
//!   those whose before-edge is not yet acked);
//! - **each dependency is stored once**, as one bit in its before-edge's
//!   **edge-table record**: the record's mask words hold the column
//!   positions of the edge's after set, OR the edge's own position. The
//!   table is that set's only copy. A column insert or removal at `p`
//!   shifts each member's words in place from word `p / 64` up, and leaves
//!   a member with nothing at or above `p` alone;
//! - **edges are reached by index, not by search**: a column entry carries
//!   its edge's index in the transaction's row, kept right at insert, at
//!   remove, by the column repair and on a mid-row insert, so a column
//!   position — and so a dependency — names its edge. A
//!   row is searched ([`DenseTsgd::edge_searches`]) only where an
//!   operation names `(txn, site)`: Scheme 2's `cond(ser)`, `act(ser)` and
//!   `act(ack)`;
//! - so Scheme 2's `cond(ser)` is a read of one edge's count of unacked
//!   predecessors (kept by `add_dep_at`, `mark_acked` and `remove_txn`, so
//!   a failed WAIT re-test walks nothing), and `cond(fin)`'s "no incoming
//!   dependency" test is an O(1) counter read;
//! - `Eliminate_Cycles` walks the edge table: a record is one contiguous
//!   run of `1 + words` `u64`s — its site slot and emptied stamp, then its
//!   mask words — and rows sit `stride` records apart. A record is laid
//!   out when `insert_txn` adds its edge; a row or column that outgrows
//!   the table re-lays it wider by copying words
//!   ([`DenseTsgd::records_laid`]). A call only re-opens its bitmap of
//!   states not yet entered and takes a fresh stamp. A column scan ANDs
//!   the complement of the mask into that bitmap and takes the first set
//!   bit — one word and one `trailing_zeros` for a column of up to 64
//!   members, a loop over the record's next words past that — with no
//!   search;
//! - the walk pays about one column scan per DFS state: the state's cursor
//!   lives in its frame; a Δ choice sets `G_i`'s bit in the edge's mask,
//!   which *is* the new dependency, counts it on both edges and goes on
//!   scanning; and a column another state of the same node already
//!   scanned to the end has its record stamped and is charged without a
//!   scan.
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
//! like [`crate::reference::tsgd::eliminate_cycles`] (Figure 4) and adds
//! its Δ. The Theorem 5 invariants are *checked*, not maintained:
//! `DenseTsgd::to_reference` (a copy for the reference's exponential
//! cycle oracle) and [`DenseTsgd::deps_acyclic`] (a topological sort of
//! the dependencies) are validation grade and run only from
//! `debug_validate` and tests, as does
//! [`DenseTsgd::edges_consistent`], which checks that every edge record
//! agrees with its column, every column entry names its edge, every
//! dependency count matches the mask words, and every edge-table record
//! holds its site, its own position and nothing past its column.

use crate::reference::tsgd::Tsgd;
use mdbs_common::dense::DenseInterner;
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
/// `s_k`'s column, how many dependencies at `s_k` leave it and enter it,
/// and Scheme 2's progress on it. The dependencies out of it are bits of
/// its edge-table record. Only `ran` is writable outside this
/// module (`acked` through [`DenseTsgd::mark_acked`]): the rest must agree
/// with the columns and with the other edge of each dependency
/// ([`DenseTsgd::edges_consistent`]).
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    site: SiteId,
    /// `site`'s slot.
    ss: u32,
    /// The transaction's index in the site's column, kept right by the
    /// column repair.
    pos: u32,
    /// Number of dependencies out of this edge: the bits of its record's
    /// mask words besides its own position.
    deps: u32,
    /// Number of dependencies into this edge: the column members whose
    /// mask words hold this edge's position.
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
    /// Every site's column as `(txn slot, index in the txn's row)`, sorted
    /// by txn id: site slot `ss`'s members are `cols[ss · 64 · words ..]`,
    /// `col_lens[ss]` of them, so a column position or a dependency
    /// reaches its edge without a search.
    cols: Vec<(u32, u32)>,
    /// The members' txn ids, laid out like `cols`: what `insert_txn`
    /// searches.
    col_ids: Vec<GlobalTxnId>,
    /// Site slot → its column's length (0 for a released slot).
    col_lens: Vec<u32>,
    /// After-txn slot → number of incoming dependencies (O(1) `cond(fin)`).
    incoming: Vec<u32>,
    dep_count: usize,
    /// Checked-decrement failures in [`DenseTsgd::remove_txn`] — a desynced
    /// dependency count is counted here (and surfaced by the kernel as a
    /// protocol violation) instead of panicking in the scheduler.
    desync: Cell<u64>,
    /// Searches of a transaction's row for the edge at a site, over the
    /// TSGD's life (`DenseTsgd::edge_index`).
    searches: Cell<u64>,
    /// The records [`eliminate_cycles_dense_with`] walks, one per edge,
    /// each holding its edge's after set.
    table: EdgeTable,
    /// Mask words the column repair rewrote, over the TSGD's life.
    repair_words: u64,
}

/// Count a failed checked decrement (in [`DenseTsgd::remove_txn`],
/// [`DenseTsgd::mark_acked`] or the column repair) at txn slot `ts` in
/// `desync`; the debug assert pins the invariant in tests.
fn desynced(desync: &Cell<u64>, ts: u32) {
    debug_assert!(false, "dependency accounting desynced at txn slot {ts}");
    desync.set(desync.get() + 1);
}

/// The set bits of `words`, in ascending order.
fn bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
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

#[expect(
    clippy::indexing_slicing,
    reason = "slot indices come from the interner, adjacency rows are grown at insert_txn, a column entry's row index is kept right at every row insert, and the table and the columns are sized for every slot by `fit`; prop_tsgd + kernel_equivalence pin the invariant against the reference Tsgd."
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
            if self.col_lens.len() <= ss as usize {
                self.col_lens.resize(ss as usize + 1, 0);
            }
            if let Err(i) = self.edges[ts as usize].binary_search_by_key(&site, |e| e.site) {
                self.insert_edge(txn, ts, (site, ss), i);
            }
        }
        ts
    }

    /// Add edge `(txn, site)` at index `i` of the row of `ts`: into the
    /// column by id, into the row, and into the edge table, then shift the
    /// column's other members' words over the new position.
    fn insert_edge(&mut self, txn: GlobalTxnId, ts: u32, (site, ss): (SiteId, u32), i: usize) {
        let len = self.col_lens[ss as usize] as usize + 1;
        self.fit(self.edges[ts as usize].len() + 1, len);
        let base = self.col_base(ss);
        let pos = self.col_ids[base..base + len - 1].partition_point(|&id| id < txn);
        self.cols
            .copy_within(base + pos..base + len - 1, base + pos + 1);
        self.col_ids
            .copy_within(base + pos..base + len - 1, base + pos + 1);
        (self.cols[base + pos], self.col_ids[base + pos]) = ((ts, i as u32), txn);
        self.col_lens[ss as usize] = len as u32;
        let per_col = self.col_stride();
        let row = &mut self.edges[ts as usize];
        row.insert(
            i,
            Edge {
                site,
                ss,
                pos: pos as u32,
                deps: 0,
                preds: 0,
                ran: false,
                acked: false,
                unacked_before: 0,
            },
        );
        // Mid-row insert: the edges above moved up one in the row.
        for (k, e) in row.iter().enumerate().skip(i + 1) {
            self.cols[e.ss as usize * per_col + e.pos as usize].1 = k as u32;
        }
        let row_len = row.len();
        self.lay_record(ts, i, row_len);
        // Mid-column insert: the members above moved up one. The new
        // member has no dependencies at this site yet.
        if pos + 1 < len {
            self.repair_column(ss, pos, true);
        }
    }

    /// The column of site slot `ss` just gained (`opened`) or lost its
    /// member at `at`: every other member's words open or close a hole at
    /// `at`, from word `at / 64` to the column's last (its own position
    /// moves with them), and the members above `at` record their new
    /// positions. Closing it first drops the member's dependency into the
    /// lost one, if any. A member with nothing at or above `at` is left
    /// alone.
    fn repair_column(&mut self, ss: u32, at: usize, opened: bool) {
        let Self {
            edges,
            cols,
            col_lens,
            table,
            desync,
            ..
        } = self;
        let len = col_lens[ss as usize] as usize;
        let (span, stride) = (table.span(), table.stride as usize);
        let base = ss as usize * table.col_stride();
        // The column's last word while it holds the member at `at`.
        let last = if opened { len - 1 } else { len } / 64;
        let (from, to) = (1 + at / 64, 1 + last);
        let bit = 1u64 << (at % 64);
        let low = bit - 1;
        let mut rewritten = 0;
        for (p, &(js, ji)) in cols[base..base + len].iter().enumerate() {
            // The new member is laid out fresh.
            if opened && p == at {
                continue;
            }
            let e = &mut edges[js as usize][ji as usize];
            if p >= at {
                e.pos = p as u32;
            }
            let r = (js as usize * stride + ji as usize) * span;
            let m = &mut table.recs[r + from..=r + to];
            if m[0] & !low == 0 && m[1..].iter().all(|&w| w == 0) {
                continue;
            }
            if opened {
                let mut carry = m[0] >> 63;
                m[0] = (m[0] & low) | ((m[0] & !low) << 1);
                for w in &mut m[1..] {
                    (*w, carry) = ((*w << 1) | carry, *w >> 63);
                }
                debug_assert_eq!(carry, 0, "a shift past the column's end");
            } else {
                if m[0] & bit != 0 {
                    match e.deps.checked_sub(1) {
                        Some(left) => e.deps = left,
                        None => desynced(desync, js),
                    }
                }
                m[0] = (m[0] & low) | ((m[0] >> 1) & !low);
                for k in 1..m.len() {
                    m[k - 1] |= m[k] << 63;
                    m[k] >>= 1;
                }
            }
            rewritten += m.len() as u64;
        }
        self.repair_words += rewritten;
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

    /// Mask words the column repair rewrote, over the TSGD's life: at each
    /// column insert or removal at `p`, the words from `p / 64` to the
    /// column's last of every member that held a position at or above `p`.
    #[inline]
    pub fn repair_words(&self) -> u64 {
        self.repair_words
    }

    /// The column positions of the after set of edge `i` of the row of
    /// `ts`: its record's bits besides its own position.
    fn after_of(&self, ts: u32, i: usize) -> impl Iterator<Item = u32> + '_ {
        let own = self.row(ts).get(i).map_or(u32::MAX, |e| e.pos);
        let r = self.rec_index(ts, i as u32);
        bits(self.table.mask(r)).filter(move |&p| p != own)
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
        let (ss, own) = (e.ss, e.pos);
        let r = self.rec_index(ts, i as u32);
        let col = &self.cols[self.col_base(ss)..][..self.col_lens[ss as usize] as usize];
        for apos in bits(self.table.mask(r)).filter(|&p| p != own) {
            let a = col.get(apos as usize).copied();
            match a.and_then(|(a, ai)| self.edges[a as usize].get_mut(ai as usize)) {
                Some(ae) if ae.unacked_before > 0 => ae.unacked_before -= 1,
                _ => desynced(&self.desync, ts),
            }
        }
        true
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
        for (i, e) in row.iter().enumerate() {
            let r = self.rec_index(ts, i as u32);
            let col = &self.cols[self.col_base(e.ss)..][..self.col_lens[e.ss as usize] as usize];
            for apos in bits(self.table.mask(r)).filter(|&p| p != e.pos) {
                let Some(&(a, ai)) = col.get(apos as usize) else {
                    desynced(&self.desync, ts);
                    continue;
                };
                let Some(ae) = self.edges[a as usize].get_mut(ai as usize) else {
                    desynced(&self.desync, ts);
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
                    desynced(&self.desync, ts);
                }
            }
            let deps = (e.deps + e.preds) as usize;
            match self.dep_count.checked_sub(deps) {
                Some(left) => self.dep_count = left,
                None => desynced(&self.desync, ts),
            }
        }
        self.incoming[ts as usize] = 0;
        self.table.lens[ts as usize] = 0;
        // Edges; release site slots that end up edge-free (the reference
        // drops empty site nodes from `site_txns` the same way).
        for e in &row {
            let (base, len) = (self.col_base(e.ss), self.col_lens[e.ss as usize] as usize);
            let at = base + e.pos as usize;
            debug_assert_eq!(
                (self.col_ids[at], self.cols[at].0),
                (txn, ts),
                "stale position"
            );
            self.cols.copy_within(at + 1..base + len, at);
            self.col_ids.copy_within(at + 1..base + len, at);
            self.col_lens[e.ss as usize] = len as u32 - 1;
            if len == 1 {
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
    /// joins the before-edge's mask words, and both edges count it (an
    /// unacked `before` edge holds `after`'s up).
    pub(crate) fn add_dep_at(&mut self, site: SiteId, before: (u32, u32), after: (u32, u32)) {
        let at_site = |(ts, i): (u32, u32)| {
            let e = self.row(ts).get(i as usize)?;
            (e.site == site).then_some(e.pos)
        };
        match (at_site(before), at_site(after)) {
            (Some(_), Some(apos)) => self.link(before, after, apos),
            _ => debug_assert!(false, "dep on missing edge"),
        }
    }

    /// Set bit `apos` — the position of edge `after` — in the record of
    /// edge `before` at the same site, and, if it was clear, count the new
    /// dependency on both edges and in the totals.
    #[inline]
    fn link(&mut self, (before, bi): (u32, u32), (after, ai): (u32, u32), apos: u32) {
        let r = self.rec_index(before, bi);
        if !self.table.set(r, apos) {
            return;
        }
        let b = &mut self.edges[before as usize][bi as usize];
        b.deps += 1;
        let unacked = u32::from(!b.acked);
        let a = &mut self.edges[after as usize][ai as usize];
        a.preds += 1;
        a.unacked_before += unacked;
        self.incoming[after as usize] += 1;
        self.dep_count += 1;
    }

    /// The Δ the last [`eliminate_cycles_dense_with`] call added, as
    /// paper-level [`Dep`]s (test/inspection only; the TSGD must not have
    /// lost a transaction or a site since that call).
    pub fn delta_set(&self, scratch: &EliminateScratch) -> BTreeSet<Dep> {
        let resolve = |d: &DeltaDep| {
            Some(Dep {
                site: self.sites.key_of(d.ss)?,
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

    /// Column entries per site in the column table.
    #[inline]
    fn col_stride(&self) -> usize {
        self.table.col_stride()
    }

    /// Where site slot `ss`'s column starts in the column table.
    #[inline]
    fn col_base(&self, ss: u32) -> usize {
        ss as usize * self.col_stride()
    }

    /// Edges at the site in `slot` as `(txn slot, index in the txn's
    /// row)`, sorted by transaction id.
    #[inline]
    pub fn txns_col(&self, slot: u32) -> &[(u32, u32)] {
        let len = self.col_lens.get(slot as usize).map_or(0, |&n| n as usize);
        let base = self.col_base(slot);
        self.cols.get(base..base + len).unwrap_or(&[])
    }

    /// The txn ids of [`DenseTsgd::txns_col`].
    fn col_ids(&self, slot: u32) -> &[GlobalTxnId] {
        let len = self.col_lens.get(slot as usize).map_or(0, |&n| n as usize);
        let base = self.col_base(slot);
        self.col_ids.get(base..base + len).unwrap_or(&[])
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
            for (i, e) in self.row(ts).iter().enumerate() {
                let ids = self.col_ids(e.ss);
                for &after in self.after_of(ts, i).filter_map(|p| ids.get(p as usize)) {
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
    /// the same edges; each edge's `preds` counts the other members whose
    /// mask words hold its position, and `unacked_before` those of them
    /// whose edge is not acked; `incoming[t]` sums `preds` over `t`'s
    /// edges; `dep_count` is the sum of `incoming`; and every edge-table
    /// record holds its site slot, its own position, no position past its
    /// column and, besides its own, one bit per dependency out of its edge.
    /// Test/validation grade.
    pub fn edges_consistent(&self) -> bool {
        if !self.table_consistent() {
            return false;
        }
        let mut edges = 0;
        for (txn, ts) in self.txns.iter_sorted() {
            let mut preds = 0;
            for (i, e) in self.row(ts).iter().enumerate() {
                edges += 1;
                preds += e.preds;
                let col = self.txns_col(e.ss);
                let placed = self.sites.key_of(e.ss) == Some(e.site)
                    && col.get(e.pos as usize) == Some(&(ts, i as u32))
                    && self.col_ids(e.ss).get(e.pos as usize) == Some(&txn);
                let (mut into, mut unacked) = (0, 0);
                for &(js, ji) in col {
                    let Some(o) = self.row(js).get(ji as usize).filter(|o| o.ss == e.ss) else {
                        return false;
                    };
                    if (js, ji) != (ts, i as u32) && self.table.holds(self.rec_index(js, ji), e.pos)
                    {
                        into += 1;
                        unacked += u32::from(!o.acked);
                    }
                }
                if !(placed && e.preds == into && e.unacked_before == unacked) {
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
            for (i, e) in self.row(before).iter().enumerate() {
                let col = self.txns_col(e.ss);
                let afters = self.after_of(before, i).filter_map(|p| col.get(p as usize));
                arcs.extend(afters.map(|&(after, _)| (before, after)));
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

/// The walk's edge table, kept beside the rows and the only copy of every
/// edge's after set. Edge `(v, s_u)` has one record: `span` = `1 + words`
/// words from `span · r`, where `r` = `v`'s slot · `stride` + the edge's
/// row index. Word 0 is the head — `s_u`'s slot in the low half, in the
/// high half the stamp of the last call in which a state of `v` scanned
/// `s_u`'s column to its end — and words 1 to `words` are the mask: the
/// column positions of the edge's after set OR its own position. A record
/// is laid out when `insert_txn` adds its edge; `add_dep_at` and the walk's
/// Δ set its bits, the column repair shifts them. A row longer than
/// `stride`, or a column longer than `64 · words` members, re-lays the
/// whole table wider, and the column table with it.
#[derive(Clone, Debug, Default)]
struct EdgeTable {
    recs: Vec<u64>,
    /// Txn slot → its row's length.
    lens: Vec<u32>,
    /// Records per row: the longest row so far.
    stride: u32,
    /// Mask words per record: the most a column has needed.
    words: u32,
    /// Records laid out (at insert, or re-laid on growth) over the table's
    /// life.
    laid: u64,
    /// The last call's stamp (0 before the first call, which no record's
    /// head matches).
    stamp: u32,
}

impl EdgeTable {
    /// Words per record: the head, then the mask.
    #[inline]
    fn span(&self) -> usize {
        self.words as usize + 1
    }

    /// Column entries per site in the column table.
    #[inline]
    fn col_stride(&self) -> usize {
        64 * self.words as usize
    }

    /// The mask words of record `r`.
    fn mask(&self, r: usize) -> &[u64] {
        let span = self.span();
        self.recs.get(r * span + 1..(r + 1) * span).unwrap_or(&[])
    }

    /// True iff position `p` is in record `r`'s mask.
    fn holds(&self, r: usize, p: u32) -> bool {
        self.mask(r)
            .get(p as usize / 64)
            .is_some_and(|w| w & (1 << (p % 64)) != 0)
    }

    /// Position `p` joins record `r`'s mask; true iff it was not there.
    #[inline]
    fn set(&mut self, r: usize, p: u32) -> bool {
        let i = r * self.span() + 1 + p as usize / 64;
        let bit = 1 << (p % 64);
        match self.recs.get_mut(i) {
            Some(w) if *w & bit == 0 => {
                *w |= bit;
                true
            }
            Some(_) | None => false,
        }
    }

    /// A fresh stamp for a call starting now; on wrap-around every record
    /// is un-marked first.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
            let span = self.span();
            self.recs
                .iter_mut()
                .step_by(span)
                .for_each(|head| *head &= u64::from(u32::MAX));
            1
        });
        self.stamp
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "the table holds `stride` records of `span` words for every slot of `edges`, the column table `64 · words` entries for every site slot, and `lens` one entry per slot, from insert_txn on; a row index is below its row's length."
)]
impl DenseTsgd {
    /// Make room for a row of `row_len` edges and a column of `col_len`
    /// members: re-lay the edge table and the column table wider if either
    /// outgrew them, and give every slot its rows and every site its
    /// column.
    fn fit(&mut self, row_len: usize, col_len: usize) {
        let t = &self.table;
        let words = col_len.div_ceil(64) as u32;
        if row_len > t.stride as usize || words > t.words {
            self.relay(t.stride.max(row_len as u32), t.words.max(words));
        }
        let t = &mut self.table;
        let recs = self.edges.len() * t.stride as usize * t.span();
        if t.recs.len() < recs {
            t.recs.resize(recs, 0);
        }
        let cols = self.col_lens.len() * t.col_stride();
        if self.cols.len() < cols {
            self.cols.resize(cols, (0, 0));
            self.col_ids.resize(cols, GlobalTxnId(0));
        }
    }

    /// Copy every record into a table of `stride` records per row and
    /// `words` mask words per record (the new words zero), and every
    /// column into a column table of `64 · words` entries per site.
    fn relay(&mut self, stride: u32, words: u32) {
        let t = &mut self.table;
        let (old_stride, old_span) = (t.stride as usize, t.span());
        let (old_cols, old_words) = (t.col_stride(), t.words);
        (t.stride, t.words) = (stride, words);
        let span = t.span();
        let mut recs = vec![0; self.edges.len() * stride as usize * span];
        for (ts, &len) in t.lens.iter().enumerate() {
            for i in 0..len as usize {
                let (from, to) = (
                    (ts * old_stride + i) * old_span,
                    (ts * stride as usize + i) * span,
                );
                recs[to..to + old_span].copy_from_slice(&t.recs[from..from + old_span]);
            }
            t.laid += u64::from(len);
        }
        t.recs = recs;
        if words != old_words {
            let per_col = t.col_stride();
            let mut cols = vec![(0, 0); self.col_lens.len() * per_col];
            let mut ids = vec![GlobalTxnId(0); cols.len()];
            for (ss, &len) in self.col_lens.iter().enumerate() {
                let (from, to, len) = (ss * old_cols, ss * per_col, len as usize);
                cols[to..to + len].copy_from_slice(&self.cols[from..from + len]);
                ids[to..to + len].copy_from_slice(&self.col_ids[from..from + len]);
            }
            (self.cols, self.col_ids) = (cols, ids);
        }
    }

    /// Lay out the record of edge `i` of the row of `ts`, just inserted;
    /// the row now has `row_len` edges, and the records above `i` move up
    /// one, like the edges.
    fn lay_record(&mut self, ts: u32, i: usize, row_len: usize) {
        let e = &self.edges[ts as usize][i];
        let (ss, pos) = (e.ss, e.pos as usize);
        let t = &mut self.table;
        let span = t.span();
        let row = ts as usize * t.stride as usize;
        let (r, end) = (row + i, row + row_len);
        t.recs
            .copy_within(r * span..(end - 1) * span, (r + 1) * span);
        let rec = &mut t.recs[r * span..(r + 1) * span];
        rec.fill(0);
        rec[0] = u64::from(ss);
        rec[1 + pos / 64] = 1 << (pos % 64);
        t.lens[ts as usize] = row_len as u32;
        t.laid += 1;
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

    /// True iff the edge table and the column table cover every slot and
    /// column, and each live edge's record holds its site slot, its own
    /// position, no position past its column's end and, besides its own,
    /// as many positions as the edge counts dependencies out of it.
    /// Test/validation grade.
    fn table_consistent(&self) -> bool {
        let t = &self.table;
        let stride = t.stride as usize;
        let wide = |(_, ss)| self.txns_col(ss).len() <= t.col_stride();
        t.lens.len() >= self.edges.len()
            && t.recs.len() >= self.edges.len() * stride * t.span()
            && self.col_lens.len() >= self.sites.capacity()
            && self.cols.len() >= self.col_lens.len() * t.col_stride()
            && self.col_ids.len() == self.cols.len()
            && self.sites.iter_sorted().all(wide)
            && self.txns.iter_sorted().all(|(_, ts)| {
                let row = self.row(ts);
                t.lens[ts as usize] as usize == row.len()
                    && row.len() <= stride
                    && row.iter().enumerate().all(|(i, e)| {
                        let r = self.rec_index(ts, i as u32);
                        let len = self.txns_col(e.ss).len() as u32;
                        let mask = t.mask(r);
                        t.recs[r * t.span()] & u64::from(u32::MAX) == u64::from(e.ss)
                            && t.holds(r, e.pos)
                            && bits(mask).all(|p| p < len)
                            && bits(mask).count() == e.deps as usize + 1
                    })
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

/// One Δ dependency `(before, site) → (site, G_i)` of the last call:
/// `before`'s slot and the site's slot.
#[derive(Clone, Copy, Debug)]
struct DeltaDep {
    before: u32,
    ss: u32,
}

/// Reusable scratch for [`eliminate_cycles_dense_with`]: one call's states
/// not yet entered and stamp, the traversal path, the Δ the last call
/// added, and four lifetime counters. Each call re-opens `open` and takes
/// a fresh stamp, so no call reads another's marks on the edge table; the
/// hot loop allocates nothing after warm-up.
#[derive(Clone, Debug, Default)]
pub struct EliminateScratch {
    /// The states not yet entered (the complement of Figure 4's `used`),
    /// one bit per column position, site slot `u`'s words from `u · words`
    /// (the edge table's mask words per record): bit `p` of `u`'s words is
    /// set until state `(u, column[p])` is entered. `G_i`'s bits are never
    /// cleared — the reference never consults `used` for `G_i` — and bits
    /// past a column's end are clear. Position space is stable for the
    /// whole call: the walk writes only the edge table's stamps and mask
    /// bits and the dependency counts, so no column mutates underneath.
    open: Vec<u64>,
    /// This call's stamp on the edge table's heads.
    stamp: u32,
    /// The ancestors of the state being scanned, root first.
    path: Vec<Frame>,
    /// `G_i`'s slot in the last call, and the Δ that call added, in the
    /// reference's order — unique by construction, since a Δ choice sets
    /// `G_i`'s position in the edge's mask.
    gslot: u32,
    delta: Vec<DeltaDep>,
    /// Calls, over every call.
    calls: u64,
    /// States entered below the root, over every call.
    states: u64,
    /// Column scans charged in closed form, over every call.
    scans_elided: u64,
    /// Δ dependencies added, over every call.
    deltas: u64,
}

/// The first position at or after `from` (< `len`) in a column of `len`
/// members that a scan with skip mask `mask` would choose: an open state
/// (`open`, the column's words) the mask does not hold.
#[expect(
    clippy::indexing_slicing,
    reason = "`open` and `mask` each hold at least the column's `len.div_ceil(64)` words: both are laid out at the table's words per column, which fit keeps at or above every column's."
)]
#[inline(always)]
fn first_candidate(open: &[u64], mask: &[u64], len: usize, from: usize) -> Option<usize> {
    if len <= 64 {
        let c = open[0] & !mask[0] & (!0u64 << from);
        return (c != 0).then_some(c.trailing_zeros() as usize);
    }
    let (first, end) = (from / 64, len.div_ceil(64));
    let mut keep = !0u64 << (from % 64);
    for (w, (&o, &m)) in open[first..end].iter().zip(&mask[first..end]).enumerate() {
        let c = o & !m & keep;
        if c != 0 {
            return Some((first + w) * 64 + c.trailing_zeros() as usize);
        }
        keep = !0;
    }
    None
}

#[expect(
    clippy::indexing_slicing,
    reason = "site slots are below the column table's sites, `open` holds `words` words for each of them, records index a row below its length, and scans index a column below its length."
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

    /// Δ dependencies added, over every call made with this scratch.
    pub fn deltas(&self) -> u64 {
        self.deltas
    }

    /// Start a call for `G_i` in slot `gslot`: open every state and take a
    /// fresh stamp.
    fn begin(&mut self, tsgd: &mut DenseTsgd, gslot: u32) {
        let words = tsgd.table.words as usize;
        self.open.clear();
        for &len in &tsgd.col_lens {
            let len = len as usize;
            self.open.extend(std::iter::repeat_n(!0u64, len / 64));
            if !len.is_multiple_of(64) {
                self.open.push((1u64 << (len % 64)) - 1);
            }
            let laid = len.div_ceil(64);
            self.open.extend(std::iter::repeat_n(0, words - laid));
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
    fn enter(&mut self, c: Cand, words: usize) {
        self.states += 1;
        let word = &mut self.open[c.us as usize * words + c.q as usize / 64];
        let bit = 1u64 << (c.q % 64);
        debug_assert!(
            *word & bit != 0,
            "state (site {}, node {}) entered twice",
            c.us,
            c.ws
        );
        *word &= !bit;
    }

    /// Run state `f` from its cursor until it chooses a candidate that
    /// enters a state, or runs out (`None`). A Δ choice is settled here:
    /// `G_i`'s position joins the edge's mask — the new dependency, counted
    /// on both edges — the reference's next trip (one tick plus the
    /// replayed prefix) is added to `ticks` and the scan goes on. A column
    /// that an earlier state of the same node scanned to the end is
    /// charged without a scan; a column this scan finishes is marked so.
    /// Inlined into the walk's one loop: the walk is all control flow.
    #[inline(always)]
    fn scan(&mut self, tsgd: &mut DenseTsgd, f: &mut Frame, ticks: &mut u64) -> Option<Cand> {
        let (span, words) = (tsgd.table.span(), tsgd.table.words as usize);
        let (per_col, stamp, gslot) = (64 * words, self.stamp, self.gslot);
        let (mut r, mut ti, mut charged) = (f.at as usize, f.txn_idx as usize, f.charged);
        let mut chosen = None;
        'row: while r < f.end as usize {
            let rec = r * span;
            let head = tsgd.table.recs[rec];
            let ss = head as u32;
            // `arrived` is the reference's `head(s_par(v))`: not scanned.
            if ss != f.arrived {
                let len = tsgd.col_lens[ss as usize] as usize;
                let open = ss as usize * words;
                if (head >> 32) as u32 == stamp {
                    if ti < len {
                        debug_assert!(
                            first_candidate(
                                &self.open[open..],
                                &tsgd.table.recs[rec + 1..],
                                len,
                                ti
                            )
                            .is_none(),
                            "elided scan of node {} at site slot {ss} has a candidate",
                            f.v
                        );
                        self.scans_elided += 1;
                        charged += (len - ti) as u64;
                    }
                } else {
                    // A Δ choice at `q` sets `q` in the mask this scan
                    // reads, but the scan has passed it.
                    while ti < len {
                        let mask = &tsgd.table.recs[rec + 1..rec + span];
                        let Some(q) = first_candidate(&self.open[open..], mask, len, ti) else {
                            charged += (len - ti) as u64;
                            break;
                        };
                        charged += (q - ti) as u64 + 1;
                        ti = q + 1;
                        let (ws, wi) = tsgd.cols[ss as usize * per_col + q];
                        if ws != gslot {
                            chosen = Some(Cand {
                                us: ss,
                                q: q as u32,
                                ws,
                            });
                            break 'row;
                        }
                        // Cycle found: pin `v` before `G_i` at the site.
                        let vi = r - tsgd.rec_index(f.v, 0);
                        tsgd.link((f.v, vi as u32), (ws, wi), q as u32);
                        self.delta.push(DeltaDep { before: f.v, ss });
                        *ticks += 1 + charged;
                    }
                    tsgd.table.recs[rec] = u64::from(ss) | u64::from(stamp) << 32;
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
/// [`crate::reference::tsgd::eliminate_cycles`] — adjacency is id-sorted,
/// so the traversal examines candidates in the reference order — at a
/// machine cost of about one column scan per state. Unlike the reference,
/// it **adds** Δ to the TSGD: each Δ choice sets `G_i`'s bit in the
/// before-edge's mask, where it is the dependency, and counts it on both
/// edges, in `incoming` and in `dep_count` — exactly what folding the
/// reference's Δ in with `add_dep` does. [`DenseTsgd::delta_set`] resolves
/// the last call's Δ to [`Dep`]s. Besides Δ and the per-call stamps the
/// TSGD leaves the call as it came.
///
/// The walk reads the TSGD's edge table: one record per TSG edge (site
/// slot, skip mask = the after set OR the edge's own column position),
/// laid out when the edge was inserted, so a scan reads one record and
/// ANDs its mask into the not-yet-entered states. Within one call whether
/// node `v` skips the candidate at a column position never depends on the
/// state `v` was entered through, and once true stays true: `w == v` is
/// fixed, after sets only gain the call's Δ, the set of not-yet-entered
/// states only shrinks, and `G_i`'s position is in `v`'s mask at a site
/// once `v` took it as Δ there. A chosen candidate is skipped from then on
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
///
/// Δ and the states entered do not depend on the order of the walk: a
/// state `(u, w)` is entered iff it is reachable from `G_i` over
/// candidates — a closure — and Δ holds `(s, v) → (s, G_i)` for each
/// reachable `v` with a candidate `G_i` at a site `s` it did not arrive
/// through. Only the step charge needs the depth-first order.
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
    let words = tsgd.table.words as usize;
    // Every trip of the reference loop costs one tick plus the candidates
    // it examines; they are summed here and charged in one `bump`.
    let mut cur = EliminateScratch::frame(tsgd, gslot, NONE);
    let mut ticks = 1;
    loop {
        if let Some(c) = scratch.scan(tsgd, &mut cur, &mut ticks) {
            // Descend: the child's first trip.
            scratch.enter(c, words);
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
        assert!(!reference.has_cycle_involving(g(5), &delta_ref));
        // The dense call added its Δ: the graphs agree once the reference
        // adds it too.
        for d in delta_ref {
            reference.add_dep(d);
        }
        assert_mirrors(&dense, &reference);
        assert!(dense.edges_consistent());
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
        // between them: no call may read another's marks, and Δ and the
        // charges must equal the reference's every time, each call's Δ
        // added to both graphs before the next.
        dense.table.stamp = u32::MAX - 1;
        for target in [5u64, 1, 4, 5] {
            let mut steps_ref = StepCounter::new();
            let mut steps_cur = StepCounter::new();
            let delta_ref = eliminate_cycles(&reference, g(target), &mut steps_ref);
            eliminate_cycles_dense_with(&mut dense, g(target), &mut steps_cur, &mut scratch);
            let delta_cur = dense.delta_set(&scratch);
            assert_eq!(delta_ref, delta_cur, "Δ diverged for G{target}");
            assert_eq!(steps_ref, steps_cur, "steps diverged for G{target}");
            for d in delta_ref {
                reference.add_dep(d);
            }
            assert_mirrors(&dense, &reference);
            assert!(dense.edges_consistent(), "an edge record went stale");
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
