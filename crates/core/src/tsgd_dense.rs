//! Slot-indexed TSGD for the dense Scheme 2 kernel.
//!
//! [`DenseTsgd`] is semantically the same structure as [`crate::tsgd::Tsgd`]
//! — transaction/site nodes, undirected edges, dependencies between edges at
//! a common site — but stored over compact `u32` slots handed out by
//! [`DenseInterner`]s, so the per-operation hot path touches vectors and
//! bitsets instead of `BTreeMap`s and allocates nothing:
//!
//! - adjacency is kept as **id-sorted** vectors of `(id, slot)` pairs, so
//!   every traversal visits neighbours in exactly the order the reference
//!   `BTreeMap` kernels do — step counts that depend on traversal order
//!   (notably [`eliminate_cycles_dense_with`]) stay byte-identical;
//! - dependencies into a transaction are per-site [`DenseBitSet`]s of
//!   *before* slots, so Scheme 2's `cond(ser)` predecessor count is a
//!   popcount and `cond(fin)`'s "no incoming dependency" test is an O(1)
//!   counter read instead of a scan of the whole dependency set;
//! - `Eliminate_Cycles` keeps a per-`(node, arrival-site)` `ScanCursor` and
//!   reads each column's blocked set from a **column-position** mirror of
//!   the dependencies (`deps_out`), so a revisit costs O(1) and a column
//!   scan is a word-parallel find-first-clear.
//!
//! Nothing here answers a scheduling question that the reference does not:
//! `cond` reads `preds_at` / `incoming_deps` / `dep_count`, `act` calls
//! `insert_txn` / `add_dep` / `remove_txn` and [`eliminate_cycles_dense_with`],
//! which charges `steps` tick-for-tick like [`crate::tsgd::eliminate_cycles`]
//! (Figure 4). The Theorem 5 invariants are *checked*, not maintained:
//! [`DenseTsgd::has_cycle_involving_oracle`] (a direct port of
//! [`crate::tsgd::Tsgd::has_cycle_involving`], exponential) and
//! [`DenseTsgd::deps_acyclic`] (a topological sort of the dependency rows) are
//! validation grade and run only from `debug_validate` and tests.

use crate::tsgd::Dep;
use mdbs_common::dense::{DenseBitSet, DenseInterner};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::step::{StepCounter, StepKind};
use mdbs_schedule::lex_topo_order;
use std::cell::Cell;
use std::collections::BTreeSet;

/// The TSGD over dense slots. See the module docs for the storage scheme.
#[derive(Clone, Debug, Default)]
pub struct DenseTsgd {
    txns: DenseInterner<GlobalTxnId>,
    sites: DenseInterner<SiteId>,
    /// Txn slot → edges as `(site id, site slot)`, sorted by site id.
    txn_sites: Vec<Vec<(SiteId, u32)>>,
    /// Site slot → edges as `(txn id, txn slot)`, sorted by txn id.
    site_txns: Vec<Vec<(GlobalTxnId, u32)>>,
    /// After-txn slot → `(site slot, before-txn slots)`, sorted by site slot.
    deps_in: Vec<Vec<(u32, DenseBitSet)>>,
    /// Before-txn slot → `(site slot, after-txn **column positions**)`
    /// mirror, sorted by site slot. Bits index positions in the site's
    /// id-ordered `site_txns` column — the exact order `Eliminate_Cycles`
    /// scans — so one column's blocked set ORs word-wise into the scan's
    /// skip mask. Column insertions/removals repair every member's bitset
    /// with an O(words) hole shift (see `DenseBitSet::shift_up_from`).
    deps_out: Vec<Vec<(u32, DenseBitSet)>>,
    /// After-txn slot → number of incoming dependencies (O(1) `cond(fin)`).
    incoming: Vec<u32>,
    dep_count: usize,
    /// Checked-decrement failures in [`DenseTsgd::remove_txn`] — a desynced
    /// dependency bitset is counted here (and surfaced by the kernel as a
    /// protocol violation) instead of panicking in the scheduler.
    desync: Cell<u64>,
}

// mdbs-lint: allow(no-panic-in-scheduler, scope=item) — slot indices come from the interner and adjacency rows are grown at insert_txn; prop_tsgd + kernel_equivalence pin the invariant against the reference Tsgd.
impl DenseTsgd {
    /// Empty TSGD.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_txn_rows(&mut self, slot: u32) {
        let n = slot as usize + 1;
        if self.txn_sites.len() < n {
            self.txn_sites.resize_with(n, Vec::new);
            self.deps_in.resize_with(n, Vec::new);
            self.deps_out.resize_with(n, Vec::new);
            self.incoming.resize(n, 0);
        }
    }

    /// Insert transaction `txn` with edges to `sites` (idempotent-merging,
    /// like the reference). Returns the transaction's slot.
    pub fn insert_txn(&mut self, txn: GlobalTxnId, sites: &[SiteId]) -> u32 {
        let ts = self.txns.intern(txn);
        self.ensure_txn_rows(ts);
        for &site in sites {
            let ss = self.sites.intern(site);
            if self.site_txns.len() <= ss as usize {
                self.site_txns.resize_with(ss as usize + 1, Vec::new);
            }
            let row = &mut self.txn_sites[ts as usize];
            if let Err(pos) = row.binary_search_by_key(&site, |e| e.0) {
                row.insert(pos, (site, ss));
                let inserted_at = {
                    let col = &mut self.site_txns[ss as usize];
                    match col.binary_search_by_key(&txn, |e| e.0) {
                        Err(cpos) => {
                            col.insert(cpos, (txn, ts));
                            (cpos + 1 < col.len()).then_some(cpos)
                        }
                        Ok(_) => None,
                    }
                };
                // The column gained an entry at `cpos`: open a hole in
                // every member's position-space dependency bitset. The new
                // member has no dependencies at this site yet.
                if let Some(cpos) = inserted_at {
                    let Self {
                        site_txns,
                        deps_out,
                        ..
                    } = &mut *self;
                    for &(_, js) in &site_txns[ss as usize] {
                        if js == ts {
                            continue;
                        }
                        let orow = &mut deps_out[js as usize];
                        if let Ok(p) = orow.binary_search_by_key(&ss, |e| e.0) {
                            orow[p].1.shift_up_from(cpos as u32);
                        }
                    }
                }
            }
        }
        ts
    }

    /// Remove a transaction, its edges, and all dependencies touching it;
    /// releases its slot (and the slot of any site left with no edges).
    pub fn remove_txn(&mut self, txn: GlobalTxnId) {
        let Some(ts) = self.txns.slot_of(&txn) else {
            return;
        };
        // Outgoing dependencies: clear our bit in each target's inbound set.
        // Decrements are checked — a desynced bitset is counted, not a
        // scheduler panic (the debug assert pins the invariant in tests).
        let mut out = std::mem::take(&mut self.deps_out[ts as usize]);
        for (ss, afters) in &out {
            for apos in afters.iter() {
                // Columns are still intact here, so the stored position
                // resolves to the after-transaction's slot.
                let after = match self.site_txns[*ss as usize].get(apos as usize) {
                    Some(&(_, a)) => a,
                    None => {
                        debug_assert!(false, "dependency accounting desynced removing {txn}");
                        self.desync.set(self.desync.get() + 1);
                        continue;
                    }
                };
                let entry = self.deps_in[after as usize].iter_mut().find(|e| e.0 == *ss);
                if let Some(entry) = entry {
                    if entry.1.remove(ts) {
                        if self.incoming[after as usize] == 0 || self.dep_count == 0 {
                            debug_assert!(false, "dependency accounting desynced removing {txn}");
                            self.desync.set(self.desync.get() + 1);
                        } else {
                            self.incoming[after as usize] -= 1;
                            self.dep_count -= 1;
                        }
                    }
                }
            }
        }
        out.clear();
        self.deps_out[ts as usize] = out;
        // Incoming dependencies: drop our column position from each
        // source's mirror entry.
        let mut inrows = std::mem::take(&mut self.deps_in[ts as usize]);
        for (ss, befs) in &inrows {
            let tpos = self.site_txns[*ss as usize]
                .binary_search_by_key(&txn, |e| e.0)
                .ok();
            for b in befs.iter() {
                let row = &mut self.deps_out[b as usize];
                if let (Some(tpos), Ok(pos)) = (tpos, row.binary_search_by_key(ss, |e| e.0)) {
                    if row[pos].1.remove(tpos as u32) && row[pos].1.is_empty() {
                        row.remove(pos);
                    }
                }
                if self.dep_count == 0 {
                    debug_assert!(false, "dependency accounting desynced removing {txn}");
                    self.desync.set(self.desync.get() + 1);
                } else {
                    self.dep_count -= 1;
                }
            }
        }
        self.incoming[ts as usize] = 0;
        inrows.clear();
        self.deps_in[ts as usize] = inrows;
        // Edges; release site slots that end up edge-free (the reference
        // drops empty site nodes from `site_txns` the same way). Every
        // dependency touching `txn` is gone, so no member bitset holds the
        // vacated position and the hole can be shifted closed.
        let mut rows = std::mem::take(&mut self.txn_sites[ts as usize]);
        for &(site, ss) in &rows {
            let removed_at = {
                let col = &mut self.site_txns[ss as usize];
                match col.binary_search_by_key(&txn, |e| e.0) {
                    Ok(pos) => {
                        col.remove(pos);
                        (pos < col.len()).then_some(pos)
                    }
                    Err(_) => None,
                }
            };
            if let Some(pos) = removed_at {
                let Self {
                    site_txns,
                    deps_out,
                    ..
                } = &mut *self;
                for &(_, js) in &site_txns[ss as usize] {
                    let orow = &mut deps_out[js as usize];
                    if let Ok(p) = orow.binary_search_by_key(&ss, |e| e.0) {
                        orow[p].1.shift_down_from(pos as u32);
                    }
                }
            }
            if self.site_txns[ss as usize].is_empty() {
                self.sites.release(&site);
            }
        }
        rows.clear();
        self.txn_sites[ts as usize] = rows;
        self.txns.release(&txn);
    }

    /// Add a dependency. Debug-asserts both edges exist (like the
    /// reference); silently skips if an endpoint has no live slot, which can
    /// only happen on protocol-violating inputs.
    pub fn add_dep(&mut self, dep: Dep) {
        debug_assert!(self.has_edge(dep.before, dep.site), "dep on missing edge");
        debug_assert!(self.has_edge(dep.after, dep.site), "dep on missing edge");
        let (Some(ss), Some(bs), Some(asl)) = (
            self.sites.slot_of(&dep.site),
            self.txns.slot_of(&dep.before),
            self.txns.slot_of(&dep.after),
        ) else {
            return;
        };
        // The mirror stores the after-txn's *column position*; both debug
        // asserts above passed, so the column contains it.
        let Ok(apos) = self.site_txns[ss as usize].binary_search_by_key(&dep.after, |e| e.0) else {
            return;
        };
        let row = &mut self.deps_in[asl as usize];
        let pos = match row.binary_search_by_key(&ss, |e| e.0) {
            Ok(p) => p,
            Err(p) => {
                row.insert(p, (ss, DenseBitSet::new()));
                p
            }
        };
        if row[pos].1.insert(bs) {
            self.incoming[asl as usize] += 1;
            self.dep_count += 1;
            let orow = &mut self.deps_out[bs as usize];
            match orow.binary_search_by_key(&ss, |e| e.0) {
                Ok(p) => {
                    orow[p].1.insert(apos as u32);
                }
                Err(p) => {
                    let mut bits = DenseBitSet::new();
                    bits.insert(apos as u32);
                    orow.insert(p, (ss, bits));
                }
            }
        }
    }

    /// True iff the dependency is present.
    pub fn has_dep(&self, site: SiteId, before: GlobalTxnId, after: GlobalTxnId) -> bool {
        let (Some(ss), Some(bs), Some(asl)) = (
            self.sites.slot_of(&site),
            self.txns.slot_of(&before),
            self.txns.slot_of(&after),
        ) else {
            return false;
        };
        self.has_dep_slots(ss, bs, asl)
    }

    /// *Column positions* of the after-txns of dependencies
    /// `(site, before → ·)`: the blocked set of one `Eliminate_Cycles` scan
    /// column in the column's own index space, resolved with a single
    /// binary search so the scan skips whole words at a time.
    #[inline]
    fn deps_after_at(&self, before: u32, site: u32) -> Option<&DenseBitSet> {
        let row = &self.deps_out[before as usize];
        row.binary_search_by_key(&site, |e| e.0)
            .ok()
            .map(|p| &row[p].1)
    }

    /// Visit the slot of every after-txn of `before`'s outgoing
    /// dependencies, translating stored column positions back to slots.
    fn for_each_after(&self, before: u32, mut f: impl FnMut(u32)) {
        for (ss, afters) in &self.deps_out[before as usize] {
            let col = &self.site_txns[*ss as usize];
            for apos in afters.iter() {
                if let Some(&(_, a)) = col.get(apos as usize) {
                    f(a);
                }
            }
        }
    }

    #[inline]
    fn has_dep_slots(&self, site: u32, before: u32, after: u32) -> bool {
        self.deps_in[after as usize]
            .binary_search_by_key(&site, |e| e.0)
            .is_ok_and(|p| self.deps_in[after as usize][p].1.contains(before))
    }

    /// True iff edge `(txn, site)` exists.
    pub fn has_edge(&self, txn: GlobalTxnId, site: SiteId) -> bool {
        self.txns.slot_of(&txn).is_some_and(|ts| {
            self.txn_sites[ts as usize]
                .binary_search_by_key(&site, |e| e.0)
                .is_ok()
        })
    }

    /// True iff the transaction node exists.
    pub fn contains_txn(&self, txn: GlobalTxnId) -> bool {
        self.txns.contains(&txn)
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

    /// Transaction occupying `slot`.
    #[inline]
    pub fn txn_at_slot(&self, slot: u32) -> Option<GlobalTxnId> {
        self.txns.key_of(slot)
    }

    /// Site occupying `slot`.
    #[inline]
    pub fn site_at_slot(&self, slot: u32) -> Option<SiteId> {
        self.sites.key_of(slot)
    }

    /// Edges of the transaction in `slot`, sorted by site id.
    #[inline]
    pub fn sites_row(&self, slot: u32) -> &[(SiteId, u32)] {
        self.txn_sites
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

    /// Sites of a transaction, in site-id order.
    pub fn sites_of(&self, txn: GlobalTxnId) -> impl Iterator<Item = SiteId> + '_ {
        self.txns
            .slot_of(&txn)
            .into_iter()
            .flat_map(|ts| self.sites_row(ts).iter().map(|e| e.0))
    }

    /// Transactions at a site, in txn-id order.
    pub fn txns_at(&self, site: SiteId) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.sites
            .slot_of(&site)
            .into_iter()
            .flat_map(|ss| self.txns_col(ss).iter().map(|e| e.0))
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

    /// Highest transaction slot count ever in use — the bound callers use
    /// to size their own txn-slot-indexed side tables.
    #[inline]
    pub fn txn_capacity(&self) -> usize {
        self.txns.capacity()
    }

    /// Highest site slot count ever in use (bound for site-slot-indexed
    /// side tables, e.g. [`EliminateScratch`]).
    #[inline]
    pub fn site_capacity(&self) -> usize {
        self.sites.capacity()
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

    /// Before-slots of dependencies `(·, site) → (site, txn)`, if any are
    /// recorded. Cardinality is the reference `dep_preds(txn, site).len()`.
    pub fn preds_at(&self, txn: GlobalTxnId, site: SiteId) -> Option<&DenseBitSet> {
        let (Some(ts), Some(ss)) = (self.txns.slot_of(&txn), self.sites.slot_of(&site)) else {
            return None;
        };
        self.deps_in[ts as usize]
            .binary_search_by_key(&ss, |e| e.0)
            .ok()
            .map(|p| &self.deps_in[ts as usize][p].1)
    }

    /// The dependency set as paper-level [`Dep`]s (test/inspection only).
    pub fn deps_set(&self) -> BTreeSet<Dep> {
        let mut out = BTreeSet::new();
        for (before, row) in self.deps_out.iter().enumerate() {
            for (ss, afters) in row {
                for apos in afters.iter() {
                    let Some(&(after, _)) = self
                        .site_txns
                        .get(*ss as usize)
                        .and_then(|c| c.get(apos as usize))
                    else {
                        continue;
                    };
                    if let (Some(site), Some(b)) =
                        (self.sites.key_of(*ss), self.txns.key_of(before as u32))
                    {
                        out.insert(Dep {
                            site,
                            before: b,
                            after,
                        });
                    }
                }
            }
        }
        out
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
    /// the `deps_out` mirror. Test/validation grade — no `cond`/`act` asks,
    /// because a dependency cycle implies a TSGD cycle that
    /// `Eliminate_Cycles` already broke.
    pub fn deps_acyclic(&self) -> bool {
        let slots: Vec<u32> = self.txns.iter_sorted().map(|(_, slot)| slot).collect();
        let mut arcs = Vec::new();
        for &before in &slots {
            self.for_each_after(before, |after| arcs.push((before, after)));
        }
        lex_topo_order(slots, arcs).is_some()
    }

    fn extra_slots(&self, extra: &BTreeSet<Dep>) -> BTreeSet<(u32, u32, u32)> {
        extra
            .iter()
            .filter_map(|d| {
                Some((
                    self.sites.slot_of(&d.site)?,
                    self.txns.slot_of(&d.before)?,
                    self.txns.slot_of(&d.after)?,
                ))
            })
            .collect()
    }

    /// Exponential DFS oracle — a direct port of
    /// [`crate::tsgd::Tsgd::has_cycle_involving`] onto the dense storage,
    /// visiting neighbours in the same id order. Test/validation grade.
    pub fn has_cycle_involving_oracle(&self, start: GlobalTxnId, extra: &BTreeSet<Dep>) -> bool {
        let Some(start_slot) = self.txns.slot_of(&start) else {
            return false;
        };
        let extra = self.extra_slots(extra);
        let mut seen_txns = BTreeSet::from([start_slot]);
        let mut seen_sites = BTreeSet::new();
        self.oracle_dfs(
            start_slot,
            start_slot,
            &extra,
            &mut seen_txns,
            &mut seen_sites,
            0,
        )
    }

    fn oracle_dfs(
        &self,
        start: u32,
        at: u32,
        extra: &BTreeSet<(u32, u32, u32)>,
        seen_txns: &mut BTreeSet<u32>,
        seen_sites: &mut BTreeSet<u32>,
        depth: usize,
    ) -> bool {
        for &(_, site) in self.sites_row(at) {
            if seen_sites.contains(&site) {
                continue;
            }
            for &(_, next) in self.txns_col(site) {
                if next == at {
                    continue;
                }
                if self.has_dep_slots(site, at, next) || extra.contains(&(site, at, next)) {
                    continue;
                }
                if next == start {
                    if depth >= 1 {
                        return true;
                    }
                    continue;
                }
                if seen_txns.contains(&next) {
                    continue;
                }
                seen_txns.insert(next);
                seen_sites.insert(site);
                if self.oracle_dfs(start, next, extra, seen_txns, seen_sites, depth + 1) {
                    return true;
                }
                seen_sites.remove(&site);
                seen_txns.remove(&next);
            }
        }
        false
    }

    /// True iff any cycle exists, by the exponential oracle.
    pub fn has_any_cycle_oracle(&self) -> bool {
        let none = BTreeSet::new();
        self.txns()
            .collect::<Vec<_>>()
            .into_iter()
            .any(|t| self.has_cycle_involving_oracle(t, &none))
    }
}

/// Per-visit scan position for one `(node, arrival-site)` state of the
/// Figure 4 traversal: the next candidate to examine and the abstract ticks
/// already charged for the (permanently skipped) prefix before it.
#[derive(Clone, Copy, Debug, Default)]
struct ScanCursor {
    site_idx: u32,
    txn_idx: u32,
    charged: u64,
}

/// Reusable scratch for [`eliminate_cycles_dense_with`]: the traversal's
/// `used`/Δ sets, parent stacks, and scan cursors, all slot-indexed and
/// epoch-stamped so a new call costs O(1) to "clear" and the hot loop
/// allocates nothing after warm-up.
#[derive(Clone, Debug, Default)]
pub struct EliminateScratch {
    epoch: u64,
    /// Site slot → *column positions* of successors already used (`used`
    /// set of Figure 4). Position space is stable for the whole call: the
    /// TSGD is borrowed shared, so no column mutates underneath.
    used: Vec<(u64, DenseBitSet)>,
    /// Site slot → `before` slots with a Δ-dependency into `gi`.
    delta_sites: Vec<(u64, DenseBitSet)>,
    /// Txn slot → arrival-site stack (reference `s_par`, back = newest).
    s_par: Vec<(u64, Vec<u32>)>,
    /// Txn slot → parent-txn stack (reference `t_par`, back = newest).
    t_par: Vec<(u64, Vec<u32>)>,
    /// Txn slot → cursors keyed by arrival site (`u32::MAX` = none).
    cursors: Vec<(u64, Vec<(u32, ScanCursor)>)>,
}

impl EliminateScratch {
    /// Fresh scratch (grows lazily to the TSGD's slot capacities).
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, txn_cap: usize, site_cap: usize) {
        self.epoch += 1;
        if self.used.len() < site_cap {
            self.used.resize_with(site_cap, Default::default);
            self.delta_sites.resize_with(site_cap, Default::default);
        }
        if self.s_par.len() < txn_cap {
            self.s_par.resize_with(txn_cap, Default::default);
            self.t_par.resize_with(txn_cap, Default::default);
            self.cursors.resize_with(txn_cap, Default::default);
        }
    }
}

// mdbs-lint: allow(no-panic-in-scheduler, scope=item) — callers index with slots below the capacities EliminateScratch::begin sized the rows to.
#[inline]
fn stamp_bitset(vec: &mut [(u64, DenseBitSet)], idx: u32, epoch: u64) -> &mut DenseBitSet {
    let e = &mut vec[idx as usize];
    if e.0 != epoch {
        e.0 = epoch;
        e.1.clear();
    }
    &mut e.1
}

// mdbs-lint: allow(no-panic-in-scheduler, scope=item) — callers index with slots below the capacities EliminateScratch::begin sized the rows to.
#[inline]
fn stamp_list(vec: &mut [(u64, Vec<u32>)], idx: u32, epoch: u64) -> &mut Vec<u32> {
    let e = &mut vec[idx as usize];
    if e.0 != epoch {
        e.0 = epoch;
        e.1.clear();
    }
    &mut e.1
}

// mdbs-lint: allow(no-panic-in-scheduler, scope=item) — callers index with slots below the capacities EliminateScratch::begin sized the rows to.
#[inline]
fn stamped_bit(vec: &[(u64, DenseBitSet)], idx: u32, bit: u32, epoch: u64) -> bool {
    let e = &vec[idx as usize];
    e.0 == epoch && e.1.contains(bit)
}

/// Cursor-amortized Figure 4 (`Eliminate_Cycles`) over the dense storage:
/// same Δ and **identical step charges** as the reference
/// [`crate::tsgd::eliminate_cycles`] — adjacency vectors are id-sorted, so
/// the traversal examines candidate edges in the reference order — but the
/// *machine* cost of a revisit is O(1) instead of a rescan.
///
/// Within one call every skip condition of the candidate scan is monotone —
/// `ws == v` is fixed, `used` and the Δ set only grow, and the dependency
/// set cannot change through the shared borrow — and a chosen candidate
/// becomes skippable immediately after its choice (it enters `used`, or the
/// Δ set when `ws = gi`). So when the walk re-enters a `(node,
/// arrival-site)` state, the reference scan would re-examine a prefix of
/// permanently skipped candidates, charging one tick each and skipping the
/// arrival-site column without ticks: a per-state [`ScanCursor`] replays
/// that prefix as a single `bump(charged)` and resumes the scan at the
/// first never-examined candidate. Totals stay bit-for-bit equal while the
/// machine work collapses to the number of *distinct* candidate
/// examinations.
// mdbs-lint: allow(no-panic-in-scheduler, scope=item) — slot indices come from the interner and scratch rows are sized from the TSGD capacities in begin(); kernel_equivalence pins parity against the reference Tsgd.
pub fn eliminate_cycles_dense_with(
    tsgd: &DenseTsgd,
    gi: GlobalTxnId,
    steps: &mut StepCounter,
    scratch: &mut EliminateScratch,
) -> BTreeSet<Dep> {
    let mut delta: BTreeSet<Dep> = BTreeSet::new();
    let Some(gslot) = tsgd.txn_slot(gi) else {
        // Reference behaviour for an absent gi: one outer tick, empty Δ.
        steps.tick(StepKind::Act);
        return delta;
    };
    scratch.begin(tsgd.txn_capacity(), tsgd.site_capacity());
    let epoch = scratch.epoch;
    let mut v = gslot;

    loop {
        steps.tick(StepKind::Act);
        // Most recent arrival site of `v` (`u32::MAX` when none) — the
        // reference's `s_par.get(&v).first()`.
        let arrived = match scratch.s_par.get(v as usize) {
            Some((e, list)) if *e == epoch => list.last().copied().unwrap_or(u32::MAX),
            _ => u32::MAX,
        };
        let cur_idx;
        let mut cur;
        {
            let ent = &mut scratch.cursors[v as usize];
            if ent.0 != epoch {
                ent.0 = epoch;
                ent.1.clear();
            }
            cur_idx = match ent.1.iter().position(|c| c.0 == arrived) {
                Some(i) => i,
                None => {
                    ent.1.push((arrived, ScanCursor::default()));
                    ent.1.len() - 1
                }
            };
            cur = ent.1[cur_idx].1;
        }
        // Replay the permanently-skipped prefix in O(1).
        steps.bump(StepKind::Act, cur.charged);
        let row = tsgd.sites_row(v);
        let v_id = tsgd.txn_at_slot(v).expect("live txn slot");
        let mut si = cur.site_idx as usize;
        let mut ti = cur.txn_idx as usize;
        let mut chosen: Option<(u32, u32, u32)> = None;
        // Ticks for this scan segment, bumped in one O(1) call at the end
        // (arithmetically identical to the reference's per-candidate tick).
        let mut seen = 0u64;
        // Each skip condition of the per-candidate scan is a bit in the
        // column's position space — `used` and the blocked set are stored
        // that way, `ws == v` and the Δ test pin one position each — so a
        // column scan is a word-parallel find-first-clear over the OR of
        // the skip masks, with ticks recovered from position arithmetic.
        'search: while si < row.len() {
            let us = row[si].1;
            if us == arrived {
                si += 1;
                ti = 0;
                continue;
            }
            let col = tsgd.txns_col(us);
            let col_len = col.len();
            if ti >= col_len {
                si += 1;
                ti = 0;
                continue;
            }
            let blocked = tsgd.deps_after_at(v, us).map_or(&[][..], |b| b.as_words());
            let used = match &scratch.used[us as usize] {
                (e, b) if *e == epoch => b.as_words(),
                _ => &[][..],
            };
            // `v` is always a member of its own site's column; a failed
            // lookup leaves the bit unset, matching the reference (which
            // would then simply never see `ws == v`).
            let posv = col
                .binary_search_by_key(&v_id, |e| e.0)
                .unwrap_or(usize::MAX);
            let gpos = col.binary_search_by_key(&gi, |e| e.0).ok();
            let delta_blocked = gpos.is_some() && stamped_bit(&scratch.delta_sites, us, v, epoch);
            let first_w = ti / 64;
            let last_w = (col_len - 1) / 64;
            let mut found = None;
            let mut w = first_w;
            while w <= last_w {
                let used_w = used.get(w).copied().unwrap_or(0);
                let blocked_w = blocked.get(w).copied().unwrap_or(0);
                // `used` never skips the gi candidate; the Δ test only
                // applies to it; `blocked` applies to everyone.
                let mut skip = match gpos {
                    Some(g) if g / 64 == w => {
                        let gbit = 1u64 << (g % 64);
                        (used_w & !gbit) | blocked_w | if delta_blocked { gbit } else { 0 }
                    }
                    _ => used_w | blocked_w,
                };
                if posv / 64 == w {
                    skip |= 1u64 << (posv % 64);
                }
                let mut cand = !skip;
                if w == first_w {
                    cand &= !0u64 << (ti % 64);
                }
                if w == last_w && !col_len.is_multiple_of(64) {
                    cand &= (1u64 << (col_len % 64)) - 1;
                }
                if cand != 0 {
                    found = Some(w * 64 + cand.trailing_zeros() as usize);
                    break;
                }
                w += 1;
            }
            match found {
                Some(q) => {
                    seen += (q - ti) as u64 + 1;
                    ti = q + 1;
                    chosen = Some((us, q as u32, col[q].1));
                    break 'search;
                }
                None => {
                    seen += (col_len - ti) as u64;
                    si += 1;
                    ti = 0;
                }
            }
        }
        steps.bump(StepKind::Act, seen);
        cur.charged += seen;
        cur.site_idx = si as u32;
        cur.txn_idx = ti as u32;
        scratch.cursors[v as usize].1[cur_idx].1 = cur;
        match chosen {
            Some((us, q, ws)) => {
                stamp_bitset(&mut scratch.used, us, epoch).insert(q);
                if ws == gslot {
                    stamp_bitset(&mut scratch.delta_sites, us, epoch).insert(v);
                    // mdbs-lint: allow(no-panic-in-scheduler) — slots on the current traversal path are live by construction.
                    let site = tsgd.site_at_slot(us).expect("live site slot");
                    // mdbs-lint: allow(no-panic-in-scheduler) — v is a live node on the traversal path.
                    let before = tsgd.txn_at_slot(v).expect("live txn slot");
                    delta.insert(Dep {
                        site,
                        before,
                        after: gi,
                    });
                } else {
                    stamp_list(&mut scratch.s_par, ws, epoch).push(us);
                    stamp_list(&mut scratch.t_par, ws, epoch).push(v);
                    v = ws;
                }
            }
            None => {
                if v == gslot {
                    break;
                }
                let temp = stamp_list(&mut scratch.t_par, v, epoch)
                    .pop()
                    .expect("visited node has parents");
                stamp_list(&mut scratch.s_par, v, epoch)
                    .pop()
                    .expect("parents in sync");
                v = temp;
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsgd::{eliminate_cycles, Tsgd};

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    fn dep(k: u32, a: u64, b: u64) -> Dep {
        Dep {
            site: s(k),
            before: g(a),
            after: g(b),
        }
    }

    fn two_txn_cycle() -> DenseTsgd {
        let mut t = DenseTsgd::new();
        t.insert_txn(g(1), &[s(0), s(1)]);
        t.insert_txn(g(2), &[s(0), s(1)]);
        t
    }

    #[test]
    fn undetermined_orders_cycle() {
        let t = two_txn_cycle();
        assert!(t.has_cycle_involving_oracle(g(1), &BTreeSet::new()));
        assert!(t.has_cycle_involving_oracle(g(2), &BTreeSet::new()));
        assert!(t.has_any_cycle_oracle());
    }

    #[test]
    fn consistent_dependencies_break_cycle() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        t.add_dep(dep(1, 1, 2));
        assert!(!t.has_any_cycle_oracle());
        assert!(t.deps_acyclic());
        assert_eq!(t.dep_count(), 2);
        assert_eq!(t.incoming_deps(g(2)), 2);
        assert_eq!(t.preds_at(g(2), s(0)).map(|b| b.len()), Some(1));
    }

    #[test]
    fn opposite_dependencies_are_a_real_cycle() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        t.add_dep(dep(1, 2, 1));
        assert!(t.has_any_cycle_oracle());
        assert!(!t.deps_acyclic());
        // Removing a member removes its dependencies: acyclic again.
        t.remove_txn(g(2));
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
        let delta_dense = eliminate_cycles_dense_with(
            &dense,
            g(5),
            &mut steps_dense,
            &mut EliminateScratch::new(),
        );
        assert_eq!(delta_ref, delta_dense);
        assert_eq!(steps_ref, steps_dense);
        assert!(!reference.has_cycle_involving(g(5), &delta_ref));
        assert!(!dense.has_cycle_involving_oracle(g(5), &delta_dense));
    }

    #[test]
    fn eliminate_cycles_missing_txn_is_one_tick() {
        let dense = DenseTsgd::new();
        let mut steps = StepCounter::new();
        let mut scratch = EliminateScratch::new();
        assert!(eliminate_cycles_dense_with(&dense, g(9), &mut steps, &mut scratch).is_empty());
        assert_eq!(steps.act, 1);
    }

    #[test]
    fn remove_txn_drops_deps_and_recycles_slots() {
        let mut t = two_txn_cycle();
        t.add_dep(dep(0, 1, 2));
        let old_slot = t.txn_slot(g(1)).unwrap();
        t.remove_txn(g(1));
        assert_eq!(t.dep_count(), 0);
        assert_eq!(t.incoming_deps(g(2)), 0);
        assert!(!t.contains_txn(g(1)));
        assert!(!t.has_any_cycle_oracle());
        // The freed slot is recycled and must carry no stale state.
        let new_slot = t.insert_txn(g(7), &[s(0), s(1)]);
        assert_eq!(new_slot, old_slot);
        assert_eq!(t.incoming_deps(g(7)), 0);
        assert!(t.preds_at(g(7), s(0)).is_none());
        // G7 and G2 now share two undetermined sites: a fresh cycle.
        assert!(t.has_cycle_involving_oracle(g(7), &BTreeSet::new()));
    }

    #[test]
    fn site_slots_release_when_edge_free() {
        let mut t = DenseTsgd::new();
        t.insert_txn(g(1), &[s(5)]);
        assert!(t.site_slot(s(5)).is_some());
        t.remove_txn(g(1));
        assert!(t.site_slot(s(5)).is_none());
        assert_eq!(t.txns_at(s(5)).count(), 0);
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
        // Several rounds through one scratch: epoch stamping must isolate
        // calls, and charges must equal the reference every time.
        for target in [5u64, 1, 4] {
            let mut steps_ref = StepCounter::new();
            let mut steps_cur = StepCounter::new();
            let delta_ref = eliminate_cycles(&reference, g(target), &mut steps_ref);
            let delta_cur =
                eliminate_cycles_dense_with(&dense, g(target), &mut steps_cur, &mut scratch);
            assert_eq!(delta_ref, delta_cur, "Δ diverged for G{target}");
            assert_eq!(steps_ref, steps_cur, "steps diverged for G{target}");
        }
        // Absent-txn path: one outer tick, like the reference.
        let mut steps = StepCounter::new();
        assert!(eliminate_cycles_dense_with(&dense, g(9), &mut steps, &mut scratch).is_empty());
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
        assert!(t.preds_at(g(3), s(99)).is_none());
        assert!(t.preds_at(g(2), s(99)).is_none());
        assert_eq!(t.incoming_deps(g(3)), 0);
        t.add_dep(dep(0, 2, 3));
        assert!(t.has_dep(s(0), g(2), g(3)));
        assert!(!t.has_dep(s(99), g(2), g(3)), "no aliasing into site 99");
        assert!(t.deps_acyclic());
        assert_eq!(t.take_desync(), 0);
    }
}
