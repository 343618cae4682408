//! Dense-id interning and bitsets for allocation-free scheme kernels.
//!
//! The paper's schemes are specified over sets of global transaction and
//! site identifiers. The reference kernels realise those sets as
//! `BTreeMap`/`BTreeSet` keyed by the full ids, which makes every `cond`
//! evaluation a pointer chase and every `act` propagation an allocation.
//! This module provides the primitives the dense kernels
//! (`mdbs-core::kernel_dense`) and GTM2's WAIT set are built from:
//!
//! - [`IdHasher`] / [`IdHashMap`] — a fixed multiply-rotate hash over
//!   internal ids, so an id lookup is one hash probe instead of a B-tree
//!   descent, and every run lays its tables out the same way.
//! - [`DenseInterner`] — maps *live* ids to compact `u32` slots through an
//!   [`IdHashMap`], recycling slots through a free list when an id is
//!   released (at `fin`). Slot count therefore tracks the number of
//!   *concurrently live* ids, not the number ever seen, so bitsets over
//!   slots stay small no matter how long the run is.
//! - [`DenseBitSet`] — a hand-rolled bitset over `u64` words for sets
//!   that gain and lose single members: `insert` / `remove` maintain the
//!   cardinality, so `|S|` is O(1) and membership is a bit probe. Sets
//!   that are OR'd wholesale (Scheme 3's `ser_bef`) are rows of a bit
//!   matrix in the kernel instead, whose sizes the kernel keeps from the
//!   bits each OR adds. The workspace is zero-dependency, so this is
//!   written by hand rather than pulled in.
//!
//! None of these counts paper steps: abstract cost accounting stays in
//! the schemes (`StepCounter` ticks are placed where the paper's cost model
//! puts them); these types only change the *machine* cost of each step.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FxHash-style multiply-rotate hasher for internal ids.
///
/// It has no per-process seed, so a map of this type lays out the same way
/// on every run. It is for internal ids only: it does not resist hash
/// flooding, so never key it by input an adversary chooses. A map of this
/// type is never iterated where the order could reach a decision or an
/// output — callers that need an order sort what they collect.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    /// FxHash's 64-bit multiplier (odd, so a multiply is a bijection).
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

// Each integer write folds in one word, the value zero-extended: what
// `write` folds for its little-endian bytes, so the integer overrides only
// skip the byte round-trip.
impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed by internal ids through [`IdHasher`]: deterministic
/// layout, one probe per lookup. Construct with `IdHashMap::default()`.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Interner mapping live keys to compact `u32` slots with free-list
/// recycling.
///
/// Slots are handed out LIFO from the free list so a workload with `k`
/// concurrently live ids touches only the first ~`k` slots forever.
#[derive(Clone, Debug)]
pub struct DenseInterner<K: Ord + Copy + Hash> {
    /// Slot → key for live slots.
    slots: Vec<Option<K>>,
    /// Key → slot for live keys (hashed, so unordered: see
    /// [`DenseInterner::iter_sorted`]).
    index: IdHashMap<K, u32>,
    /// Recycled slots, reused LIFO.
    free: Vec<u32>,
}

impl<K: Ord + Copy + Hash> Default for DenseInterner<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy + Hash> DenseInterner<K> {
    /// Empty interner.
    pub fn new() -> Self {
        DenseInterner {
            slots: Vec::new(),
            index: IdHashMap::default(),
            free: Vec::new(),
        }
    }

    /// Slot of `key`, interning it if it is not currently live.
    pub fn intern(&mut self, key: K) -> u32 {
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(key);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(key));
                slot
            }
        };
        self.index.insert(key, slot);
        slot
    }

    /// Slot of `key` if live.
    #[inline]
    pub fn slot_of(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// Key occupying `slot`, if live.
    #[inline]
    pub fn key_of(&self, slot: u32) -> Option<K> {
        self.slots.get(slot as usize).copied().flatten()
    }

    /// Release `key`, returning its former slot to the free list.
    pub fn release(&mut self, key: &K) -> Option<u32> {
        let slot = self.index.remove(key)?;
        self.slots[slot as usize] = None;
        self.free.push(slot);
        Some(slot)
    }

    /// Number of live keys.
    #[inline]
    pub fn live(&self) -> usize {
        self.index.len()
    }

    /// True iff no key is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Highest slot count ever in use (bound for slot-indexed vectors).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True iff `key` is live.
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Live `(key, slot)` pairs in **key order** — the order the reference
    /// `BTreeMap` kernels iterate in. Collects and sorts (O(live · log
    /// live) plus an allocation), so it is for validation and oracle paths
    /// only (`DenseTsgd::{txns, deps_set, edges_consistent, deps_acyclic}`),
    /// never a `cond`/`act`.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        #[expect(clippy::disallowed_methods, reason = "collected, then sorted by key.")]
        let mut live: Vec<(K, u32)> = self.index.iter().map(|(k, s)| (*k, *s)).collect();
        live.sort_unstable_by_key(|&(k, _)| k);
        live.into_iter()
    }
}

/// Growable bitset over `u64` words with maintained cardinality.
///
/// Equality is set equality: trailing words that are absent count as zero,
/// so a set that grew and then emptied equals [`DenseBitSet::new`].
#[derive(Clone, Debug, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl PartialEq for DenseBitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.len == other.len
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for DenseBitSet {}

impl DenseBitSet {
    /// Empty set.
    pub fn new() -> Self {
        DenseBitSet {
            words: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn ensure_word(&mut self, word: usize) {
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
    }

    /// Insert `bit`; returns true if it was newly set.
    #[inline]
    pub fn insert(&mut self, bit: u32) -> bool {
        let (w, b) = (bit as usize / 64, bit as usize % 64);
        self.ensure_word(w);
        let mask = 1u64 << b;
        let new = self.words[w] & mask == 0;
        if new {
            self.words[w] |= mask;
            self.len += 1;
        }
        new
    }

    /// Remove `bit`; returns true if it was set.
    #[inline]
    pub fn remove(&mut self, bit: u32) -> bool {
        let (w, b) = (bit as usize / 64, bit as usize % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        if was {
            self.words[w] &= !mask;
            self.len -= 1;
        }
        was
    }

    /// True iff `bit` is set.
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        let (w, b) = (bit as usize / 64, bit as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Cardinality (O(1): maintained, not recounted).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clear all bits (keeps word storage for reuse).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Iterate set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }

    /// Raw words, for callers that combine several sets word-wise (e.g.
    /// a find-first-clear over the OR of skip masks). Bit `i` of word `w`
    /// is element `w * 64 + i`; trailing words may be absent (all zero).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interner_recycles_slots_lifo() {
        let mut it: DenseInterner<u64> = DenseInterner::new();
        assert_eq!(it.intern(10), 0);
        assert_eq!(it.intern(20), 1);
        assert_eq!(it.intern(30), 2);
        assert_eq!(it.intern(20), 1, "re-intern of live key is stable");
        assert_eq!(it.release(&20), Some(1));
        assert_eq!(it.live(), 2);
        assert_eq!(it.key_of(1), None);
        assert_eq!(it.intern(40), 1, "freed slot reused LIFO");
        assert_eq!(it.slot_of(&40), Some(1));
        assert_eq!(it.capacity(), 3);
        assert_eq!(it.release(&99), None);
        let sorted: Vec<_> = it.iter_sorted().collect();
        assert_eq!(sorted, vec![(10, 0), (30, 2), (40, 1)], "key order");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any `intern` / `release` churn, the sorted view is
        /// strictly increasing and agrees with `slot_of` / `key_of`.
        #[test]
        fn interner_churn_keeps_sorted_view_and_slots_in_step(
            ops in prop::collection::vec((any::<bool>(), 0u64..48), 0..300)
        ) {
            let mut it: DenseInterner<u64> = DenseInterner::new();
            for (intern, key) in ops {
                if intern {
                    let slot = it.intern(key);
                    prop_assert_eq!(it.key_of(slot), Some(key));
                } else {
                    let had = it.slot_of(&key);
                    prop_assert_eq!(it.release(&key), had);
                    prop_assert!(!it.contains(&key));
                }
                let sorted: Vec<_> = it.iter_sorted().collect();
                prop_assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0), "not strictly increasing");
                prop_assert_eq!(sorted.len(), it.live());
                for &(key, slot) in &sorted {
                    prop_assert_eq!(it.slot_of(&key), Some(slot));
                    prop_assert_eq!(it.key_of(slot), Some(key));
                }
                let occupied = (0..it.capacity() as u32)
                    .filter(|&s| it.key_of(s).is_some())
                    .count();
                prop_assert_eq!(occupied, it.live(), "a live slot is not listed once");
            }
        }
    }

    #[test]
    fn id_hasher_is_unseeded() {
        use std::hash::BuildHasher;
        let hash = |x: u64| BuildHasherDefault::<IdHasher>::default().hash_one(x);
        assert_eq!(hash(1), IdHasher::K, "no seed: 1 hashes to the multiplier");
        assert_ne!(hash(1), hash(2));
        // The integer overrides fold what the byte path folds.
        let bytes = |b: &[u8]| {
            let mut h = IdHasher::default();
            h.write(b);
            h.finish()
        };
        let mut h = IdHasher::default();
        h.write_u32(0x0102_0304);
        assert_eq!(h.finish(), bytes(&0x0102_0304u32.to_le_bytes()));
    }

    #[test]
    fn bitset_equality_is_set_equality() {
        let mut emptied = DenseBitSet::new();
        emptied.insert(100);
        emptied.remove(100);
        assert_eq!(emptied.as_words(), &[0, 0]);
        assert_eq!(emptied, DenseBitSet::new());
        assert_eq!(DenseBitSet::new(), emptied);

        let mut short = DenseBitSet::new();
        short.insert(5);
        let mut long = DenseBitSet::new();
        long.insert(5);
        long.insert(130);
        assert_ne!(short, long);
        long.remove(130);
        assert_eq!(short, long);
        assert_eq!(long, short);
    }

    #[test]
    fn bitset_insert_remove_len() {
        let mut s = DenseBitSet::new();
        assert!(s.insert(3));
        assert!(s.insert(70));
        assert!(!s.insert(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(70) && !s.contains(64));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(1000), "out-of-range remove is a no-op");
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![70]);
        s.clear();
        assert!(s.is_empty());
    }
}
