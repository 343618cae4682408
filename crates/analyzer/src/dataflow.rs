//! Generic forward dataflow over [`Cfg`](crate::cfg::Cfg)-shaped graphs.
//!
//! The solver is a classic worklist fixpoint: block out-states propagate
//! along successor edges, joining at merge points with either set union
//! (`Merge::May` — "on some path") or set intersection (`Merge::Must` —
//! "on all paths"). Transfer functions are arbitrary closures over a
//! [`BitSet`], which lets rules whose effects are state-dependent (e.g.
//! lost-wakeup's check→register ordering bit) reuse the same engine as
//! plain gen/kill analyses. For gen/kill frameworks the result equals
//! the meet-over-all-paths solution, which is what the property test in
//! `tests/dataflow_prop.rs` pins against a path-enumeration oracle.

/// Join operator at control-flow merges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Fact holds on *some* path (union). Used for guard liveness: a
    /// guard dropped on only one arm is still live after the merge.
    May,
    /// Fact holds on *all* paths (intersection).
    Must,
}

/// A fixed-width bit set sized at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    pub fn empty(nbits: usize) -> BitSet {
        BitSet {
            words: vec![0; nbits.div_ceil(64).max(1)],
            nbits,
        }
    }

    pub fn full(nbits: usize) -> BitSet {
        let mut s = BitSet::empty(nbits);
        for i in 0..nbits {
            s.set(i);
        }
        s
    }

    pub fn len(&self) -> usize {
        self.nbits
    }

    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// `self |= other`; returns true if any bit changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | o;
            changed |= new != *w;
            *w = new;
        }
        changed
    }

    /// `self &= other`; returns true if any bit changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w & o;
            changed |= new != *w;
            *w = new;
        }
        changed
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nbits).filter(|&i| self.get(i))
    }
}

/// Solve a forward dataflow problem; returns the IN state of each block.
///
/// `boundary` is the entry block's IN state. `transfer(b, state)` must
/// mutate `state` from the block's IN to its OUT. Unreachable blocks
/// keep an untouched initial value (empty for `May`, full for `Must`) —
/// callers that walk blocks afterwards should skip blocks the entry
/// cannot reach, or accept the conservative initial value.
pub fn solve(
    nblocks: usize,
    succs: &[Vec<usize>],
    entry: usize,
    nfacts: usize,
    merge: Merge,
    boundary: &BitSet,
    transfer: &mut dyn FnMut(usize, &mut BitSet),
) -> Vec<BitSet> {
    let init = || match merge {
        Merge::May => BitSet::empty(nfacts),
        Merge::Must => BitSet::full(nfacts),
    };
    let mut ins: Vec<BitSet> = (0..nblocks).map(|_| init()).collect();
    let mut reached = vec![false; nblocks];
    if nblocks == 0 {
        return ins;
    }
    ins[entry] = boundary.clone();
    reached[entry] = true;

    let mut worklist = vec![entry];
    let mut queued = vec![false; nblocks];
    queued[entry] = true;
    // Monotone lattice of height nfacts per block bounds iterations;
    // the cap is a defensive backstop, not a correctness requirement.
    let mut budget = (nblocks * (nfacts + 2) + 64) * 4;

    while let Some(b) = worklist.pop() {
        queued[b] = false;
        if budget == 0 {
            break;
        }
        budget -= 1;
        let mut out = ins[b].clone();
        transfer(b, &mut out);
        for &s in &succs[b] {
            let changed = if !reached[s] {
                // First write wins outright: the Must init value (full)
                // must not poison the join from a real predecessor.
                reached[s] = true;
                ins[s] = out.clone();
                true
            } else {
                match merge {
                    Merge::May => ins[s].union_with(&out),
                    Merge::Must => ins[s].intersect_with(&out),
                }
            };
            if changed && !queued[s] {
                queued[s] = true;
                worklist.push(s);
            }
        }
    }
    ins
}

/// Convenience wrapper for plain gen/kill transfer functions given as
/// per-block masks: `out = (in & !kill) | gen`.
pub fn solve_gen_kill(
    succs: &[Vec<usize>],
    entry: usize,
    nfacts: usize,
    merge: Merge,
    boundary: &BitSet,
    gen: &[BitSet],
    kill: &[BitSet],
) -> Vec<BitSet> {
    let nblocks = succs.len();
    solve(
        nblocks,
        succs,
        entry,
        nfacts,
        merge,
        boundary,
        &mut |b, state| {
            for i in kill[b].iter_ones() {
                state.clear(i);
            }
            let _ = state.union_with(&gen[b]);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(nfacts: usize, ones: &[usize]) -> BitSet {
        let mut s = BitSet::empty(nfacts);
        for &i in ones {
            s.set(i);
        }
        s
    }

    #[test]
    fn bitset_ops() {
        let mut a = bits(70, &[0, 65]);
        assert!(a.get(65) && !a.get(64));
        assert!(a.union_with(&bits(70, &[64])));
        assert!(!a.union_with(&bits(70, &[64])));
        assert!(a.intersect_with(&bits(70, &[0, 64])));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 64]);
        a.clear(0);
        a.clear(64);
        assert!(!a.any());
    }

    /// Diamond: 0 -> {1, 2} -> 3. Fact 0 killed on block 1 only.
    fn diamond() -> Vec<Vec<usize>> {
        vec![vec![1, 2], vec![3], vec![3], vec![]]
    }

    #[test]
    fn may_keeps_fact_killed_on_one_arm() {
        let n = 1;
        let gen = vec![bits(n, &[0]), bits(n, &[]), bits(n, &[]), bits(n, &[])];
        let kill = vec![bits(n, &[]), bits(n, &[0]), bits(n, &[]), bits(n, &[])];
        let ins = solve_gen_kill(&diamond(), 0, n, Merge::May, &BitSet::empty(n), &gen, &kill);
        // Killed on arm 1, survives arm 2 — May join keeps it live at 3.
        assert!(ins[3].get(0));
    }

    #[test]
    fn must_drops_fact_killed_on_one_arm() {
        let n = 1;
        let gen = vec![bits(n, &[0]), bits(n, &[]), bits(n, &[]), bits(n, &[])];
        let kill = vec![bits(n, &[]), bits(n, &[0]), bits(n, &[]), bits(n, &[])];
        let ins = solve_gen_kill(
            &diamond(),
            0,
            n,
            Merge::Must,
            &BitSet::empty(n),
            &gen,
            &kill,
        );
        assert!(!ins[3].get(0));
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // 0 -> 1 (header) -> 2 (body, gens fact) -> 1; 1 -> 3.
        let succs = vec![vec![1], vec![2, 3], vec![1], vec![]];
        let n = 1;
        let gen = vec![bits(n, &[]), bits(n, &[]), bits(n, &[0]), bits(n, &[])];
        let kill = vec![bits(n, &[]); 4];
        let ins = solve_gen_kill(&succs, 0, n, Merge::May, &BitSet::empty(n), &gen, &kill);
        // Fact genned in the body flows around the back edge to the
        // header and out the exit edge.
        assert!(ins[1].get(0));
        assert!(ins[3].get(0));
        // Must: exit via the zero-trip path lacks the fact.
        let must = solve_gen_kill(&succs, 0, n, Merge::Must, &BitSet::empty(n), &gen, &kill);
        assert!(!must[3].get(0));
    }

    #[test]
    fn unreachable_block_keeps_init() {
        let succs = vec![vec![], vec![]];
        let n = 2;
        let ins = solve(2, &succs, 0, n, Merge::Must, &bits(n, &[0]), &mut |_, _| {});
        assert!(ins[0].get(0) && !ins[0].get(1));
        // Block 1 is unreachable; Must init is full.
        assert!(ins[1].get(0) && ins[1].get(1));
    }

    #[test]
    fn conditional_transfer_orders_facts() {
        // Lost-wakeup style: bit1 set only if bit0 already set when the
        // "register" block runs. 0(check: set bit0) -> 1(register) -> 2.
        let succs = vec![vec![1], vec![2], vec![]];
        let ins = solve(
            3,
            &succs,
            0,
            2,
            Merge::May,
            &BitSet::empty(2),
            &mut |b, st| match b {
                0 => st.set(0),
                1 if st.get(0) => {
                    st.set(1);
                    st.clear(0);
                }
                _ => {}
            },
        );
        assert!(ins[2].get(1) && !ins[2].get(0));
    }
}
