//! Disjoint-set union (union-find) over dense indices.
//!
//! Used by the dense Scheme 1 kernel's incremental bridge cache: an edge
//! `(G_i, s_k)` added at `init_i` lies on a cycle of the TSG iff `s_k` is
//! already connected to another site of `G_i` in the pre-`init` graph — a
//! pure connectivity query over sites, which union-find answers in
//! near-constant amortised time. Edge *insertions* (inits) are incremental
//! unions; only *deletions* (fins) force a rebuild.

/// Union-find with path halving and union by size.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// A structure over `n` initially-singleton elements.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True iff no elements are tracked.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Extend the element universe to at least `n` elements.
    pub fn grow(&mut self, n: usize) {
        while self.parent.len() < n {
            self.parent.push(self.parent.len() as u32);
            self.size.push(1);
        }
    }

    /// Reset every element to a singleton (keeps capacity).
    pub fn reset(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.size.iter_mut().for_each(|s| *s = 1);
    }

    /// Representative of `x`'s component (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merge the components of `a` and `b`; returns true if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// True iff `a` and `b` are in the same component.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 3));
        assert!(uf.union(1, 3));
        assert!(uf.connected(0, 4));
    }

    #[test]
    fn grow_and_reset() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        uf.grow(4);
        assert_eq!(uf.len(), 4);
        assert!(!uf.connected(0, 3));
        uf.union(0, 3);
        uf.reset();
        assert!(!uf.connected(0, 1));
        assert!(!uf.connected(0, 3));
        assert!(!uf.is_empty());
    }
}
