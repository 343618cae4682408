//! Abstract step counting.
//!
//! Section 4 of the paper defines the complexity of a conservative scheme
//! as the **average number of steps to schedule one transaction**, where the
//! steps of processing a queue operation `o_j` decompose into
//!
//! 1. the steps of evaluating `cond(o_j)`,
//! 2. the steps of executing `act(o_j)`, and
//! 3. the steps spent determining which waiting operations in `WAIT` became
//!    eligible because `act(o_j)` ran.
//!
//! [`StepCounter`] mirrors that decomposition. Schemes call
//! [`StepCounter::bump`] with the matching [`StepKind`] for every constant
//! amount of work; the experiment harness then reports totals per category
//! and per transaction, which is exactly the quantity Theorems 4, 6 and 9
//! bound.

use std::fmt;

/// Category of abstract work, following the paper's cost accounting.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StepKind {
    /// Work inside a `cond(o_j)` evaluation.
    Cond,
    /// Work inside an `act(o_j)` execution.
    Act,
    /// Work scanning/retesting the `WAIT` set after an `act`.
    WaitScan,
}

/// Accumulates abstract steps by category.
///
/// The counter is deliberately plain data (no interior mutability): schemes
/// receive `&mut StepCounter` wherever they may do work, which keeps the
/// accounting visible in signatures and free of synchronization cost.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StepCounter {
    /// Steps spent evaluating `cond`.
    pub cond: u64,
    /// Steps spent executing `act`.
    pub act: u64,
    /// Steps spent rescanning `WAIT`.
    pub wait_scan: u64,
}

impl StepCounter {
    /// A fresh, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` steps of the given kind.
    #[inline]
    pub fn bump(&mut self, kind: StepKind, n: u64) {
        match kind {
            StepKind::Cond => self.cond += n,
            StepKind::Act => self.act += n,
            StepKind::WaitScan => self.wait_scan += n,
        }
    }

    /// Record one step of the given kind.
    #[inline]
    pub fn tick(&mut self, kind: StepKind) {
        self.bump(kind, 1);
    }

    /// Total steps across all categories.
    #[inline]
    pub fn total(&self) -> u64 {
        self.cond + self.act + self.wait_scan
    }

    /// Add another counter's tallies into this one.
    pub fn merge(&mut self, other: &StepCounter) {
        self.cond += other.cond;
        self.act += other.act;
        self.wait_scan += other.wait_scan;
    }

    /// Difference since an earlier snapshot (`self - earlier`).
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn since(&self, earlier: &StepCounter) -> StepCounter {
        debug_assert!(self.cond >= earlier.cond);
        debug_assert!(self.act >= earlier.act);
        debug_assert!(self.wait_scan >= earlier.wait_scan);
        StepCounter {
            cond: self.cond - earlier.cond,
            act: self.act - earlier.act,
            wait_scan: self.wait_scan - earlier.wait_scan,
        }
    }
}

impl fmt::Display for StepCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps{{cond={}, act={}, wait_scan={}, total={}}}",
            self.cond,
            self.act,
            self.wait_scan,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_total() {
        let mut c = StepCounter::new();
        c.bump(StepKind::Cond, 3);
        c.tick(StepKind::Act);
        c.bump(StepKind::WaitScan, 2);
        assert_eq!(c.cond, 3);
        assert_eq!(c.act, 1);
        assert_eq!(c.wait_scan, 2);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StepCounter {
            cond: 1,
            act: 2,
            wait_scan: 3,
        };
        let b = StepCounter {
            cond: 10,
            act: 20,
            wait_scan: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            StepCounter {
                cond: 11,
                act: 22,
                wait_scan: 33
            }
        );
    }

    #[test]
    fn since_subtracts() {
        let early = StepCounter {
            cond: 1,
            act: 1,
            wait_scan: 1,
        };
        let late = StepCounter {
            cond: 5,
            act: 3,
            wait_scan: 2,
        };
        assert_eq!(
            late.since(&early),
            StepCounter {
                cond: 4,
                act: 2,
                wait_scan: 1
            }
        );
    }

    #[test]
    fn display_is_readable() {
        let c = StepCounter {
            cond: 1,
            act: 2,
            wait_scan: 3,
        };
        assert_eq!(c.to_string(), "steps{cond=1, act=2, wait_scan=3, total=6}");
    }
}
