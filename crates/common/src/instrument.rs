//! Structured instrumentation: a zero-dependency metrics registry and
//! the vocabulary of a run's trace.
//!
//! The paper's argument is cost accounting — Theorems 4–9 bound cond/act/
//! wait-rescan steps — so the reproduction needs first-class runtime
//! visibility, not ad-hoc `eprintln!`. This module provides the two
//! substrates every layer of the stack shares:
//!
//! - [`Registry`] — named counters, gauges and log₂-bucket [`Histogram`]s.
//!   Components export their counters into a registry on demand
//!   (`export_metrics`-style methods) so one snapshot covers GTM1, GTM2,
//!   the local engines and the simulator, and snapshots serialize to JSON
//!   for bench artifacts.
//! - [`SchedEvent`] — one typed occurrence of a run: enqueue, cond, act,
//!   wake, wait and abort from the GTM; submit, completion, timeout and
//!   crash from the driver. A producer records into its own
//!   `Option<Vec<SchedEvent>>`: with tracing off that is `None`, and each
//!   recording site is a single branch, so it costs nothing in release
//!   binaries. Whoever owns the clock stamps the events as
//!   [`TracedEvent`]s.

use crate::ids::{GlobalTxnId, SiteId};
use crate::ops::{QueueOp, QueueOpKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k)`, so bucket 64 holds `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-size log₂-bucket histogram over `u64` samples.
///
/// Recording is two array writes and a comparison — no allocation — which
/// makes it safe to keep in scheduler hot loops. Quantiles are estimated
/// from bucket boundaries (exact for counts, upper-bound for values).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Index of the bucket holding `v`: 0 for 0, else `1 + floor(log2 v)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index via the log₂ rule above).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Estimated `p`-th percentile (0–100): the inclusive upper bound of
    /// the first bucket at which the cumulative count reaches the rank,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Add another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// A named collection of counters, gauges and histograms.
///
/// The registry is plain data (no interior mutability, no globals): each
/// component owns its own counters and *exports* them into a registry when
/// a snapshot is wanted, so hot paths never pay a name lookup.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named counter (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Raise the named gauge to `v` if `v` is larger (high-water mark).
    pub fn max_gauge(&mut self, name: &str, v: i64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = (*g).max(v);
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Current value of a gauge (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Record a sample into the named histogram (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::new();
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Merge a whole histogram into the named slot.
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.merge(hist);
        } else {
            self.histograms.insert(name.to_string(), hist.clone());
        }
    }

    /// The named histogram, if any samples were recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// maximum (they are high-water marks across components), histograms
    /// merge.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &v) in &other.counters {
            self.inc(name, v);
        }
        for (name, &v) in &other.gauges {
            self.max_gauge(name, v);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// One structured occurrence of a run.
///
/// The GTM's variants mirror the vocabulary of the Basic_Scheme loop
/// (Figure 3): operations are enqueued, their `cond` is evaluated, they
/// are acted or added to WAIT, waiting operations are woken, and global
/// transactions abort. The driver adds what it decides around the GTM:
/// submissions, completions, block timeouts and site crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedEvent {
    /// An operation was inserted into QUEUE.
    Enqueue {
        /// Operation kind.
        kind: QueueOpKind,
        /// Transaction.
        txn: GlobalTxnId,
        /// Site (`None` for init/fin).
        site: Option<SiteId>,
    },
    /// `cond(o)` was evaluated on a freshly dequeued operation.
    Cond {
        /// Operation kind.
        kind: QueueOpKind,
        /// Transaction.
        txn: GlobalTxnId,
        /// Site (`None` for init/fin).
        site: Option<SiteId>,
        /// Whether the condition held.
        eligible: bool,
    },
    /// `act(o)` ran on an operation taken from QUEUE.
    Act {
        /// Operation kind.
        kind: QueueOpKind,
        /// Transaction.
        txn: GlobalTxnId,
        /// Site (`None` for init/fin).
        site: Option<SiteId>,
    },
    /// A waiting operation's `cond` turned true and `act` ran on it.
    Wake {
        /// Operation kind.
        kind: QueueOpKind,
        /// Transaction.
        txn: GlobalTxnId,
        /// Site (`None` for init/fin).
        site: Option<SiteId>,
    },
    /// An operation entered the WAIT set.
    Wait {
        /// Operation kind.
        kind: QueueOpKind,
        /// Transaction.
        txn: GlobalTxnId,
        /// Site (`None` for init/fin).
        site: Option<SiteId>,
    },
    /// A global transaction was aborted.
    Abort {
        /// Victim.
        txn: GlobalTxnId,
    },
    /// A global transaction (attempt) was submitted to GTM1.
    Submitted {
        /// Transaction id of this attempt.
        txn: GlobalTxnId,
        /// Logical program index.
        program: usize,
        /// Attempt number (1 = first try).
        attempt: u32,
    },
    /// A global transaction finished.
    Completed {
        /// Transaction.
        txn: GlobalTxnId,
        /// Whether it committed.
        committed: bool,
    },
    /// A blocked operation timed out and was aborted.
    Timeout {
        /// Site where the operation was stuck.
        site: SiteId,
    },
    /// A site crashed.
    Crash {
        /// Failed site.
        site: SiteId,
        /// Time (the run's clock) it comes back.
        until: u64,
    },
}

impl SchedEvent {
    /// Event for `op` entering QUEUE.
    pub fn enqueue(op: &QueueOp) -> Self {
        SchedEvent::Enqueue {
            kind: op.kind(),
            txn: op.txn(),
            site: op.site(),
        }
    }

    /// Event for a `cond(op)` evaluation.
    pub fn cond(op: &QueueOp, eligible: bool) -> Self {
        SchedEvent::Cond {
            kind: op.kind(),
            txn: op.txn(),
            site: op.site(),
            eligible,
        }
    }

    /// Event for `act(op)` on a queue operation.
    pub fn act(op: &QueueOp) -> Self {
        SchedEvent::Act {
            kind: op.kind(),
            txn: op.txn(),
            site: op.site(),
        }
    }

    /// Event for `act(op)` on a woken waiter.
    pub fn wake(op: &QueueOp) -> Self {
        SchedEvent::Wake {
            kind: op.kind(),
            txn: op.txn(),
            site: op.site(),
        }
    }

    /// Event for `op` entering WAIT.
    pub fn wait(op: &QueueOp) -> Self {
        SchedEvent::Wait {
            kind: op.kind(),
            txn: op.txn(),
            site: op.site(),
        }
    }
}

/// A [`SchedEvent`] stamped with the run's clock: one entry of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracedEvent {
    /// The run's clock at the time of the event (simulated microseconds in
    /// the DES, wall microseconds since the run started on the live
    /// transport).
    pub at: u64,
    /// The occurrence.
    pub event: SchedEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn registry_counters_gauges() {
        let mut r = Registry::new();
        r.inc("a", 2);
        r.inc("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.set_gauge("g", -4);
        r.max_gauge("g", 7);
        r.max_gauge("g", 2);
        assert_eq!(r.gauge("g"), 7);
    }

    #[test]
    fn registry_merge() {
        let mut a = Registry::new();
        a.inc("c", 1);
        a.max_gauge("g", 5);
        a.observe("h", 10);
        let mut b = Registry::new();
        b.inc("c", 2);
        b.max_gauge("g", 3);
        b.observe("h", 20);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 5);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
