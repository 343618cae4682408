//! Run metrics.

use crate::event::SimTime;
use mdbs_common::instrument::{Histogram, Registry};

/// Aggregated response-time statistics (microseconds of simulated time).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResponseStats {
    samples: Vec<SimTime>,
}

impl ResponseStats {
    /// Record one sample.
    pub fn record(&mut self, value: SimTime) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// The `p`-th percentile (0–100), or 0 when empty.
    pub fn percentile(&self, p: f64) -> SimTime {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Maximum sample, or 0 when empty.
    pub fn max(&self) -> SimTime {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The samples re-bucketed as a log2 [`Histogram`].
    pub fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::default();
        for &s in &self.samples {
            h.observe(s);
        }
        h
    }
}

/// Counters and timings collected over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Global transactions committed (first-attempt or retried).
    pub global_commits: u64,
    /// Global transaction attempts that aborted (each retry counts).
    pub global_aborts: u64,
    /// Global programs given up: retries exhausted, or refused at
    /// admission.
    pub global_failures: u64,
    /// Local transactions committed.
    pub local_commits: u64,
    /// Local transaction attempts aborted.
    pub local_aborts: u64,
    /// Blocked-operation timeouts fired.
    pub timeouts: u64,
    /// Site crashes injected.
    pub crashes: u64,
    /// Response time from first submission to final commit, per logical
    /// global transaction (includes retries).
    pub global_response: ResponseStats,
    /// When the last global program or local driver finished (simulated,
    /// or wall µs on the live transport); timers still queued after it do
    /// not count.
    pub makespan: SimTime,
    /// Count of simulation events processed (cost/diagnostic).
    pub events: u64,
}

impl Metrics {
    /// Committed-transactions-per-simulated-second throughput.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.global_commits as f64 / (self.makespan as f64 / 1_000_000.0)
    }

    /// Export the run counters and the response-time distribution into a
    /// metrics [`Registry`] under the `sim.` prefix.
    pub fn export_metrics(&self, registry: &mut Registry) {
        registry.inc("sim.global_commits", self.global_commits);
        registry.inc("sim.global_aborts", self.global_aborts);
        registry.inc("sim.global_failures", self.global_failures);
        registry.inc("sim.local_commits", self.local_commits);
        registry.inc("sim.local_aborts", self.local_aborts);
        registry.inc("sim.timeouts", self.timeouts);
        registry.inc("sim.crashes", self.crashes);
        registry.inc("sim.events", self.events);
        registry.max_gauge("sim.makespan_us", self.makespan as i64);
        registry.merge_histogram(
            "sim.global_response_us",
            &self.global_response.to_histogram(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_stats_math() {
        let mut r = ResponseStats::default();
        for v in [10, 20, 30, 40, 50] {
            r.record(v);
        }
        assert_eq!(r.count(), 5);
        assert_eq!(r.mean(), 30.0);
        assert_eq!(r.percentile(0.0), 10);
        assert_eq!(r.percentile(50.0), 30);
        assert_eq!(r.percentile(100.0), 50);
        assert_eq!(r.max(), 50);
    }

    #[test]
    fn empty_stats_are_zero() {
        let r = ResponseStats::default();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.percentile(99.0), 0);
        assert_eq!(r.max(), 0);
    }

    #[test]
    fn throughput_per_simulated_second() {
        let m = Metrics {
            global_commits: 10,
            global_aborts: 5,
            makespan: 2_000_000,
            ..Metrics::default()
        };
        assert_eq!(m.throughput_per_sec(), 5.0);
        assert_eq!(Metrics::default().throughput_per_sec(), 0.0);
    }
}
