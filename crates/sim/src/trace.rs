//! Structured run tracing.
//!
//! A [`Trace`] collects timestamped, typed records of what the simulator
//! did — admissions, GTM2 scheduling decisions, server commands, aborts,
//! crashes — for debugging and for experiment provenance (the records
//! serialize to JSON lines). Tracing is opt-in per run and designed to be
//! cheap when disabled: the system holds an `Option<Trace>` and skips all
//! formatting when it is `None`.

use crate::event::SimTime;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{SchedEvent, TraceSink};
use serde::{Deserialize, Serialize};

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceRecord {
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
        /// The failed site.
        site: SiteId,
        /// When it comes back.
        until: SimTime,
    },
    /// A structured scheduling event from the shared instrumentation
    /// layer ([`mdbs_common::instrument`]) — GTM1/GTM2 enqueue, cond,
    /// act, wake, wait and abort decisions converge into the same trace
    /// as the simulator's own records.
    Sched {
        /// The scheduling event.
        event: SchedEvent,
    },
}

/// A timestamped record.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Simulated time of the occurrence (microseconds).
    pub at: SimTime,
    /// What happened.
    pub record: TraceRecord,
}

/// An in-memory, append-only run trace.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record at simulated time `at`.
    pub fn push(&mut self, at: SimTime, record: TraceRecord) {
        self.entries.push(TraceEntry { at, record });
    }

    /// All entries in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries matching a predicate.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&TraceRecord) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| pred(&e.record))
    }

    /// Render as JSON lines (one entry per line) for provenance files.
    pub fn to_json_lines(&self) -> String {
        self.entries
            .iter()
            .map(|e| serde_json::to_string(e).expect("trace entries serialize"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl TraceSink for Trace {
    fn record(&mut self, at: u64, event: SchedEvent) {
        self.push(at, TraceRecord::Sched { event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut t = Trace::new();
        t.push(
            10,
            TraceRecord::Crash {
                site: SiteId(1),
                until: 50,
            },
        );
        t.push(
            20,
            TraceRecord::Completed {
                txn: GlobalTxnId(1),
                committed: true,
            },
        );
        t.push(
            30,
            TraceRecord::Completed {
                txn: GlobalTxnId(2),
                committed: false,
            },
        );
        assert_eq!(t.len(), 3);
        let completions: Vec<_> = t
            .filter(|r| matches!(r, TraceRecord::Completed { .. }))
            .collect();
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].at, 20);
    }

    #[test]
    fn json_lines_round_trip() {
        let mut t = Trace::new();
        t.push(
            5,
            TraceRecord::Submitted {
                txn: GlobalTxnId(3),
                program: 0,
                attempt: 1,
            },
        );
        let lines = t.to_json_lines();
        let back: TraceEntry = serde_json::from_str(&lines).unwrap();
        assert_eq!(back, t.entries()[0]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.to_json_lines(), "");
    }
}
