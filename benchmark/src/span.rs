//! Spans recorded at layer boundaries, and self-time arithmetic.
//!
//! The benchmark times calls into the layers' public functions from
//! outside; a span is one such call. Spans are kept in memory and written
//! out when the run ends. With recording off, `enter`/`exit` cost one
//! branch each, which is what makes the same driver usable as the untraced
//! baseline.

use std::fmt::Write as _;
use std::time::Instant;

/// "No parent": a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call across a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the part before the first dot is the layer.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The global transaction the call served (0 = none). Spans of one
    /// transaction share this identifier.
    pub txn: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder for one single-threaded run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`on`) or only pays a branch per call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span. The clock is
    /// read last, so bookkeeping lands in the parent, not in the span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, txn: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(idx);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            txn,
        });
        let now = self.now_ns();
        if let Some(span) = self.spans.last_mut() {
            span.start_ns = now;
        }
        idx
    }

    /// Close the span `enter` returned. The clock is read first.
    #[inline]
    pub fn exit(&mut self, idx: u32) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.end_ns = now;
        }
        self.open.pop();
    }

    /// The recorded spans, in `enter` order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover. Spans come from one thread, so children of one
/// parent never overlap each other; each child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for child in spans {
        let Some(parent) = spans.get(child.parent as usize) else {
            continue;
        };
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        let covered = end.saturating_sub(start);
        let slot = &mut own[child.parent as usize];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// The raw spans as a JSON array (written for round 0 of a traced run).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"txn\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.txn
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        // run [0,100] ├ a [10,40] ├ b [40,70] (adjacent to a) │ └ c [45,55] (nested in b)
        let spans = [
            span("run", 0, 100, NO_PARENT),
            span("gtm1.handle", 10, 40, 0),
            span("server.execute", 40, 70, 0),
            span("localdb.read", 45, 55, 2),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10]);
        // Self times partition the root interval exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span("run", 10, 20, NO_PARENT), span("x.y", 5, 15, 0)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.enter("run", 0);
        let a = t.enter("gtm2.ser", 7);
        t.exit(a);
        let b = t.enter("localdb.begin", 7);
        t.exit(b);
        t.exit(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[1].txn, spans[1].layer()), (7, "gtm2"));
        assert!(
            spans[1].end_ns <= spans[2].start_ns,
            "adjacent, not overlapping"
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(spans_json(&spans).contains("\"parent\":null"));

        let mut off = Tracer::new(false);
        let s = off.enter("run", 0);
        off.exit(s);
        assert!(off.into_spans().is_empty());
    }
}
