//! Discrete-event core: simulated clock and event queue.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Simulated time in microseconds.
pub type SimTime = u64;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap semantics; ties broken by insertion order so
        // simulation order is fully deterministic.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic min-heap of timed events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current time: the timestamp of the last popped event, or the last
    /// clock [`EventQueue::pop_due`] was given.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (clamped to now if in the
    /// past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let time = at.max(self.now);
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` `delay` microseconds from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Pop the next event due by `now` on a clock that runs on its own
    /// (the live runtime's wall clock): the queue's clock first advances
    /// to `now`, never back. `Err` carries when the next event falls due,
    /// `None` if none pends.
    pub fn pop_due(&mut self, now: SimTime) -> Result<E, Option<SimTime>> {
        self.now = self.now.max(now);
        match self.heap.peek_mut() {
            Some(entry) if entry.time <= self.now => Ok(PeekMut::pop(entry).event),
            next => Err(next.map(|entry| entry.time)),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events pend.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "first");
        q.schedule_at(5, "second");
        q.schedule_at(5, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        q.pop();
        q.schedule_in(50, "y");
        assert_eq!(q.pop(), Some((150, "y")));
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        q.pop();
        q.schedule_at(10, "late");
        assert_eq!(q.pop(), Some((100, "late")));
    }

    #[test]
    fn pop_due_follows_an_outside_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        assert_eq!(q.pop_due(40), Err(Some(100)));
        assert_eq!(q.now(), 40);
        q.schedule_in(10, "y");
        assert_eq!(q.pop_due(30), Err(Some(50)));
        assert_eq!(q.now(), 40, "the clock never runs back");
        assert_eq!(q.pop_due(120), Ok("y"));
        assert_eq!(q.pop_due(120), Ok("x"));
        assert_eq!(q.now(), 120);
        assert_eq!(q.pop_due(130), Err(None));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, 1);
        assert_eq!(q.len(), 1);
    }
}
