//! The reference future-event list the `CalendarQueue` tests compare
//! against.
//!
//! [`EventQueue`] is a plain binary heap that orders events by timestamp
//! and breaks ties by insertion order. It is too simple to get wrong,
//! which makes it the oracle for the calendar queue's pop order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use jetsim_des::{SimDuration, SimTime};

/// A future-event list: a min-heap of `(SimTime, E)` pairs with FIFO
/// tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug, Clone)]
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
        // BinaryHeap is a max-heap; invert to get earliest-first, with the
        // lowest sequence number winning ties.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The timestamp of the most recently popped event — the queue's notion
    /// of "now". Starts at [`SimTime::ZERO`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant are delivered in the order
    /// they were scheduled.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Schedules `event` to fire `delay` after [`EventQueue::now`].
    ///
    /// This is the common case in an event handler ("finish this kernel in
    /// 42 µs") and saves the caller from threading the current timestamp
    /// through every call site.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Popping advances [`EventQueue::now`] to the popped timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|entry| {
            self.now = entry.time;
            (entry.time, entry.event)
        })
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events and resets the queue to its freshly
    /// constructed state: [`EventQueue::now`] returns to
    /// [`SimTime::ZERO`] and sequence numbering restarts, so
    /// `schedule_after` behaves exactly as on a new queue. The heap
    /// allocation is retained.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (time, event) in iter {
            self.schedule(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_restores_fresh_queue_semantics() {
        // Regression: `clear` used to leave `now` at the old pop time, so
        // `schedule_after` after a clear was relative to stale history.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(9_999), "late");
        q.pop();
        q.clear();
        assert_eq!(q.now(), SimTime::ZERO, "cleared queue reads like new");
        q.schedule_after(SimDuration::from_nanos(10), "fresh");
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(10));
    }

    #[test]
    fn extend_and_collect() {
        let events = (0..5).map(|i| (SimTime::ZERO + SimDuration::from_nanos(5 - i), i));
        let mut q: EventQueue<u64> = events.collect();
        assert_eq!(q.len(), 5);
        let first = q.pop().unwrap();
        assert_eq!(first.1, 4); // scheduled at t=1ns
    }

    #[test]
    fn now_tracks_pops_and_schedule_after_is_relative() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_nanos(40), "a");
        q.schedule_after(SimDuration::from_nanos(10), "b"); // t = 10
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.schedule_after(SimDuration::from_nanos(5), "c"); // t = 15
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(15), "c"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(40), "a"));
        assert_eq!(q.now(), SimTime::from_nanos(40));
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.schedule(SimTime::from_nanos(7), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
    }
}
