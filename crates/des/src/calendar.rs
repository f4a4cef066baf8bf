//! The future-event list: one `Vec` kept sorted, tuned for the dense,
//! near-horizon event mix a GPU FIFO produces.
//!
//! [`CalendarQueue`] pops in the order of a binary min-heap keyed by
//! `(time, insertion seq)` — earliest timestamp first, FIFO on ties (the
//! test suite checks it against exactly such a heap) — but with a
//! different underlying structure: every pending event sits in one `Vec`
//! sorted descending by `(time, seq)`, so the minimum is the tail. (The
//! name is historical: the queue used to be a bucketed calendar.)
//!
//! # Hot-path structure
//!
//! In a simulator dominated by back-to-back kernel launches and
//! completions, almost every event is due within a few microseconds of
//! the current time, and only a handful are pending at once — tens at
//! most, mostly far-off timers. The sorted `Vec` fits that mix:
//!
//! * **`pop` is a `Vec::pop`.**
//! * **`schedule` inserts from the tail.** It scans back from the tail
//!   past the entries due no later than the new one and inserts there, so
//!   it costs one step per pending event due before it. A kernel event is
//!   due before almost everything pending, so the scan and the shift stop
//!   within a few entries; the far-off timers at the head are never
//!   touched.
//! * **Batch scheduling.** [`CalendarQueue::schedule_batch`] appends a
//!   whole burst and sorts once.
//!
//! The cost of a schedule grows with the number of events due before it,
//! so the list suits the tens of pending events a simulation here holds,
//! not the tens of thousands a bucketed calendar is built for.

use std::cmp::Reverse;

use crate::time::{SimDuration, SimTime};

/// A deterministic future-event list: earliest timestamp first, FIFO on
/// ties.
///
/// # Examples
///
/// ```
/// use jetsim_des::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// q.schedule(SimTime::from_nanos(5), 'a');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// Every pending event, sorted descending by `(time, seq)` so the
    /// minimum is the tail.
    entries: Vec<Entry<E>>,
    /// Insertion counter; breaks ties FIFO.
    seq: u64,
    now: SimTime,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            entries: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The timestamp of the most recently popped event — the queue's
    /// notion of "now". Starts at [`SimTime::ZERO`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant are delivered in the order
    /// they were scheduled.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        // Every pending entry has an older seq, so the new one pops after
        // every entry due no later than it: it goes just past the last
        // (from the tail) entry due strictly later.
        let at = self
            .entries
            .iter()
            .rposition(|e| e.time > time)
            .map_or(0, |i| i + 1);
        self.entries.insert(at, Entry { time, seq, event });
    }

    /// Schedules `event` to fire `delay` after [`CalendarQueue::now`].
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedules a whole burst of events, appending them all and sorting
    /// once — the fast path for seeding a simulation or replaying a
    /// fault/arrival timeline.
    ///
    /// Semantically identical to calling [`CalendarQueue::schedule`] per
    /// item (same FIFO tie-breaking, same pop order).
    ///
    /// # Examples
    ///
    /// ```
    /// use jetsim_des::{CalendarQueue, SimTime};
    ///
    /// let mut q = CalendarQueue::new();
    /// q.schedule_batch((0..100u64).map(|i| (SimTime::from_nanos(1_000 - i), i)));
    /// assert_eq!(q.len(), 100);
    /// assert_eq!(q.pop().unwrap().1, 99); // earliest timestamp wins
    /// ```
    pub fn schedule_batch<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        let before = self.entries.len();
        for (time, event) in iter {
            let seq = self.next_seq();
            self.entries.push(Entry { time, seq, event });
        }
        if self.entries.len() > before {
            // Keys are unique (seq is), so an unstable sort is exact.
            self.entries
                .sort_unstable_by_key(|e| Reverse((e.time, e.seq)));
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Popping advances [`CalendarQueue::now`] to the popped timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.entries.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| e.time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all pending events and resets the queue to its freshly
    /// constructed state: [`CalendarQueue::now`] returns to
    /// [`SimTime::ZERO`] and sequence numbering restarts —
    /// `schedule_after` behaves exactly as on a new queue. The allocation
    /// is retained.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn far_off_timer_waits_behind_a_kernel_chain() {
        // The hot-path shape: one timer far ahead at the head of the list
        // while a chain of near events is scheduled and popped in front
        // of it.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(1_000_000), u64::MAX);
        q.schedule(SimTime::from_nanos(3), 0);
        for i in 0..100u64 {
            let (t, e) = q.pop().unwrap();
            assert_eq!(e, i);
            q.schedule(t + SimDuration::from_nanos(1_000), i + 1);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, 100);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(1_000_000), u64::MAX));
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_into_the_past_pops_first() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(1_000), "later");
        q.schedule(SimTime::from_nanos(500), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // Schedule before `now` and between it and the pending event.
        q.schedule(SimTime::from_nanos(700), "future");
        q.schedule(SimTime::from_nanos(100), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "future");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn end_of_time_ties_stay_fifo() {
        // Events a few nanoseconds short of the end of time, and ties at
        // the very last instant, in FIFO order.
        let end = u64::MAX;
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(end), "last-a");
        q.schedule(SimTime::from_nanos(end - 3), "first");
        q.schedule(SimTime::from_nanos(end), "last-b");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(end - 3)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(end - 3), "first"));
        q.schedule(SimTime::from_nanos(end - 1), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(end), "last-a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(end), "last-b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn batch_merges_into_pending_events() {
        // A batch lands among events already pending and ties with them
        // in scheduling order.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(70), "b");
        q.schedule_batch([
            (SimTime::from_nanos(90), "d"),
            (SimTime::from_nanos(40), "a"),
            (SimTime::from_nanos(70), "c"),
        ]);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(40)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn schedule_after_uses_pop_time() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(100), 0);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(100));
        q.schedule_after(SimDuration::from_nanos(25), 1);
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(125));
    }

    #[test]
    fn clear_restores_fresh_queue_semantics() {
        // Regression: `clear` used to leave `now`, the calendar day and
        // the sequence counter stale, so `schedule_after` after a clear
        // was relative to the old pop time.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(5_000_000), "late");
        q.pop();
        q.clear();
        assert_eq!(q.now(), SimTime::ZERO, "cleared queue reads like new");
        q.schedule_after(SimDuration::from_nanos(10), "fresh");
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(10));
        // Scheduling into what used to be "the past" needs no rewind.
        q.clear();
        q.schedule(SimTime::from_nanos(1), "early");
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(1), "early"));
    }

    #[test]
    fn entry_layout_is_two_words_plus_payload() {
        // The slab story: an entry is exactly (time, seq) plus payload —
        // no discriminants, boxes or padding surprises.
        use std::mem::size_of;
        assert_eq!(size_of::<Entry<()>>(), 16);
        assert_eq!(size_of::<Entry<u64>>(), 24);
    }
}
