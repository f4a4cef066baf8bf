//! A bucketed calendar queue: a future-event list tuned for the dense,
//! near-horizon event mix a GPU FIFO produces.
//!
//! [`CalendarQueue`] pops in the order of a binary min-heap keyed by
//! `(time, insertion seq)` — earliest timestamp first, FIFO on ties (the
//! test suite checks it against exactly such a heap) — but with a
//! different underlying structure. Instead of a binary heap it keeps a
//! circular array of time buckets ("days" on a wrapping calendar). When
//! most events land within a few bucket-widths of the current time (as in
//! a simulator dominated by back-to-back kernel completions), `schedule`
//! is an append and `pop` is an `O(1)` pop from a sorted bucket's tail.
//!
//! # Hot-path structure
//!
//! Three mechanisms keep the per-event cost flat:
//!
//! * **Lazily-sorted buckets.** Each bucket accumulates appends unsorted
//!   and is sorted *descending* by `(time, seq)` the first time a pop (or
//!   peek) needs its minimum — which then sits at the tail, so draining a
//!   day is a run of `Vec::pop`s. Rust's adaptive sort makes the re-sort
//!   after a few interleaved appends nearly free.
//! * **A cached next-event cursor.** The queue remembers the exact global
//!   minimum `(time, seq, slot)`. Schedules can only *improve* it (a new
//!   earlier event replaces it in `O(1)`); a pop refreshes it from the
//!   same bucket's new tail when the next event shares the popped day —
//!   the overwhelmingly common case — and only otherwise falls back to a
//!   calendar scan.
//! * **Batch scheduling.** [`CalendarQueue::schedule_batch`] (also behind
//!   `Extend`) appends a whole burst of events while deferring every sort
//!   and touching the cursor once.
//!
//! Events far beyond the calendar's horizon are still handled correctly:
//! a scan that finds nothing within one full rotation falls back to a
//! sweep of the bucket minima, which is cheap precisely because the queue
//! is sparse in that regime.

use crate::time::{SimDuration, SimTime};

/// Default log₂ of the bucket width in nanoseconds (2¹² ns ≈ 4.1 µs),
/// matching the typical inter-completion gap of concurrent inference
/// kernels.
pub const DEFAULT_WIDTH_SHIFT: u32 = 12;

/// Default number of buckets (must be a power of two). With the default
/// width this spans ≈ 1 ms per rotation.
pub const DEFAULT_BUCKETS: usize = 256;

/// Bounds for the auto-tuned geometry ([`CalendarQueue::with_tuned`]):
/// bucket widths between 2⁶ ns (64 ns) and 2²⁰ ns (≈ 1 ms), bucket
/// counts between 64 and 4096.
const TUNED_WIDTH_SHIFT_RANGE: (u32, u32) = (6, 20);
const TUNED_BUCKET_RANGE: (usize, usize) = (64, 4096);

/// A deterministic bucketed future-event list: earliest timestamp
/// first, FIFO on ties.
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
    buckets: Vec<Bucket<E>>,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: u64,
    /// log₂ of the bucket width in nanoseconds.
    width_shift: u32,
    /// Lower bound on the "day" (`time >> width_shift`) of any pending
    /// event.
    cur_day: u64,
    len: usize,
    seq: u64,
    now: SimTime,
    /// The exact global minimum `(time, seq, slot)` when known.
    /// Schedules only ever improve it; pops refresh or drop it.
    cursor: Option<Cursor>,
}

#[derive(Debug, Clone, Copy)]
struct Cursor {
    time: SimTime,
    seq: u64,
    slot: usize,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// One calendar day-slot: appends accumulate unsorted; the first access
/// that needs the minimum sorts *descending* by `(time, seq)` so the
/// minimum sits at the tail and pops are `Vec::pop`.
#[derive(Debug, Clone)]
struct Bucket<E> {
    entries: Vec<Entry<E>>,
    sorted: bool,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket {
            entries: Vec::new(),
            sorted: true,
        }
    }

    /// Sorts the bucket descending by `(time, seq)` if it is dirty, so
    /// the minimum entry is `entries.last()`.
    #[inline]
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            self.sorted = true;
        }
    }

    /// The bucket's minimum `(time, seq)` without mutating: `O(1)` when
    /// sorted, a linear scan when dirty (read-only peek path).
    fn min_key(&self) -> Option<(SimTime, u64)> {
        if self.sorted {
            self.entries.last().map(|e| (e.time, e.seq))
        } else {
            self.entries.iter().map(|e| (e.time, e.seq)).min()
        }
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with the default geometry.
    pub fn new() -> Self {
        Self::with_params(DEFAULT_WIDTH_SHIFT, DEFAULT_BUCKETS)
    }

    /// Creates an empty queue with the default geometry and space for
    /// roughly `capacity` events spread across the buckets.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.reserve(capacity);
        q
    }

    /// Creates an empty queue with a custom geometry.
    ///
    /// `width_shift` is log₂ of the bucket width in nanoseconds;
    /// `buckets` must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or not a power of two, or if
    /// `width_shift >= 64`.
    pub fn with_params(width_shift: u32, buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two, got {buckets}"
        );
        assert!(width_shift < 64, "width_shift must be < 64");
        CalendarQueue {
            buckets: (0..buckets).map(|_| Bucket::new()).collect(),
            mask: buckets as u64 - 1,
            width_shift,
            cur_day: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            cursor: None,
        }
    }

    /// Creates an empty queue with a geometry derived from the workload:
    /// bucket width snapped to the expected inter-event gap (so one day
    /// holds roughly one event per process) and bucket count sized to the
    /// expected pending-event population (so one rotation comfortably
    /// spans the event horizon). Both are clamped to sane bounds; any
    /// geometry yields identical pop order, tuning only affects speed.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetsim_des::{CalendarQueue, SimDuration, SimTime};
    ///
    /// // ~2 µs between events, ~32 pending at any instant.
    /// let mut q = CalendarQueue::with_tuned(SimDuration::from_micros(2), 32);
    /// q.schedule(SimTime::from_nanos(10), "still ordered");
    /// assert_eq!(q.pop().unwrap().1, "still ordered");
    /// ```
    pub fn with_tuned(expected_gap: SimDuration, expected_pending: usize) -> Self {
        let gap_ns = expected_gap.as_nanos().max(1);
        let (lo_shift, hi_shift) = TUNED_WIDTH_SHIFT_RANGE;
        let width_shift = gap_ns.ilog2().clamp(lo_shift, hi_shift);
        let (lo_buckets, hi_buckets) = TUNED_BUCKET_RANGE;
        let buckets = expected_pending
            .saturating_mul(4)
            .next_power_of_two()
            .clamp(lo_buckets, hi_buckets);
        let mut q = Self::with_params(width_shift, buckets);
        q.reserve(expected_pending);
        q
    }

    /// Reserves space for roughly `additional` more events, spread evenly
    /// across the buckets.
    pub fn reserve(&mut self, additional: usize) {
        let per_bucket = additional / self.buckets.len() + 1;
        for bucket in &mut self.buckets {
            bucket.entries.reserve(per_bucket);
        }
    }

    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_nanos() >> self.width_shift
    }

    /// The timestamp of the most recently popped event — the queue's
    /// notion of "now". Starts at [`SimTime::ZERO`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Appends one entry without touching the cursor. Returns the slot.
    #[inline]
    fn push_entry(&mut self, time: SimTime, event: E) -> (usize, u64) {
        let day = self.day_of(time);
        if day < self.cur_day {
            // Scheduling into the past (relative to the cursor) rewinds
            // the calendar so the lower-bound invariant holds.
            self.cur_day = day;
        }
        let slot = (day & self.mask) as usize;
        let seq = self.seq;
        self.seq += 1;
        let bucket = &mut self.buckets[slot];
        // Appending a key smaller than the current tail minimum keeps the
        // descending order; anything else dirties the bucket for a lazy
        // re-sort on its next pop.
        if bucket.sorted {
            if let Some(last) = bucket.entries.last() {
                if (time, seq) >= (last.time, last.seq) {
                    bucket.sorted = false;
                }
            }
        }
        bucket.entries.push(Entry { time, seq, event });
        self.len += 1;
        (slot, seq)
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant are delivered in the order
    /// they were scheduled.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let (slot, seq) = self.push_entry(time, event);
        // A schedule can only *improve* the cached minimum: a tie loses
        // to the cached entry's older seq, so strict `<` is exact. With a
        // cold cursor the new entry is trustworthy only when it is alone.
        match self.cursor {
            Some(c) if time < c.time => self.cursor = Some(Cursor { time, seq, slot }),
            Some(_) => {}
            None if self.len == 1 => self.cursor = Some(Cursor { time, seq, slot }),
            None => {}
        }
    }

    /// Schedules `event` to fire `delay` after [`CalendarQueue::now`].
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedules a whole burst of events, deferring every bucket sort and
    /// updating the next-event cursor once at the end — the fast path for
    /// seeding a simulation or replaying a fault/arrival timeline.
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
        let iter = iter.into_iter();
        let (lower, _) = iter.size_hint();
        if lower > self.buckets.len() {
            self.reserve(lower);
        }
        let len_before = self.len;
        let mut batch_min: Option<Cursor> = None;
        for (time, event) in iter {
            let (slot, seq) = self.push_entry(time, event);
            match batch_min {
                Some(m) if time >= m.time => {}
                _ => batch_min = Some(Cursor { time, seq, slot }),
            }
        }
        // One cursor merge for the whole burst: a warm cursor survives
        // unless the batch beat it; a cold cursor can only be seeded when
        // the queue held nothing before the batch (otherwise some
        // unlocated older entry might still be the minimum).
        if let Some(m) = batch_min {
            match self.cursor {
                Some(c) if m.time < c.time => self.cursor = Some(m),
                Some(_) => {}
                None if len_before == 0 => self.cursor = Some(m),
                None => {}
            }
        }
    }

    /// Locates the next event and caches it in the cursor, lazily
    /// sorting each bucket it inspects.
    ///
    /// Scans at most one calendar rotation starting from the cursor day;
    /// within the first rotation every entry in a visited bucket belongs
    /// to the scanned day or a later epoch, so the bucket's sorted tail
    /// answers "does this day have an event?" in `O(1)`. If every pending
    /// event lies beyond the horizon, falls back to a sweep of the bucket
    /// minima. Either way the cursor ends on the global `(time, seq)`
    /// minimum, so pop order is identical to the heap's.
    fn locate(&mut self) -> Option<Cursor> {
        if let Some(c) = self.cursor {
            return Some(c);
        }
        if self.len == 0 {
            return None;
        }
        let rotations = self.buckets.len() as u64;
        for offset in 0..rotations {
            let day = self.cur_day + offset;
            let slot = (day & self.mask) as usize;
            let bucket = &mut self.buckets[slot];
            if bucket.entries.is_empty() {
                continue;
            }
            bucket.ensure_sorted();
            let tail = bucket.entries.last().expect("non-empty");
            if tail.time.as_nanos() >> self.width_shift == day {
                let found = Cursor {
                    time: tail.time,
                    seq: tail.seq,
                    slot,
                };
                // The found day is a valid new lower bound; advancing the
                // cursor day here spares future scans the empty prefix.
                self.cur_day = day;
                self.cursor = Some(found);
                return Some(found);
            }
        }
        // Sparse regime: everything is > one rotation away. Sweep the
        // bucket minima (each `O(1)` once sorted).
        let mut best: Option<Cursor> = None;
        for slot in 0..self.buckets.len() {
            let bucket = &mut self.buckets[slot];
            if bucket.entries.is_empty() {
                continue;
            }
            bucket.ensure_sorted();
            let tail = bucket.entries.last().expect("non-empty");
            let better = match best {
                None => true,
                Some(b) => (tail.time, tail.seq) < (b.time, b.seq),
            };
            if better {
                best = Some(Cursor {
                    time: tail.time,
                    seq: tail.seq,
                    slot,
                });
            }
        }
        if let Some(b) = best {
            self.cur_day = self.day_of(b.time);
        }
        self.cursor = best;
        best
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Popping advances [`CalendarQueue::now`] to the popped timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let cursor = self.locate()?;
        let day = self.day_of(cursor.time);
        let bucket = &mut self.buckets[cursor.slot];
        bucket.ensure_sorted();
        let entry = bucket.entries.pop().expect("cursor points into bucket");
        debug_assert_eq!((entry.time, entry.seq), (cursor.time, cursor.seq));
        self.len -= 1;
        self.cur_day = day;
        self.now = entry.time;
        // Same-day successor in the same bucket (the common case for a
        // dense event mix): the new tail is already the global minimum —
        // no day of this slot repeats within a rotation, and every other
        // pending event lives in a strictly later day.
        let bucket = &self.buckets[cursor.slot];
        self.cursor = match bucket.entries.last() {
            Some(next) if next.time.as_nanos() >> self.width_shift == day => Some(Cursor {
                time: next.time,
                seq: next.seq,
                slot: cursor.slot,
            }),
            _ => None,
        };
        Some((entry.time, entry.event))
    }

    /// Returns the timestamp of the earliest event without removing it.
    ///
    /// `O(1)` whenever the cursor is warm (after any pop or improving
    /// schedule); otherwise a read-only calendar scan.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(c) = self.cursor {
            return Some(c.time);
        }
        if self.len == 0 {
            return None;
        }
        let rotations = self.buckets.len() as u64;
        for offset in 0..rotations {
            let day = self.cur_day + offset;
            let slot = (day & self.mask) as usize;
            let bucket = &self.buckets[slot];
            if bucket.entries.is_empty() {
                continue;
            }
            // Read-only: use the sorted tail when clean, otherwise scan
            // for the bucket's earliest entry of this day.
            if bucket.sorted {
                let tail = bucket.entries.last().expect("non-empty");
                if tail.time.as_nanos() >> self.width_shift == day {
                    return Some(tail.time);
                }
            } else {
                let min_of_day = bucket
                    .entries
                    .iter()
                    .filter(|e| e.time.as_nanos() >> self.width_shift == day)
                    .map(|e| (e.time, e.seq))
                    .min();
                if let Some((time, _)) = min_of_day {
                    return Some(time);
                }
            }
        }
        self.buckets
            .iter()
            .filter_map(|b| b.min_key())
            .min()
            .map(|(time, _)| time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events and resets the queue to its freshly
    /// constructed state: [`CalendarQueue::now`] returns to
    /// [`SimTime::ZERO`], the calendar cursor rewinds, and sequence
    /// numbering restarts — `schedule_after` behaves exactly as on a new
    /// queue. Bucket allocations are retained.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.entries.clear();
            bucket.sorted = true;
        }
        self.len = 0;
        self.seq = 0;
        self.cur_day = 0;
        self.now = SimTime::ZERO;
        self.cursor = None;
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for CalendarQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        self.schedule_batch(iter);
    }
}

impl<E> FromIterator<(SimTime, E)> for CalendarQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = CalendarQueue::new();
        q.schedule_batch(iter);
        q
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
    fn far_future_events_survive_the_horizon() {
        // One rotation spans mask+1 days; schedule far beyond it.
        let mut q = CalendarQueue::with_params(4, 8); // width 16 ns, 8 buckets
        q.schedule(SimTime::from_nanos(1_000_000), "far");
        q.schedule(SimTime::from_nanos(3), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
    }

    #[test]
    fn epoch_collisions_resolve_correctly() {
        // Two events mapping to the same slot in different rotations must
        // pop in time order, not slot-scan order.
        let mut q = CalendarQueue::with_params(4, 8); // rotation = 8 * 16 ns
        let rotation = 8u64 << 4;
        q.schedule(SimTime::from_nanos(5 + rotation), "later");
        q.schedule(SimTime::from_nanos(5), "sooner");
        assert_eq!(q.pop().unwrap().1, "sooner");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn schedule_into_past_rewinds_cursor() {
        let mut q = CalendarQueue::with_params(4, 8);
        q.schedule(SimTime::from_nanos(500), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // Cursor now sits at day_of(500); schedule earlier than that.
        q.schedule(SimTime::from_nanos(100), "past");
        q.schedule(SimTime::from_nanos(600), "future");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "future");
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
    fn peek_is_read_only_yet_exact_after_batch() {
        // A batch leaves buckets dirty; peek must still report the exact
        // minimum without mutating (and repeatedly).
        let mut q = CalendarQueue::with_params(4, 8);
        q.schedule_batch([
            (SimTime::from_nanos(90), "c"),
            (SimTime::from_nanos(40), "a"),
            (SimTime::from_nanos(70), "b"),
        ]);
        let q_ref = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_nanos(40)));
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_nanos(40)));
        assert_eq!(q.pop().unwrap().1, "a");
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
    fn collect_matches_extend() {
        let events: Vec<(SimTime, u32)> = (0..20)
            .map(|i| (SimTime::from_nanos((i * 37) % 100), i as u32))
            .collect();
        let mut q: CalendarQueue<u32> = events.iter().copied().collect();
        assert_eq!(q.len(), 20);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn tuned_geometry_clamps_and_orders() {
        // Degenerate hints still produce a valid, order-correct queue.
        for (gap, pending) in [
            (SimDuration::from_nanos(0), 0usize),
            (SimDuration::from_nanos(1), 1),
            (SimDuration::from_secs(100), 1 << 20),
        ] {
            let mut q = CalendarQueue::with_tuned(gap, pending);
            q.schedule(SimTime::from_nanos(30), 3);
            q.schedule(SimTime::from_nanos(10), 1);
            q.schedule(SimTime::from_nanos(20), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        }
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
