//! The GPU scheduling decisions, one `match` on
//! [`crate::config::GpuPolicy`] per decision.
//!
//! `GpuEngine` asks the configured policy four questions over a narrow
//! [`PolicyView`] (per-process ready occupancy, priorities, SM shares,
//! the current affinity and slice age, and the clock), in dispatch
//! order:
//!
//! 1. [`GpuPolicy::pick`] names the process to serve (its ready queue
//!    is non-empty on return);
//! 2. [`GpuPolicy::spatial`] decides whether crossing processes costs a
//!    context switch (`false`, Jetson's time multiplexing) or is free
//!    (`true`, MPS-style spatial sharing);
//! 3. [`GpuPolicy::hide_fraction`] returns the span fraction hidden by
//!    co-scheduling, evaluated after the pick;
//! 4. [`GpuPolicy::preempt`] (asked when a kernel is enqueued while
//!    another runs) may name a process whose ready work justifies
//!    cancelling the in-flight kernel — see `GpuEngine::maybe_preempt`
//!    for the accounting.
//!
//! Policies decide *who* runs and *how* kernels pack; the physics —
//! kernel timing, context-switch costs, power accrual, tracing — stays
//! in `GpuEngine` and is shared by every policy.

use std::collections::VecDeque;

use jetsim_des::{SimDuration, SimTime};

use crate::config::GpuPolicy;

/// O(1) occupancy index over the per-process ready queues: one bit per
/// process, set while that process has launched kernels waiting for the
/// GPU, plus a count of set bits. Replaces the two O(n) full scans the
/// legacy `pick_process` did per dispatch (idle check and
/// `others_waiting`); kept in sync by `GpuEngine` at the four queue
/// mutation sites (enqueue, dispatch pop, preemption re-queue, and the
/// kill/restart clears).
#[derive(Debug, Clone)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    nonempty: u32,
    n: usize,
}

impl ReadySet {
    /// An empty set over `n` processes.
    pub(crate) fn new(n: usize) -> Self {
        ReadySet {
            words: vec![0; n.div_ceil(64)],
            nonempty: 0,
            n,
        }
    }

    /// Marks `pid` as having ready work (idempotent).
    #[inline]
    pub(crate) fn set(&mut self, pid: usize) {
        let (w, b) = (pid / 64, pid % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.nonempty += 1;
        }
    }

    /// Marks `pid` as drained (idempotent).
    #[inline]
    pub(crate) fn unset(&mut self, pid: usize) {
        let (w, b) = (pid / 64, pid % 64);
        if self.words[w] & (1 << b) != 0 {
            self.words[w] &= !(1 << b);
            self.nonempty -= 1;
        }
    }

    /// Whether `pid` has ready work.
    #[inline]
    pub(crate) fn contains(&self, pid: usize) -> bool {
        self.words[pid / 64] & (1 << (pid % 64)) != 0
    }

    /// Whether any process *other than* `pid` has ready work — the
    /// legacy `others_waiting` scan, now one subtract.
    #[inline]
    pub(crate) fn any_other(&self, pid: usize) -> bool {
        self.nonempty > u32::from(self.contains(pid))
    }

    /// Whether no process has ready work.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.nonempty == 0
    }

    /// The lowest-indexed process with ready work — the legacy
    /// no-affinity `(0..n).find(..)` scan.
    #[inline]
    pub(crate) fn first(&self) -> Option<usize> {
        if self.nonempty == 0 {
            return None;
        }
        // The cyclic order after the last process starts at process 0.
        self.cyclic_scan(self.n - 1, None)
    }

    /// The first ready process after `cur` in cyclic order, wrapping
    /// round to `cur` itself as the final candidate — exactly the legacy
    /// `for offset in 1..=n { (cur + offset) % n }` probe.
    #[inline]
    pub(crate) fn next_cyclic(&self, cur: usize) -> Option<usize> {
        if self.nonempty == 0 {
            return None;
        }
        self.cyclic_scan(cur, None)
    }

    /// [`ReadySet::next_cyclic`] over only the processes also in
    /// `within`, a set over the same processes.
    #[inline]
    pub(crate) fn next_cyclic_in(&self, cur: usize, within: &ReadySet) -> Option<usize> {
        self.cyclic_scan(cur, Some(within))
    }

    /// First set bit after `cur` in cyclic order, `cur` itself last,
    /// counting only bits also in `within` when given: the bits above
    /// `cur` in its word, the later words, the earlier words, then the
    /// bits up to and including `cur`. Forced inline: `priority` scans
    /// twice per kernel, and the call cost more than the scan.
    #[inline(always)]
    fn cyclic_scan(&self, cur: usize, within: Option<&ReadySet>) -> Option<usize> {
        let word = |w: usize| self.words[w] & within.map_or(!0, |m| m.words[w]);
        let first = |w: usize, bits: u64| w * 64 + bits.trailing_zeros() as usize;
        let (cur_w, above) = (cur / 64, !1u64 << (cur % 64));
        let here = word(cur_w);
        if here & above != 0 {
            return Some(first(cur_w, here & above));
        }
        for w in (cur_w + 1..self.words.len()).chain(0..cur_w) {
            if word(w) != 0 {
                return Some(first(w, word(w)));
            }
        }
        (here & !above != 0).then(|| first(cur_w, here & !above))
    }

    /// Iterates the ready process ids in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// One set per distinct priority level, highest level first, holding
/// the processes at that level: what `priority` scans, built once from
/// the static per-process priorities.
pub(crate) fn priority_levels(priorities: &[u8]) -> Vec<ReadySet> {
    let mut levels = priorities.to_vec();
    levels.sort_unstable_by(|a, b| b.cmp(a));
    levels.dedup();
    levels
        .into_iter()
        .map(|level| {
            let mut set = ReadySet::new(priorities.len());
            (0..priorities.len())
                .filter(|&pid| priorities[pid] == level)
                .for_each(|pid| set.set(pid));
            set
        })
        .collect()
}

/// The narrow, read-only window a policy sees at each decision point.
/// Policies must base decisions only on this view — never on trace or
/// RNG state — so the default path stays byte-identical and every
/// policy is replayable.
pub(crate) struct PolicyView<'a> {
    /// The decision instant.
    pub now: SimTime,
    /// Process whose queue the GPU last served (timeslice affinity).
    pub affinity: Option<usize>,
    /// When the current timeslice started.
    pub slice_start: SimTime,
    /// The device's GPU timeslice length.
    pub timeslice: SimDuration,
    /// Per-process ready occupancy.
    pub ready: &'a ReadySet,
    /// Per-process priority levels (higher wins; from the config).
    pub priorities: &'a [u8],
    /// The processes at each distinct priority level, highest first
    /// (see [`priority_levels`]).
    pub levels: &'a [ReadySet],
    /// Per-process SM share weights (from the config; default 1.0).
    pub sm_shares: &'a [f64],
}

impl GpuPolicy {
    /// Chooses which process's queue the GPU serves next.
    ///
    /// * `rr` and `SpatialMps` keep timeslice affinity: stay with the
    ///   current process until its queue empties or its timeslice
    ///   expires while others wait, then rotate.
    /// * `fifo` drains `fifo_log`, the global kernel-arrival order, with
    ///   no affinity. `GpuEngine` appends one entry per enqueued kernel
    ///   and drops a wiped queue's entries; only `fifo` reads the log.
    /// * `priority` serves the highest-priority ready process; ties
    ///   rotate round-robin from the last-served one. Saturated
    ///   high-priority work starves lower levels by design.
    /// * `mps` rotates on every dispatch (serialising what real hardware
    ///   runs concurrently).
    pub(crate) fn pick(
        &self,
        view: &PolicyView<'_>,
        fifo_log: &mut VecDeque<u32>,
    ) -> Option<usize> {
        match self {
            GpuPolicy::TimesliceRR | GpuPolicy::SpatialMps { .. } => {
                let Some(cur) = view.affinity else {
                    return view.ready.first();
                };
                let slice_ok = view.now.saturating_since(view.slice_start) < view.timeslice;
                let others_waiting = view.ready.any_other(cur);
                if view.ready.contains(cur) && (slice_ok || !others_waiting) {
                    return Some(cur);
                }
                view.ready.next_cyclic(cur)
            }
            GpuPolicy::Fifo => {
                // Entries for wiped queues (kills, restarts) are removed
                // by `GpuEngine::clear_ready`; the occupancy check below
                // is belt-and-braces.
                while let Some(pid) = fifo_log.pop_front() {
                    if view.ready.contains(pid as usize) {
                        return Some(pid as usize);
                    }
                }
                None
            }
            GpuPolicy::Priority { .. } => highest_priority(view),
            GpuPolicy::FractionalMps { .. } => match view.affinity {
                Some(cur) => view.ready.next_cyclic(cur),
                None => view.ready.first(),
            },
        }
    }

    /// Whether kernels from different processes share the GPU spatially:
    /// crossing processes is free under the two MPS variants and costs a
    /// context switch otherwise (time multiplexing is a hardware
    /// property, not a dispatch order).
    pub(crate) fn spatial(&self) -> bool {
        matches!(
            self,
            GpuPolicy::FractionalMps { .. } | GpuPolicy::SpatialMps { .. }
        )
    }

    /// Fraction of `pid`'s dispatched kernel span hidden by co-scheduling
    /// against other processes' queued work, or `None` to run it whole.
    ///
    /// `SpatialMps` hides the flat `overlap_efficiency` whenever another
    /// process is ready. `mps` weights it by the share mass of the
    /// *other* ready processes: a process holding most of the SMs leaves
    /// little room for co-scheduling and packs poorly, a small-share
    /// tenant overlaps almost fully, and equal shares against one waiter
    /// hide half of it.
    pub(crate) fn hide_fraction(&self, pid: usize, view: &PolicyView<'_>) -> Option<f64> {
        match *self {
            GpuPolicy::SpatialMps { overlap_efficiency } => {
                view.ready.any_other(pid).then_some(overlap_efficiency)
            }
            GpuPolicy::FractionalMps { overlap_efficiency } => {
                let own = view.sm_shares[pid];
                let others: f64 = view
                    .ready
                    .iter()
                    .filter(|&q| q != pid)
                    .map(|q| view.sm_shares[q])
                    .sum();
                if others <= 0.0 {
                    return None;
                }
                let contending = others / (own + others);
                Some(overlap_efficiency * contending)
            }
            GpuPolicy::TimesliceRR | GpuPolicy::Fifo | GpuPolicy::Priority { .. } => None,
        }
    }

    /// While `inflight_pid`'s kernel runs: the process whose ready work
    /// cancels it, and the stall charged ahead of the next dispatch
    /// (context save/discard). Only `priority` preempts, and only for a
    /// strictly higher level.
    pub(crate) fn preempt(
        &self,
        inflight_pid: usize,
        view: &PolicyView<'_>,
    ) -> Option<(usize, SimDuration)> {
        let GpuPolicy::Priority { preempt_penalty } = *self else {
            return None;
        };
        // Nothing outranks a kernel at the top level.
        if view.levels.first()?.contains(inflight_pid) {
            return None;
        }
        let best = highest_priority(view)?;
        (view.priorities[best] > view.priorities[inflight_pid]).then_some((best, preempt_penalty))
    }
}

/// Highest-priority ready process; ties go to the next such process
/// after the affinity (process 0 without one) in cyclic order, fair
/// within a level. One masked word scan per level from the top.
#[inline]
fn highest_priority(view: &PolicyView<'_>) -> Option<usize> {
    if view.ready.is_empty() {
        return None;
    }
    let start = view.affinity.unwrap_or(0);
    view.levels
        .iter()
        .find_map(|level| view.ready.next_cyclic_in(start, level))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A view with no priority levels: the `priority` tests set
    /// `levels` from [`priority_levels`] over the same priorities.
    fn view<'a>(
        ready: &'a ReadySet,
        priorities: &'a [u8],
        shares: &'a [f64],
        affinity: Option<usize>,
        slice_age_ns: u64,
    ) -> PolicyView<'a> {
        PolicyView {
            now: SimTime::from_nanos(1_000_000 + slice_age_ns),
            affinity,
            slice_start: SimTime::from_nanos(1_000_000),
            timeslice: SimDuration::from_micros(500),
            ready,
            priorities,
            levels: &[],
            sm_shares: shares,
        }
    }

    #[test]
    fn ready_set_tracks_occupancy() {
        let mut s = ReadySet::new(130);
        assert!(s.is_empty() && s.first().is_none());
        s.set(0);
        s.set(129);
        s.set(129); // idempotent
        assert_eq!(s.first(), Some(0));
        assert!(s.contains(129) && !s.contains(64));
        assert!(s.any_other(0) && s.any_other(5));
        s.unset(0);
        assert_eq!(s.first(), Some(129));
        assert!(!s.any_other(129));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
        s.unset(129);
        s.unset(129); // idempotent
        assert!(s.is_empty());
    }

    #[test]
    fn next_cyclic_wraps_and_includes_cur_last() {
        let mut s = ReadySet::new(4);
        s.set(1);
        assert_eq!(s.next_cyclic(1), Some(1), "cur is the final candidate");
        s.set(3);
        assert_eq!(s.next_cyclic(1), Some(3));
        assert_eq!(s.next_cyclic(3), Some(1), "wraps past the end");
        assert_eq!(s.next_cyclic(0), Some(1));
    }

    #[test]
    fn timeslice_rr_sticks_within_slice() {
        let mut s = ReadySet::new(3);
        s.set(0);
        s.set(1);
        let prios = [0u8; 3];
        let shares = [1.0; 3];
        let mut log = VecDeque::new();
        let p = GpuPolicy::TimesliceRR;
        // Within the slice the GPU stays with its process even though
        // another waits.
        assert_eq!(
            p.pick(&view(&s, &prios, &shares, Some(0), 0), &mut log),
            Some(0)
        );
        // Slice expired with others waiting: rotate.
        assert_eq!(
            p.pick(&view(&s, &prios, &shares, Some(0), 600_000), &mut log),
            Some(1)
        );
        // Slice expired but nobody else waits: stay.
        s.unset(1);
        assert_eq!(
            p.pick(&view(&s, &prios, &shares, Some(0), 600_000), &mut log),
            Some(0)
        );
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut s = ReadySet::new(3);
        let prios = [0u8; 3];
        let shares = [1.0; 3];
        let mut log = VecDeque::new();
        for pid in [2usize, 0, 2] {
            s.set(pid);
            log.push_back(pid as u32);
        }
        let v = view(&s, &prios, &shares, None, 0);
        assert_eq!(GpuPolicy::Fifo.pick(&v, &mut log), Some(2));
        assert_eq!(GpuPolicy::Fifo.pick(&v, &mut log), Some(0));
        assert_eq!(GpuPolicy::Fifo.pick(&v, &mut log), Some(2));
    }

    #[test]
    fn fifo_drops_cleared_entries() {
        let mut s = ReadySet::new(2);
        let prios = [0u8; 2];
        let shares = [1.0; 2];
        let mut log = VecDeque::from([0, 1]);
        s.set(0);
        s.set(1);
        // Process 0 is killed: its queue is wiped but its log entry
        // remains. The pick skips and drops it.
        s.unset(0);
        let v = view(&s, &prios, &shares, None, 0);
        assert_eq!(GpuPolicy::Fifo.pick(&v, &mut log), Some(1));
        assert!(log.is_empty(), "{log:?}");
    }

    #[test]
    fn priority_levels_are_highest_first() {
        let levels = priority_levels(&[1, 5, 1, 0, 5]);
        let members: Vec<Vec<usize>> = levels.iter().map(|l| l.iter().collect()).collect();
        assert_eq!(members, vec![vec![1, 4], vec![0, 2], vec![3]]);
    }

    #[test]
    fn priority_picks_highest_and_preempts_lower() {
        let mut s = ReadySet::new(3);
        let prios = [0u8, 5, 1];
        let levels = priority_levels(&prios);
        let shares = [1.0; 3];
        let penalty = SimDuration::from_micros(20);
        let p = GpuPolicy::Priority {
            preempt_penalty: penalty,
        };
        let mut log = VecDeque::new();
        s.set(0);
        s.set(2);
        let v = PolicyView {
            levels: &levels,
            ..view(&s, &prios, &shares, None, 0)
        };
        assert_eq!(p.pick(&v, &mut log), Some(2));
        // Higher-priority work arrives: it both wins the pick and
        // justifies cancelling an in-flight lower-priority kernel.
        s.set(1);
        let v = PolicyView {
            levels: &levels,
            ..view(&s, &prios, &shares, None, 0)
        };
        assert_eq!(p.pick(&v, &mut log), Some(1));
        assert_eq!(p.preempt(0, &v), Some((1, penalty)));
        assert_eq!(p.preempt(1, &v), None, "equal priority never preempts");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The original `GpuEngine::pick_process` scan,
        /// re-implemented naively as the reference: stay with the
        /// affine process while its queue is non-empty and either its
        /// slice is fresh or nobody else waits, else probe `(cur +
        /// offset) % n` for `offset in 1..=n`; with no affinity, take
        /// the lowest ready pid.
        fn legacy_pick(ready: &[bool], view: &PolicyView<'_>) -> Option<usize> {
            let n = ready.len();
            if let Some(cur) = view.affinity {
                let slice_ok = view.now.saturating_since(view.slice_start) < view.timeslice;
                let others_waiting = (0..n).any(|p| p != cur && ready[p]);
                if ready[cur] && (slice_ok || !others_waiting) {
                    return Some(cur);
                }
                (1..=n).map(|o| (cur + o) % n).find(|&p| ready[p])
            } else {
                (0..n).find(|&p| ready[p])
            }
        }

        /// The original `highest_priority` scan, kept as the reference:
        /// the best ready level, then the `(start + offset) % n` probe
        /// for `offset in 1..=n` from the affinity (process 0 without
        /// one).
        fn legacy_highest_priority(
            ready: &[bool],
            priorities: &[u8],
            affinity: Option<usize>,
        ) -> Option<usize> {
            let n = ready.len();
            let best = (0..n).filter(|&p| ready[p]).map(|p| priorities[p]).max()?;
            let start = affinity.unwrap_or(0);
            (1..=n)
                .map(|offset| (start + offset) % n)
                .find(|&p| ready[p] && priorities[p] == best)
        }

        fn ready_set(flags: &[bool]) -> ReadySet {
            let mut s = ReadySet::new(flags.len());
            for (pid, &r) in flags.iter().enumerate() {
                if r {
                    s.set(pid);
                }
            }
            s
        }

        proptest! {
            /// `rr` over the bitset matches the legacy scan
            /// decision-for-decision on every (occupancy, affinity,
            /// slice-age) state — including sets wider than one word —
            /// and `SpatialMps` picks what `rr` picks.
            #[test]
            fn timeslice_rr_matches_legacy(
                flags in proptest::collection::vec(any::<bool>(), 1..130),
                affinity_seed in any::<usize>(),
                slice_age_ns in 0u64..1_000_000,
            ) {
                let n = flags.len();
                let slot = affinity_seed % (n + 1);
                let affinity = (slot < n).then_some(slot);
                let s = ready_set(&flags);
                let prios = vec![0u8; n];
                let shares = vec![1.0; n];
                let v = view(&s, &prios, &shares, affinity, slice_age_ns);
                for policy in [
                    GpuPolicy::TimesliceRR,
                    GpuPolicy::SpatialMps { overlap_efficiency: 0.3 },
                ] {
                    prop_assert_eq!(
                        policy.pick(&v, &mut VecDeque::new()),
                        legacy_pick(&flags, &v)
                    );
                }
            }

            /// `priority` never names a process while some
            /// higher-priority process has ready work — for the pick
            /// and for the preemption question alike.
            #[test]
            fn priority_never_runs_lower_while_higher_ready(
                flags in proptest::collection::vec(any::<bool>(), 1..40),
                prios in proptest::collection::vec(0u8..8, 40),
                affinity_seed in any::<usize>(),
            ) {
                let n = flags.len();
                let slot = affinity_seed % (n + 1);
                let affinity = (slot < n).then_some(slot);
                let s = ready_set(&flags);
                let prios = &prios[..n];
                let levels = priority_levels(prios);
                let shares = vec![1.0; n];
                let v = PolicyView { levels: &levels, ..view(&s, prios, &shares, affinity, 0) };
                let best_ready = (0..n).filter(|&p| flags[p]).map(|p| prios[p]).max();
                let policy = GpuPolicy::Priority {
                    preempt_penalty: SimDuration::from_micros(20),
                };
                if let Some(picked) = policy.pick(&v, &mut VecDeque::new()) {
                    prop_assert!(flags[picked], "picked a drained queue");
                    prop_assert_eq!(Some(prios[picked]), best_ready);
                }
                for inflight in 0..n {
                    if let Some((by, _)) = policy.preempt(inflight, &v) {
                        prop_assert!(prios[by] > prios[inflight]);
                        prop_assert_eq!(Some(prios[by]), best_ready);
                    } else if let Some(best) = best_ready {
                        prop_assert!(
                            best <= prios[inflight],
                            "declined to preempt {inflight} though priority {best} waits"
                        );
                    }
                }
            }

            /// `priority` over the per-level masks matches the legacy
            /// modulo scan decision-for-decision, for the pick and for
            /// the preemption question from every in-flight process, on
            /// every (occupancy, priorities, affinity) state: sets wider
            /// than one word, one level or up to 256.
            #[test]
            fn priority_matches_legacy_scan(
                flags in proptest::collection::vec(any::<bool>(), 1..150),
                raw in proptest::collection::vec(any::<u8>(), 150),
                level_count in 1u16..=256,
                affinity_seed in any::<usize>(),
            ) {
                let n = flags.len();
                let slot = affinity_seed % (n + 1);
                let affinity = (slot < n).then_some(slot);
                let s = ready_set(&flags);
                let prios: Vec<u8> =
                    raw[..n].iter().map(|&p| (u16::from(p) % level_count) as u8).collect();
                let levels = priority_levels(&prios);
                let shares = vec![1.0; n];
                let v = PolicyView { levels: &levels, ..view(&s, &prios, &shares, affinity, 0) };
                let penalty = SimDuration::from_micros(20);
                let policy = GpuPolicy::Priority { preempt_penalty: penalty };
                let legacy = legacy_highest_priority(&flags, &prios, affinity);
                prop_assert_eq!(policy.pick(&v, &mut VecDeque::new()), legacy);
                for inflight in 0..n {
                    let legacy_cut = legacy
                        .filter(|&best| prios[best] > prios[inflight])
                        .map(|best| (best, penalty));
                    prop_assert_eq!(policy.preempt(inflight, &v), legacy_cut);
                }
            }

            /// [`ReadySet`] agrees with a naive `Vec<bool>` model under
            /// arbitrary set/unset interleavings, on every query.
            #[test]
            fn ready_set_matches_boolean_model(
                n in 1usize..200,
                ops in proptest::collection::vec((any::<bool>(), any::<usize>()), 0..64),
                probe in any::<usize>(),
            ) {
                let mut s = ReadySet::new(n);
                let mut model = vec![false; n];
                for (set, pid_seed) in ops {
                    let pid = pid_seed % n;
                    if set { s.set(pid); model[pid] = true; }
                    else { s.unset(pid); model[pid] = false; }
                }
                let probe = probe % n;
                prop_assert_eq!(s.is_empty(), model.iter().all(|&r| !r));
                prop_assert_eq!(s.contains(probe), model[probe]);
                prop_assert_eq!(
                    s.any_other(probe),
                    (0..n).any(|p| p != probe && model[p])
                );
                prop_assert_eq!(s.first(), (0..n).find(|&p| model[p]));
                prop_assert_eq!(
                    s.next_cyclic(probe),
                    (1..=n).map(|o| (probe + o) % n).find(|&p| model[p])
                );
                let evens = ready_set(&(0..n).map(|p| p % 2 == 0).collect::<Vec<_>>());
                prop_assert_eq!(
                    s.next_cyclic_in(probe, &evens),
                    (1..=n).map(|o| (probe + o) % n).find(|&p| model[p] && p % 2 == 0)
                );
                prop_assert_eq!(
                    s.iter().collect::<Vec<_>>(),
                    (0..n).filter(|&p| model[p]).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn fractional_mps_weights_overlap_by_contending_share() {
        let mut s = ReadySet::new(2);
        s.set(0);
        s.set(1);
        let prios = [0u8; 2];
        let shares = [3.0, 1.0];
        let p = GpuPolicy::FractionalMps {
            overlap_efficiency: 0.4,
        };
        let spatial = GpuPolicy::SpatialMps {
            overlap_efficiency: 0.4,
        };
        let v = view(&s, &prios, &shares, None, 0);
        // The big-share process sees little contention mass…
        let big = p.hide_fraction(0, &v).unwrap();
        assert!((big - 0.4 * 0.25).abs() < 1e-12, "{big}");
        // …the small-share one overlaps against three times its mass.
        let small = p.hide_fraction(1, &v).unwrap();
        assert!((small - 0.4 * 0.75).abs() < 1e-12, "{small}");
        // `SpatialMps` ignores shares and hides the flat overlap.
        assert_eq!(spatial.hide_fraction(0, &v), Some(0.4));
        assert_eq!(spatial.hide_fraction(1, &v), Some(0.4));
        // Equal shares against one waiter hide half the overlap, not
        // all of it as `SpatialMps` does.
        let equal = view(&s, &prios, &[1.0, 1.0], None, 0);
        assert_eq!(p.hide_fraction(0, &equal), Some(0.4 * 0.5));
        assert_eq!(spatial.hide_fraction(0, &equal), Some(0.4));
        // Alone, nothing to pack against.
        s.unset(0);
        let alone = view(&s, &prios, &shares, None, 0);
        assert_eq!(p.hide_fraction(1, &alone), None);
        assert_eq!(spatial.hide_fraction(1, &alone), None);
    }
}
