//! Pluggable GPU scheduling policies.
//!
//! The dispatch *decision* — which process's kernel queue the GPU
//! serves next — used to be hard-wired into `GpuEngine::pick_process`
//! as timeslice-affinity round-robin. It is now a [`GpuSchedPolicy`]
//! trait over a narrow [`PolicyView`] (per-process ready occupancy,
//! priorities, SM shares, the current affinity and slice age, and the
//! clock), selected by [`crate::config::GpuPolicy`]:
//!
//! * [`TimesliceRR`] — the default, bit-for-bit identical to the
//!   pre-trait behaviour (the golden-parity suite is the referee);
//! * [`Fifo`] — global kernel-arrival order, no timeslice affinity;
//! * [`PriorityPreemptive`] — strict priority levels with in-flight
//!   kernel cancellation (see `GpuEngine::maybe_preempt`);
//! * [`FractionalMps`] — per-process SM shares with overlap packing
//!   weighted by the other ready processes' share.
//!
//! Policies decide *who* runs and *how* kernels pack; the physics —
//! kernel timing, context-switch costs, power accrual, tracing — stays
//! in `GpuEngine` and is shared by every policy.

use jetsim_des::{SimDuration, SimTime};

use crate::config::GpuSharing;

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
        self.first_in_range(0, self.n)
    }

    /// The first ready process after `cur` in cyclic order, wrapping
    /// round to `cur` itself as the final candidate — exactly the legacy
    /// `for offset in 1..=n { (cur + offset) % n }` probe.
    #[inline]
    pub(crate) fn next_cyclic(&self, cur: usize) -> Option<usize> {
        if self.nonempty == 0 {
            return None;
        }
        self.first_in_range(cur + 1, self.n)
            .or_else(|| self.first_in_range(0, (cur + 1).min(self.n)))
    }

    /// First set bit in `[lo, hi)`.
    fn first_in_range(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let (lo_w, hi_w) = (lo / 64, (hi - 1) / 64);
        for w in lo_w..=hi_w {
            let mut word = self.words[w];
            if w == lo_w {
                word &= !0u64 << (lo % 64);
            }
            if w == hi_w && !hi.is_multiple_of(64) {
                word &= !0u64 >> (64 - hi % 64);
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
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
    /// The configured sharing discipline (legacy MPS ablation knob).
    pub gpu_sharing: GpuSharing,
    /// Per-process ready occupancy.
    pub ready: &'a ReadySet,
    /// Per-process priority levels (higher wins; from the config).
    pub priorities: &'a [u8],
    /// Per-process SM share weights (from the config; default 1.0).
    pub sm_shares: &'a [f64],
}

/// One GPU scheduling discipline. Object-safe; `GpuEngine` holds a
/// `Box<dyn GpuSchedPolicy>` chosen from [`crate::config::GpuPolicy`].
///
/// The contract, in dispatch order:
///
/// 1. [`GpuSchedPolicy::pick`] names the process to serve (its ready
///    queue is guaranteed non-empty on return);
/// 2. [`GpuSchedPolicy::spatial`] decides whether crossing processes
///    costs a context switch (`false`, Jetson's time multiplexing) or
///    is free (`true`, MPS-style spatial sharing);
/// 3. [`GpuSchedPolicy::hide_fraction`] returns the span fraction
///    hidden by co-scheduling, evaluated after the kernel is popped;
/// 4. [`GpuSchedPolicy::preempt`] (consulted while a kernel is in
///    flight) may name a process whose ready work justifies cancelling
///    it — see `GpuEngine::maybe_preempt` for the accounting.
///
/// The `on_*` hooks mirror every ready-queue mutation so order-keeping
/// policies ([`Fifo`]) can maintain their own arrival log.
pub(crate) trait GpuSchedPolicy: std::fmt::Debug + Send {
    /// Chooses which process's queue the GPU serves next.
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<usize>;

    /// Whether kernels from different processes share the GPU spatially
    /// (no context-switch cost on crossing). The default mirrors the
    /// legacy [`GpuSharing`] knob.
    fn spatial(&self, view: &PolicyView<'_>) -> bool {
        matches!(view.gpu_sharing, GpuSharing::SpatialMps { .. })
    }

    /// Fraction of the dispatched kernel's span hidden by co-scheduling
    /// against other processes' queued work, or `None` to run it whole.
    /// The default mirrors the legacy [`GpuSharing::SpatialMps`] shrink.
    fn hide_fraction(&self, pid: usize, view: &PolicyView<'_>) -> Option<f64> {
        match view.gpu_sharing {
            GpuSharing::TimeMultiplexed => None,
            GpuSharing::SpatialMps { overlap_efficiency } => {
                if view.ready.any_other(pid) {
                    Some(overlap_efficiency)
                } else {
                    None
                }
            }
        }
    }

    /// While `inflight_pid`'s kernel runs: the process whose ready work
    /// should cancel it, if any. Policies returning `Some` must also
    /// report a [`GpuSchedPolicy::preempt_penalty`].
    fn preempt(&self, _inflight_pid: usize, _view: &PolicyView<'_>) -> Option<usize> {
        None
    }

    /// Stall charged ahead of the next dispatch after a cancellation
    /// (context save/discard of the cancelled kernel).
    fn preempt_penalty(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// A kernel of `pid` was enqueued at the back of its ready queue.
    fn on_ready(&mut self, _pid: usize) {}

    /// A cancelled kernel of `pid` was re-queued at the *front* of its
    /// ready queue (it is the next kernel its stream must run).
    fn on_requeue_front(&mut self, _pid: usize) {}

    /// `pid`'s ready queue was wiped (OOM kill or replica restart).
    fn on_cleared(&mut self, _pid: usize) {}
}

/// Timeslice-affinity round-robin — the pre-trait behaviour, extracted
/// decision-for-decision: stay with the current process until its queue
/// empties or its timeslice expires while others wait, then rotate.
#[derive(Debug, Default)]
pub(crate) struct TimesliceRR;

impl GpuSchedPolicy for TimesliceRR {
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<usize> {
        if let Some(cur) = view.affinity {
            let slice_ok = view.now.saturating_since(view.slice_start) < view.timeslice;
            let others_waiting = view.ready.any_other(cur);
            if view.ready.contains(cur) && (slice_ok || !others_waiting) {
                return Some(cur);
            }
            view.ready.next_cyclic(cur)
        } else {
            view.ready.first()
        }
    }
}

/// Global kernel-arrival order: the GPU drains launches strictly in the
/// order host threads issued them, with no timeslice affinity. Crossing
/// processes still costs a context switch (time multiplexing is a
/// hardware property, not a policy choice).
#[derive(Debug, Default)]
pub(crate) struct Fifo {
    /// One entry per enqueued kernel, in launch order.
    order: std::collections::VecDeque<u32>,
}

impl GpuSchedPolicy for Fifo {
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<usize> {
        // Entries for wiped queues (kills, restarts) are removed by
        // `on_cleared`; the occupancy check below is belt-and-braces.
        while let Some(pid) = self.order.pop_front() {
            if view.ready.contains(pid as usize) {
                return Some(pid as usize);
            }
        }
        None
    }

    fn on_ready(&mut self, pid: usize) {
        self.order.push_back(pid as u32);
    }

    fn on_requeue_front(&mut self, pid: usize) {
        self.order.push_front(pid as u32);
    }

    fn on_cleared(&mut self, pid: usize) {
        self.order.retain(|&p| p as usize != pid);
    }
}

/// Strict priority levels with preemption: the GPU always serves the
/// highest-priority process with ready work (ties rotate round-robin
/// from the last-served process), and a higher-priority arrival cancels
/// the in-flight kernel — it is re-queued to run again from scratch and
/// the GPU stalls for `preempt_penalty` (context save/discard) before
/// the next dispatch. Saturated high-priority work starves lower levels
/// by design; that is the policy's contract.
#[derive(Debug)]
pub(crate) struct PriorityPreemptive {
    penalty: SimDuration,
}

impl PriorityPreemptive {
    pub(crate) fn new(penalty: SimDuration) -> Self {
        PriorityPreemptive { penalty }
    }

    /// Highest-priority ready process; ties go to the next such process
    /// after `affinity` in cyclic order (fair within a level).
    fn best(view: &PolicyView<'_>) -> Option<usize> {
        let best_prio = view.ready.iter().map(|p| view.priorities[p]).max()?;
        let start = view.affinity.unwrap_or(0);
        let n = view.priorities.len();
        (1..=n)
            .map(|offset| (start + offset) % n)
            .find(|&pid| view.ready.contains(pid) && view.priorities[pid] == best_prio)
    }
}

impl GpuSchedPolicy for PriorityPreemptive {
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<usize> {
        Self::best(view)
    }

    fn preempt(&self, inflight_pid: usize, view: &PolicyView<'_>) -> Option<usize> {
        let best = Self::best(view)?;
        (view.priorities[best] > view.priorities[inflight_pid]).then_some(best)
    }

    fn preempt_penalty(&self) -> SimDuration {
        self.penalty
    }
}

/// MPS-style fractional spatial sharing with per-process SM shares:
/// context switches vanish, dispatch rotates round-robin (serialising
/// what real hardware runs concurrently), and each kernel's span is
/// shrunk by the overlap efficiency weighted by the share mass of the
/// *other* ready processes — a process holding most of the SMs leaves
/// little room for co-scheduling and packs poorly; a small-share tenant
/// overlaps almost fully. It does not reproduce
/// [`GpuSharing::SpatialMps`]: with equal shares and one other process
/// waiting it hides `0.5 × overlap` of a kernel, not `overlap`, and its
/// pick rotates on every dispatch where `SpatialMps` under the default
/// `rr` policy keeps timeslice affinity.
#[derive(Debug)]
pub(crate) struct FractionalMps {
    overlap_efficiency: f64,
}

impl FractionalMps {
    pub(crate) fn new(overlap_efficiency: f64) -> Self {
        FractionalMps { overlap_efficiency }
    }
}

impl GpuSchedPolicy for FractionalMps {
    fn pick(&mut self, view: &PolicyView<'_>) -> Option<usize> {
        match view.affinity {
            Some(cur) => view.ready.next_cyclic(cur),
            None => view.ready.first(),
        }
    }

    fn spatial(&self, _view: &PolicyView<'_>) -> bool {
        true
    }

    fn hide_fraction(&self, pid: usize, view: &PolicyView<'_>) -> Option<f64> {
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
        Some(self.overlap_efficiency * contending)
    }
}

/// Builds the runtime policy object for a configured
/// [`crate::config::GpuPolicy`].
pub(crate) fn make_policy(policy: &crate::config::GpuPolicy) -> Box<dyn GpuSchedPolicy> {
    use crate::config::GpuPolicy;
    match *policy {
        GpuPolicy::TimesliceRR => Box::new(TimesliceRR),
        GpuPolicy::Fifo => Box::new(Fifo::default()),
        GpuPolicy::Priority { preempt_penalty } => {
            Box::new(PriorityPreemptive::new(preempt_penalty))
        }
        GpuPolicy::FractionalMps { overlap_efficiency } => {
            Box::new(FractionalMps::new(overlap_efficiency))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            gpu_sharing: GpuSharing::TimeMultiplexed,
            ready,
            priorities,
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
        let mut p = TimesliceRR;
        // Within the slice the GPU stays with its process even though
        // another waits.
        assert_eq!(p.pick(&view(&s, &prios, &shares, Some(0), 0)), Some(0));
        // Slice expired with others waiting: rotate.
        assert_eq!(
            p.pick(&view(&s, &prios, &shares, Some(0), 600_000)),
            Some(1)
        );
        // Slice expired but nobody else waits: stay.
        s.unset(1);
        assert_eq!(
            p.pick(&view(&s, &prios, &shares, Some(0), 600_000)),
            Some(0)
        );
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut s = ReadySet::new(3);
        let prios = [0u8; 3];
        let shares = [1.0; 3];
        let mut p = Fifo::default();
        for pid in [2usize, 0, 2] {
            s.set(pid);
            p.on_ready(pid);
        }
        let v = view(&s, &prios, &shares, None, 0);
        assert_eq!(p.pick(&v), Some(2));
        assert_eq!(p.pick(&v), Some(0));
        assert_eq!(p.pick(&v), Some(2));
    }

    #[test]
    fn fifo_drops_cleared_entries() {
        let mut s = ReadySet::new(2);
        let prios = [0u8; 2];
        let shares = [1.0; 2];
        let mut p = Fifo::default();
        s.set(0);
        p.on_ready(0);
        s.set(1);
        p.on_ready(1);
        // Process 0 is killed: its queue is wiped.
        s.unset(0);
        p.on_cleared(0);
        assert_eq!(p.pick(&view(&s, &prios, &shares, None, 0)), Some(1));
    }

    #[test]
    fn priority_picks_highest_and_preempts_lower() {
        let mut s = ReadySet::new(3);
        let prios = [0u8, 5, 1];
        let shares = [1.0; 3];
        let mut p = PriorityPreemptive::new(SimDuration::from_micros(20));
        s.set(0);
        s.set(2);
        let v = view(&s, &prios, &shares, None, 0);
        assert_eq!(p.pick(&v), Some(2));
        // Higher-priority work arrives: it both wins the pick and
        // justifies cancelling an in-flight lower-priority kernel.
        s.set(1);
        let v = view(&s, &prios, &shares, None, 0);
        assert_eq!(p.pick(&v), Some(1));
        assert_eq!(p.preempt(0, &v), Some(1));
        assert_eq!(p.preempt(1, &v), None, "equal priority never preempts");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The exact pre-trait `GpuEngine::pick_process` scan,
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
            /// [`TimesliceRR`] over the bitset matches the legacy scan
            /// decision-for-decision on every (occupancy, affinity,
            /// slice-age) state — including sets wider than one word.
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
                prop_assert_eq!(TimesliceRR.pick(&v), legacy_pick(&flags, &v));
            }

            /// [`PriorityPreemptive`] never names a process while some
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
                let shares = vec![1.0; n];
                let v = view(&s, prios, &shares, affinity, 0);
                let best_ready = (0..n).filter(|&p| flags[p]).map(|p| prios[p]).max();
                let mut policy = PriorityPreemptive::new(SimDuration::from_micros(20));
                if let Some(picked) = policy.pick(&v) {
                    prop_assert!(flags[picked], "picked a drained queue");
                    prop_assert_eq!(Some(prios[picked]), best_ready);
                }
                for inflight in 0..n {
                    if let Some(by) = policy.preempt(inflight, &v) {
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
        let p = FractionalMps::new(0.4);
        let v = view(&s, &prios, &shares, None, 0);
        // The big-share process sees little contention mass…
        let big = p.hide_fraction(0, &v).unwrap();
        assert!((big - 0.4 * 0.25).abs() < 1e-12, "{big}");
        // …the small-share one overlaps against three times its mass.
        let small = p.hide_fraction(1, &v).unwrap();
        assert!((small - 0.4 * 0.75).abs() < 1e-12, "{small}");
        // Equal shares against one waiter hide half the overlap, not
        // all of it as `GpuSharing::SpatialMps` would.
        let equal = p.hide_fraction(0, &view(&s, &prios, &[1.0, 1.0], None, 0));
        assert_eq!(equal, Some(0.4 * 0.5));
        // Alone, nothing to pack against.
        s.unset(0);
        assert_eq!(
            p.hide_fraction(1, &view(&s, &prios, &shares, None, 0)),
            None
        );
    }
}
