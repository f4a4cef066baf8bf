//! Request-level serving: open-loop arrivals, per-tenant dynamic
//! batching and admission control layered over the closed-loop DES.
//!
//! A [`ServePlan`] attached to a [`crate::SimConfig`] turns designated
//! processes into *servers*: instead of re-enqueueing work the moment an
//! execution context returns (the paper's `trtexec` loop), each serve
//! group draws requests from a seeded
//! [`jetsim_des::ArrivalProcess`], queues them behind a bounded
//! admission queue, coalesces them into batches under a
//! [`BatcherPolicy`], and dispatches each batch through the unmodified
//! engine/GPU model. TensorRT engines in this workspace are built at a
//! fixed batch size, and a partial batch pays the full fixed-batch
//! execution time (static-shape padding) — so batching never requires a
//! second engine model, only the decision of *when* to stop waiting.
//!
//! A config with no serve plan schedules no serving events and draws no
//! extra randomness: closed-loop runs stay byte-identical to a simulator
//! without any serving machinery.

use std::fmt;
use std::sync::Arc;

use jetsim_des::{ArrivalProcess, SimDuration, SimTime};
use jetsim_trt::Engine;

/// Retry discipline for failed requests: a dropped request (rejected,
/// shed, expired, or killed with its server) is re-submitted as a fresh
/// attempt after an exponential backoff with seeded deterministic
/// jitter.
///
/// Backoff for attempt `n` (0-based: the first *retry* is attempt 1) is
/// `base * RETRY_MULTIPLIER^(n-1)`, jittered by ±[`RETRY_JITTER`] via a
/// per-group RNG stream derived from the run seed — so the same seed
/// replays the same retry timeline bit for bit, and a config without a
/// retry policy draws nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (clamped ≥ 1; 1 means
    /// no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
}

/// Multiplier applied to the retry backoff for each further retry.
pub const RETRY_MULTIPLIER: f64 = 2.0;

/// Relative jitter spread applied to each retry backoff (±10%).
pub const RETRY_JITTER: f64 = 0.1;

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts with the given
    /// base backoff.
    pub fn new(max_attempts: u32, base_backoff: SimDuration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
        }
    }

    /// The un-jittered backoff before attempt `attempt` (1-based retry
    /// index: `1` is the first retry).
    pub fn base_backoff_for(&self, attempt: u32) -> SimDuration {
        let scale = RETRY_MULTIPLIER.powi(attempt.saturating_sub(1) as i32);
        SimDuration::from_secs_f64(self.base_backoff.as_secs_f64() * scale)
    }
}

/// Hedging discipline: a request that has been dispatched but not
/// completed after the hedge delay is duplicated onto a second replica;
/// the first completion wins and the loser is cancelled (if still
/// queued) or deduplicated in the report (if already in flight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Fixed hedge delay; `None` derives it from the group's rolling p95
    /// completion latency (no hedges fire until `min_samples` latencies
    /// have been observed).
    pub delay: Option<SimDuration>,
    /// Completed-latency samples required before auto-delay hedging
    /// activates.
    pub min_samples: usize,
}

impl HedgePolicy {
    /// Hedge after a fixed delay.
    pub fn fixed(delay: SimDuration) -> Self {
        HedgePolicy {
            delay: Some(delay),
            min_samples: 0,
        }
    }

    /// Hedge after the group's rolling p95 completion latency, once at
    /// least 16 completions have been observed.
    pub fn auto() -> Self {
        HedgePolicy {
            delay: None,
            min_samples: 16,
        }
    }
}

/// What an open circuit breaker does with arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BreakerMode {
    /// Drop arrivals outright ([`DropKind::BreakerOpen`]) until the
    /// half-open probe succeeds. The default.
    #[default]
    Shed,
    /// Brownout: keep admitting, but force the group onto its degraded
    /// engine (when one is configured) until the half-open probe
    /// succeeds.
    Brownout,
}

/// Per-group circuit breaker: trips when the rolling error rate over the
/// last `window` terminal outcomes reaches `error_threshold`, stays open
/// for `cooldown`, then admits exactly one half-open probe whose outcome
/// closes the breaker or re-opens it.
///
/// A *failure* is any terminal drop (rejected, shed, deadline-expired,
/// killed) or a completion that missed the group's deadline; hedge
/// losers and breaker-shed arrivals are not counted, so an open breaker
/// cannot keep itself open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Rolling window of terminal outcomes the error rate is judged
    /// over (clamped ≥ 1).
    pub window: usize,
    /// Error-rate fraction that trips the breaker (`0.5` = half the
    /// window failed).
    pub error_threshold: f64,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: SimDuration,
    /// What an open breaker does with arrivals.
    pub mode: BreakerMode,
}

impl BreakerPolicy {
    /// A breaker over the last `window` outcomes tripping at
    /// `error_threshold`, with a 50 ms cooldown, [`BreakerMode::Shed`],
    /// and `min_samples` = `window / 4` (≥ 1).
    pub fn new(window: usize, error_threshold: f64) -> Self {
        let window = window.max(1);
        BreakerPolicy {
            window,
            error_threshold: error_threshold.clamp(0.0, 1.0),
            min_samples: (window / 4).max(1),
            cooldown: SimDuration::from_millis(50),
            mode: BreakerMode::Shed,
        }
    }

    /// Sets the open-state cooldown.
    pub fn cooldown(mut self, cooldown: SimDuration) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Sets the open-state behaviour.
    pub fn mode(mut self, mode: BreakerMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Replica-recovery discipline: an OOM-killed server schedules a restart
/// instead of staying dead. The restart cost is supplied by the caller —
/// the serve layer charges the engine's plan-load estimate — and is
/// clamped ≥ 1 ms so a revived process can never race wakeups from its
/// previous life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Wall time between the kill and the replica rejoining its group.
    pub restart_cost: SimDuration,
    /// Restarts allowed per replica before it is ejected for good.
    pub max_restarts: u32,
}

impl RecoveryPolicy {
    /// A policy restarting each killed replica up to `max_restarts`
    /// times after `restart_cost` (clamped ≥ 1 ms).
    pub fn new(restart_cost: SimDuration, max_restarts: u32) -> Self {
        RecoveryPolicy {
            restart_cost: restart_cost.max(SimDuration::from_millis(1)),
            max_restarts,
        }
    }
}

/// The load signals an [`AutoscalerPolicy`] judges at each evaluation
/// tick, aggregated over the window since the previous tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSignals {
    /// Requests currently queued (not yet dispatched).
    pub queued: usize,
    /// Replicas serving or idle-and-eligible (`Up` scale state with
    /// healthy process).
    pub up: u32,
    /// Replicas mid start (provisioned, not yet `Up`).
    pub pending: u32,
    /// Fraction of window completions that missed the policy's
    /// `slo_target` (0.0 when no target or no completions).
    pub slo_burn: f64,
}

/// An autoscaler's verdict for one evaluation tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Capacity matches load; idle-reap timers still run.
    Hold,
    /// Provision this many parked replicas (each charged a start).
    Up(u32),
}

/// Serverless replica autoscaling for one serve group: watches queue
/// depth and SLO burn over a sliding window and provisions
/// or reaps replicas between `min_replicas` and the group's member
/// count.
///
/// Scale-up charges a replica **start**: the replica warms for
/// `start_cost` before it can serve. Every start pays the same price,
/// which the serve layer sets to a TensorRT plan load; the group's first
/// start is still reported as its "cold" one. Scale-down is driven by
/// the `keep_alive` idle-reap timer, and `min_replicas == 0` allows
/// **scale-to-zero** — the group parks until the next arrival, which
/// then eats a start (the dslab-faas economics, priced with TensorRT
/// plan loads).
///
/// The decision core ([`AutoscalerPolicy::decide`]) is pure — no clock,
/// no RNG — so scale decisions are deterministic per seed and
/// property-testable without a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerPolicy {
    /// Floor the reaper never goes below; 0 enables scale-to-zero.
    pub min_replicas: u32,
    /// Ceiling on live replicas (clamped to the group's member count at
    /// build time — members beyond `min_replicas` start parked).
    pub max_replicas: u32,
    /// Scale up when queued requests per `Up` replica exceed this
    /// (clamped ≥ 1.0).
    pub target_queue_per_replica: f64,
    /// Latency target for the SLO-burn criterion; completions over it
    /// count as burn.
    pub slo_target: Option<SimDuration>,
    /// Evaluation-tick interval (clamped ≥ 1 ms).
    pub evaluate_every: SimDuration,
    /// How long a replica must sit idle before the reaper takes it.
    pub keep_alive: SimDuration,
    /// Start cost (plan deserialize + context setup) charged to every
    /// provision (clamped ≥ 1 ms).
    pub start_cost: SimDuration,
}

/// Window burn fraction (completions over the SLO target) that triggers
/// the SLO-burn criterion's one-replica scale-up.
pub const BURN_THRESHOLD: f64 = 0.5;

impl AutoscalerPolicy {
    /// A policy scaling between `min_replicas` and `max_replicas`;
    /// defaults: target queue 4.0 per replica, no SLO-burn criterion,
    /// 20 ms ticks, 200 ms keep-alive, 80 ms start.
    pub fn new(min_replicas: u32, max_replicas: u32) -> Self {
        AutoscalerPolicy {
            min_replicas: min_replicas.min(max_replicas),
            max_replicas: max_replicas.max(1),
            target_queue_per_replica: 4.0,
            slo_target: None,
            evaluate_every: SimDuration::from_millis(20),
            keep_alive: SimDuration::from_millis(200),
            start_cost: SimDuration::from_millis(80),
        }
    }

    /// Sets the queued-requests-per-replica scale-up threshold
    /// (clamped ≥ 1.0).
    pub fn target_queue_per_replica(mut self, target: f64) -> Self {
        self.target_queue_per_replica = if target.is_finite() {
            target.max(1.0)
        } else {
            1.0
        };
        self
    }

    /// Enables the SLO-burn criterion: one extra replica whenever the
    /// window's miss fraction reaches [`BURN_THRESHOLD`].
    pub fn slo_target(mut self, target: SimDuration) -> Self {
        self.slo_target = Some(target);
        self
    }

    /// Sets the evaluation-tick interval (clamped ≥ 1 ms).
    pub fn evaluate_every(mut self, every: SimDuration) -> Self {
        self.evaluate_every = every.max(SimDuration::from_millis(1));
        self
    }

    /// Sets the idle-reap keep-alive.
    pub fn keep_alive(mut self, keep_alive: SimDuration) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// Sets the start cost (clamped ≥ 1 ms so a provisioned replica can
    /// never race wakeups from an earlier life).
    pub fn start_cost(mut self, cost: SimDuration) -> Self {
        self.start_cost = cost.max(SimDuration::from_millis(1));
        self
    }

    /// Decides what to do at an evaluation tick given the window's
    /// signals. Pure: the same signals always yield the same decision.
    ///
    /// Scale-down is not decided here — it is the per-replica
    /// `keep_alive` idle-reap timer, which the ingress applies at the
    /// same tick.
    pub fn decide(&self, signals: ScaleSignals) -> ScaleDecision {
        let capacity = signals.up + signals.pending;
        let max = self.max_replicas.max(self.min_replicas);
        let headroom = max.saturating_sub(capacity);
        if headroom == 0 {
            return ScaleDecision::Hold;
        }
        let mut want = capacity.max(self.min_replicas);

        // Queue-depth criterion: enough replicas to bring queued-per-Up
        // back under target. A parked group with anything queued always
        // wants at least one.
        let target = self.target_queue_per_replica.max(1.0);
        if signals.queued as f64 > target * f64::from(signals.up.max(signals.pending)) {
            let by_queue = (signals.queued as f64 / target).ceil() as u32;
            want = want.max(by_queue.max(capacity + 1));
        }

        // SLO-burn criterion (optional): latency is burning — add one
        // replica per tick until it stops.
        if self.slo_target.is_some() && signals.slo_burn >= BURN_THRESHOLD {
            want = want.max(capacity + 1);
        }

        let want = want.min(max);
        if want > capacity {
            ScaleDecision::Up(want - capacity)
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Health state of one serve replica, as routing and admission see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaHealth {
    /// Serving (or idle and eligible to serve).
    #[default]
    Up,
    /// Killed and waiting out its restart cost.
    Restarting,
    /// Killed with no restarts left (or its memory no longer fits); it
    /// never rejoins.
    Ejected,
}

/// What a serve group does with a new arrival when its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Drop the newcomer (classic bounded queue). The default.
    #[default]
    Reject,
    /// Drop the *oldest* queued request and admit the newcomer — the
    /// freshest-frame discipline of live vision pipelines, where a stale
    /// frame is worth less than the one the camera just produced.
    Shed,
    /// Shed the oldest request *and* enter degraded mode: members switch
    /// to the group's pre-built degraded engine (lower precision or
    /// halved batch — the sweep supervisor's ladder, applied online) at
    /// their next batch boundary, and switch back once the queue drains
    /// below a quarter of its capacity. Falls back to [`Shed`]
    /// behaviour when the group has no degraded engine.
    ///
    /// [`Shed`]: AdmissionPolicy::Shed
    Degrade,
}

/// When the dynamic batcher dispatches, given a free server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDecision {
    /// Dispatch this many queued requests now.
    Dispatch(u32),
    /// Hold: the queue is short of a full batch and the oldest request
    /// has waited less than `max_delay`. Re-decide at this time.
    WaitUntil(SimTime),
    /// Nothing queued.
    Idle,
}

/// The dynamic-batching rule: coalesce up to `max_batch` requests, but
/// never hold the oldest one past `max_delay`.
///
/// The decision core is pure — no clock, no queue ownership — so the
/// batcher's two invariants (batch size ≤ `max_batch`; no request held
/// past `max_delay` while a server is free) can be property-tested
/// without running a simulation.
///
/// # Examples
///
/// ```
/// use jetsim_des::{SimDuration, SimTime};
/// use jetsim_sim::serving::{BatchDecision, BatcherPolicy};
///
/// let policy = BatcherPolicy::new(4, SimDuration::from_millis(5));
/// let t0 = SimTime::ZERO;
/// // Two queued, oldest arrived just now: wait for more.
/// assert_eq!(
///     policy.decide(t0, 2, Some(t0)),
///     BatchDecision::WaitUntil(t0 + SimDuration::from_millis(5))
/// );
/// // A full batch dispatches immediately.
/// assert_eq!(policy.decide(t0, 6, Some(t0)), BatchDecision::Dispatch(4));
/// // The deadline flushes a partial batch.
/// let later = t0 + SimDuration::from_millis(5);
/// assert_eq!(policy.decide(later, 2, Some(t0)), BatchDecision::Dispatch(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherPolicy {
    /// Largest batch to form (the engine's built batch size — a partial
    /// batch still pays the full fixed-shape execution).
    pub max_batch: u32,
    /// Longest the oldest queued request may wait before a partial
    /// batch is flushed anyway.
    pub max_delay: SimDuration,
}

impl BatcherPolicy {
    /// A policy coalescing up to `max_batch` (clamped ≥ 1) requests for
    /// at most `max_delay`.
    pub fn new(max_batch: u32, max_delay: SimDuration) -> Self {
        BatcherPolicy {
            max_batch: max_batch.max(1),
            max_delay,
        }
    }

    /// Decides what a free server should do at `now` given `queued`
    /// requests whose oldest arrived at `oldest_arrival`.
    pub fn decide(
        &self,
        now: SimTime,
        queued: usize,
        oldest_arrival: Option<SimTime>,
    ) -> BatchDecision {
        let Some(oldest) = oldest_arrival else {
            return BatchDecision::Idle;
        };
        if queued == 0 {
            return BatchDecision::Idle;
        }
        if queued as u64 >= u64::from(self.max_batch) {
            return BatchDecision::Dispatch(self.max_batch);
        }
        let deadline = oldest + self.max_delay;
        if deadline <= now {
            BatchDecision::Dispatch(queued as u32)
        } else {
            BatchDecision::WaitUntil(deadline)
        }
    }
}

/// Seed of serve group `group`'s streams, folded from a run's `master`
/// seed: each group draws from its own stream, so adding a group never
/// perturbs another group's traffic. The ingress seeds arrivals and
/// retry jitter with it, and a fleet seeds its per-class aggregate
/// streams with it, so a one-site fleet replays a standalone run's
/// arrival timeline bit for bit.
pub fn group_seed(master: u64, group: usize) -> u64 {
    master.wrapping_add((group as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One serve group: a set of server processes (typically one tenant's
/// instances, all running the same engine) fed by one arrival stream
/// through one queue and batcher.
#[derive(Debug, Clone)]
pub struct ServeGroup {
    /// Group label, carried into [`crate::RunTrace::serve_group_labels`]
    /// for reports and timeline tooling.
    pub label: String,
    /// How requests arrive.
    pub arrivals: ArrivalProcess,
    /// Longest the batcher holds a partial batch.
    pub max_delay: SimDuration,
    /// Bounded queue capacity; arrivals beyond it hit the
    /// [`AdmissionPolicy`].
    pub queue_cap: usize,
    /// What happens to arrivals when the queue is full.
    pub admission: AdmissionPolicy,
    /// Process indices (into [`crate::SimConfig::processes`]) that serve
    /// this group's requests. Each member must belong to exactly one
    /// group.
    pub members: Vec<usize>,
    /// Pre-built fallback engine for [`AdmissionPolicy::Degrade`]:
    /// members swap to it at a batch boundary while the group is under
    /// pressure. Its memory footprint is counted against the board while
    /// the plan is attached (both engines stay resident).
    pub degraded_engine: Option<Arc<Engine>>,
    /// Per-request deadline: a request still *queued* this long after
    /// arrival is dropped with [`DropKind::DeadlineExpired`] (dispatched
    /// requests run to completion; the report judges their lateness).
    pub deadline: Option<SimDuration>,
    /// Retry discipline for dropped requests.
    pub retry: Option<RetryPolicy>,
    /// Hedging discipline for slow in-flight requests.
    pub hedge: Option<HedgePolicy>,
    /// Circuit breaker over the group's rolling outcome window.
    pub breaker: Option<BreakerPolicy>,
    /// Replica-recovery discipline for killed members.
    pub recovery: Option<RecoveryPolicy>,
    /// Serverless autoscaling: members beyond the policy's
    /// `min_replicas` start parked and are provisioned (start cost
    /// charged) and reaped as load moves. Absent (the default), every
    /// member is up from `t = 0` — the static path stays byte-identical.
    pub autoscaler: Option<AutoscalerPolicy>,
}

impl ServeGroup {
    /// A group with the given label and arrival process; defaults:
    /// 5 ms `max_delay`, queue capacity 64, [`AdmissionPolicy::Reject`],
    /// no members, no degraded engine.
    pub fn new(label: impl Into<String>, arrivals: ArrivalProcess) -> Self {
        ServeGroup {
            label: label.into(),
            arrivals,
            max_delay: SimDuration::from_millis(5),
            queue_cap: 64,
            admission: AdmissionPolicy::Reject,
            members: Vec::new(),
            degraded_engine: None,
            deadline: None,
            retry: None,
            hedge: None,
            breaker: None,
            recovery: None,
            autoscaler: None,
        }
    }

    /// Sets the member process indices.
    pub fn members<I: IntoIterator<Item = usize>>(mut self, members: I) -> Self {
        self.members = members.into_iter().collect();
        self
    }

    /// Sets the batcher's flush deadline.
    pub fn max_delay(mut self, max_delay: SimDuration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets the bounded queue capacity (clamped ≥ 1).
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Attaches the degraded fallback engine for
    /// [`AdmissionPolicy::Degrade`].
    pub fn degraded_engine(mut self, engine: Arc<Engine>) -> Self {
        self.degraded_engine = Some(engine);
        self
    }

    /// Sets the per-request queueing deadline.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Attaches a hedging policy.
    pub fn hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Attaches a circuit breaker.
    pub fn breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Attaches a replica-recovery policy.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Attaches a serverless autoscaling policy.
    pub fn autoscaler(mut self, autoscaler: AutoscalerPolicy) -> Self {
        self.autoscaler = Some(autoscaler);
        self
    }

    /// Arrivals expected over a run `window` long: the mean rate times
    /// the window, or a finite trace's length (infinite for a cycling
    /// trace whose gaps sum to zero).
    pub(crate) fn expected_arrivals(&self, window: SimDuration) -> f64 {
        match &self.arrivals {
            ArrivalProcess::Trace { gaps, cycle: false } => gaps.len() as f64,
            arrivals => arrivals
                .mean_rate()
                .map_or(f64::INFINITY, |rate| rate * window.as_secs_f64()),
        }
    }

    /// The most request records the group is expected to write over
    /// `window`: every expected arrival retried to its attempt budget,
    /// and every attempt hedged once.
    pub(crate) fn worst_case_records(&self, window: SimDuration) -> f64 {
        let attempts = self.retry.map_or(1, |r| r.max_attempts);
        let hedges = if self.hedge.is_some() { 2.0 } else { 1.0 };
        self.expected_arrivals(window) * f64::from(attempts) * hedges
    }
}

/// The full serving configuration of one run: a list of groups.
///
/// Attached via [`crate::SimConfigBuilder::serve`]. An absent plan (the
/// default) leaves the simulation byte-identical to one without any
/// serving machinery.
#[derive(Debug, Clone, Default)]
pub struct ServePlan {
    /// The serve groups, in order; a request's
    /// [`RequestRecord::group`] indexes this list.
    pub groups: Vec<ServeGroup>,
}

impl ServePlan {
    /// An empty plan to extend with [`ServePlan::group`].
    pub fn new() -> Self {
        ServePlan::default()
    }

    /// Appends a group.
    pub fn group(mut self, group: ServeGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// `true` when the plan has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Why a request was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DropKind {
    /// The queue was full and the group rejects newcomers.
    Rejected,
    /// The request was shed from the front of a full queue to admit a
    /// fresher one ([`AdmissionPolicy::Shed`] / [`AdmissionPolicy::Degrade`]).
    Shed,
    /// The request was still queued when its [`ServeGroup::deadline`]
    /// expired.
    DeadlineExpired,
    /// The request was in flight on a server when the OOM killer took
    /// the process — it was neither completed nor answered.
    Killed,
    /// The request was a hedge duplicate (or hedged primary) cancelled
    /// while still queued because its twin completed first.
    HedgeLoser,
    /// The group's circuit breaker was open ([`BreakerMode::Shed`]) and
    /// turned the arrival away.
    BreakerOpen,
}

/// When and why a request was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// When the drop happened.
    pub at: SimTime,
    /// Why.
    pub kind: DropKind,
}

/// The packed "unset" instant of a [`RequestRecord`] time: the clock's
/// last nanosecond. [`crate::SimConfig::validate`] rejects a serve
/// window that reaches it, so no real dispatch or completion packs to it.
const UNSET_TIME: u64 = u64::MAX;

/// The packed "none" of a [`RequestRecord`] index. `SimConfig::validate`
/// bounds a serve plan's worst-case record count to half the `u32` index
/// space, so no real request index or pid packs to it.
const NO_INDEX: u32 = u32::MAX;

/// Packs a set instant into one word.
fn pack_time(t: SimTime) -> u64 {
    debug_assert!(
        t.as_nanos() != UNSET_TIME,
        "instant {t} is the unset sentinel"
    );
    t.as_nanos()
}

fn unpack_time(t: u64) -> Option<SimTime> {
    (t != UNSET_TIME).then(|| SimTime::from_nanos(t))
}

/// Packs a set index into a `u32`.
fn pack_index(i: usize) -> u32 {
    debug_assert!(i < NO_INDEX as usize, "index {i} does not fit a packed u32");
    i as u32
}

fn unpack_index(i: u32) -> Option<usize> {
    (i != NO_INDEX).then_some(i as usize)
}

/// The full lifecycle of one request, as recorded in
/// [`crate::RunTrace::requests`].
///
/// A serve trace holds one record per request, so the record is packed
/// into 64 bytes: indices are `u32`, and the optional instants are one
/// word each with the clock's last nanosecond meaning "unset". The packed
/// fields are read through accessors; only the simulator writes them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// When the request arrived.
    pub arrival: SimTime,
    dispatched: u64,
    completed: u64,
    dropped_at: SimTime,
    group: u32,
    seq: u32,
    pid: u32,
    retry_of: u32,
    hedge_of: u32,
    /// How many requests shared its batch (0 until dispatched).
    pub batch_size: u32,
    /// Attempt index within the logical request: 0 for the original
    /// submission, `n` for its n-th retry.
    pub attempt: u32,
    /// Whether it ran on the group's degraded engine.
    pub degraded: bool,
    drop_kind: Option<DropKind>,
}

impl RequestRecord {
    /// A request that just arrived at `group`: not yet dispatched,
    /// dropped or linked to another attempt.
    pub(crate) fn arrived(group: usize, seq: u32, arrival: SimTime) -> Self {
        RequestRecord {
            arrival,
            dispatched: UNSET_TIME,
            completed: UNSET_TIME,
            dropped_at: SimTime::ZERO,
            group: pack_index(group),
            seq,
            pid: NO_INDEX,
            retry_of: NO_INDEX,
            hedge_of: NO_INDEX,
            batch_size: 0,
            attempt: 0,
            degraded: false,
            drop_kind: None,
        }
    }

    /// Attempt `attempt` of the logical request, retrying record
    /// `parent`.
    pub(crate) fn retry(mut self, parent: usize, attempt: u32) -> Self {
        self.retry_of = pack_index(parent);
        self.attempt = attempt;
        self
    }

    /// A hedge duplicate racing record `primary`.
    pub(crate) fn hedge(mut self, primary: usize) -> Self {
        self.hedge_of = pack_index(primary);
        self
    }

    /// Records the dispatch of the request at `at` to server `pid` in a
    /// batch of `batch_size`.
    pub(crate) fn dispatch(&mut self, at: SimTime, pid: usize, batch_size: u32, degraded: bool) {
        self.dispatched = pack_time(at);
        self.pid = pack_index(pid);
        self.batch_size = batch_size;
        self.degraded = degraded;
    }

    /// Records the completion of the request's batch at `at`.
    pub(crate) fn complete(&mut self, at: SimTime) {
        self.completed = pack_time(at);
    }

    /// Records the request's drop at `at` for cause `kind`.
    pub(crate) fn drop_at(&mut self, at: SimTime, kind: DropKind) {
        self.dropped_at = at;
        self.drop_kind = Some(kind);
    }

    /// Index of the serve group the request arrived at.
    pub fn group(&self) -> usize {
        self.group as usize
    }

    /// Arrival sequence number within the group (retries and hedges
    /// share the counter).
    pub fn seq(&self) -> u64 {
        u64::from(self.seq)
    }

    /// When it was dispatched in a batch (`None` if dropped or still
    /// queued at the end of the run).
    pub fn dispatched(&self) -> Option<SimTime> {
        unpack_time(self.dispatched)
    }

    /// When its batch's execution context completed (`None` if dropped
    /// or unfinished).
    pub fn completed(&self) -> Option<SimTime> {
        unpack_time(self.completed)
    }

    /// When and why the request was dropped, if it was.
    pub fn dropped(&self) -> Option<DropRecord> {
        self.drop_kind.map(|kind| DropRecord {
            at: self.dropped_at,
            kind,
        })
    }

    /// The server process that ran it, once dispatched.
    pub fn pid(&self) -> Option<usize> {
        unpack_index(self.pid)
    }

    /// Index (into [`crate::RunTrace::requests`]) of the attempt this
    /// record retries, `None` for original submissions.
    pub fn retry_of(&self) -> Option<usize> {
        unpack_index(self.retry_of)
    }

    /// Index of the in-flight attempt this record hedges, `None` for
    /// non-hedge records.
    pub fn hedge_of(&self) -> Option<usize> {
        unpack_index(self.hedge_of)
    }

    /// The span from the request's arrival to `at`, which a later step
    /// of its chain never precedes. It saturates at zero in release
    /// builds; a debug build asserts instead, naming the record.
    pub fn since_arrival(&self, at: SimTime) -> SimDuration {
        debug_assert!(
            at >= self.arrival,
            "request group {} seq {}: {} ns is before its arrival at {} ns",
            self.group,
            self.seq,
            at.as_nanos(),
            self.arrival.as_nanos()
        );
        at.saturating_since(self.arrival)
    }

    /// End-to-end latency (arrival → completion), for served requests.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed().map(|done| self.since_arrival(done))
    }

    /// Time spent queued before dispatch, for dispatched requests.
    pub fn queue_wait(&self) -> Option<SimDuration> {
        self.dispatched().map(|at| self.since_arrival(at))
    }

    /// `true` when the request completed service.
    pub fn served(&self) -> bool {
        self.completed != UNSET_TIME
    }

    /// `true` when the request was neither served nor dropped — still
    /// queued or in flight when the simulation ended.
    pub fn unfinished(&self) -> bool {
        !self.served() && self.drop_kind.is_none()
    }

    /// `true` when this record is the root of its logical request — not
    /// a retry and not a hedge duplicate. Reports count logical requests
    /// by their roots so retries and hedges never double-count goodput.
    pub fn is_root(&self) -> bool {
        self.retry_of == NO_INDEX && self.hedge_of == NO_INDEX
    }
}

impl fmt::Debug for RequestRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestRecord")
            .field("group", &self.group())
            .field("seq", &self.seq())
            .field("arrival", &self.arrival)
            .field("dispatched", &self.dispatched())
            .field("completed", &self.completed())
            .field("dropped", &self.dropped())
            .field("pid", &self.pid())
            .field("batch_size", &self.batch_size)
            .field("degraded", &self.degraded)
            .field("attempt", &self.attempt)
            .field("retry_of", &self.retry_of())
            .field("hedge_of", &self.hedge_of())
            .finish()
    }
}

/// A serving-side event, for queue-depth timelines and trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// When it happened.
    pub time: SimTime,
    /// The serve group it belongs to.
    pub group: usize,
    /// What happened.
    pub kind: ServeEventKind,
}

/// What kind of serving event occurred.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeEventKind {
    /// The batcher formed and dispatched a batch.
    BatchFormed {
        /// The server process it went to.
        pid: usize,
        /// Requests in the batch.
        size: u32,
        /// How long the batch's oldest request had waited.
        oldest_wait: SimDuration,
        /// Requests still queued after the batch left.
        queue_depth: usize,
        /// Whether the batch ran on the degraded engine.
        degraded: bool,
    },
    /// Admission pressure flipped the group into degraded mode.
    DegradeEnter {
        /// Queue depth at the flip.
        queue_depth: usize,
    },
    /// The queue drained and the group returned to its normal engine.
    DegradeExit {
        /// Queue depth at the flip.
        queue_depth: usize,
    },
    /// The circuit breaker tripped open.
    BreakerTrip {
        /// Rolling error rate that tripped it.
        error_rate: f64,
    },
    /// The breaker's cooldown elapsed; the next admission is the probe.
    BreakerHalfOpen,
    /// The half-open probe succeeded; the breaker closed.
    BreakerClose,
    /// A serve replica was killed; its in-flight requests failed.
    ReplicaDown {
        /// The killed server process.
        pid: usize,
        /// In-flight requests that died with it.
        failed_inflight: usize,
    },
    /// A killed replica finished restarting and rejoined its group.
    ReplicaUp {
        /// The restarted server process.
        pid: usize,
    },
    /// A killed replica was ejected for good — no restarts left, or its
    /// memory no longer fits.
    ReplicaEjected {
        /// The ejected server process.
        pid: usize,
    },
    /// The autoscaler began provisioning a parked replica; it warms
    /// for the policy's `start_cost` before serving.
    ReplicaProvisioned {
        /// The replica being provisioned.
        pid: usize,
        /// `true` for the group's first start, `false` for every later
        /// one. Both pay the same `start_cost`.
        cold: bool,
    },
    /// A provisioned replica finished warming and joined the free pool.
    ReplicaWarmed {
        /// The now-serving replica.
        pid: usize,
    },
    /// The idle-reap timer took an `Up` replica back to parked.
    ReplicaReaped {
        /// The reaped replica.
        pid: usize,
    },
    /// The reaper took the group's last live replica (`min_replicas ==
    /// 0`): the group is parked until the next arrival, which pays the
    /// start cost.
    ParkedToZero,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batcher_dispatches_full_batches_immediately() {
        let p = BatcherPolicy::new(8, SimDuration::from_millis(10));
        let t = SimTime::from_nanos(1_000);
        assert_eq!(p.decide(t, 8, Some(t)), BatchDecision::Dispatch(8));
        assert_eq!(p.decide(t, 30, Some(t)), BatchDecision::Dispatch(8));
    }

    #[test]
    fn batcher_flushes_partial_batches_at_the_deadline() {
        let p = BatcherPolicy::new(8, SimDuration::from_millis(10));
        let arrived = SimTime::from_nanos(5_000_000);
        let deadline = arrived + SimDuration::from_millis(10);
        assert_eq!(
            p.decide(arrived, 3, Some(arrived)),
            BatchDecision::WaitUntil(deadline)
        );
        assert_eq!(
            p.decide(deadline, 3, Some(arrived)),
            BatchDecision::Dispatch(3)
        );
    }

    #[test]
    fn batcher_idles_on_an_empty_queue() {
        let p = BatcherPolicy::new(4, SimDuration::from_millis(1));
        assert_eq!(p.decide(SimTime::ZERO, 0, None), BatchDecision::Idle);
    }

    #[test]
    fn zero_delay_degenerates_to_no_batching() {
        let p = BatcherPolicy::new(16, SimDuration::ZERO);
        let t = SimTime::from_nanos(77);
        assert_eq!(p.decide(t, 1, Some(t)), BatchDecision::Dispatch(1));
    }

    #[test]
    fn request_record_accessors() {
        let mut r = RequestRecord::arrived(0, 4, SimTime::from_nanos(100));
        assert_eq!((r.group(), r.seq()), (0, 4));
        assert_eq!(
            (r.dispatched(), r.completed(), r.dropped()),
            (None, None, None)
        );
        assert_eq!((r.pid(), r.retry_of(), r.hedge_of()), (None, None, None));
        assert!(r.unfinished() && !r.served() && r.is_root());
        r.dispatch(SimTime::from_nanos(300), 1, 2, false);
        r.complete(SimTime::from_nanos(1_100));
        assert_eq!(r.pid(), Some(1));
        assert_eq!(r.batch_size, 2);
        assert_eq!(r.queue_wait(), Some(SimDuration::from_nanos(200)));
        assert_eq!(r.latency(), Some(SimDuration::from_nanos(1_000)));
        assert!(r.served() && !r.unfinished());
        assert!(r.is_root());

        let mut dropped = RequestRecord::arrived(0, 4, SimTime::from_nanos(100));
        dropped.drop_at(SimTime::from_nanos(100), DropKind::Rejected);
        assert!(!dropped.served() && !dropped.unfinished());
        assert_eq!(dropped.latency(), None);
        assert_eq!(
            dropped.dropped(),
            Some(DropRecord {
                at: SimTime::from_nanos(100),
                kind: DropKind::Rejected,
            })
        );

        let retry = r.retry(0, 1);
        assert_eq!((retry.retry_of(), retry.attempt), (Some(0), 1));
        assert!(!retry.is_root());
        let hedge = r.hedge(0);
        assert_eq!(hedge.hedge_of(), Some(0));
        assert!(!hedge.is_root());

        // Each packed time round-trips `SimTime::ZERO` and the last
        // instant before the unset sentinel, and each packed index the
        // last one before its "none".
        let last = SimTime::from_nanos(UNSET_TIME - 1);
        let top = NO_INDEX as usize - 1;
        for at in [SimTime::ZERO, last] {
            let mut r = RequestRecord::arrived(top, u32::MAX, SimTime::ZERO)
                .retry(top, 3)
                .hedge(top);
            r.dispatch(at, top, 1, true);
            r.complete(at);
            r.drop_at(at, DropKind::Killed);
            assert_eq!((r.group(), r.seq()), (top, u64::from(u32::MAX)));
            assert_eq!((r.dispatched(), r.completed()), (Some(at), Some(at)));
            assert_eq!(
                r.dropped(),
                Some(DropRecord {
                    at,
                    kind: DropKind::Killed
                })
            );
            assert_eq!(
                (r.pid(), r.retry_of(), r.hedge_of()),
                (Some(top), Some(top), Some(top))
            );
            assert_eq!(r.latency(), Some(at.since(SimTime::ZERO)));
            assert!(r.degraded && !r.is_root());
        }
    }

    /// A span that ends before its request arrived is a bug upstream:
    /// release builds saturate it to zero, debug builds name the record.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "request group 3 seq 9: 50 ns is before its arrival at 100 ns")]
    fn a_span_before_arrival_names_the_record() {
        let mut r = RequestRecord::arrived(3, 9, SimTime::from_nanos(100));
        r.dispatch(SimTime::from_nanos(50), 0, 1, false);
        let _ = r.queue_wait();
    }

    #[test]
    fn retry_backoff_grows_exponentially() {
        let p = RetryPolicy::new(4, SimDuration::from_millis(2));
        assert_eq!(p.base_backoff_for(1), SimDuration::from_millis(2));
        assert_eq!(p.base_backoff_for(2), SimDuration::from_millis(4));
        assert_eq!(p.base_backoff_for(3), SimDuration::from_millis(8));
    }

    #[test]
    fn recovery_clamps_restart_cost() {
        let p = RecoveryPolicy::new(SimDuration::ZERO, 3);
        assert_eq!(p.restart_cost, SimDuration::from_millis(1));
        assert_eq!(p.max_restarts, 3);
    }

    #[test]
    fn breaker_builder_defaults() {
        let b = BreakerPolicy::new(32, 0.5);
        assert_eq!(b.window, 32);
        assert_eq!(b.min_samples, 8);
        assert_eq!(b.mode, BreakerMode::Shed);
        let b = b.mode(BreakerMode::Brownout);
        assert_eq!(b.mode, BreakerMode::Brownout);
        assert_eq!(BreakerPolicy::new(2, 0.5).min_samples, 1, "clamped");
    }

    #[test]
    fn autoscaler_scales_up_on_queue_pressure() {
        let p = AutoscalerPolicy::new(1, 4).target_queue_per_replica(4.0);
        let calm = ScaleSignals {
            queued: 3,
            up: 1,
            pending: 0,
            slo_burn: 0.0,
        };
        assert_eq!(p.decide(calm), ScaleDecision::Hold);
        let pressured = ScaleSignals { queued: 9, ..calm };
        // ceil(9 / 4) = 3 wanted, 1 up → +2.
        assert_eq!(p.decide(pressured), ScaleDecision::Up(2));
        let flood = ScaleSignals { queued: 64, ..calm };
        // Wants 16 but the ceiling is 4 → +3.
        assert_eq!(p.decide(flood), ScaleDecision::Up(3));
    }

    #[test]
    fn autoscaler_counts_pending_as_capacity() {
        let p = AutoscalerPolicy::new(0, 4);
        let s = ScaleSignals {
            queued: 9,
            up: 0,
            pending: 3,
            slo_burn: 0.0,
        };
        // 3 already provisioning cover the ceil(9/4) = 3 wanted.
        assert_eq!(p.decide(s), ScaleDecision::Hold);
    }

    #[test]
    fn autoscaler_parked_group_wakes_for_one_request() {
        let p = AutoscalerPolicy::new(0, 4);
        let s = ScaleSignals {
            queued: 1,
            up: 0,
            pending: 0,
            slo_burn: 0.0,
        };
        assert_eq!(p.decide(s), ScaleDecision::Up(1));
    }

    #[test]
    fn autoscaler_burn_criterion() {
        let p = AutoscalerPolicy::new(1, 8).slo_target(SimDuration::from_millis(50));
        let calm = ScaleSignals {
            queued: 0,
            up: 1,
            pending: 0,
            slo_burn: 0.0,
        };
        assert_eq!(p.decide(calm), ScaleDecision::Hold);
        let burning = ScaleSignals {
            slo_burn: 0.6,
            ..calm
        };
        assert_eq!(p.decide(burning), ScaleDecision::Up(1));
    }

    #[test]
    fn autoscaler_respects_min_floor() {
        let p = AutoscalerPolicy::new(2, 4);
        let s = ScaleSignals {
            queued: 0,
            up: 1,
            pending: 0,
            slo_burn: 0.0,
        };
        // Below the floor (a replica was ejected): refill to min.
        assert_eq!(p.decide(s), ScaleDecision::Up(1));
    }

    #[test]
    fn autoscaler_builder_clamps() {
        let p = AutoscalerPolicy::new(6, 4);
        assert_eq!(p.min_replicas, 4, "min clamped to max");
        let p = AutoscalerPolicy::new(0, 2)
            .target_queue_per_replica(0.0)
            .start_cost(SimDuration::ZERO)
            .evaluate_every(SimDuration::ZERO);
        assert_eq!(p.target_queue_per_replica, 1.0);
        assert_eq!(p.start_cost, SimDuration::from_millis(1));
        assert_eq!(p.evaluate_every, SimDuration::from_millis(1));
    }

    #[test]
    fn plan_builder_collects_groups() {
        let plan = ServePlan::new().group(
            ServeGroup::new("g", ArrivalProcess::poisson(10.0))
                .members([0, 1])
                .queue_cap(0)
                .admission(AdmissionPolicy::Shed),
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.groups[0].members, vec![0, 1]);
        assert_eq!(plan.groups[0].queue_cap, 1, "clamped");
        assert_eq!(plan.groups[0].admission, AdmissionPolicy::Shed);
    }
}
