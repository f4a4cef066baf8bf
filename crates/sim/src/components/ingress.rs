//! The ingress component: open-loop request arrivals, bounded admission
//! queues and per-group dynamic batching in front of the server
//! processes — plus the request-level resilience machinery (deadlines,
//! retries, hedging, circuit breaking and replica recovery).
//!
//! Ingress sits *outside* the engine model: it decides when a server
//! process starts its next execution context and on which engine, then
//! hands the batch to [`CpuSched::start_launch`] — the launch, GPU and
//! synchronisation paths are exactly the closed-loop ones. A server's
//! sync return posts [`IngressEvent::ServerFree`] instead of
//! re-enqueueing, which is the entire difference between `trtexec`
//! saturation and online serving.
//!
//! Resilience is strictly opt-in per [`crate::serving::ServeGroup`]: a
//! group without a deadline/retry/hedge/breaker/recovery policy
//! schedules none of the new timer events and draws no extra randomness,
//! so pre-existing serving configs replay byte-identically. Configs
//! without a [`crate::serving::ServePlan`] at all construct an empty
//! ingress: no groups, no events, no RNG draws.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use jetsim_des::{ArrivalStream, SimRng, SimTime};
use jetsim_trt::Engine;

use crate::config::SimConfig;
use crate::serving::{
    group_seed, AdmissionPolicy, AutoscalerPolicy, BatchDecision, BatcherPolicy, BreakerMode,
    BreakerPolicy, DropKind, HedgePolicy, RecoveryPolicy, ReplicaHealth, RequestRecord,
    RetryPolicy, ScaleDecision, ScaleSignals, ServeEvent, ServeEventKind, RETRY_JITTER,
};

use super::gpu::GpuEngine;
use super::memory_guard::MemoryGuard;
use super::sched::{CpuSched, RqThread};
use super::{Ctx, Event};

/// Completed-latency samples kept per group for the hedge p95.
const LAT_RING_CAP: usize = 128;

/// Most request records (and serve events) the logs reserve up front;
/// a longer run regrows past it.
const MAX_PRESIZED_RECORDS: usize = 1 << 22;

/// The p95 of a non-empty latency ring: its `ceil(0.95 n)`-th smallest
/// sample (1-based, clamped to `[1, n]`). Selection on a stack copy
/// finds the same element a sort would, with no allocation.
fn ring_p95(ring: &[jetsim_des::SimDuration]) -> jetsim_des::SimDuration {
    let mut buf = [jetsim_des::SimDuration::ZERO; LAT_RING_CAP];
    let buf = &mut buf[..ring.len()];
    buf.copy_from_slice(ring);
    let rank = ((ring.len() as f64) * 0.95).ceil() as usize;
    *buf.select_nth_unstable(rank.clamp(1, ring.len()) - 1).1
}

/// Stream constant folded into the per-group retry-backoff RNG seed so
/// retry jitter never shares draws with arrivals or the dynamics stream.
const RETRY_STREAM: u64 = 0x7265_7472_795F_726E; // "retry_rn"

/// Events consumed by [`Ingress`].
///
/// Payloads are `u32` so the whole [`super::Event`] slab stays within
/// 16 bytes — see the size test in `components::tests`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IngressEvent {
    /// A request arrives at a serve group.
    Arrival {
        /// The group it arrives at.
        group: u32,
    },
    /// A partial batch's `max_delay` deadline expired.
    Flush {
        /// The group whose batcher should re-decide.
        group: u32,
        /// Generation stamp; stale flushes are ignored.
        gen: u32,
    },
    /// A server process finished its batch and is free again.
    ServerFree {
        /// The server process.
        pid: u32,
    },
    /// A request's queueing deadline expired (ignored unless it is
    /// still queued).
    Deadline {
        /// The request (index into [`Ingress::requests`]).
        req: u32,
    },
    /// A failed request's backoff elapsed; submit its retry attempt.
    Retry {
        /// The *failed* request being retried.
        req: u32,
    },
    /// A hedged request's delay elapsed; duplicate it if it is still in
    /// flight.
    HedgeFire {
        /// The primary request.
        req: u32,
    },
    /// A killed replica's restart cost has been paid.
    RestartDone {
        /// The restarting server process.
        pid: u32,
    },
    /// An autoscaled group's periodic evaluation tick.
    AutoscaleTick {
        /// The group to evaluate.
        group: u32,
    },
    /// A provisioning replica paid its start cost.
    ScaleUpDone {
        /// The replica being provisioned.
        pid: u32,
        /// Generation stamp; a kill or reap mid-provision bumps the
        /// replica's generation so the stale timer is ignored.
        gen: u32,
    },
}

/// Autoscale lifecycle state of one replica, orthogonal to
/// [`ReplicaHealth`]: health tracks kills and restarts, scale state
/// tracks whether the autoscaler currently wants the replica serving.
/// Every pid in a group without an autoscaler is permanently `Up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScaleState {
    /// Eligible to serve (the only state non-autoscaled pids ever hold).
    Up,
    /// Paying `start_cost`, the plan load + first-inference warmup.
    Warming,
    /// Scaled down (or never scaled up); invisible to dispatch.
    Parked,
}

/// Peer components an ingress event may drive: dispatching a batch
/// starts a host-thread launch burst (which may immediately reach the
/// GPU), and a replica restart re-checks memory fit with the guard.
pub(crate) struct IngressDeps<'d> {
    pub sched: &'d mut CpuSched,
    pub gpu: &'d mut GpuEngine,
    pub guard: &'d mut MemoryGuard,
}

/// Circuit-breaker state of one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BrState {
    /// Healthy; outcomes accumulate in the rolling window.
    Closed,
    /// Tripped; arrivals are shed (or browned out) until `until`.
    Open { until: SimTime },
    /// Cooldown elapsed; `probe` is the single admitted trial request.
    HalfOpen { probe: Option<usize> },
}

/// Runtime state of one serve group.
struct GroupRt {
    /// Member server pids.
    members: Vec<usize>,
    /// Members currently idle, FIFO.
    free: VecDeque<usize>,
    /// Queued request indices (into [`Ingress::requests`]), FIFO.
    queue: VecDeque<usize>,
    /// The group's seeded arrival gap generator.
    stream: ArrivalStream,
    /// The dynamic-batching rule (`max_batch` = the engine's built batch).
    policy: BatcherPolicy,
    /// Bounded queue capacity.
    queue_cap: usize,
    /// Full-queue policy.
    admission: AdmissionPolicy,
    /// The group's normal engine.
    normal: Arc<Engine>,
    /// Pre-built fallback engine for [`AdmissionPolicy::Degrade`].
    degraded: Option<Arc<Engine>>,
    /// Whether admission pressure has the group on the degraded engine.
    degraded_mode: bool,
    /// Invalidates stale [`IngressEvent::Flush`] events (`u32` to keep
    /// the event slab small; wrap needs > 4 × 10⁹ flushes in one group).
    flush_gen: u32,
    /// Deadline of the currently scheduled flush, if any.
    flush_at: Option<SimTime>,
    /// `true` once a non-cycling trace ran out of arrivals.
    exhausted: bool,
    /// Arrival counter (request sequence numbers; retries and hedges
    /// share it).
    seq: u32,
    // --- resilience (all optional; absent policies cost nothing) -------
    /// Queueing deadline.
    deadline: Option<jetsim_des::SimDuration>,
    /// Retry policy.
    retry: Option<RetryPolicy>,
    /// Dedicated backoff-jitter stream (seeded per group from the run
    /// seed; drawn only when a retry actually fires).
    retry_rng: SimRng,
    /// Hedging policy.
    hedge: Option<HedgePolicy>,
    /// Rolling completed-latency ring feeding the hedge p95.
    lat_ring: Vec<jetsim_des::SimDuration>,
    /// Next overwrite position once the ring is full.
    lat_pos: usize,
    /// Circuit-breaker policy.
    breaker: Option<BreakerPolicy>,
    /// Breaker state machine.
    br_state: BrState,
    /// Rolling terminal outcomes (`true` = success), newest at the back.
    br_window: VecDeque<bool>,
    /// Failures currently in `br_window`.
    br_failures: usize,
    /// Brownout: the open breaker is forcing the degraded engine.
    br_forced: bool,
    /// Replica-recovery policy.
    recovery: Option<RecoveryPolicy>,
    // --- autoscaling (optional; absent policies cost nothing) ----------
    /// Serverless autoscaling policy.
    autoscaler: Option<AutoscalerPolicy>,
    /// Completions since the last tick.
    win_completions: u32,
    /// Completions since the last tick that missed the policy's
    /// `slo_target`.
    win_slo_miss: u32,
    /// `true` once any replica has started, so later provisions are
    /// reported warm, not cold.
    started: bool,
}

/// The ingress component: owns every serve group's queue, batcher,
/// arrival stream and resilience state, plus the request/serve-event
/// logs that end up in the [`crate::RunTrace`].
pub(crate) struct Ingress {
    groups: Vec<GroupRt>,
    /// Which group each pid serves, `None` for closed-loop processes.
    group_of_pid: Vec<Option<usize>>,
    /// Requests currently executing on each pid.
    inflight: Vec<Vec<usize>>,
    /// Whether each pid currently holds a dispatched batch (guards the
    /// free list against stale wakeups from a pre-restart life).
    busy: Vec<bool>,
    /// Replica health, per pid (always `Up` for closed-loop processes).
    health: Vec<ReplicaHealth>,
    /// Restarts consumed, per pid.
    restarts_used: Vec<u32>,
    /// Autoscale lifecycle, per pid (`Up` for every pid outside an
    /// autoscaled group).
    scale: Vec<ScaleState>,
    /// Invalidates stale [`IngressEvent::ScaleUpDone`] timers, per pid.
    scale_gen: Vec<u32>,
    /// When each pid last became idle (feeds the keep-alive reaper).
    idle_since: Vec<SimTime>,
    /// Hedge pairing: each member of an unresolved pair maps to its twin.
    hedge_peer: HashMap<usize, usize>,
    /// Every request's lifecycle, in arrival order; each lifecycle step
    /// writes its fields in place.
    pub(crate) requests: Vec<RequestRecord>,
    /// Batch formations, degradation flips, breaker transitions and
    /// replica health changes, in time order.
    pub(crate) serve_events: Vec<ServeEvent>,
}

impl Ingress {
    /// Handles one serving event at `now`, driving the peers in `deps`.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: IngressEvent,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        mut deps: IngressDeps<'_>,
    ) {
        match ev {
            IngressEvent::Arrival { group } => self.on_arrival(group as usize, now, ctx, &mut deps),
            IngressEvent::Flush { group, gen } => {
                let group = group as usize;
                if self.groups[group].flush_gen == gen {
                    self.groups[group].flush_at = None;
                    self.try_dispatch(group, now, ctx, &mut deps);
                }
            }
            IngressEvent::ServerFree { pid } => {
                self.on_server_free(pid as usize, now, ctx, &mut deps)
            }
            IngressEvent::Deadline { req } => self.on_deadline(req as usize, now, ctx, &mut deps),
            IngressEvent::Retry { req } => self.on_retry(req as usize, now, ctx, &mut deps),
            IngressEvent::HedgeFire { req } => {
                self.on_hedge_fire(req as usize, now, ctx, &mut deps)
            }
            IngressEvent::RestartDone { pid } => {
                self.on_restart_done(pid as usize, now, ctx, &mut deps)
            }
            IngressEvent::AutoscaleTick { group } => {
                self.on_autoscale_tick(group as usize, now, ctx)
            }
            IngressEvent::ScaleUpDone { pid, gen } => {
                self.on_scale_up_done(pid as usize, gen, now, ctx, &mut deps)
            }
        }
    }

    /// Builds the ingress state for `config`'s serve plan (empty state
    /// for closed-loop configs).
    pub(crate) fn new(config: &SimConfig) -> Self {
        let n = config.processes.len();
        let mut group_of_pid = vec![None; n];
        let mut groups = Vec::new();
        if let Some(plan) = &config.serve {
            for (g, sg) in plan.groups.iter().enumerate() {
                for &pid in &sg.members {
                    group_of_pid[pid] = Some(g);
                }
                let lead = &config.processes[sg.members[0]];
                groups.push(GroupRt {
                    members: sg.members.clone(),
                    free: VecDeque::with_capacity(sg.members.len()),
                    queue: VecDeque::with_capacity(sg.queue_cap.min(1 << 16)),
                    stream: ArrivalStream::new(sg.arrivals.clone(), group_seed(config.seed, g)),
                    policy: BatcherPolicy::new(lead.engine.batch(), sg.max_delay),
                    queue_cap: sg.queue_cap,
                    admission: sg.admission,
                    normal: Arc::clone(&lead.engine),
                    degraded: sg.degraded_engine.clone(),
                    degraded_mode: false,
                    flush_gen: 0,
                    flush_at: None,
                    exhausted: false,
                    seq: 0,
                    deadline: sg.deadline,
                    retry: sg.retry,
                    // A distinct stream per group: constructing the RNG
                    // draws nothing, so retry-free groups stay inert.
                    retry_rng: SimRng::seed_from(group_seed(config.seed ^ RETRY_STREAM, g)),
                    hedge: sg.hedge,
                    lat_ring: Vec::new(),
                    lat_pos: 0,
                    breaker: sg.breaker,
                    br_state: BrState::Closed,
                    br_window: VecDeque::new(),
                    br_failures: 0,
                    br_forced: false,
                    recovery: sg.recovery,
                    autoscaler: sg.autoscaler,
                    win_completions: 0,
                    win_slo_miss: 0,
                    started: false,
                });
            }
        }
        // Room for the expected arrivals with 25% slack, so neither log
        // regrows by doubling: a serve run writes about one record per
        // arrival (more with retries and hedges) and one batch event per
        // dispatch. Unwritten capacity is never touched.
        let window = config.total_time();
        let expected: f64 = config
            .serve
            .iter()
            .flat_map(|plan| &plan.groups)
            .map(|g| g.expected_arrivals(window))
            .sum();
        let records = ((expected * 1.25) as usize).min(MAX_PRESIZED_RECORDS);
        Ingress {
            groups,
            group_of_pid,
            inflight: vec![Vec::new(); n],
            busy: vec![false; n],
            health: vec![ReplicaHealth::Up; n],
            restarts_used: vec![0; n],
            scale: vec![ScaleState::Up; n],
            scale_gen: vec![0; n],
            idle_since: vec![SimTime::ZERO; n],
            hedge_peer: HashMap::new(),
            requests: Vec::with_capacity(records),
            serve_events: Vec::with_capacity(records),
        }
    }

    /// Request conservation at the end of a run, checked in debug
    /// builds: every record neither completed nor dropped sits in its
    /// group's queue or in exactly one pid's in-flight list, and every
    /// queued or in-flight index names such a record.
    pub(crate) fn debug_check_conservation(&self) {
        let mut holders = vec![0u32; self.requests.len()];
        for (g, grp) in self.groups.iter().enumerate() {
            for &ri in &grp.queue {
                let r = &self.requests[ri];
                debug_assert!(
                    r.group() == g && r.dispatched().is_none(),
                    "request {ri} ({r:?}) is queued at group {g}"
                );
                holders[ri] += 1;
            }
        }
        for &ri in self.inflight.iter().flatten() {
            holders[ri] += 1;
        }
        for (ri, (r, &held)) in self.requests.iter().zip(&holders).enumerate() {
            debug_assert!(
                held == u32::from(r.unfinished()),
                "request {ri} ({r:?}) is held by {held} queues or in-flight lists"
            );
        }
    }

    /// Replica lifecycle at the end of a run, checked in debug builds.
    /// Per pid, health events follow `(Down Up)* (Down Ejected?)?`, as
    /// [`Ingress::on_replica_killed`] and `on_restart_done` emit them,
    /// and every `Warmed` follows its `Provisioned` with no `Down` between
    /// (a kill mid start cancels the provision), except the initial
    /// up-set [`Ingress::start`] warms at t = 0.
    pub(crate) fn debug_check_replica_health(&self) {
        use ReplicaHealth::{Ejected, Restarting, Up};
        use ServeEventKind::*;
        // Per pid: its health, and whether a start is pending.
        let mut state = vec![(Up, false); self.health.len()];
        for e in &self.serve_events {
            let pid = match e.kind {
                ReplicaDown { pid, .. } | ReplicaUp { pid } | ReplicaEjected { pid } => pid,
                ReplicaProvisioned { pid, .. } | ReplicaWarmed { pid } => pid,
                _ => continue,
            };
            let (health, starting) = state[pid];
            let next = match (&e.kind, health) {
                (ReplicaDown { .. }, Up) => Some((Restarting, false)),
                (ReplicaUp { .. }, Restarting) => Some((Up, starting)),
                (ReplicaEjected { .. }, Restarting) => Some((Ejected, starting)),
                (ReplicaProvisioned { .. }, Up) if !starting => Some((Up, true)),
                (ReplicaWarmed { .. }, _) if starting || e.time == SimTime::ZERO => {
                    Some((health, false))
                }
                _ => None,
            };
            debug_assert!(
                next.is_some(),
                "replica health: pid {pid} (group {}) saw {:?} at {} ns while {health:?}{}",
                e.group,
                e.kind,
                e.time.as_nanos(),
                if starting { " and starting" } else { "" },
            );
            state[pid] = next.unwrap_or(state[pid]);
        }
    }

    /// `true` when `pid` is a server (its ECs are driven by ingress, not
    /// the closed loop).
    pub(crate) fn serves(&self, pid: usize) -> bool {
        self.group_of_pid.get(pid).is_some_and(|g| g.is_some())
    }

    /// Registers the surviving members as free servers and schedules
    /// every group's first arrival. Called once at the start of the run,
    /// after the memory guard resolved start-of-run overcommits.
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_>) {
        for g in 0..self.groups.len() {
            let alive: Vec<usize> = self.groups[g]
                .members
                .iter()
                .copied()
                .filter(|&pid| ctx.alive[pid])
                .collect();
            match self.groups[g].autoscaler {
                Some(policy) => {
                    // The first `min_replicas` live members are the
                    // pre-warmed steady-state fleet; everyone else parks
                    // until the autoscaler provisions them. The `Warmed`
                    // events at t = 0 seed the report's replica-seconds
                    // replay with the initial up-set.
                    let initial = (policy.min_replicas as usize).min(alive.len());
                    for &pid in &alive[..initial] {
                        self.serve_events.push(ServeEvent {
                            time: SimTime::ZERO,
                            group: g,
                            kind: ServeEventKind::ReplicaWarmed { pid },
                        });
                        self.groups[g].free.push_back(pid);
                    }
                    for &pid in &alive[initial..] {
                        self.scale[pid] = ScaleState::Parked;
                    }
                    self.groups[g].started = initial > 0;
                    ctx.queue.schedule(
                        SimTime::ZERO + policy.evaluate_every,
                        Event::Ingress(IngressEvent::AutoscaleTick { group: g as u32 }),
                    );
                }
                None => self.groups[g].free.extend(alive),
            }
            self.schedule_next_arrival(g, SimTime::ZERO, ctx);
        }
    }

    /// Draws the next inter-arrival gap and schedules the arrival at
    /// `now + gap`.
    fn schedule_next_arrival(&mut self, g: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let grp = &mut self.groups[g];
        if grp.exhausted {
            return;
        }
        match grp.stream.next_gap() {
            Some(gap) => ctx.queue.schedule(
                now + gap,
                Event::Ingress(IngressEvent::Arrival { group: g as u32 }),
            ),
            None => grp.exhausted = true,
        }
    }

    /// A request arrives: record it, run it through the breaker gate and
    /// admission, dispatch if possible, and schedule the next arrival.
    fn on_arrival(
        &mut self,
        g: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        let arrival = RequestRecord::arrived(g, self.next_seq(g), now);
        let ri = self.push_request(arrival);
        self.admit(g, ri, now, ctx);
        self.try_dispatch(g, now, ctx, deps);
        self.schedule_next_arrival(g, now, ctx);
    }

    /// The group's next arrival sequence number (retries and hedges
    /// share the counter).
    fn next_seq(&mut self, g: usize) -> u32 {
        let seq = self.groups[g].seq;
        self.groups[g].seq += 1;
        seq
    }

    /// Appends a request record and returns its index. Event payloads
    /// and record links carry the index as a `u32`, which
    /// `SimConfig::validate` keeps lossless by bounding the plan's
    /// worst-case record count.
    fn push_request(&mut self, r: RequestRecord) -> usize {
        let ri = self.requests.len();
        debug_assert!(
            ri < u32::MAX as usize,
            "request index {ri} overflows the u32 index space"
        );
        self.requests.push(r);
        ri
    }

    /// Runs one freshly recorded request through the breaker gate and
    /// the admission policy. Returns `true` when it ended up queued.
    fn admit(&mut self, g: usize, ri: usize, now: SimTime, ctx: &mut Ctx<'_>) -> bool {
        if !self.breaker_gate(g, ri, now) {
            self.requests[ri].drop_at(now, DropKind::BreakerOpen);
            self.unlink_hedge(ri);
            return false;
        }
        if self.groups[g].queue.len() >= self.groups[g].queue_cap {
            match self.groups[g].admission {
                AdmissionPolicy::Reject => {
                    self.drop_request(g, ri, DropKind::Rejected, now, ctx);
                    return false;
                }
                AdmissionPolicy::Shed | AdmissionPolicy::Degrade => {
                    // Freshest-frame discipline: the stalest queued
                    // request makes room for the newest.
                    let victim = self.groups[g]
                        .queue
                        .pop_front()
                        .expect("full queue has a front");
                    self.drop_request(g, victim, DropKind::Shed, now, ctx);
                    self.groups[g].queue.push_back(ri);
                    if self.groups[g].admission == AdmissionPolicy::Degrade
                        && self.groups[g].degraded.is_some()
                        && !self.groups[g].degraded_mode
                    {
                        self.groups[g].degraded_mode = true;
                        let queue_depth = self.groups[g].queue.len();
                        self.serve_events.push(ServeEvent {
                            time: now,
                            group: g,
                            kind: ServeEventKind::DegradeEnter { queue_depth },
                        });
                    }
                }
            }
        } else {
            self.groups[g].queue.push_back(ri);
        }
        // Queued: arm the optional timers. Both are lazily invalidated —
        // a deadline for a request that dispatched in time is ignored,
        // and a hedge for one that completed (or never dispatched) is
        // ignored too.
        if let Some(deadline) = self.groups[g].deadline {
            ctx.queue.schedule(
                now + deadline,
                Event::Ingress(IngressEvent::Deadline { req: ri as u32 }),
            );
        }
        if let Some(hp) = self.groups[g].hedge {
            if self.requests[ri].hedge_of().is_none() {
                if let Some(delay) = self.hedge_delay(g, hp) {
                    ctx.queue.schedule(
                        now + delay,
                        Event::Ingress(IngressEvent::HedgeFire { req: ri as u32 }),
                    );
                }
            }
        }
        // Scale-from-zero: a queued request in a fully parked group
        // starts a replica immediately — the request pays the start cost
        // instead of waiting out the next evaluation tick.
        self.wake_if_parked(g, now, ctx);
        true
    }

    /// Live replicas the autoscaler counts as serving capacity (`Up`
    /// scale state, healthy, alive — busy or idle).
    fn up_count(&self, g: usize, ctx: &Ctx<'_>) -> u32 {
        self.groups[g]
            .members
            .iter()
            .filter(|&&pid| {
                ctx.alive[pid]
                    && self.health[pid] == ReplicaHealth::Up
                    && self.scale[pid] == ScaleState::Up
            })
            .count() as u32
    }

    /// Replicas mid start.
    fn pending_count(&self, g: usize, ctx: &Ctx<'_>) -> u32 {
        self.groups[g]
            .members
            .iter()
            .filter(|&&pid| {
                ctx.alive[pid]
                    && self.health[pid] == ReplicaHealth::Up
                    && self.scale[pid] == ScaleState::Warming
            })
            .count() as u32
    }

    /// Starts one parked replica if the group is autoscaled, has queued
    /// work and zero serving or pending capacity.
    fn wake_if_parked(&mut self, g: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        if self.groups[g].autoscaler.is_none() || self.groups[g].queue.is_empty() {
            return;
        }
        if self.up_count(g, ctx) == 0 && self.pending_count(g, ctx) == 0 {
            self.provision(g, 1, now, ctx);
        }
    }

    /// Provisions up to `k` parked replicas (member order), each paying
    /// the policy's `start_cost`. The group's first start is reported
    /// cold.
    fn provision(&mut self, g: usize, k: u32, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(policy) = self.groups[g].autoscaler else {
            return;
        };
        let candidates: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&pid| {
                ctx.alive[pid]
                    && self.health[pid] == ReplicaHealth::Up
                    && self.scale[pid] == ScaleState::Parked
            })
            .take(k as usize)
            .collect();
        for pid in candidates {
            let cold = !self.groups[g].started;
            self.groups[g].started = true;
            self.scale[pid] = ScaleState::Warming;
            self.scale_gen[pid] = self.scale_gen[pid].wrapping_add(1);
            self.serve_events.push(ServeEvent {
                time: now,
                group: g,
                kind: ServeEventKind::ReplicaProvisioned { pid, cold },
            });
            ctx.queue.schedule(
                now + policy.start_cost,
                Event::Ingress(IngressEvent::ScaleUpDone {
                    pid: pid as u32,
                    gen: self.scale_gen[pid],
                }),
            );
        }
    }

    /// A provisioning replica paid its start cost: it comes `Up` and
    /// joins the free pool. Stale generations (killed mid start) are
    /// ignored.
    fn on_scale_up_done(
        &mut self,
        pid: usize,
        gen: u32,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        if self.scale_gen[pid] != gen || self.health[pid] != ReplicaHealth::Up || !ctx.alive[pid] {
            return;
        }
        let Some(g) = self.group_of_pid[pid] else {
            return;
        };
        // A kill mid start bumps the generation, so a current timer
        // always finds its replica warming.
        debug_assert_eq!(
            self.scale[pid],
            ScaleState::Warming,
            "pid {pid}: start timer (generation {gen}) fired at {} ns",
            now.as_nanos()
        );
        self.scale[pid] = ScaleState::Up;
        self.serve_events.push(ServeEvent {
            time: now,
            group: g,
            kind: ServeEventKind::ReplicaWarmed { pid },
        });
        self.idle_since[pid] = now;
        self.groups[g].free.push_back(pid);
        self.try_dispatch(g, now, ctx, deps);
    }

    /// One autoscaler evaluation: judge the window's signals, provision
    /// on pressure, reap on idleness, re-arm the tick.
    fn on_autoscale_tick(&mut self, g: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(policy) = self.groups[g].autoscaler else {
            return;
        };
        let up = self.up_count(g, ctx);
        let pending = self.pending_count(g, ctx);
        let grp = &mut self.groups[g];
        let slo_burn = if grp.win_completions > 0 {
            f64::from(grp.win_slo_miss) / f64::from(grp.win_completions)
        } else {
            0.0
        };
        grp.win_completions = 0;
        grp.win_slo_miss = 0;
        let signals = ScaleSignals {
            queued: grp.queue.len(),
            up,
            pending,
            slo_burn,
        };
        match policy.decide(signals) {
            ScaleDecision::Up(k) => self.provision(g, k, now, ctx),
            ScaleDecision::Hold => {
                // Keep-alive reaper: park replicas idle past the
                // keep-alive, never below the floor, and never while
                // requests wait (a drained free pool must not strand a
                // queue that sees no further arrivals).
                if self.groups[g].queue.is_empty() {
                    let mut live = up;
                    let mut reaped = false;
                    let members = self.groups[g].members.clone();
                    for pid in members {
                        if live <= policy.min_replicas {
                            break;
                        }
                        let idle = ctx.alive[pid]
                            && self.health[pid] == ReplicaHealth::Up
                            && self.scale[pid] == ScaleState::Up
                            && !self.busy[pid]
                            && now.saturating_since(self.idle_since[pid]) >= policy.keep_alive;
                        if idle {
                            self.scale[pid] = ScaleState::Parked;
                            self.scale_gen[pid] = self.scale_gen[pid].wrapping_add(1);
                            self.groups[g].free.retain(|&p| p != pid);
                            self.serve_events.push(ServeEvent {
                                time: now,
                                group: g,
                                kind: ServeEventKind::ReplicaReaped { pid },
                            });
                            live -= 1;
                            reaped = true;
                        }
                    }
                    if reaped && live == 0 && pending == 0 && policy.min_replicas == 0 {
                        self.serve_events.push(ServeEvent {
                            time: now,
                            group: g,
                            kind: ServeEventKind::ParkedToZero,
                        });
                    }
                }
            }
        }
        ctx.queue.schedule(
            now + policy.evaluate_every,
            Event::Ingress(IngressEvent::AutoscaleTick { group: g as u32 }),
        );
    }

    /// Breaker admission gate. Returns `false` when the arrival must be
    /// dropped with [`DropKind::BreakerOpen`]; on the half-open
    /// transition the admitted request `ri` becomes the probe.
    fn breaker_gate(&mut self, g: usize, ri: usize, now: SimTime) -> bool {
        let Some(policy) = self.groups[g].breaker else {
            return true;
        };
        match self.groups[g].br_state {
            BrState::Closed => true,
            BrState::Open { until } => {
                if now >= until {
                    self.groups[g].br_state = BrState::HalfOpen { probe: Some(ri) };
                    self.serve_events.push(ServeEvent {
                        time: now,
                        group: g,
                        kind: ServeEventKind::BreakerHalfOpen,
                    });
                    true
                } else {
                    policy.mode == BreakerMode::Brownout
                }
            }
            BrState::HalfOpen { probe: None } => {
                self.groups[g].br_state = BrState::HalfOpen { probe: Some(ri) };
                true
            }
            BrState::HalfOpen { probe: Some(_) } => policy.mode == BreakerMode::Brownout,
        }
    }

    /// The hedge delay: fixed, or the rolling p95 of completed latencies
    /// (`None` until enough samples have been observed).
    fn hedge_delay(&self, g: usize, hp: HedgePolicy) -> Option<jetsim_des::SimDuration> {
        if let Some(delay) = hp.delay {
            return Some(delay);
        }
        let ring = &self.groups[g].lat_ring;
        if ring.len() < hp.min_samples.max(1) {
            return None;
        }
        Some(ring_p95(ring))
    }

    /// Terminal failure of `ri` for cause `kind`: record the drop, feed
    /// the breaker, resolve an outstanding probe, unlink any hedge twin
    /// and schedule a retry when the policy allows one.
    ///
    /// [`DropKind::HedgeLoser`] and [`DropKind::BreakerOpen`] are
    /// *exempt* causes — they neither count against the breaker (an open
    /// breaker must not keep itself open, and a cancelled twin is a
    /// success story) nor spawn retries.
    fn drop_request(
        &mut self,
        g: usize,
        ri: usize,
        kind: DropKind,
        now: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        self.requests[ri].drop_at(now, kind);
        self.unlink_hedge(ri);
        let exempt = matches!(kind, DropKind::HedgeLoser | DropKind::BreakerOpen);
        if exempt {
            self.resolve_probe_neutral(g, ri);
            return;
        }
        self.breaker_record(g, false, now);
        self.resolve_probe(g, ri, false, now);
        if self.requests[ri].hedge_of().is_none() {
            self.maybe_retry(g, ri, now, ctx);
        }
    }

    /// Schedules a retry of failed request `ri` if the group's policy
    /// has attempts left. The backoff is exponential with deterministic
    /// jitter from the group's dedicated stream.
    fn maybe_retry(&mut self, g: usize, ri: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(policy) = self.groups[g].retry else {
            return;
        };
        let next_attempt = self.requests[ri].attempt + 1;
        if next_attempt >= policy.max_attempts {
            return;
        }
        let base = policy.base_backoff_for(next_attempt).as_secs_f64();
        let jittered = self.groups[g].retry_rng.jitter(base, RETRY_JITTER);
        let backoff = jetsim_des::SimDuration::from_secs_f64(jittered);
        ctx.queue.schedule(
            now + backoff,
            Event::Ingress(IngressEvent::Retry { req: ri as u32 }),
        );
    }

    /// A failed request's backoff elapsed: submit the next attempt as a
    /// fresh arrival linked to its parent.
    fn on_retry(
        &mut self,
        parent: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        let g = self.requests[parent].group();
        let attempt = self.requests[parent].attempt + 1;
        let retry = RequestRecord::arrived(g, self.next_seq(g), now).retry(parent, attempt);
        let ri = self.push_request(retry);
        self.admit(g, ri, now, ctx);
        self.try_dispatch(g, now, ctx, deps);
    }

    /// A request's queueing deadline expired: if it is still waiting in
    /// the queue, fail it (dispatched requests run to completion — the
    /// report judges their lateness).
    fn on_deadline(
        &mut self,
        ri: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        let r = &self.requests[ri];
        if r.dispatched().is_some() || !r.unfinished() {
            return;
        }
        let g = r.group();
        self.groups[g].queue.retain(|&q| q != ri);
        self.drop_request(g, ri, DropKind::DeadlineExpired, now, ctx);
        self.try_dispatch(g, now, ctx, deps);
    }

    /// A hedged primary's delay elapsed: if it is dispatched but not yet
    /// completed, submit a duplicate to race it.
    fn on_hedge_fire(
        &mut self,
        primary: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        let p = &self.requests[primary];
        if p.dispatched().is_none() || !p.unfinished() || self.hedge_peer.contains_key(&primary) {
            return;
        }
        let g = p.group();
        let hedge = RequestRecord::arrived(g, self.next_seq(g), now).hedge(primary);
        let ri = self.push_request(hedge);
        self.hedge_peer.insert(primary, ri);
        self.hedge_peer.insert(ri, primary);
        if !self.admit(g, ri, now, ctx) {
            // The duplicate died at admission; the pair never formed.
            self.unlink_hedge(ri);
        }
        self.try_dispatch(g, now, ctx, deps);
    }

    /// Removes `ri`'s hedge pairing (both directions), if any.
    fn unlink_hedge(&mut self, ri: usize) {
        if let Some(peer) = self.hedge_peer.remove(&ri) {
            self.hedge_peer.remove(&peer);
        }
    }

    /// `winner` completed: cancel its still-queued twin, if the pair is
    /// still live. A twin already in flight completes naturally and is
    /// deduplicated by the report's logical-request accounting.
    fn resolve_hedge_on_complete(&mut self, g: usize, winner: usize, now: SimTime) {
        let Some(peer) = self.hedge_peer.remove(&winner) else {
            return;
        };
        self.hedge_peer.remove(&peer);
        let twin = &mut self.requests[peer];
        if twin.dispatched().is_none() && twin.unfinished() {
            self.groups[g].queue.retain(|&q| q != peer);
            twin.drop_at(now, DropKind::HedgeLoser);
            self.resolve_probe_neutral(g, peer);
        }
    }

    /// Feeds one terminal outcome into the breaker's rolling window and
    /// trips it when the error rate crosses the threshold.
    fn breaker_record(&mut self, g: usize, ok: bool, now: SimTime) {
        let Some(policy) = self.groups[g].breaker else {
            return;
        };
        if self.groups[g].br_state != BrState::Closed {
            return;
        }
        let grp = &mut self.groups[g];
        grp.br_window.push_back(ok);
        if !ok {
            grp.br_failures += 1;
        }
        while grp.br_window.len() > policy.window {
            if let Some(old) = grp.br_window.pop_front() {
                if !old {
                    grp.br_failures -= 1;
                }
            }
        }
        if grp.br_window.len() >= policy.min_samples && grp.br_failures > 0 {
            let error_rate = grp.br_failures as f64 / grp.br_window.len() as f64;
            if error_rate >= policy.error_threshold {
                grp.br_state = BrState::Open {
                    until: now + policy.cooldown,
                };
                grp.br_forced = policy.mode == BreakerMode::Brownout;
                grp.br_window.clear();
                grp.br_failures = 0;
                self.serve_events.push(ServeEvent {
                    time: now,
                    group: g,
                    kind: ServeEventKind::BreakerTrip { error_rate },
                });
            }
        }
    }

    /// Resolves an outstanding half-open probe: success closes the
    /// breaker, failure re-opens it for another cooldown.
    fn resolve_probe(&mut self, g: usize, ri: usize, ok: bool, now: SimTime) {
        let Some(policy) = self.groups[g].breaker else {
            return;
        };
        if self.groups[g].br_state != (BrState::HalfOpen { probe: Some(ri) }) {
            return;
        }
        if ok {
            self.groups[g].br_state = BrState::Closed;
            self.groups[g].br_forced = false;
            self.groups[g].br_window.clear();
            self.groups[g].br_failures = 0;
            self.serve_events.push(ServeEvent {
                time: now,
                group: g,
                kind: ServeEventKind::BreakerClose,
            });
        } else {
            self.groups[g].br_state = BrState::Open {
                until: now + policy.cooldown,
            };
        }
    }

    /// A probe that ended for an exempt reason (hedge cancellation)
    /// re-arms the half-open slot instead of deciding the breaker.
    fn resolve_probe_neutral(&mut self, g: usize, ri: usize) {
        if self.groups[g].br_state == (BrState::HalfOpen { probe: Some(ri) }) {
            self.groups[g].br_state = BrState::HalfOpen { probe: None };
        }
    }

    /// A server returned from synchronize: complete its batch, free it,
    /// relax degraded mode if the queue drained, and keep dispatching.
    fn on_server_free(
        &mut self,
        pid: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        let Some(g) = self.group_of_pid[pid] else {
            return;
        };
        let was_busy = std::mem::replace(&mut self.busy[pid], false);
        for ri in std::mem::take(&mut self.inflight[pid]) {
            let r = &mut self.requests[ri];
            r.complete(now);
            let latency = r.since_arrival(now);
            if let Some(policy) = self.groups[g].autoscaler {
                self.groups[g].win_completions += 1;
                if policy.slo_target.is_some_and(|target| latency > target) {
                    self.groups[g].win_slo_miss += 1;
                }
            }
            if self.groups[g].hedge.is_some() {
                let grp = &mut self.groups[g];
                if grp.lat_ring.len() < LAT_RING_CAP {
                    grp.lat_ring.push(latency);
                } else {
                    grp.lat_ring[grp.lat_pos] = latency;
                    grp.lat_pos = (grp.lat_pos + 1) % LAT_RING_CAP;
                }
            }
            // A completion that missed the group's deadline is a success
            // for the requester *only* if no deadline was promised.
            let ok = match self.groups[g].deadline {
                Some(deadline) => latency <= deadline,
                None => true,
            };
            self.breaker_record(g, ok, now);
            self.resolve_probe(g, ri, ok, now);
            self.resolve_hedge_on_complete(g, ri, now);
        }
        if ctx.alive[pid]
            && was_busy
            && self.health[pid] == ReplicaHealth::Up
            && self.scale[pid] == ScaleState::Up
        {
            self.idle_since[pid] = now;
            self.groups[g].free.push_back(pid);
        }
        // Hysteresis: leave degraded mode only once the queue has
        // drained well below capacity, so the group doesn't oscillate at
        // the admission boundary.
        let queue_depth = self.groups[g].queue.len();
        if self.groups[g].degraded_mode && queue_depth * 4 <= self.groups[g].queue_cap {
            self.groups[g].degraded_mode = false;
            self.serve_events.push(ServeEvent {
                time: now,
                group: g,
                kind: ServeEventKind::DegradeExit { queue_depth },
            });
        }
        self.try_dispatch(g, now, ctx, deps);
    }

    /// The OOM killer took a serve replica: its in-flight requests are
    /// failed with [`DropKind::Killed`] (they were neither completed nor
    /// answered — the pre-resilience bookkeeping silently leaked them),
    /// retries are scheduled where policy allows, and the replica either
    /// schedules a restart or is ejected.
    pub(crate) fn on_replica_killed(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group_of_pid[pid] else {
            return;
        };
        self.busy[pid] = false;
        self.groups[g].free.retain(|&p| p != pid);
        let dead = std::mem::take(&mut self.inflight[pid]);
        let failed_inflight = dead.len();
        for ri in dead {
            self.drop_request(g, ri, DropKind::Killed, now, ctx);
        }
        self.serve_events.push(ServeEvent {
            time: now,
            group: g,
            kind: ServeEventKind::ReplicaDown {
                pid,
                failed_inflight,
            },
        });
        // A kill mid start cancels the provision (the stale
        // `ScaleUpDone` is generation-gated); the replica returns parked
        // and the autoscaler re-provisions on its own signals — recovery
        // restores the *process*, never serving capacity, so the two
        // supervisors cannot double-provision.
        if self.scale[pid] == ScaleState::Warming {
            self.scale[pid] = ScaleState::Parked;
            self.scale_gen[pid] = self.scale_gen[pid].wrapping_add(1);
        }
        match self.groups[g].recovery {
            Some(policy) if self.restarts_used[pid] < policy.max_restarts => {
                self.restarts_used[pid] += 1;
                self.health[pid] = ReplicaHealth::Restarting;
                ctx.queue.schedule(
                    now + policy.restart_cost,
                    Event::Ingress(IngressEvent::RestartDone { pid: pid as u32 }),
                );
            }
            _ => {
                self.health[pid] = ReplicaHealth::Ejected;
                self.serve_events.push(ServeEvent {
                    time: now,
                    group: g,
                    kind: ServeEventKind::ReplicaEjected { pid },
                });
            }
        }
    }

    /// A killed replica paid its restart cost: re-admit it if its memory
    /// still fits (the board may have tightened since), reset its process
    /// state and hand it back to its group. A revival that does not fit
    /// burns another restart attempt and waits a further restart period —
    /// a supervisor retrying, not giving up — until attempts run out.
    fn on_restart_done(
        &mut self,
        pid: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        if self.health[pid] != ReplicaHealth::Restarting {
            return;
        }
        let Some(g) = self.group_of_pid[pid] else {
            return;
        };
        if !deps.guard.revival_fits(ctx, pid) {
            match self.groups[g].recovery {
                Some(policy) if self.restarts_used[pid] < policy.max_restarts => {
                    self.restarts_used[pid] += 1;
                    ctx.queue.schedule(
                        now + policy.restart_cost,
                        Event::Ingress(IngressEvent::RestartDone { pid: pid as u32 }),
                    );
                }
                _ => {
                    self.health[pid] = ReplicaHealth::Ejected;
                    self.serve_events.push(ServeEvent {
                        time: now,
                        group: g,
                        kind: ServeEventKind::ReplicaEjected { pid },
                    });
                }
            }
            return;
        }
        ctx.alive[pid] = true;
        deps.gpu.clear_ready(pid, ctx);
        let proc = &mut ctx.procs[pid];
        proc.next_launch = 0;
        proc.cur_launch = jetsim_des::SimDuration::ZERO;
        proc.cur_blocking = jetsim_des::SimDuration::ZERO;
        proc.cur_gpu = jetsim_des::SimDuration::ZERO;
        // A restarted process comes up with cold caches, and a bumped
        // scheduler generation invalidates any tick from its former life.
        proc.cache_cold = true;
        let gen = proc.cpu.gen.wrapping_add(1);
        proc.cpu = RqThread::new();
        proc.cpu.gen = gen;
        self.health[pid] = ReplicaHealth::Up;
        self.serve_events.push(ServeEvent {
            time: now,
            group: g,
            kind: ServeEventKind::ReplicaUp { pid },
        });
        // A replica that was parked (or mid-provision) when killed comes
        // back as a healthy *parked* process: the autoscaler, not the
        // supervisor, decides when it serves again.
        if self.scale[pid] == ScaleState::Up {
            self.idle_since[pid] = now;
            self.groups[g].free.push_back(pid);
            self.try_dispatch(g, now, ctx, deps);
        }
    }

    /// Matches free servers against the queue until the batcher says
    /// wait (or everything is busy/empty).
    fn try_dispatch(
        &mut self,
        g: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: &mut IngressDeps<'_>,
    ) {
        loop {
            // Next live free server (members the OOM killer took are
            // dropped lazily here; restarting/ejected members were
            // removed eagerly but a stale entry is filtered the same way).
            let pid = loop {
                match self.groups[g].free.pop_front() {
                    Some(p)
                        if ctx.alive[p]
                            && self.health[p] == ReplicaHealth::Up
                            && self.scale[p] == ScaleState::Up =>
                    {
                        break p
                    }
                    Some(_) => continue,
                    None => return,
                }
            };
            let grp = &mut self.groups[g];
            let oldest = grp.queue.front().map(|&ri| self.requests[ri].arrival);
            match grp.policy.decide(now, grp.queue.len(), oldest) {
                BatchDecision::Idle => {
                    grp.free.push_front(pid);
                    return;
                }
                BatchDecision::WaitUntil(deadline) => {
                    grp.free.push_front(pid);
                    if grp.flush_at != Some(deadline) {
                        grp.flush_gen += 1;
                        grp.flush_at = Some(deadline);
                        let gen = grp.flush_gen;
                        ctx.queue.schedule(
                            deadline,
                            Event::Ingress(IngressEvent::Flush {
                                group: g as u32,
                                gen,
                            }),
                        );
                    }
                    return;
                }
                BatchDecision::Dispatch(k) => {
                    // Any pending flush is now stale.
                    grp.flush_gen += 1;
                    grp.flush_at = None;
                    let degraded = (grp.degraded_mode || grp.br_forced) && grp.degraded.is_some();
                    let engine = if degraded {
                        Arc::clone(grp.degraded.as_ref().expect("checked"))
                    } else {
                        Arc::clone(&grp.normal)
                    };
                    let oldest = oldest.expect("dispatch implies a queued request");
                    let batch: Vec<usize> = (0..k)
                        .map(|_| grp.queue.pop_front().expect("decide bounded by queue"))
                        .collect();
                    let queue_depth = grp.queue.len();
                    for &ri in &batch {
                        self.requests[ri].dispatch(now, pid, k, degraded);
                    }
                    self.inflight[pid] = batch;
                    self.busy[pid] = true;
                    self.serve_events.push(ServeEvent {
                        time: now,
                        group: g,
                        kind: ServeEventKind::BatchFormed {
                            pid,
                            size: k,
                            oldest_wait: now.saturating_since(oldest),
                            queue_depth,
                            degraded,
                        },
                    });
                    // Hand the batch to the host thread: a server is idle
                    // between batches (next_launch == 0), so swapping the
                    // engine at this boundary is safe.
                    let proc = &mut ctx.procs[pid];
                    if !Arc::ptr_eq(&proc.engine, &engine) {
                        proc.engine = engine;
                    }
                    proc.cur_queue_delay = now.saturating_since(oldest);
                    proc.ec_start = now;
                    deps.sched.start_launch(pid, now, ctx, deps.gpu);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use jetsim_des::SimDuration;

    use super::*;

    /// The selected p95 is the element sort-and-index reads, at every
    /// ring length, with ties and with distinct samples.
    #[test]
    fn ring_p95_matches_sort_and_index() {
        let mut rng = SimRng::seed_from(95);
        for len in 1..=LAT_RING_CAP {
            for spread in [4, 1_000_000_000] {
                let ring: Vec<SimDuration> = (0..len)
                    .map(|_| SimDuration::from_nanos(rng.uniform_u64(0, spread)))
                    .collect();
                let mut sorted = ring.clone();
                sorted.sort_unstable();
                let rank = ((len as f64) * 0.95).ceil() as usize;
                assert_eq!(ring_p95(&ring), sorted[rank.clamp(1, len) - 1], "len {len}");
            }
        }
    }
}
