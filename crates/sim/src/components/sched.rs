//! CPU scheduling: host-thread lifecycle, the explicit run-queue quantum
//! scheduler ([`crate::CpuModel::RunQueue`]) and the calibrated
//! stochastic contention model — the paper's §7 launch/blocking story.

use jetsim_des::{SimDuration, SimTime};

use std::collections::VecDeque;

use crate::config::{ArrivalModel, CpuModel};
use crate::trace::EcRecord;

use super::gpu::GpuEngine;
use super::{Ctx, Event};

/// Events consumed by [`CpuSched`].
///
/// Payloads are deliberately `u32` (process ids are tiny, generation
/// stamps wrap far beyond any realistic run) so the whole
/// [`super::Event`] slab stays within 16 bytes — see the size test in
/// `components::tests`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SchedEvent {
    /// A host thread finished one kernel-launch call.
    LaunchDone {
        /// The launching process.
        pid: u32,
    },
    /// A host thread resumes after blocking or a sync wakeup.
    ThreadResume {
        /// The resuming process.
        pid: u32,
        /// What the thread does on resume.
        kind: Resume,
    },
    /// A run-queue CPU grant ends (burst completion or quantum expiry).
    CpuTick {
        /// Thread whose grant ends.
        pid: u32,
        /// Generation stamp; stale ticks are ignored.
        gen: u32,
    },
}

/// What a resuming host thread does.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resume {
    /// Continue launching kernels after a preemption.
    ContinueLaunch,
    /// Return from `cudaStreamSynchronize`; the EC is complete.
    SyncReturn,
}

/// Per-thread state of the explicit run-queue CPU scheduler
/// ([`CpuModel::RunQueue`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RqThread {
    pub(crate) state: RqState,
    pub(crate) job: RqJob,
    /// Remaining work in the current burst; `None` while spin-waiting on
    /// the GPU (CUDA's default busy-wait synchronisation).
    pub(crate) remaining: Option<SimDuration>,
    /// Generation stamp invalidating stale `CpuTick` events (`u32` to
    /// keep the event slab small; it would take > 4 × 10⁹ grants on one
    /// thread to wrap).
    pub(crate) gen: u32,
    /// When the thread entered the ready queue.
    pub(crate) queued_since: SimTime,
    /// When the current running segment began.
    pub(crate) seg_start: SimTime,
    /// When the current quantum expires.
    pub(crate) slice_end: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RqState {
    /// Not runnable (waiting for a frame arrival).
    Idle,
    /// Runnable, waiting for a heavy core.
    Queued,
    /// Holding a heavy core.
    Running,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RqJob {
    /// Issuing kernel-launch calls.
    Launch,
    /// Processing a completed synchronisation.
    SyncReturn,
    /// Spin-waiting in `cudaStreamSynchronize`.
    Spin,
}

impl RqThread {
    pub(crate) fn new() -> Self {
        RqThread {
            state: RqState::Idle,
            job: RqJob::Spin,
            remaining: None,
            gen: 0,
            queued_since: SimTime::ZERO,
            seg_start: SimTime::ZERO,
            slice_end: SimTime::ZERO,
        }
    }
}

/// The CPU scheduling component: owns the run-queue occupancy state and
/// drives every host thread's launch/block/sync lifecycle.
pub(crate) struct CpuSched {
    /// Threads currently holding heavy cores (run-queue mode).
    running: u32,
    /// Ready queue of thread ids (run-queue mode).
    ready: VecDeque<usize>,
}

impl CpuSched {
    /// Handles one host-thread event at `now`; launches feed `gpu`.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: SchedEvent,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        gpu: &mut GpuEngine,
    ) {
        match ev {
            SchedEvent::LaunchDone { pid } => self.on_launch_done(pid as usize, now, ctx, gpu),
            SchedEvent::ThreadResume { pid, kind } => match kind {
                Resume::ContinueLaunch => self.start_launch(pid as usize, now, ctx, gpu),
                Resume::SyncReturn => self.on_sync_return(pid as usize, now, ctx, gpu),
            },
            SchedEvent::CpuTick { pid, gen } => self.rq_tick(pid as usize, gen, now, ctx, gpu),
        }
    }

    pub(crate) fn new() -> Self {
        CpuSched {
            running: 0,
            ready: VecDeque::new(),
        }
    }

    fn run_queue_mode(ctx: &Ctx<'_>) -> bool {
        ctx.config.cpu_model == CpuModel::RunQueue
    }

    /// Starts the next EC: immediately in saturated mode, otherwise when
    /// the next batch has arrived. Records the batch's queueing delay.
    pub(crate) fn begin_next_ec(
        &mut self,
        pid: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        gpu: &mut GpuEngine,
    ) {
        if !ctx.alive[pid] {
            return;
        }
        let proc = &mut ctx.procs[pid];
        match proc.arrivals {
            ArrivalModel::Saturated => {
                proc.cur_queue_delay = SimDuration::ZERO;
                proc.ec_start = now;
                self.start_launch(pid, now, ctx, gpu);
            }
            ArrivalModel::Periodic { fps } | ArrivalModel::Poisson { fps } => {
                let arrival = proc.next_arrival;
                let gap = match proc.arrivals {
                    ArrivalModel::Poisson { .. } => {
                        // Exponential inter-arrival with mean 1/fps.
                        let u = ctx.rng.uniform(f64::EPSILON, 1.0);
                        SimDuration::from_secs_f64(-u.ln() / fps)
                    }
                    _ => SimDuration::from_secs_f64(1.0 / fps),
                };
                ctx.procs[pid].next_arrival = arrival + gap;
                let proc = &mut ctx.procs[pid];
                if arrival <= now {
                    proc.cur_queue_delay = now.saturating_since(arrival);
                    proc.ec_start = now;
                    self.start_launch(pid, now, ctx, gpu);
                } else {
                    proc.cur_queue_delay = SimDuration::ZERO;
                    proc.ec_start = arrival;
                    if Self::run_queue_mode(ctx) && ctx.procs[pid].cpu.state == RqState::Running {
                        // Nothing to do until the frame arrives: yield the
                        // core instead of spinning on an empty queue.
                        self.rq_release(pid, now, ctx);
                    }
                    ctx.queue.schedule(
                        arrival,
                        Event::Sched(SchedEvent::ThreadResume {
                            pid: pid as u32,
                            kind: Resume::ContinueLaunch,
                        }),
                    );
                }
            }
        }
    }

    /// The host thread spends CPU time issuing the next kernel launch.
    pub(crate) fn start_launch(
        &mut self,
        pid: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        gpu: &mut GpuEngine,
    ) {
        if !ctx.alive[pid] {
            return; // stale resume for a process the OOM killer took
        }
        let cpu = &ctx.config.device.cpu;
        let contention = 1.0 + 0.25 * f64::from(ctx.n_procs.saturating_sub(1));
        let launch_call_us = (ctx.rng.uniform(18.0, 40.0) * contention).min(110.0);
        let mut cost = cpu.enqueue_cost + SimDuration::from_micros_f64(launch_call_us);
        cost = cost.mul_f64(ctx.config.profiler.launch_overhead_factor());
        if ctx.procs[pid].cache_cold {
            cost = cost.mul_f64(cpu.migration_cache_penalty);
        }
        let proc = &mut ctx.procs[pid];
        proc.cur_launch += cost;
        if Self::run_queue_mode(ctx) {
            self.rq_request(pid, now, cost, RqJob::Launch, ctx);
        } else {
            gpu.charge_cpu(cost);
            ctx.queue.schedule_after(
                cost,
                Event::Sched(SchedEvent::LaunchDone { pid: pid as u32 }),
            );
        }
    }

    // ----- explicit run-queue CPU scheduler (CpuModel::RunQueue) -------

    /// Submits a CPU burst for `pid`. If the thread already holds a core
    /// the burst continues within its quantum; otherwise it queues for
    /// one of the heavy cores.
    fn rq_request(
        &mut self,
        pid: usize,
        now: SimTime,
        work: SimDuration,
        job: RqJob,
        ctx: &mut Ctx<'_>,
    ) {
        let thread = &mut ctx.procs[pid].cpu;
        thread.job = job;
        thread.remaining = Some(work);
        match thread.state {
            RqState::Running => self.rq_reschedule(pid, now, ctx),
            RqState::Queued => {} // keeps its queue position, new work noted
            RqState::Idle => {
                if self.running < ctx.config.device.cpu.heavy_cores {
                    self.rq_grant(pid, now, ctx);
                } else {
                    let thread = &mut ctx.procs[pid].cpu;
                    thread.state = RqState::Queued;
                    thread.queued_since = now;
                    self.ready.push_back(pid);
                }
            }
        }
    }

    /// Gives `pid` a heavy core and a fresh quantum.
    fn rq_grant(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let waited = {
            let thread = &mut ctx.procs[pid].cpu;
            let waited = if thread.state == RqState::Queued {
                Some(now.saturating_since(thread.queued_since))
            } else {
                None
            };
            thread.state = RqState::Running;
            thread.slice_end = now + ctx.config.device.cpu.quantum;
            waited
        };
        self.running += 1;
        if let Some(wait) = waited {
            // Queue waits with launch work pending are the paper's B_l;
            // waits while spinning surface as synchronisation time.
            if ctx.procs[pid].cpu.job == RqJob::Launch && !wait.is_zero() {
                ctx.procs[pid].cur_blocking += wait;
            }
            if !wait.is_zero() && ctx.rng.chance(0.6) {
                ctx.procs[pid].cache_cold = true;
            }
        }
        self.rq_reschedule(pid, now, ctx);
    }

    /// (Re)schedules the running thread's next tick: burst completion or
    /// quantum expiry, whichever comes first.
    fn rq_reschedule(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let thread = &mut ctx.procs[pid].cpu;
        debug_assert_eq!(thread.state, RqState::Running);
        thread.gen += 1;
        thread.seg_start = now;
        let tick_at = match thread.remaining {
            Some(work) => (now + work).min(thread.slice_end),
            None => thread.slice_end,
        };
        let gen = thread.gen;
        ctx.queue.schedule(
            tick_at.max_of(now),
            Event::Sched(SchedEvent::CpuTick {
                pid: pid as u32,
                gen,
            }),
        );
    }

    /// Releases `pid`'s core (thread goes idle) and dispatches the next
    /// queued thread.
    pub(crate) fn rq_release(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(ctx.procs[pid].cpu.state, RqState::Running);
        ctx.procs[pid].cpu.state = RqState::Idle;
        ctx.procs[pid].cpu.gen += 1;
        self.running -= 1;
        if let Some(next) = self.ready.pop_front() {
            self.rq_grant(next, now, ctx);
        }
    }

    /// Removes a dead process from the scheduler: releases its core or
    /// drops it from the ready queue, and invalidates stale ticks.
    pub(crate) fn rq_evict(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        match ctx.procs[pid].cpu.state {
            RqState::Running => self.rq_release(pid, now, ctx),
            RqState::Queued => {
                self.ready.retain(|&p| p != pid);
                let thread = &mut ctx.procs[pid].cpu;
                thread.state = RqState::Idle;
                thread.gen += 1;
            }
            RqState::Idle => {
                ctx.procs[pid].cpu.gen += 1;
            }
        }
    }

    /// A running thread's grant ended: either its burst completed or its
    /// quantum expired.
    fn rq_tick(
        &mut self,
        pid: usize,
        gen: u32,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        gpu: &mut GpuEngine,
    ) {
        {
            let thread = &ctx.procs[pid].cpu;
            if !ctx.alive[pid] || thread.state != RqState::Running || thread.gen != gen {
                return; // stale (or the thread's process was killed)
            }
        }
        let ran = now.saturating_since(ctx.procs[pid].cpu.seg_start);
        // Spinning or working, the core burns power the whole segment.
        gpu.charge_cpu(ran);
        let finished = {
            let thread = &mut ctx.procs[pid].cpu;
            match thread.remaining {
                Some(work) => {
                    let left = work.saturating_sub(ran);
                    thread.remaining = Some(left);
                    left.is_zero()
                }
                None => false,
            }
        };
        if finished {
            let job = ctx.procs[pid].cpu.job;
            // The thread keeps its core through the continuation; the
            // continuation decides whether to submit more work, spin, or
            // go idle.
            ctx.procs[pid].cpu.remaining = None;
            ctx.procs[pid].cpu.job = RqJob::Spin;
            match job {
                RqJob::Launch => self.on_launch_done(pid, now, ctx, gpu),
                RqJob::SyncReturn => self.on_sync_return(pid, now, ctx, gpu),
                RqJob::Spin => unreachable!("spin bursts never finish"),
            }
            // If the continuation left the thread running (spin or more
            // work was already rescheduled by rq_request), make sure a
            // tick exists; rq_request/rq_set_spin handled it.
            return;
        }
        // Quantum expired with work left (or spinning).
        if self.ready.is_empty() {
            let thread = &mut ctx.procs[pid].cpu;
            thread.slice_end = now + ctx.config.device.cpu.quantum;
            self.rq_reschedule(pid, now, ctx);
        } else {
            let thread = &mut ctx.procs[pid].cpu;
            thread.state = RqState::Queued;
            thread.queued_since = now;
            thread.gen += 1;
            self.ready.push_back(pid);
            self.running -= 1;
            let next = self.ready.pop_front().expect("non-empty");
            self.rq_grant(next, now, ctx);
        }
    }

    /// Parks a running thread in spin-wait (`cudaStreamSynchronize`
    /// busy-polls by default, keeping the thread runnable — the root of
    /// the paper's §7 oversubscription collapse).
    fn rq_set_spin(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let thread = &mut ctx.procs[pid].cpu;
        debug_assert_eq!(thread.state, RqState::Running);
        thread.job = RqJob::Spin;
        thread.remaining = None;
        self.rq_reschedule(pid, now, ctx);
    }

    /// The GPU finished `pid`'s EC: convert its spin into sync-return
    /// work. If the thread is queued out, the remaining queue wait
    /// becomes visible synchronisation latency.
    pub(crate) fn rq_notify_gpu_done(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let sync_cost = SimDuration::from_micros(30) + ctx.config.device.cpu.wakeup_base;
        let state = ctx.procs[pid].cpu.state;
        match state {
            RqState::Running => {
                let thread = &mut ctx.procs[pid].cpu;
                thread.job = RqJob::SyncReturn;
                thread.remaining = Some(sync_cost);
                self.rq_reschedule(pid, now, ctx);
            }
            RqState::Queued => {
                let thread = &mut ctx.procs[pid].cpu;
                thread.job = RqJob::SyncReturn;
                thread.remaining = Some(sync_cost);
            }
            RqState::Idle => {
                // Should not happen (the thread spins during sync), but
                // recover gracefully.
                self.rq_request(pid, now, sync_cost, RqJob::SyncReturn, ctx);
            }
        }
    }

    /// A launch call returned: the kernel is now visible to the GPU.
    fn on_launch_done(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>, gpu: &mut GpuEngine) {
        if !ctx.alive[pid] {
            return; // the launch call died with its process
        }
        let kernel_index = ctx.procs[pid].next_launch;
        gpu.enqueue_ready(pid, kernel_index, now, ctx);
        ctx.procs[pid].next_launch += 1;
        gpu.try_dispatch(now, ctx);

        let kernel_count = ctx.procs[pid].engine.kernel_count();
        if ctx.procs[pid].next_launch >= kernel_count {
            // Whole EC enqueued; the thread parks in cudaStreamSynchronize.
            ctx.procs[pid].enqueue_done_at = now;
            if Self::run_queue_mode(ctx) {
                // CUDA's default sync spin-waits: the thread stays
                // runnable on its core.
                self.rq_set_spin(pid, now, ctx);
            }
            return;
        }
        if Self::run_queue_mode(ctx) {
            // The explicit scheduler produces preemption organically.
            self.start_launch(pid, now, ctx, gpu);
            return;
        }
        // Between launches the scheduler may preempt the thread — the
        // paper's per-launch blocking intervals B_l (§7 observation 1).
        let p = ctx.config.device.cpu.preemption_probability(ctx.n_procs);
        if ctx.rng.chance(p) {
            let blocking = SimDuration::from_micros_f64(ctx.rng.uniform(1000.0, 2000.0));
            ctx.procs[pid].cur_blocking += blocking;
            // Losing the core usually means landing on another one cold.
            if ctx.rng.chance(0.6) {
                ctx.procs[pid].cache_cold = true;
            }
            ctx.queue.schedule_after(
                blocking,
                Event::Sched(SchedEvent::ThreadResume {
                    pid: pid as u32,
                    kind: Resume::ContinueLaunch,
                }),
            );
        } else {
            self.start_launch(pid, now, ctx, gpu);
        }
    }

    /// The thread returned from synchronize: count the EC (when it ends
    /// inside the measured window) and start the next one.
    fn on_sync_return(&mut self, pid: usize, now: SimTime, ctx: &mut Ctx<'_>, gpu: &mut GpuEngine) {
        if !ctx.alive[pid] {
            return; // wakeup raced the OOM killer
        }
        if !Self::run_queue_mode(ctx) {
            // In run-queue mode the sync-return burst was already charged
            // by the scheduler.
            let sync_cost = SimDuration::from_micros(30);
            gpu.charge_cpu(sync_cost);
        }
        let proc = &mut ctx.procs[pid];
        let record = EcRecord {
            start: proc.ec_start,
            end: now,
            launch_time: proc.cur_launch,
            blocking_time: proc.cur_blocking,
            sync_time: now.saturating_since(proc.enqueue_done_at),
            gpu_time: proc.cur_gpu,
            queue_delay: proc.cur_queue_delay,
        };
        // The paper's §7 split: an EC's wall time is exactly its launch
        // calls, scheduler blocking and synchronisation wait.
        debug_assert_eq!(
            record.duration(),
            record.launch_time + record.blocking_time + record.sync_time,
            "pid {pid} EC {} [{} ns, {} ns] is not Σ K_l {} ns + Σ B_l {} ns + sync {} ns",
            proc.ec_seq,
            record.start.as_nanos(),
            record.end.as_nanos(),
            record.launch_time.as_nanos(),
            record.blocking_time.as_nanos(),
            record.sync_time.as_nanos(),
        );
        if now > ctx.warmup_end {
            proc.ecs.add(record, ctx.config.record_kernel_events);
        }
        proc.ec_seq += 1;
        proc.next_launch = 0;
        proc.cur_launch = SimDuration::ZERO;
        proc.cur_blocking = SimDuration::ZERO;
        proc.cur_gpu = SimDuration::ZERO;
        proc.cache_cold = false;
        if ctx.procs[pid].serve_group.is_some() {
            // Servers don't self-enqueue: release the core (a server
            // with an empty queue must not spin on it) and hand control
            // back to the ingress component, which completes the batch
            // and decides when the next one starts.
            if Self::run_queue_mode(ctx) && ctx.procs[pid].cpu.state == RqState::Running {
                self.rq_release(pid, now, ctx);
            }
            ctx.queue.schedule(
                now,
                Event::Ingress(super::ingress::IngressEvent::ServerFree { pid: pid as u32 }),
            );
            return;
        }
        self.begin_next_ec(pid, now, ctx, gpu);
    }
}
