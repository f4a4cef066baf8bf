//! The GPU engine: kernel dispatch, timeslice affinity, MPS packing,
//! in-flight power/utilisation accrual and kernel-event tracing.

use std::collections::VecDeque;

use jetsim_des::{SimDuration, SimRng, SimTime};
use jetsim_device::power::GpuLoad;
use jetsim_device::{DeviceSpec, GpuArch};
use jetsim_trt::Engine;

use crate::config::{CpuModel, GpuPolicy, SimConfig};
use crate::trace::{KernelEvent, KernelPreempted};

use super::gpu_policy::{priority_levels, PolicyView, ReadySet};
use super::sched::{CpuSched, Resume, SchedEvent};
use super::{Ctx, Event};

/// Events consumed by [`GpuEngine`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum GpuEvent {
    /// The GPU finished the kernel dispatched under the given
    /// generation. The calendar queue cannot unschedule, so a preemption
    /// bumps the engine's generation instead and the stale completion is
    /// dropped on delivery.
    Done {
        /// Dispatch generation the kernel was started under.
        gen: u32,
    },
}

/// One kernel currently executing on the GPU.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    pid: usize,
    kernel_index: usize,
    ec_seq: u64,
    start: SimTime,
    end: SimTime,
    /// Power coefficient of the kernel's precision.
    coef: f64,
    /// Tensor-core activity while it runs.
    tc: f64,
    /// Fraction of its span doing datapath work (the launch-gap head is
    /// charged at idle power).
    work_fraction: f64,
    /// DRAM bytes per second while it runs.
    bytes_per_sec: f64,
    /// How far this kernel's window contribution has been accounted.
    accounted_until: SimTime,
}

/// Accumulators over one governor/sampling window.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    busy: SimDuration,
    coef_weighted: f64,
    tc_weighted: f64,
    bytes: u64,
    cpu_busy: SimDuration,
}

impl Window {
    fn load(&self, interval: SimDuration, device: &DeviceSpec) -> (f64, GpuLoad) {
        let secs = interval.as_secs_f64();
        let busy_secs = self.busy.as_secs_f64();
        let busy_frac = if secs == 0.0 {
            0.0
        } else {
            (busy_secs / secs).min(1.0)
        };
        let load = GpuLoad {
            busy: busy_frac,
            precision_w: if busy_secs == 0.0 {
                0.0
            } else {
                self.coef_weighted / busy_secs
            },
            tc_util: if busy_secs == 0.0 {
                0.0
            } else {
                (self.tc_weighted / busy_secs).min(1.0)
            },
            mem_util: if secs == 0.0 {
                0.0
            } else {
                (self.bytes as f64 / (device.gpu.bytes_per_sec() * secs)).min(1.0)
            },
        };
        let cpu_cores = if secs == 0.0 {
            0.0
        } else {
            self.cpu_busy.as_secs_f64() / secs
        };
        (cpu_cores, load)
    }
}

/// Memoised per-kernel dispatch quantities for one engine at one
/// frequency step. `exec_time`/`tc_activity`/`sm_active`/`issue_slot`
/// are pure roofline math (several `powf` chains) over inputs that only
/// change when the governor moves the clock or the ingress swaps a
/// serving engine — so they are computed once per (engine, step) here
/// instead of on every dispatch. Values are bit-identical to the direct
/// calls: the cache stores the same expressions, evaluated in the same
/// order.
#[derive(Debug, Default)]
struct KernelTimeCache {
    /// Identity of the engine the cache was built against (the `Arc`
    /// address as an integer; engines live for the whole run, so an
    /// address uniquely names one).
    engine_id: usize,
    /// Frequency step the cache was built at.
    step: usize,
    /// `exec_time(..) * kernel_overhead_factor`, per kernel.
    exec_scaled: Vec<SimDuration>,
    /// `tc_activity(..)`, per kernel.
    tc: Vec<f64>,
    /// `sm_active(..)`, per kernel (trace-recording path).
    sm: Vec<f64>,
    /// `issue_slot(..)`, per kernel (trace-recording path).
    issue: Vec<f64>,
}

impl KernelTimeCache {
    /// Computes every column for `(engine, step)`.
    fn build(engine: &Engine, gpu: &GpuArch, step: usize, overhead: f64) -> Self {
        let batch = engine.batch();
        let kernels = engine.kernels();
        let mut cache = KernelTimeCache {
            engine_id: engine as *const Engine as usize,
            step,
            exec_scaled: Vec::with_capacity(kernels.len()),
            tc: Vec::with_capacity(kernels.len()),
            sm: Vec::with_capacity(kernels.len()),
            issue: Vec::with_capacity(kernels.len()),
        };
        for k in kernels {
            cache
                .exec_scaled
                .push(k.exec_time(gpu, batch, step).mul_f64(overhead));
            cache.tc.push(k.tc_activity(gpu, batch, step));
            cache.sm.push(k.sm_active(gpu, batch));
            cache.issue.push(k.issue_slot(gpu, batch, step));
        }
        cache
    }
}

/// A never-evicting memo table of [`KernelTimeCache`] entries, shared
/// across processes: workloads that revisit a clock step (an oscillating
/// governor, a throttle lock releasing) or alternate engines (a serving
/// batcher toggling batch sizes) hit warm entries instead of re-running
/// the roofline math. Bounded by the number of distinct
/// `(engine, step)` pairs a run actually visits — a few kilobytes each.
#[derive(Debug)]
struct KernelTimeCaches {
    entries: Vec<KernelTimeCache>,
    /// The profiler's kernel overhead factor, fixed for the run.
    overhead: f64,
}

impl KernelTimeCaches {
    /// The memoised timings for `(engine, step)`, building them on first
    /// sight. A hit past the front is swapped there so the common
    /// steady-state lookup is one compare.
    #[inline]
    fn get(&mut self, engine: &Engine, gpu: &GpuArch, step: usize) -> &KernelTimeCache {
        let id = engine as *const Engine as usize;
        if let Some(i) = self
            .entries
            .iter()
            .position(|c| c.engine_id == id && c.step == step)
        {
            if i != 0 {
                self.entries.swap(0, i);
            }
        } else {
            let built = KernelTimeCache::build(engine, gpu, step, self.overhead);
            self.entries.insert(0, built);
        }
        &self.entries[0]
    }
}

/// The GPU component: owns execution state, the DVFS/sampling
/// accounting windows, and the kernel-event trace (with its dedicated
/// jitter RNG stream, so toggling recording cannot perturb dynamics).
pub(crate) struct GpuEngine {
    /// Currently executing kernel, if any.
    current: Option<InFlight>,
    /// Process whose queue the GPU is draining (timeslice affinity).
    affinity: Option<usize>,
    /// When the current timeslice started.
    slice_start: SimTime,
    /// Current DVFS frequency step (written by the governor and the
    /// memory guard's throttle locks; read at dispatch time).
    pub(crate) freq_step: usize,
    /// Accumulator drained by the governor each DVFS tick.
    dvfs_window: Window,
    /// Accumulator drained by the sampler each sample tick.
    sample_window: Window,
    /// GPU busy time within the measured window.
    pub(crate) gpu_busy_measured: SimDuration,
    /// Kernel events recorded inside the measured window.
    pub(crate) kernel_events: Vec<KernelEvent>,
    /// Independent stream for kernel-event jitter samples, so toggling
    /// `record_kernel_events` cannot perturb the simulation dynamics:
    /// aggregate results are bit-identical with tracing on or off.
    trace_rng: SimRng,
    /// Memoised kernel timings per `(engine, step)` (see
    /// [`KernelTimeCaches`]).
    ktime: KernelTimeCaches,
    /// The scheduling discipline deciding dispatch order, packing and
    /// preemption.
    policy: GpuPolicy,
    /// Kernel-arrival log, one pid per enqueued kernel in launch order.
    /// Only [`GpuPolicy::Fifo`] appends to and reads it.
    fifo_log: VecDeque<u32>,
    /// O(1) occupancy index over the per-process ready queues, kept in
    /// lockstep with `Proc::ready` by the enqueue/pop/clear helpers.
    ready_set: ReadySet,
    /// Per-process scheduling priorities (from the config; static).
    priorities: Vec<u8>,
    /// The processes at each distinct priority level, highest first
    /// (static; only `priority` reads them).
    levels: Vec<ReadySet>,
    /// Per-process SM share weights (from the config; static).
    sm_shares: Vec<f64>,
    /// Dispatch generation: bumped on preemption so the cancelled
    /// kernel's already-scheduled `Done` event is dropped on delivery.
    gen: u32,
    /// Stall charged ahead of the next dispatch (set by a preemption,
    /// consumed — and reset — by `try_dispatch`; zero on every
    /// non-preemptive path).
    pending_penalty: SimDuration,
    /// Preemption events recorded inside the measured window (only
    /// while `record_kernel_events` is set).
    pub(crate) preemptions: Vec<KernelPreempted>,
    /// The device's minimum launch gap in seconds (static), the idle
    /// head of every kernel's span.
    min_gap_secs: f64,
}

/// Builds a [`PolicyView`] over `$gpu`'s disjoint fields at `$now`, so
/// the view's borrows can coexist with a `&mut` borrow of the FIFO log.
macro_rules! policy_view {
    ($gpu:expr, $now:expr, $ctx:expr) => {
        PolicyView {
            now: $now,
            affinity: $gpu.affinity,
            slice_start: $gpu.slice_start,
            timeslice: $ctx.config.device.gpu.timeslice,
            ready: &$gpu.ready_set,
            priorities: &$gpu.priorities,
            levels: &$gpu.levels,
            sm_shares: &$gpu.sm_shares,
        }
    };
}

impl GpuEngine {
    /// Handles one GPU completion at `now`; a finished EC may wake `sched`.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: GpuEvent,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        sched: &mut CpuSched,
    ) {
        match ev {
            GpuEvent::Done { gen } => self.on_gpu_done(gen, now, ctx, sched),
        }
    }

    /// Creates the GPU engine at the top frequency step with pre-sized
    /// trace storage, running the policy named by `config.gpu_policy`.
    pub(crate) fn new(
        config: &SimConfig,
        top_step: usize,
        trace_rng: SimRng,
        est_events: usize,
    ) -> Self {
        let priorities: Vec<u8> = config.processes.iter().map(|p| p.priority).collect();
        GpuEngine {
            current: None,
            affinity: None,
            slice_start: SimTime::ZERO,
            freq_step: top_step,
            dvfs_window: Window::default(),
            sample_window: Window::default(),
            gpu_busy_measured: SimDuration::ZERO,
            kernel_events: Vec::with_capacity(est_events),
            trace_rng,
            ktime: KernelTimeCaches {
                entries: Vec::new(),
                overhead: config.profiler.kernel_overhead_factor(),
            },
            policy: config.gpu_policy,
            fifo_log: VecDeque::new(),
            ready_set: ReadySet::new(config.processes.len()),
            levels: priority_levels(&priorities),
            priorities,
            sm_shares: config.processes.iter().map(|p| p.sm_share).collect(),
            gen: 0,
            pending_penalty: SimDuration::ZERO,
            preemptions: Vec::new(),
            min_gap_secs: config.device.gpu.kernel_min_gap.as_secs_f64(),
        }
    }

    /// Enqueues a newly launched kernel at the back of `pid`'s ready
    /// queue — the single GPU-queue enqueue point, keeping the occupancy
    /// bitset and the FIFO arrival log in lockstep, and giving a
    /// preemptive policy its chance to cancel the in-flight kernel.
    pub(crate) fn enqueue_ready(
        &mut self,
        pid: usize,
        kernel_index: usize,
        now: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        ctx.procs[pid].ready.push_back(kernel_index);
        self.ready_set.set(pid);
        match self.policy {
            GpuPolicy::Fifo => self.fifo_log.push_back(pid as u32),
            GpuPolicy::Priority { .. } => self.maybe_preempt(now, ctx),
            GpuPolicy::TimesliceRR
            | GpuPolicy::FractionalMps { .. }
            | GpuPolicy::SpatialMps { .. } => {}
        }
    }

    /// Wipes `pid`'s ready queue (OOM kill, replica restart), keeping
    /// the occupancy bitset and the FIFO arrival log consistent.
    pub(crate) fn clear_ready(&mut self, pid: usize, ctx: &mut Ctx<'_>) {
        ctx.procs[pid].ready.clear();
        self.ready_set.unset(pid);
        self.fifo_log.retain(|&p| p as usize != pid);
    }

    /// Pops the head of `pid`'s ready queue (which the policy guaranteed
    /// non-empty), clearing its occupancy bit on the empty transition.
    fn pop_ready(&mut self, pid: usize, ctx: &mut Ctx<'_>) -> usize {
        let kernel_index = ctx.procs[pid].ready.pop_front().expect("picked non-empty");
        if ctx.procs[pid].ready.is_empty() {
            self.ready_set.unset(pid);
        }
        kernel_index
    }

    /// Charges host CPU busy time into both accounting windows.
    pub(crate) fn charge_cpu(&mut self, cost: SimDuration) {
        self.dvfs_window.cpu_busy += cost;
        self.sample_window.cpu_busy += cost;
    }

    /// Drains the governor's accounting window into a load summary.
    pub(crate) fn drain_dvfs_window(
        &mut self,
        interval: SimDuration,
        device: &DeviceSpec,
    ) -> (f64, GpuLoad) {
        let out = self.dvfs_window.load(interval, device);
        self.dvfs_window = Window::default();
        out
    }

    /// Drains the sampler's accounting window into a load summary.
    pub(crate) fn drain_sample_window(
        &mut self,
        period: SimDuration,
        device: &DeviceSpec,
    ) -> (f64, GpuLoad) {
        let out = self.sample_window.load(period, device);
        self.sample_window = Window::default();
        out
    }

    /// Dispatches the next ready kernel if the GPU is idle.
    pub(crate) fn try_dispatch(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        if self.current.is_some() || self.ready_set.is_empty() {
            return;
        }
        // One immutable view serves the pick and the hide fraction; the
        // pick guarantees the chosen queue is non-empty. The hide fraction
        // can be read before the pop because a process is excluded from
        // its own contention scan either way.
        let view = policy_view!(self, now, ctx);
        let Some(pid) = self.policy.pick(&view, &mut self.fifo_log) else {
            return;
        };
        let spatial = self.policy.spatial();
        let hide = self.policy.hide_fraction(pid, &view);
        // A preemption charges its context-discard stall to whatever runs
        // next; zero on every non-preemptive path.
        let penalty = self.pending_penalty;
        self.pending_penalty = SimDuration::ZERO;
        let mut start = now + penalty;
        if self.affinity != Some(pid) {
            // No MPS on Jetson: crossing processes costs a GPU context
            // switch. Under spatial sharing the switch is free.
            if self.affinity.is_some() && !spatial {
                start += ctx.config.device.gpu.ctx_switch;
            }
            self.affinity = Some(pid);
            self.slice_start = start;
        }
        let kernel_index = self.pop_ready(pid, ctx);
        // Disjoint-field borrows keep the engine referenced in place — no
        // per-dispatch `Arc` refcount traffic on the hot path.
        let engine = &ctx.procs[pid].engine;
        let batch = engine.batch();
        let gpu_arch = &ctx.config.device.gpu;
        let times = self.ktime.get(engine, gpu_arch, self.freq_step);
        let (exec_base, tc) = (times.exec_scaled[kernel_index], times.tc[kernel_index]);
        let mut exec = exec_base.mul_f64(ctx.rng.uniform(0.95, 1.05));
        if let Some(hidden) = hide {
            // Spatial sharing packs this kernel against other processes'
            // queued work, hiding part of its span.
            exec = exec.mul_f64(1.0 - hidden);
        }
        let end = start + exec;
        let ec_seq = ctx.procs[pid].ec_seq;
        // Power/governor metadata. Launch-gap time at the front of every
        // kernel keeps the GPU "busy" for the utilisation counter but
        // toggles no datapath, so it is charged at idle power — this is
        // why small-batch runs draw less despite ~100 % GPU utilisation
        // (paper fig 8). Contributions accrue continuously so kernels
        // longer than a governor window are charged to every window they
        // span.
        let kernel = &ctx.procs[pid].engine.kernels()[kernel_index];
        let coef = ctx
            .config
            .device
            .power
            .precision_coefficient(kernel.precision);
        let exec_secs = exec.as_secs_f64();
        let work_fraction = 1.0 - (self.min_gap_secs / exec_secs.max(f64::EPSILON)).min(1.0);
        let bytes_per_sec = (kernel.bytes * u64::from(batch)) as f64 / exec_secs.max(f64::EPSILON);
        self.current = Some(InFlight {
            pid,
            kernel_index,
            ec_seq,
            start,
            end,
            coef,
            tc,
            work_fraction,
            bytes_per_sec,
            accounted_until: start,
        });
        ctx.queue
            .schedule(end, Event::Gpu(GpuEvent::Done { gen: self.gen }));
    }

    /// Asks the policy whether the freshly enqueued work should cancel
    /// the in-flight kernel, and performs the cancellation: the partial
    /// occupancy is accrued and charged to the victim's EC (the work is
    /// wasted — the kernel re-runs from scratch), the kernel returns to
    /// the *front* of its owner's queue, the scheduled `Done` is
    /// invalidated by bumping the generation, and the policy's penalty
    /// stalls the next dispatch. Only `priority` preempts, so the FIFO
    /// log never sees a front re-queue. The cut is recorded only while
    /// `record_kernel_events` is set; its accounting never depends on it.
    fn maybe_preempt(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(snapshot) = self.current else {
            return;
        };
        if snapshot.end <= now {
            // Completing at this very instant: let the Done land.
            return;
        }
        let view = policy_view!(self, now, ctx);
        let Some((by_pid, penalty)) = self.policy.preempt(snapshot.pid, &view) else {
            return;
        };
        self.accrue_gpu(now);
        let inflight = self.current.take().expect("checked in-flight above");
        // Occupancy until the cut is real GPU time: the victim's EC and
        // the measured busy counter both absorb it.
        // `start` can sit *after* `now`: dispatch pushes it forward by a
        // context switch or a preemption penalty, and a cut can land in
        // that gap. Saturating spans charge zero occupancy then, and the
        // trace clamps `preempted_at` so it never precedes `start`.
        ctx.procs[inflight.pid].cur_gpu += now.saturating_since(inflight.start);
        if now > ctx.warmup_end {
            let clipped = now.saturating_since(ctx.warmup_end.max_of(inflight.start));
            self.gpu_busy_measured += clipped;
            if ctx.config.record_kernel_events {
                self.preemptions.push(KernelPreempted {
                    pid: inflight.pid,
                    ec_seq: inflight.ec_seq,
                    kernel_index: inflight.kernel_index,
                    start: inflight.start,
                    preempted_at: now.max_of(inflight.start),
                    by_pid,
                });
            }
        }
        // The cancelled kernel is still the next thing its stream must
        // run: back to the head of the queue, not the tail.
        ctx.procs[inflight.pid]
            .ready
            .push_front(inflight.kernel_index);
        self.ready_set.set(inflight.pid);
        self.gen = self.gen.wrapping_add(1);
        self.pending_penalty = penalty;
    }

    /// Accrues the in-flight kernel's power/utilisation contribution up
    /// to `now` into both accounting windows.
    pub(crate) fn accrue_gpu(&mut self, now: SimTime) {
        let Some(inflight) = self.current.as_mut() else {
            return;
        };
        let upto = if now < inflight.end {
            now
        } else {
            inflight.end
        };
        if upto <= inflight.accounted_until {
            return;
        }
        let span = upto.since(inflight.accounted_until);
        let secs = span.as_secs_f64();
        let (coef, tc, wf, bps) = (
            inflight.coef,
            inflight.tc,
            inflight.work_fraction,
            inflight.bytes_per_sec,
        );
        inflight.accounted_until = upto;
        for window in [&mut self.dvfs_window, &mut self.sample_window] {
            window.busy += span;
            window.coef_weighted += coef * secs * wf;
            window.tc_weighted += tc * secs;
            window.bytes += (bps * secs) as u64;
        }
    }

    /// The GPU finished a kernel: emit its event, wake the owner if this
    /// completed an EC, and dispatch the next kernel. Completions from a
    /// generation older than the engine's were preempted after their
    /// `Done` was scheduled and are dropped here.
    fn on_gpu_done(&mut self, gen: u32, now: SimTime, ctx: &mut Ctx<'_>, sched: &mut CpuSched) {
        if gen != self.gen {
            return;
        }
        self.accrue_gpu(now);
        let inflight = self.current.take().expect("GpuDone without kernel");
        let exec = inflight.end.since(inflight.start);
        ctx.procs[inflight.pid].cur_gpu += exec;

        if inflight.end > ctx.warmup_end {
            let clipped = inflight.end.since(ctx.warmup_end.max_of(inflight.start));
            self.gpu_busy_measured += clipped.max_of(SimDuration::ZERO);
        }
        // Disjoint-field borrows: the engine stays referenced in place
        // (no `Arc` clone per completion) while the jitter samples come
        // from the dedicated trace stream, so disabling recording cannot
        // change the dynamics.
        let engine = &ctx.procs[inflight.pid].engine;
        let kernel_count = engine.kernel_count();
        if inflight.end > ctx.warmup_end && ctx.config.record_kernel_events {
            let kernel = &engine.kernels()[inflight.kernel_index];
            let batch = engine.batch();
            // The clock may have moved since dispatch; the utilisation
            // samples always read the *current* step, exactly as the
            // uncached code did.
            let gpu_arch = &ctx.config.device.gpu;
            let times = self.ktime.get(engine, gpu_arch, self.freq_step);
            let (sm_base, issue_base, tc_base) = (
                times.sm[inflight.kernel_index],
                times.issue[inflight.kernel_index],
                times.tc[inflight.kernel_index],
            );
            let sm = (sm_base * self.trace_rng.uniform(0.92, 1.08)).clamp(0.0, 1.0);
            let issue = (issue_base * self.trace_rng.uniform(0.85, 1.15)).clamp(0.0, 0.8);
            let tc = (tc_base * self.trace_rng.uniform(0.88, 1.12)).clamp(0.0, 1.0);
            self.kernel_events.push(KernelEvent {
                pid: inflight.pid,
                ec_seq: inflight.ec_seq,
                kernel_index: inflight.kernel_index,
                start: inflight.start,
                end: inflight.end,
                precision: kernel.precision,
                sm_active: sm,
                issue_slot: issue,
                tc_activity: tc,
                bytes: kernel.bytes * u64::from(batch),
            });
        }

        if inflight.kernel_index + 1 == kernel_count && ctx.alive[inflight.pid] {
            if ctx.config.cpu_model == CpuModel::RunQueue {
                // The spinning thread notices completion once it holds a
                // core; the queue wait *is* the wakeup latency.
                sched.rq_notify_gpu_done(inflight.pid, now, ctx);
            } else {
                // Last kernel of the EC: wake the parked thread.
                let wakeup = ctx
                    .config
                    .device
                    .cpu
                    .wakeup_delay(ctx.n_procs)
                    .mul_f64(ctx.rng.uniform(0.8, 1.2));
                ctx.queue.schedule_after(
                    wakeup,
                    Event::Sched(SchedEvent::ThreadResume {
                        pid: inflight.pid as u32,
                        kind: Resume::SyncReturn,
                    }),
                );
            }
        }
        self.try_dispatch(now, ctx);
    }
}
