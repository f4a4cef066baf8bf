//! The discrete-event simulation loop: a slim event router over the
//! typed components in the crate-private `components` module.

use std::collections::VecDeque;
use std::sync::Arc;

use jetsim_des::{CalendarQueue, SimDuration, SimRng, SimTime};
use jetsim_trt::Engine;

use crate::components::governor::{Governor, GovernorEvent};
use crate::components::gpu::GpuEngine;
use crate::components::ingress::{Ingress, IngressDeps};
use crate::components::memory_guard::{GuardDeps, MemoryGuard};
use crate::components::sampler::{Sampler, SamplerDeps, SamplerEvent};
use crate::components::sched::{CpuSched, RqThread};
use crate::components::{Ctx, Event, Proc};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::trace::{EcStats, RunTrace};

/// A configured, runnable simulation.
///
/// # Examples
///
/// ```
/// use jetsim_des::SimDuration;
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_sim::{ProcessConfig, SimConfig, Simulation};
/// use jetsim_trt::EngineBuilder;
///
/// let nano = presets::jetson_nano();
/// let engine = EngineBuilder::new(&nano).precision(Precision::Fp16).build(&zoo::yolov8n())?;
/// let config = SimConfig::builder(nano)
///     .add_process(ProcessConfig::new("p0", engine.into(), 0))
///     .warmup(SimDuration::from_millis(100))
///     .measure(SimDuration::from_millis(900))
///     .build()?;
/// let trace = Simulation::new(config)?.run();
/// // Paper §6.1.1: YoloV8n fp16 ≈ 20 img/s on the Jetson Nano.
/// assert!((14.0..30.0).contains(&trace.total_throughput()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Prepares a simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoProcesses`], [`SimError::InvalidServePlan`],
    /// [`SimError::InvalidConfig`] or [`SimError::OutOfMemory`] for
    /// invalid deployments (the builder normally catches these already;
    /// they are re-checked here for hand-assembled configs).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Simulation { config })
    }

    /// The configuration the simulation will run.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation to completion and returns its trace.
    pub fn run(self) -> RunTrace {
        Runner::new(self.config).run()
    }
}

/// Builds a [`Ctx`] over the runner's shared state with disjoint field
/// borrows, so the components being driven can be borrowed alongside it.
macro_rules! ctx {
    ($self:ident) => {
        Ctx {
            config: &$self.config,
            queue: &mut $self.queue,
            rng: &mut $self.rng,
            procs: &mut $self.procs,
            alive: &mut $self.alive,
            killed_at: &mut $self.killed_at,
            n_procs: $self.n_procs,
            warmup_end: $self.warmup_end,
        }
    };
}

/// The event loop: owns the `jetsim-des` queue and the shared state,
/// routes each typed event to the component that consumes it, and
/// aggregates the final [`RunTrace`]. All subsystem behavior lives in
/// the components themselves.
struct Runner {
    config: SimConfig,
    rng: SimRng,
    queue: CalendarQueue<Event>,
    procs: Vec<Proc>,
    n_procs: u32,
    warmup_end: SimTime,
    sim_end: SimTime,
    /// Which processes are still running (`false` once the OOM killer
    /// fires under [`crate::OomPolicy::KillLargest`]).
    alive: Vec<bool>,
    /// When each process was killed, if it was.
    killed_at: Vec<Option<SimTime>>,
    /// Events processed by the DES loop (for the sweep benchmarks'
    /// events/sec figure).
    events_processed: u64,
    /// Whether the event-budget watchdog aborted the run.
    budget_exceeded: bool,
    // --- components -----------------------------------------------------
    sched: CpuSched,
    gpu: GpuEngine,
    governor: Governor,
    guard: MemoryGuard,
    sampler: Sampler,
    ingress: Ingress,
}

impl Runner {
    fn new(config: SimConfig) -> Self {
        let rng = SimRng::seed_from(config.seed);
        // Derived with a distinct stream constant so the jitter samples
        // attached to kernel events never share draws with the main
        // dynamics stream.
        let trace_rng = SimRng::seed_from(
            config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7472_6163_655F_726E, // "trace_rn"
        );
        let top = config.device.gpu.freq.top();
        // Expected per-process EC iterations: used to pre-size the
        // per-process EC statistics and the kernel-event trace so the hot
        // loop never regrows them.
        let est_ecs: Vec<usize> = config
            .processes
            .iter()
            .map(|p| {
                let ideal = p.engine.ideal_ec_time(&config.device.gpu, top);
                config.expected_ecs(ideal.as_secs_f64()).ceil().min(2e6) as usize
            })
            .collect();
        let est_events: usize = if config.record_kernel_events {
            config
                .processes
                .iter()
                .zip(&est_ecs)
                .map(|(p, &ecs)| p.engine.kernel_count().saturating_mul(ecs))
                .sum::<usize>()
                .min(8 << 20)
        } else {
            0
        };
        let mut serve_group = vec![None; config.processes.len()];
        if let Some(plan) = &config.serve {
            for (g, sg) in plan.groups.iter().enumerate() {
                for &pid in &sg.members {
                    serve_group[pid] = Some(g);
                }
            }
        }
        let procs = config
            .processes
            .iter()
            .zip(&est_ecs)
            .zip(&serve_group)
            .map(|((p, &ecs), &group)| Proc {
                name: p.name.clone(),
                engine: Arc::clone(&p.engine),
                next_launch: 0,
                ec_seq: 0,
                ec_start: SimTime::ZERO,
                enqueue_done_at: SimTime::ZERO,
                cur_launch: SimDuration::ZERO,
                cur_blocking: SimDuration::ZERO,
                cur_gpu: SimDuration::ZERO,
                cache_cold: false,
                arrivals: p.arrivals,
                next_arrival: SimTime::ZERO,
                cur_queue_delay: SimDuration::ZERO,
                serve_group: group,
                cpu: RqThread::new(),
                ready: VecDeque::new(),
                ecs: EcStats::with_capacity(ecs, config.record_kernel_events),
            })
            .collect::<Vec<_>>();
        let n_procs = procs.len() as u32;
        let warmup_end = SimTime::ZERO + config.warmup;
        let sim_end = SimTime::ZERO + config.total_time();
        let ambient_c = config.device.thermal.ambient_c;
        // The pending-event population is tiny (a couple of events per
        // process plus the periodic ticks), the regime the queue's one
        // sorted list is built for.
        let queue = CalendarQueue::new();
        let guard = MemoryGuard::new(&config);
        let ingress = Ingress::new(&config);
        let proc_count = procs.len();
        Runner {
            rng,
            queue,
            n_procs,
            warmup_end,
            sim_end,
            alive: vec![true; proc_count],
            killed_at: vec![None; proc_count],
            events_processed: 0,
            budget_exceeded: false,
            sched: CpuSched::new(),
            gpu: GpuEngine::new(&config, top, trace_rng, est_events),
            governor: Governor::new(ambient_c),
            guard,
            sampler: Sampler::new(),
            ingress,
            procs,
            config,
        }
    }

    fn run(mut self) -> RunTrace {
        // Resolve a start-of-run overcommit first: under
        // `OomPolicy::KillLargest` the OOM killer culls the deployment
        // until the survivors fit (the §6.2.1 "reboot" as an outcome).
        self.guard.enforce_memory(
            SimTime::ZERO,
            &mut ctx!(self),
            &mut self.sched,
            &mut self.gpu,
            &mut self.ingress,
        );
        // Schedule the fault timeline (no-op for an empty plan, so
        // fault-free runs stay byte-identical to the pre-fault loop).
        self.guard.schedule_timeline(&mut self.queue, self.sim_end);
        // Start every surviving closed-loop process's first EC, the
        // governor and the sampler. Server processes idle until the
        // ingress component hands them a batch.
        for pid in 0..self.procs.len() {
            if self.alive[pid] && !self.ingress.serves(pid) {
                self.sched
                    .begin_next_ec(pid, SimTime::ZERO, &mut ctx!(self), &mut self.gpu);
            }
        }
        self.ingress.start(&mut ctx!(self));
        let dvfs_interval = self.config.device.dvfs.interval;
        self.queue.schedule_batch([
            (
                SimTime::ZERO + dvfs_interval,
                Event::Governor(GovernorEvent::Tick),
            ),
            (
                SimTime::ZERO + self.config.sample_period,
                Event::Sampler(SamplerEvent::Tick),
            ),
        ]);

        // Monomorphise the drive loop on whether a budget watchdog is
        // armed: the common (unbudgeted) loop carries no per-event
        // compare against the budget at all.
        match self.config.event_budget {
            Some(budget) => self.drive::<true>(budget),
            None => self.drive::<false>(u64::MAX),
        }
        if cfg!(debug_assertions) {
            self.ingress.debug_check_conservation();
            self.ingress.debug_check_replica_health();
        }
        self.finalize()
    }

    /// The hot loop: pop, route, repeat. `BUDGETED` folds the watchdog
    /// check away when no [`SimConfig::event_budget`] is set.
    #[inline]
    fn drive<const BUDGETED: bool>(&mut self, budget: u64) {
        let mut last = self.queue.now();
        while let Some((now, event)) = self.queue.pop() {
            debug_assert!(
                now >= last,
                "event {event:?} popped at {} ns, before the previous event at {} ns",
                now.as_nanos(),
                last.as_nanos()
            );
            last = now;
            if now > self.sim_end {
                break;
            }
            if BUDGETED && self.events_processed >= budget {
                // Watchdog: a runaway cell (livelocked queue, absurd
                // grid point) aborts instead of spinning forever; the
                // trace reports what ran and flags the abort.
                self.budget_exceeded = true;
                break;
            }
            self.events_processed += 1;
            self.dispatch(event, now);
        }
    }

    /// Routes one event to its component. The [`Ctx`] is built once per
    /// event from field borrows disjoint to every component, so each arm
    /// borrows its peer components alongside it without re-borrowing.
    #[inline]
    fn dispatch(&mut self, event: Event, now: SimTime) {
        let mut ctx = ctx!(self);
        match event {
            Event::Sched(ev) => self.sched.handle(ev, now, &mut ctx, &mut self.gpu),
            Event::Gpu(ev) => self.gpu.handle(ev, now, &mut ctx, &mut self.sched),
            Event::Governor(ev) => self.governor.handle(ev, now, &mut ctx, &mut self.gpu),
            Event::Memory(ev) => self.guard.handle(
                ev,
                now,
                &mut ctx,
                GuardDeps {
                    sched: &mut self.sched,
                    gpu: &mut self.gpu,
                    governor: &mut self.governor,
                    ingress: &mut self.ingress,
                },
            ),
            Event::Sampler(ev) => self.sampler.handle(
                ev,
                now,
                &mut ctx,
                SamplerDeps {
                    gpu: &mut self.gpu,
                    governor: &self.governor,
                },
            ),
            Event::Ingress(ev) => self.ingress.handle(
                ev,
                now,
                &mut ctx,
                IngressDeps {
                    sched: &mut self.sched,
                    gpu: &mut self.gpu,
                    guard: &mut self.guard,
                },
            ),
        }
    }

    fn finalize(mut self) -> RunTrace {
        let measure_secs = self.config.measure.as_secs_f64();
        let mut processes = Vec::with_capacity(self.procs.len());
        let mut ec_records = Vec::with_capacity(self.procs.len());
        for (proc, &killed_at) in self.procs.iter_mut().zip(&self.killed_at) {
            let (stats, log) = std::mem::take(&mut proc.ecs).finish(
                proc.name.clone(),
                proc.engine.name().to_string(),
                proc.engine.batch(),
                measure_secs,
                killed_at,
            );
            processes.push(stats);
            ec_records.push(log);
        }
        let gpu_memory_bytes = self.config.gpu_memory_bytes();
        // Intern one name table per distinct engine: processes sharing an
        // engine share one `Arc`, so an 8-process sweep cell clones each
        // kernel name once instead of eight times.
        let mut interned: Vec<(Arc<Engine>, Arc<Vec<String>>)> = Vec::new();
        let kernel_names: Vec<Arc<Vec<String>>> = self
            .procs
            .iter()
            .map(|p| {
                if let Some((_, names)) = interned.iter().find(|(e, _)| Arc::ptr_eq(e, &p.engine)) {
                    Arc::clone(names)
                } else {
                    let names: Arc<Vec<String>> =
                        Arc::new(p.engine.kernels().iter().map(|k| k.name.clone()).collect());
                    interned.push((Arc::clone(&p.engine), Arc::clone(&names)));
                    names
                }
            })
            .collect();
        RunTrace {
            device_name: self.config.device.name.clone(),
            measured: self.config.measure,
            processes,
            kernel_names,
            ec_records,
            kernel_events: self.gpu.kernel_events,
            preemptions: self.gpu.preemptions,
            power_samples: self.sampler.power_samples,
            fault_events: self.guard.fault_events,
            requests: self.ingress.requests,
            serve_events: self.ingress.serve_events,
            serve_group_labels: self
                .config
                .serve
                .as_ref()
                .map(|plan| plan.groups.iter().map(|g| g.label.clone()).collect())
                .unwrap_or_default(),
            budget_exceeded: self.budget_exceeded,
            sim_events: self.events_processed,
            gpu_busy: self.gpu.gpu_busy_measured,
            gpu_memory_bytes,
            gpu_memory_percent: self.config.device.memory.gpu_percent(gpu_memory_bytes),
            final_freq_mhz: self.config.device.gpu.freq.mhz(self.gpu.freq_step),
            top_freq_mhz: self.config.device.gpu.freq.max_mhz(),
            mem_bandwidth_bytes_per_sec: self.config.device.gpu.bytes_per_sec(),
        }
    }
}
