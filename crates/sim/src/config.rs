//! Simulation configuration: which processes run what, for how long,
//! under which profiler.

use std::sync::Arc;

use jetsim_des::SimDuration;
use jetsim_device::DeviceSpec;
use jetsim_trt::Engine;

use crate::error::SimError;
use crate::faults::{FaultPlan, OomPolicy};
use crate::serving::ServePlan;

/// How concurrent processes share the GPU.
///
/// The policy decides *which process's kernel queue* the GPU serves at
/// each dispatch, whether crossing processes costs a context switch,
/// how much of a kernel co-scheduling hides, and whether in-flight
/// kernels can be cancelled; the kernel-timing physics is shared by all
/// of them. Jetson boards lack NVIDIA's Multi-Process Service (paper
/// §2), so they time-multiplex the GPU at kernel granularity: the
/// default reproduces that and is pinned byte-identical by the
/// golden-trace parity suite.
///
/// Parse from the CLI grammar with [`str::parse`]:
/// `rr | fifo | priority[:PENALTY_US] | mps[:OVERLAP]`.
/// [`GpuPolicy::SpatialMps`] has no string in it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GpuPolicy {
    /// Timeslice-affinity round-robin with context-switch costs — the
    /// measured Jetson behaviour and the default.
    #[default]
    TimesliceRR,
    /// Global kernel-arrival order, no timeslice affinity.
    Fifo,
    /// Strict per-process priority levels with preemption: a
    /// higher-priority arrival cancels the in-flight kernel, which is
    /// re-queued and re-run from scratch after the penalty stall.
    Priority {
        /// GPU stall charged before the dispatch that follows a
        /// preemption (context save/discard).
        preempt_penalty: SimDuration,
    },
    /// MPS-style fractional spatial sharing with per-process SM shares
    /// ([`ProcessConfig::sm_share`]). Unlike
    /// [`GpuPolicy::SpatialMps`], the overlap is weighted by the other
    /// ready processes' share (equal shares, one waiter: half of it) and
    /// dispatch rotates on every kernel instead of keeping timeslice
    /// affinity.
    FractionalMps {
        /// Peak fraction of a kernel's time hidden by co-scheduling,
        /// scaled by the contending processes' share mass. Must lie in
        /// `[0, 0.6]`.
        overlap_efficiency: f64,
    },
    /// What an MPS-capable part would recover, for the `ablation_mps`
    /// bench: `rr`'s dispatch order, no inter-process context switches,
    /// and a flat `overlap_efficiency` of each kernel hidden whenever
    /// another process has work queued. Code-only: `--gpu-policy` has no
    /// string for it.
    SpatialMps {
        /// Fraction of a kernel's time hidden by co-scheduling (0 = no
        /// overlap benefit, 0.3 ≈ published MPS gains on small kernels).
        /// Must lie in `[0, 0.6]`; [`SimConfigBuilder::build`] rejects
        /// out-of-range values.
        overlap_efficiency: f64,
    },
}

impl GpuPolicy {
    /// Default preemption penalty for [`GpuPolicy::Priority`]: roughly a
    /// kernel-level context save/discard on an edge GPU.
    pub const DEFAULT_PREEMPT_PENALTY: SimDuration = SimDuration::from_micros(20);

    /// Default overlap efficiency for [`GpuPolicy::FractionalMps`],
    /// matching the published MPS gains the `ablation_mps` bench gives
    /// [`GpuPolicy::SpatialMps`].
    pub const DEFAULT_MPS_OVERLAP: f64 = 0.3;
}

impl std::fmt::Display for GpuPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuPolicy::TimesliceRR => f.write_str("rr"),
            GpuPolicy::Fifo => f.write_str("fifo"),
            GpuPolicy::Priority { preempt_penalty } => {
                write!(f, "priority:{}", preempt_penalty.as_micros_f64())
            }
            GpuPolicy::FractionalMps { overlap_efficiency } => {
                write!(f, "mps:{overlap_efficiency}")
            }
            GpuPolicy::SpatialMps { overlap_efficiency } => {
                write!(f, "spatial:{overlap_efficiency}")
            }
        }
    }
}

impl std::str::FromStr for GpuPolicy {
    type Err = String;

    /// Parses the `--gpu-policy` grammar:
    /// `rr | fifo | priority[:PENALTY_US] | mps[:OVERLAP]` — the
    /// priority penalty is in microseconds, the MPS overlap a fraction
    /// in `[0, 0.6]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match (head, arg) {
            ("rr" | "timeslice", None) => Ok(GpuPolicy::TimesliceRR),
            ("fifo", None) => Ok(GpuPolicy::Fifo),
            ("priority", arg) => {
                let micros = match arg {
                    None => return Ok(GpuPolicy::Priority {
                        preempt_penalty: Self::DEFAULT_PREEMPT_PENALTY,
                    }),
                    Some(a) => a.parse::<f64>().map_err(|_| {
                        format!("invalid priority preemption penalty `{a}` (want microseconds, e.g. `priority:20`)")
                    })?,
                };
                if !micros.is_finite() || micros < 0.0 {
                    return Err(format!(
                        "priority preemption penalty must be a non-negative number of \
                         microseconds, got `{micros}`"
                    ));
                }
                Ok(GpuPolicy::Priority {
                    preempt_penalty: SimDuration::from_nanos((micros * 1_000.0).round() as u64),
                })
            }
            ("mps", arg) => {
                let oe = match arg {
                    None => Self::DEFAULT_MPS_OVERLAP,
                    Some(a) => a.parse::<f64>().map_err(|_| {
                        format!("invalid MPS overlap efficiency `{a}` (want a fraction, e.g. `mps:0.3`)")
                    })?,
                };
                if !(0.0..=0.6).contains(&oe) {
                    return Err(format!(
                        "MPS overlap efficiency must lie in [0, 0.6], got `{oe}`"
                    ));
                }
                Ok(GpuPolicy::FractionalMps {
                    overlap_efficiency: oe,
                })
            }
            _ => Err(format!(
                "unknown GPU policy `{s}` (want rr | fifo | priority[:PENALTY_US] | mps[:OVERLAP])"
            )),
        }
    }
}

/// How the host-side CPU contention of §7 is modelled.
///
/// * [`CpuModel::Stochastic`] (default) — per-launch preemption
///   probabilities and wakeup delays calibrated to the paper's measured
///   blocking intervals. Fast and tuned to the publication.
/// * [`CpuModel::RunQueue`] — an explicit quantum scheduler over the
///   heavy cores in which `cudaStreamSynchronize` *spin-waits* (CUDA's
///   default): every inference thread is continuously runnable, so once
///   processes outnumber heavy cores they time-share in quantum slices
///   and the EC blow-up emerges mechanically rather than statistically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpuModel {
    /// Calibrated stochastic contention (the default).
    #[default]
    Stochastic,
    /// Explicit run-queue scheduling with spin-wait synchronisation.
    RunQueue,
}

/// How intrusive the attached profiler is, mirroring the paper's
/// dual-phase methodology (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfilerMode {
    /// Phase 1: `trtexec` + `jetson-stats` only — negligible intrusion.
    #[default]
    Lightweight,
    /// Phase 2: Nsight-Systems-style kernel tracing. Interposes on every
    /// launch and adds GPU-side instrumentation; the paper reports ~50 %
    /// throughput loss in this mode.
    Nsight,
}

impl ProfilerMode {
    /// Multiplier on CPU-side launch cost under this profiler.
    pub fn launch_overhead_factor(self) -> f64 {
        match self {
            ProfilerMode::Lightweight => 1.0,
            ProfilerMode::Nsight => 2.4,
        }
    }

    /// Multiplier on GPU kernel execution time under this profiler.
    pub fn kernel_overhead_factor(self) -> f64 {
        match self {
            ProfilerMode::Lightweight => 1.0,
            ProfilerMode::Nsight => 1.25,
        }
    }
}

/// How work arrives at one inference process.
///
/// The paper's `trtexec` methodology measures the *saturated* upper
/// bound: a new EC is enqueued the moment the previous one returns. Real
/// edge pipelines are open-loop — a camera delivers frames at a fixed
/// rate — so the simulator also supports periodic and Poisson arrivals,
/// which expose queueing delay instead of peak throughput.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalModel {
    /// Back-to-back ECs (`trtexec`'s pre-enqueued loop): measures the
    /// throughput ceiling.
    #[default]
    Saturated,
    /// One batch arrives every `1/fps` seconds (a fixed-rate camera).
    Periodic {
        /// Batches offered per second.
        fps: f64,
    },
    /// Batches arrive as a Poisson process with the given mean rate
    /// (aggregated event streams).
    Poisson {
        /// Mean batches per second.
        fps: f64,
    },
}

/// One concurrent inference stream: a named `trtexec`-like instance (or
/// one of its `--streams` contexts) running one engine in a loop.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// Process name, carried into traces and reports.
    pub name: String,
    /// The engine this process executes.
    pub engine: Arc<Engine>,
    /// How work arrives.
    pub arrivals: ArrivalModel,
    /// Memory-sharing group: streams of one OS process (`trtexec
    /// --streams`) share the host runtime, CUDA context and engine
    /// weights, paying only per-context I/O and workspace. Separate
    /// processes take distinct groups (by convention, their pid).
    pub memory_group: usize,
    /// GPU scheduling priority (higher wins). Only
    /// [`GpuPolicy::Priority`] consults it; default 0.
    pub priority: u8,
    /// SM share weight under [`GpuPolicy::FractionalMps`] (relative,
    /// not normalised). Must be positive and finite; default 1.0.
    pub sm_share: f64,
}

impl ProcessConfig {
    /// A saturated process named `name` running `engine` in
    /// `memory_group`, at priority 0 and SM share 1.0. Set the other
    /// fields with struct-update syntax.
    pub fn new(name: impl Into<String>, engine: Arc<Engine>, memory_group: usize) -> Self {
        ProcessConfig {
            name: name.into(),
            engine,
            arrivals: ArrivalModel::Saturated,
            memory_group,
            priority: 0,
            sm_share: 1.0,
        }
    }
}

/// Full configuration of one simulation run.
///
/// Build via [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulated platform.
    pub device: DeviceSpec,
    /// The concurrent processes.
    pub processes: Vec<ProcessConfig>,
    /// Time excluded from statistics while clocks and caches settle.
    pub warmup: SimDuration,
    /// Measured interval; statistics cover exactly this window.
    pub measure: SimDuration,
    /// RNG seed; identical configs with identical seeds reproduce runs
    /// bit for bit.
    pub seed: u64,
    /// Profiler intrusion model.
    pub profiler: ProfilerMode,
    /// Sampling period for power/utilisation samples.
    pub sample_period: SimDuration,
    /// How processes share the GPU (dispatch order, context switches,
    /// packing, preemption).
    pub gpu_policy: GpuPolicy,
    /// CPU contention model.
    pub cpu_model: CpuModel,
    /// Whether to retain both per-kernel streams,
    /// [`crate::RunTrace::kernel_events`] and
    /// [`crate::RunTrace::preemptions`], and the per-EC log,
    /// [`crate::RunTrace::ec_records`] (disable for sweeps, long thermal
    /// soaks and serving runs, where they would dominate memory). No
    /// other trace field depends on it: [`crate::ProcessStats`] are
    /// accumulated as each EC finishes.
    pub record_kernel_events: bool,
    /// Fault-injection schedule (empty and [`OomPolicy::Strict`] by
    /// default, which leaves the run byte-identical to a fault-free
    /// simulator).
    pub faults: FaultPlan,
    /// DES event budget: when set, the run aborts once this many events
    /// have been processed and [`crate::RunTrace::budget_exceeded`] is
    /// raised — a watchdog against runaway cells in supervised sweeps.
    pub event_budget: Option<u64>,
    /// Request-level serving plan: designated processes become servers
    /// fed by open-loop arrivals through admission queues and dynamic
    /// batchers. `None` (the default) keeps the run byte-identical to a
    /// simulator without serving machinery.
    pub serve: Option<ServePlan>,
}

/// Most records a run may be expected to keep: half the `u32` index
/// space [`crate::RequestRecord`] links and event payloads carry, so an
/// unlucky draw past the expectation still fits. It bounds a serve
/// plan's request records and the closed-loop processes' per-EC
/// durations (or kernel events, when those are recorded) alike.
const MAX_RECORDS: u32 = u32::MAX / 2;

/// The seed every jetsim entry point defaults to (`b"jets"`): the
/// config builder, sweeps, the profiler, serving specs and all three
/// CLIs.
pub const DEFAULT_SEED: u64 = 0x6A65_7473;

impl SimConfig {
    /// Starts building a configuration for `device`.
    pub fn builder(device: DeviceSpec) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                device,
                processes: Vec::new(),
                warmup: SimDuration::from_millis(500),
                measure: SimDuration::from_secs(3),
                seed: DEFAULT_SEED,
                profiler: ProfilerMode::Lightweight,
                sample_period: SimDuration::from_millis(200),
                gpu_policy: GpuPolicy::TimesliceRR,
                cpu_model: CpuModel::Stochastic,
                record_kernel_events: true,
                faults: FaultPlan::default(),
                event_budget: None,
                serve: None,
            },
        }
    }

    /// Total simulated time (warmup + measurement).
    pub fn total_time(&self) -> SimDuration {
        self.warmup + self.measure
    }

    /// Combined unified-memory footprint of all processes (host +
    /// GPU-side allocations). The host runtime, CUDA context and engine
    /// are paid once per memory group; I/O buffers and workspace once
    /// per process. A serve member with a degraded fallback engine keeps
    /// both engines loaded, so the swap at a batch boundary costs
    /// nothing and the fallback counts too.
    pub fn total_footprint_bytes(&self) -> u64 {
        self.footprint_bytes(self.device.memory.per_process_host_bytes, |_| true)
    }

    /// Combined GPU-side allocation (what `jetson-stats` reports).
    pub fn gpu_memory_bytes(&self) -> u64 {
        self.footprint_bytes(0, |_| true)
    }

    /// [`SimConfig::total_footprint_bytes`]'s rule over the processes
    /// `live` admits, by pid, with `host_bytes` of host runtime per
    /// memory group. The one footprint rule: the pre-flight check, the
    /// reported GPU memory, the OOM killer and the restart-fit check all
    /// read it, so a fallback engine counts for as long as its member
    /// lives.
    pub(crate) fn footprint_bytes(&self, host_bytes: u64, live: impl Fn(usize) -> bool) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let shared: u64 = self
            .processes
            .iter()
            .enumerate()
            .filter(|&(pid, _)| live(pid))
            .map(|(_, p)| {
                let per_context = p.engine.io_bytes() + p.engine.workspace_bytes();
                if seen.insert(p.memory_group) {
                    host_bytes
                        + self.device.memory.cuda_context_bytes
                        + p.engine.engine_bytes()
                        + per_context
                } else {
                    per_context
                }
            })
            .sum();
        let Some(plan) = &self.serve else {
            return shared;
        };
        let fallbacks: u64 = plan
            .groups
            .iter()
            .filter_map(|g| {
                let e = g.degraded_engine.as_ref()?;
                let members = g.members.iter().filter(|&&pid| live(pid)).count() as u64;
                Some(members * (e.engine_bytes() + e.io_bytes() + e.workspace_bytes()))
            })
            .sum();
        shared.saturating_add(fallbacks)
    }

    /// Expected ECs one process runs over the whole run window when its
    /// EC takes `ideal_secs` alone at the top clock (floored at 1 µs),
    /// stretched by the GPU's time multiplexing over every configured
    /// process, with 25 % slack for jitter. [`crate::Simulation`]
    /// pre-sizes each process's EC statistics and the kernel-event log
    /// from it (capped), and [`SimConfig::validate`] bounds a closed-loop
    /// run by it (uncapped).
    pub(crate) fn expected_ecs(&self, ideal_secs: f64) -> f64 {
        let n = self.processes.len().max(1) as f64;
        (self.total_time().as_secs_f64() / (ideal_secs.max(1e-6) * n)) * 1.25
    }

    /// Checks a configuration before it runs, in this order: a
    /// non-empty process list, a run window (`warmup + measure`) that
    /// fits the simulated clock, a well-formed serve plan (every group has
    /// a member, every member names an existing process, no process
    /// serves two groups, `min_replicas` fits the group, expected request
    /// records within half the `u32` index space), closed-loop processes
    /// (those outside any serve group) expected to keep no more records
    /// than that either (one EC duration each, or with
    /// [`SimConfig::record_kernel_events`] one kernel event per kernel
    /// of each EC), in-range
    /// dynamics (MPS overlap efficiency in `[0, 0.6]` for either MPS
    /// policy, positive finite SM shares), and under
    /// [`OomPolicy::Strict`] a footprint that fits the board. Called by
    /// [`SimConfigBuilder::build`] and again by
    /// [`crate::Simulation::new`], because a config's fields are public
    /// and may be assembled by hand.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if self.processes.is_empty() {
            return Err(SimError::NoProcesses);
        }
        if self
            .warmup
            .as_nanos()
            .checked_add(self.measure.as_nanos())
            .is_none()
        {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "warmup {} + measure {} overflows the simulated clock",
                    self.warmup, self.measure
                ),
            });
        }
        let n_processes = self.processes.len();
        let mut claimed = vec![false; n_processes];
        if let Some(plan) = &self.serve {
            for group in &plan.groups {
                if group.members.is_empty() {
                    return Err(SimError::InvalidServePlan {
                        reason: format!("serve group `{}` has no member processes", group.label),
                    });
                }
                for &pid in &group.members {
                    if pid >= n_processes {
                        return Err(SimError::InvalidServePlan {
                            reason: format!(
                                "serve group `{}` names process {pid}, but only {n_processes} \
                                 processes are configured",
                                group.label
                            ),
                        });
                    }
                    if std::mem::replace(&mut claimed[pid], true) {
                        return Err(SimError::InvalidServePlan {
                            reason: format!(
                                "process {pid} is a member of more than one serve group \
                                 (`{}` claims it again)",
                                group.label
                            ),
                        });
                    }
                }
                if let Some(policy) = &group.autoscaler {
                    if policy.min_replicas as usize > group.members.len() {
                        return Err(SimError::InvalidServePlan {
                            reason: format!(
                                "serve group `{}` autoscales with min_replicas {} but has \
                                 only {} member processes",
                                group.label,
                                policy.min_replicas,
                                group.members.len()
                            ),
                        });
                    }
                }
            }
            // Request records pack their instants with the clock's last
            // nanosecond as "unset", and their indices as `u32`.
            let window = self.total_time();
            if window.as_nanos() == u64::MAX {
                return Err(SimError::InvalidServePlan {
                    reason: format!(
                        "the {window} run window reaches the clock's last nanosecond, \
                         which request records reserve for an unset time"
                    ),
                });
            }
            let records: f64 = plan
                .groups
                .iter()
                .map(|g| g.worst_case_records(window))
                .sum();
            if records > f64::from(MAX_RECORDS) {
                return Err(SimError::InvalidServePlan {
                    reason: format!(
                        "the plan may write {records:.3e} request records over its {window} \
                         run window (expected arrivals x retry budget x 2 when hedging), \
                         more than the {MAX_RECORDS} a trace indexes"
                    ),
                });
            }
        }
        let records = |ideal_secs: &dyn Fn(&ProcessConfig) -> f64| -> f64 {
            let per_ec = |p: &ProcessConfig| match self.record_kernel_events {
                true => p.engine.kernel_count() as f64,
                false => 1.0,
            };
            let closed_loop = self.processes.iter().zip(&claimed).filter(|&(_, &s)| !s);
            closed_loop
                .map(|(p, _)| self.expected_ecs(ideal_secs(p)) * per_ec(p))
                .sum()
        };
        // At the 1 µs floor every process runs its most ECs, so a window
        // under the cap at that rate skips the per-kernel EC times.
        let gpu = &self.device.gpu;
        let ideal = |p: &ProcessConfig| p.engine.ideal_ec_time(gpu, gpu.freq.top()).as_secs_f64();
        if records(&|_| 0.0) > f64::from(MAX_RECORDS) && records(&ideal) > f64::from(MAX_RECORDS) {
            let what = match self.record_kernel_events {
                true => "kernel events (expected ECs x kernels per EC)",
                false => "EC durations (one per expected EC)",
            };
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "the closed-loop processes may keep {:.3e} {what} over the {} run window, \
                     more than the {MAX_RECORDS} a run keeps",
                    records(&ideal),
                    self.total_time()
                ),
            });
        }
        if let GpuPolicy::FractionalMps { overlap_efficiency }
        | GpuPolicy::SpatialMps { overlap_efficiency } = self.gpu_policy
        {
            if !(0.0..=0.6).contains(&overlap_efficiency) {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "GPU policy `{}`: overlap_efficiency must lie in [0, 0.6]",
                        self.gpu_policy
                    ),
                });
            }
        }
        for p in &self.processes {
            if !(p.sm_share.is_finite() && p.sm_share > 0.0) {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "process `{}` has sm_share {}, want a positive finite weight",
                        p.name, p.sm_share
                    ),
                });
            }
        }
        if self.faults.oom == OomPolicy::Strict {
            let footprint = self
                .total_footprint_bytes()
                .saturating_add(self.faults.peak_spike_bytes());
            if self.device.memory.would_oom(footprint) {
                return Err(SimError::OutOfMemory {
                    required_bytes: footprint,
                    usable_bytes: self.device.memory.usable_bytes(),
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Adds one process. Its pid is the number of processes added
    /// before it ([`SimConfigBuilder::process_count`]).
    pub fn add_process(mut self, process: ProcessConfig) -> Self {
        self.config.processes.push(process);
        self
    }

    /// How many processes have been added: the pid the next one gets.
    pub fn process_count(&self) -> usize {
        self.config.processes.len()
    }

    /// Sets the warmup interval.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Sets the measured interval.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.config.measure = measure;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the profiler intrusion mode.
    pub fn profiler(mut self, profiler: ProfilerMode) -> Self {
        self.config.profiler = profiler;
        self
    }

    /// Sets the power/utilisation sampling period.
    pub fn sample_period(mut self, period: SimDuration) -> Self {
        self.config.sample_period = period;
        self
    }

    /// Sets how processes share the GPU. [`GpuPolicy::TimesliceRR`] (the
    /// default) is byte-identical to the pre-policy simulator.
    pub fn gpu_policy(mut self, policy: GpuPolicy) -> Self {
        self.config.gpu_policy = policy;
        self
    }

    /// Sets the CPU contention model.
    pub fn cpu_model(mut self, model: CpuModel) -> Self {
        self.config.cpu_model = model;
        self
    }

    /// Sets whether both per-kernel streams, kernel events and
    /// preemption records, and the per-EC log are retained (on by
    /// default; turn it off for sweeps, multi-minute thermal soaks and
    /// serving runs; process statistics, throughput, power, request and
    /// fault records are unaffected).
    pub fn record_kernel_events(mut self, record: bool) -> Self {
        self.config.record_kernel_events = record;
        self
    }

    /// Attaches a fault-injection schedule. Under
    /// [`OomPolicy::KillLargest`] over-committed deployments are
    /// *admitted*: the OOM killer fires at start of run instead of
    /// [`SimConfigBuilder::build`] erroring.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Caps the DES event count; exceeding it aborts the run with
    /// [`crate::RunTrace::budget_exceeded`] set.
    pub fn event_budget(mut self, events: u64) -> Self {
        self.config.event_budget = Some(events);
        self
    }

    /// Attaches a request-level serving plan: the plan's member
    /// processes stop self-enqueueing and instead serve batches formed
    /// from open-loop arrivals (see [`crate::serving`]).
    pub fn serve(mut self, plan: ServePlan) -> Self {
        self.config.serve = Some(plan);
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoProcesses`] for an empty process list,
    /// [`SimError::InvalidServePlan`] for a malformed serve plan,
    /// [`SimError::InvalidConfig`] for a window past the clock or too
    /// long for the closed-loop records, and for out-of-range dynamics
    /// parameters (MPS overlap efficiency outside `[0, 0.6]`, non-positive
    /// SM shares) and [`SimError::OutOfMemory`] when the combined footprint
    /// (plus the fault plan's peak concurrent memory-spike bytes)
    /// exceeds the board's usable RAM — the configuration that reboots a
    /// real Jetson. Under [`OomPolicy::KillLargest`] the memory check is
    /// waived: the deployment is admitted and the simulated OOM killer
    /// resolves the overcommit at run time.
    pub fn build(self) -> Result<SimConfig, SimError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_device::presets;

    #[test]
    fn empty_config_rejected() {
        let err = SimConfig::builder(presets::orin_nano())
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::NoProcesses);
    }

    #[test]
    fn gpu_policy_parses_cli_grammar() {
        assert_eq!("rr".parse::<GpuPolicy>(), Ok(GpuPolicy::TimesliceRR));
        assert_eq!("fifo".parse::<GpuPolicy>(), Ok(GpuPolicy::Fifo));
        assert_eq!(
            "priority".parse::<GpuPolicy>(),
            Ok(GpuPolicy::Priority {
                preempt_penalty: GpuPolicy::DEFAULT_PREEMPT_PENALTY
            })
        );
        assert_eq!(
            "priority:50".parse::<GpuPolicy>(),
            Ok(GpuPolicy::Priority {
                preempt_penalty: SimDuration::from_micros(50)
            })
        );
        assert_eq!(
            "mps".parse::<GpuPolicy>(),
            Ok(GpuPolicy::FractionalMps {
                overlap_efficiency: GpuPolicy::DEFAULT_MPS_OVERLAP
            })
        );
        assert_eq!(
            "mps:0.5".parse::<GpuPolicy>(),
            Ok(GpuPolicy::FractionalMps {
                overlap_efficiency: 0.5
            })
        );
        // `SpatialMps` is code-only: its `Display` form does not parse.
        for bad in [
            "nope",
            "mps:0.9",
            "mps:x",
            "priority:-3",
            "rr:1",
            "spatial:0.3",
        ] {
            assert!(bad.parse::<GpuPolicy>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn gpu_policy_display_round_trips() {
        for p in [
            GpuPolicy::TimesliceRR,
            GpuPolicy::Fifo,
            GpuPolicy::Priority {
                preempt_penalty: SimDuration::from_micros(35),
            },
            GpuPolicy::FractionalMps {
                overlap_efficiency: 0.25,
            },
        ] {
            assert_eq!(p.to_string().parse::<GpuPolicy>(), Ok(p));
        }
        let spatial = GpuPolicy::SpatialMps {
            overlap_efficiency: 0.25,
        };
        assert_eq!(spatial.to_string(), "spatial:0.25");
    }

    #[test]
    fn profiler_overheads_ordered() {
        assert!(
            ProfilerMode::Nsight.launch_overhead_factor()
                > ProfilerMode::Lightweight.launch_overhead_factor()
        );
        assert!(
            ProfilerMode::Nsight.kernel_overhead_factor()
                > ProfilerMode::Lightweight.kernel_overhead_factor()
        );
    }
}
