//! Parameter sweeps: the batch × process-count × precision grids behind
//! the paper's figures 1 and 3–12.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use serde::Serialize;

use jetsim_des::{splitmix64, SimDuration};
use jetsim_dnn::{ModelGraph, Precision};
use jetsim_profile::JetsonStatsReport;
use jetsim_sim::{ArrivalModel, GpuPolicy, ProfilerMode, SimError, Simulation, DEFAULT_SEED};

use crate::deployment::{Deployment, Tenant, TenantMetrics};
use crate::platform::Platform;
use crate::pool::{panic_message, run_isolated};

/// Supervision policy for a sweep: what the runner does when a cell
/// panics, runs away or hits OOM.
///
/// The default policy is inert — no event budget, no retries — and
/// [`SweepSpec::run`] uses it, so plain sweeps behave exactly as before
/// (byte-identical results).
///
/// # Examples
///
/// ```
/// use jetsim::SupervisorPolicy;
///
/// let policy = SupervisorPolicy::new()
///     .event_budget(50_000_000)
///     .max_retries(3);
/// assert_eq!(policy.max_retries, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SupervisorPolicy {
    /// Abort any cell whose simulation processes more than this many DES
    /// events, reporting it as [`CellOutcome::BudgetExceeded`].
    pub event_budget: Option<u64>,
    /// How many times an OOM cell is retried at degraded parameters
    /// (halve the batch first, then shed processes). `0` disables
    /// retries.
    pub max_retries: u32,
    /// Grid cells `(batch, processes)` whose worker panics, for the
    /// panic-isolation tests.
    #[cfg(test)]
    panic_on: Vec<(u32, u32)>,
}

impl SupervisorPolicy {
    /// The inert policy (no budget, no retries).
    pub fn new() -> Self {
        SupervisorPolicy::default()
    }

    /// Sets the per-cell DES event budget.
    pub fn event_budget(mut self, events: u64) -> Self {
        self.event_budget = Some(events);
        self
    }

    /// Sets the retry cap for OOM degradation.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Makes the worker of grid cell `(batch, processes)` panic.
    #[cfg(test)]
    fn panic_on(mut self, batch: u32, processes: u32) -> Self {
        self.panic_on.push((batch, processes));
        self
    }
}

/// The grid of parameters to sweep.
///
/// # Examples
///
/// ```
/// use jetsim::SweepSpec;
/// use jetsim_dnn::Precision;
///
/// let spec = SweepSpec::new()
///     .precisions([Precision::Int8])
///     .batches([1, 2, 4, 8, 16])
///     .process_counts([1, 2, 4, 8]);
/// assert_eq!(spec.cells(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    precisions: Vec<Precision>,
    batches: Vec<u32>,
    process_counts: Vec<u32>,
    offered_loads: Vec<Option<f64>>,
    gpu_policies: Vec<GpuPolicy>,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
    workers: Option<usize>,
}

impl SweepSpec {
    /// A single-cell spec (batch 1, one process, fp32) to refine with the
    /// builder methods.
    pub fn new() -> Self {
        SweepSpec {
            precisions: vec![Precision::Fp32],
            batches: vec![1],
            process_counts: vec![1],
            offered_loads: vec![None],
            gpu_policies: vec![GpuPolicy::TimesliceRR],
            warmup: SimDuration::from_millis(300),
            measure: SimDuration::from_millis(1500),
            seed: DEFAULT_SEED,
            workers: None,
        }
    }

    /// Sets the precisions to sweep.
    pub fn precisions<I: IntoIterator<Item = Precision>>(mut self, p: I) -> Self {
        self.precisions = p.into_iter().collect();
        self
    }

    /// Sets the batch sizes to sweep.
    pub fn batches<I: IntoIterator<Item = u32>>(mut self, b: I) -> Self {
        self.batches = b.into_iter().collect();
        self
    }

    /// Sets the concurrent process counts to sweep.
    pub fn process_counts<I: IntoIterator<Item = u32>>(mut self, n: I) -> Self {
        self.process_counts = n.into_iter().collect();
        self
    }

    /// Sets the offered-load axis: `None` cells run closed-loop
    /// (saturated, the classic grid), `Some(fps)` cells feed every
    /// process an open-loop Poisson stream at that rate — the sweep
    /// analogue of a serving deployment at fixed traffic. Defaults to
    /// `[None]`, so plain sweeps are unchanged.
    pub fn offered_loads<I: IntoIterator<Item = Option<f64>>>(mut self, loads: I) -> Self {
        self.offered_loads = loads.into_iter().collect();
        if self.offered_loads.is_empty() {
            self.offered_loads.push(None);
        }
        self
    }

    /// Sets the GPU scheduling-policy axis: each cell of the grid runs
    /// once per policy. Defaults to `[GpuPolicy::TimesliceRR]` (the
    /// simulator default), so plain sweeps are unchanged. Cell seeds
    /// depend only on workload coordinates, never on the policy, so two
    /// policies see bit-identical arrival/kernel randomness — the
    /// comparison isolates the scheduler.
    pub fn gpu_policies<I: IntoIterator<Item = GpuPolicy>>(mut self, policies: I) -> Self {
        self.gpu_policies = policies.into_iter().collect();
        if self.gpu_policies.is_empty() {
            self.gpu_policies.push(GpuPolicy::TimesliceRR);
        }
        self
    }

    /// Sets the per-cell warmup window.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the per-cell measurement window.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the RNG seed (each cell derives its own from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the worker-thread count (defaults to the number of available
    /// cores). Cell results are identical whatever the worker count:
    /// each cell's seed depends only on its `(precision, batch,
    /// processes)` coordinates, never on which thread ran it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.precisions.len()
            * self.batches.len()
            * self.process_counts.len()
            * self.offered_loads.len()
            * self.gpu_policies.len()
    }

    /// Runs the sweep for `model` on `platform`, one simulation per cell,
    /// in parallel across available cores (or the [`SweepSpec::workers`]
    /// override). Cells that exceed unified memory come back as
    /// [`CellOutcome::OutOfMemory`] instead of aborting the sweep — the
    /// paper hit exactly such cells (§6.2.1).
    ///
    /// Cells run on the workspace worker pool ([`crate::pool`]), which
    /// hands out the flattened grid in order and returns results in
    /// grid order. The output is deterministic — identical whatever the
    /// worker count, and identical whether the process-wide engine
    /// cache is cold or warm.
    pub fn run(&self, platform: &Platform, model: &ModelGraph) -> Vec<SweepCell> {
        self.run_supervised(platform, model, &SupervisorPolicy::default())
    }

    /// Runs the sweep under a [`SupervisorPolicy`]: every cell executes
    /// inside `catch_unwind`, so a panicking cell surfaces as
    /// [`CellOutcome::Panicked`] instead of tearing down the whole grid;
    /// cells that exceed the policy's DES event budget come back as
    /// [`CellOutcome::BudgetExceeded`]; OOM cells are retried at degraded
    /// parameters up to `max_retries` times, with the full degradation
    /// chain recorded in [`CellOutcome::Degraded`].
    ///
    /// Supervision preserves the determinism contract of [`SweepSpec::run`]:
    /// the grid order and every cell's bytes are identical whatever the
    /// worker count, and the inert default policy reproduces unsupervised
    /// results exactly.
    pub fn run_supervised(
        &self,
        platform: &Platform,
        model: &ModelGraph,
        policy: &SupervisorPolicy,
    ) -> Vec<SweepCell> {
        let mut params: Vec<(Precision, u32, u32, Option<f64>, GpuPolicy)> =
            Vec::with_capacity(self.cells());
        for &precision in &self.precisions {
            for &batch in &self.batches {
                for &procs in &self.process_counts {
                    for &load in &self.offered_loads {
                        for &gpu_policy in &self.gpu_policies {
                            params.push((precision, batch, procs, load, gpu_policy));
                        }
                    }
                }
            }
        }
        // A grid cell is the one-tenant deployment — there is exactly
        // one execution path whether the workload is homogeneous or
        // mixed. Every cell shares one copy of the graph, so its stored
        // fingerprint keys all of the run's engine lookups. Panic
        // isolation: a cell that panics (chaos-injected or a real bug
        // for one parameter combination) is reported in place while the
        // other cells of the grid still complete.
        let shared = Arc::new(model.clone());
        let outcomes = run_isolated(
            params.clone(),
            self.workers,
            |(precision, batch, procs, load, gpu_policy)| {
                let deployment = Deployment::new()
                    .tenant(Tenant::new(Arc::clone(&shared), precision, batch).count(procs));
                self.supervise_deployment(platform, &deployment, load, gpu_policy, policy)
            },
        );
        let mut cells: Vec<SweepCell> = params
            .into_iter()
            .zip(outcomes)
            .map(
                |((precision, batch, procs, load, gpu_policy), outcome)| SweepCell {
                    model: model.name().to_string(),
                    device: platform.name().to_string(),
                    precision,
                    batch,
                    processes: procs,
                    offered_load: load,
                    gpu_policy: gpu_policy.to_string(),
                    outcome: outcome.unwrap_or_else(|payload| CellOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    }),
                },
            )
            .collect();
        cells.sort_by_key(|c| (c.precision, c.batch, c.processes));
        cells
    }

    /// Runs one heterogeneous [`Deployment`] as a single supervised cell
    /// with the inert default policy. Equivalent to
    /// [`SweepSpec::run_deployment_supervised`] with
    /// [`SupervisorPolicy::default`].
    pub fn run_deployment(&self, platform: &Platform, deployment: &Deployment) -> SweepCell {
        self.run_deployment_supervised(platform, deployment, &SupervisorPolicy::default())
    }

    /// Runs one heterogeneous [`Deployment`] under a
    /// [`SupervisorPolicy`], with the same isolation guarantees as a
    /// grid cell: panics are caught, OOM deployments are degraded
    /// (largest tenant batch halves first, then the busiest tenant
    /// sheds an instance), budget overruns abort cleanly.
    ///
    /// The returned [`SweepCell`] keys the deployment by its canonical
    /// label ([`Deployment::label`]); `precision` is the first tenant's,
    /// `batch` is the largest tenant batch, and `processes` is the total
    /// across tenants. A homogeneous deployment reproduces the
    /// corresponding grid cell's metrics byte-for-byte — the seed
    /// derivation folds per tenant and reduces exactly to the grid
    /// formula for one tenant.
    pub fn run_deployment_supervised(
        &self,
        platform: &Platform,
        deployment: &Deployment,
        policy: &SupervisorPolicy,
    ) -> SweepCell {
        let device = platform.name().to_string();
        let gpu_policy = self.gpu_policies.first().copied().unwrap_or_default();
        if deployment.is_empty() {
            return SweepCell {
                model: "(empty)".to_string(),
                device,
                precision: Precision::Fp32,
                batch: 0,
                processes: 0,
                offered_load: None,
                gpu_policy: gpu_policy.to_string(),
                outcome: CellOutcome::SimFailed("empty deployment".to_string()),
            };
        }
        let (batch, procs) = deployment_coords(deployment);
        let outcome = run_isolated(vec![deployment], Some(1), |deployment| {
            self.supervise_deployment(platform, deployment, None, gpu_policy, policy)
        })
        .pop()
        .expect("one input, one result")
        .unwrap_or_else(|payload| CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        });
        SweepCell {
            model: deployment.label(),
            device,
            precision: deployment.tenants()[0].precision(),
            batch,
            processes: procs,
            offered_load: None,
            gpu_policy: gpu_policy.to_string(),
            outcome,
        }
    }

    /// Runs one deployment with retry-with-degradation: an OOM outcome
    /// is retried with the largest tenant batch halved, then with an
    /// instance shed from the tenant running the most, until it fits or
    /// the retry budget runs out. For a single tenant this is exactly
    /// the classic chain (halve the batch, then drop processes). The
    /// returned outcome always keys on the cell's *original* grid
    /// coordinates; a degraded success records where it finally ran.
    fn supervise_deployment(
        &self,
        platform: &Platform,
        deployment: &Deployment,
        offered_load: Option<f64>,
        gpu_policy: GpuPolicy,
        policy: &SupervisorPolicy,
    ) -> CellOutcome {
        #[cfg(test)]
        {
            let (batch, procs) = deployment_coords(deployment);
            if policy.panic_on.contains(&(batch, procs)) {
                panic!("chaos: injected panic at b{batch} p{procs}");
            }
        }
        let mut attempts: Vec<String> = Vec::new();
        let mut current = Cow::Borrowed(deployment);
        let mut retries_left = policy.max_retries;
        loop {
            let outcome = self.try_deployment(platform, &current, offered_load, gpu_policy, policy);
            match outcome {
                CellOutcome::OutOfMemory { .. } if retries_left > 0 => {
                    let Some(degraded) = degrade_deployment(&current) else {
                        return outcome;
                    };
                    attempts.push(oom_attempt_tag(&current));
                    retries_left -= 1;
                    current = Cow::Owned(degraded);
                }
                CellOutcome::Ok(metrics)
                    if deployment_coords(&current) != deployment_coords(deployment) =>
                {
                    let (final_batch, final_processes) = deployment_coords(&current);
                    return CellOutcome::Degraded {
                        metrics,
                        attempts,
                        final_batch,
                        final_processes,
                    };
                }
                other => return other,
            }
        }
    }

    /// Derives the deployment's RNG seed by folding every tenant's
    /// coordinates — precision, batch, instance count — through a
    /// splitmix64 finalizer. (The previous xor-shift scheme dropped the
    /// precision, making e.g. `(int8, b4, p2)` and `(fp16, b4, p2)`
    /// share one seed.) A single tenant reduces to exactly the classic
    /// per-cell formula, so homogeneous deployments reproduce grid
    /// cells byte-for-byte; tenant *order* feeds the fold, so the seed
    /// respects the deployment's identity, not just its multiset.
    fn deployment_seed(&self, deployment: &Deployment) -> u64 {
        deployment.tenants().iter().fold(self.seed, |seed, t| {
            splitmix64(
                seed ^ ((t.precision() as u64) << 40)
                    ^ (u64::from(t.batch()) << 8)
                    ^ (u64::from(t.instances()) << 20),
            )
        })
    }

    fn try_deployment(
        &self,
        platform: &Platform,
        deployment: &Deployment,
        offered_load: Option<f64>,
        gpu_policy: GpuPolicy,
        policy: &SupervisorPolicy,
    ) -> CellOutcome {
        let arrivals = match offered_load {
            Some(fps) => ArrivalModel::Poisson { fps },
            None => ArrivalModel::Saturated,
        };
        let mut builder = match deployment.config_builder(platform, arrivals) {
            Ok(builder) => builder,
            Err(e) => return CellOutcome::BuildFailed(e.to_string()),
        }
        .warmup(self.warmup)
        .measure(self.measure)
        .seed(self.deployment_seed(deployment))
        .gpu_policy(gpu_policy)
        .record_kernel_events(false)
        .profiler(ProfilerMode::Lightweight);
        if let Some(budget) = policy.event_budget {
            builder = builder.event_budget(budget);
        }
        match builder.build() {
            Ok(config) => {
                let trace = Simulation::new(config).expect("validated").run();
                if trace.budget_exceeded {
                    return CellOutcome::BudgetExceeded {
                        events: trace.sim_events,
                        budget: policy.event_budget.unwrap_or(u64::MAX),
                    };
                }
                let report = JetsonStatsReport::from_trace(&trace);
                CellOutcome::Ok(CellMetrics {
                    throughput: report.throughput,
                    throughput_per_process: report.throughput_per_process,
                    mean_power_w: report.mean_power_w,
                    gpu_memory_percent: report.gpu_memory_percent,
                    gpu_utilization_percent: report.gpu_utilization_percent,
                    power_per_image: report.power_per_image,
                    mean_ec_ms: trace.mean_ec_time().as_millis_f64(),
                    mean_launch_ms: mean_ms(&trace, |p| p.mean_launch_time),
                    mean_blocking_ms: mean_ms(&trace, |p| p.mean_blocking_time),
                    mean_sync_ms: mean_ms(&trace, |p| p.mean_sync_time),
                    final_gpu_freq_mhz: report.final_gpu_freq_mhz,
                    tenants: TenantMetrics::from_trace(&trace, deployment),
                })
            }
            Err(SimError::OutOfMemory {
                required_bytes,
                usable_bytes,
            }) => CellOutcome::OutOfMemory {
                required_mib: required_bytes / (1024 * 1024),
                usable_mib: usable_bytes / (1024 * 1024),
            },
            Err(e) => CellOutcome::SimFailed(e.to_string()),
        }
    }
}

/// The degradation coordinates of a deployment: (largest tenant batch,
/// total processes). For a single tenant these are its `(batch, count)`.
fn deployment_coords(deployment: &Deployment) -> (u32, u32) {
    let batch = deployment
        .tenants()
        .iter()
        .map(Tenant::batch)
        .max()
        .unwrap_or(0);
    (batch, deployment.total_processes())
}

/// One step down the degradation ladder: halve the largest tenant batch
/// while any batch exceeds 1, otherwise shed one instance from the
/// tenant running the most (dropping the tenant entirely when its last
/// instance goes). Returns `None` when the deployment is already at
/// `b1` × one process — nothing left to shed. For a single tenant this
/// is exactly the paper-era chain: halve the batch, then drop
/// processes.
fn degrade_deployment(deployment: &Deployment) -> Option<Deployment> {
    let tenants = deployment.tenants();
    let max_batch = tenants.iter().map(Tenant::batch).max()?;
    if max_batch > 1 {
        let victim = tenants.iter().position(|t| t.batch() == max_batch)?;
        let rebuilt = tenants
            .iter()
            .enumerate()
            .fold(Deployment::new(), |d, (i, t)| {
                let batch = if i == victim {
                    t.batch() / 2
                } else {
                    t.batch()
                };
                d.tenant(
                    Tenant::new(Arc::clone(t.model()), t.precision(), batch)
                        .count(t.instances())
                        .priority(t.gpu_priority())
                        .sm_share(t.gpu_sm_share()),
                )
            });
        return Some(rebuilt);
    }
    if deployment.total_processes() <= 1 {
        return None;
    }
    let max_count = tenants.iter().map(Tenant::instances).max()?;
    let victim = tenants.iter().position(|t| t.instances() == max_count)?;
    let rebuilt = tenants
        .iter()
        .enumerate()
        .fold(Deployment::new(), |d, (i, t)| {
            let count = if i == victim {
                t.instances() - 1
            } else {
                t.instances()
            };
            if count == 0 {
                d
            } else {
                d.tenant(
                    Tenant::new(Arc::clone(t.model()), t.precision(), t.batch())
                        .count(count)
                        .priority(t.gpu_priority())
                        .sm_share(t.gpu_sm_share()),
                )
            }
        });
    Some(rebuilt)
}

/// The degradation-chain tag for an OOM attempt. Single-tenant
/// deployments keep the classic `b{B}p{P}: OOM` form; mixed deployments
/// tag with their canonical label.
fn oom_attempt_tag(deployment: &Deployment) -> String {
    match deployment.tenants() {
        [t] => format!("b{}p{}: OOM", t.batch(), t.instances()),
        _ => format!("{}: OOM", deployment.label()),
    }
}

fn mean_ms(trace: &jetsim_sim::RunTrace, f: fn(&jetsim_sim::ProcessStats) -> SimDuration) -> f64 {
    if trace.processes.is_empty() {
        return 0.0;
    }
    trace
        .processes
        .iter()
        .map(|p| f(p).as_millis_f64())
        .sum::<f64>()
        / trace.processes.len() as f64
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

/// Phase-1 metrics of one sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellMetrics {
    /// Aggregate throughput, images/s.
    pub throughput: f64,
    /// The paper's T/P metric, images/s per process.
    pub throughput_per_process: f64,
    /// Mean module power, W.
    pub mean_power_w: f64,
    /// GPU memory as a percentage of board RAM.
    pub gpu_memory_percent: f64,
    /// GPU busy percentage.
    pub gpu_utilization_percent: f64,
    /// Energy per image, J.
    pub power_per_image: f64,
    /// Mean EC wall time, ms.
    pub mean_ec_ms: f64,
    /// Mean per-EC launch CPU time, ms.
    pub mean_launch_ms: f64,
    /// Mean per-EC blocking, ms.
    pub mean_blocking_ms: f64,
    /// Mean per-EC sync wait, ms.
    pub mean_sync_ms: f64,
    /// GPU frequency after DVFS settled, MHz.
    pub final_gpu_freq_mhz: u32,
    /// Per-tenant breakdown, in deployment order. A homogeneous grid
    /// cell has exactly one entry; a mixed deployment gets one per
    /// tenant, keyed by the tenant's canonical label.
    pub tenants: Vec<TenantMetrics>,
}

/// What happened to one cell of the grid.
///
/// Marked `#[non_exhaustive]`: the supervisor grows new failure modes
/// over time (panic isolation and budget watchdogs were added after the
/// first release), so downstream matches need a `_` arm.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub enum CellOutcome {
    /// The cell ran; metrics inside.
    Ok(CellMetrics),
    /// The deployment did not fit in unified memory (on hardware this
    /// reboots the board).
    OutOfMemory {
        /// MiB the deployment needed.
        required_mib: u64,
        /// MiB available.
        usable_mib: u64,
    },
    /// A tenant's engine could not be built: the
    /// [`crate::DeploymentError::Build`] text, which names the tenant.
    BuildFailed(String),
    /// The engine built but the simulation itself was rejected for a
    /// reason other than memory (e.g. an invalid configuration).
    /// Previously these were mislabeled as [`CellOutcome::BuildFailed`].
    SimFailed(String),
    /// The cell's worker panicked; the supervisor caught it and the rest
    /// of the grid completed normally.
    Panicked {
        /// The panic payload, best-effort stringified.
        message: String,
    },
    /// The cell's simulation exceeded the supervisor's DES event budget
    /// and was aborted mid-run (a runaway cell must not starve the grid).
    BudgetExceeded {
        /// Events the simulation had processed when the watchdog fired.
        events: u64,
        /// The budget it was given.
        budget: u64,
    },
    /// The cell OOM'd at its grid coordinates but succeeded after the
    /// supervisor degraded it (smaller batch, then fewer processes).
    Degraded {
        /// Metrics at the degraded operating point.
        metrics: CellMetrics,
        /// The degradation chain, e.g. `["b8p4: OOM", "b4p4: OOM"]`.
        attempts: Vec<String>,
        /// Batch size that finally fit.
        final_batch: u32,
        /// Process count that finally fit.
        final_processes: u32,
    },
}

impl CellOutcome {
    /// The metrics, if the cell ran.
    pub fn metrics(&self) -> Option<&CellMetrics> {
        match self {
            CellOutcome::Ok(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the cell completed at its requested parameters.
    pub fn is_success(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// Aggregate throughput (images/s) of a cell that ran at its
    /// requested parameters, `None` for every failure mode and for
    /// degraded cells.
    pub fn throughput(&self) -> Option<f64> {
        self.metrics().map(|m| m.throughput)
    }
}

/// One `(precision, batch, processes)` cell of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepCell {
    /// Model name.
    pub model: String,
    /// Device name.
    pub device: String,
    /// Requested precision.
    pub precision: Precision,
    /// Batch size.
    pub batch: u32,
    /// Concurrent process count.
    pub processes: u32,
    /// Open-loop offered load per process (batches/s, Poisson); `None`
    /// for classic closed-loop (saturated) cells.
    pub offered_load: Option<f64>,
    /// GPU scheduling policy the cell ran under, in `--gpu-policy`
    /// grammar (`"rr"` for classic cells).
    pub gpu_policy: String,
    /// Outcome.
    pub outcome: CellOutcome,
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} b{} p{}",
            self.model, self.precision, self.batch, self.processes
        )?;
        if let Some(fps) = self.offered_load {
            write!(f, " @{fps:.0}/s")?;
        }
        if self.gpu_policy != "rr" {
            write!(f, " [{}]", self.gpu_policy)?;
        }
        write!(f, ": ")?;
        match &self.outcome {
            CellOutcome::Ok(m) => write!(
                f,
                "T/P {:.1} img/s, {:.2} W, mem {:.1}%",
                m.throughput_per_process, m.mean_power_w, m.gpu_memory_percent
            ),
            CellOutcome::OutOfMemory {
                required_mib,
                usable_mib,
            } => write!(f, "OOM ({required_mib} MiB > {usable_mib} MiB)"),
            CellOutcome::BuildFailed(e) => write!(f, "build failed: {e}"),
            CellOutcome::SimFailed(e) => write!(f, "sim failed: {e}"),
            CellOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            CellOutcome::BudgetExceeded { events, budget } => {
                write!(f, "aborted: {events} DES events exceeded budget {budget}")
            }
            CellOutcome::Degraded {
                metrics,
                final_batch,
                final_processes,
                attempts,
            } => write!(
                f,
                "degraded to b{} p{} after {} OOM retr{}: T/P {:.1} img/s",
                final_batch,
                final_processes,
                attempts.len(),
                if attempts.len() == 1 { "y" } else { "ies" },
                metrics.throughput_per_process
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_dnn::zoo;

    fn fast_spec() -> SweepSpec {
        SweepSpec::new()
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400))
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([1, 4])
            .process_counts([1, 2]);
        let cells = spec.run(&Platform::orin_nano(), &zoo::resnet50());
        assert_eq!(cells.len(), 4);
        let keys: Vec<(u32, u32)> = cells.iter().map(|c| (c.batch, c.processes)).collect();
        assert_eq!(keys, vec![(1, 1), (1, 2), (4, 1), (4, 2)]);
        assert!(cells.iter().all(|c| c.outcome.metrics().is_some()));
    }

    #[test]
    fn tp_falls_with_processes_rises_with_batch() {
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([1, 16])
            .process_counts([1, 8]);
        let cells = spec.run(&Platform::orin_nano(), &zoo::yolov8n());
        let tp = |b: u32, p: u32| {
            cells
                .iter()
                .find(|c| c.batch == b && c.processes == p)
                .and_then(|c| c.outcome.metrics())
                .map(|m| m.throughput_per_process)
                .expect("cell ran")
        };
        assert!(tp(16, 1) > tp(1, 1), "batch helps");
        assert!(tp(1, 8) < tp(1, 1) / 3.0, "processes hurt");
    }

    #[test]
    fn oom_cells_reported_not_fatal() {
        let spec = fast_spec()
            .precisions([Precision::Fp16])
            .batches([1])
            .process_counts([1, 4]);
        let cells = spec.run(&Platform::jetson_nano(), &zoo::fcn_resnet50());
        assert_eq!(cells.len(), 2);
        assert!(cells[0].outcome.metrics().is_some());
        assert!(matches!(cells[1].outcome, CellOutcome::OutOfMemory { .. }));
        assert!(format!("{}", cells[1]).contains("OOM"));
    }

    #[test]
    fn cells_count_product() {
        let spec = SweepSpec::new()
            .precisions(Precision::ALL)
            .batches([1, 2, 4])
            .process_counts([1, 2]);
        assert_eq!(spec.cells(), 24);
        let spec = spec.offered_loads([None, Some(30.0), Some(60.0)]);
        assert_eq!(spec.cells(), 72);
    }

    #[test]
    fn offered_load_axis_runs_open_loop_cells() {
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([1])
            .process_counts([1])
            .offered_loads([None, Some(40.0)]);
        let cells = spec.run(&Platform::orin_nano(), &zoo::resnet50());
        assert_eq!(cells.len(), 2);
        let saturated = cells.iter().find(|c| c.offered_load.is_none()).unwrap();
        let loaded = cells.iter().find(|c| c.offered_load == Some(40.0)).unwrap();
        let sat_tp = saturated.outcome.throughput().expect("saturated cell ran");
        let load_tp = loaded.outcome.throughput().expect("loaded cell ran");
        // 40 batches/s is far below this cell's ceiling: the open-loop
        // cell serves roughly the offered rate, well under saturation.
        assert!(
            load_tp < sat_tp * 0.7,
            "loaded {load_tp} vs saturated {sat_tp}"
        );
        assert!(
            (load_tp - 40.0).abs() < 12.0,
            "throughput tracks the offered rate, got {load_tp}"
        );
        assert!(format!("{loaded}").contains("@40/s"), "{loaded}");
    }

    #[test]
    fn outcome_helpers_match_the_metrics_accessor() {
        let spec = fast_spec()
            .precisions([Precision::Fp16])
            .batches([1])
            .process_counts([1, 4]);
        let cells = spec.run(&Platform::jetson_nano(), &zoo::fcn_resnet50());
        for cell in &cells {
            assert_eq!(cell.outcome.is_success(), cell.outcome.metrics().is_some());
            assert_eq!(
                cell.outcome.throughput(),
                cell.outcome.metrics().map(|m| m.throughput)
            );
        }
        assert!(cells[0].outcome.is_success());
        assert!(!cells[1].outcome.is_success(), "{:?}", cells[1].outcome);
        assert_eq!(cells[1].outcome.throughput(), None);
    }

    #[test]
    fn results_identical_across_worker_counts_and_cache_state() {
        let spec = fast_spec()
            .precisions([Precision::Int8, Precision::Fp16])
            .batches([1, 4])
            .process_counts([1, 2]);
        let platform = Platform::orin_nano();
        let model = zoo::yolov8n();
        // The first run may compile engines (cache cold for this grid);
        // the later runs hit the process-wide cache. Dispatch order and
        // cache state must not leak into the results.
        let cold = spec.clone().workers(1).run(&platform, &model);
        let warm2 = spec.clone().workers(2).run(&platform, &model);
        let warm8 = spec.clone().workers(8).run(&platform, &model);
        let json = |cells: &[SweepCell]| serde_json::to_string(cells).expect("serializable");
        assert_eq!(json(&cold), json(&warm2), "1 vs 2 workers");
        assert_eq!(json(&cold), json(&warm8), "1 vs 8 workers (cache warm)");
    }

    #[test]
    fn panicking_cell_is_isolated_and_grid_completes() {
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([1, 4])
            .process_counts([1, 2]);
        let policy = SupervisorPolicy::new().panic_on(4, 1);
        let cells = spec.run_supervised(&Platform::orin_nano(), &zoo::resnet50(), &policy);
        assert_eq!(cells.len(), 4, "every cell reported, panic included");
        let keys: Vec<(u32, u32)> = cells.iter().map(|c| (c.batch, c.processes)).collect();
        assert_eq!(keys, vec![(1, 1), (1, 2), (4, 1), (4, 2)], "grid order");
        for cell in &cells {
            if (cell.batch, cell.processes) == (4, 1) {
                match &cell.outcome {
                    CellOutcome::Panicked { message } => {
                        assert!(message.contains("chaos"), "{message}");
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
                assert!(format!("{cell}").contains("panicked"));
            } else {
                assert!(cell.outcome.metrics().is_some(), "{cell}");
            }
        }
    }

    #[test]
    fn error_bearing_grids_are_deterministic_across_worker_counts() {
        // A grid with a panic cell, an OOM cell (degraded via retries)
        // and healthy cells must come back in grid order with identical
        // bytes whatever the worker count — errors don't break the
        // sweep's determinism contract.
        let spec = fast_spec()
            .precisions([Precision::Fp16])
            .batches([1, 2])
            .process_counts([1, 4]);
        let policy = SupervisorPolicy::new().max_retries(4).panic_on(2, 1);
        let platform = Platform::jetson_nano();
        let model = zoo::fcn_resnet50();
        let one = spec
            .clone()
            .workers(1)
            .run_supervised(&platform, &model, &policy);
        let four = spec
            .clone()
            .workers(4)
            .run_supervised(&platform, &model, &policy);
        assert_eq!(one.len(), 4);
        let json = |cells: &[SweepCell]| serde_json::to_string(cells).expect("serializable");
        assert_eq!(json(&one), json(&four), "1 vs 4 workers");
        let keys: Vec<(u32, u32)> = one.iter().map(|c| (c.batch, c.processes)).collect();
        assert_eq!(keys, vec![(1, 1), (1, 4), (2, 1), (2, 4)], "grid order");
        // The p4 cells OOM at their grid coordinates and degrade.
        assert!(
            one.iter().any(|c| matches!(
                &c.outcome,
                CellOutcome::Degraded { attempts, .. } if !attempts.is_empty()
            )),
            "an OOM cell degraded: {one:?}"
        );
    }

    #[test]
    fn budget_watchdog_reports_runaway_cells() {
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([1])
            .process_counts([1]);
        let policy = SupervisorPolicy::new().event_budget(200);
        let cells = spec.run_supervised(&Platform::orin_nano(), &zoo::resnet50(), &policy);
        match &cells[0].outcome {
            CellOutcome::BudgetExceeded { events, budget } => {
                assert_eq!(*budget, 200);
                assert!(*events <= 200, "watchdog fired late: {events}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(format!("{}", cells[0]).contains("budget"));
    }

    #[test]
    fn oom_cell_degrades_to_a_fitting_deployment() {
        // 4 × FCN on the Nano is the paper's reboot scenario; with
        // retries the supervisor sheds load until the deployment fits
        // and reports the full degradation chain.
        let spec = fast_spec()
            .precisions([Precision::Fp16])
            .batches([1])
            .process_counts([4]);
        let policy = SupervisorPolicy::new().max_retries(3);
        let cells = spec.run_supervised(&Platform::jetson_nano(), &zoo::fcn_resnet50(), &policy);
        match &cells[0].outcome {
            CellOutcome::Degraded {
                attempts,
                final_batch,
                final_processes,
                metrics,
            } => {
                assert_eq!(*final_batch, 1);
                assert!(*final_processes < 4);
                assert!(attempts[0].contains("b1p4: OOM"), "{attempts:?}");
                assert!(metrics.throughput >= 0.0);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The cell keeps its original grid coordinates.
        assert_eq!(cells[0].processes, 4);
        assert!(format!("{}", cells[0]).contains("degraded"));
    }

    #[test]
    fn inert_policy_reproduces_unsupervised_results() {
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([1, 4])
            .process_counts([1, 2]);
        let platform = Platform::orin_nano();
        let model = zoo::yolov8n();
        let plain = spec.run(&platform, &model);
        let supervised = spec.run_supervised(&platform, &model, &SupervisorPolicy::default());
        let json = |cells: &[SweepCell]| serde_json::to_string(cells).expect("serializable");
        assert_eq!(json(&plain), json(&supervised));
    }

    #[test]
    fn cell_seeds_depend_on_every_coordinate() {
        let spec = SweepSpec::new();
        let model = zoo::resnet50();
        let seed = |p, b, n| spec.deployment_seed(&Deployment::homogeneous(&model, p, b, n));
        let base = seed(Precision::Int8, 4, 2);
        assert_ne!(base, seed(Precision::Fp16, 4, 2), "precision");
        assert_ne!(base, seed(Precision::Int8, 8, 2), "batch");
        assert_ne!(base, seed(Precision::Int8, 4, 4), "processes");
        // The legacy single-cell formula is the one-tenant fold.
        let legacy =
            splitmix64(spec.seed ^ ((Precision::Int8 as u64) << 40) ^ (4u64 << 8) ^ (2u64 << 20));
        assert_eq!(base, legacy, "homogeneous fold reduces to the grid formula");
    }

    #[test]
    fn deployment_seed_depends_on_tenant_order() {
        let spec = SweepSpec::new();
        let a = Tenant::new(zoo::resnet50(), Precision::Int8, 1);
        let b = Tenant::new(zoo::yolov8n(), Precision::Fp16, 4);
        let ab = Deployment::new().tenant(a.clone()).tenant(b.clone());
        let ba = Deployment::new().tenant(b).tenant(a);
        assert_ne!(spec.deployment_seed(&ab), spec.deployment_seed(&ba));
    }

    #[test]
    fn homogeneous_deployment_matches_grid_cell_bytes() {
        // The acceptance bar for the refactor: running a one-tenant
        // deployment through the deployment path produces byte-identical
        // metrics to the same cell of a classic grid sweep.
        let spec = fast_spec()
            .precisions([Precision::Int8])
            .batches([4])
            .process_counts([2]);
        let platform = Platform::orin_nano();
        let model = zoo::resnet50();
        let grid = spec.run(&platform, &model);
        let deployment = Deployment::homogeneous(&model, Precision::Int8, 4, 2);
        let cell = spec.run_deployment(&platform, &deployment);
        assert_eq!(cell.model, "resnet50:int8:b4x2");
        assert_eq!((cell.batch, cell.processes), (4, 2));
        let json = |o: &CellOutcome| serde_json::to_string(o).expect("serializable");
        assert_eq!(json(&grid[0].outcome), json(&cell.outcome));
    }

    #[test]
    fn mixed_deployment_reports_per_tenant_metrics() {
        let spec = fast_spec();
        let deployment = Deployment::new()
            .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1).count(2))
            .tenant(Tenant::new(zoo::yolov8n(), Precision::Fp16, 4));
        let cell = spec.run_deployment(&Platform::orin_nano(), &deployment);
        assert_eq!(cell.model, "resnet50:int8:b1x2+yolov8n:fp16:b4");
        assert_eq!(cell.batch, 4, "largest tenant batch");
        assert_eq!(cell.processes, 3, "total across tenants");
        let metrics = cell.outcome.metrics().expect("deployment fits");
        assert_eq!(metrics.tenants.len(), 2);
        assert_eq!(metrics.tenants[0].label, "resnet50:int8:b1");
        assert_eq!(metrics.tenants[0].processes, 2);
        assert_eq!(metrics.tenants[1].label, "yolov8n:fp16:b4");
        assert_eq!(metrics.tenants[1].processes, 1);
        let total: f64 = metrics.tenants.iter().map(|t| t.throughput).sum();
        assert!(
            (total - metrics.throughput).abs() < 1e-9,
            "tenant throughputs sum to the aggregate"
        );
    }

    #[test]
    fn empty_deployment_is_rejected_not_fatal() {
        let cell = SweepSpec::new().run_deployment(&Platform::orin_nano(), &Deployment::new());
        assert!(
            matches!(&cell.outcome, CellOutcome::SimFailed(e) if e.contains("empty")),
            "{:?}",
            cell.outcome
        );
    }

    #[test]
    fn unbuildable_tenant_is_named_in_the_cell() {
        let deployment = Deployment::new()
            .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1))
            .tenant(Tenant::new(zoo::yolov8n(), Precision::Fp16, 300));
        let cell = SweepSpec::new().run_deployment(&Platform::orin_nano(), &deployment);
        assert!(
            matches!(&cell.outcome, CellOutcome::BuildFailed(e)
                if e.starts_with("tenant yolov8n:fp16:b300: engine build failed")),
            "{:?}",
            cell.outcome
        );
    }

    #[test]
    fn oversized_mixed_deployment_degrades_tenant_by_tenant() {
        // Two FCN tenants on the Nano cannot fit; the supervisor halves
        // the largest batch first, then sheds instances from the
        // busiest tenant, and the attempts chain uses deployment labels.
        let spec = fast_spec();
        let deployment = Deployment::new()
            .tenant(Tenant::new(zoo::fcn_resnet50(), Precision::Fp16, 2).count(2))
            .tenant(Tenant::new(zoo::fcn_resnet50(), Precision::Fp16, 1).count(2));
        let policy = SupervisorPolicy::new().max_retries(6);
        let cell = spec.run_deployment_supervised(&Platform::jetson_nano(), &deployment, &policy);
        match &cell.outcome {
            CellOutcome::Degraded {
                attempts,
                final_batch,
                final_processes,
                metrics,
            } => {
                assert!(!attempts.is_empty());
                assert!(
                    attempts[0].contains("fcn_resnet50") && attempts[0].contains("OOM"),
                    "{attempts:?}"
                );
                assert!(*final_batch <= 2);
                assert!(*final_processes < 4);
                assert!(metrics.throughput >= 0.0);
            }
            CellOutcome::Ok(_) => panic!("expected the deployment to degrade"),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The cell keeps the deployment's original coordinates.
        assert_eq!((cell.batch, cell.processes), (2, 4));
    }

    #[test]
    fn degradation_ladder_reduces_to_the_classic_chain() {
        let d = Deployment::homogeneous(&zoo::resnet50(), Precision::Int8, 4, 2);
        let d = degrade_deployment(&d).expect("b4 halves");
        assert_eq!(deployment_coords(&d), (2, 2));
        let d = degrade_deployment(&d).expect("b2 halves");
        assert_eq!(deployment_coords(&d), (1, 2));
        let d = degrade_deployment(&d).expect("p2 sheds");
        assert_eq!(deployment_coords(&d), (1, 1));
        assert!(degrade_deployment(&d).is_none(), "b1p1 is the floor");
    }
}
