//! Serving specifications: tenants, arrival processes and SLOs compiled
//! onto the DES.

use std::fmt;
use std::sync::Arc;

use jetsim::deployment::{DeploymentError, Tenant};
use jetsim::platform::Platform;
use jetsim_des::{ArrivalProcess, SimDuration};
use jetsim_dnn::Precision;
use jetsim_sim::serving::{
    AdmissionPolicy, AutoscalerPolicy, BreakerMode, RecoveryPolicy, ServeGroup, ServePlan,
};
use jetsim_sim::{
    ArrivalModel, FaultPlan, GpuPolicy, SimConfig, SimError, Simulation, DEFAULT_SEED,
};
use jetsim_trt::Engine;

use crate::capacity::{self, CapacityEstimate};
use crate::metrics::ServeReport;
use crate::resilience::ResiliencePolicies;

/// How an autoscaled replica's start is charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RestartCost {
    /// The engine's plan file exists from t = 0, as `trtexec` leaves it,
    /// so every start deserializes it: [`Engine::load_cost_estimate`].
    Auto,
    /// A fixed start cost (clamped ≥ 1 ms by the DES).
    Fixed(SimDuration),
}

/// Serverless autoscaling spec for a served tenant: replica bounds, the
/// scaling knobs, and how replica start costs are charged. Resolved
/// against the tenant's concrete engine into the [`AutoscalerPolicy`]
/// the DES enforces.
///
/// The tenant's instance count is the provisioning ceiling: all
/// instances exist as processes (their memory counts against the board
/// for the whole run), but only `min_replicas` start up — the rest park
/// until the autoscaler provisions them, each paying the start cost.
/// `min_replicas == 0` scales to zero: the group parks entirely and the
/// first arrival eats a start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleSpec {
    /// Replica floor the idle reaper never goes below (0 = scale to
    /// zero).
    pub min_replicas: u32,
    /// Replica ceiling; `None` uses the tenant's instance count. Always
    /// clamped to the instance count.
    pub max_replicas: Option<u32>,
    /// Queued requests per up replica that trigger a scale-up.
    pub target_queue_per_replica: f64,
    /// Idle time before a replica above the floor is reaped.
    pub keep_alive: SimDuration,
    /// Autoscaler evaluation interval.
    pub evaluate_every: SimDuration,
    /// When `true`, completions over the spec's SLO count as burn and a
    /// burning window (≥ 50%) adds a replica per tick.
    pub slo_burn: bool,
    /// How replica start time is charged: [`RestartCost::Auto`] loads
    /// the engine's plan file at every start, the first included;
    /// [`RestartCost::Fixed`] charges a flat cost.
    pub cost: RestartCost,
}

impl AutoscaleSpec {
    /// An autoscaler keeping at least `min_replicas` up; defaults:
    /// ceiling = instance count, target queue 4.0, 200 ms keep-alive,
    /// 20 ms ticks, no SLO-burn criterion, plan-load start costs.
    pub fn new(min_replicas: u32) -> Self {
        AutoscaleSpec {
            min_replicas,
            max_replicas: None,
            target_queue_per_replica: 4.0,
            keep_alive: SimDuration::from_millis(200),
            evaluate_every: SimDuration::from_millis(20),
            slo_burn: false,
            cost: RestartCost::Auto,
        }
    }

    /// Sets the replica ceiling (clamped to the tenant's instance count
    /// at build time).
    pub fn max_replicas(mut self, max: u32) -> Self {
        self.max_replicas = Some(max.max(1));
        self
    }

    /// Sets the queued-per-replica scale-up threshold.
    pub fn target_queue_per_replica(mut self, target: f64) -> Self {
        self.target_queue_per_replica = target;
        self
    }

    /// Sets the idle-reap keep-alive.
    pub fn keep_alive(mut self, keep_alive: SimDuration) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// Sets the evaluation interval.
    pub fn evaluate_every(mut self, every: SimDuration) -> Self {
        self.evaluate_every = every;
        self
    }

    /// Enables the SLO-burn scale-up criterion.
    pub fn slo_burn(mut self, enabled: bool) -> Self {
        self.slo_burn = enabled;
        self
    }

    /// Sets how replica starts are charged.
    pub fn cost(mut self, cost: RestartCost) -> Self {
        self.cost = cost;
        self
    }

    /// Resolves this spec against a concrete engine into the policy the
    /// DES enforces. `instances` is the tenant's process count, and
    /// `slo` feeds the optional burn criterion.
    pub(crate) fn resolve(
        &self,
        engine: &Engine,
        instances: u32,
        slo: SimDuration,
    ) -> AutoscalerPolicy {
        let max = self
            .max_replicas
            .unwrap_or(instances)
            .clamp(1, instances.max(1));
        let mut policy = AutoscalerPolicy::new(self.min_replicas.min(max), max)
            .target_queue_per_replica(self.target_queue_per_replica)
            .keep_alive(self.keep_alive)
            .evaluate_every(self.evaluate_every);
        if self.slo_burn {
            policy = policy.slo_target(slo);
        }
        policy.start_cost(match self.cost {
            RestartCost::Auto => engine.load_cost_estimate(),
            RestartCost::Fixed(cost) => cost,
        })
    }
}

/// One served tenant: a [`Tenant`] (model × precision × batch × instance
/// count) plus the serving-side knobs — how its requests arrive, how
/// long the batcher may hold a partial batch, and what happens when its
/// queue fills up.
#[derive(Debug, Clone)]
pub struct ServeTenant {
    /// What runs (each instance is one server process).
    pub tenant: Tenant,
    /// How requests arrive.
    pub arrivals: ArrivalProcess,
    /// Longest the dynamic batcher holds a partial batch.
    pub max_delay: SimDuration,
    /// Bounded admission-queue capacity.
    pub queue_cap: usize,
    /// Policy when the queue is full.
    pub admission: AdmissionPolicy,
    /// Per-tenant autoscaler; `None` falls back to the spec-wide
    /// autoscaler (and to static serving when that is unset too).
    pub autoscale: Option<AutoscaleSpec>,
}

impl ServeTenant {
    /// A served tenant with defaults: 5 ms batching delay, queue
    /// capacity 64, [`AdmissionPolicy::Reject`]. GPU priority and SM
    /// share are the inner [`Tenant`]'s (so a
    /// `model:precision:batch:count:priority` spec carries through).
    pub fn new(tenant: Tenant, arrivals: ArrivalProcess) -> Self {
        ServeTenant {
            tenant,
            arrivals,
            max_delay: SimDuration::from_millis(5),
            queue_cap: 64,
            admission: AdmissionPolicy::Reject,
            autoscale: None,
        }
    }

    /// Parses a `--tenant` spec — positional
    /// `model:precision:batch[:count[:priority]]` or key=value
    /// `model=resnet50,precision=int8,batch=4,count=2` — and attaches an
    /// arrival process.
    ///
    /// # Errors
    ///
    /// Propagates [`DeploymentError`] from [`Tenant::parse`].
    pub fn parse(spec: &str, arrivals: ArrivalProcess) -> Result<Self, DeploymentError> {
        Ok(ServeTenant::new(Tenant::parse(spec)?, arrivals))
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

    /// Attaches a per-tenant autoscaler (overrides any spec-wide one).
    pub fn autoscale(mut self, autoscale: AutoscaleSpec) -> Self {
        self.autoscale = Some(autoscale);
        self
    }
}

/// Errors from building or running a serving simulation.
#[derive(Debug)]
pub enum ServeError {
    /// The spec has no tenants.
    NoTenants,
    /// A tenant's engine failed to build ([`DeploymentError::Build`]
    /// names the tenant).
    Deployment(DeploymentError),
    /// The assembled simulation config was rejected.
    Sim(SimError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoTenants => f.write_str("serving spec needs at least one tenant"),
            ServeError::Deployment(e) => write!(f, "{e}"),
            ServeError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::NoTenants => None,
            ServeError::Deployment(e) => e.source(),
            ServeError::Sim(e) => Some(e),
        }
    }
}

impl From<DeploymentError> for ServeError {
    fn from(e: DeploymentError) -> Self {
        ServeError::Deployment(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

/// A complete serving experiment: platform, tenants, window and SLO.
///
/// # Examples
///
/// ```
/// use jetsim::prelude::*;
/// use jetsim_des::ArrivalProcess;
/// use jetsim_serve::{ServeSpec, ServeTenant};
///
/// let spec = ServeSpec::new(Platform::orin_nano())
///     .tenant(ServeTenant::new(
///         Tenant::new(zoo::resnet50(), Precision::Int8, 1),
///         ArrivalProcess::poisson(100.0),
///     ))
///     .duration(SimDuration::from_millis(500));
/// let report = spec.run()?;
/// assert_eq!(report.groups.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServeSpec {
    platform: Platform,
    tenants: Vec<ServeTenant>,
    warmup: SimDuration,
    duration: SimDuration,
    seed: u64,
    slo: SimDuration,
    faults: FaultPlan,
    resilience: ResiliencePolicies,
    gpu_policy: GpuPolicy,
    autoscale: Option<AutoscaleSpec>,
}

impl ServeSpec {
    /// A spec for `platform` with defaults: 500 ms warmup, 3 s measured
    /// duration, a 50 ms SLO, and the workspace's standard seed.
    pub fn new(platform: Platform) -> Self {
        ServeSpec {
            platform,
            tenants: Vec::new(),
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(3),
            seed: DEFAULT_SEED,
            slo: SimDuration::from_millis(50),
            faults: FaultPlan::new(),
            resilience: ResiliencePolicies::none(),
            gpu_policy: GpuPolicy::TimesliceRR,
            autoscale: None,
        }
    }

    /// Appends a served tenant.
    pub fn tenant(mut self, tenant: ServeTenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Sets the warmup interval (excluded from the report).
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measured duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the RNG seed. The same spec and seed replays the exact
    /// request timeline bit for bit.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency SLO that goodput and attainment are judged
    /// against.
    pub fn slo(mut self, slo: SimDuration) -> Self {
        self.slo = slo;
        self
    }

    /// Injects a fault plan (memory spikes, throttle locks, and the OOM
    /// policy) into the run. Seeded plans replay bit for bit.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Applies a resilience bundle to every tenant's serve group.
    pub fn resilience(mut self, resilience: ResiliencePolicies) -> Self {
        self.resilience = resilience;
        self
    }

    /// Sets the GPU scheduling policy (`--gpu-policy` grammar). The
    /// default, [`GpuPolicy::TimesliceRR`], is byte-identical to specs
    /// predating the policy layer.
    pub fn gpu_policy(mut self, policy: GpuPolicy) -> Self {
        self.gpu_policy = policy;
        self
    }

    /// Applies an autoscaler to every tenant that does not carry its own
    /// [`ServeTenant::autoscale`] override. Without either, serving is
    /// static: all instances are up for the whole run, byte-identical to
    /// specs predating the autoscaling layer.
    pub fn autoscale(mut self, autoscale: AutoscaleSpec) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Total simulated horizon (warmup + measured duration), which fault
    /// plans are drawn over.
    pub fn horizon(&self) -> SimDuration {
        self.warmup + self.duration
    }

    /// The tenants, in group order.
    pub fn tenants(&self) -> &[ServeTenant] {
        &self.tenants
    }

    /// Overrides tenant `index`'s arrival process (used by the capacity
    /// search to sweep offered load).
    pub fn set_arrivals(&mut self, index: usize, arrivals: ArrivalProcess) {
        self.tenants[index].arrivals = arrivals;
    }

    /// The platform this spec targets.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The warmup interval (excluded from reports).
    pub fn warmup_interval(&self) -> SimDuration {
        self.warmup
    }

    /// The measured duration.
    pub fn measured_duration(&self) -> SimDuration {
        self.duration
    }

    /// The latency SLO that goodput and attainment are judged against.
    pub fn slo_target(&self) -> SimDuration {
        self.slo
    }

    /// The RNG seed the run replays under.
    pub fn master_seed(&self) -> u64 {
        self.seed
    }

    /// The resilience bundle applied to every tenant.
    pub fn resilience_policies(&self) -> &ResiliencePolicies {
        &self.resilience
    }

    /// Compiles the spec into a [`SimConfig`] with a serve plan: each
    /// tenant's instances become processes ([`Tenant::add_processes`],
    /// carrying its GPU priority and SM share) that form one serve
    /// group, and [`AdmissionPolicy::Degrade`] tenants get a pre-built
    /// fallback engine one rung down the pressure ladder.
    ///
    /// The config records neither per-kernel stream (kernel events and
    /// preemption records): no serving or fleet report reads them, the
    /// kernel-event jitter draws from a stream of its own, and a
    /// preemption's accounting does not depend on its record, so every
    /// report is the same bytes without them.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoTenants`], [`ServeError::Deployment`] naming the
    /// failing tenant, or [`ServeError::Sim`] from config validation.
    pub fn build_config(&self) -> Result<SimConfig, ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::NoTenants);
        }
        let mut builder = SimConfig::builder(self.platform.device().clone())
            .warmup(self.warmup)
            .measure(self.duration)
            .seed(self.seed)
            .gpu_policy(self.gpu_policy)
            .record_kernel_events(false)
            .faults(self.faults.clone());
        let mut plan = ServePlan::new();
        let res = &self.resilience;
        for st in &self.tenants {
            let t = &st.tenant;
            let scaling = st.autoscale.as_ref().or(self.autoscale.as_ref());
            let engine = t.build_engine(&self.platform)?;
            let first = builder.process_count();
            builder = t.add_processes(builder, &engine, ArrivalModel::Saturated);
            let mut group = ServeGroup::new(t.label(), st.arrivals.clone())
                .members(first..builder.process_count())
                .max_delay(st.max_delay)
                .queue_cap(st.queue_cap)
                .admission(st.admission);
            // A degraded fallback is needed by Degrade admission and by
            // a brownout breaker (which forces the cheap engine while
            // open).
            let wants_fallback = st.admission == AdmissionPolicy::Degrade
                || matches!(res.breaker, Some(b) if b.mode == BreakerMode::Brownout);
            if wants_fallback {
                if let Some((precision, batch)) = degraded_variant(t.precision(), t.batch()) {
                    let fallback = Tenant::new(Arc::clone(t.model()), precision, batch);
                    group = group.degraded_engine(fallback.build_engine(&self.platform)?);
                }
            }
            if let Some(deadline) = res.deadline {
                group = group.deadline(deadline);
            }
            if let Some(retry) = res.retry {
                group = group.retry(retry);
            }
            if let Some(hedge) = res.hedge {
                group = group.hedge(hedge);
            }
            if let Some(breaker) = res.breaker {
                group = group.breaker(breaker);
            }
            if let Some(max_restarts) = res.recovery {
                group = group.recovery(RecoveryPolicy::new(
                    engine.load_cost_estimate(),
                    max_restarts,
                ));
            }
            if let Some(aspec) = scaling {
                group = group.autoscaler(aspec.resolve(&engine, t.instances(), self.slo));
            }
            plan = plan.group(group);
        }
        builder.serve(plan).build().map_err(ServeError::Sim)
    }

    /// Runs the serving simulation and reports per-tenant SLO metrics.
    ///
    /// # Errors
    ///
    /// See [`ServeSpec::build_config`].
    pub fn run(&self) -> Result<ServeReport, ServeError> {
        let config = self.build_config()?;
        let trace = Simulation::new(config)?.run();
        Ok(ServeReport::from_trace_with_deadline(
            &trace,
            self.slo,
            self.warmup,
            self.resilience.deadline,
        ))
    }

    /// Searches for the highest offered load (requests/s, Poisson) that
    /// tenant 0 sustains while keeping its SLO attainment at or above
    /// `target_attainment`. Other tenants keep their configured traffic,
    /// so the search answers "how much can this tenant take *given* its
    /// neighbours".
    ///
    /// The search brackets by doubling/halving from the tenant's
    /// configured mean rate, then bisects `refine_iters` times; every
    /// probe is a full deterministic simulation, so the estimate is
    /// reproducible for a fixed spec and seed.
    ///
    /// # Errors
    ///
    /// See [`ServeSpec::build_config`].
    pub fn find_max_qps(
        &self,
        target_attainment: f64,
        refine_iters: u32,
    ) -> Result<CapacityEstimate, ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::NoTenants);
        }
        let start = self.tenants[0].arrivals.mean_rate().unwrap_or(100.0);
        let mut probe = |qps: f64| -> Result<f64, ServeError> {
            let mut spec = self.clone();
            spec.set_arrivals(0, ArrivalProcess::poisson(qps));
            Ok(spec.run()?.groups[0].slo_attainment)
        };
        capacity::find_max_qps(&mut probe, start, target_attainment, refine_iters)
    }
}

/// The fallback engine's variant for degrade admission and a brownout
/// breaker: drop to the next cheaper precision, or halve the batch once
/// already at int8. `None` when the tenant is already at the floor
/// (int8, batch 1). (The sweep's OOM ladder differs: it halves the
/// batch, then sheds processes, and never changes precision.)
fn degraded_variant(precision: Precision, batch: u32) -> Option<(Precision, u32)> {
    let idx = Precision::ALL.iter().position(|&p| p == precision)?;
    if idx > 0 {
        Some((Precision::ALL[idx - 1], batch))
    } else if batch > 1 {
        Some((precision, (batch / 2).max(1)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_ladder_steps_down_then_halves() {
        assert_eq!(
            degraded_variant(Precision::Fp32, 4),
            Some((Precision::Tf32, 4))
        );
        assert_eq!(
            degraded_variant(Precision::Tf32, 4),
            Some((Precision::Fp16, 4))
        );
        assert_eq!(
            degraded_variant(Precision::Fp16, 4),
            Some((Precision::Int8, 4))
        );
        assert_eq!(
            degraded_variant(Precision::Int8, 4),
            Some((Precision::Int8, 2))
        );
        assert_eq!(degraded_variant(Precision::Int8, 1), None);
    }

    #[test]
    fn tenant_priority_and_share_reach_their_processes() {
        let spec = ServeSpec::new(Platform::orin_nano())
            .tenant(
                ServeTenant::parse("resnet50:int8:1:2:5", ArrivalProcess::poisson(50.0)).unwrap(),
            )
            .tenant(
                ServeTenant::parse(
                    "model=yolov8n,precision=fp16,batch=1,sm_share=0.5",
                    ArrivalProcess::poisson(50.0),
                )
                .unwrap(),
            );
        let config = spec.build_config().unwrap();
        let gpu: Vec<(&str, u8, f64)> = config
            .processes
            .iter()
            .map(|p| (p.name.as_str(), p.priority, p.sm_share))
            .collect();
        assert_eq!(
            gpu,
            vec![
                ("resnet50:int8:b1/0", 5, 1.0),
                ("resnet50:int8:b1/1", 5, 1.0),
                ("yolov8n:fp16:b1/0", 0, 0.5),
            ]
        );
    }

    #[test]
    fn empty_spec_is_rejected() {
        let err = ServeSpec::new(Platform::orin_nano()).run().unwrap_err();
        assert!(matches!(err, ServeError::NoTenants), "{err}");
        assert!(err.to_string().contains("at least one tenant"));
    }

    #[test]
    fn autoscale_resolve_clamps_to_instances_and_prices_plan_loads() {
        let platform = Platform::orin_nano();
        let engine = platform
            .build_engine(&jetsim_dnn::zoo::resnet50(), Precision::Fp16, 1)
            .unwrap();
        let slo = SimDuration::from_millis(50);
        // Ceiling defaults to the instance count; explicit ceilings clamp.
        let policy = AutoscaleSpec::new(1).resolve(&engine, 4, slo);
        assert_eq!((policy.min_replicas, policy.max_replicas), (1, 4));
        let policy = AutoscaleSpec::new(2)
            .max_replicas(16)
            .resolve(&engine, 3, slo);
        assert_eq!((policy.min_replicas, policy.max_replicas), (2, 3));
        // Auto charges the plan load for every start, the first
        // included: the plan exists from t = 0.
        let auto = AutoscaleSpec::new(0).resolve(&engine, 2, slo);
        assert_eq!(auto.start_cost, engine.load_cost_estimate());
        // Fixed charges a flat cost; slo_burn wires the SLO.
        let fixed = AutoscaleSpec::new(0)
            .cost(RestartCost::Fixed(SimDuration::from_millis(33)))
            .slo_burn(true)
            .resolve(&engine, 2, slo);
        assert_eq!(fixed.start_cost, SimDuration::from_millis(33));
        assert_eq!(fixed.slo_target, Some(slo));
    }
}
