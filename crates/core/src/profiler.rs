//! The paper's dual-phase profiling methodology (§4).

use std::fmt;

use jetsim_des::SimDuration;
use jetsim_profile::{JetsonStatsReport, NsightReport};
use jetsim_sim::{ArrivalModel, ProfilerMode, SimConfig, SimError, Simulation, DEFAULT_SEED};

use crate::analysis::BottleneckReport;
use crate::deployment::{Deployment, DeploymentError, TenantMetrics};
use crate::platform::Platform;

/// Errors from the profiler facade.
#[derive(Debug)]
pub enum ProfileError {
    /// A deployment could not be assembled (bad tenant spec or a
    /// tenant's engine failed to build).
    Deployment(DeploymentError),
    /// The simulation rejected the deployment (usually out of memory).
    Sim(SimError),
    /// Phase 2 recorded no kernel events (measurement window too short).
    EmptyTrace,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Deployment(e) => write!(f, "deployment rejected: {e}"),
            ProfileError::Sim(e) => write!(f, "simulation rejected: {e}"),
            ProfileError::EmptyTrace => {
                f.write_str("phase 2 recorded no kernels; lengthen the measurement window")
            }
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Deployment(e) => Some(e),
            ProfileError::Sim(e) => Some(e),
            ProfileError::EmptyTrace => None,
        }
    }
}

impl From<DeploymentError> for ProfileError {
    fn from(e: DeploymentError) -> Self {
        ProfileError::Deployment(e)
    }
}

impl From<SimError> for ProfileError {
    fn from(e: SimError) -> Self {
        ProfileError::Sim(e)
    }
}

/// Runs the paper's two profiling phases over one workload mix and
/// collects both tiers of metrics.
///
/// Phase 1 pairs the `trtexec` throughput counters with the lightweight
/// `jetson-stats` sampler; phase 2 re-runs the same workload under
/// Nsight-style kernel tracing, paying the intrusion the paper reports
/// (~50 % throughput) to obtain SM / issue-slot / tensor-core CDFs and
/// the EC decomposition.
///
/// # Examples
///
/// Homogeneous (the paper's setup) via [`Deployment::homogeneous`]:
///
/// ```
/// use jetsim::deployment::Deployment;
/// use jetsim::{DualPhaseProfiler, Platform};
/// use jetsim_des::SimDuration;
/// use jetsim_dnn::{zoo, Precision};
///
/// let profile = DualPhaseProfiler::new(&Platform::jetson_nano())
///     .deployment(&Deployment::homogeneous(&zoo::yolov8n(), Precision::Fp16, 1, 1))?
///     .warmup(SimDuration::from_millis(150))
///     .measure(SimDuration::from_millis(600))
///     .run()?;
/// assert!((10.0..35.0).contains(&profile.soc.throughput));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Mixed tenants break down per tenant in
/// [`WorkloadProfile::tenants`]:
///
/// ```
/// use jetsim::deployment::{Deployment, Tenant};
/// use jetsim::{DualPhaseProfiler, Platform};
/// use jetsim_des::SimDuration;
/// use jetsim_dnn::{zoo, Precision};
///
/// let mixed = Deployment::new()
///     .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1))
///     .tenant(Tenant::new(zoo::yolov8n(), Precision::Fp16, 4));
/// let profile = DualPhaseProfiler::new(&Platform::orin_nano())
///     .deployment(&mixed)?
///     .warmup(SimDuration::from_millis(150))
///     .measure(SimDuration::from_millis(600))
///     .run()?;
/// assert_eq!(profile.tenants.len(), 2);
/// assert!(profile.tenants.iter().all(|t| t.throughput > 0.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DualPhaseProfiler {
    platform: Platform,
    deployment: Deployment,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
}

impl DualPhaseProfiler {
    /// Creates a profiler for `platform`.
    pub fn new(platform: &Platform) -> Self {
        DualPhaseProfiler {
            platform: platform.clone(),
            deployment: Deployment::new(),
            warmup: SimDuration::from_millis(300),
            measure: SimDuration::from_millis(1500),
            seed: DEFAULT_SEED,
        }
    }

    /// Appends a deployment's tenants to the profiled workload and
    /// builds their engines eagerly (served from the process-wide engine
    /// cache), so configuration errors surface here rather than in
    /// [`DualPhaseProfiler::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Deployment`] when a tenant's engine fails
    /// to build.
    pub fn deployment(mut self, deployment: &Deployment) -> Result<Self, ProfileError> {
        for tenant in deployment.tenants() {
            tenant.build_engine(&self.platform)?;
            self.deployment = self.deployment.tenant(tenant.clone());
        }
        Ok(self)
    }

    /// Sets the warmup interval for both phases.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measured interval for both phases.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the RNG seed used by both phases.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn config(&self, mode: ProfilerMode) -> Result<SimConfig, ProfileError> {
        let builder = self
            .deployment
            .config_builder(&self.platform, ArrivalModel::Saturated)?
            .warmup(self.warmup)
            .measure(self.measure)
            .seed(self.seed)
            .profiler(mode);
        Ok(builder.build()?)
    }

    /// Runs both phases and assembles the combined profile.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Sim`] when the deployment does not fit in
    /// unified memory, and [`ProfileError::EmptyTrace`] when the window
    /// is too short to trace a single kernel.
    pub fn run(self) -> Result<WorkloadProfile, ProfileError> {
        let phase1 = Simulation::new(self.config(ProfilerMode::Lightweight)?)?.run();
        let soc = JetsonStatsReport::from_trace(&phase1);
        let phase2 = Simulation::new(self.config(ProfilerMode::Nsight)?)?.run();
        let kernel = NsightReport::from_trace(&phase2).ok_or(ProfileError::EmptyTrace)?;
        let intrusion = if soc.throughput > 0.0 {
            1.0 - phase2.total_throughput() / soc.throughput
        } else {
            0.0
        };
        let tenants = TenantMetrics::from_trace(&phase1, &self.deployment);
        Ok(WorkloadProfile {
            device_name: self.platform.name().to_string(),
            processes: self.deployment.total_processes(),
            tenants,
            soc,
            kernel,
            phase1_trace: phase1,
            phase2_trace: phase2,
            intrusion,
        })
    }

    /// Runs only phase 1 (lightweight), as one would for pure
    /// throughput/power sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Sim`] for deployments that do not fit.
    pub fn run_phase1(self) -> Result<(JetsonStatsReport, jetsim_sim::RunTrace), ProfileError> {
        let trace = Simulation::new(self.config(ProfilerMode::Lightweight)?)?.run();
        Ok((JetsonStatsReport::from_trace(&trace), trace))
    }
}

/// The combined output of both profiling phases over one workload mix.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// The platform profiled.
    pub device_name: String,
    /// Number of concurrent processes.
    pub processes: u32,
    /// Per-tenant breakdown of the phase-1 trace, in deployment order
    /// (one entry for a homogeneous workload).
    pub tenants: Vec<TenantMetrics>,
    /// Phase-1 SoC/GPU-level report (unperturbed throughput/power).
    pub soc: JetsonStatsReport,
    /// Phase-2 kernel-level report (collected under intrusion).
    pub kernel: NsightReport,
    /// Raw phase-1 trace.
    pub phase1_trace: jetsim_sim::RunTrace,
    /// Raw phase-2 trace.
    pub phase2_trace: jetsim_sim::RunTrace,
    /// Fractional throughput loss phase 2's tracing caused (~0.5 in the
    /// paper).
    pub intrusion: f64,
}

impl WorkloadProfile {
    /// Classifies the dominant bottleneck (see [`crate::analysis`]).
    pub fn analyze(&self) -> BottleneckReport {
        BottleneckReport::diagnose(self)
    }
}

impl fmt::Display for WorkloadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} × {} processes — phase 1: {}",
            self.device_name, self.processes, self.soc
        )?;
        write!(
            f,
            "phase 2 (intrusion {:.0}%): {}",
            self.intrusion * 100.0,
            self.kernel
        )?;
        if self.tenants.len() > 1 {
            for tenant in &self.tenants {
                write!(f, "\n  {tenant}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Tenant;
    use jetsim_dnn::{zoo, Precision};

    fn quick_profile(procs: u32) -> WorkloadProfile {
        DualPhaseProfiler::new(&Platform::orin_nano())
            .deployment(&Deployment::homogeneous(
                &zoo::resnet50(),
                Precision::Int8,
                1,
                procs,
            ))
            .unwrap()
            .warmup(SimDuration::from_millis(150))
            .measure(SimDuration::from_millis(700))
            .run()
            .unwrap()
    }

    #[test]
    fn dual_phase_reports_intrusion() {
        let profile = quick_profile(1);
        assert!(
            (0.25..0.7).contains(&profile.intrusion),
            "paper reports ~50%: {}",
            profile.intrusion
        );
    }

    #[test]
    fn phase1_faster_than_phase2() {
        let profile = quick_profile(1);
        assert!(profile.soc.throughput > profile.phase2_trace.total_throughput());
    }

    #[test]
    fn oom_deployment_is_an_error() {
        let result = DualPhaseProfiler::new(&Platform::jetson_nano())
            .deployment(&Deployment::homogeneous(
                &zoo::fcn_resnet50(),
                Precision::Fp16,
                1,
                4,
            ))
            .unwrap()
            .run();
        assert!(matches!(result, Err(ProfileError::Sim(_))), "{result:?}");
    }

    #[test]
    fn mixed_deployment_profiles_per_tenant() {
        let mixed = Deployment::new()
            .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1))
            .tenant(Tenant::new(zoo::yolov8n(), Precision::Fp16, 4));
        let profile = DualPhaseProfiler::new(&Platform::orin_nano())
            .deployment(&mixed)
            .unwrap()
            .warmup(SimDuration::from_millis(150))
            .measure(SimDuration::from_millis(700))
            .run()
            .unwrap();
        assert_eq!(profile.processes, 2);
        assert_eq!(profile.tenants.len(), 2);
        assert_eq!(profile.tenants[0].label, "resnet50:int8:b1");
        assert_eq!(profile.tenants[1].label, "yolov8n:fp16:b4");
        let total: f64 = profile.tenants.iter().map(|t| t.throughput).sum();
        assert!((total - profile.soc.throughput).abs() < 1e-9);
        let text = format!("{profile}");
        assert!(
            text.contains("resnet50:int8:b1") && text.contains("yolov8n:fp16:b4"),
            "{text}"
        );
    }

    #[test]
    fn phase1_only_runs() {
        let (report, trace) = DualPhaseProfiler::new(&Platform::orin_nano())
            .deployment(&Deployment::homogeneous(
                &zoo::yolov8n(),
                Precision::Int8,
                1,
                1,
            ))
            .unwrap()
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(500))
            .run_phase1()
            .unwrap();
        assert!(report.throughput > 50.0);
        assert!(!trace.kernel_events.is_empty());
    }

    #[test]
    fn display_mentions_both_phases() {
        let text = format!("{}", quick_profile(1));
        assert!(text.contains("phase 1") && text.contains("phase 2"));
    }

    #[test]
    fn error_display_chains() {
        use std::error::Error;
        let err = ProfileError::Sim(SimError::NoProcesses);
        assert!(err.source().is_some());
        assert!(ProfileError::EmptyTrace.to_string().contains("window"));
    }
}
