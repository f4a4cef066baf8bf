//! `jetsim` — the paper's profiling methodology as a library.
//!
//! This crate reproduces, on a simulated platform, the system built in
//! *Profiling Concurrent Vision Inference Workloads on NVIDIA Jetson*
//! (ISPASS 2025): a dual-phase profiling methodology for concurrent
//! TensorRT vision inference on Jetson-class edge devices, plus the
//! workload analysis that turns raw metrics into deployment decisions.
//!
//! * [`Platform`] — a simulated Jetson board ([`Platform::orin_nano`],
//!   [`Platform::jetson_nano`]) or cloud comparator.
//! * [`Deployment`] — an ordered list of tenants (model × precision ×
//!   batch × count) sharing the device; homogeneous workloads are the
//!   one-tenant case ([`Deployment::homogeneous`]).
//! * [`DualPhaseProfiler`] — phase 1 (`trtexec` + `jetson-stats`,
//!   negligible intrusion) and phase 2 (Nsight-style kernel tracing,
//!   ~50 % throughput cost) in one call, yielding a [`WorkloadProfile`]
//!   with per-tenant breakdowns.
//! * [`analysis`] — bottleneck classification (CPU-blocking-bound,
//!   launch-bound, memory-bound, DVFS-throttled, …).
//! * [`observations`] — the paper oracle: its reported numbers and boxed
//!   takeaways as one table of executable checks.
//! * [`sweep`] — batch × process-count × precision grids, with OOM cells
//!   reported rather than crashing (the paper's over-deployment reboots).
//! * [`pool`] — the worker pool every parallel loop runs on, with
//!   per-input panic isolation.
//! * [`report`] — markdown / CSV / JSON emitters for the figures.
//!
//! # Examples
//!
//! ```
//! use jetsim::prelude::*;
//!
//! let platform = Platform::orin_nano();
//! let profile = DualPhaseProfiler::new(&platform)
//!     .deployment(&Deployment::homogeneous(&zoo::resnet50(), Precision::Int8, 1, 1))?
//!     .measure(SimDuration::from_millis(600))
//!     .warmup(SimDuration::from_millis(200))
//!     .run()?;
//! assert!(profile.soc.throughput > 100.0);
//! assert!(profile.intrusion > 0.2, "phase 2 costs real throughput");
//! println!("{}", profile.analyze());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod deployment;
pub mod observations;
pub mod plan;
pub mod platform;
pub mod pool;
pub mod profiler;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use analysis::{Bottleneck, BottleneckReport};
pub use deployment::{Deployment, DeploymentError, Tenant, TenantMetrics};
pub use platform::Platform;
pub use profiler::{DualPhaseProfiler, WorkloadProfile};
pub use scenario::{AutoscaleScenario, FleetScenario, ScenarioSpec, TenantScenario};
pub use sweep::{CellMetrics, CellOutcome, SupervisorPolicy, SweepCell, SweepSpec};

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::analysis::{Bottleneck, BottleneckReport};
    pub use crate::deployment::{Deployment, DeploymentError, Tenant, TenantMetrics};
    pub use crate::platform::Platform;
    pub use crate::profiler::{DualPhaseProfiler, WorkloadProfile};
    pub use crate::report::Table;
    pub use crate::sweep::{CellMetrics, CellOutcome, SupervisorPolicy, SweepCell, SweepSpec};
    pub use jetsim_des::{SimDuration, SimTime};
    pub use jetsim_dnn::{zoo, ModelGraph, Precision};
    pub use jetsim_profile::{JetsonStatsReport, NsightReport};
    pub use jetsim_sim::{ProfilerMode, RunTrace, SimConfig, Simulation};
}
