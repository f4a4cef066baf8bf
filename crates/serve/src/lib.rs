//! `jetsim-serve` — request-level online serving on top of the jetsim
//! discrete-event simulator.
//!
//! The paper (and the rest of this workspace) measures *closed-loop*
//! concurrency: N `trtexec` processes each re-enqueueing the moment the
//! previous batch returns, which yields the throughput ceiling. A
//! production deployment is the opposite shape — an **open** stream of
//! requests arrives on its own clock, queues behind admission control,
//! gets coalesced into batches, and is judged by tail latency against an
//! SLO, not by peak images/s. This crate turns the existing simulator
//! into that serving system:
//!
//! * [`ServeSpec`] — a platform plus tenants
//!   ([`ServeTenant`]: model × precision × batch × instance count, an
//!   arrival process, a batching deadline and an admission policy),
//!   compiled onto the DES via [`jetsim_sim::serving::ServePlan`];
//! * [`ServeReport`] — per-tenant request accounting: offered/served/
//!   dropped, p50/p95/p99 latency, goodput (SLO-attained throughput),
//!   SLO attainment, batch-formation statistics;
//! * [`find_max_qps`] — a bracketing capacity search for the highest
//!   offered load a deployment sustains at a target SLO attainment;
//! * the `jetsim-serve` CLI binary.
//!
//! Everything is deterministic: the same spec and seed replays the exact
//! request timeline bit for bit, so two policies can be compared against
//! identical traffic.
//!
//! # Examples
//!
//! ```
//! use jetsim::prelude::*;
//! use jetsim_des::ArrivalProcess;
//! use jetsim_serve::{ServeSpec, ServeTenant};
//!
//! let report = ServeSpec::new(Platform::orin_nano())
//!     .tenant(ServeTenant::parse(
//!         "resnet50:int8:1:2",
//!         ArrivalProcess::poisson(200.0),
//!     )?)
//!     .slo(SimDuration::from_millis(50))
//!     .duration(SimDuration::from_millis(800))
//!     .warmup(SimDuration::from_millis(200))
//!     .run()?;
//! let g = &report.groups[0];
//! assert!(g.served > 0 && g.p99_ms > 0.0);
//! assert!(g.goodput_qps <= g.served_qps + 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod metrics;
pub mod resilience;
pub mod scenario;
pub mod spec;
pub mod telemetry;

pub use capacity::{find_max_qps, CapacityEstimate, CapacityProbe};
pub use metrics::{GroupReport, ServeReport};
pub use resilience::{chaos_sweep_with_plan, ChaosCell, ResiliencePolicies, ResilienceReport};
pub use scenario::{build_autoscale, build_serve_spec};
pub use spec::{AutoscaleSpec, RestartCost, ServeError, ServeSpec, ServeTenant};
pub use telemetry::{estimate_capacity, GroupCapacity};

// Re-export the serving vocabulary so downstream users need only this
// crate for online-serving experiments.
pub use jetsim_des::{ArrivalProcess, ArrivalStream};
pub use jetsim_sim::serving::{
    AdmissionPolicy, AutoscalerPolicy, BatchDecision, BatcherPolicy, BreakerMode, BreakerPolicy,
    DropKind, HedgePolicy, RecoveryPolicy, ReplicaHealth, RequestRecord, RetryPolicy,
    ScaleDecision, ScaleSignals, ServeEvent, ServeEventKind,
};
pub use jetsim_sim::{FaultPlan, OomPolicy};

// The declarative scenario document lives in the core crate (so the
// closed-loop `jetsim-trtexec` CLI can read the same files); re-export
// it here as the serving-facing entry point.
pub use jetsim::scenario::{AutoscaleScenario, FleetScenario, ScenarioSpec, TenantScenario};
