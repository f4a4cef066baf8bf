//! Discrete-event simulation of concurrent TensorRT inference on Jetson.
//!
//! This crate binds the substrates together into an executable model of
//! the paper's measurement platform:
//!
//! * a **CPU side** where each inference process's host thread launches
//!   kernels (`cudaLaunchKernel` costs), blocks on synchronisation, and —
//!   once the heavy big.LITTLE cores are oversubscribed — suffers the
//!   preemption, 1–2 ms blocking intervals and cache-thrash the paper
//!   dissects in §7;
//! * a **GPU side** that time-multiplexes kernel queues across processes
//!   at kernel granularity (Jetson has no MPS), with launch-rate limits,
//!   context-switch costs and a timeslice;
//! * a **DVFS governor** that defends the module power budget by walking
//!   the GPU frequency ladder (§6.1.2's non-linear power behaviour);
//! * a **unified-memory arbiter** that refuses over-deployments exactly
//!   where the real boards run out of RAM and reboot (§6.2.1).
//!
//! The output is a [`RunTrace`]: per-process throughput and EC breakdowns,
//! per-kernel utilisation events, and periodic power/frequency samples,
//! which `jetsim-profile` turns into the paper's metrics.
//!
//! # Examples
//!
//! ```
//! use jetsim_des::SimDuration;
//! use jetsim_device::presets;
//! use jetsim_dnn::{zoo, Precision};
//! use jetsim_sim::{ProcessConfig, SimConfig, Simulation};
//! use jetsim_trt::EngineBuilder;
//!
//! let device = presets::orin_nano();
//! let engine = EngineBuilder::new(&device).precision(Precision::Int8).build(&zoo::resnet50())?;
//! let config = SimConfig::builder(device)
//!     .add_process(ProcessConfig::new("p0", engine.into(), 0))
//!     .warmup(SimDuration::from_millis(200))
//!     .measure(SimDuration::from_millis(800))
//!     .build()?;
//! let trace = Simulation::new(config)?.run();
//! assert!(trace.total_throughput() > 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod components;
pub mod config;
pub mod error;
pub mod faults;
pub mod serving;
pub mod simulation;
pub mod trace;

pub use config::{
    ArrivalModel, CpuModel, GpuPolicy, ProcessConfig, ProfilerMode, SimConfig, SimConfigBuilder,
    DEFAULT_SEED,
};
pub use error::SimError;
pub use faults::{FaultEvent, FaultKind, FaultPlan, MemorySpike, OomPolicy, ThrottleLock};
pub use serving::{
    AdmissionPolicy, AutoscalerPolicy, BatchDecision, BatcherPolicy, BreakerMode, BreakerPolicy,
    DropKind, DropRecord, HedgePolicy, RecoveryPolicy, ReplicaHealth, RequestRecord, RetryPolicy,
    ScaleDecision, ScaleSignals, ServeEvent, ServeEventKind, ServeGroup, ServePlan,
};
pub use simulation::Simulation;
pub use trace::{EcRecord, KernelEvent, KernelPreempted, PowerSample, ProcessStats, RunTrace};
