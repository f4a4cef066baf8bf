//! Profiling-toolchain models for the `jetsim` simulator.
//!
//! The paper's methodology (§4) is dual-phase:
//!
//! 1. a **lightweight phase** pairing `trtexec` throughput counters with
//!    the `jetson-stats` sampler — modelled by [`JetsonStatsReport`];
//! 2. an **Nsight Systems phase** collecting kernel-level traces at the
//!    cost of ~50 % throughput — modelled by [`NsightReport`], which turns
//!    a [`jetsim_sim::RunTrace`]'s kernel events into the duration-weighted
//!    utilisation CDFs plotted in the paper's figures 5 and 10.
//!
//! The crate also carries the paper's Table 2 as an executable metric
//! registry ([`metrics::registry`]) and the statistics toolbox
//! ([`Cdf`], [`Summary`]) everything is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
pub mod jetson_stats;
pub mod metrics;
pub mod nsight;
pub mod stats;

pub use jetson_stats::JetsonStatsReport;
pub use metrics::{MetricDef, MetricLevel};
pub use nsight::{NsightReport, UtilizationCdfs};
pub use stats::{Cdf, Summary};

/// Config helpers shared by the crate's unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Arc;

    use jetsim_device::presets;
    use jetsim_dnn::{ModelGraph, Precision};
    use jetsim_sim::{ProcessConfig, SimConfig, SimConfigBuilder};
    use jetsim_trt::EngineBuilder;

    /// An Orin Nano builder with `count` saturated batch-1 processes
    /// `p{pid}` of `model`, each in its own memory group.
    pub(crate) fn orin_processes(
        model: &ModelGraph,
        precision: Precision,
        count: u32,
    ) -> SimConfigBuilder {
        let device = presets::orin_nano();
        let engine = Arc::new(
            EngineBuilder::new(&device)
                .precision(precision)
                .build(model)
                .unwrap(),
        );
        (0..count as usize).fold(SimConfig::builder(device), |builder, pid| {
            builder.add_process(ProcessConfig::new(
                format!("p{pid}"),
                Arc::clone(&engine),
                pid,
            ))
        })
    }
}
