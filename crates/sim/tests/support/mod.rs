//! Config helpers shared by the simulator's integration tests.

use std::sync::Arc;

use jetsim_device::DeviceSpec;
use jetsim_dnn::{ModelGraph, Precision};
use jetsim_sim::{ProcessConfig, SimConfig, SimConfigBuilder};
use jetsim_trt::EngineBuilder;

/// A builder for `device` with `count` saturated processes `p{pid}`
/// running one engine for `model`, each in its own memory group, as
/// separate `trtexec` instances run.
pub fn processes(
    device: DeviceSpec,
    model: &ModelGraph,
    precision: Precision,
    batch: u32,
    count: u32,
) -> SimConfigBuilder {
    let engine = Arc::new(
        EngineBuilder::new(&device)
            .precision(precision)
            .batch(batch)
            .build(model)
            .expect("engine builds"),
    );
    (0..count as usize).fold(SimConfig::builder(device), |builder, pid| {
        builder.add_process(ProcessConfig::new(
            format!("p{pid}"),
            Arc::clone(&engine),
            pid,
        ))
    })
}
