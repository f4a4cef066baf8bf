//! Thermal soak study: a ten-minute FCN_ResNet50 fp32 deployment in a
//! hot enclosure (60 °C ambient).
//!
//! The paper's short sweeps only ever hit the *power* limit; sustained
//! deployments also hit the *thermal* one. With the module's ~3-minute
//! thermal time constant, the junction creeps toward the 95 °C ceiling
//! and the governor starts throttling for temperature even though power
//! is within budget.
use jetsim::prelude::*;
use jetsim_sim::ArrivalModel;

fn main() {
    let mut device = Platform::orin_nano().device().clone();
    device.thermal.ambient_c = 60.0;
    let config = Deployment::homogeneous(&zoo::fcn_resnet50(), Precision::Fp32, 4, 1)
        .config_builder(&Platform::from_spec(device), ArrivalModel::Saturated)
        .expect("engine builds")
        .warmup(SimDuration::from_secs(2))
        .measure(SimDuration::from_secs(600))
        .sample_period(SimDuration::from_secs(20))
        .record_kernel_events(false)
        .build()
        .expect("fits");
    let trace = Simulation::new(config).expect("valid").run();

    println!("thermal soak — FCN_ResNet50 fp32, 60 °C enclosure, 10 min\n");
    println!("|  t (s) | temp °C | power W | freq MHz | GPU % |");
    println!("|---|---|---|---|---|");
    for s in trace.power_samples.iter().step_by(2) {
        println!(
            "| {:6.0} | {:7.1} | {:7.2} | {:8} | {:5.1} |",
            s.time.as_secs_f64(),
            s.temp_c,
            s.watts,
            s.gpu_freq_mhz,
            s.gpu_utilization * 100.0
        );
    }
    let peak = trace
        .power_samples
        .iter()
        .map(|s| s.temp_c)
        .fold(0.0, f64::max);
    let throttled = trace.power_samples.iter().any(|s| s.gpu_freq_mhz < 510);
    println!(
        "\npeak junction {peak:.1} °C; deep thermal throttle engaged: {throttled}; \
         sustained throughput {:.1} img/s",
        trace.total_throughput()
    );
}
