//! Replays a run's jetson-stats samples as a jtop-style table, plus the
//! Nsight hot-kernel ranking — the two screens the paper's methodology
//! lives in.
use jetsim::prelude::*;
use jetsim_profile::NsightReport;
use jetsim_sim::ArrivalModel;

fn main() {
    let config = Deployment::new()
        .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 4))
        .tenant(Tenant::new(zoo::yolov8n(), Precision::Int8, 1))
        .config_builder(&Platform::orin_nano(), ArrivalModel::Saturated)
        .expect("engines build")
        .warmup(SimDuration::from_millis(400))
        .measure(SimDuration::from_secs(3))
        .sample_period(SimDuration::from_millis(250))
        .build()
        .expect("fits");
    let trace = Simulation::new(config).expect("valid").run();

    println!(
        "jtop replay — {} ({} processes)\n",
        trace.device_name,
        trace.processes.len()
    );
    println!("|   t(s) | GPU % | freq MHz | power W | CPU cores busy | mem % |");
    println!("|---|---|---|---|---|---|");
    for s in &trace.power_samples {
        println!(
            "| {:6.2} | {:5.1} | {:8} | {:7.2} | {:14.2} | {:5.1} |",
            s.time.as_secs_f64(),
            s.gpu_utilization * 100.0,
            s.gpu_freq_mhz,
            s.watts,
            s.cpu_busy_cores,
            trace.gpu_memory_percent,
        );
    }

    println!("\nhot kernels (by cumulative GPU time):");
    println!("| pid | kernel | runs | total ms | mean us | share |");
    println!("|---|---|---|---|---|---|");
    for k in NsightReport::hot_kernels(&trace, 10) {
        println!(
            "| p{} | {} | {} | {:8.2} | {:7.1} | {:4.1}% |",
            k.pid,
            k.name,
            k.count,
            k.total_us / 1000.0,
            k.mean_us,
            k.share * 100.0
        );
    }
}
