//! Open-loop camera pipeline: latency under offered load instead of
//! saturated throughput.
//!
//! The paper's `trtexec` methodology measures the throughput *ceiling*
//! (a new batch the instant the previous one finishes). Deployed edge
//! systems are open-loop: a camera delivers frames at a fixed rate, and
//! what matters is the end-to-end latency distribution — especially once
//! the offered rate approaches the ceiling the paper's figures predict.
//!
//! This example sweeps a 0–120 fps camera against YoloV8n int8 on the
//! Orin Nano alongside a competing FCN segmentation tenant, showing the
//! classic hockey-stick: flat latency far from saturation, exploding
//! queueing delay beyond it.
//!
//! ```sh
//! cargo run --release --example camera_pipeline
//! ```

use jetsim_lab::jetsim_sim::ArrivalModel;
use jetsim_lab::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::orin_nano();
    let detector = Tenant::new(zoo::yolov8n(), Precision::Int8, 1);
    let segmenter = Tenant::new(zoo::fcn_resnet50(), Precision::Fp16, 1);
    let (detector_engine, segmenter_engine) = (
        detector.build_engine(&platform)?,
        segmenter.build_engine(&platform)?,
    );

    println!("camera → YoloV8n int8 b1, sharing the GPU with one FCN fp16 tenant\n");
    println!("| camera fps | served img/s | EC p50 | EC p99 | queue delay (mean) | GPU busy |");
    println!("|---|---|---|---|---|---|");
    for fps in [15.0, 30.0, 60.0, 90.0, 120.0] {
        let camera = ArrivalModel::Periodic { fps };
        let builder = SimConfig::builder(platform.device().clone());
        let builder = detector.add_processes(builder, &detector_engine, camera);
        let config = segmenter
            .add_processes(builder, &segmenter_engine, ArrivalModel::Saturated)
            .warmup(SimDuration::from_millis(400))
            .measure(SimDuration::from_secs(3))
            .build()?;
        let trace = Simulation::new(config)?.run();
        let cam = &trace.processes[0];
        println!(
            "| {fps:.0} | {:.1} | {} | {} | {} | {:.0}% |",
            cam.throughput,
            cam.p50_ec_time,
            cam.p99_ec_time,
            cam.mean_queue_delay,
            trace.gpu_utilization() * 100.0,
        );
    }
    println!(
        "\nonce the offered rate exceeds what the shared GPU can serve, queueing \
         delay dominates — size deployments from the paper-style sweeps *before* \
         pointing cameras at them."
    );
    Ok(())
}
