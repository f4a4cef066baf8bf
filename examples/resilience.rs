//! Resilience: the paper's §6.2.1 reboot as a *simulated outcome*.
//!
//! Deploying 4 × FCN_ResNet50 on the Jetson Nano exhausts unified
//! memory; on the real board the deployment thrashes, the watchdog
//! fires, and the device reboots mid-experiment. The simulator's
//! default (`OomPolicy::Strict`) refuses such deployments up front,
//! which is the right behaviour for paper-faithful figures — but it
//! erases the failure mode itself.
//!
//! This example runs the same deployment three ways:
//!
//! 1. **Strict admission** — the run is rejected exactly where the
//!    paper's board rebooted;
//! 2. **OOM-killer semantics** — the overcommit is admitted and the
//!    kernel's OOM killer culls the largest process until the rest fit,
//!    so the experiment degrades instead of dying;
//! 3. **A supervised sweep** — the sweep runner retries the OOM cell at
//!    degraded parameters and records the degradation chain.
//!
//! ```sh
//! cargo run --release --example resilience
//! ```

use jetsim::{CellOutcome, SupervisorPolicy, SweepSpec};
use jetsim_lab::prelude::*;
use jetsim_sim::{ArrivalModel, FaultKind, FaultPlan, SimError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::jetson_nano();
    let model = zoo::fcn_resnet50();
    println!(
        "deployment: 4 x {} (fp16) on {}\n",
        model.name(),
        platform.name()
    );

    // --- 1. Strict admission: the paper-faithful refusal. -------------
    let deployment = Deployment::homogeneous(&model, Precision::Fp16, 1, 4)
        .config_builder(&platform, ArrivalModel::Saturated)?
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_secs(4));
    let strict = deployment.clone().build();
    match strict {
        Err(e @ SimError::OutOfMemory { .. }) => {
            println!("[strict]  rejected: {e}");
            println!("[strict]  (the paper's board rebooted here — §6.2.1)\n");
        }
        Err(e) => return Err(e.into()),
        Ok(_) => println!("[strict]  unexpectedly admitted?!\n"),
    }

    // --- 2. OOM-killer semantics: the failure mode, simulated. --------
    let config = deployment
        .faults(FaultPlan::kill_largest_on_oom())
        .build()?;
    let trace = Simulation::new(config)?.run();
    for event in &trace.fault_events {
        if let FaultKind::ProcessKilled {
            pid,
            name,
            freed_bytes,
        } = &event.kind
        {
            println!(
                "[killer]  t={:.1} ms: OOM killer sacrifices {name} (pid {pid}), freeing {:.0} MiB",
                event.time.as_micros_f64() / 1e3,
                *freed_bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }
    println!(
        "[killer]  {} of {} processes killed; survivors deliver {:.2} img/s\n",
        trace.killed_processes(),
        trace.processes.len(),
        trace.surviving_throughput()
    );

    // --- 3. Supervised sweep: retry-with-degradation. -----------------
    let spec = SweepSpec::new()
        .precisions([Precision::Fp16])
        .batches([1])
        .process_counts([1, 2, 4])
        .warmup(SimDuration::from_millis(300))
        // FCN ECs take ~2 s under 3-way sharing on the Nano; give the
        // degraded survivors a window long enough to finish a few.
        .measure(SimDuration::from_secs(8));
    let policy = SupervisorPolicy::new().max_retries(3);
    for cell in spec.run_supervised(&platform, &model, &policy) {
        match &cell.outcome {
            CellOutcome::Degraded {
                attempts,
                final_processes,
                metrics,
                ..
            } => println!(
                "[sweep]   p{} degraded -> p{} ({}), {:.2} img/s",
                cell.processes,
                final_processes,
                attempts.join("; "),
                metrics.throughput
            ),
            _ => println!("[sweep]   {cell}"),
        }
    }
    Ok(())
}
