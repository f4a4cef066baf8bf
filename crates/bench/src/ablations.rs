//! Ablation studies: turn one mechanism off at a time and measure what
//! it was buying (or costing).
//!
//! These go beyond the paper's figures but directly probe the design
//! choices its analysis hinges on: the DVFS governor, TensorRT layer
//! fusion, the missing MPS, and the GPU timeslice.

use std::sync::Arc;

use jetsim::prelude::*;
use jetsim::report::Table;
use jetsim_des::SimDuration;
use jetsim_sim::{ArrivalModel, CpuModel, GpuPolicy};
use jetsim_trt::EngineBuilder;

use crate::FigureResult;

fn windows() -> (SimDuration, SimDuration) {
    if std::env::var_os("JETSIM_FAST").is_some() {
        (SimDuration::from_millis(100), SimDuration::from_millis(400))
    } else {
        (
            SimDuration::from_millis(300),
            SimDuration::from_millis(1500),
        )
    }
}

fn run_config(config: SimConfig) -> RunTrace {
    Simulation::new(config).expect("valid config").run()
}

/// DVFS on vs off: without the governor, fp32 workloads blow through the
/// module power budget; with it, they trade clocks for compliance
/// (paper §6.1.2).
pub fn ablation_dvfs() -> FigureResult {
    let (warmup, measure) = windows();
    let mut table = Table::new([
        "model",
        "precision",
        "dvfs",
        "throughput",
        "power_w",
        "freq_mhz",
        "over_budget",
    ]);
    for (model, precision) in [
        (zoo::resnet50(), Precision::Fp32),
        (zoo::fcn_resnet50(), Precision::Fp32),
        (zoo::fcn_resnet50(), Precision::Fp16),
    ] {
        for enabled in [true, false] {
            let mut device = Platform::orin_nano().device().clone();
            device.dvfs.enabled = enabled;
            let budget = device.power.budget_w;
            let config = Deployment::homogeneous(&model, precision, 4, 1)
                .config_builder(&Platform::from_spec(device), ArrivalModel::Saturated)
                .expect("builds")
                .warmup(warmup)
                .measure(measure)
                .build()
                .expect("fits");
            let trace = run_config(config);
            table.row([
                model.name().to_string(),
                precision.to_string(),
                if enabled { "on" } else { "off" }.to_string(),
                format!("{:.1}", trace.total_throughput()),
                format!("{:.2}", trace.mean_power()),
                trace.final_freq_mhz.to_string(),
                if trace.mean_power() > budget {
                    "YES"
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
    }
    FigureResult {
        id: "ablation_dvfs",
        title: "DVFS governor on/off (Jetson Orin Nano)",
        tables: vec![("dvfs".to_string(), table)],
    }
}

/// Layer fusion on vs off: unfused engines triple the kernel count and
/// go launch-bound at small batches — quantifying why TensorRT fuses.
pub fn ablation_fusion() -> FigureResult {
    let (warmup, measure) = windows();
    let platform = Platform::orin_nano();
    let mut table = Table::new([
        "model",
        "fusion",
        "kernels",
        "throughput_b1",
        "throughput_b8",
    ]);
    for model in zoo::all().into_iter().map(Arc::new) {
        for fused in [true, false] {
            let mut row = vec![
                model.name().to_string(),
                if fused { "on" } else { "off" }.to_string(),
            ];
            let mut kernels = 0;
            let mut tputs = Vec::new();
            for batch in [1u32, 8] {
                let engine = Arc::new(
                    EngineBuilder::new(platform.device())
                        .precision(Precision::Int8)
                        .batch(batch)
                        .fusion(fused)
                        .build(&model)
                        .expect("builds"),
                );
                kernels = engine.kernel_count();
                let tenant = Tenant::new(Arc::clone(&model), Precision::Int8, batch);
                let builder = SimConfig::builder(platform.device().clone());
                let config = tenant
                    .add_processes(builder, &engine, ArrivalModel::Saturated)
                    .warmup(warmup)
                    .measure(measure)
                    .build()
                    .expect("fits");
                tputs.push(format!("{:.1}", run_config(config).total_throughput()));
            }
            row.push(kernels.to_string());
            row.extend(tputs);
            table.row(row);
        }
    }
    FigureResult {
        id: "ablation_fusion",
        title: "TensorRT-style layer fusion on/off (Orin Nano, int8)",
        tables: vec![("fusion".to_string(), table)],
    }
}

/// Time multiplexing vs hypothetical MPS: what Jetson loses by lacking
/// spatial sharing (paper §2).
pub fn ablation_mps() -> FigureResult {
    let (warmup, measure) = windows();
    let platform = Platform::orin_nano();
    let mut table = Table::new([
        "model",
        "processes",
        "sharing",
        "throughput_total",
        "throughput_per_process",
    ]);
    for model in [zoo::resnet50(), zoo::yolov8n()] {
        for procs in [2u32, 4, 8] {
            for (label, policy) in [
                ("time-mux", GpuPolicy::TimesliceRR),
                (
                    "mps",
                    GpuPolicy::SpatialMps {
                        overlap_efficiency: 0.3,
                    },
                ),
            ] {
                let config = Deployment::homogeneous(&model, Precision::Int8, 1, procs)
                    .config_builder(&platform, ArrivalModel::Saturated)
                    .expect("builds")
                    .gpu_policy(policy)
                    .warmup(warmup)
                    .measure(measure)
                    .build()
                    .expect("fits");
                let trace = run_config(config);
                table.row([
                    model.name().to_string(),
                    procs.to_string(),
                    label.to_string(),
                    format!("{:.1}", trace.total_throughput()),
                    format!("{:.1}", trace.throughput_per_process()),
                ]);
            }
        }
    }
    FigureResult {
        id: "ablation_mps",
        title: "Kernel time multiplexing vs hypothetical MPS (Orin Nano, int8)",
        tables: vec![("mps".to_string(), table)],
    }
}

/// GPU timeslice sweep: longer slices amortise context switches but
/// starve other processes' latency.
pub fn ablation_timeslice() -> FigureResult {
    let (warmup, measure) = windows();
    let mut table = Table::new(["timeslice_ms", "throughput_total", "p95_ec_ms", "p99_ec_ms"]);
    for slice_ms in [1u64, 2, 4, 8, 16] {
        let mut device = Platform::orin_nano().device().clone();
        device.gpu.timeslice = SimDuration::from_millis(slice_ms);
        let config = Deployment::homogeneous(&zoo::resnet50(), Precision::Int8, 1, 2)
            .config_builder(&Platform::from_spec(device), ArrivalModel::Saturated)
            .expect("builds")
            .warmup(warmup)
            .measure(measure)
            .build()
            .expect("fits");
        let trace = run_config(config);
        let p95 = trace.processes[0].p95_ec_time.as_millis_f64();
        let p99 = trace.processes[0].p99_ec_time.as_millis_f64();
        table.row([
            slice_ms.to_string(),
            format!("{:.1}", trace.total_throughput()),
            format!("{p95:.2}"),
            format!("{p99:.2}"),
        ]);
    }
    FigureResult {
        id: "ablation_timeslice",
        title: "GPU timeslice sweep (2 × ResNet50 int8, Orin Nano)",
        tables: vec![("timeslice".to_string(), table)],
    }
}

/// Stochastic vs explicit run-queue CPU contention: the calibrated model
/// against the mechanistic one (spin-wait + quantum time-sharing). Both
/// must show the §7 collapse past the heavy cores.
pub fn ablation_cpu_model() -> FigureResult {
    let (warmup, measure) = windows();
    let platform = Platform::orin_nano();
    let mut table = Table::new([
        "processes",
        "cpu_model",
        "throughput_per_process",
        "ec_ms",
        "blocking_ms",
    ]);
    for procs in [1u32, 2, 4, 8] {
        for (label, model) in [
            ("stochastic", CpuModel::Stochastic),
            ("run-queue", CpuModel::RunQueue),
        ] {
            let config = Deployment::homogeneous(&zoo::resnet50(), Precision::Int8, 1, procs)
                .config_builder(&platform, ArrivalModel::Saturated)
                .expect("builds")
                .cpu_model(model)
                .warmup(warmup)
                .measure(measure)
                .build()
                .expect("fits");
            let trace = run_config(config);
            table.row([
                procs.to_string(),
                label.to_string(),
                format!("{:.1}", trace.throughput_per_process()),
                format!("{:.2}", trace.mean_ec_time().as_millis_f64()),
                format!(
                    "{:.2}",
                    trace.processes[0].mean_blocking_time.as_millis_f64()
                ),
            ]);
        }
    }
    FigureResult {
        id: "ablation_cpu_model",
        title: "Calibrated stochastic vs explicit run-queue CPU contention (ResNet50 int8, Orin)",
        tables: vec![("cpu_model".to_string(), table)],
    }
}

/// Every ablation harness with its CLI name — the `repro` binary's
/// ablation registry (figures have their own in
/// [`crate::figures::registry`]).
pub fn registry() -> Vec<(&'static str, crate::Harness)> {
    vec![
        ("ablation_dvfs", ablation_dvfs as fn() -> FigureResult),
        ("ablation_fusion", ablation_fusion),
        ("ablation_mps", ablation_mps),
        ("ablation_timeslice", ablation_timeslice),
        ("ablation_cpu_model", ablation_cpu_model),
    ]
}

/// All ablations.
pub fn all() -> Vec<FigureResult> {
    registry()
        .into_iter()
        .map(|(_, harness)| harness())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_off_overshoots_budget() {
        std::env::set_var("JETSIM_FAST", "1");
        let fig = ablation_dvfs();
        let md = fig.tables[0].1.to_markdown();
        assert!(
            md.contains("YES"),
            "some dvfs-off row must exceed budget:\n{md}"
        );
        // Every dvfs-on row complies.
        for line in md.lines().filter(|l| l.contains("| on |")) {
            assert!(line.contains("| no |"), "{line}");
        }
    }

    #[test]
    fn mps_rows_present_for_both_disciplines() {
        std::env::set_var("JETSIM_FAST", "1");
        let fig = ablation_mps();
        let md = fig.tables[0].1.to_markdown();
        assert!(md.contains("time-mux") && md.contains("mps"));
    }
}
