//! The lightweight phase-1 report: `trtexec` + `jetson-stats`.

use std::fmt;

use jetsim_sim::RunTrace;

use crate::stats::Summary;

/// The SoC/GPU-level view of a run, as the paper's phase-1 tooling
/// (`trtexec` for throughput, `jetson-stats` for power/memory/utilisation)
/// would report it.
///
/// # Examples
///
/// ```
/// use jetsim_des::SimDuration;
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_profile::JetsonStatsReport;
/// use jetsim_sim::{ProcessConfig, SimConfig, Simulation};
/// use jetsim_trt::EngineBuilder;
///
/// let orin = presets::orin_nano();
/// let engine = EngineBuilder::new(&orin).precision(Precision::Fp16).build(&zoo::resnet50())?;
/// let config = SimConfig::builder(orin)
///     .add_process(ProcessConfig::new("p0", engine.into(), 0))
///     .warmup(SimDuration::from_millis(200))
///     .measure(SimDuration::from_millis(800))
///     .build()?;
/// let report = JetsonStatsReport::from_trace(&Simulation::new(config)?.run());
/// // Paper §1: ResNet50 fp16 shows >98% GPU utilisation yet <3% memory.
/// assert!(report.gpu_utilization_percent > 90.0);
/// assert!(report.gpu_memory_percent < 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JetsonStatsReport {
    /// Aggregate throughput, images/s (`trtexec`).
    pub throughput: f64,
    /// Mean per-process throughput, the paper's `T/P` metric.
    pub throughput_per_process: f64,
    /// Mean module power over the measured window, W.
    pub mean_power_w: f64,
    /// Peak sampled power, W.
    pub peak_power_w: f64,
    /// Energy per image, J.
    pub power_per_image: f64,
    /// GPU busy percentage over the measured window.
    pub gpu_utilization_percent: f64,
    /// GPU memory allocation as a percentage of board RAM.
    pub gpu_memory_percent: f64,
    /// GPU frequency at the end of the run, MHz (DVFS outcome).
    pub final_gpu_freq_mhz: u32,
    /// Summary of the sampled power trace.
    pub power_summary: Option<Summary>,
    /// Number of samples behind the report.
    pub samples: usize,
}

impl JetsonStatsReport {
    /// Derives the phase-1 report from a simulation trace.
    pub fn from_trace(trace: &RunTrace) -> Self {
        let watts: Vec<f64> = trace.power_samples.iter().map(|s| s.watts).collect();
        let peak = watts.iter().copied().fold(0.0, f64::max);
        JetsonStatsReport {
            throughput: trace.total_throughput(),
            throughput_per_process: trace.throughput_per_process(),
            mean_power_w: trace.mean_power(),
            peak_power_w: peak,
            power_per_image: trace.power_per_image(),
            gpu_utilization_percent: trace.gpu_utilization() * 100.0,
            gpu_memory_percent: trace.gpu_memory_percent,
            final_gpu_freq_mhz: trace.final_freq_mhz,
            power_summary: Summary::from_values(watts),
            samples: trace.power_samples.len(),
        }
    }
}

impl fmt::Display for JetsonStatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} img/s (T/P {:.1}), {:.2} W mean ({:.2} W peak), GPU {:.0}% busy, \
             mem {:.1}%, {} MHz",
            self.throughput,
            self.throughput_per_process,
            self.mean_power_w,
            self.peak_power_w,
            self.gpu_utilization_percent,
            self.gpu_memory_percent,
            self.final_gpu_freq_mhz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::orin_processes;
    use jetsim_des::SimDuration;
    use jetsim_dnn::{zoo, Precision};
    use jetsim_sim::Simulation;

    fn report(procs: u32) -> JetsonStatsReport {
        let config = orin_processes(&zoo::resnet50(), Precision::Int8, procs)
            .warmup(SimDuration::from_millis(200))
            .measure(SimDuration::from_millis(800))
            .build()
            .unwrap();
        JetsonStatsReport::from_trace(&Simulation::new(config).unwrap().run())
    }

    #[test]
    fn report_fields_are_consistent() {
        let r = report(2);
        assert!(r.throughput > 0.0);
        assert!((r.throughput_per_process - r.throughput / 2.0).abs() < 1e-9);
        assert!(r.peak_power_w >= r.mean_power_w);
        assert!(r.power_per_image > 0.0);
        assert!(r.samples >= 3);
        assert!(r.power_summary.is_some());
    }

    #[test]
    fn utilization_in_percent_range() {
        let r = report(1);
        assert!((0.0..=100.0).contains(&r.gpu_utilization_percent));
        assert!(r.gpu_utilization_percent > 80.0, "single busy process");
    }

    #[test]
    fn display_mentions_throughput_and_power() {
        let text = format!("{}", report(1));
        assert!(text.contains("img/s") && text.contains('W'));
    }
}
