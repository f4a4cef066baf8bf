//! The phase-2 report: Nsight-Systems-style kernel-level analysis.

use std::fmt;

use jetsim_des::SimDuration;
use jetsim_sim::RunTrace;

use crate::stats::{Cdf, Summary};

/// Duration-weighted utilisation CDFs over a run — the quantities plotted
/// in the paper's figures 5 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationCdfs {
    /// SM-active utilisation (fraction of SMs with ≥1 resident warp).
    pub sm_active: Cdf,
    /// Issue-slot utilisation (fraction of cycles issuing).
    pub issue_slot: Cdf,
    /// Tensor-core activity.
    pub tc: Cdf,
}

/// The kernel-level view of a run, as an Nsight-Systems trace would
/// yield after post-processing.
///
/// Collecting this on real hardware costs ~50 % throughput (paper §4);
/// reproduce that by running the simulation with
/// [`jetsim_sim::ProfilerMode::Nsight`].
///
/// # Examples
///
/// ```
/// use jetsim_des::SimDuration;
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_profile::NsightReport;
/// use jetsim_sim::{ProcessConfig, ProfilerMode, SimConfig, Simulation};
/// use jetsim_trt::EngineBuilder;
///
/// let orin = presets::orin_nano();
/// let engine = EngineBuilder::new(&orin).precision(Precision::Fp16).build(&zoo::fcn_resnet50())?;
/// let config = SimConfig::builder(orin)
///     .add_process(ProcessConfig::new("p0", engine.into(), 0))
///     .profiler(ProfilerMode::Nsight)
///     .warmup(SimDuration::from_millis(200))
///     .measure(SimDuration::from_millis(1300))
///     .build()?;
/// let report = NsightReport::from_trace(&Simulation::new(config)?.run()).unwrap();
/// // Paper §6.1.4: FCN's dilated convolutions pin the tensor cores.
/// assert!(report.cdfs.tc.fraction_at_least(0.9) > 0.3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NsightReport {
    /// Duration-weighted utilisation CDFs.
    pub cdfs: UtilizationCdfs,
    /// Number of kernel executions traced.
    pub kernel_executions: usize,
    /// Summary of kernel durations, microseconds.
    pub kernel_duration_us: Summary,
    /// Mean per-EC kernel-launch CPU time across processes.
    pub mean_launch_time: SimDuration,
    /// Mean per-EC synchronisation wait across processes.
    pub mean_sync_time: SimDuration,
    /// Mean per-EC scheduler blocking across processes.
    pub mean_blocking_time: SimDuration,
    /// Mean EC wall duration across processes.
    pub mean_ec_time: SimDuration,
}

/// One entry of the hot-kernel ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct HotKernel {
    /// Owning process index.
    pub pid: usize,
    /// Kernel index within the engine.
    pub kernel_index: usize,
    /// Fused-kernel name (e.g. `layer1.0.1.conv+bn+relu`).
    pub name: String,
    /// Executions observed.
    pub count: u64,
    /// Total GPU time, microseconds.
    pub total_us: f64,
    /// Mean execution time, microseconds.
    pub mean_us: f64,
    /// Share of all traced GPU time (0–1).
    pub share: f64,
}

impl NsightReport {
    /// Ranks kernels by cumulative GPU time, the way one reads an Nsight
    /// summary to find optimisation targets. Returns at most `n` entries,
    /// hottest first.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetsim_des::SimDuration;
    /// use jetsim_device::presets;
    /// use jetsim_dnn::{zoo, Precision};
    /// use jetsim_profile::NsightReport;
    /// use jetsim_sim::{ProcessConfig, SimConfig, Simulation};
    /// use jetsim_trt::EngineBuilder;
    ///
    /// let orin = presets::orin_nano();
    /// let engine = EngineBuilder::new(&orin).precision(Precision::Fp16).build(&zoo::fcn_resnet50())?;
    /// let config = SimConfig::builder(orin)
    ///     .add_process(ProcessConfig::new("p0", engine.into(), 0))
    ///     .warmup(SimDuration::from_millis(100))
    ///     .measure(SimDuration::from_millis(600))
    ///     .build()?;
    /// let trace = Simulation::new(config)?.run();
    /// let hot = NsightReport::hot_kernels(&trace, 5);
    /// assert_eq!(hot.len(), 5);
    /// assert!(hot[0].total_us >= hot[1].total_us);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn hot_kernels(trace: &RunTrace, n: usize) -> Vec<HotKernel> {
        use std::collections::HashMap;
        let mut agg: HashMap<(usize, usize), (u64, f64)> = HashMap::new();
        let mut grand_total = 0.0;
        for e in &trace.kernel_events {
            let us = e.duration().as_micros_f64();
            grand_total += us;
            let entry = agg.entry((e.pid, e.kernel_index)).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += us;
        }
        let mut hot: Vec<HotKernel> = agg
            .into_iter()
            .map(|((pid, kernel_index), (count, total_us))| HotKernel {
                pid,
                kernel_index,
                name: trace
                    .kernel_names
                    .get(pid)
                    .and_then(|names| names.get(kernel_index))
                    .cloned()
                    .unwrap_or_else(|| format!("k{kernel_index}")),
                count,
                total_us,
                mean_us: total_us / count as f64,
                share: if grand_total > 0.0 {
                    total_us / grand_total
                } else {
                    0.0
                },
            })
            .collect();
        hot.sort_by(|a, b| b.total_us.partial_cmp(&a.total_us).expect("finite"));
        hot.truncate(n);
        hot
    }

    /// Post-processes a trace into the kernel-level report.
    ///
    /// Returns `None` when the trace contains no kernel events (e.g. a
    /// zero-length measurement window).
    pub fn from_trace(trace: &RunTrace) -> Option<Self> {
        if trace.kernel_events.is_empty() {
            return None;
        }
        let weighted = |f: fn(&jetsim_sim::KernelEvent) -> f64| {
            Cdf::from_weighted(
                trace
                    .kernel_events
                    .iter()
                    .map(|e| (f(e), e.duration().as_secs_f64())),
            )
            .expect("non-empty events")
        };
        let cdfs = UtilizationCdfs {
            sm_active: weighted(|e| e.sm_active),
            issue_slot: weighted(|e| e.issue_slot),
            tc: weighted(|e| e.tc_activity),
        };
        let kernel_duration_us = Summary::from_values(
            trace
                .kernel_events
                .iter()
                .map(|e| e.duration().as_micros_f64()),
        )
        .expect("non-empty events");
        let mean_over = |f: fn(&jetsim_sim::ProcessStats) -> SimDuration| {
            let active: Vec<SimDuration> = trace
                .processes
                .iter()
                .filter(|p| p.completed_ecs > 0)
                .map(f)
                .collect();
            if active.is_empty() {
                SimDuration::ZERO
            } else {
                active.iter().copied().sum::<SimDuration>() / active.len() as u64
            }
        };
        Some(NsightReport {
            cdfs,
            kernel_executions: trace.kernel_events.len(),
            kernel_duration_us,
            mean_launch_time: mean_over(|p| p.mean_launch_time),
            mean_sync_time: mean_over(|p| p.mean_sync_time),
            mean_blocking_time: mean_over(|p| p.mean_blocking_time),
            mean_ec_time: mean_over(|p| p.mean_ec_time),
        })
    }
}

impl fmt::Display for NsightReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernels, SM {:.0}% / issue {:.0}% / TC {:.0}% (means), EC {} \
             (launch {}, sync {}, blocking {})",
            self.kernel_executions,
            self.cdfs.sm_active.mean() * 100.0,
            self.cdfs.issue_slot.mean() * 100.0,
            self.cdfs.tc.mean() * 100.0,
            self.mean_ec_time,
            self.mean_launch_time,
            self.mean_sync_time,
            self.mean_blocking_time,
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

    fn trace(model: &jetsim_dnn::ModelGraph, precision: Precision, procs: u32) -> RunTrace {
        let config = orin_processes(model, precision, procs)
            .warmup(SimDuration::from_millis(200))
            .measure(SimDuration::from_millis(1300))
            .build()
            .unwrap();
        Simulation::new(config).unwrap().run()
    }

    #[test]
    fn report_builds_from_busy_trace() {
        let report = NsightReport::from_trace(&trace(&zoo::resnet50(), Precision::Fp16, 1))
            .expect("events recorded");
        assert!(report.kernel_executions > 1000);
        assert!(report.kernel_duration_us.mean > 1.0);
        assert!(report.mean_ec_time > SimDuration::ZERO);
    }

    #[test]
    fn issue_slot_below_sm_active_and_capped() {
        let report =
            NsightReport::from_trace(&trace(&zoo::resnet50(), Precision::Fp16, 1)).unwrap();
        // Paper §6.1.3: issue-slot utilisation is a lower bound on SM
        // active and never exceeds 80%.
        assert!(report.cdfs.issue_slot.mean() < report.cdfs.sm_active.mean());
        assert!(report.cdfs.issue_slot.quantile(1.0) <= 0.8);
    }

    #[test]
    fn sm_active_mostly_high_for_resnet() {
        let report =
            NsightReport::from_trace(&trace(&zoo::resnet50(), Precision::Fp16, 1)).unwrap();
        // Paper §6.1.3: SM active utilisation typically 75–90%.
        let mean = report.cdfs.sm_active.mean();
        assert!((0.6..=0.98).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn int8_sm_active_lowest() {
        let int8 = NsightReport::from_trace(&trace(&zoo::resnet50(), Precision::Int8, 1))
            .unwrap()
            .cdfs
            .sm_active
            .mean();
        let fp32 = NsightReport::from_trace(&trace(&zoo::resnet50(), Precision::Fp32, 1))
            .unwrap()
            .cdfs
            .sm_active
            .mean();
        assert!(
            int8 < fp32,
            "paper §6.1.3: int8 lowest SM util ({int8} vs {fp32})"
        );
    }

    #[test]
    fn fcn_tc_pinned_at_fp16() {
        let report =
            NsightReport::from_trace(&trace(&zoo::fcn_resnet50(), Precision::Fp16, 1)).unwrap();
        assert!(
            report.cdfs.tc.fraction_at_least(0.9) > 0.3,
            "fraction near 100% = {}",
            report.cdfs.tc.fraction_at_least(0.9)
        );
    }

    #[test]
    fn yolo_tc_concentrated_low() {
        let report = NsightReport::from_trace(&trace(&zoo::yolov8n(), Precision::Fp16, 1)).unwrap();
        // Paper §6.1.4: YoloV8n TC utilisation concentrated below 20%.
        assert!(
            report.cdfs.tc.fraction_at_most(0.25) > 0.5,
            "low-TC mass = {}",
            report.cdfs.tc.fraction_at_most(0.25)
        );
    }

    #[test]
    fn empty_trace_yields_none() {
        let mut t = trace(&zoo::resnet50(), Precision::Fp16, 1);
        t.kernel_events.clear();
        assert!(NsightReport::from_trace(&t).is_none());
    }

    #[test]
    fn display_mentions_all_parts() {
        let report =
            NsightReport::from_trace(&trace(&zoo::resnet50(), Precision::Fp16, 1)).unwrap();
        let text = format!("{report}");
        assert!(text.contains("SM") && text.contains("TC") && text.contains("launch"));
    }
}
