//! Run traces: everything a simulation records for the profilers.

use std::sync::Arc;

use jetsim_des::{SimDuration, SimTime};
use jetsim_dnn::Precision;

use crate::faults::FaultEvent;
use crate::serving::{RequestRecord, ServeEvent};

/// One GPU kernel execution, as an Nsight-style tracer would record it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// Index of the owning process.
    pub pid: usize,
    /// Sequence number of the execution context within the process.
    pub ec_seq: u64,
    /// Index of the kernel within the engine.
    pub kernel_index: usize,
    /// GPU start time.
    pub start: SimTime,
    /// GPU end time.
    pub end: SimTime,
    /// Precision the kernel ran at.
    pub precision: Precision,
    /// SM-active utilisation during the kernel (jittered sample).
    pub sm_active: f64,
    /// Issue-slot utilisation during the kernel (jittered sample).
    pub issue_slot: f64,
    /// Tensor-core activity during the kernel (jittered sample).
    pub tc_activity: f64,
    /// Bytes the kernel moved (batch-scaled).
    pub bytes: u64,
}

impl KernelEvent {
    /// Kernel duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// One kernel cancelled mid-flight by a preemptive GPU policy
/// ([`crate::config::GpuPolicy::Priority`]). The partial execution is
/// wasted work — the kernel re-runs from scratch — so these events are
/// the audit trail for the occupancy a preemptive discipline burns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPreempted {
    /// Index of the process whose kernel was cancelled.
    pub pid: usize,
    /// Sequence number of the execution context the kernel belonged to.
    pub ec_seq: u64,
    /// Index of the kernel within the engine.
    pub kernel_index: usize,
    /// When the cancelled attempt started on the GPU.
    pub start: SimTime,
    /// When it was cut short.
    pub preempted_at: SimTime,
    /// Index of the higher-priority process whose arrival triggered the
    /// preemption.
    pub by_pid: usize,
}

impl KernelPreempted {
    /// GPU time the cancelled attempt burned before the cut.
    pub fn wasted(&self) -> SimDuration {
        self.preempted_at.since(self.start)
    }
}

/// A periodic power/frequency/utilisation sample (`jetson-stats` style).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Sample timestamp.
    pub time: SimTime,
    /// Estimated module power in watts.
    pub watts: f64,
    /// GPU busy fraction over the last sample period.
    pub gpu_utilization: f64,
    /// GPU frequency at sample time, MHz.
    pub gpu_freq_mhz: u32,
    /// GPU memory allocated, bytes.
    pub gpu_memory_bytes: u64,
    /// Time-averaged busy CPU cores over the last period.
    pub cpu_busy_cores: f64,
    /// Estimated junction temperature, °C.
    pub temp_c: f64,
}

/// Timing breakdown of one completed execution context, the paper's
/// `EC_i = Σ (K_l + T_l + C_l + B_l)` decomposition (§7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcRecord {
    /// When the host thread began enqueueing this EC.
    pub start: SimTime,
    /// When the host thread returned from `cudaStreamSynchronize`.
    pub end: SimTime,
    /// Cumulative CPU time spent in kernel-launch calls (`Σ K_l`).
    pub launch_time: SimDuration,
    /// Cumulative scheduler blocking (`Σ B_l`).
    pub blocking_time: SimDuration,
    /// Time the thread waited in synchronisation after its last launch.
    pub sync_time: SimDuration,
    /// Pure GPU execution time of this EC's kernels.
    pub gpu_time: SimDuration,
    /// Time the batch waited between arriving and processing starting
    /// (zero in saturated `trtexec` mode).
    pub queue_delay: SimDuration,
}

impl EcRecord {
    /// Wall duration of the EC.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// One process's measured-window EC statistics, accumulated as each EC
/// finishes: the integer sums behind [`ProcessStats`]' means and one
/// wall duration per EC for its percentiles. The per-EC log is kept only
/// while [`crate::SimConfig::record_kernel_events`] is set, and no
/// statistic reads it.
#[derive(Debug, Default)]
pub(crate) struct EcStats {
    /// Wall duration of each measured EC, in completion order.
    durations: Vec<SimDuration>,
    /// Σ wall duration.
    wall: SimDuration,
    /// Σ launch CPU time.
    launch: SimDuration,
    /// Σ blocking time.
    blocking: SimDuration,
    /// Σ synchronisation wait.
    sync: SimDuration,
    /// Σ GPU time.
    gpu: SimDuration,
    /// Σ queueing delay.
    queue: SimDuration,
    /// Every measured EC, when recording.
    log: Vec<EcRecord>,
}

impl EcStats {
    /// Room for `ecs` ECs, with the log only when `record` is set.
    pub(crate) fn with_capacity(ecs: usize, record: bool) -> Self {
        EcStats {
            durations: Vec::with_capacity(ecs),
            log: Vec::with_capacity(if record { ecs } else { 0 }),
            ..EcStats::default()
        }
    }

    /// Counts one measured EC, logging it when `record` is set.
    pub(crate) fn add(&mut self, r: EcRecord, record: bool) {
        let wall = r.duration();
        self.durations.push(wall);
        self.wall += wall;
        self.launch += r.launch_time;
        self.blocking += r.blocking_time;
        self.sync += r.sync_time;
        self.gpu += r.gpu_time;
        self.queue += r.queue_delay;
        if record {
            self.log.push(r);
        }
    }

    /// The process's statistics over a `measure_secs` window, and the
    /// per-EC log (empty unless recorded). Means are integer sums over
    /// the EC count; percentiles index the sorted durations at
    /// `round((n - 1) q)`.
    pub(crate) fn finish(
        mut self,
        name: String,
        engine_name: String,
        batch: u32,
        measure_secs: f64,
        killed_at: Option<SimTime>,
    ) -> (ProcessStats, Vec<EcRecord>) {
        let completed = self.durations.len() as u64;
        let images = completed * u64::from(batch);
        let mean = |sum: SimDuration| {
            if completed == 0 {
                SimDuration::ZERO
            } else {
                sum / completed
            }
        };
        let durations = &mut self.durations;
        durations.sort_unstable();
        let percentile = |q: f64| {
            if durations.is_empty() {
                SimDuration::ZERO
            } else {
                durations[((durations.len() - 1) as f64 * q).round() as usize]
            }
        };
        let stats = ProcessStats {
            name,
            engine_name,
            batch,
            completed_ecs: completed,
            images,
            throughput: if measure_secs == 0.0 {
                0.0
            } else {
                images as f64 / measure_secs
            },
            mean_ec_time: mean(self.wall),
            p50_ec_time: percentile(0.5),
            p95_ec_time: percentile(0.95),
            p99_ec_time: percentile(0.99),
            mean_launch_time: mean(self.launch),
            mean_blocking_time: mean(self.blocking),
            mean_sync_time: mean(self.sync),
            mean_gpu_time: mean(self.gpu),
            mean_queue_delay: mean(self.queue),
            killed_at,
        };
        (stats, self.log)
    }
}

/// Aggregated statistics for one process over the measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessStats {
    /// Process name.
    pub name: String,
    /// Engine name the process ran.
    pub engine_name: String,
    /// Batch size per EC.
    pub batch: u32,
    /// ECs completed inside the measured window.
    pub completed_ecs: u64,
    /// Images processed inside the measured window.
    pub images: u64,
    /// Throughput in images/s.
    pub throughput: f64,
    /// Mean EC wall duration.
    pub mean_ec_time: SimDuration,
    /// Median EC wall duration (QoS latency view).
    pub p50_ec_time: SimDuration,
    /// 95th-percentile EC wall duration.
    pub p95_ec_time: SimDuration,
    /// 99th-percentile EC wall duration (tail latency under contention).
    pub p99_ec_time: SimDuration,
    /// Mean per-EC kernel-launch CPU time.
    pub mean_launch_time: SimDuration,
    /// Mean per-EC blocking time.
    pub mean_blocking_time: SimDuration,
    /// Mean per-EC synchronisation wait.
    pub mean_sync_time: SimDuration,
    /// Mean per-EC pure GPU time.
    pub mean_gpu_time: SimDuration,
    /// Mean queueing delay before each EC began (open-loop arrivals).
    pub mean_queue_delay: SimDuration,
    /// When the simulated OOM killer terminated this process
    /// ([`crate::OomPolicy::KillLargest`]); `None` if it survived the
    /// run. A killed process keeps the statistics it earned before
    /// death — its throughput is still averaged over the full measured
    /// window, exactly how a real profiling harness would report a
    /// casualty.
    pub killed_at: Option<SimTime>,
}

/// Everything one simulation run recorded.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The device simulated.
    pub device_name: String,
    /// Length of the measured window.
    pub measured: SimDuration,
    /// Per-process aggregated statistics.
    pub processes: Vec<ProcessStats>,
    /// Fused-kernel names per process (indexed by
    /// [`KernelEvent::kernel_index`]), for timeline tooling. Processes
    /// sharing an engine share one interned table behind the `Arc`.
    pub kernel_names: Vec<Arc<Vec<String>>>,
    /// Per-EC records (measured window only), grouped per process.
    /// Each process's list is empty when
    /// [`crate::SimConfig::record_kernel_events`] is off;
    /// [`RunTrace::processes`] never depend on it.
    pub ec_records: Vec<Vec<EcRecord>>,
    /// Per-kernel events (measured window only). Empty when
    /// [`crate::SimConfig::record_kernel_events`] is off.
    pub kernel_events: Vec<KernelEvent>,
    /// Kernels cancelled mid-flight by a preemptive GPU policy
    /// (measured window only). Empty under every non-preemptive policy,
    /// including the default, and when
    /// [`crate::SimConfig::record_kernel_events`] is off.
    pub preemptions: Vec<KernelPreempted>,
    /// Periodic power samples (measured window only).
    pub power_samples: Vec<PowerSample>,
    /// Injected faults and their consequences (whole run, warmup
    /// included — a kill during warmup still explains the measured
    /// window). Empty unless a [`crate::FaultPlan`] was attached.
    pub fault_events: Vec<FaultEvent>,
    /// Every serving request's lifecycle, in arrival order, warmup
    /// included (SLO reports re-filter to the measured window). Empty
    /// unless a [`crate::serving::ServePlan`] was attached.
    pub requests: Vec<RequestRecord>,
    /// Batch formations and degradation flips, in time order. Empty for
    /// closed-loop runs.
    pub serve_events: Vec<ServeEvent>,
    /// Serve group labels (indexed by [`RequestRecord::group`] and
    /// [`ServeEvent::group`]). Empty for closed-loop runs.
    pub serve_group_labels: Vec<String>,
    /// `true` when the run was aborted by the
    /// [`crate::SimConfig::event_budget`] watchdog; statistics cover
    /// only the portion that ran.
    pub budget_exceeded: bool,
    /// Total events the DES loop processed over the whole run (warmup
    /// included) — the denominator of the sweep benches' events/sec.
    pub sim_events: u64,
    /// GPU busy time within the measured window.
    pub gpu_busy: SimDuration,
    /// Total GPU-side memory allocated by the deployment.
    pub gpu_memory_bytes: u64,
    /// Percentage of board RAM the GPU allocation represents.
    pub gpu_memory_percent: f64,
    /// Final DVFS frequency step at the end of the run.
    pub final_freq_mhz: u32,
    /// The device's top GPU frequency, MHz.
    pub top_freq_mhz: u32,
    /// The device's DRAM bandwidth, bytes/s.
    pub mem_bandwidth_bytes_per_sec: f64,
}

impl RunTrace {
    /// Aggregate throughput across processes, images/s.
    pub fn total_throughput(&self) -> f64 {
        self.processes.iter().map(|p| p.throughput).sum()
    }

    /// Mean per-process throughput — the paper's `T/P` metric (§6.2.1).
    pub fn throughput_per_process(&self) -> f64 {
        if self.processes.is_empty() {
            0.0
        } else {
            self.total_throughput() / self.processes.len() as f64
        }
    }

    /// Processes the simulated OOM killer terminated
    /// ([`crate::OomPolicy::KillLargest`]).
    pub fn killed_processes(&self) -> usize {
        self.processes
            .iter()
            .filter(|p| p.killed_at.is_some())
            .count()
    }

    /// Aggregate throughput of the processes that survived to the end
    /// of the run, images/s — what the §6.2.1 over-deployment actually
    /// delivers once the OOM killer has culled it.
    pub fn surviving_throughput(&self) -> f64 {
        self.processes
            .iter()
            .filter(|p| p.killed_at.is_none())
            .map(|p| p.throughput)
            .sum()
    }

    /// GPU utilisation over the measured window (0–1).
    pub fn gpu_utilization(&self) -> f64 {
        let wall = self.measured.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            (self.gpu_busy.as_secs_f64() / wall).min(1.0)
        }
    }

    /// Mean module power over the measured window, watts.
    pub fn mean_power(&self) -> f64 {
        if self.power_samples.is_empty() {
            return 0.0;
        }
        self.power_samples.iter().map(|s| s.watts).sum::<f64>() / self.power_samples.len() as f64
    }

    /// Energy per image over the measured window, joules (W·s).
    pub fn power_per_image(&self) -> f64 {
        let throughput = self.total_throughput();
        if throughput == 0.0 {
            0.0
        } else {
            self.mean_power() / throughput
        }
    }

    /// How long a battery of `watt_hours` would sustain this workload at
    /// the measured draw, in hours (`None` when the trace has no samples).
    pub fn battery_life_hours(&self, watt_hours: f64) -> Option<f64> {
        let power = self.mean_power();
        if power <= 0.0 {
            None
        } else {
            Some(watt_hours / power)
        }
    }

    /// Mean EC wall time across all processes.
    pub fn mean_ec_time(&self) -> SimDuration {
        let (sum, n) = self
            .processes
            .iter()
            .filter(|p| p.completed_ecs > 0)
            .fold((SimDuration::ZERO, 0u64), |(s, n), p| {
                (s + p.mean_ec_time, n + 1)
            });
        if n == 0 {
            SimDuration::ZERO
        } else {
            sum / n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_des::SimTime;

    fn stats(name: &str, throughput: f64) -> ProcessStats {
        ProcessStats {
            name: name.into(),
            engine_name: "e".into(),
            batch: 1,
            completed_ecs: 10,
            images: 10,
            throughput,
            mean_ec_time: SimDuration::from_millis(2),
            p50_ec_time: SimDuration::from_millis(2),
            p95_ec_time: SimDuration::from_millis(3),
            p99_ec_time: SimDuration::from_millis(4),
            mean_launch_time: SimDuration::from_micros(500),
            mean_blocking_time: SimDuration::ZERO,
            mean_sync_time: SimDuration::from_micros(100),
            mean_gpu_time: SimDuration::from_millis(1),
            mean_queue_delay: SimDuration::ZERO,
            killed_at: None,
        }
    }

    fn trace(processes: Vec<ProcessStats>) -> RunTrace {
        RunTrace {
            device_name: "test".into(),
            measured: SimDuration::from_secs(2),
            processes,
            kernel_names: vec![],
            ec_records: vec![],
            kernel_events: vec![],
            preemptions: vec![],
            power_samples: vec![
                PowerSample {
                    time: SimTime::ZERO,
                    watts: 4.0,
                    gpu_utilization: 0.9,
                    gpu_freq_mhz: 625,
                    gpu_memory_bytes: 0,
                    cpu_busy_cores: 1.0,
                    temp_c: 40.0,
                },
                PowerSample {
                    time: SimTime::from_nanos(1),
                    watts: 6.0,
                    gpu_utilization: 0.9,
                    gpu_freq_mhz: 625,
                    gpu_memory_bytes: 0,
                    cpu_busy_cores: 1.0,
                    temp_c: 40.0,
                },
            ],
            fault_events: vec![],
            requests: vec![],
            serve_events: vec![],
            serve_group_labels: vec![],
            budget_exceeded: false,
            sim_events: 0,
            gpu_busy: SimDuration::from_secs(1),
            gpu_memory_bytes: 0,
            gpu_memory_percent: 0.0,
            final_freq_mhz: 625,
            top_freq_mhz: 625,
            mem_bandwidth_bytes_per_sec: 68.0e9,
        }
    }

    #[test]
    fn throughput_aggregation() {
        let t = trace(vec![stats("a", 100.0), stats("b", 50.0)]);
        assert_eq!(t.total_throughput(), 150.0);
        assert_eq!(t.throughput_per_process(), 75.0);
    }

    #[test]
    fn kill_accounting_splits_survivors() {
        let mut dead = stats("dead", 30.0);
        dead.killed_at = Some(SimTime::from_nanos(5));
        let t = trace(vec![stats("a", 100.0), dead]);
        assert_eq!(t.killed_processes(), 1);
        assert_eq!(t.surviving_throughput(), 100.0);
        assert_eq!(t.total_throughput(), 130.0, "casualties still counted");
        assert!(!t.budget_exceeded);
    }

    #[test]
    fn empty_trace_degenerates_gracefully() {
        let t = trace(vec![]);
        assert_eq!(t.throughput_per_process(), 0.0);
        assert_eq!(t.mean_ec_time(), SimDuration::ZERO);
        assert_eq!(t.power_per_image(), 0.0);
    }

    #[test]
    fn gpu_utilization_fraction() {
        let t = trace(vec![stats("a", 10.0)]);
        assert!((t.gpu_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_power_averages_samples() {
        let t = trace(vec![stats("a", 10.0)]);
        assert_eq!(t.mean_power(), 5.0);
        assert_eq!(t.power_per_image(), 0.5);
    }

    #[test]
    fn battery_life_divides_pack_by_mean_power() {
        let t = trace(vec![stats("a", 10.0)]);
        assert_eq!(t.battery_life_hours(50.0), Some(10.0), "50 Wh / 5 W");
        let mut empty = trace(vec![]);
        empty.power_samples.clear();
        assert_eq!(empty.battery_life_hours(50.0), None);
    }

    #[test]
    fn kernel_event_duration() {
        let e = KernelEvent {
            pid: 0,
            ec_seq: 0,
            kernel_index: 0,
            start: SimTime::from_nanos(100),
            end: SimTime::from_nanos(350),
            precision: Precision::Fp16,
            sm_active: 0.9,
            issue_slot: 0.3,
            tc_activity: 0.2,
            bytes: 1024,
        };
        assert_eq!(e.duration(), SimDuration::from_nanos(250));
    }

    #[test]
    fn ec_record_duration() {
        let r = EcRecord {
            start: SimTime::from_nanos(10),
            end: SimTime::from_nanos(40),
            launch_time: SimDuration::ZERO,
            blocking_time: SimDuration::ZERO,
            sync_time: SimDuration::ZERO,
            gpu_time: SimDuration::ZERO,
            queue_delay: SimDuration::ZERO,
        };
        assert_eq!(r.duration(), SimDuration::from_nanos(30));
    }
}
