//! Outside-in benchmark of the jetsim simulator.
//!
//! Every layer is timed from outside, around calls into the public
//! functions of `jetsim` (core), `jetsim-trt`, `jetsim-des`,
//! `jetsim-sim`, `jetsim-serve` and `jetsim-fleet`. One workload runs
//! per process; see `README.md` for the commands, the metrics and why
//! each workload exists.
//!
//! The names below are the benchmark's contract with `BENCHMARK.json`
//! at the repository root: a test checks that the two agree.

pub mod compare;
pub mod harness;
pub mod stats;
pub mod tracer;
pub mod workloads;

/// The seed the committed digests in `baseline.json` were taken at.
pub const DEFAULT_SEED: u64 = 7;

/// Seconds of timed iterations per pass (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, e.g. `wall_s`.
    pub name: &'static str,
    /// Unit, e.g. `s`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off. All are host-side and
/// lower is better.
pub const END_TO_END: [MetricDef; 3] =
    [m("wall_s", "s"), m("setup_s", "s"), m("peak_rss_mb", "MB")];

/// Per-layer metrics, from the traced pass. A `*_s` metric is the median
/// over set-ups or iterations of one span's self time; a metric whose
/// layer is not on a workload's path reads 0 on that workload.
pub const PER_LAYER: [MetricDef; 47] = [
    m("core.scenario_parse_s", "s"),
    m("core.sweep_s", "s"),
    m("core.cells_per_s", "1/s"),
    m("core.cells", "count"),
    m("core.cells_ok", "count"),
    m("core.cells_oom", "count"),
    m("trt.build_s", "s"),
    m("trt.builds", "count"),
    m("trt.cache_hits", "count"),
    m("trt.cache_hit_rate", "ratio"),
    m("des.arrivals_s", "s"),
    m("des.arrivals", "count"),
    m("sim.new_s", "s"),
    m("sim.run_s", "s"),
    m("sim.events", "count"),
    m("sim.events_per_s", "1/s"),
    m("sim.trace_drop_s", "s"),
    m("sim.kernel_events", "count"),
    m("sim.requests", "count"),
    m("sim.serve_events", "count"),
    m("sim.power_samples", "count"),
    m("sim.fault_events", "count"),
    m("sim.preemptions", "count"),
    m("sim.sim_gpu_busy_frac", "ratio"),
    m("serve.resolve_s", "s"),
    m("serve.build_config_s", "s"),
    m("serve.report_s", "s"),
    m("serve.offered", "count"),
    m("serve.served", "count"),
    m("serve.failed", "count"),
    m("serve.unfinished", "count"),
    m("serve.retry_amplification", "ratio"),
    m("serve.goodput_ratio", "ratio"),
    m("serve.sim_queue_wait_ms", "ms"),
    m("serve.sim_mean_batch", "count"),
    m("serve.capacity_estimate_s", "s"),
    m("fleet.run_s", "s"),
    m("fleet.run_w1_s", "s"),
    m("fleet.serial_s", "s"),
    m("fleet.parallel_s", "s"),
    m("fleet.quarter_run_s", "s"),
    m("fleet.scaling", "ratio"),
    m("fleet.sim_events", "count"),
    m("fleet.sim_events_per_s", "1/s"),
    m("fleet.requests", "count"),
    m("fleet.served", "count"),
    m("trace_overhead", "ratio"),
];

/// FNV-1a 64 over a byte stream.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest of a simulated report: FNV-1a 64 over its JSON. A change
/// meant only to speed the simulator up must leave it unchanged.
pub fn digest<T: serde::Serialize + ?Sized>(report: &T) -> u64 {
    let json = serde_json::to_string(report).expect("reports serialize");
    fnv1a64(json.as_bytes())
}

/// The benchmark package's own directory: results, traces and the
/// committed baseline live under it whatever the working directory.
pub fn package_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}
