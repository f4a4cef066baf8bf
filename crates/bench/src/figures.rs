//! One function per paper table/figure.
//!
//! Set `JETSIM_FAST=1` to shrink the measurement windows (used by the
//! Criterion benches and smoke tests); the default windows match the
//! paper's long-run methodology scaled to simulation time.

use std::sync::OnceLock;

use jetsim::prelude::*;
use jetsim::report::fmt_num;
use jetsim::report::Table;
use jetsim_des::ArrivalProcess;
use jetsim_profile::metrics;
use jetsim_serve::{
    AutoscaleSpec, FaultPlan, OomPolicy, ResiliencePolicies, ServeSpec, ServeTenant,
};
use jetsim_sim::GpuPolicy;

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

fn spec() -> SweepSpec {
    let (warmup, measure) = windows();
    SweepSpec::new().warmup(warmup).measure(measure)
}

fn paper_models() -> Vec<ModelGraph> {
    zoo::all()
}

/// Orin Nano int8 concurrency grid (figures 6, 8 and the concurrent
/// halves of 10/11 share it), computed once.
fn orin_int8_grid() -> &'static Vec<(String, Vec<SweepCell>)> {
    static GRID: OnceLock<Vec<(String, Vec<SweepCell>)>> = OnceLock::new();
    GRID.get_or_init(|| {
        let platform = Platform::orin_nano();
        paper_models()
            .iter()
            .map(|m| {
                let procs: Vec<u32> = if m.name() == "yolov8n" {
                    vec![1, 2, 4, 8, 16]
                } else {
                    vec![1, 2, 4, 8]
                };
                let cells = spec()
                    .precisions([Precision::Int8])
                    .batches([1, 2, 4, 8, 16])
                    .process_counts(procs)
                    .run(&platform, m);
                (m.name().to_string(), cells)
            })
            .collect()
    })
}

/// Jetson Nano fp16 concurrency grid (figures 7 and 9).
fn nano_fp16_grid() -> &'static Vec<(String, Vec<SweepCell>)> {
    static GRID: OnceLock<Vec<(String, Vec<SweepCell>)>> = OnceLock::new();
    GRID.get_or_init(|| {
        let platform = Platform::jetson_nano();
        paper_models()
            .iter()
            .map(|m| {
                let cells = spec()
                    .precisions([Precision::Fp16])
                    .batches([1, 2, 4, 8])
                    .process_counts([1, 2, 4, 8])
                    .run(&platform, m);
                (m.name().to_string(), cells)
            })
            .collect()
    })
}

/// Per-device precision sweep at batch 1, one process (figures 3 and 4).
fn precision_grid(platform: &Platform) -> Vec<(String, Vec<SweepCell>)> {
    paper_models()
        .iter()
        .map(|m| {
            let cells = spec()
                .precisions(Precision::ALL)
                .batches([1])
                .process_counts([1])
                .run(platform, m);
            (m.name().to_string(), cells)
        })
        .collect()
}

fn outcome_cell(cell: &SweepCell, f: fn(&CellMetrics) -> f64) -> String {
    match cell.outcome.metrics() {
        Some(m) => fmt_num(f(m)),
        None => "OOM".to_string(),
    }
}

/// The throughput column, through `CellOutcome::throughput`; cells that
/// failed for any reason render as "OOM".
fn throughput_cell(cell: &SweepCell) -> String {
    cell.outcome
        .throughput()
        .map(fmt_num)
        .unwrap_or_else(|| "OOM".to_string())
}

// ---------------------------------------------------------------- tables

/// Table 1 — the evaluated edge GPUs.
pub fn table1() -> FigureResult {
    let mut table = Table::new(["Metric", "Jetson Orin Nano", "Jetson Nano"]);
    let orin = Platform::orin_nano();
    let nano = Platform::jetson_nano();
    let (o, n) = (orin.device(), nano.device());
    table.row(["CPU", &o.cpu.name, &n.cpu.name]);
    table.row([
        "GPU".to_string(),
        format!("{}-core {}", o.gpu.cuda_cores(), o.gpu.generation),
        format!("{}-core {}", n.gpu.cuda_cores(), n.gpu.generation),
    ]);
    table.row([
        "Tensor Cores".to_string(),
        o.gpu.tensor_cores.to_string(),
        "-".to_string(),
    ]);
    table.row([
        "Unified Memory".to_string(),
        format!("{}GB", o.memory.total_bytes >> 30),
        format!("{}GB", n.memory.total_bytes >> 30),
    ]);
    table.row([
        "Power".to_string(),
        format!("{:.0}W budget", o.power.budget_w),
        format!("{:.0}W budget", n.power.budget_w),
    ]);
    FigureResult {
        id: "table1",
        title: "NVIDIA Jetson GPUs",
        tables: vec![("devices".to_string(), table)],
    }
}

/// Table 2 — the collected metrics at each level.
pub fn table2() -> FigureResult {
    let mut table = Table::new(["Metric", "Level", "Description", "Unit", "Tool"]);
    for m in metrics::registry() {
        table.row([
            m.name.to_string(),
            m.level.to_string(),
            m.description.to_string(),
            m.unit.to_string(),
            m.tool.to_string(),
        ]);
    }
    FigureResult {
        id: "table2",
        title: "Different levels of collected metrics",
        tables: vec![("metrics".to_string(), table)],
    }
}

// --------------------------------------------------------------- figures

/// Figure 1 — GPU memory usage and throughput vs batch size for the
/// ResNet50 fp16 model on the Jetson Orin Nano.
pub fn fig01_batch_sweep() -> FigureResult {
    let cells = spec()
        .precisions([Precision::Fp16])
        .batches([1, 2, 4, 8, 16])
        .process_counts([1])
        .run(&Platform::orin_nano(), &zoo::resnet50());
    let mut table = Table::new(["batch", "gpu_memory_%", "throughput_img_s", "gpu_util_%"]);
    for cell in &cells {
        table.row([
            cell.batch.to_string(),
            outcome_cell(cell, |m| m.gpu_memory_percent),
            throughput_cell(cell),
            outcome_cell(cell, |m| m.gpu_utilization_percent),
        ]);
    }
    FigureResult {
        id: "fig01",
        title: "GPU memory usage and throughput vs batch size (ResNet50 fp16, Orin Nano)",
        tables: vec![("resnet50_fp16_orin".to_string(), table)],
    }
}

/// Figure 3 — GPU memory usage & throughput vs precision for the three
/// vision workloads on both devices.
pub fn fig03_precision() -> FigureResult {
    let mut tables = Vec::new();
    for platform in Platform::paper_platforms() {
        let mut table = Table::new(["model", "precision", "gpu_memory_%", "throughput_img_s"]);
        for (model, cells) in precision_grid(&platform) {
            for cell in &cells {
                table.row([
                    model.clone(),
                    cell.precision.to_string(),
                    outcome_cell(cell, |m| m.gpu_memory_percent),
                    throughput_cell(cell),
                ]);
            }
        }
        tables.push((platform.name().to_string(), table));
    }
    FigureResult {
        id: "fig03",
        title: "GPU memory usage & throughput vs precision (batch 1, single process)",
        tables,
    }
}

/// Figure 4 — power consumption vs precision on both devices.
pub fn fig04_power_precision() -> FigureResult {
    let mut tables = Vec::new();
    for platform in Platform::paper_platforms() {
        let mut table = Table::new([
            "model",
            "precision",
            "power_w",
            "power_per_image_j",
            "gpu_freq_mhz",
        ]);
        for (model, cells) in precision_grid(&platform) {
            for cell in &cells {
                table.row([
                    model.clone(),
                    cell.precision.to_string(),
                    outcome_cell(cell, |m| m.mean_power_w),
                    cell.outcome
                        .metrics()
                        .map(|m| format!("{:.3}", m.power_per_image))
                        .unwrap_or_else(|| "OOM".to_string()),
                    outcome_cell(cell, |m| f64::from(m.final_gpu_freq_mhz)),
                ]);
            }
        }
        tables.push((platform.name().to_string(), table));
    }
    FigureResult {
        id: "fig04",
        title: "Power consumption vs precision",
        tables,
    }
}

fn cdf_row(label: &str, cdf: &jetsim_profile::Cdf) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.1}", cdf.mean() * 100.0),
        format!("{:.1}", cdf.quantile(0.25) * 100.0),
        format!("{:.1}", cdf.quantile(0.5) * 100.0),
        format!("{:.1}", cdf.quantile(0.75) * 100.0),
        format!("{:.1}", cdf.quantile(0.95) * 100.0),
        format!("{:.1}", cdf.fraction_at_least(0.95) * 100.0),
    ]
}

fn util_headers() -> [&'static str; 7] {
    [
        "workload",
        "mean_%",
        "p25_%",
        "p50_%",
        "p75_%",
        "p95_%",
        "time_at_100_%",
    ]
}

/// Plot-ready CDF curves: one row per (workload, quantile) with the
/// value of each utilisation metric, 21 points per curve.
fn curve_table(entries: &[(String, jetsim_profile::UtilizationCdfs)]) -> Table {
    let mut table = Table::new([
        "workload",
        "cdf_fraction",
        "sm_active_%",
        "issue_slot_%",
        "tc_%",
    ]);
    for (label, cdfs) in entries {
        let sm = cdfs.sm_active.curve(21);
        let issue = cdfs.issue_slot.curve(21);
        let tc = cdfs.tc.curve(21);
        for i in 0..21 {
            table.row([
                label.clone(),
                format!("{:.2}", sm[i].1),
                format!("{:.1}", sm[i].0 * 100.0),
                format!("{:.1}", issue[i].0 * 100.0),
                format!("{:.1}", tc[i].0 * 100.0),
            ]);
        }
    }
    table
}

fn nsight_profile(
    platform: &Platform,
    model: &ModelGraph,
    precision: Precision,
    procs: u32,
) -> Option<NsightReport> {
    let (warmup, measure) = windows();
    DualPhaseProfiler::new(platform)
        .deployment(&Deployment::homogeneous(model, precision, 1, procs))
        .ok()?
        .warmup(warmup)
        .measure(measure)
        .run()
        .ok()
        .map(|p| p.kernel)
}

/// Figure 5 — SM-active, issue-slot and tensor-core utilisation CDFs vs
/// precision (Jetson Orin Nano, batch 1, single process).
pub fn fig05_util_cdf_precision() -> FigureResult {
    let platform = Platform::orin_nano();
    let mut sm = Table::new(util_headers());
    let mut issue = Table::new(util_headers());
    let mut tc = Table::new(util_headers());
    let mut curves = Vec::new();
    for model in paper_models() {
        for precision in Precision::ALL {
            let Some(report) = nsight_profile(&platform, &model, precision, 1) else {
                continue;
            };
            let label = format!("{} {}", model.name(), precision);
            sm.row(cdf_row(&label, &report.cdfs.sm_active));
            issue.row(cdf_row(&label, &report.cdfs.issue_slot));
            tc.row(cdf_row(&label, &report.cdfs.tc));
            curves.push((label, report.cdfs));
        }
    }
    FigureResult {
        id: "fig05",
        title: "SM active / issue-slot / TC utilisation vs precision (Orin Nano)",
        tables: vec![
            ("sm_active".to_string(), sm),
            ("issue_slot".to_string(), issue),
            ("tc_utilization".to_string(), tc),
            ("curves".to_string(), curve_table(&curves)),
        ],
    }
}

fn concurrent_tables(
    grid: &[(String, Vec<SweepCell>)],
    headers: [&'static str; 4],
    f: [fn(&CellMetrics) -> f64; 2],
) -> Vec<(String, Table)> {
    grid.iter()
        .map(|(model, cells)| {
            let mut table = Table::new(headers);
            for cell in cells {
                table.row([
                    cell.batch.to_string(),
                    cell.processes.to_string(),
                    outcome_cell(cell, f[0]),
                    outcome_cell(cell, f[1]),
                ]);
            }
            (model.clone(), table)
        })
        .collect()
}

/// Figure 6 — GPU memory usage and T/P for int8 models under concurrency
/// (Jetson Orin Nano).
pub fn fig06_concurrent_orin() -> FigureResult {
    FigureResult {
        id: "fig06",
        title: "GPU memory % and throughput/process, int8, Jetson Orin Nano",
        tables: concurrent_tables(
            orin_int8_grid(),
            [
                "batch",
                "processes",
                "gpu_memory_%",
                "throughput_per_process",
            ],
            [|m| m.gpu_memory_percent, |m| m.throughput_per_process],
        ),
    }
}

/// Figure 7 — GPU memory usage and T/P for fp16 models under concurrency
/// (Jetson Nano).
pub fn fig07_concurrent_nano() -> FigureResult {
    FigureResult {
        id: "fig07",
        title: "GPU memory % and throughput/process, fp16, Jetson Nano",
        tables: concurrent_tables(
            nano_fp16_grid(),
            [
                "batch",
                "processes",
                "gpu_memory_%",
                "throughput_per_process",
            ],
            [|m| m.gpu_memory_percent, |m| m.throughput_per_process],
        ),
    }
}

/// Figure 8 — power consumption for int8 models under concurrency
/// (Jetson Orin Nano).
pub fn fig08_power_orin() -> FigureResult {
    FigureResult {
        id: "fig08",
        title: "Power consumption, int8, Jetson Orin Nano",
        tables: concurrent_tables(
            orin_int8_grid(),
            ["batch", "processes", "power_w", "gpu_freq_mhz"],
            [|m| m.mean_power_w, |m| f64::from(m.final_gpu_freq_mhz)],
        ),
    }
}

/// Figure 9 — power consumption for fp16 models under concurrency
/// (Jetson Nano).
pub fn fig09_power_nano() -> FigureResult {
    FigureResult {
        id: "fig09",
        title: "Power consumption, fp16, Jetson Nano",
        tables: concurrent_tables(
            nano_fp16_grid(),
            ["batch", "processes", "power_w", "gpu_freq_mhz"],
            [|m| m.mean_power_w, |m| f64::from(m.final_gpu_freq_mhz)],
        ),
    }
}

/// Figure 10 — utilisation CDFs vs number of concurrent processes
/// (Jetson Orin Nano, int8, batch 1).
pub fn fig10_util_cdf_concurrent() -> FigureResult {
    let platform = Platform::orin_nano();
    let mut sm = Table::new(util_headers());
    let mut issue = Table::new(util_headers());
    let mut tc = Table::new(util_headers());
    let mut curves = Vec::new();
    for model in paper_models() {
        for procs in [1u32, 2, 4, 8] {
            let Some(report) = nsight_profile(&platform, &model, Precision::Int8, procs) else {
                continue;
            };
            let label = format!("{} p{}", model.name(), procs);
            sm.row(cdf_row(&label, &report.cdfs.sm_active));
            issue.row(cdf_row(&label, &report.cdfs.issue_slot));
            tc.row(cdf_row(&label, &report.cdfs.tc));
            curves.push((label, report.cdfs));
        }
    }
    FigureResult {
        id: "fig10",
        title: "SM active / issue-slot / TC utilisation vs concurrent processes (Orin Nano)",
        tables: vec![
            ("sm_active".to_string(), sm),
            ("issue_slot".to_string(), issue),
            ("tc_utilization".to_string(), tc),
            ("curves".to_string(), curve_table(&curves)),
        ],
    }
}

fn events_tables(
    platform: &Platform,
    model: &ModelGraph,
    precision: Precision,
    batches: &[u32],
    procs: &[u32],
) -> Vec<(String, Table)> {
    let headers = ["x", "ec_ms", "launch_ms", "sync_ms", "blocking_ms"];
    let batch_cells = spec()
        .precisions([precision])
        .batches(batches.to_vec())
        .process_counts([1])
        .run(platform, model);
    let mut by_batch = Table::new(headers);
    for cell in &batch_cells {
        by_batch.row([
            format!("b{}", cell.batch),
            outcome_cell(cell, |m| m.mean_ec_ms),
            outcome_cell(cell, |m| m.mean_launch_ms),
            outcome_cell(cell, |m| m.mean_sync_ms),
            outcome_cell(cell, |m| m.mean_blocking_ms),
        ]);
    }
    let proc_cells = spec()
        .precisions([precision])
        .batches([1])
        .process_counts(procs.to_vec())
        .run(platform, model);
    let mut by_procs = Table::new(headers);
    for cell in &proc_cells {
        by_procs.row([
            format!("p{}", cell.processes),
            outcome_cell(cell, |m| m.mean_ec_ms),
            outcome_cell(cell, |m| m.mean_launch_ms),
            outcome_cell(cell, |m| m.mean_sync_ms),
            outcome_cell(cell, |m| m.mean_blocking_ms),
        ]);
    }
    vec![
        ("vs_batch".to_string(), by_batch),
        ("vs_processes".to_string(), by_procs),
    ]
}

/// Figure 11 — GPU and CPU event breakdown for ResNet50 int8 on the
/// Jetson Orin Nano, vs batch size (left) and process count (right).
pub fn fig11_events_orin() -> FigureResult {
    FigureResult {
        id: "fig11",
        title: "GPU/CPU events, ResNet50 int8, Jetson Orin Nano",
        tables: events_tables(
            &Platform::orin_nano(),
            &zoo::resnet50(),
            Precision::Int8,
            &[1, 2, 4, 8, 16],
            &[1, 2, 4, 8],
        ),
    }
}

/// Figure 12 — the same breakdown for ResNet50 fp16 on the Jetson Nano.
pub fn fig12_events_nano() -> FigureResult {
    FigureResult {
        id: "fig12",
        title: "GPU/CPU events, ResNet50 fp16, Jetson Nano",
        tables: events_tables(
            &Platform::jetson_nano(),
            &zoo::resnet50(),
            Precision::Fp16,
            &[1, 2, 4, 8],
            &[1, 2, 4],
        ),
    }
}

/// The abstract's headline: near-100 % GPU utilisation coexisting with
/// 15–30 % SM/TC utilisation.
pub fn headline_gap() -> FigureResult {
    let (warmup, measure) = windows();
    let mut table = Table::new([
        "workload",
        "gpu_util_%",
        "sm_active_mean_%",
        "issue_slot_mean_%",
        "tc_mean_%",
    ]);
    for (model, precision) in [
        (zoo::resnet50(), Precision::Fp16),
        (zoo::resnet50(), Precision::Int8),
        (zoo::yolov8n(), Precision::Int8),
    ] {
        let profile = DualPhaseProfiler::new(&Platform::orin_nano())
            .deployment(&Deployment::homogeneous(&model, precision, 1, 1))
            .expect("engine builds")
            .warmup(warmup)
            .measure(measure)
            .run()
            .expect("fits in memory");
        table.row([
            format!("{} {}", model.name(), precision),
            format!("{:.1}", profile.soc.gpu_utilization_percent),
            format!("{:.1}", profile.kernel.cdfs.sm_active.mean() * 100.0),
            format!("{:.1}", profile.kernel.cdfs.issue_slot.mean() * 100.0),
            format!("{:.1}", profile.kernel.cdfs.tc.mean() * 100.0),
        ]);
    }
    FigureResult {
        id: "headline",
        title: "High GPU utilisation vs low SM/TC utilisation (abstract)",
        tables: vec![("gap".to_string(), table)],
    }
}

/// Jain fairness index over per-group goodput: `(Σx)² / (n·Σx²)`.
/// 1.0 is perfectly even; `1/n` is one group taking everything.
fn jain(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sq)
}

/// The low-priority side of one mixed-criticality deployment, built for
/// a given offered rate (the high-priority tenant is fixed).
fn policy_lo_tenants(deployment: &str, lo_rate: f64) -> Vec<ServeTenant> {
    match deployment {
        "resnet50-hi+fcn" => vec![ServeTenant::new(
            Tenant::new(zoo::fcn_resnet50(), Precision::Fp16, 1),
            ArrivalProcess::poisson(lo_rate),
        )],
        "resnet50-hi+2xyolo" => vec![ServeTenant::new(
            Tenant::new(zoo::yolov8n(), Precision::Fp16, 1).count(2),
            ArrivalProcess::poisson(lo_rate),
        )],
        other => unreachable!("unknown policy deployment {other}"),
    }
}

/// One cell of the policy comparison: the full serving report for a
/// mixed-criticality deployment under `policy` at `rate` req/s total
/// offered load (25 % high-priority, 75 % background).
fn policy_cell(deployment: &str, rate: f64, policy: GpuPolicy) -> jetsim_serve::ServeReport {
    let (warmup, measure) = windows();
    let hi = ServeTenant::new(
        Tenant::new(zoo::resnet50(), Precision::Int8, 1)
            .priority(5)
            .sm_share(2.0),
        ArrivalProcess::poisson(rate * 0.25),
    );
    let mut spec = ServeSpec::new(Platform::orin_nano())
        .warmup(warmup)
        .duration(measure)
        .gpu_policy(policy)
        .tenant(hi);
    for tenant in policy_lo_tenants(deployment, rate * 0.75) {
        spec = spec.tenant(tenant);
    }
    spec.run().expect("policy cell builds and fits")
}

/// GPU scheduling policy comparison (new analysis, not in the paper):
/// every `--gpu-policy` against two mixed-criticality deployments at a
/// light and a saturating offered load on the Orin Nano. The
/// high-priority tenant is always `resnet50 int8 b1` at priority 5 /
/// SM share 2.0; the same seed replays the same request timeline under
/// every policy, so rows differ only by scheduling.
pub fn policy_comparison() -> FigureResult {
    let mut table = Table::new([
        "deployment",
        "offered_rps",
        "policy",
        "hi_p99_ms",
        "hi_goodput_qps",
        "lo_p99_ms",
        "total_goodput_qps",
        "fairness",
    ]);
    for deployment in ["resnet50-hi+fcn", "resnet50-hi+2xyolo"] {
        for rate in [40.0, 120.0] {
            for name in ["rr", "fifo", "priority", "mps"] {
                let policy: GpuPolicy = name.parse().expect("known policy");
                let report = policy_cell(deployment, rate, policy);
                let hi = &report.groups[0];
                let goodputs: Vec<f64> = report.groups.iter().map(|g| g.goodput_qps).collect();
                let lo_p99 = report.groups[1..]
                    .iter()
                    .map(|g| g.p99_ms)
                    .fold(0.0_f64, f64::max);
                table.row([
                    deployment.to_string(),
                    format!("{rate:.0}"),
                    name.to_string(),
                    format!("{:.2}", hi.p99_ms),
                    format!("{:.1}", hi.goodput_qps),
                    format!("{lo_p99:.2}"),
                    format!("{:.1}", goodputs.iter().sum::<f64>()),
                    format!("{:.3}", jain(&goodputs)),
                ]);
            }
        }
    }
    FigureResult {
        id: "policy_comparison",
        title: "GPU scheduling policies under mixed-criticality serving",
        tables: vec![("policies".to_string(), table)],
    }
}

/// One provisioning policy of the autoscale comparison: a mobilenet_v2
/// fp16 b1 group (launch-bound, so replicas genuinely add capacity —
/// ~210 qps each up to 3; beyond that time-slice thrash wins) with
/// `replicas` slots under bursty MMPP traffic. `None` = static;
/// `Some(floor)` arms the autoscaler between `floor` and `replicas`.
fn autoscale_cell(
    autoscale: Option<u32>,
    replicas: u32,
    faults: bool,
) -> (jetsim_serve::ServeReport, f64) {
    let (warmup, measure) = windows();
    let mut tenant = ServeTenant::new(
        Tenant::new(zoo::mobilenet_v2(), Precision::Fp16, 1).count(replicas),
        ArrivalProcess::mmpp(
            50.0,
            700.0,
            SimDuration::from_millis(350),
            SimDuration::from_millis(200),
        ),
    )
    .queue_cap(512);
    if let Some(floor) = autoscale {
        tenant = tenant.autoscale(
            AutoscaleSpec::new(floor)
                .target_queue_per_replica(2.0)
                .keep_alive(SimDuration::from_millis(150))
                .evaluate_every(SimDuration::from_millis(10)),
        );
    }
    let mut spec = ServeSpec::new(Platform::orin_nano())
        .warmup(warmup)
        .duration(measure)
        .slo(SimDuration::from_millis(50))
        .tenant(tenant);
    if faults {
        // Seeded spikes (128-768 MB) never threaten an 8 GB board
        // hosting mobilenet engines; an explicit 7 GiB squeeze
        // mid-window forces the OOM killer for real.
        let spike_at = SimTime::from_nanos((warmup + measure.mul_f64(0.3)).as_nanos());
        spec = spec
            .resilience(ResiliencePolicies::none().recovery(2))
            .faults(
                FaultPlan::new()
                    .memory_spike(spike_at, measure.mul_f64(0.15), 7 << 30)
                    .oom_policy(OomPolicy::KillLargest),
            );
    }
    let report = spec.run().expect("autoscale cell builds and fits");
    // Static groups hold every replica up for the whole window; the
    // autoscaled group's integral comes from its scaling telemetry.
    let replica_seconds = if autoscale.is_some() {
        report.groups[0].replica_seconds
    } else {
        replicas as f64 * measure.as_secs_f64()
    };
    (report, replica_seconds)
}

/// Serverless autoscaling comparison (new analysis, not in the paper):
/// the same bursty MMPP request timeline served by a static minimal
/// deployment, a static maximal one, and the autoscaler — first on a
/// healthy board, then through an OOM storm with replica recovery
/// armed. The capacity table runs the bracketing search on the static
/// floor vs the autoscaled group.
pub fn autoscale_comparison() -> FigureResult {
    let mut table = Table::new([
        "scenario",
        "policy",
        "goodput_qps",
        "p99_ms",
        "slo_att",
        "replica_s",
        "cold",
        "warm",
        "reaps",
        "cold_tax_ms",
    ]);
    for (scenario, faults) in [("mmpp-burst", false), ("oom-storm", true)] {
        for (policy, autoscale, replicas) in [
            ("static-min", None, 1),
            ("static-max", None, 3),
            ("autoscale 1..3", Some(1), 3),
            ("scale-to-zero", Some(0), 3),
        ] {
            let (report, replica_seconds) = autoscale_cell(autoscale, replicas, faults);
            let g = &report.groups[0];
            table.row([
                scenario.to_string(),
                policy.to_string(),
                format!("{:.1}", g.goodput_qps),
                format!("{:.2}", g.p99_ms),
                format!("{:.3}", g.slo_attainment),
                format!("{replica_seconds:.2}"),
                format!("{}", g.cold_starts),
                format!("{}", g.warm_starts),
                format!("{}", g.reaps),
                format!("{:.2}", g.cold_start_tax_ms),
            ]);
        }
    }

    let (warmup, measure) = windows();
    let mut capacity = Table::new(["policy", "max_qps", "probes"]);
    for (policy, autoscale, replicas) in
        [("static-min", None, 1u32), ("autoscale 1..3", Some(1), 3)]
    {
        let mut tenant = ServeTenant::new(
            Tenant::new(zoo::mobilenet_v2(), Precision::Fp16, 1).count(replicas),
            ArrivalProcess::poisson(150.0),
        )
        .queue_cap(512);
        if let Some(floor) = autoscale {
            tenant = tenant.autoscale(
                AutoscaleSpec::new(floor)
                    .target_queue_per_replica(2.0)
                    .keep_alive(SimDuration::from_millis(150))
                    .evaluate_every(SimDuration::from_millis(10)),
            );
        }
        let spec = ServeSpec::new(Platform::orin_nano())
            .warmup(warmup)
            .duration(measure)
            .slo(SimDuration::from_millis(50))
            .tenant(tenant);
        let estimate = spec.find_max_qps(0.9, 4).expect("capacity search runs");
        capacity.row([
            policy.to_string(),
            format!("{:.1}", estimate.max_qps),
            format!("{}", estimate.probes.len()),
        ]);
    }

    FigureResult {
        id: "autoscale_comparison",
        title: "Serverless autoscaling vs static provisioning under bursts",
        tables: vec![
            ("provisioning".to_string(), table),
            ("capacity".to_string(), capacity),
        ],
    }
}

/// One cell of the fleet comparison: the shared MMPP aggregate stream
/// routed over 4 edge sites (plus an optional cloud tier) by `policy`.
/// A resnet50 int8 site saturates near 400 qps, so the 2400 qps burst
/// runs the edge at ~1.5x aggregate capacity — real pressure for the
/// routers to react to (under light load every policy collapses to
/// "serve at home"). The 32 KB uplink and 10 ms cloud RTT keep the
/// cloud detour comfortably inside the 100 ms SLO, which is what makes
/// escalation worth taking.
fn fleet_cell(policy: jetsim_fleet::RouterPolicy, cloud: bool) -> jetsim_fleet::FleetReport {
    let (warmup, measure) = windows();
    let scenario: jetsim_serve::ScenarioSpec = format!(
        "seed = 7\n\
         duration = \"{}ms\"\n\
         warmup = \"{}ms\"\n\
         slo = \"100ms\"\n\
         [[tenants]]\n\
         spec = \"resnet50:int8:1:1\"\n\
         arrival = \"mmpp:600:2400:300:150\"\n",
        measure.as_nanos() / 1_000_000,
        warmup.as_nanos() / 1_000_000,
    )
    .parse()
    .expect("fleet scenario parses");
    jetsim_fleet::FleetSpec::new(scenario)
        .sites(4)
        .cloud(cloud)
        .router(policy)
        .network(
            "req_kb=32,cloud_rtt=10ms"
                .parse()
                .expect("fleet figure network parses"),
        )
        .run()
        .expect("fleet cell runs")
}

/// Fleet routing comparison (new analysis, not in the paper): the same
/// bursty aggregate stream pushed through every routing policy, first
/// over an edge-only fleet, then with a cloud tier reachable behind
/// extra RTT. Offload-aware policies trade network latency for queue
/// time during bursts; home-pinned ones eat the queues.
pub fn fleet_comparison() -> FigureResult {
    let mut table = Table::new([
        "deployment",
        "router",
        "p99_ms",
        "goodput_qps",
        "slo_att",
        "offload",
        "non_home",
        "net_ms",
        "xsite_mb",
    ]);
    for (deployment, cloud) in [("edge-only", false), ("edge+cloud", true)] {
        for policy in jetsim_fleet::RouterPolicy::all() {
            let r = fleet_cell(policy, cloud);
            table.row([
                deployment.to_string(),
                r.router.clone(),
                format!("{:.2}", r.p99_ms),
                format!("{:.1}", r.goodput_qps),
                format!("{:.3}", r.slo_attainment),
                format!("{:.3}", r.offload_fraction),
                format!("{:.3}", r.non_home_fraction),
                format!("{:.3}", r.mean_network_ms),
                format!("{:.2}", r.cross_site_traffic_mb),
            ]);
        }
    }
    FigureResult {
        id: "fleet_comparison",
        title: "Fleet routing policies under bursts, edge-only vs edge+cloud",
        tables: vec![("routers".to_string(), table)],
    }
}

/// Every figure/table harness with its CLI name, in paper order — the
/// registry behind the `repro` binary (ablations have their own in
/// [`crate::ablations::registry`]).
pub fn registry() -> Vec<(&'static str, crate::Harness)> {
    vec![
        ("table1", table1 as fn() -> FigureResult),
        ("table2", table2),
        ("fig01_batch_sweep", fig01_batch_sweep),
        ("fig03_precision", fig03_precision),
        ("fig04_power_precision", fig04_power_precision),
        ("fig05_util_cdf_precision", fig05_util_cdf_precision),
        ("fig06_concurrent_orin", fig06_concurrent_orin),
        ("fig07_concurrent_nano", fig07_concurrent_nano),
        ("fig08_power_orin", fig08_power_orin),
        ("fig09_power_nano", fig09_power_nano),
        ("fig10_util_cdf_concurrent", fig10_util_cdf_concurrent),
        ("fig11_events_orin", fig11_events_orin),
        ("fig12_events_nano", fig12_events_nano),
        ("headline_gap", headline_gap),
        ("policy_comparison", policy_comparison),
        ("autoscale_comparison", autoscale_comparison),
        ("fleet_comparison", fleet_comparison),
    ]
}

/// Every harness, as plain function pointers in paper order.
fn harnesses() -> Vec<fn() -> FigureResult> {
    registry().into_iter().map(|(_, harness)| harness).collect()
}

/// Every figure and table, in paper order.
pub fn all() -> Vec<FigureResult> {
    harnesses().into_iter().map(|harness| harness()).collect()
}

/// Every figure and table, computed in parallel across worker threads
/// but returned in paper order.
///
/// The harnesses are independent: the shared concurrency grids
/// (`orin_int8_grid`, `nano_fp16_grid`) sit behind `OnceLock`s so
/// concurrent harnesses block on one computation instead of repeating
/// it, and every engine build is served by the process-wide engine
/// cache, so e.g. figures 6, 8 and 11 compile each `(model, int8,
/// batch)` engine exactly once between them. A panicking harness
/// re-raises its panic once the other harnesses have finished.
pub fn all_parallel() -> Vec<FigureResult> {
    jetsim::pool::run_isolated(harnesses(), None, |harness| harness())
        .into_iter()
        .map(|result| result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() {
        std::env::set_var("JETSIM_FAST", "1");
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.tables[0].1.to_markdown().contains("Tensor Cores"));
        let t2 = table2();
        assert_eq!(t2.tables[0].1.len(), 10);
    }

    #[test]
    fn fig01_rows_cover_batches() {
        fast();
        let fig = fig01_batch_sweep();
        assert_eq!(fig.tables[0].1.len(), 5);
    }

    #[test]
    fn headline_gap_runs() {
        fast();
        let fig = headline_gap();
        assert_eq!(fig.tables[0].1.len(), 3);
    }

    #[test]
    fn policy_comparison_covers_grid() {
        fast();
        let fig = policy_comparison();
        // 2 deployments × 2 rates × 4 policies.
        assert_eq!(fig.tables[0].1.len(), 16);
    }

    #[test]
    fn priority_policy_improves_hi_tenant_p99() {
        fast();
        // Under contention, preemptive priority must cut the
        // high-priority tenant's tail latency relative to fair
        // round-robin in at least one swept cell (the PR's acceptance
        // criterion).
        let mut wins = 0;
        for deployment in ["resnet50-hi+fcn", "resnet50-hi+2xyolo"] {
            for rate in [40.0, 120.0] {
                let rr = policy_cell(deployment, rate, GpuPolicy::TimesliceRR);
                let pr = policy_cell(deployment, rate, "priority".parse().unwrap());
                if pr.groups[0].p99_ms < rr.groups[0].p99_ms {
                    wins += 1;
                }
            }
        }
        assert!(wins >= 1, "priority never beat rr on hi-tenant p99");
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((jain(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
