//! The paper oracle: the paper's reported numbers and its boxed
//! takeaways as one table of executable checks.
//!
//! The table has two lists. An *anchor* is a number the paper reports,
//! with the half-open band `[lo, hi)` the simulated platform must land
//! in. An *observation* is a qualitative claim, either a boxed §6–§7
//! takeaway or an ordering the paper's numbers imply, with a predicate
//! over the inputs it runs. Every row runs its own inputs on fixed
//! windows and reads no environment variable, so the `validate_anchors`
//! binary, `repro_all` and the tier-1 tests check the same numbers.
//! Sections follow the Extended version of the paper (arXiv 2508.08430).

use std::ops::Range;

use jetsim_des::SimDuration;
use jetsim_dnn::Precision::{Fp16, Fp32, Int8, Tf32};
use jetsim_dnn::{zoo, ModelGraph, Precision};
use jetsim_profile::{JetsonStatsReport, NsightReport};
use jetsim_sim::{ArrivalModel, RunTrace};

use crate::deployment::Deployment;
use crate::platform::Platform;
use crate::profiler::{DualPhaseProfiler, WorkloadProfile};
use crate::report::Table;
use crate::sweep::{CellMetrics, SweepCell, SweepSpec};

/// The outcome of checking one row of the oracle.
#[derive(Debug, Clone)]
pub struct Check {
    /// The row's id, unique across both lists, e.g. `obs-6.1.1-orin`.
    pub id: &'static str,
    /// The paper section the row comes from, e.g. `§6.1.1`.
    pub section: &'static str,
    /// The paper's claim, or the quantity an anchor measures.
    pub claim: &'static str,
    /// Whether the simulated platform exhibits it.
    pub holds: bool,
    /// Numbers backing the verdict.
    pub evidence: String,
}

/// Every row's warmup: with [`MEASURE`], the paper's long-run
/// methodology scaled to simulation time.
const WARMUP: SimDuration = SimDuration::from_millis(300);
/// Every row's measured window.
const MEASURE: SimDuration = SimDuration::from_millis(1500);

/// A number the paper reports and the band the simulator must land in.
struct Anchor {
    id: &'static str,
    section: &'static str,
    quantity: &'static str,
    paper: f64,
    /// Half-open: a row holds when `band.start <= measured < band.end`.
    band: Range<f64>,
    measure: fn() -> f64,
}

impl Anchor {
    fn check(&self) -> Check {
        self.verdict((self.measure)())
    }

    fn verdict(&self, measured: f64) -> Check {
        Check {
            id: self.id,
            section: self.section,
            claim: self.quantity,
            holds: self.band.contains(&measured),
            evidence: format!(
                "paper {}, measured {measured:.3}, band [{}, {})",
                self.paper, self.band.start, self.band.end
            ),
        }
    }
}

/// A predicate's outcome and the numbers behind it.
type Verdict = (bool, String);

/// A qualitative claim and the predicate that checks it on its inputs.
struct Observation {
    id: &'static str,
    section: &'static str,
    claim: &'static str,
    verdict: fn() -> Verdict,
}

impl Observation {
    fn check(&self) -> Check {
        let (holds, evidence) = (self.verdict)();
        Check {
            id: self.id,
            section: self.section,
            claim: self.claim,
            holds,
            evidence,
        }
    }
}

const ANCHORS: &[Anchor] = &[
    Anchor {
        id: "nsight-intrusion",
        section: "§4",
        quantity: "throughput the Nsight phase costs, ResNet50 int8, Orin Nano (fraction)",
        paper: 0.5,
        band: 0.3..0.65,
        measure: || profile(&orin(), &zoo::resnet50(), Int8).intrusion,
    },
    Anchor {
        id: "resnet-int8-speedup",
        section: "§6.1.1",
        quantity: "ResNet50 int8/fp32 speedup, Orin Nano (×)",
        paper: 9.75,
        band: 5.0..13.0,
        measure: || int8_speedup(&zoo::resnet50()),
    },
    Anchor {
        id: "fcn-int8-speedup",
        section: "§6.1.1",
        quantity: "FCN_ResNet50 int8/fp32 speedup, Orin Nano (×)",
        paper: 12.0,
        band: 7.0..16.0,
        measure: || int8_speedup(&zoo::fcn_resnet50()),
    },
    Anchor {
        id: "yolo-int8-speedup",
        section: "§6.1.1",
        quantity: "YoloV8n int8/fp32 speedup, Orin Nano (×)",
        paper: 3.0,
        band: 2.0..7.0,
        measure: || int8_speedup(&zoo::yolov8n()),
    },
    Anchor {
        id: "resnet-mem-ratio",
        section: "§6.1.1",
        quantity: "ResNet50 fp32/int8 engine GPU memory, Orin Nano (×)",
        paper: 2.0,
        band: 1.5..2.6,
        measure: || memory_ratio(&zoo::resnet50()),
    },
    Anchor {
        id: "fcn-mem-ratio",
        section: "§6.1.1",
        quantity: "FCN_ResNet50 fp32/int8 engine GPU memory, Orin Nano (×)",
        paper: 2.0,
        band: 1.5..2.8,
        measure: || memory_ratio(&zoo::fcn_resnet50()),
    },
    Anchor {
        id: "yolo-mem-ratio",
        section: "§6.1.1",
        quantity: "YoloV8n fp32/int8 engine GPU memory, Orin Nano (×)",
        paper: 1.25,
        band: 1.05..1.5,
        measure: || memory_ratio(&zoo::yolov8n()),
    },
    Anchor {
        id: "yolo-nano-fp16",
        section: "§6.1.1",
        quantity: "YoloV8n fp16 throughput at batch 1, Jetson Nano (img/s)",
        paper: 20.0,
        band: 15.0..30.0,
        measure: || stats(&nano(), &zoo::yolov8n(), Fp16, 1, 1).throughput,
    },
    Anchor {
        id: "fcn-fp16-orin",
        section: "§6.1.2",
        quantity: "FCN_ResNet50 fp16 throughput, Orin Nano (img/s)",
        paper: 18.57,
        band: 13.0..25.0,
        measure: || stats(&orin(), &zoo::fcn_resnet50(), Fp16, 1, 1).throughput,
    },
    Anchor {
        id: "fcn-tf32-orin",
        section: "§6.1.2",
        quantity: "FCN_ResNet50 tf32 throughput, Orin Nano (img/s)",
        paper: 6.86,
        band: 4.5..9.5,
        measure: || stats(&orin(), &zoo::fcn_resnet50(), Tf32, 1, 1).throughput,
    },
    Anchor {
        id: "fcn-fp16-power",
        section: "§6.1.2",
        quantity: "FCN_ResNet50 fp16 mean power, Orin Nano (W)",
        paper: 5.83,
        band: 5.2..6.4,
        measure: || stats(&orin(), &zoo::fcn_resnet50(), Fp16, 1, 1).mean_power_w,
    },
    Anchor {
        id: "fcn-tf32-power",
        section: "§6.1.2",
        quantity: "FCN_ResNet50 tf32 mean power, Orin Nano (W)",
        paper: 6.39,
        band: 5.8..7.0,
        measure: || stats(&orin(), &zoo::fcn_resnet50(), Tf32, 1, 1).mean_power_w,
    },
    Anchor {
        id: "nano-fp16-j-per-img",
        section: "§6.1.2",
        quantity: "ResNet50 fp16 energy per image, Jetson Nano (J)",
        paper: 0.125,
        band: 0.09..0.18,
        measure: || stats(&nano(), &zoo::resnet50(), Fp16, 1, 1).power_per_image,
    },
    Anchor {
        id: "nano-int8-j-per-img",
        section: "§6.1.2",
        quantity: "ResNet50 int8 (fp32 fallback) energy per image, Jetson Nano (J)",
        paper: 0.23,
        band: 0.18..0.40,
        measure: || stats(&nano(), &zoo::resnet50(), Int8, 1, 1).power_per_image,
    },
    Anchor {
        id: "yolo-tp-b1",
        section: "§6.2.1",
        quantity: "YoloV8n int8 T/P at batch 1, 1 process, Orin Nano (img/s)",
        paper: 210.0,
        band: 150.0..320.0,
        measure: || stats(&orin(), &zoo::yolov8n(), Int8, 1, 1).throughput_per_process,
    },
    Anchor {
        id: "yolo-tp-p8",
        section: "§6.2.1",
        quantity: "YoloV8n int8 T/P at batch 1, 8 processes, Orin Nano (img/s)",
        paper: 10.0,
        band: 5.0..30.0,
        measure: || stats(&orin(), &zoo::yolov8n(), Int8, 1, 8).throughput_per_process,
    },
    // The paper gives launches as a 20–100 µs range; its ends stand for
    // the uncontended and the contended case.
    Anchor {
        id: "launch-p1",
        section: "§7",
        quantity: "ResNet50 int8 launch per kernel, 1 process, Orin Nano (µs; paper 20–100)",
        paper: 20.0,
        band: 15.0..70.0,
        measure: || per_launch_us(1),
    },
    Anchor {
        id: "launch-p8",
        section: "§7",
        quantity: "ResNet50 int8 launch per kernel, 8 processes, Orin Nano (µs; paper 20–100)",
        paper: 100.0,
        band: 40.0..160.0,
        measure: || per_launch_us(8),
    },
    Anchor {
        id: "nano-ec-doubling",
        section: "§7",
        quantity: "ResNet50 fp16 EC at 4 processes over 2, Jetson Nano (×)",
        paper: 2.0,
        band: 1.6..3.5,
        measure: || {
            let cells = sweep(&nano(), &zoo::resnet50(), &[Fp16], &[1], &[2, 4]);
            let ec = |p| metric(&cells, Fp16, 1, p, |m| m.mean_ec_ms).unwrap_or(f64::NAN);
            ec(4) / ec(2)
        },
    },
];

const OBSERVATIONS: &[Observation] = &[
    Observation {
        id: "resnet-fp16-busy-gpu",
        section: "§1",
        claim: "ResNet50 fp16 keeps the Orin Nano's GPU over 90% busy in under 3% of its memory",
        verdict: || {
            let r = stats(&orin(), &zoo::resnet50(), Fp16, 1, 1);
            let (busy, mem) = (r.gpu_utilization_percent, r.gpu_memory_percent);
            (
                busy > 90.0 && mem < 3.0,
                format!("GPU {busy:.1}% busy, memory {mem:.2}%"),
            )
        },
    },
    Observation {
        id: "obs-6.1.1-orin",
        section: "§6.1.1",
        claim: "int8 is the fastest precision on the Orin Nano",
        verdict: || optimal_precision(&precision_sweep(&orin(), &zoo::resnet50()), Int8),
    },
    Observation {
        id: "obs-6.1.1-nano",
        section: "§6.1.1",
        claim: "fp16 is the fastest precision on the Jetson Nano",
        verdict: || {
            per_model([zoo::resnet50(), zoo::yolov8n()], |m| {
                optimal_precision(&precision_sweep(&nano(), m), Fp16)
            })
        },
    },
    Observation {
        id: "obs-6.1.1-mem",
        section: "§6.1.1",
        claim: "GPU memory grows from int8 to fp32 on the Orin Nano",
        verdict: || {
            per_model(zoo::all(), |m| {
                memory_grows_with_precision(&precision_sweep(&orin(), m))
            })
        },
    },
    Observation {
        id: "yolo-speedup-smallest",
        section: "§6.1.1",
        claim: "YoloV8n's int8/fp32 speedup is the smallest of the three models",
        verdict: || smallest_for_yolo(int8_speedup),
    },
    Observation {
        id: "yolo-mem-ratio-smallest",
        section: "§6.1.1",
        claim: "YoloV8n's fp32/int8 memory ratio is the smallest of the three models",
        verdict: || smallest_for_yolo(memory_ratio),
    },
    Observation {
        id: "yolo-nano-batch-gain",
        section: "§6.1.1",
        claim: "batch 8 edges YoloV8n fp16 ahead of batch 1 on the Jetson Nano, by under 60%",
        verdict: || {
            let t = |batch| stats(&nano(), &zoo::yolov8n(), Fp16, batch, 1).throughput;
            let (b1, b8) = (t(1), t(8));
            (
                b8 > b1 && b8 < b1 * 1.6,
                format!("b1 {b1:.1} → b8 {b8:.1} img/s"),
            )
        },
    },
    Observation {
        id: "obs-6.1.2",
        section: "§6.1.2",
        claim: "the natively supported format uses the least energy per image",
        verdict: || {
            supported_format_cheapest_per_image(&precision_sweep(&nano(), &zoo::resnet50()))
        },
    },
    Observation {
        id: "obs-6.1.2-dvfs",
        section: "§6.1.2",
        claim: "fp32 draws less than tf32 under DVFS on the Orin Nano",
        verdict: || {
            per_model(zoo::all(), |m| {
                fp32_power_drops(&precision_sweep(&orin(), m))
            })
        },
    },
    Observation {
        id: "nano-fp16-half-energy",
        section: "§6.1.2",
        claim: "on the Jetson Nano, ResNet50 fp16 costs under 1/1.5 of int8's energy per image",
        verdict: || {
            let j = |precision| stats(&nano(), &zoo::resnet50(), precision, 1, 1).power_per_image;
            let (fp16, int8) = (j(Fp16), j(Int8));
            (
                fp16 < int8 / 1.5,
                format!("fp16 {fp16:.3} J vs int8 {int8:.3} J"),
            )
        },
    },
    Observation {
        id: "obs-6.1.3",
        section: "§6.1.3",
        claim: "SMs stay active while issue slots stall below 80%",
        verdict: || {
            per_model(zoo::all(), |m| {
                issue_slots_stall(&profile(&orin(), m, Fp16).kernel)
            })
        },
    },
    Observation {
        id: "obs-6.1.4",
        section: "§6.1.4",
        claim: "high TC activity does not imply high throughput (FCN fp16 vs each int8 model)",
        verdict: || {
            let tc = |model: &ModelGraph, precision| {
                let p = profile(&orin(), model, precision);
                (p.kernel.cdfs.tc.mean(), p.soc.throughput)
            };
            let pinned = tc(&zoo::fcn_resnet50(), Fp16);
            per_model([zoo::resnet50(), zoo::yolov8n()], |light| {
                tc_not_throughput(pinned, tc(light, Int8))
            })
        },
    },
    Observation {
        id: "obs-6.2.1",
        section: "§6.2.1",
        claim: "T/P rises with batch, falls with processes; memory keeps growing",
        verdict: || {
            let grids = [
                (zoo::resnet50(), 8),
                (zoo::fcn_resnet50(), 8),
                (zoo::yolov8n(), 8),
                (zoo::yolov8n(), 16),
            ];
            every(grids.iter().map(|(model, procs)| {
                let cells = sweep(&orin(), model, &[Int8], &[1, 16], &[1, *procs]);
                let label = format!("{} p1–{procs}", model.name());
                (label, tp_scaling(&cells, Int8))
            }))
        },
    },
    Observation {
        id: "yolo-tp-batch-gain",
        section: "§6.2.1",
        claim: "batch 16 lifts YoloV8n int8 T/P by over 10% on the Orin Nano",
        verdict: || {
            let tp = |batch| stats(&orin(), &zoo::yolov8n(), Int8, batch, 1).throughput_per_process;
            let (b1, b16) = (tp(1), tp(16));
            (b16 > b1 * 1.1, format!("b1 {b1:.1} → b16 {b16:.1} img/s"))
        },
    },
    Observation {
        id: "yolo-16-proc-memory",
        section: "§6.2.1",
        claim: "1 YoloV8n int8 b8 process takes under 10% of GPU memory, 16 b16 ones over 35%",
        verdict: || {
            let pct = |batch, procs| {
                let config = Deployment::homogeneous(&zoo::yolov8n(), Int8, batch, procs)
                    .config_builder(&orin(), ArrivalModel::Saturated)
                    .expect("paper engines build")
                    .build()
                    .expect("paper configs are valid");
                config.device.memory.gpu_percent(config.gpu_memory_bytes())
            };
            let (one, sixteen) = (pct(8, 1), pct(16, 16));
            (
                one < 10.0 && sixteen > 35.0,
                format!("1 × b8 {one:.1}%, 16 × b16 {sixteen:.1}%"),
            )
        },
    },
    Observation {
        id: "obs-6.2.2-orin",
        section: "§6.2.2",
        claim: "mean power never crosses the Orin Nano's 7 W budget",
        verdict: || {
            let budget = orin().device().power.budget_w;
            let resnet = sweep(
                &orin(),
                &zoo::resnet50(),
                &[Int8],
                &[1, 2, 4, 8, 16],
                &[1, 2, 4, 8],
            );
            let fcn = sweep(
                &orin(),
                &zoo::fcn_resnet50(),
                &Precision::ALL,
                &[1, 16],
                &[1, 4],
            );
            every([
                ("resnet50 int8".to_string(), power_capped(&resnet, budget)),
                ("fcn_resnet50".to_string(), power_capped(&fcn, budget)),
            ])
        },
    },
    Observation {
        id: "obs-6.2.2-nano",
        section: "§6.2.2",
        claim: "mean power never crosses the Jetson Nano's 5 W budget",
        verdict: || {
            let cells = sweep(&nano(), &zoo::resnet50(), &[Fp16, Fp32], &[1, 8], &[1, 2]);
            power_capped(&cells, nano().device().power.budget_w)
        },
    },
    Observation {
        id: "obs-7",
        section: "§7",
        claim: "EC stable iff processes fit the heavy cores",
        verdict: || {
            let cells = sweep(&orin(), &zoo::resnet50(), &[Int8], &[1], &[1, 2, 4, 8]);
            ec_stability(&cells, Int8, orin().device().cpu.heavy_cores)
        },
    },
    Observation {
        id: "obs-7-batch",
        section: "§7",
        claim: "larger batches reduce per-image EC time",
        verdict: || {
            let cells = sweep(&orin(), &zoo::resnet50(), &[Int8], &[1, 2, 4, 8, 16], &[1]);
            batch_stabilizes_ec(&cells, Int8)
        },
    },
    Observation {
        id: "launch-stretches",
        section: "§7",
        claim: "per-kernel launches stretch over 1.5× from 1 to 8 ResNet50 int8 processes",
        verdict: || {
            let (p1, p8) = (per_launch_us(1), per_launch_us(8));
            (p8 > p1 * 1.5, format!("p1 {p1:.1} µs → p8 {p8:.1} µs"))
        },
    },
    Observation {
        id: "blocking-p8",
        section: "§7",
        claim: "8 ResNet50 int8 processes on the Orin Nano block for over 10 ms per EC",
        verdict: || {
            let blocking = resnet_int8_trace(8).processes[0].mean_blocking_time;
            let ms = blocking.as_secs_f64() * 1e3;
            (
                blocking > SimDuration::from_millis(10),
                format!("mean blocking {ms:.2} ms per EC"),
            )
        },
    },
];

/// Every row id, anchors first, in table order.
pub fn row_ids() -> impl Iterator<Item = &'static str> {
    ANCHORS
        .iter()
        .map(|a| a.id)
        .chain(OBSERVATIONS.iter().map(|o| o.id))
}

/// Runs the row with this id, or returns `None` if no row has it.
pub fn check(id: &str) -> Option<Check> {
    if let Some(anchor) = ANCHORS.iter().find(|a| a.id == id) {
        return Some(anchor.check());
    }
    OBSERVATIONS
        .iter()
        .find(|o| o.id == id)
        .map(Observation::check)
}

/// Runs every row of both lists, in table order.
pub fn check_all() -> Vec<Check> {
    ANCHORS
        .iter()
        .map(Anchor::check)
        .chain(OBSERVATIONS.iter().map(Observation::check))
        .collect()
}

/// Renders checks as one table, one line per check.
pub fn table(checks: &[Check]) -> Table {
    let mut table = Table::new(["id", "section", "claim", "verdict", "evidence"]);
    for check in checks {
        table.row([
            check.id,
            check.section,
            check.claim,
            if check.holds { "PASS" } else { "FAIL" },
            &check.evidence,
        ]);
    }
    table
}

fn orin() -> Platform {
    Platform::orin_nano()
}

fn nano() -> Platform {
    Platform::jetson_nano()
}

fn profiler(
    platform: &Platform,
    model: &ModelGraph,
    precision: Precision,
    batch: u32,
    procs: u32,
) -> DualPhaseProfiler {
    DualPhaseProfiler::new(platform)
        .deployment(&Deployment::homogeneous(model, precision, batch, procs))
        .expect("paper engines build")
        .warmup(WARMUP)
        .measure(MEASURE)
}

/// Phase 1 (jetson-stats) of `procs` identical processes.
fn stats(
    platform: &Platform,
    model: &ModelGraph,
    precision: Precision,
    batch: u32,
    procs: u32,
) -> JetsonStatsReport {
    let (report, _) = profiler(platform, model, precision, batch, procs)
        .run_phase1()
        .expect("paper workloads fit in memory");
    report
}

/// Phase 1 of `procs` ResNet50 int8 processes on the Orin Nano.
fn resnet_int8_trace(procs: u32) -> RunTrace {
    let (_, trace) = profiler(&orin(), &zoo::resnet50(), Int8, 1, procs)
        .run_phase1()
        .expect("paper workloads fit in memory");
    trace
}

/// Both phases of one batch-1 process.
fn profile(platform: &Platform, model: &ModelGraph, precision: Precision) -> WorkloadProfile {
    profiler(platform, model, precision, 1, 1)
        .run()
        .expect("paper workloads fit in memory")
}

fn sweep(
    platform: &Platform,
    model: &ModelGraph,
    precisions: &[Precision],
    batches: &[u32],
    procs: &[u32],
) -> Vec<SweepCell> {
    SweepSpec::new()
        .precisions(precisions.iter().copied())
        .batches(batches.iter().copied())
        .process_counts(procs.iter().copied())
        .warmup(WARMUP)
        .measure(MEASURE)
        .run(platform, model)
}

/// Every precision at batch 1, one process.
fn precision_sweep(platform: &Platform, model: &ModelGraph) -> Vec<SweepCell> {
    sweep(platform, model, &Precision::ALL, &[1], &[1])
}

fn int8_speedup(model: &ModelGraph) -> f64 {
    let t = |precision| stats(&orin(), model, precision, 1, 1).throughput;
    t(Int8) / t(Fp32)
}

fn memory_ratio(model: &ModelGraph) -> f64 {
    let orin = orin();
    let ctx = orin.device().memory.cuda_context_bytes;
    let bytes = |precision| {
        orin.build_engine(model, precision, 1)
            .expect("paper engines build")
            .gpu_memory_bytes(ctx) as f64
    };
    bytes(Fp32) / bytes(Int8)
}

/// A ResNet50 int8 process's launch time per EC over its engine's kernels.
fn per_launch_us(procs: u32) -> f64 {
    let kernels = orin()
        .build_engine(&zoo::resnet50(), Int8, 1)
        .expect("paper engines build")
        .kernel_count();
    let launch = resnet_int8_trace(procs).processes[0].mean_launch_time;
    launch.as_micros_f64() / kernels as f64
}

/// Holds when every labelled verdict holds (and there is at least one).
fn every(parts: impl IntoIterator<Item = (String, Verdict)>) -> Verdict {
    let mut holds = true;
    let mut notes = Vec::new();
    for (label, (ok, evidence)) in parts {
        holds &= ok;
        notes.push(format!("{label}: {evidence}"));
    }
    (holds && !notes.is_empty(), notes.join("; "))
}

/// [`every`] over models, labelled by name.
fn per_model(
    models: impl IntoIterator<Item = ModelGraph>,
    verdict: impl Fn(&ModelGraph) -> Verdict,
) -> Verdict {
    every(
        models
            .into_iter()
            .map(|m| (m.name().to_string(), verdict(&m))),
    )
}

/// Holds when YoloV8n has the smallest `f` of the three paper models.
fn smallest_for_yolo(f: fn(&ModelGraph) -> f64) -> Verdict {
    let [resnet, fcn, yolo] = [zoo::resnet50(), zoo::fcn_resnet50(), zoo::yolov8n()].map(|m| f(&m));
    (
        yolo < resnet && yolo < fcn,
        format!("yolov8n {yolo:.2}× vs resnet50 {resnet:.2}×, fcn_resnet50 {fcn:.2}×"),
    )
}

fn missing() -> Verdict {
    (false, "missing cells".to_string())
}

/// The b1/p1 value of `f` for each precision whose cell ran, in
/// [`Precision::ALL`] order.
fn per_precision(cells: &[SweepCell], f: fn(&CellMetrics) -> f64) -> Vec<(Precision, f64)> {
    Precision::ALL
        .iter()
        .filter_map(|&p| metric(cells, p, 1, 1, f).map(|v| (p, v)))
        .collect()
}

fn tp(cells: &[SweepCell], precision: Precision, batch: u32, procs: u32) -> Option<f64> {
    metric(cells, precision, batch, procs, |m| m.throughput_per_process)
}

fn metric(
    cells: &[SweepCell],
    precision: Precision,
    batch: u32,
    procs: u32,
    f: fn(&CellMetrics) -> f64,
) -> Option<f64> {
    cells
        .iter()
        .find(|c| c.precision == precision && c.batch == batch && c.processes == procs)
        .and_then(|c| c.outcome.metrics())
        .map(f)
}

/// §6.1.1 — "int8 models are beneficial on Jetson Orin Nano whereas fp16
/// models are optimal for Jetson Nano." Takes the b1/p1 precision sweep
/// of one model and the expected winner for the device.
fn optimal_precision(cells: &[SweepCell], expected: Precision) -> Verdict {
    let fastest = per_precision(cells, |m| m.throughput_per_process)
        .into_iter()
        .reduce(|best, next| if next.1 > best.1 { next } else { best });
    let Some((winner, t)) = fastest else {
        return missing();
    };
    (
        winner == expected,
        format!("fastest precision {winner} at {t:.1} img/s (expected {expected})"),
    )
}

/// §6.1.1 — "GPU memory usage typically increases when higher precision
/// levels are used." Needs the b1/p1 cell of every precision.
fn memory_grows_with_precision(cells: &[SweepCell]) -> Verdict {
    let mem = per_precision(cells, |m| m.gpu_memory_percent);
    if mem.len() < Precision::ALL.len() {
        return missing();
    }
    (
        mem.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-9),
        mem.iter()
            .map(|(p, v)| format!("{p} {v:.2}%"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// §6.1.2 — "supported precision formats consume less power per image
/// than unsupported formats" (Jetson Nano: fp16 vs the fp32 fallbacks).
fn supported_format_cheapest_per_image(cells: &[SweepCell]) -> Verdict {
    let ppi = per_precision(cells, |m| m.power_per_image);
    let fp16 = ppi.iter().find(|(p, _)| *p == Precision::Fp16).map(|x| x.1);
    let holds = match fp16 {
        Some(f) => ppi.iter().all(|&(p, v)| p == Precision::Fp16 || f < v),
        None => false,
    };
    (
        holds,
        ppi.iter()
            .map(|(p, v)| format!("{p} {v:.3} J"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// §6.1.2 (Orin) — "power notably drops for fp32" thanks to DVFS.
fn fp32_power_drops(cells: &[SweepCell]) -> Verdict {
    let power = |p| metric(cells, p, 1, 1, |m| m.mean_power_w);
    let (Some(tf32), Some(fp32)) = (power(Precision::Tf32), power(Precision::Fp32)) else {
        return missing();
    };
    let freq = metric(cells, Precision::Fp32, 1, 1, |m| {
        f64::from(m.final_gpu_freq_mhz)
    });
    (
        fp32 < tf32,
        format!(
            "fp32 {fp32:.2} W vs tf32 {tf32:.2} W (fp32 clock {} MHz)",
            freq.unwrap_or(0.0)
        ),
    )
}

/// §6.1.3 — "low issue slot utilisation … highlights significant
/// instruction stalls": SM active high, issue slot ≤ 80 % and ~25–45 %
/// on average.
fn issue_slots_stall(report: &NsightReport) -> Verdict {
    let sm = report.cdfs.sm_active.mean();
    let issue = report.cdfs.issue_slot.mean();
    let max_issue = report.cdfs.issue_slot.quantile(1.0);
    (
        sm > 0.55 && issue < sm && max_issue <= 0.8 && (0.1..=0.5).contains(&issue),
        format!(
            "SM mean {:.0}%, issue mean {:.0}%, issue max {:.0}%",
            sm * 100.0,
            issue * 100.0,
            max_issue * 100.0
        ),
    )
}

/// §6.1.4 — "higher TC utilisation does not always equate to higher
/// throughput". Takes (tc_mean, throughput) for a TC-pinned slow model
/// and a TC-light fast one.
fn tc_not_throughput(pinned: (f64, f64), light: (f64, f64)) -> Verdict {
    (
        pinned.0 > light.0 && pinned.1 < light.1,
        format!(
            "TC {:.0}% at {:.1} img/s vs TC {:.0}% at {:.1} img/s",
            pinned.0 * 100.0,
            pinned.1,
            light.0 * 100.0,
            light.1
        ),
    )
}

/// §6.2.1 — "T/P increases with larger batch sizes … declines as the
/// number of concurrent processes increases", while GPU memory keeps
/// growing with both.
fn tp_scaling(cells: &[SweepCell], precision: Precision) -> Verdict {
    let batches: Vec<u32> = sorted_values(cells, |c| c.batch);
    let procs: Vec<u32> = sorted_values(cells, |c| c.processes);
    let (&bmin, &bmax) = (batches.first().unwrap_or(&1), batches.last().unwrap_or(&1));
    let (&pmin, &pmax) = (procs.first().unwrap_or(&1), procs.last().unwrap_or(&1));
    let batch_up = match (
        tp(cells, precision, bmin, pmin),
        tp(cells, precision, bmax, pmin),
    ) {
        (Some(lo), Some(hi)) => hi > lo,
        _ => false,
    };
    let procs_down = match (
        tp(cells, precision, bmin, pmin),
        tp(cells, precision, bmin, pmax),
    ) {
        (Some(lo), Some(hi)) => hi < lo,
        _ => false,
    };
    let mem_up = match (
        metric(cells, precision, bmin, pmin, |m| m.gpu_memory_percent),
        metric(cells, precision, bmax, pmax, |m| m.gpu_memory_percent),
    ) {
        (Some(lo), Some(hi)) => hi > lo,
        // The largest cell may legitimately be OOM — that *is* growth.
        (Some(_), None) => true,
        _ => false,
    };
    (
        batch_up && procs_down && mem_up,
        format!("batch_up {batch_up}, procs_down {procs_down}, mem_up {mem_up}"),
    )
}

/// §6.2.2 — "power consumption never crosses a certain value" (7 W Orin
/// Nano, 5 W Jetson Nano). Needs at least one cell that ran.
fn power_capped(cells: &[SweepCell], budget_w: f64) -> Verdict {
    let Some(peak) = cells
        .iter()
        .filter_map(|c| c.outcome.metrics())
        .map(|m| m.mean_power_w)
        .reduce(f64::max)
    else {
        return missing();
    };
    (
        peak <= budget_w * 1.05,
        format!("peak mean power {peak:.2} W vs budget {budget_w:.1} W"),
    )
}

/// §7 — "if the number of processes is equal to or fewer than half the
/// available CPU cores, the EC duration remains stable … when it exceeds
/// this threshold, both the EC duration and kernel launch time increase."
/// Needs every b1 cell of the grid, p1 and one past `heavy_cores` among them.
fn ec_stability(cells: &[SweepCell], precision: Precision, heavy_cores: u32) -> Verdict {
    let mut ran = Vec::new();
    let mut absent = Vec::new();
    for p in sorted_values(cells, |c| c.processes) {
        let ec = metric(cells, precision, 1, p, |m| m.mean_ec_ms);
        let launch = metric(cells, precision, 1, p, |m| m.mean_launch_ms);
        match ec.zip(launch) {
            Some((e, l)) => ran.push((p, e, l)),
            None => absent.push(format!("p{p}")),
        }
    }
    if !absent.is_empty() {
        return (false, format!("missing cells: {}", absent.join(", ")));
    }
    let Some(&(_, base, base_launch)) = ran.iter().find(|&&(p, ..)| p == 1) else {
        return (false, "missing cells: p1".to_string());
    };
    if !ran.iter().any(|&(p, ..)| p > heavy_cores) {
        return (false, format!("missing cells: none past p{heavy_cores}"));
    }
    // Oversubscribed: EC must blow up and launches must stretch.
    let holds = ran
        .iter()
        .all(|&(p, e, l)| p <= heavy_cores || (e >= base * 1.8 && l > base_launch));
    let mut notes = vec![format!("EC(p1) {base:.2} ms")];
    notes.extend(
        ran.iter()
            .map(|(p, e, l)| format!("p{p}: EC {e:.2} ms launch {l:.2} ms")),
    );
    (holds, notes.join("; "))
}

/// §7 — "employing larger batch sizes helps stabilise the EC duration":
/// per-image EC time falls as batch grows.
fn batch_stabilizes_ec(cells: &[SweepCell], precision: Precision) -> Verdict {
    let batches: Vec<u32> = sorted_values(cells, |c| c.batch);
    let per_image: Vec<(u32, f64)> = batches
        .iter()
        .filter_map(|&b| {
            metric(cells, precision, b, 1, |m| m.mean_ec_ms).map(|e| (b, e / f64::from(b)))
        })
        .collect();
    let holds = per_image.len() >= 2
        && per_image.last().map(|x| x.1).unwrap_or(f64::MAX)
            < per_image.first().map(|x| x.1).unwrap_or(0.0);
    (
        holds,
        per_image
            .iter()
            .map(|(b, e)| format!("b{b} {e:.2} ms/img"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn sorted_values(cells: &[SweepCell], f: fn(&SweepCell) -> u32) -> Vec<u32> {
    let mut v: Vec<u32> = cells.iter().map(f).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{CellMetrics, CellOutcome, SweepCell};

    fn cell(precision: Precision, batch: u32, procs: u32, tput: f64, mem: f64) -> SweepCell {
        SweepCell {
            model: "m".into(),
            device: "d".into(),
            precision,
            batch,
            processes: procs,
            offered_load: None,
            gpu_policy: "rr".into(),
            outcome: CellOutcome::Ok(CellMetrics {
                throughput: tput * f64::from(procs),
                throughput_per_process: tput,
                mean_power_w: 5.0,
                gpu_memory_percent: mem,
                gpu_utilization_percent: 90.0,
                power_per_image: 5.0 / tput,
                mean_ec_ms: f64::from(batch) * 1000.0 / tput,
                mean_launch_ms: 2.0 * f64::from(procs),
                mean_blocking_ms: 0.0,
                mean_sync_ms: 0.1,
                final_gpu_freq_mhz: 625,
                tenants: vec![],
            }),
        }
    }

    fn oom(precision: Precision, batch: u32, procs: u32) -> SweepCell {
        SweepCell {
            outcome: CellOutcome::OutOfMemory {
                required_mib: 9000,
                usable_mib: 7000,
            },
            ..cell(precision, batch, procs, 1.0, 1.0)
        }
    }

    #[test]
    fn optimal_precision_detects_winner() {
        let cells = vec![
            cell(Precision::Int8, 1, 1, 400.0, 1.5),
            cell(Precision::Fp16, 1, 1, 260.0, 1.9),
            cell(Precision::Fp32, 1, 1, 60.0, 2.7),
        ];
        assert!(optimal_precision(&cells, Precision::Int8).0);
        assert!(!optimal_precision(&cells, Precision::Fp16).0);
    }

    #[test]
    fn memory_monotonicity() {
        let grid = |mem: [f64; 4]| -> Vec<SweepCell> {
            Precision::ALL
                .iter()
                .zip(mem)
                .map(|(&p, m)| cell(p, 1, 1, 1.0, m))
                .collect()
        };
        assert!(memory_grows_with_precision(&grid([1.0, 2.0, 3.0, 3.0])).0);
        assert!(!memory_grows_with_precision(&grid([5.0, 2.0, 3.0, 3.0])).0);
    }

    #[test]
    fn memory_growth_fails_on_missing_cells() {
        assert_eq!(memory_grows_with_precision(&[]), missing());
        let partial = vec![
            cell(Precision::Int8, 1, 1, 1.0, 1.0),
            cell(Precision::Fp16, 1, 1, 1.0, 2.0),
        ];
        assert_eq!(memory_grows_with_precision(&partial), missing());
    }

    #[test]
    fn tp_scaling_check() {
        let cells = vec![
            cell(Precision::Int8, 1, 1, 200.0, 1.0),
            cell(Precision::Int8, 16, 1, 300.0, 3.0),
            cell(Precision::Int8, 1, 8, 15.0, 8.0),
            cell(Precision::Int8, 16, 8, 30.0, 24.0),
        ];
        assert!(tp_scaling(&cells, Precision::Int8).0);
    }

    #[test]
    fn power_cap_check() {
        let cells = vec![cell(Precision::Int8, 1, 1, 100.0, 1.0)];
        assert!(power_capped(&cells, 7.0).0);
        assert!(!power_capped(&cells, 4.0).0);
    }

    #[test]
    fn power_cap_fails_on_missing_cells() {
        assert_eq!(power_capped(&[], 7.0), missing());
        let all_oom = vec![oom(Precision::Int8, 16, 8), oom(Precision::Fp32, 16, 8)];
        assert_eq!(power_capped(&all_oom, 7.0), missing());
    }

    #[test]
    fn ec_stability_fails_when_oversubscribed_cells_are_missing() {
        let cells = vec![
            cell(Precision::Int8, 1, 1, 400.0, 1.0),
            cell(Precision::Int8, 1, 2, 180.0, 2.0),
            oom(Precision::Int8, 1, 4),
            oom(Precision::Int8, 1, 8),
        ];
        let missing_p4_p8 = (false, "missing cells: p4, p8".to_string());
        assert_eq!(ec_stability(&cells, Precision::Int8, 3), missing_p4_p8);
        let none_past_p3 = (false, "missing cells: none past p3".to_string());
        assert_eq!(ec_stability(&cells[..2], Precision::Int8, 3), none_past_p3);
    }

    #[test]
    fn tc_vs_throughput() {
        assert!(tc_not_throughput((0.9, 18.0), (0.2, 400.0)).0);
        assert!(!tc_not_throughput((0.1, 500.0), (0.2, 400.0)).0);
    }

    #[test]
    fn batch_stabilisation() {
        let cells = vec![
            cell(Precision::Int8, 1, 1, 200.0, 1.0),
            cell(Precision::Int8, 16, 1, 400.0, 2.0),
        ];
        assert!(batch_stabilizes_ec(&cells, Precision::Int8).0);
    }

    #[test]
    fn row_ids_are_unique() {
        let mut ids: Vec<&str> = row_ids().collect();
        let rows = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rows, "a row id is used twice");
    }

    #[test]
    fn anchor_row_prints_paper_value_and_band_exactly() {
        let row = ANCHORS
            .iter()
            .find(|a| a.id == "nano-fp16-j-per-img")
            .expect("row exists");
        let rendered = table(&[row.verdict(0.1254)]).to_markdown();
        assert_eq!(
            rendered.lines().nth(2),
            Some(
                "| nano-fp16-j-per-img | §6.1.2 | ResNet50 fp16 energy per image, Jetson Nano (J) \
                 | PASS | paper 0.125, measured 0.125, band [0.09, 0.18) |"
            )
        );
        assert!(!row.verdict(0.18).holds, "the band is half-open");
    }
}
