//! Golden-trace parity: the byte referee for refactors and
//! optimisations of the simulator.
//!
//! The same seed must produce the same [`RunTrace`] — every event time,
//! every float, every fault, request and serve record — before and
//! after any change that claims not to alter behaviour. This suite pins
//! a grid of seeds × process counts × precisions × devices, plus cells
//! that exercise the run-queue scheduler, MPS packing, open-loop
//! arrivals, Nsight instrumentation, fault injection, the serving path
//! (batching with degrading admission, scale-to-zero autoscaling, the
//! resilience stack under a fault plan, auto-delay hedging under
//! `priority` preemption) and the `priority`, `mps` and `fifo` GPU
//! policies, since each walks a distinct path. It asserts an FNV-1a
//! hash of the full trace against captured values.
//!
//! To re-capture (only legitimate when the simulation *model* changes,
//! never for a pure refactor):
//!
//! ```text
//! JETSIM_GOLDEN_CAPTURE=1 cargo test --test golden_parity -- --nocapture
//! ```

use std::fmt::Debug;
use std::sync::Arc;

use jetsim_des::{ArrivalProcess, Fnv1a, SimDuration, SimTime};
use jetsim_device::{presets, DeviceSpec};
use jetsim_dnn::{zoo, ModelGraph, Precision};
use jetsim_sim::{
    AdmissionPolicy, ArrivalModel, AutoscalerPolicy, BreakerPolicy, CpuModel, DropKind, DropRecord,
    EcRecord, FaultEvent, FaultKind, FaultPlan, GpuPolicy, HedgePolicy, KernelEvent,
    KernelPreempted, OomPolicy, PowerSample, ProcessConfig, ProcessStats, ProfilerMode,
    RecoveryPolicy, RequestRecord, RetryPolicy, RunTrace, ServeEvent, ServeEventKind, ServeGroup,
    ServePlan, SimConfig, SimConfigBuilder, Simulation,
};
use jetsim_trt::{Engine, EngineBuilder};

// --- deterministic trace hashing -----------------------------------------

/// FNV-1a over little-endian words: integers as 8 bytes, floats by bit
/// pattern, times and durations as nanoseconds, strings length-prefixed.
struct Hash(Fnv1a);

impl Hash {
    fn new() -> Self {
        Hash(Fnv1a::new())
    }
    fn u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }
    fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }
    fn bool(&mut self, b: bool) {
        self.u64(u64::from(b));
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.write(s.as_bytes());
    }
    /// A variant this file does not know yet (the enum is
    /// `#[non_exhaustive]`): hashed by its `Debug` text, so it still
    /// moves the digest, tagged apart from every known variant.
    fn unknown(&mut self, v: &impl Debug) {
        self.u64(u64::MAX);
        self.str(&format!("{v:?}"));
    }
    fn opt<T: Copy>(&mut self, v: Option<T>, mut some: impl FnMut(&mut Self, T)) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                some(self, v);
            }
        }
    }
    fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            each(self, item);
        }
    }
}

/// Hashes every field of a [`RunTrace`] and of every record it holds.
/// Each struct but the packed request record is destructured without
/// `..`, so a new field fails to compile here until the hash covers it.
fn trace_hash(t: &RunTrace) -> u64 {
    let RunTrace {
        device_name,
        measured,
        processes,
        kernel_names,
        ec_records,
        kernel_events,
        preemptions,
        power_samples,
        fault_events,
        requests,
        serve_events,
        serve_group_labels,
        budget_exceeded,
        sim_events,
        gpu_busy,
        gpu_memory_bytes,
        gpu_memory_percent,
        final_freq_mhz,
        top_freq_mhz,
        mem_bandwidth_bytes_per_sec,
    } = t;
    let mut h = Hash::new();
    h.str(device_name);
    h.dur(*measured);
    h.seq(processes, hash_process);
    h.seq(kernel_names, |h, names| h.seq(names, |h, name| h.str(name)));
    h.seq(ec_records, |h, records| h.seq(records, hash_ec));
    h.seq(kernel_events, hash_kernel);
    h.seq(preemptions, hash_preemption);
    h.seq(power_samples, hash_power);
    h.seq(fault_events, hash_fault);
    h.seq(requests, hash_request);
    h.seq(serve_events, hash_serve_event);
    h.seq(serve_group_labels, |h, label| h.str(label));
    h.bool(*budget_exceeded);
    h.u64(*sim_events);
    h.dur(*gpu_busy);
    h.u64(*gpu_memory_bytes);
    h.f64(*gpu_memory_percent);
    h.u64(u64::from(*final_freq_mhz));
    h.u64(u64::from(*top_freq_mhz));
    h.f64(*mem_bandwidth_bytes_per_sec);
    h.0.finish()
}

fn hash_process(h: &mut Hash, p: &ProcessStats) {
    let ProcessStats {
        name,
        engine_name,
        batch,
        completed_ecs,
        images,
        throughput,
        mean_ec_time,
        p50_ec_time,
        p95_ec_time,
        p99_ec_time,
        mean_launch_time,
        mean_blocking_time,
        mean_sync_time,
        mean_gpu_time,
        mean_queue_delay,
        killed_at,
    } = p;
    h.str(name);
    h.str(engine_name);
    h.u64(u64::from(*batch));
    h.u64(*completed_ecs);
    h.u64(*images);
    h.f64(*throughput);
    for d in [
        mean_ec_time,
        p50_ec_time,
        p95_ec_time,
        p99_ec_time,
        mean_launch_time,
        mean_blocking_time,
        mean_sync_time,
        mean_gpu_time,
        mean_queue_delay,
    ] {
        h.dur(*d);
    }
    h.opt(*killed_at, Hash::time);
}

fn hash_ec(h: &mut Hash, r: &EcRecord) {
    let EcRecord {
        start,
        end,
        launch_time,
        blocking_time,
        sync_time,
        gpu_time,
        queue_delay,
    } = r;
    h.time(*start);
    h.time(*end);
    for d in [launch_time, blocking_time, sync_time, gpu_time, queue_delay] {
        h.dur(*d);
    }
}

fn hash_kernel(h: &mut Hash, e: &KernelEvent) {
    let KernelEvent {
        pid,
        ec_seq,
        kernel_index,
        start,
        end,
        precision,
        sm_active,
        issue_slot,
        tc_activity,
        bytes,
    } = e;
    h.usize(*pid);
    h.u64(*ec_seq);
    h.usize(*kernel_index);
    h.time(*start);
    h.time(*end);
    h.u64(*precision as u64);
    h.f64(*sm_active);
    h.f64(*issue_slot);
    h.f64(*tc_activity);
    h.u64(*bytes);
}

fn hash_preemption(h: &mut Hash, p: &KernelPreempted) {
    let KernelPreempted {
        pid,
        ec_seq,
        kernel_index,
        start,
        preempted_at,
        by_pid,
    } = p;
    h.usize(*pid);
    h.u64(*ec_seq);
    h.usize(*kernel_index);
    h.time(*start);
    h.time(*preempted_at);
    h.usize(*by_pid);
}

fn hash_power(h: &mut Hash, s: &PowerSample) {
    let PowerSample {
        time,
        watts,
        gpu_utilization,
        gpu_freq_mhz,
        gpu_memory_bytes,
        cpu_busy_cores,
        temp_c,
    } = s;
    h.time(*time);
    h.f64(*watts);
    h.f64(*gpu_utilization);
    h.u64(u64::from(*gpu_freq_mhz));
    h.u64(*gpu_memory_bytes);
    h.f64(*cpu_busy_cores);
    h.f64(*temp_c);
}

fn hash_fault(h: &mut Hash, f: &FaultEvent) {
    let FaultEvent { time, kind } = f;
    h.time(*time);
    match kind {
        FaultKind::MemorySpikeStart { bytes } => {
            h.u64(1);
            h.u64(*bytes);
        }
        FaultKind::MemorySpikeEnd { bytes } => {
            h.u64(2);
            h.u64(*bytes);
        }
        FaultKind::ThrottleLockStart { step, mhz } => {
            h.u64(3);
            h.usize(*step);
            h.u64(u64::from(*mhz));
        }
        FaultKind::ThrottleLockEnd => h.u64(4),
        FaultKind::ProcessKilled {
            pid,
            name,
            freed_bytes,
        } => {
            h.u64(5);
            h.usize(*pid);
            h.str(name);
            h.u64(*freed_bytes);
        }
        other => h.unknown(other),
    }
}

/// A request record packs its fields behind accessors, so it cannot be
/// destructured; its size test (`request_record_fits_in_64_bytes`) is
/// what a new field trips. Each accessor feeds the word its field did.
fn hash_request(h: &mut Hash, r: &RequestRecord) {
    h.usize(r.group());
    h.u64(r.seq());
    h.time(r.arrival);
    h.opt(r.dispatched(), Hash::time);
    h.opt(r.completed(), Hash::time);
    h.opt(r.dropped(), |h, record| {
        let DropRecord { at, kind } = record;
        h.time(at);
        match kind {
            DropKind::Rejected => h.u64(1),
            DropKind::Shed => h.u64(2),
            DropKind::DeadlineExpired => h.u64(3),
            DropKind::Killed => h.u64(4),
            DropKind::HedgeLoser => h.u64(5),
            DropKind::BreakerOpen => h.u64(6),
            other => h.unknown(&other),
        }
    });
    h.opt(r.pid(), Hash::usize);
    h.u64(u64::from(r.batch_size));
    h.bool(r.degraded);
    h.u64(u64::from(r.attempt));
    h.opt(r.retry_of(), Hash::usize);
    h.opt(r.hedge_of(), Hash::usize);
}

fn hash_serve_event(h: &mut Hash, e: &ServeEvent) {
    let ServeEvent { time, group, kind } = e;
    h.time(*time);
    h.usize(*group);
    match kind {
        ServeEventKind::BatchFormed {
            pid,
            size,
            oldest_wait,
            queue_depth,
            degraded,
        } => {
            h.u64(1);
            h.usize(*pid);
            h.u64(u64::from(*size));
            h.dur(*oldest_wait);
            h.usize(*queue_depth);
            h.bool(*degraded);
        }
        ServeEventKind::DegradeEnter { queue_depth } => {
            h.u64(2);
            h.usize(*queue_depth);
        }
        ServeEventKind::DegradeExit { queue_depth } => {
            h.u64(3);
            h.usize(*queue_depth);
        }
        ServeEventKind::BreakerTrip { error_rate } => {
            h.u64(4);
            h.f64(*error_rate);
        }
        ServeEventKind::BreakerHalfOpen => h.u64(5),
        ServeEventKind::BreakerClose => h.u64(6),
        ServeEventKind::ReplicaDown {
            pid,
            failed_inflight,
        } => {
            h.u64(7);
            h.usize(*pid);
            h.usize(*failed_inflight);
        }
        ServeEventKind::ReplicaUp { pid } => {
            h.u64(8);
            h.usize(*pid);
        }
        ServeEventKind::ReplicaEjected { pid } => {
            h.u64(9);
            h.usize(*pid);
        }
        ServeEventKind::ReplicaProvisioned { pid, cold } => {
            h.u64(10);
            h.usize(*pid);
            h.bool(*cold);
        }
        ServeEventKind::ReplicaWarmed { pid } => {
            h.u64(11);
            h.usize(*pid);
        }
        ServeEventKind::ReplicaReaped { pid } => {
            h.u64(12);
            h.usize(*pid);
        }
        ServeEventKind::ParkedToZero => h.u64(13),
        other => h.unknown(other),
    }
}

// --- the pinned grid ------------------------------------------------------

#[derive(Clone, Copy)]
enum Dev {
    Orin,
    Nano,
}

impl Dev {
    fn spec(self) -> jetsim_device::DeviceSpec {
        match self {
            Dev::Orin => presets::orin_nano(),
            Dev::Nano => presets::jetson_nano(),
        }
    }
    fn tag(self) -> &'static str {
        match self {
            Dev::Orin => "orin",
            Dev::Nano => "nano",
        }
    }
    /// Grid model per device: ResNet50 on Orin; YoloV8n on the 4 GB
    /// Nano, where 4 × ResNet50 genuinely does not fit (§6.2.1).
    fn model(self) -> jetsim_dnn::ModelGraph {
        match self {
            Dev::Orin => zoo::resnet50(),
            Dev::Nano => zoo::yolov8n(),
        }
    }
}

/// One parity cell: a fully pinned configuration and its captured hash.
struct Cell {
    id: String,
    trace: RunTrace,
}

fn base_cell(dev: Dev, precision: Precision, procs: u32, seed: u64) -> Cell {
    let config = processes(dev.spec(), &dev.model(), precision, 2, procs)
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(seed)
        .build()
        .expect("fits");
    Cell {
        id: format!("{}_{:?}_{}p_s{}", dev.tag(), precision, procs, seed),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// The full pinned grid, covering every subsystem the refactor touches.
fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    // Core grid: seeds × {1,2,4} procs × 2 precisions × both devices.
    for &seed in &[11u64, 42u64] {
        for dev in [Dev::Orin, Dev::Nano] {
            for precision in [Precision::Int8, Precision::Fp16] {
                for procs in [1u32, 2, 4] {
                    cells.push(base_cell(dev, precision, procs, seed));
                }
            }
        }
    }
    // Run-queue CPU scheduler (quantum time-sharing + spin-wait path).
    let config = processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        2,
        6,
    )
    .cpu_model(CpuModel::RunQueue)
    .warmup(SimDuration::from_millis(150))
    .measure(SimDuration::from_millis(600))
    .seed(7)
    .build()
    .expect("fits");
    cells.push(Cell {
        id: "runqueue_orin_6p_s7".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // MPS spatial packing.
    let config = processes(presets::orin_nano(), &zoo::yolov8n(), Precision::Fp16, 1, 3)
        .gpu_policy(GpuPolicy::SpatialMps {
            overlap_efficiency: 0.3,
        })
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(13)
        .build()
        .expect("fits");
    cells.push(Cell {
        id: "mps_orin_3p_s13".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // Open-loop Poisson arrivals (queue-delay accounting + arrival RNG).
    let engine = resnet50_engine(&presets::orin_nano(), Precision::Fp16, 1);
    let config = SimConfig::builder(presets::orin_nano())
        .add_process(ProcessConfig {
            arrivals: ArrivalModel::Poisson { fps: 60.0 },
            ..ProcessConfig::new("p0", engine.clone(), 0)
        })
        .add_process(ProcessConfig {
            arrivals: ArrivalModel::Periodic { fps: 30.0 },
            ..ProcessConfig::new("p1", engine, 1)
        })
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(23)
        .build()
        .expect("fits");
    cells.push(Cell {
        id: "arrivals_orin_2p_s23".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // Nsight profiler mode (overhead factors + kernel-event trace RNG).
    let config = processes(
        presets::jetson_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        2,
    )
    .profiler(ProfilerMode::Nsight)
    .warmup(SimDuration::from_millis(150))
    .measure(SimDuration::from_millis(600))
    .seed(31)
    .build()
    .expect("fits");
    cells.push(Cell {
        id: "nsight_nano_2p_s31".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // Fault plan: seeded spikes + throttle locks + OOM killer over an
    // over-committed deployment (memory guard + governor lock paths).
    let config = processes(
        presets::jetson_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp32,
        1,
        4,
    )
    .faults(
        FaultPlan::seeded(99, SimDuration::from_millis(750), 2, 1)
            .oom_policy(jetsim_sim::OomPolicy::KillLargest),
    )
    .warmup(SimDuration::from_millis(150))
    .measure(SimDuration::from_millis(600))
    .seed(99)
    .build()
    .expect("fits under KillLargest");
    cells.push(Cell {
        id: "faults_nano_4p_s99".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    cells.extend(serving_and_policy_cells());
    cells
}

/// A builder for `device` with `count` saturated processes `p{pid}` of
/// one `model` engine, each in its own memory group.
fn processes(
    device: DeviceSpec,
    model: &ModelGraph,
    precision: Precision,
    batch: u32,
    count: u32,
) -> SimConfigBuilder {
    let engine = Arc::new(
        EngineBuilder::new(&device)
            .precision(precision)
            .batch(batch)
            .build(model)
            .expect("engine builds"),
    );
    (0..count as usize).fold(SimConfig::builder(device), |builder, pid| {
        builder.add_process(ProcessConfig::new(
            format!("p{pid}"),
            Arc::clone(&engine),
            pid,
        ))
    })
}

fn resnet50_engine(
    device: &jetsim_device::DeviceSpec,
    precision: Precision,
    batch: u32,
) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new(device)
            .precision(precision)
            .batch(batch)
            .build(&zoo::resnet50())
            .expect("engine builds"),
    )
}

/// `members` named replicas of `engine` serving `group` on top of
/// `builder` (device, faults, GPU policy), kernel events recorded.
fn serve_cell(
    id: &str,
    mut builder: SimConfigBuilder,
    engine: &Arc<Engine>,
    members: usize,
    group: ServeGroup,
    seed: u64,
) -> Cell {
    for i in 0..members {
        builder = builder.add_process(ProcessConfig::new(
            format!("{}/{i}", group.label),
            Arc::clone(engine),
            i,
        ));
    }
    let config = builder
        .serve(ServePlan::new().group(group.members(0..members)))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(700))
        .seed(seed)
        .build()
        .expect("fits");
    Cell {
        id: id.into(),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// Four ResNet50 int8 processes on the Orin Nano, two at priority 5 /
/// SM share 2.0, under `policy`.
fn contended_cell(id: &str, policy: GpuPolicy, seed: u64) -> Cell {
    let orin = presets::orin_nano();
    let engine = resnet50_engine(&orin, Precision::Int8, 1);
    let mut builder = SimConfig::builder(orin)
        .gpu_policy(policy)
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(500))
        .seed(seed);
    for pid in 0..4 {
        let weighted = pid % 2 == 0;
        builder = builder.add_process(ProcessConfig {
            priority: if weighted { 5 } else { 0 },
            sm_share: if weighted { 2.0 } else { 1.0 },
            ..ProcessConfig::new(format!("p{pid}"), Arc::clone(&engine), pid)
        });
    }
    let config = builder.build().expect("fits");
    Cell {
        id: id.into(),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// Two serve groups on the Orin Nano under `priority`: ResNet50 int8
/// replicas at priority 1, with auto-delay hedging, a deadline and
/// retries, preempt the kernels of MobileNetV2 fp16 replicas at
/// priority 0. Kernel events and preemptions are recorded.
fn priority_serve_cell(id: &str, hi_rate: f64, lo_rate: f64, seed: u64) -> Cell {
    let orin = presets::orin_nano();
    let hi = resnet50_engine(&orin, Precision::Int8, 1);
    let lo = Arc::new(
        EngineBuilder::new(&orin)
            .precision(Precision::Fp16)
            .batch(1)
            .build(&zoo::mobilenet_v2())
            .expect("engine builds"),
    );
    let mut builder = SimConfig::builder(orin).gpu_policy(GpuPolicy::Priority {
        preempt_penalty: GpuPolicy::DEFAULT_PREEMPT_PENALTY,
    });
    for (label, engine, priority) in [("resnet50", &hi, 1), ("mobilenet_v2", &lo, 0)] {
        for i in 0..2 {
            let pid = builder.process_count();
            builder = builder.add_process(ProcessConfig {
                priority,
                ..ProcessConfig::new(format!("{label}/{i}"), Arc::clone(engine), pid)
            });
        }
    }
    let hedged = ServeGroup::new("resnet50", ArrivalProcess::poisson(hi_rate))
        .deadline(SimDuration::from_millis(100))
        .retry(RetryPolicy::new(3, SimDuration::from_millis(10)))
        .hedge(HedgePolicy::auto())
        .members(0..2);
    let background =
        ServeGroup::new("mobilenet_v2", ArrivalProcess::poisson(lo_rate)).members(2..4);
    let config = builder
        .serve(ServePlan::new().group(hedged).group(background))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(700))
        .seed(seed)
        .build()
        .expect("fits");
    Cell {
        id: id.into(),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// The serving path and the non-default GPU policies, every one with
/// kernel events recorded: dynamic batching with degrading admission,
/// preemptive `priority`, fractional `mps`, scale-to-zero autoscaling,
/// the whole resilience stack under a fault plan, `fifo`, and
/// `priority` through serving with auto-delay hedging.
fn serving_and_policy_cells() -> Vec<Cell> {
    let orin = presets::orin_nano();
    let nano = presets::jetson_nano();
    let b4 = resnet50_engine(&orin, Precision::Fp16, 4);
    let batched = ServeGroup::new("resnet50", ArrivalProcess::poisson(2500.0))
        .max_delay(SimDuration::from_millis(2))
        .queue_cap(12)
        .admission(AdmissionPolicy::Degrade)
        .degraded_engine(resnet50_engine(&orin, Precision::Int8, 4));
    let scaler = AutoscalerPolicy::new(0, 2)
        .target_queue_per_replica(1.0)
        .evaluate_every(SimDuration::from_millis(5))
        .keep_alive(SimDuration::from_millis(20))
        .start_cost(SimDuration::from_millis(60));
    let scale_to_zero = ServeGroup::new("resnet50", ArrivalProcess::poisson(15.0))
        .queue_cap(64)
        .autoscaler(scaler);
    // A spike the size of the Nano's whole board at t = 300 ms: the OOM
    // killer takes both replicas, which recovery then restarts.
    let spike = FaultPlan::new()
        .memory_spike(
            SimTime::from_nanos(300_000_000),
            SimDuration::from_millis(100),
            4 << 30,
        )
        .oom_policy(OomPolicy::KillLargest);
    let resilient = ServeGroup::new("resnet50", ArrivalProcess::poisson(60.0))
        .queue_cap(32)
        .deadline(SimDuration::from_millis(500))
        .retry(RetryPolicy::new(3, SimDuration::from_millis(50)))
        .hedge(HedgePolicy::fixed(SimDuration::from_millis(30)))
        .breaker(BreakerPolicy::new(16, 0.5))
        .recovery(RecoveryPolicy::new(SimDuration::from_millis(200), 2));
    let nano_fp16 = resnet50_engine(&nano, Precision::Fp16, 1);
    vec![
        serve_cell(
            "serve_batched_orin_2r_s17",
            SimConfig::builder(orin.clone()),
            &b4,
            2,
            batched,
            17,
        ),
        contended_cell(
            "priority_orin_4p_s19",
            GpuPolicy::Priority {
                preempt_penalty: GpuPolicy::DEFAULT_PREEMPT_PENALTY,
            },
            19,
        ),
        contended_cell(
            "mps_policy_orin_4p_s29",
            GpuPolicy::FractionalMps {
                overlap_efficiency: GpuPolicy::DEFAULT_MPS_OVERLAP,
            },
            29,
        ),
        serve_cell(
            "autoscale_zero_orin_2r_s3",
            SimConfig::builder(orin.clone()),
            &resnet50_engine(&orin, Precision::Int8, 1),
            2,
            scale_to_zero,
            3,
        ),
        serve_cell(
            "resilience_nano_2r_s13",
            SimConfig::builder(nano.clone()).faults(spike.clone()),
            &nano_fp16,
            2,
            resilient.clone(),
            13,
        ),
        contended_cell("fifo_orin_4p_s37", GpuPolicy::Fifo, 37),
        serve_cell(
            "fifo_resilience_nano_3r_s41",
            SimConfig::builder(nano)
                .faults(spike)
                .gpu_policy(GpuPolicy::Fifo),
            &nano_fp16,
            3,
            resilient,
            41,
        ),
        priority_serve_cell("priority_serve_orin_4r_s43", 80.0, 100.0, 43),
    ]
}

// --- golden hashes ------------------------------------------------------

/// Captured with `JETSIM_GOLDEN_CAPTURE=1` by running this file, hasher
/// and cells as they stand, on the tree before the engine-cache
/// fingerprint change (the first 29 cells were first pinned before the
/// component split; their values moved only because the hasher now
/// also reads preemptions, requests, serve events and group labels).
/// Later cells were captured on the tree before the change they guard.
/// `autoscale_zero_orin_2r_s3` was re-pinned when a replica start became
/// one phase with one price: hashed with `sim_events` masked it equals
/// the earlier tree run with both start prices at 60 ms, and it counts
/// one event fewer per provision. Every refactor must reproduce each one
/// bit-for-bit.
const GOLDEN: &[(&str, u64)] = &[
    ("orin_Int8_1p_s11", 0x1602f422841b90ab),
    ("orin_Int8_2p_s11", 0xeb05a0ab1536f8e4),
    ("orin_Int8_4p_s11", 0x2755e91897098b3e),
    ("orin_Fp16_1p_s11", 0xd0d37a4407d17a97),
    ("orin_Fp16_2p_s11", 0x5c6de6fb80935c6d),
    ("orin_Fp16_4p_s11", 0xbd0723277279397c),
    ("nano_Int8_1p_s11", 0xc7f26f6e443a3a5e),
    ("nano_Int8_2p_s11", 0x2d110e02c61a7023),
    ("nano_Int8_4p_s11", 0x075a85f405b905ca),
    ("nano_Fp16_1p_s11", 0xd7b2af37f63a00d6),
    ("nano_Fp16_2p_s11", 0x6caba94ba3d4c64d),
    ("nano_Fp16_4p_s11", 0x4139f542b87d36cc),
    ("orin_Int8_1p_s42", 0x671370dd100788be),
    ("orin_Int8_2p_s42", 0x869c2ac2969802ea),
    ("orin_Int8_4p_s42", 0xfbc50234e151c956),
    ("orin_Fp16_1p_s42", 0xca848c5a3fb5df12),
    ("orin_Fp16_2p_s42", 0xff92643865f58d64),
    ("orin_Fp16_4p_s42", 0x3074759fe392e9ae),
    ("nano_Int8_1p_s42", 0x0c35e51517f28ed1),
    ("nano_Int8_2p_s42", 0x861aed01706921a3),
    ("nano_Int8_4p_s42", 0x2e98fc6ebb91da79),
    ("nano_Fp16_1p_s42", 0xd4c136fef42731c2),
    ("nano_Fp16_2p_s42", 0x72cdcec6f7f6a2c3),
    ("nano_Fp16_4p_s42", 0x672947971439ae71),
    ("runqueue_orin_6p_s7", 0x123fc128eca55309),
    ("mps_orin_3p_s13", 0x9b2296b5c53497c6),
    ("arrivals_orin_2p_s23", 0x5b685dd0f376613d),
    ("nsight_nano_2p_s31", 0x37c753d2906e0a49),
    ("faults_nano_4p_s99", 0x118e7d402f2dffb6),
    ("serve_batched_orin_2r_s17", 0xa3a550a63a3c2bef),
    ("priority_orin_4p_s19", 0xfa9de86c6d2f3e0e),
    ("mps_policy_orin_4p_s29", 0x29ff3a01b91a5687),
    ("autoscale_zero_orin_2r_s3", 0xb286bd9e816ce774),
    ("resilience_nano_2r_s13", 0x3571befbf8e37e54),
    ("fifo_orin_4p_s37", 0x84a585bcfdbdbf0b),
    ("fifo_resilience_nano_3r_s41", 0xdf48383617e1a6d4),
    ("priority_serve_orin_4r_s43", 0x064656d3328409a3),
];

#[test]
fn golden_trace_parity() {
    let cells = all_cells();
    if std::env::var("JETSIM_GOLDEN_CAPTURE").is_ok() {
        println!("const GOLDEN: &[(&str, u64)] = &[");
        for cell in &cells {
            println!("    (\"{}\", 0x{:016x}),", cell.id, trace_hash(&cell.trace));
        }
        println!("];");
        return;
    }
    assert_eq!(
        cells.len(),
        GOLDEN.len(),
        "grid drifted from the captured table — re-capture deliberately"
    );
    let mut failures = Vec::new();
    for (cell, &(id, expected)) in cells.iter().zip(GOLDEN) {
        assert_eq!(cell.id, id, "cell order drifted");
        let got = trace_hash(&cell.trace);
        if got != expected {
            failures.push(format!(
                "{id}: expected 0x{expected:016x}, got 0x{got:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden-trace parity broken:\n{}",
        failures.join("\n")
    );
}

/// Each serving and policy cell exercises the path it is there to pin,
/// so its digest covers those records rather than an idle run.
#[test]
fn serving_and_policy_cells_exercise_their_paths() {
    let cells = serving_and_policy_cells();
    let trace = |id: &str| {
        &cells
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("no cell {id}"))
            .trace
    };
    let any_event = |t: &RunTrace, pred: fn(&ServeEventKind) -> bool| {
        t.serve_events.iter().any(|e| pred(&e.kind))
    };
    for cell in &cells {
        assert!(
            !cell.trace.kernel_events.is_empty(),
            "{}: kernel events",
            cell.id
        );
    }
    let batched = trace("serve_batched_orin_2r_s17");
    assert!(any_event(
        batched,
        |k| matches!(k, ServeEventKind::BatchFormed { size, .. } if *size > 1)
    ));
    assert!(any_event(batched, |k| matches!(
        k,
        ServeEventKind::DegradeEnter { .. }
    )));
    assert!(batched.requests.iter().any(|r| r.dropped().is_some()));
    assert!(!trace("priority_orin_4p_s19").preemptions.is_empty());
    assert!(trace("mps_policy_orin_4p_s29").preemptions.is_empty());
    assert!(any_event(trace("autoscale_zero_orin_2r_s3"), |k| matches!(
        k,
        ServeEventKind::ParkedToZero
    )));
    let resilient = trace("resilience_nano_2r_s13");
    assert!(!resilient.fault_events.is_empty());
    assert!(any_event(resilient, |k| matches!(
        k,
        ServeEventKind::ReplicaDown { .. }
    )));
    assert!(any_event(resilient, |k| matches!(
        k,
        ServeEventKind::ReplicaUp { .. }
    )));
    assert!(resilient.requests.iter().any(|r| r.retry_of().is_some()));
    assert!(resilient.requests.iter().any(|r| r.hedge_of().is_some()));
    // `fifo` keeps a kernel-arrival log: the kill must drop the dead
    // replicas' entries and the restart must feed the log again.
    let fifo_resilient = trace("fifo_resilience_nano_3r_s41");
    assert!(any_event(fifo_resilient, |k| matches!(
        k,
        ServeEventKind::ReplicaDown { .. }
    )));
    assert!(any_event(fifo_resilient, |k| matches!(
        k,
        ServeEventKind::ReplicaUp { .. }
    )));
    // `priority` through serving: the high-priority group's kernels
    // cut the low-priority group's, and its auto-delay hedges fire off
    // the rolling p95.
    let priority_serve = trace("priority_serve_orin_4r_s43");
    assert!(!priority_serve.preemptions.is_empty());
    assert!(priority_serve
        .requests
        .iter()
        .any(|r| r.hedge_of().is_some()));
}

/// The hash itself must be deterministic run-to-run (hardens the suite
/// against accidental iteration-order or HashMap nondeterminism in the
/// trace itself).
#[test]
fn trace_hash_is_reproducible() {
    let a = base_cell(Dev::Orin, Precision::Fp16, 2, 5);
    let b = base_cell(Dev::Orin, Precision::Fp16, 2, 5);
    assert_eq!(trace_hash(&a.trace), trace_hash(&b.trace));
    let c = base_cell(Dev::Orin, Precision::Fp16, 2, 6);
    assert_ne!(
        trace_hash(&a.trace),
        trace_hash(&c.trace),
        "different seeds should differ"
    );
}
