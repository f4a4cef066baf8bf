//! Property-based tests for the simulator's invariants.
//!
//! These run short windows (cases are whole simulations), so the case
//! count is kept small.

mod support;

use proptest::prelude::*;

use jetsim_des::{SimDuration, SimTime};
use jetsim_device::presets;
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::{
    EcRecord, FaultPlan, OomPolicy, ProcessConfig, ProcessStats, RunTrace, SimConfig, Simulation,
};

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop::sample::select(Precision::ALL.to_vec())
}

fn run(precision: Precision, batch: u32, procs: u32, seed: u64) -> jetsim_sim::RunTrace {
    let config = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        precision,
        batch,
        procs,
    )
    .warmup(SimDuration::from_millis(100))
    .measure(SimDuration::from_millis(400))
    .seed(seed)
    .build()
    .expect("fits");
    Simulation::new(config).expect("valid").run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Core invariants hold for arbitrary configurations: utilisation is
    /// a fraction, power respects the budget envelope, every kernel event
    /// is well-formed, and EC decompositions never exceed the EC span.
    #[test]
    fn run_trace_invariants(
        precision in arb_precision(),
        batch in 1u32..16,
        procs in 1u32..6,
        seed in any::<u64>(),
    ) {
        let trace = run(precision, batch, procs, seed);
        prop_assert!(trace.gpu_utilization() <= 1.0);
        prop_assert!(trace.total_throughput() >= 0.0);
        prop_assert!(trace.gpu_memory_percent > 0.0 && trace.gpu_memory_percent < 100.0);
        for s in &trace.power_samples {
            prop_assert!(s.watts >= 1.0, "below idle: {}", s.watts);
            prop_assert!(s.watts <= 7.0 * 1.15, "over budget: {}", s.watts);
            prop_assert!((0.0..=1.0).contains(&s.gpu_utilization));
        }
        for e in &trace.kernel_events {
            prop_assert!(e.end > e.start);
            prop_assert!((0.0..=1.0).contains(&e.sm_active));
            prop_assert!((0.0..=0.8).contains(&e.issue_slot));
            prop_assert!((0.0..=1.0).contains(&e.tc_activity));
            prop_assert!(e.pid < procs as usize);
        }
        for records in &trace.ec_records {
            for r in records {
                let parts = r.launch_time + r.blocking_time;
                prop_assert!(
                    parts <= r.duration() + SimDuration::from_micros(1),
                    "parts {} exceed EC {}",
                    parts,
                    r.duration()
                );
            }
        }
    }

    /// `ProcessStats` come from running sums, never from the per-EC log:
    /// with recording on they equal what the log gives under the formula
    /// that once read it, closed loop, serving, and with the OOM killer
    /// taking a process mid-run.
    #[test]
    fn process_stats_match_the_ec_log(
        precision in arb_precision(),
        batch in 1u32..8,
        procs in 1u32..5,
        seed in any::<u64>(),
    ) {
        stats_match_ec_log(&run(precision, batch, procs, seed))?;
        stats_match_ec_log(&autoscaled_run(1, 300.0, seed))?;
        let culled = oom_run(precision, seed);
        prop_assert!(
            culled.processes.iter().any(|p| p.killed_at.is_some() && p.completed_ecs > 0),
            "the spike must kill a process that had run"
        );
        stats_match_ec_log(&culled)?;
    }

    /// Identical seeds reproduce identical traces; the simulator is a
    /// pure function of its configuration.
    #[test]
    fn determinism(
        precision in arb_precision(),
        batch in 1u32..8,
        procs in 1u32..4,
        seed in any::<u64>(),
    ) {
        let a = run(precision, batch, procs, seed);
        let b = run(precision, batch, procs, seed);
        prop_assert_eq!(a.total_throughput(), b.total_throughput());
        prop_assert_eq!(a.kernel_events.len(), b.kernel_events.len());
        prop_assert_eq!(a.final_freq_mhz, b.final_freq_mhz);
        let pa: Vec<f64> = a.power_samples.iter().map(|s| s.watts).collect();
        let pb: Vec<f64> = b.power_samples.iter().map(|s| s.watts).collect();
        prop_assert_eq!(pa, pb);
    }

    /// GPU kernel events never overlap on the single GPU engine.
    #[test]
    fn kernels_serialise_on_the_gpu(
        procs in 1u32..6,
        seed in any::<u64>(),
    ) {
        let trace = run(Precision::Int8, 1, procs, seed);
        let mut events = trace.kernel_events.clone();
        events.sort_by_key(|e| e.start);
        for w in events.windows(2) {
            prop_assert!(
                w[1].start >= w[0].end,
                "overlap: {:?}..{:?} then {:?}",
                w[0].start, w[0].end, w[1].start
            );
        }
    }

    /// Fault injection is fully deterministic: the same seed and the
    /// same `FaultPlan` reproduce an identical `RunTrace` — fault events,
    /// kill times, throughput, power and clocks all match bit for bit.
    #[test]
    fn fault_injection_replays_identically(
        sim_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        spikes in 0u32..3,
        locks in 0u32..2,
        procs in 1u32..4,
    ) {
        let horizon = SimDuration::from_millis(500);
        let plan = FaultPlan::seeded(fault_seed, horizon, spikes as usize, locks as usize)
            .oom_policy(jetsim_sim::OomPolicy::KillLargest);
        let run_faulted = |plan: &FaultPlan| {
            let config = support::processes(presets::orin_nano(), &zoo::resnet50(), Precision::Int8, 1, procs)
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_millis(400))
                .seed(sim_seed)
                .faults(plan.clone())
                .build()
                .expect("kill policy always admits");
            Simulation::new(config).expect("valid").run()
        };
        // The plan itself replays identically from its seed …
        let replanned = FaultPlan::seeded(fault_seed, horizon, spikes as usize, locks as usize)
            .oom_policy(jetsim_sim::OomPolicy::KillLargest);
        prop_assert_eq!(&plan, &replanned);
        // … and so does the simulation driven by it.
        let a = run_faulted(&plan);
        let b = run_faulted(&plan);
        prop_assert_eq!(&a.fault_events, &b.fault_events);
        prop_assert_eq!(a.total_throughput(), b.total_throughput());
        prop_assert_eq!(a.killed_processes(), b.killed_processes());
        prop_assert_eq!(a.sim_events, b.sim_events);
        prop_assert_eq!(a.final_freq_mhz, b.final_freq_mhz);
        let ka: Vec<_> = a.processes.iter().map(|p| p.killed_at).collect();
        let kb: Vec<_> = b.processes.iter().map(|p| p.killed_at).collect();
        prop_assert_eq!(ka, kb);
        let pa: Vec<f64> = a.power_samples.iter().map(|s| s.watts).collect();
        let pb: Vec<f64> = b.power_samples.iter().map(|s| s.watts).collect();
        prop_assert_eq!(pa, pb);
    }

    /// An empty fault plan is invisible: the trace it produces is
    /// indistinguishable from a run with no plan at all.
    #[test]
    fn empty_plan_is_inert(
        precision in arb_precision(),
        procs in 1u32..4,
        seed in any::<u64>(),
    ) {
        let base = run(precision, 1, procs, seed);
        let config = support::processes(presets::orin_nano(), &zoo::resnet50(), precision, 1, procs)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400))
            .seed(seed)
            .faults(FaultPlan::new())
            .build()
            .expect("fits");
        let planned = Simulation::new(config).expect("valid").run();
        prop_assert!(planned.fault_events.is_empty());
        prop_assert_eq!(base.total_throughput(), planned.total_throughput());
        prop_assert_eq!(base.sim_events, planned.sim_events);
        prop_assert_eq!(base.kernel_events.len(), planned.kernel_events.len());
        prop_assert_eq!(base.final_freq_mhz, planned.final_freq_mhz);
    }

    /// However the OOM killer culls an over-deployment, the survivors'
    /// footprint fits in usable memory and accounting stays consistent.
    #[test]
    fn oom_killer_leaves_a_fitting_deployment(
        fault_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::seeded(fault_seed, SimDuration::from_millis(500), 2, 0)
            .oom_policy(jetsim_sim::OomPolicy::KillLargest);
        let config = support::processes(presets::jetson_nano(), &zoo::fcn_resnet50(), Precision::Fp16, 1, 4)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400))
            .seed(seed)
            .faults(plan)
            .build()
            .expect("kill policy admits");
        let trace = Simulation::new(config).expect("valid").run();
        prop_assert!(trace.killed_processes() >= 1, "overcommit must be culled");
        prop_assert!(trace.killed_processes() < 4, "someone survives");
        let kills = trace.fault_events.iter().filter(|e| matches!(
            e.kind,
            jetsim_sim::FaultKind::ProcessKilled { .. }
        )).count();
        prop_assert_eq!(kills, trace.killed_processes());
        for p in &trace.processes {
            if p.killed_at == Some(jetsim_des::SimTime::ZERO) {
                prop_assert_eq!(p.completed_ecs, 0, "killed at t=0 never ran");
            }
        }
    }

    /// Aggregate throughput is conserved or reduced — never amplified —
    /// when adding processes at the same batch.
    #[test]
    fn no_free_throughput(seed in any::<u64>()) {
        let one = run(Precision::Int8, 1, 1, seed);
        let four = run(Precision::Int8, 1, 4, seed);
        prop_assert!(
            four.total_throughput() <= one.total_throughput() * 1.25,
            "4 procs {} vs 1 proc {}",
            four.total_throughput(),
            one.total_throughput()
        );
    }

    /// Autoscaled serving conserves replicas for arbitrary floors,
    /// rates and seeds: lifecycle events per pid alternate (no double
    /// provision, no phantom reap), the up-set never exceeds the
    /// ceiling, and the same seed replays the same scaling timeline.
    #[test]
    fn autoscaler_conserves_replicas_and_is_deterministic(
        min in 0u32..=2,
        rate in 50.0f64..800.0,
        seed in any::<u64>(),
    ) {
        let trace = autoscaled_run(min, rate, seed);
        let mut up = std::collections::HashSet::new();
        let mut provisioning = std::collections::HashSet::new();
        let mut provisions = 0usize;
        let mut warms = 0usize;
        for e in &trace.serve_events {
            match e.kind {
                ServeEventKind::ReplicaProvisioned { pid, .. } => {
                    prop_assert!(!provisioning.contains(&pid), "double provision of {pid}");
                    prop_assert!(!up.contains(&pid), "provisioned while up: {pid}");
                    provisioning.insert(pid);
                    provisions += 1;
                }
                ServeEventKind::ReplicaWarmed { pid } => {
                    provisioning.remove(&pid);
                    prop_assert!(up.insert(pid), "warmed while up: {pid}");
                    warms += 1;
                }
                ServeEventKind::ReplicaReaped { pid } => {
                    prop_assert!(up.remove(&pid), "reaped while not up: {pid}");
                }
                ServeEventKind::ReplicaDown { pid, .. } => {
                    up.remove(&pid);
                    provisioning.remove(&pid);
                }
                _ => {}
            }
            prop_assert!(up.len() <= 3, "up-set exceeds max_replicas");
        }
        // Every warm came from the t=0 floor seeding or a provision.
        prop_assert!(warms <= provisions + min as usize);
        let replay = autoscaled_run(min, rate, seed);
        prop_assert_eq!(trace.serve_events.len(), replay.serve_events.len());
        for (a, b) in trace.serve_events.iter().zip(&replay.serve_events) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.group, b.group);
        }
        prop_assert_eq!(trace.requests.len(), replay.requests.len());
    }
}

use jetsim_sim::serving::{AutoscalerPolicy, ServeEventKind};
use jetsim_sim::{ServeGroup, ServePlan};

/// The oracle for [`ProcessStats`]: every field recomputed from the
/// trace's per-EC log with the formula the finaliser applied when it
/// kept every EC (integer means over the measured ECs, percentiles at
/// `round((n - 1) q)` of the sorted wall durations).
fn stats_match_ec_log(trace: &RunTrace) -> Result<(), TestCaseError> {
    prop_assert_eq!(trace.ec_records.len(), trace.processes.len());
    prop_assert!(trace.ec_records.iter().any(|records| !records.is_empty()));
    let measure_secs = trace.measured.as_secs_f64();
    for (p, records) in trace.processes.iter().zip(&trace.ec_records) {
        let completed = records.len() as u64;
        let images = completed * u64::from(p.batch);
        let mean = |f: fn(&EcRecord) -> SimDuration| {
            if completed == 0 {
                SimDuration::ZERO
            } else {
                records.iter().map(f).sum::<SimDuration>() / completed
            }
        };
        let mut durations: Vec<SimDuration> = records.iter().map(EcRecord::duration).collect();
        durations.sort_unstable();
        let percentile = |q: f64| {
            if durations.is_empty() {
                SimDuration::ZERO
            } else {
                durations[((durations.len() - 1) as f64 * q).round() as usize]
            }
        };
        let oracle = ProcessStats {
            name: p.name.clone(),
            engine_name: p.engine_name.clone(),
            batch: p.batch,
            completed_ecs: completed,
            images,
            throughput: if measure_secs == 0.0 {
                0.0
            } else {
                images as f64 / measure_secs
            },
            mean_ec_time: mean(EcRecord::duration),
            p50_ec_time: percentile(0.5),
            p95_ec_time: percentile(0.95),
            p99_ec_time: percentile(0.99),
            mean_launch_time: mean(|r| r.launch_time),
            mean_blocking_time: mean(|r| r.blocking_time),
            mean_sync_time: mean(|r| r.sync_time),
            mean_gpu_time: mean(|r| r.gpu_time),
            mean_queue_delay: mean(|r| r.queue_delay),
            killed_at: p.killed_at,
        };
        prop_assert_eq!(p, &oracle);
    }
    Ok(())
}

/// Two closed-loop ResNet50 processes on the Orin Nano. A memory spike
/// at 250 ms, one byte past what the board can hold beside them, makes
/// the OOM killer take one mid-run.
fn oom_run(precision: Precision, seed: u64) -> RunTrace {
    let config = |faults: FaultPlan| {
        support::processes(presets::orin_nano(), &zoo::resnet50(), precision, 1, 2)
            .faults(faults)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400))
            .seed(seed)
            .build()
            .expect("fits")
    };
    let fitted = config(FaultPlan::new());
    let headroom = fitted.device.memory.usable_bytes() - fitted.total_footprint_bytes();
    let spike = FaultPlan::new()
        .memory_spike(
            SimTime::from_nanos(250_000_000),
            SimDuration::from_millis(100),
            headroom + 1,
        )
        .oom_policy(OomPolicy::KillLargest);
    Simulation::new(config(spike)).expect("valid").run()
}

/// A 3-slot autoscaled resnet50 group on the Orin Nano.
fn autoscaled_run(min: u32, rate: f64, seed: u64) -> jetsim_sim::RunTrace {
    let device = presets::orin_nano();
    let eng = std::sync::Arc::new(
        jetsim_trt::EngineBuilder::new(&device)
            .precision(Precision::Int8)
            .batch(1)
            .build(&zoo::resnet50())
            .unwrap(),
    );
    let mut builder = SimConfig::builder(device);
    for i in 0..3 {
        builder = builder.add_process(ProcessConfig::new(
            format!("resnet50/{i}"),
            std::sync::Arc::clone(&eng),
            i,
        ));
    }
    let scaler = AutoscalerPolicy::new(min, 3)
        .target_queue_per_replica(2.0)
        .evaluate_every(SimDuration::from_millis(10))
        .keep_alive(SimDuration::from_millis(40))
        .start_cost(SimDuration::from_millis(10));
    let group = ServeGroup::new("resnet50", jetsim_des::ArrivalProcess::poisson(rate))
        .members(0..3)
        .queue_cap(128)
        .autoscaler(scaler);
    let config = builder
        .serve(ServePlan::new().group(group))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(400))
        .seed(seed)
        .build()
        .unwrap();
    Simulation::new(config).unwrap().run()
}
