//! Behavioural tests for the simulation, exercised through the public
//! API only. These were originally the in-file unit tests of the
//! pre-component-split `simulation.rs`; they moved here unchanged when
//! the runner was decomposed into `components/`.

mod support;

use jetsim_des::{SimDuration, SimTime};
use jetsim_device::{presets, DeviceSpec};
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::config::ProfilerMode;
use jetsim_sim::{ProcessConfig, SimConfig, Simulation};

fn quick_config(
    device: DeviceSpec,
    model: &jetsim_dnn::ModelGraph,
    precision: Precision,
    batch: u32,
    procs: u32,
) -> SimConfig {
    support::processes(device, model, precision, batch, procs)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(1000))
        .build()
        .expect("config builds")
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let config = quick_config(
            presets::orin_nano(),
            &zoo::resnet50(),
            Precision::Int8,
            1,
            2,
        );
        Simulation::new(config).unwrap().run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_throughput(), b.total_throughput());
    assert_eq!(a.kernel_events.len(), b.kernel_events.len());
    assert_eq!(a.mean_power(), b.mean_power());
}

#[test]
fn different_seed_changes_details_not_shape() {
    let config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    let mut config2 = config.clone();
    config2.seed = 99;
    let a = Simulation::new(config).unwrap().run();
    let b = Simulation::new(config2).unwrap().run();
    assert_ne!(a.kernel_events.len(), 0);
    let ratio = a.total_throughput() / b.total_throughput();
    assert!(
        (0.9..1.1).contains(&ratio),
        "seeds change jitter only: {ratio}"
    );
}

#[test]
fn single_process_resnet_int8_orin_throughput() {
    let config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    let trace = Simulation::new(config).unwrap().run();
    let tput = trace.total_throughput();
    assert!((250.0..700.0).contains(&tput), "tput = {tput}");
}

#[test]
fn throughput_per_process_falls_with_concurrency() {
    let t1 = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::yolov8n(),
        Precision::Int8,
        1,
        1,
    ))
    .unwrap()
    .run();
    let t8 = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::yolov8n(),
        Precision::Int8,
        1,
        8,
    ))
    .unwrap()
    .run();
    assert!(
        t8.throughput_per_process() < t1.throughput_per_process() / 3.0,
        "T/P must collapse: {} vs {}",
        t8.throughput_per_process(),
        t1.throughput_per_process()
    );
}

#[test]
fn blocking_negligible_when_cores_suffice() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        2,
    ))
    .unwrap()
    .run();
    for p in &trace.processes {
        assert!(
            p.mean_blocking_time < SimDuration::from_micros(100),
            "{}: blocking {}",
            p.name,
            p.mean_blocking_time
        );
    }
}

#[test]
fn blocking_dominates_when_oversubscribed() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        8,
    ))
    .unwrap()
    .run();
    for p in &trace.processes {
        assert!(
            p.mean_blocking_time > SimDuration::from_millis(5),
            "{}: blocking {}",
            p.name,
            p.mean_blocking_time
        );
    }
}

#[test]
fn power_respects_budget_with_dvfs() {
    for (device, model) in [
        (presets::orin_nano(), zoo::fcn_resnet50()),
        (presets::jetson_nano(), zoo::fcn_resnet50()),
    ] {
        let budget = device.power.budget_w;
        let config = quick_config(device, &model, Precision::Fp32, 4, 1);
        let trace = Simulation::new(config).unwrap().run();
        assert!(
            trace.mean_power() <= budget * 1.08,
            "mean power {} exceeds budget {budget}",
            trace.mean_power()
        );
    }
}

#[test]
fn fp32_triggers_downclock_on_orin() {
    let config = quick_config(
        presets::orin_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp32,
        4,
        1,
    );
    let trace = Simulation::new(config).unwrap().run();
    assert!(
        trace.final_freq_mhz < 625,
        "DVFS should throttle fp32: {} MHz",
        trace.final_freq_mhz
    );
}

#[test]
fn int8_leaves_clock_at_top() {
    let config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    let trace = Simulation::new(config).unwrap().run();
    assert_eq!(trace.final_freq_mhz, 625);
}

#[test]
fn nsight_profiler_halves_throughput() {
    let base = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    let mut nsight = base.clone();
    nsight.profiler = ProfilerMode::Nsight;
    let light = Simulation::new(base).unwrap().run().total_throughput();
    let heavy = Simulation::new(nsight).unwrap().run().total_throughput();
    let reduction = 1.0 - heavy / light;
    assert!(
        (0.3..0.7).contains(&reduction),
        "paper §4: ~50% intrusion, got {reduction:.2}"
    );
}

#[test]
fn kernel_events_cover_all_processes() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        2,
    ))
    .unwrap()
    .run();
    assert!(trace.kernel_events.iter().any(|e| e.pid == 0));
    assert!(trace.kernel_events.iter().any(|e| e.pid == 1));
    for e in &trace.kernel_events {
        assert!(e.end > e.start);
        assert!((0.0..=1.0).contains(&e.sm_active));
        assert!((0.0..=0.8).contains(&e.issue_slot));
        assert!((0.0..=1.0).contains(&e.tc_activity));
    }
}

#[test]
fn gpu_busy_never_exceeds_wall() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp16,
        1,
        2,
    ))
    .unwrap()
    .run();
    assert!(trace.gpu_utilization() <= 1.0);
    assert!(
        trace.gpu_utilization() > 0.5,
        "two FCN procs saturate the GPU"
    );
}

#[test]
fn ec_decomposition_parts_bounded_by_total() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        4,
    ))
    .unwrap()
    .run();
    for records in &trace.ec_records {
        for r in records {
            assert!(r.launch_time + r.blocking_time <= r.duration() + SimDuration::from_micros(1));
        }
    }
}

#[test]
fn batch_raises_throughput_per_process() {
    let b1 = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::yolov8n(),
        Precision::Int8,
        1,
        1,
    ))
    .unwrap()
    .run();
    let b16 = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::yolov8n(),
        Precision::Int8,
        16,
        1,
    ))
    .unwrap()
    .run();
    assert!(
        b16.throughput_per_process() > b1.throughput_per_process() * 1.1,
        "batch must help: {} vs {}",
        b16.throughput_per_process(),
        b1.throughput_per_process()
    );
}

#[test]
fn mps_sharing_recovers_concurrent_throughput() {
    // The MPS ablation: spatial sharing should beat Jetson's
    // time-multiplexing for multi-process workloads (paper §2 explains
    // Jetson lacks MPS; this quantifies the cost).
    let base = quick_config(
        presets::orin_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp16,
        1,
        4,
    );
    let mut mps = base.clone();
    mps.gpu_policy = jetsim_sim::GpuPolicy::SpatialMps {
        overlap_efficiency: 0.3,
    };
    let tm = Simulation::new(base).unwrap().run().total_throughput();
    let sp = Simulation::new(mps).unwrap().run().total_throughput();
    assert!(sp > tm * 1.1, "MPS {sp} vs time-multiplexed {tm}");
}

#[test]
fn latency_percentiles_ordered() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        4,
    ))
    .unwrap()
    .run();
    for p in &trace.processes {
        assert!(p.p50_ec_time <= p.p95_ec_time);
        assert!(p.p95_ec_time <= p.p99_ec_time);
        assert!(p.p99_ec_time > SimDuration::ZERO);
    }
}

fn rq_config(procs: u32) -> SimConfig {
    let mut config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        procs,
    );
    config.cpu_model = jetsim_sim::config::CpuModel::RunQueue;
    config
}

#[test]
fn run_queue_single_process_matches_stochastic_regime() {
    let stochastic = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    ))
    .unwrap()
    .run();
    let rq = Simulation::new(rq_config(1)).unwrap().run();
    // With a dedicated core the scheduler is irrelevant: both models
    // must land in the same throughput regime.
    let ratio = rq.total_throughput() / stochastic.total_throughput();
    assert!((0.8..1.25).contains(&ratio), "ratio = {ratio}");
    assert!(
        rq.processes[0].mean_blocking_time < SimDuration::from_micros(200),
        "{}",
        rq.processes[0].mean_blocking_time
    );
}

#[test]
fn run_queue_oversubscription_collapses_mechanically() {
    // 8 spin-waiting threads on 3 heavy cores: quantum time-sharing
    // alone must blow the EC up — no tuned probabilities involved.
    let p2 = Simulation::new(rq_config(2)).unwrap().run();
    let p8 = Simulation::new(rq_config(8)).unwrap().run();
    let ec2 = p2.mean_ec_time();
    let ec8 = p8.mean_ec_time();
    assert!(
        ec8 > ec2 * 3,
        "EC must explode past the heavy cores: {ec2} -> {ec8}"
    );
    assert!(
        p8.throughput_per_process() < p2.throughput_per_process() / 2.5,
        "{} vs {}",
        p8.throughput_per_process(),
        p2.throughput_per_process()
    );
}

#[test]
fn run_queue_blocking_appears_only_when_oversubscribed() {
    let p3 = Simulation::new(rq_config(3)).unwrap().run();
    for p in &p3.processes {
        assert!(
            p.mean_blocking_time < SimDuration::from_millis(1),
            "{}: {}",
            p.name,
            p.mean_blocking_time
        );
    }
    let p6 = Simulation::new(rq_config(6)).unwrap().run();
    let any_blocked = p6
        .processes
        .iter()
        .any(|p| p.mean_blocking_time > SimDuration::from_millis(1));
    assert!(any_blocked, "queue waits must surface as blocking");
}

#[test]
fn run_queue_is_deterministic() {
    let a = Simulation::new(rq_config(4)).unwrap().run();
    let b = Simulation::new(rq_config(4)).unwrap().run();
    assert_eq!(a.total_throughput(), b.total_throughput());
    assert_eq!(a.kernel_events.len(), b.kernel_events.len());
}

#[test]
fn periodic_arrivals_throttle_throughput() {
    // A 30 fps camera feeding a 400+ img/s engine: throughput pins to
    // the offered rate and the GPU goes mostly idle.
    let engine = std::sync::Arc::new(
        jetsim_trt::EngineBuilder::new(&presets::orin_nano())
            .precision(Precision::Int8)
            .build(&zoo::resnet50())
            .unwrap(),
    );
    let config_for = |arrivals| {
        SimConfig::builder(presets::orin_nano())
            .add_process(ProcessConfig {
                arrivals,
                ..ProcessConfig::new("p0", std::sync::Arc::clone(&engine), 0)
            })
            .warmup(SimDuration::from_millis(200))
            .measure(SimDuration::from_millis(1000))
            .build()
            .unwrap()
    };
    let open = Simulation::new(config_for(jetsim_sim::config::ArrivalModel::Periodic {
        fps: 30.0,
    }))
    .unwrap()
    .run();
    assert!(
        (24.0..33.0).contains(&open.total_throughput()),
        "pinned to offered rate: {}",
        open.total_throughput()
    );
    assert!(open.gpu_utilization() < 0.4, "mostly idle GPU");
    // Queue delay stays ~0: the engine drains each frame instantly.
    assert!(
        open.processes[0].mean_queue_delay < SimDuration::from_millis(1),
        "{}",
        open.processes[0].mean_queue_delay
    );
}

#[test]
fn overloaded_open_loop_builds_queue_delay() {
    // Offer 60 fps to an FCN engine that only sustains ~18 img/s:
    // the backlog grows and queueing delay dwarfs service time.
    let engine = std::sync::Arc::new(
        jetsim_trt::EngineBuilder::new(&presets::orin_nano())
            .precision(Precision::Fp16)
            .build(&zoo::fcn_resnet50())
            .unwrap(),
    );
    let config = SimConfig::builder(presets::orin_nano())
        .add_process(ProcessConfig {
            arrivals: jetsim_sim::config::ArrivalModel::Periodic { fps: 60.0 },
            ..ProcessConfig::new("p0", std::sync::Arc::clone(&engine), 0)
        })
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(1500))
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert!(
        trace.processes[0].mean_queue_delay > SimDuration::from_millis(100),
        "backlog must accumulate: {}",
        trace.processes[0].mean_queue_delay
    );
}

#[test]
fn poisson_arrivals_average_the_offered_rate() {
    let engine = std::sync::Arc::new(
        jetsim_trt::EngineBuilder::new(&presets::orin_nano())
            .precision(Precision::Int8)
            .build(&zoo::resnet50())
            .unwrap(),
    );
    let config = SimConfig::builder(presets::orin_nano())
        .add_process(ProcessConfig {
            arrivals: jetsim_sim::config::ArrivalModel::Poisson { fps: 100.0 },
            ..ProcessConfig::new("p0", std::sync::Arc::clone(&engine), 0)
        })
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_secs(2))
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    let t = trace.total_throughput();
    assert!((75.0..125.0).contains(&t), "mean rate ≈100: {t}");
}

#[test]
fn temperature_rises_under_load_but_stays_safe() {
    let trace = Simulation::new(quick_config(
        presets::orin_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp16,
        1,
        1,
    ))
    .unwrap()
    .run();
    let first = trace.power_samples.first().unwrap().temp_c;
    let last = trace.power_samples.last().unwrap().temp_c;
    assert!(last > first, "junction must warm up: {first} -> {last}");
    assert!(last < 60.0, "short runs stay far from the throttle point");
}

#[test]
fn tiny_thermal_mass_forces_throttling() {
    // An artificial device with negligible thermal capacitance and a
    // low ceiling hits the thermal limit within the run, forcing the
    // governor down even though power is within budget.
    let mut device = presets::orin_nano();
    device.thermal.capacitance_j_per_c = 0.05;
    device.thermal.throttle_c = 45.0;
    device.power.budget_w = 50.0; // power limit out of the picture
    let config = support::processes(device, &zoo::resnet50(), Precision::Fp16, 4, 1)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(1000))
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert!(
        trace.final_freq_mhz < 625,
        "thermal throttle must engage: {} MHz at {:.1} C",
        trace.final_freq_mhz,
        trace.power_samples.last().unwrap().temp_c
    );
}

#[test]
fn oom_killer_resolves_fcn_overdeployment_on_nano() {
    // Paper §6.2.1: 4 × FCN_ResNet50 reboots the Jetson Nano. Under
    // `OomPolicy::KillLargest` the reboot becomes a simulated
    // outcome: the OOM killer culls the deployment at admission and
    // the survivors report real throughput.
    use jetsim_sim::faults::{FaultKind, FaultPlan};
    let config = support::processes(
        presets::jetson_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp16,
        1,
        4,
    )
    // FCN on the Nano takes ~0.7 s per EC solo and ~2 s when the
    // survivors share the GPU, so give the window room to breathe.
    .warmup(SimDuration::from_millis(500))
    .measure(SimDuration::from_millis(8000))
    .faults(FaultPlan::kill_largest_on_oom())
    .build()
    .expect("kill policy admits the overcommit");
    let trace = Simulation::new(config).unwrap().run();
    assert!(trace.killed_processes() >= 1, "someone must die");
    assert!(trace.killed_processes() < 4, "someone must survive");
    assert!(trace.surviving_throughput() > 0.0, "survivors keep working");
    let kills = trace
        .fault_events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::ProcessKilled { .. }))
        .count();
    assert_eq!(kills, trace.killed_processes(), "one event per casualty");
    for p in &trace.processes {
        if p.killed_at.is_some() {
            assert_eq!(p.completed_ecs, 0, "killed at t=0, never ran");
        }
    }
}

#[test]
fn midrun_memory_spike_triggers_oom_kill() {
    use jetsim_sim::faults::{FaultKind, FaultPlan};
    // 4 ResNet50 processes fit on the Nano; a 3 GiB background
    // allocation 500 ms in does not.
    let spike_at = SimTime::from_nanos(500_000_000);
    let config = support::processes(
        presets::jetson_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        4,
    )
    .warmup(SimDuration::from_millis(200))
    .measure(SimDuration::from_millis(1000))
    .faults(FaultPlan::kill_largest_on_oom().memory_spike(
        spike_at,
        SimDuration::from_millis(300),
        3 << 30,
    ))
    .build()
    .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert!(trace.killed_processes() >= 1, "spike must force a kill");
    for p in &trace.processes {
        if let Some(at) = p.killed_at {
            assert!(at >= spike_at, "kills happen when the spike lands");
        }
    }
    assert!(trace
        .fault_events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::MemorySpikeStart { .. })));
    assert!(trace
        .fault_events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::MemorySpikeEnd { .. })));
}

#[test]
fn throttle_lock_pins_the_clock_low() {
    use jetsim_sim::faults::{FaultKind, FaultPlan};
    // Int8 ResNet50 normally leaves the Orin clock at the top
    // (`int8_leaves_clock_at_top`); a lock covering the whole run
    // pins it to the bottom ladder step instead.
    let mut config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    let base = Simulation::new(config.clone()).unwrap().run();
    config.faults = FaultPlan::new().throttle_lock(SimTime::ZERO, SimDuration::from_secs(30), 0);
    let locked = Simulation::new(config).unwrap().run();
    assert!(
        locked.final_freq_mhz < base.final_freq_mhz,
        "{} !< {}",
        locked.final_freq_mhz,
        base.final_freq_mhz
    );
    assert!(
        locked.total_throughput() < base.total_throughput() * 0.8,
        "pinned clock must cost throughput: {} vs {}",
        locked.total_throughput(),
        base.total_throughput()
    );
    assert!(locked
        .fault_events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::ThrottleLockStart { .. })));
}

#[test]
fn throttle_lock_releases_and_governor_recovers() {
    use jetsim_sim::faults::{FaultKind, FaultPlan};
    let mut config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    // Lock only the first 300 ms of a 1.2 s run.
    config.faults = FaultPlan::new().throttle_lock(SimTime::ZERO, SimDuration::from_millis(300), 0);
    let trace = Simulation::new(config).unwrap().run();
    assert!(trace
        .fault_events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::ThrottleLockEnd)));
    assert_eq!(
        trace.final_freq_mhz, 625,
        "int8 load climbs back to the top after release"
    );
}

#[test]
fn event_budget_watchdog_aborts_runaway_runs() {
    let mut config = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        2,
    );
    config.event_budget = Some(500);
    let trace = Simulation::new(config.clone()).unwrap().run();
    assert!(trace.budget_exceeded, "500 events cannot finish this run");
    assert!(trace.sim_events <= 500);
    config.event_budget = Some(u64::MAX);
    let full = Simulation::new(config).unwrap().run();
    assert!(!full.budget_exceeded);
    assert!(full.sim_events > 500);
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    use jetsim_sim::faults::FaultPlan;
    let base = quick_config(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        2,
        2,
    );
    let mut with_plan = base.clone();
    with_plan.faults = FaultPlan::new(); // explicitly attached, still empty
    let a = Simulation::new(base).unwrap().run();
    let b = Simulation::new(with_plan).unwrap().run();
    assert_eq!(a.total_throughput(), b.total_throughput());
    assert_eq!(a.kernel_events, b.kernel_events);
    assert_eq!(a.power_samples, b.power_samples);
    assert_eq!(a.sim_events, b.sim_events);
    assert!(b.fault_events.is_empty());
}

#[test]
fn fault_injection_is_deterministic() {
    use jetsim_sim::faults::FaultPlan;
    let run = || {
        let mut config = quick_config(
            presets::jetson_nano(),
            &zoo::resnet50(),
            Precision::Fp16,
            1,
            4,
        );
        config.faults = FaultPlan::seeded(42, config.total_time(), 3, 2)
            .oom_policy(jetsim_sim::faults::OomPolicy::KillLargest);
        Simulation::new(config).unwrap().run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.total_throughput(), b.total_throughput());
    assert_eq!(a.kernel_events.len(), b.kernel_events.len());
    assert_eq!(
        a.processes.iter().map(|p| p.killed_at).collect::<Vec<_>>(),
        b.processes.iter().map(|p| p.killed_at).collect::<Vec<_>>(),
    );
}

#[test]
fn power_samples_present_and_positive() {
    let trace = Simulation::new(quick_config(
        presets::jetson_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        1,
    ))
    .unwrap()
    .run();
    assert!(trace.power_samples.len() >= 3);
    for s in &trace.power_samples {
        assert!(s.watts > 1.0 && s.watts < 6.0, "watts = {}", s.watts);
    }
}
