//! Cross-crate pipeline tests: model zoo → engine builder → simulator →
//! profilers → analysis, including failure injection.

use jetsim::prelude::*;
use jetsim_profile::chrome_trace;
use jetsim_sim::{ArrivalModel, GpuPolicy, ProcessConfig, SimError};
use jetsim_trt::BuildError;

#[test]
fn full_pipeline_produces_consistent_views() {
    let platform = Platform::orin_nano();
    let profile = DualPhaseProfiler::new(&platform)
        .deployment(&Deployment::homogeneous(
            &zoo::yolov8n(),
            Precision::Int8,
            2,
            2,
        ))
        .unwrap()
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(900))
        .run()
        .unwrap();

    // Phase-1 report agrees with its own trace.
    let recomputed = profile.phase1_trace.total_throughput();
    assert!((profile.soc.throughput - recomputed).abs() < 1e-9);

    // Phase-2 kernel events cover both processes and sum to a sensible
    // busy time.
    assert!(profile
        .phase2_trace
        .kernel_events
        .iter()
        .any(|e| e.pid == 0));
    assert!(profile
        .phase2_trace
        .kernel_events
        .iter()
        .any(|e| e.pid == 1));
    let busy: f64 = profile
        .phase2_trace
        .kernel_events
        .iter()
        .map(|e| e.duration().as_secs_f64())
        .sum();
    assert!(busy <= profile.phase2_trace.measured.as_secs_f64() * 1.02);

    // Analysis runs and produces evidence.
    let report = profile.analyze();
    assert!(!report.evidence.is_empty());

    // The chrome trace serialises every phase-2 kernel.
    let json = chrome_trace::to_chrome_trace(&profile.phase2_trace);
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        profile.phase2_trace.kernel_events.len()
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        DualPhaseProfiler::new(&Platform::jetson_nano())
            .deployment(&Deployment::homogeneous(
                &zoo::resnet50(),
                Precision::Fp16,
                1,
                2,
            ))
            .unwrap()
            .warmup(SimDuration::from_millis(150))
            .measure(SimDuration::from_millis(600))
            .seed(42)
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.soc.throughput, b.soc.throughput);
    assert_eq!(a.soc.mean_power_w, b.soc.mean_power_w);
    assert_eq!(a.kernel.kernel_executions, b.kernel.kernel_executions);
    assert_eq!(
        a.kernel.cdfs.sm_active.mean(),
        b.kernel.cdfs.sm_active.mean()
    );
}

#[test]
fn failure_injection_bad_batch() {
    let platform = Platform::orin_nano();
    let err = platform
        .build_engine(&zoo::resnet50(), Precision::Fp16, 0)
        .unwrap_err();
    assert_eq!(err, BuildError::ZeroBatch);
    let err = platform
        .build_engine(&zoo::resnet50(), Precision::Fp16, 100_000)
        .unwrap_err();
    assert!(matches!(err, BuildError::BatchTooLarge { .. }));
}

#[test]
fn failure_injection_oom_reports_sizes() {
    let err = Deployment::homogeneous(&zoo::fcn_resnet50(), Precision::Fp32, 8, 6)
        .config_builder(&Platform::jetson_nano(), ArrivalModel::Saturated)
        .unwrap()
        .build()
        .unwrap_err();
    let SimError::OutOfMemory {
        required_bytes,
        usable_bytes,
    } = err
    else {
        panic!("expected OOM, got {err:?}");
    };
    assert!(required_bytes > usable_bytes);
    assert!(usable_bytes > 1 << 30, "the Nano still has >1 GiB usable");
}

#[test]
fn failure_injection_empty_config() {
    let err = SimConfig::builder(Platform::orin_nano().device().clone())
        .build()
        .unwrap_err();
    assert_eq!(err, SimError::NoProcesses);
}

#[test]
fn heterogeneous_multi_tenant_mix_runs() {
    // The paper's multi-tenancy context: different models sharing one GPU.
    let platform = Platform::orin_nano();
    let config = Deployment::new()
        .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1))
        .tenant(Tenant::new(zoo::yolov8n(), Precision::Int8, 1))
        .tenant(Tenant::new(zoo::mobilenet_v2(), Precision::Int8, 1))
        .config_builder(&platform, ArrivalModel::Saturated)
        .unwrap()
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(900))
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert_eq!(trace.processes.len(), 3);
    for p in &trace.processes {
        assert!(p.completed_ecs > 0, "{} starved", p.name);
    }
    // The light model must complete more ECs than the heavy ones.
    let ecs = |name: &str| {
        trace
            .processes
            .iter()
            .find(|p| p.engine_name.contains(name))
            .map(|p| p.completed_ecs)
            .unwrap()
    };
    assert!(ecs("mobilenet") > ecs("yolov8n"));
}

#[test]
fn mps_ablation_beats_time_multiplexing_when_gpu_bound() {
    let platform = Platform::orin_nano();
    let deployment = Deployment::homogeneous(&zoo::fcn_resnet50(), Precision::Fp16, 1, 2);
    let run = |policy| {
        let config = deployment
            .config_builder(&platform, ArrivalModel::Saturated)
            .unwrap()
            .gpu_policy(policy)
            .warmup(SimDuration::from_millis(200))
            .measure(SimDuration::from_millis(1200))
            .build()
            .unwrap();
        Simulation::new(config).unwrap().run().total_throughput()
    };
    let tm = run(GpuPolicy::TimesliceRR);
    let mps = run(GpuPolicy::SpatialMps {
        overlap_efficiency: 0.3,
    });
    assert!(mps > tm, "mps {mps} vs time-mux {tm}");
}

#[test]
fn extended_zoo_builds_and_runs_everywhere() {
    for model in zoo::extended() {
        for platform in Platform::paper_platforms() {
            let engine = platform
                .build_engine(&model, Precision::Fp16, 1)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", model.name(), platform.name()));
            assert!(engine.kernel_count() > 0);
            let config = SimConfig::builder(platform.device().clone())
                .add_process(ProcessConfig::new("p0", engine, 0))
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_millis(400))
                .build();
            // Some heavy models may legitimately not fit one process? No —
            // single processes always fit on both boards.
            let trace = Simulation::new(config.unwrap()).unwrap().run();
            assert!(trace.gpu_utilization() > 0.0, "{}", model.name());
        }
    }
}

#[test]
fn sweep_and_profiler_agree_on_throughput() {
    let platform = Platform::orin_nano();
    let cells = SweepSpec::new()
        .precisions([Precision::Int8])
        .batches([1])
        .process_counts([1])
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(1000))
        .run(&platform, &zoo::resnet50());
    let sweep_tput = cells[0].outcome.throughput().unwrap();
    let profiler_tput = DualPhaseProfiler::new(&platform)
        .deployment(&Deployment::homogeneous(
            &zoo::resnet50(),
            Precision::Int8,
            1,
            1,
        ))
        .unwrap()
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(1000))
        .run_phase1()
        .unwrap()
        .0
        .throughput;
    let ratio = sweep_tput / profiler_tput;
    assert!(
        (0.85..1.15).contains(&ratio),
        "{sweep_tput} vs {profiler_tput}"
    );
}
