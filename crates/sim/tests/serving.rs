//! End-to-end behavior of the request-level serving path: determinism,
//! admission policies, dynamic batching and closed-loop coexistence.

mod support;

use std::sync::Arc;

use jetsim_des::{ArrivalProcess, SimDuration};
use jetsim_device::presets;
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::serving::ServeEventKind;
use jetsim_sim::{
    AdmissionPolicy, HedgePolicy, ProcessConfig, RetryPolicy, RunTrace, ServeGroup, ServePlan,
    SimConfig, SimError, Simulation,
};
use jetsim_trt::EngineBuilder;

fn engine(
    device: &jetsim_device::DeviceSpec,
    precision: Precision,
    batch: u32,
) -> Arc<jetsim_trt::Engine> {
    Arc::new(
        EngineBuilder::new(device)
            .precision(precision)
            .batch(batch)
            .build(&zoo::resnet50())
            .unwrap(),
    )
}

/// One ResNet50 serve group on the Orin Nano.
fn serving_trace(rate: f64, servers: usize, cap: usize, admission: AdmissionPolicy) -> RunTrace {
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Int8, 1);
    let mut builder = SimConfig::builder(device);
    for i in 0..servers {
        builder = builder.add_process(ProcessConfig::new(
            format!("resnet50/{i}"),
            Arc::clone(&eng),
            i,
        ));
    }
    let config = builder
        .serve(
            ServePlan::new().group(
                ServeGroup::new("resnet50", ArrivalProcess::poisson(rate))
                    .members(0..servers)
                    .max_delay(SimDuration::from_millis(2))
                    .queue_cap(cap)
                    .admission(admission),
            ),
        )
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(900))
        .seed(42)
        .build()
        .unwrap();
    Simulation::new(config).unwrap().run()
}

#[test]
fn serving_run_serves_requests() {
    let trace = serving_trace(100.0, 2, 64, AdmissionPolicy::Reject);
    assert_eq!(trace.serve_group_labels, vec!["resnet50"]);
    assert!(!trace.requests.is_empty(), "arrivals were offered");
    let served = trace.requests.iter().filter(|r| r.served()).count();
    assert!(
        served > 50,
        "most requests served at a feasible load, got {served}"
    );
    for r in trace.requests.iter().filter(|r| r.served()) {
        let latency = r.latency().unwrap();
        assert!(!latency.is_zero());
        assert!(r.queue_wait().unwrap() <= latency);
        assert!(r.pid().is_some() && r.batch_size >= 1);
    }
    assert!(
        trace
            .serve_events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::BatchFormed { .. })),
        "batches were formed"
    );
}

#[test]
fn serving_replays_bit_identically() {
    let a = serving_trace(150.0, 2, 64, AdmissionPolicy::Reject);
    let b = serving_trace(150.0, 2, 64, AdmissionPolicy::Reject);
    assert_eq!(a.requests, b.requests, "same seed, same request timeline");
    assert_eq!(a.serve_events, b.serve_events);
}

#[test]
fn closed_loop_traces_have_no_serving_artifacts() {
    let config = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    )
    .warmup(SimDuration::from_millis(100))
    .measure(SimDuration::from_millis(400))
    .build()
    .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert!(trace.requests.is_empty());
    assert!(trace.serve_events.is_empty());
    assert!(trace.serve_group_labels.is_empty());
}

#[test]
fn overload_with_reject_drops_newcomers() {
    // Far beyond one int8 ResNet50 server's capacity: the bounded queue
    // must shed load instead of growing without bound.
    let trace = serving_trace(4000.0, 1, 8, AdmissionPolicy::Reject);
    let dropped = trace
        .requests
        .iter()
        .filter(|r| r.dropped().is_some())
        .count();
    assert!(dropped > 0, "overload must drop requests");
    // Rejected newcomers never carry dispatch state.
    for r in trace.requests.iter().filter(|r| r.dropped().is_some()) {
        assert!(r.dispatched().is_none() && r.pid().is_none());
    }
}

#[test]
fn shed_keeps_the_freshest_requests() {
    let trace = serving_trace(4000.0, 1, 8, AdmissionPolicy::Shed);
    let shed = trace
        .requests
        .iter()
        .filter(|r| r.dropped().is_some())
        .count();
    assert!(shed > 0);
    // Under shedding, the served requests skew fresh: queue waits stay
    // bounded by roughly (queue_cap × service time), never unbounded.
    let max_wait = trace
        .requests
        .iter()
        .filter_map(|r| r.queue_wait())
        .max()
        .unwrap();
    assert!(
        max_wait < SimDuration::from_millis(500),
        "shedding bounds queue waits, got {max_wait:?}"
    );
}

#[test]
fn degrade_policy_switches_engines_under_pressure() {
    let device = presets::orin_nano();
    let normal = engine(&device, Precision::Fp16, 1);
    let fallback = engine(&device, Precision::Int8, 1);
    let config = SimConfig::builder(device)
        .add_process(ProcessConfig::new("resnet50/0", Arc::clone(&normal), 0))
        .serve(
            ServePlan::new().group(
                ServeGroup::new("resnet50", ArrivalProcess::poisson(3000.0))
                    .members([0])
                    .max_delay(SimDuration::from_millis(1))
                    .queue_cap(8)
                    .admission(AdmissionPolicy::Degrade)
                    .degraded_engine(Arc::clone(&fallback)),
            ),
        )
        .warmup(SimDuration::from_millis(50))
        .measure(SimDuration::from_millis(450))
        .seed(7)
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert!(
        trace
            .serve_events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::DegradeEnter { .. })),
        "sustained overload must trip degradation"
    );
    assert!(
        trace.requests.iter().any(|r| r.degraded && r.served()),
        "some requests ran on the degraded engine"
    );
}

#[test]
fn batches_coalesce_up_to_the_engine_batch() {
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Int8, 8);
    let config = SimConfig::builder(device)
        .add_process(ProcessConfig::new("resnet50/0", Arc::clone(&eng), 0))
        .serve(
            ServePlan::new().group(
                ServeGroup::new("resnet50", ArrivalProcess::poisson(2000.0))
                    .members([0])
                    .max_delay(SimDuration::from_millis(10))
                    .queue_cap(256),
            ),
        )
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(900))
        .seed(9)
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    let mut saw_multi = false;
    for e in &trace.serve_events {
        if let ServeEventKind::BatchFormed { size, .. } = e.kind {
            assert!(
                (1..=8).contains(&size),
                "batch within engine bounds, got {size}"
            );
            saw_multi |= size > 1;
        }
    }
    assert!(
        saw_multi,
        "a 2000 qps offered load must form multi-request batches"
    );
}

#[test]
fn mixed_serving_and_closed_loop_tenants_coexist() {
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Int8, 1);
    let config = SimConfig::builder(device)
        .add_process(ProcessConfig::new("served/0", Arc::clone(&eng), 0))
        .add_process(ProcessConfig::new("background/0", Arc::clone(&eng), 1))
        .serve(
            ServePlan::new()
                .group(ServeGroup::new("served", ArrivalProcess::poisson(50.0)).members([0])),
        )
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(900))
        .seed(3)
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    assert!(trace.requests.iter().any(|r| r.served()));
    let background = &trace.processes[1];
    assert!(
        background.throughput > 10.0,
        "the closed-loop tenant keeps saturating, got {}",
        background.throughput
    );
}

#[test]
fn serve_plan_validation_rejects_bad_membership() {
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Int8, 1);
    let bad_index = SimConfig::builder(device.clone())
        .add_process(ProcessConfig::new("a", Arc::clone(&eng), 0))
        .serve(
            ServePlan::new()
                .group(ServeGroup::new("g", ArrivalProcess::poisson(10.0)).members([5])),
        )
        .build();
    assert!(
        matches!(bad_index, Err(SimError::InvalidServePlan { .. })),
        "{bad_index:?}"
    );

    let double_claim = SimConfig::builder(device.clone())
        .add_process(ProcessConfig::new("a", Arc::clone(&eng), 0))
        .serve(
            ServePlan::new()
                .group(ServeGroup::new("g1", ArrivalProcess::poisson(10.0)).members([0]))
                .group(ServeGroup::new("g2", ArrivalProcess::poisson(10.0)).members([0])),
        )
        .build();
    assert!(
        matches!(double_claim, Err(SimError::InvalidServePlan { .. })),
        "{double_claim:?}"
    );

    let empty_group = SimConfig::builder(device)
        .add_process(ProcessConfig::new("a", eng, 0))
        .serve(ServePlan::new().group(ServeGroup::new("g", ArrivalProcess::poisson(10.0))))
        .build();
    assert!(
        matches!(empty_group, Err(SimError::InvalidServePlan { .. })),
        "{empty_group:?}"
    );
}

#[test]
fn serve_plan_validation_bounds_the_request_index() {
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Int8, 1);
    let build = |group: ServeGroup, warmup: SimDuration, measure: SimDuration| {
        SimConfig::builder(device.clone())
            .add_process(ProcessConfig::new("a", Arc::clone(&eng), 0))
            .serve(ServePlan::new().group(group.members([0])))
            .warmup(warmup)
            .measure(measure)
            .build()
    };
    let refused = |config: Result<SimConfig, SimError>, why: &str| match config {
        Err(err @ SimError::InvalidServePlan { .. }) => err.to_string().contains(why),
        _ => false,
    };
    let zero = SimDuration::ZERO;
    let secs = SimDuration::from_secs;
    let poisson = || ServeGroup::new("g", ArrivalProcess::poisson(100.0));
    // At 100 requests/s, 2.1e9 expected records fit half the u32 index
    // space and 2.2e9 do not.
    assert!(build(poisson(), zero, secs(21_000_000)).is_ok());
    assert!(refused(
        build(poisson(), zero, secs(22_000_000)),
        "request records"
    ));
    // The retry budget and hedging multiply the count: 5e8 arrivals x 3
    // attempts fit, and x 2 for hedges do not.
    let retried = || poisson().retry(RetryPolicy::new(3, SimDuration::from_millis(10)));
    assert!(build(retried(), zero, secs(5_000_000)).is_ok());
    assert!(refused(
        build(retried().hedge(HedgePolicy::auto()), zero, secs(5_000_000)),
        "request records"
    ));
    // A finite trace counts its length, so only the clock bounds its
    // window, and the clock's last nanosecond is a record's unset time.
    let one = || {
        ServeGroup::new(
            "g",
            ArrivalProcess::trace([SimDuration::from_millis(1)], false),
        )
    };
    let last = SimDuration::from_nanos(u64::MAX - 1);
    assert!(build(one(), zero, last).is_ok());
    assert!(refused(
        build(one(), SimDuration::from_nanos(1), last),
        "last nanosecond"
    ));
}

#[test]
fn simulation_new_rejects_hand_assembled_bad_serve_plans() {
    // `SimConfig`'s fields are public, so a serve plan can bypass the
    // builder's checks; `Simulation::new` must still refuse it.
    let device = presets::orin_nano();
    let valid = SimConfig::builder(device.clone())
        .add_process(ProcessConfig::new(
            "p0",
            engine(&device, Precision::Int8, 1),
            0,
        ))
        .build()
        .unwrap();
    for members in [vec![5], vec![]] {
        let mut config = valid.clone();
        let group = ServeGroup::new("g", ArrivalProcess::poisson(10.0)).members(members);
        config.serve = Some(ServePlan::new().group(group));
        let err = Simulation::new(config).err();
        assert!(
            matches!(err, Some(SimError::InvalidServePlan { .. })),
            "{err:?}"
        );
    }
}

#[test]
fn run_queue_cpu_model_serves_without_leaking_cores() {
    // Regression guard: a server returning from sync must release its
    // heavy core; otherwise later batches starve and throughput dies.
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Int8, 1);
    let config = SimConfig::builder(device)
        .add_process(ProcessConfig::new("resnet50/0", Arc::clone(&eng), 0))
        .add_process(ProcessConfig::new("resnet50/1", Arc::clone(&eng), 1))
        .serve(
            ServePlan::new()
                .group(ServeGroup::new("resnet50", ArrivalProcess::poisson(100.0)).members([0, 1])),
        )
        .cpu_model(jetsim_sim::CpuModel::RunQueue)
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(900))
        .seed(11)
        .build()
        .unwrap();
    let trace = Simulation::new(config).unwrap().run();
    let served = trace.requests.iter().filter(|r| r.served()).count();
    assert!(
        served > 50,
        "run-queue serving keeps flowing, served {served}"
    );
}
