//! Behaviour of the serverless autoscaling layer at the DES level:
//! burst-driven scale-up with paid starts, idle reaping, scale-to-zero
//! parking, and interaction with the OOM-recovery machinery.

use std::collections::HashSet;
use std::sync::Arc;

use jetsim_des::{ArrivalProcess, SimDuration, SimTime};
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::serving::{AutoscalerPolicy, RecoveryPolicy, ServeEventKind};
use jetsim_sim::{
    FaultPlan, OomPolicy, ProcessConfig, RunTrace, ServeGroup, ServePlan, SimConfig, Simulation,
};
use jetsim_trt::EngineBuilder;

const START: SimDuration = SimDuration::from_millis(12);

/// A resnet50 group on the Orin Nano with `members` replica slots,
/// shaped by `group` and run for `measure_ms`.
fn trace(
    arrivals: ArrivalProcess,
    members: usize,
    measure_ms: u64,
    seed: u64,
    faults: Option<FaultPlan>,
    group: impl FnOnce(ServeGroup) -> ServeGroup,
) -> RunTrace {
    let device = jetsim_device::presets::orin_nano();
    let eng = Arc::new(
        EngineBuilder::new(&device)
            .precision(Precision::Int8)
            .batch(1)
            .build(&zoo::resnet50())
            .unwrap(),
    );
    let mut builder = SimConfig::builder(device);
    for i in 0..members {
        builder = builder.add_process(ProcessConfig::new(
            format!("resnet50/{i}"),
            Arc::clone(&eng),
            i,
        ));
    }
    let g = group(ServeGroup::new("resnet50", arrivals).members(0..members));
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let config = builder
        .serve(ServePlan::new().group(g))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(measure_ms))
        .seed(seed)
        .build()
        .unwrap();
    Simulation::new(config).unwrap().run()
}

fn scaler(min: u32, max: u32) -> AutoscalerPolicy {
    AutoscalerPolicy::new(min, max)
        .target_queue_per_replica(2.0)
        .evaluate_every(SimDuration::from_millis(10))
        .keep_alive(SimDuration::from_millis(80))
        .start_cost(START)
}

#[test]
fn burst_scales_up_and_charges_the_start_cost() {
    // Calm 20 qps, bursts of 2500 qps: one replica drowns immediately.
    let arrivals = ArrivalProcess::mmpp(
        20.0,
        2500.0,
        SimDuration::from_millis(150),
        SimDuration::from_millis(150),
    );
    let t = trace(arrivals, 3, 1200, 7, None, |g| {
        g.queue_cap(256).autoscaler(scaler(1, 3))
    });
    let provisioned: Vec<(usize, SimTime, bool)> = t
        .serve_events
        .iter()
        .filter_map(|e| match e.kind {
            ServeEventKind::ReplicaProvisioned { pid, cold } => Some((pid, e.time, cold)),
            _ => None,
        })
        .collect();
    assert!(
        !provisioned.is_empty(),
        "a 2500 qps burst against one up replica must provision more"
    );
    assert!(
        provisioned.iter().all(|(_, _, cold)| !cold),
        "a floor replica started at t=0, so every scale-up is a warm start"
    );
    // Every provision's Warmed event lands exactly the start cost later.
    for (pid, at, cold) in &provisioned {
        let warmed = t
            .serve_events
            .iter()
            .find(|e| {
                e.time >= *at
                    && matches!(e.kind, ServeEventKind::ReplicaWarmed { pid: p } if p == *pid)
            })
            .map(|e| e.time);
        if let Some(warmed) = warmed {
            assert_eq!(
                warmed.saturating_since(*at),
                START,
                "pid {pid} cold={cold}: provision -> serving must take the start cost"
            );
        }
    }
    // The cold start is visible to requests: something completed after
    // the scale-up, i.e. the burst was actually absorbed.
    assert!(
        t.requests
            .iter()
            .filter(|r| r.completed().is_some())
            .count()
            > 0,
        "scaled-up group serves"
    );
}

#[test]
fn idle_calm_reaps_back_to_the_floor() {
    // A hot opening burst, then calm: the scaled-up replicas idle out.
    let arrivals = ArrivalProcess::mmpp(
        5.0,
        2000.0,
        SimDuration::from_millis(400),
        SimDuration::from_millis(120),
    );
    let t = trace(arrivals, 3, 1500, 11, None, |g| {
        g.queue_cap(256).autoscaler(scaler(1, 3))
    });
    let reaps = t
        .serve_events
        .iter()
        .filter(|e| matches!(e.kind, ServeEventKind::ReplicaReaped { .. }))
        .count();
    assert!(reaps > 0, "idle replicas above the floor must be reaped");
    // Replay the lifecycle: the up-set never exceeds the ceiling and
    // ends at (or above, mid-provision) the floor minus kills.
    let mut up: HashSet<usize> = HashSet::new();
    let mut seeded = false;
    for e in &t.serve_events {
        match e.kind {
            ServeEventKind::ReplicaWarmed { pid } => {
                up.insert(pid);
                seeded = true;
            }
            ServeEventKind::ReplicaReaped { pid } | ServeEventKind::ReplicaDown { pid, .. } => {
                up.remove(&pid);
            }
            _ => {}
        }
        assert!(up.len() <= 3, "up-set above the max_replicas ceiling");
    }
    assert!(seeded, "initial floor replicas emit ReplicaWarmed at t=0");
}

#[test]
fn scale_to_zero_parks_and_the_next_arrival_pays_the_start() {
    // Sparse arrivals (~15 qps) with a 20 ms keep-alive: the group
    // parks between requests.
    let scaler = AutoscalerPolicy::new(0, 2)
        .target_queue_per_replica(1.0)
        .evaluate_every(SimDuration::from_millis(5))
        .keep_alive(SimDuration::from_millis(20))
        .start_cost(START);
    let t = trace(ArrivalProcess::poisson(15.0), 2, 1200, 3, None, |g| {
        g.queue_cap(64).autoscaler(scaler)
    });
    let parks: Vec<SimTime> = t
        .serve_events
        .iter()
        .filter(|e| matches!(e.kind, ServeEventKind::ParkedToZero))
        .map(|e| e.time)
        .collect();
    assert!(!parks.is_empty(), "min_replicas=0 must park the idle group");
    // With no floor replica, nothing started at t=0: the very first
    // provision is the group's cold start.
    let first_provision = t
        .serve_events
        .iter()
        .find_map(|e| match e.kind {
            ServeEventKind::ReplicaProvisioned { cold, .. } => Some(cold),
            _ => None,
        })
        .expect("a scale-from-zero group provisions on first arrival");
    assert!(first_provision, "first provision from zero is cold");
    // After each park the group has no live replica, so the next
    // provision comes strictly later and the unpark request waits at
    // least the start cost before dispatch.
    let first_park = parks[0];
    let reprovision = t
        .serve_events
        .iter()
        .find(|e| {
            e.time > first_park && matches!(e.kind, ServeEventKind::ReplicaProvisioned { .. })
        })
        .expect("an arrival after the park re-provisions");
    let warmed_after = t
        .serve_events
        .iter()
        .find(|e| {
            e.time >= reprovision.time && matches!(e.kind, ServeEventKind::ReplicaWarmed { .. })
        })
        .expect("the re-provisioned replica warms");
    assert!(
        warmed_after.time.saturating_since(reprovision.time) >= START,
        "unparking costs at least the start cost"
    );
    let unpark_request = t
        .requests
        .iter()
        .filter(|r| r.arrival > first_park && r.arrival <= reprovision.time)
        .find(|r| r.dispatched().is_some());
    if let Some(r) = unpark_request {
        assert!(
            r.dispatched().unwrap().saturating_since(r.arrival) >= START,
            "the arrival that wakes a parked group eats the start cost"
        );
    }
}

#[test]
fn oom_kill_plus_recovery_never_double_provisions() {
    // A spike sized to force the OOM killer while the autoscaler and
    // the recovery machinery are both armed: each pid's lifecycle must
    // stay an alternation (never provisioned while provisioning, never
    // warmed while already up).
    let plan = FaultPlan::new()
        .memory_spike(
            SimTime::from_nanos(400_000_000),
            SimDuration::from_millis(120),
            7 << 30,
        )
        .oom_policy(OomPolicy::KillLargest);
    let t = trace(
        ArrivalProcess::poisson(400.0),
        3,
        1200,
        5,
        Some(plan),
        |g| {
            g.queue_cap(256)
                .autoscaler(scaler(1, 3))
                .recovery(RecoveryPolicy::new(SimDuration::from_millis(40), 2))
        },
    );
    assert!(
        t.serve_events
            .iter()
            .any(|e| matches!(e.kind, ServeEventKind::ReplicaDown { .. })),
        "the spike must kill at least one replica"
    );
    let mut up: HashSet<usize> = HashSet::new();
    let mut provisioning: HashSet<usize> = HashSet::new();
    for e in &t.serve_events {
        match e.kind {
            ServeEventKind::ReplicaProvisioned { pid, .. } => {
                assert!(
                    !provisioning.contains(&pid),
                    "pid {pid} provisioned twice without warming"
                );
                assert!(!up.contains(&pid), "pid {pid} provisioned while up");
                provisioning.insert(pid);
            }
            ServeEventKind::ReplicaWarmed { pid } => {
                provisioning.remove(&pid);
                assert!(up.insert(pid), "pid {pid} warmed while already up");
            }
            ServeEventKind::ReplicaReaped { pid } => {
                assert!(up.remove(&pid), "pid {pid} reaped while not up");
            }
            ServeEventKind::ReplicaDown { pid, .. } => {
                // A kill lands whatever the scale state; it cancels any
                // pending provision.
                up.remove(&pid);
                provisioning.remove(&pid);
            }
            _ => {}
        }
        assert!(
            up.len() <= 3,
            "more live replicas than the group has members"
        );
    }
}

#[test]
fn absent_autoscaler_is_static_and_byte_identical() {
    let run = || {
        trace(ArrivalProcess::poisson(300.0), 2, 800, 99, None, |g| {
            g.queue_cap(64)
        })
    };
    let a = run();
    let b = run();
    assert!(
        !a.serve_events.iter().any(|e| matches!(
            e.kind,
            ServeEventKind::ReplicaProvisioned { .. }
                | ServeEventKind::ReplicaWarmed { .. }
                | ServeEventKind::ReplicaReaped { .. }
                | ServeEventKind::ParkedToZero
        )),
        "a group without an autoscaler emits no scaling events"
    );
    assert_eq!(
        a.requests.len(),
        b.requests.len(),
        "static serving replays deterministically"
    );
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.arrival, y.arrival);
        assert_eq!(x.dispatched(), y.dispatched());
        assert_eq!(x.completed(), y.completed());
    }
}
