//! Behaviour of the request-level resilience machinery under injected
//! faults: deadlines, retries, hedging, circuit breaking and replica
//! recovery, exercised directly at the DES layer.

use std::sync::Arc;

use jetsim_des::{ArrivalProcess, SimDuration, SimTime};
use jetsim_device::presets;
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::serving::{
    BreakerPolicy, DropKind, HedgePolicy, RecoveryPolicy, RetryPolicy, ServeEventKind,
};
use jetsim_sim::{
    AdmissionPolicy, FaultKind, FaultPlan, OomPolicy, ProcessConfig, RunTrace, ServeGroup,
    ServePlan, SimConfig, Simulation,
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

/// One resnet50 serve group on the Orin Nano with resilience knobs,
/// overloadable via `rate`.
fn orin_trace(rate: f64, servers: usize, group: impl FnOnce(ServeGroup) -> ServeGroup) -> RunTrace {
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
    let g = group(ServeGroup::new("resnet50", ArrivalProcess::poisson(rate)).members(0..servers));
    let config = builder
        .serve(ServePlan::new().group(g))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(900))
        .seed(42)
        .build()
        .unwrap();
    Simulation::new(config).unwrap().run()
}

/// Two fp16 resnet50 replicas on the Jetson Nano with a memory spike
/// sized to the whole board at t=300 ms: the OOM killer takes both
/// replicas, deterministically.
fn nano_oom_trace(group: impl FnOnce(ServeGroup) -> ServeGroup) -> RunTrace {
    let device = presets::jetson_nano();
    let eng = engine(&device, Precision::Fp16, 1);
    let g = group(ServeGroup::new("resnet50", ArrivalProcess::poisson(60.0)).members(0..2));
    let plan = FaultPlan::new()
        .memory_spike(
            SimTime::from_nanos(300_000_000),
            SimDuration::from_millis(100),
            4 << 30,
        )
        .oom_policy(OomPolicy::KillLargest);
    let config = SimConfig::builder(device)
        .add_process(ProcessConfig::new("resnet50/0", Arc::clone(&eng), 0))
        .add_process(ProcessConfig::new("resnet50/1", Arc::clone(&eng), 1))
        .serve(ServePlan::new().group(g))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(700))
        .seed(13)
        .faults(plan)
        .build()
        .unwrap();
    Simulation::new(config).unwrap().run()
}

#[test]
fn deadline_expires_stale_queued_requests() {
    let deadline = SimDuration::from_millis(5);
    let trace = orin_trace(4000.0, 1, |g| g.queue_cap(64).deadline(deadline));
    let expired: Vec<_> = trace
        .requests
        .iter()
        .filter(|r| matches!(r.dropped(), Some(d) if d.kind == DropKind::DeadlineExpired))
        .collect();
    assert!(!expired.is_empty(), "overload must expire queued requests");
    for r in &expired {
        assert!(
            r.dispatched().is_none(),
            "expired requests never dispatched"
        );
        let drop_at = r.dropped().unwrap().at;
        assert_eq!(
            drop_at.saturating_since(r.arrival),
            deadline,
            "a deadline drop fires exactly `deadline` after arrival"
        );
    }
}

/// The OOM killer sizes the board with the same rule as the pre-flight
/// footprint: a serve member's degraded fallback engine stays resident
/// beside its main one, so it counts while the member lives and is
/// freed with it. A spike one byte past the headroom left by the whole
/// footprint must kill a replica, and the kill frees half of it.
#[test]
fn oom_killer_counts_fallback_engines() {
    let device = presets::orin_nano();
    let eng = engine(&device, Precision::Fp16, 1);
    let g = ServeGroup::new("resnet50", ArrivalProcess::poisson(60.0))
        .members(0..2)
        .admission(AdmissionPolicy::Degrade)
        .degraded_engine(engine(&device, Precision::Int8, 1));
    let mut config = SimConfig::builder(device)
        .add_process(ProcessConfig::new("resnet50/0", Arc::clone(&eng), 0))
        .add_process(ProcessConfig::new("resnet50/1", Arc::clone(&eng), 1))
        .serve(ServePlan::new().group(g))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(300))
        .seed(5)
        .build()
        .unwrap();
    let footprint = config.total_footprint_bytes();
    let spike = config.device.memory.usable_bytes() - footprint + 1;
    config.faults = FaultPlan::new()
        .memory_spike(
            SimTime::from_nanos(200_000_000),
            SimDuration::from_millis(50),
            spike,
        )
        .oom_policy(OomPolicy::KillLargest);
    let trace = Simulation::new(config).unwrap().run();
    let freed: Vec<u64> = trace
        .fault_events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::ProcessKilled { freed_bytes, .. } => Some(freed_bytes),
            _ => None,
        })
        .collect();
    assert_eq!(
        freed,
        [footprint / 2],
        "one of two equal replicas dies, taking its fallback engine"
    );
}

#[test]
fn killed_replicas_fail_their_inflight_requests() {
    let trace = nano_oom_trace(|g| g.queue_cap(32));
    let killed: Vec<_> = trace
        .requests
        .iter()
        .filter(|r| matches!(r.dropped(), Some(d) if d.kind == DropKind::Killed))
        .collect();
    assert!(
        !killed.is_empty(),
        "requests in flight on an OOM-killed replica must be failed"
    );
    for r in &killed {
        assert!(r.dispatched().is_some(), "Killed means it was in flight");
        assert!(r.completed().is_none(), "Killed means it never completed");
    }
    let reported: usize = trace
        .serve_events
        .iter()
        .filter_map(|e| match e.kind {
            ServeEventKind::ReplicaDown {
                failed_inflight, ..
            } => Some(failed_inflight),
            _ => None,
        })
        .sum();
    assert_eq!(
        reported,
        killed.len(),
        "ReplicaDown events account for every killed in-flight request"
    );
    // No recovery policy: the group goes dark after both replicas die.
    assert!(trace
        .serve_events
        .iter()
        .all(|e| !matches!(e.kind, ServeEventKind::ReplicaUp { .. })));
    let last_kill = killed
        .iter()
        .map(|r| r.dropped().unwrap().at)
        .max()
        .unwrap();
    assert!(
        !trace
            .requests
            .iter()
            .any(|r| matches!(r.completed(), Some(at) if at > last_kill)),
        "nothing completes after the last replica dies"
    );
}

#[test]
fn recovery_restarts_replicas_and_resumes_serving() {
    let restart_cost = SimDuration::from_millis(200);
    let trace = nano_oom_trace(|g| {
        g.queue_cap(32)
            .recovery(RecoveryPolicy::new(restart_cost, 2))
    });
    let mut down_at = std::collections::HashMap::new();
    let mut recoveries = Vec::new();
    for e in &trace.serve_events {
        match e.kind {
            ServeEventKind::ReplicaDown { pid, .. } => {
                down_at.insert(pid, e.time);
            }
            ServeEventKind::ReplicaUp { pid } => {
                let down = down_at[&pid];
                recoveries.push((pid, down, e.time));
            }
            _ => {}
        }
    }
    assert!(!recoveries.is_empty(), "killed replicas must restart");
    for (pid, down, up) in &recoveries {
        assert!(
            up.saturating_since(*down) >= restart_cost,
            "pid {pid} recovered faster than its restart cost"
        );
    }
    let first_up = recoveries.iter().map(|(_, _, up)| *up).min().unwrap();
    assert!(
        trace
            .requests
            .iter()
            .any(|r| matches!(r.completed(), Some(at) if at > first_up)),
        "serving resumes after the first replica recovers"
    );
}

#[test]
fn recovery_exhaustion_ejects_replicas() {
    let trace = nano_oom_trace(|g| {
        g.queue_cap(32)
            .recovery(RecoveryPolicy::new(SimDuration::from_millis(50), 0))
    });
    let ejected = trace
        .serve_events
        .iter()
        .filter(|e| matches!(e.kind, ServeEventKind::ReplicaEjected { .. }))
        .count();
    assert!(ejected > 0, "zero restarts means immediate ejection");
    assert!(
        trace
            .serve_events
            .iter()
            .all(|e| !matches!(e.kind, ServeEventKind::ReplicaUp { .. })),
        "an ejected replica never comes back"
    );
}

#[test]
fn retries_resubmit_dropped_requests_after_backoff() {
    let policy = RetryPolicy::new(3, SimDuration::from_millis(1));
    let trace = orin_trace(3000.0, 1, |g| {
        g.queue_cap(8)
            .admission(AdmissionPolicy::Reject)
            .retry(policy)
    });
    let retries: Vec<_> = trace
        .requests
        .iter()
        .filter(|r| r.retry_of().is_some())
        .collect();
    assert!(!retries.is_empty(), "rejects under overload must retry");
    for r in &retries {
        let parent = &trace.requests[r.retry_of().unwrap()];
        assert_eq!(parent.group(), r.group());
        assert_eq!(r.attempt, parent.attempt + 1, "attempts count up the chain");
        assert!(r.attempt < policy.max_attempts, "attempt budget respected");
        let failed_at = parent.dropped().expect("only failed attempts retry").at;
        assert!(
            r.arrival > failed_at,
            "a retry arrives strictly after its parent's failure (backoff > 0)"
        );
    }
}

#[test]
fn hedges_duplicate_slow_inflight_requests() {
    let trace = orin_trace(300.0, 2, |g| {
        g.queue_cap(64)
            .hedge(HedgePolicy::fixed(SimDuration::from_millis(1)))
    });
    let hedges: Vec<_> = trace
        .requests
        .iter()
        .filter(|r| r.hedge_of().is_some())
        .collect();
    assert!(!hedges.is_empty(), "a 1 ms hedge delay must fire");
    for h in &hedges {
        let primary = &trace.requests[h.hedge_of().unwrap()];
        assert!(
            primary.dispatched().is_some(),
            "only in-flight requests are hedged"
        );
        assert_eq!(primary.group(), h.group());
        assert!(h.arrival > primary.arrival);
    }
    // A cancelled twin was still queued — it never ran.
    for r in trace
        .requests
        .iter()
        .filter(|r| matches!(r.dropped(), Some(d) if d.kind == DropKind::HedgeLoser))
    {
        assert!(
            r.dispatched().is_none(),
            "hedge losers are cancelled in-queue"
        );
        assert!(r.completed().is_none());
    }
}

#[test]
fn tripped_breaker_blocks_admissions_until_the_probe() {
    let trace = orin_trace(4000.0, 1, |g| {
        g.queue_cap(8)
            .admission(AdmissionPolicy::Reject)
            .breaker(BreakerPolicy::new(16, 0.5).cooldown(SimDuration::from_millis(20)))
    });
    let trip = trace
        .serve_events
        .iter()
        .find(|e| matches!(e.kind, ServeEventKind::BreakerTrip { .. }))
        .expect("a flood of rejects must trip the breaker");
    let half_open = trace
        .serve_events
        .iter()
        .find(|e| e.time > trip.time && matches!(e.kind, ServeEventKind::BreakerHalfOpen))
        .expect("the cooldown must elapse inside the run");
    assert!(
        half_open.time.saturating_since(trip.time) >= SimDuration::from_millis(20),
        "no probe before the cooldown"
    );
    let mut gated = 0usize;
    for r in &trace.requests {
        if r.arrival > trip.time && r.arrival < half_open.time {
            assert_eq!(
                r.dropped().map(|d| d.kind),
                Some(DropKind::BreakerOpen),
                "an open breaker admits nothing (request at {:?})",
                r.arrival
            );
            gated += 1;
        }
    }
    assert!(gated > 0, "arrivals landed while the breaker was open");
}

#[test]
fn faulted_resilient_runs_replay_bit_identically() {
    let mk = || {
        nano_oom_trace(|g| {
            g.queue_cap(32)
                .deadline(SimDuration::from_millis(500))
                .retry(RetryPolicy::new(3, SimDuration::from_millis(50)))
                .breaker(BreakerPolicy::new(16, 0.5))
                .recovery(RecoveryPolicy::new(SimDuration::from_millis(200), 2))
        })
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.requests, b.requests, "same seed, same request timeline");
    assert_eq!(a.serve_events, b.serve_events);
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.sim_events, b.sim_events);
}
