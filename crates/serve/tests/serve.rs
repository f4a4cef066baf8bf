//! Behavior tests for the serving subsystem: determinism, metric sanity
//! and capacity-search stability.

use jetsim::platform::Platform;
use jetsim_des::{ArrivalProcess, SimDuration};
use jetsim_serve::{AdmissionPolicy, AutoscaleSpec, ServeSpec, ServeTenant};

fn base_spec() -> ServeSpec {
    ServeSpec::new(Platform::orin_nano())
        .tenant(ServeTenant::parse("resnet50:int8:1:2", ArrivalProcess::poisson(200.0)).unwrap())
        .slo(SimDuration::from_millis(50))
        .duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(200))
}

#[test]
fn reports_replay_bit_identically_for_a_fixed_seed() {
    let a = base_spec().run().unwrap();
    let b = base_spec().run().unwrap();
    assert_eq!(a, b, "same spec and seed must reproduce the exact report");
    let a_json = serde_json::to_string_pretty(&a).unwrap();
    let b_json = serde_json::to_string_pretty(&b).unwrap();
    assert_eq!(a_json, b_json);
}

#[test]
fn different_seeds_change_the_timeline() {
    let a = base_spec().run().unwrap();
    let b = base_spec().seed(1).run().unwrap();
    assert_ne!(
        a.groups[0].offered, b.groups[0].offered,
        "a different seed draws a different Poisson stream"
    );
}

#[test]
fn report_invariants_hold() {
    let report = base_spec().run().unwrap();
    assert_eq!(report.device, "Jetson Orin Nano");
    assert_eq!(report.groups.len(), 1);
    let g = &report.groups[0];
    assert_eq!(g.label, "resnet50:int8:b1");
    assert_eq!(g.served + g.rejected + g.shed + g.unfinished, g.offered);
    assert!(g.goodput_qps <= g.served_qps + 1e-9);
    assert!(g.served_qps <= g.offered_qps + 1e-9);
    assert!(g.p50_ms <= g.p95_ms && g.p95_ms <= g.p99_ms);
    assert!(g.p99_ms > 0.0);
    assert!((0.0..=1.0).contains(&g.slo_attainment));
    assert!(
        g.mean_batch >= 1.0,
        "every dispatched batch carries >= 1 request"
    );
    // 200 qps on two int8 ResNet50 servers is comfortably feasible.
    assert!(g.slo_attainment > 0.9, "attainment {}", g.slo_attainment);
}

#[test]
fn multi_tenant_reports_cover_every_group() {
    let report = ServeSpec::new(Platform::orin_nano())
        .tenant(ServeTenant::parse("resnet50:int8:1", ArrivalProcess::poisson(100.0)).unwrap())
        .tenant(ServeTenant::parse("yolov8n:fp16:1", ArrivalProcess::poisson(50.0)).unwrap())
        .duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(200))
        .run()
        .unwrap();
    assert_eq!(report.groups.len(), 2);
    assert!(report.groups.iter().all(|g| g.served > 0));
    assert_eq!(report.groups[0].label, "resnet50:int8:b1");
    assert_eq!(report.groups[1].label, "yolov8n:fp16:b1");
}

#[test]
fn overload_degrades_gracefully_not_catastrophically() {
    let overloaded = base_spec();
    let mut spec = overloaded.clone();
    spec.set_arrivals(0, ArrivalProcess::poisson(5000.0));
    let report = spec.run().unwrap();
    let g = &report.groups[0];
    assert!(g.rejected > 0, "the bounded queue must turn arrivals away");
    // Admission control keeps served latencies bounded even at 10x over
    // capacity: the queue never grows past queue_cap.
    assert!(
        g.p99_ms < 1000.0,
        "bounded queue keeps p99 sane, got {}",
        g.p99_ms
    );
}

#[test]
fn shed_beats_reject_on_served_freshness() {
    let mk = |admission| {
        let mut spec = ServeSpec::new(Platform::orin_nano()).tenant(
            ServeTenant::parse("resnet50:int8:1", ArrivalProcess::poisson(3000.0))
                .unwrap()
                .queue_cap(16)
                .admission(admission),
        );
        spec = spec
            .duration(SimDuration::from_secs(1))
            .warmup(SimDuration::from_millis(200));
        spec.run().unwrap()
    };
    let reject = mk(AdmissionPolicy::Reject);
    let shed = mk(AdmissionPolicy::Shed);
    // Identical traffic (same seed); shedding serves newer requests so
    // its served-latency tail cannot be worse than head-of-line reject.
    assert!(
        shed.groups[0].p99_ms <= reject.groups[0].p99_ms + 1e-9,
        "shed p99 {} vs reject p99 {}",
        shed.groups[0].p99_ms,
        reject.groups[0].p99_ms
    );
}

#[test]
fn find_max_qps_is_stable_and_sane() {
    let spec = ServeSpec::new(Platform::orin_nano())
        .tenant(ServeTenant::parse("resnet50:int8:1", ArrivalProcess::poisson(100.0)).unwrap())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(200));
    let a = spec.find_max_qps(0.95, 5).unwrap();
    let b = spec.find_max_qps(0.95, 5).unwrap();
    assert_eq!(a, b, "deterministic probes make the search reproducible");
    // One int8 ResNet50 server on Orin Nano lands in the hundreds of qps
    // — not single digits, not tens of thousands.
    assert!(
        a.max_qps > 50.0 && a.max_qps < 5000.0,
        "capacity {} qps outside the plausible Orin Nano band",
        a.max_qps
    );
    // The estimate is backed by an actually-feasible probe.
    assert!(a.probes.iter().any(|p| p.feasible && p.qps == a.max_qps));
}

#[test]
fn autoscaled_group_reports_scaling_telemetry() {
    // mobilenet fp16 is launch-bound on the Orin Nano, so extra
    // replicas genuinely add capacity: an autoscaler riding a burst
    // must beat the static floor on goodput while reporting the
    // provisioning churn it caused.
    let spec = |autoscale: Option<AutoscaleSpec>| {
        let mut tenant = ServeTenant::parse(
            "mobilenet_v2:fp16:1:3",
            ArrivalProcess::mmpp(
                50.0,
                700.0,
                SimDuration::from_millis(350),
                SimDuration::from_millis(200),
            ),
        )
        .unwrap()
        .queue_cap(512);
        if let Some(a) = autoscale {
            tenant = tenant.autoscale(a);
        }
        ServeSpec::new(Platform::orin_nano())
            .tenant(tenant)
            .slo(SimDuration::from_millis(50))
            .warmup(SimDuration::from_millis(300))
            .duration(SimDuration::from_secs(2))
    };
    let scaler = AutoscaleSpec::new(1)
        .target_queue_per_replica(2.0)
        .keep_alive(SimDuration::from_millis(150))
        .evaluate_every(SimDuration::from_millis(10));
    let scaled = spec(Some(scaler)).run().unwrap();
    let g = &scaled.groups[0];
    assert!(g.warm_starts > 0, "the burst must provision extra replicas");
    assert!(
        g.replica_seconds > 0.0 && g.replica_seconds < 3.0 * 2.0 + 1e-9,
        "replica-seconds integral {} outside (0, ceiling x window]",
        g.replica_seconds
    );
    assert_eq!(g.cold_starts, 0, "a floor replica was up at t = 0");

    // A static group reports no scaling churn at all.
    let floor = {
        let t = ServeTenant::parse(
            "mobilenet_v2:fp16:1:1",
            ArrivalProcess::mmpp(
                50.0,
                700.0,
                SimDuration::from_millis(350),
                SimDuration::from_millis(200),
            ),
        )
        .unwrap()
        .queue_cap(512);
        ServeSpec::new(Platform::orin_nano())
            .tenant(t)
            .slo(SimDuration::from_millis(50))
            .warmup(SimDuration::from_millis(300))
            .duration(SimDuration::from_secs(2))
            .run()
            .unwrap()
    };
    let s = &floor.groups[0];
    assert_eq!(
        (s.cold_starts, s.warm_starts, s.reaps, s.scale_to_zero_parks),
        (0, 0, 0, 0),
        "a static group must report zero scaling churn"
    );
    assert_eq!(s.replica_seconds, 0.0, "no scaling events, no integral");
    assert!(
        g.goodput_qps >= 1.5 * s.goodput_qps,
        "autoscaling ({} qps) must beat the static floor ({} qps) by 1.5x under this burst",
        g.goodput_qps,
        s.goodput_qps
    );
}

#[test]
fn scale_to_zero_reports_parks_and_the_cold_start_tax() {
    let tenant = ServeTenant::parse("mobilenet_v2:fp16:1:2", ArrivalProcess::poisson(20.0))
        .unwrap()
        .queue_cap(64)
        .autoscale(
            AutoscaleSpec::new(0)
                .target_queue_per_replica(1.0)
                .keep_alive(SimDuration::from_millis(20))
                .evaluate_every(SimDuration::from_millis(5)),
        );
    let report = ServeSpec::new(Platform::orin_nano())
        .tenant(tenant)
        .slo(SimDuration::from_millis(50))
        .warmup(SimDuration::from_millis(300))
        .duration(SimDuration::from_secs(2))
        .run()
        .unwrap();
    let g = &report.groups[0];
    assert!(
        g.scale_to_zero_parks > 0,
        "sparse arrivals must park the group"
    );
    assert!(
        g.cold_start_tax_ms > 0.0,
        "waking a parked group charges a visible start cost"
    );
    assert!(
        g.cold_starts + g.warm_starts > 0,
        "arrivals after a park must re-provision (in-window starts reported)"
    );
}
