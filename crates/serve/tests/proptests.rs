//! Property-based tests for the serving primitives: arrival-stream
//! replay determinism, batcher-policy safety bounds, and the resilience
//! machinery's three core guarantees (bit-replayable retry timelines,
//! hedges that never double-count goodput, breakers that admit nothing
//! while open).

use proptest::prelude::*;

use jetsim::platform::Platform;
use jetsim_des::{ArrivalProcess, ArrivalStream, SimDuration, SimTime};
use jetsim_serve::{
    AutoscaleScenario, BatchDecision, BatcherPolicy, BreakerPolicy, DropKind, FaultPlan,
    FleetScenario, HedgePolicy, OomPolicy, ResiliencePolicies, ScenarioSpec, ServeEventKind,
    ServeReport, ServeSpec, ServeTenant, TenantScenario,
};
use jetsim_sim::{GpuPolicy, RunTrace, Simulation};

/// Collects the first `n` gaps of a stream.
fn gaps(process: &ArrivalProcess, seed: u64, n: usize) -> Vec<SimDuration> {
    ArrivalStream::new(process.clone(), seed).take(n).collect()
}

/// Drives the pure batcher policy over an arrival timeline with an
/// always-free server: requests queue as they arrive, the policy is
/// consulted after every arrival and at every flush deadline, and each
/// dispatch is recorded as (dispatch time, batch size, per-request
/// arrival times).
fn drive_batcher(policy: BatcherPolicy, arrival_gaps: &[u32]) -> Vec<(SimTime, u32, Vec<SimTime>)> {
    let mut queued: Vec<SimTime> = Vec::new();
    let mut dispatches = Vec::new();
    let mut now = SimTime::ZERO;
    let mut pending: Vec<SimTime> = arrival_gaps
        .iter()
        .scan(SimTime::ZERO, |t, &gap_us| {
            *t += SimDuration::from_nanos(u64::from(gap_us) * 1_000);
            Some(*t)
        })
        .collect();
    pending.reverse(); // pop() yields arrivals in time order

    loop {
        let decision = policy.decide(now, queued.len(), queued.first().copied());
        match decision {
            BatchDecision::Dispatch(k) => {
                let batch: Vec<SimTime> = queued.drain(..k as usize).collect();
                dispatches.push((now, k, batch));
                // Re-decide at the same instant (the queue may still be
                // over max_batch).
            }
            BatchDecision::WaitUntil(deadline) => {
                // Jump to whichever happens first: the flush deadline or
                // the next arrival.
                match pending.last().copied() {
                    Some(arrival) if arrival <= deadline => {
                        pending.pop();
                        now = arrival;
                        queued.push(arrival);
                    }
                    _ => now = deadline,
                }
            }
            BatchDecision::Idle => match pending.pop() {
                Some(arrival) => {
                    now = arrival;
                    queued.push(arrival);
                }
                None => break,
            },
        }
    }
    dispatches
}

proptest! {
    /// A Poisson stream replays bit-identically for a fixed seed and
    /// diverges for different seeds.
    #[test]
    fn poisson_streams_replay_bit_identically(
        rate in 1.0f64..10_000.0,
        seed in any::<u64>(),
    ) {
        let process = ArrivalProcess::poisson(rate);
        let a = gaps(&process, seed, 64);
        let b = gaps(&process, seed, 64);
        prop_assert_eq!(&a, &b);
        let c = gaps(&process, seed.wrapping_add(1), 64);
        prop_assert!(a != c, "neighbouring seeds draw different streams");
    }

    /// An MMPP stream replays bit-identically for a fixed seed,
    /// including its hidden calm/burst state transitions.
    #[test]
    fn mmpp_streams_replay_bit_identically(
        calm in 1.0f64..500.0,
        burst_mult in 2.0f64..50.0,
        dwell_ms in 1u64..200,
        seed in any::<u64>(),
    ) {
        let process = ArrivalProcess::mmpp(
            calm,
            calm * burst_mult,
            SimDuration::from_millis(dwell_ms),
            SimDuration::from_millis(dwell_ms * 2),
        );
        let a = gaps(&process, seed, 64);
        let b = gaps(&process, seed, 64);
        prop_assert_eq!(a, b);
    }

    /// The batcher never dispatches more than `max_batch` requests at
    /// once and never holds a request past `arrival + max_delay`,
    /// for any arrival timeline.
    #[test]
    fn batcher_respects_size_and_delay_bounds(
        max_batch in 1u32..16,
        max_delay_us in 1u64..20_000,
        arrival_gaps in prop::collection::vec(0u32..30_000, 1..120),
    ) {
        let policy = BatcherPolicy {
            max_batch,
            max_delay: SimDuration::from_nanos(max_delay_us * 1_000),
        };
        let dispatches = drive_batcher(policy, &arrival_gaps);

        let total: u32 = dispatches.iter().map(|(_, k, _)| k).sum();
        prop_assert_eq!(total as usize, arrival_gaps.len(), "every request dispatches");

        for (at, size, batch) in &dispatches {
            prop_assert!(*size >= 1 && *size <= max_batch,
                "batch size {size} outside [1, {max_batch}]");
            prop_assert_eq!(*size as usize, batch.len());
            for &arrival in batch {
                prop_assert!(*at >= arrival, "dispatch precedes arrival");
                prop_assert!(
                    at.since(arrival) <= policy.max_delay,
                    "request waited {:?}, over the {:?} deadline",
                    at.since(arrival),
                    policy.max_delay
                );
            }
        }
    }

    /// Back-to-back arrivals coalesce: when every gap is zero the
    /// batcher fills whole batches instead of trickling singletons.
    #[test]
    fn simultaneous_arrivals_fill_batches(max_batch in 2u32..16, n in 2usize..64) {
        let policy = BatcherPolicy {
            max_batch,
            max_delay: SimDuration::from_millis(1),
        };
        let zero_gaps = vec![0u32; n];
        let dispatches = drive_batcher(policy, &zero_gaps);
        for (i, (_, size, _)) in dispatches.iter().enumerate() {
            if i + 1 < dispatches.len() {
                prop_assert_eq!(*size, max_batch, "only the tail batch may be partial");
            }
        }
    }
}

// ---------------------------------------------------------------------
// ScenarioSpec round-trip and overlay laws
// ---------------------------------------------------------------------

/// Generates `Some` half the time.
fn opt<S: Strategy>(inner: S) -> proptest::option::Weighted<S> {
    proptest::option::weighted(0.5, inner)
}

/// A plausible CLI-grammar string: tenant specs, policies, arrival
/// grammars — plus quotes and backslashes to exercise TOML escaping.
/// Round-tripping does not require the grammar to validate.
fn grammar_string() -> impl Strategy<Value = String> {
    "[a-z0-9:=,. \"\\\\-]{0,24}"
}

fn duration_string() -> impl Strategy<Value = String> {
    (1u64..100_000, prop::sample::select(vec!["us", "ms", "s"]))
        .prop_map(|(v, unit)| format!("{v}{unit}"))
}

fn autoscale_strategy() -> impl Strategy<Value = AutoscaleScenario> {
    let costs =
        (0u32..4, duration_string()).prop_map(|(k, d)| if k == 0 { "auto".to_string() } else { d });
    (
        (
            opt(0u32..8),
            opt(1u32..8),
            opt(0.25f64..16.0),
            opt(duration_string()),
        ),
        (opt(duration_string()), opt(any::<bool>()), opt(costs)),
    )
        .prop_map(
            |(
                (min_replicas, max_replicas, target_queue, keep_alive),
                (evaluate_every, slo_burn, start_cost),
            )| AutoscaleScenario {
                min_replicas,
                max_replicas,
                target_queue,
                keep_alive,
                evaluate_every,
                slo_burn,
                start_cost,
            },
        )
}

fn fleet_strategy() -> impl Strategy<Value = FleetScenario> {
    (
        (
            opt(1u32..64),
            opt(grammar_string()),
            opt(any::<bool>()),
            opt(grammar_string()),
        ),
        (
            opt(duration_string()),
            opt(duration_string()),
            opt(0.5f64..1000.0),
            opt(0.25f64..512.0),
        ),
        (
            opt(0.25f64..512.0),
            opt(duration_string()),
            opt(duration_string()),
        ),
    )
        .prop_map(
            |(
                (sites, router, cloud, cloud_device),
                (base_latency, jitter, bandwidth_mbps, request_kb),
                (response_kb, cloud_rtt, telemetry_every),
            )| FleetScenario {
                sites,
                router,
                cloud,
                cloud_device,
                base_latency,
                jitter,
                bandwidth_mbps,
                request_kb,
                response_kb,
                cloud_rtt,
                telemetry_every,
            },
        )
}

fn tenant_strategy() -> impl Strategy<Value = TenantScenario> {
    (
        opt(grammar_string()),
        opt(grammar_string()),
        opt(duration_string()),
        opt(0u64..4096),
        opt(grammar_string()),
        opt(autoscale_strategy()),
    )
        .prop_map(
            |(spec, arrival, max_delay, queue_cap, admission, autoscale)| TenantScenario {
                spec,
                arrival,
                max_delay,
                queue_cap,
                admission,
                autoscale,
            },
        )
}

/// An arbitrary sparse scenario. The tenant list, when present, is
/// non-empty: TOML has no spelling for an empty array-of-tables, so
/// `Some(vec![])` is not expressible in the document format.
fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let head = (
        opt(grammar_string()),
        opt(any::<u64>()),
        opt(duration_string()),
        opt(duration_string()),
        opt(duration_string()),
        opt(grammar_string()),
    );
    let mid = (
        opt(any::<u64>()),
        opt(duration_string()),
        opt(0u32..16),
        opt(grammar_string()),
        opt(grammar_string()),
        opt(0u32..16),
    );
    let tail = (
        opt(duration_string()),
        opt(0u64..4096),
        opt(grammar_string()),
        opt(autoscale_strategy()),
        opt(fleet_strategy()),
        opt(prop::collection::vec(tenant_strategy(), 1..3)),
    );
    (head, mid, tail).prop_map(
        |(
            (device, seed, duration, warmup, slo, gpu_policy),
            (fault_seed, deadline, retry, hedge, breaker, recovery),
            (max_delay, queue_cap, admission, autoscale, fleet, tenants),
        )| ScenarioSpec {
            device,
            seed,
            duration,
            warmup,
            slo,
            gpu_policy,
            fault_seed,
            deadline,
            retry,
            hedge,
            breaker,
            recovery,
            max_delay,
            queue_cap,
            admission,
            autoscale,
            fleet,
            tenants,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any scenario the API can express round-trips losslessly through
    /// both document formats: parse(to_toml(s)) == s == parse(json(s)).
    #[test]
    fn scenarios_round_trip_through_toml_and_json(sc in scenario_strategy()) {
        let toml = sc.to_toml();
        let back: ScenarioSpec = toml
            .parse()
            .map_err(|e| TestCaseError::fail(format!("TOML reparse: {e}\n---\n{toml}")))?;
        prop_assert_eq!(&back, &sc, "TOML round-trip:\n{}", toml);

        let json = serde_json::to_string(&sc).expect("scenario serializes");
        let back: ScenarioSpec = json
            .parse()
            .map_err(|e| TestCaseError::fail(format!("JSON reparse: {e}")))?;
        prop_assert_eq!(&back, &sc, "JSON round-trip:\n{}", json);
    }

    /// Overlay laws: the empty scenario is an identity on both sides,
    /// and for every field the merged value is the overlay's when set,
    /// the base's otherwise.
    #[test]
    fn merge_is_lawful(base in scenario_strategy(), overlay in scenario_strategy()) {
        let empty = ScenarioSpec::default();
        prop_assert_eq!(base.merge(&empty), base.clone(), "right identity");
        prop_assert_eq!(empty.merge(&base), base.clone(), "left identity");
        prop_assert_eq!(
            base.merge(&base), base.clone(),
            "merging a scenario over itself changes nothing"
        );

        let merged = base.merge(&overlay);
        macro_rules! check {
            ($($field:ident),+ $(,)?) => {$(
                let want = overlay.$field.clone().or_else(|| base.$field.clone());
                prop_assert_eq!(
                    &merged.$field, &want,
                    "field {}: overlay wins, base fills", stringify!($field)
                );
            )+};
        }
        check!(
            device, seed, duration, warmup, slo, gpu_policy, fault_seed,
            deadline, retry, hedge, breaker, recovery, max_delay,
            queue_cap, admission, autoscale, fleet, tenants,
        );
    }
}

/// A resilient two-replica fp16 deployment on the Jetson Nano under a
/// seeded fault plan (OOM killer armed) — the chaos shape the replay
/// property runs twice. Each restart loads the engine's plan file, a
/// price that depends on the engine alone.
fn resilient_spec(seed: u64, fault_seed: u64, rate: f64) -> ServeSpec {
    let slo = SimDuration::from_millis(100);
    let policies =
        ResiliencePolicies::standard(slo).hedge(HedgePolicy::fixed(SimDuration::from_millis(20)));
    let base = ServeSpec::new(Platform::jetson_nano())
        .tenant(
            ServeTenant::parse("resnet50:fp16:1:2", ArrivalProcess::poisson(rate))
                .unwrap()
                .queue_cap(16),
        )
        .slo(slo)
        .warmup(SimDuration::from_millis(100))
        .duration(SimDuration::from_millis(500))
        .seed(seed)
        .resilience(policies);
    let plan =
        FaultPlan::seeded(fault_seed, base.horizon(), 2, 1).oom_policy(OomPolicy::KillLargest);
    base.faults(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Retry, hedge and recovery timelines are bit-replayable: the same
    /// seed and fault plan reproduce the exact request timeline — every
    /// backoff draw, hedge firing and restart included.
    #[test]
    fn resilient_timelines_replay_bit_identically(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 20.0f64..120.0,
    ) {
        let spec = resilient_spec(seed, fault_seed, rate);
        let a = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let b = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        prop_assert_eq!(&a.requests, &b.requests);
        prop_assert_eq!(&a.serve_events, &b.serve_events);
        prop_assert_eq!(&a.fault_events, &b.fault_events);
        prop_assert_eq!(a.sim_events, b.sim_events);
    }

    /// Serving configs record neither per-kernel stream (kernel events
    /// and preemptions) nor the per-EC log, and recording them changes
    /// nothing a report reads: the kernel-event jitter draws from a
    /// stream of its own, a preemption's accounting does not depend on
    /// its record, and process statistics come from running sums.
    #[test]
    fn serve_reports_do_not_depend_on_kernel_recording(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 20.0f64..120.0,
    ) {
        let plain = ServeSpec::new(Platform::orin_nano())
            .tenant(ServeTenant::parse("resnet50:int8:1:2", ArrivalProcess::poisson(150.0)).unwrap())
            .tenant(ServeTenant::parse("yolov8n:int8:1:1", ArrivalProcess::poisson(50.0)).unwrap())
            .warmup(SimDuration::from_millis(100))
            .duration(SimDuration::from_millis(400))
            .seed(seed);
        // Mixed-priority tenants under `priority`: the high tenant's
        // kernels cut the low tenant's.
        let preempting = ServeSpec::new(Platform::orin_nano())
            .tenant(ServeTenant::parse("resnet50:int8:1:2:1", ArrivalProcess::poisson(rate)).unwrap())
            .tenant(ServeTenant::parse("mobilenet_v2:fp16:1:2:0", ArrivalProcess::poisson(100.0)).unwrap())
            .gpu_policy(GpuPolicy::Priority { preempt_penalty: GpuPolicy::DEFAULT_PREEMPT_PENALTY })
            .warmup(SimDuration::from_millis(100))
            .duration(SimDuration::from_millis(400))
            .seed(seed);
        for (spec, preempts) in [
            (plain, false),
            (resilient_spec(seed, fault_seed, rate), false),
            (preempting, true),
        ] {
            let config = spec.build_config().unwrap();
            prop_assert!(!config.record_kernel_events);
            let mut recording = config.clone();
            recording.record_kernel_events = true;
            let off = Simulation::new(config).unwrap().run();
            let on = Simulation::new(recording).unwrap().run();
            prop_assert!(off.kernel_events.is_empty());
            prop_assert!(!on.kernel_events.is_empty());
            prop_assert!(off.preemptions.is_empty());
            prop_assert_eq!(!on.preemptions.is_empty(), preempts);
            prop_assert!(off.ec_records.iter().all(Vec::is_empty));
            prop_assert!(on.ec_records.iter().any(|log| !log.is_empty()));
            for (log, p) in on.ec_records.iter().zip(&on.processes) {
                prop_assert_eq!(log.len() as u64, p.completed_ecs);
            }
            prop_assert_eq!(&off.processes, &on.processes);
            let report = |trace: &RunTrace| {
                ServeReport::from_trace_with_deadline(
                    trace,
                    spec.slo_target(),
                    spec.warmup_interval(),
                    spec.resilience_policies().deadline,
                )
            };
            prop_assert_eq!(report(&off), report(&on));
            prop_assert_eq!(&off.requests, &on.requests);
            prop_assert_eq!(&off.serve_events, &on.serve_events);
            prop_assert_eq!(&off.fault_events, &on.fault_events);
            prop_assert_eq!(off.gpu_busy, on.gpu_busy);
            prop_assert_eq!(off.sim_events, on.sim_events);
        }
    }

    /// Hedged pairs never double-count goodput: the report counts chain
    /// roots, so served can never exceed offered even when both physical
    /// twins complete.
    #[test]
    fn hedged_pairs_never_double_count_goodput(
        seed in any::<u64>(),
        rate in 50.0f64..250.0,
        hedge_ms in 1u64..10,
    ) {
        let warmup = SimDuration::from_millis(100);
        let spec = ServeSpec::new(Platform::orin_nano())
            .tenant(
                ServeTenant::parse(
                    "resnet50:int8:1:2",
                    ArrivalProcess::poisson(rate),
                )
                .unwrap(),
            )
            .slo(SimDuration::from_millis(50))
            .warmup(warmup)
            .duration(SimDuration::from_millis(500))
            .seed(seed)
            .resilience(
                ResiliencePolicies::none()
                    .hedge(HedgePolicy::fixed(SimDuration::from_millis(hedge_ms))),
            );
        let trace = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let report = spec.run().unwrap();
        let g = &report.groups[0];
        prop_assert_eq!(g.served + g.failed + g.unfinished, g.offered);
        prop_assert!(g.served <= g.offered);
        prop_assert!(g.goodput_qps <= g.served_qps + 1e-9);
        // Offered is exactly the in-window chain roots …
        let window_start = SimTime::ZERO + warmup;
        let roots = trace
            .requests
            .iter()
            .filter(|r| r.is_root() && r.arrival >= window_start)
            .count();
        prop_assert_eq!(g.offered, roots);
        // … while physical completions may exceed it (both twins ran).
        let completions = trace.requests.iter().filter(|r| r.served()).count();
        prop_assert!(completions >= g.served, "a served root has a completed attempt");
        prop_assert!(g.attempts >= g.offered, "hedges only add attempts");
    }

    /// A tripped breaker admits zero requests until its half-open probe:
    /// every arrival strictly between a BreakerTrip and the next
    /// BreakerHalfOpen (retries and hedges included) is turned away with
    /// [`DropKind::BreakerOpen`].
    #[test]
    fn tripped_breaker_admits_zero_until_half_open(
        seed in any::<u64>(),
        window in 8usize..32,
        cooldown_ms in 10u64..40,
    ) {
        let spec = ServeSpec::new(Platform::orin_nano())
            .tenant(
                ServeTenant::parse(
                    "resnet50:int8:1",
                    ArrivalProcess::poisson(4000.0),
                )
                .unwrap()
                .queue_cap(8),
            )
            .slo(SimDuration::from_millis(50))
            .warmup(SimDuration::from_millis(100))
            .duration(SimDuration::from_millis(500))
            .seed(seed)
            .resilience(ResiliencePolicies::none().breaker(
                BreakerPolicy::new(window, 0.5)
                    .cooldown(SimDuration::from_millis(cooldown_ms)),
            ));
        let end = SimTime::ZERO + spec.horizon();
        let trace = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let trips: Vec<SimTime> = trace
            .serve_events
            .iter()
            .filter(|e| matches!(e.kind, ServeEventKind::BreakerTrip { .. }))
            .map(|e| e.time)
            .collect();
        prop_assert!(!trips.is_empty(), "a 4000 qps flood on queue_cap 8 must trip");
        for &trip in &trips {
            let until = trace
                .serve_events
                .iter()
                .find(|e| e.time > trip && matches!(e.kind, ServeEventKind::BreakerHalfOpen))
                .map_or(end, |e| e.time);
            for r in &trace.requests {
                if r.arrival > trip && r.arrival < until {
                    prop_assert_eq!(
                        r.dropped().map(|d| d.kind),
                        Some(DropKind::BreakerOpen),
                        "request at {:?} slipped through an open breaker",
                        r.arrival
                    );
                }
            }
        }
    }
}
