//! `cargo run --release -p jetsim-bench --bin bench -- [NAME...] [--check]`
//! regenerates or checks the committed `BENCH_<name>.json` baselines
//! (no names = all). Each bench writes its file to the current
//! directory, or with `--check` compares its fresh run with that file
//! under the rule in [`jetsim_bench::baseline`] and exits non-zero on
//! any mismatch.
//! Windows are fixed constants, so every simulated field means the same
//! thing on every host. No simulated field reads the engine cache; only
//! `sweep`'s build counts do, so `sweep` alone clears it first.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use jetsim::prelude::*;
use jetsim_bench::baseline;
use jetsim_des::ArrivalProcess;
use jetsim_fleet::{FleetSpec, NetworkModel, RouterPolicy};
use jetsim_serve::{
    chaos_sweep_with_plan, AutoscaleSpec, FaultPlan, HedgePolicy, OomPolicy, ResiliencePolicies,
    RetryPolicy, ScenarioSpec, ServeSpec, ServeTenant,
};
use jetsim_sim::{ArrivalModel, GpuPolicy};
use jetsim_trt::EngineCache;
use serde_json::{json, Value};

/// A bench: runs its cells and returns the document it owns.
type Bench = fn() -> Value;

/// Every bench, by the `<name>` of the `BENCH_<name>.json` it owns.
const BENCHES: [(&str, Bench); 6] = [
    ("des", des),
    ("sweep", sweep),
    ("serve", serve),
    ("resilience", resilience),
    ("autoscale", autoscale),
    ("fleet", fleet),
];

const fn ms(millis: u64) -> SimDuration {
    SimDuration::from_millis(millis)
}

/// The number at `path` in a bench document.
fn num(doc: &Value, path: &[&str]) -> f64 {
    let v = path.iter().try_fold(doc, |v, k| v.get_field(k));
    v.and_then(baseline::as_f64).expect("a numeric bench field")
}

/// Runs `f`, returning its result and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    (f(), start.elapsed().as_secs_f64())
}

/// The fastest of `runs` timed runs. The first run warms the allocator
/// and the engine cache; every run simulates the same thing.
fn fastest<T>(runs: usize, mut run: impl FnMut() -> (T, f64)) -> (T, f64) {
    let best = (0..runs).map(|_| run()).min_by(|a, b| a.1.total_cmp(&b.1));
    best.expect("at least one run")
}

/// Simulated events and best-of-3 event throughput of one DES run;
/// building the config is not timed.
fn des_cell<E: std::fmt::Debug>(
    name: &str,
    mut build: impl FnMut() -> Result<SimConfig, E>,
) -> (String, Value) {
    let (sim_events, wall_s) = fastest(3, || {
        let config = build().expect("valid config");
        let (trace, wall_s) = timed(|| Simulation::new(config).expect("fits").run());
        (trace.sim_events, wall_s)
    });
    let cell = json!({
        "sim_events": sim_events,
        "wall_s": wall_s,
        "events_per_s": sim_events as f64 / wall_s.max(1e-9),
    });
    (name.to_string(), cell)
}

/// DES event throughput on the hot workload shapes: the 2-process sweep
/// cell, a closed-loop 8-process cell, an online serving cell, a
/// fault-heavy cell, and the contended 8-process cell under each GPU
/// policy (the `rr` cell runs the decisions the pre-policy engine
/// hard-coded, so it is the canary for the policy seam itself).
fn des() -> Value {
    let platform = Platform::orin_nano();
    let resnet = Tenant::new(zoo::resnet50(), Precision::Int8, 4);
    let closed = |deployment: Deployment, measure| {
        deployment
            .config_builder(&platform, ArrivalModel::Saturated)
            .expect("builds")
            .warmup(ms(100))
            .measure(measure)
            .record_kernel_events(false)
    };
    let processes = |count| Deployment::new().tenant(resnet.clone().count(count));
    let serving = ServeTenant::parse("resnet50:int8:1:2", ArrivalProcess::poisson(200.0))
        .expect("valid spec");
    let mut cells = vec![
        des_cell("sweep_cell_2p", || closed(processes(2), ms(1_000)).build()),
        des_cell("closed_loop_8p", || closed(processes(8), ms(2_000)).build()),
        des_cell("serving", || {
            ServeSpec::new(platform.clone())
                .tenant(serving.clone())
                .warmup(ms(100))
                .duration(ms(2_000))
                .slo(ms(50))
                .seed(7)
                .build_config()
        }),
        des_cell("fault_heavy", || {
            closed(processes(4), ms(2_000))
                .faults(FaultPlan::seeded(11, ms(100 + 2_000), 24, 12))
                .build()
        }),
    ];
    // Half the processes at priority 5 with a double SM share, so the
    // preemption and MPS weighting paths actually fire.
    let contended = (0..8).fold(Deployment::new(), |d, i| {
        d.tenant(if i % 2 == 0 {
            resnet.clone().priority(5).sm_share(2.0)
        } else {
            resnet.clone()
        })
    });
    for policy in ["rr", "fifo", "priority", "mps"] {
        let gpu_policy: GpuPolicy = policy.parse().expect("known policy");
        cells.push(des_cell(&format!("{policy}_8p"), || {
            closed(contended.clone(), ms(2_000))
                .gpu_policy(gpu_policy)
                .build()
        }));
    }
    json!({
        "bench": "des",
        "device": platform.name(),
        "note": "events/s are host-dependent; regenerate on the gating machine; best of 3 runs per cell",
        "cells": Value::Map(cells),
    })
}

/// The paper's figure-6 concurrency grid, with the engine cache cold and
/// then warm.
fn sweep() -> Value {
    let platform = Platform::orin_nano();
    let models = zoo::all();
    let grid = || {
        timed(|| {
            let (mut cells, mut ok) = (0, 0);
            for model in &models {
                let max_procs = if model.name() == "yolov8n" { 16 } else { 8 };
                let results = SweepSpec::new()
                    .precisions([Precision::Int8])
                    .batches([1, 2, 4, 8, 16])
                    .process_counts([1, 2, 4, 8, 16].into_iter().filter(|&p| p <= max_procs))
                    .warmup(ms(300))
                    .measure(ms(1_500))
                    .run(&platform, model);
                cells += results.len();
                ok += results.iter().filter(|c| c.outcome.is_success()).count();
            }
            (cells, ok)
        })
    };
    let cache = EngineCache::global();
    // The cold pass must build every engine, whatever ran before it.
    cache.clear();
    let before = cache.stats().misses;
    let ((cells, ok), cold_s) = grid();
    let after_cold = cache.stats().misses;
    let (_, warm_s) = grid();
    json!({
        "bench": "sweep_cache",
        "grid": {
            "figure": "fig06",
            "device": platform.name(),
            "precision": "int8",
            "batches": [1, 2, 4, 8, 16],
            "models": models.iter().map(|m| m.name()).collect::<Vec<_>>(),
            "cells": cells,
            "cells_ok": ok,
        },
        "cold": {
            "wall_s": cold_s,
            "cells_per_s": cells as f64 / cold_s,
            "engine_builds": after_cold - before,
        },
        "warm": {
            "wall_s": warm_s,
            "cells_per_s": cells as f64 / warm_s,
            "engine_builds": cache.stats().misses - after_cold,
            "speedup_vs_cold": cold_s / warm_s,
        },
    })
}

/// Tail latency and goodput of the serving path at a pinned 200 qps,
/// plus a capacity search on the same deployment.
fn serve() -> Value {
    let spec = ServeSpec::new(Platform::orin_nano())
        .tenant(
            ServeTenant::parse("resnet50:int8:1:2", ArrivalProcess::poisson(200.0))
                .expect("valid spec"),
        )
        .warmup(ms(500))
        .duration(ms(5_000))
        .slo(ms(50))
        .seed(7);
    let (report, pinned_s) = timed(|| spec.run().expect("serving run"));
    let (estimate, search_s) = timed(|| spec.find_max_qps(0.95, 6).expect("capacity search"));
    let group = &report.groups[0];
    json!({
        "bench": "serve",
        "device": report.device,
        "tenant": group.label,
        "slo_ms": report.slo_ms,
        "pinned_load": {
            "offered_qps": 200.0,
            "served_qps": group.served_qps,
            "goodput_qps": group.goodput_qps,
            "slo_attainment": group.slo_attainment,
            "p50_ms": group.p50_ms,
            "p95_ms": group.p95_ms,
            "p99_ms": group.p99_ms,
            "wall_s": pinned_s,
        },
        "capacity": {
            "target_attainment": estimate.target_attainment,
            "max_qps": estimate.max_qps,
            "probes": estimate.probes.len(),
            "wall_s": search_s,
        },
    })
}

const FAULT_SEED: u64 = 0x0DD5_EED5;

/// What each resilience bundle buys under two chaos scenarios: an OOM
/// storm that kills both replicas of an fp16 ResNet-50 on the Jetson
/// Nano 600 ms in, and a DVFS throttle storm on the Orin Nano that only
/// slows its replicas down.
fn resilience() -> Value {
    let base = |platform, tenant: &str, qps, queue_cap, slo| {
        let tenant = ServeTenant::parse(tenant, ArrivalProcess::poisson(qps)).expect("valid spec");
        ServeSpec::new(platform)
            .tenant(tenant.queue_cap(queue_cap))
            .slo(ms(slo))
            .warmup(ms(300))
            .duration(ms(2_000))
    };
    let retry = |deadline, backoff| {
        ResiliencePolicies::none()
            .deadline(ms(deadline))
            .retry(RetryPolicy::new(3, ms(backoff)))
    };
    let ((oom, dvfs), wall_s) = timed(|| {
        let nano = base(Platform::jetson_nano(), "resnet50:fp16:1:2", 12.0, 32, 250);
        let spike = FaultPlan::seeded(FAULT_SEED, nano.horizon(), 0, 1)
            .memory_spike(SimTime::from_nanos(600_000_000), ms(150), 4 << 30)
            .oom_policy(OomPolicy::KillLargest);
        let hedge = HedgePolicy::fixed(ms(40));
        let oom_policies = [
            ("none", ResiliencePolicies::none()),
            ("deadline+retry", retry(1_000, 125)),
            ("hedged", retry(1_000, 125).hedge(hedge)),
            ("full", ResiliencePolicies::standard(ms(250))),
        ];
        let orin = base(Platform::orin_nano(), "resnet50:int8:1:2", 200.0, 64, 50);
        let locks =
            FaultPlan::seeded(FAULT_SEED, orin.horizon(), 0, 4).oom_policy(OomPolicy::KillLargest);
        let dvfs_policies = [
            ("none", ResiliencePolicies::none()),
            ("deadline+retry", retry(200, 25)),
            ("full", ResiliencePolicies::standard(ms(50))),
        ];
        (
            chaos_sweep_with_plan(&nano, &oom_policies, spike, FAULT_SEED).expect("oom storm"),
            chaos_sweep_with_plan(&orin, &dvfs_policies, locks, FAULT_SEED).expect("dvfs storm"),
        )
    });
    json!({
        "bench": "resilience",
        "note": "all metrics are simulated and bit-deterministic per fault seed; --check compares them (near-)exactly — wall_s is context, never gated",
        "fault_seed": FAULT_SEED,
        "wall_s": wall_s,
        "scenarios": { "oom_storm": oom, "dvfs_storm": dvfs },
    })
}

const AUTOSCALE_WARMUP_MS: u64 = 300;
const AUTOSCALE_MEASURE_MS: u64 = 3_000;

/// One mobilenet_v2 fp16 b1 tenant (launch-bound, so replicas add real
/// capacity, ~210 qps each): static at `replicas`, or autoscaled between
/// `floor` and `replicas`.
fn autoscale_spec(floor: Option<u32>, replicas: u32, arrivals: ArrivalProcess) -> ServeSpec {
    let mut tenant = ServeTenant::new(
        Tenant::new(zoo::mobilenet_v2(), Precision::Fp16, 1).count(replicas),
        arrivals,
    )
    .queue_cap(512);
    if let Some(floor) = floor {
        tenant = tenant.autoscale(
            AutoscaleSpec::new(floor)
                .target_queue_per_replica(2.0)
                .keep_alive(ms(150))
                .evaluate_every(ms(10)),
        );
    }
    ServeSpec::new(Platform::orin_nano())
        .warmup(ms(AUTOSCALE_WARMUP_MS))
        .duration(ms(AUTOSCALE_MEASURE_MS))
        .slo(ms(50))
        .tenant(tenant)
}

/// What serverless autoscaling buys and costs under bursty traffic,
/// against static provisioning, with and without an OOM storm, plus
/// the capacity search with and without the autoscaler.
fn autoscale() -> Value {
    const POLICIES: [(&str, Option<u32>, u32); 4] = [
        ("static_min", None, 1),
        ("static_max", None, 3),
        ("autoscale", Some(1), 3),
        ("scale_to_zero", Some(0), 3),
    ];
    let measure = ms(AUTOSCALE_MEASURE_MS);
    let scenario = |faults: bool| {
        let cells = POLICIES.iter().map(|&(name, floor, replicas)| {
            let calm_burst = ArrivalProcess::mmpp(50.0, 700.0, ms(350), ms(200));
            let mut spec = autoscale_spec(floor, replicas, calm_burst);
            if faults {
                // Seeded 128-768 MB spikes never threaten an 8 GB board
                // hosting mobilenet engines, so the storm is explicit: a
                // 7 GiB squeeze mid-burst while extra replicas are up.
                let spike_at = ms(AUTOSCALE_WARMUP_MS) + measure.mul_f64(0.3);
                spec = spec
                    .resilience(ResiliencePolicies::none().recovery(2))
                    .faults(
                        FaultPlan::new()
                            .memory_spike(
                                SimTime::from_nanos(spike_at.as_nanos()),
                                measure.mul_f64(0.15),
                                7 << 30,
                            )
                            .oom_policy(OomPolicy::KillLargest),
                    );
            }
            let report = spec.run().expect("cell builds and fits");
            let g = &report.groups[0];
            let replica_seconds = match floor {
                Some(_) => g.replica_seconds,
                None => f64::from(replicas) * AUTOSCALE_MEASURE_MS as f64 / 1e3,
            };
            let cell = json!({
                "goodput_qps": g.goodput_qps,
                "p99_ms": g.p99_ms,
                "slo_attainment": g.slo_attainment,
                "replica_seconds": replica_seconds,
                "cold_starts": g.cold_starts as u64,
                "warm_starts": g.warm_starts as u64,
                "reaps": g.reaps as u64,
                "scale_to_zero_parks": g.scale_to_zero_parks as u64,
                "cold_start_tax_ms": g.cold_start_tax_ms,
            });
            (name.to_string(), cell)
        });
        Value::Map(cells.collect())
    };
    let capacity = |floor, replicas| {
        let spec = autoscale_spec(floor, replicas, ArrivalProcess::poisson(150.0));
        let estimate = spec.find_max_qps(0.9, 4).expect("capacity search runs");
        json!({ "max_qps": estimate.max_qps, "probes": estimate.probes.len() as u64 })
    };
    let ((burst, storm, cap), wall_s) = timed(|| {
        let (burst, storm) = (scenario(false), scenario(true));
        let cap = json!({ "static_min": capacity(None, 1), "autoscale": capacity(Some(1), 3) });
        (burst, storm, cap)
    });
    // The headline economics this bench pins, asserted on every run so a
    // regenerated baseline cannot quietly give them up.
    let f = |policy, field| num(&burst, &[policy, field]);
    assert!(
        f("autoscale", "goodput_qps") >= 1.5 * f("static_min", "goodput_qps")
            && f("autoscale", "replica_seconds") < f("static_max", "replica_seconds"),
        "autoscaling must beat the floor's goodput 1.5x on fewer replica-seconds than the ceiling"
    );
    assert!(
        f("scale_to_zero", "cold_start_tax_ms") > 0.0
            && f("scale_to_zero", "p99_ms") > f("static_max", "p99_ms"),
        "scale-to-zero must pay a visible cold-start tax in the tail"
    );
    json!({
        "bench": "autoscale",
        "note": "all metrics are simulated and bit-deterministic per seed; --check compares them (near-)exactly — wall_s is context, never gated",
        "warmup_ms": AUTOSCALE_WARMUP_MS,
        "measure_ms": AUTOSCALE_MEASURE_MS,
        "wall_s": wall_s,
        "scenarios": { "mmpp_burst": burst, "oom_storm": storm, "capacity": cap },
    })
}

const PER_SITE_QPS: f64 = 250.0;

/// Fleet simulation throughput at 1, 8, 64 and 256 round-robin sites at a
/// constant per-site load, best of 2.
fn fleet() -> Value {
    let (cells, wall_total_s) = timed(|| {
        [1u32, 8, 64, 256].map(|sites| {
            let scenario: ScenarioSpec = format!(
                "seed = 77\nduration = \"1000ms\"\nwarmup = \"150ms\"\nslo = \"50ms\"\n\
                 [[tenants]]\nspec = \"resnet50:int8:1:1\"\narrival = \"poisson:{}\"\n",
                PER_SITE_QPS * f64::from(sites)
            )
            .parse()
            .expect("bench scenario parses");
            let spec = FleetSpec::new(scenario)
                .sites(sites)
                .router(RouterPolicy::RoundRobin)
                .network(NetworkModel::default());
            let (report, wall_s) = fastest(2, || timed(|| spec.run().expect("bench fleet runs")));
            let cell = json!({
                "sites": u64::from(sites),
                "requests": report.requests as u64,
                "served": report.served as u64,
                "slo_attainment": report.slo_attainment,
                "sim_events": report.sim_events_total,
                "wall_s": wall_s,
                "sites_per_s": f64::from(sites) / wall_s.max(1e-9),
                "events_per_s": report.sim_events_total as f64 / wall_s.max(1e-9),
            });
            (format!("sites_{sites}"), cell)
        })
    });
    // Per-site load is constant, so 8 sites do 8x the work of 1: parallel
    // site sims must buy >= 4x aggregate events/s wherever there are cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = num(&cells[1].1, &["events_per_s"]) / num(&cells[0].1, &["events_per_s"]);
    assert!(
        cores < 8 || speedup >= 4.0,
        "8 sites must reach >= 4x the 1-site events/s on {cores} cores; got {speedup:.2}x"
    );
    json!({
        "bench": "fleet",
        "note": "requests/served/slo_attainment/sim_events are simulated and bit-deterministic per seed (windows fixed, no JETSIM_FAST shrink); events_per_s is host-dependent and gated at 30% regression; wall_s/sites_per_s are host-dependent and never gated",
        "per_site_qps": PER_SITE_QPS,
        "warmup_ms": 150,
        "measure_ms": 1_000,
        "router": "round_robin",
        "wall_total_s": wall_total_s,
        "cells": Value::Map(cells.into()),
    })
}

fn main() -> ExitCode {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let check = names.iter().any(|a| a == "--check");
    names.retain(|a| a != "--check");
    if let Some(bad) = names.iter().find(|n| !BENCHES.iter().any(|(b, _)| b == n)) {
        let known = BENCHES.map(|(n, _)| n);
        eprintln!("unknown bench `{bad}`; known: {known:?}");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for (name, run) in BENCHES {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let fresh = run();
        let file = format!("BENCH_{name}.json");
        if check {
            let mismatches = baseline::check(Path::new(&file), &fresh);
            let verdict = if mismatches.is_empty() { "ok" } else { "FAIL" };
            println!("{verdict:<4}  {file}");
            for m in &mismatches {
                eprintln!("FAIL  {file} {m}");
            }
            failed |= !mismatches.is_empty();
        } else {
            let text = serde_json::to_string_pretty(&fresh).expect("serializable");
            std::fs::write(&file, text).unwrap_or_else(|e| panic!("{file}: {e}"));
            println!("written to {file}");
        }
    }
    if failed {
        eprintln!("\nSimulated mismatches are behaviour changes; events_per_s ones are slowdowns.");
    }
    ExitCode::from(u8::from(failed))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_the_committed_baselines() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed: BTreeSet<String> = std::fs::read_dir(root)
            .expect("workspace root")
            .filter_map(|entry| {
                let file = entry.ok()?.file_name().into_string().ok()?;
                Some(file.strip_prefix("BENCH_")?.strip_suffix(".json")?.into())
            })
            .collect();
        assert_eq!(committed, super::BENCHES.map(|(n, _)| n.into()).into());
    }
}
