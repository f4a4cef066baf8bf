//! Serve-report parity: the byte referee for the report layer.
//!
//! Golden parity pins the simulator's `RunTrace`; this suite pins what
//! the serve layer distils from it. Each cell runs a serving scenario
//! and hashes the [`ServeReport`]'s JSON with FNV-1a, so a rewrite of
//! the roll-up (chain accounting, percentiles, replica-seconds replay,
//! recovery and scaling counters) must reproduce every byte. The grid
//! covers the benchmark's two serve workloads, shortened, plus four
//! specs that each fire a family of report fields: retries, hedges,
//! deadlines, a brownout breaker and degraded batches; scale-to-zero
//! autoscaling with cold and warm starts, reaps and parks; an OOM fault
//! plan with restarts and an ejection; and fixed-price starts beside
//! OOM restarts. Every spec runs under the `rr` and `priority` GPU
//! policies at two seeds.
//!
//! To re-capture (only legitimate when the simulation *model* or the
//! report's definition changes, never for a pure refactor):
//!
//! ```text
//! JETSIM_REPORT_CAPTURE=1 cargo test --test report_parity -- --nocapture
//! ```

use jetsim_des::{fnv1a, SimDuration, SimTime};
use jetsim_serve::{build_serve_spec, FaultPlan, GroupReport, ScenarioSpec, ServeReport};

const SERVE_STEADY: &str = include_str!("../benchmark/workloads/serve_steady.toml");
const SERVE_CHAOS: &str = include_str!("../benchmark/workloads/serve_chaos.toml");

/// Retries, auto hedging, a queueing deadline, a brownout breaker and
/// `degrade` admission, under bursts that overrun a small queue.
const RESILIENCE: &str = r#"
device = "orin-nano"
duration = "3s"
warmup = "300ms"
slo = "40ms"
deadline = "50ms"
retry = 3
hedge = "auto"
breaker = "brownout"
admission = "degrade"
queue_cap = 16

[[tenants]]
spec = "resnet50:fp16:1:2:1"
arrival = "mmpp:100:700:300:200"

[[tenants]]
spec = "yolov8n:int8:1:1:0"
arrival = "poisson:60"
"#;

/// Scale-to-zero: sparse bursts park the group, wake it cold once and
/// warm after that, and the keep-alive reaps idle replicas.
const SCALE_TO_ZERO: &str = r#"
device = "orin-nano"
duration = "4s"
warmup = "200ms"
slo = "50ms"

[[tenants]]
spec = "mobilenet_v2:fp16:1:2:1"
arrival = "mmpp:5:400:400:250"

[tenants.autoscale]
min_replicas = 0
max_replicas = 2
target_queue = 1.0
keep_alive = "50ms"
evaluate_every = "10ms"

[[tenants]]
spec = "resnet50:int8:1:1:0"
arrival = "poisson:40"
"#;

/// OOM kills under the fault plan [`oom_plan`] adds: one restart per
/// replica, so a second kill ejects.
const OOM: &str = r#"
device = "orin-nano"
duration = "3s"
warmup = "200ms"
slo = "50ms"
recovery = 1

[[tenants]]
spec = "resnet50:fp16:1:3:1"
arrival = "poisson:120"

[[tenants]]
spec = "yolov8n:fp16:1:2:0"
arrival = "poisson:60"
"#;

/// Fixed start prices beside restarts: a scale-to-zero group whose
/// every start costs a flat 40 ms, next to a group the OOM killer hits
/// under [`oom_plan`], with one restart per replica.
const START_COST: &str = r#"
device = "orin-nano"
duration = "3s"
warmup = "200ms"
slo = "50ms"
recovery = 1

[[tenants]]
spec = "mobilenet_v2:fp16:1:2:1"
arrival = "mmpp:5:400:400:250"

[tenants.autoscale]
min_replicas = 0
max_replicas = 2
target_queue = 1.0
keep_alive = "50ms"
evaluate_every = "10ms"
start_cost = "40ms"

[[tenants]]
spec = "resnet50:fp16:1:3:0"
arrival = "poisson:120"
"#;

/// Memory spikes under the OOM killer, large enough to kill replicas,
/// spaced so the restarted ones are killed again.
fn oom_plan() -> FaultPlan {
    let ms = SimDuration::from_millis;
    let at = |t| SimTime::ZERO + ms(t);
    let gb = 1u64 << 30;
    FaultPlan::kill_largest_on_oom()
        .memory_spike(at(500), ms(20), 5 * gb)
        .memory_spike(at(1500), ms(20), 5 * gb)
        .memory_spike(at(2400), ms(20), 5 * gb)
}

const SEEDS: [u64; 2] = [7, 19];
const POLICIES: [&str; 2] = ["rr", "priority"];

struct Cell {
    id: String,
    report: ServeReport,
}

fn run(spec: &str, toml: &str, policy: &str, seed: u64) -> Cell {
    let mut sc: ScenarioSpec = toml.parse().expect("scenario parses");
    sc.seed = Some(seed);
    sc.gpu_policy = Some(policy.to_string());
    if matches!(spec, "serve_steady" | "serve_chaos") {
        // The benchmark's workloads, cut from minutes to 5 s.
        sc.duration = Some("5s".to_string());
    }
    if spec == "serve_chaos" {
        // As the benchmark runs it: the fault plan follows the seed.
        sc.fault_seed = Some(seed + 1);
    }
    let mut serve = build_serve_spec(&sc).expect("scenario resolves");
    if matches!(spec, "oom" | "start_cost") {
        serve = serve.faults(oom_plan());
    }
    Cell {
        id: format!("{spec}_{policy}_s{seed}"),
        report: serve.run().expect("serve run"),
    }
}

fn cells() -> Vec<Cell> {
    let specs = [
        ("serve_steady", SERVE_STEADY),
        ("serve_chaos", SERVE_CHAOS),
        ("resilience", RESILIENCE),
        ("scale_to_zero", SCALE_TO_ZERO),
        ("oom", OOM),
        ("start_cost", START_COST),
    ];
    let mut cells = Vec::new();
    for (spec, toml) in specs {
        for policy in POLICIES {
            for seed in SEEDS {
                cells.push(run(spec, toml, policy, seed));
            }
        }
    }
    cells
}

fn digest(report: &ServeReport) -> u64 {
    fnv1a(
        serde_json::to_string(report)
            .expect("report serialises")
            .as_bytes(),
    )
}

/// Captured with `JETSIM_REPORT_CAPTURE=1` on the tree before the
/// report became one flat pass; the `start_cost` cells on the tree
/// before a replica start became one plan-load phase. Every refactor of
/// the report must reproduce each one bit for bit.
const PINNED: &[(&str, u64)] = &[
    ("serve_steady_rr_s7", 0xa3af7629d8176572),
    ("serve_steady_rr_s19", 0x21131f4b4fdd84d0),
    ("serve_steady_priority_s7", 0x77d0e22dc0573698),
    ("serve_steady_priority_s19", 0x0758eb97517208dc),
    ("serve_chaos_rr_s7", 0x26b3f3e6cf58f6f1),
    ("serve_chaos_rr_s19", 0x23747d3d05f312d1),
    ("serve_chaos_priority_s7", 0x6583e7a70f0baa77),
    ("serve_chaos_priority_s19", 0x59e259956129b21f),
    ("resilience_rr_s7", 0x4a0fbcb3f2f69463),
    ("resilience_rr_s19", 0xffe153487833e20c),
    ("resilience_priority_s7", 0x5e849d9f4a52bde5),
    ("resilience_priority_s19", 0xa2e53c1cc8cc37e2),
    ("scale_to_zero_rr_s7", 0x30aa5466ac25f7fd),
    ("scale_to_zero_rr_s19", 0x31b9dac58923a527),
    ("scale_to_zero_priority_s7", 0xa447bf9e5e2243c8),
    ("scale_to_zero_priority_s19", 0x6f976e8b878a3379),
    ("oom_rr_s7", 0xd096a64dd8fb16ca),
    ("oom_rr_s19", 0x01cffd02c1cacd10),
    ("oom_priority_s7", 0x99228260887cb8f9),
    ("oom_priority_s19", 0x8e45040ec8de9766),
    ("start_cost_rr_s7", 0x764415af7e05ab77),
    ("start_cost_rr_s19", 0xd9f7e4b0fff11611),
    ("start_cost_priority_s7", 0x34fb72702a4eb638),
    ("start_cost_priority_s19", 0x86408e6560110082),
];

#[test]
fn serve_report_parity() {
    let cells = cells();
    if std::env::var("JETSIM_REPORT_CAPTURE").is_ok() {
        println!("const PINNED: &[(&str, u64)] = &[");
        for cell in &cells {
            println!("    (\"{}\", 0x{:016x}),", cell.id, digest(&cell.report));
        }
        println!("];");
        return;
    }
    assert_eq!(
        cells.len(),
        PINNED.len(),
        "grid drifted from the captured table; re-capture deliberately"
    );
    let mut failures = Vec::new();
    for (cell, &(id, expected)) in cells.iter().zip(PINNED) {
        assert_eq!(cell.id, id, "cell order drifted");
        let got = digest(&cell.report);
        if got != expected {
            failures.push(format!(
                "{id}: expected 0x{expected:016x}, got 0x{got:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "serve-report parity broken:\n{}",
        failures.join("\n")
    );
}

/// Each spec fires the report fields it is there to pin, in every cell,
/// so its digest covers those counters rather than zeros.
#[test]
fn report_cells_exercise_their_paths() {
    let sum = |report: &ServeReport, f: fn(&GroupReport) -> usize| {
        report.groups.iter().map(f).sum::<usize>()
    };
    for cell in cells() {
        let r = &cell.report;
        let id = &cell.id;
        for g in &r.groups {
            assert_eq!(
                g.served + g.failed + g.unfinished,
                g.offered,
                "{id} {}: conservation",
                g.label
            );
        }
        assert!(sum(r, |g| g.served) > 0, "{id}: served");
        if id.starts_with("resilience") {
            assert!(
                sum(r, |g| g.attempts) > sum(r, |g| g.offered),
                "{id}: retries"
            );
            assert!(sum(r, |g| g.hedge_losers) > 0, "{id}: hedge losers");
            assert!(sum(r, |g| g.deadline_expired) > 0, "{id}: deadlines");
            assert!(sum(r, |g| g.breaker_trips) > 0, "{id}: breaker trips");
            assert!(sum(r, |g| g.degraded_batches) > 0, "{id}: degraded batches");
        }
        if id.starts_with("scale_to_zero") {
            assert!(sum(r, |g| g.cold_starts) > 0, "{id}: cold starts");
            assert!(sum(r, |g| g.warm_starts) > 0, "{id}: warm starts");
            assert!(sum(r, |g| g.reaps) > 0, "{id}: reaps");
            assert!(sum(r, |g| g.scale_to_zero_parks) > 0, "{id}: parks");
            assert!(r.groups[0].replica_seconds > 0.0, "{id}: replica-seconds");
        }
        if id.starts_with("oom") {
            assert!(sum(r, |g| g.replica_restarts) > 0, "{id}: restarts");
            assert!(sum(r, |g| g.replica_ejected) > 0, "{id}: ejections");
            assert!(sum(r, |g| g.killed_inflight) > 0, "{id}: killed in flight");
        }
        if id.starts_with("start_cost") {
            let (scaled, restarted) = (&r.groups[0], &r.groups[1]);
            assert!(scaled.cold_starts > 0, "{id}: cold starts");
            assert!(scaled.warm_starts > 0, "{id}: warm starts");
            assert_eq!(scaled.cold_start_tax_ms, 40.0, "{id}: fixed start price");
            assert!(restarted.replica_restarts > 0, "{id}: restarts");
            assert!(restarted.replica_ejected > 0, "{id}: ejections");
        }
    }
}
