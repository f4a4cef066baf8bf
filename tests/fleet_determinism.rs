//! The fleet determinism contract:
//!
//! 1. the [`FleetReport`] is **byte-identical** whatever the worker
//!    count — sites couple only through pre-computed routing decisions,
//!    so parallelism can never change results;
//! 2. a one-site fleet whose router pins all traffic home is
//!    **indistinguishable from a standalone run** of the same scenario
//!    — the aggregate-stream seed fold and trace-replay arrivals
//!    reproduce the single-device ingress bit for bit.

use jetsim_des::fnv1a;
use jetsim_fleet::{build_fleet_spec, FleetSpec, NetworkModel, RouterPolicy, ScenarioSpec};
use jetsim_serve::build_serve_spec;

fn scenario(toml: &str) -> ScenarioSpec {
    toml.parse().expect("test scenario parses")
}

const FLEET_TOML: &str = r#"
seed = 1234
duration = "400ms"
warmup = "100ms"
slo = "50ms"

[fleet]
sites = 3
router = "least_queue"
cloud = true
jitter = "2ms"

[[tenants]]
spec = "resnet50:int8:1:1"
arrival = "poisson:150"

[[tenants]]
spec = "mobilenet_v2:fp16:1:1"
arrival = "mmpp:40:400:80:40"
"#;

/// Every per-site path at once: an edge-first `offload` fleet with a
/// cloud tier, a seeded fault plan with OOM recovery, `degrade`
/// admission and a `brownout` breaker (both reach for the fallback
/// engine), and a scale-to-zero tenant whose starts load its engine's
/// plan.
const CHAOS_FLEET_TOML: &str = r#"
seed = 4321
fault_seed = 17
duration = "400ms"
warmup = "100ms"
slo = "100ms"
deadline = "200ms"
retry = 2
breaker = "brownout"
recovery = 2
admission = "degrade"

[fleet]
sites = 3
router = "offload"
cloud = true
jitter = "2ms"

[[tenants]]
spec = "resnet50:fp16:1:2"
arrival = "mmpp:800:3200:80:40"

[[tenants]]
spec = "mobilenet_v2:fp16:1:2"
arrival = "poisson:80"

[tenants.autoscale]
min_replicas = 0
max_replicas = 2
keep_alive = "100ms"
start_cost = "auto"
"#;

/// Same bytes at any worker count, pinned by digest. The two scenarios
/// route with `least_queue` and `offload`, which read the planner's
/// backlog model; `round_robin`, the only router the fleet bench and
/// benchmark pin, never reads it. The chaos digest was re-pinned when a
/// replica start became one phase: its JSON moved only in `sim_events`
/// and `sim_events_total` (40,013 → 40,006, one event fewer per
/// provision). Then, as a property over 16 more seeds of the jittered
/// cloud fleet: most of its routed requests leave home, so most site
/// arrivals are delivery instants the uplink moved.
#[test]
fn fleet_report_is_byte_identical_across_worker_counts() {
    for (toml, digest) in [
        (FLEET_TOML, 0x7a93_70b7_e5de_cab4_u64),
        (CHAOS_FLEET_TOML, 0x2792_6fe9_8a96_85b5_u64),
    ] {
        let base = build_fleet_spec(&scenario(toml)).unwrap();
        let reference = base.clone().workers(Some(1)).run().unwrap().to_json();
        assert_eq!(
            format!("{:#018x}", fnv1a(reference.as_bytes())),
            format!("{digest:#018x}"),
            "FleetReport bytes moved:\n{reference}"
        );
        for workers in [2usize, 8] {
            let json = base.clone().workers(Some(workers)).run().unwrap().to_json();
            assert_eq!(json, reference, "FleetReport diverged at {workers} workers");
        }
    }
    for seed in 1..=16 {
        let mut sc = scenario(FLEET_TOML);
        sc.seed = Some(seed);
        let base = build_fleet_spec(&sc).unwrap();
        let one = base.clone().workers(Some(1)).run().unwrap();
        assert!(one.non_home_fraction > 0.5, "seed {seed}: {one:?}");
        let three = base.workers(Some(3)).run().unwrap();
        assert_eq!(one.to_json(), three.to_json(), "seed {seed} at 3 workers");
    }
}

#[test]
fn fleet_replays_bit_for_bit_and_diverges_across_seeds() {
    let base = build_fleet_spec(&scenario(FLEET_TOML)).unwrap();
    assert_eq!(
        base.run().unwrap(),
        base.run().unwrap(),
        "same spec, same bytes"
    );
    let mut other = scenario(FLEET_TOML);
    other.seed = Some(5678);
    let diverged = build_fleet_spec(&other).unwrap().run().unwrap();
    assert_ne!(
        base.run().unwrap().to_json(),
        diverged.to_json(),
        "different seeds draw different traffic"
    );
}

const PINNED_TOML: &str = r#"
seed = 99
duration = "500ms"
warmup = "100ms"
slo = "40ms"

[[tenants]]
spec = "resnet50:int8:1:2"
arrival = "poisson:250"
"#;

/// A one-site `locality` fleet serves everything at home: zero network
/// delay, and the aggregate stream *is* the standalone group stream.
/// The site's serving report must match a standalone run of the same
/// scenario exactly — field for field, not just statistically.
#[test]
fn pinned_single_site_fleet_matches_standalone_run() {
    let sc = scenario(PINNED_TOML);
    let fleet = FleetSpec::new(sc.clone())
        .sites(1)
        .router(RouterPolicy::Locality)
        .run()
        .unwrap();
    let standalone = build_serve_spec(&sc).unwrap().run().unwrap();

    assert_eq!(fleet.sites.len(), 1);
    assert!(
        fleet.sites[0].routed >= fleet.requests && fleet.requests > 0,
        "routing covers warmup arrivals too"
    );
    assert_eq!(
        fleet.sites[0].report, standalone,
        "pinned fleet site must replay the standalone run bit for bit"
    );
    assert_eq!(fleet.non_home_fraction, 0.0);
    assert_eq!(fleet.offload_fraction, 0.0);
    assert_eq!(fleet.cross_site_traffic_mb, 0.0);
    assert_eq!(fleet.mean_network_ms, 0.0);
}

/// The same pinning equivalence holds under a harsher network model —
/// home traffic never touches the network, so the model is irrelevant
/// when everything stays home.
#[test]
fn network_model_is_inert_for_home_traffic() {
    let sc = scenario(PINNED_TOML);
    let cheap = FleetSpec::new(sc.clone())
        .sites(1)
        .router(RouterPolicy::Locality)
        .run()
        .unwrap();
    let mut harsh = FleetSpec::new(sc)
        .sites(1)
        .router(RouterPolicy::Locality)
        .network(
            "base=50ms,jitter=20ms,bw=1,req_kb=512,cloud_rtt=200ms"
                .parse()
                .unwrap(),
        )
        .run()
        .unwrap();
    // Only the echoed model string may differ; every measurement must not.
    assert_ne!(harsh.network, cheap.network);
    harsh.network = cheap.network.clone();
    assert_eq!(cheap.to_json(), harsh.to_json());
}

/// Spreading the same traffic over more sites must not change *what*
/// arrives, only *where*: total routed requests are conserved.
#[test]
fn routing_conserves_the_aggregate_stream() {
    let mut sc = scenario(FLEET_TOML);
    sc.fleet.as_mut().unwrap().jitter = None;
    sc.fleet.as_mut().unwrap().router = Some("round_robin".to_string());
    let one = FleetSpec::new(sc.clone())
        .sites(1)
        .cloud(false)
        .router(RouterPolicy::RoundRobin)
        .run()
        .unwrap();
    let many = build_fleet_spec(&sc).unwrap().run().unwrap();
    let routed =
        |r: &jetsim_fleet::FleetReport| -> usize { r.sites.iter().map(|s| s.routed).sum() };
    assert_eq!(routed(&one), routed(&many));
    let edges = many.sites.iter().filter(|s| !s.cloud);
    assert!(
        edges.clone().all(|s| s.routed > 0),
        "round_robin reaches every edge site"
    );
}

/// `--network` grammar and the scenario `[fleet]` table resolve to the
/// same model, so the two spellings are interchangeable.
#[test]
fn network_grammar_matches_scenario_table() {
    let sc = scenario(
        r#"
[fleet]
base_latency = "7ms"
jitter = "1ms"
bandwidth_mbps = 25.0
request_kb = 256.0
response_kb = 16.0
cloud_rtt = "60ms"

[[tenants]]
spec = "resnet50:int8:1:1"
"#,
    );
    let from_table = jetsim_fleet::build_network(sc.fleet.as_ref().unwrap()).unwrap();
    let from_flag: NetworkModel = "base=7ms,jitter=1ms,bw=25,req_kb=256,resp_kb=16,cloud_rtt=60ms"
        .parse()
        .unwrap();
    assert_eq!(from_table, from_flag);
}
