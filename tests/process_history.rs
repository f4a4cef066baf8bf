//! Same input, same bytes, in any process: a serve report must not
//! depend on what the process ran before it. Replica starts are priced
//! from the engine alone, so the process-wide engine cache, which only
//! shares built engines, reaches no simulated value.
//!
//! This binary holds exactly one test, so no other thread fills or
//! clears the global cache while it runs.

use jetsim_serve::{build_serve_spec, ScenarioSpec};
use jetsim_trt::EngineCache;

/// The benchmark's chaos scenario: OOM recovery on both tenants and a
/// scale-to-zero `mobilenet_v2:fp16:1` group.
const SERVE_CHAOS: &str = include_str!("../benchmark/workloads/serve_chaos.toml");

/// Another spec that builds the chaos scenario's `mobilenet_v2` engine.
const NEIGHBOUR: &str = r#"
duration = "1s"
slo = "50ms"

[[tenants]]
spec = "mobilenet_v2:fp16:1:1"
arrival = "poisson:40"
"#;

fn report(scenario: &ScenarioSpec) -> String {
    let spec = build_serve_spec(scenario).expect("scenario resolves");
    serde_json::to_string(&spec.run().expect("serve run")).expect("report serialises")
}

#[test]
fn serve_report_does_not_depend_on_process_history() {
    let mut chaos: ScenarioSpec = SERVE_CHAOS.parse().expect("chaos scenario parses");
    chaos.duration = Some("1s".to_string());
    let neighbour: ScenarioSpec = NEIGHBOUR.parse().expect("neighbour scenario parses");

    EngineCache::global().clear();
    let fresh = report(&chaos);
    let again = report(&chaos);
    EngineCache::global().clear();
    report(&neighbour);
    let after_neighbour = report(&chaos);

    assert_eq!(
        fresh, again,
        "a second run in the same process moved the report"
    );
    assert_eq!(
        fresh, after_neighbour,
        "a run after a spec sharing an engine moved the report"
    );
}
