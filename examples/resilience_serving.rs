//! Request-level resilience under injected faults: the chaos demo.
//!
//! A two-replica ResNet-50 deployment on the Jetson Nano serves an open
//! Poisson stream while a fault plan drops a memory spike big enough
//! that the OOM killer culls *both* replicas mid-run (plus a DVFS
//! throttle lock for flavour). The chaos harness evaluates three policy
//! bundles against byte-identical traffic and faults:
//!
//! 1. **none** — the pre-resilience behaviour: killed replicas stay
//!    dead, their in-flight requests are lost, goodput collapses;
//! 2. **deadline+retry** — requests fail fast and retry, but with no
//!    replica to land on the retries mostly die too;
//! 3. **full** — deadline + retry + breaker + replica recovery: the
//!    replicas restart (each reloads its engine's plan file) and the
//!    group claws its goodput back.
//!
//! The run asserts the tentpole acceptance criterion — ≥ 2× goodput
//! retained with recovery+retry vs. resilience disabled under the same
//! fault seed — and prints the [`ResilienceReport`] as deterministic
//! JSON (CI diffs two same-seed runs byte for byte).
//!
//! ```sh
//! cargo run --release --example resilience_serving
//! ```

use jetsim::platform::Platform;
use jetsim_des::{ArrivalProcess, SimDuration, SimTime};
use jetsim_serve::{
    chaos_sweep_with_plan, FaultPlan, OomPolicy, ResiliencePolicies, RetryPolicy, ServeSpec,
    ServeTenant,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::jetson_nano();
    let slo = SimDuration::from_millis(250);
    let base = ServeSpec::new(platform)
        .tenant(
            ServeTenant::parse("resnet50:fp16:1:2", ArrivalProcess::poisson(12.0))?.queue_cap(32),
        )
        .slo(slo)
        .warmup(SimDuration::from_millis(300))
        .duration(SimDuration::from_secs(2));

    // A seeded lock plus one spike sized to the Nano's whole RAM: the
    // OOM killer *will* fire, deterministically, 600 ms in.
    let fault_seed: u64 = 0x00C0_FFEE;
    let plan = FaultPlan::seeded(fault_seed, base.horizon(), 0, 1)
        .memory_spike(
            SimTime::from_nanos(600_000_000),
            SimDuration::from_millis(150),
            4 << 30,
        )
        .oom_policy(OomPolicy::KillLargest);

    let policies = [
        ("none", ResiliencePolicies::none()),
        (
            "deadline+retry",
            ResiliencePolicies::none()
                .deadline(SimDuration::from_millis(1_000))
                .retry(RetryPolicy::new(3, SimDuration::from_millis(125))),
        ),
        ("full", ResiliencePolicies::standard(slo)),
    ];

    let report = chaos_sweep_with_plan(&base, &policies, plan, fault_seed)?;
    eprint!("{report}");

    let none = &report.cells[0];
    let full = &report.cells[2];
    eprintln!(
        "\ngoodput retained: none {:.1}% vs full {:.1}% ({:.1}x)",
        none.goodput_retained * 100.0,
        full.goodput_retained * 100.0,
        full.goodput_retained / none.goodput_retained.max(1e-9),
    );
    assert!(
        full.goodput_retained >= 2.0 * none.goodput_retained,
        "recovery+retry must retain >= 2x the goodput of no resilience \
         (got full {:.3} vs none {:.3})",
        full.goodput_retained,
        none.goodput_retained,
    );
    assert!(
        full.replica_restarts > 0,
        "the full bundle must actually recover replicas"
    );

    // The machine-readable report goes to stdout alone, so CI can diff
    // two same-seed runs byte for byte.
    println!("{}", serde_json::to_string_pretty(&report)?);
    Ok(())
}
