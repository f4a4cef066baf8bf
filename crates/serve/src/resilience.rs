//! Request-level resilience policies and the chaos-evaluation harness.
//!
//! [`ResiliencePolicies`] bundles the per-group knobs the DES enforces —
//! deadlines, retries with seeded backoff jitter, hedging, circuit
//! breaking and replica recovery — and [`chaos_sweep_with_plan`]
//! measures what they buy: each policy runs against identical traffic
//! twice, once fault-free and once under a [`FaultPlan`], and the
//! [`ResilienceReport`] compares goodput retained, deadline-hit rate,
//! recovery time and retry amplification across policies.
//!
//! Everything is deterministic: the same base spec, policy set and fault
//! seed produce a byte-identical report, so two chaos runs can be
//! diffed directly (CI does exactly that).

use std::fmt;

use jetsim_des::SimDuration;
use jetsim_sim::serving::{BreakerPolicy, HedgePolicy, RetryPolicy};
use jetsim_sim::FaultPlan;
use serde::Serialize;

use crate::spec::{ServeError, ServeSpec};

/// The full per-group resilience bundle applied to every tenant of a
/// [`ServeSpec`]. Every knob is optional; [`ResiliencePolicies::none`]
/// reproduces the pre-resilience serving behaviour byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResiliencePolicies {
    /// Queueing deadline: a request still queued this long after arrival
    /// is failed with a distinct terminal state.
    pub deadline: Option<SimDuration>,
    /// Retry failed requests with exponential backoff and seeded jitter.
    pub retry: Option<RetryPolicy>,
    /// Duplicate slow in-flight requests onto a second replica.
    pub hedge: Option<HedgePolicy>,
    /// Trip on rolling error rate; shed or brown out until a probe
    /// succeeds.
    pub breaker: Option<BreakerPolicy>,
    /// Restart each OOM-killed replica up to this many times instead of
    /// leaving it dead. Every restart loads the engine's plan file
    /// ([`Engine::load_cost_estimate`](jetsim_trt::Engine::load_cost_estimate)),
    /// as `trtexec` does.
    pub recovery: Option<u32>,
}

impl ResiliencePolicies {
    /// No resilience: every fault is terminal, requests have no deadline
    /// and are never retried, hedged or gated. The pre-resilience
    /// behaviour.
    pub fn none() -> Self {
        ResiliencePolicies::default()
    }

    /// A reasonable production bundle derived from the SLO: deadline at
    /// 4× SLO, 3 attempts backing off from SLO/2, a 32-outcome breaker
    /// tripping at 50% errors, and 2 plan-load restarts per replica.
    /// Hedging stays off (it trades load for tail latency and deserves
    /// an explicit opt-in).
    pub fn standard(slo: SimDuration) -> Self {
        ResiliencePolicies {
            deadline: Some(SimDuration::from_secs_f64(slo.as_secs_f64() * 4.0)),
            retry: Some(RetryPolicy::new(
                3,
                SimDuration::from_secs_f64(slo.as_secs_f64() * 0.5),
            )),
            hedge: None,
            breaker: Some(BreakerPolicy::new(32, 0.5)),
            recovery: Some(2),
        }
    }

    /// Sets the queueing deadline.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Sets the hedging policy.
    pub fn hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Sets the circuit-breaker policy.
    pub fn breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Restarts each killed replica up to `max_restarts` times.
    pub fn recovery(mut self, max_restarts: u32) -> Self {
        self.recovery = Some(max_restarts);
        self
    }
}

/// One chaos cell: a named policy bundle evaluated fault-free and under
/// the shared fault plan, against identical traffic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosCell {
    /// The policy bundle's name.
    pub policy: String,
    /// Goodput with no faults injected, logical requests/s (all groups).
    pub baseline_goodput_qps: f64,
    /// Goodput under the fault plan, logical requests/s.
    pub faulted_goodput_qps: f64,
    /// `faulted / baseline` — the number the tentpole is judged by.
    pub goodput_retained: f64,
    /// Offered→served fraction within the deadline under faults.
    pub deadline_hit_rate: f64,
    /// Mean time-to-recovery across replica restarts under faults, ms.
    pub mttr_ms: f64,
    /// Physical attempts per logical request under faults.
    pub retry_amplification: f64,
    /// Logical requests served under faults.
    pub served: usize,
    /// Logical requests that failed terminally under faults.
    pub failed: usize,
    /// Replica restarts completed under faults.
    pub replica_restarts: usize,
    /// Replicas ejected for good under faults.
    pub replica_ejected: usize,
}

/// The chaos harness's verdict: one [`ChaosCell`] per policy bundle,
/// all evaluated against the same seeded fault plan and traffic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// Device the cells simulated.
    pub device: String,
    /// Seed of the injected fault plan.
    pub fault_seed: u64,
    /// Background memory spikes injected.
    pub spikes: usize,
    /// DVFS throttle locks injected.
    pub locks: usize,
    /// Per-policy cells, in sweep order.
    pub cells: Vec<ChaosCell>,
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — fault seed {:#x} ({} spikes, {} locks)",
            self.device, self.fault_seed, self.spikes, self.locks
        )?;
        writeln!(
            f,
            "{:<20} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>9}",
            "policy",
            "base-qps",
            "fault-qps",
            "retained",
            "deadline%",
            "mttr-ms",
            "amplif",
            "restarts"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<20} {:>9.1} {:>9.1} {:>8.1}% {:>8.1}% {:>8.1} {:>7.2} {:>9}",
                c.policy,
                c.baseline_goodput_qps,
                c.faulted_goodput_qps,
                c.goodput_retained * 100.0,
                c.deadline_hit_rate * 100.0,
                c.mttr_ms,
                c.retry_amplification,
                c.replica_restarts,
            )?;
        }
        Ok(())
    }
}

/// Sweeps `policies` over `base` under `plan`: for each bundle, one
/// fault-free run and one under the plan, against byte-identical
/// traffic (the base spec's seed governs arrivals in every cell). The
/// plan may be seeded (`FaultPlan::seeded`), hand-built for guaranteed
/// pressure (e.g. a spike sized to the device's memory so the OOM
/// killer demonstrably fires), or both; `fault_seed` is recorded in the
/// report for provenance.
///
/// # Errors
///
/// See [`ServeSpec::build_config`].
pub fn chaos_sweep_with_plan(
    base: &ServeSpec,
    policies: &[(&str, ResiliencePolicies)],
    plan: FaultPlan,
    fault_seed: u64,
) -> Result<ResilienceReport, ServeError> {
    let spikes = plan.memory_spikes.len();
    let locks = plan.throttle_locks.len();
    let mut cells = Vec::with_capacity(policies.len());
    let mut device = String::new();
    for &(name, policy) in policies {
        let spec = base.clone().resilience(policy);
        let baseline = spec.clone().run()?;
        let faulted = spec.faults(plan.clone()).run()?;
        device = faulted.device.clone();
        let goodput = |r: &crate::metrics::ServeReport| -> f64 {
            r.groups.iter().map(|g| g.goodput_qps).sum()
        };
        let offered: usize = faulted.groups.iter().map(|g| g.offered).sum();
        let weighted = |f: &dyn Fn(&crate::metrics::GroupReport) -> f64| -> f64 {
            if offered == 0 {
                return 0.0;
            }
            faulted
                .groups
                .iter()
                .map(|g| f(g) * g.offered as f64)
                .sum::<f64>()
                / offered as f64
        };
        let base_qps = goodput(&baseline);
        let fault_qps = goodput(&faulted);
        let restarts: usize = faulted.groups.iter().map(|g| g.replica_restarts).sum();
        let recovery_ms: f64 = faulted
            .groups
            .iter()
            .map(|g| g.mttr_ms * g.replica_restarts as f64)
            .sum();
        cells.push(ChaosCell {
            policy: name.to_string(),
            baseline_goodput_qps: base_qps,
            faulted_goodput_qps: fault_qps,
            goodput_retained: if base_qps > 0.0 {
                fault_qps / base_qps
            } else {
                0.0
            },
            deadline_hit_rate: weighted(&|g| g.deadline_hit_rate),
            mttr_ms: if restarts > 0 {
                recovery_ms / restarts as f64
            } else {
                0.0
            },
            retry_amplification: weighted(&|g| g.retry_amplification),
            served: faulted.groups.iter().map(|g| g.served).sum(),
            failed: faulted.groups.iter().map(|g| g.failed).sum(),
            replica_restarts: restarts,
            replica_ejected: faulted.groups.iter().map(|g| g.replica_ejected).sum(),
        });
    }
    Ok(ResilienceReport {
        device,
        fault_seed,
        spikes,
        locks,
        cells,
    })
}
