//! Resolving a declarative [`ScenarioSpec`] into a runnable [`ServeSpec`].
//!
//! The scenario document (see [`jetsim::scenario`]) is plain data with
//! every field optional; this module owns the policy of turning it into
//! a concrete serving experiment. Defaults are **identical to the
//! `jetsim-serve` CLI defaults**, which is what makes flags and
//! scenario files interchangeable: the CLI parses its flags into a
//! sparse overlay `ScenarioSpec`, merges it over the file (if any), and
//! routes both paths through [`build_serve_spec`] — so
//! `--scenario run.toml` reproduces the equivalent flag invocation byte
//! for byte.

use jetsim::scenario::{
    cli_fault_plan, parse_arrival, parse_duration, parse_window, AutoscaleScenario, ScenarioSpec,
};
use jetsim_des::{ArrivalProcess, SimDuration};

use crate::resilience::ResiliencePolicies;
use crate::spec::{AutoscaleSpec, RestartCost, ServeSpec, ServeTenant};
use crate::{AdmissionPolicy, BreakerMode, BreakerPolicy, HedgePolicy, RetryPolicy};

fn duration_or(field: &Option<String>, default: SimDuration) -> Result<SimDuration, String> {
    match field {
        Some(s) => parse_duration(s),
        None => Ok(default),
    }
}

fn parse_admission(s: &str) -> Result<AdmissionPolicy, String> {
    match s {
        "reject" => Ok(AdmissionPolicy::Reject),
        "shed" => Ok(AdmissionPolicy::Shed),
        "degrade" => Ok(AdmissionPolicy::Degrade),
        other => Err(format!(
            "bad admission `{other}`: want reject, shed or degrade"
        )),
    }
}

/// Maps an [`AutoscaleScenario`] table onto an [`AutoscaleSpec`];
/// absent fields keep the `AutoscaleSpec` defaults.
pub fn build_autoscale(a: &AutoscaleScenario) -> Result<AutoscaleSpec, String> {
    let mut spec = AutoscaleSpec::new(a.min_replicas.unwrap_or(1));
    if let Some(max) = a.max_replicas {
        spec = spec.max_replicas(max);
    }
    if let Some(target) = a.target_queue {
        if !target.is_finite() || target <= 0.0 {
            return Err(format!(
                "autoscale target_queue `{target}` must be positive"
            ));
        }
        spec = spec.target_queue_per_replica(target);
    }
    if let Some(keep_alive) = &a.keep_alive {
        spec = spec.keep_alive(parse_duration(keep_alive)?);
    }
    if let Some(every) = &a.evaluate_every {
        spec = spec.evaluate_every(parse_duration(every)?);
    }
    if let Some(burn) = a.slo_burn {
        spec = spec.slo_burn(burn);
    }
    match a.start_cost.as_deref() {
        None | Some("auto") => {}
        Some(fixed) => spec = spec.cost(RestartCost::Fixed(parse_duration(fixed)?)),
    }
    Ok(spec)
}

/// Resolves a scenario into a runnable [`ServeSpec`], applying the
/// `jetsim-serve` CLI defaults for every absent field (device
/// `orin-nano`, SLO 50 ms, duration 3 s, warmup 500 ms, max-delay 5 ms,
/// queue-cap 64, admission `reject`, seed
/// [`DEFAULT_SEED`](jetsim_sim::DEFAULT_SEED), arrivals `poisson:100`,
/// GPU policy `rr`).
///
/// # Errors
///
/// Returns a message naming the offending field: unknown device, bad
/// grammar in any duration/arrival/tenant string, a run window past the
/// simulated clock's end, or a scenario with no tenants.
pub fn build_serve_spec(sc: &ScenarioSpec) -> Result<ServeSpec, String> {
    let slo = duration_or(&sc.slo, SimDuration::from_millis(50))?;
    let warmup = duration_or(&sc.warmup, SimDuration::from_millis(500))?;
    let duration = parse_window(warmup, sc.duration.as_deref(), SimDuration::from_secs(3))?;
    let mut spec = ServeSpec::new(sc.platform()?)
        .slo(slo)
        .duration(duration)
        .warmup(warmup)
        .seed(sc.seed_or_default());
    if let Some(policy) = &sc.gpu_policy {
        spec = spec.gpu_policy(
            policy
                .parse()
                .map_err(|e| format!("bad gpu_policy `{policy}`: {e}"))?,
        );
    }

    let mut resilience = ResiliencePolicies::none();
    if let Some(deadline) = &sc.deadline {
        resilience = resilience.deadline(parse_duration(deadline)?);
    }
    if let Some(attempts) = sc.retry {
        // Same policy as the CLI: back off from half the SLO so the
        // first retry lands inside any sane deadline window.
        let base = SimDuration::from_secs_f64(slo.as_secs_f64() * 0.5);
        resilience = resilience.retry(RetryPolicy::new(attempts, base));
    }
    if let Some(hedge) = &sc.hedge {
        resilience = resilience.hedge(match hedge.as_str() {
            "auto" => HedgePolicy::auto(),
            fixed => HedgePolicy::fixed(parse_duration(fixed)?),
        });
    }
    if let Some(breaker) = &sc.breaker {
        let mode = match breaker.as_str() {
            "shed" => BreakerMode::Shed,
            "brownout" => BreakerMode::Brownout,
            other => return Err(format!("bad breaker `{other}`: want shed or brownout")),
        };
        resilience = resilience.breaker(BreakerPolicy::new(32, 0.5).mode(mode));
    }
    if let Some(restarts) = sc.recovery {
        resilience = resilience.recovery(restarts);
    }
    spec = spec.resilience(resilience);
    if let Some(fault_seed) = sc.fault_seed {
        let plan = cli_fault_plan(fault_seed, spec.horizon());
        spec = spec.faults(plan);
    }
    if let Some(autoscale) = &sc.autoscale {
        spec = spec.autoscale(build_autoscale(autoscale)?);
    }

    let tenants = sc
        .tenants
        .as_ref()
        .filter(|t| !t.is_empty())
        .ok_or("scenario has no tenants (add a [[tenants]] table with spec = \"...\")")?;
    let default_max_delay = duration_or(&sc.max_delay, SimDuration::from_millis(5))?;
    let default_queue_cap = sc.queue_cap.unwrap_or(64) as usize;
    let default_admission = match &sc.admission {
        Some(a) => parse_admission(a)?,
        None => AdmissionPolicy::Reject,
    };
    for (i, t) in tenants.iter().enumerate() {
        let tenant_spec = t
            .spec
            .as_ref()
            .ok_or_else(|| format!("tenants[{i}] is missing the `spec` field"))?;
        let arrivals = match &t.arrival {
            Some(a) => parse_arrival(a)?,
            None => ArrivalProcess::poisson(100.0),
        };
        let mut tenant = ServeTenant::parse(tenant_spec, arrivals)
            .map_err(|e| format!("tenants[{i}]: {e}"))?
            .max_delay(duration_or(&t.max_delay, default_max_delay)?)
            .queue_cap(t.queue_cap.map(|c| c as usize).unwrap_or(default_queue_cap))
            .admission(match &t.admission {
                Some(a) => parse_admission(a)?,
                None => default_admission,
            });
        if let Some(autoscale) = &t.autoscale {
            tenant = tenant.autoscale(build_autoscale(autoscale)?);
        }
        spec = spec.tenant(tenant);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim::scenario::TenantScenario;

    fn minimal() -> ScenarioSpec {
        ScenarioSpec {
            duration: Some("400ms".to_string()),
            warmup: Some("100ms".to_string()),
            tenants: Some(vec![TenantScenario {
                spec: Some("resnet50:int8:1:2".to_string()),
                arrival: Some("poisson:120".to_string()),
                ..TenantScenario::default()
            }]),
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn minimal_scenario_resolves_and_runs() {
        let spec = build_serve_spec(&minimal()).unwrap();
        assert_eq!(spec.tenants().len(), 1);
        let report = spec.run().unwrap();
        assert!(report.groups[0].served > 0);
    }

    #[test]
    fn scenario_resolution_is_deterministic() {
        let a = build_serve_spec(&minimal()).unwrap().run().unwrap();
        let b = build_serve_spec(&minimal()).unwrap().run().unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same scenario, same seed => byte-identical report"
        );
    }

    #[test]
    fn errors_name_the_offending_field() {
        let sc = ScenarioSpec {
            device: Some("h100".to_string()),
            ..minimal()
        };
        assert!(build_serve_spec(&sc).unwrap_err().contains("h100"));

        let sc = ScenarioSpec {
            tenants: None,
            ..minimal()
        };
        assert!(build_serve_spec(&sc).unwrap_err().contains("no tenants"));

        let mut sc = minimal();
        sc.tenants.as_mut().unwrap()[0].spec = None;
        assert!(build_serve_spec(&sc)
            .unwrap_err()
            .contains("tenants[0] is missing the `spec` field"));

        let sc = ScenarioSpec {
            admission: Some("lottery".to_string()),
            ..minimal()
        };
        assert!(build_serve_spec(&sc).unwrap_err().contains("lottery"));
    }

    #[test]
    fn autoscale_table_maps_onto_autoscale_spec() {
        let auto = build_autoscale(&AutoscaleScenario {
            min_replicas: Some(0),
            max_replicas: Some(3),
            target_queue: Some(2.5),
            keep_alive: Some("150ms".to_string()),
            evaluate_every: Some("25ms".to_string()),
            slo_burn: Some(true),
            start_cost: Some("40ms".to_string()),
        })
        .unwrap();
        let expected = AutoscaleSpec::new(0)
            .max_replicas(3)
            .target_queue_per_replica(2.5)
            .keep_alive(SimDuration::from_millis(150))
            .evaluate_every(SimDuration::from_millis(25))
            .slo_burn(true)
            .cost(RestartCost::Fixed(SimDuration::from_millis(40)));
        assert_eq!(auto, expected);
        // "auto" and absent both mean plan-load costs.
        let defaulted = build_autoscale(&AutoscaleScenario::default()).unwrap();
        assert_eq!(defaulted, AutoscaleSpec::new(1));
        assert!(build_autoscale(&AutoscaleScenario {
            target_queue: Some(-1.0),
            ..AutoscaleScenario::default()
        })
        .is_err());
    }

    #[test]
    fn scenario_tenant_defaults_fall_back_spec_then_cli() {
        let mut sc = minimal();
        sc.max_delay = Some("9ms".to_string());
        sc.tenants.as_mut().unwrap().push(TenantScenario {
            spec: Some("model=yolov8n,precision=fp16,batch=1".to_string()),
            max_delay: Some("2ms".to_string()),
            queue_cap: Some(16),
            admission: Some("shed".to_string()),
            ..TenantScenario::default()
        });
        let spec = build_serve_spec(&sc).unwrap();
        assert_eq!(spec.tenants().len(), 2);
        // Tenant 0 inherits the scenario-level default; tenant 1 its own.
        assert_eq!(spec.tenants()[0].max_delay, SimDuration::from_millis(9));
        assert_eq!(spec.tenants()[1].max_delay, SimDuration::from_millis(2));
        assert_eq!(spec.tenants()[1].queue_cap, 16);
        assert_eq!(spec.tenants()[1].admission, AdmissionPolicy::Shed);
    }
}
