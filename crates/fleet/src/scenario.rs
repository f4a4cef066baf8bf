//! Resolving a declarative scenario's `[fleet]` table into a runnable
//! [`FleetSpec`].
//!
//! The single-device CLIs ignore the `[fleet]` table; `jetsim-fleet`
//! reads it here, with the same overlay discipline as `jetsim-serve`:
//! CLI flags become a sparse [`ScenarioSpec`] merged over the file, so
//! `--dump-scenario` round-trips byte for byte and a scenario file
//! reproduces the equivalent flag invocation.

use jetsim::scenario::{parse_duration, FleetScenario, ScenarioSpec};

use crate::network::NetworkModel;
use crate::spec::FleetSpec;

/// Default edge-site count when the scenario does not say.
pub const DEFAULT_SITES: u32 = 4;

/// Resolves `sc` (its `[fleet]` table plus the per-site serving fields)
/// into a [`FleetSpec`], applying the `jetsim-fleet` CLI defaults for
/// every absent field: 4 edge sites, `round_robin` router, no cloud
/// tier, device `cloud-a40` for the cloud tier, the default
/// [`NetworkModel`] and a 100 ms telemetry period.
///
/// # Errors
///
/// A message naming the offending field: a bad router name, duration
/// grammar, or non-positive bandwidth/site count.
pub fn build_fleet_spec(sc: &ScenarioSpec) -> Result<FleetSpec, String> {
    let fleet = sc.fleet.clone().unwrap_or_default();
    let mut spec = FleetSpec::new(sc.clone());
    let sites = fleet.sites.unwrap_or(DEFAULT_SITES);
    if sites == 0 {
        return Err("fleet sites must be at least 1".to_string());
    }
    spec = spec.sites(sites);
    if let Some(router) = &fleet.router {
        spec = spec.router(router.parse()?);
    }
    if let Some(cloud) = fleet.cloud {
        spec = spec.cloud(cloud);
    }
    if let Some(device) = &fleet.cloud_device {
        spec = spec.cloud_device(device.clone());
    }
    spec = spec.network(build_network(&fleet)?);
    if let Some(every) = &fleet.telemetry_every {
        spec = spec.telemetry_every(parse_duration(every)?);
    }
    Ok(spec)
}

/// Maps the `[fleet]` table's network fields onto a [`NetworkModel`];
/// absent fields keep the model defaults.
pub fn build_network(fleet: &FleetScenario) -> Result<NetworkModel, String> {
    let mut net = NetworkModel::default();
    if let Some(base) = &fleet.base_latency {
        net.base_latency = parse_duration(base)?;
    }
    if let Some(jitter) = &fleet.jitter {
        net.jitter = parse_duration(jitter)?;
    }
    if let Some(bw) = fleet.bandwidth_mbps {
        if !bw.is_finite() || bw <= 0.0 {
            return Err(format!("fleet bandwidth_mbps `{bw}` must be positive"));
        }
        net.bandwidth_mbps = bw;
    }
    if let Some(kb) = fleet.request_kb {
        if !kb.is_finite() || kb < 0.0 {
            return Err(format!("fleet request_kb `{kb}` must be non-negative"));
        }
        net.request_kb = kb;
    }
    if let Some(kb) = fleet.response_kb {
        if !kb.is_finite() || kb < 0.0 {
            return Err(format!("fleet response_kb `{kb}` must be non-negative"));
        }
        net.response_kb = kb;
    }
    if let Some(rtt) = &fleet.cloud_rtt {
        net.cloud_rtt = parse_duration(rtt)?;
    }
    Ok(net)
}

/// Writes `net` into the `fleet` overlay (the CLI `--network` flag's
/// scenario form), keeping its other fields. The flag defines the
/// *complete* model — unspecified keys mean the model defaults — so the
/// overlay pins all six network fields, overriding any `[fleet]`
/// network settings the base scenario file carries.
pub fn network_overlay(fleet: FleetScenario, net: &NetworkModel) -> FleetScenario {
    FleetScenario {
        base_latency: Some(crate::network::fmt_duration(net.base_latency)),
        jitter: Some(crate::network::fmt_duration(net.jitter)),
        bandwidth_mbps: Some(net.bandwidth_mbps),
        request_kb: Some(net.request_kb),
        response_kb: Some(net.response_kb),
        cloud_rtt: Some(crate::network::fmt_duration(net.cloud_rtt)),
        ..fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_des::SimDuration;

    fn scenario(fleet: Option<FleetScenario>) -> ScenarioSpec {
        let toml = "[[tenants]]\nspec = \"resnet50:int8:1:1\"\n";
        let mut sc: ScenarioSpec = toml.parse().unwrap();
        sc.fleet = fleet;
        sc
    }

    #[test]
    fn absent_table_gets_cli_defaults() {
        let spec = build_fleet_spec(&scenario(None)).unwrap();
        assert_eq!(spec.total_sites(), DEFAULT_SITES as usize);
    }

    #[test]
    fn table_fields_resolve() {
        let fleet = FleetScenario {
            sites: Some(2),
            router: Some("offload".to_string()),
            cloud: Some(true),
            cloud_device: Some("cloud-a40".to_string()),
            base_latency: Some("1ms".to_string()),
            jitter: Some("500us".to_string()),
            bandwidth_mbps: Some(50.0),
            request_kb: Some(64.0),
            response_kb: Some(1.0),
            cloud_rtt: Some("20ms".to_string()),
            telemetry_every: Some("50ms".to_string()),
        };
        let net = build_network(&fleet).unwrap();
        assert_eq!(net.base_latency, SimDuration::from_millis(1));
        assert_eq!(net.jitter, SimDuration::from_micros(500));
        assert_eq!(net.bandwidth_mbps, 50.0);
        assert_eq!(net.cloud_rtt, SimDuration::from_millis(20));
        let spec = build_fleet_spec(&scenario(Some(fleet))).unwrap();
        assert_eq!(spec.total_sites(), 3, "2 edges + cloud");
    }

    #[test]
    fn bad_fields_are_named() {
        let fleet = FleetScenario {
            bandwidth_mbps: Some(0.0),
            ..FleetScenario::default()
        };
        assert!(build_network(&fleet).unwrap_err().contains("bandwidth"));
        let mut sc = scenario(Some(FleetScenario::default()));
        sc.fleet.as_mut().unwrap().sites = Some(0);
        assert!(build_fleet_spec(&sc).unwrap_err().contains("sites"));
        sc.fleet.as_mut().unwrap().sites = Some(1);
        sc.fleet.as_mut().unwrap().router = Some("chaos".to_string());
        assert!(build_fleet_spec(&sc).unwrap_err().contains("router"));
    }

    #[test]
    fn network_overlay_round_trips() {
        let sited = FleetScenario {
            sites: Some(3),
            ..FleetScenario::default()
        };
        let overlay = network_overlay(sited, &NetworkModel::default());
        assert_eq!(build_network(&overlay).unwrap(), NetworkModel::default());
        assert_eq!(overlay.sites, Some(3), "non-network fields are kept");
        let custom = NetworkModel {
            base_latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_micros(250),
            bandwidth_mbps: 10.0,
            request_kb: 32.0,
            response_kb: 8.0,
            cloud_rtt: SimDuration::from_millis(80),
        };
        let overlay = network_overlay(FleetScenario::default(), &custom);
        assert_eq!(build_network(&overlay).unwrap(), custom);
    }
}
