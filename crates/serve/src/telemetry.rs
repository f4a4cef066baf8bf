//! Telemetry hooks for fleet-scale orchestration: static capacity
//! estimates.
//!
//! A fleet router placing requests across many device sims needs a
//! prior on how fast each site drains work *without* running it first:
//! [`estimate_capacity`] derives one from the same engine latency
//! estimates the DES itself integrates.

use crate::spec::{ServeError, ServeSpec};

/// A static service-capacity estimate for one served tenant, derived
/// from its engine's analytic latency model at the device's top clock.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCapacity {
    /// The tenant's group label.
    pub label: String,
    /// Provisioned replicas (the tenant's instance count).
    pub replicas: u32,
    /// The engine's built batch size.
    pub max_batch: u32,
    /// Estimated seconds to execute one full batch on one replica at
    /// the top clock, ignoring contention.
    pub est_batch_secs: f64,
    /// Estimated aggregate service rate in requests per second:
    /// `replicas × max_batch / est_batch_secs`.
    pub est_rate: f64,
}

/// Estimates every tenant's service capacity for `spec` without running
/// a simulation.
///
/// Engines come from the process-wide engine cache, so calling this
/// before [`ServeSpec::build_config`] costs one build per distinct
/// `(model, precision, batch)` and nothing after. The estimate is the
/// uncontended upper bound the autoscaler and GPU scheduler erode — a
/// router prior, not a promise.
///
/// # Errors
///
/// [`ServeError::NoTenants`] for an empty spec, or
/// [`ServeError::Deployment`] naming the failing tenant.
pub fn estimate_capacity(spec: &ServeSpec) -> Result<Vec<GroupCapacity>, ServeError> {
    if spec.tenants().is_empty() {
        return Err(ServeError::NoTenants);
    }
    let platform = spec.platform();
    let gpu = &platform.device().gpu;
    let top = gpu.freq.top();
    spec.tenants()
        .iter()
        .map(|st| {
            let t = &st.tenant;
            let engine = t.build_engine(platform)?;
            let est_batch_secs = engine.ideal_ec_time(gpu, top).as_secs_f64();
            let est_rate = if est_batch_secs > 0.0 {
                f64::from(t.instances()) * f64::from(engine.batch()) / est_batch_secs
            } else {
                0.0
            };
            Ok(GroupCapacity {
                label: t.label(),
                replicas: t.instances(),
                max_batch: engine.batch(),
                est_batch_secs,
                est_rate,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim::platform::Platform;
    use jetsim_des::ArrivalProcess;

    use crate::spec::ServeTenant;

    #[test]
    fn capacity_estimate_scales_with_replicas_and_batch() {
        let spec = ServeSpec::new(Platform::orin_nano())
            .tenant(ServeTenant::parse("resnet50:int8:1:1", ArrivalProcess::poisson(50.0)).unwrap())
            .tenant(ServeTenant::parse("resnet50:int8:1:2", ArrivalProcess::poisson(50.0)).unwrap())
            .tenant(
                ServeTenant::parse("resnet50:int8:4:1", ArrivalProcess::poisson(50.0)).unwrap(),
            );
        let caps = estimate_capacity(&spec).unwrap();
        assert_eq!(caps.len(), 3);
        assert!(caps.iter().all(|c| c.est_rate > 0.0));
        // Two replicas drain twice as fast as one.
        assert!((caps[1].est_rate - 2.0 * caps[0].est_rate).abs() < 1e-9);
        // Batch 4 serves more requests per second than batch 1 (batching
        // amortises per-kernel overhead) but takes longer per batch.
        assert!(caps[2].est_rate > caps[0].est_rate);
        assert!(caps[2].est_batch_secs > caps[0].est_batch_secs);
    }

    #[test]
    fn empty_spec_has_no_capacity() {
        let err = estimate_capacity(&ServeSpec::new(Platform::orin_nano())).unwrap_err();
        assert!(matches!(err, ServeError::NoTenants));
    }
}
