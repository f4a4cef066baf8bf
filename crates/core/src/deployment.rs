//! First-class heterogeneous deployments: an ordered list of tenants
//! (model × precision × batch × count) sharing one device.
//!
//! The paper studies homogeneous concurrency — N identical `trtexec`
//! instances — but real edge boxes mix tenants: a detector, a classifier
//! and a segmenter time-sharing one Jetson. [`Deployment`] makes that
//! mix a value the whole profiling stack consumes: the
//! [`crate::DualPhaseProfiler`], the sweep supervisor
//! ([`crate::SweepSpec::run_deployment_supervised`]) and the
//! `jetsim-trtexec --tenant` flag all take the same type, and per-tenant
//! metrics ([`TenantMetrics`]) break aggregate throughput back down.
//!
//! Homogeneous calls are the trivial one-tenant case
//! ([`Deployment::homogeneous`]), so nothing downstream needs two code
//! paths.

use std::fmt;
use std::sync::Arc;

use serde::Serialize;

use jetsim_dnn::{zoo, ModelGraph, Precision};
use jetsim_sim::{ArrivalModel, ProcessConfig, RunTrace, SimConfig, SimConfigBuilder};
use jetsim_trt::{BuildError, Engine};

use crate::platform::Platform;

/// One tenant of a deployment: `count` concurrent processes running one
/// model at one precision and batch size.
///
/// The model graph sits behind an [`Arc`], so cloning a tenant (or a
/// [`Deployment`], a serving spec or a fleet site) shares one graph and
/// its stored fingerprint ([`ModelGraph::fingerprint`]) instead of
/// copying every layer.
///
/// # Examples
///
/// ```
/// use jetsim::deployment::Tenant;
/// use jetsim_dnn::{zoo, Precision};
///
/// let tenant = Tenant::new(zoo::resnet50(), Precision::Int8, 1).count(2);
/// assert_eq!(tenant.label(), "resnet50:int8:b1");
/// assert_eq!(tenant.instances(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Tenant {
    model: Arc<ModelGraph>,
    precision: Precision,
    batch: u32,
    count: u32,
    priority: u8,
    sm_share: f64,
}

impl Tenant {
    /// One process of `model` (a graph, or one already shared behind an
    /// [`Arc`]) at the given precision and batch size.
    pub fn new(model: impl Into<Arc<ModelGraph>>, precision: Precision, batch: u32) -> Self {
        Tenant {
            model: model.into(),
            precision,
            batch: batch.max(1),
            count: 1,
            priority: 0,
            sm_share: 1.0,
        }
    }

    /// Sets how many concurrent processes this tenant runs (≥ 1).
    pub fn count(mut self, count: u32) -> Self {
        self.count = count.max(1);
        self
    }

    /// Sets the tenant's GPU scheduling priority (higher wins under the
    /// `priority` GPU policy; every other policy ignores it). Default 0.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the tenant's fractional SM share (weight under the `mps` GPU
    /// policy; every other policy ignores it). Default 1.0.
    pub fn sm_share(mut self, share: f64) -> Self {
        self.sm_share = share;
        self
    }

    /// The tenant's GPU scheduling priority.
    pub fn gpu_priority(&self) -> u8 {
        self.priority
    }

    /// The tenant's fractional SM share.
    pub fn gpu_sm_share(&self) -> f64 {
        self.sm_share
    }

    /// The tenant's model graph, shared by its clones.
    pub fn model(&self) -> &Arc<ModelGraph> {
        &self.model
    }

    /// The tenant's inference precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The tenant's batch size per execution context.
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// How many concurrent processes the tenant runs.
    pub fn instances(&self) -> u32 {
        self.count
    }

    /// Canonical label, `model:precision:bBATCH` — used to name the
    /// tenant's processes and to key report rows.
    pub fn label(&self) -> String {
        format!("{}:{}:b{}", self.model.name(), self.precision, self.batch)
    }

    /// Builds the tenant's engine on `platform`, served from the
    /// process-wide engine cache ([`Platform::build_engine`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError::Build`] naming the tenant.
    pub fn build_engine(&self, platform: &Platform) -> Result<Arc<Engine>, DeploymentError> {
        platform
            .build_engine(&self.model, self.precision, self.batch)
            .map_err(|source| DeploymentError::Build {
                label: self.label(),
                source,
            })
    }

    /// Adds the tenant's processes to `builder`: one per instance, each
    /// running `engine` in a memory group of its own, fed by
    /// `arrivals`, named `label/i` so traces and reports carry tenant
    /// identity, and carrying the tenant's GPU priority and SM share.
    /// Every way of running tenants — the profiler, `jetsim-trtexec`,
    /// sweep cells, serving specs and the study binaries — turns them
    /// into processes here.
    pub fn add_processes(
        &self,
        mut builder: SimConfigBuilder,
        engine: &Arc<Engine>,
        arrivals: ArrivalModel,
    ) -> SimConfigBuilder {
        let label = self.label();
        for instance in 0..self.count {
            let pid = builder.process_count();
            builder = builder.add_process(ProcessConfig {
                arrivals,
                priority: self.priority,
                sm_share: self.sm_share,
                ..ProcessConfig::new(format!("{label}/{instance}"), Arc::clone(engine), pid)
            });
        }
        builder
    }

    /// Parses a `--tenant` spec in either grammar the CLIs accept:
    ///
    /// * positional — `model:precision:batch[:count[:priority]]`;
    /// * key=value — comma-separated `key=value` fields, where `model`,
    ///   `precision` and `batch` are required and `count`, `priority`
    ///   and `sm_share` are optional. `sm_share` (the weight under
    ///   `--gpu-policy=mps`) has no positional slot, so the key=value
    ///   form is the only way to set it from a spec string.
    ///
    /// The model must be a zoo name. Errors name the offending field.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetsim::deployment::Tenant;
    ///
    /// let t = Tenant::parse("yolov8n:fp16:4:2").unwrap();
    /// assert_eq!(t.label(), "yolov8n:fp16:b4");
    /// assert_eq!(t.instances(), 2);
    /// let t = Tenant::parse("resnet50:int8:1:1:5").unwrap();
    /// assert_eq!(t.gpu_priority(), 5);
    /// let t = Tenant::parse("model=resnet50,precision=int8,batch=4,count=2,sm_share=0.5")
    ///     .unwrap();
    /// assert_eq!(t.batch(), 4);
    /// assert_eq!(t.gpu_sm_share(), 0.5);
    /// assert!(Tenant::parse("nonesuch:fp16:1").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] for unknown models, unknown
    /// precisions, unknown keys, or malformed field values.
    pub fn parse(spec: &str) -> Result<Tenant, DeploymentError> {
        if spec.contains('=') {
            return Self::parse_kv(spec);
        }
        let parts: Vec<&str> = spec.split(':').collect();
        if !(3..=5).contains(&parts.len()) {
            return Err(DeploymentError::BadSpec {
                spec: spec.to_string(),
                reason: format!("{} field(s)", parts.len()),
            });
        }
        let model = zoo::by_name(parts[0]).ok_or_else(|| DeploymentError::BadSpec {
            spec: spec.to_string(),
            reason: format!("unknown model `{}`", parts[0]),
        })?;
        let precision: Precision = parts[1].parse().map_err(|e| DeploymentError::BadSpec {
            spec: spec.to_string(),
            reason: format!("{e}"),
        })?;
        let batch: u32 =
            parts[2]
                .trim_start_matches('b')
                .parse()
                .map_err(|e| DeploymentError::BadSpec {
                    spec: spec.to_string(),
                    reason: format!("bad batch: {e}"),
                })?;
        let count: u32 = match parts.get(3) {
            Some(c) => c.parse().map_err(|e| DeploymentError::BadSpec {
                spec: spec.to_string(),
                reason: format!("bad count: {e}"),
            })?,
            None => 1,
        };
        let priority: u8 = match parts.get(4) {
            Some(p) => p.parse().map_err(|e| DeploymentError::BadSpec {
                spec: spec.to_string(),
                reason: format!("bad priority: {e}"),
            })?,
            None => 0,
        };
        Ok(Tenant::new(model, precision, batch)
            .count(count)
            .priority(priority))
    }

    /// The comma-separated key=value arm of [`Tenant::parse`].
    fn parse_kv(spec: &str) -> Result<Tenant, DeploymentError> {
        let bad = |reason: String| DeploymentError::BadSpec {
            spec: spec.to_string(),
            reason,
        };
        let mut model = None;
        let mut precision: Option<Precision> = None;
        let mut batch: Option<u32> = None;
        let mut count = 1u32;
        let mut priority = 0u8;
        let mut sm_share = 1.0f64;
        for field in spec.split(',') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("field `{field}` is not key=value")))?;
            let value = value.trim();
            match key.trim() {
                "model" => {
                    model = Some(
                        zoo::by_name(value)
                            .ok_or_else(|| bad(format!("model: unknown model `{value}`")))?,
                    );
                }
                "precision" => {
                    precision = Some(value.parse().map_err(|e| bad(format!("precision: {e}")))?);
                }
                "batch" => {
                    batch = Some(
                        value
                            .trim_start_matches('b')
                            .parse()
                            .map_err(|e| bad(format!("batch: {e}")))?,
                    );
                }
                "count" => count = value.parse().map_err(|e| bad(format!("count: {e}")))?,
                "priority" => {
                    priority = value.parse().map_err(|e| bad(format!("priority: {e}")))?
                }
                "sm_share" => {
                    sm_share = value.parse().map_err(|e| bad(format!("sm_share: {e}")))?;
                    if !(sm_share > 0.0 && sm_share <= 1.0) {
                        return Err(bad(format!("sm_share: `{value}` not in (0, 1]")));
                    }
                }
                other => return Err(bad(format!("unknown field `{other}`"))),
            }
        }
        let model = model.ok_or_else(|| bad("missing field `model`".to_string()))?;
        let precision = precision.ok_or_else(|| bad("missing field `precision`".to_string()))?;
        let batch = batch.ok_or_else(|| bad("missing field `batch`".to_string()))?;
        Ok(Tenant::new(model, precision, batch)
            .count(count)
            .priority(priority)
            .sm_share(sm_share))
    }

    /// The canonical spec string [`Tenant::parse`] round-trips: the
    /// shortest positional form when the SM share is the default, the
    /// key=value form otherwise (sm_share has no positional slot).
    pub fn to_spec(&self) -> String {
        if self.sm_share == 1.0 {
            let mut s = format!("{}:{}:{}", self.model.name(), self.precision, self.batch);
            if self.priority != 0 {
                s.push_str(&format!(":{}:{}", self.count, self.priority));
            } else if self.count != 1 {
                s.push_str(&format!(":{}", self.count));
            }
            s
        } else {
            format!(
                "model={},precision={},batch={},count={},priority={},sm_share={}",
                self.model.name(),
                self.precision,
                self.batch,
                self.count,
                self.priority,
                self.sm_share
            )
        }
    }
}

impl fmt::Display for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

impl std::str::FromStr for Tenant {
    type Err = DeploymentError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Tenant::parse(s)
    }
}

/// Errors from assembling or parsing a deployment.
#[derive(Debug)]
pub enum DeploymentError {
    /// A tenant spec string did not parse.
    BadSpec {
        /// The offending spec.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Engine building failed for one tenant.
    Build {
        /// The tenant whose engine failed to build.
        label: String,
        /// The underlying build error.
        source: BuildError,
    },
}

impl fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentError::BadSpec { spec, reason } => {
                write!(
                    f,
                    "bad tenant spec `{spec}`: {reason} \
                     (expected model:precision:batch[:count[:priority]], e.g. resnet50:int8:1:2, \
                     or key=value fields, e.g. model=resnet50,precision=int8,batch=4,sm_share=0.5)"
                )
            }
            DeploymentError::Build { label, source } => {
                write!(f, "tenant {label}: engine build failed: {source}")
            }
        }
    }
}

impl std::error::Error for DeploymentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeploymentError::BadSpec { .. } => None,
            DeploymentError::Build { source, .. } => Some(source),
        }
    }
}

/// An ordered list of [`Tenant`]s sharing one device — the unit the
/// profiler, sweeps and CLI all consume.
///
/// # Examples
///
/// A mixed detector + classifier box:
///
/// ```
/// use jetsim::deployment::{Deployment, Tenant};
/// use jetsim_dnn::{zoo, Precision};
///
/// let deployment = Deployment::new()
///     .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1).count(2))
///     .tenant(Tenant::new(zoo::yolov8n(), Precision::Fp16, 4));
/// assert_eq!(deployment.total_processes(), 3);
/// assert_eq!(
///     deployment.label(),
///     "resnet50:int8:b1x2+yolov8n:fp16:b4"
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    tenants: Vec<Tenant>,
}

impl Deployment {
    /// An empty deployment to extend with [`Deployment::tenant`].
    pub fn new() -> Self {
        Deployment::default()
    }

    /// Appends a tenant (order is preserved and determines process ids).
    pub fn tenant(mut self, tenant: Tenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// The homogeneous case the paper measures: `count` identical
    /// processes of one model — a single-tenant deployment.
    pub fn homogeneous(model: &ModelGraph, precision: Precision, batch: u32, count: u32) -> Self {
        Deployment::new().tenant(Tenant::new(model.clone(), precision, batch).count(count))
    }

    /// The tenants, in deployment order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// `true` when no tenants have been added.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Number of tenants (not processes).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Total concurrent processes across all tenants.
    pub fn total_processes(&self) -> u32 {
        self.tenants.iter().map(Tenant::instances).sum()
    }

    /// Canonical label: tenant labels joined with `+`, each suffixed
    /// `xN` when it runs more than one instance.
    pub fn label(&self) -> String {
        self.tenants
            .iter()
            .map(|t| {
                if t.instances() > 1 {
                    format!("{}x{}", t.label(), t.instances())
                } else {
                    t.label()
                }
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Maps each process index (in the order processes are added to a
    /// [`SimConfigBuilder`]) to its tenant index.
    pub fn tenant_of_process(&self) -> Vec<usize> {
        let mut map = Vec::with_capacity(self.total_processes() as usize);
        for (index, tenant) in self.tenants.iter().enumerate() {
            for _ in 0..tenant.instances() {
                map.push(index);
            }
        }
        map
    }

    /// A config builder for `platform`'s device holding the
    /// deployment's processes, in tenant order: each tenant's engine is
    /// built on `platform` ([`Tenant::build_engine`]) and its instances
    /// are fed by `arrivals` ([`Tenant::add_processes`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError::Build`] naming the failing tenant.
    pub fn config_builder(
        &self,
        platform: &Platform,
        arrivals: ArrivalModel,
    ) -> Result<SimConfigBuilder, DeploymentError> {
        let mut builder = SimConfig::builder(platform.device().clone());
        for tenant in &self.tenants {
            let engine = tenant.build_engine(platform)?;
            builder = tenant.add_processes(builder, &engine, arrivals);
        }
        Ok(builder)
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Per-tenant breakdown of a run — aggregate throughput and latency of
/// the processes belonging to one tenant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantMetrics {
    /// The tenant's canonical label (`model:precision:bBATCH`).
    pub label: String,
    /// Processes the tenant ran.
    pub processes: u32,
    /// Aggregate tenant throughput, images/s.
    pub throughput: f64,
    /// Mean per-process throughput within the tenant.
    pub throughput_per_process: f64,
    /// Mean EC wall time across the tenant's processes, ms.
    pub mean_ec_ms: f64,
    /// Worst 99th-percentile EC wall time across the tenant's
    /// processes, ms — the tenant's tail latency under contention.
    pub p99_ec_ms: f64,
    /// Processes of this tenant the simulated OOM killer terminated.
    pub killed: u32,
}

impl TenantMetrics {
    /// Breaks a trace down per tenant. Process `i` of the trace belongs
    /// to `deployment.tenant_of_process()[i]`; processes beyond the
    /// mapping (not part of the deployment) are ignored.
    pub fn from_trace(trace: &RunTrace, deployment: &Deployment) -> Vec<TenantMetrics> {
        let owner = deployment.tenant_of_process();
        let mut out: Vec<TenantMetrics> = deployment
            .tenants()
            .iter()
            .map(|t| TenantMetrics {
                label: t.label(),
                processes: 0,
                throughput: 0.0,
                throughput_per_process: 0.0,
                mean_ec_ms: 0.0,
                p99_ec_ms: 0.0,
                killed: 0,
            })
            .collect();
        for (pid, stats) in trace.processes.iter().enumerate() {
            let Some(&tenant) = owner.get(pid) else {
                continue;
            };
            let m = &mut out[tenant];
            m.processes += 1;
            m.throughput += stats.throughput;
            m.mean_ec_ms += stats.mean_ec_time.as_millis_f64();
            m.p99_ec_ms = m.p99_ec_ms.max(stats.p99_ec_time.as_millis_f64());
            if stats.killed_at.is_some() {
                m.killed += 1;
            }
        }
        for m in &mut out {
            if m.processes > 0 {
                m.throughput_per_process = m.throughput / f64::from(m.processes);
                m.mean_ec_ms /= f64::from(m.processes);
            }
        }
        out
    }
}

impl fmt::Display for TenantMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ×{}: {:.1} img/s (T/P {:.1}), EC {:.2} ms mean / {:.2} ms p99",
            self.label,
            self.processes,
            self.throughput,
            self.throughput_per_process,
            self.mean_ec_ms,
            self.p99_ec_ms,
        )?;
        if self.killed > 0 {
            write!(f, " [{} killed]", self.killed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_des::SimDuration;
    use jetsim_sim::Simulation;

    fn mixed() -> Deployment {
        Deployment::new()
            .tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 1).count(2))
            .tenant(Tenant::new(zoo::yolov8n(), Precision::Fp16, 4))
    }

    #[test]
    fn labels_and_counts() {
        let d = mixed();
        assert_eq!(d.len(), 2);
        assert_eq!(d.total_processes(), 3);
        assert_eq!(d.label(), "resnet50:int8:b1x2+yolov8n:fp16:b4");
        assert_eq!(d.tenant_of_process(), vec![0, 0, 1]);
        assert_eq!(format!("{d}"), d.label());
    }

    #[test]
    fn homogeneous_is_one_tenant() {
        let d = Deployment::homogeneous(&zoo::resnet50(), Precision::Fp16, 2, 4);
        assert_eq!(d.len(), 1);
        assert_eq!(d.total_processes(), 4);
        assert_eq!(d.tenants()[0].batch(), 2);
        assert!(!d.is_empty());
        assert!(Deployment::new().is_empty());
    }

    #[test]
    fn parse_round_trips() {
        let t = Tenant::parse("resnet50:int8:1").unwrap();
        assert_eq!(t.label(), "resnet50:int8:b1");
        assert_eq!(t.instances(), 1);
        let t = Tenant::parse("fcn_resnet50:fp16:b2:3").unwrap();
        assert_eq!(t.batch(), 2);
        assert_eq!(t.instances(), 3);
        assert_eq!(t.gpu_priority(), 0, "priority defaults to 0");
        let t = Tenant::parse("resnet50:int8:1:2:7").unwrap();
        assert_eq!(t.instances(), 2);
        assert_eq!(t.gpu_priority(), 7);
        assert_eq!(t.gpu_sm_share(), 1.0);
    }

    #[test]
    fn parse_key_value_grammar() {
        let t = Tenant::parse("model=resnet50,precision=int8,batch=4").unwrap();
        assert_eq!(t.label(), "resnet50:int8:b4");
        assert_eq!(
            (t.instances(), t.gpu_priority(), t.gpu_sm_share()),
            (1, 0, 1.0)
        );
        let t = Tenant::parse(
            "model=yolov8n, precision=fp16, batch=b2, count=3, priority=5, sm_share=0.25",
        )
        .unwrap();
        assert_eq!(t.label(), "yolov8n:fp16:b2");
        assert_eq!(
            (t.instances(), t.gpu_priority(), t.gpu_sm_share()),
            (3, 5, 0.25)
        );
    }

    #[test]
    fn parse_key_value_names_the_offending_field() {
        for (bad, field) in [
            ("model=resnet50,precision=int8", "missing field `batch`"),
            ("precision=int8,batch=1", "missing field `model`"),
            ("model=resnet50,batch=1", "missing field `precision`"),
            (
                "model=nonesuch,precision=int8,batch=1",
                "unknown model `nonesuch`",
            ),
            (
                "model=resnet50,precision=int8,batch=1,sm_share=1.5",
                "sm_share",
            ),
            (
                "model=resnet50,precision=int8,batch=1,sm_share=0",
                "sm_share",
            ),
            (
                "model=resnet50,precision=int8,batch=1,gpu=2",
                "unknown field `gpu`",
            ),
            (
                "model=resnet50,precision=int8,batch=1,count",
                "not key=value",
            ),
            ("model=resnet50,precision=int9,batch=1", "precision"),
        ] {
            let err = Tenant::parse(bad).unwrap_err();
            assert!(
                err.to_string().contains(field),
                "`{bad}` should name `{field}`: {err}"
            );
        }
    }

    #[test]
    fn to_spec_round_trips_both_grammars() {
        for spec in [
            "resnet50:int8:1",
            "yolov8n:fp16:4:2",
            "resnet50:int8:1:2:7",
            "model=resnet50,precision=int8,batch=4,count=2,priority=1,sm_share=0.5",
        ] {
            let t = Tenant::parse(spec).unwrap();
            let back: Tenant = t.to_spec().parse().unwrap();
            assert_eq!(t.label(), back.label(), "{spec}");
            assert_eq!(t.instances(), back.instances(), "{spec}");
            assert_eq!(t.gpu_priority(), back.gpu_priority(), "{spec}");
            assert_eq!(t.gpu_sm_share(), back.gpu_sm_share(), "{spec}");
            assert_eq!(format!("{t}"), t.to_spec());
        }
        // Canonical form stays positional while sm_share is default.
        assert_eq!(
            Tenant::parse("resnet50:int8:1:2").unwrap().to_spec(),
            "resnet50:int8:1:2"
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "resnet50",
            "resnet50:int8",
            "nonesuch:int8:1",
            "resnet50:int9:1",
            "resnet50:int8:zero",
            "resnet50:int8:1:many",
            "resnet50:int8:1:2:high",
            "resnet50:int8:1:2:3:4",
        ] {
            let err = Tenant::parse(bad).unwrap_err();
            assert!(
                matches!(err, DeploymentError::BadSpec { .. }),
                "{bad}: {err}"
            );
            let message = err.to_string();
            assert!(message.contains("bad tenant spec"), "{message}");
            assert!(
                message.contains(&format!("`{bad}`")),
                "names the offending spec: {message}"
            );
            assert!(
                message.contains("model:precision:batch[:count[:priority]]"),
                "teaches the grammar: {message}"
            );
        }
    }

    #[test]
    fn mixed_deployment_runs_with_tenant_identity() {
        let platform = Platform::orin_nano();
        let d = mixed();
        let config = d
            .config_builder(&platform, ArrivalModel::Saturated)
            .unwrap()
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(500))
            .build()
            .unwrap();
        let names: Vec<&str> = config.processes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "resnet50:int8:b1/0",
                "resnet50:int8:b1/1",
                "yolov8n:fp16:b4/0"
            ]
        );
        let trace = Simulation::new(config).unwrap().run();
        let tenants = TenantMetrics::from_trace(&trace, &d);
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].processes, 2);
        assert_eq!(tenants[1].processes, 1);
        assert!(tenants.iter().all(|t| t.throughput > 0.0), "{tenants:?}");
        let total: f64 = tenants.iter().map(|t| t.throughput).sum();
        assert!((total - trace.total_throughput()).abs() < 1e-9);
        assert!(format!("{}", tenants[0]).contains("img/s"));
    }

    #[test]
    fn build_errors_name_the_tenant() {
        let platform = Platform::orin_nano();
        // Batch 0 is clamped to 1 by Tenant::new, so force an invalid
        // batch through a huge value the builder rejects.
        let d = Deployment::new().tenant(Tenant::new(zoo::resnet50(), Precision::Int8, 100_000));
        let err = d
            .config_builder(&platform, ArrivalModel::Saturated)
            .unwrap_err();
        assert!(matches!(err, DeploymentError::Build { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "tenant resnet50:int8:b100000: engine build failed: \
             batch size 100000 exceeds builder limit 256"
        );
        assert!(std::error::Error::source(&err).is_some());
    }
}
