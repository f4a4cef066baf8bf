//! Declarative scenario files: the whole experiment config as one
//! serde-backed document.
//!
//! A [`ScenarioSpec`] captures everything the `jetsim-trtexec`,
//! `jetsim-serve` and `jetsim-fleet` CLIs take as flags — platform,
//! window, seed, GPU policy, faults, resilience knobs, autoscaling,
//! fleet layout, and the tenant list — as a plain data value with
//! **every field optional**. Missing fields mean "use the default",
//! which makes a scenario simultaneously:
//!
//! * a complete experiment description (`--scenario run.toml`),
//! * an overlay (CLI flags parse into a sparse `ScenarioSpec` that is
//!   [`ScenarioSpec::merge`]d over the file — all three CLIs read their
//!   flags through the one [`ScenarioFlags`] reader), and
//! * a reproducibility artefact (`--dump-scenario` prints the merged
//!   document; re-running it replays the experiment byte for bit).
//!
//! Scenarios round-trip through two encodings: JSON (via the workspace
//! serde stub) and a TOML subset — top-level `key = value` pairs,
//! `[table]` headers and `[[array-of-tables]]` headers, which covers
//! this schema exactly. [`std::fmt::Display`] renders TOML;
//! [`std::str::FromStr`] sniffs the first non-space byte (`{` = JSON).
//!
//! Field values reuse the CLI grammars verbatim — durations are strings
//! like `"50ms"`, arrivals `"poisson:200"` or
//! `"mmpp:CALM:BURST:CALM_MS:BURST_MS"`, tenants either positional
//! `model:precision:batch[:count[:priority]]` or key=value form — so a
//! scenario reads exactly like the command line it replaces.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

use jetsim_des::{ArrivalProcess, SimDuration};
use jetsim_sim::{FaultPlan, GpuPolicy, OomPolicy, DEFAULT_SEED};
use serde::{Deserialize, Serialize, Value};

use crate::platform::Platform;

/// One experiment, fully described: every CLI flag as an optional field.
///
/// `max_delay`, `queue_cap` and `admission` at this level are defaults
/// for tenants that do not set their own. Serving-only fields (SLO,
/// resilience, autoscaling, arrivals) are ignored by `jetsim-trtexec`,
/// which reads only the closed-loop subset: `device`, `seed`,
/// `duration`, `gpu_policy`, `fault_seed` and the tenant `spec` strings.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Platform name (`orin-nano`, `jetson-nano`, `cloud-a40`, or their
    /// short aliases).
    pub device: Option<String>,
    /// RNG seed; identical scenarios and seeds replay bit for bit.
    pub seed: Option<u64>,
    /// Measured duration (duration grammar: `us`/`ms`/`s` suffix or
    /// bare seconds).
    pub duration: Option<String>,
    /// Warmup excluded from reports (duration grammar).
    pub warmup: Option<String>,
    /// Latency SLO (duration grammar).
    pub slo: Option<String>,
    /// GPU scheduling policy (`rr`, `fifo`, `priority[:PENALTY_US]`,
    /// `mps[:OVERLAP]`).
    pub gpu_policy: Option<String>,
    /// Seed for an injected fault plan; present = faults armed.
    pub fault_seed: Option<u64>,
    /// Queueing deadline (duration grammar).
    pub deadline: Option<String>,
    /// Total retry attempts.
    pub retry: Option<u32>,
    /// Hedge trigger: `"auto"` or a duration.
    pub hedge: Option<String>,
    /// Circuit-breaker mode: `"shed"` or `"brownout"`.
    pub breaker: Option<String>,
    /// Max replica restarts after an OOM kill.
    pub recovery: Option<u32>,
    /// Default batching deadline for tenants without their own
    /// (duration grammar).
    pub max_delay: Option<String>,
    /// Default admission-queue capacity.
    pub queue_cap: Option<u64>,
    /// Default admission policy: `reject`, `shed` or `degrade`.
    pub admission: Option<String>,
    /// Spec-wide autoscaler, applied to tenants without their own.
    pub autoscale: Option<AutoscaleScenario>,
    /// Fleet layer: replicate this scenario across N sites behind a
    /// network model and a router (read by `jetsim-fleet`; the
    /// single-device CLIs ignore it).
    pub fleet: Option<FleetScenario>,
    /// The tenants. An overlay with tenants replaces the base list
    /// wholesale (CLI `--tenant` flags redefine the workload).
    pub tenants: Option<Vec<TenantScenario>>,
}

/// One tenant of a scenario.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantScenario {
    /// Tenant spec in either `--tenant` grammar (positional or
    /// key=value). Required when the scenario is resolved.
    pub spec: Option<String>,
    /// Arrival process (`poisson:RATE` or
    /// `mmpp:CALM:BURST:CALM_MS:BURST_MS`); serving CLIs default to
    /// `poisson:100`.
    pub arrival: Option<String>,
    /// Batching deadline override (duration grammar).
    pub max_delay: Option<String>,
    /// Admission-queue capacity override.
    pub queue_cap: Option<u64>,
    /// Admission policy override.
    pub admission: Option<String>,
    /// Per-tenant autoscaler (overrides the spec-wide one).
    pub autoscale: Option<AutoscaleScenario>,
}

/// Autoscaling knobs of a scenario (see the serve crate's
/// `AutoscaleSpec` for semantics and defaults).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AutoscaleScenario {
    /// Replica floor (0 = scale to zero). Defaults to 1.
    pub min_replicas: Option<u32>,
    /// Replica ceiling; defaults to the tenant's instance count.
    pub max_replicas: Option<u32>,
    /// Queued requests per up replica that trigger a scale-up.
    pub target_queue: Option<f64>,
    /// Idle time before a replica above the floor is reaped (duration
    /// grammar).
    pub keep_alive: Option<String>,
    /// Autoscaler evaluation interval (duration grammar).
    pub evaluate_every: Option<String>,
    /// Enable the SLO-burn scale-up criterion.
    pub slo_burn: Option<bool>,
    /// Replica start cost: `"auto"` (the engine's plan-load time) or a
    /// fixed duration.
    pub start_cost: Option<String>,
}

/// Fleet knobs of a scenario (see the fleet crate's `FleetSpec` for
/// semantics and defaults): how many sites replicate the scenario, the
/// routing policy, and the network model between users and sites.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Number of edge sites, each running this scenario's deployment.
    /// Defaults to 1.
    pub sites: Option<u32>,
    /// Routing policy: `rr`, `least_queue`, `locality` or `offload`.
    /// Defaults to `rr`.
    pub router: Option<String>,
    /// Add a cloud tier behind its own RTT that the `offload` router
    /// escalates to. Defaults to false.
    pub cloud: Option<bool>,
    /// Platform name for the cloud tier (defaults to `cloud-a40`).
    pub cloud_device: Option<String>,
    /// Base one-way network latency per edge link (duration grammar).
    pub base_latency: Option<String>,
    /// Uniform ± jitter bound on each transfer (duration grammar).
    pub jitter: Option<String>,
    /// Link bandwidth in Mbit/s (payload transfer cost).
    pub bandwidth_mbps: Option<f64>,
    /// Request payload in KiB (uplink transfer cost).
    pub request_kb: Option<f64>,
    /// Response payload in KiB (downlink transfer cost).
    pub response_kb: Option<f64>,
    /// Extra one-way RTT-derived latency to the cloud tier (duration
    /// grammar).
    pub cloud_rtt: Option<String>,
    /// Telemetry snapshot period for load-aware routing (duration
    /// grammar) — staler snapshots mean blinder routers.
    pub telemetry_every: Option<String>,
}

macro_rules! merge_fields {
    ($base:expr, $overlay:expr; $($field:ident),+ $(,)?) => {{
        Self {
            $($field: $overlay.$field.clone().or_else(|| $base.$field.clone()),)+
        }
    }};
}

impl ScenarioSpec {
    /// Layers `overlay` over `self`: any field the overlay sets wins,
    /// anything it leaves `None` falls through to `self`. The tenant
    /// list and the autoscale and fleet tables are replaced wholesale
    /// when the overlay provides them (an overlay that names tenants
    /// redefines the workload; it does not splice into the base's
    /// list).
    pub fn merge(&self, overlay: &ScenarioSpec) -> ScenarioSpec {
        merge_fields!(self, overlay;
            device, seed, duration, warmup, slo, gpu_policy, fault_seed,
            deadline, retry, hedge, breaker, recovery, max_delay,
            queue_cap, admission, autoscale, fleet, tenants,
        )
    }

    /// The scenario's platform (`orin-nano` when unset).
    ///
    /// # Errors
    ///
    /// Names an unknown device.
    pub fn platform(&self) -> Result<Platform, String> {
        let device = self.device.as_deref().unwrap_or("orin-nano");
        Platform::by_name(device).ok_or_else(|| format!("unknown device `{device}`"))
    }

    /// The scenario's seed ([`DEFAULT_SEED`] when unset).
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Renders the scenario as the TOML subset [`ScenarioSpec`] parses:
    /// unset fields are omitted, so parsing the output reproduces
    /// `self` exactly.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        write_toml_table(&mut out, &self.to_value(), &[]);
        out
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_toml())
    }
}

impl FromStr for ScenarioSpec {
    type Err = String;

    /// Parses a scenario document: JSON when the first non-space byte
    /// is `{`, the TOML subset otherwise. Every TOML error names a line.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.trim_start().starts_with('{') {
            let value =
                serde_json::from_str::<Value>(s).map_err(|e| format!("scenario JSON: {e}"))?;
            return ScenarioSpec::from_value(&value).map_err(|e| format!("scenario: {e}"));
        }
        ScenarioSpec::from_value(&parse_toml(s)?).map_err(|e| toml_schema_error(s, e))
    }
}

/// The schema error of a TOML document that parses but does not
/// deserialise, named at the first line whose prefix of the document
/// fails: every scenario field is optional and unknown keys are
/// ignored, so that is the line assigning an ill-typed value.
fn toml_schema_error(doc: &str, error: impl fmt::Display) -> String {
    let lines: Vec<&str> = doc.lines().collect();
    for n in 1..lines.len() {
        if let Ok(Err(e)) = parse_toml(&lines[..n].join("\n")).map(|v| ScenarioSpec::from_value(&v))
        {
            return format!("scenario TOML line {n}: {e}");
        }
    }
    format!("scenario TOML line {}: {error}", lines.len())
}

// ---------------------------------------------------------------------
// Shared CLI value grammars
// ---------------------------------------------------------------------

/// Parses the CLI duration grammar: `50ms`, `200us`, `30s`, or a bare
/// number of seconds.
///
/// # Errors
///
/// Returns a message naming the offending literal: malformed, negative,
/// or 2^64 ns (~584 years) and past, which the simulated clock cannot
/// hold.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (digits, scale) = if let Some(v) = s.strip_suffix("us") {
        (v, 1e-6)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else {
        (s, 1.0)
    };
    let value: f64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{s}` (want e.g. 50ms, 200us, 30s)"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("bad duration `{s}`: must be non-negative"));
    }
    let secs = value * scale;
    // The nanosecond count `from_secs_f64` would round to, which it
    // saturates at `u64::MAX` instead of rejecting.
    if (secs * 1e9).round() >= 2f64.powi(64) {
        return Err(format!(
            "bad duration `{s}`: past the simulated clock's end ({})",
            SimDuration::from_nanos(u64::MAX)
        ));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

/// Parses a run's measured `duration` (duration grammar, `default`
/// when absent) and checks that it still fits the simulated clock after
/// `warmup`, so no layer below overflows adding the two.
///
/// # Errors
///
/// A malformed duration, or a window past the clock's end, named by
/// its duration.
pub fn parse_window(
    warmup: SimDuration,
    duration: Option<&str>,
    default: SimDuration,
) -> Result<SimDuration, String> {
    let measured = duration.map_or(Ok(default), parse_duration)?;
    if warmup.as_nanos().checked_add(measured.as_nanos()).is_none() {
        let named = duration.map_or_else(|| default.to_string(), str::to_string);
        return Err(format!(
            "duration `{named}` after warmup {warmup} runs past the simulated clock's end \
             ({})",
            SimDuration::from_nanos(u64::MAX)
        ));
    }
    Ok(measured)
}

/// Parses the CLI arrival grammar: `poisson:RATE` or
/// `mmpp:CALM:BURST:CALM_MS:BURST_MS`.
///
/// # Errors
///
/// Returns a message naming the offending field.
pub fn parse_arrival(s: &str) -> Result<ArrivalProcess, String> {
    let grammar = "want poisson:RATE or mmpp:CALM:BURST:CALM_MS:BURST_MS";
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("bad arrival `{s}`: {grammar}"))?;
    let rate = |v: &str, what: &str| -> Result<f64, String> {
        let r: f64 = v
            .parse()
            .map_err(|_| format!("bad arrival `{s}`: {what} is not a number"))?;
        if !r.is_finite() || r <= 0.0 {
            return Err(format!("bad arrival `{s}`: {what} must be positive"));
        }
        Ok(r)
    };
    match kind {
        "poisson" => Ok(ArrivalProcess::poisson(rate(rest, "rate")?)),
        "mmpp" => {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 4 {
                return Err(format!("bad arrival `{s}`: {grammar}"));
            }
            Ok(ArrivalProcess::mmpp(
                rate(parts[0], "calm rate")?,
                rate(parts[1], "burst rate")?,
                SimDuration::from_secs_f64(rate(parts[2], "calm dwell (ms)")? * 1e-3),
                SimDuration::from_secs_f64(rate(parts[3], "burst dwell (ms)")? * 1e-3),
            ))
        }
        other => Err(format!(
            "bad arrival `{s}`: unknown process `{other}`; {grammar}"
        )),
    }
}

/// The fault plan `--faults[=SEED]` arms on every CLI: two seeded
/// memory spikes and one throttle lock over `horizon`, with the OOM
/// killer taking the largest process instead of failing the run.
pub fn cli_fault_plan(seed: u64, horizon: SimDuration) -> FaultPlan {
    FaultPlan::seeded(seed, horizon, 2, 1).oom_policy(OomPolicy::KillLargest)
}

/// The one reader of the scenario-shaped CLI flags: it owns the
/// `--scenario` path, the sparse overlay the flags parse into, and the
/// `--tenant`/`--arrival` bookkeeping, and [`ScenarioFlags::merged`]
/// layers the overlay over the file the same way for every binary.
///
/// [`ScenarioFlags::accept`] parses the flags `jetsim-serve` and
/// `jetsim-fleet` share; `jetsim-trtexec` routes its scenario-shaped
/// subset to it. CLI-specific flags write their fields into
/// [`ScenarioFlags::overlay`] directly.
///
/// # Examples
///
/// ```
/// use jetsim::scenario::{FlagCursor, ScenarioFlags};
///
/// let argv = ["--tenant", "resnet50:int8:1:2", "--arrival", "poisson:200", "--seed=7"];
/// let mut cursor = FlagCursor::new(argv.map(String::from).into_iter());
/// let mut flags = ScenarioFlags::default();
/// while let Some((key, mut value)) = cursor.next_flag() {
///     assert!(flags.accept(&key, &mut value, &mut cursor).unwrap());
/// }
/// let scenario = flags.merged().unwrap();
/// assert_eq!(scenario.seed, Some(7));
/// let tenant = &scenario.tenants.unwrap()[0];
/// assert_eq!(tenant.arrival.as_deref(), Some("poisson:200"));
/// ```
#[derive(Debug, Default)]
pub struct ScenarioFlags {
    /// Every config-shaped flag, parsed into a sparse overlay.
    pub overlay: ScenarioSpec,
    /// Path of the base scenario document, when given.
    path: Option<String>,
    /// `--dump-scenario` was given.
    dump: bool,
    /// `--tenant` flags, each with the `--arrival` in force.
    tenants: Vec<TenantScenario>,
    /// The last `--arrival`.
    arrival: Option<String>,
    /// `--faults` armed without a seed: resolve against the *merged*
    /// seed after the scenario file is applied.
    faults_default_seed: bool,
}

impl ScenarioFlags {
    /// Parses `key` when it is one of the shared scenario flags —
    /// `--scenario --dump-scenario --tenant --arrival --slo --duration
    /// --warmup --device --seed` — pulling its operand from `argv`.
    /// Returns `false`, consuming nothing, for any other flag.
    ///
    /// # Errors
    ///
    /// A missing operand or one that breaks its grammar.
    pub fn accept<I: Iterator<Item = String>>(
        &mut self,
        key: &str,
        value: &mut Option<String>,
        argv: &mut FlagCursor<I>,
    ) -> Result<bool, String> {
        match key {
            "--scenario" => self.path = Some(argv.require(value)?),
            "--dump-scenario" => self.dump = true,
            "--tenant" => self.tenants.push(TenantScenario {
                spec: Some(argv.require(value)?),
                arrival: self.arrival.clone(),
                ..TenantScenario::default()
            }),
            "--arrival" => {
                let raw = argv.require(value)?;
                parse_arrival(&raw)?;
                // Retroactively applies when --arrival follows the
                // final --tenant (the natural CLI reading).
                if let Some(t) = self.tenants.last_mut() {
                    t.arrival = Some(raw.clone());
                }
                self.arrival = Some(raw);
            }
            "--slo" => self.overlay.slo = Some(argv.require_duration(value)?),
            "--duration" => self.overlay.duration = Some(argv.require_duration(value)?),
            "--warmup" => self.overlay.warmup = Some(argv.require_duration(value)?),
            "--device" => self.overlay.device = Some(argv.require(value)?),
            "--seed" => {
                self.overlay.seed = Some(
                    argv.require(value)?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses `--faults[=SEED]`: an explicit seed goes into the
    /// overlay; a bare flag arms faults at the merged scenario's seed.
    ///
    /// # Errors
    ///
    /// A seed that is not a `u64`.
    pub fn faults(&mut self, value: Option<String>) -> Result<(), String> {
        match value {
            Some(v) => {
                self.overlay.fault_seed =
                    Some(v.parse().map_err(|e| format!("bad --faults seed: {e}"))?)
            }
            None => self.faults_default_seed = true,
        }
        Ok(())
    }

    /// Parses `--gpu-policy`, keeping the raw spelling in the overlay.
    ///
    /// # Errors
    ///
    /// A policy outside the `GpuPolicy` grammar.
    pub fn gpu_policy(&mut self, raw: String) -> Result<(), String> {
        raw.parse::<GpuPolicy>()
            .map_err(|e| format!("bad --gpu-policy: {e}"))?;
        self.overlay.gpu_policy = Some(raw);
        Ok(())
    }

    /// Whether `--dump-scenario` was given.
    pub fn dump(&self) -> bool {
        self.dump
    }

    /// Whether any `--tenant` flag was given.
    pub fn has_tenant_flags(&self) -> bool {
        !self.tenants.is_empty()
    }

    /// Whether the flags name a workload to run or dump: a scenario
    /// file, `--tenant` flags, or `--dump-scenario`.
    pub fn names_workload(&self) -> bool {
        self.path.is_some() || self.has_tenant_flags() || self.dump
    }

    /// Loads the scenario file (if any) and layers the flag overlay on
    /// top: `--tenant` flags replace the file's tenants, a bare
    /// `--arrival` (no `--tenant` flags) overrides every file tenant's
    /// arrivals, and a seedless `--faults` takes the merged seed.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed scenario file, named by path.
    pub fn merged(self) -> Result<ScenarioSpec, String> {
        let base = match &self.path {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario `{path}`: {e}"))?
                .parse::<ScenarioSpec>()
                .map_err(|e| format!("{path}: {e}"))?,
            None => ScenarioSpec::default(),
        };
        let mut overlay = self.overlay;
        let bare_arrival = if self.tenants.is_empty() {
            self.arrival
        } else {
            overlay.tenants = Some(self.tenants);
            None
        };
        let mut merged = base.merge(&overlay);
        if self.faults_default_seed && merged.fault_seed.is_none() {
            merged.fault_seed = Some(merged.seed_or_default());
        }
        if let Some(arrival) = bare_arrival {
            for tenant in merged.tenants.iter_mut().flatten() {
                tenant.arrival = Some(arrival.clone());
            }
        }
        Ok(merged)
    }
}

/// The `main` of every jetsim CLI: parses argv (program name skipped)
/// and runs the result, writing its output to stdout through `run`'s
/// writer. A parse error — usage text included — prints as-is, a run
/// error prints as `error: …`, and either exits with failure. A reader
/// that closes stdout early (`| head`) ends the run quietly with
/// success; any other write error fails like a run error.
pub fn cli_main<A>(
    parse: impl FnOnce(std::iter::Skip<std::env::Args>) -> Result<A, String>,
    run: impl FnOnce(A, &mut dyn Write) -> Result<(), Box<dyn Error>>,
) -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = io::stdout().lock();
    match run(args, &mut stdout).and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Cursor over CLI argv shared by every jetsim binary: yields flags
/// split on `=` and pulls space-separated operands on demand, so each
/// CLI accepts both `--flag=value` and `--flag value` spellings without
/// re-implementing the machinery.
///
/// # Examples
///
/// ```
/// use jetsim::scenario::FlagCursor;
///
/// let argv = ["--seed=7", "--duration", "2s", "--json"].map(String::from);
/// let mut cursor = FlagCursor::new(argv.into_iter());
/// let (key, mut value) = cursor.next_flag().unwrap();
/// assert_eq!((key.as_str(), value.as_deref()), ("--seed", Some("7")));
/// let (key, mut value) = cursor.next_flag().unwrap();
/// assert_eq!(key, "--duration");
/// assert_eq!(cursor.require(&mut value).unwrap(), "2s");
/// let (key, _) = cursor.next_flag().unwrap();
/// assert_eq!(key, "--json");
/// assert!(cursor.next_flag().is_none());
/// ```
#[derive(Debug)]
pub struct FlagCursor<I: Iterator<Item = String>> {
    argv: std::iter::Peekable<I>,
    key: String,
}

impl<I: Iterator<Item = String>> FlagCursor<I> {
    /// Wraps an argv iterator (typically `std::env::args().skip(1)`).
    pub fn new(argv: I) -> Self {
        FlagCursor {
            argv: argv.peekable(),
            key: String::new(),
        }
    }

    /// The next argument as `(flag, inline value)`: `--flag=value`
    /// splits at the first `=`, anything else carries no inline value.
    /// `None` when argv is exhausted.
    pub fn next_flag(&mut self) -> Option<(String, Option<String>)> {
        let arg = self.argv.next()?;
        let (key, value) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        self.key.clone_from(&key);
        Some((key, value))
    }

    /// The current flag's operand: the inline `=value` when present,
    /// otherwise the next argv token unless it is itself a flag
    /// (`--flag value` spelling).
    ///
    /// # Errors
    ///
    /// Names the flag when no value is available.
    pub fn require(&mut self, value: &mut Option<String>) -> Result<String, String> {
        if value.is_none() {
            if let Some(next) = self.argv.peek() {
                if !next.starts_with("--") {
                    *value = self.argv.next();
                }
            }
        }
        value
            .clone()
            .ok_or_else(|| format!("{} needs a value", self.key))
    }

    /// Like [`FlagCursor::require`], but validates the operand against
    /// the duration grammar eagerly while returning the raw string (so
    /// overlays stay plain scenario documents).
    ///
    /// # Errors
    ///
    /// Missing operand or a malformed duration literal.
    pub fn require_duration(&mut self, value: &mut Option<String>) -> Result<String, String> {
        let raw = self.require(value)?;
        parse_duration(&raw)?;
        Ok(raw)
    }
}

// ---------------------------------------------------------------------
// TOML subset writer
// ---------------------------------------------------------------------

/// Writes a serde `Value::Map` as the TOML subset: scalars first, then
/// `[path.to.table]` sections, then `[[path.to.array]]` sections, each
/// recursing. `Null` entries (unset `Option` fields) are omitted.
fn write_toml_table(out: &mut String, v: &Value, path: &[&str]) {
    let Some(entries) = v.as_map() else {
        return;
    };
    for (key, value) in entries {
        match value {
            Value::Null | Value::Map(_) | Value::Seq(_) => {}
            scalar => {
                out.push_str(key);
                out.push_str(" = ");
                write_toml_scalar(out, scalar);
                out.push('\n');
            }
        }
    }
    for (key, value) in entries {
        let child_path: Vec<&str> = path.iter().copied().chain([key.as_str()]).collect();
        match value {
            Value::Map(_) => {
                out.push_str(&format!("\n[{}]\n", child_path.join(".")));
                write_toml_table(out, value, &child_path);
            }
            Value::Seq(items) => {
                for item in items {
                    out.push_str(&format!("\n[[{}]]\n", child_path.join(".")));
                    write_toml_table(out, item, &child_path);
                }
            }
            _ => {}
        }
    }
}

fn write_toml_scalar(out: &mut String, v: &Value) {
    match v {
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::I64(i) => out.push_str(&i.to_string()),
        // Shortest round-trip float; an integral float renders without
        // a fraction and re-parses as an integer, which the liberal
        // numeric deserialiser coerces back.
        Value::F64(f) => out.push_str(&format!("{f}")),
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Null | Value::Seq(_) | Value::Map(_) => unreachable!("filtered by caller"),
    }
}

// ---------------------------------------------------------------------
// TOML subset parser
// ---------------------------------------------------------------------

/// Parses the TOML subset into a serde `Value::Map`: `key = value`
/// lines, `[table]` and `[[array-of-tables]]` headers (dotted paths
/// descend, through the *last* element of arrays), `#` comments.
fn parse_toml(s: &str) -> Result<Value, String> {
    let mut root: Vec<(String, Value)> = Vec::new();
    let mut path: Vec<String> = Vec::new();
    for (idx, raw) in s.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let at = |m: String| format!("scenario TOML line {}: {m}", idx + 1);
        if let Some(header) = line.strip_prefix("[[").and_then(|h| h.strip_suffix("]]")) {
            let segments = split_header(header).map_err(&at)?;
            table_mut(&mut root, &segments, true).map_err(&at)?;
            path = segments;
        } else if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
            let segments = split_header(header).map_err(&at)?;
            table_mut(&mut root, &segments, false).map_err(&at)?;
            path = segments;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if key.is_empty() {
                return Err(at("missing key before `=`".to_string()));
            }
            let value = parse_toml_scalar(value.trim()).map_err(&at)?;
            let table = table_mut(&mut root, &path, false).map_err(&at)?;
            match table.iter_mut().find(|(k, _)| k == key) {
                Some((_, slot)) => *slot = value,
                None => table.push((key.to_string(), value)),
            }
        } else {
            return Err(at(format!("cannot parse `{line}`")));
        }
    }
    Ok(Value::Map(root))
}

/// Most tables a header may nest: each one is a stack frame in
/// `table_mut`. Scenario headers nest two deep.
const MAX_TABLE_DEPTH: usize = 128;

fn split_header(header: &str) -> Result<Vec<String>, String> {
    let segments: Vec<String> = header.split('.').map(|s| s.trim().to_string()).collect();
    if segments.iter().any(String::is_empty) {
        return Err(format!("empty segment in header `{header}`"));
    }
    if segments.len() > MAX_TABLE_DEPTH {
        return Err(format!(
            "header nests {} tables, more than {MAX_TABLE_DEPTH}",
            segments.len()
        ));
    }
    Ok(segments)
}

/// Drops a `#` comment, respecting (unescaped) string quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds (creating on demand) the table at `path`. With `append`, the
/// final segment is an array of tables and a fresh element is pushed;
/// otherwise intermediate arrays are traversed through their last
/// element (standard TOML sub-table-of-last-element semantics).
fn table_mut<'a>(
    map: &'a mut Vec<(String, Value)>,
    path: &[String],
    append: bool,
) -> Result<&'a mut Vec<(String, Value)>, String> {
    let Some((first, rest)) = path.split_first() else {
        return Ok(map);
    };
    let idx = match map.iter().position(|(k, _)| k == first) {
        Some(i) => i,
        None => {
            let fresh = if rest.is_empty() && append {
                Value::Seq(Vec::new())
            } else {
                Value::Map(Vec::new())
            };
            map.push((first.clone(), fresh));
            map.len() - 1
        }
    };
    match &mut map[idx].1 {
        Value::Map(m) => {
            if rest.is_empty() {
                if append {
                    return Err(format!("`{first}` is a table, not an array of tables"));
                }
                Ok(m)
            } else {
                table_mut(m, rest, append)
            }
        }
        Value::Seq(items) => {
            if rest.is_empty() && append {
                items.push(Value::Map(Vec::new()));
            }
            match items.last_mut() {
                Some(Value::Map(m)) => {
                    if rest.is_empty() {
                        Ok(m)
                    } else {
                        table_mut(m, rest, append)
                    }
                }
                _ => Err(format!("`{first}` is not an array of tables")),
            }
        }
        _ => Err(format!("`{first}` is not a table")),
    }
}

fn parse_toml_scalar(v: &str) -> Result<Value, String> {
    if let Some(inner) = v.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{v}`"))?;
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => return Err(format!("unknown escape `\\{}`", other.unwrap_or(' '))),
                }
            } else if c == '"' {
                return Err(format!("unescaped quote inside `{v}`"));
            } else {
                out.push(c);
            }
        }
        return Ok(Value::Str(out));
    }
    match v {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(u) = v.parse::<u64>() {
        return Ok(Value::U64(u));
    }
    if let Ok(i) = v.parse::<i64>() {
        return Ok(Value::I64(i));
    }
    if let Ok(f) = v.parse::<f64>() {
        if f.is_finite() {
            return Ok(Value::F64(f));
        }
    }
    Err(format!(
        "cannot parse value `{v}` (want a quoted string, boolean or number)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            device: Some("orin-nano".to_string()),
            seed: Some(7),
            duration: Some("2s".to_string()),
            warmup: Some("200ms".to_string()),
            slo: Some("50ms".to_string()),
            gpu_policy: Some("priority:40".to_string()),
            fault_seed: Some(99),
            deadline: Some("80ms".to_string()),
            retry: Some(3),
            hedge: Some("auto".to_string()),
            breaker: Some("brownout".to_string()),
            recovery: Some(2),
            max_delay: Some("5ms".to_string()),
            queue_cap: Some(64),
            admission: Some("shed".to_string()),
            autoscale: Some(AutoscaleScenario {
                min_replicas: Some(0),
                max_replicas: Some(4),
                target_queue: Some(3.5),
                keep_alive: Some("150ms".to_string()),
                evaluate_every: Some("20ms".to_string()),
                slo_burn: Some(true),
                start_cost: Some("auto".to_string()),
            }),
            fleet: Some(FleetScenario {
                sites: Some(4),
                router: Some("least_queue".to_string()),
                cloud: Some(true),
                cloud_device: Some("cloud-a40".to_string()),
                base_latency: Some("5ms".to_string()),
                jitter: Some("2ms".to_string()),
                bandwidth_mbps: Some(100.0),
                request_kb: Some(128.0),
                response_kb: Some(4.0),
                cloud_rtt: Some("30ms".to_string()),
                telemetry_every: Some("100ms".to_string()),
            }),
            tenants: Some(vec![
                TenantScenario {
                    spec: Some("resnet50:int8:1:4".to_string()),
                    arrival: Some("mmpp:50:400:300:80".to_string()),
                    max_delay: None,
                    queue_cap: Some(32),
                    admission: None,
                    autoscale: Some(AutoscaleScenario {
                        min_replicas: Some(1),
                        ..AutoscaleScenario::default()
                    }),
                },
                TenantScenario {
                    spec: Some("model=yolov8n,precision=fp16,batch=2,sm_share=0.5".to_string()),
                    arrival: Some("poisson:40".to_string()),
                    ..TenantScenario::default()
                },
            ]),
        }
    }

    #[test]
    fn toml_round_trips() {
        let spec = sample();
        let toml = spec.to_toml();
        let back: ScenarioSpec = toml.parse().unwrap();
        assert_eq!(back, spec, "TOML:\n{toml}");
        assert_eq!(format!("{spec}"), toml);
    }

    #[test]
    fn json_round_trips() {
        let spec = sample();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = json.parse().unwrap();
        assert_eq!(back, spec, "JSON:\n{json}");
    }

    #[test]
    fn sparse_scenario_round_trips_and_defaults_stay_none() {
        let spec = ScenarioSpec {
            tenants: Some(vec![TenantScenario {
                spec: Some("resnet50:int8:1".to_string()),
                ..TenantScenario::default()
            }]),
            ..ScenarioSpec::default()
        };
        let back: ScenarioSpec = spec.to_toml().parse().unwrap();
        assert_eq!(back, spec);
        let empty: ScenarioSpec = "".parse().unwrap();
        assert_eq!(empty, ScenarioSpec::default());
    }

    #[test]
    fn toml_comments_and_overwrites() {
        let doc = "\
# a comment line
seed = 1 # trailing comment
seed = 2
device = \"orin-nano\" # hash in comment: #5

[[tenants]]
spec = \"resnet50:int8:1\"

[tenants.autoscale]
min_replicas = 0
";
        let spec: ScenarioSpec = doc.parse().unwrap();
        assert_eq!(spec.seed, Some(2), "later key wins");
        assert_eq!(spec.device.as_deref(), Some("orin-nano"));
        let tenants = spec.tenants.unwrap();
        assert_eq!(tenants.len(), 1);
        assert_eq!(
            tenants[0].autoscale.as_ref().unwrap().min_replicas,
            Some(0),
            "[tenants.autoscale] attaches to the last [[tenants]] element"
        );
    }

    #[test]
    fn toml_errors_name_the_line() {
        let err = "seed = ".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = "[tenants..autoscale]\n"
            .parse::<ScenarioSpec>()
            .unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = "seed = 1\nnonsense\n".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = "seed = \"unterminated\n"
            .parse::<ScenarioSpec>()
            .unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn merge_overlay_wins_fieldwise() {
        let base = sample();
        let overlay = ScenarioSpec {
            seed: Some(42),
            device: Some("jetson-nano".to_string()),
            ..ScenarioSpec::default()
        };
        let merged = base.merge(&overlay);
        assert_eq!(merged.seed, Some(42));
        assert_eq!(merged.device.as_deref(), Some("jetson-nano"));
        assert_eq!(merged.slo, base.slo, "unset overlay fields fall through");
        assert_eq!(merged.tenants, base.tenants);
        // Identity laws.
        assert_eq!(base.merge(&ScenarioSpec::default()), base);
        assert_eq!(ScenarioSpec::default().merge(&base), base);
    }

    #[test]
    fn window_must_fit_the_clock() {
        let warmup = SimDuration::from_millis(500);
        let default = SimDuration::from_secs(2);
        assert_eq!(parse_window(warmup, None, default).unwrap(), default);
        assert_eq!(
            parse_window(warmup, Some("3s"), default).unwrap(),
            SimDuration::from_secs(3)
        );
        let err = parse_window(warmup, Some("1e300s"), default).unwrap_err();
        assert!(err.contains("`1e300s`"), "{err}");
        // Fits the clock alone, but not after a one-second warmup.
        let err =
            parse_window(SimDuration::from_secs(1), Some("18446744073s"), default).unwrap_err();
        assert!(err.contains("`18446744073s`"), "{err}");
        let huge = SimDuration::from_nanos(u64::MAX);
        assert!(parse_window(huge, None, default).is_err());
        assert!(parse_window(warmup, Some("fast"), default).is_err());
    }

    #[test]
    fn duration_and_arrival_grammars() {
        assert_eq!(
            parse_duration("50ms").unwrap(),
            SimDuration::from_millis(50)
        );
        assert_eq!(
            parse_duration("200us").unwrap(),
            SimDuration::from_micros(200)
        );
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(parse_duration("2").unwrap(), SimDuration::from_secs(2));
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("fast").is_err());
        // The clock ends at 2^64 ns (18446744073.709551616 s): a literal
        // past it is an error naming it, not a saturation.
        for past in ["1e300s", "18446744074s"] {
            let err = parse_duration(past).unwrap_err();
            assert!(err.contains(&format!("`{past}`")), "{err}");
        }
        assert!(parse_duration("18446744073s").is_ok());
        assert!(parse_arrival("poisson:100").is_ok());
        assert!(parse_arrival("mmpp:50:400:300:80").is_ok());
        assert!(parse_arrival("poisson:-3").is_err());
        assert!(parse_arrival("uniform:5").is_err());
        assert!(parse_arrival("mmpp:50:400:300").is_err());
    }
}
