//! Runs one workload: cold set-ups, timed iterations back to back, the
//! correctness checks, and (with tracing) a second, traced pass that
//! yields the per-layer metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use jetsim_trt::EngineCache;
use serde_json::Value;

use crate::stats::{median, quartiles, ratio};
use crate::tracer::{self, Tracer};
use crate::workloads::{Outcome, Prepared, Workload, QUARTER};
use crate::{MetricDef, END_TO_END, PER_LAYER};

/// Cold set-ups per pass, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
/// Cheap set-ups repeat until this much time is spent, so the median of
/// a set-up of a few milliseconds spans the host's slow and fast phases.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Cap on set-ups per pass.
const MAX_SETUPS: usize = 2000;
/// Timed iterations per pass, at least, however long they take.
const MIN_ITERATIONS: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Seconds of timed iterations per pass.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Also require the default-seed digest committed in
    /// `baseline.json`.
    pub check: bool,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// Iterations run, both passes.
    pub attempted: usize,
    /// Iterations that failed a check.
    pub failed: usize,
    /// The first successful timed iteration's digest.
    pub digest: Option<u64>,
    /// Untraced iteration times, s.
    pub wall: Vec<f64>,
    /// Cold set-ups per pass.
    pub setups: usize,
    /// Every measured metric: end-to-end ones, then per-layer ones when
    /// traced.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Why iterations failed, one line each.
    pub errors: Vec<String>,
    /// Whether the result line carries the per-layer metrics.
    pub traced: bool,
}

impl RunReport {
    /// No iteration failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final result line: one JSON object whose metrics are every
    /// end-to-end metric untraced, every per-layer metric traced.
    pub fn result_line(&self) -> String {
        let wanted: &[MetricDef] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(def, _)| wanted.contains(def))
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    json_number(*value),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints `workload metric value unit` lines, `#` annotation lines,
    /// and the result line last.
    pub fn print(&self) {
        let w = self.workload.name();
        for (def, value) in &self.metrics {
            println!("{w} {} {} {}", def.name, json_number(*value), def.unit);
        }
        let (q1, q3) = quartiles(&self.wall);
        println!("# {w} wall_s_q1 {}", json_number(q1));
        println!("# {w} wall_s_q3 {}", json_number(q3));
        println!("# {w} iterations {}", self.wall.len());
        println!("# {w} setups {}", self.setups);
        println!(
            "# {w} failed_frac {}",
            json_number(self.failed as f64 / self.attempted.max(1) as f64)
        );
        if let Some(digest) = self.digest {
            println!("# {w} digest {digest:016x}");
        }
        for error in &self.errors {
            eprintln!("{w}: {error}");
        }
        println!("{}", self.result_line());
    }
}

/// A finite float as JSON; non-finite values (a broken derivation) as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// One pass's timed iterations.
struct Pass {
    times: Vec<f64>,
    outcomes: Vec<Result<Outcome, String>>,
    /// Whether each iteration recorded spans.
    traced: Vec<bool>,
    /// Peak RSS during each iteration, MB.
    peak_rss: Vec<f64>,
}

impl Pass {
    /// Times of the iterations that did (or did not) record spans.
    fn times_where(&self, traced: bool) -> Vec<f64> {
        self.times
            .iter()
            .zip(&self.traced)
            .filter(|&(_, &t)| t == traced)
            .map(|(&s, _)| s)
            .collect()
    }
}

/// Repeats cold set-ups, returning their times and the last one, which
/// leaves the engine cache warm.
fn setups(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Prepared), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut prepared = None;
    while times.len() < MIN_SETUPS || (start.elapsed() < SETUP_BUDGET && times.len() < MAX_SETUPS) {
        // Free the previous set-up before timing the next one.
        drop(prepared.take());
        let t0 = Instant::now();
        let fresh = tracer.span("setup", |t| workload.setup(seed, t))?;
        times.push(t0.elapsed().as_secs_f64());
        prepared = Some(fresh);
    }
    Ok((times, prepared.expect("at least one set-up ran")))
}

/// Timed iterations back to back until `seconds` have passed. With
/// `alternate`, every other iteration records spans, so the traced and
/// untraced iterations that `trace_overhead` compares share the host's
/// conditions.
///
/// # Errors
///
/// The peak-RSS mark cannot be reset or read.
fn timed_pass(
    prepared: &Prepared,
    tracer: &mut Tracer,
    seconds: f64,
    alternate: bool,
) -> Result<Pass, String> {
    let start = Instant::now();
    let min = if alternate {
        2 * MIN_ITERATIONS
    } else {
        MIN_ITERATIONS
    };
    let mut pass = Pass {
        times: Vec::new(),
        outcomes: Vec::new(),
        traced: Vec::new(),
        peak_rss: Vec::new(),
    };
    while pass.times.len() < min || start.elapsed().as_secs_f64() < seconds {
        if alternate {
            tracer.set_recording(pass.times.len().is_multiple_of(2));
        }
        pass.traced.push(tracer.recording());
        reset_peak_rss()?;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("iteration", |t| prepared.iterate(t))
        }))
        .unwrap_or_else(|payload| {
            tracer.close_abandoned();
            Err(format!("panicked: {}", panic_message(&*payload)))
        });
        pass.times.push(t0.elapsed().as_secs_f64());
        pass.outcomes.push(outcome);
        pass.peak_rss.push(peak_rss_mb()?);
    }
    Ok(pass)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload")
}

/// Counts failed iterations: an `Err`, a panic, or a digest other than
/// `reference`.
fn count_failures(pass: &Pass, reference: u64, errors: &mut Vec<String>) -> usize {
    let mut failed = 0;
    for (i, outcome) in pass.outcomes.iter().enumerate() {
        let error = match outcome {
            Err(e) => e.clone(),
            Ok(o) if o.digest != reference => format!(
                "digest {:016x} differs from the first iteration's {reference:016x}",
                o.digest
            ),
            Ok(_) => continue,
        };
        failed += 1;
        errors.push(format!("iteration {}: {error}", i + 1));
    }
    failed
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting peak RSS needs /proc/self/clear_refs: {e}"))
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The digest committed for `workload` at the default seed.
fn pinned_digest(workload: Workload) -> Result<u64, String> {
    let path = crate::package_dir().join("baseline.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("--check needs {}: {e}", path.display()))?;
    let baseline: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    baseline
        .get_field("digests")
        .and_then(|d| d.get_field(workload.name()))
        .and_then(Value::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("baseline.json pins no digest for {}", workload.name()))
}

/// Runs `workload` as `opts` says.
///
/// # Errors
///
/// A set-up failed, `/proc/self` cannot report peak RSS, or `--check`
/// lacks its baseline. Failed iterations are not errors: they are
/// counted in the report.
pub fn run(workload: Workload, opts: &Options) -> Result<RunReport, String> {
    if opts.check && opts.seed != crate::DEFAULT_SEED {
        return Err(format!(
            "--check compares against digests taken at seed {}",
            crate::DEFAULT_SEED
        ));
    }
    let mut off = Tracer::off();
    let (setup_times, prepared) = setups(workload, opts.seed, &mut off)?;
    let pass = timed_pass(&prepared, &mut off, opts.seconds, false)?;
    drop(prepared);

    let mut errors = Vec::new();
    let digest = pass
        .outcomes
        .iter()
        .find_map(|o| o.as_ref().ok())
        .map(|o| o.digest);
    let reference = digest.unwrap_or_default();
    let mut failed = count_failures(&pass, reference, &mut errors);
    if opts.check {
        let pinned = pinned_digest(workload)?;
        if digest != Some(pinned) {
            errors.push(format!("digest differs from the pinned {pinned:016x}"));
            failed = pass.times.len();
        }
    }
    let mut report = RunReport {
        workload,
        attempted: pass.times.len(),
        failed,
        digest,
        metrics: vec![
            (END_TO_END[0], median(&pass.times)),
            (END_TO_END[1], median(&setup_times)),
            (END_TO_END[2], median(&pass.peak_rss)),
        ],
        wall: pass.times,
        setups: setup_times.len(),
        errors,
        traced: opts.trace,
    };
    if opts.trace {
        traced_pass(opts, reference, &mut report)?;
    }
    Ok(report)
}

/// The traced pass: the same set-ups inside spans, the same iterations
/// with every other one inside spans, then the workload's traced
/// extras. Adds every per-layer metric to `report` and writes the spans
/// to `out/<workload>.trace.json`.
fn traced_pass(opts: &Options, reference: u64, report: &mut RunReport) -> Result<(), String> {
    let mut on = Tracer::on();
    let (_, prepared) = setups(report.workload, opts.seed, &mut on)?;
    let before = EngineCache::global().stats();
    let pass = timed_pass(&prepared, &mut on, opts.seconds, true)?;
    let after = EngineCache::global().stats();
    on.set_recording(true);
    report.attempted += pass.times.len();
    report.failed += count_failures(&pass, reference, &mut report.errors);
    let extras = prepared.traced_extras(&mut on).unwrap_or_else(|e| {
        report.failed += 1;
        report.errors.push(format!("traced extras: {e}"));
        Vec::new()
    });

    let mut values: BTreeMap<String, f64> = tracer::layer_medians(on.spans())
        .into_iter()
        .map(|(name, secs)| (format!("{name}_s"), secs))
        .collect();
    let counts = pass
        .outcomes
        .iter()
        .find_map(|o| o.as_ref().ok())
        .map_or(&[][..], |o| &o.counts);
    values.extend(
        counts
            .iter()
            .chain(&extras)
            .map(|&(k, v)| (k.to_string(), v)),
    );
    let n = pass.times.len() as f64;
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;

    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let mut derived = vec![
        ("trt.builds", misses / n),
        ("trt.cache_hits", hits / n),
        ("trt.cache_hit_rate", ratio(hits, hits + misses)),
        (
            "core.cells_per_s",
            ratio(get("core.cells"), get("core.sweep_s")),
        ),
        (
            "sim.events_per_s",
            ratio(get("sim.events"), get("sim.run_s")),
        ),
        (
            "fleet.sim_events_per_s",
            ratio(get("fleet.sim_events"), get("fleet.run_s")),
        ),
        (
            "trace_overhead",
            ratio(
                median(&pass.times_where(true)),
                median(&pass.times_where(false)),
            ) - 1.0,
        ),
    ];
    // The fleet's extras interleave these three runs.
    let (run, run_w1, quarter) = (
        get("fleet.run_w2_s"),
        get("fleet.run_w1_s"),
        get("fleet.quarter_run_s"),
    );
    if run_w1 > 0.0 {
        // Amdahl's law at two workers: run = serial + parallel / 2,
        // run_w1 = serial + parallel.
        derived.extend([
            ("fleet.serial_s", 2.0 * run - run_w1),
            ("fleet.parallel_s", 2.0 * (run_w1 - run)),
            ("fleet.scaling", ratio(run, f64::from(QUARTER) * quarter)),
        ]);
    }
    values.extend(derived.into_iter().map(|(k, v)| (k.to_string(), v)));
    report.metrics.extend(
        PER_LAYER
            .iter()
            .map(|&def| (def, values.get(def.name).copied().unwrap_or(0.0))),
    );

    let dir = crate::package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.json", report.workload.name()));
    let json =
        serde_json::to_string(&tracer::chrome_trace(on.spans())).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}
