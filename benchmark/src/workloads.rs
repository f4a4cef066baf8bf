//! The four workloads: how each is set up cold, what one timed iteration
//! calls, and what makes an iteration's output correct.
//!
//! Every call into a jetsim layer runs inside a [`Tracer`] span named
//! after the crate and function, so the traced pass can attribute an
//! iteration's time to layers without instrumenting the program.

use jetsim::prelude::{zoo, ModelGraph, Precision, SimDuration};
use jetsim::{CellOutcome, Platform, ScenarioSpec, SweepCell, SweepSpec};
use jetsim_des::ArrivalStream;
use jetsim_fleet::{build_fleet_spec, FleetSpec};
use jetsim_serve::{build_serve_spec, estimate_capacity, ServeReport, ServeSpec};
use jetsim_sim::Simulation;
use jetsim_trt::EngineCache;

use crate::stats::ratio;
use crate::tracer::Tracer;

/// Worker threads for the sweep and the fleet's site sims: the host the
/// baseline was taken on has two cores.
const WORKERS: usize = 2;

/// The paper's closed-loop profiling grid (§6), per device.
const GRID_MODELS: [fn() -> ModelGraph; 7] = [
    zoo::resnet18,
    zoo::resnet34,
    zoo::resnet50,
    zoo::resnet101,
    zoo::mobilenet_v2,
    zoo::fcn_resnet50,
    zoo::yolov8n,
];
const GRID_BATCHES: [u32; 5] = [1, 2, 4, 8, 16];
const GRID_PROCESSES: [u32; 5] = [1, 2, 4, 8, 16];
/// Cells per iteration: 2 devices x 7 models x 4 precisions x 5 batches
/// x 5 process counts.
const GRID_CELLS: usize = 2 * 7 * 4 * 5 * 5;

const SERVE_STEADY: &str = include_str!("../workloads/serve_steady.toml");
const SERVE_CHAOS: &str = include_str!("../workloads/serve_chaos.toml");
const FLEET_SCALE: &str = include_str!("../workloads/fleet_scale.toml");

/// `fleet.quarter_run_s` runs a fleet this many times smaller at the
/// same per-site load.
pub const QUARTER: u32 = 4;

/// Rounds of the fleet's traced extras; each per-layer metric from them
/// is a median over the rounds.
const EXTRA_ROUNDS: usize = 3;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's closed-loop grid: all DES and engine-cache lookups.
    PaperGrid,
    /// One Orin Nano under SLO-meeting open-loop traffic.
    ServeSteady,
    /// The serving layers with every resilience path firing.
    ServeChaos,
    /// 512 sites behind a round-robin router.
    FleetScale,
}

impl Workload {
    /// Every workload, in the order `all` runs them and `BENCHMARK.json`
    /// lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ServeSteady,
        Workload::ServeChaos,
        Workload::FleetScale,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeChaos => "serve_chaos",
            Workload::FleetScale => "fleet_scale",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One cold set-up: empties the engine cache, parses and resolves
    /// the workload at `seed`, and builds every engine it uses, leaving
    /// the cache warm.
    ///
    /// # Errors
    ///
    /// A message naming the step that failed.
    pub fn setup(self, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
        EngineCache::global().clear();
        match self {
            Workload::PaperGrid => setup_grid(seed, tracer),
            Workload::ServeSteady => setup_serve(SERVE_STEADY, seed, None, tracer),
            Workload::ServeChaos => {
                setup_serve(SERVE_CHAOS, seed, Some(seed.wrapping_add(1)), tracer)
            }
            Workload::FleetScale => setup_fleet(seed, tracer),
        }
    }
}

/// A workload after set-up, ready for timed iterations.
// One value lives per pass, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Prepared {
    /// The sweep and its inputs.
    Grid {
        /// The grid's axes and windows.
        spec: SweepSpec,
        /// Both paper devices.
        platforms: Vec<Platform>,
        /// The zoo models, built once.
        models: Vec<ModelGraph>,
    },
    /// A resolved serving experiment.
    Serve(ServeSpec),
    /// A resolved fleet, its per-site serving spec, and the scenario it
    /// came from (for the quarter-size fleet).
    Fleet {
        /// The fleet at two workers.
        spec: FleetSpec,
        /// The per-site serving spec.
        site: ServeSpec,
        /// The parsed scenario, seed applied.
        scenario: ScenarioSpec,
    },
}

/// What one iteration produced: the digest of its simulated report and
/// the counts the traced pass reports (identical in every iteration).
#[derive(Debug)]
pub struct Outcome {
    /// FNV-1a 64 over the report's JSON.
    pub digest: u64,
    /// Per-layer counts and simulated values, by metric name.
    pub counts: Vec<(&'static str, f64)>,
}

fn setup_grid(seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let spec = SweepSpec::new()
        .precisions(Precision::ALL)
        .batches(GRID_BATCHES)
        .process_counts(GRID_PROCESSES)
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(1500))
        .seed(seed)
        .workers(WORKERS);
    let platforms = Platform::paper_platforms();
    let models: Vec<ModelGraph> = GRID_MODELS.iter().map(|build| build()).collect();
    for platform in &platforms {
        for model in &models {
            for precision in Precision::ALL {
                for batch in GRID_BATCHES {
                    tracer
                        .span("trt.build", |_| {
                            platform.build_engine(model, precision, batch)
                        })
                        .map_err(|e| {
                            format!(
                                "{} {} {precision} b{batch}: {e}",
                                platform.name(),
                                model.name()
                            )
                        })?;
                }
            }
        }
    }
    Ok(Prepared::Grid {
        spec,
        platforms,
        models,
    })
}

fn parse(text: &str, seed: u64, tracer: &mut Tracer) -> Result<ScenarioSpec, String> {
    let mut scenario: ScenarioSpec = tracer.span("core.scenario_parse", |_| text.parse())?;
    scenario.seed = Some(seed);
    Ok(scenario)
}

fn resolve_serve(scenario: &ScenarioSpec, tracer: &mut Tracer) -> Result<ServeSpec, String> {
    let spec = tracer.span("serve.resolve", |_| build_serve_spec(scenario))?;
    for st in spec.tenants() {
        let t = &st.tenant;
        tracer
            .span("trt.build", |_| {
                spec.platform()
                    .build_engine(t.model(), t.precision(), t.batch())
            })
            .map_err(|e| format!("{}: {e}", t.label()))?;
    }
    Ok(spec)
}

fn setup_serve(
    text: &str,
    seed: u64,
    fault_seed: Option<u64>,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let mut scenario = parse(text, seed, tracer)?;
    scenario.fault_seed = fault_seed.or(scenario.fault_seed);
    let spec = resolve_serve(&scenario, tracer)?;
    // Also builds the degraded fallback engines a tenant's admission or
    // breaker policy asks for, which only the config compiler knows.
    tracer
        .span("serve.build_config_cold", |_| spec.build_config())
        .map_err(|e| e.to_string())?;
    Ok(Prepared::Serve(spec))
}

fn setup_fleet(seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let scenario = parse(FLEET_SCALE, seed, tracer)?;
    let spec = tracer
        .span("fleet.resolve", |_| build_fleet_spec(&scenario))?
        .workers(Some(WORKERS));
    let site = resolve_serve(&scenario, tracer)?;
    Ok(Prepared::Fleet {
        spec,
        site,
        scenario,
    })
}

impl Prepared {
    /// One timed iteration, the same calls whether tracing is on or off.
    ///
    /// # Errors
    ///
    /// A call returned `Err`, or a conservation law broke.
    pub fn iterate(&self, tracer: &mut Tracer) -> Result<Outcome, String> {
        match self {
            Prepared::Grid {
                spec,
                platforms,
                models,
            } => iterate_grid(spec, platforms, models, tracer),
            Prepared::Serve(spec) => iterate_serve(spec, tracer),
            Prepared::Fleet { spec, .. } => {
                let report = tracer.span("fleet.run", |_| spec.run())?;
                if report.served > report.requests {
                    return Err(format!(
                        "fleet served {} of {} requests",
                        report.served, report.requests
                    ));
                }
                Ok(Outcome {
                    digest: crate::digest(&report),
                    counts: vec![
                        ("fleet.sim_events", report.sim_events_total as f64),
                        ("fleet.requests", report.requests as f64),
                        ("fleet.served", report.served as f64),
                    ],
                })
            }
        }
    }

    /// Calls only the traced pass makes, each a root span of its own.
    /// For the fleet: arrival emission, the capacity prior, and runs at
    /// two workers, at one worker and at a quarter of the size. The runs
    /// interleave over [`EXTRA_ROUNDS`] rounds, so the ratios taken
    /// between them compare runs made under the same host conditions.
    /// Returns extra counts.
    ///
    /// # Errors
    ///
    /// A call returned `Err`.
    pub fn traced_extras(&self, tracer: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let Prepared::Fleet {
            spec,
            site,
            scenario,
        } = self
        else {
            return Ok(Vec::new());
        };
        let one_worker = spec.clone().workers(Some(1));
        let quarter = quarter_fleet(scenario)?;
        let horizon = site.horizon();
        let mut arrivals = 0;
        for _ in 0..EXTRA_ROUNDS {
            // The fleet's emission step: each class's whole-horizon
            // arrival timeline. The stream seed picks which arrivals, not
            // how many.
            arrivals = tracer.span("des.arrivals", |_| {
                site.tenants()
                    .iter()
                    .zip(0u64..)
                    .map(|(st, class)| {
                        let seed = site.master_seed().wrapping_add(class);
                        ArrivalStream::new(st.arrivals.clone(), seed)
                            .times_until(horizon)
                            .len()
                    })
                    .sum::<usize>()
            });
            tracer
                .span("serve.capacity_estimate", |_| estimate_capacity(site))
                .map_err(|e| e.to_string())?;
            tracer.span("fleet.run_w2", |_| spec.run())?;
            tracer.span("fleet.run_w1", |_| one_worker.run())?;
            tracer.span("fleet.quarter_run", |_| quarter.run())?;
        }
        Ok(vec![("des.arrivals", arrivals as f64)])
    }
}

fn iterate_grid(
    spec: &SweepSpec,
    platforms: &[Platform],
    models: &[ModelGraph],
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut cells: Vec<SweepCell> = Vec::with_capacity(GRID_CELLS);
    for platform in platforms {
        for model in models {
            cells.extend(tracer.span("core.sweep", |_| spec.run(platform, model)));
        }
    }
    if cells.len() != GRID_CELLS {
        return Err(format!("grid ran {} of {GRID_CELLS} cells", cells.len()));
    }
    let mut ok = 0usize;
    let mut oom = 0usize;
    for cell in &cells {
        match cell.outcome {
            CellOutcome::Ok(_) => ok += 1,
            CellOutcome::OutOfMemory { .. } => oom += 1,
            _ => return Err(format!("cell {cell}")),
        }
    }
    Ok(Outcome {
        digest: crate::digest(&cells),
        counts: vec![
            ("core.cells", cells.len() as f64),
            ("core.cells_ok", ok as f64),
            ("core.cells_oom", oom as f64),
        ],
    })
}

/// The sequence `ServeSpec::run` performs, one span per call, plus the
/// trace's drop.
fn iterate_serve(spec: &ServeSpec, tracer: &mut Tracer) -> Result<Outcome, String> {
    let config = tracer
        .span("serve.build_config", |_| spec.build_config())
        .map_err(|e| e.to_string())?;
    let sim = tracer
        .span("sim.new", |_| Simulation::new(config))
        .map_err(|e| e.to_string())?;
    let trace = tracer.span("sim.run", |_| sim.run());
    let report = tracer.span("serve.report", |_| {
        ServeReport::from_trace_with_deadline(
            &trace,
            spec.slo_target(),
            spec.warmup_interval(),
            spec.resilience_policies().deadline,
        )
    });
    let mut counts = vec![
        ("sim.events", trace.sim_events as f64),
        ("sim.kernel_events", trace.kernel_events.len() as f64),
        ("sim.requests", trace.requests.len() as f64),
        ("sim.serve_events", trace.serve_events.len() as f64),
        ("sim.power_samples", trace.power_samples.len() as f64),
        ("sim.fault_events", trace.fault_events.len() as f64),
        ("sim.preemptions", trace.preemptions.len() as f64),
        ("sim.sim_gpu_busy_frac", trace.gpu_utilization()),
    ];
    tracer.span("sim.trace_drop", |_| drop(trace));

    let (mut offered, mut served, mut failed, mut unfinished, mut attempts) = (0, 0, 0, 0, 0);
    let (mut goodput_qps, mut offered_qps, mut wait_ms, mut batch) = (0.0, 0.0, 0.0, 0.0);
    for g in &report.groups {
        if g.served + g.failed + g.unfinished != g.offered {
            return Err(format!(
                "{}: served {} + failed {} + unfinished {} != offered {}",
                g.label, g.served, g.failed, g.unfinished, g.offered
            ));
        }
        offered += g.offered;
        served += g.served;
        failed += g.failed;
        unfinished += g.unfinished;
        attempts += g.attempts;
        goodput_qps += g.goodput_qps;
        offered_qps += g.offered_qps;
        wait_ms += g.mean_queue_wait_ms * g.served as f64;
        batch += g.mean_batch * g.served as f64;
    }
    counts.extend([
        ("serve.offered", offered as f64),
        ("serve.served", served as f64),
        ("serve.failed", failed as f64),
        ("serve.unfinished", unfinished as f64),
        (
            "serve.retry_amplification",
            ratio(attempts as f64, offered as f64),
        ),
        ("serve.goodput_ratio", ratio(goodput_qps, offered_qps)),
        ("serve.sim_queue_wait_ms", ratio(wait_ms, served as f64)),
        ("serve.sim_mean_batch", ratio(batch, served as f64)),
    ]);
    Ok(Outcome {
        digest: crate::digest(&report),
        counts,
    })
}

/// The fleet at a quarter of its sites and of its aggregate load, so
/// each site does the same work.
fn quarter_fleet(scenario: &ScenarioSpec) -> Result<FleetSpec, String> {
    let mut quarter = scenario.clone();
    let fleet = quarter.fleet.get_or_insert_with(Default::default);
    fleet.sites = Some(fleet.sites.unwrap_or(1).div_ceil(QUARTER));
    for tenant in quarter.tenants.iter_mut().flatten() {
        let arrival = tenant.arrival.as_deref().unwrap_or_default();
        let rate: f64 = arrival
            .strip_prefix("poisson:")
            .and_then(|r| r.parse().ok())
            .ok_or_else(|| format!("quarter fleet needs poisson arrivals, got `{arrival}`"))?;
        tenant.arrival = Some(format!("poisson:{}", rate / f64::from(QUARTER)));
    }
    Ok(build_fleet_spec(&quarter)?.workers(Some(WORKERS)))
}
