//! Command-line front-end for request-level online serving experiments.
//!
//! ```sh
//! jetsim-serve --tenant resnet50:int8:1:2 --arrival poisson:200 \
//!     --slo 50ms --duration 30s
//! ```
//!
//! Each `--tenant model:precision:batch[:count]` (or key=value form)
//! takes the preceding (or last) `--arrival`; `--find-max-qps` turns the
//! run into a capacity search for tenant 0. Both `--flag value` and
//! `--flag=value` spellings work.
//!
//! Every flag is an overlay over a declarative scenario document: with
//! `--scenario FILE` the file (TOML or JSON `ScenarioSpec`) supplies
//! the base configuration and explicit flags override individual
//! fields; without it the overlay stands alone. `--dump-scenario`
//! prints the merged document instead of running — feeding it back via
//! `--scenario` reproduces the run byte for byte. The shared flags go
//! through `jetsim::scenario::ScenarioFlags`, the reader all three
//! jetsim CLIs use.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use jetsim::scenario::{cli_main, parse_duration, FlagCursor, ScenarioFlags};
use jetsim_serve::scenario::build_serve_spec;
use jetsim_serve::AutoscaleScenario;

#[derive(Debug)]
struct Args {
    /// The scenario-shaped flags, read by the shared reader.
    flags: ScenarioFlags,
    find_max_qps: Option<f64>,
    json: bool,
}

fn usage() -> &'static str {
    "usage: jetsim-serve --tenant model:precision:batch[:count[:priority]] [--tenant ...]\n\
     \x20                  or key=value form: model=resnet50,precision=int8,batch=4,\n\
     \x20                  count=2,priority=1,sm_share=0.5\n\
     \x20                [--arrival poisson:RATE | mmpp:CALM:BURST:CALM_MS:BURST_MS]\n\
     \x20                  each --arrival applies to the following --tenant(s);\n\
     \x20                  default poisson:100\n\
     \x20                [--scenario FILE] load a TOML/JSON scenario as the base config;\n\
     \x20                  explicit flags override individual fields\n\
     \x20                [--dump-scenario] print the merged scenario (TOML) and exit\n\
     \x20                [--slo DUR] [--duration DUR] [--warmup DUR] [--max-delay DUR]\n\
     \x20                  DUR accepts us/ms/s suffixes; a bare number means seconds\n\
     \x20                [--queue-cap N] [--admission reject|shed|degrade]\n\
     \x20                [--device orin-nano|jetson-nano|cloud-a40] [--seed N]\n\
     \x20                [--find-max-qps[=TARGET]] search the highest offered load that\n\
     \x20                  keeps tenant 0's SLO attainment >= TARGET (default 0.95)\n\
     \x20                [--faults[=SEED]] inject a seeded fault plan (2 memory spikes,\n\
     \x20                  1 throttle lock, OOM killer armed; SEED defaults to --seed)\n\
     \x20                [--deadline DUR] fail requests still queued after DUR\n\
     \x20                [--retry[=N]] retry failed requests, N total attempts (default 3)\n\
     \x20                [--hedge[=DUR|auto]] duplicate slow requests after DUR\n\
     \x20                  (default auto: the rolling p95 latency)\n\
     \x20                [--breaker[=shed|brownout]] circuit-break on rolling error rate\n\
     \x20                  (default shed)\n\
     \x20                [--recovery[=N]] restart OOM-killed replicas up to N times\n\
     \x20                  (default 2; each restart loads the engine's plan)\n\
     \x20                [--autoscale MIN[:MAX]] autoscale every tenant between MIN and\n\
     \x20                  MAX replicas (MIN 0 = scale to zero; MAX defaults to the\n\
     \x20                  tenant's instance count)\n\
     \x20                [--target-queue N] queued requests per replica that trigger a\n\
     \x20                  scale-up (default 4)\n\
     \x20                [--keep-alive DUR] idle time before reaping above the floor\n\
     \x20                  (default 200ms)\n\
     \x20                [--scale-every DUR] autoscaler evaluation period (default 20ms)\n\
     \x20                [--scale-slo-burn] also scale up on SLO burn\n\
     \x20                [--scale-cost DUR|auto] replica start cost (default auto:\n\
     \x20                  the engine's plan-load time)\n\
     \x20                [--gpu-policy rr|fifo|priority[:PENALTY_US]|mps[:OVERLAP]]\n\
     \x20                  GPU scheduling policy (default rr); tenant priorities come\n\
     \x20                  from the 5th --tenant field\n\
     \x20                [--json] emit the report as JSON"
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: ScenarioFlags::default(),
            find_max_qps: None,
            json: false,
        };
        let mut autoscale = AutoscaleScenario::default();
        let mut argv = FlagCursor::new(argv);
        while let Some((key, mut value)) = argv.next_flag() {
            if args.flags.accept(&key, &mut value, &mut argv)? {
                continue;
            }
            let overlay = &mut args.flags.overlay;
            match key.as_str() {
                "--max-delay" => overlay.max_delay = Some(argv.require_duration(&mut value)?),
                "--queue-cap" => {
                    overlay.queue_cap = Some(
                        argv.require(&mut value)?
                            .parse()
                            .map_err(|e| format!("bad --queue-cap: {e}"))?,
                    )
                }
                "--admission" => {
                    let policy = argv.require(&mut value)?;
                    match policy.as_str() {
                        "reject" | "shed" | "degrade" => overlay.admission = Some(policy),
                        other => {
                            return Err(format!(
                                "bad --admission `{other}`: want reject, shed or degrade"
                            ))
                        }
                    }
                }
                "--find-max-qps" => {
                    args.find_max_qps = Some(match value {
                        Some(v) => v
                            .parse()
                            .map_err(|e| format!("bad --find-max-qps target: {e}"))?,
                        None => 0.95,
                    })
                }
                "--faults" => args.flags.faults(value)?,
                "--deadline" => overlay.deadline = Some(argv.require_duration(&mut value)?),
                "--retry" => {
                    overlay.retry = Some(match value {
                        Some(v) => v
                            .parse()
                            .map_err(|e| format!("bad --retry attempts: {e}"))?,
                        None => 3,
                    })
                }
                "--hedge" => {
                    overlay.hedge = Some(match value.as_deref() {
                        Some("auto") | None => "auto".to_string(),
                        Some(v) => {
                            parse_duration(v)?;
                            v.to_string()
                        }
                    })
                }
                "--breaker" => {
                    overlay.breaker = Some(match value.as_deref() {
                        Some("shed") | None => "shed".to_string(),
                        Some("brownout") => "brownout".to_string(),
                        Some(other) => {
                            return Err(format!("bad --breaker `{other}`: want shed or brownout"))
                        }
                    })
                }
                "--recovery" => {
                    overlay.recovery = Some(match value {
                        Some(v) => v
                            .parse()
                            .map_err(|e| format!("bad --recovery restarts: {e}"))?,
                        None => 2,
                    })
                }
                "--autoscale" => {
                    let spec = argv.require(&mut value)?;
                    let (min, max) = match spec.split_once(':') {
                        Some((min, max)) => (
                            min.parse()
                                .map_err(|e| format!("bad --autoscale MIN: {e}"))?,
                            Some(
                                max.parse()
                                    .map_err(|e| format!("bad --autoscale MAX: {e}"))?,
                            ),
                        ),
                        None => (
                            spec.parse()
                                .map_err(|e| format!("bad --autoscale MIN: {e}"))?,
                            None,
                        ),
                    };
                    autoscale.min_replicas = Some(min);
                    autoscale.max_replicas = max;
                }
                "--target-queue" => {
                    autoscale.target_queue = Some(
                        argv.require(&mut value)?
                            .parse()
                            .map_err(|e| format!("bad --target-queue: {e}"))?,
                    );
                }
                "--keep-alive" => {
                    autoscale.keep_alive = Some(argv.require_duration(&mut value)?);
                }
                "--scale-every" => {
                    autoscale.evaluate_every = Some(argv.require_duration(&mut value)?);
                }
                "--scale-slo-burn" => {
                    autoscale.slo_burn = Some(true);
                }
                "--scale-cost" => {
                    let cost = argv.require(&mut value)?;
                    if cost != "auto" {
                        parse_duration(&cost)?;
                    }
                    autoscale.start_cost = Some(cost);
                }
                "--gpu-policy" => args.flags.gpu_policy(argv.require(&mut value)?)?,
                "--json" => args.json = true,
                "--help" | "-h" => return Err(usage().to_string()),
                other => return Err(format!("unknown flag `{other}`\n{}", usage())),
            }
        }
        // Every autoscale flag sets a field, so any flag makes the
        // table non-default.
        if autoscale != AutoscaleScenario::default() {
            args.flags.overlay.autoscale = Some(autoscale);
        }
        if !args.flags.names_workload() {
            return Err(format!("--tenant or --scenario is required\n{}", usage()));
        }
        Ok(args)
    }
}

fn run(args: Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let dump = args.flags.dump();
    let scenario = args.flags.merged()?;
    if dump {
        write!(out, "{scenario}")?;
        return Ok(());
    }
    let spec = build_serve_spec(&scenario)?;

    if let Some(target) = args.find_max_qps {
        let estimate = spec.find_max_qps(target, 6)?;
        if args.json {
            writeln!(out, "{}", serde_json::to_string_pretty(&estimate)?)?;
        } else {
            writeln!(
                out,
                "max sustainable load for {}: {:.1} qps at >= {:.0}% SLO attainment \
                 ({} probes)",
                spec.tenants()[0].tenant.label(),
                estimate.max_qps,
                target * 100.0,
                estimate.probes.len()
            )?;
            for p in &estimate.probes {
                writeln!(
                    out,
                    "  probe {:>8.1} qps -> {:>5.1}% {}",
                    p.qps,
                    p.slo_attainment * 100.0,
                    if p.feasible { "ok" } else { "MISS" }
                )?;
            }
        }
        return Ok(());
    }

    let report = spec.run()?;
    if args.json {
        writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
    } else {
        write!(out, "{report}")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    cli_main(Args::parse, run)
}
