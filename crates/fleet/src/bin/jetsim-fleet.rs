//! Command-line front-end for fleet-scale serving experiments.
//!
//! ```sh
//! jetsim-fleet --sites 8 --router offload --cloud \
//!     --tenant resnet50:int8:1:2 --arrival poisson:400 --slo 50ms
//! ```
//!
//! Every flag is an overlay over a declarative scenario document, read
//! by the same `jetsim::scenario::ScenarioFlags` reader as
//! `jetsim-serve` and `jetsim-trtexec`: with `--scenario FILE` the
//! file supplies the base configuration (including its `[fleet]`
//! table) and explicit flags override individual fields;
//! `--dump-scenario` prints the merged document instead of running —
//! feeding it back via `--scenario` reproduces the run byte for byte.
//! `--workers` caps the site-simulation threads and never changes the
//! report bytes.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use jetsim::scenario::{cli_main, FlagCursor, FleetScenario, ScenarioFlags};
use jetsim_fleet::{build_fleet_spec, network_overlay, NetworkModel, RouterPolicy};

#[derive(Debug)]
struct Args {
    /// The scenario-shaped flags, read by the shared reader.
    flags: ScenarioFlags,
    /// Worker-thread cap; wall-time only, never affects results.
    workers: Option<usize>,
    json: bool,
}

fn usage() -> &'static str {
    "usage: jetsim-fleet --tenant model:precision:batch[:count] [--tenant ...]\n\
     \x20                [--arrival poisson:RATE | mmpp:CALM:BURST:CALM_MS:BURST_MS]\n\
     \x20                  the fleet-wide aggregate stream per tenant class, split\n\
     \x20                  across sites by the router; default poisson:100\n\
     \x20                [--scenario FILE] load a TOML/JSON scenario (with an optional\n\
     \x20                  [fleet] table) as the base config; flags override fields\n\
     \x20                [--dump-scenario] print the merged scenario (TOML) and exit\n\
     \x20                [--sites N] edge sites, each one full device sim (default 4)\n\
     \x20                [--router round_robin|least_queue|locality|offload]\n\
     \x20                  routing policy over periodic telemetry snapshots (default\n\
     \x20                  round_robin; rr and lq are accepted aliases)\n\
     \x20                [--cloud[=true|false]] attach a cloud tier behind extra RTT\n\
     \x20                [--cloud-device NAME] cloud tier device (default cloud-a40)\n\
     \x20                [--network SPEC] key=value list over the default model:\n\
     \x20                  base=5ms,jitter=0s,bw=100,req_kb=128,resp_kb=4,cloud_rtt=30ms\n\
     \x20                [--telemetry-every DUR] router snapshot staleness (default 100ms)\n\
     \x20                [--workers N] site-simulation threads (wall time only; the\n\
     \x20                  report is byte-identical at any worker count)\n\
     \x20                [--slo DUR] [--duration DUR] [--warmup DUR]\n\
     \x20                [--device orin-nano|jetson-nano|cloud-a40] [--seed N]\n\
     \x20                [--json] emit the report as JSON"
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: ScenarioFlags::default(),
            workers: None,
            json: false,
        };
        let mut fleet = FleetScenario::default();
        let mut argv = FlagCursor::new(argv);
        while let Some((key, mut value)) = argv.next_flag() {
            if args.flags.accept(&key, &mut value, &mut argv)? {
                continue;
            }
            match key.as_str() {
                "--sites" => {
                    fleet.sites = Some(
                        argv.require(&mut value)?
                            .parse()
                            .map_err(|e| format!("bad --sites: {e}"))?,
                    );
                }
                "--router" => {
                    let raw = argv.require(&mut value)?;
                    let policy: RouterPolicy = raw.parse()?;
                    // Store canonical spelling so aliases dump identically.
                    fleet.router = Some(policy.to_string());
                }
                "--cloud" => {
                    fleet.cloud = Some(match value.as_deref() {
                        Some("true") | None => true,
                        Some("false") => false,
                        Some(other) => {
                            return Err(format!("bad --cloud `{other}`: want true or false"))
                        }
                    });
                }
                "--cloud-device" => {
                    fleet.cloud_device = Some(argv.require(&mut value)?);
                }
                "--network" => {
                    let net: NetworkModel = argv.require(&mut value)?.parse()?;
                    fleet = network_overlay(fleet, &net);
                }
                "--telemetry-every" => {
                    fleet.telemetry_every = Some(argv.require_duration(&mut value)?);
                }
                "--workers" => {
                    let n: usize = argv
                        .require(&mut value)?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?;
                    if n == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    args.workers = Some(n);
                }
                "--json" => args.json = true,
                "--help" | "-h" => return Err(usage().to_string()),
                other => return Err(format!("unknown flag `{other}`\n{}", usage())),
            }
        }
        // Every fleet flag sets a field, so any flag makes the table
        // non-default.
        if fleet != FleetScenario::default() {
            args.flags.overlay.fleet = Some(fleet);
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
    let spec = build_fleet_spec(&scenario)?.workers(args.workers);
    let report = spec.run()?;
    if args.json {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{report}")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    cli_main(Args::parse, run)
}
