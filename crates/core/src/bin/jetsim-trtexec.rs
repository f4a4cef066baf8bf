//! A `trtexec`-style command-line front-end for the simulator.
//!
//! Mirrors the flags the paper drives its experiments with and prints a
//! trtexec-like performance summary plus the `jetson-stats` view:
//!
//! ```sh
//! jetsim-trtexec --model=resnet50 --int8 --batch=8 --device=orin-nano \
//!     --processes=2 --duration=2 --chrome-trace=/tmp/timeline.json
//! ```
//!
//! Heterogeneous deployments use the repeatable `--tenant` flag instead
//! of `--model`; each tenant is `model:precision:batch[:count]`:
//!
//! ```sh
//! jetsim-trtexec --tenant=resnet50:int8:1:2 --tenant=yolov8n:fp16:4 \
//!     --device=orin-nano --duration=2
//! ```
//!
//! Its scenario-shaped flags overlay `--scenario=FILE` through
//! `jetsim::scenario::ScenarioFlags`, the reader all three CLIs share.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use jetsim::deployment::Tenant;
use jetsim::prelude::*;
use jetsim::scenario::{
    cli_fault_plan, cli_main, parse_window, FlagCursor, ScenarioFlags, ScenarioSpec,
};
use jetsim_profile::chrome_trace;
use jetsim_sim::{ArrivalModel, FaultKind, GpuPolicy, ProcessConfig};

#[derive(Debug)]
struct Args {
    model: String,
    precision: Precision,
    batch: u32,
    processes: u32,
    streams: u32,
    nsight: bool,
    chrome_trace: Option<String>,
    /// The scenario file (if any) under the scenario-shaped flags:
    /// device, seed, duration, GPU policy, fault seed and tenants.
    scenario: ScenarioSpec,
}

impl Args {
    fn usage() -> &'static str {
        "usage: jetsim-trtexec --model=<zoo name or path/to/model.json>\n\
         \x20                  zoo: resnet50, fcn_resnet50, yolov8n, resnet18, resnet34, resnet101, mobilenet_v2\n\
         \x20                  [--int8|--fp16|--tf32|--fp32] [--batch=N] [--processes=N] [--streams=N]\n\
         \x20                  [--device=orin-nano|jetson-nano|cloud-a40] [--duration=SECONDS]\n\
         \x20                  [--nsight] [--chrome-trace=FILE] [--seed=N] [--faults[=SEED]]\n\
         \x20                  [--gpu-policy=rr|fifo|priority[:PENALTY_US]|mps[:OVERLAP]]\n\
         \x20                  --faults injects a seeded fault plan (memory spikes + a throttle\n\
         \x20                  lock) and swaps strict OOM admission for OOM-killer semantics\n\
         \x20      or: jetsim-trtexec --tenant=model:precision:batch[:count[:priority]] [--tenant=...]\n\
         \x20                  runs a heterogeneous deployment (repeat --tenant per model mix;\n\
         \x20                  key=value specs like model=resnet50,precision=int8,batch=4 also work);\n\
         \x20                  mutually exclusive with --model/--batch/--processes/--streams\n\
         \x20                  and the precision flags\n\
         \x20      or: jetsim-trtexec --scenario=FILE\n\
         \x20                  load a TOML/JSON scenario document as the base configuration\n\
         \x20                  (device, seed, duration, gpu_policy, fault_seed and tenant specs;\n\
         \x20                  serving-only fields are ignored by this closed-loop tool);\n\
         \x20                  explicit flags override individual fields"
    }

    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            model: String::new(),
            precision: Precision::Fp32,
            batch: 1,
            processes: 1,
            streams: 1,
            nsight: false,
            chrome_trace: None,
            scenario: ScenarioSpec::default(),
        };
        let mut flags = ScenarioFlags::default();
        let mut workload_flags = false;
        let mut argv = FlagCursor::new(argv);
        while let Some((key, mut value)) = argv.next_flag() {
            match key.as_str() {
                "--scenario" | "--tenant" | "--device" | "--duration" | "--seed" => {
                    flags.accept(&key, &mut value, &mut argv)?;
                }
                "--faults" => flags.faults(value)?,
                "--gpu-policy" => flags.gpu_policy(argv.require(&mut value)?)?,
                "--model" | "--onnx" => {
                    workload_flags = true;
                    args.model = argv.require(&mut value)?;
                }
                "--int8" | "--fp16" | "--tf32" | "--fp32" => {
                    workload_flags = true;
                    args.precision = key[2..]
                        .parse()
                        .expect("each precision flag names a precision");
                }
                "--batch" => {
                    workload_flags = true;
                    args.batch = argv
                        .require(&mut value)?
                        .parse()
                        .map_err(|e| format!("bad --batch: {e}"))?
                }
                "--processes" => {
                    workload_flags = true;
                    args.processes = argv
                        .require(&mut value)?
                        .parse()
                        .map_err(|e| format!("bad --processes: {e}"))?
                }
                "--streams" => {
                    workload_flags = true;
                    args.streams = argv
                        .require(&mut value)?
                        .parse()
                        .map_err(|e| format!("bad --streams: {e}"))?
                }
                "--nsight" => args.nsight = true,
                "--chrome-trace" => args.chrome_trace = Some(argv.require(&mut value)?),
                "--help" | "-h" => return Err(Args::usage().to_string()),
                other => return Err(format!("unknown flag `{other}`\n{}", Args::usage())),
            }
        }
        if flags.has_tenant_flags() && workload_flags {
            return Err(format!(
                "--tenant cannot be combined with --model/--batch/--processes/--streams \
                 or precision flags (each tenant spec carries its own)\n{}",
                Args::usage()
            ));
        }
        args.scenario = flags.merged()?;
        if workload_flags {
            // A --model invocation on top of a scenario file keeps the
            // scenario's device/seed/duration but swaps the workload.
            args.scenario.tenants = None;
        }
        if args.tenant_specs().is_empty() && args.model.is_empty() {
            return Err(format!(
                "--model, --tenant or --scenario is required\n{}",
                Args::usage()
            ));
        }
        Ok(args)
    }

    /// The tenant spec strings of the merged scenario.
    fn tenant_specs(&self) -> Vec<&str> {
        self.scenario
            .tenants
            .iter()
            .flatten()
            .filter_map(|t| t.spec.as_deref())
            .collect()
    }
}

fn run(args: Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let sc = &args.scenario;
    let platform = sc.platform()?;
    let specs = args.tenant_specs();
    let deployment = if specs.is_empty() {
        None
    } else {
        let mut d = Deployment::new();
        for spec in specs {
            d = d.tenant(Tenant::parse(spec)?);
        }
        Some(d)
    };
    let gpu_policy: GpuPolicy = match &sc.gpu_policy {
        Some(policy) => policy
            .parse()
            .map_err(|e| format!("bad gpu_policy `{policy}`: {e}"))?,
        None => GpuPolicy::TimesliceRR,
    };

    let warmup = SimDuration::from_millis(500);
    let measure = parse_window(warmup, sc.duration.as_deref(), SimDuration::from_secs(2))?;
    let mut builder = if let Some(d) = &deployment {
        writeln!(out, "=== Deployment ===")?;
        writeln!(
            out,
            "{} tenant(s), {} process(es): {}",
            d.len(),
            d.total_processes(),
            d.label()
        )?;
        for tenant in d.tenants() {
            let engine = tenant.build_engine(&platform)?;
            writeln!(
                out,
                "  {} x{}: {} | {} kernels | engine {:.1} MiB + workspace {:.1} MiB",
                tenant.label(),
                tenant.instances(),
                tenant.model().stats(),
                engine.kernel_count(),
                engine.engine_bytes() as f64 / (1024.0 * 1024.0),
                engine.workspace_bytes() as f64 / (1024.0 * 1024.0),
            )?;
        }
        d.config_builder(&platform, ArrivalModel::Saturated)?
    } else {
        let model = if args.model.ends_with(".json") {
            jetsim::plan::load_model(&args.model)
                .map_err(|e| format!("cannot load model file `{}`: {e}", args.model))?
        } else {
            zoo::by_name(&args.model).ok_or_else(|| format!("unknown model `{}`", args.model))?
        };
        let cache = jetsim_trt::EngineCache::global();
        let misses_before = cache.stats().misses;
        let build_start = std::time::Instant::now();
        let engine = platform.build_engine(&model, args.precision, args.batch)?;
        let build_secs = build_start.elapsed().as_secs_f64();
        let cache_state = if cache.stats().misses > misses_before {
            "compiled"
        } else {
            "cache hit"
        };

        writeln!(out, "=== Model Options ===")?;
        writeln!(out, "Model: {} ({})", model.name(), model.stats())?;
        writeln!(out, "=== Build Options ===")?;
        writeln!(
            out,
            "Precision: {} (engine runs {:.0}% of FLOPs at the requested format)",
            args.precision,
            engine.requested_precision_flop_fraction() * 100.0
        )?;
        writeln!(
            out,
            "Batch: {} | Kernels after fusion: {}",
            args.batch,
            engine.kernel_count()
        )?;
        writeln!(
            out,
            "Engine size: {:.1} MiB | workspace {:.1} MiB",
            engine.engine_bytes() as f64 / (1024.0 * 1024.0),
            engine.workspace_bytes() as f64 / (1024.0 * 1024.0),
        )?;
        writeln!(
            out,
            "Engine build: {:.1} ms ({cache_state}; {} engine(s) cached this process)",
            build_secs * 1e3,
            cache.len()
        )?;
        // A process's `--streams` contexts share its memory group, named
        // by the pid of its first stream.
        let streams = args.streams.max(1) as usize;
        (0..args.processes as usize * streams).fold(
            SimConfig::builder(platform.device().clone()),
            |builder, pid| {
                let (group, stream) = (pid - pid % streams, pid % streams);
                let name = format!("p{group}s{stream}");
                builder.add_process(ProcessConfig::new(name, Arc::clone(&engine), group))
            },
        )
    }
    .warmup(warmup)
    .measure(measure)
    .seed(sc.seed_or_default())
    .gpu_policy(gpu_policy)
    .profiler(if args.nsight {
        ProfilerMode::Nsight
    } else {
        ProfilerMode::Lightweight
    });
    writeln!(out, "=== Device ===")?;
    writeln!(out, "{platform}")?;
    if gpu_policy != GpuPolicy::TimesliceRR {
        writeln!(out, "GPU scheduling policy: {gpu_policy}")?;
    }

    if let Some(fault_seed) = sc.fault_seed {
        let horizon = SimDuration::from_secs_f64(warmup.as_secs_f64() + measure.as_secs_f64());
        let plan = cli_fault_plan(fault_seed, horizon);
        writeln!(out, "=== Fault Plan (seed {fault_seed}) ===")?;
        writeln!(
            out,
            "{} memory spike(s), {} throttle lock(s), OOM policy: kill-largest",
            plan.memory_spikes.len(),
            plan.throttle_locks.len()
        )?;
        builder = builder.faults(plan);
    }
    let config = builder.build()?;
    let trace = Simulation::new(config)?.run();

    writeln!(out, "\n=== Performance Summary ===")?;
    writeln!(
        out,
        "Throughput: {:.2} qps (total), {:.2} qps/process",
        trace.total_throughput(),
        trace.throughput_per_process()
    )?;
    for p in &trace.processes {
        writeln!(
            out,
            "{}: EC mean {} | median {} | p95 {} | p99 {} (launch {}, sync {}, blocking {})",
            p.name,
            p.mean_ec_time,
            p.p50_ec_time,
            p.p95_ec_time,
            p.p99_ec_time,
            p.mean_launch_time,
            p.mean_sync_time,
            p.mean_blocking_time,
        )?;
    }
    if !trace.preemptions.is_empty() {
        writeln!(out, "Kernel preemptions: {}", trace.preemptions.len())?;
    }
    writeln!(out, "\n=== jetson-stats ===")?;
    writeln!(
        out,
        "{}",
        jetsim_profile::JetsonStatsReport::from_trace(&trace)
    )?;

    if let Some(d) = &deployment {
        writeln!(out, "\n=== Per-Tenant Summary ===")?;
        for tenant in TenantMetrics::from_trace(&trace, d) {
            writeln!(out, "{tenant}")?;
        }
    }

    if sc.fault_seed.is_some() {
        writeln!(out, "\n=== Fault Events ===")?;
        if trace.fault_events.is_empty() {
            writeln!(out, "(none fired inside the simulated window)")?;
        }
        for event in &trace.fault_events {
            let t_ms = event.time.as_micros_f64() / 1e3;
            match &event.kind {
                FaultKind::MemorySpikeStart { bytes } => writeln!(
                    out,
                    "[{t_ms:9.3} ms] memory spike +{:.0} MiB",
                    *bytes as f64 / (1024.0 * 1024.0)
                )?,
                FaultKind::MemorySpikeEnd { bytes } => writeln!(
                    out,
                    "[{t_ms:9.3} ms] memory spike released -{:.0} MiB",
                    *bytes as f64 / (1024.0 * 1024.0)
                )?,
                FaultKind::ThrottleLockStart { step, mhz } => writeln!(
                    out,
                    "[{t_ms:9.3} ms] throttle lock: GPU pinned to step {step} ({mhz} MHz)"
                )?,
                FaultKind::ThrottleLockEnd => writeln!(
                    out,
                    "[{t_ms:9.3} ms] throttle lock released; governor resumes"
                )?,
                FaultKind::ProcessKilled {
                    pid,
                    name,
                    freed_bytes,
                } => writeln!(
                    out,
                    "[{t_ms:9.3} ms] OOM killer: {name} (pid {pid}) killed, {:.0} MiB freed",
                    *freed_bytes as f64 / (1024.0 * 1024.0)
                )?,
                _ => writeln!(out, "[{t_ms:9.3} ms] fault: {:?}", event.kind)?,
            }
        }
        if trace.killed_processes() > 0 {
            writeln!(
                out,
                "{} of {} processes killed; surviving throughput {:.2} qps",
                trace.killed_processes(),
                trace.processes.len(),
                trace.surviving_throughput()
            )?;
        }
    }

    if args.nsight {
        if let Some(report) = NsightReport::from_trace(&trace) {
            writeln!(out, "\n=== Nsight Systems ===")?;
            writeln!(out, "{report}")?;
        }
    }

    if let Some(path) = args.chrome_trace {
        std::fs::write(&path, chrome_trace::to_chrome_trace(&trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "\nchrome trace written to {path} (open in ui.perfetto.dev)"
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    cli_main(Args::parse, run)
}
