//! `jetsim-benchmark`: the command line.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- all [--seed N] [--seconds S] [--trace] [--check]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--check]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A/ B/
//! ```

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use jetsim_benchmark::compare::{compare, parse_child_output};
use jetsim_benchmark::harness::{self, Options};
use jetsim_benchmark::workloads::Workload;
use jetsim_benchmark::{package_dir, DEFAULT_SECONDS, DEFAULT_SEED};
use serde_json::Value;

const USAGE: &str = "usage:
  jetsim-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--check]
      run one workload; the last stdout line is its JSON result
  jetsim-benchmark all [--seed N] [--seconds S] [--trace] [--check]
      run every workload in its own child process; writes out/results-<seed>.json
  jetsim-benchmark compare A/ B/
      judge the results files in B/ against those in A/
workloads: paper_grid, serve_steady, serve_chaos, fleet_scale";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => all(&parse_flags(&args[1..])?.options),
        Some("compare") => match &args[1..] {
            [a, b] => Ok(exit(compare(Path::new(a), Path::new(b))?)),
            _ => Err("compare takes two directories".to_string()),
        },
        _ => {
            let flags = parse_flags(args)?;
            let workload = flags.workload.ok_or("--workload is required")?;
            harness::run(workload, &flags.options)?.print();
            Ok(ExitCode::SUCCESS)
        }
    }
}

struct Flags {
    workload: Option<Workload>,
    options: Options,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            check: false,
        },
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload =
                    Some(Workload::by_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                flags.options.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                flags.options.seconds = seconds;
            }
            // `--trace` alone or `--trace 0|1`.
            "--trace" => {
                flags.options.trace = args
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--check" => flags.options.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, so each one's
/// peak RSS and engine cache are its own, then writes the results file.
fn all(opts: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if opts.check {
            child.arg("--check");
        }
        let output = child.output().map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let entry = if output.status.success() {
            parse_child_output(&stdout).map_err(|e| format!("{workload}: {e}"))?
        } else {
            eprintln!("{workload}: exited with {}", output.status);
            Value::Map(vec![("correct".into(), Value::Bool(false))])
        };
        ok &= entry.get_field("correct") == Some(&Value::Bool(true));
        entries.push((workload.to_string(), entry));
    }
    let results = Value::Map(vec![
        ("seed".into(), Value::U64(opts.seed)),
        ("seconds".into(), Value::F64(opts.seconds)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("workloads".into(), Value::Map(entries)),
    ]);
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("results-{}.json", opts.seed));
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(exit(ok))
}
