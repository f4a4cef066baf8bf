//! Integration tests for the `jetsim-serve` CLI binary: resilience flag
//! parsing, fault-injection determinism, flag/file equivalence, and a
//! fresh process against an in-process run.

use std::process::{Command, Stdio};

use jetsim_serve::{build_serve_spec, ScenarioSpec};

fn serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jetsim-serve"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A short faulted, fully-resilient run on the Jetson Nano.
fn chaos_args(fault_seed: &str) -> Vec<String> {
    [
        "--tenant",
        "resnet50:fp16:1:2",
        "--arrival",
        "poisson:40",
        "--device",
        "jetson-nano",
        "--slo",
        "100ms",
        "--warmup",
        "200ms",
        "--duration",
        "1s",
        "--deadline",
        "400ms",
        "--retry=3",
        "--recovery=2",
        "--breaker=shed",
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([format!("--faults={fault_seed}")])
    .collect()
}

#[test]
fn faulted_resilient_runs_are_deterministic() {
    let args: Vec<String> = chaos_args("99");
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let a = serve(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = serve(&args);
    assert!(b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "same seed and fault plan must emit byte-identical JSON reports"
    );
    // The report carries the resilience accounting fields.
    let json = String::from_utf8_lossy(&a.stdout);
    for field in [
        "deadline_hit_rate",
        "retry_amplification",
        "replica_restarts",
        "killed_inflight",
        "breaker_rejected",
    ] {
        assert!(json.contains(field), "report missing `{field}`: {json}");
    }
}

#[test]
fn a_different_fault_seed_changes_the_timeline() {
    let a_args: Vec<String> = chaos_args("99");
    let b_args: Vec<String> = chaos_args("100");
    let a = serve(&a_args.iter().map(String::as_str).collect::<Vec<_>>());
    let b = serve(&b_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(a.status.success() && b.status.success());
    assert_ne!(
        a.stdout, b.stdout,
        "a different fault seed must draw a different fault timeline"
    );
}

#[test]
fn resilience_flags_parse_with_defaults_and_values() {
    let out = serve(&[
        "--tenant",
        "resnet50:int8:1",
        "--arrival",
        "poisson:100",
        "--duration",
        "500ms",
        "--warmup",
        "100ms",
        "--retry",
        "--hedge=auto",
        "--breaker=brownout",
        "--recovery",
        "--deadline",
        "200ms",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_resilience_flags_fail_cleanly() {
    let out = serve(&["--tenant", "resnet50:int8:1", "--breaker=sometimes"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--breaker"), "{stderr}");

    let out = serve(&["--tenant", "resnet50:int8:1", "--retry=many"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--retry"), "{stderr}");
}

/// Flags that reach every replica start path: OOM recovery, groups that
/// scale from zero, and a fault plan seeded by `--seed`.
const ORIGIN_FLAGS: [&str; 16] = [
    "--tenant",
    "resnet50:int8:1:2",
    "--arrival",
    "poisson:60",
    "--tenant",
    "mobilenet_v2:fp16:1:2",
    "--arrival",
    "poisson:30",
    "--slo",
    "50ms",
    "--duration",
    "1s",
    "--recovery",
    "--autoscale",
    "0:2",
    "--faults",
];

/// The same scenario given as flags or as its `--dump-scenario`
/// document under `--scenario` prints the same bytes, at every seed.
#[test]
fn flags_and_dumped_scenario_agree_over_seeds() {
    for seed in 1..=8 {
        let seed = seed.to_string();
        let from_flags = serve(&[&ORIGIN_FLAGS[..], &["--seed", &seed, "--json"]].concat());
        assert!(
            from_flags.status.success(),
            "{}",
            String::from_utf8_lossy(&from_flags.stderr)
        );
        let dump = serve(&[&ORIGIN_FLAGS[..], &["--seed", &seed, "--dump-scenario"]].concat());
        assert!(dump.status.success());
        let path = std::env::temp_dir().join(format!(
            "jetsim_serve_origin_{seed}_{}.toml",
            std::process::id()
        ));
        std::fs::write(&path, &dump.stdout).expect("scenario written");
        let from_file = serve(&["--scenario", &path.display().to_string(), "--json"]);
        std::fs::remove_file(&path).ok();
        assert!(
            from_file.status.success(),
            "{}",
            String::from_utf8_lossy(&from_file.stderr)
        );
        assert_eq!(
            from_flags.stdout, from_file.stdout,
            "seed {seed}: flags and their scenario document diverged"
        );
    }
}

/// The benchmark's chaos scenario: OOM recovery, auto hedging, a
/// brownout breaker and a scale-to-zero group.
const SERVE_CHAOS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../benchmark/workloads/serve_chaos.toml"
);

/// A fresh `jetsim-serve --scenario serve_chaos.toml --duration 2s
/// --json` prints exactly the pretty JSON of the same document run in
/// this process, whose engine cache other tests may already have filled.
#[test]
fn cli_run_matches_an_in_process_run() {
    let out = serve(&["--scenario", SERVE_CHAOS, "--duration", "2s", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut doc: ScenarioSpec = std::fs::read_to_string(SERVE_CHAOS)
        .expect("scenario file reads")
        .parse()
        .expect("scenario parses");
    doc.duration = Some("2s".to_string());
    let report = build_serve_spec(&doc)
        .expect("scenario resolves")
        .run()
        .expect("serve run");
    let expected = serde_json::to_string_pretty(&report).expect("report serialises") + "\n";
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "the CLI and an in-process run of the same document diverged"
    );
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The reader is gone before the child starts, so its first write
    // fails with a broken pipe, as under `| true` but without the race.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_jetsim-serve"))
        .args([
            "--tenant",
            "resnet50:int8:1",
            "--duration",
            "200ms",
            "--json",
        ])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn window_past_the_clock_is_an_error_not_a_panic() {
    // The zero-warmup cases matter: saturated to `u64::MAX` ns,
    // `1e300s` alone would fit the clock exactly and the run would start.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("jetsim_serve_window_{}.toml", std::process::id()));
    let path_w0 = dir.join(format!(
        "jetsim_serve_window_w0_{}.toml",
        std::process::id()
    ));
    let toml = "duration = \"1e300s\"\n\n[[tenants]]\nspec = \"resnet50:int8:1\"\n";
    std::fs::write(&path, toml).expect("scenario written");
    std::fs::write(&path_w0, format!("warmup = \"0s\"\n{toml}")).expect("scenario written");
    // A flag is rejected while argv is read, like any malformed
    // duration; a scenario file's duration when the run is resolved.
    let outs = [
        (
            "bad duration ",
            serve(&["--tenant", "resnet50:int8:1", "--duration", "1e300s"]),
        ),
        (
            "bad duration ",
            serve(&[
                "--tenant",
                "resnet50:int8:1",
                "--warmup",
                "0s",
                "--duration",
                "1e300s",
            ]),
        ),
        (
            "error: ",
            serve(&["--scenario", &path.display().to_string()]),
        ),
        (
            "error: ",
            serve(&["--scenario", &path_w0.display().to_string()]),
        ),
    ];
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path_w0).ok();
    for (prefix, out) in outs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.starts_with(prefix) && stderr.contains("`1e300s`"),
            "{stderr}"
        );
    }
}

#[test]
fn a_centuries_long_window_is_refused_before_it_runs() {
    // The window fits the clock after the 500 ms warmup, but its ~1.8e12
    // expected requests overflow the `u32` index a request record
    // carries, so the plan is refused before the run starts. Were it
    // not, the run would allocate until killed: the child gets a
    // deadline.
    let mut child = Command::new(env!("CARGO_BIN_EXE_jetsim-serve"))
        .args([
            "--tenant",
            "resnet50:int8:1:2",
            "--duration",
            "18446744073s",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().expect("child state").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("the centuries-long window started running");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: invalid serve plan: ") && stderr.contains("request records"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn an_unbuildable_tenant_is_named() {
    let out = serve(&[
        "--tenant",
        "resnet50:int8:1:2",
        "--tenant",
        "yolov8n:fp16:300",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("tenant yolov8n:fp16:b300: engine build failed"),
        "{stderr}"
    );
}
