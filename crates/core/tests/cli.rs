//! Integration tests for the `jetsim-trtexec` CLI binary.

use std::process::{Command, Stdio};

fn trtexec(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jetsim-trtexec"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs a successful invocation and returns its stdout.
fn trtexec_ok(args: &[&str]) -> String {
    let out = trtexec(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn happy_path_prints_summary() {
    let stdout = trtexec_ok(&["--model=resnet50", "--int8", "--batch=2", "--duration=0.5"]);
    assert!(stdout.contains("Performance Summary"), "{stdout}");
    assert!(stdout.contains("Throughput:"));
    assert!(stdout.contains("jetson-stats"));
    assert!(stdout.contains("Jetson Orin Nano"));
}

#[test]
fn nsight_flag_adds_kernel_report() {
    let out = trtexec(&[
        "--model=mobilenet_v2",
        "--fp16",
        "--duration=0.5",
        "--nsight",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Nsight Systems"), "{stdout}");
    assert!(stdout.contains("SM"));
}

#[test]
fn nano_device_selected() {
    let out = trtexec(&[
        "--model=yolov8n",
        "--fp16",
        "--device=jetson-nano",
        "--duration=0.5",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Jetson Nano"), "{stdout}");
}

#[test]
fn unknown_model_fails_cleanly() {
    let out = trtexec(&["--model=alexnet"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown model"), "{stderr}");
}

#[test]
fn missing_model_shows_usage() {
    let out = trtexec(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_flag_rejected() {
    let out = trtexec(&["--model=resnet50", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn oom_deployment_reports_memory() {
    let out = trtexec(&[
        "--model=fcn_resnet50",
        "--fp16",
        "--device=jetson-nano",
        "--processes=4",
        "--duration=0.5",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MiB"), "{stderr}");
}

#[test]
fn chrome_trace_written() {
    let path = std::env::temp_dir().join(format!("jetsim_cli_trace_{}.json", std::process::id()));
    let arg = format!("--chrome-trace={}", path.display());
    let out = trtexec(&["--model=resnet18", "--int8", "--duration=0.5", &arg]);
    assert!(out.status.success());
    let json = std::fs::read_to_string(&path).expect("trace written");
    assert!(json.trim_start().starts_with('['));
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_file_loads() {
    let path = std::env::temp_dir().join(format!("jetsim_cli_model_{}.json", std::process::id()));
    jetsim::plan::save_model(&path, &jetsim_dnn::zoo::resnet18()).unwrap();
    let arg = format!("--model={}", path.display());
    assert!(trtexec_ok(&[&arg, "--fp16", "--duration=0.5"]).contains("resnet18"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn tenant_flags_run_a_heterogeneous_deployment() {
    let stdout = trtexec_ok(&[
        "--tenant=resnet50:int8:1:2",
        "--tenant=yolov8n:fp16:4",
        "--duration=0.5",
    ]);
    assert!(stdout.contains("=== Deployment ==="), "{stdout}");
    assert!(
        stdout.contains("resnet50:int8:b1x2+yolov8n:fp16:b4"),
        "{stdout}"
    );
    assert!(stdout.contains("resnet50:int8:b1/0"), "{stdout}");
    assert!(stdout.contains("resnet50:int8:b1/1"), "{stdout}");
    assert!(stdout.contains("yolov8n:fp16:b4/0"), "{stdout}");
    assert!(stdout.contains("Per-Tenant Summary"), "{stdout}");
}

#[test]
fn tenant_flag_rejects_workload_flags() {
    let out = trtexec(&["--tenant=resnet50:int8:1", "--model=resnet50"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot be combined"), "{stderr}");
}

#[test]
fn bad_tenant_spec_fails_cleanly() {
    let out = trtexec(&["--tenant=nonesuch:int8:1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad tenant spec"), "{stderr}");
}

#[test]
fn bad_tenant_spec_names_the_spec_and_teaches_the_grammar() {
    // A truncated spec must echo exactly what was typed plus the
    // expected shape — the error is the documentation.
    let out = trtexec(&["--tenant=resnet50:int8"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`resnet50:int8`"), "{stderr}");
    assert!(
        stderr.contains("model:precision:batch[:count[:priority]]"),
        "{stderr}"
    );

    // A bad field (unknown precision) gets the same treatment.
    let out = trtexec(&["--tenant=resnet50:int9:1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`resnet50:int9:1`"), "{stderr}");
    assert!(
        stderr.contains("model:precision:batch[:count[:priority]]"),
        "{stderr}"
    );
}

#[test]
fn streams_flag_creates_stream_contexts() {
    let out = trtexec(&[
        "--model=resnet50",
        "--int8",
        "--streams=2",
        "--duration=0.5",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("p0s0") && stdout.contains("p0s1"),
        "{stdout}"
    );
}

/// Runs `jetsim-trtexec --scenario=FILE ARGS...` over a temp file
/// holding `toml` and returns its stdout.
fn trtexec_scenario(name: &str, toml: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!("jetsim_cli_{name}_{}.toml", std::process::id()));
    std::fs::write(&path, toml).expect("scenario written");
    let scenario = format!("--scenario={}", path.display());
    let out = trtexec(&[&[scenario.as_str()], args].concat());
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The deployment of `scenario_matches_equivalent_flags` as a document.
const TENANTS_TOML: &str = "\
seed = 9
duration = \"0.5\"
gpu_policy = \"priority\"

[[tenants]]
spec = \"resnet50:int8:1:2\"

[[tenants]]
spec = \"yolov8n:fp16:4\"
";

#[test]
fn scenario_matches_equivalent_flags() {
    let flags = trtexec_ok(&[
        "--tenant=resnet50:int8:1:2",
        "--tenant=yolov8n:fp16:4",
        "--seed=9",
        "--duration=0.5",
        "--gpu-policy=priority",
    ]);
    let file = trtexec_scenario("equivalent", TENANTS_TOML, &[]);
    assert_eq!(
        flags, file,
        "flags and the equivalent file print the same bytes"
    );
}

#[test]
fn model_over_scenario_keeps_device_and_policy() {
    let toml = format!("device = \"jetson-nano\"\n{TENANTS_TOML}");
    let stdout = trtexec_scenario("model_over", &toml, &["--model=resnet18", "--int8"]);
    assert!(stdout.contains("Model: resnet18"), "{stdout}");
    assert!(!stdout.contains("=== Deployment ==="), "{stdout}");
    assert!(stdout.contains("Jetson Nano"), "file's device: {stdout}");
    assert!(
        stdout.contains("GPU scheduling policy: priority"),
        "{stdout}"
    );
}

#[test]
fn tenant_flags_replace_scenario_tenants() {
    let stdout = trtexec_scenario(
        "tenant_over",
        TENANTS_TOML,
        &["--tenant=mobilenet_v2:fp16:1"],
    );
    assert!(
        stdout.contains("1 tenant(s), 1 process(es): mobilenet_v2:fp16:b1"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("resnet50") && !stdout.contains("yolov8n"),
        "{stdout}"
    );
}

#[test]
fn unseeded_faults_take_the_scenario_seed() {
    let args = ["--model=resnet18", "--int8", "--duration=0.4", "--faults"];
    let stdout = trtexec_scenario("faults_seed", "seed = 21\n", &args);
    assert!(stdout.contains("=== Fault Plan (seed 21) ==="), "{stdout}");
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The reader is gone before the child starts, so its first write
    // fails with a broken pipe, as under `| head` but without the race.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_jetsim-trtexec"))
        .args(["--model=resnet50", "--int8", "--duration=0.2"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn other_stdout_write_errors_still_fail() {
    // Linux's /dev/full fails every write with "no space left".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_jetsim-trtexec"))
        .args(["--model=resnet50", "--int8", "--duration=0.2"])
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
}

#[test]
fn window_past_the_clock_is_an_error_not_a_panic() {
    let path = std::env::temp_dir().join(format!("jetsim_cli_window_{}.toml", std::process::id()));
    std::fs::write(&path, "duration = \"1e300s\"\n").expect("scenario written");
    let scenario = format!("--scenario={}", path.display());
    // A flag is rejected while argv is read, like any malformed
    // duration; a scenario file's duration when the run is resolved.
    let from_flag = trtexec(&["--model=resnet50", "--int8", "--duration=1e300s"]);
    let from_file = trtexec(&[&scenario, "--model=resnet50", "--int8"]);
    std::fs::remove_file(&path).ok();
    for (prefix, out) in [("bad duration ", from_flag), ("error: ", from_file)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.starts_with(prefix) && stderr.contains("`1e300s`"),
            "{stderr}"
        );
    }
}

#[test]
fn an_unbuildable_tenant_is_named() {
    let out = trtexec(&["--tenant=resnet50:int8:1:2", "--tenant=yolov8n:fp16:300"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: tenant yolov8n:fp16:b300: engine build failed"),
        "{stderr}"
    );
}

#[test]
fn a_centuries_long_window_is_refused_before_it_runs() {
    // The window fits the clock after the 500 ms warmup, but its
    // ~9e12 expected ECs of 57 kernel events each overflow what a run
    // may keep, so the config is refused before the run starts. Were it
    // not, the run would allocate until killed: the child gets a
    // deadline.
    let mut child = Command::new(env!("CARGO_BIN_EXE_jetsim-trtexec"))
        .args(["--model=resnet50", "--int8", "--duration=18446744073"])
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
        stderr.starts_with("error: invalid configuration: ")
            && stderr.contains("closed-loop processes"),
        "{stderr}"
    );
}
