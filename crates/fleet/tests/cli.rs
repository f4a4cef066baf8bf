//! Integration tests for the `jetsim-fleet` CLI binary: how a run ends
//! when its output or its window cannot be honoured.

use std::process::{Command, Stdio};

fn fleet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jetsim-fleet"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The reader is gone before the child starts, so its first write
    // fails with a broken pipe, as under `| true` but without the race.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_jetsim-fleet"))
        .args([
            "--tenant",
            "resnet50:int8:1:1",
            "--sites",
            "2",
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
    let path = dir.join(format!("jetsim_fleet_window_{}.toml", std::process::id()));
    let path_w0 = dir.join(format!(
        "jetsim_fleet_window_w0_{}.toml",
        std::process::id()
    ));
    let toml = "duration = \"1e300s\"\n\n[[tenants]]\nspec = \"resnet50:int8:1:1\"\n";
    std::fs::write(&path, toml).expect("scenario written");
    std::fs::write(&path_w0, format!("warmup = \"0s\"\n{toml}")).expect("scenario written");
    // A flag is rejected while argv is read, like any malformed
    // duration; a scenario file's duration when the run is resolved.
    let outs = [
        (
            "bad duration ",
            fleet(&["--tenant", "resnet50:int8:1:1", "--duration", "1e300s"]),
        ),
        (
            "bad duration ",
            fleet(&[
                "--tenant",
                "resnet50:int8:1:1",
                "--warmup",
                "0s",
                "--duration",
                "1e300s",
            ]),
        ),
        (
            "error: ",
            fleet(&["--scenario", &path.display().to_string()]),
        ),
        (
            "error: ",
            fleet(&["--scenario", &path_w0.display().to_string()]),
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
fn an_unbuildable_tenant_is_named() {
    let out = fleet(&[
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
