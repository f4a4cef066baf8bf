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
    let path =
        std::env::temp_dir().join(format!("jetsim_fleet_window_{}.toml", std::process::id()));
    let toml = "duration = \"1e300s\"\n\n[[tenants]]\nspec = \"resnet50:int8:1:1\"\n";
    std::fs::write(&path, toml).expect("scenario written");
    let from_flag = fleet(&["--tenant", "resnet50:int8:1:1", "--duration", "1e300s"]);
    let from_file = fleet(&["--scenario", &path.display().to_string()]);
    std::fs::remove_file(&path).ok();
    for out in [from_flag, from_file] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("`1e300s`"),
            "{stderr}"
        );
    }
}
