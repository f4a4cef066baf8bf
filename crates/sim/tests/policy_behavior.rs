//! Behavioural tests of the GPU scheduling policy layer, exercised
//! through the public API: the default policy must be byte-identical to
//! an explicit `rr`, and preemption must conserve kernels — nothing
//! lost, nothing completed twice.

use std::sync::Arc;

use jetsim_des::SimDuration;
use jetsim_device::presets;
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::{GpuPolicy, ProcessConfig, SimConfig, Simulation};
use jetsim_trt::EngineBuilder;

/// Four ResNet50 int8 processes, two at priority 5 / share 2.0 and two
/// at the defaults — enough contention that a preemptive policy fires.
fn contended_config(policy: Option<GpuPolicy>) -> SimConfig {
    let device = presets::orin_nano();
    let engine = Arc::new(
        EngineBuilder::new(&device)
            .precision(Precision::Int8)
            .build(&zoo::resnet50())
            .expect("engine builds"),
    );
    let mut builder = SimConfig::builder(device)
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_millis(300));
    for pid in 0..4 {
        let weighted = pid % 2 == 0;
        builder = builder.add_process(ProcessConfig {
            priority: if weighted { 5 } else { 0 },
            sm_share: if weighted { 2.0 } else { 1.0 },
            ..ProcessConfig::new(format!("p{pid}"), Arc::clone(&engine), pid)
        });
    }
    if let Some(policy) = policy {
        builder = builder.gpu_policy(policy);
    }
    builder.build().expect("config builds")
}

#[test]
fn default_policy_is_byte_identical_to_explicit_rr() {
    let implicit = Simulation::new(contended_config(None)).unwrap().run();
    let explicit = Simulation::new(contended_config(Some("rr".parse().expect("known policy"))))
        .unwrap()
        .run();
    // RunTrace carries every event, sample and counter; identical Debug
    // renderings mean the policy seam changed nothing on the default
    // path.
    assert_eq!(format!("{implicit:?}"), format!("{explicit:?}"));
}

#[test]
fn preemption_conserves_kernels() {
    let policy: GpuPolicy = "priority".parse().expect("known policy");
    let trace = Simulation::new(contended_config(Some(policy)))
        .unwrap()
        .run();
    assert!(
        !trace.preemptions.is_empty(),
        "mixed priorities under contention must exercise the preemption path"
    );

    // No kernel completes twice: a preempted kernel re-runs from
    // scratch, so exactly one Done survives per (pid, ec_seq, index).
    let mut completions = std::collections::HashMap::new();
    for ev in &trace.kernel_events {
        *completions
            .entry((ev.pid, ev.ec_seq, ev.kernel_index))
            .or_insert(0u32) += 1;
    }
    assert!(
        completions.values().all(|&c| c == 1),
        "duplicate kernel completion"
    );

    // Stream order survives the front-of-queue re-queue: each process's
    // completions advance strictly in (ec_seq, kernel_index) order, so
    // no kernel was lost or reordered by a cancellation.
    let mut last: std::collections::HashMap<usize, (u64, usize)> = std::collections::HashMap::new();
    for ev in &trace.kernel_events {
        let key = (ev.ec_seq, ev.kernel_index);
        if let Some(prev) = last.insert(ev.pid, key) {
            assert!(
                prev < key,
                "pid {} completed {key:?} after {prev:?}",
                ev.pid
            );
        }
    }

    for cut in &trace.preemptions {
        // The trace clamps the cut instant so it never precedes the
        // (possibly deferred) kernel start.
        assert!(cut.preempted_at >= cut.start);
        // The winner outranks the victim by construction.
        assert_ne!(cut.by_pid, cut.pid);
        // A preempted kernel that later completed did so after the cut.
        if let Some(ev) = trace.kernel_events.iter().find(|ev| {
            (ev.pid, ev.ec_seq, ev.kernel_index) == (cut.pid, cut.ec_seq, cut.kernel_index)
        }) {
            assert!(ev.end >= cut.preempted_at, "completion predates its cut");
        }
    }
}

#[test]
fn every_policy_makes_progress() {
    for name in ["rr", "fifo", "priority", "mps"] {
        let policy: GpuPolicy = name.parse().expect("known policy");
        let trace = Simulation::new(contended_config(Some(policy)))
            .unwrap()
            .run();
        assert!(
            trace.total_throughput() > 0.0,
            "{name} starved every process"
        );
    }
}
