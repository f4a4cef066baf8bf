//! `SimConfig` assembly and validation: naming, memory footprints and
//! their OOM admission, stream contexts, run windows and dynamics
//! ranges, through the public builder.

mod support;

use std::sync::Arc;

use jetsim_des::SimDuration;
use jetsim_device::{presets, DeviceSpec};
use jetsim_dnn::{zoo, ModelGraph, Precision};
use jetsim_sim::{FaultPlan, GpuPolicy, ProcessConfig, SimConfig, SimError, Simulation};
use jetsim_trt::{Engine, EngineBuilder};

fn engine(
    device: &DeviceSpec,
    model: &ModelGraph,
    precision: Precision,
    batch: u32,
) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new(device)
            .precision(precision)
            .batch(batch)
            .build(model)
            .unwrap(),
    )
}

#[test]
fn builder_produces_named_processes() {
    let device = presets::orin_nano();
    let config = SimConfig::builder(device.clone())
        .add_process(ProcessConfig::new(
            "p0",
            engine(&device, &zoo::resnet50(), Precision::Int8, 1),
            0,
        ))
        .add_process(ProcessConfig::new(
            "p1",
            engine(&device, &zoo::yolov8n(), Precision::Int8, 1),
            1,
        ))
        .build()
        .unwrap();
    let names: Vec<&str> = config.processes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["p0", "p1"]);
}

#[test]
fn shared_engine_processes_each_pay_memory() {
    let one = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    )
    .build()
    .unwrap();
    let four = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        4,
    )
    .build()
    .unwrap();
    assert_eq!(four.gpu_memory_bytes(), 4 * one.gpu_memory_bytes());
    assert_eq!(
        four.total_footprint_bytes(),
        4 * one.total_footprint_bytes()
    );
}

#[test]
fn fcn_overdeployment_on_nano_ooms() {
    // Paper §6.2.1: 4 FCN processes exhaust the Jetson Nano and
    // reboot it, while 4 ResNet50 processes deploy safely.
    let fcn = support::processes(
        presets::jetson_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp16,
        1,
        4,
    )
    .build();
    assert!(matches!(fcn, Err(SimError::OutOfMemory { .. })), "{fcn:?}");

    let resnet = support::processes(
        presets::jetson_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        4,
    )
    .build();
    assert!(resnet.is_ok(), "{resnet:?}");
}

#[test]
fn kill_policy_admits_the_fcn_overdeployment() {
    // Same deployment as `fcn_overdeployment_on_nano_ooms`, but under
    // `OomPolicy::KillLargest` admission succeeds: the OOM killer
    // resolves the overcommit at runtime instead of erroring here.
    let config = support::processes(
        presets::jetson_nano(),
        &zoo::fcn_resnet50(),
        Precision::Fp16,
        1,
        4,
    )
    .faults(FaultPlan::kill_largest_on_oom())
    .build();
    assert!(config.is_ok(), "{config:?}");
}

#[test]
fn strict_policy_counts_scheduled_spikes_against_memory() {
    // 4 ResNet50 processes fit on the Nano on their own, but a
    // scheduled 3 GiB background spike pushes the peak footprint
    // over the edge — strict admission must reject it up front.
    let spike = FaultPlan::new().memory_spike(
        jetsim_des::SimTime::from_nanos(500_000_000),
        SimDuration::from_millis(100),
        3 * 1024 * 1024 * 1024,
    );
    let config = support::processes(
        presets::jetson_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        4,
    )
    .faults(spike)
    .build();
    assert!(
        matches!(config, Err(SimError::OutOfMemory { .. })),
        "{config:?}"
    );
}

#[test]
fn sixteen_yolo_processes_fit_on_orin() {
    let config = support::processes(
        presets::orin_nano(),
        &zoo::yolov8n(),
        Precision::Int8,
        16,
        16,
    )
    .build();
    assert!(config.is_ok(), "{config:?}");
    let config = config.unwrap();
    let percent = config.device.memory.gpu_percent(config.gpu_memory_bytes());
    assert!(
        percent > 30.0,
        "paper fig 6: >35% GPU memory, got {percent:.1}"
    );
}

#[test]
fn streams_share_process_memory() {
    let device = presets::orin_nano();
    let engine = engine(&device, &zoo::yolov8n(), Precision::Int8, 4);
    // Four stream contexts of one OS process share its memory group;
    // four processes each take their own.
    let config = |group: fn(usize) -> usize| {
        (0..4)
            .fold(SimConfig::builder(device.clone()), |b, pid| {
                b.add_process(ProcessConfig::new(
                    format!("p{pid}"),
                    Arc::clone(&engine),
                    group(pid),
                ))
            })
            .build()
            .unwrap()
    };
    let streams = config(|_| 0);
    let processes = config(|pid| pid);
    assert_eq!(streams.processes.len(), 4);
    assert!(
        streams.gpu_memory_bytes() < processes.gpu_memory_bytes() / 2,
        "streams {} vs processes {}",
        streams.gpu_memory_bytes(),
        processes.gpu_memory_bytes()
    );
    assert!(streams.total_footprint_bytes() < processes.total_footprint_bytes() / 2);
}

#[test]
fn streams_keep_throughput_at_a_fraction_of_the_memory() {
    let device = presets::orin_nano();
    let engine = engine(&device, &zoo::resnet50(), Precision::Int8, 1);
    let run = |streams: usize| {
        let builder = (0..streams).fold(SimConfig::builder(device.clone()), |b, s| {
            b.add_process(ProcessConfig::new(
                format!("p0s{s}"),
                Arc::clone(&engine),
                0,
            ))
        });
        let config = builder
            .warmup(SimDuration::from_millis(150))
            .measure(SimDuration::from_millis(700))
            .build()
            .unwrap();
        Simulation::new(config).unwrap().run()
    };
    let (one, two) = (run(1), run(2));
    // A single saturated stream already fills this GPU, so the
    // second stream buys no throughput — but it must not collapse
    // either, and it costs only per-context buffers.
    let ratio = two.total_throughput() / one.total_throughput();
    assert!((0.8..1.2).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn total_time_is_warmup_plus_measure() {
    let config = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        1,
    )
    .warmup(SimDuration::from_millis(100))
    .measure(SimDuration::from_millis(400))
    .build()
    .unwrap();
    assert_eq!(config.total_time(), SimDuration::from_millis(500));
}

#[test]
fn window_past_the_clock_rejected_at_build_and_run() {
    // `from_secs_f64` saturates, so a huge duration arrives as
    // u64::MAX ns and warmup + measure would overflow mid-run.
    let builder = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Fp16,
        1,
        1,
    )
    .warmup(SimDuration::from_millis(500))
    .measure(SimDuration::from_secs_f64(1e300));
    let err = builder.clone().build().unwrap_err();
    assert!(
        matches!(&err, SimError::InvalidConfig { reason } if reason.contains("overflows")),
        "{err:?}"
    );
    // A config assembled by hand skips the builder; the simulation
    // checks it again.
    let mut config = builder.measure(SimDuration::from_secs(1)).build().unwrap();
    config.measure = SimDuration::from_nanos(u64::MAX);
    let err = Simulation::new(config).err().expect("rejected");
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err:?}");
}

#[test]
fn closed_loop_window_past_the_record_cap_rejected() {
    // ~11.6 days of one ResNet50 int8 process fits the per-EC
    // durations a run keeps, but not one kernel event per kernel of
    // every EC; centuries fit neither.
    let builder = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    );
    let days = builder.clone().measure(SimDuration::from_secs(1_000_000));
    assert!(days.clone().record_kernel_events(false).build().is_ok());
    let centuries = builder.measure(SimDuration::from_secs(18_446_744_073));
    for (builder, record) in [(days, true), (centuries.clone(), true), (centuries, false)] {
        let err = builder.record_kernel_events(record).build().unwrap_err();
        let what = if record {
            "kernel events"
        } else {
            "EC durations"
        };
        assert!(
            matches!(&err, SimError::InvalidConfig { reason }
                if reason.contains("closed-loop") && reason.contains(what)),
            "{err:?}"
        );
    }
}

#[test]
fn out_of_range_overlap_rejected_at_build() {
    // Previously clamped silently at every dispatch; now a build error.
    for oe in [-0.1, 0.61, f64::NAN] {
        let err = support::processes(
            presets::orin_nano(),
            &zoo::resnet50(),
            Precision::Int8,
            1,
            1,
        )
        .gpu_policy(GpuPolicy::SpatialMps {
            overlap_efficiency: oe,
        })
        .build()
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err:?}");
    }
    let err = support::processes(
        presets::orin_nano(),
        &zoo::resnet50(),
        Precision::Int8,
        1,
        1,
    )
    .gpu_policy(GpuPolicy::FractionalMps {
        overlap_efficiency: 0.7,
    })
    .build()
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err:?}");
}

#[test]
fn in_range_overlap_accepted() {
    for oe in [0.0, 0.3, 0.6] {
        let ok = support::processes(
            presets::orin_nano(),
            &zoo::resnet50(),
            Precision::Int8,
            1,
            1,
        )
        .gpu_policy(GpuPolicy::SpatialMps {
            overlap_efficiency: oe,
        })
        .build();
        assert!(ok.is_ok(), "{ok:?}");
    }
}

#[test]
fn bad_sm_share_rejected_at_build() {
    for share in [0.0, -1.0, f64::INFINITY, f64::NAN] {
        let device = presets::orin_nano();
        let process = ProcessConfig {
            sm_share: share,
            ..ProcessConfig::new(
                "p0",
                engine(&device, &zoo::resnet50(), Precision::Int8, 1),
                0,
            )
        };
        let err = SimConfig::builder(device)
            .add_process(process)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err:?}");
    }
}
