//! The paper's reported numbers: each test runs the rows of the paper
//! oracle ([`jetsim::observations`]) that pin one of them, so tier-1
//! checks exactly what `validate_anchors` reports.

#[macro_use]
mod support;

use jetsim::observations;

paper_tests! {
    anchor_fcn_fp16_orin_throughput => ["fcn-fp16-orin"],
    anchor_fcn_tf32_orin_throughput => ["fcn-tf32-orin"],
    anchor_fcn_power_orin => ["fcn-fp16-power", "fcn-tf32-power"],
    anchor_resnet_int8_speedup_over_fp32_orin => ["resnet-int8-speedup"],
    anchor_fcn_int8_speedup_over_fp32_orin => ["fcn-int8-speedup"],
    anchor_yolo_int8_speedup_smallest_of_the_three => [
        "yolo-int8-speedup",
        "yolo-speedup-smallest",
    ],
    anchor_yolo_int8_orin_tp_range => ["yolo-tp-b1", "yolo-tp-batch-gain", "yolo-tp-p8"],
    anchor_yolo_fp16_nano_throughput => ["yolo-nano-fp16", "yolo-nano-batch-gain"],
    anchor_nano_resnet_power_per_image => [
        "nano-fp16-j-per-img",
        "nano-int8-j-per-img",
        "nano-fp16-half-energy",
    ],
    anchor_resnet_fp16_orin_memory_below_3_percent => ["resnet-fp16-busy-gpu"],
    anchor_fp32_memory_ratio_over_int8 => [
        "resnet-mem-ratio",
        "fcn-mem-ratio",
        "yolo-mem-ratio",
        "yolo-mem-ratio-smallest",
    ],
    anchor_sixteen_yolo_processes_exceed_35_percent_memory => ["yolo-16-proc-memory"],
    anchor_nsight_intrusion_near_half => ["nsight-intrusion"],
    anchor_kernel_launch_in_paper_band => ["launch-p1", "launch-p8", "launch-stretches"],
    anchor_blocking_interval_one_to_two_ms => ["blocking-p8"],
}

/// Every row of the oracle is claimed by a test in this file or in
/// `paper_observations.rs`, so no row goes unchecked by tier-1.
#[test]
fn every_oracle_row_is_claimed_by_a_test() {
    let sources = [
        include_str!("calibration_anchors.rs"),
        include_str!("paper_observations.rs"),
    ];
    let unclaimed: Vec<&str> = observations::row_ids()
        .filter(|id| !sources.iter().any(|s| s.contains(&format!("\"{id}\""))))
        .collect();
    assert!(unclaimed.is_empty(), "rows no test claims: {unclaimed:?}");
}
