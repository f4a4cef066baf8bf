//! The paper's boxed observations: each test runs the rows of the paper
//! oracle ([`jetsim::observations`]) that check one of them, so tier-1
//! checks exactly what `validate_anchors` reports.

#[macro_use]
mod support;

paper_tests! {
    obs_611_int8_optimal_on_orin => ["obs-6.1.1-orin"],
    obs_611_fp16_optimal_on_nano => ["obs-6.1.1-nano"],
    obs_611_memory_grows_with_precision_on_orin => ["obs-6.1.1-mem"],
    obs_612_supported_format_cheapest_per_image_on_nano => ["obs-6.1.2"],
    obs_612_fp32_power_drops_below_tf32_on_orin => ["obs-6.1.2-dvfs"],
    obs_613_issue_slots_stall_on_every_model => ["obs-6.1.3"],
    obs_614_tc_activity_does_not_imply_throughput => ["obs-6.1.4"],
    obs_621_tp_scaling_for_every_model_on_orin => ["obs-6.2.1"],
    obs_622_power_capped_on_both_devices => ["obs-6.2.2-orin", "obs-6.2.2-nano"],
    obs_7_ec_stability_threshold_on_orin => ["obs-7"],
    obs_7_nano_ec_doubles_past_half_the_cores => ["nano-ec-doubling"],
    obs_7_batch_stabilizes_ec => ["obs-7-batch"],
}
