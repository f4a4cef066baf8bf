//! Calibrated device presets for the paper's platforms.
//!
//! The effective arithmetic rates are *calibrated* against the paper's
//! reported throughputs (see `DESIGN.md` §5 and `EXPERIMENTS.md`), not
//! copied from datasheets: they already fold in the average efficiency
//! TensorRT engines achieve on each format.

use jetsim_des::SimDuration;

use crate::cpu::CpuCluster;
use crate::gpu::{FreqLadder, GpuArch, GpuGeneration};
use crate::memory::{gib, mib, UnifiedMemory};
use crate::per_precision::PerPrecision;
use crate::power::{DvfsPolicy, PowerModel, ThermalModel};
use crate::precision_support::PrecisionSupport;
use crate::spec::DeviceSpec;

/// The NVIDIA Jetson Orin Nano 8 GB (Ampere, 1024 CUDA cores, 32 tensor
/// cores) — the paper's primary platform.
///
/// # Examples
///
/// ```
/// use jetsim_device::presets;
///
/// let spec = presets::orin_nano();
/// assert_eq!(spec.gpu.cuda_cores(), 1024);
/// assert_eq!(spec.cpu.heavy_cores, 3);
/// ```
pub fn orin_nano() -> DeviceSpec {
    DeviceSpec {
        name: "Jetson Orin Nano".to_string(),
        gpu: GpuArch {
            generation: GpuGeneration::Ampere,
            sm_count: 8,
            cuda_cores_per_sm: 128,
            tensor_cores: 32,
            freq: FreqLadder::new(vec![306, 408, 510, 625]),
            // Calibration anchors: ResNet50 int8/fp32 ≈ 9.75×,
            // FCN fp16 ≈ 18.6 img/s and fp16/tf32 ≈ 2.7×.
            effective_gflops: PerPrecision::new(6000.0, 3000.0, 1100.0, 615.0),
            mem_bandwidth_gbps: 68.0,
            kernel_min_gap: SimDuration::from_micros(9),
            ctx_switch: SimDuration::from_micros(150),
            timeslice: SimDuration::from_millis(2),
        },
        cpu: CpuCluster {
            name: "6-core Arm Cortex-A78AE".to_string(),
            total_cores: 6,
            heavy_cores: 3,
            quantum: SimDuration::from_millis(3),
            ctx_switch: SimDuration::from_micros(15),
            enqueue_cost: SimDuration::from_micros(12),
            wakeup_base: SimDuration::from_micros(40),
            migration_cache_penalty: 1.6,
        },
        memory: UnifiedMemory {
            total_bytes: gib(8),
            os_reserved_bytes: mib(1536),
            per_process_host_bytes: mib(180),
            cuda_context_bytes: mib(80),
            trt_workspace_limit_bytes: mib(64),
        },
        precision_support: PrecisionSupport::ampere(),
        power: PowerModel {
            idle_w: 1.9,
            cpu_core_w: 0.25,
            // fp32's wide datapaths push the module past its 7 W budget at
            // full utilisation, which is what trips DVFS in fig 4.
            gpu_busy_w: PerPrecision::new(2.4, 2.8, 3.55, 5.6),
            tc_bonus_w: 1.3,
            mem_w: 0.25,
            freq_exponent: 2.2,
            budget_w: 7.0,
        },
        dvfs: DvfsPolicy::jetson_default(),
        thermal: ThermalModel::passively_cooled(),
    }
}

/// The NVIDIA Jetson Nano 4 GB (Maxwell, 128 CUDA cores, no tensor
/// cores) — the paper's entry-level platform.
///
/// # Examples
///
/// ```
/// use jetsim_device::presets;
/// use jetsim_dnn::Precision;
///
/// let spec = presets::jetson_nano();
/// assert!(!spec.gpu.has_tensor_cores());
/// assert!(!spec.precision_support.is_native(Precision::Int8));
/// ```
pub fn jetson_nano() -> DeviceSpec {
    DeviceSpec {
        name: "Jetson Nano".to_string(),
        gpu: GpuArch {
            generation: GpuGeneration::Maxwell,
            sm_count: 1,
            cuda_cores_per_sm: 128,
            tensor_cores: 0,
            freq: FreqLadder::new(vec![307, 460, 614, 768, 921]),
            // Calibration anchors: YoloV8n fp16 ≈ 20 img/s at batch 1,
            // ResNet50 fp16 power/image ≈ 0.125 W·s.
            effective_gflops: PerPrecision::new(118.0, 236.0, 118.0, 118.0),
            mem_bandwidth_gbps: 25.6,
            kernel_min_gap: SimDuration::from_micros(22),
            ctx_switch: SimDuration::from_micros(400),
            timeslice: SimDuration::from_millis(2),
        },
        cpu: CpuCluster {
            name: "4-core ARM Cortex-A57".to_string(),
            total_cores: 4,
            heavy_cores: 2,
            quantum: SimDuration::from_millis(4),
            ctx_switch: SimDuration::from_micros(30),
            enqueue_cost: SimDuration::from_micros(35),
            wakeup_base: SimDuration::from_micros(90),
            migration_cache_penalty: 1.8,
        },
        memory: UnifiedMemory {
            total_bytes: gib(4),
            os_reserved_bytes: mib(1280),
            // JetPack 4 eagerly initialises cuDNN/cuBLAS workspaces, so a
            // bare trtexec process weighs much more here than on Orin.
            per_process_host_bytes: mib(560),
            cuda_context_bytes: mib(40),
            trt_workspace_limit_bytes: mib(24),
        },
        precision_support: PrecisionSupport::maxwell(),
        power: PowerModel {
            idle_w: 1.2,
            cpu_core_w: 0.45,
            gpu_busy_w: PerPrecision::new(2.6, 2.2, 2.6, 2.6),
            tc_bonus_w: 0.0,
            mem_w: 0.5,
            freq_exponent: 2.2,
            budget_w: 5.0,
        },
        dvfs: DvfsPolicy::jetson_default(),
        thermal: ThermalModel::passively_cooled(),
    }
}

/// An NVIDIA A40-class data-centre GPU, used only by the edge-vs-cloud
/// offloading example (the paper's introduction cites 1000+ YoloV8n fp16
/// images/s on this card).
///
/// # Examples
///
/// ```
/// use jetsim_device::presets;
///
/// let spec = presets::cloud_a40();
/// assert!(spec.gpu.cuda_cores() > 10_000);
/// ```
pub fn cloud_a40() -> DeviceSpec {
    DeviceSpec {
        name: "Cloud A40".to_string(),
        gpu: GpuArch {
            generation: GpuGeneration::AmpereDatacenter,
            sm_count: 84,
            cuda_cores_per_sm: 128,
            tensor_cores: 336,
            freq: FreqLadder::new(vec![1305, 1740]),
            effective_gflops: PerPrecision::new(130_000.0, 70_000.0, 35_000.0, 18_000.0),
            mem_bandwidth_gbps: 696.0,
            kernel_min_gap: SimDuration::from_micros(4),
            ctx_switch: SimDuration::from_micros(25),
            timeslice: SimDuration::from_millis(2),
        },
        cpu: CpuCluster {
            name: "16-core x86 host".to_string(),
            total_cores: 16,
            heavy_cores: 12,
            quantum: SimDuration::from_millis(3),
            ctx_switch: SimDuration::from_micros(5),
            enqueue_cost: SimDuration::from_micros(4),
            wakeup_base: SimDuration::from_micros(15),
            migration_cache_penalty: 1.2,
        },
        memory: UnifiedMemory {
            total_bytes: gib(48),
            os_reserved_bytes: gib(2),
            per_process_host_bytes: mib(300),
            cuda_context_bytes: mib(300),
            trt_workspace_limit_bytes: gib(1),
        },
        precision_support: PrecisionSupport::ampere(),
        power: PowerModel {
            idle_w: 40.0,
            cpu_core_w: 4.0,
            gpu_busy_w: PerPrecision::new(150.0, 170.0, 200.0, 230.0),
            tc_bonus_w: 40.0,
            mem_w: 30.0,
            freq_exponent: 2.2,
            budget_w: 300.0,
        },
        dvfs: DvfsPolicy::jetson_default(),
        thermal: ThermalModel::passively_cooled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_dnn::Precision;

    #[test]
    fn orin_matches_table1() {
        let spec = orin_nano();
        assert_eq!(spec.gpu.cuda_cores(), 1024);
        assert_eq!(spec.gpu.tensor_cores, 32);
        assert_eq!(spec.cpu.total_cores, 6);
        assert_eq!(spec.memory.total_bytes, gib(8));
        assert_eq!(spec.power.budget_w, 7.0);
    }

    #[test]
    fn nano_matches_table1() {
        let spec = jetson_nano();
        assert_eq!(spec.gpu.cuda_cores(), 128);
        assert_eq!(spec.gpu.tensor_cores, 0);
        assert_eq!(spec.cpu.total_cores, 4);
        assert_eq!(spec.memory.total_bytes, gib(4));
        assert_eq!(spec.power.budget_w, 5.0);
    }

    #[test]
    fn orin_int8_speedup_anchor() {
        let gpu = orin_nano().gpu;
        let ratio = gpu.effective_gflops.value(Precision::Int8)
            / gpu.effective_gflops.value(Precision::Fp32);
        assert!((9.0..10.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn orin_fp16_tf32_anchor() {
        let gpu = orin_nano().gpu;
        let ratio = gpu.effective_gflops.value(Precision::Fp16)
            / gpu.effective_gflops.value(Precision::Tf32);
        assert!((2.4..3.1).contains(&ratio), "FCN fp16/tf32 ≈ 2.7: {ratio}");
    }

    #[test]
    fn nano_fp16_is_the_only_fast_format() {
        let gpu = jetson_nano().gpu;
        let fp16 = gpu.effective_gflops.value(Precision::Fp16);
        for p in [Precision::Int8, Precision::Tf32, Precision::Fp32] {
            assert!(fp16 > 1.5 * gpu.effective_gflops.value(p));
        }
    }

    #[test]
    fn nano_heavier_process_footprint_than_orin() {
        assert!(
            jetson_nano().memory.per_process_host_bytes
                > 2 * orin_nano().memory.per_process_host_bytes
        );
    }

    #[test]
    fn cloud_dwarfs_edge_throughput() {
        let cloud = cloud_a40().gpu;
        let orin = orin_nano().gpu;
        assert!(
            cloud.effective_gflops.value(Precision::Fp16)
                > 10.0 * orin.effective_gflops.value(Precision::Fp16)
        );
    }
}
