//! Built engines: fused kernel sequences with memory accounting.

use std::fmt;

use serde::{Deserialize, Serialize};

use jetsim_des::SimDuration;
use jetsim_device::GpuArch;
use jetsim_dnn::Precision;

use crate::kernel::KernelDesc;

/// A compiled inference engine for one model, precision and batch size.
///
/// Engines are immutable once built; create one per `(model, precision,
/// batch, device)` combination as `trtexec` does. Execution state (each
/// process's in-flight execution contexts) lives in the simulator.
///
/// # Examples
///
/// ```
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_trt::EngineBuilder;
///
/// let device = presets::orin_nano();
/// let engine = EngineBuilder::new(&device)
///     .precision(Precision::Int8)
///     .batch(8)
///     .build(&zoo::yolov8n())?;
/// let gpu_bytes = engine.gpu_memory_bytes(device.memory.cuda_context_bytes);
/// assert!(device.memory.gpu_percent(gpu_bytes) < 10.0, "paper §6.2.1");
/// # Ok::<(), jetsim_trt::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Engine {
    pub(crate) name: String,
    pub(crate) model_name: String,
    pub(crate) device_name: String,
    pub(crate) requested_precision: Precision,
    pub(crate) batch: u32,
    pub(crate) kernels: Vec<KernelDesc>,
    pub(crate) weight_bytes: u64,
    pub(crate) input_elements: u64,
    pub(crate) output_elements: u64,
    pub(crate) peak_im2col_elements: u64,
    pub(crate) workspace_limit_bytes: u64,
    pub(crate) activation_element_bytes: u64,
}

/// Fixed engine overhead beyond serialized weights (optimizer metadata,
/// plans, shape bindings).
const ENGINE_FIXED_OVERHEAD: u64 = 10 * 1024 * 1024;

/// TensorRT's serialized engines carry optimized weights plus per-layer
/// tactics; empirically ~1.3× the raw weight bytes.
const ENGINE_WEIGHT_FACTOR: f64 = 1.3;

impl Engine {
    /// The engine's name (`model_precision_bN`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source model's name.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The device this engine was built for.
    pub fn device_name(&self) -> &str {
        &self.device_name
    }

    /// The precision requested at build time (individual kernels may run
    /// wider after fallback — see [`Engine::precision_mix`]).
    pub fn requested_precision(&self) -> Precision {
        self.requested_precision
    }

    /// The fixed batch size the engine was optimised for.
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// The fused kernels, in execution order.
    pub fn kernels(&self) -> &[KernelDesc] {
        &self.kernels
    }

    /// Number of fused kernels per execution context.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Raw weight bytes at the assigned per-layer precisions.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// Size of the serialized engine (weights + plans) resident on the
    /// GPU once loaded.
    pub fn engine_bytes(&self) -> u64 {
        (self.weight_bytes as f64 * ENGINE_WEIGHT_FACTOR) as u64 + ENGINE_FIXED_OVERHEAD
    }

    /// Input/output buffer bytes: double-buffered because `trtexec`
    /// pre-enqueues one batch while another executes (paper §6.1.1's
    /// "2 × batch" term).
    pub fn io_bytes(&self) -> u64 {
        (self.input_elements + self.output_elements)
            * self.activation_element_bytes
            * u64::from(self.batch)
            * 2
    }

    /// Activation workspace bytes (im2col and scratch), capped by the
    /// builder workspace limit.
    pub fn workspace_bytes(&self) -> u64 {
        let raw = self.peak_im2col_elements * self.activation_element_bytes * u64::from(self.batch);
        raw.min(self.workspace_limit_bytes)
    }

    /// Total GPU-side allocation for one process running this engine with
    /// one execution context: CUDA context + engine + I/O + workspace.
    /// This is the quantity `jetson-stats` reports as GPU memory.
    pub fn gpu_memory_bytes(&self, cuda_context_bytes: u64) -> u64 {
        cuda_context_bytes + self.engine_bytes() + self.io_bytes() + self.workspace_bytes()
    }

    /// Total FLOPs for one execution context (one batched inference).
    pub fn flops_per_ec(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.flops * u64::from(self.batch))
            .sum()
    }

    /// The idealised EC duration on an uncontended GPU at frequency
    /// `step`: the sum of kernel execution times with no scheduling gaps.
    pub fn ideal_ec_time(&self, gpu: &GpuArch, step: usize) -> SimDuration {
        self.kernels
            .iter()
            .map(|k| k.exec_time(gpu, self.batch, step))
            .sum()
    }

    /// How many kernels run at each precision after fallback, in
    /// [`Precision::ALL`] order (zero-count formats omitted).
    pub fn precision_mix(&self) -> Vec<(Precision, usize)> {
        Precision::ALL
            .iter()
            .map(|&p| (p, self.kernels.iter().filter(|k| k.precision == p).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Fraction of per-EC FLOPs executed at the requested precision (1.0
    /// when nothing fell back).
    pub fn requested_precision_flop_fraction(&self) -> f64 {
        let total: u64 = self.kernels.iter().map(|k| k.flops).sum();
        if total == 0 {
            return 1.0;
        }
        let at_requested: u64 = self
            .kernels
            .iter()
            .filter(|k| k.precision == self.requested_precision)
            .map(|k| k.flops)
            .sum();
        at_requested as f64 / total as f64
    }

    /// Estimated wall time to deserialize this engine's plan file and
    /// stand up an execution context. Engines are built ahead of time
    /// and kept as plan files, so this is what a serve replica pays at
    /// every start and restart.
    pub fn load_cost_estimate(&self) -> SimDuration {
        let read_secs = self.engine_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        SimDuration::from_secs_f64(0.08 + read_secs)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} kernels, {:.1} MB engine, batch {}",
            self.name,
            self.kernel_count(),
            self.engine_bytes() as f64 / 1e6,
            self.batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use jetsim_device::presets;
    use jetsim_dnn::zoo;

    fn build(precision: Precision, batch: u32) -> Engine {
        EngineBuilder::new(&presets::orin_nano())
            .precision(precision)
            .batch(batch)
            .build(&zoo::resnet50())
            .expect("build")
    }

    #[test]
    fn engine_bytes_scale_with_precision() {
        let int8 = build(Precision::Int8, 1);
        let fp32 = build(Precision::Fp32, 1);
        assert!(fp32.engine_bytes() > 2 * int8.weight_bytes());
        assert!(fp32.weight_bytes() > 3 * int8.weight_bytes());
    }

    #[test]
    fn plan_load_cost_is_macroscopic() {
        let engine = build(Precision::Int8, 1);
        // A whole-engine operation, not a kernel.
        assert!(engine.load_cost_estimate().as_secs_f64() > 0.05);
    }

    #[test]
    fn io_bytes_double_buffer_batches() {
        let b1 = build(Precision::Fp16, 1);
        let b4 = build(Precision::Fp16, 4);
        assert_eq!(b4.io_bytes(), 4 * b1.io_bytes());
    }

    #[test]
    fn workspace_respects_limit() {
        let device = presets::orin_nano();
        let big = EngineBuilder::new(&device)
            .precision(Precision::Fp32)
            .batch(64)
            .build(&zoo::fcn_resnet50())
            .expect("build");
        assert_eq!(
            big.workspace_bytes(),
            device.memory.trt_workspace_limit_bytes
        );
    }

    #[test]
    fn gpu_memory_includes_all_parts() {
        let e = build(Precision::Fp16, 2);
        let ctx = 80 * 1024 * 1024;
        assert_eq!(
            e.gpu_memory_bytes(ctx),
            ctx + e.engine_bytes() + e.io_bytes() + e.workspace_bytes()
        );
    }

    #[test]
    fn flops_scale_with_batch() {
        let b1 = build(Precision::Fp16, 1);
        let b8 = build(Precision::Fp16, 8);
        assert_eq!(b8.flops_per_ec(), 8 * b1.flops_per_ec());
    }

    #[test]
    fn ideal_ec_time_positive_and_batch_helps() {
        let device = presets::orin_nano();
        let b1 = build(Precision::Fp16, 1);
        let b16 = build(Precision::Fp16, 16);
        let top = device.gpu.freq.top();
        let t1 = b1.ideal_ec_time(&device.gpu, top);
        let t16 = b16.ideal_ec_time(&device.gpu, top);
        assert!(t1 > SimDuration::ZERO);
        // One batch-16 EC beats 16 batch-1 ECs: batching raises
        // throughput.
        assert!(t16 < t1 * 16, "batch 16 {t16} vs batch 1 {t1}");
    }

    #[test]
    fn precision_mix_sums_to_kernel_count() {
        let e = build(Precision::Int8, 1);
        let total: usize = e.precision_mix().into_iter().map(|(_, n)| n).sum();
        assert_eq!(total, e.kernel_count());
    }

    #[test]
    fn resnet_int8_runs_mostly_at_int8_on_orin() {
        let e = build(Precision::Int8, 1);
        assert!(
            e.requested_precision_flop_fraction() > 0.9,
            "fraction = {}",
            e.requested_precision_flop_fraction()
        );
    }

    #[test]
    fn display_shows_name_and_kernels() {
        let e = build(Precision::Tf32, 1);
        let text = format!("{e}");
        assert!(text.contains("resnet50") && text.contains("kernels"));
    }
}
