//! The engine builder: fusion, precision assignment, memory planning.

use jetsim_device::DeviceSpec;
use jetsim_dnn::{LayerId, LayerKind, ModelGraph, Precision, TensorShape};

use crate::engine::Engine;
use crate::error::BuildError;
use crate::kernel::{KernelDesc, KernelKind};

/// The largest batch an engine can be built for.
const MAX_BATCH: u32 = 256;

/// Builds [`Engine`]s from model graphs for a specific device, mirroring
/// `trtexec`'s build phase. A build is a function of the device, model,
/// precision and batch (plus the [`EngineBuilder::fusion`] ablation
/// switch), the same inputs [`crate::EngineCache`] keys on.
///
/// # Examples
///
/// ```
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_trt::EngineBuilder;
///
/// let nano = presets::jetson_nano();
/// // int8 is not native on Maxwell: the engine silently builds with
/// // fp32 kernels, exactly as TensorRT does on the Jetson Nano.
/// let engine = EngineBuilder::new(&nano)
///     .precision(Precision::Int8)
///     .build(&zoo::resnet50())?;
/// assert_eq!(engine.requested_precision_flop_fraction(), 0.0);
/// # Ok::<(), jetsim_trt::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder<'d> {
    device: &'d DeviceSpec,
    precision: Precision,
    batch: u32,
    fusion: bool,
}

impl<'d> EngineBuilder<'d> {
    /// Creates a builder targeting `device` with fp32 precision and
    /// batch 1.
    pub fn new(device: &'d DeviceSpec) -> Self {
        EngineBuilder {
            device,
            precision: Precision::Fp32,
            batch: 1,
            fusion: true,
        }
    }

    /// Sets the requested precision (individual layers may still fall
    /// back per the device support matrix).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the fixed batch size the engine is optimised for.
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }

    /// Disables layer fusion, leaving one kernel per operator. Real
    /// TensorRT always fuses; this exists for the ablation benches that
    /// quantify what fusion buys on launch-bound workloads.
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.fusion = enabled;
        self
    }

    /// Compiles `model` into an engine.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidModel`] for malformed graphs and
    /// [`BuildError::ZeroBatch`] / [`BuildError::BatchTooLarge`] for bad
    /// batch sizes.
    pub fn build(&self, model: &ModelGraph) -> Result<Engine, BuildError> {
        model.validate()?;
        if self.batch == 0 {
            return Err(BuildError::ZeroBatch);
        }
        if self.batch > MAX_BATCH {
            return Err(BuildError::BatchTooLarge {
                requested: self.batch,
                limit: MAX_BATCH,
            });
        }

        let fusion = FusionPass::run(model, self.device, self.precision, self.fusion);
        let activation_element_bytes = self
            .device
            .precision_support
            .effective(self.precision)
            .activation_bytes();

        Ok(Engine {
            name: format!("{}_{}_b{}", model.name(), self.precision, self.batch),
            model_name: model.name().to_string(),
            device_name: self.device.name.clone(),
            requested_precision: self.precision,
            batch: self.batch,
            kernels: fusion.kernels,
            weight_bytes: fusion.weight_bytes,
            input_elements: model.input_shape().elements(),
            output_elements: fusion.output_elements,
            peak_im2col_elements: fusion.peak_im2col_elements,
            workspace_limit_bytes: self.device.memory.trt_workspace_limit_bytes,
            activation_element_bytes,
        })
    }
}

/// Intermediate state of the fusion pass.
struct FusionPass {
    kernels: Vec<KernelDesc>,
    weight_bytes: u64,
    output_elements: u64,
    peak_im2col_elements: u64,
}

/// A kernel being grown by fusion.
struct PendingKernel {
    desc: KernelDesc,
    tail: LayerId,
}

impl FusionPass {
    fn run(
        model: &ModelGraph,
        device: &DeviceSpec,
        requested: Precision,
        fuse: bool,
    ) -> FusionPass {
        let support = &device.precision_support;
        // Consumer counts let us fuse only single-consumer chains and find
        // the graph's sink outputs.
        let mut consumers = vec![0u32; model.len()];
        for (_, layer) in model.iter() {
            for input in &layer.inputs {
                consumers[input.index()] += 1;
            }
        }

        let mut kernels: Vec<KernelDesc> = Vec::new();
        let mut pending: Option<PendingKernel> = None;
        let mut weight_bytes = 0u64;
        let mut peak_im2col = 0u64;
        // Maps an elided layer (concat/split) to nothing: downstream
        // kernels read its shape directly, which already folds the copy
        // away, exactly like TensorRT's no-op concat elision.
        let flush = |pending: &mut Option<PendingKernel>, kernels: &mut Vec<KernelDesc>| {
            if let Some(p) = pending.take() {
                kernels.push(p.desc);
            }
        };

        for (id, layer) in model.iter() {
            let inputs = model.input_shapes(id);
            let out_shape = model.output_shape(id);

            match layer.kind {
                LayerKind::Concat | LayerKind::SplitTake { .. } => {
                    // Elided: TensorRT lays concatenated tensors out
                    // contiguously so no kernel runs. A pending kernel may
                    // no longer fuse across the boundary.
                    flush(&mut pending, &mut kernels);
                    continue;
                }
                _ => {}
            }

            let fusible = fuse && layer.kind.is_fusible_pointwise();
            if fusible {
                if let Some(p) = pending.as_mut() {
                    let feeds_tail = layer.inputs.contains(&p.tail);
                    let tail_private = consumers[p.tail.index()] == 1;
                    if feeds_tail && tail_private {
                        // Fold into the open kernel: pointwise math rides
                        // along in the epilogue.
                        p.desc.flops += layer.kind.flops(&inputs);
                        p.desc.fused_ops += 1;
                        if matches!(layer.kind, LayerKind::Add) {
                            // The residual operand is an extra stream read.
                            let other: u64 = layer
                                .inputs
                                .iter()
                                .filter(|&&i| i != p.tail)
                                .map(|&i| model.output_shape(i).elements())
                                .sum();
                            p.desc.bytes += other * p.desc.precision.activation_bytes();
                        }
                        p.desc.name.push('+');
                        p.desc.name.push_str(layer.kind.mnemonic());
                        // Weights of fused bn layers still ship with the engine.
                        weight_bytes +=
                            layer.kind.params(&inputs) * p.desc.precision.weight_bytes();
                        p.tail = id;
                        continue;
                    }
                }
            }

            // Start a fresh kernel.
            flush(&mut pending, &mut kernels);
            let (kind, min_channels) = classify(&layer.kind, &inputs);
            let precision = support.layer_precision(requested, min_channels);
            let params = layer.kind.params(&inputs);
            weight_bytes += params * precision.weight_bytes();
            if let LayerKind::Conv2d { kernel, groups, .. } = layer.kind {
                if kernel > 1 {
                    let im2col =
                        (inputs[0].c / groups) * kernel * kernel * out_shape.h * out_shape.w;
                    peak_im2col = peak_im2col.max(im2col);
                }
            }
            let act_bytes = precision.activation_bytes();
            let input_elems: u64 = inputs.iter().map(|s| s.elements()).sum();
            let mut bytes = (input_elems + out_shape.elements()) * act_bytes
                + params * precision.weight_bytes();
            let dilated = matches!(
                layer.kind,
                LayerKind::Conv2d { dilation, .. } if dilation > 1
            );
            if dilated {
                // Dilated convs run through an explicit im2col expansion:
                // each input element is written and re-read k² times.
                if let LayerKind::Conv2d { kernel, .. } = layer.kind {
                    bytes += 2 * kernel * kernel * input_elems * act_bytes;
                }
            }
            let desc = KernelDesc {
                name: layer.name.clone(),
                kind,
                precision,
                flops: layer.kind.flops(&inputs),
                bytes,
                parallelism: out_shape.elements(),
                tc_eligible: layer.kind.is_matmul_like(),
                fused_ops: 1,
                dilated,
                channel_width: min_channels,
            };
            pending = Some(PendingKernel { desc, tail: id });
        }
        flush(&mut pending, &mut kernels);
        let kernels = insert_reformats(kernels);

        let output_elements = model
            .iter()
            .filter(|(id, _)| consumers[id.index()] == 0)
            .map(|(id, _)| model.output_shape(id).elements())
            .sum();

        FusionPass {
            kernels,
            weight_bytes,
            output_elements,
            peak_im2col_elements: peak_im2col,
        }
    }
}

/// Inserts quantize/dequantize reformat kernels at every boundary where
/// execution crosses between int8 and a wider format. Real TensorRT emits
/// exactly these when a mixed-precision engine interleaves regions, and
/// they are a major reason int8 gains shrink on models (like YOLOv8) whose
/// skinny layers stay wide.
fn insert_reformats(kernels: Vec<KernelDesc>) -> Vec<KernelDesc> {
    let mut out: Vec<KernelDesc> = Vec::with_capacity(kernels.len());
    for kernel in kernels {
        if let Some(prev) = out.last() {
            let crosses_int8 = prev.precision != kernel.precision
                && (prev.precision == Precision::Int8 || kernel.precision == Precision::Int8);
            if crosses_int8 {
                let elems = prev.parallelism;
                let wide = prev.precision.max(kernel.precision);
                out.push(KernelDesc {
                    name: format!("{}.reformat", prev.name),
                    kind: KernelKind::Reformat,
                    precision: wide,
                    flops: 0,
                    bytes: elems
                        * (prev.precision.activation_bytes() + kernel.precision.activation_bytes()),
                    parallelism: elems,
                    tc_eligible: false,
                    fused_ops: 1,
                    dilated: false,
                    channel_width: 256,
                });
            }
        }
        out.push(kernel);
    }
    out
}

/// Maps a root layer to its kernel class and the channel width used by
/// the int8 rule.
fn classify(kind: &LayerKind, inputs: &[TensorShape]) -> (KernelKind, u64) {
    match *kind {
        LayerKind::Conv2d { out_channels, .. } => (KernelKind::Conv, inputs[0].c.min(out_channels)),
        LayerKind::Linear { out_features } => {
            (KernelKind::Gemm, inputs[0].elements().min(out_features))
        }
        LayerKind::MaxPool { .. } | LayerKind::GlobalAvgPool => (KernelKind::Pool, inputs[0].c),
        LayerKind::Upsample { .. } => (KernelKind::Resize, inputs[0].c),
        _ => (KernelKind::Pointwise, inputs[0].c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_device::presets;
    use jetsim_dnn::zoo;

    fn orin() -> DeviceSpec {
        presets::orin_nano()
    }

    #[test]
    fn fusion_shrinks_resnet_to_kernel_count_range() {
        let model = zoo::resnet50();
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&model)
            .unwrap();
        // 53 convs + 1 fc + 2 pools, everything pointwise fused away.
        assert!(
            (50..=70).contains(&engine.kernel_count()),
            "kernels = {}",
            engine.kernel_count()
        );
        assert!(engine.kernel_count() < model.len() / 2);
    }

    #[test]
    fn conv_bn_relu_chains_fuse() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&zoo::resnet50())
            .unwrap();
        let stem = &engine.kernels()[0];
        assert!(
            stem.name.contains("+bn") && stem.name.contains("+relu"),
            "{}",
            stem.name
        );
        assert_eq!(stem.fused_ops, 3);
    }

    #[test]
    fn residual_adds_fuse_into_producing_conv() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&zoo::resnet50())
            .unwrap();
        let fused_add = engine
            .kernels()
            .iter()
            .filter(|k| k.name.contains("+add"))
            .count();
        assert_eq!(fused_add, 16, "one per bottleneck");
    }

    #[test]
    fn fusion_preserves_total_flops() {
        let model = zoo::yolov8n();
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&model)
            .unwrap();
        let engine_flops: u64 = engine.kernels().iter().map(|k| k.flops).sum();
        let model_flops = model.stats().flops_per_image as u64;
        assert_eq!(engine_flops, model_flops);
    }

    #[test]
    fn zero_batch_rejected() {
        let err = EngineBuilder::new(&orin())
            .batch(0)
            .build(&zoo::resnet50())
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroBatch);
    }

    #[test]
    fn oversized_batch_rejected() {
        let err = EngineBuilder::new(&orin())
            .batch(1024)
            .build(&zoo::resnet50())
            .unwrap_err();
        assert!(matches!(err, BuildError::BatchTooLarge { .. }));
    }

    #[test]
    fn int8_builds_natively_on_orin() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Int8)
            .build(&zoo::resnet50());
        assert!(engine.is_ok());
    }

    #[test]
    fn nano_int8_needs_no_calibration_because_nothing_quantises() {
        let nano = presets::jetson_nano();
        let engine = EngineBuilder::new(&nano)
            .precision(Precision::Int8)
            .build(&zoo::resnet50())
            .unwrap();
        assert_eq!(engine.requested_precision_flop_fraction(), 0.0);
        assert!(engine
            .kernels()
            .iter()
            .all(|k| k.precision == Precision::Fp32));
    }

    #[test]
    fn yolo_int8_keeps_skinny_layers_wider() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Int8)
            .build(&zoo::yolov8n())
            .unwrap();
        let fraction = engine.requested_precision_flop_fraction();
        assert!(
            (0.2..0.9).contains(&fraction),
            "yolo int8 engines are mixed-precision: {fraction}"
        );
        let mix = engine.precision_mix();
        assert!(mix.iter().any(|&(p, _)| p == Precision::Fp16));
        assert!(mix.iter().any(|&(p, _)| p == Precision::Int8));
    }

    #[test]
    fn fcn_int8_quantises_nearly_everything() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Int8)
            .build(&zoo::fcn_resnet50())
            .unwrap();
        assert!(engine.requested_precision_flop_fraction() > 0.95);
    }

    #[test]
    fn nano_fallback_engines_are_larger_than_fp16() {
        let nano = presets::jetson_nano();
        let int8 = EngineBuilder::new(&nano)
            .precision(Precision::Int8)
            .build(&zoo::yolov8n())
            .unwrap();
        let fp16 = EngineBuilder::new(&nano)
            .precision(Precision::Fp16)
            .build(&zoo::yolov8n())
            .unwrap();
        assert!(
            int8.engine_bytes() > fp16.engine_bytes(),
            "paper §6.1.1: unsupported int8 costs fp32-sized engines"
        );
    }

    #[test]
    fn fcn_has_large_im2col_workspace() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&zoo::fcn_resnet50())
            .unwrap();
        let resnet = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&zoo::resnet50())
            .unwrap();
        assert!(engine.workspace_bytes() > 4 * resnet.workspace_bytes());
    }

    #[test]
    fn invalid_graph_surfaces_as_build_error() {
        let empty = ModelGraph::new("empty", TensorShape::new(1, 2, 2));
        let err = EngineBuilder::new(&orin()).build(&empty).unwrap_err();
        assert!(matches!(err, BuildError::InvalidModel(_)));
    }

    #[test]
    fn disabling_fusion_inflates_kernel_count() {
        let fused = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .build(&zoo::resnet50())
            .unwrap();
        let unfused = EngineBuilder::new(&orin())
            .precision(Precision::Fp16)
            .fusion(false)
            .build(&zoo::resnet50())
            .unwrap();
        assert!(unfused.kernel_count() > 2 * fused.kernel_count());
        let fused_flops: u64 = fused.kernels().iter().map(|k| k.flops).sum();
        let unfused_flops: u64 = unfused.kernels().iter().map(|k| k.flops).sum();
        assert_eq!(fused_flops, unfused_flops, "fusion only reorganises work");
    }

    #[test]
    fn engine_names_encode_configuration() {
        let engine = EngineBuilder::new(&orin())
            .precision(Precision::Tf32)
            .batch(8)
            .build(&zoo::resnet50())
            .unwrap();
        assert_eq!(engine.name(), "resnet50_tf32_b8");
        assert_eq!(engine.device_name(), "Jetson Orin Nano");
    }
}
