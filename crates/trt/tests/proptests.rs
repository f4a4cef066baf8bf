//! Property-based tests for the engine builder and the kernel cost model.

use proptest::prelude::*;

use jetsim_device::presets;
use jetsim_dnn::{zoo, Activation, LayerKind, ModelGraph, Precision, TensorShape};
use jetsim_trt::EngineBuilder;

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop::sample::select(Precision::ALL.to_vec())
}

/// Builds a random small conv-net with residual joins.
fn arb_model() -> impl Strategy<Value = ModelGraph> {
    (1u64..6, prop::collection::vec((0u8..4, 1u64..32), 1..10)).prop_map(|(in_c, ops)| {
        let mut g = ModelGraph::new("prop", TensorShape::new(in_c, 32, 32));
        let mut prev: Option<jetsim_dnn::LayerId> = None;
        for (i, (op, width)) in ops.into_iter().enumerate() {
            let inputs: Vec<_> = prev.into_iter().collect();
            let id = match op {
                0 => g.add(
                    format!("conv{i}"),
                    LayerKind::Conv2d {
                        out_channels: width,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                        dilation: 1,
                        groups: 1,
                        bias: false,
                    },
                    &inputs,
                ),
                1 => g.add(format!("bn{i}"), LayerKind::BatchNorm, &inputs),
                2 => g.add(format!("act{i}"), LayerKind::Act(Activation::Silu), &inputs),
                _ => g.add(
                    format!("pw{i}"),
                    LayerKind::Conv2d {
                        out_channels: width,
                        kernel: 1,
                        stride: 1,
                        padding: 0,
                        dilation: 1,
                        groups: 1,
                        bias: true,
                    },
                    &inputs,
                ),
            };
            prev = Some(id);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fusion conserves total FLOPs exactly for arbitrary models and
    /// precisions (reformat kernels carry zero FLOPs).
    #[test]
    fn fusion_preserves_flops(model in arb_model(), precision in arb_precision()) {
        let device = presets::orin_nano();
        let engine = EngineBuilder::new(&device)
            .precision(precision)
            .build(&model)
            .expect("builds");
        let engine_flops: u64 = engine.kernels().iter().map(|k| k.flops).sum();
        prop_assert_eq!(engine_flops, model.stats().flops_per_image as u64);
    }

    /// Engines never have more kernels than the model has layers plus
    /// reformat insertions (bounded by kernel count).
    #[test]
    fn fusion_never_inflates(model in arb_model(), precision in arb_precision()) {
        let device = presets::orin_nano();
        let engine = EngineBuilder::new(&device)
            .precision(precision)
            .build(&model)
            .expect("builds");
        prop_assert!(engine.kernel_count() <= 2 * model.len());
    }

    /// GPU memory is monotone in batch size for every model/precision.
    #[test]
    fn memory_monotone_in_batch(precision in arb_precision(), b in 1u32..64) {
        let device = presets::orin_nano();
        let model = zoo::resnet50();
        let small = EngineBuilder::new(&device)
            .precision(precision)
            .batch(b)
            .build(&model)
            .expect("builds");
        let large = EngineBuilder::new(&device)
            .precision(precision)
            .batch(b + 1)
            .build(&model)
            .expect("builds");
        let ctx = device.memory.cuda_context_bytes;
        prop_assert!(large.gpu_memory_bytes(ctx) >= small.gpu_memory_bytes(ctx));
    }

    /// Kernel execution time is monotone in batch and inverse-monotone in
    /// frequency step.
    #[test]
    fn exec_time_monotonicity(model in arb_model(), b in 1u32..32) {
        let device = presets::orin_nano();
        let engine = EngineBuilder::new(&device)
            .precision(Precision::Fp16)
            .build(&model)
            .expect("builds");
        let gpu = &device.gpu;
        for k in engine.kernels() {
            let t_small = k.exec_time(gpu, b, gpu.freq.top());
            let t_large = k.exec_time(gpu, b + 1, gpu.freq.top());
            prop_assert!(t_large >= t_small);
            let t_slow = k.exec_time(gpu, b, 0);
            prop_assert!(t_slow >= t_small);
        }
    }

    /// Utilisation figures are always inside their documented ranges.
    #[test]
    fn utilisation_ranges(model in arb_model(), precision in arb_precision(), b in 1u32..32) {
        let device = presets::orin_nano();
        let engine = EngineBuilder::new(&device)
            .precision(precision)
            .build(&model)
            .expect("builds");
        let gpu = &device.gpu;
        let top = gpu.freq.top();
        for k in engine.kernels() {
            let sm = k.sm_active(gpu, b);
            let issue = k.issue_slot(gpu, b, top);
            let tc = k.tc_activity(gpu, b, top);
            prop_assert!((0.0..=1.0).contains(&sm), "sm={sm}");
            prop_assert!((0.0..=0.8).contains(&issue), "issue={issue}");
            prop_assert!((0.0..=1.0).contains(&tc), "tc={tc}");
            prop_assert!(k.occupancy(gpu, b) <= 1.0);
            prop_assert!(k.compute_fraction(gpu, b, top) <= 1.0 + 1e-9);
        }
    }

    /// On Maxwell (no TC, fp16/fp32 only) every kernel of every engine
    /// runs at fp16 or fp32 and reports zero TC activity.
    #[test]
    fn maxwell_never_uses_tc(model in arb_model(), precision in arb_precision()) {
        let device = presets::jetson_nano();
        let engine = EngineBuilder::new(&device)
            .precision(precision)
            .build(&model)
            .expect("builds");
        for k in engine.kernels() {
            prop_assert!(matches!(k.precision, Precision::Fp16 | Precision::Fp32));
            prop_assert_eq!(k.tc_activity(&device.gpu, 1, device.gpu.freq.top()), 0.0);
        }
    }

    /// Weight bytes of an engine never exceed the fp32 weight bytes of
    /// its model, and int8 engines are never larger than fp32 ones.
    #[test]
    fn engine_size_bounds(model in arb_model()) {
        let device = presets::orin_nano();
        let build = |p| {
            EngineBuilder::new(&device)
                .precision(p)
                .build(&model)
                .expect("builds")
        };
        let int8 = build(Precision::Int8);
        let fp32 = build(Precision::Fp32);
        prop_assert!(int8.weight_bytes() <= fp32.weight_bytes());
        prop_assert_eq!(fp32.weight_bytes(), model.stats().params * 4);
    }

    /// Ideal speed scales with frequency: an EC at the top step never
    /// takes longer than at the bottom one.
    #[test]
    fn frequency_never_hurts(precision in arb_precision()) {
        let device = presets::orin_nano();
        let engine = EngineBuilder::new(&device)
            .precision(precision)
            .build(&zoo::yolov8n())
            .expect("builds");
        let top = engine.ideal_ec_time(&device.gpu, device.gpu.freq.top());
        let bottom = engine.ideal_ec_time(&device.gpu, 0);
        prop_assert!(top <= bottom);
    }
}
