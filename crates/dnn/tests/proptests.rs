//! Property-based tests for shape inference and cost accounting.

use proptest::prelude::*;

use jetsim_dnn::{Activation, LayerKind, ModelGraph, Precision, TensorShape};

fn conv(out: u64, k: u64, s: u64, p: u64, d: u64, groups: u64, bias: bool) -> LayerKind {
    LayerKind::Conv2d {
        out_channels: out,
        kernel: k,
        stride: s,
        padding: p,
        dilation: d,
        groups,
        bias,
    }
}

proptest! {
    /// Same-padded stride-1 convolutions preserve spatial dims for any
    /// odd kernel.
    #[test]
    fn same_padding_preserves_dims(
        c in 1u64..64, hw in 4u64..64, out in 1u64..64, half_k in 0u64..4,
    ) {
        let k = 2 * half_k + 1;
        let input = TensorShape::new(c, hw, hw);
        let shape = conv(out, k, 1, half_k, 1, 1, false).infer_shape(&[input]);
        prop_assert_eq!(shape, TensorShape::new(out, hw, hw));
    }

    /// Conv FLOPs factorise exactly: 2 × out_elems × (in_c/groups) × k².
    #[test]
    fn conv_flops_formula(
        in_c in 1u64..32, hw in 2u64..32, out in 1u64..32, k in 1u64..4,
    ) {
        let input = TensorShape::new(in_c, hw, hw);
        let kind = conv(out, k, 1, k / 2, 1, 1, false);
        let out_shape = kind.infer_shape(&[input]);
        prop_assert_eq!(
            kind.flops(&[input]),
            2 * out_shape.elements() * in_c * k * k
        );
    }

    /// Grouped convolutions divide both params and FLOPs by the group
    /// count (when divisible).
    #[test]
    fn grouped_conv_scaling(groups in 1u64..8, base in 1u64..8, hw in 2u64..16) {
        let channels = groups * base * 4;
        let input = TensorShape::new(channels, hw, hw);
        let dense = conv(channels, 3, 1, 1, 1, 1, false);
        let grouped = conv(channels, 3, 1, 1, 1, groups, false);
        prop_assert_eq!(dense.params(&[input]), groups * grouped.params(&[input]));
        prop_assert_eq!(dense.flops(&[input]), groups * grouped.flops(&[input]));
    }

    /// Stride-s convolutions divide spatial dims by ~s.
    #[test]
    fn stride_divides_dims(hw in 8u64..128, s in 1u64..4) {
        let input = TensorShape::new(3, hw, hw);
        let shape = conv(8, 3, s, 1, 1, 1, false).infer_shape(&[input]);
        let expected = (hw + 2 - 3) / s + 1;
        prop_assert_eq!(shape.h, expected);
    }

    /// Weight bytes are monotone in precision width for every precision
    /// pair in sweep order.
    #[test]
    fn weight_bytes_monotone(params in 0u64..1_000_000) {
        let sizes: Vec<u64> = Precision::ALL
            .iter()
            .map(|p| params * p.weight_bytes())
            .collect();
        for w in sizes.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// A random linear chain of conv/relu/pool layers always validates,
    /// has consistent stats, and its total FLOPs equal the per-layer sum.
    #[test]
    fn random_chain_is_consistent(
        seed_channels in 1u64..8,
        ops in prop::collection::vec(0u8..3, 1..12),
    ) {
        let mut g = ModelGraph::new("random", TensorShape::new(seed_channels, 64, 64));
        let mut prev = None;
        let mut channels = seed_channels;
        for (i, &op) in ops.iter().enumerate() {
            let inputs: Vec<_> = prev.into_iter().collect();
            let id = match op {
                0 => {
                    channels = (channels * 2).min(256);
                    g.add(format!("conv{i}"), conv(channels, 3, 1, 1, 1, 1, false), &inputs)
                }
                1 => g.add(format!("act{i}"), LayerKind::Act(Activation::Relu), &inputs),
                _ => g.add(
                    format!("pool{i}"),
                    LayerKind::MaxPool { kernel: 2, stride: 2, padding: 0 },
                    &inputs,
                ),
            };
            prev = Some(id);
        }
        prop_assert!(g.validate().is_ok());
        let stats = g.stats();
        let per_layer: u64 = g.layer_stats().iter().map(|l| l.flops).sum();
        prop_assert_eq!(stats.flops_per_image as u64, per_layer);
        prop_assert_eq!(stats.layer_count, ops.len());
        prop_assert!(stats.matmul_flop_fraction <= 1.0);
    }

    /// The stored fingerprint never goes stale: fingerprinting between
    /// random `add`s (and extending clones) always agrees with hashing
    /// the final graph's JSON afresh and with a graph built by the same
    /// `add`s that was never fingerprinted along the way.
    #[test]
    fn stored_fingerprint_equals_a_fresh_recomputation(
        ops in prop::collection::vec((0u8..4, any::<bool>()), 1..16),
    ) {
        let mut probed = ModelGraph::new("probed", TensorShape::new(3, 32, 32));
        let mut fresh = ModelGraph::new("probed", TensorShape::new(3, 32, 32));
        for (i, &(op, probe)) in ops.iter().enumerate() {
            // Fingerprint (and snapshot) before this `add` only sometimes,
            // so stored values meet every interleaving of adds.
            let before = probe.then(|| (probed.fingerprint(), probed.clone()));
            let inputs: Vec<_> = probed.iter().last().map(|(id, _)| id).into_iter().collect();
            let kind = match op {
                0 => conv(8, 3, 1, 1, 1, 1, false),
                1 => LayerKind::Act(Activation::Relu),
                2 => LayerKind::BatchNorm,
                _ => LayerKind::Act(Activation::Silu),
            };
            probed.add(format!("l{i}"), kind, &inputs);
            fresh.add(format!("l{i}"), kind, &inputs);
            if let Some((fingerprint, snapshot)) = before {
                prop_assert!(probed.fingerprint() != fingerprint, "add kept a stale value");
                prop_assert_eq!(snapshot.fingerprint(), fingerprint);
            }
        }
        let json = serde_json::to_vec(&probed).unwrap();
        prop_assert_eq!(probed.fingerprint(), jetsim_des::fnv1a(&json));
        prop_assert_eq!(probed.fingerprint(), fresh.fingerprint());
    }

    /// Upsample then compatible pooling returns to the original spatial
    /// dims.
    #[test]
    fn upsample_pool_round_trip(c in 1u64..16, hw in 2u64..32, f in 1u64..4) {
        let input = TensorShape::new(c, hw, hw);
        let up = LayerKind::Upsample { factor: f }.infer_shape(&[input]);
        let down = LayerKind::MaxPool { kernel: f, stride: f, padding: 0 }.infer_shape(&[up]);
        prop_assert_eq!(down, input);
    }

    /// Concat output elements equal the sum of input elements.
    #[test]
    fn concat_conserves_elements(
        c1 in 1u64..64, c2 in 1u64..64, hw in 1u64..32,
    ) {
        let a = TensorShape::new(c1, hw, hw);
        let b = TensorShape::new(c2, hw, hw);
        let out = LayerKind::Concat.infer_shape(&[a, b]);
        prop_assert_eq!(out.elements(), a.elements() + b.elements());
    }
}
