//! Post-training weight quantization (the "model compressor" of paper Fig. 2).
//!
//! Weights of convolution and fully-connected layers are quantized to symmetric
//! int8 with **per-output-channel** scales and stored as real `DataType::I8`
//! constants: each quantized node is rewritten to its quantized operator variant
//! ([`Op::Conv2dQuantized`] / [`Op::FullyConnectedQuantized`]) carrying the
//! scales, and the runtime dispatches integer kernels for it (scheme
//! `quantized-gemm` in the pre-inference report). Biases stay in `f32`, as is
//! standard for int8 inference.
//!
//! Run the [`optimizer`](crate::optimizer) *before* quantizing: Conv+BN folding
//! and Conv+Activation fusion operate on float convolutions, and the fused
//! activation is carried into the quantized variant.

use mnn_backend::ConvScheme;
use mnn_graph::{Graph, Op, QuantAttrs, TensorId};
use mnn_kernels::conv::ConvParams;
use mnn_kernels::quant::{dequantize_per_channel, per_channel_scales, quantize_per_channel};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The runtime scheme candidates for a convolution whose weights this quantizer
/// stored as int8 — the pool the auto-tuner measures for an
/// [`Op::Conv2dQuantized`] node.
///
/// Non-depthwise layers can run either the integer kernel
/// ([`ConvScheme::QuantizedGemm`], activations quantized on the fly) or any
/// float scheme over weights dequantized once at preparation time, so the pool
/// is the integer kernel plus the full float pool. Depthwise layers have no
/// integer-GEMM reuse to exploit and stay on the f32 depthwise kernel.
pub fn quantized_conv_candidates(params: &ConvParams, max_tile: usize) -> Vec<ConvScheme> {
    if params.is_depthwise() {
        return ConvScheme::float_conv_pool(params, max_tile);
    }
    let mut pool = vec![ConvScheme::QuantizedGemm];
    pool.extend(ConvScheme::float_conv_pool(params, max_tile));
    pool
}

/// Result of quantizing a model's weights.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantizationReport {
    /// Number of weight tensors that were quantized.
    pub quantized_tensors: usize,
    /// Total number of quantized weight elements.
    pub quantized_elements: usize,
    /// Weight bytes before quantization (f32 storage).
    pub float_bytes: usize,
    /// Weight bytes after quantization (int8 storage + one f32 scale per output
    /// channel).
    pub quantized_bytes: usize,
    /// Largest absolute difference introduced by quantization over all weights.
    pub max_abs_error: f32,
}

impl QuantizationReport {
    /// Compression ratio (float bytes / quantized bytes); ≈4 for int8.
    pub fn compression_ratio(&self) -> f64 {
        if self.quantized_bytes == 0 {
            return 1.0;
        }
        self.float_bytes as f64 / self.quantized_bytes as f64
    }
}

impl fmt::Display for QuantizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quantized {} weight tensors ({} elements): {} -> {} bytes ({:.2}x), max |err| {:.6}",
            self.quantized_tensors,
            self.quantized_elements,
            self.float_bytes,
            self.quantized_bytes,
            self.compression_ratio(),
            self.max_abs_error
        )
    }
}

/// The quantized rewrite of a float conv/FC op, carrying fused activations over.
fn quantized_op(op: &Op, quant: QuantAttrs) -> Op {
    match op {
        Op::Conv2d(attrs) => Op::Conv2dQuantized {
            attrs: attrs.clone(),
            activation: mnn_graph::ActivationKind::None,
            quant,
        },
        Op::Conv2dFused { attrs, activation } => Op::Conv2dQuantized {
            attrs: attrs.clone(),
            activation: *activation,
            quant,
        },
        Op::FullyConnected {
            in_features,
            out_features,
            has_bias,
        } => Op::FullyConnectedQuantized {
            in_features: *in_features,
            out_features: *out_features,
            has_bias: *has_bias,
            quant,
        },
        other => unreachable!("not a quantizable op: {other}"),
    }
}

/// Output channel count of a quantizable op (`None` for everything else).
fn quantizable_channels(op: &Op) -> Option<usize> {
    match op {
        Op::Conv2d(attrs) | Op::Conv2dFused { attrs, .. } => Some(attrs.out_channels),
        Op::FullyConnected { out_features, .. } => Some(*out_features),
        _ => None,
    }
}

/// Quantize the weights of every convolution and fully-connected layer in place,
/// storing them as `i8` constants and rewriting the nodes to their quantized
/// operator variants.
///
/// Only the weight tensors (input index 1) are quantized; biases stay in `f32`.
/// Nodes that are already quantized, or whose weight slot holds no `f32`
/// constant, are skipped — running the pass twice is a no-op. A weight constant
/// shared by several nodes is quantized once and **all** its consumers are
/// rewritten together; if any consumer could not run on the quantized constant
/// (a non-conv/FC op, or a mismatched channel count), the slot is left in `f32`
/// so no float node is ever left reading an `i8` constant.
pub fn quantize_weights(graph: &mut Graph) -> QuantizationReport {
    let mut report = QuantizationReport::default();
    let mut nodes = graph.nodes().to_vec();

    // Group quantization candidates by weight slot: slot -> (channels, node
    // indices). A slot stays f32 unless every node touching it anywhere in the
    // graph is a conv/FC reading it as the weight input with one agreed channel
    // count.
    let mut slots: BTreeMap<usize, (usize, Vec<usize>)> = BTreeMap::new();
    let mut poisoned: BTreeSet<usize> = BTreeSet::new();
    for (idx, node) in nodes.iter().enumerate() {
        let weight_slot = quantizable_channels(&node.op)
            .and_then(|channels| node.inputs.get(1).map(|slot| (slot.0, channels)));
        for (position, input) in node.inputs.iter().enumerate() {
            match weight_slot {
                Some((slot, channels)) if position == 1 && input.0 == slot => {
                    let entry = slots.entry(slot).or_insert((channels, Vec::new()));
                    if entry.0 == channels {
                        entry.1.push(idx);
                    } else {
                        poisoned.insert(slot);
                    }
                }
                // Any other use of a constant (bias position, another op's data
                // input, a conv reading it as activations) forbids quantizing it.
                _ => {
                    poisoned.insert(input.0);
                }
            }
        }
    }

    for (slot, (channels, consumers)) in slots {
        if poisoned.contains(&slot) {
            continue;
        }
        let Some(weight) = graph.constant(TensorId(slot)) else {
            continue;
        };
        let Ok(data) = weight.try_data_f32() else {
            continue;
        };
        if !data.len().is_multiple_of(channels) {
            continue;
        }

        let scales = per_channel_scales(data, channels);
        let q = quantize_per_channel(data, &scales);
        let back = dequantize_per_channel(&q, &scales);
        let err = data
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        report.max_abs_error = report.max_abs_error.max(err);
        report.quantized_tensors += 1;
        report.quantized_elements += data.len();
        report.float_bytes += data.len() * 4;
        report.quantized_bytes += data.len() + 4 * channels; // i8 payload + f32 scale per channel

        let shape = weight.shape().clone();
        let quantized = mnn_tensor::Tensor::try_from_i8(shape, q)
            .expect("quantized buffer length matches the weight shape");
        graph.replace_constant(TensorId(slot), quantized);
        for idx in consumers {
            nodes[idx].op = quantized_op(
                &nodes[idx].op,
                QuantAttrs {
                    weight_scales: scales.clone(),
                },
            );
        }
    }
    graph.set_nodes(nodes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_graph::{Conv2dAttrs, GraphBuilder};
    use mnn_tensor::{DataType, Shape};

    fn model() -> Graph {
        let mut b = GraphBuilder::new("q");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv1", x, Conv2dAttrs::same_3x3(3, 8), true);
        let y = b.conv2d_auto("conv2", y, Conv2dAttrs::pointwise(8, 16), false);
        let y = b.flatten("flat", y, mnn_graph::FlattenAttrs { start_axis: 1 });
        let y = b.fully_connected_auto("fc", y, 16 * 8 * 8, 10);
        b.build(vec![y])
    }

    #[test]
    fn quantizes_conv_and_fc_weights_to_i8_constants() {
        let mut g = model();
        let float_bytes = g.constant_bytes();
        let report = quantize_weights(&mut g);
        assert_eq!(report.quantized_tensors, 3);
        assert!(report.quantized_elements > 0);
        assert!(report.compression_ratio() > 3.5);
        assert!(report.max_abs_error > 0.0);
        // Weight constants are really i8 now, and the graph's stored bytes shrank.
        for node in g.nodes() {
            if node.op.is_quantized() {
                let weight = g.constant(node.inputs[1]).unwrap();
                assert_eq!(weight.data_type(), DataType::I8);
            }
        }
        assert!(g.constant_bytes() < float_bytes / 3);
        // The graph still validates (scale counts, i8 dtype checks).
        g.validate().unwrap();
    }

    #[test]
    fn nodes_are_rewritten_to_quantized_variants() {
        let mut g = model();
        quantize_weights(&mut g);
        let hist = g.op_histogram();
        assert_eq!(hist.get("Conv2dQuantized"), Some(&2));
        assert_eq!(hist.get("FullyConnectedQuantized"), Some(&1));
        assert_eq!(hist.get("Conv2d"), None);
        assert_eq!(hist.get("FullyConnected"), None);
        // Per-output-channel scales: one per channel/feature.
        for node in g.nodes() {
            if let Some(quant) = node.op.quant_attrs() {
                let channels = match &node.op {
                    Op::Conv2dQuantized { attrs, .. } => attrs.out_channels,
                    Op::FullyConnectedQuantized { out_features, .. } => *out_features,
                    _ => unreachable!(),
                };
                assert_eq!(quant.weight_scales.len(), channels);
                assert!(quant.weight_scales.iter().all(|&s| s > 0.0));
            }
        }
    }

    #[test]
    fn quantization_error_is_small_relative_to_weight_magnitude() {
        let mut g = model();
        // The largest weight magnitude in the generated model.
        let max_weight = g
            .nodes()
            .iter()
            .filter_map(|n| n.inputs.get(1))
            .filter_map(|id| g.constant(*id))
            .flat_map(|t| t.data_f32().iter().copied())
            .fold(0.0f32, |m, v| m.max(v.abs()));
        let report = quantize_weights(&mut g);
        // Symmetric int8: worst-case error is half a step = max/254.
        assert!(report.max_abs_error <= max_weight / 127.0);
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut g = model();
        let first = quantize_weights(&mut g);
        assert_eq!(first.quantized_tensors, 3);
        let snapshot: Vec<Vec<i8>> = g
            .nodes()
            .iter()
            .filter_map(|n| n.inputs.get(1))
            .filter_map(|id| g.constant(*id))
            .filter_map(|t| t.try_data_i8().ok().map(|d| d.to_vec()))
            .collect();
        // Second pass: every eligible node is already quantized; nothing changes.
        let second = quantize_weights(&mut g);
        assert_eq!(second.quantized_tensors, 0);
        let again: Vec<Vec<i8>> = g
            .nodes()
            .iter()
            .filter_map(|n| n.inputs.get(1))
            .filter_map(|id| g.constant(*id))
            .filter_map(|t| t.try_data_i8().ok().map(|d| d.to_vec()))
            .collect();
        assert_eq!(snapshot, again);
    }

    #[test]
    fn fused_activation_is_carried_into_the_quantized_variant() {
        let mut b = GraphBuilder::new("fused");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), false);
        let y = b.activation("relu", y, mnn_graph::ActivationKind::Relu);
        let mut g = b.build(vec![y]);
        crate::optimize(&mut g, crate::OptimizerOptions::default());
        quantize_weights(&mut g);
        let conv = g.nodes().iter().find(|n| n.op.is_conv()).unwrap();
        match &conv.op {
            Op::Conv2dQuantized { activation, .. } => {
                assert_eq!(*activation, mnn_graph::ActivationKind::Relu);
            }
            other => panic!("expected Conv2dQuantized, got {other}"),
        }
    }

    #[test]
    fn shared_weight_constant_rewrites_every_consumer() {
        // Two convolutions sharing one weight constant: the slot must be
        // quantized once and BOTH nodes rewritten — leaving either as a float
        // conv over an i8 constant would panic at execution-creation time.
        let mut b = GraphBuilder::new("shared");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let w = b.constant_random("w", Shape::new(vec![3, 3, 3, 3]), 0.1);
        let a = b.conv2d("conv_a", x, w, None, Conv2dAttrs::same_3x3(3, 3));
        let y = b.conv2d("conv_b", a, w, None, Conv2dAttrs::same_3x3(3, 3));
        let mut g = b.build(vec![y]);
        let report = quantize_weights(&mut g);
        assert_eq!(report.quantized_tensors, 1, "shared slot quantized once");
        assert!(g.nodes().iter().all(|n| n.op.is_quantized()));
        g.validate().unwrap();
    }

    #[test]
    fn weight_shared_with_a_non_conv_consumer_stays_f32() {
        // The same constant feeds a conv as weights AND a binary op as data:
        // quantizing it would break the binary consumer, so it must stay f32
        // and the conv must stay a float op.
        let mut b = GraphBuilder::new("mixed");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let w = b.constant_random("w", Shape::nchw(1, 3, 8, 8), 0.1);
        let summed = b.binary("sum", x, w, mnn_graph::BinaryKind::Add);
        // 1x1 conv abusing the same constant as its weight ([oc=8, ic=3, 1, 1]
        // would be the proper layout; here the shapes happen to line up only
        // because weight_len is what matters to the builder-level graph).
        let mut g = b.build(vec![summed]);
        // Attach a conv node manually reading `w` as its weight input.
        let conv_attrs = Conv2dAttrs {
            kernel: (8, 8),
            pad: (0, 0),
            ..Conv2dAttrs::same_3x3(3, 1)
        };
        let data_input = g.inputs()[0];
        let (_, out) = g.add_node("conv", Op::Conv2d(conv_attrs), vec![data_input, w]);
        g.mark_output(out);
        let report = quantize_weights(&mut g);
        assert_eq!(report.quantized_tensors, 0);
        assert!(g.nodes().iter().all(|n| !n.op.is_quantized()));
        assert!(g.constant(w).unwrap().try_data_f32().is_ok());
    }

    #[test]
    fn graphs_without_weights_report_nothing() {
        let mut b = GraphBuilder::new("empty");
        let x = b.input("x", Shape::nchw(1, 1, 4, 4));
        let y = b.activation("relu", x, mnn_graph::ActivationKind::Relu);
        let mut g = b.build(vec![y]);
        let report = quantize_weights(&mut g);
        assert_eq!(report.quantized_tensors, 0);
        assert_eq!(report.compression_ratio(), 1.0);
    }

    #[test]
    fn report_display_summarizes_the_compression() {
        let mut g = model();
        let report = quantize_weights(&mut g);
        let text = report.to_string();
        assert!(text.contains("3 weight tensors"));
        assert!(text.contains('x'), "{text}");
    }
}
