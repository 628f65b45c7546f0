//! Candidate enumeration: which schemes the tuner measures for a graph node.
//!
//! Float convolutions take the CPU backend's full float pool
//! ([`ConvScheme::float_conv_pool`]); quantized convolutions add the integer
//! kernel and respect the quantizer's depthwise-stays-f32 rule
//! ([`mnn_converter::quantized_conv_candidates`]). Non-convolutions (and
//! quantized fully-connected layers, which have exactly one kernel) yield an
//! empty pool — there is nothing to measure.

use mnn_backend::ConvScheme;
use mnn_graph::{Node, Op};

/// The measurable scheme candidates for `node`, in deterministic order.
/// `max_tile` bounds the Winograd tile-size candidates. Returns an empty pool
/// for nodes with fewer than two viable kernels (depthwise layers among them).
pub fn candidates_for_node(node: &Node, max_tile: usize) -> Vec<ConvScheme> {
    let pool = match &node.op {
        Op::Conv2d(attrs) | Op::Conv2dFused { attrs, .. } => {
            ConvScheme::float_conv_pool(&attrs.to_conv_params(), max_tile)
        }
        Op::Conv2dQuantized { attrs, .. } => {
            mnn_converter::quantized_conv_candidates(&attrs.to_conv_params(), max_tile)
        }
        _ => Vec::new(),
    };
    if pool.len() < 2 {
        return Vec::new();
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_graph::{Conv2dAttrs, GraphBuilder};
    use mnn_tensor::Shape;

    fn first_node(
        build: impl FnOnce(&mut GraphBuilder, mnn_graph::TensorId) -> mnn_graph::TensorId,
    ) -> Node {
        let mut b = GraphBuilder::new("cand");
        let x = b.input("x", Shape::nchw(1, 8, 16, 16));
        let y = build(&mut b, x);
        let g = b.build(vec![y]);
        g.nodes()[0].clone()
    }

    #[test]
    fn float_conv_enumerates_winograd_tiles() {
        let node = first_node(|b, x| b.conv2d_auto("c", x, Conv2dAttrs::same_3x3(8, 8), false));
        let pool = candidates_for_node(&node, 4);
        assert!(pool.contains(&ConvScheme::SlidingWindow));
        assert!(pool.contains(&ConvScheme::Im2col));
        assert!(pool.contains(&ConvScheme::Winograd { tile: 2 }));
        assert!(pool.contains(&ConvScheme::Winograd { tile: 4 }));
        assert!(!pool.contains(&ConvScheme::Winograd { tile: 5 }));
        assert!(!pool.contains(&ConvScheme::QuantizedGemm));
    }

    #[test]
    fn pointwise_conv_includes_strassen() {
        let node = first_node(|b, x| b.conv2d_auto("c", x, Conv2dAttrs::pointwise(8, 16), false));
        let pool = candidates_for_node(&node, 6);
        assert_eq!(pool[0], ConvScheme::Strassen1x1);
        assert!(pool.contains(&ConvScheme::SlidingWindow));
    }

    #[test]
    fn depthwise_conv_has_one_kernel_and_nothing_to_measure() {
        let node =
            first_node(|b, x| b.conv2d_auto("c", x, Conv2dAttrs::depthwise_3x3(8, 1), false));
        assert!(candidates_for_node(&node, 6).is_empty());
    }

    #[test]
    fn non_convolutions_have_no_candidates() {
        let node = first_node(|b, x| b.activation("relu", x, mnn_graph::ActivationKind::Relu));
        assert!(candidates_for_node(&node, 6).is_empty());
    }
}
