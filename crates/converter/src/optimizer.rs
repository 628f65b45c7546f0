//! Offline graph optimization passes (paper Fig. 2, "offline graph optimizer").
//!
//! The converter rewrites the graph before it ever reaches a device:
//!
//! * **Conv + BatchNorm folding** — the batch-norm affine transform is folded into
//!   the convolution's weights and bias, removing a whole memory-bound operator.
//! * **Conv + Activation fusion** — a ReLU/ReLU6/Sigmoid/Tanh that directly follows a
//!   convolution becomes a fused epilogue ([`mnn_graph::Op::Conv2dFused`]).
//! * **Constant folding** — activations/scales applied to constants are evaluated at
//!   conversion time.
//! * **Dead-node elimination** — operators whose results are never consumed are
//!   dropped.
//!
//! All passes preserve numerical behaviour; the integration tests compare optimized
//! and unoptimized inference outputs end to end.

use mnn_graph::{ActivationKind, Graph, Node, Op, TensorId};
use mnn_kernels::norm::batch_norm_to_scale_shift;
use mnn_tensor::{Shape, Tensor};

/// Which passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerOptions {
    /// Fold BatchNorm nodes into the preceding convolution.
    pub fuse_batch_norm: bool,
    /// Fuse activation nodes into the preceding convolution.
    pub fuse_activations: bool,
    /// Evaluate operators whose inputs are all constants.
    pub fold_constants: bool,
    /// Remove nodes whose outputs are never used.
    pub eliminate_dead_nodes: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            fuse_batch_norm: true,
            fuse_activations: true,
            fold_constants: true,
            eliminate_dead_nodes: true,
        }
    }
}

/// What the optimizer did, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerReport {
    /// Number of BatchNorm nodes folded into convolutions.
    pub fused_batch_norms: usize,
    /// Number of activation nodes fused into convolutions.
    pub fused_activations: usize,
    /// Number of constant-folded nodes.
    pub folded_constants: usize,
    /// Number of dead nodes removed.
    pub removed_dead_nodes: usize,
    /// Node count before optimization.
    pub nodes_before: usize,
    /// Node count after optimization.
    pub nodes_after: usize,
}

/// Run the selected optimization passes on `graph`.
pub fn optimize(graph: &mut Graph, options: OptimizerOptions) -> OptimizerReport {
    let mut report = OptimizerReport {
        nodes_before: graph.nodes().len(),
        ..OptimizerReport::default()
    };
    if options.fuse_batch_norm {
        report.fused_batch_norms = fuse_conv_batch_norm(graph);
    }
    if options.fuse_activations {
        report.fused_activations = fuse_conv_activation(graph);
    }
    if options.fold_constants {
        report.folded_constants = fold_constant_activations(graph);
    }
    if options.eliminate_dead_nodes {
        report.removed_dead_nodes = eliminate_dead_nodes(graph);
    }
    report.nodes_after = graph.nodes().len();
    report
}

/// Replace every use of `from` (node inputs and graph outputs) with `to`.
fn rewire(nodes: &mut [Node], outputs: &mut [TensorId], from: TensorId, to: TensorId) {
    for node in nodes.iter_mut() {
        for input in &mut node.inputs {
            if *input == from {
                *input = to;
            }
        }
    }
    for output in outputs.iter_mut() {
        if *output == from {
            *output = to;
        }
    }
}

/// Number of nodes (other than `except`) consuming `id`.
fn consumer_count(nodes: &[Node], id: TensorId, except: usize) -> usize {
    nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| *i != except && n.inputs.contains(&id))
        .count()
}

fn fuse_conv_batch_norm(graph: &mut Graph) -> usize {
    let mut fused = 0usize;
    loop {
        let nodes = graph.nodes().to_vec();
        let outputs = graph.outputs().to_vec();
        // Find a BatchNorm whose data input comes from a conv with no other consumer.
        let candidate = nodes.iter().enumerate().find_map(|(bn_idx, bn)| {
            let Op::BatchNorm { epsilon } = bn.op else {
                return None;
            };
            let conv_idx = nodes
                .iter()
                .position(|n| matches!(n.op, Op::Conv2d(_)) && n.outputs[0] == bn.inputs[0])?;
            // The conv output must feed only this BatchNorm, and must not itself be a
            // graph output.
            if consumer_count(&nodes, nodes[conv_idx].outputs[0], bn_idx) > 0
                || outputs.contains(&nodes[conv_idx].outputs[0])
            {
                return None;
            }
            Some((bn_idx, conv_idx, epsilon))
        });
        let Some((bn_idx, conv_idx, epsilon)) = candidate else {
            break;
        };

        let bn = nodes[bn_idx].clone();
        let conv = nodes[conv_idx].clone();
        let Op::Conv2d(mut attrs) = conv.op.clone() else {
            break;
        };

        // Gather constants.
        let mean = graph
            .constant(bn.inputs[1])
            .expect("bn mean")
            .data_f32()
            .to_vec();
        let var = graph
            .constant(bn.inputs[2])
            .expect("bn var")
            .data_f32()
            .to_vec();
        let gamma = graph
            .constant(bn.inputs[3])
            .expect("bn gamma")
            .data_f32()
            .to_vec();
        let beta = graph
            .constant(bn.inputs[4])
            .expect("bn beta")
            .data_f32()
            .to_vec();
        let (scale, shift) = batch_norm_to_scale_shift(&mean, &var, &gamma, &beta, epsilon);

        let weight_id = conv.inputs[1];
        let weight = graph.constant(weight_id).expect("conv weight").clone();
        let oc = attrs.out_channels;
        let per_oc = weight.shape().num_elements() / oc;
        let mut new_weight = weight.data_f32().to_vec();
        for o in 0..oc {
            for v in &mut new_weight[o * per_oc..(o + 1) * per_oc] {
                *v *= scale[o];
            }
        }
        let old_bias: Vec<f32> = if attrs.has_bias {
            graph
                .constant(conv.inputs[2])
                .expect("conv bias")
                .data_f32()
                .to_vec()
        } else {
            vec![0.0; oc]
        };
        let new_bias: Vec<f32> = old_bias
            .iter()
            .zip(&scale)
            .zip(&shift)
            .map(|((b, s), sh)| b * s + sh)
            .collect();

        graph.replace_constant(
            weight_id,
            Tensor::from_vec(weight.shape().clone(), new_weight),
        );
        let bias_id = if attrs.has_bias {
            let id = conv.inputs[2];
            graph.replace_constant(id, Tensor::from_vec(Shape::vector(oc), new_bias));
            id
        } else {
            graph.add_constant(
                format!("{}.folded_bias", conv.name),
                Tensor::from_vec(Shape::vector(oc), new_bias),
            )
        };

        // Rebuild the node list: update the conv, drop the BatchNorm, rewire.
        attrs.has_bias = true;
        let mut new_nodes = graph.nodes().to_vec();
        new_nodes[conv_idx].op = Op::Conv2d(attrs);
        new_nodes[conv_idx].inputs = vec![conv.inputs[0], weight_id, bias_id];
        let bn_out = bn.outputs[0];
        let conv_out = conv.outputs[0];
        new_nodes.remove(bn_idx);
        let mut new_outputs = graph.outputs().to_vec();
        rewire(&mut new_nodes, &mut new_outputs, bn_out, conv_out);
        graph.set_nodes(new_nodes);
        graph.set_outputs(new_outputs);
        fused += 1;
    }
    fused
}

fn fuse_conv_activation(graph: &mut Graph) -> usize {
    let mut fused = 0usize;
    loop {
        let nodes = graph.nodes().to_vec();
        let outputs = graph.outputs().to_vec();
        let candidate = nodes.iter().enumerate().find_map(|(act_idx, act)| {
            let Op::Activation(kind) = act.op else {
                return None;
            };
            if kind == ActivationKind::None {
                return None;
            }
            let conv_idx = nodes.iter().position(|n| {
                matches!(
                    n.op,
                    Op::Conv2d(_)
                        | Op::Conv2dFused {
                            activation: ActivationKind::None,
                            ..
                        }
                ) && n.outputs[0] == act.inputs[0]
            })?;
            if consumer_count(&nodes, nodes[conv_idx].outputs[0], act_idx) > 0
                || outputs.contains(&nodes[conv_idx].outputs[0])
            {
                return None;
            }
            Some((act_idx, conv_idx, kind))
        });
        let Some((act_idx, conv_idx, kind)) = candidate else {
            break;
        };
        let attrs = match &nodes[conv_idx].op {
            Op::Conv2d(a) => a.clone(),
            Op::Conv2dFused { attrs, .. } => attrs.clone(),
            _ => unreachable!("candidate is always a convolution"),
        };
        let act_out = nodes[act_idx].outputs[0];
        let conv_out = nodes[conv_idx].outputs[0];
        let mut new_nodes = graph.nodes().to_vec();
        new_nodes[conv_idx].op = Op::Conv2dFused {
            attrs,
            activation: kind,
        };
        new_nodes.remove(act_idx);
        let mut new_outputs = graph.outputs().to_vec();
        rewire(&mut new_nodes, &mut new_outputs, act_out, conv_out);
        graph.set_nodes(new_nodes);
        graph.set_outputs(new_outputs);
        fused += 1;
    }
    fused
}

fn fold_constant_activations(graph: &mut Graph) -> usize {
    let mut folded = 0usize;
    loop {
        let nodes = graph.nodes().to_vec();
        let candidate = nodes.iter().enumerate().find(|(_, node)| {
            matches!(node.op, Op::Activation(_))
                && node.inputs.iter().all(|id| graph.constant(*id).is_some())
        });
        let Some((idx, node)) = candidate else {
            break;
        };
        let Op::Activation(kind) = node.op else {
            break;
        };
        let input = graph
            .constant(node.inputs[0])
            .expect("constant input")
            .clone();
        let mut data = input.data_f32().to_vec();
        kind.to_kernel().apply(&mut data);
        let out_id = node.outputs[0];
        graph.replace_constant(out_id, Tensor::from_vec(input.shape().clone(), data));
        let mut new_nodes = graph.nodes().to_vec();
        new_nodes.remove(idx);
        graph.set_nodes(new_nodes);
        folded += 1;
    }
    folded
}

fn eliminate_dead_nodes(graph: &mut Graph) -> usize {
    let mut removed = 0usize;
    loop {
        let nodes = graph.nodes().to_vec();
        let outputs = graph.outputs().to_vec();
        let dead = nodes.iter().enumerate().position(|(idx, node)| {
            node.outputs
                .iter()
                .all(|out| !outputs.contains(out) && consumer_count(&nodes, *out, idx) == 0)
        });
        let Some(idx) = dead else {
            break;
        };
        let mut new_nodes = graph.nodes().to_vec();
        new_nodes.remove(idx);
        graph.set_nodes(new_nodes);
        removed += 1;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_graph::{Conv2dAttrs, GraphBuilder, PoolAttrs};
    use mnn_kernels::conv::conv2d_reference;
    use mnn_tensor::Shape;

    /// Build conv -> bn -> relu -> pool with deterministic weights.
    fn conv_bn_relu_graph() -> Graph {
        let mut b = GraphBuilder::new("cbr");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), false);
        let y = b.batch_norm_auto("bn", y, 4);
        let y = b.activation("relu", y, ActivationKind::Relu);
        let y = b.pool("pool", y, PoolAttrs::max(2, 2));
        b.build(vec![y])
    }

    /// Execute a conv(+optional bn)(+optional relu) pipeline directly with kernels.
    fn run_reference(graph: &Graph, input: &[f32]) -> Vec<f32> {
        // Manually interpret the tiny graph structure (conv [+bn] [+relu] [+pool]).
        let mut current = input.to_vec();
        let mut h = 8usize;
        let mut w = 8usize;
        for node in graph.nodes() {
            match &node.op {
                Op::Conv2d(attrs) | Op::Conv2dFused { attrs, .. } => {
                    let params = attrs.to_conv_params();
                    let weight = graph.constant(node.inputs[1]).unwrap().data_f32().to_vec();
                    let bias = if attrs.has_bias {
                        graph.constant(node.inputs[2]).unwrap().data_f32().to_vec()
                    } else {
                        Vec::new()
                    };
                    current = conv2d_reference(&params, 1, h, w, &current, &weight, &bias);
                    let (oh, ow) = params.output_size(h, w);
                    h = oh;
                    w = ow;
                    if let Op::Conv2dFused { activation, .. } = &node.op {
                        activation.to_kernel().apply(&mut current);
                    }
                }
                Op::BatchNorm { epsilon } => {
                    let mean = graph.constant(node.inputs[1]).unwrap().data_f32().to_vec();
                    let var = graph.constant(node.inputs[2]).unwrap().data_f32().to_vec();
                    let gamma = graph.constant(node.inputs[3]).unwrap().data_f32().to_vec();
                    let beta = graph.constant(node.inputs[4]).unwrap().data_f32().to_vec();
                    let channels = mean.len();
                    mnn_kernels::norm::batch_norm_inplace(
                        &mut current,
                        1,
                        channels,
                        h * w,
                        &mean,
                        &var,
                        &gamma,
                        &beta,
                        *epsilon,
                    );
                }
                Op::Activation(kind) => kind.to_kernel().apply(&mut current),
                Op::Pool(attrs) => {
                    let params = attrs.to_pool_params();
                    let channels = current.len() / (h * w);
                    let (oh, ow) = params.output_size(h, w);
                    let mut pooled = vec![0.0; channels * oh * ow];
                    mnn_kernels::pool::pool2d(&params, 1, channels, h, w, &current, &mut pooled);
                    current = pooled;
                    h = oh;
                    w = ow;
                }
                other => panic!("unexpected op in test graph: {other}"),
            }
        }
        current
    }

    #[test]
    fn conv_bn_relu_is_fused_into_a_single_node_plus_pool() {
        let mut g = conv_bn_relu_graph();
        let report = optimize(&mut g, OptimizerOptions::default());
        assert_eq!(report.fused_batch_norms, 1);
        assert_eq!(report.fused_activations, 1);
        assert_eq!(report.nodes_before, 4);
        assert_eq!(report.nodes_after, 2);
        assert!(g.validate().is_ok());
        let hist = g.op_histogram();
        assert_eq!(hist.get("Conv2dFused"), Some(&1));
        assert_eq!(hist.get("Pool"), Some(&1));
        assert_eq!(hist.get("BatchNorm"), None);
    }

    #[test]
    fn fusion_preserves_numerical_results() {
        let original = conv_bn_relu_graph();
        let mut optimized = original.clone();
        optimize(&mut optimized, OptimizerOptions::default());

        let input: Vec<f32> = (0..3 * 8 * 8)
            .map(|v| ((v % 13) as f32 - 6.0) * 0.1)
            .collect();
        let expected = run_reference(&original, &input);
        let got = run_reference(&optimized, &input);
        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_feeding_multiple_consumers_is_not_fused() {
        let mut b = GraphBuilder::new("branchy");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let conv = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), false);
        let relu = b.activation("relu", conv, ActivationKind::Relu);
        let sig = b.activation("sig", conv, ActivationKind::Sigmoid);
        let sum = b.binary("sum", relu, sig, mnn_graph::BinaryKind::Add);
        let mut g = b.build(vec![sum]);
        let report = optimize(&mut g, OptimizerOptions::default());
        assert_eq!(report.fused_activations, 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn conv_that_is_a_graph_output_is_not_fused_away() {
        let mut b = GraphBuilder::new("out");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let conv = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), false);
        let relu = b.activation("relu", conv, ActivationKind::Relu);
        let mut g = b.build(vec![conv, relu]);
        let report = optimize(&mut g, OptimizerOptions::default());
        assert_eq!(report.fused_activations, 0);
        assert!(g.outputs().contains(&conv));
    }

    #[test]
    fn dead_nodes_are_removed() {
        let mut b = GraphBuilder::new("dead");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let used = b.activation("used", x, ActivationKind::Relu);
        let _unused = b.activation("unused", x, ActivationKind::Sigmoid);
        let mut g = b.build(vec![used]);
        let report = optimize(&mut g, OptimizerOptions::default());
        assert_eq!(report.removed_dead_nodes, 1);
        assert_eq!(g.nodes().len(), 1);
    }

    #[test]
    fn constant_activations_are_folded() {
        let mut b = GraphBuilder::new("constfold");
        let x = b.input("x", Shape::nchw(1, 2, 4, 4));
        let c = b.constant(
            "c",
            Tensor::from_vec(Shape::nchw(1, 2, 4, 4), vec![-1.0; 32]),
        );
        let folded = b.activation("relu_const", c, ActivationKind::Relu);
        let y = b.binary("add", x, folded, mnn_graph::BinaryKind::Add);
        let mut g = b.build(vec![y]);
        let report = optimize(&mut g, OptimizerOptions::default());
        assert_eq!(report.folded_constants, 1);
        // The folded slot now holds relu(-1) == 0 everywhere.
        let add_node = g.nodes().iter().find(|n| n.name == "add").unwrap();
        let folded_const = g.constant(add_node.inputs[1]).unwrap();
        assert!(folded_const.data_f32().iter().all(|&v| v == 0.0));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let mut g = conv_bn_relu_graph();
        let report = optimize(
            &mut g,
            OptimizerOptions {
                fuse_batch_norm: false,
                fuse_activations: false,
                fold_constants: false,
                eliminate_dead_nodes: false,
            },
        );
        assert_eq!(report.nodes_before, report.nodes_after);
        assert_eq!(g.nodes().len(), 4);
    }
}
