//! Backend cost evaluation and hybrid scheduling (paper Eq. 4–5, Section 3.4).
//!
//! The backend term of `C_total = C_algorithm + C_backend` sums, over all operators,
//! the estimated time on each candidate backend:
//!
//! ```text
//! C_op = MUL / FLOPS * 1000                 (CPU)
//! C_op = MUL / FLOPS * 1000 + t_schedule    (GPU)
//! ```
//!
//! Whole-graph placement can either put every operator on the single cheapest
//! backend (the paper's Eq. 4 "choose the backend with minimal total cost") or place
//! each operator individually — *hybrid scheduling* — falling back to the CPU for
//! operators the GPU backend does not implement.

use mnn_backend::{Backend, BackendDescriptor};
use mnn_graph::{Graph, NodeId};

/// A whole-graph cost estimate, together with how complete it is.
///
/// `skipped_nodes` counts nodes whose multiplication count could not be
/// estimated (unknown shapes): their cost is **missing from the sum**, so a
/// placement decided on a partial sum should be treated with suspicion. The
/// count is surfaced in `PreInferenceReport` so hybrid placement is never
/// silently decided on incomplete information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphCost {
    /// Sum of per-node cost estimates, in milliseconds (Eq. 4).
    pub cost_ms: f64,
    /// Nodes excluded from the sum because their shapes are unknown.
    pub skipped_nodes: usize,
}

/// Number of nodes in `graph` whose cost cannot be estimated (unknown
/// shapes) — the nodes every Eq. 4 sum over this graph silently excludes.
pub fn skipped_cost_nodes(graph: &Graph) -> usize {
    graph
        .nodes()
        .iter()
        .filter(|node| graph.node_mul_count(node).is_none())
        .count()
}

/// Estimated cost of running every node of `graph` on the backend described by
/// `descriptor` (Eq. 4), reporting how many nodes had to be skipped for
/// unknown shapes.
pub fn graph_cost(graph: &Graph, descriptor: &BackendDescriptor) -> GraphCost {
    let cost_ms = graph
        .nodes()
        .iter()
        .filter_map(|node| graph.node_mul_count(node))
        .map(|muls| descriptor.op_cost_ms(muls))
        .sum();
    GraphCost {
        cost_ms,
        skipped_nodes: skipped_cost_nodes(graph),
    }
}

/// Per-node backend placement produced by hybrid scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The node being placed.
    pub node: NodeId,
    /// Index into the backend list passed to [`hybrid_schedule`].
    pub backend_index: usize,
    /// Estimated cost of the node on that backend, in milliseconds.
    pub cost_ms: f64,
}

/// Assign every node to the cheapest backend that supports its operator
/// (Section 3.4, "enable hybrid scheduling").
///
/// `fallback` is the index of the backend guaranteed to support everything (the
/// CPU); it is used when no other backend supports an operator.
///
/// # Panics
///
/// Panics if `backends` is empty or `fallback` is out of range.
pub fn hybrid_schedule(
    graph: &Graph,
    backends: &[&dyn Backend],
    fallback: usize,
) -> Vec<Placement> {
    assert!(!backends.is_empty(), "at least one backend is required");
    assert!(fallback < backends.len(), "fallback index out of range");
    graph
        .nodes()
        .iter()
        .map(|node| {
            let muls = graph.node_mul_count(node).unwrap_or(0);
            let mut best: Option<(usize, f64)> = None;
            for (i, backend) in backends.iter().enumerate() {
                if !backend.supports(&node.op) {
                    continue;
                }
                let cost = backend.descriptor().op_cost_ms(muls);
                if best.map(|(_, c)| cost < c).unwrap_or(true) {
                    best = Some((i, cost));
                }
            }
            let (backend_index, cost_ms) = best
                .unwrap_or_else(|| (fallback, backends[fallback].descriptor().op_cost_ms(muls)));
            Placement {
                node: node.id,
                backend_index,
                cost_ms,
            }
        })
        .collect()
}

/// Total estimated cost of a hybrid placement, in milliseconds.
pub fn placement_cost_ms(placements: &[Placement]) -> f64 {
    placements.iter().map(|p| p.cost_ms).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_backend::{CpuBackend, ForwardType, GpuProfile, SimGpuBackend};
    use mnn_graph::{Conv2dAttrs, GraphBuilder};
    use mnn_tensor::Shape;

    fn conv_heavy_graph() -> Graph {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", Shape::nchw(1, 32, 56, 56));
        let y = b.conv2d_auto("conv1", x, Conv2dAttrs::same_3x3(32, 64), false);
        let y = b.conv2d_auto("conv2", y, Conv2dAttrs::same_3x3(64, 64), false);
        let y = b.flatten("flat", y, mnn_graph::FlattenAttrs { start_axis: 1 });
        let y = b.fully_connected_auto("fc", y, 64 * 56 * 56, 10);
        let mut g = b.build(vec![y]);
        g.infer_shapes().unwrap();
        g
    }

    #[test]
    fn graph_cost_falls_as_flops_rise() {
        let g = conv_heavy_graph();
        let slow = CpuBackend::new(1).descriptor();
        let fast = CpuBackend::new(4).descriptor();
        assert!(graph_cost(&g, &slow).cost_ms > graph_cost(&g, &fast).cost_ms);
    }

    #[test]
    fn graph_cost_reports_skipped_nodes_instead_of_hiding_them() {
        let g = conv_heavy_graph();
        let d = CpuBackend::new(1).descriptor();
        // Fully-inferred graph: nothing skipped.
        assert_eq!(graph_cost(&g, &d).skipped_nodes, 0);

        // Erase an intermediate shape: the node's cost drops out of the sum
        // and the skip is counted rather than silently swallowed.
        let mut partial = g.clone();
        let conv2_input = partial.nodes()[1].inputs[0];
        partial.tensor_info_mut(conv2_input).unwrap().shape = None;
        let cost = graph_cost(&partial, &d);
        assert!(cost.skipped_nodes >= 1);
        assert!(cost.cost_ms < graph_cost(&g, &d).cost_ms);
    }

    #[test]
    fn hybrid_schedule_places_unsupported_ops_on_cpu() {
        let g = conv_heavy_graph();
        let cpu = CpuBackend::new(2);
        let gpu = SimGpuBackend::new(ForwardType::Vulkan, GpuProfile::by_name("Mali-G72"));
        let backends: Vec<&dyn Backend> = vec![&cpu, &gpu];
        let placements = hybrid_schedule(&g, &backends, 0);
        assert_eq!(placements.len(), g.nodes().len());
        // Convolutions land on the (fast) GPU…
        assert_eq!(placements[0].backend_index, 1);
        assert_eq!(placements[1].backend_index, 1);
        // …while the fully-connected head, unsupported there, stays on the CPU.
        let fc_index = g
            .nodes()
            .iter()
            .position(|n| matches!(n.op, mnn_graph::Op::FullyConnected { .. }))
            .unwrap();
        assert_eq!(placements[fc_index].backend_index, 0);
    }

    #[test]
    fn hybrid_cost_is_no_worse_than_single_backend_cost() {
        let g = conv_heavy_graph();
        let cpu = CpuBackend::new(2);
        let gpu = SimGpuBackend::new(ForwardType::OpenCl, GpuProfile::by_name("Adreno 540"));
        let backends: Vec<&dyn Backend> = vec![&cpu, &gpu];
        let hybrid = placement_cost_ms(&hybrid_schedule(&g, &backends, 0));
        let cpu_only = graph_cost(&g, &cpu.descriptor()).cost_ms;
        // Hybrid may only improve on the universal CPU placement.
        assert!(hybrid <= cpu_only + 1e-9);
    }

    #[test]
    fn tiny_graphs_prefer_cpu_due_to_schedule_overhead() {
        // A graph of many trivially small ops: per-op GPU schedule overhead dominates.
        let mut b = GraphBuilder::new("tiny");
        let mut x = b.input("x", Shape::nchw(1, 1, 4, 4));
        for i in 0..20 {
            x = b.activation(&format!("relu{i}"), x, mnn_graph::ActivationKind::Relu);
        }
        let mut g = b.build(vec![x]);
        g.infer_shapes().unwrap();
        let cpu = CpuBackend::new(1);
        let gpu = SimGpuBackend::new(ForwardType::OpenCl, GpuProfile::by_name("Adreno 540"));
        let backends: Vec<&dyn Backend> = vec![&cpu, &gpu];
        let placements = hybrid_schedule(&g, &backends, 0);
        assert!(placements.iter().all(|p| p.backend_index == 0));
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn hybrid_schedule_requires_backends() {
        let g = conv_heavy_graph();
        hybrid_schedule(&g, &[], 0);
    }
}
