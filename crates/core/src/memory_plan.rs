//! Static memory planning: the "virtual walk" of paper Fig. 3.
//!
//! Because input sizes are fixed, every intermediate tensor's size is known after
//! shape inference, so the engine can simulate the whole inference — recording each
//! allocation and release — once at session-creation time. The resulting plan
//! assigns every intermediate tensor an offset in a single reusable arena; buffers
//! whose live ranges do not overlap share memory. The session allocates that
//! arena once and every step writes its output at its assigned offset, so the
//! plan is the only description of where an activation lives.

use crate::CoreError;
use mnn_backend::memory::{MemoryPlanner, PlanId};
use mnn_graph::{Graph, NodeId, TensorId};
use std::collections::HashMap;

/// Every planned region starts on a multiple of this many bytes and is padded
/// to one (a cache line), and the session starts its arena on such a boundary:
/// an activation's alignment is the same in every run of every process.
pub const REGION_ALIGN: usize = 64;

/// The one tensor-lifetime analysis of pre-inference: for each position in
/// `order`, the intermediate tensors whose last consumer is the node at that
/// position, in the order the node reads them.
///
/// Constants and graph inputs never appear (they are not the engine's to
/// free), nor do graph outputs (they outlive the run). [`MemoryPlan`] turns
/// these release points into arena reuse; the session's step list turns them
/// into the regions a debug build poisons after each step.
///
/// # Errors
///
/// Returns [`CoreError::Graph`] for an id in `order` or in a node's inputs that
/// the graph does not know.
pub(crate) fn release_points(
    graph: &Graph,
    order: &[NodeId],
) -> Result<Vec<Vec<TensorId>>, CoreError> {
    let mut last_use: Vec<Option<usize>> = vec![None; graph.tensors().len()];
    for (position, node_id) in order.iter().enumerate() {
        for input in &graph.node(*node_id)?.inputs {
            if !graph.tensor_info(*input)?.is_constant {
                last_use[input.0] = Some(position);
            }
        }
    }
    for kept in graph.inputs().iter().chain(graph.outputs()) {
        graph.tensor_info(*kept)?;
        last_use[kept.0] = None;
    }
    let mut releases: Vec<Vec<TensorId>> = vec![Vec::new(); order.len()];
    for (position, node_id) in order.iter().enumerate() {
        let inputs = &graph.node(*node_id)?.inputs;
        for (i, input) in inputs.iter().enumerate() {
            // A node may read one tensor twice: release it once, after the
            // last read.
            if last_use[input.0] == Some(position) && !inputs[i + 1..].contains(input) {
                releases[position].push(*input);
            }
        }
    }
    Ok(releases)
}

/// A planned tensor's place in the arena, in bytes. `len` is the tensor's own
/// size; the padding up to [`REGION_ALIGN`] behind it belongs to nobody.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Offset from the start of the arena.
    pub offset: usize,
    /// Length of the tensor.
    pub len: usize,
}

/// One planned tensor: its arena region and the steps over which it holds it.
#[derive(Debug, Clone, Copy)]
struct Assignment {
    plan: PlanId,
    region: Region,
    acquired_at: usize,
    released_after: Option<usize>,
}

/// The memory plan produced by the virtual walk.
///
/// The walk is performed in **bytes**, honouring each slot's element type
/// ([`TensorInfo::dtype`](mnn_graph::TensorInfo)): an int8 intermediate costs one
/// byte per element where an `f32` costs four. The element-based accessors
/// report `f32`-equivalent counts for continuity with the paper's tables.
#[derive(Debug)]
pub struct MemoryPlan {
    /// Assignment of each planned (non-constant, non-input) tensor to an arena region.
    assignments: HashMap<TensorId, Assignment>,
    /// Arena size in bytes with live-range reuse.
    planned_bytes: usize,
    /// Total bytes that would be needed without any reuse (sum of all
    /// intermediate tensor sizes).
    unplanned_bytes: usize,
}

impl MemoryPlan {
    /// Build the plan for `graph` (shapes must already be inferred).
    ///
    /// The walk visits nodes in topological order; a node's output buffer is
    /// acquired before it runs and each input buffer is released after its last
    /// consumer has run — exactly the interleaving shown in Fig. 3, performed
    /// entirely ahead of real execution.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if the graph is cyclic or a shape is missing.
    pub fn build(graph: &Graph) -> Result<Self, CoreError> {
        let order = graph.topological_order()?;
        let releases = release_points(graph, &order)?;
        Self::walk(graph, &order, &releases)
    }

    /// The virtual walk over an already computed order and its
    /// [`release_points`].
    pub(crate) fn walk(
        graph: &Graph,
        order: &[NodeId],
        releases: &[Vec<TensorId>],
    ) -> Result<Self, CoreError> {
        let mut planner = MemoryPlanner::new();
        let mut assignments = HashMap::new();
        let mut planned_bytes = 0usize;
        let mut unplanned = 0usize;

        let tensor_bytes = |id: TensorId| -> Result<usize, CoreError> {
            let info = graph.tensor_info(id)?;
            let shape = info.shape.as_ref().ok_or_else(|| {
                CoreError::InvalidInput(format!("tensor {id} has no inferred shape"))
            })?;
            Ok(shape.num_elements() * info.dtype.size_of())
        };

        for (position, (node_id, released)) in order.iter().zip(releases).enumerate() {
            // Acquire the output buffer.
            for output in &graph.node(*node_id)?.outputs {
                let bytes = tensor_bytes(*output)?;
                unplanned += bytes;
                let plan = planner.plan_acquire(bytes.next_multiple_of(REGION_ALIGN));
                let buffer = planner.buffer(plan);
                planned_bytes = planned_bytes.max(buffer.offset + buffer.len);
                let assignment = Assignment {
                    plan,
                    region: Region {
                        offset: buffer.offset,
                        len: bytes,
                    },
                    acquired_at: position,
                    released_after: None,
                };
                assignments.insert(*output, assignment);
            }
            // Release inputs whose last consumer has now run.
            for input in released {
                if let Some(assignment) = assignments.get_mut(input) {
                    planner.plan_release(assignment.plan);
                    assignment.released_after = Some(position);
                }
            }
        }

        Ok(MemoryPlan {
            assignments,
            planned_bytes,
            unplanned_bytes: unplanned,
        })
    }

    /// Arena size in bytes required with reuse (dtype-accurate: int8 slots count
    /// one byte per element), a multiple of [`REGION_ALIGN`].
    ///
    /// A session's arena holds at least this much; what it charges to the
    /// `mnn_obs::resources` ledger is what it actually allocated
    /// ([`Session::activation_bytes`](crate::Session::activation_bytes)).
    pub fn planned_bytes(&self) -> usize {
        self.planned_bytes
    }

    /// Total bytes needed if every intermediate tensor had its own buffer.
    pub fn unplanned_bytes(&self) -> usize {
        self.unplanned_bytes
    }

    /// Arena size in `f32`-equivalent elements required with reuse.
    pub fn planned_elements(&self) -> usize {
        self.planned_bytes.div_ceil(4)
    }

    /// Total `f32`-equivalent elements needed if every intermediate tensor had its
    /// own buffer.
    pub fn unplanned_elements(&self) -> usize {
        self.unplanned_bytes.div_ceil(4)
    }

    /// The arena region assigned to a tensor, if it was planned.
    pub fn region(&self, id: TensorId) -> Option<Region> {
        self.assignments.get(&id).map(|a| a.region)
    }

    /// The steps (positions in the execution order) over which a planned tensor
    /// holds its arena region: from the step that produces it through the step
    /// after which the walk released it — `None` when it is kept to the end of
    /// the run, as graph outputs are.
    pub fn live_range(&self, id: TensorId) -> Option<(usize, Option<usize>)> {
        self.assignments
            .get(&id)
            .map(|a| (a.acquired_at, a.released_after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_graph::{ActivationKind, Conv2dAttrs, GraphBuilder};
    use mnn_tensor::Shape;

    fn chain(depth: usize) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input("x", Shape::nchw(1, 8, 32, 32));
        for i in 0..depth {
            x = b.activation(&format!("relu{i}"), x, ActivationKind::Relu);
        }
        let mut g = b.build(vec![x]);
        g.infer_shapes().unwrap();
        g
    }

    #[test]
    fn chain_of_equal_tensors_needs_two_slots() {
        let g = chain(10);
        let plan = MemoryPlan::build(&g).unwrap();
        let one = 8 * 32 * 32;
        assert_eq!(plan.unplanned_elements(), 10 * one);
        assert!(plan.planned_elements() <= 2 * one);
        // Reuse saves more than half of the one-buffer-per-tensor total.
        assert!(2 * plan.planned_bytes() < plan.unplanned_bytes());
    }

    #[test]
    fn residual_branches_keep_both_operands_live() {
        let mut b = GraphBuilder::new("residual");
        let x = b.input("x", Shape::nchw(1, 4, 16, 16));
        let a = b.activation("branch_a", x, ActivationKind::Relu);
        let c = b.activation("branch_b", x, ActivationKind::Sigmoid);
        let sum = b.binary("sum", a, c, mnn_graph::BinaryKind::Add);
        let mut g = b.build(vec![sum]);
        g.infer_shapes().unwrap();
        let plan = MemoryPlan::build(&g).unwrap();
        let one = 4 * 16 * 16;
        // Both branch outputs are simultaneously live, plus the sum output.
        assert!(plan.planned_elements() >= 2 * one);
        assert!(plan.planned_elements() <= 3 * one);
    }

    #[test]
    fn graph_outputs_are_never_recycled() {
        let g = chain(3);
        let plan = MemoryPlan::build(&g).unwrap();
        let out = g.outputs()[0];
        assert!(plan.region(out).is_some());
    }

    #[test]
    fn conv_network_plans_every_intermediate() {
        let mut b = GraphBuilder::new("convnet");
        let x = b.input("x", Shape::nchw(1, 3, 32, 32));
        let y = b.conv2d_auto("c1", x, Conv2dAttrs::same_3x3(3, 16), false);
        let y = b.conv2d_auto("c2", y, Conv2dAttrs::square(16, 32, 3, 2, 1), false);
        let y = b.conv2d_auto("c3", y, Conv2dAttrs::pointwise(32, 64), false);
        let mut g = b.build(vec![y]);
        g.infer_shapes().unwrap();
        let plan = MemoryPlan::build(&g).unwrap();
        for node in g.nodes() {
            let region = plan.region(node.outputs[0]).unwrap();
            assert_eq!(region.offset % REGION_ALIGN, 0);
            assert!(region.offset + region.len <= plan.planned_bytes());
        }
        assert_eq!(plan.planned_bytes() % REGION_ALIGN, 0);
        assert!(plan.planned_elements() < plan.unplanned_elements());
    }

    #[test]
    fn regions_start_and_end_on_cache_lines() {
        // 1x3x5x5 f32 is 300 bytes: not a multiple of 64.
        let mut b = GraphBuilder::new("odd");
        let mut x = b.input("x", Shape::nchw(1, 3, 5, 5));
        for i in 0..3 {
            x = b.activation(&format!("relu{i}"), x, ActivationKind::Relu);
        }
        let mut g = b.build(vec![x]);
        g.infer_shapes().unwrap();
        let plan = MemoryPlan::build(&g).unwrap();
        for node in g.nodes() {
            let region = plan.region(node.outputs[0]).unwrap();
            assert_eq!(region.len, 300);
            assert_eq!(region.offset % REGION_ALIGN, 0);
        }
        // Two live at a time, each padded to 320.
        assert_eq!(plan.planned_bytes(), 640);
        assert_eq!(plan.unplanned_bytes(), 900);
    }

    #[test]
    fn missing_shapes_are_reported() {
        let mut b = GraphBuilder::new("noshapes");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.activation("relu", x, ActivationKind::Relu);
        let g = b.build(vec![y]);
        // infer_shapes() not called
        assert!(MemoryPlan::build(&g).is_err());
    }
}
