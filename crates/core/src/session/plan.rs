//! Pre-inference: scheme selection, hybrid scheduling, memory planning and
//! execution creation, lowered into the dense step list of a swappable
//! [`ExecutionPlan`].
//!
//! Everything here is a pure function of (graph geometry, configuration): a
//! session re-runs it whenever its input shapes change (`resize_session`) and
//! caches the resulting plans per shape signature. Whatever the run loop needs
//! to know about a node — where in the arena its operands and its output live,
//! which regions die with it, how much scratch it borrows, how to describe it
//! to a profiler — is decided here, once per plan.

use super::config::SessionConfig;
use super::F32_BYTES;
use crate::cost::{hybrid_schedule, placement_cost_ms, Placement};
use crate::memory_plan::{release_points, MemoryPlan};
use crate::scheme::{
    quantized_fc_decision_with, select_conv_scheme_with, select_quantized_conv_scheme_with,
    SchemeDecision,
};
use crate::CoreError;
use mnn_backend::{Backend, ConvScheme, Execution, ForwardType, SchemeHint};
use mnn_graph::{Graph, Node, NodeId, Op, TensorId};
use mnn_kernels::ScratchLen;
use mnn_obs::OpMeta;
use mnn_tensor::Shape;
use mnn_tune::{candidates_for_node, OpSignature, Tuner};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// The per-node outcome of pre-inference.
#[derive(Debug, Clone)]
pub struct NodePlacement {
    /// The node.
    pub node: NodeId,
    /// Node name (for reporting).
    pub name: String,
    /// Operator name.
    pub op: &'static str,
    /// Backend chosen by hybrid scheduling.
    pub forward_type: ForwardType,
    /// Convolution scheme chosen by the cost model, when the node is a convolution.
    pub scheme: Option<ConvScheme>,
    /// Estimated cost on the chosen backend, in milliseconds.
    pub estimated_cost_ms: f64,
    /// Measured cost of the selected scheme, when the node was auto-tuned
    /// (fresh measurement or a tuning-cache hit). `None` for cost-model
    /// placements.
    pub measured_cost_ms: Option<f64>,
}

impl NodePlacement {
    /// Whether this node's scheme came from measurements rather than the cost
    /// model.
    pub fn is_tuned(&self) -> bool {
        self.measured_cost_ms.is_some()
    }
}

/// Summary of everything pre-inference decided, for inspection and experiments.
#[derive(Debug, Clone)]
pub struct PreInferenceReport {
    /// Per-node backend/scheme decisions.
    pub placements: Vec<NodePlacement>,
    /// Estimated total cost of the placement, in milliseconds (Eq. 4).
    pub estimated_total_ms: f64,
    /// Arena elements required with live-range reuse.
    pub planned_memory_elements: usize,
    /// Elements required without reuse.
    pub unplanned_memory_elements: usize,
    /// Milliseconds spent in pre-inference (scheme search + execution creation).
    pub pre_inference_ms: f64,
    /// Executions carried over from the previous geometry by `resize_session`
    /// (constant-weight captures — including Winograd weight transforms — whose
    /// scheme did not change). Zero for a freshly created session.
    pub reused_executions: usize,
    /// Whether this plan was restored from the per-shape-signature pre-inference
    /// cache instead of being recomputed.
    pub from_cache: bool,
    /// Nodes whose scheme was resolved from tuning measurements (fresh or from
    /// the device-keyed tuning cache).
    pub tuned_nodes: usize,
    /// Candidate kernels micro-benchmarked while building *this* plan (0 when
    /// every tuned node hit the cache — the warm-start guarantee).
    pub tuning_measured_candidates: usize,
    /// Nodes the backend cost estimate had to skip for unknown shapes. When
    /// non-zero, hybrid placement was decided on a partial cost sum (see
    /// [`graph_cost`](crate::cost::graph_cost)).
    pub cost_skipped_nodes: usize,
}

impl PreInferenceReport {
    /// Fraction of intermediate memory saved by the plan.
    pub fn memory_savings_ratio(&self) -> f64 {
        if self.unplanned_memory_elements == 0 {
            return 0.0;
        }
        1.0 - self.planned_memory_elements as f64 / self.unplanned_memory_elements as f64
    }
}

impl fmt::Display for PreInferenceReport {
    /// Render the report as a per-node placement table, e.g.
    ///
    /// ```text
    /// pre-inference: 1.23 ms (computed), estimated run cost 0.456 ms
    /// memory: 12345 -> 2345 elements (81% saved)
    /// node              op              backend  scheme            est ms
    /// conv1             Conv2d          cpu      winograd-F(4x4)    0.123
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pre-inference: {:.2} ms ({}{}{}), estimated run cost {:.3} ms",
            self.pre_inference_ms,
            if self.from_cache {
                "cached plan"
            } else {
                "computed"
            },
            if self.reused_executions > 0 {
                format!(", {} executions reused", self.reused_executions)
            } else {
                String::new()
            },
            if self.tuned_nodes > 0 {
                format!(
                    ", {} nodes tuned ({} candidates measured)",
                    self.tuned_nodes, self.tuning_measured_candidates
                )
            } else {
                String::new()
            },
            self.estimated_total_ms
        )?;
        if self.cost_skipped_nodes > 0 {
            writeln!(
                f,
                "warning: cost model skipped {} node(s) with unknown shapes; placement used a partial sum",
                self.cost_skipped_nodes
            )?;
        }
        writeln!(
            f,
            "memory: {} -> {} elements ({:.0}% saved)",
            self.unplanned_memory_elements,
            self.planned_memory_elements,
            self.memory_savings_ratio() * 100.0
        )?;
        writeln!(
            f,
            "{:<20} {:<16} {:<8} {:<18} {:>9} {:>9}",
            "node", "op", "backend", "scheme", "est ms", "meas ms"
        )?;
        for p in &self.placements {
            writeln!(
                f,
                // `ForwardType`'s Display ignores width flags (write_str), so
                // render it to a string before padding.
                "{:<20} {:<16} {:<8} {:<18} {:>9.4} {:>9}",
                p.name,
                p.op,
                p.forward_type.to_string(),
                scheme_label(p.scheme),
                p.estimated_cost_ms,
                p.measured_cost_ms
                    .map(|ms| format!("{ms:.4}"))
                    .unwrap_or_else(|| "-".to_string()),
            )?;
        }
        Ok(())
    }
}

/// A placement's scheme as reports and profiler spans show it.
fn scheme_label(scheme: Option<ConvScheme>) -> String {
    scheme.map_or_else(|| "-".to_string(), |s| s.to_string())
}

/// Where a step reads an activation from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Operand {
    /// The staged graph input at this position.
    Input(usize),
    /// The output region of the step at this index.
    Step(usize),
}

/// One node lowered for the run loop.
pub(super) struct Step {
    pub(super) node: NodeId,
    pub(super) backend_index: usize,
    pub(super) hint: SchemeHint,
    /// Pre-created execution when preparation is decoupled from execution.
    pub(super) execution: Option<Box<dyn Execution>>,
    /// Activation inputs in the node's input order (constants were captured
    /// by the execution).
    pub(super) inputs: Vec<Operand>,
    /// Where the step writes its output — the memory plan's assignment — in
    /// `f32` elements from the start of the session's arena, its length
    /// (`shape.num_elements()`) and the shape inference gave it.
    pub(super) offset: usize,
    pub(super) len: usize,
    pub(super) shape: Shape,
    /// Steps whose output this step is the last to read: the plan may reuse
    /// their regions from the next step on.
    pub(super) release: Vec<usize>,
    /// How a timed run describes this step.
    pub(super) meta: OpMeta,
}

/// Everything pre-inference produced for one input geometry: the execution
/// order, the step list (placements, operands, arena regions, release points
/// and pre-created executions), the memory plan and the report. Sessions swap
/// whole plans on `resize_session`.
pub(super) struct ExecutionPlan {
    pub(super) order: Vec<NodeId>,
    pub(super) steps: Vec<Step>,
    /// Where each graph output is found after the last step, in graph-output
    /// order.
    pub(super) outputs: Vec<Operand>,
    /// What the hungriest step borrows from the session's scratch.
    pub(super) scratch: ScratchLen,
    pub(super) report: PreInferenceReport,
    pub(super) memory_plan: MemoryPlan,
}

/// The operand of every activation tensor: graph inputs by position, node
/// outputs by the step that produces them. Constants and tensors nobody
/// produces have none.
fn operands(graph: &Graph, order: &[NodeId]) -> Result<Vec<Option<Operand>>, CoreError> {
    let mut operand_of = vec![None; graph.tensors().len()];
    for (position, input) in graph.inputs().iter().enumerate() {
        graph.tensor_info(*input)?;
        operand_of[input.0] = Some(Operand::Input(position));
    }
    for (step, node_id) in order.iter().enumerate() {
        let node = graph.node(*node_id)?;
        let output = node.outputs.first().ok_or_else(|| {
            CoreError::InvalidInput(format!("node '{}' has no output", node.name))
        })?;
        graph.tensor_info(*output)?;
        operand_of[output.0] = Some(Operand::Step(step));
    }
    Ok(operand_of)
}

/// Run pre-inference for `graph` (shapes already inferred) against `backends`.
///
/// When `reuse` holds the plan of the previous geometry, executions whose
/// placement (backend) and scheme hint are unchanged are *moved* into the new
/// plan instead of being re-created — this carries constant-weight captures and
/// Winograd weight transforms across a resize.
pub(super) fn build_plan(
    graph: &Graph,
    config: &SessionConfig,
    backends: &mut [Box<dyn Backend>],
    reuse: Option<&mut ExecutionPlan>,
    tuner: Option<&Tuner>,
) -> Result<ExecutionPlan, CoreError> {
    let start = Instant::now();
    let tuning_baseline = tuner.map(|t| t.stats().measured_candidates).unwrap_or(0);

    // --- Hybrid scheduling (Eq. 4–5) -------------------------------------
    let backend_refs: Vec<&dyn Backend> = backends.iter().map(|b| b.as_ref()).collect();
    let cpu_index = backend_refs
        .iter()
        .position(|b| b.forward_type() == ForwardType::Cpu)
        .expect("CPU backend is always present");
    let placements: Vec<Placement> = hybrid_schedule(graph, &backend_refs, cpu_index);
    let estimated_total_ms = placement_cost_ms(&placements);

    // --- Memory plan (Fig. 3) and the dataflow of the step list ------------
    // One lifetime analysis serves both: the plan reuses a released tensor's
    // arena region, a debug run poisons it.
    let order = graph.topological_order()?;
    let releases = release_points(graph, &order)?;
    let memory_plan = MemoryPlan::walk(graph, &order, &releases)?;
    let operand_of = operands(graph, &order)?;
    let operand = |id: TensorId, node: &Node| {
        operand_of[id.0].ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "tensor {id} required by node '{}' is not available",
                node.name
            ))
        })
    };

    // --- Scheme selection (Eq. 2–3), with measured override ---------------
    let mut steps: Vec<Step> = Vec::with_capacity(order.len());
    let mut report_placements = Vec::with_capacity(order.len());
    let mut tuned_nodes = 0usize;
    // Executions prepared as tuning winners, installed into the plan below so
    // the measured kernel (including its Winograd weight transform) is not
    // re-created.
    let mut tuned_executions: HashMap<NodeId, Box<dyn Execution>> = HashMap::new();
    for (node_id, released) in order.iter().zip(&releases) {
        let node = graph.node(*node_id)?;
        let placement = placements
            .iter()
            .find(|p| p.node == *node_id)
            .expect("placement exists for every node");
        let scheme_decision: Option<SchemeDecision> = match &node.op {
            Op::Conv2d(attrs) | Op::Conv2dFused { attrs, .. } => {
                let input_shape = graph
                    .tensor_info(node.inputs[0])?
                    .shape
                    .clone()
                    .ok_or_else(|| {
                        CoreError::InvalidInput(format!("no shape for input of {}", node.name))
                    })?;
                Some(select_conv_scheme_with(
                    &attrs.to_conv_params(),
                    input_shape.height(),
                    input_shape.width(),
                    config.max_winograd_tile,
                    &config.cost_model,
                ))
            }
            Op::Conv2dQuantized { attrs, .. } => {
                let input_shape = graph
                    .tensor_info(node.inputs[0])?
                    .shape
                    .clone()
                    .ok_or_else(|| {
                        CoreError::InvalidInput(format!("no shape for input of {}", node.name))
                    })?;
                Some(select_quantized_conv_scheme_with(
                    &attrs.to_conv_params(),
                    input_shape.height(),
                    input_shape.width(),
                    &config.cost_model,
                ))
            }
            Op::FullyConnectedQuantized { .. } => Some(quantized_fc_decision_with(
                graph.node_mul_count(node).unwrap_or(0),
                &config.cost_model,
            )),
            _ => None,
        };
        let mut selected_scheme = scheme_decision.as_ref().map(|d| d.selected);
        let mut measured_cost_ms = None;

        // Measured override: only meaningful where wall-clock time is real —
        // nodes placed on the CPU backend (simulated GPU executions tick a
        // virtual clock). The cost-model choice above stays the fallback for
        // non-tunable nodes, `Cached`-mode misses and measurement failures.
        if let Some(tuner) = tuner {
            let on_cpu = backends[placement.backend_index].forward_type() == ForwardType::Cpu;
            if on_cpu && selected_scheme.is_some() {
                let candidates = candidates_for_node(node, config.max_winograd_tile);
                if !candidates.is_empty() {
                    if let Some(sig) = OpSignature::for_node(node, graph) {
                        // A cache hit is only usable when its scheme is in
                        // *this* session's candidate pool: a cache tuned under
                        // a larger `max_winograd_tile` (or a doctored file)
                        // must not smuggle in a scheme the current
                        // configuration forbids. An unusable hit degrades to a
                        // miss: re-measure in Full mode, cost model otherwise.
                        let cached = tuner.lookup(&sig).and_then(|entry| {
                            ConvScheme::parse(&entry.scheme)
                                .filter(|scheme| candidates.contains(scheme))
                                .map(|scheme| (scheme, entry.measured_ms))
                        });
                        let tuned = match cached {
                            Some(hit) => Some(hit),
                            None if config.tuning.measures() => {
                                match tuner.measure_node(
                                    backends[placement.backend_index].as_ref(),
                                    node,
                                    graph,
                                    &sig,
                                    &candidates,
                                    config.threads,
                                ) {
                                    Ok((entry, execution)) => {
                                        if config.decouple_preparation {
                                            tuned_executions.insert(*node_id, execution);
                                        }
                                        ConvScheme::parse(&entry.scheme)
                                            .map(|scheme| (scheme, entry.measured_ms))
                                    }
                                    // A failed measurement falls back to the
                                    // cost model; nothing is cached.
                                    Err(_) => None,
                                }
                            }
                            None => None,
                        };
                        if let Some((scheme, measured_ms)) = tuned {
                            selected_scheme = Some(scheme);
                            measured_cost_ms = Some(measured_ms);
                            tuned_nodes += 1;
                        }
                    }
                }
            }
        }

        let hint = SchemeHint {
            conv_scheme: selected_scheme,
            threads: Some(config.threads),
        };
        let forward_type = backends[placement.backend_index].forward_type();
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for input in &node.inputs {
            if !graph.tensor_info(*input)?.is_constant {
                inputs.push(operand(*input, node)?);
            }
        }
        let mut release = Vec::with_capacity(released.len());
        for tensor in released {
            // Graph inputs are never released, so only steps can turn up.
            if let Operand::Step(step) = operand(*tensor, node)? {
                release.push(step);
            }
        }
        let output = node.outputs[0];
        let planned = graph.tensor_info(output)?.shape.clone();
        let planned = planned.zip(memory_plan.region(output));
        let Some((shape, region)) = planned.filter(|(s, r)| r.len == s.num_elements() * F32_BYTES)
        else {
            return Err(CoreError::InvalidInput(format!(
                "output of node '{}' has no f32 region in the memory plan",
                node.name
            )));
        };
        steps.push(Step {
            node: *node_id,
            backend_index: placement.backend_index,
            hint,
            execution: None,
            inputs,
            offset: region.offset / F32_BYTES,
            len: shape.num_elements(),
            release,
            meta: OpMeta {
                name: node.name.clone(),
                op: node.op.name().to_string(),
                scheme: scheme_label(hint.conv_scheme),
                placement: forward_type.to_string(),
                shape: shape.to_string(),
            },
            shape,
        });
        report_placements.push(NodePlacement {
            node: *node_id,
            name: node.name.clone(),
            op: node.op.name(),
            forward_type,
            scheme: hint.conv_scheme,
            estimated_cost_ms: placement.cost_ms,
            measured_cost_ms,
        });
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|id| {
            // `release_points` has already checked that the graph knows `id`.
            operand_of[id.0].ok_or_else(|| {
                CoreError::InvalidInput(format!("graph output {id} was never produced"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    // --- Preparation–execution decoupling ---------------------------------
    let mut reused_executions = 0usize;
    if config.decouple_preparation {
        // Index the previous plan's executions by node so unchanged ones move over.
        let mut previous: HashMap<NodeId, &mut Step> = HashMap::new();
        if let Some(old) = reuse {
            for entry in &mut old.steps {
                previous.insert(entry.node, entry);
            }
        }
        for entry in &mut steps {
            // The tuning winner was already prepared (and validated) by the
            // measurement pass; install it instead of re-creating it.
            if let Some(execution) = tuned_executions.remove(&entry.node) {
                entry.execution = Some(execution);
                continue;
            }
            if let Some(old) = previous.get_mut(&entry.node) {
                // Executions may only carry over when the placement and scheme are
                // unchanged AND the backend's executions are geometry-invariant —
                // simulated GPU executions bake shape-derived virtual costs in at
                // creation time and must be re-encoded for the new geometry.
                if old.backend_index == entry.backend_index
                    && old.hint == entry.hint
                    && old.execution.is_some()
                    && backends[entry.backend_index].executions_are_geometry_invariant()
                {
                    entry.execution = old.execution.take();
                    reused_executions += 1;
                    continue;
                }
            }
            let node = graph.node(entry.node)?;
            let execution = backends[entry.backend_index].on_create(node, graph, &entry.hint)?;
            entry.execution = Some(execution);
        }
    }

    // --- Scratch: the largest single step's need (steps run one at a time) ---
    let mut scratch = ScratchLen::default();
    for step in &steps {
        let node = graph.node(step.node)?;
        let mut shapes = Vec::with_capacity(step.inputs.len());
        for input in &node.inputs {
            let info = graph.tensor_info(*input)?;
            if !info.is_constant {
                shapes.extend(&info.shape);
            }
        }
        scratch = scratch.max(match &step.execution {
            Some(execution) => execution.scratch(&shapes),
            // Preparation is coupled to execution: every run creates this
            // execution anew, so one is created here only to be asked.
            None => backends[step.backend_index]
                .on_create(node, graph, &step.hint)?
                .scratch(&shapes),
        });
    }

    let cost_skipped_nodes = crate::cost::skipped_cost_nodes(graph);
    let report = PreInferenceReport {
        placements: report_placements,
        estimated_total_ms,
        planned_memory_elements: memory_plan.planned_elements(),
        unplanned_memory_elements: memory_plan.unplanned_elements(),
        pre_inference_ms: start.elapsed().as_secs_f64() * 1000.0,
        reused_executions,
        from_cache: false,
        tuned_nodes,
        tuning_measured_candidates: tuner
            .map(|t| (t.stats().measured_candidates - tuning_baseline) as usize)
            .unwrap_or(0),
        cost_skipped_nodes,
    };

    Ok(ExecutionPlan {
        order,
        steps,
        outputs,
        scratch,
        report,
        memory_plan,
    })
}

/// Re-create any missing executions in `plan` (used when a plan is re-activated
/// from the shape-signature cache after some of its executions migrated to a
/// newer plan). Returns how many executions were retained as-is, so the
/// restored plan's report can describe *this* activation rather than the one
/// that originally built it.
pub(super) fn ensure_executions(
    plan: &mut ExecutionPlan,
    graph: &Graph,
    config: &SessionConfig,
    backends: &mut [Box<dyn Backend>],
) -> Result<usize, CoreError> {
    if !config.decouple_preparation {
        return Ok(0);
    }
    let mut retained = 0usize;
    for entry in &mut plan.steps {
        if entry.execution.is_none() {
            let node = graph.node(entry.node)?;
            entry.execution =
                Some(backends[entry.backend_index].on_create(node, graph, &entry.hint)?);
        } else {
            retained += 1;
        }
    }
    Ok(retained)
}
