//! Dynamic input resizing: MNN's `resizeTensor` + `resizeSession`.
//!
//! The paper's pre-inference (Fig. 2) runs once per *input geometry*: scheme
//! selection, hybrid scheduling and the memory plan are all functions of the
//! input shapes. When an application changes an input's shape it calls
//! [`Session::resize_input`] (staging, like MNN's `resizeTensor`) and then
//! [`Session::resize_session`], which re-runs shape inference and pre-inference
//! for the new geometry while:
//!
//! * **reusing execution instances** whose backend placement and scheme are
//!   unchanged — constant-weight captures, including Winograd-transformed
//!   weights, survive the resize;
//! * **caching whole plans per shape signature**, so alternating between
//!   previously-seen geometries swaps plans in O(1) instead of re-planning;
//! * **keeping the arena**: it grows to the largest geometry seen and smaller
//!   plans use a prefix, so a swap between known geometries allocates nothing.

use super::plan::{build_plan, ensure_executions};
use super::{CachedPlan, Session};
use crate::CoreError;
use mnn_graph::Graph;
use mnn_tensor::{Shape, Tensor};
use std::sync::Arc;
use std::time::Instant;

impl Session {
    /// Stage a new shape for the input named `name` (MNN's `resizeTensor`).
    ///
    /// Nothing is re-planned until [`Session::resize_session`] is called, so
    /// several inputs can be resized in one batch. Runs performed before
    /// `resize_session` still use the old geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown input name.
    pub fn resize_input(&mut self, name: &str, shape: Shape) -> Result<(), CoreError> {
        let id = self.graph.inputs()[self.resolve_input(name)?];
        self.pending_shapes.insert(id, shape);
        Ok(())
    }

    /// Apply staged input shapes: re-run shape inference and pre-inference for the
    /// new geometry (MNN's `resizeSession`).
    ///
    /// The previous geometry's plan is parked in the per-shape-signature cache;
    /// resizing back to it later restores it without re-planning (visible as
    /// [`PreInferenceReport::from_cache`](super::PreInferenceReport::from_cache)
    /// and counted by [`Session::plan_cache_hits`]). Staged input tensors are
    /// re-allocated (zero-filled) for inputs whose shape changed; outputs of
    /// previous runs are no longer available.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] when the new shapes do not satisfy shape
    /// inference (e.g. a channel-count change that contradicts the weights), in
    /// which case the session keeps its previous geometry and remains usable.
    /// Staged shapes are consumed either way — a rejected resize does not
    /// poison later `resize_input` + `resize_session` calls.
    pub fn resize_session(&mut self) -> Result<(), CoreError> {
        // Consume the staged shapes up front so every exit path — including the
        // error ones — leaves the session with a clean slate.
        let pending = std::mem::take(&mut self.pending_shapes);
        if pending.is_empty() {
            return Ok(());
        }
        let start = Instant::now();

        let current_key = self.shape_signature();
        let mut target_key = current_key.clone();
        for (position, id) in self.graph.inputs().iter().enumerate() {
            if let Some(shape) = pending.get(id) {
                target_key[position] = shape.clone();
            }
        }
        if target_key == current_key {
            return Ok(());
        }
        mnn_obs::global()
            .counter(
                mnn_obs::metrics::names::SESSION_RESIZES,
                "resize_session calls that changed the active geometry.",
            )
            .inc();

        if let Some(mut cached) = self.plan_cache.remove(&target_key) {
            // Cache hit: swap plans. Executions that migrated to a newer plan in
            // the meantime are re-created; everything else is reused as-is.
            let retained = ensure_executions(
                &mut cached.plan,
                &cached.graph,
                &self.config,
                &mut self.backends,
            )?;
            cached.plan.report.from_cache = true;
            // Describe *this* activation: how many executions the cached plan
            // still held, not whatever the original cold build reused.
            cached.plan.report.reused_executions = retained;
            cached.plan.report.pre_inference_ms = start.elapsed().as_secs_f64() * 1000.0;
            let old_plan = std::mem::replace(&mut self.plan, cached.plan);
            let old_graph = std::mem::replace(&mut self.graph, cached.graph);
            self.park_plan(
                current_key,
                CachedPlan {
                    graph: old_graph,
                    plan: old_plan,
                },
            );
            self.cache_hits += 1;
            mnn_obs::global()
                .counter(
                    mnn_obs::metrics::names::PLAN_CACHE_HITS,
                    "Resizes served from the per-shape-signature plan cache.",
                )
                .inc();
        } else {
            // Cold resize: re-infer shapes on a (cheap, weight-sharing) copy of the
            // graph, then re-run pre-inference, migrating unchanged executions.
            let mut new_graph: Graph = (*self.graph).clone();
            for (id, shape) in &pending {
                new_graph.set_input_shape(*id, shape.clone())?;
            }
            new_graph.infer_shapes()?;
            let new_graph = Arc::new(new_graph);
            let mut new_plan = match build_plan(
                &new_graph,
                &self.config,
                &mut self.backends,
                Some(&mut self.plan),
                self.tuner.as_ref(),
            ) {
                Ok(plan) => plan,
                Err(e) => {
                    // Re-create any executions the failed build migrated out of the
                    // active plan, so the session stays usable at its old geometry.
                    let _ = ensure_executions(
                        &mut self.plan,
                        &self.graph,
                        &self.config,
                        &mut self.backends,
                    )?;
                    return Err(e);
                }
            };
            Self::persist_tuning(self.tuner.as_ref());
            mnn_obs::global()
                .counter(
                    mnn_obs::metrics::names::PLAN_CACHE_MISSES,
                    "Resizes that re-ran pre-inference for a new geometry.",
                )
                .inc();
            new_plan.report.pre_inference_ms = start.elapsed().as_secs_f64() * 1000.0;
            let old_plan = std::mem::replace(&mut self.plan, new_plan);
            let old_graph = std::mem::replace(&mut self.graph, new_graph);
            self.park_plan(
                current_key,
                CachedPlan {
                    graph: old_graph,
                    plan: old_plan,
                },
            );
        }
        self.hold_memory_for_plan();

        // Refresh staged inputs and retained outputs: keep tensors whose shape
        // is unchanged, replace resized ones with zero-filled tensors of the
        // new shape.
        let io = self.graph.inputs().iter().chain(self.graph.outputs());
        for (id, tensor) in io.zip(self.inputs.iter_mut().chain(&mut self.outputs)) {
            let expected = Self::shape_of(&self.graph, *id)?;
            if tensor.shape() != expected {
                *tensor = Tensor::zeros(expected.clone());
            }
        }
        self.ran = false;
        Ok(())
    }

    /// Park a geometry's plan in the cache, evicting an arbitrary entry when the
    /// cache is full (the parked plan itself is always kept — the common pattern
    /// alternates between a small set of geometries). With
    /// [`SessionConfig::plan_cache_capacity`] set to 0 the plan is dropped
    /// instead: caching is disabled.
    fn park_plan(&mut self, key: Vec<Shape>, cached: CachedPlan) {
        let capacity = self.config.plan_cache_capacity;
        if capacity == 0 {
            return;
        }
        if self.plan_cache.len() >= capacity {
            if let Some(evict) = self.plan_cache.keys().next().cloned() {
                self.plan_cache.remove(&evict);
            }
        }
        self.plan_cache.insert(key, cached);
    }

    /// The session's current input shapes, in graph-input order (the key of the
    /// pre-inference cache).
    pub fn shape_signature(&self) -> Vec<Shape> {
        self.graph
            .inputs()
            .iter()
            .map(|id| {
                self.graph
                    .tensor_info(*id)
                    .ok()
                    .and_then(|info| info.shape.clone())
                    .unwrap_or_else(|| Shape::vector(0))
            })
            .collect()
    }

    /// Number of geometries whose pre-inference results are currently cached
    /// (excluding the active one).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// How many `resize_session` calls were served from the pre-inference cache.
    pub fn plan_cache_hits(&self) -> usize {
        self.cache_hits
    }
}
