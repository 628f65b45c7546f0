//! The Interpreter / Session API and the pre-inference pipeline.
//!
//! Mirroring MNN's user-facing flow (paper Fig. 2, "on-device inference"):
//!
//! 1. An [`Interpreter`] is created from an (optimized) graph; it validates the
//!    graph, runs shape inference and stores the result behind an `Arc`.
//! 2. [`Interpreter::create_session`] runs **pre-inference**: computation scheme
//!    selection for every convolution (Eq. 2–3), backend cost evaluation and hybrid
//!    scheduling (Eq. 4–5), the static memory plan (Fig. 3), and — when
//!    preparation–execution decoupling is enabled — creation of every execution
//!    instance (including Winograd weight transforms and simulated GPU command
//!    encoding). The returned [`Session`] is **owned** (`'static` and [`Send`]): it
//!    shares the graph with the interpreter through the `Arc`, may outlive it, and
//!    can be moved onto worker threads.
//!    The result is lowered once into a dense step list: each step owns its
//!    execution, knows where in the session's arena its inputs and its output
//!    live, and carries the metadata a profiler span needs. The arena (sized by
//!    the memory plan) and one scratch area (for the hungriest step) are
//!    allocated here.
//! 3. [`Session::run_with`] / [`Session::run`] then perform pure computation: a
//!    straight loop in which step *i* writes its planned region, with no lookup
//!    and no allocation. I/O is addressed by name ([`Session::input_mut`],
//!    [`Session::output`]).
//! 4. When the input geometry changes, [`Session::resize_input`] +
//!    [`Session::resize_session`] re-run pre-inference for the new shapes —
//!    reusing unchanged execution instances and caching whole plans per shape
//!    signature, so alternating between known geometries never re-plans.

mod config;
mod exec;
mod plan;
mod resize;
#[cfg(test)]
mod tests;

pub use config::{SessionConfig, SessionConfigBuilder, DEFAULT_PLAN_CACHE_CAPACITY};
pub use exec::RunStats;
pub use plan::{NodePlacement, PreInferenceReport};

use crate::memory_plan::{MemoryPlan, REGION_ALIGN};
use crate::CoreError;
use mnn_backend::{Backend, CpuBackend, ForwardType, SimGpuBackend};
use mnn_graph::{Graph, NodeId, TensorId};
use mnn_kernels::Scratch;
use mnn_tensor::{Shape, Tensor};
use mnn_tune::{DeviceFingerprint, Tuner, TuningStats};
use plan::ExecutionPlan;
use std::collections::HashMap;
use std::sync::Arc;

/// The model holder: owns the validated, shape-inferred graph behind an `Arc` so
/// that every session shares (rather than copies) the model weights.
#[derive(Debug)]
pub struct Interpreter {
    graph: Arc<Graph>,
}

impl Interpreter {
    /// Create an interpreter, validating the graph and inferring every shape.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] when the graph is structurally invalid or shapes
    /// cannot be inferred.
    pub fn from_graph(mut graph: Graph) -> Result<Self, CoreError> {
        graph.validate()?;
        graph.infer_shapes()?;
        Ok(Interpreter {
            graph: Arc::new(graph),
        })
    }

    /// The underlying graph (shapes inferred).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shared handle to the underlying graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Run pre-inference and build an owned [`Session`].
    ///
    /// The session holds its own handle to the graph: it remains fully usable if
    /// the interpreter is dropped, and it is [`Send`], so it can serve inferences
    /// from a worker thread.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for inconsistent configurations and
    /// propagates backend errors from execution creation.
    pub fn create_session(&self, config: SessionConfig) -> Result<Session, CoreError> {
        Session::create(Arc::clone(&self.graph), config)
    }
}

/// A cached pre-inference result: the geometry-specific graph plus its plan.
/// A parked plan holds no activation memory — the arena is the session's.
struct CachedPlan {
    graph: Arc<Graph>,
    plan: ExecutionPlan,
}

const F32_BYTES: usize = std::mem::size_of::<f32>();

/// An inference session: pre-inference results plus runtime state.
///
/// Sessions are **owned** and [`Send`]: they share the interpreter's graph via an
/// `Arc`, may outlive the interpreter, and can be moved across thread boundaries
/// (e.g. one session per worker thread, all sharing one set of weights).
pub struct Session {
    /// The graph at the session's *current* input geometry. Starts as the
    /// interpreter's graph; `resize_session` replaces it with a re-inferred copy
    /// (cheap — constants are shared through `Arc`s).
    graph: Arc<Graph>,
    config: SessionConfig,
    backends: Vec<Box<dyn Backend>>,
    cpu_index: usize,
    plan: ExecutionPlan,
    /// Every activation of a run: step *i* writes the region the memory plan
    /// assigned its output, counted from `arena_start`. Grows to the largest
    /// plan the session has activated and is reused, as is, by smaller ones.
    arena: Vec<f32>,
    /// The first element of `arena` on a [`REGION_ALIGN`] boundary.
    arena_start: usize,
    /// Temporaries of the running step (im2col matrix, Winograd tiles,
    /// quantized activations), sized for the hungriest step of any plan so far.
    scratch: Scratch,
    /// Input tensors staged for the next run, in graph-input order (see
    /// [`Session::input_mut`]).
    inputs: Vec<Tensor>,
    /// Outputs of the most recent run, in graph-output order, allocated with
    /// the plan; meaningful once `ran` (see [`Session::output`]).
    outputs: Vec<Tensor>,
    /// Whether a run has filled `outputs` at the current geometry.
    ran: bool,
    /// Input shape changes staged by [`Session::resize_input`], applied by
    /// [`Session::resize_session`].
    pending_shapes: HashMap<TensorId, Shape>,
    /// Pre-inference results cached per input-shape signature.
    plan_cache: HashMap<Vec<Shape>, CachedPlan>,
    cache_hits: usize,
    last_stats: RunStats,
    /// Measured scheme selection over the process-shared, device-keyed tuning
    /// cache; `None` when tuning is off.
    tuner: Option<Tuner>,
    /// The `arena` account of the session's scope in the `mnn_obs::resources`
    /// ledger ([`SessionConfig::resource_scope`], defaulting to the graph
    /// name), charged [`Session::activation_bytes`] whenever those buffers are
    /// (re)allocated; `None` when accounting is disabled.
    account: Option<mnn_obs::AccountedBytes>,
    /// What this session has charged to `account`.
    charged_bytes: u64,
}

// Sessions must stay movable across threads; this fails to compile if a
// non-`Send` field sneaks in.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl Session {
    fn create(graph: Arc<Graph>, config: SessionConfig) -> Result<Self, CoreError> {
        if config.threads == 0 {
            return Err(CoreError::InvalidConfig("thread count must be >= 1".into()));
        }

        // --- Backends -------------------------------------------------------
        let mut backends: Vec<Box<dyn Backend>> = Vec::new();
        let mut cpu_index = None;
        let mut forward_types = config.forward_types.clone();
        if !forward_types.contains(&ForwardType::Cpu) {
            forward_types.push(ForwardType::Cpu);
        }
        for ft in &forward_types {
            match ft {
                ForwardType::Cpu => {
                    let mut cpu = CpuBackend::new(config.threads);
                    if let Some(flops) = config.cpu_flops {
                        cpu = cpu.with_flops(flops);
                    }
                    cpu_index = Some(backends.len());
                    backends.push(Box::new(cpu));
                }
                gpu => {
                    let mut sim = SimGpuBackend::new(*gpu, config.gpu_profile);
                    sim.set_decoupled(config.decouple_preparation);
                    backends.push(Box::new(sim));
                }
            }
        }
        let cpu_index = cpu_index.expect("CPU backend is always present");

        // --- Tuning ---------------------------------------------------------
        // The shared cache is keyed by device fingerprint (+ path), so every
        // session of this process with the same configuration — e.g. all
        // workers of a SessionPool — shares one tuning pass.
        let tuner = if config.tuning.is_enabled() {
            let fingerprint =
                DeviceFingerprint::detect(config.threads, &backends[cpu_index].descriptor());
            let path = config
                .tune_cache_path
                .clone()
                .or_else(mnn_tune::default_cache_path);
            Some(Tuner::new(mnn_tune::shared_cache(fingerprint, path)))
        } else {
            None
        };

        let prepare_start = std::time::Instant::now();
        let plan = plan::build_plan(&graph, &config, &mut backends, None, tuner.as_ref())?;
        Self::persist_tuning(tuner.as_ref());
        let metrics = mnn_obs::global();
        metrics
            .counter(
                mnn_obs::metrics::names::SESSION_PREPARES,
                "Sessions prepared (full pre-inference passes).",
            )
            .inc();
        metrics
            .histogram(
                mnn_obs::metrics::names::SESSION_PREPARE_MS,
                "Session preparation wall time, milliseconds.",
                mnn_obs::metrics::LATENCY_MS_BUCKETS,
            )
            .observe(prepare_start.elapsed().as_secs_f64() * 1000.0);
        let account = config.account_resources.then(|| {
            let scope = config.resource_scope.as_deref();
            mnn_obs::resources::account(scope.unwrap_or_else(|| graph.name()), "arena")
        });
        let mut session = Session {
            inputs: Self::zeroed(&graph, graph.inputs())?,
            outputs: Self::zeroed(&graph, graph.outputs())?,
            graph,
            config,
            backends,
            cpu_index,
            plan,
            arena: Vec::new(),
            arena_start: 0,
            scratch: Scratch::default(),
            ran: false,
            pending_shapes: HashMap::new(),
            plan_cache: HashMap::new(),
            cache_hits: 0,
            last_stats: RunStats::default(),
            tuner,
            account,
            charged_bytes: 0,
        };
        session.hold_memory_for_plan();
        Ok(session)
    }

    /// Make the arena and the scratch large enough for the active plan — the
    /// one place activation memory is allocated, called whenever a plan becomes
    /// active — and charge the ledger what is now held. A plan that fits what
    /// an earlier, larger one left behind costs nothing here.
    fn hold_memory_for_plan(&mut self) {
        let planned = self.plan.memory_plan.planned_bytes() / F32_BYTES;
        if self.arena.len() < self.arena_start + planned {
            // Debug builds start from NaN so that a kernel which accumulates
            // into an output it never cleared fails the conformance suites.
            let fill = if cfg!(debug_assertions) {
                f32::NAN
            } else {
                0.0
            };
            // One spare line, so the planned part can start on a boundary
            // wherever the allocator put the buffer; the old arena goes first,
            // so that the two are never resident together.
            self.arena = Vec::new();
            self.arena = vec![fill; planned + REGION_ALIGN / F32_BYTES];
            let misalignment = self.arena.as_ptr() as usize % REGION_ALIGN;
            self.arena_start = (REGION_ALIGN - misalignment) % REGION_ALIGN / F32_BYTES;
        }
        self.scratch.grow(self.plan.scratch);
        let held = self.activation_bytes() as u64;
        if let Some(account) = self.account.as_ref().filter(|_| held != self.charged_bytes) {
            account.sub(self.charged_bytes);
            account.add(held);
            self.charged_bytes = held;
        }
    }

    /// Bytes of activation memory this session holds: its arena plus its
    /// scratch, as allocated (at least [`MemoryPlan::planned_bytes`] of the
    /// largest plan activated so far). This is the figure the session charges
    /// to the `arena` account of the resource ledger.
    pub fn activation_bytes(&self) -> usize {
        self.arena.capacity() * F32_BYTES + self.scratch.capacity_bytes()
    }

    /// Best-effort persistence of freshly measured tuning entries: a
    /// filesystem failure must never fail session preparation, but it should
    /// not be silent either.
    fn persist_tuning(tuner: Option<&Tuner>) {
        if let Some(tuner) = tuner {
            if let Err(e) = tuner.persist() {
                mnn_obs::warn!("mnn-tune", "failed to persist tuning cache: {e}");
            }
        }
    }

    /// The shape of a graph input or output.
    fn shape_of(graph: &Graph, id: TensorId) -> Result<&Shape, CoreError> {
        graph
            .tensor_info(id)?
            .shape
            .as_ref()
            .ok_or_else(|| CoreError::InvalidInput(format!("graph tensor {id} has no shape")))
    }

    /// Zero-filled tensors of the shapes the graph currently gives `ids`: the
    /// staged inputs, and the tensors a run copies the graph outputs into.
    fn zeroed(graph: &Graph, ids: &[TensorId]) -> Result<Vec<Tensor>, CoreError> {
        ids.iter()
            .map(|id| Ok(Tensor::zeros(Self::shape_of(graph, *id)?.clone())))
            .collect()
    }

    /// The pre-inference report (schemes, placements, memory, estimated cost) for
    /// the session's current input geometry.
    pub fn report(&self) -> &PreInferenceReport {
        &self.plan.report
    }

    /// The static memory plan computed for the current input geometry.
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan.memory_plan
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The graph at the session's current input geometry.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Timing of the most recent run.
    pub fn last_stats(&self) -> RunStats {
        self.last_stats
    }

    /// Index of the CPU fallback backend in this session's backend list.
    pub fn cpu_backend_index(&self) -> usize {
        self.cpu_index
    }

    /// Counters of the process-shared tuning cache this session uses, or
    /// `None` when tuning is off ([`TuningMode::Off`](mnn_tune::TuningMode)).
    ///
    /// The counters are cumulative over every session sharing the cache —
    /// that is the point: a `SessionPool` of N workers shows **one** tuning
    /// pass, and a session warm-started from a persisted cache shows **zero**
    /// measured candidates.
    pub fn tuning_stats(&self) -> Option<TuningStats> {
        self.tuner.as_ref().map(Tuner::stats)
    }

    /// Execution order used by the session (topological).
    pub fn execution_order(&self) -> &[NodeId] {
        &self.plan.order
    }

    /// The declared input names, in positional order.
    pub fn input_names(&self) -> Vec<&str> {
        self.graph.input_names()
    }

    /// The output names, in positional order.
    pub fn output_names(&self) -> Vec<&str> {
        self.graph.output_names()
    }
}

impl Drop for Session {
    /// Release what this session charged to the resource ledger.
    fn drop(&mut self) {
        if let Some(account) = &self.account {
            account.sub(self.charged_bytes);
        }
    }
}
