//! The [`Server`]: worker threads, submission API and lifecycle.

use crate::batcher;
use crate::health::{WorkerHealth, WorkerSlot, WorkerState};
use crate::queue::RequestQueue;
use crate::request::{QueuedRequest, ResponseHandle, ResponseSlot, Signature};
use crate::stats::{ServerStats, StatsCollector};
use crate::ServeError;
use mnn_core::{Interpreter, SessionConfig, SessionPool, TuningMode};
use mnn_graph::Graph;
use mnn_obs::{ActiveTrace, FlightRecorder, SloConfig, SloSnapshot};
use mnn_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default watchdog deadline: generous enough that only a genuinely wedged
/// worker (deadlocked kernel, runaway inference) trips it.
const DEFAULT_WATCHDOG_DEADLINE: Duration = Duration::from_secs(30);

/// Configures and builds a [`Server`]; obtained from [`Server::builder`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    workers: usize,
    max_batch: usize,
    batch_window: Duration,
    queue_capacity: Option<usize>,
    session: SessionConfig,
    trace_recorder: Option<Arc<FlightRecorder>>,
    watchdog_deadline: Duration,
    slo: Option<SloConfig>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            workers: 2,
            max_batch: 8,
            batch_window: Duration::from_millis(1),
            queue_capacity: None,
            session: SessionConfig::default(),
            trace_recorder: None,
            watchdog_deadline: DEFAULT_WATCHDOG_DEADLINE,
            slo: None,
        }
    }
}

impl ServerBuilder {
    /// Number of worker threads, each owning one pre-warmed session (default 2).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Largest number of compatible requests coalesced into one inference
    /// (default 8). `1` disables micro-batching.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// How long a worker holding a partial batch waits for more compatible
    /// requests before running it (default 1 ms). Bounds the latency cost a
    /// request can pay for batching.
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Bound on queued (not yet executing) requests; submission beyond it
    /// fails with [`ServeError::QueueFull`]. Defaults to
    /// `workers * max_batch * 4`.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Session configuration used by every worker (threads, backends, …).
    ///
    /// The plan-cache capacity is raised to at least `max_batch + 1` so each
    /// batch size 1..=`max_batch` keeps a warm plan.
    pub fn session_config(mut self, config: SessionConfig) -> Self {
        self.session = config;
        self
    }

    /// Kernel auto-tuning mode for the pooled sessions (default
    /// [`TuningMode::Off`]); shorthand for setting it on
    /// [`ServerBuilder::session_config`].
    ///
    /// With [`TuningMode::Full`] the **first** pre-warmed worker measures each
    /// convolution's candidate kernels once; the remaining workers find the
    /// results in the process-shared, device-keyed tuning cache and perform
    /// zero measurements — pre-warm cost stays one tuning pass regardless of
    /// pool size. Configure `SessionConfig::tune_cache_path` (or
    /// `MNN_TUNE_CACHE`) to persist the measurements so the next process
    /// starts warm.
    pub fn tuning(mut self, mode: TuningMode) -> Self {
        self.session.tuning = mode;
        self
    }

    /// Attach a [`FlightRecorder`]: every [`Server::submit`] without an
    /// explicit trace opens one (finished at fulfillment), and traces handed
    /// in through [`Server::submit_with_trace`] gain serve-side stage spans.
    /// Without a recorder the server never takes tracing timestamps beyond
    /// the queue's dequeue stamp.
    pub fn trace_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.trace_recorder = Some(recorder);
        self
    }

    /// How long a non-idle worker may go without a heartbeat before the
    /// watchdog flags it stalled (default 30 s). Workers heartbeat at batch
    /// boundaries, so the deadline must comfortably exceed the longest
    /// expected single inference. A stalled worker raises the
    /// `mnn_stalled_workers` gauge, increments `mnn_worker_stalls_total`,
    /// surfaces in [`ServerStats::stalled_workers`] and fails `/readyz`; the
    /// flag clears when the worker heartbeats again.
    pub fn watchdog_deadline(mut self, deadline: Duration) -> Self {
        self.watchdog_deadline = deadline;
        self
    }

    /// Attach a latency/availability service-level objective. Every completed
    /// request feeds a rolling one-hour window; compliance and burn rates are
    /// reported in [`ServerStats::slo`] (and `/v1/status` under `mnn-http`).
    pub fn slo(mut self, config: SloConfig) -> Self {
        self.slo = Some(config);
        self
    }

    /// Validate the graph and start the server: builds the session pool (full
    /// pre-inference per worker) and spawns the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero workers/batch/queue or a
    /// graph that fails validation or pre-inference.
    pub fn build(self, graph: Graph) -> Result<Server, ServeError> {
        let interpreter =
            Interpreter::from_graph(graph).map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
        self.build_from_interpreter(&interpreter)
    }

    /// Like [`ServerBuilder::build`], for a graph already held by an
    /// [`Interpreter`] (the server shares it, no copy).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for inconsistent settings and
    /// propagates pre-inference failures.
    pub fn build_from_interpreter(self, interpreter: &Interpreter) -> Result<Server, ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        let queue_capacity = self
            .queue_capacity
            .unwrap_or(self.workers * self.max_batch * 4);
        if queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue capacity must be >= 1".into(),
            ));
        }

        let mut session = self.session.clone();
        // Every batch size in 1..=max_batch is its own input geometry; keep
        // them all warm in the plan cache.
        session.plan_cache_capacity = session.plan_cache_capacity.max(self.max_batch + 1);
        let pool = SessionPool::new(interpreter, session, self.workers)
            .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;

        let queue = Arc::new(RequestQueue::new(queue_capacity));
        let stats = Arc::new(StatsCollector::new(self.max_batch, self.slo));
        let health = Arc::new(WorkerHealth::new(self.workers));
        let workers = (0..self.workers)
            .map(|index| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let pool = pool.clone();
                let max_batch = self.max_batch;
                let window = self.batch_window;
                let slot = health.slot(index);
                std::thread::Builder::new()
                    .name(format!("mnn-serve-{index}"))
                    .spawn(move || worker_loop(&queue, &pool, &stats, max_batch, window, &slot))
                    .map_err(|e| ServeError::InvalidConfig(format!("spawn failed: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        // The watchdog samples much faster than the deadline so a stall is
        // flagged promptly after it exceeds the budget, without busy-spinning.
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let health = Arc::clone(&health);
            let stop = Arc::clone(&watchdog_stop);
            let deadline = self.watchdog_deadline;
            let interval =
                (deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(500));
            std::thread::Builder::new()
                .name("mnn-serve-watchdog".into())
                .spawn(move || {
                    // Sleep in short slices so shutdown never waits a full
                    // interval for the watchdog to notice the stop flag.
                    let slice = interval.min(Duration::from_millis(10));
                    let mut next_check = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        if Instant::now() >= next_check {
                            health.check(deadline);
                            next_check = Instant::now() + interval;
                        }
                        std::thread::sleep(slice);
                    }
                })
                .map_err(|e| ServeError::InvalidConfig(format!("spawn failed: {e}")))?
        };

        Ok(Server {
            graph: interpreter.graph_arc(),
            queue,
            stats,
            workers,
            worker_count: self.workers,
            max_batch: self.max_batch,
            batch_window: self.batch_window,
            queue_capacity,
            trace_recorder: self.trace_recorder,
            health,
            watchdog: Some(watchdog),
            watchdog_stop,
            watchdog_deadline: self.watchdog_deadline,
        })
    }
}

/// One worker: pull micro-batches until the queue closes and drains,
/// heartbeating its health slot at every batch boundary.
fn worker_loop(
    queue: &RequestQueue,
    pool: &SessionPool,
    stats: &StatsCollector,
    max_batch: usize,
    batch_window: Duration,
    slot: &WorkerSlot,
) {
    loop {
        slot.beat(WorkerState::Idle);
        let Some(batch) = queue.next_batch(max_batch, batch_window, Some(slot)) else {
            break;
        };
        slot.beat(WorkerState::Running);
        let mut session = pool.acquire();
        batcher::process_batch(&mut session, batch, stats);
    }
    slot.beat(WorkerState::Idle);
}

/// A concurrent model server: a pool of pre-warmed sessions fed by a bounded
/// request queue with dynamic micro-batching.
///
/// * [`Server::submit`] enqueues a request and returns a [`ResponseHandle`]
///   immediately (or [`ServeError::QueueFull`] — backpressure).
/// * [`Server::infer`] is the blocking convenience: submit + wait.
/// * [`Server::stats`] snapshots throughput, latency percentiles, the
///   batch-size histogram and queue depth.
///
/// Dropping the server shuts it down gracefully: queued requests are still
/// served, then the workers exit and are joined.
pub struct Server {
    graph: Arc<Graph>,
    queue: Arc<RequestQueue>,
    stats: Arc<StatsCollector>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
    max_batch: usize,
    batch_window: Duration,
    queue_capacity: usize,
    trace_recorder: Option<Arc<FlightRecorder>>,
    health: Arc<WorkerHealth>,
    watchdog: Option<JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    watchdog_deadline: Duration,
}

impl Server {
    /// Start configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Build a server with default settings (2 workers, micro-batching up to 8).
    ///
    /// # Errors
    ///
    /// See [`ServerBuilder::build`].
    pub fn new(graph: Graph) -> Result<Server, ServeError> {
        Server::builder().build(graph)
    }

    /// Enqueue one inference request (named inputs, one sample each) and
    /// return a handle to await its outputs.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidRequest`] for unknown, missing or duplicated
    ///   input names.
    /// * [`ServeError::QueueFull`] when the bounded queue is at capacity —
    ///   back off and retry.
    /// * [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, inputs: &[(&str, &Tensor)]) -> Result<ResponseHandle, ServeError> {
        // With a recorder attached (and enabled — one relaxed load decides),
        // embedded submissions open their own trace; it is finished when the
        // worker fulfills the response slot.
        let trace = self
            .trace_recorder
            .as_ref()
            .and_then(|recorder| recorder.begin_owned_trace_at(None, Instant::now()));
        self.submit_with_trace(inputs, trace)
    }

    /// Like [`Server::submit`], carrying a caller-created trace (usually one
    /// the HTTP frontend opened at accept time and will finish after the
    /// response write). The serve layer attributes queue-wait,
    /// batch-assembly, inference and scatter stage spans — and the micro-batch
    /// link — to it. `None` disables tracing for this request.
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`]. [`ActiveTrace`] is a cheap `Arc` handle:
    /// callers that must seal the trace themselves (e.g. with a rejection
    /// status) pass a clone and keep one.
    pub fn submit_with_trace(
        &self,
        inputs: &[(&str, &Tensor)],
        trace: Option<ActiveTrace>,
    ) -> Result<ResponseHandle, ServeError> {
        // Fail on backpressure BEFORE cloning any tensor: rejected submissions
        // must stay cheap precisely when the server is saturated. (`try_push`
        // re-checks authoritatively under the same lock.)
        self.queue.check_admission().map_err(|err| {
            if matches!(err, ServeError::QueueFull { .. }) {
                self.stats.record_rejected();
            }
            err
        })?;
        let expected = self.graph.inputs().len();
        if inputs.len() != expected {
            return Err(ServeError::InvalidRequest(format!(
                "expected {expected} inputs, got {}",
                inputs.len()
            )));
        }
        let mut normalized: Vec<(String, Tensor)> = Vec::with_capacity(inputs.len());
        for (name, tensor) in inputs {
            if self.graph.input_named(name).is_none() {
                return Err(ServeError::InvalidRequest(format!(
                    "unknown input '{name}'; graph inputs are {:?}",
                    self.graph.input_names()
                )));
            }
            if normalized.iter().any(|(n, _)| n == name) {
                return Err(ServeError::InvalidRequest(format!(
                    "input '{name}' was provided more than once"
                )));
            }
            normalized.push((name.to_string(), (*tensor).clone()));
        }
        normalized.sort_by(|a, b| a.0.cmp(&b.0));

        let batchable = normalized
            .iter()
            .all(|(_, t)| t.shape().is_4d() && t.shape().batch() == 1);
        if let Some(trace) = &trace {
            trace.set_model(self.graph.name());
        }
        let slot = ResponseSlot::new();
        let request = QueuedRequest {
            signature: Signature::of(&normalized),
            inputs: normalized,
            batchable,
            slot: Arc::clone(&slot),
            enqueued: Instant::now(),
            dequeued: None,
            trace,
        };
        match self.queue.try_push(request) {
            Ok(()) => {
                self.stats.record_submitted();
                Ok(ResponseHandle::new(slot))
            }
            Err(err) => {
                if matches!(err, ServeError::QueueFull { .. }) {
                    self.stats.record_rejected();
                }
                Err(err)
            }
        }
    }

    /// Blocking inference: submit and wait for the outputs (graph-output
    /// order).
    ///
    /// # Errors
    ///
    /// Everything [`Server::submit`] returns, plus inference failures
    /// surfaced by the worker.
    pub fn infer(&self, inputs: &[(&str, &Tensor)]) -> Result<Vec<Tensor>, ServeError> {
        self.submit(inputs)?.wait()
    }

    /// Blocking inference carrying a caller-created trace; see
    /// [`Server::submit_with_trace`].
    ///
    /// # Errors
    ///
    /// Same as [`Server::infer`].
    pub fn infer_with_trace(
        &self,
        inputs: &[(&str, &Tensor)],
        trace: Option<ActiveTrace>,
    ) -> Result<Vec<Tensor>, ServeError> {
        self.submit_with_trace(inputs, trace)?.wait()
    }

    /// The flight recorder attached at build time, if any.
    pub fn trace_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.trace_recorder.as_ref()
    }

    /// Snapshot of throughput, latency percentiles, batch histogram, queue
    /// depth, worker health and SLO compliance.
    pub fn stats(&self) -> ServerStats {
        self.stats
            .snapshot(self.queue.depth(), self.worker_count, Some(&self.health))
    }

    /// Workers currently flagged stalled by the health watchdog.
    pub fn stalled_workers(&self) -> usize {
        self.health.stalled_count()
    }

    /// Configured watchdog deadline (see [`ServerBuilder::watchdog_deadline`]).
    pub fn watchdog_deadline(&self) -> Duration {
        self.watchdog_deadline
    }

    /// SLO compliance over the rolling window, if an SLO was configured.
    pub fn slo_snapshot(&self) -> Option<SloSnapshot> {
        self.stats.slo_snapshot()
    }

    /// The model served by this server.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Configured micro-batch ceiling.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Configured batching window.
    pub fn batch_window(&self) -> Duration {
        self.batch_window
    }

    /// Configured queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Stop accepting requests, serve everything already queued, and join the
    /// workers. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Deadline-bounded graceful shutdown: reject new submissions immediately,
    /// give queued requests up to `deadline` to drain, then evict whatever is
    /// still waiting — every evicted request's waiter receives
    /// [`ServeError::ShuttingDown`] instead of hanging — and join the workers.
    ///
    /// Batches already executing when the deadline passes still run to
    /// completion and are delivered; only *queued* work is abandoned. The
    /// returned [`DrainReport`] says whether the queue drained fully.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> DrainReport {
        let deadline_at = Instant::now() + deadline;
        self.queue.close();
        while self.queue.depth() > 0 && Instant::now() < deadline_at {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut aborted = 0;
        aborted += self.fail_evicted();
        self.join_workers();
        // Workers are gone; anything still queued (possible only if a worker
        // died outside batch processing) must be failed, not abandoned.
        aborted += self.fail_evicted();
        // Drop must not run the unbounded drain again.
        debug_assert!(self.workers.is_empty());
        DrainReport {
            drained: aborted == 0,
            aborted,
        }
    }

    /// Evict still-queued requests and fail their slots; returns the count.
    fn fail_evicted(&self) -> usize {
        let evicted = self.queue.abort();
        let count = evicted.len();
        if count > 0 {
            self.stats.record_aborted(count);
        }
        for request in evicted {
            request.slot.fulfill(Err(ServeError::ShuttingDown));
            // Serve-owned traces end here; frontend-owned ones are sealed by
            // the frontend's error path.
            if let Some(trace) = &request.trace {
                if trace.finishes_on_fulfill() {
                    trace.stage_since("serve", 0, trace.started());
                    trace.finish(503);
                }
            }
        }
        count
    }

    fn join_workers(&mut self) {
        self.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(watchdog) = self.watchdog.take() {
            // The watchdog never panics, but a join error must not unwind
            // here either (this runs from Drop).
            let _ = watchdog.join();
        }
        for worker in self.workers.drain(..) {
            // Workers contain panics around each batch (see `process_batch`),
            // so join errors should be impossible; if one happens anyway, do
            // NOT resume_unwind here — this runs from Drop, and unwinding
            // during another unwind aborts the process.
            if worker.join().is_err() {
                self.stats.record_worker_panic();
                mnn_obs::warn!(
                    "mnn-serve",
                    "worker thread panicked outside batch processing"
                );
            }
        }
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        self.join_workers();
        // If a worker died, its share of the queue was never served; fail those
        // slots so blocked `wait()` callers wake instead of hanging forever.
        self.fail_evicted();
    }
}

/// Outcome of [`Server::shutdown_with_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every queued request was served before the deadline.
    pub drained: bool,
    /// Queued requests evicted at the deadline; each received
    /// [`ServeError::ShuttingDown`].
    pub aborted: usize,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("model", &self.graph.name())
            .field("workers", &self.worker_count)
            .field("max_batch", &self.max_batch)
            .field("batch_window", &self.batch_window)
            .field("queue_capacity", &self.queue_capacity)
            .finish()
    }
}
