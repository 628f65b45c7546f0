//! The flight recorder: bounded retention of completed request traces.
//!
//! Serving layers build one [`RequestTrace`] per request through an
//! [`ActiveTrace`] handle — a clone-able builder that rides the request
//! object across threads (HTTP connection thread → queue → batch worker →
//! back) accumulating stage spans, per-op spans and batch links. When the
//! request's response is written, [`ActiveTrace::finish`] seals the trace
//! and pushes it into a [`FlightRecorder`]:
//!
//! * a **ring** of the last N completed traces (per-slot locks, a single
//!   atomic fetch-add picks the slot, so writers never contend on one
//!   global lock), and
//! * a **slow reservoir** that always keeps the most recent traces slower
//!   than a configurable threshold, so one fast burst cannot evict the
//!   evidence of a tail-latency incident.
//!
//! Both are exported as JSON (`GET /v1/traces` in `mnn-http`) and as
//! chrome://tracing Trace Event Format ([`FlightRecorder::chrome_trace`]),
//! merging request-level stage spans and op-level kernel spans into one
//! nested timeline.
//!
//! When the recorder is disabled, [`FlightRecorder::begin_trace`] returns
//! `None` after a single relaxed atomic load — instrumented code takes no
//! timestamps at all, matching the profiler's disabled-path contract.

use crate::context::TraceContext;
use crate::profile::SpanRecord;
use crate::trace::{self, TraceArgs, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Completed request traces retained in the ring by default.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Slow traces retained in the reservoir.
const SLOW_CAPACITY: usize = 64;

/// Default slow-request threshold: 250 ms.
const DEFAULT_SLOW_THRESHOLD_US: u64 = 250_000;

/// One named, timed stage of a request (`parse`, `queue_wait`, …).
///
/// `start_us` is relative to the request's start; `depth` encodes nesting
/// (0 = top-level waterfall stage, 1 = sub-stage such as `queue_wait`
/// inside `serve`, 2 = per-op kernel spans).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Stage name (`parse`, `decode`, `serve`, `queue_wait`, …).
    pub name: String,
    /// Nesting depth: 0 for top-level stages, deeper for sub-stages.
    pub depth: u64,
    /// Start offset from the request's start, microseconds.
    pub start_us: f64,
    /// Wall-clock duration, microseconds.
    pub dur_us: f64,
}

/// The batch span that linked this request with its co-batched peers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchLink {
    /// Span id of the batch execution, shared by all members.
    pub span_id: String,
    /// Number of requests the batch coalesced.
    pub size: u64,
    /// Trace ids of every traced member, in batch order.
    pub members: Vec<String>,
}

/// One completed request trace: identity, outcome, and the stage waterfall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// 32-hex-digit trace id.
    pub trace_id: String,
    /// 16-hex-digit span id of the request's root span.
    pub span_id: String,
    /// Span id of the caller's span when the context was adopted from a
    /// `traceparent` header; empty for locally created traces.
    pub parent_span_id: String,
    /// The outgoing `traceparent` header value for this request.
    pub traceparent: String,
    /// Whether the context was adopted from the client.
    pub adopted: bool,
    /// Model the request targeted (empty when it never reached a model).
    pub model: String,
    /// Response status code (HTTP), or 0 when unknown.
    pub status: u64,
    /// Request start, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// Total wall time from accept to response write, microseconds.
    pub total_us: f64,
    /// Fraction of `total_us` covered by top-level (depth-0) stages.
    pub coverage: f64,
    /// Whether the trace exceeded the recorder's slow threshold.
    pub slow: bool,
    /// The stage waterfall, ordered by start time.
    pub stages: Vec<StageSpan>,
    /// Per-op kernel spans captured during inference, on the request's
    /// timebase.
    pub ops: Vec<SpanRecord>,
    /// Batch linkage, when the request was coalesced into a micro-batch.
    pub batch: Option<BatchLink>,
}

struct TraceState {
    model: String,
    stages: Vec<StageSpan>,
    batch: Option<BatchLink>,
    finished: bool,
}

struct ActiveInner {
    ctx: TraceContext,
    parent_span_id: Option<u64>,
    adopted: bool,
    started: Instant,
    start_unix_ms: u64,
    finish_on_fulfill: bool,
    recorder: Arc<FlightRecorder>,
    ops: Arc<Mutex<Vec<SpanRecord>>>,
    state: Mutex<TraceState>,
}

/// Clone-able handle accumulating one in-flight request's trace. Created by
/// [`FlightRecorder::begin_trace`]; sealed by [`ActiveTrace::finish`].
#[derive(Clone)]
pub struct ActiveTrace {
    inner: Arc<ActiveInner>,
}

impl std::fmt::Debug for ActiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTrace")
            .field("trace_id", &self.inner.ctx.trace_id_hex())
            .finish()
    }
}

impl ActiveTrace {
    /// The request's trace context (for response headers and child spans).
    pub fn context(&self) -> TraceContext {
        self.inner.ctx
    }

    /// The 32-hex-digit trace id.
    pub fn trace_id_hex(&self) -> String {
        self.inner.ctx.trace_id_hex()
    }

    /// The outgoing `traceparent` header value.
    pub fn traceparent(&self) -> String {
        self.inner.ctx.traceparent()
    }

    /// The instant the request started (the waterfall's time zero).
    pub fn started(&self) -> Instant {
        self.inner.started
    }

    /// Record a completed stage spanning `start..end`.
    pub fn add_stage(&self, name: &str, depth: u64, start: Instant, end: Instant) {
        let start_us = start
            .checked_duration_since(self.inner.started)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e6;
        let dur_us = end
            .checked_duration_since(start)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e6;
        let mut state = self.lock();
        state.stages.push(StageSpan {
            name: name.to_string(),
            depth,
            start_us,
            dur_us,
        });
    }

    /// Record a stage running from `start` until now.
    pub fn stage_since(&self, name: &str, depth: u64, start: Instant) {
        self.add_stage(name, depth, start, Instant::now());
    }

    /// Name the model this request targeted.
    pub fn set_model(&self, model: &str) {
        self.lock().model = model.to_string();
    }

    /// Link this request to the micro-batch that executed it.
    pub fn set_batch(&self, span_id: &str, members: Vec<String>) {
        self.lock().batch = Some(BatchLink {
            span_id: span_id.to_string(),
            size: members.len().max(1) as u64,
            members,
        });
    }

    /// The sink op spans captured inside a [`crate::context::scope`] land
    /// in; pass it to the scope guarding the session run.
    pub fn ops_sink(&self) -> Arc<Mutex<Vec<SpanRecord>>> {
        Arc::clone(&self.inner.ops)
    }

    /// Enter this trace's ambient scope on the current thread (activates
    /// `trace_id=` log tagging, profiler span stamping, and op capture).
    pub fn enter(&self) -> crate::context::TraceScope {
        crate::context::scope(
            self.inner.ctx,
            self.inner.started,
            Some(Arc::clone(&self.inner.ops)),
        )
    }

    /// Whether the layer that fulfils the response slot should finish this
    /// trace (set for traces the serve layer created itself; traces created
    /// by the HTTP frontend are finished after the response write instead).
    pub fn finishes_on_fulfill(&self) -> bool {
        self.inner.finish_on_fulfill
    }

    /// Seal the trace with a response `status` and push it into the
    /// recorder. Idempotent: the first call wins, later calls are no-ops.
    pub fn finish(&self, status: u64) {
        let total_us = self.inner.started.elapsed().as_secs_f64() * 1e6;
        let mut state = self.lock();
        if state.finished {
            return;
        }
        state.finished = true;
        let mut stages = std::mem::take(&mut state.stages);
        stages.sort_by(|a, b| {
            a.depth
                .cmp(&b.depth)
                .then(a.start_us.total_cmp(&b.start_us))
        });
        let covered: f64 = stages
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_us)
            .sum();
        let coverage = if total_us > 0.0 {
            (covered / total_us).min(1.0)
        } else {
            0.0
        };
        let ops = std::mem::take(
            &mut *self
                .inner
                .ops
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let slow = total_us
            >= self
                .inner
                .recorder
                .slow_threshold_us
                .load(Ordering::Relaxed) as f64;
        let trace = RequestTrace {
            trace_id: self.inner.ctx.trace_id_hex(),
            span_id: self.inner.ctx.span_id_hex(),
            parent_span_id: self
                .inner
                .parent_span_id
                .map(|id| format!("{id:016x}"))
                .unwrap_or_default(),
            traceparent: self.inner.ctx.traceparent(),
            adopted: self.inner.adopted,
            model: std::mem::take(&mut state.model),
            status,
            start_unix_ms: self.inner.start_unix_ms,
            total_us,
            coverage,
            slow,
            stages,
            ops,
            batch: state.batch.take(),
        };
        drop(state);
        self.inner.recorder.push(Arc::new(trace));
    }
}

/// Bounded retention of completed request traces (see the
/// [module docs](self)).
pub struct FlightRecorder {
    enabled: AtomicBool,
    slow_threshold_us: AtomicU64,
    next_slot: AtomicUsize,
    completed: AtomicU64,
    /// The process-wide `mnn_traces_recorded_total`, counted where a trace
    /// actually completes.
    recorded: crate::Counter,
    ring: Vec<Mutex<Option<Arc<RequestTrace>>>>,
    slow: Mutex<VecDeque<Arc<RequestTrace>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("completed", &self.completed())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder retaining the default number of traces
    /// ([`DEFAULT_RING_CAPACITY`]), enabled.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder retaining the last `capacity` traces (minimum 1), enabled.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            enabled: AtomicBool::new(true),
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            next_slot: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            recorded: crate::global().counter(
                crate::metrics::names::TRACES_RECORDED,
                "Request traces completed by the flight recorder.",
            ),
            ring: (0..capacity).map(|_| Mutex::new(None)).collect(),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Toggle trace collection. While disabled,
    /// [`FlightRecorder::begin_trace`] returns `None` after one relaxed
    /// atomic load and instrumented code takes no timestamps.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether traces are currently collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Set the slow-request threshold for the always-kept reservoir.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_threshold_us
            .store(threshold.as_micros() as u64, Ordering::Relaxed);
    }

    /// The current slow-request threshold.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_micros(self.slow_threshold_us.load(Ordering::Relaxed))
    }

    /// Open a trace for a request starting *now*. See
    /// [`FlightRecorder::begin_trace_at`].
    pub fn begin_trace(self: &Arc<Self>, parent: Option<TraceContext>) -> Option<ActiveTrace> {
        self.begin_trace_at(parent, Instant::now())
    }

    /// Open a trace whose waterfall starts at `started` (pass the instant
    /// the first request byte was seen so parse time is attributed).
    ///
    /// `parent`, when given, is an adopted client context: the trace keeps
    /// its trace id, records its span id as the parent, and issues a fresh
    /// span id for the request's root span. Returns `None` when disabled —
    /// the single relaxed atomic load is the entire disabled-path cost.
    pub fn begin_trace_at(
        self: &Arc<Self>,
        parent: Option<TraceContext>,
        started: Instant,
    ) -> Option<ActiveTrace> {
        if !self.is_enabled() {
            return None;
        }
        Some(self.begin_trace_inner(parent, started, false))
    }

    /// Like [`FlightRecorder::begin_trace_at`], but the trace is finished
    /// by the layer that fulfils the response slot (used by `mnn-serve` for
    /// requests submitted without an HTTP frontend).
    pub fn begin_owned_trace_at(
        self: &Arc<Self>,
        parent: Option<TraceContext>,
        started: Instant,
    ) -> Option<ActiveTrace> {
        if !self.is_enabled() {
            return None;
        }
        Some(self.begin_trace_inner(parent, started, true))
    }

    fn begin_trace_inner(
        self: &Arc<Self>,
        parent: Option<TraceContext>,
        started: Instant,
        finish_on_fulfill: bool,
    ) -> ActiveTrace {
        let (ctx, parent_span_id, adopted) = match parent {
            Some(parent) => (parent.child(), Some(parent.span_id), true),
            None => (TraceContext::generate(), None, false),
        };
        let start_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_millis() as u64;
        ActiveTrace {
            inner: Arc::new(ActiveInner {
                ctx,
                parent_span_id,
                adopted,
                started,
                start_unix_ms,
                finish_on_fulfill,
                recorder: Arc::clone(self),
                ops: Arc::new(Mutex::new(Vec::new())),
                state: Mutex::new(TraceState {
                    model: String::new(),
                    stages: Vec::new(),
                    batch: None,
                    finished: false,
                }),
            }),
        }
    }

    fn push(&self, trace: Arc<RequestTrace>) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.recorded.inc();
        if trace.slow {
            let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
            if slow.len() == SLOW_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(Arc::clone(&trace));
        }
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.ring.len();
        *self.ring[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(trace);
    }

    /// Total traces completed over the recorder's lifetime.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// The retained traces, most recent first.
    pub fn recent(&self) -> Vec<Arc<RequestTrace>> {
        let mut traces: Vec<Arc<RequestTrace>> = self
            .ring
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        traces.sort_by(|a, b| {
            b.start_unix_ms
                .cmp(&a.start_unix_ms)
                .then_with(|| a.trace_id.cmp(&b.trace_id))
        });
        traces
    }

    /// The slow-request reservoir, most recent last.
    pub fn slow(&self) -> Vec<Arc<RequestTrace>> {
        self.slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Look a trace up by its 32-hex-digit trace id, searching the ring
    /// first and the slow reservoir second.
    pub fn find(&self, trace_id: &str) -> Option<Arc<RequestTrace>> {
        self.recent()
            .into_iter()
            .find(|t| t.trace_id == trace_id)
            .or_else(|| {
                self.slow()
                    .into_iter()
                    .rev()
                    .find(|t| t.trace_id == trace_id)
            })
    }

    /// Render `traces` as chrome://tracing Trace Event Format JSON: one
    /// thread lane per request, request/stage/op spans merged into one
    /// nested timeline (load via `chrome://tracing` or
    /// <https://ui.perfetto.dev>).
    pub fn chrome_trace(traces: &[Arc<RequestTrace>]) -> String {
        let mut events = Vec::new();
        for (index, request) in traces.iter().enumerate() {
            let tid = index as u64 + 1;
            let args = |detail: &str| TraceArgs {
                op: detail.to_string(),
                scheme: "-".to_string(),
                placement: "-".to_string(),
                shape: request.trace_id.clone(),
                bytes: 0,
                run: request.status,
            };
            events.push(TraceEvent {
                name: format!(
                    "request {} ({})",
                    &request.trace_id[..8.min(request.trace_id.len())],
                    request.model
                ),
                cat: "request".to_string(),
                ph: "X".to_string(),
                ts: 0.0,
                dur: request.total_us,
                pid: 1,
                tid,
                args: args("request"),
            });
            for stage in &request.stages {
                events.push(TraceEvent {
                    name: stage.name.clone(),
                    cat: "stage".to_string(),
                    ph: "X".to_string(),
                    ts: stage.start_us,
                    dur: stage.dur_us,
                    pid: 1,
                    tid,
                    args: args(&stage.name),
                });
            }
            for op in &request.ops {
                events.push(TraceEvent {
                    name: op.name.clone(),
                    cat: "op".to_string(),
                    ph: "X".to_string(),
                    ts: op.start_us,
                    dur: op.dur_us,
                    pid: 1,
                    tid,
                    args: TraceArgs {
                        op: op.op.clone(),
                        scheme: op.scheme.clone(),
                        placement: op.placement.clone(),
                        shape: op.shape.clone(),
                        bytes: op.bytes,
                        run: op.run,
                    },
                });
            }
        }
        trace::render_events(events)
    }
}

impl ActiveTrace {
    fn lock(&self) -> MutexGuard<'_, TraceState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_recorder_hands_out_no_traces() {
        let recorder = Arc::new(FlightRecorder::new());
        recorder.set_enabled(false);
        assert!(recorder.begin_trace(None).is_none());
        recorder.set_enabled(true);
        assert!(recorder.begin_trace(None).is_some());
    }

    #[test]
    fn finished_traces_land_in_the_ring_with_coverage() {
        let recorder = Arc::new(FlightRecorder::new());
        let start = Instant::now();
        let trace = recorder.begin_trace_at(None, start).unwrap();
        trace.set_model("tiny-cnn");
        spin(Duration::from_millis(2));
        let mid = Instant::now();
        trace.add_stage("parse", 0, start, mid);
        spin(Duration::from_millis(2));
        trace.add_stage("serve", 0, mid, Instant::now());
        trace.add_stage("queue_wait", 1, mid, Instant::now());
        trace.finish(200);
        trace.finish(500); // idempotent: first status wins

        assert_eq!(recorder.completed(), 1);
        let recent = recorder.recent();
        assert_eq!(recent.len(), 1);
        let got = &recent[0];
        assert_eq!(got.model, "tiny-cnn");
        assert_eq!(got.status, 200);
        assert_eq!(got.stages.len(), 3);
        assert!(got.coverage > 0.9, "coverage = {}", got.coverage);
        assert!(got.coverage <= 1.0);
        assert!(!got.adopted);
        assert_eq!(got.parent_span_id, "");
        assert_eq!(recorder.find(&got.trace_id).unwrap().trace_id, got.trace_id);
        assert!(recorder.find("ffffffffffffffffffffffffffffffff").is_none());
    }

    #[test]
    fn adopted_contexts_keep_the_trace_id_and_record_the_parent() {
        let recorder = Arc::new(FlightRecorder::new());
        let parent = TraceContext::parse_traceparent(
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        )
        .unwrap();
        let trace = recorder.begin_trace(Some(parent)).unwrap();
        assert_eq!(trace.context().trace_id, parent.trace_id);
        assert_ne!(trace.context().span_id, parent.span_id);
        trace.finish(200);
        let got = recorder.find("0af7651916cd43dd8448eb211c80319c").unwrap();
        assert!(got.adopted);
        assert_eq!(got.parent_span_id, "b7ad6b7169203331");
    }

    #[test]
    fn ring_is_bounded_and_slow_reservoir_survives_fast_bursts() {
        let recorder = Arc::new(FlightRecorder::with_capacity(4));
        recorder.set_slow_threshold(Duration::from_millis(1));

        // One slow trace...
        let slow_start = Instant::now();
        let trace = recorder.begin_trace_at(None, slow_start).unwrap();
        spin(Duration::from_millis(2));
        trace.finish(200);
        let slow_id = recorder.recent()[0].trace_id.clone();

        // ...then a burst of fast ones that evicts it from the ring.
        for _ in 0..8 {
            recorder.begin_trace(None).unwrap().finish(200);
        }
        assert_eq!(recorder.recent().len(), 4, "ring is bounded");
        assert!(
            recorder.recent().iter().all(|t| t.trace_id != slow_id),
            "slow trace evicted from the ring"
        );
        let slow = recorder.slow();
        assert_eq!(slow.len(), 1, "reservoir keeps the slow trace");
        assert_eq!(slow[0].trace_id, slow_id);
        assert!(slow[0].slow);
        assert_eq!(recorder.find(&slow_id).unwrap().trace_id, slow_id);
        assert_eq!(recorder.completed(), 9);
    }

    #[test]
    fn concurrent_finishes_keep_ring_and_reservoir_bounded() {
        // Hammer a tiny ring from many threads at once: the per-slot locks
        // plus the fetch-add slot counter must keep both stores bounded and
        // every retained trace intact — no slot may hold a torn or duplicate
        // entry, and the completed counter must see every finish exactly once.
        const THREADS: usize = 8;
        const PER_THREAD: usize = 100;
        const RING: usize = 8;

        let recorder = Arc::new(FlightRecorder::with_capacity(RING));
        // Zero threshold: every trace is "slow", so the reservoir's own
        // bound is exercised by the same storm.
        recorder.set_slow_threshold(Duration::ZERO);

        std::thread::scope(|scope| {
            for worker in 0..THREADS {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let trace = recorder.begin_trace(None).unwrap();
                        trace.set_model(&format!("m{worker}"));
                        let start = trace.started();
                        trace.add_stage("serve", 0, start, Instant::now());
                        trace.finish(200 + (i % 2) as u64);
                    }
                });
            }
        });

        assert_eq!(recorder.completed(), (THREADS * PER_THREAD) as u64);
        let recent = recorder.recent();
        assert_eq!(recent.len(), RING, "ring stays exactly at capacity");
        let slow = recorder.slow();
        assert_eq!(slow.len(), SLOW_CAPACITY, "reservoir stays at capacity");

        // Retained traces are whole: valid ids, a model name one of the
        // workers wrote, the stage that thread recorded — and no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for trace in recent.iter().chain(slow.iter()) {
            assert_eq!(trace.trace_id.len(), 32);
            assert!(trace.model.starts_with('m'), "model = {:?}", trace.model);
            assert_eq!(trace.stages.len(), 1);
            assert_eq!(trace.stages[0].name, "serve");
            assert!(trace.slow);
            seen.insert(trace.trace_id.clone());
        }
        // The ring and the reservoir may overlap, but within themselves
        // every entry is a distinct request.
        let ring_ids: std::collections::BTreeSet<_> =
            recent.iter().map(|t| t.trace_id.clone()).collect();
        assert_eq!(ring_ids.len(), recent.len(), "no duplicate ring slots");
        assert!(seen.len() >= SLOW_CAPACITY);
    }

    #[test]
    fn batch_links_and_ops_round_trip_through_json() {
        let recorder = Arc::new(FlightRecorder::new());
        let trace = recorder.begin_trace(None).unwrap();
        trace.set_model("m");
        trace.set_batch(
            "00000000000000aa",
            vec![trace.trace_id_hex(), "deadbeef".into()],
        );
        {
            let _scope = trace.enter();
            let mut capture = crate::RunRecorder::begin(None).unwrap();
            let meta = crate::OpMeta::new("conv1", "conv2d", "direct", "cpu-f32", "1x8x4x4");
            capture.record(&meta, Instant::now(), 64);
        }
        trace.finish(200);

        let got = recorder.recent().remove(0);
        let batch = got.batch.as_ref().expect("batch link kept");
        assert_eq!(batch.size, 2);
        assert_eq!(batch.members.len(), 2);
        assert_eq!(got.ops.len(), 1);
        assert_eq!(got.ops[0].trace_id, got.trace_id);

        let json = serde_json::to_string(&*got).unwrap();
        let back: RequestTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *got);
    }

    #[test]
    fn chrome_trace_merges_stages_and_ops_per_request_lane() {
        let recorder = Arc::new(FlightRecorder::new());
        let start = Instant::now();
        let trace = recorder.begin_trace_at(None, start).unwrap();
        spin(Duration::from_millis(1));
        trace.add_stage("parse", 0, start, Instant::now());
        {
            let _scope = trace.enter();
            let mut capture = crate::RunRecorder::begin(None).unwrap();
            let t0 = Instant::now();
            spin(Duration::from_millis(1));
            let meta = crate::OpMeta::new("conv1", "conv2d", "direct", "cpu-f32", "1x8x4x4");
            capture.record(&meta, t0, 64);
        }
        trace.finish(200);

        let traces = recorder.recent();
        let json = FlightRecorder::chrome_trace(&traces);
        for key in [
            "\"traceEvents\"",
            "\"ph\"",
            "\"request",
            "\"parse\"",
            "\"conv1\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let parsed: crate::trace::ChromeTrace = serde_json::from_str(&json).unwrap();
        // request span + parse stage + 1 op span
        assert_eq!(parsed.traceEvents.len(), 3);
    }
}
