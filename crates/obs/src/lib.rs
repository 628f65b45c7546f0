//! # `mnn-obs` — observability for the MNN-rs serving stack
//!
//! The paper's engineering method is *measurement-driven*: MNN picks kernels
//! and backends from measured cost, and its Fig. 8 bottleneck study is a
//! per-op wall-time breakdown. This crate makes the same evidence available
//! at **inference time**, across the whole stack, in three layers:
//!
//! * [`Profiler`] — an opt-in per-op runtime profiler. A session configured
//!   with `SessionConfig::builder().profiling(profiler)` records one span per
//!   executed node (node name, op type, scheme + placement, output shape,
//!   wall time, bytes moved) with **zero timer calls when profiling is off**.
//!   Spans aggregate into a [`ProfileReport`] (per-op-type totals, hottest
//!   nodes, % of wall time — the Fig. 8 table, but live) and export as
//!   chrome://tracing Trace Event Format JSON ([`Profiler::chrome_trace`]).
//! * [`metrics`] — a process-wide registry of lock-free [`Counter`]s,
//!   [`Gauge`]s and [`Histogram`]s with a stable naming scheme
//!   ([`metrics::names`]), rendered in Prometheus text exposition format
//!   ([`Registry::render_prometheus`]) and served by `mnn-http` at
//!   `GET /metrics`. The engine layers (session prepare/resize/plan-cache,
//!   tuning cache, serve queue/batcher/workers, HTTP handler) all write into
//!   [`metrics::global`].
//! * [`log`] — a leveled structured log facade ([`log!`], [`error!`],
//!   [`warn!`], [`info!`], [`debug!`], [`trace!`]) filtered by the `MNN_LOG`
//!   environment variable with an injectable sink, replacing the workspace's
//!   ad-hoc `eprintln!`s. Lines emitted inside a trace scope automatically
//!   carry `trace_id=`.
//! * [`context`] + [`recorder`] — request-scoped distributed tracing: a
//!   [`TraceContext`] (W3C `traceparent` parse/format) is created or adopted
//!   per request, carried through queueing, batching and inference, and every
//!   completed request lands as a [`RequestTrace`] — a per-stage waterfall
//!   (`parse → queue_wait → batch_assembly → inference → scatter → write`)
//!   with nested per-op spans — in a bounded [`FlightRecorder`] (ring of
//!   recent traces + always-kept slow-request reservoir), exported as JSON
//!   and chrome://tracing. With tracing off, every instrumented path costs a
//!   single relaxed atomic load, like the profiler.
//! * [`resources`] + [`slo`] — resource observability: a process-wide byte
//!   ledger ([`AccountedBytes`] handles charged by sessions, plan caches,
//!   model constants and the tune cache, rolled up per model and
//!   process-wide next to `/proc/self` RSS/thread gauges), and rolling-window
//!   SLO tracking ([`SloTracker`]: availability + latency objectives with
//!   burn rates). Both feed `/metrics` and the `mnn-http` `/v1/status`
//!   operator surface. Charging an account is one relaxed atomic op.
//!
//! The crate sits below every engine layer (its only runtime dependencies
//! are `serde` and the dependency-free `mnn-kernels`, for naming the active
//! kernel backend in build info), so tensor-to-HTTP code can share one
//! vocabulary of evidence.

#![deny(missing_docs)]

pub mod context;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod resources;
pub mod slo;
mod trace;

pub use context::{TraceContext, TraceScope};
pub use log::{set_max_level, set_sink, Level, LogSink, StderrSink};
pub use metrics::{global, percentile, Counter, Gauge, Histogram, Registry};
pub use profile::{
    NodeBreakdown, OpBreakdown, OpMeta, ProfileReport, Profiler, RunRecorder, SpanRecord,
};
pub use recorder::{ActiveTrace, BatchLink, FlightRecorder, RequestTrace, StageSpan};
pub use resources::{AccountedBytes, BuildInfo, ResourceSnapshot, ScopeResources};
pub use slo::{SloConfig, SloSnapshot, SloTracker};
