//! The opt-in per-op runtime profiler.
//!
//! A [`Profiler`] is shared (`Arc`) between whoever wants the data and the
//! sessions producing it (`SessionConfig::builder().profiling(...)` in
//! `mnn-core`). Each session run opens a [`RunRecorder`], which buffers one
//! [`SpanRecord`] per executed node *locally* — the profiler's lock is taken
//! once per run, at [`RunRecorder::finish`], never per node. The same
//! recorder feeds the request trace active on the running thread (see
//! [`crate::context::scope`]), so the executor makes one [`RunRecorder::record`]
//! call per op whoever is listening. When the profiler is disabled
//! ([`Profiler::set_enabled`]) and no request is being traced,
//! [`RunRecorder::begin`] returns `None` and the execution loop takes no
//! timestamps at all.
//!
//! Aggregation is incremental: per-node statistics are folded into a map at
//! `finish`, so [`Profiler::report`] is exact over the profiler's whole
//! lifetime even though the raw span ring kept for chrome-trace export
//! ([`Profiler::chrome_trace`]) is bounded.

use crate::context::{self, OpSink};
use crate::trace;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Raw spans retained for chrome-trace export. Aggregated statistics (the
/// [`ProfileReport`]) are unaffected by this bound.
const MAX_TRACE_SPANS: usize = 16_384;

/// One timed region: either a whole session run or a single executed node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Node name, or `"run"` for a whole-run span.
    pub name: String,
    /// Operator type (`conv2d`, `matmul`, …); `"session"` for run spans.
    pub op: String,
    /// Kernel scheme chosen for the node (`winograd`, `im2col`, `-`).
    pub scheme: String,
    /// Backend placement (`cpu-f32`, `cpu-i8`, …).
    pub placement: String,
    /// Output shape signature, e.g. `1x16x32x32`.
    pub shape: String,
    /// Start time in microseconds since the profiler was created.
    pub start_us: f64,
    /// Wall-clock duration, microseconds.
    pub dur_us: f64,
    /// Bytes read + written by the node (activation traffic).
    pub bytes: u64,
    /// Index of the session run this span belongs to (0-based).
    pub run: u64,
    /// 32-hex-digit id of the request trace active when the span was
    /// recorded (empty when the run was not inside a trace scope).
    pub trace_id: String,
}

/// What one scheduled op is, fixed for the lifetime of a plan: the part of a
/// [`SpanRecord`] that pre-inference knows. Sessions build it once per plan
/// step, so a timed run formats nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMeta {
    /// Node name.
    pub name: String,
    /// Operator type.
    pub op: String,
    /// Kernel scheme chosen for the node (`-` when it has none).
    pub scheme: String,
    /// Backend placement.
    pub placement: String,
    /// Output shape signature.
    pub shape: String,
}

impl OpMeta {
    /// Metadata for one op, in [`SpanRecord`] field order.
    pub fn new(name: &str, op: &str, scheme: &str, placement: &str, shape: &str) -> Self {
        OpMeta {
            name: name.to_string(),
            op: op.to_string(),
            scheme: scheme.to_string(),
            placement: placement.to_string(),
            shape: shape.to_string(),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct NodeStat {
    op: String,
    scheme: String,
    placement: String,
    shape: String,
    count: u64,
    total_us: f64,
    max_us: f64,
    bytes: u64,
}

#[derive(Debug, Default)]
struct ProfilerInner {
    runs: u64,
    /// Sum of whole-run wall times, µs.
    run_us: f64,
    /// Sum of per-node wall times, µs.
    node_us: f64,
    nodes: BTreeMap<String, NodeStat>,
    /// Recent raw spans (runs and nodes interleaved) for trace export.
    spans: VecDeque<SpanRecord>,
}

/// Collects per-node execution spans across session runs (see the
/// [module docs](self)).
pub struct Profiler {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<ProfilerInner>,
}

impl fmt::Debug for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .field("runs", &self.lock().runs)
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A new, enabled profiler.
    pub fn new() -> Self {
        Profiler {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            inner: Mutex::new(ProfilerInner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ProfilerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Toggle span collection. While disabled, [`RunRecorder::begin`] opens
    /// no recorder for this profiler and instrumented code takes no
    /// timestamps on its behalf.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Number of completed runs recorded.
    pub fn runs(&self) -> u64 {
        self.lock().runs
    }

    /// Drop all recorded spans and statistics (the enabled flag and time
    /// epoch are kept).
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = ProfilerInner::default();
    }

    /// Aggregate everything recorded so far into a [`ProfileReport`].
    pub fn report(&self) -> ProfileReport {
        let inner = self.lock();
        let wall_ms = inner.run_us / 1_000.0;
        let accounted_ms = inner.node_us / 1_000.0;
        let denom = if inner.node_us > 0.0 {
            inner.node_us
        } else {
            1.0
        };

        let mut ops: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
        for stat in inner.nodes.values() {
            let entry = ops.entry(stat.op.as_str()).or_insert((0, 0.0));
            entry.0 += stat.count;
            entry.1 += stat.total_us;
        }
        let mut ops: Vec<OpBreakdown> = ops
            .into_iter()
            .map(|(op, (count, total_us))| OpBreakdown {
                op: op.to_string(),
                count,
                total_ms: total_us / 1_000.0,
                percent: 100.0 * total_us / denom,
            })
            .collect();
        ops.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));

        let mut nodes: Vec<NodeBreakdown> = inner
            .nodes
            .iter()
            .map(|(name, stat)| NodeBreakdown {
                name: name.clone(),
                op: stat.op.clone(),
                scheme: stat.scheme.clone(),
                placement: stat.placement.clone(),
                shape: stat.shape.clone(),
                count: stat.count,
                total_ms: stat.total_us / 1_000.0,
                mean_us: stat.total_us / stat.count.max(1) as f64,
                max_us: stat.max_us,
                percent: 100.0 * stat.total_us / denom,
                bytes: stat.bytes,
            })
            .collect();
        nodes.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));

        let coverage = if inner.run_us > 0.0 {
            inner.node_us / inner.run_us
        } else {
            0.0
        };
        ProfileReport {
            runs: inner.runs,
            wall_time_ms: wall_ms,
            accounted_ms,
            coverage,
            ops,
            nodes,
        }
    }

    /// Export the retained raw spans as chrome://tracing Trace Event Format
    /// JSON (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace(&self) -> String {
        let inner = self.lock();
        let spans: Vec<&SpanRecord> = inner.spans.iter().collect();
        trace::render(&spans)
    }
}

/// Microseconds from `epoch` to `at` (zero when `at` is earlier).
fn micros_since(epoch: Instant, at: Instant) -> f64 {
    at.checked_duration_since(epoch)
        .unwrap_or_default()
        .as_secs_f64()
        * 1e6
}

/// Per-run span buffer opened by [`RunRecorder::begin`]. Records locally;
/// profiler spans fold into the profiler once, on [`RunRecorder::finish`],
/// and request spans reach the active trace when the recorder drops (so a
/// failed run still shows the ops that ran).
pub struct RunRecorder {
    run_start: Instant,
    trace_id: String,
    /// The enabled profiler and its spans, on the profiler's timebase.
    profiler: Option<(Arc<Profiler>, Vec<SpanRecord>)>,
    /// The active request's op sink and its spans, on the request's timebase.
    request: Option<(OpSink, Vec<SpanRecord>)>,
}

impl RunRecorder {
    /// Open a recorder for one session run: for `profiler` when it is
    /// enabled, and for the request trace active on the calling thread when
    /// it collects op spans. `None` when neither is listening — two relaxed
    /// atomic loads are the entire disabled-path cost.
    ///
    /// Every span of the run is stamped with the active trace id, keying the
    /// profiler ring by request.
    pub fn begin(profiler: Option<&Arc<Profiler>>) -> Option<RunRecorder> {
        let profiler = profiler.filter(|p| p.is_enabled());
        let request = context::op_sink();
        if profiler.is_none() && request.is_none() {
            return None;
        }
        Some(RunRecorder {
            run_start: Instant::now(),
            trace_id: context::current_trace_id_hex().unwrap_or_default(),
            profiler: profiler.map(|p| (Arc::clone(p), Vec::new())),
            request: request.map(|sink| (sink, Vec::new())),
        })
    }

    /// Record one executed op. `started` is the `Instant` taken immediately
    /// before the kernel ran; duration is measured to *now*, so call this
    /// right after the kernel returns.
    pub fn record(&mut self, meta: &OpMeta, started: Instant, bytes: u64) {
        let dur_us = started.elapsed().as_secs_f64() * 1e6;
        let span = |epoch: Instant| SpanRecord {
            name: meta.name.clone(),
            op: meta.op.clone(),
            scheme: meta.scheme.clone(),
            placement: meta.placement.clone(),
            shape: meta.shape.clone(),
            start_us: micros_since(epoch, started),
            dur_us,
            bytes,
            run: 0, // assigned at finish()
            trace_id: self.trace_id.clone(),
        };
        if let Some((profiler, spans)) = &mut self.profiler {
            spans.push(span(profiler.epoch));
        }
        if let Some((sink, spans)) = &mut self.request {
            spans.push(span(sink.epoch));
        }
    }

    /// Close the run: computes the whole-run span and folds everything into
    /// the profiler under one lock acquisition.
    pub fn finish(mut self) {
        let Some((profiler, spans)) = self.profiler.take() else {
            return;
        };
        let run_dur_us = self.run_start.elapsed().as_secs_f64() * 1e6;
        let run_start_us = micros_since(profiler.epoch, self.run_start);
        let mut inner = profiler.lock();
        let run_index = inner.runs;
        inner.runs += 1;
        inner.run_us += run_dur_us;
        push_span(
            &mut inner.spans,
            SpanRecord {
                name: "run".to_string(),
                op: "session".to_string(),
                scheme: "-".to_string(),
                placement: "-".to_string(),
                shape: "-".to_string(),
                start_us: run_start_us,
                dur_us: run_dur_us,
                bytes: 0,
                run: run_index,
                trace_id: self.trace_id.clone(),
            },
        );
        for mut span in spans {
            span.run = run_index;
            inner.node_us += span.dur_us;
            let stat = inner.nodes.entry(span.name.clone()).or_default();
            if stat.count == 0 {
                stat.op = span.op.clone();
            }
            // Scheme/placement/shape can change across resizes; report the
            // most recent.
            stat.scheme = span.scheme.clone();
            stat.placement = span.placement.clone();
            stat.shape = span.shape.clone();
            stat.count += 1;
            stat.total_us += span.dur_us;
            stat.max_us = stat.max_us.max(span.dur_us);
            stat.bytes = stat.bytes.saturating_add(span.bytes);
            push_span(&mut inner.spans, span);
        }
    }
}

impl Drop for RunRecorder {
    fn drop(&mut self) {
        if let Some((sink, mut spans)) = self.request.take() {
            if !spans.is_empty() {
                let mut ops = sink.ops.lock().unwrap_or_else(PoisonError::into_inner);
                ops.append(&mut spans);
            }
        }
    }
}

fn push_span(spans: &mut VecDeque<SpanRecord>, span: SpanRecord) {
    if spans.len() == MAX_TRACE_SPANS {
        spans.pop_front();
    }
    spans.push_back(span);
}

/// Aggregate totals for one operator type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpBreakdown {
    /// Operator type (`conv2d`, `relu`, …).
    pub op: String,
    /// Executed node-instances of this type across all runs.
    pub count: u64,
    /// Total wall time, milliseconds.
    pub total_ms: f64,
    /// Share of all per-node time, percent.
    pub percent: f64,
}

/// Aggregate statistics for one graph node across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeBreakdown {
    /// Node name (unique within the graph).
    pub name: String,
    /// Operator type.
    pub op: String,
    /// Kernel scheme last used for this node.
    pub scheme: String,
    /// Backend placement last used for this node.
    pub placement: String,
    /// Output shape signature last seen.
    pub shape: String,
    /// Times this node executed.
    pub count: u64,
    /// Total wall time, milliseconds.
    pub total_ms: f64,
    /// Mean wall time per execution, microseconds.
    pub mean_us: f64,
    /// Slowest single execution, microseconds.
    pub max_us: f64,
    /// Share of all per-node time, percent.
    pub percent: f64,
    /// Cumulative activation bytes moved.
    pub bytes: u64,
}

/// The live Fig.-8 table: per-op-type totals and the hottest nodes, with how
/// much of the measured wall time the per-node spans account for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Completed session runs in the profile.
    pub runs: u64,
    /// Total whole-run wall time, milliseconds.
    pub wall_time_ms: f64,
    /// Wall time accounted for by per-node spans, milliseconds.
    pub accounted_ms: f64,
    /// `accounted_ms / wall_time_ms` as a fraction (scheduling overhead is
    /// the remainder).
    pub coverage: f64,
    /// Per-operator-type totals, hottest first.
    pub ops: Vec<OpBreakdown>,
    /// Per-node statistics, hottest first.
    pub nodes: Vec<NodeBreakdown>,
}

impl ProfileReport {
    /// A copy keeping only the `n` hottest nodes (op totals are unchanged).
    pub fn top(&self, n: usize) -> ProfileReport {
        let mut report = self.clone();
        report.nodes.truncate(n);
        report
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} run(s), {:.3} ms wall, {:.3} ms in {} node(s) ({:.1}% accounted)",
            self.runs,
            self.wall_time_ms,
            self.accounted_ms,
            self.nodes.len(),
            100.0 * self.coverage,
        )?;
        writeln!(
            f,
            "  {:<12} {:>7} {:>12} {:>7}",
            "OP", "COUNT", "TOTAL_MS", "%"
        )?;
        for op in &self.ops {
            writeln!(
                f,
                "  {:<12} {:>7} {:>12.3} {:>6.1}%",
                op.op, op.count, op.total_ms, op.percent
            )?;
        }
        writeln!(
            f,
            "  {:<24} {:<8} {:<10} {:<12} {:>10} {:>9} {:>6}",
            "NODE", "OP", "SCHEME", "SHAPE", "MEAN_US", "TOTAL_MS", "%"
        )?;
        for node in &self.nodes {
            writeln!(
                f,
                "  {:<24} {:<8} {:<10} {:<12} {:>10.1} {:>9.3} {:>5.1}%",
                node.name,
                node.op,
                node.scheme,
                node.shape,
                node.mean_us,
                node.total_ms,
                node.percent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    fn record_run(profiler: &Arc<Profiler>, node_ms: &[(&str, &str, u64)]) {
        let mut rec = RunRecorder::begin(Some(profiler)).expect("enabled");
        for (name, op, ms) in node_ms {
            let t0 = Instant::now();
            spin(Duration::from_millis(*ms));
            let meta = OpMeta::new(name, op, "direct", "cpu-f32", "1x8x4x4");
            rec.record(&meta, t0, 128);
        }
        rec.finish();
    }

    #[test]
    fn disabled_profiler_returns_no_recorder() {
        let profiler = Arc::new(Profiler::new());
        profiler.set_enabled(false);
        assert!(RunRecorder::begin(Some(&profiler)).is_none());
        profiler.set_enabled(true);
        assert!(RunRecorder::begin(Some(&profiler)).is_some());
    }

    #[test]
    fn report_aggregates_and_orders_by_heat() {
        let profiler = Arc::new(Profiler::new());
        record_run(&profiler, &[("conv1", "conv2d", 8), ("act1", "relu", 1)]);
        record_run(&profiler, &[("conv1", "conv2d", 8), ("act1", "relu", 1)]);
        let report = profiler.report();
        assert_eq!(report.runs, 2);
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(report.nodes[0].name, "conv1", "hottest node first");
        assert_eq!(report.nodes[0].count, 2);
        assert!(report.nodes[0].total_ms >= 16.0);
        assert_eq!(report.nodes[0].bytes, 256);
        assert_eq!(report.ops[0].op, "conv2d");
        assert!(report.ops[0].percent > report.ops[1].percent);
        let pct: f64 = report.ops.iter().map(|o| o.percent).sum();
        assert!((pct - 100.0).abs() < 1e-6, "op percentages sum to 100");
        // Spans cover nearly all of the run (the loop body *is* the run).
        assert!(report.coverage > 0.95, "coverage = {}", report.coverage);
        assert!(report.coverage <= 1.0 + 1e-9);

        let shown = format!("{report}");
        assert!(shown.contains("conv1"), "{shown}");
        assert!(shown.contains("conv2d"), "{shown}");

        profiler.reset();
        assert_eq!(profiler.report().runs, 0);
    }

    #[test]
    fn top_truncates_nodes_only() {
        let profiler = Arc::new(Profiler::new());
        record_run(
            &profiler,
            &[("a", "conv2d", 2), ("b", "relu", 1), ("c", "pool", 1)],
        );
        let top = profiler.report().top(1);
        assert_eq!(top.nodes.len(), 1);
        assert_eq!(top.ops.len(), 3);
    }

    #[test]
    fn report_round_trips_through_json() {
        let profiler = Arc::new(Profiler::new());
        record_run(&profiler, &[("conv1", "conv2d", 2)]);
        let report = profiler.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
