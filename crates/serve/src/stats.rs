//! Server telemetry: counters, latency percentiles and the batch-size histogram.

use crate::health::WorkerHealth;
use mnn_obs::{percentile, SloConfig, SloSnapshot, SloTracker};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Most recent requests retained for percentile estimation. A bounded ring
/// keeps the snapshot O(1) in memory under sustained traffic and biases
/// percentiles toward *current* behavior rather than startup noise.
const LATENCY_WINDOW: usize = 16_384;

/// How one served request is measured: taken once per batch member by the
/// batcher, then fed to the window, the global histograms and the SLO by
/// [`StatsCollector::record_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RequestSample {
    /// End-to-end latency (enqueue → response), milliseconds.
    pub(crate) latency_ms: f64,
    /// Queue wait (enqueue → dequeue), milliseconds.
    pub(crate) queue_wait_ms: f64,
    /// Batch assembly (dequeue → inference start), milliseconds.
    pub(crate) batch_assembly_ms: f64,
    /// The request's trace id, attached to the histogram buckets as their
    /// exemplar.
    pub(crate) trace_id: Option<u128>,
}

struct StatsInner {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    /// Queued requests failed with `ShuttingDown` when a drain deadline evicted
    /// them.
    aborted: u64,
    /// Worker panics contained by the batch loop / joined at shutdown.
    worker_panics: u64,
    /// `[latency, queue wait, batch assembly]` of the last requests,
    /// milliseconds. Allocated full-size up front, so recording never
    /// allocates.
    window: VecDeque<[f64; 3]>,
    /// `batch_histogram[k - 1]` counts executed batches of size `k`.
    batch_histogram: Vec<u64>,
}

/// Handles into the process-wide `mnn_obs` registry, registered once per
/// server so the per-request path never touches the registry lock. These are
/// *global* series: several servers (one per model) accumulate together.
struct GlobalMetrics {
    requests: mnn_obs::Counter,
    completed: mnn_obs::Counter,
    errors: mnn_obs::Counter,
    rejected: mnn_obs::Counter,
    aborted: mnn_obs::Counter,
    worker_panics: mnn_obs::Counter,
    latency_ms: mnn_obs::Histogram,
    batch_size: mnn_obs::Histogram,
    queue_wait_ms: mnn_obs::Histogram,
    batch_assembly_ms: mnn_obs::Histogram,
}

impl GlobalMetrics {
    fn register() -> Self {
        use mnn_obs::metrics::names;
        let global = mnn_obs::global();
        GlobalMetrics {
            requests: global.counter(
                names::INFER_REQUESTS,
                "Requests accepted into a serve queue.",
            ),
            completed: global.counter(names::INFER_COMPLETED, "Requests answered successfully."),
            errors: global.counter(
                names::INFER_ERRORS,
                "Requests answered with an inference error.",
            ),
            rejected: global.counter(
                names::INFER_REJECTED,
                "Submissions rejected with QueueFull backpressure.",
            ),
            aborted: global.counter(
                names::INFER_ABORTED,
                "Queued requests failed with ShuttingDown at drain eviction.",
            ),
            worker_panics: global.counter(
                names::WORKER_PANICS,
                "Worker panics contained by the serving runtime.",
            ),
            latency_ms: global.histogram(
                names::INFER_LATENCY_MS,
                "End-to-end request latency (enqueue to response), milliseconds.",
                mnn_obs::metrics::LATENCY_MS_BUCKETS,
            ),
            batch_size: global.histogram(
                names::BATCH_SIZE,
                "Executed micro-batch sizes.",
                mnn_obs::metrics::BATCH_SIZE_BUCKETS,
            ),
            queue_wait_ms: global.histogram(
                names::QUEUE_WAIT_MS,
                "Time requests spent waiting in serve queues, milliseconds.",
                mnn_obs::metrics::LATENCY_MS_BUCKETS,
            ),
            batch_assembly_ms: global.histogram(
                names::BATCH_ASSEMBLY_MS,
                "Time from dequeue to inference start (stacking, geometry), milliseconds.",
                mnn_obs::metrics::LATENCY_MS_BUCKETS,
            ),
        }
    }
}

/// Observe `value`, attaching `trace_id` as the bucket's exemplar when the
/// request was traced, so `/metrics` points straight at a representative
/// trace.
fn observe(histogram: &mnn_obs::Histogram, value: f64, trace_id: Option<u128>) {
    match trace_id {
        Some(id) => histogram.observe_with_exemplar(value, id),
        None => histogram.observe(value),
    }
}

/// Thread-safe collector the server and its workers write into.
pub(crate) struct StatsCollector {
    inner: Mutex<StatsInner>,
    metrics: GlobalMetrics,
    started: Instant,
    /// SLO tracker, when an objective was configured; every batch member's
    /// latency/outcome feeds it.
    slo: Option<SloTracker>,
}

impl StatsCollector {
    pub(crate) fn new(max_batch: usize, slo: Option<SloConfig>) -> Self {
        StatsCollector {
            inner: Mutex::new(StatsInner {
                submitted: 0,
                completed: 0,
                failed: 0,
                rejected: 0,
                aborted: 0,
                worker_panics: 0,
                window: VecDeque::with_capacity(LATENCY_WINDOW),
                batch_histogram: vec![0; max_batch.max(1)],
            }),
            metrics: GlobalMetrics::register(),
            started: Instant::now(),
            slo: slo.map(SloTracker::new),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StatsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn record_submitted(&self) {
        self.lock().submitted += 1;
        self.metrics.requests.inc();
    }

    pub(crate) fn record_rejected(&self) {
        self.lock().rejected += 1;
        self.metrics.rejected.inc();
    }

    /// Record queued requests evicted with `ShuttingDown` at the drain
    /// deadline.
    pub(crate) fn record_aborted(&self, count: usize) {
        self.lock().aborted += count as u64;
        self.metrics.aborted.add(count as u64);
    }

    /// Record one contained worker panic.
    pub(crate) fn record_worker_panic(&self) {
        self.lock().worker_panics += 1;
        self.metrics.worker_panics.inc();
    }

    /// Record one executed batch, one sample per member: the window, the
    /// per-server counters and batch histogram, the global histograms and the
    /// SLO tracker all take it from here. Takes the lock once and allocates
    /// nothing.
    pub(crate) fn record_batch(&self, samples: impl IntoIterator<Item = RequestSample>, ok: bool) {
        let mut inner = self.lock();
        let mut size = 0;
        for sample in samples {
            size += 1;
            if inner.window.len() == LATENCY_WINDOW {
                inner.window.pop_front();
            }
            inner.window.push_back([
                sample.latency_ms,
                sample.queue_wait_ms,
                sample.batch_assembly_ms,
            ]);
            observe(&self.metrics.latency_ms, sample.latency_ms, sample.trace_id);
            observe(
                &self.metrics.queue_wait_ms,
                sample.queue_wait_ms,
                sample.trace_id,
            );
            observe(
                &self.metrics.batch_assembly_ms,
                sample.batch_assembly_ms,
                sample.trace_id,
            );
            if let Some(slo) = &self.slo {
                slo.record(sample.latency_ms, ok);
            }
        }
        if size == 0 {
            return;
        }
        let slot = size.min(inner.batch_histogram.len()) - 1;
        inner.batch_histogram[slot] += 1;
        if ok {
            inner.completed += size as u64;
            self.metrics.completed.add(size as u64);
        } else {
            inner.failed += size as u64;
            self.metrics.errors.add(size as u64);
        }
        self.metrics.batch_size.observe(size as f64);
    }

    /// SLO compliance over the rolling window, if an objective was configured.
    pub(crate) fn slo_snapshot(&self) -> Option<SloSnapshot> {
        self.slo.as_ref().map(SloTracker::snapshot)
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        workers: usize,
        health: Option<&WorkerHealth>,
    ) -> ServerStats {
        // Copy the window's columns and the counters out under the lock; the
        // three sorts run after it is released, so a status call never stalls
        // the workers' `record_batch`.
        let (inner, mut columns) = {
            let guard = self.lock();
            let mut columns: [Vec<f64>; 3] =
                std::array::from_fn(|_| Vec::with_capacity(guard.window.len()));
            for sample in &guard.window {
                for (column, &value) in columns.iter_mut().zip(sample) {
                    column.push(value);
                }
            }
            let counters = StatsInner {
                window: VecDeque::new(),
                batch_histogram: guard.batch_histogram.clone(),
                ..*guard
            };
            (counters, columns)
        };
        for column in &mut columns {
            column.sort_by(f64::total_cmp);
        }
        let [latency, queue_wait, assembly] = columns;
        let uptime_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        let batches: u64 = inner.batch_histogram.iter().sum();
        let batched_requests: u64 = inner
            .batch_histogram
            .iter()
            .enumerate()
            .map(|(i, &count)| (i as u64 + 1) * count)
            .sum();
        ServerStats {
            workers,
            submitted: inner.submitted,
            completed: inner.completed,
            failed: inner.failed,
            rejected: inner.rejected,
            aborted: inner.aborted,
            worker_panics: inner.worker_panics,
            queue_depth,
            uptime_ms,
            uptime_seconds: uptime_ms / 1000.0,
            throughput_rps: if uptime_ms > 0.0 {
                inner.completed as f64 / (uptime_ms / 1000.0)
            } else {
                0.0
            },
            mean_latency_ms: mean(&latency),
            p50_latency_ms: percentile(&latency, 50.0),
            p99_latency_ms: percentile(&latency, 99.0),
            queue_wait_p50_ms: percentile(&queue_wait, 50.0),
            queue_wait_p99_ms: percentile(&queue_wait, 99.0),
            batch_assembly_p50_ms: percentile(&assembly, 50.0),
            batch_assembly_p99_ms: percentile(&assembly, 99.0),
            mean_batch_size: if batches > 0 {
                batched_requests as f64 / batches as f64
            } else {
                0.0
            },
            batch_histogram: inner
                .batch_histogram
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(i, &count)| (i + 1, count))
                .collect(),
            stalled_workers: health.map_or(0, WorkerHealth::stalled_count),
            worker_states: health.map_or_else(Vec::new, |h| {
                h.states().iter().map(|s| s.as_str().to_string()).collect()
            }),
            slo: self.slo_snapshot(),
        }
    }
}

fn mean(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    }
}

/// A point-in-time snapshot of server behavior, returned by
/// [`Server::stats`](crate::Server::stats).
///
/// The struct is `serde::Serialize`, and the serialized field set is part of
/// the `/v1/models/{name}/stats` HTTP contract — a unit test pins the exact
/// JSON shape so it cannot drift silently.
///
/// The percentiles are exact nearest-rank values over *this server's* last
/// 16 384 requests (the "recent window"). The `/metrics` histograms
/// (`mnn_infer_latency_ms`, `mnn_queue_wait_ms`, `mnn_batch_assembly_ms`)
/// record the same samples but are cumulative since process start and shared
/// by every server in the process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an inference error.
    pub failed: u64,
    /// Submissions refused with [`ServeError::QueueFull`](crate::ServeError::QueueFull).
    ///
    /// Cumulative since startup — together with [`ServerStats::failed`]
    /// (inference errors) these are the server's error totals.
    pub rejected: u64,
    /// Queued requests failed with
    /// [`ServeError::ShuttingDown`](crate::ServeError::ShuttingDown) because a
    /// drain deadline evicted them before a worker picked them up.
    pub aborted: u64,
    /// Worker panics contained by the serving runtime (each also fails its
    /// batch, counted under [`ServerStats::failed`]).
    pub worker_panics: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Milliseconds since the server started.
    pub uptime_ms: f64,
    /// Seconds since the server started (`uptime_ms / 1000`, for dashboards).
    pub uptime_seconds: f64,
    /// Completed requests per second since startup.
    pub throughput_rps: f64,
    /// Mean end-to-end latency (enqueue → response) over the recent window.
    pub mean_latency_ms: f64,
    /// Median end-to-end latency over the recent window.
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end latency over the recent window.
    pub p99_latency_ms: f64,
    /// Median time requests spent waiting in the queue (enqueue → dequeue)
    /// over the recent window, from the queue's dequeue stamp (measured with
    /// tracing on or off).
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait over the recent window.
    pub queue_wait_p99_ms: f64,
    /// Median time from dequeue to inference start (batch-window wait,
    /// stacking, geometry) over the recent window — the latency a request
    /// pays for micro-batching.
    pub batch_assembly_p50_ms: f64,
    /// 99th-percentile batch-assembly time over the recent window.
    pub batch_assembly_p99_ms: f64,
    /// Mean number of requests coalesced per executed batch.
    pub mean_batch_size: f64,
    /// `(batch_size, executed_batches)` pairs, ascending, zero entries omitted.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Workers currently flagged stalled by the health watchdog (heartbeat
    /// older than the configured deadline while not idle). Zero on a healthy
    /// server.
    pub stalled_workers: usize,
    /// Every worker's last-stamped state (`"idle"`, `"batching"` or
    /// `"running"`), in worker-index order.
    pub worker_states: Vec<String>,
    /// SLO compliance over the rolling one-hour window, when an
    /// [`SloConfig`](mnn_obs::SloConfig) was attached via
    /// [`ServerBuilder::slo`](crate::ServerBuilder::slo).
    pub slo: Option<SloSnapshot>,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workers {} ({} stalled) | submitted {} | completed {} | failed {} | rejected {} \
             | aborted {} | panics {} | queued {}",
            self.workers,
            self.stalled_workers,
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.aborted,
            self.worker_panics,
            self.queue_depth
        )?;
        writeln!(
            f,
            "throughput {:.1} req/s | latency mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
            self.throughput_rps, self.mean_latency_ms, self.p50_latency_ms, self.p99_latency_ms
        )?;
        writeln!(
            f,
            "queue wait p50 {:.3} ms, p99 {:.3} ms | batch assembly p50 {:.3} ms, p99 {:.3} ms",
            self.queue_wait_p50_ms,
            self.queue_wait_p99_ms,
            self.batch_assembly_p50_ms,
            self.batch_assembly_p99_ms
        )?;
        write!(f, "batches (size×count):")?;
        if self.batch_histogram.is_empty() {
            write!(f, " none")?;
        }
        for (size, count) in &self.batch_histogram {
            write!(f, " {size}×{count}")?;
        }
        write!(f, " | mean batch {:.2}", self.mean_batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(latency_ms: f64) -> RequestSample {
        RequestSample {
            latency_ms,
            ..RequestSample::default()
        }
    }

    #[test]
    fn batches_feed_histogram_and_counters() {
        let stats = StatsCollector::new(4, None);
        stats.record_submitted();
        stats.record_submitted();
        stats.record_submitted();
        stats.record_batch([latency(1.0), latency(2.0)], true);
        stats.record_batch([latency(3.0)], true);
        let traced = RequestSample {
            trace_id: Some(0xdeadbeef),
            ..latency(4.0)
        };
        stats.record_batch([traced], false);
        let snap = stats.snapshot(5, 2, None);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.batch_histogram, vec![(1, 2), (2, 1)]);
        assert!((snap.mean_batch_size - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(snap.p50_latency_ms, 2.0);
    }

    #[test]
    fn panics_and_evictions_become_counters() {
        let stats = StatsCollector::new(2, None);
        stats.record_worker_panic();
        stats.record_aborted(3);
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.aborted, 3);
        assert!(snap.uptime_seconds >= 0.0);
        assert!((snap.uptime_seconds - snap.uptime_ms / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn stage_waits_surface_as_percentiles() {
        let stats = StatsCollector::new(4, None);
        let waits = |wait: f64| RequestSample {
            queue_wait_ms: wait,
            batch_assembly_ms: wait / 10.0,
            ..RequestSample::default()
        };
        stats.record_batch([1.0, 2.0, 3.0, 4.0].map(waits), true);
        let traced = RequestSample {
            trace_id: Some(0xdeadbeef),
            ..waits(100.0)
        };
        stats.record_batch([traced], true);
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.queue_wait_p50_ms, 3.0);
        assert_eq!(snap.queue_wait_p99_ms, 100.0);
        assert_eq!(snap.batch_assembly_p50_ms, 0.3);
        assert_eq!(snap.batch_assembly_p99_ms, 10.0);
    }

    #[test]
    fn oversized_batches_fold_into_last_bucket() {
        let stats = StatsCollector::new(2, None);
        stats.record_batch([latency(1.0); 3], true); // size 3 with max_batch 2
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.batch_histogram, vec![(2, 1)]);
    }

    #[test]
    fn the_window_keeps_the_last_requests_and_the_slo_sees_every_one() {
        let stats = StatsCollector::new(1, Some(SloConfig::default()));
        for i in 0..LATENCY_WINDOW + 10 {
            stats.record_batch([latency(i as f64)], true);
        }
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.completed, (LATENCY_WINDOW + 10) as u64);
        // The ten oldest samples fell out of the window.
        assert_eq!(snap.p50_latency_ms, (10 + LATENCY_WINDOW / 2 - 1) as f64);
        let slo = snap.slo.expect("an objective was configured");
        assert_eq!(slo.requests, (LATENCY_WINDOW + 10) as u64);
        assert_eq!(stats.slo_snapshot(), Some(slo));
    }

    /// Pins the exact JSON rendering of `ServerStats`. The `/stats` HTTP
    /// endpoint serializes this struct verbatim, so any field rename, reorder
    /// or type change is a wire-format break and must fail here first.
    #[test]
    fn json_shape_is_pinned() {
        let stats = ServerStats {
            workers: 2,
            submitted: 10,
            completed: 8,
            failed: 1,
            rejected: 1,
            aborted: 2,
            worker_panics: 1,
            queue_depth: 3,
            uptime_ms: 1500.0,
            uptime_seconds: 1.5,
            throughput_rps: 5.5,
            mean_latency_ms: 2.25,
            p50_latency_ms: 2.0,
            p99_latency_ms: 4.5,
            queue_wait_p50_ms: 0.5,
            queue_wait_p99_ms: 1.75,
            batch_assembly_p50_ms: 0.25,
            batch_assembly_p99_ms: 0.75,
            mean_batch_size: 1.5,
            batch_histogram: vec![(1, 4), (2, 2)],
            stalled_workers: 1,
            worker_states: vec!["running".into(), "idle".into()],
            slo: None,
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(
            json,
            concat!(
                "{\"workers\":2,\"submitted\":10,\"completed\":8,\"failed\":1,",
                "\"rejected\":1,\"aborted\":2,\"worker_panics\":1,",
                "\"queue_depth\":3,\"uptime_ms\":1500.0,\"uptime_seconds\":1.5,",
                "\"throughput_rps\":5.5,\"mean_latency_ms\":2.25,",
                "\"p50_latency_ms\":2.0,\"p99_latency_ms\":4.5,",
                "\"queue_wait_p50_ms\":0.5,\"queue_wait_p99_ms\":1.75,",
                "\"batch_assembly_p50_ms\":0.25,\"batch_assembly_p99_ms\":0.75,",
                "\"mean_batch_size\":1.5,\"batch_histogram\":[[1,4],[2,2]],",
                "\"stalled_workers\":1,\"worker_states\":[\"running\",\"idle\"],",
                "\"slo\":null}"
            )
        );
        let back: ServerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn display_is_human_readable() {
        let stats = StatsCollector::new(4, None);
        stats.record_batch([1.0, 2.0, 3.0, 4.0].map(latency), true);
        let text = stats.snapshot(0, 2, None).to_string();
        assert!(text.contains("throughput"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("4×1"));
    }
}
