//! The process-wide metrics registry: lock-free counters, gauges and
//! histograms, rendered in Prometheus text exposition format.
//!
//! Call sites obtain a handle once ([`Registry::counter`],
//! [`Registry::gauge`], [`Registry::histogram`]) and then update it with
//! plain atomic operations — the registry lock is only taken at registration
//! and at render time. Handles are cheap `Arc` clones; registering the same
//! `(name, labels)` twice returns the **same** underlying series, so
//! independent subsystems (or repeated server constructions in one process)
//! accumulate into one time series.
//!
//! ```
//! let registry = mnn_obs::Registry::new();
//! let requests = registry.counter("mnn_demo_requests_total", "Requests seen.");
//! requests.inc();
//! let text = registry.render_prometheus();
//! assert!(text.contains("mnn_demo_requests_total 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Stable metric names used across the workspace — the `/metrics` contract.
pub mod names {
    /// Requests accepted into a serve queue (counter).
    pub const INFER_REQUESTS: &str = "mnn_infer_requests_total";
    /// Requests answered successfully (counter).
    pub const INFER_COMPLETED: &str = "mnn_infer_completed_total";
    /// Requests answered with an inference error (counter).
    pub const INFER_ERRORS: &str = "mnn_infer_errors_total";
    /// Submissions rejected with `QueueFull` backpressure (counter).
    pub const INFER_REJECTED: &str = "mnn_infer_rejected_total";
    /// Queued requests failed with `ShuttingDown` at drain eviction (counter).
    pub const INFER_ABORTED: &str = "mnn_infer_aborted_total";
    /// Worker panics contained by the serving runtime (counter).
    pub const WORKER_PANICS: &str = "mnn_worker_panics_total";
    /// End-to-end request latency, milliseconds (histogram).
    pub const INFER_LATENCY_MS: &str = "mnn_infer_latency_ms";
    /// Executed micro-batch sizes (histogram).
    pub const BATCH_SIZE: &str = "mnn_batch_size";
    /// Requests currently waiting in serve queues (gauge).
    pub const QUEUE_DEPTH: &str = "mnn_queue_depth";
    /// Sessions prepared (full pre-inference passes, counter).
    pub const SESSION_PREPARES: &str = "mnn_session_prepare_total";
    /// Session preparation wall time, milliseconds (histogram).
    pub const SESSION_PREPARE_MS: &str = "mnn_session_prepare_ms";
    /// `resize_session` calls that re-planned or swapped plans (counter).
    pub const SESSION_RESIZES: &str = "mnn_session_resize_total";
    /// Resizes served from the per-shape-signature plan cache (counter).
    pub const PLAN_CACHE_HITS: &str = "mnn_plan_cache_hits_total";
    /// Resizes that re-ran pre-inference for a new geometry (counter).
    pub const PLAN_CACHE_MISSES: &str = "mnn_plan_cache_misses_total";
    /// Session-pool checkouts (counter).
    pub const POOL_ACQUIRES: &str = "mnn_session_pool_acquires_total";
    /// Tuning-cache lookups answered from the cache (counter).
    pub const TUNE_CACHE_HITS: &str = "mnn_tune_cache_hits_total";
    /// Tuning-cache lookups that found no entry (counter).
    pub const TUNE_CACHE_MISSES: &str = "mnn_tune_cache_misses_total";
    /// Candidate kernels micro-benchmarked by the tuner (counter).
    pub const TUNE_MEASURED: &str = "mnn_tune_measured_candidates_total";
    /// HTTP responses written, labeled by status code (counter).
    pub const HTTP_RESPONSES: &str = "mnn_http_responses_total";
    /// HTTP connections currently being served (gauge).
    pub const HTTP_CONNECTIONS: &str = "mnn_http_connections_active";
    /// Seconds since this process first touched the metrics registry (gauge).
    pub const UPTIME_SECONDS: &str = "mnn_uptime_seconds";
    /// Time requests spent waiting in serve queues, milliseconds (histogram).
    pub const QUEUE_WAIT_MS: &str = "mnn_queue_wait_ms";
    /// Time from dequeue to inference start (stacking, geometry), ms (histogram).
    pub const BATCH_ASSEMBLY_MS: &str = "mnn_batch_assembly_ms";
    /// Request traces completed by the flight recorder (counter).
    pub const TRACES_RECORDED: &str = "mnn_traces_recorded_total";
    /// Constant 1, labeled version/build_id/kernel_backend (gauge).
    pub const BUILD_INFO: &str = "mnn_build_info";
    /// Kernel-reported resident set size of this process, bytes (gauge).
    pub const PROCESS_RSS_BYTES: &str = "mnn_process_rss_bytes";
    /// Kernel-reported thread count of this process (gauge).
    pub const PROCESS_THREADS: &str = "mnn_process_threads";
    /// Engine-accounted resident bytes, labeled scope/component (gauge).
    pub const RESIDENT_BYTES: &str = "mnn_resident_bytes";
    /// Sum of all engine-accounted resident bytes (gauge).
    pub const RESIDENT_BYTES_TOTAL: &str = "mnn_resident_bytes_total";
    /// Workers flagged stalled by the health watchdog, cumulative (counter).
    pub const WORKER_STALLS: &str = "mnn_worker_stalls_total";
    /// Workers currently flagged stalled (gauge).
    pub const STALLED_WORKERS: &str = "mnn_stalled_workers";
}

/// Default latency bucket bounds, milliseconds.
pub const LATENCY_MS_BUCKETS: &[f64] = &[
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
];

/// Default batch-size bucket bounds.
pub const BATCH_SIZE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a double that can go up and down (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative). Lock-free CAS loop.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Subtract `delta`.
    #[inline]
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared histogram storage: per-bucket counts plus sum and count.
#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; `counts[bounds.len()]` is `+Inf`.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits.
    sum_bits: AtomicU64,
    observations: AtomicU64,
    /// Most recent `(value, trace_id)` exemplar per bucket, rendered as an
    /// OpenMetrics exemplar suffix. Only written by
    /// [`Histogram::observe_with_exemplar`], so exemplar-free histograms
    /// render byte-identically to before. The id is formatted only at render
    /// time, so observing never allocates.
    exemplars: Vec<Mutex<Option<(f64, u128)>>>,
}

/// A histogram with fixed bucket bounds (Prometheus classic histogram).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.observe_slot(value);
    }

    /// Record one observation and attach `trace_id` as the bucket's exemplar,
    /// so an operator can go from a bad latency bucket straight to the
    /// offending trace in the flight recorder (`GET /v1/traces?id=...`).
    pub fn observe_with_exemplar(&self, value: f64, trace_id: u128) {
        let slot = self.observe_slot(value);
        *self.0.exemplars[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some((value, trace_id));
    }

    #[inline]
    fn observe_slot(&self, value: f64) -> usize {
        let inner = &self.0;
        let slot = inner
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(inner.bounds.len());
        inner.counts[slot].fetch_add(1, Ordering::Relaxed);
        inner.observations.fetch_add(1, Ordering::Relaxed);
        let mut current = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return slot,
                Err(observed) => current = observed,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.observations.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type LabelSet = Vec<(String, String)>;

struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<LabelSet, Series>,
}

/// A named collection of metric families (see the [module docs](self)).
///
/// Most code uses the process-wide [`global`] registry; tests that need
/// isolation construct their own.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.lock();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric '{name}' is already registered as a {}, not a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        let key: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a counter with label pairs, e.g.
    /// `counter_with("mnn_http_responses_total", help, &[("code", "200")])`.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, MetricKind::Counter, || {
            Series::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a gauge with label pairs, e.g.
    /// `gauge_with("mnn_resident_bytes", help, &[("scope", "tiny-cnn")])`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, MetricKind::Gauge, || {
            Series::Gauge(Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Register (or look up) an unlabeled histogram with ascending bucket
    /// upper bounds (an implicit `+Inf` bucket is appended).
    ///
    /// A second registration under the same name returns the existing
    /// histogram regardless of the `buckets` argument.
    pub fn histogram(&self, name: &str, help: &str, buckets: &[f64]) -> Histogram {
        debug_assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        match self.series(name, help, &[], MetricKind::Histogram, || {
            let counts = (0..=buckets.len()).map(|_| AtomicU64::new(0)).collect();
            let exemplars = (0..=buckets.len()).map(|_| Mutex::new(None)).collect();
            Series::Histogram(Histogram(Arc::new(HistogramInner {
                bounds: buckets.to_vec(),
                counts,
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
                observations: AtomicU64::new(0),
                exemplars,
            })))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Render every registered family in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `# HELP` / `# TYPE` comments, families
    /// sorted by name, series sorted by label set, histogram buckets
    /// cumulative with a final `+Inf`.
    pub fn render_prometheus(&self) -> String {
        let families = self.lock();
        let mut out = String::with_capacity(families.len() * 128);
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(counter) => {
                        render_sample(&mut out, name, labels, None, &format_u64(counter.get()));
                    }
                    Series::Gauge(gauge) => {
                        render_sample(&mut out, name, labels, None, &format_f64(gauge.get()));
                    }
                    Series::Histogram(histogram) => {
                        let inner = &histogram.0;
                        let mut cumulative = 0u64;
                        for (i, bound) in inner.bounds.iter().enumerate() {
                            cumulative += inner.counts[i].load(Ordering::Relaxed);
                            render_sample(
                                &mut out,
                                &format!("{name}_bucket"),
                                labels,
                                Some(("le", &format_f64(*bound))),
                                &format_u64(cumulative),
                            );
                            append_exemplar(&mut out, &inner.exemplars[i]);
                        }
                        cumulative += inner.counts[inner.bounds.len()].load(Ordering::Relaxed);
                        render_sample(
                            &mut out,
                            &format!("{name}_bucket"),
                            labels,
                            Some(("le", "+Inf")),
                            &format_u64(cumulative),
                        );
                        append_exemplar(&mut out, &inner.exemplars[inner.bounds.len()]);
                        render_sample(
                            &mut out,
                            &format!("{name}_sum"),
                            labels,
                            None,
                            &format_f64(histogram.sum()),
                        );
                        render_sample(
                            &mut out,
                            &format!("{name}_count"),
                            labels,
                            None,
                            &format_u64(histogram.count()),
                        );
                    }
                }
            }
        }
        out
    }
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Rewrite the just-rendered bucket line to carry an OpenMetrics exemplar
/// suffix (` # {trace_id="..."} value`) when the bucket has one. Buckets
/// without exemplars render byte-identically to the classic format.
fn append_exemplar(out: &mut String, slot: &Mutex<Option<(f64, u128)>>) {
    let exemplar = *slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((value, trace_id)) = exemplar {
        debug_assert!(out.ends_with('\n'));
        out.pop();
        out.push_str(&format!(
            " # {{trace_id=\"{trace_id:032x}\"}} {}\n",
            format_f64(value)
        ));
    }
}

/// Escape a HELP string: backslash and newline.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double quote and newline.
fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_u64(value: u64) -> String {
    value.to_string()
}

fn format_f64(value: f64) -> String {
    if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        // Rust's shortest-roundtrip formatting: "3" for 3.0 is fine for
        // Prometheus (all values are doubles).
        format!("{value}")
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice: the
/// smallest value with at least `p`% of the values at or below it, so the
/// answer is always an observed value. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static PROCESS_EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// The process-wide registry every engine layer writes into.
pub fn global() -> &'static Registry {
    process_epoch();
    GLOBAL.get_or_init(Registry::new)
}

/// When this process first touched the metrics layer (the
/// `mnn_uptime_seconds` epoch).
pub fn process_epoch() -> std::time::Instant {
    *PROCESS_EPOCH.get_or_init(std::time::Instant::now)
}

/// Eagerly register every well-known unlabeled series from [`names`] in the
/// [`global`] registry, so a `/metrics` scrape shows the full schema (at
/// zero) even for subsystems that have not run yet. Idempotent: series
/// already registered by their instrumentation site are left untouched.
pub fn register_defaults() {
    let registry = global();
    registry.counter(
        names::INFER_REQUESTS,
        "Requests accepted into a serve queue.",
    );
    registry.counter(names::INFER_COMPLETED, "Requests answered successfully.");
    registry.counter(
        names::INFER_ERRORS,
        "Requests answered with an inference error.",
    );
    registry.counter(
        names::INFER_REJECTED,
        "Submissions rejected with QueueFull backpressure.",
    );
    registry.counter(
        names::INFER_ABORTED,
        "Queued requests failed with ShuttingDown at drain eviction.",
    );
    registry.counter(
        names::WORKER_PANICS,
        "Worker panics contained by the serving runtime.",
    );
    registry.histogram(
        names::INFER_LATENCY_MS,
        "End-to-end request latency (enqueue to response), milliseconds.",
        LATENCY_MS_BUCKETS,
    );
    registry.histogram(
        names::BATCH_SIZE,
        "Executed micro-batch sizes.",
        BATCH_SIZE_BUCKETS,
    );
    registry.gauge(
        names::QUEUE_DEPTH,
        "Requests currently waiting in serve queues.",
    );
    registry.counter(
        names::SESSION_PREPARES,
        "Sessions prepared (full pre-inference passes).",
    );
    registry.histogram(
        names::SESSION_PREPARE_MS,
        "Session preparation wall time, milliseconds.",
        LATENCY_MS_BUCKETS,
    );
    registry.counter(
        names::SESSION_RESIZES,
        "resize_session calls that changed the active geometry.",
    );
    registry.counter(
        names::PLAN_CACHE_HITS,
        "Resizes served from the per-shape-signature plan cache.",
    );
    registry.counter(
        names::PLAN_CACHE_MISSES,
        "Resizes that re-ran pre-inference for a new geometry.",
    );
    registry.counter(names::POOL_ACQUIRES, "Session-pool checkouts.");
    registry.counter(
        names::TUNE_CACHE_HITS,
        "Tuning-cache lookups answered from the cache.",
    );
    registry.counter(
        names::TUNE_CACHE_MISSES,
        "Tuning-cache lookups that found no entry.",
    );
    registry.counter(
        names::TUNE_MEASURED,
        "Candidate kernels micro-benchmarked by the tuner.",
    );
    registry.gauge(
        names::HTTP_CONNECTIONS,
        "HTTP connections currently being served.",
    );
    registry.histogram(
        names::QUEUE_WAIT_MS,
        "Time requests spent waiting in serve queues, milliseconds.",
        LATENCY_MS_BUCKETS,
    );
    registry.histogram(
        names::BATCH_ASSEMBLY_MS,
        "Time from dequeue to inference start (stacking, geometry), milliseconds.",
        LATENCY_MS_BUCKETS,
    );
    registry.counter(
        names::TRACES_RECORDED,
        "Request traces completed by the flight recorder.",
    );
    registry.counter(
        names::WORKER_STALLS,
        "Workers flagged stalled by the health watchdog, cumulative.",
    );
    registry.gauge(
        names::STALLED_WORKERS,
        "Workers currently flagged stalled by the health watchdog.",
    );
    registry.gauge(names::UPTIME_SECONDS, "Seconds since process start.");
    // Build identity, OS-level process gauges and the resource ledger render
    // even when idle: publish them at registration time too, not only on the
    // render_global refresh.
    crate::resources::publish_gauges(registry);
}

/// Refresh the live gauges (`mnn_uptime_seconds`, the resource ledger, RSS
/// and thread count) and render the [`global`] registry, with the full
/// well-known schema pre-registered ([`register_defaults`]).
pub fn render_global() -> String {
    register_defaults();
    let registry = global();
    registry
        .gauge(names::UPTIME_SECONDS, "Seconds since process start.")
        .set(process_epoch().elapsed().as_secs_f64());
    crate::resources::publish_gauges(registry);
    registry.render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_update() {
        let registry = Registry::new();
        let c = registry.counter("c_total", "counts");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same series.
        assert_eq!(registry.counter("c_total", "counts").get(), 5);

        let g = registry.gauge("g", "gauges");
        g.set(2.5);
        g.add(1.0);
        g.sub(0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);

        let h = registry.histogram("h", "hist", &[1.0, 5.0]);
        h.observe(0.5);
        h.observe(3.0);
        h.observe(100.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 103.5).abs() < 1e-9);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let registry = Registry::new();
        let ok = registry.counter_with("resp_total", "responses", &[("code", "200")]);
        let err = registry.counter_with("resp_total", "responses", &[("code", "500")]);
        ok.inc();
        ok.inc();
        err.inc();
        assert_eq!(ok.get(), 2);
        assert_eq!(err.get(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("resp_total{code=\"200\"} 2\n"), "{text}");
        assert!(text.contains("resp_total{code=\"500\"} 1\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("m", "as counter");
        registry.gauge("m", "as gauge");
    }

    /// Golden exposition-format test: the exact text `/metrics` serves for a
    /// known registry state. Any format drift fails here first.
    #[test]
    fn prometheus_exposition_shape_is_pinned() {
        let registry = Registry::new();
        let requests = registry.counter("zz_requests_total", "Requests seen.");
        requests.add(7);
        registry
            .counter_with("aa_responses_total", "Responses.", &[("code", "200")])
            .add(3);
        registry.gauge("mm_depth", "Queue depth.").set(2.0);
        let lat = registry.histogram("ll_latency_ms", "Latency.", &[1.0, 2.5]);
        lat.observe(0.5);
        lat.observe(0.7);
        lat.observe(2.0);
        lat.observe(9.0);

        assert_eq!(
            registry.render_prometheus(),
            concat!(
                "# HELP aa_responses_total Responses.\n",
                "# TYPE aa_responses_total counter\n",
                "aa_responses_total{code=\"200\"} 3\n",
                "# HELP ll_latency_ms Latency.\n",
                "# TYPE ll_latency_ms histogram\n",
                "ll_latency_ms_bucket{le=\"1\"} 2\n",
                "ll_latency_ms_bucket{le=\"2.5\"} 3\n",
                "ll_latency_ms_bucket{le=\"+Inf\"} 4\n",
                "ll_latency_ms_sum 12.2\n",
                "ll_latency_ms_count 4\n",
                "# HELP mm_depth Queue depth.\n",
                "# TYPE mm_depth gauge\n",
                "mm_depth 2\n",
                "# HELP zz_requests_total Requests seen.\n",
                "# TYPE zz_requests_total counter\n",
                "zz_requests_total 7\n",
            )
        );
    }

    /// Exemplars attach to the bucket the observation landed in and leave
    /// every other line untouched; plain observations never produce one.
    #[test]
    fn histogram_exemplars_render_on_their_bucket_only() {
        let registry = Registry::new();
        let h = registry.histogram("ex_ms", "m", &[1.0, 5.0]);
        h.observe(0.5);
        let before = registry.render_prometheus();
        assert!(!before.contains("trace_id"), "{before}");

        h.observe_with_exemplar(3.0, 0x0af7651916cd43dd8448eb211c80319c);
        h.observe_with_exemplar(99.0, 0xb7ad6b7169203331b7ad6b7169203331);
        let text = registry.render_prometheus();
        assert!(
            text.contains(
                "ex_ms_bucket{le=\"5\"} 2 # {trace_id=\"0af7651916cd43dd8448eb211c80319c\"} 3\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "ex_ms_bucket{le=\"+Inf\"} 3 # {trace_id=\"b7ad6b7169203331b7ad6b7169203331\"} 99\n"
            ),
            "{text}"
        );
        assert!(text.contains("ex_ms_bucket{le=\"1\"} 1\n"), "{text}");
        // A later exemplar in the same bucket replaces the earlier one.
        h.observe_with_exemplar(2.0, 0xdeadbeefdeadbeefdeadbeefdeadbeef);
        let text = registry.render_prometheus();
        assert!(
            text.contains("# {trace_id=\"deadbeefdeadbeefdeadbeefdeadbeef\"} 2\n"),
            "{text}"
        );
        assert!(!text.contains("0af7651916cd43dd8448eb211c80319c"), "{text}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn help_and_label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with(
                "esc_total",
                "line one\nback\\slash",
                &[("path", "a\"b\\c\nd")],
            )
            .inc();
        let text = registry.render_prometheus();
        assert!(
            text.contains("# HELP esc_total line one\\nback\\\\slash\n"),
            "{text}"
        );
        assert!(
            text.contains("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let registry = Registry::new();
        let h = registry.histogram("mono_ms", "m", LATENCY_MS_BUCKETS);
        for v in [0.1, 0.3, 0.9, 3.0, 3.0, 40.0, 9000.0] {
            h.observe(v);
        }
        let text = registry.render_prometheus();
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("mono_ms_bucket{le=\"") {
                let count: u64 = rest.split("\"} ").nth(1).unwrap().parse().unwrap();
                assert!(count >= last, "buckets must be cumulative: {text}");
                last = count;
                buckets += 1;
            }
        }
        assert_eq!(buckets, LATENCY_MS_BUCKETS.len() + 1);
        assert_eq!(last, 7, "+Inf bucket must equal the observation count");
        assert!(text.contains("mono_ms_count 7\n"));
    }

    #[test]
    fn sum_bucket_and_inf_are_consistent_after_concurrent_updates() {
        let registry = Arc::new(Registry::new());
        let h = registry.histogram("conc_ms", "m", &[10.0]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe((i % 20) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        let expected: f64 = 4.0 * (0..1000).map(|i| (i % 20) as f64).sum::<f64>();
        assert!(
            (h.sum() - expected).abs() < 1e-6,
            "lock-free sum must not lose updates"
        );
    }

    #[test]
    fn global_registry_is_a_singleton_and_renders_uptime() {
        let a = global().counter("global_smoke_total", "smoke");
        a.inc();
        let b = global().counter("global_smoke_total", "smoke");
        assert!(b.get() >= 1);
        let text = render_global();
        assert!(text.contains("mnn_uptime_seconds"), "{text}");
    }
}
