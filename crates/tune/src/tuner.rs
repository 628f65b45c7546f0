//! The tuner: measured scheme selection over a shared, persistent cache.
//!
//! A [`SharedTuneCache`] is a cheaply-clonable handle to one device-keyed set
//! of measurements plus its statistics counters. Handles obtained through
//! [`shared_cache`] are deduplicated process-wide by (fingerprint, path), so
//! every session of a process — including all workers of a
//! `SessionPool`/`mnn-serve` deployment — shares one tuning pass. When a path
//! is configured, the cache is loaded from disk on first open (a warm file
//! means *zero* measurements) and persisted after tuning.

use crate::cache::{
    load_cache_file, save_cache_file, CacheLoad, CandidateMeasurement, TuneCache, TuneEntry,
};
use crate::fingerprint::DeviceFingerprint;
use crate::signature::OpSignature;
use crate::timer::{CandidateTimer, WallTimer};
use crate::TuneError;
use mnn_backend::{Backend, ConvScheme, Execution, SchemeHint};
use mnn_graph::{Graph, Node, TensorId};
use mnn_kernels::Scratch;
use mnn_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Snapshot of a shared cache's counters — the observable evidence of how much
/// tuning work actually happened (the warm-start acceptance tests assert on
/// these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuningStats {
    /// Nodes whose scheme was resolved by running measurements.
    pub tuned_nodes: u64,
    /// Individual candidate kernels that were micro-benchmarked.
    pub measured_candidates: u64,
    /// Lookups answered from the cache (in-memory or loaded from disk).
    pub cache_hits: u64,
    /// Lookups that found no entry.
    pub cache_misses: u64,
    /// Whether the backing file existed and matched on open.
    pub loaded_from_disk: bool,
}

impl std::fmt::Display for TuningStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tuned {} nodes ({} candidates measured), {} cache hits / {} misses{}",
            self.tuned_nodes,
            self.measured_candidates,
            self.cache_hits,
            self.cache_misses,
            if self.loaded_from_disk {
                ", warm-started from disk"
            } else {
                ""
            }
        )
    }
}

struct CacheInner {
    fingerprint: DeviceFingerprint,
    path: Option<PathBuf>,
    entries: Mutex<TuneCache>,
    dirty: AtomicBool,
    loaded_from_disk: bool,
    tuned_nodes: AtomicU64,
    measured_candidates: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Resource-ledger account (`scope="tune", component="tune_cache"`) and
    /// the bytes this cache currently has charged to it.
    ledger: mnn_obs::AccountedBytes,
    ledger_bytes: AtomicU64,
}

impl Drop for CacheInner {
    fn drop(&mut self) {
        self.ledger.sub(self.ledger_bytes.load(Ordering::Relaxed));
    }
}

/// A cheaply-clonable handle to one device-keyed tuning cache (entries +
/// statistics). All clones observe the same entries and counters.
#[derive(Clone)]
pub struct SharedTuneCache {
    inner: Arc<CacheInner>,
}

impl SharedTuneCache {
    /// Open a cache for `fingerprint`, loading `path` if it holds a matching
    /// persisted cache (any unusable file silently degrades to empty — see
    /// [`load_cache_file`]).
    ///
    /// This constructor always creates a *fresh* handle; use [`shared_cache`]
    /// to get the process-wide deduplicated one.
    pub fn open(fingerprint: DeviceFingerprint, path: Option<PathBuf>) -> Self {
        let load = match &path {
            Some(p) => load_cache_file(p, &fingerprint),
            None => CacheLoad::Missing,
        };
        let loaded_from_disk = load.is_loaded();
        let entries = load.into_cache();
        let cache = SharedTuneCache {
            inner: Arc::new(CacheInner {
                fingerprint,
                path,
                entries: Mutex::new(entries),
                dirty: AtomicBool::new(false),
                loaded_from_disk,
                tuned_nodes: AtomicU64::new(0),
                measured_candidates: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                ledger: mnn_obs::resources::account("tune", "tune_cache"),
                ledger_bytes: AtomicU64::new(0),
            }),
        };
        // A warm-started cache reports its loaded size immediately; inserts
        // keep the figure current (see `refresh_ledger`).
        cache.refresh_ledger();
        cache
    }

    /// Re-measure the in-memory entries and move the ledger by the delta, so
    /// several live caches (tests, multiple fingerprints) sum correctly and a
    /// dropped cache releases exactly what it charged.
    fn refresh_ledger(&self) {
        let now = self.entries().approx_bytes();
        let before = self.inner.ledger_bytes.swap(now, Ordering::Relaxed);
        if now >= before {
            self.inner.ledger.add(now - before);
        } else {
            self.inner.ledger.sub(before - now);
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, TuneCache> {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The fingerprint this cache's measurements are valid for.
    pub fn fingerprint(&self) -> &DeviceFingerprint {
        &self.inner.fingerprint
    }

    /// The persistence path, when configured.
    pub fn path(&self) -> Option<&Path> {
        self.inner.path.as_deref()
    }

    /// Look up a signature, counting a hit or miss (both on this cache's own
    /// stats and on the process-wide `mnn_tune_cache_{hits,misses}_total`
    /// metrics).
    pub fn lookup(&self, signature: &OpSignature) -> Option<TuneEntry> {
        let found = self.entries().get(signature).cloned();
        if found.is_some() {
            self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            mnn_obs::global()
                .counter(
                    mnn_obs::metrics::names::TUNE_CACHE_HITS,
                    "Tuning-cache lookups answered from the cache.",
                )
                .inc();
        } else {
            self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
            mnn_obs::global()
                .counter(
                    mnn_obs::metrics::names::TUNE_CACHE_MISSES,
                    "Tuning-cache lookups that found no entry.",
                )
                .inc();
        }
        found
    }

    /// Insert a measured entry (marks the cache dirty for persistence).
    pub fn insert(&self, signature: &OpSignature, entry: TuneEntry) {
        self.entries().insert(signature, entry);
        self.inner.dirty.store(true, Ordering::Relaxed);
        self.refresh_ledger();
    }

    /// Number of tuned signatures currently held.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether no signatures are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TuningStats {
        TuningStats {
            tuned_nodes: self.inner.tuned_nodes.load(Ordering::Relaxed),
            measured_candidates: self.inner.measured_candidates.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.inner.cache_misses.load(Ordering::Relaxed),
            loaded_from_disk: self.inner.loaded_from_disk,
        }
    }

    /// Persist to the configured path if new measurements were taken since the
    /// last save. Returns `Ok(true)` when a file was written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the dirty flag stays set so a later call
    /// retries.
    pub fn persist(&self) -> io::Result<bool> {
        let Some(path) = &self.inner.path else {
            return Ok(false);
        };
        // Claim the dirty flag BEFORE snapshotting: an insert racing with the
        // file write either lands in the snapshot or re-sets the flag, so a
        // concurrent measurement can delay persistence but never lose it.
        if !self.inner.dirty.swap(false, Ordering::AcqRel) {
            return Ok(false);
        }
        let snapshot = self.entries().clone();
        if let Err(e) = save_cache_file(path, &self.inner.fingerprint, &snapshot) {
            self.inner.dirty.store(true, Ordering::Release);
            return Err(e);
        }
        Ok(true)
    }
}

impl std::fmt::Debug for SharedTuneCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTuneCache")
            .field("fingerprint", &self.inner.fingerprint.key())
            .field("path", &self.inner.path)
            .field("entries", &self.len())
            .finish()
    }
}

fn registry() -> &'static Mutex<HashMap<String, SharedTuneCache>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SharedTuneCache>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process-wide shared cache for (fingerprint, path): every caller with the
/// same key gets the *same* handle, so sessions created by a pool or server
/// share one tuning pass. The backing file (if any) is loaded once, on first
/// open. Relative paths are resolved against the current directory before
/// keying, so two spellings of the same file share one cache.
pub fn shared_cache(fingerprint: DeviceFingerprint, path: Option<PathBuf>) -> SharedTuneCache {
    let path = path.map(|p| std::path::absolute(&p).unwrap_or(p));
    let key = format!(
        "{}\u{1}{}",
        fingerprint.key(),
        path.as_deref()
            .map(Path::to_string_lossy)
            .unwrap_or_default()
    );
    let mut registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    registry
        .entry(key)
        .or_insert_with(|| SharedTuneCache::open(fingerprint, path))
        .clone()
}

/// Drop every process-global shared cache handle, so the next [`shared_cache`]
/// call re-opens (and re-loads any persisted file) from scratch.
///
/// Existing handles keep working on their own storage; only the registry is
/// cleared. Intended for tests that simulate a fresh process against a warm
/// persistent cache.
pub fn clear_process_caches() {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// The default persistence path from the `MNN_TUNE_CACHE` environment
/// variable, used when the session configuration does not set one.
pub fn default_cache_path() -> Option<PathBuf> {
    std::env::var_os("MNN_TUNE_CACHE").map(PathBuf::from)
}

/// Measured scheme selection over a [`SharedTuneCache`].
#[derive(Clone)]
pub struct Tuner {
    cache: SharedTuneCache,
    timer: Arc<dyn CandidateTimer>,
}

impl Tuner {
    /// A tuner over `cache` using the production wall-clock timer.
    pub fn new(cache: SharedTuneCache) -> Self {
        Tuner::with_timer(cache, Arc::new(WallTimer::default()))
    }

    /// A tuner with an injected timer (deterministic tests).
    pub fn with_timer(cache: SharedTuneCache, timer: Arc<dyn CandidateTimer>) -> Self {
        Tuner { cache, timer }
    }

    /// The shared cache this tuner reads and writes.
    pub fn cache(&self) -> &SharedTuneCache {
        &self.cache
    }

    /// Counter snapshot of the shared cache.
    pub fn stats(&self) -> TuningStats {
        self.cache.stats()
    }

    /// Cache lookup (counts hit/miss).
    pub fn lookup(&self, signature: &OpSignature) -> Option<TuneEntry> {
        self.cache.lookup(signature)
    }

    /// Persist the shared cache if dirty (see [`SharedTuneCache::persist`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&self) -> io::Result<bool> {
        self.cache.persist()
    }

    /// Measure every candidate scheme for `node` on its real geometry and
    /// record the winner in the shared cache.
    ///
    /// Candidates are prepared through `backend.on_create` (so constant-weight
    /// captures and Winograd transforms happen outside the timed region, as in
    /// a real session) and given an output buffer and a scratch up front, as a
    /// session's plan gives its steps, so that a sample is the kernel and not
    /// an allocation. Each is validated with one untimed run, then timed by
    /// the injected [`CandidateTimer`]. Candidates that fail to prepare or
    /// validate are skipped. Returns the entry plus the winning candidate's
    /// prepared execution, which the caller may install directly into its plan
    /// instead of re-creating it.
    ///
    /// # Errors
    ///
    /// * [`TuneError::MissingShape`] when the node's input or output shape is
    ///   unknown.
    /// * [`TuneError::NoCandidates`] when the candidate list is empty or every
    ///   candidate failed to prepare.
    pub fn measure_node(
        &self,
        backend: &dyn Backend,
        node: &Node,
        graph: &Graph,
        signature: &OpSignature,
        candidates: &[ConvScheme],
        threads: usize,
    ) -> Result<(TuneEntry, Box<dyn Execution>), TuneError> {
        let shape_of = |id: Option<&TensorId>| {
            id.and_then(|id| graph.tensor_info(*id).ok())
                .and_then(|info| info.shape.clone())
                .ok_or_else(|| TuneError::MissingShape(node.name.clone()))
        };
        let input = deterministic_input(shape_of(node.inputs.first())?);
        let mut output = vec![0.0f32; shape_of(node.outputs.first())?.num_elements()];
        let mut scratch = Scratch::default();

        let mut measurements = Vec::with_capacity(candidates.len());
        let mut best: Option<(f64, ConvScheme, Box<dyn Execution>)> = None;
        for &scheme in candidates {
            let hint = SchemeHint {
                conv_scheme: Some(scheme),
                threads: Some(threads),
            };
            let Ok(mut execution) = backend.on_create(node, graph, &hint) else {
                continue;
            };
            scratch.grow(execution.scratch(&[input.shape()]));
            // Validation run: an inapplicable candidate fails here, outside
            // the timed region.
            let mut run = || execution.run(&[input.view()], &mut output, &mut scratch);
            if run().is_err() {
                continue;
            }
            let ms = self.timer.time_candidate(signature, scheme, &mut || {
                let _ = run();
            });
            self.cache
                .inner
                .measured_candidates
                .fetch_add(1, Ordering::Relaxed);
            mnn_obs::global()
                .counter(
                    mnn_obs::metrics::names::TUNE_MEASURED,
                    "Candidate kernels micro-benchmarked by the tuner.",
                )
                .inc();
            measurements.push(CandidateMeasurement {
                scheme: scheme.to_string(),
                measured_ms: ms,
            });
            if best.as_ref().map(|(b, _, _)| ms < *b).unwrap_or(true) {
                best = Some((ms, scheme, execution));
            }
        }
        let (measured_ms, scheme, execution) =
            best.ok_or_else(|| TuneError::NoCandidates(node.name.clone()))?;
        let entry = TuneEntry {
            scheme: scheme.to_string(),
            measured_ms,
            candidates: measurements,
        };
        self.cache.insert(signature, entry.clone());
        self.cache.inner.tuned_nodes.fetch_add(1, Ordering::Relaxed);
        Ok((entry, execution))
    }
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner").field("cache", &self.cache).finish()
    }
}

/// Deterministic pseudo-random activation data (fixed LCG seed) so
/// measurements do not depend on uninitialized or all-zero inputs, and repeat
/// runs see identical data.
fn deterministic_input(shape: Shape) -> Tensor {
    let len = shape.num_elements();
    let mut state = 0x2545F491_4F6CDD1Du64;
    let data = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::FakeTimer;
    use mnn_backend::CpuBackend;
    use mnn_graph::{Conv2dAttrs, GraphBuilder};

    fn conv_graph() -> Graph {
        let mut b = GraphBuilder::new("tuner");
        let x = b.input("x", Shape::nchw(1, 3, 12, 12));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 8), true);
        let mut g = b.build(vec![y]);
        g.infer_shapes().unwrap();
        g
    }

    fn fingerprint() -> DeviceFingerprint {
        DeviceFingerprint::detect(1, &CpuBackend::new(1).descriptor())
    }

    fn candidates() -> Vec<ConvScheme> {
        ConvScheme::float_conv_pool(&Conv2dAttrs::same_3x3(3, 8).to_conv_params(), 4)
    }

    #[test]
    fn fake_timer_yields_a_deterministic_stable_plan() {
        let g = conv_graph();
        let backend = CpuBackend::new(1);
        let sig = OpSignature::for_node(&g.nodes()[0], &g).unwrap();
        let timer = Arc::new(FakeTimer::preferring(&["winograd-F(2x2)", "im2col"]));
        let mut entries = Vec::new();
        for _ in 0..3 {
            let cache = SharedTuneCache::open(fingerprint(), None);
            let tuner = Tuner::with_timer(cache, timer.clone());
            let (entry, _) = tuner
                .measure_node(&backend, &g.nodes()[0], &g, &sig, &candidates(), 1)
                .unwrap();
            entries.push(entry);
        }
        assert_eq!(entries[0].scheme, "winograd-F(2x2)");
        assert_eq!(entries[0], entries[1]);
        assert_eq!(entries[1], entries[2]);
    }

    #[test]
    fn measurements_populate_the_cache_and_counters() {
        let g = conv_graph();
        let backend = CpuBackend::new(1);
        let sig = OpSignature::for_node(&g.nodes()[0], &g).unwrap();
        let cache = SharedTuneCache::open(fingerprint(), None);
        let tuner = Tuner::with_timer(cache.clone(), Arc::new(FakeTimer::preferring(&["im2col"])));
        assert!(tuner.lookup(&sig).is_none());
        let pool = candidates();
        tuner
            .measure_node(&backend, &g.nodes()[0], &g, &sig, &pool, 1)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.tuned_nodes, 1);
        assert_eq!(stats.measured_candidates, pool.len() as u64);
        assert_eq!(stats.cache_misses, 1);
        // Second lookup is a hit and needs no measurement.
        let entry = tuner.lookup(&sig).unwrap();
        assert_eq!(entry.scheme, "im2col");
        assert_eq!(cache.stats().cache_hits, 1);
    }

    #[test]
    fn wall_timer_measurement_picks_a_real_candidate() {
        let g = conv_graph();
        let backend = CpuBackend::new(1);
        let sig = OpSignature::for_node(&g.nodes()[0], &g).unwrap();
        let tuner = Tuner::new(SharedTuneCache::open(fingerprint(), None));
        let pool = candidates();
        let (entry, execution) = tuner
            .measure_node(&backend, &g.nodes()[0], &g, &sig, &pool, 1)
            .unwrap();
        assert!(entry.measured_ms.is_finite() && entry.measured_ms >= 0.0);
        assert!(ConvScheme::parse(&entry.scheme).is_some());
        assert_eq!(entry.candidates.len(), pool.len());
        // The returned execution is the prepared winner, ready to run.
        assert!(execution.describe().contains("conv"));
    }

    #[test]
    fn shared_cache_registry_deduplicates_by_fingerprint_and_path() {
        clear_process_caches();
        let a = shared_cache(fingerprint(), None);
        let b = shared_cache(fingerprint(), None);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        let other = std::env::temp_dir().join(format!(
            "mnn-tune-registry-test-{}.json",
            std::process::id()
        ));
        let c = shared_cache(fingerprint(), Some(other.clone()));
        assert!(!Arc::ptr_eq(&a.inner, &c.inner));
        clear_process_caches();
        let d = shared_cache(fingerprint(), None);
        assert!(!Arc::ptr_eq(&a.inner, &d.inner));
        let _ = std::fs::remove_file(other);
    }

    #[test]
    fn persist_round_trips_through_the_registry() {
        let path =
            std::env::temp_dir().join(format!("mnn-tune-persist-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = SharedTuneCache::open(fingerprint(), Some(path.clone()));
        assert!(!cache.persist().unwrap(), "clean cache must not write");
        cache.insert(
            &OpSignature::from_key("conv:x"),
            TuneEntry {
                scheme: "im2col".into(),
                measured_ms: 0.5,
                candidates: vec![],
            },
        );
        assert!(cache.persist().unwrap());
        assert!(!cache.persist().unwrap(), "second persist is a no-op");
        // A fresh open warm-starts from the file.
        let warm = SharedTuneCache::open(fingerprint(), Some(path.clone()));
        assert!(warm.stats().loaded_from_disk);
        assert!(warm.lookup(&OpSignature::from_key("conv:x")).is_some());
        let _ = std::fs::remove_file(&path);
    }
}
