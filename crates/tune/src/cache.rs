//! The tuning cache and its versioned on-disk format.
//!
//! Entries map a canonical [`OpSignature`] to the measured winner (plus every
//! candidate's timing, for reporting). The persisted form is a JSON document
//! carrying a format version and the [`DeviceFingerprint`] the measurements
//! were taken under; loading is deliberately forgiving — a missing, corrupt,
//! stale-versioned or foreign-device file is *ignored* (the engine re-tunes),
//! never an error that could take a serving process down.

use crate::fingerprint::DeviceFingerprint;
use crate::signature::OpSignature;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Version of the persisted tuning-cache format. Bump on any incompatible
/// change; readers ignore files written by other versions.
///
/// History: v1 had no `kernel_set` in the fingerprint; v2 adds it so a cache
/// tuned with SIMD kernels can never be installed by a scalar-only process
/// (and vice versa); v3 drops the `-simd` scheme keys (the fingerprint's
/// `kernel_set` alone names the instruction set), so a v2 timing of `im2col`
/// is of a kernel v3 does not run under that name.
pub const TUNE_CACHE_VERSION: u32 = 3;

/// One candidate's measured latency (scheme stored as its canonical
/// `ConvScheme` display string).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateMeasurement {
    /// Scheme key (e.g. `"winograd-F(4x4)"`).
    pub scheme: String,
    /// Best observed wall-clock milliseconds.
    pub measured_ms: f64,
}

/// The measured outcome for one operator signature: the winning scheme and the
/// full candidate table it was picked from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneEntry {
    /// Winning scheme key (fastest measured candidate).
    pub scheme: String,
    /// The winner's best observed milliseconds.
    pub measured_ms: f64,
    /// Every measured candidate, in enumeration order.
    pub candidates: Vec<CandidateMeasurement>,
}

/// In-memory tuning cache: operator signature → measured winner.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TuneCache {
    /// The entries, keyed by [`OpSignature::as_str`].
    pub entries: HashMap<String, TuneEntry>,
}

impl TuneCache {
    /// Look up the entry for `signature`.
    pub fn get(&self, signature: &OpSignature) -> Option<&TuneEntry> {
        self.entries.get(signature.as_str())
    }

    /// Insert (or replace) the entry for `signature`.
    pub fn insert(&mut self, signature: &OpSignature, entry: TuneEntry) {
        self.entries.insert(signature.as_str().to_string(), entry);
    }

    /// Number of tuned signatures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident bytes of the in-memory cache: key and scheme
    /// strings plus per-entry/per-candidate struct overhead. Used by the
    /// `mnn_obs::resources` ledger (`scope="tune", component="tune_cache"`);
    /// an estimate is fine there — the cache is re-measured after every
    /// insert, not tracked by deltas.
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<Self>() as u64;
        for (key, entry) in &self.entries {
            bytes += (key.len() + std::mem::size_of::<TuneEntry>() + entry.scheme.len()) as u64;
            for candidate in &entry.candidates {
                bytes +=
                    (std::mem::size_of::<CandidateMeasurement>() + candidate.scheme.len()) as u64;
            }
        }
        bytes
    }
}

/// The on-disk document: version + fingerprint + entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TuneCacheFile {
    version: u32,
    fingerprint: DeviceFingerprint,
    cache: TuneCache,
}

/// Why a persisted cache file was (or was not) usable.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLoad {
    /// The file matched: its entries are usable as-is.
    Loaded(TuneCache),
    /// No file exists at the path (first run): start empty.
    Missing,
    /// The file was written by a different format version: start empty.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The file was measured on a different device/configuration: start empty
    /// and re-tune.
    FingerprintMismatch {
        /// Fingerprint found in the file.
        found: Box<DeviceFingerprint>,
    },
    /// The file exists but could not be parsed: start empty.
    Corrupt(String),
}

impl CacheLoad {
    /// The usable cache: the loaded entries, or an empty cache for every
    /// non-`Loaded` outcome.
    pub fn into_cache(self) -> TuneCache {
        match self {
            CacheLoad::Loaded(cache) => cache,
            _ => TuneCache::default(),
        }
    }

    /// Whether entries were actually loaded.
    pub fn is_loaded(&self) -> bool {
        matches!(self, CacheLoad::Loaded(_))
    }
}

/// Read a persisted tuning cache, validating format version and device
/// fingerprint. Never panics and never returns an error: any unusable file
/// degrades to an empty cache with a diagnostic [`CacheLoad`] variant.
pub fn load_cache_file(path: &Path, expected: &DeviceFingerprint) -> CacheLoad {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLoad::Missing,
        Err(e) => return CacheLoad::Corrupt(format!("unreadable: {e}")),
    };
    let file: TuneCacheFile = match serde_json::from_str(&text) {
        Ok(file) => file,
        Err(e) => return CacheLoad::Corrupt(e.to_string()),
    };
    if file.version != TUNE_CACHE_VERSION {
        return CacheLoad::VersionMismatch {
            found: file.version,
        };
    }
    if &file.fingerprint != expected {
        return CacheLoad::FingerprintMismatch {
            found: Box::new(file.fingerprint),
        };
    }
    CacheLoad::Loaded(file.cache)
}

/// Atomically persist `cache` (write to a sibling temp file, then rename), so a
/// crash mid-write can corrupt at worst the temp file, never the cache itself.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, disk full, …).
pub fn save_cache_file(
    path: &Path,
    fingerprint: &DeviceFingerprint,
    cache: &TuneCache,
) -> io::Result<()> {
    let file = TuneCacheFile {
        version: TUNE_CACHE_VERSION,
        fingerprint: fingerprint.clone(),
        cache: cache.clone(),
    };
    let text = serde_json::to_string(&file)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_backend::{Backend, CpuBackend};
    use std::path::PathBuf;

    fn fingerprint(threads: usize) -> DeviceFingerprint {
        DeviceFingerprint::detect(threads, &CpuBackend::new(threads).descriptor())
    }

    fn sample_cache() -> TuneCache {
        let mut cache = TuneCache::default();
        cache.insert(
            &OpSignature::from_key("conv:demo"),
            TuneEntry {
                scheme: "winograd-F(4x4)".to_string(),
                measured_ms: 0.25,
                candidates: vec![
                    CandidateMeasurement {
                        scheme: "sliding-window".to_string(),
                        measured_ms: 1.0,
                    },
                    CandidateMeasurement {
                        scheme: "winograd-F(4x4)".to_string(),
                        measured_ms: 0.25,
                    },
                ],
            },
        );
        cache
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mnn-tune-cache-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn cache_file_round_trips() {
        let path = temp_path("roundtrip");
        let fp = fingerprint(2);
        let cache = sample_cache();
        save_cache_file(&path, &fp, &cache).unwrap();
        let loaded = load_cache_file(&path, &fp);
        assert!(loaded.is_loaded());
        assert_eq!(loaded.into_cache(), cache);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_reported_not_fatal() {
        let path = temp_path("missing-never-created");
        assert_eq!(load_cache_file(&path, &fingerprint(1)), CacheLoad::Missing);
    }

    #[test]
    fn version_bump_invalidates_the_file() {
        let path = temp_path("version");
        let fp = fingerprint(2);
        // A well-formed file written by a (hypothetical) future format version.
        let future = TUNE_CACHE_VERSION + 1;
        let text = format!(
            concat!(
                r#"{{"version": {future}, "#,
                r#""fingerprint": {{"arch": "{arch}", "cpu_features": "{feat}", "#,
                r#""threads": {threads}, "backend": "{backend}", "#,
                r#""kernel_set": "{kernel_set}"}}, "#,
                r#""cache": {{"entries": {{}}}}}}"#
            ),
            future = future,
            arch = fp.arch,
            feat = fp.cpu_features,
            threads = fp.threads,
            backend = fp.backend,
            kernel_set = fp.kernel_set,
        );
        std::fs::write(&path, text).unwrap();
        match load_cache_file(&path, &fp) {
            CacheLoad::VersionMismatch { found } => assert_eq!(found, future),
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_files_without_kernel_set_degrade_to_a_retune() {
        // A real v1 file: no kernel_set in the fingerprint, version 1. The
        // missing field makes the fingerprint unparseable, so the file is
        // reported corrupt and ignored — never loaded, never a panic.
        let path = temp_path("v1-legacy");
        let fp = fingerprint(2);
        let text = format!(
            concat!(
                r#"{{"version": 1, "#,
                r#""fingerprint": {{"arch": "{arch}", "cpu_features": "{feat}", "#,
                r#""threads": {threads}, "backend": "{backend}"}}, "#,
                r#""cache": {{"entries": {{}}}}}}"#
            ),
            arch = fp.arch,
            feat = fp.cpu_features,
            threads = fp.threads,
            backend = fp.backend,
        );
        std::fs::write(&path, text).unwrap();
        match load_cache_file(&path, &fp) {
            CacheLoad::Corrupt(_) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(load_cache_file(&path, &fp).into_cache().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v2_files_naming_simd_schemes_degrade_to_a_retune() {
        // A real v2 file from a vector host: right fingerprint, entries keyed
        // by schemes that no longer exist. It is another version: start
        // empty, re-tune — never an error, never a half-parsed plan.
        let path = temp_path("v2-simd-schemes");
        let fp = fingerprint(2);
        let text = format!(
            concat!(
                r#"{{"version": 2, "#,
                r#""fingerprint": {{"arch": "{arch}", "cpu_features": "{feat}", "#,
                r#""threads": {threads}, "backend": "{backend}", "#,
                r#""kernel_set": "{kernel_set}"}}, "#,
                r#""cache": {{"entries": {{"#,
                r#""conv:a": {{"scheme": "im2col-simd", "measured_ms": 0.1, "candidates": ["#,
                r#"{{"scheme": "im2col", "measured_ms": 0.3}}, "#,
                r#"{{"scheme": "im2col-simd", "measured_ms": 0.1}}]}}, "#,
                r#""conv:b": {{"scheme": "winograd-simd-F(4x4)", "measured_ms": 0.2, "#,
                r#""candidates": [{{"scheme": "winograd-simd-F(4x4)", "measured_ms": 0.2}}]}}"#,
                r#"}}}}}}"#
            ),
            arch = fp.arch,
            feat = fp.cpu_features,
            threads = fp.threads,
            backend = fp.backend,
            kernel_set = fp.kernel_set,
        );
        std::fs::write(&path, text).unwrap();
        assert_eq!(
            load_cache_file(&path, &fp),
            CacheLoad::VersionMismatch { found: 2 }
        );
        assert!(load_cache_file(&path, &fp).into_cache().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_kernel_set_forces_a_retune() {
        // A cache tuned on a SIMD host loaded by a process with a different
        // kernel set: the fingerprint mismatch must degrade it to an empty
        // cache, because its timings describe kernels this process won't run.
        let path = temp_path("kernel-set");
        let mut simd_host = fingerprint(2);
        simd_host.kernel_set = "avx2fma".to_string();
        let mut cache = TuneCache::default();
        cache.insert(
            &OpSignature::from_key("conv:simd-tuned"),
            TuneEntry {
                scheme: "im2col".to_string(),
                measured_ms: 0.1,
                candidates: vec![CandidateMeasurement {
                    scheme: "im2col".to_string(),
                    measured_ms: 0.1,
                }],
            },
        );
        save_cache_file(&path, &simd_host, &cache).unwrap();

        let mut scalar_host = simd_host.clone();
        scalar_host.kernel_set = "scalar".to_string();
        match load_cache_file(&path, &scalar_host) {
            CacheLoad::FingerprintMismatch { found } => {
                assert_eq!(found.kernel_set, "avx2fma");
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        assert!(load_cache_file(&path, &scalar_host).into_cache().is_empty());
        // The matching host still loads its own cache.
        assert!(load_cache_file(&path, &simd_host).is_loaded());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_ignored_not_a_panic() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ this is not json").unwrap();
        match load_cache_file(&path, &fingerprint(1)) {
            CacheLoad::Corrupt(_) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(load_cache_file(&path, &fingerprint(1))
            .into_cache()
            .is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_fingerprint_forces_a_retune() {
        let path = temp_path("fingerprint");
        save_cache_file(&path, &fingerprint(2), &sample_cache()).unwrap();
        match load_cache_file(&path, &fingerprint(4)) {
            CacheLoad::FingerprintMismatch { found } => assert_eq!(found.threads, 2),
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
