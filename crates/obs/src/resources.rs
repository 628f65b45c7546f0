//! Process-wide resource accounting: who holds how many resident bytes.
//!
//! The serving stack plans memory carefully (arenas with live-range reuse,
//! pooled sessions) but historically could not
//! *report* any of it. This module is the ledger: every subsystem that holds
//! a non-trivial allocation registers an [`AccountedBytes`] handle under a
//! `(scope, component)` key — scope is usually a model name, component names
//! the allocation class (`"arena"`, `"constants"`, `"tune_cache"`) — and
//! charges/releases bytes as allocations come and go.
//!
//! The hot path is deliberately minimal: [`AccountedBytes::add`] and
//! [`AccountedBytes::sub`] are **one relaxed atomic op each** (the bound the
//! `resources_overhead` bench asserts). All roll-ups — per-scope totals, the
//! process-wide total, the `/metrics` gauges — happen at snapshot/render
//! time, off the allocation path.
//!
//! OS-level ground truth ([`os_stats`]: RSS and thread count from
//! `/proc/self/status`) rides along so operators can compare what the engine
//! *accounts for* against what the kernel *charges* the process.
//!
//! ```
//! let arena = mnn_obs::resources::account("doc-model", "arena");
//! arena.add(4096);
//! let snap = mnn_obs::resources::snapshot();
//! let scope = snap.scopes.iter().find(|s| s.scope == "doc-model").unwrap();
//! assert!(scope.resident_bytes >= 4096);
//! arena.sub(4096);
//! ```

use crate::metrics::{names, Registry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A cheaply-clonable handle to one `(scope, component)` byte account.
///
/// Clones share the same underlying cell; registering the same key twice
/// returns the same account, so independent holders (e.g. every session in a
/// pool) accumulate into one figure.
#[derive(Debug, Clone)]
pub struct AccountedBytes {
    bytes: Arc<AtomicU64>,
}

impl AccountedBytes {
    /// A detached account not registered anywhere — for callers that want the
    /// charge/release discipline without appearing in snapshots (tests,
    /// accounting disabled).
    pub fn detached() -> Self {
        AccountedBytes {
            bytes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Charge `bytes` to this account. One relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Release `bytes` from this account, saturating at zero. Callers should
    /// release only what they charged, but a mismatched release must show up
    /// as an account stuck at zero — not as a wrapped ~1.8e19-byte gauge
    /// poisoning every snapshot.
    #[inline]
    pub fn sub(&self, bytes: u64) {
        let _ = self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                Some(current.saturating_sub(bytes))
            });
    }

    /// Overwrite the account with an absolute figure (for holders that
    /// re-measure rather than track deltas, e.g. the tune cache).
    #[inline]
    pub fn set(&self, bytes: u64) {
        self.bytes.store(bytes, Ordering::Relaxed);
    }

    /// Current balance.
    pub fn get(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The ledger's backing map: `(scope, component) → bytes`.
type LedgerMap = BTreeMap<(String, String), Arc<AtomicU64>>;

/// The ledger: locked only at registration and snapshot time, never on the
/// charge/release path.
fn ledger() -> MutexGuard<'static, LedgerMap> {
    static LEDGER: OnceLock<Mutex<LedgerMap>> = OnceLock::new();
    LEDGER
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Register (or look up) the account for `(scope, component)`.
///
/// `scope` is usually a model name; `component` the allocation class
/// (`"arena"`, `"constants"`, `"tune_cache"`, ...). The same key always
/// returns a handle to the same cell.
pub fn account(scope: &str, component: &str) -> AccountedBytes {
    let cell = ledger()
        .entry((scope.to_string(), component.to_string()))
        .or_insert_with(|| Arc::new(AtomicU64::new(0)))
        .clone();
    AccountedBytes { bytes: cell }
}

/// One component's balance within a scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentBytes {
    /// Allocation class (`"arena"`, `"constants"`, ...).
    pub component: String,
    /// Resident bytes currently charged.
    pub bytes: u64,
}

/// Everything accounted under one scope (usually: one model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeResources {
    /// The scope name.
    pub scope: String,
    /// Sum over all components.
    pub resident_bytes: u64,
    /// Per-component breakdown, sorted by component name.
    pub components: Vec<ComponentBytes>,
}

/// OS-level process figures, read from `/proc/self/status` (zeros on
/// platforms without procfs or when the read fails — never an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OsStats {
    /// Resident set size, bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// Thread count (`Threads`).
    pub threads: u64,
}

/// A point-in-time roll-up of the whole ledger plus OS ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSnapshot {
    /// Sum of every account: bytes the engine knows it holds.
    pub accounted_bytes: u64,
    /// Per-scope breakdown, sorted by scope name.
    pub scopes: Vec<ScopeResources>,
    /// Kernel-reported process figures.
    pub os: OsStats,
}

/// Snapshot the full ledger (cold path: takes the ledger lock once).
pub fn snapshot() -> ResourceSnapshot {
    let mut scopes: BTreeMap<String, ScopeResources> = BTreeMap::new();
    for ((scope, component), cell) in ledger().iter() {
        let bytes = cell.load(Ordering::Relaxed);
        let entry = scopes
            .entry(scope.clone())
            .or_insert_with(|| ScopeResources {
                scope: scope.clone(),
                resident_bytes: 0,
                components: Vec::new(),
            });
        entry.resident_bytes += bytes;
        entry.components.push(ComponentBytes {
            component: component.clone(),
            bytes,
        });
    }
    let scopes: Vec<ScopeResources> = scopes.into_values().collect();
    let accounted_bytes = scopes.iter().map(|s| s.resident_bytes).sum();
    ResourceSnapshot {
        accounted_bytes,
        scopes,
        os: os_stats(),
    }
}

/// Snapshot one scope's accounts (empty components when nothing was ever
/// registered under `scope`).
pub fn scope_snapshot(scope: &str) -> ScopeResources {
    let mut result = ScopeResources {
        scope: scope.to_string(),
        resident_bytes: 0,
        components: Vec::new(),
    };
    for ((s, component), cell) in ledger().iter() {
        if s != scope {
            continue;
        }
        let bytes = cell.load(Ordering::Relaxed);
        result.resident_bytes += bytes;
        result.components.push(ComponentBytes {
            component: component.clone(),
            bytes,
        });
    }
    result
}

/// Read RSS and thread count from `/proc/self/status`. Zeros when procfs is
/// absent (non-Linux) or unreadable — resource reporting must never fail a
/// serving process.
pub fn os_stats() -> OsStats {
    parse_proc_status(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

fn parse_proc_status(text: &str) -> OsStats {
    let mut stats = OsStats {
        rss_bytes: 0,
        threads: 0,
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            // "VmRSS:      123456 kB"
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            stats.rss_bytes = kb * 1024;
        } else if let Some(rest) = line.strip_prefix("Threads:") {
            stats.threads = rest.trim().parse().unwrap_or(0);
        }
    }
    stats
}

/// Compile-time build identity, for `mnn_build_info` and `/v1/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BuildInfo {
    /// Workspace version (`CARGO_PKG_VERSION`).
    pub version: &'static str,
    /// Build identifier: the `MNN_BUILD_ID` compile-time env var when the
    /// build system stamps one (CI passes a commit-ish), else `"dev"`.
    pub build_id: &'static str,
    /// The kernel backend SIMD dispatch resolved to on this host
    /// (`"scalar"`, `"avx2fma"`, `"neon"`).
    pub kernel_backend: &'static str,
}

/// This process's build identity. The kernel backend is resolved once via
/// [`mnn_kernels::simd::KernelBackend::active`] and reflects the `MNN_SIMD`
/// policy override.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION"),
        build_id: option_env!("MNN_BUILD_ID").unwrap_or("dev"),
        kernel_backend: mnn_kernels::simd::active_kernel_set(),
    }
}

/// Publish the ledger and OS figures as gauges into `registry`:
/// `mnn_resident_bytes{scope,component}`, `mnn_resident_bytes_total`,
/// `mnn_process_rss_bytes`, `mnn_process_threads`, and the constant
/// `mnn_build_info{version,build_id,kernel_backend} 1`.
///
/// Called by [`crate::metrics::render_global`] before every render, so
/// `/metrics` always shows current balances without any subsystem pushing.
pub fn publish_gauges(registry: &Registry) {
    let info = build_info();
    registry
        .gauge_with(
            names::BUILD_INFO,
            "Constant 1, labeled with this process's build identity.",
            &[
                ("version", info.version),
                ("build_id", info.build_id),
                ("kernel_backend", info.kernel_backend),
            ],
        )
        .set(1.0);
    let os = os_stats();
    registry
        .gauge(
            names::PROCESS_RSS_BYTES,
            "Kernel-reported resident set size of this process, bytes.",
        )
        .set(os.rss_bytes as f64);
    registry
        .gauge(
            names::PROCESS_THREADS,
            "Kernel-reported thread count of this process.",
        )
        .set(os.threads as f64);
    let mut total = 0u64;
    for ((scope, component), cell) in ledger().iter() {
        let bytes = cell.load(Ordering::Relaxed);
        total += bytes;
        registry
            .gauge_with(
                names::RESIDENT_BYTES,
                "Engine-accounted resident bytes, by scope (model) and component.",
                &[("scope", scope), ("component", component)],
            )
            .set(bytes as f64);
    }
    registry
        .gauge(
            names::RESIDENT_BYTES_TOTAL,
            "Sum of all engine-accounted resident bytes.",
        )
        .set(total as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_roll_up_per_scope_and_process_wide() {
        let arena = account("res-test-model-a", "arena");
        let constants = account("res-test-model-a", "constants");
        let other = account("res-test-model-b", "arena");
        arena.add(1000);
        constants.add(200);
        other.add(50);

        let scope = scope_snapshot("res-test-model-a");
        assert_eq!(scope.resident_bytes, 1200);
        assert_eq!(scope.components.len(), 2);

        let snap = snapshot();
        let a = snap
            .scopes
            .iter()
            .find(|s| s.scope == "res-test-model-a")
            .unwrap();
        assert_eq!(a.resident_bytes, 1200);
        assert!(snap.accounted_bytes >= 1250);

        // Release everything: the scope reads zero again (other tests in this
        // process share the ledger, so only check our own keys).
        arena.sub(1000);
        constants.sub(200);
        other.sub(50);
        assert_eq!(scope_snapshot("res-test-model-a").resident_bytes, 0);
    }

    #[test]
    fn same_key_shares_one_cell() {
        let first = account("res-test-shared", "arena");
        let second = account("res-test-shared", "arena");
        first.add(64);
        assert_eq!(second.get(), 64);
        second.sub(64);
        assert_eq!(first.get(), 0);
    }

    #[test]
    fn over_release_saturates_at_zero() {
        let cell = account("res-test-saturate", "arena");
        cell.add(10);
        cell.sub(25);
        assert_eq!(cell.get(), 0);
        // The account stays usable after the mismatched release.
        cell.add(7);
        assert_eq!(cell.get(), 7);
        cell.set(0);
    }

    #[test]
    fn proc_status_parsing_reads_rss_and_threads() {
        let parsed = parse_proc_status("Name:\tmnn\nVmRSS:\t  123456 kB\nThreads:\t17\n");
        assert_eq!(parsed.rss_bytes, 123456 * 1024);
        assert_eq!(parsed.threads, 17);
        // Garbage degrades to zeros, never an error.
        let empty = parse_proc_status("VmRSS: weird\n");
        assert_eq!(empty.rss_bytes, 0);
    }

    #[test]
    fn os_stats_reports_live_figures_on_linux() {
        let os = os_stats();
        if cfg!(target_os = "linux") {
            assert!(os.rss_bytes > 0, "a running test process has RSS");
            assert!(os.threads >= 1);
        }
    }

    #[test]
    fn build_info_names_a_kernel_backend() {
        let info = build_info();
        assert!(!info.version.is_empty());
        assert!(["scalar", "avx2fma", "neon"].contains(&info.kernel_backend));
    }

    #[test]
    fn publish_gauges_exports_ledger_and_os_figures() {
        let registry = Registry::new();
        account("res-test-publish", "constants").add(4096);
        publish_gauges(&registry);
        let text = registry.render_prometheus();
        assert!(
            text.contains(
                "mnn_resident_bytes{scope=\"res-test-publish\",component=\"constants\"} 4096"
            ),
            "{text}"
        );
        assert!(text.contains("mnn_build_info{"), "{text}");
        assert!(text.contains("mnn_process_threads"), "{text}");
        account("res-test-publish", "constants").sub(4096);
    }
}
