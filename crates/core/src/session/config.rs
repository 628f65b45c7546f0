//! Session configuration and its builder.

use crate::scheme::CostModel;
use mnn_backend::{ForwardType, GpuProfile};
use mnn_obs::Profiler;
use mnn_tune::TuningMode;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a session, chosen by the application developer.
///
/// Construct one with [`SessionConfig::builder`] (preferred — new knobs never
/// break builder call sites), with the [`SessionConfig::cpu`] /
/// [`SessionConfig::gpu`] shorthands, or by filling fields over
/// [`SessionConfig::default`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Backend preference list. The CPU is always available as the universal
    /// fallback even if it is not listed.
    pub forward_types: Vec<ForwardType>,
    /// CPU thread count (the paper evaluates 2 and 4 threads).
    pub threads: usize,
    /// Whether preparation (execution creation, weight transforms, GPU command
    /// encoding) is decoupled from execution. Disabling this reproduces the "w/o"
    /// rows of Table 2.
    pub decouple_preparation: bool,
    /// Largest Winograd output tile size considered by scheme selection.
    pub max_winograd_tile: usize,
    /// GPU profile used by simulated GPU backends.
    pub gpu_profile: GpuProfile,
    /// Upper bound on pre-inference plans cached per session (one entry per
    /// input-shape signature, excluding the active plan). `0` disables the
    /// cache entirely: every geometry change re-plans from scratch. Servers
    /// that alternate between many batch sizes should size this at least
    /// `max_batch + 1`.
    pub plan_cache_capacity: usize,
    /// How convolution schemes are resolved: pure cost model
    /// ([`TuningMode::Off`], the default), cached measurements only
    /// ([`TuningMode::Cached`]), or measure-on-miss ([`TuningMode::Full`]).
    pub tuning: TuningMode,
    /// Where the device-keyed tuning cache persists. `None` falls back to the
    /// `MNN_TUNE_CACHE` environment variable; if that is unset too, tuning
    /// results are shared in-process only.
    pub tune_cache_path: Option<PathBuf>,
    /// Constants of the scheme cost model (overridable for reproducible tests
    /// or re-calibrated devices; see `mnn_tune::calibrate`).
    pub cost_model: CostModel,
    /// Per-op runtime profiler the session records execution spans into
    /// (`None`, the default, skips all timestamping). Share one `Arc` across
    /// the sessions of a pool to profile a whole server.
    pub profiler: Option<Arc<Profiler>>,
    /// Scope (usually: model name) the session's arena and plan-cache bytes
    /// are charged to in the `mnn_obs::resources` ledger. `None` charges
    /// under the graph's name. Servers set this to the registry name so
    /// `/v1/status` rolls every pooled session up per model.
    pub resource_scope: Option<String>,
    /// Whether this session charges its memory to the `mnn_obs::resources`
    /// ledger at all (default `true`; the accounting-overhead bench turns it
    /// off for its baseline arm).
    pub account_resources: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            forward_types: vec![ForwardType::Cpu],
            threads: mnn_kernels::parallel::default_threads(),
            decouple_preparation: true,
            max_winograd_tile: crate::scheme::MAX_WINOGRAD_TILE,
            gpu_profile: GpuProfile::GENERIC,
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            tuning: TuningMode::Off,
            tune_cache_path: None,
            cost_model: CostModel::default(),
            profiler: None,
            resource_scope: None,
            account_resources: true,
        }
    }
}

/// Default number of cached pre-inference plans per session.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 8;

impl SessionConfig {
    /// Start building a configuration:
    /// `SessionConfig::builder().threads(4).forward(ForwardType::Cpu).build()`.
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder {
            forward_types: Vec::new(),
            config: SessionConfig::default(),
        }
    }

    /// CPU-only configuration with an explicit thread count.
    pub fn cpu(threads: usize) -> Self {
        SessionConfig {
            threads,
            ..SessionConfig::default()
        }
    }

    /// Configuration preferring a (simulated) GPU backend with the given profile.
    pub fn gpu(standard: ForwardType, profile: GpuProfile) -> Self {
        SessionConfig {
            forward_types: vec![standard, ForwardType::Cpu],
            gpu_profile: profile,
            ..SessionConfig::default()
        }
    }
}

/// Builder for [`SessionConfig`], so future knobs extend the API without breaking
/// existing constructor calls.
#[derive(Debug, Clone)]
pub struct SessionConfigBuilder {
    /// Forward types accumulated by [`SessionConfigBuilder::forward`]; empty means
    /// "CPU only".
    forward_types: Vec<ForwardType>,
    config: SessionConfig,
}

impl SessionConfigBuilder {
    /// Append a backend to the preference list, most-preferred first. The CPU is
    /// always appended as the universal fallback, so listing it is optional.
    pub fn forward(mut self, forward_type: ForwardType) -> Self {
        self.forward_types.push(forward_type);
        self
    }

    /// Set the CPU thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enable/disable preparation–execution decoupling (Table 2's ablation).
    pub fn decouple_preparation(mut self, decouple: bool) -> Self {
        self.config.decouple_preparation = decouple;
        self
    }

    /// Bound the Winograd tile-size search of scheme selection.
    pub fn max_winograd_tile(mut self, tile: usize) -> Self {
        self.config.max_winograd_tile = tile;
        self
    }

    /// Set the GPU profile used by simulated GPU backends.
    pub fn gpu_profile(mut self, profile: GpuProfile) -> Self {
        self.config.gpu_profile = profile;
        self
    }

    /// Bound the per-session pre-inference plan cache (entries are whole plans,
    /// one per input-shape signature). `0` disables plan caching.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.plan_cache_capacity = capacity;
        self
    }

    /// Select the kernel auto-tuning mode (default [`TuningMode::Off`]).
    ///
    /// With [`TuningMode::Full`] session preparation micro-benchmarks every
    /// viable convolution scheme on the node's real geometry and keeps the
    /// fastest; results are shared in-process (one tuning pass per
    /// `SessionPool`) and persisted when a cache path is configured.
    pub fn tuning(mut self, mode: TuningMode) -> Self {
        self.config.tuning = mode;
        self
    }

    /// Persist the tuning cache at `path` (overrides the `MNN_TUNE_CACHE`
    /// environment variable). A warm file lets a fresh process prepare
    /// sessions with zero measurements.
    pub fn tune_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.tune_cache_path = Some(path.into());
        self
    }

    /// Override the scheme cost-model constants (e.g. with the output of
    /// `mnn_tune::calibrate`, or pinned values for reproducible tests).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.config.cost_model = model;
        self
    }

    /// Attach a per-op runtime profiler: every session run records one span
    /// per executed node into it (see `mnn_obs::Profiler`). Pass the same
    /// `Arc` to several sessions to aggregate across a pool; toggle
    /// collection at runtime with `Profiler::set_enabled`.
    pub fn profiling(mut self, profiler: Arc<Profiler>) -> Self {
        self.config.profiler = Some(profiler);
        self
    }

    /// Charge this session's arena and plan-cache bytes under `scope` in the
    /// `mnn_obs::resources` ledger instead of the graph's name.
    pub fn resource_scope(mut self, scope: impl Into<String>) -> Self {
        self.config.resource_scope = Some(scope.into());
        self
    }

    /// Enable/disable resource accounting for this session (default on).
    pub fn account_resources(mut self, account: bool) -> Self {
        self.config.account_resources = account;
        self
    }

    /// Finish building the configuration.
    pub fn build(mut self) -> SessionConfig {
        if !self.forward_types.is_empty() {
            self.config.forward_types = self.forward_types;
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_issue_example() {
        let config = SessionConfig::builder()
            .threads(4)
            .forward(ForwardType::Cpu)
            .build();
        assert_eq!(config.threads, 4);
        assert_eq!(config.forward_types, vec![ForwardType::Cpu]);
        assert!(config.decouple_preparation);
    }

    #[test]
    fn builder_defaults_to_cpu_when_no_forward_given() {
        let config = SessionConfig::builder().threads(2).build();
        assert_eq!(config.forward_types, vec![ForwardType::Cpu]);
    }

    #[test]
    fn builder_sets_tuning_knobs() {
        let config = SessionConfig::builder()
            .tuning(TuningMode::Full)
            .tune_cache_path("/tmp/tune.json")
            .cost_model(CostModel {
                int8_cost_factor: 0.5,
                ..CostModel::default()
            })
            .build();
        assert_eq!(config.tuning, TuningMode::Full);
        assert_eq!(
            config.tune_cache_path.as_deref(),
            Some(std::path::Path::new("/tmp/tune.json"))
        );
        assert_eq!(config.cost_model.int8_cost_factor, 0.5);
    }

    #[test]
    fn tuning_defaults_to_off() {
        let config = SessionConfig::default();
        assert_eq!(config.tuning, TuningMode::Off);
        assert!(config.tune_cache_path.is_none());
        assert_eq!(config.cost_model, CostModel::default());
    }

    #[test]
    fn builder_preserves_gpu_preference_order() {
        let config = SessionConfig::builder()
            .forward(ForwardType::Vulkan)
            .gpu_profile(GpuProfile::by_name("Mali-G72"))
            .build();
        assert_eq!(config.forward_types, vec![ForwardType::Vulkan]);
        assert_eq!(config.gpu_profile.name, "Mali-G72");
    }
}
