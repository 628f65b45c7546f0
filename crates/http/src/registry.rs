//! Multi-model registry: one [`mnn_serve::Server`] per registered model.
//!
//! The registry is the serving frontend's model table. Models come from a
//! [`ModelManifest`], a directory scan of
//! `.mnnr` files, or the built-in zoo; each gets its own serving runtime
//! (worker threads, micro-batcher, bounded queue) built from one shared
//! [`ServeOptions`].

use crate::codec::ModelSummary;
use crate::error::HttpError;
use mnn_converter::{ModelFile, ModelManifest};
use mnn_core::SessionConfig;
use mnn_models::ModelKind;
use mnn_obs::{Profiler, SloConfig};
use mnn_serve::{DrainReport, Server};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving-runtime settings applied to every registered model.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads per model (default 2).
    pub workers: usize,
    /// Micro-batch size cap per model (default 8).
    pub max_batch: usize,
    /// Batching window (default 1 ms).
    pub batch_window: Duration,
    /// Bounded queue capacity per model; `None` uses the serve default.
    pub queue_capacity: Option<usize>,
    /// Session configuration (threads, tuning mode, tune-cache path).
    pub session: SessionConfig,
    /// Attach a per-model runtime [`Profiler`] to every session, exposed at
    /// `GET /v1/models/{name}/profile` (default off).
    pub profiling: bool,
    /// Watchdog deadline for each model's workers; `None` uses the serve
    /// default (30 s). A non-idle worker silent past the deadline is flagged
    /// stalled, which fails `/readyz` and surfaces in `/v1/status`.
    pub watchdog_deadline: Option<Duration>,
    /// Latency/availability objective tracked per model and reported in
    /// `/v1/status` and `/v1/models/{name}/stats` (default none).
    pub slo: Option<SloConfig>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            max_batch: 8,
            batch_window: Duration::from_millis(1),
            queue_capacity: None,
            session: SessionConfig::default(),
            profiling: false,
            watchdog_deadline: None,
            slo: None,
        }
    }
}

/// One registered model: its serving runtime plus wire-level metadata.
pub struct ModelEntry {
    /// The model's serving runtime.
    pub server: Server,
    /// Format version of the model file the entry was loaded from.
    pub format_version: u32,
    /// Bytes of constant (weight) data in the graph.
    pub constant_bytes: u64,
    /// Whether the graph contains quantized (int8) operators.
    pub quantized: bool,
    /// Graph input names, in declaration order.
    pub inputs: Vec<String>,
    /// Graph output names, in declaration order.
    pub outputs: Vec<String>,
    /// Per-model runtime profiler, present when the entry was registered with
    /// [`ServeOptions::profiling`] enabled.
    pub profiler: Option<Arc<Profiler>>,
    /// Ledger account holding the model's constant (weight) bytes under
    /// `(model name, "constants")`; zeroed when the entry is dropped. A
    /// separate guard (not `Drop` on the entry itself) so drain can still
    /// move the server out.
    #[allow(dead_code)] // held for its Drop
    constants_account: ConstantsGuard,
}

/// Owns a model's `"constants"` ledger component and releases it on drop:
/// unloading the model releases the weights.
struct ConstantsGuard(mnn_obs::AccountedBytes);

impl Drop for ConstantsGuard {
    fn drop(&mut self) {
        self.0.set(0);
    }
}

/// Name-keyed table of serving runtimes (see the [module docs](self)).
#[derive(Default)]
pub struct ModelRegistry {
    entries: BTreeMap<String, ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `model` under `name`, building its serving runtime (session
    /// pre-warm included — this is the expensive step).
    ///
    /// # Errors
    ///
    /// Fails on duplicate names and on graphs the serving runtime rejects.
    pub fn register_model(
        &mut self,
        name: impl Into<String>,
        model: ModelFile,
        options: &ServeOptions,
    ) -> Result<(), HttpError> {
        let name = name.into();
        if name.is_empty() {
            return Err(HttpError::Model("model name must not be empty".into()));
        }
        if self.entries.contains_key(&name) {
            return Err(HttpError::Model(format!(
                "model '{name}' is already registered"
            )));
        }
        let graph = &model.graph;
        let quantized = graph.nodes().iter().any(|n| n.op.is_quantized());
        let constant_bytes = graph.constant_bytes() as u64;
        let inputs: Vec<String> = graph.input_names().iter().map(|s| s.to_string()).collect();
        let outputs: Vec<String> = graph.output_names().iter().map(|s| s.to_string()).collect();

        let profiler = if options.profiling {
            let profiler = Arc::new(Profiler::new());
            profiler.set_enabled(true);
            Some(profiler)
        } else {
            None
        };
        let mut session = options.session.clone();
        if let Some(profiler) = &profiler {
            session.profiler = Some(Arc::clone(profiler));
        }
        // Sessions account their arenas and plan caches under the registry
        // name, so `/v1/status` attributes memory to the model a client
        // addresses (several entries may share one graph name).
        session.resource_scope = Some(name.clone());

        let mut builder = Server::builder()
            .workers(options.workers)
            .max_batch(options.max_batch)
            .batch_window(options.batch_window)
            .session_config(session);
        if let Some(capacity) = options.queue_capacity {
            builder = builder.queue_capacity(capacity);
        }
        if let Some(deadline) = options.watchdog_deadline {
            builder = builder.watchdog_deadline(deadline);
        }
        if let Some(slo) = options.slo {
            builder = builder.slo(slo);
        }
        let server = builder
            .build(model.graph)
            .map_err(|e| HttpError::Model(format!("model '{name}': {e}")))?;

        let constants_account = mnn_obs::resources::account(&name, "constants");
        constants_account.set(constant_bytes);

        self.entries.insert(
            name,
            ModelEntry {
                server,
                format_version: model.version,
                constant_bytes,
                quantized,
                inputs,
                outputs,
                profiler,
                constants_account: ConstantsGuard(constants_account),
            },
        );
        Ok(())
    }

    /// Register a zoo model under its canonical lowercase name (e.g.
    /// `tiny-cnn`), built at batch 1 and the given input resolution.
    ///
    /// # Errors
    ///
    /// Fails like [`ModelRegistry::register_model`].
    pub fn register_zoo(
        &mut self,
        kind: ModelKind,
        input_size: usize,
        options: &ServeOptions,
    ) -> Result<(), HttpError> {
        let graph = mnn_models::build(kind, 1, input_size);
        let name = kind.name().to_ascii_lowercase();
        self.register_model(name, ModelFile::new(graph), options)
    }

    /// Register every `.mnnr` file in `dir`, named by file stem, in sorted
    /// order.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, unreadable model files and duplicate names.
    pub fn load_dir(
        &mut self,
        dir: impl AsRef<Path>,
        options: &ServeOptions,
    ) -> Result<usize, HttpError> {
        let dir = dir.as_ref();
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "mnnr"))
            .collect();
        paths.sort();
        let mut loaded = 0;
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|stem| stem.to_str())
                .ok_or_else(|| {
                    HttpError::Model(format!("non-UTF-8 model filename {}", path.display()))
                })?
                .to_string();
            let model = ModelFile::load(&path)
                .map_err(|e| HttpError::Model(format!("{}: {e}", path.display())))?;
            self.register_model(name, model, options)?;
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Register every model a manifest file names, resolving relative paths
    /// against the manifest's directory.
    ///
    /// # Errors
    ///
    /// Fails on manifest or model-file errors and duplicate names.
    pub fn load_manifest(
        &mut self,
        manifest_path: impl AsRef<Path>,
        options: &ServeOptions,
    ) -> Result<usize, HttpError> {
        let manifest_path = manifest_path.as_ref();
        let manifest = ModelManifest::load(manifest_path)
            .map_err(|e| HttpError::Model(format!("{}: {e}", manifest_path.display())))?;
        let base = manifest_path.parent().unwrap_or(Path::new("."));
        let models = manifest
            .load_models(base)
            .map_err(|e| HttpError::Model(e.to_string()))?;
        let count = models.len();
        for (name, model) in models {
            self.register_model(name, model, options)?;
        }
        Ok(count)
    }

    /// Look up a model by registry name.
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.entries.get(name)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(|k| k.as_str()).collect()
    }

    /// Iterate `(name, entry)` pairs in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &ModelEntry)> {
        self.entries
            .iter()
            .map(|(name, entry)| (name.as_str(), entry))
    }

    /// Wire-level summaries for `GET /v1/models`, in name order.
    pub fn summaries(&self) -> Vec<ModelSummary> {
        self.entries
            .iter()
            .map(|(name, entry)| ModelSummary {
                name: name.clone(),
                format_version: entry.format_version,
                constant_bytes: entry.constant_bytes,
                quantized: entry.quantized,
                inputs: entry.inputs.clone(),
                outputs: entry.outputs.clone(),
            })
            .collect()
    }

    /// Drain every model's serving runtime, splitting `deadline` across the
    /// models by remaining time. Consumes the registry: after this no model
    /// accepts work.
    pub fn drain_with_deadline(self, deadline: Duration) -> Vec<(String, DrainReport)> {
        let deadline_at = Instant::now() + deadline;
        self.entries
            .into_iter()
            .map(|(name, entry)| {
                let remaining = deadline_at.saturating_duration_since(Instant::now());
                let report = entry.server.shutdown_with_deadline(remaining);
                (name, report)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_tensor::Tensor;

    fn tiny_options() -> ServeOptions {
        ServeOptions {
            workers: 1,
            max_batch: 1,
            session: SessionConfig::cpu(1),
            ..ServeOptions::default()
        }
    }

    #[test]
    fn zoo_registration_serves_inference() {
        let mut registry = ModelRegistry::new();
        registry
            .register_zoo(ModelKind::TinyCnn, 16, &tiny_options())
            .unwrap();
        assert_eq!(registry.names(), ["tiny-cnn"]);

        let entry = registry.get("tiny-cnn").unwrap();
        assert!(!entry.quantized);
        assert!(entry.constant_bytes > 0);
        assert_eq!(entry.inputs.len(), 1);

        let input = Tensor::zeros(mnn_tensor::Shape::nchw(1, 3, 16, 16));
        let outputs = entry
            .server
            .infer(&[(entry.inputs[0].as_str(), &input)])
            .unwrap();
        assert_eq!(outputs.len(), 1);

        let reports = registry.drain_with_deadline(Duration::from_secs(5));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].1.drained);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut registry = ModelRegistry::new();
        registry
            .register_zoo(ModelKind::TinyCnn, 16, &tiny_options())
            .unwrap();
        let err = registry
            .register_zoo(ModelKind::TinyCnn, 16, &tiny_options())
            .unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
        registry.drain_with_deadline(Duration::from_secs(5));
    }

    #[test]
    fn directory_loading_registers_by_file_stem() {
        let dir = std::env::temp_dir().join(format!("mnn-http-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = mnn_models::build(ModelKind::TinyCnn, 1, 16);
        ModelFile::new(graph).save(dir.join("tiny.mnnr")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let mut registry = ModelRegistry::new();
        let loaded = registry.load_dir(&dir, &tiny_options()).unwrap();
        assert_eq!(loaded, 1);
        assert_eq!(registry.names(), ["tiny"]);
        registry.drain_with_deadline(Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(dir);
    }
}
