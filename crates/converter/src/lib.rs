//! Offline conversion for MNN-rs (paper Fig. 2, left half).
//!
//! The original MNN converter ingests TensorFlow / Caffe / ONNX models, applies
//! graph-level optimizations and writes a compact `.mnn` file. This reproduction
//! keeps the same pipeline over the `mnn-graph` IR:
//!
//! * [`format`](mod@format) — the serializable model container (`.mnnr` files, JSON-encoded via
//!   serde), the stand-in for the FlatBuffer-based `.mnn` format.
//! * [`optimizer`] — offline graph optimizations: Conv+BatchNorm folding,
//!   Conv+Activation fusion, constant folding of activation/scale chains, and
//!   dead-node elimination (the paper's "operator fusion, replacement" step).
//! * [`quantize`] — the model compressor: post-training symmetric int8 weight
//!   quantization with a size/error report.
//! * [`manifest`] — named multi-model manifests, the unit a serving registry
//!   (`mnn-http`) loads at startup.

#![deny(missing_docs)]

pub mod format;
pub mod manifest;
pub mod optimizer;
pub mod quantize;

pub use format::{ConverterError, ModelFile, MODEL_FORMAT_VERSION};
pub use manifest::{ManifestEntry, ModelManifest, MANIFEST_VERSION};
pub use optimizer::{optimize, OptimizerOptions, OptimizerReport};
pub use quantize::{quantize_weights, quantized_conv_candidates, QuantizationReport};
