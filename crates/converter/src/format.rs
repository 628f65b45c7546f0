//! The serializable model format (the `.mnn` stand-in).

use mnn_graph::Graph;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// Version of the on-disk model format.
///
/// Version 2 added the quantized operator variants (`Conv2dQuantized`,
/// `FullyConnectedQuantized` with per-channel scales) and the `dtype` field on
/// tensor slots, so models quantized to real `i8` constants serialize losslessly.
pub const MODEL_FORMAT_VERSION: u32 = 2;

/// Errors produced when reading or writing model files.
#[derive(Debug)]
pub enum ConverterError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The payload could not be parsed.
    Parse(String),
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version supported by this build.
        supported: u32,
    },
}

impl fmt::Display for ConverterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConverterError::Io(e) => write!(f, "i/o error: {e}"),
            ConverterError::Parse(msg) => write!(f, "parse error: {msg}"),
            ConverterError::VersionMismatch { found, supported } => write!(
                f,
                "model format version {found} is not supported (this build reads version {supported})"
            ),
        }
    }
}

impl Error for ConverterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConverterError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ConverterError {
    fn from(value: std::io::Error) -> Self {
        ConverterError::Io(value)
    }
}

/// A model file: format metadata plus the full graph (structure and weights).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelFile {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Name of the producer (kept for provenance/debugging).
    pub producer: String,
    /// The computational graph, including constant tensors.
    pub graph: Graph,
}

impl ModelFile {
    /// Wrap a graph into a model file with the current format version.
    pub fn new(graph: Graph) -> Self {
        ModelFile {
            version: MODEL_FORMAT_VERSION,
            producer: format!("mnn-rs-converter/{}", env!("CARGO_PKG_VERSION")),
            graph,
        }
    }

    /// Serialize to bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::Parse`] if serialization fails (should not happen
    /// for well-formed graphs).
    pub fn to_bytes(&self) -> Result<Vec<u8>, ConverterError> {
        serde_json::to_vec(self).map_err(|e| ConverterError::Parse(e.to_string()))
    }

    /// Deserialize from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::Parse`] on malformed input and
    /// [`ConverterError::VersionMismatch`] for incompatible versions.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ConverterError> {
        let model: ModelFile =
            serde_json::from_slice(bytes).map_err(|e| ConverterError::Parse(e.to_string()))?;
        if model.version != MODEL_FORMAT_VERSION {
            return Err(ConverterError::VersionMismatch {
                found: model.version,
                supported: MODEL_FORMAT_VERSION,
            });
        }
        Ok(model)
    }

    /// Write the model to a file.
    ///
    /// # Errors
    ///
    /// Returns I/O and serialization errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ConverterError> {
        fs::write(path, self.to_bytes()?)?;
        Ok(())
    }

    /// Read a model from a file.
    ///
    /// # Errors
    ///
    /// Returns I/O, parse and version errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ConverterError> {
        Self::from_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_graph::{Conv2dAttrs, GraphBuilder};
    use mnn_tensor::Shape;

    fn demo_graph() -> Graph {
        let mut b = GraphBuilder::new("demo");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), true);
        b.build(vec![y])
    }

    #[test]
    fn roundtrip_through_bytes_preserves_graph() {
        let model = ModelFile::new(demo_graph());
        let bytes = model.to_bytes().unwrap();
        let back = ModelFile::from_bytes(&bytes).unwrap();
        assert_eq!(model, back);
        assert_eq!(back.graph.parameter_count(), model.graph.parameter_count());
    }

    #[test]
    fn save_and_load_from_disk() {
        let model = ModelFile::new(demo_graph());
        let dir = std::env::temp_dir().join("mnn-rs-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.mnnr");
        model.save(&path).unwrap();
        let back = ModelFile::load(&path).unwrap();
        assert_eq!(model.graph.name(), back.graph.name());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quantized_graph_roundtrips_with_i8_weights() {
        let mut graph = demo_graph();
        let report = crate::quantize_weights(&mut graph);
        assert!(report.quantized_tensors > 0);
        let model = ModelFile::new(graph);
        let bytes = model.to_bytes().unwrap();
        let back = ModelFile::from_bytes(&bytes).unwrap();
        assert_eq!(model, back);
        // The restored weight constant is still i8 with its scales attached.
        let conv = back
            .graph
            .nodes()
            .iter()
            .find(|n| n.op.is_quantized())
            .unwrap();
        let weight = back.graph.constant(conv.inputs[1]).unwrap();
        assert_eq!(weight.data_type(), mnn_tensor::DataType::I8);
        assert!(conv.op.quant_attrs().is_some());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut model = ModelFile::new(demo_graph());
        model.version = 999;
        let bytes = serde_json::to_vec(&model).unwrap();
        assert!(matches!(
            ModelFile::from_bytes(&bytes),
            Err(ConverterError::VersionMismatch { found: 999, .. })
        ));
    }

    #[test]
    fn malformed_payload_is_a_parse_error() {
        assert!(matches!(
            ModelFile::from_bytes(b"not a model"),
            Err(ConverterError::Parse(_))
        ));
    }
}
