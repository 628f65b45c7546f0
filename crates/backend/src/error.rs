//! Error type for backend operations.

use std::error::Error;
use std::fmt;

/// Errors produced while creating or running backend executions.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The backend does not implement the requested operator.
    UnsupportedOp {
        /// Operator name.
        op: String,
        /// Backend name.
        backend: String,
    },
    /// An execution received tensors whose shapes do not match the graph metadata.
    ShapeMismatch(String),
    /// A required constant input (weight/bias) was missing at execution-creation time.
    MissingConstant(String),
    /// A tensor had an unexpected data type or layout.
    InvalidTensor(String),
    /// A convolution scheme requires a kernel backend (e.g. AVX2/NEON SIMD)
    /// the host does not provide — raised by `on_create` so the tuner skips
    /// the candidate and stale cache entries degrade to re-tuning instead of
    /// dispatching a kernel that does not exist here.
    UnavailableScheme {
        /// Display form of the requested scheme (e.g. `im2col-simd`).
        scheme: String,
        /// The host's active kernel set (e.g. `scalar`).
        kernel_set: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnsupportedOp { op, backend } => {
                write!(f, "operator '{op}' is not supported by backend '{backend}'")
            }
            BackendError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            BackendError::MissingConstant(name) => write!(f, "missing constant tensor '{name}'"),
            BackendError::InvalidTensor(msg) => write!(f, "invalid tensor: {msg}"),
            BackendError::UnavailableScheme { scheme, kernel_set } => write!(
                f,
                "scheme '{scheme}' requires a SIMD kernel backend, but the active kernel set is '{kernel_set}'"
            ),
        }
    }
}

impl Error for BackendError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_identify_the_problem() {
        let e = BackendError::UnsupportedOp {
            op: "Conv2d".into(),
            backend: "vulkan".into(),
        };
        assert!(e.to_string().contains("Conv2d"));
        assert!(e.to_string().contains("vulkan"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Error + Send + Sync>() {}
        check::<BackendError>();
    }
}
