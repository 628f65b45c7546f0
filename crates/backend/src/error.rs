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
