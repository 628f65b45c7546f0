//! Error type for session creation and execution.

use mnn_backend::BackendError;
use mnn_graph::GraphError;
use std::error::Error;
use std::fmt;

/// Errors produced by the interpreter / session layer.
#[derive(Debug)]
pub enum CoreError {
    /// The underlying graph is malformed or shape inference failed.
    Graph(GraphError),
    /// A backend refused to create or run an execution.
    Backend(BackendError),
    /// The caller supplied the wrong number of inputs, or an input with the wrong
    /// shape.
    InvalidInput(String),
    /// A configuration value is inconsistent (e.g. an empty backend preference list).
    InvalidConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Backend(e) => write!(f, "backend error: {e}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(value: GraphError) -> Self {
        CoreError::Graph(value)
    }
}

impl From<BackendError> for CoreError {
    fn from(value: BackendError) -> Self {
        CoreError::Backend(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_graph_and_backend_errors() {
        let e: CoreError = GraphError::Cycle.into();
        assert!(e.to_string().contains("cycle"));
        assert!(e.source().is_some());
        let e: CoreError = BackendError::ShapeMismatch("3 vs 4".into()).into();
        assert!(e.to_string().contains("3 vs 4"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
