//! Error type for graph construction and execution.

use echo_memory::OomError;
use echo_tensor::TensorError;
use std::fmt;

/// Errors produced by graph construction and execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// A tensor kernel failed (shape mismatch etc.).
    Tensor(TensorError),
    /// The simulated device ran out of memory.
    Oom(OomError),
    /// A node id did not belong to the graph.
    UnknownNode {
        /// The offending node id value.
        id: usize,
    },
    /// An input or parameter binding was missing at execution time.
    MissingBinding {
        /// Name of the unbound node.
        name: String,
    },
    /// The graph contains a cycle (should be impossible via the builder).
    Cycle,
    /// The loss node's output was not a scalar.
    NonScalarLoss {
        /// The loss node's actual shape, rendered.
        shape: String,
    },
    /// An operator rejected its inputs.
    Operator {
        /// Operator name.
        op: String,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
            GraphError::Oom(e) => write!(f, "device OOM: {e}"),
            GraphError::UnknownNode { id } => write!(f, "unknown node id {id}"),
            GraphError::MissingBinding { name } => {
                write!(f, "no value bound for input/parameter `{name}`")
            }
            GraphError::Cycle => write!(f, "graph contains a cycle"),
            GraphError::NonScalarLoss { shape } => {
                write!(f, "loss node must be scalar, got shape {shape}")
            }
            GraphError::Operator { op, message } => write!(f, "operator `{op}`: {message}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            GraphError::Oom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

impl From<OomError> for GraphError {
    fn from(e: OomError) -> Self {
        GraphError::Oom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = GraphError::MissingBinding {
            name: "x".to_string(),
        };
        assert!(e.to_string().contains("`x`"));
        let t: GraphError = TensorError::Empty { op: "concat" }.into();
        assert!(std::error::Error::source(&t).is_some());
    }
}
