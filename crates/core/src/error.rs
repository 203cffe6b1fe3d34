//! Error types for the Euler circuit algorithm.

use euler_graph::{GraphError, VertexId};
use std::fmt;

/// Errors raised by the partition-centric Euler circuit algorithm.
#[derive(Debug)]
pub enum EulerError {
    /// The input graph failed the Eulerian precondition.
    Graph(GraphError),
    /// The circuit reconstruction visited an edge more than once (internal
    /// invariant violation — indicates a bug, surfaced instead of panicking).
    DuplicateEdge {
        /// The edge that was emitted twice.
        edge: euler_graph::EdgeId,
    },
    /// The circuit reconstruction finished but some edges were never emitted.
    MissingEdges {
        /// Number of edges not covered.
        missing: u64,
    },
    /// Two consecutive circuit edges do not share the expected vertex.
    BrokenChain {
        /// Position in the circuit where the chain breaks.
        position: usize,
        /// Vertex the previous edge ended at.
        expected: VertexId,
        /// Vertex the next edge starts at.
        found: VertexId,
    },
    /// The circuit does not return to its starting vertex.
    NotClosed {
        /// Start vertex of the circuit.
        start: VertexId,
        /// End vertex of the circuit.
        end: VertexId,
    },
    /// A circuit step names an edge the input does not have.
    UnknownEdge {
        /// The edge id named.
        edge: euler_graph::EdgeId,
        /// Edges in the input.
        num_edges: u64,
    },
    /// The configuration is invalid (e.g. zero partitions).
    InvalidConfig(String),
    /// A distributed run failed unrecoverably (transport failure, restart
    /// budget exhausted, protocol violation).
    Distributed(String),
    /// The run was cancelled via a [`CancelToken`](crate::CancelToken)
    /// before it finished; no result was produced.
    Cancelled,
}

impl fmt::Display for EulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EulerError::Graph(e) => write!(f, "input graph error: {e}"),
            EulerError::DuplicateEdge { edge } => write!(f, "edge {edge} appears more than once in the circuit"),
            EulerError::MissingEdges { missing } => write!(f, "{missing} edges are missing from the circuit"),
            EulerError::BrokenChain { position, expected, found } => write!(
                f,
                "circuit breaks at position {position}: expected to continue from {expected}, found {found}"
            ),
            EulerError::NotClosed { start, end } => {
                write!(f, "circuit starts at {start} but ends at {end}")
            }
            EulerError::UnknownEdge { edge, num_edges } => {
                write!(f, "circuit names edge {edge}, past the input's {num_edges} edges")
            }
            EulerError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EulerError::Distributed(msg) => write!(f, "distributed run failed: {msg}"),
            EulerError::Cancelled => write!(f, "run cancelled before completion"),
        }
    }
}

impl std::error::Error for EulerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EulerError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for EulerError {
    fn from(e: GraphError) -> Self {
        EulerError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::EdgeId;

    #[test]
    fn display_mentions_key_fields() {
        let e = EulerError::DuplicateEdge { edge: EdgeId(5) };
        assert!(e.to_string().contains("e5"));
        let e = EulerError::MissingEdges { missing: 3 };
        assert!(e.to_string().contains('3'));
        let e = EulerError::NotClosed { start: VertexId(1), end: VertexId(2) };
        assert!(e.to_string().contains("v1") && e.to_string().contains("v2"));
        let e = EulerError::UnknownEdge { edge: EdgeId(9), num_edges: 4 };
        assert!(e.to_string().contains("e9") && e.to_string().contains('4'));
    }

    #[test]
    fn graph_error_converts() {
        let ge = GraphError::Disconnected { components: 2 };
        let e: EulerError = ge.into();
        assert!(matches!(e, EulerError::Graph(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
