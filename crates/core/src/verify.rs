//! Verification of reconstructed Euler circuits.
//!
//! A valid Euler circuit must (1) use every edge of the graph exactly once,
//! (2) chain: each step starts at the vertex the previous step ended at,
//! (3) close: the last step returns to the first step's start vertex, and
//! (4) every step must be a real edge of the graph with matching endpoints.

use crate::error::EulerError;
use crate::phase3::{CircuitResult, CircuitStep};
use euler_graph::{EdgeId, Graph, VertexId};

/// Verifies that `circuit` is a valid Euler circuit of `g`.
pub fn verify_circuit(g: &Graph, circuit: &[CircuitStep]) -> Result<(), EulerError> {
    verify_steps(g.num_edges(), |e| g.endpoints(e), std::iter::once(circuit))
}

/// Verifies a [`CircuitResult`]: each circuit must be internally chained and
/// closed, every graph edge must be used exactly once across all circuits.
pub fn verify_result(g: &Graph, result: &CircuitResult) -> Result<(), EulerError> {
    verify_steps(g.num_edges(), |e| g.endpoints(e), result.circuits.iter().map(Vec::as_slice))
}

/// The one checker, over any input's endpoints: `ends(e)` is the pair of
/// edge `e < num_edges` — a graph's, a mapped file's endpoints section, a
/// stream's. Every step must name an edge of the input with its endpoints
/// (either direction), once across all circuits, and chain on the step
/// before it; then no edge may be missing and every circuit must close.
pub(crate) fn verify_steps<'c, I>(
    num_edges: u64,
    ends: impl Fn(EdgeId) -> (VertexId, VertexId),
    circuits: I,
) -> Result<(), EulerError>
where
    I: Iterator<Item = &'c [CircuitStep]> + Clone,
{
    let mut used = vec![false; num_edges as usize];
    for circuit in circuits.clone() {
        for (i, step) in circuit.iter().enumerate() {
            let Some(seen) = used.get_mut(step.edge.index()) else {
                return Err(EulerError::UnknownEdge { edge: step.edge, num_edges });
            };
            if std::mem::replace(seen, true) {
                return Err(EulerError::DuplicateEdge { edge: step.edge });
            }
            let (a, b) = ends(step.edge);
            if (a, b) != (step.from, step.to) && (b, a) != (step.from, step.to) {
                return Err(EulerError::BrokenChain { position: i, expected: a, found: step.from });
            }
            if let Some(prev) = i.checked_sub(1).map(|p| &circuit[p]) {
                if prev.to != step.from {
                    return Err(EulerError::BrokenChain { position: i, expected: prev.to, found: step.from });
                }
            }
        }
    }
    let missing = used.iter().filter(|&&u| !u).count() as u64;
    if missing > 0 {
        return Err(EulerError::MissingEdges { missing });
    }
    for circuit in circuits {
        if let (Some(first), Some(last)) = (circuit.first(), circuit.last()) {
            if first.from != last.to {
                return Err(EulerError::NotClosed { start: first.from, end: last.to });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::builder::graph_from_edges;

    fn step(edge: u64, from: u64, to: u64) -> CircuitStep {
        CircuitStep { edge: EdgeId(edge), from: VertexId(from), to: VertexId(to) }
    }

    fn triangle() -> Graph {
        graph_from_edges(&[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn valid_triangle_circuit_accepted() {
        let g = triangle();
        let circuit = vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0)];
        assert!(verify_circuit(&g, &circuit).is_ok());
        // Also valid traversed in the other direction.
        let reversed = vec![step(2, 0, 2), step(1, 2, 1), step(0, 1, 0)];
        assert!(verify_circuit(&g, &reversed).is_ok());
    }

    #[test]
    fn duplicate_edge_rejected() {
        let g = triangle();
        let circuit = vec![step(0, 0, 1), step(0, 1, 0), step(1, 1, 2)];
        assert!(matches!(verify_circuit(&g, &circuit), Err(EulerError::DuplicateEdge { .. })));
    }

    #[test]
    fn missing_edge_rejected() {
        let g = triangle();
        let circuit = vec![step(0, 0, 1), step(1, 1, 2)];
        assert!(matches!(verify_circuit(&g, &circuit), Err(EulerError::MissingEdges { missing: 1 })));
    }

    #[test]
    fn broken_chain_rejected() {
        let g = triangle();
        let circuit = vec![step(0, 0, 1), step(2, 2, 0), step(1, 1, 2)];
        assert!(matches!(verify_circuit(&g, &circuit), Err(EulerError::BrokenChain { position: 1, .. })));
    }

    #[test]
    fn unclosed_circuit_rejected() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)]);
        let circuit = vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0), step(3, 0, 3), step(4, 3, 0)];
        assert!(verify_circuit(&g, &circuit).is_ok());
        // Drop the last edge and also remove it from the graph? No — keep the
        // graph, a circuit that stops at v3 is both missing an edge and open.
        let open = vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0), step(3, 0, 3)];
        assert!(verify_circuit(&g, &open).is_err());
    }

    #[test]
    fn wrong_endpoints_rejected() {
        let g = triangle();
        let circuit = vec![step(0, 0, 2), step(1, 2, 1), step(2, 1, 0)];
        // Edge 0 connects 0-1, not 0-2.
        assert!(matches!(verify_circuit(&g, &circuit), Err(EulerError::BrokenChain { .. })));
    }

    #[test]
    fn verify_result_accepts_two_component_graphs() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let result = CircuitResult {
            circuits: vec![
                vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0)],
                vec![step(3, 3, 4), step(4, 4, 5), step(5, 5, 3)],
            ],
        };
        assert!(verify_result(&g, &result).is_ok());
    }

    #[test]
    fn verify_result_catches_cross_circuit_duplicates() {
        let g = triangle();
        let result = CircuitResult {
            circuits: vec![
                vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0)],
                vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0)],
            ],
        };
        assert!(matches!(verify_result(&g, &result), Err(EulerError::DuplicateEdge { .. })));
    }

    #[test]
    fn verify_result_checks_every_steps_endpoints() {
        // Chained and closed, but edges 0 and 1 swapped: 0 -e1-> 1 is not
        // edge 1 (1-2).
        let g = triangle();
        let result = CircuitResult { circuits: vec![vec![step(1, 0, 1), step(0, 1, 2), step(2, 2, 0)]] };
        assert!(matches!(
            verify_result(&g, &result),
            Err(EulerError::BrokenChain { position: 0, expected: VertexId(1), found: VertexId(0) })
        ));
    }

    #[test]
    fn an_edge_past_the_graph_is_a_typed_error() {
        let g = triangle();
        let result = CircuitResult { circuits: vec![vec![step(0, 0, 1), step(7, 1, 2), step(2, 2, 0)]] };
        assert!(matches!(
            verify_result(&g, &result),
            Err(EulerError::UnknownEdge { edge: EdgeId(7), num_edges: 3 })
        ));
        assert!(matches!(
            verify_circuit(&g, &result.circuits[0]),
            Err(EulerError::UnknownEdge { edge: EdgeId(7), num_edges: 3 })
        ));
    }

    #[test]
    fn empty_circuit_on_empty_graph_is_valid() {
        let g = euler_graph::Graph::empty(3);
        assert!(verify_circuit(&g, &[]).is_ok());
    }
}
