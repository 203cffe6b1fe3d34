//! Verification of reconstructed Euler circuits.
//!
//! A valid Euler circuit must (1) use every edge of the graph exactly once,
//! (2) chain: each step starts at the vertex the previous step ended at,
//! (3) close: the last step returns to the first step's start vertex, and
//! (4) every step must be a real edge of the graph with matching endpoints,
//! and (5) a connected component must be one circuit: no two circuits may
//! pass through one vertex.

use crate::error::EulerError;
use crate::phase3::{CircuitResult, CircuitStep};
use euler_graph::{Graph, VertexId};

/// Verifies that `circuit` is a valid Euler circuit of `g`.
pub fn verify_circuit(g: &Graph, circuit: &[CircuitStep]) -> Result<(), EulerError> {
    verify_steps(g.edge_arrays().endpoints, std::iter::once(circuit))
}

/// Verifies a [`CircuitResult`]: each circuit must be internally chained and
/// closed, every graph edge must be used exactly once across all circuits.
pub fn verify_result(g: &Graph, result: &CircuitResult) -> Result<(), EulerError> {
    verify_steps(g.edge_arrays().endpoints, result.circuits.iter().map(Vec::as_slice))
}

/// The one checker, over any input's flat endpoints: edge `e` joins
/// `endpoints[2e]` and `endpoints[2e + 1]` — a graph's array, a mapped file's
/// endpoints section, a stream's second pass. Every step must name an edge
/// of the input with its endpoints (either direction), once across all
/// circuits, chain on the step before it, and start at a vertex no other
/// circuit visits; then no edge may be missing and every circuit must
/// close.
///
/// A closed circuit visits exactly the vertices its steps start at, so one
/// owner per vertex — the first circuit to start a step there — finds every
/// component split into two or more circuits: the circuits of one connected
/// component cannot all keep to vertices of their own. Owners are `u32`
/// circuit indices; the table grows to the largest vertex a step starts at,
/// which is an endpoint of the input.
pub(crate) fn verify_steps<'c, I>(endpoints: &[u64], circuits: I) -> Result<(), EulerError>
where
    I: Iterator<Item = &'c [CircuitStep]> + Clone,
{
    const UNOWNED: u32 = u32::MAX;
    let num_edges = (endpoints.len() / 2) as u64;
    let mut used = vec![false; num_edges as usize];
    let mut owner: Vec<u32> = Vec::new();
    for (c, circuit) in circuits.clone().enumerate() {
        // More circuits than `u32` counts would need more memory than any
        // input here has; the last ones share one owner.
        let id = c.min(UNOWNED as usize - 1) as u32;
        for (i, step) in circuit.iter().enumerate() {
            let Some(&[a, b]) = endpoints.chunks_exact(2).nth(step.edge.index()) else {
                return Err(EulerError::UnknownEdge { edge: step.edge, num_edges });
            };
            if std::mem::replace(&mut used[step.edge.index()], true) {
                return Err(EulerError::DuplicateEdge { edge: step.edge });
            }
            let (a, b) = (VertexId(a), VertexId(b));
            if (a, b) != (step.from, step.to) && (b, a) != (step.from, step.to) {
                return Err(EulerError::BrokenChain { position: i, expected: a, found: step.from });
            }
            if let Some(prev) = i.checked_sub(1).map(|p| &circuit[p]) {
                if prev.to != step.from {
                    return Err(EulerError::BrokenChain { position: i, expected: prev.to, found: step.from });
                }
            }
            let v = step.from.0 as usize;
            if v >= owner.len() {
                owner.resize(v + 1, UNOWNED);
            }
            let first = std::mem::replace(&mut owner[v], id);
            if first != UNOWNED && first != id {
                return Err(EulerError::SplitComponent { vertex: step.from, first: first as usize, second: c });
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
    use euler_graph::EdgeId;

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
    fn one_component_split_into_two_closed_circuits_is_refused() {
        // Two triangles sharing vertex 0: one component, so one circuit.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let whole = vec![step(0, 0, 1), step(1, 1, 2), step(2, 2, 0), step(3, 0, 3), step(4, 3, 4), step(5, 4, 0)];
        assert!(verify_circuit(&g, &whole).is_ok());
        let split = CircuitResult { circuits: vec![whole[..3].to_vec(), whole[3..].to_vec()] };
        assert!(matches!(
            verify_result(&g, &split),
            Err(EulerError::SplitComponent { vertex: VertexId(0), first: 0, second: 1 })
        ));
        // The shared vertex need not be where either circuit starts.
        let rotated = CircuitResult {
            circuits: vec![
                vec![step(1, 1, 2), step(2, 2, 0), step(0, 0, 1)],
                vec![step(4, 3, 4), step(5, 4, 0), step(3, 0, 3)],
            ],
        };
        assert!(matches!(
            verify_result(&g, &rotated),
            Err(EulerError::SplitComponent { vertex: VertexId(0), first: 0, second: 1 })
        ));
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
        assert!(matches!(verify_result(&g, &result), Err(EulerError::UnknownEdge { edge: EdgeId(7), num_edges: 3 })));
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
