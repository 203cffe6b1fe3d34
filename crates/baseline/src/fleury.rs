//! Fleury's algorithm, the other classical sequential approach (§2.2).
//!
//! Fleury walks a single trail, never taking a bridge of the remaining graph
//! unless it has no alternative. With a straightforward bridge test per step
//! it runs in `O(|E|·(|V|+|E|))`, which is why the paper (and practice)
//! prefers Hierholzer; it is included as an independent oracle and as the
//! slow baseline in the crossover benchmarks.

use euler_core::phase3::CircuitStep;
use euler_core::{CircuitResult, EulerError};
use euler_graph::{properties, EdgeId, Graph, VertexId};

/// Finds an Euler circuit of `g` with Fleury's algorithm.
///
/// Returns one circuit per edge-bearing connected component.
///
/// # Errors
/// Returns [`EulerError::Graph`] if some vertex has odd degree.
pub fn fleury_circuit(g: &Graph) -> Result<CircuitResult, EulerError> {
    if let Some(&v) = properties::odd_vertices(g).first() {
        return Err(EulerError::Graph(euler_graph::GraphError::NotEulerian { vertex: v, degree: g.degree(v) }));
    }
    let mut removed = vec![false; g.num_edges() as usize];
    let mut remaining_degree: Vec<u64> = g.vertices().map(|v| g.degree(v)).collect();
    let mut result = CircuitResult::default();

    for start in g.vertices() {
        if remaining_degree[start.index()] == 0 {
            continue;
        }
        let mut circuit = Vec::new();
        let mut current = start;
        while remaining_degree[current.index()] > 0 {
            let candidates: Vec<(VertexId, EdgeId)> =
                g.neighbors(current).iter().copied().filter(|&(_, e)| !removed[e.index()]).collect();
            // Prefer a non-bridge edge; take a bridge only when forced.
            let chosen = candidates
                .iter()
                .copied()
                .find(|&(_, e)| !is_bridge(g, &removed, current, e))
                .or_else(|| candidates.first().copied());
            let Some((to, edge)) = chosen else { break };
            removed[edge.index()] = true;
            remaining_degree[current.index()] -= 1;
            remaining_degree[to.index()] -= 1;
            if current == to {
                // Self-loop consumes two degree units from the same vertex,
                // but the loop above already subtracted both (same index).
            }
            circuit.push(CircuitStep { edge, from: current, to });
            current = to;
        }
        if !circuit.is_empty() {
            result.circuits.push(circuit);
        }
    }
    Ok(result)
}

/// True when removing `edge` from the remaining graph would disconnect
/// `from`'s remaining component (i.e. `edge` is a bridge of the remaining
/// graph). Determined by counting vertices reachable from `from` with and
/// without the edge.
fn is_bridge(g: &Graph, removed: &[bool], from: VertexId, edge: EdgeId) -> bool {
    let to = g.other_endpoint(edge, from);
    if to == from {
        return false; // self-loops are never bridges
    }
    let before = reachable_count(g, removed, from, None);
    let after = reachable_count(g, removed, from, Some(edge));
    after < before
}

fn reachable_count(g: &Graph, removed: &[bool], start: VertexId, skip: Option<EdgeId>) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![start];
    seen.insert(start);
    while let Some(v) = stack.pop() {
        for &(nbr, e) in g.neighbors(v) {
            if removed[e.index()] || Some(e) == skip {
                continue;
            }
            if seen.insert(nbr) {
                stack.push(nbr);
            }
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierholzer::hierholzer_circuit;
    use euler_core::verify::verify_result;
    use euler_gen::synthetic;
    use euler_graph::builder::graph_from_edges;

    #[test]
    fn triangle_circuit() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let r = fleury_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 1);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn figure_eight() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let r = fleury_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 1);
        assert_eq!(r.total_edges(), 6);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn bridge_avoidance_produces_single_closed_trail() {
        // Two triangles joined by a pair of parallel edges (a "dumbbell" that
        // is Eulerian): Fleury must not strand itself.
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0), // left triangle
            (2, 3),
            (2, 3), // double bridge
            (3, 4),
            (4, 5),
            (5, 3), // right triangle
        ]);
        let r = fleury_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 1);
        assert_eq!(r.total_edges(), 8);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn agrees_with_hierholzer_on_edge_counts() {
        for seed in 0..3 {
            let g = synthetic::random_eulerian_connected(24, 4, 4, seed);
            let f = fleury_circuit(&g).unwrap();
            let h = hierholzer_circuit(&g).unwrap();
            assert_eq!(f.total_edges(), h.total_edges());
            assert_eq!(f.num_circuits(), h.num_circuits());
            verify_result(&g, &f).unwrap();
        }
    }

    #[test]
    fn odd_degree_rejected() {
        let g = graph_from_edges(&[(0, 1)]);
        assert!(fleury_circuit(&g).is_err());
    }

    #[test]
    fn self_loops_handled() {
        let g = graph_from_edges(&[(0, 0), (0, 1), (1, 0)]);
        let r = fleury_circuit(&g).unwrap();
        assert_eq!(r.total_edges(), 3);
        verify_result(&g, &r).unwrap();
    }
}
