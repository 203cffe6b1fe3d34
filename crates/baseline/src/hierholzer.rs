//! Hierholzer's sequential Euler circuit algorithm, `O(|E|)`.
//!
//! This is the classical single-machine algorithm the paper builds on
//! conceptually (its Phase 1 is a partition-local Hierholzer variant) and the
//! correctness oracle for the distributed implementation: both must cover the
//! same edge set with closed, chained circuits.

use euler_core::phase3::CircuitStep;
use euler_core::{CircuitResult, EulerError};
use euler_graph::{properties, Graph, VertexId};

/// Finds an Euler circuit of `g` with Hierholzer's algorithm.
///
/// Returns one circuit per edge-bearing connected component (a single circuit
/// for a connected Eulerian graph).
///
/// # Errors
/// Returns [`EulerError::Graph`] if some vertex has odd degree.
pub fn hierholzer_circuit(g: &Graph) -> Result<CircuitResult, EulerError> {
    if let Some(&v) = properties::odd_vertices(g).first() {
        return Err(EulerError::Graph(euler_graph::GraphError::NotEulerian { vertex: v, degree: g.degree(v) }));
    }
    let n = g.num_vertices() as usize;
    let mut cursor = vec![0usize; n];
    let mut used = vec![false; g.num_edges() as usize];
    let mut result = CircuitResult::default();

    for start in 0..n {
        // Skip vertices whose edges are already covered.
        if g.degree(VertexId(start as u64)) == 0 {
            continue;
        }
        if next_unused(g, &mut cursor, &used, VertexId(start as u64)).is_none() {
            continue;
        }
        // Iterative Hierholzer: walk until stuck, back up along the partial
        // tour and extend from any vertex with unused edges.
        let mut stack: Vec<VertexId> = vec![VertexId(start as u64)];
        let mut tour_rev: Vec<CircuitStep> = Vec::new();
        // Edge taken to reach the vertex at the same stack position (None for the root).
        let mut via: Vec<Option<CircuitStep>> = vec![None];
        while let Some(&v) = stack.last() {
            match next_unused(g, &mut cursor, &used, v) {
                Some((edge, to)) => {
                    used[edge.index()] = true;
                    stack.push(to);
                    via.push(Some(CircuitStep { edge, from: v, to }));
                }
                None => {
                    stack.pop();
                    if let Some(Some(step)) = via.pop() {
                        tour_rev.push(step);
                    }
                }
            }
        }
        if !tour_rev.is_empty() {
            tour_rev.reverse();
            result.circuits.push(tour_rev);
        }
    }
    Ok(result)
}

fn next_unused(g: &Graph, cursor: &mut [usize], used: &[bool], v: VertexId) -> Option<(euler_graph::EdgeId, VertexId)> {
    let neighbors = g.neighbors(v);
    let c = &mut cursor[v.index()];
    while *c < neighbors.len() {
        let (to, edge) = neighbors[*c];
        if !used[edge.index()] {
            return Some((edge, to));
        }
        *c += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::verify::verify_result;
    use euler_gen::synthetic;
    use euler_graph::builder::graph_from_edges;

    #[test]
    fn triangle_circuit() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let r = hierholzer_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 1);
        assert_eq!(r.total_edges(), 3);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn figure_eight_requires_splicing() {
        // Two triangles sharing vertex 0: the walk from 0 must splice.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let r = hierholzer_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 1);
        assert_eq!(r.total_edges(), 6);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn odd_degree_rejected() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        assert!(hierholzer_circuit(&g).is_err());
    }

    #[test]
    fn disconnected_components_give_multiple_circuits() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)]);
        let r = hierholzer_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 2);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn torus_and_circulant_families() {
        for g in [synthetic::torus_grid(7, 9), synthetic::circulant(31, &[1, 3, 5])] {
            let r = hierholzer_circuit(&g).unwrap();
            assert_eq!(r.num_circuits(), 1);
            assert_eq!(r.total_edges(), g.num_edges());
            verify_result(&g, &r).unwrap();
        }
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let g = graph_from_edges(&[(0, 1), (1, 0), (1, 1)]);
        let r = hierholzer_circuit(&g).unwrap();
        assert_eq!(r.total_edges(), 3);
        verify_result(&g, &r).unwrap();
    }

    #[test]
    fn empty_graph_gives_no_circuits() {
        let g = euler_graph::Graph::empty(5);
        let r = hierholzer_circuit(&g).unwrap();
        assert_eq!(r.num_circuits(), 0);
    }

    #[test]
    fn eulerized_rmat_graph() {
        let (g, _) = euler_gen::eulerize::eulerize(&euler_gen::rmat::RmatGenerator::new(9).with_seed(1).generate());
        let r = hierholzer_circuit(&g).unwrap();
        assert_eq!(r.total_edges(), g.num_edges());
        verify_result(&g, &r).unwrap();
    }
}
