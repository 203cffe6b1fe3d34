//! Graph property queries: degrees, Eulerian-ness, connectivity.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::VertexId;

/// Returns the vertices with odd degree.
///
/// By the handshaking lemma the returned list always has even length.
pub fn odd_vertices(g: &Graph) -> Vec<VertexId> {
    g.vertices().filter(|&v| g.degree(v) % 2 == 1).collect()
}

/// Checks whether every vertex of the graph has even degree.
///
/// This is the degree half of Euler's theorem; combined with
/// [`is_connected_on_edges`] it characterises graphs with an Euler circuit.
pub fn all_degrees_even(g: &Graph) -> bool {
    g.edge_arrays().first_odd_vertex().is_none()
}

/// Labels the connected component of every vertex, ignoring edge multiplicity.
///
/// Returns `(labels, count)` where `labels[v]` is a component index in
/// `0..count`. Isolated vertices get their own components.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.num_vertices() as usize;
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = count;
        stack.push(VertexId(start as u64));
        while let Some(v) = stack.pop() {
            for &(nbr, _) in g.neighbors(v) {
                let idx = nbr.index();
                if labels[idx] == u32::MAX {
                    labels[idx] = count;
                    stack.push(nbr);
                }
            }
        }
        count += 1;
    }
    (labels, count as usize)
}

/// True if all *edges* of the graph lie in a single connected component.
///
/// Isolated vertices are ignored: an Euler circuit only needs to traverse
/// every edge, so vertices without edges do not matter (this mirrors the
/// paper's "every edge ... that is part of the connected component").
pub fn is_connected_on_edges(g: &Graph) -> bool {
    non_trivial_components(g) <= 1
}

/// Number of connected components that contain at least one edge.
pub fn non_trivial_components(g: &Graph) -> usize {
    let (labels, count) = connected_components(g);
    let mut has_edge = vec![false; count];
    for (_, u, _) in g.edges() {
        has_edge[labels[u.index()] as usize] = true;
    }
    has_edge.iter().filter(|&&b| b).count()
}

/// Checks that the graph admits an Euler circuit: every vertex has even degree
/// and all edges lie in one connected component.
///
/// # Errors
/// Returns [`GraphError::NotEulerian`] naming an offending odd-degree vertex,
/// or [`GraphError::Disconnected`] with the number of edge-bearing components.
pub fn is_eulerian(g: &Graph) -> Result<(), GraphError> {
    if let Some((vertex, degree)) = g.edge_arrays().first_odd_vertex() {
        return Err(GraphError::NotEulerian { vertex, degree });
    }
    let comps = non_trivial_components(g);
    if comps > 1 {
        return Err(GraphError::Disconnected { components: comps });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn triangle_is_eulerian() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        assert!(all_degrees_even(&g));
        assert!(is_eulerian(&g).is_ok());
        assert!(odd_vertices(&g).is_empty());
    }

    #[test]
    fn path_is_not_eulerian() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        assert!(!all_degrees_even(&g));
        let odd = odd_vertices(&g);
        assert_eq!(odd, vec![VertexId(0), VertexId(2)]);
        assert!(matches!(is_eulerian(&g), Err(GraphError::NotEulerian { .. })));
    }

    #[test]
    fn two_triangles_disconnected() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(all_degrees_even(&g));
        assert_eq!(non_trivial_components(&g), 2);
        assert!(matches!(is_eulerian(&g), Err(GraphError::Disconnected { components: 2 })));
    }

    #[test]
    fn isolated_vertices_do_not_break_eulerian() {
        let mut b = crate::builder::GraphBuilder::with_vertices(10);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        let g = b.build().unwrap();
        assert!(is_eulerian(&g).is_ok());
        assert!(is_connected_on_edges(&g));
    }

    #[test]
    fn component_count_and_labels() {
        let g = graph_from_edges(&[(0, 1), (2, 3)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn handshaking_lemma_odd_count_is_even() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(odd_vertices(&g).len() % 2, 0);
    }

    #[test]
    fn self_loop_keeps_parity() {
        let g = graph_from_edges(&[(0, 0), (0, 1), (1, 0)]);
        assert!(all_degrees_even(&g));
        assert!(is_eulerian(&g).is_ok());
    }

    #[test]
    fn empty_graph_is_trivially_eulerian() {
        let g = Graph::empty(3);
        assert!(is_eulerian(&g).is_ok());
        assert_eq!(non_trivial_components(&g), 0);
    }
}
