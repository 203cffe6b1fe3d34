//! Incremental construction of [`Graph`]s.

use crate::error::GraphError;
use crate::graph::Graph;

/// Builder for [`Graph`] that grows the vertex set on demand.
///
/// The builder accepts arbitrary `u64` vertex identifiers and grows the
/// vertex count to cover the largest one seen. Edges keep the order they were
/// added in, which becomes their [`crate::EdgeId`]s. Duplicate edges are kept
/// (the result is a multigraph) unless [`GraphBuilder::dedup`] is enabled.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<[u64; 2]>,
    num_vertices: u64,
    dedup: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that will produce a graph with at least
    /// `num_vertices` vertices even if some are isolated.
    pub fn with_vertices(num_vertices: u64) -> Self {
        GraphBuilder { edges: Vec::new(), num_vertices, dedup: false }
    }

    /// Pre-allocates capacity for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// If enabled, parallel edges (same unordered endpoint pair) are collapsed
    /// into a single edge when [`build`](Self::build) is called.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Ensures the built graph will have at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: u64) -> &mut Self {
        self.num_vertices = self.num_vertices.max(n);
        self
    }

    /// Adds an undirected edge between raw vertex identifiers `u` and `v`.
    pub fn add_edge(&mut self, u: u64, v: u64) -> &mut Self {
        self.num_vertices = self.num_vertices.max(u + 1).max(v + 1);
        self.edges.push([u, v]);
        self
    }

    /// Adds every edge in the iterator.
    pub fn extend_edges<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Number of edges currently queued in the builder.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Builds the [`Graph`] with [`Graph::from_endpoints`]: the queued
    /// edges become its endpoint array as they are.
    ///
    /// # Errors
    /// Propagates [`GraphError::VertexOutOfRange`] (cannot occur with edges
    /// added through the builder, but kept for API uniformity).
    pub fn build(mut self) -> Result<Graph, GraphError> {
        if self.dedup {
            let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
            self.edges.retain(|&[u, v]| seen.insert((u.min(v), u.max(v))));
        }
        Graph::from_endpoints(self.num_vertices, self.edges)
    }
}

/// Convenience constructor: builds a graph from a slice of `(u, v)` pairs.
pub fn graph_from_edges(edges: &[(u64, u64)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.extend_edges(edges.iter().copied());
    b.build().expect("builder edges are always in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn builder_grows_vertex_set() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 5).add_edge(2, 3);
        assert_eq!(b.num_vertices(), 6);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(VertexId(4)), 0);
    }

    #[test]
    fn with_vertices_keeps_isolated() {
        let b = GraphBuilder::with_vertices(10);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn dedup_collapses_parallel_edges() {
        let mut b = GraphBuilder::new().dedup(true);
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1).add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn without_dedup_keeps_parallel_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 0);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(VertexId(0)), 2);
    }

    #[test]
    fn graph_from_edges_helper() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn extend_edges_accepts_iterator() {
        let mut b = GraphBuilder::new();
        b.extend_edges((0..4).map(|i| (i, (i + 1) % 4)));
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 4);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }
}
