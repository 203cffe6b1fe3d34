//! The undirected multigraph type.

use crate::edge_arrays::EdgeArrays;
use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use serde::{Deserialize, Serialize};

/// An undirected multigraph with stable edge identifiers.
///
/// Vertices are contiguous `0..num_vertices()`. Each undirected edge is stored
/// once as an ordered pair of endpoints, indexed by [`EdgeId`], and twice as a
/// half-edge in a compressed-sparse-row adjacency, built in one counting sort
/// over the edges in id order. The arrays are the sections of an `.ecsr` file
/// (see [`crate::format_spec`]): the endpoints and offsets word for word —
/// together the [`EdgeArrays`] view — and the targets and edge ids
/// interleaved. Parallel edges and self-loops are permitted (the
/// Eulerizer in `euler-gen` may create parallel edges); a self-loop has two
/// consecutive half-edges and so contributes 2 to the degree of its vertex,
/// consistent with the handshaking lemma.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    /// `2m` words: edge `e` joins `endpoints[2e]` and `endpoints[2e + 1]`.
    pub(crate) endpoints: Vec<u64>,
    /// `num_vertices + 1` entries: vertex `v`'s half-edges are
    /// `adj[offsets[v]..offsets[v + 1]]`.
    pub(crate) offsets: Vec<u64>,
    /// The `(neighbour, edge)` half-edges of every vertex, grouped by vertex
    /// and in ascending edge id within a vertex.
    pub(crate) adj: Vec<(VertexId, EdgeId)>,
}

impl Graph {
    /// Creates an empty graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: u64) -> Self {
        Graph { endpoints: Vec::new(), offsets: vec![0; num_vertices as usize + 1], adj: Vec::new() }
    }

    /// Builds the graph whose edge `e` joins `endpoints[e]`, the pairs
    /// flattened in place: one pass counts the degrees into the offsets, a
    /// second places every half-edge.
    ///
    /// # Errors
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is not below
    /// `num_vertices`.
    pub fn from_endpoints(num_vertices: u64, endpoints: Vec<[u64; 2]>) -> Result<Self, GraphError> {
        let endpoints = endpoints.into_flattened();
        let (offsets, adj) = half_edges(num_vertices, &endpoints, 0)?;
        Ok(Graph { endpoints, offsets, adj })
    }

    /// This graph with `extra` appended to its edges, as ids `num_edges()..`:
    /// the graph [`from_endpoints`](Self::from_endpoints) builds from the
    /// joined list. Every vertex keeps its half-edges and gains the new ones
    /// after them, so the old arrays are copied, not re-sorted.
    ///
    /// # Errors
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint of `extra` is
    /// not a vertex of this graph.
    pub fn with_edges_appended(&self, extra: &[(VertexId, VertexId)]) -> Result<Self, GraphError> {
        let mut endpoints = Vec::with_capacity(self.endpoints.len() + 2 * extra.len());
        endpoints.extend(self.endpoints.iter().copied().chain(extra.iter().flat_map(|&(u, v)| [u.0, v.0])));
        let (extra_offsets, extra_adj) =
            half_edges(self.num_vertices(), &endpoints[self.endpoints.len()..], self.num_edges())?;
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut adj = Vec::with_capacity(self.adj.len() + extra_adj.len());
        for v in 0..self.num_vertices() as usize {
            offsets.push(adj.len() as u64);
            adj.extend_from_slice(&self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]);
            adj.extend_from_slice(&extra_adj[extra_offsets[v] as usize..extra_offsets[v + 1] as usize]);
        }
        offsets.push(adj.len() as u64);
        Ok(Graph { endpoints, offsets, adj })
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.offsets.len() as u64 - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.endpoints.len() as u64 / 2
    }

    /// The offsets and endpoints, borrowed as the view a run reads.
    pub fn edge_arrays(&self) -> EdgeArrays<'_> {
        EdgeArrays { offsets: &self.offsets, endpoints: &self.endpoints }
    }

    /// Returns the two endpoints of an edge, in the order they were inserted.
    #[inline]
    pub fn endpoints(&self, edge: EdgeId) -> (VertexId, VertexId) {
        let at = 2 * edge.index();
        (VertexId(self.endpoints[at]), VertexId(self.endpoints[at + 1]))
    }

    /// Given an edge and one of its endpoints, returns the opposite endpoint.
    ///
    /// For a self-loop both endpoints are the same vertex and that vertex is
    /// returned.
    #[inline]
    pub fn other_endpoint(&self, edge: EdgeId, vertex: VertexId) -> VertexId {
        let (a, b) = self.endpoints(edge);
        if a == vertex {
            b
        } else {
            debug_assert_eq!(b, vertex, "vertex {vertex} is not an endpoint of {edge}");
            a
        }
    }

    /// Degree of a vertex. A self-loop counts twice.
    #[inline]
    pub fn degree(&self, vertex: VertexId) -> u64 {
        self.offsets[vertex.index() + 1] - self.offsets[vertex.index()]
    }

    /// Incident `(neighbour, edge)` pairs of a vertex.
    #[inline]
    pub fn neighbors(&self, vertex: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[self.offsets[vertex.index()] as usize..self.offsets[vertex.index() + 1] as usize]
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId)
    }

    /// Iterator over all edges as `(edge, u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        (0..).zip(self.edge_arrays().pairs()).map(|(e, (u, v))| (EdgeId(e), VertexId(u), VertexId(v)))
    }

    /// Total memory state of the graph in 8-byte Longs, using the paper's
    /// accounting: one Long per vertex plus two Longs per directed edge
    /// (an undirected edge is represented as a pair of directed edges).
    pub fn memory_longs(&self) -> u64 {
        self.num_vertices() + 4 * self.num_edges()
    }

    /// True if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

/// A graph's CSR offsets and half-edges.
type HalfEdges = (Vec<u64>, Vec<(VertexId, EdgeId)>);

/// The CSR offsets and half-edges of the edges in the flat `endpoints`,
/// whose ids start at `first_id`, by a counting sort in edge-id order:
/// `(v, e)` at `u` and then `(u, e)` at `v`, so a self-loop's two half-edges
/// sit side by side.
fn half_edges(num_vertices: u64, endpoints: &[u64], first_id: u64) -> Result<HalfEdges, GraphError> {
    let mut offsets = vec![0u64; num_vertices as usize + 1];
    for &w in endpoints {
        if w >= num_vertices {
            return Err(GraphError::VertexOutOfRange { vertex: VertexId(w), num_vertices });
        }
        offsets[w as usize + 1] += 1;
    }
    for v in 1..offsets.len() {
        offsets[v] += offsets[v - 1];
    }
    // Each vertex's next free half-edge slot.
    let mut next = offsets.clone();
    let mut adj = vec![(VertexId(0), EdgeId(0)); endpoints.len()];
    for (e, pair) in (first_id..).zip(endpoints.chunks_exact(2)) {
        let (u, v) = (VertexId(pair[0]), VertexId(pair[1]));
        for (w, other) in [(u, v), (v, u)] {
            let slot = &mut next[w.index()];
            adj[*slot as usize] = (other, EdgeId(e));
            *slot += 1;
        }
    }
    Ok((offsets, adj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};

    fn triangle() -> Graph {
        graph_from_edges(&[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        for v in g.vertices() {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn triangle_degrees_and_endpoints() {
        let g = triangle();
        assert_eq!(g.num_edges(), 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.endpoints(EdgeId(0)), (VertexId(0), VertexId(1)));
        assert_eq!(g.other_endpoint(EdgeId(0), VertexId(0)), VertexId(1));
        assert_eq!(g.other_endpoint(EdgeId(0), VertexId(1)), VertexId(0));
    }

    #[test]
    fn parallel_edges_get_distinct_ids() {
        let g = graph_from_edges(&[(0, 1), (0, 1)]);
        let ids: Vec<EdgeId> = g.neighbors(VertexId(0)).iter().map(|&(_, e)| e).collect();
        assert_eq!(ids, [EdgeId(0), EdgeId(1)]);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
    }

    #[test]
    fn self_loop_counts_twice() {
        let mut b = GraphBuilder::with_vertices(2);
        b.add_edge(0, 1).add_edge(0, 0).add_edge(1, 0);
        let g = b.build().unwrap();
        assert_eq!(g.degree(VertexId(0)), 4);
        // The loop's two half-edges sit next to each other, in edge-id order.
        let v0: Vec<_> = g.neighbors(VertexId(0)).iter().map(|&(w, e)| (w.0, e.0)).collect();
        assert_eq!(v0, [(1, 0), (0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.other_endpoint(EdgeId(1), VertexId(0)), VertexId(0));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = Graph::from_endpoints(2, vec![[0, 1], [0, 2]]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: VertexId(2), num_vertices: 2 }));
    }

    #[test]
    fn appended_edges_equal_one_build_of_the_joined_list() {
        let base = [(0, 1), (2, 2), (1, 2), (3, 0), (1, 0)];
        let extra = [(2, 1), (4, 4), (0, 3), (0, 3), (4, 1)];
        let pairs = |edges: &[(u64, u64)]| -> Vec<(VertexId, VertexId)> {
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect()
        };
        let words = |edges: &[(u64, u64)]| -> Vec<[u64; 2]> { edges.iter().map(|&(u, v)| [u, v]).collect() };
        let g = Graph::from_endpoints(6, words(&base)).unwrap();
        let appended = g.with_edges_appended(&pairs(&extra)).unwrap();
        let joined = Graph::from_endpoints(6, words(&[base, extra].concat())).unwrap();
        // The flat arrays, word for word.
        let flat = [base, extra].concat().iter().flat_map(|&(u, v)| [u, v]).collect::<Vec<_>>();
        assert_eq!(appended.endpoints, flat);
        assert_eq!(appended.edge_arrays().endpoints, joined.edge_arrays().endpoints);
        assert_eq!(appended.edge_arrays().offsets, joined.edge_arrays().offsets);
        assert_eq!(appended.adj, joined.adj);
        let err = g.with_edges_appended(&pairs(&[(0, 6)])).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: VertexId(6), num_vertices: 6 }));
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = triangle();
        let collected: Vec<_> = g.edges().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[1], (EdgeId(1), VertexId(1), VertexId(2)));
    }

    #[test]
    fn neighbor_iter_pairs_up() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        assert_eq!(g.degree(VertexId(1)), 2);
        for &(nbr, e) in g.neighbors(VertexId(1)) {
            assert_eq!(g.other_endpoint(e, VertexId(1)), nbr);
        }
    }

    #[test]
    fn memory_longs_accounting() {
        let g = triangle();
        // 3 vertices + 4 Longs per undirected edge (pair of directed edges).
        assert_eq!(g.memory_longs(), 3 + 12);
    }

    #[test]
    fn neighbors_list_matches_degree() {
        let g = triangle();
        let n0 = g.neighbors(VertexId(0));
        assert_eq!(n0.len(), 2);
        assert_eq!(n0, [(VertexId(1), EdgeId(0)), (VertexId(2), EdgeId(2))]);
    }
}
