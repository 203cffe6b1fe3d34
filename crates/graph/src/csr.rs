//! Compressed sparse row (CSR) view of a [`Graph`].
//!
//! Compute kernels (Phase-1 traversals, baselines, partitioners) iterate over
//! adjacency lists heavily; the CSR layout packs them into two flat arrays for
//! cache-friendly scans, as recommended for irregular graph workloads.

use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use serde::{Deserialize, Serialize};

/// Compressed sparse row adjacency structure.
///
/// For vertex `v`, its incident half-edges occupy
/// `targets[offsets[v] .. offsets[v + 1]]` and `edge_ids[..]` in parallel.
/// A self-loop appears twice (consistent with [`Graph::degree`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Csr {
    num_vertices: u64,
    num_edges: u64,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
}

impl Csr {
    /// Builds a CSR view from an adjacency-list graph.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let half_edges: usize = (0..n).map(|v| g.neighbors(VertexId(v as u64)).len()).sum();
        let mut targets = Vec::with_capacity(half_edges);
        let mut edge_ids = Vec::with_capacity(half_edges);
        let mut running = 0u64;
        for v in 0..n {
            offsets.push(running);
            for &(nbr, e) in g.neighbors(VertexId(v as u64)) {
                targets.push(nbr);
                edge_ids.push(e);
                running += 1;
            }
        }
        offsets.push(running);
        Csr { num_vertices: g.num_vertices(), num_edges: g.num_edges(), offsets, targets, edge_ids }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Degree of `v` (self-loops count twice).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Incident half-edges of `v` as parallel slices `(targets, edge_ids)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        (&self.targets[lo..hi], &self.edge_ids[lo..hi])
    }

    /// Total size of the CSR arrays in 8-byte Longs.
    pub fn memory_longs(&self) -> u64 {
        (self.offsets.len() + self.targets.len() + self.edge_ids.len()) as u64
    }
}

impl From<&Graph> for Csr {
    fn from(g: &Graph) -> Self {
        Csr::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn csr_matches_graph_degrees() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), g.num_vertices());
        assert_eq!(csr.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(csr.degree(v), g.degree(v), "degree mismatch at {v}");
        }
    }

    #[test]
    fn csr_neighbors_match_graph() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3)]);
        let csr = Csr::from_graph(&g);
        let (targets, edges) = csr.neighbors(VertexId(0));
        assert_eq!(targets.len(), 3);
        assert_eq!(edges.len(), 3);
        let mut t: Vec<u64> = targets.iter().map(|v| v.0).collect();
        t.sort_unstable();
        assert_eq!(t, vec![1, 2, 3]);
    }

    #[test]
    fn csr_self_loop_counts_twice() {
        let g = graph_from_edges(&[(0, 0), (0, 1)]);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.degree(VertexId(0)), 3);
        assert_eq!(csr.degree(VertexId(1)), 1);
    }

    #[test]
    fn neighbor_iter_pairs_up() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        let csr = Csr::from_graph(&g);
        let (targets, edges) = csr.neighbors(VertexId(1));
        assert_eq!((targets.len(), edges.len()), (2, 2));
        for (&nbr, &e) in targets.iter().zip(edges) {
            assert_eq!(g.other_endpoint(e, VertexId(1)), nbr);
        }
    }

    #[test]
    fn empty_graph_csr() {
        let g = Graph::empty(4);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_edges(), 0);
        for v in g.vertices() {
            assert_eq!(csr.degree(v), 0);
        }
        assert_eq!(csr.memory_longs(), 5);
    }
}
