//! The partition meta-graph (§3.1).
//!
//! The meta-graph `Ĝ = <V̂, Ê>` has one meta-vertex per partition and a
//! weighted meta-edge between two partitions when at least one graph edge
//! connects their boundary vertices; the weight `ω(m_ij)` is the number of
//! such edges. Phase 2 computes the merge tree by repeated greedy maximal
//! weighted matching over this meta-graph.

use crate::ids::PartitionId;
use crate::partitioned::PartitionedGraph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A weighted edge of the meta-graph between two partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaEdge {
    /// Smaller-id endpoint.
    pub a: PartitionId,
    /// Larger-id endpoint.
    pub b: PartitionId,
    /// Number of graph edges between boundary vertices of `a` and `b`.
    pub weight: u64,
}

/// The weighted partition meta-graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetaGraph {
    /// Meta-vertices (partition ids). Kept explicitly because after merges the
    /// surviving ids are not contiguous.
    pub vertices: Vec<PartitionId>,
    /// Meta-edges, one per unordered partition pair with at least one cut edge.
    pub edges: Vec<MetaEdge>,
}

impl MetaGraph {
    /// Builds the meta-graph of a partitioned graph: one indexed add per
    /// remote edge into a dense `P × P` matrix (the view numbers its `P`
    /// partitions `0..P`), no hashing.
    pub fn from_partitioned(pg: &PartitionedGraph) -> Self {
        let vertices: Vec<PartitionId> = pg.partitions().iter().map(|p| p.id).collect();
        let n = vertices.len();
        let mut counts = vec![0u64; n * n];
        for p in pg.partitions() {
            for r in &p.remote_edges {
                let (a, b) = order(p.id, r.remote_partition);
                assert!(b.index() < n, "partition {b} of a {n}-partition graph");
                counts[a.index() * n + b.index()] += 1;
            }
        }
        // Every cut edge was counted twice (once from each incident
        // partition); row-major order is `(a, b)` order.
        let mut edges = Vec::new();
        for (at, &count) in counts.iter().enumerate().filter(|(_, &count)| count > 0) {
            let (a, b) = (PartitionId((at / n) as u32), PartitionId((at % n) as u32));
            edges.push(MetaEdge { a, b, weight: count / 2 });
        }
        MetaGraph { vertices, edges }
    }

    /// Builds a meta-graph directly from explicit vertices and weighted pairs.
    pub fn from_weights(vertices: Vec<PartitionId>, pairs: &[(PartitionId, PartitionId, u64)]) -> Self {
        let mut edges: Vec<MetaEdge> = pairs
            .iter()
            .map(|&(a, b, w)| {
                let (a, b) = order(a, b);
                MetaEdge { a, b, weight: w }
            })
            .collect();
        edges.sort_by_key(|e| (e.a, e.b));
        MetaGraph { vertices, edges }
    }

    /// Number of meta-vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of meta-edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weight between two partitions, or 0 if no meta-edge exists.
    pub fn weight(&self, a: PartitionId, b: PartitionId) -> u64 {
        let (a, b) = order(a, b);
        self.edges.iter().find(|e| e.a == a && e.b == b).map(|e| e.weight).unwrap_or(0)
    }

    /// Total weight (number of cut edges represented).
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Collapses pairs of meta-vertices into their parents, producing the
    /// meta-graph of the next merge level (the `rebuildMetaGraph` step of
    /// Alg. 2). `parent_of` maps each current meta-vertex to its meta-vertex
    /// at the next level (itself if unmerged).
    pub fn contract(&self, parent_of: &HashMap<PartitionId, PartitionId>) -> MetaGraph {
        let mut vertices: Vec<PartitionId> = self.vertices.iter().map(|v| *parent_of.get(v).unwrap_or(v)).collect();
        vertices.sort_unstable();
        vertices.dedup();
        let mut weights: HashMap<(PartitionId, PartitionId), u64> = HashMap::new();
        for e in &self.edges {
            let pa = *parent_of.get(&e.a).unwrap_or(&e.a);
            let pb = *parent_of.get(&e.b).unwrap_or(&e.b);
            if pa == pb {
                continue; // became internal to the merged partition
            }
            let (a, b) = order(pa, pb);
            *weights.entry((a, b)).or_insert(0) += e.weight;
        }
        let mut edges: Vec<MetaEdge> = weights.into_iter().map(|((a, b), weight)| MetaEdge { a, b, weight }).collect();
        edges.sort_by_key(|e| (e.a, e.b));
        MetaGraph { vertices, edges }
    }
}

fn order(a: PartitionId, b: PartitionId) -> (PartitionId, PartitionId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::partitioned::PartitionAssignment;

    fn fig1() -> PartitionedGraph {
        let edges: Vec<(u64, u64)> = [
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (3, 5),
            (3, 13),
            (12, 13),
            (11, 12),
            (6, 11),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 12),
            (12, 14),
            (1, 14),
        ]
        .iter()
        .map(|&(u, v)| (u - 1, v - 1))
        .collect();
        let mut b = GraphBuilder::with_vertices(14);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let labels = vec![0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0];
        let a = PartitionAssignment::from_labels(labels, 4).unwrap();
        PartitionedGraph::from_assignment(&g, &a).unwrap()
    }

    #[test]
    fn fig1_metagraph_weights() {
        let mg = MetaGraph::from_partitioned(&fig1());
        assert_eq!(mg.num_vertices(), 4);
        // Cut edges: P0-P1 (e2,3), P1-P3 (e3,13), P2-P3 (e6,11 and e9,10), P0-P3 (e12,14).
        assert_eq!(mg.weight(PartitionId(0), PartitionId(1)), 1);
        assert_eq!(mg.weight(PartitionId(1), PartitionId(3)), 1);
        assert_eq!(mg.weight(PartitionId(2), PartitionId(3)), 2);
        assert_eq!(mg.weight(PartitionId(0), PartitionId(3)), 1);
        assert_eq!(mg.weight(PartitionId(0), PartitionId(2)), 0);
        assert_eq!(mg.total_weight(), 5);
    }

    #[test]
    fn weight_is_symmetric() {
        let mg = MetaGraph::from_partitioned(&fig1());
        assert_eq!(mg.weight(PartitionId(3), PartitionId(2)), mg.weight(PartitionId(2), PartitionId(3)));
    }

    #[test]
    fn contract_merges_pairs_and_sums_weights() {
        let mg = MetaGraph::from_partitioned(&fig1());
        // Merge P0 into P1 and P2 into P3 (paper's level-0 choice is P3/P4 and P1/P2).
        let mut parent = HashMap::new();
        parent.insert(PartitionId(0), PartitionId(1));
        parent.insert(PartitionId(2), PartitionId(3));
        let next = mg.contract(&parent);
        assert_eq!(next.num_vertices(), 2);
        // Remaining cut edges between merged P1 and merged P3: e3,13 and e12,14 = weight 2.
        assert_eq!(next.weight(PartitionId(1), PartitionId(3)), 2);
        assert_eq!(next.num_edges(), 1);
    }

    #[test]
    fn contract_to_single_vertex_has_no_edges() {
        let mg = MetaGraph::from_partitioned(&fig1());
        let mut parent = HashMap::new();
        for p in 0..4 {
            parent.insert(PartitionId(p), PartitionId(3));
        }
        let next = mg.contract(&parent);
        assert_eq!(next.num_vertices(), 1);
        assert_eq!(next.num_edges(), 0);
    }

    #[test]
    fn from_weights_orders_endpoints() {
        let mg = MetaGraph::from_weights(vec![PartitionId(0), PartitionId(1)], &[(PartitionId(1), PartitionId(0), 7)]);
        assert_eq!(mg.edges[0].a, PartitionId(0));
        assert_eq!(mg.edges[0].b, PartitionId(1));
        assert_eq!(mg.weight(PartitionId(0), PartitionId(1)), 7);
    }
}
