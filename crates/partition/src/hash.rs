//! Hash partitioner: perfectly balanced, oblivious to structure.

use crate::traits::{Partitioner, StreamingPartitioner};
use euler_graph::{EdgeStream, Graph, GraphEdgeStream, GraphError, PartitionAssignment, StreamOrder};

/// Assigns vertex `v` to partition `hash(v) % k`.
///
/// This is the default placement of most Big Data platforms and serves as the
/// "no partitioner" baseline: balance is near-perfect but the expected edge
/// cut is `(k-1)/k` of all edges, the worst case for the Euler circuit
/// algorithm's communication volume.
#[derive(Clone, Copy, Debug)]
pub struct HashPartitioner {
    k: u32,
    seed: u64,
}

impl HashPartitioner {
    /// Creates a hash partitioner for `k` partitions.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need at least one partition");
        HashPartitioner { k, seed: 0x51_7c_c1_b7_27_22_0a_95 }
    }

    /// Uses a custom hash seed (useful to test robustness to placement).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    #[inline]
    fn hash(&self, v: u64) -> u64 {
        // splitmix64 finaliser — fast, well-distributed for sequential ids.
        let mut x = v.wrapping_add(self.seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The closed-form assignment: `hash(v) % k` for every vertex. Both the
    /// whole-graph and streaming paths end here, so they are identical by
    /// construction.
    fn assign(&self, num_vertices: u64) -> PartitionAssignment {
        let labels: Vec<u32> = (0..num_vertices).map(|v| (self.hash(v) % self.k as u64) as u32).collect();
        PartitionAssignment::from_labels(labels, self.k).expect("labels are always < k")
    }
}

impl Partitioner for HashPartitioner {
    fn num_partitions(&self) -> u32 {
        self.k
    }

    fn partition(&self, g: &Graph) -> PartitionAssignment {
        self.partition_stream(&mut GraphEdgeStream::new(g)).expect("in-memory streams cannot fail")
    }

    fn name(&self) -> &'static str {
        "hash"
    }

    fn as_streaming(&self) -> Option<&dyn StreamingPartitioner> {
        Some(self)
    }
}

impl StreamingPartitioner for HashPartitioner {
    fn num_partitions(&self) -> u32 {
        self.k
    }

    /// Placement depends on vertex ids alone, so any order works.
    fn supports(&self, _order: StreamOrder) -> bool {
        true
    }

    fn partition_stream(&self, stream: &mut dyn EdgeStream) -> Result<PartitionAssignment, GraphError> {
        // A known count needs no pass at all; text parses discover it.
        let n = match stream.num_vertices() {
            Some(n) => n,
            None => stream.stream(&mut |_| {})?.num_vertices,
        };
        Ok(self.assign(n))
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::builder::graph_from_edges;
    use euler_graph::PartitionedGraph;

    #[test]
    fn covers_every_vertex() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let a = HashPartitioner::new(3).partition(&g);
        assert_eq!(a.num_vertices(), g.num_vertices());
        assert_eq!(a.num_partitions(), 3);
    }

    #[test]
    fn balance_is_good_on_large_inputs() {
        let mut b = euler_graph::GraphBuilder::with_vertices(10_000);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let a = HashPartitioner::new(8).partition(&g);
        // Imbalance well under 10% for 10k vertices over 8 parts.
        assert!(a.imbalance() < 0.10, "imbalance {}", a.imbalance());
    }

    #[test]
    fn single_partition_has_no_cut() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let a = HashPartitioner::new(1).partition(&g);
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        assert_eq!(pg.cut_edges(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let a1 = HashPartitioner::new(2).partition(&g);
        let a2 = HashPartitioner::new(2).partition(&g);
        for v in g.vertices() {
            assert_eq!(a1.partition_of(v), a2.partition_of(v));
        }
    }

    #[test]
    fn different_seed_changes_placement() {
        let mut b = euler_graph::GraphBuilder::with_vertices(1000);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let a1 = HashPartitioner::new(4).partition(&g);
        let a2 = HashPartitioner::new(4).with_seed(7).partition(&g);
        let moved = g.vertices().filter(|&v| a1.partition_of(v) != a2.partition_of(v)).count();
        assert!(moved > 0);
    }
}
