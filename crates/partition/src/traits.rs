//! The [`Partitioner`] and [`StreamingPartitioner`] traits implemented by
//! every partitioning strategy.

use euler_graph::{EdgeStream, Graph, GraphError, PartitionAssignment, StreamOrder};

/// A strategy that assigns every vertex of a graph to one of `k` partitions.
pub trait Partitioner {
    /// Number of partitions this partitioner produces.
    fn num_partitions(&self) -> u32;

    /// Computes a partition assignment for `g`.
    ///
    /// Implementations must return an assignment covering every vertex of `g`
    /// with labels in `0..num_partitions()`.
    fn partition(&self, g: &Graph) -> PartitionAssignment;

    /// Human-readable name used in reports and benches.
    fn name(&self) -> &'static str {
        "partitioner"
    }

    /// This partitioner's streaming view, if its algorithm can consume
    /// chunked edge batches instead of a resident [`Graph`]. The pipeline
    /// uses it to partition memory-mapped `.ecsr` sources without ever
    /// materialising the graph. Default: `None` (whole-graph only).
    fn as_streaming(&self) -> Option<&dyn StreamingPartitioner> {
        None
    }
}

/// A partitioning strategy that consumes chunked edge batches in bounded
/// memory.
///
/// A streaming partitioner never sees a [`Graph`]: it is handed an
/// [`EdgeStream`] and keeps only its own state — for LDG, a vertex→partition
/// map plus per-partition load counters. Implementations declare which
/// [`StreamOrder`]s they can consume via
/// [`supports`](StreamingPartitioner::supports); handing them an unsupported
/// stream is a typed [`GraphError::UnsupportedStream`], not a wrong answer.
///
/// The whole-graph [`Partitioner`] impls of [`crate::HashPartitioner`] and
/// [`crate::LdgPartitioner`] are thin adapters over this trait (they stream
/// the resident graph's adjacency), so the streaming and in-memory paths
/// produce identical assignments by construction.
pub trait StreamingPartitioner {
    /// Number of partitions this partitioner produces.
    fn num_partitions(&self) -> u32;

    /// Whether this partitioner can consume a stream delivering `order`.
    fn supports(&self, order: StreamOrder) -> bool;

    /// Computes a partition assignment from one pass over `stream`.
    ///
    /// # Errors
    /// [`GraphError::UnsupportedStream`] when the stream's order or metadata
    /// cannot satisfy this partitioner; producer-side I/O or parse errors
    /// are passed through.
    fn partition_stream(&self, stream: &mut dyn EdgeStream) -> Result<PartitionAssignment, GraphError>;

    /// Human-readable name used in reports and benches.
    fn name(&self) -> &'static str {
        "streaming-partitioner"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::builder::graph_from_edges;
    use euler_graph::PartitionId;

    struct RoundRobin(u32);

    impl Partitioner for RoundRobin {
        fn num_partitions(&self) -> u32 {
            self.0
        }
        fn partition(&self, g: &Graph) -> PartitionAssignment {
            let labels = (0..g.num_vertices()).map(|v| (v % self.0 as u64) as u32).collect();
            PartitionAssignment::from_labels(labels, self.0).unwrap()
        }
        fn name(&self) -> &'static str {
            "round-robin"
        }
    }

    #[test]
    fn trait_object_usable() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let p: Box<dyn Partitioner> = Box::new(RoundRobin(2));
        let a = p.partition(&g);
        assert_eq!(a.num_partitions(), 2);
        assert_eq!(a.partition_of(euler_graph::VertexId(2)), PartitionId(0));
        assert_eq!(p.name(), "round-robin");
        // Streaming is opt-in; plain whole-graph partitioners default out.
        assert!(p.as_streaming().is_none());
    }
}
