//! Linear Deterministic Greedy (LDG) streaming partitioner.
//!
//! Stanton & Kliot's streaming heuristic: vertices are considered in a single
//! pass; each vertex is placed on the partition that already holds the most
//! of its neighbours, discounted by a load penalty `(1 - |P|/C)` where `C` is
//! the per-partition capacity. It produces balanced partitions with much
//! lower cut than hashing on power-law graphs and is the default partitioner
//! for the paper-scale experiments (playing the role of ParHIP).
//!
//! The algorithm is *genuinely* streaming here: the core
//! ([`StreamingPartitioner::partition_stream`]) consumes vertex-grouped edge
//! batches from any [`EdgeStream`] — a resident graph's adjacency or the
//! mapped sections of a binary `.ecsr` file — and keeps only the
//! vertex→partition map plus per-partition load counters. The whole-graph
//! [`Partitioner`] impl is a thin adapter that streams the graph's own
//! adjacency, so both paths produce identical assignments by construction.
//! Placement follows the stream (ascending vertex id); in that order a
//! vertex's placed neighbours are exactly its lower-id neighbours, which is
//! why one pass suffices. An optional BFS placement order
//! ([`with_bfs_order`](LdgPartitioner::with_bfs_order)) is kept for
//! mesh-locality experiments; it needs random access to the graph and
//! therefore has no streaming view.

use crate::traits::{Partitioner, StreamingPartitioner};
use euler_graph::{EdgeStream, Graph, GraphEdgeStream, GraphError, PartitionAssignment, StreamOrder, VertexId};

/// Capacity slack: per-partition capacity is `ceil(n/k) * (1 + SLACK)`.
const SLACK: f64 = 0.05;

/// LDG streaming partitioner.
#[derive(Clone, Copy, Debug)]
pub struct LdgPartitioner {
    k: u32,
    /// If true, vertices are placed in BFS order from vertex 0 instead of
    /// stream (id) order — a whole-graph-only variant.
    bfs_order: bool,
}

/// Bounded state of one streaming LDG pass: the vertex→partition map, the
/// per-partition load counters and the current vertex's neighbour counts —
/// nothing proportional to the edge count.
struct LdgState {
    k: usize,
    capacity: f64,
    labels: Vec<u32>,
    sizes: Vec<f64>,
    neighbour_counts: Vec<u64>,
    /// Vertex whose group is currently being accumulated, if any.
    group: Option<u64>,
    /// All vertices `< placed_upto` have been placed.
    placed_upto: u64,
}

const UNPLACED: u32 = u32::MAX;

impl LdgState {
    fn new(n: u64, k: usize) -> Self {
        let capacity = ((n as f64 / k as f64).ceil() * (1.0 + SLACK)).ceil().max(1.0);
        LdgState {
            k,
            capacity,
            labels: vec![UNPLACED; n as usize],
            sizes: vec![0.0; k],
            neighbour_counts: vec![0; k],
            group: None,
            placed_upto: 0,
        }
    }

    /// Scores and places one vertex using the accumulated neighbour counts
    /// (all zero for isolated vertices).
    fn place(&mut self, v: u64) {
        // Score: neighbours already in partition, discounted by fullness.
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..self.k {
            let penalty = 1.0 - self.sizes[p] / self.capacity;
            let score = self.neighbour_counts[p] as f64 * penalty.max(0.0)
                // Tie-break toward the emptiest partition so isolated
                // vertices spread out.
                + penalty * 1e-6;
            if score > best_score {
                best_score = score;
                best = p;
            }
        }
        self.labels[v as usize] = best as u32;
        self.sizes[best] += 1.0;
        self.neighbour_counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Finalises the group being accumulated and places every vertex up to
    /// (excluding) `upto` — the edgeless vertices the stream never mentions.
    fn place_through(&mut self, upto: u64) {
        if let Some(g) = self.group.take() {
            self.place(g);
            self.placed_upto = g + 1;
        }
        while self.placed_upto < upto {
            self.place(self.placed_upto);
            self.placed_upto += 1;
        }
    }

    /// Consumes one vertex-grouped half-edge `(u, v)`.
    fn feed(&mut self, u: u64, v: u64) {
        if self.group != Some(u) {
            self.place_through(u);
            self.group = Some(u);
        }
        // Only already-placed neighbours count — in ascending-id placement
        // these are exactly the lower-id ones, so one pass is enough.
        let l = self.labels[v as usize];
        if l != UNPLACED {
            self.neighbour_counts[l as usize] += 1;
        }
    }

    fn finish(mut self, k: u32) -> PartitionAssignment {
        let n = self.labels.len() as u64;
        self.place_through(n);
        PartitionAssignment::from_labels(self.labels, k).expect("all labels assigned < k")
    }
}

impl LdgPartitioner {
    /// Creates an LDG partitioner for `k` partitions with 5 % capacity slack,
    /// placing vertices in stream (ascending id) order.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        LdgPartitioner { k, bfs_order: false }
    }

    /// Chooses BFS placement order from vertex 0 (better locality than id
    /// order on some generator outputs). BFS needs random access to the
    /// graph, so this variant partitions resident graphs only —
    /// [`as_streaming`](Partitioner::as_streaming) returns `None`.
    pub fn with_bfs_order(mut self) -> Self {
        self.bfs_order = true;
        self
    }

    /// Chooses stream (ascending id) placement order — the default.
    pub fn with_id_order(mut self) -> Self {
        self.bfs_order = false;
        self
    }

    /// The whole-graph BFS-order variant: identical scoring, but vertices
    /// are placed in BFS discovery order and may look at all (placed)
    /// neighbours, which requires the resident adjacency.
    fn partition_bfs(&self, g: &Graph) -> PartitionAssignment {
        let n = g.num_vertices() as usize;
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            queue.push_back(VertexId(start as u64));
            while let Some(v) = queue.pop_front() {
                order.push(v);
                for &(nbr, _) in g.neighbors(v) {
                    if !visited[nbr.index()] {
                        visited[nbr.index()] = true;
                        queue.push_back(nbr);
                    }
                }
            }
        }
        let mut state = LdgState::new(g.num_vertices(), self.k as usize);
        for v in order {
            for &(nbr, _) in g.neighbors(v) {
                let l = state.labels[nbr.index()];
                if l != UNPLACED {
                    state.neighbour_counts[l as usize] += 1;
                }
            }
            state.place(v.0);
        }
        PartitionAssignment::from_labels(state.labels, self.k).expect("all labels assigned < k")
    }
}

impl Partitioner for LdgPartitioner {
    fn num_partitions(&self) -> u32 {
        self.k
    }

    fn partition(&self, g: &Graph) -> PartitionAssignment {
        if self.bfs_order {
            return self.partition_bfs(g);
        }
        self.partition_stream(&mut GraphEdgeStream::new(g)).expect("in-memory streams cannot fail")
    }

    fn name(&self) -> &'static str {
        "ldg"
    }

    fn as_streaming(&self) -> Option<&dyn StreamingPartitioner> {
        if self.bfs_order {
            None
        } else {
            Some(self)
        }
    }
}

impl StreamingPartitioner for LdgPartitioner {
    fn num_partitions(&self) -> u32 {
        self.k
    }

    /// Greedy placement needs each vertex's full neighbour group at
    /// placement time, so only vertex-grouped streams qualify.
    fn supports(&self, order: StreamOrder) -> bool {
        order == StreamOrder::VertexGrouped
    }

    fn partition_stream(&self, stream: &mut dyn EdgeStream) -> Result<PartitionAssignment, GraphError> {
        if stream.order() != StreamOrder::VertexGrouped {
            return Err(GraphError::UnsupportedStream {
                consumer: "ldg".into(),
                message: format!("needs {} (got {})", StreamOrder::VertexGrouped, stream.order()),
            });
        }
        let n = stream.num_vertices().ok_or_else(|| GraphError::UnsupportedStream {
            consumer: "ldg".into(),
            message: "needs the vertex count before streaming (capacity C = ⌈n/k⌉)".into(),
        })?;
        let mut state = LdgState::new(n, self.k as usize);
        stream.stream(&mut |batch| {
            for &(u, v) in batch {
                state.feed(u, v);
            }
        })?;
        Ok(state.finish(self.k))
    }

    fn name(&self) -> &'static str {
        "ldg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashPartitioner;
    use crate::stats::PartitionQuality;
    use euler_gen::synthetic;
    use euler_graph::{write_csr_file, CsrFile, CsrFileEdgeStream};

    #[test]
    fn covers_every_vertex_with_valid_labels() {
        let g = synthetic::torus_grid(10, 10);
        let a = LdgPartitioner::new(4).partition(&g);
        assert_eq!(a.num_vertices(), g.num_vertices());
        for v in g.vertices() {
            assert!(a.partition_of(v).0 < 4);
        }
    }

    #[test]
    fn ldg_beats_hash_on_cut_for_mesh_graphs() {
        let g = synthetic::torus_grid(24, 24);
        let ldg = LdgPartitioner::new(4).partition(&g);
        let hash = HashPartitioner::new(4).partition(&g);
        let q_ldg = PartitionQuality::evaluate(&g, &ldg);
        let q_hash = PartitionQuality::evaluate(&g, &hash);
        assert!(q_ldg.cut_fraction < q_hash.cut_fraction, "ldg {} vs hash {}", q_ldg.cut_fraction, q_hash.cut_fraction);
    }

    #[test]
    fn bfs_order_also_beats_hash_on_cut() {
        let g = synthetic::torus_grid(24, 24);
        let ldg = LdgPartitioner::new(4).with_bfs_order().partition(&g);
        let hash = HashPartitioner::new(4).partition(&g);
        let q_ldg = PartitionQuality::evaluate(&g, &ldg);
        let q_hash = PartitionQuality::evaluate(&g, &hash);
        assert!(q_ldg.cut_fraction < q_hash.cut_fraction);
    }

    #[test]
    fn balance_respects_slack_roughly() {
        let g = synthetic::torus_grid(20, 20);
        let a = LdgPartitioner::new(5).partition(&g);
        let sizes = a.partition_sizes();
        let max = *sizes.iter().max().unwrap() as f64;
        let ideal = g.num_vertices() as f64 / 5.0;
        assert!(max <= ideal * 1.40, "max {max} ideal {ideal}");
    }

    #[test]
    fn id_order_variant_also_covers() {
        let g = synthetic::circulant(60, &[1, 2]);
        let a = LdgPartitioner::new(3).with_id_order().partition(&g);
        assert_eq!(a.num_vertices(), 60);
    }

    #[test]
    fn single_partition_trivial() {
        let g = synthetic::cycle(10);
        let a = LdgPartitioner::new(1).partition(&g);
        assert!(g.vertices().all(|v| a.partition_of(v).0 == 0));
    }

    #[test]
    fn deterministic() {
        let g = synthetic::random_eulerian_connected(100, 10, 5, 3);
        let a1 = LdgPartitioner::new(4).partition(&g);
        let a2 = LdgPartitioner::new(4).partition(&g);
        for v in g.vertices() {
            assert_eq!(a1.partition_of(v), a2.partition_of(v));
        }
    }

    #[test]
    fn streaming_a_packed_csr_matches_the_whole_graph_path() {
        let g = synthetic::random_eulerian_connected(150, 20, 6, 11);
        let path = std::env::temp_dir().join("euler_partition_ldg_stream.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let ldg = LdgPartitioner::new(5);
        let from_graph = ldg.partition(&g);
        // Tiny batches force group-spanning boundaries; placement must not
        // depend on delivery granularity.
        for batch in [1usize, 7, 1 << 16] {
            let mut stream = CsrFileEdgeStream::new(&csr).with_batch_entries(batch);
            let from_csr = ldg.partition_stream(&mut stream).unwrap();
            for v in g.vertices() {
                assert_eq!(from_csr.partition_of(v), from_graph.partition_of(v), "batch {batch}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn isolated_tail_vertices_are_placed() {
        // Vertices 4..8 have no edges and never appear in the stream.
        let mut b = euler_graph::GraphBuilder::with_vertices(8);
        b.extend_edges([(0, 1), (1, 2), (2, 0), (3, 0), (0, 3)]);
        let g = b.build().unwrap();
        let a = LdgPartitioner::new(3).partition(&g);
        assert_eq!(a.num_vertices(), 8);
        for v in g.vertices() {
            assert!(a.partition_of(v).0 < 3);
        }
    }

    #[test]
    fn rejects_edge_id_ordered_streams_with_a_typed_error() {
        let g = synthetic::cycle(6);
        let dir = std::env::temp_dir();
        let path = dir.join("euler_partition_ldg_order.el");
        euler_graph::io::write_edge_list_file(&g, &path).unwrap();
        let src = euler_graph::EdgeListFileSource::new(&path);
        let mut stream = euler_graph::GraphSource::edge_stream(&src).unwrap();
        let ldg = LdgPartitioner::new(2);
        assert!(!StreamingPartitioner::supports(&ldg, stream.order()));
        let err = ldg.partition_stream(stream.as_mut()).unwrap_err();
        assert!(matches!(err, euler_graph::GraphError::UnsupportedStream { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bfs_variant_has_no_streaming_view() {
        let ldg = LdgPartitioner::new(2);
        assert!(Partitioner::as_streaming(&ldg).is_some());
        assert!(Partitioner::as_streaming(&ldg.with_bfs_order()).is_none());
        assert!(Partitioner::as_streaming(&ldg.with_bfs_order().with_id_order()).is_some());
    }
}
