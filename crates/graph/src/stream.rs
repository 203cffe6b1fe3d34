//! Chunked edge streams — the bounded-memory view of a graph's edges.
//!
//! The W-streaming line of Euler-tour work (Glazik et al.) and the StrSort
//! external-memory line (Kliemann et al.) both observe that partitioning and
//! tour construction consume *edges in an order*, not a resident graph. The
//! [`EdgeStream`] trait is that observation as an interface: a producer
//! pushes the graph's (half-)edges through a sink in bounded-size batches,
//! declaring the [`StreamOrder`] it can honour, and a consumer (such as a
//! [`euler-partition` streaming partitioner]) keeps only its own
//! bounded state — never the edges themselves.
//!
//! Three producers ship, one per [`crate::GraphSource`]:
//!
//! * [`GraphEdgeStream`] walks a resident [`Graph`]'s adjacency — the
//!   vertex-grouped order, used to prove streaming consumers identical to
//!   their whole-graph counterparts.
//! * [`CsrFileEdgeStream`] walks the mapped offsets/targets sections of a
//!   binary `.ecsr` [`CsrFile`] — the same vertex-grouped order, straight
//!   off the file, so a partitioner can run without any [`Graph`] in memory.
//! * [`crate::EdgeListFileSource`] streams a plain-text edge list in file
//!   (edge-id) order via [`crate::source::EdgeListEdgeStream`].
//!
//! [`euler-partition` streaming partitioner]: crate::GraphSource::edge_stream

use crate::csr_file::CsrFile;
use crate::error::GraphError;
use crate::graph::Graph;

/// The order in which an [`EdgeStream`] delivers its entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamOrder {
    /// Half-edges grouped by source vertex, sources ascending: every
    /// undirected edge `{u, v}` appears twice — once as `(u, v)` inside `u`'s
    /// group and once as `(v, u)` inside `v`'s group — and a self-loop
    /// appears twice in its vertex's group, exactly mirroring
    /// [`Graph::neighbors`]. Vertices without edges simply have no group.
    VertexGrouped,
    /// One entry `(u, v)` per undirected edge, ascending by edge id
    /// (insertion/file order).
    EdgeIdOrder,
}

impl std::fmt::Display for StreamOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamOrder::VertexGrouped => write!(f, "vertex-grouped half-edges"),
            StreamOrder::EdgeIdOrder => write!(f, "edge-id-ordered edges"),
        }
    }
}

/// Counts established by one full pass of an [`EdgeStream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// Vertex count of the streamed graph — for producers that discover it
    /// (text parses), the same count the equivalent [`Graph`] build would
    /// have produced (largest id seen plus one, or a declared header count
    /// if larger).
    pub num_vertices: u64,
    /// Entries delivered: `2m` for [`StreamOrder::VertexGrouped`], `m` for
    /// [`StreamOrder::EdgeIdOrder`].
    pub entries: u64,
}

/// Default number of `(u64, u64)` entries per delivered batch (1 MiB).
pub const DEFAULT_BATCH_ENTRIES: usize = 64 * 1024;

/// The sink an [`EdgeStream`] delivers its batches to.
pub type EdgeBatchSink<'a> = dyn FnMut(&[(u64, u64)]) + 'a;

/// The sink an id-carrying stream pass delivers its batches to: entries are
/// `(edge_id, u, v)`, so a consumer that must tie each entry back to the
/// graph's stable [`crate::EdgeId`]s (the W-streaming tour builder) can do so
/// without a resident graph.
pub type IdEdgeBatchSink<'a> = dyn FnMut(&[(u64, u64, u64)]) + 'a;

/// A bounded-memory producer of a graph's edges.
///
/// One call to [`stream`](EdgeStream::stream) delivers every entry, in the
/// declared [`order`](EdgeStream::order), through the sink in bounded-size
/// batches; the producer holds at most one batch (plus any read chunk) in
/// flight. Streams are restartable: every `stream` call begins a fresh pass.
pub trait EdgeStream {
    /// The order entries are delivered in.
    fn order(&self) -> StreamOrder;

    /// The vertex count, when it is known *before* streaming (resident
    /// graphs and CSR files know it; chunked text parses discover it and
    /// return `None` here, reporting it in the [`StreamSummary`] instead).
    fn num_vertices(&self) -> Option<u64>;

    /// Streams every entry through `sink` in bounded batches.
    ///
    /// # Errors
    /// Producer-side failures only (I/O, parse); in-memory producers never
    /// fail.
    fn stream(&mut self, sink: &mut EdgeBatchSink<'_>) -> Result<StreamSummary, GraphError>;

    /// Streams every entry as `(edge_id, u, v)` through `sink` in bounded
    /// batches — the feed for consumers that must name each edge by its
    /// stable [`crate::EdgeId`] (the W-streaming tour builder names edges in
    /// the circuit it emits).
    ///
    /// For [`StreamOrder::EdgeIdOrder`] producers the ids are the stream
    /// positions by definition, so the default implementation wraps
    /// [`stream`](EdgeStream::stream) and counts. Vertex-grouped producers
    /// deliver each undirected edge twice and must override this to attach
    /// the true id to both half-edges; the default refuses with
    /// [`GraphError::UnsupportedStream`] rather than fabricate ids.
    ///
    /// # Errors
    /// Producer-side failures, plus [`GraphError::UnsupportedStream`] for
    /// vertex-grouped producers without an override.
    fn stream_with_ids(&mut self, sink: &mut IdEdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
        match self.order() {
            StreamOrder::EdgeIdOrder => {
                let mut next_id = 0u64;
                let mut scratch: Vec<(u64, u64, u64)> = Vec::new();
                self.stream(&mut |batch| {
                    scratch.clear();
                    scratch.reserve(batch.len());
                    for &(u, v) in batch {
                        scratch.push((next_id, u, v));
                        next_id += 1;
                    }
                    sink(&scratch);
                })
            }
            StreamOrder::VertexGrouped => Err(GraphError::UnsupportedStream {
                consumer: "stream_with_ids".to_string(),
                message: "vertex-grouped producer has no edge-id override; \
                          ids cannot be inferred from half-edge positions"
                    .to_string(),
            }),
        }
    }
}

/// Vertex-grouped stream over a resident [`Graph`]'s adjacency.
///
/// This is the adapter that lets a whole-graph
/// `Partitioner::partition(&Graph)` call reuse its streaming core — the
/// entries come out in exactly the order [`CsrFileEdgeStream`] produces for
/// the same graph packed to `.ecsr`, so the two paths yield identical
/// assignments by construction.
#[derive(Debug)]
pub struct GraphEdgeStream<'a> {
    g: &'a Graph,
    batch_entries: usize,
}

impl<'a> GraphEdgeStream<'a> {
    /// A stream over `g`'s adjacency.
    pub fn new(g: &'a Graph) -> Self {
        GraphEdgeStream { g, batch_entries: DEFAULT_BATCH_ENTRIES }
    }

    /// Sets the batch size in entries (minimum 1; useful in tests to force
    /// group-spanning batch boundaries).
    pub fn with_batch_entries(mut self, entries: usize) -> Self {
        self.batch_entries = entries.max(1);
        self
    }
}

impl EdgeStream for GraphEdgeStream<'_> {
    fn order(&self) -> StreamOrder {
        StreamOrder::VertexGrouped
    }

    fn num_vertices(&self) -> Option<u64> {
        Some(self.g.num_vertices())
    }

    fn stream(&mut self, sink: &mut EdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
        let mut batch = Vec::with_capacity(self.batch_entries);
        let mut entries = 0u64;
        for v in self.g.vertices() {
            for &(nbr, _) in self.g.neighbors(v) {
                batch.push((v.0, nbr.0));
                entries += 1;
                if batch.len() == self.batch_entries {
                    sink(&batch);
                    batch.clear();
                }
            }
        }
        if !batch.is_empty() {
            sink(&batch);
        }
        Ok(StreamSummary { num_vertices: self.g.num_vertices(), entries })
    }

    fn stream_with_ids(&mut self, sink: &mut IdEdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
        let mut batch = Vec::with_capacity(self.batch_entries);
        let mut entries = 0u64;
        for v in self.g.vertices() {
            for &(nbr, e) in self.g.neighbors(v) {
                batch.push((e.0, v.0, nbr.0));
                entries += 1;
                if batch.len() == self.batch_entries {
                    sink(&batch);
                    batch.clear();
                }
            }
        }
        if !batch.is_empty() {
            sink(&batch);
        }
        Ok(StreamSummary { num_vertices: self.g.num_vertices(), entries })
    }
}

/// Vertex-grouped stream over the mapped offsets/targets sections of a
/// [`CsrFile`] — the zero-`Graph` feed for streaming partitioners.
///
/// Pages of the mapped sections fault in as the pass advances and are free
/// to be evicted behind it; nothing beyond the current batch is retained.
#[derive(Debug)]
pub struct CsrFileEdgeStream<'a> {
    csr: &'a CsrFile,
    batch_entries: usize,
}

impl<'a> CsrFileEdgeStream<'a> {
    /// A stream over the mapped CSR adjacency of `csr`.
    pub fn new(csr: &'a CsrFile) -> Self {
        CsrFileEdgeStream { csr, batch_entries: DEFAULT_BATCH_ENTRIES }
    }

    /// Sets the batch size in entries (minimum 1).
    pub fn with_batch_entries(mut self, entries: usize) -> Self {
        self.batch_entries = entries.max(1);
        self
    }
}

impl EdgeStream for CsrFileEdgeStream<'_> {
    fn order(&self) -> StreamOrder {
        StreamOrder::VertexGrouped
    }

    fn num_vertices(&self) -> Option<u64> {
        Some(self.csr.num_vertices())
    }

    fn stream(&mut self, sink: &mut EdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
        let offsets = self.csr.offsets();
        let targets = self.csr.targets();
        let mut batch = Vec::with_capacity(self.batch_entries);
        for v in 0..self.csr.num_vertices() as usize {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for &t in &targets[lo..hi] {
                batch.push((v as u64, t));
                if batch.len() == self.batch_entries {
                    sink(&batch);
                    batch.clear();
                }
            }
        }
        if !batch.is_empty() {
            sink(&batch);
        }
        Ok(StreamSummary { num_vertices: self.csr.num_vertices(), entries: 2 * self.csr.num_edges() })
    }

    fn stream_with_ids(&mut self, sink: &mut IdEdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
        let offsets = self.csr.offsets();
        let targets = self.csr.targets();
        let edge_ids = self.csr.edge_ids();
        let mut batch = Vec::with_capacity(self.batch_entries);
        for v in 0..self.csr.num_vertices() as usize {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for slot in lo..hi {
                batch.push((edge_ids[slot], v as u64, targets[slot]));
                if batch.len() == self.batch_entries {
                    sink(&batch);
                    batch.clear();
                }
            }
        }
        if !batch.is_empty() {
            sink(&batch);
        }
        Ok(StreamSummary { num_vertices: self.csr.num_vertices(), entries: 2 * self.csr.num_edges() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::csr_file::write_csr_file;

    fn collect(stream: &mut dyn EdgeStream) -> (Vec<(u64, u64)>, StreamSummary) {
        let mut all = Vec::new();
        let summary = stream.stream(&mut |batch| all.extend_from_slice(batch)).unwrap();
        (all, summary)
    }

    #[test]
    fn graph_stream_mirrors_adjacency_for_every_batch_size() {
        let mut b = GraphBuilder::with_vertices(6);
        b.extend_edges([(0, 1), (1, 0), (4, 2), (2, 2)]); // parallel + self-loop + isolated
        let g = b.build().unwrap();
        let expected: Vec<(u64, u64)> =
            g.vertices().flat_map(|v| g.neighbors(v).iter().map(move |&(n, _)| (v.0, n.0))).collect();
        for batch in [1usize, 2, 3, 1024] {
            let mut s = GraphEdgeStream::new(&g).with_batch_entries(batch);
            assert_eq!(s.order(), StreamOrder::VertexGrouped);
            assert_eq!(s.num_vertices(), Some(6));
            let (all, summary) = collect(&mut s);
            assert_eq!(all, expected, "batch {batch}");
            assert_eq!(summary, StreamSummary { num_vertices: 6, entries: 8 });
        }
    }

    #[test]
    fn csr_stream_is_bit_identical_to_the_graph_stream() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 2), (1, 1)]);
        let path = std::env::temp_dir().join("euler_graph_stream_test.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let (from_graph, gs) = collect(&mut GraphEdgeStream::new(&g));
        let (from_csr, cs) = collect(&mut CsrFileEdgeStream::new(&csr).with_batch_entries(3));
        assert_eq!(from_graph, from_csr);
        assert_eq!(gs, cs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streams_are_restartable() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let mut s = GraphEdgeStream::new(&g);
        let (first, _) = collect(&mut s);
        let (second, _) = collect(&mut s);
        assert_eq!(first, second);
    }

    #[test]
    fn empty_graph_streams_nothing() {
        let g = Graph::empty(3);
        let (all, summary) = collect(&mut GraphEdgeStream::new(&g));
        assert!(all.is_empty());
        assert_eq!(summary, StreamSummary { num_vertices: 3, entries: 0 });
    }

    #[test]
    fn order_displays_name_the_shape() {
        assert!(StreamOrder::VertexGrouped.to_string().contains("vertex"));
        assert!(StreamOrder::EdgeIdOrder.to_string().contains("edge-id"));
    }

    fn collect_ids(stream: &mut dyn EdgeStream) -> (Vec<(u64, u64, u64)>, StreamSummary) {
        let mut all = Vec::new();
        let summary = stream.stream_with_ids(&mut |batch| all.extend_from_slice(batch)).unwrap();
        (all, summary)
    }

    #[test]
    fn graph_id_stream_attaches_stable_edge_ids_to_both_half_edges() {
        let mut b = GraphBuilder::with_vertices(5);
        b.extend_edges([(0, 1), (1, 0), (2, 2), (3, 4)]); // parallel + self-loop
        let g = b.build().unwrap();
        for batch in [1usize, 3, 1024] {
            let mut s = GraphEdgeStream::new(&g).with_batch_entries(batch);
            let (all, summary) = collect_ids(&mut s);
            assert_eq!(summary.entries, 8, "batch {batch}");
            assert_eq!(all.len(), 8);
            // Every entry's id resolves to the entry's own endpoints.
            for &(e, u, v) in &all {
                let (a, b) = g.endpoints(crate::EdgeId(e));
                assert!((a.0, b.0) == (u, v) || (a.0, b.0) == (v, u));
            }
            // Each edge id appears exactly twice (self-loops twice in one group).
            let mut counts = vec![0u32; g.num_edges() as usize];
            for &(e, _, _) in &all {
                counts[e as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c == 2));
        }
    }

    #[test]
    fn csr_id_stream_is_bit_identical_to_the_graph_id_stream() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 2), (1, 1)]);
        let path = std::env::temp_dir().join("euler_graph_stream_ids_test.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let (from_graph, gs) = collect_ids(&mut GraphEdgeStream::new(&g));
        let (from_csr, cs) = collect_ids(&mut CsrFileEdgeStream::new(&csr).with_batch_entries(3));
        assert_eq!(from_graph, from_csr);
        assert_eq!(gs, cs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_id_order_default_counts_positions_as_ids() {
        // A hand-rolled EdgeIdOrder producer exercises the trait default.
        struct Listed(Vec<(u64, u64)>);
        impl EdgeStream for Listed {
            fn order(&self) -> StreamOrder {
                StreamOrder::EdgeIdOrder
            }
            fn num_vertices(&self) -> Option<u64> {
                None
            }
            fn stream(&mut self, sink: &mut EdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
                for chunk in self.0.chunks(2) {
                    sink(chunk);
                }
                Ok(StreamSummary { num_vertices: 3, entries: self.0.len() as u64 })
            }
        }
        let mut s = Listed(vec![(0, 1), (1, 2), (2, 0)]);
        let (all, summary) = collect_ids(&mut s);
        assert_eq!(all, vec![(0, 0, 1), (1, 1, 2), (2, 2, 0)]);
        assert_eq!(summary.entries, 3);
    }

    #[test]
    fn vertex_grouped_default_refuses_id_streaming() {
        struct Grouped;
        impl EdgeStream for Grouped {
            fn order(&self) -> StreamOrder {
                StreamOrder::VertexGrouped
            }
            fn num_vertices(&self) -> Option<u64> {
                Some(0)
            }
            fn stream(&mut self, _sink: &mut EdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
                Ok(StreamSummary { num_vertices: 0, entries: 0 })
            }
        }
        let err = Grouped.stream_with_ids(&mut |_| {}).unwrap_err();
        assert!(matches!(err, GraphError::UnsupportedStream { .. }));
    }
}
