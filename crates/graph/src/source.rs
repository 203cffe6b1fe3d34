//! Graph input sources — the load seam of the Euler pipeline.
//!
//! The W-streaming line of Euler-tour work (Glazik et al.; Kliemann et al.)
//! observes that the algorithm consumes edges, not a resident graph: what
//! matters is the order edges are fed in, not how they are stored. The
//! [`GraphSource`] trait captures that seam. Three implementations ship:
//! [`InMemorySource`] hands over a graph that already lives in memory,
//! [`EdgeListFileSource`] streams a plain-text edge list from disk in
//! bounded-size chunks, and [`MmapCsrSource`] memory-maps a binary `.ecsr`
//! CSR file ([`crate::csr_file`], spec in [`crate::format_spec`]) whose
//! sections the pipeline can slice into partitions without ever
//! materialising a [`Graph`].

use crate::csr_file::CsrFile;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::io::{EdgeLineScanner, EdgeListParser};
use crate::stream::{
    CsrFileEdgeStream, EdgeBatchSink, EdgeStream, GraphEdgeStream, StreamOrder, StreamSummary, DEFAULT_BATCH_ENTRIES,
};
use std::io::Read;
use std::path::{Path, PathBuf};

/// A provider of input graphs for the Euler pipeline.
///
/// A source is asked for the graph once per pipeline run via
/// [`load`](GraphSource::load). Sources whose graph already resides in memory
/// can additionally expose it through [`resident`](GraphSource::resident), so
/// the pipeline borrows it instead of copying; sources backed by a mapped
/// CSR file expose the raw arrays through [`csr`](GraphSource::csr), so the
/// pipeline partitions straight off the file.
///
/// ```
/// use euler_graph::{builder::graph_from_edges, GraphSource, InMemorySource};
///
/// let source = InMemorySource::new(graph_from_edges(&[(0, 1), (1, 0)]));
/// // `load` always works; `resident` is the no-copy fast path.
/// assert_eq!(source.load().unwrap().num_edges(), 2);
/// assert_eq!(source.resident().unwrap().num_edges(), 2);
/// assert!(source.csr().is_none()); // not file-backed
/// ```
pub trait GraphSource {
    /// Human-readable description of the source, used in stage reports.
    fn name(&self) -> String;

    /// Produces the graph. Called once per pipeline run.
    fn load(&self) -> Result<Graph, GraphError>;

    /// The graph, if it is already resident in memory — the zero-copy fast
    /// path. Sources that materialise their graph on demand return `None`
    /// (the default) and are asked to [`load`](GraphSource::load) instead.
    fn resident(&self) -> Option<&Graph> {
        None
    }

    /// The source's memory-mapped CSR view, if it has one. The pipeline uses
    /// it to run degree checks and build the level-0 partition states
    /// directly from the mapped sections instead of loading a [`Graph`]
    /// first. Default: `None`.
    fn csr(&self) -> Option<&CsrFile> {
        None
    }

    /// A chunked [`EdgeStream`] over this source's edges, if it can produce
    /// one — the feed for streaming partitioners, which consume edge batches
    /// in bounded memory instead of a resident [`Graph`]. Every shipped
    /// source streams; custom sources default to `None` (the pipeline then
    /// falls back to [`load`](GraphSource::load)).
    fn edge_stream(&self) -> Option<Box<dyn EdgeStream + '_>> {
        None
    }
}

/// A source wrapping a graph that is already in memory.
#[derive(Clone, Debug)]
pub struct InMemorySource {
    graph: Graph,
}

impl InMemorySource {
    /// Wraps `graph`.
    pub fn new(graph: Graph) -> Self {
        InMemorySource { graph }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl From<Graph> for InMemorySource {
    fn from(graph: Graph) -> Self {
        InMemorySource::new(graph)
    }
}

impl GraphSource for InMemorySource {
    fn name(&self) -> String {
        format!("in-memory ({} vertices, {} edges)", self.graph.num_vertices(), self.graph.num_edges())
    }

    fn load(&self) -> Result<Graph, GraphError> {
        Ok(self.graph.clone())
    }

    fn resident(&self) -> Option<&Graph> {
        Some(&self.graph)
    }

    fn edge_stream(&self) -> Option<Box<dyn EdgeStream + '_>> {
        Some(Box::new(GraphEdgeStream::new(&self.graph)))
    }
}

/// A source reading a plain-text edge list (the [`crate::io`] format) from a
/// file in bounded-size chunks.
///
/// Unlike [`crate::io::read_edge_list_file`], which goes through a
/// line-oriented `BufRead`, this source reads the file `chunk_bytes` at a
/// time and carries partial trailing lines across chunk boundaries, so the
/// read path holds at most one chunk plus one line in flight. Parse errors
/// report the exact 1-based line number even when the offending line spans
/// two chunks.
///
/// ```
/// use euler_graph::{EdgeListFileSource, GraphSource};
///
/// let path = std::env::temp_dir().join("doctest_source.el");
/// std::fs::write(&path, "# a square\n0 1\n1 2\n2 3\n3 0\n").unwrap();
/// let source = EdgeListFileSource::new(&path).with_chunk_bytes(4);
/// let graph = source.load().unwrap();
/// assert_eq!(graph.num_vertices(), 4);
/// assert_eq!(graph.num_edges(), 4);
/// std::fs::remove_file(&path).ok();
/// ```
#[derive(Clone, Debug)]
pub struct EdgeListFileSource {
    path: PathBuf,
    chunk_bytes: usize,
}

impl EdgeListFileSource {
    /// Default read-chunk size (1 MiB).
    pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

    /// A source for the edge-list file at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        EdgeListFileSource { path: path.into(), chunk_bytes: Self::DEFAULT_CHUNK_BYTES }
    }

    /// Sets the read-chunk size in bytes (minimum 1; mainly useful for tests
    /// that force lines to span chunk boundaries).
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        self.chunk_bytes = chunk_bytes.max(1);
        self
    }

    /// The file path this source reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams `reader` through the shared [`EdgeListParser`] in
    /// `chunk_bytes`-sized reads.
    fn parse_chunked<R: Read>(&self, reader: R) -> Result<Graph, GraphError> {
        let mut parser = EdgeListParser::new();
        for_each_chunked_line(reader, self.chunk_bytes, &mut |bytes| {
            parser.feed_line(bytes_as_line(bytes, parser.next_line())?)
        })?;
        parser.finish()
    }

    /// A chunked [`EdgeStream`] over this file, in file (edge-id) order.
    pub fn stream(&self) -> EdgeListEdgeStream {
        EdgeListEdgeStream {
            path: self.path.clone(),
            chunk_bytes: self.chunk_bytes,
            batch_entries: DEFAULT_BATCH_ENTRIES,
        }
    }
}

/// Feeds `reader` to `f` one line at a time (without terminators), reading
/// `chunk_bytes` at a time and carrying partial trailing lines across chunk
/// boundaries — the shared read loop of the graph-building and edge-stream
/// paths over edge-list files.
fn for_each_chunked_line<R: Read>(
    mut reader: R,
    chunk_bytes: usize,
    f: &mut dyn FnMut(&[u8]) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let mut buf = vec![0u8; chunk_bytes];
    // Bytes of a line whose terminator has not been seen yet.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        let mut rest = &buf[..n];
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            if carry.is_empty() {
                f(&rest[..pos])?;
            } else {
                carry.extend_from_slice(&rest[..pos]);
                f(&carry)?;
                carry.clear();
            }
            rest = &rest[pos + 1..];
        }
        carry.extend_from_slice(rest);
    }
    if !carry.is_empty() {
        // Final line without a terminating newline.
        f(&carry)?;
    }
    Ok(())
}

/// Decodes one line's bytes as UTF-8, attributing failures to `line`.
fn bytes_as_line(bytes: &[u8], line: usize) -> Result<&str, GraphError> {
    std::str::from_utf8(bytes).map_err(|e| GraphError::Parse { line, message: format!("invalid UTF-8: {e}") })
}

/// Chunked [`EdgeStream`] over a plain-text edge-list file, in file (edge-id)
/// order — no [`Graph`], no [`crate::GraphBuilder`], just parsed `(u, v)`
/// batches with the same exact-line-number error attribution as the load
/// path.
///
/// The vertex count is discovered by the pass (largest id seen plus one, or
/// the declared `# vertices N edges M` header if larger), so
/// [`num_vertices`](EdgeStream::num_vertices) is `None` up front; consumers
/// that need the count before placing vertices (vertex-grouped streaming
/// partitioners) use the CSR stream instead.
#[derive(Clone, Debug)]
pub struct EdgeListEdgeStream {
    path: PathBuf,
    chunk_bytes: usize,
    batch_entries: usize,
}

impl EdgeListEdgeStream {
    /// Sets the batch size in entries (minimum 1).
    pub fn with_batch_entries(mut self, entries: usize) -> Self {
        self.batch_entries = entries.max(1);
        self
    }
}

impl EdgeStream for EdgeListEdgeStream {
    fn order(&self) -> StreamOrder {
        StreamOrder::EdgeIdOrder
    }

    fn num_vertices(&self) -> Option<u64> {
        None
    }

    fn stream(&mut self, sink: &mut EdgeBatchSink<'_>) -> Result<StreamSummary, GraphError> {
        let file = std::fs::File::open(&self.path)?;
        let mut scanner = EdgeLineScanner::new();
        let mut batch = Vec::with_capacity(self.batch_entries);
        let mut entries = 0u64;
        for_each_chunked_line(file, self.chunk_bytes, &mut |bytes| {
            let line = bytes_as_line(bytes, scanner.next_line())?;
            if let Some(edge) = scanner.feed_line(line)? {
                batch.push(edge);
                entries += 1;
                if batch.len() == self.batch_entries {
                    sink(&batch);
                    batch.clear();
                }
            }
            Ok(())
        })?;
        if !batch.is_empty() {
            sink(&batch);
        }
        Ok(StreamSummary { num_vertices: scanner.num_vertices(), entries })
    }
}

impl GraphSource for EdgeListFileSource {
    fn name(&self) -> String {
        format!("edge-list file {}", self.path.display())
    }

    fn load(&self) -> Result<Graph, GraphError> {
        let file = std::fs::File::open(&self.path)?;
        self.parse_chunked(file)
    }

    fn edge_stream(&self) -> Option<Box<dyn EdgeStream + '_>> {
        Some(Box::new(self.stream()))
    }
}

/// A source over a memory-mapped binary `.ecsr` CSR file — the zero-copy
/// load path for graphs that do not fit a text-parse-and-build pass.
///
/// Opening the source maps and validates the file once (magic, version,
/// endianness, checksum, structural invariants — see [`crate::format_spec`]);
/// corrupt files fail *here*, with a typed [`GraphError::CsrFormat`], not
/// mid-pipeline. [`load`](GraphSource::load) reconstructs the exact original
/// [`Graph`] from the mapped arrays, and [`csr`](GraphSource::csr) hands the
/// pipeline the raw sections so it can slice partitions without any `Graph`
/// at all.
///
/// ```
/// use euler_graph::{builder::graph_from_edges, write_csr_file};
/// use euler_graph::{GraphSource, MmapCsrSource};
///
/// let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
/// let path = std::env::temp_dir().join("doctest_source.ecsr");
/// write_csr_file(&g, &path).unwrap();
///
/// let source = MmapCsrSource::open(&path).unwrap();
/// assert_eq!(source.csr().unwrap().num_edges(), 3);
/// let reloaded = source.load().unwrap();       // bit-identical reconstruction
/// assert_eq!(reloaded.num_vertices(), g.num_vertices());
/// assert_eq!(reloaded.neighbors(euler_graph::VertexId(0)),
///            g.neighbors(euler_graph::VertexId(0)));
/// std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug)]
pub struct MmapCsrSource {
    csr: CsrFile,
}

impl MmapCsrSource {
    /// Opens and fully validates the `.ecsr` file at `path`
    /// (via [`CsrFile::open`]).
    ///
    /// # Errors
    /// [`GraphError::Io`] on filesystem failures, [`GraphError::CsrFormat`]
    /// on malformed files.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, GraphError> {
        Ok(MmapCsrSource { csr: CsrFile::open(path.into())? })
    }

    /// Opens the file with framing checks only — no checksum pass, nothing
    /// beyond the header paged in (via [`CsrFile::open_trusted`]). For large
    /// files from a trusted local producer.
    ///
    /// # Errors
    /// Same as [`open`](Self::open) minus the checksum/structure cases.
    pub fn open_trusted(path: impl Into<PathBuf>) -> Result<Self, GraphError> {
        Ok(MmapCsrSource { csr: CsrFile::open_trusted(path.into())? })
    }

    /// The file path this source maps.
    pub fn path(&self) -> &Path {
        self.csr.path()
    }

    /// The mapped CSR view.
    pub fn csr_file(&self) -> &CsrFile {
        &self.csr
    }
}

impl GraphSource for MmapCsrSource {
    fn name(&self) -> String {
        format!(
            "mmap csr file {} ({} vertices, {} edges)",
            self.csr.path().display(),
            self.csr.num_vertices(),
            self.csr.num_edges()
        )
    }

    fn load(&self) -> Result<Graph, GraphError> {
        Ok(self.csr.to_graph())
    }

    fn csr(&self) -> Option<&CsrFile> {
        Some(&self.csr)
    }

    fn edge_stream(&self) -> Option<Box<dyn EdgeStream + '_>> {
        Some(Box::new(CsrFileEdgeStream::new(&self.csr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::io::{read_edge_list, write_edge_list_file};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("euler_graph_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn in_memory_source_is_resident_and_loads_a_copy() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let src = InMemorySource::new(g.clone());
        assert!(src.name().contains("in-memory"));
        assert_eq!(src.resident().unwrap().num_edges(), 3);
        let loaded = src.load().unwrap();
        assert_eq!(loaded.num_edges(), g.num_edges());
        assert_eq!(loaded.num_vertices(), g.num_vertices());
    }

    #[test]
    fn file_source_matches_reader_parse_for_every_tiny_chunk_size() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let path = temp_path("chunked.el");
        write_edge_list_file(&g, &path).unwrap();
        let expected = read_edge_list(std::fs::read(&path).unwrap().as_slice()).unwrap();
        // Chunk sizes from 1 byte upward force every possible line split.
        for chunk in [1usize, 2, 3, 5, 7, 16, 4096] {
            let src = EdgeListFileSource::new(&path).with_chunk_bytes(chunk);
            let loaded = src.load().unwrap();
            assert_eq!(loaded.num_vertices(), expected.num_vertices(), "chunk {chunk}");
            assert_eq!(loaded.num_edges(), expected.num_edges(), "chunk {chunk}");
            for v in expected.vertices() {
                assert_eq!(loaded.degree(v), expected.degree(v), "chunk {chunk}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_reports_line_numbers_across_chunk_boundaries() {
        let path = temp_path("malformed.el");
        std::fs::write(&path, "# header\n0 1\n1 2\nbad_vertex 3\n").unwrap();
        // 3-byte chunks split "bad_vertex 3" across many reads.
        let src = EdgeListFileSource::new(&path).with_chunk_bytes(3);
        let err = src.load().unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("bad_vertex"), "unexpected message {message}");
            }
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_handles_missing_trailing_newline() {
        let path = temp_path("no_trailing_newline.el");
        std::fs::write(&path, "0 1\n1 0").unwrap();
        let g = EdgeListFileSource::new(&path).with_chunk_bytes(4).load().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_stream_yields_file_order_edges_and_discovers_the_count() {
        let path = temp_path("streamed.el");
        std::fs::write(&path, "# vertices 9 edges 3\n0 1\n% noise\n1 2\n2 0\n").unwrap();
        let src = EdgeListFileSource::new(&path).with_chunk_bytes(3);
        let mut stream = src.edge_stream().expect("file sources stream");
        assert_eq!(stream.order(), crate::stream::StreamOrder::EdgeIdOrder);
        assert_eq!(stream.num_vertices(), None, "text parses discover the count");
        let mut edges = Vec::new();
        let summary = stream.stream(&mut |b| edges.extend_from_slice(b)).unwrap();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
        // Header count wins over max id + 1; the load path agrees.
        assert_eq!(summary.num_vertices, 9);
        assert_eq!(summary.entries, 3);
        assert_eq!(src.load().unwrap().num_vertices(), 9);
        // Tiny batches only change delivery granularity, not content.
        let mut rebatched = src.stream().with_batch_entries(1);
        let mut again = Vec::new();
        rebatched.stream(&mut |b| again.extend_from_slice(b)).unwrap();
        assert_eq!(again, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_stream_reports_parse_errors_with_line_numbers() {
        let path = temp_path("streamed_bad.el");
        std::fs::write(&path, "0 1\n1 2\nbad 3\n").unwrap();
        let mut stream = EdgeListFileSource::new(&path).with_chunk_bytes(2).stream();
        let err = stream.stream(&mut |_| {}).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("bad"), "unexpected message {message}");
            }
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let src = EdgeListFileSource::new("/nonexistent/euler/source.el");
        assert!(matches!(src.load(), Err(GraphError::Io(_))));
    }

    #[test]
    fn sources_are_usable_as_trait_objects() {
        let g = graph_from_edges(&[(0, 1), (1, 0)]);
        let sources: Vec<Box<dyn GraphSource>> =
            vec![Box::new(InMemorySource::from(g)), Box::new(EdgeListFileSource::new("unused.el"))];
        assert!(sources[0].resident().is_some());
        assert!(sources[0].csr().is_none());
        assert!(sources[1].resident().is_none());
        assert!(sources[1].name().contains("unused.el"));
    }

    #[test]
    fn mmap_source_loads_the_exact_graph() {
        let mut b = crate::builder::GraphBuilder::with_vertices(6);
        b.extend_edges([(0, 1), (1, 0), (4, 2), (2, 2)]);
        let g = b.build().unwrap();
        let path = temp_path("mmap_source.ecsr");
        crate::csr_file::write_csr_file(&g, &path).unwrap();
        let src = MmapCsrSource::open(&path).unwrap();
        assert!(src.name().contains("mmap csr"));
        assert!(src.resident().is_none());
        assert_eq!(src.csr().unwrap().num_edges(), 4);
        assert_eq!(src.path(), path.as_path());
        let loaded = src.load().unwrap();
        assert_eq!(loaded.num_vertices(), g.num_vertices());
        for v in g.vertices() {
            assert_eq!(loaded.neighbors(v), g.neighbors(v));
        }
        for (e, u, v) in g.edges() {
            assert_eq!(loaded.endpoints(e), (u, v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_source_rejects_corrupt_files_at_open() {
        let path = temp_path("mmap_source_corrupt.ecsr");
        std::fs::write(&path, b"not an ecsr file").unwrap();
        assert!(matches!(
            MmapCsrSource::open(&path),
            Err(GraphError::CsrFormat(crate::csr_file::CsrFileError::BadMagic { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_source_is_a_trait_object_with_a_csr_view() {
        let g = graph_from_edges(&[(0, 1), (1, 0)]);
        let path = temp_path("mmap_source_dyn.ecsr");
        crate::csr_file::write_csr_file(&g, &path).unwrap();
        let src: Box<dyn GraphSource> = Box::new(MmapCsrSource::open_trusted(&path).unwrap());
        assert_eq!(src.csr().unwrap().num_vertices(), 2);
        assert_eq!(src.load().unwrap().num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }
}
