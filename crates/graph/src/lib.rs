//! # euler-graph
//!
//! Graph substrate for the partition-centric Euler circuit library.
//!
//! This crate provides the data structures that every other crate in the
//! workspace builds on:
//!
//! * [`Graph`] — an undirected multigraph with stable [`EdgeId`]s, held as
//!   flat compressed-sparse-row arrays (the sections of an `.ecsr` file),
//!   built through [`GraphBuilder`] and read by a run as [`EdgeArrays`].
//! * [`PartitionedGraph`] / [`Partition`] — the partition-centric view used by
//!   the paper: internal vertices, boundary vertices, local edges and remote
//!   edges per partition (§3.1 of the paper).
//! * [`MetaGraph`] — the weighted partition meta-graph over which the Phase-2
//!   merge tree is computed.
//! * Graph property queries (degrees, Eulerian-ness, connectivity) in
//!   [`properties`].
//! * Plain-text edge-list I/O in [`io`], the binary `.ecsr` CSR on-disk
//!   format in [`csr_file`] (see [`format_spec`] for the normative byte
//!   layout), and the pipeline's pluggable input seam in [`source`]
//!   ([`GraphSource`]: in-memory graphs, chunked edge-list files, and the
//!   zero-copy [`MmapCsrSource`] over memory-mapped `.ecsr` files).
//! * Chunked edge streams in [`stream`] ([`EdgeStream`]): every source can
//!   push its edges through a sink in bounded batches, which is how
//!   streaming partitioners run without a resident [`Graph`].
//!
//! The vertex and edge identifier types are 64-bit, matching the paper's
//! memory accounting in numbers of Java `Long`s.

#![warn(missing_docs)]

pub mod builder;
pub mod csr_file;
pub mod edge_arrays;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod local_index;
pub mod metagraph;
pub mod partitioned;
pub mod properties;
pub mod registry;
pub mod source;
pub mod stream;

/// The normative `.ecsr` file-format specification (`docs/FORMAT.md`),
/// rendered here so it versions and link-checks with the code. The reference
/// implementation is [`csr_file`].
#[doc = include_str!("../../../docs/FORMAT.md")]
pub mod format_spec {}

pub use builder::GraphBuilder;
pub use csr_file::{write_csr_file, CsrFile, CsrFileError};
pub use edge_arrays::EdgeArrays;
pub use error::GraphError;
pub use graph::Graph;
pub use ids::{EdgeId, PartitionId, VertexId};
pub use local_index::{bucket_by_slot, LocalIndex, LocalIndexBufs};
pub use metagraph::{MetaEdge, MetaGraph};
pub use partitioned::{Partition, PartitionAssignment, PartitionedGraph, RemoteEdge};
pub use properties::{connected_components, is_connected_on_edges, is_eulerian, odd_vertices};
pub use registry::{GraphRegistry, RegisteredGraph};
pub use source::{EdgeListEdgeStream, EdgeListFileSource, GraphSource, InMemorySource, MmapCsrSource};
pub use stream::{CsrFileEdgeStream, EdgeStream, GraphEdgeStream, IdEdgeBatchSink, StreamOrder, StreamSummary};
