//! # euler-partition
//!
//! Graph partitioners and partition-quality statistics — the workspace's
//! substitute for the ParHIP tool the paper uses to split its input graphs.
//!
//! The Euler circuit algorithm only needs *some* vertex partition; its
//! performance depends on two qualities the paper reports in Table 1: the
//! edge-cut fraction and the vertex imbalance. Three partitioners with
//! different cut/balance trade-offs are provided:
//!
//! * [`HashPartitioner`] — assigns vertices by hashing their id. Perfectly
//!   balanced, worst-case cut; the baseline a Big Data platform would give
//!   you for free.
//! * [`LdgPartitioner`] — Linear Deterministic Greedy streaming partitioner
//!   (Stanton & Kliot): each vertex goes to the partition holding most of its
//!   already-placed neighbours, weighted by a capacity penalty. The core is
//!   a genuine one-pass stream consumer (bounded state: vertex→partition map
//!   plus load counters); the whole-graph path is a thin adapter over it.
//! * [`BfsPartitioner`] — region-growing: grows partitions from seed vertices
//!   in BFS order, producing connected, low-cut partitions on mesh-like
//!   graphs.
//!
//! Partitioners whose algorithm can consume chunked edge batches additionally
//! implement [`StreamingPartitioner`] (hash: any order; LDG: vertex-grouped
//! streams), which is how the pipeline partitions memory-mapped `.ecsr`
//! sources without materialising a graph.

#![warn(missing_docs)]

pub mod bfs;
pub mod hash;
pub mod ldg;
pub mod stats;
pub mod traits;

pub use bfs::BfsPartitioner;
pub use hash::HashPartitioner;
pub use ldg::LdgPartitioner;
pub use stats::PartitionQuality;
pub use traits::{Partitioner, StreamingPartitioner};
