//! # euler-core
//!
//! The partition-centric distributed Euler circuit algorithm of Jaiswal &
//! Simmhan (IPDPSW 2019) — the primary contribution reproduced by this
//! workspace.
//!
//! The algorithm runs over a graph partitioned across machines and proceeds
//! in three phases, executed iteratively under a BSP model:
//!
//! * **Phase 1** ([`phase1`]): concurrently within every partition, find
//!   edge-disjoint maximal local *paths* between odd-degree boundary vertices
//!   and local *cycles* anchored at even-degree boundary or internal vertices,
//!   consuming every local edge. Each path is replaced by a single coarse
//!   "OB-pair" edge; cycles are recorded against their anchor vertex. The
//!   consumed edges are persisted to the fragment store (the paper's
//!   "persist to disk") so partition memory shrinks.
//! * **Phase 2** ([`phase2`], [`merge_tree`]): pair up partitions using a
//!   greedy maximal weighted matching over the partition meta-graph, merge
//!   each pair onto one machine (remote edges between them become local), and
//!   re-run Phase 1 — recursively, up a merge tree of height `⌈log n⌉`.
//! * **Phase 3** ([`phase3`]): unroll the fragments recorded at every level
//!   into the final Euler circuit, splicing cycles at pivot vertices and
//!   expanding coarse edges back into the paths they stand for.
//!
//! Section 5 of the paper proposes two memory heuristics — avoiding remote
//! edge duplication and deferring remote-edge transfer up the merge tree —
//! which it evaluates only analytically. Both are implemented here as
//! [`MergeStrategy`] options and also modelled analytically in
//! [`memory_model`] so the Fig.-8 comparison (current / ideal / proposed) can
//! be regenerated either way.
//!
//! The top-level entry point is the [`pipeline`] module's [`EulerPipeline`]:
//! a builder over a graph source, a partitioner, a merge strategy and an
//! [`ExecutionBackend`] — [`InProcessBackend`] (one worker holding every
//! partition, rayon-parallel across the partitions of a level, shipped
//! states handed over by value) or [`BspBackend`] (the same level step on a
//! set of workers with per-worker state, serialised transfers and superstep
//! statistics — stepped in place, or behind a wire transport; both are
//! [`distributed`] runs). Both backends execute
//! through one shared merge-tree walk ([`pipeline::run_with_backend`]; its
//! level-0 partition states are built in two passes over the edge list, from
//! a memory-mapped `.ecsr` by whoever will run them, and
//! [`pipeline::run_on_partitioned`] over a prebuilt partition view is the
//! oracle for that), run one partition's share of a level through one
//! function, and produce one unified [`RunReport`]. The pre-pipeline drivers (`find_euler_circuit`,
//! `run_partitioned`, `DistributedRunner`) went through a deprecation
//! release and are now removed; see the facade crate's migration table.

#![warn(missing_docs)]

pub mod config;
pub mod distributed;
pub mod error;
pub mod fragment;
mod level;
mod level0;
pub mod memory_model;
pub mod merge_strategy;
pub mod merge_tree;
pub mod pathmap;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod pipeline;
mod placement;
pub mod service;
pub mod state;
pub mod verify;

pub use config::EulerConfig;
pub use distributed::{default_worker_bin, worker_main, FAN_OUT_MIN_WORDS};
pub use error::EulerError;
pub use fragment::{
    Fragment, FragmentId, FragmentKind, FragmentStore, FragmentStoreStats, SpillConfig, TourEdge,
};
pub use merge_strategy::MergeStrategy;
pub use merge_tree::{LeafLevels, MergePair, MergeTree, MergeTreeNode};
pub use pathmap::PathMap;
pub use phase1::wstream::{default_chunk_edges, stream_phase1, WStreamOutcome, WStreamStats};
pub use phase1::{ArenaPool, Phase1Arena};
pub use phase3::{CircuitResult, CircuitStep};
pub use pipeline::{
    run_on_partitioned, run_with_backend, BspBackend,
    CircuitStage, EulerPipeline, EulerPipelineBuilder, ExecutionBackend, InProcessBackend,
    LevelOutcome, LevelPartitionReport, LevelWork, MergeStage, PartitionStage, PipelineRun,
    RunReport, Seed,
};
pub use service::{
    AdmissionController, AdmissionPermit, EulerService, GraphInfo, PartitionerKind, RunEvent,
    RunOptions, RunOutcome, RunSummary, ServiceClient, ServiceConfig, ServiceError, ServiceStats,
};
pub use state::{VertexTypeCounts, WorkingPartition};
