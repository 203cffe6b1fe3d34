//! # euler-bsp
//!
//! The Bulk Synchronous Parallel (BSP) substrate of the partition-centric
//! Euler circuit algorithm — what stands in for the Apache Spark cluster of
//! the paper's evaluation. The BSP loop itself (one superstep per merge
//! level, a barrier, shipped partition states) is driven by
//! `euler_core::BspBackend`; this crate holds what it runs on and reports
//! with:
//!
//! * [`BspConfig`] — how many **workers** the partitions are spread over
//!   (the paper deploys one executor per partition) and under which
//!   [`cost_model::PlatformCostModel`] the run is priced. The model adds
//!   *modelled* per-task scheduling and shuffle overheads calibrated to the
//!   Spark behaviour the paper reports, so the "Total time vs. Compute time"
//!   split of Fig. 5 can be reproduced on a single host; measured compute
//!   times are always kept separate from modelled platform time.
//! * [`stats`] — what a run reports per superstep: user compute time per
//!   partition split into labelled phases (Fig. 6), messages and bytes that
//!   stayed on a worker versus crossed workers (the shuffle), per-partition
//!   memory state.
//! * [`wire`] — the one words↔bytes codec: everything a worker ships is
//!   **byte-serialised** through it, so transfer volumes are real.
//! * [`transport`], [`checkpoint`], [`fault`] — framed, checksummed
//!   connections to workers in other threads or processes, superstep
//!   checkpoints, and the fault policy / injection plan of such a fleet.
//! * [`vertex`] / [`program`] — the vertex-centric (Pregel) model of the
//!   paper's related-work discussion, used by the Makki baseline.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cost_model;
pub mod engine;
pub mod fault;
pub mod program;
pub mod stats;
pub mod transport;
pub mod vertex;
pub mod wire;

pub use checkpoint::{checkpoint_file, read_checkpoint, write_checkpoint, CheckpointError};
pub use cost_model::PlatformCostModel;
pub use engine::{BspConfig, WorkerCount};
pub use fault::{FaultPlan, FaultPolicy, KillMode, RecoveryStats};
pub use program::{VertexContext, VertexProgram};
pub use stats::{EngineStats, SuperstepStats};
pub use transport::{
    connect_endpoint, connect_with_retry, FrameError, MemTransport, TcpTransport, Transport,
};
pub use vertex::{run_vertex_program, VertexEngineConfig, VertexEngineStats};
