//! # euler-bsp
//!
//! A Bulk Synchronous Parallel (BSP) execution engine used as the distributed
//! substrate for the partition-centric Euler circuit algorithm — the
//! workspace's stand-in for the Apache Spark cluster of the paper's
//! evaluation.
//!
//! The engine models a commodity cluster:
//!
//! * Each **worker** is an OS thread standing in for one machine/executor,
//!   with its own private state store (no shared mutable state between
//!   workers).
//! * Computation proceeds in **supersteps**: in each superstep every worker
//!   runs user code on the partitions it hosts, may emit messages to other
//!   workers, and then waits at a **barrier**. Messages are delivered in bulk
//!   after the barrier, exactly like Pregel/Giraph/Spark-stage semantics.
//! * All inter-worker traffic is **byte-serialised** through
//!   [`message::Envelope`]s over crossbeam channels, so the engine can report
//!   real serialisation and transfer costs the way the paper separates
//!   user-compute time from platform overhead (Fig. 5/6).
//! * A pluggable [`cost_model::PlatformCostModel`] adds *modelled* per-task
//!   scheduling and shuffle overheads calibrated to the Spark behaviour the
//!   paper reports, so the "Total time vs. Compute time" split of Fig. 5 can
//!   be reproduced on a single host. The measured compute times are always
//!   kept separate from modelled platform time.
//!
//! The two programming models of the paper's related-work discussion are both
//! provided: a partition-centric API ([`program::PartitionProgram`]) used by
//! the main algorithm, and a vertex-centric API ([`program::VertexProgram`])
//! used by the Makki baseline.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cost_model;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod message;
pub mod program;
pub mod stats;
pub mod superstep;
pub mod transport;
pub mod vertex;
pub mod wire;
pub mod worker;

pub use checkpoint::{checkpoint_file, read_checkpoint, write_checkpoint, CheckpointError};
pub use cost_model::PlatformCostModel;
pub use engine::{BspConfig, BspEngine, RunOutcome, StepRun, WorkerCount};
pub use fault::{FaultPlan, FaultPolicy, KillMode, RecoveryStats};
pub use memory::{MemoryTimeline, MemoryTracker};
pub use message::{Envelope, WorkerId};
pub use program::{PartitionContext, PartitionProgram, VertexContext, VertexProgram};
pub use stats::{EngineStats, SuperstepStats};
pub use transport::{
    connect_endpoint, connect_with_retry, FrameError, MemTransport, TcpTransport, Transport,
    UnixTransport,
};
pub use vertex::{run_vertex_program, VertexEngineConfig, VertexEngineStats};
pub use worker::PartitionPlacement;
