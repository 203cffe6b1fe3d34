//! # euler-oracle
//!
//! Definitions the partition-centric pipeline is tested against, kept out
//! of the production crates: nothing here runs in a pipeline, and only
//! tests and the benchmark harness depend on this crate.
//!
//! * [`run_phase1_reference`] — the hash-map transcription of Alg. 1, the
//!   oracle of the dense Phase-1 kernel and the "before" row of
//!   `BENCH_phase1.json`.
//! * [`partition_view_level0`] — level-0 states converted partition by
//!   partition from a [`euler_graph::PartitionedGraph`], the oracle of the
//!   two-pass level-0 loader every run is seeded by.
//! * [`check_circuits`] — a circuit checker that shares no code with
//!   `euler_core::verify`, and also refuses one component split into
//!   several circuits.
//!
//! Everything is built on `euler-core`'s public API. `euler-core` must not
//! depend on this crate: its own unit tests would then see a second copy
//! of the core types.

#![warn(missing_docs)]

pub mod check;
pub mod level0;
pub mod phase1;

pub use check::{check_circuits, EulerCheck};
pub use level0::partition_view_level0;
pub use phase1::run_phase1_reference;
