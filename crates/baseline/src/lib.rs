//! # euler-baseline
//!
//! Baseline Euler circuit algorithms used for correctness oracles and
//! performance comparison against the partition-centric algorithm:
//!
//! * [`hierholzer`] — the classic sequential algorithm, `O(|E|)`; the paper's
//!   reference point for single-machine execution and the correctness oracle
//!   for every other implementation in the workspace.
//! * [`fleury`] — Fleury's algorithm, `O(|E|^2)` with bridge detection;
//!   included because the paper's related work cites it as the other classical
//!   sequential approach, and it provides an independent oracle.
//! * [`makki`] — Makki's vertex-centric distributed walk (single active
//!   vertex per superstep), the distributed baseline the paper argues against:
//!   its superstep count is `O(|E|)` in the vertex-centric setting and
//!   `O(edge cut)` in the partition-centric one, versus `O(log n)` levels for
//!   the paper's algorithm.
//! * [`vertex`] / [`program`] — the vertex-centric (Pregel) engine and
//!   programming model Makki runs on, the classic abstraction of the paper's
//!   related-work discussion.

#![warn(missing_docs)]

pub mod fleury;
pub mod hierholzer;
pub mod makki;
pub mod program;
pub mod vertex;

pub use fleury::fleury_circuit;
pub use hierholzer::hierholzer_circuit;
pub use makki::{MakkiResult, MakkiRunner};
pub use program::{VertexContext, VertexProgram};
pub use vertex::{run_vertex_program, VertexEngineConfig, VertexEngineStats};
