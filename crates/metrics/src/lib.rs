//! # euler-metrics
//!
//! Instrumentation shared across the workspace: labelled time breakdowns,
//! memory states expressed in 8-byte "Longs" (the paper's platform-independent
//! memory metric), and experiment reporting helpers that print the tables and
//! series of the paper's evaluation section.

#![warn(missing_docs)]

pub mod json;
pub mod longs;
pub mod report;
pub mod series;
pub mod timer;

pub use longs::MemoryState;
pub use report::{Report, Table};
pub use series::{DataPoint, Series};
pub use timer::TimeBreakdown;
