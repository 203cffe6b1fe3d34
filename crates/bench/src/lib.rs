//! # euler-bench
//!
//! Benchmark and experiment harness for the partition-centric Euler circuit
//! reproduction. There is one binary per table/figure of the paper's
//! evaluation (run them with `cargo run --release -p euler-bench --bin
//! <name> [scale_shift]`), plus Criterion micro-benchmarks under `benches/`.
//!
//! Every harness works on the scaled-down G-family of
//! [`euler_gen::configs::PAPER_CONFIGS`]; the optional `scale_shift` CLI
//! argument moves the R-MAT scale up or down (each step doubles/halves the
//! vertex count; 0 is the default single-host size, negative values shrink it
//! for quick runs).

#![warn(missing_docs)]

pub mod harness;
pub mod pack;

pub use harness::{
    parse_scale_shift, prepared_input, round_robin_working_partitions, single_working_partition, ExperimentInput,
    DEFAULT_SCALE_SHIFT,
};
pub use pack::{pack_edge_list, PackStats};
