//! Reproduces Fig. 5: total time versus user compute time for each graph of
//! the G-family, run on BSP workers (one per partition, stepped in place)
//! under the Spark-like platform cost model. The paper's observation — weak scaling is inefficient
//! and platform overhead is a large fraction of total time — is judged on the
//! shape of the two series.

use euler_bench::{harness::secs, parse_scale_shift, prepared_input};
use euler_bsp::{BspConfig, PlatformCostModel};
use euler_core::{run_with_backend, BspBackend, EulerConfig};
use euler_gen::configs::PAPER_CONFIGS;
use euler_metrics::{Report, Series, Table};

fn main() {
    let shift = parse_scale_shift();
    let mut report = Report::new("fig5_scaling");
    report.note(format!(
        "scale_shift = {shift}; total time = measured wall time + modelled Spark-like \
         platform overhead (scheduling, shuffle, object creation); compute time = measured \
         user compute inside Phase 1/2"
    ));
    let mut total_series = Series::new("total_time_s");
    let mut compute_series = Series::new("compute_time_s");
    let mut table = Table::new(
        "Fig. 5: total vs compute time per graph",
        &[
            "Graph",
            "Parts",
            "Supersteps",
            "Compute (s)",
            "Wall (s)",
            "Modelled total (s)",
            "Shuffle bytes",
            "Local bytes",
            "Init bytes",
            "Fragment bytes",
        ],
    );
    for (i, config) in PAPER_CONFIGS.iter().enumerate() {
        let input = prepared_input(*config, shift);
        let backend = BspBackend::with_engine(
            BspConfig::one_worker_per_partition().with_cost_model(PlatformCostModel::spark_like()),
        );
        let (_, run) = run_with_backend(&input.graph, &input.assignment, &EulerConfig::default(), &backend)
            .expect("eulerized input");
        let stats = run.engine.as_ref().expect("BSP backend reports engine stats");
        let compute = stats.total_compute_time();
        let total = stats.modelled_total_time();
        table.row(&[
            config.name.to_string(),
            config.partitions.to_string(),
            stats.num_supersteps().to_string(),
            secs(compute),
            secs(stats.total_wall_time),
            secs(total),
            stats.total_remote_bytes().to_string(),
            stats.supersteps.iter().map(|s| s.local_bytes).sum::<u64>().to_string(),
            // What seeding the workers moved: nothing while they are stepped
            // in place, the Init payloads behind a transport.
            stats.init_bytes.to_string(),
            // Likewise the fragments the Dones carry back: 8 bytes per disk
            // Long and five framing words per segment, behind a transport.
            stats.supersteps.iter().map(|s| s.fragment_bytes).sum::<u64>().to_string(),
        ]);
        total_series.push(config.name, i as f64, total.as_secs_f64());
        compute_series.push(config.name, i as f64, compute.as_secs_f64());
    }
    report.add_table(table);
    report.add_series(total_series);
    report.add_series(compute_series);
    println!("{}", report.render());
}
