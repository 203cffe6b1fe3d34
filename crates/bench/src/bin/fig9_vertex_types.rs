//! Reproduces Fig. 9: the composition of every partition at the start of each
//! merge level of G50/P8 — odd/even boundary vertices, internal vertices, and
//! remote edges.

use euler_bench::{parse_scale_shift, prepared_input};
use euler_core::{run_with_backend, EulerConfig, InProcessBackend};
use euler_gen::configs::GraphConfig;
use euler_metrics::{Report, Table};

fn main() {
    let shift = parse_scale_shift();
    let config = GraphConfig::by_name("G50/P8").expect("known config");
    let input = prepared_input(config, shift);
    let (_, run) = run_with_backend(&input.graph, &input.assignment, &EulerConfig::default(), &InProcessBackend::new())
        .expect("eulerized");

    let mut report = Report::new("fig9_vertex_types");
    report.note(format!("G50/P8 scaled with scale_shift = {shift}; counts at the start of each level"));
    let mut table = Table::new(
        "Fig. 9: vertices and edges per partition, per level (G50/P8)",
        &["Level", "Partition", "Even internal", "Even boundary", "Odd boundary", "Local edges", "Remote edges"],
    );
    for r in &run.per_partition {
        table.row(&[
            r.level.to_string(),
            r.partition.to_string(),
            r.counts.even_internal.to_string(),
            r.counts.even_boundary.to_string(),
            r.counts.odd_boundary.to_string(),
            r.counts.local_edges.to_string(),
            r.counts.remote_edges.to_string(),
        ]);
    }
    report.add_table(table);
    let ratios: Vec<String> = run
        .level(0)
        .iter()
        .map(|r| format!("{:.1}", r.counts.remote_edges as f64 / r.counts.total_vertices().max(1) as f64))
        .collect();
    report.note(format!("remote-edge : vertex ratio per leaf partition (paper observes ~7x): [{}]", ratios.join(", ")));
    println!("{}", report.render());
}
