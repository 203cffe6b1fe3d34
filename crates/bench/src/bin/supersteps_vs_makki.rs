//! Coordination-cost comparison (§2.2 / §4.3): the partition-centric
//! algorithm needs ⌈log n⌉ + 1 supersteps (2, 3, 3, 4 for 2, 3, 4, 8
//! partitions), while the Makki-style vertex-centric walker needs O(|E|)
//! supersteps with a single active vertex.

use euler_baseline::MakkiRunner;
use euler_bench::{parse_scale_shift, prepared_input};
use euler_core::{run_with_backend, EulerConfig, InProcessBackend};
use euler_gen::configs::PAPER_CONFIGS;
use euler_metrics::{Report, Table};

fn main() {
    let shift = parse_scale_shift();
    let mut report = Report::new("supersteps_vs_makki");
    report.note(format!("scale_shift = {}; Makki uses one superstep per edge traversal", shift - 2));
    let mut table = Table::new(
        "Coordination cost: partition-centric vs Makki",
        &["Graph", "|E|", "Parts", "Partition-centric supersteps", "Makki supersteps", "Makki messages"],
    );
    for config in PAPER_CONFIGS {
        // Makki is O(|E|) supersteps, so shrink its input two further steps to
        // keep the harness fast; superstep counts are reported per graph.
        let input = prepared_input(config, shift - 2);
        let (_, run) =
            run_with_backend(&input.graph, &input.assignment, &EulerConfig::default(), &InProcessBackend::new())
                .expect("eulerized");
        let makki = MakkiRunner::new().run(&input.graph).expect("eulerized");
        table.row(&[
            config.name.to_string(),
            input.graph.num_edges().to_string(),
            config.partitions.to_string(),
            run.supersteps.to_string(),
            makki.supersteps.to_string(),
            makki.messages.to_string(),
        ]);
    }
    report.add_table(table);
    println!("{}", report.render());
}
