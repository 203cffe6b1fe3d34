//! Reproduces Fig. 6: the split of user compute time per partition per merge
//! level for the G50/P8 graph — copy source partition, copy sink partition,
//! create partition object, Phase-1 tour.
//!
//! The table is printed twice, once per BSP substrate: one worker per
//! partition stepped in place, then 2 thread workers behind the in-memory
//! transport. Both fill the same four buckets, and both are checked against
//! the run's placement: a partition has a copy-source time exactly where it
//! shipped to another worker, a create-object time exactly where a child
//! arrived from another worker, and a copy-sink time exactly where it merged.
//! With 2 workers most merges stay on their worker — handed over by value,
//! both codec buckets zero, as an executor-local merge has.

use euler_bench::{parse_scale_shift, prepared_input};
use euler_bsp::{BspConfig, MemTransport};
use euler_core::{run_with_backend, BspBackend, EulerConfig, RunReport};
use euler_gen::configs::GraphConfig;
use euler_metrics::{Report, Table};
use std::sync::Arc;
use std::time::Duration;

fn split_table(title: &str, run: &RunReport) -> Table {
    let engine = run.engine.as_ref().expect("BSP backend reports engine stats");
    let tree = &run.merge_tree;
    let mut table =
        Table::new(title, &["Level", "Partition", "Copy source", "Create object + copy sink", "Phase 1 tour"]);
    for step in &engine.supersteps {
        let level = step.superstep;
        for (partition, split) in &step.per_partition_compute {
            let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
            let (source, object, sink) = (
                split.get("copy_source_partition"),
                split.get("create_partition_object"),
                split.get("copy_sink_partition"),
            );
            let crosses = |p: &&euler_core::MergePair| {
                engine.placement[p.child.0 as usize] != engine.placement[p.parent.0 as usize]
            };
            let shipped_away = tree.pairs_at(level).iter().filter(crosses).any(|p| p.child.0 == *partition);
            let merges: &[_] = if level > 0 { tree.pairs_at(level - 1) } else { &[] };
            let merged = merges.iter().any(|p| p.parent.0 == *partition);
            let received = merges.iter().filter(crosses).any(|p| p.parent.0 == *partition);
            assert_eq!(
                (shipped_away, received, merged),
                (source > Duration::ZERO, object > Duration::ZERO, sink > Duration::ZERO),
                "{title}: P{partition} at level {level}"
            );
            table.row(&[
                level.to_string(),
                format!("P{partition}"),
                ms(source),
                ms(object + sink),
                ms(split.get("phase1_tour")),
            ]);
        }
    }
    table
}

fn main() {
    let shift = parse_scale_shift();
    let config = GraphConfig::by_name("G50/P8").expect("known config");
    let input = prepared_input(config, shift);
    let run = |backend: BspBackend| {
        run_with_backend(&input.graph, &input.assignment, &EulerConfig::default(), &backend).expect("eulerized input").1
    };

    let mut report = Report::new("fig6_time_split");
    report.note(format!("G50/P8 scaled with scale_shift = {shift}"));
    report.add_table(split_table(
        "Fig. 6: user compute split per partition per level (ms) — one worker per partition, in place",
        &run(BspBackend::with_engine(BspConfig::one_worker_per_partition())),
    ));
    report.add_table(split_table(
        "Fig. 6: user compute split per partition per level (ms) — 2 thread workers over MemTransport",
        &run(BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(MemTransport))),
    ));
    println!("{}", report.render());
}
