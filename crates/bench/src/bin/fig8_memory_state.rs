//! Reproduces Fig. 8: cumulative and average partition memory state (in
//! Longs) per merge level, for the current algorithm, the ideal constant
//! case, and the proposed Sec.-5 heuristics — both from measured runs and
//! from the analytical model, for G40/P8 and G50/P8.

use euler_bench::{parse_scale_shift, prepared_input};
use euler_core::memory_model::{ideal_series, model_series};
use euler_core::{run_with_backend, EulerConfig, InProcessBackend, MergeStrategy};
use euler_gen::configs::GraphConfig;
use euler_metrics::{Report, Series, Table};

fn main() {
    let shift = parse_scale_shift();
    let mut report = Report::new("fig8_memory_state");
    report.note(format!("scale_shift = {shift}; memory in 8-byte Longs, per merge level"));
    for name in ["G40/P8", "G50/P8"] {
        let config = GraphConfig::by_name(name).expect("known config");
        let input = prepared_input(config, shift);
        let (_, baseline_run) =
            run_with_backend(&input.graph, &input.assignment, &EulerConfig::default(), &InProcessBackend::new())
                .expect("eulerized");
        let trace = baseline_run.level_trace();

        let current = model_series(&trace, MergeStrategy::Duplicated);
        let proposed = model_series(&trace, MergeStrategy::Deferred);
        let ideal = ideal_series(&trace);

        let mut table = Table::new(
            format!("Fig. 8 ({name}): memory state per level (Longs)"),
            &["Level", "Cumu. Current", "Avg. Current", "Cumu. Ideal", "Avg. Ideal", "Cumu. Proposed", "Avg. Proposed"],
        );
        for level in 0..trace.len() {
            table.row(&[
                level.to_string(),
                current.cumulative[level].to_string(),
                format!("{:.0}", current.average[level]),
                ideal.cumulative[level].to_string(),
                format!("{:.0}", ideal.average[level]),
                proposed.cumulative[level].to_string(),
                format!("{:.0}", proposed.average[level]),
            ]);
        }
        report.add_table(table);

        // Also report the *measured* series under the actually-implemented
        // strategies, and assert §5's statement on them: the level-0 state
        // bounds every level's, Deferred's by Deduplicated's level 0.
        let mut dedup_level0 = None;
        for strategy in MergeStrategy::all() {
            let (_, run) = run_with_backend(
                &input.graph,
                &input.assignment,
                &EulerConfig::default().with_merge_strategy(strategy),
                &InProcessBackend::new(),
            )
            .expect("eulerized");
            let measured = run.cumulative_memory_by_level();
            let bound = match strategy {
                MergeStrategy::Deferred => dedup_level0.expect("Deduplicated runs before Deferred"),
                _ => measured[0],
            };
            if strategy == MergeStrategy::Deduplicated {
                dedup_level0 = Some(measured[0]);
            }
            let mut s = Series::new(format!("{name} measured cumulative ({strategy})"));
            for (level, &longs) in measured.iter().enumerate() {
                assert!(longs <= bound, "{name} {strategy}: level {level} holds {longs} Longs, over {bound}");
                s.push(format!("L{level}"), level as f64, longs as f64);
            }
            report.add_series(s);
        }
    }
    println!("{}", report.render());
}
