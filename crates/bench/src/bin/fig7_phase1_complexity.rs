//! Reproduces Fig. 7: expected Phase-1 complexity O(|B|+|I|+|L|) versus the
//! observed Phase-1 time, per partition and per level, for G40/P8 and G50/P8,
//! with a least-squares trend line and the correlation coefficient.

use euler_bench::{parse_scale_shift, prepared_input};
use euler_core::{run_with_backend, EulerConfig, InProcessBackend};
use euler_gen::configs::GraphConfig;
use euler_metrics::{Report, Series, Table};

fn main() {
    let shift = parse_scale_shift();
    let mut report = Report::new("fig7_phase1_complexity");
    report.note(format!("scale_shift = {shift}; x = |B|+|I|+|L| per partition, y = observed Phase-1 time"));
    for name in ["G40/P8", "G50/P8"] {
        let config = GraphConfig::by_name(name).expect("known config");
        let input = prepared_input(config, shift);
        // Sequential within a level so per-partition timings are undisturbed.
        let (_, run) = run_with_backend(
            &input.graph,
            &input.assignment,
            &EulerConfig::default().sequential(),
            &InProcessBackend::new(),
        )
        .expect("eulerized input");
        let mut series = Series::new(format!("{name} phase1_time_ms_vs_complexity"));
        let mut table = Table::new(
            format!("Fig. 7 ({name}): expected vs observed Phase-1 time"),
            &["Level", "Partition", "B+I+L", "Phase-1 time (ms)"],
        );
        for r in &run.per_partition {
            series.push(
                format!("L{}:{}", r.level, r.partition),
                r.complexity as f64,
                r.phase1_time.as_secs_f64() * 1e3,
            );
            table.row(&[
                r.level.to_string(),
                r.partition.to_string(),
                r.complexity.to_string(),
                format!("{:.3}", r.phase1_time.as_secs_f64() * 1e3),
            ]);
        }
        if let Some((slope, intercept)) = series.linear_fit() {
            report.note(format!(
                "{name}: trend line y = {slope:.3e}*x + {intercept:.3}, correlation r = {:.3}",
                series.correlation().unwrap_or(f64::NAN)
            ));
        }
        report.add_table(table);
        report.add_series(series);
    }
    println!("{}", report.render());
}
