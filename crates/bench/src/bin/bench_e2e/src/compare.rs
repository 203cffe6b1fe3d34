//! `--compare a.jsonl b.jsonl`: do two sets of runs agree?
//!
//! Each file holds one `--out` record per run. For every pairing of
//! end-to-end metric and workload this prints both medians, how much worse
//! the second set is (as a share of the first's median), each set's
//! run-to-run spread (quartile distance ÷ median, as Python's
//! `statistics.quantiles(n=4)` gives the quartiles) and a verdict against the
//! metric's bound: `agree`, `worse`, or `unresolved` when the spread is wider
//! than the bound and so the comparison cannot tell.

use crate::metrics::{Better, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use euler_metrics::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One set of runs: values by (workload, metric), in file order, and the
/// traced runs' exact counters by (workload, seed, metric).
#[derive(Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    counters: BTreeMap<(String, u64, String), f64>,
    failed: u64,
}

/// Counts that depend on how many repetitions fit in the window, or on how
/// the two clients' requests interleave — not on the work the program does.
const TIMING_DEPENDENT: [&str; 4] = [
    "trace.samples",
    "service.runs_executed",
    "service.runs_cached",
    "service.peak_admitted_longs",
];

fn is_counter(name: &str) -> bool {
    !TIMING_DEPENDENT.contains(&name)
        && PER_LAYER
            .iter()
            .any(|m| m.name == name && matches!(m.unit, "count" | "Longs" | "bytes"))
}

fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = || format!("line {}: not an `--out` record", n + 1);
        let record = json::parse(line).ok_or_else(bad)?;
        let workload = record.get("workload").and_then(Value::as_str).ok_or_else(bad)?;
        let seed = record.get("seed").and_then(Value::as_f64).ok_or_else(bad)? as u64;
        let result = record.get("result").ok_or_else(bad)?;
        set.failed += result.get("failed").and_then(Value::as_f64).ok_or_else(bad)? as u64;
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(bad());
        };
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64).ok_or_else(bad)?;
            if is_counter(name) {
                set.counters.insert((workload.to_string(), seed, name.clone()), value);
            }
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Agree,
    Worse,
    Unresolved,
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s median
/// (negative when `b` is better), and the verdict against `bound`.
fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let verdict = if widest > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Agree
    };
    (worsening, verdict)
}

/// Prints the comparison; `Ok(true)` when every pairing agrees, no run of
/// either set failed an operation, and every exact counter repeats.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()));
    let (set_a, set_b) = (parse_set(&read(a)?)?, parse_set(&read(b)?)?);
    let mut all_agree = set_a.failed + set_b.failed == 0;
    println!(
        "failed operations: {} in {}, {} in {}",
        set_a.failed,
        a.display(),
        set_b.failed,
        b.display()
    );
    println!(
        "{:<14} {:<12} {:>4} {:>12} {:>12} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "n", "median a", "median b", "worse by", "spread a", "spread b", "bound"
    );
    for workload in Workload::ALL {
        for m in END_TO_END {
            let key = (workload.name().to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (set_a.values.get(&key), set_b.values.get(&key)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (worsening, verdict) = judge(va, vb, m.better, bound);
            all_agree &= verdict == Verdict::Agree;
            println!(
                "{:<14} {:<12} {:>4} {:>12.5} {:>12.5} {:>+9.4} {:>9.4} {:>9.4} {:>6}  {}",
                workload.name(),
                m.name,
                va.len().min(vb.len()),
                median(va),
                median(vb),
                worsening,
                spread(va).unwrap_or(0.0),
                spread(vb).unwrap_or(0.0),
                bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    let mut compared = 0;
    for (key, va) in &set_a.counters {
        let Some(vb) = set_b.counters.get(key) else { continue };
        compared += 1;
        if va != vb {
            all_agree = false;
            println!(
                "counter {} on {} (seed {}) does not repeat: {va} then {vb}",
                key.2, key.0, key.1
            );
        }
    }
    println!("{compared} exact counters from traced runs of the same workload and seed compared");
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (f64::from(i) - 4.5)).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = around(1.0, 0.002);
        assert_eq!(
            judge(&base, &around(1.05, 0.002), Better::Lower, 0.10).1,
            Verdict::Agree
        );
        assert_eq!(judge(&base, &around(1.2, 0.002), Better::Lower, 0.10).1, Verdict::Worse);
        // Better by any amount is never a regression.
        assert_eq!(judge(&base, &around(0.5, 0.002), Better::Lower, 0.10).1, Verdict::Agree);
        assert_eq!(
            judge(&base, &around(0.5, 0.002), Better::Higher, 0.10).1,
            Verdict::Worse
        );
        // A spread wider than the bound cannot resolve a difference of that size.
        assert_eq!(
            judge(&base, &around(1.0, 0.05), Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        let (worsening, _) = judge(&[2.0, 2.0], &[3.0, 3.0], Better::Lower, 0.25);
        assert_eq!(worsening, 0.5);
    }

    #[test]
    fn run_sets_parse_and_collect_exact_counters() {
        let line = |seed: u32, rss: f64| {
            format!(
                r#"{{"workload": "rmat_inproc", "seed": {seed}, "trace": 1, "result": {{"correct": true, "attempted": 3,
                "failed": 0, "metrics": {{"peak_rss_mb": {{"value": {rss}, "unit": "MB"}},
                "phase2.transfer_longs": {{"value": 42, "unit": "Longs"}}}}}}}}"#
            )
            .replace('\n', " ")
        };
        let set = parse_set(&format!("{}\n\n{}\n", line(1, 10.0), line(2, 12.0))).unwrap();
        assert_eq!(
            set.values[&("rmat_inproc".to_string(), "peak_rss_mb".to_string())],
            vec![10.0, 12.0]
        );
        assert_eq!(
            set.counters[&("rmat_inproc".to_string(), 2, "phase2.transfer_longs".to_string())],
            42.0
        );
        assert_eq!(set.counters.len(), 2);
        assert!(parse_set("{\"workload\": 3}").is_err());
    }
}
