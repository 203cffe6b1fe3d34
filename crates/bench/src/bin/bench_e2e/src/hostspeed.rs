//! The host's memory speed, measured by the benchmark beside every timed
//! sample, and the correction that takes it out of the reported times.
//!
//! The sandbox this benchmark is judged on is a small VM on a shared host
//! whose memory system changes speed for minutes at a time: the latency of a
//! dependent load over 16 MiB moves between ≈105 ns and ≈160 ns (and sequential
//! bandwidth between 9 and 6.5 GB/s) while cache-resident work keeps its
//! speed. A memory-bound repetition follows it — `torus_spill` ran 0.51 s
//! and 0.72 s in neighbouring runs of the same binary — so a raw time says
//! more about the minute it was taken in than about the program.
//!
//! [`MemProbe`] measures that speed with a kernel that owes nothing to the
//! program under test or to `--seed`: a pointer chase through a fixed random
//! cycle. A reading is taken before and after every timed sample, the
//! better of the two stands for the sample, and the sample is reported as
//! the time it would have taken on the calm host:
//!
//! ```text
//! time_at_calm_speed = raw_time / (probe_ns / CALM_NS) ^ exponent
//! ```
//!
//! `exponent` is how strongly that kind of sample follows the probe (0 = not
//! at all, cache-resident; ≈ 1 = as memory-bound as the probe itself). It is
//! a constant per workload and metric (`Workload::memory_exponent`), fitted
//! once over calm and slow phases at the commit that defines the benchmark
//! (`--fit`, README). A change to the program moves `raw_time` and leaves
//! `probe_ns` alone, so regressions and gains pass through the correction
//! unchanged; the raw medians stay visible as per-layer metrics.

use crate::stats::median;
use euler_metrics::json::{self, Value};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Entries of the probe's cycle: 16 MiB of `u32`, eight times the L2 of a
/// core here and far past what its TLB reaches, yet small beside any
/// workload's resident set.
const ENTRIES: usize = 4 << 20;
/// Dependent loads per reading: about 30 ms.
const STEPS: usize = 300_000;
/// What the probe reads on this host in a calm phase (median over an hour of
/// calm runs). Times are reported at this speed; on another machine it only
/// scales every time by one constant.
pub const CALM_NS: f64 = 105.0;

pub struct MemProbe {
    next: Vec<u32>,
    at: Cell<u32>,
}

impl MemProbe {
    /// What the probe adds to the resident set of the process that owns it
    /// (its whole cycle is touched while it is built), in the MiB-based MB of
    /// `peak_rss_mb`.
    pub const RESIDENT_MB: f64 = (ENTRIES * 4) as f64 / (1024.0 * 1024.0);

    /// Builds the cycle with Sattolo's shuffle under a fixed xorshift stream:
    /// one cycle through every entry, the same in every process.
    pub fn new() -> MemProbe {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        MemProbe { next, at: Cell::new(0) }
    }

    /// Nanoseconds per dependent load, over the next [`STEPS`] entries of the
    /// cycle (successive readings walk on, so none finds its lines cached).
    pub fn sample_ns(&self) -> f64 {
        let mut i = self.at.get();
        let t = Instant::now();
        for _ in 0..STEPS {
            i = self.next[i as usize];
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / STEPS as f64;
        self.at.set(i);
        ns
    }
}

/// One timed sample with the better of the probe readings taken before and
/// after it. Memory speed holds over the second a sample takes, while a
/// reading during which the host took the vCPU away (or a worker process of
/// the sample was still exiting) reads far too slow: of the two, the better
/// one is the one to believe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    pub raw_s: f64,
    pub probe_ns: f64,
}

impl Timed {
    pub fn between(raw_s: f64, probe_before_ns: Option<f64>, probe_after_ns: f64) -> Timed {
        Timed {
            raw_s,
            probe_ns: probe_before_ns.map_or(probe_after_ns, |b| b.min(probe_after_ns)),
        }
    }

    pub fn at_calm_speed(self, exponent: f64) -> f64 {
        self.raw_s / (self.probe_ns / CALM_NS).powf(exponent)
    }
}

pub fn median_at_calm_speed(samples: &[Timed], exponent: f64) -> f64 {
    median(&samples.iter().map(|t| t.at_calm_speed(exponent)).collect::<Vec<f64>>())
}

pub fn median_raw(samples: &[Timed]) -> f64 {
    median(&samples.iter().map(|t| t.raw_s).collect::<Vec<f64>>())
}

pub fn median_probe(samples: &[Timed]) -> f64 {
    median(&samples.iter().map(|t| t.probe_ns).collect::<Vec<f64>>())
}

/// `--samples <file>`: every timed sample of a run with its probe reading
/// and the process that took it, one JSON line each — the input of `--fit`.
#[derive(Clone, Default)]
pub struct SampleLog(pub Option<PathBuf>);

impl SampleLog {
    pub fn append(&self, workload: &str, metric: &str, samples: &[Timed]) {
        let Some(path) = &self.0 else { return };
        let lines: String = samples
            .iter()
            .map(|t| {
                let line = Value::obj(vec![
                    ("workload", Value::str(workload)),
                    ("metric", Value::str(metric)),
                    ("pid", Value::Num(f64::from(std::process::id()))),
                    ("raw_s", Value::Num(t.raw_s)),
                    ("probe_ns", Value::Num(t.probe_ns)),
                ]);
                crate::trace::one_line(&line) + "\n"
            })
            .collect();
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(lines.as_bytes()));
        if let Err(e) = written {
            eprintln!("bench_e2e: cannot append to {}: {e}", path.display());
        }
    }
}

/// Least-squares slope of `ln raw_s` on `ln probe_ns`, and the share of the
/// variance it explains.
fn least_squares_exponent(points: &[Timed]) -> (f64, f64) {
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|t| t.probe_ns.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|t| t.raw_s.ln()).collect();
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return (0.0, 0.0);
    }
    (sxy / sxx, sxy * sxy / (sxx * syy))
}

/// Theil–Sen slope of `ln raw_s` on `ln probe_ns`: the median slope over all
/// pairs of points whose probe readings differ by more than 3 %. One run
/// taken while the host starved the VM of CPU does not move it.
fn robust_exponent(points: &[Timed]) -> f64 {
    let mut slopes = Vec::new();
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            let dx = (b.probe_ns / a.probe_ns).ln();
            if dx.abs() > 0.03 {
                slopes.push((b.raw_s / a.raw_s).ln() / dx);
            }
        }
    }
    median(&slopes)
}

/// `--fit <samples.jsonl>...`: for every workload and metric in the files,
/// the exponent the runs support. Each run (consecutive records of one
/// process) counts as one point, its median time against its median probe
/// reading: single readings are noisy enough to pull a per-sample slope
/// towards 0. Also printed: the range of readings the runs span (a fit over
/// one phase of the host says nothing) and the exponent in use.
pub fn fit(paths: &[String]) -> Result<bool, String> {
    let mut groups: BTreeMap<(String, String), Vec<Vec<Timed>>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut previous = None;
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let bad = || format!("{path} line {}: not a `--samples` record", n + 1);
            let v = json::parse(line).ok_or_else(bad)?;
            let text_of = |key| v.get(key).and_then(Value::as_str).map(str::to_string);
            let num = |key| v.get(key).and_then(Value::as_f64).filter(|x| *x > 0.0);
            let key = (text_of("workload").ok_or_else(bad)?, text_of("metric").ok_or_else(bad)?);
            let run = (key.clone(), num("pid").map(f64::to_bits));
            let runs = groups.entry(key).or_default();
            if previous.as_ref() != Some(&run) {
                runs.push(Vec::new());
                previous = Some(run);
            }
            runs.last_mut().expect("just pushed").push(Timed {
                raw_s: num("raw_s").ok_or_else(bad)?,
                probe_ns: num("probe_ns").ok_or_else(bad)?,
            });
        }
    }
    println!(
        "{:<14} {:<10} {:>5} {:>9} {:>9} {:>10} {:>14} {:>7}",
        "workload", "metric", "runs", "probe min", "probe max", "Theil-Sen", "least sq. (r2)", "in use"
    );
    for ((workload, metric), runs) in &groups {
        let points: Vec<Timed> = runs
            .iter()
            .map(|run| Timed {
                raw_s: median_raw(run),
                probe_ns: median_probe(run),
            })
            .collect();
        let probes = points.iter().map(|t| t.probe_ns);
        let (slope, r2) = least_squares_exponent(&points);
        let in_use = crate::metrics::Workload::parse(workload)
            .zip(crate::metrics::TimedMetric::parse(metric))
            .map_or(f64::NAN, |(w, m)| w.memory_exponent(m));
        println!(
            "{workload:<14} {metric:<10} {:>5} {:>9.1} {:>9.1} {:>10.2} {slope:>7.2} ({r2:.2}) {in_use:>7.2}",
            points.len(),
            probes.clone().fold(f64::INFINITY, f64::min),
            probes.fold(0.0, f64::max),
            robust_exponent(&points),
        );
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_walks_one_cycle_through_every_entry() {
        let probe = MemProbe::new();
        let mut seen = vec![false; ENTRIES];
        let mut i = 0u32;
        for _ in 0..ENTRIES {
            assert!(!std::mem::replace(&mut seen[i as usize], true), "shorter cycle");
            i = probe.next[i as usize];
        }
        assert_eq!(i, 0, "the walk closes after every entry");
        let ns = probe.sample_ns();
        assert!(ns > 0.0 && ns.is_finite());
        assert_ne!(probe.at.get(), 0, "the next reading walks on");
    }

    #[test]
    fn calm_speed_correction_and_its_fit_agree() {
        let calm = Timed {
            raw_s: 2.0,
            probe_ns: CALM_NS,
        };
        assert_eq!(calm.at_calm_speed(0.8), 2.0);
        let slow = Timed {
            raw_s: 2.0 * 1.5f64.powf(0.8),
            probe_ns: CALM_NS * 1.5,
        };
        assert!((slow.at_calm_speed(0.8) - 2.0).abs() < 1e-12);
        assert_eq!(slow.at_calm_speed(0.0), slow.raw_s, "exponent 0 leaves the time alone");
        let (exponent, r2) = least_squares_exponent(&[calm, slow, calm, slow]);
        assert!((exponent - 0.8).abs() < 1e-9 && r2 > 0.999);
        assert_eq!(least_squares_exponent(&[calm, calm]), (0.0, 0.0));
        // One run in which the VM was starved of CPU (4x the time at the calm
        // probe reading) does not move the robust slope.
        let starved = Timed {
            raw_s: 8.0,
            probe_ns: CALM_NS * 1.04,
        };
        let slower = Timed {
            raw_s: 2.0 * 1.2f64.powf(0.8),
            probe_ns: CALM_NS * 1.2,
        };
        assert!((robust_exponent(&[calm, slower, slow, starved]) - 0.8).abs() < 0.1);
        assert!(least_squares_exponent(&[calm, slower, slow, starved]).0 < 0.0);
        assert!((median_at_calm_speed(&[calm, slow], 0.8) - 2.0).abs() < 1e-12);
        assert_eq!(median_probe(&[calm, slow, slow]), CALM_NS * 1.5);
    }
}
