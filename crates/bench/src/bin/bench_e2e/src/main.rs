//! `bench_e2e`: the end-to-end + per-layer benchmark of `BENCHMARK.json`.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result object on the last line
//! bench_e2e [--seed <n>] [--seconds <s>] [--trace 1]                  every workload in turn
//! bench_e2e --smoke [--seed <n>]                                      every workload, tiny inputs, a few seconds
//! bench_e2e --compare <a.jsonl> <b.jsonl>                             do two sets of runs agree?
//! bench_e2e --fit <samples.jsonl>...                                  how strongly do the times follow the host's memory speed?
//! bench_e2e --emit-benchmark-json                                     the contents of BENCHMARK.json
//! ```
//!
//! Any run appends its result to `--out <file>` (one JSON line per run: the
//! input of `--compare`) and its timed samples with their memory-speed
//! readings to `--samples <file>` (the input of `--fit`). See README.md beside this package for every metric
//! and workload.

mod batch;
mod compare;
mod hostspeed;
mod inputs;
mod metrics;
mod outcome;
mod probes;
mod procs;
mod serve;
mod stats;
mod trace;
mod verify;

use batch::BatchSpec;
use euler_metrics::json::{self, Value};
use hostspeed::{MemProbe, SampleLog, Timed};
use inputs::Scale;
use metrics::{TimedMetric, Workload};
use outcome::Outcome;
use procs::TempDir;
use stats::median;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// A measuring child that outlives this is killed and counted as one failed
/// operation. The longest honest child (`rmat_bsp`, 10 s of measuring plus
/// warm-up, probes and control repetitions) needs about 30 s.
const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// Set-up passes per run; `setup_s` is their median. A set-up that takes
/// milliseconds (`serve_small`) is repeated up to the larger count, so its
/// median is as steady as that of the slow ones.
const SETUP_PASSES: std::ops::RangeInclusive<usize> = 3..=20;
const CHEAP_SETUP: Duration = Duration::from_secs(1);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    samples: SampleLog,
    trace_file: Option<PathBuf>,
    /// Set by the driver process when it re-runs this binary as the
    /// measuring child of a batch workload.
    child: Option<ChildArgs>,
}

struct ChildArgs {
    dir: PathBuf,
    budget: Option<u64>,
    trace_file: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bench_e2e [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>] \
         [--samples <file>] [--trace-file <file>]\n       bench_e2e --smoke | --compare <a.jsonl> <b.jsonl> | \
         --fit <samples.jsonl>... | --emit-benchmark-json",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
        samples: SampleLog::default(),
        trace_file: None,
        child: None,
    };
    let (mut child_dir, mut budget, mut seconds) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                args.trace = matches!(value.as_str(), "1" | "0")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            "--out" => args.out = Some(value.into()),
            "--samples" => args.samples = SampleLog(Some(value.into())),
            "--trace-file" => args.trace_file = Some(value.into()),
            "--child-dir" => child_dir = Some(PathBuf::from(value)),
            "--child-budget" => budget = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    // Smoke runs the minimum number of repetitions unless told otherwise.
    args.seconds = seconds.unwrap_or(if args.smoke { 0.0 } else { args.seconds });
    if let Some(dir) = child_dir {
        let trace_file = args.trace_file.clone().ok_or("--child-dir needs --trace-file")?;
        args.child = Some(ChildArgs {
            dir,
            budget,
            trace_file,
        });
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            println!("{}", metrics::benchmark_json().to_pretty());
            Ok(true)
        }
        Some("--compare") => match &argv[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("--fit") if argv.len() > 1 => hostspeed::fit(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| match (&args.child, args.workload) {
            (Some(child), Some(workload)) => run_child(workload, child, &args),
            (Some(_), None) => Err("--child-dir needs --workload".into()),
            (None, _) => run_driver(&args),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The measuring child of a batch workload: runs the repetitions in a
/// process of its own, so `VmHWM` belongs to the workload alone and never
/// includes the generator's resident `Graph`. Prints its outcome as JSON.
fn run_child(workload: Workload, child: &ChildArgs, args: &Args) -> Result<bool, String> {
    let spec = BatchSpec::in_dir(workload, &child.dir, child.budget);
    let min_reps = if args.smoke { 1 } else { 3 };
    let run = batch::run(&spec, args.seconds, min_reps, args.trace, &args.samples);
    if args.trace {
        write_trace(&child.trace_file, workload, &run.spans)?;
    }
    println!("{}", trace::one_line(&run.outcome.to_json()));
    Ok(true)
}

fn write_trace(path: &Path, workload: Workload, spans: &[trace::Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, trace::to_json_lines(workload.name(), spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Everything but the measuring child: one workload (the contract's command
/// line), or every workload in turn.
fn run_driver(args: &Args) -> Result<bool, String> {
    // Fail before any set-up work if the program's binaries are missing.
    procs::program_bin("euler-worker")?;
    procs::program_bin("euler-serve")?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // Smoke and all-workload runs print both tables: untraced, then traced.
    let traces: &[bool] = match (args.smoke, args.workload, args.trace) {
        (true, ..) => &[true],
        (false, None, true) => &[false, true],
        (false, _, trace) => &[trace],
    };
    let mut all_correct = true;
    for &workload in &workloads {
        for &trace in traces {
            let outcome = run_workload(workload, args, trace)?;
            let line = outcome.result_line(trace);
            if let Some(out) = &args.out {
                append_result(out, workload, args.seed, trace, &line)?;
            }
            all_correct &= outcome.failed == 0;
            if args.smoke {
                let circuit_s = outcome.get("circuit_s").unwrap_or(0.0);
                println!(
                    "smoke {:<14} circuit_s {circuit_s:>9.4}  attempted {:>4}  failed {}",
                    workload.name(),
                    outcome.attempted,
                    outcome.failed
                );
            } else {
                outcome.print_table(workload.name(), trace);
                println!("{}", trace::one_line(&line));
            }
        }
    }
    // A single contract run reports failures in its result object and exits
    // 0; the convenience modes turn them into the exit code.
    Ok(args.workload.is_some() && !args.smoke || all_correct)
}

fn append_result(path: &Path, workload: Workload, seed: u64, trace: bool, line: &Value) -> Result<(), String> {
    let record = Value::obj(vec![
        ("workload", Value::str(workload.name())),
        ("seed", Value::Num(seed as f64)),
        ("trace", Value::Num(f64::from(u8::from(trace)))),
        ("result", line.clone()),
    ]);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", trace::one_line(&record)))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// One run of one workload: set-up (timed, several passes), then the
/// measurement — in a child process for the batch workloads, against spawned
/// servers for the serve workloads.
fn run_workload(workload: Workload, args: &Args, trace: bool) -> Result<Outcome, String> {
    let scale = if args.smoke { Scale::SMOKE } else { Scale::FULL };
    let tmp = TempDir::create()?;
    let dir = tmp.path();
    let spec = BatchSpec::in_dir(workload, dir, None);

    let (mut setup, mut generate_s, mut pack_s) = (Vec::<Timed>::new(), Vec::new(), Vec::new());
    let (mut edges, mut budget) = (0, None);
    // The host's memory speed is read around every set-up pass, and on the
    // serve workloads (whose clients live in this process) around every round.
    // (Not before the first pass: straight after the probe is built, part
    // of its cycle is still in cache and the reading is too good.)
    let probe = MemProbe::new();
    let mut before = None;
    let started = Instant::now();
    let more_passes = |done: usize| match args.smoke {
        true => done < 1,
        false => done < *SETUP_PASSES.start() || (done < *SETUP_PASSES.end() && started.elapsed() < CHEAP_SETUP),
    };
    while more_passes(setup.len()) {
        let t = Instant::now();
        let generated = inputs::prepare(workload, scale, args.seed, dir)?;
        if workload.uses_torus() {
            budget = Some(spec.probe_budget()?);
        }
        let raw_s = t.elapsed().as_secs_f64();
        let after = probe.sample_ns();
        setup.push(Timed::between(raw_s, before, after));
        before = Some(after);
        generate_s.push(generated.generate_s);
        pack_s.push(generated.pack_s);
        edges = generated.edges;
    }

    let trace_file = match &args.trace_file {
        Some(path) => path.clone(),
        None => procs::bin_dir()?
            .join("bench_e2e.trace")
            .join(format!("{}-seed{}.jsonl", workload.name(), args.seed)),
    };
    let mut outcome = if workload.is_serve() {
        let run = serve::run(workload, dir, args.seconds, trace, &probe, &args.samples);
        if trace {
            write_trace(&trace_file, workload, &run.spans)?;
        }
        run.outcome
    } else {
        measure_in_child(workload, args, trace, dir, budget, &trace_file)
    };

    // Server spawn + `register` (serve workloads) is tens of milliseconds of
    // process start-up: added as measured.
    let server_s = outcome.get("setup.server_s").unwrap_or(0.0);
    let exponent = workload.memory_exponent(TimedMetric::Setup);
    outcome.set("setup_s", hostspeed::median_at_calm_speed(&setup, exponent) + server_s);
    outcome.set("setup_raw_s", hostspeed::median_raw(&setup) + server_s);
    args.samples.append(workload.name(), TimedMetric::Setup.name(), &setup);
    outcome.set("gen.generate_s", median(&generate_s));
    outcome.set("gen.pack_s", median(&pack_s));
    outcome.set("input.edges", edges as f64);
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    outcome.set("host.available_parallelism", host as f64);
    let rayon = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(host);
    outcome.set("host.rayon_threads", rayon as f64);
    Ok(outcome)
}

/// Re-runs this binary as the measuring child, with its temp files inside
/// the scratch directory. A child that fails or hangs is one failed
/// operation, not a failed benchmark.
fn measure_in_child(
    workload: Workload,
    args: &Args,
    trace: bool,
    dir: &Path,
    budget: Option<u64>,
    trace_file: &Path,
) -> Outcome {
    let spawn = || -> Result<Outcome, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload.name(), "--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--child-dir")
            .arg(dir)
            .arg("--trace-file")
            .arg(trace_file)
            .env("TMPDIR", dir);
        if let Some(b) = budget {
            cmd.args(["--child-budget", &b.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(samples) = &args.samples.0 {
            cmd.arg("--samples").arg(samples);
        }
        let stdout = procs::run_with_timeout(cmd, CHILD_LIMIT)?;
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("the measuring child printed nothing")?;
        json::parse(last)
            .as_ref()
            .and_then(Outcome::from_json)
            .ok_or_else(|| format!("unreadable child outcome: {last}"))
    };
    let mut wrapper = Outcome::default();
    wrapper.attempt("measuring child", spawn()).unwrap_or(wrapper)
}
