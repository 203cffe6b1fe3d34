//! The four batch workloads, as run by the measuring child: every timed
//! repetition starts from the `.ecsr` path and builds a fresh source,
//! pipeline and backend. The program is only called, never edited; the layer
//! split comes from spans around those calls plus the counters the run
//! already returns.

use crate::hostspeed::{self, MemProbe, SampleLog, Timed};
use crate::metrics::{TimedMetric, Workload};
use crate::outcome::{Measured, Outcome};
use crate::stats::median;
use crate::trace::{Span, TracedBackend, Tracer};
use crate::verify::Reference;
use crate::{inputs, probes, procs};
use euler_core::{
    BspBackend, EulerConfig, EulerPipeline, EulerPipelineBuilder, ExecutionBackend, InProcessBackend, PipelineRun,
};
use euler_graph::MmapCsrSource;
use euler_partition::LdgPartitioner;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

type SharedTracer = Rc<RefCell<Tracer>>;

/// Values by per-layer metric name.
pub type LayerValues = Vec<(&'static str, f64)>;

#[derive(Clone)]
pub struct BatchSpec {
    pub workload: Workload,
    pub ecsr: PathBuf,
    /// Fragment memory budget in Longs (torus workloads).
    pub budget: Option<u64>,
    /// Where fragment spill files go: inside the checkout, not `/tmp`.
    pub spill_dir: PathBuf,
}

impl BatchSpec {
    /// The workload's spec over the inputs `inputs::prepare` left in `dir`.
    pub fn in_dir(workload: Workload, dir: &Path, budget: Option<u64>) -> BatchSpec {
        let ecsr = if workload.uses_torus() {
            inputs::torus_path(dir)
        } else {
            inputs::rmat_path(dir)
        };
        BatchSpec {
            workload,
            ecsr,
            budget,
            spill_dir: dir.to_path_buf(),
        }
    }

    pub fn partitions(&self) -> u32 {
        if self.workload.uses_torus() {
            4
        } else {
            8
        }
    }

    fn config(&self) -> EulerConfig {
        let mut config = EulerConfig::default();
        if self.workload.uses_torus() {
            config = config.sequential().with_fragment_spill_directory(&self.spill_dir);
            if let Some(budget) = self.budget {
                config = config.with_fragment_memory_budget(budget);
            }
        }
        config.with_streaming_phase1(self.workload == Workload::TorusWstream)
    }

    fn build(&self, source: MmapCsrSource, tracer: Option<&SharedTracer>) -> Result<EulerPipeline, String> {
        fn with_backend<B: ExecutionBackend + 'static>(
            builder: EulerPipelineBuilder,
            backend: B,
            tracer: Option<&SharedTracer>,
        ) -> EulerPipelineBuilder {
            match tracer {
                Some(t) => builder.backend(TracedBackend::new(backend, Rc::clone(t))),
                None => builder.backend(backend),
            }
        }
        let builder = EulerPipeline::builder()
            .source(source)
            .partitioner(LdgPartitioner::new(self.partitions()))
            .config(self.config());
        let builder = if self.workload == Workload::RmatBsp {
            // Two `euler-worker` processes over loopback TCP, checkpoint off.
            let bsp = BspBackend::with_engine(euler_bsp::BspConfig::with_workers(2))
                .with_transport(Arc::new(euler_bsp::TcpTransport))
                .process_workers(true);
            with_backend(builder, bsp, tracer)
        } else {
            with_backend(builder, InProcessBackend::new(), tracer)
        };
        builder.build().map_err(|e| e.to_string())
    }

    /// The set-up probe of the torus workloads: one unbounded run, whose
    /// `fragment_disk_longs / 8` becomes the fragment memory budget.
    pub fn probe_budget(&self) -> Result<u64, String> {
        let unbounded = BatchSpec {
            budget: None,
            workload: Workload::TorusSpill,
            ..self.clone()
        };
        let (_, run) = unbounded.rep(None)?;
        Ok(run.circuit.fragment_disk_longs / 8)
    }

    /// One repetition: `.ecsr` path → circuit. Returns the wall time of
    /// open + build + run and the run. With a tracer, the three calls are
    /// spans (children of whatever span the caller has open).
    fn rep(&self, tracer: Option<&SharedTracer>) -> Result<(f64, PipelineRun), String> {
        let span = |name| {
            if let Some(t) = tracer {
                t.borrow_mut().begin(name);
            }
        };
        let end = || {
            if let Some(t) = tracer {
                t.borrow_mut().end();
            }
        };
        let t0 = Instant::now();
        span("open");
        let source = MmapCsrSource::open(&self.ecsr).map_err(|e| e.to_string());
        end();
        span("build");
        let pipeline = source.and_then(|s| self.build(s, tracer));
        end();
        span("run");
        let run = pipeline.and_then(|p| p.run().map_err(|e| e.to_string()));
        end();
        let wall = t0.elapsed().as_secs_f64();
        let run = run?;
        if run.circuit.result.total_edges() != run.partition.num_edges {
            return Err(format!(
                "{} circuit steps for {} edges",
                run.circuit.result.total_edges(),
                run.partition.num_edges
            ));
        }
        Ok((wall, run))
    }

    /// One traced repetition: a `rep` span over open, build and run (what
    /// `circuit_s` times) and a sibling `drop` span for letting go of the
    /// result. Returns the `rep` wall time and this repetition's layer numbers.
    fn traced_rep(&self, tracer: &SharedTracer, run_id: u64) -> Result<(f64, LayerValues), String> {
        tracer.borrow_mut().set_run(run_id);
        let rep_span = tracer.borrow_mut().begin("rep");
        let result = self.rep(Some(tracer));
        tracer.borrow_mut().end();
        let (wall, run) = result?;
        let numbers = RunNumbers::of(&run, self.budget);
        let drop_span = tracer.borrow_mut().begin("drop");
        drop(run);
        tracer.borrow_mut().end();
        let file_bytes = std::fs::metadata(&self.ecsr).map_or(0, |m| m.len());
        Ok((
            wall,
            numbers.layer_metrics(tracer.borrow().spans(), rep_span, drop_span, file_bytes),
        ))
    }
}

/// The counters and stage times one `PipelineRun` reports, copied out so the
/// run itself can be dropped (and that drop timed).
struct RunNumbers {
    values: LayerValues,
    partition_s: f64,
    unroll_s: f64,
    phase1_busy_s: f64,
    merge_s: f64,
    streaming: bool,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `a / b`, or 0 when the denominator is a stage that took no time.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl RunNumbers {
    fn of(run: &PipelineRun, budget: Option<u64>) -> RunNumbers {
        let reports = &run.merge.per_partition;
        let sum = |f: &dyn Fn(&euler_core::LevelPartitionReport) -> f64| reports.iter().map(f).sum::<f64>();
        let phase1_busy_s = sum(&|r| secs(r.phase1_time));
        let merge_s = sum(&|r| secs(r.merge_time));
        let local_edges = sum(&|r| r.counts.local_edges as f64);
        let unroll_s = secs(run.circuit.phase3_time);
        let fs = run.circuit.fragment_stats;
        let mut values = vec![
            ("phase1.busy_s", phase1_busy_s),
            (
                "phase1.level0_busy_s",
                reports
                    .iter()
                    .filter(|r| r.level == 0)
                    .map(|r| secs(r.phase1_time))
                    .sum(),
            ),
            ("phase1.local_edges", local_edges),
            ("phase1.edges_per_s", per(local_edges, phase1_busy_s)),
            ("phase1.paths_found", sum(&|r| r.paths_found as f64)),
            ("phase1.cycles_found", sum(&|r| r.cycles_found as f64)),
            ("phase1.splice_linked_splices", sum(&|r| r.splice_linked_splices as f64)),
            (
                "phase1.splice_materialization_longs",
                sum(&|r| r.splice_materialization_longs as f64),
            ),
            ("phase2.merge_s", merge_s),
            ("phase2.transfer_longs", run.merge.total_transfer_longs as f64),
            ("phase2.supersteps", f64::from(run.merge.supersteps)),
            ("phase3.unroll_s", unroll_s),
            ("phase3.steps_per_s", per(run.partition.num_edges as f64, unroll_s)),
            ("fragment.disk_longs", run.circuit.fragment_disk_longs as f64),
            ("fragment.peak_resident_longs", fs.peak_resident_longs as f64),
            (
                "fragment.budget_overshoot_longs",
                budget.map_or(0.0, |b| fs.peak_resident_longs.saturating_sub(b) as f64),
            ),
            ("fragment.spilled_fragments", fs.spilled_fragments as f64),
            ("fragment.spill_write_longs", fs.spill_write_longs as f64),
            ("fragment.spill_read_longs", fs.spill_read_longs as f64),
            ("fragment.reload_longs_avoided", fs.reload_longs_avoided as f64),
            ("fragment.evictions_scheduled", fs.evictions_scheduled as f64),
            ("fragment.evictions_fifo", fs.evictions_fifo as f64),
            ("fragment.spill_errors", fs.spill_errors as f64),
            (
                "pipeline.peak_level_memory_longs",
                run.report().cumulative_memory_by_level().into_iter().max().unwrap_or(0) as f64,
            ),
        ];
        if let Some(w) = run.merge.wstream {
            values.extend([
                ("wstream.peak_resident_longs", w.peak_resident_longs as f64),
                ("wstream.fragments_emitted", w.fragments_emitted as f64),
                ("wstream.open_chain_flushes", w.open_chain_flushes as f64),
            ]);
        }
        if let Some(engine) = &run.merge.engine {
            let wall = secs(engine.total_wall_time);
            let compute = secs(engine.total_compute_time());
            values.extend([
                ("bsp.engine_wall_s", wall),
                ("bsp.compute_s", compute),
                ("bsp.noncompute_s", wall - compute),
                ("bsp.remote_bytes", engine.total_remote_bytes() as f64),
                (
                    "bsp.remote_messages",
                    engine.supersteps.iter().map(|s| s.remote_messages).sum::<u64>() as f64,
                ),
                ("bsp.supersteps", f64::from(engine.num_supersteps())),
                ("bsp.restarts", engine.recovery.restarts as f64),
                ("bsp.send_retries", engine.recovery.send_retries as f64),
                ("bsp.heartbeat_misses", engine.recovery.heartbeat_misses as f64),
            ]);
        }
        RunNumbers {
            values,
            partition_s: secs(run.partition.partition_time),
            unroll_s,
            phase1_busy_s,
            merge_s,
            streaming: run.merge.wstream.is_some(),
        }
    }

    /// Joins the reported numbers with the spans of repetition `rep_span`
    /// into the `graph.*`, `pipeline.*` metrics and the attribution check.
    fn layer_metrics(mut self, spans: &[Span], rep_span: usize, drop_span: usize, file_bytes: u64) -> LayerValues {
        let child = |parent: usize, name: &str| spans.iter().position(|s| s.parent == Some(parent) && s.name == name);
        let seconds = |id: Option<usize>| id.map_or(0.0, |i| spans[i].seconds());
        let (open, build, run) = (
            child(rep_span, "open"),
            child(rep_span, "build"),
            child(rep_span, "run"),
        );
        let drop_s = spans[drop_span].seconds();
        let levels: Vec<&Span> = spans.iter().filter(|s| s.parent == run && run.is_some()).collect();
        let levels_wall: f64 = levels.iter().map(|s| s.seconds()).sum();
        let (run_start, run_end) = run.map_or((0, 0), |r| (spans[r].start_ns, spans[r].end_ns));
        let first_level = levels.iter().map(|s| s.start_ns).min().unwrap_or(run_end);
        let last_level = levels.iter().map(|s| s.end_ns).max().unwrap_or(run_end);
        // Run start → first level, minus the partition stage the run
        // reports: meta-graph, working partitions, merge tree — and the
        // whole one-pass chain machine on the W-streaming path.
        let prewalk = (first_level - run_start) as f64 / 1e9 - self.partition_s;
        let postwalk = (run_end - last_level) as f64 / 1e9 - self.unroll_s;
        let open_s = seconds(open);
        let traced_wall = spans[rep_span].seconds() + drop_s;
        let attributed =
            open_s + seconds(build) + self.partition_s + prewalk + levels_wall + self.unroll_s + postwalk + drop_s;
        self.values.extend([
            ("graph.open_s", open_s),
            ("graph.open_mb_per_s", per(file_bytes as f64 / 1e6, open_s)),
            ("pipeline.build_s", seconds(build)),
            ("pipeline.run_s", seconds(run)),
            ("pipeline.prewalk_s", prewalk),
            ("phase1.wstream_pass_s", if self.streaming { prewalk } else { 0.0 }),
            ("pipeline.levels_wall_s", levels_wall),
            ("pipeline.level_self_s", levels_wall - self.phase1_busy_s - self.merge_s),
            ("pipeline.postwalk_s", postwalk),
            ("pipeline.drop_s", drop_s),
            ("pipeline.unattributed_frac", per(traced_wall - attributed, traced_wall)),
        ]);
        self.values
    }
}

/// Median per metric name over the traced repetitions.
fn median_by_name(samples: &[LayerValues]) -> LayerValues {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let column: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, median(&column))
        })
        .collect()
}

/// Runs the workload for `seconds` (at least `min_reps` repetitions) after
/// one untimed warm-up repetition whose circuit is fully verified. With
/// `trace`, untraced and traced repetitions alternate, the per-layer medians
/// come from the traced ones, and the probes run afterwards. The host's
/// memory speed is read before and after every untraced repetition.
pub fn run(spec: &BatchSpec, seconds: f64, min_reps: u64, trace: bool, samples: &SampleLog) -> Measured {
    let mut outcome = Outcome::default();
    // Built before the warm-up, so its pages are resident before the first
    // peak-RSS mark and every reading below subtracts the same constant.
    let probe = MemProbe::new();
    // Warm-up: page cache, lazy initialisation, worker binary in cache. Its
    // output gets the full check, outside every timed region.
    if let Some((_, run)) = outcome.attempt("warm-up repetition", spec.rep(None)) {
        let verdict = Reference::open(&spec.ecsr).and_then(|r| r.check(&run.circuit.result.circuits));
        outcome.attempt("output verification", verdict);
    }

    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(Instant::now())));
    let (mut timed, mut traced_walls, mut layer_samples) = (Vec::<Timed>::new(), Vec::new(), Vec::new());
    // Peak RSS per repetition: the mark is reset before each one and read
    // while its result is still alive, so one odd repetition cannot set the
    // number for the whole run.
    let mut peaks = Vec::new();
    let me = std::process::id();
    let start = Instant::now();
    let mut reps = 0;
    let mut before = probe.sample_ns();
    while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps += 1;
        procs::reset_peak_rss(me);
        if let Some((raw_s, run)) = outcome.attempt("repetition", spec.rep(None)) {
            // The probe's own pages are the benchmark's, not the program's.
            peaks.extend(procs::peak_rss_mb(me).map(|mb| mb - MemProbe::RESIDENT_MB));
            drop(run);
            let after = probe.sample_ns();
            timed.push(Timed::between(raw_s, Some(before), after));
            before = after;
        }
        if trace {
            if let Some((wall, layers)) = outcome.attempt("traced repetition", spec.traced_rep(&tracer, reps)) {
                traced_walls.push(wall);
                layer_samples.push(layers);
            }
            before = probe.sample_ns();
        }
    }
    samples.append(spec.workload.name(), TimedMetric::Circuit.name(), &timed);

    let peak = if peaks.is_empty() {
        Err("no repetition left a VmHWM reading".to_string())
    } else {
        Ok(median(&peaks))
    };
    if let Some(rss) = outcome.attempt("peak RSS", peak) {
        outcome.set("peak_rss_mb", rss);
    }
    let exponent = spec.workload.memory_exponent(TimedMetric::Circuit);
    outcome.set("circuit_s", hostspeed::median_at_calm_speed(&timed, exponent));
    // Ratios against times taken in this same run use the raw median.
    let circuit_raw_s = hostspeed::median_raw(&timed);
    outcome.set("circuit_raw_s", circuit_raw_s);
    outcome.set("host.mem_probe_ns", hostspeed::median_probe(&timed));
    outcome.set("samples", timed.len() as f64);
    if trace {
        outcome.set_all(median_by_name(&layer_samples));
        outcome.set("trace.samples", layer_samples.len() as f64);
        if circuit_raw_s > 0.0 && !traced_walls.is_empty() {
            outcome.set("trace.overhead_frac", median(&traced_walls) / circuit_raw_s - 1.0);
        }
        if let Some(values) = outcome.attempt("graph and partition probes", probes::graph_and_partition(spec)) {
            outcome.set_all(values);
        }
        if spec.workload == Workload::RmatBsp {
            // The same input through the in-process backend, in this same
            // process: what the wire costs, as a ratio.
            let control = BatchSpec {
                workload: Workload::RmatInproc,
                ..spec.clone()
            };
            let control_walls: Vec<f64> = (0..min_reps)
                .filter_map(|_| {
                    outcome
                        .attempt("in-process control repetition", control.rep(None))
                        .map(|(w, _)| w)
                })
                .collect();
            if !control_walls.is_empty() && circuit_raw_s > 0.0 {
                outcome.set("bsp.wire_tax_ratio", circuit_raw_s / median(&control_walls));
            }
            if let Some(values) = outcome.attempt("transport probes", probes::transport()) {
                outcome.set_all(values);
            }
        }
    }
    let spans = Rc::try_unwrap(tracer)
        .map(|t| t.into_inner().into_spans())
        .unwrap_or_default();
    Measured { outcome, spans }
}
