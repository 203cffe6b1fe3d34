//! The three serve workloads: a spawned `euler-serve --workers 2` under a
//! closed loop of two client connections (a client sends its next request
//! only after the previous reply is complete — callers of a circuit service
//! wait for their circuit). Requests are timed from `start_run` to `Done`.

use crate::hostspeed::{self, MemProbe, SampleLog, Timed};
use crate::inputs::{self, SMALL_GRAPHS};
use crate::metrics::{TimedMetric, Workload};
use crate::outcome::{Measured, Outcome};
use crate::probes;
use crate::procs::Server;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::verify::Reference;
use euler_core::{
    CircuitStep, GraphInfo, MergeStrategy, PartitionerKind, RunEvent, RunOptions, RunSummary, ServiceClient,
    ServiceStats,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const STRATEGIES: [MergeStrategy; 3] = [
    MergeStrategy::Duplicated,
    MergeStrategy::Deduplicated,
    MergeStrategy::Deferred,
];
const PARTITIONERS: [PartitionerKind; CLIENTS] = [PartitionerKind::Ldg, PartitionerKind::Hash];
/// Cache-hit streams per client and round of `serve_hit` (about a second):
/// between rounds both clients rest while the host's memory speed is read.
const HITS_PER_ROUND: usize = 8;

/// The cache-miss requests of one `serve_cold` round: four distinct option
/// keys on the R-MAT graph, one LDG and one hash cut per client in opposite
/// order, so both clients carry the same work.
fn cold_options(client: usize) -> [RunOptions; 2] {
    let opts = |partitioner, strategy| RunOptions {
        partitions: 8,
        strategy,
        partitioner,
    };
    let ldg = opts(PartitionerKind::Ldg, STRATEGIES[2 * client]);
    let hash = opts(PartitionerKind::Hash, STRATEGIES[2 - 2 * client]);
    if client == 0 {
        [ldg, hash]
    } else {
        [hash, ldg]
    }
}

/// The option keys one client sends per small graph: 7 partition counts × 3
/// strategies under the client's own partitioner, so no key is shared.
fn small_options(client: usize) -> Vec<RunOptions> {
    (2..=8)
        .flat_map(|partitions| {
            STRATEGIES.map(|strategy| RunOptions {
                partitions,
                strategy,
                partitioner: PARTITIONERS[client],
            })
        })
        .collect()
}

type Circuits = Vec<Vec<CircuitStep>>;

/// Client-side view of one request.
struct Reply {
    total_s: f64,
    /// `start_run` → `Accepted`, → `Report`, → first `Chunk` (traced only).
    accepted_s: f64,
    report_s: Option<f64>,
    first_chunk_s: f64,
    chunks: u64,
    steps: u64,
    cached: bool,
    summary: Option<RunSummary>,
    circuits: Option<Circuits>,
    /// Whether this request recorded phase timestamps and spans.
    traced: bool,
}

/// One request, `start_run` → `Done`. With a tracer the phase boundaries are
/// timestamped and recorded as spans; `keep` retains the streamed steps for
/// the full output check.
fn request(
    client: &ServiceClient,
    graph: &GraphInfo,
    opts: RunOptions,
    keep: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<Reply, String> {
    let mut reply = Reply {
        total_s: 0.0,
        accepted_s: 0.0,
        report_s: None,
        first_chunk_s: 0.0,
        chunks: 0,
        steps: 0,
        cached: false,
        summary: None,
        circuits: keep.then(Vec::new),
        traced: tracer.is_some(),
    };
    let span = tracer.as_deref_mut().map(|t| t.begin("request"));
    let marks = span.is_some();
    let t0 = Instant::now();
    client.start_run(graph.checksum, opts).map_err(|e| e.to_string())?;
    let total_edges = loop {
        match client.next_event().map_err(|e| e.to_string())? {
            RunEvent::Accepted { cached, .. } => {
                reply.cached = cached;
                if marks {
                    reply.accepted_s = t0.elapsed().as_secs_f64();
                }
            }
            RunEvent::Progress { .. } => {}
            RunEvent::Report(summary) => {
                reply.summary = Some(summary);
                if marks {
                    reply.report_s = Some(t0.elapsed().as_secs_f64());
                }
            }
            RunEvent::Chunk { circuit, steps, .. } => {
                if marks && reply.chunks == 0 {
                    reply.first_chunk_s = t0.elapsed().as_secs_f64();
                }
                reply.chunks += 1;
                reply.steps += steps.len() as u64;
                if let Some(circuits) = reply.circuits.as_mut() {
                    if circuits.len() <= circuit {
                        circuits.resize_with(circuit + 1, Vec::new);
                    }
                    circuits[circuit].extend(steps);
                }
            }
            RunEvent::Done { total_edges, .. } => break total_edges,
            RunEvent::Cancelled => return Err("the server cancelled the run".into()),
        }
    };
    reply.total_s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.record("accept_wait", t0, 0.0, reply.accepted_s);
        if let Some(report_s) = reply.report_s {
            t.record("compute", t0, reply.accepted_s, report_s);
        }
        t.record("stream", t0, reply.first_chunk_s, reply.total_s);
        t.count(id, "steps", reply.steps as f64);
        t.count(id, "chunks", reply.chunks as f64);
        t.count(id, "cached", f64::from(u8::from(reply.cached)));
        t.end();
    }
    // Every response is checked by step count; the full check is for kept ones.
    if reply.steps != graph.num_edges || total_edges != graph.num_edges {
        return Err(format!(
            "{} steps streamed, {total_edges} announced, {} edges",
            reply.steps, graph.num_edges
        ));
    }
    Ok(reply)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The request type `circuit_s` is the median of.
    Primary,
    /// Cache hits on the small graphs (`service.hit_latency_ms_*`).
    SmallHit,
}

struct Sample {
    kind: Kind,
    /// Requests whose work differs by design (the four option keys of
    /// `serve_cold`) are separate populations: `circuit_s` is the mean of
    /// their medians, so it does not flip between them from run to run.
    population: usize,
    /// The round the request was sent in: rounds carry the memory-speed
    /// readings.
    round: usize,
    reply: Reply,
}

impl Sample {
    fn timed(&self, round_probe_ns: &[f64]) -> Timed {
        Timed {
            raw_s: self.reply.total_s,
            probe_ns: round_probe_ns.get(self.round).copied().unwrap_or(hostspeed::CALM_NS),
        }
    }
}

/// What one client thread did.
struct ClientLog {
    outcome: Outcome,
    samples: Vec<Sample>,
    tracer: Tracer,
    /// Requests sent so far; with the client's offset, the spans' `run_id`.
    sent: u64,
    round: usize,
}

impl ClientLog {
    fn new(client: usize, epoch: Instant) -> ClientLog {
        ClientLog {
            outcome: Outcome::default(),
            samples: Vec::new(),
            tracer: Tracer::new(epoch),
            sent: client as u64 * 1_000_000,
            round: 0,
        }
    }

    /// Sends one request and checks it was served the expected way (from the
    /// cache or not). `None` after a failure: the stream may be out of step,
    /// so the caller abandons this connection.
    fn send(
        &mut self,
        conn: &ServiceClient,
        graph: &GraphInfo,
        opts: RunOptions,
        expect_cached: bool,
        keep: bool,
        traced: bool,
    ) -> Option<Reply> {
        self.sent += 1;
        self.tracer.set_run(self.sent);
        let result = request(conn, graph, opts, keep, traced.then_some(&mut self.tracer)).and_then(|r| {
            if r.cached == expect_cached {
                Ok(r)
            } else {
                Err(format!(
                    "expected cached={expect_cached}, the server said cached={}",
                    r.cached
                ))
            }
        });
        self.outcome.attempt("request", result)
    }

    fn record(&mut self, kind: Kind, population: usize, reply: Reply) {
        self.samples.push(Sample {
            kind,
            population,
            round: self.round,
            reply,
        });
    }

    fn verify(&mut self, what: &str, reference: &Result<Reference, String>, circuits: &Circuits) {
        let verdict = reference
            .as_ref()
            .map_err(String::clone)
            .and_then(|r| r.check(circuits));
        self.outcome.attempt(what, verdict);
    }

    fn same_bytes(&mut self, fresh: &Circuits, cached: &Circuits) {
        let verdict = if fresh == cached {
            Ok(())
        } else {
            Err("differs from the freshly computed circuit".into())
        };
        self.outcome.attempt("cached response", verdict);
    }
}

/// A live server with the workload's graphs registered.
struct Registered {
    server: Server,
    graphs: Vec<(PathBuf, GraphInfo)>,
    spawn_s: f64,
    register_s: f64,
}

fn start_server(tmp: &Path, files: &[PathBuf]) -> Result<Registered, String> {
    let t = Instant::now();
    let server = Server::spawn(tmp)?;
    let spawn_s = t.elapsed().as_secs_f64();
    let admin = connect(&server.endpoint)?;
    let t = Instant::now();
    let mut graphs = Vec::new();
    for file in files {
        let path = file.to_str().ok_or("non-UTF-8 scratch path")?;
        graphs.push((
            file.clone(),
            admin.register(path).map_err(|e| format!("register {path}: {e}"))?,
        ));
    }
    Ok(Registered {
        server,
        graphs,
        spawn_s,
        register_s: t.elapsed().as_secs_f64(),
    })
}

fn connect(endpoint: &str) -> Result<ServiceClient, String> {
    // A reply that takes a minute is a hung server: fail the request.
    ServiceClient::connect(endpoint)
        .map(|c| c.with_recv_timeout(Duration::from_secs(60)))
        .map_err(|e| e.to_string())
}

/// Server-side numbers read just before a server is shut down.
struct ServerEnd {
    peak_rss_mb: f64,
    stats: ServiceStats,
}

fn end_server(reg: &Registered) -> Result<ServerEnd, String> {
    let stats = connect(&reg.server.endpoint)?.stats().map_err(|e| e.to_string())?;
    Ok(ServerEnd {
        peak_rss_mb: reg.server.peak_rss_mb()?,
        stats,
    })
}

/// Mean over the populations of each population's median latency (with one
/// population: the median), each request at the host's calm memory speed
/// under `exponent` (0: as measured).
fn latency(samples: &[&Sample], round_probe_ns: &[f64], exponent: f64) -> f64 {
    let populations: BTreeSet<usize> = samples.iter().map(|s| s.population).collect();
    let medians: Vec<f64> = populations
        .iter()
        .map(|&p| {
            let of_p: Vec<Timed> = samples
                .iter()
                .filter(|s| s.population == p)
                .map(|s| s.timed(round_probe_ns))
                .collect();
            hostspeed::median_at_calm_speed(&of_p, exponent)
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Runs one serve workload for `seconds` (at least one round). `probe` reads
/// the host's memory speed before and after every round, while no client is
/// sending.
pub fn run(
    workload: Workload,
    dir: &Path,
    seconds: f64,
    trace: bool,
    probe: &MemProbe,
    sample_log: &SampleLog,
) -> Measured {
    let files: Vec<PathBuf> = match workload {
        Workload::ServeSmall => (0..SMALL_GRAPHS).map(|i| inputs::small_path(dir, i)).collect(),
        _ => vec![inputs::rmat_path(dir)],
    };
    let epoch = Instant::now();
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|c| ClientLog::new(c, epoch)).collect();
    let mut outcome = Outcome::default();
    let (mut spawn_s, mut register_s, mut ends) = (Vec::new(), Vec::new(), Vec::<ServerEnd>::new());
    let deadline = epoch + Duration::from_secs_f64(seconds);

    // `serve_hit` keeps one server (its cache is the point: round 0 fills it,
    // untimed); the other two start each round on a fresh server, so every
    // request is a cache miss. In trace mode every second timed round is
    // traced, so there are at least two of them.
    let fill_rounds = usize::from(workload == Workload::ServeHit);
    let min_rounds = fill_rounds + if trace { 2 } else { 1 };
    let mut kept: Option<Registered> = None;
    let mut round_probe_ns = Vec::new();
    let mut round = 0;
    while round < min_rounds || Instant::now() < deadline {
        let traced = trace && round >= fill_rounds && (round - fill_rounds) % 2 == 1;
        let reg = match kept.take() {
            Some(reg) => reg,
            None => {
                let Some(reg) = outcome.attempt("server start and register", start_server(dir, &files)) else {
                    break;
                };
                spawn_s.push(reg.spawn_s);
                register_s.push(reg.register_s);
                reg
            }
        };
        let before = probe.sample_ns();
        std::thread::scope(|scope| {
            for (c, log) in logs.iter_mut().enumerate() {
                let reg = &reg;
                log.round = round;
                scope.spawn(move || {
                    let Some(conn) = log.outcome.attempt("client connect", connect(&reg.server.endpoint)) else {
                        return;
                    };
                    match workload {
                        Workload::ServeCold => cold_round(log, &conn, reg, c, round == 0, traced),
                        Workload::ServeHit if round == 0 => hit_fill(log, &conn, reg, c),
                        Workload::ServeHit => hit_round(log, &conn, reg, c, traced),
                        _ => small_round(log, &conn, reg, c, traced),
                    };
                });
            }
        });
        round_probe_ns.push(before.min(probe.sample_ns()));
        if workload == Workload::ServeHit {
            kept = Some(reg);
        } else if let Some(end) = outcome.attempt("server stats and VmHWM", end_server(&reg)) {
            ends.push(end);
        }
        round += 1;
    }
    if let Some(reg) = kept {
        if let Some(end) = outcome.attempt("server stats and VmHWM", end_server(&reg)) {
            ends.push(end);
        }
    }

    let mut spans = Vec::new();
    let mut samples = Vec::new();
    for log in logs {
        outcome.attempted += log.outcome.attempted;
        outcome.failed += log.outcome.failed;
        samples.extend(log.samples);
        // Parent indices are per tracer; shift them as the lists are joined.
        let offset = spans.len();
        spans.extend(log.tracer.into_spans().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    let primary = |traced: Option<bool>| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|s| s.kind == Kind::Primary && traced.is_none_or(|t| s.reply.traced == t))
            .collect()
    };
    let untraced = primary(Some(false));
    let exponent = workload.memory_exponent(TimedMetric::Circuit);
    outcome.set("circuit_s", latency(&untraced, &round_probe_ns, exponent));
    outcome.set("circuit_raw_s", latency(&untraced, &round_probe_ns, 0.0));
    let timed: Vec<Timed> = untraced.iter().map(|s| s.timed(&round_probe_ns)).collect();
    outcome.set("host.mem_probe_ns", hostspeed::median_probe(&timed));
    sample_log.append(workload.name(), TimedMetric::Circuit.name(), &timed);
    // One reading per server (per round, where rounds start fresh servers).
    let peaks: Vec<f64> = ends.iter().map(|e| e.peak_rss_mb).collect();
    outcome.set("peak_rss_mb", median(&peaks));
    outcome.set("setup.server_s", median(&spawn_s) + median(&register_s));
    outcome.set("samples", untraced.len() as f64);
    if trace {
        let traced = primary(Some(true));
        let med = |f: &dyn Fn(&Reply) -> f64| median(&traced.iter().map(|s| f(&s.reply)).collect::<Vec<f64>>());
        let all: Vec<f64> = primary(None).iter().map(|s| s.reply.total_s).collect();
        let hits: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == Kind::SmallHit)
            .map(|s| s.reply.total_s * 1e3)
            .collect();
        let ratios: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.reply.summary)
            .filter(|s| s.measured_longs > 0)
            .map(|s| s.estimated_longs as f64 / s.measured_longs as f64)
            .collect();
        let last = ends.last().map(|e| e.stats).unwrap_or_default();
        for (name, value) in [
            ("service.register_s", median(&register_s)),
            ("service.accept_wait_ms", med(&|r| r.accepted_s * 1e3)),
            (
                "service.compute_s",
                med(&|r| r.report_s.map_or(0.0, |t| t - r.accepted_s)),
            ),
            ("service.first_chunk_s", med(&|r| r.first_chunk_s)),
            ("service.stream_s", med(&|r| r.total_s - r.first_chunk_s)),
            (
                "service.chunks_per_s",
                med(&|r| r.chunks as f64 / (r.total_s - r.first_chunk_s)),
            ),
            ("service.steps_per_s", med(&|r| r.steps as f64 / r.total_s)),
            ("service.latency_ms_p50", median(&all) * 1e3),
            ("service.latency_ms_p99", percentile(&all, 99.0) * 1e3),
            ("service.hit_latency_ms_p50", median(&hits)),
            ("service.hit_latency_ms_p99", percentile(&hits, 99.0)),
            ("service.runs_executed", last.runs_executed as f64),
            ("service.runs_cached", last.runs_cached as f64),
            ("service.peak_admitted_longs", last.peak_admitted_longs as f64),
            ("service.estimate_over_measured", median(&ratios)),
            ("service.errors", outcome.failed as f64),
            ("trace.samples", traced.len() as f64),
            (
                "trace.overhead_frac",
                if untraced.is_empty() {
                    0.0
                } else {
                    latency(&traced, &round_probe_ns, 0.0) / latency(&untraced, &round_probe_ns, 0.0) - 1.0
                },
            ),
        ] {
            outcome.set(name, value);
        }
        if let Some(values) = outcome.attempt("transport probes", probes::transport()) {
            outcome.set_all(values);
        }
    }
    Measured { outcome, spans }
}

/// `serve_cold`: two cache-miss runs on the R-MAT graph per client. In the
/// first round each client's first reply is kept for the full output check.
fn cold_round(log: &mut ClientLog, conn: &ServiceClient, reg: &Registered, client: usize, check: bool, traced: bool) {
    let (file, graph) = &reg.graphs[0];
    for (i, opts) in cold_options(client).into_iter().enumerate() {
        let keep = check && i == 0;
        let Some(mut reply) = log.send(conn, graph, opts, false, keep, traced) else {
            return;
        };
        match reply.circuits.take() {
            // Keeping the steps costs the client time: checked, not sampled.
            Some(circuits) => log.verify("cold response", &Reference::open(file), &circuits),
            None => log.record(Kind::Primary, 2 * client + i, reply),
        }
    }
}

/// `serve_hit`, round 0: one cache-miss run to fill the cache (untimed
/// warm-up, fully checked) and one cache hit of the same key, which must
/// equal the fresh circuit step for step.
fn hit_fill(log: &mut ClientLog, conn: &ServiceClient, reg: &Registered, client: usize) {
    let (file, graph) = &reg.graphs[0];
    let opts = cold_options(client)[0];
    let Some(fresh) = log.send(conn, graph, opts, false, true, false).and_then(|r| r.circuits) else {
        return;
    };
    log.verify("cold response", &Reference::open(file), &fresh);
    if let Some(cached) = log.send(conn, graph, opts, true, true, false).and_then(|r| r.circuits) {
        log.same_bytes(&fresh, &cached);
    }
}

/// `serve_hit`, every later round: cache-hit streams of the client's key.
fn hit_round(log: &mut ClientLog, conn: &ServiceClient, reg: &Registered, client: usize, traced: bool) {
    let graph = &reg.graphs[0].1;
    let opts = cold_options(client)[0];
    for _ in 0..HITS_PER_ROUND {
        let Some(reply) = log.send(conn, graph, opts, true, false, traced) else {
            return;
        };
        log.record(Kind::Primary, 0, reply);
    }
}

/// `serve_small`: per client 84 cache-miss requests (4 graphs × 21 option
/// keys), then the same 84 again as cache hits. Every reply is kept and,
/// after the round's requests, fully checked: the cold ones against their
/// `.ecsr`, the cached ones against the cold reply of the same key.
fn small_round(log: &mut ClientLog, conn: &ServiceClient, reg: &Registered, client: usize, traced: bool) {
    let keys: Vec<(usize, RunOptions)> = (0..reg.graphs.len())
        .flat_map(|g| small_options(client).into_iter().map(move |o| (g, o)))
        .collect();
    let mut fresh = Vec::with_capacity(keys.len());
    for &(g, opts) in &keys {
        let Some(mut reply) = log.send(conn, &reg.graphs[g].1, opts, false, true, traced) else {
            return;
        };
        fresh.push(reply.circuits.take().unwrap_or_default());
        log.record(Kind::Primary, 0, reply);
    }
    let mut cached = Vec::with_capacity(keys.len());
    for &(g, opts) in &keys {
        let Some(mut reply) = log.send(conn, &reg.graphs[g].1, opts, true, true, traced) else {
            return;
        };
        cached.push(reply.circuits.take().unwrap_or_default());
        log.record(Kind::SmallHit, 0, reply);
    }
    // Each graph's file is opened (and its checksum verified) once per round.
    let references: Vec<_> = reg.graphs.iter().map(|(file, _)| Reference::open(file)).collect();
    for ((&(g, _), fresh), cached) in keys.iter().zip(&fresh).zip(&cached) {
        log.verify("small cold response", &references[g], fresh);
        log.same_bytes(fresh, cached);
    }
}
