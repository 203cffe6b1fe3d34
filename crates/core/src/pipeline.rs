//! The unified Euler pipeline: one merge-tree walk, pluggable execution
//! backends, staged outputs.
//!
//! The paper's algorithm is a single pipeline — load the graph, partition it,
//! run the Phase-1/2 merge tree, unroll the circuit in Phase 3 — that the
//! paper separates cleanly from its Spark substrate. This module mirrors that
//! separation:
//!
//! * [`EulerPipeline`] is the session-style entry point: a builder
//!   (`EulerPipeline::builder().source(..).partitioner(..).strategy(..)
//!   .backend(..).build()`) producing a [`PipelineRun`] whose typed stages
//!   ([`PartitionStage`] → [`MergeStage`] → [`CircuitStage`]) each carry
//!   their slice of the unified [`RunReport`].
//! * [`ExecutionBackend`] is the substrate seam. The merge-tree walk lives
//!   *here*, in [`run_with_backend`]; a backend only executes one level at a
//!   time ([`ExecutionBackend::run_level`]), and every backend runs a
//!   partition's share of a level through the same step (`crate::level`):
//!   merge the children shipped at the previous level, Phase 1, keep or
//!   ship — and through the same slot set and barrier fold
//!   ([`crate::distributed`]). [`InProcessBackend`] is one worker holding
//!   every partition, stepped in place: its slots fan out on rayon threads
//!   and every shipped state reaches its parent by value; [`BspBackend`] runs
//!   the level as one superstep of a set of workers that serialise what they
//!   ship to each other (shuffle accounting, per-partition time splits) —
//!   stepped in place, or over a wire transport. Whatever the backend
//!   runs concurrently, fragments are named and walked by `(level,
//!   partition, push sequence)` ([`crate::FragmentId`]), so every backend,
//!   thread count and worker count produces the same bytes.
//! * [`euler_graph::GraphSource`] is the input seam (see
//!   [`EulerPipelineBuilder::source`]): in-memory graphs, chunked edge-list
//!   files, and memory-mapped binary CSR files
//!   ([`euler_graph::MmapCsrSource`]). A CSR-backed source combined with a
//!   precomputed assignment takes the *direct slicing path*: one pass over
//!   the mapped endpoints section counts level 0 (`crate::level0`), and the
//!   backend fills the partition states from that section where they will
//!   run — a [`Seed`] — so no full [`Graph`] and no partition view is ever
//!   materialised — the multi-GB loading mode the paper's scale targets
//!   require.

use crate::config::EulerConfig;
use crate::distributed::DistRun;
use crate::error::EulerError;
use crate::fragment::{FragmentStore, FragmentStoreStats, SpillConfig};
use crate::level0::{self, FileLevel0, Scan};
use crate::memory_model::{LevelTrace, PartitionLevelState};
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::MergeTree;
use crate::phase1::wstream::{stream_phase1, WStreamStats};
use crate::phase2::apply_remote_edge_dedup;
use crate::phase3::{unroll, CircuitResult};
use crate::state::{VertexTypeCounts, WorkingPartition};
use crate::verify::verify_steps;
use euler_graph::{
    properties, CsrFile, EdgeId, EdgeStream, Graph, GraphSource, MetaGraph, PartitionAssignment,
    PartitionId, PartitionedGraph, VertexId,
};
use euler_partition::Partitioner;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The unified run report.
// ---------------------------------------------------------------------------

/// Per-partition, per-level record of one Phase-1 execution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelPartitionReport {
    /// Merge level (0 = leaf partitions).
    pub level: u32,
    /// Partition (current merged id).
    pub partition: PartitionId,
    /// Vertex/edge composition at the start of the level (Fig. 9).
    pub counts: VertexTypeCounts,
    /// The `|B|+|I|+|L|` complexity measure (Fig. 7 x-axis).
    pub complexity: u64,
    /// Measured Phase-1 time (Fig. 7 y-axis).
    pub phase1_time: Duration,
    /// Time spent merging child partitions into this one before Phase 1
    /// (zero at level 0).
    pub merge_time: Duration,
    /// Active in-memory state in Longs at the start of the level, under the
    /// configured merge strategy (Fig. 8).
    pub memory_longs: u64,
    /// Remote edges that become local at this level's merge (input to the
    /// deferred-transfer model).
    pub remote_needed_now: u64,
    /// Longs received from merged children at the start of this level.
    pub transfer_in_longs: u64,
    /// Paths (OB-pairs) found by Phase 1.
    pub paths_found: u64,
    /// Standalone cycles found by Phase 1.
    pub cycles_found: u64,
    /// Internal cycles spliced into earlier fragments.
    pub internal_cycles_merged: u64,
    /// Splice-order-index pivot lookups (one per step-3 cycle with a
    /// visible pivot) — see [`SpliceStats`](crate::phase1::SpliceStats).
    pub splice_pivot_lookups: u64,
    /// O(|cycle|) linked splices performed by the splice-order index.
    pub splice_linked_splices: u64,
    /// Longs materialised from the linked tours at persist time.
    pub splice_materialization_longs: u64,
}

/// Full report of one pipeline run — the same record for every backend,
/// assembled by the shared merge-tree walk. A BSP run additionally carries
/// its superstep statistics in [`RunReport::engine`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of leaf partitions.
    pub num_partitions: u32,
    /// Number of Phase-1 rounds executed (the coordination cost, §3.5).
    pub supersteps: u32,
    /// Merge strategy used.
    pub strategy: MergeStrategy,
    /// Per-partition, per-level records.
    pub per_partition: Vec<LevelPartitionReport>,
    /// Total wall time of phases 1–2.
    pub phase12_time: Duration,
    /// Wall time of Phase 3.
    pub phase3_time: Duration,
    /// Total Longs shipped between partitions across all merges.
    pub total_transfer_longs: u64,
    /// Longs written to the fragment store ("disk").
    pub fragment_disk_longs: u64,
    /// Real memory/spill statistics of the fragment store (peak resident
    /// Longs; spill counts when the run executed under a
    /// [`EulerConfig::fragment_memory_budget`]).
    pub fragment_stats: FragmentStoreStats,
    /// The merge tree used.
    pub merge_tree: MergeTree,
    /// Name of the execution backend that ran the merge-tree walk.
    pub backend: String,
    /// BSP superstep statistics (wall/compute splits, shuffle bytes,
    /// modelled platform overhead) when the run executed on [`BspBackend`];
    /// `None` for in-process runs.
    pub engine: Option<euler_bsp::EngineStats>,
    /// Resident-state accounting of the W-streaming Phase-1 pass when the
    /// run executed with [`EulerConfig::streaming_phase1`]; `None` for the
    /// dense arena path.
    pub wstream: Option<WStreamStats>,
    /// Non-fatal degradations the run absorbed: spill I/O failures that fell
    /// back to resident fragments, worker deaths that were recovered by
    /// checkpoint rollback or deterministic replay. Empty for a clean run.
    pub warnings: Vec<String>,
}

impl RunReport {
    /// Records for one level.
    pub fn level(&self, level: u32) -> Vec<&LevelPartitionReport> {
        self.per_partition.iter().filter(|r| r.level == level).collect()
    }

    /// Cumulative active memory (Longs) per level — the solid lines of Fig. 8.
    pub fn cumulative_memory_by_level(&self) -> Vec<u64> {
        (0..self.supersteps)
            .map(|l| self.level(l).iter().map(|r| r.memory_longs).sum())
            .collect()
    }

    /// Converts the report into the per-level trace consumed by the
    /// analytical memory model (Fig. 8 current/ideal/proposed).
    pub fn level_trace(&self) -> Vec<LevelTrace> {
        (0..self.supersteps)
            .map(|l| LevelTrace {
                level: l,
                partitions: self
                    .level(l)
                    .iter()
                    .map(|r| PartitionLevelState {
                        vertices: r.counts.total_vertices(),
                        local_edges: r.counts.local_edges,
                        remote_edges: r.counts.remote_edges,
                        remote_needed_now: r.remote_needed_now,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Total user compute time (Phase 1 + merging) across all partitions.
    pub fn total_compute_time(&self) -> Duration {
        self.per_partition.iter().map(|r| r.phase1_time + r.merge_time).sum()
    }
}

// ---------------------------------------------------------------------------
// The execution-backend seam.
// ---------------------------------------------------------------------------

/// One level of the merge-tree walk, handed to a backend for execution.
///
/// A level is, for every live partition: merge the child states shipped to
/// it at the previous level, run Phase 1, and ship the state to its merge
/// parent if `tree.pairs_at(level)` retires it (nothing ships at the root
/// level). The partition states live *inside* the backend between levels —
/// like executors holding partition state on a cluster — and are seeded
/// exactly once, at level 0, through [`LevelWork::seed`].
pub struct LevelWork<'a> {
    /// Merge level to execute (0 = leaf partitions). The walk runs levels
    /// `0..tree.num_supersteps()`.
    pub level: u32,
    /// The merge tree being walked, shared behind an [`Arc`] so backends
    /// that keep it across levels clone a pointer instead of the tree.
    pub tree: &'a Arc<MergeTree>,
    /// Fragment store Phase 1 persists into.
    pub store: &'a FragmentStore,
    /// Algorithm configuration.
    pub config: &'a EulerConfig,
    /// The level-0 partition states. `Some` on the first level of a run,
    /// `None` afterwards; receiving a new seed resets any state the backend
    /// kept from a previous run.
    pub seed: Option<Seed<'a>>,
}

/// What a run starts from: the level-0 partition states, built already (a
/// resident graph, the W-streaming residuals) or still in their file (a
/// mapped `.ecsr`, the assignment and one counting pass over it), to be
/// filled by the backend where its partitions live — all of them in this
/// process ([`into_states`](Self::into_states)), or each wire worker its own
/// share.
pub struct Seed<'a>(pub(crate) SeedKind<'a>);

pub(crate) enum SeedKind<'a> {
    States(Vec<WorkingPartition>),
    File(FileLevel0<'a>),
}

impl Seed<'_> {
    /// The level-0 state of every partition, ascending by id.
    ///
    /// # Errors
    /// [`EulerError::Graph`] when the seed is still in its file and the file
    /// names a vertex the assignment does not cover.
    pub fn into_states(self) -> Result<Vec<WorkingPartition>, EulerError> {
        match self.0 {
            SeedKind::States(mut states) => {
                states.sort_by_key(|s| s.id);
                Ok(states)
            }
            SeedKind::File(level0) => Ok(level0.fill(|_| true)?),
        }
    }
}

impl From<Vec<WorkingPartition>> for Seed<'_> {
    fn from(states: Vec<WorkingPartition>) -> Self {
        Seed(SeedKind::States(states))
    }
}

/// What a backend reports back from one level.
#[derive(Clone, Debug, Default)]
pub struct LevelOutcome {
    /// One record per partition that ran Phase 1 this level, ascending by
    /// partition id.
    pub reports: Vec<LevelPartitionReport>,
    /// Longs shipped to merge parents by the merges initiated this level.
    pub transfer_longs: u64,
}

/// An execution substrate for the merge-tree walk.
///
/// The walk itself ([`run_with_backend`]) is backend-independent: it plans
/// the levels, seeds the backend once, calls
/// [`run_level`](ExecutionBackend::run_level) per level and assembles the
/// unified [`RunReport`]. Implementations decide *where* a level's partitions
/// step and how shipped states reach their parents: in one worker of this
/// process, by value ([`InProcessBackend`]), or on BSP workers, serialised
/// between them ([`BspBackend`]). The trait is object-safe; pipelines hold
/// `Box<dyn ExecutionBackend>`.
pub trait ExecutionBackend {
    /// Short backend name, recorded in [`RunReport::backend`].
    fn name(&self) -> &'static str;

    /// Executes one level: the merges shipped at the previous level, Phase 1
    /// on every live partition, then this level's ships, keeping the
    /// resulting states for the next call.
    ///
    /// # Errors
    /// [`EulerError::Distributed`] when a distributed backend loses workers
    /// beyond its recovery budget or the transport fails unrecoverably.
    /// In-process execution is infallible.
    fn run_level(&self, work: LevelWork<'_>) -> Result<LevelOutcome, EulerError>;

    /// Superstep statistics accumulated over the walk, for backends that
    /// collect them (the BSP backend). Called by the walk after the last
    /// level.
    fn engine_stats(&self) -> Option<euler_bsp::EngineStats> {
        None
    }

    /// Non-fatal degradations the backend absorbed during the walk (worker
    /// deaths recovered by rollback or replay). Collected into
    /// [`RunReport::warnings`] after the last level.
    fn warnings(&self) -> Vec<String> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// In-process backend (rayon).
// ---------------------------------------------------------------------------

/// Executes levels in this process, as one worker stepped in place that
/// holds every partition, so every shipped state reaches its parent by value.
/// A level's partitions fan out on rayon threads, each merging its children
/// and running the sequential Phase-1 kernel on an arena of the worker's
/// pool; [`EulerPipelineBuilder::sequential`] steps them one at a time —
/// same bytes, one thread. It reports no superstep statistics, and produces
/// the detailed per-level, per-partition quantities the paper's Figs. 6–9
/// are built from.
#[derive(Default)]
pub struct InProcessBackend {
    run: RefCell<Option<DistRun>>,
}

impl InProcessBackend {
    /// Creates the backend. One instance serves one pipeline run at a time;
    /// re-seeding (a new run) resets it.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ExecutionBackend for InProcessBackend {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn run_level(&self, work: LevelWork<'_>) -> Result<LevelOutcome, EulerError> {
        let (tree, config) = (Arc::clone(work.tree), work.config);
        step_run(&self.run, work, |seed| {
            let one = euler_bsp::BspConfig::with_workers(1);
            DistRun::new(one, None, tree, config.merge_strategy, seed, config.parallel_within_level)
        })
    }
}

/// Runs `work` on a backend's run, which `start` brings up from the level-0
/// seed; the root level finishes it.
fn step_run<'a>(
    run: &RefCell<Option<DistRun>>,
    work: LevelWork<'a>,
    start: impl FnOnce(Seed<'a>) -> Result<DistRun, EulerError>,
) -> Result<LevelOutcome, EulerError> {
    let mut slot = run.borrow_mut();
    if let Some(seed) = work.seed {
        *slot = Some(start(seed)?);
    }
    let run = slot.as_mut().expect("the pipeline seeds the backend at level 0");
    let outcome = run.step(work.level, work.store)?;
    if work.level + 1 == work.tree.num_supersteps() {
        // Root level done. The statistics snapshot the walk takes right
        // after sees the finished wall time.
        run.finish();
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// BSP backend (serialised ships, superstep statistics).
// ---------------------------------------------------------------------------

/// Wire encoding of a [`WorkingPartition`] as a flat u64 sequence: what a
/// BSP worker ships to a merge parent (in place or in a frame), seeds and
/// checkpoints ([`crate::distributed`]).
pub(crate) mod wire {
    use super::*;
    use crate::fragment::FragmentId;
    use crate::state::{EdgeRef, LocalEdge, RemoteRef};
    use euler_bsp::wire::{word_u32, WireError, WordReader, WordWriter};
    use euler_graph::{EdgeId, VertexId};

    /// Words in the record [`encode`] writes for `wp`.
    pub fn record_words(wp: &WorkingPartition) -> usize {
        let (local, remote) = (wp.local_edges.len() as u64, wp.remote_edges.len() as u64);
        record_words_of(wp.leaves.len() as u64, local, remote) as usize
    }

    /// Words in the record of a state with these many leaves, local edges
    /// and remote refs.
    pub fn record_words_of(leaves: u64, local: u64, remote: u64) -> u64 {
        6 + leaves + 4 * local + 5 * remote
    }

    pub fn encode(wp: &WorkingPartition, out: &mut WordWriter) {
        out.reserve(record_words(wp));
        out.words(&[
            wp.id.0 as u64,
            wp.level as u64,
            wp.isolated_vertices,
            wp.local_edges.len() as u64,
            wp.remote_edges.len() as u64,
            wp.leaves.len() as u64,
        ]);
        for l in &wp.leaves {
            out.u(l.0 as u64);
        }
        for e in &wp.local_edges {
            let (tag, id) = match e.edge {
                EdgeRef::Real(id) => (0, id.0),
                EdgeRef::Virtual(id) => (1, id.0),
            };
            out.words(&[tag, id, e.u.0, e.v.0]);
        }
        for r in &wp.remote_edges {
            out.words(&[
                r.edge.0,
                r.local.0,
                r.remote.0,
                r.local_leaf.0 as u64,
                r.remote_leaf.0 as u64,
            ]);
        }
    }

    /// Decodes one [`encode`] record, which must fill `r` exactly. The
    /// record comes off the wire or out of a checkpoint file: truncated or
    /// garbage words are a typed error, never a panic or an over-allocation.
    pub fn decode(r: &mut WordReader<'_>) -> Result<WorkingPartition, WireError> {
        let [id, level, isolated_vertices] = r.array()?;
        let (n_local, n_remote, n_leaves) = (r.count()?, r.count()?, r.count()?);
        let mut leaves = Vec::with_capacity(r.cap(n_leaves, 1));
        for _ in 0..n_leaves {
            leaves.push(PartitionId(word_u32(r.u()?, "leaf")?));
        }
        let mut local_edges = Vec::with_capacity(r.cap(n_local, 4));
        for _ in 0..n_local {
            let [tag, idv, u, v] = r.array()?;
            let edge = match tag {
                0 => EdgeRef::Real(EdgeId(idv)),
                1 => EdgeRef::Virtual(FragmentId(idv)),
                t => return Err(WireError::Invalid(format!("unknown local edge tag {t}"))),
            };
            local_edges.push(LocalEdge { edge, u: VertexId(u), v: VertexId(v) });
        }
        let mut remote_edges = Vec::with_capacity(r.cap(n_remote, 5));
        for _ in 0..n_remote {
            let [edge, local, remote, local_leaf, remote_leaf] = r.array()?;
            remote_edges.push(RemoteRef {
                edge: EdgeId(edge),
                local: VertexId(local),
                remote: VertexId(remote),
                local_leaf: PartitionId(word_u32(local_leaf, "local leaf")?),
                remote_leaf: PartitionId(word_u32(remote_leaf, "remote leaf")?),
            });
        }
        r.finish()?;
        Ok(WorkingPartition {
            id: PartitionId(word_u32(id, "partition")?),
            leaves,
            level: word_u32(level, "level")?,
            local_edges,
            remote_edges,
            isolated_vertices,
        })
    }
}

/// Executes levels as BSP supersteps: the partitions are dealt to a set of
/// workers — whole merge subtrees together where the balance allows it, so
/// merges stay on the worker that holds the parent; the table is
/// [`euler_bsp::EngineStats::placement`] — one superstep per merge level. A
/// child retiring into a parent on its own worker is handed over by value;
/// one whose parent is on another worker ships its *serialised* state there.
///
/// On top of the [`RunReport`] every backend fills, this one contributes superstep statistics (shuffle bytes,
/// per-partition time splits, modelled platform overhead) via
/// [`RunReport::engine`], which is what the Fig.-5/6 harnesses consume. The
/// default configuration is one worker per partition — the paper's
/// one-executor-per-partition deployment. Without a transport the workers
/// are slot sets of this process, stepped in place on one thread each; with
/// one ([`with_transport`](Self::with_transport)) they are threads or
/// processes behind frames. Either way they run the same step and the same
/// barrier fold, and circuits, records and transfers are the same bytes for
/// every worker count (and equal to [`InProcessBackend`]'s), because
/// fragment ids do not depend on the schedule — see [`crate::FragmentId`].
pub struct BspBackend {
    engine: euler_bsp::BspConfig,
    transport: Option<Arc<dyn euler_bsp::Transport>>,
    process_workers: bool,
    checkpoint_dir: Option<std::path::PathBuf>,
    fault_policy: euler_bsp::FaultPolicy,
    fault_plan: euler_bsp::FaultPlan,
    run: RefCell<Option<DistRun>>,
}

impl BspBackend {
    /// Backend with one worker per partition.
    pub fn new() -> Self {
        Self::with_engine(euler_bsp::BspConfig::one_worker_per_partition())
    }

    /// Backend with an explicit configuration (worker count, cost model).
    pub fn with_engine(engine: euler_bsp::BspConfig) -> Self {
        BspBackend {
            engine,
            transport: None,
            process_workers: false,
            checkpoint_dir: None,
            fault_policy: euler_bsp::FaultPolicy::default(),
            fault_plan: euler_bsp::FaultPlan::none(),
            run: RefCell::new(None),
        }
    }

    /// Runs the walk on real workers connected over `transport` instead of
    /// stepping them in place: the backend becomes a *coordinator* that
    /// spawns one worker per configured slot (threads by default, OS
    /// processes under [`process_workers`](Self::process_workers)),
    /// exchanges length-prefixed checksummed frames with them, and recovers
    /// from worker deaths (see [`checkpoint_dir`](Self::checkpoint_dir) /
    /// [`fault_policy`](Self::fault_policy)). Circuits, per-level records,
    /// transfer accounting and shuffle statistics are identical to the
    /// in-place workers'.
    pub fn with_transport(mut self, transport: Arc<dyn euler_bsp::Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Spawns workers as OS processes (the `euler-worker` binary, resolved
    /// via `$EULER_WORKER_BIN` or next to the current executable) instead of
    /// threads. Requires [`euler_bsp::TcpTransport`]: in-memory channels do
    /// not reach other processes.
    pub fn process_workers(mut self, yes: bool) -> Self {
        self.process_workers = yes;
        self
    }

    /// Persists every worker's partition states (its slots and the states
    /// kept for the next merges, no fragments) to `dir` after each
    /// superstep, enabling kill-and-resume recovery: a worker that dies at
    /// superstep `s ≥ 1` is respawned, everyone rolls back to the checkpoint
    /// entering `s`, and the run resumes — bit-identical to an unkilled run.
    /// Nothing is written entering superstep 0: a death there re-Inits every
    /// worker from the level-0 seed the coordinator keeps. The directory is
    /// removed when a run completes cleanly. Without a checkpoint directory,
    /// recovery falls back to a full deterministic replay from the level-0
    /// seed.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Tunes dead-worker detection (heartbeat interval and timeout).
    pub fn fault_policy(mut self, policy: euler_bsp::FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Injects scripted faults (kill worker *k* at superstep *s*, drop or
    /// delay the *n*-th superstep message) — the test/bench harness for the
    /// recovery machinery.
    pub fn with_fault_plan(mut self, plan: euler_bsp::FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The engine configuration.
    pub fn engine(&self) -> &euler_bsp::BspConfig {
        &self.engine
    }

    /// How a run over `transport` brings its workers up.
    fn fleet_config(
        &self,
        transport: &Arc<dyn euler_bsp::Transport>,
    ) -> Result<crate::distributed::FleetConfig, EulerError> {
        let spawn = if self.process_workers {
            if !transport.supports_processes() {
                return Err(EulerError::InvalidConfig(format!(
                    "process workers need a socket transport; `{}` is in-process only",
                    transport.name()
                )));
            }
            let worker_bin = crate::distributed::default_worker_bin().ok_or_else(|| {
                EulerError::InvalidConfig(
                    "no `euler-worker` binary found (set $EULER_WORKER_BIN or install it \
                     next to the current executable)"
                        .into(),
                )
            })?;
            crate::distributed::WorkerSpawn::Processes { worker_bin }
        } else {
            crate::distributed::WorkerSpawn::Threads
        };
        Ok(crate::distributed::FleetConfig {
            transport: Arc::clone(transport),
            spawn,
            checkpoint_dir: self.checkpoint_dir.clone(),
            policy: self.fault_policy,
            plan: self.fault_plan,
        })
    }
}

impl Default for BspBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionBackend for BspBackend {
    fn name(&self) -> &'static str {
        "bsp"
    }

    /// Seed → bring the workers up (in place, or a fleet over the
    /// transport); per level → one barrier whose fragments land in the
    /// walk's store; last level → retire the workers.
    fn run_level(&self, work: LevelWork<'_>) -> Result<LevelOutcome, EulerError> {
        let (tree, strategy) = (Arc::clone(work.tree), work.config.merge_strategy);
        step_run(&self.run, work, |seed| {
            let fleet = self.transport.as_ref().map(|t| self.fleet_config(t)).transpose()?;
            DistRun::new(self.engine, fleet, tree, strategy, seed, false)
        })
    }

    fn engine_stats(&self) -> Option<euler_bsp::EngineStats> {
        self.run.borrow().as_ref().map(|run| run.stats())
    }

    fn warnings(&self) -> Vec<String> {
        self.run.borrow().as_ref().map(|run| run.warnings()).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// The shared merge-tree walk.
// ---------------------------------------------------------------------------

/// The Eulerian degree check: every input answers it in this shape — a
/// graph from [`properties::first_odd_vertex`], a mapped file from
/// [`CsrFile::first_odd_vertex`] (the offsets section alone), a stream from
/// the degrees its pass accumulated — one error.
fn require_even_degrees(first_odd: Option<(VertexId, u64)>) -> Result<(), EulerError> {
    match first_odd {
        Some((vertex, degree)) => {
            Err(EulerError::Graph(euler_graph::GraphError::NotEulerian { vertex, degree }))
        }
        None => Ok(()),
    }
}

/// A mapped file's degree check and level-0 scan under `assignment`: what
/// [`Input::File`] carries, made before the run so that the caller can time
/// it as partitioning and a service can admit the run on what it counts.
pub(crate) fn checked_scan(csr: &CsrFile, assignment: &PartitionAssignment) -> Result<Scan, EulerError> {
    require_even_degrees(csr.first_odd_vertex())?;
    Ok(level0::scan_file(csr, assignment)?)
}

/// What a run reads: a mapped `.ecsr` and the scan [`checked_scan`] made of
/// it, whose level 0 the backend fills; a resident graph; or a source's edge
/// stream, whose level 0 the W-streaming pass builds.
pub(crate) enum Input<'a> {
    File(&'a CsrFile, Scan),
    Graph(&'a Graph),
    Stream(Box<dyn EdgeStream + 'a>),
}

/// A finished run and what its input told about itself.
pub(crate) struct Ran {
    pub result: CircuitResult,
    pub report: RunReport,
    /// Vertices and edges of the input.
    pub size: (u64, u64),
}

/// A run's yield point: called as `(done, steps)` before each merge-tree
/// superstep and before Phase 3, with `steps` the supersteps plus one. An
/// `Err` — [`EulerError::Cancelled`] from a service run — ends the run with it.
pub(crate) type YieldPoint<'a> = &'a mut dyn FnMut(u32, u32) -> Result<(), EulerError>;

/// The one run every entry point ends in: the degree check (before level 0
/// for a graph, after the pass for a stream; a file's came with its scan),
/// level 0, the merge-tree walk and Phase 3 with the caller's yield point,
/// and, under [`EulerConfig::verify`], the one checker over the input's own
/// endpoints — a file's endpoints section, so verifying loads no [`Graph`].
pub(crate) fn run_input(
    mut input: Input<'_>,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
    yield_point: Option<YieldPoint<'_>>,
) -> Result<Ran, EulerError> {
    let dedup = config.merge_strategy.deduplicates();
    let store = fragment_store_for(config);
    let (mut pass_time, mut wstream) = (Duration::ZERO, None);
    let (meta, seed, size) = match &mut input {
        Input::File(csr, scan) => {
            let (csr, scan) = (*csr, std::mem::take(scan));
            let meta = scan.meta();
            let seed = Seed(SeedKind::File(FileLevel0 { csr, assignment, scan, dedup }));
            (meta, seed, (csr.num_vertices(), csr.num_edges()))
        }
        Input::Graph(g) => {
            require_even_degrees(properties::first_odd_vertex(g))?;
            let (meta, states) = level0::graph_level0(g, assignment, dedup)?;
            (meta, states.into(), (g.num_vertices(), g.num_edges()))
        }
        Input::Stream(stream) => {
            let t = Instant::now();
            // 0: open chains hold the `Θ(log n)` default
            // (`phase1::wstream::default_chunk_edges`).
            let outcome = stream_phase1(stream.as_mut(), assignment, &store, 0)?;
            pass_time = t.elapsed();
            require_even_degrees(outcome.first_odd)?;
            let mut states = outcome.states;
            if dedup {
                apply_remote_edge_dedup(&mut states);
            }
            wstream = Some(outcome.stats);
            (outcome.meta, states.into(), (outcome.stats.num_vertices, outcome.stats.edges_ingested))
        }
    };
    let (result, mut report) = run_merge_walk(&meta, seed, store, config, backend, wstream, yield_point)?;
    report.phase12_time += pass_time;
    if config.verify {
        let circuits = result.circuits.iter().map(Vec::as_slice);
        match input {
            Input::File(csr, _) => {
                let ends = csr.endpoints_flat();
                let pair = |e: EdgeId| (VertexId(ends[2 * e.index()]), VertexId(ends[2 * e.index() + 1]));
                verify_steps(size.1, pair, circuits)
            }
            Input::Graph(g) => verify_steps(size.1, |e| g.endpoints(e), circuits),
            Input::Stream(mut stream) => {
                // A second pass: the stream's endpoints by edge id.
                let mut ends = vec![(VertexId(0), VertexId(0)); size.1 as usize];
                stream.stream_with_ids(&mut |batch| {
                    for &(e, u, v) in batch {
                        if let Some(end) = ends.get_mut(e as usize) {
                            *end = (VertexId(u), VertexId(v));
                        }
                    }
                })?;
                verify_steps(size.1, |e| ends[e.index()], circuits)
            }
        }?;
    }
    Ok(Ran { result, report, size })
}

/// Runs the full three-phase algorithm over a resident graph under
/// `assignment` on the given backend: [`EulerPipeline::run`]'s run over a
/// graph input, without the source and partitioner stages.
///
/// It checks the degrees, builds level 0, walks the merge tree one
/// [`ExecutionBackend::run_level`] call per level, unrolls Phase 3 and
/// assembles the unified [`RunReport`]; under [`EulerConfig::verify`] it
/// checks the circuit against `g`.
pub fn run_with_backend(
    g: &Graph,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
) -> Result<(CircuitResult, RunReport), EulerError> {
    let ran = run_input(Input::Graph(g), assignment, config, backend, None)?;
    Ok((ran.result, ran.report))
}

/// Runs the Phase-1/2 merge-tree walk and the Phase-3 unroll over an
/// already-built partition-centric view.
///
/// This is the differential oracle of the level-0 loader: the pipeline's own
/// entry points build their level-0 states in two passes over the edge list
/// (`crate::level0`), this one converts the view partition by partition
/// ([`WorkingPartition::from_partition`], [`MetaGraph::from_partitioned`]),
/// and the two are tested to produce the same bytes. It also serves callers
/// that hold a [`PartitionedGraph`] and no graph. Because no graph is
/// available, the degree check and [`EulerConfig::verify`] are **not**
/// applied at this level — callers with graph access use
/// [`run_with_backend`].
pub fn run_on_partitioned(
    pg: &PartitionedGraph,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
) -> Result<(CircuitResult, RunReport), EulerError> {
    let meta = MetaGraph::from_partitioned(pg);
    let mut states: Vec<_> =
        pg.partitions().iter().map(WorkingPartition::from_partition).collect();
    if config.merge_strategy.deduplicates() {
        apply_remote_edge_dedup(&mut states);
    }
    run_merge_walk(&meta, states.into(), fragment_store_for(config), config, backend, None, None)
}

/// Builds the run's fragment store from its configuration: an explicit
/// budget bounds the store's resident fragments, paging the rest out to a
/// spill file; otherwise they all stay in memory. Either way the circuits
/// and the stored disk accounting are identical.
fn fragment_store_for(config: &EulerConfig) -> FragmentStore {
    match config.fragment_memory_budget {
        Some(budget) => {
            let mut spill = SpillConfig::with_budget(budget);
            if let Some(dir) = &config.fragment_spill_directory {
                spill = spill.in_directory(dir.clone());
            }
            FragmentStore::spilling(spill)
        }
        None => FragmentStore::new(),
    }
}

/// The merge-tree walk + Phase-3 unroll from a level-0 seed: the common
/// tail of the dense paths (states built from a graph or a partition view, or
/// a level 0 still in its file) and the W-streaming path (states and
/// `wstream` accounting from [`stream_phase1`], with partial tours already
/// in `store`). A strategy that drops duplicate remote refs has dropped them
/// from the seed.
fn run_merge_walk(
    meta: &MetaGraph,
    seed: Seed<'_>,
    store: FragmentStore,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
    wstream: Option<WStreamStats>,
    mut yield_point: Option<YieldPoint<'_>>,
) -> Result<(CircuitResult, RunReport), EulerError> {
    let tree = Arc::new(MergeTree::build(meta));
    let steps = tree.num_supersteps() + 1;
    let mut yield_at = |done| yield_point.as_mut().map_or(Ok(()), |at| at(done, steps));
    let mut report = RunReport {
        num_partitions: meta.num_vertices() as u32,
        supersteps: tree.num_supersteps(),
        strategy: config.merge_strategy,
        merge_tree: tree.as_ref().clone(),
        backend: backend.name().to_string(),
        wstream,
        ..Default::default()
    };

    let t_run = Instant::now();
    let mut seed = Some(seed);
    for level in 0..tree.num_supersteps() {
        yield_at(level)?;
        let outcome = backend.run_level(LevelWork {
            level,
            tree: &tree,
            store: &store,
            config,
            seed: seed.take(),
        })?;
        report.per_partition.extend(outcome.reports);
        report.total_transfer_longs += outcome.transfer_longs;
    }
    report.phase12_time = t_run.elapsed();
    // Snapshot the superstep statistics now, before Phase 3, so their wall
    // time covers only the superstep walk.
    report.engine = backend.engine_stats();
    report.warnings = backend.warnings();

    // --- Phase 3: unroll the fragments into the circuit. --------------------
    yield_at(tree.num_supersteps())?;
    let t3 = Instant::now();
    let result = unroll(&store)?;
    report.phase3_time = t3.elapsed();
    report.fragment_disk_longs = store.disk_longs();
    report.fragment_stats = store.stats();
    if report.fragment_stats.spill_errors > 0 {
        report.warnings.push(format!(
            "fragment spill degraded: {} spill I/O failure(s); affected fragments stayed resident",
            report.fragment_stats.spill_errors
        ));
    }

    Ok((result, report))
}

// ---------------------------------------------------------------------------
// The EulerPipeline builder and its staged outputs.
// ---------------------------------------------------------------------------

/// How the pipeline obtains its partition assignment.
enum PartitionSpec {
    /// Use a precomputed assignment verbatim.
    Assignment(PartitionAssignment),
    /// Run a partitioner over the loaded graph.
    Partitioner(Box<dyn Partitioner>),
}

/// Builder for [`EulerPipeline`]. Obtain one via [`EulerPipeline::builder`].
///
/// A source and a partition specification are required; the backend defaults
/// to [`InProcessBackend`] and the configuration to [`EulerConfig::default`].
#[derive(Default)]
pub struct EulerPipelineBuilder {
    source: Option<Box<dyn GraphSource>>,
    partition: Option<PartitionSpec>,
    config: EulerConfig,
    backend: Option<Box<dyn ExecutionBackend>>,
}

impl EulerPipelineBuilder {
    /// Sets the graph input source ([`euler_graph::InMemorySource`],
    /// [`euler_graph::EdgeListFileSource`], or any custom [`GraphSource`]).
    pub fn source(mut self, source: impl GraphSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Convenience: use a copy of `graph` as the input (an
    /// [`euler_graph::InMemorySource`]). The clone happens once, here;
    /// [`EulerPipeline::run`] borrows the resident graph.
    pub fn graph(self, graph: &Graph) -> Self {
        self.source(euler_graph::InMemorySource::new(graph.clone()))
    }

    /// Partitions the loaded graph with `partitioner` (any
    /// [`euler_partition::Partitioner`]).
    pub fn partitioner(mut self, partitioner: impl Partitioner + 'static) -> Self {
        self.partition = Some(PartitionSpec::Partitioner(Box::new(partitioner)));
        self
    }

    /// Uses a precomputed partition assignment instead of a partitioner.
    pub fn assignment(mut self, assignment: PartitionAssignment) -> Self {
        self.partition = Some(PartitionSpec::Assignment(assignment));
        self
    }

    /// Replaces the whole algorithm configuration. Call before the per-field
    /// tweaks ([`strategy`](Self::strategy), [`verify`](Self::verify),
    /// [`sequential`](Self::sequential)) or they are overwritten.
    pub fn config(mut self, config: EulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the remote-edge merge strategy (§5 of the paper).
    pub fn strategy(mut self, strategy: MergeStrategy) -> Self {
        self.config.merge_strategy = strategy;
        self
    }

    /// Verifies the reconstructed circuit against the input before returning
    /// (every edge exactly once, each step its edge's endpoints, chained,
    /// closed) — a mapped file against its endpoints section, without
    /// loading a graph.
    pub fn verify(mut self, yes: bool) -> Self {
        self.config.verify = yes;
        self
    }

    /// Disables intra-level parallelism (one partition at a time, in
    /// ascending id order) — easier to profile; the result is the same
    /// bytes as the default fan-out.
    pub fn sequential(mut self) -> Self {
        self.config.parallel_within_level = false;
        self
    }

    /// Bounds resident fragment memory to `longs`: circuit fragments beyond
    /// the budget are paged to a temp file and reloaded on demand during
    /// Phase 3 (the out-of-core mode for circuits larger than memory;
    /// bit-identical results, spill traffic reported in
    /// [`CircuitStage::fragment_stats`]).
    pub fn memory_budget(mut self, longs: u64) -> Self {
        self.config.fragment_memory_budget = Some(longs);
        self
    }

    /// Builds level-0 partition tours with the one-pass W-streaming chain
    /// machine instead of the dense resident arena (see
    /// [`EulerConfig::streaming_phase1`]): edges are consumed straight off
    /// the source's [`euler_graph::EdgeStream`], partial tours go out-of-core
    /// through the fragment store, and resident traversal state stays
    /// `O(n log n)` — reported in [`MergeStage::wstream`]. Composes with any
    /// backend and merge strategy; the circuits cover the same edge multiset
    /// as the dense path.
    pub fn streaming_phase1(mut self, yes: bool) -> Self {
        self.config.streaming_phase1 = yes;
        self
    }

    /// Sets the execution backend. Defaults to [`InProcessBackend`].
    pub fn backend(mut self, backend: impl ExecutionBackend + 'static) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    /// [`EulerError::InvalidConfig`] when no source or no partition
    /// specification was given.
    pub fn build(self) -> Result<EulerPipeline, EulerError> {
        let source = self.source.ok_or_else(|| {
            EulerError::InvalidConfig("pipeline needs a graph source (`.source(..)` or `.graph(..)`)".into())
        })?;
        let partition = self.partition.ok_or_else(|| {
            EulerError::InvalidConfig(
                "pipeline needs a partitioner (`.partitioner(..)`) or assignment (`.assignment(..)`)".into(),
            )
        })?;
        Ok(EulerPipeline {
            source,
            partition,
            config: self.config,
            backend: self.backend.unwrap_or_else(|| Box::new(InProcessBackend::new())),
        })
    }
}

/// The unified entry point to the partition-centric Euler circuit algorithm:
/// load (via a [`GraphSource`]) → partition (via a [`Partitioner`] or a fixed
/// assignment) → Phase-1/2 merge tree (on an [`ExecutionBackend`]) → Phase-3
/// unroll.
///
/// ```
/// use euler_core::{EulerPipeline, InProcessBackend, MergeStrategy};
/// use euler_graph::builder::graph_from_edges;
/// use euler_partition::LdgPartitioner;
///
/// let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
/// let run = EulerPipeline::builder()
///     .graph(&graph)
///     .partitioner(LdgPartitioner::new(2))
///     .strategy(MergeStrategy::Deferred)
///     .backend(InProcessBackend::new())
///     .verify(true)
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(run.circuit.result.total_edges(), 6);
/// ```
pub struct EulerPipeline {
    source: Box<dyn GraphSource>,
    partition: PartitionSpec,
    config: EulerConfig,
    backend: Box<dyn ExecutionBackend>,
}

impl std::fmt::Debug for EulerPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EulerPipeline")
            .field("source", &self.source.name())
            .field(
                "partition",
                &match &self.partition {
                    PartitionSpec::Assignment(a) => format!("pre-assigned ({} parts)", a.num_partitions()),
                    PartitionSpec::Partitioner(p) => p.name().to_string(),
                },
            )
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl EulerPipeline {
    /// Starts building a pipeline.
    pub fn builder() -> EulerPipelineBuilder {
        EulerPipelineBuilder::default()
    }

    /// The algorithm configuration this pipeline runs with.
    pub fn config(&self) -> &EulerConfig {
        &self.config
    }

    /// Runs the full pipeline, producing the staged outputs: one assignment
    /// step, then the one run over the input it leaves.
    ///
    /// The run reads edges — the mapped CSR view of a source that has one
    /// ([`GraphSource::csr`], e.g. [`euler_graph::MmapCsrSource`]), or under
    /// [`streaming_phase1`](EulerPipelineBuilder::streaming_phase1) the
    /// source's edge stream — or else a resident or loaded [`Graph`]. The
    /// assignment is the [`assignment`](EulerPipelineBuilder::assignment)
    /// given; or, when the run reads edges and the
    /// [`partitioner`](EulerPipelineBuilder::partitioner) has a streaming view
    /// ([`euler_partition::StreamingPartitioner`] — hash and LDG) that
    /// supports the source's stream order, one pass over chunked edge
    /// batches; or else the partitioner over the whole graph (BFS placement,
    /// custom whole-graph partitioners), which a dense run then reads.
    ///
    /// Over a mapped file — the direct slicing path — one more pass over the
    /// endpoints section counts level 0 under the assignment (local edges,
    /// cut cells — the meta-graph — and isolated vertices per partition; both
    /// passes are [`PartitionStage::partition_time`]), and the walk is seeded
    /// with the level 0 *still in its file* ([`Seed`]): the backend fills the
    /// partition states from the mapped section where they will run —
    /// [`InProcessBackend`] and workers stepped in place all of them, once,
    /// inside level 0; wire workers each their own share, from the file, on
    /// their side of the transport. No [`Graph`] and no partition view is
    /// ever materialised, [`verify`](EulerPipelineBuilder::verify) included:
    /// it checks the circuit against the mapped endpoints section.
    pub fn run(&self) -> Result<PipelineRun, EulerError> {
        let (source, config) = (self.source.as_ref(), &self.config);
        let file = source.csr().filter(|_| !config.streaming_phase1);
        let reads_edges = config.streaming_phase1 || file.is_some();
        let mut load_time = Duration::ZERO;
        let mut graph = None;
        let t_part = Instant::now();
        let (assignment, name, streamed) = match &self.partition {
            PartitionSpec::Assignment(a) => (a.clone(), "pre-assigned", false),
            PartitionSpec::Partitioner(p) => match stream_partition(p.as_ref(), source, reads_edges)? {
                Some((a, name)) => (a, name, true),
                None => {
                    let g = graph.insert(load(source, &mut load_time)?);
                    (p.partition(g), p.name(), false)
                }
            },
        };
        if config.streaming_phase1 {
            // A whole-graph partitioner's graph goes before the pass.
            graph = None;
        }
        let loaded;
        let input = match (&graph, file) {
            _ if config.streaming_phase1 => Input::Stream(source.edge_stream().ok_or_else(|| {
                EulerError::InvalidConfig("streaming_phase1 needs a source that exposes an edge stream".into())
            })?),
            (Some(g), _) => Input::Graph(g),
            (None, Some(csr)) => Input::File(csr, checked_scan(csr, &assignment)?),
            (None, None) => {
                loaded = load(source, &mut load_time)?;
                Input::Graph(&loaded)
            }
        };
        let partition_time = t_part.elapsed().saturating_sub(load_time);
        let partitioner = match (&input, streamed) {
            (Input::Graph(_), _) => name.to_string(),
            (Input::File(..), true) => format!("{name} (streamed, direct csr slice)"),
            (Input::File(..), false) => format!("{name} (direct csr slice)"),
            (Input::Stream(_), true) => format!("{name} (streamed, w-streaming)"),
            (Input::Stream(_), false) => format!("{name} (w-streaming)"),
        };
        let ran = run_input(input, &assignment, config, self.backend.as_ref(), None)?;
        let partition = PartitionStage {
            source: source.name(),
            load_time,
            partitioner,
            partition_time,
            num_vertices: ran.size.0,
            num_edges: ran.size.1,
            num_partitions: ran.report.num_partitions,
            assignment,
        };
        Ok(assemble_run(partition, ran.result, ran.report))
    }
}

/// A source's graph: its resident copy, or a load, timed into `load_time`.
fn load<'s>(source: &'s dyn GraphSource, load_time: &mut Duration) -> Result<Cow<'s, Graph>, EulerError> {
    let t = Instant::now();
    let graph = match source.resident() {
        Some(g) => Cow::Borrowed(g),
        None => Cow::Owned(source.load()?),
    };
    *load_time += t.elapsed();
    Ok(graph)
}

/// The assignment of a partitioner whose streaming view supports the order
/// of the source's edge stream — one pass over it — and the partitioner's
/// name; `None` when the run does not read edges or the partitioner cannot
/// stream them.
fn stream_partition(
    p: &dyn Partitioner,
    source: &dyn GraphSource,
    reads_edges: bool,
) -> Result<Option<(PartitionAssignment, &'static str)>, EulerError> {
    let Some(sp) = p.as_streaming().filter(|_| reads_edges) else {
        return Ok(None);
    };
    match source.edge_stream() {
        Some(mut stream) if sp.supports(stream.order()) => {
            Ok(Some((sp.partition_stream(stream.as_mut())?, sp.name())))
        }
        _ => Ok(None),
    }
}

/// Splits one unified [`RunReport`] across the stages after `partition`.
fn assemble_run(partition: PartitionStage, result: CircuitResult, report: RunReport) -> PipelineRun {
    let RunReport {
        num_partitions: _,
        supersteps,
        strategy,
        per_partition,
        phase12_time,
        phase3_time,
        total_transfer_longs,
        fragment_disk_longs,
        fragment_stats,
        merge_tree,
        backend,
        engine,
        wstream,
        warnings,
    } = report;
    PipelineRun {
        partition,
        merge: MergeStage {
            supersteps,
            strategy,
            backend,
            per_partition,
            phase12_time,
            total_transfer_longs,
            merge_tree,
            engine,
            wstream,
            warnings,
        },
        circuit: CircuitStage { result, phase3_time, fragment_disk_longs, fragment_stats },
    }
}

/// Output of the load + partition stage.
#[derive(Clone, Debug)]
pub struct PartitionStage {
    /// Description of the graph source.
    pub source: String,
    /// Time to obtain the graph from the source (zero-ish for resident
    /// in-memory sources).
    pub load_time: Duration,
    /// Name of the partitioner, or `"pre-assigned"` for a fixed assignment.
    pub partitioner: String,
    /// Time spent partitioning: computing the assignment and, on the direct
    /// CSR path, the one pass over the file that counts level 0 under it
    /// (filling the partition states is the backend's, inside level 0).
    pub partition_time: Duration,
    /// Vertices in the loaded graph.
    pub num_vertices: u64,
    /// Edges in the loaded graph.
    pub num_edges: u64,
    /// Number of leaf partitions.
    pub num_partitions: u32,
    /// The assignment the run executed with.
    pub assignment: PartitionAssignment,
}

/// Output of the Phase-1/2 merge-tree stage — the per-level slice of the
/// [`RunReport`].
#[derive(Clone, Debug)]
pub struct MergeStage {
    /// Number of Phase-1 rounds executed (the coordination cost, §3.5).
    pub supersteps: u32,
    /// Merge strategy used.
    pub strategy: MergeStrategy,
    /// Name of the execution backend.
    pub backend: String,
    /// Per-partition, per-level records.
    pub per_partition: Vec<LevelPartitionReport>,
    /// Total wall time of phases 1–2.
    pub phase12_time: Duration,
    /// Total Longs shipped between partitions across all merges.
    pub total_transfer_longs: u64,
    /// The merge tree walked.
    pub merge_tree: MergeTree,
    /// BSP superstep statistics (present for [`BspBackend`] runs).
    pub engine: Option<euler_bsp::EngineStats>,
    /// W-streaming Phase-1 resident-state accounting (present when the run
    /// executed with [`EulerPipelineBuilder::streaming_phase1`]).
    pub wstream: Option<WStreamStats>,
    /// Non-fatal degradations absorbed during the walk (see
    /// [`RunReport::warnings`]).
    pub warnings: Vec<String>,
}

/// Output of the Phase-3 unroll stage.
#[derive(Clone, Debug)]
pub struct CircuitStage {
    /// The reconstructed circuit(s).
    pub result: CircuitResult,
    /// Wall time of Phase 3.
    pub phase3_time: Duration,
    /// Longs written to the fragment store ("disk").
    pub fragment_disk_longs: u64,
    /// Real memory/spill statistics of the fragment store (see
    /// [`RunReport::fragment_stats`]).
    pub fragment_stats: FragmentStoreStats,
}

/// The staged outputs of one pipeline run:
/// [`PartitionStage`] → [`MergeStage`] → [`CircuitStage`].
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// Load + partition stage.
    pub partition: PartitionStage,
    /// Phase-1/2 merge-tree stage.
    pub merge: MergeStage,
    /// Phase-3 unroll stage.
    pub circuit: CircuitStage,
}

impl PipelineRun {
    /// The reconstructed circuit(s).
    pub fn result(&self) -> &CircuitResult {
        &self.circuit.result
    }

    /// Consumes the run, returning just the circuit(s).
    pub fn into_result(self) -> CircuitResult {
        self.circuit.result
    }

    /// Reassembles the stages into the unified legacy-shaped [`RunReport`]
    /// (per-level analysis helpers, Fig.-8 memory series, level traces).
    pub fn report(&self) -> RunReport {
        RunReport {
            num_partitions: self.partition.num_partitions,
            supersteps: self.merge.supersteps,
            strategy: self.merge.strategy,
            per_partition: self.merge.per_partition.clone(),
            phase12_time: self.merge.phase12_time,
            phase3_time: self.circuit.phase3_time,
            total_transfer_longs: self.merge.total_transfer_longs,
            fragment_disk_longs: self.circuit.fragment_disk_longs,
            fragment_stats: self.circuit.fragment_stats,
            merge_tree: self.merge.merge_tree.clone(),
            backend: self.merge.backend.clone(),
            engine: self.merge.engine.clone(),
            wstream: self.merge.wstream,
            warnings: self.merge.warnings.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_result;
    use euler_gen::synthetic;
    use euler_partition::{HashPartitioner, LdgPartitioner, Partitioner};

    fn builder_for(g: &Graph, parts: u32) -> EulerPipelineBuilder {
        EulerPipeline::builder().graph(g).partitioner(LdgPartitioner::new(parts))
    }

    #[test]
    fn builder_requires_source_and_partitioner() {
        let g = synthetic::torus_grid(4, 4);
        let err = EulerPipeline::builder().graph(&g).build().unwrap_err();
        assert!(matches!(err, EulerError::InvalidConfig(_)));
        let err = EulerPipeline::builder().partitioner(HashPartitioner::new(2)).build().unwrap_err();
        assert!(matches!(err, EulerError::InvalidConfig(_)));
    }

    #[test]
    fn pipeline_stages_carry_the_report_slices() {
        let g = synthetic::torus_grid(8, 8);
        let run = builder_for(&g, 4).verify(true).build().unwrap().run().unwrap();
        // Partition stage.
        assert!(run.partition.source.contains("in-memory"));
        assert_eq!(run.partition.partitioner, "ldg");
        assert_eq!(run.partition.num_partitions, 4);
        assert_eq!(run.partition.num_edges, g.num_edges());
        assert_eq!(run.partition.assignment.num_partitions(), 4);
        // Merge stage: 4 partitions -> 3 supersteps, records at every level.
        assert_eq!(run.merge.supersteps, 3);
        assert_eq!(run.merge.backend, "in-process");
        assert!(run.merge.engine.is_none());
        assert!(run.merge.total_transfer_longs > 0);
        // Circuit stage.
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        assert!(run.circuit.fragment_disk_longs > 0);
        // The reassembled unified report matches the stages.
        let report = run.report();
        assert_eq!(report.supersteps, 3);
        assert_eq!(report.level(0).len(), 4);
        assert_eq!(report.level(2).len(), 1);
        assert_eq!(report.backend, "in-process");
    }

    #[test]
    fn bsp_backend_carries_engine_stats() {
        let g = synthetic::torus_grid(8, 8);
        let run = builder_for(&g, 4).backend(BspBackend::new()).verify(true).build().unwrap().run().unwrap();
        assert_eq!(run.merge.backend, "bsp");
        let engine = run.merge.engine.as_ref().expect("bsp runs report engine stats");
        // One superstep per merge level.
        assert_eq!(engine.num_supersteps(), run.merge.supersteps);
        assert!(engine.total_remote_bytes() > 0, "children ship state across workers");
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        // The unified per-level report is populated identically in shape.
        assert_eq!(run.report().level(0).len(), 4);
    }

    #[test]
    fn backends_agree_on_records_fragments_circuits_and_transfers() {
        // The in-process backend is one worker stepped in place, fanned out
        // by default: against a one-worker BSP run, which steps its slots one
        // at a time, the same bytes — and no superstep statistics.
        let g = synthetic::random_eulerian_connected(120, 16, 6, 42);
        let a = LdgPartitioner::new(4).partition(&g);
        for config in [EulerConfig::default(), EulerConfig::default().sequential()] {
            let walk = |backend: &dyn ExecutionBackend| {
                let dedup = config.merge_strategy.deduplicates();
                let (meta, states) = level0::graph_level0(&g, &a, dedup).unwrap();
                let store = FragmentStore::new();
                let (result, report) =
                    run_merge_walk(&meta, states.into(), store.clone(), &config, backend, None, None)
                        .unwrap();
                (result, report, store.snapshot())
            };
            let (in_proc, in_proc_report, in_proc_fragments) = walk(&InProcessBackend::new());
            let one_worker = BspBackend::with_engine(euler_bsp::BspConfig::with_workers(1));
            let (bsp, bsp_report, bsp_fragments) = walk(&one_worker);
            assert_eq!(in_proc.circuits, bsp.circuits);
            assert_eq!(in_proc_report.total_transfer_longs, bsp_report.total_transfer_longs);
            assert_eq!(in_proc_fragments, bsp_fragments);
            assert_eq!(in_proc_report.per_partition.len(), bsp_report.per_partition.len());
            for (x, y) in in_proc_report.per_partition.iter().zip(&bsp_report.per_partition) {
                assert_eq!(record_facts(x), record_facts(y));
            }
            assert_eq!(in_proc_report.backend, "in-process");
            assert!(in_proc_report.engine.is_none() && in_proc_report.warnings.is_empty());
            assert!(bsp_report.engine.is_some());
        }
    }

    /// The measurement-free projection of a per-level record (timings differ
    /// run to run; everything else must be bit-stable).
    fn record_facts(r: &LevelPartitionReport) -> impl PartialEq + std::fmt::Debug {
        (
            r.level,
            r.partition,
            r.counts,
            r.complexity,
            r.memory_longs,
            r.remote_needed_now,
            r.transfer_in_longs,
            (r.paths_found, r.cycles_found, r.internal_cycles_merged),
        )
    }

    fn assert_same_run(a: &PipelineRun, b: &PipelineRun) {
        assert_eq!(a.circuit.result.circuits, b.circuit.result.circuits);
        assert_eq!(a.merge.total_transfer_longs, b.merge.total_transfer_longs);
        assert_eq!(a.merge.supersteps, b.merge.supersteps);
        assert_eq!(a.merge.per_partition.len(), b.merge.per_partition.len());
        for (x, y) in a.merge.per_partition.iter().zip(&b.merge.per_partition) {
            assert_eq!(record_facts(x), record_facts(y));
        }
    }

    #[test]
    fn fan_out_and_multi_worker_engines_match_the_sequential_run_bit_for_bit() {
        // The determinism headline: fragment ids are a function of (level,
        // partition, push sequence), so however a level's partitions are
        // scheduled — rayon fan-out, several BSP workers stepped in place
        // or behind the in-memory transport — the run equals the fully
        // sequential one: circuits, per-level records, transfers.
        let g = synthetic::random_eulerian_connected(140, 18, 6, 77);
        let a = LdgPartitioner::new(4).partition(&g);
        let run = |builder: EulerPipelineBuilder| {
            builder.graph(&g).assignment(a.clone()).build().unwrap().run().unwrap()
        };
        let sequential = run(EulerPipeline::builder().sequential());
        assert_same_run(&run(EulerPipeline::builder()), &sequential);
        for workers in [1usize, 2, 4] {
            let engine = euler_bsp::BspConfig::with_workers(workers);
            let bsp = run(EulerPipeline::builder().backend(BspBackend::with_engine(engine)));
            assert_same_run(&bsp, &sequential);
            let wire = BspBackend::with_engine(engine)
                .with_transport(Arc::new(euler_bsp::MemTransport));
            assert_same_run(&run(EulerPipeline::builder().backend(wire)), &sequential);
        }
    }

    #[test]
    fn bsp_tree_sharing_preserves_behaviour() {
        // The BSP workers share the walk's merge tree behind an `Arc`; a
        // 1-worker BSP run must be observably identical to the sequential
        // in-process run — including across two runs of the same reused
        // backend object.
        let g = synthetic::random_eulerian_connected(90, 10, 5, 31);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let reference = EulerPipeline::builder()
            .graph(&g)
            .assignment(a.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let bsp_pipeline = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .config(config.clone())
            .backend(BspBackend::with_engine(euler_bsp::BspConfig::with_workers(1)))
            .build()
            .unwrap();
        for _ in 0..2 {
            let bsp = bsp_pipeline.run().unwrap();
            assert_same_run(&bsp, &reference);
            assert_eq!(bsp.merge.merge_tree, reference.merge.merge_tree);
            assert!(bsp.merge.engine.is_some());
        }
    }

    #[test]
    fn pipeline_reuses_a_backend_across_runs() {
        // Two consecutive runs of the same pipeline object must reset the
        // backend via the level-0 seed and produce identical results.
        let g = synthetic::torus_grid(6, 6);
        let pipeline = builder_for(&g, 2).build().unwrap();
        let first = pipeline.run().unwrap();
        let second = pipeline.run().unwrap();
        assert_eq!(first.circuit.result.total_edges(), second.circuit.result.total_edges());
        assert_eq!(first.merge.total_transfer_longs, second.merge.total_transfer_longs);
        assert_eq!(first.merge.supersteps, second.merge.supersteps);
    }

    #[test]
    fn file_source_feeds_the_pipeline() {
        let g = synthetic::torus_grid(6, 6);
        let dir = std::env::temp_dir().join("euler_pipeline_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torus.el");
        euler_graph::io::write_edge_list_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::EdgeListFileSource::new(&path))
            .partitioner(HashPartitioner::new(3))
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.num_edges, g.num_edges());
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        assert!(run.partition.source.contains("torus.el"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_eulerian_input_rejected_through_the_pipeline() {
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2)]);
        let err = builder_for(&g, 2).build().unwrap().run().unwrap_err();
        assert!(matches!(err, EulerError::Graph(euler_graph::GraphError::NotEulerian { .. })));
    }

    // --- The CSR direct slicing path. --------------------------------------

    fn csr_temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("euler_pipeline_csr_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn csr_source_with_assignment_takes_the_direct_slicing_path() {
        let g = synthetic::random_eulerian_connected(120, 14, 6, 21);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let path = csr_temp("direct.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();

        let from_csr = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .assignment(a.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let from_mem = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();

        // The fast path is observable in the stage report, skips any load...
        assert_eq!(from_csr.partition.partitioner, "pre-assigned (direct csr slice)");
        assert_eq!(from_csr.partition.load_time, Duration::ZERO);
        assert_eq!(from_csr.partition.num_vertices, g.num_vertices());
        assert_eq!(from_csr.partition.num_edges, g.num_edges());
        // ...and produces the identical deterministic run.
        assert_eq!(from_csr.circuit.result.circuits, from_mem.circuit.result.circuits);
        assert_eq!(from_csr.merge.total_transfer_longs, from_mem.merge.total_transfer_longs);
        assert_eq!(from_csr.merge.supersteps, from_mem.merge.supersteps);
        verify_result(&g, &from_csr.circuit.result).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_source_with_a_partitioner_and_verify_stays_on_the_direct_path() {
        // `verify` checks the circuit against the mapped endpoints section,
        // so a verified run streams its assignment and loads no graph.
        let g = synthetic::torus_grid(8, 8);
        let path = csr_temp("partitioner_verify.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(4))
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.partitioner, "ldg (streamed, direct csr slice)");
        assert_eq!(run.partition.load_time, Duration::ZERO);
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        verify_result(&g, &run.circuit.result).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_source_with_a_streaming_partitioner_takes_the_zero_graph_path() {
        let g = synthetic::random_eulerian_connected(130, 16, 6, 33);
        let config = EulerConfig::default().sequential();
        let path = csr_temp("streamed_partitioner.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        for (streamed, in_memory) in [
            (
                EulerPipeline::builder()
                    .source(euler_graph::MmapCsrSource::open(&path).unwrap())
                    .partitioner(LdgPartitioner::new(4))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
                EulerPipeline::builder()
                    .graph(&g)
                    .partitioner(LdgPartitioner::new(4))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
            ),
            (
                EulerPipeline::builder()
                    .source(euler_graph::MmapCsrSource::open(&path).unwrap())
                    .partitioner(HashPartitioner::new(3))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
                EulerPipeline::builder()
                    .graph(&g)
                    .partitioner(HashPartitioner::new(3))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
            ),
        ] {
            // The zero-Graph path is observable in the stage report...
            assert!(
                streamed.partition.partitioner.contains("streamed, direct csr slice"),
                "unexpected partitioner label {}",
                streamed.partition.partitioner
            );
            assert_eq!(streamed.partition.load_time, Duration::ZERO);
            // ...computes the identical assignment...
            for v in g.vertices() {
                assert_eq!(
                    streamed.partition.assignment.partition_of(v),
                    in_memory.partition.assignment.partition_of(v)
                );
            }
            // ...and the identical deterministic run.
            assert_eq!(streamed.circuit.result.circuits, in_memory.circuit.result.circuits);
            assert_eq!(
                streamed.merge.total_transfer_longs,
                in_memory.merge.total_transfer_longs
            );
            verify_result(&g, &streamed.circuit.result).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_source_with_a_bfs_ldg_partitioner_falls_back_to_loading() {
        // BFS placement needs random access to the graph — no streaming view.
        let g = synthetic::torus_grid(6, 6);
        let path = csr_temp("bfs_fallback.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(2).with_bfs_order())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.partitioner, "ldg");
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_budget_spills_and_stays_bit_identical() {
        let g = synthetic::random_eulerian_connected(160, 20, 6, 55);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let unbounded = EulerPipeline::builder()
            .graph(&g)
            .assignment(a.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        // A budget far below the total fragment bytes forces heavy paging.
        let budget = unbounded.circuit.fragment_disk_longs / 10;
        let bounded = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .config(config.clone())
            .memory_budget(budget)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(bounded.circuit.result.circuits, unbounded.circuit.result.circuits);
        assert_eq!(
            bounded.circuit.fragment_disk_longs,
            unbounded.circuit.fragment_disk_longs
        );
        assert_eq!(bounded.merge.total_transfer_longs, unbounded.merge.total_transfer_longs);
        let stats = bounded.circuit.fragment_stats;
        assert!(stats.spilled_fragments > 0, "budget {budget} must spill: {stats:?}");
        assert!(stats.spill_write_longs > 0);
        assert!(stats.spill_read_longs > 0, "phase 3 reloads spilled fragments");
        assert_eq!(stats.spill_errors, 0);
        assert!(
            stats.peak_resident_longs < unbounded.circuit.fragment_stats.peak_resident_longs,
            "bounded peak {} vs unbounded {}",
            stats.peak_resident_longs,
            unbounded.circuit.fragment_stats.peak_resident_longs
        );
        verify_result(&g, &bounded.circuit.result).unwrap();
    }

    #[test]
    fn csr_source_with_an_assignment_and_verify_stays_on_the_direct_path() {
        let g = synthetic::torus_grid(6, 6);
        let a = HashPartitioner::new(2).partition(&g);
        let path = csr_temp("assignment_verify.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .assignment(a)
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.partitioner, "pre-assigned (direct csr slice)");
        assert_eq!(run.partition.load_time, Duration::ZERO);
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_fast_path_runs_the_degree_precheck_off_the_offsets() {
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2)]);
        let a = HashPartitioner::new(2).partition(&g);
        let path = csr_temp("odd.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let err = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .assignment(a)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, EulerError::Graph(euler_graph::GraphError::NotEulerian { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_on_partitioned_is_the_core_of_run_with_backend() {
        let g = synthetic::random_eulerian_connected(80, 10, 5, 17);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let (direct, direct_report) =
            run_on_partitioned(&pg, &config, &InProcessBackend::new()).unwrap();
        let (wrapped, wrapped_report) =
            run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        assert_eq!(direct.circuits, wrapped.circuits);
        assert_eq!(direct_report.total_transfer_longs, wrapped_report.total_transfer_longs);
        assert_eq!(direct_report.supersteps, wrapped_report.supersteps);
        verify_result(&g, &direct).unwrap();
    }

    // --- Folded from the removed `runner` module's suite: the same
    // behavioural guarantees, stated against the pipeline API. -------------

    fn verify_ok(g: &Graph, assignment: &PartitionAssignment, config: &EulerConfig) {
        let (result, report) =
            run_with_backend(g, assignment, config, &InProcessBackend::new()).unwrap();
        verify_result(g, &result).unwrap();
        assert_eq!(result.total_edges(), g.num_edges());
        assert_eq!(report.num_partitions, assignment.num_partitions());
    }

    #[test]
    fn fig1_graph_end_to_end() {
        let (g, a) = synthetic::paper_fig1();
        let config = EulerConfig::default().with_verify(true);
        let (result, report) =
            run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        assert_eq!(result.num_circuits(), 1);
        assert_eq!(result.total_edges(), 16);
        // 4 partitions -> 3 supersteps (Fig. 2).
        assert_eq!(report.supersteps, 3);
        let seq = result.vertex_sequence().unwrap();
        assert_eq!(seq.first(), seq.last());
    }

    #[test]
    fn torus_grid_all_partitioners() {
        let g = synthetic::torus_grid(8, 10);
        for k in [1u32, 2, 3, 4] {
            let a = LdgPartitioner::new(k).partition(&g);
            verify_ok(&g, &a, &EulerConfig::default());
            let a = HashPartitioner::new(k).partition(&g);
            verify_ok(&g, &a, &EulerConfig::default());
        }
    }

    #[test]
    fn all_merge_strategies_yield_valid_circuits() {
        let g = synthetic::random_eulerian_connected(120, 15, 6, 9);
        let a = LdgPartitioner::new(4).partition(&g);
        for strategy in MergeStrategy::all() {
            let run = EulerPipeline::builder()
                .graph(&g)
                .assignment(a.clone())
                .strategy(strategy)
                .verify(true)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(run.circuit.result.num_circuits(), 1, "strategy {strategy}");
            assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        }
    }

    #[test]
    fn disconnected_eulerian_graph_yields_one_circuit_per_component() {
        let g = euler_graph::builder::graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (5, 6),
            (6, 7),
            (7, 5),
        ]);
        let a = HashPartitioner::new(2).partition(&g);
        let (result, _) =
            run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        assert_eq!(result.num_circuits(), 2);
        assert_eq!(result.total_edges(), 6);
        verify_result(&g, &result).unwrap();
    }

    #[test]
    fn report_has_one_record_per_partition_per_level() {
        let g = synthetic::torus_grid(10, 10);
        let a = LdgPartitioner::new(8).partition(&g);
        let (_, report) =
            run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        assert_eq!(report.supersteps, 4); // 8 partitions -> 4 Phase-1 rounds
        assert_eq!(report.level(0).len(), 8);
        assert_eq!(report.level(1).len(), 4);
        assert_eq!(report.level(2).len(), 2);
        assert_eq!(report.level(3).len(), 1);
        let cumulative = report.cumulative_memory_by_level();
        assert_eq!(cumulative.len(), 4);
        assert!(cumulative[0] > 0);
        // Fig. 9: the root level holds no remote edges.
        let root = report.level(3)[0];
        assert_eq!(root.counts.remote_edges, 0);
        assert_eq!(report.backend, "in-process");
        assert!(report.engine.is_none());
    }

    #[test]
    fn memory_accounting_deferred_never_exceeds_dedup() {
        let g = synthetic::random_eulerian_connected(200, 30, 6, 3);
        let a = LdgPartitioner::new(8).partition(&g);
        let config = EulerConfig::default().with_merge_strategy(MergeStrategy::Deduplicated);
        let (_, dedup) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        let config = EulerConfig::default().with_merge_strategy(MergeStrategy::Deferred);
        let (_, deferred) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        let c_dedup = dedup.cumulative_memory_by_level();
        let c_def = deferred.cumulative_memory_by_level();
        for (d, f) in c_dedup.iter().zip(c_def.iter()) {
            assert!(f <= d, "deferred {f} > dedup {d}");
        }
        // Transfers also shrink.
        assert!(deferred.total_transfer_longs <= dedup.total_transfer_longs);
    }

    #[test]
    fn sequential_and_parallel_levels_agree() {
        let g = synthetic::random_eulerian_connected(80, 10, 5, 11);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let (r1, _) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        let (r2, _) =
            run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        verify_result(&g, &r1).unwrap();
        assert_eq!(r1.circuits, r2.circuits);
    }

    #[test]
    fn single_partition_degenerates_to_sequential() {
        let g = synthetic::circulant(50, &[1, 2]);
        let a = HashPartitioner::new(1).partition(&g);
        let config = EulerConfig::default().with_verify(true);
        let (result, report) =
            run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        assert_eq!(report.supersteps, 1);
        assert_eq!(result.num_circuits(), 1);
    }

    #[test]
    fn bsp_cost_model_reports_platform_overhead() {
        let g = synthetic::torus_grid(6, 6);
        let a = HashPartitioner::new(4).partition(&g);
        let run = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .backend(BspBackend::with_engine(
                euler_bsp::BspConfig::one_worker_per_partition()
                    .with_cost_model(euler_bsp::PlatformCostModel::spark_like()),
            ))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let engine = run.merge.engine.as_ref().expect("bsp runs report engine stats");
        assert!(engine.modelled_platform_overhead > Duration::ZERO);
        verify_result(&g, &run.circuit.result).unwrap();
    }

    #[test]
    fn larger_rmat_eulerized_graph_end_to_end() {
        let (g, _) = euler_gen::configs::GraphConfig::by_name("G20/P2").unwrap().generate(-7);
        let a = LdgPartitioner::new(2).partition(&g);
        let (result, _) =
            run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        verify_result(&g, &result).unwrap();
        assert_eq!(result.total_edges(), g.num_edges());
    }
}
