//! The execution-backend seam and its two backends.

use super::*;

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

/// What a run starts from: the level-0 partition states, built already (the
/// W-streaming residuals, a partition view) or still in their edge arrays (a
/// resident graph or a mapped `.ecsr`, the assignment and one counting pass
/// over it), to be filled by the backend where its partitions live — all of
/// them in this process ([`into_states`](Self::into_states)), or each wire
/// worker its own share from the file.
pub struct Seed<'a>(pub(crate) SeedKind<'a>);

pub(crate) enum SeedKind<'a> {
    States(Vec<WorkingPartition>),
    Level0(Level0<'a>),
}

impl Seed<'_> {
    /// The level-0 state of every partition, ascending by id.
    ///
    /// # Errors
    /// [`EulerError::Graph`] when the seed is still in its edge arrays and
    /// they name a vertex the assignment does not cover.
    pub fn into_states(self) -> Result<Vec<WorkingPartition>, EulerError> {
        match self.0 {
            SeedKind::States(mut states) => {
                states.sort_by_key(|s| s.id);
                Ok(states)
            }
            SeedKind::Level0(level0) => Ok(level0.fill(|_| true)?),
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
/// A level's partitions fan out on rayon threads once its states are large
/// enough to pay for waking the pool, each merging its children and running
/// the sequential Phase-1 kernel on an arena of the run's pool;
/// [`EulerPipelineBuilder::sequential`] steps every level one at a time —
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
        step_run(&self.run, work, |seed| DistRun::new(euler_bsp::BspConfig::with_workers(1), None, tree, seed, config))
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

/// Executes levels as BSP supersteps: the partitions are dealt to a set of
/// workers — whole merge subtrees together where the balance allows it, so
/// merges stay on the worker that holds the parent; the table is
/// [`euler_bsp::EngineStats::placement`] — one superstep per merge level. A
/// child retiring into a parent on its own worker is handed over by value;
/// one whose parent is on another worker ships its *serialised* state there.
///
/// On top of the [`RunReport`] every backend fills, this one contributes
/// superstep statistics (shuffle bytes, per-partition time splits, modelled
/// platform overhead) via [`RunReport::engine`], which is what the Fig.-5/6
/// harnesses consume. The default is one worker per partition — the paper's
/// one-executor-per-partition deployment. Without a transport the workers
/// are slot sets of this process, stepped in place, every worker's slots
/// from one call on rayon threads as [`InProcessBackend`]'s are; with
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

    /// Injects a scripted fault — kill worker *k* at superstep *s*, just
    /// before its Start — the test/bench harness for the recovery
    /// machinery.
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
        let (tree, config) = (Arc::clone(work.tree), work.config);
        step_run(&self.run, work, |seed| {
            let fleet = self.transport.as_ref().map(|t| self.fleet_config(t)).transpose()?;
            DistRun::new(self.engine, fleet, tree, seed, config)
        })
    }

    fn engine_stats(&self) -> Option<euler_bsp::EngineStats> {
        self.run.borrow().as_ref().map(|run| run.stats())
    }

    fn warnings(&self) -> Vec<String> {
        self.run.borrow().as_ref().map(|run| run.warnings()).unwrap_or_default()
    }
}
