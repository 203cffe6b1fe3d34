//! The BSP engine: runs a partition program to completion.

use crate::cost_model::PlatformCostModel;
use crate::message::Envelope;
use crate::program::PartitionProgram;
use crate::stats::EngineStats;
use crate::superstep::execute_superstep;
use crate::worker::PartitionPlacement;
use std::time::Instant;

/// Worker-count policy of a [`BspConfig`].
///
/// Previously "one worker per partition" was encoded as the sentinel
/// `num_workers: 0`, which asserted deep inside
/// [`PartitionPlacement::round_robin`] (`num_workers >= 1`) whenever a caller
/// built a placement without resolving the sentinel first. The policy is now
/// a proper enum: an unresolved count cannot be mistaken for a cluster size,
/// the fixed count is a `NonZeroUsize` so a zero-size cluster is
/// unrepresentable, and [`BspConfig::resolved_workers`] is the single
/// resolution point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerCount {
    /// One worker (executor) per partition — the paper's deployment. The
    /// actual count is resolved against the partition count at run time.
    PerPartition,
    /// A fixed cluster size (structurally `>= 1`).
    Fixed(std::num::NonZeroUsize),
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct BspConfig {
    /// Number of simulated machines. The paper's deployment uses one executor
    /// per partition; [`BspConfig::one_worker_per_partition`] reproduces that.
    pub workers: WorkerCount,
    /// Platform cost model used to report modelled overhead (never mixed into
    /// measured numbers).
    pub cost_model: PlatformCostModel,
    /// Safety bound on the number of supersteps.
    pub max_supersteps: u32,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            workers: WorkerCount::Fixed(std::num::NonZeroUsize::new(4).expect("non-zero")),
            cost_model: PlatformCostModel::zero(),
            max_supersteps: 10_000,
        }
    }
}

impl BspConfig {
    /// Configuration with a fixed number of workers.
    ///
    /// `num_workers == 0` used to panic deep inside the `NonZeroUsize`
    /// construction; a zero-size cluster is meaningless, so it now falls back
    /// to the only sensible adaptive policy,
    /// [`BspConfig::one_worker_per_partition`] (the paper's deployment), and
    /// the worker count resolves against the partition count at run time.
    pub fn with_workers(num_workers: usize) -> Self {
        match std::num::NonZeroUsize::new(num_workers) {
            Some(n) => BspConfig { workers: WorkerCount::Fixed(n), ..Default::default() },
            None => Self::one_worker_per_partition(),
        }
    }

    /// One worker per partition, like the paper's one-executor-per-partition
    /// deployment.
    pub fn one_worker_per_partition() -> Self {
        BspConfig { workers: WorkerCount::PerPartition, ..Default::default() }
    }

    /// The concrete worker count for a run over `num_partitions` partitions
    /// (at least 1, even for an empty partition set).
    pub fn resolved_workers(&self, num_partitions: usize) -> usize {
        match self.workers {
            WorkerCount::PerPartition => num_partitions.max(1),
            WorkerCount::Fixed(n) => n.get(),
        }
    }

    /// Sets the cost model.
    pub fn with_cost_model(mut self, m: PlatformCostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Sets the superstep bound.
    pub fn with_max_supersteps(mut self, n: u32) -> Self {
        self.max_supersteps = n;
        self
    }
}

/// Result of an engine run: final per-partition states plus statistics.
pub struct RunOutcome<S> {
    /// Final state of every partition, indexed by engine partition index.
    pub states: Vec<S>,
    /// Collected statistics.
    pub stats: EngineStats,
}

/// The BSP engine.
#[derive(Clone, Debug, Default)]
pub struct BspEngine {
    config: BspConfig,
}

impl BspEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: BspConfig) -> Self {
        BspEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &BspConfig {
        &self.config
    }

    /// Runs `program` over `initial` partition states until every partition
    /// has voted to halt and no messages are in flight (or the superstep bound
    /// is hit). Partition `p`'s state is `initial[p]`.
    pub fn run<P: PartitionProgram>(&self, program: &P, initial: Vec<P::State>) -> RunOutcome<P::State> {
        let num_partitions = initial.len();
        let num_workers = self.config.resolved_workers(num_partitions);
        let placement = PartitionPlacement::round_robin(num_partitions, num_workers);
        self.run_with_placement(program, initial, &placement)
    }

    /// Runs with an explicit partition placement.
    pub fn run_with_placement<P: PartitionProgram>(
        &self,
        program: &P,
        initial: Vec<P::State>,
        placement: &PartitionPlacement,
    ) -> RunOutcome<P::State> {
        let mut run = StepRun::with_placement(self.config, program, initial, placement.clone());
        while run.step() {}
        run.into_outcome()
    }
}

/// A BSP engine run driven one superstep at a time — the adapter external
/// drivers (the Euler pipeline's `BspBackend`) use to interleave engine
/// supersteps with their own per-level bookkeeping.
///
/// A `StepRun` owns everything [`BspEngine::run`] keeps on its stack —
/// program, per-partition states, in-flight inboxes, halt flags and
/// statistics — but hands control back to the caller after every barrier.
/// [`BspEngine::run`]/[`BspEngine::run_with_placement`] are implemented on
/// top of it, so stepped and free-running execution share one superstep loop.
pub struct StepRun<P: PartitionProgram> {
    config: BspConfig,
    program: P,
    placement: PartitionPlacement,
    states: Vec<Option<P::State>>,
    inboxes: Vec<Vec<Envelope>>,
    halted: Vec<bool>,
    stats: EngineStats,
    next_superstep: u32,
    started: Instant,
}

impl<P: PartitionProgram> StepRun<P> {
    /// Creates a stepped run over `initial` partition states, placing
    /// partitions round-robin over the configured worker count (resolved
    /// against the partition count, as in [`BspEngine::run`]).
    pub fn new(config: BspConfig, program: P, initial: Vec<P::State>) -> Self {
        let num_partitions = initial.len();
        let num_workers = config.resolved_workers(num_partitions);
        let placement = PartitionPlacement::round_robin(num_partitions, num_workers);
        Self::with_placement(config, program, initial, placement)
    }

    /// Creates a stepped run with an explicit placement.
    pub fn with_placement(
        config: BspConfig,
        program: P,
        initial: Vec<P::State>,
        placement: PartitionPlacement,
    ) -> Self {
        let num_partitions = initial.len();
        assert_eq!(placement.num_partitions(), num_partitions, "placement must cover all partitions");
        StepRun {
            config,
            program,
            stats: EngineStats { num_workers: placement.num_workers(), ..Default::default() },
            placement,
            states: initial.into_iter().map(Some).collect(),
            inboxes: (0..num_partitions).map(|_| Vec::new()).collect(),
            halted: vec![false; num_partitions],
            next_superstep: 0,
            started: Instant::now(),
        }
    }

    /// The program driving this run.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Number of partitions this run executes over.
    pub fn num_partitions(&self) -> usize {
        self.states.len()
    }

    /// True while another superstep would execute: some partition has not
    /// voted to halt or has messages pending, and the superstep bound has not
    /// been reached.
    pub fn is_active(&self) -> bool {
        self.next_superstep < self.config.max_supersteps
            && self.halted.iter().enumerate().any(|(p, &h)| !h || !self.inboxes[p].is_empty())
    }

    /// Executes one superstep (compute + barrier + message delivery).
    /// Returns `false` — without running anything — once the run is no
    /// longer [`active`](StepRun::is_active).
    pub fn step(&mut self) -> bool {
        if !self.is_active() {
            return false;
        }
        let outcome = execute_superstep(
            &self.program,
            self.next_superstep,
            &mut self.states,
            &mut self.inboxes,
            &self.halted,
            &self.placement,
        );
        self.halted = outcome.halted;
        let num_partitions = self.states.len();
        for env in outcome.outgoing {
            let to = env.to as usize;
            assert!(to < num_partitions, "message addressed to unknown partition {to}");
            self.inboxes[to].push(env);
        }
        self.stats.supersteps.push(outcome.stats);
        self.next_superstep += 1;
        true
    }

    /// Snapshot of the statistics so far, finalised as a completed run's
    /// would be: wall time measured since construction, modelled platform
    /// overhead applied by the configured cost model.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats.clone();
        stats.total_wall_time = self.started.elapsed();
        stats.modelled_platform_overhead = self.config.cost_model.overhead(&stats);
        stats
    }

    /// Finishes the run, returning final states and finalised statistics.
    pub fn into_outcome(self) -> RunOutcome<P::State> {
        let stats = self.stats();
        let states = self.states.into_iter().map(|s| s.expect("state present")).collect();
        RunOutcome { states, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{codec, Envelope};
    use crate::program::PartitionContext;

    /// Ring-sum program: for `rounds` supersteps every partition sends its
    /// value to the next partition in the ring and adds what it receives.
    struct RingSum {
        rounds: u32,
        num_partitions: u32,
    }

    impl PartitionProgram for RingSum {
        type State = u64;

        fn superstep(&self, ctx: &mut PartitionContext, state: &mut u64, messages: Vec<Envelope>) -> Vec<Envelope> {
            for m in &messages {
                *state += codec::decode_u64s(&m.payload).iter().sum::<u64>();
            }
            ctx.report_memory_longs(1);
            if ctx.superstep >= self.rounds {
                ctx.vote_to_halt();
                return vec![];
            }
            let next = (ctx.partition + 1) % self.num_partitions;
            vec![Envelope::new(ctx.partition, next, 0, codec::encode_u64s(&[ctx.partition as u64 + 1]))]
        }
    }

    #[test]
    fn ring_sum_converges_with_expected_supersteps() {
        let program = RingSum { rounds: 3, num_partitions: 4 };
        let engine = BspEngine::new(BspConfig::with_workers(2));
        let outcome = engine.run(&program, vec![0u64; 4]);
        // Supersteps: 0,1,2 send; superstep 3 receives the last batch, halts.
        assert_eq!(outcome.stats.num_supersteps(), 4);
        // Each partition received its predecessor's value 3 times.
        let expected: Vec<u64> = (0..4u64).map(|p| 3 * ((p + 3) % 4 + 1)).collect();
        assert_eq!(outcome.states, expected);
        assert!(outcome.stats.total_messages() >= 12);
    }

    /// Program that never sends and halts immediately.
    struct HaltNow;
    impl PartitionProgram for HaltNow {
        type State = ();
        fn superstep(&self, ctx: &mut PartitionContext, _state: &mut (), _m: Vec<Envelope>) -> Vec<Envelope> {
            ctx.vote_to_halt();
            vec![]
        }
    }

    #[test]
    fn immediate_halt_takes_one_superstep() {
        let engine = BspEngine::new(BspConfig::with_workers(3));
        let outcome = engine.run(&HaltNow, vec![(); 5]);
        assert_eq!(outcome.stats.num_supersteps(), 1);
        assert_eq!(outcome.states.len(), 5);
    }

    /// Program that never halts — the superstep bound must stop it.
    struct NeverHalt;
    impl PartitionProgram for NeverHalt {
        type State = u32;
        fn superstep(&self, _ctx: &mut PartitionContext, state: &mut u32, _m: Vec<Envelope>) -> Vec<Envelope> {
            *state += 1;
            vec![]
        }
    }

    #[test]
    fn max_supersteps_bound_enforced() {
        let engine = BspEngine::new(BspConfig::with_workers(1).with_max_supersteps(7));
        let outcome = engine.run(&NeverHalt, vec![0u32; 2]);
        assert_eq!(outcome.stats.num_supersteps(), 7);
        assert_eq!(outcome.states, vec![7, 7]);
    }

    #[test]
    fn one_worker_per_partition_mode() {
        let engine = BspEngine::new(BspConfig::one_worker_per_partition());
        let outcome = engine.run(&HaltNow, vec![(); 6]);
        assert_eq!(outcome.stats.num_workers, 6);
    }

    #[test]
    fn per_partition_policy_resolves_before_placement() {
        let config = BspConfig::one_worker_per_partition();
        assert_eq!(config.workers, WorkerCount::PerPartition);
        assert_eq!(config.resolved_workers(5), 5);
        // Even an empty partition set resolves to a valid (>= 1) worker
        // count, so the placement assert can never fire.
        assert_eq!(config.resolved_workers(0), 1);
        let engine = BspEngine::new(config);
        let outcome = engine.run(&HaltNow, Vec::<()>::new());
        assert_eq!(outcome.stats.num_supersteps(), 0);
    }

    #[test]
    fn fixed_policy_resolves_to_itself() {
        let config = BspConfig::with_workers(3);
        let three = std::num::NonZeroUsize::new(3).unwrap();
        assert_eq!(config.workers, WorkerCount::Fixed(three));
        assert_eq!(config.resolved_workers(0), 3);
        assert_eq!(config.resolved_workers(100), 3);
    }

    #[test]
    fn zero_fixed_workers_falls_back_to_one_worker_per_partition() {
        // `with_workers(0)` used to panic via the NonZeroUsize construction;
        // it now degrades to the adaptive per-partition policy.
        let config = BspConfig::with_workers(0);
        assert_eq!(config.workers, WorkerCount::PerPartition);
        assert_eq!(config.resolved_workers(5), 5);
        assert_eq!(config.resolved_workers(0), 1);
        let engine = BspEngine::new(config);
        let outcome = engine.run(&HaltNow, vec![(); 3]);
        assert_eq!(outcome.stats.num_workers, 3);
        assert_eq!(outcome.stats.num_supersteps(), 1);
    }

    #[test]
    fn stepped_run_matches_free_running_engine() {
        let program = RingSum { rounds: 3, num_partitions: 4 };
        let free = BspEngine::new(BspConfig::with_workers(2)).run(&program, vec![0u64; 4]);

        let mut run = StepRun::new(BspConfig::with_workers(2), &program, vec![0u64; 4]);
        let mut steps = 0;
        while run.step() {
            steps += 1;
            // Mid-run snapshots stay consistent with the steps taken.
            assert_eq!(run.stats().num_supersteps(), steps);
        }
        assert!(!run.is_active());
        assert!(!run.step(), "stepping an inactive run is a no-op");
        let stepped = run.into_outcome();

        assert_eq!(stepped.states, free.states);
        assert_eq!(stepped.stats.num_supersteps(), free.stats.num_supersteps());
        assert_eq!(stepped.stats.total_messages(), free.stats.total_messages());
        assert_eq!(stepped.stats.num_workers, free.stats.num_workers);
    }

    #[test]
    fn stepped_run_respects_superstep_bound() {
        let mut run = StepRun::new(BspConfig::with_workers(1).with_max_supersteps(4), NeverHalt, vec![0u32; 2]);
        while run.step() {}
        let outcome = run.into_outcome();
        assert_eq!(outcome.stats.num_supersteps(), 4);
        assert_eq!(outcome.states, vec![4, 4]);
    }

    #[test]
    fn cost_model_produces_nonzero_overhead() {
        let engine = BspEngine::new(BspConfig::with_workers(2).with_cost_model(PlatformCostModel::spark_like()));
        let program = RingSum { rounds: 2, num_partitions: 3 };
        let outcome = engine.run(&program, vec![0u64; 3]);
        assert!(outcome.stats.modelled_platform_overhead > std::time::Duration::ZERO);
        assert!(outcome.stats.modelled_total_time() > outcome.stats.total_wall_time);
    }

    #[test]
    fn empty_partition_set_runs_zero_supersteps() {
        let engine = BspEngine::new(BspConfig::default());
        let outcome = engine.run(&HaltNow, Vec::<()>::new());
        assert_eq!(outcome.stats.num_supersteps(), 0);
        assert!(outcome.states.is_empty());
    }
}
