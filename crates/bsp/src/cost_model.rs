//! Configuration of a BSP run — how many workers, and the platform cost
//! model its statistics are priced under — and that model, which turns run
//! statistics into modelled platform time.
//!
//! The paper's Fig. 5 shows that on Spark only about half of the total job
//! time is user compute; the rest is the platform's shuffle (serialisation,
//! network, disk), task scheduling and barrier synchronisation, and Java
//! object construction — overheads that grow with data volume and task count.
//! Running in-process in Rust we do not pay those costs, so to reproduce the
//! *shape* of Fig. 5/6 a run pairs its measured statistics with a
//! [`PlatformCostModel`] whose constants are calibrated to the behaviour the
//! paper reports. The modelled overhead is always reported separately from
//! measured time, never mixed into it.

use crate::stats::EngineStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Linear cost model for platform overheads.
///
/// `overhead = Σ_supersteps ( barrier
///                          + tasks · task_schedule
///                          + remote_bytes · per_byte_shuffle
///                          + total_bytes · per_byte_serde
///                          + partition_longs · per_long_object )`
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct PlatformCostModel {
    /// Fixed cost per superstep (stage barrier + driver coordination).
    pub barrier: Duration,
    /// Cost of scheduling and launching one task (one partition execution).
    pub task_schedule: Duration,
    /// Cost per byte moved across workers (network + shuffle write/read).
    pub per_byte_shuffle: Duration,
    /// Cost per byte of serialisation/deserialisation (paid for all messages).
    pub per_byte_serde: Duration,
    /// Cost per Long of partition state for object (re)construction — the
    /// paper's "Create Partition Object" component, which dominates at the
    /// leaf levels (Fig. 6).
    pub per_long_object: Duration,
}

impl PlatformCostModel {
    /// A zero model: modelled overhead is always zero (pure measured mode).
    pub fn zero() -> Self {
        PlatformCostModel {
            barrier: Duration::ZERO,
            task_schedule: Duration::ZERO,
            per_byte_shuffle: Duration::ZERO,
            per_byte_serde: Duration::ZERO,
            per_long_object: Duration::ZERO,
        }
    }

    /// Constants calibrated to the Spark 2.2 behaviour reported in §4.3 of
    /// the paper: seconds-scale task scheduling, shuffle throughput in the
    /// low hundreds of MB/s per executor, and object creation costs that make
    /// "Create Partition Object" comparable to the Phase-1 compute time at
    /// the leaf levels.
    pub fn spark_like() -> Self {
        PlatformCostModel {
            barrier: Duration::from_millis(500),
            task_schedule: Duration::from_millis(120),
            per_byte_shuffle: Duration::from_nanos(8), // ≈125 MB/s effective shuffle
            per_byte_serde: Duration::from_nanos(4),   // ≈250 MB/s serde
            per_long_object: Duration::from_nanos(25), // JVM object & GC amortised cost
        }
    }

    /// Modelled overhead for a finished run.
    pub fn overhead(&self, stats: &EngineStats) -> Duration {
        let mut total = Duration::ZERO;
        for s in &stats.supersteps {
            total += self.barrier;
            total += self.task_schedule * s.active_partitions as u32;
            total += mul_duration(self.per_byte_shuffle, s.remote_bytes);
            total += mul_duration(self.per_byte_serde, s.total_bytes());
            total += mul_duration(self.per_long_object, s.memory.cumulative());
        }
        total
    }
}

impl Default for PlatformCostModel {
    fn default() -> Self {
        Self::zero()
    }
}

fn mul_duration(d: Duration, times: u64) -> Duration {
    Duration::from_nanos((d.as_nanos() as u64).saturating_mul(times))
}

/// Worker-count policy of a [`BspConfig`].
///
/// An unresolved count cannot be mistaken for a cluster size, the fixed
/// count is a `NonZeroUsize` so a zero-size cluster is unrepresentable, and
/// [`BspConfig::resolved_workers`] is the single resolution point.
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
    /// Number of workers the partitions are spread over. The paper's
    /// deployment uses one executor per partition;
    /// [`BspConfig::one_worker_per_partition`] reproduces that.
    pub workers: WorkerCount,
    /// Platform cost model used to report modelled overhead (never mixed into
    /// measured numbers).
    pub cost_model: PlatformCostModel,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            workers: WorkerCount::Fixed(std::num::NonZeroUsize::new(4).expect("non-zero")),
            cost_model: PlatformCostModel::zero(),
        }
    }
}

impl BspConfig {
    /// Configuration with a fixed number of workers.
    ///
    /// A zero-size cluster is meaningless, so `num_workers == 0` falls back
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SuperstepStats;

    fn stats_with(active: usize, remote_bytes: u64, longs: u64) -> EngineStats {
        let mut s = SuperstepStats::new(0);
        s.active_partitions = active;
        s.remote_bytes = remote_bytes;
        s.memory.record("P0", longs);
        EngineStats { supersteps: vec![s], num_workers: 1, ..Default::default() }
    }

    #[test]
    fn zero_model_is_zero() {
        let stats = stats_with(8, 1_000_000, 1_000_000);
        assert_eq!(PlatformCostModel::zero().overhead(&stats), Duration::ZERO);
    }

    #[test]
    fn overhead_grows_with_bytes() {
        let m = PlatformCostModel::spark_like();
        let small = m.overhead(&stats_with(1, 1_000, 0));
        let large = m.overhead(&stats_with(1, 1_000_000_000, 0));
        assert!(large > small);
    }

    #[test]
    fn overhead_grows_with_tasks_and_supersteps() {
        let m = PlatformCostModel::spark_like();
        let one = m.overhead(&stats_with(1, 0, 0));
        let eight = m.overhead(&stats_with(8, 0, 0));
        assert!(eight > one);

        let mut two_steps = stats_with(1, 0, 0);
        two_steps.supersteps.push(SuperstepStats::new(1));
        assert!(m.overhead(&two_steps) > one);
    }

    #[test]
    fn object_cost_reflects_partition_longs() {
        let m = PlatformCostModel::spark_like();
        let small = m.overhead(&stats_with(1, 0, 1_000));
        let large = m.overhead(&stats_with(1, 0, 100_000_000));
        assert!(large > small + Duration::from_secs(1));
    }

    #[test]
    fn one_worker_per_partition_mode() {
        let config = BspConfig::one_worker_per_partition();
        assert_eq!(config.resolved_workers(6), 6);
    }

    #[test]
    fn per_partition_policy_resolves_before_placement() {
        let config = BspConfig::one_worker_per_partition();
        assert_eq!(config.workers, WorkerCount::PerPartition);
        assert_eq!(config.resolved_workers(5), 5);
        // Even an empty partition set resolves to a valid (>= 1) worker
        // count.
        assert_eq!(config.resolved_workers(0), 1);
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
        // `with_workers(0)` degrades to the adaptive per-partition policy.
        let config = BspConfig::with_workers(0);
        assert_eq!(config.workers, WorkerCount::PerPartition);
        assert_eq!(config.resolved_workers(5), 5);
        assert_eq!(config.resolved_workers(0), 1);
    }

    #[test]
    fn cost_model_produces_nonzero_overhead() {
        let config = BspConfig::with_workers(2).with_cost_model(PlatformCostModel::spark_like());
        let mut stats = EngineStats { supersteps: vec![SuperstepStats::new(0)], ..Default::default() };
        stats.modelled_platform_overhead = config.cost_model.overhead(&stats);
        assert!(stats.modelled_platform_overhead > std::time::Duration::ZERO);
        assert!(stats.modelled_total_time() > stats.total_wall_time);
        // The default model prices nothing.
        assert_eq!(BspConfig::with_workers(2).cost_model.overhead(&stats), std::time::Duration::ZERO);
    }
}
