//! Configuration of a BSP run: how many workers, and the platform cost
//! model its statistics are priced under.

use crate::cost_model::PlatformCostModel;

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
    use crate::stats::{EngineStats, SuperstepStats};

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
