//! Execution statistics of a BSP run.
//!
//! These mirror the quantities the paper extracts from its Spark runs: user
//! compute time per partition (split into labelled phases, Fig. 6), bytes
//! moved between workers per superstep, superstep (coordination) counts, and
//! per-partition memory state in Longs (Fig. 8/9).

use crate::fault::RecoveryStats;
use euler_metrics::{MemoryState, TimeBreakdown};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Statistics of one superstep.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SuperstepStats {
    /// Superstep index (0-based).
    pub superstep: u32,
    /// Number of partitions that executed (were active) this superstep.
    pub active_partitions: usize,
    /// Wall-clock time of the whole superstep (parallel execution + barrier).
    pub wall_time: Duration,
    /// Sum of per-partition compute time (the paper's "user compute time"):
    /// Phase 1 plus merging.
    pub compute_time: Duration,
    /// Per-partition compute-time breakdown, keyed by partition id.
    pub per_partition_compute: Vec<(u32, TimeBreakdown)>,
    /// Partition states handed to a merge parent held by the same worker: by
    /// value, never encoded.
    pub local_messages: u64,
    /// Bytes those states would have encoded to (8 × their record words).
    pub local_bytes: u64,
    /// Messages crossing worker boundaries (the "shuffle").
    pub remote_messages: u64,
    /// Bytes crossing worker boundaries.
    pub remote_bytes: u64,
    /// Bytes of the fragment segments wire workers sent the coordinator with
    /// this superstep's results: 8 per modelled disk Long plus five framing
    /// words per segment. Zero for workers stepped in place, whose fragments
    /// go straight into the walk's store.
    pub fragment_bytes: u64,
    /// Memory state reported by the partitions this superstep.
    pub memory: MemoryState,
}

impl SuperstepStats {
    /// Creates empty stats for superstep `s`.
    pub fn new(superstep: u32) -> Self {
        SuperstepStats { superstep, memory: MemoryState::new(superstep), ..Default::default() }
    }

    /// Total messages routed this superstep.
    pub fn total_messages(&self) -> u64 {
        self.local_messages + self.remote_messages
    }

    /// Total bytes routed this superstep.
    pub fn total_bytes(&self) -> u64 {
        self.local_bytes + self.remote_bytes
    }
}

/// Aggregated statistics of a whole run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Per-superstep statistics in order.
    pub supersteps: Vec<SuperstepStats>,
    /// Number of workers used.
    pub num_workers: usize,
    /// The worker holding each partition's slot, in ascending partition id.
    pub placement: Vec<usize>,
    /// Payload bytes of every Init frame sent to wire workers: the merge
    /// tree and each worker's level-0 seed — its partition states, or, when
    /// level 0 is a mapped `.ecsr`, a reference to the file with the
    /// assignment (sent again where recovery re-initialises a worker). Zero
    /// for workers stepped in place.
    pub init_bytes: u64,
    /// The longest a wire worker took to turn an Init into its level-0
    /// partition states — decoding them, or building them from the file it
    /// was pointed at — as reported in its Ready. Zero for workers stepped
    /// in place, which are handed theirs.
    pub seed_build_time: Duration,
    /// Total wall-clock time of the run.
    pub total_wall_time: Duration,
    /// Modelled platform overhead added by the cost model (scheduling,
    /// serialisation, shuffle, barriers). Kept separate from measured time.
    pub modelled_platform_overhead: Duration,
    /// Fault-tolerance counters (worker restarts, heartbeat misses,
    /// checkpoint traffic). All zero for workers stepped in place; populated
    /// by the coordinator of a fleet behind a transport.
    pub recovery: RecoveryStats,
}

impl EngineStats {
    /// Number of supersteps executed (the paper's coordination cost).
    pub fn num_supersteps(&self) -> u32 {
        self.supersteps.len() as u32
    }

    /// Total user compute time across all supersteps and partitions.
    pub fn total_compute_time(&self) -> Duration {
        self.supersteps.iter().map(|s| s.compute_time).sum()
    }

    /// Total bytes shuffled across workers.
    pub fn total_remote_bytes(&self) -> u64 {
        self.supersteps.iter().map(|s| s.remote_bytes).sum()
    }

    /// Total messages (local + remote).
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.total_messages()).sum()
    }

    /// The "total time" in the sense of Fig. 5: measured wall time plus the
    /// modelled platform overhead.
    pub fn modelled_total_time(&self) -> Duration {
        self.total_wall_time + self.modelled_platform_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superstep_totals() {
        let mut s = SuperstepStats::new(2);
        s.local_messages = 3;
        s.remote_messages = 4;
        s.local_bytes = 100;
        s.remote_bytes = 50;
        assert_eq!(s.total_messages(), 7);
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.superstep, 2);
        assert_eq!(s.memory.level, 2);
    }

    #[test]
    fn engine_stats_aggregation() {
        let mut e = EngineStats::default();
        let mut s0 = SuperstepStats::new(0);
        s0.compute_time = Duration::from_millis(10);
        s0.remote_bytes = 1000;
        let mut s1 = SuperstepStats::new(1);
        s1.compute_time = Duration::from_millis(5);
        s1.remote_bytes = 500;
        s1.local_messages = 2;
        e.supersteps = vec![s0, s1];
        e.total_wall_time = Duration::from_millis(20);
        e.modelled_platform_overhead = Duration::from_millis(30);

        assert_eq!(e.num_supersteps(), 2);
        assert_eq!(e.total_compute_time(), Duration::from_millis(15));
        assert_eq!(e.total_remote_bytes(), 1500);
        assert_eq!(e.total_messages(), 2);
        assert_eq!(e.modelled_total_time(), Duration::from_millis(50));
    }
}
