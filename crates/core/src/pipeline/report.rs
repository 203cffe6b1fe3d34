//! The unified run report.

use super::*;

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
        (0..self.supersteps).map(|l| self.level(l).iter().map(|r| r.memory_longs).sum()).collect()
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
