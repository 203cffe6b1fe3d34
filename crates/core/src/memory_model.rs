//! Analytical memory model for Fig. 8 (§5 "Analysis").
//!
//! The paper evaluates its two §5 heuristics analytically, by replaying the
//! per-level traces of the baseline runs and computing what the partition
//! memory state would have been under (a) the current algorithm, (b) an
//! *ideal* constant-per-partition memory case, and (c) the proposed
//! heuristics. This module reproduces that model from the same per-level
//! inputs so the Fig.-8 series (cumulative and average Longs per level for
//! current / ideal / proposed) can be regenerated both from measured runs and
//! purely analytically.

use crate::merge_strategy::MergeStrategy;
use serde::{Deserialize, Serialize};

/// Partition state in Longs under the paper's accounting: one per retained
/// vertex, three per local edge (edge id + endpoints) and four per remote
/// ref (edge id, endpoints, owner).
pub const fn state_longs(vertices: u64, local_edges: u64, remote_refs: u64) -> u64 {
    vertices + 3 * local_edges + 4 * remote_refs
}

/// Per-partition composition at one level, in Longs-relevant counts.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PartitionLevelState {
    /// Retained vertices (boundary + internal still in memory).
    pub vertices: u64,
    /// Local edges (real or coarse) at the start of the level.
    pub local_edges: u64,
    /// Remote edges held at the start of the level (duplicated representation).
    pub remote_edges: u64,
    /// Of those remote edges, how many become local at this level's merge
    /// (i.e. are "needed now"); the rest are needed at higher levels.
    pub remote_needed_now: u64,
}

impl PartitionLevelState {
    /// Memory Longs under the paper's accounting ([`state_longs`]).
    pub fn longs(&self) -> u64 {
        state_longs(self.vertices, self.local_edges, self.remote_edges)
    }
}

/// One level of the model: the states of all active partitions.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LevelTrace {
    /// Level index.
    pub level: u32,
    /// Active partitions' states.
    pub partitions: Vec<PartitionLevelState>,
}

/// The three Fig.-8 series derived from a trace.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MemoryModelSeries {
    /// Cumulative Longs per level.
    pub cumulative: Vec<u64>,
    /// Average Longs per active partition per level.
    pub average: Vec<f64>,
}

/// Computes the memory series for a given strategy from a per-level trace of
/// the baseline (duplicated) run.
///
/// * `Duplicated` reports the trace as-is.
/// * `Deduplicated` halves the remote-edge component (each edge kept once
///   instead of twice across the distributed memory).
/// * `Deferred` additionally drops, from each *active* partition, the remote
///   edges that are not needed until a higher level (they stay parked on idle
///   leaf machines).
pub fn model_series(trace: &[LevelTrace], strategy: MergeStrategy) -> MemoryModelSeries {
    let mut out = MemoryModelSeries::default();
    for level in trace {
        let mut total = 0u64;
        for p in &level.partitions {
            let remote = match strategy {
                MergeStrategy::Duplicated => p.remote_edges,
                MergeStrategy::Deduplicated => p.remote_edges.div_ceil(2),
                MergeStrategy::Deferred => p.remote_needed_now.min(p.remote_edges).div_ceil(2),
            };
            total += state_longs(p.vertices, p.local_edges, remote);
        }
        let n = level.partitions.len().max(1) as f64;
        out.cumulative.push(total);
        out.average.push(total as f64 / n);
    }
    out
}

/// The paper's "ideal" reference series: the average per-partition state stays
/// constant at its level-0 value, and the cumulative is that value times the
/// number of active partitions at each level.
pub fn ideal_series(trace: &[LevelTrace]) -> MemoryModelSeries {
    let mut out = MemoryModelSeries::default();
    let level0_avg = trace
        .first()
        .map(|l| {
            let total: u64 = l.partitions.iter().map(|p| p.longs()).sum();
            total as f64 / l.partitions.len().max(1) as f64
        })
        .unwrap_or(0.0);
    for level in trace {
        let n = level.partitions.len() as f64;
        out.average.push(level0_avg);
        out.cumulative.push((level0_avg * n).round() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<LevelTrace> {
        // 4 partitions shrinking to 1, with remote edges dominating like the
        // paper's G50/P8 observation.
        vec![
            LevelTrace {
                level: 0,
                partitions: (0..4)
                    .map(|_| PartitionLevelState {
                        vertices: 100,
                        local_edges: 400,
                        remote_edges: 700,
                        remote_needed_now: 300,
                    })
                    .collect(),
            },
            LevelTrace {
                level: 1,
                partitions: (0..2)
                    .map(|_| PartitionLevelState {
                        vertices: 150,
                        local_edges: 500,
                        remote_edges: 800,
                        remote_needed_now: 800,
                    })
                    .collect(),
            },
            LevelTrace {
                level: 2,
                partitions: vec![PartitionLevelState {
                    vertices: 200,
                    local_edges: 700,
                    remote_edges: 0,
                    remote_needed_now: 0,
                }],
            },
        ]
    }

    #[test]
    fn duplicated_matches_raw_longs() {
        let trace = sample_trace();
        let m = model_series(&trace, MergeStrategy::Duplicated);
        let expected_l0: u64 = 4 * (100 + 3 * 400 + 4 * 700);
        assert_eq!(m.cumulative[0], expected_l0);
        assert_eq!(m.average[0], expected_l0 as f64 / 4.0);
        assert_eq!(m.cumulative.len(), 3);
    }

    #[test]
    fn dedup_reduces_level0_by_remote_share() {
        let trace = sample_trace();
        let current = model_series(&trace, MergeStrategy::Duplicated);
        let dedup = model_series(&trace, MergeStrategy::Deduplicated);
        assert!(dedup.cumulative[0] < current.cumulative[0]);
        // The reduction equals half the remote-edge Longs.
        let expected_drop = 4 * 4 * (700 / 2) as u64;
        assert_eq!(current.cumulative[0] - dedup.cumulative[0], expected_drop);
    }

    #[test]
    fn deferred_is_never_larger_than_dedup() {
        let trace = sample_trace();
        let dedup = model_series(&trace, MergeStrategy::Deduplicated);
        let deferred = model_series(&trace, MergeStrategy::Deferred);
        for (a, b) in deferred.cumulative.iter().zip(dedup.cumulative.iter()) {
            assert!(a <= b, "deferred {a} > dedup {b}");
        }
    }

    #[test]
    fn root_level_is_identical_across_strategies() {
        // §5: the heuristics do not help at the last level (no remote edges).
        let trace = sample_trace();
        let cur = model_series(&trace, MergeStrategy::Duplicated);
        let def = model_series(&trace, MergeStrategy::Deferred);
        assert_eq!(cur.cumulative[2], def.cumulative[2]);
    }

    #[test]
    fn ideal_series_is_flat_in_average() {
        let trace = sample_trace();
        let ideal = ideal_series(&trace);
        assert_eq!(ideal.average.len(), 3);
        assert!((ideal.average[0] - ideal.average[2]).abs() < 1e-9);
        // Cumulative shrinks with the number of active partitions.
        assert!(ideal.cumulative[0] > ideal.cumulative[1]);
        assert!(ideal.cumulative[1] > ideal.cumulative[2]);
    }

    #[test]
    fn empty_trace_yields_empty_series() {
        let m = model_series(&[], MergeStrategy::Duplicated);
        assert!(m.cumulative.is_empty());
        let i = ideal_series(&[]);
        assert!(i.cumulative.is_empty());
    }
}
