//! Memory-state accounting in 8-byte "Longs".
//!
//! The paper reports per-partition and per-level memory state as the number of
//! `Int64` (Java `Long`) values held in the partition data structures, because
//! raw RAM numbers are distorted by JVM object overheads (§4.3, Fig. 8/9).
//! This module provides the same platform-independent metric for the Rust
//! implementation.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Memory state of a set of partitions at one merge level: the quantities
/// plotted in Fig. 8 (cumulative and average Longs) and Fig. 9 (per-partition
/// composition).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MemoryState {
    /// Merge level this snapshot describes (0 = leaf partitions).
    pub level: u32,
    /// Longs held by each active partition at this level, keyed by an opaque
    /// partition label.
    pub per_partition: BTreeMap<String, u64>,
}

impl MemoryState {
    /// Creates an empty snapshot for `level`.
    pub fn new(level: u32) -> Self {
        MemoryState { level, per_partition: BTreeMap::new() }
    }

    /// Records the state of one partition.
    pub fn record(&mut self, partition: impl Into<String>, longs: u64) {
        self.per_partition.insert(partition.into(), longs);
    }

    /// Cumulative Longs across all active partitions (solid lines of Fig. 8).
    pub fn cumulative(&self) -> u64 {
        self.per_partition.values().sum()
    }

    /// Average Longs per active partition (dashed lines of Fig. 8).
    pub fn average(&self) -> f64 {
        if self.per_partition.is_empty() {
            0.0
        } else {
            self.cumulative() as f64 / self.per_partition.len() as f64
        }
    }

    /// Number of active partitions at this level.
    pub fn num_partitions(&self) -> usize {
        self.per_partition.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_state_cumulative_and_average() {
        let mut m = MemoryState::new(1);
        m.record("P1", 100);
        m.record("P3", 300);
        assert_eq!(m.level, 1);
        assert_eq!(m.cumulative(), 400);
        assert!((m.average() - 200.0).abs() < 1e-9);
        assert_eq!(m.num_partitions(), 2);
    }

    #[test]
    fn empty_memory_state() {
        let m = MemoryState::new(0);
        assert_eq!(m.cumulative(), 0);
        assert_eq!(m.average(), 0.0);
    }
}
