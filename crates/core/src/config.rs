//! Algorithm configuration.

use crate::merge_strategy::MergeStrategy;
use serde::{Deserialize, Serialize};

/// Configuration of the partition-centric Euler circuit algorithm.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct EulerConfig {
    /// Strategy for handling remote edges across merge levels (§5).
    pub merge_strategy: MergeStrategy,
    /// Allow Phase 1 of the partitions at one level to run in parallel
    /// (rayon) on either backend's workers in place, which a level does once
    /// its states are large enough to pay for waking the pool. The paper's
    /// partitions execute concurrently on different machines; turning this
    /// off steps every level one partition at a time (as wire workers always
    /// do), easier to profile per partition. Same bytes either way.
    pub parallel_within_level: bool,
    /// Verify the reconstructed circuit against the run's input before
    /// returning (every edge exactly once, each step its edge's endpoints,
    /// chained, closed).
    pub verify: bool,
    /// Bound on resident fragment memory in Longs. `None` (default) keeps
    /// every circuit fragment in memory; `Some(budget)` gives the fragment
    /// store that budget ([`crate::FragmentStore::spilling`]): runs of
    /// fragments are admitted only within it and page out to a temp file,
    /// lowest level first, to make room — circuits are bit-identical either
    /// way.
    pub fragment_memory_budget: Option<u64>,
    /// Directory the fragment spill file is created in when a
    /// [`fragment_memory_budget`](Self::fragment_memory_budget) is set.
    /// `None` (default) uses [`std::env::temp_dir`]. A broken directory does
    /// not fail the run — spilling falls back to resident fragments and the
    /// degradation surfaces in `RunReport::warnings`.
    pub fragment_spill_directory: Option<std::path::PathBuf>,
    /// Build level-0 partition tours with the one-pass W-streaming chain
    /// machine ([`crate::phase1::wstream`]) instead of the dense resident
    /// arena: edges are consumed straight off the source's
    /// [`euler_graph::EdgeStream`], partial tours spill through the fragment
    /// store, and resident traversal state stays `O(n log n)` — independent
    /// of the edge count. The merge-tree walk and Phase 3 are unchanged, so
    /// the mode composes with every backend and merge strategy.
    pub streaming_phase1: bool,
}

impl Default for EulerConfig {
    fn default() -> Self {
        EulerConfig {
            merge_strategy: MergeStrategy::Duplicated,
            parallel_within_level: true,
            verify: false,
            fragment_memory_budget: None,
            fragment_spill_directory: None,
            streaming_phase1: false,
        }
    }
}

impl EulerConfig {
    /// Configuration using the §5 improvements (remote-edge deduplication and
    /// deferred transfer).
    pub fn improved() -> Self {
        EulerConfig { merge_strategy: MergeStrategy::Deferred, ..Default::default() }
    }

    /// Enables result verification.
    pub fn with_verify(mut self, yes: bool) -> Self {
        self.verify = yes;
        self
    }

    /// Sets the merge strategy.
    pub fn with_merge_strategy(mut self, s: MergeStrategy) -> Self {
        self.merge_strategy = s;
        self
    }

    /// Disables intra-level parallelism on every backend's workers in place.
    pub fn sequential(mut self) -> Self {
        self.parallel_within_level = false;
        self
    }

    /// Bounds resident fragment memory to `longs` (the out-of-core spill
    /// mode; see [`EulerConfig::fragment_memory_budget`]).
    pub fn with_fragment_memory_budget(mut self, longs: u64) -> Self {
        self.fragment_memory_budget = Some(longs);
        self
    }

    /// Overrides the spill-file directory used under a fragment memory
    /// budget (see [`EulerConfig::fragment_spill_directory`]).
    pub fn with_fragment_spill_directory(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.fragment_spill_directory = Some(dir.into());
        self
    }

    /// Enables the W-streaming Phase-1 pass (see
    /// [`EulerConfig::streaming_phase1`]).
    pub fn with_streaming_phase1(mut self, yes: bool) -> Self {
        self.streaming_phase1 = yes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        assert_eq!(EulerConfig::default().merge_strategy, MergeStrategy::Duplicated);
    }

    #[test]
    fn improved_uses_deferred() {
        assert_eq!(EulerConfig::improved().merge_strategy, MergeStrategy::Deferred);
    }

    #[test]
    fn builder_methods() {
        let c = EulerConfig::default()
            .with_verify(true)
            .with_merge_strategy(MergeStrategy::Deduplicated)
            .sequential()
            .with_fragment_memory_budget(1 << 20);
        assert!(c.verify);
        assert!(!c.parallel_within_level);
        assert_eq!(c.merge_strategy, MergeStrategy::Deduplicated);
        assert_eq!(c.fragment_memory_budget, Some(1 << 20));
        assert_eq!(EulerConfig::default().fragment_memory_budget, None);
    }
}
