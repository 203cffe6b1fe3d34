//! Remote-edge handling strategies across merge levels (§5 of the paper).
//!
//! The paper identifies remote edges as the dominant memory consumer as
//! partitions merge up the tree (Fig. 9) and proposes two heuristics, which it
//! evaluates analytically (Fig. 8):
//!
//! * **Avoid remote edge duplication** — normally each remote edge is held by
//!   both incident partitions (the directed-pair view). Since the merge tree
//!   is known up front, only one of the two eventual merge partners needs to
//!   keep it; the heavier partition (more cumulative remote edges) drops its
//!   copy.
//! * **Defer transfer of remote edges** — a child partition does not forward
//!   remote edges destined for higher merge levels when it merges; they stay
//!   parked on the (now idle) leaf machine and are shipped to the ancestor
//!   just before the level where they become local.
//!
//! [`MergeStrategy`] selects between the paper's baseline and these
//! improvements; the runner and the analytical [`crate::memory_model`] both
//! honour it.

use euler_bsp::wire::WireError;
use serde::{Deserialize, Serialize};

/// How remote edges are stored and transferred across merge levels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MergeStrategy {
    /// The paper's baseline: every remote edge is held by both incident
    /// partitions and the full state is forwarded at every merge.
    #[default]
    Duplicated,
    /// §5 "Avoid Remote Edge Duplication": only one of the two eventual merge
    /// partners holds each remote edge.
    Deduplicated,
    /// §5 both heuristics: deduplication plus deferred transfer of remote
    /// edges to the ancestor level where they are first needed.
    Deferred,
}

impl MergeStrategy {
    /// True if remote edges are stored once instead of twice.
    pub fn deduplicates(self) -> bool {
        matches!(self, MergeStrategy::Deduplicated | MergeStrategy::Deferred)
    }

    /// True if remote edges for higher levels stay parked on leaf machines.
    pub fn defers_transfer(self) -> bool {
        matches!(self, MergeStrategy::Deferred)
    }

    /// All strategies, for sweeps and ablation benches.
    pub fn all() -> [MergeStrategy; 3] {
        [MergeStrategy::Duplicated, MergeStrategy::Deduplicated, MergeStrategy::Deferred]
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MergeStrategy::Duplicated => "current",
            MergeStrategy::Deduplicated => "dedup",
            MergeStrategy::Deferred => "proposed",
        }
    }

    /// The strategy's word in a worker Init and a service RUN request.
    pub(crate) fn wire_code(self) -> u64 {
        match self {
            MergeStrategy::Duplicated => 0,
            MergeStrategy::Deduplicated => 1,
            MergeStrategy::Deferred => 2,
        }
    }

    /// The strategy a [`wire_code`](Self::wire_code) names.
    ///
    /// # Errors
    /// [`WireError::Invalid`] for a code no strategy has.
    pub(crate) fn from_wire_code(code: u64) -> Result<Self, WireError> {
        match code {
            0 => Ok(MergeStrategy::Duplicated),
            1 => Ok(MergeStrategy::Deduplicated),
            2 => Ok(MergeStrategy::Deferred),
            other => Err(WireError::Invalid(format!("unknown merge strategy code {other}"))),
        }
    }
}

impl std::fmt::Display for MergeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_flags() {
        assert!(!MergeStrategy::Duplicated.deduplicates());
        assert!(!MergeStrategy::Duplicated.defers_transfer());
        assert!(MergeStrategy::Deduplicated.deduplicates());
        assert!(!MergeStrategy::Deduplicated.defers_transfer());
        assert!(MergeStrategy::Deferred.deduplicates());
        assert!(MergeStrategy::Deferred.defers_transfer());
    }

    #[test]
    fn names_and_all() {
        assert_eq!(MergeStrategy::all().len(), 3);
        assert_eq!(MergeStrategy::Duplicated.name(), "current");
        assert_eq!(format!("{}", MergeStrategy::Deferred), "proposed");
    }

    #[test]
    fn wire_codes_round_trip_and_an_unknown_code_is_typed() {
        for s in MergeStrategy::all() {
            assert_eq!(MergeStrategy::from_wire_code(s.wire_code()).unwrap(), s);
        }
        let unknown = MergeStrategy::from_wire_code(3);
        assert!(matches!(unknown, Err(WireError::Invalid(m)) if m.contains("code 3")));
    }
}
