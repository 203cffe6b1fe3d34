//! Fault-tolerance policy, fault injection, and recovery accounting.
//!
//! [`FaultPolicy`] is the coordinator's knob set: heartbeat cadence and
//! dead-worker timeout.
//! [`FaultPlan`] is the *injection* side used by the fault-tolerance tests
//! and benches: kill worker *k* at superstep *s*. Frame-level faults — a
//! dropped or delayed message — belong to a test transport, not to the
//! protocol. [`RecoveryStats`] is what actually happened — surfaced through
//! `EngineStats::recovery` and the pipeline's run report.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Coordinator-side fault-tolerance configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How often a busy worker emits heartbeats.
    pub heartbeat_interval: Duration,
    /// Silence (no frame, no heartbeat) after which a worker awaited at a
    /// barrier is declared dead.
    pub heartbeat_timeout: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_secs(5),
        }
    }
}

impl FaultPolicy {
    /// Sets the heartbeat cadence.
    pub fn with_heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the dead-worker silence threshold.
    pub fn with_heartbeat_timeout(mut self, d: Duration) -> Self {
        self.heartbeat_timeout = d;
        self
    }
}

/// A scripted fault, for the fault-injection harness. The default plan
/// injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill worker `.0` at superstep `.1`: just before the coordinator would
    /// send it that superstep's Start, it closes the worker's connection
    /// (and SIGKILLs and reaps a worker process), once per run.
    pub kill: Option<(u32, u32)>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan to kill `worker` at `superstep`.
    pub fn kill_at(worker: u32, superstep: u32) -> Self {
        FaultPlan { kill: Some((worker, superstep)) }
    }
}

/// Recovery counters of one run — what fault tolerance actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Workers respawned after a detected death.
    pub restarts: u64,
    /// Recoveries that had no usable checkpoint and replayed the whole run
    /// from the level-0 seed instead.
    pub full_restarts: u64,
    /// Heartbeat timeouts that declared a worker dead.
    pub heartbeat_misses: u64,
    /// Always 0: a coordinator send that fails is the worker's death and is
    /// never retried (a timed-out TCP send may have written part of its
    /// frame). Kept for the reports that read it.
    pub send_retries: u64,
    /// Checkpoint files written by workers.
    pub checkpoints_written: u64,
    /// Stale/partial checkpoint files detected and ignored at restore time.
    pub checkpoints_ignored: u64,
    /// Longs of checkpoint state written across the run.
    pub checkpoint_longs_written: u64,
    /// Longs of checkpoint state read back during restores.
    pub checkpoint_longs_restored: u64,
}

impl RecoveryStats {
    /// Whether any recovery machinery fired during the run.
    pub fn any_recovery(&self) -> bool {
        self.restarts > 0 || self.full_restarts > 0 || self.heartbeat_misses > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_sane() {
        let p = FaultPolicy::default();
        assert!(p.heartbeat_timeout > p.heartbeat_interval);
    }

    #[test]
    fn recovery_stats_detects_recovery() {
        assert!(!RecoveryStats::default().any_recovery());
        let s = RecoveryStats { restarts: 1, ..Default::default() };
        assert!(s.any_recovery());
    }
}
