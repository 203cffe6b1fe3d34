//! Fault-tolerance policy, fault injection, and recovery accounting.
//!
//! [`FaultPolicy`] is the coordinator's knob set: heartbeat cadence and
//! dead-worker timeout.
//! [`FaultPlan`] is the *injection* side used by the fault-tolerance test
//! harness: kill worker *k* at superstep *s*, drop or delay the *n*-th
//! coordinator send. [`RecoveryStats`] is what actually happened — surfaced
//! through `EngineStats::recovery` and the pipeline's run report.

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

/// How an injected kill takes a worker down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillMode {
    /// The worker exits its loop and drops the connection (thread workers —
    /// a thread cannot be SIGKILLed individually).
    Exit,
    /// The worker stalls at the kill point so the coordinator can SIGKILL
    /// the whole process mid-superstep (process workers).
    Stall,
}

/// A scripted fault, for the fault-injection harness. The default plan
/// injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill worker `.0` when it receives the Start of superstep `.1`, in the
    /// [`KillMode`] its kind of worker takes.
    pub kill: Option<(u32, u32)>,
    /// Drop the n-th (0-based) coordinator→worker frame instead of sending
    /// it; the silent worker is then recovered via the heartbeat timeout.
    pub drop_nth_send: Option<u64>,
    /// Delay the n-th (0-based) coordinator→worker frame by the given
    /// duration before sending it.
    pub delay_nth_send: Option<(u64, Duration)>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan to kill `worker` at `superstep`.
    pub fn kill_at(worker: u32, superstep: u32) -> Self {
        FaultPlan { kill: Some((worker, superstep)), ..Default::default() }
    }

    /// Plan to drop the n-th coordinator send.
    pub fn drop_send(n: u64) -> Self {
        FaultPlan { drop_nth_send: Some(n), ..Default::default() }
    }

    /// Plan to delay the n-th coordinator send by `d`.
    pub fn delay_send(n: u64, d: Duration) -> Self {
        FaultPlan { delay_nth_send: Some((n, d)), ..Default::default() }
    }

    /// Whether this plan injects anything at all.
    pub fn is_none(&self) -> bool {
        self.kill.is_none() && self.drop_nth_send.is_none() && self.delay_nth_send.is_none()
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
    /// Coordinator send attempts retried after a transport error.
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
    fn plan_constructors() {
        assert!(FaultPlan::none().is_none());
        assert_eq!(FaultPlan::kill_at(2, 1).kill, Some((2, 1)));
        assert!(!FaultPlan::kill_at(2, 1).is_none());
        assert_eq!(FaultPlan::drop_send(5).drop_nth_send, Some(5));
        assert_eq!(
            FaultPlan::delay_send(3, Duration::from_millis(7)).delay_nth_send,
            Some((3, Duration::from_millis(7)))
        );
    }

    #[test]
    fn recovery_stats_detects_recovery() {
        assert!(!RecoveryStats::default().any_recovery());
        let s = RecoveryStats { restarts: 1, ..Default::default() };
        assert!(s.any_recovery());
    }
}
