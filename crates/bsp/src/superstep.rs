//! Execution of a single superstep across workers.
//!
//! Each superstep the engine launches one OS thread per worker (mirroring how
//! a Spark stage launches tasks on executors); every worker runs the program
//! on its active partitions sequentially, then all workers join at the barrier
//! (thread join). Messages produced during the superstep are classified as
//! local (same worker) or remote (crossing workers, i.e. the shuffle) and are
//! delivered only after the barrier, giving exact BSP semantics.

use crate::message::Envelope;
use crate::program::{PartitionContext, PartitionProgram};
use crate::stats::SuperstepStats;
use crate::worker::PartitionPlacement;
use std::time::Instant;

/// Result of executing one superstep.
pub(crate) struct SuperstepOutcome {
    /// Statistics of this superstep.
    pub stats: SuperstepStats,
    /// Messages to deliver at the start of the next superstep.
    pub outgoing: Vec<Envelope>,
    /// Updated halt flags per partition.
    pub halted: Vec<bool>,
}

/// Work item for one partition on one worker.
struct Task<S> {
    partition: u32,
    state: S,
    inbox: Vec<Envelope>,
}

/// Result of one partition's execution.
struct TaskResult<S> {
    partition: u32,
    state: S,
    halted: bool,
    breakdown: euler_metrics::TimeBreakdown,
    memory_longs: Option<u64>,
    outgoing: Vec<Envelope>,
    compute: std::time::Duration,
}

/// Executes superstep `superstep` of `program`.
///
/// `states[p]` holds the state of partition `p` (always `Some` on entry and
/// exit), `inboxes[p]` the messages addressed to it, and `halted[p]` whether
/// it voted to halt earlier. A halted partition with an empty inbox is
/// skipped (stays halted).
pub(crate) fn execute_superstep<P: PartitionProgram>(
    program: &P,
    superstep: u32,
    states: &mut [Option<P::State>],
    inboxes: &mut [Vec<Envelope>],
    halted: &[bool],
    placement: &PartitionPlacement,
) -> SuperstepOutcome {
    let num_partitions = states.len();
    debug_assert_eq!(inboxes.len(), num_partitions);
    debug_assert_eq!(halted.len(), num_partitions);

    let wall_start = Instant::now();
    let mut stats = SuperstepStats::new(superstep);
    let mut new_halted: Vec<bool> = halted.to_vec();

    // Build per-worker task lists, taking ownership of the involved states.
    let mut per_worker: Vec<Vec<Task<P::State>>> = (0..placement.num_workers()).map(|_| Vec::new()).collect();
    for p in 0..num_partitions {
        let inbox = std::mem::take(&mut inboxes[p]);
        let active = !halted[p] || !inbox.is_empty();
        if !active {
            continue;
        }
        let state = states[p].take().expect("state present for every partition");
        let worker = placement.worker_of(p as u32);
        per_worker[worker.index()].push(Task { partition: p as u32, state, inbox });
    }
    stats.active_partitions = per_worker.iter().map(|t| t.len()).sum();

    // One thread per worker with at least one task; tasks on a worker run
    // sequentially, workers run in parallel, and the barrier is the join.
    let results: Vec<TaskResult<P::State>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (widx, tasks) in per_worker.into_iter().enumerate() {
            if tasks.is_empty() {
                continue;
            }
            let worker = crate::message::WorkerId(widx as u32);
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(tasks.len());
                for task in tasks {
                    let mut state = task.state;
                    let mut ctx = PartitionContext::new(superstep, task.partition, worker);
                    let t0 = Instant::now();
                    let outgoing = program.superstep(&mut ctx, &mut state, task.inbox);
                    let compute = t0.elapsed();
                    let (halted, breakdown, memory_longs) = ctx.finish();
                    out.push(TaskResult {
                        partition: task.partition,
                        state,
                        halted,
                        breakdown,
                        memory_longs,
                        outgoing,
                        compute,
                    });
                }
                out
            }));
        }
        handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
    });

    // Barrier passed: put states back, aggregate stats, route messages.
    let mut outgoing_all = Vec::new();
    for r in results {
        let p = r.partition as usize;
        states[p] = Some(r.state);
        new_halted[p] = r.halted;
        stats.compute_time += r.compute;
        if let Some(longs) = r.memory_longs {
            stats.memory.record(format!("P{}", r.partition), longs);
        }
        let mut breakdown = r.breakdown;
        let categorised = breakdown.total();
        if r.compute > categorised {
            breakdown.add("uncategorised", r.compute - categorised);
        }
        stats.per_partition_compute.push((r.partition, breakdown));
        for env in r.outgoing {
            if placement.colocated(env.from, env.to) {
                stats.local_messages += 1;
                stats.local_bytes += env.len() as u64;
            } else {
                stats.remote_messages += 1;
                stats.remote_bytes += env.len() as u64;
            }
            outgoing_all.push(env);
        }
    }
    stats.per_partition_compute.sort_by_key(|(p, _)| *p);
    stats.wall_time = wall_start.elapsed();

    SuperstepOutcome { stats, outgoing: outgoing_all, halted: new_halted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;

    /// Program: every partition sends its partition index to partition 0 and
    /// halts.
    struct SendToZero;

    impl PartitionProgram for SendToZero {
        type State = u64;

        fn superstep(
            &self,
            ctx: &mut PartitionContext,
            state: &mut u64,
            messages: Vec<Envelope>,
        ) -> Vec<Envelope> {
            *state += messages.len() as u64;
            ctx.report_memory_longs(*state);
            ctx.vote_to_halt();
            if ctx.superstep == 0 && ctx.partition != 0 {
                vec![Envelope::new(ctx.partition, 0, 1, vec![0u8; 8])]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn superstep_routes_and_accounts_messages() {
        let program = SendToZero;
        let placement = PartitionPlacement::round_robin(4, 2);
        let mut states: Vec<Option<u64>> = vec![Some(0); 4];
        let mut inboxes: Vec<Vec<Envelope>> = vec![vec![]; 4];
        let halted = vec![false; 4];

        let outcome = execute_superstep(&program, 0, &mut states, &mut inboxes, &halted, &placement);
        assert_eq!(outcome.stats.active_partitions, 4);
        assert_eq!(outcome.outgoing.len(), 3);
        // Partition 2 is colocated with 0 (worker 0); partitions 1 and 3 are not.
        assert_eq!(outcome.stats.local_messages, 1);
        assert_eq!(outcome.stats.remote_messages, 2);
        assert_eq!(outcome.stats.remote_bytes, 16);
        assert!(outcome.halted.iter().all(|&h| h));
        assert!(states.iter().all(|s| s.is_some()));
        assert_eq!(outcome.stats.memory.cumulative(), 0); // all states are 0
        assert_eq!(outcome.stats.per_partition_compute.len(), 4);
    }

    #[test]
    fn halted_partitions_without_messages_are_skipped() {
        let program = SendToZero;
        let placement = PartitionPlacement::round_robin(2, 2);
        let mut states: Vec<Option<u64>> = vec![Some(0), Some(0)];
        let mut inboxes: Vec<Vec<Envelope>> = vec![vec![], vec![]];
        let halted = vec![true, true];
        let outcome = execute_superstep(&program, 1, &mut states, &mut inboxes, &halted, &placement);
        assert_eq!(outcome.stats.active_partitions, 0);
        assert!(outcome.outgoing.is_empty());
    }

    #[test]
    fn incoming_message_reactivates_halted_partition() {
        let program = SendToZero;
        let placement = PartitionPlacement::round_robin(2, 1);
        let mut states: Vec<Option<u64>> = vec![Some(0), Some(0)];
        let mut inboxes: Vec<Vec<Envelope>> = vec![vec![Envelope::new(1, 0, 1, vec![1u8; 8])], vec![]];
        let halted = vec![true, true];
        let outcome = execute_superstep(&program, 1, &mut states, &mut inboxes, &halted, &placement);
        assert_eq!(outcome.stats.active_partitions, 1);
        assert_eq!(states[0], Some(1)); // consumed one message
    }
}
