//! One partition's share of one merge level — the body of the paper's BSP
//! loop, run by every executor.
//!
//! Superstep `L` (§3; Figs. 5–6 split exactly this body) merges the child
//! states shipped at `L-1` into the partition, runs Phase 1 on the result,
//! and ships the partition to its merge parent if the tree retires it at
//! `L`. [`step_slot`] is that body and [`group_inbound`] puts a level's
//! inbound states in the order its merges must run in. Neither knows where
//! states come from or go to; their one caller is the slot set of
//! [`crate::distributed`], which every backend steps a level through — a
//! state whose parent is in the same set is handed over by value, one bound
//! for another worker (in place or over the wire) is encoded and decoded.
//!
//! Contract of the step: children merge in the order given — the previous
//! level's pair order, which is what [`group_inbound`] returns; fragments go
//! into the store the caller passes, named `(level, slot, push sequence)` by
//! that store (see [`crate::FragmentId`]), so the same step produces the same
//! bytes wherever it runs; keep-or-ship is read off `tree.pairs_at(level)`,
//! which is empty at the root level.

use crate::error::EulerError;
use crate::fragment::FragmentStore;
use crate::memory_model::state_longs;
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::MergeTree;
use crate::phase1::ArenaPool;
use crate::phase2::merge_partitions;
use crate::pipeline::LevelPartitionReport;
use crate::state::WorkingPartition;
use euler_graph::PartitionId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A partition's remote refs at `level`, read off its buckets: how many
/// become local exactly at this level's merge, and how many the merges up to
/// and including it need — all the Deferred strategy keeps resident or ships.
fn remote_needed(wp: &WorkingPartition, level: u32) -> (u64, u64) {
    let by_now = wp.remote_by_level.iter().take(level as usize + 1).map(Vec::len);
    let now = wp.remote_by_level.get(level as usize).map_or(0, Vec::len);
    (now as u64, by_now.sum::<usize>() as u64)
}

/// Longs shipped when this partition's state is sent to its merge parent.
fn transfer_longs(wp: &WorkingPartition, level: u32, strategy: MergeStrategy) -> u64 {
    let remote = if strategy.defers_transfer() { remote_needed(wp, level).1 } else { wp.num_remote_edges() as u64 };
    state_longs(0, wp.local_edges.len() as u64, remote) + 4
}

/// One partition's Phase 1 at `level`: the pre-run accounting, the timed
/// kernel run (which persists the partition's fragments into `store`), and
/// the resulting record. `merge_time` and `transfer_in_longs` describe the
/// merges that built `wp`; they are left zero for the caller to fill in.
/// Also returns the state's [`WorkingPartition::memory_longs`] after the
/// run. Both memories come from the kernel's one classification of the
/// partition ([`crate::phase1::Phase1Output`]).
fn phase1_record(
    wp: &mut WorkingPartition,
    level: u32,
    strategy: MergeStrategy,
    pool: &ArenaPool,
    store: &FragmentStore,
) -> (LevelPartitionReport, u64) {
    // A partition no merge touched since the previous level is carried over
    // as it was; its fragments are this level's all the same.
    wp.level = level;
    // Phase 1 leaves the remote refs alone: counted here, outside its time.
    let (remote_needed_now, needed_by_now) = remote_needed(wp, level);
    let t0 = Instant::now();
    let out = pool.run_phase1(wp, store);
    let phase1_time = t0.elapsed();
    let counts = out.counts_before;
    let resident_remote = if strategy.defers_transfer() { needed_by_now } else { counts.remote_edges };
    let memory_after = state_longs(out.vertices_after, wp.local_edges.len() as u64, wp.num_remote_edges() as u64);
    let report = LevelPartitionReport {
        level,
        partition: wp.id,
        counts,
        complexity: out.complexity,
        phase1_time,
        merge_time: Duration::ZERO,
        memory_longs: state_longs(counts.total_vertices(), counts.local_edges, resident_remote),
        remote_needed_now,
        transfer_in_longs: 0,
        paths_found: out.path_map.num_paths() as u64,
        cycles_found: out.path_map.num_cycles() as u64,
        internal_cycles_merged: out.path_map.internal_cycles_merged,
        splice_pivot_lookups: out.splice.pivot_lookups,
        splice_linked_splices: out.splice.linked_splices,
        splice_materialization_longs: out.splice.materialization_longs,
    };
    (report, memory_after)
}

/// Groups the states arriving at `level` by the slot they merge into, each
/// group in the order the merges run: by position in the previous level's
/// pair list. `child_of` names the partition an item is the state of and
/// `holds` says whether the caller holds a slot.
///
/// # Errors
/// [`EulerError::Distributed`] for a state the previous level did not ship
/// here — its partition is no child in that level's pair list, or its parent
/// is no slot of the caller's — and for a second state of one child. States
/// come off the wire on some paths — a hostile one is refused here, before
/// any merge.
pub(crate) fn group_inbound<T>(
    tree: &MergeTree,
    level: u32,
    inbound: Vec<T>,
    child_of: impl Fn(&T) -> PartitionId,
    holds: impl Fn(PartitionId) -> bool,
) -> Result<BTreeMap<PartitionId, Vec<T>>, EulerError> {
    let pairs = if level > 0 { tree.pairs_at(level - 1) } else { &[] };
    let mut placed = Vec::with_capacity(inbound.len());
    for item in inbound {
        let child = child_of(&item);
        let merge = pairs.iter().enumerate().find(|(_, p)| p.child == child && holds(p.parent));
        let Some((at, pair)) = merge else {
            return Err(EulerError::Distributed(format!(
                "state of partition {} arrived at level {level}, but the level before ships no \
                 such child to a slot held here",
                child.0
            )));
        };
        placed.push((at, pair.parent, item));
    }
    placed.sort_by_key(|(at, ..)| *at);
    let mut children: BTreeMap<PartitionId, Vec<T>> = BTreeMap::new();
    let mut previous = None;
    for (at, parent, item) in placed {
        // Two states of one child found the same pair and sorted together.
        if previous.replace(at) == Some(at) {
            return Err(EulerError::Distributed(format!(
                "state of partition {} arrived twice at level {level}",
                child_of(&item).0
            )));
        }
        children.entry(parent).or_default().push(item);
    }
    Ok(children)
}

/// What [`step_slot`] leaves behind.
pub(crate) struct SlotStep {
    /// The level's record, merge time and inbound Longs filled in.
    pub report: LevelPartitionReport,
    /// `memory_longs` of the state after Phase 1.
    pub memory_after: u64,
    /// The partition state leaving the level.
    pub state: WorkingPartition,
    /// The merge parent this level retires the partition into and the Longs
    /// shipping it there moves; `None` keeps the state in its slot.
    pub ship: Option<(PartitionId, u64)>,
}

/// Runs `level` for one partition: merges `children` (the states shipped to
/// it at `level - 1`, in pair order) into `wp` in one merge, runs Phase 1
/// into `store`, and decides from `tree.pairs_at(level)` whether the state
/// stays or ships.
pub(crate) fn step_slot(
    mut wp: WorkingPartition,
    children: Vec<WorkingPartition>,
    tree: &MergeTree,
    level: u32,
    strategy: MergeStrategy,
    pool: &ArenaPool,
    store: &FragmentStore,
) -> SlotStep {
    let shipped_at = level.saturating_sub(1);
    let mut merge_time = Duration::ZERO;
    let transfer_in = children.iter().map(|c| transfer_longs(c, shipped_at, strategy)).sum();
    if !children.is_empty() {
        let t0 = Instant::now();
        wp = merge_partitions(wp, children, shipped_at);
        merge_time = t0.elapsed();
    }
    let (mut report, memory_after) = phase1_record(&mut wp, level, strategy, pool, store);
    (report.merge_time, report.transfer_in_longs) = (merge_time, transfer_in);
    let ship = tree
        .pairs_at(level)
        .iter()
        .find(|p| p.child == wp.id)
        .map(|p| (p.parent, transfer_longs(&wp, level, strategy)));
    SlotStep { report, memory_after, state: wp, ship }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::level0::tests::states_for;
    use crate::merge_tree::MergePair;
    use euler_graph::builder::graph_from_edges;
    use euler_graph::PartitionAssignment;

    /// Two triangles hanging off a doubled edge: vertices 0, 1 are
    /// partition 0, vertices 2, 3 partition 1, vertices 4, 5 partition 2.
    /// Partitions 0 and 1 touch partition 2 only. The refs are bucketed for
    /// `tree`.
    pub(crate) fn leaves(tree: &MergeTree) -> Vec<WorkingPartition> {
        let g = graph_from_edges(&[(0, 1), (1, 4), (4, 0), (2, 3), (3, 5), (5, 2), (4, 5), (4, 5)]);
        let a = PartitionAssignment::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        states_for(g.edge_arrays(), &a, false, tree.leaf_levels(3))
    }

    pub(crate) fn tree(levels: Vec<Vec<(u32, u32)>>) -> MergeTree {
        let levels = levels
            .into_iter()
            .map(|pairs| {
                pairs
                    .into_iter()
                    .map(|(parent, child)| MergePair {
                        parent: PartitionId(parent),
                        child: PartitionId(child),
                        weight: 1,
                    })
                    .collect()
            })
            .collect();
        MergeTree::from_parts(levels, PartitionId(2), (0..3).map(PartitionId).collect())
    }

    pub(crate) fn step(
        wp: WorkingPartition,
        children: Vec<WorkingPartition>,
        tree: &MergeTree,
        level: u32,
        store: &FragmentStore,
    ) -> SlotStep {
        step_slot(wp, children, tree, level, MergeStrategy::Duplicated, &ArenaPool::new(), store)
    }

    fn group(
        tree: &MergeTree,
        level: u32,
        inbound: Vec<WorkingPartition>,
    ) -> Result<BTreeMap<PartitionId, Vec<WorkingPartition>>, EulerError> {
        group_inbound(tree, level, inbound, |wp| wp.id, |p| p.0 < 3)
    }

    #[test]
    fn children_arriving_in_reverse_pair_order_merge_in_pair_order() {
        // Both children retire into partition 2 at level 0, 0 before 1.
        let star = tree(vec![vec![(2, 0), (2, 1)]]);
        let run = |arrival: [usize; 2]| {
            let store = FragmentStore::new();
            let mut stepped: Vec<SlotStep> =
                leaves(&star).into_iter().map(|wp| step(wp, Vec::new(), &star, 0, &store)).collect();
            let parent = stepped.pop().unwrap();
            assert_eq!(parent.ship, None, "the parent keeps its slot");
            let mut shipped: Vec<Option<WorkingPartition>> = stepped
                .into_iter()
                .map(|s| {
                    assert_eq!(s.ship.map(|(to, _)| to), Some(PartitionId(2)));
                    Some(s.state)
                })
                .collect();
            let inbound = arrival.iter().map(|&i| shipped[i].take().unwrap()).collect();
            (store, parent.state, inbound)
        };

        let (store, parent, inbound) = run([1, 0]);
        let mut children = group(&star, 1, inbound).unwrap();
        assert_eq!(children.keys().copied().collect::<Vec<_>>(), vec![PartitionId(2)]);
        let children = children.remove(&PartitionId(2)).unwrap();
        assert_eq!(children.iter().map(|c| c.id.0).collect::<Vec<_>>(), vec![0, 1]);
        let shipped_in: u64 = children.iter().map(|c| transfer_longs(c, 0, MergeStrategy::Duplicated)).sum();
        let root = step(parent, children, &star, 1, &store);
        assert_eq!(root.report.transfer_in_longs, shipped_in);
        assert_eq!(root.state.leaves, (0..3).map(PartitionId).collect::<Vec<_>>());
        assert_eq!(root.ship, None, "the root level ships nothing");
        assert_eq!(root.report.counts.remote_edges, 0);

        // The same bytes as merging by hand in pair order.
        let (by_hand, parent, inbound) = run([0, 1]);
        let mut merged = merge_partitions(parent, inbound, 0);
        merged.level = 1;
        crate::phase1::run_phase1(&mut merged, &by_hand);
        assert_eq!(store.snapshot(), by_hand.snapshot());
        assert_eq!(root.state, merged);
    }

    #[test]
    fn a_carried_over_slot_steps_without_children() {
        // 0 retires into 1 at level 0, 1 into 2 at level 1: partition 2 is
        // in no pair of level 0 and nobody's parent entering level 1.
        let chain = tree(vec![vec![(1, 0)], vec![(2, 1)]]);
        let store = FragmentStore::new();
        let wp = leaves(&chain).pop().unwrap();
        let at_0 = step(wp, Vec::new(), &chain, 0, &store);
        assert_eq!((at_0.ship, at_0.state.level), (None, 0));
        let before = at_0.state.clone();
        let at_1 = step(at_0.state, Vec::new(), &chain, 1, &store);
        assert_eq!(at_1.ship, None, "a parent keeps its slot");
        assert_eq!((at_1.report.level, at_1.state.level), (1, 1));
        assert_eq!((at_1.report.merge_time, at_1.report.transfer_in_longs), (Duration::ZERO, 0));
        // Nothing merged in: what Phase 1 sees is what level 0 left.
        assert_eq!(at_1.report.counts, before.vertex_type_counts());
        assert_eq!(at_1.report.partition, PartitionId(2));
    }

    #[test]
    fn states_the_previous_level_did_not_ship_are_refused() {
        let chain = tree(vec![vec![(1, 0)], vec![(2, 1)]]);
        let state = |id: usize| leaves(&chain).swap_remove(id);
        let refused = |level, id, what: &str| match group(&chain, level, vec![state(id)]) {
            Err(EulerError::Distributed(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected a typed refusal, got {:?}", other.map(|m| m.len())),
        };
        // Nothing ships into level 0; level 0 ships partition 0 only; the
        // root is nobody's child.
        refused(0, 0, "ships no such child");
        refused(1, 1, "ships no such child");
        refused(2, 2, "ships no such child");
        assert_eq!(group(&chain, 1, vec![state(0)]).unwrap().len(), 1);
        // A state for a slot held elsewhere.
        let elsewhere = group_inbound(&chain, 2, vec![state(1)], |wp| wp.id, |p| p.0 != 2);
        assert!(matches!(elsewhere, Err(EulerError::Distributed(m)) if m.contains("held here")));
        // No inbound, no groups — at any level.
        assert!(group(&chain, 0, Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn a_child_that_arrives_twice_is_refused() {
        // Both copies match the one pair that ships partition 0; merging both
        // would double its edges into the parent.
        let star = tree(vec![vec![(2, 0), (2, 1)]]);
        let state = |id: usize| leaves(&star).swap_remove(id);
        match group(&star, 1, vec![state(0), state(1), state(0)]) {
            Err(EulerError::Distributed(m)) => {
                assert!(m.contains("partition 0 arrived twice at level 1"), "{m}")
            }
            other => panic!("expected a typed refusal, got {:?}", other.map(|m| m.len())),
        }
        assert_eq!(group(&star, 1, vec![state(1), state(0)]).unwrap()[&PartitionId(2)].len(), 2);
    }

    /// A triangle, one vertex per partition, on the star tree: both
    /// children retire into 2 at level 0, and the edge between them is in
    /// the converting bucket of each. One merge, one filter: every edge
    /// becomes local once, under either representation, and the walk's
    /// circuit is an Euler circuit of the triangle.
    #[test]
    fn children_merging_into_one_slot_at_one_level_convert_each_edge_once() {
        use crate::phase2::apply_remote_edge_dedup;
        use crate::state::EdgeRef;
        let star = tree(vec![vec![(2, 0), (2, 1)]]);
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let a = PartitionAssignment::from_labels(vec![0, 1, 2], 3).unwrap();
        for strategy in [MergeStrategy::Duplicated, MergeStrategy::Deduplicated] {
            let mut states = states_for(g.edge_arrays(), &a, false, star.leaf_levels(3));
            if strategy.deduplicates() {
                apply_remote_edge_dedup(&mut states, |v| a.partition_of(v));
            }
            let (store, pool) = (FragmentStore::new(), ArenaPool::new());
            let mut children: Vec<WorkingPartition> = states
                .into_iter()
                .map(|wp| step_slot(wp, Vec::new(), &star, 0, strategy, &pool, &store).state)
                .collect();
            let parent = children.pop().unwrap();
            let merged = merge_partitions(parent.clone(), children.clone(), 0);
            let mut real: Vec<u64> = merged
                .local_edges
                .iter()
                .filter_map(|e| match e.edge {
                    EdgeRef::Real(id) => Some(id.0),
                    EdgeRef::Virtual(_) => None,
                })
                .collect();
            real.sort_unstable();
            assert_eq!(real, [0, 1, 2], "{strategy}: each cut edge converted once");
            assert_eq!(merged.num_remote_edges(), 0, "{strategy}");

            let root = step_slot(parent, children, &star, 1, strategy, &pool, &store);
            assert_eq!(root.ship, None);
            let result = crate::phase3::unroll(&store).unwrap();
            let circuits = result.circuits.iter().map(Vec::as_slice);
            crate::verify::verify_steps(g.edge_arrays().endpoints, circuits)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
    }
}
