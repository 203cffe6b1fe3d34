//! Phase 2 execution: merging pairs of partitions (§3.3.2).
//!
//! While the merge *tree* is planned statically ([`crate::merge_tree`]), the
//! actual merging of two partitions happens after Phase 1 has run on both at
//! a level: the child's path map and remaining state are transferred to the
//! parent's machine, the remote edges between the two become local edges of
//! the merged partition, and the surviving remote edges point onward to
//! partitions that merge at higher levels.
//!
//! This module also implements the load-time preprocessing of the §5
//! "avoid remote edge duplication" heuristic: given the merge tree, only the
//! lighter of the two eventual merge partners keeps each remote edge (the
//! heavier drops its copy), halving the remote-edge memory footprint.

use crate::merge_tree::{rank_in, MergeTree};
use crate::state::{EdgeRef, LocalEdge, RemoteRef, WorkingPartition};
use euler_graph::PartitionId;
use serde::{Deserialize, Serialize};

/// Statistics of one pair merge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeStats {
    /// Longs shipped from the child to the parent machine.
    pub transferred_longs: u64,
    /// Remote edges that became local edges of the merged partition.
    pub converted_edges: u64,
    /// Remote edges still pointing at other partitions after the merge.
    pub surviving_remote_edges: u64,
}

/// Drops duplicate remote-edge copies according to the §5 heuristic: for each
/// pair of leaf partitions, the one with more total remote edges (the
/// "heavier" one) drops its copies of the edges between them; the lighter one
/// retains them. Returns the number of remote-edge records removed.
pub fn apply_remote_edge_dedup(states: &mut [WorkingPartition]) -> u64 {
    // Total remote edges per leaf partition (the "weight" used to pick
    // sides), looked up by the leaf's rank among the ids.
    let mut by_id: Vec<(PartitionId, u64)> =
        states.iter().map(|s| (s.id, s.remote_edges.len() as u64)).collect();
    by_id.sort_unstable();
    let (ids, weights): (Vec<PartitionId>, Vec<u64>) = by_id.into_iter().unzip();
    let weight = |id: PartitionId| rank_in(&ids, id).map_or(0, |rank| weights[rank]);
    let mut dropped = 0u64;
    for state in states.iter_mut() {
        let my_id = state.id;
        let my_weight = weight(my_id);
        let before = state.remote_edges.len();
        state.remote_edges.retain(|r| {
            let other_weight = weight(r.remote_leaf);
            // Keep the copy if this partition is the lighter of the pair
            // (ties broken toward the smaller partition id).
            my_weight < other_weight || (my_weight == other_weight && my_id < r.remote_leaf)
        });
        dropped += (before - state.remote_edges.len()) as u64;
    }
    dropped
}

/// Merges `child` into `parent` after the level-`level` matching, returning
/// the merged partition (whose id is the parent's) and merge statistics.
///
/// Remote edges whose other endpoint now belongs to the same merged partition
/// are converted into local edges; with the duplicated representation each
/// such edge appears once per side, so conversion is de-duplicated by edge id
/// (the first copy wins, the parent's refs before the child's).
///
/// The parent's vectors are kept and grown once to their final size, and
/// every ref is looked at twice: counted, then moved.
pub fn merge_partitions(
    mut parent: WorkingPartition,
    child: WorkingPartition,
    tree: &MergeTree,
    level: u32,
) -> (WorkingPartition, MergeStats) {
    let transferred_longs = child.transfer_longs();
    let merged_id = parent.id;
    let converts = |r: &RemoteRef| tree.representative_after(r.remote_leaf, level) == merged_id;
    // How many refs convert, and the span of their edge ids.
    let span = |refs: &[RemoteRef]| {
        refs.iter().filter(|r| converts(r)).fold((0, u64::MAX, 0), |(n, lo, hi), r| {
            (n + 1, lo.min(r.edge.0), hi.max(r.edge.0))
        })
    };
    let ((in_parent, lo, hi), (in_child, child_lo, child_hi)) =
        (span(&parent.remote_edges), span(&child.remote_edges));
    let mut first_copy = first_occurrences(in_parent + in_child, lo.min(child_lo), hi.max(child_hi));

    parent.leaves.extend(child.leaves);
    parent.leaves.sort_unstable();
    parent.leaves.dedup();
    parent.level = level + 1;
    parent.isolated_vertices += child.isolated_vertices;

    let WorkingPartition { local_edges: local, remote_edges: remote, .. } = &mut parent;
    local.reserve(child.local_edges.len() + in_parent + in_child);
    local.extend(child.local_edges);
    let unconverted = local.len();
    let mut survives = |r: &RemoteRef| {
        let converted = converts(r);
        if converted && first_copy(r.edge.0) {
            local.push(LocalEdge { edge: EdgeRef::Real(r.edge), u: r.local, v: r.remote });
        }
        !converted
    };
    remote.retain(&mut survives);
    remote.reserve(child.remote_edges.len() - in_child);
    remote.extend(child.remote_edges.into_iter().filter(&mut survives));

    let stats = MergeStats {
        transferred_longs,
        converted_edges: (parent.local_edges.len() - unconverted) as u64,
        surviving_remote_edges: parent.remote_edges.len() as u64,
    };
    (parent, stats)
}

/// A filter over `n` edge ids within `lo..=hi` that passes each id the
/// first time it sees it, without hashing. Edge ids are positions in the
/// input's edge array, so what two merging partitions share is usually
/// dense in its span: one bit per id while that costs at most a word per
/// edge, an ordered set for a few ids spread wide.
fn first_occurrences(n: usize, lo: u64, hi: u64) -> Box<dyn FnMut(u64) -> bool> {
    let words = hi.saturating_sub(lo) / 64 + 1;
    if words > n as u64 + 1 {
        let mut seen = std::collections::BTreeSet::new();
        return Box::new(move |id| seen.insert(id));
    }
    let mut seen = vec![0u64; words as usize];
    Box::new(move |id| {
        let at = id - lo;
        let (word, bit) = (&mut seen[(at / 64) as usize], 1u64 << (at % 64));
        let first = *word & bit == 0;
        *word |= bit;
        first
    })
}

/// The merge level at which a remote edge becomes local, given the merge
/// tree: the level whose matching first puts its two leaf endpoints in the
/// same merged partition. Used by the §5 deferred-transfer accounting.
pub fn remote_edge_needed_level(tree: &MergeTree, r: &RemoteRef) -> u32 {
    tree.merge_level_of(r.local_leaf, r.remote_leaf)
        .unwrap_or_else(|| tree.height().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentStore;
    use crate::phase1::run_phase1;
    use euler_gen::synthetic::paper_fig1;
    use euler_graph::{MetaGraph, PartitionedGraph, VertexId};

    fn fig1_setup() -> (Vec<WorkingPartition>, MergeTree) {
        let (g, a) = paper_fig1();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let meta = MetaGraph::from_partitioned(&pg);
        let tree = MergeTree::build(&meta);
        let states = pg.partitions().iter().map(WorkingPartition::from_partition).collect();
        (states, tree)
    }

    #[test]
    fn fig1_level0_merge_converts_cut_edges() {
        let (mut states, tree) = fig1_setup();
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        // Merge P2 (index 2) into P3 (index 3) as the tree prescribes at level 0.
        let child = states[2].clone();
        let parent = states[3].clone();
        let (merged, stats) = merge_partitions(parent, child, &tree, 0);
        assert_eq!(merged.id, PartitionId(3));
        assert_eq!(merged.level, 1);
        assert_eq!(merged.leaves, vec![PartitionId(2), PartitionId(3)]);
        // The two cut edges between paper's P3 and P4 (e6,11 and e9,10) become local.
        assert_eq!(stats.converted_edges, 2);
        // Remaining remote edges of the merged partition: e3,13 and e12,14.
        assert_eq!(stats.surviving_remote_edges, 2);
        assert!(stats.transferred_longs > 0);
        // Local edges: P3's OB-pair + P4's OB-pairs + 2 converted edges.
        assert!(merged.local_edges.len() >= 3);
        assert!(merged
            .local_edges
            .iter()
            .any(|e| matches!(e.edge, EdgeRef::Virtual(_))));
    }

    #[test]
    fn duplicated_remote_edges_convert_once() {
        let (mut states, tree) = fig1_setup();
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        let (merged, stats) = merge_partitions(states[1].clone(), states[0].clone(), &tree, 0);
        // Only one cut edge (e2,3) between paper's P1 and P2.
        assert_eq!(stats.converted_edges, 1);
        let real_locals = merged
            .local_edges
            .iter()
            .filter(|e| matches!(e.edge, EdgeRef::Real(_)))
            .count();
        assert_eq!(real_locals, 1);
    }

    #[test]
    fn dedup_halves_remote_edge_records() {
        let (mut states, _tree) = fig1_setup();
        let total_before: usize = states.iter().map(|s| s.remote_edges.len()).sum();
        let dropped = apply_remote_edge_dedup(&mut states);
        let total_after: usize = states.iter().map(|s| s.remote_edges.len()).sum();
        assert_eq!(total_before, 10); // 5 cut edges, duplicated
        assert_eq!(dropped, 5);
        assert_eq!(total_after, 5);
        // Every cut edge is retained by exactly one partition.
        let mut seen = std::collections::HashSet::new();
        for s in &states {
            for r in &s.remote_edges {
                assert!(seen.insert(r.edge), "edge {:?} retained twice", r.edge);
            }
        }
    }

    #[test]
    fn dedup_then_merge_still_converts_all_cut_edges() {
        let (mut states, tree) = fig1_setup();
        apply_remote_edge_dedup(&mut states);
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        let (_m23, s23) = merge_partitions(states[3].clone(), states[2].clone(), &tree, 0);
        let (_m01, s01) = merge_partitions(states[1].clone(), states[0].clone(), &tree, 0);
        assert_eq!(s23.converted_edges, 2);
        assert_eq!(s01.converted_edges, 1);
    }

    #[test]
    fn needed_level_matches_merge_tree() {
        let (states, tree) = fig1_setup();
        // Remote edge between P2 and P3 (paper P3/P4) is needed at level 0.
        let p2 = &states[2];
        for r in &p2.remote_edges {
            if r.remote_leaf == PartitionId(3) {
                assert_eq!(remote_edge_needed_level(&tree, r), 0);
            }
        }
        // Remote edge between P0 and P3 is needed at level 1.
        let p0 = &states[0];
        let r = p0.remote_edges.iter().find(|r| r.remote_leaf == PartitionId(3)).unwrap();
        assert_eq!(remote_edge_needed_level(&tree, r), 1);
    }

    #[test]
    fn merge_carries_boundary_vertices_forward() {
        let (mut states, tree) = fig1_setup();
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        let (merged, _) = merge_partitions(states[3].clone(), states[2].clone(), &tree, 0);
        // v13 (index 12) still has a remote edge to P1's side (e3,13).
        let rdeg = merged.remote_degrees();
        assert!(rdeg.contains_key(&VertexId(12)));
    }
}
