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

use crate::merge_tree::rank_in;
use crate::state::{EdgeRef, LocalEdge, WorkingPartition};
use euler_graph::{PartitionId, VertexId};

/// Drops duplicate remote-edge copies according to the §5 heuristic: for each
/// pair of leaf partitions, the one with more total remote edges (the
/// "heavier" one) drops its copies of the edges between them; the lighter one
/// retains them. `leaf_of` names the leaf partition a ref's remote endpoint
/// belongs to. Returns the number of remote-edge records removed.
pub fn apply_remote_edge_dedup(states: &mut [WorkingPartition], leaf_of: impl Fn(VertexId) -> PartitionId) -> u64 {
    // Total remote edges per leaf partition (the "weight" used to pick
    // sides), looked up by the leaf's rank among the ids.
    let mut by_id: Vec<(PartitionId, u64)> = states.iter().map(|s| (s.id, s.num_remote_edges() as u64)).collect();
    by_id.sort_unstable();
    let (ids, weights): (Vec<PartitionId>, Vec<u64>) = by_id.into_iter().unzip();
    let weight = |id: PartitionId| rank_in(&ids, id).map_or(0, |rank| weights[rank]);
    let mut dropped = 0u64;
    for state in states.iter_mut() {
        let my_id = state.id;
        let my_weight = weight(my_id);
        for bucket in &mut state.remote_by_level {
            let before = bucket.len();
            bucket.retain(|r| {
                let other = leaf_of(r.remote);
                // Keep the copy if this partition is the lighter of the pair
                // (ties broken toward the smaller partition id).
                (my_weight, my_id) < (weight(other), other)
            });
            dropped += (before - bucket.len()) as u64;
        }
    }
    dropped
}

/// Merges `children` — every state retiring into `parent` after the
/// level-`level` matching, in pair order — into `parent`, returning the
/// merged partition (whose id is the parent's).
///
/// Bucket `level` of every side holds the remote edges between the merging
/// partitions: they become local edges, once each. With the duplicated
/// representation both copies of such an edge are in these buckets, and one
/// filter over all of them keeps the first (the parent's refs before the
/// children's, children in order) — one filter, so an edge between two
/// children merging into one slot at one level converts once too. Every
/// other bucket of a child is appended to the parent's, so a surviving ref
/// is moved at most once and the tree is not consulted.
pub fn merge_partitions(
    mut parent: WorkingPartition,
    mut children: Vec<WorkingPartition>,
    level: u32,
) -> WorkingPartition {
    let at = level as usize;
    // The converting buckets: the parent's, then each child's.
    let mut converting = Vec::with_capacity(1 + children.len());
    converting.extend(parent.remote_by_level.get_mut(at).map(std::mem::take));
    for child in &mut children {
        converting.extend(child.remote_by_level.get_mut(at).map(std::mem::take));
    }
    // How many refs convert, and the span of their edge ids.
    let (n, lo, hi) = converting
        .iter()
        .flatten()
        .fold((0, u64::MAX, 0), |(n, lo, hi), r| (n + 1, lo.min(r.edge.0), hi.max(r.edge.0)));
    let mut first_copy = first_occurrences(n, lo, hi);

    let incoming: usize = children.iter().map(|c| c.local_edges.len()).sum();
    parent.local_edges.reserve(incoming + n);
    let mut child_buckets = Vec::with_capacity(children.len());
    for child in children {
        parent.leaves.extend(child.leaves);
        parent.local_edges.extend(child.local_edges);
        parent.isolated_vertices += child.isolated_vertices;
        child_buckets.push(child.remote_by_level);
    }
    parent.leaves.sort_unstable();
    parent.leaves.dedup();
    parent.level = level + 1;
    for r in converting.iter().flatten() {
        if first_copy(r.edge.0) {
            parent.local_edges.push(LocalEdge { edge: EdgeRef::Real(r.edge), u: r.local, v: r.remote });
        }
    }
    for buckets in child_buckets {
        if parent.remote_by_level.len() < buckets.len() {
            parent.remote_by_level.resize_with(buckets.len(), Vec::new);
        }
        for (into, mut from) in parent.remote_by_level.iter_mut().zip(buckets) {
            if into.is_empty() {
                *into = from;
            } else {
                into.append(&mut from);
            }
        }
    }
    parent
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentStore;
    use crate::merge_tree::MergeTree;
    use crate::phase1::run_phase1;
    use crate::state::tests::working;
    use euler_gen::synthetic::paper_fig1;
    use euler_graph::{MetaGraph, PartitionAssignment, PartitionedGraph};

    fn fig1_setup() -> (Vec<WorkingPartition>, MergeTree, PartitionAssignment) {
        let (g, a) = paper_fig1();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let tree = MergeTree::build(&MetaGraph::from_partitioned(&pg));
        (working(&g, &a), tree, a)
    }

    fn converted_edges(merged: &WorkingPartition) -> usize {
        merged.local_edges.iter().filter(|e| matches!(e.edge, EdgeRef::Real(_))).count()
    }

    #[test]
    fn fig1_level0_merge_converts_cut_edges() {
        let (mut states, _tree, _) = fig1_setup();
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        // Merge P2 (index 2) into P3 (index 3) as the tree prescribes at level 0.
        let child = states[2].clone();
        let parent = states[3].clone();
        let merged = merge_partitions(parent, vec![child], 0);
        assert_eq!(merged.id, PartitionId(3));
        assert_eq!(merged.level, 1);
        assert_eq!(merged.leaves, vec![PartitionId(2), PartitionId(3)]);
        // The two cut edges between paper's P3 and P4 (e6,11 and e9,10) become local.
        assert_eq!(converted_edges(&merged), 2);
        // Remaining remote edges of the merged partition: e3,13 and e12,14,
        // both in the bucket of the level-1 merge.
        assert_eq!(merged.num_remote_edges(), 2);
        assert_eq!(merged.remote_by_level[1].len(), 2);
        // Local edges: P3's OB-pair + P4's OB-pairs + 2 converted edges.
        assert!(merged.local_edges.len() >= 3);
        assert!(merged.local_edges.iter().any(|e| matches!(e.edge, EdgeRef::Virtual(_))));
    }

    #[test]
    fn duplicated_remote_edges_convert_once() {
        let (mut states, _tree, _) = fig1_setup();
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        let merged = merge_partitions(states[1].clone(), vec![states[0].clone()], 0);
        // Only one cut edge (e2,3) between paper's P1 and P2.
        assert_eq!(converted_edges(&merged), 1);
    }

    #[test]
    fn dedup_halves_remote_edge_records() {
        let (mut states, _tree, a) = fig1_setup();
        let total_before: usize = states.iter().map(|s| s.num_remote_edges()).sum();
        let dropped = apply_remote_edge_dedup(&mut states, |v| a.partition_of(v));
        let total_after: usize = states.iter().map(|s| s.num_remote_edges()).sum();
        assert_eq!(total_before, 10); // 5 cut edges, duplicated
        assert_eq!(dropped, 5);
        assert_eq!(total_after, 5);
        // Every cut edge is retained by exactly one partition.
        let mut seen = std::collections::HashSet::new();
        for s in &states {
            for r in s.remote_refs() {
                assert!(seen.insert(r.edge), "edge {:?} retained twice", r.edge);
            }
        }
    }

    #[test]
    fn dedup_then_merge_still_converts_all_cut_edges() {
        let (mut states, _tree, a) = fig1_setup();
        apply_remote_edge_dedup(&mut states, |v| a.partition_of(v));
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        let m23 = merge_partitions(states[3].clone(), vec![states[2].clone()], 0);
        let m01 = merge_partitions(states[1].clone(), vec![states[0].clone()], 0);
        assert_eq!(converted_edges(&m23), 2);
        assert_eq!(converted_edges(&m01), 1);
    }

    #[test]
    fn needed_level_matches_merge_tree() {
        let (states, _tree, a) = fig1_setup();
        let leaf = |v| a.partition_of(v);
        // Between P2 and P3 (paper P3/P4) the level-0 merge; between P0 and
        // P3 the level-1 merge.
        for r in &states[2].remote_by_level[0] {
            assert_eq!(leaf(r.remote), PartitionId(3));
        }
        assert!(states[0].remote_by_level[1].iter().any(|r| leaf(r.remote) == PartitionId(3)));
        assert!(states[0].remote_by_level[0].iter().all(|r| leaf(r.remote) == PartitionId(1)));
    }

    #[test]
    fn merge_carries_boundary_vertices_forward() {
        let (mut states, _tree, _) = fig1_setup();
        let store = FragmentStore::new();
        for s in &mut states {
            run_phase1(s, &store);
        }
        let merged = merge_partitions(states[3].clone(), vec![states[2].clone()], 0);
        // v13 (index 12) still has a remote edge to P1's side (e3,13).
        assert!(merged.remote_refs().any(|r| r.local == VertexId(12)));
    }
}
