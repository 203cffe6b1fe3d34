//! Which BSP worker holds which partition: one table per run, dealt from the
//! merge tree so that merges stay on the worker that holds the parent.
//!
//! The paper's executors keep their partitions and a merge moves the child's
//! state to the parent's machine — that movement is the shuffle (§3.5). A
//! deal that ignores the tree makes nearly every merge a shuffle; this one
//! keeps whole merge subtrees together where the balance allows it.
//!
//! **The rule.** Cutting the tree at level `c` leaves *groups*: the
//! partitions that have merged into one by the time level `c` starts
//! (`c = 0`: every partition alone). Take the deepest cut whose groups can
//! be dealt — heaviest first by state words, each to the least-loaded worker
//! that stays under both caps — so that no worker holds more than `⌈P/W⌉`
//! partitions nor more state words than the heaviest worker of the
//! round-robin deal `rank % W` holds entering some level up to the cut.
//! Cut 0 *is* the round-robin deal.
//!
//! Words are those of the level-0 states throughout, and a worker "holds" a
//! partition from level 0 until the partition it has merged into retires to
//! another worker. A group is whole on its worker up to the cut, so the new
//! deal's shares do not change before it; the round-robin deal's do — by
//! level `c` it, too, has each group on one worker, whichever that is — which
//! is why its heaviest moment up to the cut is the measure, not its level-0
//! share alone. So the table is never less balanced than round robin by
//! count, nor by the most bytes a worker holds before the cut; every merge
//! below the cut has child and parent on one worker; and the table is a
//! function of the tree and the weights alone.

use crate::merge_tree::{rank_in, MergeTree};
use euler_graph::PartitionId;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The owner worker of every seed partition.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Placement {
    /// The partitions placed, ascending and distinct.
    ids: Vec<PartitionId>,
    /// `owners[r]` holds `ids[r]`.
    owners: Vec<usize>,
    num_workers: usize,
}

impl Placement {
    /// Places `leaves` — `(partition, state words)` — on `num_workers`
    /// workers by the module's rule. A partition `tree` does not name is a
    /// group of its own at every cut, and a forest's components are the
    /// groups of its deepest one.
    pub fn new(tree: &MergeTree, mut leaves: Vec<(PartitionId, u64)>, num_workers: usize) -> Self {
        let num_workers = num_workers.max(1);
        // Stable: of a repeated id the first entry counts.
        leaves.sort_by_key(|&(id, _)| id);
        leaves.dedup_by_key(|&mut (id, _)| id);
        let ids: Vec<PartitionId> = leaves.iter().map(|&(id, _)| id).collect();
        let cuts: Vec<Groups> = (0..=tree.height()).map(|level| groups_entering(tree, &leaves, level)).collect();
        // `heaviest[c]`: the most words a worker of the round-robin deal
        // holds entering a level up to `c` — a group sits with the partition
        // it has merged into (or, for one not placed, with its first member).
        let mut heaviest: Vec<u64> = Vec::with_capacity(cuts.len());
        for groups in &cuts {
            let mut held = vec![0u64; num_workers];
            for (&merged, (words, members)) in groups {
                held[rank_in(&ids, merged).unwrap_or(members[0]) % num_workers] += words;
            }
            let so_far = heaviest.last().copied().unwrap_or(0);
            heaviest.push(held.into_iter().max().unwrap_or(0).max(so_far));
        }
        let max_leaves = ids.len().div_ceil(num_workers);
        let owners = (1..cuts.len())
            .rev()
            .find_map(|cut| {
                let caps = Caps { leaves: max_leaves, words: heaviest[cut] };
                deal_groups(&cuts[cut], ids.len(), num_workers, &caps)
            })
            .unwrap_or_else(|| (0..ids.len()).map(|rank| rank % num_workers).collect());
        Placement { ids, owners, num_workers }
    }

    /// The worker holding partition `p`, if it was placed.
    pub fn owner(&self, p: PartitionId) -> Option<usize> {
        rank_in(&self.ids, p).map(|rank| self.owners[rank])
    }

    /// Owner per partition, in ascending partition id.
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    pub fn num_workers(&self) -> usize {
        self.num_workers
    }
}

/// The groups of a cut: the partition each has merged into → its words and
/// its members' ranks.
type Groups = BTreeMap<PartitionId, (u64, Vec<usize>)>;

/// The groups entering `level`.
fn groups_entering(tree: &MergeTree, leaves: &[(PartitionId, u64)], level: u32) -> Groups {
    let mut groups = Groups::new();
    for (rank, &(id, words)) in leaves.iter().enumerate() {
        let merged = if level == 0 { id } else { tree.representative_after(id, level - 1) };
        let group = groups.entry(merged).or_default();
        group.0 += words;
        group.1.push(rank);
    }
    groups
}

/// What no worker's share may exceed.
struct Caps {
    leaves: usize,
    words: u64,
}

/// Deals `groups` of `num_leaves` partitions, or `None` if some group fits no
/// worker under the caps.
fn deal_groups(groups: &Groups, num_leaves: usize, num_workers: usize, caps: &Caps) -> Option<Vec<usize>> {
    // Heaviest first; equal weights in ascending id of the merged partition
    // (the sort is stable), equal loads to the lowest worker (`min_by_key`
    // takes the first).
    let mut groups: Vec<&(u64, Vec<usize>)> = groups.values().collect();
    groups.sort_by_key(|&&(words, _)| Reverse(words));
    let mut load = vec![(0u64, 0usize); num_workers];
    let mut owners = vec![0; num_leaves];
    for (words, members) in groups {
        let fits = |&w: &usize| load[w].0 + words <= caps.words && load[w].1 + members.len() <= caps.leaves;
        let to = (0..num_workers).filter(fits).min_by_key(|&w| load[w].0)?;
        load[to].0 += words;
        load[to].1 += members.len();
        members.iter().for_each(|&rank| owners[rank] = to);
    }
    Some(owners)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_tree::MergePair;

    fn tree(levels: &[&[(u32, u32)]], leaves: u32) -> MergeTree {
        let levels: Vec<Vec<MergePair>> = levels
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|&(parent, child)| MergePair {
                        parent: PartitionId(parent),
                        child: PartitionId(child),
                        weight: 1,
                    })
                    .collect()
            })
            .collect();
        let root = levels.last().and_then(|l| l.last()).map_or(PartitionId(0), |p| p.parent);
        MergeTree::from_parts(levels, root, (0..leaves).map(PartitionId).collect())
    }

    /// 8 leaves: neighbours pair up, then pairs of pairs, then the halves.
    fn balanced() -> MergeTree {
        tree(&[&[(1, 0), (3, 2), (5, 4), (7, 6)], &[(3, 1), (7, 5)], &[(7, 3)]], 8)
    }

    fn weighted(words: &[u64]) -> Vec<(PartitionId, u64)> {
        words.iter().enumerate().map(|(p, &w)| (PartitionId(p as u32), w)).collect()
    }

    fn round_robin(parts: usize, workers: usize) -> Vec<usize> {
        (0..parts).map(|rank| rank % workers).collect()
    }

    /// The round-robin deal of the partitions `placement` placed.
    fn dealt_flat(placement: &Placement) -> Placement {
        let (ids, num_workers) = (placement.ids.clone(), placement.num_workers);
        Placement { owners: round_robin(ids.len(), num_workers), ids, num_workers }
    }

    /// Merges whose child and parent sit on different workers.
    fn remote_merges(tree: &MergeTree, placement: &Placement) -> usize {
        let crosses = |p: &&MergePair| placement.owner(p.child) != placement.owner(p.parent);
        tree.levels.iter().flatten().filter(crosses).count()
    }

    fn shares(placement: &Placement, leaves: &[(PartitionId, u64)]) -> Vec<(u64, usize)> {
        let mut shares = vec![(0, 0); placement.num_workers()];
        for &(id, words) in leaves {
            let share = &mut shares[placement.owner(id).unwrap()];
            *share = (share.0 + words, share.1 + 1);
        }
        shares
    }

    #[test]
    fn one_worker_per_partition_and_more_reproduce_rank_mod_workers() {
        let leaves = weighted(&[5, 9, 2, 7, 7, 1, 8, 3]);
        for workers in [8, 9, 20] {
            let placement = Placement::new(&balanced(), leaves.clone(), workers);
            assert_eq!(placement.owners(), round_robin(8, workers), "{workers} workers");
            assert_eq!(placement.num_workers(), workers);
        }
        // No level to cut at: a tree without merges, however many workers.
        let flat = tree(&[], 8);
        assert_eq!(Placement::new(&flat, leaves.clone(), 3).owners(), round_robin(8, 3));
        // Ids that are not `0..P` are dealt by rank, not by id.
        let sparse: Vec<_> = [10u32, 20, 40].iter().map(|&p| (PartitionId(p), 1)).collect();
        let placement = Placement::new(&flat, sparse, 2);
        assert_eq!(placement.owners(), [0, 1, 0]);
        assert_eq!(placement.owner(PartitionId(40)), Some(0));
        assert_eq!(placement.owner(PartitionId(30)), None);
    }

    #[test]
    fn a_single_worker_holds_everything() {
        let placement = Placement::new(&balanced(), weighted(&[5, 9, 2, 7, 7, 1, 8, 3]), 1);
        assert_eq!(placement.owners(), [0; 8]);
        assert_eq!(remote_merges(&balanced(), &placement), 0);
        // Zero workers is one worker.
        assert_eq!(Placement::new(&balanced(), weighted(&[1, 1]), 0).num_workers(), 1);
    }

    #[test]
    fn a_balanced_tree_on_two_workers_leaves_one_remote_merge() {
        let t = balanced();
        let placement = Placement::new(&t, weighted(&[4; 8]), 2);
        assert_eq!(placement.owners(), [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(remote_merges(&t, &placement), 1);
        // Round robin sends every level-0 child to the other worker.
        assert_eq!(remote_merges(&t, &dealt_flat(&placement)), 4);
        // Four workers: the cut moves one level down, the pairs stay whole.
        let placement = Placement::new(&t, weighted(&[4; 8]), 4);
        assert_eq!(placement.owners(), [0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(remote_merges(&t, &placement), 3);
    }

    /// The words cap of `cut` by its definition: replay the round-robin deal
    /// level by level and take the most one worker holds entering any level
    /// up to the cut.
    fn round_robin_peak(tree: &MergeTree, leaves: &[(PartitionId, u64)], workers: usize, cut: u32) -> u64 {
        (0..=cut)
            .map(|level| {
                let mut held = vec![0u64; workers];
                for &(id, words) in leaves {
                    let at = if level == 0 { id } else { tree.representative_after(id, level - 1) };
                    held[at.0 as usize % workers] += words;
                }
                held.into_iter().max().unwrap()
            })
            .max()
            .unwrap()
    }

    /// Pairs whose parents alternate between even and odd ids, so the
    /// round-robin deal stays spread as the levels go by.
    fn alternating() -> MergeTree {
        tree(&[&[(2, 0), (3, 1), (6, 4), (7, 5)], &[(6, 2), (7, 3)], &[(7, 6)]], 8)
    }

    #[test]
    fn a_skewed_seed_never_exceeds_either_cap() {
        // One partition holds half the words.
        for (t, name) in [(balanced(), "balanced"), (alternating(), "alternating")] {
            for heavy in 0..8 {
                let mut words = [10u64; 8];
                words[heavy] = 70;
                let leaves = weighted(&words);
                for workers in 1..=8 {
                    let tag = format!("{name}, partition {heavy} heavy, {workers} workers");
                    let placement = Placement::new(&t, leaves.clone(), workers);
                    let flat = dealt_flat(&placement);
                    // The cut taken is at most the first level with a
                    // merge between workers.
                    let crosses = |p: &MergePair| placement.owner(p.child) != placement.owner(p.parent);
                    let cut = t.levels.iter().position(|l| l.iter().any(crosses)).unwrap_or(3);
                    let cap_words = round_robin_peak(&t, &leaves, workers, cut as u32);
                    for (w, &(words, count)) in shares(&placement, &leaves).iter().enumerate() {
                        assert!(words <= cap_words, "{tag}: worker {w} holds {words} > {cap_words}");
                        assert!(count <= 8usize.div_ceil(workers), "{tag}: worker {w} holds {count}");
                    }
                    assert!(remote_merges(&t, &placement) <= remote_merges(&t, &flat), "{tag}");
                }
            }
        }
        // Round robin on the balanced tree has every level-0 parent, and so
        // 140 of 140 words, on worker 1 entering level 1: the halves (100 and
        // 40 words) are within what it holds at its heaviest, and are taken.
        let leaves = weighted(&[70, 10, 10, 10, 10, 10, 10, 10]);
        assert_eq!(round_robin_peak(&balanced(), &leaves, 2, 2), 140);
        let halves = Placement::new(&balanced(), leaves.clone(), 2);
        assert_eq!(halves.owners(), [0, 0, 0, 0, 1, 1, 1, 1]);
        // On the alternating tree round robin already is the deal by halves.
        assert_eq!(round_robin_peak(&alternating(), &leaves, 2, 2), 100);
        assert_eq!(Placement::new(&alternating(), leaves, 2).owners(), round_robin(8, 2));
    }

    #[test]
    fn groups_that_fit_no_worker_under_a_cap_fail_the_cut() {
        let leaves = weighted(&[50, 10, 20, 20, 10, 10, 10, 10]);
        let pairs = groups_entering(&balanced(), &leaves, 1);
        let words: Vec<u64> = pairs.values().map(|g| g.0).collect();
        assert_eq!(words, [60, 40, 20, 20]);
        // 60 + 20 and 40 + 20: heaviest first, each to the lighter worker.
        let deal = |leaves, words| deal_groups(&pairs, 8, 2, &Caps { leaves, words });
        assert_eq!(deal(4, 80), Some(vec![0, 0, 1, 1, 1, 1, 0, 0]));
        // One word less and the last pair fits neither worker; one partition
        // less per worker and no second pair fits anywhere.
        assert_eq!(deal(4, 79), None);
        assert_eq!(deal(3, 80), None);
        // Through `new`: three workers hold at most three partitions each,
        // the fourth pair fits nowhere, and the deal is round robin's.
        assert_eq!(Placement::new(&balanced(), leaves, 3).owners(), round_robin(8, 3));
    }

    #[test]
    fn the_same_input_gives_the_same_table() {
        let leaves = weighted(&[3, 3, 3, 3, 3, 3, 3, 3]);
        let mut shuffled = leaves.clone();
        shuffled.reverse();
        shuffled.swap(1, 5);
        for workers in [2, 3, 4] {
            let a = Placement::new(&balanced(), leaves.clone(), workers);
            assert_eq!(a, Placement::new(&balanced(), leaves.clone(), workers));
            assert_eq!(a, Placement::new(&balanced(), shuffled.clone(), workers), "input order");
        }
    }

    #[test]
    fn forests_and_unnamed_partitions_are_placed_without_panicking() {
        // Two components that never merge, and partition 9 the tree has
        // never heard of.
        let forest = tree(&[&[(1, 0), (3, 2)]], 4);
        let mut leaves = weighted(&[2, 2, 2, 2]);
        leaves.push((PartitionId(9), 2));
        let placement = Placement::new(&forest, leaves.clone(), 2);
        assert_eq!(placement.owner(PartitionId(0)), placement.owner(PartitionId(1)));
        assert_eq!(placement.owner(PartitionId(2)), placement.owner(PartitionId(3)));
        assert!(placement.owner(PartitionId(9)).is_some());
        assert!(shares(&placement, &leaves).iter().all(|&(_, count)| count <= 3));
        // A duplicate seed id is one partition.
        leaves.push((PartitionId(9), 50));
        assert_eq!(Placement::new(&forest, leaves, 2), placement);
        // Nothing to place.
        let empty = Placement::new(&forest, Vec::new(), 3);
        assert_eq!((empty.owners().len(), empty.num_workers()), (0, 3));
        assert_eq!(empty.owner(PartitionId(0)), None);
    }
}
