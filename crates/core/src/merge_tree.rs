//! Phase 2 planning: building the merge tree from the meta-graph (Alg. 2).
//!
//! The merge tree is computed statically on one machine before the iterative
//! execution starts. At every level a greedy maximal weighted matching over
//! the current meta-graph pairs up partitions, preferring pairs with many cut
//! edges between them (their edges become local sooner, so more state is
//! consumed early). The two partitions of a pair become siblings; the one
//! with the larger id is the parent into which the other merges. The
//! meta-graph is then contracted and the process repeats until a single
//! partition remains, giving `⌈log2 n⌉` merge levels.

use euler_graph::{MetaEdge, MetaGraph, PartitionId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One merge at one level: `child` merges into `parent`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergePair {
    /// Partition that survives (the larger id of the pair, as in the paper).
    pub parent: PartitionId,
    /// Partition that is merged into the parent and then retires.
    pub child: PartitionId,
    /// Meta-edge weight between the two at the time of matching (number of
    /// cut edges that become local).
    pub weight: u64,
}

/// A node of the merge tree, for inspection and display (Fig. 2).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeTreeNode {
    /// Partition id represented by this node.
    pub partition: PartitionId,
    /// Level at which this node is produced (0 = leaf).
    pub level: u32,
    /// Children merged to form it (empty for leaves, one entry for carried-
    /// over partitions, two for merged pairs).
    pub children: Vec<PartitionId>,
}

/// The merge tree: for every level, which partition pairs merge.
///
/// [`MergeTree::build`] and [`MergeTree::from_parts`] index the tree once,
/// so the two questions the walk asks per remote edge per level
/// ([`representative_after`](Self::representative_after),
/// [`merge_level_of`](Self::merge_level_of)) are table reads. The public
/// fields are for reading: the table describes the tree as constructed.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeTree {
    /// Pairs merged at each level, level 0 first.
    pub levels: Vec<Vec<MergePair>>,
    /// The single partition remaining at the root.
    pub root: PartitionId,
    /// Leaf partitions the tree was built from.
    pub leaves: Vec<PartitionId>,
    /// `height + 1` columns of `ranked` entries: `reps[c * ranked + r]` is
    /// the partition that the `r`-th smallest id the tree names belongs to
    /// entering level `c`. Column 0 is those ids themselves, ascending — the
    /// rank lookup. Indexed by rank only, never by a partition id.
    reps: Vec<PartitionId>,
    /// Distinct ids the tree names: the length of one column.
    ranked: usize,
}

/// For every pair of leaves, the merge level that puts the two in one
/// partition: the bucket of [`WorkingPartition::remote_by_level`] a cut edge
/// between them is kept in, from level 0 until the merge after that level
/// makes it local. A pair the tree never joins, and an id beyond the table,
/// reads as the last level, so that every ref has a bucket.
///
/// [`WorkingPartition::remote_by_level`]: crate::WorkingPartition::remote_by_level
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeafLevels {
    /// Leaves `0..leaves` the table covers.
    leaves: usize,
    /// Buckets a state keeps: the tree's height.
    buckets: usize,
    /// `levels[a * leaves + b]`.
    levels: Vec<u32>,
}

impl LeafLevels {
    /// Buckets every state of the run keeps, one per merge level.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The bucket of a cut edge between leaves `a` and `b`.
    pub fn of(&self, a: PartitionId, b: PartitionId) -> usize {
        let (a, b) = (a.index(), b.index());
        let at = if a < self.leaves && b < self.leaves { self.levels.get(a * self.leaves + b) } else { None };
        at.map_or(self.buckets.saturating_sub(1), |&l| l as usize)
    }
}

/// Position of `id` in `sorted` (ascending, distinct). Partition ids are
/// `0..P` on every pipeline path, where an id is its own rank; any other
/// id set falls back to a binary search.
pub(crate) fn rank_in(sorted: &[PartitionId], id: PartitionId) -> Option<usize> {
    match sorted.get(id.0 as usize) {
        Some(&at) if at == id => Some(id.0 as usize),
        _ => sorted.binary_search(&id).ok(),
    }
}

/// Greedy maximal weighted matching: sort meta-edges by descending weight and
/// take every edge whose endpoints are still unmatched (`maximalMatching` of
/// Alg. 2).
pub fn greedy_maximal_matching(edges: &[MetaEdge]) -> Vec<MetaEdge> {
    let mut sorted: Vec<MetaEdge> = edges.to_vec();
    sorted.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.a.cmp(&b.a)).then(a.b.cmp(&b.b)));
    let mut matched: std::collections::HashSet<PartitionId> = std::collections::HashSet::new();
    let mut picked = Vec::new();
    for e in sorted {
        if !matched.contains(&e.a) && !matched.contains(&e.b) {
            matched.insert(e.a);
            matched.insert(e.b);
            picked.push(e);
        }
    }
    picked
}

impl MergeTree {
    /// Builds the merge tree for a meta-graph (Alg. 2, `generateMergeTree`).
    ///
    /// Unlike the paper's presentation, partitions left unmatched at a level
    /// (isolated meta-vertices or matching conflicts) are paired up with
    /// weight 0 when more than one of them remains; this keeps the tree
    /// height at `⌈log2 n⌉` even for disconnected or star-shaped meta-graphs.
    pub fn build(meta: &MetaGraph) -> MergeTree {
        let mut levels = Vec::new();
        let mut current = meta.clone();
        while current.num_vertices() > 1 {
            let picked = greedy_maximal_matching(&current.edges);
            let mut matched: std::collections::HashSet<PartitionId> = std::collections::HashSet::new();
            let mut pairs = Vec::new();
            for e in picked {
                matched.insert(e.a);
                matched.insert(e.b);
                let (parent, child) = if e.a >= e.b { (e.a, e.b) } else { (e.b, e.a) };
                pairs.push(MergePair { parent, child, weight: e.weight });
            }
            // Pair up leftovers (weight 0) so the tree height stays logarithmic.
            let mut leftovers: Vec<PartitionId> =
                current.vertices.iter().copied().filter(|v| !matched.contains(v)).collect();
            leftovers.sort_unstable();
            while leftovers.len() >= 2 {
                let child = leftovers.remove(0);
                let parent = leftovers.pop().expect("len >= 2");
                pairs.push(MergePair { parent, child, weight: 0 });
            }
            // Safety: at least one pair must form whenever >1 vertices remain.
            assert!(!pairs.is_empty(), "matching made no progress");
            let mut parent_of: HashMap<PartitionId, PartitionId> = HashMap::new();
            for p in &pairs {
                parent_of.insert(p.child, p.parent);
            }
            current = current.contract(&parent_of);
            levels.push(pairs);
        }
        let root = current.vertices.first().copied().unwrap_or(PartitionId(0));
        MergeTree::from_parts(levels, root, meta.vertices.clone())
    }

    /// Assembles a tree from its parts — any parts: a forest, repeated
    /// leaves, pairs naming partitions that are no leaves — and indexes it.
    /// The table has one row per distinct id among the leaves and pairs and
    /// one column per level plus one, so its size is bounded by the
    /// caller's input; that is what lets a wire decoder call this.
    pub fn from_parts(levels: Vec<Vec<MergePair>>, root: PartitionId, leaves: Vec<PartitionId>) -> MergeTree {
        let named = levels.iter().flatten().flat_map(|p| [p.child, p.parent]);
        let mut reps: Vec<PartitionId> = leaves.iter().copied().chain(named).collect();
        reps.sort_unstable();
        reps.dedup();
        let ranked = reps.len();
        reps.reserve_exact(ranked * levels.len());
        // By rank: each id's representative entering the level, and where
        // the level sends each partition.
        let mut entering: Vec<usize> = (0..ranked).collect();
        let mut goes_to = entering.clone();
        for pairs in &levels {
            goes_to.iter_mut().enumerate().for_each(|(rank, to)| *to = rank);
            let rank = |id| rank_in(&reps[..ranked], id).expect("interned above");
            // A level applies its pairs in order (child -> parent); composed
            // back to front, each partition's destination is one read.
            for pair in pairs.iter().rev() {
                goes_to[rank(pair.child)] = goes_to[rank(pair.parent)];
            }
            for rep in &mut entering {
                *rep = goes_to[*rep];
                reps.push(reps[*rep]);
            }
        }
        MergeTree { levels, root, leaves, reps, ranked }
    }

    /// Number of merge levels (tree height). The coordination cost of the
    /// whole algorithm is `height + 1` Phase-1 supersteps.
    pub fn height(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Number of Phase-1 supersteps the algorithm will take (§3.5:
    /// `⌈log n⌉ + 1`).
    pub fn num_supersteps(&self) -> u32 {
        self.height() + 1
    }

    /// Pairs merged at `level` (empty slice if the level does not exist).
    pub fn pairs_at(&self, level: u32) -> &[MergePair] {
        self.levels.get(level as usize).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The partition a leaf belongs to after all merges up to and including
    /// `level` (i.e. its representative at level `level + 1`).
    /// A partition the tree does not name is its own representative, and
    /// levels past the last change nothing.
    pub fn representative_after(&self, leaf: PartitionId, level: u32) -> PartitionId {
        let Some(rank) = rank_in(&self.reps[..self.ranked], leaf) else { return leaf };
        let column = (level as usize + 1).min(self.reps.len() / self.ranked - 1);
        self.reps[column * self.ranked + rank]
    }

    /// The first level at which two leaves end up in the same merged
    /// partition, or `None` if they never do (single-leaf trees, or a
    /// partition the tree does not name).
    pub fn merge_level_of(&self, a: PartitionId, b: PartitionId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let ids = self.reps.get(..self.ranked)?;
        let (ra, rb) = (rank_in(ids, a)?, rank_in(ids, b)?);
        // Two table rows, read until they agree (they agree from then on).
        let mut columns = self.reps.chunks_exact(self.ranked).skip(1);
        columns
            .position(|column| matches!((column.get(ra), column.get(rb)), (Some(x), Some(y)) if x == y))
            .map(|l| l as u32)
    }

    /// The table of [`LeafLevels`] over leaves `0..num_leaves`: one
    /// [`merge_level_of`](Self::merge_level_of) per pair of leaves, made once
    /// per run so that no remote ref asks the tree anything.
    pub fn leaf_levels(&self, num_leaves: u32) -> LeafLevels {
        let (leaves, last) = (num_leaves as usize, self.height().saturating_sub(1));
        let levels = (0..num_leaves)
            .flat_map(|a| (0..num_leaves).map(move |b| (PartitionId(a), PartitionId(b))))
            .map(|(a, b)| self.merge_level_of(a, b).map_or(last, |l| l.min(last)))
            .collect();
        LeafLevels { leaves, buckets: self.height() as usize, levels }
    }

    /// Flattens the tree into displayable nodes, level by level (Fig. 2).
    pub fn nodes(&self) -> Vec<MergeTreeNode> {
        let mut out: Vec<MergeTreeNode> =
            self.leaves.iter().map(|&p| MergeTreeNode { partition: p, level: 0, children: vec![] }).collect();
        let mut alive: Vec<PartitionId> = self.leaves.clone();
        for (l, pairs) in self.levels.iter().enumerate() {
            let mut next_alive = Vec::new();
            for &p in &alive {
                if let Some(pair) = pairs.iter().find(|pair| pair.parent == p || pair.child == p) {
                    if pair.parent == p {
                        out.push(MergeTreeNode {
                            partition: p,
                            level: l as u32 + 1,
                            children: vec![pair.child, pair.parent],
                        });
                        next_alive.push(p);
                    }
                } else {
                    out.push(MergeTreeNode { partition: p, level: l as u32 + 1, children: vec![p] });
                    next_alive.push(p);
                }
            }
            alive = next_alive;
        }
        out
    }

    /// Renders the tree as indented text (Fig.-2 style), root last.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mut alive = self.leaves.clone();
        s.push_str(&format!("L0: {}\n", alive.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(" ")));
        for (l, pairs) in self.levels.iter().enumerate() {
            let mut next = Vec::new();
            for &p in &alive {
                if let Some(pair) = pairs.iter().find(|pair| pair.child == p) {
                    let _ = pair;
                    continue;
                }
                next.push(p);
            }
            s.push_str(&format!(
                "L{}: {}   (merges: {})\n",
                l + 1,
                next.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(" "),
                pairs
                    .iter()
                    .map(|m| format!("{}<-{} w={}", m.parent, m.child, m.weight))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            alive = next;
        }
        s
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use euler_gen::synthetic::paper_fig1;
    use euler_graph::PartitionedGraph;

    fn fig1_meta() -> MetaGraph {
        let (g, a) = paper_fig1();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        MetaGraph::from_partitioned(&pg)
    }

    #[test]
    fn fig2_merge_tree_shape() {
        // The paper's Fig. 2: P3-P4 merge first (weight 2 is the largest),
        // leaving P1-P2; then the two merged partitions merge into one.
        let tree = MergeTree::build(&fig1_meta());
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.num_supersteps(), 3);
        let l0 = tree.pairs_at(0);
        assert_eq!(l0.len(), 2);
        // P2<-P3 pair (ids 2,3 zero-based) with weight 2 must be selected.
        assert!(l0.iter().any(|p| p.parent == PartitionId(3) && p.child == PartitionId(2) && p.weight == 2));
        assert!(l0.iter().any(|p| p.parent == PartitionId(1) && p.child == PartitionId(0)));
        assert_eq!(tree.pairs_at(1).len(), 1);
        assert_eq!(tree.root, PartitionId(3));
    }

    #[test]
    fn supersteps_match_paper_counts() {
        // §4.3: 2, 3, 3, 4 supersteps for 2, 3, 4, 8 partitions.
        for (parts, expected) in [(2u32, 2u32), (3, 3), (4, 3), (8, 4)] {
            let vertices: Vec<PartitionId> = (0..parts).map(PartitionId).collect();
            // Complete meta-graph with uniform weights.
            let mut pairs = Vec::new();
            for i in 0..parts {
                for j in (i + 1)..parts {
                    pairs.push((PartitionId(i), PartitionId(j), 1u64));
                }
            }
            let meta = MetaGraph::from_weights(vertices, &pairs);
            let tree = MergeTree::build(&meta);
            assert_eq!(tree.num_supersteps(), expected, "{parts} partitions");
        }
    }

    #[test]
    fn greedy_matching_prefers_heavy_edges() {
        let edges = vec![
            MetaEdge { a: PartitionId(0), b: PartitionId(1), weight: 1 },
            MetaEdge { a: PartitionId(1), b: PartitionId(2), weight: 10 },
            MetaEdge { a: PartitionId(2), b: PartitionId(3), weight: 1 },
            MetaEdge { a: PartitionId(0), b: PartitionId(3), weight: 5 },
        ];
        let picked = greedy_maximal_matching(&edges);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].weight, 10);
        assert_eq!(picked[1].weight, 5);
    }

    #[test]
    fn matching_never_reuses_a_vertex() {
        let edges = vec![
            MetaEdge { a: PartitionId(0), b: PartitionId(1), weight: 9 },
            MetaEdge { a: PartitionId(0), b: PartitionId(2), weight: 8 },
            MetaEdge { a: PartitionId(0), b: PartitionId(3), weight: 7 },
        ];
        let picked = greedy_maximal_matching(&edges);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].weight, 9);
    }

    #[test]
    fn star_metagraph_still_logarithmic() {
        // Star: partition 0 connected to 1..=6; unmatched leftovers must be
        // force-paired so the height stays ~log2(7).
        let vertices: Vec<PartitionId> = (0..7).map(PartitionId).collect();
        let pairs: Vec<_> = (1..7).map(|i| (PartitionId(0), PartitionId(i), 1u64)).collect();
        let meta = MetaGraph::from_weights(vertices, &pairs);
        let tree = MergeTree::build(&meta);
        assert!(tree.height() <= 3, "height {}", tree.height());
        // All leaves end up at the root.
        for i in 0..7 {
            assert_eq!(tree.representative_after(PartitionId(i), tree.height() - 1), tree.root);
        }
    }

    #[test]
    fn representative_and_merge_level() {
        let tree = MergeTree::build(&fig1_meta());
        assert_eq!(tree.representative_after(PartitionId(2), 0), PartitionId(3));
        assert_eq!(tree.representative_after(PartitionId(0), 0), PartitionId(1));
        assert_eq!(tree.representative_after(PartitionId(0), 1), tree.root);
        assert_eq!(tree.merge_level_of(PartitionId(2), PartitionId(3)), Some(0));
        assert_eq!(tree.merge_level_of(PartitionId(0), PartitionId(3)), Some(1));
        assert_eq!(tree.merge_level_of(PartitionId(1), PartitionId(1)), Some(0));
    }

    /// The definition the table must reproduce: walk the levels, following
    /// every pair whose child is the current representative.
    fn scan_representative(tree: &MergeTree, leaf: PartitionId, level: u32) -> PartitionId {
        let mut current = leaf;
        for l in 0..=level {
            for pair in tree.pairs_at(l) {
                if pair.child == current {
                    current = pair.parent;
                }
            }
        }
        current
    }

    fn scan_merge_level(tree: &MergeTree, a: PartitionId, b: PartitionId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        (0..tree.height()).find(|&l| scan_representative(tree, a, l) == scan_representative(tree, b, l))
    }

    /// Entries of the representative table.
    pub(crate) fn table_len(tree: &MergeTree) -> usize {
        tree.reps.len()
    }

    /// Asserts table == scan for every leaf plus `strangers`, at every level
    /// up to two past the root, and for every pair of them.
    pub(crate) fn assert_table_matches_scan(tree: &MergeTree, strangers: &[PartitionId]) {
        let ids: Vec<PartitionId> = tree.leaves.iter().chain(strangers).copied().collect();
        for &a in &ids {
            for level in 0..tree.height() + 2 {
                assert_eq!(
                    tree.representative_after(a, level),
                    scan_representative(tree, a, level),
                    "representative_after({a}, {level})"
                );
            }
            for &b in &ids {
                assert_eq!(tree.merge_level_of(a, b), scan_merge_level(tree, a, b), "({a}, {b})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Built trees over random meta-graphs whose leaf ids are spread out
        /// (`stride` > 1: ids are not their own ranks) and shuffled.
        #[test]
        fn table_matches_the_level_scan_on_random_trees(
            n in 1u32..24,
            stride in 1u32..1000,
            offset in 0u32..50,
            edges in proptest::collection::vec((0u32..24, 0u32..24, 1u64..9), 0..60),
            descending in proptest::any::<bool>(),
        ) {
            let id = |i: u32| PartitionId(offset + (i % n) * stride);
            let mut vertices: Vec<PartitionId> = (0..n).map(id).collect();
            if descending {
                vertices.reverse();
            }
            let pairs: Vec<_> = edges
                .iter()
                .filter(|(a, b, _)| a % n != b % n)
                .map(|&(a, b, w)| (id(a), id(b), w))
                .collect();
            let tree = MergeTree::build(&MetaGraph::from_weights(vertices, &pairs));
            // Ids between, below and above the leaves, none of them a leaf.
            let strangers: Vec<PartitionId> = [offset + 1, offset + n * stride, u32::MAX, 0]
                .into_iter()
                .map(PartitionId)
                .filter(|s| !tree.leaves.contains(s))
                .collect();
            assert_table_matches_scan(&tree, &strangers);
            assert_one_merge_per_partition_per_level(&tree);
        }
    }

    /// A built tree names every partition in at most one pair per level, so
    /// no slot merges two children at one level — the case a single merge
    /// of all of a slot's children exists for.
    fn assert_one_merge_per_partition_per_level(tree: &MergeTree) {
        for (level, pairs) in tree.levels.iter().enumerate() {
            let mut named: Vec<PartitionId> = pairs.iter().flat_map(|p| [p.parent, p.child]).collect();
            named.sort_unstable();
            let before = named.len();
            named.dedup();
            assert_eq!(named.len(), before, "level {level} names a partition twice: {pairs:?}");
        }
    }

    #[test]
    fn leaf_levels_are_the_merge_levels_of_every_pair() {
        for tree in [MergeTree::build(&fig1_meta()), MergeTree::default()] {
            let leaves = tree.leaves.len() as u32;
            let levels = tree.leaf_levels(leaves);
            assert_eq!(levels.buckets(), tree.height() as usize);
            for a in (0..leaves).map(PartitionId) {
                for b in (0..leaves).map(PartitionId) {
                    assert_eq!(Some(levels.of(a, b) as u32), tree.merge_level_of(a, b), "({a}, {b})");
                }
                // Beyond the table: the last level.
                assert_eq!(levels.of(a, PartitionId(leaves)), levels.buckets().saturating_sub(1));
            }
        }
    }

    #[test]
    fn from_parts_indexes_any_tree_like_the_scan() {
        let pair =
            |parent: u32, child: u32| MergePair { parent: PartitionId(parent), child: PartitionId(child), weight: 1 };
        let leaves = |ids: &[u32]| ids.iter().copied().map(PartitionId).collect::<Vec<_>>();
        // A forest (two roots), a carried-over leaf, duplicate and unsorted
        // leaves, an empty level, a retired id reused as a parent later.
        let tree = MergeTree::from_parts(
            vec![vec![pair(9, 2), pair(40, 7)], vec![], vec![pair(2, 9)]],
            PartitionId(2),
            leaves(&[40, 2, 9, 7, 9, 1000, 2]),
        );
        assert_eq!(table_len(&tree), 5 * 4, "distinct ids x (height + 1)");
        assert_eq!(tree.representative_after(PartitionId(2), 5), PartitionId(2));
        assert_eq!(tree.merge_level_of(PartitionId(7), PartitionId(2)), None);
        assert_table_matches_scan(&tree, &leaves(&[0, 8, 41, u32::MAX]));
        // The empty tree names nobody.
        assert_table_matches_scan(&MergeTree::default(), &leaves(&[0, 3]));

        // Levels no matching would produce, where the scan's answer depends
        // on pair order: a chain inside one level (in both orders), a child
        // paired twice, a self-pair, pairs naming partitions that are no
        // leaves (which the scan moves all the same).
        for odd in [
            vec![pair(2, 1), pair(3, 2)],
            vec![pair(3, 2), pair(2, 1)],
            vec![pair(2, 1), pair(3, 1), pair(1, 3)],
            vec![pair(1, 1), pair(2, 1)],
            vec![pair(2, 8), pair(8, 3), pair(9, 8)],
        ] {
            let tree = MergeTree::from_parts(vec![odd.clone(), vec![pair(3, 2)]], PartitionId(3), leaves(&[1, 2, 3]));
            assert_table_matches_scan(&tree, &leaves(&[0, 8, 9, 10]));
        }
    }

    #[test]
    fn single_partition_tree_is_trivial() {
        let meta = MetaGraph::from_weights(vec![PartitionId(0)], &[]);
        let tree = MergeTree::build(&meta);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.num_supersteps(), 1);
        assert_eq!(tree.root, PartitionId(0));
    }

    #[test]
    fn disconnected_metagraph_terminates() {
        // No meta-edges at all: leftover pairing must still reduce to one.
        let vertices: Vec<PartitionId> = (0..5).map(PartitionId).collect();
        let meta = MetaGraph::from_weights(vertices, &[]);
        let tree = MergeTree::build(&meta);
        assert!(tree.height() <= 3);
        for i in 0..5 {
            assert_eq!(tree.representative_after(PartitionId(i), tree.height()), tree.root);
        }
    }

    #[test]
    fn render_and_nodes_cover_all_levels() {
        let tree = MergeTree::build(&fig1_meta());
        let text = tree.render();
        assert!(text.contains("L0:"));
        assert!(text.contains("L2:"));
        let nodes = tree.nodes();
        assert!(nodes.iter().any(|n| n.level == 0));
        assert!(nodes.iter().any(|n| n.level == tree.height() && n.partition == tree.root));
    }
}
