//! Differential oracles for the per-level passes of the merge-tree walk.
//!
//! The walk answers its per-level questions from single passes and tables
//! (one classification per partition, hash-free merges over refs kept in
//! one bucket per merge level, one leaf-pair table per run). The
//! *definitions* those passes must reproduce stay here, as code that shares
//! nothing with them:
//!
//! * [`hashset_merge`] — the original `merge_partitions`, de-duplicating
//!   converted edges through a `HashSet`, and deciding which refs convert
//!   from the partition labels of their two endpoints and
//!   `MergeTree::merge_level_of`, not from the bucket a ref is in;
//! * the `vertex_type_counts()`-based memory formulas and the Longs a
//!   shipped state moves, evaluated on a replay of the walk built from the
//!   public kernels.
//!
//! Every backend's records (and the BSP workers' post-run memory) must
//! equal the replay, for all three merge strategies, and the level-0 state
//! must bound every level's as §5 says.

use euler_circuit::algo::phase1::run_phase1;
use euler_circuit::algo::phase2::{apply_remote_edge_dedup, merge_partitions};
use euler_circuit::algo::state::{EdgeRef, LocalEdge, RemoteRef};
use euler_circuit::algo::{
    FragmentStore, MergePair, MergeTree, VertexTypeCounts, WorkingPartition,
};
use euler_circuit::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// The leaf partition of a vertex.
type LeafOf<'a> = &'a dyn Fn(VertexId) -> PartitionId;

/// The merge level at which a ref becomes local: the first level whose
/// matching puts the leaves of its two endpoints in one partition — the last
/// level for leaves the tree never joins.
fn converting_level(tree: &MergeTree, leaf_of: LeafOf<'_>, r: &RemoteRef) -> u32 {
    tree.merge_level_of(leaf_of(r.local), leaf_of(r.remote))
        .unwrap_or_else(|| tree.height().saturating_sub(1))
}

/// Longs moved by shipping a state to its merge parent: 3 per local edge,
/// 4 per remote ref shipped, 4 of header (§5), where Deferred ships only
/// the refs that the merges up to `level` need.
fn transfer_longs(
    wp: &WorkingPartition,
    tree: &MergeTree,
    leaf_of: LeafOf<'_>,
    level: u32,
    strategy: MergeStrategy,
) -> u64 {
    let shipped = wp
        .remote_refs()
        .filter(|r| !strategy.defers_transfer() || converting_level(tree, leaf_of, r) <= level)
        .count();
    3 * wp.local_edges.len() as u64 + 4 * shipped as u64 + 4
}

/// What one merge did, by the oracle's count.
#[derive(Debug, Default, PartialEq, Eq)]
struct MergeStats {
    /// Remote edges that became local edges of the merged partition.
    converted_edges: u64,
    /// Remote edges still pointing at other partitions after the merge.
    surviving_remote_edges: u64,
}

/// `merge_partitions` as first written: fresh vectors, every converted edge
/// id through a `HashSet`, first occurrence wins; a ref converts when the
/// labels of its endpoints say the merge after `level` joins them, and a
/// survivor is filed in the bucket of the level that will.
fn hashset_merge(
    parent: WorkingPartition,
    children: &[WorkingPartition],
    tree: &MergeTree,
    level: u32,
    leaf_of: LeafOf<'_>,
) -> (WorkingPartition, MergeStats) {
    let mut leaves = parent.leaves.clone();
    leaves.extend(children.iter().flat_map(|c| c.leaves.iter().copied()));
    leaves.sort_unstable();
    leaves.dedup();
    let mut merged = WorkingPartition {
        id: parent.id,
        leaves,
        level: level + 1,
        local_edges: parent
            .local_edges
            .iter()
            .chain(children.iter().flat_map(|c| &c.local_edges))
            .copied()
            .collect(),
        remote_by_level: vec![Vec::new(); tree.height() as usize],
        isolated_vertices: parent.isolated_vertices
            + children.iter().map(|c| c.isolated_vertices).sum::<u64>(),
    };
    let mut converted: HashSet<EdgeId> = HashSet::new();
    let refs = parent.remote_refs().chain(children.iter().flat_map(|c| c.remote_refs()));
    for r in refs {
        let at = converting_level(tree, leaf_of, r);
        if at == level {
            if converted.insert(r.edge) {
                merged.local_edges.push(LocalEdge {
                    edge: EdgeRef::Real(r.edge),
                    u: r.local,
                    v: r.remote,
                });
            }
        } else {
            merged.remote_by_level[at as usize].push(*r);
        }
    }
    let stats = MergeStats {
        converted_edges: converted.len() as u64,
        surviving_remote_edges: merged.num_remote_edges() as u64,
    };
    (merged, stats)
}

fn assert_merge_matches_oracle(
    parent: &WorkingPartition,
    children: &[WorkingPartition],
    tree: &MergeTree,
    level: u32,
    leaf_of: LeafOf<'_>,
) -> WorkingPartition {
    let merged = merge_partitions(parent.clone(), children.to_vec(), level);
    let (want, want_stats) = hashset_merge(parent.clone(), children, tree, level, leaf_of);
    let tag = format!("merge of {:?} into {} at level {level}", children.iter().map(|c| c.id).collect::<Vec<_>>(), parent.id);
    assert_eq!(merged.remote_by_level.len(), want.remote_by_level.len(), "{tag}");
    for (at, (got, want)) in merged.remote_by_level.iter().zip(&want.remote_by_level).enumerate() {
        assert_eq!(got, want, "{tag}: bucket {at}");
    }
    assert_eq!(merged, want, "{tag}");
    let before: usize = parent.local_edges.len() + children.iter().map(|c| c.local_edges.len()).sum::<usize>();
    let stats = MergeStats {
        converted_edges: (merged.local_edges.len() - before) as u64,
        surviving_remote_edges: merged.num_remote_edges() as u64,
    };
    assert_eq!(stats, want_stats, "{tag}");
    merged
}

/// What the replay expects of one partition at one level.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    level: u32,
    partition: PartitionId,
    counts: VertexTypeCounts,
    memory_longs: u64,
    remote_needed_now: u64,
    /// Longs of the states merged into the partition entering the level.
    transfer_in_longs: u64,
    /// `memory_longs()` of the state Phase 1 left behind.
    memory_after: u64,
    /// Bytes of that state's record — 6 header words, a word per leaf, 4 per
    /// local edge, a count word per merge level and 3 per remote ref — if
    /// this level retires it into its merge parent; 0 if it stays.
    shipped_bytes: u64,
}

/// Replays the merge-tree walk from the public kernels, evaluating the
/// accounting formulas by their definitions (a full `vertex_type_counts()`
/// classification before and after every Phase-1 run, converting levels
/// from the labels) and checking every merge against [`hashset_merge`].
/// Under Duplicated every cut edge is held on both sides, so at every merge
/// the parent's and the child's converting buckets name the same edges.
fn replay(pg: &PartitionedGraph, labels: &PartitionAssignment, strategy: MergeStrategy) -> Vec<Expected> {
    let leaf_of = |v: VertexId| labels.partition_of(v);
    let (tree, mut states) = WorkingPartition::from_partitioned(pg);
    assert_eq!(tree, MergeTree::build(&MetaGraph::from_partitioned(pg)));
    // A built tree names a partition in at most one pair per level: every
    // slot merges at most one child at a time.
    for pairs in &tree.levels {
        let named: HashSet<PartitionId> = pairs.iter().flat_map(|p| [p.parent, p.child]).collect();
        assert_eq!(named.len(), 2 * pairs.len(), "{pairs:?}");
    }
    if strategy.deduplicates() {
        apply_remote_edge_dedup(&mut states, leaf_of);
    }
    let store = FragmentStore::new();
    let mut expected = Vec::new();
    let mut transfer_in: Vec<(PartitionId, u64)> = Vec::new();
    for level in 0..tree.num_supersteps() {
        states.sort_by_key(|s| s.id);
        for wp in &mut states {
            wp.level = level;
            let counts = wp.vertex_type_counts();
            let needed: Vec<u32> =
                wp.remote_refs().map(|r| converting_level(&tree, &leaf_of, r)).collect();
            let resident_remote = if strategy.defers_transfer() {
                needed.iter().filter(|&&l| l <= level).count() as u64
            } else {
                counts.remote_edges
            };
            run_phase1(wp, &store);
            let retires = tree.pairs_at(level).iter().any(|p| p.child == wp.id);
            let record_words = 6
                + wp.leaves.len()
                + 4 * wp.local_edges.len()
                + tree.height() as usize
                + 3 * wp.num_remote_edges();
            expected.push(Expected {
                level,
                partition: wp.id,
                counts,
                memory_longs: counts.total_vertices() + 3 * counts.local_edges + 4 * resident_remote,
                remote_needed_now: needed.iter().filter(|&&l| l == level).count() as u64,
                transfer_in_longs: transfer_in.iter().filter(|(p, _)| *p == wp.id).map(|(_, l)| l).sum(),
                memory_after: wp.memory_longs(),
                shipped_bytes: if retires { 8 * record_words as u64 } else { 0 },
            });
        }
        transfer_in.clear();
        for pair in tree.pairs_at(level) {
            let mut take = |id| states.swap_remove(states.iter().position(|s| s.id == id).unwrap());
            let (child, parent) = (take(pair.child), take(pair.parent));
            if strategy == MergeStrategy::Duplicated {
                let edges = |wp: &WorkingPartition| -> BTreeSet<EdgeId> {
                    wp.remote_by_level[level as usize].iter().map(|r| r.edge).collect()
                };
                assert_eq!(edges(&parent), edges(&child), "converting buckets of {pair:?}");
            }
            transfer_in.push((pair.parent, transfer_longs(&child, &tree, &leaf_of, level, strategy)));
            states.push(assert_merge_matches_oracle(&parent, &[child], &tree, level, &leaf_of));
        }
    }
    expected
}

/// A connected Eulerian multigraph: random cycles plus doubled (parallel)
/// edges and self-loops, which keep every degree even.
fn multigraph(seed: u64, n: u64, extra: usize, doubled: &[(u64, u64)], loops: &[u64]) -> Graph {
    let base = synthetic::random_eulerian_connected(n, extra, 5, seed);
    let mut b = GraphBuilder::with_vertices(n);
    for (_, u, v) in base.edges() {
        b.add_edge(u.0, v.0);
    }
    for &(u, v) in doubled {
        b.add_edge(u % n, v % n);
        b.add_edge(u % n, v % n);
    }
    for &v in loops {
        b.add_edge(v % n, v % n);
    }
    b.build().unwrap()
}

fn assert_backends_match_replay(g: &Graph, assignment: &PartitionAssignment) {
    let pg = PartitionedGraph::from_assignment(g, assignment).unwrap();
    let mut by_level = Vec::new();
    for strategy in MergeStrategy::all() {
        let expected = replay(&pg, assignment, strategy);
        for name in [
            "in-process",
            "1 worker in place",
            "2 workers in place",
            "3 workers in place",
            "a worker per partition in place",
            "2 thread workers over MemTransport",
        ] {
            let backend: Box<dyn ExecutionBackend> = match name {
                "in-process" => Box::new(InProcessBackend::new()),
                "1 worker in place" => Box::new(BspBackend::with_engine(BspConfig::with_workers(1))),
                "2 workers in place" => Box::new(BspBackend::with_engine(BspConfig::with_workers(2))),
                "3 workers in place" => Box::new(BspBackend::with_engine(BspConfig::with_workers(3))),
                "a worker per partition in place" => Box::new(BspBackend::new()),
                _ => Box::new(
                    BspBackend::with_engine(BspConfig::with_workers(2))
                        .with_transport(Arc::new(MemTransport)),
                ),
            };
            let config = EulerConfig::default().with_merge_strategy(strategy).with_verify(true);
            let (_, report) =
                run_with_backend(g, assignment, &config, backend.as_ref()).unwrap();
            let tag = format!("{name}, {strategy:?}");
            assert_eq!(report.per_partition.len(), expected.len(), "{tag}");
            for (got, want) in report.per_partition.iter().zip(&expected) {
                assert_eq!((got.level, got.partition), (want.level, want.partition), "{tag}");
                assert_eq!(got.memory_longs, want.memory_longs, "{tag}: memory_longs of {want:?}");
                assert_eq!(got.remote_needed_now, want.remote_needed_now, "{tag}: {want:?}");
                assert_eq!(got.transfer_in_longs, want.transfer_in_longs, "{tag}: {want:?}");
                assert_eq!(got.counts, want.counts, "{tag}");
            }
            if let Some(engine) = &report.engine {
                for want in &expected {
                    let memory = &engine.supersteps[want.level as usize].memory;
                    assert_eq!(
                        memory.per_partition.get(&format!("P{}", want.partition.0)),
                        Some(&want.memory_after),
                        "{tag}: post-run memory of {want:?}"
                    );
                }
                // Handed over by value or shuffled, every retiring state is
                // accounted at its record's size, wherever its parent is.
                for step in &engine.supersteps {
                    let at_level = expected.iter().filter(|e| e.level == step.superstep);
                    assert_eq!(
                        step.total_bytes(),
                        at_level.map(|e| e.shipped_bytes).sum::<u64>(),
                        "{tag}: local + remote bytes of superstep {}",
                        step.superstep
                    );
                }
            } else {
                assert_eq!(name, "in-process");
                by_level.push((strategy, report.cumulative_memory_by_level()));
            }
        }
    }
    assert_level0_bounds_every_level(&by_level);
}

/// §5's statement on measured runs: under Duplicated and Deduplicated no
/// level holds more state than level 0, and Deferred at any level holds no
/// more than Deduplicated at level 0.
fn assert_level0_bounds_every_level(by_level: &[(MergeStrategy, Vec<u64>)]) {
    let level0 = |of: MergeStrategy| by_level.iter().find(|(s, _)| *s == of).map(|(_, l)| l[0]);
    let dedup_level0 = level0(MergeStrategy::Deduplicated).expect("a Deduplicated run");
    for (strategy, levels) in by_level {
        let bound = match strategy {
            MergeStrategy::Deferred => dedup_level0,
            _ => levels[0],
        };
        for (level, &longs) in levels.iter().enumerate() {
            assert!(longs <= bound, "{strategy:?}: level {level} holds {longs} Longs, over {bound}");
        }
    }
}

#[test]
fn records_and_post_run_memory_match_the_definitions_on_every_backend() {
    let (g, a) = synthetic::paper_fig1();
    assert_backends_match_replay(&g, &a);
    let g = synthetic::torus_grid(12, 12);
    assert_backends_match_replay(&g, &LdgPartitioner::new(5).partition(&g));
    // Self-loops, parallel cut edges and a hub, under a scattering partitioner.
    let g = multigraph(7, 60, 8, &[(0, 1), (0, 31), (0, 31), (5, 44)], &[0, 0, 17, 59]);
    assert_backends_match_replay(&g, &HashPartitioner::new(6).partition(&g));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn records_match_the_definitions_on_random_multigraphs(
        seed in 0u64..1000,
        n in 8u64..80,
        extra in 0usize..8,
        parts in 1u32..8,
        use_hash in any::<bool>(),
        doubled in prop::collection::vec((0u64..80, 0u64..80), 0..6),
        loops in prop::collection::vec(0u64..80, 0..4),
    ) {
        let g = multigraph(seed, n, extra, &doubled, &loops);
        let assignment = if use_hash {
            HashPartitioner::new(parts).partition(&g)
        } else {
            LdgPartitioner::new(parts).partition(&g)
        };
        assert_backends_match_replay(&g, &assignment);
    }
}

/// Vertex `x` of leaf `leaf`: the hand-built states label a vertex by its
/// hundreds.
fn vertex(leaf: u32, x: u64) -> VertexId {
    VertexId(100 * leaf as u64 + x)
}

fn hundreds(v: VertexId) -> PartitionId {
    PartitionId((v.0 / 100) as u32)
}

fn remote(edge: u64, (leaf, x): (u32, u64), (other, y): (u32, u64)) -> RemoteRef {
    RemoteRef { edge: EdgeId(edge), local: vertex(leaf, x), remote: vertex(other, y) }
}

/// A leaf's state of `tree`, each ref filed in the bucket of the level its
/// labels say converts it.
fn state(tree: &MergeTree, id: u32, local: &[(u64, u64, u64)], refs: Vec<RemoteRef>) -> WorkingPartition {
    let mut remote_by_level = vec![Vec::new(); tree.height() as usize];
    for r in refs {
        remote_by_level[converting_level(tree, &hundreds, &r) as usize].push(r);
    }
    WorkingPartition {
        id: PartitionId(id),
        leaves: vec![PartitionId(id)],
        level: 0,
        local_edges: local
            .iter()
            .map(|&(e, u, v)| LocalEdge {
                edge: EdgeRef::Real(EdgeId(e)),
                u: vertex(id, u),
                v: vertex(id, v),
            })
            .collect(),
        remote_by_level,
        isolated_vertices: id as u64,
    }
}

fn tree_of(levels: Vec<Vec<(u32, u32)>>, root: u32, leaves: u32) -> MergeTree {
    let pair = |(parent, child)| MergePair {
        parent: PartitionId(parent),
        child: PartitionId(child),
        weight: 1,
    };
    MergeTree::from_parts(
        levels.into_iter().map(|pairs| pairs.into_iter().map(pair).collect()).collect(),
        PartitionId(root),
        (0..leaves).map(PartitionId).collect(),
    )
}

/// Three leaves; 0 merges into 1 at level 0, 1 into 2 at level 1.
fn chain_tree() -> MergeTree {
    tree_of(vec![vec![(1, 0)], vec![(2, 1)]], 2, 3)
}

#[test]
fn hand_built_merges_match_the_hashset_oracle() {
    let tree = chain_tree();
    // An edge id repeated within one side (and again on the other),
    // parallel cut edges sharing endpoints, refs that survive, and a ref to
    // a leaf the tree does not know (filed at the last level).
    let parent = state(
        &tree,
        1,
        &[(100, 10, 11)],
        vec![
            remote(7, (1, 10), (0, 1)),
            remote(7, (1, 10), (0, 1)),
            remote(3, (1, 11), (0, 2)),
            remote(50, (1, 11), (2, 20)),
            remote(4, (1, 12), (0, 12)),
            remote(51, (1, 11), (9, 30)),
        ],
    );
    let child = state(
        &tree,
        0,
        &[(101, 1, 2), (102, 2, 1)],
        vec![
            remote(3, (0, 2), (1, 11)),
            remote(8, (0, 1), (1, 10)),
            remote(9, (0, 1), (1, 10)),
            remote(7, (0, 1), (1, 10)),
            remote(52, (0, 2), (2, 21)),
            remote(8, (0, 1), (1, 10)),
        ],
    );
    let merged = assert_merge_matches_oracle(&parent, std::slice::from_ref(&child), &tree, 0, &hundreds);
    let converted: Vec<u64> = merged.local_edges[3..]
        .iter()
        .map(|e| match e.edge {
            EdgeRef::Real(id) => id.0,
            EdgeRef::Virtual(_) => unreachable!(),
        })
        .collect();
    assert_eq!(converted, vec![7, 3, 4, 8, 9], "first occurrence wins, in first-occurrence order");
    assert_eq!(merged.remote_by_level[0], []);
    assert_eq!(merged.remote_by_level[1].len(), 3);

    // Few edges spread over a huge id range (no dense id span to count in),
    // with the extreme ids repeated.
    let wide = |leaf, other| {
        vec![
            remote(u64::MAX, (leaf, 1), (other, 2)),
            remote(0, (leaf, 1), (other, 2)),
            remote(1 << 40, (leaf, 1), (other, 2)),
            remote(u64::MAX, (leaf, 3), (other, 4)),
            remote(0, (leaf, 5), (other, 6)),
        ]
    };
    let (parent, child) = (state(&tree, 1, &[], wide(1, 0)), state(&tree, 0, &[], wide(0, 1)));
    assert_merge_matches_oracle(&parent, &[child], &tree, 0, &hundreds);

    // Nothing converts; nothing at all.
    let lone = state(&tree, 1, &[(1, 1, 1)], vec![]);
    assert_merge_matches_oracle(&state(&tree, 2, &[], vec![]), &[lone], &tree, 1, &hundreds);
    let (parent, child) = (
        state(&tree, 2, &[], vec![remote(1, (2, 1), (7, 2))]),
        state(&tree, 1, &[], vec![remote(1, (1, 2), (7, 1))]),
    );
    assert_merge_matches_oracle(&parent, &[child], &tree, 1, &hundreds);
}

/// A slot that merges two children at one level — which no built tree
/// makes, but a tree from parts can — converts the edge between the two
/// children once, as one merge over all three converting buckets.
#[test]
fn two_children_of_one_slot_merge_like_the_oracle() {
    let star = tree_of(vec![vec![(2, 0), (2, 1)]], 2, 3);
    let leaf = |id: u32, others: [u32; 2]| {
        let refs = others
            .iter()
            .flat_map(|&o| {
                let edge = u64::from(id.min(o) * 10 + id.max(o));
                [remote(edge, (id, 1), (o, 1)), remote(edge + 100, (id, 2), (o, 2))]
            })
            .collect();
        state(&star, id, &[(900 + u64::from(id), 3, 4)], refs)
    };
    let children = [leaf(0, [1, 2]), leaf(1, [0, 2])];
    let merged = assert_merge_matches_oracle(&leaf(2, [0, 1]), &children, &star, 0, &hundreds);
    let real = merged.local_edges.iter().filter(|e| matches!(e.edge, EdgeRef::Real(_))).count();
    assert_eq!(real, 3 + 6, "three local edges, and each of the six cut edges once");
    assert_eq!(merged.num_remote_edges(), 0);
}

/// The generator families of the level-0 loader's tests, partitioned three
/// ways.
fn family(which: u8, seed: u64) -> Graph {
    match which % 5 {
        0 => eulerize(&RmatGenerator::new(8).with_avg_degree(6.0).with_seed(seed).generate()).0,
        1 => synthetic::torus_grid(6 + seed % 5, 7),
        2 => synthetic::random_eulerian_connected(120, 12, 6, seed),
        3 => synthetic::paper_fig1().0,
        _ => multigraph(seed, 50, 6, &[(0, 1), (3, 40), (3, 40)], &[0, 9]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random ref lists over a small id pool (many repeats, within and
    /// across sides), dense or scattered ids, at both levels of the chain.
    #[test]
    fn random_merges_match_the_hashset_oracle(
        parent_refs in prop::collection::vec((0u64..24, 0u32..4, 0u64..6), 0..40),
        child_refs in prop::collection::vec((0u64..24, 0u32..4, 0u64..6), 0..40),
        scatter in any::<bool>(),
        level in 0u32..2,
    ) {
        let tree = chain_tree();
        let (parent_id, child_id) = if level == 0 { (1, 0) } else { (2, 1) };
        let refs = |list: &[(u64, u32, u64)], leaf: u32| -> Vec<RemoteRef> {
            list.iter()
                .map(|&(id, other, v)| {
                    let id = if scatter { id.wrapping_mul(0x9E37_79B9_7F4A_7C15) } else { id };
                    let other = if other == leaf { (other + 1) % 4 } else { other };
                    remote(id, (leaf, v), (other, v + 1))
                })
                .collect()
        };
        let mut parent = state(&tree, parent_id, &[(900, 1, 2)], refs(&parent_refs, parent_id));
        let mut child = state(&tree, child_id, &[(901, 2, 3)], refs(&child_refs, child_id));
        // A state of level 1 holds nothing for the level-0 merge.
        if level == 1 {
            parent.remote_by_level[0].clear();
            child.remote_by_level[0].clear();
        }
        assert_merge_matches_oracle(&parent, &[child], &tree, level, &hundreds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every merge of the walk over the generator families, under every
    /// strategy, against the oracle — and, under Duplicated, the two sides'
    /// converting buckets hold the same edge ids ([`replay`] asserts both).
    #[test]
    fn every_merge_of_the_generator_families_matches_the_oracle(
        which in 0u8..5,
        seed in 0u64..500,
        parts in 2u32..9,
        partitioner in 0u8..3,
    ) {
        let g = family(which, seed);
        let a = match partitioner {
            0 => HashPartitioner::new(parts).partition(&g),
            1 => LdgPartitioner::new(parts).partition(&g),
            _ => BfsPartitioner::new(parts).partition(&g),
        };
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        for strategy in MergeStrategy::all() {
            replay(&pg, &a, strategy);
        }
    }
}
