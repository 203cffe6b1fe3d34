//! Differential oracles for the per-level passes of the merge-tree walk.
//!
//! The walk answers its per-level questions from single passes and tables
//! (one classification per partition, hash-free merges, O(1) merge-tree
//! lookups). The *definitions* those passes must reproduce stay here, as
//! code that shares nothing with them:
//!
//! * [`hashset_merge`] — the original `merge_partitions`, de-duplicating
//!   converted edges through a `HashSet`;
//! * the `vertex_type_counts()`-based memory formulas, evaluated on a replay
//!   of the walk built from the public kernels.
//!
//! Every backend's records (and the BSP workers' post-run memory) must
//! equal the replay, for all three merge strategies, and the level-0 state
//! must bound every level's as §5 says.

use euler_circuit::algo::phase1::run_phase1;
use euler_circuit::algo::phase2::{
    apply_remote_edge_dedup, merge_partitions, remote_edge_needed_level, MergeStats,
};
use euler_circuit::algo::state::{EdgeRef, LocalEdge, RemoteRef};
use euler_circuit::algo::{
    FragmentStore, MergePair, MergeTree, VertexTypeCounts, WorkingPartition,
};
use euler_circuit::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// `merge_partitions` as first written: fresh vectors, every converted edge
/// id through a `HashSet`, first occurrence wins.
fn hashset_merge(
    parent: WorkingPartition,
    child: WorkingPartition,
    tree: &MergeTree,
    level: u32,
) -> (WorkingPartition, MergeStats) {
    let mut stats = MergeStats { transferred_longs: child.transfer_longs(), ..Default::default() };
    let merged_id = parent.id;
    let mut leaves = parent.leaves.clone();
    leaves.extend(child.leaves.iter().copied());
    leaves.sort_unstable();
    leaves.dedup();
    let mut merged = WorkingPartition {
        id: merged_id,
        leaves,
        level: level + 1,
        local_edges: parent.local_edges.iter().chain(&child.local_edges).copied().collect(),
        remote_edges: Vec::new(),
        isolated_vertices: parent.isolated_vertices + child.isolated_vertices,
    };
    let mut converted: HashSet<EdgeId> = HashSet::new();
    for r in parent.remote_edges.into_iter().chain(child.remote_edges) {
        if tree.representative_after(r.remote_leaf, level) == merged_id {
            if converted.insert(r.edge) {
                merged.local_edges.push(LocalEdge {
                    edge: EdgeRef::Real(r.edge),
                    u: r.local,
                    v: r.remote,
                });
            }
        } else {
            merged.remote_edges.push(r);
        }
    }
    stats.converted_edges = converted.len() as u64;
    stats.surviving_remote_edges = merged.remote_edges.len() as u64;
    (merged, stats)
}

fn assert_merge_matches_oracle(
    parent: &WorkingPartition,
    child: &WorkingPartition,
    tree: &MergeTree,
    level: u32,
) -> WorkingPartition {
    let (merged, stats) = merge_partitions(parent.clone(), child.clone(), tree, level);
    let (want, want_stats) = hashset_merge(parent.clone(), child.clone(), tree, level);
    assert_eq!(merged, want, "merge of {} into {} at level {level}", child.id, parent.id);
    assert_eq!(stats, want_stats);
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
    /// `memory_longs()` of the state Phase 1 left behind.
    memory_after: u64,
    /// Bytes of that state's record — 6 header words, a word per leaf, 4 per
    /// local edge, 5 per remote ref — if this level retires it into its
    /// merge parent; 0 if it stays.
    shipped_bytes: u64,
}

/// Replays the merge-tree walk from the public kernels, evaluating the
/// accounting formulas by their definitions (a full `vertex_type_counts()`
/// classification before and after every Phase-1 run) and checking every
/// merge against [`hashset_merge`].
fn replay(pg: &PartitionedGraph, strategy: MergeStrategy) -> Vec<Expected> {
    let tree = MergeTree::build(&MetaGraph::from_partitioned(pg));
    let mut states: Vec<WorkingPartition> =
        pg.partitions().iter().map(WorkingPartition::from_partition).collect();
    if strategy.deduplicates() {
        apply_remote_edge_dedup(&mut states);
    }
    let store = FragmentStore::new();
    let mut expected = Vec::new();
    for level in 0..tree.num_supersteps() {
        states.sort_by_key(|s| s.id);
        for wp in &mut states {
            wp.level = level;
            let counts = wp.vertex_type_counts();
            let needed: Vec<u32> =
                wp.remote_edges.iter().map(|r| remote_edge_needed_level(&tree, r)).collect();
            let resident_remote = if strategy.defers_transfer() {
                needed.iter().filter(|&&l| l <= level).count() as u64
            } else {
                counts.remote_edges
            };
            run_phase1(wp, &store);
            let retires = tree.pairs_at(level).iter().any(|p| p.child == wp.id);
            let record_words =
                6 + wp.leaves.len() + 4 * wp.local_edges.len() + 5 * wp.remote_edges.len();
            expected.push(Expected {
                level,
                partition: wp.id,
                counts,
                memory_longs: counts.total_vertices() + 3 * counts.local_edges + 4 * resident_remote,
                remote_needed_now: needed.iter().filter(|&&l| l == level).count() as u64,
                memory_after: wp.memory_longs(),
                shipped_bytes: if retires { 8 * record_words as u64 } else { 0 },
            });
        }
        for pair in tree.pairs_at(level) {
            let mut take = |id| states.swap_remove(states.iter().position(|s| s.id == id).unwrap());
            let (child, parent) = (take(pair.child), take(pair.parent));
            states.push(assert_merge_matches_oracle(&parent, &child, &tree, level));
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
        let expected = replay(&pg, strategy);
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

fn remote(edge: u64, local: u64, remote: u64, local_leaf: u32, remote_leaf: u32) -> RemoteRef {
    RemoteRef {
        edge: EdgeId(edge),
        local: VertexId(local),
        remote: VertexId(remote),
        local_leaf: PartitionId(local_leaf),
        remote_leaf: PartitionId(remote_leaf),
    }
}

fn state(id: u32, local: &[(u64, u64, u64)], remote_edges: Vec<RemoteRef>) -> WorkingPartition {
    WorkingPartition {
        id: PartitionId(id),
        leaves: vec![PartitionId(id)],
        level: 0,
        local_edges: local
            .iter()
            .map(|&(e, u, v)| LocalEdge { edge: EdgeRef::Real(EdgeId(e)), u: VertexId(u), v: VertexId(v) })
            .collect(),
        remote_edges,
        isolated_vertices: id as u64,
    }
}

/// Three leaves; 0 merges into 1 at level 0, 1 into 2 at level 1.
fn chain_tree() -> MergeTree {
    let pair = |parent, child| MergePair {
        parent: PartitionId(parent),
        child: PartitionId(child),
        weight: 1,
    };
    MergeTree::from_parts(
        vec![vec![pair(1, 0)], vec![pair(2, 1)]],
        PartitionId(2),
        (0..3).map(PartitionId).collect(),
    )
}

#[test]
fn hand_built_merges_match_the_hashset_oracle() {
    let tree = chain_tree();
    // An edge id repeated within one side (and again on the other), a
    // self-loop ref, parallel cut edges sharing endpoints, refs that
    // survive, and a ref to a leaf the tree does not know.
    let parent = state(
        1,
        &[(100, 10, 11)],
        vec![
            remote(7, 10, 1, 1, 0),
            remote(7, 10, 1, 1, 0),
            remote(3, 11, 2, 1, 0),
            remote(50, 11, 20, 1, 2),
            remote(4, 12, 12, 1, 0),
            remote(51, 11, 30, 1, 9),
        ],
    );
    let child = state(
        0,
        &[(101, 1, 2), (102, 2, 1)],
        vec![
            remote(3, 2, 11, 0, 1),
            remote(8, 1, 10, 0, 1),
            remote(9, 1, 10, 0, 1),
            remote(7, 1, 10, 0, 1),
            remote(52, 2, 21, 0, 2),
            remote(8, 1, 10, 0, 1),
        ],
    );
    let merged = assert_merge_matches_oracle(&parent, &child, &tree, 0);
    let converted: Vec<u64> = merged.local_edges[3..]
        .iter()
        .map(|e| match e.edge {
            EdgeRef::Real(id) => id.0,
            EdgeRef::Virtual(_) => unreachable!(),
        })
        .collect();
    assert_eq!(converted, vec![7, 3, 4, 8, 9], "first occurrence wins, in first-occurrence order");
    assert_eq!(merged.remote_edges.len(), 3);

    // Few edges spread over a huge id range (no dense id span to count in),
    // with the extreme ids repeated.
    let wide = |leaf, other| {
        vec![
            remote(u64::MAX, 1, 2, leaf, other),
            remote(0, 1, 2, leaf, other),
            remote(1 << 40, 1, 2, leaf, other),
            remote(u64::MAX, 3, 4, leaf, other),
            remote(0, 5, 6, leaf, other),
        ]
    };
    assert_merge_matches_oracle(&state(1, &[], wide(1, 0)), &state(0, &[], wide(0, 1)), &tree, 0);

    // Nothing converts; nothing at all.
    assert_merge_matches_oracle(&state(2, &[], vec![]), &state(1, &[(1, 1, 1)], vec![]), &tree, 1);
    assert_merge_matches_oracle(
        &state(2, &[], vec![remote(1, 1, 2, 2, 7)]),
        &state(1, &[], vec![remote(1, 2, 1, 1, 7)]),
        &tree,
        1,
    );
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
                    remote(id, v, v + 1, leaf, other)
                })
                .collect()
        };
        let parent = state(parent_id, &[(900, 1, 2)], refs(&parent_refs, parent_id));
        let child = state(child_id, &[(901, 2, 3)], refs(&child_refs, child_id));
        assert_merge_matches_oracle(&parent, &child, &tree, level);
    }
}
