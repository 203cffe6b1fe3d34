//! Level 0 by the partition view: the states a run starts from, converted
//! partition by partition from a [`PartitionedGraph`] — what every run was
//! seeded with before the two-pass level-0 loader of `euler_core`, and the
//! definition the loader is tested against.

use euler_core::merge_tree::{LeafLevels, MergeTree};
use euler_core::state::{EdgeRef, LocalEdge, RemoteRef, WorkingPartition};
use euler_graph::{LocalIndex, MetaGraph, Partition, PartitionedGraph};

/// The merge tree of a partition view's meta-graph and the level-0 state of
/// every partition, each remote edge in the bucket of the merge level that
/// joins its two partitions. No remote ref is dropped: a strategy that
/// deduplicates applies `euler_core::phase2::apply_remote_edge_dedup` to the
/// states.
pub fn partition_view_level0(pg: &PartitionedGraph) -> (MergeTree, Vec<WorkingPartition>) {
    let tree = MergeTree::build(&MetaGraph::from_partitioned(pg));
    let levels = tree.leaf_levels(pg.num_partitions());
    let states = pg.partitions().iter().map(|p| from_partition(p, &levels)).collect();
    (tree, states)
}

/// The level-0 working state of one static graph partition, every remote
/// edge in the bucket `levels` gives the pair of leaves it joins.
///
/// # Panics
/// If `p` has remote edges and `levels` no bucket: a table of a tree that
/// does not merge `p` with anything.
fn from_partition(p: &Partition, levels: &LeafLevels) -> WorkingPartition {
    let local_edges = p.local_edges.iter().map(|&(e, u, v)| LocalEdge { edge: EdgeRef::Real(e), u, v }).collect();
    let mut remote_by_level = vec![Vec::new(); levels.buckets()];
    for r in &p.remote_edges {
        let bucket = &mut remote_by_level[levels.of(p.id, r.remote_partition)];
        bucket.push(RemoteRef { edge: r.edge, local: r.local_vertex, remote: r.remote_vertex });
    }
    let mut wp =
        WorkingPartition { id: p.id, leaves: vec![p.id], level: 0, local_edges, remote_by_level, isolated_vertices: 0 };
    // Count vertices of the original partition that touch no edge at all.
    let with_edges = LocalIndex::from_vertices(
        wp.local_edges.iter().flat_map(|e| [e.u, e.v]).chain(p.remote_edges.iter().map(|r| r.local_vertex)),
    );
    wp.isolated_vertices = p.vertices().filter(|v| !with_edges.contains(*v)).count() as u64;
    wp
}
