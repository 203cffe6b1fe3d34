//! The evolving in-memory state of a (possibly merged) partition.
//!
//! A [`WorkingPartition`] is what a machine holds for one partition at one
//! merge level: the local edges Phase 1 must consume (real graph edges at
//! level 0; a mix of newly-localised former remote edges and coarse virtual
//! edges at higher levels), plus the remote edges that still point at other
//! partitions. Everything else — consumed edges, interior vertices of paths,
//! cycles — lives in the [`crate::FragmentStore`] ("disk") and does not count
//! toward partition memory, exactly as in the paper's design.

use crate::fragment::FragmentId;
use crate::memory_model::state_longs;
use crate::merge_tree::{LeafLevels, MergeTree};
use euler_graph::{EdgeId, LocalIndex, MetaGraph, Partition, PartitionId, PartitionedGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Reference to a traversable local edge: either a real graph edge or a
/// coarse OB-pair edge standing for a lower-level path fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeRef {
    /// A real edge of the input graph.
    Real(EdgeId),
    /// A coarse edge standing for a path fragment.
    Virtual(FragmentId),
}

/// A local edge of a working partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalEdge {
    /// What is being traversed.
    pub edge: EdgeRef,
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
}

/// A remote edge of a working partition: one endpoint here, one in another
/// partition. Which merge makes it local is where it is kept: its bucket in
/// [`WorkingPartition::remote_by_level`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteRef {
    /// The underlying graph edge.
    pub edge: EdgeId,
    /// The endpoint inside this partition.
    pub local: VertexId,
    /// The endpoint inside the other partition.
    pub remote: VertexId,
}

/// Per-partition vertex/edge composition at the start of a Phase-1 run —
/// the quantities plotted per partition and level in Fig. 9.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexTypeCounts {
    /// Internal vertices (no remote edges), necessarily of even local degree.
    pub even_internal: u64,
    /// Boundary vertices with even local degree (`EB`).
    pub even_boundary: u64,
    /// Boundary vertices with odd local degree (`OB`).
    pub odd_boundary: u64,
    /// Remote edges held by the partition.
    pub remote_edges: u64,
    /// Local edges held by the partition.
    pub local_edges: u64,
}

impl VertexTypeCounts {
    /// Total vertices counted.
    pub fn total_vertices(&self) -> u64 {
        self.even_internal + self.even_boundary + self.odd_boundary
    }

    /// The Phase-1 complexity measure `O(|B| + |I| + |L|)` (§3.5).
    pub fn phase1_complexity(&self) -> u64 {
        self.total_vertices() + self.local_edges
    }
}

/// The in-memory state of one (possibly merged) partition at one level.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkingPartition {
    /// Current partition id (the id of the merge-tree parent representing it).
    pub id: PartitionId,
    /// Leaf partitions merged into this one (including itself).
    pub leaves: Vec<PartitionId>,
    /// Merge level this state belongs to (0 = original partitions).
    pub level: u32,
    /// Local edges awaiting consumption by Phase 1 at this level.
    pub local_edges: Vec<LocalEdge>,
    /// Remote edges to partitions not yet merged in, one bucket per merge
    /// level of the tree: `remote_by_level[l]` holds the refs that become
    /// local at the merge after level `l` (so the buckets below
    /// [`level`](Self::level) are empty). Within a bucket, refs are in edge-id
    /// order per leaf, a merge parent's before its children's.
    pub remote_by_level: Vec<Vec<RemoteRef>>,
    /// Vertices that carry no edges at all in this partition (isolated within
    /// the partition). Kept only for faithful vertex accounting at level 0.
    pub isolated_vertices: u64,
}

impl WorkingPartition {
    /// Builds the level-0 working state from a static graph partition, every
    /// remote edge in the bucket `levels` gives the pair of leaves it joins.
    ///
    /// # Panics
    /// If `p` has remote edges and `levels` no bucket: a table of a tree
    /// that does not merge `p` with anything.
    pub fn from_partition(p: &Partition, levels: &LeafLevels) -> Self {
        let local_edges = p
            .local_edges
            .iter()
            .map(|&(e, u, v)| LocalEdge { edge: EdgeRef::Real(e), u, v })
            .collect();
        let mut remote_by_level = vec![Vec::new(); levels.buckets()];
        for r in &p.remote_edges {
            let bucket = &mut remote_by_level[levels.of(p.id, r.remote_partition)];
            bucket.push(RemoteRef { edge: r.edge, local: r.local_vertex, remote: r.remote_vertex });
        }
        let mut wp = WorkingPartition {
            id: p.id,
            leaves: vec![p.id],
            level: 0,
            local_edges,
            remote_by_level,
            isolated_vertices: 0,
        };
        // Count vertices of the original partition that touch no edge at all.
        let with_edges = LocalIndex::from_vertices(
            wp.local_edges
                .iter()
                .flat_map(|e| [e.u, e.v])
                .chain(p.remote_edges.iter().map(|r| r.local_vertex)),
        );
        wp.isolated_vertices = p.vertices().filter(|v| !with_edges.contains(*v)).count() as u64;
        wp
    }

    /// The merge tree of a partition view's meta-graph and the level-0 state
    /// of every partition, bucketed for it ([`from_partition`](Self::from_partition)).
    pub fn from_partitioned(pg: &PartitionedGraph) -> (MergeTree, Vec<Self>) {
        let tree = MergeTree::build(&MetaGraph::from_partitioned(pg));
        let levels = tree.leaf_levels(pg.num_partitions());
        let states = pg.partitions().iter().map(|p| Self::from_partition(p, &levels)).collect();
        (tree, states)
    }

    /// Every remote ref, bucket by bucket.
    pub fn remote_refs(&self) -> impl Iterator<Item = &RemoteRef> + Clone {
        self.remote_by_level.iter().flatten()
    }

    /// Remote refs held, over every bucket.
    pub fn num_remote_edges(&self) -> usize {
        self.remote_by_level.iter().map(Vec::len).sum()
    }

    /// Local degree of every vertex appearing in the local edges. A self-loop
    /// contributes 2.
    pub fn local_degrees(&self) -> HashMap<VertexId, u64> {
        let mut deg: HashMap<VertexId, u64> = HashMap::new();
        for e in &self.local_edges {
            *deg.entry(e.u).or_insert(0) += 1;
            *deg.entry(e.v).or_insert(0) += 1;
        }
        deg
    }

    /// Remote degree of every vertex appearing in the remote edges.
    pub fn remote_degrees(&self) -> HashMap<VertexId, u64> {
        let mut deg: HashMap<VertexId, u64> = HashMap::new();
        for r in self.remote_refs() {
            *deg.entry(r.local).or_insert(0) += 1;
        }
        deg
    }

    /// The partition's boundary vertices (local endpoints of remote edges),
    /// ascending and de-duplicated. Computed without hashing — this is the
    /// start-vertex list for Phase 1's step 2, whose order is part of the
    /// algorithm's determinism contract.
    ///
    /// Linear when the ids are compact (the [`LocalIndex`] policy: a span
    /// under 4 ids per remote edge, or under 1024): one bit per id, scanned
    /// ascending. Sparse id sets fall back to sort + dedup.
    pub fn boundary_vertices_sorted(&self) -> Vec<VertexId> {
        let locals = || self.remote_refs().map(|r| r.local.0);
        let refs = self.num_remote_edges();
        if refs == 0 {
            return Vec::new();
        }
        let (min, max) = locals().fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let span = max - min; // one less than the id count: cannot overflow
        if span >= (refs as u64).saturating_mul(4).max(1024) {
            let mut boundary: Vec<VertexId> = locals().map(VertexId).collect();
            boundary.sort_unstable();
            boundary.dedup();
            return boundary;
        }
        let mut present = vec![0u64; span as usize / 64 + 1];
        for off in locals().map(|v| v - min) {
            present[(off >> 6) as usize] |= 1 << (off & 63);
        }
        let mut boundary = Vec::new();
        for (w, mut bits) in present.into_iter().enumerate() {
            while bits != 0 {
                boundary.push(VertexId(min + w as u64 * 64 + u64::from(bits.trailing_zeros())));
                bits &= bits - 1;
            }
        }
        boundary
    }

    /// Classifies the partition's vertices and edges (Fig.-9 composition),
    /// from a dense index over every vertex the partition retains
    /// (endpoints of local edges plus local endpoints of remote edges). The
    /// Phase-1 kernel reports the same numbers off its own arrays
    /// (`Phase1Output::counts_before`); this is the definition they are
    /// tested against.
    pub fn vertex_type_counts(&self) -> VertexTypeCounts {
        let index = LocalIndex::from_vertices(
            self.local_edges
                .iter()
                .flat_map(|e| [e.u, e.v])
                .chain(self.remote_refs().map(|r| r.local)),
        );
        let mut local_deg: Vec<u32> = index.zeroed();
        for e in &self.local_edges {
            local_deg[index.slot(e.u).expect("interned") as usize] += 1;
            local_deg[index.slot(e.v).expect("interned") as usize] += 1;
        }
        let mut is_boundary: Vec<bool> = index.zeroed();
        for r in self.remote_refs() {
            is_boundary[index.slot(r.local).expect("interned") as usize] = true;
        }
        let mut counts = VertexTypeCounts {
            remote_edges: self.num_remote_edges() as u64,
            local_edges: self.local_edges.len() as u64,
            even_internal: self.isolated_vertices,
            ..Default::default()
        };
        for s in 0..index.len() {
            match (is_boundary[s], local_deg[s] % 2 == 1) {
                (true, true) => counts.odd_boundary += 1,
                (true, false) => counts.even_boundary += 1,
                (false, _) => counts.even_internal += 1,
            }
        }
        counts
    }

    /// In-memory state size in Longs, using the paper's accounting
    /// ([`state_longs`]).
    pub fn memory_longs(&self) -> u64 {
        let c = self.vertex_type_counts();
        state_longs(c.total_vertices(), c.local_edges, c.remote_edges)
    }

    /// True when nothing remains to do for this partition at this level.
    pub fn is_exhausted(&self) -> bool {
        self.local_edges.is_empty() && self.remote_refs().next().is_none()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use euler_gen::synthetic::paper_fig1;

    /// The level-0 states of a partition view under its own merge tree.
    pub(crate) fn working(pg: &PartitionedGraph) -> Vec<WorkingPartition> {
        WorkingPartition::from_partitioned(pg).1
    }

    fn fig1_working() -> Vec<WorkingPartition> {
        let (g, a) = paper_fig1();
        working(&PartitionedGraph::from_assignment(&g, &a).unwrap())
    }

    #[test]
    fn level0_conversion_counts_match_fig1() {
        let wps = fig1_working();
        // Paper's P2 (index 1) = {v3, v4, v5}: 3 local edges, 2 remote edges, 1 EB, 2 internal.
        let p2 = &wps[1];
        assert_eq!(p2.local_edges.len(), 3);
        assert_eq!(p2.num_remote_edges(), 2);
        let c = p2.vertex_type_counts();
        assert_eq!(c.even_boundary, 1);
        assert_eq!(c.odd_boundary, 0);
        assert_eq!(c.even_internal, 2);
        assert_eq!(c.phase1_complexity(), 3 + 3);
    }

    #[test]
    fn fig1_p3_has_two_odd_boundaries() {
        let wps = fig1_working();
        let p3 = &wps[2];
        let c = p3.vertex_type_counts();
        assert_eq!(c.odd_boundary, 2);
        assert_eq!(c.even_boundary, 0);
        assert_eq!(c.even_internal, 2);
    }

    #[test]
    fn memory_longs_positive_and_consistent() {
        for wp in fig1_working() {
            let c = wp.vertex_type_counts();
            assert_eq!(
                wp.memory_longs(),
                c.total_vertices() + 3 * c.local_edges + 4 * c.remote_edges
            );
            assert!(wp.memory_longs() > 0);
        }
    }

    #[test]
    fn degrees_follow_parity_invariant() {
        // Eulerian input: local degree + remote degree is even for every vertex.
        for wp in fig1_working() {
            let local = wp.local_degrees();
            let remote = wp.remote_degrees();
            let mut all: std::collections::HashSet<VertexId> = local.keys().copied().collect();
            all.extend(remote.keys().copied());
            for v in all {
                let total = local.get(&v).copied().unwrap_or(0) + remote.get(&v).copied().unwrap_or(0);
                assert_eq!(total % 2, 0, "vertex {v} has odd total degree");
            }
        }
    }

    #[test]
    fn boundary_vertices_sorted_equals_sort_dedup_on_any_id_span() {
        // Every third ref in a second bucket: the list is read across them.
        let with_locals = |ids: &[u64]| {
            let mut remote_by_level = vec![Vec::new(), Vec::new()];
            for (i, &v) in ids.iter().enumerate() {
                let r = RemoteRef { edge: EdgeId(v ^ 1), local: VertexId(v), remote: VertexId(v.wrapping_add(1)) };
                remote_by_level[usize::from(i % 3 == 2)].push(r);
            }
            WorkingPartition { remote_by_level, ..Default::default() }
        };
        let check = |ids: &[u64]| {
            let mut expect: Vec<VertexId> = ids.iter().map(|&v| VertexId(v)).collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(with_locals(ids).boundary_vertices_sorted(), expect, "ids {ids:?}");
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        check(&[]);
        check(&[0]);
        check(&[u64::MAX]);
        check(&[1 << 40]);
        check(&[7; 50]);
        check(&[u64::MAX; 3]);
        check(&[0, u64::MAX]);
        check(&[0, 1 << 40, u64::MAX, 1 << 40, 0]);
        check(&[u64::MAX - 70, u64::MAX, u64::MAX - 64, u64::MAX - 63]);
        // Either side of the compact/sparse threshold (span 1024 ids).
        for top in [1022u64, 1023, 1024, 1025, 5000] {
            check(&[10, 10 + top, 11, 10 + top / 2]);
        }
        for round in 0..60u64 {
            let len = (rnd() % 400) as usize + 1;
            let base = [0, 1 << 40, u64::MAX - 5000, rnd()][round as usize % 4];
            // Compact: a window about as wide as the list is long.
            let compact: Vec<u64> =
                (0..len).map(|_| base.saturating_add(rnd() % (2 * len as u64 + 1))).collect();
            check(&compact);
            // Sparse: ids all over the id space.
            let sparse: Vec<u64> = (0..len).map(|_| rnd()).collect();
            check(&sparse);
            // Mixed: the compact cluster plus far outliers.
            let mut mixed = compact.clone();
            mixed.extend([0, 1 << 40, u64::MAX]);
            mixed.extend(sparse.iter().take(3));
            check(&mixed);
        }
    }

    #[test]
    fn isolated_vertices_counted() {
        let p = Partition {
            id: PartitionId(0),
            internal: vec![VertexId(0), VertexId(1)],
            boundary: vec![],
            local_edges: vec![],
            remote_edges: vec![],
        };
        let wp = WorkingPartition::from_partition(&p, &LeafLevels::default());
        assert_eq!(wp.isolated_vertices, 2);
        assert!(wp.is_exhausted());
        assert_eq!(wp.vertex_type_counts().even_internal, 2);
    }
}
