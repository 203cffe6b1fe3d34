//! Level 0, built once, where it runs: two sequential passes from an edge
//! list in ascending edge id to the level-0 partition states.
//!
//! The paper's machines each hold *their* partition `<I, B, L, R>` from the
//! first step (§3.1). The input — one [`EdgeArrays`] view, a resident
//! graph's or a mapped `.ecsr`'s — is already in the order every level-0
//! vector is in, so level 0 is count-then-fill in the sense of the
//! W-streaming model:
//!
//! * [`scan`] — one pass: local edges per partition, the `P × P` matrix of
//!   cut cells — which *is* the meta-graph ([`Scan::meta`]), and whose row
//!   sums are the weights of the §5 dedup rule — and the degree-0 vertices
//!   per partition.
//! * [`fill`] — one pass: the `Vec<LocalEdge>` and the per-level
//!   `Vec<RemoteRef>` buckets of the partitions a `keep` predicate names,
//!   each at exact capacity, the dedup rule (the lighter side keeps a cut
//!   edge, ties to the smaller id) applied from the scan's weights. A cut
//!   edge goes straight into the bucket of the merge level that joins its
//!   two partitions, read off the run's [`LeafLevels`] table; a bucket's
//!   size is the sum of the cut cells that table files in it.
//!
//! Whoever holds a partition fills it ([`Level0`] on the coordinator): the
//! in-process backend and workers stepped in place fill everything once, a
//! wire worker pointed at the input's file (its Init tail on the wire) runs
//! both passes itself and fills its own share. The result equals
//! `WorkingPartition::from_partition` over `CsrFile::partitioned` (plus
//! `apply_remote_edge_dedup`), which stay as the oracle. Fill needs the
//! merge tree, which needs the scan's meta-graph: the tree is built between
//! the two passes.
//!
//! Both passes may run over the bytes of a file opened with
//! [`CsrFile::open_trusted`]: every lookup is checked, an endpoint beyond the
//! assignment is [`GraphError::VertexOutOfRange`], and nothing is sized by a
//! count the pass did not make itself.

use crate::memory_model::state_longs;
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::LeafLevels;
use crate::pipeline::wire;
use crate::state::{EdgeRef, LocalEdge, RemoteRef, WorkingPartition};
use euler_graph::{
    CsrFile, EdgeArrays, EdgeId, GraphError, MetaEdge, MetaGraph, PartitionAssignment,
    PartitionId, VertexId,
};

/// What one pass over the edges knows about level 0, per partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Scan {
    /// Vertices of the graph.
    vertices: u64,
    /// Local edges.
    local: Vec<u64>,
    /// Vertices no edge touches.
    isolated: Vec<u64>,
    /// `cells[a * P + b]`, `a < b`: the cut edges between `a` and `b`.
    cells: Vec<u64>,
    /// Cut edges incident on the partition — its remote refs before dedup,
    /// the weight the dedup rule compares.
    weights: Vec<u64>,
}

impl Scan {
    fn num_partitions(&self) -> usize {
        self.local.len()
    }

    /// Cut edges between `a` and `b`.
    fn cell(&self, a: usize, b: usize) -> u64 {
        let (lo, hi) = (a.min(b), a.max(b));
        self.cells.get(lo * self.num_partitions() + hi).copied().unwrap_or(0)
    }

    /// The partition meta-graph: one meta-edge per non-empty cut cell, in
    /// `(a, b)` order — `MetaGraph::from_partitioned` of the view.
    pub fn meta(&self) -> MetaGraph {
        let p = self.num_partitions();
        let id = |at: usize| PartitionId(at as u32);
        let edges = (0..p)
            .flat_map(|a| (a + 1..p).map(move |b| (a, b)))
            .filter(|&(a, b)| self.cell(a, b) > 0)
            .map(|(a, b)| MetaEdge { a: id(a), b: id(b), weight: self.cell(a, b) })
            .collect();
        MetaGraph { vertices: (0..p).map(id).collect(), edges }
    }

    /// The §5 rule: of the two partitions a cut edge joins, the one with
    /// fewer remote refs keeps its copy, ties going to the smaller id.
    fn keeps(&self, p: usize, other: usize) -> bool {
        let weight = |at: usize| self.weights.get(at).copied().unwrap_or(0);
        (weight(p), p) < (weight(other), other)
    }

    /// The partitions `p` holds remote refs to at level 0, with how many.
    fn cut_of(&self, p: usize, dedup: bool) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.num_partitions())
            .filter(move |&q| q != p && (!dedup || self.keeps(p, q)))
            .map(move |q| (q, self.cell(p, q)))
    }

    /// Remote refs `p` holds at level 0.
    fn remote_refs(&self, p: usize, dedup: bool) -> u64 {
        self.cut_of(p, dedup).map(|(_, refs)| refs).sum()
    }

    /// Remote refs `p` holds at level 0, per bucket of `levels`.
    fn bucket_sizes(&self, p: usize, dedup: bool, levels: &LeafLevels) -> Vec<u64> {
        let mut sizes = vec![0u64; levels.buckets()];
        let id = |at: usize| PartitionId(at as u32);
        for (q, refs) in self.cut_of(p, dedup) {
            if let Some(size) = sizes.get_mut(levels.of(id(p), id(q))) {
                *size += refs;
            }
        }
        sizes
    }

    /// Longs of level-0 partition state under `strategy`:
    /// `n + 3·(m − c) + 4·k·c` for `n` vertices, `m` edges and `c` cut edges,
    /// each cut edge held as `k` remote refs (2, or 1 once deduplicated). It
    /// bounds every later level too:
    ///
    /// * a merge turns a cut edge's `4k` Longs of remote refs into the 3 of
    ///   one local edge;
    /// * after Phase 1, a partition's paths become at most as many coarse
    ///   edges, and only its boundary vertices stay;
    /// * so Duplicated and Deduplicated memory never rises above level 0;
    /// * Deferred holds the same vertices and local edges as Deduplicated,
    ///   but counts fewer remote refs.
    ///
    /// Exact for Duplicated, where every vertex is in one partition and every
    /// cut edge in two: on R-MAT 12 × LDG 8 it is 4,096 + 3 · 6,732 +
    /// 8 · 10,404 = 107,524. Deduplicated level 0 leaves out the vertices
    /// whose only edges are cut edges the other side keeps (3 Longs on that
    /// graph), and Deferred counts only the refs each level needs (1.98×).
    pub fn state_bound_longs(&self, strategy: MergeStrategy) -> u64 {
        let copies = if strategy.deduplicates() { 1 } else { 2 };
        let cut: u64 = self.cells.iter().sum();
        state_longs(self.vertices, self.local.iter().sum(), copies * cut)
    }

    /// Longs all the run's fragment records can take: `4 · (m + h · min(c,
    /// ⌊n / 2⌋))` under a merge tree of height `h = ⌈log2 P⌉`. A record is 2
    /// Longs plus 2 a step, with at least one step; the steps are the `m`
    /// edges and one virtual step per path. A path joins two vertices of odd
    /// local degree, each ending one path at its level and each with a cut
    /// edge not yet local, so a level below the root finds at most `min(c,
    /// ⌊n / 2⌋)` paths. A record need not hold a real edge — a path can be
    /// one virtual step, found again a level up — so the steps, not `m`,
    /// bound the records.
    pub fn fragment_bound_longs(&self) -> u64 {
        let height = usize::BITS - self.num_partitions().saturating_sub(1).leading_zeros();
        let cut: u64 = self.cells.iter().sum();
        let edges = self.local.iter().sum::<u64>() + cut;
        4 * (edges + u64::from(height) * cut.min(self.vertices / 2))
    }

    /// Words of `p`'s level-0 state record, its refs in `buckets` buckets —
    /// `wire::record_words` of the state [`fill`] builds, without building
    /// it.
    pub fn record_words(&self, p: PartitionId, dedup: bool, buckets: usize) -> u64 {
        let local = self.local.get(p.index()).copied().unwrap_or(0);
        wire::record_words_of(1, local, buckets as u64, self.remote_refs(p.index(), dedup))
    }
}

/// The partition a vertex id read from the edge list belongs to.
fn part_of(labels: &[PartitionId], v: u64) -> Result<usize, GraphError> {
    let label = usize::try_from(v).ok().and_then(|at| labels.get(at));
    label.map(|p| p.index()).ok_or(GraphError::VertexOutOfRange {
        vertex: VertexId(v),
        num_vertices: labels.len() as u64,
    })
}

/// A label the assignment's own partition count does not cover — ruled out
/// by [`PartitionAssignment`]'s constructor, typed all the same.
fn beyond(assignment: &PartitionAssignment, p: usize) -> GraphError {
    GraphError::PartitionOutOfRange {
        partition: PartitionId(p as u32),
        num_partitions: assignment.num_partitions(),
    }
}

/// Pass one, over the endpoint pairs; the degree-0 vertices are read off
/// the offsets.
///
/// # Errors
/// [`GraphError::IncompleteAssignment`] unless the assignment covers exactly
/// the view's vertices; [`GraphError::VertexOutOfRange`] for an endpoint
/// beyond it.
pub(crate) fn scan(edges: EdgeArrays<'_>, assignment: &PartitionAssignment) -> Result<Scan, GraphError> {
    let num_vertices = edges.num_vertices();
    if assignment.num_vertices() != num_vertices {
        return Err(GraphError::IncompleteAssignment {
            expected: num_vertices,
            actual: assignment.num_vertices(),
        });
    }
    let labels = assignment.labels();
    let p = assignment.num_partitions() as usize;
    let mut local = vec![0u64; p];
    let mut cells = vec![0u64; p * p];
    for (u, v) in edges.pairs() {
        let (pu, pv) = (part_of(labels, u)?, part_of(labels, v)?);
        let count = if pu == pv {
            local.get_mut(pu)
        } else {
            cells.get_mut(pu.min(pv) * p + pu.max(pv))
        };
        *count.ok_or_else(|| beyond(assignment, pu.max(pv)))? += 1;
    }
    let mut isolated = vec![0u64; p];
    for (label, _) in labels.iter().zip(edges.degree_zero()).filter(|&(_, zero)| zero) {
        *isolated.get_mut(label.index()).ok_or_else(|| beyond(assignment, label.index()))? += 1;
    }
    let mut scan = Scan { vertices: num_vertices, local, isolated, cells, weights: Vec::new() };
    scan.weights = (0..p).map(|a| scan.remote_refs(a, false)).collect();
    Ok(scan)
}

/// Pass two: the level-0 state of every partition `keep` names, ascending by
/// id, each vector allocated once at the size `scan` counted — the local
/// edges, and the remote refs per bucket of `levels`, the run's table of its
/// merge tree. `edges` must be the view `scan` was made from.
///
/// # Errors
/// [`GraphError::VertexOutOfRange`] for an endpoint beyond the assignment;
/// [`GraphError::PartitionOutOfRange`] for a cut edge to a partition
/// `levels` has no bucket for — a tree of no level over several partitions.
pub(crate) fn fill(
    edges: EdgeArrays<'_>,
    assignment: &PartitionAssignment,
    scan: &Scan,
    dedup: bool,
    levels: &LeafLevels,
    keep: impl Fn(PartitionId) -> bool,
) -> Result<Vec<WorkingPartition>, GraphError> {
    let labels = assignment.labels();
    let id = |at: usize| PartitionId(at as u32);
    let mut states: Vec<Option<WorkingPartition>> = (0..scan.num_partitions())
        .map(|at| {
            let count = |of: &[u64]| of.get(at).copied().unwrap_or(0);
            keep(id(at)).then(|| WorkingPartition {
                id: id(at),
                leaves: vec![id(at)],
                level: 0,
                local_edges: Vec::with_capacity(count(&scan.local) as usize),
                remote_by_level: scan
                    .bucket_sizes(at, dedup, levels)
                    .into_iter()
                    .map(|size| Vec::with_capacity(size as usize))
                    .collect(),
                isolated_vertices: count(&scan.isolated),
            })
        })
        .collect();
    for (e, (u, v)) in edges.pairs().enumerate() {
        let edge = EdgeId(e as u64);
        let (pu, pv) = (part_of(labels, u)?, part_of(labels, v)?);
        let (u, v) = (VertexId(u), VertexId(v));
        if pu == pv {
            if let Some(Some(state)) = states.get_mut(pu) {
                state.local_edges.push(LocalEdge { edge: EdgeRef::Real(edge), u, v });
            }
            continue;
        }
        for (here, there, local, remote) in [(pu, pv, u, v), (pv, pu, v, u)] {
            if dedup && !scan.keeps(here, there) {
                continue;
            }
            if let Some(Some(state)) = states.get_mut(here) {
                let bucket = state.remote_by_level.get_mut(levels.of(id(here), id(there)));
                bucket.ok_or_else(|| beyond(assignment, there))?.push(RemoteRef { edge, local, remote });
            }
        }
    }
    Ok(states.into_iter().flatten().collect())
}

/// A level 0 still in its edge arrays: the view, the mapped `.ecsr` it reads
/// if any (`None` for a resident graph), the assignment, the scan and the
/// run's leaf-pair level table — everything a backend needs to place the
/// partitions ([`Scan::record_words`]) and to fill them where they will run.
pub(crate) struct Level0<'a> {
    pub edges: EdgeArrays<'a>,
    pub file: Option<&'a CsrFile>,
    pub assignment: &'a PartitionAssignment,
    pub scan: Scan,
    /// Whether the run's merge strategy drops duplicate remote refs.
    pub dedup: bool,
    /// [`crate::merge_tree::MergeTree::leaf_levels`] of the run's tree.
    pub levels: LeafLevels,
}

impl Level0<'_> {
    /// The states of the partitions `keep` names, ascending by id.
    pub fn fill(&self, keep: impl Fn(PartitionId) -> bool) -> Result<Vec<WorkingPartition>, GraphError> {
        fill(self.edges, self.assignment, &self.scan, self.dedup, &self.levels, keep)
    }
}

/// The bound a worker puts on the one allocation of its scan that the file
/// does not size: `P × P` cut cells may not outnumber the file's words. The
/// coordinator points workers at a file only where this holds, and ships
/// states where it does not.
pub(crate) fn cut_matrix_fits(csr: &CsrFile, num_partitions: u32) -> bool {
    u64::from(num_partitions).pow(2) <= csr.file_bytes() / 8
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::merge_strategy::MergeStrategy;
    use crate::merge_tree::MergeTree;
    use crate::phase2::apply_remote_edge_dedup;
    use euler_gen::{eulerize::eulerize, rmat::RmatGenerator, synthetic};
    use euler_graph::{write_csr_file, Graph, GraphBuilder, PartitionedGraph};
    use euler_partition::{BfsPartitioner, HashPartitioner, LdgPartitioner, Partitioner};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("euler-level0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// `from_partition ∘ partitioned` (+ `apply_remote_edge_dedup`): what
    /// every run was seeded with before the loader.
    pub(crate) fn oracle(csr: &CsrFile, a: &PartitionAssignment, dedup: bool) -> (MetaGraph, Vec<WorkingPartition>) {
        let pg: PartitionedGraph = csr.partitioned(a).unwrap();
        let meta = MetaGraph::from_partitioned(&pg);
        let levels = MergeTree::build(&meta).leaf_levels(a.num_partitions());
        let mut states: Vec<_> =
            pg.partitions().iter().map(|p| WorkingPartition::from_partition(p, &levels)).collect();
        if dedup {
            apply_remote_edge_dedup(&mut states, |v| a.partition_of(v));
        }
        (meta, states)
    }

    /// Self-loops, parallel edges (local and cut), inverted endpoints and
    /// vertices no edge touches, over 12 vertices.
    fn multigraph() -> Graph {
        let mut b = GraphBuilder::with_vertices(12);
        b.extend_edges([
            (0, 1), (1, 0), (2, 2), (2, 2), (3, 7), (7, 3), (7, 3), (3, 7),
            (5, 4), (4, 8), (8, 5), (9, 9), (1, 8), (8, 1), (0, 0),
        ]);
        b.build().unwrap()
    }

    fn assignments(g: &Graph) -> Vec<(String, PartitionAssignment)> {
        let mut out = Vec::new();
        for k in [1u32, 3, 8] {
            out.push((format!("hash {k}"), HashPartitioner::new(k).partition(g)));
            out.push((format!("ldg {k}"), LdgPartitioner::new(k).partition(g)));
            out.push((format!("bfs {k}"), BfsPartitioner::new(k).partition(g)));
        }
        // Partitions 1 and 4 of 5 hold no vertex.
        let labels = (0..g.num_vertices()).map(|v| [0, 2, 3][v as usize % 3]).collect();
        out.push(("two empty of 5".into(), PartitionAssignment::from_labels(labels, 5).unwrap()));
        out
    }

    #[test]
    fn the_loader_equals_the_partition_view_oracle() {
        let (fig1, fig1_assignment) = synthetic::paper_fig1();
        let rmat = eulerize(&RmatGenerator::new(9).with_avg_degree(8.0).with_seed(4).generate()).0;
        let families = [
            ("rmat", rmat),
            ("torus", synthetic::torus_grid(12, 12)),
            ("random eulerian", synthetic::random_eulerian_connected(300, 40, 6, 9)),
            ("fig1", fig1),
            ("multigraph", multigraph()),
            ("edgeless", Graph::empty(5)),
        ];
        for (family, g) in &families {
            let path = scratch(&format!("{}.ecsr", family.replace(' ', "-")));
            write_csr_file(g, &path).unwrap();
            let csr = CsrFile::open(&path).unwrap();
            // A resident graph and its file are the same two arrays.
            assert_eq!(g.edge_arrays().offsets, csr.edge_arrays().offsets, "{family}");
            assert_eq!(g.edge_arrays().endpoints, csr.edge_arrays().endpoints, "{family}");
            let views = [("graph", g.edge_arrays(), None), ("file", csr.edge_arrays(), Some(&csr))];
            let mut cases = assignments(g);
            if *family == "fig1" {
                cases.push(("the paper's".into(), fig1_assignment.clone()));
            }
            for (how, a) in &cases {
                let tag = format!("{family}, {how}");
                let scan = super::scan(csr.edge_arrays(), a).unwrap();
                assert_eq!(super::scan(g.edge_arrays(), a).unwrap(), scan, "{tag}: file and graph scan");
                let tree = MergeTree::build(&scan.meta());
                let levels = tree.leaf_levels(a.num_partitions());
                for strategy in MergeStrategy::all() {
                    let dedup = strategy.deduplicates();
                    let (meta, states) = oracle(&csr, a, dedup);
                    assert_eq!(scan.meta().vertices, meta.vertices, "{tag}");
                    assert_eq!(scan.meta().edges, meta.edges, "{tag}: the cut cells are the meta-graph");
                    let keeps: [(&str, &dyn Fn(PartitionId) -> bool); 3] = [
                        ("all", &|_| true),
                        ("one worker's share", &|p| p.0 % 2 == 1),
                        ("none", &|_| false),
                    ];
                    for (which, keep) in keeps {
                        let expected: Vec<_> = states.iter().filter(|wp| keep(wp.id)).cloned().collect();
                        for (view, edges, file) in views {
                            let tag = format!("{tag}, {strategy}, keep {which}, fill over the {view}");
                            let (assignment, scan, levels) = (a, scan.clone(), levels.clone());
                            let level0 = Level0 { edges, file, assignment, scan, dedup, levels };
                            let (scan, levels) = (&level0.scan, &level0.levels);
                            let built = level0.fill(keep).unwrap();
                            assert_eq!(built, expected, "{tag}");
                            for wp in &built {
                                assert_eq!(
                                    scan.record_words(wp.id, dedup, levels.buckets()),
                                    wire::record_words(wp) as u64,
                                    "{tag}: record words of partition {}",
                                    wp.id.0
                                );
                                assert_eq!(wp.remote_by_level.len(), tree.height() as usize, "{tag}");
                                // Exact capacity: nothing grew, nothing is spare.
                                assert_eq!(wp.local_edges.capacity(), wp.local_edges.len(), "{tag}");
                                for bucket in &wp.remote_by_level {
                                    assert_eq!(bucket.capacity(), bucket.len(), "{tag}");
                                }
                            }
                        }
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn an_assignment_that_does_not_cover_the_edge_list_is_refused() {
        let g = synthetic::torus_grid(4, 4);
        let short = PartitionAssignment::from_labels(vec![0; 15], 2).unwrap();
        assert!(matches!(
            scan(g.edge_arrays(), &short),
            Err(GraphError::IncompleteAssignment { expected: 16, actual: 15 })
        ));
    }

    /// The satellite bug: `open_trusted` promises nothing about the sections,
    /// and the old slicer indexed the assignment by whatever the endpoints
    /// section said.
    #[test]
    fn an_endpoint_beyond_the_assignment_in_a_trusted_file_is_a_typed_error() {
        let g = synthetic::torus_grid(4, 4);
        let a = HashPartitioner::new(3).partition(&g);
        let path = scratch("corrupt-endpoint.ecsr");
        write_csr_file(&g, &path).unwrap();
        let good = CsrFile::open(&path).unwrap();
        let scan_of_good = scan(good.edge_arrays(), &a).unwrap();
        // Edge 5's second endpoint becomes vertex 16 of 16, then far beyond.
        let mut bytes = std::fs::read(&path).unwrap();
        let word = bytes.len() - 8 * (2 * g.num_edges() as usize) + 8 * (2 * 5 + 1);
        for vertex in [16u64, u64::MAX] {
            bytes[word..word + 8].copy_from_slice(&vertex.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let trusted = CsrFile::open_trusted(&path).unwrap();
            let refused = |r: Result<(), GraphError>| {
                assert!(
                    matches!(r, Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: 16 }) if v.0 == vertex),
                    "{r:?}"
                )
            };
            refused(scan(trusted.edge_arrays(), &a).map(drop));
            let levels = MergeTree::build(&scan_of_good.meta()).leaf_levels(3);
            let (edges, scan) = (trusted.edge_arrays(), scan_of_good.clone());
            let level0 = Level0 { edges, file: Some(&trusted), assignment: &a, scan, dedup: true, levels };
            refused(level0.fill(|_| true).map(drop));
            refused(trusted.partitioned(&a).map(drop));
            assert!(matches!(CsrFile::open(&path), Err(GraphError::CsrFormat(_))));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_cut_matrix_larger_than_the_file_is_not_sent_by_reference() {
        let g = synthetic::cycle(3);
        let path = scratch("triangle.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        assert_eq!(csr.file_bytes() / 8, 32);
        assert!(cut_matrix_fits(&csr, 5));
        assert!(!cut_matrix_fits(&csr, 6));
        assert!(!cut_matrix_fits(&csr, u32::MAX));
        std::fs::remove_file(&path).ok();
    }
}
