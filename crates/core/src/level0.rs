//! Level 0, built once, where it runs: two sequential passes from an edge
//! list in ascending edge id to the level-0 partition states.
//!
//! The paper's machines each hold *their* partition `<I, B, L, R>` from the
//! first step (§3.1). The input — the endpoints section of a mapped `.ecsr`,
//! or [`Graph::edges`] — is already in the order every level-0 vector is in,
//! so level 0 is count-then-fill in the sense of the W-streaming model:
//!
//! * [`scan`] — one pass: local edges per partition, the `P × P` matrix of
//!   cut cells — which *is* the meta-graph ([`Scan::meta`]), and whose row
//!   sums are the weights of the §5 dedup rule — and the degree-0 vertices
//!   per partition.
//! * [`fill`] — one pass: the `Vec<LocalEdge>` / `Vec<RemoteRef>` of the
//!   partitions a `keep` predicate names, at exact capacity, the dedup rule
//!   (the lighter side keeps a cut edge, ties to the smaller id) applied
//!   from the scan's weights.
//!
//! Whoever holds a partition fills it: the in-process backend and workers
//! stepped in place fill everything once, a wire worker pointed at the file
//! ([`FileLevel0`] on the coordinator, its Init tail on the wire) runs both
//! passes itself and fills its own share. The result equals
//! `WorkingPartition::from_partition` over `CsrFile::partitioned` (plus
//! `apply_remote_edge_dedup`), which stay as the oracle.
//!
//! Both passes may run over the bytes of a file opened with
//! [`CsrFile::open_trusted`]: every lookup is checked, an endpoint beyond the
//! assignment is [`GraphError::VertexOutOfRange`], and nothing is sized by a
//! count the pass did not make itself.

use crate::memory_model::state_longs;
use crate::merge_strategy::MergeStrategy;
use crate::pipeline::wire;
use crate::state::{EdgeRef, LocalEdge, RemoteRef, WorkingPartition};
use euler_graph::{
    CsrFile, EdgeId, Graph, GraphError, MetaEdge, MetaGraph, PartitionAssignment, PartitionId,
    VertexId,
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

    /// Remote refs `p` holds at level 0.
    fn remote_refs(&self, p: usize, dedup: bool) -> u64 {
        (0..self.num_partitions())
            .filter(|&q| q != p && (!dedup || self.keeps(p, q)))
            .map(|q| self.cell(p, q))
            .sum()
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

    /// Words of `p`'s level-0 state record — `wire::record_words` of the
    /// state [`fill`] builds, without building it.
    pub fn record_words(&self, p: PartitionId, dedup: bool) -> u64 {
        let local = self.local.get(p.index()).copied().unwrap_or(0);
        wire::record_words_of(1, local, self.remote_refs(p.index(), dedup))
    }
}

/// The endpoint pairs of a mapped file, in edge-id order.
fn file_edges(csr: &CsrFile) -> impl Iterator<Item = (u64, u64)> + '_ {
    csr.endpoints_flat().chunks_exact(2).filter_map(|pair| match pair {
        &[u, v] => Some((u, v)),
        _ => None,
    })
}

fn graph_edges(g: &Graph) -> impl Iterator<Item = (u64, u64)> + '_ {
    g.edges().map(|(_, u, v)| (u.0, v.0))
}

/// [`scan`] over a mapped file: degree 0 is read off the offsets section,
/// as an empty row (`w[0] == w[1]`, no subtraction).
pub(crate) fn scan_file(
    csr: &CsrFile,
    assignment: &PartitionAssignment,
) -> Result<Scan, GraphError> {
    let degree_zero = csr.offsets().windows(2).map(|w| matches!(w, [lo, hi] if lo == hi));
    scan(csr.num_vertices(), file_edges(csr), degree_zero, assignment)
}

/// The level-0 states of a resident graph: both passes, every partition.
pub(crate) fn graph_level0(
    g: &Graph,
    assignment: &PartitionAssignment,
    dedup: bool,
) -> Result<(MetaGraph, Vec<WorkingPartition>), GraphError> {
    let degree_zero = g.vertices().map(|v| g.degree(v) == 0);
    let scan = scan(g.num_vertices(), graph_edges(g), degree_zero, assignment)?;
    let states = fill(graph_edges(g), assignment, &scan, dedup, |_| true)?;
    Ok((scan.meta(), states))
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

/// Pass one. `edges` are the endpoint pairs in ascending edge id,
/// `degree_zero` says per vertex, ascending, whether no edge touches it.
///
/// # Errors
/// [`GraphError::IncompleteAssignment`] unless the assignment covers exactly
/// `num_vertices`; [`GraphError::VertexOutOfRange`] for an endpoint beyond it.
pub(crate) fn scan(
    num_vertices: u64,
    edges: impl Iterator<Item = (u64, u64)>,
    degree_zero: impl Iterator<Item = bool>,
    assignment: &PartitionAssignment,
) -> Result<Scan, GraphError> {
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
    for (u, v) in edges {
        let (pu, pv) = (part_of(labels, u)?, part_of(labels, v)?);
        let count = if pu == pv {
            local.get_mut(pu)
        } else {
            cells.get_mut(pu.min(pv) * p + pu.max(pv))
        };
        *count.ok_or_else(|| beyond(assignment, pu.max(pv)))? += 1;
    }
    let mut isolated = vec![0u64; p];
    for (label, _) in labels.iter().zip(degree_zero).filter(|&(_, zero)| zero) {
        *isolated.get_mut(label.index()).ok_or_else(|| beyond(assignment, label.index()))? += 1;
    }
    let mut scan = Scan { vertices: num_vertices, local, isolated, cells, weights: Vec::new() };
    scan.weights = (0..p).map(|a| scan.remote_refs(a, false)).collect();
    Ok(scan)
}

/// Pass two: the level-0 state of every partition `keep` names, ascending by
/// id, each vector allocated once at the size `scan` counted. `edges` must be
/// the list `scan` was made from.
///
/// # Errors
/// [`GraphError::VertexOutOfRange`] for an endpoint beyond the assignment.
pub(crate) fn fill(
    edges: impl Iterator<Item = (u64, u64)>,
    assignment: &PartitionAssignment,
    scan: &Scan,
    dedup: bool,
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
                remote_edges: Vec::with_capacity(scan.remote_refs(at, dedup) as usize),
                isolated_vertices: count(&scan.isolated),
            })
        })
        .collect();
    for (e, (u, v)) in edges.enumerate() {
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
                state.remote_edges.push(RemoteRef {
                    edge,
                    local,
                    remote,
                    local_leaf: id(here),
                    remote_leaf: id(there),
                });
            }
        }
    }
    Ok(states.into_iter().flatten().collect())
}

/// A level 0 still in its file: the mapped `.ecsr`, the assignment and the
/// scan — everything a backend needs to place the partitions
/// ([`Scan::record_words`]) and to fill them where they will run.
pub(crate) struct FileLevel0<'a> {
    pub csr: &'a CsrFile,
    pub assignment: &'a PartitionAssignment,
    pub scan: Scan,
    /// Whether the run's merge strategy drops duplicate remote refs.
    pub dedup: bool,
}

impl FileLevel0<'_> {
    /// The states of the partitions `keep` names, ascending by id.
    pub fn fill(&self, keep: impl Fn(PartitionId) -> bool) -> Result<Vec<WorkingPartition>, GraphError> {
        fill(file_edges(self.csr), self.assignment, &self.scan, self.dedup, keep)
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
    use crate::phase2::apply_remote_edge_dedup;
    use euler_gen::{eulerize::eulerize, rmat::RmatGenerator, synthetic};
    use euler_graph::{write_csr_file, GraphBuilder, PartitionedGraph};
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
        let mut states: Vec<_> =
            pg.partitions().iter().map(WorkingPartition::from_partition).collect();
        if dedup {
            apply_remote_edge_dedup(&mut states);
        }
        (MetaGraph::from_partitioned(&pg), states)
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
            let mut cases = assignments(g);
            if *family == "fig1" {
                cases.push(("the paper's".into(), fig1_assignment.clone()));
            }
            for (how, a) in &cases {
                let tag = format!("{family}, {how}");
                let scan = scan_file(&csr, a).unwrap();
                let degree_zero = g.vertices().map(|v| g.degree(v) == 0);
                let of_graph = super::scan(g.num_vertices(), graph_edges(g), degree_zero, a).unwrap();
                assert_eq!(scan, of_graph, "{tag}: file and graph scan");
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
                        let tag = format!("{tag}, {strategy}, keep {which}");
                        let expected: Vec<_> = states.iter().filter(|wp| keep(wp.id)).cloned().collect();
                        let level0 = FileLevel0 { csr: &csr, assignment: a, scan: scan.clone(), dedup };
                        let built = level0.fill(keep).unwrap();
                        assert_eq!(built, expected, "{tag}: fill over the file");
                        let of_graph = fill(graph_edges(g), a, &scan, dedup, keep).unwrap();
                        assert_eq!(of_graph, expected, "{tag}: fill over the graph");
                        for wp in &built {
                            assert_eq!(
                                scan.record_words(wp.id, dedup),
                                wire::record_words(wp) as u64,
                                "{tag}: record words of partition {}",
                                wp.id.0
                            );
                            // Exact capacity: nothing grew, nothing is spare.
                            assert_eq!(wp.local_edges.capacity(), wp.local_edges.len(), "{tag}");
                            assert_eq!(wp.remote_edges.capacity(), wp.remote_edges.len(), "{tag}");
                        }
                    }
                    let (meta, all) = graph_level0(g, a, dedup).unwrap();
                    assert_eq!((meta.edges, all), (scan.meta().edges, states), "{tag}, {strategy}");
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
            graph_level0(&g, &short, false),
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
        let scan_of_good = scan_file(&good, &a).unwrap();
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
            refused(scan_file(&trusted, &a).map(drop));
            let level0 = FileLevel0 { csr: &trusted, assignment: &a, scan: scan_of_good.clone(), dedup: true };
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
