//! Partition-centric view of a graph (§3.1 of the paper).
//!
//! A graph partitioned into `n` parts is `G = {P_1, ..., P_n}` where each
//! partition `P_i = <I_i, B_i, L_i, R_i>` holds its internal vertices,
//! boundary vertices, local edges and remote edges. Local edges connect two
//! vertices of the same partition; remote edges connect a boundary vertex to a
//! vertex of another partition. As in the paper's baseline design, every
//! remote edge is stored by *both* incident partitions (the pair of directed
//! edges view); the Sec.-5 "avoid remote edge duplication" strategy relaxes
//! this in `euler-core`.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, PartitionId, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Mapping from every vertex of a graph to its partition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionAssignment {
    assignment: Vec<PartitionId>,
    num_partitions: u32,
}

impl PartitionAssignment {
    /// Creates an assignment from a per-vertex vector of partition ids.
    ///
    /// # Errors
    /// Returns [`GraphError::PartitionOutOfRange`] if any entry is `>=
    /// num_partitions`.
    pub fn new(assignment: Vec<PartitionId>, num_partitions: u32) -> Result<Self, GraphError> {
        for &p in &assignment {
            if p.0 >= num_partitions {
                return Err(GraphError::PartitionOutOfRange { partition: p, num_partitions });
            }
        }
        Ok(PartitionAssignment { assignment, num_partitions })
    }

    /// Builds an assignment from raw `u32` labels.
    pub fn from_labels(labels: Vec<u32>, num_partitions: u32) -> Result<Self, GraphError> {
        Self::new(labels.into_iter().map(PartitionId).collect(), num_partitions)
    }

    /// Partition of vertex `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        self.assignment[v.index()]
    }

    /// The label of every vertex, in vertex order; each is below
    /// [`num_partitions`](Self::num_partitions). The checked way to look a
    /// vertex up (`labels().get(..)`) for ids that come from unvalidated
    /// bytes.
    #[inline]
    pub fn labels(&self) -> &[PartitionId] {
        &self.assignment
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Number of vertices covered by the assignment.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.assignment.len() as u64
    }

    /// Number of vertices assigned to each partition.
    pub fn partition_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.num_partitions as usize];
        for p in &self.assignment {
            sizes[p.index()] += 1;
        }
        sizes
    }

    /// Peak vertex imbalance across partitions, as defined in Table 1 of the
    /// paper: `max_i | (|V| - n * |V_i|) / |V| |`.
    pub fn imbalance(&self) -> f64 {
        let total = self.assignment.len() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let n = self.num_partitions as f64;
        self.partition_sizes()
            .iter()
            .map(|&s| ((total - n * s as f64) / total).abs())
            .fold(0.0, f64::max)
    }
}

/// A remote edge as seen from one of its incident partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteEdge {
    /// Identifier of the underlying graph edge.
    pub edge: EdgeId,
    /// The endpoint inside this partition (a boundary vertex).
    pub local_vertex: VertexId,
    /// The endpoint inside the other partition.
    pub remote_vertex: VertexId,
    /// The partition owning the remote endpoint.
    pub remote_partition: PartitionId,
}

/// One partition `P_i = <I_i, B_i, L_i, R_i>` of a partitioned graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Partition {
    /// Partition identifier.
    pub id: PartitionId,
    /// Internal vertices: all incident edges are local.
    pub internal: Vec<VertexId>,
    /// Boundary vertices: at least one incident edge is remote.
    pub boundary: Vec<VertexId>,
    /// Local edges with their endpoints, so the partition is self-contained.
    pub local_edges: Vec<(EdgeId, VertexId, VertexId)>,
    /// Remote edges incident on this partition's boundary vertices.
    pub remote_edges: Vec<RemoteEdge>,
}

impl Partition {
    /// Creates an empty partition with the given id.
    pub fn new(id: PartitionId) -> Self {
        Partition { id, ..Default::default() }
    }

    /// All vertices of the partition (internal then boundary).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.internal.iter().chain(self.boundary.iter()).copied()
    }

    /// Number of vertices in the partition.
    pub fn num_vertices(&self) -> u64 {
        (self.internal.len() + self.boundary.len()) as u64
    }

    /// Local (undirected) edge count `|L_i|`.
    pub fn num_local_edges(&self) -> u64 {
        self.local_edges.len() as u64
    }

    /// Remote edge count `|R_i|` (each remote edge counted once per incident
    /// partition, i.e. the directed-pair view of the paper).
    pub fn num_remote_edges(&self) -> u64 {
        self.remote_edges.len() as u64
    }

    /// Local degree `δ_L(v)` of every vertex, as a map.
    pub fn local_degrees(&self) -> HashMap<VertexId, u64> {
        let mut deg: HashMap<VertexId, u64> = HashMap::new();
        for v in self.vertices() {
            deg.insert(v, 0);
        }
        for &(_, u, v) in &self.local_edges {
            *deg.entry(u).or_insert(0) += 1;
            *deg.entry(v).or_insert(0) += 1;
        }
        deg
    }

    /// Remote degree `δ_R(v)` of every boundary vertex, as a map.
    pub fn remote_degrees(&self) -> HashMap<VertexId, u64> {
        let mut deg: HashMap<VertexId, u64> = HashMap::new();
        for r in &self.remote_edges {
            *deg.entry(r.local_vertex).or_insert(0) += 1;
        }
        deg
    }

    /// Boundary vertices with odd local degree (`OB_i`) and with even local
    /// degree (`EB_i`), in that order.
    pub fn classify_boundary(&self) -> (Vec<VertexId>, Vec<VertexId>) {
        let deg = self.local_degrees();
        let mut odd = Vec::new();
        let mut even = Vec::new();
        for &v in &self.boundary {
            if deg.get(&v).copied().unwrap_or(0) % 2 == 1 {
                odd.push(v);
            } else {
                even.push(v);
            }
        }
        (odd, even)
    }

    /// The expected Phase-1 work for this partition, `O(|B_i| + |I_i| +
    /// |L_i|)` (§3.5 of the paper). Used by the Fig.-7 harness.
    pub fn phase1_complexity(&self) -> u64 {
        self.boundary.len() as u64 + self.internal.len() as u64 + self.num_local_edges()
    }

    /// Memory state of the partition in 8-byte Longs, following the paper's
    /// accounting: one Long per vertex id, three Longs per local edge
    /// (edge id + two endpoints), and four Longs per remote edge (edge id,
    /// local vertex, remote vertex, remote partition).
    pub fn memory_longs(&self) -> u64 {
        self.num_vertices() + 3 * self.num_local_edges() + 4 * self.num_remote_edges()
    }
}

/// A graph partitioned into `n` parts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionedGraph {
    partitions: Vec<Partition>,
    num_vertices: u64,
    num_edges: u64,
    cut_edges: u64,
}

impl PartitionedGraph {
    /// Splits `g` according to `assignment`, producing one [`Partition`] per
    /// partition id. Every remote edge appears in both incident partitions.
    ///
    /// # Errors
    /// Returns [`GraphError::IncompleteAssignment`] if the assignment does not
    /// cover every vertex of `g`.
    pub fn from_assignment(g: &Graph, assignment: &PartitionAssignment) -> Result<Self, GraphError> {
        build_partition_view(g.num_vertices(), g.num_edges(), assignment, g.edges())
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of undirected edges of the underlying graph.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of undirected edges whose endpoints lie in different partitions.
    pub fn cut_edges(&self) -> u64 {
        self.cut_edges
    }

    /// Fraction of edges that are cut, `Σ|R_i| / |E|` in the paper's
    /// bi-directed accounting (equal to cut edges over undirected edges).
    pub fn cut_fraction(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.num_edges as f64
        }
    }

    /// Total number of boundary vertices across all partitions, `Σ|B_i|`.
    pub fn total_boundary_vertices(&self) -> u64 {
        self.partitions.iter().map(|p| p.boundary.len() as u64).sum()
    }

    /// Total memory state of all partitions in Longs.
    pub fn memory_longs(&self) -> u64 {
        self.partitions.iter().map(|p| p.memory_longs()).sum()
    }
}

/// The one partition-view construction behind both
/// [`PartitionedGraph::from_assignment`] and the [`crate::csr_file`] direct
/// slicer: routes each edge as local or remote (remote edges recorded by
/// both incident partitions, the paper's directed-pair view) and classifies
/// every vertex as internal or boundary. Taking the edges as an iterator is
/// what lets the CSR path feed the mapped endpoints section straight in
/// without materialising a [`Graph`] — both callers must therefore stay on
/// this helper so their partition views remain bit-identical.
///
/// # Errors
/// [`GraphError::IncompleteAssignment`] when the assignment does not cover
/// `num_vertices`; [`GraphError::VertexOutOfRange`] for an edge endpoint
/// beyond it (the edges of a [`crate::CsrFile::open_trusted`] file are
/// unvalidated).
pub(crate) fn build_partition_view(
    num_vertices: u64,
    num_edges: u64,
    assignment: &PartitionAssignment,
    edges: impl Iterator<Item = (EdgeId, VertexId, VertexId)>,
) -> Result<PartitionedGraph, GraphError> {
    if assignment.num_vertices() != num_vertices {
        return Err(GraphError::IncompleteAssignment {
            expected: num_vertices,
            actual: assignment.num_vertices(),
        });
    }
    let n = assignment.num_partitions() as usize;
    let mut partitions: Vec<Partition> = (0..n).map(|i| Partition::new(PartitionId(i as u32))).collect();
    let mut is_boundary = vec![false; num_vertices as usize];
    let mut cut_edges = 0u64;

    let part = |v: VertexId| {
        let label = usize::try_from(v.0).ok().and_then(|at| assignment.labels().get(at));
        label.copied().ok_or(GraphError::VertexOutOfRange { vertex: v, num_vertices })
    };
    for (e, u, v) in edges {
        let (pu, pv) = (part(u)?, part(v)?);
        if pu == pv {
            partitions[pu.index()].local_edges.push((e, u, v));
        } else {
            cut_edges += 1;
            is_boundary[u.index()] = true;
            is_boundary[v.index()] = true;
            partitions[pu.index()].remote_edges.push(RemoteEdge {
                edge: e,
                local_vertex: u,
                remote_vertex: v,
                remote_partition: pv,
            });
            partitions[pv.index()].remote_edges.push(RemoteEdge {
                edge: e,
                local_vertex: v,
                remote_vertex: u,
                remote_partition: pu,
            });
        }
    }
    for v in (0..num_vertices).map(VertexId) {
        let p = assignment.partition_of(v);
        if is_boundary[v.index()] {
            partitions[p.index()].boundary.push(v);
        } else {
            partitions[p.index()].internal.push(v);
        }
    }
    Ok(PartitionedGraph { partitions, num_vertices, num_edges, cut_edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    /// The Fig.-1a graph of the paper: 14 vertices, 4 partitions.
    /// Vertex numbering follows the paper (1-based there, 0-based here by
    /// subtracting 1).
    pub(crate) fn fig1_graph() -> (Graph, PartitionAssignment) {
        let edges = [
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (3, 5),
            (3, 13),
            (12, 13),
            (11, 12),
            (6, 11),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 12),
            (12, 14),
            (1, 14),
        ];
        let edges: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (u - 1, v - 1)).collect();
        let mut b = crate::builder::GraphBuilder::with_vertices(14);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        // P1 = {v1, v2, v14}, P2 = {v3, v4, v5}, P3 = {v6..v9}, P4 = {v10..v13}
        let labels = vec![0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0];
        let assignment = PartitionAssignment::from_labels(labels, 4).unwrap();
        (g, assignment)
    }

    #[test]
    fn fig1_partition_structure() {
        let (g, a) = fig1_graph();
        crate::properties::is_eulerian(&g).unwrap();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        assert_eq!(pg.num_partitions(), 4);
        // Remote (cut) edges in Fig. 1a: e2,3  e3,13  e6,11  e9,10  e12,14  e1,14 is local to P1?
        // v1 and v14 are both in P0, so e1,14 is local; cut edges are
        // e2,3 (P0-P1), e3,13 (P1-P3), e6,11 (P2-P3), e9,10 (P2-P3), e12,14 (P3-P0).
        assert_eq!(pg.cut_edges(), 5);
        let p1 = &pg.partitions()[1]; // paper's P2 = {v3,v4,v5}
        assert_eq!(p1.num_vertices(), 3);
        assert_eq!(p1.num_local_edges(), 3); // e3,4 e4,5 e3,5
        assert_eq!(p1.boundary, vec![VertexId(2)]); // v3
        let (odd, even) = p1.classify_boundary();
        assert!(odd.is_empty());
        assert_eq!(even, vec![VertexId(2)]); // v3 is an EB with 2 remote edges
        assert_eq!(p1.remote_edges.len(), 2);
    }

    #[test]
    fn fig1_p3_has_two_odd_boundaries() {
        let (g, a) = fig1_graph();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let p3 = &pg.partitions()[2]; // paper's P3 = {v6..v9}
        let (odd, even) = p3.classify_boundary();
        // v6 and v9 each have one remote edge and odd local degree.
        let mut odd_ids: Vec<u64> = odd.iter().map(|v| v.0).collect();
        odd_ids.sort_unstable();
        assert_eq!(odd_ids, vec![5, 8]);
        assert!(even.is_empty());
    }

    #[test]
    fn remote_edges_are_duplicated_across_partitions() {
        let (g, a) = fig1_graph();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let total_remote: u64 = pg.partitions().iter().map(|p| p.num_remote_edges()).sum();
        assert_eq!(total_remote, 2 * pg.cut_edges());
    }

    #[test]
    fn every_vertex_in_exactly_one_partition() {
        let (g, a) = fig1_graph();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let mut seen = vec![0u32; g.num_vertices() as usize];
        for p in pg.partitions() {
            for v in p.vertices() {
                seen[v.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn every_local_edge_in_exactly_one_partition() {
        let (g, a) = fig1_graph();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let local: u64 = pg.partitions().iter().map(|p| p.num_local_edges()).sum();
        assert_eq!(local + pg.cut_edges(), g.num_edges());
    }

    #[test]
    fn assignment_size_mismatch_rejected() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let a = PartitionAssignment::from_labels(vec![0, 1], 2).unwrap();
        assert!(matches!(
            PartitionedGraph::from_assignment(&g, &a),
            Err(GraphError::IncompleteAssignment { .. })
        ));
    }

    #[test]
    fn assignment_label_out_of_range_rejected() {
        assert!(PartitionAssignment::from_labels(vec![0, 2], 2).is_err());
    }

    #[test]
    fn imbalance_of_balanced_assignment_is_zero() {
        let a = PartitionAssignment::from_labels(vec![0, 0, 1, 1], 2).unwrap();
        assert!(a.imbalance().abs() < 1e-12);
        assert_eq!(a.partition_sizes(), vec![2, 2]);
    }

    #[test]
    fn imbalance_matches_table1_definition() {
        // 4 vertices, 2 partitions, sizes 3 and 1: max |(4 - 2*3)/4|, |(4-2*1)/4| = 0.5
        let a = PartitionAssignment::from_labels(vec![0, 0, 0, 1], 2).unwrap();
        assert!((a.imbalance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase1_complexity_counts_b_i_l() {
        let (g, a) = fig1_graph();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let p1 = &pg.partitions()[1];
        assert_eq!(p1.phase1_complexity(), 1 + 2 + 3); // B=1 (v3), I=2 (v4,v5), L=3
    }

    #[test]
    fn memory_longs_positive_and_additive() {
        let (g, a) = fig1_graph();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let sum: u64 = pg.partitions().iter().map(|p| p.memory_longs()).sum();
        assert_eq!(sum, pg.memory_longs());
        assert!(sum > 0);
    }
}
