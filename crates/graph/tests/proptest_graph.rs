//! Property-based tests for the graph substrate.

use euler_graph::{
    connected_components, io, odd_vertices, properties, EdgeId, GraphBuilder, PartitionAssignment, PartitionedGraph,
    VertexId,
};
use proptest::prelude::*;

/// Strategy: a random edge list over up to `max_v` vertices.
fn edge_list(max_v: u64, max_e: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e)
}

proptest! {
    /// The handshaking lemma: the number of odd-degree vertices is even.
    #[test]
    fn odd_degree_vertex_count_is_even(edges in edge_list(40, 200)) {
        let mut b = GraphBuilder::with_vertices(40);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        prop_assert_eq!(odd_vertices(&g).len() % 2, 0);
    }

    /// Sum of degrees equals twice the edge count.
    #[test]
    fn degree_sum_is_twice_edges(edges in edge_list(30, 150)) {
        let mut b = GraphBuilder::with_vertices(30);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let sum: u64 = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }

    /// The CSR arrays hold, for every vertex, exactly the half-edges a naive
    /// per-vertex list gets when each edge is pushed in id order: `(v, e)`
    /// onto `u`'s list, then `(u, e)` onto `v`'s (both onto `u`'s for a loop).
    #[test]
    fn csr_is_faithful(edges in edge_list(25, 120)) {
        let mut b = GraphBuilder::with_vertices(25);
        b.extend_edges(edges.iter().copied());
        let g = b.build().unwrap();
        let mut naive: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); 25];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let e = EdgeId(e as u64);
            naive[u as usize].push((VertexId(v), e));
            naive[v as usize].push((VertexId(u), e));
        }
        for v in g.vertices() {
            prop_assert_eq!(g.degree(v), naive[v.index()].len() as u64);
            prop_assert_eq!(g.neighbors(v), naive[v.index()].as_slice());
        }
    }

    /// Edge-list serialisation round-trips exactly.
    #[test]
    fn edge_list_io_roundtrip(edges in edge_list(20, 80)) {
        let mut b = GraphBuilder::with_vertices(20);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        let e1: Vec<_> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let e2: Vec<_> = g2.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        prop_assert_eq!(e1, e2);
    }

    /// Partitioning conserves vertices and edges: every vertex lands in exactly
    /// one partition, every edge is either local to one partition or a remote
    /// edge in exactly two.
    #[test]
    fn partitioning_conserves_graph(
        edges in edge_list(30, 150),
        labels in prop::collection::vec(0u32..4, 30),
    ) {
        let mut b = GraphBuilder::with_vertices(30);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let a = PartitionAssignment::from_labels(labels, 4).unwrap();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();

        let mut vertex_seen = vec![0u32; g.num_vertices() as usize];
        for p in pg.partitions() {
            for v in p.vertices() {
                vertex_seen[v.index()] += 1;
            }
        }
        prop_assert!(vertex_seen.iter().all(|&c| c == 1));

        let local: u64 = pg.partitions().iter().map(|p| p.num_local_edges()).sum();
        let remote: u64 = pg.partitions().iter().map(|p| p.num_remote_edges()).sum();
        prop_assert_eq!(local + remote / 2, g.num_edges());
        prop_assert_eq!(remote % 2, 0);
        prop_assert_eq!(pg.cut_edges(), remote / 2);
    }

    /// Boundary classification: every boundary vertex has at least one remote
    /// edge, every internal vertex has none.
    #[test]
    fn boundary_vertices_have_remote_edges(
        edges in edge_list(24, 100),
        labels in prop::collection::vec(0u32..3, 24),
    ) {
        let mut b = GraphBuilder::with_vertices(24);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let a = PartitionAssignment::from_labels(labels, 3).unwrap();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        for p in pg.partitions() {
            let rdeg = p.remote_degrees();
            for &v in &p.boundary {
                prop_assert!(rdeg.get(&v).copied().unwrap_or(0) > 0);
            }
            for &v in &p.internal {
                prop_assert_eq!(rdeg.get(&v).copied().unwrap_or(0), 0);
            }
        }
    }

    /// Connected-component labels are consistent with edges: both endpoints of
    /// every edge share a label.
    #[test]
    fn component_labels_respect_edges(edges in edge_list(30, 100)) {
        let mut b = GraphBuilder::with_vertices(30);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let (labels, count) = connected_components(&g);
        prop_assert!(count >= 1 || g.num_vertices() == 0);
        for (_, u, v) in g.edges() {
            prop_assert_eq!(labels[u.index()], labels[v.index()]);
        }
    }

    /// `is_eulerian` accepts exactly the graphs with all-even degrees and one
    /// edge-bearing component.
    #[test]
    fn is_eulerian_matches_definition(edges in edge_list(16, 60)) {
        let mut b = GraphBuilder::with_vertices(16);
        b.extend_edges(edges);
        let g = b.build().unwrap();
        let even = g.vertices().all(|v| g.degree(v).is_multiple_of(2));
        let one_comp = properties::non_trivial_components(&g) <= 1;
        prop_assert_eq!(properties::is_eulerian(&g).is_ok(), even && one_comp);
    }
}

#[test]
fn partition_of_out_of_range_vertex_panics_is_not_required() {
    // Deterministic companion test: assignments built from labels expose
    // partition_of for valid vertices only; check a valid lookup.
    let a = PartitionAssignment::from_labels(vec![0, 1, 0], 2).unwrap();
    assert_eq!(a.partition_of(VertexId(1)).0, 1);
}
