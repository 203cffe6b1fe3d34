//! Deterministic and randomised Eulerian graph families.
//!
//! These are used throughout the test suites, examples and benches as inputs
//! whose Eulerian-ness (and often structure) is known by construction:
//!
//! * [`cycle`] — the n-cycle, the simplest Eulerian graph.
//! * [`circulant`] — circulant graphs `C_n(s_1..s_k)`; even-regular and
//!   connected for suitable offsets.
//! * [`torus_grid`] — a wrap-around grid where every vertex has degree 4
//!   (a stylised city street network, the paper's route-planning motivation).
//! * [`random_cycle_union`] — the union of many random cycles; Eulerian by
//!   construction with tunable density.
//! * [`octahedron`] / [`icosahedron`] — polyhedral wireframes with even
//!   degrees (4 and ... the icosahedron has degree 5, so it is Eulerized),
//!   matching the DNA-rendering motivation of the paper's introduction.
//! * [`paper_fig1`] — the exact 14-vertex, 4-partition worked example of
//!   Fig. 1, with its partition assignment.

use euler_graph::{Graph, GraphBuilder, PartitionAssignment};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The cycle graph on `n >= 3` vertices.
pub fn cycle(n: u64) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_vertices(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
    }
    b.build().expect("cycle edges always valid")
}

/// The circulant graph `C_n(offsets)`: vertex `i` is joined to `i ± s` for
/// every offset `s`. With `k` offsets (none equal to `n/2`), the graph is
/// `2k`-regular, hence Eulerian when connected.
pub fn circulant(n: u64, offsets: &[u64]) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::with_vertices(n);
    for &s in offsets {
        assert!(s >= 1 && s < n, "offset must be in 1..n");
        assert!(2 * s != n, "offset n/2 would create odd degree");
        for i in 0..n {
            b.add_edge(i, (i + s) % n);
        }
    }
    b.build().expect("circulant edges always valid")
}

/// A `rows × cols` torus grid: every vertex joined to its 4 wrap-around
/// neighbours, so every vertex has degree 4 and the graph is Eulerian and
/// connected. Models a regular street network.
pub fn torus_grid(rows: u64, cols: u64) -> Graph {
    assert!(rows >= 2 && cols >= 2, "torus needs at least 2x2");
    let idx = |r: u64, c: u64| r * cols + c;
    let mut b = GraphBuilder::with_vertices(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            b.add_edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.build().expect("torus edges always valid")
}

/// The union of `num_cycles` random cycles over `n` vertices, each of length
/// `cycle_len`. Every vertex touched by a cycle gains even degree, so the
/// graph has all-even degrees by construction (it may be disconnected; pass
/// it through the Eulerizer or pick enough cycles to connect it).
pub fn random_cycle_union(n: u64, num_cycles: usize, cycle_len: usize, seed: u64) -> Graph {
    assert!(n >= 3 && cycle_len >= 3);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_vertices(n);
    let all: Vec<u64> = (0..n).collect();
    for _ in 0..num_cycles {
        let verts: Vec<u64> = all.choose_multiple(&mut rng, cycle_len.min(n as usize)).copied().collect();
        for i in 0..verts.len() {
            b.add_edge(verts[i], verts[(i + 1) % verts.len()]);
        }
    }
    b.build().expect("cycle union edges always valid")
}

/// A connected random Eulerian graph: a Hamiltonian backbone cycle over all
/// `n` vertices plus `extra_cycles` random cycles. Connected and all-even by
/// construction — the workhorse input for property tests.
pub fn random_eulerian_connected(n: u64, extra_cycles: usize, cycle_len: usize, seed: u64) -> Graph {
    assert!(n >= 3);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut b = GraphBuilder::with_vertices(n);
    for i in 0..order.len() {
        b.add_edge(order[i], order[(i + 1) % order.len()]);
    }
    let all: Vec<u64> = (0..n).collect();
    for _ in 0..extra_cycles {
        let verts: Vec<u64> = all.choose_multiple(&mut rng, cycle_len.min(n as usize).max(3)).copied().collect();
        for i in 0..verts.len() {
            b.add_edge(verts[i], verts[(i + 1) % verts.len()]);
        }
    }
    b.build().expect("edges always valid")
}

/// A star of cycles — the `mergeInto` splice-storm workload: a core cycle
/// `c_0..c_{k-1}` with one triangle "petal" `(c_i, p_i, q_i)` hanging off
/// every core vertex. All degrees are even (core vertices 4, petal vertices
/// 2), the graph is connected, `3k` vertices and `4k` edges.
///
/// Run single-partition, Phase 1's first traversal consumes the core plus
/// whatever petals it can reach greedily; every remaining petal then walks
/// as a 3-cycle whose only shared vertex is its hub `c_i`, so each one is an
/// internal cycle spliced into the *same* pending fragment. With a
/// `Vec::splice` tour this costs Θ(k) tail-shifting per merge — Θ(k²)
/// total — while the splice-order index links each petal in O(1)+O(3).
pub fn star_of_cycles(k: u64) -> Graph {
    assert!(k >= 3, "the core cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_vertices(3 * k);
    for i in 0..k {
        b.add_edge(i, (i + 1) % k);
    }
    for i in 0..k {
        let (p, q) = (k + 2 * i, k + 2 * i + 1);
        b.add_edge(i, p);
        b.add_edge(p, q);
        b.add_edge(q, i);
    }
    b.build().expect("star-of-cycles edges always valid")
}

/// The octahedron wireframe: 6 vertices, 12 edges, 4-regular — the smallest
/// platonic solid whose skeleton is Eulerian (used by the DNA-rendering
/// example).
pub fn octahedron() -> Graph {
    // Vertices: 0=+x 1=-x 2=+y 3=-y 4=+z 5=-z; every pair except antipodes.
    let mut b = GraphBuilder::with_vertices(6);
    let antipode = [1u64, 0, 3, 2, 5, 4];
    for u in 0..6u64 {
        for v in (u + 1)..6u64 {
            if antipode[u as usize] != v {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("octahedron edges valid")
}

/// The icosahedron wireframe: 12 vertices, 30 edges, 5-regular. Its skeleton
/// is *not* Eulerian (odd degree); callers typically pass it through the
/// Eulerizer, which is exactly the DNA-rendering workflow of the paper's
/// reference \[7\].
pub fn icosahedron() -> Graph {
    // Standard icosahedron adjacency (vertex ids 0..11).
    let edges: [(u64, u64); 30] = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 1),
        (1, 6),
        (1, 7),
        (2, 7),
        (2, 8),
        (3, 8),
        (3, 9),
        (4, 9),
        (4, 10),
        (5, 10),
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 10),
        (10, 6),
        (6, 11),
        (7, 11),
        (8, 11),
        (9, 11),
        (10, 11),
    ];
    let mut b = GraphBuilder::with_vertices(12);
    b.extend_edges(edges.iter().copied());
    b.build().expect("icosahedron edges valid")
}

/// The worked example of the paper's Fig. 1a: 14 vertices, 16 edges, 4
/// partitions. Vertex `v_k` of the paper is vertex `k-1` here. Returns the
/// graph and the partition assignment `P1..P4 -> 0..3`.
pub fn paper_fig1() -> (Graph, PartitionAssignment) {
    let edges = [
        (1u64, 2u64),
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
    let mut b = GraphBuilder::with_vertices(14);
    b.extend_edges(edges.iter().map(|&(u, v)| (u - 1, v - 1)));
    let g = b.build().expect("fig1 edges valid");
    // P1 = {v1, v2, v14}, P2 = {v3, v4, v5}, P3 = {v6..v9}, P4 = {v10..v13}.
    let labels = vec![0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0];
    let assignment = PartitionAssignment::from_labels(labels, 4).expect("4 partitions");
    (g, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::{is_eulerian, odd_vertices, properties};

    #[test]
    fn cycle_is_eulerian() {
        let g = cycle(10);
        assert_eq!(g.num_edges(), 10);
        assert!(is_eulerian(&g).is_ok());
    }

    #[test]
    fn circulant_is_even_regular() {
        let g = circulant(11, &[1, 2, 3]);
        assert!(is_eulerian(&g).is_ok());
        for v in g.vertices() {
            assert_eq!(g.degree(v), 6);
        }
    }

    #[test]
    #[should_panic(expected = "offset n/2")]
    fn circulant_rejects_half_offset() {
        circulant(10, &[5]);
    }

    #[test]
    fn torus_grid_is_4_regular_and_eulerian() {
        let g = torus_grid(5, 7);
        assert_eq!(g.num_vertices(), 35);
        assert_eq!(g.num_edges(), 70);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_eulerian(&g).is_ok());
    }

    #[test]
    fn random_cycle_union_has_even_degrees() {
        let g = random_cycle_union(50, 10, 6, 123);
        assert!(odd_vertices(&g).is_empty());
    }

    #[test]
    fn random_eulerian_connected_is_eulerian() {
        for seed in 0..5 {
            let g = random_eulerian_connected(40, 6, 5, seed);
            assert!(is_eulerian(&g).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn star_of_cycles_is_eulerian_with_expected_shape() {
        let g = star_of_cycles(12);
        assert_eq!(g.num_vertices(), 36);
        assert_eq!(g.num_edges(), 48);
        for v in 0..12u64 {
            assert_eq!(g.degree(euler_graph::VertexId(v)), 4, "core vertex {v}");
        }
        for v in 12..36u64 {
            assert_eq!(g.degree(euler_graph::VertexId(v)), 2, "petal vertex {v}");
        }
        assert!(is_eulerian(&g).is_ok());
    }

    #[test]
    fn octahedron_is_eulerian() {
        let g = octahedron();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 12);
        assert!(is_eulerian(&g).is_ok());
    }

    #[test]
    fn icosahedron_is_5_regular_not_eulerian() {
        let g = icosahedron();
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 30);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 5, "vertex {v}");
        }
        assert!(is_eulerian(&g).is_err());
        assert!(properties::is_connected_on_edges(&g));
    }

    #[test]
    fn fig1_matches_paper_counts() {
        let (g, a) = paper_fig1();
        assert_eq!(g.num_vertices(), 14);
        assert_eq!(g.num_edges(), 16);
        assert!(is_eulerian(&g).is_ok());
        assert_eq!(a.num_partitions(), 4);
        assert_eq!(a.partition_sizes(), vec![3, 3, 4, 4]);
    }

    #[test]
    fn deterministic_generators_are_reproducible() {
        let a = random_eulerian_connected(30, 4, 5, 7);
        let b = random_eulerian_connected(30, 4, 5, 7);
        let ea: Vec<_> = a.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let eb: Vec<_> = b.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(ea, eb);
    }
}
