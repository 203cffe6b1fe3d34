//! The Eulerizer: converts an arbitrary graph into an Eulerian one.
//!
//! The paper's custom tool "adds additional edges between vertices that have
//! an odd degree, to make the graph Eulerian", while keeping the degree
//! distribution of the modified graph close to the original (Fig. 4); in
//! practice the extra edges amount to ≈5 % of the graph.
//!
//! This module reproduces that tool. Odd-degree vertices are paired up and an
//! edge is added between the vertices of each pair. To keep the degree
//! distribution close to the original, pairing prefers vertices of similar
//! degree (sorting odd vertices by degree and pairing neighbours in that
//! order) — a hub gains one edge and a leaf gains one edge, rather than
//! creating artificial hub-to-leaf shortcuts that distort the tail of the
//! distribution. Optionally the resulting graph can also be connected (the
//! Euler circuit requires all edges in one component) by adding *pairs* of
//! edges between components, which preserves the even-degree invariant.

use euler_graph::{odd_vertices, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Statistics about one Eulerization run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct EulerizeReport {
    /// Number of odd-degree vertices found in the input.
    pub odd_vertices: u64,
    /// Edges added to fix parity (one per pair of odd vertices).
    pub parity_edges_added: u64,
    /// Edges added to connect components (always an even count).
    pub connectivity_edges_added: u64,
    /// Edge count of the input graph.
    pub original_edges: u64,
    /// Edge count of the output graph.
    pub final_edges: u64,
}

impl EulerizeReport {
    /// Fraction of extra edges relative to the original edge count (the paper
    /// reports ≈5 %).
    pub fn extra_edge_fraction(&self) -> f64 {
        if self.original_edges == 0 {
            0.0
        } else {
            (self.final_edges - self.original_edges) as f64 / self.original_edges as f64
        }
    }
}

/// Options for [`eulerize_with`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EulerizeOptions {
    /// Also connect edge-bearing components so a single circuit exists.
    pub connect_components: bool,
}

impl Default for EulerizeOptions {
    fn default() -> Self {
        EulerizeOptions { connect_components: true }
    }
}

/// Eulerizes `g` with default options (parity fix + connectivity fix).
pub fn eulerize(g: &Graph) -> (Graph, EulerizeReport) {
    eulerize_with(g, EulerizeOptions::default())
}

/// Eulerizes `g`: adds edges pairing odd-degree vertices so that every vertex
/// has even degree, and (optionally) adds edge pairs between edge-bearing
/// components so all edges lie in one component.
///
/// The output keeps `g`'s edges and ids and appends the parity edges, then
/// the connectivity pairs, in one [`Graph::with_edges_appended`].
pub fn eulerize_with(g: &Graph, opts: EulerizeOptions) -> (Graph, EulerizeReport) {
    let mut report = EulerizeReport {
        original_edges: g.num_edges(),
        ..Default::default()
    };

    // 1. Parity: pair odd-degree vertices, preferring similar degrees so the
    //    degree distribution shifts by at most one per vertex.
    let mut odd: Vec<VertexId> = odd_vertices(g);
    report.odd_vertices = odd.len() as u64;
    odd.sort_by_key(|&v| (g.degree(v), v));
    let mut extra: Vec<(VertexId, VertexId)> = odd.chunks_exact(2).map(|pair| (pair[0], pair[1])).collect();
    report.parity_edges_added = extra.len() as u64;

    // 2. Connectivity: link edge-bearing components with *pairs* of edges so
    //    parity is preserved. Components are chained onto the first one.
    if opts.connect_components {
        let reps = component_representatives(g, &extra);
        for w in reps.windows(2) {
            extra.extend([(w[0], w[1]), (w[0], w[1])]);
            report.connectivity_edges_added += 2;
        }
    }

    let out = g.with_edges_appended(&extra).expect("eulerizing edges join vertices of g");
    report.final_edges = out.num_edges();
    (out, report)
}

/// One vertex of every edge-bearing component of `g` with the `extra` edges
/// appended: the first endpoint of its lowest-id edge. Components come in
/// ascending order of their smallest vertex, the order in which
/// [`euler_graph::properties::connected_components`] numbers them.
fn component_representatives(g: &Graph, extra: &[(VertexId, VertexId)]) -> Vec<VertexId> {
    let edges = || g.edges().map(|(_, u, v)| (u, v)).chain(extra.iter().copied());
    // Union-find whose roots are their components' smallest vertices: a union
    // hangs the larger root under the smaller one.
    let mut parent: Vec<usize> = (0..g.num_vertices() as usize).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (u, v) in edges() {
        let (a, b) = (find(&mut parent, u.index()), find(&mut parent, v.index()));
        parent[a.max(b)] = a.min(b);
    }
    let mut rep: Vec<Option<VertexId>> = vec![None; g.num_vertices() as usize];
    for (u, _) in edges() {
        let root = find(&mut parent, u.index());
        rep[root].get_or_insert(u);
    }
    rep.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::builder::graph_from_edges;
    use euler_graph::is_eulerian;

    #[test]
    fn path_graph_becomes_eulerian() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let (e, report) = eulerize(&g);
        assert!(is_eulerian(&e).is_ok());
        assert_eq!(report.odd_vertices, 2);
        assert_eq!(report.parity_edges_added, 1);
        assert_eq!(e.num_edges(), 4);
    }

    #[test]
    fn already_eulerian_graph_untouched() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let (e, report) = eulerize(&g);
        assert_eq!(e.num_edges(), g.num_edges());
        assert_eq!(report.parity_edges_added, 0);
        assert_eq!(report.connectivity_edges_added, 0);
        assert_eq!(report.extra_edge_fraction(), 0.0);
    }

    #[test]
    fn disconnected_components_are_joined() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let (e, report) = eulerize(&g);
        assert!(is_eulerian(&e).is_ok());
        assert_eq!(report.connectivity_edges_added, 2);
    }

    #[test]
    fn connectivity_fix_can_be_disabled() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let (e, report) = eulerize_with(&g, EulerizeOptions { connect_components: false });
        assert_eq!(report.connectivity_edges_added, 0);
        assert!(is_eulerian(&e).is_err());
        assert!(euler_graph::properties::all_degrees_even(&e));
    }

    #[test]
    fn star_graph_parity_fixed() {
        // Star with centre 0 and 5 leaves: centre has odd degree 5, all leaves odd degree 1.
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let (e, report) = eulerize(&g);
        assert!(is_eulerian(&e).is_ok());
        assert_eq!(report.odd_vertices, 6);
        assert_eq!(report.parity_edges_added, 3);
    }

    #[test]
    fn degree_shift_is_at_most_one_per_parity_edge() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (e, _) = eulerize(&g);
        for v in g.vertices() {
            assert!(e.degree(v) >= g.degree(v));
            assert!(e.degree(v) <= g.degree(v) + 2, "vertex {v} grew too much");
        }
    }

    #[test]
    fn representatives_follow_the_component_numbering() {
        use euler_graph::{properties, GraphBuilder};
        // Sparse R-MAT graphs with scattered isolated vertices: dozens of
        // components, numbered by `connected_components` in ascending order
        // of their smallest vertex.
        for seed in 0..6 {
            let r = crate::rmat::RmatGenerator::new(9).with_seed(seed).with_avg_degree(0.5).generate();
            let (labels, count) = properties::connected_components(&r);
            let mut oracle: Vec<Option<VertexId>> = vec![None; count];
            for (_, u, _) in r.edges() {
                oracle[labels[u.index()] as usize].get_or_insert(u);
            }
            let oracle: Vec<VertexId> = oracle.into_iter().flatten().collect();
            assert!(oracle.len() > 5, "seed {seed}: only {} components", oracle.len());
            assert_eq!(component_representatives(&r, &[]), oracle, "seed {seed}");
        }
        let mut b = GraphBuilder::with_vertices(6);
        b.extend_edges([(5, 4), (1, 1), (3, 0)]);
        let g = b.build().unwrap();
        assert_eq!(component_representatives(&g, &[]), [VertexId(3), VertexId(1), VertexId(5)]);
        // An appended edge joins the components of v3 and v1, whose lowest
        // edge is the loop at v1.
        assert_eq!(component_representatives(&g, &[(VertexId(1), VertexId(3))]), [VertexId(1), VertexId(5)]);
    }

    #[test]
    fn report_extra_fraction_small_for_rmat_like_input() {
        use crate::rmat::RmatGenerator;
        let g = RmatGenerator::new(10).with_seed(5).generate();
        let (e, report) = eulerize(&g);
        assert!(is_eulerian(&e).is_ok());
        // The paper observes ~5 % extra edges; allow a generous bound here.
        assert!(report.extra_edge_fraction() < 0.60, "fraction {}", report.extra_edge_fraction());
        assert!(report.final_edges > report.original_edges);
    }
}
