//! A standalone Euler-circuit checker.
//!
//! It answers the question `euler_core::verify` answers, from the
//! definition and nothing of the core's: the graph's edges and the
//! circuits' steps as plain integers, its own degree count and its own
//! union-find. In order, every degree must be even; every edge must be
//! used exactly once, with its endpoints; each circuit must chain and
//! close; and there must be exactly one circuit per component that has an
//! edge. The last the core finds by vertex owners, this checker by
//! counting circuits per union-find component.

use euler_core::CircuitResult;
use euler_graph::Graph;

/// The verdict of a check: `ok`, or not and the first reason why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EulerCheck {
    /// Whether the circuits are an Euler circuit of every component.
    pub ok: bool,
    /// Why not, naming the vertex, edge or circuit at fault; empty when ok.
    pub reason: String,
}

/// Checks `result` against the edges of `g`.
pub fn check_circuits(g: &Graph, result: &CircuitResult) -> EulerCheck {
    let edges: Vec<(u64, u64)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let circuits: Vec<Vec<Step>> = result
        .circuits
        .iter()
        .map(|c| c.iter().map(|s| Step { edge: s.edge.0, from: s.from.0, to: s.to.0 }).collect())
        .collect();
    match check(g.num_vertices(), &edges, &circuits) {
        Ok(()) => EulerCheck { ok: true, reason: String::new() },
        Err(reason) => EulerCheck { ok: false, reason },
    }
}

/// One step of a circuit: edge `edge` walked from `from` to `to`.
struct Step {
    edge: u64,
    from: u64,
    to: u64,
}

fn check(num_vertices: u64, edges: &[(u64, u64)], circuits: &[Vec<Step>]) -> Result<(), String> {
    // Every degree is even (a self-loop counts twice).
    let mut degree = vec![0u64; num_vertices as usize];
    for &(u, v) in edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    if let Some(v) = degree.iter().position(|d| d % 2 == 1) {
        return Err(format!("vertex {v} has odd degree {}", degree[v]));
    }
    // Every edge is used exactly once, with its endpoints.
    let mut used = vec![false; edges.len()];
    for (c, circuit) in circuits.iter().enumerate() {
        for (i, s) in circuit.iter().enumerate() {
            let Some(&(u, v)) = edges.get(s.edge as usize) else {
                return Err(format!("circuit {c} step {i}: edge {} is not one of the {} edges", s.edge, edges.len()));
            };
            if (s.from, s.to) != (u, v) && (s.from, s.to) != (v, u) {
                return Err(format!(
                    "circuit {c} step {i}: edge {} joins {u} and {v}, not {} and {}",
                    s.edge, s.from, s.to
                ));
            }
            if std::mem::replace(&mut used[s.edge as usize], true) {
                return Err(format!("circuit {c} step {i}: edge {} is used twice", s.edge));
            }
        }
    }
    if let Some(e) = used.iter().position(|&u| !u) {
        let missing = used.iter().filter(|&&u| !u).count();
        return Err(format!("edge {e} is not used ({missing} edges unused)"));
    }
    // Each circuit chains and closes.
    for (c, circuit) in circuits.iter().enumerate() {
        let (Some(first), Some(last)) = (circuit.first(), circuit.last()) else {
            return Err(format!("circuit {c} is empty"));
        };
        if let Some(i) = (1..circuit.len()).find(|&i| circuit[i - 1].to != circuit[i].from) {
            let (before, at) = (&circuit[i - 1], &circuit[i]);
            return Err(format!("circuit {c} breaks at step {i}: {} then {}", before.to, at.from));
        }
        if first.from != last.to {
            return Err(format!("circuit {c} starts at {} and ends at {}", first.from, last.to));
        }
    }
    // Exactly one circuit per component that has an edge.
    let mut components = UnionFind::new(num_vertices);
    for &(u, v) in edges {
        components.union(u, v);
    }
    let mut circuits_of = vec![0u64; num_vertices as usize];
    for circuit in circuits {
        circuits_of[components.find(circuit[0].from) as usize] += 1;
    }
    for &(u, _) in edges {
        let root = components.find(u);
        let count = circuits_of[root as usize];
        if count != 1 {
            return Err(format!("the component of vertex {u} holds {count} circuits"));
        }
    }
    Ok(())
}

/// Disjoint sets over `0..n`, by size, with path halving.
struct UnionFind {
    parent: Vec<u64>,
    size: Vec<u64>,
}

impl UnionFind {
    fn new(n: u64) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n as usize] }
    }

    fn find(&mut self, mut v: u64) -> u64 {
        while self.parent[v as usize] != v {
            let grandparent = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grandparent;
            v = grandparent;
        }
        v
    }

    fn union(&mut self, a: u64, b: u64) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        let (big, small) = if self.size[a as usize] >= self.size[b as usize] { (a, b) } else { (b, a) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::verify::verify_result;
    use euler_core::{CircuitStep, EulerError};
    use euler_graph::builder::graph_from_edges;
    use euler_graph::{EdgeId, VertexId};

    fn result(circuits: &[&[(u64, u64, u64)]]) -> CircuitResult {
        let step = |&(edge, from, to): &(u64, u64, u64)| CircuitStep {
            edge: EdgeId(edge),
            from: VertexId(from),
            to: VertexId(to),
        };
        CircuitResult { circuits: circuits.iter().map(|c| c.iter().map(step).collect()).collect() }
    }

    fn triangle() -> Graph {
        graph_from_edges(&[(0, 1), (1, 2), (2, 0)])
    }

    /// Two triangles sharing vertex 0: one component.
    fn bowtie() -> Graph {
        graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    }

    fn refused(g: &Graph, r: &CircuitResult, why: &str) {
        let check = check_circuits(g, r);
        assert!(!check.ok, "accepted, expected a refusal for {why}");
        assert!(check.reason.contains(why), "{:?} does not say {why:?}", check.reason);
    }

    #[test]
    fn circuits_of_every_component_are_accepted() {
        let ok = |g: &Graph, r: &CircuitResult| {
            assert_eq!(check_circuits(g, r), EulerCheck { ok: true, reason: String::new() })
        };
        ok(&triangle(), &result(&[&[(0, 0, 1), (1, 1, 2), (2, 2, 0)]]));
        ok(&triangle(), &result(&[&[(2, 0, 2), (1, 2, 1), (0, 1, 0)]]));
        ok(&bowtie(), &result(&[&[(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3), (4, 3, 4), (5, 4, 0)]]));
        let two = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 6)]);
        let r = result(&[&[(0, 0, 1), (1, 1, 2), (2, 2, 0)], &[(6, 6, 6)], &[(3, 3, 4), (4, 4, 5), (5, 5, 3)]]);
        ok(&two, &r);
        // No edges, no circuits.
        ok(&Graph::empty(3), &result(&[]));
    }

    #[test]
    fn an_odd_degree_is_refused() {
        let path = graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
        refused(&path, &result(&[&[(0, 0, 1), (1, 1, 2), (2, 2, 3)]]), "vertex 0 has odd degree 1");
    }

    #[test]
    fn an_edge_the_graph_does_not_have_is_refused() {
        refused(&triangle(), &result(&[&[(0, 0, 1), (1, 1, 2), (3, 2, 0)]]), "edge 3 is not one of the 3 edges");
    }

    #[test]
    fn a_step_off_its_edges_endpoints_is_refused() {
        refused(&triangle(), &result(&[&[(0, 0, 2), (1, 2, 1), (2, 1, 0)]]), "edge 0 joins 0 and 1, not 0 and 2");
    }

    #[test]
    fn an_edge_used_twice_is_refused() {
        refused(&triangle(), &result(&[&[(0, 0, 1), (0, 1, 0), (1, 1, 2)]]), "edge 0 is used twice");
    }

    #[test]
    fn an_unused_edge_is_refused() {
        refused(&triangle(), &result(&[&[(0, 0, 1), (1, 1, 2)]]), "edge 2 is not used");
    }

    #[test]
    fn an_empty_circuit_is_refused() {
        refused(&triangle(), &result(&[&[(0, 0, 1), (1, 1, 2), (2, 2, 0)], &[]]), "circuit 1 is empty");
    }

    #[test]
    fn a_broken_chain_is_refused() {
        refused(&triangle(), &result(&[&[(0, 0, 1), (2, 2, 0), (1, 1, 2)]]), "circuit 0 breaks at step 1: 1 then 2");
    }

    #[test]
    fn an_open_circuit_is_refused() {
        // Every edge once with its endpoints, chained, but split so that
        // neither part closes.
        let r = result(&[&[(0, 0, 1), (1, 1, 2)], &[(2, 2, 0)]]);
        refused(&triangle(), &r, "circuit 0 starts at 0 and ends at 2");
    }

    #[test]
    fn one_component_split_into_two_closed_circuits_is_refused_by_both_checkers() {
        let g = bowtie();
        let split = result(&[&[(0, 0, 1), (1, 1, 2), (2, 2, 0)], &[(3, 0, 3), (4, 3, 4), (5, 4, 0)]]);
        let core = verify_result(&g, &split);
        assert!(
            matches!(core, Err(EulerError::SplitComponent { vertex: VertexId(0), first: 0, second: 1 })),
            "the core's check must refuse two circuits of one component, got {core:?}"
        );
        refused(&g, &split, "the component of vertex 0 holds 2 circuits");
    }
}
