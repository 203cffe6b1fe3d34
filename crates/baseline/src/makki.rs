//! Makki-style vertex-centric distributed Euler walk.
//!
//! Makki \[17\] adapts Hierholzer's algorithm to a distributed, vertex-centric
//! setting: at every step exactly one vertex is active, it picks one of its
//! unvisited edges, and the "walker" moves across that edge — one
//! barrier-synchronised superstep per edge traversal. The paper's criticism
//! (§2.2) is precisely this cost profile: `O(|E|)` supersteps and a single
//! busy machine while all others idle.
//!
//! This implementation reproduces that execution profile on the
//! `euler-bsp` vertex-centric engine. The walker performs maximal greedy
//! trails; when a trail closes with edges still unvisited, a new trail is
//! launched from a visited vertex that still has unvisited edges and the
//! resulting closed sub-tours are spliced into the final circuit (the same
//! Hierholzer splicing Makki encodes through backtracking — the coordination
//! cost, which is what the comparison needs, is identical: one superstep per
//! edge plus one per relaunch). The result is verified like every other
//! algorithm in the workspace.

use euler_core::fragment::{Fragment, FragmentId, FragmentKind, FragmentStore, TourEdge};
use euler_core::phase3::unroll;
use euler_core::{CircuitResult, EulerError};
use euler_bsp::{run_vertex_program, VertexContext, VertexEngineConfig, VertexProgram};
use euler_graph::{properties, EdgeId, Graph, PartitionId, VertexId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Statistics and result of a Makki-style run.
#[derive(Clone, Debug, Default)]
pub struct MakkiResult {
    /// The reconstructed circuit(s).
    pub result: CircuitResult,
    /// Total supersteps across all trails — the coordination cost that grows
    /// as `O(|E|)`, versus `⌈log n⌉ + 1` for the partition-centric algorithm.
    pub supersteps: u64,
    /// Total messages sent (one per edge traversal).
    pub messages: u64,
    /// Number of trails launched (1 + number of splices needed).
    pub walks: u64,
}

/// Per-vertex state: incident edges and their visited flags.
#[derive(Clone, Debug, Default)]
struct WalkVertex {
    incident: Vec<(VertexId, EdgeId)>,
    visited: Vec<bool>,
}

impl WalkVertex {
    fn next_unvisited(&self) -> Option<(usize, VertexId, EdgeId)> {
        self.incident
            .iter()
            .enumerate()
            .zip(self.visited.iter())
            .find(|(_, &v)| !v)
            .map(|((i, &(to, e)), _)| (i, to, e))
    }

    fn mark_edge(&mut self, edge: EdgeId) {
        for (i, &(_, e)) in self.incident.iter().enumerate() {
            if e == edge && !self.visited[i] {
                self.visited[i] = true;
                return;
            }
        }
    }
}

/// The token passed between vertices: which edge the walker just traversed.
#[derive(Clone, Copy, Debug)]
struct Token {
    edge: EdgeId,
}

struct WalkerProgram {
    start: u64,
    trail: Arc<Mutex<Vec<TourEdge>>>,
}

impl VertexProgram for WalkerProgram {
    type VertexState = WalkVertex;
    type Message = Token;

    fn compute(
        &self,
        ctx: &mut VertexContext,
        state: &mut WalkVertex,
        messages: &[Token],
    ) -> Vec<(u64, Token)> {
        ctx.vote_to_halt();
        let holding = if ctx.superstep == 0 {
            ctx.vertex == self.start
        } else {
            // Mark the edge we were reached through as visited on this side.
            for t in messages {
                state.mark_edge(t.edge);
            }
            !messages.is_empty()
        };
        if !holding {
            return vec![];
        }
        match state.next_unvisited() {
            Some((i, to, edge)) => {
                state.visited[i] = true;
                self.trail
                    .lock()
                    .push(TourEdge::Real { edge, from: VertexId(ctx.vertex), to });
                vec![(to.0, Token { edge })]
            }
            None => vec![], // trail is stuck (back at its start): stop walking
        }
    }
}

/// Runner for the Makki-style baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct MakkiRunner {
    /// Safety bound on total supersteps (0 = derive from the edge count).
    pub max_supersteps: u64,
}

impl MakkiRunner {
    /// Creates a runner with the default superstep bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the walker over `g` and reconstructs the circuit.
    ///
    /// # Errors
    /// Returns [`EulerError::Graph`] if some vertex has odd degree.
    pub fn run(&self, g: &Graph) -> Result<MakkiResult, EulerError> {
        if let Some(&v) = properties::odd_vertices(g).first() {
            return Err(EulerError::Graph(euler_graph::GraphError::NotEulerian {
                vertex: v,
                degree: g.degree(v),
            }));
        }
        let limit = if self.max_supersteps == 0 {
            4 * g.num_edges() + 2 * g.num_vertices() + 16
        } else {
            self.max_supersteps
        };

        let mut states: Vec<WalkVertex> = g
            .vertices()
            .map(|v| {
                let incident: Vec<(VertexId, EdgeId)> = g.neighbors(v).to_vec();
                let visited = vec![false; incident.len()];
                WalkVertex { incident, visited }
            })
            .collect();
        // Self-loops appear twice in the adjacency; mark the duplicate slot so
        // each loop is traversed exactly once.
        for (v, state) in states.iter_mut().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for (i, &(to, e)) in state.incident.iter().enumerate() {
                if to.index() == v && !seen.insert(e) {
                    state.visited[i] = true;
                }
            }
        }

        let store = FragmentStore::new();
        let mut result = MakkiResult::default();
        let mut covered = vec![false; g.num_edges() as usize];

        loop {
            // Pick a start vertex with an unvisited edge, preferring vertices
            // already on an earlier trail so sub-tours connect.
            let start = states
                .iter()
                .enumerate()
                .find(|(_, s)| s.next_unvisited().is_some())
                .map(|(v, _)| v as u64);
            let Some(start) = start else { break };

            let trail: Arc<Mutex<Vec<TourEdge>>> = Arc::new(Mutex::new(Vec::new()));
            let program = WalkerProgram { start, trail: trail.clone() };
            let (new_states, stats) = run_vertex_program(
                &program,
                states,
                VertexEngineConfig { max_supersteps: limit },
            );
            states = new_states;
            result.supersteps += stats.supersteps;
            result.messages += stats.messages;
            result.walks += 1;

            let tour = std::mem::take(&mut *trail.lock());
            if tour.is_empty() {
                break;
            }
            for te in &tour {
                if let TourEdge::Real { edge, .. } = te {
                    covered[edge.index()] = true;
                }
            }
            store.push(Fragment {
                id: FragmentId(0),
                kind: FragmentKind::Cycle,
                level: 0,
                partition: PartitionId(0),
                edges: tour,
            });
        }

        result.result = unroll(&store)?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::verify::verify_result;
    use euler_gen::synthetic;
    use euler_graph::builder::graph_from_edges;

    #[test]
    fn triangle_takes_one_superstep_per_edge() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let r = MakkiRunner::new().run(&g).unwrap();
        assert_eq!(r.result.num_circuits(), 1);
        assert_eq!(r.result.total_edges(), 3);
        verify_result(&g, &r.result).unwrap();
        // One superstep per edge traversal plus the initial and final ones.
        assert!(r.supersteps >= 3);
        assert_eq!(r.messages, 3);
    }

    #[test]
    fn figure_eight_requires_splicing() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let r = MakkiRunner::new().run(&g).unwrap();
        assert_eq!(r.result.num_circuits(), 1);
        assert_eq!(r.result.total_edges(), 6);
        verify_result(&g, &r.result).unwrap();
    }

    #[test]
    fn superstep_count_scales_with_edges() {
        let small = synthetic::torus_grid(4, 4);
        let large = synthetic::torus_grid(8, 8);
        let rs = MakkiRunner::new().run(&small).unwrap();
        let rl = MakkiRunner::new().run(&large).unwrap();
        verify_result(&small, &rs.result).unwrap();
        verify_result(&large, &rl.result).unwrap();
        // Coordination cost grows with |E| (the paper's argument against it).
        assert!(rs.supersteps >= small.num_edges());
        assert!(rl.supersteps >= large.num_edges());
        assert!(rl.supersteps > 2 * rs.supersteps);
    }

    #[test]
    fn odd_degree_rejected() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        assert!(MakkiRunner::new().run(&g).is_err());
    }

    #[test]
    fn random_eulerian_graphs_verified() {
        for seed in 0..3 {
            let g = synthetic::random_eulerian_connected(30, 5, 5, seed);
            let r = MakkiRunner::new().run(&g).unwrap();
            assert_eq!(r.result.total_edges(), g.num_edges());
            verify_result(&g, &r.result).unwrap();
        }
    }

    #[test]
    fn self_loops_traversed_once() {
        let g = graph_from_edges(&[(0, 1), (1, 0), (1, 1)]);
        let r = MakkiRunner::new().run(&g).unwrap();
        assert_eq!(r.result.total_edges(), 3);
        verify_result(&g, &r.result).unwrap();
    }

    #[test]
    fn disconnected_components_yield_multiple_circuits() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)]);
        let r = MakkiRunner::new().run(&g).unwrap();
        assert_eq!(r.result.num_circuits(), 2);
        verify_result(&g, &r.result).unwrap();
    }
}
