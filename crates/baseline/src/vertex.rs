//! Vertex-centric (Pregel-style) execution on top of the BSP semantics.
//!
//! Used by the Makki baseline: the algorithm keeps a single active vertex per
//! superstep, which is exactly the behaviour the paper criticises (superstep
//! count proportional to the number of edges, all but one machine idle). The
//! runner here executes faithfully superstep-by-superstep and counts
//! supersteps as a partition-centric run does, so the coordination-cost
//! comparison of the `supersteps_vs_makki` harness is apples-to-apples.

use crate::program::{VertexContext, VertexProgram};
use std::time::{Duration, Instant};

/// Configuration for the vertex-centric runner.
#[derive(Clone, Copy, Debug)]
pub struct VertexEngineConfig {
    /// Safety bound on supersteps. Makki needs `O(|E|)` supersteps, so this
    /// must be at least the number of directed edges plus slack.
    pub max_supersteps: u64,
}

impl Default for VertexEngineConfig {
    fn default() -> Self {
        VertexEngineConfig { max_supersteps: 10_000_000 }
    }
}

/// Statistics of a vertex-centric run.
#[derive(Clone, Debug, Default)]
pub struct VertexEngineStats {
    /// Number of supersteps executed (the coordination cost).
    pub supersteps: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total compute invocations (active vertices summed over supersteps).
    pub vertex_activations: u64,
    /// Wall-clock time.
    pub wall_time: Duration,
    /// Maximum number of simultaneously active vertices in any superstep —
    /// Makki's is 1, which is the paper's utilisation argument.
    pub max_active_vertices: u64,
}

/// Runs a [`VertexProgram`] over `num_vertices` vertices until quiescence.
///
/// `initial` provides the starting state of every vertex. Initially every
/// vertex is active; a vertex that votes to halt is reactivated by incoming
/// messages, exactly as in Pregel.
pub fn run_vertex_program<P: VertexProgram>(
    program: &P,
    mut states: Vec<P::VertexState>,
    config: VertexEngineConfig,
) -> (Vec<P::VertexState>, VertexEngineStats) {
    let n = states.len();
    let mut halted = vec![false; n];
    let mut inboxes: Vec<Vec<P::Message>> = (0..n).map(|_| Vec::new()).collect();
    let mut stats = VertexEngineStats::default();
    let start = Instant::now();

    for superstep in 0..config.max_supersteps {
        let active: Vec<usize> = (0..n).filter(|&v| !halted[v] || !inboxes[v].is_empty()).collect();
        if active.is_empty() {
            break;
        }
        stats.supersteps = superstep + 1;
        stats.max_active_vertices = stats.max_active_vertices.max(active.len() as u64);
        let mut outgoing: Vec<(u64, P::Message)> = Vec::new();
        for v in active {
            let inbox = std::mem::take(&mut inboxes[v]);
            let mut ctx = VertexContext::new(superstep as u32, v as u64);
            let out = program.compute(&mut ctx, &mut states[v], &inbox);
            stats.vertex_activations += 1;
            halted[v] = ctx.voted_to_halt();
            outgoing.extend(out);
        }
        for (to, msg) in outgoing {
            stats.messages += 1;
            assert!((to as usize) < n, "message to unknown vertex {to}");
            inboxes[to as usize].push(msg);
        }
    }
    stats.wall_time = start.elapsed();
    (states, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::VertexContext;

    /// Token passing around a ring of `n` vertices: only the token holder is
    /// active, like Makki's single-walker pattern.
    struct TokenRing {
        n: u64,
        hops: u64,
    }

    impl VertexProgram for TokenRing {
        type VertexState = u64; // number of times this vertex held the token
        type Message = u64; // remaining hops

        fn compute(&self, ctx: &mut VertexContext, state: &mut u64, messages: &[u64]) -> Vec<(u64, u64)> {
            let incoming: Option<u64> = messages.first().copied();
            let holding = if ctx.superstep == 0 && ctx.vertex == 0 { Some(self.hops) } else { incoming };
            ctx.vote_to_halt();
            match holding {
                Some(0) | None => vec![],
                Some(remaining) => {
                    *state += 1;
                    vec![((ctx.vertex + 1) % self.n, remaining - 1)]
                }
            }
        }
    }

    #[test]
    fn token_ring_takes_one_superstep_per_hop() {
        let program = TokenRing { n: 5, hops: 12 };
        let (states, stats) = run_vertex_program(&program, vec![0u64; 5], VertexEngineConfig::default());
        // 12 sends + the final receive-and-stop superstep.
        assert_eq!(stats.supersteps, 13);
        assert_eq!(stats.messages, 12);
        assert_eq!(states.iter().sum::<u64>(), 12);
        // Single-walker utilisation: only the first superstep has all vertices
        // active (initial activation), afterwards exactly one.
        assert_eq!(stats.max_active_vertices, 5);
    }

    #[test]
    fn all_halt_immediately_without_messages() {
        struct Noop;
        impl VertexProgram for Noop {
            type VertexState = ();
            type Message = ();
            fn compute(&self, ctx: &mut VertexContext, _s: &mut (), _m: &[()]) -> Vec<(u64, ())> {
                ctx.vote_to_halt();
                vec![]
            }
        }
        let (_, stats) = run_vertex_program(&Noop, vec![(); 10], VertexEngineConfig::default());
        assert_eq!(stats.supersteps, 1);
        assert_eq!(stats.vertex_activations, 10);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn max_supersteps_bound() {
        struct Bouncer;
        impl VertexProgram for Bouncer {
            type VertexState = ();
            type Message = ();
            fn compute(&self, ctx: &mut VertexContext, _s: &mut (), _m: &[()]) -> Vec<(u64, ())> {
                ctx.vote_to_halt();
                vec![(ctx.vertex ^ 1, ())] // 0 <-> 1 forever
            }
        }
        let (_, stats) = run_vertex_program(&Bouncer, vec![(), ()], VertexEngineConfig { max_supersteps: 20 });
        assert_eq!(stats.supersteps, 20);
    }
}
