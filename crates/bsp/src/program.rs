//! The vertex-centric programming model.
//!
//! The paper's algorithm is partition-centric — user code sees a whole
//! partition per superstep and runs an arbitrary local algorithm over it
//! before the barrier (Gonzalez et al. "think like a graph"); that program
//! is `euler_core`'s level step. The vertex-centric model here is the
//! classic Pregel abstraction used by the Makki baseline.

/// Context handed to a [`VertexProgram`] for one vertex in one superstep.
#[derive(Debug)]
pub struct VertexContext {
    /// Superstep index.
    pub superstep: u32,
    /// The vertex being computed.
    pub vertex: u64,
    halted: bool,
}

impl VertexContext {
    /// Creates a context (engine-internal).
    pub(crate) fn new(superstep: u32, vertex: u64) -> Self {
        VertexContext { superstep, vertex, halted: false }
    }

    /// Votes to halt; the vertex is reactivated by incoming messages.
    pub fn vote_to_halt(&mut self) {
        self.halted = true;
    }

    /// Whether this vertex voted to halt.
    pub fn voted_to_halt(&self) -> bool {
        self.halted
    }
}

/// A vertex-centric (Pregel-style) program, used by the Makki baseline.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type VertexState: Send;
    /// Message type exchanged between vertices.
    type Message: Send + Clone;

    /// Executes one superstep for one vertex, returning messages addressed to
    /// other vertices (by vertex id).
    fn compute(
        &self,
        ctx: &mut VertexContext,
        state: &mut Self::VertexState,
        messages: &[Self::Message],
    ) -> Vec<(u64, Self::Message)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_context_halt() {
        let mut ctx = VertexContext::new(0, 42);
        assert_eq!(ctx.vertex, 42);
        ctx.vote_to_halt();
        assert!(ctx.voted_to_halt());
    }
}
