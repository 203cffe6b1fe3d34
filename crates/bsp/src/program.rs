//! Programming models: partition-centric and vertex-centric programs.
//!
//! The partition-centric model is the one the paper's algorithm uses — user
//! code sees a whole partition per superstep and can run an arbitrary local
//! algorithm over it before the barrier (Gonzalez et al. "think like a
//! graph"). The vertex-centric model is the classic Pregel abstraction used
//! by the Makki baseline.

use crate::message::{Envelope, WorkerId};
use euler_metrics::{PhaseTimer, TimeBreakdown};

/// Context handed to a [`PartitionProgram`] for one partition in one
/// superstep.
#[derive(Debug)]
pub struct PartitionContext {
    /// Superstep index (0-based).
    pub superstep: u32,
    /// Engine-level partition index this invocation is for.
    pub partition: u32,
    /// Worker hosting this partition.
    pub worker: WorkerId,
    halted: bool,
    timer: PhaseTimer,
    memory_longs: Option<u64>,
}

impl PartitionContext {
    /// Creates a context (engine-internal).
    pub(crate) fn new(superstep: u32, partition: u32, worker: WorkerId) -> Self {
        PartitionContext {
            superstep,
            partition,
            worker,
            halted: false,
            timer: PhaseTimer::new(),
            memory_longs: None,
        }
    }

    /// Votes to halt: the partition will not execute in later supersteps
    /// unless it receives a message.
    pub fn vote_to_halt(&mut self) {
        self.halted = true;
    }

    /// Whether this partition voted to halt.
    pub fn voted_to_halt(&self) -> bool {
        self.halted
    }

    /// Runs `f`, accounting its wall time under `label` in the per-partition
    /// compute breakdown (Fig. 6's stacked components).
    pub fn time<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> T {
        self.timer.time(label, f)
    }

    /// Reports the partition's in-memory state size in Longs after this
    /// superstep (Fig. 8/9 accounting).
    pub fn report_memory_longs(&mut self, longs: u64) {
        self.memory_longs = Some(longs);
    }

    /// Engine-internal: consumes the context, returning (halted, breakdown,
    /// reported memory).
    pub(crate) fn finish(self) -> (bool, TimeBreakdown, Option<u64>) {
        (self.halted, self.timer.finish(), self.memory_longs)
    }
}

/// A partition-centric BSP program.
///
/// The engine owns one `State` per partition; in every superstep it calls
/// [`superstep`](PartitionProgram::superstep) for every active partition with
/// the messages addressed to it, and routes the returned envelopes before the
/// next superstep.
pub trait PartitionProgram: Sync {
    /// Per-partition state owned by the engine between supersteps.
    type State: Send;

    /// Executes one superstep for one partition.
    fn superstep(
        &self,
        ctx: &mut PartitionContext,
        state: &mut Self::State,
        messages: Vec<Envelope>,
    ) -> Vec<Envelope>;
}

/// A shared reference to a program is itself a program, so drivers like
/// [`crate::engine::StepRun`] can either own their program or borrow one
/// (as [`crate::engine::BspEngine::run`] does).
impl<P: PartitionProgram + ?Sized> PartitionProgram for &P {
    type State = P::State;

    fn superstep(
        &self,
        ctx: &mut PartitionContext,
        state: &mut Self::State,
        messages: Vec<Envelope>,
    ) -> Vec<Envelope> {
        (**self).superstep(ctx, state, messages)
    }
}

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
    fn partition_context_halt_and_memory() {
        let mut ctx = PartitionContext::new(3, 1, WorkerId(0));
        assert_eq!(ctx.superstep, 3);
        assert!(!ctx.voted_to_halt());
        ctx.report_memory_longs(123);
        let out = ctx.time("phase1_tour", || 5);
        assert_eq!(out, 5);
        ctx.vote_to_halt();
        let (halted, breakdown, mem) = ctx.finish();
        assert!(halted);
        assert_eq!(mem, Some(123));
        assert_eq!(breakdown.phases(), vec!["phase1_tour"]);
    }

    #[test]
    fn vertex_context_halt() {
        let mut ctx = VertexContext::new(0, 42);
        assert_eq!(ctx.vertex, 42);
        ctx.vote_to_halt();
        assert!(ctx.voted_to_halt());
    }
}
