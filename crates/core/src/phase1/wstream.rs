//! Phase 1 in the W-streaming model: one pass over a chunked edge stream,
//! `O(n log n)` resident traversal state, partial tours spilled through the
//! fragment store.
//!
//! The dense kernels ([`crate::phase1::arena`]) materialise every local edge
//! of a partition in a resident incidence arena before walking it — the last
//! unbounded-memory stage of the out-of-core spine. This module replaces that
//! arena with the chain machine of Glazik, Schiemann and Srivastav ("Finding
//! Euler Tours in One Pass in the W-Streaming Model"): edges arrive in
//! arbitrary chunked order through an [`EdgeStream`], and the only resident
//! state is
//!
//! * two `u32`-per-vertex arrays (`chain_at`, `degree`),
//! * a set of *open chains* — partial tours — each holding at most
//!   `Θ(log n)` buffered tour edges before it is flushed to the
//!   [`FragmentStore`] and replaced by a single coarse
//!   [`TourEdge::Virtual`] entry.
//!
//! Because at most one open chain end can exist per vertex (an end exists at
//! `v` iff `v`'s local degree so far is odd), there are at most `n/2` open
//! chains, so the resident footprint is `O(n)` words for the arrays plus
//! `O(n log n)` words of chain buffers — independent of `m`. The exact
//! footprint is tracked in Longs by [`WStreamStats`] and asserted by the
//! memory-envelope tests.
//!
//! The machine runs once, globally, over the whole stream, but keeps strictly
//! partition-local tours: a local edge `(u, v)` (both endpoints in the same
//! partition under the [`PartitionAssignment`]) feeds that partition's
//! chains, while a cut edge becomes a [`RemoteRef`] on both sides, exactly as
//! the dense partitioner would produce. The residue — one coarse local edge
//! per still-open chain, plus all remote edges — is packaged into level-0
//! [`WorkingPartition`]s, each remote edge filed in the bucket of the merge
//! level the tree built from the pass's meta-graph converts it at, and the
//! ordinary merge-tree walk (in-process or BSP) takes over from there.
//! Closed partition-local cycles are emitted as [`FragmentKind::Cycle`]
//! fragments and spliced by Phase 3 like any other.

use crate::error::EulerError;
use crate::fragment::{Fragment, FragmentId, FragmentKind, FragmentStore, TourEdge};
use crate::merge_tree::MergeTree;
use crate::state::{EdgeRef, LocalEdge, RemoteRef, WorkingPartition};
use euler_graph::stream::EdgeStream;
use euler_graph::{
    EdgeId, GraphError, MetaGraph, PartitionAssignment, PartitionId, StreamOrder, VertexId,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Sentinel for "no open chain end at this vertex".
const NO_CHAIN: u32 = u32::MAX;

/// Exact resident-state accounting for one W-streaming Phase-1 pass, in
/// 8-byte Longs (the paper's memory unit).
///
/// `resident_longs`/`peak_resident_longs` cover the *traversal* state that
/// replaces the dense incidence arena: the two per-vertex `u32` arrays
/// (charged at two vertices per Long), every open chain (4 Longs of header
/// plus 3 per buffered tour edge) and the vertex-grouped self-loop dedup
/// set. Residual local/remote edges handed to the merge-tree walk are
/// reported separately (they exist identically in the dense path and are
/// accounted by [`WorkingPartition::memory_longs`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WStreamStats {
    /// Vertices covered by the partition assignment.
    pub num_vertices: u64,
    /// Stream entries consumed (`m` for edge-id order, `2m` vertex-grouped).
    pub entries_streamed: u64,
    /// Distinct edges ingested (local + cut + self-loops).
    pub edges_ingested: u64,
    /// Open-chain buffer capacity before a flush (tour edges).
    pub chunk_edges: u64,
    /// Resident traversal state at end of stream, in Longs.
    pub resident_longs: u64,
    /// Peak resident traversal state over the pass, in Longs.
    pub peak_resident_longs: u64,
    /// Fragments written through the store (paths + cycles).
    pub fragments_emitted: u64,
    /// Closed partition-local cycles emitted.
    pub cycles_emitted: u64,
    /// Open-chain buffers flushed to path fragments mid-stream.
    pub open_chain_flushes: u64,
    /// Coarse local edges handed to the merge-tree walk.
    pub residual_local_edges: u64,
    /// Remote (cut) edge references handed to the merge-tree walk.
    pub residual_remote_edges: u64,
}

/// Everything the pipeline needs to continue after a W-streaming pass.
#[derive(Debug)]
pub struct WStreamOutcome {
    /// Level-0 working state for every partition id `0..P`, sorted by id.
    pub states: Vec<WorkingPartition>,
    /// Partition meta-graph with cut-edge weights, equivalent to
    /// [`MetaGraph::from_partitioned`] on the dense path.
    pub meta: MetaGraph,
    /// The merge tree of [`meta`](Self::meta), which the states' remote
    /// refs are bucketed for.
    pub tree: MergeTree,
    /// Resident-state accounting for the pass.
    pub stats: WStreamStats,
    /// First odd-degree vertex (with its degree), if any — the streaming
    /// equivalent of `EdgeArrays::first_odd_vertex` for the Eulerian precondition.
    pub first_odd: Option<(VertexId, u64)>,
}

/// An open chain: a partial tour whose two endpoints are still extendable.
///
/// The buffer holds the most recent tour edges; older spans have been
/// flushed to the fragment store and are represented by a single
/// [`TourEdge::Virtual`] entry. Invariants: the buffer is never empty,
/// `buf.front().from() == head` and `buf.back().to() == tail`, and
/// `head != tail` (equal ends close immediately into a cycle).
struct Chain {
    partition: PartitionId,
    head: VertexId,
    tail: VertexId,
    buf: VecDeque<TourEdge>,
}

/// The streaming chain machine. One instance processes the whole stream;
/// per-vertex arrays are global because every local edge belongs wholly to
/// one partition, so a vertex's chain slot is only ever touched by its own
/// partition's edges.
struct Machine<'a> {
    assignment: &'a PartitionAssignment,
    store: &'a FragmentStore,
    /// Flush threshold: buffers longer than this become path fragments.
    chunk: usize,
    n: u64,
    /// Longs charged for the two `u32`-per-vertex arrays.
    array_longs: u64,
    /// `chain_at[v]` = slab index of the chain with an open end at `v`.
    chain_at: Vec<u32>,
    /// Total degree seen so far per vertex (saturating; parity is exact for
    /// any graph whose maximum degree fits in a `u32`).
    degree: Vec<u32>,
    chains: Vec<Option<Chain>>,
    free: Vec<u32>,
    /// Longs held by open chains (4 per chain + 3 per buffered edge).
    chain_longs: u64,
    /// Vertex-grouped only: edge ids of self-loops seen once in the current
    /// source group (a self-loop appears twice in its vertex's adjacency).
    loop_pending: HashSet<u64>,
    current_source: u64,
    /// Whether entries are half-edges that need endpoint-order dedup.
    dedup_half_edges: bool,
    /// Residual remote references per partition, each with the partition
    /// at its other end.
    remote: Vec<Vec<(RemoteRef, PartitionId)>>,
    /// Cut half-edge counts per ordered partition pair (halved at the end).
    cut_weights: HashMap<(PartitionId, PartitionId), u64>,
    /// First error raised inside the sink (sinks cannot return `Result`).
    err: Option<EulerError>,
    stats: WStreamStats,
}

/// Validates one stream entry against the assignment's vertex universe.
///
/// This is the only place untrusted stream data crosses into the machine,
/// so it is index-free and panic-free (enforced by `euler-lint`'s
/// `no-panic-in-decode` rule); everything downstream may trust `u, v < n`.
fn checked_entry(u: u64, v: u64, n: u64) -> Result<(), EulerError> {
    if u < n && v < n {
        Ok(())
    } else {
        let largest = if u < v { v } else { u };
        Err(EulerError::Graph(GraphError::IncompleteAssignment {
            expected: largest.saturating_add(1),
            actual: n,
        }))
    }
}

impl<'a> Machine<'a> {
    fn new(
        assignment: &'a PartitionAssignment,
        store: &'a FragmentStore,
        chunk: usize,
        dedup_half_edges: bool,
    ) -> Self {
        let n = assignment.num_vertices();
        let p = assignment.num_partitions() as usize;
        let array_longs = n.div_ceil(2) * 2;
        let mut stats = WStreamStats {
            num_vertices: n,
            chunk_edges: chunk as u64,
            resident_longs: array_longs,
            peak_resident_longs: array_longs,
            ..WStreamStats::default()
        };
        stats.peak_resident_longs = stats.resident_longs;
        Machine {
            assignment,
            store,
            chunk,
            n,
            array_longs,
            chain_at: vec![NO_CHAIN; n as usize],
            degree: vec![0; n as usize],
            chains: Vec::new(),
            free: Vec::new(),
            chain_longs: 0,
            loop_pending: HashSet::new(),
            current_source: u64::MAX,
            dedup_half_edges,
            remote: vec![Vec::new(); p],
            cut_weights: HashMap::new(),
            err: None,
            stats,
        }
    }

    /// Recomputes the resident counter and tracks the peak. Called after
    /// every state mutation that can grow the footprint.
    fn touch(&mut self) {
        self.stats.resident_longs =
            self.array_longs + self.chain_longs + self.loop_pending.len() as u64;
        if self.stats.resident_longs > self.stats.peak_resident_longs {
            self.stats.peak_resident_longs = self.stats.resident_longs;
        }
    }

    /// Routes one `(edge_id, u, v)` entry. For vertex-grouped streams `u` is
    /// the group's source vertex and each undirected edge arrives twice.
    fn ingest(&mut self, e: u64, u: u64, v: u64) {
        if self.err.is_some() {
            return;
        }
        if let Err(err) = checked_entry(u, v, self.n) {
            self.err = Some(err);
            return;
        }
        self.stats.entries_streamed += 1;
        let (uv, vv) = (VertexId(u), VertexId(v));
        let pu = self.assignment.partition_of(uv);
        let pv = self.assignment.partition_of(vv);
        if self.dedup_half_edges {
            // Half-edge entry grouped under source u.
            self.degree[u as usize] = self.degree[u as usize].saturating_add(1);
            if u != self.current_source {
                self.loop_pending.clear();
                self.current_source = u;
            }
            if u == v {
                // A self-loop appears twice in its own group; process the
                // first occurrence, drop the second.
                if self.loop_pending.remove(&e) {
                    self.touch();
                    return;
                }
                self.loop_pending.insert(e);
                self.touch();
                self.ingest_edge(EdgeId(e), uv, vv, pu, pv);
            } else if pu == pv {
                // Local edges are processed once, at their smaller endpoint's
                // group (sources ascend, so that group comes first).
                if u < v {
                    self.ingest_edge(EdgeId(e), uv, vv, pu, pv);
                }
            } else {
                // Cut edges are processed on every occurrence: each side
                // contributes its own RemoteRef, like the dense partitioner.
                self.ingest_edge(EdgeId(e), uv, vv, pu, pv);
            }
        } else {
            // Edge-id order: each undirected edge arrives exactly once.
            self.degree[u as usize] = self.degree[u as usize].saturating_add(1);
            self.degree[v as usize] = self.degree[v as usize].saturating_add(1);
            if pu == pv {
                self.ingest_edge(EdgeId(e), uv, vv, pu, pv);
            } else {
                // Push both sides' RemoteRefs so the residue matches the
                // dense path, where every cut edge appears in both
                // partitions' remote lists.
                self.push_remote(EdgeId(e), uv, vv, pu, pv);
                self.push_remote(EdgeId(e), vv, uv, pv, pu);
                self.stats.edges_ingested += 1;
            }
        }
    }

    /// Ingests a validated, deduplicated edge into the chain machine (local)
    /// or the remote residue (cut).
    fn ingest_edge(&mut self, e: EdgeId, u: VertexId, v: VertexId, pu: PartitionId, pv: PartitionId) {
        if pu != pv {
            // Only reached on vertex-grouped streams (edge-id order handles
            // cut edges inline in `ingest`): this occurrence contributes its
            // own side's RemoteRef, and the edge is counted once, at its
            // smaller endpoint's occurrence.
            self.push_remote(e, u, v, pu, pv);
            if u < v {
                self.stats.edges_ingested += 1;
            }
            return;
        }
        self.stats.edges_ingested += 1;
        if u == v {
            // Self-loops are closed cycles on arrival; they never enter a
            // chain (they would violate the one-end-per-vertex invariant).
            self.emit_cycle(pu, vec![TourEdge::Real { edge: e, from: u, to: v }]);
            return;
        }
        let cu = self.chain_at[u.index()];
        let cv = self.chain_at[v.index()];
        match (cu != NO_CHAIN, cv != NO_CHAIN) {
            (false, false) => self.new_chain(pu, e, u, v),
            (true, false) => self.extend(cu, e, u, v),
            (false, true) => self.extend(cv, e, v, u),
            (true, true) if cu == cv => self.close(cu, e, u, v),
            (true, true) => self.merge(cu, cv, e, u, v),
        }
    }

    fn push_remote(&mut self, e: EdgeId, local: VertexId, remote: VertexId, lp: PartitionId, rp: PartitionId) {
        self.remote[lp.index()].push((RemoteRef { edge: e, local, remote }, rp));
        let key = if lp.0 <= rp.0 { (lp, rp) } else { (rp, lp) };
        *self.cut_weights.entry(key).or_insert(0) += 1;
    }

    fn alloc_chain(&mut self, chain: Chain) -> u32 {
        self.chain_longs += 4 + 3 * chain.buf.len() as u64;
        if let Some(slot) = self.free.pop() {
            self.chains[slot as usize] = Some(chain);
            slot
        } else {
            self.chains.push(Some(chain));
            (self.chains.len() - 1) as u32
        }
    }

    fn free_chain(&mut self, slot: u32) -> Chain {
        let chain = self.chains[slot as usize].take().expect("live chain slot");
        self.chain_longs -= 4 + 3 * chain.buf.len() as u64;
        self.free.push(slot);
        chain
    }

    /// Case 1: neither endpoint has an open end — start a fresh chain u→v.
    fn new_chain(&mut self, p: PartitionId, e: EdgeId, u: VertexId, v: VertexId) {
        let mut buf = VecDeque::new();
        buf.push_back(TourEdge::Real { edge: e, from: u, to: v });
        let slot = self.alloc_chain(Chain { partition: p, head: u, tail: v, buf });
        self.chain_at[u.index()] = slot;
        self.chain_at[v.index()] = slot;
        self.touch();
    }

    /// Reverses a chain in place (used to orient before append/close/merge).
    /// Costs O(buffer) = O(log n), within the W-streaming processing budget.
    fn reverse_chain(chain: &mut Chain) {
        let mut tmp: Vec<TourEdge> = chain.buf.drain(..).map(|t| t.reversed()).collect();
        tmp.reverse();
        chain.buf.extend(tmp);
        std::mem::swap(&mut chain.head, &mut chain.tail);
    }

    /// Case 2: exactly one endpoint (`u`) has an open end — orient that
    /// chain to finish at `u` and append u→v.
    fn extend(&mut self, slot: u32, e: EdgeId, u: VertexId, v: VertexId) {
        let chain = self.chains[slot as usize].as_mut().expect("live chain slot");
        if chain.tail == u {
            chain.buf.push_back(TourEdge::Real { edge: e, from: u, to: v });
            chain.tail = v;
        } else {
            debug_assert_eq!(chain.head, u);
            chain.buf.push_front(TourEdge::Real { edge: e, from: v, to: u });
            chain.head = v;
        }
        self.chain_longs += 3;
        self.chain_at[u.index()] = NO_CHAIN;
        self.chain_at[v.index()] = slot;
        self.touch();
        self.maybe_flush(slot);
    }

    /// Case 3: both ends belong to the same chain — the edge closes it into
    /// a partition-local cycle, emitted as a fragment immediately.
    fn close(&mut self, slot: u32, e: EdgeId, u: VertexId, v: VertexId) {
        self.chain_at[u.index()] = NO_CHAIN;
        self.chain_at[v.index()] = NO_CHAIN;
        let mut chain = self.free_chain(slot);
        // Orient the chain to run v → … → u, then append u→v: a cycle
        // anchored at v.
        if chain.tail != u {
            Self::reverse_chain(&mut chain);
        }
        debug_assert_eq!(chain.tail, u);
        debug_assert_eq!(chain.head, v);
        chain.buf.push_back(TourEdge::Real { edge: e, from: u, to: v });
        let partition = chain.partition;
        self.emit_cycle(partition, chain.buf.into_iter().collect());
    }

    /// Case 4: the ends belong to two different chains — join them through
    /// the new edge. The merged chain's far ends stay distinct (each vertex
    /// holds at most one open end), so no further closure can be pending.
    fn merge(&mut self, c1: u32, c2: u32, e: EdgeId, u: VertexId, v: VertexId) {
        self.chain_at[u.index()] = NO_CHAIN;
        self.chain_at[v.index()] = NO_CHAIN;
        let mut second = self.free_chain(c2);
        if second.head != v {
            Self::reverse_chain(&mut second);
        }
        debug_assert_eq!(second.head, v);
        let far = second.tail;
        let moved = second.buf.len() as u64;
        let chain = self.chains[c1 as usize].as_mut().expect("live chain slot");
        if chain.tail != u {
            Self::reverse_chain(chain);
        }
        debug_assert_eq!(chain.tail, u);
        chain.buf.push_back(TourEdge::Real { edge: e, from: u, to: v });
        chain.buf.extend(second.buf);
        chain.tail = far;
        // The new edge, plus c2's buffered entries (free_chain released them
        // with c2's header, but they live on inside c1's buffer).
        self.chain_longs += 3 + 3 * moved;
        self.chain_at[far.index()] = c1;
        self.touch();
        self.maybe_flush(c1);
    }

    /// Flushes an over-long chain buffer to a path fragment, leaving a
    /// single coarse virtual edge behind. Nested flushes compose: the next
    /// fragment's first entry may itself be virtual, and Phase 3 expands
    /// them recursively.
    fn maybe_flush(&mut self, slot: u32) {
        let (edges, partition) = {
            let chain = self.chains[slot as usize].as_mut().expect("live chain slot");
            if chain.buf.len() <= self.chunk {
                return;
            }
            (chain.buf.drain(..).collect::<Vec<TourEdge>>(), chain.partition)
        };
        let released = 3 * (edges.len() as u64 - 1);
        let fid = self.push_fragment(FragmentKind::Path, partition, edges);
        let chain = self.chains[slot as usize].as_mut().expect("live chain slot");
        chain.buf.push_back(TourEdge::Virtual { fragment: fid, from: chain.head, to: chain.tail });
        self.chain_longs -= released;
        self.stats.open_chain_flushes += 1;
        self.touch();
    }

    fn emit_cycle(&mut self, partition: PartitionId, edges: Vec<TourEdge>) {
        self.push_fragment(FragmentKind::Cycle, partition, edges);
        self.stats.cycles_emitted += 1;
        self.touch();
    }

    fn push_fragment(&mut self, kind: FragmentKind, partition: PartitionId, edges: Vec<TourEdge>) -> FragmentId {
        self.stats.fragments_emitted += 1;
        self.store.push(Fragment { id: FragmentId(0), kind, level: 0, partition, edges })
    }

    /// Consumes the machine after the stream ends: residualises every still
    /// open chain into one coarse local edge, packages per-partition working
    /// states (their remote refs still in the machine's lists) and the
    /// weighted meta-graph, and reports the Eulerian check.
    fn finish(mut self) -> Result<Residue, EulerError> {
        if let Some(err) = self.err {
            return Err(err);
        }
        let p = self.assignment.num_partitions() as usize;
        let mut locals: Vec<Vec<LocalEdge>> = vec![Vec::new(); p];
        for slot in 0..self.chains.len() {
            if self.chains[slot].is_none() {
                continue;
            }
            let chain = self.free_chain(slot as u32);
            self.chain_at[chain.head.index()] = NO_CHAIN;
            self.chain_at[chain.tail.index()] = NO_CHAIN;
            let edge = if chain.buf.len() == 1 {
                match chain.buf[0] {
                    TourEdge::Real { edge, .. } => EdgeRef::Real(edge),
                    TourEdge::Virtual { fragment, .. } => EdgeRef::Virtual(fragment),
                }
            } else {
                let partition = chain.partition;
                let edges: Vec<TourEdge> = chain.buf.into_iter().collect();
                EdgeRef::Virtual(self.push_fragment(FragmentKind::Path, partition, edges))
            };
            locals[chain.partition.index()].push(LocalEdge { edge, u: chain.head, v: chain.tail });
        }
        self.touch();

        // Isolated vertices (degree 0) per partition, for faithful level-0
        // vertex accounting — matching `Partition::isolated` on the dense
        // path.
        let mut isolated = vec![0u64; p];
        let mut first_odd = None;
        for v in 0..self.n as usize {
            let d = self.degree[v];
            if d == 0 {
                isolated[self.assignment.partition_of(VertexId(v as u64)).index()] += 1;
            }
            if first_odd.is_none() && d % 2 == 1 {
                first_odd = Some((VertexId(v as u64), d as u64));
            }
        }

        // Each cut edge was counted once per side; halve to get the
        // undirected cut weight, like `MetaGraph::from_partitioned`.
        let vertices: Vec<PartitionId> = (0..p as u32).map(PartitionId).collect();
        let pairs: Vec<(PartitionId, PartitionId, u64)> =
            self.cut_weights.iter().map(|(&(a, b), &w)| (a, b, w / 2)).collect();
        let meta = MetaGraph::from_weights(vertices, &pairs);

        let mut states = Vec::with_capacity(p);
        for id in 0..p {
            let local_edges = std::mem::take(&mut locals[id]);
            self.stats.residual_local_edges += local_edges.len() as u64;
            self.stats.residual_remote_edges += self.remote[id].len() as u64;
            states.push(WorkingPartition {
                id: PartitionId(id as u32),
                leaves: vec![PartitionId(id as u32)],
                level: 0,
                local_edges,
                remote_by_level: Vec::new(),
                isolated_vertices: isolated[id],
            });
        }
        let remote = std::mem::take(&mut self.remote);
        Ok(Residue { states, remote, meta, stats: self.stats, first_odd })
    }
}

/// What the pass leaves once its machine is gone: the level-0 states
/// without their remote refs, each partition's refs with the partition at
/// their other end, and the meta-graph.
struct Residue {
    states: Vec<WorkingPartition>,
    remote: Vec<Vec<(RemoteRef, PartitionId)>>,
    meta: MetaGraph,
    stats: WStreamStats,
    first_odd: Option<(VertexId, u64)>,
}

impl Residue {
    /// Files every ref in the bucket of the merge level at which the
    /// meta-graph's tree converts it. Run after the machine's per-vertex
    /// arrays are freed, so that the buckets and the tree take their place
    /// instead of holding the heap above them.
    fn into_outcome(self) -> WStreamOutcome {
        let tree = MergeTree::build(&self.meta);
        let levels = tree.leaf_levels(self.states.len() as u32);
        let mut states = self.states;
        for (state, residual) in states.iter_mut().zip(self.remote) {
            state.remote_by_level = vec![Vec::new(); levels.buckets()];
            for (r, there) in residual {
                state.remote_by_level[levels.of(state.id, there)].push(r);
            }
        }
        WStreamOutcome { states, meta: self.meta, tree, stats: self.stats, first_odd: self.first_odd }
    }
}

/// Default open-chain buffer capacity: `Θ(log n)` tour edges, the W-streaming
/// sweet spot between resident state and fragment count.
pub fn default_chunk_edges(num_vertices: u64) -> usize {
    let lg = 64 - num_vertices.saturating_add(2).leading_zeros() as usize;
    8 * lg.max(1)
}

/// Runs the W-streaming Phase-1 pass: one pass over `stream`, partial tours
/// through `store`, residual state per partition of `assignment`.
///
/// `chunk_edges` bounds each open chain's resident buffer; pass `0` for the
/// `Θ(log n)` default. Works with both stream orders: edge-id-ordered
/// streams feed each edge once, vertex-grouped streams are deduplicated by
/// endpoint order (and per-group for self-loops) using the edge ids
/// delivered by [`EdgeStream::stream_with_ids`].
pub fn stream_phase1(
    stream: &mut dyn EdgeStream,
    assignment: &PartitionAssignment,
    store: &FragmentStore,
    chunk_edges: usize,
) -> Result<WStreamOutcome, EulerError> {
    let n = assignment.num_vertices();
    if let Some(sn) = stream.num_vertices() {
        if sn != n {
            return Err(EulerError::Graph(GraphError::IncompleteAssignment {
                expected: sn,
                actual: n,
            }));
        }
    }
    let chunk = if chunk_edges == 0 { default_chunk_edges(n) } else { chunk_edges };
    let dedup = stream.order() == StreamOrder::VertexGrouped;
    let mut machine = Machine::new(assignment, store, chunk, dedup);
    stream.stream_with_ids(&mut |batch| {
        for &(e, u, v) in batch {
            machine.ingest(e, u, v);
        }
    })?;
    Ok(machine.finish()?.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentStore;
    use euler_graph::{GraphBuilder, GraphEdgeStream};

    fn one_part(n: u64) -> PartitionAssignment {
        PartitionAssignment::from_labels(vec![0; n as usize], 1).unwrap()
    }

    fn store() -> FragmentStore {
        FragmentStore::new()
    }

    #[test]
    fn triangle_closes_into_a_single_cycle_fragment() {
        let mut g = GraphBuilder::with_vertices(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let g = g.build().unwrap();
        let store = store();
        let mut stream = GraphEdgeStream::new(&g);
        let out = stream_phase1(&mut stream, &one_part(3), &store, 0).unwrap();
        assert_eq!(out.stats.cycles_emitted, 1);
        assert_eq!(out.stats.edges_ingested, 3);
        assert_eq!(store.len(), 1);
        assert!(out.states[0].local_edges.is_empty());
        assert!(out.states[0].remote_refs().next().is_none());
        assert_eq!(out.first_odd, None);
        let frag = store.get(crate::fragment::FragmentId(0));
        assert_eq!(frag.kind, FragmentKind::Cycle);
        assert_eq!(frag.edges.len(), 3);
        assert_eq!(frag.start(), frag.end());
    }

    #[test]
    fn self_loop_is_an_immediate_one_edge_cycle() {
        let mut g = GraphBuilder::with_vertices(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let g = g.build().unwrap();
        let store = store();
        let mut stream = GraphEdgeStream::new(&g);
        let out = stream_phase1(&mut stream, &one_part(2), &store, 0).unwrap();
        // Self-loop cycle + the 0-1-0 multi-edge cycle.
        assert_eq!(out.stats.cycles_emitted, 2);
        assert_eq!(out.stats.edges_ingested, 3);
        assert_eq!(out.first_odd, None);
        let kinds: Vec<usize> =
            store.snapshot().iter().map(|f| f.edges.len()).collect();
        assert!(kinds.contains(&1), "one-edge self-loop cycle expected: {kinds:?}");
    }

    #[test]
    fn open_path_residualises_as_one_coarse_local_edge() {
        // 0-1-2-3-4 path with even interior degrees is not Eulerian, but the
        // machine must still residualise it: one open chain end at 0, one at
        // 4.
        let mut g = GraphBuilder::with_vertices(5);
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        let g = g.build().unwrap();
        let store = store();
        let mut stream = GraphEdgeStream::new(&g);
        let out = stream_phase1(&mut stream, &one_part(5), &store, 2).unwrap();
        assert_eq!(out.states[0].local_edges.len(), 1);
        let le = out.states[0].local_edges[0];
        let ends = [le.u, le.v];
        assert!(ends.contains(&VertexId(0)) && ends.contains(&VertexId(4)), "{ends:?}");
        assert!(matches!(le.edge, EdgeRef::Virtual(_)), "4 edges > chunk 2 must flush");
        assert!(out.stats.open_chain_flushes >= 1);
        assert_eq!(out.first_odd, Some((VertexId(0), 1)));
        // Expanding the residual fragment chain recovers all 4 real edges.
        assert_eq!(store.total_real_edges(), 4);
    }

    #[test]
    fn cut_edges_become_remote_refs_on_both_sides_with_halved_weights() {
        // Two vertices, two partitions, two parallel cut edges.
        let mut g = GraphBuilder::with_vertices(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        let g = g.build().unwrap();
        let assignment = PartitionAssignment::from_labels(vec![0, 1], 2).unwrap();
        let store = store();
        let mut stream = GraphEdgeStream::new(&g);
        let out = stream_phase1(&mut stream, &assignment, &store, 0).unwrap();
        assert_eq!(out.states.len(), 2);
        // Both in the bucket of the one merge, level 0.
        assert_eq!(out.tree.height(), 1);
        assert_eq!(out.states[0].remote_by_level[0].len(), 2);
        assert_eq!(out.states[1].remote_by_level[0].len(), 2);
        assert_eq!(out.stats.residual_remote_edges, 4);
        assert_eq!(out.meta.total_weight(), 2, "undirected cut weight must be halved");
        for r in out.states[0].remote_refs() {
            assert_eq!(r.local, VertexId(0));
            assert_eq!(r.remote, VertexId(1));
        }
    }

    #[test]
    fn vertex_grouped_and_edge_id_order_agree_on_totals() {
        // A 4-vertex Eulerian multigraph with a self-loop and a multi-edge.
        let mut g = GraphBuilder::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(1, 3);
        g.add_edge(3, 1);
        g.add_edge(2, 2);
        let g = g.build().unwrap();
        let assignment = one_part(4);

        let store_vg = store();
        let out_vg =
            stream_phase1(&mut GraphEdgeStream::new(&g), &assignment, &store_vg, 0).unwrap();

        // The same edge set through an edge-id-ordered producer (each edge
        // delivered exactly once, like an edge-list file).
        struct Listed(Vec<(u64, u64)>);
        impl EdgeStream for Listed {
            fn order(&self) -> StreamOrder {
                StreamOrder::EdgeIdOrder
            }
            fn num_vertices(&self) -> Option<u64> {
                Some(4)
            }
            fn stream(
                &mut self,
                sink: &mut euler_graph::stream::EdgeBatchSink<'_>,
            ) -> Result<euler_graph::StreamSummary, GraphError> {
                sink(&self.0);
                Ok(euler_graph::StreamSummary {
                    num_vertices: 4,
                    entries: self.0.len() as u64,
                })
            }
        }
        let mut id_stream =
            Listed(vec![(0, 1), (1, 2), (2, 0), (1, 3), (3, 1), (2, 2)]);
        let store_id = store();
        let out_id = stream_phase1(&mut id_stream, &assignment, &store_id, 0).unwrap();

        assert_eq!(out_vg.stats.edges_ingested, 6);
        assert_eq!(out_id.stats.edges_ingested, 6);
        assert_eq!(out_vg.stats.entries_streamed, 12);
        assert_eq!(out_id.stats.entries_streamed, 6);
        // Every real edge ends up exactly once in fragments + residuals.
        let covered = |store: &FragmentStore, out: &WStreamOutcome| {
            let residual_real = out
                .states
                .iter()
                .flat_map(|s| &s.local_edges)
                .filter(|l| matches!(l.edge, EdgeRef::Real(_)))
                .count() as u64;
            store.total_real_edges() + residual_real
        };
        assert_eq!(covered(&store_vg, &out_vg), 6);
        assert_eq!(covered(&store_id, &out_id), 6);
        assert_eq!(out_vg.first_odd, None);
        assert_eq!(out_id.first_odd, None);
    }

    #[test]
    fn resident_state_tracks_arrays_plus_open_chains() {
        let mut g = GraphBuilder::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let g = g.build().unwrap();
        let store = store();
        let mut stream = GraphEdgeStream::new(&g);
        let out = stream_phase1(&mut stream, &one_part(4), &store, 8).unwrap();
        // 4 vertices → 4 Longs of arrays; residualising frees the chains.
        assert_eq!(out.stats.resident_longs, 4);
        // Peak: arrays + two 1-edge chains (4 + 3 Longs each).
        assert_eq!(out.stats.peak_resident_longs, 4 + 2 * 7);
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_error() {
        struct Bogus;
        impl EdgeStream for Bogus {
            fn order(&self) -> StreamOrder {
                StreamOrder::EdgeIdOrder
            }
            fn num_vertices(&self) -> Option<u64> {
                None
            }
            fn stream(
                &mut self,
                sink: &mut euler_graph::stream::EdgeBatchSink<'_>,
            ) -> Result<euler_graph::StreamSummary, GraphError> {
                sink(&[(0, 7)]);
                Ok(euler_graph::StreamSummary { num_vertices: 8, entries: 1 })
            }
        }
        let store = store();
        let err = stream_phase1(&mut Bogus, &one_part(2), &store, 0).unwrap_err();
        assert!(
            matches!(
                err,
                EulerError::Graph(GraphError::IncompleteAssignment { expected: 8, actual: 2 })
            ),
            "{err}"
        );
    }
}
