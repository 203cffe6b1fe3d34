//! Phase 3: unrolling the fragments into the final Euler circuit.
//!
//! After the last Phase-1 run on the single root partition, every edge of the
//! graph sits inside exactly one fragment: paths are referenced as coarse
//! virtual edges by exactly one higher-level fragment, and cycles are
//! free-standing, waiting to be spliced wherever their vertices occur in the
//! final walk. Phase 3 reconstructs the circuit in a single pass over this
//! book-keeping: it starts from a root cycle, emits its real edges, expands
//! virtual edges by recursing into the referenced path fragments (in the
//! traversed direction), and whenever the walk arrives at a vertex with a
//! pending cycle, splices that cycle in (rotated to start at that vertex)
//! before continuing.
//!
//! The paper defers a detailed Phase-3 algorithm; this implementation
//! completes it and is verified against the sequential Hierholzer oracle in
//! the integration tests. Splicing is indexed by *every* visible vertex of a
//! pending cycle (not only its anchor), which also covers partitions whose
//! local subgraph is disconnected.

use crate::error::EulerError;
use crate::fragment::{CycleIndex, FragmentId, FragmentStore, Record, TourEdge};
use euler_graph::{bucket_by_slot, EdgeId, GraphError, LocalIndex, VertexId};
use serde::{Deserialize, Serialize};

/// One step of the reconstructed circuit: a real graph edge traversed from
/// `from` to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitStep {
    /// The traversed edge.
    pub edge: EdgeId,
    /// Vertex the step starts at.
    pub from: VertexId,
    /// Vertex the step ends at.
    pub to: VertexId,
}

/// The result of Phase 3: one closed circuit per connected (edge-bearing)
/// component of the input graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CircuitResult {
    /// Closed circuits, one per component, each a sequence of steps.
    pub circuits: Vec<Vec<CircuitStep>>,
}

impl CircuitResult {
    /// The single Euler circuit, if the graph's edges form one component.
    pub fn circuit(&self) -> Option<&[CircuitStep]> {
        if self.circuits.len() == 1 {
            Some(&self.circuits[0])
        } else {
            None
        }
    }

    /// Total number of edges covered across all circuits.
    pub fn total_edges(&self) -> u64 {
        self.circuits.iter().map(|c| c.len() as u64).sum()
    }

    /// Number of separate circuits (1 for a connected Eulerian graph).
    pub fn num_circuits(&self) -> usize {
        self.circuits.len()
    }

    /// The circuit as a vertex sequence (first circuit only), starting and
    /// ending at the same vertex — the representation used in §3 of the paper.
    pub fn vertex_sequence(&self) -> Option<Vec<VertexId>> {
        let c = self.circuit()?;
        let mut seq = Vec::with_capacity(c.len() + 1);
        if let Some(first) = c.first() {
            seq.push(first.from);
        }
        seq.extend(c.iter().map(|s| s.to));
        Some(seq)
    }
}

/// Index of pending (not yet spliced) cycles, keyed by every visible vertex.
///
/// Dense layout: cycles are ranked in the store's id order, visible
/// vertices are interned through a [`LocalIndex`], and the per-vertex cycle
/// lists live in one flat CSR-style arena (`buckets` sliced by
/// `bucket_lo`/`bucket_end`), so the spliced set is a plain `Vec<bool>` over
/// ranks. Buckets hold ranks ascending and are popped from the back;
/// `pop_any` yields the minimum unspliced cycle via a monotone scan
/// (spliced flags are never cleared).
struct PendingCycles {
    /// Interning table over every visible vertex of every cycle fragment.
    index: LocalIndex,
    /// CSR start of each vertex slot's bucket.
    bucket_lo: Vec<u32>,
    /// Current live end of each bucket (consumed from the back).
    bucket_end: Vec<u32>,
    /// Flattened buckets: ranks of the cycles visible at each vertex,
    /// ascending.
    buckets: Vec<u32>,
    /// The cycle fragments, ascending by id; a cycle's rank is its position.
    cycles: Vec<FragmentId>,
    /// Whether the cycle of rank `i` has been spliced into the walk already.
    spliced: Vec<bool>,
    /// Monotone cursor for [`PendingCycles::pop_any`].
    scan: usize,
}

impl PendingCycles {
    fn new(store: &FragmentStore) -> Self {
        // The store interns every visible vertex of every cycle once and
        // hands over the (slot, rank) pairs, cycles in id order; on the spill
        // backing that costs no I/O, so a spilled fragment is read back
        // exactly once, by the unroll walk itself.
        let CycleIndex { index, cycles, pairs } = store.cycle_index();
        let n = index.len();
        // Counting-sort the pairs into per-slot buckets, preserving
        // rank-ascending insertion order within each slot.
        let (offsets, buckets) = bucket_by_slot(n, || pairs.iter().copied());
        PendingCycles {
            bucket_lo: offsets[..n].to_vec(),
            bucket_end: offsets[1..].to_vec(),
            index,
            buckets,
            spliced: vec![false; cycles.len()],
            cycles,
            scan: 0,
        }
    }

    /// Pops one not-yet-spliced cycle containing `v`, if any.
    fn pop_at(&mut self, v: VertexId) -> Option<FragmentId> {
        let s = self.index.slot(v)? as usize;
        while self.bucket_end[s] > self.bucket_lo[s] {
            self.bucket_end[s] -= 1;
            let rank = self.buckets[self.bucket_end[s] as usize] as usize;
            if !self.spliced[rank] {
                self.spliced[rank] = true;
                return Some(self.cycles[rank]);
            }
        }
        None
    }

    /// Any not-yet-spliced cycle (used to seed a new circuit / detect
    /// disconnected components). Yields ids ascending, amortised O(1) per
    /// call.
    fn pop_any(&mut self) -> Option<FragmentId> {
        while self.scan < self.spliced.len() {
            let rank = self.scan;
            if !self.spliced[rank] {
                self.spliced[rank] = true;
                return Some(self.cycles[rank]);
            }
            self.scan += 1;
        }
        None
    }
}

/// An expansion frame: a fragment being walked. The frame shares the stored
/// record with the store and reads its tour edges in place, by index —
/// forward, backward (each edge reversed), or forward from a rotation point
/// and around — so neither a copy nor a re-ordered second copy is built.
struct Frame {
    record: Record,
    /// Tour edges of the record.
    len: usize,
    /// Index of the next edge to walk, and how many are left.
    at: usize,
    left: usize,
    reversed: bool,
}

impl Frame {
    fn forward(record: Record) -> Frame {
        let len = record.view().len();
        Frame { record, len, at: 0, left: len, reversed: false }
    }

    fn reversed(record: Record) -> Frame {
        let forward = Frame::forward(record);
        Frame { at: forward.len.wrapping_sub(1), reversed: true, ..forward }
    }

    /// A cycle walked from its first edge leaving `start`.
    fn rotated(record: Record, start: VertexId) -> Frame {
        let at = record.view().edges().position(|e| e.from() == start).unwrap_or(0);
        Frame { at, ..Frame::forward(record) }
    }

    /// The next tour edge in walk order and direction.
    fn next(&mut self) -> Option<TourEdge> {
        self.left = self.left.checked_sub(1)?;
        let te = self.record.view().edge(self.at);
        if self.reversed {
            self.at = self.at.wrapping_sub(1);
            return Some(te.reversed());
        }
        self.at = if self.at + 1 == self.len { 0 } else { self.at + 1 };
        Some(te)
    }
}

/// Unrolls every fragment in `store` into closed circuits.
///
/// Returns one circuit per group of fragments reachable from each other;
/// for a connected Eulerian input this is a single circuit covering all
/// edges.
///
/// # Errors
/// [`EulerError::Graph`] wrapping [`GraphError::Io`] when a fragment paged
/// out to the spill file cannot be read back.
pub fn unroll(store: &FragmentStore) -> Result<CircuitResult, EulerError> {
    let mut pending = PendingCycles::new(store);
    let mut result = CircuitResult::default();
    // Every real edge is walked once: the first circuit is sized for all of
    // them (a connected input has no other), later ones for what is left.
    let mut unwalked = store.total_real_edges() as usize;

    while let Some(seed) = pending.pop_any() {
        let mut circuit: Vec<CircuitStep> = Vec::with_capacity(unwalked);
        let seed_record = reload(store, seed)?;
        // Splice anything already pending at the seed's start vertex.
        let mut splice_here = seed_record.view().start();
        let mut stack: Vec<Frame> = vec![Frame::forward(seed_record)];
        while let Some(extra) = pending.pop_at(splice_here) {
            stack.push(Frame::rotated(reload(store, extra)?, splice_here));
        }

        while let Some(frame) = stack.last_mut() {
            let Some(te) = frame.next() else {
                stack.pop();
                continue;
            };
            match te {
                TourEdge::Real { edge, from, to } => {
                    circuit.push(CircuitStep { edge, from, to });
                    splice_here = to;
                    while let Some(extra) = pending.pop_at(splice_here) {
                        stack.push(Frame::rotated(reload(store, extra)?, splice_here));
                    }
                }
                TourEdge::Virtual { fragment, from, to } => {
                    let record = reload(store, fragment)?;
                    // A path's ends differ, so the vertex it starts at tells
                    // the direction; its far end is left for the walk to
                    // reach.
                    let start = record.view().start();
                    debug_assert!(
                        start == from || start == to,
                        "virtual edge endpoints must match the fragment"
                    );
                    let frame =
                        if start == from { Frame::forward(record) } else { Frame::reversed(record) };
                    stack.push(frame);
                }
            }
        }
        unwalked = unwalked.saturating_sub(circuit.len());
        if unwalked > 0 {
            circuit.shrink_to_fit(); // more circuits follow: give the rest back
        }
        if !circuit.is_empty() {
            result.circuits.push(circuit);
        }
    }
    result.circuits = stitch_circuits(result.circuits);
    Ok(result)
}

/// The record of `id`, a failed spill reload as the run's error.
fn reload(store: &FragmentStore, id: FragmentId) -> Result<Record, EulerError> {
    store.record(id).map_err(|e| EulerError::Graph(GraphError::Io(e)))
}

/// First position of every vertex along a closed walk, as a dense interned
/// map (the stitch map, hash-free).
struct WalkPositions {
    index: LocalIndex,
    first_pos: Vec<u32>,
}

/// Sentinel for "vertex interned but position not yet recorded".
const POS_UNSET: u32 = u32::MAX;

impl WalkPositions {
    fn new(walk: &[CircuitStep]) -> Self {
        // The walk chains (step i's `to` is step i+1's `from`), so the
        // distinct vertices are the `from`s plus the final `to`.
        let index = LocalIndex::from_vertices(
            walk.iter().map(|s| s.from).chain(walk.last().map(|s| s.to)),
        );
        let mut first_pos = vec![POS_UNSET; index.len()];
        for (i, step) in walk.iter().enumerate() {
            let s = index.slot(step.from).expect("interned") as usize;
            if first_pos[s] == POS_UNSET {
                first_pos[s] = i as u32;
            }
        }
        if let Some(last) = walk.last() {
            let s = index.slot(last.to).expect("interned") as usize;
            if first_pos[s] == POS_UNSET {
                first_pos[s] = walk.len() as u32;
            }
        }
        WalkPositions { index, first_pos }
    }

    fn position_of(&self, v: VertexId) -> Option<usize> {
        let s = self.index.slot(v)? as usize;
        let p = self.first_pos[s];
        debug_assert_ne!(p, POS_UNSET, "every interned vertex has a position");
        Some(p as usize)
    }
}

/// Splices closed circuits that share a vertex into one another until no two
/// remaining circuits intersect. Needed when the seeding order visits a
/// dependent cycle before the fragment whose hidden vertices connect it to
/// the rest of the walk; the classic Hierholzer merge applies unchanged
/// because every circuit is closed.
fn stitch_circuits(circuits: Vec<Vec<CircuitStep>>) -> Vec<Vec<CircuitStep>> {
    let mut finals: Vec<Vec<CircuitStep>> = Vec::new();
    let mut pending = circuits;
    while !pending.is_empty() {
        if finals.is_empty() {
            finals.push(pending.remove(0));
            continue;
        }
        let mut progressed = false;
        let mut still_pending = Vec::new();
        for candidate in pending {
            let mut placed = false;
            for host in finals.iter_mut() {
                let host_pos = WalkPositions::new(host);
                if let Some((rot, at)) = candidate
                    .iter()
                    .enumerate()
                    .find_map(|(j, s)| host_pos.position_of(s.from).map(|i| (j, i)))
                {
                    let mut rotated = Vec::with_capacity(candidate.len());
                    rotated.extend_from_slice(&candidate[rot..]);
                    rotated.extend_from_slice(&candidate[..rot]);
                    host.splice(at..at, rotated);
                    placed = true;
                    progressed = true;
                    break;
                }
            }
            if !placed {
                still_pending.push(candidate);
            }
        }
        pending = still_pending;
        if !progressed && !pending.is_empty() {
            // Remaining circuits are disconnected from every current final:
            // they form their own component(s).
            finals.push(pending.remove(0));
        }
    }
    finals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{Fragment, FragmentKind};
    use euler_graph::PartitionId;

    fn real(edge: u64, from: u64, to: u64) -> TourEdge {
        TourEdge::Real { edge: EdgeId(edge), from: VertexId(from), to: VertexId(to) }
    }

    fn cycle(store: &FragmentStore, level: u32, edges: Vec<TourEdge>) -> FragmentId {
        store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level,
            partition: PartitionId(0),
            edges,
        })
    }

    fn path(store: &FragmentStore, level: u32, edges: Vec<TourEdge>) -> FragmentId {
        store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level,
            partition: PartitionId(0),
            edges,
        })
    }

    #[test]
    fn single_triangle_cycle_unrolls() {
        let store = FragmentStore::new();
        cycle(&store, 0, vec![real(0, 0, 1), real(1, 1, 2), real(2, 2, 0)]);
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 1);
        assert_eq!(result.total_edges(), 3);
        let seq = result.vertex_sequence().unwrap();
        assert_eq!(seq.first(), seq.last());
    }

    #[test]
    fn virtual_edge_expands_forward_and_reverse() {
        let store = FragmentStore::new();
        // Path fragment 1 -> 2 -> 3.
        let p = path(&store, 0, vec![real(10, 1, 2), real(11, 2, 3)]);
        // Root cycle: 0 ->1, virtual(1->3), 3->0  (forward use).
        cycle(
            &store,
            1,
            vec![
                real(0, 0, 1),
                TourEdge::Virtual { fragment: p, from: VertexId(1), to: VertexId(3) },
                real(1, 3, 0),
            ],
        );
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 1);
        let edges: Vec<u64> = result.circuits[0].iter().map(|s| s.edge.0).collect();
        assert_eq!(edges, vec![0, 10, 11, 1]);

        // Reverse use: 0 -> 3, virtual(3->1), 1 -> 0.
        let store2 = FragmentStore::new();
        let p2 = path(&store2, 0, vec![real(10, 1, 2), real(11, 2, 3)]);
        cycle(
            &store2,
            1,
            vec![
                real(0, 0, 3),
                TourEdge::Virtual { fragment: p2, from: VertexId(3), to: VertexId(1) },
                real(1, 1, 0),
            ],
        );
        let result2 = unroll(&store2).unwrap();
        let steps = &result2.circuits[0];
        assert_eq!(steps.iter().map(|s| s.edge.0).collect::<Vec<_>>(), vec![0, 11, 10, 1]);
        // Reversed direction flips from/to.
        assert_eq!(steps[1].from, VertexId(3));
        assert_eq!(steps[1].to, VertexId(2));
    }

    #[test]
    fn pending_cycle_spliced_at_shared_vertex() {
        let store = FragmentStore::new();
        // Main cycle around 0-1-2-0 and a separate cycle 1-3-4-1 anchored at 1.
        cycle(&store, 0, vec![real(0, 0, 1), real(1, 1, 2), real(2, 2, 0)]);
        cycle(&store, 0, vec![real(3, 1, 3), real(4, 3, 4), real(5, 4, 1)]);
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 1);
        assert_eq!(result.total_edges(), 6);
        // The combined walk is still closed.
        let seq = result.vertex_sequence().unwrap();
        assert_eq!(seq.first(), seq.last());
    }

    #[test]
    fn cycle_spliced_even_when_anchor_not_shared() {
        let store = FragmentStore::new();
        // Main cycle 0-1-2-0; second cycle anchored at 5 but passing through 2:
        // 5-2, 2-6, 6-5. Anchor (5) is not on the main cycle, but vertex 2 is.
        cycle(&store, 0, vec![real(0, 0, 1), real(1, 1, 2), real(2, 2, 0)]);
        cycle(&store, 0, vec![real(3, 5, 2), real(4, 2, 6), real(5, 6, 5)]);
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 1, "splicing must use all visible vertices, not only anchors");
        assert_eq!(result.total_edges(), 6);
    }

    #[test]
    fn disconnected_cycles_produce_two_circuits() {
        let store = FragmentStore::new();
        cycle(&store, 0, vec![real(0, 0, 1), real(1, 1, 2), real(2, 2, 0)]);
        cycle(&store, 0, vec![real(3, 10, 11), real(4, 11, 12), real(5, 12, 10)]);
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 2);
        assert_eq!(result.total_edges(), 6);
        assert!(result.circuit().is_none());
    }

    #[test]
    fn nested_virtual_edges_expand_recursively() {
        let store = FragmentStore::new();
        // Level-0 path A: 1 -> 2 -> 3.
        let a = path(&store, 0, vec![real(0, 1, 2), real(1, 2, 3)]);
        // Level-1 path B: 0 -> 1 ~A~> 3 -> 4 (contains A).
        let b = path(
            &store,
            1,
            vec![
                real(2, 0, 1),
                TourEdge::Virtual { fragment: a, from: VertexId(1), to: VertexId(3) },
                real(3, 3, 4),
            ],
        );
        // Level-2 root cycle: 5 -> 0 ~B~> 4 -> 5.
        cycle(
            &store,
            2,
            vec![
                real(4, 5, 0),
                TourEdge::Virtual { fragment: b, from: VertexId(0), to: VertexId(4) },
                real(5, 4, 5),
            ],
        );
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 1);
        let edges: Vec<u64> = result.circuits[0].iter().map(|s| s.edge.0).collect();
        assert_eq!(edges, vec![4, 2, 0, 1, 3, 5]);
    }

    #[test]
    fn splice_happens_inside_virtual_expansion() {
        let store = FragmentStore::new();
        // Path through hidden vertex 2: 1 -> 2 -> 3; pending cycle at 2.
        let p = path(&store, 0, vec![real(0, 1, 2), real(1, 2, 3)]);
        cycle(&store, 0, vec![real(10, 2, 7), real(11, 7, 2)]);
        cycle(
            &store,
            1,
            vec![
                real(2, 3, 1),
                TourEdge::Virtual { fragment: p, from: VertexId(1), to: VertexId(3) },
            ],
        );
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 1);
        assert_eq!(result.total_edges(), 5);
        // Every edge appears exactly once, the walk chains and closes.
        let steps = &result.circuits[0];
        let mut edges: Vec<u64> = steps.iter().map(|s| s.edge.0).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![0, 1, 2, 10, 11]);
        for w in steps.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        assert_eq!(steps.first().unwrap().from, steps.last().unwrap().to);
    }

    fn virt(fragment: FragmentId, from: u64, to: u64) -> TourEdge {
        TourEdge::Virtual { fragment, from: VertexId(from), to: VertexId(to) }
    }

    /// `(edge, from, to)` of every step of the single circuit.
    fn steps(store: &FragmentStore) -> Vec<(u64, u64, u64)> {
        let result = unroll(store).unwrap();
        assert_eq!(result.num_circuits(), 1);
        result.circuits[0].iter().map(|s| (s.edge.0, s.from.0, s.to.0)).collect()
    }

    #[test]
    fn reversed_path_inside_a_reversed_path_is_walked_backwards_twice() {
        let store = FragmentStore::new();
        // A: 1 -> 2 -> 3, used forward by B: 0 -> 1 ~A~> 3 -> 4; the root
        // cycle walks B from 4 to 0, which in turn walks A from 3 to 1.
        let a = path(&store, 0, vec![real(0, 1, 2), real(1, 2, 3)]);
        let b = path(&store, 1, vec![real(2, 0, 1), virt(a, 1, 3), real(3, 3, 4)]);
        cycle(&store, 2, vec![real(4, 5, 4), virt(b, 4, 0), real(5, 0, 5)]);
        assert_eq!(
            steps(&store),
            vec![(4, 5, 4), (3, 4, 3), (1, 3, 2), (0, 2, 1), (2, 1, 0), (5, 0, 5)]
        );
    }

    #[test]
    fn cycle_is_rotated_to_the_vertex_it_is_spliced_at() {
        let store = FragmentStore::new();
        // The second cycle is anchored at 5 but first met at 2, mid-list:
        // the walk enters it at its edge leaving 2 and wraps around.
        cycle(&store, 0, vec![real(0, 0, 1), real(1, 1, 2), real(2, 2, 0)]);
        cycle(&store, 0, vec![real(3, 5, 2), real(4, 2, 6), real(5, 6, 5)]);
        assert_eq!(
            steps(&store),
            vec![(0, 0, 1), (1, 1, 2), (4, 2, 6), (5, 6, 5), (3, 5, 2), (2, 2, 0)]
        );
    }

    #[test]
    fn self_loop_cycles_and_one_edge_paths_unroll() {
        let store = FragmentStore::new();
        let p = path(&store, 0, vec![real(0, 1, 2)]);
        cycle(&store, 0, vec![real(1, 7, 7)]);
        // The self-loop (lowest id) seeds the walk and the other cycle is
        // spliced in front of it at 7; the one-edge path is used against
        // its direction.
        cycle(&store, 1, vec![real(2, 7, 2), virt(p, 2, 1), real(3, 1, 7)]);
        assert_eq!(steps(&store), vec![(2, 7, 2), (0, 2, 1), (3, 1, 7), (1, 7, 7)]);

        let alone = FragmentStore::new();
        cycle(&alone, 0, vec![real(9, 4, 4)]);
        assert_eq!(steps(&alone), vec![(9, 4, 4)]);
    }

    #[test]
    fn spill_backing_under_a_one_fragment_budget_unrolls_like_memory() {
        // Every frame shape at once: nested reversed paths, a rotated cycle,
        // a self-loop, a one-edge path.
        let build = |store: &FragmentStore| {
            let a = path(store, 0, vec![real(0, 1, 2), real(1, 2, 3)]);
            let one = path(store, 0, vec![real(6, 8, 5)]);
            cycle(store, 0, vec![real(7, 9, 2), real(8, 2, 9)]);
            cycle(store, 0, vec![real(9, 3, 3)]);
            let b = path(store, 1, vec![real(2, 0, 1), virt(a, 1, 3), real(3, 3, 4)]);
            cycle(store, 2, vec![real(4, 5, 4), virt(b, 4, 0), real(5, 0, 8), virt(one, 8, 5)]);
        };
        let memory = FragmentStore::new();
        build(&memory);
        // 3 Longs per edge plus a header: the largest fragment just fits.
        let spill = FragmentStore::spilling(crate::fragment::SpillConfig::with_budget(16));
        build(&spill);
        // And a store holding the same records as bytes off the wire.
        let adopted = crate::fragment::tests::readopted(&memory);
        assert_eq!(memory.disk_longs(), spill.disk_longs());
        assert_eq!(memory.disk_longs(), adopted.disk_longs());
        let (from_memory, from_spill, from_wire) = (steps(&memory), steps(&spill), steps(&adopted));
        assert_eq!(from_memory, from_spill);
        assert_eq!(from_memory, from_wire);
        assert_eq!(from_memory.len(), 10);
        let stats = spill.stats();
        assert!(stats.spilled_fragments > 0 && stats.spill_read_longs > 0, "{stats:?}");
        assert_eq!(stats.spill_errors, 0);
    }

    #[test]
    fn empty_store_yields_no_circuits() {
        let store = FragmentStore::new();
        let result = unroll(&store).unwrap();
        assert_eq!(result.num_circuits(), 0);
        assert_eq!(result.total_edges(), 0);
    }
}
