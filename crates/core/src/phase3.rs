//! Phase 3: placing the fragments' edges into the final Euler circuit.
//!
//! Every edge sits in exactly one fragment: a path is referenced by one
//! virtual edge of a higher-level fragment, a cycle waits to be spliced where
//! the walk first arrives at one of its visible vertices (any of them, not
//! only its anchor). The circuit is the one a depth-first walk from the lowest
//! cycle would produce, but nothing walks: (1) from the store's skeleton
//! alone, each fragment's expanded length, ascending by id (a parent's id is
//! above its children's), then, descending, its base cycle, its offset in
//! that cycle's forward expansion and its direction; (2) one pass over the
//! records in storage order keeps the arrivals at a vertex where a cycle
//! other than the step's own base is visible; (3) over the cycles only, the
//! walk's splices are replayed from them — seeds in id order, a seed's start
//! first, every pending cycle at an arrival popped highest id first, the last
//! pushed walked first, rotated to its first tour edge leaving the vertex —
//! giving each circuit as pieces, ranges of base cycles in circuit order;
//! (4) a second storage-order pass writes each record's real edges once into
//! their final positions. Circuits that meet only at hidden vertices are then
//! stitched. The unit tests keep the depth-first walk as the oracle.

use crate::error::EulerError;
use crate::fragment::{FragmentId, FragmentStore, RecordView, Skeleton, TourEdge};
use euler_graph::{bucket_by_slot, EdgeId, GraphError, LocalIndex, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// Where a record's real edges go: `len` positions of its base cycle's
/// forward expansion from `offset`, walked forward or reversed; `base` is the
/// cycle's rank, cycles ranked in id order, or [`NONE`] for a path no virtual
/// edge references.
#[derive(Clone, Copy, Debug)]
struct Place {
    base: u32,
    reversed: bool,
    offset: u64,
    len: u64,
}

/// No record, no cycle.
const NONE: u32 = u32::MAX;
/// A [`Splices::hint`] cell of more than one cycle.
const CYCLES: u32 = u32::MAX - 1;

/// A step that can splice: base rank, forward position in the base's
/// expansion, and the vertex it arrives at.
type Arrival = (u32, u64, VertexId);

/// `len` steps of base `base`'s forward expansion from position `from`,
/// placed from position `at` of circuit `circuit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Piece {
    base: u32,
    from: u64,
    len: u64,
    circuit: usize,
    at: usize,
}

/// Every record's place, records numbered in id order: `groups` holds each
/// skeleton group's `(level, partition)` and first record, and a record's
/// virtual edges stand for `children[first_child[d]..first_child[d + 1]]`
/// (or [`NONE`]).
struct Layout {
    groups: Vec<((u32, u32), usize)>,
    places: Vec<Place>,
    first_child: Vec<u32>,
    children: Vec<u32>,
}

/// What the splice replay needs; dropped before the circuit is placed. Per
/// cycle by rank its start vertex and expanded length; per visible vertex,
/// interned in `index`, its cycles' `(rank, rotation)` in
/// `visible[bucket_lo[s]..bucket_lo[s + 1]]`, ranks ascending — the rotation
/// being the forward position of the cycle's first tour edge leaving the
/// vertex; and per `v & mask`, what the cycles visible there have in common
/// ([`NONE`], the one rank they all are, or [`CYCLES`]), which rules out
/// most steps before `index` is asked.
struct Splices {
    cycles: Vec<(VertexId, u64)>,
    index: LocalIndex,
    bucket_lo: Vec<u32>,
    visible: Vec<(u32, u64)>,
    hint: Vec<u32>,
    mask: u64,
}

impl Layout {
    /// Places every record of the skeleton `table` and keys every cycle for
    /// the splice replay.
    fn new(table: &BTreeMap<(u32, u32), Skeleton>) -> (Layout, Splices) {
        let (mut groups, mut records, mut virtuals, mut visible) = (Vec::new(), 0, 0, 0);
        for (&key, skeleton) in table {
            groups.push((key, records));
            records += skeleton.records.len();
            virtuals += skeleton.virtuals.len();
            visible += skeleton.visible.len();
        }
        let (places, first_child) = (Vec::with_capacity(records), Vec::with_capacity(records + 1));
        let mut layout = Layout { groups, places, first_child, children: Vec::with_capacity(virtuals) };
        // Ascending: expanded lengths — a fragment's children are below it —
        // whether each child starts at its virtual edge's far end, and per
        // cycle the forward position each visible vertex rotates it to.
        let (mut starts, mut flips) = (Vec::with_capacity(records), Vec::with_capacity(virtuals));
        let (mut cycles, mut keys, mut lens) = (Vec::new(), Vec::with_capacity(visible), Vec::new());
        for skeleton in table.values() {
            let (mut virtuals, mut visible) = (skeleton.virtuals.iter(), skeleton.visible.iter().peekable());
            for (seq, r) in skeleton.records.iter().enumerate() {
                layout.first_child.push(layout.children.len() as u32);
                let mut len = r.reals as u64;
                lens.clear();
                for v in virtuals.by_ref().take(r.virtuals as usize) {
                    let child = layout.number(v.child).filter(|&c| c < starts.len());
                    let child_len = child.map_or(0, |c| layout.places[c].len);
                    layout.children.push(child.map_or(NONE, |c| c as u32));
                    flips.push(child.is_some_and(|c| starts[c] != v.from));
                    lens.push((v.at, child_len));
                    len += child_len;
                }
                let mut base = NONE;
                if visible.peek().is_some_and(|v| v.record == seq as u32) {
                    base = cycles.len() as u32;
                    let (mut k, mut expanded) = (0, 0);
                    // First-seen order is ascending tour index.
                    while let Some(v) = visible.next_if(|v| v.record == seq as u32) {
                        while lens.get(k).is_some_and(|&(at, _)| at < v.at) {
                            expanded += lens[k].1;
                            k += 1;
                        }
                        keys.push((v.vertex, base, v.at as u64 - k as u64 + expanded));
                    }
                    cycles.push((r.start, len));
                }
                layout.places.push(Place { base, reversed: false, offset: 0, len });
                starts.push(r.start);
            }
        }
        layout.first_child.push(layout.children.len() as u32);
        // Descending: each placed record hands its place down to its
        // children, mirrored when it is walked reversed.
        for (g, skeleton) in table.values().enumerate().rev() {
            let first = layout.groups[g].1;
            let group_children = layout.first_child[first] as usize;
            for d in (first..first + skeleton.records.len()).rev() {
                let parent = layout.places[d];
                let (lo, hi) = (layout.first_child[d] as usize, layout.first_child[d + 1] as usize);
                let virtuals = &skeleton.virtuals[lo - group_children..hi - group_children];
                let mut expanded = 0;
                for (k, (v, &c)) in virtuals.iter().zip(&layout.children[lo..hi]).enumerate() {
                    let local = v.at as u64 - k as u64 + expanded;
                    let Some(child) = layout.places.get_mut(c as usize) else { continue };
                    expanded += child.len;
                    // A path is referenced once; a second reference (bytes off
                    // the wire) stays a hole, which `unroll` reports.
                    if parent.base == NONE || child.base != NONE {
                        continue;
                    }
                    child.base = parent.base;
                    child.reversed = parent.reversed != flips[lo + k];
                    child.offset = match parent.reversed {
                        false => parent.offset + local,
                        true => parent.offset + parent.len - local - child.len,
                    };
                }
            }
        }
        // The splice keys, and the hint: one cell per vertex id where the ids
        // are dense, shared by a few where they are not.
        let index = LocalIndex::from_vertices(keys.iter().map(|k| k.0));
        let slots: Vec<u32> = keys.iter().map(|k| index.slot(k.0).expect("interned")).collect();
        let slotted = || slots.iter().zip(&keys).map(|(&s, &(_, rank, rotation))| (s, (rank, rotation)));
        let (bucket_lo, visible) = bucket_by_slot(index.len(), slotted);
        let ids = keys.iter().map(|k| k.0 .0).max().map_or(0, |v| v.saturating_add(1));
        let mask = ids.min(16 * keys.len() as u64).max(1).next_power_of_two() - 1;
        let mut hint = vec![NONE; mask as usize + 1];
        for &(v, rank, _) in &keys {
            let cell = &mut hint[(v.0 & mask) as usize];
            *cell = if *cell == NONE || *cell == rank { rank } else { CYCLES };
        }
        (layout, Splices { cycles, index, bucket_lo, visible, hint, mask })
    }

    /// The number of record `id`.
    fn number(&self, id: FragmentId) -> Option<usize> {
        let key = (id.level(), id.partition().0);
        let g = self.groups.partition_point(|&(k, _)| k <= key).checked_sub(1)?;
        let ((k, first), end) = (self.groups[g], self.groups.get(g + 1).map_or(usize::MAX, |g| g.1));
        let d = first.checked_add(usize::try_from(id.seq()).ok()?)?;
        (k == key && d < end).then_some(d)
    }

    /// The place of record `id`, if a cycle reaches it, and from its first
    /// on the records its virtual edges stand for.
    fn record(&self, id: FragmentId) -> Option<(Place, &[u32])> {
        let d = self.number(id)?;
        let place = Some(self.places[d]).filter(|p| p.base != NONE)?;
        Some((place, &self.children[self.first_child[d] as usize..]))
    }
}

impl Splices {
    /// Whether a cycle other than `base` is visible at `v`. The base's own
    /// cycle is never pending while the base is walked.
    fn other_than(&self, base: u32, v: VertexId) -> bool {
        let hint = self.hint[(v.0 & self.mask) as usize];
        hint != NONE
            && hint != base
            && self.index.slot(v).is_some_and(|s| {
                let cycles =
                    &self.visible[self.bucket_lo[s as usize] as usize..self.bucket_lo[s as usize + 1] as usize];
                cycles.len() > 1 || cycles[0].0 != base
            })
    }

    /// Replays the depth-first walk's splices over the cycles alone, from the
    /// sorted `arrivals` that can splice: each circuit as its pieces, in
    /// circuit order.
    fn replay(&self, arrivals: &[Arrival]) -> Vec<Vec<Piece>> {
        let (mut end, mut spliced) = (self.bucket_lo[1..].to_vec(), vec![false; self.cycles.len()]);
        // Walks every cycle pending at `v` next, highest rank pushed first.
        let mut pop_all = |v: VertexId, spliced: &mut [bool], out: &mut Vec<Walk>| {
            let Some(s) = self.index.slot(v).map(|s| s as usize) else { return };
            while end[s] > self.bucket_lo[s] {
                end[s] -= 1;
                let (rank, rotation) = self.visible[end[s] as usize];
                if !std::mem::replace(&mut spliced[rank as usize], true) {
                    out.push(self.walk(arrivals, rank, rotation));
                }
            }
        };
        let (mut circuits, mut popped) = (Vec::new(), Vec::new());
        for seed in 0..self.cycles.len() {
            if std::mem::replace(&mut spliced[seed], true) {
                continue;
            }
            // The cycles pending at the seed's start go in before its first
            // step; the one pushed last is walked first.
            let (mut pieces, mut stack) = (Vec::new(), vec![self.walk(arrivals, seed as u32, 0)]);
            pop_all(self.cycles[seed].0, &mut spliced, &mut stack);
            while let Some(top) = stack.last_mut() {
                let Some((walked, v)) = top.arrivals.pop() else {
                    top.cut(top.len, &mut pieces);
                    stack.pop();
                    continue;
                };
                pop_all(v, &mut spliced, &mut popped);
                if !popped.is_empty() {
                    top.cut(walked, &mut pieces);
                    stack.append(&mut popped);
                }
            }
            let mut at = 0;
            for piece in &mut pieces {
                (piece.circuit, piece.at) = (circuits.len(), at);
                at += piece.len as usize;
            }
            circuits.push(pieces);
        }
        circuits
    }

    /// Base `base` walked from forward position `rotation` round to it.
    fn walk(&self, arrivals: &[Arrival], base: u32, rotation: u64) -> Walk {
        let len = self.cycles[base as usize].1;
        let of_base = arrivals.partition_point(|a| a.0 < base)..arrivals.partition_point(|a| a.0 <= base);
        let walked = |&(_, position, v): &Arrival| ((position + len - rotation) % len + 1, v);
        let mut arrivals: Vec<(u64, VertexId)> = arrivals[of_base].iter().map(walked).collect();
        arrivals.sort_unstable_by(|a, b| b.cmp(a));
        Walk { base, rotation, len, cut: 0, arrivals }
    }
}

/// A base cycle walked in the splice replay, from forward position
/// `rotation` round to it: `cut` of its steps are in pieces already, and
/// `arrivals` are still to come — the steps walked once each is made, and
/// its vertex — last first.
struct Walk {
    base: u32,
    rotation: u64,
    len: u64,
    cut: u64,
    arrivals: Vec<(u64, VertexId)>,
}

impl Walk {
    /// Cuts the walk's steps up to `to` into pieces of the base's forward
    /// expansion: two where they wrap round its end.
    fn cut(&mut self, to: u64, pieces: &mut Vec<Piece>) {
        if to > self.cut {
            let (from, n) = ((self.rotation + self.cut) % self.len, to - self.cut);
            let head = n.min(self.len - from);
            pieces.push(Piece { base: self.base, from, len: head, circuit: 0, at: 0 });
            if n > head {
                pieces.push(Piece { base: self.base, from: 0, len: n - head, circuit: 0, at: 0 });
            }
        }
        self.cut = to;
    }
}

/// Unrolls every fragment in `store` into closed circuits.
///
/// Returns one circuit per group of fragments reachable from each other;
/// for a connected Eulerian input this is a single circuit covering all
/// edges. The store is read in two passes in storage order (see the module
/// docs); which order that is does not change the result.
///
/// # Errors
/// [`EulerError::Graph`] wrapping [`GraphError::Io`] when a fragment paged
/// out to the spill file cannot be read back.
pub fn unroll(store: &FragmentStore) -> Result<CircuitResult, EulerError> {
    let (layout, splices) = store.with_skeleton(Layout::new);
    let mut arrivals: Vec<Arrival> = Vec::new();
    for_each_step(store, &layout, |base, position, step| {
        if splices.other_than(base, step.to) {
            arrivals.push((base, position, step.to));
        }
    })?;
    arrivals.sort_unstable();
    let replayed = splices.replay(&arrivals);
    drop((splices, arrivals));
    // Each circuit sized from its pieces, the pieces found by base and
    // position.
    let mut circuits: Vec<Vec<CircuitStep>> =
        replayed.iter().map(|c| vec![UNSET; c.iter().map(|p| p.len as usize).sum()]).collect();
    let mut pieces: Vec<Piece> = replayed.into_iter().flatten().collect();
    pieces.sort_unstable();
    let (mut placed, mut piece) = (0, None);
    for_each_step(store, &layout, |base, position, step| {
        let within = |p: &Piece| p.base == base && p.from <= position && position < p.from + p.len;
        piece = piece.filter(within).or_else(|| {
            let i = pieces.partition_point(|p| (p.base, p.from) <= (base, position));
            i.checked_sub(1).map(|i| pieces[i]).filter(within)
        });
        if let Some(p) = piece {
            circuits[p.circuit][p.at + (position - p.from) as usize] = step;
            placed += 1;
        }
    })?;
    let steps: usize = circuits.iter().map(Vec::len).sum();
    if placed != steps {
        return Err(EulerError::MissingEdges { missing: steps.abs_diff(placed) as u64 });
    }
    circuits.retain(|c| !c.is_empty());
    Ok(CircuitResult { circuits: stitch_circuits(circuits) })
}

/// Calls `f(base, position, step)` for every real tour edge of every placed
/// record, records in storage order: the step as walked, at `position` of
/// its base's forward expansion.
fn for_each_step(
    store: &FragmentStore,
    layout: &Layout,
    mut f: impl FnMut(u32, u64, CircuitStep),
) -> Result<(), EulerError> {
    let visit = |id, record: RecordView<'_>| {
        let Some((place, children)) = layout.record(id) else { return };
        // `q`: the edge's position in the record's forward expansion.
        let (mut q, mut children) = (0, children.iter());
        for e in record.edges() {
            let TourEdge::Real { edge, from, to } = e else {
                q += children.next().and_then(|&c| layout.places.get(c as usize)).map_or(0, |p| p.len);
                continue;
            };
            match place.reversed {
                false => f(place.base, place.offset + q, CircuitStep { edge, from, to }),
                true => f(place.base, place.offset + place.len - 1 - q, CircuitStep { edge, from: to, to: from }),
            }
            q += 1;
        }
    };
    store.for_each_stored(visit).map_err(|e| EulerError::Graph(GraphError::Io(e)))
}

/// What a circuit position holds until the placement pass writes it.
const UNSET: CircuitStep = CircuitStep { edge: EdgeId(0), from: VertexId(0), to: VertexId(0) };

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
        let index = LocalIndex::from_vertices(walk.iter().map(|s| s.from).chain(walk.last().map(|s| s.to)));
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
                if let Some((rot, at)) =
                    candidate.iter().enumerate().find_map(|(j, s)| host_pos.position_of(s.from).map(|i| (j, i)))
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

/// The depth-first Phase 3 — the oracle the placement is checked against,
/// step for step.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{stitch_circuits, CircuitResult, CircuitStep};
    use crate::error::EulerError;
    use crate::fragment::{Fragment, FragmentId, FragmentKind, FragmentStore, Record, TourEdge};
    use euler_graph::{bucket_by_slot, GraphError, LocalIndex, VertexId};

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
            // Read off the typed fragments, not the skeleton: the oracle shares
            // no index with what it checks.
            let cycles: Vec<Fragment> =
                store.snapshot().into_iter().filter(|f| f.kind == FragmentKind::Cycle).collect();
            let visible: Vec<Vec<VertexId>> = cycles.iter().map(Fragment::visible_vertices).collect();
            let index = LocalIndex::from_vertices(visible.iter().flatten().copied());
            let pairs: Vec<(u32, u32)> = visible
                .iter()
                .enumerate()
                .flat_map(|(rank, vs)| vs.iter().map(move |&v| (v, rank as u32)))
                .map(|(v, rank)| (index.slot(v).expect("interned"), rank))
                .collect();
            let cycles: Vec<FragmentId> = cycles.iter().map(|f| f.id).collect();
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

    /// The depth-first walk [`unroll`](super::unroll) replaced, kept as its
    /// oracle: it chases virtual edges through a frame stack and splices each
    /// pending cycle where the walk first arrives at one of its visible
    /// vertices.
    pub(crate) fn unroll(store: &FragmentStore) -> Result<CircuitResult, EulerError> {
        let mut pending = PendingCycles::new(store);
        let mut result = CircuitResult::default();
        // Every real edge is walked once: the first circuit is sized for all of
        // them (a connected input has no other), later ones for what is left.
        let mut unwalked = store.total_real_edges() as usize;

        while let Some(seed) = pending.pop_any() {
            let mut circuit: Vec<CircuitStep> = Vec::with_capacity(unwalked);
            let seed_record = reload(store, seed)?;
            // Splice anything already pending at the seed's start vertex.
            let mut splice_here = seed_record.view().edge(0).from();
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
                        let start = record.view().edge(0).from();
                        debug_assert!(start == from || start == to, "virtual edge endpoints must match the fragment");
                        let frame = if start == from { Frame::forward(record) } else { Frame::reversed(record) };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{Fragment, FragmentKind, SpillConfig};
    use euler_graph::PartitionId;
    use proptest::prelude::*;

    fn real(edge: u64, from: u64, to: u64) -> TourEdge {
        TourEdge::Real { edge: EdgeId(edge), from: VertexId(from), to: VertexId(to) }
    }

    fn cycle(store: &FragmentStore, level: u32, edges: Vec<TourEdge>) -> FragmentId {
        store.push(Fragment { id: FragmentId(0), kind: FragmentKind::Cycle, level, partition: PartitionId(0), edges })
    }

    fn path(store: &FragmentStore, level: u32, edges: Vec<TourEdge>) -> FragmentId {
        store.push(Fragment { id: FragmentId(0), kind: FragmentKind::Path, level, partition: PartitionId(0), edges })
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
            vec![real(0, 0, 1), TourEdge::Virtual { fragment: p, from: VertexId(1), to: VertexId(3) }, real(1, 3, 0)],
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
            vec![real(0, 0, 3), TourEdge::Virtual { fragment: p2, from: VertexId(3), to: VertexId(1) }, real(1, 1, 0)],
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
            vec![real(2, 0, 1), TourEdge::Virtual { fragment: a, from: VertexId(1), to: VertexId(3) }, real(3, 3, 4)],
        );
        // Level-2 root cycle: 5 -> 0 ~B~> 4 -> 5.
        cycle(
            &store,
            2,
            vec![real(4, 5, 0), TourEdge::Virtual { fragment: b, from: VertexId(0), to: VertexId(4) }, real(5, 4, 5)],
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
        cycle(&store, 1, vec![real(2, 3, 1), TourEdge::Virtual { fragment: p, from: VertexId(1), to: VertexId(3) }]);
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
        assert_eq!(steps(&store), vec![(4, 5, 4), (3, 4, 3), (1, 3, 2), (0, 2, 1), (2, 1, 0), (5, 0, 5)]);
    }

    #[test]
    fn cycle_is_rotated_to_the_vertex_it_is_spliced_at() {
        let store = FragmentStore::new();
        // The second cycle is anchored at 5 but first met at 2, mid-list:
        // the walk enters it at its edge leaving 2 and wraps around.
        cycle(&store, 0, vec![real(0, 0, 1), real(1, 1, 2), real(2, 2, 0)]);
        cycle(&store, 0, vec![real(3, 5, 2), real(4, 2, 6), real(5, 6, 5)]);
        assert_eq!(steps(&store), vec![(0, 0, 1), (1, 1, 2), (4, 2, 6), (5, 6, 5), (3, 5, 2), (2, 2, 0)]);
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

    #[test]
    fn a_path_referenced_twice_is_an_error_not_a_wrong_circuit() {
        // Bytes off the wire are checked for references that exist, not for
        // references that are unique: the second use is a hole, reported.
        let store = FragmentStore::new();
        let p = path(&store, 0, vec![real(0, 1, 2)]);
        cycle(&store, 1, vec![real(1, 2, 1), virt(p, 1, 2)]);
        cycle(&store, 1, vec![real(2, 2, 1), virt(p, 1, 2)]);
        assert!(matches!(unroll(&store), Err(EulerError::MissingEdges { missing: 1 })));
    }

    /// A small deterministic generator (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
        }
    }

    /// Fragments shaped like the ones Phase 1 leaves, in push order: closed
    /// walks over a few vertices — so several cycles meet at a vertex, with
    /// self-loops and parallel edges — in one of two vertex ranges, so the
    /// input can fall apart into several circuits; runs of their tours are
    /// moved, recursively and each at or below its parent's level, into path
    /// fragments that the tour references by a virtual edge, stored in either
    /// direction.
    fn random_fragments(seed: u64, cycles: usize, vertices: u64) -> Vec<Fragment> {
        struct Gen {
            rng: Rng,
            pushed: std::collections::BTreeMap<(u32, u32), u64>,
            out: Vec<Fragment>,
        }
        impl Gen {
            fn emit(&mut self, kind: FragmentKind, level: u32, partition: u32, edges: Vec<TourEdge>) -> FragmentId {
                let seq = self.pushed.entry((level, partition)).or_insert(0);
                let id = FragmentId::new(level, PartitionId(partition), *seq);
                *seq += 1;
                self.out.push(Fragment { id, kind, level, partition: PartitionId(partition), edges });
                id
            }

            fn nest(&mut self, tour: &[TourEdge], level: u32, partition: u32) -> Vec<TourEdge> {
                let (mut edges, mut i) = (Vec::new(), 0);
                while i < tour.len() {
                    let j = i + 1 + self.rng.below(3.min(tour.len() - i) as u64) as usize;
                    let (from, to) = (tour[i].from(), tour[j - 1].to());
                    if from == to || j - i == tour.len() || self.rng.below(3) == 0 {
                        edges.extend_from_slice(&tour[i..j]);
                        i = j;
                        continue;
                    }
                    let below = self.rng.below(level as u64 + 1) as u32;
                    let at = if below == level { partition } else { self.rng.below(3) as u32 };
                    let mut body = self.nest(&tour[i..j], below, at);
                    if self.rng.below(2) == 0 {
                        body = body.iter().rev().map(TourEdge::reversed).collect();
                    }
                    let fragment = self.emit(FragmentKind::Path, below, at, body);
                    edges.push(TourEdge::Virtual { fragment, from, to });
                    i = j;
                }
                edges
            }
        }
        let mut g = Gen { rng: Rng(seed | 1), pushed: Default::default(), out: Vec::new() };
        let mut edge = 0;
        for _ in 0..cycles {
            let range = 1000 * g.rng.below(2);
            let n = 1 + g.rng.below(8) as usize;
            let walk: Vec<u64> = (0..n).map(|_| range + g.rng.below(vertices)).collect();
            let tour: Vec<TourEdge> = (0..n)
                .map(|i| {
                    edge += 1;
                    real(edge, walk[i], walk[(i + 1) % n])
                })
                .collect();
            let (level, partition) = (g.rng.below(4) as u32, g.rng.below(3) as u32);
            let edges = g.nest(&tour, level, partition);
            g.emit(FragmentKind::Cycle, level, partition, edges);
        }
        g.out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The placement against the depth-first walk it replaced, step for
        /// step: multigraphs with several cycles per vertex, self-loop
        /// cycles, one-edge paths used reversed and disconnected inputs
        /// (several circuits, stitched or not), on the memory backing, a
        /// store adopted off the wire and the spill backing at a one-fragment
        /// budget — whose storage order is not id order, and whose file both
        /// passes read front to back.
        #[test]
        fn placement_equals_the_depth_first_walk_step_for_step(
            seed in any::<u64>(),
            cycles in 1usize..12,
            vertices in 1u64..8,
        ) {
            let fragments = random_fragments(seed, cycles, vertices);
            let one_fragment = fragments.iter().map(Fragment::disk_longs).max().unwrap();
            let memory = FragmentStore::new();
            let spill = FragmentStore::spilling(SpillConfig::with_budget(one_fragment));
            for f in &fragments {
                prop_assert_eq!(memory.push(f.clone()), f.id);
                prop_assert_eq!(spill.push(f.clone()), f.id);
            }
            let expected = oracle::unroll(&memory).unwrap();
            prop_assert_eq!(expected.total_edges(), memory.total_real_edges());
            let adopted = crate::fragment::tests::readopted(&memory);
            for store in [&memory, &adopted, &spill] {
                prop_assert_eq!(&unroll(store).unwrap().circuits, &expected.circuits);
            }
            let stats = spill.stats();
            prop_assert!(stats.spilled_fragments > 0 || fragments.len() == 1, "{:?}", stats);
            prop_assert_eq!(stats.spill_read_longs, 2 * stats.spill_write_longs, "{:?}", stats);
            prop_assert!(stats.spill_reads <= 2 * stats.spill_writes, "{:?}", stats);
        }
    }
}
