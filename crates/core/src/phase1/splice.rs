//! Splice-order index: the arena-backed linked-tour representation behind
//! Phase-1 `mergeInto`.
//!
//! The dense kernel used to keep every pending fragment as a
//! `Vec<TourEdge>` and splice internal cycles in with `Vec::splice` after a
//! linear `position(..)` scan for the pivot's first occurrence — worst-case
//! quadratic on hub-centric graphs where thousands of cycles merge into one
//! fragment. This module replaces that representation with:
//!
//! * **One slab.** The kernel's walks append their tour edges (`nodes`) and
//!   the vertex slot each edge leaves (`nslot`) straight to one shared
//!   arena; a pending fragment is a `(head, tail, len)` view over it, the
//!   contiguous run `head..=tail` until a splice lands in it.
//! * **Linked tour, built on demand.** The first `mergeInto` that lands in
//!   a fragment *indexes* it: next-links (`nxt`) over its run, plus the
//!   handles below. A spliced cycle is never copied: its walked run is
//!   closed into a ring by its links and opened at the pivot, O(|cycle|).
//!   Nodes are kept as the two words a tour edge has in a stored record,
//!   `[id, to]` — a node's `from` is the `to` before it, the first's the
//!   fragment's start, and a splice keeps both true — so persisting a
//!   fragment is one copy of its run into the segment buffer the store takes
//!   whole, or a single O(total) walk over the links.
//! * **First-occurrence handles.** For every vertex slot an indexed
//!   fragment owns (the `visible` array the kernel already keeps), the
//!   index records `first_pred[slot]`: the arena node *preceding* the
//!   slot's first from-occurrence in tour order (`PRED_HEAD` when the first
//!   occurrence is the fragment head, `PRED_END` when the vertex appears
//!   only as the final `to` of a path). This makes the mergeInto insert
//!   position an O(1) lookup instead of a scan.
//! * **Order tags.** The documented semantics move a vertex's handle to the
//!   spliced cycle's occurrence exactly when its old first occurrence sat
//!   at-or-after the pivot's. Deciding that needs an order query between two
//!   handles of the same fragment, so handles are kept on a per-fragment
//!   doubly-linked list ordered by first occurrence, each carrying a u64
//!   tag; `pos(a) < pos(b)` ⟺ `tag(a) < tag(b)`. Tags are spread evenly when
//!   the fragment is indexed and maintained under insertion with
//!   Bender-style local relabelling (grow aligned power-of-two tag windows
//!   around the insertion point until the window is sparse enough, then
//!   re-spread) — amortised O(log n) per insert instead of the quadratic
//!   full-list relabel a fixed stride would degrade to under hub storms.
//!
//! Why indexing can wait for the first splice: creating a fragment claims
//! its slots in `visible` first-wins, and a claim is never rewritten. A
//! fragment's handles are "the slots whose `visible` entry is this
//! fragment, in first-occurrence order over its walk, the end slot as
//! `PRED_END` when it has no from-occurrence" — and until a splice lands in
//! it both that set and the walk are what they were at creation (later
//! fragments only claim slots still free; only a `mergeInto` *into this
//! fragment* adds claims for it, after indexing it). Most fragments are
//! never spliced into and never pay for links or handles, and a run that
//! splices nothing never touches the per-slot arrays.
//!
//! Why `first_pred` (and not the first node itself) is stable: a splice at
//! pivot `v` links the rotated cycle right after `first_pred[v]`, so `v`'s
//! first occurrence becomes the cycle head but its *predecessor node* is
//! unchanged. And no other vertex's splice can land between `first_pred[v]`
//! and `v`'s first occurrence: two distinct vertices can never share a
//! `first_pred` node, because sharing it would mean sharing the very next
//! node as their first from-occurrence — one node, one `from()` vertex.
//!
//! Everything here is deterministic and allocation-reusing: the buffers
//! live in [`HostScratch`](super::arena::HostScratch) and are re-`reset`
//! for every run, so arena reuse across merge levels stays poison-safe and
//! bit-identical (see the arena's dirty-arena differential test).

use super::NOT_VISIBLE;
use crate::fragment::{edge_words, FragmentKind, Segment, TourEdge, RUN_BYTES};
use euler_graph::{PartitionId, VertexId};

/// Absent link / absent list entry.
const NONE: u32 = u32::MAX;
/// `first_pred` sentinel: first occurrence is the fragment head.
const PRED_HEAD: u32 = u32::MAX - 1;
/// `first_pred` sentinel: the vertex has no from-occurrence (it appears
/// only as the final `to` of a path) — mergeInto appends at the tail.
const PRED_END: u32 = u32::MAX;
/// Exclusive upper bound of the tag space; live tags are in `(0, TAG_LIMIT)`.
const TAG_LIMIT: u64 = 1 << 62;

/// One pending fragment: a view over the node arena and, once a splice has
/// landed in it, the head and tail of its first-occurrence handle list.
#[derive(Clone, Copy, Debug)]
struct Frag {
    kind: FragmentKind,
    /// Vertex the tour leaves first; splices never move it.
    start: VertexId,
    /// First / last arena node of the tour.
    head: u32,
    tail: u32,
    len: u32,
    /// Vertex slot the creating walk ended on (the start again for a cycle).
    end_slot: u32,
    /// False until the first `mergeInto` lands here: the tour is the
    /// contiguous arena run `head..=tail`, with no links or handles yet.
    indexed: bool,
    /// Head / tail slot of the per-fragment handle list (`NONE` when empty).
    h_head: u32,
    h_tail: u32,
}

/// The splice-order index. One per [`HostScratch`]; `reset` before each run.
#[derive(Default)]
pub(crate) struct SpliceIndex {
    /// Tour-node arena: every walked edge, in walk order, as its record
    /// words `[id, to]`.
    nodes: Vec<[u64; 2]>,
    /// Vertex slot each arena node leaves (its `from()`), parallel to `nodes`.
    nslot: Vec<u32>,
    /// Next-links over `nodes` (`NONE` terminates a fragment's tour). Only
    /// meaningful for the nodes of indexed fragments.
    nxt: Vec<u32>,
    frags: Vec<Frag>,
    /// Per vertex slot: arena node preceding the slot's first
    /// from-occurrence in its fragment (`PRED_HEAD` / `PRED_END` sentinels).
    /// Only meaningful for slots owned by an indexed fragment this run.
    first_pred: Vec<u32>,
    /// Per vertex slot: handle-list links and order tag. Only meaningful for
    /// slots with a node-valued `first_pred` this run.
    h_prev: Vec<u32>,
    h_next: Vec<u32>,
    h_tag: Vec<u64>,
    /// Per vertex slot: generation stamp deduplicating repeated occurrences
    /// of a vertex within one indexed walk or spliced cycle. Empty until the
    /// run's first `mergeInto` sizes the per-slot arrays.
    mark: Vec<u32>,
    generation: u32,
    /// Scratch: handle block assembled during one index/merge call.
    block: Vec<u32>,
    /// Scratch: window entries collected during a relabel.
    window: Vec<u32>,
}

impl SpliceIndex {
    /// Prepares the index for a run. Reuses every allocation and writes no
    /// per-slot array: those are sized by the run's first `mergeInto`, if
    /// there is one.
    pub(crate) fn reset(&mut self) {
        self.nodes.clear();
        self.nslot.clear();
        self.nxt.clear();
        self.frags.clear();
        self.mark.clear();
    }

    /// Sizes the per-slot arrays for this run's `n` vertex slots, once. They
    /// are grown but never shrunk (arena discipline), and only `mark` needs
    /// a deterministic fill — the other per-slot entries are always written
    /// before they are read, gated by the kernel's freshly-reset `visible`
    /// array.
    fn prepare_handles(&mut self, n: usize) {
        if !self.mark.is_empty() {
            return;
        }
        if self.first_pred.len() < n {
            self.first_pred.resize(n, PRED_END);
            self.h_prev.resize(n, NONE);
            self.h_next.resize(n, NONE);
            self.h_tag.resize(n, 0);
        }
        self.mark.resize(n, u32::MAX);
        self.generation = 0;
    }

    /// Deliberately corrupts every buffer (arena poison test support).
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        self.nodes.clear();
        self.nslot.clear();
        self.nxt.clear();
        self.frags.clear();
        self.first_pred.fill(7);
        self.h_prev.fill(7);
        self.h_next.fill(7);
        self.h_tag.fill(7);
        self.mark.fill(7);
        self.generation = u32::MAX - 3;
    }

    /// True when every per-slot array still holds exactly what
    /// [`poison`](Self::poison) left there: nothing wrote them since.
    #[cfg(test)]
    pub(crate) fn handles_hold_poison(&self) -> bool {
        let words = [&self.first_pred, &self.h_prev, &self.h_next, &self.mark];
        words.iter().all(|a| a.iter().all(|&x| x == 7)) && self.h_tag.iter().all(|&t| t == 7)
    }

    /// Capacity of the node arena (for [`ArenaCapacities`] monotonicity).
    pub(crate) fn node_capacity(&self) -> usize {
        self.nodes.capacity().min(self.nslot.capacity())
    }

    /// Capacity of the per-slot arrays (for [`ArenaCapacities`]).
    pub(crate) fn slot_capacity(&self) -> usize {
        self.first_pred.len()
    }

    /// Arena nodes so far: where the next walk's run starts.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends one walked edge, leaving vertex slot `from_slot`.
    #[inline]
    pub(crate) fn push(&mut self, edge: TourEdge, from_slot: u32) {
        self.nodes.push(edge_words(&edge));
        self.nslot.push(from_slot);
    }

    /// `mergeInto` pivot lookup for the cycle walked since `base`: its first
    /// vertex visible in a pending fragment, as `(rotation, fragment)`. Only
    /// the from-slots are candidates (the closing slot duplicates the
    /// first), as in the reference.
    pub(crate) fn pivot(&self, base: usize, visible: &[u32]) -> Option<(usize, u32)> {
        let owners = self.nslot[base..].iter().map(|&s| visible[s as usize]);
        owners.enumerate().find(|&(_, at)| at != NOT_VISIBLE)
    }

    /// Turns the walk appended since `base`, which left `start` and ended on
    /// `end_slot`, into a new pending fragment: claims its still-free vertex
    /// slots in `visible` (first-wins, exactly like the old
    /// `register_visible`) and nothing else. Returns the fragment's index.
    pub(crate) fn create_fragment(
        &mut self,
        kind: FragmentKind,
        start: VertexId,
        base: usize,
        end_slot: u32,
        visible: &mut [u32],
    ) -> u32 {
        debug_assert!(base < self.nodes.len());
        let idx = self.frags.len() as u32;
        for &s in self.nslot[base..].iter().chain([&end_slot]) {
            let owner = &mut visible[s as usize];
            if *owner == NOT_VISIBLE {
                *owner = idx;
            }
        }
        let (head, tail) = (base as u32, self.nodes.len() as u32 - 1);
        self.frags.push(Frag {
            kind,
            start,
            head,
            tail,
            len: tail - head + 1,
            end_slot,
            indexed: false,
            h_head: NONE,
            h_tail: NONE,
        });
        idx
    }

    /// Starts a fresh `mark` generation.
    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == u32::MAX || self.generation == 0 {
            // Never collide with the fill (u32::MAX) even if a run somehow
            // wraps the counter.
            self.mark.fill(u32::MAX);
            self.generation = 1;
        }
        self.generation
    }

    /// Links the never-spliced fragment `at` and builds its handle list with
    /// evenly-spread tags: the slots `visible` says it owns, in
    /// first-occurrence order (see the module docs for why this equals
    /// doing it at creation).
    fn index_fragment(&mut self, at: u32, visible: &[u32]) {
        let Frag { head, tail, end_slot, .. } = self.frags[at as usize];
        for i in head..tail {
            self.nxt[i as usize] = i + 1;
        }
        self.nxt[tail as usize] = NONE;
        let gen = self.next_generation();
        let mut block = std::mem::take(&mut self.block);
        block.clear();
        for i in head..=tail {
            let s = self.nslot[i as usize];
            let su = s as usize;
            if visible[su] == at && self.mark[su] != gen {
                self.mark[su] = gen;
                self.first_pred[su] = if i == head { PRED_HEAD } else { i - 1 };
                block.push(s);
            }
        }
        // The closing slot duplicates the start for cycles; for paths it can
        // be a vertex with no from-occurrence — an END handle, kept out of
        // the tag list (there is nothing to order it against until a splice
        // turns it into a real occurrence).
        if visible[end_slot as usize] == at && self.mark[end_slot as usize] != gen {
            self.first_pred[end_slot as usize] = PRED_END;
        }
        let stride = TAG_LIMIT / (block.len() as u64 + 1);
        let mut prev = NONE;
        for (i, &s) in block.iter().enumerate() {
            self.link_handle_after(at, prev, s, (i as u64 + 1) * stride);
            prev = s;
        }
        self.frags[at as usize].indexed = true;
        self.block = block;
    }

    /// `mergeInto`: splices the cycle walked since `base` (rotated to start
    /// at its `rot`-th vertex, the pivot) into pending fragment `at` at the
    /// pivot's first occurrence, reproducing the reference semantics
    /// exactly: the rotated cycle lands immediately before the pivot's first
    /// from-occurrence (at the tail when the pivot appears only as a final
    /// `to`), and every cycle vertex's handle moves to its occurrence
    /// inside the cycle iff its old first occurrence sat at-or-after the
    /// pivot's.
    pub(crate) fn merge_into(&mut self, at: u32, rot: usize, base: usize, visible: &mut [u32]) {
        self.prepare_handles(visible.len());
        self.nxt.resize(self.nodes.len(), NONE);
        if !self.frags[at as usize].indexed {
            self.index_fragment(at, visible);
        }
        // Rotate in place: close the walked run into a ring by its links;
        // the rotated cycle's `j`-th node is then `node(j)`.
        let len = self.nodes.len() - base;
        let node = |j: usize| (base + if rot + j < len { rot + j } else { rot + j - len }) as u32;
        for j in 0..len {
            self.nxt[node(j) as usize] = node(j + 1);
        }
        let (c_head, c_tail) = (node(0), node(len - 1));
        self.nxt[c_tail as usize] = NONE;
        let v = self.nslot[c_head as usize] as usize;

        // --- Link the rotated cycle into the fragment's tour. ---------------
        let was_end = self.first_pred[v] == PRED_END;
        {
            let f = &mut self.frags[at as usize];
            match self.first_pred[v] {
                PRED_END => {
                    // Pivot visible only as the final `to`: append.
                    self.nxt[f.tail as usize] = c_head;
                    self.first_pred[v] = f.tail;
                    f.tail = c_tail;
                }
                PRED_HEAD => {
                    self.nxt[c_tail as usize] = f.head;
                    f.head = c_head;
                }
                p => {
                    // `p` precedes the pivot's first occurrence, so it has a
                    // successor and is never the tail.
                    self.nxt[c_tail as usize] = self.nxt[p as usize];
                    self.nxt[p as usize] = c_head;
                }
            }
            f.len += len as u32;
        }

        // --- Update handles. -------------------------------------------------
        // Handle ranks after the splice: everything strictly before the
        // pivot's old first occurrence keeps its rank; the pivot keeps its
        // rank (same predecessor node, see module docs); the cycle's fresh
        // and moved handles follow the pivot as one contiguous block in
        // cycle order; surviving later handles shift after the block.
        let gen = self.next_generation();
        self.mark[v] = gen;
        let pivot_tag = if was_end { u64::MAX } else { self.h_tag[v] };
        let mut block = std::mem::take(&mut self.block);
        block.clear();
        for j in 1..len {
            let s = self.nslot[node(j) as usize];
            let su = s as usize;
            if self.mark[su] == gen {
                continue; // later occurrence of a vertex already placed
            }
            self.mark[su] = gen;
            let vis = visible[su];
            if vis == NOT_VISIBLE {
                visible[su] = at;
                self.first_pred[su] = node(j - 1);
                block.push(s);
            } else if vis == at {
                // An END handle sits past every from-occurrence, so it
                // always moves; otherwise compare first-occurrence order
                // with the pivot via the tags. (`was_end` pivots sit at the
                // very end themselves, so node-valued handles never move.)
                let moved = if self.first_pred[su] == PRED_END {
                    true
                } else if was_end {
                    false
                } else {
                    self.h_tag[su] > pivot_tag
                };
                if moved {
                    if self.first_pred[su] != PRED_END {
                        self.unlink_handle(at, s);
                    }
                    self.first_pred[su] = node(j - 1);
                    block.push(s);
                }
            }
            // Visible in another fragment: first-wins, nothing changes.
        }

        // Insertion anchor: the pivot's own handle entry — which, for an END
        // pivot, is itself new and goes to the current end of the list.
        let (anchor, lead) = if was_end { (self.frags[at as usize].h_tail, Some(v as u32)) } else { (v as u32, None) };
        let need = block.len() + lead.is_some() as usize;
        if need > 0 {
            let (lo, stride) = self.make_room(at, anchor, need);
            let mut prev = anchor;
            let mut tag = lo;
            for &s in lead.iter().chain(block.iter()) {
                tag += stride;
                self.link_handle_after(at, prev, s, tag);
                prev = s;
            }
        }
        block.clear();
        self.block = block;
    }

    /// Removes slot `s` from fragment `at`'s handle list.
    fn unlink_handle(&mut self, at: u32, s: u32) {
        let su = s as usize;
        let (p, nx) = (self.h_prev[su], self.h_next[su]);
        if p != NONE {
            self.h_next[p as usize] = nx;
        } else {
            self.frags[at as usize].h_head = nx;
        }
        if nx != NONE {
            self.h_prev[nx as usize] = p;
        } else {
            self.frags[at as usize].h_tail = p;
        }
    }

    /// Inserts slot `s` with `tag` immediately after `prev` (`NONE` = list
    /// head) in fragment `at`'s handle list.
    fn link_handle_after(&mut self, at: u32, prev: u32, s: u32, tag: u64) {
        let su = s as usize;
        let nx = if prev == NONE { self.frags[at as usize].h_head } else { self.h_next[prev as usize] };
        self.h_tag[su] = tag;
        self.h_prev[su] = prev;
        self.h_next[su] = nx;
        if prev != NONE {
            self.h_next[prev as usize] = s;
        } else {
            self.frags[at as usize].h_head = s;
        }
        if nx != NONE {
            self.h_prev[nx as usize] = s;
        } else {
            self.frags[at as usize].h_tail = s;
        }
    }

    /// Finds room for `need` consecutive tags strictly after `anchor`
    /// (`NONE` = before the current list head). Returns `(lo, stride)`;
    /// the i-th inserted entry takes tag `lo + (i+1) * stride`.
    ///
    /// Fast path: the gap to the anchor's successor is wide enough. Slow
    /// path: Bender-style local relabel — grow aligned power-of-two tag
    /// windows around the anchor until the window's density (current
    /// entries + the insertion) satisfies `total² ≤ width`, then re-spread
    /// the window evenly, leaving the insertion gap. Level 62 always
    /// accepts, so the loop terminates.
    fn make_room(&mut self, at: u32, anchor: u32, need: usize) -> (u64, u64) {
        let lo = if anchor == NONE { 0 } else { self.h_tag[anchor as usize] };
        let succ = if anchor == NONE { self.frags[at as usize].h_head } else { self.h_next[anchor as usize] };
        let hi = if succ == NONE { TAG_LIMIT } else { self.h_tag[succ as usize] };
        let gap = hi - lo;
        let stride = gap / (need as u64 + 1);
        if stride >= 1 {
            return (lo, stride);
        }
        // Local relabel. Window levels are aligned tag ranges around the
        // anchor's tag (anchor NONE ⇒ around the low end of the space).
        let center = lo;
        for level in 1..=62u32 {
            let width = 1u64 << level;
            let base = center & !(width - 1);
            let end = base.saturating_add(width);
            // Collect the contiguous run of entries whose tags fall inside
            // the window, walking outward from the insertion point.
            self.window.clear();
            let mut left = if anchor == NONE { NONE } else { anchor };
            while left != NONE && self.h_tag[left as usize] >= base {
                self.window.push(left);
                left = self.h_prev[left as usize];
            }
            self.window.reverse();
            let anchor_pos = self.window.len(); // entries ≤ anchor (1-based end)
            let mut right = succ;
            while right != NONE && self.h_tag[right as usize] < end {
                self.window.push(right);
                right = self.h_next[right as usize];
            }
            let total = (self.window.len() + need) as u64;
            if total * total <= width && width / (total + 1) >= 1 {
                let stride = width / (total + 1);
                for (i, &s) in self.window.iter().enumerate() {
                    let pos = if i < anchor_pos { i } else { i + need };
                    self.h_tag[s as usize] = base + (pos as u64 + 1) * stride;
                }
                let new_lo = if anchor == NONE { base } else { self.h_tag[anchor as usize] };
                return (new_lo, stride);
            }
        }
        unreachable!("tag space exhausted: more than 2^31 handles in one fragment")
    }

    /// Writes every pending fragment of `(level, partition)`, in creation
    /// order, as a record — its arena run as it is when no splice ever landed
    /// in it, otherwise gathered by the single O(len) walk over its links —
    /// handing the records over a run ([`RUN_BYTES`]) at a time.
    pub(crate) fn persist(&self, level: u32, partition: PartitionId, mut hand_over: impl FnMut(Segment)) {
        let fresh = || Segment::with_capacity(level, partition, RUN_BYTES / 256, RUN_BYTES / 16);
        let (mut out, mut linked) = (fresh(), Vec::new());
        for f in &self.frags {
            if f.indexed {
                linked.clear();
                let links = std::iter::successors(Some(f.head), |&cur| {
                    Some(self.nxt[cur as usize]).filter(|&next| next != NONE)
                });
                linked.extend(links.map(|cur| self.nodes[cur as usize]));
                debug_assert_eq!(linked.len(), f.len as usize, "linked tour length drifted");
                out.push_record(f.kind, f.start, &linked);
            } else {
                out.push_record(f.kind, f.start, &self.nodes[f.head as usize..=f.tail as usize]);
            }
            if out.bytes().len() >= RUN_BYTES {
                hand_over(std::mem::replace(&mut out, fresh()));
            }
        }
        hand_over(out);
    }

    /// Every pending fragment's kind and end vertices, in creation order.
    pub(crate) fn ends(&self) -> impl Iterator<Item = (FragmentKind, VertexId, VertexId)> + '_ {
        self.frags.iter().map(|f| (f.kind, f.start, VertexId(self.nodes[f.tail as usize][1])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{FragmentStore, TourEdge};
    use euler_graph::EdgeId;

    /// Every pending fragment as the store reads it back: persisted into a
    /// segment, pushed, decoded — with `ends` checked against the tours.
    fn persisted(idx: &SpliceIndex) -> Vec<(FragmentKind, Vec<TourEdge>)> {
        let store = FragmentStore::new();
        idx.persist(0, PartitionId(0), |run| {
            store.push_segment(run);
        });
        let tours: Vec<_> = store.snapshot().into_iter().map(|f| (f.kind, f.edges)).collect();
        let ends: Vec<_> =
            tours.iter().map(|(kind, tour)| (*kind, tour[0].from(), tour[tour.len() - 1].to())).collect();
        assert_eq!(idx.ends().collect::<Vec<_>>(), ends);
        tours
    }

    fn e(from: u64, to: u64, id: u64) -> TourEdge {
        TourEdge::Real { edge: EdgeId(id), from: VertexId(from), to: VertexId(to) }
    }

    /// Reference splice on plain vectors, mirroring the reference kernel
    /// (`euler_oracle::run_phase1_reference`).
    fn vec_merge(target: &mut Vec<TourEdge>, tour: &[TourEdge], rot: usize, pivot: VertexId) {
        let mut rotated = Vec::with_capacity(tour.len());
        rotated.extend_from_slice(&tour[rot..]);
        rotated.extend_from_slice(&tour[..rot]);
        let at = target.iter().position(|e| e.from() == pivot).unwrap_or(target.len());
        target.splice(at..at, rotated);
    }

    /// Differential driver: feed the same walk sequence through the index
    /// (appended to its slab as the kernel's walks are, then created or
    /// merged in place) and the vector model; every fragment must
    /// materialize identically.
    struct Model {
        idx: SpliceIndex,
        visible: Vec<u32>,
        frags: Vec<Vec<TourEdge>>,
    }

    impl Model {
        fn new(n: usize) -> Self {
            let mut idx = SpliceIndex::default();
            idx.reset();
            Model { idx, visible: vec![NOT_VISIBLE; n], frags: Vec::new() }
        }

        /// Appends `tour` to the slab the way `Traversal::walk` does and
        /// returns `(base, end slot)`. Slots are vertex ids here (identity
        /// interning keeps tests terse).
        fn append(idx: &mut SpliceIndex, tour: &[TourEdge]) -> (usize, u32) {
            let base = idx.len();
            for t in tour {
                idx.push(*t, t.from().0 as u32);
            }
            (base, tour.last().unwrap().to().0 as u32)
        }

        fn walk(&mut self, kind: FragmentKind, tour: &[TourEdge]) {
            let (base, end) = Self::append(&mut self.idx, tour);
            if kind == FragmentKind::Cycle {
                if let Some((rot, at)) = self.idx.pivot(base, &self.visible) {
                    let mut shadow = self.visible.clone();
                    self.idx.merge_into(at, rot, base, &mut self.visible);
                    for t in tour {
                        let s = &mut shadow[t.from().0 as usize];
                        if *s == NOT_VISIBLE {
                            *s = at;
                        }
                    }
                    assert_eq!(shadow, self.visible, "visibility must be first-wins");
                    vec_merge(&mut self.frags[at as usize], tour, rot, tour[rot].from());
                    return;
                }
            }
            self.idx.create_fragment(kind, tour[0].from(), base, end, &mut self.visible);
            self.frags.push(tour.to_vec());
        }

        fn check(&self) {
            let tours: Vec<Vec<TourEdge>> = persisted(&self.idx).into_iter().map(|(_, tour)| tour).collect();
            assert_eq!(tours.len(), self.frags.len());
            for (i, (tour, expect)) in tours.iter().zip(&self.frags).enumerate() {
                assert_eq!(tour, expect, "fragment {i} diverged from the vector model");
            }
        }

        fn indexed(&self, i: usize) -> bool {
            self.idx.frags[i].indexed
        }
    }

    #[test]
    fn single_cycle_round_trips() {
        let mut m = Model::new(8);
        m.walk(FragmentKind::Cycle, &[e(0, 1, 0), e(1, 2, 1), e(2, 0, 2)]);
        m.check();
        assert!(!m.indexed(0), "a fragment nothing spliced into is never indexed");
        assert!(m.idx.first_pred.is_empty(), "no splice: per-slot arrays never sized");
    }

    #[test]
    fn splice_at_interior_pivot_matches_vector_model() {
        let mut m = Model::new(8);
        m.walk(FragmentKind::Cycle, &[e(0, 1, 0), e(1, 2, 1), e(2, 0, 2)]);
        // Cycle through vertex 2 (pivot at rot 0) and vertex 1 (pivot mid-cycle).
        m.walk(FragmentKind::Cycle, &[e(2, 3, 3), e(3, 2, 4)]);
        m.walk(FragmentKind::Cycle, &[e(4, 1, 5), e(1, 4, 6)]);
        m.check();
    }

    #[test]
    fn end_handle_pivot_appends_at_tail() {
        let mut m = Model::new(8);
        // Path 0→1→2: vertex 2 is visible only as the final `to`, so the
        // fragment's first splice lands at a `PRED_END` pivot.
        m.walk(FragmentKind::Path, &[e(0, 1, 0), e(1, 2, 1)]);
        m.walk(FragmentKind::Cycle, &[e(2, 3, 2), e(3, 2, 3)]);
        m.check();
        // And a second cycle at 2 — now a real from-occurrence exists.
        m.walk(FragmentKind::Cycle, &[e(2, 4, 4), e(4, 2, 5)]);
        m.check();
    }

    #[test]
    fn first_splice_at_the_head_pivot() {
        // The pivot is the fragment's very first vertex (`PRED_HEAD`), met
        // mid-cycle so the ring is opened at a non-zero rotation.
        let mut m = Model::new(8);
        m.walk(FragmentKind::Cycle, &[e(0, 1, 0), e(1, 2, 1), e(2, 0, 2)]);
        m.walk(FragmentKind::Cycle, &[e(5, 6, 3), e(6, 0, 4), e(0, 5, 5)]);
        m.check();
        m.walk(FragmentKind::Cycle, &[e(0, 7, 6), e(7, 0, 7)]);
        m.check();
    }

    #[test]
    fn first_splice_after_later_fragments_claimed_some_of_its_vertices() {
        // F0 = 0→1→2→3, then F1 = 4→5→1→6 passes through F0's vertex 1 and
        // claims 4, 5, 6 only, then F2 = 7→6→3→8 claims 7 and 8 only — all
        // before anything splices. Deferred indexing of F0 and F1 must see
        // exactly the slots each claimed at creation.
        let mut m = Model::new(16);
        m.walk(FragmentKind::Path, &[e(0, 1, 0), e(1, 2, 1), e(2, 3, 2)]);
        m.walk(FragmentKind::Path, &[e(4, 5, 3), e(5, 1, 4), e(1, 6, 5)]);
        m.walk(FragmentKind::Path, &[e(7, 6, 6), e(6, 3, 7), e(3, 8, 8)]);
        // Cycle at 1: owned by F0 although F1 walks through it too.
        m.walk(FragmentKind::Cycle, &[e(9, 1, 9), e(1, 9, 10)]);
        assert!(m.indexed(0) && !m.indexed(1) && !m.indexed(2));
        // Cycle meeting 6 (F1's end slot, also walked by F2) then 5 (F1).
        m.walk(FragmentKind::Cycle, &[e(10, 6, 11), e(6, 5, 12), e(5, 10, 13)]);
        assert!(m.indexed(1) && !m.indexed(2));
        m.check();
        // Cycle through 5 and 6 again: both handles moved or stayed as the
        // vector model says.
        m.walk(FragmentKind::Cycle, &[e(5, 11, 14), e(11, 6, 15), e(6, 5, 16)]);
        m.check();
    }

    #[test]
    fn splice_into_a_path_whose_end_slot_another_fragment_owns() {
        // F1 = 4→5→2 ends on vertex 2, which F0 owns: F1 has no END handle,
        // and a cycle at 2 must land in F0, one at 5 in F1.
        let mut m = Model::new(16);
        m.walk(FragmentKind::Path, &[e(0, 1, 0), e(1, 2, 1), e(2, 3, 2)]);
        m.walk(FragmentKind::Path, &[e(4, 5, 3), e(5, 2, 4)]);
        m.walk(FragmentKind::Cycle, &[e(5, 6, 5), e(6, 2, 6), e(2, 5, 7)]);
        assert!(m.indexed(1) && !m.indexed(0));
        m.check();
        m.walk(FragmentKind::Cycle, &[e(7, 2, 8), e(2, 7, 9)]);
        assert!(m.indexed(0));
        m.check();
    }

    #[test]
    fn two_fragments_indexed_in_turn() {
        let mut m = Model::new(32);
        m.walk(FragmentKind::Cycle, &[e(0, 1, 0), e(1, 2, 1), e(2, 0, 2)]);
        m.walk(FragmentKind::Cycle, &[e(10, 11, 3), e(11, 12, 4), e(12, 10, 5)]);
        // Index the later fragment first, then the earlier, then alternate.
        m.walk(FragmentKind::Cycle, &[e(11, 13, 6), e(13, 11, 7)]);
        assert!(!m.indexed(0) && m.indexed(1));
        m.walk(FragmentKind::Cycle, &[e(14, 2, 8), e(2, 1, 9), e(1, 14, 10)]);
        assert!(m.indexed(0));
        m.walk(FragmentKind::Cycle, &[e(12, 13, 11), e(13, 12, 12)]);
        m.walk(FragmentKind::Cycle, &[e(1, 15, 13), e(15, 1, 14)]);
        m.check();
    }

    #[test]
    fn moved_handle_counterexample_from_module_docs() {
        // Splicing C=[b→v, v→b] into F=[a→b, b→v, v→a] at b moves v's first
        // from-occurrence into C — the naive first-wins handle gets this
        // wrong; the order tags must not. F is indexed by that very splice
        // (after two unrelated fragments were created), not at creation.
        let (a, b, v) = (0, 1, 2);
        let mut m = Model::new(16);
        m.walk(FragmentKind::Cycle, &[e(a, b, 0), e(b, v, 1), e(v, a, 2)]);
        m.walk(FragmentKind::Path, &[e(8, 9, 10), e(9, v, 11)]);
        m.walk(FragmentKind::Cycle, &[e(12, 13, 12), e(13, 12, 13)]);
        assert!(!m.indexed(0));
        m.walk(FragmentKind::Cycle, &[e(b, v, 3), e(v, b, 4)]);
        // Now splice a cycle at v: it must land before the *moved* first
        // occurrence (inside the previous cycle), as the vector model does.
        m.walk(FragmentKind::Cycle, &[e(v, 3, 5), e(3, v, 6)]);
        m.check();
        assert!(m.indexed(0) && !m.indexed(1) && !m.indexed(2));
    }

    #[test]
    fn hub_storm_differential_and_tag_relabel() {
        // A hub star: many petals splicing into one fragment at the same
        // pivot exhausts naive tag gaps and forces local relabels; every
        // intermediate state must match the vector model.
        let hub = 0u64;
        let mut m = Model::new(4096);
        m.walk(FragmentKind::Cycle, &[e(hub, 1, 0), e(1, hub, 1)]);
        let mut id = 2;
        for p in 0..600u64 {
            let spoke = 2 + p;
            m.walk(FragmentKind::Cycle, &[e(hub, spoke, id), e(spoke, hub, id + 1)]);
            id += 2;
        }
        m.check();
    }

    #[test]
    fn chained_pivot_storm_matches_vector_model() {
        // Petals pivot at distinct core vertices, and cross-petals revisit
        // earlier core vertices — exercising moved handles repeatedly.
        let k = 48u64;
        let mut m = Model::new(4096);
        let core: Vec<TourEdge> = (0..k).map(|i| e(i, (i + 1) % k, i)).collect();
        m.walk(FragmentKind::Cycle, &core);
        let mut id = k;
        for i in 0..k {
            let p = k + 2 * i;
            let q = k + 2 * i + 1;
            let j = (i * 7 + 3) % k;
            m.walk(FragmentKind::Cycle, &[e(i, p, id), e(p, j, id + 1), e(j, q, id + 2), e(q, i, id + 3)]);
            id += 4;
            m.check();
        }
    }

    #[test]
    fn random_walk_sequences_match_vector_model() {
        // Random paths and cycles over a small vertex set (so walks keep
        // crossing each other's vertices), first splices arriving at random
        // points of the sequence.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..40 {
            let mut m = Model::new(24);
            let mut id = 0;
            for _ in 0..30 {
                let len = 1 + rnd(5) as usize;
                let mut vs: Vec<u64> = (0..len).map(|_| rnd(24)).collect();
                let kind = if rnd(3) == 0 { FragmentKind::Path } else { FragmentKind::Cycle };
                vs.push(if kind == FragmentKind::Cycle { vs[0] } else { rnd(24) });
                let tour: Vec<TourEdge> = vs
                    .windows(2)
                    .map(|w| {
                        id += 1;
                        e(w[0], w[1], id)
                    })
                    .collect();
                m.walk(kind, &tour);
                m.check();
            }
        }
    }

    #[test]
    fn disjoint_fragments_stay_independent() {
        let mut m = Model::new(32);
        m.walk(FragmentKind::Cycle, &[e(0, 1, 0), e(1, 0, 1)]);
        m.walk(FragmentKind::Cycle, &[e(10, 11, 2), e(11, 10, 3)]);
        m.walk(FragmentKind::Cycle, &[e(1, 2, 4), e(2, 1, 5)]);
        m.walk(FragmentKind::Cycle, &[e(11, 12, 6), e(12, 11, 7)]);
        m.check();
    }

    #[test]
    fn reset_recovers_from_poison() {
        let run = |idx: &mut SpliceIndex| {
            idx.reset();
            let mut visible = vec![NOT_VISIBLE; 16];
            let (base, end) = Model::append(idx, &[e(0, 1, 0), e(1, 2, 1), e(2, 0, 2)]);
            idx.create_fragment(FragmentKind::Cycle, VertexId(0), base, end, &mut visible);
            let (base, _) = Model::append(idx, &[e(3, 1, 3), e(1, 3, 4)]);
            assert_eq!(idx.pivot(base, &visible), Some((1, 0)));
            idx.merge_into(0, 1, base, &mut visible);
            persisted(idx)
        };
        let mut idx = SpliceIndex::default();
        let clean = run(&mut idx);
        idx.poison();
        let dirty = run(&mut idx);
        assert_eq!(clean, dirty, "poisoned index must reset to bit-identical output");
        assert!(!idx.handles_hold_poison());
    }

    #[test]
    fn a_run_without_splices_never_writes_the_handle_arrays() {
        let mut idx = SpliceIndex::default();
        idx.reset();
        let mut visible = vec![NOT_VISIBLE; 16];
        let (base, end) = Model::append(&mut idx, &[e(0, 1, 0), e(1, 0, 1)]);
        idx.create_fragment(FragmentKind::Cycle, VertexId(0), base, end, &mut visible);
        let (base, _) = Model::append(&mut idx, &[e(1, 2, 2), e(2, 1, 3)]);
        idx.merge_into(0, 0, base, &mut visible);
        idx.poison();
        idx.reset();
        visible.fill(NOT_VISIBLE);
        let (base, end) = Model::append(&mut idx, &[e(0, 1, 0), e(1, 2, 1)]);
        idx.create_fragment(FragmentKind::Path, VertexId(0), base, end, &mut visible);
        let (base, end) = Model::append(&mut idx, &[e(3, 4, 2), e(4, 3, 3)]);
        assert_eq!(idx.pivot(base, &visible), None);
        idx.create_fragment(FragmentKind::Cycle, VertexId(3), base, end, &mut visible);
        let expect = vec![
            (FragmentKind::Path, vec![e(0, 1, 0), e(1, 2, 1)]),
            (FragmentKind::Cycle, vec![e(3, 4, 2), e(4, 3, 3)]),
        ];
        assert_eq!(persisted(&idx), expect);
        assert!(idx.handles_hold_poison(), "no splice landed: handle arrays must be untouched");
    }
}
