//! Reusable Phase-1 scratch: the [`Phase1Arena`] and its checkout pool.
//!
//! Phase 1 runs once per partition per merge level; allocating its dense
//! traversal state (interning table, CSR rows and incidence arena, bitsets,
//! the splice slab) from scratch every time dominates the cost of small levels
//! and fragments the heap on large ones. A [`Phase1Arena`] owns every buffer
//! one Phase-1 execution needs — kernel state and splice scratch — and is
//! reloaded in place for each run: lengths are rewritten, capacities only
//! ever grow.
//!
//! Workers check arenas out of an [`ArenaPool`] (one arena per concurrently
//! executing partition) and return them afterwards, so the same buffers are
//! reused across merge levels regardless of which thread runs which
//! partition. [`run_phase1_with_arena`](super::run_phase1_with_arena) fully
//! re-initialises every array it reads, so a dirty arena can never leak
//! state between checkouts — `arena::tests` pins that with a deliberately
//! poisoned arena.

use super::splice::SpliceIndex;
use super::Phase1Output;
use crate::fragment::FragmentStore;
use crate::state::{LocalEdge, WorkingPartition};
use euler_graph::{LocalIndex, LocalIndexBufs};
use parking_lot::Mutex;
use std::sync::Arc;

/// Dense traversal state over interned vertex slots — the arrays
/// behind [`super::Traversal`]. Rebuilt in place by [`KernelState::load`]
/// for every Phase-1 run; all capacities are retained.
#[derive(Default)]
pub(crate) struct KernelState {
    /// Interning table; slot order is ascending global vertex order.
    pub index: LocalIndex,
    /// Recycle bin for the previous index's allocations.
    index_bufs: LocalIndexBufs,
    /// Load scratch: interned endpoints `[u, v]` of each edge slot, kept
    /// between the degree-count and fill passes only.
    ends_scratch: Vec<[u32; 2]>,
    /// Per-vertex CSR row `[cursor, end]` into `incidence`: the unconsumed
    /// suffix of the vertex's incidence list.
    pub rows: Vec<[u32; 2]>,
    /// `[edge slot, far endpoint slot]` incidences, grouped by vertex, in
    /// edge insertion order (a self-loop appears twice under its vertex, as
    /// in the reference).
    pub incidence: Vec<[u32; 2]>,
    /// One bit per edge slot.
    pub visited: Vec<u64>,
    /// One bit per vertex slot: parity of its unvisited local degree. Only
    /// the two ends of a maximal walk change parity, so the walker toggles
    /// at most two bits per walk.
    pub odd: Vec<u64>,
    /// Monotone scan cursor for "first unvisited edge" (step 3); visited
    /// bits are never cleared, so this never moves backwards.
    pub unvisited_scan: usize,
}

impl KernelState {
    /// Rebuilds every array for `edges`, reusing all existing capacity.
    pub fn load(&mut self, edges: &[LocalEdge]) {
        let retired = std::mem::take(&mut self.index);
        retired.into_bufs(&mut self.index_bufs);
        self.index = LocalIndex::from_vertices_reusing(edges.iter().flat_map(|e| [e.u, e.v]), &mut self.index_bufs);
        let n = self.index.len();
        let incidences = edges.len() * 2;
        assert!(incidences < u32::MAX as usize, "CSR arena overflow: {incidences} incidences do not fit u32 indices");

        // Counting-sort CSR build (the `bucket_by_slot` idiom, inlined so the
        // arenas are reused instead of reallocated). One pass over the
        // endpoints the index build just collected interns them and counts
        // degrees (in `rows[s][1]`).
        self.rows.clear();
        self.rows.resize(n, [0, 0]);
        self.ends_scratch.clear();
        for uv in self.index_bufs.collected().chunks_exact(2) {
            let ends = [uv[0], uv[1]].map(|v| self.index.slot(v).expect("endpoint interned"));
            self.rows[ends[0] as usize][1] += 1;
            self.rows[ends[1] as usize][1] += 1;
            self.ends_scratch.push(ends);
        }
        // Degrees become empty rows `[start, start]`; the parity set keeps
        // the one bit of the degree the walker needs.
        self.odd.clear();
        self.odd.resize(n.div_ceil(64), 0);
        let mut start = 0u32;
        for (s, row) in self.rows.iter_mut().enumerate() {
            let degree = row[1];
            self.odd[s >> 6] |= u64::from(degree & 1) << (s & 63);
            *row = [start, start];
            start += degree;
        }
        // Filling in edge order grows each row's end to its full width,
        // means each vertex sees its incident edges in insertion order, and
        // gives a self-loop two entries.
        self.incidence.clear();
        self.incidence.resize(incidences, [0, 0]);
        for (i, &[u, v]) in self.ends_scratch.iter().enumerate() {
            for (s, far) in [(u, v), (v, u)] {
                let fill = &mut self.rows[s as usize][1];
                self.incidence[*fill as usize] = [i as u32, far];
                *fill += 1;
            }
        }

        self.visited.clear();
        self.visited.resize(edges.len().div_ceil(64), 0);
        self.unvisited_scan = 0;
    }

    /// True when vertex slot `s` has odd unvisited local degree.
    #[inline]
    pub fn is_odd(&self, s: u32) -> bool {
        self.odd[(s >> 6) as usize] & (1u64 << (s & 63)) != 0
    }
}

/// Splice scratch of the Phase-1 orchestration.
#[derive(Default)]
pub(crate) struct HostScratch {
    /// First pending fragment each vertex slot is visible in (`mergeInto`
    /// pivot lookup), [`super::NOT_VISIBLE`] when none.
    pub visible: Vec<u32>,
    /// Splice-order index holding the pending fragments: the slab the walks
    /// append to, plus links and first-occurrence handles where a splice
    /// landed; reset per run.
    pub splice: SpliceIndex,
}

/// Reusable scratch for one Phase-1 execution: checked out of an
/// [`ArenaPool`] per worker, reloaded in place per partition, reused across
/// merge levels. See the [module docs](self) for the reuse contract.
#[derive(Default)]
pub struct Phase1Arena {
    pub(crate) kernel: KernelState,
    pub(crate) host: HostScratch,
}

/// Capacity snapshot of an arena's buffers, for asserting that reuse across
/// levels never shrinks or reallocates below a previously reached
/// working-set size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaCapacities {
    /// Capacity of the per-vertex CSR rows, in slots.
    pub vertex_slots: usize,
    /// Capacity of the per-edge load scratch, in edge slots.
    pub edge_slots: usize,
    /// Capacity of the CSR incidence arena, in entries.
    pub incidence: usize,
    /// Capacity of the visited bitset, in 64-bit words.
    pub visited_words: usize,
    /// Capacity of the interning table's vertex buffers, in entries.
    pub index_vertices: usize,
    /// Capacity of the splice-order index's tour-node arena, in nodes.
    pub splice_nodes: usize,
    /// Size of the splice-order index's per-slot handle arrays, in slots.
    pub splice_slots: usize,
}

impl ArenaCapacities {
    /// True when every buffer of `self` is at least as large as `other`'s.
    pub fn covers(&self, other: &ArenaCapacities) -> bool {
        self.vertex_slots >= other.vertex_slots
            && self.edge_slots >= other.edge_slots
            && self.incidence >= other.incidence
            && self.visited_words >= other.visited_words
            && self.index_vertices >= other.index_vertices
            && self.splice_nodes >= other.splice_nodes
            && self.splice_slots >= other.splice_slots
    }
}

impl Phase1Arena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current buffer capacities (never shrink across runs).
    pub fn capacities(&self) -> ArenaCapacities {
        ArenaCapacities {
            vertex_slots: self.kernel.rows.capacity(),
            edge_slots: self.kernel.ends_scratch.capacity(),
            incidence: self.kernel.incidence.capacity(),
            visited_words: self.kernel.visited.capacity(),
            index_vertices: self
                .kernel
                .index
                .vertex_capacity()
                // The recycle bin holds the rest of the capacity between runs.
                .max(self.kernel.index_bufs.vertex_capacity()),
            splice_nodes: self.host.splice.node_capacity(),
            splice_slots: self.host.splice.slot_capacity(),
        }
    }

    /// Deliberately corrupts every buffer the next run could read — stale
    /// visited and parity bits, bogus rows and incidences, a garbage splice
    /// index — while keeping lengths plausible. Test-only: proves a reload
    /// fully re-initialises the arena and no state leaks between checkouts.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        self.kernel.visited.fill(u64::MAX);
        self.kernel.odd.fill(u64::MAX);
        self.kernel.rows.fill([u32::MAX / 2, 7]);
        self.kernel.ends_scratch.fill([u32::MAX / 5; 2]);
        self.kernel.unvisited_scan = usize::MAX / 2;
        self.kernel.incidence.fill([u32::MAX / 3; 2]);
        self.host.visible.fill(3);
        self.host.splice.poison();
    }
}

impl std::fmt::Debug for Phase1Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phase1Arena").field("capacities", &self.capacities()).finish()
    }
}

/// A shared pool of [`Phase1Arena`]s: workers check one out per Phase-1
/// execution and return it afterwards, so arena buffers survive across merge
/// levels however partitions are scheduled onto threads.
#[derive(Clone, Debug, Default)]
pub struct ArenaPool {
    inner: Arc<Mutex<Vec<Phase1Arena>>>,
}

impl ArenaPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an arena out of the pool, creating a fresh one when empty.
    pub fn checkout(&self) -> Phase1Arena {
        self.inner.lock().pop().unwrap_or_default()
    }

    /// Returns an arena to the pool for reuse.
    pub fn restore(&self, arena: Phase1Arena) {
        self.inner.lock().push(arena);
    }

    /// Number of idle arenas currently in the pool.
    pub fn idle(&self) -> usize {
        self.inner.lock().len()
    }

    /// [`run_phase1_with_arena`](super::run_phase1_with_arena) on an arena
    /// checked out for the duration of the run.
    pub fn run_phase1(&self, wp: &mut WorkingPartition, store: &FragmentStore) -> Phase1Output {
        let mut arena = self.checkout();
        let out = super::run_phase1_with_arena(wp, store, &mut arena);
        self.restore(arena);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::{run_phase1, run_phase1_with_arena};
    use euler_gen::synthetic;
    use euler_graph::PartitionAssignment;

    fn working_partitions(n: u64, extra: usize, seed: u64, parts: u32) -> Vec<WorkingPartition> {
        let g = synthetic::random_eulerian_connected(n, extra, 5, seed);
        let labels: Vec<u32> = (0..n).map(|i| (i % parts as u64) as u32).collect();
        let a = PartitionAssignment::from_labels(labels, parts).unwrap();
        crate::state::tests::working(&g, &a)
    }

    /// Output + store snapshot of a fresh-arena sequential run (the oracle).
    fn oracle(wp: &WorkingPartition) -> (crate::phase1::Phase1Output, Vec<crate::Fragment>) {
        let mut wp = wp.clone();
        let store = FragmentStore::new();
        let out = run_phase1(&mut wp, &store);
        (out, store.snapshot())
    }

    fn assert_matches_oracle(wp: &WorkingPartition, arena: &mut Phase1Arena) {
        let (out_ref, frags_ref) = oracle(wp);
        let mut wp = wp.clone();
        let store = FragmentStore::new();
        let out = run_phase1_with_arena(&mut wp, &store, arena);
        assert_eq!(out.path_map, out_ref.path_map);
        assert_eq!(out.counts_before, out_ref.counts_before);
        let frags = store.snapshot();
        assert_eq!(frags.len(), frags_ref.len());
        for (a, b) in frags.iter().zip(&frags_ref) {
            assert_eq!(a.edges, b.edges);
        }
    }

    #[test]
    fn buffers_are_reused_and_capacity_never_shrinks() {
        let mut arena = Phase1Arena::new();
        // Grow on a large partition, then shrink the workload drastically:
        // capacities must be monotone while outputs stay oracle-exact.
        let sizes = [(400u64, 40usize), (30, 2), (120, 10), (8, 0)];
        let mut caps = arena.capacities();
        for (i, &(n, extra)) in sizes.iter().enumerate() {
            for wp in &working_partitions(n, extra, i as u64, 2) {
                assert_matches_oracle(wp, &mut arena);
                let grown = arena.capacities();
                assert!(grown.covers(&caps), "capacity shrank: {grown:?} < {caps:?}");
                caps = grown;
            }
        }
        // After the 400-vertex partitions, the small reloads must not have
        // reallocated below that working set.
        let big = working_partitions(400, 40, 0, 2);
        let need = big.iter().map(|wp| wp.local_edges.len()).max().unwrap();
        assert!(caps.edge_slots >= need, "edge arena lost its grown capacity");
    }

    #[test]
    fn deliberately_dirty_arena_leaks_no_state() {
        // A poisoned arena (stale visited and parity bits, bogus rows and
        // incidences, garbage splice index) must behave exactly like a
        // fresh one.
        let mut arena = Phase1Arena::new();
        for wp in &working_partitions(80, 8, 42, 3) {
            // Dirty the arena with a real run on a different partition
            // shape first, then poison everything poisonable.
            for other in &working_partitions(50, 5, 7, 2) {
                let store = FragmentStore::new();
                run_phase1_with_arena(&mut other.clone(), &store, &mut arena);
            }
            arena.poison();
            assert_matches_oracle(wp, &mut arena);
        }
    }

    #[test]
    fn a_run_that_splices_nothing_never_writes_the_handle_arrays() {
        let mut arena = Phase1Arena::new();
        // Grow and dirty the per-slot handle arrays with runs that splice.
        let mut spliced = 0;
        for wp in &working_partitions(80, 8, 42, 1) {
            let out = run_phase1_with_arena(&mut wp.clone(), &FragmentStore::new(), &mut arena);
            spliced += out.splice.linked_splices;
        }
        assert!(spliced > 0, "the warm-up must size the handle arrays");
        let mut checked = 0;
        for wp in &working_partitions(80, 8, 42, 3) {
            if oracle(wp).0.splice.linked_splices == 0 {
                arena.poison();
                assert_matches_oracle(wp, &mut arena);
                assert!(arena.host.splice.handles_hold_poison(), "handle arrays were written");
                checked += 1;
            }
        }
        assert!(checked > 0, "no splice-free partition among the inputs");
    }

    #[test]
    fn pool_hands_the_same_arena_back_and_forth() {
        let pool = ArenaPool::new();
        assert_eq!(pool.idle(), 0);
        let mut arena = pool.checkout();
        for wp in &working_partitions(150, 12, 3, 2) {
            assert_matches_oracle(wp, &mut arena);
        }
        let caps = arena.capacities();
        pool.restore(arena);
        assert_eq!(pool.idle(), 1);
        // The grown arena comes back out; a fresh one is made only when empty.
        let again = pool.checkout();
        assert!(again.capacities().covers(&caps));
        assert_eq!(pool.idle(), 0);
        let extra = pool.checkout();
        assert_eq!(extra.capacities(), Phase1Arena::new().capacities());
        pool.restore(again);
        pool.restore(extra);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pooled_runs_share_one_arena() {
        let pool = ArenaPool::new();
        for wp in &working_partitions(60, 6, 9, 2) {
            let (out_ref, frags_ref) = oracle(wp);
            let store = FragmentStore::new();
            let out = pool.run_phase1(&mut wp.clone(), &store);
            assert_eq!(out.path_map, out_ref.path_map);
            assert_eq!(store.snapshot(), frags_ref);
            assert_eq!(pool.idle(), 1, "the arena came back, and was not duplicated");
        }
    }
}
