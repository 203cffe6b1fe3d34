//! Phase 1: identifying local paths and cycles within a partition (Alg. 1).
//!
//! Within one partition, Phase 1 consumes *every* local edge exactly once:
//!
//! 1. While some vertex has odd unvisited local degree, start a maximal
//!    traversal there. By Lemma 1 it ends at another odd-degree vertex,
//!    yielding an edge-disjoint **path** between two odd boundary vertices
//!    (an *OB-pair*). The path is persisted as a fragment and replaced in
//!    memory by a single coarse edge between its endpoints.
//! 2. For every boundary vertex that still has unvisited local edges, start a
//!    maximal traversal. By Lemma 2 it returns to its start, yielding a
//!    **cycle** anchored at that boundary vertex, persisted and dropped from
//!    memory.
//! 3. While unvisited local edges remain, start a maximal traversal at one of
//!    their endpoints (an internal vertex), yielding an internal cycle. Per
//!    Lemma 3 it intersects an earlier fragment of this run at a *pivot*
//!    vertex, into which it is spliced (`mergeInto`); if the partition's
//!    local subgraph is disconnected and no pivot exists, the cycle is kept
//!    as a standalone anchored cycle (a generalisation the paper's
//!    connected-partition assumption makes unnecessary).
//!
//! # Dense traversal state
//!
//! Phase 1 touches every local edge exactly once, so its inner loop is the
//! dominant per-superstep cost. The kernel keeps all traversal state in flat
//! arrays over *interned* vertex slots rather than hash maps (the layout the
//! W-streaming / StrSort Euler-tour algorithms rely on for their bounds):
//!
//! * a [`euler_graph::LocalIndex`] assigns each distinct endpoint a dense
//!   `u32` slot in ascending `VertexId` order;
//! * adjacency is a fused CSR: one `[cursor, end]` row per vertex over an
//!   `incidence` arena of `(edge slot, far endpoint slot)` entries, built
//!   with two counting passes, preserving edge insertion order per vertex;
//! * visited edges are one bit each in a bitset, and so is the parity of
//!   each vertex's unvisited degree: only the two ends of a maximal walk
//!   change parity, so no degree array is kept;
//! * every walk appends its tour edges straight to the slab of the
//!   splice-order index (`phase1/splice.rs`), where they stay until the
//!   fragment is persisted;
//! * step-1/step-3 start vertices come from ascending slot scans (slot order
//!   *is* ascending vertex order), replacing the reference `BTreeSet`.
//!
//! All of this state lives in a reusable [`Phase1Arena`] (see
//! [`arena`](mod@arena)): [`run_phase1_with_arena`] reloads the buffers in
//! place, so repeated runs across merge levels stop allocating once the
//! arena has grown to the working-set size. [`run_phase1`] is the
//! convenience wrapper over a throwaway arena.
//!
//! The inner traversal loop performs no `HashMap`/`BTreeSet` operations at
//! all. The original hash-map implementation is preserved unchanged in
//! [`reference`](mod@reference) and the two are proven bit-identical (same
//! fragments, same `PathMap`, same residual partition state) by the property
//! tests in `tests/property_circuit.rs`.
//!
//! # Parallel execution
//!
//! The function is deterministic: traversal starts are chosen in ascending
//! vertex order and edges are consumed in insertion order. One partition is
//! one sequential kernel run; parallelism is *across* the partitions of a
//! merge level (the paper's unit of parallelism), and because a fragment's
//! id is a function of `(level, partition, push sequence)` alone (see
//! [`FragmentId`]), concurrently running partitions cannot influence each
//! other's output.

pub mod arena;
pub mod reference;
mod splice;
pub mod wstream;

use crate::fragment::{FragmentId, FragmentKind, FragmentStore, TourEdge};
use crate::pathmap::{CycleEntry, PathEntry, PathMap};
use crate::state::{EdgeRef, LocalEdge, VertexTypeCounts, WorkingPartition};
use arena::{HostScratch, KernelState};
use splice::SpliceIndex;
use euler_graph::VertexId;

pub use arena::{ArenaCapacities, ArenaPool, Phase1Arena};

/// Output of one Phase-1 run on one partition.
#[derive(Clone, Debug)]
pub struct Phase1Output {
    /// Summary of the fragments found (the paper's `pathMap`).
    pub path_map: PathMap,
    /// Vertex/edge composition at the start of the run (Fig. 9 input).
    pub counts_before: VertexTypeCounts,
    /// The complexity measure `|B| + |I| + |L|` at the start of the run
    /// (Fig. 7's x axis).
    pub complexity: u64,
    /// Vertices the partition retains after the run — its boundary vertices
    /// plus any path endpoint that is not one — i.e. the vertex term of the
    /// post-run [`WorkingPartition::memory_longs`].
    pub vertices_after: u64,
    /// Splice-order-index work counters for this run.
    pub splice: SpliceStats,
}

/// `mergeInto` work counters, exact and kernel-independent: the reference
/// implementation computes the same values from the same decisions, so the
/// differential suites can assert them bit-for-bit alongside the fragments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Step-3 cycles that searched their vertices for a pivot (one lookup
    /// per internal cycle, whether or not a pivot was found).
    pub pivot_lookups: u64,
    /// Internal cycles linked into a pending fragment (`mergeInto` calls).
    pub linked_splices: u64,
    /// Longs written while materializing linked tours into persisted
    /// fragments (`Σ disk_longs` over this run's fragments).
    pub materialization_longs: u64,
}

/// Sentinel slot value: "not visible in any pending fragment".
const NOT_VISIBLE: u32 = u32::MAX;

/// The dense traversal state of a loaded [`KernelState`] together with the
/// edges it was loaded from: the walker of the Phase-1 kernel.
pub(crate) struct Traversal<'a> {
    /// The partition's local edges; edge slot `e` is `edges[e]`.
    pub edges: &'a [LocalEdge],
    /// The loaded kernel arrays.
    pub k: &'a mut KernelState,
}

impl Traversal<'_> {
    #[inline]
    fn is_visited(&self, e: u32) -> bool {
        self.k.visited[(e >> 6) as usize] & (1u64 << (e & 63)) != 0
    }

    /// Maximal traversal from vertex slot `start`, consuming unvisited local
    /// edges: appends each tour edge and the slot it leaves to `out`'s slab
    /// and returns the slot the walk ends on (`start` itself when the walk
    /// is a cycle, or empty because nothing is left at `start`).
    pub fn walk(&mut self, start: u32, out: &mut SpliceIndex) -> u32 {
        let mut current = start;
        let mut current_v = self.k.index.vertex(current);
        loop {
            // Next unvisited incidence of `current`: the cursor moves past
            // it (consumed here) and never re-scans the consumed prefix.
            let [mut cursor, end] = self.k.rows[current as usize];
            let mut found = None;
            while cursor < end && found.is_none() {
                let [e, far] = self.k.incidence[cursor as usize];
                cursor += 1;
                if !self.is_visited(e) {
                    found = Some((e, far));
                }
            }
            self.k.rows[current as usize][0] = cursor;
            let Some((e, next)) = found else { break };
            self.k.visited[(e >> 6) as usize] |= 1u64 << (e & 63);
            let next_v = self.k.index.vertex(next);
            let edge = match self.edges[e as usize].edge {
                EdgeRef::Real(edge) => TourEdge::Real { edge, from: current_v, to: next_v },
                EdgeRef::Virtual(fragment) => {
                    TourEdge::Virtual { fragment, from: current_v, to: next_v }
                }
            };
            out.push(edge, current);
            current = next;
            current_v = next_v;
        }
        // Interior visits consume two incidences and a closed walk an even
        // number at its start: only the ends of an open walk change parity.
        if current != start {
            for s in [start, current] {
                self.k.odd[(s >> 6) as usize] ^= 1u64 << (s & 63);
            }
        }
        current
    }

    /// First unvisited edge slot, if any (monotone linear scan overall).
    fn any_unvisited(&mut self) -> Option<u32> {
        let m = self.edges.len();
        let mut i = self.k.unvisited_scan;
        while i < m && self.is_visited(i as u32) {
            i += 1;
        }
        self.k.unvisited_scan = i;
        (i < m).then_some(i as u32)
    }
}

/// The Fig.-9 vertex classification, computed from the traverser's pre-walk
/// arrays by merging two sorted sequences (interned local-endpoint vertices
/// and boundary vertices) — equal to `WorkingPartition::vertex_type_counts`
/// without building a second index. Also returns
/// [`Phase1Output::vertices_after`]: every odd vertex ends exactly one path.
fn counts_from_traverser(
    tr: &Traversal<'_>,
    boundary: &[VertexId],
    remote_edges: u64,
    isolated: u64,
) -> (VertexTypeCounts, u64) {
    let mut counts = VertexTypeCounts {
        remote_edges,
        local_edges: tr.edges.len() as u64,
        even_internal: isolated,
        ..Default::default()
    };
    let mut vertices_after = boundary.len() as u64;
    let mut bi = 0;
    for (s, &v) in tr.k.index.vertices().iter().enumerate() {
        // Boundary vertices below `v` touch no local edge: even (degree 0).
        while bi < boundary.len() && boundary[bi] < v {
            counts.even_boundary += 1;
            bi += 1;
        }
        let is_boundary = bi < boundary.len() && boundary[bi] == v;
        if is_boundary {
            bi += 1;
        }
        match (is_boundary, tr.k.is_odd(s as u32)) {
            (true, true) => counts.odd_boundary += 1,
            (true, false) => counts.even_boundary += 1,
            (false, odd) => {
                counts.even_internal += 1;
                vertices_after += odd as u64;
            }
        }
    }
    counts.even_boundary += (boundary.len() - bi) as u64;
    (counts, vertices_after)
}

/// Runs Phase 1 on `wp`, persisting fragments into `store` and replacing the
/// partition's local edges with the coarse OB-pair edges of the paths found.
///
/// Deterministic and bit-identical to [`reference::run_phase1_reference`]:
/// ascending-slot scans visit vertices in ascending global order (the
/// `BTreeSet` order of the reference), the parity bit of the remaining
/// degree tracks membership in the shrinking odd set (interior visits
/// consume two incidences, endpoints one), and CSR incidence preserves
/// per-vertex edge insertion order.
///
/// Allocates a throwaway [`Phase1Arena`]; repeated callers should hold an
/// arena (or an [`ArenaPool`]) and use [`run_phase1_with_arena`] instead.
pub fn run_phase1(wp: &mut WorkingPartition, store: &FragmentStore) -> Phase1Output {
    let mut arena = Phase1Arena::new();
    run_phase1_with_arena(wp, store, &mut arena)
}

/// [`run_phase1`] over a caller-held [`Phase1Arena`]: every buffer is
/// reloaded in place, so runs across merge levels reuse the arena's grown
/// capacity instead of reallocating. Output is identical to [`run_phase1`]
/// whatever state the arena was left in.
pub fn run_phase1_with_arena(
    wp: &mut WorkingPartition,
    store: &FragmentStore,
    arena: &mut Phase1Arena,
) -> Phase1Output {
    let boundary = wp.boundary_vertices_sorted();
    let local_edges = std::mem::take(&mut wp.local_edges);
    let Phase1Arena { kernel, host } = arena;
    kernel.load(&local_edges);
    let mut tr = Traversal { edges: &local_edges, k: kernel };
    let (counts_before, vertices_after) =
        counts_from_traverser(&tr, &boundary, wp.remote_edges.len() as u64, wp.isolated_vertices);
    let complexity = counts_before.phase1_complexity();
    let n = tr.k.index.len();

    let HostScratch { visible, splice } = host;
    // First pending fragment each vertex slot is visible in (mergeInto pivot
    // lookup), NOT_VISIBLE when none.
    visible.clear();
    visible.resize(n, NOT_VISIBLE);
    // Pending fragments live in the splice-order index, whose slab the walks
    // append to, as the record words they are persisted as.
    splice.reset();

    // --- Step 1: OB paths. -------------------------------------------------
    // A walk turns exactly its two ends even and changes no other parity,
    // and its far end lies above its start (everything below is already
    // even), so "the parity bit is still set when the ascending scan
    // arrives" is membership in the reference's shrinking BTreeSet.
    for s in 0..n as u32 {
        if !tr.k.is_odd(s) {
            continue; // even, or consumed as the far endpoint of an earlier walk
        }
        let base = splice.len();
        let end = tr.walk(s, splice);
        debug_assert!(splice.len() > base, "odd-degree vertex must have an unvisited edge");
        debug_assert_ne!(end, s, "a maximal walk from an odd vertex ends elsewhere (Lemma 1)");
        splice.create_fragment(FragmentKind::Path, tr.k.index.vertex(s), base, end, visible);
    }

    // --- Step 2: cycles at boundary vertices. -------------------------------
    for &b in &boundary {
        let Some(s) = tr.k.index.slot(b) else { continue };
        let base = splice.len();
        let end = tr.walk(s, splice);
        if splice.len() == base {
            continue; // trivial singleton: nothing to record
        }
        debug_assert_eq!(end, s, "even-degree traversal closes (Lemma 2)");
        splice.create_fragment(FragmentKind::Cycle, b, base, end, visible);
    }

    // --- Step 3: cycles at internal vertices, spliced at pivots. ------------
    let mut internal_cycles_merged = 0u64;
    let mut pivot_lookups = 0u64;
    while let Some(e) = tr.any_unvisited() {
        let start_v = local_edges[e as usize].u;
        let start = tr.k.index.slot(start_v).expect("endpoint interned");
        let base = splice.len();
        let end = tr.walk(start, splice);
        debug_assert_eq!(end, start, "internal traversal closes (Lemma 2)");
        // mergeInto: find a pivot vertex shared with an existing fragment.
        pivot_lookups += 1;
        match splice.pivot(base, visible) {
            Some((rot, at)) => {
                // Rotate the cycle to start at the pivot and link it in at
                // the pivot's first occurrence: O(1) position lookup via the
                // first-occurrence handle, O(|cycle|) link-in.
                splice.merge_into(at, rot, base, visible);
                internal_cycles_merged += 1;
            }
            None => {
                // Disconnected local subgraph: keep as a standalone cycle.
                splice.create_fragment(FragmentKind::Cycle, start_v, base, end, visible);
            }
        }
    }

    // --- Persist fragments and rebuild the in-memory state. -----------------
    // The slab runs go straight into the buffers the store takes whole, a run
    // of records at a time; ids follow from where the store put the first.
    let (mut materialization_longs, mut first_seq) = (0u64, None);
    splice.persist(wp.level, wp.id, |run| {
        materialization_longs += run.bytes().len() as u64 / 8;
        first_seq.get_or_insert(store.push_segment(run));
    });
    let first_seq = first_seq.expect("the last run is handed over even when it is empty");
    let mut path_map = PathMap::new(wp.id, wp.level);
    path_map.internal_cycles_merged = internal_cycles_merged;
    path_map.local_edges_consumed = local_edges.len() as u64;
    let mut new_local = Vec::new();
    for (seq, (kind, start, end)) in (first_seq..).zip(splice.ends()) {
        let id = FragmentId::new(wp.level, wp.id, seq);
        match kind {
            FragmentKind::Path => {
                path_map.paths.push(PathEntry { fragment: id, from: start, to: end });
                new_local.push(LocalEdge { edge: EdgeRef::Virtual(id), u: start, v: end });
            }
            FragmentKind::Cycle => {
                path_map.cycles.push(CycleEntry { fragment: id, anchor: start });
            }
        }
    }

    wp.local_edges = new_local;
    wp.isolated_vertices = 0; // internal vertices are dropped from memory
    let splice_stats = SpliceStats {
        pivot_lookups,
        linked_splices: internal_cycles_merged,
        materialization_longs,
    };
    Phase1Output { path_map, counts_before, complexity, vertices_after, splice: splice_stats }
}

#[cfg(test)]
mod tests {
    use super::reference::run_phase1_reference;
    use super::*;
    use crate::state::WorkingPartition;
    use euler_gen::synthetic::{self, paper_fig1};
    use euler_graph::{PartitionId, PartitionedGraph};

    fn fig1_working() -> Vec<WorkingPartition> {
        let (g, a) = paper_fig1();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        pg.partitions().iter().map(WorkingPartition::from_partition).collect()
    }

    #[test]
    fn fig1_p3_produces_one_ob_pair() {
        // Paper's P3 = {v6..v9} has local path e6,7 e7,8 e8,9 which becomes
        // the OB-pair e6,9 (Fig. 1b).
        let mut wps = fig1_working();
        let store = FragmentStore::new();
        let out = run_phase1(&mut wps[2], &store);
        assert_eq!(out.path_map.num_paths(), 1);
        assert_eq!(out.path_map.num_cycles(), 0);
        let p = out.path_map.paths[0];
        let endpoints = [p.from.0, p.to.0];
        assert!(endpoints.contains(&5) && endpoints.contains(&8)); // v6 and v9
        // The partition's memory now holds one coarse edge and 2 remote edges.
        assert_eq!(wps[2].local_edges.len(), 1);
        assert!(matches!(wps[2].local_edges[0].edge, EdgeRef::Virtual(_)));
        assert_eq!(out.path_map.local_edges_consumed, 3);
    }

    #[test]
    fn fig1_p2_produces_one_eb_cycle() {
        // Paper's P2 = {v3, v4, v5}: local cycle e3,4 e4,5 e3,5 anchored at v3.
        let mut wps = fig1_working();
        let store = FragmentStore::new();
        let out = run_phase1(&mut wps[1], &store);
        assert_eq!(out.path_map.num_paths(), 0);
        assert_eq!(out.path_map.num_cycles(), 1);
        assert_eq!(out.path_map.cycles[0].anchor, euler_graph::VertexId(2)); // v3
        assert!(wps[1].local_edges.is_empty());
        assert_eq!(wps[1].remote_edges.len(), 2);
        let frag = store.get(out.path_map.cycles[0].fragment);
        assert_eq!(frag.len(), 3);
        assert!(frag.is_well_formed());
    }

    #[test]
    fn all_local_edges_consumed_exactly_once() {
        let mut wps = fig1_working();
        let store = FragmentStore::new();
        let mut consumed = 0;
        for wp in &mut wps {
            let before = wp.local_edges.len() as u64;
            let out = run_phase1(wp, &store);
            assert_eq!(out.path_map.local_edges_consumed, before);
            consumed += before;
        }
        // Real edges recorded in the store equal the local edges consumed.
        assert_eq!(store.total_real_edges(), consumed);
    }

    #[test]
    fn lemma1_paths_end_at_odd_boundary_vertices() {
        let mut wps = fig1_working();
        let store = FragmentStore::new();
        for wp in &mut wps {
            let remote = wp.remote_degrees();
            let local = wp.local_degrees();
            let out = run_phase1(wp, &store);
            for p in &out.path_map.paths {
                for v in [p.from, p.to] {
                    let ld = local.get(&v).copied().unwrap_or(0);
                    assert_eq!(ld % 2, 1, "path endpoint {v} must have odd local degree");
                    assert!(remote.contains_key(&v), "path endpoint {v} must be a boundary vertex");
                }
            }
        }
    }

    #[test]
    fn lemma2_cycles_close_on_their_anchor() {
        let mut wps = fig1_working();
        let store = FragmentStore::new();
        for wp in &mut wps {
            let out = run_phase1(wp, &store);
            for c in &out.path_map.cycles {
                let frag = store.get(c.fragment);
                assert_eq!(frag.start(), c.anchor);
                assert_eq!(frag.end(), c.anchor);
            }
        }
    }

    #[test]
    fn internal_cycles_are_merged_into_prior_fragments() {
        // A single partition containing two triangles sharing a vertex plus a
        // pendant path to a boundary: the second triangle must be spliced.
        // Build: boundary vertex 0 with 1 remote edge, triangle 0-1-2-0,
        // triangle 2-3-4-2 (internal), so the traversal from 0 may leave the
        // second triangle for step 3.
        let local = [(0u64, 1u64),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 2)];
        let mut wp = WorkingPartition {
            id: PartitionId(0),
            leaves: vec![PartitionId(0)],
            level: 0,
            local_edges: local
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| LocalEdge {
                    edge: EdgeRef::Real(euler_graph::EdgeId(i as u64)),
                    u: euler_graph::VertexId(u),
                    v: euler_graph::VertexId(v),
                })
                .collect(),
            remote_edges: vec![
                crate::state::RemoteRef {
                    edge: euler_graph::EdgeId(100),
                    local: euler_graph::VertexId(0),
                    remote: euler_graph::VertexId(99),
                    local_leaf: PartitionId(0),
                    remote_leaf: PartitionId(1),
                },
                crate::state::RemoteRef {
                    edge: euler_graph::EdgeId(101),
                    local: euler_graph::VertexId(0),
                    remote: euler_graph::VertexId(99),
                    local_leaf: PartitionId(0),
                    remote_leaf: PartitionId(1),
                },
            ],
            isolated_vertices: 0,
        };
        let store = FragmentStore::new();
        let out = run_phase1(&mut wp, &store);
        // All 6 local edges must be captured in fragments of this partition.
        assert_eq!(store.total_real_edges(), 6);
        // No paths (vertex 0 has even local degree), everything hangs off the
        // boundary cycle at v0, with the second triangle spliced or anchored.
        assert_eq!(out.path_map.num_paths(), 0);
        assert!(out.path_map.num_cycles() >= 1);
        let total_frag_edges: usize = store.snapshot().iter().map(|f| f.len()).sum();
        assert_eq!(total_frag_edges, 6);
    }

    #[test]
    fn disconnected_internal_component_kept_as_standalone_cycle() {
        // Two vertex-disjoint triangles, no remote edges at all: the second
        // triangle cannot be merged into the first and is kept standalone.
        let local = [(0u64, 1u64), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let mut wp = WorkingPartition {
            id: PartitionId(0),
            leaves: vec![PartitionId(0)],
            level: 0,
            local_edges: local
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| LocalEdge {
                    edge: EdgeRef::Real(euler_graph::EdgeId(i as u64)),
                    u: euler_graph::VertexId(u),
                    v: euler_graph::VertexId(v),
                })
                .collect(),
            remote_edges: vec![],
            isolated_vertices: 0,
        };
        let store = FragmentStore::new();
        let out = run_phase1(&mut wp, &store);
        assert_eq!(out.path_map.num_cycles(), 2);
        assert_eq!(out.path_map.internal_cycles_merged, 0);
    }

    #[test]
    fn torus_partition_consumes_everything_without_paths() {
        // A whole torus as a single partition (no remote edges): step 3 only.
        let g = synthetic::torus_grid(6, 6);
        let a = euler_graph::PartitionAssignment::from_labels(vec![0; 36], 1).unwrap();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        let mut wp = WorkingPartition::from_partition(&pg.partitions()[0]);
        let store = FragmentStore::new();
        let out = run_phase1(&mut wp, &store);
        assert_eq!(out.path_map.num_paths(), 0);
        assert_eq!(store.total_real_edges(), g.num_edges());
        assert!(wp.local_edges.is_empty());
        assert!(wp.is_exhausted());
        // The torus is connected, so everything ends up in standalone cycles
        // plus splices; at least one standalone cycle seeds the process and
        // every edge is accounted for exactly once.
        assert!(out.path_map.num_cycles() >= 1);
        let fragment_edges: usize = store.snapshot().iter().map(|f| f.len()).sum();
        assert_eq!(fragment_edges as u64, g.num_edges());
    }

    #[test]
    fn complexity_measure_reported() {
        let mut wps = fig1_working();
        let store = FragmentStore::new();
        let out = run_phase1(&mut wps[1], &store);
        // P2: B=1, I=2, L=3.
        assert_eq!(out.complexity, 6);
        assert_eq!(out.counts_before.local_edges, 3);
    }

    /// Asserts the dense and reference implementations produce bit-identical
    /// outputs on `wp`.
    fn assert_equivalent(wp: &WorkingPartition) {
        let store_dense = FragmentStore::new();
        let store_ref = FragmentStore::new();
        let mut wp_dense = wp.clone();
        let mut wp_ref = wp.clone();
        let out_dense = run_phase1(&mut wp_dense, &store_dense);
        let out_ref = run_phase1_reference(&mut wp_ref, &store_ref);
        assert_eq!(out_dense.path_map, out_ref.path_map, "path maps must match");
        assert_eq!(out_dense.complexity, out_ref.complexity);
        assert_eq!(out_dense.counts_before, out_ref.counts_before);
        assert_eq!(out_dense.vertices_after, out_ref.vertices_after);
        assert_eq!(out_dense.splice, out_ref.splice);
        assert_eq!(wp_dense.local_edges, wp_ref.local_edges, "residual coarse edges must match");
        assert_eq!(wp_dense.remote_edges, wp_ref.remote_edges);
        let frags_dense = store_dense.snapshot();
        let frags_ref = store_ref.snapshot();
        assert_eq!(frags_dense.len(), frags_ref.len(), "fragment counts must match");
        for (d, r) in frags_dense.iter().zip(&frags_ref) {
            assert_eq!(d.id, r.id);
            assert_eq!(d.kind, r.kind);
            assert_eq!(d.edges, r.edges, "fragment {:?} edges must match", d.id);
        }
    }

    #[test]
    fn dense_matches_reference_on_fig1() {
        for wp in fig1_working() {
            assert_equivalent(&wp);
        }
    }

    #[test]
    fn dense_matches_reference_on_torus_and_random_graphs() {
        let g = synthetic::torus_grid(8, 8);
        let a = euler_graph::PartitionAssignment::from_labels(
            (0..64).map(|i| (i % 4) as u32).collect(),
            4,
        )
        .unwrap();
        let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
        for p in pg.partitions() {
            assert_equivalent(&WorkingPartition::from_partition(p));
        }
        for seed in 0..10 {
            let g = synthetic::random_eulerian_connected(60, 8, 5, seed);
            let labels: Vec<u32> = (0..60).map(|i| (i % 3) as u32).collect();
            let a = euler_graph::PartitionAssignment::from_labels(labels, 3).unwrap();
            let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
            for p in pg.partitions() {
                assert_equivalent(&WorkingPartition::from_partition(p));
            }
        }
    }

    #[test]
    fn dense_matches_reference_with_self_loops_and_multi_edges() {
        let local = [(0u64, 0u64), (0, 1), (1, 2), (2, 0), (0, 1), (1, 0)];
        let wp = WorkingPartition {
            id: PartitionId(0),
            leaves: vec![PartitionId(0)],
            level: 0,
            local_edges: local
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| LocalEdge {
                    edge: EdgeRef::Real(euler_graph::EdgeId(i as u64)),
                    u: euler_graph::VertexId(u),
                    v: euler_graph::VertexId(v),
                })
                .collect(),
            remote_edges: vec![],
            isolated_vertices: 0,
        };
        assert_equivalent(&wp);
    }

    /// A level-0 partition over `local` edges whose boundary vertices (one
    /// remote edge each) are `boundary`.
    fn partition_of(local: &[(u64, u64)], boundary: &[u64]) -> WorkingPartition {
        WorkingPartition {
            id: PartitionId(0),
            leaves: vec![PartitionId(0)],
            local_edges: local
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| LocalEdge {
                    edge: EdgeRef::Real(euler_graph::EdgeId(i as u64)),
                    u: VertexId(u),
                    v: VertexId(v),
                })
                .collect(),
            remote_edges: boundary
                .iter()
                .map(|&b| crate::state::RemoteRef {
                    edge: euler_graph::EdgeId(1000 + b),
                    local: VertexId(b),
                    remote: VertexId(9000 + b),
                    local_leaf: PartitionId(0),
                    remote_leaf: PartitionId(1),
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn dense_matches_reference_on_parity_set_and_empty_walk_degenerates() {
        // A self-loop on a boundary vertex, with and without other edges.
        assert_equivalent(&partition_of(&[(0, 0), (0, 1), (1, 2), (2, 0)], &[0]));
        assert_equivalent(&partition_of(&[(5, 5)], &[5]));
        assert_equivalent(&partition_of(&[(5, 5), (5, 6)], &[5, 6]));
        // Boundary vertices with no local edge: below, between and above the
        // interned ids, and as the whole partition (step 2 walks nothing).
        assert_equivalent(&partition_of(&[(3, 4), (4, 6), (6, 3)], &[1, 3, 5, 9]));
        assert_equivalent(&partition_of(&[], &[2, 4]));
        // Parallel edges between two odd vertices: one path 0→1→0→1.
        assert_equivalent(&partition_of(&[(0, 1), (0, 1), (0, 1)], &[0, 1]));
        assert_equivalent(&partition_of(&[(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (1, 2)], &[0, 2]));
        // Odd vertices consumed as an earlier walk's far end: the scan must
        // skip 2 (ended the walk from 0) and 7 (ended the walk from 3); the
        // wide case puts start and far end in different words of the set.
        assert_equivalent(&partition_of(&[(0, 1), (1, 2), (3, 4), (4, 7)], &[0, 2, 3, 7]));
        let wide: Vec<(u64, u64)> = (0..100).map(|i| (i, i + 100)).collect();
        let ends: Vec<u64> = (0..200).collect();
        assert_equivalent(&partition_of(&wide, &ends));
    }

    #[test]
    fn dense_matches_reference_on_a_giant_cycle_whose_pivot_is_its_last_vertex() {
        // Step 2 walks 0→1→0 from the boundary vertex and strands the ring
        // 2→3→…→k→1→2. Step 3 starts it at vertex 2 (the `u` of its first
        // edge), so the pivot 1 is the last vertex the walk leaves: the
        // rotation is `len - 1`.
        let k = 3000u64;
        let mut local = vec![(0, 1), (1, 0)];
        local.extend((2..k).map(|i| (i, i + 1)));
        local.extend([(k, 1), (1, 2)]);
        let wp = partition_of(&local, &[0]);
        assert_equivalent(&wp);
        let out = run_phase1(&mut wp.clone(), &FragmentStore::new());
        assert_eq!(out.splice.linked_splices, 1);
        assert_eq!(out.path_map.num_cycles(), 1);
    }

    #[test]
    fn one_arena_serves_many_runs_bit_identically() {
        // The same arena drives every partition of every level-0 state in
        // sequence; outputs must match fresh-arena runs exactly.
        let mut arena = Phase1Arena::new();
        for seed in 0..4 {
            let g = synthetic::random_eulerian_connected(50, 6, 5, seed);
            let labels: Vec<u32> = (0..50).map(|i| (i % 3) as u32).collect();
            let a = euler_graph::PartitionAssignment::from_labels(labels, 3).unwrap();
            let pg = PartitionedGraph::from_assignment(&g, &a).unwrap();
            for p in pg.partitions() {
                let mut wp_arena = WorkingPartition::from_partition(p);
                let mut wp_fresh = wp_arena.clone();
                let store_arena = FragmentStore::new();
                let store_fresh = FragmentStore::new();
                let out_arena = run_phase1_with_arena(&mut wp_arena, &store_arena, &mut arena);
                let out_fresh = run_phase1(&mut wp_fresh, &store_fresh);
                assert_eq!(out_arena.path_map, out_fresh.path_map);
                assert_eq!(out_arena.counts_before, out_fresh.counts_before);
                assert_eq!(wp_arena.local_edges, wp_fresh.local_edges);
                assert_eq!(store_arena.snapshot().len(), store_fresh.snapshot().len());
                for (a, b) in store_arena.snapshot().iter().zip(&store_fresh.snapshot()) {
                    assert_eq!(a.edges, b.edges);
                }
            }
        }
    }
}
