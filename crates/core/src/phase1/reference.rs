//! Reference Phase-1 implementation over hash-map traversal state.
//!
//! This is the original, straightforward transcription of Alg. 1: adjacency,
//! cursors and remaining degrees in `HashMap<VertexId, _>`, traversal starts
//! from a `BTreeSet`. It is retained verbatim as (a) the behavioural oracle
//! for the dense rewrite in the parent module — the two must produce
//! bit-identical fragments and path maps on every input — and (b) the
//! "before" side of the `BENCH_phase1.json` measurement.
//!
//! Do not optimise this module; its value is that it stays simple and
//! obviously faithful to the paper.

use super::Phase1Output;
use crate::fragment::{Fragment, FragmentId, FragmentKind, FragmentStore, TourEdge};
use crate::pathmap::{CycleEntry, PathEntry, PathMap};
use crate::state::{EdgeRef, LocalEdge, WorkingPartition};
use euler_graph::VertexId;
use std::collections::{BTreeSet, HashMap};

/// A fragment under construction during one Phase-1 run, before it receives
/// its global id from the store.
struct PendingFragment {
    kind: FragmentKind,
    edges: Vec<TourEdge>,
}

/// Which pending fragment a visible vertex belongs to. The exact position is
/// looked up at splice time (earlier splices shift positions).
#[derive(Clone, Copy)]
struct PivotRef {
    fragment: usize,
}

/// Registers the vertices of `edges` as visible in `fragment`.
fn register_visible_ref(
    visible: &mut HashMap<VertexId, PivotRef>,
    fragment: usize,
    edges: &[TourEdge],
) {
    for e in edges {
        visible.entry(e.from()).or_insert(PivotRef { fragment });
    }
    if let Some(last) = edges.last() {
        visible.entry(last.to()).or_insert(PivotRef { fragment });
    }
}

/// Hash-map traversal helper over the local edges of one partition.
struct Traverser<'a> {
    edges: &'a [LocalEdge],
    /// For every vertex, the indices of its incident local-edge slots.
    adjacency: HashMap<VertexId, Vec<usize>>,
    /// Per-vertex cursor into its adjacency list (already-consumed prefix).
    cursor: HashMap<VertexId, usize>,
    visited: Vec<bool>,
    /// Remaining (unvisited) local degree per vertex.
    remaining: HashMap<VertexId, u64>,
}

impl<'a> Traverser<'a> {
    fn new(edges: &'a [LocalEdge]) -> Self {
        let mut adjacency: HashMap<VertexId, Vec<usize>> = HashMap::new();
        let mut remaining: HashMap<VertexId, u64> = HashMap::new();
        for (i, e) in edges.iter().enumerate() {
            adjacency.entry(e.u).or_default().push(i);
            adjacency.entry(e.v).or_default().push(i);
            *remaining.entry(e.u).or_insert(0) += 1;
            *remaining.entry(e.v).or_insert(0) += 1;
        }
        Traverser {
            edges,
            adjacency,
            cursor: HashMap::new(),
            visited: vec![false; edges.len()],
            remaining,
        }
    }

    fn remaining_degree(&self, v: VertexId) -> u64 {
        self.remaining.get(&v).copied().unwrap_or(0)
    }

    /// Next unvisited incident slot of `v`, if any.
    fn next_slot(&mut self, v: VertexId) -> Option<usize> {
        let list = self.adjacency.get(&v)?;
        let cursor = self.cursor.entry(v).or_insert(0);
        while *cursor < list.len() {
            let slot = list[*cursor];
            if !self.visited[slot] {
                return Some(slot);
            }
            *cursor += 1;
        }
        None
    }

    /// Maximal traversal from `start` along unvisited local edges, consuming
    /// them. Returns the tour edges in traversal order (possibly empty).
    fn walk(&mut self, start: VertexId) -> Vec<TourEdge> {
        let mut tour = Vec::new();
        let mut current = start;
        while let Some(slot) = self.next_slot(current) {
            self.visited[slot] = true;
            let e = &self.edges[slot];
            let next = if e.u == current { e.v } else { e.u };
            *self.remaining.get_mut(&e.u).expect("endpoint tracked") -= 1;
            *self.remaining.get_mut(&e.v).expect("endpoint tracked") -= 1;
            tour.push(match e.edge {
                EdgeRef::Real(edge) => TourEdge::Real { edge, from: current, to: next },
                EdgeRef::Virtual(fragment) => TourEdge::Virtual { fragment, from: current, to: next },
            });
            current = next;
        }
        tour
    }

    fn any_unvisited(&self) -> Option<usize> {
        self.visited.iter().position(|&v| !v)
    }
}

/// Runs the reference Phase 1 on `wp`, persisting fragments into `store` and
/// replacing the partition's local edges with the coarse OB-pair edges of the
/// paths found. Semantically identical to [`super::run_phase1`].
pub fn run_phase1_reference(wp: &mut WorkingPartition, store: &FragmentStore) -> Phase1Output {
    let counts_before = wp.vertex_type_counts();
    let complexity = counts_before.phase1_complexity();
    let remote_deg = wp.remote_degrees();
    let local_edges = std::mem::take(&mut wp.local_edges);
    let mut traverser = Traverser::new(&local_edges);

    let mut pending: Vec<PendingFragment> = Vec::new();
    // First position of every visible vertex in every pending fragment, used
    // by mergeInto to find pivots.
    let mut visible: HashMap<VertexId, PivotRef> = HashMap::new();

    // --- Step 1: OB paths. -------------------------------------------------
    let mut odd: BTreeSet<VertexId> = traverser
        .remaining
        .iter()
        .filter(|(_, &d)| d % 2 == 1)
        .map(|(&v, _)| v)
        .collect();
    while let Some(&start) = odd.iter().next() {
        odd.remove(&start);
        let tour = traverser.walk(start);
        debug_assert!(!tour.is_empty(), "odd-degree vertex must have an unvisited edge");
        let end = tour.last().expect("non-empty").to();
        debug_assert_ne!(start, end, "a maximal walk from an odd vertex ends elsewhere (Lemma 1)");
        odd.remove(&end);
        let idx = pending.len();
        register_visible_ref(&mut visible, idx, &tour);
        pending.push(PendingFragment { kind: FragmentKind::Path, edges: tour });
    }

    // --- Step 2: cycles at boundary vertices. -------------------------------
    let mut boundary: Vec<VertexId> = remote_deg.keys().copied().collect();
    boundary.sort_unstable();
    for b in boundary {
        if traverser.remaining_degree(b) == 0 {
            continue; // trivial singleton: nothing to record
        }
        let tour = traverser.walk(b);
        debug_assert_eq!(tour.last().map(|e| e.to()), Some(b), "even-degree traversal closes (Lemma 2)");
        let idx = pending.len();
        register_visible_ref(&mut visible, idx, &tour);
        pending.push(PendingFragment { kind: FragmentKind::Cycle, edges: tour });
    }

    // --- Step 3: cycles at internal vertices, spliced at pivots. ------------
    let mut internal_cycles_merged = 0u64;
    let mut pivot_lookups = 0u64;
    while let Some(slot) = traverser.any_unvisited() {
        let start = local_edges[slot].u;
        let tour = traverser.walk(start);
        debug_assert_eq!(tour.last().map(|e| e.to()), Some(start), "internal traversal closes (Lemma 2)");
        // mergeInto: find a pivot vertex shared with an existing fragment.
        pivot_lookups += 1;
        let pivot = tour
            .iter()
            .map(|e| e.from())
            .find(|v| visible.contains_key(v))
            .map(|v| (v, visible[&v]));
        match pivot {
            Some((pivot_vertex, at)) => {
                // Rotate the cycle to start at the pivot, then splice it into
                // the containing fragment at the pivot's current position.
                let rot = tour
                    .iter()
                    .position(|e| e.from() == pivot_vertex)
                    .expect("pivot is a tour endpoint");
                let mut rotated = Vec::with_capacity(tour.len());
                rotated.extend_from_slice(&tour[rot..]);
                rotated.extend_from_slice(&tour[..rot]);
                let target = &mut pending[at.fragment].edges;
                let insert_at = target
                    .iter()
                    .position(|e| e.from() == pivot_vertex)
                    .unwrap_or(target.len());
                for e in &rotated {
                    visible.entry(e.from()).or_insert(PivotRef { fragment: at.fragment });
                }
                target.splice(insert_at..insert_at, rotated);
                internal_cycles_merged += 1;
            }
            None => {
                // Disconnected local subgraph: keep as a standalone cycle.
                let idx = pending.len();
                register_visible_ref(&mut visible, idx, &tour);
                pending.push(PendingFragment { kind: FragmentKind::Cycle, edges: tour });
            }
        }
    }

    // --- Persist fragments and rebuild the in-memory state. -----------------
    let mut path_map = PathMap::new(wp.id, wp.level);
    path_map.internal_cycles_merged = internal_cycles_merged;
    path_map.local_edges_consumed = local_edges.len() as u64;
    let mut new_local = Vec::new();
    let mut materialization_longs = 0u64;
    for pf in pending {
        let fragment = Fragment {
            id: FragmentId(0),
            kind: pf.kind,
            level: wp.level,
            partition: wp.id,
            edges: pf.edges,
        };
        materialization_longs += fragment.disk_longs();
        let start = fragment.start();
        let end = fragment.end();
        let kind = fragment.kind;
        let id = store.push(fragment);
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
    // The stats mirror the dense kernel's splice-order index semantically
    // (same decisions, same persisted bytes), so the differential suites can
    // assert them bit-for-bit.
    let splice = super::SpliceStats {
        pivot_lookups,
        linked_splices: internal_cycles_merged,
        materialization_longs,
    };
    // By definition: classify the state the run left behind.
    let vertices_after = wp.vertex_type_counts().total_vertices();
    Phase1Output { path_map, counts_before, complexity, vertices_after, splice }
}
