//! Path and cycle fragments, and the fragment store ("persist to disk").
//!
//! Phase 1 consumes local edges and produces *fragments*: maximal local paths
//! between odd-degree boundary vertices and local cycles anchored at a vertex.
//! Each path fragment is replaced in partition memory by a single coarse
//! "OB-pair" edge (a [`TourEdge::Virtual`] reference to the fragment); cycle
//! fragments are removed from memory entirely and only re-read during Phase 3.
//! The paper persists this book-keeping to disk; here the [`FragmentStore`]
//! plays that role (append-only, shared across partitions/workers, cheap to
//! write, only read back in Phase 3), with the same effect on the partitions'
//! *in-memory* Long accounting.
//!
//! A fragment is named by where it was found — [`FragmentId`] packs `(merge
//! level, partition, push sequence)` — never by when it arrived, and the
//! store is addressed and walked by that name. So the partitions of a level
//! can push concurrently without their interleaving showing in any id, in
//! the order the store is walked, or in the circuit.
//!
//! # One stored form: the record
//!
//! A fragment is stored, spilled and sent as one *record* of
//! little-endian `u64` words, its chain — [`Fragment::disk_longs`] Longs,
//! two a tour edge and two of header:
//!
//! ```text
//! [kind | level << 1 | partition << 8 | n << 32, start]
//!                                    kind 0 = path, 1 = cycle; n ≥ 1
//! n × [id, to]                       bit 63 of `id` clear: a real edge id
//!                                    bit 63 of `id` set:   a fragment id
//! ```
//!
//! A tour edge's `from` is the previous edge's `to`, the first's `start`:
//! edge `i` is the words `[from, id, to]` from word `1 + 2i` on, and a tour
//! that breaks cannot be written. The packed word's fields are a
//! [`FragmentId`]'s and a 32-bit count, so every word decodes. The
//! real/virtual tag is bit 63 of the id word: a [`FragmentId`] keeps it
//! clear, and an [`EdgeId`] that has it set is refused when the record is
//! written. A record does not hold its own id; its position
//! does. The records of one `(level, partition)` lie back to back in one
//! buffer — a `Segment` — beside an index of where each starts, built while
//! the segment is written or validated. Phase 1 hands the store a whole
//! segment in one call, a wire worker sends its segments as they are, the
//! coordinator validates a received byte range once (`Segment::validated`) and
//! adopts it where it lies, and Phase 3 walks records in place.
//! [`Fragment`] / [`TourEdge`] are the typed view of a record behind
//! [`push`](FragmentStore::push), [`get`](FragmentStore::get),
//! [`snapshot`](FragmentStore::snapshot) and
//! [`for_each`](FragmentStore::for_each). `docs/ARCHITECTURE.md` says who
//! validates what, and where.
//!
//! The store keeps records in the segments they arrive in. Under a
//! [`SpillConfig::memory_budget_longs`] ([`FragmentStore::spilling`], the
//! out-of-core mode) it pages segments out to a temp file as the bytes they
//! are, in an order read off the [`FragmentId`] alone, and Phase 3
//! reads the file back front to back, one positional read per write. The
//! stored [`disk_longs`](FragmentStore::disk_longs) and the circuits are
//! the same with or without a budget; [`FragmentStoreStats`] reports the
//! real traffic.
//!
//! Beside the records, outside the fragment budget, the store keeps their
//! *skeleton*, read off each record as it is appended: per record its start
//! vertex, real-edge count and virtual edges, per cycle the first tour index
//! leaving each visible vertex. Phase 3 places every record by it.

mod record;
mod store;
mod tour;

pub(crate) use record::{edge_words, Record, RecordView, Segment, SegmentHead, Skeleton, RUN_BYTES};
pub use store::{FragmentStore, FragmentStoreStats, SpillConfig};
pub use tour::{Fragment, FragmentId, FragmentKind, TourEdge};

use euler_bsp::wire::{extend_words, words_at, WireError, WordReader};
use euler_graph::{EdgeId, LocalIndex, PartitionId, VertexId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(test)]
pub(crate) mod tests {
    pub(crate) use super::record::packed_header;
    use super::record::VIRTUAL_TAG;
    use super::store::{eviction_key, Backing};
    use super::tour::{first_seen, ID_SEQ_BITS};
    use super::*;
    use proptest::prelude::*;

    /// A record as the skeleton has it: id, start vertex, real edges,
    /// virtual edges `(tour index, fragment, entry vertex)` and, a cycle,
    /// visible vertices with their first tour index.
    type SkeletonRow = (FragmentId, VertexId, u32, Vec<(u32, FragmentId, VertexId)>, Vec<(VertexId, u32)>);

    impl TourEdge {
        /// True for [`TourEdge::Real`].
        pub(crate) fn is_real(&self) -> bool {
            matches!(self, TourEdge::Real { .. })
        }
    }

    impl Fragment {
        /// All distinct vertices that appear as tour-edge endpoints, in
        /// first-seen order: the "visible" vertices at this fragment's
        /// granularity (vertices interior to nested virtual edges are not
        /// included) — the typed oracle of the skeleton's.
        pub(crate) fn visible_vertices(&self) -> Vec<VertexId> {
            let seen = first_seen(self.edges.iter().flat_map(|e| [e.from(), e.to()]));
            seen.into_iter().map(|(v, _)| v).collect()
        }
    }

    /// The store's skeleton, record by record, ascending by id.
    fn skeleton_rows(store: &FragmentStore) -> Vec<SkeletonRow> {
        store.with_skeleton(|table| {
            let mut rows = Vec::new();
            for (&(level, partition), skeleton) in table {
                let (mut virtuals, mut visible) = (skeleton.virtuals.iter(), skeleton.visible.iter().peekable());
                for (seq, r) in skeleton.records.iter().enumerate() {
                    let id = FragmentId::new(level, PartitionId(partition), seq as u64);
                    let vs = virtuals.by_ref().take(r.virtuals as usize).map(|v| (v.at, v.child, v.from));
                    let mut seen = Vec::new();
                    while let Some(v) = visible.next_if(|v| v.record == seq as u32) {
                        seen.push((v.vertex, v.at));
                    }
                    rows.push((id, r.start, r.reals, vs.collect(), seen));
                }
                assert!(visible.next().is_none(), "every visible vertex is a record's");
            }
            rows
        })
    }

    /// The skeleton row of a typed fragment.
    fn expected_row(f: &Fragment) -> SkeletonRow {
        let virtuals = f.edges.iter().enumerate().filter_map(|(at, e)| match *e {
            TourEdge::Virtual { fragment, from, .. } => Some((at as u32, fragment, from)),
            TourEdge::Real { .. } => None,
        });
        let first_leaving = |v| f.edges.iter().position(|e| e.from() == v).unwrap() as u32;
        let visible = match f.kind {
            FragmentKind::Cycle => f.visible_vertices().into_iter().map(|v| (v, first_leaving(v))).collect(),
            FragmentKind::Path => Vec::new(),
        };
        let reals = f.edges.iter().filter(|e| e.is_real()).count() as u32;
        (f.id, f.start(), reals, virtuals.collect(), visible)
    }

    /// Ids of the cycle fragments, ascending.
    fn cycle_ids(store: &FragmentStore) -> Vec<FragmentId> {
        skeleton_rows(store).into_iter().filter(|row| !row.4.is_empty()).map(|row| row.0).collect()
    }

    /// The skeleton's visible vertices read as `(visible vertex, cycle id)`
    /// pairs.
    fn cycle_vertex_pairs(store: &FragmentStore) -> Vec<(VertexId, FragmentId)> {
        let rows = skeleton_rows(store);
        rows.into_iter().flat_map(|(id, .., visible)| visible.into_iter().map(move |(v, _)| (v, id))).collect()
    }

    fn real(edge: u64, from: u64, to: u64) -> TourEdge {
        TourEdge::Real { edge: EdgeId(edge), from: VertexId(from), to: VertexId(to) }
    }

    #[test]
    fn tour_edge_endpoints_and_reverse() {
        let e = real(3, 1, 2);
        assert_eq!(e.from(), VertexId(1));
        assert_eq!(e.to(), VertexId(2));
        let r = e.reversed();
        assert_eq!(r.from(), VertexId(2));
        assert_eq!(r.to(), VertexId(1));
        assert!(e.is_real());
        let v = TourEdge::Virtual { fragment: FragmentId(0), from: VertexId(5), to: VertexId(6) };
        assert!(!v.is_real());
        assert_eq!(v.reversed().from(), VertexId(6));
    }

    #[test]
    fn fragment_well_formedness() {
        let path = Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(0, 1, 2), real(1, 2, 3)],
        };
        assert!(path.is_well_formed());
        assert_eq!(path.start(), VertexId(1));
        assert_eq!(path.end(), VertexId(3));
        assert_eq!(path.len(), 2);
        assert_eq!(path.visible_vertices(), vec![VertexId(1), VertexId(2), VertexId(3)]);

        let broken = Fragment { edges: vec![real(0, 1, 2), real(1, 3, 4)], ..path.clone() };
        assert!(!broken.is_well_formed());

        let open_cycle = Fragment { kind: FragmentKind::Cycle, ..path.clone() };
        assert!(!open_cycle.is_well_formed());

        let cycle = Fragment { kind: FragmentKind::Cycle, edges: vec![real(0, 1, 2), real(1, 2, 1)], ..path };
        assert!(cycle.is_well_formed());
        assert_eq!(cycle.start(), cycle.end());
    }

    #[test]
    fn store_assigns_sequential_ids() {
        let store = FragmentStore::new();
        let f = Fragment {
            id: FragmentId(999),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(0, 0, 1)],
        };
        let id0 = store.push(f.clone());
        let id1 = store.push(f.clone());
        assert_eq!(id0, FragmentId(0));
        assert_eq!(id1, FragmentId(1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(id1).id, id1);
        assert_eq!(store.total_real_edges(), 2);
        // Sequences are per (level, partition): another partition, or the
        // same one a level up, starts from its own zero.
        let other = store.push(Fragment { partition: PartitionId(7), ..f.clone() });
        let above = store.push(Fragment { level: 2, ..f });
        assert_eq!(other, FragmentId::new(0, PartitionId(7), 0));
        assert_eq!(above, FragmentId::new(2, PartitionId(0), 0));
        assert_eq!((above.level(), above.partition(), above.seq()), (2, PartitionId(0), 0));
        assert!(id1 < other && other < above, "id order is (level, partition, seq) order");
    }

    #[test]
    fn ids_and_iteration_order_do_not_depend_on_push_interleaving() {
        // Two partitions of two levels: one store takes the pushes in id
        // order (a sequential run), the other interleaved and with the
        // partitions swapped (a concurrent one). Same ids, same walk.
        let frag = |level: u32, pid: u32, n: u64| Fragment {
            id: FragmentId(0),
            kind: if n.is_multiple_of(2) { FragmentKind::Cycle } else { FragmentKind::Path },
            level,
            partition: PartitionId(pid),
            edges: vec![real(100 * pid as u64 + n, n, n + 1), real(100 * pid as u64 + n + 50, n + 1, n)],
        };
        for spill in [false, true] {
            let new_store = || match spill {
                false => FragmentStore::new(),
                true => FragmentStore::spilling(SpillConfig::with_budget(10)),
            };
            let (ordered, interleaved) = (new_store(), new_store());
            for level in 0..2 {
                let mut a = Vec::new();
                for pid in [0, 1] {
                    for n in 0..3 {
                        a.push(ordered.push(frag(level, pid, n)));
                    }
                }
                let mut b = vec![FragmentId(0); 6];
                for n in 0..3 {
                    for pid in [1, 0] {
                        b[3 * pid as usize + n as usize] = interleaved.push(frag(level, pid, n));
                    }
                }
                assert_eq!(a, b, "ids are a function of (level, partition, seq)");
            }
            assert_eq!(ordered.snapshot(), interleaved.snapshot());
            assert_eq!(cycle_ids(&ordered), cycle_ids(&interleaved));
            assert_eq!(cycle_vertex_pairs(&ordered), cycle_vertex_pairs(&interleaved));
            let ids: Vec<FragmentId> = ordered.snapshot().iter().map(|f| f.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "the walk is in ascending id order");
            for id in ids {
                assert_eq!(ordered.get(id), interleaved.get(id));
            }
        }
    }

    /// `fragments` — all of one `(level, partition)` — as the bytes a worker
    /// sends them as, with the head that names them `first_seq..`.
    fn wire(first_seq: u64, fragments: &[Fragment]) -> (SegmentHead, Arc<Vec<u8>>) {
        let (level, partition) = (fragments[0].level, fragments[0].partition);
        let mut segment = Segment::with_capacity(level, partition, 0, 0);
        for f in fragments {
            push_tour(&mut segment, f);
        }
        let head = SegmentHead { level, partition, first_seq, records: fragments.len() as u64 };
        (head, Arc::new(segment.bytes().to_vec()))
    }

    /// Appends `f`'s record to `run`, as `FragmentStore::push` writes it.
    fn push_tour(run: &mut Segment, f: &Fragment) {
        let start = f.edges.first().map_or(VertexId(0), TourEdge::from);
        run.push_record(f.kind, start, &f.edges.iter().map(edge_words).collect::<Vec<_>>());
    }

    /// A run of `(level, partition)` said to hold `records` records over the
    /// raw record `words`, which no writer of this crate need have produced.
    pub(crate) fn raw_segment(level: u32, partition: PartitionId, records: usize, words: &[u64]) -> Segment {
        let mut buf = Vec::new();
        extend_words(&mut buf, words);
        let mut starts = vec![0; records];
        starts.push(buf.len());
        Segment { level, partition, buf: Arc::new(buf), starts }
    }

    /// A store fed with `store`'s runs of records as bytes off the wire.
    pub(crate) fn readopted(store: &FragmentStore) -> FragmentStore {
        let adopted = FragmentStore::new();
        for s in store.segments() {
            let (level, partition) = (s.level, s.partition);
            let first_seq = adopted.inner.lock().pushed(level, partition);
            let head = SegmentHead { level, partition, first_seq, records: s.records() as u64 };
            let bytes = Arc::new(s.bytes().to_vec());
            adopted.adopt(&head, &bytes, 0..bytes.len()).unwrap();
        }
        adopted
    }

    #[test]
    fn a_segment_grown_past_a_run_is_kept_as_several_buffers() {
        // Single pushes share a buffer up to a run's size, then start the
        // next; a run handed over whole stays the buffer it came in. Ids,
        // reads and walks do not see the seams.
        let path = |i: u64| Fragment {
            id: FragmentId::new(1, PartitionId(2), i),
            kind: if i.is_multiple_of(5) { FragmentKind::Cycle } else { FragmentKind::Path },
            level: 1,
            partition: PartitionId(2),
            edges: vec![real(2 * i, i, i + 1), real(2 * i + 1, i + 1, if i.is_multiple_of(5) { i } else { i + 2 })],
        };
        let fragments: Vec<Fragment> = (0..3 * RUN_BYTES as u64 / 48).map(path).collect();
        let (singles, whole) = (FragmentStore::new(), FragmentStore::new());
        let mut run = Segment::with_capacity(1, PartitionId(2), 0, 0);
        for f in &fragments {
            assert_eq!(singles.push(f.clone()), f.id);
            push_tour(&mut run, f);
            if run.bytes().len() >= RUN_BYTES {
                whole.push_segment(std::mem::replace(&mut run, Segment::with_capacity(1, PartitionId(2), 0, 0)));
            }
        }
        whole.push_segment(run);
        // A neighbour on either side of the segment's keys.
        for store in [&singles, &whole] {
            store.push(Fragment { partition: PartitionId(1), ..path(1) });
            store.push(Fragment { partition: PartitionId(3), ..path(1) });
        }
        for store in [&singles, &whole, &readopted(&singles)] {
            let runs = store.segments();
            assert!(runs.len() >= 5, "{} runs", runs.len());
            assert!(runs.iter().all(|r| r.bytes().len() < RUN_BYTES + 48));
            assert_eq!(store.len(), fragments.len() + 2);
            assert_eq!(store.snapshot()[1..=fragments.len()], fragments[..]);
            for f in fragments.iter().step_by(97) {
                assert_eq!(store.get(f.id), *f);
            }
            assert_eq!(cycle_ids(store).len(), fragments.len().div_ceil(5));
        }
    }

    fn adopt(store: &FragmentStore, first_seq: u64, fragments: &[Fragment]) -> Result<(), WireError> {
        let (head, bytes) = wire(first_seq, fragments);
        store.adopt(&head, &bytes, 0..bytes.len())
    }

    fn invalid(result: Result<(), WireError>, what: &str) {
        match result {
            Err(WireError::Invalid(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected an invalid-payload error naming {what:?}, got {other:?}"),
        }
    }

    #[test]
    fn adoption_checks_the_id_and_the_references() {
        let store = FragmentStore::new();
        let found = |edges: Vec<TourEdge>| Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 1,
            partition: PartitionId(3),
            edges,
        };
        adopt(&store, 0, &[found(vec![real(0, 0, 1)])]).unwrap();
        // Not the next of (1, 3): a gap, a repeat, records of other
        // coordinates than the head's.
        invalid(adopt(&store, 2, &[found(vec![real(1, 1, 2)])]), "not the next");
        invalid(adopt(&store, 0, &[found(vec![real(1, 1, 2)])]), "not the next");
        let (head, bytes) = wire(1, &[Fragment { level: 0, ..found(vec![real(1, 1, 2)]) }]);
        invalid(store.adopt(&SegmentHead { level: 1, ..head }, &bytes, 0..bytes.len()), "not the next");
        // A virtual edge must point at something already stored — or found
        // earlier in the same run.
        let virt = |fragment| TourEdge::Virtual { fragment, from: VertexId(1), to: VertexId(2) };
        let dangling = found(vec![virt(FragmentId::new(0, PartitionId(9), 0))]);
        invalid(adopt(&store, 1, &[dangling]), "unknown fragment");
        let ahead = found(vec![virt(FragmentId::new(1, PartitionId(3), 2))]);
        invalid(adopt(&store, 1, &[ahead, found(vec![real(2, 2, 3)])]), "unknown fragment");
        let back = |seq| found(vec![virt(FragmentId::new(1, PartitionId(3), seq))]);
        adopt(&store, 1, &[back(0), back(1)]).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.get(FragmentId::new(1, PartitionId(3), 2)),
            Fragment { id: FragmentId::new(1, PartitionId(3), 2), ..back(1) }
        );
        // Nothing of a refused run is kept.
        assert_eq!(store.disk_longs(), 3 * 4);
    }

    #[test]
    fn hostile_records_are_refused_with_a_typed_error() {
        let path = Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 2,
            partition: PartitionId(1),
            edges: vec![real(0, 5, 6), real(1, 6, 7)],
        };
        let store = FragmentStore::new();
        // Empty and unclosed: what `Fragment::is_well_formed` refuses and the
        // chain form can still say.
        invalid(adopt(&store, 0, &[Fragment { edges: Vec::new(), ..path.clone() }]), "is empty");
        invalid(adopt(&store, 0, &[Fragment { kind: FragmentKind::Cycle, ..path.clone() }]), "does not close");
        // Patched words: [packed, start, id, to, id, to].
        let (head, bytes) = wire(0, std::slice::from_ref(&path));
        let patched = |word: usize, value: u64| {
            let mut bytes = bytes.to_vec();
            bytes[8 * word..8 * word + 8].copy_from_slice(&value.to_le_bytes());
            let bytes = Arc::new(bytes);
            store.adopt(&head, &bytes, 0..bytes.len())
        };
        // A record of other coordinates than its segment's, and a cycle whose
        // last `to` is not its start.
        let header = |kind, level, partition, n| packed_header(kind, level, PartitionId(partition), n);
        invalid(patched(0, header(FragmentKind::Path, 3, 1, 2)), "not the next");
        invalid(patched(0, header(FragmentKind::Path, 2, 0, 2)), "not the next");
        invalid(patched(0, header(FragmentKind::Cycle, 2, 1, 2)), "does not close");
        // A real edge flipped to a virtual one.
        invalid(patched(2, VIRTUAL_TAG), "unknown fragment");
        // A count past the payload, with nothing allocated for it; a run
        // with fewer records than its head says, or more bytes.
        assert!(matches!(
            patched(0, header(FragmentKind::Path, 2, 1, u32::MAX as u64)),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(patched(0, header(FragmentKind::Path, 2, 1, 3)), Err(WireError::Truncated { .. })));
        let two = SegmentHead { records: 2, ..head };
        assert!(matches!(store.adopt(&two, &bytes, 0..bytes.len()), Err(WireError::Truncated { .. })));
        invalid(store.adopt(&SegmentHead { records: 0, ..head }, &bytes, 0..bytes.len()), "unread word");
        // Coordinates no id can name.
        let far = SegmentHead { first_seq: (1 << ID_SEQ_BITS) - 1, records: 2, ..head };
        invalid(Segment::validated(&far, &bytes, 0..bytes.len(), |_| true).map(drop), "id layout");
        // Truncation at every word.
        for cut in 0..bytes.len() / 8 {
            assert!(store.adopt(&head, &bytes, 0..8 * cut).is_err(), "cut at word {cut}");
        }
        assert!(matches!(store.adopt(&head, &bytes, 0..bytes.len() + 8), Err(WireError::Truncated { .. })));
        assert!(store.is_empty(), "nothing of a refused run is kept");
        // Any `to` chains on: the next edge leaves from it.
        let mut rerouted = bytes.to_vec();
        rerouted[24..32].copy_from_slice(&9u64.to_le_bytes());
        let detour = Fragment { edges: vec![real(0, 5, 9), real(1, 9, 7)], ..path.clone() };
        assert_eq!(rerouted, *wire(0, &[detour]).1);
        store.adopt(&head, &bytes, 0..bytes.len()).unwrap();
        assert_eq!(store.snapshot(), vec![Fragment { id: FragmentId::new(2, PartitionId(1), 0), ..path }]);
    }

    #[test]
    #[should_panic(expected = "does not chain")]
    fn a_tour_that_does_not_chain_is_refused_at_push() {
        FragmentStore::new().push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(0, 5, 6), real(1, 7, 8)],
        });
    }

    #[test]
    #[should_panic(expected = "tag bit")]
    fn an_edge_id_with_the_tag_bit_set_is_refused_at_push() {
        FragmentStore::new().push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(VIRTUAL_TAG, 0, 1)],
        });
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = FragmentStore::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = store.clone();
                s.spawn(move || {
                    store.push(Fragment {
                        id: FragmentId(0),
                        kind: FragmentKind::Path,
                        level: 0,
                        partition: PartitionId(t as u32),
                        edges: vec![real(t, t, t + 1)],
                    });
                });
            }
        });
        assert_eq!(store.len(), 4);
        let ids: std::collections::HashSet<u64> = store.snapshot().iter().map(|f| f.id.0).collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn disk_longs_accounting() {
        let store = FragmentStore::new();
        store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(0, 0, 1), real(1, 1, 2)],
        });
        assert_eq!(store.disk_longs(), 2 + 4);
    }

    // --- The spill backing. -------------------------------------------------

    /// A mix of paths, cycles and virtual edges large enough to overflow a
    /// tiny budget many times over.
    fn workload(n: u64) -> Vec<Fragment> {
        (0..n)
            .map(|i| Fragment {
                id: FragmentId(0),
                kind: if i % 3 == 0 { FragmentKind::Cycle } else { FragmentKind::Path },
                level: (i % 4) as u32,
                partition: PartitionId((i % 5) as u32),
                edges: (0..=(i % 7))
                    .map(|j| {
                        // The last edge of a cycle leads back to vertex 0.
                        let to = if i % 3 == 0 && j == i % 7 { 0 } else { j + 1 };
                        // Virtual edges name the fragment before, which is
                        // one level down.
                        if j % 2 == 0 || i % 4 == 0 {
                            real(10 * i + j, j, to)
                        } else {
                            let below =
                                FragmentId::new(((i - 1) % 4) as u32, PartitionId(((i - 1) % 5) as u32), (i - 1) / 20);
                            TourEdge::Virtual { fragment: below, from: VertexId(j), to: VertexId(to) }
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// Every observable query of the two stores must agree.
    fn assert_stores_agree(mem: &FragmentStore, spill: &FragmentStore) {
        assert_eq!(mem.len(), spill.len());
        assert_eq!(mem.disk_longs(), spill.disk_longs());
        assert_eq!(mem.total_real_edges(), spill.total_real_edges());
        assert_eq!(cycle_ids(mem), cycle_ids(spill));
        let mut mem_all = Vec::new();
        mem.for_each(|f| mem_all.push(f.clone()));
        let mut spill_all = Vec::new();
        spill.for_each(|f| spill_all.push(f.clone()));
        assert_eq!(mem_all, spill_all);
        assert_eq!(mem_all.len(), mem.len());
        for f in &mem_all {
            assert_eq!(mem.get(f.id), *f);
            assert_eq!(spill.get(f.id), *f);
        }
        // However each backing cuts them into runs, the segments are the
        // same bytes, and a store that adopts them is the same store.
        let bytes_by_segment = |store: &FragmentStore| {
            let mut segments: BTreeMap<(u32, u32), Vec<u8>> = BTreeMap::new();
            for run in store.segments() {
                segments.entry((run.level, run.partition.0)).or_default().extend(run.bytes());
            }
            segments
        };
        assert_eq!(bytes_by_segment(mem), bytes_by_segment(spill));
        let adopted = readopted(spill);
        assert_eq!(adopted.snapshot(), mem_all);
    }

    #[test]
    fn spill_backing_is_observably_identical_to_memory_under_a_tiny_budget() {
        let mem = FragmentStore::new();
        let spill = FragmentStore::spilling(SpillConfig::with_budget(32));
        for f in workload(40) {
            let a = mem.push(f.clone());
            let b = spill.push(f);
            assert_eq!(a, b, "backings assign the same ids");
        }
        assert_stores_agree(&mem, &spill);
        let stats = spill.stats();
        assert!(stats.spilled_fragments > 0, "a 32-Long budget must spill: {stats:?}");
        assert!(stats.spill_write_longs > 0);
        // Once pushes quiesce, eviction has brought the set under budget.
        assert!(stats.resident_longs <= 32, "resident {} over budget", stats.resident_longs);
        assert_eq!(stats.spill_errors, 0);
        // Peak never exceeds budget + one fragment (evictions run per push).
        let max_frag = workload(40).iter().map(|f| f.disk_longs()).max().unwrap();
        assert!(
            stats.peak_resident_longs <= 32 + max_frag,
            "peak {} budget 32 max fragment {max_frag}",
            stats.peak_resident_longs
        );
        // In-memory backing reports no spill traffic, full residency.
        let mem_stats = mem.stats();
        assert_eq!(mem_stats.spilled_fragments, 0);
        assert_eq!(mem_stats.resident_longs, mem.disk_longs());
    }

    #[test]
    fn zero_budget_spills_everything_as_the_records_it_holds() {
        let store = FragmentStore::spilling(SpillConfig::with_budget(0));
        let fs = workload(12);
        let ids: Vec<FragmentId> = fs.iter().map(|f| store.push(f.clone())).collect();
        let stats = store.stats();
        assert_eq!((stats.spilled_fragments, stats.resident_longs), (12, 0));
        // The file holds each record once, at the Longs the model charges.
        let expected: u64 = fs.iter().map(Fragment::disk_longs).sum();
        assert_eq!(store.disk_longs(), expected);
        assert_eq!(stats.spill_write_longs, expected);
        for (id, f) in ids.iter().zip(&fs) {
            assert_eq!(store.get(*id).edges, f.edges);
        }
        assert_eq!(store.stats().spill_read_longs, expected);
    }

    #[test]
    fn interrupted_spill_recovers_to_resident_results() {
        // A spill directory that cannot exist: the first eviction fails, the
        // store records it, stops spilling and keeps everything resident —
        // with every query still exact.
        let mem = FragmentStore::new();
        let broken = FragmentStore::spilling(SpillConfig::with_budget(8).in_directory("/nonexistent/euler/spill/dir"));
        for f in workload(20) {
            mem.push(f.clone());
            broken.push(f);
        }
        let stats = broken.stats();
        assert_eq!(stats.spill_errors, 1, "first failure disarms spilling: {stats:?}");
        assert_eq!(stats.spilled_fragments, 0);
        assert_eq!(stats.resident_longs, broken.disk_longs());
        assert_stores_agree(&mem, &broken);
    }

    /// A level-0 path over `n` real edges, numbered from `first`.
    fn path_of(first: u64, n: u64) -> Fragment {
        Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: (first..first + n).map(|e| real(e, e, e + 1)).collect(),
        }
    }

    /// The backing of a [`FragmentStore::spilling`] store.
    fn spilling(config: SpillConfig) -> Backing {
        std::mem::take(&mut FragmentStore::spilling(config).inner.lock().backing)
    }

    /// Appends `f` straight to a backing, as a store's push would, and
    /// returns it as stored. The backing holds only `f`'s `(level,
    /// partition)`.
    fn append_to(backing: &mut Backing, f: &Fragment) -> Fragment {
        let mut run = Segment::with_capacity(f.level, f.partition, 1, f.len());
        push_tour(&mut run, f);
        let seq = backing.runs.values().map(|r| r.segment.records() as u64).sum();
        let id = FragmentId::new(f.level, f.partition, seq);
        backing.append(id, run);
        Fragment { id, ..f.clone() }
    }

    /// The ids of the records a backing has staged for the file, in the
    /// order they lie in the staging buffer.
    fn staged_ids(backing: &Backing) -> Vec<FragmentId> {
        let staged = backing.file_order.iter().filter(|first| backing.runs[first].spilled_at >= Some(backing.file_end));
        let ids = staged.flat_map(|&first| {
            let records = backing.runs[&first].segment.records() as u64;
            (first.seq()..first.seq() + records).map(move |seq| FragmentId::new(first.level(), first.partition(), seq))
        });
        ids.collect()
    }

    /// The fragment a backing holds under `id`, decoded from its record.
    fn reread(backing: &mut Backing, id: FragmentId) -> Fragment {
        let mut f = Fragment::default();
        backing.record(id).unwrap().view().read_into(id, &mut f);
        f
    }

    #[test]
    fn a_zero_budget_store_writes_once_per_filled_run_and_per_oversized_record() {
        // A 3-edge path is 8 Longs, 64 bytes: a run holds exactly that many
        // of them. A 5000-edge path does not fit a run at all.
        let per_run = RUN_BYTES / 64;
        let sizes = [vec![3; 3 * per_run], vec![5000], vec![3; per_run], vec![5000], vec![3; 100]].concat();
        let store = FragmentStore::spilling(SpillConfig::with_budget(0));
        let mut edge = 0;
        let pushed: Vec<Fragment> = sizes
            .iter()
            .map(|&n| {
                let f = path_of(edge, n);
                edge += n;
                Fragment { id: store.push(f.clone()), ..f }
            })
            .collect();
        let stats = store.stats();
        // Four filled runs, two records written alone, and the partial run
        // reading the statistics flushed.
        assert_eq!(stats.spill_writes, 4 + 2 + 1, "{stats:?}");
        assert_eq!(stats.spilled_fragments, pushed.len() as u64);
        assert_eq!(stats.spill_write_longs, store.disk_longs());
        for f in &pushed {
            assert_eq!(store.get(f.id), *f);
        }
        assert_eq!(store.stats().spill_read_longs, store.disk_longs());
    }

    #[test]
    fn a_record_over_a_run_is_written_alone_and_the_buffer_never_grows() {
        let mut backing = spilling(SpillConfig::with_budget(0));
        let small = append_to(&mut backing, &path_of(0, 4));
        assert_eq!((backing.stats.spill_writes, staged_ids(&backing).len()), (0, 1));
        // A staged record counts as spilled already.
        assert_eq!((backing.stats.spilled_fragments, backing.stats.resident_longs), (1, 0));
        let big = append_to(&mut backing, &path_of(100, 5000));
        assert!(8 * big.disk_longs() as usize > RUN_BYTES);
        // The staged run went first, then the big record on its own.
        assert_eq!(backing.stats.spill_writes, 2);
        assert!(backing.staged.is_empty() && backing.staged.capacity() <= RUN_BYTES);
        assert_eq!(backing.file_end, 8 * (small.disk_longs() + big.disk_longs()));
        let after = append_to(&mut backing, &path_of(10_000, 4));
        assert_eq!(staged_ids(&backing), [after.id]);
        assert!(backing.staged.capacity() <= RUN_BYTES);
        for f in [&small, &big, &after] {
            assert_eq!(reread(&mut backing, f.id), *f);
        }
        assert_eq!(backing.stats.spill_writes, 3, "the first read flushed the last record");
        assert_eq!(backing.stats.spill_read_longs, backing.stats.spill_write_longs);
    }

    #[test]
    fn a_failed_flush_puts_every_staged_record_back() {
        let config = SpillConfig::with_budget(0).in_directory("/nonexistent/euler/spill/dir");
        let mut backing = spilling(config);
        let fragments: Vec<Fragment> = (0..20).map(|i| append_to(&mut backing, &path_of(10 * i, 1 + i % 4))).collect();
        let disk_longs: u64 = fragments.iter().map(Fragment::disk_longs).sum();
        assert_eq!(staged_ids(&backing).len(), 20, "nothing has been written yet");
        assert_eq!(backing.stats.spilled_fragments, 20);
        assert_eq!(backing.stats.spill_write_longs, disk_longs);
        let stats = backing.stats();
        assert_eq!(stats.spill_errors, 1, "one failed write is one error: {stats:?}");
        assert_eq!((stats.spilled_fragments, stats.spill_write_longs, stats.spill_writes), (0, 0, 0));
        assert_eq!((stats.resident_longs, stats.evictions_scheduled), (disk_longs, 0));
        assert!(backing.file.is_none() && staged_ids(&backing).is_empty());
        // Spilling has stopped: a later push stays resident, and no error
        // repeats.
        let later = append_to(&mut backing, &path_of(1000, 3));
        for f in fragments.iter().chain([&later]) {
            assert_eq!(reread(&mut backing, f.id), *f);
        }
        assert_eq!(backing.stats().spill_errors, 1);
        assert_eq!(backing.stats.resident_longs, disk_longs + later.disk_longs());
    }

    #[test]
    fn an_adopted_run_shares_its_payload_without_a_budget_and_owns_its_bytes_under_one() {
        let fragments: Vec<Fragment> = (0..3).map(|i| path_of(10 * i, 2)).collect();
        let (head, bytes) = wire(0, &fragments);
        // The run between other words, as a Done carries it.
        let payload = Arc::new([&[7; 8][..], &bytes[..], &[7; 16][..]].concat());
        let range = 8..8 + bytes.len();
        let (unbounded, bounded) = (FragmentStore::new(), FragmentStore::spilling(SpillConfig::with_budget(1000)));
        for store in [&unbounded, &bounded] {
            store.adopt(&head, &payload, range.clone()).unwrap();
        }
        let buffers = |store: &FragmentStore| -> Vec<Arc<Vec<u8>>> {
            store.inner.lock().backing.runs.values().map(|r| Arc::clone(&r.segment.buf)).collect()
        };
        assert!(buffers(&unbounded).iter().all(|buf| Arc::ptr_eq(buf, &payload)));
        let owned = buffers(&bounded);
        assert!(owned.iter().all(|buf| !Arc::ptr_eq(buf, &payload) && buf[..] == bytes[..]), "{owned:?}");
        assert_eq!(Arc::strong_count(&payload), 2, "the payload and the unbounded store's run");
        assert_eq!(bounded.stats().resident_longs, bounded.disk_longs());
        assert_eq!(bounded.snapshot(), unbounded.snapshot());
    }

    #[test]
    fn single_pushes_filed_back_to_back_share_a_run() {
        // Under a zero budget every push goes to the file. Pushes staged one
        // after another are one run; a write in between starts the next.
        let mut backing = spilling(SpillConfig::with_budget(0));
        let mut pushed: Vec<Fragment> = (0..10).map(|i| append_to(&mut backing, &path_of(10 * i, 2))).collect();
        assert_eq!((backing.runs.len(), backing.file_order.len()), (1, 1));
        backing.flush();
        pushed.extend((10..13).map(|i| append_to(&mut backing, &path_of(10 * i, 2))));
        assert_eq!(backing.runs.len(), 2, "a write in between starts the next run");
        let mut stored = Vec::new();
        backing.for_each_stored(&mut |id, view| stored.push(Fragment { id, ..path_of(0, view.len() as u64) })).unwrap();
        assert_eq!(stored.iter().map(|f| f.id).collect::<Vec<_>>(), pushed.iter().map(|f| f.id).collect::<Vec<_>>());
        for f in &pushed {
            assert_eq!(reread(&mut backing, f.id), *f);
        }
    }

    #[test]
    fn cycle_vertex_pairs_agree_across_backings_and_cost_no_spill_reads() {
        let mem = FragmentStore::new();
        let spill = FragmentStore::spilling(SpillConfig::with_budget(0));
        for f in workload(30) {
            mem.push(f.clone());
            spill.push(f);
        }
        let reads_before = spill.stats().spill_read_longs;
        assert_eq!(cycle_vertex_pairs(&mem), cycle_vertex_pairs(&spill));
        assert_eq!(spill.stats().spill_read_longs, reads_before, "the splice index must not touch spilled payloads");
        assert!(!cycle_vertex_pairs(&mem).is_empty());
    }

    #[test]
    fn spilled_store_is_shareable_across_threads() {
        let store = FragmentStore::spilling(SpillConfig::with_budget(4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = store.clone();
                s.spawn(move || {
                    store.push(Fragment {
                        id: FragmentId(0),
                        kind: FragmentKind::Path,
                        level: 0,
                        partition: PartitionId(t as u32),
                        edges: vec![real(t, t, t + 1)],
                    });
                });
            }
        });
        assert_eq!(store.len(), 4);
        assert_eq!(store.total_real_edges(), 4);
    }

    /// The coordinates the round-trip below spreads its fragments over, the
    /// largest an id can name among them, in id order.
    const CORNERS: [(u32, u32); 4] = [
        (0, 0),
        (0, FragmentId::MAX_PARTITIONS - 1),
        (1, 7),
        (FragmentId::MAX_LEVELS - 1, FragmentId::MAX_PARTITIONS - 1),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Record form against the typed oracle: whatever well-formed
        /// fragments go in — real and virtual edges, one-edge paths,
        /// self-loop cycles, the largest ids the layout has room for — come
        /// back from `get` and `snapshot` as they went in, on the memory
        /// backing, the spill backing at a one-fragment budget, and a store
        /// fed by `adopt` from the bytes a worker would send.
        #[test]
        fn records_round_trip_every_fragment_on_every_backing(
            tours in prop::collection::vec(
                (0usize..4, any::<bool>(), prop::collection::vec((0u64..u64::MAX, 0u64..4), 1..9)),
                1..24,
            ),
        ) {
            // Turn each (corner, closed?, [(vertex, edge choice)]) into a
            // fragment whose virtual edges name fragments of a lower corner.
            let mut expected: Vec<Fragment> = Vec::new();
            let mut pushed = [0u64; 4];
            for (corner, closed, stops) in &tours {
                let (level, partition) = CORNERS[*corner];
                let last = if *closed { stops[0].0 } else { stops[stops.len() - 1].0 ^ 1 };
                let tos = stops.iter().skip(1).map(|s| s.0).chain([last]);
                let below = expected.iter().filter(|f| f.level < level).map(|f| f.id).next_back();
                let edges = stops.iter().zip(tos).map(|(&(from, pick), to)| {
                    let (from, to) = (VertexId(from), VertexId(to));
                    match (pick, below) {
                        (0, Some(fragment)) => TourEdge::Virtual { fragment, from, to },
                        (1, _) => TourEdge::Real { edge: EdgeId(VIRTUAL_TAG - 1), from, to },
                        _ => TourEdge::Real { edge: EdgeId(from.0 >> 1), from, to },
                    }
                });
                expected.push(Fragment {
                    id: FragmentId::new(level, PartitionId(partition), pushed[*corner]),
                    kind: if *closed { FragmentKind::Cycle } else { FragmentKind::Path },
                    level,
                    partition: PartitionId(partition),
                    edges: edges.collect(),
                });
                pushed[*corner] += 1;
            }
            let one_fragment = expected.iter().map(Fragment::disk_longs).max().unwrap();
            let memory = FragmentStore::new();
            let spill = FragmentStore::spilling(SpillConfig::with_budget(one_fragment));
            for f in &expected {
                prop_assert_eq!(memory.push(Fragment { id: FragmentId(0), ..f.clone() }), f.id);
                prop_assert_eq!(spill.push(Fragment { id: FragmentId(0), ..f.clone() }), f.id);
            }
            let adopted = readopted(&memory);
            let stats = spill.stats();
            prop_assert!(stats.peak_resident_longs <= 2 * one_fragment, "{:?}", stats);
            expected.sort_by_key(|f| f.id);
            for store in [&memory, &spill, &adopted] {
                prop_assert_eq!(&store.snapshot(), &expected);
                for f in &expected {
                    prop_assert_eq!(&store.get(f.id), f);
                }
                prop_assert_eq!(store.disk_longs(), expected.iter().map(Fragment::disk_longs).sum::<u64>());
                let reals = expected.iter().flat_map(|f| &f.edges).filter(|e| e.is_real()).count();
                prop_assert_eq!(store.total_real_edges(), reals as u64);
                // The splice index is the typed fragments' visible vertices.
                let cycles = expected.iter().filter(|f| f.kind == FragmentKind::Cycle);
                prop_assert_eq!(cycle_ids(store), cycles.clone().map(|f| f.id).collect::<Vec<_>>());
                let visible: Vec<(VertexId, FragmentId)> =
                    cycles.flat_map(|f| f.visible_vertices().into_iter().map(|v| (v, f.id))).collect();
                prop_assert_eq!(cycle_vertex_pairs(store), visible);
                // And the whole skeleton is the typed fragments'.
                prop_assert_eq!(skeleton_rows(store), expected.iter().map(expected_row).collect::<Vec<_>>());
            }
        }

        /// The eviction order is read off the ids alone. With equal-size
        /// records and a budget of `k` of them, however the pushes of the
        /// `(level, partition)`s interleave, the records left resident are
        /// the `k` last in the order — each eviction takes the first, so this
        /// holds push by push — and every other one is read back from the
        /// spill file, once.
        #[test]
        fn equal_records_leave_the_same_spilled_set_under_every_interleaving(
            pushes in prop::collection::vec((0u32..3, 0u32..4), 1..48),
            k in 0u64..10,
        ) {
            let one = |level, pid, seq: u64| Fragment {
                id: FragmentId(0),
                kind: FragmentKind::Path,
                level,
                partition: PartitionId(pid),
                edges: vec![real(seq, seq, seq + 1)],
            };
            let record_longs = one(0, 0, 0).disk_longs();
            let store = FragmentStore::spilling(SpillConfig::with_budget(k * record_longs));
            let mut pushed = BTreeMap::new();
            let mut ids = Vec::new();
            for &(level, pid) in &pushes {
                let seq = pushed.entry((level, pid)).or_insert(0u64);
                ids.push(store.push(one(level, pid, *seq)));
                *seq += 1;
            }
            let stats = store.stats();
            prop_assert!(stats.peak_resident_longs <= (k + 1) * record_longs, "{:?}", stats);
            ids.sort_by_key(|&id| eviction_key(id));
            let spilled = ids.len().saturating_sub(k as usize);
            prop_assert_eq!(stats.spilled_fragments, spilled as u64);
            for (rank, &id) in ids.iter().enumerate() {
                let before = store.stats().spill_read_longs;
                store.get(id);
                let reloaded = store.stats().spill_read_longs - before;
                prop_assert_eq!(reloaded, if rank < spilled { record_longs } else { 0 }, "{:?}", id);
            }
            prop_assert_eq!(store.stats().spill_read_longs, stats.spill_write_longs);
        }
    }
}
