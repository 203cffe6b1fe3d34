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

/// Identifier of a fragment in the [`FragmentStore`]: *where* it was found,
/// packed as `(merge level, partition, push sequence within that partition's
/// Phase 1 at that level)`.
///
/// The id is a pure function of the algorithm's own coordinates, so it is
/// the same whichever thread, worker or process found the fragment and
/// however the pushes of concurrently running partitions interleaved — the
/// root of the pipeline's bit-identity across thread and worker counts.
/// Numeric order over ids is `(level, partition, sequence)` lexicographic
/// order: the push order of a fully sequential run, and the order every
/// store iterates in.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FragmentId(pub u64);

const ID_SEQ_BITS: u32 = 32;
const ID_PARTITION_BITS: u32 = 24;
/// One bit short of the word: bit 63 of a stored id word is the record's
/// real/virtual tag.
const ID_LEVEL_BITS: u32 = 7;

impl FragmentId {
    /// Merge levels an id can name (a tree over 2²⁴ partitions has 25).
    pub const MAX_LEVELS: u32 = 1 << ID_LEVEL_BITS;
    /// Partition ids an id can name.
    pub const MAX_PARTITIONS: u32 = 1 << ID_PARTITION_BITS;

    /// The id of the `seq`-th fragment `partition` pushed at `level`.
    ///
    /// # Panics
    /// When a coordinate does not fit its field (7 bits of level, 24 of
    /// partition, 32 of sequence).
    pub fn new(level: u32, partition: PartitionId, seq: u64) -> Self {
        assert!(
            level < Self::MAX_LEVELS && partition.0 < Self::MAX_PARTITIONS && seq < 1 << ID_SEQ_BITS,
            "fragment coordinates ({level}, {partition:?}, {seq}) overflow the id layout"
        );
        FragmentId(
            (level as u64) << (ID_PARTITION_BITS + ID_SEQ_BITS)
                | (partition.0 as u64) << ID_SEQ_BITS
                | seq,
        )
    }

    /// Merge level the fragment was found at.
    pub fn level(self) -> u32 {
        (self.0 >> (ID_PARTITION_BITS + ID_SEQ_BITS)) as u32
    }

    /// Partition (merged id at that level) that found the fragment.
    pub fn partition(self) -> PartitionId {
        PartitionId((self.0 >> ID_SEQ_BITS) as u32 & ((1 << ID_PARTITION_BITS) - 1))
    }

    /// Position in that partition's push sequence at that level.
    pub fn seq(self) -> u64 {
        self.0 & ((1 << ID_SEQ_BITS) - 1)
    }
}

impl std::fmt::Debug for FragmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}.{}.{}", self.level(), self.partition().0, self.seq())
    }
}

/// One traversed edge of a fragment, in traversal order and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TourEdge {
    /// A real graph edge traversed from `from` to `to`.
    Real {
        /// The underlying edge.
        edge: EdgeId,
        /// Vertex the traversal enters the edge at.
        from: VertexId,
        /// Vertex the traversal leaves the edge at.
        to: VertexId,
    },
    /// A coarse edge standing for a lower-level path fragment, traversed from
    /// `from` to `to` (which are the fragment's endpoints, possibly reversed).
    Virtual {
        /// The referenced path fragment.
        fragment: FragmentId,
        /// Entry vertex.
        from: VertexId,
        /// Exit vertex.
        to: VertexId,
    },
}

impl TourEdge {
    /// Vertex this tour edge starts at.
    pub fn from(&self) -> VertexId {
        match *self {
            TourEdge::Real { from, .. } | TourEdge::Virtual { from, .. } => from,
        }
    }

    /// Vertex this tour edge ends at.
    pub fn to(&self) -> VertexId {
        match *self {
            TourEdge::Real { to, .. } | TourEdge::Virtual { to, .. } => to,
        }
    }

    /// The same tour edge traversed in the opposite direction.
    pub fn reversed(&self) -> TourEdge {
        match *self {
            TourEdge::Real { edge, from, to } => TourEdge::Real { edge, from: to, to: from },
            TourEdge::Virtual { fragment, from, to } => TourEdge::Virtual { fragment, from: to, to: from },
        }
    }
}

/// Whether a fragment is an open path (OB-pair) or a closed cycle. The
/// discriminant is bit 0 of a stored record's packed header word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FragmentKind {
    /// Maximal local path between two odd-degree boundary vertices.
    #[default]
    Path = 0,
    /// Local cycle anchored at (starting and ending at) one vertex.
    Cycle = 1,
}

/// A path or cycle found by Phase 1 — the typed view of a stored record.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// Identifier in the store.
    pub id: FragmentId,
    /// Path or cycle.
    pub kind: FragmentKind,
    /// Merge level at which the fragment was found (0 = leaf partitions).
    pub level: u32,
    /// Partition (current merged id) that found the fragment.
    pub partition: PartitionId,
    /// Traversed edges in order. For a path, `edges[0].from()` is the start
    /// vertex and `edges.last().to()` the end vertex; for a cycle both equal
    /// the anchor.
    pub edges: Vec<TourEdge>,
}

/// The distinct vertices of `endpoints`, in first-seen order, each with the
/// position it is first seen at. De-duplication runs over an interned slot
/// bitmap rather than a hash set.
fn first_seen(endpoints: impl Iterator<Item = VertexId> + Clone) -> Vec<(VertexId, usize)> {
    let index = LocalIndex::from_vertices(endpoints.clone());
    let mut seen: Vec<bool> = index.zeroed();
    let mut out = Vec::with_capacity(index.len());
    for (at, v) in endpoints.enumerate() {
        let s = index.slot(v).expect("endpoint interned") as usize;
        if !seen[s] {
            seen[s] = true;
            out.push((v, at));
        }
    }
    out
}

impl Fragment {
    /// Start vertex (first tour edge's source). Cycles start at their anchor.
    pub fn start(&self) -> VertexId {
        self.edges.first().expect("fragments are never empty").from()
    }

    /// End vertex (last tour edge's target). Equals [`start`](Self::start)
    /// for cycles.
    pub fn end(&self) -> VertexId {
        self.edges.last().expect("fragments are never empty").to()
    }

    /// Number of tour edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Fragments are never empty, but the standard pairing is provided.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Checks the internal chaining invariant: consecutive tour edges share a
    /// vertex and (for cycles) the fragment closes.
    pub fn is_well_formed(&self) -> bool {
        let chains = self.edges.windows(2).all(|w| w[0].to() == w[1].from());
        chains && !self.is_empty() && (self.kind == FragmentKind::Path || self.start() == self.end())
    }

    /// Number of Longs the fragment's record is stored in *on disk* (not in
    /// partition memory): two of header plus two per tour edge.
    pub fn disk_longs(&self) -> u64 {
        (HEADER_WORDS + EDGE_WORDS * self.edges.len()) as u64
    }
}

// ---------------------------------------------------------------------------
// The record: the one stored form of a fragment.
// ---------------------------------------------------------------------------

/// Words of a record's `[packed, start]` header.
const HEADER_WORDS: usize = 2;
/// Words of one tour edge in a record: `[id, to]`.
const EDGE_WORDS: usize = 2;
/// Bit 63 of a tour edge's id word: set when the id is a [`FragmentId`].
const VIRTUAL_TAG: u64 = 1 << 63;
/// Shifts of a packed header word's fields above its kind bit (bit 0).
const LEVEL_SHIFT: u32 = 1;
const PARTITION_SHIFT: u32 = LEVEL_SHIFT + ID_LEVEL_BITS;
const COUNT_SHIFT: u32 = PARTITION_SHIFT + ID_PARTITION_BITS;

/// The packed header word of a `kind` record of `n` tour edges found at
/// `(level, partition)`, whose fields the caller has checked.
pub(crate) fn packed_header(kind: FragmentKind, level: u32, partition: PartitionId, n: u64) -> u64 {
    kind as u64 | (level as u64) << LEVEL_SHIFT | (partition.0 as u64) << PARTITION_SHIFT | n << COUNT_SHIFT
}

/// The fields of a record's packed header word: kind, level, partition and
/// edge count. Every word decodes.
fn unpacked(word: u64) -> (FragmentKind, u32, u32, u64) {
    let kind = if word & 1 == 0 { FragmentKind::Path } else { FragmentKind::Cycle };
    let field = |shift: u32, bits: u32| (word >> shift) as u32 & ((1 << bits) - 1);
    (kind, field(LEVEL_SHIFT, ID_LEVEL_BITS), field(PARTITION_SHIFT, ID_PARTITION_BITS), word >> COUNT_SHIFT)
}

/// The two record words of a tour edge, `[id, to]`: its `from` is the
/// previous edge's `to`.
///
/// # Panics
/// When the id has bit 63 set — the tag bit: an [`EdgeId`] ≥ 2⁶³, or a
/// [`FragmentId`] no [`FragmentId::new`] returns.
pub(crate) fn edge_words(e: &TourEdge) -> [u64; EDGE_WORDS] {
    let (id, tag, to) = match *e {
        TourEdge::Real { edge, to, .. } => (edge.0, 0, to),
        TourEdge::Virtual { fragment, to, .. } => (fragment.0, VIRTUAL_TAG, to),
    };
    assert!(id & VIRTUAL_TAG == 0, "id {id:#x} of {e:?} does not leave the record's tag bit clear");
    [id | tag, to.0]
}

/// One record, read in place: the bytes of its header and tour edges. Reads
/// are bounded, never indexed: the store only holds records this process
/// wrote or `Segment::validated` accepted, but the bytes may be off the wire.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordView<'a> {
    bytes: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Path or cycle, and the vertex the tour leaves first.
    fn head(&self) -> (FragmentKind, VertexId) {
        let [word, start] = words_at(self.bytes, 0);
        (unpacked(word).0, VertexId(start))
    }

    /// Number of tour edges.
    pub(crate) fn len(&self) -> usize {
        (self.bytes.len() / 8).saturating_sub(HEADER_WORDS) / EDGE_WORDS
    }

    /// The `i`-th tour edge: `[from, id, to]` are the three words from word
    /// `1 + 2i` on, `from` being `start` or the previous edge's `to`.
    pub(crate) fn edge(&self, i: usize) -> TourEdge {
        let [from, id, to] = words_at(self.bytes, 1 + EDGE_WORDS * i);
        let (from, to) = (VertexId(from), VertexId(to));
        if id & VIRTUAL_TAG == 0 {
            TourEdge::Real { edge: EdgeId(id), from, to }
        } else {
            TourEdge::Virtual { fragment: FragmentId(id ^ VIRTUAL_TAG), from, to }
        }
    }

    /// The tour edges, in order.
    pub(crate) fn edges(self) -> impl Iterator<Item = TourEdge> + Clone + 'a {
        (0..self.len()).map(move |i| self.edge(i))
    }

    /// Decodes the record into `out`, reusing its edge allocation.
    fn read_into(&self, id: FragmentId, out: &mut Fragment) {
        let [word] = words_at(self.bytes, 0);
        let (kind, level, partition, _) = unpacked(word);
        out.id = id;
        out.kind = kind;
        out.level = level;
        out.partition = PartitionId(partition);
        out.edges.clear();
        out.edges.extend(self.edges());
    }
}

/// One stored record, shared with the store that holds it (or, reloaded from
/// the spill file, owned): what Phase 3 walks instead of a copy.
#[derive(Clone, Debug)]
pub(crate) struct Record {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Record {
    /// The record, read in place.
    pub(crate) fn view(&self) -> RecordView<'_> {
        RecordView { bytes: self.buf.get(self.range.clone()).unwrap_or_default() }
    }
}

/// What Phase 3 places the records of one `(level, partition)` by (see the
/// module docs): per record, in sequence order; its virtual edges, record
/// after record; and the cycles' visible vertices, cycle after cycle, in
/// first-seen order — a record is a cycle when it has some.
#[derive(Clone, Debug, Default)]
pub(crate) struct Skeleton {
    pub records: Vec<SkeletonRecord>,
    pub virtuals: Vec<SkeletonVirtual>,
    pub visible: Vec<SkeletonVisible>,
}

/// A record's first tour edge's source, its real tour edges and its entries
/// in [`Skeleton::virtuals`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SkeletonRecord {
    pub start: VertexId,
    pub reals: u32,
    pub virtuals: u32,
}

/// A virtual edge's index among its record's tour edges, the fragment it
/// stands for and the vertex the record's tour enters it at.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SkeletonVirtual {
    pub at: u32,
    pub child: FragmentId,
    pub from: VertexId,
}

/// A visible vertex of the cycle at `record` (its position in the skeleton)
/// and the index of the cycle's first tour edge leaving it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SkeletonVisible {
    pub vertex: VertexId,
    pub record: u32,
    pub at: u32,
}

impl Skeleton {
    /// Notes the next record. Returns its real edges.
    fn push(&mut self, view: RecordView<'_>) -> u32 {
        let (virtuals, (kind, start)) = (self.virtuals.len(), view.head());
        let mut record = SkeletonRecord { start, reals: 0, virtuals: 0 };
        for (at, e) in view.edges().enumerate() {
            match e {
                TourEdge::Real { .. } => record.reals += 1,
                TourEdge::Virtual { fragment, from, .. } => {
                    self.virtuals.push(SkeletonVirtual { at: at as u32, child: fragment, from });
                }
            }
        }
        if kind == FragmentKind::Cycle {
            // A cycle closes, so its sources are its visible vertices.
            let position = self.records.len() as u32;
            let seen = first_seen(view.edges().map(|e| e.from()));
            let visible = seen.into_iter().map(|(vertex, at)| SkeletonVisible { vertex, record: position, at: at as u32 });
            self.visible.extend(visible);
        }
        record.virtuals = (self.virtuals.len() - virtuals) as u32;
        self.records.push(record);
        record.reals
    }
}

/// The coordinates a run of records is sent with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SegmentHead {
    pub level: u32,
    pub partition: PartitionId,
    pub first_seq: u64,
    pub records: u64,
}

/// Bytes a run of records is grown to before the next starts. Phase 1 hands
/// fragments over in runs this size, not a buffer per partition: a spilling
/// store then pages out runs this size, and the allocator recycles buffers
/// this small where a large one is fresh pages every time. The spill file
/// is written in chunks of the same size.
pub(crate) const RUN_BYTES: usize = 1 << 16;

/// A run of consecutive records of one `(level, partition)`, back to back in
/// one shared buffer, with the index of where each starts, built as the run
/// is written or validated: what Phase 1 hands the store, what a worker
/// sends, what the coordinator adopts out of a received payload, and what
/// the store keeps.
#[derive(Clone, Debug)]
pub(crate) struct Segment {
    pub level: u32,
    pub partition: PartitionId,
    buf: Arc<Vec<u8>>,
    /// Byte offset in `buf` of every record, then of the end of the last.
    starts: Vec<usize>,
}

impl Segment {
    /// An empty run for `(level, partition)` with room for `records` records
    /// of `edges` tour edges in all.
    ///
    /// # Panics
    /// When a coordinate does not fit a [`FragmentId`], as `FragmentId::new`.
    pub(crate) fn with_capacity(
        level: u32,
        partition: PartitionId,
        records: usize,
        edges: usize,
    ) -> Self {
        FragmentId::new(level, partition, 0); // refuses coordinates no id can name
        let mut starts = Vec::with_capacity(records + 1);
        starts.push(0);
        let buf = Vec::with_capacity(8 * (HEADER_WORDS * records + EDGE_WORDS * edges));
        Segment { level, partition, buf: Arc::new(buf), starts }
    }

    /// Records in the run.
    pub(crate) fn records(&self) -> usize {
        self.starts.len() - 1
    }

    fn byte_range(&self) -> Range<usize> {
        self.starts[0]..self.starts[self.records()]
    }

    /// The records' bytes, as they are stored and sent.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[self.byte_range()]
    }

    fn record_view(&self, i: usize) -> RecordView<'_> {
        RecordView { bytes: &self.buf[self.starts[i]..self.starts[i + 1]] }
    }

    /// Appends one record: a `kind` fragment whose tour leaves `start` over
    /// `edges`, given as record words (see [`edge_words`]). For the run's
    /// writer: its buffer is not shared yet.
    ///
    /// # Panics
    /// When there are 2³² edges or more: the count does not fit the header.
    pub(crate) fn push_record(&mut self, kind: FragmentKind, start: VertexId, edges: &[[u64; EDGE_WORDS]]) {
        let n = edges.len() as u64;
        assert!(n < 1 << (u64::BITS - COUNT_SHIFT), "a record of {n} tour edges overflows its header");
        let header = [packed_header(kind, self.level, self.partition, n), start.0];
        let buf = Arc::get_mut(&mut self.buf).expect("a run being written is not shared");
        extend_words(buf, &header);
        extend_words(buf, edges.as_flattened());
        self.starts.push(buf.len());
    }

    /// Appends `other`'s records after this run's, in place — if the two
    /// together stay within [`RUN_BYTES`] and this run is the only user of a
    /// buffer that ends where it does. Says whether it did.
    fn try_extend(&mut self, other: &Segment) -> bool {
        let range = self.byte_range();
        if range != (0..self.buf.len()) || range.len() + other.bytes().len() > RUN_BYTES {
            return false;
        }
        let Some(buf) = Arc::get_mut(&mut self.buf) else { return false };
        buf.extend_from_slice(other.bytes());
        self.extend_starts(other);
        true
    }

    /// Indexes `other`'s records after this run's, as if their bytes followed.
    fn extend_starts(&mut self, other: &Segment) {
        let end = self.starts[self.records()];
        self.starts.extend(other.starts[1..].iter().map(|s| s - other.starts[0] + end));
    }

    /// Splits the run after its first `records` records: it keeps those, and
    /// the rest are returned as a run over the same buffer.
    fn split_off(&mut self, records: usize) -> Segment {
        let starts = self.starts.split_off(records);
        self.starts.push(starts[0]);
        Segment { level: self.level, partition: self.partition, buf: Arc::clone(&self.buf), starts }
    }

    /// Moves the run's records into `bytes`, which hold exactly them — in
    /// place of the buffer it held if it was that buffer's only user.
    fn rebuffer(&mut self, bytes: Vec<u8>) {
        let base = self.starts[0];
        self.starts.iter_mut().for_each(|s| *s -= base);
        match Arc::get_mut(&mut self.buf) {
            Some(buf) => *buf = bytes,
            None => self.buf = Arc::new(bytes),
        }
    }

    /// The run over a buffer of exactly its bytes: trimmed to them if it is
    /// the only user of a buffer that starts with them, else copied out.
    fn owned(mut self) -> Segment {
        match Arc::get_mut(&mut self.buf) {
            Some(buf) if self.starts[0] == 0 && self.starts.last() == Some(&buf.len()) => buf.shrink_to_fit(),
            _ => self.rebuffer(self.bytes().to_vec()),
        }
        self
    }

    /// The one record validator: checks that `range` of `buf` holds exactly
    /// the `head.records` records of `head`'s `(level, partition)` and
    /// indexes them where they lie. Every record must carry its segment's
    /// coordinates (its id is its position: the next of the segment), hold
    /// at least one tour edge and no more than the payload does and — a
    /// cycle — close, its last `to` its `start`; every virtual edge must name
    /// a fragment `stored` knows or an earlier record of the run. The chain
    /// form cannot break. Nothing is allocated beyond what the payload bounds
    /// ([`WordReader::cap`]).
    pub(crate) fn validated(
        head: &SegmentHead,
        buf: &Arc<Vec<u8>>,
        range: Range<usize>,
        stored: impl Fn(FragmentId) -> bool,
    ) -> Result<Segment, WireError> {
        let invalid = |what: String| Err(WireError::Invalid(what));
        let (level, partition) = (head.level, head.partition);
        let whose = || format!("level {level} partition {}", partition.0);
        if level >= FragmentId::MAX_LEVELS
            || partition.0 >= FragmentId::MAX_PARTITIONS
            || head.first_seq.saturating_add(head.records) > 1 << ID_SEQ_BITS
        {
            return invalid(format!("segment {head:?} exceeds the fragment id layout"));
        }
        let truncated = WireError::Truncated { at: 0, need: range.end / 8 };
        let r = &mut WordReader::new(buf.get(range.clone()).ok_or(truncated)?)?;
        let records = usize::try_from(head.records).unwrap_or(usize::MAX);
        let mut starts = Vec::with_capacity(r.cap(records, HEADER_WORDS + EDGE_WORDS) + 1);
        for i in 0..head.records {
            starts.push(range.start + 8 * r.position());
            let [word, start] = r.array()?;
            let (kind, at_level, at_partition, n) = unpacked(word);
            if (at_level, at_partition) != (level, partition.0) {
                return invalid(format!(
                    "record of level {at_level} partition {at_partition} is not the next of {}",
                    whose()
                ));
            }
            if n == 0 {
                return invalid(format!("fragment {i} of {} is empty", whose()));
            }
            let mut last = start;
            for [id, to] in r.arrays(usize::try_from(n).unwrap_or(usize::MAX))? {
                last = to;
                if id & VIRTUAL_TAG == 0 {
                    continue;
                }
                let target = FragmentId(id ^ VIRTUAL_TAG);
                let earlier = (target.level(), target.partition()) == (level, partition)
                    && target.seq() < head.first_seq + i;
                if !earlier && !stored(target) {
                    return invalid(format!(
                        "fragment {i} of {} references unknown fragment {target:?}",
                        whose()
                    ));
                }
            }
            if kind == FragmentKind::Cycle && last != start {
                return invalid(format!("cycle {i} of {} does not close", whose()));
            }
        }
        starts.push(range.start + 8 * r.position());
        r.finish()?;
        Ok(Segment { level, partition, buf: Arc::clone(buf), starts })
    }
}

/// Live statistics of a fragment store — the real (not modelled) memory and
/// spill traffic, in the paper's Long units.
///
/// An evicted run counts as spilled from the moment it is staged for the
/// file, so `spill_write_longs = disk_longs − resident_longs` holds at every
/// instant; reading the statistics writes the staged records out first, so a
/// failed write is counted before it is reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentStoreStats {
    /// Longs of fragment payload currently resident in memory, not counting
    /// the at most `RUN_BYTES` of evicted records staged for the file.
    pub resident_longs: u64,
    /// High-water mark of `resident_longs` over the store's lifetime.
    pub peak_resident_longs: u64,
    /// Fragments that live in the spill file.
    pub spilled_fragments: u64,
    /// Longs written to the spill file.
    pub spill_write_longs: u64,
    /// Write calls to the spill file: one per filled staging buffer, plus one
    /// per run too large to stage.
    pub spill_writes: u64,
    /// Longs read back from the spill file: each of Phase 3's two passes
    /// reads it whole (`2 × spill_write_longs` in a pipeline run), a `get`
    /// one record.
    pub spill_read_longs: u64,
    /// Read calls to the spill file: one per write and Phase-3 pass (at most
    /// `2 × spill_writes` in a pipeline run), one per `get` reload.
    pub spill_reads: u64,
    /// Spill I/O failures absorbed by keeping the fragments resident.
    pub spill_errors: u64,
    /// Always 0: the store has one eviction order. Kept because the
    /// end-to-end benchmark package reads the field.
    pub evictions_fifo: u64,
    /// Records paged out to the spill file — every eviction, so this equals
    /// `spilled_fragments`.
    pub evictions_scheduled: u64,
    /// Always 0: nothing simulates another eviction order to compare with.
    /// Kept because the end-to-end benchmark package reads the field.
    pub reload_longs_avoided: u64,
}

/// Configuration of the out-of-core store ([`FragmentStore::spilling`]).
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Resident fragment budget in Longs (a fragment occupies
    /// [`Fragment::disk_longs`] Longs: two per tour edge, two of header). A
    /// run of records is admitted only
    /// once it fits, runs earlier in the eviction order paged out to the
    /// spill file to make room (see [`FragmentStore::spilling`]).
    pub memory_budget_longs: u64,
    /// Directory the spill file is created in (default:
    /// [`std::env::temp_dir`]). The file is unlinked immediately after
    /// creation, so it never outlives the store.
    pub directory: Option<PathBuf>,
}

impl SpillConfig {
    /// A spill configuration with the given resident budget in Longs.
    pub fn with_budget(memory_budget_longs: u64) -> Self {
        SpillConfig { memory_budget_longs, directory: None }
    }

    /// Overrides the spill-file directory (tests use this to provoke and
    /// observe spill I/O failures).
    pub fn in_directory(mut self, directory: impl Into<PathBuf>) -> Self {
        self.directory = Some(directory.into());
        self
    }
}

/// A run's place in the eviction order, first victim first: its first
/// record's lowest level, then highest partition, then lowest seq.
type EvictionKey = (u32, Reverse<u32>, u64);

fn eviction_key(id: FragmentId) -> EvictionKey {
    (id.level(), Reverse(id.partition().0), id.seq())
}

/// Distinguishes concurrently-live spill files of one process.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A run of records the store holds: in memory, or — `spilled_at` set, its
/// buffer dropped, its record starts kept — at that offset of the spill file.
struct Run {
    segment: Segment,
    spilled_at: Option<u64>,
}

/// Where the store's records live: the runs they arrive in, and under a
/// budget a spill file those runs are paged out to as the bytes they are.
/// What it reads back it wrote itself, so reloads are not re-validated.
///
/// Without a budget every run stays resident as the buffer it came in. Under
/// one, a run is admitted whole, owning its bytes, once the resident runs
/// earlier in the eviction order ([`eviction_key`]) are paged out to make
/// room — the last of them split if its first records free enough — or else
/// goes to the file itself: resident Longs never exceed the budget. Evicted
/// runs are staged into one buffer of at most [`RUN_BYTES`], written in one
/// positional write when the next would not fit or before anything is read;
/// a larger run is written alone. A staged run counts as spilled, and joins
/// its group's last run if that was staged right before it. Reading the file
/// back in storage order takes one read per write, a `get` one read.
///
/// A failed write puts the runs it carried back into the resident set,
/// rolls their counters back, counts one
/// [`spill_errors`](FragmentStoreStats::spill_errors) and stops spilling:
/// results are unchanged. A failed reload is the reader's error.
#[derive(Default)]
struct Backing {
    /// Resident fragment budget in Longs; none: every run stays resident.
    budget: Option<u64>,
    directory: PathBuf,
    /// Every run, by the id of its first record: key order is id order.
    runs: BTreeMap<FragmentId, Run>,
    /// The resident runs in eviction order: the first is the next victim.
    resident: BTreeSet<EvictionKey>,
    /// The spilled runs in file order, and where each write to it ended.
    file_order: Vec<FragmentId>,
    file_writes: Vec<u64>,
    /// Staged runs, back to back: what goes to the file at `file_end` next.
    /// Capacity 0 or [`RUN_BYTES`].
    staged: Vec<u8>,
    /// Created at the first write and unlinked right away.
    file: Option<File>,
    file_end: u64,
    /// Set after a spill I/O failure: stop spilling, stay resident.
    broken: bool,
    stats: FragmentStoreStats,
}

impl Backing {
    /// Stores `segment`, whose first record is `first`, after the runs
    /// already held for its `(level, partition)`; under a budget an empty one
    /// is not kept, so no spilled run shares its key.
    fn append(&mut self, first: FragmentId, segment: Segment) {
        let longs = segment.bytes().len() as u64 / 8;
        if let Some(budget) = self.budget {
            if segment.records() == 0 {
                return;
            }
            let over = |b: &Self| b.stats.resident_longs + longs > budget;
            while over(self) && !self.broken {
                let Some(&victim) = self.resident.first().filter(|&&k| k < eviction_key(first)) else { break };
                self.evict(victim, self.stats.resident_longs + longs - budget);
            }
            if let Some(at) = over(self).then(|| self.stage(segment.bytes())).flatten() {
                return self.file_run(first, segment, at);
            }
        }
        // A small run joins the one before it (single pushes share a buffer).
        let last = self.runs.range_mut(..first).next_back();
        let same = |id: &FragmentId| (id.level(), id.partition()) == (first.level(), first.partition());
        if !last.is_some_and(|(id, run)| same(id) && run.spilled_at.is_none() && run.segment.try_extend(&segment)) {
            let segment = if self.budget.is_some() { segment.owned() } else { segment };
            self.runs.insert(first, Run { segment, spilled_at: None });
            self.resident.insert(eviction_key(first));
        }
        self.stats.resident_longs += longs;
        self.stats.peak_resident_longs = self.stats.peak_resident_longs.max(self.stats.resident_longs);
    }

    /// Pages out the resident run `victim`, or just its first records if
    /// they free `need` Longs.
    fn evict(&mut self, victim: EvictionKey, need: u64) {
        let first = FragmentId::new(victim.0, PartitionId(victim.1 .0), victim.2);
        let segment = &self.runs[&first].segment;
        let (n, starts) = (segment.records(), &segment.starts);
        let records = (1..n).find(|&i| (starts[i] - starts[0]) as u64 >= 8 * need).unwrap_or(n);
        let range = starts[0]..starts[records];
        // A clone for the call alone, so emptying the run below frees its buffer.
        let Some(at) = self.stage(&Arc::clone(&segment.buf)[range]) else { return };
        let mut run = self.runs.remove(&first).expect("a resident run is stored");
        self.resident.remove(&victim);
        let rest = run.segment.split_off(records);
        if rest.records() > 0 {
            let rest_first = FragmentId::new(first.level(), first.partition(), first.seq() + records as u64);
            self.runs.insert(rest_first, Run { segment: rest, spilled_at: None });
            self.resident.insert(eviction_key(rest_first));
        }
        self.stats.resident_longs -= run.segment.byte_range().len() as u64 / 8;
        self.file_run(first, run.segment, at);
    }

    /// Keeps `segment` as the run `first`, spilled at `at` — as more of its
    /// group's last run if that one is staged right before it.
    fn file_run(&mut self, first: FragmentId, mut segment: Segment, at: u64) {
        let (records, longs) = (segment.records() as u64, segment.byte_range().len() as u64 / 8);
        self.stats.spilled_fragments += records;
        self.stats.spill_write_longs += longs;
        self.stats.evictions_scheduled += records;
        let staged_before = |(id, run): &(&FragmentId, &mut Run)| {
            (id.level(), id.partition()) == (first.level(), first.partition())
                && run.spilled_at.is_some_and(|a| a >= self.file_end && a + run.segment.byte_range().len() as u64 == at)
        };
        if let Some((_, run)) = self.runs.range_mut(..first).next_back().filter(staged_before) {
            return run.segment.extend_starts(&segment);
        }
        segment.rebuffer(Vec::new());
        self.file_order.push(first);
        self.runs.insert(first, Run { segment, spilled_at: Some(at) });
    }

    /// Stages `bytes` for the file, or writes them alone if they are larger
    /// than a run, and returns where they go; `None` once spilling stopped.
    fn stage(&mut self, bytes: &[u8]) -> Option<u64> {
        if self.staged.len() + bytes.len() > RUN_BYTES {
            self.flush();
        }
        let at = self.file_end + self.staged.len() as u64;
        if self.broken || (bytes.len() > RUN_BYTES && self.write_at_end(bytes).is_err()) {
            return None;
        }
        if bytes.len() <= RUN_BYTES {
            self.staged.reserve_exact(RUN_BYTES - self.staged.len());
            self.staged.extend_from_slice(bytes);
        }
        Some(at)
    }

    /// Appends `bytes` to the spill file in one positional write, opening
    /// the file first if need be; a failure stops spilling.
    fn write_at_end(&mut self, bytes: &[u8]) -> io::Result<()> {
        let write = |b: &mut Self| -> io::Result<()> {
            if b.file.is_none() {
                let seq = SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
                let path = b.directory.join(format!("euler-fragments-{}-{seq}.spill", std::process::id()));
                let file = File::options().read(true).write(true).create_new(true).open(&path)?;
                std::fs::remove_file(&path)?;
                b.file = Some(file);
            }
            b.file.as_ref().expect("just opened").write_all_at(bytes, b.file_end)
        };
        if let Err(e) = write(self) {
            self.stats.spill_errors += 1;
            self.broken = true;
            return Err(e);
        }
        self.file_end += bytes.len() as u64;
        self.file_writes.push(self.file_end);
        self.stats.spill_writes += 1;
        Ok(())
    }

    /// Writes the staged runs to the file in one call. If that fails, they
    /// go back into the resident set.
    fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        let written = self.write_at_end(&staged).is_ok();
        self.staged = staged;
        // After a failure the staged runs are the last filed, past the end.
        while let Some(&first) = self.file_order.last().filter(|_| !written) {
            let run = self.runs.get_mut(&first).expect("a filed run is stored");
            let Some(at) = run.spilled_at.filter(|&at| at >= self.file_end) else { break };
            let (range, at) = (run.segment.byte_range(), (at - self.file_end) as usize);
            run.segment.rebuffer(self.staged[at..at + range.len()].to_vec());
            run.spilled_at = None;
            self.file_order.pop();
            self.resident.insert(eviction_key(first));
            let (records, longs) = (run.segment.records() as u64, range.len() as u64 / 8);
            self.stats.resident_longs += longs;
            self.stats.spilled_fragments -= records;
            self.stats.spill_write_longs -= longs;
            self.stats.evictions_scheduled -= records;
            self.stats.peak_resident_longs = self.stats.peak_resident_longs.max(self.stats.resident_longs);
        }
        self.staged.clear();
    }

    /// The record of a fragment that was pushed, reloaded in one read if it
    /// was paged out; an error if the reload fails.
    fn record(&mut self, id: FragmentId) -> io::Result<Record> {
        self.flush();
        let found = self.runs.range(..=id).next_back().filter(|(first, run)| {
            (first.level(), first.partition()) == (id.level(), id.partition())
                && id.seq() - first.seq() < run.segment.records() as u64
        });
        let (first, run) = found.unwrap_or_else(|| panic!("no fragment {id:?} in the store"));
        let i = (id.seq() - first.seq()) as usize;
        let range = run.segment.starts[i]..run.segment.starts[i + 1];
        let Some(at) = run.spilled_at else { return Ok(Record { buf: Arc::clone(&run.segment.buf), range }) };
        let mut bytes = vec![0; range.len()];
        self.file.as_ref().expect("spilled records imply an open file").read_exact_at(&mut bytes, at + range.start as u64)?;
        self.stats.spill_read_longs += bytes.len() as u64 / 8;
        self.stats.spill_reads += 1;
        Ok(Record { range: 0..bytes.len(), buf: Arc::new(bytes) })
    }

    /// Visits every run in id order, a spilled one read back in one call;
    /// an error if a read fails.
    fn for_each_run(&mut self, mut f: impl FnMut(FragmentId, Segment)) -> io::Result<()> {
        self.flush();
        for (&first, run) in &self.runs {
            let mut segment = run.segment.clone();
            if let Some(at) = run.spilled_at {
                let mut bytes = vec![0; segment.byte_range().len()];
                self.file.as_ref().expect("spilled records imply an open file").read_exact_at(&mut bytes, at)?;
                self.stats.spill_read_longs += bytes.len() as u64 / 8;
                self.stats.spill_reads += 1;
                segment.buf = Arc::new(bytes);
            }
            f(first, segment);
        }
        Ok(())
    }

    /// Visits every record once in the order it is stored in: the resident
    /// runs in id order, then the spill file front to back in the chunks it
    /// was written in; an error if a read fails.
    fn for_each_stored(&mut self, f: &mut dyn FnMut(FragmentId, RecordView<'_>)) -> io::Result<()> {
        self.flush();
        for (&first, run) in self.runs.iter().filter(|(_, run)| run.spilled_at.is_none()) {
            visit(first, &run.segment.starts, &run.segment.buf, f);
        }
        let Some(file) = &self.file else { return Ok(()) };
        let (mut chunk, mut start, mut filed) = (Vec::new(), 0, self.file_order.iter().peekable());
        for &end in &self.file_writes {
            chunk.resize((end - start) as usize, 0);
            file.read_exact_at(&mut chunk, start)?;
            self.stats.spill_reads += 1;
            self.stats.spill_read_longs += (end - start) / 8;
            while let Some(first) = filed.next_if(|first| self.runs[first].spilled_at < Some(end)) {
                let run = &self.runs[first];
                let at = (run.spilled_at.expect("a filed run is spilled") - start) as usize;
                let Some(bytes) = chunk.get(at..at + run.segment.byte_range().len()) else {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "spill file out of step with its runs"));
                };
                visit(*first, &run.segment.starts, bytes, f);
            }
            start = end;
        }
        Ok(())
    }

    /// The statistics, once the staged runs have been written.
    fn stats(&mut self) -> FragmentStoreStats {
        self.flush();
        self.stats
    }
}

/// Visits the records of the run from `first`, at `starts` of `bytes`.
fn visit(first: FragmentId, starts: &[usize], bytes: &[u8], f: &mut dyn FnMut(FragmentId, RecordView<'_>)) {
    for (seq, at) in (first.seq()..).zip(starts.windows(2)) {
        f(FragmentId::new(first.level(), first.partition(), seq), RecordView { bytes: &bytes[at[0]..at[1]] });
    }
}

/// What a reload returned, for the readers whose contract is to panic.
fn reloaded<T>(result: io::Result<T>) -> T {
    result.unwrap_or_else(|e| panic!("a fragment could not be reloaded from the spill file: {e}"))
}

/// Append-only store of fragments, shared across partitions and workers.
///
/// Plays the role of the paper's per-partition disk persistence: writes are
/// cheap and do not count toward partition memory; Phase 3 reads everything
/// back in two passes in storage order, never at random. Records are kept in
/// the runs they arrive in: [`FragmentStore::new`] keeps every run in
/// memory, [`FragmentStore::spilling`] bounds resident fragment memory and
/// pages whole runs out to a temp file (see [`SpillConfig`]). Either way the
/// stored accounting ([`disk_longs`](Self::disk_longs),
/// [`total_real_edges`](Self::total_real_edges)) is exact and identical.
/// The records' skeleton (see the module docs) is kept beside them, outside
/// the fragment budget.
///
/// Ids come from the fragment's own coordinates (see [`FragmentId`]), so
/// concurrent pushes from different partitions never influence each other's
/// ids, and every reader that walks the store by id
/// ([`for_each`](Self::for_each), [`snapshot`](Self::snapshot), the
/// skeleton) sees ascending id order — the push order of a one-thread run —
/// however the pushes interleaved. Phase 3's storage-order passes see an
/// order that can depend on the schedule; what it places does not.
#[derive(Clone, Default)]
pub struct FragmentStore {
    inner: Arc<Mutex<Inner>>,
}

/// What the store's lock guards: the backing and the totals appended to it.
#[derive(Default)]
struct Inner {
    backing: Backing,
    fragments: usize,
    /// The "persisted to disk" Longs: the words of the records.
    disk_longs: u64,
    real_edges: u64,
    /// The records' skeleton by `(level, partition)`: one entry a record.
    skeleton: BTreeMap<(u32, u32), Skeleton>,
}

impl Inner {
    /// Records appended for `(level, partition)` so far — the sequence
    /// number the next one receives.
    fn pushed(&self, level: u32, partition: PartitionId) -> u64 {
        self.skeleton.get(&(level, partition.0)).map_or(0, |s| s.records.len() as u64)
    }

    /// Stores `segment`'s records after those already held for its `(level,
    /// partition)` and returns the sequence number of the first.
    fn append(&mut self, segment: Segment) -> u64 {
        let first = self.pushed(segment.level, segment.partition);
        self.fragments += segment.records();
        self.disk_longs += segment.bytes().len() as u64 / 8;
        let skeleton = self.skeleton.entry((segment.level, segment.partition.0)).or_default();
        for record in (0..segment.records()).map(|i| segment.record_view(i)) {
            self.real_edges += skeleton.push(record) as u64;
        }
        self.backing.append(FragmentId::new(segment.level, segment.partition, first), segment);
        first
    }
}

impl std::fmt::Debug for FragmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut inner = self.inner.lock();
        f.debug_struct("FragmentStore")
            .field("len", &inner.fragments)
            .field("stats", &inner.backing.stats())
            .finish()
    }
}

impl FragmentStore {
    /// Creates an empty store that keeps every run in memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store whose resident fragment memory is bounded by
    /// `config.memory_budget_longs`: the out-of-core mode. Runs that do not
    /// fit page out to a temp file — lowest level first, then highest
    /// partition, then oldest — in 64 KiB writes, and are read back on
    /// demand.
    pub fn spilling(config: SpillConfig) -> Self {
        let directory = config.directory.unwrap_or_else(std::env::temp_dir);
        let backing = Backing { budget: Some(config.memory_budget_longs), directory, ..Default::default() };
        FragmentStore { inner: Arc::new(Mutex::new(Inner { backing, ..Default::default() })) }
    }

    /// Appends a fragment — one record after those of its `(level,
    /// partition)` — assigning and returning its id: the next sequence
    /// number there. The `id` field of the passed fragment is ignored.
    ///
    /// # Panics
    /// When the fragment is not [well formed](Fragment::is_well_formed) (an
    /// unchained tour cannot even be written), an id has bit 63 set (see the
    /// module docs), a coordinate does not fit a [`FragmentId`] or the tour
    /// has 2³² edges or more.
    pub fn push(&self, fragment: Fragment) -> FragmentId {
        let refused = "a fragment whose tour is empty, does not chain or does not close";
        assert!(fragment.is_well_formed(), "{refused}: level {} partition {}", fragment.level, fragment.partition.0);
        let Fragment { kind, level, partition, edges, .. } = fragment;
        let mut segment = Segment::with_capacity(level, partition, 1, edges.len());
        let start = edges.first().map_or(VertexId(0), TourEdge::from);
        segment.push_record(kind, start, &edges.iter().map(edge_words).collect::<Vec<_>>());
        FragmentId::new(level, partition, self.push_segment(segment))
    }

    /// Appends a run of records this process wrote, after those already
    /// stored for their `(level, partition)`; returns the sequence number of
    /// the first, which with its position gives each record its id.
    pub(crate) fn push_segment(&self, segment: Segment) -> u64 {
        #[cfg(debug_assertions)]
        {
            let Segment { level, partition, ref buf, .. } = segment;
            let head = SegmentHead { level, partition, first_seq: 0, records: segment.records() as u64 };
            let checked = Segment::validated(&head, buf, segment.byte_range(), |_| true);
            assert!(checked.is_ok(), "malformed fragment pushed: {checked:?}");
        }
        self.inner.lock().append(segment)
    }

    /// Appends the records of `head` found elsewhere (a worker process), read
    /// in place from `range` of `buf` — which a store without a budget keeps
    /// sharing, not a copy of it — once they pass [`Segment::validated`]: among its checks,
    /// the first record must be the next of its `(level, partition)` and
    /// every virtual edge must reference a fragment already in the store or
    /// earlier in the run.
    pub(crate) fn adopt(
        &self,
        head: &SegmentHead,
        buf: &Arc<Vec<u8>>,
        range: Range<usize>,
    ) -> Result<(), WireError> {
        let mut inner = self.inner.lock();
        let SegmentHead { level, partition, first_seq, .. } = *head;
        if first_seq != inner.pushed(level, partition) {
            return Err(WireError::Invalid(format!(
                "fragment {first_seq} is not the next of level {level} partition {}",
                partition.0
            )));
        }
        let stored = |id: FragmentId| id.seq() < inner.pushed(id.level(), id.partition());
        let segment = Segment::validated(head, buf, range, stored)?;
        inner.append(segment);
        Ok(())
    }

    /// Returns the fragment with the given id, decoded from its record
    /// (reloaded from the spill file if it was paged out).
    ///
    /// # Panics
    /// When no fragment with that id was pushed, or its record was paged out
    /// and cannot be read back.
    pub fn get(&self, id: FragmentId) -> Fragment {
        let mut fragment = Fragment::default();
        reloaded(self.record(id)).view().read_into(id, &mut fragment);
        fragment
    }

    /// The stored record of the fragment with the given id, shared rather
    /// than copied (reloaded from the spill file if it was paged out); an
    /// error when that reload fails.
    ///
    /// # Panics
    /// When no fragment with that id was pushed.
    pub(crate) fn record(&self, id: FragmentId) -> io::Result<Record> {
        self.inner.lock().backing.record(id)
    }

    /// Everything stored, as the runs it is held in, in id order: what a
    /// wire worker sends and checkpoints, as it is.
    ///
    /// # Panics
    /// When a paged-out run cannot be read back.
    pub(crate) fn segments(&self) -> Vec<Segment> {
        let mut runs = Vec::new();
        reloaded(self.inner.lock().backing.for_each_run(|_, run| runs.push(run)));
        runs
    }

    /// Number of fragments stored.
    pub fn len(&self) -> usize {
        self.inner.lock().fragments
    }

    /// True when no fragments are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every fragment, in id order. **Tests and diagnostics
    /// only**: this decodes the whole store (and reloads everything
    /// spilled), so hot paths use [`for_each`](Self::for_each) instead.
    ///
    /// # Panics
    /// When a paged-out record cannot be read back.
    pub fn snapshot(&self) -> Vec<Fragment> {
        let mut all = Vec::with_capacity(self.len());
        self.for_each(|f| all.push(f.clone()));
        all
    }

    /// Visits every fragment in id order under the lock, one at a time,
    /// each decoded into the same scratch — the bounded-memory read path.
    ///
    /// # Panics
    /// When a paged-out record cannot be read back.
    pub fn for_each(&self, mut f: impl FnMut(&Fragment)) {
        let mut scratch = Fragment::default();
        let mut f = |id, record: RecordView<'_>| {
            record.read_into(id, &mut scratch);
            f(&scratch);
        };
        reloaded(self.inner.lock().backing.for_each_run(|first, run| visit(first, &run.starts, &run.buf, &mut f)));
    }

    /// Runs `f` over the records' skeleton, `(level, partition)` ascending.
    pub(crate) fn with_skeleton<T>(&self, f: impl FnOnce(&BTreeMap<(u32, u32), Skeleton>) -> T) -> T {
        f(&self.inner.lock().skeleton)
    }

    /// Visits every record once, under the lock, in the order it is stored
    /// in: the resident runs in id order, then the spill file front to back;
    /// an error when a read fails.
    pub(crate) fn for_each_stored(&self, mut f: impl FnMut(FragmentId, RecordView<'_>)) -> io::Result<()> {
        self.inner.lock().backing.for_each_stored(&mut f)
    }

    /// Total Longs written to "disk": the words of the stored records, two
    /// per tour edge and two per record, on every backing.
    pub fn disk_longs(&self) -> u64 {
        self.inner.lock().disk_longs
    }

    /// Total number of *real* edges recorded across all fragments. When the
    /// run is complete this must equal the number of graph edges.
    pub fn total_real_edges(&self) -> u64 {
        self.inner.lock().real_edges
    }

    /// Real memory/spill statistics of the store. Writes any staged
    /// evictions to the spill file first.
    pub fn stats(&self) -> FragmentStoreStats {
        self.inner.lock().backing.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

        let cycle = Fragment {
            kind: FragmentKind::Cycle,
            edges: vec![real(0, 1, 2), real(1, 2, 1)],
            ..path
        };
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
        assert_eq!(store.get(FragmentId::new(1, PartitionId(3), 2)), Fragment {
            id: FragmentId::new(1, PartitionId(3), 2),
            ..back(1)
        });
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
        assert!(matches!(patched(0, header(FragmentKind::Path, 2, 1, u32::MAX as u64)), Err(WireError::Truncated { .. })));
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
                            let below = FragmentId::new(
                                ((i - 1) % 4) as u32,
                                PartitionId(((i - 1) % 5) as u32),
                                (i - 1) / 20,
                            );
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
        let broken = FragmentStore::spilling(
            SpillConfig::with_budget(8).in_directory("/nonexistent/euler/spill/dir"),
        );
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
        let fragments: Vec<Fragment> =
            (0..20).map(|i| append_to(&mut backing, &path_of(10 * i, 1 + i % 4))).collect();
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
        assert_eq!(
            spill.stats().spill_read_longs,
            reads_before,
            "the splice index must not touch spilled payloads"
        );
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
