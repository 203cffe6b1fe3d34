//! The record: the one stored form of a fragment — its layout and readers,
//! the `Segment` runs records arrive and are kept in, the validator, and the
//! skeleton Phase 3 places records by.

use super::tour::{first_seen, ID_LEVEL_BITS, ID_PARTITION_BITS, ID_SEQ_BITS};
use super::*;

/// Words of a record's `[packed, start]` header.
pub(super) const HEADER_WORDS: usize = 2;
/// Words of one tour edge in a record: `[id, to]`.
pub(super) const EDGE_WORDS: usize = 2;
/// Bit 63 of a tour edge's id word: set when the id is a [`FragmentId`].
pub(super) const VIRTUAL_TAG: u64 = 1 << 63;
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
    pub(super) bytes: &'a [u8],
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
    pub(super) fn read_into(&self, id: FragmentId, out: &mut Fragment) {
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
    pub(super) buf: Arc<Vec<u8>>,
    pub(super) range: Range<usize>,
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
    pub(super) fn push(&mut self, view: RecordView<'_>) -> u32 {
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
            let visible =
                seen.into_iter().map(|(vertex, at)| SkeletonVisible { vertex, record: position, at: at as u32 });
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
    pub(super) buf: Arc<Vec<u8>>,
    /// Byte offset in `buf` of every record, then of the end of the last.
    pub(super) starts: Vec<usize>,
}

impl Segment {
    /// An empty run for `(level, partition)` with room for `records` records
    /// of `edges` tour edges in all.
    ///
    /// # Panics
    /// When a coordinate does not fit a [`FragmentId`], as `FragmentId::new`.
    pub(crate) fn with_capacity(level: u32, partition: PartitionId, records: usize, edges: usize) -> Self {
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

    pub(super) fn byte_range(&self) -> Range<usize> {
        self.starts[0]..self.starts[self.records()]
    }

    /// The records' bytes, as they are stored and sent.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[self.byte_range()]
    }

    pub(super) fn record_view(&self, i: usize) -> RecordView<'_> {
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
    pub(super) fn try_extend(&mut self, other: &Segment) -> bool {
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
    pub(super) fn extend_starts(&mut self, other: &Segment) {
        let end = self.starts[self.records()];
        self.starts.extend(other.starts[1..].iter().map(|s| s - other.starts[0] + end));
    }

    /// Splits the run after its first `records` records: it keeps those, and
    /// the rest are returned as a run over the same buffer.
    pub(super) fn split_off(&mut self, records: usize) -> Segment {
        let starts = self.starts.split_off(records);
        self.starts.push(starts[0]);
        Segment { level: self.level, partition: self.partition, buf: Arc::clone(&self.buf), starts }
    }

    /// Moves the run's records into `bytes`, which hold exactly them — in
    /// place of the buffer it held if it was that buffer's only user.
    pub(super) fn rebuffer(&mut self, bytes: Vec<u8>) {
        let base = self.starts[0];
        self.starts.iter_mut().for_each(|s| *s -= base);
        match Arc::get_mut(&mut self.buf) {
            Some(buf) => *buf = bytes,
            None => self.buf = Arc::new(bytes),
        }
    }

    /// The run over a buffer of exactly its bytes: trimmed to them if it is
    /// the only user of a buffer that starts with them, else copied out.
    pub(super) fn owned(mut self) -> Segment {
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
                let earlier =
                    (target.level(), target.partition()) == (level, partition) && target.seq() < head.first_seq + i;
                if !earlier && !stored(target) {
                    return invalid(format!("fragment {i} of {} references unknown fragment {target:?}", whose()));
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
