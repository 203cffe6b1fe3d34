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
//! Where the fragments physically live is a seam (`FragmentBacking`) behind
//! the store: the default backing keeps every fragment in an in-memory slab;
//! [`FragmentStore::spilling`] bounds resident fragment memory by a
//! [`SpillConfig::memory_budget_longs`] and pages the coldest fragments out
//! to a temp file, reloading them on demand during Phase 3 — the out-of-core
//! mode for circuits larger than memory. Both backings keep the modelled
//! [`disk_longs`](FragmentStore::disk_longs) accounting exact and produce
//! bit-identical circuits; the spill backing additionally reports its real
//! traffic in [`FragmentStoreStats`].

use euler_bsp::wire::{WireError, WordReader, WordWriter};
use euler_graph::{EdgeId, LocalIndex, PartitionId, VertexId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
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
const ID_LEVEL_BITS: u32 = 64 - ID_SEQ_BITS - ID_PARTITION_BITS;

impl FragmentId {
    /// Merge levels an id can name (a tree over 2²⁴ partitions has 25).
    pub const MAX_LEVELS: u32 = 1 << ID_LEVEL_BITS;
    /// Partition ids an id can name.
    pub const MAX_PARTITIONS: u32 = 1 << ID_PARTITION_BITS;

    /// The id of the `seq`-th fragment `partition` pushed at `level`.
    ///
    /// # Panics
    /// When a coordinate does not fit its field (8 bits of level, 24 of
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

    /// True for [`TourEdge::Real`].
    pub fn is_real(&self) -> bool {
        matches!(self, TourEdge::Real { .. })
    }
}

/// Whether a fragment is an open path (OB-pair) or a closed cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FragmentKind {
    /// Maximal local path between two odd-degree boundary vertices.
    Path,
    /// Local cycle anchored at (starting and ending at) one vertex.
    Cycle,
}

/// A path or cycle found by Phase 1.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

    /// All distinct vertices that appear as tour-edge endpoints, in first-seen
    /// order. These are the "visible" vertices at this fragment's granularity
    /// (vertices interior to nested virtual edges are not included).
    /// De-duplication runs over an interned slot bitmap rather than a hash
    /// set.
    pub fn visible_vertices(&self) -> Vec<VertexId> {
        let index =
            LocalIndex::from_vertices(self.edges.iter().flat_map(|e| [e.from(), e.to()]));
        let mut seen: Vec<bool> = index.zeroed();
        let mut out = Vec::with_capacity(index.len());
        for e in &self.edges {
            for v in [e.from(), e.to()] {
                let s = index.slot(v).expect("endpoint interned") as usize;
                if !seen[s] {
                    seen[s] = true;
                    out.push(v);
                }
            }
        }
        out
    }

    /// Checks the internal chaining invariant: consecutive tour edges share a
    /// vertex and (for cycles) the fragment closes.
    pub fn is_well_formed(&self) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        for w in self.edges.windows(2) {
            if w[0].to() != w[1].from() {
                return false;
            }
        }
        match self.kind {
            FragmentKind::Cycle => self.start() == self.end(),
            FragmentKind::Path => true,
        }
    }

    /// Number of Longs the fragment occupies *on disk* (not in partition
    /// memory): kind/level/partition header plus 3 per tour edge.
    pub fn disk_longs(&self) -> u64 {
        4 + 3 * self.edges.len() as u64
    }
}

/// Live statistics of a fragment store's backing — the real (not modelled)
/// memory and spill traffic, in the paper's Long units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentStoreStats {
    /// Longs of fragment payload currently resident in memory.
    pub resident_longs: u64,
    /// High-water mark of `resident_longs` over the store's lifetime.
    pub peak_resident_longs: u64,
    /// Fragments whose current version lives in the spill file.
    pub spilled_fragments: u64,
    /// Longs written to the spill file (superseded versions included).
    pub spill_write_longs: u64,
    /// Longs read back from the spill file (Phase-3 reload traffic).
    pub spill_read_longs: u64,
    /// Spill I/O failures absorbed by keeping the fragment resident.
    pub spill_errors: u64,
    /// Longs of superseded `replace` records currently dead in the spill
    /// file — exactly the free extents awaiting reuse. Every file Long is
    /// either part of a live record or counted here, so
    /// `spill_file_longs == live record Longs + dead_longs` at all times.
    pub dead_longs: u64,
    /// Current spill-file extent in Longs (file bytes / 8). Bounded under
    /// replace-heavy traffic because superseded records are reused through
    /// the free list instead of growing the file monotonically.
    pub spill_file_longs: u64,
    /// Evictions decided by push order (no [`ReadSchedule`] supplied).
    pub evictions_fifo: u64,
    /// Evictions decided by the merge-tree read schedule (farthest next
    /// reader first).
    pub evictions_scheduled: u64,
    /// Longs of reload traffic the schedule saved versus plain FIFO: reads
    /// that hit a resident fragment which a FIFO store with the same budget
    /// and push/replace history would already have paged out. Maintained by
    /// an exact shadow simulation of the FIFO policy; only meaningful (and
    /// only nonzero) when a schedule is set.
    pub reload_longs_avoided: u64,
}

/// When each fragment will next be read back, keyed by the `(level,
/// partition)` it was pushed under — both are known at push time, and the
/// merge tree statically determines the consuming side. The pipeline derives
/// one from the [`MergeTree`](crate::merge_tree::MergeTree) and hands it to
/// spill-backed stores ([`FragmentStore::set_read_schedule`]) so eviction can
/// page out the fragment whose reader is *farthest* in the future
/// (Belady-style) instead of the oldest one.
///
/// "Read steps" are an arbitrary monotone clock: the pipeline announces the
/// current step with [`FragmentStore::begin_read_step`], and fragments whose
/// scheduled step equals the current one are pinned (evicted only when the
/// budget cannot be met any other way, preserving the peak-resident bound).
#[derive(Clone, Debug, Default)]
pub struct ReadSchedule {
    steps: HashMap<(u32, u32), u64>,
    default_step: u64,
}

impl ReadSchedule {
    /// A schedule where unmapped `(level, partition)` keys read at
    /// `default_step`.
    pub fn new(default_step: u64) -> Self {
        ReadSchedule { steps: HashMap::new(), default_step }
    }

    /// Declares that fragments pushed at `(level, partition)` are next read
    /// at `step`.
    pub fn set(&mut self, level: u32, partition: PartitionId, step: u64) {
        self.steps.insert((level, partition.0), step);
    }

    /// The read step for fragments pushed at `(level, partition)`.
    pub fn step_for(&self, level: u32, partition: PartitionId) -> u64 {
        self.steps.get(&(level, partition.0)).copied().unwrap_or(self.default_step)
    }
}

/// Configuration of the out-of-core spill backing
/// ([`FragmentStore::spilling`]).
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Resident fragment budget in Longs (a fragment occupies
    /// [`Fragment::disk_longs`] Longs). When the resident set exceeds the
    /// budget, the coldest (oldest) fragments are paged out to the spill
    /// file until it fits again.
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

/// The storage seam behind [`FragmentStore`]: where fragments physically
/// live. Implementations own the accounting so the store can answer
/// [`disk_longs`](FragmentStore::disk_longs) /
/// [`total_real_edges`](FragmentStore::total_real_edges) without touching
/// the fragments, and keep their fragments in a [`SegmentMap`], which is
/// what assigns ids and fixes the iteration order.
trait FragmentBacking: Send {
    /// Stores `fragment`, which has `reals` real edges (counted by the
    /// caller, outside the store's lock), under the next id of its `(level,
    /// partition)`.
    fn push(&mut self, fragment: Fragment, reals: u64) -> FragmentId;
    /// Fragments pushed at `(level, partition)` so far.
    fn pushed(&self, level: u32, partition: PartitionId) -> u64;
    fn get(&mut self, id: FragmentId) -> Fragment;
    fn replace(&mut self, id: FragmentId, fragment: Fragment);
    fn len(&self) -> usize;
    /// Every fragment as one contiguous slab, when the backing has that
    /// (the memory backing while all fragments share one `(level,
    /// partition)`) — what makes [`FragmentStore::with_all`] zero-copy there.
    fn as_slice(&self) -> Option<&[Fragment]>;
    /// Visits every fragment in id order. Spilled fragments are decoded into
    /// a scratch buffer one at a time; nothing is retained.
    fn for_each(&mut self, f: &mut dyn FnMut(&Fragment));
    fn cycle_ids(&self) -> Vec<FragmentId>;
    /// `(visible vertex, cycle id)` pairs over every cycle fragment, cycles
    /// in id order and vertices in first-seen order within each — the
    /// Phase-3 splice index. Answered without touching spilled payloads:
    /// backings capture the vertex lists at `push`/`replace` time, while the
    /// fragment is still resident.
    fn cycle_vertex_pairs(&self) -> Vec<(VertexId, FragmentId)>;
    fn disk_longs(&self) -> u64;
    fn total_real_edges(&self) -> u64;
    fn stats(&self) -> FragmentStoreStats;
    /// Installs a next-reader schedule. Backings without an eviction policy
    /// (the in-memory slab) ignore it.
    fn set_read_schedule(&mut self, _schedule: ReadSchedule) {}
    /// Announces the current read step of the schedule's clock; fragments
    /// scheduled for this step become pinned. Ignored without a schedule.
    fn begin_read_step(&mut self, _step: u64) {}
}

/// Shared bookkeeping of both backings: the modelled "persisted to disk"
/// Long count and the real-edge tally, maintained exactly across
/// `push`/`replace`.
#[derive(Debug, Default)]
struct Accounting {
    disk_longs: u64,
    real_edges: u64,
}

impl Accounting {
    fn add(&mut self, f: &Fragment, reals: u64) {
        self.disk_longs += f.disk_longs();
        self.real_edges += reals;
    }

    fn remove(&mut self, f: &Fragment) {
        self.disk_longs -= f.disk_longs();
        self.real_edges -= real_edges(f);
    }
}

/// Real (non-virtual) edges of `f`: one scan of its tour.
fn real_edges(f: &Fragment) -> u64 {
    f.edges.iter().filter(|e| e.is_real()).count() as u64
}

/// Append-only table addressed by [`FragmentId`]: one run of entries per
/// `(level, partition)` segment, in push-sequence order. This is the one
/// place an id is resolved to storage.
///
/// Pushes may arrive in any interleaving of partitions. An entry's id and
/// position depend on its own segment's pushes alone, and iteration is in
/// ascending id order — the push order of a sequential run — whatever the
/// arrival order was.
#[derive(Debug)]
struct SegmentMap<T> {
    segments: BTreeMap<(u32, u32), Vec<T>>,
    len: usize,
}

impl<T> Default for SegmentMap<T> {
    fn default() -> Self {
        SegmentMap { segments: BTreeMap::new(), len: 0 }
    }
}

impl<T> SegmentMap<T> {
    /// Entries pushed at `(level, partition)` so far — the sequence number
    /// the next one receives.
    fn pushed(&self, level: u32, partition: PartitionId) -> u64 {
        self.segments.get(&(level, partition.0)).map_or(0, |s| s.len() as u64)
    }

    /// Appends the entry `make` builds for the next id of `(level,
    /// partition)`.
    fn push(
        &mut self,
        level: u32,
        partition: PartitionId,
        make: impl FnOnce(FragmentId) -> T,
    ) -> FragmentId {
        let id = FragmentId::new(level, partition, self.pushed(level, partition));
        self.segments.entry((level, partition.0)).or_default().push(make(id));
        self.len += 1;
        id
    }

    fn get(&self, id: FragmentId) -> Option<&T> {
        self.segments.get(&(id.level(), id.partition().0))?.get(id.seq() as usize)
    }

    /// The entry of a fragment that was pushed.
    fn at(&self, id: FragmentId) -> &T {
        self.get(id).unwrap_or_else(|| panic!("no fragment {id:?} in the store"))
    }

    fn at_mut(&mut self, id: FragmentId) -> &mut T {
        self.segments
            .get_mut(&(id.level(), id.partition().0))
            .and_then(|s| s.get_mut(id.seq() as usize))
            .unwrap_or_else(|| panic!("no fragment {id:?} in the store"))
    }

    /// Every entry, in ascending id order.
    fn values(&self) -> impl Iterator<Item = &T> {
        self.segments.values().flatten()
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.segments.values_mut().flatten()
    }
}

/// The default backing: every fragment lives in memory.
#[derive(Debug, Default)]
struct MemoryBacking {
    frags: SegmentMap<Fragment>,
    accounting: Accounting,
    peak_longs: u64,
}

impl FragmentBacking for MemoryBacking {
    fn push(&mut self, mut fragment: Fragment, reals: u64) -> FragmentId {
        self.accounting.add(&fragment, reals);
        self.peak_longs = self.peak_longs.max(self.accounting.disk_longs);
        self.frags.push(fragment.level, fragment.partition, |id| {
            fragment.id = id;
            fragment
        })
    }

    fn pushed(&self, level: u32, partition: PartitionId) -> u64 {
        self.frags.pushed(level, partition)
    }

    fn get(&mut self, id: FragmentId) -> Fragment {
        self.frags.at(id).clone()
    }

    fn replace(&mut self, id: FragmentId, mut fragment: Fragment) {
        fragment.id = id;
        let slot = self.frags.at_mut(id);
        self.accounting.remove(slot);
        self.accounting.add(&fragment, real_edges(&fragment));
        self.peak_longs = self.peak_longs.max(self.accounting.disk_longs);
        *slot = fragment;
    }

    fn len(&self) -> usize {
        self.frags.len
    }

    fn as_slice(&self) -> Option<&[Fragment]> {
        match self.frags.segments.len() {
            0 => Some(&[]),
            1 => self.frags.segments.values().next().map(Vec::as_slice),
            _ => None,
        }
    }

    fn for_each(&mut self, f: &mut dyn FnMut(&Fragment)) {
        for frag in self.frags.values() {
            f(frag);
        }
    }

    fn cycle_ids(&self) -> Vec<FragmentId> {
        self.frags.values().filter(|f| f.kind == FragmentKind::Cycle).map(|f| f.id).collect()
    }

    fn cycle_vertex_pairs(&self) -> Vec<(VertexId, FragmentId)> {
        // Everything is resident, so the pairs are computed straight off the
        // fragments; no captured lists needed.
        let mut pairs = Vec::new();
        for f in self.frags.values() {
            if f.kind == FragmentKind::Cycle {
                for v in f.visible_vertices() {
                    pairs.push((v, f.id));
                }
            }
        }
        pairs
    }

    fn disk_longs(&self) -> u64 {
        self.accounting.disk_longs
    }

    fn total_real_edges(&self) -> u64 {
        self.accounting.real_edges
    }

    fn stats(&self) -> FragmentStoreStats {
        FragmentStoreStats {
            resident_longs: self.accounting.disk_longs,
            peak_resident_longs: self.peak_longs,
            ..Default::default()
        }
    }
}

/// Where a spill-backed fragment's current version lives.
#[derive(Clone, Copy, Debug)]
enum Loc {
    Resident,
    Spilled {
        offset: u64,
        words: u64,
    },
}

/// Per-fragment index entry of the spill backing: enough to answer size
/// and accounting queries without touching the payload.
#[derive(Clone, Copy, Debug)]
struct SlotMeta {
    id: FragmentId,
    longs: u64,
    reals: u64,
    loc: Loc,
    /// Merge level the current version was pushed/replaced under — the
    /// schedule key, kept so a late [`ReadSchedule`] can still be applied.
    level: u32,
    /// Partition id the current version was pushed/replaced under.
    partition: u32,
    /// Scheduled read step of the current version (0 without a schedule).
    next_read: u64,
    /// Current eviction key: `next_read`, or `u64::MAX` once the scheduled
    /// read has passed (an overdue fragment will not be read again, so it is
    /// the best possible victim). Heap entries carry the key they were
    /// pushed with; a mismatch marks them stale (lazy deletion).
    evict_key: u64,
    /// Push sequence number — the FIFO tie-break among equal eviction keys.
    seq: u64,
}

/// An eviction candidate in the scheduled-mode max-heap: farthest
/// `key` first, oldest `seq` first among equals (FIFO tie-break).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EvictEntry {
    key: u64,
    seq: u64,
    id: u64,
}

impl Ord for EvictEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, std::cmp::Reverse(self.seq), self.id).cmp(&(
            other.key,
            std::cmp::Reverse(other.seq),
            other.id,
        ))
    }
}

impl PartialOrd for EvictEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Words in the record [`encode_fragment`] writes for a fragment of `edges`
/// tour edges.
pub(crate) fn fragment_record_words(edges: usize) -> usize {
    4 + 4 * edges
}

/// Flat `u64` record of one fragment in the spill file:
/// `[kind, level, partition, n]` then `n` tour edges of
/// `[tag, id, from, to]` (tag 0 = real, 1 = virtual). The id is not stored —
/// the index knows it. The distributed worker reuses this record as its
/// checkpoint/shipping format for fragments, hence the crate visibility.
pub(crate) fn encode_fragment(f: &Fragment, out: &mut WordWriter) {
    out.reserve(fragment_record_words(f.edges.len()));
    let kind = match f.kind {
        FragmentKind::Path => 0,
        FragmentKind::Cycle => 1,
    };
    out.words(&[kind, f.level as u64, f.partition.0 as u64, f.edges.len() as u64]);
    for e in &f.edges {
        match *e {
            TourEdge::Real { edge, from, to } => out.words(&[0, edge.0, from.0, to.0]),
            TourEdge::Virtual { fragment, from, to } => out.words(&[1, fragment.0, from.0, to.0]),
        }
    }
}

/// Decodes one [`encode_fragment`] record, which must fill `r` exactly.
pub(crate) fn decode_fragment(
    id: FragmentId,
    r: &mut WordReader<'_>,
) -> Result<Fragment, WireError> {
    let [kind, level, partition] = r.array()?;
    let kind = match kind {
        0 => FragmentKind::Path,
        1 => FragmentKind::Cycle,
        t => return Err(WireError::Invalid(format!("unknown fragment kind tag {t}"))),
    };
    let n = r.count()?;
    let mut edges = Vec::with_capacity(r.cap(n, 4));
    for _ in 0..n {
        let [tag, id, from, to] = r.array()?;
        let (from, to) = (VertexId(from), VertexId(to));
        edges.push(match tag {
            0 => TourEdge::Real { edge: EdgeId(id), from, to },
            1 => TourEdge::Virtual { fragment: FragmentId(id), from, to },
            t => return Err(WireError::Invalid(format!("unknown tour edge tag {t}"))),
        });
    }
    r.finish()?;
    Ok(Fragment { id, kind, level: level as u32, partition: PartitionId(partition as u32), edges })
}

/// Distinguishes concurrently-live spill files of one process.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The out-of-core backing: a bounded resident set plus a spill file.
///
/// Eviction runs in one of two modes. Without a [`ReadSchedule`] it is
/// oldest-first (push order): low-level fragments are the ones Phase 3
/// reaches last, so they go cold first. With a schedule installed it is
/// Belady-style: the victim is the resident fragment whose scheduled next
/// reader is *farthest* in the future (overdue fragments — scheduled step
/// already passed — rank as "never read again" and go first), with push
/// order as the tie-break; fragments whose reader is the *current* step are
/// pinned and only evicted when nothing else can satisfy the budget, so the
/// peak-resident bound (budget + one fragment) holds unconditionally. A
/// shadow simulation of the FIFO policy runs alongside the scheduled mode
/// to account [`FragmentStoreStats::reload_longs_avoided`] exactly.
///
/// A spill I/O failure is absorbed, not propagated — the fragment stays
/// resident, the failure is counted in
/// [`FragmentStoreStats::spill_errors`] and no further spilling is
/// attempted, so an interrupted spill degrades to the in-memory backing
/// with identical results.
/// One reusable extent of the spill file: a superseded record's former
/// location.
#[derive(Clone, Copy, Debug)]
struct FreeExtent {
    /// Byte offset into the spill file.
    offset: u64,
    /// Extent length in words (Longs).
    words: u64,
}

struct SpillBacking {
    budget_longs: u64,
    directory: PathBuf,
    index: SegmentMap<SlotMeta>,
    /// Visible-vertex lists of the cycle fragments, captured while each was
    /// resident — the Phase-3 splice index, answered without re-reading
    /// spilled payloads.
    cycle_vis: BTreeMap<FragmentId, Vec<VertexId>>,
    /// Resident fragments by id.
    resident: HashMap<u64, Fragment>,
    /// Resident ids, oldest first — the eviction order of the FIFO mode.
    fifo: VecDeque<u64>,
    /// Merge-tree read schedule; `None` means FIFO mode.
    schedule: Option<ReadSchedule>,
    /// The schedule clock's current read step.
    current_step: u64,
    /// Next push sequence number (FIFO tie-break in scheduled mode).
    next_seq: u64,
    /// Scheduled-mode eviction candidates, farthest next reader on top.
    /// Entries whose `(key, seq)` no longer match the slot's meta, or whose
    /// fragment is not resident, are stale and skipped on pop.
    heap: BinaryHeap<EvictEntry>,
    /// Shadow FIFO simulation (scheduled mode only): which fragments a
    /// plain FIFO store with the same budget and push/replace history would
    /// still have resident. A read that hits resident here but shadow-
    /// spilled is a reload the schedule avoided.
    shadow_fifo: VecDeque<u64>,
    shadow_resident: HashMap<u64, u64>,
    shadow_longs: u64,
    /// Created lazily on first eviction; unlinked right after creation.
    file: Option<File>,
    file_end: u64,
    /// Extents of superseded (`replace`d) records, available for reuse —
    /// what keeps the spill file from growing monotonically under heavy
    /// replace traffic. Word-granular; adjacent extents are coalesced.
    free: Vec<FreeExtent>,
    /// Set after a spill I/O failure: stop spilling, stay resident.
    broken: bool,
    accounting: Accounting,
    stats: FragmentStoreStats,
    /// Reusable encode/IO scratch.
    /// Scratch buffers of `write_record` / `read_record`, kept for their
    /// allocations.
    record: WordWriter,
    bytes: Vec<u8>,
}

impl SpillBacking {
    fn new(config: SpillConfig) -> Self {
        SpillBacking {
            budget_longs: config.memory_budget_longs,
            directory: config.directory.unwrap_or_else(std::env::temp_dir),
            index: SegmentMap::default(),
            cycle_vis: BTreeMap::new(),
            resident: HashMap::new(),
            fifo: VecDeque::new(),
            schedule: None,
            current_step: 0,
            next_seq: 0,
            heap: BinaryHeap::new(),
            shadow_fifo: VecDeque::new(),
            shadow_resident: HashMap::new(),
            shadow_longs: 0,
            file: None,
            file_end: 0,
            free: Vec::new(),
            broken: false,
            accounting: Accounting::default(),
            stats: FragmentStoreStats::default(),
            record: WordWriter::new(),
            bytes: Vec::new(),
        }
    }

    /// Opens the spill file on first use. The path is unlinked immediately
    /// (the open handle keeps the data), so nothing leaks past the store.
    fn file(&mut self) -> std::io::Result<&mut File> {
        if self.file.is_none() {
            let path = self.directory.join(format!(
                "euler-fragments-{}-{}.spill",
                std::process::id(),
                SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let file = File::options().read(true).write(true).create_new(true).open(&path)?;
            std::fs::remove_file(&path)?;
            self.file = Some(file);
        }
        Ok(self.file.as_mut().expect("just created"))
    }

    /// Returns a superseded record's extent to the free list, coalescing
    /// with adjacent free extents. The space stays in the file (and in
    /// [`FragmentStoreStats::dead_longs`]) until a later record reuses it.
    fn free_record(&mut self, mut offset: u64, mut words: u64) {
        self.stats.dead_longs += words;
        loop {
            if let Some(i) = self.free.iter().position(|e| e.offset + 8 * e.words == offset) {
                let e = self.free.swap_remove(i);
                offset = e.offset;
                words += e.words;
            } else if let Some(i) = self.free.iter().position(|e| e.offset == offset + 8 * words) {
                let e = self.free.swap_remove(i);
                words += e.words;
            } else {
                break;
            }
        }
        self.free.push(FreeExtent { offset, words });
    }

    /// Best-fit allocation from the free list: the smallest free extent that
    /// holds `words`, shrunk or consumed. `None` means the record appends at
    /// the end of the file instead.
    fn alloc_extent(&mut self, words: u64) -> Option<u64> {
        let i = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, e)| e.words >= words)
            .min_by_key(|(_, e)| e.words)
            .map(|(i, _)| i)?;
        let e = &mut self.free[i];
        let offset = e.offset;
        if e.words == words {
            self.free.swap_remove(i);
        } else {
            e.offset += 8 * words;
            e.words -= words;
        }
        self.stats.dead_longs -= words;
        Some(offset)
    }

    /// Writes `fragment`'s record into the spill file — into a reused free
    /// extent when one fits, else appended at the end — returning its
    /// location.
    fn write_record(&mut self, fragment: &Fragment) -> std::io::Result<Loc> {
        let mut record = std::mem::take(&mut self.record);
        record.clear();
        encode_fragment(fragment, &mut record);
        let bytes = record.as_bytes();
        let need = record.len() as u64;
        let reused = self.alloc_extent(need);
        let offset = reused.unwrap_or(self.file_end);
        let out = (|| {
            let file = self.file()?;
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(bytes)?;
            Ok(Loc::Spilled { offset, words: need })
        })();
        match (&out, reused) {
            (Ok(_), None) => {
                self.file_end += bytes.len() as u64;
                self.stats.spill_file_longs = self.file_end / 8;
            }
            (Ok(_), Some(_)) => {}
            // A failed write into a reused extent leaves no valid record
            // there; the extent goes back on the free list.
            (Err(_), Some(o)) => self.free_record(o, need),
            (Err(_), None) => {}
        }
        self.record = record;
        out
    }

    /// Reads the record at `loc` back into a fragment.
    fn read_record(&mut self, id: FragmentId, offset: u64, words: u64) -> Fragment {
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes.resize(8 * words as usize, 0);
        {
            let file = self.file.as_mut().expect("spilled records imply an open file");
            file.seek(SeekFrom::Start(offset)).expect("spill file seek");
            file.read_exact(&mut bytes).expect("spill file read");
        }
        let fragment = WordReader::new(&bytes)
            .and_then(|mut r| decode_fragment(id, &mut r))
            .expect("spill record written by this store");
        self.bytes = bytes;
        fragment
    }

    /// Makes `fragment` resident (newest) and re-balances under the budget.
    fn insert_resident(&mut self, fragment: Fragment) {
        let id = fragment.id.0;
        let longs = fragment.disk_longs();
        self.resident.insert(id, fragment);
        if self.schedule.is_some() {
            let m = self.index.at(FragmentId(id));
            self.heap.push(EvictEntry { key: m.evict_key, seq: m.seq, id });
        } else {
            self.fifo.push_back(id);
        }
        self.stats.resident_longs += longs;
        self.stats.peak_resident_longs =
            self.stats.peak_resident_longs.max(self.stats.resident_longs);
        self.shadow_insert(id, longs);
        self.evict();
    }

    /// Pages fragments out until the resident set fits the budget, by push
    /// order (FIFO mode) or farthest next reader (scheduled mode).
    fn evict(&mut self) {
        if self.schedule.is_some() {
            self.evict_scheduled();
        } else {
            self.evict_fifo();
        }
    }

    /// FIFO mode: spills oldest-first.
    fn evict_fifo(&mut self) {
        while self.stats.resident_longs > self.budget_longs && !self.broken {
            let Some(id) = self.fifo.pop_front() else { break };
            let fragment = self.resident.remove(&id).expect("fifo ids are resident");
            match self.write_record(&fragment) {
                Ok(loc) => {
                    let longs = fragment.disk_longs();
                    self.index.at_mut(FragmentId(id)).loc = loc;
                    self.stats.resident_longs -= longs;
                    self.stats.spilled_fragments += 1;
                    self.stats.spill_write_longs += longs;
                    self.stats.evictions_fifo += 1;
                }
                Err(_) => {
                    // Interrupted spill: keep the fragment resident, record
                    // the failure, and stop trying — results are unaffected.
                    self.resident.insert(id, fragment);
                    self.fifo.push_front(id);
                    self.stats.spill_errors += 1;
                    self.broken = true;
                }
            }
        }
    }

    /// True when a heap entry still describes the current state of its
    /// fragment: resident, and `(key, seq)` matching the slot meta.
    fn entry_is_live(&self, e: &EvictEntry) -> bool {
        let m = self.index.at(FragmentId(e.id));
        matches!(m.loc, Loc::Resident) && m.evict_key == e.key && m.seq == e.seq
    }

    /// Scheduled mode: spills the fragment whose next reader is farthest
    /// away (overdue fragments first of all), FIFO among equals. Fragments
    /// scheduled for the current read step are pinned — deferred until
    /// nothing else can satisfy the budget, at which point the budget
    /// invariant wins and the oldest pinned fragment goes anyway.
    fn evict_scheduled(&mut self) {
        let mut pinned: Vec<EvictEntry> = Vec::new();
        while self.stats.resident_longs > self.budget_longs && !self.broken {
            let top = loop {
                match self.heap.pop() {
                    Some(e) if self.entry_is_live(&e) => break Some(e),
                    Some(_) => continue, // stale (lazy deletion)
                    None => break None,
                }
            };
            let entry = match top {
                Some(e) if e.key == self.current_step => {
                    pinned.push(e);
                    continue;
                }
                Some(e) => e,
                // Only pinned fragments remain over budget: evict the
                // oldest of them (they popped in FIFO order).
                None if !pinned.is_empty() => pinned.remove(0),
                None => break,
            };
            let fragment =
                self.resident.remove(&entry.id).expect("live heap entries are resident");
            match self.write_record(&fragment) {
                Ok(loc) => {
                    let longs = fragment.disk_longs();
                    self.index.at_mut(FragmentId(entry.id)).loc = loc;
                    self.stats.resident_longs -= longs;
                    self.stats.spilled_fragments += 1;
                    self.stats.spill_write_longs += longs;
                    self.stats.evictions_scheduled += 1;
                }
                Err(_) => {
                    self.resident.insert(entry.id, fragment);
                    self.heap.push(entry);
                    self.stats.spill_errors += 1;
                    self.broken = true;
                }
            }
        }
        // Deferred pinned fragments stay candidates for later steps.
        for e in pinned {
            self.heap.push(e);
        }
    }

    /// Mirrors a resident insertion in the shadow FIFO simulation
    /// (scheduled mode only). The shadow assumes healthy spill I/O — it
    /// tracks policy, not failures.
    fn shadow_insert(&mut self, id: u64, longs: u64) {
        if self.schedule.is_none() {
            return;
        }
        if let Some(old) = self.shadow_resident.insert(id, longs) {
            // Re-residency (replace fallback): size changes, position kept.
            self.shadow_longs -= old;
        } else {
            self.shadow_fifo.push_back(id);
        }
        self.shadow_longs += longs;
        self.shadow_evict();
    }

    /// Runs the shadow FIFO's eviction loop.
    fn shadow_evict(&mut self) {
        while self.shadow_longs > self.budget_longs {
            let Some(v) = self.shadow_fifo.pop_front() else { break };
            if let Some(l) = self.shadow_resident.remove(&v) {
                self.shadow_longs -= l;
            }
        }
    }

    /// Counts a read of a resident fragment that plain FIFO would have had
    /// to reload from disk (scheduled mode only).
    fn note_resident_read(&mut self, id: u64, longs: u64) {
        if self.schedule.is_some() && !self.shadow_resident.contains_key(&id) {
            self.stats.reload_longs_avoided += longs;
        }
    }

    /// The slot's `(next_read, evict_key)` under the current schedule.
    fn schedule_keys(&self, level: u32, partition: u32) -> (u64, u64) {
        schedule_keys(self.schedule.as_ref(), self.current_step, level, partition)
    }

    /// Records (or forgets) the visible vertices of `fragment` for the
    /// Phase-3 splice index.
    fn capture_cycle(&mut self, fragment: &Fragment) {
        if fragment.kind == FragmentKind::Cycle {
            self.cycle_vis.insert(fragment.id, fragment.visible_vertices());
        } else {
            self.cycle_vis.remove(&fragment.id);
        }
    }
}

/// `(next_read, evict_key)` of a fragment pushed at `(level, partition)`
/// under `schedule`, with the clock at `current_step`.
fn schedule_keys(
    schedule: Option<&ReadSchedule>,
    current_step: u64,
    level: u32,
    partition: u32,
) -> (u64, u64) {
    match schedule {
        Some(s) => {
            let nr = s.step_for(level, PartitionId(partition));
            let key = if nr < current_step { u64::MAX } else { nr };
            (nr, key)
        }
        None => (0, 0),
    }
}

impl FragmentBacking for SpillBacking {
    fn push(&mut self, mut fragment: Fragment, reals: u64) -> FragmentId {
        self.accounting.add(&fragment, reals);
        let (next_read, evict_key) = self.schedule_keys(fragment.level, fragment.partition.0);
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.index.push(fragment.level, fragment.partition, |id| SlotMeta {
            id,
            longs: fragment.disk_longs(),
            reals,
            loc: Loc::Resident,
            level: fragment.level,
            partition: fragment.partition.0,
            next_read,
            evict_key,
            seq,
        });
        fragment.id = id;
        self.capture_cycle(&fragment);
        self.insert_resident(fragment);
        id
    }

    fn pushed(&self, level: u32, partition: PartitionId) -> u64 {
        self.index.pushed(level, partition)
    }

    fn get(&mut self, id: FragmentId) -> Fragment {
        let meta = *self.index.at(id);
        match meta.loc {
            Loc::Resident => {
                self.note_resident_read(id.0, meta.longs);
                self.resident[&id.0].clone()
            }
            Loc::Spilled { offset, words } => {
                self.stats.spill_read_longs += meta.longs;
                self.read_record(id, offset, words)
            }
        }
    }

    fn replace(&mut self, id: FragmentId, mut fragment: Fragment) {
        fragment.id = id;
        let meta = *self.index.at(id);
        self.accounting.disk_longs -= meta.longs;
        self.accounting.real_edges -= meta.reals;
        let reals = real_edges(&fragment);
        self.accounting.add(&fragment, reals);
        let (next_read, evict_key) = self.schedule_keys(fragment.level, fragment.partition.0);
        let new_longs = fragment.disk_longs();
        let slot = self.index.at_mut(id);
        slot.longs = new_longs;
        slot.reals = reals;
        slot.level = fragment.level;
        slot.partition = fragment.partition.0;
        slot.next_read = next_read;
        slot.evict_key = evict_key;
        // `seq` is deliberately kept: a replace does not move the fragment
        // in the FIFO tie-break order, matching the FIFO mode (and shadow).
        let seq = slot.seq;
        self.capture_cycle(&fragment);
        // Shadow FIFO: a replace never changes residency there (resident
        // stays resident, spilled stays spilled), only the resident size.
        if let Some(l) = self.shadow_resident.get_mut(&id.0) {
            self.shadow_longs = self.shadow_longs - *l + new_longs;
            *l = new_longs;
            self.shadow_evict();
        }
        match meta.loc {
            Loc::Resident => {
                let old = self.resident.insert(id.0, fragment).expect("resident");
                self.stats.resident_longs -= old.disk_longs();
                self.stats.resident_longs += new_longs;
                self.stats.peak_resident_longs =
                    self.stats.peak_resident_longs.max(self.stats.resident_longs);
                if self.schedule.is_some() {
                    // The old heap entry is stale iff the key changed; a
                    // fresh one keeps the slot evictable either way.
                    self.heap.push(EvictEntry { key: evict_key, seq, id: id.0 });
                }
                self.evict();
            }
            Loc::Spilled { offset, words } => {
                // Supersede the spilled record with a fresh one; the old
                // record's extent joins the free list for reuse, so heavy
                // replace traffic cannot grow the spill file without bound.
                // (The new record never lands on the old extent — it is not
                // free until the write has succeeded — so a torn write can
                // not corrupt the still-current version.)
                if !self.broken {
                    if let Ok(loc) = self.write_record(&fragment) {
                        self.index.at_mut(id).loc = loc;
                        self.stats.spill_write_longs += new_longs;
                        self.free_record(offset, words);
                        return;
                    }
                    self.stats.spill_errors += 1;
                    self.broken = true;
                }
                // Spill unavailable: bring the new version back resident.
                // The old on-disk record is dead either way.
                self.free_record(offset, words);
                self.stats.spilled_fragments -= 1;
                self.index.at_mut(id).loc = Loc::Resident;
                self.insert_resident(fragment);
            }
        }
    }

    fn len(&self) -> usize {
        self.index.len
    }

    fn as_slice(&self) -> Option<&[Fragment]> {
        None
    }

    fn for_each(&mut self, f: &mut dyn FnMut(&Fragment)) {
        let metas: Vec<SlotMeta> = self.index.values().copied().collect();
        for meta in metas {
            match meta.loc {
                Loc::Resident => {
                    self.note_resident_read(meta.id.0, meta.longs);
                    f(&self.resident[&meta.id.0]);
                }
                Loc::Spilled { offset, words } => {
                    self.stats.spill_read_longs += meta.longs;
                    let fragment = self.read_record(meta.id, offset, words);
                    f(&fragment);
                }
            }
        }
    }

    fn cycle_ids(&self) -> Vec<FragmentId> {
        self.cycle_vis.keys().copied().collect()
    }

    fn cycle_vertex_pairs(&self) -> Vec<(VertexId, FragmentId)> {
        let mut pairs = Vec::new();
        for (&id, vis) in &self.cycle_vis {
            pairs.extend(vis.iter().map(|&v| (v, id)));
        }
        pairs
    }

    fn disk_longs(&self) -> u64 {
        self.accounting.disk_longs
    }

    fn total_real_edges(&self) -> u64 {
        self.accounting.real_edges
    }

    fn stats(&self) -> FragmentStoreStats {
        self.stats
    }

    fn set_read_schedule(&mut self, schedule: ReadSchedule) {
        self.schedule = Some(schedule);
        // Re-key every slot under the new schedule and migrate the FIFO
        // queue into the heap (push order becomes the tie-break, so the
        // queue's order is preserved among equal keys). The shadow FIFO
        // starts from the same resident set in the same order: before this
        // point both policies behaved identically.
        for m in self.index.values_mut() {
            (m.next_read, m.evict_key) =
                schedule_keys(self.schedule.as_ref(), self.current_step, m.level, m.partition);
        }
        while let Some(id) = self.fifo.pop_front() {
            let m = *self.index.at(FragmentId(id));
            self.heap.push(EvictEntry { key: m.evict_key, seq: m.seq, id });
            self.shadow_resident.insert(id, m.longs);
            self.shadow_fifo.push_back(id);
            self.shadow_longs += m.longs;
        }
        self.shadow_evict();
        self.evict();
    }

    fn begin_read_step(&mut self, step: u64) {
        self.current_step = step;
        if self.schedule.is_none() {
            return;
        }
        // Resident fragments whose scheduled read has now passed will not
        // be read again: re-key them to "never needed" so they are the
        // first victims from here on.
        for m in self.index.values_mut() {
            if matches!(m.loc, Loc::Resident) && m.next_read < step && m.evict_key != u64::MAX {
                m.evict_key = u64::MAX;
                self.heap.push(EvictEntry { key: u64::MAX, seq: m.seq, id: m.id.0 });
            }
        }
    }
}

/// Append-only store of fragments, shared across partitions and workers.
///
/// Plays the role of the paper's per-partition disk persistence: writes are
/// cheap and do not count toward partition memory; Phase 3 reads everything
/// back once. Storage is pluggable behind the store: [`FragmentStore::new`]
/// keeps every fragment in memory, [`FragmentStore::spilling`] bounds
/// resident fragment memory and pages cold fragments to a temp file (see
/// [`SpillConfig`]). Either way the modelled accounting
/// ([`disk_longs`](Self::disk_longs), [`total_real_edges`](Self::total_real_edges))
/// is exact and identical.
///
/// Ids come from the fragment's own coordinates (see [`FragmentId`]), so
/// concurrent pushes from different partitions never influence each other's
/// ids, and every reader that walks the store ([`for_each`](Self::for_each),
/// [`snapshot`](Self::snapshot),
/// [`cycle_vertex_pairs`](Self::cycle_vertex_pairs)) sees ascending id
/// order — the push order of a one-thread run — however the pushes
/// interleaved.
#[derive(Clone)]
pub struct FragmentStore {
    inner: Arc<Mutex<Box<dyn FragmentBacking>>>,
}

impl Default for FragmentStore {
    fn default() -> Self {
        let backing: Box<dyn FragmentBacking> = Box::<MemoryBacking>::default();
        FragmentStore { inner: Arc::new(Mutex::new(backing)) }
    }
}

impl std::fmt::Debug for FragmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FragmentStore")
            .field("len", &inner.len())
            .field("stats", &inner.stats())
            .finish()
    }
}

impl FragmentStore {
    /// Creates an empty store with the in-memory backing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store whose resident fragment memory is bounded by
    /// `config.memory_budget_longs`; overflow pages to a temp file and is
    /// reloaded on demand (the out-of-core mode).
    pub fn spilling(config: SpillConfig) -> Self {
        let backing: Box<dyn FragmentBacking> = Box::new(SpillBacking::new(config));
        FragmentStore { inner: Arc::new(Mutex::new(backing)) }
    }

    /// Appends a fragment, assigning and returning its id: the next
    /// sequence number of its `(level, partition)`. The `id` field of the
    /// passed fragment is overwritten.
    pub fn push(&self, fragment: Fragment) -> FragmentId {
        let reals = real_edges(&fragment);
        self.inner.lock().push(fragment, reals)
    }

    /// Appends a fragment found elsewhere (a worker process) under the id it
    /// was found with. The id must be the one [`push`](Self::push) would
    /// assign — the next of the fragment's `(level, partition)` — and every
    /// virtual edge must reference a fragment already in the store.
    pub(crate) fn adopt(&self, fragment: Fragment) -> Result<(), String> {
        let reals = real_edges(&fragment);
        let mut inner = self.inner.lock();
        let stored = |id: FragmentId| id.seq() < inner.pushed(id.level(), id.partition());
        for e in &fragment.edges {
            if let TourEdge::Virtual { fragment: target, .. } = *e {
                if !stored(target) {
                    return Err(format!(
                        "fragment {:?} references unknown fragment {target:?}",
                        fragment.id
                    ));
                }
            }
        }
        let id = fragment.id;
        if (id.level(), id.partition()) != (fragment.level, fragment.partition)
            || id.seq() != inner.pushed(fragment.level, fragment.partition)
        {
            return Err(format!(
                "fragment {id:?} is not the next of level {} partition {}",
                fragment.level, fragment.partition.0
            ));
        }
        inner.push(fragment, reals);
        Ok(())
    }

    /// Returns a clone of the fragment with the given id (reloaded from the
    /// spill file if it was paged out).
    ///
    /// # Panics
    /// When no fragment with that id was pushed.
    pub fn get(&self, id: FragmentId) -> Fragment {
        self.inner.lock().get(id)
    }

    /// Replaces an existing fragment (used by `mergeInto` when an internal
    /// cycle is spliced into a fragment created earlier in the same Phase-1
    /// invocation). The fragment keeps `id` whatever its new coordinates.
    pub fn replace(&self, id: FragmentId, fragment: Fragment) {
        self.inner.lock().replace(id, fragment)
    }

    /// Number of fragments stored.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no fragments are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every fragment, in id order. **Tests and diagnostics
    /// only**: this deep-clones the whole store (and reloads everything
    /// spilled), so hot paths must use [`with_all`](Self::with_all) or
    /// [`for_each`](Self::for_each) instead.
    pub fn snapshot(&self) -> Vec<Fragment> {
        let mut all = Vec::with_capacity(self.len());
        self.for_each(|f| all.push(f.clone()));
        all
    }

    /// Runs `f` over all fragments, in id order, under the lock. Zero-copy
    /// on the in-memory backing while every fragment shares one `(level,
    /// partition)` (a stand-alone kernel run); otherwise the slab is
    /// materialised first, so streaming readers prefer
    /// [`for_each`](Self::for_each).
    pub fn with_all<R>(&self, f: impl FnOnce(&[Fragment]) -> R) -> R {
        let mut inner = self.inner.lock();
        if inner.as_slice().is_some() {
            return f(inner.as_slice().expect("just checked"));
        }
        let mut all = Vec::with_capacity(inner.len());
        inner.for_each(&mut |frag| all.push(frag.clone()));
        f(&all)
    }

    /// Visits every fragment in id order under the lock, one at a time —
    /// the bounded-memory read path (Phase 3 builds its splice index here);
    /// spilled fragments are decoded into a scratch one by one.
    pub fn for_each(&self, mut f: impl FnMut(&Fragment)) {
        self.inner.lock().for_each(&mut f)
    }

    /// Ids of all cycle fragments (the ones Phase 3 must splice), ascending.
    /// Answered from the index; spilled payloads are not touched.
    pub fn cycle_ids(&self) -> Vec<FragmentId> {
        self.inner.lock().cycle_ids()
    }

    /// `(visible vertex, cycle id)` pairs over every cycle fragment — the
    /// Phase-3 splice index: cycles in id order, vertices in first-seen
    /// order within each fragment. The lists are captured at
    /// [`push`](Self::push)/[`replace`](Self::replace) time while the
    /// fragment is resident, so this costs **no spill I/O** — which is what
    /// lets Phase 3 read each spilled fragment exactly once (during the
    /// unroll walk) instead of twice.
    pub fn cycle_vertex_pairs(&self) -> Vec<(VertexId, FragmentId)> {
        self.inner.lock().cycle_vertex_pairs()
    }

    /// Total Longs written to "disk" — the paper's modelled persistence
    /// accounting, maintained exactly across `push`/`replace` on every
    /// backing.
    pub fn disk_longs(&self) -> u64 {
        self.inner.lock().disk_longs()
    }

    /// Total number of *real* edges recorded across all fragments. When the
    /// run is complete this must equal the number of graph edges.
    pub fn total_real_edges(&self) -> u64 {
        self.inner.lock().total_real_edges()
    }

    /// Real memory/spill statistics of the backing.
    pub fn stats(&self) -> FragmentStoreStats {
        self.inner.lock().stats()
    }

    /// Installs a merge-tree-derived next-reader schedule: spill-backed
    /// stores switch from FIFO to farthest-next-use eviction (see
    /// [`ReadSchedule`]); the in-memory backing ignores it.
    pub fn set_read_schedule(&self, schedule: ReadSchedule) {
        self.inner.lock().set_read_schedule(schedule)
    }

    /// Announces the current read step of the schedule's clock. Fragments
    /// scheduled to be read at this step are pinned against eviction (up to
    /// the budget invariant); fragments whose step has passed become
    /// preferred victims. A no-op without a schedule.
    pub fn begin_read_step(&self, step: u64) {
        self.inner.lock().begin_read_step(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(ordered.cycle_ids(), interleaved.cycle_ids());
            assert_eq!(ordered.cycle_vertex_pairs(), interleaved.cycle_vertex_pairs());
            let ids: Vec<FragmentId> = ordered.snapshot().iter().map(|f| f.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "the walk is in ascending id order");
            for id in ids {
                assert_eq!(ordered.get(id), interleaved.get(id));
            }
            // Several segments: `with_all` materialises the same slab.
            ordered.with_all(|x| interleaved.with_all(|y| assert_eq!(x, y)));
        }
    }

    #[test]
    fn adoption_checks_the_id_and_the_references() {
        let store = FragmentStore::new();
        let found = |seq: u64, edges: Vec<TourEdge>| Fragment {
            id: FragmentId::new(1, PartitionId(3), seq),
            kind: FragmentKind::Path,
            level: 1,
            partition: PartitionId(3),
            edges,
        };
        store.adopt(found(0, vec![real(0, 0, 1)])).unwrap();
        // Not the next of (1, 3): a gap, a repeat, foreign coordinates.
        assert!(store.adopt(found(2, vec![real(1, 1, 2)])).unwrap_err().contains("not the next"));
        assert!(store.adopt(found(0, vec![real(1, 1, 2)])).unwrap_err().contains("not the next"));
        let foreign = Fragment { id: FragmentId::new(0, PartitionId(3), 0), ..found(1, vec![real(1, 1, 2)]) };
        assert!(store.adopt(foreign).unwrap_err().contains("not the next"));
        // A virtual edge must point at something already stored.
        let virt = |fragment| TourEdge::Virtual { fragment, from: VertexId(1), to: VertexId(2) };
        let dangling = store.adopt(found(1, vec![virt(FragmentId::new(0, PartitionId(9), 0))]));
        assert!(dangling.unwrap_err().contains("unknown fragment"));
        store.adopt(found(1, vec![virt(FragmentId::new(1, PartitionId(3), 0))])).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn store_replace_overwrites() {
        let store = FragmentStore::new();
        let f = Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level: 0,
            partition: PartitionId(1),
            edges: vec![real(0, 1, 1)],
        };
        let id = store.push(f.clone());
        let longer = Fragment { edges: vec![real(0, 1, 2), real(1, 2, 1)], ..f };
        store.replace(id, longer);
        assert_eq!(store.get(id).len(), 2);
        assert_eq!(store.cycle_ids(), vec![id]);
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
        assert_eq!(store.disk_longs(), 4 + 6);
    }

    #[test]
    fn replace_keeps_accounting_exact() {
        let store = FragmentStore::new();
        let f = Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(0, 1, 1)],
        };
        let id = store.push(f.clone());
        assert_eq!(store.disk_longs(), 7);
        assert_eq!(store.total_real_edges(), 1);
        let longer = Fragment { edges: vec![real(0, 1, 2), real(1, 2, 1)], ..f };
        store.replace(id, longer);
        assert_eq!(store.disk_longs(), 10);
        assert_eq!(store.total_real_edges(), 2);
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
                        if j % 2 == 0 {
                            real(10 * i + j, j, j + 1)
                        } else {
                            TourEdge::Virtual {
                                fragment: FragmentId(i),
                                from: VertexId(j),
                                to: VertexId(j + 1),
                            }
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
        assert_eq!(mem.cycle_ids(), spill.cycle_ids());
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
        // with_all materialises the same slab either way.
        let a = mem.with_all(|f| f.len());
        let b = spill.with_all(|f| f.len());
        assert_eq!(a, b);
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
    fn zero_budget_spills_everything_and_replace_supersedes_records() {
        let store = FragmentStore::spilling(SpillConfig::with_budget(0));
        let fs = workload(12);
        let ids: Vec<FragmentId> = fs.iter().map(|f| store.push(f.clone())).collect();
        assert_eq!(store.stats().spilled_fragments, 12);
        assert_eq!(store.stats().resident_longs, 0);
        // Replace a spilled fragment with a longer version; reads see it.
        let longer = Fragment { edges: vec![real(7, 3, 4), real(8, 4, 3)], ..fs[5].clone() };
        store.replace(ids[5], longer.clone());
        let back = store.get(ids[5]);
        assert_eq!(back.edges, longer.edges);
        // Accounting followed the replacement exactly.
        let expected: u64 = fs
            .iter()
            .enumerate()
            .map(|(i, f)| if i == 5 { longer.disk_longs() } else { f.disk_longs() })
            .sum();
        assert_eq!(store.disk_longs(), expected);
    }

    #[test]
    fn replace_heavy_traffic_keeps_the_spill_file_bounded() {
        let store = FragmentStore::spilling(SpillConfig::with_budget(0));
        let n = 8u64;
        let two_edges = |a: u64, b: u64, v: u64| Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(a, v, v + 1), real(b, v + 1, v + 2)],
        };
        for i in 0..n {
            store.push(two_edges(i, 100 + i, i));
        }
        let baseline = store.stats().spill_file_longs;
        assert!(baseline > 0, "a zero budget spills every push");
        // Every round supersedes every record with a same-size version.
        // Without extent reuse the file would gain `baseline` words per
        // round; with the free list it reaches a small steady state.
        let rounds = 50u64;
        for round in 1..=rounds {
            for i in 0..n {
                store.replace(FragmentId(i), two_edges(1000 * round + i, 2000 * round + i, i));
            }
        }
        let stats = store.stats();
        assert!(
            stats.spill_file_longs <= 3 * baseline,
            "{rounds} replace rounds must not grow the file {rounds}x: \
             baseline={baseline} stats={stats:?}"
        );
        // A varied-size round: shrinking replaces split free extents
        // (best-fit leaves a dead remainder), growing ones append.
        for i in 0..n {
            let f = if i % 2 == 0 {
                Fragment { edges: vec![real(9000 + i, i, i + 1)], ..two_edges(0, 0, i) }
            } else {
                Fragment {
                    edges: vec![
                        real(9100 + i, i, i + 1),
                        real(9200 + i, i + 1, i + 2),
                        real(9300 + i, i + 2, i + 3),
                    ],
                    ..two_edges(0, 0, i)
                }
            };
            store.replace(FragmentId(i), f);
        }
        // `dead_longs` is exact: the file extent is live records + dead
        // space, to the word.
        let stats = store.stats();
        let live: u64 =
            (0..n).map(|i| 4 + 4 * store.get(FragmentId(i)).edges.len() as u64).sum();
        assert_eq!(
            stats.spill_file_longs,
            live + stats.dead_longs,
            "file words must equal live record words plus dead words: {stats:?}"
        );
        // Reads still serve the latest version of every fragment.
        for i in 0..n {
            let f = store.get(FragmentId(i));
            let expect = if i % 2 == 0 { 1 } else { 3 };
            assert_eq!(f.edges.len(), expect, "fragment {i} lost its last replace");
        }
        assert_eq!(store.len(), n as usize);
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

    #[test]
    fn cycle_vertex_pairs_agree_across_backings_and_cost_no_spill_reads() {
        let mem = FragmentStore::new();
        let spill = FragmentStore::spilling(SpillConfig::with_budget(0));
        for f in workload(30) {
            mem.push(f.clone());
            spill.push(f);
        }
        // Replace one spilled cycle with a different cycle and one with a
        // path: the captured lists must follow.
        let cycle_id = mem.cycle_ids()[1];
        let as_cycle = Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level: 2,
            partition: PartitionId(0),
            edges: vec![real(90, 40, 41), real(91, 41, 40)],
        };
        mem.replace(cycle_id, as_cycle.clone());
        spill.replace(cycle_id, as_cycle);
        let path_id = mem.cycle_ids()[2];
        let as_path = Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 2,
            partition: PartitionId(0),
            edges: vec![real(92, 50, 51)],
        };
        mem.replace(path_id, as_path.clone());
        spill.replace(path_id, as_path);
        let reads_before = spill.stats().spill_read_longs;
        assert_eq!(mem.cycle_vertex_pairs(), spill.cycle_vertex_pairs());
        assert_eq!(
            spill.stats().spill_read_longs,
            reads_before,
            "the splice index must not touch spilled payloads"
        );
        assert!(!mem.cycle_vertex_pairs().is_empty());
    }

    // --- Merge-tree-aware (scheduled) eviction. -----------------------------

    /// A 2-edge path at `(level 0, partition pid)` — 10 modelled disk Longs,
    /// 12 spill-record words. Uniform sizes keep the traces easy to reason
    /// about: a 20-Long budget holds exactly two fragments.
    /// Id of the one fragment the traces below push for partition `pid`.
    fn id_at(pid: u32) -> FragmentId {
        FragmentId::new(0, PartitionId(pid), 0)
    }

    fn frag_at(pid: u32, base: u64) -> Fragment {
        Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(pid),
            edges: vec![real(base, base, base + 1), real(base + 1, base + 1, base + 2)],
        }
    }

    /// The crafted multi-level merge trace of the regression test: pushes
    /// interleaved with read steps and reads, driven identically against a
    /// scheduled and a FIFO store. Partition id doubles as fragment number.
    fn run_crafted_trace(store: &FragmentStore, schedule: Option<ReadSchedule>) {
        if let Some(s) = schedule {
            store.set_read_schedule(s);
        }
        // Step 0: A..D arrive. A and D are read at step 1, B and C not
        // until step 5 — FIFO keeps the wrong two.
        store.begin_read_step(0);
        for pid in 0..4 {
            store.push(frag_at(pid, 10 * pid as u64));
        }
        store.begin_read_step(1);
        store.get(id_at(0)); // A
        store.get(id_at(3)); // D
        // Step 2: E (read at 3) and F (read at 5) arrive; A and D are now
        // overdue and the scheduled store pages exactly them out.
        store.begin_read_step(2);
        store.push(frag_at(4, 40));
        store.push(frag_at(5, 50));
        store.begin_read_step(3);
        store.get(id_at(4)); // E
        // Step 4: G (read at 5) arrives.
        store.begin_read_step(4);
        store.push(frag_at(6, 60));
        store.begin_read_step(5);
        for pid in [1, 2, 5, 6] {
            store.get(id_at(pid)); // B, C, F, G
        }
    }

    fn crafted_schedule() -> ReadSchedule {
        let mut s = ReadSchedule::new(100);
        for (pid, step) in [(0, 1), (1, 5), (2, 5), (3, 1), (4, 3), (5, 5), (6, 5)] {
            s.set(0, PartitionId(pid), step);
        }
        s
    }

    #[test]
    fn scheduled_eviction_strictly_beats_fifo_on_the_crafted_trace() {
        let budget = 20; // two of the uniform 10-Long fragments
        let fifo = FragmentStore::spilling(SpillConfig::with_budget(budget));
        run_crafted_trace(&fifo, None);
        let scheduled = FragmentStore::spilling(SpillConfig::with_budget(budget));
        run_crafted_trace(&scheduled, Some(crafted_schedule()));

        let f = fifo.stats();
        let s = scheduled.stats();
        // The headline: strictly fewer Longs reloaded from the spill file.
        assert!(
            s.spill_read_longs < f.spill_read_longs,
            "scheduled must read strictly less: scheduled={s:?} fifo={f:?}"
        );
        // The shadow simulation accounts the saving exactly: every Long the
        // schedule avoided is one FIFO actually paid on the same trace.
        assert_eq!(s.spill_read_longs + s.reload_longs_avoided, f.spill_read_longs);
        assert!(s.reload_longs_avoided > 0);
        // Policy counters attribute every eviction to its mode.
        assert_eq!(s.evictions_fifo, 0);
        assert!(s.evictions_scheduled > 0);
        assert_eq!(f.evictions_scheduled, 0);
        assert!(f.evictions_fifo > 0);
        assert_eq!(f.reload_longs_avoided, 0, "no schedule, no counterfactual");
        // Both stores serve identical fragments regardless of policy.
        for pid in 0..7 {
            assert_eq!(fifo.get(id_at(pid)).edges, scheduled.get(id_at(pid)).edges);
        }
        // Exact-accounting invariants hold in scheduled mode: every spill
        // file word is a live record or counted dead, and the peak resident
        // set never exceeded budget + one fragment.
        for st in [&f, &s] {
            assert_eq!(st.spill_errors, 0);
            assert!(st.peak_resident_longs <= budget + 10, "peak {}", st.peak_resident_longs);
        }
        // Nothing on this trace is reloaded-then-respilled, so every live
        // file record is one 12-word eviction record.
        let s_after = scheduled.stats();
        assert_eq!(
            s_after.spill_file_longs,
            s_after.spilled_fragments * 12 + s_after.dead_longs,
            "file words = live records + dead words: {s_after:?}"
        );
    }

    #[test]
    fn pinned_fragments_survive_eviction_while_unpinned_exist() {
        // X and Z are read at the *current* step (0) — pinned. Y is read
        // far later. FIFO would evict X (oldest); the schedule evicts Y.
        let store = FragmentStore::spilling(SpillConfig::with_budget(20));
        let mut s = ReadSchedule::new(100);
        s.set(0, PartitionId(0), 0); // X
        s.set(0, PartitionId(1), 5); // Y
        s.set(0, PartitionId(2), 0); // Z
        store.set_read_schedule(s);
        store.begin_read_step(0);
        store.push(frag_at(0, 0)); // X
        store.push(frag_at(1, 10)); // Y
        store.push(frag_at(2, 20)); // Z -> over budget
        let before = store.stats();
        assert_eq!(before.evictions_scheduled, 1);
        store.get(id_at(0));
        store.get(id_at(2));
        let after = store.stats();
        assert_eq!(after.spill_read_longs, 0, "pinned X and Z stayed resident");
        store.get(id_at(1));
        assert_eq!(store.stats().spill_read_longs, 10, "Y was the victim");
    }

    #[test]
    fn all_pinned_overflow_still_respects_the_budget_invariant() {
        // Every fragment is scheduled for the current step: the pin must
        // yield to the budget bound, evicting in FIFO order among pinned.
        let store = FragmentStore::spilling(SpillConfig::with_budget(20));
        let mut s = ReadSchedule::new(100);
        for pid in 0..3 {
            s.set(0, PartitionId(pid), 0);
        }
        store.set_read_schedule(s);
        store.begin_read_step(0);
        for pid in 0..3 {
            store.push(frag_at(pid, 10 * pid as u64));
        }
        let stats = store.stats();
        assert!(stats.resident_longs <= 20, "budget holds: {stats:?}");
        assert!(stats.peak_resident_longs <= 20 + 10);
        assert_eq!(stats.evictions_scheduled, 1);
        // The oldest pinned fragment went (FIFO tie-break).
        store.get(FragmentId(0));
        assert_eq!(store.stats().spill_read_longs, 10);
    }

    #[test]
    fn schedule_set_mid_run_rekeys_the_existing_resident_set() {
        // Two fragments resident under FIFO; installing a schedule must
        // carry them into scheduled mode and evict by the new keys.
        let store = FragmentStore::spilling(SpillConfig::with_budget(20));
        store.push(frag_at(0, 0)); // older, but read soon (step 1)
        store.push(frag_at(1, 10)); // newer, read late (step 9)
        let mut s = ReadSchedule::new(100);
        s.set(0, PartitionId(0), 1);
        s.set(0, PartitionId(1), 9);
        store.set_read_schedule(s);
        store.push(frag_at(2, 20)); // read at 100 (default) -> the victim
        store.begin_read_step(1);
        store.get(id_at(0));
        store.get(id_at(1));
        let stats = store.stats();
        // FIFO would have paged out fragment 0; the schedule paged out 2.
        assert_eq!(stats.spill_read_longs, 0);
        assert_eq!(stats.evictions_scheduled, 1);
        store.get(id_at(2));
        assert_eq!(store.stats().spill_read_longs, 10);
    }

    #[test]
    fn memory_backing_ignores_schedules() {
        let store = FragmentStore::new();
        store.set_read_schedule(ReadSchedule::new(0));
        store.begin_read_step(7);
        store.push(frag_at(0, 0));
        let stats = store.stats();
        assert_eq!(stats.evictions_fifo + stats.evictions_scheduled, 0);
        assert_eq!(stats.reload_longs_avoided, 0);
        assert_eq!(store.get(FragmentId(0)).edges.len(), 2);
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
}
