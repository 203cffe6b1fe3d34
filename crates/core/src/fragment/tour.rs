//! Fragment ids and the owned, typed view of a fragment: [`Fragment`] and
//! its [`TourEdge`]s.

use super::record::{EDGE_WORDS, HEADER_WORDS};
use super::*;

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

pub(super) const ID_SEQ_BITS: u32 = 32;
pub(super) const ID_PARTITION_BITS: u32 = 24;
/// One bit short of the word: bit 63 of a stored id word is the record's
/// real/virtual tag.
pub(super) const ID_LEVEL_BITS: u32 = 7;

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
        FragmentId((level as u64) << (ID_PARTITION_BITS + ID_SEQ_BITS) | (partition.0 as u64) << ID_SEQ_BITS | seq)
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
pub(super) fn first_seen(endpoints: impl Iterator<Item = VertexId> + Clone) -> Vec<(VertexId, usize)> {
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
