//! Dense vertex interning: global [`VertexId`] → contiguous `u32` slot.
//!
//! Partition-local kernels (Phase-1 traversal, Phase-3 splicing, degree
//! classification) touch a small, arbitrary subset of the global vertex
//! space. Keeping their per-vertex state in `HashMap<VertexId, _>` pays a
//! hash per edge visit; a [`LocalIndex`] instead assigns every distinct
//! vertex a dense slot in `0..len`, after which all per-vertex state lives in
//! flat `Vec`s indexed by slot — the same layout idiom as the CSR arrays of
//! the global [`crate::Graph`].
//!
//! Slots are assigned in ascending `VertexId` order, so an ascending slot
//! scan visits vertices in ascending global order. Deterministic algorithms
//! that pick "the smallest vertex such that …" therefore reduce to a linear
//! slot scan with no ordered-set structure.

use crate::ids::VertexId;
use serde::{Deserialize, Serialize};

/// Slot value in the direct-map table for "vertex not interned".
const NO_SLOT: u32 = u32::MAX;

/// A dense, sorted interning table for a subset of the global vertex space.
///
/// When the interned vertices span a compact range of global ids (the common
/// case: partitions of a contiguously-numbered graph), the index carries a
/// direct-mapped `id - base → slot` table, making [`LocalIndex::slot`] an
/// `O(1)` array load and the build itself a counting pass instead of a sort.
/// Sparse vertex sets fall back to binary search over the sorted slot array.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LocalIndex {
    /// Distinct vertices, sorted ascending; slot `s` names `verts[s]`.
    verts: Vec<VertexId>,
    /// Direct-map fast path: `(base, table)` with
    /// `table[v - base] = slot_of(v)` (or `NO_SLOT`). Present only when the
    /// id span is at most [`LocalIndex::SPAN_FACTOR`]× the input size.
    lookup: Option<(u64, Vec<u32>)>,
}

/// Recycled allocations of a retired [`LocalIndex`], fed back into
/// [`LocalIndex::from_vertices_reusing`] so repeated index builds (one per
/// merge level in the Phase-1 arena) stop allocating once their capacities
/// have grown to the working-set size.
#[derive(Debug, Default)]
pub struct LocalIndexBufs {
    raw: Vec<VertexId>,
    verts: Vec<VertexId>,
    table: Vec<u32>,
}

impl LocalIndexBufs {
    /// Capacity (in entries) of the recycled vertex buffers — the larger of
    /// the collection and slot arrays. Exposed so arena tests can assert
    /// reuse never shrinks capacity.
    pub fn vertex_capacity(&self) -> usize {
        self.raw.capacity().max(self.verts.capacity())
    }

    /// The vertices the last [`LocalIndex::from_vertices_reusing`] build over
    /// these buffers consumed, duplicates included, in input order.
    pub fn collected(&self) -> &[VertexId] {
        &self.raw
    }

    /// Capacity (in entries) of the recycled direct-map table.
    pub fn table_capacity(&self) -> usize {
        self.table.capacity()
    }
}

impl LocalIndex {
    /// Maximum id-span-to-input-size ratio for which the direct-map table is
    /// built (bounds its memory at `4 * SPAN_FACTOR` bytes per input vertex).
    const SPAN_FACTOR: u64 = 4;

    /// Builds an index over the distinct vertices of `iter` (duplicates are
    /// fine and collapse to one slot).
    pub fn from_vertices(iter: impl IntoIterator<Item = VertexId>) -> Self {
        Self::from_vertices_reusing(iter, &mut LocalIndexBufs::default())
    }

    /// Like [`from_vertices`](Self::from_vertices), but builds into the
    /// recycled allocations held by `bufs` (see
    /// [`into_bufs`](Self::into_bufs)); `bufs` keeps the collection buffer
    /// for the next build. Capacities only ever grow.
    pub fn from_vertices_reusing(
        iter: impl IntoIterator<Item = VertexId>,
        bufs: &mut LocalIndexBufs,
    ) -> Self {
        let raw = &mut bufs.raw;
        let mut verts = std::mem::take(&mut bufs.verts);
        let mut table = std::mem::take(&mut bufs.table);
        raw.clear();
        verts.clear();
        raw.extend(iter);
        if raw.is_empty() {
            bufs.table = table; // keep the recycled capacity for later builds
            return LocalIndex { verts, lookup: None };
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for v in raw.iter() {
            min = min.min(v.0);
            max = max.max(v.0);
        }
        let span = max - min + 1;
        if span <= (raw.len() as u64).saturating_mul(Self::SPAN_FACTOR).max(1024) {
            // Compact span: counting build, no sort. The presence table
            // becomes the slot lookup table.
            table.clear();
            table.resize(span as usize, NO_SLOT);
            for v in raw.iter() {
                table[(v.0 - min) as usize] = 0; // mark present
            }
            for (off, slot) in table.iter_mut().enumerate() {
                if *slot != NO_SLOT {
                    *slot = verts.len() as u32;
                    verts.push(VertexId(min + off as u64));
                }
            }
            LocalIndex { verts, lookup: Some((min, table)) }
        } else {
            bufs.table = table; // sparse build: keep the recycled capacity
            verts.extend_from_slice(raw);
            verts.sort_unstable();
            verts.dedup();
            LocalIndex { verts, lookup: None }
        }
    }

    /// Retires the index, storing its allocations in `bufs` for reuse by a
    /// later [`from_vertices_reusing`](Self::from_vertices_reusing) build.
    /// Each buffer is kept only when larger than the one already recycled.
    pub fn into_bufs(self, recycle: &mut LocalIndexBufs) {
        if self.verts.capacity() > recycle.verts.capacity() {
            recycle.verts = self.verts;
        }
        if let Some((_, table)) = self.lookup {
            if table.capacity() > recycle.table.capacity() {
                recycle.table = table;
            }
        }
    }

    /// Capacity (in entries) of the backing vertex array — allocation-reuse
    /// introspection for arena tests.
    pub fn vertex_capacity(&self) -> usize {
        self.verts.capacity()
    }

    /// Number of interned vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True when no vertex is interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The slot of `v`, if interned. `O(1)` through the direct-map table
    /// when the id span is compact, `O(log n)` binary search over the flat
    /// sorted array otherwise.
    #[inline]
    pub fn slot(&self, v: VertexId) -> Option<u32> {
        match &self.lookup {
            Some((base, table)) => match table.get(v.0.wrapping_sub(*base) as usize) {
                Some(&s) if s != NO_SLOT => Some(s),
                _ => None,
            },
            None => self.verts.binary_search(&v).ok().map(|s| s as u32),
        }
    }

    /// True when `v` is interned.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.slot(v).is_some()
    }

    /// The global vertex a slot names. Panics on an out-of-range slot.
    #[inline]
    pub fn vertex(&self, slot: u32) -> VertexId {
        self.verts[slot as usize]
    }

    /// All interned vertices, ascending; the slot of `vertices()[s]` is `s`.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.verts
    }

    /// A zero-initialised per-slot state array.
    pub fn zeroed<T: Default + Clone>(&self) -> Vec<T> {
        vec![T::default(); self.verts.len()]
    }
}

/// Counting-sort a stream of `(slot, item)` pairs into one flat CSR-style
/// arena: slot `s` owns `items[offsets[s] .. offsets[s + 1]]`, with items in
/// stream order within each slot. The stream is consumed twice (count pass,
/// fill pass), so pass a factory.
///
/// This is the shared bucket-build idiom behind the Phase-1 incidence lists
/// and the Phase-3 pending-cycle index. Panics if the stream yields
/// `u32::MAX` or more pairs — the arenas index with `u32`, and wrapping
/// would silently corrupt them.
pub fn bucket_by_slot<T, I>(num_slots: usize, pairs: impl Fn() -> I) -> (Vec<u32>, Vec<T>)
where
    T: Copy + Default,
    I: Iterator<Item = (u32, T)>,
{
    let mut counts = vec![0u32; num_slots];
    let mut total: u64 = 0;
    for (s, _) in pairs() {
        counts[s as usize] += 1;
        total += 1;
    }
    assert!(total < u32::MAX as u64, "CSR arena overflow: {total} pairs do not fit u32 indices");
    let mut offsets = Vec::with_capacity(num_slots + 1);
    let mut running = 0u32;
    for &c in &counts {
        offsets.push(running);
        running += c;
    }
    offsets.push(running);
    let mut fill = offsets[..num_slots].to_vec();
    let mut items = vec![T::default(); running as usize];
    for (s, item) in pairs() {
        items[fill[s as usize] as usize] = item;
        fill[s as usize] += 1;
    }
    (offsets, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_ascending_and_dense() {
        let idx = LocalIndex::from_vertices([7u64, 3, 7, 100, 3, 0].map(VertexId));
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.vertices(), &[VertexId(0), VertexId(3), VertexId(7), VertexId(100)]);
        for (s, &v) in idx.vertices().iter().enumerate() {
            assert_eq!(idx.slot(v), Some(s as u32));
            assert_eq!(idx.vertex(s as u32), v);
        }
        assert_eq!(idx.slot(VertexId(1)), None);
        assert!(idx.contains(VertexId(100)));
        assert!(!idx.contains(VertexId(99)));
    }

    #[test]
    fn empty_index() {
        let idx = LocalIndex::from_vertices(std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.slot(VertexId(0)), None);
        let state: Vec<u32> = idx.zeroed();
        assert!(state.is_empty());
    }

    #[test]
    fn zeroed_matches_len() {
        let idx = LocalIndex::from_vertices((0..5).map(VertexId));
        let state: Vec<u64> = idx.zeroed();
        assert_eq!(state.len(), 5);
        assert!(state.iter().all(|&x| x == 0));
    }

    #[test]
    fn bucket_by_slot_groups_in_stream_order() {
        let pairs = [(2u32, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (2, 'e')];
        let (offsets, items) = bucket_by_slot(4, || pairs.iter().copied());
        assert_eq!(offsets, vec![0, 1, 2, 5, 5]);
        assert_eq!(items, vec!['b', 'd', 'a', 'c', 'e']);
        // Empty stream, empty slots.
        let (offsets, items) = bucket_by_slot(2, std::iter::empty::<(u32, u8)>);
        assert_eq!(offsets, vec![0, 0, 0]);
        assert!(items.is_empty());
    }

    #[test]
    fn sparse_span_falls_back_to_binary_search() {
        // Span vastly exceeds SPAN_FACTOR * input size: no direct-map table.
        let verts: Vec<VertexId> = (0..100u64).map(|i| VertexId(i * 1_000_000)).collect();
        let idx = LocalIndex::from_vertices(verts.iter().copied().chain(verts.iter().copied()));
        assert_eq!(idx.len(), 100);
        for (s, &v) in idx.vertices().iter().enumerate() {
            assert_eq!(idx.slot(v), Some(s as u32));
        }
        assert_eq!(idx.slot(VertexId(500)), None);
        assert_eq!(idx.slot(VertexId(99_000_001)), None);
    }

    #[test]
    fn reused_bufs_build_identical_indexes_and_keep_capacity() {
        let mut bufs = LocalIndexBufs::default();
        let big: Vec<VertexId> = (0..2000u64).map(VertexId).collect();
        let idx = LocalIndex::from_vertices_reusing(big.iter().copied(), &mut bufs);
        idx.into_bufs(&mut bufs);
        let vcap = bufs.vertex_capacity();
        let tcap = bufs.table_capacity();
        assert!(vcap >= 2000 && tcap >= 2000);
        // Rebuild a much smaller index into the recycled buffers: identical
        // to a fresh build, and retiring it again never shrinks capacity.
        let small = [9u64, 3, 3, 7].map(VertexId);
        let reused = LocalIndex::from_vertices_reusing(small, &mut bufs);
        let fresh = LocalIndex::from_vertices(small);
        assert_eq!(reused.vertices(), fresh.vertices());
        for v in 0..12u64 {
            assert_eq!(reused.slot(VertexId(v)), fresh.slot(VertexId(v)), "v{v}");
        }
        reused.into_bufs(&mut bufs);
        assert!(bufs.vertex_capacity() >= vcap);
        assert!(bufs.table_capacity() >= tcap);
        // Sparse rebuild through the same recycle path also matches — and
        // must not discard the recycled table capacity (sparse builds carry
        // no table of their own, but later compact builds want it back).
        let sparse: Vec<VertexId> = (0..50u64).map(|i| VertexId(i * 1_000_000)).collect();
        let reused = LocalIndex::from_vertices_reusing(sparse.iter().copied(), &mut bufs);
        assert_eq!(reused.len(), 50);
        assert_eq!(reused.slot(VertexId(49_000_000)), Some(49));
        assert_eq!(reused.slot(VertexId(1)), None);
        assert!(bufs.table_capacity() >= tcap, "sparse build dropped the recycled table");
        let empty = LocalIndex::from_vertices_reusing(std::iter::empty(), &mut bufs);
        assert!(empty.is_empty());
        assert!(bufs.table_capacity() >= tcap, "empty build dropped the recycled table");
    }

    #[test]
    fn compact_and_sparse_paths_agree() {
        let verts = [5u64, 9, 1_000_000, 17, 5, 2].map(VertexId);
        // Compact: ids 0..=40 with a shifted base.
        let compact = LocalIndex::from_vertices([13u64, 40, 21, 13, 0].map(VertexId));
        for v in 0..=41u64 {
            let expected = [0u64, 13, 21, 40].iter().position(|&x| x == v).map(|s| s as u32);
            assert_eq!(compact.slot(VertexId(v)), expected, "v{v}");
        }
        // Sparse set: same API behaviour.
        let sparse = LocalIndex::from_vertices(verts);
        assert_eq!(sparse.len(), 5);
        assert_eq!(sparse.vertex(sparse.slot(VertexId(1_000_000)).unwrap()), VertexId(1_000_000));
    }
}
