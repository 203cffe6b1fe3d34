//! The `.ecsr` binary CSR on-disk format: write once, map forever.
//!
//! The paper targets graphs larger than one machine's memory; the StrSort
//! line of Euler-tour work (Kliemann et al.) treats the graph as a
//! sequential external artifact. This module is that artifact's concrete
//! shape: a versioned, checksummed, little-endian binary file holding the
//! compressed-sparse-row arrays of a [`Graph`] in 8-byte-aligned sections,
//! so a reader can `mmap` the file and use the arrays in place — no parse,
//! no [`crate::GraphBuilder`] pass, no per-edge allocation.
//!
//! The normative byte-level specification lives in
//! [`crate::format_spec`] (docs/FORMAT.md); this module is its reference
//! implementation:
//!
//! * [`write_csr_file`] serialises a [`Graph`] to a `.ecsr` file.
//! * [`CsrFile`] opens one read-only via [`memmap2::Mmap`], validates it
//!   (magic, version, endianness, section bounds/alignment, checksum,
//!   structural invariants) and exposes the sections as zero-copy `&[u64]`
//!   slices.
//! * [`CsrFile::to_graph`] reconstructs the exact original [`Graph`]
//!   (adjacency order and edge endpoint order included, so downstream runs
//!   are bit-identical to in-memory ones).
//! * [`CsrFile::partitioned`] slices the mapped arrays straight into a
//!   [`PartitionedGraph`] for a given assignment, without a `Graph` — the
//!   oracle the pipeline's own level-0 loader is tested against.
//!
//! Corrupt or foreign files fail with a typed [`CsrFileError`] wrapped in
//! [`GraphError::CsrFormat`].

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::partitioned::{PartitionAssignment, PartitionedGraph};
use memmap2::Mmap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic: `ECSR` followed by the PNG-style `\r\n\x1a\n` guard that
/// detects text-mode line-ending mangling and truncation-by-EOF-char.
pub const MAGIC: [u8; 8] = *b"ECSR\r\n\x1a\n";

/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Endianness tag as stored in a well-formed little-endian file.
pub const ENDIAN_TAG: u32 = 0x0102_0304;

/// Header size in bytes. Sections start at or after this offset, 8-aligned.
pub const HEADER_BYTES: u64 = 80;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Typed failures when opening or validating a `.ecsr` file.
///
/// Every variant names what was wrong and where, so tooling can distinguish
/// "not an .ecsr file at all" from "right format, damaged in transit".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsrFileError {
    /// The first 8 bytes are not the `.ecsr` magic.
    BadMagic {
        /// The bytes actually found (file may be shorter; zero-padded).
        found: [u8; 8],
    },
    /// The header's version is not one this reader supports.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Highest version this reader understands.
        supported: u32,
    },
    /// The endianness tag does not match little-endian byte order (either a
    /// foreign-endian writer, or a big-endian host reading a valid file).
    ForeignEndianness {
        /// The tag as read with little-endian interpretation.
        tag: u32,
    },
    /// The file ends before a section (or the header) is complete.
    Truncated {
        /// Which part of the file is incomplete.
        what: &'static str,
        /// Bytes required for that part.
        needed: u64,
        /// Bytes actually available.
        actual: u64,
    },
    /// A section's file offset is not 8-byte aligned.
    Misaligned {
        /// The offending section.
        what: &'static str,
        /// Its recorded byte offset.
        offset: u64,
    },
    /// The FNV-1a checksum over the section bytes does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the mapped bytes.
        actual: u64,
    },
    /// The sections are well-framed but violate a CSR invariant (offsets not
    /// monotone, ids out of range, half-edge count mismatch, ...).
    Invalid {
        /// Description of the violated invariant.
        message: String,
    },
}

impl fmt::Display for CsrFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrFileError::BadMagic { found } => {
                write!(f, "not an .ecsr file: magic {found:02x?} (expected {MAGIC:02x?})")
            }
            CsrFileError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported .ecsr version {found} (this reader supports <= {supported})")
            }
            CsrFileError::ForeignEndianness { tag } => {
                write!(
                    f,
                    ".ecsr endianness tag {tag:#010x} is not little-endian \
                     (expected {ENDIAN_TAG:#010x} on a little-endian host)"
                )
            }
            CsrFileError::Truncated { what, needed, actual } => {
                write!(f, ".ecsr file truncated: {what} needs {needed} bytes, {actual} available")
            }
            CsrFileError::Misaligned { what, offset } => {
                write!(f, ".ecsr section {what} at byte offset {offset} is not 8-byte aligned")
            }
            CsrFileError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    ".ecsr checksum mismatch: header records {expected:#018x}, \
                     sections hash to {actual:#018x}"
                )
            }
            CsrFileError::Invalid { message } => write!(f, "invalid .ecsr structure: {message}"),
        }
    }
}

/// Streaming FNV-1a 64 hasher folding whole little-endian words — the
/// format's sections are `u64` arrays, and word folding keeps the checksum
/// pass at memory bandwidth instead of byte-loop speed.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn update_words(&mut self, words: &[u64]) {
        let mut h = self.0;
        for &w in words {
            h ^= w;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Folds `words`, handing each to `check` as it goes: checks that do not
    /// feed the hash run in the shadow of its dependent multiply chain.
    #[inline]
    fn fold(&mut self, words: &[u64], mut check: impl FnMut(u64)) {
        let mut h = self.0;
        for &w in words {
            h ^= w;
            h = h.wrapping_mul(FNV_PRIME);
            check(w);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A writer that tees every word into the checksum.
struct ChecksummedWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> ChecksummedWriter<W> {
    fn new(inner: W) -> Self {
        ChecksummedWriter { inner, hash: Fnv1a::new() }
    }

    fn put_u64(&mut self, word: u64) -> std::io::Result<()> {
        self.hash.update_words(&[word]);
        self.inner.write_all(&word.to_le_bytes())
    }
}

/// Serialises `g` into a `.ecsr` file at `path` (created or truncated).
///
/// The file holds four 8-aligned little-endian `u64` sections — CSR offsets,
/// half-edge targets, half-edge edge ids, and per-edge endpoint pairs — plus
/// an 80-byte header with counts, section offsets and an FNV-1a checksum
/// folded over all section words. See [`crate::format_spec`] for the byte
/// layout.
///
/// # Errors
/// Propagates I/O errors as [`GraphError::Io`].
pub fn write_csr_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    let mut file = File::create(path)?;
    let n = g.num_vertices();
    let m = g.num_edges();
    let half_edges = 2 * m;

    let offsets_off = HEADER_BYTES;
    let targets_off = offsets_off + 8 * (n + 1);
    let edge_ids_off = targets_off + 8 * half_edges;
    let endpoints_off = edge_ids_off + 8 * half_edges;

    // Header with a zero checksum placeholder; rewritten once sections are
    // hashed. Streaming keeps peak memory at the BufWriter's buffer.
    let mut header = [0u8; HEADER_BYTES as usize];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    header[16..24].copy_from_slice(&n.to_le_bytes());
    header[24..32].copy_from_slice(&m.to_le_bytes());
    header[32..40].copy_from_slice(&offsets_off.to_le_bytes());
    header[40..48].copy_from_slice(&targets_off.to_le_bytes());
    header[48..56].copy_from_slice(&edge_ids_off.to_le_bytes());
    header[56..64].copy_from_slice(&endpoints_off.to_le_bytes());
    file.write_all(&header)?;

    let mut w = ChecksummedWriter::new(BufWriter::new(&mut file));
    // Offsets section: running half-edge count per vertex, then the total.
    let mut running = 0u64;
    for v in g.vertices() {
        w.put_u64(running)?;
        running += g.degree(v);
    }
    w.put_u64(running)?;
    debug_assert_eq!(running, half_edges);
    // Targets then edge-ids sections, in adjacency (insertion) order.
    for v in g.vertices() {
        for &(nbr, _) in g.neighbors(v) {
            w.put_u64(nbr.0)?;
        }
    }
    for v in g.vertices() {
        for &(_, e) in g.neighbors(v) {
            w.put_u64(e.0)?;
        }
    }
    // Endpoints section: (u, v) per edge in EdgeId (insertion) order.
    for (_, u, v) in g.edges() {
        w.put_u64(u.0)?;
        w.put_u64(v.0)?;
    }
    let checksum = w.hash.finish();
    w.inner.flush()?;
    drop(w);

    file.seek(SeekFrom::Start(64))?;
    file.write_all(&checksum.to_le_bytes())?;
    file.flush()?;
    Ok(())
}

/// A validated, memory-mapped `.ecsr` file.
///
/// All accessors read the mapped bytes in place; nothing is copied. The CSR
/// arrays follow the same conventions as [`crate::Csr`]: vertex `v`'s
/// incident half-edges occupy `targets()[offsets()[v]..offsets()[v+1]]` (and
/// `edge_ids()` in parallel), with a self-loop appearing twice.
#[derive(Debug)]
pub struct CsrFile {
    path: PathBuf,
    map: Mmap,
    num_vertices: u64,
    num_edges: u64,
    offsets: Range<usize>,
    targets: Range<usize>,
    edge_ids: Range<usize>,
    endpoints: Range<usize>,
}

impl CsrFile {
    /// Opens and fully validates the `.ecsr` file at `path`: header fields,
    /// section bounds and alignment, the FNV-1a checksum over every section
    /// word, and the structural CSR invariants (monotone offsets, in-range
    /// vertex/edge ids, and per-vertex degree agreement between the
    /// endpoints and offsets sections). After `open` succeeds, no
    /// file-corruption failure remains: the slice accessors and
    /// [`to_graph`](Self::to_graph) cannot panic or read out of bounds, and
    /// [`partitioned`](Self::partitioned) can only fail on a caller-side
    /// mismatch (an assignment that does not cover this file's vertices).
    ///
    /// # Errors
    /// [`GraphError::Io`] on filesystem failures, [`GraphError::CsrFormat`]
    /// for every malformed-file condition.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<CsrFile, GraphError> {
        let this = Self::open_trusted(path)?;
        this.validate()?;
        Ok(this)
    }

    /// Opens the file checking only the header frame (magic, version,
    /// endianness, section bounds and alignment) — no checksum pass, no
    /// structural scan, so nothing beyond the header is paged in.
    ///
    /// Use this for very large files from a trusted local producer; the
    /// zero-copy accessors then fault pages in lazily as partitions touch
    /// them. A corrupt section will surface downstream rather than as a typed
    /// error here: as wrong results, as an out-of-range panic in
    /// [`degree`](Self::degree), [`first_odd_vertex`](Self::first_odd_vertex)
    /// or [`to_graph`](Self::to_graph) — or, from
    /// [`partitioned`](Self::partitioned) and the pipeline's level-0 loader,
    /// which look every endpoint up checked, as
    /// [`GraphError::VertexOutOfRange`].
    ///
    /// # Errors
    /// Same as [`open`](Self::open) minus the checksum/structure cases.
    pub fn open_trusted<P: AsRef<Path>>(path: P) -> Result<CsrFile, GraphError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let map = Mmap::map(&file)?;
        let len = map.len() as u64;
        // Every header read below is bounds-checked: the bytes come straight
        // from disk and may be arbitrarily short or corrupt, and open errors
        // are typed, never panics.
        if map.get(0..8) != Some(MAGIC.as_slice()) {
            let mut found = [0u8; 8];
            for (dst, &src) in found.iter_mut().zip(map.iter()) {
                *dst = src;
            }
            return Err(CsrFileError::BadMagic { found }.into());
        }
        if len < HEADER_BYTES {
            return Err(CsrFileError::Truncated {
                what: "header",
                needed: HEADER_BYTES,
                actual: len,
            }
            .into());
        }
        let le_u32 = |at: usize| {
            map.get(at..at + 4)
                .and_then(|s| s.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or(CsrFileError::Truncated { what: "header", needed: HEADER_BYTES, actual: len })
        };
        let le_u64 = |at: usize| {
            map.get(at..at + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or(CsrFileError::Truncated { what: "header", needed: HEADER_BYTES, actual: len })
        };
        let tag = le_u32(12)?;
        if tag != ENDIAN_TAG || cfg!(target_endian = "big") {
            // A big-endian host cannot reinterpret the little-endian sections
            // in place; report it the same way as a foreign-endian file.
            return Err(CsrFileError::ForeignEndianness { tag }.into());
        }
        let version = le_u32(8)?;
        if version != VERSION {
            return Err(CsrFileError::UnsupportedVersion { found: version, supported: VERSION }.into());
        }
        let num_vertices = le_u64(16)?;
        let num_edges = le_u64(24)?;
        let offsets_words = num_vertices
            .checked_add(1)
            .ok_or(CsrFileError::Invalid { message: "vertex count overflows".into() })?;
        let half_edges = num_edges
            .checked_mul(2)
            .ok_or(CsrFileError::Invalid { message: "edge count overflows".into() })?;

        let section = |what: &'static str, off: u64, words: u64| -> Result<Range<usize>, GraphError> {
            if !off.is_multiple_of(8) {
                return Err(CsrFileError::Misaligned { what, offset: off }.into());
            }
            let bytes = words
                .checked_mul(8)
                .and_then(|b| off.checked_add(b))
                .ok_or(CsrFileError::Invalid { message: format!("section {what} overflows") })?;
            if off < HEADER_BYTES || bytes > len {
                return Err(CsrFileError::Truncated { what, needed: bytes, actual: len }.into());
            }
            Ok(off as usize..bytes as usize)
        };
        let offsets = section("offsets", le_u64(32)?, offsets_words)?;
        let targets = section("targets", le_u64(40)?, half_edges)?;
        let edge_ids = section("edge_ids", le_u64(48)?, half_edges)?;
        let endpoints = section("endpoints", le_u64(56)?, half_edges)?;

        Ok(CsrFile { path, map, num_vertices, num_edges, offsets, targets, edge_ids, endpoints })
    }

    /// Recomputes the section checksum and checks the CSR invariants the
    /// zero-copy consumers rely on, in one pass over each section: the range
    /// and order checks and the degree count ride along the checksum fold.
    /// A checksum mismatch is reported before any structural error, and the
    /// structural errors in a fixed order (offsets, targets, edge ids,
    /// endpoints, degrees), each naming the first offending word.
    fn validate(&self) -> Result<(), GraphError> {
        let expected = self
            .map
            .get(64..72)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or(CsrFileError::Truncated {
                what: "checksum",
                needed: HEADER_BYTES,
                actual: self.map.len() as u64,
            })?;
        let (n, m) = (self.num_vertices, self.num_edges);
        let mut hash = Fnv1a::new();
        let (mut descending, mut previous) = (false, 0);
        hash.fold(self.offsets(), |o| {
            descending |= o < previous;
            previous = o;
        });
        let mut target_out = false;
        hash.fold(self.targets(), |t| target_out |= t >= n);
        let mut edge_out = false;
        hash.fold(self.edge_ids(), |e| edge_out |= e >= m);
        // The degree of every vertex under the endpoints section (a self-loop
        // counts twice, matching the duplicated adjacency entry).
        let (mut degrees, mut endpoint_out) = (vec![0u64; n as usize], false);
        hash.fold(self.endpoints_flat(), |v| match degrees.get_mut(v as usize) {
            Some(d) => *d += 1,
            None => endpoint_out = true,
        });
        let actual = hash.finish();
        if actual != expected {
            return Err(CsrFileError::ChecksumMismatch { expected, actual }.into());
        }

        let invalid = |message: String| GraphError::from(CsrFileError::Invalid { message });
        let offsets = self.offsets();
        let half_edges = 2 * m;
        if offsets.first() != Some(&0) {
            return Err(invalid("offsets[0] must be 0".into()));
        }
        if descending {
            return Err(invalid("offsets must be monotonically non-decreasing".into()));
        }
        let last = offsets
            .last()
            .copied()
            .ok_or_else(|| invalid("offsets section is empty".into()))?;
        if last != half_edges {
            return Err(invalid(format!("offsets[{n}] = {last} but the graph has {half_edges} half-edges")));
        }
        // Rescanned only when the fold saw an offender, to name the first.
        fn first_out(out: bool, words: &[u64], bound: u64) -> Option<u64> {
            out.then(|| words.iter().copied().find(|&w| w >= bound)).flatten()
        }
        if let Some(t) = first_out(target_out, self.targets(), n) {
            return Err(invalid(format!("target vertex {t} out of range (n = {n})")));
        }
        if let Some(e) = first_out(edge_out, self.edge_ids(), m) {
            return Err(invalid(format!("edge id {e} out of range (m = {m})")));
        }
        if let Some(v) = first_out(endpoint_out, self.endpoints_flat(), n) {
            return Err(invalid(format!("endpoint vertex {v} out of range (n = {n})")));
        }
        // Cross-check the two graph descriptions: the endpoints' degrees must
        // equal the offsets ranges. This is what lets the pipeline run its
        // Eulerian pre-check off the offsets while slicing partitions from
        // the endpoints.
        for (v, (&d, w)) in degrees.iter().zip(offsets.windows(2)).enumerate() {
            let &[lo, hi] = w else { continue };
            if d != hi - lo {
                return Err(invalid(format!(
                    "vertex v{v} has degree {d} under the endpoints section but {} under offsets",
                    hi - lo
                )));
            }
        }
        Ok(())
    }

    /// The path the file was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Reinterprets a validated byte range as a `u64` slice, in place.
    fn words(&self, range: &Range<usize>) -> &[u64] {
        let bytes = &self.map[range.clone()];
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0, "sections are 8-aligned");
        // SAFETY: the range is in bounds (validated at open), its length is a
        // multiple of 8 by construction, the mapping's base is 8-aligned
        // (page-aligned mmap or the shim's word-backed fallback) and section
        // offsets are validated to be 8-aligned; u64 has no invalid bit
        // patterns and the mapping outlives `self`.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) }
    }

    /// CSR offsets: `num_vertices + 1` entries, `offsets()[v]..offsets()[v+1]`
    /// indexing the half-edges of vertex `v`.
    pub fn offsets(&self) -> &[u64] {
        self.words(&self.offsets)
    }

    /// Half-edge target vertices, `2 * num_edges` entries.
    pub fn targets(&self) -> &[u64] {
        self.words(&self.targets)
    }

    /// Half-edge edge identifiers, parallel to [`targets`](Self::targets).
    pub fn edge_ids(&self) -> &[u64] {
        self.words(&self.edge_ids)
    }

    /// Endpoint pairs in edge-id order, flattened: edge `e` has endpoints
    /// `(flat[2e], flat[2e + 1])` in original insertion order.
    pub fn endpoints_flat(&self) -> &[u64] {
        self.words(&self.endpoints)
    }

    /// Degree of `v` (self-loops count twice), straight from the offsets.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let offsets = self.offsets();
        offsets[v.index() + 1] - offsets[v.index()]
    }

    /// First vertex with odd degree, if any — the Eulerian pre-check, read
    /// from the offsets section alone (no edge data is touched).
    pub fn first_odd_vertex(&self) -> Option<(VertexId, u64)> {
        let offsets = self.offsets();
        (0..self.num_vertices as usize)
            .map(|v| (VertexId(v as u64), offsets[v + 1] - offsets[v]))
            .find(|&(_, d)| d % 2 == 1)
    }

    /// Reconstructs the exact [`Graph`] this file was written from: same
    /// vertex count, same edge ids and endpoint order, same adjacency order.
    /// One pass over the mapped sections with exact preallocation — no
    /// [`crate::GraphBuilder`] involved.
    pub fn to_graph(&self) -> Graph {
        let n = self.num_vertices as usize;
        let offsets = self.offsets();
        let targets = self.targets();
        let edge_ids = self.edge_ids();
        let endpoints: Vec<(VertexId, VertexId)> = self
            .endpoints_flat()
            .chunks_exact(2)
            .map(|p| (VertexId(p[0]), VertexId(p[1])))
            .collect();
        let mut adjacency: Vec<Vec<(VertexId, EdgeId)>> = Vec::with_capacity(n);
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            adjacency.push(
                targets[lo..hi]
                    .iter()
                    .zip(&edge_ids[lo..hi])
                    .map(|(&t, &e)| (VertexId(t), EdgeId(e)))
                    .collect(),
            );
        }
        Graph { num_vertices: self.num_vertices, endpoints, adjacency }
    }

    /// Builds the partition-centric view (§3.1 of the paper) for
    /// `assignment` straight from the mapped endpoint section — the same
    /// partitions, in the same order, as
    /// [`PartitionedGraph::from_assignment`] over the original graph, without
    /// ever materialising the graph.
    ///
    /// This is the oracle; the pipeline no longer calls it. A run builds its
    /// level-0 partition states from the same section in two passes of its
    /// own (`euler-core`'s level-0 loader) and is tested to equal this view
    /// converted state by state.
    ///
    /// # Errors
    /// [`GraphError::IncompleteAssignment`] when the assignment does not
    /// cover every vertex of the file; [`GraphError::VertexOutOfRange`] for
    /// an endpoint beyond it (possible only in a file opened with
    /// [`open_trusted`](Self::open_trusted)).
    pub fn partitioned(&self, assignment: &PartitionAssignment) -> Result<PartitionedGraph, GraphError> {
        // The mapped endpoints section iterates in ascending edge id — the
        // same order as `Graph::edges` — and both paths share the one
        // partition-view construction, so the partitions come out identical
        // to `PartitionedGraph::from_assignment` over the original graph.
        let edges = self
            .endpoints_flat()
            .chunks_exact(2)
            .enumerate()
            .map(|(e, pair)| (EdgeId(e as u64), VertexId(pair[0]), VertexId(pair[1])));
        crate::partitioned::build_partition_view(self.num_vertices, self.num_edges, assignment, edges)
    }

    /// The file's FNV-1a content checksum, as recorded in its header — the
    /// identity of the graph's *content* (two files packed from the same
    /// graph carry the same checksum). [`open`](Self::open) has already
    /// verified it against the sections; this accessor just reads it back,
    /// so it can serve as a registry/cache key.
    pub fn checksum(&self) -> u64 {
        self.map
            .get(64..72)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0)
    }

    /// Total size of the mapped file in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.map.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::csr::Csr;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("euler_graph_csr_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn assert_graphs_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for (e, u, v) in a.edges() {
            assert_eq!((u, v), b.endpoints(e), "endpoints of {e}");
        }
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v), "adjacency of {v}");
        }
    }

    #[test]
    fn roundtrip_reconstructs_the_exact_graph() {
        // Parallel edges, a self-loop, an isolated vertex, inverted-order
        // endpoints — everything the format must preserve verbatim.
        let mut b = crate::builder::GraphBuilder::with_vertices(7);
        b.extend_edges([(0, 1), (1, 0), (5, 2), (2, 2), (3, 1), (1, 3)]);
        let g = b.build().unwrap();
        let path = temp_path("roundtrip.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        assert_eq!(csr.num_vertices(), 7);
        assert_eq!(csr.num_edges(), 6);
        assert_graphs_identical(&g, &csr.to_graph());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_match_in_memory_csr() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]);
        let path = temp_path("sections.ecsr");
        write_csr_file(&g, &path).unwrap();
        let file = CsrFile::open(&path).unwrap();
        let mem = Csr::from_graph(&g);
        for v in g.vertices() {
            assert_eq!(file.degree(v), mem.degree(v));
            let lo = file.offsets()[v.index()] as usize;
            let hi = file.offsets()[v.index() + 1] as usize;
            let (targets, edges) = mem.neighbors(v);
            assert_eq!(
                &file.targets()[lo..hi],
                targets.iter().map(|t| t.0).collect::<Vec<_>>().as_slice()
            );
            assert_eq!(
                &file.edge_ids()[lo..hi],
                edges.iter().map(|e| e.0).collect::<Vec<_>>().as_slice()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::empty(4);
        let path = temp_path("empty.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 0);
        assert!(csr.first_odd_vertex().is_none());
        assert_graphs_identical(&g, &csr.to_graph());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn first_odd_vertex_reads_offsets_only() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]); // v0 and v2 odd
        let path = temp_path("odd.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        assert_eq!(csr.first_odd_vertex(), Some((VertexId(0), 1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partitioned_matches_from_assignment() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 1)]);
        let path = temp_path("partitioned.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let a = PartitionAssignment::from_labels(vec![0, 0, 1, 1, 1], 2).unwrap();
        let from_file = csr.partitioned(&a).unwrap();
        let from_graph = PartitionedGraph::from_assignment(&g, &a).unwrap();
        assert_eq!(from_file.num_partitions(), from_graph.num_partitions());
        assert_eq!(from_file.cut_edges(), from_graph.cut_edges());
        assert_eq!(from_file.num_edges(), from_graph.num_edges());
        for (pf, pg) in from_file.partitions().iter().zip(from_graph.partitions()) {
            assert_eq!(pf.id, pg.id);
            assert_eq!(pf.internal, pg.internal);
            assert_eq!(pf.boundary, pg.boundary);
            assert_eq!(pf.local_edges, pg.local_edges);
            assert_eq!(pf.remote_edges, pg.remote_edges);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partitioned_rejects_short_assignment() {
        let g = graph_from_edges(&[(0, 1), (1, 0)]);
        let path = temp_path("short_assignment.ecsr");
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let a = PartitionAssignment::from_labels(vec![0], 1).unwrap();
        assert!(matches!(csr.partitioned(&a), Err(GraphError::IncompleteAssignment { .. })));
        std::fs::remove_file(&path).ok();
    }

    // --- Corrupt-file cases: each must fail with its typed error. ----------

    fn written(name: &str) -> (PathBuf, Vec<u8>) {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let path = temp_path(name);
        write_csr_file(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    fn open_err(path: &PathBuf, bytes: &[u8]) -> CsrFileError {
        std::fs::write(path, bytes).unwrap();
        match CsrFile::open(path) {
            Err(GraphError::CsrFormat(e)) => {
                std::fs::remove_file(path).ok();
                e
            }
            other => panic!("expected CsrFormat error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let (path, mut bytes) = written("bad_magic.ecsr");
        bytes[0] = b'X';
        assert!(matches!(open_err(&path, &bytes), CsrFileError::BadMagic { .. }));
    }

    #[test]
    fn text_file_is_bad_magic_not_a_panic() {
        let path = temp_path("textfile.ecsr");
        assert!(matches!(
            open_err(&path, b"0 1\n1 2\n2 0\n"),
            CsrFileError::BadMagic { .. }
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let (path, mut bytes) = written("bad_version.ecsr");
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            open_err(&path, &bytes),
            CsrFileError::UnsupportedVersion { found: 99, supported: VERSION }
        );
    }

    #[test]
    fn foreign_endianness_is_typed() {
        let (path, mut bytes) = written("bad_endian.ecsr");
        bytes[12..16].copy_from_slice(&ENDIAN_TAG.to_be_bytes());
        assert_eq!(
            open_err(&path, &bytes),
            CsrFileError::ForeignEndianness { tag: 0x0403_0201 }
        );
    }

    #[test]
    fn truncated_header_is_typed() {
        let (path, bytes) = written("trunc_header.ecsr");
        assert!(matches!(
            open_err(&path, &bytes[..40]),
            CsrFileError::Truncated { what: "header", .. }
        ));
    }

    #[test]
    fn truncated_section_is_typed() {
        let (path, bytes) = written("trunc_section.ecsr");
        // Cut the file mid-way through the endpoints section.
        assert!(matches!(
            open_err(&path, &bytes[..bytes.len() - 8]),
            CsrFileError::Truncated { what: "endpoints", .. }
        ));
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch() {
        let (path, mut bytes) = written("bitflip.ecsr");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(open_err(&path, &bytes), CsrFileError::ChecksumMismatch { .. }));
    }

    #[test]
    fn misaligned_section_is_typed() {
        let (path, mut bytes) = written("misaligned.ecsr");
        bytes[32..40].copy_from_slice(&81u64.to_le_bytes());
        assert_eq!(
            open_err(&path, &bytes),
            CsrFileError::Misaligned { what: "offsets", offset: 81 }
        );
    }

    #[test]
    fn structural_violation_is_typed() {
        let (path, mut bytes) = written("bad_structure.ecsr");
        // Corrupt offsets[0] (first word of the offsets section at byte 80)
        // and re-stamp the checksum so the structural check is what fires.
        bytes[80..88].copy_from_slice(&7u64.to_le_bytes());
        let mut hash = Fnv1a::new();
        let words: Vec<u64> = bytes[HEADER_BYTES as usize..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        hash.update_words(&words);
        let checksum = hash.finish();
        bytes[64..72].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(open_err(&path, &bytes), CsrFileError::Invalid { .. }));
    }

    #[test]
    fn endpoints_disagreeing_with_offsets_are_typed() {
        let (path, mut bytes) = written("endpoint_mismatch.ecsr");
        // Rewrite edge 0's endpoints from (0, 1) to (1, 1): every id stays in
        // range and the checksum is re-stamped, but v0's degree under the
        // endpoints section no longer matches its offsets range.
        bytes[0xd0..0xd8].copy_from_slice(&1u64.to_le_bytes());
        let mut hash = Fnv1a::new();
        let words: Vec<u64> = bytes[HEADER_BYTES as usize..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        hash.update_words(&words);
        bytes[64..72].copy_from_slice(&hash.finish().to_le_bytes());
        match open_err(&path, &bytes) {
            CsrFileError::Invalid { message } => {
                assert!(message.contains("degree"), "unexpected message {message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn open_trusted_skips_payload_validation() {
        let (path, mut bytes) = written("trusted.ecsr");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Frame checks still run; payload damage goes unnoticed by design.
        let csr = CsrFile::open_trusted(&path).unwrap();
        assert_eq!(csr.num_edges(), 3);
        assert!(matches!(
            CsrFile::open(&path),
            Err(GraphError::CsrFormat(CsrFileError::ChecksumMismatch { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        assert!(matches!(
            CsrFile::open("/nonexistent/euler/graph.ecsr"),
            Err(GraphError::Io(_))
        ));
    }

    #[test]
    fn error_displays_name_the_problem() {
        let e = CsrFileError::UnsupportedVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains("version 9"));
        let e = CsrFileError::Truncated { what: "targets", needed: 100, actual: 50 };
        assert!(e.to_string().contains("targets"));
        let e = CsrFileError::ChecksumMismatch { expected: 1, actual: 2 };
        assert!(e.to_string().contains("checksum"));
        let e = CsrFileError::Misaligned { what: "offsets", offset: 81 };
        assert!(e.to_string().contains("81"));
        let e: GraphError = CsrFileError::BadMagic { found: [0; 8] }.into();
        assert!(e.to_string().contains("magic"));
    }
}
