//! The workers of the merge-tree walk — stepped in place or behind a wire
//! transport — with superstep checkpointing and kill-and-resume recovery for
//! the latter.
//!
//! [`crate::pipeline::BspBackend`] deals the partitions to a set of
//! **workers** — whole merge subtrees together where the balance allows it
//! (`crate::placement`) — and [`crate::pipeline::InProcessBackend`] is one
//! worker holding them all; either drives one barrier per merge level. A worker
//! holds its partitions' states between levels (a `SlotSet`) and runs each
//! through the shared level step (`crate::level`). A state retiring into a
//! parent the same worker holds is handed over by value; what goes to a
//! parent on another worker it *encodes*, and what arrives it decodes, so the
//! shuffle is measured in bytes. One fold turns a barrier's results into the
//! superstep's statistics, the next level's inboxes and the walk's outcome.
//!
//! Where the workers live is all that varies. Without a transport they are
//! slot sets of this process, stepped **in place** — the first on the calling
//! thread, one scoped thread per further worker — fragments pushed straight
//! into the walk's store; a BSP worker steps its slots one at a time, the
//! in-process one fans them out on rayon. With one, a **coordinator** owns
//! the walk and the workers are OS threads over the in-memory transport, or
//! genuine OS *processes* spawned via `std::process::Command` running the
//! `euler-worker` binary over the TCP transport, exchanging typed
//! messages through the framed, checksummed codec of
//! [`euler_bsp::transport`] — the rest of this page.
//!
//! ## Protocol
//!
//! ```text
//! worker                         coordinator
//!   | -- Hello{worker} ------------> |      (handshake, after connect)
//!   | <-- Init{plan, tree, seeds     |      (again after a detected death)
//!   |     | file | checkpoint s} --- |
//!   | -- Ready{ckpt longs,           |
//!   |     build ns, refusal} ------> |
//!   |                                |      per merge level L:
//!   | <-- Start{L, child states} --- |
//!   |  …compute, heartbeats…         |
//!   | -- Done{L, reports, ships,     |
//!   |         segments, ckpt} -----> |      (barrier: validate, adopt)
//!   |                                |
//!   | <-- Shutdown ----------------- |
//!   | -- Bye ----------------------> |
//! ```
//!
//! An Init ends in the worker's seed, tagged: `0` its level-0 partition
//! states, encoded — what a run whose level 0 is resident ships — `1` a
//! *reference* to the `.ecsr` the coordinator mapped: path, header identity
//! (checksum, n, m), partition count, a mask of the partitions the worker
//! owns, and the assignment's labels packed two per word — or `2` a
//! superstep `s`: the worker's own checkpoint entering it. Given a reference
//! the worker opens the file frame-checked only ([`CsrFile::open_trusted`]),
//! refuses it unless the three identity words are the ones it was sent — the
//! coordinator's open validated a file with that checksum — and builds its
//! own partitions with the level-0 loader (`crate::level0`): its own scan,
//! so no count in the payload sizes an allocation, then a fill of the
//! partitions the mask names. The loader looks every endpoint up checked, so
//! a file that changed under the same header ends the worker with a typed
//! error. Ready reports what that took in three words: the Longs of the
//! checkpoint it restored (0 after a level-0 seed, which writes none); the
//! nanoseconds from Init to states; and a refusal — `0` none, `1` no
//! checkpoint to restore, `2` one found and ignored.
//!
//! ## Determinism & recovery invariant
//!
//! A fragment's id is `(superstep, slot, sequence)` wherever it is found
//! (see [`FragmentId`]), so its identity is independent of worker count,
//! scheduling, and recovery history. A worker sends a level's fragments as
//! the records its own store held them as; at each committed barrier the
//! coordinator validates the received ranges once and its fragment store
//! adopts them where they lie, under the ids they were found with, where
//! they read exactly as an in-process level's do. A distributed run's circuit is
//! bit-identical to the sequential in-process run, killed or not.
//!
//! After each superstep a worker persists what a rollback reinstates — its
//! slots and the states kept for the next level's merges, two lists in the
//! wire codec — to a versioned checkpoint file: `ckpt-w{W}-s{K}` holds the
//! state *entering* superstep `K ≥ 1` (entering 0, the retained Init tails
//! are that state). Every way a worker gets its state is an Init. When the
//! coordinator detects a death during superstep `s ≥ 1` it respawns each
//! dead worker once, stops and joins the survivors' receivers under a new
//! epoch, and re-Inits every worker from checkpoint `s`; it then re-delivers
//! the superstep `s` inputs it retained and resumes. At `s = 0`, with
//! checkpointing off, or on any refusal, it re-Inits every worker in place
//! from the Init tails it retained — states or reference — and replays
//! supersteps `0..s` deterministically.

use crate::error::EulerError;
use crate::fragment::{FragmentId, FragmentStore, Segment, SegmentHead};
use crate::level::{group_inbound, step_slot, SlotStep};
use crate::level0::{self, FileLevel0};
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::{MergePair, MergeTree};
use crate::phase1::ArenaPool;
use crate::pipeline::{wire, LevelOutcome, LevelPartitionReport, Seed, SeedKind};
use crate::placement::Placement;
use crate::state::{VertexTypeCounts, WorkingPartition};
use euler_bsp::checkpoint::{
    checkpoint_file, read_checkpoint, write_checkpoint, CheckpointError,
};
use euler_bsp::fault::{FaultPlan, FaultPolicy, KillMode, RecoveryStats};
use euler_bsp::transport::{
    connect_endpoint, connect_with_retry, Connection, FrameError, Listener, Transport,
};
use euler_bsp::wire::{word_u32, WireError, WordReader, WordWriter};
use euler_bsp::{BspConfig, EngineStats, PlatformCostModel, SuperstepStats};
use euler_graph::{CsrFile, PartitionAssignment, PartitionId};
use euler_metrics::TimeBreakdown;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Protocol messages over the shared word codec (`euler_bsp::wire`).
//
// Partition states and fragments are the bulk of every message. A worker
// encodes states straight into the outgoing payload and decodes them straight
// out of the received one; fragments it sends as the buffers they are stored
// in. The coordinator, which only routes states, parses a Done into counters
// plus byte ranges (`Blob`): the states' it sends on as parts of the next
// Start, the fragments' its store validates and keeps.
// ---------------------------------------------------------------------------

mod kind {
    pub const HELLO: u16 = 1;
    pub const INIT: u16 = 2;
    pub const READY: u16 = 3;
    pub const START: u16 = 4;
    pub const DONE: u16 = 5;
    pub const HEARTBEAT: u16 = 6;
    pub const SHUTDOWN: u16 = 7;
    pub const BYE: u16 = 8;
}

fn encode_tree(out: &mut WordWriter, tree: &MergeTree) {
    out.u(tree.levels.len() as u64);
    for level in &tree.levels {
        out.u(level.len() as u64);
        for p in level {
            out.words(&[p.parent.0 as u64, p.child.0 as u64, p.weight]);
        }
    }
    out.u(tree.root.0 as u64);
    out.u(tree.leaves.len() as u64);
    for l in &tree.leaves {
        out.u(l.0 as u64);
    }
}

fn decode_tree(r: &mut WordReader<'_>) -> Result<MergeTree, WireError> {
    let n_levels = r.count()?;
    let mut levels = Vec::with_capacity(r.cap(n_levels, 1));
    for _ in 0..n_levels {
        let n_pairs = r.count()?;
        let mut pairs = Vec::with_capacity(r.cap(n_pairs, 3));
        for _ in 0..n_pairs {
            let [parent, child, weight] = r.array()?;
            pairs.push(MergePair {
                parent: PartitionId(word_u32(parent, "parent")?),
                child: PartitionId(word_u32(child, "child")?),
                weight,
            });
        }
        levels.push(pairs);
    }
    let root = PartitionId(word_u32(r.u()?, "root")?);
    let n_leaves = r.count()?;
    let mut leaves = Vec::with_capacity(r.cap(n_leaves, 1));
    for _ in 0..n_leaves {
        leaves.push(PartitionId(word_u32(r.u()?, "leaf")?));
    }
    // Every (level, leaf) of the tree must be nameable by a fragment id.
    if levels.len() as u64 >= FragmentId::MAX_LEVELS as u64
        || leaves.iter().any(|l| l.0 >= FragmentId::MAX_PARTITIONS)
    {
        return Err(WireError::Invalid("merge tree exceeds the fragment id layout".into()));
    }
    // Indexed by what was decoded, not by id: one table entry per (distinct
    // id read above, level + 1), and the same answers as the level scan.
    Ok(MergeTree::from_parts(levels, root, leaves))
}

/// Refuses partition states the worker's merge tree has no slot for.
fn check_slots(tree: &MergeTree, states: &[WorkingPartition]) -> Result<(), WireError> {
    match states.iter().find(|wp| !tree.leaves.contains(&wp.id)) {
        Some(wp) => Err(WireError::Invalid(format!("state of unknown partition {}", wp.id.0))),
        None => Ok(()),
    }
}

/// Appends a state list — `[n, n × (len, state record)]` — the body of
/// Init seeds, Start inboxes and checkpointed slots alike.
fn encode_states<'a>(
    out: &mut WordWriter,
    states: impl ExactSizeIterator<Item = &'a WorkingPartition>,
) {
    out.u(states.len() as u64);
    for wp in states {
        encode_state(out, wp);
    }
}

/// Appends one length-prefixed state record.
fn encode_state(out: &mut WordWriter, wp: &WorkingPartition) {
    out.u(wire::record_words(wp) as u64);
    wire::encode(wp, out);
}

/// Reads a state list as far as its framing: the records, each bounded to
/// its length prefix and still encoded.
fn state_records<'a>(r: &mut WordReader<'a>) -> Result<Vec<WordReader<'a>>, WireError> {
    let n = r.count()?;
    let mut records = Vec::with_capacity(r.cap(n, 1));
    for _ in 0..n {
        records.push(r.record()?);
    }
    Ok(records)
}

fn decode_states(r: &mut WordReader<'_>) -> Result<Vec<WorkingPartition>, WireError> {
    state_records(r)?.into_iter().map(|mut record| wire::decode(&mut record)).collect()
}

/// Words of framing a segment list holds per segment.
const SEGMENT_FRAMING_WORDS: usize = 5;

/// The framing of a segment list — `[n, n × (level, partition, first_seq,
/// n_records, len)]` — which the segments' records follow back to back, each
/// run sent from the buffer its store held it in; the runs of one `(level,
/// partition)` arrive as one segment. A worker's store starts every
/// superstep empty, so its segments start at sequence 0.
fn segment_framing(runs: &[Segment]) -> WordWriter {
    let mut out = WordWriter::from_words(&[0]);
    let mut segments = 0;
    for of_one in runs.chunk_by(|a, b| (a.level, a.partition) == (b.level, b.partition)) {
        segments += 1;
        let records: usize = of_one.iter().map(Segment::records).sum();
        let len: usize = of_one.iter().map(|run| run.bytes().len() / 8).sum();
        let (level, partition) = (of_one[0].level as u64, of_one[0].partition.0 as u64);
        out.words(&[level, partition, 0, records as u64, len as u64]);
    }
    out.set(0, segments);
    out
}

/// Reads a segment list as far as its framing: each segment's head and the
/// word range of its records, still unread.
fn read_segments(r: &mut WordReader<'_>) -> Result<Vec<(SegmentHead, Range<usize>)>, WireError> {
    let n = r.count()?;
    let mut segments = Vec::with_capacity(r.cap(n, SEGMENT_FRAMING_WORDS));
    // The records follow the framing, back to back.
    let mut at = r.position().saturating_add(n.saturating_mul(SEGMENT_FRAMING_WORDS));
    for _ in 0..n {
        let [level, partition, first_seq, records, len] = r.array()?;
        // Saturating: a coordinate beyond its field is refused by the
        // validator, not wrapped into a valid one.
        let field = |w: u64| u32::try_from(w).unwrap_or(u32::MAX);
        let head =
            SegmentHead { level: field(level), partition: PartitionId(field(partition)), first_seq, records };
        let end = at.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
        segments.push((head, at..end));
        at = end;
    }
    r.take(at - r.position())?;
    Ok(segments)
}

/// Everything a worker needs to run besides its partition states: the head
/// of the Init message, which the tagged seed ([`SeedTail`]) follows.
struct InitHead {
    worker_id: u32,
    strategy: MergeStrategy,
    heartbeat_interval: Duration,
    kill: Option<(u32, u32)>,
    checkpoint_dir: Option<PathBuf>,
    tree: Arc<MergeTree>,
}

fn encode_init_head(m: &InitHead) -> WordWriter {
    let mut out = WordWriter::new();
    out.words(&[m.worker_id as u64, m.strategy.wire_code(), m.heartbeat_interval.as_nanos() as u64]);
    match m.kill {
        Some((w, s)) => out.words(&[1, w as u64, s as u64]),
        None => out.words(&[0, 0, 0]),
    }
    match &m.checkpoint_dir {
        Some(d) => {
            out.u(1);
            out.str(&d.to_string_lossy());
        }
        None => out.u(0),
    }
    encode_tree(&mut out, &m.tree);
    out
}

fn decode_init(payload: &[u8]) -> Result<(InitHead, SeedTail), WireError> {
    let mut r = WordReader::new(payload)?;
    let [worker_id, strategy, heartbeat_ns, kill_flag, kill_w, kill_s, has_dir] = r.array()?;
    let strategy = MergeStrategy::from_wire_code(strategy)?;
    let checkpoint_dir = if has_dir != 0 { Some(PathBuf::from(r.str()?)) } else { None };
    let head = InitHead {
        worker_id: word_u32(worker_id, "worker id")?,
        strategy,
        heartbeat_interval: Duration::from_nanos(heartbeat_ns),
        kill: if kill_flag != 0 { Some((word_u32(kill_w, "kill worker")?, word_u32(kill_s, "kill step")?)) } else { None },
        checkpoint_dir,
        tree: Arc::new(decode_tree(&mut r)?),
    };
    let seed = decode_seed(&mut r, &head.tree)?;
    Ok((head, seed))
}

/// The tail of an Init: where the worker's states come from.
enum SeedTail {
    /// The level-0 states, shipped.
    States(Vec<WorkingPartition>),
    /// The `.ecsr` they are to be built from.
    File(FileRef),
    /// The worker's own checkpoint entering this superstep.
    Checkpoint(u32),
}

mod seed_tag {
    pub const STATES: u64 = 0;
    pub const FILE: u64 = 1;
    pub const CHECKPOINT: u64 = 2;
}

/// A reference to the level 0 the coordinator holds mapped.
struct FileRef {
    path: PathBuf,
    /// Checksum, vertex count and edge count of the file's header.
    identity: [u64; 3],
    /// Bit `p` set: partition `p` is this worker's.
    owned: Vec<u64>,
    assignment: PartitionAssignment,
}

/// Encodes the part of a file-reference tail that differs by worker:
/// `[1, path, checksum, n, m, P, ⌈P/64⌉ mask words]`. The labels follow,
/// the same for every worker ([`encode_labels`]).
fn encode_file_ref(csr: &CsrFile, num_partitions: u32, owned: &[u64]) -> WordWriter {
    let mut out = WordWriter::from_words(&[seed_tag::FILE]);
    out.str(&csr.path().to_string_lossy());
    out.words(&[csr.checksum(), csr.num_vertices(), csr.num_edges(), u64::from(num_partitions)]);
    out.words(owned);
    out
}

/// The assignment's labels, two per word, the earlier vertex in the low half.
fn encode_labels(assignment: &PartitionAssignment) -> WordWriter {
    let labels = assignment.labels();
    let mut out = WordWriter::with_capacity(labels.len().div_ceil(2));
    for pair in labels.chunks(2) {
        let half = |at: usize| pair.get(at).map_or(0, |p| u64::from(p.0));
        out.u(half(0) | half(1) << 32);
    }
    out
}

/// Decodes an Init's tail. Every length it reads is bounded by the payload
/// before anything is allocated for it: the partition count must be the
/// tree's leaf count, the mask and the labels must be there in full.
fn decode_seed(r: &mut WordReader<'_>, tree: &MergeTree) -> Result<SeedTail, WireError> {
    match r.u()? {
        seed_tag::STATES => {
            let seeds = decode_states(r)?;
            check_slots(tree, &seeds)?;
            Ok(SeedTail::States(seeds))
        }
        seed_tag::FILE => {
            let path = PathBuf::from(r.str()?);
            let [checksum, n, m, parts] = r.array()?;
            let num_partitions = u32::try_from(parts)
                .ok()
                .filter(|&p| p as usize == tree.leaves.len())
                .ok_or_else(|| {
                    WireError::Invalid(format!(
                        "level-0 reference names {parts} partitions, the tree has {}",
                        tree.leaves.len()
                    ))
                })?;
            let mask_words = (num_partitions as usize).div_ceil(64);
            let mut owned = Vec::with_capacity(r.cap(mask_words, 1));
            for _ in 0..mask_words {
                owned.push(r.u()?);
            }
            let num_labels = usize::try_from(n).unwrap_or(usize::MAX);
            let mut labels =
                Vec::with_capacity(r.cap(num_labels.div_ceil(2), 1).saturating_mul(2));
            while labels.len() < num_labels {
                let word = r.u()?;
                // The high half of the last word of an odd count is padding.
                for label in [word as u32, (word >> 32) as u32] {
                    if labels.len() < num_labels {
                        labels.push(PartitionId(label));
                    }
                }
            }
            r.finish()?;
            let assignment = PartitionAssignment::new(labels, num_partitions)
                .map_err(|e| WireError::Invalid(format!("level-0 reference: {e}")))?;
            Ok(SeedTail::File(FileRef { path, identity: [checksum, n, m], owned, assignment }))
        }
        seed_tag::CHECKPOINT => {
            let superstep = r.u()?;
            r.finish()?;
            u32::try_from(superstep).map(SeedTail::Checkpoint).map_err(|_| {
                WireError::Invalid(format!("checkpoint seed names superstep {superstep}"))
            })
        }
        tag => Err(WireError::Invalid(format!("unknown seed tag {tag}"))),
    }
}

/// Builds the worker's level-0 states from the file the coordinator named:
/// opened frame-checked, refused unless its header identity is the Init's,
/// then the loader's two passes — the worker's own scan, and a fill of the
/// partitions it owns.
fn build_from_file(
    file: &FileRef,
    tree: &MergeTree,
    strategy: MergeStrategy,
) -> Result<Vec<WorkingPartition>, String> {
    let at = file.path.display();
    let bad = |e: euler_graph::GraphError| format!("level-0 file {at}: {e}");
    let csr = CsrFile::open_trusted(&file.path).map_err(bad)?;
    let found = [csr.checksum(), csr.num_vertices(), csr.num_edges()];
    if found != file.identity {
        return Err(format!(
            "level-0 file {at} is not the one the coordinator mapped: its header (checksum, \
             vertices, edges) reads {found:x?}, the Init names {:x?}",
            file.identity
        ));
    }
    let assignment = &file.assignment;
    if !level0::cut_matrix_fits(&csr, assignment.num_partitions()) {
        return Err(format!(
            "level-0 file {at}: {} partitions make a cut matrix larger than the file",
            assignment.num_partitions()
        ));
    }
    let scan = level0::scan_file(&csr, assignment).map_err(bad)?;
    let level0 = FileLevel0 { csr: &csr, assignment, scan, dedup: strategy.deduplicates() };
    let owned = |p: PartitionId| {
        file.owned.get(p.index() / 64).is_some_and(|word| word >> (p.index() % 64) & 1 == 1)
    };
    let states = level0.fill(owned).map_err(bad)?;
    check_slots(tree, &states)?;
    Ok(states)
}

/// Reads a Start as far as its framing: the superstep and the inbound state
/// records, which the slot set decodes ([`SlotSet::unpack`]).
fn decode_start(payload: &[u8]) -> Result<(u32, Vec<WordReader<'_>>), WireError> {
    let mut r = WordReader::new(payload)?;
    Ok((word_u32(r.u()?, "superstep")?, state_records(&mut r)?))
}

/// One slot's line of a worker's share of a level: its record, the state's
/// `memory_longs` after Phase 1, and the two codec buckets of Fig. 6 (merge
/// and tour time are in the record).
#[derive(Debug, PartialEq)]
struct SlotReport {
    report: LevelPartitionReport,
    post_memory: u64,
    /// Decoding the child states merged into this slot.
    unpack: Duration,
    /// Encoding the state for its merge parent; zero if it stayed.
    ship: Duration,
}

impl SlotReport {
    /// Words of one report in a Done (the level is the message's).
    const WORDS: usize = 21;

    fn encode(&self, out: &mut WordWriter) {
        let r = &self.report;
        out.words(&[
            r.partition.0 as u64,
            r.counts.even_internal,
            r.counts.even_boundary,
            r.counts.odd_boundary,
            r.counts.remote_edges,
            r.counts.local_edges,
            r.complexity,
            r.phase1_time.as_nanos() as u64,
            r.merge_time.as_nanos() as u64,
            r.memory_longs,
            r.remote_needed_now,
            r.transfer_in_longs,
            r.paths_found,
            r.cycles_found,
            r.internal_cycles_merged,
            r.splice_pivot_lookups,
            r.splice_linked_splices,
            r.splice_materialization_longs,
            self.post_memory,
            self.unpack.as_nanos() as u64,
            self.ship.as_nanos() as u64,
        ]);
    }

    fn decode(level: u32, r: &mut WordReader<'_>) -> Result<Self, WireError> {
        let [partition, even_internal, even_boundary, odd_boundary, remote_edges, local_edges, complexity, phase1_ns, merge_ns, memory_longs, remote_needed_now, transfer_in_longs, paths_found, cycles_found, internal_cycles_merged, splice_pivot_lookups, splice_linked_splices, splice_materialization_longs, post_memory, unpack_ns, ship_ns] =
            r.array::<{ Self::WORDS }>()?;
        Ok(SlotReport {
            report: LevelPartitionReport {
                level,
                partition: PartitionId(word_u32(partition, "partition")?),
                counts: VertexTypeCounts {
                    even_internal,
                    even_boundary,
                    odd_boundary,
                    remote_edges,
                    local_edges,
                },
                complexity,
                phase1_time: Duration::from_nanos(phase1_ns),
                merge_time: Duration::from_nanos(merge_ns),
                memory_longs,
                remote_needed_now,
                transfer_in_longs,
                paths_found,
                cycles_found,
                internal_cycles_merged,
                splice_pivot_lookups,
                splice_linked_splices,
                splice_materialization_longs,
            },
            post_memory,
            unpack: Duration::from_nanos(unpack_ns),
            ship: Duration::from_nanos(ship_ns),
        })
    }
}

/// A worker's share of one level, built while it steps its slots: a line
/// per slot, the states it shipped to other workers, encoded once, where
/// they will be read from — `(destination, len, state record)` entries, the
/// `outgoing` section of a Done — and the count of those it kept for a
/// parent of its own.
struct LevelShare {
    reports: Vec<SlotReport>,
    /// `[n_out, n_out × entry]`, the count kept current as entries are added.
    outgoing: WordWriter,
    shipped: u64,
    transfer_longs: u64,
    /// States handed over by value, and the bytes their records would have
    /// encoded to.
    local_messages: u64,
    local_bytes: u64,
}

impl LevelShare {
    fn new() -> Self {
        LevelShare {
            reports: Vec::new(),
            outgoing: WordWriter::from_words(&[0]),
            shipped: 0,
            transfer_longs: 0,
            local_messages: 0,
            local_bytes: 0,
        }
    }

    /// Ships `wp` to the worker holding partition `to`.
    fn ship(&mut self, to: u32, wp: &WorkingPartition) {
        self.shipped += 1;
        self.outgoing.set(0, self.shipped);
        self.outgoing.u(to as u64);
        encode_state(&mut self.outgoing, wp);
    }

    /// The share as the barrier fold reads it, with nothing framed: the
    /// shipped entries are ranges of the buffer they were encoded into, and
    /// the fragments are wherever the worker pushed them.
    fn into_done(self, superstep: u32) -> Result<DoneMsg, WireError> {
        let buf = Arc::new(self.outgoing.into_bytes());
        let outgoing = read_outgoing(&mut WordReader::new(&buf)?, &buf)?;
        Ok(DoneMsg {
            superstep,
            reports: self.reports,
            outgoing,
            fragments: None,
            transfer_longs: self.transfer_longs,
            checkpoint_longs: 0,
            local_messages: self.local_messages,
            local_bytes: self.local_bytes,
        })
    }
}

/// A wire worker's answer to a Start — its share of the level plus what only
/// a remote worker has to send (the fragments it found, its checkpoint
/// accounting) — sent as a part list, never concatenated:
///
/// ```text
/// reports    [superstep, n_reports, n_reports × 21 report words]
/// outgoing   [n_out, n_out × (destination, len, state record)]
/// fragments  [n_segs, n_segs × (level, partition, first_seq, n_records, len)]
///            then each segment's `len` words of records, as its store held
///            them
/// tail       [transfer_longs, checkpoint_longs, local_messages, local_bytes]
/// ```
struct DoneWriter {
    superstep: u32,
    share: LevelShare,
    fragments: Vec<Segment>,
    checkpoint_longs: u64,
}

impl DoneWriter {
    /// Sends the message as its part list.
    fn send(&self, conn: &dyn Connection) -> Result<(), FrameError> {
        let lines = &self.share.reports;
        let mut reports = WordWriter::with_capacity(2 + SlotReport::WORDS * lines.len());
        reports.words(&[self.superstep as u64, lines.len() as u64]);
        lines.iter().for_each(|line| line.encode(&mut reports));
        let tail = WordWriter::from_words(&[
            self.share.transfer_longs,
            self.checkpoint_longs,
            self.share.local_messages,
            self.share.local_bytes,
        ]);
        let framing = segment_framing(&self.fragments);
        let mut parts =
            vec![reports.as_bytes(), self.share.outgoing.as_bytes(), framing.as_bytes()];
        parts.extend(self.fragments.iter().map(Segment::bytes));
        parts.push(tail.as_bytes());
        conn.send_parts(kind::DONE, &parts)
    }
}

/// A byte range of a buffer of encoded words: relayed, or decoded later,
/// without being copied out of the buffer it was received or encoded in.
#[derive(Clone)]
struct Blob {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Blob {
    fn words(buf: &Arc<Vec<u8>>, words: Range<usize>) -> Self {
        Blob { buf: Arc::clone(buf), range: 8 * words.start..8 * words.end }
    }

    fn bytes(&self) -> &[u8] {
        self.buf.get(self.range.clone()).unwrap_or_default()
    }
}

/// A worker's share of a level as the barrier fold reads it: the reports
/// and counters, decoded, and where the shipped states (and, from a wire
/// worker, the fragment list) lie in the buffer that holds them — those are
/// routed and retained as bytes.
struct DoneMsg {
    superstep: u32,
    reports: Vec<SlotReport>,
    /// `(destination partition, its `(len, state record)` entry)` ships —
    /// each range is a ready-made entry of the next Start's state list.
    outgoing: Vec<(u32, Blob)>,
    /// A wire worker's segments, read as far as their framing; validated and
    /// adopted where they lie when the barrier commits
    /// ([`adopt_fragments`]). `None` from a worker stepped in place, whose
    /// fragments are in the walk's store already.
    fragments: Option<Vec<(SegmentHead, Blob)>>,
    transfer_longs: u64,
    checkpoint_longs: u64,
    /// States the worker handed a parent of its own by value, and the bytes
    /// their records would have encoded to.
    local_messages: u64,
    local_bytes: u64,
}

/// Every worker's share of one level, tagged with the worker.
type Dones = Vec<(u32, DoneMsg)>;

/// Reads an `outgoing` section into `(destination, entry)` ranges of `buf`,
/// the buffer `r` reads.
fn read_outgoing(
    r: &mut WordReader<'_>,
    buf: &Arc<Vec<u8>>,
) -> Result<Vec<(u32, Blob)>, WireError> {
    let n_out = r.count()?;
    let mut outgoing = Vec::with_capacity(r.cap(n_out, 2));
    for _ in 0..n_out {
        let to = word_u32(r.u()?, "destination")?;
        let entry = r.position();
        r.record()?;
        outgoing.push((to, Blob::words(buf, entry..r.position())));
    }
    Ok(outgoing)
}

fn decode_done(payload: Arc<Vec<u8>>) -> Result<DoneMsg, WireError> {
    let mut r = WordReader::new(&payload)?;
    let superstep = word_u32(r.u()?, "superstep")?;
    let n_reports = r.count()?;
    let mut reports = Vec::with_capacity(r.cap(n_reports, SlotReport::WORDS));
    for _ in 0..n_reports {
        reports.push(SlotReport::decode(superstep, &mut r)?);
    }
    let outgoing = read_outgoing(&mut r, &payload)?;
    let segments = read_segments(&mut r)?;
    let fragments =
        Some(segments.into_iter().map(|(head, at)| (head, Blob::words(&payload, at))).collect());
    let [transfer_longs, checkpoint_longs, local_messages, local_bytes] = r.array()?;
    Ok(DoneMsg {
        superstep,
        reports,
        outgoing,
        fragments,
        transfer_longs,
        checkpoint_longs,
        local_messages,
        local_bytes,
    })
}

/// Moves a committed Done's segments into `store`: each is validated once,
/// in place, and adopted as the byte range it arrived in. The store refuses
/// a segment that is not the next of its `(level, partition)`, a malformed
/// record and a virtual edge that references nothing.
fn adopt_fragments(list: &[(SegmentHead, Blob)], store: &FragmentStore) -> Result<(), EulerError> {
    for (head, records) in list {
        store
            .adopt(head, &records.buf, records.range.clone())
            .map_err(|e| EulerError::Distributed(format!("committed fragment list: {e}")))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// A worker's reason for refusing a checkpoint seed.
#[derive(Debug)]
struct RestoreRefusal {
    /// True when a checkpoint file was read but detected as unusable and
    /// ignored (vs one that could not be opened, or checkpointing disabled).
    ignored: bool,
}

/// The states arriving at a level, decoded, grouped by the slot they merge
/// into, in merge order — each with the time its decode took.
type Inbound = BTreeMap<PartitionId, Vec<(WorkingPartition, Duration)>>;

/// The partition states one worker holds between levels, keyed by slot
/// (= partition id), with the tree they walk and the Phase-1 arenas reused
/// across them. The same object whether the worker is stepped in place or
/// serves a connection.
struct SlotSet {
    tree: Arc<MergeTree>,
    strategy: MergeStrategy,
    slots: BTreeMap<PartitionId, WorkingPartition>,
    /// The states the last level retired into slots of this set, waiting to
    /// be merged at the next: handed over by value, never encoded.
    kept: Vec<WorkingPartition>,
    pool: ArenaPool,
    /// Step a level's slots on rayon rather than one at a time.
    fan_out: bool,
}

impl SlotSet {
    fn new(
        tree: Arc<MergeTree>,
        strategy: MergeStrategy,
        states: Vec<WorkingPartition>,
        fan_out: bool,
    ) -> Self {
        let slots = states.into_iter().map(|wp| (wp.id, wp)).collect();
        SlotSet { tree, strategy, slots, kept: Vec::new(), pool: ArenaPool::new(), fan_out }
    }

    /// Decodes the state records arriving at a level and groups them, with
    /// the states kept here (decode time zero), for its merges. A record
    /// that does not decode, a state the previous level did not ship, a
    /// second state of one child, and one for a slot this worker does not
    /// hold are typed errors.
    fn unpack(&mut self, level: u32, records: Vec<WordReader<'_>>) -> Result<Inbound, EulerError> {
        let kept = std::mem::take(&mut self.kept);
        let mut states: Vec<_> = kept.into_iter().map(|wp| (wp, Duration::ZERO)).collect();
        states.reserve(records.len());
        for mut record in records {
            let t0 = Instant::now();
            let wp = wire::decode(&mut record)
                .map_err(|e| EulerError::Distributed(format!("inbound partition state: {e}")))?;
            states.push((wp, t0.elapsed()));
        }
        let held = |p: PartitionId| self.slots.contains_key(&p);
        group_inbound(&self.tree, level, states, |(wp, _)| wp.id, held)
    }

    /// Steps every slot through the level, Phase 1 persisting into `store` —
    /// on rayon if the set fans out, else one at a time — and folds the steps
    /// in ascending slot order: a state the tree retires leaves its slot —
    /// kept, by value, if its merge parent is a slot of this set, encoded
    /// into the share otherwise.
    fn step_level(&mut self, level: u32, mut inbound: Inbound, store: &FragmentStore) -> LevelShare {
        let held: Vec<PartitionId> = self.slots.keys().copied().collect();
        let slots: Vec<_> = std::mem::take(&mut self.slots)
            .into_values()
            .map(|wp| {
                let (children, unpack): (Vec<_>, Vec<Duration>) =
                    inbound.remove(&wp.id).unwrap_or_default().into_iter().unzip();
                (wp, children, unpack.into_iter().sum::<Duration>())
            })
            .collect();
        let (tree, strategy, pool) = (&*self.tree, self.strategy, &self.pool);
        let step = |(wp, children, unpack)| {
            (step_slot(wp, children, tree, level, strategy, pool, store), unpack)
        };
        let mut share = LevelShare::new();
        let mut fold = |(step, unpack): (SlotStep, Duration)| {
            let t0 = Instant::now();
            let ship = match step.ship {
                Some((parent, longs)) => {
                    share.transfer_longs += longs;
                    if held.binary_search(&parent).is_ok() {
                        share.local_messages += 1;
                        share.local_bytes += 8 * wire::record_words(&step.state) as u64;
                        self.kept.push(step.state);
                        Duration::ZERO
                    } else {
                        share.ship(parent.0, &step.state);
                        t0.elapsed()
                    }
                }
                None => {
                    self.slots.insert(step.state.id, step.state);
                    Duration::ZERO
                }
            };
            let (report, post_memory) = (step.report, step.memory_after);
            share.reports.push(SlotReport { report, post_memory, unpack, ship });
        };
        if self.fan_out {
            slots.into_par_iter().map(step).collect::<Vec<_>>().into_iter().for_each(&mut fold);
        } else {
            slots.into_iter().map(step).for_each(&mut fold);
        }
        share
    }
}

/// A wire worker's live state between supersteps.
struct WorkerState {
    init: InitHead,
    set: SlotSet,
    kill_consumed: bool,
}

impl WorkerState {
    fn build(init: InitHead, seeds: Vec<WorkingPartition>) -> Self {
        let set = SlotSet::new(Arc::clone(&init.tree), init.strategy, seeds, false);
        WorkerState { init, set, kill_consumed: false }
    }

    /// Writes the checkpoint entering `superstep`: the slot states, then the
    /// states kept for that superstep's merges — what [`Self::restore`]
    /// reinstates, and nothing else (the coordinator adopted the fragments
    /// at the barrier). Returns Longs written: 0 when checkpointing is off
    /// or the write failed, which the coordinator warns of.
    fn write_ckpt(&self, superstep: u32) -> u64 {
        let Some(dir) = &self.init.checkpoint_dir else { return 0 };
        let path = checkpoint_file(dir, self.init.worker_id, superstep);
        let mut states = WordWriter::new();
        encode_states(&mut states, self.set.slots.values());
        encode_states(&mut states, self.set.kept.iter());
        write_checkpoint(&path, states.as_bytes()).unwrap_or_default()
    }

    /// Restores the state entering `superstep` from this worker's
    /// checkpoint. A refusal says whether a file was read but unusable
    /// (torn write, foreign version or magic, bad checksum, a payload that
    /// does not decode) — i.e. *ignored* — as opposed to one that could not
    /// be opened, or no checkpointing at all.
    fn restore(&mut self, superstep: u32) -> Result<u64, RestoreRefusal> {
        let Some(dir) = &self.init.checkpoint_dir else {
            return Err(RestoreRefusal { ignored: false });
        };
        let path = checkpoint_file(dir, self.init.worker_id, superstep);
        let payload = match read_checkpoint(&path) {
            Ok(p) => p,
            Err(CheckpointError::Missing) => {
                return Err(RestoreRefusal { ignored: false })
            }
            Err(_) => return Err(RestoreRefusal { ignored: true }),
        };
        let decode = || -> Result<[Vec<WorkingPartition>; 2], WireError> {
            let mut r = WordReader::new(&payload)?;
            let states = [decode_states(&mut r)?, decode_states(&mut r)?];
            r.finish()?;
            Ok(states)
        };
        match decode() {
            Ok([slots, kept]) => {
                self.set.slots = slots.into_iter().map(|wp| (wp.id, wp)).collect();
                self.set.kept = kept;
                Ok(payload.len() as u64 / 8)
            }
            Err(_) => Err(RestoreRefusal { ignored: true }),
        }
    }

    /// Runs one superstep: steps the slots, their fragments going through a
    /// store of the superstep's own — which hands out the same `(level,
    /// slot, seq)` ids a shared store would, so nothing is renumbered on the
    /// way out — whose segments go into the Done as they are; then
    /// checkpoints.
    fn superstep(&mut self, superstep: u32, inbound: Inbound) -> DoneWriter {
        let store = FragmentStore::new();
        let share = self.set.step_level(superstep, inbound, &store);
        let fragments = store.segments();
        let checkpoint_longs = self.write_ckpt(superstep + 1);
        DoneWriter { superstep, share, fragments, checkpoint_longs }
    }
}

/// Runs the worker protocol loop over an established connection. Returns
/// when told to shut down, or exits early on an injected kill / protocol
/// failure (the coordinator sees the connection drop and recovers). An
/// injected kill takes the worker down in `kill_mode`, the one its kind of
/// worker can take.
pub(crate) fn run_worker(
    conn: Arc<dyn Connection>,
    worker_id: u32,
    kill_mode: KillMode,
) -> Result<(), String> {
    conn.send_words(kind::HELLO, &[worker_id as u64])
        .map_err(|e| format!("hello failed: {e}"))?;

    let mut state: Option<WorkerState> = None;
    // Heartbeats flow only while a superstep is being computed; an idle
    // worker is silent, so a worker that never received its Start (dropped
    // frame) is indistinguishable from a dead one — by design, the
    // coordinator's timeout recovers both the same way.
    let busy = Arc::new(AtomicBool::new(false));
    // The heartbeat thread waits on this channel between beats; dropping the
    // sender wakes it at once, so ending the worker never waits out a beat.
    let (stop, stopped) = mpsc::channel::<()>();
    let mut stopped = Some(stopped);
    let mut heartbeat: Option<std::thread::JoinHandle<()>> = None;

    let result = loop {
        let (k, payload) = match conn.recv_timeout(None) {
            Ok(f) => f,
            Err(FrameError::Closed) => break Ok(()),
            Err(e) => break Err(format!("worker recv failed: {e}")),
        };
        // A payload that does not decode ends the worker with a typed
        // error; the coordinator sees the connection drop and recovers.
        let step = (|| -> Result<bool, String> {
            match k {
                kind::INIT => {
                    let t_seed = Instant::now();
                    let (init, seed) = decode_init(&payload)?;
                    drop(payload);
                    let (mut st, restore) = match seed {
                        SeedTail::States(seeds) => (WorkerState::build(init, seeds), None),
                        SeedTail::File(file) => {
                            let seeds = build_from_file(&file, &init.tree, init.strategy)?;
                            (WorkerState::build(init, seeds), None)
                        }
                        SeedTail::Checkpoint(s) => (WorkerState::build(init, Vec::new()), Some(s)),
                    };
                    let restored = restore.map(|s| st.restore(s));
                    let seed_ns = t_seed.elapsed().as_nanos() as u64;
                    // A level-0 seed writes no checkpoint: the coordinator
                    // keeps the seed itself for a re-Init.
                    let [longs, refusal] = match restored {
                        None => [0, 0],
                        Some(Ok(longs)) => [longs, 0],
                        Some(Err(refusal)) => [0, 1 + u64::from(refusal.ignored)],
                    };
                    if let Some(stopped) = stopped.take() {
                        let interval = st.init.heartbeat_interval;
                        let conn2 = Arc::clone(&conn);
                        let busy2 = Arc::clone(&busy);
                        heartbeat = Some(std::thread::spawn(move || loop {
                            match stopped.recv_timeout(interval) {
                                Err(RecvTimeoutError::Timeout) => {}
                                _ => return,
                            }
                            if busy2.load(Ordering::Relaxed)
                                && conn2.send(kind::HEARTBEAT, &[]).is_err()
                            {
                                return;
                            }
                        }));
                    }
                    state = Some(st);
                    conn.send_words(kind::READY, &[longs, seed_ns, refusal])
                        .map_err(|e| format!("ready failed: {e}"))?;
                }
                kind::START => {
                    let st = state.as_mut().ok_or("Start before Init")?;
                    let (superstep, records) = decode_start(&payload)?;
                    if superstep > st.init.tree.height() {
                        return Err(format!("Start of superstep {superstep} beyond the tree"));
                    }
                    busy.store(true, Ordering::Relaxed);
                    if let Some((kw, ks)) = st.init.kill {
                        if kw == st.init.worker_id && ks == superstep && !st.kill_consumed {
                            st.kill_consumed = true;
                            match kill_mode {
                                // Thread workers can't be SIGKILLed individually:
                                // dying is dropping the connection mid-superstep.
                                KillMode::Exit => return Ok(false),
                                // Process workers stall so the coordinator's
                                // SIGKILL lands mid-superstep, before any Done.
                                KillMode::Stall => {
                                    std::thread::sleep(Duration::from_millis(600))
                                }
                            }
                        }
                    }
                    let inbound = st.set.unpack(superstep, records).map_err(|e| e.to_string())?;
                    drop(payload);
                    let done = st.superstep(superstep, inbound);
                    let send = done.send(conn.as_ref());
                    busy.store(false, Ordering::Relaxed);
                    send.map_err(|e| format!("done failed: {e}"))?;
                }
                kind::SHUTDOWN => {
                    conn.send(kind::BYE, &[]).ok();
                    return Ok(false);
                }
                other => return Err(format!("unexpected frame kind {other} at worker")),
            }
            Ok(true)
        })();
        match step {
            Ok(true) => {}
            Ok(false) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    drop(stop);
    if let Some(h) = heartbeat {
        h.join().ok();
    }
    result
}

/// Entry point of the `euler-worker` binary: connect to the coordinator
/// `endpoint` (`tcp:HOST:PORT`) and serve as worker `worker_id` until shut
/// down. A process worker stalls at an injected kill, so the coordinator's
/// SIGKILL lands mid-superstep.
pub fn worker_main(endpoint: &str, worker_id: u32) -> Result<(), String> {
    let conn = connect_endpoint(endpoint)
        .map_err(|e| format!("worker {worker_id} could not connect to {endpoint}: {e}"))?;
    run_worker(Arc::from(conn), worker_id, KillMode::Stall)
}

/// Resolves the worker binary to spawn for process workers:
/// `$EULER_WORKER_BIN` if set, else an `euler-worker` next to (or one
/// directory above) the current executable — which covers both installed
/// layouts and cargo's `target/debug/deps/` test binaries.
pub fn default_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("EULER_WORKER_BIN") {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join("euler-worker"), dir.parent()?.join("euler-worker")]
        .into_iter()
        .find(|cand| cand.is_file())
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// How the coordinator brings workers into existence.
#[derive(Clone, Debug)]
pub(crate) enum WorkerSpawn {
    /// Worker threads in this process (any transport).
    Threads,
    /// Worker *processes* running the given binary (the TCP transport only).
    Processes { worker_bin: PathBuf },
}

/// How a run's workers are brought up and kept alive behind a transport.
pub(crate) struct FleetConfig {
    pub transport: Arc<dyn Transport>,
    pub spawn: WorkerSpawn,
    pub checkpoint_dir: Option<PathBuf>,
    pub policy: FaultPolicy,
    pub plan: FaultPlan,
}

enum Event {
    Frame { worker: u32, epoch: u64, kind: u16, payload: Vec<u8> },
    Dead { worker: u32, epoch: u64 },
}

struct WorkerHandle {
    conn: Arc<dyn Connection>,
    child: Option<std::process::Child>,
    epoch: u64,
    restarts: u32,
    last_heard: Instant,
    stop_rx: Arc<AtomicBool>,
    recv_handle: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// Stops the receiver thread, kills and reaps the worker process, joins
    /// the receiver. A retired handle's connection closes when the handle
    /// is dropped, which ends a thread worker still waiting on it.
    fn retire(&mut self) {
        self.stop_rx.store(true, Ordering::Relaxed);
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        self.join_receiver();
    }

    /// Joins the receiver thread, which leaves within one poll once its
    /// stop flag is set.
    fn join_receiver(&mut self) {
        if let Some(recv) = self.recv_handle.take() {
            recv.join().ok();
        }
    }
}

/// The coordinator's side of a fleet of wire workers: spawns them, drives
/// one barrier of frames per merge level, detects deaths, and recovers.
struct Fleet {
    cfg: FleetConfig,
    placement: Arc<Placement>,
    tree: Arc<MergeTree>,
    strategy: MergeStrategy,
    /// Each worker's Init tail ([`SeedTail`]), encoded once and retained for
    /// re-Init: its level-0 states, or its reference to the file.
    seeds_by_worker: Vec<WordWriter>,
    /// What follows every worker's tail: a file reference's labels, else
    /// nothing.
    seed_labels: WordWriter,
    listener: Box<dyn Listener>,
    workers: Vec<WorkerHandle>,
    events_tx: mpsc::Sender<Event>,
    events_rx: mpsc::Receiver<Event>,
    recovery: RecoveryStats,
    warnings: Vec<String>,
    /// Payload bytes of every Init sent.
    init_bytes: u64,
    /// The longest a worker took from its Init to its states.
    seed_build: Duration,
    /// A failed checkpoint write has been warned of (once per run).
    unwritten_warned: bool,
    kill_consumed: bool,
    start_seq: u64,
    shut_down: bool,
}

impl Fleet {
    /// Spawns and initialises the worker fleet over the level-0 seed. The
    /// workers are launched first, so a process starts while the Init tails
    /// are being encoded ([`init_tails`]).
    fn new(
        cfg: FleetConfig,
        placement: Arc<Placement>,
        tree: Arc<MergeTree>,
        strategy: MergeStrategy,
        seed: Seed<'_>,
    ) -> Result<Self, EulerError> {
        let listener = cfg
            .transport
            .listen()
            .map_err(|e| EulerError::Distributed(format!("listen failed: {e}")))?;
        let (events_tx, events_rx) = mpsc::channel();
        let num_workers = placement.num_workers();
        let mut fleet = Fleet {
            cfg,
            placement,
            tree,
            strategy,
            seeds_by_worker: Vec::new(),
            seed_labels: WordWriter::new(),
            listener,
            workers: Vec::new(),
            events_tx,
            events_rx,
            recovery: RecoveryStats::default(),
            warnings: Vec::new(),
            init_bytes: 0,
            seed_build: Duration::ZERO,
            unwritten_warned: false,
            kill_consumed: false,
            start_seq: 0,
            shut_down: false,
        };
        let all: Vec<u32> = (0..num_workers as u32).collect();
        let children = fleet.launch_all(&all)?;
        match init_tails(seed, &fleet.placement) {
            Ok((tails, labels)) => (fleet.seeds_by_worker, fleet.seed_labels) = (tails, labels),
            Err(e) => {
                reap(children);
                return Err(e);
            }
        }
        fleet.attach(&all, children)?;
        fleet.init_all(None)?;
        Ok(fleet)
    }

    fn num_workers(&self) -> usize {
        self.placement.num_workers()
    }

    /// Shuts the fleet down (Shutdown/Bye), reaps workers, and removes the
    /// checkpoint files the run could have written — then the checkpoint
    /// directory, if that left it empty. Nothing else in it is touched.
    fn shut_down(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        for h in &self.workers {
            h.conn.send(kind::SHUTDOWN, &[]).ok();
        }
        // Best-effort Bye drain so sockets flush before teardown.
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut byes = 0;
        while byes < self.workers.len() && Instant::now() < deadline {
            match self.events_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Frame { kind: kind::BYE, .. }) => byes += 1,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        self.workers.iter_mut().for_each(WorkerHandle::retire);
        if let Some(dir) = &self.cfg.checkpoint_dir {
            for w in 0..self.num_workers() as u32 {
                for s in 1..=self.tree.num_supersteps() {
                    let file = checkpoint_file(dir, w, s);
                    std::fs::remove_file(file.with_extension("tmp")).ok();
                    std::fs::remove_file(file).ok();
                }
            }
            std::fs::remove_dir(dir).ok();
        }
    }

    // -- internals ----------------------------------------------------------

    /// Launches workers `ws`, all or none: if one fails to start, those
    /// already started are reaped.
    fn launch_all(&self, ws: &[u32]) -> Result<Vec<Option<std::process::Child>>, EulerError> {
        let mut children = Vec::with_capacity(ws.len());
        match ws.iter().try_for_each(|&w| self.launch(w).map(|child| children.push(child))) {
            Ok(()) => Ok(children),
            Err(e) => {
                reap(children);
                Err(e)
            }
        }
    }

    /// Accepts the launched workers `ws` and installs their handles; a
    /// respawned worker's replaces the old handle, retired, under the next
    /// epoch.
    fn attach(
        &mut self,
        ws: &[u32],
        children: Vec<Option<std::process::Child>>,
    ) -> Result<(), EulerError> {
        let mut conns = match self.accept_hellos(ws) {
            Ok(conns) => conns,
            Err(e) => {
                reap(children);
                return Err(e);
            }
        };
        for (&w, child) in ws.iter().zip(children) {
            let mut handle = WorkerHandle {
                conn: conns.remove(&w).expect("accept_hellos returns every expected worker"),
                child,
                epoch: 0,
                restarts: 0,
                last_heard: Instant::now(),
                stop_rx: Arc::new(AtomicBool::new(false)),
                recv_handle: None,
            };
            if let Some(existing) = self.workers.get_mut(w as usize) {
                existing.retire();
                (handle.epoch, handle.restarts) = (existing.epoch + 1, existing.restarts);
                *existing = handle;
            } else {
                debug_assert_eq!(self.workers.len(), w as usize);
                self.workers.push(handle);
            }
        }
        Ok(())
    }

    /// Starts worker `w` — a thread, or an `euler-worker` process — dialling
    /// the coordinator's endpoint.
    fn launch(&self, w: u32) -> Result<Option<std::process::Child>, EulerError> {
        let endpoint = self.listener.endpoint();
        match &self.cfg.spawn {
            WorkerSpawn::Threads => {
                let transport = Arc::clone(&self.cfg.transport);
                std::thread::spawn(move || {
                    let Ok(conn) = connect_with_retry(transport.as_ref(), &endpoint) else {
                        return;
                    };
                    // A worker death (injected or real) is just this thread
                    // returning; the coordinator recovers from the dropped
                    // connection, so the error itself needs no channel.
                    run_worker(Arc::from(conn), w, KillMode::Exit).ok();
                });
                Ok(None)
            }
            WorkerSpawn::Processes { worker_bin } => std::process::Command::new(worker_bin)
                .arg("--endpoint")
                .arg(&endpoint)
                .arg("--worker-id")
                .arg(w.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
                .map(Some)
                .map_err(|e| {
                    EulerError::Distributed(format!(
                        "spawning worker process {} failed: {e}",
                        worker_bin.display()
                    ))
                }),
        }
    }

    /// Accepts connections until every worker of `ws` has said Hello (they
    /// connect in any order). A connection that closes, stays silent or
    /// sends anything but an expected worker's Hello is dropped, and
    /// accepting goes on until the deadline.
    fn accept_hellos(
        &self,
        ws: &[u32],
    ) -> Result<BTreeMap<u32, Arc<dyn Connection>>, EulerError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut conns: BTreeMap<u32, Arc<dyn Connection>> = BTreeMap::new();
        while conns.len() < ws.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let missing: Vec<u32> =
                    ws.iter().copied().filter(|w| !conns.contains_key(w)).collect();
                return Err(EulerError::Distributed(format!(
                    "worker(s) {missing:?} never connected"
                )));
            }
            let conn = match self.listener.accept(left) {
                Ok(conn) => conn,
                Err(FrameError::Timeout) => continue,
                Err(e) => return Err(EulerError::Distributed(format!("accept failed: {e}"))),
            };
            // The TCP transport refuses a zero read timeout.
            let left = deadline.saturating_duration_since(Instant::now());
            let hello = match conn.recv_timeout(Some(left.max(Duration::from_millis(1)))) {
                Ok((kind::HELLO, payload)) => WordReader::new(&payload).and_then(|mut r| r.u()).ok(),
                _ => None,
            };
            let expected =
                ws.iter().copied().find(|&w| Some(u64::from(w)) == hello && !conns.contains_key(&w));
            if let Some(w) = expected {
                // A stalled worker must not block a coordinator send past the
                // fault deadlines: bound every send by the heartbeat timeout
                // so a full socket buffer surfaces as FrameError::Timeout and
                // flows into the existing send-retry / dead-worker path.
                conn.set_send_timeout(Some(self.cfg.policy.heartbeat_timeout));
                conns.insert(w, Arc::from(conn));
            }
            // Anything else — a stray, or a Hello from a late, stale worker —
            // is dropped; a worker's connection closing sends it back through
            // spawn recovery.
        }
        Ok(conns)
    }

    /// Inits every worker — from its retained level-0 tail, or from its
    /// checkpoint entering superstep `checkpoint` — under a new epoch: every
    /// receiver is stopped, then joined (one poll between them), so frames
    /// of an abandoned barrier stay behind and the Readys are read here. All
    /// Inits go out before the first Ready is awaited, so the workers build
    /// their states side by side. Returns true with the fleet up, receivers
    /// running; false, receivers stopped, if any worker refused its
    /// checkpoint.
    fn init_all(&mut self, checkpoint: Option<u32>) -> Result<bool, EulerError> {
        self.workers.iter().for_each(|h| h.stop_rx.store(true, Ordering::Relaxed));
        for h in &mut self.workers {
            h.join_receiver();
            h.epoch += 1;
            h.stop_rx = Arc::new(AtomicBool::new(false));
        }
        let all = 0..self.num_workers() as u32;
        all.clone().try_for_each(|w| self.send_init(w, checkpoint))?;
        let mut up = true;
        for w in all {
            up &= self.await_ready(w, checkpoint)?;
        }
        if up {
            self.start_receivers();
        }
        Ok(up)
    }

    /// Sends Init: the head, then this worker's retained tail or the
    /// checkpoint seed. The injected kill plan is delivered only while
    /// unconsumed.
    fn send_init(&mut self, w: u32, checkpoint: Option<u32>) -> Result<(), EulerError> {
        let kill = self.cfg.plan.kill.filter(|_| !self.kill_consumed);
        let head = encode_init_head(&InitHead {
            worker_id: w,
            strategy: self.strategy,
            heartbeat_interval: self.cfg.policy.heartbeat_interval,
            kill,
            checkpoint_dir: self.cfg.checkpoint_dir.clone(),
            tree: Arc::clone(&self.tree),
        });
        let from_checkpoint =
            checkpoint.map(|s| WordWriter::from_words(&[seed_tag::CHECKPOINT, u64::from(s)]));
        let parts = match &from_checkpoint {
            Some(tail) => vec![head.as_bytes(), tail.as_bytes()],
            None => vec![
                head.as_bytes(),
                self.seeds_by_worker[w as usize].as_bytes(),
                self.seed_labels.as_bytes(),
            ],
        };
        self.init_bytes += parts.iter().map(|part| part.len() as u64).sum::<u64>();
        self.workers[w as usize]
            .conn
            .send_parts(kind::INIT, &parts)
            .map_err(|e| EulerError::Distributed(format!("init of worker {w} failed: {e}")))
    }

    /// Waits for the Ready that answers an Init, read directly off the
    /// connection (the worker's receiver thread is not running), passing
    /// over the Heartbeats and the Done of a barrier the Init abandoned.
    /// Accounts the checkpoint the worker restored, and returns whether it
    /// took its seed; it always takes a level-0 seed.
    fn await_ready(&mut self, w: u32, checkpoint: Option<u32>) -> Result<bool, EulerError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let payload = loop {
            let (k, payload) = self.workers[w as usize]
                .conn
                .recv_timeout(Some(deadline.saturating_duration_since(Instant::now())))
                .map_err(|e| EulerError::Distributed(format!("worker {w} not ready: {e}")))?;
            match k {
                kind::READY => break payload,
                kind::HEARTBEAT | kind::DONE => {}
                other => {
                    return Err(EulerError::Distributed(format!(
                        "worker {w} answered Init with frame kind {other}"
                    )))
                }
            }
        };
        let [longs, seed_ns, refusal] = WordReader::new(&payload)
            .and_then(|mut r| r.array())
            .map_err(|e| EulerError::Distributed(format!("malformed Ready from worker {w}: {e}")))?;
        self.seed_build = self.seed_build.max(Duration::from_nanos(seed_ns));
        // Refusal: 0 none, 1 no checkpoint to restore, 2 one found and ignored.
        match (checkpoint, refusal) {
            (Some(_), 0) => self.recovery.checkpoint_longs_restored += longs,
            (Some(_), 2) => self.recovery.checkpoints_ignored += 1,
            _ => {}
        }
        Ok(refusal == 0)
    }

    /// Accounts a checkpoint worker `w` reports writing, the one entering
    /// `superstep`. With checkpointing on a write is never 0 Longs: 0 is a
    /// write that failed, warned of once per run.
    fn count_checkpoint(&mut self, w: u32, superstep: u32, longs: u64) {
        if longs > 0 {
            self.recovery.checkpoints_written += 1;
            self.recovery.checkpoint_longs_written += longs;
        } else if self.cfg.checkpoint_dir.is_some() && !self.unwritten_warned {
            self.unwritten_warned = true;
            self.warnings.push(format!(
                "worker {w} could not write its checkpoint entering superstep {superstep}; a death will replay the run from the seed"
            ));
        }
    }

    /// Starts every worker's receiver thread under its current epoch.
    fn start_receivers(&mut self) {
        for (w, h) in self.workers.iter_mut().enumerate() {
            let w = w as u32;
            let conn = Arc::clone(&h.conn);
            let stop = Arc::clone(&h.stop_rx);
            let epoch = h.epoch;
            let tx = self.events_tx.clone();
            h.recv_handle = Some(std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match conn.recv_timeout(Some(Duration::from_millis(100))) {
                    Ok((kind, payload)) => {
                        // A Bye is the last frame a worker sends.
                        if tx.send(Event::Frame { worker: w, epoch, kind, payload }).is_err()
                            || kind == kind::BYE
                        {
                            return;
                        }
                    }
                    Err(FrameError::Timeout) => continue,
                    Err(_) => {
                        tx.send(Event::Dead { worker: w, epoch }).ok();
                        return;
                    }
                }
            }));
        }
    }

    /// Coordinator→worker send with bounded retry, plus the scripted
    /// drop/delay injection (counted over Start frames).
    fn send_start(&mut self, w: u32, parts: &[&[u8]]) -> Result<(), FrameError> {
        // Retries of a failed send before the worker is declared dead.
        const SEND_RETRIES: u32 = 2;
        let seq = self.start_seq;
        self.start_seq += 1;
        if self.cfg.plan.drop_nth_send == Some(seq) {
            return Ok(()); // injected loss: pretend it went out
        }
        if let Some((n, d)) = self.cfg.plan.delay_nth_send {
            if n == seq {
                std::thread::sleep(d);
            }
        }
        let conn = Arc::clone(&self.workers[w as usize].conn);
        let mut last = FrameError::Closed;
        for attempt in 0..=SEND_RETRIES {
            match conn.send_parts(kind::START, parts) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = e;
                    if attempt < SEND_RETRIES {
                        self.recovery.send_retries += 1;
                        std::thread::sleep(Duration::from_millis(5 << attempt));
                    }
                }
            }
        }
        Err(last)
    }

    /// Drives superstep `level` to a completed barrier over `inbox` — each
    /// worker's Start state-list entries, re-delivered after a rollback and
    /// rebuilt by a replay — and returns every worker's Done, by worker.
    /// `record` is the walk's store, which adopts the level's fragments, or
    /// `None` during full-restart replay (the walk already consumed those
    /// levels, fragments included).
    fn run_superstep(
        &mut self,
        level: u32,
        inbox: &mut Vec<Vec<Blob>>,
        record: Option<&FragmentStore>,
    ) -> Result<Dones, EulerError> {
        loop {
            let mut deaths: Vec<u32> = Vec::new();
            for (w, entries) in inbox.iter().enumerate() {
                // Start = [superstep, n] + the retained state-list entries,
                // sent from the buffers they arrived in.
                let head = WordWriter::from_words(&[level as u64, entries.len() as u64]);
                let parts: Vec<&[u8]> = std::iter::once(head.as_bytes())
                    .chain(entries.iter().map(Blob::bytes))
                    .collect();
                self.workers[w].last_heard = Instant::now();
                if self.send_start(w as u32, &parts).is_err() {
                    deaths.push(w as u32);
                }
            }
            // Injected SIGKILL for process workers: the target stalls at
            // this superstep; kill it for real, mid-superstep.
            if let (Some((kw, ks)), WorkerSpawn::Processes { .. }, false) =
                (self.cfg.plan.kill, &self.cfg.spawn, self.kill_consumed)
            {
                if ks == level {
                    std::thread::sleep(Duration::from_millis(150));
                    if let Some(child) = &mut self.workers[kw as usize].child {
                        child.kill().ok();
                    }
                }
            }
            if deaths.is_empty() {
                match self.wait_barrier(level)? {
                    Ok(mut dones) => {
                        dones.sort_by_key(|(w, _)| *w);
                        for (w, done) in &dones {
                            if let (Some(store), Some(list)) = (record, &done.fragments) {
                                adopt_fragments(list, store)?;
                            }
                            self.count_checkpoint(*w, level + 1, done.checkpoint_longs);
                        }
                        return Ok(dones);
                    }
                    Err(dead) => deaths = dead,
                }
            }
            self.recover(level, &deaths, inbox)?;
        }
    }

    /// Waits until every worker answered Done for `level` or died:
    /// `Ok(Ok(dones))` when all answered, `Ok(Err(dead))` lists the deceased.
    fn wait_barrier(&mut self, level: u32) -> Result<Result<Dones, Vec<u32>>, EulerError> {
        let mut pending: Vec<bool> = vec![true; self.num_workers()];
        let mut deaths: Vec<u32> = Vec::new();
        let mut dones = Vec::with_capacity(self.num_workers());
        while pending.iter().any(|&p| p) {
            match self.events_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Event::Frame { worker, epoch, kind: k, payload }) => {
                    if self.workers[worker as usize].epoch != epoch {
                        continue; // stale connection
                    }
                    self.workers[worker as usize].last_heard = Instant::now();
                    match k {
                        kind::DONE => {
                            let done = decode_done(Arc::new(payload)).map_err(|e| {
                                EulerError::Distributed(format!(
                                    "malformed Done from worker {worker}: {e}"
                                ))
                            })?;
                            if done.superstep == level && pending[worker as usize] {
                                pending[worker as usize] = false;
                                dones.push((worker, done));
                            }
                        }
                        kind::HEARTBEAT | kind::BYE => {}
                        other => {
                            return Err(EulerError::Distributed(format!(
                                "unexpected frame kind {other} from worker {worker}"
                            )))
                        }
                    }
                }
                Ok(Event::Dead { worker, epoch }) => {
                    if self.workers[worker as usize].epoch == epoch
                        && pending[worker as usize]
                    {
                        pending[worker as usize] = false;
                        deaths.push(worker);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(EulerError::Distributed(
                        "coordinator event channel closed".into(),
                    ))
                }
            }
            // Heartbeat deadline sweep over still-pending workers.
            let timeout = self.cfg.policy.heartbeat_timeout;
            for (w, still_pending) in pending.iter_mut().enumerate() {
                if *still_pending && self.workers[w].last_heard.elapsed() > timeout {
                    *still_pending = false;
                    deaths.push(w as u32);
                    self.recovery.heartbeat_misses += 1;
                    self.warnings.push(format!(
                        "worker {w} missed heartbeats for {timeout:?} at superstep {level}; declared dead"
                    ));
                    // Tear the connection down so a stuck-but-alive worker
                    // (or its receiver thread) cannot haunt the new epoch.
                    self.workers[w].retire();
                }
            }
        }
        Ok(if deaths.is_empty() { Ok(dones) } else { Err(deaths) })
    }

    /// Recovers from worker deaths detected during `level`, in one
    /// sequence: each dead worker is retired and respawned once; every worker
    /// is re-Inited from checkpoint `level` and the barrier is retried over
    /// the retained `inbox`. Where there is no checkpoint to enter — at
    /// level 0, or with checkpointing off — or any worker refuses its own,
    /// every worker is re-Inited in place from its level-0 tail instead, and
    /// supersteps `0..level` replay deterministically, only to rebuild
    /// `inbox` (the walk already consumed their outcomes).
    fn recover(
        &mut self,
        level: u32,
        deaths: &[u32],
        inbox: &mut Vec<Vec<Blob>>,
    ) -> Result<(), EulerError> {
        // Restarts of one worker (respawn + restore or full restart) before
        // the run is given up.
        const MAX_WORKER_RESTARTS: u32 = 3;
        for &w in deaths {
            let h = &mut self.workers[w as usize];
            h.restarts += 1;
            if h.restarts > MAX_WORKER_RESTARTS {
                return Err(EulerError::Distributed(format!(
                    "worker {w} exceeded the restart budget ({MAX_WORKER_RESTARTS}) at superstep {level}"
                )));
            }
            h.retire();
            self.recovery.restarts += 1;
        }
        if self.cfg.plan.kill.is_some_and(|(_, ks)| ks == level) {
            self.kill_consumed = true;
        }
        let children = self.launch_all(deaths)?;
        self.attach(deaths, children)?;
        let died = format!("worker(s) {deaths:?} died at superstep {level}");
        if self.cfg.checkpoint_dir.is_none() {
            self.warnings
                .push(format!("{died} with checkpointing disabled; replaying the run from the seed"));
        } else if level == 0 {
            self.warnings.push(format!("{died}; re-initialising from the seed"));
        } else {
            self.warnings.push(format!("{died}; rolling back to checkpoint {level}"));
            if self.init_all(Some(level))? {
                return Ok(());
            }
            self.warnings
                .push(format!("checkpoint {level} was refused; replaying the run from the seed"));
        }
        self.recovery.full_restarts += 1;
        self.init_all(None)?;
        *inbox = vec![Vec::new(); self.num_workers()];
        for ss in 0..level {
            let dones = self.run_superstep(ss, inbox, None)?;
            *inbox = fold_barrier(ss, dones, &self.placement, Duration::ZERO)?.1;
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// The level-0 states dealt to their owners.
fn deal(states: Vec<WorkingPartition>, placement: &Placement) -> Vec<Vec<WorkingPartition>> {
    let mut seeds: Vec<Vec<WorkingPartition>> = vec![Vec::new(); placement.num_workers()];
    for wp in states {
        let w = placement.owner(wp.id).expect("the run placed every seed partition");
        seeds[w].push(wp);
    }
    seeds
}

/// Every worker's Init tail, and what follows each of them on the wire. A
/// level 0 still in its file goes out as a reference — the workers build
/// their own partitions — unless they would refuse its cut matrix
/// ([`level0::cut_matrix_fits`]); any other seed is filled here and
/// shipped as states, each worker's dropped as soon as they are encoded.
fn init_tails(
    seed: Seed<'_>,
    placement: &Placement,
) -> Result<(Vec<WordWriter>, WordWriter), EulerError> {
    let workers = 0..placement.num_workers();
    if let SeedKind::File(level0) = &seed.0 {
        let num_partitions = level0.assignment.num_partitions();
        if level0::cut_matrix_fits(level0.csr, num_partitions) {
            let tail = |w: usize| {
                let mut owned = vec![0u64; (num_partitions as usize).div_ceil(64)];
                for p in (0..num_partitions).filter(|&p| placement.owner(PartitionId(p)) == Some(w)) {
                    owned[p as usize / 64] |= 1 << (p % 64);
                }
                encode_file_ref(level0.csr, num_partitions, &owned)
            };
            return Ok((workers.map(tail).collect(), encode_labels(level0.assignment)));
        }
    }
    let tails = deal(seed.into_states()?, placement).into_iter().map(|mine| {
        let words: usize = mine.iter().map(|wp| 1 + wire::record_words(wp)).sum();
        let mut out = WordWriter::with_capacity(2 + words);
        out.u(seed_tag::STATES);
        encode_states(&mut out, mine.iter());
        out
    });
    Ok((tails.collect(), WordWriter::new()))
}

/// Kills and waits for launched worker processes that will not be used.
fn reap(children: Vec<Option<std::process::Child>>) {
    for mut child in children.into_iter().flatten() {
        child.kill().ok();
        child.wait().ok();
    }
}

/// The barrier fold: every worker's share of `level` into the superstep's
/// statistics, the next level's inboxes and the walk's outcome — the same
/// fold wherever the shares were computed.
///
/// A shipped state is routed to the worker `placement` gives its destination
/// slot, as the byte range it was encoded into, and is the shuffle: remote.
/// What a worker handed a parent of its own by value it counted itself:
/// local. The four compute buckets are the paper's Fig. 6 split:
/// `create_partition_object` (decoding the inbound states),
/// `copy_sink_partition` (merging them in), `phase1_tour`, and
/// `copy_source_partition` (encoding the state for its parent) — the two
/// codec buckets zero where the hand-off was by value; `compute_time` is
/// merge plus tour, the record's own two times.
///
/// # Errors
/// [`EulerError::Distributed`] for a state shipped to a partition no worker
/// holds.
fn fold_barrier(
    level: u32,
    mut dones: Dones,
    placement: &Placement,
    wall: Duration,
) -> Result<(SuperstepStats, Vec<Vec<Blob>>, LevelOutcome), EulerError> {
    dones.sort_by_key(|(w, _)| *w);
    let mut stats = SuperstepStats::new(level);
    stats.wall_time = wall;
    let mut next_inbox: Vec<Vec<Blob>> = vec![Vec::new(); placement.num_workers()];
    let mut outcome = LevelOutcome::default();
    for (w, done) in dones {
        for (to, entry) in done.outgoing {
            let dst = placement.owner(PartitionId(to)).ok_or_else(|| {
                EulerError::Distributed(format!(
                    "worker {w} shipped a state to partition {to}, which no worker holds"
                ))
            })?;
            stats.remote_messages += 1;
            // The state record alone, without its length word.
            stats.remote_bytes += entry.range.len().saturating_sub(8) as u64;
            next_inbox[dst].push(entry);
        }
        stats.local_messages += done.local_messages;
        stats.local_bytes += done.local_bytes;
        for (_, records) in done.fragments.iter().flatten() {
            stats.fragment_bytes += (8 * SEGMENT_FRAMING_WORDS + records.range.len()) as u64;
        }
        outcome.transfer_longs += done.transfer_longs;
        for line in done.reports {
            let r = line.report;
            stats.compute_time += r.phase1_time + r.merge_time;
            let mut split = TimeBreakdown::new();
            split.add("create_partition_object", line.unpack);
            split.add("copy_sink_partition", r.merge_time);
            split.add("phase1_tour", r.phase1_time);
            split.add("copy_source_partition", line.ship);
            stats.per_partition_compute.push((r.partition.0, split));
            stats.memory.record(format!("P{}", r.partition.0), line.post_memory);
            outcome.reports.push(r);
        }
    }
    outcome.reports.sort_by_key(|r| r.partition);
    stats.active_partitions = outcome.reports.len();
    stats.per_partition_compute.sort_by_key(|(p, _)| *p);
    Ok((stats, next_inbox, outcome))
}

/// One level on workers stepped in place, each with anything to do decoding
/// its inbox, stepping its slots with their fragments pushed straight into
/// the walk's `store`, and handing back its share with the states shipped to
/// other workers encoded. The first such worker runs on the calling thread,
/// every further one on a scoped thread of its own.
fn step_in_place(
    sets: &mut [SlotSet],
    level: u32,
    inbox: &[Vec<Blob>],
    store: &FragmentStore,
) -> Result<Dones, EulerError> {
    let step = |w: usize, set: &mut SlotSet, entries: &[Blob]| -> Result<_, EulerError> {
        let bad = |e: WireError| EulerError::Distributed(format!("shipped partition state: {e}"));
        let records = entries
            .iter()
            .map(|entry| WordReader::new(entry.bytes())?.record())
            .collect::<Result<Vec<_>, _>>()
            .map_err(bad)?;
        let inbound = set.unpack(level, records)?;
        let share = set.step_level(level, inbound, store);
        Ok((w as u32, share.into_done(level).map_err(bad)?))
    };
    let mut busy = sets
        .iter_mut()
        .zip(inbox)
        .enumerate()
        .filter(|(_, (set, entries))| !(set.slots.is_empty() && entries.is_empty()));
    let Some((first, (set, entries))) = busy.next() else { return Ok(Vec::new()) };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = busy
            .map(|(w, (set, entries))| scope.spawn(move || step(w, set, entries)))
            .collect();
        let mut dones = vec![step(first, set, entries)];
        let panicked = |_| Err(EulerError::Distributed("a worker stepped in place panicked".into()));
        dones.extend(spawned.into_iter().map(|h| h.join().unwrap_or_else(panicked)));
        dones.into_iter().collect()
    })
}

/// Where a run's workers live.
enum Workers {
    /// Slot sets of this process, stepped in place.
    InPlace(Vec<SlotSet>),
    /// Threads or processes behind a transport.
    Framed(Box<Fleet>),
}

/// One run of the merge-tree walk, for either backend: the workers, the
/// inboxes between their levels, and the statistics the barriers fold into.
pub(crate) struct DistRun {
    placement: Arc<Placement>,
    cost_model: PlatformCostModel,
    workers: Workers,
    /// The next level's inbound state-list entries per worker — ranges of
    /// the buffers they were encoded into or arrived in — kept as they are
    /// through the level, so a fleet can re-deliver them after a rollback.
    inbox: Vec<Vec<Blob>>,
    superstep_stats: Vec<SuperstepStats>,
    t_start: Instant,
    /// Wall time of the finished run.
    total_wall: Option<Duration>,
}

impl DistRun {
    /// Places the level-0 seed on `engine`'s workers — by the merge tree and
    /// the states' encoded sizes, see [`Placement`]; a level 0 still in its
    /// file is sized from its scan, which counts what the states will hold —
    /// in place, or, given a `fleet` configuration, spawned and initialised
    /// over its transport. Workers in place step their slots on rayon under
    /// `fan_out`; a fleet's step theirs one at a time.
    pub fn new(
        engine: BspConfig,
        fleet: Option<FleetConfig>,
        tree: Arc<MergeTree>,
        strategy: MergeStrategy,
        seed: Seed<'_>,
        fan_out: bool,
    ) -> Result<Self, EulerError> {
        let t_start = Instant::now();
        let weights: Vec<(PartitionId, u64)> = match &seed.0 {
            SeedKind::States(states) => {
                states.iter().map(|wp| (wp.id, wire::record_words(wp) as u64)).collect()
            }
            SeedKind::File(level0) => (0..level0.assignment.num_partitions())
                .map(PartitionId)
                .map(|p| (p, level0.scan.record_words(p, level0.dedup)))
                .collect(),
        };
        let num_workers = engine.resolved_workers(weights.len());
        let placement = Arc::new(Placement::new(&tree, weights, num_workers));
        let workers = match fleet {
            Some(cfg) => Workers::Framed(Box::new(Fleet::new(
                cfg,
                Arc::clone(&placement),
                tree,
                strategy,
                seed,
            )?)),
            None => {
                let set = |mine| SlotSet::new(Arc::clone(&tree), strategy, mine, fan_out);
                Workers::InPlace(deal(seed.into_states()?, &placement).into_iter().map(set).collect())
            }
        };
        Ok(DistRun {
            placement,
            cost_model: engine.cost_model,
            workers,
            inbox: vec![Vec::new(); num_workers],
            superstep_stats: Vec::new(),
            t_start,
            total_wall: None,
        })
    }

    /// Runs one merge level to its barrier (a fleet recovering as needed),
    /// with its fragments in `store`, and returns its outcome.
    pub fn step(&mut self, level: u32, store: &FragmentStore) -> Result<LevelOutcome, EulerError> {
        let t_level = Instant::now();
        let dones = match &mut self.workers {
            Workers::InPlace(sets) => step_in_place(sets, level, &self.inbox, store)?,
            Workers::Framed(fleet) => fleet.run_superstep(level, &mut self.inbox, Some(store))?,
        };
        let (stats, inbox, outcome) =
            fold_barrier(level, dones, &self.placement, t_level.elapsed())?;
        self.superstep_stats.push(stats);
        self.inbox = inbox;
        Ok(outcome)
    }

    /// Ends the run: retires a fleet and stops the run's clock.
    pub fn finish(&mut self) {
        if self.total_wall.is_none() {
            if let Workers::Framed(fleet) = &mut self.workers {
                fleet.shut_down();
            }
            self.total_wall = Some(self.t_start.elapsed());
        }
    }

    /// Statistics of the run so far, under the configured cost model.
    pub fn stats(&self) -> EngineStats {
        let (init_bytes, seed_build_time, recovery) = match &self.workers {
            Workers::InPlace(_) => (0, Duration::ZERO, RecoveryStats::default()),
            Workers::Framed(fleet) => (fleet.init_bytes, fleet.seed_build, fleet.recovery),
        };
        let mut stats = EngineStats {
            supersteps: self.superstep_stats.clone(),
            num_workers: self.placement.num_workers(),
            placement: self.placement.owners().to_vec(),
            init_bytes,
            seed_build_time,
            total_wall_time: self.total_wall.unwrap_or_else(|| self.t_start.elapsed()),
            modelled_platform_overhead: Duration::ZERO,
            recovery,
        };
        stats.modelled_platform_overhead = self.cost_model.overhead(&stats);
        stats
    }

    /// Human-readable recovery notes for `RunReport::warnings`.
    pub fn warnings(&self) -> Vec<String> {
        match &self.workers {
            Workers::InPlace(_) => Vec::new(),
            Workers::Framed(fleet) => fleet.warnings.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::tests::raw_segment;
    use crate::fragment::{packed_header, Fragment, FragmentKind, TourEdge};
    use crate::state::{EdgeRef, LocalEdge, RemoteRef};
    use euler_bsp::MemTransport;
    use euler_graph::{EdgeId, VertexId};
    use proptest::prelude::*;

    fn tiny_tree() -> MergeTree {
        let pair = MergePair { parent: PartitionId(0), child: PartitionId(1), weight: 3 };
        MergeTree::from_parts(vec![vec![pair]], PartitionId(0), (0..8).map(PartitionId).collect())
    }

    fn test_init(dir: Option<PathBuf>) -> InitHead {
        InitHead {
            worker_id: 0,
            strategy: MergeStrategy::Deferred,
            heartbeat_interval: Duration::from_millis(50),
            kill: None,
            checkpoint_dir: dir,
            tree: Arc::new(tiny_tree()),
        }
    }

    /// A partition state whose every field derives from `seed`.
    fn state(id: u32, seed: &[u64]) -> WorkingPartition {
        let v = |i: usize| VertexId(seed.get(i).copied().unwrap_or(7));
        WorkingPartition {
            id: PartitionId(id),
            leaves: seed.iter().take(3).map(|&l| PartitionId(l as u32)).collect(),
            level: seed.len() as u32,
            local_edges: (0..seed.len())
                .map(|i| LocalEdge {
                    edge: if i % 2 == 0 {
                        EdgeRef::Real(EdgeId(seed[i]))
                    } else {
                        EdgeRef::Virtual(FragmentId(seed[i]))
                    },
                    u: v(i),
                    v: v(i + 1),
                })
                .collect(),
            remote_edges: (0..seed.len() / 2)
                .map(|i| RemoteRef {
                    edge: EdgeId(seed[i]),
                    local: v(i),
                    remote: v(i + 2),
                    local_leaf: PartitionId(id),
                    remote_leaf: PartitionId(seed[i] as u32),
                })
                .collect(),
            isolated_vertices: seed.iter().sum(),
        }
    }

    /// The first fragment `slot` finds at superstep 3: a tour through the
    /// vertices of `seed` (not empty) — closed if there is an odd number of
    /// them — whose edges are named after the vertex they leave, the
    /// multiples of 3 as virtual edges.
    fn fragment(slot: u32, seed: &[u64]) -> Fragment {
        let kind = if seed.len().is_multiple_of(2) { FragmentKind::Path } else { FragmentKind::Cycle };
        let last = match kind {
            FragmentKind::Path => seed[seed.len() - 1] + 1,
            FragmentKind::Cycle => seed[0],
        };
        let tos = seed.iter().skip(1).chain([&last]);
        Fragment {
            id: FragmentId::new(3, PartitionId(slot), 0),
            kind,
            level: 3,
            partition: PartitionId(slot),
            edges: seed
                .iter()
                .zip(tos)
                .map(|(&x, &y)| {
                    let (from, to) = (VertexId(x), VertexId(y));
                    if x % 3 == 0 {
                        TourEdge::Virtual { fragment: FragmentId(x), from, to }
                    } else {
                        TourEdge::Real { edge: EdgeId(x), from, to }
                    }
                })
                .collect(),
        }
    }

    /// One-record segments of level 3, partition 0 that no well-behaved worker
    /// writes — an empty fragment, a record of other coordinates, a count
    /// past the payload, a cycle left open — and what the validator says to
    /// each.
    fn hostile_segments() -> Vec<(Vec<Segment>, &'static str)> {
        let lone = |words: &[u64]| vec![raw_segment(3, PartitionId(0), 1, words)];
        let path = |level, n| packed_header(FragmentKind::Path, level, PartitionId(0), n);
        let cycle = packed_header(FragmentKind::Cycle, 3, PartitionId(0), 2);
        vec![
            (lone(&[path(3, 0), 1]), "is empty"),
            (lone(&[path(2, 1), 1, 1, 2]), "is not the next"),
            (lone(&[path(3, 3), 1, 1, 2, 2, 3]), "truncated"),
            (lone(&[cycle, 1, 1, 2, 2, 3]), "does not close"),
        ]
    }

    /// The segments a worker's store holds after pushing `fragments`.
    fn segments_of(fragments: &[Fragment]) -> Vec<Segment> {
        let store = FragmentStore::new();
        for f in fragments {
            store.push(f.clone());
        }
        store.segments()
    }

    fn report(partition: u32, x: u64) -> SlotReport {
        let report = LevelPartitionReport {
            level: 3,
            partition: PartitionId(partition),
            counts: crate::state::VertexTypeCounts {
                even_internal: x,
                even_boundary: x + 1,
                odd_boundary: x + 2,
                remote_edges: x + 3,
                local_edges: x + 4,
            },
            complexity: x + 5,
            phase1_time: Duration::from_nanos(x + 6),
            merge_time: Duration::from_nanos(x + 7),
            memory_longs: x + 8,
            remote_needed_now: x + 9,
            transfer_in_longs: x + 10,
            paths_found: x + 11,
            cycles_found: x + 12,
            internal_cycles_merged: x + 13,
            splice_pivot_lookups: x + 14,
            splice_linked_splices: x + 15,
            splice_materialization_longs: x + 16,
        };
        SlotReport {
            report,
            post_memory: 1000 + partition as u64,
            unpack: Duration::from_nanos(x + 17),
            ship: Duration::from_nanos(x + 18),
        }
    }

    fn init_payload(head: &InitHead, seeds: &[WorkingPartition]) -> Vec<u8> {
        let mut out = encode_init_head(head);
        out.u(seed_tag::STATES);
        encode_states(&mut out, seeds.iter());
        out.into_bytes()
    }

    /// An Init whose tail is the checkpoint entering `superstep`.
    fn checkpoint_init(head: &InitHead, superstep: u32) -> Vec<u8> {
        let mut out = encode_init_head(head);
        out.words(&[seed_tag::CHECKPOINT, u64::from(superstep)]);
        out.into_bytes()
    }

    /// The states an Init shipped.
    fn shipped(seed: SeedTail) -> Vec<WorkingPartition> {
        match seed {
            SeedTail::States(states) => states,
            SeedTail::File(file) => panic!("expected shipped states, got a reference to {:?}", file.path),
            SeedTail::Checkpoint(s) => panic!("expected shipped states, got checkpoint {s}"),
        }
    }

    /// A 16-ring over the tiny tree's 8 partitions (two vertices each, so
    /// every partition holds one local edge and two cut edges), packed to a
    /// scratch `.ecsr`: the file, and the level-0 states the oracle slices
    /// from the graph under `strategy`.
    fn ring_file(dir: &std::path::Path, strategy: MergeStrategy) -> (CsrFile, PartitionAssignment, Vec<WorkingPartition>) {
        let edges: Vec<(u64, u64)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        let g = euler_graph::builder::graph_from_edges(&edges);
        let a = PartitionAssignment::from_labels((0..16).map(|v| v / 2).collect(), 8).unwrap();
        let path = dir.join("ring.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let (_, states) = crate::level0::tests::oracle(&csr, &a, strategy.deduplicates());
        (csr, a, states)
    }

    /// An Init whose tail refers worker 0 to `csr`, owning the partitions of
    /// `owned`'s set bits.
    fn file_init(csr: &CsrFile, a: &PartitionAssignment, owned: u64) -> Vec<u8> {
        let head = encode_init_head(&test_init(None));
        let tail = encode_file_ref(csr, a.num_partitions(), &[owned]);
        [head.as_bytes(), tail.as_bytes(), encode_labels(a).as_bytes()].concat()
    }

    fn start_payload(superstep: u32, states: &[WorkingPartition]) -> Vec<u8> {
        let mut out = WordWriter::from_words(&[superstep as u64]);
        encode_states(&mut out, states.iter());
        out.into_bytes()
    }

    /// The Done as the coordinator receives it: sent as parts over the
    /// in-memory transport.
    fn done_payload(done: &DoneWriter) -> Vec<u8> {
        let listener = MemTransport.listen().unwrap();
        let dial = MemTransport.connect(&listener.endpoint()).unwrap();
        done.send(dial.as_ref()).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let (k, payload) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(k, kind::DONE);
        payload
    }

    fn sample_done(seeds: &[Vec<u64>]) -> DoneWriter {
        let mut done = DoneWriter {
            superstep: 3,
            share: LevelShare::new(),
            fragments: Vec::new(),
            checkpoint_longs: 88,
        };
        done.share.transfer_longs = 77;
        (done.share.local_messages, done.share.local_bytes) = (5, 66);
        let mut found = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            done.share.reports.push(report(i as u32, seed.len() as u64));
            done.share.ship(i as u32 + 10, &state(i as u32, seed));
            if !seed.is_empty() {
                found.push(fragment(i as u32, seed));
            }
        }
        done.fragments = segments_of(&found);
        done
    }

    /// A Start decoded all the way: framing, then every state record.
    fn start_states(payload: &[u8]) -> Result<(u32, Vec<WorkingPartition>), WireError> {
        let (superstep, records) = decode_start(payload)?;
        let states = records.into_iter().map(|mut r| wire::decode(&mut r)).collect::<Result<_, _>>()?;
        Ok((superstep, states))
    }

    fn fragments_of(done: &DoneMsg) -> &[(SegmentHead, Blob)] {
        done.fragments.as_ref().expect("a Done off the wire carries its segments")
    }

    /// What the walk's store holds after adopting `list`.
    fn adopted(list: &[(SegmentHead, Blob)]) -> Result<Vec<Fragment>, EulerError> {
        let store = FragmentStore::new();
        adopt_fragments(list, &store)?;
        Ok(store.snapshot())
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("euler-dist-hygiene-{}-{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn init_message_roundtrips() {
        let dir = Some(PathBuf::from("/tmp/ckpts"));
        let mut m = test_init(dir.clone());
        m.kill = Some((3, 2));
        let seeds = vec![state(0, &[1, 2, 3]), state(1, &[]), state(2, &[u64::MAX])];
        let (got, got_seeds) = decode_init(&init_payload(&m, &seeds)).unwrap();
        assert_eq!(got.worker_id, m.worker_id);
        assert_eq!(got.kill, m.kill);
        assert_eq!(got.checkpoint_dir, dir);
        assert_eq!(shipped(got_seeds), seeds);
        assert_eq!(got.tree.leaves, m.tree.leaves);
        assert_eq!(got.tree.levels, m.tree.levels);
        // The head is seven words ahead of the directory: worker, strategy,
        // heartbeat, the kill plan's three and the directory flag. One cut
        // short anywhere is refused.
        let head = encode_init_head(&test_init(None)).into_bytes();
        let strategy = MergeStrategy::Deferred.wire_code();
        let words: Vec<u64> =
            head.chunks(8).take(7).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [0, strategy, 50_000_000, 0, 0, 0, 0]);
        for cut in 0..head.len() / 8 {
            assert!(
                matches!(decode_init(&head[..8 * cut]), Err(WireError::Truncated { .. })),
                "a head cut at word {cut} was not refused as truncated"
            );
        }
        // A seed for a partition the tree does not have, and a tree whose
        // partitions no fragment id could name, are refused.
        let stray = decode_init(&init_payload(&m, &[state(8, &[1])])).map(drop);
        assert!(matches!(stray, Err(WireError::Invalid(m)) if m.contains("unknown partition")));
        let mut wide = tiny_tree();
        wide.leaves.push(PartitionId(FragmentId::MAX_PARTITIONS));
        m.tree = Arc::new(wide);
        assert!(matches!(decode_init(&init_payload(&m, &[])).map(drop), Err(WireError::Invalid(_))));
    }

    #[test]
    fn a_file_reference_roundtrips_and_builds_the_owned_partitions_of_the_oracle() {
        let dir = scratch("fileref");
        for strategy in MergeStrategy::all() {
            let (csr, a, oracle) = ring_file(&dir, strategy);
            // Partitions 1, 4 and 7 are this worker's.
            let owned = 0b1001_0010;
            let (head, seed) = decode_init(&file_init(&csr, &a, owned)).unwrap();
            let SeedTail::File(file) = seed else { panic!("expected a file reference") };
            assert_eq!(file.path, csr.path());
            assert_eq!(file.identity, [csr.checksum(), 16, 16]);
            assert_eq!(file.owned, [owned]);
            assert_eq!(file.assignment.labels(), a.labels());
            let built = build_from_file(&file, &head.tree, strategy).unwrap();
            let expected: Vec<_> =
                oracle.iter().filter(|wp| owned >> wp.id.0 & 1 == 1).cloned().collect();
            assert_eq!(built, expected, "{strategy}");
            // Nothing owned, nothing built; everything owned, the oracle.
            let none = FileRef { owned: vec![0], ..file };
            assert!(build_from_file(&none, &head.tree, strategy).unwrap().is_empty());
            let all = FileRef { owned: vec![u64::MAX], ..none };
            assert_eq!(build_from_file(&all, &head.tree, strategy).unwrap(), oracle);
        }
        // An odd label count pads the last word's high half.
        let odd = PartitionAssignment::from_labels(vec![7, 0, 3], 8).unwrap();
        assert_eq!(encode_labels(&odd), WordWriter::from_words(&[7, 3]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn hostile_trees_decode_to_the_scan_answers_in_a_table_sized_by_the_payload() {
        use crate::merge_tree::tests::{assert_table_matches_scan, table_len};
        let pair = |parent: u32, child: u32| MergePair {
            parent: PartitionId(parent),
            child: PartitionId(child),
            weight: 1,
        };
        // The decoder sees whatever words arrive; build them from a tree
        // whose public parts were edited after indexing.
        let decode = |levels: Vec<Vec<MergePair>>, leaves: Vec<u32>| {
            let mut tree = tiny_tree();
            tree.levels = levels;
            tree.leaves = leaves.into_iter().map(PartitionId).collect();
            let mut out = WordWriter::new();
            encode_tree(&mut out, &tree);
            let bytes = out.into_bytes();
            decode_tree(&mut WordReader::new(&bytes).unwrap())
        };
        // The largest nameable leaf id under 120 levels, most of them empty:
        // the table is sized by the 3 ids and 121 columns the payload holds,
        // never by the id.
        let top = FragmentId::MAX_PARTITIONS - 1;
        let mut levels = vec![Vec::new(); 120];
        levels[0] = vec![pair(5, 0)];
        levels[119] = vec![pair(top, 5)];
        let tall = decode(levels, vec![top, 5, 0]).unwrap();
        assert_eq!(table_len(&tall), 3 * 121);
        assert_eq!(tall.merge_level_of(PartitionId(0), PartitionId(top)), Some(119));
        assert_table_matches_scan(&tall, &[PartitionId(1), PartitionId(top + 1)]);

        // Duplicate leaves collapse to one table row each.
        let mut repeated = vec![2, 1, 1, 0];
        repeated.resize(500, 2);
        let dup = decode(vec![vec![pair(1, 0)], vec![pair(2, 1)]], repeated).unwrap();
        assert_eq!(table_len(&dup), 3 * 3);
        assert_table_matches_scan(&dup, &[PartitionId(3)]);

        // Pairs whose child or parent is no leaf, and a level that moves a
        // partition twice: the scan still has an answer, and it is the
        // table's (one more row per stray id).
        let stray = decode(vec![vec![pair(1, 7), pair(9, 1)], vec![pair(0, 9)]], vec![0, 1]).unwrap();
        assert_eq!(table_len(&stray), 4 * 3);
        assert_table_matches_scan(&stray, &[PartitionId(7), PartitionId(9), PartitionId(8)]);
        let chained = decode(vec![vec![pair(1, 0), pair(2, 1)]], vec![0, 1, 2]).unwrap();
        assert_eq!(chained.representative_after(PartitionId(0), 0), PartitionId(2));
        assert_table_matches_scan(&chained, &[]);

        // More levels than a fragment id can name: refused before indexing.
        let tall = decode(vec![Vec::new(); 256], vec![0]);
        assert!(matches!(&tall, Err(WireError::Invalid(m)) if m.contains("fragment id layout")));
    }

    #[test]
    fn u32_fields_past_32_bits_are_refused_not_truncated() {
        let wide = |k: u64| ((1u64 << 32) + k).to_le_bytes();
        let refused = |result: Result<(), WireError>, field: &str| {
            assert!(matches!(&result, Err(WireError::Invalid(m)) if m.contains(field)), "{field}: {result:?}");
        };
        let done = done_payload(&sample_done(&[vec![1, 2, 3, 4]]));
        let patched = |word: usize, k: u64| {
            let mut bytes = done.clone();
            bytes[8 * word..8 * word + 8].copy_from_slice(&wide(k));
            decode_done(Arc::new(bytes)).map(drop)
        };
        // The superstep, the first report's partition, the first outgoing
        // entry's destination.
        let parsed = decode_done(Arc::new(done.clone())).unwrap();
        let to = parsed.outgoing[0].1.range.start / 8 - 1;
        assert_eq!((parsed.superstep, parsed.reports[0].report.partition, parsed.outgoing[0].0), (3, PartitionId(0), 10));
        refused(patched(0, 3), "superstep");
        refused(patched(2, 0), "partition");
        refused(patched(to, 10), "destination");
        // A merge tree's leaf: `[levels, pairs, parent, child, weight, root,
        // leaves, leaf…]`.
        let mut out = WordWriter::new();
        encode_tree(&mut out, &tiny_tree());
        let mut tree = out.into_bytes();
        assert_eq!(euler_bsp::wire::words_at::<1>(&tree, 10), [3]);
        tree[80..88].copy_from_slice(&wide(3));
        refused(decode_tree(&mut WordReader::new(&tree).unwrap()).map(drop), "leaf");
    }

    #[test]
    fn done_message_roundtrips_and_its_ranges_relay_as_a_start() {
        let seeds = vec![vec![1, 2, 3, 4], vec![], vec![9]];
        let done = decode_done(Arc::new(done_payload(&sample_done(&seeds)))).unwrap();
        assert_eq!((done.superstep, done.transfer_longs, done.checkpoint_longs), (3, 77, 88));
        assert_eq!((done.local_messages, done.local_bytes), (5, 66));
        for (i, r) in done.reports.iter().enumerate() {
            assert_eq!(*r, report(i as u32, seeds[i].len() as u64));
        }
        // The shipped entries, sent on as parts behind a Start head, are
        // the Start a worker decodes — no re-encode in between.
        assert_eq!(done.outgoing.iter().map(|(to, _)| *to).collect::<Vec<_>>(), vec![10, 11, 12]);
        let head = WordWriter::from_words(&[4, done.outgoing.len() as u64]);
        let relayed: Vec<u8> = std::iter::once(head.as_bytes())
            .chain(done.outgoing.iter().map(|(_, entry)| entry.bytes()))
            .collect::<Vec<_>>()
            .concat();
        let states: Vec<WorkingPartition> =
            seeds.iter().enumerate().map(|(i, s)| state(i as u32, s)).collect();
        assert_eq!(relayed, start_payload(4, &states));
        assert_eq!(start_states(&relayed).unwrap(), (4, states));
        // The fragment list is adopted at commit, ids as found. (Virtual
        // references here point nowhere: typed error.)
        let lone = sample_done(&[vec![1, 2, 4]]);
        let lone = decode_done(Arc::new(done_payload(&lone))).unwrap();
        assert_eq!(adopted(fragments_of(&lone)).unwrap(), vec![fragment(0, &[1, 2, 4])]);
        assert!(matches!(
            adopted(fragments_of(&done)),
            Err(EulerError::Distributed(m)) if m.contains("unknown fragment")
        ));
        // A fragment that is not the next of its (level, partition) — here
        // the same list a second time — is refused too.
        let store = FragmentStore::new();
        adopt_fragments(fragments_of(&lone), &store).unwrap();
        assert!(matches!(
            adopt_fragments(fragments_of(&lone), &store),
            Err(EulerError::Distributed(m)) if m.contains("not the next")
        ));
    }

    #[test]
    fn the_runs_of_one_partition_cross_the_wire_as_one_segment() {
        // Enough two-edge paths for several runs in slot 0, one in slot 1.
        let many = 3 * crate::fragment::RUN_BYTES as u64 / 48;
        let path = |slot: u32, i: u64| Fragment {
            id: FragmentId::new(3, PartitionId(slot), i),
            edges: vec![
                TourEdge::Real { edge: EdgeId(2 * i + 1), from: VertexId(i), to: VertexId(i + 1) },
                TourEdge::Real { edge: EdgeId(2 * i + 2), from: VertexId(i + 1), to: VertexId(i + 2) },
            ],
            ..fragment(slot, &[1, 2])
        };
        let found: Vec<Fragment> = (0..many).map(|i| path(0, i)).chain([path(1, 0)]).collect();
        let done = DoneWriter { fragments: segments_of(&found), ..sample_done(&[]) };
        assert!(done.fragments.len() > 3, "{} runs", done.fragments.len());
        let parsed = decode_done(Arc::new(done_payload(&done))).unwrap();
        let heads: Vec<_> = fragments_of(&parsed).iter().map(|(head, _)| *head).collect();
        let head = |slot, records| SegmentHead { level: 3, partition: PartitionId(slot), first_seq: 0, records };
        assert_eq!(heads, vec![head(0, many), head(1, 1)]);
        assert_eq!(adopted(fragments_of(&parsed)).unwrap(), found);
    }

    /// Every strict word-prefix of a valid Init / Start / Done is a typed
    /// error on the side that decodes it, as is garbage in place of a state
    /// or fragment record inside an otherwise well-formed message.
    #[test]
    fn truncated_or_garbage_records_inside_valid_messages_are_typed_errors() {
        let seeds = vec![state(0, &[1, 2, 3]), state(1, &[5])];
        let init = init_payload(&test_init(None), &seeds);
        let start = start_payload(2, &seeds);
        let done = done_payload(&sample_done(&[vec![1, 2, 4], vec![5]]));
        for cut in (0..init.len()).step_by(8) {
            assert!(decode_init(&init[..cut]).is_err(), "init cut at {cut}");
        }
        let dir = scratch("cut");
        let (csr, a, _) = ring_file(&dir, MergeStrategy::Deferred);
        let by_file = file_init(&csr, &a, 0b11);
        assert!(decode_init(&by_file).is_ok());
        for cut in (0..by_file.len()).step_by(8) {
            assert!(decode_init(&by_file[..cut]).is_err(), "file init cut at {cut}");
        }
        std::fs::remove_dir_all(dir).ok();
        for cut in (0..start.len()).step_by(8) {
            assert!(start_states(&start[..cut]).is_err(), "start cut at {cut}");
        }
        for cut in (0..done.len()).step_by(8) {
            assert!(decode_done(Arc::new(done[..cut].to_vec())).is_err(), "done cut at {cut}");
        }
        // A state record whose declared edge counts overrun its length
        // prefix, and one with an unknown edge tag.
        let overrun = |payload: &[u8], word: usize| {
            let mut bad = payload.to_vec();
            bad[8 * word..8 * word + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            bad
        };
        // Start: [superstep, n, len, id, level, isolated, n_local, …].
        assert!(matches!(start_states(&overrun(&start, 6)), Err(WireError::Truncated { .. })));
        assert!(matches!(start_states(&overrun(&start, 2)), Err(WireError::Truncated { .. })));
        // First local edge's tag: 3 head words + 6 + 3 leaves.
        assert!(matches!(start_states(&overrun(&start, 12)), Err(WireError::Invalid(_))));
        // A record shorter than its length prefix says.
        let mut short = start.clone();
        short[16..24].copy_from_slice(&(wire::record_words(&seeds[0]) as u64 + 1).to_le_bytes());
        assert!(start_states(&short).is_err());
        // The coordinator relays states unread but reads the segment list's
        // framing, and validates its records at commit: a garbage record is
        // typed there.
        let parsed = decode_done(Arc::new(done.clone())).unwrap();
        let segments = fragments_of(&parsed);
        let list = segments[0].1.range.start / 8 - 1 - SEGMENT_FRAMING_WORDS * segments.len();
        // Segment list: [n, (level, partition, first_seq, n_records, len) ×
        // 2, packed header, start, id, …]. (An interior `to` is any vertex:
        // the chain cannot break.)
        for (word, expect_at_parse) in (0..14).map(|word| (word, [0, 5, 10].contains(&word))) {
            let bad = overrun(&done, list + word);
            match decode_done(Arc::new(bad)) {
                Err(_) => assert!(expect_at_parse, "word {word}"),
                Ok(parsed) => {
                    assert!(!expect_at_parse, "word {word}");
                    assert!(matches!(
                        adopted(fragments_of(&parsed)),
                        Err(EulerError::Distributed(_))
                    ));
                }
            }
        }
        // Records that decode word for word but are no fragment: an empty one,
        // adopted, would panic Phase 3 when something referenced it.
        for (fragments, what) in hostile_segments() {
            let hostile = DoneWriter { fragments, ..sample_done(&[]) };
            let parsed = decode_done(Arc::new(done_payload(&hostile))).unwrap();
            match adopted(fragments_of(&parsed)) {
                Err(EulerError::Distributed(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("expected a typed refusal ({what}), got {other:?}"),
            }
        }
    }

    /// A worker handed a checksummed-but-hostile Init or Start ends with a
    /// typed error instead of panicking — garbage words, and equally a
    /// well-formed state that the previous level never shipped.
    #[test]
    fn worker_rejects_hostile_payloads_with_a_typed_error() {
        let mut garbage_seed = encode_init_head(&test_init(None));
        garbage_seed.words(&[seed_tag::STATES, 1, 4, u64::MAX, u64::MAX, u64::MAX, u64::MAX]);
        let mut unknown_tag = encode_init_head(&test_init(None));
        unknown_tag.words(&[3, 0]);
        let mut far_checkpoint = encode_init_head(&test_init(None));
        far_checkpoint.words(&[seed_tag::CHECKPOINT, 1 << 40]);

        // Hostile references to a level-0 file. Tail words after the head:
        // [1, path len, path…, checksum, n, m, P, mask, labels…].
        let dir = scratch("hostile-ref");
        let (csr, a, _) = ring_file(&dir, MergeStrategy::Deferred);
        let good_ref = file_init(&csr, &a, 0b11);
        let head_words = encode_init_head(&test_init(None)).len();
        let identity = head_words + 2 + euler_bsp::wire::words_for(csr.path().to_string_lossy().len());
        let with_word = |at: usize, word: u64| {
            let mut bad = good_ref.clone();
            bad[8 * at..8 * at + 8].copy_from_slice(&word.to_le_bytes());
            bad
        };
        let mut missing = encode_init_head(&test_init(None));
        missing.u(seed_tag::FILE);
        missing.str(&dir.join("no-such.ecsr").to_string_lossy());
        missing.words(&[csr.checksum(), 16, 16, 8, 0b11]);
        missing.words(&[0; 8]);
        // More labels claimed than the payload holds, and a payload that ends
        // where the mask should start.
        let short_labels = with_word(identity + 1, 1 << 40);
        let no_mask = good_ref[..8 * (identity + 4)].to_vec();
        // Label 9 of an 8-partition assignment, in the low and the high half.
        let labels_at = identity + 5;
        let big_label = [with_word(labels_at, 9), with_word(labels_at, 9 << 32)];
        // The endpoints section names vertex 16 of 16: only the checked
        // lookups of the loader stand between a trusted open and a panic.
        let corrupt = dir.join("corrupt.ecsr");
        let mut bytes = std::fs::read(csr.path()).unwrap();
        let last = bytes.len() - 8;
        bytes[last..].copy_from_slice(&16u64.to_le_bytes());
        std::fs::write(&corrupt, &bytes).unwrap();
        let mut corrupt_ref = encode_init_head(&test_init(None));
        corrupt_ref.u(seed_tag::FILE);
        corrupt_ref.str(&corrupt.to_string_lossy());
        corrupt_ref.words(&[csr.checksum(), 16, 16, 8, 0b11]);
        let corrupt_ref = [corrupt_ref.as_bytes(), encode_labels(&a).as_bytes()].concat();
        // A triangle's file holds 32 words: 8 partitions' 64 cut cells are
        // more than the worker will allocate on its word.
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        euler_graph::write_csr_file(&g, dir.join("triangle.ecsr")).unwrap();
        let triangle = CsrFile::open(dir.join("triangle.ecsr")).unwrap();
        let spread = PartitionAssignment::from_labels(vec![0, 3, 7], 8).unwrap();
        let wide_ref = file_init(&triangle, &spread, 0b11);
        let hostile_refs = vec![
            (wide_ref, "cut matrix larger than the file"),
            (unknown_tag.into_bytes(), "unknown seed tag 3"),
            (far_checkpoint.into_bytes(), "checkpoint seed names superstep 1099511627776"),
            (missing.into_bytes(), "no-such.ecsr"),
            (with_word(identity, csr.checksum() ^ 1), "not the one the coordinator mapped"),
            (with_word(identity + 1, 15), "not the one the coordinator mapped"),
            (with_word(identity + 2, 17), "not the one the coordinator mapped"),
            (with_word(identity + 3, 9), "names 9 partitions, the tree has 8"),
            (short_labels, "truncated"),
            (no_mask, "truncated"),
            (big_label[0].clone(), "partition P9 out of range"),
            (big_label[1].clone(), "partition P9 out of range"),
            (corrupt_ref, "vertex v16 out of range"),
        ];
        let mut garbage_inbox = WordWriter::from_words(&[0, 1, 7]);
        garbage_inbox.words(&[1, 0, 0, u64::MAX, 0, 0, 0]);
        // The tiny tree ships partition 1 into level 1, nothing else.
        let stray_inbox = start_payload(1, &[state(5, &[])]);
        let good_init = || init_payload(&test_init(None), &[state(0, &[])]);
        // A worker holding both ends of the tiny tree's one merge keeps
        // partition 1 at superstep 0; a Start that delivers it again would
        // merge it twice.
        let both_ends = init_payload(&test_init(None), &[state(0, &[]), state(1, &[])]);
        let kept_again = vec![
            (kind::INIT, both_ends),
            (kind::START, start_payload(0, &[])),
            (kind::START, start_payload(1, &[state(1, &[])])),
        ];
        let mut cases = vec![
            (vec![(kind::INIT, garbage_seed.into_bytes())], "payload"),
            (vec![(kind::INIT, good_init()), (kind::START, garbage_inbox.into_bytes())], "payload"),
            (vec![(kind::INIT, good_init()), (kind::START, stray_inbox)], "ships no such child"),
            (kept_again, "partition 1 arrived twice"),
        ];
        cases.extend(hostile_refs.into_iter().map(|(init, what)| (vec![(kind::INIT, init)], what)));
        for (frames, what) in cases {
            let listener = MemTransport.listen().unwrap();
            let dial = MemTransport.connect(&listener.endpoint()).unwrap();
            let worker = std::thread::spawn(move || run_worker(Arc::from(dial), 0, KillMode::Exit));
            let conn = listener.accept(Duration::from_secs(5)).unwrap();
            assert_eq!(conn.recv_timeout(Some(Duration::from_secs(5))).unwrap().0, kind::HELLO);
            for (k, payload) in &frames {
                conn.send(*k, payload).unwrap();
            }
            let err = worker.join().expect("worker must not panic").unwrap_err();
            assert!(err.contains(what), "expected `{what}`, got: {err}");
        }
        // The same corrupt bytes do not get past the validated open.
        assert!(matches!(
            CsrFile::open(&corrupt),
            Err(euler_graph::GraphError::CsrFormat(_))
        ));

        // The good reference brings the worker up: Ready carries no
        // checkpoint Longs and the time the level-0 build took.
        let listener = MemTransport.listen().unwrap();
        let dial = MemTransport.connect(&listener.endpoint()).unwrap();
        let worker = std::thread::spawn(move || run_worker(Arc::from(dial), 0, KillMode::Exit));
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        assert_eq!(conn.recv_timeout(Some(Duration::from_secs(5))).unwrap().0, kind::HELLO);
        conn.send(kind::INIT, &good_ref).unwrap();
        let (k, ready) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        let [restored, seed_ns, refusal] = WordReader::new(&ready).unwrap().array().unwrap();
        assert_eq!((k, restored, refusal), (kind::READY, 0, 0));
        assert!(seed_ns > 0, "the worker reports its level-0 build");
        conn.send(kind::SHUTDOWN, &[]).unwrap();
        worker.join().unwrap().unwrap();

        // A level-0 seed writes no checkpoint. A checkpoint that is not
        // exactly two state lists — garbage, or one more word after them:
        // Inited from one, the worker answers that it found and ignored it,
        // and carries on. A checkpoint never written is missing; a sound one
        // restores.
        let ckpt = dir.join("ckpt");
        let checkpointing = test_init(Some(ckpt.clone()));
        let writer = WorkerState::build(test_init(Some(ckpt.clone())), vec![state(0, &[4])]);
        let listener = MemTransport.listen().unwrap();
        let dial = MemTransport.connect(&listener.endpoint()).unwrap();
        let worker = std::thread::spawn(move || run_worker(Arc::from(dial), 0, KillMode::Exit));
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        assert_eq!(conn.recv_timeout(Some(Duration::from_secs(5))).unwrap().0, kind::HELLO);
        conn.send(kind::INIT, &init_payload(&checkpointing, &[state(0, &[])])).unwrap();
        let (k, ready) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        let [longs, _, refusal] = WordReader::new(&ready).unwrap().array().unwrap();
        assert_eq!((k, longs, refusal), (kind::READY, 0, 0));
        assert!(!checkpoint_file(&ckpt, 0, 0).exists(), "a level-0 seed wrote checkpoint 0");
        let ready_from = |superstep: u32| {
            conn.send(kind::INIT, &checkpoint_init(&checkpointing, superstep)).unwrap();
            let (k, ready) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(k, kind::READY);
            let [longs, _, refusal] = WordReader::new(&ready).unwrap().array().unwrap();
            (longs, refusal)
        };
        let mut trailing = WordWriter::new();
        encode_states(&mut trailing, writer.set.slots.values());
        encode_states(&mut trailing, writer.set.kept.iter());
        trailing.u(0);
        let garbage = WordWriter::from_words(&[7, 1, 0, 0, u64::MAX]);
        for (superstep, payload) in (5..).zip([garbage, trailing, WordWriter::new()]) {
            write_checkpoint(&checkpoint_file(&ckpt, 0, superstep), payload.as_bytes()).unwrap();
            assert_eq!(ready_from(superstep), (0, 2));
        }
        assert_eq!(ready_from(9), (0, 1));
        // Written counts the container's 4 header words, restored its payload.
        let sound = writer.write_ckpt(9);
        assert_eq!(ready_from(9), (sound - 4, 0));
        conn.send(kind::SHUTDOWN, &[]).unwrap();
        worker.join().unwrap().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    /// Workers stepped in place answer the same inbound states with the
    /// same typed error (where the simulated engine `.expect`ed on decode).
    #[test]
    fn in_place_workers_refuse_hostile_inbound_states_with_the_same_typed_error() {
        let entry = |words: WordWriter| {
            let buf = Arc::new(words.into_bytes());
            Blob::words(&buf, 0..buf.len() / 8)
        };
        let mut stray = WordWriter::new();
        encode_state(&mut stray, &state(5, &[]));
        let garbage = WordWriter::from_words(&[7, 1, 0, 0, u64::MAX, 0, 0, 0]);
        for (inbound, what) in [(stray, "ships no such child"), (garbage, "payload")] {
            let mut run = DistRun::new(
                BspConfig::with_workers(2),
                None,
                Arc::new(tiny_tree()),
                MergeStrategy::Deferred,
                vec![state(0, &[])].into(),
                false,
            )
            .unwrap();
            run.inbox[0].push(entry(inbound));
            match run.step(1, &FragmentStore::new()) {
                Err(EulerError::Distributed(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("expected a typed error, got {:?}", other.map(|o| o.reports.len())),
            }
        }
    }

    /// The records of a share's shipped states, as the next Start (or the
    /// next in-place level) hands them to `unpack`.
    fn shipped_records(done: &DoneMsg) -> Vec<WordReader<'_>> {
        done.outgoing
            .iter()
            .map(|(_, entry)| WordReader::new(entry.bytes())?.record())
            .collect::<Result<_, WireError>>()
            .unwrap()
    }

    #[test]
    fn kept_and_decoded_children_of_one_parent_merge_in_pair_order() {
        use crate::level::tests::{leaves, tree};
        // Partitions 0 and 1 both retire into 2 at level 0, 0 before 1.
        let star = Arc::new(tree(vec![vec![(2, 0), (2, 1)]]));
        let set_of = |ids: &[usize], fan_out| {
            let mine = ids.iter().map(|&i| leaves().swap_remove(i)).collect();
            SlotSet::new(Arc::clone(&star), MergeStrategy::Duplicated, mine, fan_out)
        };
        let set = |ids: &[usize]| set_of(ids, false);
        // One worker holds everything, its slots fanned out as the
        // in-process backend's are: both children are kept.
        let oracle_store = FragmentStore::new();
        let mut oracle = set_of(&[0, 1, 2], true);
        let share = oracle.step_level(0, Inbound::new(), &oracle_store);
        assert_eq!((share.local_messages, share.shipped), (2, 0));
        let inbound = oracle.unpack(1, Vec::new()).unwrap();
        oracle.step_level(1, inbound, &oracle_store);

        // The parent's worker holds one child and is sent the other —
        // either one: the kept state is listed before the decoded one, the
        // merges run 0 then 1 all the same.
        for (with_parent, elsewhere) in [(0, 1), (1, 0)] {
            let store = FragmentStore::new();
            let (mut here, mut there) = (set(&[with_parent, 2]), set(&[elsewhere]));
            let kept = here.step_level(0, Inbound::new(), &store);
            let sent = there.step_level(0, Inbound::new(), &store);
            assert_eq!((kept.local_messages, kept.shipped), (1, 0));
            assert_eq!((sent.local_messages, sent.shipped), (0, 1));
            let child = &here.kept[0];
            assert_eq!(child.id.0 as usize, with_parent);
            assert_eq!(kept.local_bytes, 8 * wire::record_words(child) as u64);
            // By value means no codec time on either side of the hand-off.
            assert_eq!(kept.reports[0].ship, Duration::ZERO);
            assert!(there.slots.is_empty() && there.kept.is_empty());

            let sent = sent.into_done(0).unwrap();
            assert_eq!(sent.outgoing[0].0, 2);
            let inbound = here.unpack(1, shipped_records(&sent)).unwrap();
            assert!(here.kept.is_empty(), "unpack consumes the kept states");
            let order: Vec<u32> = inbound[&PartitionId(2)].iter().map(|(wp, _)| wp.id.0).collect();
            assert_eq!(order, [0, 1]);
            let unpack: Vec<bool> =
                inbound[&PartitionId(2)].iter().map(|(_, t)| *t == Duration::ZERO).collect();
            assert!(unpack[with_parent], "the kept child was not decoded");
            let root = here.step_level(1, inbound, &store);
            assert_eq!((root.local_messages, root.shipped), (0, 0));
            assert_eq!(here.slots, oracle.slots);
            assert_eq!(store.snapshot(), oracle_store.snapshot());

            // Delivered again, the kept child is refused.
            let (mut here, _) = (set(&[with_parent, 2]), ());
            here.step_level(0, Inbound::new(), &store);
            let mut again = LevelShare::new();
            again.ship(2, &leaves()[with_parent]);
            let again = again.into_done(0).unwrap();
            assert!(matches!(
                here.unpack(1, shipped_records(&again)),
                Err(EulerError::Distributed(m)) if m.contains("arrived twice")
            ));
        }
    }

    #[test]
    fn a_carried_over_slot_merges_a_kept_child() {
        use crate::level::tests::{leaves, step, tree};
        // 0 retires into 1 at level 0, 1 into 2 at level 1: slot 2 is carried
        // over twice before its only child arrives — by value, the one
        // worker holding everything.
        let chain = Arc::new(tree(vec![vec![(1, 0)], vec![(2, 1)]]));
        let store = FragmentStore::new();
        let mut set = SlotSet::new(Arc::clone(&chain), MergeStrategy::Duplicated, leaves(), false);
        let mut local = Vec::new();
        for level in 0..3 {
            let inbound = set.unpack(level, Vec::new()).unwrap();
            let share = set.step_level(level, inbound, &store);
            assert_eq!(share.shipped, 0);
            local.push(share.local_messages);
        }
        assert_eq!(local, [1, 1, 0]);

        // The same walk, the states handed on by hand.
        let by_hand = FragmentStore::new();
        let step = |wp, children, level| step(wp, children, &chain, level, &by_hand).state;
        let [p0, p1, p2]: [WorkingPartition; 3] = leaves().try_into().unwrap();
        let (p0, p1, p2) = (step(p0, vec![], 0), step(p1, vec![], 0), step(p2, vec![], 0));
        let (p1, p2) = (step(p1, vec![p0], 1), step(p2, vec![], 1));
        let root = step(p2, vec![p1], 2);
        assert_eq!(set.slots.into_values().collect::<Vec<_>>(), [root]);
        assert_eq!(store.snapshot(), by_hand.snapshot());
    }

    #[test]
    fn a_checkpoint_round_trips_the_slots_and_the_kept_states() {
        use crate::level::tests::{leaves, tree};
        let dir = scratch("kept");
        let chain = Arc::new(tree(vec![vec![(1, 0)], vec![(2, 1)]]));
        let init = InitHead { tree: chain, ..test_init(Some(dir.clone())) };
        let mut s = WorkerState::build(init, leaves());
        // Superstep 0 keeps partition 0 for slot 1 and writes checkpoint 1.
        let done = s.superstep(0, Inbound::new());
        assert!(done.checkpoint_longs > 0);
        assert_eq!((done.share.local_messages, s.set.kept.len()), (1, 1));
        let (slots, kept) = (s.set.slots.clone(), s.set.kept.clone());
        // Superstep 1 consumes it; rolling back to checkpoint 1 reinstates
        // it, and the superstep replays to the same share.
        let replay = |s: &mut WorkerState| {
            let inbound = s.set.unpack(1, Vec::new()).unwrap();
            let done = s.superstep(1, inbound);
            (done.share.reports.iter().map(|r| r.report.counts).collect::<Vec<_>>(), s.set.slots.clone())
        };
        let first = replay(&mut s);
        assert!(s.restore(1).is_ok());
        assert_eq!((&s.set.slots, &s.set.kept), (&slots, &kept));
        assert_eq!(replay(&mut s), first);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_checkpoint_refusal_is_not_ignored() {
        // Checkpointing disabled → refusal without "ignored" (nothing was
        // found and discarded); same for an enabled dir with no file yet.
        let mut s = WorkerState::build(test_init(None), Vec::new());
        assert!(!s.restore(0).unwrap_err().ignored);
        let dir = scratch("missing");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        assert!(!s.restore(0).unwrap_err().ignored);
        // A directory beneath a regular file: nothing can be written there
        // (0 Longs) and nothing opened, so nothing was ignored either.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut s = WorkerState::build(test_init(Some(blocker.join("ckpt"))), vec![state(0, &[4])]);
        assert_eq!(s.write_ckpt(1), 0);
        assert!(!s.restore(1).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_checkpoint_is_detected_and_ignored_at_restore() {
        let dir = scratch("torn");
        let seeds = vec![state(0, &[4, 5, 6])];
        let kept = vec![state(1, &[7]), state(3, &[])];
        let mut s = WorkerState::build(test_init(Some(dir.clone())), seeds.clone());
        s.set.kept = kept.clone();
        assert!(s.write_ckpt(1) > 0);
        s.set.slots.clear();
        s.set.kept.clear();
        assert!(s.restore(1).is_ok(), "pristine checkpoint must restore");
        assert_eq!(s.set.slots.into_values().collect::<Vec<_>>(), seeds);
        assert_eq!(s.set.kept, kept, "the kept states are part of the state entering a superstep");
        // Tear the file mid-payload, as a crash during a (non-atomic) write
        // or a truncated copy would.
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        let path = checkpoint_file(&dir, 0, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(s.restore(1).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn foreign_version_checkpoint_is_detected_and_ignored_at_restore() {
        let dir = scratch("version");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        assert!(s.write_ckpt(1) > 0);
        // Word 1 of the container is the format version; stamp a future one.
        let path = checkpoint_file(&dir, 0, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.restore(1).unwrap_err().ignored);
        // So are the versions before this one, whose payloads also held the
        // fragments a superstep found.
        for earlier in [2u64, 3, 4] {
            bytes[8..16].copy_from_slice(&earlier.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(s.restore(1).unwrap_err().ignored);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_payload_is_detected_and_ignored_at_restore() {
        let dir = scratch("corrupt");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        assert!(s.write_ckpt(2) > 0);
        let path = checkpoint_file(&dir, 0, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.restore(2).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Start messages round-trip for any superstep and state set.
        #[test]
        fn start_message_roundtrips(
            superstep in 0u64..1000,
            seeds in prop::collection::vec(prop::collection::vec(0u64..1_000_000, 0..12), 0..6),
        ) {
            let states: Vec<WorkingPartition> =
                seeds.iter().enumerate().map(|(i, s)| state(i as u32, s)).collect();
            let (ss, got) = start_states(&start_payload(superstep as u32, &states)).unwrap();
            prop_assert_eq!(ss, superstep as u32);
            prop_assert_eq!(got, states);
        }

        /// Init and Done round-trip for any state / fragment set: the
        /// states through the worker's decoder, the fragments through the
        /// coordinator's commit.
        #[test]
        fn init_and_done_messages_roundtrip(
            seeds in prop::collection::vec(prop::collection::vec(1u64..1_000_000, 0..12), 0..6),
        ) {
            let states: Vec<WorkingPartition> =
                seeds.iter().enumerate().map(|(i, s)| state(i as u32, s)).collect();
            let (_, got) = decode_init(&init_payload(&test_init(None), &states)).unwrap();
            prop_assert_eq!(&shipped(got), &states);

            // Fragments whose virtual edges point at the previous fragment
            // (or, for the first, nowhere — made real).
            let mut done = sample_done(&[]);
            let mut expected = Vec::new();
            for (i, seed) in seeds.iter().enumerate() {
                done.share.ship(i as u32, &states[i]);
                if seed.is_empty() {
                    continue;
                }
                let mut f = fragment(i as u32, seed);
                for e in &mut f.edges {
                    if let TourEdge::Virtual { from, to, .. } = *e {
                        *e = match expected.last() {
                            None => TourEdge::Real { edge: EdgeId(0), from, to },
                            Some(Fragment { id, .. }) => TourEdge::Virtual { fragment: *id, from, to },
                        };
                    }
                }
                expected.push(f);
            }
            done.fragments = segments_of(&expected);
            let parsed = decode_done(Arc::new(done_payload(&done))).unwrap();
            prop_assert_eq!(parsed.outgoing.len(), states.len());
            for ((to, entry), wp) in parsed.outgoing.iter().zip(&states) {
                prop_assert_eq!(*to, wp.id.0);
                let mut r = WordReader::new(entry.bytes()).unwrap();
                prop_assert_eq!(&wire::decode(&mut r.record().unwrap()).unwrap(), wp);
            }
            prop_assert_eq!(adopted(fragments_of(&parsed)).unwrap(), expected);
        }

        /// Decoding random garbage words returns a typed error or a
        /// harmless value — never a panic, never an unbounded allocation.
        #[test]
        fn protocol_decoders_never_panic_on_garbage(
            words in prop::collection::vec(0u64..u64::MAX, 0..40),
        ) {
            let payload = WordWriter::from_words(&words).into_bytes();
            let _ = decode_init(&payload);
            // Garbage behind a well-formed head and every seed tag; a
            // reference that happens to decode names no file to build from.
            for tag in [seed_tag::STATES, seed_tag::FILE, seed_tag::CHECKPOINT] {
                let mut init = encode_init_head(&test_init(None));
                init.u(tag);
                init.words(&words);
                if let Ok((head, SeedTail::File(file))) = decode_init(init.as_bytes()) {
                    prop_assert!(build_from_file(&file, &head.tree, head.strategy).is_err());
                }
            }
            let _ = start_states(&payload);
            if let Ok(done) = decode_done(Arc::new(payload.clone())) {
                let _ = adopted(fragments_of(&done));
            }
            let mut r = WordReader::new(&payload).unwrap();
            let _ = wire::decode(&mut r);
            let payload = Arc::new(payload);
            for (head, at) in read_segments(&mut WordReader::new(&payload).unwrap()).unwrap_or_default() {
                let _ = Segment::validated(&head, &payload, 8 * at.start..8 * at.end, |_| true);
            }
        }
    }
}
