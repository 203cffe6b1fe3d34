//! Protocol messages over the shared word codec (`euler_bsp::wire`).
//!
//! Partition states and fragments are the bulk of every message. A worker
//! encodes states straight into the outgoing payload and decodes them straight
//! out of the received one; fragments it sends as the buffers they are stored
//! in. The coordinator, which only routes states, parses a Done into counters
//! plus byte ranges (`Blob`): the states' it sends on as parts of the next
//! Start, the fragments' its store validates and keeps.

use super::*;

pub(super) mod kind {
    pub const HELLO: u16 = 1;
    pub const INIT: u16 = 2;
    pub const READY: u16 = 3;
    pub const START: u16 = 4;
    pub const DONE: u16 = 5;
    pub const HEARTBEAT: u16 = 6;
    pub const SHUTDOWN: u16 = 7;
    pub const BYE: u16 = 8;
}

pub(super) fn encode_tree(out: &mut WordWriter, tree: &MergeTree) {
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

pub(super) fn decode_tree(r: &mut WordReader<'_>) -> Result<MergeTree, WireError> {
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
    if levels.len() as u64 >= FragmentId::MAX_LEVELS as u64 || leaves.iter().any(|l| l.0 >= FragmentId::MAX_PARTITIONS)
    {
        return Err(WireError::Invalid("merge tree exceeds the fragment id layout".into()));
    }
    // Indexed by what was decoded, not by id: one table entry per (distinct
    // id read above, level + 1), and the same answers as the level scan.
    Ok(MergeTree::from_parts(levels, root, leaves))
}

/// Refuses partition states the worker's merge tree has no slot for.
pub(super) fn check_slots(tree: &MergeTree, states: &[WorkingPartition]) -> Result<(), WireError> {
    match states.iter().find(|wp| !tree.leaves.contains(&wp.id)) {
        Some(wp) => Err(WireError::Invalid(format!("state of unknown partition {}", wp.id.0))),
        None => Ok(()),
    }
}

/// Appends a state list — `[n, n × (len, state record)]` — the body of
/// Init seeds, Start inboxes and checkpointed slots alike.
pub(super) fn encode_states<'a>(out: &mut WordWriter, states: impl ExactSizeIterator<Item = &'a WorkingPartition>) {
    out.u(states.len() as u64);
    for wp in states {
        encode_state(out, wp);
    }
}

/// Appends one length-prefixed state record.
pub(super) fn encode_state(out: &mut WordWriter, wp: &WorkingPartition) {
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

/// Decodes a state list of a run whose tree has `buckets` levels.
pub(super) fn decode_states(r: &mut WordReader<'_>, buckets: usize) -> Result<Vec<WorkingPartition>, WireError> {
    state_records(r)?.into_iter().map(|mut record| wire::decode(&mut record, buckets)).collect()
}

/// Words of framing a segment list holds per segment.
pub(super) const SEGMENT_FRAMING_WORDS: usize = 5;

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
pub(super) fn read_segments(r: &mut WordReader<'_>) -> Result<Vec<(SegmentHead, Range<usize>)>, WireError> {
    let n = r.count()?;
    let mut segments = Vec::with_capacity(r.cap(n, SEGMENT_FRAMING_WORDS));
    // The records follow the framing, back to back.
    let mut at = r.position().saturating_add(n.saturating_mul(SEGMENT_FRAMING_WORDS));
    for _ in 0..n {
        let [level, partition, first_seq, records, len] = r.array()?;
        // Saturating: a coordinate beyond its field is refused by the
        // validator, not wrapped into a valid one.
        let field = |w: u64| u32::try_from(w).unwrap_or(u32::MAX);
        let head = SegmentHead { level: field(level), partition: PartitionId(field(partition)), first_seq, records };
        let end = at.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
        segments.push((head, at..end));
        at = end;
    }
    r.take(at - r.position())?;
    Ok(segments)
}

/// Everything a worker needs to run besides its partition states: the head
/// of the Init message, which the tagged seed ([`SeedTail`]) follows.
pub(super) struct InitHead {
    pub(super) worker_id: u32,
    pub(super) strategy: MergeStrategy,
    pub(super) heartbeat_interval: Duration,
    pub(super) checkpoint_dir: Option<PathBuf>,
    pub(super) tree: Arc<MergeTree>,
}

pub(super) fn encode_init_head(m: &InitHead) -> WordWriter {
    let mut out = WordWriter::new();
    out.words(&[m.worker_id as u64, m.strategy.wire_code(), m.heartbeat_interval.as_nanos() as u64]);
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

pub(super) fn decode_init(payload: &[u8]) -> Result<(InitHead, SeedTail), WireError> {
    let mut r = WordReader::new(payload)?;
    let [worker_id, strategy, heartbeat_ns, has_dir] = r.array()?;
    let strategy = MergeStrategy::from_wire_code(strategy)?;
    let checkpoint_dir = if has_dir != 0 { Some(PathBuf::from(r.str()?)) } else { None };
    let head = InitHead {
        worker_id: word_u32(worker_id, "worker id")?,
        strategy,
        heartbeat_interval: Duration::from_nanos(heartbeat_ns),
        checkpoint_dir,
        tree: Arc::new(decode_tree(&mut r)?),
    };
    let seed = decode_seed(&mut r, &head.tree)?;
    Ok((head, seed))
}

/// The tail of an Init: where the worker's states come from.
pub(super) enum SeedTail {
    /// The level-0 states, shipped.
    States(Vec<WorkingPartition>),
    /// The `.ecsr` they are to be built from.
    File(FileRef),
    /// The worker's own checkpoint entering this superstep.
    Checkpoint(u32),
}

pub(super) mod seed_tag {
    pub const STATES: u64 = 0;
    pub const FILE: u64 = 1;
    pub const CHECKPOINT: u64 = 2;
}

/// A reference to the level 0 the coordinator holds mapped.
pub(super) struct FileRef {
    pub(super) path: PathBuf,
    /// Checksum, vertex count and edge count of the file's header.
    pub(super) identity: [u64; 3],
    /// Bit `p` set: partition `p` is this worker's.
    pub(super) owned: Vec<u64>,
    pub(super) assignment: PartitionAssignment,
}

/// Encodes the part of a file-reference tail that differs by worker:
/// `[1, path, checksum, n, m, P, ⌈P/64⌉ mask words]`. The labels follow,
/// the same for every worker ([`encode_labels`]).
pub(super) fn encode_file_ref(csr: &CsrFile, num_partitions: u32, owned: &[u64]) -> WordWriter {
    let mut out = WordWriter::from_words(&[seed_tag::FILE]);
    out.str(&csr.path().to_string_lossy());
    out.words(&[csr.checksum(), csr.num_vertices(), csr.num_edges(), u64::from(num_partitions)]);
    out.words(owned);
    out
}

/// The assignment's labels, two per word, the earlier vertex in the low half.
pub(super) fn encode_labels(assignment: &PartitionAssignment) -> WordWriter {
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
            let seeds = decode_states(r, tree.height() as usize)?;
            check_slots(tree, &seeds)?;
            Ok(SeedTail::States(seeds))
        }
        seed_tag::FILE => {
            let path = PathBuf::from(r.str()?);
            let [checksum, n, m, parts] = r.array()?;
            let num_partitions =
                u32::try_from(parts).ok().filter(|&p| p as usize == tree.leaves.len()).ok_or_else(|| {
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
            let mut labels = Vec::with_capacity(r.cap(num_labels.div_ceil(2), 1).saturating_mul(2));
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
            u32::try_from(superstep)
                .map(SeedTail::Checkpoint)
                .map_err(|_| WireError::Invalid(format!("checkpoint seed names superstep {superstep}")))
        }
        tag => Err(WireError::Invalid(format!("unknown seed tag {tag}"))),
    }
}

/// Reads a Start as far as its framing: the superstep and the inbound state
/// records, which the slot set decodes ([`SlotSet::unpack`]).
pub(super) fn decode_start(payload: &[u8]) -> Result<(u32, Vec<WordReader<'_>>), WireError> {
    let mut r = WordReader::new(payload)?;
    Ok((word_u32(r.u()?, "superstep")?, state_records(&mut r)?))
}

/// One slot's line of a worker's share of a level: its record, the state's
/// `memory_longs` after Phase 1, and the two codec buckets of Fig. 6 (merge
/// and tour time are in the record).
#[derive(Debug, PartialEq)]
pub(super) struct SlotReport {
    pub(super) report: LevelPartitionReport,
    pub(super) post_memory: u64,
    /// Decoding the child states merged into this slot.
    pub(super) unpack: Duration,
    /// Encoding the state for its merge parent; zero if it stayed.
    pub(super) ship: Duration,
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
                counts: VertexTypeCounts { even_internal, even_boundary, odd_boundary, remote_edges, local_edges },
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
pub(super) struct LevelShare {
    pub(super) reports: Vec<SlotReport>,
    /// `[n_out, n_out × entry]`, the count kept current as entries are added.
    outgoing: WordWriter,
    pub(super) shipped: u64,
    pub(super) transfer_longs: u64,
    /// States handed over by value, and the bytes their records would have
    /// encoded to.
    pub(super) local_messages: u64,
    pub(super) local_bytes: u64,
}

impl LevelShare {
    pub(super) fn new() -> Self {
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
    pub(super) fn ship(&mut self, to: u32, wp: &WorkingPartition) {
        self.shipped += 1;
        self.outgoing.set(0, self.shipped);
        self.outgoing.u(to as u64);
        encode_state(&mut self.outgoing, wp);
    }

    /// The share as the barrier fold reads it, with nothing framed: the
    /// shipped entries are ranges of the buffer they were encoded into, and
    /// the fragments are wherever the worker pushed them.
    pub(super) fn into_done(self, superstep: u32) -> Result<DoneMsg, WireError> {
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
pub(super) struct DoneWriter {
    pub(super) superstep: u32,
    pub(super) share: LevelShare,
    pub(super) fragments: Vec<Segment>,
    pub(super) checkpoint_longs: u64,
}

impl DoneWriter {
    /// Sends the message as its part list.
    pub(super) fn send(&self, conn: &dyn Connection) -> Result<(), FrameError> {
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
        let mut parts = vec![reports.as_bytes(), self.share.outgoing.as_bytes(), framing.as_bytes()];
        parts.extend(self.fragments.iter().map(Segment::bytes));
        parts.push(tail.as_bytes());
        conn.send_parts(kind::DONE, &parts)
    }
}

/// A byte range of a buffer of encoded words: relayed, or decoded later,
/// without being copied out of the buffer it was received or encoded in.
#[derive(Clone)]
pub(super) struct Blob {
    buf: Arc<Vec<u8>>,
    pub(super) range: Range<usize>,
}

impl Blob {
    pub(super) fn words(buf: &Arc<Vec<u8>>, words: Range<usize>) -> Self {
        Blob { buf: Arc::clone(buf), range: 8 * words.start..8 * words.end }
    }

    pub(super) fn bytes(&self) -> &[u8] {
        self.buf.get(self.range.clone()).unwrap_or_default()
    }
}

/// A worker's share of a level as the barrier fold reads it: the reports
/// and counters, decoded, and where the shipped states (and, from a wire
/// worker, the fragment list) lie in the buffer that holds them — those are
/// routed and retained as bytes.
pub(super) struct DoneMsg {
    pub(super) superstep: u32,
    pub(super) reports: Vec<SlotReport>,
    /// `(destination partition, its `(len, state record)` entry)` ships —
    /// each range is a ready-made entry of the next Start's state list.
    pub(super) outgoing: Vec<(u32, Blob)>,
    /// A wire worker's segments, read as far as their framing; validated and
    /// adopted where they lie when the barrier commits
    /// ([`adopt_fragments`]). `None` from a worker stepped in place, whose
    /// fragments are in the walk's store already.
    pub(super) fragments: Option<Vec<(SegmentHead, Blob)>>,
    pub(super) transfer_longs: u64,
    pub(super) checkpoint_longs: u64,
    /// States the worker handed a parent of its own by value, and the bytes
    /// their records would have encoded to.
    pub(super) local_messages: u64,
    pub(super) local_bytes: u64,
}

/// Every worker's share of one level, tagged with the worker.
pub(super) type Dones = Vec<(u32, DoneMsg)>;

/// Reads an `outgoing` section into `(destination, entry)` ranges of `buf`,
/// the buffer `r` reads.
fn read_outgoing(r: &mut WordReader<'_>, buf: &Arc<Vec<u8>>) -> Result<Vec<(u32, Blob)>, WireError> {
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

pub(super) fn decode_done(payload: Arc<Vec<u8>>) -> Result<DoneMsg, WireError> {
    let mut r = WordReader::new(&payload)?;
    let superstep = word_u32(r.u()?, "superstep")?;
    let n_reports = r.count()?;
    let mut reports = Vec::with_capacity(r.cap(n_reports, SlotReport::WORDS));
    for _ in 0..n_reports {
        reports.push(SlotReport::decode(superstep, &mut r)?);
    }
    let outgoing = read_outgoing(&mut r, &payload)?;
    let segments = read_segments(&mut r)?;
    let fragments = Some(segments.into_iter().map(|(head, at)| (head, Blob::words(&payload, at))).collect());
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
pub(super) fn adopt_fragments(list: &[(SegmentHead, Blob)], store: &FragmentStore) -> Result<(), EulerError> {
    for (head, records) in list {
        store
            .adopt(head, &records.buf, records.range.clone())
            .map_err(|e| EulerError::Distributed(format!("committed fragment list: {e}")))?;
    }
    Ok(())
}
