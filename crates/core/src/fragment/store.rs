//! The spill backing and [`FragmentStore`].

use super::*;

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

pub(super) fn eviction_key(id: FragmentId) -> EvictionKey {
    (id.level(), Reverse(id.partition().0), id.seq())
}

/// Distinguishes concurrently-live spill files of one process.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A run of records the store holds: in memory, or — `spilled_at` set, its
/// buffer dropped, its record starts kept — at that offset of the spill file.
pub(super) struct Run {
    pub(super) segment: Segment,
    pub(super) spilled_at: Option<u64>,
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
pub(super) struct Backing {
    /// Resident fragment budget in Longs; none: every run stays resident.
    budget: Option<u64>,
    directory: PathBuf,
    /// Every run, by the id of its first record: key order is id order.
    pub(super) runs: BTreeMap<FragmentId, Run>,
    /// The resident runs in eviction order: the first is the next victim.
    resident: BTreeSet<EvictionKey>,
    /// The spilled runs in file order, and where each write to it ended.
    pub(super) file_order: Vec<FragmentId>,
    file_writes: Vec<u64>,
    /// Staged runs, back to back: what goes to the file at `file_end` next.
    /// Capacity 0 or [`RUN_BYTES`].
    pub(super) staged: Vec<u8>,
    /// Created at the first write and unlinked right away.
    pub(super) file: Option<File>,
    pub(super) file_end: u64,
    /// Set after a spill I/O failure: stop spilling, stay resident.
    broken: bool,
    pub(super) stats: FragmentStoreStats,
}

impl Backing {
    /// Stores `segment`, whose first record is `first`, after the runs
    /// already held for its `(level, partition)`; under a budget an empty one
    /// is not kept, so no spilled run shares its key.
    pub(super) fn append(&mut self, first: FragmentId, segment: Segment) {
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
    pub(super) fn flush(&mut self) {
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
    pub(super) fn record(&mut self, id: FragmentId) -> io::Result<Record> {
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
        self.file
            .as_ref()
            .expect("spilled records imply an open file")
            .read_exact_at(&mut bytes, at + range.start as u64)?;
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
    pub(super) fn for_each_stored(&mut self, f: &mut dyn FnMut(FragmentId, RecordView<'_>)) -> io::Result<()> {
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
    pub(super) fn stats(&mut self) -> FragmentStoreStats {
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
pub(super) fn reloaded<T>(result: io::Result<T>) -> T {
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
    pub(super) inner: Arc<Mutex<Inner>>,
}

/// What the store's lock guards: the backing and the totals appended to it.
#[derive(Default)]
pub(super) struct Inner {
    pub(super) backing: Backing,
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
    pub(super) fn pushed(&self, level: u32, partition: PartitionId) -> u64 {
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
        f.debug_struct("FragmentStore").field("len", &inner.fragments).field("stats", &inner.backing.stats()).finish()
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
    pub(crate) fn adopt(&self, head: &SegmentHead, buf: &Arc<Vec<u8>>, range: Range<usize>) -> Result<(), WireError> {
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
