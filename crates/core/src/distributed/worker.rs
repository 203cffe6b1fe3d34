//! Worker side: the partition states a worker holds between levels
//! (`SlotSet`), the level 0 a wire worker builds from a file reference, and
//! its protocol loop.

use super::protocol::{
    check_slots, decode_init, decode_start, decode_states, encode_states, kind, DoneWriter, FileRef, InitHead,
    LevelShare, SeedTail, SlotReport,
};
use super::*;

/// A worker's reason for refusing a checkpoint seed.
#[derive(Debug)]
pub(super) struct RestoreRefusal {
    /// True when a checkpoint file was read but detected as unusable and
    /// ignored (vs one that could not be opened, or checkpointing disabled).
    pub(super) ignored: bool,
}

/// The states arriving at a level, decoded, grouped by the slot they merge
/// into, in merge order — each with the time its decode took.
pub(super) type Inbound = BTreeMap<PartitionId, Vec<(WorkingPartition, Duration)>>;

/// The partition states one worker holds between levels, keyed by slot
/// (= partition id), with the tree they walk. The same object whether the
/// worker is stepped in place or serves a connection.
pub(super) struct SlotSet {
    tree: Arc<MergeTree>,
    strategy: MergeStrategy,
    pub(super) slots: BTreeMap<PartitionId, WorkingPartition>,
    /// The states the last level retired into slots of this set, waiting to
    /// be merged at the next: handed over by value, never encoded.
    pub(super) kept: Vec<WorkingPartition>,
}

/// A slot taken out for a level: its state, the children merging into it in
/// pair order, and the time their decode took.
pub(super) type SlotWork = (WorkingPartition, Vec<WorkingPartition>, Duration);

impl SlotSet {
    pub(super) fn new(tree: Arc<MergeTree>, strategy: MergeStrategy, states: Vec<WorkingPartition>) -> Self {
        let slots = states.into_iter().map(|wp| (wp.id, wp)).collect();
        SlotSet { tree, strategy, slots, kept: Vec::new() }
    }

    /// Decodes the state records arriving at a level and groups them, with
    /// the states kept here (decode time zero), for its merges. A record
    /// that does not decode, a state the previous level did not ship, a
    /// second state of one child, and one for a slot this worker does not
    /// hold are typed errors.
    pub(super) fn unpack(&mut self, level: u32, records: Vec<WordReader<'_>>) -> Result<Inbound, EulerError> {
        let kept = std::mem::take(&mut self.kept);
        let mut states: Vec<_> = kept.into_iter().map(|wp| (wp, Duration::ZERO)).collect();
        states.reserve(records.len());
        for mut record in records {
            let t0 = Instant::now();
            let wp = wire::decode(&mut record, self.tree.height() as usize)
                .map_err(|e| EulerError::Distributed(format!("inbound partition state: {e}")))?;
            states.push((wp, t0.elapsed()));
        }
        let held = |p: PartitionId| self.slots.contains_key(&p);
        group_inbound(&self.tree, level, states, |(wp, _)| wp.id, held)
    }

    /// Takes every slot out for a level, in slot order, each with the
    /// children `inbound` merges into it.
    pub(super) fn take(&mut self, mut inbound: Inbound) -> Vec<SlotWork> {
        let with_children = |wp: WorkingPartition| {
            let (children, unpack): (Vec<_>, Vec<Duration>) =
                inbound.remove(&wp.id).unwrap_or_default().into_iter().unzip();
            (wp, children, unpack.into_iter().sum())
        };
        std::mem::take(&mut self.slots).into_values().map(with_children).collect()
    }

    /// Steps a taken slot through `level` on an arena of `pool`, into `store`.
    pub(super) fn step(
        &self,
        level: u32,
        slot: SlotWork,
        pool: &ArenaPool,
        store: &FragmentStore,
    ) -> (SlotStep, Duration) {
        let (wp, children, unpack) = slot;
        (step_slot(wp, children, &self.tree, level, self.strategy, pool, store), unpack)
    }

    /// Folds a level's steps, in ascending slot order, into the worker's
    /// share: a state the tree retires leaves its slot — kept, by value, if
    /// its merge parent is a slot of this set, encoded into the share
    /// otherwise.
    pub(super) fn fold(&mut self, steps: Vec<(SlotStep, Duration)>) -> LevelShare {
        let held: Vec<PartitionId> = steps.iter().map(|(step, _)| step.state.id).collect();
        let mut share = LevelShare::new();
        for (step, unpack) in steps {
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
        }
        share
    }
}

/// Builds the worker's level-0 states from the file the coordinator named:
/// opened frame-checked, refused unless its header identity is the Init's,
/// then the loader's two passes — the worker's own scan, and a fill of the
/// partitions it owns.
pub(super) fn build_from_file(
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
    let edges = csr.edge_arrays();
    let scan = level0::scan(edges, assignment).map_err(bad)?;
    let levels = tree.leaf_levels(assignment.num_partitions());
    let owned = |p: PartitionId| file.owned.get(p.index() / 64).is_some_and(|word| word >> (p.index() % 64) & 1 == 1);
    let states = level0::fill(edges, assignment, &scan, strategy.deduplicates(), &levels, owned).map_err(bad)?;
    check_slots(tree, &states)?;
    Ok(states)
}

/// A wire worker's live state between supersteps.
pub(super) struct WorkerState {
    init: InitHead,
    pub(super) set: SlotSet,
    /// The Phase-1 arenas its levels reuse.
    pool: ArenaPool,
}

impl WorkerState {
    pub(super) fn build(init: InitHead, seeds: Vec<WorkingPartition>) -> Self {
        let set = SlotSet::new(Arc::clone(&init.tree), init.strategy, seeds);
        WorkerState { init, set, pool: ArenaPool::new() }
    }

    /// Writes the checkpoint entering `superstep`: the slot states, then the
    /// states kept for that superstep's merges — what [`Self::restore`]
    /// reinstates, and nothing else (the coordinator adopted the fragments
    /// at the barrier). Returns Longs written: 0 when checkpointing is off
    /// or the write failed, which the coordinator warns of.
    pub(super) fn write_ckpt(&self, superstep: u32) -> u64 {
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
    pub(super) fn restore(&mut self, superstep: u32) -> Result<u64, RestoreRefusal> {
        let Some(dir) = &self.init.checkpoint_dir else {
            return Err(RestoreRefusal { ignored: false });
        };
        let path = checkpoint_file(dir, self.init.worker_id, superstep);
        let payload = match read_checkpoint(&path) {
            Ok(p) => p,
            Err(CheckpointError::Missing) => return Err(RestoreRefusal { ignored: false }),
            Err(_) => return Err(RestoreRefusal { ignored: true }),
        };
        let decode = || -> Result<[Vec<WorkingPartition>; 2], WireError> {
            let mut r = WordReader::new(&payload)?;
            let buckets = self.init.tree.height() as usize;
            let states = [decode_states(&mut r, buckets)?, decode_states(&mut r, buckets)?];
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

    /// Runs one superstep: steps the slots in slot order on this thread,
    /// their fragments going through a store of the superstep's own — which
    /// hands out the same `(level, slot, seq)` ids a shared store would, so
    /// nothing is renumbered on the way out — whose segments go into the
    /// Done as they are; then checkpoints.
    pub(super) fn superstep(&mut self, superstep: u32, inbound: Inbound) -> DoneWriter {
        let (store, set) = (FragmentStore::new(), &mut self.set);
        let work = set.take(inbound);
        let steps = work.into_iter().map(|slot| set.step(superstep, slot, &self.pool, &store));
        let share = set.fold(steps.collect());
        let fragments = store.segments();
        let checkpoint_longs = self.write_ckpt(superstep + 1);
        DoneWriter { superstep, share, fragments, checkpoint_longs }
    }
}

/// Runs the worker protocol loop over an established connection. Returns
/// when told to shut down or when the connection closes, or early on a
/// protocol failure (the coordinator sees the connection drop and
/// recovers).
pub(crate) fn run_worker(conn: Arc<dyn Connection>, worker_id: u32) -> Result<(), String> {
    conn.send_words(kind::HELLO, &[worker_id as u64]).map_err(|e| format!("hello failed: {e}"))?;

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
                            if busy2.load(Ordering::Relaxed) && conn2.send(kind::HEARTBEAT, &[]).is_err() {
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
/// down.
pub fn worker_main(endpoint: &str, worker_id: u32) -> Result<(), String> {
    let conn =
        connect_endpoint(endpoint).map_err(|e| format!("worker {worker_id} could not connect to {endpoint}: {e}"))?;
    run_worker(Arc::from(conn), worker_id)
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
    [dir.join("euler-worker"), dir.parent()?.join("euler-worker")].into_iter().find(|cand| cand.is_file())
}
