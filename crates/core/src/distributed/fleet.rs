//! Coordinator side: the fleet of wire workers — bring-up, one barrier of
//! frames per merge level, deaths and recovery.

use super::protocol::{
    adopt_fragments, decode_done, encode_file_ref, encode_init_head, encode_labels, encode_states, kind, seed_tag,
    Blob, Dones, InitHead,
};
use super::run::fold_barrier;
use super::worker::run_worker;
use super::*;

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
    /// Bumped when the worker is respawned: events of an earlier connection
    /// carry an earlier epoch and are dropped as stale.
    epoch: u64,
    restarts: u32,
    last_heard: Instant,
    recv_handle: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// Closes the connection — which wakes the receiver blocked on it and
    /// ends a thread worker waiting on the other end — kills and reaps the
    /// worker process, and joins the receiver. Retiring twice is retiring
    /// once.
    fn retire(&mut self) {
        self.conn.close();
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        self.join_receiver();
    }

    /// Joins the receiver thread, which leaves once its connection closes or
    /// has carried the worker's Bye.
    fn join_receiver(&mut self) {
        if let Some(recv) = self.recv_handle.take() {
            recv.join().ok();
        }
    }
}

/// The coordinator's side of a fleet of wire workers: spawns them, drives
/// one barrier of frames per merge level, detects deaths, and recovers.
pub(super) struct Fleet {
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
    pub(super) recovery: RecoveryStats,
    pub(super) warnings: Vec<String>,
    /// Payload bytes of every Init sent.
    pub(super) init_bytes: u64,
    /// The longest a worker took from its Init to its states.
    pub(super) seed_build: Duration,
    /// A failed checkpoint write has been warned of (once per run).
    unwritten_warned: bool,
    shut_down: bool,
}

impl Fleet {
    /// Spawns and initialises the worker fleet over the level-0 seed. The
    /// workers are launched first, so a process starts while the Init tails
    /// are being encoded ([`init_tails`]).
    pub(super) fn new(
        cfg: FleetConfig,
        placement: Arc<Placement>,
        tree: Arc<MergeTree>,
        strategy: MergeStrategy,
        seed: Seed<'_>,
    ) -> Result<Self, EulerError> {
        let listener = cfg.transport.listen().map_err(|e| EulerError::Distributed(format!("listen failed: {e}")))?;
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
    pub(super) fn shut_down(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        for h in &self.workers {
            h.conn.send(kind::SHUTDOWN, &[]).ok();
        }
        // Best-effort drain, so sockets flush before teardown: until every
        // worker said Bye or its connection closed, or for 500 ms.
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut gone = 0;
        while gone < self.workers.len() {
            match self.events_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Event::Frame { worker, epoch, kind: kind::BYE, .. } | Event::Dead { worker, epoch })
                    if self.workers[worker as usize].epoch == epoch =>
                {
                    gone += 1
                }
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

    /// Accepts the launched workers `ws`, installs their handles — a
    /// respawned worker's replaces the old handle, retired, under the next
    /// epoch — and starts their receivers.
    fn attach(&mut self, ws: &[u32], children: Vec<Option<std::process::Child>>) -> Result<(), EulerError> {
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
        self.start_receivers(ws);
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
                    // A worker death is just this thread returning; the
                    // coordinator recovers from the dropped connection, so
                    // the error itself needs no channel.
                    run_worker(Arc::from(conn), w).ok();
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
                    EulerError::Distributed(format!("spawning worker process {} failed: {e}", worker_bin.display()))
                }),
        }
    }

    /// Accepts connections until every worker of `ws` has said Hello (they
    /// connect in any order). A connection that closes, stays silent or
    /// sends anything but an expected worker's Hello is dropped, and
    /// accepting goes on until the deadline.
    fn accept_hellos(&self, ws: &[u32]) -> Result<BTreeMap<u32, Arc<dyn Connection>>, EulerError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut conns: BTreeMap<u32, Arc<dyn Connection>> = BTreeMap::new();
        while conns.len() < ws.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let missing: Vec<u32> = ws.iter().copied().filter(|w| !conns.contains_key(w)).collect();
                return Err(EulerError::Distributed(format!("worker(s) {missing:?} never connected")));
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
            let expected = ws.iter().copied().find(|&w| Some(u64::from(w)) == hello && !conns.contains_key(&w));
            if let Some(w) = expected {
                // A stalled worker must not block a coordinator send past the
                // fault deadlines: bound every send by the heartbeat timeout,
                // so a full socket buffer surfaces as FrameError::Timeout. A
                // send that fails is the worker's death, never retried: a
                // timed-out TCP send may have written part of its frame.
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
    /// checkpoint entering superstep `checkpoint`. All Inits go out before
    /// the first Ready is awaited, so the workers build their states side by
    /// side. Returns true with the fleet up; false if any worker refused its
    /// checkpoint.
    fn init_all(&mut self, checkpoint: Option<u32>) -> Result<bool, EulerError> {
        (0..self.num_workers() as u32).try_for_each(|w| self.send_init(w, checkpoint))?;
        self.await_readys(checkpoint)
    }

    /// Sends Init: the head, then this worker's retained tail or the
    /// checkpoint seed.
    fn send_init(&mut self, w: u32, checkpoint: Option<u32>) -> Result<(), EulerError> {
        let head = encode_init_head(&InitHead {
            worker_id: w,
            strategy: self.strategy,
            heartbeat_interval: self.cfg.policy.heartbeat_interval,
            checkpoint_dir: self.cfg.checkpoint_dir.clone(),
            tree: Arc::clone(&self.tree),
        });
        let from_checkpoint = checkpoint.map(|s| WordWriter::from_words(&[seed_tag::CHECKPOINT, u64::from(s)]));
        let parts = match &from_checkpoint {
            Some(tail) => vec![head.as_bytes(), tail.as_bytes()],
            None => vec![head.as_bytes(), self.seeds_by_worker[w as usize].as_bytes(), self.seed_labels.as_bytes()],
        };
        self.init_bytes += parts.iter().map(|part| part.len() as u64).sum::<u64>();
        self.workers[w as usize]
            .conn
            .send_parts(kind::INIT, &parts)
            .map_err(|e| EulerError::Distributed(format!("init of worker {w} failed: {e}")))
    }

    /// Waits for every worker's Ready to the Inits just sent, off the events
    /// channel. Frames on one connection arrive in order, so a worker's Done
    /// and Heartbeats ahead of its Ready belong to a barrier the Init
    /// abandoned, and are skipped. Accounts the checkpoints the workers
    /// restored, and returns whether every worker took its seed; a level-0
    /// seed is always taken.
    fn await_readys(&mut self, checkpoint: Option<u32>) -> Result<bool, EulerError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut ready = vec![false; self.num_workers()];
        let mut up = true;
        while let Some(waiting) = ready.iter().position(|&r| !r) {
            let event = self.events_rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
            let (w, k, payload) = match event {
                Ok(Event::Frame { worker, epoch, kind, payload }) if self.workers[worker as usize].epoch == epoch => {
                    (worker, kind, payload)
                }
                Ok(Event::Dead { worker, epoch })
                    if self.workers[worker as usize].epoch == epoch && !ready[worker as usize] =>
                {
                    return Err(EulerError::Distributed(format!("worker {worker} not ready: its connection closed")))
                }
                Ok(_) => continue,
                Err(e) => return Err(EulerError::Distributed(format!("worker {waiting} not ready: {e}"))),
            };
            match k {
                kind::READY if !ready[w as usize] => {
                    let [longs, seed_ns, refusal] = WordReader::new(&payload)
                        .and_then(|mut r| r.array())
                        .map_err(|e| EulerError::Distributed(format!("malformed Ready from worker {w}: {e}")))?;
                    self.seed_build = self.seed_build.max(Duration::from_nanos(seed_ns));
                    // Refusal: 0 none, 1 no checkpoint to restore, 2 one found
                    // and ignored.
                    match (checkpoint, refusal) {
                        (Some(_), 0) => self.recovery.checkpoint_longs_restored += longs,
                        (Some(_), 2) => self.recovery.checkpoints_ignored += 1,
                        _ => {}
                    }
                    ready[w as usize] = true;
                    up &= refusal == 0;
                }
                kind::HEARTBEAT | kind::DONE => {}
                other => {
                    return Err(EulerError::Distributed(format!("worker {w} answered Init with frame kind {other}")))
                }
            }
        }
        Ok(up)
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

    /// Starts the receiver threads of workers `ws`, one per connection for
    /// as long as it lives: each blocks on its connection and forwards every
    /// frame, tagged with the worker's current epoch, to the events channel,
    /// and leaves after the worker's Bye or, with a `Dead` event, when the
    /// connection fails.
    fn start_receivers(&mut self, ws: &[u32]) {
        for &w in ws {
            let h = &mut self.workers[w as usize];
            let conn = Arc::clone(&h.conn);
            let epoch = h.epoch;
            let tx = self.events_tx.clone();
            h.recv_handle = Some(std::thread::spawn(move || loop {
                match conn.recv_timeout(None) {
                    Ok((kind, payload)) => {
                        // A Bye is the last frame a worker sends.
                        if tx.send(Event::Frame { worker: w, epoch, kind, payload }).is_err() || kind == kind::BYE {
                            return;
                        }
                    }
                    Err(_) => {
                        tx.send(Event::Dead { worker: w, epoch }).ok();
                        return;
                    }
                }
            }));
        }
    }

    /// Sends worker `w` the Start of superstep `level`; an error is the
    /// worker's death. A planned kill fires here, once: the worker's
    /// connection is closed — and a process worker SIGKILLed and reaped —
    /// just before its Start, so the send fails.
    fn send_start(&mut self, w: u32, level: u32, parts: &[&[u8]]) -> Result<(), FrameError> {
        let handle = &mut self.workers[w as usize];
        if self.cfg.plan.kill == Some((w, level)) {
            self.cfg.plan.kill = None;
            handle.retire();
        }
        handle.conn.send_parts(kind::START, parts)
    }

    /// Drives superstep `level` to a completed barrier over `inbox` — each
    /// worker's Start state-list entries, re-delivered after a rollback and
    /// rebuilt by a replay — and returns every worker's Done, by worker.
    /// `record` is the walk's store, which adopts the level's fragments, or
    /// `None` during full-restart replay (the walk already consumed those
    /// levels, fragments included).
    pub(super) fn run_superstep(
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
                let parts: Vec<&[u8]> =
                    std::iter::once(head.as_bytes()).chain(entries.iter().map(Blob::bytes)).collect();
                self.workers[w].last_heard = Instant::now();
                if self.send_start(w as u32, level, &parts).is_err() {
                    deaths.push(w as u32);
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
    /// Each wait lasts until the next event or the earliest moment a pending
    /// worker's silence passes the heartbeat timeout.
    fn wait_barrier(&mut self, level: u32) -> Result<Result<Dones, Vec<u32>>, EulerError> {
        let timeout = self.cfg.policy.heartbeat_timeout;
        let mut pending: Vec<bool> = vec![true; self.num_workers()];
        let mut deaths: Vec<u32> = Vec::new();
        let mut dones = Vec::with_capacity(self.num_workers());
        while pending.iter().any(|&p| p) {
            let wait = (0..pending.len())
                .filter(|&w| pending[w])
                .map(|w| timeout.saturating_sub(self.workers[w].last_heard.elapsed()))
                .min()
                .unwrap_or_default();
            match self.events_rx.recv_timeout(wait) {
                Ok(Event::Frame { worker, epoch, kind: k, payload }) => {
                    if self.workers[worker as usize].epoch != epoch {
                        continue; // stale connection
                    }
                    self.workers[worker as usize].last_heard = Instant::now();
                    match k {
                        kind::DONE => {
                            let done = decode_done(Arc::new(payload)).map_err(|e| {
                                EulerError::Distributed(format!("malformed Done from worker {worker}: {e}"))
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
                    if self.workers[worker as usize].epoch == epoch && pending[worker as usize] {
                        pending[worker as usize] = false;
                        deaths.push(worker);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(EulerError::Distributed("coordinator event channel closed".into()))
                }
            }
            // Heartbeat deadline sweep over still-pending workers.
            for (w, still_pending) in pending.iter_mut().enumerate() {
                if *still_pending && self.workers[w].last_heard.elapsed() >= timeout {
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
    fn recover(&mut self, level: u32, deaths: &[u32], inbox: &mut Vec<Vec<Blob>>) -> Result<(), EulerError> {
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
        let children = self.launch_all(deaths)?;
        self.attach(deaths, children)?;
        let died = format!("worker(s) {deaths:?} died at superstep {level}");
        if self.cfg.checkpoint_dir.is_none() {
            self.warnings.push(format!("{died} with checkpointing disabled; replaying the run from the seed"));
        } else if level == 0 {
            self.warnings.push(format!("{died}; re-initialising from the seed"));
        } else {
            self.warnings.push(format!("{died}; rolling back to checkpoint {level}"));
            if self.init_all(Some(level))? {
                return Ok(());
            }
            self.warnings.push(format!("checkpoint {level} was refused; replaying the run from the seed"));
        }
        self.recovery.full_restarts += 1;
        self.init_all(None)?;
        *inbox = vec![Vec::new(); self.num_workers()];
        for ss in 0..level {
            let dones = self.run_superstep(ss, inbox, None)?;
            // Only the inboxes are rebuilt; the walk has these levels' stats.
            *inbox = fold_barrier(ss, dones, &self.placement, Default::default())?.1;
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
pub(super) fn deal(states: Vec<WorkingPartition>, placement: &Placement) -> Vec<Vec<WorkingPartition>> {
    let mut seeds: Vec<Vec<WorkingPartition>> = vec![Vec::new(); placement.num_workers()];
    for wp in states {
        let w = placement.owner(wp.id).expect("the run placed every seed partition");
        seeds[w].push(wp);
    }
    seeds
}

/// Every worker's Init tail, and what follows each of them on the wire. A
/// level 0 whose edge arrays are a mapped file goes out as a reference to
/// it — the workers build their own partitions — unless they would refuse
/// its cut matrix ([`level0::cut_matrix_fits`]); any other seed, a resident
/// graph's included, is filled here and shipped as states, each worker's
/// dropped as soon as they are encoded.
pub(super) fn init_tails(seed: Seed<'_>, placement: &Placement) -> Result<(Vec<WordWriter>, WordWriter), EulerError> {
    let workers = 0..placement.num_workers();
    if let SeedKind::Level0(level0) = &seed.0 {
        let num_partitions = level0.assignment.num_partitions();
        if let Some(csr) = level0.file.filter(|csr| level0::cut_matrix_fits(csr, num_partitions)) {
            let tail = |w: usize| {
                let mut owned = vec![0u64; (num_partitions as usize).div_ceil(64)];
                for p in (0..num_partitions).filter(|&p| placement.owner(PartitionId(p)) == Some(w)) {
                    owned[p as usize / 64] |= 1 << (p % 64);
                }
                encode_file_ref(csr, num_partitions, &owned)
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
