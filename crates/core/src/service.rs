//! The Euler circuit service layer: one process, many graphs, many
//! concurrent requests.
//!
//! Everything below this module computes one circuit for one caller. This
//! module is the long-lived serving front over that spine:
//!
//! * **Graph registry** — clients register `.ecsr` files once; the key is
//!   the file's FNV-1a content checksum ([`euler_graph::GraphRegistry`]),
//!   so the same graph at two paths is one mapped file shared by every run.
//! * **Connections** — each has a handler thread and a reader thread, both
//!   blocked until woken while it is idle; at most [`MAX_CONNECTIONS`] are
//!   open, and one more is refused with [`error_code::BUSY`].
//! * **Admission control** — cache-miss runs execute concurrently, at most
//!   [`ServiceConfig::workers`] at once, under one *global* memory budget.
//!   A run takes a compute slot, is partitioned and its level 0 scanned; it
//!   then reserves the partition state that scan counts under the §5
//!   accounting, `n + 3·(m − c) + 4·k·c` Longs for `c` cut edges held `k`
//!   times each — a bound on every level's state — plus its fragment share:
//!   what its fragment records can take, or the per-run fragment spill
//!   budget that *enforces* the share when that is less. The reservation
//!   depends on the graph and the options alone, never on which runs came
//!   before. The [`AdmissionController`] blocks the run until a slot is
//!   free and the sum of admitted reservations fits under the cap — the
//!   invariant `Σ admitted ≤ memory_cap_longs` holds at every instant.
//! * **Circuit cache** — finished circuits are cached by (graph checksum,
//!   canonicalized run options) in the form they are sent: a computed
//!   circuit is encoded into its [`frame_kind::CHUNK`] frames and the
//!   [`frame_kind::DONE`] frame once, when the run finishes — payloads
//!   written in place, headers and checksums filled in — and the
//!   [`CircuitResult`] is dropped. An entry is 16 B a step plus 32 B a
//!   chunk, a 20 B header a frame, and the 16 B `DONE` payload. A fresh run
//!   and a hit write those stored frames as one batch: a hit does no
//!   pipeline work, encodes nothing and checksums nothing.
//! * **Streaming + cancellation** — circuits stream back in bounded chunks
//!   that carry each step as `(edge, to)`: a step starts where the one before
//!   it ended, and the first step of a chunk at the `from₀` in its header, so
//!   the client rebuilds every [`CircuitStep`] as it decodes. Chunks arrive
//!   in stream order, which the client checks. A run executes inline on its
//!   connection's handler thread and stops only while it waits for
//!   admission — each frame the reader queues wakes it — and at its *yield
//!   points*, before each merge-tree superstep and before Phase 3, which
//!   drain the queue the connection's reader thread fills: a
//!   [`frame_kind::CANCEL`], a hang-up or a shutdown cancels the run and
//!   releases its slot and budget at once, so a queued run can start. Every
//!   CANCEL gets one [`frame_kind::CANCELLED`]; one that came after the last
//!   yield point is acknowledged after the run's reply.
//!
//! ## Wire protocol
//!
//! The service speaks the frame codec of `euler_bsp::transport` (magic,
//! version, kind, length, word-folded FNV-1a checksum) over TCP; the payload
//! of every frame is a little-endian `u64` word array, written and read
//! through the shared word codec (`euler_bsp::wire`: bounded reader, typed
//! failures, never a panic on wire input). Frame kinds are documented in
//! [`frame_kind`]; the request lifecycle is
//! `REGISTER → REGISTERED`, then per run
//! `RUN → ACCEPTED → PROGRESS* → REPORT? → CHUNK* → DONE`
//! (or `CANCELLED` / `ERROR`). Malformed *payloads* get typed
//! [`frame_kind::ERROR`] replies and the connection keeps serving;
//! malformed *frames* (bad magic, corrupt checksum) desynchronize the
//! stream, so the connection is closed — the server itself never panics on
//! either.
//!
//! Servers are started with [`EulerService::bind`]; the matching client is
//! [`ServiceClient`].

use crate::config::EulerConfig;
use crate::error::EulerError;
use crate::merge_strategy::MergeStrategy;
use crate::phase3::{CircuitResult, CircuitStep};
use crate::pipeline::{checked_scan, run_input, InProcessBackend, Input};
use euler_bsp::transport::{Connection, FrameBatch, Listener, FRAME_HEADER_BYTES};
use euler_bsp::wire::{word_u32, WireError, WordReader, WordWriter};
use euler_bsp::{connect_endpoint, FrameError, TcpTransport, Transport};
use euler_graph::{CsrFileEdgeStream, EdgeId, GraphRegistry, RegisteredGraph, VertexId};
use euler_partition::{HashPartitioner, LdgPartitioner, StreamingPartitioner};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Request/response frame kinds of the service protocol, one `u16` per
/// frame (the `kind` field of the PR 6 frame header; see
/// `euler_bsp::transport` for the byte layout). Requests are `0x1x`,
/// responses `0x2x`, so neither range collides with the distributed-run
/// protocol kinds (`1..=8`).
pub mod frame_kind {
    /// → Register the `.ecsr` file at a path: `[path string]`.
    pub const REGISTER: u16 = 0x10;
    /// → Start a run: `[checksum, partitions, strategy, partitioner]`.
    pub const RUN: u16 = 0x11;
    /// → Cancel the in-flight run on this connection: `[]`.
    pub const CANCEL: u16 = 0x12;
    /// → Request service statistics: `[]`.
    pub const STATS: u16 = 0x13;
    /// ← Registration done: `[checksum, num_vertices, num_edges]`.
    pub const REGISTERED: u16 = 0x20;
    /// ← Run admitted under the budget: `[admitted_longs, cached]`.
    pub const ACCEPTED: u16 = 0x21;
    /// ← Coarse progress: `[done, total]`, sent at each yield point of a run
    ///   with `total` = T, the supersteps plus one: `(0, T)` before the first
    ///   superstep up to `(T − 1, T)` before Phase 3.
    pub const PROGRESS: u16 = 0x22;
    /// ← Run accounting (an encoded [`RunSummary`](super::RunSummary)),
    ///   sent before the chunks of a freshly computed circuit.
    pub const REPORT: u16 = 0x23;
    /// ← One circuit slice: `[circuit, base, k, from₀] + k × [edge, to]`.
    ///   Step *i* of the slice starts at step *i − 1*'s `to`, the first
    ///   step at `from₀`; `base` is the slice's step offset in its circuit.
    pub const CHUNK: u16 = 0x24;
    /// ← Run complete: `[num_circuits, total_edges]`.
    pub const DONE: u16 = 0x25;
    /// ← Run cancelled (by CANCEL frame or service shutdown): `[]`.
    pub const CANCELLED: u16 = 0x26;
    /// ← Service statistics (an encoded
    ///   [`ServiceStats`](super::ServiceStats)).
    pub const STATS_REPLY: u16 = 0x27;
    /// ← Typed failure: `[code, message string]`; see
    ///   [`error_code`](super::error_code).
    pub const ERROR: u16 = 0x2F;
}

/// Error codes carried by [`frame_kind::ERROR`] frames.
pub mod error_code {
    /// The request payload did not decode (truncated, bad enum code, …).
    pub const BAD_REQUEST: u64 = 1;
    /// The run referenced a checksum no registered graph carries.
    pub const UNKNOWN_GRAPH: u64 = 2;
    /// Registration failed (missing file, checksum mismatch, …).
    pub const REGISTER_FAILED: u64 = 3;
    /// The pipeline run itself failed (non-Eulerian input, …).
    pub const RUN_FAILED: u64 = 4;
    /// The server holds [`MAX_CONNECTIONS`](super::MAX_CONNECTIONS) open
    /// connections already; this one is closed after the reply.
    pub const BUSY: u64 = 5;
}

// ---------------------------------------------------------------------------
// Run options.
// ---------------------------------------------------------------------------

/// Which streaming partitioner a service run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// [`HashPartitioner`]: stateless vertex hashing.
    #[default]
    Hash,
    /// [`LdgPartitioner`]: one-pass linear deterministic greedy.
    Ldg,
}

/// The canonicalized per-run configuration a client submits with
/// [`frame_kind::RUN`] — also the second half of the circuit-cache key, so
/// two requests with equal options on the same graph share one computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunOptions {
    /// Number of leaf partitions.
    pub partitions: u32,
    /// Remote-edge merge strategy (§5 of the paper).
    pub strategy: MergeStrategy,
    /// Partitioner used to cut the graph.
    pub partitioner: PartitionerKind,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            partitions: 4,
            strategy: MergeStrategy::Duplicated,
            partitioner: PartitionerKind::Hash,
        }
    }
}

fn partitioner_code(p: PartitionerKind) -> u64 {
    match p {
        PartitionerKind::Hash => 0,
        PartitionerKind::Ldg => 1,
    }
}

fn decode_partitioner(code: u64) -> Result<PartitionerKind, WireError> {
    match code {
        0 => Ok(PartitionerKind::Hash),
        1 => Ok(PartitionerKind::Ldg),
        other => Err(WireError::Invalid(format!("unknown partitioner code {other}"))),
    }
}

fn encode_run(checksum: u64, opts: &RunOptions) -> [u64; 4] {
    [
        checksum,
        u64::from(opts.partitions),
        opts.strategy.wire_code(),
        partitioner_code(opts.partitioner),
    ]
}

fn decode_run(payload: &[u8]) -> Result<(u64, RunOptions), WireError> {
    let mut words = WordReader::new(payload)?;
    let [checksum, partitions, strategy, partitioner] = words.array()?;
    words.finish()?;
    let partitions = u32::try_from(partitions)
        .ok()
        .filter(|&p| p > 0)
        .ok_or_else(|| WireError::Invalid(format!("partition count {partitions} out of range")))?;
    let strategy = MergeStrategy::from_wire_code(strategy)?;
    let partitioner = decode_partitioner(partitioner)?;
    Ok((checksum, RunOptions { partitions, strategy, partitioner }))
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

/// Schedules concurrent runs under the service's compute slots and global
/// memory cap: a run takes a slot ([`admit`](Self::admit)), then its Longs
/// ([`AdmissionPermit::reserve`]) once the sum of admitted reservations
/// (each capped at the budget itself, so a single oversized run degrades to
/// *exclusive* rather than *impossible*) fits under `memory_cap_longs`.
/// Dropping the permit — completion, failure, cancellation — gives both
/// back and wakes every waiter.
#[derive(Debug)]
pub struct AdmissionController {
    cap: u64,
    slots: usize,
    state: Mutex<AdmissionState>,
    available: Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    admitted: u64,
    peak: u64,
    /// Slots taken.
    running: usize,
}

/// One admitted run's slot and reservation; releases both on drop.
#[derive(Debug)]
pub struct AdmissionPermit {
    longs: u64,
    controller: Arc<AdmissionController>,
}

impl AdmissionController {
    /// A controller with `cap` Longs of global budget and `slots` runs
    /// computing at once (at least one of each).
    pub fn new(cap: u64, slots: usize) -> Self {
        AdmissionController {
            cap: cap.max(1),
            slots: slots.max(1),
            state: Mutex::new(AdmissionState::default()),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_until(
        &self,
        mut stop: impl FnMut() -> bool,
        fits: impl Fn(&AdmissionState) -> bool,
    ) -> Result<std::sync::MutexGuard<'_, AdmissionState>, EulerError> {
        let mut state = self.lock();
        loop {
            if stop() {
                return Err(EulerError::Cancelled);
            }
            if fits(&state) {
                return Ok(state);
            }
            state = self.available.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until a compute slot is free and takes it; the permit holds no
    /// Longs until [`AdmissionPermit::reserve`]. `stop` is asked before the
    /// first check and on every wake: a permit released, or a
    /// [`wake`](Self::wake) from whoever can change its answer.
    ///
    /// # Errors
    /// [`EulerError::Cancelled`] once `stop` returns `true` while waiting.
    pub fn admit(
        self: &Arc<Self>,
        stop: impl FnMut() -> bool,
    ) -> Result<AdmissionPermit, EulerError> {
        self.wait_until(stop, |state| state.running < self.slots)?.running += 1;
        Ok(AdmissionPermit { longs: 0, controller: Arc::clone(self) })
    }

    /// Wakes every waiter to ask its `stop` again; under the lock, so no
    /// waiter between its `stop` and its wait misses it.
    pub fn wake(&self) {
        let _state = self.lock();
        self.available.notify_all();
    }

    /// Longs currently admitted (the instantaneous budget in use).
    pub fn admitted_longs(&self) -> u64 {
        self.lock().admitted
    }

    /// High-water mark of [`admitted_longs`](Self::admitted_longs) — by
    /// construction never above the cap.
    pub fn peak_admitted_longs(&self) -> u64 {
        self.lock().peak
    }
}

impl AdmissionPermit {
    /// Longs this permit reserves.
    pub fn longs(&self) -> u64 {
        self.longs
    }

    /// Blocks until `longs` more Longs (a permit holds at most the cap) fit
    /// beside everything admitted, then reserves them; `stop` is asked as in
    /// [`AdmissionController::admit`].
    ///
    /// # Errors
    /// [`EulerError::Cancelled`] once `stop` returns `true` while waiting.
    pub fn reserve(&mut self, longs: u64, stop: impl FnMut() -> bool) -> Result<(), EulerError> {
        let controller = &self.controller;
        let ask = longs.min(controller.cap - self.longs);
        let mut state = controller.wait_until(stop, |state| state.admitted + ask <= controller.cap)?;
        state.admitted += ask;
        state.peak = state.peak.max(state.admitted);
        self.longs += ask;
        Ok(())
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.controller.lock();
        state.admitted = state.admitted.saturating_sub(self.longs);
        state.running = state.running.saturating_sub(1);
        self.controller.available.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

/// Configuration of [`EulerService::bind`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Global memory cap in Longs: the sum of admitted per-run reservations
    /// never exceeds this.
    pub memory_cap_longs: u64,
    /// Cache-miss runs computing at once: each takes a slot from before it
    /// partitions until its circuit is framed. An idle connection, a cache
    /// hit, `REGISTER` and `STATS` cost no slot.
    pub workers: usize,
    /// Per-run fragment spill budget in Longs — the enforcement lever: every
    /// service run executes under
    /// [`EulerConfig::fragment_memory_budget`], so fragment memory above
    /// this pages to disk instead of growing the resident set. A stored
    /// fragment takes two Longs per tour edge plus two, so the default
    /// `1 << 16` holds a little under 32 Ki tour edges. A run whose records
    /// cannot reach it reserves what they can take instead.
    pub fragment_budget_longs: u64,
    /// Circuit steps per [`frame_kind::CHUNK`] frame.
    pub chunk_steps: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            memory_cap_longs: 64 << 20,
            workers: 4,
            fragment_budget_longs: 1 << 16,
            chunk_steps: 512,
        }
    }
}

/// A point-in-time snapshot of service accounting, served over
/// [`frame_kind::STATS`] and from [`EulerService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// The configured global budget.
    pub memory_cap_longs: u64,
    /// Longs admitted right now.
    pub admitted_longs: u64,
    /// High-water mark of admitted Longs (never above the cap).
    pub peak_admitted_longs: u64,
    /// Pipeline runs actually executed (cache misses).
    pub runs_executed: u64,
    /// Requests served from the circuit cache without a pipeline run.
    pub runs_cached: u64,
    /// Runs cancelled before completion (explicit frame, disconnect, or
    /// shutdown).
    pub runs_cancelled: u64,
    /// Distinct graphs registered.
    pub graphs_registered: u64,
}

impl ServiceStats {
    fn encode(&self) -> [u64; 7] {
        [
            self.memory_cap_longs,
            self.admitted_longs,
            self.peak_admitted_longs,
            self.runs_executed,
            self.runs_cached,
            self.runs_cancelled,
            self.graphs_registered,
        ]
    }

    fn decode(c: &mut WordReader<'_>) -> Result<Self, WireError> {
        let [memory_cap_longs, admitted_longs, peak_admitted_longs, runs_executed, runs_cached, runs_cancelled, graphs_registered] =
            c.array()?;
        Ok(ServiceStats {
            memory_cap_longs,
            admitted_longs,
            peak_admitted_longs,
            runs_executed,
            runs_cached,
            runs_cancelled,
            graphs_registered,
        })
    }
}

/// Per-run accounting streamed back in the [`frame_kind::REPORT`] frame of
/// a freshly computed (non-cached) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Merge-tree supersteps executed.
    pub supersteps: u32,
    /// Longs shipped between partitions across all merges.
    pub transfer_longs: u64,
    /// Peak resident Longs of the run's fragment store.
    pub peak_resident_longs: u64,
    /// Longs the admission controller reserved for this run: the level-0
    /// state its scan counted plus the fragment share, capped at the
    /// service's memory cap.
    pub estimated_longs: u64,
    /// Measured peak Longs: the largest level's partition state plus the
    /// fragment store's peak residency. Never above `estimated_longs`
    /// unless the cap clamped that.
    pub measured_longs: u64,
}

impl RunSummary {
    fn encode(&self) -> [u64; 5] {
        [
            u64::from(self.supersteps),
            self.transfer_longs,
            self.peak_resident_longs,
            self.estimated_longs,
            self.measured_longs,
        ]
    }

    fn decode(c: &mut WordReader<'_>) -> Result<Self, WireError> {
        let [supersteps, transfer_longs, peak_resident_longs, estimated_longs, measured_longs] =
            c.array()?;
        Ok(RunSummary {
            supersteps: word_u32(supersteps, "supersteps")?,
            transfer_longs,
            peak_resident_longs,
            estimated_longs,
            measured_longs,
        })
    }
}

type CacheKey = (u64, RunOptions);

/// Encodes a computed circuit as the frames that send it: each circuit in
/// [`frame_kind::CHUNK`]s of `chunk_steps` steps, then
/// [`frame_kind::DONE`]. The cache holds these frames, so a fresh run and a
/// cache hit send the same bytes, framed and checksummed once.
///
/// # Errors
/// [`FrameError::LengthOverflow`] when a chunk of `chunk_steps` steps does
/// not fit a frame.
///
/// # Panics
/// If a step does not start where the step before it ended: a chunk stores
/// only the first step's `from`.
fn encode_circuit(result: &CircuitResult, chunk_steps: usize) -> Result<FrameBatch, FrameError> {
    let chunk_steps = chunk_steps.max(1);
    let (chunks, steps) = result.circuits.iter().fold((0, 0), |(c, m), circuit| {
        (c + circuit.len().div_ceil(chunk_steps), m + circuit.len())
    });
    // Per chunk `[circuit, base, k, from₀] + k × [edge, to]`, then the
    // two `DONE` words: 16 B a step plus 32 B a chunk, and a header a frame.
    let mut frames = FrameBatch::with_capacity(
        8 * (4 * chunks + 2 * steps) + FRAME_HEADER_BYTES * (chunks + 1) + 16,
    );
    for (circuit_idx, circuit) in result.circuits.iter().enumerate() {
        for (chunk_idx, chunk) in circuit.chunks(chunk_steps).enumerate() {
            frames.push(frame_kind::CHUNK, |out| {
                // `chunks` yields no empty slice.
                let mut at = chunk[0].from;
                out.words(&[
                    circuit_idx as u64,
                    (chunk_idx * chunk_steps) as u64,
                    chunk.len() as u64,
                    at.0,
                ]);
                for step in chunk {
                    assert_eq!(step.from, at, "a circuit step starts where the one before it ended");
                    out.words(&[step.edge.0, step.to.0]);
                    at = step.to;
                }
            })?;
        }
    }
    frames.push(frame_kind::DONE, |out| {
        out.words(&[result.circuits.len() as u64, result.total_edges()]);
    })?;
    Ok(frames)
}

struct ServiceInner {
    config: ServiceConfig,
    registry: GraphRegistry,
    admission: Arc<AdmissionController>,
    cache: Mutex<HashMap<CacheKey, Arc<FrameBatch>>>,
    runs_executed: AtomicU64,
    runs_cached: AtomicU64,
    runs_cancelled: AtomicU64,
    shutdown: AtomicBool,
}

impl ServiceInner {
    fn new(config: ServiceConfig) -> Self {
        ServiceInner {
            admission: Arc::new(AdmissionController::new(config.memory_cap_longs, config.workers)),
            config,
            registry: GraphRegistry::new(),
            cache: Mutex::new(HashMap::new()),
            runs_executed: AtomicU64::new(0),
            runs_cached: AtomicU64::new(0),
            runs_cancelled: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            memory_cap_longs: self.config.memory_cap_longs,
            admitted_longs: self.admission.admitted_longs(),
            peak_admitted_longs: self.admission.peak_admitted_longs(),
            runs_executed: self.runs_executed.load(Ordering::Relaxed),
            runs_cached: self.runs_cached.load(Ordering::Relaxed),
            runs_cancelled: self.runs_cancelled.load(Ordering::Relaxed),
            graphs_registered: self.registry.len() as u64,
        }
    }

    fn cached(&self, key: &CacheKey) -> Option<Arc<FrameBatch>> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).get(key).cloned()
    }

    fn cache_put(&self, key: CacheKey, circuit: Arc<FrameBatch>) {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).insert(key, circuit);
    }
}

/// A running Euler circuit server: a TCP listener whose accept loop gives
/// each connection a handler thread, serving the [`frame_kind`] protocol
/// until [`shutdown`](Self::shutdown).
pub struct EulerService {
    inner: Arc<ServiceInner>,
    endpoint: String,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl EulerService {
    /// Binds a loopback TCP listener and starts the accept loop.
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the listener cannot bind, or a
    /// thread-spawn failure as [`ServiceError::Protocol`].
    pub fn bind(config: ServiceConfig) -> Result<EulerService, ServiceError> {
        Self::serve(TcpTransport.listen()?, config)
    }

    /// Starts the accept loop on `listener`.
    fn serve(
        listener: Box<dyn Listener>,
        config: ServiceConfig,
    ) -> Result<EulerService, ServiceError> {
        let endpoint = listener.endpoint();
        let inner = Arc::new(ServiceInner::new(config));
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("euler-serve-accept".into())
                .spawn(move || accept_loop(&inner, listener.as_ref()))
                .map_err(|e| ServiceError::Protocol(format!("spawn: {e}")))?
        };
        Ok(EulerService { inner, endpoint, accept: Some(accept) })
    }

    /// The endpoint clients connect to (`tcp:127.0.0.1:<port>`).
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Current service accounting.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Stops serving: cancels in-flight runs, closes every connection, joins
    /// every thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for EulerService {
    /// Wakes the runs waiting for admission, and the accept loop with one
    /// dial, to see the flag.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.admission.wake();
        if let Some(accept) = self.accept.take() {
            let _ = connect_endpoint(&self.endpoint);
            let _ = accept.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Server-side request handling.
// ---------------------------------------------------------------------------

/// Connections open at once, two threads each; the accept loop refuses one
/// more with [`error_code::BUSY`].
pub const MAX_CONNECTIONS: usize = 64;

/// How long the accept loop waits after a failed accept before the next.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Accepts connections until shutdown, each served on a handler thread of
/// its own; at shutdown it closes every open one and joins its handler. A
/// failed accept — out of file descriptors, a connection reset while it
/// queued — is not the end of the listener: the loop pauses and goes on.
fn accept_loop(inner: &Arc<ServiceInner>, listener: &dyn Listener) {
    let mut open: Vec<(Arc<dyn Connection>, std::thread::JoinHandle<()>)> = Vec::new();
    loop {
        let accepted = listener.accept_timeout(None);
        if inner.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(conn) = accepted else {
            // lint:allow(no-timed-wait): the pause after a failed accept is an error path, not a poll
            std::thread::sleep(ACCEPT_RETRY);
            continue;
        };
        let conn: Arc<dyn Connection> = Arc::from(conn);
        open.retain(|(_, handler)| !handler.is_finished());
        let refused = if open.len() >= MAX_CONNECTIONS {
            format!("{MAX_CONNECTIONS} connections are open")
        } else {
            let (inner, handed) = (Arc::clone(inner), Arc::clone(&conn));
            let spawned = std::thread::Builder::new()
                .name("euler-serve-conn".into())
                .spawn(move || serve_connection(&inner, handed.as_ref()));
            match spawned {
                Ok(handler) => {
                    open.push((conn, handler));
                    continue;
                }
                Err(e) => format!("no thread for the connection: {e}"),
            }
        };
        let _ = send_error(conn.as_ref(), error_code::BUSY, &refused);
        conn.close();
    }
    for (conn, _) in &open {
        conn.close();
    }
    for (_, handler) in open {
        let _ = handler.join();
    }
}

fn send_error(conn: &dyn Connection, code: u64, message: &str) -> Result<(), FrameError> {
    let mut words = WordWriter::from_words(&[code]);
    words.str(message);
    conn.send(frame_kind::ERROR, words.as_bytes())
}

/// What a connection's reader thread queues for its handler: the handler
/// blocks on the queue when idle, and a run drains it at each yield point
/// without waiting.
enum ConnEvent {
    /// A frame the client sent.
    Frame(u16, Vec<u8>),
    /// The client hung up, or its byte stream is desynchronized.
    ClientGone,
}

/// Frames the reader may queue ahead of the handler; beyond this the client
/// is held back by the socket, as it was when the handler read it directly.
const EVENT_QUEUE: usize = 8;

/// Serves one client connection to completion, beside a reader thread that
/// queues its frames, then closes it, which ends the reader. Payload-level
/// failures are answered with [`frame_kind::ERROR`] and the connection keeps
/// serving; frame-level failures (the byte stream is desynchronized) end it.
fn serve_connection(inner: &ServiceInner, conn: &dyn Connection) {
    std::thread::scope(|scope| {
        let (tx, events) = mpsc::sync_channel(EVENT_QUEUE);
        scope.spawn(move || read_frames(conn, &tx, &inner.admission));
        dispatch(inner, conn, &events);
        conn.close();
    });
}

/// The connection's reader thread: forwards every client frame to the
/// handler's queue until the client is gone or the connection is closed,
/// waking admission — where the handler may be waiting — after each.
fn read_frames(
    conn: &dyn Connection,
    tx: &mpsc::SyncSender<ConnEvent>,
    admission: &AdmissionController,
) {
    loop {
        let event = match conn.recv_timeout(None) {
            Ok((kind, payload)) => ConnEvent::Frame(kind, payload),
            Err(_) => ConnEvent::ClientGone,
        };
        let gone = matches!(event, ConnEvent::ClientGone);
        let queued = tx.send(event).is_ok();
        admission.wake();
        if gone || !queued {
            return;
        }
    }
}

fn dispatch(inner: &ServiceInner, conn: &dyn Connection, events: &mpsc::Receiver<ConnEvent>) {
    while let Ok(ConnEvent::Frame(kind, payload)) = events.recv() {
        let outcome = match kind {
            frame_kind::REGISTER => handle_register(inner, conn, &payload),
            frame_kind::RUN => handle_run(inner, conn, &payload, events),
            frame_kind::STATS => {
                conn.send_words(frame_kind::STATS_REPLY, &inner.stats().encode())
            }
            // A CANCEL with no run in flight — or one its run finished
            // before seeing — is acknowledged here, once.
            frame_kind::CANCEL => conn.send(frame_kind::CANCELLED, &[]),
            other => {
                send_error(conn, error_code::BAD_REQUEST, &format!("unknown frame kind {other:#x}"))
            }
        };
        if outcome.is_err() {
            return;
        }
    }
}

fn handle_register(
    inner: &ServiceInner,
    conn: &dyn Connection,
    payload: &[u8],
) -> Result<(), FrameError> {
    let path = WordReader::new(payload).and_then(|mut r| {
        let path = r.str()?;
        r.finish().map(|()| path)
    });
    let path = match path {
        Ok(path) => path,
        Err(e) => return send_error(conn, error_code::BAD_REQUEST, &e.to_string()),
    };
    match inner.registry.register(&path) {
        Ok(graph) => conn.send_words(
            frame_kind::REGISTERED,
            &[graph.checksum, graph.num_vertices(), graph.num_edges()],
        ),
        Err(e) => send_error(conn, error_code::REGISTER_FAILED, &e.to_string()),
    }
}

fn handle_run(
    inner: &ServiceInner,
    conn: &dyn Connection,
    payload: &[u8],
    events: &mpsc::Receiver<ConnEvent>,
) -> Result<(), FrameError> {
    let (checksum, opts) = match decode_run(payload) {
        Ok(req) => req,
        Err(e) => return send_error(conn, error_code::BAD_REQUEST, &e.to_string()),
    };
    let Some(graph) = inner.registry.get(checksum) else {
        return send_error(
            conn,
            error_code::UNKNOWN_GRAPH,
            &format!("no registered graph has checksum {checksum:#018x}"),
        );
    };
    // The level-0 scan allocates `P × P` cut cells: an allocation that
    // fails aborts the process, which no unwinding catches.
    if !crate::level0::cut_matrix_fits(&graph.csr, opts.partitions) {
        return send_error(
            conn,
            error_code::BAD_REQUEST,
            &format!(
                "{} partitions make a cut matrix larger than the graph's file",
                opts.partitions
            ),
        );
    }
    let key: CacheKey = (checksum, opts);
    if let Some(circuit) = inner.cached(&key) {
        inner.runs_cached.fetch_add(1, Ordering::Relaxed);
        conn.send_words(frame_kind::ACCEPTED, &[0, 1])?;
        return conn.send_batch(&circuit);
    }

    // A panicking run is answered like a failed one; its permit was
    // released as the panic unwound.
    let mut gone = false;
    let run = || compute_run(inner, conn, events, &graph, opts, key, &mut gone);
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .unwrap_or_else(|_| Err(EulerError::Distributed("the run panicked".into())));
    if matches!(computed, Err(EulerError::Cancelled)) {
        inner.runs_cancelled.fetch_add(1, Ordering::Relaxed);
    }
    if gone {
        return Err(FrameError::Closed);
    }
    match computed {
        Ok((circuit, summary)) => {
            conn.send_words(frame_kind::REPORT, &summary.encode())?;
            conn.send_batch(&circuit)
        }
        Err(EulerError::Cancelled) => conn.send(frame_kind::CANCELLED, &[]),
        Err(e) => send_error(conn, error_code::RUN_FAILED, &e.to_string()),
    }
}

/// Whether a run must stop, from what its connection queued — drained
/// without waiting. A CANCEL, a hang-up or a service shutdown stops it; a
/// connection does nothing else while its run lasts, so any other frame is
/// dropped. Sets `gone` once the client has hung up.
fn must_stop(inner: &ServiceInner, events: &mpsc::Receiver<ConnEvent>, gone: &mut bool) -> bool {
    while !*gone {
        match events.try_recv() {
            Ok(ConnEvent::Frame(frame_kind::CANCEL, _)) => return true,
            Ok(ConnEvent::Frame(..)) => {}
            Ok(ConnEvent::ClientGone) | Err(mpsc::TryRecvError::Disconnected) => *gone = true,
            Err(mpsc::TryRecvError::Empty) => return inner.shutdown.load(Ordering::Relaxed),
        }
    }
    true
}

/// A cache-miss run, on its connection's handler thread: take a compute
/// slot, partition the mapped CSR with the streaming partitioner, check the
/// degrees and scan level 0 — so an odd-degree graph is refused with the
/// library's typed error before it holds any Longs — reserve what the scan
/// counts (`Scan::state_bound_longs`) plus the fragment share, run the
/// pipeline over the scanned file with the connection's yield point, cache,
/// and release the permit *before* the handler streams the circuit
/// (streaming needs no slot and no budget). The fragment share is the
/// fragment budget, or what the run's records can take
/// (`Scan::fragment_bound_longs`) when that is less. Waiting for the slot
/// or the Longs, and at the yield point, the run stops as [`must_stop`]
/// says; the yield point otherwise sends the run's PROGRESS. A failed send
/// sets `gone`, which the next yield point turns into a cancellation.
///
/// The streaming partitioners produce the same assignment as their
/// in-memory counterparts by construction, and fragment ids do not depend on
/// the thread schedule, so the circuit is bit-identical to the library path
/// ([`crate::EulerPipeline`]) on the same graph and options, and a cached
/// circuit and a fresh recomputation are the same bytes at any thread count.
fn compute_run(
    inner: &ServiceInner,
    conn: &dyn Connection,
    events: &mpsc::Receiver<ConnEvent>,
    graph: &RegisteredGraph,
    opts: RunOptions,
    key: CacheKey,
    gone: &mut bool,
) -> Result<(Arc<FrameBatch>, RunSummary), EulerError> {
    let mut stop = || must_stop(inner, events, gone);
    let mut permit = inner.admission.admit(&mut stop)?;
    let mut stream = CsrFileEdgeStream::new(&graph.csr);
    let assignment = match opts.partitioner {
        PartitionerKind::Hash => {
            HashPartitioner::new(opts.partitions).partition_stream(&mut stream)?
        }
        PartitionerKind::Ldg => LdgPartitioner::new(opts.partitions).partition_stream(&mut stream)?,
    };
    let edges = graph.csr.edge_arrays();
    let scan = checked_scan(edges, &assignment)?;
    let fragment_budget = inner.config.fragment_budget_longs;
    let fragment_share = scan.fragment_bound_longs().min(fragment_budget);
    let reserve = scan.state_bound_longs(opts.strategy) + fragment_share;
    permit.reserve(reserve, &mut stop)?;
    *gone |= conn.send_words(frame_kind::ACCEPTED, &[permit.longs(), 0]).is_err();
    let mut yield_point = |done: u32, steps: u32| {
        if must_stop(inner, events, gone) {
            return Err(EulerError::Cancelled);
        }
        let words = [u64::from(done), u64::from(steps)];
        *gone |= conn.send_words(frame_kind::PROGRESS, &words).is_err();
        Ok(())
    };
    let config = EulerConfig {
        merge_strategy: opts.strategy,
        fragment_memory_budget: Some(fragment_budget),
        ..EulerConfig::default()
    };
    let input = Input::Edges(edges, scan, Some(&graph.csr));
    let backend = InProcessBackend::new();
    let ran = run_input(input, &assignment, &config, &backend, Some(&mut yield_point))?;
    let report = ran.report;
    let peak_resident_longs = report.fragment_stats.peak_resident_longs;
    let summary = RunSummary {
        supersteps: report.supersteps,
        transfer_longs: report.total_transfer_longs,
        peak_resident_longs,
        estimated_longs: permit.longs(),
        measured_longs: report.cumulative_memory_by_level().into_iter().max().unwrap_or(0)
            + peak_resident_longs,
    };
    // Framed once, here; the `CircuitResult` is dropped on return.
    let chunk_steps = inner.config.chunk_steps;
    let circuit = Arc::new(
        encode_circuit(&ran.result, chunk_steps)
            .map_err(|e| EulerError::InvalidConfig(format!("{chunk_steps}-step chunks: {e}")))?,
    );
    inner.cache_put(key, Arc::clone(&circuit));
    inner.runs_executed.fetch_add(1, Ordering::Relaxed);
    Ok((circuit, summary))
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// Failures of the client half of the service protocol.
#[derive(Debug)]
pub enum ServiceError {
    /// The transport failed (connect, frame codec, timeout, closed peer).
    Transport(FrameError),
    /// The server replied with a typed [`frame_kind::ERROR`] frame.
    Remote {
        /// An [`error_code`] constant.
        code: u64,
        /// Human-readable failure description from the server.
        message: String,
    },
    /// The peer broke the protocol (unexpected frame kind, bad payload).
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Transport(e) => write!(f, "service transport error: {e}"),
            ServiceError::Remote { code, message } => {
                write!(f, "service error {code}: {message}")
            }
            ServiceError::Protocol(msg) => write!(f, "service protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<FrameError> for ServiceError {
    fn from(e: FrameError) -> Self {
        ServiceError::Transport(e)
    }
}

/// Identity and shape of a registered graph, from
/// [`ServiceClient::register`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphInfo {
    /// The content checksum — the handle every [`RunOptions`] run uses.
    pub checksum: u64,
    /// Vertex count.
    pub num_vertices: u64,
    /// Edge count.
    pub num_edges: u64,
}

/// One streamed event of an in-flight run, from
/// [`ServiceClient::next_event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// The run was admitted under the budget (or served from cache when
    /// `cached` — then `admitted_longs` is 0).
    Accepted {
        /// Longs the admission controller reserved.
        admitted_longs: u64,
        /// Whether the circuit comes from the cache without a pipeline run.
        cached: bool,
    },
    /// Coarse progress at a yield point of the run: `(0, T)` before the
    /// first merge-tree superstep up to `(T − 1, T)` before Phase 3.
    Progress {
        /// Steps completed.
        done: u32,
        /// Total steps T (supersteps + the Phase-3 unroll).
        total: u32,
    },
    /// Run accounting, sent once before the chunks of a fresh computation.
    Report(RunSummary),
    /// A slice of circuit steps.
    Chunk {
        /// Which circuit of the result this slice belongs to.
        circuit: usize,
        /// Step offset of the slice within that circuit.
        base: u64,
        /// The steps.
        steps: Vec<CircuitStep>,
    },
    /// The run finished; all chunks have been delivered.
    Done {
        /// Number of circuits in the result.
        num_circuits: u64,
        /// Total steps across all circuits.
        total_edges: u64,
    },
    /// The run was cancelled before completion.
    Cancelled,
}

/// A fully assembled run outcome, from the convenience driver
/// [`ServiceClient::run`].
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// The circuits, assembled from the streamed chunks (empty when
    /// cancelled).
    pub circuits: Vec<Vec<CircuitStep>>,
    /// Longs the admission controller reserved for this run.
    pub admitted_longs: u64,
    /// Whether the result came from the circuit cache.
    pub cached: bool,
    /// Whether the run was cancelled instead of completing.
    pub cancelled: bool,
    /// The run's accounting (absent for cached or cancelled runs).
    pub summary: Option<RunSummary>,
}

/// Decodes a run event. Every payload but an ERROR's must be read to its
/// last word.
fn decode_event(kind: u16, payload: &[u8]) -> Result<RunEvent, ServiceError> {
    let mut c = WordReader::new(payload)?;
    let event = match kind {
        frame_kind::ACCEPTED => {
            let [admitted_longs, cached] = c.array()?;
            RunEvent::Accepted { admitted_longs, cached: cached != 0 }
        }
        frame_kind::PROGRESS => {
            let [done, total] = c.array()?;
            RunEvent::Progress { done: word_u32(done, "done")?, total: word_u32(total, "total")? }
        }
        frame_kind::REPORT => RunEvent::Report(RunSummary::decode(&mut c)?),
        frame_kind::CHUNK => decode_chunk(&mut c)?,
        frame_kind::DONE => {
            let [num_circuits, total_edges] = c.array()?;
            RunEvent::Done { num_circuits, total_edges }
        }
        frame_kind::CANCELLED => RunEvent::Cancelled,
        frame_kind::ERROR => return Err(decode_remote_error(&mut c)),
        other => {
            return Err(ServiceError::Protocol(format!("unexpected frame kind {other:#x}")))
        }
    };
    c.finish()?;
    Ok(event)
}

/// Decodes a [`frame_kind::CHUNK`] payload, `4 + 2k` words, rebuilding each
/// step's `from` as the `to` of the step before it.
fn decode_chunk(c: &mut WordReader<'_>) -> Result<RunEvent, WireError> {
    let [circuit, base, k, from] = c.array()?;
    let mut from = VertexId(from);
    let steps = c
        .arrays::<2>(usize::try_from(k).unwrap_or(usize::MAX))?
        .map(|[edge, to]| {
            let step = CircuitStep { edge: EdgeId(edge), from, to: VertexId(to) };
            from = step.to;
            step
        })
        .collect();
    let circuit = usize::try_from(circuit).unwrap_or(usize::MAX);
    Ok(RunEvent::Chunk { circuit, base, steps })
}

/// Appends a chunk's steps to the circuits received so far. Chunks arrive in
/// stream order: the current circuit continued at the step it has reached,
/// or the next circuit begun at step 0.
fn append_chunk(
    circuits: &mut Vec<Vec<CircuitStep>>,
    circuit: usize,
    base: u64,
    steps: Vec<CircuitStep>,
) -> Result<(), ServiceError> {
    if circuit == circuits.len() {
        circuits.push(Vec::new());
    }
    let current = circuits.len().checked_sub(1);
    match circuits.last_mut() {
        Some(target) if current == Some(circuit) && target.len() as u64 == base => {
            target.extend(steps);
            Ok(())
        }
        _ => Err(ServiceError::Protocol(format!(
            "chunk at step {base} of circuit {circuit} is out of stream order"
        ))),
    }
}

fn decode_remote_error(c: &mut WordReader<'_>) -> ServiceError {
    let code = c.u().unwrap_or(0);
    let message = c.str().unwrap_or_else(|_| "<unreadable error message>".into());
    ServiceError::Remote { code, message }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Protocol(e.to_string())
    }
}

/// A blocking client of one [`EulerService`] connection.
///
/// One request is in flight at a time per client; open several clients for
/// concurrency (each connection has its own handler on the server).
pub struct ServiceClient {
    conn: Box<dyn Connection>,
    recv_timeout: Duration,
}

impl ServiceClient {
    /// Connects to a service endpoint (`tcp:127.0.0.1:<port>`, as returned
    /// by [`EulerService::endpoint`]).
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the endpoint is unreachable.
    pub fn connect(endpoint: &str) -> Result<ServiceClient, ServiceError> {
        let conn = connect_endpoint(endpoint)?;
        Ok(ServiceClient { conn, recv_timeout: Duration::from_secs(120) })
    }

    /// Overrides the per-reply receive timeout (default two minutes).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> ServiceClient {
        self.recv_timeout = timeout;
        self
    }

    fn recv(&self) -> Result<(u16, Vec<u8>), ServiceError> {
        Ok(self.conn.recv_timeout(Some(self.recv_timeout))?)
    }

    /// Registers the `.ecsr` file at `path` (a path on the *server's*
    /// filesystem) and returns its identity.
    ///
    /// # Errors
    /// [`ServiceError::Remote`] with [`error_code::REGISTER_FAILED`] when
    /// the server cannot open or verify the file.
    pub fn register(&self, path: &str) -> Result<GraphInfo, ServiceError> {
        let mut words = WordWriter::new();
        words.str(path);
        self.conn.send(frame_kind::REGISTER, words.as_bytes())?;
        let (kind, payload) = self.recv()?;
        let mut c = WordReader::new(&payload)?;
        match kind {
            frame_kind::REGISTERED => {
                let [checksum, num_vertices, num_edges] = c.array()?;
                c.finish()?;
                Ok(GraphInfo { checksum, num_vertices, num_edges })
            }
            frame_kind::ERROR => Err(decode_remote_error(&mut c)),
            other => Err(ServiceError::Protocol(format!(
                "expected REGISTERED, got frame kind {other:#x}"
            ))),
        }
    }

    /// Submits a run without waiting for it; follow with
    /// [`next_event`](Self::next_event) (and optionally
    /// [`cancel`](Self::cancel)).
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the request cannot be sent.
    pub fn start_run(&self, checksum: u64, opts: RunOptions) -> Result<(), ServiceError> {
        self.conn.send_words(frame_kind::RUN, &encode_run(checksum, &opts))?;
        Ok(())
    }

    /// Receives the next streamed event of the in-flight run.
    ///
    /// # Errors
    /// [`ServiceError::Remote`] for typed server failures,
    /// [`ServiceError::Transport`] for transport failures/timeouts.
    pub fn next_event(&self) -> Result<RunEvent, ServiceError> {
        let (kind, payload) = self.recv()?;
        decode_event(kind, &payload)
    }

    /// Asks the server to cancel the in-flight run, which stops at its next
    /// yield point. Every cancel is answered by exactly one
    /// [`RunEvent::Cancelled`]: it ends the stream, or — when the run had
    /// passed its last yield point, or no run was in flight — it follows the
    /// run's [`RunEvent::Done`] (or error) as the idle connection's
    /// acknowledgement.
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the request cannot be sent.
    pub fn cancel(&self) -> Result<(), ServiceError> {
        self.conn.send(frame_kind::CANCEL, &[])?;
        Ok(())
    }

    /// Convenience driver: submits a run and assembles the streamed chunks
    /// into a [`RunOutcome`].
    ///
    /// # Errors
    /// Any [`ServiceError`] surfaced while streaming;
    /// [`ServiceError::Protocol`] for a chunk out of stream order.
    pub fn run(&self, checksum: u64, opts: RunOptions) -> Result<RunOutcome, ServiceError> {
        self.start_run(checksum, opts)?;
        let mut outcome = RunOutcome::default();
        loop {
            match self.next_event()? {
                RunEvent::Accepted { admitted_longs, cached } => {
                    outcome.admitted_longs = admitted_longs;
                    outcome.cached = cached;
                }
                RunEvent::Progress { .. } => {}
                RunEvent::Report(summary) => outcome.summary = Some(summary),
                RunEvent::Chunk { circuit, base, steps } => {
                    append_chunk(&mut outcome.circuits, circuit, base, steps)?;
                }
                RunEvent::Done { .. } => return Ok(outcome),
                RunEvent::Cancelled => {
                    outcome.cancelled = true;
                    return Ok(outcome);
                }
            }
        }
    }

    /// Fetches the server's current accounting.
    ///
    /// # Errors
    /// [`ServiceError::Transport`] or [`ServiceError::Protocol`] when the
    /// reply cannot be obtained or decoded.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        self.conn.send(frame_kind::STATS, &[])?;
        let (kind, payload) = self.recv()?;
        let mut c = WordReader::new(&payload)?;
        match kind {
            frame_kind::STATS_REPLY => {
                let stats = ServiceStats::decode(&mut c)?;
                c.finish()?;
                Ok(stats)
            }
            frame_kind::ERROR => Err(decode_remote_error(&mut c)),
            other => Err(ServiceError::Protocol(format!(
                "expected STATS_REPLY, got frame kind {other:#x}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_bsp::transport::decode_frame;
    use euler_bsp::MemTransport;
    use proptest::prelude::*;

    #[test]
    fn run_options_roundtrip_through_the_wire_encoding() {
        for opts in [
            RunOptions::default(),
            RunOptions { partitions: 32, strategy: MergeStrategy::Deferred, partitioner: PartitionerKind::Ldg },
            RunOptions { partitions: 1, strategy: MergeStrategy::Deduplicated, partitioner: PartitionerKind::Hash },
        ] {
            let words = WordWriter::from_words(&encode_run(0xDEAD_BEEF, &opts));
            let (checksum, back) = decode_run(words.as_bytes()).unwrap();
            assert_eq!(checksum, 0xDEAD_BEEF);
            assert_eq!(back, opts);
        }
    }

    #[test]
    fn malformed_run_payloads_yield_typed_errors_not_panics() {
        let run = |words: &[u64]| decode_run(WordWriter::from_words(words).as_bytes());
        assert!(run(&[]).is_err());
        assert!(run(&[1, 2]).is_err());
        assert!(run(&[9, 0, 0, 0]).is_err(), "zero partitions rejected");
        assert!(run(&[9, 4, 99, 0]).is_err(), "unknown strategy rejected");
        assert!(run(&[9, 4, 0, 99]).is_err(), "unknown partitioner rejected");
        assert!(run(&[9, u64::MAX, 0, 0]).is_err(), "partition overflow rejected");
        assert!(run(&[9, 4, 0, 0]).is_ok());
    }

    #[test]
    fn event_decoding_survives_fuzzed_words() {
        // A deterministic xorshift fuzz over every response kind: decoding
        // must return, never panic, whatever the payload bytes are.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for kinds in [
            frame_kind::ACCEPTED,
            frame_kind::PROGRESS,
            frame_kind::REPORT,
            frame_kind::CHUNK,
            frame_kind::DONE,
            frame_kind::CANCELLED,
            frame_kind::ERROR,
            0x7777,
        ] {
            for len in 0..16 {
                let words: Vec<u64> = (0..len).map(|_| rand()).collect();
                let _ = decode_event(kinds, WordWriter::from_words(&words).as_bytes());
            }
        }
        // Odd byte payloads fail word alignment with a typed error.
        assert!(matches!(
            decode_event(frame_kind::DONE, &[1, 2, 3]),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn progress_decodes_exactly() {
        let progress = |words: &[u64]| decode_event(frame_kind::PROGRESS, WordWriter::from_words(words).as_bytes());
        assert_eq!(progress(&[2, 5]).unwrap(), RunEvent::Progress { done: 2, total: 5 });
        for words in [&[2, 5, 0][..], &[1 << 32, 5]] {
            assert!(matches!(progress(words), Err(ServiceError::Protocol(_))), "{words:?} decoded");
        }
    }

    /// Each circuit a chain over `(edge, to)` pairs from vertex 0; a small
    /// vertex range makes self-loops common.
    fn chain_result(circuits: &[Vec<(u64, u64)>]) -> CircuitResult {
        let circuits = circuits
            .iter()
            .map(|pairs| {
                let mut from = VertexId(0);
                pairs
                    .iter()
                    .map(|&(edge, to)| {
                        let step = CircuitStep { edge: EdgeId(edge), from, to: VertexId(to) };
                        from = step.to;
                        step
                    })
                    .collect()
            })
            .collect();
        CircuitResult { circuits }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The encoded batch is `CHUNK` frames and then one `DONE`, each of
        /// which decodes through the client's decoder; the chunks reassemble
        /// in stream order into the result encoded. The chunk payloads are
        /// exactly `8 · (4c + 2m)` bytes, and the batch adds a 20 B header a
        /// frame and the 16 B `DONE` payload.
        #[test]
        fn chunk_codec_roundtrips_random_results(
            circuits in prop::collection::vec(
                prop::collection::vec((0u64..1_000_000, 0u64..6), 1..40),
                1..4,
            ),
        ) {
            let result = chain_result(&circuits);
            for chunk_steps in [1, 2, 7, 512] {
                let batch = encode_circuit(&result, chunk_steps).unwrap();
                let mut rest = batch.as_bytes();
                let (mut back, mut chunks, mut chunk_bytes) = (Vec::new(), 0, 0);
                let done = loop {
                    let (kind, payload, used) = decode_frame(rest).unwrap();
                    rest = &rest[used..];
                    match decode_event(kind, &payload) {
                        Ok(RunEvent::Chunk { circuit, base, steps }) => {
                            append_chunk(&mut back, circuit, base, steps).unwrap();
                            chunks += 1;
                            chunk_bytes += payload.len();
                        }
                        Ok(RunEvent::Done { num_circuits, total_edges }) => break [num_circuits, total_edges],
                        other => panic!("a stored frame decodes to a chunk or done, got {other:?}"),
                    }
                };
                prop_assert!(rest.is_empty(), "frames after DONE");
                prop_assert_eq!(&back, &result.circuits);
                let c: usize = circuits.iter().map(|s| s.len().div_ceil(chunk_steps)).sum();
                let m = result.total_edges() as usize;
                prop_assert_eq!(chunks, c);
                prop_assert_eq!(chunk_bytes, 8 * (4 * c + 2 * m));
                prop_assert_eq!(batch.as_bytes().len(), 8 * (4 * c + 2 * m) + 20 * (c + 1) + 16);
                prop_assert_eq!(done, [circuits.len() as u64, m as u64]);
            }
        }
    }

    #[test]
    fn hostile_chunk_payloads_get_typed_errors() {
        let chunk = |words: &[u64]| decode_event(frame_kind::CHUNK, WordWriter::from_words(words).as_bytes());
        let Ok(RunEvent::Chunk { circuit, base, steps }) = chunk(&[1, 4, 2, 5, 10, 6, 11, 6]) else {
            panic!("a well-formed chunk decodes");
        };
        assert_eq!((circuit, base), (1, 4));
        let step = |edge, from, to| CircuitStep { edge: EdgeId(edge), from: VertexId(from), to: VertexId(to) };
        assert_eq!(steps, vec![step(10, 5, 6), step(11, 6, 6)]);
        for words in [
            &[1, 4, 2, 5, 10, 6, 11, 6, 0][..], // one word more than 4 + 2k
            &[1, 4, 2, 5, 10, 6, 11],           // one word less
            &[1, 4, 3, 5, 10, 6, 11, 6],        // k points past the payload
            &[1, 4, 1 << 40, 5, 10, 6],
            &[1, 4, u64::MAX, 5, 10, 6],
            &[1, 4, 0],                         // no `from₀`
        ] {
            assert!(
                matches!(chunk(words), Err(ServiceError::Protocol(_))),
                "{words:?} decoded"
            );
        }
    }

    #[test]
    fn strings_roundtrip_and_reject_truncation() {
        // The protocol's strings are ERROR messages and REGISTER paths.
        let mut words = WordWriter::from_words(&[error_code::RUN_FAILED]);
        words.str("graphs/torus.ecsr is not Eulerian");
        let Err(ServiceError::Remote { code, message }) =
            decode_event(frame_kind::ERROR, words.as_bytes())
        else {
            panic!("an ERROR frame decodes to a remote error");
        };
        assert_eq!((code, message.as_str()), (error_code::RUN_FAILED, "graphs/torus.ecsr is not Eulerian"));
        // Declared length beyond the payload degrades to a placeholder.
        let truncated = WordWriter::from_words(&[error_code::RUN_FAILED, 100, 0x6162_6364]);
        let Err(ServiceError::Remote { message, .. }) =
            decode_event(frame_kind::ERROR, truncated.as_bytes())
        else {
            panic!("an ERROR frame decodes to a remote error");
        };
        assert_eq!(message, "<unreadable error message>");
    }

    /// A permit holding `longs` of `ctl`.
    fn permit(ctl: &Arc<AdmissionController>, longs: u64) -> AdmissionPermit {
        let mut permit = ctl.admit(|| false).unwrap();
        permit.reserve(longs, || false).unwrap();
        permit
    }

    #[test]
    fn admission_blocks_until_a_permit_releases_and_peak_respects_the_cap() {
        let ctl = Arc::new(AdmissionController::new(1_000, 2));
        let first = permit(&ctl, 600);
        assert_eq!(ctl.admitted_longs(), 600);
        // A second 600 must wait; release the first from another thread.
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            let permit = permit(&ctl2, 600);
            (ctl2.admitted_longs(), permit.longs())
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(first);
        let (admitted_during, longs) = waiter.join().unwrap();
        assert_eq!(longs, 600);
        assert_eq!(admitted_during, 600, "only one 600 fits at a time");
        assert!(ctl.peak_admitted_longs() <= 1_000, "invariant: peak never exceeds cap");
        assert_eq!(ctl.admitted_longs(), 0, "all permits released");
    }

    /// A stop that turns true stops a wait for Longs and a wait for a slot;
    /// a cancelled reservation holds nothing, and its slot comes back with
    /// the permit.
    #[test]
    fn admission_cancellation_unblocks_a_waiter() {
        let ctl = Arc::new(AdmissionController::new(100, 2));
        let hold = permit(&ctl, 100);
        let mut waiting = ctl.admit(|| false).unwrap();
        assert!(matches!(waiting.reserve(100, || true), Err(EulerError::Cancelled)));
        assert_eq!((waiting.longs(), ctl.admitted_longs()), (0, 100));
        assert!(matches!(ctl.admit(|| true), Err(EulerError::Cancelled)), "both slots are taken");
        drop((hold, waiting));
        assert_eq!(permit(&ctl, 100).longs(), 100);
    }

    /// `slots` bounds the permits held at once, whatever their Longs.
    #[test]
    fn a_run_waits_for_a_compute_slot() {
        let ctl = Arc::new(AdmissionController::new(1_000, 1));
        let first = ctl.admit(|| false).unwrap();
        let ctl2 = Arc::clone(&ctl);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let second = ctl2.admit(|| false).unwrap();
            tx.send(()).unwrap();
            second.longs()
        });
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "admitted past the one slot");
        drop(first);
        assert_eq!(waiter.join().unwrap(), 0);
    }

    #[test]
    fn oversized_estimates_degrade_to_exclusive_not_impossible() {
        let ctl = Arc::new(AdmissionController::new(100, 1));
        let permit = permit(&ctl, 10_000);
        assert_eq!(permit.longs(), 100, "clamped to the whole budget");
        assert_eq!(ctl.admitted_longs(), 100);
    }

    /// A listener whose first accept fails, as one out of file descriptors
    /// does; every later accept is the real listener's.
    struct FailsFirst {
        inner: Box<dyn Listener>,
        accepts: AtomicU64,
    }

    impl Listener for FailsFirst {
        fn endpoint(&self) -> String {
            self.inner.endpoint()
        }

        fn accept_timeout(&self, timeout: Option<Duration>) -> Result<Box<dyn Connection>, FrameError> {
            if self.accepts.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err(FrameError::Io("Too many open files (os error 24)".into()));
            }
            self.inner.accept_timeout(timeout)
        }
    }

    #[test]
    fn a_failed_accept_does_not_stop_the_service_accepting() {
        let listener =
            FailsFirst { inner: MemTransport.listen().unwrap(), accepts: AtomicU64::new(0) };
        let service = EulerService::serve(Box::new(listener), ServiceConfig::default()).unwrap();
        let client = ServiceClient::connect(service.endpoint())
            .unwrap()
            .with_recv_timeout(Duration::from_secs(10));
        assert_eq!(
            client.stats().unwrap().runs_executed,
            0,
            "the connection after the failure is served"
        );
        service.shutdown();
    }

    #[test]
    fn stats_and_summary_roundtrip() {
        let stats = ServiceStats {
            memory_cap_longs: 1,
            admitted_longs: 2,
            peak_admitted_longs: 3,
            runs_executed: 4,
            runs_cached: 5,
            runs_cancelled: 6,
            graphs_registered: 7,
        };
        let words = WordWriter::from_words(&stats.encode());
        let mut c = WordReader::new(words.as_bytes()).unwrap();
        assert_eq!(ServiceStats::decode(&mut c).unwrap(), stats);
        let short = WordWriter::from_words(&[1, 2]);
        assert!(ServiceStats::decode(&mut WordReader::new(short.as_bytes()).unwrap()).is_err());
        let summary = RunSummary {
            supersteps: 3,
            transfer_longs: 10,
            peak_resident_longs: 20,
            estimated_longs: 30,
            measured_longs: 40,
        };
        let words = WordWriter::from_words(&summary.encode());
        let mut c = WordReader::new(words.as_bytes()).unwrap();
        assert_eq!(RunSummary::decode(&mut c).unwrap(), summary);
    }
}
