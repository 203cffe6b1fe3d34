//! The service protocol — frame kinds, error codes, run options, the
//! payload codecs of both halves — and its client.

use super::*;

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
        RunOptions { partitions: 4, strategy: MergeStrategy::Duplicated, partitioner: PartitionerKind::Hash }
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

pub(super) fn encode_run(checksum: u64, opts: &RunOptions) -> [u64; 4] {
    [checksum, u64::from(opts.partitions), opts.strategy.wire_code(), partitioner_code(opts.partitioner)]
}

pub(super) fn decode_run(payload: &[u8]) -> Result<(u64, RunOptions), WireError> {
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
    pub(super) fn encode(&self) -> [u64; 7] {
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

    pub(super) fn decode(c: &mut WordReader<'_>) -> Result<Self, WireError> {
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
    pub(super) fn encode(&self) -> [u64; 5] {
        [
            u64::from(self.supersteps),
            self.transfer_longs,
            self.peak_resident_longs,
            self.estimated_longs,
            self.measured_longs,
        ]
    }

    pub(super) fn decode(c: &mut WordReader<'_>) -> Result<Self, WireError> {
        let [supersteps, transfer_longs, peak_resident_longs, estimated_longs, measured_longs] = c.array()?;
        Ok(RunSummary {
            supersteps: word_u32(supersteps, "supersteps")?,
            transfer_longs,
            peak_resident_longs,
            estimated_longs,
            measured_longs,
        })
    }
}

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
pub(super) fn encode_circuit(result: &CircuitResult, chunk_steps: usize) -> Result<FrameBatch, FrameError> {
    let chunk_steps = chunk_steps.max(1);
    let (chunks, steps) = result
        .circuits
        .iter()
        .fold((0, 0), |(c, m), circuit| (c + circuit.len().div_ceil(chunk_steps), m + circuit.len()));
    // Per chunk `[circuit, base, k, from₀] + k × [edge, to]`, then the
    // two `DONE` words: 16 B a step plus 32 B a chunk, and a header a frame.
    let mut frames = FrameBatch::with_capacity(8 * (4 * chunks + 2 * steps) + FRAME_HEADER_BYTES * (chunks + 1) + 16);
    for (circuit_idx, circuit) in result.circuits.iter().enumerate() {
        for (chunk_idx, chunk) in circuit.chunks(chunk_steps).enumerate() {
            frames.push(frame_kind::CHUNK, |out| {
                // `chunks` yields no empty slice.
                let mut at = chunk[0].from;
                out.words(&[circuit_idx as u64, (chunk_idx * chunk_steps) as u64, chunk.len() as u64, at.0]);
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
pub(super) fn decode_event(kind: u16, payload: &[u8]) -> Result<RunEvent, ServiceError> {
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
        other => return Err(ServiceError::Protocol(format!("unexpected frame kind {other:#x}"))),
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
pub(super) fn append_chunk(
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
        _ => Err(ServiceError::Protocol(format!("chunk at step {base} of circuit {circuit} is out of stream order"))),
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
            other => Err(ServiceError::Protocol(format!("expected REGISTERED, got frame kind {other:#x}"))),
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
            other => Err(ServiceError::Protocol(format!("expected STATS_REPLY, got frame kind {other:#x}"))),
        }
    }
}
