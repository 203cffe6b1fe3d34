//! The service: its configuration, the circuit cache and the server-side
//! request handling.

use super::protocol::{decode_run, encode_circuit};
use super::*;

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
        ServiceConfig { memory_cap_longs: 64 << 20, workers: 4, fragment_budget_longs: 1 << 16, chunk_steps: 512 }
    }
}

type CacheKey = (u64, RunOptions);

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
    pub(super) fn serve(listener: Box<dyn Listener>, config: ServiceConfig) -> Result<EulerService, ServiceError> {
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
fn read_frames(conn: &dyn Connection, tx: &mpsc::SyncSender<ConnEvent>, admission: &AdmissionController) {
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
            frame_kind::STATS => conn.send_words(frame_kind::STATS_REPLY, &inner.stats().encode()),
            // A CANCEL with no run in flight — or one its run finished
            // before seeing — is acknowledged here, once.
            frame_kind::CANCEL => conn.send(frame_kind::CANCELLED, &[]),
            other => send_error(conn, error_code::BAD_REQUEST, &format!("unknown frame kind {other:#x}")),
        };
        if outcome.is_err() {
            return;
        }
    }
}

fn handle_register(inner: &ServiceInner, conn: &dyn Connection, payload: &[u8]) -> Result<(), FrameError> {
    let path = WordReader::new(payload).and_then(|mut r| {
        let path = r.str()?;
        r.finish().map(|()| path)
    });
    let path = match path {
        Ok(path) => path,
        Err(e) => return send_error(conn, error_code::BAD_REQUEST, &e.to_string()),
    };
    match inner.registry.register(&path) {
        Ok(graph) => {
            conn.send_words(frame_kind::REGISTERED, &[graph.checksum, graph.num_vertices(), graph.num_edges()])
        }
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
            &format!("{} partitions make a cut matrix larger than the graph's file", opts.partitions),
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
        PartitionerKind::Hash => HashPartitioner::new(opts.partitions).partition_stream(&mut stream)?,
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
        measured_longs: report.cumulative_memory_by_level().into_iter().max().unwrap_or(0) + peak_resident_longs,
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
