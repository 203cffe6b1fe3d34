//! The wire-transport seam: framed, checksummed connections between the
//! coordinator and its workers.
//!
//! Workers stepped in place share a process with their driver; this module
//! is what puts them in other threads or processes. A [`Transport`] hands
//! out [`Listener`]s and [`Connection`]s over one of two substrates:
//!
//! * [`MemTransport`] — the in-memory channel path (worker threads in this
//!   process, frames over `std::sync::mpsc`).
//! * [`TcpTransport`] — loopback TCP sockets (`std::net` only, per the
//!   offline-shim constraint), the path worker *processes* and service
//!   clients connect over.
//!
//! Every frame is length-prefixed and checksummed:
//!
//! ```text
//! magic   u32  0x45_55_4C_52 ("EULR")
//! version u16  FRAME_VERSION (13)
//! kind    u16  message discriminant (opaque to this layer)
//! len     u32  payload bytes (<= MAX_FRAME_BYTES)
//! check   u64  word-folded FNV-1a over kind, len and payload
//! payload [u8; len]
//! ```
//!
//! The checksum is [`WordFold`] — the fold `.ecsr` files and checkpoints
//! use — over the word `kind`, the word `len`, then the payload as
//! little-endian `u64` words, a trailing partial word zero-padded. Any
//! other version is refused as `UnsupportedVersion`.
//!
//! A payload may be sent as a *list of parts*
//! ([`Connection::send_parts`]): the checksum is chained across the parts
//! and the TCP transport writes them with one vectored write, so a sender
//! that assembles a message from buffers it already holds — the coordinator
//! relaying partition states it received — never concatenates them. A
//! TCP receive folds the checksum over each chunk as it arrives, and
//! keeps a partially received frame across a [`FrameError::Timeout`], so a
//! polling receiver can never lose the bytes it already consumed.
//!
//! Frames that are sent again and again can be kept as a [`FrameBatch`]:
//! complete frames back to back, each payload written in place and its
//! header checksummed once, when the frame is pushed. The batch's bytes are
//! exactly the frames [`encode_frame`] would produce one by one, and
//! [`Connection::send_batch`] puts them on a socket with one write, folding
//! nothing. The read half of a TCP connection reads through a 64 KiB
//! buffer, so a stream of small frames costs one `read` per buffer rather
//! than two per frame; a payload larger than the buffer is read into its
//! own allocation directly.
//!
//! Decoding garbage yields a typed [`FrameError`] — bad magic, foreign
//! version, truncated header/payload, oversized length (rejected **before**
//! any allocation), checksum mismatch — never a panic and never an
//! over-allocation. The in-memory transport carries the same frames through
//! the same codec, so both impls share one hardening test surface. Payloads
//! are word sequences; [`crate::wire`] is their codec.

use crate::wire::{extend_words, WordFold, WordWriter};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Frame magic: `"EULR"` as a big-endian u32.
pub const FRAME_MAGIC: u32 = 0x4555_4C52;
/// Current frame-format version. Bumped whenever the layout of the frame or
/// of any message carried in it changes, so peers of different builds refuse
/// each other at the first frame instead of misreading a payload.
pub const FRAME_VERSION: u16 = 13;
/// Upper bound on a frame payload. A length field above this is rejected as
/// [`FrameError::LengthOverflow`] before any buffer is allocated.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;
/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_BYTES: usize = 20;
/// Capacity of a TCP connection's receive buffer: one `read` takes in
/// several of the service's 8 KB `CHUNK` frames.
const RECV_BUFFER_BYTES: usize = 64 << 10;

/// Typed decode/transport errors. Garbage input maps to one of these —
/// never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The frame was written by an incompatible format version.
    UnsupportedVersion {
        /// The version tag found.
        found: u16,
    },
    /// The stream ended inside a frame header or payload.
    Truncated {
        /// Bytes expected to complete the frame.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length field exceeds [`MAX_FRAME_BYTES`]; rejected before
    /// allocating.
    LengthOverflow {
        /// The declared payload length.
        declared: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// No frame arrived within the requested timeout.
    Timeout,
    /// An underlying I/O error (message kept, `std::io::Error` is not
    /// comparable).
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported frame version {found}")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::LengthOverflow { declared } => {
                write!(f, "frame length {declared} exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Timeout => write!(f, "timed out waiting for a frame"),
            FrameError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// The frame checksum: the word fold chained over the kind, the declared
/// length and the payload parts, so a flipped bit anywhere past the version
/// field is caught (a corrupted `kind` would otherwise decode fine and
/// misroute the frame).
fn checksum_start(kind: u16, len: u32) -> WordFold {
    let mut fold = WordFold::new();
    fold.word(u64::from(kind));
    fold.word(u64::from(len));
    fold
}

/// The 20-byte header of a frame carrying `parts` as its payload.
fn frame_header(kind: u16, parts: &[&[u8]]) -> Result<[u8; FRAME_HEADER_BYTES], FrameError> {
    let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
    if total > u64::from(MAX_FRAME_BYTES) {
        return Err(FrameError::LengthOverflow { declared: total });
    }
    let len = total as u32;
    let mut fold = checksum_start(kind, len);
    for part in parts {
        fold.bytes(part);
    }
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let fields = FRAME_MAGIC
        .to_le_bytes()
        .into_iter()
        .chain(FRAME_VERSION.to_le_bytes())
        .chain(kind.to_le_bytes())
        .chain(len.to_le_bytes())
        .chain(fold.finish().to_le_bytes());
    for (dst, src) in header.iter_mut().zip(fields) {
        *dst = src;
    }
    Ok(header)
}

/// Encodes one frame (header + payload parts) into a byte vector.
fn encode_parts(kind: u16, parts: &[&[u8]]) -> Result<Vec<u8>, FrameError> {
    let header = frame_header(kind, parts)?;
    let mut out =
        Vec::with_capacity(FRAME_HEADER_BYTES + parts.iter().map(|p| p.len()).sum::<usize>());
    out.extend_from_slice(&header);
    for part in parts {
        out.extend_from_slice(part);
    }
    Ok(out)
}

/// Encodes one frame (header + payload) into a byte vector.
pub fn encode_frame(kind: u16, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    encode_parts(kind, &[payload])
}

/// Complete frames back to back, ready to be sent as they are with
/// [`Connection::send_batch`]: each payload is written in place and its
/// header, checksum included, filled in once, when the frame is pushed.
/// The bytes equal [`encode_frame`] of each frame, concatenated.
#[derive(Debug, Default)]
pub struct FrameBatch {
    bytes: Vec<u8>,
}

/// The payload of the frame a [`FrameBatch::push`] is writing, appended
/// to the batch in place.
pub struct FramePayload<'a>(&'a mut Vec<u8>);

impl FramePayload<'_> {
    /// Appends bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Appends words, little-endian.
    pub fn words(&mut self, words: &[u64]) {
        extend_words(self.0, words);
    }
}

impl FrameBatch {
    /// An empty batch with room for `bytes` bytes of frames, headers
    /// included.
    pub fn with_capacity(bytes: usize) -> Self {
        FrameBatch { bytes: Vec::with_capacity(bytes) }
    }

    /// Appends one frame of `kind` whose payload `fill` writes.
    ///
    /// # Errors
    /// [`FrameError::LengthOverflow`] when the payload exceeds
    /// [`MAX_FRAME_BYTES`]; the batch is then left as it was.
    pub fn push(
        &mut self,
        kind: u16,
        fill: impl FnOnce(&mut FramePayload<'_>),
    ) -> Result<(), FrameError> {
        let start = self.bytes.len();
        self.bytes.resize(start + FRAME_HEADER_BYTES, 0);
        fill(&mut FramePayload(&mut self.bytes));
        let (head, payload) = self.bytes.split_at_mut(start + FRAME_HEADER_BYTES);
        match frame_header(kind, &[payload]) {
            Ok(header) => {
                for (dst, src) in head.iter_mut().skip(start).zip(header) {
                    *dst = src;
                }
                Ok(())
            }
            Err(e) => {
                self.bytes.truncate(start);
                Err(e)
            }
        }
    }

    /// The frames' bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Each frame's bytes, header and payload, in order.
    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.bytes.as_slice();
        std::iter::from_fn(move || {
            let len = u32::from_le_bytes(le_field(rest, 8).ok()?);
            let (frame, tail) = rest.split_at_checked(FRAME_HEADER_BYTES + len as usize)?;
            rest = tail;
            Some(frame)
        })
    }
}

/// Reads a fixed-size little-endian field at byte offset `at`, surfacing a
/// short slice as [`FrameError::Truncated`] — decode paths must turn
/// garbage input into typed errors, never panics.
fn le_field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], FrameError> {
    bytes
        .get(at..at.saturating_add(N))
        .and_then(|s| s.try_into().ok())
        .ok_or(FrameError::Truncated { expected: at.saturating_add(N), got: bytes.len() })
}

/// The validated fields of a frame header.
#[derive(Clone, Copy)]
struct Header {
    kind: u16,
    len: u32,
    check: u64,
}

/// Parses a frame header from the front of `bytes`: magic, version and the
/// length cap are checked here, before anything is allocated.
fn parse_header(bytes: &[u8]) -> Result<Header, FrameError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated { expected: FRAME_HEADER_BYTES, got: bytes.len() });
    }
    let magic = u32::from_le_bytes(le_field(bytes, 0)?);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(le_field(bytes, 4)?);
    if version != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    let kind = u16::from_le_bytes(le_field(bytes, 6)?);
    let len = u32::from_le_bytes(le_field(bytes, 8)?);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::LengthOverflow { declared: len as u64 });
    }
    Ok(Header { kind, len, check: u64::from_le_bytes(le_field(bytes, 12)?) })
}

/// Decodes one frame from the front of `bytes`, returning
/// `(kind, payload, consumed)`.
pub fn decode_frame(bytes: &[u8]) -> Result<(u16, Vec<u8>, usize), FrameError> {
    let header = parse_header(bytes)?;
    let total = FRAME_HEADER_BYTES + header.len as usize;
    let payload = bytes
        .get(FRAME_HEADER_BYTES..total)
        .ok_or(FrameError::Truncated { expected: total, got: bytes.len() })?;
    let mut fold = checksum_start(header.kind, header.len);
    fold.bytes(payload);
    if fold.finish() != header.check {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((header.kind, payload.to_vec(), total))
}

/// A frame being received from a blocking stream: first its header, then
/// its payload, into `buf`. The state outlives a [`FrameError::Timeout`] — a
/// read timeout that fires mid-frame leaves the bytes already consumed
/// here, and the next call resumes where it stopped.
#[derive(Default)]
struct FrameAssembler {
    buf: Vec<u8>,
    filled: usize,
    /// Set once the header is complete and valid, with the checksum over
    /// the payload bytes received so far (folded chunk by chunk, while each
    /// is still in cache).
    header: Option<(Header, WordFold)>,
}

impl FrameAssembler {
    /// Reads until one frame is complete. Returns [`FrameError::Closed`]
    /// when the peer hangs up exactly at a frame boundary, `Truncated` when
    /// it hangs up mid-frame, and `Timeout` when the stream's read timeout
    /// fires (the partial frame is kept). Any other error leaves the stream
    /// desynchronised; the assembler resets and the caller drops the
    /// connection.
    fn read_frame(&mut self, r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
        let result = self.advance(r);
        if !matches!(result, Err(FrameError::Timeout)) {
            *self = FrameAssembler::default();
        }
        result
    }

    fn advance(&mut self, r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
        if self.header.is_none() && self.buf.is_empty() {
            self.buf = vec![0u8; FRAME_HEADER_BYTES];
        }
        loop {
            while self.filled < self.buf.len() {
                let spare = self.buf.get_mut(self.filled..).unwrap_or_default();
                let n = read_some(r, spare)?;
                if n == 0 {
                    return Err(if self.header.is_none() && self.filled == 0 {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated { expected: self.buf.len(), got: self.filled }
                    });
                }
                if let Some((_, fold)) = &mut self.header {
                    fold.bytes(spare.get(..n).unwrap_or_default());
                }
                self.filled += n;
            }
            match self.header.take() {
                None => {
                    let header = parse_header(&self.buf)?;
                    self.header = Some((header, checksum_start(header.kind, header.len)));
                    self.buf = vec![0u8; header.len as usize];
                    self.filled = 0;
                }
                Some((header, fold)) if fold.finish() == header.check => {
                    return Ok((header.kind, std::mem::take(&mut self.buf)));
                }
                Some(_) => return Err(FrameError::ChecksumMismatch),
            }
        }
    }
}

/// One `read` with typed errors: `Ok(0)` is end of stream,
/// `WouldBlock`/`TimedOut` is a timeout, `Interrupted` retries.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::Timeout);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Locks a mutex, tolerating poisoning. A panic on some other thread must
/// not cascade into a second panic here: the guarded transport state
/// (queues, stream halves, the listener registry) stays structurally
/// valid across a poisoned lock, and the panicking worker's failure
/// surfaces through its own join/heartbeat path instead.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bidirectional framed channel to one peer. `send` and `recv_timeout`
/// lock independent halves, so a heartbeat thread can transmit while the
/// main loop blocks on receive.
pub trait Connection: Send + Sync {
    /// Sends one frame whose payload is the concatenation of `parts`. The
    /// checksum is chained across the parts; nothing is concatenated on the
    /// TCP transport.
    fn send_parts(&self, kind: u16, parts: &[&[u8]]) -> Result<(), FrameError>;
    /// Sends every frame of `batch`, in order, as it was framed: no header
    /// or checksum is computed again. The TCP transport writes the batch
    /// with one write.
    fn send_batch(&self, batch: &FrameBatch) -> Result<(), FrameError>;
    /// Sends one frame.
    fn send(&self, kind: u16, payload: &[u8]) -> Result<(), FrameError> {
        self.send_parts(kind, &[payload])
    }
    /// Sends one frame of a few words.
    fn send_words(&self, kind: u16, words: &[u64]) -> Result<(), FrameError> {
        self.send(kind, WordWriter::from_words(words).as_bytes())
    }
    /// Receives one frame, blocking at most `timeout` (`None` blocks
    /// indefinitely). A quiet timeout returns [`FrameError::Timeout`].
    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError>;
    /// Arms a timeout for subsequent [`send`](Connection::send) calls: a
    /// send that cannot make progress within `timeout` (a stalled peer whose
    /// socket buffers are full) fails with [`FrameError::Timeout`] instead
    /// of blocking forever. `None` (the default) restores indefinite
    /// blocking; `Some(Duration::ZERO)` is rejected by the OS socket layer.
    /// Transports whose sends cannot block (in-memory queues) ignore this.
    fn set_send_timeout(&self, timeout: Option<Duration>) {
        let _ = timeout;
    }
    /// Closes both directions: a receive or send blocked on another thread
    /// fails, as does every later one, here and at the peer.
    fn close(&self);
}

/// Accepts inbound worker connections on an endpoint.
pub trait Listener: Send {
    /// The endpoint string workers pass to [`Transport::connect`]
    /// (e.g. `tcp:127.0.0.1:41234`, `mem:3`).
    fn endpoint(&self) -> String;
    /// Accepts one connection, waiting at most `timeout` (`None` blocks
    /// until a peer dials). A quiet timeout returns [`FrameError::Timeout`].
    fn accept_timeout(&self, timeout: Option<Duration>) -> Result<Box<dyn Connection>, FrameError>;
    /// Accepts one connection, waiting at most `timeout`.
    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
        self.accept_timeout(Some(timeout))
    }
}

/// A connection factory: one of the two substrates above.
pub trait Transport: Send + Sync {
    /// Substrate name (`"mem"`, `"tcp"`), for reports.
    fn name(&self) -> &'static str;
    /// Opens a listener on a fresh endpoint.
    fn listen(&self) -> Result<Box<dyn Listener>, FrameError>;
    /// Connects to a listener's endpoint.
    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError>;
    /// Whether endpoints are reachable from *other processes* (TCP yes,
    /// in-memory channels no).
    fn supports_processes(&self) -> bool {
        false
    }
}

/// Connect attempts of every dial, [`connect_with_retry`]'s and
/// [`connect_endpoint`]'s alike.
const CONNECT_ATTEMPTS: u32 = 20;
/// The linear backoff step between connect attempts: the `k`-th retry
/// waits `k` steps, 1.9 s over all 20 attempts.
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// Connects with bounded retry and linear backoff. A coordinator binds its
/// listener before it starts a worker, so a worker's first attempt finds it;
/// the retries cover a peer that is still coming up, such as a service
/// client started beside its server.
pub fn connect_with_retry(
    transport: &dyn Transport,
    endpoint: &str,
) -> Result<Box<dyn Connection>, FrameError> {
    retry_connect(transport, endpoint, CONNECT_ATTEMPTS, CONNECT_BACKOFF)
}

/// [`connect_with_retry`] on a schedule of its own. The backoff sleeps only
/// *between* attempts: once the final attempt has failed there is nothing
/// left to retry, so the error surfaces immediately.
fn retry_connect(
    transport: &dyn Transport,
    endpoint: &str,
    attempts: u32,
    backoff: Duration,
) -> Result<Box<dyn Connection>, FrameError> {
    let attempts = attempts.max(1);
    let mut last = FrameError::Io("no connect attempts were made".into());
    for attempt in 0..attempts {
        match transport.connect(endpoint) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        if attempt + 1 < attempts {
            std::thread::sleep(retry_delay(backoff, attempt));
        }
    }
    Err(last)
}

/// Linear-backoff delay after failed attempt `attempt` (0-based):
/// `backoff * (attempt + 1)`, saturating — huge attempt counts or backoffs
/// clamp to `Duration::MAX` instead of panicking in `Duration`'s `Mul<u32>`.
fn retry_delay(backoff: Duration, attempt: u32) -> Duration {
    backoff.saturating_mul(attempt.saturating_add(1))
}

/// Connects to an endpoint by scheme (`tcp:`/`mem:`), with
/// [`connect_with_retry`]'s schedule — what the `euler-worker` binary and
/// service clients use, since they only receive the endpoint string.
pub fn connect_endpoint(endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
    let transport: &dyn Transport = if endpoint.starts_with("tcp:") {
        &TcpTransport
    } else if endpoint.starts_with("mem:") {
        &MemTransport
    } else {
        return Err(FrameError::Io(format!("unknown endpoint scheme: {endpoint}")));
    };
    connect_with_retry(transport, endpoint)
}

// ---------------------------------------------------------------------------
// In-memory transport.
// ---------------------------------------------------------------------------

/// One direction of an in-memory connection: frames as encoded byte vectors
/// (the same codec as the socket paths, so corruption tests cover both).
type MemFrame = Vec<u8>;
/// The sending end of one direction, owned by the sender and held weakly by
/// the receiver: closing drops the peer's sender too, and a dialer whose
/// connection was never accepted still sees the hang-up.
type MemSender = Mutex<Option<mpsc::Sender<MemFrame>>>;

struct MemRegistry {
    /// endpoint token → queue of the listener-side ends of dialed connections.
    pending: Mutex<HashMap<u64, mpsc::Sender<MemConnection>>>,
    next_token: AtomicU64,
}

fn mem_registry() -> &'static MemRegistry {
    static REG: OnceLock<MemRegistry> = OnceLock::new();
    REG.get_or_init(|| MemRegistry {
        pending: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(1),
    })
}

/// The in-memory channel transport: worker threads in this process,
/// `mpsc` queues underneath, frames through the same codec as the sockets.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemTransport;

struct MemListener {
    token: u64,
    accept_rx: Mutex<mpsc::Receiver<MemConnection>>,
}

impl Drop for MemListener {
    fn drop(&mut self) {
        lock_unpoisoned(&mem_registry().pending).remove(&self.token);
    }
}

/// Receives from a queue, blocking at most `timeout` (`None`: until a value
/// or a disconnect).
fn recv_within<T>(rx: &Mutex<mpsc::Receiver<T>>, timeout: Option<Duration>) -> Result<T, FrameError> {
    let rx = lock_unpoisoned(rx);
    match timeout {
        None => rx.recv().map_err(|_| FrameError::Closed),
        Some(t) => rx.recv_timeout(t).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => FrameError::Timeout,
            mpsc::RecvTimeoutError::Disconnected => FrameError::Closed,
        }),
    }
}

struct MemConnection {
    tx: Arc<MemSender>,
    rx: Mutex<mpsc::Receiver<MemFrame>>,
    /// The peer's `tx`: the sender of what `rx` receives.
    incoming: Weak<MemSender>,
}

impl MemConnection {
    /// Two ends of one connection.
    fn pair() -> (MemConnection, MemConnection) {
        let ((a_tx, b_rx), (b_tx, a_rx)) = (mpsc::channel(), mpsc::channel());
        let (a_tx, b_tx) = (Arc::new(Mutex::new(Some(a_tx))), Arc::new(Mutex::new(Some(b_tx))));
        let end = |tx: &Arc<MemSender>, rx, peer| MemConnection {
            tx: Arc::clone(tx),
            rx: Mutex::new(rx),
            incoming: Arc::downgrade(peer),
        };
        (end(&a_tx, a_rx, &b_tx), end(&b_tx, b_rx, &a_tx))
    }

    /// Queues encoded frames for the peer, in order.
    fn queue(&self, frames: impl IntoIterator<Item = MemFrame>) -> Result<(), FrameError> {
        let guard = lock_unpoisoned(&self.tx);
        let tx = guard.as_ref().ok_or(FrameError::Closed)?;
        frames.into_iter().try_for_each(|frame| tx.send(frame).map_err(|_| FrameError::Closed))
    }
}

impl Connection for MemConnection {
    fn send_parts(&self, kind: u16, parts: &[&[u8]]) -> Result<(), FrameError> {
        self.queue([encode_parts(kind, parts)?])
    }

    fn send_batch(&self, batch: &FrameBatch) -> Result<(), FrameError> {
        self.queue(batch.frames().map(<[u8]>::to_vec))
    }

    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        let (kind, payload, _) = decode_frame(&recv_within(&self.rx, timeout)?)?;
        Ok((kind, payload))
    }

    /// Drops both senders: each receiver sees its queue disconnect once drained.
    fn close(&self) {
        lock_unpoisoned(&self.tx).take();
        if let Some(incoming) = self.incoming.upgrade() {
            lock_unpoisoned(&incoming).take();
        }
    }
}

impl Listener for MemListener {
    fn endpoint(&self) -> String {
        format!("mem:{}", self.token)
    }

    fn accept_timeout(&self, timeout: Option<Duration>) -> Result<Box<dyn Connection>, FrameError> {
        Ok(Box::new(recv_within(&self.accept_rx, timeout)?))
    }
}

impl Transport for MemTransport {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let reg = mem_registry();
        let token = reg.next_token.fetch_add(1, Ordering::Relaxed);
        let (accept_tx, accept_rx) = mpsc::channel();
        lock_unpoisoned(&reg.pending).insert(token, accept_tx);
        Ok(Box::new(MemListener { token, accept_rx: Mutex::new(accept_rx) }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let token: u64 = endpoint
            .strip_prefix("mem:")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| FrameError::Io(format!("bad mem endpoint: {endpoint}")))?;
        let accept_tx = {
            let reg = lock_unpoisoned(&mem_registry().pending);
            reg.get(&token).cloned().ok_or(FrameError::Closed)?
        };
        let (dialer, listener_side) = MemConnection::pair();
        accept_tx.send(listener_side).map_err(|_| FrameError::Closed)?;
        Ok(Box::new(dialer))
    }
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

/// A connection over a loopback TCP stream. Each half arms its own timeout
/// on the stream handle it holds, and both surface expiry as
/// [`FrameError::Timeout`].
struct TcpConnection {
    /// The buffered read half, the frame it is in the middle of receiving,
    /// and the read timeout last armed on the socket.
    reader: Mutex<(BufReader<TcpStream>, FrameAssembler, Option<Duration>)>,
    /// The write half and the write timeout last armed on the socket.
    writer: Mutex<(TcpStream, Option<Duration>)>,
    /// The send timeout requested via [`Connection::set_send_timeout`],
    /// armed on the socket at the next `send`.
    send_timeout: Mutex<Option<Duration>>,
    /// A handle under no lock, for [`Connection::close`] to shut down.
    control: TcpStream,
}

/// Arms `want` through `set` unless it is the timeout `armed` already holds:
/// a connection sends and receives frame after frame under one timeout, and
/// each `setsockopt` is a syscall.
fn arm_timeout(
    armed: &mut Option<Duration>,
    want: Option<Duration>,
    set: impl FnOnce(Option<Duration>) -> std::io::Result<()>,
) -> Result<(), FrameError> {
    if *armed != want {
        set(want)?;
        *armed = want;
    }
    Ok(())
}

impl TcpConnection {
    fn new(stream: TcpStream) -> Result<Self, FrameError> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::with_capacity(RECV_BUFFER_BYTES, stream.try_clone()?);
        // A fresh socket has no timeouts armed.
        Ok(TcpConnection {
            reader: Mutex::new((reader, FrameAssembler::default(), None)),
            control: stream.try_clone()?,
            writer: Mutex::new((stream, None)),
            send_timeout: Mutex::new(None),
        })
    }

    /// Writes `slices` under the writer lock, with the send timeout armed.
    fn write_locked(&self, slices: &mut [IoSlice<'_>]) -> Result<(), FrameError> {
        let timeout = *lock_unpoisoned(&self.send_timeout);
        let mut guard = lock_unpoisoned(&self.writer);
        let (w, armed) = &mut *guard;
        arm_timeout(armed, timeout, |t| w.set_write_timeout(t))?;
        write_all_or(w, slices)?;
        match w.flush() {
            Ok(()) => Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(FrameError::Timeout)
            }
            Err(e) => Err(e.into()),
        }
    }
}

impl Connection for TcpConnection {
    fn send_parts(&self, kind: u16, parts: &[&[u8]]) -> Result<(), FrameError> {
        let header = frame_header(kind, parts)?;
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(1 + parts.len());
        slices.push(IoSlice::new(&header));
        slices.extend(parts.iter().map(|p| IoSlice::new(p)));
        self.write_locked(&mut slices)
    }

    fn send_batch(&self, batch: &FrameBatch) -> Result<(), FrameError> {
        self.write_locked(&mut [IoSlice::new(batch.as_bytes())])
    }

    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        let mut guard = lock_unpoisoned(&self.reader);
        let (r, assembler, armed) = &mut *guard;
        arm_timeout(armed, timeout, |t| r.get_ref().set_read_timeout(t))?;
        assembler.read_frame(r)
    }

    fn set_send_timeout(&self, timeout: Option<Duration>) {
        *lock_unpoisoned(&self.send_timeout) = timeout;
    }

    /// `shutdown(Both)`: a blocked receive reads end of stream, a blocked
    /// send fails, and the peer reads end of stream.
    fn close(&self) {
        let _ = self.control.shutdown(Shutdown::Both);
    }
}

/// Vectored `write_all` with typed errors: `WouldBlock`/`TimedOut` from an
/// armed send timeout surfaces as [`FrameError::Timeout`], so a stalled
/// peer cannot block a coordinator send past every `FaultPolicy` deadline;
/// a peer that vanished mid-write surfaces as `Closed`/`Io`.
fn write_all_or(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> Result<(), FrameError> {
    // Skip leading empty slices so an all-empty list is not mistaken for a
    // zero-length write.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::Timeout);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Loopback TCP transport (`127.0.0.1`, ephemeral ports).
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTransport;

struct TcpListenerWrap {
    listener: TcpListener,
}

impl Listener for TcpListenerWrap {
    fn endpoint(&self) -> String {
        match self.listener.local_addr() {
            Ok(a) => format!("tcp:{a}"),
            Err(_) => "tcp:?".to_string(),
        }
    }

    /// `None` is one blocking `accept`. `std` sockets have no accept
    /// timeout, so a timed accept polls the listener in non-blocking mode
    /// (restored before returning).
    fn accept_timeout(&self, timeout: Option<Duration>) -> Result<Box<dyn Connection>, FrameError> {
        let Some(timeout) = timeout else {
            return Ok(Box::new(TcpConnection::new(self.listener.accept()?.0)?));
        };
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + timeout;
        let accepted = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break Ok(stream),
                Err(e) if e.kind() != std::io::ErrorKind::WouldBlock => break Err(e.into()),
                Err(_) if Instant::now() >= deadline => break Err(FrameError::Timeout),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        self.listener.set_nonblocking(false)?;
        let stream = accepted?;
        stream.set_nonblocking(false)?;
        Ok(Box::new(TcpConnection::new(stream)?))
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Ok(Box::new(TcpListenerWrap { listener }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let addr = endpoint
            .strip_prefix("tcp:")
            .ok_or_else(|| FrameError::Io(format!("bad tcp endpoint: {endpoint}")))?;
        Ok(Box::new(TcpConnection::new(TcpStream::connect(addr)?)?))
    }

    fn supports_processes(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello frames".to_vec();
        let frame = encode_frame(7, &payload).unwrap();
        let (kind, got, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(got, payload);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let frame = encode_frame(0, &[]).unwrap();
        let (kind, got, consumed) = decode_frame(&frame).unwrap();
        assert_eq!((kind, got.len(), consumed), (0, 0, FRAME_HEADER_BYTES));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[0] ^= 0xFF;
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn foreign_version_is_typed() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[4] = 0xEE;
        frame[5] = 0xEE;
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::UnsupportedVersion { found: 0xEEEE })
        ));
    }

    /// A frame as version 1 of the format wrote it: byte-serial FNV-1a over
    /// kind, length and payload. The checksum changed meaning in version 2,
    /// so the version gate — not a checksum mismatch — must refuse it. A
    /// frame of any version from 2 to the one before the current differs
    /// from a current one only in its version field (what changed is the
    /// messages inside), and is refused all the same.
    #[test]
    fn v1_frame_is_rejected_as_unsupported_version() {
        let payload = b"a version 1 payload";
        let mut check = 0xcbf2_9ce4_8422_2325u64;
        for &b in 7u16
            .to_le_bytes()
            .iter()
            .chain(&(payload.len() as u32).to_le_bytes())
            .chain(payload.iter())
        {
            check = (check ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut frame = FRAME_MAGIC.to_le_bytes().to_vec();
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&7u16.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&check.to_le_bytes());
        frame.extend_from_slice(payload);
        assert_eq!(decode_frame(&frame), Err(FrameError::UnsupportedVersion { found: 1 }));
        // Stamped as the current version it is a checksum mismatch: the
        // folds differ.
        frame[4..6].copy_from_slice(&FRAME_VERSION.to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(FrameError::ChecksumMismatch));

        let mut earlier = encode_frame(7, payload).unwrap();
        assert!(decode_frame(&earlier).is_ok());
        for version in [2u16, 3, 4, 5, 6, 7, 8, 9, 10] {
            earlier[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_frame(&earlier),
                Err(FrameError::UnsupportedVersion { found: version })
            );
        }
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let frame = encode_frame(1, b"abcdef").unwrap();
        assert!(matches!(decode_frame(&frame[..10]), Err(FrameError::Truncated { .. })));
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 2]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(1, b"x").unwrap();
        // Forge a ludicrous length; decode must refuse without trying to
        // allocate or read that much.
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::LengthOverflow { declared }) if declared == u32::MAX as u64
        ));
        assert!(matches!(
            encode_frame(1, &vec![0u8; MAX_FRAME_BYTES as usize + 1]),
            Err(FrameError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let mut frame = encode_frame(1, b"payload bytes").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(decode_frame(&frame), Err(FrameError::ChecksumMismatch));
    }

    fn exercise_transport(t: &dyn Transport) {
        let listener = t.listen().unwrap();
        let endpoint = listener.endpoint();
        let t2 = endpoint.clone();
        let dialer = std::thread::spawn(move || {
            let conn = connect_endpoint(&t2).unwrap();
            conn.send(3, b"ping").unwrap();
            let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!((kind, payload.as_slice()), (4, b"pong".as_slice()));
        });
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!((kind, payload.as_slice()), (3, b"ping".as_slice()));
        conn.send(4, b"pong").unwrap();
        dialer.join().unwrap();
    }

    #[test]
    fn mem_transport_ping_pong() {
        exercise_transport(&MemTransport);
    }

    #[test]
    fn tcp_transport_ping_pong() {
        exercise_transport(&TcpTransport);
    }

    #[test]
    fn recv_timeout_fires() {
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint();
        let _dialer = TcpTransport.connect(&endpoint).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let t0 = Instant::now();
        assert_eq!(
            conn.recv_timeout(Some(Duration::from_millis(30))).unwrap_err(),
            FrameError::Timeout
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    /// The socket's read timeout is set only when the requested one changes,
    /// so a short timeout must be set again after a blocking receive.
    #[test]
    fn read_timeout_is_rearmed_after_a_blocking_receive() {
        let listener = TcpTransport.listen().unwrap();
        let dialer = TcpTransport.connect(&listener.endpoint()).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let short = Some(Duration::from_millis(30));
        assert_eq!(conn.recv_timeout(short).unwrap_err(), FrameError::Timeout);
        // The first frame comes later than the short timeout, which a
        // blocking receive outwaits. The second is sent once the short
        // timeout has fired again, or after two seconds: a receive still
        // blocking would return it instead.
        let (fired_tx, fired_rx) = mpsc::channel::<()>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            dialer.send(1, b"first").unwrap();
            let _ = fired_rx.recv_timeout(Duration::from_secs(2));
            dialer.send(2, b"second").unwrap();
        });
        assert_eq!(conn.recv_timeout(None).unwrap().0, 1);
        assert_eq!(conn.recv_timeout(short).unwrap_err(), FrameError::Timeout);
        let _ = fired_tx.send(());
        assert_eq!(conn.recv_timeout(None).unwrap().0, 2);
        sender.join().unwrap();
    }

    /// A read timeout that fires mid-frame must not lose the bytes already
    /// consumed: the receiver sees `Timeout`, then the intact frame.
    #[test]
    fn timeout_mid_frame_is_resumable() {
        let payload: Vec<u8> = (0..100_003u32).map(|i| (i % 251) as u8).collect();
        let frame = encode_frame(9, &payload).unwrap();
        // Stall once inside the header and once inside the payload.
        for cut in [FRAME_HEADER_BYTES / 2, FRAME_HEADER_BYTES + payload.len() / 2] {
            let listener = TcpTransport.listen().unwrap();
            let addr = listener.endpoint().strip_prefix("tcp:").unwrap().to_string();
            let (stalled_tx, stalled_rx) = mpsc::channel();
            let (resume_tx, resume_rx) = mpsc::channel::<()>();
            let frame2 = frame.clone();
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                s.write_all(&frame2[..cut]).unwrap();
                stalled_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
                s.write_all(&frame2[cut..]).unwrap();
                // A second frame right behind proves the stream stayed in sync.
                s.write_all(&encode_frame(10, b"next").unwrap()).unwrap();
            });
            let conn = listener.accept(Duration::from_secs(5)).unwrap();
            stalled_rx.recv().unwrap();
            for _ in 0..2 {
                assert_eq!(
                    conn.recv_timeout(Some(Duration::from_millis(40))).unwrap_err(),
                    FrameError::Timeout,
                    "cut at {cut}"
                );
            }
            resume_tx.send(()).unwrap();
            let (kind, got) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(kind, 9);
            assert!(got == payload, "payload corrupted after a mid-frame timeout (cut {cut})");
            let (kind, got) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!((kind, got.as_slice()), (10, b"next".as_slice()));
            writer.join().unwrap();
        }
    }

    /// A raw byte stream into a connection the TCP transport accepted: what
    /// a peer writes arrives at the connection in whatever pieces the writes
    /// make.
    fn raw_into() -> (Box<dyn Connection>, TcpStream) {
        let listener = TcpTransport.listen().unwrap();
        let raw = TcpStream::connect(listener.endpoint().strip_prefix("tcp:").unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        (listener.accept(Duration::from_secs(5)).unwrap(), raw)
    }

    fn pattern(len: usize, seed: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + seed) as u8).collect()
    }

    /// Frames written with one `write_all` are taken off the receive buffer
    /// one by one, in order.
    #[test]
    fn back_to_back_frames_in_one_write_arrive_in_order() {
        let (conn, mut raw) = raw_into();
        let frames: Vec<Vec<u8>> = (0..100).map(|i| pattern(i * 13, i)).collect();
        let bytes: Vec<u8> = (0u16..)
            .zip(&frames)
            .flat_map(|(kind, payload)| encode_frame(kind, payload).unwrap())
            .collect();
        let writer = std::thread::spawn(move || raw.write_all(&bytes).unwrap());
        for (kind, payload) in (0u16..).zip(&frames) {
            let got = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!((got.0, &got.1), (kind, payload));
        }
        writer.join().unwrap();
    }

    /// A frame that arrives a byte at a time is assembled from as many
    /// reads, and the frame behind it is read in step.
    #[test]
    fn a_frame_dribbled_a_byte_per_write_arrives_intact() {
        let (conn, mut raw) = raw_into();
        let payload = pattern(301, 7);
        let mut bytes = encode_frame(3, &payload).unwrap();
        bytes.extend(encode_frame(4, b"next").unwrap());
        let writer = std::thread::spawn(move || {
            for b in bytes {
                raw.write_all(&[b]).unwrap();
                raw.flush().unwrap();
            }
        });
        let got = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(got == (3, payload), "dribbled frame corrupted");
        let got = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!((got.0, got.1.as_slice()), (4, b"next".as_slice()));
        writer.join().unwrap();
    }

    /// A payload larger than the receive buffer arrives whole, with the
    /// frames around it.
    #[test]
    fn a_frame_larger_than_the_receive_buffer_arrives_intact() {
        let (conn, mut raw) = raw_into();
        let payload = pattern(3 << 20, 1);
        assert!(payload.len() > RECV_BUFFER_BYTES);
        let mut bytes = encode_frame(1, b"before").unwrap();
        bytes.extend(encode_frame(2, &payload).unwrap());
        bytes.extend(encode_frame(3, b"after").unwrap());
        let writer = std::thread::spawn(move || raw.write_all(&bytes).unwrap());
        let timeout = Some(Duration::from_secs(10));
        assert_eq!(conn.recv_timeout(timeout).unwrap(), (1, b"before".to_vec()));
        let got = conn.recv_timeout(timeout).unwrap();
        assert!(got == (2, payload), "large frame corrupted");
        assert_eq!(conn.recv_timeout(timeout).unwrap(), (3, b"after".to_vec()));
        writer.join().unwrap();
    }

    #[test]
    fn closed_peer_is_typed() {
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint();
        let dialer = TcpTransport.connect(&endpoint).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        drop(dialer);
        assert_eq!(
            conn.recv_timeout(Some(Duration::from_secs(1))).unwrap_err(),
            FrameError::Closed
        );
    }

    #[test]
    fn garbage_stream_never_panics() {
        // A peer that writes raw garbage (not frames) must produce a typed
        // error on the reading side.
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint().strip_prefix("tcp:").unwrap().to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(endpoint).unwrap();
            s.write_all(b"this is definitely not a frame header at all....").unwrap();
        });
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let err = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap_err();
        assert!(
            matches!(err, FrameError::BadMagic { .. } | FrameError::Truncated { .. }),
            "unexpected error: {err:?}"
        );
        writer.join().unwrap();
    }

    #[test]
    fn connect_with_retry_eventually_fails_typed() {
        match retry_connect(&TcpTransport, "tcp:127.0.0.1:1", 2, Duration::from_millis(1)) {
            Err(FrameError::Io(_)) => {}
            Err(e) => panic!("expected Io error, got {e:?}"),
            Ok(_) => panic!("connect to a closed port unexpectedly succeeded"),
        }
    }

    /// An endpoint of a scheme no transport serves is refused before any
    /// attempt is made, so it never waits out the retry schedule.
    #[test]
    fn an_unknown_endpoint_scheme_is_refused_at_once() {
        let t0 = Instant::now();
        match connect_endpoint("unix:/x") {
            Err(FrameError::Io(e)) => assert!(e.contains("unknown endpoint scheme"), "{e}"),
            Err(e) => panic!("expected an unknown-scheme error, got {e:?}"),
            Ok(_) => panic!("an endpoint of an unknown scheme was connected"),
        }
        assert!(t0.elapsed() < CONNECT_BACKOFF, "refused after {:?}", t0.elapsed());
    }

    #[test]
    fn retry_skips_backoff_after_final_attempt() {
        // Two attempts => exactly one inter-attempt sleep (150 ms), and none
        // after the second refusal (which would make 450 ms).
        let t0 = Instant::now();
        let r = retry_connect(&TcpTransport, "tcp:127.0.0.1:1", 2, Duration::from_millis(150));
        assert!(r.is_err());
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(140), "one backoff expected, got {elapsed:?}");
        assert!(elapsed < Duration::from_millis(400), "trailing backoff not skipped: {elapsed:?}");

        // A single attempt must never sleep at all, whatever the backoff.
        let t0 = Instant::now();
        let r = retry_connect(&TcpTransport, "tcp:127.0.0.1:1", 1, Duration::from_secs(3600));
        assert!(r.is_err());
        assert!(t0.elapsed() < Duration::from_secs(2), "attempts=1 slept on its huge backoff");
    }

    #[test]
    fn retry_delay_saturates_instead_of_panicking() {
        assert_eq!(retry_delay(Duration::from_secs(1), 3), Duration::from_secs(4));
        // `Duration::MAX * 2` panics through `Mul<u32>`; the helper clamps.
        assert_eq!(retry_delay(Duration::MAX, 1), Duration::MAX);
        assert_eq!(retry_delay(Duration::MAX, u32::MAX), Duration::MAX);
        assert_eq!(retry_delay(Duration::from_secs(u64::MAX / 2), u32::MAX), Duration::MAX);
    }

    #[test]
    fn send_timeout_on_unread_socket_is_typed() {
        // The accepting side never reads, so loopback socket buffers fill up
        // and `send` stalls. With a send timeout armed the stall surfaces as
        // FrameError::Timeout instead of blocking forever.
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint();
        let conn = TcpTransport.connect(&endpoint).unwrap();
        let _peer = listener.accept(Duration::from_secs(5)).unwrap();
        conn.set_send_timeout(Some(Duration::from_millis(200)));
        let payload = vec![0xA5u8; 1 << 20];
        let mut saw_timeout = false;
        for _ in 0..64 {
            match conn.send(9, &payload) {
                Ok(()) => continue,
                Err(FrameError::Timeout) => {
                    saw_timeout = true;
                    break;
                }
                Err(e) => panic!("expected Timeout, got {e:?}"),
            }
        }
        assert!(saw_timeout, "64 MiB into an unread socket without a send timeout firing");
        // Disarming restores the (non-blocking here) small-send path.
        conn.set_send_timeout(None);
    }

    /// A send that times out part way through a frame leaves that frame's
    /// head on the stream, and the peer reads whatever is sent next as the
    /// rest of it: sent again, the frame reaches the peer as a typed error,
    /// never as a frame. This is why the coordinator does not retry a
    /// failed Start but takes it for the worker's death.
    #[test]
    fn a_send_timed_out_mid_frame_leaves_the_stream_unusable() {
        let listener = TcpTransport.listen().unwrap();
        let conn = TcpTransport.connect(&listener.endpoint()).unwrap();
        let peer = listener.accept(Duration::from_secs(5)).unwrap();
        conn.set_send_timeout(Some(Duration::from_millis(200)));
        // Far more than an unread loopback socket takes in: the first write
        // puts part of the frame on the stream, and the rest stalls.
        let payload = pattern(16 << 20, 5);
        assert_eq!(conn.send(9, &payload).unwrap_err(), FrameError::Timeout);
        let reader = std::thread::spawn(move || peer.recv_timeout(Some(Duration::from_secs(10))));
        // The retry: it completes the cut frame's length with its own head
        // and bytes. Once the peer stops reading its tail may time out too.
        conn.send(9, &payload).ok();
        conn.close();
        let got = reader.join().unwrap();
        assert!(
            matches!(got, Err(FrameError::ChecksumMismatch | FrameError::Truncated { .. })),
            "after a send timed out mid-frame the peer read {:?}",
            got.map(|(kind, payload)| (kind, payload.len()))
        );
    }

    /// `close` wakes a receive blocked on the connection, and the peer reads
    /// the end of the connection, on both transports.
    #[test]
    fn close_ends_a_blocked_receive_here_and_at_the_peer() {
        for t in [&MemTransport as &dyn Transport, &TcpTransport] {
            let listener = t.listen().unwrap();
            let dialer = t.connect(&listener.endpoint()).unwrap();
            let conn: Arc<dyn Connection> = Arc::from(listener.accept_timeout(None).unwrap());
            let blocked = Arc::clone(&conn);
            let receiver = std::thread::spawn(move || blocked.recv_timeout(None));
            std::thread::sleep(Duration::from_millis(50));
            conn.close();
            assert!(receiver.join().unwrap().is_err(), "{}: the receive outlived close", t.name());
            let peer = dialer.recv_timeout(Some(Duration::from_secs(5)));
            assert_eq!(peer.unwrap_err(), FrameError::Closed, "{}", t.name());
            assert!(conn.send(1, b"after").is_err(), "{}: a send after close went out", t.name());
        }
    }

    /// A TCP send stalled on a peer that stopped reading fails once the
    /// connection is closed, with no send timeout armed.
    #[test]
    fn close_fails_a_send_stalled_on_a_full_socket() {
        let listener = TcpTransport.listen().unwrap();
        let conn: Arc<dyn Connection> =
            Arc::from(TcpTransport.connect(&listener.endpoint()).unwrap());
        let _unread = listener.accept_timeout(None).unwrap();
        let stalled = Arc::clone(&conn);
        let sender = std::thread::spawn(move || {
            let payload = vec![0xA5u8; 1 << 20];
            (0..64).try_for_each(|_| stalled.send(9, &payload))
        });
        std::thread::sleep(Duration::from_millis(200));
        conn.close();
        assert!(sender.join().unwrap().is_err(), "64 MiB went into an unread socket");
    }

    /// A dialed in-memory connection the listener never accepted reads its
    /// end once the listener is gone.
    #[test]
    fn a_mem_dial_never_accepted_sees_the_hang_up() {
        let listener = MemTransport.listen().unwrap();
        let dialer = MemTransport.connect(&listener.endpoint()).unwrap();
        drop(listener);
        assert_eq!(dialer.recv_timeout(Some(Duration::from_secs(5))).unwrap_err(), FrameError::Closed);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any (kind, payload) round-trips through the frame codec.
            #[test]
            fn random_frames_roundtrip(
                kind in 0u16..u16::MAX,
                payload in prop::collection::vec(0u64..256u64, 0..512),
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let frame = encode_frame(kind, &payload).unwrap();
                let (k, p, consumed) = decode_frame(&frame).unwrap();
                prop_assert_eq!(k, kind);
                prop_assert_eq!(p, payload);
                prop_assert_eq!(consumed, frame.len());
            }

            /// Flipping any byte of an encoded frame yields a typed error —
            /// never a panic and never a silently different frame. (The
            /// checksum covers kind, length and payload; magic and version
            /// have their own typed rejections. Payload lengths run through
            /// every residue mod 8, so the zero-padded tail word is covered:
            /// each xor-multiply step of the word fold is a bijection, so a
            /// changed word always changes the digest.)
            #[test]
            fn any_single_byte_corruption_is_detected(
                kind in 0u16..u16::MAX,
                payload in prop::collection::vec(0u64..256, 0..256),
                pos_seed in 0u64..10_000,
                flip in 1u64..256,
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let mut frame = encode_frame(kind, &payload).unwrap();
                let pos = (pos_seed as usize) % frame.len();
                frame[pos] ^= flip as u8;
                prop_assert!(decode_frame(&frame).is_err(), "corruption at byte {} went undetected", pos);
            }

            /// A payload sent as a list of parts arrives, on every
            /// transport, as the frame a single-buffer send produces —
            /// wherever the cuts fall (word-aligned or not).
            #[test]
            fn part_list_send_equals_single_buffer_send(
                payload in prop::collection::vec(0u64..256, 0..300),
                cuts in prop::collection::vec(0u64..300, 0..5),
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let mut cuts: Vec<usize> =
                    cuts.iter().map(|&c| c as usize % (payload.len() + 1)).collect();
                cuts.sort_unstable();
                let mut parts: Vec<&[u8]> = Vec::new();
                let mut from = 0;
                for cut in cuts {
                    parts.push(&payload[from..cut]);
                    from = cut;
                }
                parts.push(&payload[from..]);
                prop_assert_eq!(encode_parts(5, &parts).unwrap(), encode_frame(5, &payload).unwrap());
                for t in [&MemTransport as &dyn Transport, &TcpTransport] {
                    let listener = t.listen().unwrap();
                    let dialer = t.connect(&listener.endpoint()).unwrap();
                    let conn = listener.accept(Duration::from_secs(5)).unwrap();
                    dialer.send_parts(5, &parts).unwrap();
                    dialer.send(5, &payload).unwrap();
                    for _ in 0..2 {
                        let (kind, got) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
                        prop_assert_eq!(kind, 5, "{}", t.name());
                        prop_assert_eq!(&got, &payload, "{}", t.name());
                    }
                }
            }

            /// A batch is its frames encoded one by one, back to back, and
            /// sending it delivers, on every transport, what one send per
            /// frame delivers — whatever the kinds, with payloads of any
            /// length, empty and not word-aligned ones included.
            #[test]
            fn a_batch_is_its_frames_sent_one_by_one(
                frames in prop::collection::vec((0u16..u16::MAX, 0usize..40, 0usize..3), 0..12),
            ) {
                let frames: Vec<(u16, Vec<u8>, Vec<u64>)> = frames
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, len, words))| {
                        (kind, pattern(len, i), (0..words as u64).map(|w| w << 40 | i as u64).collect())
                    })
                    .collect();
                let mut batch = FrameBatch::default();
                let mut expect = Vec::new();
                let mut sent = Vec::new();
                for (kind, bytes, words) in &frames {
                    batch.push(*kind, |p| {
                        p.bytes(bytes);
                        p.words(words);
                    }).unwrap();
                    let mut payload = bytes.clone();
                    extend_words(&mut payload, words);
                    expect.extend(encode_frame(*kind, &payload).unwrap());
                    sent.push((*kind, payload));
                }
                prop_assert_eq!(batch.as_bytes(), expect.as_slice());
                for t in [&MemTransport as &dyn Transport, &TcpTransport] {
                    let listener = t.listen().unwrap();
                    let dialer = t.connect(&listener.endpoint()).unwrap();
                    let conn = listener.accept(Duration::from_secs(5)).unwrap();
                    dialer.send_batch(&batch).unwrap();
                    for (kind, payload) in &sent {
                        dialer.send(*kind, payload).unwrap();
                    }
                    for frame in sent.iter().chain(&sent) {
                        let got = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
                        prop_assert_eq!(&got, frame, "{}", t.name());
                    }
                }
            }

            /// Any prefix truncation of a valid frame is a typed error.
            #[test]
            fn any_truncation_is_detected(
                kind in 0u16..u16::MAX,
                payload in prop::collection::vec(0u64..256, 1..256),
                cut_seed in 0u64..10_000,
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let frame = encode_frame(kind, &payload).unwrap();
                let cut = (cut_seed as usize) % frame.len();
                prop_assert!(matches!(decode_frame(&frame[..cut]), Err(FrameError::Truncated { .. })));
            }
        }
    }
}
