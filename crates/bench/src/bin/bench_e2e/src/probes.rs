//! Probes: layers timed on their own through their public functions, once
//! the repetitions are done. They explain a share of `circuit_s`; they are
//! not part of it.

use crate::batch::{BatchSpec, LayerValues};
use crate::stats::median;
use euler_bsp::{FrameError, MemTransport, TcpTransport, Transport};
use euler_graph::{CsrFileEdgeStream, MmapCsrSource};
use euler_partition::{LdgPartitioner, StreamingPartitioner};
use std::time::{Duration, Instant};

const PROBE_REPS: usize = 3;

/// `partition.stream_s` (one streaming-LDG pass over the mapped file),
/// `graph.slice_s` (`CsrFile::partitioned`), and the cut and balance of the
/// assignment the workload runs with.
pub fn graph_and_partition(spec: &BatchSpec) -> Result<LayerValues, String> {
    let source = MmapCsrSource::open(&spec.ecsr).map_err(|e| e.to_string())?;
    let csr = source.csr_file();
    let partitioner = LdgPartitioner::new(spec.partitions());
    let (mut stream_s, mut slice_s) = (Vec::new(), Vec::new());
    let (mut cut_frac, mut balance) = (0.0, 0.0);
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let assignment = partitioner
            .partition_stream(&mut CsrFileEdgeStream::new(csr))
            .map_err(|e| e.to_string())?;
        stream_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let pg = csr.partitioned(&assignment).map_err(|e| e.to_string())?;
        slice_s.push(t.elapsed().as_secs_f64());
        cut_frac = pg.cut_fraction();
        balance = assignment.imbalance();
    }
    Ok(vec![
        ("partition.stream_s", median(&stream_s)),
        ("graph.slice_s", median(&slice_s)),
        ("partition.cut_frac", cut_frac),
        ("partition.balance", balance),
    ])
}

const BULK: u16 = 1;
const PING: u16 = 2;
const LAST: u16 = 3;
const BULK_FRAMES: usize = 64;
const BULK_BYTES: usize = 1 << 20;
const PINGS: usize = 2000;
const PROBE_TIMEOUT: Option<Duration> = Some(Duration::from_secs(10));

/// One-way throughput of 1 MiB frames (MB/s, checksum included) and the
/// median round trip of a 64-byte frame (µs) between two threads of this
/// process, through the public `Transport` / `Connection` API.
fn frame_probe(transport: &dyn Transport) -> Result<(f64, f64), FrameError> {
    let listener = transport.listen()?;
    let endpoint = listener.endpoint();
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), FrameError> {
            let conn = listener.accept(Duration::from_secs(10))?;
            loop {
                let (kind, payload) = conn.recv_timeout(PROBE_TIMEOUT)?;
                match kind {
                    BULK => {}
                    LAST => return conn.send(LAST, &[]),
                    _ => conn.send(kind, &payload)?,
                }
            }
        });
        let client = || -> Result<(f64, f64), FrameError> {
            let conn = transport.connect(&endpoint)?;
            let bulk = vec![0xA5u8; BULK_BYTES];
            let mut rtts = Vec::with_capacity(PINGS);
            for _ in 0..PINGS {
                let t = Instant::now();
                conn.send(PING, &bulk[..64])?;
                conn.recv_timeout(PROBE_TIMEOUT)?;
                rtts.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let t = Instant::now();
            for _ in 0..BULK_FRAMES {
                conn.send(BULK, &bulk)?;
            }
            conn.send(LAST, &[])?;
            conn.recv_timeout(PROBE_TIMEOUT)?;
            let mb_per_s = (BULK_FRAMES * BULK_BYTES) as f64 / 1e6 / t.elapsed().as_secs_f64();
            Ok((mb_per_s, median(&rtts)))
        };
        let measured = client();
        // A failed client drops its connection, which ends the echo loop.
        let echoed = echo.join().unwrap_or(Err(FrameError::Closed));
        measured.and_then(|m| echoed.map(|()| m))
    })
}

/// `transport.*`: what the frame layer can carry on this host, to set
/// against what `rmat_bsp` and the serve workloads get out of it.
pub fn transport() -> Result<LayerValues, String> {
    let (tcp_mb, tcp_rtt) = frame_probe(&TcpTransport).map_err(|e| format!("tcp probe: {e}"))?;
    let (mem_mb, _) = frame_probe(&MemTransport).map_err(|e| format!("mem probe: {e}"))?;
    Ok(vec![
        ("transport.tcp_frame_mb_per_s", tcp_mb),
        ("transport.tcp_rtt_us", tcp_rtt),
        ("transport.mem_frame_mb_per_s", mem_mb),
    ])
}
