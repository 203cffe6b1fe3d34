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

mod admission;
mod protocol;
mod server;

pub use admission::{AdmissionController, AdmissionPermit};
pub use protocol::{
    error_code, frame_kind, GraphInfo, PartitionerKind, RunEvent, RunOptions, RunOutcome, RunSummary, ServiceClient,
    ServiceError, ServiceStats,
};
pub use server::{EulerService, ServiceConfig, MAX_CONNECTIONS};

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

#[cfg(test)]
mod tests {
    use super::protocol::{append_chunk, decode_event, decode_run, encode_circuit, encode_run};
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
        assert!(matches!(decode_event(frame_kind::DONE, &[1, 2, 3]), Err(ServiceError::Protocol(_))));
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
            &[1, 4, 0], // no `from₀`
        ] {
            assert!(matches!(chunk(words), Err(ServiceError::Protocol(_))), "{words:?} decoded");
        }
    }

    #[test]
    fn strings_roundtrip_and_reject_truncation() {
        // The protocol's strings are ERROR messages and REGISTER paths.
        let mut words = WordWriter::from_words(&[error_code::RUN_FAILED]);
        words.str("graphs/torus.ecsr is not Eulerian");
        let Err(ServiceError::Remote { code, message }) = decode_event(frame_kind::ERROR, words.as_bytes()) else {
            panic!("an ERROR frame decodes to a remote error");
        };
        assert_eq!((code, message.as_str()), (error_code::RUN_FAILED, "graphs/torus.ecsr is not Eulerian"));
        // Declared length beyond the payload degrades to a placeholder.
        let truncated = WordWriter::from_words(&[error_code::RUN_FAILED, 100, 0x6162_6364]);
        let Err(ServiceError::Remote { message, .. }) = decode_event(frame_kind::ERROR, truncated.as_bytes()) else {
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
        let listener = FailsFirst { inner: MemTransport.listen().unwrap(), accepts: AtomicU64::new(0) };
        let service = EulerService::serve(Box::new(listener), ServiceConfig::default()).unwrap();
        let client = ServiceClient::connect(service.endpoint()).unwrap().with_recv_timeout(Duration::from_secs(10));
        assert_eq!(client.stats().unwrap().runs_executed, 0, "the connection after the failure is served");
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
