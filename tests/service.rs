//! Integration tests for the service layer (`euler_core::service`): a
//! long-lived TCP server running many circuit requests concurrently under
//! one global memory budget.
//!
//! What must hold:
//!
//! * circuits streamed to concurrent TCP clients are bit-identical to the
//!   library path (`EulerPipeline::run` with the same configuration);
//! * a repeated request is a cache hit — the executed-run counter does not
//!   move and the bytes are the same;
//! * cancelling an admitted run frees its budget for a queued run, and the
//!   admission high-water mark never exceeds the cap (also property-tested
//!   over random request mixes);
//! * a fresh run reserves the level-0 state its scan counts plus the
//!   fragment share — the fragment budget, or what the run's records can
//!   take when that is less: never less than it measures, exactly what it
//!   measures under Duplicated, at most twice it on small graphs, and the
//!   same whatever the server ran before;
//! * malformed input — unknown frame kinds, truncated payloads, raw
//!   garbage bytes on the socket — yields typed errors, keeps the
//!   connection (or at worst the server) alive, and never panics — as does
//!   a partition count the graph cannot hold;
//! * a cache hit sends the fresh run's `CHUNK` payloads byte for byte, and a
//!   client refuses chunks out of stream order;
//! * every CANCEL gets exactly one CANCELLED, and a client that hangs up —
//!   mid-run or while queued — or a service shutdown ends the run without
//!   executing it, holding no budget and hanging no stream; one that hangs
//!   up mid-stream leaves its serving thread serving, and one that stops
//!   reading does not hold up shutdown;
//! * `workers` counts runs, not connections: idle clients hold no compute
//!   slot and do not delay shutdown, a run waiting for a slot is cancelled
//!   at once, and the connection past `MAX_CONNECTIONS` is refused with a
//!   typed `BUSY`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use euler_circuit::algo::service::{error_code, frame_kind, MAX_CONNECTIONS};
use euler_circuit::bsp::transport::Connection;
use euler_circuit::bsp::FrameError;
use euler_circuit::prelude::*;
use proptest::prelude::*;

/// A connected Eulerian graph from a seed.
fn graph_from(seed: u64, n: u64, extra: usize) -> Graph {
    synthetic::random_eulerian_connected(n.max(4), extra, 5, seed)
}

/// Two connected Eulerian graphs side by side: an input with two circuits.
fn two_components(seed: u64) -> Graph {
    let (a, b) = (graph_from(seed, 40, 6), graph_from(seed + 1, 25, 4));
    let mut g = GraphBuilder::with_vertices(a.num_vertices() + b.num_vertices());
    for (part, offset) in [(&a, 0), (&b, a.num_vertices())] {
        g.extend_edges(part.edges().map(|(_, u, v)| (u.0 + offset, v.0 + offset)));
    }
    g.build().unwrap()
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Writes `g` to a fresh `.ecsr` under the system temp dir (no tempfile
/// crate in the build environment); pid + sequence keying keeps parallel
/// test binaries and reruns from colliding.
fn ecsr_path(g: &Graph, tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "euler-service-{}-{}-{}.ecsr",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    write_csr_file(g, &path).unwrap();
    path
}

fn bind(cap: u64, workers: usize) -> EulerService {
    EulerService::bind(ServiceConfig { memory_cap_longs: cap, workers, ..ServiceConfig::default() }).unwrap()
}

/// The fragment share a run of `g` under `opts` reserves, stated apart from
/// the service: what its records can take, `4 · (m + ⌈log2 P⌉ · min(c,
/// ⌊n / 2⌋))` Longs for `c` cut edges, when that is less than the budget.
fn fragment_share(g: &Graph, opts: RunOptions) -> u64 {
    let assignment = match opts.partitioner {
        PartitionerKind::Hash => HashPartitioner::new(opts.partitions).partition(g),
        PartitionerKind::Ldg => LdgPartitioner::new(opts.partitions).partition(g),
    };
    let cut = PartitionedGraph::from_assignment(g, &assignment).unwrap().cut_edges();
    let height = u64::from(opts.partitions.next_power_of_two().trailing_zeros());
    let records = 4 * (g.num_edges() + height * cut.min(g.num_vertices() / 2));
    records.min(ServiceConfig::default().fragment_budget_longs)
}

/// The library path the service must match bit for bit.
fn reference(path: &std::path::Path, opts: RunOptions) -> CircuitResult {
    let builder = EulerPipeline::builder().source(MmapCsrSource::open(path).unwrap()).config(EulerConfig {
        merge_strategy: opts.strategy,
        fragment_memory_budget: Some(ServiceConfig::default().fragment_budget_longs),
        ..EulerConfig::default()
    });
    let builder = match opts.partitioner {
        PartitionerKind::Hash => builder.partitioner(HashPartitioner::new(opts.partitions)),
        PartitionerKind::Ldg => builder.partitioner(LdgPartitioner::new(opts.partitions)),
    };
    builder.build().unwrap().run().unwrap().circuit.result
}

#[test]
fn concurrent_clients_stream_circuits_bit_identical_to_the_library_path() {
    let g = graph_from(42, 120, 24);
    let path = ecsr_path(&g, "concurrent");
    let service = bind(1 << 22, 4);
    let endpoint = service.endpoint().to_string();

    let admin = ServiceClient::connect(&endpoint).unwrap();
    let info = admin.register(path.to_str().unwrap()).unwrap();
    assert_eq!(info.num_edges, g.num_edges());
    assert_eq!(info.num_vertices, g.num_vertices());

    let variants = [
        RunOptions { partitions: 2, strategy: MergeStrategy::Duplicated, partitioner: PartitionerKind::Hash },
        RunOptions { partitions: 4, strategy: MergeStrategy::Deduplicated, partitioner: PartitionerKind::Ldg },
        RunOptions { partitions: 3, strategy: MergeStrategy::Deferred, partitioner: PartitionerKind::Hash },
    ];
    let outcomes: Vec<RunOutcome> = thread::scope(|s| {
        let handles: Vec<_> = variants
            .iter()
            .map(|&opts| {
                let endpoint = endpoint.clone();
                s.spawn(move || {
                    let client = ServiceClient::connect(&endpoint).unwrap();
                    client.run(info.checksum, opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (opts, outcome) in variants.iter().zip(&outcomes) {
        assert!(!outcome.cached && !outcome.cancelled);
        assert!(outcome.admitted_longs > 0, "fresh runs hold real budget");
        let expect = reference(&path, *opts);
        assert_eq!(outcome.circuits, expect.circuits, "service vs library for {opts:?}");
        let summary = outcome.summary.expect("fresh runs carry a summary");
        assert!(summary.measured_longs > 0);
        assert_eq!(summary.estimated_longs, outcome.admitted_longs);
    }

    let stats = service.stats();
    assert_eq!(stats.runs_executed, 3);
    assert_eq!(stats.runs_cached, 0);
    assert_eq!(stats.admitted_longs, 0, "all budget returned");
    assert!(stats.peak_admitted_longs <= stats.memory_cap_longs);
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_requests_hit_the_cache_without_recomputing() {
    let g = graph_from(7, 80, 12);
    let path = ecsr_path(&g, "cache");
    let service = bind(1 << 22, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap();
    let info = client.register(path.to_str().unwrap()).unwrap();

    let opts = RunOptions { partitions: 2, ..RunOptions::default() };
    let fresh = client.run(info.checksum, opts).unwrap();
    assert!(!fresh.cached);

    let before = client.stats().unwrap();
    let repeat = client.run(info.checksum, opts).unwrap();
    let after = client.stats().unwrap();
    assert!(repeat.cached);
    assert_eq!(repeat.admitted_longs, 0, "cache hits hold no budget");
    assert!(repeat.summary.is_none(), "no fresh accounting for a cached result");
    assert_eq!(repeat.circuits, fresh.circuits, "cached bytes are the computed bytes");
    assert_eq!(fresh.circuits, reference(&path, opts).circuits, "and the library's, by default");
    assert_eq!(after.runs_executed, before.runs_executed, "no pipeline re-run");
    assert_eq!(after.runs_cached, before.runs_cached + 1);

    // Different options on the same graph are a different cache key.
    let other = client.run(info.checksum, RunOptions { partitions: 3, ..RunOptions::default() }).unwrap();
    assert!(!other.cached);
    assert_eq!(service.stats().runs_executed, 2);
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Every strategy on a power-law graph and a torus: the reservation is at
/// least the measured peak, and under Duplicated the partition-state share
/// of both is the same number — level 0's, which bounds every later level.
/// The R-MAT run's records could outgrow the fragment budget, so it reserves
/// the budget; the torus's cannot, so it reserves what they can take.
#[test]
fn a_fresh_run_reserves_what_its_level0_scan_counts() {
    let rmat = eulerize(&RmatGenerator::new(12).with_avg_degree(8.0).with_seed(1).generate()).0;
    let torus = synthetic::torus_grid(64, 64);
    let budget = ServiceConfig::default().fragment_budget_longs;
    let service = bind(1 << 22, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap();
    for (tag, g, partitions) in [("rmat", &rmat, 8), ("torus", &torus, 4)] {
        let path = ecsr_path(g, tag);
        let info = client.register(path.to_str().unwrap()).unwrap();
        for strategy in MergeStrategy::all() {
            let opts = RunOptions { partitions, strategy, partitioner: PartitionerKind::Ldg };
            let share = fragment_share(g, opts);
            assert_eq!(share == budget, tag == "rmat", "{tag}: fragment share {share}");
            let outcome = client.run(info.checksum, opts).unwrap();
            let summary = outcome.summary.expect("fresh runs carry a summary");
            let (reserved, measured) = (summary.estimated_longs, summary.measured_longs);
            assert!(reserved >= measured, "{tag} {strategy:?}: reserved {reserved} < measured {measured}");
            if strategy == MergeStrategy::Duplicated {
                assert_eq!(
                    reserved - share,
                    measured - summary.peak_resident_longs,
                    "{tag}: the Duplicated bound is level 0's state, exactly"
                );
            }
            if (tag, strategy) == ("rmat", MergeStrategy::Duplicated) {
                // 4,096 vertices + 3 · 6,732 local edges + 8 · 10,404 cut edges.
                assert_eq!(reserved - share, 107_524);
            }
        }
        std::fs::remove_file(&path).ok();
    }
    service.shutdown();
}

/// On graphs shaped like the `serve_small` benchmark's — 1,000 vertices,
/// 2,200 edges — the fragment budget (65,536 Longs) would dwarf what the
/// run holds; the share the records can take keeps every reservation within
/// twice the measured peak, over the benchmark's partition counts,
/// strategies and both partitioners.
#[test]
fn a_small_runs_reservation_is_within_twice_what_it_measures() {
    let service = bind(1 << 24, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap();
    let mut worst = 0.0f64;
    for seed in [1, 2] {
        let g = synthetic::random_eulerian_connected(1_000, 200, 6, seed);
        let path = ecsr_path(&g, "small");
        let info = client.register(path.to_str().unwrap()).unwrap();
        for partitions in 2..=8 {
            for strategy in MergeStrategy::all() {
                for partitioner in [PartitionerKind::Hash, PartitionerKind::Ldg] {
                    let opts = RunOptions { partitions, strategy, partitioner };
                    let summary = client.run(info.checksum, opts).unwrap().summary.unwrap();
                    let (estimated, measured) = (summary.estimated_longs, summary.measured_longs);
                    assert!(measured <= estimated, "{opts:?}: {measured} over {estimated}");
                    assert!(estimated <= 2 * measured, "{opts:?}: {estimated} over twice {measured}");
                    worst = worst.max(estimated as f64 / measured as f64);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
    eprintln!("largest estimate over measured: {worst:.3}");
    service.shutdown();
}

/// A reservation is a function of the graph and the options: a server that
/// served another graph first admits the same run with the same Longs as a
/// fresh one.
#[test]
fn admission_does_not_depend_on_the_runs_before() {
    let (first, g) = (graph_from(5, 300, 60), graph_from(6, 200, 40));
    let (first_path, path) = (ecsr_path(&first, "before"), ecsr_path(&g, "after"));
    let opts = RunOptions { partitions: 4, ..RunOptions::default() };
    let admitted = |warm_up: bool| {
        let service = bind(1 << 22, 2);
        let client = ServiceClient::connect(service.endpoint()).unwrap();
        if warm_up {
            let info = client.register(first_path.to_str().unwrap()).unwrap();
            assert!(!client.run(info.checksum, opts).unwrap().cached);
        }
        let info = client.register(path.to_str().unwrap()).unwrap();
        let outcome = client.run(info.checksum, opts).unwrap();
        assert!(!outcome.cached);
        service.shutdown();
        outcome.admitted_longs
    };
    assert_eq!(admitted(true), admitted(false));
    std::fs::remove_file(&first_path).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn small_chunks_and_disconnected_graphs_stream_the_library_circuits() {
    let graphs = [graph_from(21, 90, 10), two_components(33)];
    let variants = [
        RunOptions { partitions: 3, ..RunOptions::default() },
        RunOptions { partitions: 2, strategy: MergeStrategy::Deferred, partitioner: PartitionerKind::Ldg },
    ];
    for chunk_steps in [1, 7] {
        let service = EulerService::bind(ServiceConfig { chunk_steps, ..ServiceConfig::default() }).unwrap();
        let client = ServiceClient::connect(service.endpoint()).unwrap();
        for (g, circuits) in graphs.iter().zip([1, 2]) {
            let path = ecsr_path(g, "chunks");
            let info = client.register(path.to_str().unwrap()).unwrap();
            for opts in variants {
                let expect = reference(&path, opts);
                assert_eq!(expect.circuits.len(), circuits);
                let fresh = client.run(info.checksum, opts).unwrap();
                let hit = client.run(info.checksum, opts).unwrap();
                assert!(!fresh.cached && hit.cached);
                assert_eq!(fresh.circuits, expect.circuits, "{chunk_steps}-step chunks, {opts:?}");
                assert_eq!(hit.circuits, expect.circuits, "{chunk_steps}-step chunks, {opts:?}");
            }
            std::fs::remove_file(&path).ok();
        }
        service.shutdown();
    }
}

/// Sends a RUN on a raw connection and collects the reply: whether it came
/// from the cache, and every `CHUNK` payload as received.
fn raw_run(conn: &dyn Connection, checksum: u64) -> (bool, Vec<Vec<u8>>) {
    conn.send(frame_kind::RUN, &words_to_bytes(&[checksum, 2, 0, 0])).unwrap();
    let (mut cached, mut chunks) = (false, Vec::new());
    loop {
        let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(30))).unwrap();
        match kind {
            frame_kind::ACCEPTED => cached = payload[8..16] == 1u64.to_le_bytes(),
            frame_kind::CHUNK => chunks.push(payload),
            frame_kind::DONE => return (cached, chunks),
            frame_kind::PROGRESS | frame_kind::REPORT => {}
            other => panic!("unexpected frame kind {other:#x}"),
        }
    }
}

#[test]
fn a_cache_hit_sends_the_fresh_runs_chunk_payloads_byte_for_byte() {
    let g = graph_from(5, 300, 30);
    let m = g.num_edges() as usize;
    let path = ecsr_path(&g, "bytes");
    let service = EulerService::bind(ServiceConfig { chunk_steps: 7, ..ServiceConfig::default() }).unwrap();
    let endpoint = service.endpoint().to_string();
    let info = ServiceClient::connect(&endpoint).unwrap().register(path.to_str().unwrap()).unwrap();

    let conn = euler_circuit::bsp::connect_endpoint(&endpoint).unwrap();
    let (fresh_cached, fresh) = raw_run(conn.as_ref(), info.checksum);
    let (hit_cached, hit) = raw_run(conn.as_ref(), info.checksum);
    assert!(!fresh_cached && hit_cached);
    assert!(hit == fresh, "a cache hit's CHUNK payloads differ from the fresh run's");
    // One circuit of m steps in c = ⌈m / 7⌉ chunks: 8 · (4c + 2m) bytes.
    assert_eq!(fresh.len(), m.div_ceil(7));
    let bytes: usize = fresh.iter().map(Vec::len).sum();
    assert_eq!(bytes, 8 * (4 * fresh.len() + 2 * m));
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A fake server on `TcpTransport` that answers one RUN with the crafted
/// `CHUNK` payloads given, then `DONE`; returns what the client made of it.
fn run_against(chunks: &[&[u64]]) -> Result<RunOutcome, ServiceError> {
    let listener = TcpTransport.listen().unwrap();
    let client = ServiceClient::connect(&listener.endpoint()).unwrap();
    let conn = listener.accept(Duration::from_secs(5)).unwrap();
    let frames: Vec<Vec<u8>> = chunks.iter().map(|words| words_to_bytes(words)).collect();
    let server = thread::spawn(move || {
        let (kind, _) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(kind, frame_kind::RUN);
        conn.send(frame_kind::ACCEPTED, &words_to_bytes(&[0, 1])).unwrap();
        // The client stops reading at the first chunk it refuses.
        for frame in &frames {
            let _ = conn.send(frame_kind::CHUNK, frame);
        }
        let _ = conn.send(frame_kind::DONE, &words_to_bytes(&[0, 0]));
    });
    let outcome = client.run(1, RunOptions::default());
    server.join().unwrap();
    outcome
}

#[test]
fn a_client_refuses_chunks_out_of_stream_order() {
    let step = |edge, from, to| CircuitStep { edge: EdgeId(edge), from: VertexId(from), to: VertexId(to) };
    let ok = run_against(&[&[0, 0, 2, 5, 10, 6, 11, 5], &[0, 2, 1, 5, 12, 5], &[1, 0, 1, 7, 13, 7]]).unwrap();
    assert_eq!(ok.circuits, vec![vec![step(10, 5, 6), step(11, 6, 5), step(12, 5, 5)], vec![step(13, 7, 7)]]);
    for (case, chunks) in [
        ("index 2^40 first", &[&[1u64 << 40, 0, 1, 5, 10, 5][..]][..]),
        ("index jump", &[&[0, 0, 1, 5, 10, 6], &[2, 0, 1, 5, 11, 5]]),
        ("base gap", &[&[0, 0, 1, 5, 10, 6], &[0, 2, 1, 6, 11, 5]]),
        ("repeated chunk", &[&[0, 0, 1, 5, 10, 6], &[0, 0, 1, 5, 10, 6]]),
        ("next circuit not at step 0", &[&[0, 0, 1, 5, 10, 5], &[1, 3, 1, 5, 11, 5]]),
        ("back to an earlier circuit", &[&[0, 0, 1, 5, 10, 5], &[1, 0, 1, 7, 11, 7], &[0, 1, 1, 5, 12, 5]]),
    ] {
        match run_against(chunks) {
            Err(ServiceError::Protocol(_)) => {}
            other => panic!("{case}: expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn cancelling_an_admitted_run_frees_the_budget_for_a_queued_run() {
    // A cap so small every estimate clamps to it: admission is mutually
    // exclusive and the second run can only start once the first lets go.
    let cap = 1_000;
    let g = graph_from(11, 2_500, 500);
    let path = ecsr_path(&g, "cancel");
    let service = bind(cap, 4);
    let endpoint = service.endpoint().to_string();

    let a = ServiceClient::connect(&endpoint).unwrap();
    let info = a.register(path.to_str().unwrap()).unwrap();
    let opts_a = RunOptions { partitions: 8, ..RunOptions::default() };
    a.start_run(info.checksum, opts_a).unwrap();
    let admitted = loop {
        match a.next_event().unwrap() {
            RunEvent::Accepted { admitted_longs, cached } => {
                assert!(!cached);
                break admitted_longs;
            }
            RunEvent::Cancelled => panic!("cancelled before admission"),
            _ => {}
        }
    };
    assert_eq!(admitted, cap, "oversized estimates clamp to the cap");

    // B queues behind A's exclusive permit...
    let b = ServiceClient::connect(&endpoint).unwrap();
    let opts_b = RunOptions { partitions: 3, ..RunOptions::default() };
    b.start_run(info.checksum, opts_b).unwrap();

    // ...until A is cancelled.
    a.cancel().unwrap();
    loop {
        match a.next_event().unwrap() {
            RunEvent::Cancelled => break,
            RunEvent::Done { .. } => panic!("run A finished before the cancel landed"),
            _ => {}
        }
    }

    let mut steps = 0u64;
    let mut done = false;
    while !done {
        match b.next_event().unwrap() {
            RunEvent::Chunk { steps: chunk, .. } => steps += chunk.len() as u64,
            RunEvent::Done { total_edges, .. } => {
                assert_eq!(total_edges, g.num_edges());
                done = true;
            }
            RunEvent::Cancelled => panic!("run B was never cancelled"),
            _ => {}
        }
    }
    assert_eq!(steps, g.num_edges(), "the queued run completed in full");

    let stats = service.stats();
    assert_eq!(stats.runs_cancelled, 1);
    assert_eq!(stats.runs_executed, 1);
    assert_eq!(stats.admitted_longs, 0);
    assert_eq!(stats.peak_admitted_longs, cap, "never above the cap even when clamped");
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_frames_yield_typed_errors_and_the_server_survives() {
    let g = graph_from(3, 40, 6);
    let path = ecsr_path(&g, "malformed");
    let service = bind(1 << 22, 2);
    let endpoint = service.endpoint().to_string();

    let bytes_to_words =
        |bytes: &[u8]| bytes.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect::<Vec<u64>>();

    // A well-formed frame of an unknown kind: typed ERROR, connection lives.
    let conn = euler_circuit::bsp::connect_endpoint(&endpoint).unwrap();
    conn.send(0x0099, &[]).unwrap();
    let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(kind, frame_kind::ERROR);
    assert_eq!(bytes_to_words(&payload)[0], error_code::BAD_REQUEST);

    // A truncated RUN payload on the same connection: typed ERROR again.
    conn.send(frame_kind::RUN, &words_to_bytes(&[12345, 2])).unwrap();
    let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(kind, frame_kind::ERROR);
    assert_eq!(bytes_to_words(&payload)[0], error_code::BAD_REQUEST);

    // A RUN for a checksum nobody registered: typed ERROR, not a hang.
    let run_words = words_to_bytes(&[0xDEAD_BEEF, 2, 0, 0]);
    conn.send(frame_kind::RUN, &run_words).unwrap();
    let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(kind, frame_kind::ERROR);
    assert_eq!(bytes_to_words(&payload)[0], error_code::UNKNOWN_GRAPH);

    // The connection still serves well-formed requests after all that.
    conn.send(frame_kind::STATS, &[]).unwrap();
    let (kind, _) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(kind, frame_kind::STATS_REPLY);

    // Raw garbage bytes on a fresh socket: the server drops that connection
    // (bad magic fails the frame codec) without taking the process down.
    {
        use std::io::{Read, Write};
        let addr = endpoint.strip_prefix("tcp:").unwrap();
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"this is not a EULR frame at all, not even close....").unwrap();
        raw.flush().unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = [0u8; 64];
        // The server closes on us; either an orderly EOF (0 bytes) or a
        // reset error is acceptable — a panic or a hang is not.
        let _ = raw.read(&mut sink);
    }

    // And a real client still gets real service afterwards.
    let client = ServiceClient::connect(&endpoint).unwrap();
    let info = client.register(path.to_str().unwrap()).unwrap();
    let outcome = client.run(info.checksum, RunOptions { partitions: 2, ..RunOptions::default() }).unwrap();
    let steps: u64 = outcome.circuits.iter().map(|c| c.len() as u64).sum();
    assert_eq!(steps, g.num_edges());

    // A RUN for the registered graph with a fifth word is refused, not run,
    // and the connection keeps serving.
    conn.send(frame_kind::RUN, &words_to_bytes(&[info.checksum, 2, 0, 0, 0])).unwrap();
    let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(kind, frame_kind::ERROR);
    assert_eq!(bytes_to_words(&payload)[0], error_code::BAD_REQUEST);
    conn.send(frame_kind::STATS, &[]).unwrap();
    let (kind, _) = conn.recv_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(kind, frame_kind::STATS_REPLY);

    // Registering an unreadable path is a typed remote error too.
    let missing = client.register("/nonexistent/euler/service/missing.ecsr");
    match missing {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, error_code::REGISTER_FAILED),
        other => panic!("expected a typed remote error, got {other:?}"),
    }

    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A run long enough to be stopped between its yield points: 108 k edges
/// cut into 8 partitions.
fn long_run_graph(tag: &str) -> (Graph, PathBuf) {
    let g = graph_from(7, 8_000, 20_000);
    let path = ecsr_path(&g, tag);
    (g, path)
}

const LONG_RUN: RunOptions =
    RunOptions { partitions: 8, strategy: MergeStrategy::Duplicated, partitioner: PartitionerKind::Hash };

/// Reads a run's events up to its `Accepted`.
fn await_accepted(client: &ServiceClient) {
    loop {
        match client.next_event().unwrap() {
            RunEvent::Accepted { cached, .. } => {
                assert!(!cached);
                return;
            }
            RunEvent::Progress { .. } => {}
            other => panic!("expected Accepted, got {other:?}"),
        }
    }
}

/// Polls the service's accounting until `settled` holds or 10 s pass.
fn stats_when(admin: &ServiceClient, settled: impl Fn(&ServiceStats) -> bool) -> ServiceStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = admin.stats().unwrap();
        if settled(&stats) || Instant::now() > deadline {
            return stats;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// Every CANCEL gets exactly one CANCELLED. One sent after the run's last
/// yield point — the PROGRESS `(T − 1, T)` before Phase 3 — cannot stop the
/// run: the circuit streams in full, and the idle connection acknowledges
/// the cancel after DONE, once, so the next request gets its own reply.
#[test]
fn a_cancel_after_the_last_yield_point_is_acknowledged_after_done() {
    let (g, path) = long_run_graph("late-cancel");
    let service = bind(1 << 22, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap().with_recv_timeout(Duration::from_secs(5));
    let info = client.register(path.to_str().unwrap()).unwrap();
    client.start_run(info.checksum, LONG_RUN).unwrap();
    loop {
        match client.next_event().unwrap() {
            RunEvent::Progress { done, total } if done + 1 == total => break,
            RunEvent::Accepted { .. } | RunEvent::Progress { .. } => {}
            other => panic!("expected the run's progress, got {other:?}"),
        }
    }
    client.cancel().unwrap();
    let (mut report, mut steps) = (false, 0u64);
    loop {
        match client.next_event().unwrap() {
            RunEvent::Progress { .. } => {}
            RunEvent::Report(_) => report = true,
            RunEvent::Chunk { steps: chunk, .. } => steps += chunk.len() as u64,
            RunEvent::Done { total_edges, .. } => {
                assert_eq!(total_edges, g.num_edges());
                break;
            }
            other => panic!("a cancel after the last yield point stopped the run: {other:?}"),
        }
    }
    assert!(report);
    assert_eq!(steps, g.num_edges());
    assert_eq!(client.next_event().unwrap(), RunEvent::Cancelled);
    let stats = client.stats().unwrap();
    assert_eq!((stats.runs_executed, stats.runs_cancelled), (1, 0));
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A client that hangs up after `Accepted` cancels its run at the next
/// yield point: nothing is executed or cached, and the budget comes back.
#[test]
fn a_client_that_hangs_up_mid_run_cancels_it() {
    let (_g, path) = long_run_graph("hang-up");
    let service = bind(1 << 22, 2);
    let admin = ServiceClient::connect(service.endpoint()).unwrap();
    let info = admin.register(path.to_str().unwrap()).unwrap();
    {
        let client = ServiceClient::connect(service.endpoint()).unwrap();
        client.start_run(info.checksum, LONG_RUN).unwrap();
        await_accepted(&client);
    }
    let stats = stats_when(&admin, |s| s.runs_cancelled + s.runs_executed > 0 && s.admitted_longs == 0);
    assert_eq!((stats.runs_cancelled, stats.admitted_longs, stats.runs_executed), (1, 0, 0));
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A client that hangs up mid-stream — after `Accepted` and one `Chunk`,
/// with the rest of the batch still being written — costs the server
/// nothing, whether the stream was a fresh run's or a cache hit's: the next
/// client on a one-slot server gets the library circuit, no budget stays
/// admitted, and the server shuts down.
#[test]
fn a_client_dropped_mid_stream_leaves_its_serving_thread_serving() {
    let (_g, path) = long_run_graph("dropped-mid-stream");
    let service = EulerService::bind(ServiceConfig { workers: 1, chunk_steps: 1, ..ServiceConfig::default() }).unwrap();
    let endpoint = service.endpoint().to_string();
    let client = || ServiceClient::connect(&endpoint).unwrap().with_recv_timeout(Duration::from_secs(30));
    // Every client but the dropped ones stays connected: a connection has
    // its own handler, and `workers: 1` bounds the runs computing at once,
    // not the connections served.
    let admin = client();
    let info = admin.register(path.to_str().unwrap()).unwrap();
    let expect = reference(&path, LONG_RUN);
    let mut served = vec![admin];
    for cached in [false, true] {
        {
            let dropped = client();
            dropped.start_run(info.checksum, LONG_RUN).unwrap();
            loop {
                match dropped.next_event().unwrap() {
                    RunEvent::Accepted { cached: hit, .. } => assert_eq!(hit, cached),
                    RunEvent::Progress { .. } | RunEvent::Report(_) => {}
                    RunEvent::Chunk { .. } => break,
                    other => panic!("expected the run's stream, got {other:?}"),
                }
            }
        }
        let next = client();
        let outcome = next.run(info.checksum, LONG_RUN).unwrap();
        assert!(outcome.cached);
        assert!(outcome.circuits == expect.circuits, "after a drop (cached: {cached})");
        served.push(next);
    }
    let stats = service.stats();
    assert_eq!((stats.runs_executed, stats.runs_cached, stats.admitted_longs), (1, 3, 0));
    let t = Instant::now();
    service.shutdown();
    assert!(t.elapsed() < Duration::from_secs(10), "shutdown took {:?}", t.elapsed());
    std::fs::remove_file(&path).ok();
}

/// A client that hangs up while its run waits for admission is counted
/// cancelled while the run ahead of it still holds the budget — so it was
/// never admitted — and the run ahead completes.
#[test]
fn a_client_that_hangs_up_while_queued_is_never_admitted() {
    let cap = 1_000;
    let (g, path) = long_run_graph("queued-hang-up");
    let service = bind(cap, 4);
    let admin = ServiceClient::connect(service.endpoint()).unwrap();
    let info = admin.register(path.to_str().unwrap()).unwrap();
    let holder = ServiceClient::connect(service.endpoint()).unwrap();
    holder.start_run(info.checksum, LONG_RUN).unwrap();
    await_accepted(&holder);
    {
        let queued = ServiceClient::connect(service.endpoint()).unwrap();
        queued.start_run(info.checksum, RunOptions { partitions: 3, ..LONG_RUN }).unwrap();
    }
    let stats = stats_when(&admin, |s| s.runs_cancelled > 0);
    assert_eq!((stats.runs_cancelled, stats.runs_executed), (1, 0), "cancelled behind the held run");

    let outcome = loop {
        match holder.next_event().unwrap() {
            RunEvent::Done { total_edges, .. } => break total_edges,
            RunEvent::Cancelled => panic!("the held run was cancelled"),
            _ => {}
        }
    };
    assert_eq!(outcome, g.num_edges());
    let stats = stats_when(&admin, |s| s.admitted_longs == 0);
    assert_eq!((stats.runs_cancelled, stats.runs_executed, stats.admitted_longs), (1, 1, 0));
    assert_eq!(stats.peak_admitted_longs, cap);
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Shutting the service down mid-run returns promptly, and the client's
/// stream ends — with `Cancelled` or a closed connection, never a hang.
#[test]
fn shutdown_mid_run_ends_the_stream() {
    let (_g, path) = long_run_graph("shutdown");
    let service = bind(1 << 22, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap().with_recv_timeout(Duration::from_secs(10));
    let info = client.register(path.to_str().unwrap()).unwrap();
    client.start_run(info.checksum, LONG_RUN).unwrap();
    await_accepted(&client);
    let t = Instant::now();
    service.shutdown();
    assert!(t.elapsed() < Duration::from_secs(10), "shutdown took {:?}", t.elapsed());
    loop {
        match client.next_event() {
            Ok(RunEvent::Cancelled) => break,
            Ok(RunEvent::Progress { .. }) => {}
            Ok(other) => panic!("expected Cancelled, got {other:?}"),
            Err(ServiceError::Transport(FrameError::Timeout)) => panic!("the stream hung"),
            Err(ServiceError::Transport(_)) => break,
            Err(e) => panic!("expected Cancelled or a transport error, got {e}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A partition count whose `P × P` cut matrix would dwarf the graph is
/// refused before admission, with a typed error — not an allocation the
/// process cannot survive — and the connection goes on serving.
#[test]
fn a_run_with_more_partitions_than_the_graph_can_hold_is_refused() {
    let g = graph_from(9, 300, 30);
    let path = ecsr_path(&g, "partitions");
    let service = bind(1 << 22, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap();
    let info = client.register(path.to_str().unwrap()).unwrap();

    match client.run(info.checksum, RunOptions { partitions: 200_000, ..RunOptions::default() }) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_REQUEST),
        other => panic!("expected a typed BAD_REQUEST, got {other:?}"),
    }
    let opts = RunOptions { partitions: 4, ..RunOptions::default() };
    let outcome = client.run(info.checksum, opts).unwrap();
    assert_eq!(outcome.circuits, reference(&path, opts).circuits);
    let stats = service.stats();
    assert_eq!((stats.runs_executed, stats.peak_admitted_longs > 0), (1, true));
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// An odd-degree graph is refused with the library's typed reason — not
/// answered with an empty circuit — and the refusal leaves nothing behind:
/// no cached circuit, no executed run, no budget held.
#[test]
fn an_odd_degree_graph_is_refused_with_the_librarys_reason() {
    // A triangle plus one pendant edge: v2 has degree 3.
    let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
    let path = ecsr_path(&g, "odd");
    let library = EulerPipeline::builder()
        .source(MmapCsrSource::open(&path).unwrap())
        .partitioner(LdgPartitioner::new(2))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    let euler_circuit::algo::EulerError::Graph(euler_circuit::graph::GraphError::NotEulerian { vertex, degree: 3 }) =
        library
    else {
        panic!("the library refuses with NotEulerian, got {library:?}");
    };
    assert_eq!(vertex, VertexId(2));

    let service = bind(1 << 22, 2);
    let client = ServiceClient::connect(service.endpoint()).unwrap();
    let info = client.register(path.to_str().unwrap()).unwrap();
    let opts = RunOptions { partitions: 2, partitioner: PartitionerKind::Ldg, ..RunOptions::default() };
    // Twice: the second request is refused again, not served from a cache.
    for _ in 0..2 {
        match client.run(info.checksum, opts) {
            Err(ServiceError::Remote { code, message }) => {
                assert_eq!(code, error_code::RUN_FAILED);
                assert_eq!(message, library.to_string());
                assert!(message.contains(&vertex.to_string()), "{message}");
            }
            other => panic!("expected a typed RUN_FAILED, got {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!((stats.runs_executed, stats.runs_cached), (0, 0), "nothing ran, nothing cached");
    assert_eq!(stats.admitted_longs, 0, "the refused runs hold no budget");
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A one-slot server with eight clients that registered a graph and stay
/// connected, idle.
fn idle_clients(tag: &str) -> (EulerService, Vec<ServiceClient>, u64, PathBuf) {
    let g = graph_from(13, 200, 30);
    let path = ecsr_path(&g, tag);
    let service = bind(1 << 22, 1);
    let idle: Vec<ServiceClient> = (0..8).map(|_| ServiceClient::connect(service.endpoint()).unwrap()).collect();
    let infos: Vec<_> = idle.iter().map(|c| c.register(path.to_str().unwrap()).unwrap()).collect();
    (service, idle, infos[0].checksum, path)
}

/// An idle connection holds no compute slot: with eight registered clients
/// connected and idle, a ninth client's run on a `workers: 1` server returns
/// the library circuit.
#[test]
fn idle_clients_leave_a_one_slot_server_serving() {
    let (service, _idle, checksum, path) = idle_clients("idle");
    let client = ServiceClient::connect(service.endpoint()).unwrap().with_recv_timeout(Duration::from_secs(30));
    let opts = RunOptions { partitions: 3, ..RunOptions::default() };
    let outcome = client.run(checksum, opts).unwrap();
    assert!(!outcome.cached);
    assert_eq!(outcome.circuits, reference(&path, opts).circuits);
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Shutdown closes every connection instead of waiting for its client:
/// with eight idle clients connected it returns within 100 ms.
#[test]
fn shutdown_with_idle_clients_connected_returns_at_once() {
    let (service, idle, _, path) = idle_clients("idle-shutdown");
    let t = Instant::now();
    service.shutdown();
    assert!(t.elapsed() < Duration::from_millis(100), "shutdown took {:?}", t.elapsed());
    for client in &idle {
        assert!(client.stats().is_err(), "a connection outlived the service");
    }
    std::fs::remove_file(&path).ok();
}

/// With `MAX_CONNECTIONS` connections open, one more is refused with a
/// typed `BUSY` — not left waiting — and once one closes, a new client is
/// served. The server runs two threads a connection, 128 here, never more.
#[test]
fn the_connection_past_the_limit_is_refused_busy() {
    let service = bind(1 << 22, 1);
    let connect = || ServiceClient::connect(service.endpoint()).unwrap();
    let mut open: Vec<ServiceClient> = (0..MAX_CONNECTIONS).map(|_| connect()).collect();
    for client in &open {
        client.stats().unwrap();
    }
    // The refusal is the server's first frame; reading it sends nothing.
    match connect().next_event() {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, error_code::BUSY),
        other => panic!("expected a typed BUSY, got {other:?}"),
    }
    drop(open.pop());
    // The server learns of the hang-up from its reader: retry until it has.
    let deadline = Instant::now() + Duration::from_secs(10);
    let served = loop {
        match connect().stats() {
            Ok(stats) => break stats,
            Err(ServiceError::Remote { code, .. }) if code == error_code::BUSY => {
                assert!(Instant::now() < deadline, "a closed connection's place was never freed");
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("expected service or BUSY, got {e}"),
        }
    };
    assert_eq!(served.runs_executed, 0);
    service.shutdown();
}

/// A run waiting for admission stops at a CANCEL at once: its connection's
/// reader wakes the wait, which asks the queue again — no poll interval.
#[test]
fn a_cancel_while_waiting_for_admission_is_answered_at_once() {
    let (_g, path) = long_run_graph("admission-cancel");
    let service = bind(1 << 22, 1);
    let holder = ServiceClient::connect(service.endpoint()).unwrap();
    let info = holder.register(path.to_str().unwrap()).unwrap();
    holder.start_run(info.checksum, LONG_RUN).unwrap();
    await_accepted(&holder);

    let waiter = ServiceClient::connect(service.endpoint()).unwrap();
    waiter.start_run(info.checksum, RunOptions { partitions: 3, ..LONG_RUN }).unwrap();
    let t = Instant::now();
    waiter.cancel().unwrap();
    assert_eq!(waiter.next_event().unwrap(), RunEvent::Cancelled);
    assert!(t.elapsed() < Duration::from_millis(100), "CANCELLED after {:?}", t.elapsed());
    let stats = waiter.stats().unwrap();
    let counts = (stats.runs_cancelled, stats.runs_executed);
    assert_eq!(counts, (1, 0), "cancelled while the slot was held");

    holder.cancel().unwrap();
    while !matches!(holder.next_event().unwrap(), RunEvent::Cancelled | RunEvent::Done { .. }) {}
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A client that stops reading a stream far larger than the socket buffers
/// leaves its handler blocked in the write; shutdown closes the connection,
/// which fails the write, and returns within a second.
#[test]
fn a_client_that_stops_reading_does_not_hold_up_shutdown() {
    // 259 k one-step chunks of 68 B: 17.6 MB of frames.
    let g = synthetic::torus_grid(360, 360);
    let path = ecsr_path(&g, "stalled");
    let config = ServiceConfig { chunk_steps: 1, ..ServiceConfig::default() };
    let service = EulerService::bind(config).unwrap();
    let client = ServiceClient::connect(service.endpoint()).unwrap();
    let info = client.register(path.to_str().unwrap()).unwrap();
    let opts = RunOptions { partitions: 1, ..RunOptions::default() };
    assert!(!client.run(info.checksum, opts).unwrap().cached);

    client.start_run(info.checksum, opts).unwrap();
    loop {
        match client.next_event().unwrap() {
            RunEvent::Accepted { cached, .. } => assert!(cached),
            RunEvent::Chunk { .. } => break,
            other => panic!("expected the cached stream, got {other:?}"),
        }
    }
    let (done_tx, done) = std::sync::mpsc::channel();
    thread::spawn(move || {
        service.shutdown();
        done_tx.send(()).unwrap();
    });
    assert!(done.recv_timeout(Duration::from_secs(1)).is_ok(), "shutdown hung on the stalled client");
    drop(client);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under random caps and random concurrent request mixes, the admission
    /// high-water mark never exceeds the cap and all budget drains back.
    #[test]
    fn admission_never_exceeds_the_cap_under_random_request_mixes(
        seed in 0u64..500,
        n in 8u64..48,
        extra in 0usize..8,
        cap in 64u64..50_000,
        parts in prop::collection::vec(1u32..6, 4),
        strategies in prop::collection::vec(0u8..3, 4),
    ) {
        let g = graph_from(seed, n, extra);
        let path = ecsr_path(&g, "admission");
        let service = bind(cap, 4);
        let endpoint = service.endpoint().to_string();
        let admin = ServiceClient::connect(&endpoint).unwrap();
        let info = admin.register(path.to_str().unwrap()).unwrap();

        let decode = |s: u8| match s {
            0 => MergeStrategy::Duplicated,
            1 => MergeStrategy::Deduplicated,
            _ => MergeStrategy::Deferred,
        };
        let outcomes: Vec<RunOutcome> = thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .zip(strategies.iter())
                .map(|(&partitions, &strategy)| {
                    let endpoint = endpoint.clone();
                    let opts = RunOptions {
                        partitions,
                        strategy: decode(strategy),
                        ..RunOptions::default()
                    };
                    s.spawn(move || {
                        let client = ServiceClient::connect(&endpoint).unwrap();
                        client.run(info.checksum, opts).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for outcome in &outcomes {
            prop_assert!(!outcome.cancelled);
            let steps: u64 = outcome.circuits.iter().map(|c| c.len() as u64).sum();
            prop_assert_eq!(steps, g.num_edges());
            prop_assert!(outcome.cached || outcome.admitted_longs <= cap);
        }
        let stats = service.stats();
        prop_assert!(stats.peak_admitted_longs <= cap, "peak {} over cap {}", stats.peak_admitted_longs, cap);
        prop_assert_eq!(stats.admitted_longs, 0);
        prop_assert!(stats.runs_executed >= 1);
        service.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
