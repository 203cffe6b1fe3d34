//! Differential conformance suite for the W-streaming Phase-1 pass: for
//! every `EdgeStream` producer (in-memory adjacency, memory-mapped `.ecsr`,
//! chunked edge-list file) × every backend that shares the walk's store
//! (in-process; BSP workers stepped in place: 1, 2, one per partition), the
//! streaming pipeline must produce valid Euler circuits covering the
//! *identical edge multiset* as the dense-arena kernel — on random Eulerized
//! multigraphs and on every degenerate shape (empty partition, single cycle,
//! self-loops, multi-edges, hub vertex).
//!
//! The suite also pins the memory contract that justifies the mode's
//! existence: peak resident traversal state is `O(n log n)` and does **not**
//! scale with the edge count `m`.

use euler_circuit::algo::verify::verify_result;
use euler_circuit::algo::{stream_phase1, FragmentStore};
use euler_circuit::graph::GraphEdgeStream;
use euler_circuit::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("euler_wstream_equivalence_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Sorted edge-id multiset covered by a result's circuits.
fn edge_multiset(result: &CircuitResult) -> Vec<u64> {
    let mut ids: Vec<u64> = result.circuits.iter().flatten().map(|step| step.edge.0).collect();
    ids.sort_unstable();
    ids
}

/// Runs the dense reference and the W-streaming pipeline over every producer
/// × backend combination, asserting validity and edge-multiset equality.
fn assert_wstream_matches_dense(g: &Graph, assignment: &PartitionAssignment, tag: &str) {
    let config = EulerConfig::default().sequential();
    let dense = EulerPipeline::builder()
        .graph(g)
        .assignment(assignment.clone())
        .config(config.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    verify_result(g, &dense.circuit.result).unwrap();
    let dense_edges = edge_multiset(&dense.circuit.result);
    let expected: Vec<u64> = (0..g.num_edges()).collect();
    assert_eq!(dense_edges, expected, "{tag}: dense run must cover every edge once");

    let csr_path = temp_path(&format!("{tag}.ecsr"));
    write_csr_file(g, &csr_path).unwrap();
    let list_path = temp_path(&format!("{tag}.txt"));
    euler_circuit::graph::io::write_edge_list_file(g, &list_path).unwrap();

    for backend_name in ["in-process", "bsp-1-in-place", "bsp-2-in-place", "bsp-per-partition"] {
        for producer_name in ["in-memory", "mmap-csr", "edge-list"] {
            let builder =
                EulerPipeline::builder().assignment(assignment.clone()).config(config.clone()).streaming_phase1(true);
            let builder = match producer_name {
                "in-memory" => builder.source(InMemorySource::new(g.clone())),
                "mmap-csr" => builder.source(MmapCsrSource::open(&csr_path).unwrap()),
                _ => builder.source(EdgeListFileSource::new(&list_path)),
            };
            let builder = match backend_name {
                "in-process" => builder.backend(InProcessBackend::new()),
                "bsp-1-in-place" => builder.backend(BspBackend::with_engine(BspConfig::with_workers(1))),
                "bsp-2-in-place" => builder.backend(BspBackend::with_engine(BspConfig::with_workers(2))),
                _ => builder.backend(BspBackend::new()),
            };
            let run = builder
                .build()
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{tag}: {producer_name} × {backend_name} failed: {e}"));
            verify_result(g, &run.circuit.result)
                .unwrap_or_else(|e| panic!("{tag}: {producer_name} × {backend_name} invalid circuit: {e}"));
            assert_eq!(
                edge_multiset(&run.circuit.result),
                dense_edges,
                "{tag}: {producer_name} × {backend_name} edge multiset diverges from dense"
            );
            let stats = run
                .merge
                .wstream
                .unwrap_or_else(|| panic!("{tag}: {producer_name} × {backend_name} must report wstream stats"));
            assert_eq!(stats.edges_ingested, g.num_edges());
            assert_eq!(stats.num_vertices, g.num_vertices());
        }
    }
    std::fs::remove_file(&csr_path).ok();
    std::fs::remove_file(&list_path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random Eulerized multigraphs, random partition counts: every producer
    /// × backend combination agrees with the dense kernel.
    #[test]
    fn random_eulerian_multigraphs_agree_with_dense(
        seed in 0u64..500,
        n in 8u64..60,
        extra in 0usize..8,
        parts in 1u32..5,
    ) {
        let g = synthetic::random_eulerian_connected(n.max(4), extra, 5, seed);
        let a = LdgPartitioner::new(parts).partition(&g);
        assert_wstream_matches_dense(&g, &a, &format!("prop_{seed}_{n}_{extra}_{parts}"));
    }
}

#[test]
fn single_cycle_agrees_with_dense() {
    let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let a = PartitionAssignment::from_labels(vec![0, 0, 0, 1, 1], 2).unwrap();
    assert_wstream_matches_dense(&g, &a, "single_cycle");
}

#[test]
fn empty_partition_agrees_with_dense() {
    // Partition 1 owns no vertices at all; partition 2 owns one isolated
    // vertex with no edges.
    let mut b = GraphBuilder::with_vertices(5);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 0);
    let g = b.build().unwrap();
    let a = PartitionAssignment::from_labels(vec![0, 0, 0, 2, 2], 3).unwrap();
    assert_wstream_matches_dense(&g, &a, "empty_partition");
}

#[test]
fn self_loops_agree_with_dense() {
    // Self-loops at internal and boundary vertices, including doubled ones.
    let g = graph_from_edges(&[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 2), (2, 0)]);
    let a = PartitionAssignment::from_labels(vec![0, 0, 1], 2).unwrap();
    assert_wstream_matches_dense(&g, &a, "self_loops");
}

#[test]
fn multi_edges_agree_with_dense() {
    // Parallel edges within and across partitions.
    let g = graph_from_edges(&[(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0)]);
    let a = PartitionAssignment::from_labels(vec![0, 0, 1, 1], 2).unwrap();
    assert_wstream_matches_dense(&g, &a, "multi_edges");
}

#[test]
fn hub_vertex_agrees_with_dense() {
    // A high-degree hub: every spoke doubled so all degrees stay even. The
    // hub accumulates and releases chain ends continuously.
    let mut edges = Vec::new();
    for i in 1..=12u64 {
        edges.push((0, i));
        edges.push((0, i));
    }
    let g = graph_from_edges(&edges);
    let labels: Vec<u32> = (0..13).map(|v| (v % 3) as u32).collect();
    let a = PartitionAssignment::from_labels(labels, 3).unwrap();
    assert_wstream_matches_dense(&g, &a, "hub_vertex");
}

/// Builds a connected Eulerian multigraph with `n` vertices and `reps * n`
/// edges: a ring where every ring edge is repeated `reps` times (`reps`
/// even keeps every degree even).
fn multi_ring(n: u64, reps: usize) -> Graph {
    let mut b = GraphBuilder::with_vertices(n);
    for i in 0..n {
        for _ in 0..reps {
            b.add_edge(i, (i + 1) % n);
        }
    }
    b.build().unwrap()
}

/// The memory contract: peak resident traversal state fits the `O(n log n)`
/// envelope even when `m = 64 n`.
#[test]
fn peak_resident_state_fits_the_n_log_n_envelope() {
    let n = 256u64;
    let g = multi_ring(n, 64); // m = 64 n = 16384 edges
    let a = PartitionAssignment::from_labels(vec![0; n as usize], 1).unwrap();
    let store = FragmentStore::new();
    let mut stream = GraphEdgeStream::new(&g);
    let out = stream_phase1(&mut stream, &a, &store, 0).unwrap();
    assert_eq!(out.stats.edges_ingested, 64 * n);
    let log_n = 64 - n.leading_zeros() as u64;
    let envelope = 16 * n * (log_n + 2) + 64;
    assert!(
        out.stats.peak_resident_longs <= envelope,
        "peak {} Longs exceeds O(n log n) envelope {} (n = {n}, m = {})",
        out.stats.peak_resident_longs,
        envelope,
        64 * n
    );
}

/// Resident state must not scale with `m`: growing the edge count 16× while
/// holding `n` fixed may not even double the peak.
#[test]
fn peak_resident_state_is_independent_of_edge_count() {
    let n = 256u64;
    let a = PartitionAssignment::from_labels(vec![0; n as usize], 1).unwrap();
    let peak_for = |reps: usize| {
        let g = multi_ring(n, reps);
        let store = FragmentStore::new();
        let mut stream = GraphEdgeStream::new(&g);
        let out = stream_phase1(&mut stream, &a, &store, 0).unwrap();
        assert_eq!(out.stats.edges_ingested, reps as u64 * n);
        out.stats.peak_resident_longs
    };
    let peak_4n = peak_for(4);
    let peak_64n = peak_for(64);
    assert!(peak_64n < 2 * peak_4n, "peak grew with m: {peak_4n} Longs at m=4n vs {peak_64n} Longs at m=64n");
}

/// The acceptance path: a packed `.ecsr` input, a streaming partitioner, the
/// W-streaming pass, and a fragment spill budget — the full out-of-core
/// spine — still matches the dense kernel's edge coverage.
#[test]
fn packed_csr_end_to_end_with_spill_budget() {
    let g = synthetic::torus_grid(16, 16);
    let path = temp_path("end_to_end.ecsr");
    write_csr_file(&g, &path).unwrap();
    let config = EulerConfig::default().sequential();

    let dense = EulerPipeline::builder()
        .graph(&g)
        .partitioner(LdgPartitioner::new(4))
        .config(config.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();

    let run = EulerPipeline::builder()
        .source(MmapCsrSource::open(&path).unwrap())
        .partitioner(LdgPartitioner::new(4))
        .config(config)
        .streaming_phase1(true)
        .memory_budget(dense.circuit.fragment_disk_longs / 8)
        .build()
        .unwrap()
        .run()
        .unwrap();

    verify_result(&g, &run.circuit.result).unwrap();
    assert_eq!(edge_multiset(&run.circuit.result), edge_multiset(&dense.circuit.result));
    assert!(run.partition.partitioner.contains("w-streaming"));
    let stats = run.merge.wstream.expect("streaming run reports wstream stats");
    let n = g.num_vertices();
    let log_n = 64 - n.leading_zeros() as u64;
    assert!(stats.peak_resident_longs <= 16 * n * (log_n + 2) + 64);
    assert!(run.circuit.fragment_stats.spilled_fragments > 0, "budget must force spilling");
    assert_eq!(run.circuit.fragment_stats.spill_errors, 0);
    std::fs::remove_file(&path).ok();
}
