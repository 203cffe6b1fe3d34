//! Property-based and end-to-end tests of the out-of-core data spine:
//! streaming partitioning of packed `.ecsr` files must equal the in-memory
//! partitioners bit for bit (assignments *and* circuits), the pipeline must
//! complete with **no `Graph` materialised** when a CSR source meets a
//! streaming partitioner, and a fragment `memory_budget` far below the total
//! fragment bytes must spill to disk while producing circuits bit-identical
//! to the unbounded run — including when the spill itself is interrupted.

use euler_circuit::algo::phase3::unroll;
use euler_circuit::algo::verify::verify_result;
use euler_circuit::algo::{EulerError, Fragment, FragmentId, FragmentKind, FragmentStore, SpillConfig, TourEdge};
use euler_circuit::graph::{EdgeStream, GraphError};
use euler_circuit::partition::StreamingPartitioner;
use euler_circuit::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_ecsr(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("euler_streaming_spill_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A graph source that refuses to materialise a `Graph`: the construction
/// hook every zero-`Graph` assertion in this file goes through. `load` and
/// `resident` are the only ways the pipeline can obtain a `Graph` from a
/// source, so a completed run through this wrapper proves none was built.
struct NoGraphSource {
    inner: MmapCsrSource,
}

impl GraphSource for NoGraphSource {
    fn name(&self) -> String {
        format!("no-graph wrapper over {}", self.inner.name())
    }

    fn load(&self) -> Result<Graph, GraphError> {
        panic!("the pipeline materialised a Graph on the zero-Graph path");
    }

    fn resident(&self) -> Option<&Graph> {
        None
    }

    fn csr(&self) -> Option<&CsrFile> {
        self.inner.csr()
    }

    fn edge_stream(&self) -> Option<Box<dyn EdgeStream + '_>> {
        self.inner.edge_stream()
    }
}

/// Measurement-free equality of two pipeline runs.
fn assert_same_circuits(a: &PipelineRun, b: &PipelineRun) {
    assert_eq!(a.circuit.result.circuits, b.circuit.result.circuits);
    assert_eq!(a.circuit.fragment_disk_longs, b.circuit.fragment_disk_longs);
    assert_eq!(a.merge.total_transfer_longs, b.merge.total_transfer_longs);
    assert_eq!(a.merge.supersteps, b.merge.supersteps);
}

#[test]
fn streaming_ldg_with_budget_runs_the_whole_pipeline_without_a_graph() {
    // The headline acceptance path: mmap source + streaming LDG + a fragment
    // budget far below the total fragment bytes. The NoGraphSource wrapper
    // panics on any load, so completion proves the zero-Graph spine.
    let g = synthetic::torus_grid(40, 40);
    let path = temp_ecsr("zero_graph_pipeline.ecsr");
    write_csr_file(&g, &path).unwrap();

    let reference = EulerPipeline::builder()
        .graph(&g)
        .partitioner(LdgPartitioner::new(4))
        .config(EulerConfig::default().sequential())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let budget = reference.circuit.fragment_disk_longs / 8;

    let run = EulerPipeline::builder()
        .source(NoGraphSource { inner: MmapCsrSource::open(&path).unwrap() })
        .partitioner(LdgPartitioner::new(4))
        .config(EulerConfig::default().sequential())
        .memory_budget(budget)
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert!(run.partition.partitioner.contains("ldg (streamed"));
    assert_same_circuits(&run, &reference);
    verify_result(&g, &run.circuit.result).unwrap();
    let stats = run.circuit.fragment_stats;
    assert!(stats.spilled_fragments > 0, "budget {budget} must spill: {stats:?}");
    assert!(stats.spill_read_longs > 0, "phase 3 reloads spilled fragments");
    assert_eq!(stats.spill_errors, 0);
    assert!(stats.peak_resident_longs < run.circuit.fragment_disk_longs);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming LDG/hash over a packed `.ecsr` file yields the identical
    /// `PartitionAssignment` — and, through the pipeline, bit-identical
    /// circuits — as the in-memory `Partitioner` on the same graph and seed.
    #[test]
    fn streaming_partitioning_of_packed_csr_matches_in_memory(
        seed in 0u64..500,
        n in 12u64..100,
        extra in 0usize..10,
        parts in 1u32..7,
        use_hash in any::<bool>(),
        hash_seed in 0u64..8,
    ) {
        let g = synthetic::random_eulerian_connected(n.max(4), extra, 5, seed);
        let path = temp_ecsr(&format!("prop_{seed}_{n}_{extra}_{parts}_{use_hash}.ecsr"));
        write_csr_file(&g, &path).unwrap();
        let source = MmapCsrSource::open(&path).unwrap();

        let (from_stream, from_graph) = if use_hash {
            let p = HashPartitioner::new(parts).with_seed(hash_seed);
            let mut stream = source.edge_stream().unwrap();
            (p.partition_stream(stream.as_mut()).unwrap(), p.partition(&g))
        } else {
            let p = LdgPartitioner::new(parts);
            let mut stream = source.edge_stream().unwrap();
            (p.partition_stream(stream.as_mut()).unwrap(), p.partition(&g))
        };
        prop_assert_eq!(from_stream.num_partitions(), from_graph.num_partitions());
        for v in g.vertices() {
            prop_assert_eq!(from_stream.partition_of(v), from_graph.partition_of(v));
        }

        // The full pipeline agrees too: zero-Graph streamed run vs loaded run.
        let config = EulerConfig::default().sequential();
        let streamed = if use_hash {
            EulerPipeline::builder()
                .source(NoGraphSource { inner: source })
                .partitioner(HashPartitioner::new(parts).with_seed(hash_seed))
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        } else {
            EulerPipeline::builder()
                .source(NoGraphSource { inner: source })
                .partitioner(LdgPartitioner::new(parts))
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let in_memory = if use_hash {
            EulerPipeline::builder()
                .graph(&g)
                .partitioner(HashPartitioner::new(parts).with_seed(hash_seed))
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        } else {
            EulerPipeline::builder()
                .graph(&g)
                .partitioner(LdgPartitioner::new(parts))
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        assert_same_circuits(&streamed, &in_memory);
        prop_assert!(verify_result(&g, &streamed.circuit.result).is_ok());
        std::fs::remove_file(&path).ok();
    }

    /// A spill-backed run under a tiny budget produces bit-identical
    /// circuits and exact `disk_longs`/transfer accounting vs the in-memory
    /// backing, with the resident set actually bounded — sequential and at
    /// the default. These graphs are under the fan-out gate, so both step
    /// their levels on the caller; the identities under a real fan-out, where
    /// which records end up resident depends on the thread schedule, are
    /// held by `fragment_budget_envelope_holds_under_concurrent_fan_out` in
    /// `tests/parallel_equivalence.rs`.
    #[test]
    fn spill_backed_runs_are_bit_identical_with_exact_accounting(
        seed in 0u64..500,
        n in 16u64..120,
        extra in 1usize..12,
        parts in 2u32..7,
        divisor in 4u64..20,
    ) {
        let g = synthetic::random_eulerian_connected(n.max(4), extra, 5, seed);
        let a = LdgPartitioner::new(parts).partition(&g);
        for config in [EulerConfig::default().sequential(), EulerConfig::default()] {
            let unbounded = EulerPipeline::builder()
                .graph(&g)
                .assignment(a.clone())
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            let budget = unbounded.circuit.fragment_disk_longs / divisor;
            let bounded = EulerPipeline::builder()
                .graph(&g)
                .assignment(a.clone())
                .config(config)
                .memory_budget(budget)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_same_circuits(&bounded, &unbounded);
            let stats = bounded.circuit.fragment_stats;
            prop_assert!(stats.spilled_fragments > 0);
            prop_assert_eq!(stats.spill_errors, 0);
            // Once the run quiesces the resident set fits the budget; every
            // record not resident was written to the spill file once, and
            // each of Phase 3's two passes read the file back once.
            prop_assert!(stats.resident_longs <= budget,
                "resident {} over budget {budget}", stats.resident_longs);
            prop_assert_eq!(stats.spill_write_longs,
                bounded.circuit.fragment_disk_longs - stats.resident_longs);
            prop_assert_eq!(stats.spill_read_longs, 2 * stats.spill_write_longs);
            prop_assert!(stats.spill_reads <= 2 * stats.spill_writes, "{:?}", stats);
            // The peak stays within budget + one record. A record holds at
            // most the local edges its partition had at its level.
            let most_local = bounded.merge.per_partition.iter().map(|r| r.counts.local_edges).max();
            let largest_record = 4 + 3 * most_local.unwrap_or(0);
            prop_assert!(stats.peak_resident_longs <= budget + largest_record,
                "peak {} over budget {budget} + {largest_record}", stats.peak_resident_longs);
            // Runs are admitted whole within the budget, so the peak is within
            // the budget itself.
            prop_assert!(stats.peak_resident_longs <= budget,
                "peak {} over budget {budget}", stats.peak_resident_longs);
        }
    }
}

/// Phase-3 stitching through the backing seam with an interrupted spill: a
/// store whose spill directory cannot exist falls back to memory after the
/// first failed eviction and still unrolls the identical circuits with
/// identical accounting.
#[test]
fn interrupted_spill_still_unrolls_identical_circuits() {
    fn real(edge: u64, from: u64, to: u64) -> TourEdge {
        TourEdge::Real { edge: euler_circuit::graph::EdgeId(edge), from: VertexId(from), to: VertexId(to) }
    }
    // A nested workload: paths referenced as virtual edges, plus cycles that
    // must be spliced at shared vertices — every Phase-3 code path.
    fn fill(store: &FragmentStore) {
        let p = store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Path,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(10, 1, 2), real(11, 2, 3)],
        });
        store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level: 0,
            partition: PartitionId(0),
            edges: vec![real(20, 2, 7), real(21, 7, 2)],
        });
        store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level: 1,
            partition: PartitionId(0),
            edges: vec![
                real(0, 0, 1),
                TourEdge::Virtual { fragment: p, from: VertexId(1), to: VertexId(3) },
                real(1, 3, 0),
            ],
        });
    }
    let mem = FragmentStore::new();
    let spill = FragmentStore::spilling(SpillConfig::with_budget(0));
    let broken = FragmentStore::spilling(SpillConfig::with_budget(0).in_directory("/nonexistent/euler/spill"));
    for store in [&mem, &spill, &broken] {
        fill(store);
    }
    let reference = unroll(&mem).unwrap();
    let spilled = unroll(&spill).unwrap();
    let recovered = unroll(&broken).unwrap();
    assert_eq!(reference.circuits, spilled.circuits);
    assert_eq!(reference.circuits, recovered.circuits);
    assert_eq!(reference.total_edges(), 6);
    assert_eq!(mem.disk_longs(), spill.disk_longs());
    assert_eq!(mem.disk_longs(), broken.disk_longs());
    assert_eq!(mem.total_real_edges(), broken.total_real_edges());
    // The spill store really paged out; the broken one really failed and
    // recovered to full residency.
    assert!(spill.stats().spilled_fragments > 0);
    assert_eq!(spill.stats().resident_longs, 0);
    assert!(broken.stats().spill_errors > 0);
    assert_eq!(broken.stats().spilled_fragments, 0);
    assert_eq!(broken.stats().resident_longs, broken.disk_longs());
}

/// Phase 3 reads the spill file in two passes, each front to back in the
/// runs it was written in: every spilled Long is read exactly twice, with at
/// most one read call per write call and pass — never one reload per record,
/// in walk order, as the depth-first unroll did.
#[test]
fn phase3_reads_the_spill_file_twice_in_the_runs_it_was_written_in() {
    // Push-only workload: partition-local cycles sharing vertices, a path
    // expanded through a virtual reference, and enough two-edge cycles
    // along a chain of vertices to fill several runs.
    fn real(edge: u64, from: u64, to: u64) -> TourEdge {
        TourEdge::Real { edge: euler_circuit::graph::EdgeId(edge), from: VertexId(from), to: VertexId(to) }
    }
    let store = FragmentStore::spilling(SpillConfig::with_budget(0));
    let p = store.push(Fragment {
        id: FragmentId(0),
        kind: FragmentKind::Path,
        level: 0,
        partition: PartitionId(0),
        edges: vec![real(10, 1, 2), real(11, 2, 3)],
    });
    store.push(Fragment {
        id: FragmentId(0),
        kind: FragmentKind::Cycle,
        level: 0,
        partition: PartitionId(0),
        edges: vec![real(20, 2, 7), real(21, 7, 2)],
    });
    for v in 7..3007 {
        store.push(Fragment {
            id: FragmentId(0),
            kind: FragmentKind::Cycle,
            level: 0,
            partition: PartitionId(1),
            edges: vec![real(2 * v + 100, v, v + 1), real(2 * v + 101, v + 1, v)],
        });
    }
    store.push(Fragment {
        id: FragmentId(0),
        kind: FragmentKind::Cycle,
        level: 1,
        partition: PartitionId(0),
        edges: vec![
            real(0, 0, 1),
            TourEdge::Virtual { fragment: p, from: VertexId(1), to: VertexId(3) },
            real(1, 3, 0),
        ],
    });
    let result = unroll(&store).unwrap();
    assert_eq!(result.num_circuits(), 1);
    assert_eq!(result.total_edges(), 6 + 2 * 3000);
    let stats = store.stats();
    assert_eq!(stats.spilled_fragments, 3003, "budget 0 spills everything");
    assert_eq!(stats.spill_errors, 0);
    assert!(stats.spill_writes > 1, "several runs: {stats:?}");
    assert_eq!(
        stats.spill_read_longs,
        2 * stats.spill_write_longs,
        "each pass reads every spilled Long once: {stats:?}"
    );
    assert!(stats.spill_reads <= 2 * stats.spill_writes, "one read per run and pass: {stats:?}");
}

/// A spill file that loses its contents under the store makes Phase 3 fail
/// with an I/O error, not a panic. The file is unlinked as soon as it is
/// created, so it is cut short through the process's own descriptor link.
#[test]
fn a_failed_spill_reload_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("euler_reload_failure_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = FragmentStore::spilling(SpillConfig::with_budget(0).in_directory(&dir));
    let edges = |first: u64| {
        (first..first + 3)
            .map(|e| TourEdge::Real {
                edge: EdgeId(e),
                from: VertexId(e),
                to: VertexId(if e == first + 2 { first } else { e + 1 }),
            })
            .collect()
    };
    let ids: Vec<FragmentId> = [0, 10]
        .map(|first| {
            store.push(Fragment {
                id: FragmentId(0),
                kind: FragmentKind::Cycle,
                level: 0,
                partition: PartitionId(0),
                edges: edges(first),
            })
        })
        .to_vec();
    // Reading one record writes the staged ones out: the file now holds all.
    assert_eq!(store.get(ids[0]).edges, edges(0));
    assert_eq!(store.stats().spilled_fragments, 2);

    let link = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|fd| std::fs::read_link(fd).is_ok_and(|target| target.starts_with(&dir)))
        .expect("the store holds its spill file open");
    std::fs::OpenOptions::new().write(true).open(&link).unwrap().set_len(0).unwrap();

    let err = unroll(&store).expect_err("a truncated spill file cannot be reloaded");
    assert!(matches!(err, EulerError::Graph(GraphError::Io(_))), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}
