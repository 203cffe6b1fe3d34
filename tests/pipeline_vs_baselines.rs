//! Cross-crate integration tests: the distributed partition-centric pipeline
//! against the sequential baselines, over every generator family and
//! partitioner in the workspace — all through the `EulerPipeline` builder.

use euler_circuit::algo::verify::verify_result;
use euler_circuit::prelude::*;
use std::sync::Arc;

/// Runs the partition-centric pipeline and checks it covers exactly the same
/// edge set as the Hierholzer oracle, with valid closed circuits.
fn check_against_oracle(g: &Graph, parts: u32) {
    let run = EulerPipeline::builder()
        .graph(g)
        .partitioner(LdgPartitioner::new(parts))
        .build()
        .unwrap()
        .run()
        .unwrap();
    verify_result(g, &run.circuit.result).unwrap();

    let oracle = hierholzer_circuit(g).unwrap();
    assert_eq!(run.circuit.result.total_edges(), oracle.total_edges());
    assert_eq!(run.circuit.result.num_circuits(), oracle.num_circuits());
    assert_eq!(run.circuit.result.total_edges(), g.num_edges());
    assert!(run.merge.supersteps >= 1);
}

#[test]
fn torus_grids_across_partition_counts() {
    for (rows, cols, parts) in [(6, 6, 1u32), (8, 10, 2), (10, 10, 4), (12, 12, 8)] {
        let g = synthetic::torus_grid(rows, cols);
        check_against_oracle(&g, parts);
    }
}

#[test]
fn circulant_graphs() {
    for (n, offsets) in [(31u64, vec![1u64, 2]), (60, vec![1, 3, 7]), (101, vec![2, 5])] {
        let g = synthetic::circulant(n, &offsets);
        check_against_oracle(&g, 4);
    }
}

#[test]
fn random_eulerian_graphs_many_seeds() {
    for seed in 0..8u64 {
        let g = synthetic::random_eulerian_connected(150, 20, 6, seed);
        check_against_oracle(&g, 5);
    }
}

#[test]
fn eulerized_rmat_graphs() {
    for name in ["G20/P2", "G40/P8"] {
        let config = GraphConfig::by_name(name).unwrap();
        let (g, info) = config.generate(-7);
        assert!(info.final_edges >= info.original_edges);
        check_against_oracle(&g, config.partitions);
    }
}

#[test]
fn polyhedra_after_eulerization() {
    for mesh in [synthetic::octahedron(), synthetic::icosahedron()] {
        let (g, _) = eulerize(&mesh);
        check_against_oracle(&g, 2);
    }
}

#[test]
fn fleury_and_makki_agree_with_partition_centric() {
    let g = synthetic::random_eulerian_connected(40, 6, 5, 3);
    let run = EulerPipeline::builder()
        .graph(&g)
        .partitioner(HashPartitioner::new(3))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let pc = &run.circuit.result;
    let fleury = fleury_circuit(&g).unwrap();
    let makki = MakkiRunner::new().run(&g).unwrap();
    assert_eq!(pc.total_edges(), fleury.total_edges());
    assert_eq!(pc.total_edges(), makki.result.total_edges());
    assert_eq!(pc.num_circuits(), 1);
    assert_eq!(makki.result.num_circuits(), 1);
}

#[test]
fn all_partitioners_produce_valid_inputs_for_the_pipeline() {
    let g = synthetic::torus_grid(12, 12);
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(HashPartitioner::new(4)),
        Box::new(LdgPartitioner::new(4)),
        Box::new(BfsPartitioner::new(4)),
    ];
    for p in partitioners {
        let name = p.name();
        let assignment = p.partition(&g);
        let run = EulerPipeline::builder()
            .graph(&g)
            .assignment(assignment)
            .build()
            .unwrap()
            .run()
            .unwrap();
        verify_result(&g, &run.circuit.result).unwrap();
        assert_eq!(run.circuit.result.total_edges(), g.num_edges(), "partitioner {name}");
    }
}

#[test]
fn bsp_backend_agrees_with_in_process_backend() {
    let g = synthetic::random_eulerian_connected(100, 12, 5, 7);
    let assignment = LdgPartitioner::new(4).partition(&g);
    let in_process = EulerPipeline::builder()
        .graph(&g)
        .assignment(assignment.clone())
        .backend(InProcessBackend::new())
        .build()
        .unwrap()
        .run()
        .unwrap();
    // BSP workers stepped in place (1, 2, one per partition) and behind the
    // in-memory transport.
    let in_place = |workers| BspBackend::with_engine(BspConfig::with_workers(workers));
    for backend in [
        in_place(1),
        in_place(2),
        BspBackend::new(),
        in_place(2).with_transport(Arc::new(MemTransport)),
    ] {
        let bsp = EulerPipeline::builder()
            .graph(&g)
            .assignment(assignment.clone())
            .backend(backend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        verify_result(&g, &bsp.circuit.result).unwrap();
        assert_eq!(in_process.circuit.result.total_edges(), bsp.circuit.result.total_edges());
        // The unified report has the same shape on both backends; the BSP
        // workers ran exactly one superstep per merge level.
        assert_eq!(in_process.merge.supersteps, bsp.merge.supersteps);
        let engine = bsp.merge.engine.as_ref().expect("engine stats present");
        assert_eq!(engine.num_supersteps(), bsp.merge.supersteps);
    }
}

/// The mid-level entry points agree with the builder API — `run_with_backend`
/// and its `Graph`-free core `run_on_partitioned` drive the same walk.
#[test]
fn mid_level_entry_points_match_the_builder() {
    let g = synthetic::random_eulerian_connected(90, 10, 5, 13);
    let assignment = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default().sequential();

    let run = EulerPipeline::builder()
        .graph(&g)
        .assignment(assignment.clone())
        .config(config.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let (mid_result, mid_report) =
        run_with_backend(&g, &assignment, &config, &InProcessBackend::new()).unwrap();
    // Sequential runs are fully deterministic: every path produces identical
    // circuits and identical transfer accounting.
    assert_eq!(mid_result.circuits, run.circuit.result.circuits);
    assert_eq!(mid_report.total_transfer_longs, run.merge.total_transfer_longs);
    assert_eq!(mid_report.supersteps, run.merge.supersteps);
    assert_eq!(mid_report.backend, "in-process");

    let pg = PartitionedGraph::from_assignment(&g, &assignment).unwrap();
    let (core_result, core_report) =
        run_on_partitioned(&pg, &config, &InProcessBackend::new()).unwrap();
    verify_result(&g, &core_result).unwrap();
    assert_eq!(core_result.circuits, mid_result.circuits);
    assert_eq!(core_report.total_transfer_longs, mid_report.total_transfer_longs);
}

/// The mmap CSR source feeds the whole pipeline: packed from the same graph,
/// the direct slicing path must reproduce the in-memory run bit for bit.
#[test]
fn mmap_csr_source_matches_in_memory_source() {
    let g = synthetic::random_eulerian_connected(130, 18, 6, 29);
    let assignment = LdgPartitioner::new(5).partition(&g);
    let config = EulerConfig::default().sequential();
    let dir = std::env::temp_dir().join("euler_integration_csr");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.ecsr");
    write_csr_file(&g, &path).unwrap();

    let from_csr = EulerPipeline::builder()
        .source(MmapCsrSource::open(&path).unwrap())
        .assignment(assignment.clone())
        .config(config.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let from_mem = EulerPipeline::builder()
        .source(InMemorySource::new(g.clone()))
        .assignment(assignment)
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    verify_result(&g, &from_csr.circuit.result).unwrap();
    assert_eq!(from_csr.circuit.result.circuits, from_mem.circuit.result.circuits);
    assert_eq!(from_csr.merge.total_transfer_longs, from_mem.merge.total_transfer_longs);
    assert_eq!(from_csr.partition.partitioner, "pre-assigned (direct csr slice)");
    std::fs::remove_file(&path).ok();
}
