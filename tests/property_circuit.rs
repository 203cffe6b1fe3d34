//! Property-based tests over the end-to-end pipeline: for randomly generated
//! Eulerian graphs, random partition counts and every merge strategy, the
//! reconstructed circuit must cover every edge exactly once, chain, and
//! close — and the two execution backends must agree.

use euler_circuit::algo::verify::verify_result;
use euler_circuit::bsp::BspConfig;
use euler_circuit::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a connected Eulerian graph from a seed: a shuffled Hamiltonian
/// backbone plus extra random cycles.
fn graph_from(seed: u64, n: u64, extra: usize) -> Graph {
    synthetic::random_eulerian_connected(n.max(4), extra, 5, seed)
}

/// A hub-heavy Eulerian multigraph: a `k`-cycle of hubs where hub `i % k`
/// carries `petals[i]` triangle petals, plus `digons[i]` doubled parallel
/// edges between consecutive hubs. Every petal and digon is an internal
/// cycle that `mergeInto` must splice into an earlier fragment, and the
/// parallel edges make the pivot vertex visible many times over — the
/// deep-splice-chain stress for the first-occurrence rotation semantics.
/// All degrees stay even by construction (triangles add 2 everywhere they
/// touch, digons add 2 to both endpoints), and the core keeps it connected.
fn hub_multigraph(k: u64, petals: &[u8], digons: &[u8]) -> Graph {
    let total: u64 = petals.iter().map(|&p| p as u64).sum();
    let mut b = GraphBuilder::with_vertices(k + 2 * total);
    for i in 0..k {
        b.add_edge(i, (i + 1) % k);
    }
    let mut next = k;
    for (i, &p) in petals.iter().enumerate() {
        let hub = i as u64 % k;
        for _ in 0..p {
            let (x, y) = (next, next + 1);
            next += 2;
            b.add_edge(hub, x);
            b.add_edge(x, y);
            b.add_edge(y, hub);
        }
    }
    for (i, &d) in digons.iter().enumerate() {
        let (u, v) = (i as u64 % k, (i as u64 + 1) % k);
        for _ in 0..d {
            b.add_edge(u, v);
            b.add_edge(u, v);
        }
    }
    b.build().expect("hub multigraph edges always valid")
}

/// Runs the pipeline on the in-process backend, returning circuit + report.
fn run_pipeline(
    g: &Graph,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
) -> (CircuitResult, RunReport) {
    run_with_backend(g, assignment, config, &InProcessBackend::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The circuit covers every edge exactly once and closes, for any seed,
    /// size, partition count and partitioner.
    #[test]
    fn circuit_covers_every_edge_exactly_once(
        seed in 0u64..1000,
        n in 8u64..120,
        extra in 0usize..12,
        parts in 1u32..9,
        use_hash in any::<bool>(),
    ) {
        let g = graph_from(seed, n, extra);
        let assignment = if use_hash {
            HashPartitioner::new(parts).partition(&g)
        } else {
            LdgPartitioner::new(parts).partition(&g)
        };
        let (result, report) = run_pipeline(&g, &assignment, &EulerConfig::default());
        prop_assert!(verify_result(&g, &result).is_ok());
        prop_assert_eq!(result.total_edges(), g.num_edges());
        prop_assert_eq!(result.num_circuits(), 1);
        // Coordination cost is logarithmic in the partition count.
        prop_assert!(report.supersteps <= (parts as f64).log2().ceil() as u32 + 1);
    }

    /// All three merge strategies produce valid circuits over the same input,
    /// and the deferred strategy never uses more active memory than the
    /// baseline.
    #[test]
    fn merge_strategies_are_equivalent_in_coverage(
        seed in 0u64..500,
        n in 12u64..80,
        parts in 2u32..7,
    ) {
        let g = graph_from(seed, n, 6);
        let assignment = LdgPartitioner::new(parts).partition(&g);
        let mut totals = Vec::new();
        let mut baseline_memory = None;
        for strategy in MergeStrategy::all() {
            let config = EulerConfig::default().with_merge_strategy(strategy);
            let (result, report) = run_pipeline(&g, &assignment, &config);
            prop_assert!(verify_result(&g, &result).is_ok());
            totals.push(result.total_edges());
            let cumulative: u64 = report.cumulative_memory_by_level().iter().sum();
            match strategy {
                MergeStrategy::Duplicated => baseline_memory = Some(cumulative),
                _ => prop_assert!(cumulative <= baseline_memory.unwrap()),
            }
        }
        prop_assert!(totals.iter().all(|&t| t == g.num_edges()));
    }

    /// The partition-centric result always matches the sequential Hierholzer
    /// oracle in edge coverage and circuit count.
    #[test]
    fn matches_hierholzer_oracle(seed in 0u64..500, n in 8u64..100, parts in 1u32..6) {
        let g = graph_from(seed, n, 4);
        let assignment = HashPartitioner::new(parts).partition(&g);
        let (result, _) = run_pipeline(&g, &assignment, &EulerConfig::default());
        let oracle = hierholzer_circuit(&g).unwrap();
        prop_assert_eq!(result.total_edges(), oracle.total_edges());
        prop_assert_eq!(result.num_circuits(), oracle.num_circuits());
    }

    /// Backend equivalence for the API redesign: `EulerPipeline` over
    /// `InProcessBackend` and over `BspBackend` must produce *identical*
    /// circuits and identical `total_transfer_longs` on any generated
    /// Eulerian graph. Sequential in-process execution and a single BSP
    /// worker stepped in place run the partitions in ascending id order, and
    /// fragment ids — and therefore the unrolled circuits — match exactly;
    /// the transfer accounting must also match on the default BSP workers
    /// (one per partition, in place) and on thread workers behind the
    /// in-memory transport.
    #[test]
    fn pipeline_backends_produce_identical_circuits(
        seed in 0u64..500,
        n in 8u64..90,
        extra in 0usize..10,
        parts in 1u32..7,
    ) {
        let g = graph_from(seed, n, extra);
        let assignment = LdgPartitioner::new(parts).partition(&g);
        let config = EulerConfig::default().sequential();

        let in_proc = EulerPipeline::builder()
            .graph(&g)
            .assignment(assignment.clone())
            .config(config.clone())
            .backend(InProcessBackend::new())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let bsp = EulerPipeline::builder()
            .graph(&g)
            .assignment(assignment.clone())
            .config(config)
            .backend(BspBackend::with_engine(BspConfig::with_workers(1)))
            .build()
            .unwrap()
            .run()
            .unwrap();

        // Identical circuits, edge for edge.
        prop_assert_eq!(&in_proc.circuit.result.circuits, &bsp.circuit.result.circuits);
        prop_assert_eq!(in_proc.merge.total_transfer_longs, bsp.merge.total_transfer_longs);
        prop_assert_eq!(in_proc.merge.supersteps, bsp.merge.supersteps);

        // The unified per-level records agree on every measurement-free field.
        prop_assert_eq!(in_proc.merge.per_partition.len(), bsp.merge.per_partition.len());
        for (a, b) in in_proc.merge.per_partition.iter().zip(&bsp.merge.per_partition) {
            prop_assert_eq!(a.level, b.level);
            prop_assert_eq!(a.partition, b.partition);
            prop_assert_eq!(a.counts, b.counts);
            prop_assert_eq!(a.complexity, b.complexity);
            prop_assert_eq!(a.memory_longs, b.memory_longs);
            prop_assert_eq!(a.remote_needed_now, b.remote_needed_now);
            prop_assert_eq!(a.transfer_in_longs, b.transfer_in_longs);
            prop_assert_eq!(a.paths_found, b.paths_found);
            prop_assert_eq!(a.cycles_found, b.cycles_found);
            prop_assert_eq!(a.internal_cycles_merged, b.internal_cycles_merged);
        }

        // Transfer accounting is schedule-independent: concurrent workers —
        // one per partition stepped in place, two behind the in-memory
        // transport — must ship the same number of Longs.
        for backend in [
            BspBackend::new(),
            BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(MemTransport)),
        ] {
            let parallel_bsp = EulerPipeline::builder()
                .graph(&g)
                .assignment(assignment.clone())
                .backend(backend)
                .build()
                .unwrap()
                .run()
                .unwrap();
            prop_assert_eq!(parallel_bsp.merge.total_transfer_longs, in_proc.merge.total_transfer_longs);
            prop_assert!(verify_result(&g, &parallel_bsp.circuit.result).is_ok());
        }
    }

    /// Determinism regression for the dense Phase-1 rewrite: on every
    /// partition of every generated Eulerian graph, the flat-array kernel
    /// (`run_phase1`) and the retained hash-map reference
    /// (`run_phase1_reference`) must produce bit-identical fragments, path
    /// maps and residual partition state.
    #[test]
    fn phase1_dense_matches_reference_semantics(
        seed in 0u64..500,
        n in 8u64..100,
        extra in 0usize..10,
        parts in 1u32..7,
        use_hash in any::<bool>(),
    ) {
        use euler_circuit::algo::phase1::{reference::run_phase1_reference, run_phase1};
        use euler_circuit::algo::{FragmentStore, WorkingPartition};
        let g = graph_from(seed, n, extra);
        let assignment = if use_hash {
            HashPartitioner::new(parts).partition(&g)
        } else {
            LdgPartitioner::new(parts).partition(&g)
        };
        let pg = PartitionedGraph::from_assignment(&g, &assignment).unwrap();
        for p in pg.partitions() {
            let mut wp_dense = WorkingPartition::from_partition(p);
            let mut wp_ref = wp_dense.clone();
            let store_dense = FragmentStore::new();
            let store_ref = FragmentStore::new();
            let out_dense = run_phase1(&mut wp_dense, &store_dense);
            let out_ref = run_phase1_reference(&mut wp_ref, &store_ref);
            prop_assert_eq!(out_dense.path_map, out_ref.path_map);
            prop_assert_eq!(out_dense.complexity, out_ref.complexity);
            prop_assert_eq!(out_dense.vertices_after, out_ref.vertices_after);
            // The splice-order index's counters are semantic, not
            // implementation detail: both kernels must report the same
            // pivot lookups, linked splices and materialised Longs.
            prop_assert_eq!(out_dense.splice, out_ref.splice);
            prop_assert_eq!(wp_dense.local_edges, wp_ref.local_edges);
            prop_assert_eq!(wp_dense.remote_edges, wp_ref.remote_edges);
            prop_assert_eq!(store_dense.snapshot(), store_ref.snapshot());
        }
    }

    /// Deep splice chains: on hub/star multigraphs (many internal cycles
    /// merging into one pending fragment, parallel edges included) the
    /// splice-order index must reproduce the reference's first-occurrence
    /// rotation semantics bit for bit — fragments, path maps, splice
    /// counters. The full pipeline must still solve the graph.
    #[test]
    fn phase1_dense_matches_reference_on_hub_multigraphs(
        k in 3u64..24,
        petals in prop::collection::vec(0u8..6, 1..24),
        digons in prop::collection::vec(0u8..3, 0..12),
        parts in 1u32..5,
    ) {
        use euler_circuit::algo::phase1::{reference::run_phase1_reference, run_phase1};
        use euler_circuit::algo::{FragmentStore, WorkingPartition};
        let g = hub_multigraph(k, &petals, &digons);
        prop_assert!(is_eulerian(&g).is_ok());
        let assignment = LdgPartitioner::new(parts).partition(&g);
        let pg = PartitionedGraph::from_assignment(&g, &assignment).unwrap();
        for p in pg.partitions() {
            let mut wp_dense = WorkingPartition::from_partition(p);
            let mut wp_ref = wp_dense.clone();
            let store_dense = FragmentStore::new();
            let store_ref = FragmentStore::new();
            let out_dense = run_phase1(&mut wp_dense, &store_dense);
            let out_ref = run_phase1_reference(&mut wp_ref, &store_ref);
            prop_assert_eq!(&out_dense.path_map, &out_ref.path_map);
            prop_assert_eq!(out_dense.splice, out_ref.splice);
            prop_assert_eq!(wp_dense.local_edges, wp_ref.local_edges);
            prop_assert_eq!(store_dense.snapshot(), store_ref.snapshot(), "splice order diverged");
        }
        // End to end: the hub storm still unrolls into one valid circuit.
        let (result, _) = run_pipeline(&g, &assignment, &EulerConfig::default());
        prop_assert!(verify_result(&g, &result).is_ok());
        prop_assert_eq!(result.total_edges(), g.num_edges());
    }

    /// Eulerization always produces a graph the pipeline can solve, whatever
    /// the input (including disconnected and odd-degree-heavy graphs).
    #[test]
    fn eulerized_arbitrary_graphs_are_solved(
        edges in prop::collection::vec((0u64..40, 0u64..40), 1..150),
        parts in 1u32..5,
    ) {
        let mut b = GraphBuilder::with_vertices(40);
        b.extend_edges(edges.iter().copied());
        let raw = b.build().unwrap();
        let (g, _) = eulerize(&raw);
        prop_assert!(is_eulerian(&g).is_ok());
        let assignment = LdgPartitioner::new(parts).partition(&g);
        let (result, _) = run_pipeline(&g, &assignment, &EulerConfig::default());
        prop_assert!(verify_result(&g, &result).is_ok());
        prop_assert_eq!(result.total_edges(), g.num_edges());
    }

    /// `.ecsr` round-trip for the API redesign: any random multigraph packed
    /// to a binary CSR file and mapped back must yield the *same* partitions
    /// and — through the pipeline's direct slicing path — bit-identical
    /// circuits and transfer accounting to the in-memory source.
    #[test]
    fn csr_file_roundtrip_matches_in_memory_source(
        edges in prop::collection::vec((0u64..30, 0u64..30), 1..120),
        parts in 1u32..6,
        case in 0u64..1_000_000,
    ) {
        let mut b = GraphBuilder::with_vertices(30);
        b.extend_edges(edges.iter().copied());
        let (g, _) = eulerize(&b.build().unwrap());
        let assignment = LdgPartitioner::new(parts).partition(&g);
        let config = EulerConfig::default().sequential();

        let dir = std::env::temp_dir().join("euler_property_csr");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip_{case}_{parts}.ecsr"));
        write_csr_file(&g, &path).unwrap();
        let source = MmapCsrSource::open(&path).unwrap();

        // The mapped file reconstructs the graph exactly...
        let reloaded = source.load().unwrap();
        prop_assert_eq!(reloaded.num_vertices(), g.num_vertices());
        prop_assert_eq!(reloaded.num_edges(), g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(reloaded.neighbors(v), g.neighbors(v));
        }
        // ...slices identical partitions...
        let sliced = source.csr().unwrap().partitioned(&assignment).unwrap();
        let built = PartitionedGraph::from_assignment(&g, &assignment).unwrap();
        prop_assert_eq!(sliced.cut_edges(), built.cut_edges());
        for (a, b) in sliced.partitions().iter().zip(built.partitions()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.internal, &b.internal);
            prop_assert_eq!(&a.boundary, &b.boundary);
            prop_assert_eq!(&a.local_edges, &b.local_edges);
            prop_assert_eq!(&a.remote_edges, &b.remote_edges);
        }
        // ...and the end-to-end runs are bit-identical.
        let from_csr = EulerPipeline::builder()
            .source(source)
            .assignment(assignment.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let from_mem = EulerPipeline::builder()
            .graph(&g)
            .assignment(assignment)
            .config(config)
            .build()
            .unwrap()
            .run()
            .unwrap();
        prop_assert_eq!(&from_csr.circuit.result.circuits, &from_mem.circuit.result.circuits);
        prop_assert_eq!(from_csr.merge.total_transfer_longs, from_mem.merge.total_transfer_longs);
        prop_assert!(verify_result(&g, &from_csr.circuit.result).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
