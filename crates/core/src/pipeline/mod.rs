//! The unified Euler pipeline: one merge-tree walk, pluggable execution
//! backends, staged outputs.
//!
//! The paper's algorithm is a single pipeline — load the graph, partition it,
//! run the Phase-1/2 merge tree, unroll the circuit in Phase 3 — that the
//! paper separates cleanly from its Spark substrate. This module mirrors that
//! separation:
//!
//! * [`EulerPipeline`] is the session-style entry point: a builder
//!   (`EulerPipeline::builder().source(..).partitioner(..).strategy(..)
//!   .backend(..).build()`) producing a [`PipelineRun`] whose typed stages
//!   ([`PartitionStage`] → [`MergeStage`] → [`CircuitStage`]) each carry
//!   their slice of the unified [`RunReport`].
//! * [`ExecutionBackend`] is the substrate seam. The merge-tree walk lives
//!   *here*, in [`run_with_backend`]; a backend only executes one level at a
//!   time ([`ExecutionBackend::run_level`]), and every backend runs a
//!   partition's share of a level through the same step (`crate::level`):
//!   merge the children shipped at the previous level, Phase 1, keep or
//!   ship — and through the same slot set and barrier fold
//!   ([`crate::distributed`]). [`InProcessBackend`] is one worker holding
//!   every partition, stepped in place, so every shipped state reaches its
//!   parent by value; [`BspBackend`] runs
//!   the level as one superstep of a set of workers that serialise what they
//!   ship to each other (shuffle accounting, per-partition time splits) —
//!   stepped in place, or over a wire transport. Workers in place, of either
//!   backend, step a level's slots from one call on rayon threads when it
//!   carries enough work to pay for the hand-off. Whatever the backend
//!   runs concurrently, fragments are named and walked by `(level,
//!   partition, push sequence)` ([`crate::FragmentId`]), so every backend,
//!   thread count and worker count produces the same bytes.
//! * [`euler_graph::GraphSource`] is the input seam (see
//!   [`EulerPipelineBuilder::source`]): in-memory graphs, chunked edge-list
//!   files, and memory-mapped binary CSR files
//!   ([`euler_graph::MmapCsrSource`]). A CSR-backed source combined with a
//!   precomputed assignment takes the *direct slicing path*: one pass over
//!   the mapped endpoints section counts level 0 (`crate::level0`), and the
//!   backend fills the partition states from that section where they will
//!   run — a [`Seed`] — so no full [`Graph`] and no partition view is ever
//!   materialised — the multi-GB loading mode the paper's scale targets
//!   require. A resident [`Graph`] is the same two arrays and takes the same
//!   path ([`euler_graph::EdgeArrays`]).

mod backend;
mod builder;
mod report;
mod walk;
pub(crate) mod wire;

pub(crate) use backend::SeedKind;
pub use backend::{BspBackend, ExecutionBackend, InProcessBackend, LevelOutcome, LevelWork, Seed};
pub use builder::{CircuitStage, EulerPipeline, EulerPipelineBuilder, MergeStage, PartitionStage, PipelineRun};
pub use report::{LevelPartitionReport, RunReport};
pub use walk::run_with_backend;
pub(crate) use walk::{checked_scan, run_input, Input};

use crate::config::EulerConfig;
use crate::distributed::DistRun;
use crate::error::EulerError;
use crate::fragment::{FragmentStore, FragmentStoreStats, SpillConfig};
use crate::level0::{self, Level0, Scan};
use crate::memory_model::{LevelTrace, PartitionLevelState};
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::MergeTree;
use crate::phase1::wstream::{stream_phase1, WStreamStats};
use crate::phase2::apply_remote_edge_dedup;
use crate::phase3::{unroll, CircuitResult};
use crate::state::{VertexTypeCounts, WorkingPartition};
use crate::verify::verify_steps;
use euler_graph::{CsrFile, EdgeArrays, EdgeStream, Graph, GraphSource, PartitionAssignment, PartitionId, VertexId};
use euler_partition::Partitioner;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(test)]
mod tests {
    use super::walk::run_merge_walk;
    use super::*;
    use crate::verify::verify_result;
    use euler_gen::synthetic;
    use euler_partition::{HashPartitioner, LdgPartitioner, Partitioner};

    fn builder_for(g: &Graph, parts: u32) -> EulerPipelineBuilder {
        EulerPipeline::builder().graph(g).partitioner(LdgPartitioner::new(parts))
    }

    #[test]
    fn builder_requires_source_and_partitioner() {
        let g = synthetic::torus_grid(4, 4);
        let err = EulerPipeline::builder().graph(&g).build().unwrap_err();
        assert!(matches!(err, EulerError::InvalidConfig(_)));
        let err = EulerPipeline::builder().partitioner(HashPartitioner::new(2)).build().unwrap_err();
        assert!(matches!(err, EulerError::InvalidConfig(_)));
    }

    #[test]
    fn pipeline_stages_carry_the_report_slices() {
        let g = synthetic::torus_grid(8, 8);
        let run = builder_for(&g, 4).verify(true).build().unwrap().run().unwrap();
        // Partition stage.
        assert!(run.partition.source.contains("in-memory"));
        assert_eq!(run.partition.partitioner, "ldg");
        assert_eq!(run.partition.num_partitions, 4);
        assert_eq!(run.partition.num_edges, g.num_edges());
        assert_eq!(run.partition.assignment.num_partitions(), 4);
        // Merge stage: 4 partitions -> 3 supersteps, records at every level.
        assert_eq!(run.merge.supersteps, 3);
        assert_eq!(run.merge.backend, "in-process");
        assert!(run.merge.engine.is_none());
        assert!(run.merge.total_transfer_longs > 0);
        // Circuit stage.
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        assert!(run.circuit.fragment_disk_longs > 0);
        // The reassembled unified report matches the stages.
        let report = run.report();
        assert_eq!(report.supersteps, 3);
        assert_eq!(report.level(0).len(), 4);
        assert_eq!(report.level(2).len(), 1);
        assert_eq!(report.backend, "in-process");
    }

    #[test]
    fn bsp_backend_carries_engine_stats() {
        let g = synthetic::torus_grid(8, 8);
        let run = builder_for(&g, 4).backend(BspBackend::new()).verify(true).build().unwrap().run().unwrap();
        assert_eq!(run.merge.backend, "bsp");
        let engine = run.merge.engine.as_ref().expect("bsp runs report engine stats");
        // One superstep per merge level.
        assert_eq!(engine.num_supersteps(), run.merge.supersteps);
        assert!(engine.total_remote_bytes() > 0, "children ship state across workers");
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        // The unified per-level report is populated identically in shape.
        assert_eq!(run.report().level(0).len(), 4);
    }

    #[test]
    fn backends_agree_on_records_fragments_circuits_and_transfers() {
        // The in-process backend is one worker stepped in place, fanned out
        // by default: against a one-worker BSP run, which steps its slots one
        // at a time, the same bytes — and no superstep statistics.
        let g = synthetic::random_eulerian_connected(120, 16, 6, 42);
        let a = LdgPartitioner::new(4).partition(&g);
        for config in [EulerConfig::default(), EulerConfig::default().sequential()] {
            let walk = |backend: &dyn ExecutionBackend| {
                let dedup = config.merge_strategy.deduplicates();
                let (edges, assignment) = (g.edge_arrays(), &a);
                let scan = level0::scan(edges, assignment).unwrap();
                let tree = MergeTree::build(&scan.meta());
                let levels = tree.leaf_levels(a.num_partitions());
                let seed = Seed(SeedKind::Level0(Level0 { edges, file: None, assignment, scan, dedup, levels }));
                let store = FragmentStore::new();
                let (result, report) = run_merge_walk(tree, seed, store.clone(), &config, backend, None, None).unwrap();
                (result, report, store.snapshot())
            };
            let (in_proc, in_proc_report, in_proc_fragments) = walk(&InProcessBackend::new());
            let one_worker = BspBackend::with_engine(euler_bsp::BspConfig::with_workers(1));
            let (bsp, bsp_report, bsp_fragments) = walk(&one_worker);
            assert_eq!(in_proc.circuits, bsp.circuits);
            assert_eq!(in_proc_report.total_transfer_longs, bsp_report.total_transfer_longs);
            assert_eq!(in_proc_fragments, bsp_fragments);
            assert_eq!(in_proc_report.per_partition.len(), bsp_report.per_partition.len());
            for (x, y) in in_proc_report.per_partition.iter().zip(&bsp_report.per_partition) {
                assert_eq!(record_facts(x), record_facts(y));
            }
            assert_eq!(in_proc_report.backend, "in-process");
            assert!(in_proc_report.engine.is_none() && in_proc_report.warnings.is_empty());
            assert!(bsp_report.engine.is_some());
        }
    }

    /// The measurement-free projection of a per-level record (timings differ
    /// run to run; everything else must be bit-stable).
    fn record_facts(r: &LevelPartitionReport) -> impl PartialEq + std::fmt::Debug {
        (
            r.level,
            r.partition,
            r.counts,
            r.complexity,
            r.memory_longs,
            r.remote_needed_now,
            r.transfer_in_longs,
            (r.paths_found, r.cycles_found, r.internal_cycles_merged),
        )
    }

    fn assert_same_run(a: &PipelineRun, b: &PipelineRun) {
        assert_eq!(a.circuit.result.circuits, b.circuit.result.circuits);
        assert_eq!(a.merge.total_transfer_longs, b.merge.total_transfer_longs);
        assert_eq!(a.merge.supersteps, b.merge.supersteps);
        assert_eq!(a.merge.per_partition.len(), b.merge.per_partition.len());
        for (x, y) in a.merge.per_partition.iter().zip(&b.merge.per_partition) {
            assert_eq!(record_facts(x), record_facts(y));
        }
    }

    #[test]
    fn fan_out_and_multi_worker_engines_match_the_sequential_run_bit_for_bit() {
        // The determinism headline: fragment ids are a function of (level,
        // partition, push sequence), so however a level's partitions are
        // scheduled — rayon fan-out, several BSP workers stepped in place
        // or behind the in-memory transport — the run equals the fully
        // sequential one: circuits, per-level records, transfers.
        let g = synthetic::random_eulerian_connected(6_000, 600, 8, 77);
        let a = LdgPartitioner::new(4).partition(&g);
        let run =
            |builder: EulerPipelineBuilder| builder.graph(&g).assignment(a.clone()).build().unwrap().run().unwrap();
        let sequential = run(EulerPipeline::builder().sequential());
        // Level 0's four partitions carry enough work to fan out, so the runs
        // below really are scheduled concurrently: a state record holds four
        // words per local edge and three per remote ref, besides its header.
        let level0 = sequential.merge.per_partition.iter().filter(|r| r.level == 0);
        let words: u64 = level0.map(|r| 4 * r.counts.local_edges + 3 * r.counts.remote_edges).sum();
        assert!(words >= crate::FAN_OUT_MIN_WORDS, "level 0 steps {words} words, under the gate");
        assert_same_run(&run(EulerPipeline::builder()), &sequential);
        for workers in [1usize, 2, 4] {
            let engine = euler_bsp::BspConfig::with_workers(workers);
            let bsp = run(EulerPipeline::builder().backend(BspBackend::with_engine(engine)));
            assert_same_run(&bsp, &sequential);
            let wire = BspBackend::with_engine(engine).with_transport(Arc::new(euler_bsp::MemTransport));
            assert_same_run(&run(EulerPipeline::builder().backend(wire)), &sequential);
        }
    }

    #[test]
    fn bsp_tree_sharing_preserves_behaviour() {
        // The BSP workers share the walk's merge tree behind an `Arc`; a
        // 1-worker BSP run must be observably identical to the sequential
        // in-process run — including across two runs of the same reused
        // backend object.
        let g = synthetic::random_eulerian_connected(90, 10, 5, 31);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let reference = EulerPipeline::builder()
            .graph(&g)
            .assignment(a.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let bsp_pipeline = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .config(config.clone())
            .backend(BspBackend::with_engine(euler_bsp::BspConfig::with_workers(1)))
            .build()
            .unwrap();
        for _ in 0..2 {
            let bsp = bsp_pipeline.run().unwrap();
            assert_same_run(&bsp, &reference);
            assert_eq!(bsp.merge.merge_tree, reference.merge.merge_tree);
            assert!(bsp.merge.engine.is_some());
        }
    }

    #[test]
    fn pipeline_reuses_a_backend_across_runs() {
        // Two consecutive runs of the same pipeline object must reset the
        // backend via the level-0 seed and produce identical results.
        let g = synthetic::torus_grid(6, 6);
        let pipeline = builder_for(&g, 2).build().unwrap();
        let first = pipeline.run().unwrap();
        let second = pipeline.run().unwrap();
        assert_eq!(first.circuit.result.total_edges(), second.circuit.result.total_edges());
        assert_eq!(first.merge.total_transfer_longs, second.merge.total_transfer_longs);
        assert_eq!(first.merge.supersteps, second.merge.supersteps);
    }

    #[test]
    fn file_source_feeds_the_pipeline() {
        let g = synthetic::torus_grid(6, 6);
        let dir = std::env::temp_dir().join("euler_pipeline_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torus.el");
        euler_graph::io::write_edge_list_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::EdgeListFileSource::new(&path))
            .partitioner(HashPartitioner::new(3))
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.num_edges, g.num_edges());
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        assert!(run.partition.source.contains("torus.el"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_eulerian_input_rejected_through_the_pipeline() {
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2)]);
        let err = builder_for(&g, 2).build().unwrap().run().unwrap_err();
        assert!(matches!(err, EulerError::Graph(euler_graph::GraphError::NotEulerian { .. })));
    }

    // --- The CSR direct slicing path. --------------------------------------

    fn csr_temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("euler_pipeline_csr_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn csr_source_with_assignment_takes_the_direct_slicing_path() {
        let g = synthetic::random_eulerian_connected(120, 14, 6, 21);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let path = csr_temp("direct.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();

        let from_csr = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .assignment(a.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let from_mem =
            EulerPipeline::builder().graph(&g).assignment(a).config(config.clone()).build().unwrap().run().unwrap();

        // The fast path is observable in the stage report, skips any load...
        assert_eq!(from_csr.partition.partitioner, "pre-assigned (direct csr slice)");
        assert_eq!(from_csr.partition.load_time, Duration::ZERO);
        assert_eq!(from_csr.partition.num_vertices, g.num_vertices());
        assert_eq!(from_csr.partition.num_edges, g.num_edges());
        // ...and produces the identical deterministic run.
        assert_eq!(from_csr.circuit.result.circuits, from_mem.circuit.result.circuits);
        assert_eq!(from_csr.merge.total_transfer_longs, from_mem.merge.total_transfer_longs);
        assert_eq!(from_csr.merge.supersteps, from_mem.merge.supersteps);
        verify_result(&g, &from_csr.circuit.result).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_source_with_a_partitioner_and_verify_stays_on_the_direct_path() {
        // `verify` checks the circuit against the mapped endpoints section,
        // so a verified run streams its assignment and loads no graph.
        let g = synthetic::torus_grid(8, 8);
        let path = csr_temp("partitioner_verify.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(4))
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.partitioner, "ldg (streamed, direct csr slice)");
        assert_eq!(run.partition.load_time, Duration::ZERO);
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        verify_result(&g, &run.circuit.result).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_whole_graph_partitioner_over_a_file_runs_from_the_file() {
        // BFS cannot stream, so it partitions a graph loaded from the file;
        // the run then reads the file again, not that graph, and wire
        // workers are sent a reference to it instead of their states.
        let g = synthetic::torus_grid(64, 64);
        let path = csr_temp("bfs_over_file.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let mem_wire = || {
            BspBackend::with_engine(euler_bsp::BspConfig::with_workers(2))
                .with_transport(Arc::new(euler_bsp::MemTransport))
        };
        let run = |builder: EulerPipelineBuilder| builder.backend(mem_wire()).build().unwrap().run().unwrap();
        let file = || euler_graph::MmapCsrSource::open(&path).unwrap();
        let bfs = run(EulerPipeline::builder().source(file()).partitioner(euler_partition::BfsPartitioner::new(4)));
        assert_eq!(bfs.partition.partitioner, "bfs (direct csr slice)");
        let a = bfs.partition.assignment.clone();
        let by_reference = run(EulerPipeline::builder().source(file()).assignment(a.clone()));
        let resident = run(EulerPipeline::builder().graph(&g).assignment(a));
        let init = |run: &PipelineRun| run.merge.engine.as_ref().expect("bsp runs report engine stats").init_bytes;
        assert_eq!(init(&bfs), init(&by_reference), "the file-reference Init of the assignment");
        assert!(init(&bfs) < init(&resident), "{} B vs the states' {} B", init(&bfs), init(&resident));
        assert_eq!(bfs.circuit.result.circuits, resident.circuit.result.circuits);
        verify_result(&g, &bfs.circuit.result).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_source_with_a_streaming_partitioner_takes_the_zero_graph_path() {
        let g = synthetic::random_eulerian_connected(130, 16, 6, 33);
        let config = EulerConfig::default().sequential();
        let path = csr_temp("streamed_partitioner.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        for (streamed, in_memory) in [
            (
                EulerPipeline::builder()
                    .source(euler_graph::MmapCsrSource::open(&path).unwrap())
                    .partitioner(LdgPartitioner::new(4))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
                EulerPipeline::builder()
                    .graph(&g)
                    .partitioner(LdgPartitioner::new(4))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
            ),
            (
                EulerPipeline::builder()
                    .source(euler_graph::MmapCsrSource::open(&path).unwrap())
                    .partitioner(HashPartitioner::new(3))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
                EulerPipeline::builder()
                    .graph(&g)
                    .partitioner(HashPartitioner::new(3))
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap(),
            ),
        ] {
            // The zero-Graph path is observable in the stage report...
            assert!(
                streamed.partition.partitioner.contains("streamed, direct csr slice"),
                "unexpected partitioner label {}",
                streamed.partition.partitioner
            );
            assert_eq!(streamed.partition.load_time, Duration::ZERO);
            // ...computes the identical assignment...
            for v in g.vertices() {
                assert_eq!(
                    streamed.partition.assignment.partition_of(v),
                    in_memory.partition.assignment.partition_of(v)
                );
            }
            // ...and the identical deterministic run.
            assert_eq!(streamed.circuit.result.circuits, in_memory.circuit.result.circuits);
            assert_eq!(streamed.merge.total_transfer_longs, in_memory.merge.total_transfer_longs);
            verify_result(&g, &streamed.circuit.result).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_source_with_a_bfs_ldg_partitioner_falls_back_to_loading() {
        // BFS placement needs random access to the graph — no streaming view
        // — so the partitioner loads one; the run itself reads the file.
        let g = synthetic::torus_grid(6, 6);
        let path = csr_temp("bfs_fallback.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .partitioner(LdgPartitioner::new(2).with_bfs_order())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.partitioner, "ldg (direct csr slice)");
        assert!(run.partition.load_time > Duration::ZERO);
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_budget_spills_and_stays_bit_identical() {
        let g = synthetic::random_eulerian_connected(160, 20, 6, 55);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let unbounded = EulerPipeline::builder()
            .graph(&g)
            .assignment(a.clone())
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        // A budget far below the total fragment bytes forces heavy paging.
        let budget = unbounded.circuit.fragment_disk_longs / 10;
        let bounded = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .config(config.clone())
            .memory_budget(budget)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(bounded.circuit.result.circuits, unbounded.circuit.result.circuits);
        assert_eq!(bounded.circuit.fragment_disk_longs, unbounded.circuit.fragment_disk_longs);
        assert_eq!(bounded.merge.total_transfer_longs, unbounded.merge.total_transfer_longs);
        let stats = bounded.circuit.fragment_stats;
        assert!(stats.spilled_fragments > 0, "budget {budget} must spill: {stats:?}");
        assert!(stats.spill_write_longs > 0);
        assert!(stats.spill_read_longs > 0, "phase 3 reloads spilled fragments");
        assert_eq!(stats.spill_errors, 0);
        assert!(
            stats.peak_resident_longs < unbounded.circuit.fragment_stats.peak_resident_longs,
            "bounded peak {} vs unbounded {}",
            stats.peak_resident_longs,
            unbounded.circuit.fragment_stats.peak_resident_longs
        );
        verify_result(&g, &bounded.circuit.result).unwrap();
    }

    #[test]
    fn csr_source_with_an_assignment_and_verify_stays_on_the_direct_path() {
        let g = synthetic::torus_grid(6, 6);
        let a = HashPartitioner::new(2).partition(&g);
        let path = csr_temp("assignment_verify.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let run = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .assignment(a)
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(run.partition.partitioner, "pre-assigned (direct csr slice)");
        assert_eq!(run.partition.load_time, Duration::ZERO);
        assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_fast_path_runs_the_degree_precheck_off_the_offsets() {
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2)]);
        let a = HashPartitioner::new(2).partition(&g);
        let path = csr_temp("odd.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let err = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&path).unwrap())
            .assignment(a)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, EulerError::Graph(euler_graph::GraphError::NotEulerian { .. })));
        std::fs::remove_file(&path).ok();
    }

    // --- Folded from the removed `runner` module's suite: the same
    // behavioural guarantees, stated against the pipeline API. -------------

    fn verify_ok(g: &Graph, assignment: &PartitionAssignment, config: &EulerConfig) {
        let (result, report) = run_with_backend(g, assignment, config, &InProcessBackend::new()).unwrap();
        verify_result(g, &result).unwrap();
        assert_eq!(result.total_edges(), g.num_edges());
        assert_eq!(report.num_partitions, assignment.num_partitions());
    }

    #[test]
    fn fig1_graph_end_to_end() {
        let (g, a) = synthetic::paper_fig1();
        let config = EulerConfig::default().with_verify(true);
        let (result, report) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        assert_eq!(result.num_circuits(), 1);
        assert_eq!(result.total_edges(), 16);
        // 4 partitions -> 3 supersteps (Fig. 2).
        assert_eq!(report.supersteps, 3);
        let seq = result.vertex_sequence().unwrap();
        assert_eq!(seq.first(), seq.last());
    }

    #[test]
    fn torus_grid_all_partitioners() {
        let g = synthetic::torus_grid(8, 10);
        for k in [1u32, 2, 3, 4] {
            let a = LdgPartitioner::new(k).partition(&g);
            verify_ok(&g, &a, &EulerConfig::default());
            let a = HashPartitioner::new(k).partition(&g);
            verify_ok(&g, &a, &EulerConfig::default());
        }
    }

    #[test]
    fn all_merge_strategies_yield_valid_circuits() {
        let g = synthetic::random_eulerian_connected(120, 15, 6, 9);
        let a = LdgPartitioner::new(4).partition(&g);
        for strategy in MergeStrategy::all() {
            let run = EulerPipeline::builder()
                .graph(&g)
                .assignment(a.clone())
                .strategy(strategy)
                .verify(true)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(run.circuit.result.num_circuits(), 1, "strategy {strategy}");
            assert_eq!(run.circuit.result.total_edges(), g.num_edges());
        }
    }

    #[test]
    fn disconnected_eulerian_graph_yields_one_circuit_per_component() {
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)]);
        let a = HashPartitioner::new(2).partition(&g);
        let (result, _) = run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        assert_eq!(result.num_circuits(), 2);
        assert_eq!(result.total_edges(), 6);
        verify_result(&g, &result).unwrap();
    }

    #[test]
    fn report_has_one_record_per_partition_per_level() {
        let g = synthetic::torus_grid(10, 10);
        let a = LdgPartitioner::new(8).partition(&g);
        let (_, report) = run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        assert_eq!(report.supersteps, 4); // 8 partitions -> 4 Phase-1 rounds
        assert_eq!(report.level(0).len(), 8);
        assert_eq!(report.level(1).len(), 4);
        assert_eq!(report.level(2).len(), 2);
        assert_eq!(report.level(3).len(), 1);
        let cumulative = report.cumulative_memory_by_level();
        assert_eq!(cumulative.len(), 4);
        assert!(cumulative[0] > 0);
        // Fig. 9: the root level holds no remote edges.
        let root = report.level(3)[0];
        assert_eq!(root.counts.remote_edges, 0);
        assert_eq!(report.backend, "in-process");
        assert!(report.engine.is_none());
    }

    #[test]
    fn memory_accounting_deferred_never_exceeds_dedup() {
        let g = synthetic::random_eulerian_connected(200, 30, 6, 3);
        let a = LdgPartitioner::new(8).partition(&g);
        let config = EulerConfig::default().with_merge_strategy(MergeStrategy::Deduplicated);
        let (_, dedup) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        let config = EulerConfig::default().with_merge_strategy(MergeStrategy::Deferred);
        let (_, deferred) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        let c_dedup = dedup.cumulative_memory_by_level();
        let c_def = deferred.cumulative_memory_by_level();
        for (d, f) in c_dedup.iter().zip(c_def.iter()) {
            assert!(f <= d, "deferred {f} > dedup {d}");
        }
        // Transfers also shrink.
        assert!(deferred.total_transfer_longs <= dedup.total_transfer_longs);
    }

    #[test]
    fn sequential_and_parallel_levels_agree() {
        let g = synthetic::random_eulerian_connected(80, 10, 5, 11);
        let a = LdgPartitioner::new(4).partition(&g);
        let config = EulerConfig::default().sequential();
        let (r1, _) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        let (r2, _) = run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        verify_result(&g, &r1).unwrap();
        assert_eq!(r1.circuits, r2.circuits);
    }

    #[test]
    fn single_partition_degenerates_to_sequential() {
        let g = synthetic::circulant(50, &[1, 2]);
        let a = HashPartitioner::new(1).partition(&g);
        let config = EulerConfig::default().with_verify(true);
        let (result, report) = run_with_backend(&g, &a, &config, &InProcessBackend::new()).unwrap();
        assert_eq!(report.supersteps, 1);
        assert_eq!(result.num_circuits(), 1);
    }

    #[test]
    fn bsp_cost_model_reports_platform_overhead() {
        let g = synthetic::torus_grid(6, 6);
        let a = HashPartitioner::new(4).partition(&g);
        let run = EulerPipeline::builder()
            .graph(&g)
            .assignment(a)
            .backend(BspBackend::with_engine(
                euler_bsp::BspConfig::one_worker_per_partition()
                    .with_cost_model(euler_bsp::PlatformCostModel::spark_like()),
            ))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let engine = run.merge.engine.as_ref().expect("bsp runs report engine stats");
        assert!(engine.modelled_platform_overhead > Duration::ZERO);
        verify_result(&g, &run.circuit.result).unwrap();
    }

    #[test]
    fn larger_rmat_eulerized_graph_end_to_end() {
        let (g, _) = euler_gen::configs::GraphConfig::by_name("G20/P2").unwrap().generate(-7);
        let a = LdgPartitioner::new(2).partition(&g);
        let (result, _) = run_with_backend(&g, &a, &EulerConfig::default(), &InProcessBackend::new()).unwrap();
        verify_result(&g, &result).unwrap();
        assert_eq!(result.total_edges(), g.num_edges());
    }
}
