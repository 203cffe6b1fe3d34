//! # euler-circuit
//!
//! Facade crate for the partition-centric distributed Euler circuit library, a
//! Rust reproduction of *"A Partition-centric Distributed Algorithm for
//! Identifying Euler Circuits in Large Graphs"* (Jaiswal & Simmhan, IEEE
//! IPDPSW/HPBDC 2019).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports them under stable module names so applications can depend on a
//! single crate:
//!
//! * [`graph`] — graph substrate (undirected multigraphs, CSR, partitioned
//!   graphs, meta-graphs) and the [`GraphSource`](graph::GraphSource) input
//!   seam (in-memory graphs, chunked edge-list files, and memory-mapped
//!   binary `.ecsr` CSR files via [`MmapCsrSource`](graph::MmapCsrSource) —
//!   byte layout in [`graph::format_spec`]).
//! * [`gen`] — workload generators (R-MAT, Eulerizer, synthetic Eulerian
//!   families, paper graph configs).
//! * [`partition`] — graph partitioners (including one-pass streaming
//!   hash/LDG over chunked edge batches) and partition-quality statistics.
//! * [`bsp`] — what the Bulk Synchronous Parallel backend runs on and
//!   reports with (Apache Spark substitute): worker configuration and
//!   platform cost model, superstep statistics, the word codec, wire
//!   transports, checkpoints, fault policy.
//! * [`algo`] — the partition-centric Euler circuit algorithm itself:
//!   the [`EulerPipeline`](algo::EulerPipeline) builder, the pluggable
//!   [`ExecutionBackend`](algo::ExecutionBackend)s, Phases 1–3, merge
//!   strategies, memory model, verification.
//! * [`baseline`] — sequential and vertex-centric baselines (Hierholzer,
//!   Fleury, Makki).
//! * [`metrics`] — instrumentation and experiment reporting.
//!
//! How the crates map onto the paper's phases and figures — including the
//! dataflow of a pipeline run — is documented in [`architecture`]
//! (docs/ARCHITECTURE.md).
//!
//! ## Quickstart
//!
//! Everything goes through one builder: pick a graph source, a partitioner,
//! a merge strategy and an execution backend, then [`run`](algo::EulerPipeline::run)
//! the pipeline. The result is staged — partition → merge → circuit — with
//! each stage carrying its slice of the run report.
//!
//! ```
//! use euler_circuit::prelude::*;
//!
//! // A small Eulerian graph: two triangles sharing vertex 0.
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! assert!(is_eulerian(&graph).is_ok());
//!
//! // Build and run the full partition-centric pipeline on 2 partitions.
//! let run = EulerPipeline::builder()
//!     .graph(&graph)                       // or .source(EdgeListFileSource::new("g.el"))
//!     .partitioner(LdgPartitioner::new(2)) // or .assignment(precomputed)
//!     .strategy(MergeStrategy::Deferred)   // §5 memory heuristic
//!     .backend(InProcessBackend::new())    // or BspBackend::new() for BSP workers
//!     .verify(true)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! // The circuit uses every edge exactly once and returns to its start.
//! let circuit = run.circuit.result.circuit().expect("graph is Eulerian and connected");
//! assert_eq!(circuit.len(), graph.num_edges() as usize);
//! verify_circuit(&graph, circuit).unwrap();
//!
//! // Staged outputs: supersteps, transfers, per-level records.
//! assert_eq!(run.partition.num_partitions, 2);
//! assert_eq!(run.merge.supersteps, 2);
//! let report = run.report(); // the unified RunReport, same for every backend
//! assert_eq!(report.level(0).len(), 2);
//! ```
//!
//! To execute as BSP supersteps over a set of workers (serialised transfers,
//! shuffle accounting, modelled Spark-like overhead) swap the backend —
//! nothing else changes:
//!
//! ```
//! use euler_circuit::prelude::*;
//! use euler_circuit::bsp::{BspConfig, PlatformCostModel};
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! let run = EulerPipeline::builder()
//!     .graph(&graph)
//!     .partitioner(LdgPartitioner::new(2))
//!     .backend(BspBackend::with_engine(
//!         BspConfig::one_worker_per_partition().with_cost_model(PlatformCostModel::spark_like()),
//!     ))
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! let engine = run.merge.engine.as_ref().expect("BSP runs carry engine stats");
//! assert_eq!(engine.num_supersteps(), run.merge.supersteps);
//! ```
//!
//! ## Out of core: streaming partitioning and bounded fragment memory
//!
//! For graphs that should never be materialised, pair a memory-mapped
//! `.ecsr` source with a *streaming* partitioner and a fragment memory
//! budget. [`LdgPartitioner`](partition::LdgPartitioner) and
//! [`HashPartitioner`](partition::HashPartitioner) implement
//! [`StreamingPartitioner`](partition::StreamingPartitioner): they consume
//! chunked edge batches straight off the mapped sections (identical
//! assignments to the whole-graph path, by construction), the partition
//! view is sliced from the same sections, and `.memory_budget(longs)`
//! bounds resident circuit-fragment memory by paging cold fragments to a
//! temp file — reloaded on demand in Phase 3, bit-identical circuits,
//! spill traffic reported per run in `fragment_stats`. Fragments are paged
//! out lowest merge level first (Phase 3 reaches those last), in an order
//! read off their ids alone; since Phase 3 reads every fragment once, the
//! Longs reloaded equal the Longs spilled.
//!
//! ```
//! use euler_circuit::prelude::*;
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! let path = std::env::temp_dir().join("facade_quickstart.ecsr");
//! write_csr_file(&graph, &path).unwrap();
//!
//! let run = EulerPipeline::builder()
//!     .source(MmapCsrSource::open(&path).unwrap()) // zero-copy mmap open
//!     .partitioner(LdgPartitioner::new(2))         // streamed off the mapped CSR
//!     .memory_budget(1 << 20)                      // resident fragment Longs
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! // The zero-Graph path is observable in the stage report.
//! assert!(run.partition.partitioner.contains("streamed, direct csr slice"));
//! assert_eq!(run.circuit.result.total_edges(), graph.num_edges());
//! // Real fragment-memory accounting (peak resident, spill counts and
//! // traffic). Per-level merge reports additionally
//! // carry the Phase-1 splice-index counters (pivot lookups, linked
//! // splices, materialization longs).
//! assert!(run.circuit.fragment_stats.peak_resident_longs > 0);
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! Custom whole-graph partitioners and BFS-order LDG
//! ([`LdgPartitioner::with_bfs_order`](partition::LdgPartitioner::with_bfs_order))
//! need the resident graph and fall back to the load path automatically;
//! `.verify(true)` stays on the direct path and checks the circuit against
//! the mapped endpoints section.
//!
//! ## Bounded traversal state: the W-streaming Phase 1
//!
//! The direct-slice path above still builds each partition's dense
//! incidence arena before walking it. `.streaming_phase1(true)` removes
//! that last unbounded stage: level-0 tours are built by **one pass** over
//! the source's edge stream with the W-streaming chain machine
//! ([`algo::phase1::wstream`]) — resident traversal state is `O(n log n)`
//! Longs regardless of the edge count, partial tours spill through the
//! fragment store, and the residue rides the ordinary merge-tree walk on
//! any backend. The exact footprint is reported per run:
//!
//! ```
//! use euler_circuit::prelude::*;
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! let path = std::env::temp_dir().join("facade_wstreaming.ecsr");
//! write_csr_file(&graph, &path).unwrap();
//!
//! let run = EulerPipeline::builder()
//!     .source(MmapCsrSource::open(&path).unwrap())
//!     .partitioner(LdgPartitioner::new(2))
//!     .streaming_phase1(true)  // one-pass tours, O(n log n) resident
//!     .memory_budget(1 << 20)  // fragments stay bounded too
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! assert_eq!(run.circuit.result.total_edges(), graph.num_edges());
//! let stats = run.merge.wstream.expect("streaming runs report resident state");
//! // Peak resident traversal state, in Longs — bounded by O(n log n),
//! // never by the edge count.
//! assert!(stats.peak_resident_longs > 0);
//! assert_eq!(stats.edges_ingested, graph.num_edges());
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! ## Parallelism model
//!
//! There is one schedule and no knob. The unit of parallelism is the
//! paper's: the *partition*. Every backend steps a level through the same
//! per-worker slot set and barrier fold, and a merge level's partitions run
//! concurrently — on rayon threads for workers stepped in place (the
//! in-process backend's one worker holding every partition, or
//! [`BspBackend`](algo::BspBackend)'s without a transport: every worker's
//! slots from one call), in worker threads or processes over a transport —
//! each executing the sequential Phase-1 kernel on an arena from a reusable
//! pool ([`Phase1Arena`](algo::Phase1Arena)), and the level ends in a
//! barrier. In this process, a level goes to the rayon pool only once its
//! partition states reach [`FAN_OUT_MIN_WORDS`](algo::FAN_OUT_MIN_WORDS)
//! record words, enough to pay for waking the pool's threads; a smaller one,
//! or any level under `.sequential()`, runs its partitions one at a time on
//! the caller.
//!
//! The result does not depend on how those partitions were interleaved. A
//! fragment's id ([`FragmentId`](algo::FragmentId)) is a function of
//! `(merge level, partition id, push sequence within that partition)` and
//! of nothing else, so no partition can influence another's ids; and the
//! fragment store ([`FragmentStore`](algo::FragmentStore)) is addressed and
//! walked by id, which is the order a one-thread run pushes in. Circuits,
//! per-level reports and transfer Longs are therefore **bit-identical for
//! every thread count, worker count and backend**, and equal to
//! `.sequential()`:
//!
//! ```
//! use euler_circuit::prelude::*;
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! let run = |builder: euler_circuit::algo::EulerPipelineBuilder| {
//!     builder.graph(&graph).partitioner(LdgPartitioner::new(2)).build().unwrap().run().unwrap()
//! };
//! let one_thread = run(EulerPipeline::builder().sequential());
//! let fan_out = run(EulerPipeline::builder());
//! let two_workers = run(EulerPipeline::builder()
//!     .backend(BspBackend::with_engine(BspConfig::with_workers(2))));
//! // The same circuits, edge for edge.
//! assert_eq!(fan_out.circuit.result.circuits, one_thread.circuit.result.circuits);
//! assert_eq!(two_workers.circuit.result.circuits, one_thread.circuit.result.circuits);
//! assert_eq!(two_workers.merge.total_transfer_longs, one_thread.merge.total_transfer_longs);
//! ```
//!
//! The rayon pool size is `RAYON_NUM_THREADS`, else the host's available
//! parallelism; `tests/parallel_equivalence.rs` holds the promise under an
//! oversubscribed pool, with and without a fragment memory budget.
//!
//! ## Distributed: wire transports, process workers, kill-and-resume
//!
//! Give [`BspBackend`](algo::BspBackend) a [`Transport`](bsp::Transport)
//! and the walk runs as a coordinator/worker protocol over length-prefixed,
//! checksummed frames — [`MemTransport`](bsp::MemTransport) (in-memory
//! channels, thread workers) or [`TcpTransport`](bsp::TcpTransport) (which
//! also takes `.process_workers(true)`: one `euler-worker` OS process per
//! worker, spawned and — after a SIGKILL — respawned by the coordinator). Add
//! `.checkpoint_dir(..)` and a worker that dies after superstep 0 rolls the
//! fleet back to the checkpoint of the failed superstep instead of replaying
//! from the seeds (a death at superstep 0 re-Inits from the seeds, which are
//! the state entering it);
//! either way the final circuit is bit-identical to an unkilled run, for
//! any worker count. [`FaultPolicy`](bsp::FaultPolicy) tunes heartbeats;
//! [`FaultPlan`](bsp::FaultPlan) kills a worker at a chosen superstep, for
//! tests.
//!
//! ```
//! use euler_circuit::prelude::*;
//! use std::sync::Arc;
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! let ckpt = std::env::temp_dir().join("facade_quickstart_ckpt");
//! let run = EulerPipeline::builder()
//!     .graph(&graph)
//!     .partitioner(LdgPartitioner::new(2))
//!     .backend(
//!         BspBackend::with_engine(BspConfig::with_workers(2))
//!             .with_transport(Arc::new(MemTransport)) // wire frames, thread workers
//!             .checkpoint_dir(&ckpt)                  // superstep rollback on death
//!             .with_fault_plan(FaultPlan::kill_at(1, 1)), // kill worker 1 at superstep 1
//!     )
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! // The worker died, was respawned, restored its checkpoint — and the
//! // circuit still uses every edge exactly once.
//! let recovery = run.merge.engine.as_ref().unwrap().recovery;
//! assert!(recovery.restarts >= 1);
//! assert!(recovery.checkpoint_longs_restored > 0 && recovery.full_restarts == 0);
//! assert!(!run.merge.warnings.is_empty()); // the recovery is reported
//! verify_circuit(&graph, run.circuit.result.circuit().unwrap()).unwrap();
//! assert!(!ckpt.exists()); // clean completion removes the checkpoint dir
//! ```
//!
//! ## Serving circuits: one process, many graphs, many clients
//!
//! [`EulerService`](algo::EulerService) turns the pipeline into a
//! long-lived TCP server speaking the same checksummed frame codec as the
//! distributed backend: register `.ecsr` graphs by **content checksum**,
//! run circuits for many clients concurrently under one global memory
//! budget — an admission controller keeps the sum of per-run reservations
//! under the cap, each the level-0 partition state the run's own scan
//! counts under [`algo::memory_model`]'s accounting, which bounds every
//! level, plus its fragment budget — cache finished circuits by (graph,
//! options), and
//! stream the steps back in chunks. A run executes on its connection's
//! handler thread and can be cancelled at its yield points, the BSP walk's
//! superstep barriers. The `euler-serve` binary wraps the same service for
//! out-of-process use.
//!
//! ```
//! use euler_circuit::prelude::*;
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
//! let path = std::env::temp_dir().join("facade_serve_quickstart.ecsr");
//! write_csr_file(&graph, &path).unwrap();
//!
//! let service = EulerService::bind(ServiceConfig {
//!     memory_cap_longs: 1 << 16,
//!     workers: 2,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! // Register: the graph's identity is its content checksum, not its path.
//! let client = ServiceClient::connect(service.endpoint()).unwrap();
//! let info = client.register(path.to_str().unwrap()).unwrap();
//! assert_eq!(info.num_edges, graph.num_edges());
//!
//! // Run: admitted under the cap, computed, streamed back chunk by chunk
//! // and reassembled by the convenience driver.
//! let opts = RunOptions { partitions: 2, ..RunOptions::default() };
//! let run = client.run(info.checksum, opts).unwrap();
//! assert!(!run.cached);
//! let steps: u64 = run.circuits.iter().map(|c| c.len() as u64).sum();
//! assert_eq!(steps, graph.num_edges());
//!
//! // Same graph, same options: a cache hit — no pipeline run, same steps.
//! let again = client.run(info.checksum, opts).unwrap();
//! assert!(again.cached);
//! assert_eq!(again.circuits, run.circuits);
//!
//! // A cancel stops the run at its next yield point — before a merge-tree
//! // superstep or Phase 3 — and its admitted budget frees before the stream
//! // ends. A run past its last yield point streams its chunks instead, and
//! // the cancel's one `Cancelled` follows them.
//! let heavier = RunOptions { partitions: 4, strategy: MergeStrategy::Deferred, ..opts };
//! client.start_run(info.checksum, heavier).unwrap();
//! client.cancel().unwrap();
//! loop {
//!     match client.next_event().unwrap() {
//!         RunEvent::Cancelled | RunEvent::Done { .. } => break,
//!         _ => {} // Accepted / Progress / Report / Chunk
//!     }
//! }
//! let stats = service.stats();
//! assert_eq!(stats.runs_cached, 1);
//! assert_eq!(stats.admitted_longs, 0, "terminal event means the budget is free");
//! assert!(stats.peak_admitted_longs <= stats.memory_cap_longs);
//! service.shutdown();
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! ## Migrating from `find_euler_circuit` / `DistributedRunner`
//!
//! The pre-0.2 entry points were deprecated wrappers over the pipeline for
//! one release (their test suites proved behavioural equivalence) and are
//! now **removed**. Migrate as follows:
//!
//! | before (removed) | after |
//! |---|---|
//! | `find_euler_circuit(&g, &a, &cfg)?` | `EulerPipeline::builder().graph(&g).assignment(a).config(cfg).build()?.run()?.into_result()` |
//! | `run_partitioned(&g, &a, &cfg)?` → `(result, report)` | `let run = …run()?;` then `run.circuit.result` / `run.report()` |
//! | `DistributedRunner::new(cfg).with_engine(e).run(&g, &a)?` | `…builder()….backend(BspBackend::with_engine(e))….run()?`; engine stats in `run.merge.engine` |
//! | mid-level, no builder | `algo::pipeline::run_with_backend(&g, &a, &cfg, &backend)` → `(result, RunReport)` |
//! | `euler_bsp::{BspEngine, StepRun, PartitionProgram, PartitionContext, Envelope, PartitionPlacement, …}` (the generic simulated engine) | removed: `BspBackend` steps its workers itself — in place, or over `.with_transport(..)` — through one level step; vertex-centric programs keep `bsp::run_vertex_program` |
//! | `BspConfig::with_max_supersteps(n)` | removed: the walk runs exactly `merge_tree.num_supersteps()` levels |
//! | mid-level, no `Graph` at hand | `algo::pipeline::run_on_partitioned(&pg, &cfg, &backend)` over any [`PartitionedGraph`](graph::PartitionedGraph) (e.g. sliced from a mapped `.ecsr` via [`CsrFile::partitioned`](graph::CsrFile::partitioned)) |
//!
//! The reports also unified: the BSP path fills the same per-level
//! [`RunReport`](algo::RunReport) the in-process path always produced, with
//! the BSP run's superstep statistics attached as
//! [`RunReport::engine`](algo::RunReport::engine) — the same statistics
//! whether the workers were stepped in place or sat behind a transport.

/// How the crates map onto the paper (docs/ARCHITECTURE.md), rendered here
/// so it versions and link-checks with the code.
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub mod architecture {}

/// The workspace's own static-analysis rules (docs/LINTS.md): what
/// `euler-lint` enforces, why each rule exists, and how to suppress a
/// finding per-site. Enforced in CI by `cargo run -p euler-lint`.
#[doc = include_str!("../docs/LINTS.md")]
pub mod lint_rules {}

pub use euler_baseline as baseline;
pub use euler_bsp as bsp;
pub use euler_core as algo;
pub use euler_gen as gen;
pub use euler_graph as graph;
pub use euler_metrics as metrics;
pub use euler_partition as partition;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use euler_baseline::{fleury::fleury_circuit, hierholzer::hierholzer_circuit, makki::MakkiRunner};
    pub use euler_bsp::{
        BspConfig, FaultPlan, FaultPolicy, MemTransport, RecoveryStats, TcpTransport, Transport,
    };
    pub use euler_core::{
        run_on_partitioned, run_with_backend, stream_phase1,
        verify::verify_circuit, BspBackend, CircuitResult, CircuitStep, EulerConfig,
        EulerPipeline, EulerService, ExecutionBackend, FragmentStoreStats, GraphInfo,
        InProcessBackend, LevelPartitionReport, MergeStrategy, PartitionerKind,
        PipelineRun, RunEvent, RunOptions, RunOutcome, RunReport, ServiceClient, ServiceConfig,
        ServiceError, ServiceStats, SpillConfig, WStreamStats,
    };
    pub use euler_gen::{
        configs::GraphConfig, eulerize::eulerize, rmat::RmatGenerator, synthetic,
    };
    pub use euler_graph::{
        builder::graph_from_edges, is_eulerian, write_csr_file, CsrFile, EdgeId,
        EdgeListFileSource, EdgeStream, Graph, GraphBuilder, GraphRegistry, GraphSource,
        InMemorySource, MetaGraph, MmapCsrSource, Partition, PartitionAssignment, PartitionId,
        PartitionedGraph, StreamOrder, VertexId,
    };
    pub use euler_partition::{
        BfsPartitioner, HashPartitioner, LdgPartitioner, PartitionQuality, Partitioner,
        StreamingPartitioner,
    };
}
