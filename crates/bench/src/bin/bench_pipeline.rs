//! Overhead measurement for the `EulerPipeline` API redesign.
//!
//! The redesign routed every driver through one shared merge-tree walk
//! behind the builder API. This harness checks the abstraction costs
//! nothing: it times the same workloads through (a) the `Graph`-free core
//! walk `run_on_partitioned` over a pre-built partition view — the leanest
//! path there is — (b) the mid-level `run_with_backend` call (adds the
//! Eulerian pre-check and partition-view construction), and (c) the full
//! `EulerPipeline` builder with its `GraphSource` / staged-output plumbing,
//! and writes the paired timings to `BENCH_pipeline.json`.
//!
//! The `out_of_core` section exercises the zero-`Graph` spine: an mmap'd
//! `.ecsr` source partitioned by streaming LDG, once unbounded and once
//! under a fragment `memory_budget` far below the total fragment bytes,
//! recording the real peak resident fragment Longs and the spill traffic
//! (and asserting the two runs' circuits are bit-identical).
//!
//! The `w_streaming` section replays the same mmap workload through the
//! one-pass W-streaming Phase 1 (`streaming_phase1(true)`), recording the
//! chain machine's exact peak-resident traversal Longs next to the dense
//! run's wall time and asserting circuit validity in-bench.
//!
//! The `fault_tolerance` section times the distributed wire-transport path
//! on the R-MAT workload three ways — checkpointing off, checkpointing on,
//! and a kill-and-resume recovery — asserting all three stay bit-identical
//! to the in-process run.
//!
//! Usage: `cargo run --release -p euler-bench --bin bench_pipeline [reps]`
//! (default 5 repetitions; the minimum over reps is reported). The count is
//! written at the top level, for the builder rows, and into every section,
//! so one section's object can be spliced into an existing ledger as it is.

use euler_core::{
    run_on_partitioned, run_with_backend, EulerConfig, EulerPipeline, InProcessBackend,
};
use euler_gen::eulerize::eulerize;
use euler_gen::rmat::RmatGenerator;
use euler_gen::synthetic;
use euler_graph::{Graph, InMemorySource, PartitionAssignment, PartitionedGraph};
use euler_metrics::json::Value;
use euler_partition::{LdgPartitioner, Partitioner};
use std::time::Instant;

/// Minimum wall time over `reps` runs of `f`, plus the edge count of the last
/// run's circuit (sanity check that every path does the same work).
fn time_runs(reps: u32, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut edges = 0;
    for _ in 0..reps {
        let start = Instant::now();
        edges = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, edges)
}

fn bench_workload(name: &str, g: &Graph, assignment: &PartitionAssignment, reps: u32) -> Value {
    let config = EulerConfig::default();

    let pg = PartitionedGraph::from_assignment(g, assignment).unwrap();
    let (direct_s, direct_edges) = time_runs(reps, || {
        let (result, _) = run_on_partitioned(&pg, &config, &InProcessBackend::new()).unwrap();
        result.total_edges()
    });
    let (mid_s, mid_edges) = time_runs(reps, || {
        let (result, _) = run_with_backend(g, assignment, &config, &InProcessBackend::new()).unwrap();
        result.total_edges()
    });
    // The builder pipeline, constructed once (the graph copy into the
    // InMemorySource happens at build time); each run exercises the
    // source/partition staging plus the shared walk.
    let pipeline = EulerPipeline::builder()
        .graph(g)
        .assignment(assignment.clone())
        .config(config.clone())
        .build()
        .unwrap();
    let (builder_s, builder_edges) = time_runs(reps, || {
        pipeline.run().unwrap().circuit.result.total_edges()
    });

    assert_eq!(direct_edges, mid_edges, "paths must cover the same edges");
    assert_eq!(direct_edges, builder_edges, "paths must cover the same edges");
    // The builder and run_with_backend do the same work (Eulerian check +
    // partition-view build + walk); run_on_partitioned is the floor that
    // skips both graph-side steps.
    let overhead = builder_s / mid_s - 1.0;
    println!(
        "{name}: {} edges, {} parts | run_on_partitioned {direct_s:.3}s | \
         run_with_backend {mid_s:.3}s | builder {builder_s:.3}s | builder overhead {:+.1}%",
        g.num_edges(),
        assignment.num_partitions(),
        overhead * 100.0
    );
    Value::obj(vec![
        ("workload", Value::str(name)),
        ("edges", Value::Num(g.num_edges() as f64)),
        ("partitions", Value::Num(assignment.num_partitions() as f64)),
        ("run_on_partitioned_seconds", Value::Num(direct_s)),
        ("run_with_backend_seconds", Value::Num(mid_s)),
        ("pipeline_builder_seconds", Value::Num(builder_s)),
        ("builder_overhead_fraction", Value::Num(overhead)),
    ])
}

fn main() {
    // At least one repetition, or the reported minima would be infinite.
    let reps: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5).max(1);

    let (rmat, _) = eulerize(&RmatGenerator::new(16).with_avg_degree(8.0).with_seed(11).generate());
    let torus = synthetic::torus_grid(354, 354);
    let workloads: Vec<(&str, &Graph, u32)> =
        vec![("rmat16_eulerized_8_parts", &rmat, 8), ("torus_354x354_4_parts", &torus, 4)];

    let mut rows = Vec::new();
    for (name, g, parts) in workloads {
        let assignment = LdgPartitioner::new(parts).partition(g);
        rows.push(bench_workload(name, g, &assignment, reps));
    }

    // Sanity check the file-source staging too: load a mid-sized edge list
    // through the chunked reader and compare against the resident source.
    let dir = std::env::temp_dir().join("euler_bench_pipeline");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("torus.el");
    euler_graph::io::write_edge_list_file(&torus, &path).expect("write edge list");
    let a4 = LdgPartitioner::new(4).partition(&torus);
    let file_pipeline = EulerPipeline::builder()
        .source(euler_graph::EdgeListFileSource::new(&path))
        .assignment(a4.clone())
        .build()
        .unwrap();
    let (file_s, edges_from_file) = time_runs(reps, || {
        file_pipeline.run().unwrap().circuit.result.total_edges()
    });
    let mem_pipeline =
        EulerPipeline::builder().source(InMemorySource::new(torus.clone())).assignment(a4).build().unwrap();
    let (mem_s, mem_edges) = time_runs(reps, || {
        mem_pipeline.run().unwrap().circuit.result.total_edges()
    });
    assert_eq!(edges_from_file, mem_edges);
    println!(
        "graph_source: edge-list file {file_s:.3}s vs in-memory {mem_s:.3}s (chunked load included)"
    );
    rows.push(Value::obj(vec![
        ("workload", Value::str("torus_354x354_source_comparison")),
        ("edges", Value::Num(torus.num_edges() as f64)),
        ("partitions", Value::Num(4.0)),
        ("edge_list_file_source_seconds", Value::Num(file_s)),
        ("in_memory_source_seconds", Value::Num(mem_s)),
    ]));
    std::fs::remove_file(&path).ok();

    // --- Out-of-core section: the zero-Graph spine under a fragment budget.
    // An mmap'd .ecsr source partitioned by *streaming* LDG (no Graph ever
    // materialised), once with unbounded fragment memory and once with a
    // budget far below the total fragment bytes — recording the real peak
    // resident fragment Longs and the spill traffic alongside wall time.
    // Bit-identity between the two runs is asserted in-bench.
    let csr_path = dir.join("torus.ecsr");
    euler_graph::write_csr_file(&torus, &csr_path).expect("write .ecsr");
    let streamed_pipeline = |budget: Option<u64>| {
        let mut b = EulerPipeline::builder()
            .source(euler_graph::MmapCsrSource::open(&csr_path).expect("open .ecsr"))
            .partitioner(LdgPartitioner::new(4))
            .config(EulerConfig::default().sequential());
        if let Some(longs) = budget {
            b = b.memory_budget(longs);
        }
        b.build().unwrap()
    };
    let unbounded = streamed_pipeline(None);
    let mut last_unbounded = None;
    let (unbounded_s, unbounded_edges) = time_runs(reps, || {
        let run = unbounded.run().unwrap();
        let edges = run.circuit.result.total_edges();
        last_unbounded = Some(run);
        edges
    });
    let reference = last_unbounded.expect("at least one repetition ran");
    let budget = reference.circuit.fragment_disk_longs / 8;
    let bounded = streamed_pipeline(Some(budget));
    let mut last_bounded = None;
    let (bounded_s, bounded_edges) = time_runs(reps, || {
        let run = bounded.run().unwrap();
        let edges = run.circuit.result.total_edges();
        last_bounded = Some(run);
        edges
    });
    let spilled = last_bounded.expect("at least one repetition ran");
    assert_eq!(unbounded_edges, bounded_edges);
    assert_eq!(
        spilled.circuit.result.circuits, reference.circuit.result.circuits,
        "spill-backed circuits must be bit-identical"
    );
    assert!(
        reference.partition.partitioner.contains("streamed"),
        "the bench must exercise the zero-Graph path, got {}",
        reference.partition.partitioner
    );
    let stats = spilled.circuit.fragment_stats;
    println!(
        "out_of_core: streamed-ldg mmap run {unbounded_s:.3}s unbounded vs {bounded_s:.3}s \
         under a {budget}-Long budget | peak resident {} of {} Longs | {} fragments spilled \
         ({} Longs written in {} writes, {} read back in {} reads)",
        stats.peak_resident_longs,
        spilled.circuit.fragment_disk_longs,
        stats.spilled_fragments,
        stats.spill_write_longs,
        stats.spill_writes,
        stats.spill_read_longs,
        stats.spill_reads,
    );
    let out_of_core = Value::obj(vec![
        ("workload", Value::str("torus_354x354_mmap_streamed_ldg_4_parts")),
        ("edges", Value::Num(torus.num_edges() as f64)),
        ("memory_budget_longs", Value::Num(budget as f64)),
        ("unbounded_seconds", Value::Num(unbounded_s)),
        ("bounded_seconds", Value::Num(bounded_s)),
        ("fragment_disk_longs", Value::Num(spilled.circuit.fragment_disk_longs as f64)),
        ("peak_resident_longs", Value::Num(stats.peak_resident_longs as f64)),
        (
            "unbounded_peak_resident_longs",
            Value::Num(reference.circuit.fragment_stats.peak_resident_longs as f64),
        ),
        ("spilled_fragments", Value::Num(stats.spilled_fragments as f64)),
        ("spill_write_longs", Value::Num(stats.spill_write_longs as f64)),
        ("spill_writes", Value::Num(stats.spill_writes as f64)),
        ("spill_read_longs", Value::Num(stats.spill_read_longs as f64)),
        ("spill_reads", Value::Num(stats.spill_reads as f64)),
        ("spill_errors", Value::Num(stats.spill_errors as f64)),
        ("evictions_scheduled", Value::Num(stats.evictions_scheduled as f64)),
        ("repetitions", Value::Num(reps as f64)),
    ]);

    // --- W-streaming section: same mmap'd .ecsr + streaming-LDG workload,
    // but Phase 1 replaced by the one-pass chain machine — no dense arena,
    // only O(n log n) resident traversal Longs. Timed against the dense
    // bounded run above; circuit validity (Euler circuit over the exact
    // edge multiset) is asserted in-bench, and the machine's exact
    // peak-resident-Longs counter is recorded next to the dense path's
    // fragment peak so the RAM-vs-wall-time trade is visible in one row.
    let wstream_pipeline = EulerPipeline::builder()
        .source(euler_graph::MmapCsrSource::open(&csr_path).expect("open .ecsr"))
        .partitioner(LdgPartitioner::new(4))
        .config(EulerConfig::default().sequential())
        .streaming_phase1(true)
        .memory_budget(budget)
        .build()
        .unwrap();
    let mut last_wstream = None;
    let (wstream_s, wstream_edges) = time_runs(reps, || {
        let run = wstream_pipeline.run().unwrap();
        let edges = run.circuit.result.total_edges();
        last_wstream = Some(run);
        edges
    });
    let wstream_run = last_wstream.expect("at least one repetition ran");
    assert_eq!(wstream_edges, unbounded_edges, "w-streaming must cover the same edge multiset");
    euler_core::verify::verify_result(&torus, &wstream_run.circuit.result)
        .expect("w-streaming circuit must verify against the input graph");
    let wstats = wstream_run.merge.wstream.expect("streaming_phase1 run reports WStreamStats");
    assert_eq!(wstats.edges_ingested, torus.num_edges() as u64);
    println!(
        "w_streaming: one-pass chain machine {wstream_s:.3}s vs dense bounded {bounded_s:.3}s | \
         peak traversal state {} Longs (dense arena would hold all {} edges) | {} fragments \
         from {} flushes",
        wstats.peak_resident_longs,
        torus.num_edges(),
        wstats.fragments_emitted,
        wstats.open_chain_flushes,
    );
    let w_streaming = Value::obj(vec![
        ("workload", Value::str("torus_354x354_mmap_streamed_ldg_4_parts_wstream")),
        ("edges", Value::Num(torus.num_edges() as f64)),
        ("memory_budget_longs", Value::Num(budget as f64)),
        ("wstream_seconds", Value::Num(wstream_s)),
        ("dense_bounded_seconds", Value::Num(bounded_s)),
        ("peak_resident_longs", Value::Num(wstats.peak_resident_longs as f64)),
        ("entries_streamed", Value::Num(wstats.entries_streamed as f64)),
        ("edges_ingested", Value::Num(wstats.edges_ingested as f64)),
        ("fragments_emitted", Value::Num(wstats.fragments_emitted as f64)),
        ("cycles_emitted", Value::Num(wstats.cycles_emitted as f64)),
        ("open_chain_flushes", Value::Num(wstats.open_chain_flushes as f64)),
        ("residual_local_edges", Value::Num(wstats.residual_local_edges as f64)),
        ("residual_remote_edges", Value::Num(wstats.residual_remote_edges as f64)),
        (
            "spilled_fragments",
            Value::Num(wstream_run.circuit.fragment_stats.spilled_fragments as f64),
        ),
        ("spill_writes", Value::Num(wstream_run.circuit.fragment_stats.spill_writes as f64)),
        ("spill_reads", Value::Num(wstream_run.circuit.fragment_stats.spill_reads as f64)),
        ("repetitions", Value::Num(reps as f64)),
    ]);
    std::fs::remove_file(&csr_path).ok();

    // --- Fault-tolerance section: the distributed (wire-transport) path on
    // the standard R-MAT input. Three configurations of the same run —
    // checkpointing off, checkpointing on, and a kill-and-resume where a
    // worker dies at superstep 1 and the fleet rolls back — timed against
    // each other, with bit-identity to the in-process run asserted in-bench.
    let rmat_assignment = LdgPartitioner::new(8).partition(&rmat);
    // The default in-process run — rayon fan-out — is the reference: the
    // result does not depend on the schedule or the backend.
    let in_proc_reference = EulerPipeline::builder()
        .graph(&rmat)
        .assignment(rmat_assignment.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let ckpt_dir = dir.join("ft-ckpts");
    let distributed = |checkpoint: bool, plan: Option<euler_bsp::FaultPlan>| {
        let mut backend = euler_core::BspBackend::with_engine(euler_bsp::BspConfig::with_workers(2))
            .with_transport(std::sync::Arc::new(euler_bsp::MemTransport));
        if checkpoint {
            backend = backend.checkpoint_dir(&ckpt_dir);
        }
        if let Some(plan) = plan {
            backend = backend.with_fault_plan(plan);
        }
        EulerPipeline::builder()
            .graph(&rmat)
            .assignment(rmat_assignment.clone())
            .backend(backend)
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let mut ft_runs = Vec::new();
    let mut ft_row = vec![
        ("workload", Value::str("rmat16_eulerized_8_parts_2_workers_mem_transport")),
        ("edges", Value::Num(rmat.num_edges() as f64)),
    ];
    for (label, checkpoint, plan) in [
        ("checkpoint_off", false, None),
        ("checkpoint_on", true, None),
        ("kill_and_resume", true, Some(euler_bsp::FaultPlan::kill_at(1, 1))),
    ] {
        let mut last = None;
        let (secs, _) = time_runs(reps, || {
            let run = distributed(checkpoint, plan);
            let edges = run.circuit.result.total_edges();
            last = Some(run);
            edges
        });
        let run = last.expect("at least one repetition ran");
        assert_eq!(
            run.circuit.result.circuits, in_proc_reference.circuit.result.circuits,
            "distributed `{label}` run must be bit-identical to the in-process run"
        );
        assert_eq!(run.merge.total_transfer_longs, in_proc_reference.merge.total_transfer_longs);
        let recovery = run.merge.engine.as_ref().expect("engine stats").recovery;
        if plan.is_some() {
            assert!(recovery.restarts >= 1, "the injected kill was never observed");
        }
        println!(
            "fault_tolerance/{label}: {secs:.3}s | restarts {} | checkpoint Longs written {} \
             restored {}",
            recovery.restarts, recovery.checkpoint_longs_written, recovery.checkpoint_longs_restored
        );
        ft_row.push(match label {
            "checkpoint_off" => ("checkpoint_off_seconds", Value::Num(secs)),
            "checkpoint_on" => ("checkpoint_on_seconds", Value::Num(secs)),
            _ => ("kill_and_resume_seconds", Value::Num(secs)),
        });
        ft_runs.push((label, recovery));
    }
    let (_, ckpt_recovery) = ft_runs[1];
    let (_, kill_recovery) = ft_runs[2];
    ft_row.push(("checkpoint_longs_written", Value::Num(ckpt_recovery.checkpoint_longs_written as f64)));
    ft_row.push(("kill_restarts", Value::Num(kill_recovery.restarts as f64)));
    ft_row.push((
        "kill_checkpoint_longs_restored",
        Value::Num(kill_recovery.checkpoint_longs_restored as f64),
    ));
    ft_row.push(("repetitions", Value::Num(reps as f64)));
    let fault_tolerance = Value::obj(ft_row);

    let doc = Value::obj(vec![
        ("experiment", Value::str("pipeline_api_overhead")),
        (
            "description",
            Value::str(
                "End-to-end wall time of the same runs through the Graph-free core walk \
                 run_on_partitioned (over a pre-built partition view), the mid-level \
                 run_with_backend call, and the EulerPipeline builder; minimum over \
                 repetitions. The builder must add no measurable overhead over \
                 run_with_backend, which does the same graph-side work. The out_of_core \
                 section runs the zero-Graph spine (mmap .ecsr + streaming LDG) with and \
                 without a fragment memory_budget, recording peak resident fragment Longs \
                 and spill traffic; bit-identity between the two runs is asserted in-bench. \
                 The w_streaming section replays the same workload through the one-pass \
                 W-streaming Phase 1 (streaming_phase1), recording the chain machine's exact \
                 peak-resident traversal Longs against the dense run's wall time; circuit \
                 validity over the full edge multiset is asserted in-bench. \
                 The fault_tolerance section times the distributed wire-transport path with \
                 checkpointing off, on, and through a kill-and-resume recovery, asserting \
                 bit-identity to the in-process run in all three.",
            ),
        ),
        ("repetitions", Value::Num(reps as f64)),
        (
            "host_available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("results", Value::Arr(rows)),
        ("out_of_core", out_of_core),
        ("w_streaming", w_streaming),
        ("fault_tolerance", fault_tolerance),
    ]);
    std::fs::write("BENCH_pipeline.json", doc.to_pretty() + "\n").expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
}
