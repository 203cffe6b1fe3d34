//! Process-per-worker BSP over a wire transport, with a SIGKILL mid-run.
//!
//! Two runs of the same pipeline on real `euler-worker` OS processes
//! connected over loopback TCP:
//!
//! 1. a clean run — coordinator spawns the workers, drives supersteps over
//!    length-prefixed checksummed frames, shuts the fleet down;
//! 2. a sabotaged run — the coordinator SIGKILLs one worker in the middle
//!    of a superstep; heartbeat/socket monitoring notices, the worker is
//!    respawned, the fleet rolls back to the superstep checkpoint and the
//!    run completes anyway.
//!
//! The final circuits must be bit-identical. Both runs are then repeated
//! with the graph packed to a temporary `.ecsr`: the coordinator ships no
//! partition states, each worker is pointed at the file and builds its own —
//! same circuit, a fraction of the Init bytes. This is the CI smoke for the
//! distributed path (the `euler-worker` binary must be built first, which
//! `cargo build` / `cargo test` do as a matter of course).
//!
//! Run with: `cargo run --release --example process_workers`

use std::process::ExitCode;
use std::sync::Arc;

use euler_circuit::prelude::*;

fn run(source: impl GraphSource + 'static, a: &PartitionAssignment, backend: BspBackend) -> PipelineRun {
    EulerPipeline::builder()
        .source(source)
        .assignment(a.clone())
        .backend(backend)
        .build()
        .expect("pipeline builds")
        .run()
        .expect("pipeline runs")
}

fn process_workers() -> BspBackend {
    BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(TcpTransport)).process_workers(true)
}

fn same_circuit(a: &PipelineRun, b: &PipelineRun) -> bool {
    a.circuit.result.circuits == b.circuit.result.circuits
        && a.merge.total_transfer_longs == b.merge.total_transfer_longs
}

fn main() -> ExitCode {
    // A mid-sized connected Eulerian graph over 4 partitions, 2 worker
    // processes (2 partition slots each).
    let g = synthetic::random_eulerian_connected(400, 40, 6, 2019);
    let a = LdgPartitioner::new(4).partition(&g);
    println!(
        "graph: {} vertices, {} edges, 4 partitions, 2 worker processes over TCP",
        g.num_vertices(),
        g.num_edges()
    );

    println!("\n=== clean run ===");
    let clean = run(InMemorySource::new(g.clone()), &a, process_workers());
    let engine = clean.merge.engine.as_ref().expect("BSP runs carry engine stats");
    println!("  placement (worker per partition): {:?}", engine.placement);
    println!(
        "  Init: {} bytes of partition states, level-0 build {:?} on the slowest worker",
        engine.init_bytes, engine.seed_build_time
    );
    for s in &engine.supersteps {
        println!(
            "  superstep {}: {} partitions, {} msgs / {} bytes kept on their worker, \
             {} msgs / {} bytes shuffled",
            s.superstep, s.active_partitions, s.local_messages, s.local_bytes, s.remote_messages, s.remote_bytes
        );
    }
    println!("  circuit edges: {}", clean.circuit.result.total_edges());
    // Fragments cross the wire as the records they are stored as: 8 bytes per
    // stored disk Long, plus five framing words for each partition stepped.
    let fragment_bytes: u64 = engine.supersteps.iter().map(|s| s.fragment_bytes).sum();
    let segments: u64 = engine.supersteps.iter().map(|s| s.active_partitions as u64).sum();
    let disk_longs = clean.circuit.fragment_disk_longs;
    println!("  fragments: {fragment_bytes} bytes in the Dones for {disk_longs} disk Longs in {segments} segments");
    if fragment_bytes != 8 * (disk_longs + 5 * segments) {
        eprintln!("FAIL: fragment bytes are not 8 x (disk Longs + 5 framing words per segment)");
        return ExitCode::FAILURE;
    }
    // Two partitions per worker: the level-0 merges have child and parent on
    // one worker, and such a state is handed over by value.
    if engine.supersteps.iter().all(|s| s.local_messages == 0) {
        eprintln!("FAIL: the clean run handed no state over by value");
        return ExitCode::FAILURE;
    }

    println!("\n=== SIGKILL worker 1 at superstep 1, checkpointed recovery ===");
    let ckpt = std::env::temp_dir().join(format!("euler-pw-ckpt-{}", std::process::id()));
    let sabotaged = || process_workers().checkpoint_dir(&ckpt).with_fault_plan(FaultPlan::kill_at(1, 1));
    let killed = run(InMemorySource::new(g.clone()), &a, sabotaged());
    let recovery = killed.merge.engine.as_ref().unwrap().recovery;
    println!(
        "  restarts: {}, full restarts: {}, heartbeat misses: {}",
        recovery.restarts, recovery.full_restarts, recovery.heartbeat_misses
    );
    println!(
        "  checkpoint Longs written: {}, restored: {}",
        recovery.checkpoint_longs_written, recovery.checkpoint_longs_restored
    );
    for w in &killed.merge.warnings {
        println!("  warning: {w}");
    }

    // The SIGKILL must have been seen — and absorbed without a trace in
    // the output.
    if recovery.restarts == 0 {
        eprintln!("FAIL: the kill was never observed");
        return ExitCode::FAILURE;
    }
    if !same_circuit(&clean, &killed) {
        eprintln!("FAIL: recovered run differs from the clean run");
        return ExitCode::FAILURE;
    }
    if ckpt.exists() {
        eprintln!("FAIL: checkpoint directory survived a completed run");
        return ExitCode::FAILURE;
    }
    println!("\nrecovered run is bit-identical to the clean run");

    println!("\n=== the same two runs from a packed .ecsr: workers read their own partitions ===");
    let ecsr = std::env::temp_dir().join(format!("euler-pw-{}.ecsr", std::process::id()));
    write_csr_file(&g, &ecsr).expect("pack the graph");
    let open = || MmapCsrSource::open(&ecsr).expect("open the packed graph");
    let from_file = run(open(), &a, process_workers());
    let killed_from_file = run(open(), &a, sabotaged());
    std::fs::remove_file(&ecsr).ok();
    let by_reference = from_file.merge.engine.as_ref().expect("BSP runs carry engine stats");
    let recovery = killed_from_file.merge.engine.as_ref().unwrap().recovery;
    println!(
        "  Init: {} bytes by reference ({} with the states shipped), level-0 build {:?} on the \
         slowest worker; sabotaged run: {} restart(s)",
        by_reference.init_bytes, engine.init_bytes, by_reference.seed_build_time, recovery.restarts
    );
    if !same_circuit(&clean, &from_file) || !same_circuit(&clean, &killed_from_file) {
        eprintln!("FAIL: a run from the .ecsr differs from the run from the graph");
        return ExitCode::FAILURE;
    }
    if by_reference.placement != engine.placement || by_reference.init_bytes >= engine.init_bytes {
        eprintln!("FAIL: the .ecsr run did not place alike or did not send less than the states");
        return ExitCode::FAILURE;
    }
    if recovery.restarts == 0 || ckpt.exists() {
        eprintln!("FAIL: the kill of the .ecsr run was not observed, or its checkpoints survived");
        return ExitCode::FAILURE;
    }
    println!("\nruns from the .ecsr are bit-identical to the runs from the graph");
    ExitCode::SUCCESS
}
