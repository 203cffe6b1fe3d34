//! The out-of-core spine: pack a graph into the binary `.ecsr` format
//! (docs/FORMAT.md), memory-map it back, partition it with *streaming* LDG
//! (chunked edge batches off the mapped sections — no in-memory `Graph` is
//! ever materialised), and run the pipeline under a fragment memory budget
//! that pages cold circuit fragments to a temp file.
//!
//! This is the full "graphs larger than memory" mode the paper's §5 scale
//! claim needs: the text parse + builder pass happens once, offline (the
//! `csr_pack` tool does the same for existing edge-list files); every later
//! run pays a checksummed `mmap` open, one streaming partition pass, and a
//! bounded resident fragment set.
//!
//! Run with: `cargo run --example mmap_pipeline`

use euler_circuit::prelude::*;

fn main() {
    // A mid-sized Eulerian workload: a 100x100 torus grid (20k edges).
    let g = synthetic::torus_grid(100, 100);
    println!("workload: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    // Pack once. `csr_pack <input.el> <output.ecsr>` does this for files.
    let dir = std::env::temp_dir().join("euler_example_mmap");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("torus.ecsr");
    write_csr_file(&g, &path).expect("write .ecsr");
    println!("packed to {} ({} bytes)", path.display(), std::fs::metadata(&path).unwrap().len());

    // Map it back. `open` validates magic, version, endianness, checksum and
    // the CSR invariants; corrupt files fail here with a typed error.
    let source = MmapCsrSource::open(&path).expect("open .ecsr");
    println!("mapped: {}", source.name());

    // A CSR-backed source plus a streaming-capable partitioner takes the
    // zero-Graph path: LDG consumes vertex-grouped edge batches straight off
    // the mapped sections (identical assignment to the in-memory path), the
    // Eulerian degree pre-check runs off the offsets section alone, and the
    // partition view is sliced from the mapped arrays. `.memory_budget(..)`
    // additionally bounds resident circuit-fragment memory: overflow pages
    // to a temp file and is reloaded on demand in Phase 3 — bit-identical
    // circuits, observable spill accounting.
    let run = EulerPipeline::builder()
        .source(source)
        .partitioner(LdgPartitioner::new(4))
        .strategy(MergeStrategy::Deferred)
        .memory_budget(8_192) // Longs; far below this workload's fragments
        .build()
        .expect("pipeline config")
        .run()
        .expect("pipeline run");

    println!(
        "partition stage: '{}' in {:?} (load time {:?} — nothing is loaded up front)",
        run.partition.partitioner, run.partition.partition_time, run.partition.load_time,
    );
    println!(
        "merge stage: {} supersteps on '{}' backend, {} Longs shipped",
        run.merge.supersteps, run.merge.backend, run.merge.total_transfer_longs,
    );
    let stats = run.circuit.fragment_stats;
    println!(
        "fragment store: {} of {} Longs peak resident | {} fragments spilled \
         ({} Longs written in {} spill_writes, {} read back in {} spill_reads by Phase 3's two passes)",
        stats.peak_resident_longs,
        run.circuit.fragment_disk_longs,
        stats.spilled_fragments,
        stats.spill_write_longs,
        stats.spill_writes,
        stats.spill_read_longs,
        stats.spill_reads,
    );
    assert!(run.partition.partitioner.contains("streamed"), "zero-Graph path expected");
    assert!(stats.spilled_fragments > 0, "the tiny budget must spill");
    // Evicted fragments reach the spill file in runs, not one write each.
    assert!(
        0 < stats.spill_writes && stats.spill_writes < stats.spilled_fragments,
        "spilled fragments must be written in runs: {stats:?}"
    );
    // And read back in the same runs, once per Phase-3 pass.
    assert!(
        0 < stats.spill_reads && stats.spill_reads <= 2 * stats.spill_writes,
        "the spill file must be read back in its runs: {stats:?}"
    );
    let result = &run.circuit.result;
    println!(
        "circuit stage: {} circuit(s) covering {} edges (graph has {})",
        result.num_circuits(),
        result.total_edges(),
        g.num_edges(),
    );
    assert_eq!(result.total_edges(), g.num_edges());

    // The mapped load reproduces the original graph exactly, so verifying
    // against the in-memory graph still succeeds.
    verify_circuit(&g, result.circuit().expect("single circuit")).expect("valid Euler circuit");
    println!("verified: every edge exactly once, chained, closed");
    std::fs::remove_file(&path).ok();
}
