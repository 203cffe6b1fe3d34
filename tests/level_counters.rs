//! Golden level counters: every exact (timing-free) number a pipeline run
//! reports — each field of each per-level, per-partition record, the
//! transfer and fragment-disk totals, the spill and W-stream counters of the
//! sequential runs, and a fingerprint of the circuit — pinned against
//! `tests/golden/level_counters.json`.
//!
//! The differential suites compare two runs of the *same* build; this one
//! compares against numbers recorded from an earlier build, so an
//! optimisation of the per-level passes that shifts a counter, a fragment id
//! or a single circuit step fails here even if every backend shifted with
//! it. After an intended change, regenerate the file with
//!
//! ```text
//! cargo test --test level_counters -- --ignored regenerate_golden
//! ```
//!
//! and review the diff.

use euler_circuit::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The exact fields of a [`LevelPartitionReport`], in golden column order.
const RECORD_FIELDS: [&str; 17] = [
    "level",
    "partition",
    "even_internal",
    "even_boundary",
    "odd_boundary",
    "remote_edges",
    "local_edges",
    "complexity",
    "memory_longs",
    "remote_needed_now",
    "transfer_in_longs",
    "paths_found",
    "cycles_found",
    "internal_cycles_merged",
    "splice_pivot_lookups",
    "splice_linked_splices",
    "splice_materialization_longs",
];

fn record_row(r: &LevelPartitionReport) -> [u64; 17] {
    [
        r.level as u64,
        r.partition.0 as u64,
        r.counts.even_internal,
        r.counts.even_boundary,
        r.counts.odd_boundary,
        r.counts.remote_edges,
        r.counts.local_edges,
        r.complexity,
        r.memory_longs,
        r.remote_needed_now,
        r.transfer_in_longs,
        r.paths_found,
        r.cycles_found,
        r.internal_cycles_merged,
        r.splice_pivot_lookups,
        r.splice_linked_splices,
        r.splice_materialization_longs,
    ]
}

/// FNV-1a (64-bit) over every step of every circuit, with a separator word
/// between circuits.
fn circuit_fnv(result: &CircuitResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for circuit in &result.circuits {
        for step in circuit {
            eat(step.edge.0);
            eat(step.from.0);
            eat(step.to.0);
        }
        eat(u64::MAX);
    }
    h
}

fn join(values: &[u64]) -> String {
    values.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
}

/// A one-line JSON object of counters.
fn object(fields: &[(&str, u64)]) -> String {
    let members: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", members.join(", "))
}

/// Appends one run as a JSON object member. `sequential` runs add their
/// spill (and, when present, W-stream) counters, which only a one-at-a-time
/// schedule makes exact.
fn write_run(out: &mut String, name: &str, run: &PipelineRun, sequential: bool) {
    let _ = writeln!(out, "    \"{name}\": {{");
    let _ = writeln!(out, "      \"supersteps\": {},", run.merge.supersteps);
    let _ = writeln!(out, "      \"total_transfer_longs\": {},", run.merge.total_transfer_longs);
    let _ = writeln!(out, "      \"fragment_disk_longs\": {},", run.circuit.fragment_disk_longs);
    let _ = writeln!(out, "      \"circuits\": {},", run.circuit.result.num_circuits());
    let _ = writeln!(out, "      \"circuit_edges\": {},", run.circuit.result.total_edges());
    let _ = writeln!(out, "      \"circuit_fnv1a\": \"{:016x}\",", circuit_fnv(&run.circuit.result));
    if sequential {
        let s = &run.circuit.fragment_stats;
        let stats = object(&[
            ("resident_longs", s.resident_longs),
            ("peak_resident_longs", s.peak_resident_longs),
            ("spilled_fragments", s.spilled_fragments),
            ("spill_write_longs", s.spill_write_longs),
            ("spill_read_longs", s.spill_read_longs),
            ("spill_errors", s.spill_errors),
            ("evictions_scheduled", s.evictions_scheduled),
        ]);
        let _ = writeln!(out, "      \"fragment_stats\": {stats},");
        if let Some(w) = &run.merge.wstream {
            let wstream = object(&[
                ("num_vertices", w.num_vertices),
                ("entries_streamed", w.entries_streamed),
                ("edges_ingested", w.edges_ingested),
                ("chunk_edges", w.chunk_edges),
                ("resident_longs", w.resident_longs),
                ("peak_resident_longs", w.peak_resident_longs),
                ("fragments_emitted", w.fragments_emitted),
                ("cycles_emitted", w.cycles_emitted),
                ("open_chain_flushes", w.open_chain_flushes),
                ("residual_local_edges", w.residual_local_edges),
                ("residual_remote_edges", w.residual_remote_edges),
            ]);
            let _ = writeln!(out, "      \"wstream\": {wstream},");
        }
    }
    let _ = writeln!(out, "      \"records\": [");
    let rows: Vec<String> = run
        .merge
        .per_partition
        .iter()
        .map(|r| format!("        [{}]", join(&record_row(r))))
        .collect();
    let _ = writeln!(out, "{}", rows.join(",\n"));
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
}

/// Runs every golden workload and renders the document.
fn render() -> String {
    let mut runs: Vec<(String, PipelineRun, bool)> = Vec::new();

    // R-MAT scale 12 (power-law hubs, high cut) × LDG 8 × every strategy, on
    // the default concurrent schedule.
    let rmat =
        eulerize(&RmatGenerator::new(12).with_avg_degree(8.0).with_seed(1).generate()).0;
    for (tag, strategy) in [
        ("duplicated", MergeStrategy::Duplicated),
        ("deduplicated", MergeStrategy::Deduplicated),
        ("deferred", MergeStrategy::Deferred),
    ] {
        let run = EulerPipeline::builder()
            .graph(&rmat)
            .partitioner(LdgPartitioner::new(8))
            .strategy(strategy)
            .verify(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        runs.push((format!("rmat12_ldg8_{tag}"), run, false));
    }

    // Torus 64 × 64 (regular, tiny cut) × LDG 4, sequential, under a 1/8
    // fragment budget — through the dense kernel and the W-streaming pass.
    let torus = synthetic::torus_grid(64, 64);
    let torus_run = |config: EulerConfig| {
        EulerPipeline::builder()
            .graph(&torus)
            .partitioner(LdgPartitioner::new(4))
            .config(config.with_verify(true))
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let sequential = EulerConfig::default().sequential();
    let budget = torus_run(sequential.clone()).circuit.fragment_disk_longs / 8;
    let budgeted = sequential.with_fragment_memory_budget(budget);
    runs.push(("torus64_ldg4_spill".into(), torus_run(budgeted.clone()), true));
    runs.push((
        "torus64_ldg4_wstream".into(),
        torus_run(budgeted.with_streaming_phase1(true)),
        true,
    ));

    let mut out = String::from("{\n");
    let fields: Vec<String> = RECORD_FIELDS.iter().map(|f| format!("\"{f}\"")).collect();
    let _ = writeln!(out, "  \"record_fields\": [{}],", fields.join(", "));
    let _ = writeln!(out, "  \"runs\": {{");
    for (i, (name, run, sequential)) in runs.iter().enumerate() {
        write_run(&mut out, name, run, *sequential);
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/level_counters.json")
}

#[test]
fn level_counters_match_the_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/level_counters.json");
    assert!(
        euler_circuit::metrics::json::parse(&golden).is_some(),
        "the golden file must stay valid JSON"
    );
    let actual = render();
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "level counters diverge from tests/golden/level_counters.json at line {} \
             (columns: {RECORD_FIELDS:?}); if the change is intended, regenerate with \
             `cargo test --test level_counters -- --ignored regenerate_golden`",
            i + 1
        );
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "golden file length");
}

#[test]
#[ignore = "rewrites tests/golden/level_counters.json from the current build"]
fn regenerate_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).unwrap();
    std::fs::write(&path, render()).unwrap();
}
