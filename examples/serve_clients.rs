//! The Euler circuit service smoke: one server, many concurrent clients.
//!
//! Binds an in-process [`EulerService`] on loopback TCP and drives it the
//! way a deployment would:
//!
//! 1. three clients run the same registered graph concurrently, each with
//!    different options — every streamed circuit must be **bit-identical**
//!    to the library path (`EulerPipeline::run` with the same
//!    configuration);
//! 2. a fourth client starts a run on a much larger graph and cancels it
//!    mid-flight — the run must end with `Cancelled`, not a circuit;
//! 3. a repeat of a finished request must come from the circuit cache with
//!    no new pipeline run (the executed-run counter must not move);
//! 4. a client asking for more partitions than the graph can hold (a
//!    `P × P` cut matrix larger than its file) must get a typed
//!    `BAD_REQUEST`, not a server that dies allocating it, and must then
//!    complete a normal run on the same connection;
//! 5. throughout, the admission controller's high-water mark must stay at
//!    or under the configured cap, and the admitted budget must drain back
//!    to zero once the streams end.
//!
//! This is the CI smoke for the service layer. Run with:
//! `cargo run --release --example serve_clients`

use std::process::ExitCode;
use std::thread;

use euler_circuit::algo::service::error_code;
use euler_circuit::prelude::*;

const CAP_LONGS: u64 = 1 << 22;
const FRAGMENT_BUDGET_LONGS: u64 = 1 << 16;

/// The library path the service must match bit for bit: same source file,
/// same partitioner, same merge strategy, the default backend (whose result
/// does not depend on the thread count).
fn reference(path: &std::path::Path, opts: RunOptions) -> CircuitResult {
    let builder = EulerPipeline::builder()
        .source(MmapCsrSource::open(path).expect("reference source opens"))
        .config(EulerConfig {
            merge_strategy: opts.strategy,
            fragment_memory_budget: Some(FRAGMENT_BUDGET_LONGS),
            ..EulerConfig::default()
        });
    let builder = match opts.partitioner {
        PartitionerKind::Hash => builder.partitioner(HashPartitioner::new(opts.partitions)),
        PartitionerKind::Ldg => builder.partitioner(LdgPartitioner::new(opts.partitions)),
    };
    builder
        .build()
        .expect("reference pipeline builds")
        .run()
        .expect("reference pipeline runs")
        .circuit
        .result
}

fn main() -> ExitCode {
    let small = synthetic::random_eulerian_connected(300, 60, 6, 1907);
    let big = synthetic::random_eulerian_connected(30_000, 6_000, 8, 1908);
    let small_path =
        std::env::temp_dir().join(format!("euler-serve-small-{}.ecsr", std::process::id()));
    let big_path =
        std::env::temp_dir().join(format!("euler-serve-big-{}.ecsr", std::process::id()));
    write_csr_file(&small, &small_path).expect("small graph packs");
    write_csr_file(&big, &big_path).expect("big graph packs");

    let service = EulerService::bind(ServiceConfig {
        memory_cap_longs: CAP_LONGS,
        workers: 4,
        fragment_budget_longs: FRAGMENT_BUDGET_LONGS,
        ..ServiceConfig::default()
    })
    .expect("service binds");
    let endpoint = service.endpoint().to_string();
    println!("serving on {endpoint}");

    let admin = ServiceClient::connect(&endpoint).expect("admin client connects");
    let small_info = admin.register(small_path.to_str().unwrap()).expect("small registers");
    let big_info = admin.register(big_path.to_str().unwrap()).expect("big registers");
    println!(
        "registered {:#018x} ({} edges) and {:#018x} ({} edges)",
        small_info.checksum, small_info.num_edges, big_info.checksum, big_info.num_edges
    );

    // --- three concurrent clients, three configurations --------------------
    let variants = [
        RunOptions {
            partitions: 2,
            strategy: MergeStrategy::Duplicated,
            partitioner: PartitionerKind::Hash,
        },
        RunOptions {
            partitions: 4,
            strategy: MergeStrategy::Deduplicated,
            partitioner: PartitionerKind::Ldg,
        },
        RunOptions {
            partitions: 3,
            strategy: MergeStrategy::Deferred,
            partitioner: PartitionerKind::Hash,
        },
    ];
    let outcomes: Vec<RunOutcome> = thread::scope(|s| {
        let handles: Vec<_> = variants
            .iter()
            .map(|&opts| {
                let endpoint = endpoint.clone();
                s.spawn(move || {
                    let client = ServiceClient::connect(&endpoint).expect("client connects");
                    client.run(small_info.checksum, opts).expect("run streams")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread joins")).collect()
    });
    for (opts, outcome) in variants.iter().zip(&outcomes) {
        if outcome.cached || outcome.cancelled {
            eprintln!("FAIL: a fresh run reported cached={} cancelled={}", outcome.cached, outcome.cancelled);
            return ExitCode::FAILURE;
        }
        let expect = reference(&small_path, *opts);
        if outcome.circuits != expect.circuits {
            eprintln!("FAIL: streamed circuit differs from the library path for {opts:?}");
            return ExitCode::FAILURE;
        }
        let summary = outcome.summary.expect("fresh runs carry a summary");
        println!(
            "  {:?}/{:?} over {} partitions: {} circuit(s), {} admitted Longs, {} measured",
            opts.strategy,
            opts.partitioner,
            opts.partitions,
            outcome.circuits.len(),
            outcome.admitted_longs,
            summary.measured_longs
        );
    }
    println!("all three concurrent circuits are bit-identical to the library path");

    // --- cancellation ends the run and frees its budget ---------------------
    let canceller = ServiceClient::connect(&endpoint).expect("canceller connects");
    canceller
        .start_run(big_info.checksum, RunOptions { partitions: 8, ..RunOptions::default() })
        .expect("big run submits");
    // Wait until the run holds real budget, then ask for its cancellation.
    let admitted = loop {
        match canceller.next_event().expect("run event") {
            RunEvent::Accepted { admitted_longs, cached } => {
                if cached {
                    eprintln!("FAIL: the big run cannot be a cache hit");
                    return ExitCode::FAILURE;
                }
                break admitted_longs;
            }
            RunEvent::Cancelled => {
                eprintln!("FAIL: cancelled before anything was admitted");
                return ExitCode::FAILURE;
            }
            _ => {}
        }
    };
    canceller.cancel().expect("cancel frame sends");
    let cancelled = loop {
        match canceller.next_event().expect("run event") {
            RunEvent::Cancelled => break true,
            RunEvent::Done { .. } => break false,
            _ => {}
        }
    };
    if !cancelled {
        eprintln!("FAIL: the big run finished before the cancel landed");
        return ExitCode::FAILURE;
    }
    println!("cancelled the big run; its {admitted} admitted Longs came back");

    // --- cache hit: same request again, zero new pipeline runs --------------
    let before = admin.stats().expect("stats before the repeat");
    let repeat = admin.run(small_info.checksum, variants[0]).expect("repeat run streams");
    let after = admin.stats().expect("stats after the repeat");
    if !repeat.cached || repeat.circuits != outcomes[0].circuits {
        eprintln!("FAIL: the repeat request was not served verbatim from the cache");
        return ExitCode::FAILURE;
    }
    if after.runs_executed != before.runs_executed {
        eprintln!("FAIL: the cache hit re-ran the pipeline");
        return ExitCode::FAILURE;
    }
    println!("repeat request served from the circuit cache without a pipeline run");

    // --- an impossible partition count is refused, the connection lives on --
    let greedy = ServiceClient::connect(&endpoint).expect("greedy client connects");
    let huge = RunOptions { partitions: 200_000, ..RunOptions::default() };
    match greedy.run(small_info.checksum, huge) {
        Err(ServiceError::Remote { code: error_code::BAD_REQUEST, message }) => {
            println!("refused a {}-partition run: {message}", huge.partitions);
        }
        other => {
            eprintln!(
                "FAIL: a {}-partition run was not refused as BAD_REQUEST: {other:?}",
                huge.partitions
            );
            return ExitCode::FAILURE;
        }
    }
    let normal = RunOptions { partitions: 5, ..RunOptions::default() };
    let after_refusal =
        greedy.run(small_info.checksum, normal).expect("run after the refusal streams");
    if after_refusal.cached || after_refusal.circuits != reference(&small_path, normal).circuits {
        eprintln!("FAIL: the run after the refusal differs from the library path");
        return ExitCode::FAILURE;
    }
    println!("the same connection then streamed a normal run, bit-identical to the library path");

    // --- final accounting ----------------------------------------------------
    let stats = service.stats();
    println!(
        "stats: {} executed, {} cached, {} cancelled, {} graphs, peak {} of cap {} Longs",
        stats.runs_executed,
        stats.runs_cached,
        stats.runs_cancelled,
        stats.graphs_registered,
        stats.peak_admitted_longs,
        stats.memory_cap_longs
    );
    let accounting_ok = stats.peak_admitted_longs > 0
        && stats.peak_admitted_longs <= stats.memory_cap_longs
        && stats.admitted_longs == 0
        && stats.runs_executed == 4
        && stats.runs_cached == 1
        && stats.runs_cancelled == 1
        && stats.graphs_registered == 2;
    service.shutdown();
    std::fs::remove_file(&small_path).ok();
    std::fs::remove_file(&big_path).ok();
    if !accounting_ok {
        eprintln!("FAIL: service accounting is off");
        return ExitCode::FAILURE;
    }
    println!("admitted budget drained to zero; the peak stayed under the cap");
    ExitCode::SUCCESS
}
