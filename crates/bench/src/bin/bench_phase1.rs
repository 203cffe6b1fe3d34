//! Before/after measurements for the Phase-1 kernel.
//!
//! Two experiments share this binary:
//!
//! 1. **Dense vs reference** — the retained hash-map reference kernel
//!    (`euler_oracle::run_phase1_reference`, the "before")
//!    against the dense CSR-arena kernel (`euler_core::phase1::run_phase1`,
//!    the "after") over single partitions up to 1M+ local edges.
//! 2. **Splice storm** — the same two kernels on star-of-cycles workloads,
//!    where ~k internal cycles splice into one pending fragment.
//!
//! Both are single-threaded kernel rows; the host's parallelism is recorded
//! for the record only. Everything goes to `BENCH_phase1.json`. Outside the
//! timed regions every row also compares the two kernels' fragments (whole
//! fragments, in id order), so a run is a dense ≡ reference differential at
//! sizes the property tests never reach.
//!
//! Usage: `cargo run --release -p euler-bench --bin bench_phase1 [reps]`
//! (default 5 repetitions; the minimum over reps is reported).

use euler_bench::{round_robin_working_partitions, single_working_partition};
use euler_core::fragment::FragmentStore;
use euler_core::phase1::run_phase1;
use euler_core::WorkingPartition;
use euler_gen::eulerize::eulerize;
use euler_gen::rmat::RmatGenerator;
use euler_gen::synthetic;
use euler_metrics::json::Value;
use euler_oracle::run_phase1_reference;
use std::time::Instant;

/// Minimum wall time over `reps` runs of `kernel` across all partitions of
/// the workload, and the fragment store of the last run (for the check that
/// the kernels do the same work).
fn time_kernel(
    template: &[WorkingPartition],
    reps: u32,
    mut kernel: impl FnMut(&mut WorkingPartition, &FragmentStore),
) -> (f64, FragmentStore) {
    let mut best = f64::INFINITY;
    let mut last = FragmentStore::new();
    for _ in 0..reps {
        let mut wps: Vec<WorkingPartition> = template.to_vec();
        let store = FragmentStore::new();
        let start = Instant::now();
        for wp in &mut wps {
            kernel(wp, &store);
        }
        let elapsed = start.elapsed().as_secs_f64();
        best = best.min(elapsed);
        last = store;
    }
    (best, last)
}

/// Asserts both kernels left the same fragments, in id order, and returns
/// how many.
fn assert_same_fragments(name: &str, reference: &FragmentStore, dense: &FragmentStore) -> usize {
    let expect = reference.snapshot();
    let mut i = 0;
    dense.for_each(|f| {
        assert!(expect.get(i) == Some(f), "{name}: dense fragment {i} ({:?}) differs", f.id);
        i += 1;
    });
    assert_eq!(i, expect.len(), "{name}: kernels must produce identical fragment counts");
    i
}

fn main() {
    // At least one repetition, or the reported minima would be infinite.
    let reps: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5).max(1);
    let (rmat_1m, _) = eulerize(&RmatGenerator::new(18).with_avg_degree(8.0).with_seed(7).generate());
    let torus_1m = synthetic::torus_grid(708, 708);
    let (rmat_4p, _) = eulerize(&RmatGenerator::new(16).with_avg_degree(8.0).with_seed(11).generate());
    let workloads: Vec<(&str, Vec<WorkingPartition>)> = vec![
        ("rmat18_eulerized_1_partition", single_working_partition(&rmat_1m)),
        ("torus_708x708_1_partition", single_working_partition(&torus_1m)),
        ("rmat16_eulerized_4_partitions", round_robin_working_partitions(&rmat_4p, 4)),
    ];

    // --- Experiment 1: dense kernel vs hash-map reference. -----------------
    let mut rows = Vec::new();
    for (name, template) in &workloads {
        let local_edges: u64 = template.iter().map(|wp| wp.local_edges.len() as u64).sum();
        let (ref_s, ref_store) = time_kernel(template, reps, |wp, store| {
            run_phase1_reference(wp, store);
        });
        let (dense_s, dense_store) = time_kernel(template, reps, |wp, store| {
            run_phase1(wp, store);
        });
        let dense_frags = assert_same_fragments(name, &ref_store, &dense_store);
        let speedup = ref_s / dense_s;
        println!("{name}: {local_edges} local edges | reference {ref_s:.3}s | dense {dense_s:.3}s | {speedup:.2}x");
        rows.push(Value::obj(vec![
            ("workload", Value::str(*name)),
            ("partitions", Value::Num(template.len() as f64)),
            ("local_edges", Value::Num(local_edges as f64)),
            ("fragments", Value::Num(dense_frags as f64)),
            ("reference_seconds", Value::Num(ref_s)),
            ("dense_seconds", Value::Num(dense_s)),
            ("speedup", Value::Num(speedup)),
        ]));
    }

    // --- Experiment 1b: the mergeInto splice-storm. -------------------------
    // A star of cycles forces ~k internal cycles to splice into one pending
    // fragment: the Vec-splice reference pays Θ(k) tail-shifting per merge
    // (Θ(k²) total), the splice-order index links each in O(1)+O(|cycle|).
    // Sizes triple so super-linear scaling is visible in the "before" column.
    let mut storm_rows = Vec::new();
    for &k in &[1_000u64, 4_000, 16_000] {
        let g = synthetic::star_of_cycles(k);
        let template = single_working_partition(&g);
        let local_edges: u64 = template.iter().map(|wp| wp.local_edges.len() as u64).sum();
        let (ref_s, ref_store) = time_kernel(&template, reps, |wp, store| {
            run_phase1_reference(wp, store);
        });
        let (dense_s, dense_store) = time_kernel(&template, reps, |wp, store| {
            run_phase1(wp, store);
        });
        let dense_frags = assert_same_fragments(&format!("star_of_cycles_{k}"), &ref_store, &dense_store);
        // One untimed run for the splice-index counters (identical for both
        // kernels by construction; the dense one is cheaper to rerun).
        let splice = {
            let mut wps = template.to_vec();
            let store = FragmentStore::new();
            let mut acc = euler_core::phase1::SpliceStats::default();
            for wp in &mut wps {
                let out = run_phase1(wp, &store);
                acc.pivot_lookups += out.splice.pivot_lookups;
                acc.linked_splices += out.splice.linked_splices;
                acc.materialization_longs += out.splice.materialization_longs;
            }
            acc
        };
        let speedup = ref_s / dense_s;
        println!(
            "star_of_cycles_{k}: {local_edges} local edges | {} linked splices | \
             reference {ref_s:.3}s | dense {dense_s:.3}s | {speedup:.2}x",
            splice.linked_splices
        );
        storm_rows.push(Value::obj(vec![
            ("workload", Value::str(format!("star_of_cycles_{k}"))),
            ("core_cycle_len", Value::Num(k as f64)),
            ("local_edges", Value::Num(local_edges as f64)),
            ("fragments", Value::Num(dense_frags as f64)),
            ("pivot_lookups", Value::Num(splice.pivot_lookups as f64)),
            ("linked_splices", Value::Num(splice.linked_splices as f64)),
            ("materialization_longs", Value::Num(splice.materialization_longs as f64)),
            ("reference_seconds", Value::Num(ref_s)),
            ("dense_seconds", Value::Num(dense_s)),
            ("speedup", Value::Num(speedup)),
        ]));
    }

    let doc = Value::obj(vec![
        ("experiment", Value::str("phase1_dense_vs_reference")),
        (
            "description",
            Value::str(
                "Phase-1 kernel wall time, hash-map reference (before) vs dense CSR-arena \
                 rewrite (after); minimum over repetitions",
            ),
        ),
        ("repetitions", Value::Num(reps as f64)),
        ("host_available_parallelism", Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("results", Value::Arr(rows)),
        (
            "splice_storm",
            Value::obj(vec![
                ("experiment", Value::str("phase1_merge_into_splice_storm")),
                (
                    "description",
                    Value::str(
                        "Hub-heavy star-of-cycles workload: ~k internal cycles all splice into \
                         one pending fragment. Vec-splice reference (before, Theta(k^2) tail \
                         shifts) vs the splice-order index (after, O(1) pivot lookup + \
                         O(|cycle|) link-in); minimum over repetitions.",
                    ),
                ),
                ("repetitions", Value::Num(reps as f64)),
                ("results", Value::Arr(storm_rows)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_phase1.json", doc.to_pretty() + "\n").expect("write BENCH_phase1.json");
    println!("wrote BENCH_phase1.json");
}
