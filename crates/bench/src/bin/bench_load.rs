//! Load-path comparison for the `.ecsr` mmap loader (ROADMAP: "mmap /
//! streaming graph loading").
//!
//! For ≥1M-edge workloads this harness writes the same graph as a plain-text
//! edge list and as a binary `.ecsr` file, then times every way the pipeline
//! can get from a file to runnable input:
//!
//! * **text parse** — `EdgeListFileSource::load` (chunked parse + builder;
//!   what the pipeline consumes from a text source);
//! * **mmap open, validated** — `MmapCsrSource::open`: full checksum +
//!   structure pass, yielding the mapped CSR view the pipeline's direct
//!   slicing path consumes as-is (no `Graph` is ever built);
//! * **mmap open, trusted** — `MmapCsrSource::open_trusted`: header checks
//!   only, nothing paged in eagerly;
//! * **mmap → Graph** — validated open plus exact `Graph` reconstruction,
//!   for callers that do want the resident graph back;
//! * **partition slicing** — `PartitionedGraph::from_assignment` over the
//!   resident graph vs. `CsrFile::partitioned` cutting the partition-centric
//!   view straight from the mapped sections.
//!
//! Results (minimum over reps) go to `BENCH_load.json`. The headline
//! `mmap_speedup_over_text` compares the two pipeline-ready loads (text
//! parse vs. validated mmap open) and is expected to be >= 5x.
//!
//! Usage: `cargo run --release -p euler-bench --bin bench_load [reps]`
//! (default 3 repetitions).

use euler_gen::eulerize::eulerize;
use euler_gen::rmat::RmatGenerator;
use euler_gen::synthetic;
use euler_graph::{write_csr_file, EdgeListFileSource, Graph, GraphSource, MmapCsrSource, PartitionedGraph};
use euler_metrics::json::Value;
use euler_partition::{LdgPartitioner, Partitioner};
use std::path::Path;
use std::time::Instant;

/// Minimum wall time over `reps` runs of `f`, plus the last run's check sum.
fn time_runs<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out.expect("reps >= 1"))
}

fn bench_workload(name: &str, g: &Graph, dir: &Path, reps: u32) -> Value {
    let el = dir.join(format!("{name}.el"));
    let ecsr = dir.join(format!("{name}.ecsr"));
    euler_graph::io::write_edge_list_file(g, &el).expect("write edge list");
    write_csr_file(g, &ecsr).expect("write csr file");
    let el_bytes = std::fs::metadata(&el).expect("stat .el").len();
    let ecsr_bytes = std::fs::metadata(&ecsr).expect("stat .ecsr").len();

    let (text_s, text_graph) = time_runs(reps, || EdgeListFileSource::new(&el).load().expect("text parse"));
    let (open_s, opened) = time_runs(reps, || MmapCsrSource::open(&ecsr).expect("open .ecsr"));
    let (trusted_open_s, _) = time_runs(reps, || MmapCsrSource::open_trusted(&ecsr).expect("open .ecsr"));
    let (to_graph_s, mmap_graph) =
        time_runs(reps, || MmapCsrSource::open(&ecsr).expect("open .ecsr").load().expect("mmap load"));
    assert_eq!(text_graph.num_edges(), g.num_edges(), "text parse changed the graph");
    assert_eq!(opened.csr_file().num_edges(), g.num_edges(), "mmap open changed the graph");
    assert_eq!(mmap_graph.num_edges(), g.num_edges(), "mmap load changed the graph");
    assert_eq!(mmap_graph.num_vertices(), g.num_vertices());

    // Partition slicing: classic path needs the resident graph; the direct
    // path cuts partitions from the mapped sections without one. Both start
    // from an already-opened input so the timings compare the same work.
    let assignment = LdgPartitioner::new(8).partition(g);
    let (part_graph_s, pg_mem) =
        time_runs(reps, || PartitionedGraph::from_assignment(&mmap_graph, &assignment).expect("partition graph"));
    let slicer = MmapCsrSource::open_trusted(&ecsr).expect("open .ecsr");
    let (part_slice_s, pg_csr) =
        time_runs(reps, || slicer.csr_file().partitioned(&assignment).expect("slice partitions"));
    assert_eq!(pg_csr.cut_edges(), pg_mem.cut_edges(), "slicing paths disagree");
    assert_eq!(pg_csr.num_edges(), pg_mem.num_edges());

    let speedup = text_s / open_s;
    println!(
        "{name}: {} edges | text parse {text_s:.3}s | mmap open {open_s:.3}s ({speedup:.1}x) | \
         trusted open {trusted_open_s:.4}s | mmap->Graph {to_graph_s:.3}s | \
         partition from-graph {part_graph_s:.3}s vs direct-slice {part_slice_s:.3}s",
        g.num_edges(),
    );
    std::fs::remove_file(&el).ok();
    std::fs::remove_file(&ecsr).ok();
    Value::obj(vec![
        ("workload", Value::str(name)),
        ("vertices", Value::Num(g.num_vertices() as f64)),
        ("edges", Value::Num(g.num_edges() as f64)),
        ("edge_list_bytes", Value::Num(el_bytes as f64)),
        ("ecsr_bytes", Value::Num(ecsr_bytes as f64)),
        ("text_parse_seconds", Value::Num(text_s)),
        ("mmap_open_validated_seconds", Value::Num(open_s)),
        ("mmap_open_trusted_seconds", Value::Num(trusted_open_s)),
        ("mmap_to_graph_seconds", Value::Num(to_graph_s)),
        ("mmap_speedup_over_text", Value::Num(speedup)),
        ("partition_from_graph_seconds", Value::Num(part_graph_s)),
        ("partition_direct_slice_seconds", Value::Num(part_slice_s)),
    ])
}

fn main() {
    let reps: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3).max(1);
    let dir = std::env::temp_dir().join("euler_bench_load");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let (rmat, _) = eulerize(&RmatGenerator::new(18).with_avg_degree(8.0).with_seed(11).generate());
    let torus = synthetic::torus_grid(708, 708);
    assert!(rmat.num_edges() >= 1_000_000, "rmat workload must have >= 1M edges");
    assert!(torus.num_edges() >= 1_000_000, "torus workload must have >= 1M edges");

    let mut rows = Vec::new();
    for (name, g) in [("rmat18_eulerized", &rmat), ("torus_708x708", &torus)] {
        rows.push(bench_workload(name, g, &dir, reps));
    }

    let doc = Value::obj(vec![
        ("experiment", Value::str("graph_load_paths")),
        (
            "description",
            Value::str(
                "Wall time from an on-disk graph to pipeline-ready input at >= 1M edges: \
                 chunked text edge-list parse (yields a Graph) vs. memory-mapped .ecsr open \
                 (yields the CSR view the direct slicing path consumes; validated = checksum \
                 + structural pass, trusted = header only), plus the mmap->Graph exact \
                 reconstruction and the partition-view build from a resident graph vs. \
                 sliced directly from the mapped sections; minimum over repetitions.",
            ),
        ),
        ("repetitions", Value::Num(reps as f64)),
        ("results", Value::Arr(rows)),
    ]);
    std::fs::write("BENCH_load.json", doc.to_pretty() + "\n").expect("write BENCH_load.json");
    println!("wrote BENCH_load.json");
}
