//! Reproduces Fig. 4: the degree distribution of the raw R-MAT graph versus
//! its Eulerized counterpart (log-bucketed), plus the extra-edge fraction.

use euler_bench::parse_scale_shift;
use euler_gen::configs::GraphConfig;
use euler_gen::degree::DegreeHistogram;
use euler_gen::eulerize::eulerize;
use euler_metrics::{Report, Series, Table};

fn main() {
    let shift = parse_scale_shift();
    // The paper's Fig. 4 uses the 10M-vertex / 50M-edge input; we use the
    // scaled G20 configuration.
    let config = GraphConfig::by_name("G20/P2").expect("known config");
    let raw = config.generate_raw(shift);
    let (eulerized, info) = eulerize(&raw);

    let mut report = Report::new("fig4_degree_distribution");
    report.note(format!(
        "raw RMAT: |V|={} |E|={}; eulerized: |E|={} (extra edges {:.1}%, paper reports ~5%)",
        raw.num_vertices(),
        raw.num_edges(),
        eulerized.num_edges(),
        info.extra_edge_fraction() * 100.0
    ));

    let h_raw = DegreeHistogram::of(&raw);
    let h_eul = DegreeHistogram::of(&eulerized);
    report.note(format!(
        "total-variation distance between the two degree distributions: {:.4}",
        h_raw.total_variation_distance(&h_eul)
    ));

    let mut s_raw = Series::new("rmat_degree_distribution");
    for (bucket, count) in h_raw.log_buckets() {
        s_raw.push(format!("deg~{bucket}"), bucket as f64, count as f64);
    }
    let mut s_eul = Series::new("eulerian_degree_distribution");
    for (bucket, count) in h_eul.log_buckets() {
        s_eul.push(format!("deg~{bucket}"), bucket as f64, count as f64);
    }
    let mut table =
        Table::new("Degree distribution (log2 buckets): vertices per bucket", &["Degree bucket", "RMAT", "Eulerized"]);
    for (bucket, count) in h_raw.log_buckets() {
        table.row(&[
            bucket.to_string(),
            count.to_string(),
            h_eul.log_buckets().iter().find(|(b, _)| *b == bucket).map(|(_, c)| *c).unwrap_or(0).to_string(),
        ]);
    }
    report.add_table(table);
    report.add_series(s_raw);
    report.add_series(s_eul);
    println!("{}", report.render());
}
