//! Partition-quality statistics (the columns of Table 1).

use euler_graph::{Graph, PartitionAssignment, PartitionedGraph};
use serde::{Deserialize, Serialize};

/// Quality metrics of a partition assignment, matching the characteristics the
/// paper reports for its inputs in Table 1.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct PartitionQuality {
    /// Number of vertices `|V|`.
    pub num_vertices: u64,
    /// Number of undirected edges `|E|` (the paper lists 2× this as the
    /// bi-directed count).
    pub num_edges: u64,
    /// Number of partitions `n`.
    pub num_partitions: u32,
    /// Total boundary vertices `Σ|B_i|`.
    pub boundary_vertices: u64,
    /// Number of cut (remote, undirected) edges.
    pub cut_edges: u64,
    /// Cut fraction `Σ|R_i| / |E|` (equals cut edges / undirected edges).
    pub cut_fraction: f64,
    /// Peak vertex imbalance `max_i |(|V| - n·|V_i|)/|V||`.
    pub imbalance: f64,
}

impl PartitionQuality {
    /// Evaluates the quality of `assignment` over `g`.
    pub fn evaluate(g: &Graph, assignment: &PartitionAssignment) -> Self {
        let pg = PartitionedGraph::from_assignment(g, assignment).expect("assignment covers the graph");
        Self::of_partitioned(&pg, assignment)
    }

    /// Evaluates the quality of an already-materialised partitioned graph.
    pub fn of_partitioned(pg: &PartitionedGraph, assignment: &PartitionAssignment) -> Self {
        PartitionQuality {
            num_vertices: pg.num_vertices(),
            num_edges: pg.num_edges(),
            num_partitions: pg.num_partitions(),
            boundary_vertices: pg.total_boundary_vertices(),
            cut_edges: pg.cut_edges(),
            cut_fraction: pg.cut_fraction(),
            imbalance: assignment.imbalance(),
        }
    }

    /// Bi-directed edge count, as reported in Table 1 (`2 |E|`).
    pub fn bidirected_edges(&self) -> u64 {
        2 * self.num_edges
    }

    /// Renders the metrics as a Table-1-style row:
    /// `name |V| |E| Σ|B_i| parts Σ|R_i|/|E|% |V_i| imbal%`.
    pub fn table1_row(&self, name: &str) -> Vec<String> {
        vec![
            name.to_string(),
            format!("{}", self.num_vertices),
            format!("{}", self.bidirected_edges()),
            format!("{}", self.boundary_vertices),
            format!("{}", self.num_partitions),
            format!("{:.0}%", self.cut_fraction * 100.0),
            format!("{:.0}%", self.imbalance * 100.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashPartitioner;
    use crate::ldg::LdgPartitioner;
    use crate::traits::Partitioner;
    use euler_gen::synthetic;
    use euler_graph::builder::graph_from_edges;

    #[test]
    fn quality_of_two_triangles_split_cleanly() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let a = euler_graph::PartitionAssignment::from_labels(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let q = PartitionQuality::evaluate(&g, &a);
        assert_eq!(q.cut_edges, 0);
        assert_eq!(q.boundary_vertices, 0);
        assert_eq!(q.cut_fraction, 0.0);
        assert_eq!(q.imbalance, 0.0);
        assert_eq!(q.bidirected_edges(), 12);
    }

    #[test]
    fn quality_reflects_cut_edges() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = euler_graph::PartitionAssignment::from_labels(vec![0, 0, 1, 1], 2).unwrap();
        let q = PartitionQuality::evaluate(&g, &a);
        assert_eq!(q.cut_edges, 2); // edges 1-2 and 3-0
        assert!((q.cut_fraction - 0.5).abs() < 1e-12);
        assert_eq!(q.boundary_vertices, 4);
    }

    #[test]
    fn table1_row_has_seven_columns() {
        let g = synthetic::torus_grid(8, 8);
        let a = LdgPartitioner::new(4).partition(&g);
        let q = PartitionQuality::evaluate(&g, &a);
        let row = q.table1_row("G_test/P4");
        assert_eq!(row.len(), 7);
        assert_eq!(row[0], "G_test/P4");
        assert!(row[5].ends_with('%'));
    }

    #[test]
    fn paper_trend_more_partitions_more_cut() {
        // Table 1: cut fraction grows with partition count for the same family.
        let g = euler_gen::configs::GraphConfig::by_name("G40/P4").unwrap().generate(-8).0;
        let q2 = PartitionQuality::evaluate(&g, &HashPartitioner::new(2).partition(&g));
        let q8 = PartitionQuality::evaluate(&g, &HashPartitioner::new(8).partition(&g));
        assert!(q8.cut_fraction > q2.cut_fraction);
    }
}
