//! Named graph configurations mirroring the paper's inputs (Table 1).
//!
//! The paper evaluates five Eulerized R-MAT graphs, G20/P2 … G50/P8, with
//! 20–49 M vertices and 212–529 M (bi-directed) edges on an 8-VM cluster.
//! Those sizes target 64 GB-RAM machines; this reproduction runs the same
//! *family* at a configurable scale factor so the whole suite executes on a
//! single host while preserving the ratios that drive the evaluation:
//! vertices per partition, average degree ≈5, partition counts 2/3/4/8/8.

use crate::eulerize::{eulerize, EulerizeReport};
use crate::rmat::RmatGenerator;
use euler_graph::Graph;
use serde::{Deserialize, Serialize};

/// A named graph configuration of the paper's G-family.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct GraphConfig {
    /// Paper name, e.g. `"G20/P2"`.
    pub name: &'static str,
    /// Number of vertices in the *paper's* input (millions).
    pub paper_vertices_m: f64,
    /// Number of bi-directed edges in the paper's input (millions).
    pub paper_edges_m: f64,
    /// Number of partitions used by the paper for this input.
    pub partitions: u32,
    /// R-MAT scale (log2 vertices) used in this reproduction at scale 1.0.
    pub base_scale: u32,
    /// Seed for the generator.
    pub seed: u64,
}

/// The five configurations of Table 1.
pub const PAPER_CONFIGS: [GraphConfig; 5] = [
    GraphConfig {
        name: "G20/P2",
        paper_vertices_m: 20.0,
        paper_edges_m: 212.0,
        partitions: 2,
        base_scale: 16,
        seed: 20,
    },
    GraphConfig {
        name: "G30/P3",
        paper_vertices_m: 30.0,
        paper_edges_m: 318.0,
        partitions: 3,
        base_scale: 17,
        seed: 30,
    },
    GraphConfig {
        name: "G40/P4",
        paper_vertices_m: 40.0,
        paper_edges_m: 423.0,
        partitions: 4,
        base_scale: 17,
        seed: 40,
    },
    GraphConfig {
        name: "G40/P8",
        paper_vertices_m: 40.0,
        paper_edges_m: 423.0,
        partitions: 8,
        base_scale: 17,
        seed: 40,
    },
    GraphConfig {
        name: "G50/P8",
        paper_vertices_m: 49.0,
        paper_edges_m: 529.0,
        partitions: 8,
        base_scale: 18,
        seed: 50,
    },
];

impl GraphConfig {
    /// Looks a configuration up by its paper name (e.g. `"G50/P8"`).
    pub fn by_name(name: &str) -> Option<GraphConfig> {
        PAPER_CONFIGS.iter().copied().find(|c| c.name == name)
    }

    /// The R-MAT scale after applying `scale_shift` (each step halves or
    /// doubles the vertex count). `scale_shift = 0` gives the default
    /// single-host size (65 K – 262 K vertices); negative values shrink it
    /// further for quick tests.
    pub fn rmat_scale(&self, scale_shift: i32) -> u32 {
        let s = self.base_scale as i64 + scale_shift as i64;
        s.clamp(6, 26) as u32
    }

    /// Generates the Eulerized graph for this configuration.
    ///
    /// Returns the graph together with the Eulerizer report (extra-edge
    /// fraction, as in Fig. 4 / §4.2).
    pub fn generate(&self, scale_shift: i32) -> (Graph, EulerizeReport) {
        let rmat = RmatGenerator::new(self.rmat_scale(scale_shift)).with_avg_degree(5.0).with_seed(self.seed);
        let raw = rmat.generate();
        eulerize(&raw)
    }

    /// Generates the raw (pre-Eulerization) R-MAT graph, needed by the Fig.-4
    /// harness to overlay both distributions.
    pub fn generate_raw(&self, scale_shift: i32) -> Graph {
        RmatGenerator::new(self.rmat_scale(scale_shift)).with_avg_degree(5.0).with_seed(self.seed).generate()
    }

    /// Vertices per partition in the paper (the weak-scaling ratio: ≈10 M per
    /// VM for G20/P2, G30/P3, G40/P4).
    pub fn paper_vertices_per_partition_m(&self) -> f64 {
        self.paper_vertices_m / self.partitions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::is_eulerian;

    #[test]
    fn all_five_configs_present() {
        assert_eq!(PAPER_CONFIGS.len(), 5);
        let names: Vec<_> = PAPER_CONFIGS.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["G20/P2", "G30/P3", "G40/P4", "G40/P8", "G50/P8"]);
    }

    #[test]
    fn lookup_by_name() {
        let c = GraphConfig::by_name("G40/P8").unwrap();
        assert_eq!(c.partitions, 8);
        assert!(GraphConfig::by_name("G99/P9").is_none());
    }

    #[test]
    fn weak_scaling_ratio_matches_paper() {
        // G20/P2, G30/P3, G40/P4 all have ~10M vertices per partition.
        for name in ["G20/P2", "G30/P3", "G40/P4"] {
            let c = GraphConfig::by_name(name).unwrap();
            assert!((c.paper_vertices_per_partition_m() - 10.0).abs() <= 0.5, "{name}");
        }
    }

    #[test]
    fn scale_shift_clamps() {
        let c = GraphConfig::by_name("G20/P2").unwrap();
        assert_eq!(c.rmat_scale(0), 16);
        assert_eq!(c.rmat_scale(-8), 8);
        assert_eq!(c.rmat_scale(-100), 6);
        assert_eq!(c.rmat_scale(100), 26);
    }

    #[test]
    fn generated_config_graph_is_eulerian() {
        let c = GraphConfig::by_name("G20/P2").unwrap();
        let (g, report) = c.generate(-8); // tiny version for the unit test
        assert!(is_eulerian(&g).is_ok());
        assert!(report.final_edges >= report.original_edges);
        assert!(g.num_vertices() >= 256);
    }

    #[test]
    fn raw_graph_differs_from_eulerized() {
        let c = GraphConfig::by_name("G30/P3").unwrap();
        let raw = c.generate_raw(-9);
        let (e, _) = c.generate(-9);
        assert!(e.num_edges() >= raw.num_edges());
    }
}
