//! Shared plumbing for the experiment binaries.

use euler_core::WorkingPartition;
use euler_gen::configs::GraphConfig;
use euler_gen::eulerize::EulerizeReport;
use euler_graph::{Graph, PartitionAssignment, PartitionedGraph};
use euler_partition::{LdgPartitioner, Partitioner};

/// Default scale shift applied to the paper configurations when none is given
/// on the command line. `-4` keeps every harness in the seconds range on a
/// laptop while preserving the partition counts and cut regimes.
pub const DEFAULT_SCALE_SHIFT: i32 = -4;

/// A generated, Eulerized and partitioned experiment input.
pub struct ExperimentInput {
    /// The paper configuration this input mirrors.
    pub config: GraphConfig,
    /// The Eulerized graph.
    pub graph: Graph,
    /// The partition assignment (LDG, `config.partitions` parts).
    pub assignment: PartitionAssignment,
    /// Eulerizer statistics.
    pub eulerize: EulerizeReport,
    /// The scale shift used.
    pub scale_shift: i32,
}

/// Parses the optional `scale_shift` CLI argument (first positional argument
/// or the value after `--scale-shift`).
pub fn parse_scale_shift() -> i32 {
    let args: Vec<String> = std::env::args().collect();
    let mut iter = args.iter().skip(1);
    while let Some(a) = iter.next() {
        if a == "--scale-shift" {
            if let Some(v) = iter.next() {
                if let Ok(s) = v.parse() {
                    return s;
                }
            }
        } else if let Ok(s) = a.parse() {
            return s;
        }
    }
    DEFAULT_SCALE_SHIFT
}

/// Generates, Eulerizes and partitions the given paper configuration.
pub fn prepared_input(config: GraphConfig, scale_shift: i32) -> ExperimentInput {
    let (graph, eulerize) = config.generate(scale_shift);
    let assignment = LdgPartitioner::new(config.partitions).partition(&graph);
    ExperimentInput { config, graph, assignment, eulerize, scale_shift }
}

/// Formats a `Duration` in seconds with millisecond resolution.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// The whole graph as one Phase-1 working partition (no remote edges) —
/// the single-partition workload shape used by the Phase-1 kernel benches.
pub fn single_working_partition(g: &Graph) -> Vec<WorkingPartition> {
    let a = PartitionAssignment::from_labels(vec![0; g.num_vertices() as usize], 1)
        .expect("single-label assignment is always valid");
    let pg = PartitionedGraph::from_assignment(g, &a).expect("assignment covers the graph");
    WorkingPartition::from_partitioned(&pg).1
}

/// Level-0 working partitions for a `parts`-way round-robin vertex split —
/// the multi-partition workload shape used by the Phase-1 kernel benches.
pub fn round_robin_working_partitions(g: &Graph, parts: u32) -> Vec<WorkingPartition> {
    let labels: Vec<u32> = (0..g.num_vertices()).map(|v| (v % parts as u64) as u32).collect();
    let a = PartitionAssignment::from_labels(labels, parts).expect("labels in range");
    let pg = PartitionedGraph::from_assignment(g, &a).expect("assignment covers the graph");
    WorkingPartition::from_partitioned(&pg).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_gen::configs::PAPER_CONFIGS;

    #[test]
    fn prepared_input_is_eulerian_and_partitioned() {
        let input = prepared_input(PAPER_CONFIGS[0], -8);
        assert!(euler_graph::is_eulerian(&input.graph).is_ok());
        assert_eq!(input.assignment.num_partitions(), PAPER_CONFIGS[0].partitions);
        assert_eq!(input.assignment.num_vertices(), input.graph.num_vertices());
    }

    #[test]
    fn default_scale_shift_shrinks_the_paper_sizes() {
        // The compiled-in default must shrink (not grow) the paper
        // configurations so every harness stays laptop-sized out of the box.
        // Guards against someone bumping the constant past zero.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(
                DEFAULT_SCALE_SHIFT < 0,
                "default scale shift must shrink the inputs, got {DEFAULT_SCALE_SHIFT}"
            );
        }
    }

    #[test]
    fn secs_formats_three_decimals() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
