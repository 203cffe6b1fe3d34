//! BFS region-growing partitioner.
//!
//! Grows `k` regions simultaneously from spread-out seed vertices in
//! breadth-first order; each region stops accepting vertices when it reaches
//! the capacity `ceil(n/k)`. On mesh-like graphs (torus street grids,
//! polyhedral meshes) this produces connected partitions with low cut, which
//! matches the paper's assumption that "each partition is likely to contain
//! one or more large connected components".

use crate::traits::Partitioner;
use euler_graph::{Graph, PartitionAssignment, VertexId};
use std::collections::VecDeque;

/// BFS region-growing partitioner.
#[derive(Clone, Copy, Debug)]
pub struct BfsPartitioner {
    k: u32,
    seed: u64,
}

impl BfsPartitioner {
    /// Creates a BFS partitioner for `k` partitions.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        BfsPartitioner { k, seed: 1 }
    }

    /// Sets the seed used to choose the initial region seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Picks `k` seed vertices spread across the id space.
    fn seeds(&self, g: &Graph) -> Vec<VertexId> {
        let n = g.num_vertices();
        let k = self.k as u64;
        (0..k).map(|i| VertexId(((i * n) / k + self.seed) % n.max(1))).collect()
    }
}

impl Partitioner for BfsPartitioner {
    fn num_partitions(&self) -> u32 {
        self.k
    }

    fn partition(&self, g: &Graph) -> PartitionAssignment {
        let n = g.num_vertices() as usize;
        let k = self.k as usize;
        let capacity = n.div_ceil(k);
        let mut labels: Vec<u32> = vec![u32::MAX; n];
        let mut sizes = vec![0usize; k];
        let mut queues: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); k];

        if n == 0 {
            return PartitionAssignment::from_labels(vec![], self.k).expect("empty");
        }

        for (p, s) in self.seeds(g).into_iter().enumerate() {
            if labels[s.index()] == u32::MAX {
                labels[s.index()] = p as u32;
                sizes[p] += 1;
                queues[p].push_back(s);
            }
        }

        // Round-robin BFS expansion so regions grow at similar rates.
        let mut active = true;
        while active {
            active = false;
            for p in 0..k {
                if sizes[p] >= capacity {
                    continue;
                }
                if let Some(v) = queues[p].pop_front() {
                    active = true;
                    for &(nbr, _) in g.neighbors(v) {
                        if labels[nbr.index()] == u32::MAX && sizes[p] < capacity {
                            labels[nbr.index()] = p as u32;
                            sizes[p] += 1;
                            queues[p].push_back(nbr);
                        }
                    }
                    // Re-queue v if it still has unlabelled neighbours and we hit capacity mid-scan.
                } else if !queues[p].is_empty() {
                    active = true;
                }
            }
        }

        // Any vertex not reached (disconnected, or all regions full) goes to
        // the currently smallest partition.
        for label in labels.iter_mut().take(n) {
            if *label == u32::MAX {
                let p = (0..k).min_by_key(|&p| sizes[p]).unwrap_or(0);
                *label = p as u32;
                sizes[p] += 1;
            }
        }
        PartitionAssignment::from_labels(labels, self.k).expect("labels < k")
    }

    fn name(&self) -> &'static str {
        "bfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashPartitioner;
    use crate::stats::PartitionQuality;
    use euler_gen::synthetic;

    #[test]
    fn covers_every_vertex() {
        let g = synthetic::torus_grid(12, 12);
        let a = BfsPartitioner::new(4).partition(&g);
        assert_eq!(a.num_vertices(), 144);
        assert_eq!(a.partition_sizes().iter().sum::<u64>(), 144);
    }

    #[test]
    fn low_cut_on_torus_vs_hash() {
        let g = synthetic::torus_grid(20, 20);
        let bfs = BfsPartitioner::new(4).partition(&g);
        let hash = HashPartitioner::new(4).partition(&g);
        let q_bfs = PartitionQuality::evaluate(&g, &bfs);
        let q_hash = PartitionQuality::evaluate(&g, &hash);
        assert!(q_bfs.cut_fraction < q_hash.cut_fraction);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)]);
        let a = BfsPartitioner::new(2).partition(&g);
        assert_eq!(a.num_vertices(), 8);
    }

    #[test]
    fn respects_capacity_reasonably() {
        let g = synthetic::torus_grid(16, 16);
        let a = BfsPartitioner::new(8).partition(&g);
        let sizes = a.partition_sizes();
        let cap = (256 / 8) as f64;
        for s in sizes {
            assert!(s as f64 <= cap * 1.5, "size {s} cap {cap}");
        }
    }

    #[test]
    fn single_partition() {
        let g = synthetic::cycle(5);
        let a = BfsPartitioner::new(1).partition(&g);
        assert!(g.vertices().all(|v| a.partition_of(v).0 == 0));
    }
}
