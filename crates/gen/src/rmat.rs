//! Parallel R-MAT graph generator.
//!
//! The paper generates its inputs with a parallel RMAT tool (default
//! parameters, average undirected degree 5) and then Eulerizes them. This
//! module reproduces that recipe: the recursive-matrix model of Chakrabarti et
//! al. with the classic `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)` quadrant
//! probabilities, generated in parallel with rayon, one chunk per worker, each
//! chunk seeded deterministically from the generator seed.

use euler_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration for the R-MAT generator.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RmatGenerator {
    /// log2 of the number of vertices (the R-MAT "scale").
    pub scale: u32,
    /// Average undirected degree; the number of generated edges is
    /// `avg_degree * 2^scale / 2` before de-duplication of self-loops.
    pub avg_degree: f64,
    /// Quadrant probability a (top-left).
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Random seed.
    pub seed: u64,
    /// Skip self-loops (retries the edge). The paper's Eulerian conversion
    /// works on simple-ish multigraphs; self-loops are legal but add no
    /// routing value, so they are skipped by default.
    pub skip_self_loops: bool,
}

impl Default for RmatGenerator {
    fn default() -> Self {
        RmatGenerator {
            scale: 14,
            avg_degree: 5.0,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 42,
            skip_self_loops: true,
        }
    }
}

impl RmatGenerator {
    /// Creates a generator for `2^scale` vertices with the default R-MAT
    /// skew parameters and average undirected degree 5 (the paper's setting).
    pub fn new(scale: u32) -> Self {
        RmatGenerator { scale, ..Default::default() }
    }

    /// Sets the average undirected degree.
    pub fn with_avg_degree(mut self, d: f64) -> Self {
        self.avg_degree = d;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of vertices this generator will produce.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of undirected edges this generator will produce.
    pub fn num_edges(&self) -> u64 {
        (self.avg_degree * self.num_vertices() as f64 / 2.0).round() as u64
    }

    /// Probability of the fourth quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Generates the graph, in parallel across rayon workers: each chunk of
    /// edge ids is sampled from its own seeded stream, and the endpoints are
    /// handed to [`Graph::from_endpoints`] in edge-id order.
    pub fn generate(&self) -> Graph {
        let n_edges = self.num_edges() as usize;
        let n_vertices = self.num_vertices();
        let chunk = 1usize << 14;
        let n_chunks = n_edges.div_ceil(chunk.max(1)).max(1);
        let edges: Vec<[u64; 2]> = (0..n_chunks)
            .into_par_iter()
            .flat_map_iter(|ci| {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let lo = ci * chunk;
                let hi = ((ci + 1) * chunk).min(n_edges);
                (lo..hi).map(move |_| {
                    let (u, v) = self.sample_edge(&mut rng);
                    [u, v]
                })
            })
            .collect();
        Graph::from_endpoints(n_vertices, edges).expect("generated vertex ids are always in range")
    }

    /// Samples one edge by recursive quadrant descent: each of the `scale`
    /// levels draws a quadrant whose row and column bits are the next bits of
    /// `u` and `v`, most significant first.
    fn sample_edge<R: Rng>(&self, rng: &mut R) -> (u64, u64) {
        if self.scale == 0 {
            return (0, 0);
        }
        // A draw `r` below a is quadrant (0, 0), then below a + b (0, 1),
        // below a + b + c (1, 0), and (1, 1) otherwise; the bits come from
        // comparisons, not a branch per quadrant.
        let (ab, abc) = (self.a + self.b, self.a + self.b + self.c);
        loop {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..self.scale {
                let r: f64 = rng.gen();
                let past_a = r >= self.a;
                u = u << 1 | (past_a & (r >= ab)) as u64;
                v = v << 1 | (past_a & ((r < ab) | (r >= abc))) as u64;
            }
            if self.skip_self_loops && u == v {
                continue;
            }
            return (u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let gen = RmatGenerator::new(8).with_seed(7);
        let g = gen.generate();
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), gen.num_edges());
        assert_eq!(g.num_edges(), (5.0 * 256.0 / 2.0) as u64);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = RmatGenerator::new(7).with_seed(99).generate();
        let b = RmatGenerator::new(7).with_seed(99).generate();
        let ea: Vec<_> = a.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let eb: Vec<_> = b.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = RmatGenerator::new(7).with_seed(1).generate();
        let b = RmatGenerator::new(7).with_seed(2).generate();
        let ea: Vec<_> = a.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let eb: Vec<_> = b.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn no_self_loops_by_default() {
        let g = RmatGenerator::new(8).with_seed(3).generate();
        assert!(g.edges().all(|(_, u, v)| u != v));
    }

    #[test]
    fn skew_produces_hub_vertices() {
        // With the default skewed quadrant probabilities, low-id vertices
        // should have far higher degree than the median vertex.
        let g = RmatGenerator::new(10).with_seed(11).generate();
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        let mut degs: Vec<u64> = g.vertices().map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        let median = degs[degs.len() / 2];
        assert!(max_deg > 10 * median.max(1), "max {max_deg} median {median}");
    }

    #[test]
    fn quadrant_probabilities_sum_to_one() {
        let gen = RmatGenerator::default();
        assert!((gen.a + gen.b + gen.c + gen.d() - 1.0).abs() < 1e-12);
    }
}
