//! Input generation. Everything derives from `--seed`; the program under
//! test only ever sees the packed `.ecsr` files written here.

use euler_gen::{eulerize, synthetic, RmatGenerator};
use euler_graph::{write_csr_file, Graph, GraphBuilder};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input sizes. `full` is what the benchmark measures; `smoke` runs the same
/// code on inputs small enough for a few-second end-to-end check.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub rmat_scale: u32,
    pub torus_side: u64,
    pub small_vertices: u64,
    pub small_extra_cycles: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rmat_scale: 18,
        torus_side: 1024,
        small_vertices: 1000,
        small_extra_cycles: 200,
    };
    pub const SMOKE: Scale = Scale {
        rmat_scale: 12,
        torus_side: 64,
        small_vertices: 200,
        small_extra_cycles: 40,
    };
}

/// Number of small graphs the `serve_small` workload registers.
pub const SMALL_GRAPHS: u64 = 4;

pub fn rmat_path(dir: &Path) -> PathBuf {
    dir.join("rmat.ecsr")
}

pub fn torus_path(dir: &Path) -> PathBuf {
    dir.join("torus.ecsr")
}

pub fn small_path(dir: &Path, i: u64) -> PathBuf {
    dir.join(format!("small{i}.ecsr"))
}

/// Eulerized R-MAT, average degree 8: power-law hubs and a high cut under
/// any partitioner — the paper's headline input.
fn rmat(scale: Scale, seed: u64) -> Graph {
    eulerize(
        &RmatGenerator::new(scale.rmat_scale)
            .with_avg_degree(8.0)
            .with_seed(seed)
            .generate(),
    )
    .0
}

/// A `side × side` torus (regular degree 4, tiny cut, long cycles). The seed
/// rotates the rows: a torus maps onto itself under a row shift, so every
/// seed gives the same vertex structure in id order (which the streaming
/// partitioner's cut, and with it time and memory, depends on) while edge ids
/// and the packed bytes differ. An arbitrary label shift is not neutral: it
/// moved `peak_rss_mb` by a quarter between seeds.
fn torus(scale: Scale, seed: u64) -> Graph {
    let side = scale.torus_side;
    let first_row = seed % side;
    let idx = |r: u64, c: u64| ((r + first_row) % side) * side + c;
    let mut b = GraphBuilder::with_vertices(side * side).with_edge_capacity(2 * (side * side) as usize);
    for r in 0..side {
        for c in 0..side {
            b.add_edge(idx(r, c), idx(r, (c + 1) % side));
            b.add_edge(idx(r, c), idx(r + 1, c));
        }
    }
    b.build().expect("torus edges are always valid")
}

fn small(scale: Scale, seed: u64, i: u64) -> Graph {
    synthetic::random_eulerian_connected(scale.small_vertices, scale.small_extra_cycles, 6, seed.wrapping_add(i))
}

/// What one set-up pass cost and produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Generated {
    pub generate_s: f64,
    pub pack_s: f64,
    pub edges: u64,
}

fn generate_and_pack(make: impl FnOnce() -> Graph, path: &Path, acc: &mut Generated) -> Result<(), String> {
    let t = Instant::now();
    let g = make();
    acc.generate_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    write_csr_file(&g, path).map_err(|e| format!("cannot pack {}: {e}", path.display()))?;
    acc.pack_s += t.elapsed().as_secs_f64();
    acc.edges += g.num_edges();
    Ok(())
}

/// Generates and packs the inputs of one workload into `dir`.
pub fn prepare(workload: crate::metrics::Workload, scale: Scale, seed: u64, dir: &Path) -> Result<Generated, String> {
    use crate::metrics::Workload::*;
    let mut acc = Generated::default();
    match workload {
        RmatInproc | RmatBsp | ServeCold | ServeHit => {
            generate_and_pack(|| rmat(scale, seed), &rmat_path(dir), &mut acc)?;
        }
        TorusSpill | TorusWstream => generate_and_pack(|| torus(scale, seed), &torus_path(dir), &mut acc)?,
        ServeSmall => {
            for i in 0..SMALL_GRAPHS {
                generate_and_pack(|| small(scale, seed, i), &small_path(dir, i), &mut acc)?;
            }
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_eulerian_and_a_function_of_the_seed() {
        for make in [rmat as fn(Scale, u64) -> Graph, torus, |s, seed| small(s, seed, 1)] {
            let a = make(Scale::SMOKE, 5);
            assert!(euler_graph::is_eulerian(&a).is_ok());
            let same: Vec<_> = make(Scale::SMOKE, 5).edges().collect();
            assert_eq!(a.edges().collect::<Vec<_>>(), same, "same seed, same input");
            let other: Vec<_> = make(Scale::SMOKE, 6).edges().collect();
            assert_ne!(a.edges().collect::<Vec<_>>(), other, "another seed, another input");
        }
    }
}
