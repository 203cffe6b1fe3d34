//! Golden `.ecsr` packs: every generator's output, written with
//! `write_csr_file`, must keep its byte length and header checksum, and
//! `CsrFile::to_graph` must give back the graph that was packed.
//!
//! The constants were recorded from the adjacency-list `Graph` that the flat
//! CSR `Graph` replaced; a change to the builder, the Eulerizer or the pack
//! writer that moves a single word of any section fails here. After an
//! intended change to the generators, print the new pairs with
//! `cargo test -p euler-gen --test pack_golden -- --nocapture` and review
//! them before updating the table.

use euler_gen::eulerize::{eulerize, EulerizeReport};
use euler_gen::{synthetic, RmatGenerator};
use euler_graph::{write_csr_file, CsrFile, Graph, GraphBuilder};
use std::path::PathBuf;

/// `(name, file bytes, header checksum)` of every golden input.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("rmat12_seed1_deg5", 557592, 0x9f6ed820052a47cb),
    ("rmat12_seed2_deg8", 856008, 0x939c16cd307ab5ed),
    ("rmat12_seed3_components", 229368, 0xb6805a75199848cf),
    ("torus_64x64", 426072, 0xd28fadb172d0acc3),
    ("random_eulerian_connected", 51128, 0xd85c708dd6c9650f),
    ("star_of_cycles", 21688, 0x037a91c99d58c705),
    ("paper_fig1", 968, 0x64836e29f0f7f4e9),
    ("multigraph", 904, 0x012ddc9f3d936772),
];

fn rmat(seed: u64, avg_degree: f64) -> Graph {
    RmatGenerator::new(12).with_seed(seed).with_avg_degree(avg_degree).generate()
}

/// A sparse R-MAT graph with all but every tenth edge doubled: a few odd
/// vertices for the parity step and dozens of components that the parity
/// edges leave for the connectivity step to join.
fn rmat_many_components() -> (Graph, EulerizeReport) {
    let r = rmat(3, 1.0);
    let mut b = GraphBuilder::with_vertices(r.num_vertices());
    for (e, u, v) in r.edges() {
        b.add_edge(u.0, v.0);
        if e.0 % 10 != 0 {
            b.add_edge(u.0, v.0);
        }
    }
    eulerize(&b.build().unwrap())
}

/// Self-loops (one on an otherwise isolated vertex), parallel edges in both
/// orientations, and isolated vertices at both ends and in the middle.
fn multigraph() -> Graph {
    let mut b = GraphBuilder::with_vertices(12);
    b.extend_edges([
        (1, 2),
        (2, 1),
        (1, 2),
        (3, 3),
        (2, 3),
        (3, 2),
        (5, 5),
        (5, 5),
        (7, 8),
        (8, 9),
        (9, 7),
        (7, 7),
        (8, 1),
        (1, 8),
        (10, 10),
    ]);
    b.build().unwrap()
}

fn inputs() -> Vec<(&'static str, Graph)> {
    let (sparse, report) = rmat_many_components();
    assert!(
        report.parity_edges_added > 0 && report.connectivity_edges_added >= 60,
        "the sparse R-MAT input must leave many components to join, joined {}",
        report.connectivity_edges_added / 2
    );
    vec![
        ("rmat12_seed1_deg5", eulerize(&rmat(1, 5.0)).0),
        ("rmat12_seed2_deg8", eulerize(&rmat(2, 8.0)).0),
        ("rmat12_seed3_components", sparse),
        ("torus_64x64", synthetic::torus_grid(64, 64)),
        ("random_eulerian_connected", synthetic::random_eulerian_connected(500, 80, 6, 17)),
        ("star_of_cycles", synthetic::star_of_cycles(100)),
        ("paper_fig1", synthetic::paper_fig1().0),
        ("multigraph", multigraph()),
    ]
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("euler_gen_pack_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.ecsr"))
}

fn assert_same_graph(name: &str, packed: &Graph, back: &Graph) {
    assert_eq!(packed.num_vertices(), back.num_vertices(), "{name}: vertices");
    assert_eq!(packed.num_edges(), back.num_edges(), "{name}: edges");
    for (e, u, v) in packed.edges() {
        assert_eq!(back.endpoints(e), (u, v), "{name}: endpoints of {e}");
    }
    for v in packed.vertices() {
        assert_eq!(back.neighbors(v), packed.neighbors(v), "{name}: neighbours of {v}");
    }
}

#[test]
fn packs_keep_their_bytes_and_unpack_to_the_same_graph() {
    let mut mismatches = Vec::new();
    for ((name, g), &(golden_name, bytes, checksum)) in inputs().iter().zip(&GOLDEN) {
        assert_eq!(*name, golden_name);
        let path = temp_path(name);
        write_csr_file(g, &path).unwrap();
        let file = CsrFile::open(&path).unwrap();
        let got = (file.file_bytes(), file.checksum());
        println!("(\"{name}\", {}, {:#018x}),", got.0, got.1);
        if got != (bytes, checksum) {
            mismatches.push(format!("{name}: packed {got:?}, golden ({bytes}, {checksum:#018x})"));
        }
        assert_same_graph(name, g, &file.to_graph());
        drop(file);
        std::fs::remove_file(&path).ok();
    }
    if let Some(dir) = temp_path("x").parent() {
        std::fs::remove_dir(dir).ok();
    }
    assert!(mismatches.is_empty(), "packs moved:\n{}", mismatches.join("\n"));
}
