//! [`EdgeArrays`]: the one input of a dense run.

use crate::ids::{EdgeId, VertexId};

/// The offsets and endpoints sections of a graph ([`crate::format_spec`]),
/// borrowed from a resident [`crate::Graph`] or a mapped [`crate::CsrFile`]
/// alike. The readers may run over a file opened with
/// [`crate::CsrFile::open_trusted`], so they read only through `windows`,
/// `chunks_exact` or `get`: no words can make them panic.
#[derive(Clone, Copy, Debug)]
pub struct EdgeArrays<'a> {
    /// `n + 1` half-edge prefix sums: vertex `v`'s half-edges are
    /// `offsets[v]..offsets[v + 1]`.
    pub offsets: &'a [u64],
    /// `2m` words: edge `e` joins `endpoints[2e]` and `endpoints[2e + 1]`.
    pub endpoints: &'a [u64],
}

impl<'a> EdgeArrays<'a> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.offsets.len().saturating_sub(1) as u64
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        (self.endpoints.len() / 2) as u64
    }

    /// The two endpoints of `edge`, in the order they were written; `None`
    /// past the last edge.
    pub fn endpoints(&self, edge: EdgeId) -> Option<(VertexId, VertexId)> {
        match self.endpoints.chunks_exact(2).nth(edge.index()) {
            Some(&[u, v]) => Some((VertexId(u), VertexId(v))),
            _ => None,
        }
    }

    /// The endpoint pairs in ascending edge id.
    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.endpoints.chunks_exact(2).filter_map(|pair| match pair {
            &[u, v] => Some((u, v)),
            _ => None,
        })
    }

    /// Per vertex, ascending: whether no edge touches it (an empty offsets row).
    pub fn degree_zero(&self) -> impl Iterator<Item = bool> + 'a {
        self.offsets.windows(2).map(|w| matches!(w, [lo, hi] if lo == hi))
    }

    /// First vertex with odd degree, with its degree, if any — the Eulerian
    /// degree check, read from the offsets alone.
    pub fn first_odd_vertex(&self) -> Option<(VertexId, u64)> {
        let degrees = self.offsets.windows(2).map(|w| match w {
            &[lo, hi] => hi.wrapping_sub(lo),
            _ => 0,
        });
        (0..).zip(degrees).find(|&(_, d)| d % 2 == 1).map(|(v, d)| (VertexId(v), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::{write_csr_file, CsrFile};

    #[test]
    fn first_odd_vertex_reads_offsets_only() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]); // v0 and v2 odd
        let path = std::env::temp_dir().join(format!("euler-edge-arrays-{}.ecsr", std::process::id()));
        write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        assert_eq!(csr.edge_arrays().first_odd_vertex(), Some((VertexId(0), 1)));
        let offsets_alone = EdgeArrays { offsets: csr.offsets(), endpoints: &[] };
        assert_eq!(offsets_alone.first_odd_vertex(), Some((VertexId(0), 1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_readers_answer_from_the_two_arrays() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (4, 4)]); // v0, v2 odd; v3 isolated
        let edges = g.edge_arrays();
        assert_eq!((edges.num_vertices(), edges.num_edges()), (5, 3));
        assert_eq!(edges.endpoints(EdgeId(1)), Some((VertexId(1), VertexId(2))));
        assert_eq!(edges.endpoints(EdgeId(3)), None);
        assert_eq!(edges.endpoints(EdgeId(u64::MAX)), None);
        assert_eq!(edges.pairs().collect::<Vec<_>>(), [(0, 1), (1, 2), (4, 4)]);
        assert_eq!(edges.degree_zero().collect::<Vec<_>>(), [false, false, false, true, false]);
        assert_eq!(edges.first_odd_vertex(), Some((VertexId(0), 1)));
        assert_eq!(graph_from_edges(&[(0, 1), (1, 0)]).edge_arrays().first_odd_vertex(), None);
    }

    #[test]
    fn words_nobody_validated_are_read_without_a_panic() {
        // Descending offsets, an odd endpoint word, no offsets at all.
        let edges = EdgeArrays { offsets: &[0, 3, 1], endpoints: &[7, 9, 4] };
        assert_eq!((edges.num_vertices(), edges.num_edges()), (2, 1));
        assert_eq!(edges.pairs().collect::<Vec<_>>(), [(7, 9)]);
        assert_eq!(edges.first_odd_vertex(), Some((VertexId(0), 3)));
        assert_eq!(edges.endpoints(EdgeId(1)), None);
        let empty = EdgeArrays { offsets: &[], endpoints: &[] };
        assert_eq!((empty.num_vertices(), empty.first_odd_vertex()), (0, None));
    }
}
