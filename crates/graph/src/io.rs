//! Plain-text edge-list I/O.
//!
//! The format mirrors the de-facto standard used by graph tools such as
//! ParHIP/KaHIP drivers and the RMAT generators referenced in the paper:
//! an edge list is one `u v` pair per line (`#`-prefixed comment lines are
//! ignored).

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `g` as a plain-text edge list (`u v` per line) to `writer`.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", g.num_vertices(), g.num_edges())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` as a plain-text edge list to the file at `path`.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, f)
}

/// Line-level scanner for the plain-text edge-list format: one line in, at
/// most one edge out.
///
/// This is the piece of the parse that is independent of *what is built from
/// the edges*: [`EdgeListParser`] feeds the emitted edges into a
/// [`GraphBuilder`], while [`crate::source::EdgeListEdgeStream`] batches
/// them straight into an edge stream without ever materialising a graph. The
/// scanner tracks the 1-based line number itself, so every
/// [`GraphError::Parse`] it raises — missing field, malformed vertex id,
/// malformed `# vertices N` header — carries the exact offending position
/// regardless of how the caller buffers the input.
#[derive(Debug, Default)]
pub struct EdgeLineScanner {
    declared_vertices: u64,
    max_seen: Option<u64>,
    line: usize,
}

impl EdgeLineScanner {
    /// Creates a scanner at line 0 with nothing declared.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines fed so far.
    pub fn lines_fed(&self) -> usize {
        self.line
    }

    /// 1-based number of the line a [`feed_line`](Self::feed_line) call is
    /// about to consume — the position callers should attribute their own
    /// errors (e.g. invalid UTF-8 in a byte chunk) to.
    pub fn next_line(&self) -> usize {
        self.line + 1
    }

    /// The vertex count implied by everything fed so far: largest id seen
    /// plus one, or the declared `# vertices N` header count if larger —
    /// exactly the count a [`GraphBuilder`] pass over the same lines
    /// produces.
    pub fn num_vertices(&self) -> u64 {
        self.declared_vertices.max(self.max_seen.map_or(0, |m| m + 1))
    }

    /// Consumes one line (without its terminator), returning the edge it
    /// holds, if any.
    ///
    /// Blank lines and `%` comments yield `None`; `#` comments yield `None`
    /// except for the optional `# vertices N edges M` header, whose vertex
    /// count must parse. Any other line must hold two vertex ids.
    pub fn feed_line(&mut self, line: &str) -> Result<Option<(u64, u64)>, GraphError> {
        self.line += 1;
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        if let Some(rest) = line.strip_prefix('#') {
            // Optional header: "# vertices N edges M". A free-form comment
            // that merely starts with the word "vertices" stays a comment;
            // only the structured header shape (third token "edges") demands
            // a parseable count.
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() >= 2 && toks[0] == "vertices" {
                match toks[1].parse::<u64>() {
                    Ok(n) => self.declared_vertices = self.declared_vertices.max(n),
                    Err(e) if toks.get(2) == Some(&"edges") => {
                        return Err(GraphError::Parse {
                            line: self.line,
                            message: format!("bad vertex count {:?} in header: {e}", toks[1]),
                        });
                    }
                    Err(_) => {}
                }
            }
            return Ok(None);
        }
        if line.starts_with('%') {
            return Ok(None);
        }
        let mut it = line.split_whitespace();
        let u = self.parse_field(it.next())?;
        let v = self.parse_field(it.next())?;
        self.max_seen = Some(self.max_seen.map_or(u.max(v), |m| m.max(u).max(v)));
        Ok(Some((u, v)))
    }

    fn parse_field(&self, tok: Option<&str>) -> Result<u64, GraphError> {
        let line = self.line;
        let tok = tok.ok_or(GraphError::Parse { line, message: "expected two vertex ids".into() })?;
        tok.parse::<u64>().map_err(|e| GraphError::Parse { line, message: format!("bad vertex id {tok:?}: {e}") })
    }
}

/// Incremental line-at-a-time parser for the plain-text edge-list format.
///
/// This is the single graph-building parser behind both [`read_edge_list`]
/// (whole-reader) and [`crate::source::EdgeListFileSource`] (chunked
/// streaming reads): feed it one line at a time in file order and call
/// [`finish`](EdgeListParser::finish) at the end. Line recognition and error
/// attribution live in the shared [`EdgeLineScanner`].
#[derive(Debug, Default)]
pub struct EdgeListParser {
    builder: GraphBuilder,
    scanner: EdgeLineScanner,
}

impl EdgeListParser {
    /// Creates a parser with an empty graph under construction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines fed so far.
    pub fn lines_fed(&self) -> usize {
        self.scanner.lines_fed()
    }

    /// 1-based number of the line the next [`feed_line`](Self::feed_line)
    /// call will consume (see [`EdgeLineScanner::next_line`]).
    pub fn next_line(&self) -> usize {
        self.scanner.next_line()
    }

    /// Consumes one line (without its terminator); see
    /// [`EdgeLineScanner::feed_line`] for the recognised shapes.
    pub fn feed_line(&mut self, line: &str) -> Result<(), GraphError> {
        if let Some((u, v)) = self.scanner.feed_line(line)? {
            self.builder.add_edge(u, v);
        }
        Ok(())
    }

    /// Builds the parsed graph. The vertex count is the largest id seen plus
    /// one, or the declared header count if larger.
    pub fn finish(mut self) -> Result<Graph, GraphError> {
        self.builder.ensure_vertices(self.scanner.num_vertices());
        self.builder.build()
    }
}

/// Reads a plain-text edge list from `reader`.
///
/// Lines starting with `#` or `%` are ignored (except the optional
/// `# vertices N edges M` header). The vertex count is the largest id seen
/// plus one (or the count declared in the header if larger). Parse errors
/// report the 1-based offending line via [`GraphError::Parse`].
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let r = BufReader::new(reader);
    let mut parser = EdgeListParser::new();
    for line in r.lines() {
        parser.feed_line(&line?)?;
    }
    parser.finish()
}

/// Reads an edge list from the file at `path`.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn edge_list_roundtrip() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(g.degree(v), g2.degree(v));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n% another\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn header_vertex_count_respected() {
        let text = "# vertices 10 edges 1\n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = "0 1\nnot_a_vertex 2\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn missing_second_vertex_is_a_parse_error() {
        let text = "0\n";
        assert!(matches!(read_edge_list(text.as_bytes()), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn missing_second_vertex_reports_its_line_number() {
        // Blank and comment lines before the bad one still count toward the
        // reported position.
        let text = "# header comment\n\n0 1\n1 2\n7\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("two vertex ids"), "unexpected message {message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn malformed_header_vertex_count_reports_line_number() {
        let text = "0 1\n# vertices not_a_number edges 3\n1 0\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("vertex count"), "unexpected message {message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn free_form_comment_starting_with_vertices_is_not_a_header() {
        // Only the structured "# vertices N edges M" shape must parse; a
        // descriptive comment stays a comment.
        let text = "# vertices are 0-indexed\n0 1\n1 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 2);
    }

    #[test]
    fn incremental_parser_matches_whole_reader_parse() {
        let text = "# vertices 6 edges 3\n0 1\n% ignored\n1 2\n2 0\n";
        let mut parser = EdgeListParser::new();
        for line in text.lines() {
            parser.feed_line(line).unwrap();
        }
        assert_eq!(parser.lines_fed(), 5);
        assert_eq!(parser.next_line(), 6);
        let g1 = parser.finish().unwrap();
        let g2 = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(g1.num_vertices(), 6);
        assert_eq!(g1.num_edges(), g2.num_edges());
    }

    #[test]
    fn file_roundtrip_on_disk() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let dir = std::env::temp_dir().join("euler_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("triangle.el");
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g2.num_edges(), 3);
        std::fs::remove_file(&path).ok();
    }
}
