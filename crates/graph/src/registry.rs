//! A process-wide registry of opened `.ecsr` graphs, keyed by content
//! checksum.
//!
//! The service layer registers graphs once and runs many requests against
//! them. The key is the file's FNV-1a content checksum
//! ([`CsrFile::checksum`]) rather than its path: two paths holding the same
//! packed graph are *one* registry entry, and a circuit cached against the
//! checksum stays valid wherever the file moves. Registration verifies the
//! checksum (it goes through [`CsrFile::open`]), so a registered graph is
//! known-good; lookups are cheap `Arc` clones and the mapped file is shared
//! by every concurrent run.

use crate::csr_file::CsrFile;
use crate::error::GraphError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One registered graph: the opened, checksum-verified [`CsrFile`] plus the
/// identity it is registered under.
#[derive(Debug)]
pub struct RegisteredGraph {
    /// The mapped, verified `.ecsr` file. Shared by every run.
    pub csr: CsrFile,
    /// The file's FNV-1a content checksum — the registry key.
    pub checksum: u64,
    /// The path the graph was registered from (informational; the checksum,
    /// not the path, is the identity).
    pub path: PathBuf,
}

impl RegisteredGraph {
    /// Vertex count of the registered graph.
    pub fn num_vertices(&self) -> u64 {
        self.csr.num_vertices()
    }

    /// Edge count of the registered graph.
    pub fn num_edges(&self) -> u64 {
        self.csr.num_edges()
    }
}

/// Thread-safe map from content checksum to opened graph.
///
/// Registering the same content twice (same or different path) is
/// idempotent: the first mapping wins and is returned again.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: Mutex<HashMap<u64, Arc<RegisteredGraph>>>,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens and verifies the `.ecsr` file at `path` and registers it under
    /// its content checksum, returning the (possibly pre-existing) entry.
    ///
    /// # Errors
    /// Any [`CsrFile::open`] failure: missing file, malformed header,
    /// checksum mismatch, structural violation.
    pub fn register<P: AsRef<Path>>(&self, path: P) -> Result<Arc<RegisteredGraph>, GraphError> {
        let path = path.as_ref();
        let csr = CsrFile::open(path)?;
        let checksum = csr.checksum();
        let mut graphs = self.graphs.lock().unwrap_or_else(|e| e.into_inner());
        let entry = graphs
            .entry(checksum)
            .or_insert_with(|| Arc::new(RegisteredGraph { csr, checksum, path: path.to_path_buf() }));
        Ok(Arc::clone(entry))
    }

    /// Looks up a registered graph by content checksum.
    pub fn get(&self, checksum: u64) -> Option<Arc<RegisteredGraph>> {
        self.graphs.lock().unwrap_or_else(|e| e.into_inner()).get(&checksum).cloned()
    }

    /// Number of distinct graphs registered.
    pub fn len(&self) -> usize {
        self.graphs.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checksums of every registered graph, in no particular order.
    pub fn checksums(&self) -> Vec<u64> {
        self.graphs.lock().unwrap_or_else(|e| e.into_inner()).keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::csr_file::write_csr_file;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("euler_graph_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn same_content_at_two_paths_is_one_entry() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = temp_path("dup_a.ecsr");
        let b = temp_path("dup_b.ecsr");
        write_csr_file(&g, &a).unwrap();
        write_csr_file(&g, &b).unwrap();

        let registry = GraphRegistry::new();
        let ra = registry.register(&a).unwrap();
        let rb = registry.register(&b).unwrap();
        assert_eq!(ra.checksum, rb.checksum);
        assert!(Arc::ptr_eq(&ra, &rb), "same content maps to one shared entry");
        assert_eq!(registry.len(), 1);
        assert_eq!(ra.path, a, "first registration wins");
        assert_eq!(registry.get(ra.checksum).unwrap().num_edges(), 4);
        assert!(registry.get(ra.checksum.wrapping_add(1)).is_none());
    }

    #[test]
    fn distinct_graphs_get_distinct_entries() {
        let g1 = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let g2 = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p1 = temp_path("g1.ecsr");
        let p2 = temp_path("g2.ecsr");
        write_csr_file(&g1, &p1).unwrap();
        write_csr_file(&g2, &p2).unwrap();

        let registry = GraphRegistry::new();
        let r1 = registry.register(&p1).unwrap();
        let r2 = registry.register(&p2).unwrap();
        assert_ne!(r1.checksum, r2.checksum);
        assert_eq!(registry.len(), 2);
        let mut sums = registry.checksums();
        sums.sort_unstable();
        let mut expect = vec![r1.checksum, r2.checksum];
        expect.sort_unstable();
        assert_eq!(sums, expect);
    }

    #[test]
    fn registering_a_missing_file_errors() {
        let registry = GraphRegistry::new();
        assert!(registry.register("/nonexistent/euler/registry/graph.ecsr").is_err());
        assert!(registry.is_empty());
    }
}
