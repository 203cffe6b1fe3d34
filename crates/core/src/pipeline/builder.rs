//! The [`EulerPipeline`] builder and its staged outputs.

use super::*;

/// How the pipeline obtains its partition assignment.
enum PartitionSpec {
    /// Use a precomputed assignment verbatim.
    Assignment(PartitionAssignment),
    /// Run a partitioner over the loaded graph.
    Partitioner(Box<dyn Partitioner>),
}

/// Builder for [`EulerPipeline`]. Obtain one via [`EulerPipeline::builder`].
///
/// A source and a partition specification are required; the backend defaults
/// to [`InProcessBackend`] and the configuration to [`EulerConfig::default`].
#[derive(Default)]
pub struct EulerPipelineBuilder {
    source: Option<Box<dyn GraphSource>>,
    partition: Option<PartitionSpec>,
    config: EulerConfig,
    backend: Option<Box<dyn ExecutionBackend>>,
}

impl EulerPipelineBuilder {
    /// Sets the graph input source ([`euler_graph::InMemorySource`],
    /// [`euler_graph::EdgeListFileSource`], or any custom [`GraphSource`]).
    pub fn source(mut self, source: impl GraphSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Convenience: use a copy of `graph` as the input (an
    /// [`euler_graph::InMemorySource`]). The clone happens once, here;
    /// [`EulerPipeline::run`] borrows the resident graph.
    pub fn graph(self, graph: &Graph) -> Self {
        self.source(euler_graph::InMemorySource::new(graph.clone()))
    }

    /// Partitions the loaded graph with `partitioner` (any
    /// [`euler_partition::Partitioner`]).
    pub fn partitioner(mut self, partitioner: impl Partitioner + 'static) -> Self {
        self.partition = Some(PartitionSpec::Partitioner(Box::new(partitioner)));
        self
    }

    /// Uses a precomputed partition assignment instead of a partitioner.
    pub fn assignment(mut self, assignment: PartitionAssignment) -> Self {
        self.partition = Some(PartitionSpec::Assignment(assignment));
        self
    }

    /// Replaces the whole algorithm configuration. Call before the per-field
    /// tweaks ([`strategy`](Self::strategy), [`verify`](Self::verify),
    /// [`sequential`](Self::sequential)) or they are overwritten.
    pub fn config(mut self, config: EulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the remote-edge merge strategy (§5 of the paper).
    pub fn strategy(mut self, strategy: MergeStrategy) -> Self {
        self.config.merge_strategy = strategy;
        self
    }

    /// Verifies the reconstructed circuit against the input before returning
    /// (every edge exactly once, each step its edge's endpoints, chained,
    /// closed) — a mapped file against its endpoints section, without
    /// loading a graph.
    pub fn verify(mut self, yes: bool) -> Self {
        self.config.verify = yes;
        self
    }

    /// Disables intra-level parallelism (one partition at a time, in
    /// ascending id order, on every backend) — easier to profile; the result
    /// is the same bytes as the default, which fans out the levels worth it.
    pub fn sequential(mut self) -> Self {
        self.config.parallel_within_level = false;
        self
    }

    /// Bounds resident fragment memory to `longs`: circuit fragments beyond
    /// the budget are paged to a temp file and reloaded on demand during
    /// Phase 3 (the out-of-core mode for circuits larger than memory;
    /// bit-identical results, spill traffic reported in
    /// [`CircuitStage::fragment_stats`]).
    pub fn memory_budget(mut self, longs: u64) -> Self {
        self.config.fragment_memory_budget = Some(longs);
        self
    }

    /// Builds level-0 partition tours with the one-pass W-streaming chain
    /// machine instead of the dense resident arena (see
    /// [`EulerConfig::streaming_phase1`]): edges are consumed straight off
    /// the source's [`euler_graph::EdgeStream`], partial tours go out-of-core
    /// through the fragment store, and resident traversal state stays
    /// `O(n log n)` — reported in [`MergeStage::wstream`]. Composes with any
    /// backend and merge strategy; the circuits cover the same edge multiset
    /// as the dense path.
    pub fn streaming_phase1(mut self, yes: bool) -> Self {
        self.config.streaming_phase1 = yes;
        self
    }

    /// Sets the execution backend. Defaults to [`InProcessBackend`].
    pub fn backend(mut self, backend: impl ExecutionBackend + 'static) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    /// [`EulerError::InvalidConfig`] when no source or no partition
    /// specification was given.
    pub fn build(self) -> Result<EulerPipeline, EulerError> {
        let source = self.source.ok_or_else(|| {
            EulerError::InvalidConfig("pipeline needs a graph source (`.source(..)` or `.graph(..)`)".into())
        })?;
        let partition = self.partition.ok_or_else(|| {
            EulerError::InvalidConfig(
                "pipeline needs a partitioner (`.partitioner(..)`) or assignment (`.assignment(..)`)".into(),
            )
        })?;
        Ok(EulerPipeline {
            source,
            partition,
            config: self.config,
            backend: self.backend.unwrap_or_else(|| Box::new(InProcessBackend::new())),
        })
    }
}

/// The unified entry point to the partition-centric Euler circuit algorithm:
/// load (via a [`GraphSource`]) → partition (via a [`Partitioner`] or a fixed
/// assignment) → Phase-1/2 merge tree (on an [`ExecutionBackend`]) → Phase-3
/// unroll.
///
/// ```
/// use euler_core::{EulerPipeline, InProcessBackend, MergeStrategy};
/// use euler_graph::builder::graph_from_edges;
/// use euler_partition::LdgPartitioner;
///
/// let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
/// let run = EulerPipeline::builder()
///     .graph(&graph)
///     .partitioner(LdgPartitioner::new(2))
///     .strategy(MergeStrategy::Deferred)
///     .backend(InProcessBackend::new())
///     .verify(true)
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(run.circuit.result.total_edges(), 6);
/// ```
pub struct EulerPipeline {
    source: Box<dyn GraphSource>,
    partition: PartitionSpec,
    config: EulerConfig,
    backend: Box<dyn ExecutionBackend>,
}

impl std::fmt::Debug for EulerPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EulerPipeline")
            .field("source", &self.source.name())
            .field(
                "partition",
                &match &self.partition {
                    PartitionSpec::Assignment(a) => format!("pre-assigned ({} parts)", a.num_partitions()),
                    PartitionSpec::Partitioner(p) => p.name().to_string(),
                },
            )
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl EulerPipeline {
    /// Starts building a pipeline.
    pub fn builder() -> EulerPipelineBuilder {
        EulerPipelineBuilder::default()
    }

    /// The algorithm configuration this pipeline runs with.
    pub fn config(&self) -> &EulerConfig {
        &self.config
    }

    /// Runs the full pipeline, producing the staged outputs: one assignment
    /// step, then the one run over the input it leaves.
    ///
    /// The run reads edges — the mapped CSR view of a source that has one
    /// ([`GraphSource::csr`], e.g. [`euler_graph::MmapCsrSource`]), or under
    /// [`streaming_phase1`](EulerPipelineBuilder::streaming_phase1) the
    /// source's edge stream — or else a resident or loaded [`Graph`]. The
    /// assignment is the [`assignment`](EulerPipelineBuilder::assignment)
    /// given; or, when the run reads edges and the
    /// [`partitioner`](EulerPipelineBuilder::partitioner) has a streaming view
    /// ([`euler_partition::StreamingPartitioner`] — hash and LDG) that
    /// supports the source's stream order, one pass over chunked edge
    /// batches; or else the partitioner over the whole graph (BFS placement,
    /// custom whole-graph partitioners), whose graph is dropped as soon as
    /// it returns if the run reads edges — a dense run reads the loaded
    /// graph only when the source has no file.
    ///
    /// A dense run reads [`euler_graph::EdgeArrays`], a mapped file's or a
    /// resident graph's: one more pass over the endpoints counts level 0
    /// under the assignment (local edges, cut cells — the meta-graph — and
    /// isolated vertices per partition; both passes are
    /// [`PartitionStage::partition_time`]), and the backend fills the states
    /// where they will run ([`Seed`]) — [`InProcessBackend`] and workers
    /// stepped in place all of them, once, inside level 0; wire workers each
    /// their own share from the file, if there is one, or else shipped by
    /// the coordinator. Over a mapped file no [`Graph`] and no partition view
    /// is ever materialised, [`verify`](EulerPipelineBuilder::verify)
    /// included: it checks the circuit against the mapped endpoints section.
    pub fn run(&self) -> Result<PipelineRun, EulerError> {
        let (source, config) = (self.source.as_ref(), &self.config);
        let file = source.csr().filter(|_| !config.streaming_phase1);
        let reads_edges = config.streaming_phase1 || file.is_some();
        let mut load_time = Duration::ZERO;
        let mut graph = None;
        let t_part = Instant::now();
        let (assignment, name, streamed) = match &self.partition {
            PartitionSpec::Assignment(a) => (a.clone(), "pre-assigned", false),
            PartitionSpec::Partitioner(p) => match stream_partition(p.as_ref(), source, reads_edges)? {
                Some((a, name)) => (a, name, true),
                None => {
                    let g = graph.insert(load(source, &mut load_time)?);
                    (p.partition(g), p.name(), false)
                }
            },
        };
        // A whole-graph partitioner's graph goes before a run that reads the
        // file or the stream; a dense run without a file reads a graph.
        if reads_edges {
            graph = None;
        }
        let input = if config.streaming_phase1 {
            Input::Stream(source.edge_stream().ok_or_else(|| {
                EulerError::InvalidConfig("streaming_phase1 needs a source that exposes an edge stream".into())
            })?)
        } else {
            let edges = match (file, &graph) {
                (Some(csr), _) => csr.edge_arrays(),
                (None, Some(g)) => g.edge_arrays(),
                (None, None) => graph.insert(load(source, &mut load_time)?).edge_arrays(),
            };
            Input::Edges(edges, checked_scan(edges, &assignment)?, file)
        };
        let partition_time = t_part.elapsed().saturating_sub(load_time);
        let partitioner = match (&input, streamed) {
            (Input::Edges(.., None), _) => name.to_string(),
            (Input::Edges(..), true) => format!("{name} (streamed, direct csr slice)"),
            (Input::Edges(..), false) => format!("{name} (direct csr slice)"),
            (Input::Stream(_), true) => format!("{name} (streamed, w-streaming)"),
            (Input::Stream(_), false) => format!("{name} (w-streaming)"),
        };
        let ran = run_input(input, &assignment, config, self.backend.as_ref(), None)?;
        let partition = PartitionStage {
            source: source.name(),
            load_time,
            partitioner,
            partition_time,
            num_vertices: ran.size.0,
            num_edges: ran.size.1,
            num_partitions: ran.report.num_partitions,
            assignment,
        };
        Ok(assemble_run(partition, ran.result, ran.report))
    }
}

/// A source's graph: its resident copy, or a load, timed into `load_time`.
fn load<'s>(source: &'s dyn GraphSource, load_time: &mut Duration) -> Result<Cow<'s, Graph>, EulerError> {
    let t = Instant::now();
    let graph = match source.resident() {
        Some(g) => Cow::Borrowed(g),
        None => Cow::Owned(source.load()?),
    };
    *load_time += t.elapsed();
    Ok(graph)
}

/// The assignment of a partitioner whose streaming view supports the order
/// of the source's edge stream — one pass over it — and the partitioner's
/// name; `None` when the run does not read edges or the partitioner cannot
/// stream them.
fn stream_partition(
    p: &dyn Partitioner,
    source: &dyn GraphSource,
    reads_edges: bool,
) -> Result<Option<(PartitionAssignment, &'static str)>, EulerError> {
    let Some(sp) = p.as_streaming().filter(|_| reads_edges) else {
        return Ok(None);
    };
    match source.edge_stream() {
        Some(mut stream) if sp.supports(stream.order()) => Ok(Some((sp.partition_stream(stream.as_mut())?, sp.name()))),
        _ => Ok(None),
    }
}

/// Splits one unified [`RunReport`] across the stages after `partition`.
fn assemble_run(partition: PartitionStage, result: CircuitResult, report: RunReport) -> PipelineRun {
    let RunReport {
        num_partitions: _,
        supersteps,
        strategy,
        per_partition,
        phase12_time,
        phase3_time,
        total_transfer_longs,
        fragment_disk_longs,
        fragment_stats,
        merge_tree,
        backend,
        engine,
        wstream,
        warnings,
    } = report;
    PipelineRun {
        partition,
        merge: MergeStage {
            supersteps,
            strategy,
            backend,
            per_partition,
            phase12_time,
            total_transfer_longs,
            merge_tree,
            engine,
            wstream,
            warnings,
        },
        circuit: CircuitStage { result, phase3_time, fragment_disk_longs, fragment_stats },
    }
}

/// Output of the load + partition stage.
#[derive(Clone, Debug)]
pub struct PartitionStage {
    /// Description of the graph source.
    pub source: String,
    /// Time to obtain the graph from the source (zero-ish for resident
    /// in-memory sources).
    pub load_time: Duration,
    /// Name of the partitioner, or `"pre-assigned"` for a fixed assignment.
    pub partitioner: String,
    /// Time spent partitioning: computing the assignment and, on the direct
    /// CSR path, the one pass over the file that counts level 0 under it
    /// (filling the partition states is the backend's, inside level 0).
    pub partition_time: Duration,
    /// Vertices in the loaded graph.
    pub num_vertices: u64,
    /// Edges in the loaded graph.
    pub num_edges: u64,
    /// Number of leaf partitions.
    pub num_partitions: u32,
    /// The assignment the run executed with.
    pub assignment: PartitionAssignment,
}

/// Output of the Phase-1/2 merge-tree stage — the per-level slice of the
/// [`RunReport`].
#[derive(Clone, Debug)]
pub struct MergeStage {
    /// Number of Phase-1 rounds executed (the coordination cost, §3.5).
    pub supersteps: u32,
    /// Merge strategy used.
    pub strategy: MergeStrategy,
    /// Name of the execution backend.
    pub backend: String,
    /// Per-partition, per-level records.
    pub per_partition: Vec<LevelPartitionReport>,
    /// Total wall time of phases 1–2.
    pub phase12_time: Duration,
    /// Total Longs shipped between partitions across all merges.
    pub total_transfer_longs: u64,
    /// The merge tree walked.
    pub merge_tree: MergeTree,
    /// BSP superstep statistics (present for [`BspBackend`] runs).
    pub engine: Option<euler_bsp::EngineStats>,
    /// W-streaming Phase-1 resident-state accounting (present when the run
    /// executed with [`EulerPipelineBuilder::streaming_phase1`]).
    pub wstream: Option<WStreamStats>,
    /// Non-fatal degradations absorbed during the walk (see
    /// [`RunReport::warnings`]).
    pub warnings: Vec<String>,
}

/// Output of the Phase-3 unroll stage.
#[derive(Clone, Debug)]
pub struct CircuitStage {
    /// The reconstructed circuit(s).
    pub result: CircuitResult,
    /// Wall time of Phase 3.
    pub phase3_time: Duration,
    /// Longs written to the fragment store ("disk").
    pub fragment_disk_longs: u64,
    /// Real memory/spill statistics of the fragment store (see
    /// [`RunReport::fragment_stats`]).
    pub fragment_stats: FragmentStoreStats,
}

/// The staged outputs of one pipeline run:
/// [`PartitionStage`] → [`MergeStage`] → [`CircuitStage`].
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// Load + partition stage.
    pub partition: PartitionStage,
    /// Phase-1/2 merge-tree stage.
    pub merge: MergeStage,
    /// Phase-3 unroll stage.
    pub circuit: CircuitStage,
}

impl PipelineRun {
    /// The reconstructed circuit(s).
    pub fn result(&self) -> &CircuitResult {
        &self.circuit.result
    }

    /// Consumes the run, returning just the circuit(s).
    pub fn into_result(self) -> CircuitResult {
        self.circuit.result
    }

    /// Reassembles the stages into the unified legacy-shaped [`RunReport`]
    /// (per-level analysis helpers, Fig.-8 memory series, level traces).
    pub fn report(&self) -> RunReport {
        RunReport {
            num_partitions: self.partition.num_partitions,
            supersteps: self.merge.supersteps,
            strategy: self.merge.strategy,
            per_partition: self.merge.per_partition.clone(),
            phase12_time: self.merge.phase12_time,
            phase3_time: self.circuit.phase3_time,
            total_transfer_longs: self.merge.total_transfer_longs,
            fragment_disk_longs: self.circuit.fragment_disk_longs,
            fragment_stats: self.circuit.fragment_stats,
            merge_tree: self.merge.merge_tree.clone(),
            backend: self.merge.backend.clone(),
            engine: self.merge.engine.clone(),
            wstream: self.merge.wstream,
            warnings: self.merge.warnings.clone(),
        }
    }
}
