//! The shared merge-tree walk.

use super::*;

/// The Eulerian degree check: edge arrays answer it from their offsets
/// ([`EdgeArrays::first_odd_vertex`]), a stream from the degrees its pass
/// accumulated — one error.
fn require_even_degrees(first_odd: Option<(VertexId, u64)>) -> Result<(), EulerError> {
    match first_odd {
        Some((vertex, degree)) => Err(EulerError::Graph(euler_graph::GraphError::NotEulerian { vertex, degree })),
        None => Ok(()),
    }
}

/// The one degree check of edge arrays, and their level-0 scan under
/// `assignment`: what [`Input::Edges`] carries, made before the run so that
/// the caller can time it as partitioning and a service can admit the run
/// on what it counts.
pub(crate) fn checked_scan(edges: EdgeArrays<'_>, assignment: &PartitionAssignment) -> Result<Scan, EulerError> {
    require_even_degrees(edges.first_odd_vertex())?;
    Ok(level0::scan(edges, assignment)?)
}

/// What a run reads: edge arrays — a resident graph's, or a mapped `.ecsr`'s
/// with the file — and the scan [`checked_scan`] made of them, whose level 0
/// the backend fills; or a source's edge stream, whose level 0 the
/// W-streaming pass builds.
pub(crate) enum Input<'a> {
    Edges(EdgeArrays<'a>, Scan, Option<&'a CsrFile>),
    Stream(Box<dyn EdgeStream + 'a>),
}

/// A finished run and what its input told about itself.
pub(crate) struct Ran {
    pub result: CircuitResult,
    pub report: RunReport,
    /// Vertices and edges of the input.
    pub size: (u64, u64),
}

/// A run's yield point: called as `(done, steps)` before each merge-tree
/// superstep and before Phase 3, with `steps` the supersteps plus one. An
/// `Err` — [`EulerError::Cancelled`] from a service run — ends the run with it.
pub(crate) type YieldPoint<'a> = &'a mut dyn FnMut(u32, u32) -> Result<(), EulerError>;

/// The one run every entry point ends in: the degree check (edge arrays'
/// came with their scan, a stream's follows its pass), level 0, the
/// merge-tree walk and Phase 3 with the caller's yield point, and, under
/// [`EulerConfig::verify`], the one checker over the input's own endpoints —
/// a file's endpoints section, so verifying loads no [`Graph`].
pub(crate) fn run_input(
    mut input: Input<'_>,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
    yield_point: Option<YieldPoint<'_>>,
) -> Result<Ran, EulerError> {
    let dedup = config.merge_strategy.deduplicates();
    let store = fragment_store_for(config);
    let (mut pass_time, mut wstream) = (Duration::ZERO, None);
    let (tree, seed, size) = match &mut input {
        Input::Edges(edges, scan, file) => {
            let (edges, file, scan) = (*edges, *file, std::mem::take(scan));
            let tree = MergeTree::build(&scan.meta());
            let levels = tree.leaf_levels(assignment.num_partitions());
            let seed = Seed(SeedKind::Level0(Level0 { edges, file, assignment, scan, dedup, levels }));
            (tree, seed, (edges.num_vertices(), edges.num_edges()))
        }
        Input::Stream(stream) => {
            let t = Instant::now();
            // 0: open chains hold the `Θ(log n)` default
            // (`phase1::wstream::default_chunk_edges`).
            let outcome = stream_phase1(stream.as_mut(), assignment, &store, 0)?;
            pass_time = t.elapsed();
            require_even_degrees(outcome.first_odd)?;
            let mut states = outcome.states;
            if dedup {
                apply_remote_edge_dedup(&mut states, |v| assignment.partition_of(v));
            }
            wstream = Some(outcome.stats);
            (outcome.tree, states.into(), (outcome.stats.num_vertices, outcome.stats.edges_ingested))
        }
    };
    let (result, mut report) = run_merge_walk(tree, seed, store, config, backend, wstream, yield_point)?;
    report.phase12_time += pass_time;
    if config.verify {
        let circuits = result.circuits.iter().map(Vec::as_slice);
        match input {
            Input::Edges(edges, ..) => verify_steps(edges.endpoints, circuits),
            Input::Stream(mut stream) => {
                // A second pass: the stream's endpoints by edge id, flat.
                let mut ends = vec![0u64; 2 * size.1 as usize];
                stream.stream_with_ids(&mut |batch| {
                    for &(e, u, v) in batch {
                        if let Some(end) = ends.chunks_exact_mut(2).nth(e as usize) {
                            end.copy_from_slice(&[u, v]);
                        }
                    }
                })?;
                verify_steps(&ends, circuits)
            }
        }?;
    }
    Ok(Ran { result, report, size })
}

/// Runs the full three-phase algorithm over a resident graph under
/// `assignment` on the given backend: [`EulerPipeline::run`]'s run over a
/// graph input, without the source and partitioner stages.
///
/// It checks the degrees, builds level 0, walks the merge tree one
/// [`ExecutionBackend::run_level`] call per level, unrolls Phase 3 and
/// assembles the unified [`RunReport`]; under [`EulerConfig::verify`] it
/// checks the circuit against `g`.
pub fn run_with_backend(
    g: &Graph,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
) -> Result<(CircuitResult, RunReport), EulerError> {
    let edges = g.edge_arrays();
    let input = Input::Edges(edges, checked_scan(edges, assignment)?, None);
    let ran = run_input(input, assignment, config, backend, None)?;
    Ok((ran.result, ran.report))
}

/// Builds the run's fragment store from its configuration: an explicit
/// budget bounds the store's resident fragments, paging the rest out to a
/// spill file; otherwise they all stay in memory. Either way the circuits
/// and the stored disk accounting are identical.
fn fragment_store_for(config: &EulerConfig) -> FragmentStore {
    match config.fragment_memory_budget {
        Some(budget) => {
            let mut spill = SpillConfig::with_budget(budget);
            if let Some(dir) = &config.fragment_spill_directory {
                spill = spill.in_directory(dir.clone());
            }
            FragmentStore::spilling(spill)
        }
        None => FragmentStore::new(),
    }
}

/// The merge-tree walk + Phase-3 unroll from a level-0 seed: the common
/// tail of the dense path (a level 0 still in its edge arrays) and the
/// W-streaming path (states and
/// `wstream` accounting from [`stream_phase1`], with partial tours already
/// in `store`). `tree` is the run's merge tree, which the seed's remote refs
/// are bucketed for; a strategy that drops duplicate remote refs has dropped
/// them from the seed.
pub(super) fn run_merge_walk(
    tree: MergeTree,
    seed: Seed<'_>,
    store: FragmentStore,
    config: &EulerConfig,
    backend: &dyn ExecutionBackend,
    wstream: Option<WStreamStats>,
    mut yield_point: Option<YieldPoint<'_>>,
) -> Result<(CircuitResult, RunReport), EulerError> {
    let tree = Arc::new(tree);
    let steps = tree.num_supersteps() + 1;
    let mut yield_at = |done| yield_point.as_mut().map_or(Ok(()), |at| at(done, steps));
    let mut report = RunReport {
        num_partitions: tree.leaves.len() as u32,
        supersteps: tree.num_supersteps(),
        strategy: config.merge_strategy,
        merge_tree: tree.as_ref().clone(),
        backend: backend.name().to_string(),
        wstream,
        ..Default::default()
    };

    let t_run = Instant::now();
    let mut seed = Some(seed);
    for level in 0..tree.num_supersteps() {
        yield_at(level)?;
        let outcome = backend.run_level(LevelWork { level, tree: &tree, store: &store, config, seed: seed.take() })?;
        report.per_partition.extend(outcome.reports);
        report.total_transfer_longs += outcome.transfer_longs;
    }
    report.phase12_time = t_run.elapsed();
    // Snapshot the superstep statistics now, before Phase 3, so their wall
    // time covers only the superstep walk.
    report.engine = backend.engine_stats();
    report.warnings = backend.warnings();

    // --- Phase 3: unroll the fragments into the circuit. --------------------
    yield_at(tree.num_supersteps())?;
    let t3 = Instant::now();
    let result = unroll(&store)?;
    report.phase3_time = t3.elapsed();
    report.fragment_disk_longs = store.disk_longs();
    report.fragment_stats = store.stats();
    if report.fragment_stats.spill_errors > 0 {
        report.warnings.push(format!(
            "fragment spill degraded: {} spill I/O failure(s); affected fragments stayed resident",
            report.fragment_stats.spill_errors
        ));
    }

    Ok((result, report))
}
