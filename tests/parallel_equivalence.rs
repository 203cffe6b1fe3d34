//! Differential harness for the one parallel schedule: a merge level's
//! partitions run concurrently, and the result must be **bit-identical** to
//! the `.sequential()` run — same circuits edge for edge, same per-level
//! `RunReport` records, same transfer accounting, same fragment store down
//! to the ids — on every backend, for any thread or worker count, with or
//! without a fragment memory budget.
//!
//! That holds because a fragment's id is a function of `(level, partition,
//! push sequence)` alone and the store is addressed and walked by id (see
//! `euler_core::fragment`): concurrency may only change wall-clock, never
//! output. Every test here forces a 4-thread
//! rayon pool — oversubscribed on small CI runners — and repeats each
//! concurrent run, so the pushes of a level really do interleave
//! differently from run to run.

use euler_circuit::algo::verify::verify_result;
use euler_circuit::algo::{
    EulerError, Fragment, FragmentStore, LevelOutcome, LevelWork, VertexTypeCounts, FAN_OUT_MIN_WORDS,
};
use euler_circuit::bsp::{BspConfig, PlatformCostModel};
use euler_circuit::prelude::*;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Once};

/// Asserts that level 0 — every partition, two or more of them — carried
/// enough work to clear the fan-out gate ([`FAN_OUT_MIN_WORDS`]; an input
/// under it compares the sequential schedule with itself), read from the
/// run's own per-partition counts: a state record holds four words per local
/// edge and three per remote ref, besides its header, so these bound the
/// level's words from below.
fn assert_level0_fans_out(records: impl IntoIterator<Item = (u32, VertexTypeCounts)>, what: &str) {
    let level0: Vec<_> = records.into_iter().filter(|(level, _)| *level == 0).map(|(_, c)| c).collect();
    let words: u64 = level0.iter().map(|c| 4 * c.local_edges + 3 * c.remote_edges).sum();
    assert!(level0.len() >= 2, "{what}: {} partition(s) at level 0", level0.len());
    assert!(words >= FAN_OUT_MIN_WORDS, "{what}: level 0 steps {words} words, under the fan-out gate");
}

/// Forces the rayon pool to 4 threads, whatever the environment says. The
/// pool size is read once, at first use, so every test calls this first.
fn force_four_threads() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

/// Decorates a backend to keep a handle on the walk's fragment store, which
/// a `PipelineRun` does not expose.
struct KeepStore<B> {
    inner: B,
    store: Rc<RefCell<Option<FragmentStore>>>,
}

impl<B: ExecutionBackend> ExecutionBackend for KeepStore<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_level(&self, work: LevelWork<'_>) -> Result<LevelOutcome, EulerError> {
        *self.store.borrow_mut() = Some(work.store.clone());
        self.inner.run_level(work)
    }

    fn engine_stats(&self) -> Option<euler_circuit::bsp::EngineStats> {
        self.inner.engine_stats()
    }

    fn warnings(&self) -> Vec<String> {
        self.inner.warnings()
    }
}

/// Everything a run produced that must not depend on the schedule.
struct Observed {
    circuits: Vec<Vec<CircuitStep>>,
    supersteps: u32,
    transfer_longs: u64,
    fragment_disk_longs: u64,
    /// The measurement-free projection of the per-level records (timings
    /// vary run to run; everything else must be bit-stable).
    records: Vec<RecordFacts>,
    /// The fragment store after the run, in its own order, ids included.
    fragments: Vec<Fragment>,
    /// Not compared: the spill traffic of a budgeted run depends on which
    /// fragments happened to be resident.
    stats: FragmentStoreStats,
    /// Not compared either: a BSP run's superstep statistics.
    engine: Option<euler_circuit::bsp::EngineStats>,
}

impl Observed {
    /// Asserts bit-identity with `oracle`, naming what diverged (the values
    /// themselves run to megabytes).
    fn assert_matches(&self, oracle: &Observed, what: &str) {
        assert!(self.circuits == oracle.circuits, "{what}: circuits diverged");
        assert_eq!(self.supersteps, oracle.supersteps, "{what}: supersteps");
        assert_eq!(self.transfer_longs, oracle.transfer_longs, "{what}: transfer longs");
        assert_eq!(self.fragment_disk_longs, oracle.fragment_disk_longs, "{what}: fragment longs");
        assert_eq!(self.records, oracle.records, "{what}: per-level records");
        assert_eq!(self.fragments.len(), oracle.fragments.len(), "{what}: fragment count");
        for (f, o) in self.fragments.iter().zip(&oracle.fragments) {
            assert_eq!(f.id, o.id, "{what}: store order");
            assert!(f == o, "{what}: fragment {:?} diverged", f.id);
        }
    }
}

impl Observed {
    /// The worker count of a BSP run.
    fn engine_workers(&self) -> Option<usize> {
        self.engine.as_ref().map(|e| e.num_workers)
    }

    /// The level and counts of every per-level record.
    fn level_counts(&self) -> impl Iterator<Item = (u32, VertexTypeCounts)> + '_ {
        self.records.iter().map(|r| (r.level, r.counts))
    }
}

#[derive(Debug, PartialEq)]
struct RecordFacts {
    level: u32,
    partition: PartitionId,
    counts: VertexTypeCounts,
    complexity: u64,
    memory_longs: u64,
    remote_needed_now: u64,
    transfer_in_longs: u64,
    found: [u64; 3],
    splice: [u64; 3],
}

fn observe(
    g: &Graph,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
    backend: impl ExecutionBackend + 'static,
) -> Observed {
    observe_source(InMemorySource::new(g.clone()), assignment, config, backend)
}

fn observe_source(
    source: impl GraphSource + 'static,
    assignment: &PartitionAssignment,
    config: &EulerConfig,
    backend: impl ExecutionBackend + 'static,
) -> Observed {
    let store = Rc::new(RefCell::new(None));
    let run = EulerPipeline::builder()
        .source(source)
        .assignment(assignment.clone())
        .config(config.clone())
        .backend(KeepStore { inner: backend, store: Rc::clone(&store) })
        .build()
        .unwrap()
        .run()
        .unwrap();
    let store = store.borrow_mut().take().expect("at least one level ran");
    Observed {
        circuits: run.circuit.result.circuits,
        supersteps: run.merge.supersteps,
        transfer_longs: run.merge.total_transfer_longs,
        fragment_disk_longs: run.circuit.fragment_disk_longs,
        records: run
            .merge
            .per_partition
            .iter()
            .map(|r| RecordFacts {
                level: r.level,
                partition: r.partition,
                counts: r.counts,
                complexity: r.complexity,
                memory_longs: r.memory_longs,
                remote_needed_now: r.remote_needed_now,
                transfer_in_longs: r.transfer_in_longs,
                found: [r.paths_found, r.cycles_found, r.internal_cycles_merged],
                splice: [r.splice_pivot_lookups, r.splice_linked_splices, r.splice_materialization_longs],
            })
            .collect(),
        fragments: store.snapshot(),
        stats: run.circuit.fragment_stats,
        engine: run.merge.engine,
    }
}

/// The `.sequential()` oracle, then every concurrent way of running the same
/// walk — rayon fan-out in-process, BSP workers stepped in place (1, 2 and
/// one per partition), 2 thread workers over the in-memory transport — each
/// `repeats` times, unbounded and under a fragment budget of an eighth of
/// the fragment bytes. BSP workers in place (2, and one per partition) run
/// under `.sequential()` too, which they honour: one slot at a time, the
/// same bytes and the same non-timing superstep facts as their default runs.
/// All must equal the oracle, which is returned.
fn assert_every_schedule_matches_sequential(g: &Graph, assignment: &PartitionAssignment, repeats: usize) -> Observed {
    let unbounded = EulerConfig::default();
    let oracle = observe(g, assignment, &unbounded.clone().sequential(), InProcessBackend::new());
    verify_result(g, &CircuitResult { circuits: oracle.circuits.clone() }).unwrap();
    assert!(oracle.fragments.windows(2).all(|w| w[0].id < w[1].id), "the store walks in ascending id order");
    let budgeted = unbounded.clone().with_fragment_memory_budget(oracle.fragment_disk_longs / 8);

    for config in [&unbounded, &budgeted] {
        let budget = config.fragment_memory_budget;
        if budget.is_some() {
            // The budget changes where fragments live, not what they are.
            let seq = observe(g, assignment, &config.clone().sequential(), InProcessBackend::new());
            seq.assert_matches(&oracle, "sequential run under a budget");
        }
        let sequential: Vec<Observed> = [BspConfig::with_workers(2), BspConfig::one_worker_per_partition()]
            .into_iter()
            .map(|engine| {
                let seq = observe(g, assignment, &config.clone().sequential(), BspBackend::with_engine(engine));
                let what = format!("sequential in-place workers {:?}, budget {budget:?}", engine.workers);
                seq.assert_matches(&oracle, &what);
                seq
            })
            .collect();
        for rep in 0..repeats {
            let tag = |name: &str| format!("{name}, budget {budget:?}, repeat {rep}");
            let fan_out = observe(g, assignment, config, InProcessBackend::new());
            fan_out.assert_matches(&oracle, &tag("in-process fan-out"));
            for engine in
                [BspConfig::with_workers(1), BspConfig::with_workers(2), BspConfig::one_worker_per_partition()]
            {
                let bsp = observe(g, assignment, config, BspBackend::with_engine(engine));
                let what = tag(&format!("in-place workers {:?}", engine.workers));
                bsp.assert_matches(&oracle, &what);
                let seq = sequential.iter().find(|seq| seq.engine_workers() == bsp.engine_workers());
                if let Some(seq) = seq {
                    let facts = |o: &Observed| o.engine.clone().expect("bsp runs report engine stats");
                    assert_same_superstep_facts(&facts(&bsp), &facts(seq), &format!("{what} vs .sequential()"));
                }
            }
            let wire = BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(MemTransport));
            observe(g, assignment, config, wire).assert_matches(&oracle, &tag("2 wire workers"));
        }
    }
    oracle
}

/// The headline: partitions big enough that their levels fan out and their
/// pushes interleave, every backend, twenty times over.
#[test]
fn every_backend_is_bit_identical_to_sequential_twenty_times_over() {
    force_four_threads();
    let g = synthetic::random_eulerian_connected(3_000, 600, 8, 2024);
    let assignment = LdgPartitioner::new(8).partition(&g);
    let oracle = assert_every_schedule_matches_sequential(&g, &assignment, 20);
    assert_level0_fans_out(oracle.level_counts(), "random Eulerian 3,000");
}

/// The facts of two BSP runs' supersteps that no clock reads and that do not
/// depend on where the workers live or how they were seeded: which partitions
/// ran, what was handed over and what was shuffled, the memory after.
fn assert_same_superstep_facts(a: &euler_circuit::bsp::EngineStats, b: &euler_circuit::bsp::EngineStats, tag: &str) {
    assert_eq!(a.num_workers, b.num_workers, "{tag}");
    assert_eq!(a.placement, b.placement, "{tag}: one placement rule");
    assert_eq!(a.supersteps.len(), b.supersteps.len(), "{tag}");
    for (a, b) in a.supersteps.iter().zip(&b.supersteps) {
        let tag = format!("{tag}, superstep {}", a.superstep);
        assert_eq!(a.superstep, b.superstep, "{tag}");
        assert_eq!(a.active_partitions, b.active_partitions, "{tag}");
        assert_eq!(
            (a.local_messages, a.local_bytes, a.remote_messages, a.remote_bytes),
            (b.local_messages, b.local_bytes, b.remote_messages, b.remote_bytes),
            "{tag}: shuffle"
        );
        assert_eq!(a.memory.level, b.memory.level, "{tag}");
        assert_eq!(a.memory.per_partition, b.memory.per_partition, "{tag}: memory");
    }
}

/// The two BSP substrates run one step and one barrier fold: for every
/// worker count the workers stepped in place and thread workers behind the
/// in-memory transport report the same superstep statistics in every field
/// that is not a clock reading, and price the same under a cost model.
#[test]
fn in_place_and_wire_workers_report_the_same_engine_stats() {
    force_four_threads();
    let g = eulerize(&RmatGenerator::new(12).with_avg_degree(8.0).with_seed(3).generate()).0;
    let parts = 6;
    let assignment = LdgPartitioner::new(parts).partition(&g);
    // Local + remote bytes per superstep, by worker count: every retiring
    // state is counted at its record's size, wherever its parent is.
    let mut bytes_by_workers: Vec<Vec<u64>> = Vec::new();
    for workers in [1, 2, 3, parts as usize] {
        let engine = BspConfig::with_workers(workers).with_cost_model(PlatformCostModel::spark_like());
        let mut tree = None;
        let mut stats = |backend: BspBackend| {
            let run = EulerPipeline::builder()
                .graph(&g)
                .assignment(assignment.clone())
                .backend(backend)
                .build()
                .unwrap()
                .run()
                .unwrap();
            // However many workers hold them, level 0's slots step side by
            // side: it clears the gate.
            let counts = run.merge.per_partition.iter().map(|r| (r.level, r.counts));
            assert_level0_fans_out(counts, &format!("R-MAT 12, {workers} workers"));
            tree = Some(run.merge.merge_tree);
            run.merge.engine.expect("bsp runs report engine stats")
        };
        let in_place = stats(BspBackend::with_engine(engine));
        let wire = stats(BspBackend::with_engine(engine).with_transport(Arc::new(MemTransport)));

        let tree = tree.expect("both runs planned the same tree");
        let merges = tree.levels.iter().map(Vec::len).sum::<usize>() as u64;
        let tag = format!("{workers} workers");
        assert_eq!(in_place.num_workers, workers, "{tag}");
        assert_same_superstep_facts(&in_place, &wire, &tag);
        assert_eq!(in_place.placement.len(), parts as usize, "{tag}");
        assert!(in_place.placement.iter().all(|&w| w < workers), "{tag}");
        if workers == parts as usize {
            assert_eq!(in_place.placement, (0..workers).collect::<Vec<_>>(), "{tag}");
        }
        // Nothing crosses a wire in place; over one, the seed and every
        // level's fragments do.
        assert_eq!(in_place.init_bytes, 0, "{tag}");
        assert!(wire.init_bytes > 0, "{tag}");
        assert!(in_place.supersteps.iter().all(|s| s.fragment_bytes == 0), "{tag}");
        assert!(wire.supersteps.iter().all(|s| s.fragment_bytes > 0), "{tag}");
        assert_eq!(in_place.recovery, RecoveryStats::default(), "{tag}: nothing to recover in place");
        assert!(in_place.modelled_platform_overhead > std::time::Duration::ZERO, "{tag}");
        assert_eq!(in_place.modelled_platform_overhead, wire.modelled_platform_overhead, "{tag}");
        let mut shipped = 0;
        for (a, b) in in_place.supersteps.iter().zip(&wire.supersteps) {
            let tag = format!("{tag}, superstep {}", a.superstep);
            let buckets = |s: &euler_circuit::bsp::SuperstepStats| -> Vec<(u32, Vec<String>)> {
                s.per_partition_compute
                    .iter()
                    .map(|(p, split)| (*p, split.phases().into_iter().map(String::from).collect()))
                    .collect()
            };
            assert_eq!(buckets(a), buckets(b), "{tag}: compute buckets");
            assert_eq!(a.per_partition_compute.len(), a.active_partitions, "{tag}");
            for (_, split) in &a.per_partition_compute {
                assert_eq!(
                    split.phases(),
                    ["copy_sink_partition", "copy_source_partition", "create_partition_object", "phase1_tour"],
                    "{tag}: the paper's four categories, nothing else"
                );
            }
            shipped += a.total_messages();
        }
        // One message per merge of the tree; with one worker none is remote.
        assert!(merges > 0, "{tag}");
        assert_eq!(shipped, merges, "{tag}");
        if workers == 1 {
            assert_eq!(in_place.total_remote_bytes(), 0, "{tag}");
        }
        // A merge between two partitions of one worker is a hand-off.
        let held_together = |p: &&euler_circuit::algo::MergePair| {
            in_place.placement[p.child.0 as usize] == in_place.placement[p.parent.0 as usize]
        };
        for (pairs, step) in tree.levels.iter().zip(&in_place.supersteps) {
            let local = pairs.iter().filter(held_together).count() as u64;
            assert_eq!(
                (step.local_messages, step.remote_messages),
                (local, pairs.len() as u64 - local),
                "{tag}, superstep {}",
                step.superstep
            );
        }
        bytes_by_workers.push(in_place.supersteps.iter().map(|s| s.total_bytes()).collect());
    }
    assert!(bytes_by_workers.windows(2).all(|w| w[0] == w[1]), "{bytes_by_workers:?}");
}

/// Level 0 straight off a mapped `.ecsr`: the in-process backend and workers
/// stepped in place fill every partition from the file, wire workers — threads
/// over the in-memory transport, processes over TCP — are pointed at it and
/// build their own. Every one of them must equal the `.graph(g)` run down to
/// the fragment ids, under each merge strategy, and the BSP substrates must
/// report the same statistics whether their level 0 was built in place, shipped
/// as states or read by the workers.
#[test]
fn workers_fed_from_a_mapped_file_match_the_graph_run_down_to_the_fragment_ids() {
    force_four_threads();
    let g = eulerize(&RmatGenerator::new(12).with_avg_degree(8.0).with_seed(7).generate()).0;
    let parts = 6usize;
    let assignment = LdgPartitioner::new(parts as u32).partition(&g);
    let path = std::env::temp_dir().join(format!("euler-pe-{}.ecsr", std::process::id()));
    write_csr_file(&g, &path).unwrap();
    let from_file = |config: &EulerConfig, backend: BspBackend| {
        observe_source(MmapCsrSource::open(&path).unwrap(), &assignment, config, backend)
    };
    let mem_wire = || BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(MemTransport));
    let processes = || {
        BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(TcpTransport)).process_workers(true)
    };

    for strategy in MergeStrategy::all() {
        let config = EulerConfig::default().with_merge_strategy(strategy);
        let oracle = observe(&g, &assignment, &config.clone().sequential(), InProcessBackend::new());
        let tag = |what: &str| format!("{what} off the file, {strategy}");
        assert_level0_fans_out(oracle.level_counts(), &tag("R-MAT 12"));
        let in_process =
            observe_source(MmapCsrSource::open(&path).unwrap(), &assignment, &config, InProcessBackend::new());
        in_process.assert_matches(&oracle, &tag("in-process fan-out"));
        for workers in [1, parts] {
            let engine = BspConfig::with_workers(workers);
            from_file(&config, BspBackend::with_engine(engine))
                .assert_matches(&oracle, &tag(&format!("{workers} in-place worker(s)")));
        }
        let in_place = from_file(&config, BspBackend::with_engine(BspConfig::with_workers(2)));
        let threads = from_file(&config, mem_wire());
        let procs = from_file(&config, processes());
        let shipped = observe(&g, &assignment, &config, mem_wire());
        in_place.assert_matches(&oracle, &tag("2 in-place workers"));
        threads.assert_matches(&oracle, &tag("2 Mem-wire thread workers"));
        procs.assert_matches(&oracle, &tag("2 process workers"));
        shipped.assert_matches(&oracle, &tag("2 Mem-wire thread workers, states shipped, not"));

        // One placement and one set of shuffle and memory statistics; only
        // what seeding the workers moved differs.
        let stats = |o: &Observed| o.engine.clone().expect("bsp runs report engine stats");
        let (in_place, threads, procs, shipped) = (stats(&in_place), stats(&threads), stats(&procs), stats(&shipped));
        for (other, what) in [(&threads, "threads"), (&procs, "processes"), (&shipped, "shipped")] {
            let tag = tag(what);
            assert_same_superstep_facts(&in_place, other, &tag);
            assert_eq!(in_place.recovery, other.recovery, "{tag}: nothing to recover");
            assert!(other.supersteps.iter().all(|s| s.fragment_bytes > 0), "{tag}");
        }
        assert_eq!(threads.init_bytes, procs.init_bytes, "{strategy}: one reference, either wire");
        assert_eq!((in_place.init_bytes, in_place.seed_build_time), (0, std::time::Duration::ZERO));
        assert!(
            0 < threads.init_bytes && threads.init_bytes < shipped.init_bytes,
            "{strategy}: a reference ({} B) is smaller than the states ({} B)",
            threads.init_bytes,
            shipped.init_bytes
        );
        assert!(procs.seed_build_time > std::time::Duration::ZERO, "{strategy}");
    }
    std::fs::remove_file(&path).ok();
}

/// The memory promise under concurrency: with a level's partitions pushing
/// at once, the resident fragment set still never exceeds the budget by
/// more than the one fragment being pushed, nothing falls back to resident,
/// and the spill traffic keeps its exact identities.
#[test]
fn fragment_budget_envelope_holds_under_concurrent_fan_out() {
    force_four_threads();
    let torus = synthetic::torus_grid(96, 96);
    let rmat = eulerize(&RmatGenerator::new(12).with_avg_degree(8.0).with_seed(5).generate()).0;
    for (name, g) in [("torus", &torus), ("rmat", &rmat)] {
        let assignment = LdgPartitioner::new(8).partition(g);
        let config = EulerConfig::default();
        let unbounded = observe(g, &assignment, &config, InProcessBackend::new());
        assert_level0_fans_out(unbounded.level_counts(), name);
        let budget = unbounded.fragment_disk_longs / 8;
        let largest = unbounded.fragments.iter().map(Fragment::disk_longs).max().unwrap();
        for _ in 0..5 {
            let bounded =
                observe(g, &assignment, &config.clone().with_fragment_memory_budget(budget), InProcessBackend::new());
            bounded.assert_matches(&unbounded, &format!("{name} under a budget"));
            let stats = bounded.stats;
            assert!(stats.spilled_fragments > 0, "{name}: budget {budget} must spill: {stats:?}");
            assert_eq!(stats.spill_errors, 0, "{name}");
            // The spill traffic identities hold however the fan-out filled
            // the store: every record not resident written once, read back
            // once by each of Phase 3's two passes.
            let on_disk = bounded.fragment_disk_longs - stats.resident_longs;
            assert_eq!(stats.spill_write_longs, on_disk, "{name}");
            assert_eq!(stats.spill_read_longs, 2 * stats.spill_write_longs, "{name}");
            assert!(stats.spill_reads <= 2 * stats.spill_writes, "{name}: {stats:?}");
            assert!(
                stats.peak_resident_longs <= budget + largest,
                "{name}: peak {} over budget {budget} + largest fragment {largest}",
                stats.peak_resident_longs
            );
            assert!(
                stats.peak_resident_longs <= budget,
                "{name}: peak {} over budget {budget}",
                stats.peak_resident_longs
            );
        }
    }
}

// The graphs below are far under the fan-out gate: every level runs on the
// caller, so these check worker placement, the wire and the inline path on
// awkward shapes, and the fixed inputs above check the concurrent schedule.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random Eulerized multigraphs (parallel edges and self-loops from the
    /// eulerizer) through every schedule.
    #[test]
    fn eulerized_multigraphs_are_thread_count_invariant(
        edges in prop::collection::vec((0u64..36, 0u64..36), 1..140),
        parts in 1u32..6,
        use_hash in any::<bool>(),
    ) {
        force_four_threads();
        let mut b = GraphBuilder::with_vertices(36);
        b.extend_edges(edges.iter().copied());
        let (g, _) = eulerize(&b.build().unwrap());
        let assignment = if use_hash {
            HashPartitioner::new(parts).partition(&g)
        } else {
            LdgPartitioner::new(parts).partition(&g)
        };
        assert_every_schedule_matches_sequential(&g, &assignment, 2);
    }

    /// Connected random Eulerian graphs — denser walks, more merge levels.
    #[test]
    fn connected_eulerian_graphs_are_thread_count_invariant(
        seed in 0u64..1000,
        n in 10u64..110,
        extra in 0usize..12,
        parts in 1u32..7,
    ) {
        force_four_threads();
        let g = synthetic::random_eulerian_connected(n.max(4), extra, 5, seed);
        let assignment = LdgPartitioner::new(parts).partition(&g);
        assert_every_schedule_matches_sequential(&g, &assignment, 2);
    }
}
