//! Fault-tolerance integration tests for the distributed (wire-transport)
//! pipeline path: clean distributed runs must be bit-identical to the
//! in-process sequential run, and — the headline — killing a worker
//! mid-superstep must end in automatic respawn, checkpoint restore (or
//! deterministic replay when checkpointing is off) and a final circuit that
//! is still bit-identical, with the recovery visible in
//! [`RunReport::warnings`] and the engine's recovery counters.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use euler_circuit::algo::verify::verify_result;
use euler_circuit::bsp::transport::{Connection, FrameBatch, Listener};
use euler_circuit::bsp::FrameError;
use euler_circuit::prelude::*;
use proptest::prelude::*;

/// Builds a connected Eulerian graph from a seed.
fn graph_from(seed: u64, n: u64, extra: usize) -> Graph {
    synthetic::random_eulerian_connected(n.max(4), extra, 5, seed)
}

/// A fresh scratch directory under the system temp dir (no tempfile crate in
/// the build environment). Callers clean up on success; stale dirs from
/// failed runs are keyed by pid so reruns never collide.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "euler-ft-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The measurement-free projection of a per-level record (timings differ run
/// to run; everything else must be bit-stable).
fn record_facts(r: &LevelPartitionReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.level,
        r.partition,
        r.counts,
        r.complexity,
        r.memory_longs,
        r.remote_needed_now,
        r.transfer_in_longs,
        (r.paths_found, r.cycles_found, r.internal_cycles_merged),
    )
}

/// Bit-identity across runs: circuits, transfer accounting, fragment
/// accounting and every per-level record.
fn assert_same_run(a: &PipelineRun, b: &PipelineRun) {
    assert_eq!(a.circuit.result.circuits, b.circuit.result.circuits);
    assert_eq!(a.merge.total_transfer_longs, b.merge.total_transfer_longs);
    assert_eq!(a.circuit.fragment_disk_longs, b.circuit.fragment_disk_longs);
    assert_eq!(a.merge.supersteps, b.merge.supersteps);
    assert_eq!(a.merge.per_partition.len(), b.merge.per_partition.len());
    for (x, y) in a.merge.per_partition.iter().zip(&b.merge.per_partition) {
        assert_eq!(record_facts(x), record_facts(y));
    }
}

/// The in-process sequential run every distributed run is judged against.
fn reference_run(g: &Graph, a: &PartitionAssignment, config: &EulerConfig) -> PipelineRun {
    EulerPipeline::builder()
        .graph(g)
        .assignment(a.clone())
        .config(config.clone())
        .backend(InProcessBackend::new())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn distributed_run(
    g: &Graph,
    a: &PartitionAssignment,
    config: &EulerConfig,
    backend: BspBackend,
) -> PipelineRun {
    EulerPipeline::builder()
        .graph(g)
        .assignment(a.clone())
        .config(config.clone())
        .backend(backend)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

/// A fault policy with test-friendly timings (the defaults keep a 5 s
/// heartbeat timeout, far too patient for a test suite).
fn fast_policy() -> FaultPolicy {
    FaultPolicy::default()
        .with_heartbeat_interval(Duration::from_millis(20))
        .with_heartbeat_timeout(Duration::from_millis(400))
}

// ---------------------------------------------------------------------------
// Clean runs: the wire transport changes nothing observable.
// ---------------------------------------------------------------------------

#[test]
fn mem_transport_thread_workers_match_in_process_run() {
    let g = graph_from(42, 120, 14);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);

    for workers in [1usize, 2, 4] {
        let run = distributed_run(
            &g,
            &a,
            &config,
            BspBackend::with_engine(BspConfig::with_workers(workers))
                .with_transport(Arc::new(MemTransport)),
        );
        assert!(verify_result(&g, &run.circuit.result).is_ok());
        assert_same_run(&reference, &run);
        assert!(run.merge.warnings.is_empty(), "clean run warned: {:?}", run.merge.warnings);
        let engine = run.merge.engine.as_ref().unwrap();
        assert_eq!(engine.num_workers, workers);
        assert!(!engine.recovery.any_recovery());
        // No checkpoint dir configured -> nothing written.
        assert_eq!(engine.recovery.checkpoints_written, 0);
    }
}

/// The in-memory transport, counting the worker-side connections that are
/// still open.
struct CountingMem {
    open: Arc<AtomicUsize>,
}

struct CountedConnection {
    inner: Box<dyn Connection>,
    open: Arc<AtomicUsize>,
}

impl Drop for CountedConnection {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Connection for CountedConnection {
    fn send_parts(&self, kind: u16, parts: &[&[u8]]) -> Result<(), FrameError> {
        self.inner.send_parts(kind, parts)
    }

    fn send_batch(&self, batch: &FrameBatch) -> Result<(), FrameError> {
        self.inner.send_batch(batch)
    }

    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        self.inner.recv_timeout(timeout)
    }
}

impl Transport for CountingMem {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        MemTransport.listen()
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let inner = MemTransport.connect(endpoint)?;
        self.open.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(CountedConnection { inner, open: Arc::clone(&self.open) }))
    }
}

/// Ending a clean run must not wait out a heartbeat interval: a worker's
/// heartbeat thread is woken when the worker ends, and the coordinator's
/// receiver leaves with the worker's Bye. The run itself takes milliseconds,
/// so at a 2 s interval a teardown that sleeps out a beat shows — in the
/// run's wall time, or in worker threads that outlive it holding their
/// connection open.
#[test]
fn clean_thread_worker_teardown_does_not_wait_out_a_heartbeat() {
    let g = graph_from(5, 80, 8);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let patient = FaultPolicy::default()
        .with_heartbeat_interval(Duration::from_secs(2))
        .with_heartbeat_timeout(Duration::from_secs(10));
    let open = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(CountingMem { open: Arc::clone(&open) }))
            .fault_policy(patient),
    );
    let took = started.elapsed();
    assert_same_run(&reference, &run);
    assert!(took < Duration::from_secs(1), "clean 2-worker run took {took:?}");
    // The workers said Bye before the run returned; they are gone, or going.
    while open.load(Ordering::Relaxed) > 0 && started.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(open.load(Ordering::Relaxed), 0, "worker threads outlived the run");
}

/// A connection that is not a worker: closed before any frame, or sending
/// one Hello-kind frame with the given payload.
struct Stray {
    hello: Option<Vec<u8>>,
}

impl Connection for Stray {
    fn send_parts(&self, _: u16, _: &[&[u8]]) -> Result<(), FrameError> {
        Ok(())
    }

    fn send_batch(&self, _: &FrameBatch) -> Result<(), FrameError> {
        Ok(())
    }

    fn recv_timeout(&self, _: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        // Kind 1 is the worker protocol's Hello.
        self.hello.clone().map(|payload| (1, payload)).ok_or(FrameError::Closed)
    }
}

/// A listener that hands out its strays, last first, before the
/// connections of the transport it wraps.
struct StrayListener {
    inner: Box<dyn Listener>,
    strays: Mutex<Vec<Stray>>,
}

impl Listener for StrayListener {
    fn endpoint(&self) -> String {
        self.inner.endpoint()
    }

    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
        match self.strays.lock().unwrap().pop() {
            Some(stray) => Ok(Box::new(stray)),
            None => self.inner.accept(timeout),
        }
    }
}

/// The in-memory transport whose listeners first accept a connection that
/// is already closed, then one whose Hello has an empty payload.
struct StraysFirst;

impl Transport for StraysFirst {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let strays = vec![Stray { hello: Some(Vec::new()) }, Stray { hello: None }];
        Ok(Box::new(StrayListener { inner: MemTransport.listen()?, strays: Mutex::new(strays) }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        MemTransport.connect(endpoint)
    }
}

/// A connection that fails its handshake is dropped and accepting goes on:
/// the workers behind it still come up, and the run is the in-process one.
#[test]
fn stray_connections_at_bring_up_are_dropped_not_fatal() {
    let g = graph_from(42, 120, 14);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2)).with_transport(Arc::new(StraysFirst)),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
    assert!(run.merge.warnings.is_empty(), "{:?}", run.merge.warnings);
}

#[test]
fn tcp_transport_thread_workers_match_in_process_run() {
    let g = graph_from(7, 90, 10);
    let a = HashPartitioner::new(3).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(TcpTransport)),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
}

#[test]
fn checkpointing_alone_changes_nothing_and_cleans_up_after_itself() {
    let g = graph_from(11, 100, 12);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let ckpt = scratch_dir("clean-ckpt");
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .checkpoint_dir(&ckpt),
    );
    assert_same_run(&reference, &run);
    let engine = run.merge.engine.as_ref().unwrap();
    // Every worker wrote one checkpoint per superstep, and none entering
    // superstep 0: its seed is that state.
    assert_eq!(engine.recovery.checkpoints_written, 2 * engine.supersteps.len() as u64);
    assert!(engine.recovery.checkpoint_longs_written > 0);
    assert_eq!(engine.recovery.checkpoint_longs_restored, 0);
    // Clean completion removes the checkpoint directory.
    assert!(!ckpt.exists(), "checkpoint dir survived a clean run");
}

/// A clean run removes the checkpoint files it wrote and nothing else: a
/// checkpoint directory that held a file before the run keeps it.
#[test]
fn a_clean_run_removes_only_its_own_checkpoint_files() {
    let g = graph_from(11, 100, 12);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let ckpt = scratch_dir("shared-ckpt");
    let keep = ckpt.join("keep.txt");
    std::fs::write(&keep, b"not the run's").unwrap();
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .checkpoint_dir(&ckpt),
    );
    assert_same_run(&reference, &run);
    assert!(run.merge.engine.as_ref().unwrap().recovery.checkpoints_written > 0);
    assert_eq!(std::fs::read(&keep).unwrap(), b"not the run's");
    let left: Vec<_> = std::fs::read_dir(&ckpt).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["keep.txt"], "checkpoint files survived a clean run");
    std::fs::remove_dir_all(ckpt).ok();
}

/// A checkpoint directory beneath a regular file takes no checkpoint. The run
/// says so once, naming the first worker and superstep that failed to write
/// (superstep 1: nothing is written entering superstep 0); a death then finds
/// no checkpoint — missing, not ignored — and replays.
#[test]
fn unwritable_checkpoint_directory_is_warned_of_once_and_counted_missing() {
    let g = graph_from(11, 100, 12);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let blocker = scratch_dir("unwritable").join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    for plan in [FaultPlan::none(), FaultPlan::kill_at(1, 1)] {
        let run = distributed_run(
            &g,
            &a,
            &config,
            BspBackend::with_engine(BspConfig::with_workers(2))
                .with_transport(Arc::new(MemTransport))
                .checkpoint_dir(blocker.join("ckpt"))
                .fault_policy(fast_policy())
                .with_fault_plan(plan),
        );
        assert_same_run(&reference, &run);
        let recovery = run.merge.engine.as_ref().unwrap().recovery;
        assert_eq!((recovery.checkpoints_written, recovery.checkpoints_ignored), (0, 0));
        let unwritten: Vec<_> =
            run.merge.warnings.iter().filter(|w| w.contains("could not write")).collect();
        assert_eq!(unwritten.len(), 1, "{:?}", run.merge.warnings);
        assert!(
            unwritten[0].contains("worker 0") && unwritten[0].contains("superstep 1"),
            "{}",
            unwritten[0]
        );
        match plan.kill {
            None => assert_eq!(run.merge.warnings.len(), 1),
            Some(_) => assert_eq!((recovery.restarts, recovery.full_restarts), (1, 1)),
        }
    }
    std::fs::remove_dir_all(blocker.parent().unwrap()).ok();
}

// ---------------------------------------------------------------------------
// Kill-and-resume: thread workers.
// ---------------------------------------------------------------------------

#[test]
fn killed_thread_worker_restores_from_checkpoint_bit_identically() {
    let g = graph_from(123, 140, 16);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let ckpt = scratch_dir("kill-ckpt");
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .checkpoint_dir(&ckpt)
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::kill_at(1, 1)),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
    let engine = run.merge.engine.as_ref().unwrap();
    assert!(engine.recovery.restarts >= 1, "kill was not observed");
    assert!(engine.recovery.checkpoint_longs_restored > 0, "recovery did not restore state");
    assert!(
        run.merge.warnings.iter().any(|w| w.contains("worker")),
        "recovery left no warning: {:?}",
        run.merge.warnings
    );
    assert!(!ckpt.exists());
}

#[test]
fn killed_thread_worker_without_checkpoints_replays_bit_identically() {
    // No checkpoint dir: recovery must fall back to a full deterministic
    // replay from the seed partitions.
    let g = graph_from(5, 110, 12);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::kill_at(0, 1)),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
    let engine = run.merge.engine.as_ref().unwrap();
    assert!(engine.recovery.restarts >= 1);
    assert!(engine.recovery.full_restarts >= 1, "expected a full replay");
    assert_eq!(engine.recovery.checkpoint_longs_restored, 0);
}

/// There is no checkpoint entering superstep 0: a kill there re-Inits every
/// worker from the seed the coordinator kept, with checkpointing on.
#[test]
fn kill_at_superstep_zero_recovers_from_the_seed() {
    let g = graph_from(99, 80, 8);
    let a = LdgPartitioner::new(3).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let ckpt = scratch_dir("kill-s0");
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(3))
            .with_transport(Arc::new(MemTransport))
            .checkpoint_dir(&ckpt)
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::kill_at(2, 0)),
    );
    assert_same_run(&reference, &run);
    let recovery = run.merge.engine.as_ref().unwrap().recovery;
    assert_eq!((recovery.restarts, recovery.full_restarts), (1, 1));
    assert_eq!((recovery.checkpoint_longs_restored, recovery.checkpoints_ignored), (0, 0));
    assert!(
        run.merge.warnings.iter().all(|w| !w.contains("checkpointing disabled")),
        "{:?}",
        run.merge.warnings
    );
    assert!(!ckpt.exists());
}

/// Every kill worker × every superstep × checkpoints on and off, on one
/// graph of at least three supersteps over 2 Mem-wire workers: each run
/// equals the in-process one, leaves no checkpoint directory, and recovers
/// the one way it can — from the checkpoint entering the superstep when
/// there is one, else by re-Initing every worker from the seed.
#[test]
fn fault_matrix_every_worker_every_superstep_with_and_without_checkpoints() {
    let g = graph_from(41, 160, 18);
    let a = LdgPartitioner::new(8).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let supersteps = reference.merge.supersteps;
    assert!(supersteps >= 3, "the matrix needs at least 3 supersteps, got {supersteps}");
    for kill_worker in 0..2 {
        for kill_superstep in 0..supersteps {
            for checkpointed in [true, false] {
                let tag = format!(
                    "kill worker {kill_worker} at superstep {kill_superstep}, checkpoints: {checkpointed}"
                );
                let ckpt = checkpointed.then(|| scratch_dir("matrix"));
                let mut backend = BspBackend::with_engine(BspConfig::with_workers(2))
                    .with_transport(Arc::new(MemTransport))
                    .fault_policy(fast_policy())
                    .with_fault_plan(FaultPlan::kill_at(kill_worker, kill_superstep));
                if let Some(dir) = &ckpt {
                    backend = backend.checkpoint_dir(dir);
                }
                let run = distributed_run(&g, &a, &config, backend);
                assert_same_run(&reference, &run);
                let recovery = run.merge.engine.as_ref().unwrap().recovery;
                assert_eq!(recovery.restarts, 1, "{tag}");
                if checkpointed && kill_superstep >= 1 {
                    assert_eq!(recovery.full_restarts, 0, "{tag}");
                    assert!(recovery.checkpoint_longs_restored > 0, "{tag}");
                } else {
                    assert_eq!(recovery.full_restarts, 1, "{tag}");
                    assert_eq!(recovery.checkpoint_longs_restored, 0, "{tag}");
                }
                if let Some(dir) = &ckpt {
                    assert!(!dir.exists(), "{tag}: the checkpoint directory survived");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Message-level faults: dropped and delayed sends.
// ---------------------------------------------------------------------------

#[test]
fn dropped_start_message_is_recovered_via_heartbeat_timeout() {
    let g = graph_from(31, 90, 10);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let ckpt = scratch_dir("drop-send");
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .checkpoint_dir(&ckpt)
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::drop_send(1)),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
    let engine = run.merge.engine.as_ref().unwrap();
    assert!(
        engine.recovery.heartbeat_misses >= 1 || engine.recovery.restarts >= 1,
        "dropped send went unnoticed: {:?}",
        engine.recovery
    );
    assert!(!ckpt.exists());
}

#[test]
fn delayed_start_message_is_absorbed_without_recovery() {
    // A delay shorter than the heartbeat timeout must be absorbed silently.
    let g = graph_from(8, 70, 8);
    let a = LdgPartitioner::new(3).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::delay_send(1, Duration::from_millis(100))),
    );
    assert_same_run(&reference, &run);
    assert!(!run.merge.engine.as_ref().unwrap().recovery.any_recovery());
}

// ---------------------------------------------------------------------------
// Process workers: real processes, real SIGKILL.
// ---------------------------------------------------------------------------

#[test]
fn process_workers_over_tcp_match_in_process_run() {
    let g = graph_from(17, 100, 12);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(TcpTransport))
            .process_workers(true),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
}

#[test]
fn sigkilled_process_worker_is_respawned_and_restored_bit_identically() {
    let g = graph_from(55, 120, 14);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let ckpt = scratch_dir("sigkill");
    let run = distributed_run(
        &g,
        &a,
        &config,
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(TcpTransport))
            .process_workers(true)
            .checkpoint_dir(&ckpt)
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::kill_at(0, 1)),
    );
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    assert_same_run(&reference, &run);
    let engine = run.merge.engine.as_ref().unwrap();
    assert!(engine.recovery.restarts >= 1, "SIGKILL was not observed");
    assert!(!ckpt.exists());
}

/// With two partitions per worker the level-0 merges stay on their workers,
/// so superstep 1 is fed by kept states alone: nothing in its Start, nothing
/// for the coordinator to re-deliver. Killing a worker there must bring the
/// kept states back — from the checkpoint, or by replaying superstep 0 from
/// the seed — on thread and on process workers alike.
#[test]
fn kill_at_a_superstep_fed_only_by_kept_states_recovers_bit_identically() {
    let g = graph_from(77, 130, 14);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    for (processes, checkpointed) in [(false, true), (false, false), (true, true), (true, false)] {
        let tag = format!("process workers: {processes}, checkpoints: {checkpointed}");
        let ckpt = checkpointed.then(|| scratch_dir("kept-only"));
        let mut backend = BspBackend::with_engine(BspConfig::with_workers(2))
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::kill_at(1, 1));
        backend = if processes {
            backend.with_transport(Arc::new(TcpTransport)).process_workers(true)
        } else {
            backend.with_transport(Arc::new(MemTransport))
        };
        if let Some(dir) = &ckpt {
            backend = backend.checkpoint_dir(dir);
        }
        let run = distributed_run(&g, &a, &config, backend);
        assert!(verify_result(&g, &run.circuit.result).is_ok(), "{tag}");
        assert_same_run(&reference, &run);
        let engine = run.merge.engine.as_ref().unwrap();
        let before = &engine.supersteps[0];
        assert!(before.local_messages > 0, "{tag}: superstep 0 handed nothing over by value");
        assert_eq!(before.remote_messages, 0, "{tag}: superstep 1 was to be fed by kept states only");
        assert!(engine.recovery.restarts >= 1, "{tag}: the kill was not observed");
        if checkpointed {
            assert!(engine.recovery.checkpoint_longs_restored > 0, "{tag}");
            assert_eq!(engine.recovery.full_restarts, 0, "{tag}");
        } else {
            assert!(engine.recovery.full_restarts >= 1, "{tag}");
        }
        if let Some(dir) = &ckpt {
            assert!(!dir.exists(), "{tag}");
        }
    }
}

/// Workers fed from a mapped `.ecsr` hold a reference, not states: a
/// respawned worker and a fully restarted fleet are re-initialised with the
/// same reference and rebuild their own partitions from the file. Killed at
/// superstep 0 and at the superstep fed by kept states alone, with and
/// without checkpoints, the run stays bit-identical and no re-Init falls back
/// to shipping states. At superstep 0 there is no checkpoint to enter, so
/// checkpointed or not the fleet is re-Inited from the seed.
#[test]
fn process_workers_fed_from_a_file_recover_by_reference_bit_identically() {
    let g = graph_from(77, 130, 14);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let reference = reference_run(&g, &a, &config);
    let dir = scratch_dir("file-seed");
    let ecsr = dir.join("graph.ecsr");
    write_csr_file(&g, &ecsr).unwrap();
    let processes = || {
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(TcpTransport))
            .process_workers(true)
            .fault_policy(fast_policy())
    };
    let from_file = |backend: BspBackend| {
        EulerPipeline::builder()
            .source(MmapCsrSource::open(&ecsr).unwrap())
            .assignment(a.clone())
            .config(config.clone())
            .backend(backend)
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let shipped = distributed_run(&g, &a, &config, processes());
    let clean = from_file(processes());
    assert_same_run(&reference, &clean);
    let init_of = |run: &PipelineRun| run.merge.engine.as_ref().unwrap().init_bytes;
    assert!(
        init_of(&clean) < init_of(&shipped),
        "a reference ({} B) is smaller than the states ({} B)",
        init_of(&clean),
        init_of(&shipped)
    );

    for (kill_superstep, checkpointed) in [(0, true), (0, false), (1, true), (1, false)] {
        let tag = format!("kill at superstep {kill_superstep}, checkpoints: {checkpointed}");
        let ckpt = checkpointed.then(|| dir.join(format!("ckpt-{kill_superstep}")));
        let mut backend = processes().with_fault_plan(FaultPlan::kill_at(1, kill_superstep));
        if let Some(ckpt) = &ckpt {
            backend = backend.checkpoint_dir(ckpt);
        }
        let run = from_file(backend);
        assert!(verify_result(&g, &run.circuit.result).is_ok(), "{tag}");
        assert_same_run(&reference, &run);
        let engine = run.merge.engine.as_ref().unwrap();
        assert_eq!(engine.supersteps[0].remote_messages, 0, "{tag}: superstep 1 is fed by kept states only");
        assert!(engine.recovery.restarts >= 1, "{tag}: the kill was not observed");
        if checkpointed && kill_superstep >= 1 {
            assert!(engine.recovery.checkpoint_longs_restored > 0, "{tag}");
            assert_eq!(engine.recovery.full_restarts, 0, "{tag}");
        } else {
            assert_eq!(engine.recovery.checkpoint_longs_restored, 0, "{tag}");
            assert!(engine.recovery.full_restarts >= 1, "{tag}");
        }
        // The dead worker — after a full restart, every worker — was sent
        // its Init again: the same reference, never the states. A clean run
        // with the same checkpoint directory sends the same Init heads.
        let first = match &ckpt {
            Some(ckpt) => init_of(&from_file(processes().checkpoint_dir(ckpt))),
            None => init_of(&clean),
        };
        assert!(
            first < engine.init_bytes && engine.init_bytes <= 2 * first,
            "{tag}: {} Init bytes against {first} of the clean run",
            engine.init_bytes,
        );
        if let Some(ckpt) = &ckpt {
            assert!(!ckpt.exists(), "{tag}");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn process_workers_on_mem_transport_are_rejected_up_front() {
    let g = graph_from(3, 40, 4);
    let a = HashPartitioner::new(2).partition(&g);
    let err = EulerPipeline::builder()
        .graph(&g)
        .assignment(a)
        .config(EulerConfig::default())
        .backend(
            BspBackend::with_engine(BspConfig::with_workers(2))
                .with_transport(Arc::new(MemTransport))
                .process_workers(true),
        )
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("process"), "unexpected error: {msg}");
}

// ---------------------------------------------------------------------------
// Spill-degradation warnings surface in the report.
// ---------------------------------------------------------------------------

#[test]
fn broken_spill_directory_degrades_to_resident_with_a_warning() {
    let g = graph_from(21, 100, 12);
    let a = LdgPartitioner::new(4).partition(&g);
    // Point the spill directory at a path that cannot be a directory: a
    // regular file. Spill writes fail, fragments stay resident, the run
    // still succeeds, and the report says so.
    let blocker = scratch_dir("spill").join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let config = EulerConfig::default()
        .with_fragment_memory_budget(64)
        .with_fragment_spill_directory(blocker.join("spills"));
    let run = EulerPipeline::builder()
        .graph(&g)
        .assignment(a)
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(verify_result(&g, &run.circuit.result).is_ok());
    let report = run.report();
    assert!(report.fragment_stats.spill_errors > 0, "spill never failed");
    assert!(
        report.warnings.iter().any(|w| w.contains("spill")),
        "no spill warning in {:?}",
        report.warnings
    );
    std::fs::remove_dir_all(blocker.parent().unwrap()).ok();
}

// ---------------------------------------------------------------------------
// Property: kill worker k at superstep s, resume, compare bit for bit —
// through both transports.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kill_and_resume_is_bit_identical_on_mem_transport(
        seed in 0u64..400,
        n in 40u64..110,
        extra in 0usize..10,
        parts in 2u32..6,
        kill_worker in 0u32..2,
        kill_superstep in 0u32..2,
        checkpointed in any::<bool>(),
    ) {
        let g = graph_from(seed, n, extra);
        let a = LdgPartitioner::new(parts).partition(&g);
        let config = EulerConfig::default();
        let reference = reference_run(&g, &a, &config);
        // Clamp the kill to a superstep that exists for this tree height.
        let height = reference.merge.supersteps.saturating_sub(1);
        let kill_superstep = kill_superstep.min(height);
        let ckpt = checkpointed.then(|| scratch_dir("prop-mem"));
        let mut backend = BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .fault_policy(fast_policy())
            .with_fault_plan(FaultPlan::kill_at(kill_worker, kill_superstep));
        if let Some(dir) = &ckpt {
            backend = backend.checkpoint_dir(dir);
        }
        let run = distributed_run(&g, &a, &config, backend);
        prop_assert!(verify_result(&g, &run.circuit.result).is_ok());
        assert_same_run(&reference, &run);
        let engine = run.merge.engine.as_ref().unwrap();
        prop_assert!(engine.recovery.restarts >= 1);
        if let Some(dir) = &ckpt {
            prop_assert!(!dir.exists());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn kill_and_resume_is_bit_identical_on_tcp_transport(
        seed in 0u64..400,
        n in 40u64..90,
        parts in 2u32..5,
        kill_worker in 0u32..2,
        kill_superstep in 0u32..2,
    ) {
        let g = graph_from(seed, n, 6);
        let a = LdgPartitioner::new(parts).partition(&g);
        let config = EulerConfig::default();
        let reference = reference_run(&g, &a, &config);
        let height = reference.merge.supersteps.saturating_sub(1);
        let kill_superstep = kill_superstep.min(height);
        let ckpt = scratch_dir("prop-tcp");
        let run = distributed_run(
            &g,
            &a,
            &config,
            BspBackend::with_engine(BspConfig::with_workers(2))
                .with_transport(Arc::new(TcpTransport))
                .checkpoint_dir(&ckpt)
                .fault_policy(fast_policy())
                .with_fault_plan(FaultPlan::kill_at(kill_worker, kill_superstep)),
        );
        prop_assert!(verify_result(&g, &run.circuit.result).is_ok());
        assert_same_run(&reference, &run);
        prop_assert!(run.merge.engine.as_ref().unwrap().recovery.restarts >= 1);
        prop_assert!(!ckpt.exists());
    }
}
