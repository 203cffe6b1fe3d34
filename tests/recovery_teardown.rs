//! A recovery leaves nothing running once its run is gone.
//!
//! One test in a binary of its own: it counts the threads of this process,
//! and tests sharing a binary share that count.
//!
//! The run kills a thread worker at superstep 1 with a checkpoint directory
//! beneath a regular file, so every checkpoint write fails and the recovery
//! that tries the checkpoints ends in a replay from the seed. Each dead
//! worker is respawned once; every worker thread, heartbeat thread and
//! coordinator receiver is gone shortly after the run is dropped.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use euler_circuit::algo::verify::verify_result;
use euler_circuit::prelude::*;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// The thread count once it has settled: two reads 50 ms apart agree, or
/// 2 s have passed. A thread a finished run is still tearing down is not
/// counted as one that is always there.
fn settled_threads() -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut last = threads();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = threads();
        if now == last || std::time::Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

#[test]
fn a_refused_rollback_respawns_once_and_leaves_no_thread_behind() {
    let g = synthetic::random_eulerian_connected(140, 16, 5, 123);
    let a = LdgPartitioner::new(4).partition(&g);
    let config = EulerConfig::default();
    let run = |backend: Option<BspBackend>| {
        let builder = EulerPipeline::builder().graph(&g).assignment(a.clone()).config(config.clone());
        match backend {
            Some(backend) => builder.backend(backend),
            None => builder.backend(InProcessBackend::new()),
        }
        .build()
        .unwrap()
        .run()
        .unwrap()
    };
    let reference = run(None);

    let dir = std::env::temp_dir().join(format!("euler-teardown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();

    let before = settled_threads();
    let killed = run(Some(
        BspBackend::with_engine(BspConfig::with_workers(2))
            .with_transport(Arc::new(MemTransport))
            .checkpoint_dir(blocker.join("ckpt"))
            .fault_policy(
                FaultPolicy::default()
                    .with_heartbeat_interval(Duration::from_millis(20))
                    .with_heartbeat_timeout(Duration::from_millis(400)),
            )
            .with_fault_plan(FaultPlan::kill_at(1, 1)),
    ));
    assert!(verify_result(&g, &killed.circuit.result).is_ok());
    assert_eq!(killed.circuit.result.circuits, reference.circuit.result.circuits);
    let recovery = killed.merge.engine.as_ref().unwrap().recovery;
    assert_eq!((recovery.restarts, recovery.full_restarts), (1, 1), "{recovery:?}");
    drop(killed);

    std::thread::sleep(Duration::from_millis(1500));
    assert_eq!(threads(), before, "threads outlived the run");
    std::fs::remove_dir_all(dir).ok();
}
