//! The worker-process half of distributed pipeline runs.
//!
//! A coordinator (`BspBackend::with_transport(..).process_workers(true)`)
//! spawns one of these per engine slot:
//!
//! ```text
//! euler-worker --endpoint tcp:127.0.0.1:41234 --worker-id 3
//! ```
//!
//! The process connects back to the coordinator's listener, completes the
//! Hello/Init/Ready handshake, and serves supersteps until shut down (or
//! killed — the coordinator respawns it and restores the last superstep
//! checkpoint). All protocol logic lives in `euler_core::distributed`; this
//! binary is argument parsing around [`euler_core::worker_main`].

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: euler-worker --endpoint <tcp:HOST:PORT> --worker-id <N>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut endpoint: Option<String> = None;
    let mut worker_id: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--endpoint" => endpoint = args.next(),
            "--worker-id" => worker_id = args.next().and_then(|v| v.parse().ok()),
            _ => return usage(),
        }
    }
    let (Some(endpoint), Some(worker_id)) = (endpoint, worker_id) else {
        return usage();
    };
    match euler_core::worker_main(&endpoint, worker_id) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("euler-worker {worker_id}: {e}");
            ExitCode::FAILURE
        }
    }
}
