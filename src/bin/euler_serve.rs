//! The long-lived Euler circuit server.
//!
//! ```text
//! euler-serve [--cap-longs N] [--workers N] [--fragment-budget-longs N]
//! ```
//!
//! `--workers` is how many cache-miss runs compute at once; every client
//! connection has its own handler thread, and an idle one costs no slot.
//!
//! Binds a loopback TCP listener, prints the endpoint on stdout (the line a
//! supervisor or script parses to hand clients), and serves the
//! `euler_core::service` frame protocol — register `.ecsr` graphs by
//! content checksum, run circuits concurrently under the global memory cap,
//! stream the steps back — until stdin reaches EOF (the conventional
//! "parent went away" signal for a supervised child).
//!
//! All protocol and scheduling logic lives in `euler_core::service`; this
//! binary is argument parsing around [`euler_core::EulerService`].

use euler_core::{EulerService, ServiceConfig};
use std::io::Read;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: euler-serve [--cap-longs <N>] [--workers <runs computing at once>] \
         [--fragment-budget-longs <N>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next();
        match arg.as_str() {
            "--cap-longs" => match value.and_then(|v| v.parse().ok()) {
                Some(v) => config.memory_cap_longs = v,
                None => return usage(),
            },
            "--workers" => match value.and_then(|v| v.parse().ok()) {
                Some(v) => config.workers = v,
                None => return usage(),
            },
            "--fragment-budget-longs" => match value.and_then(|v| v.parse().ok()) {
                Some(v) => config.fragment_budget_longs = v,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let service = match EulerService::bind(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("euler-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", service.endpoint());
    // Serve until the parent closes our stdin.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    let stats = service.stats();
    service.shutdown();
    eprintln!(
        "euler-serve: {} run(s) executed, {} cached, {} cancelled, peak {} of {} Longs admitted",
        stats.runs_executed, stats.runs_cached, stats.runs_cancelled, stats.peak_admitted_longs, stats.memory_cap_longs
    );
    ExitCode::SUCCESS
}
