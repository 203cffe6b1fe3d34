//! Processes and files the benchmark owns: the scratch directory, the
//! measuring child, and spawned `euler-serve` servers. Each is a guard whose
//! `Drop` removes or reaps what it stands for, so a failed repetition, an
//! early `?` return and a timeout all clean up the same way.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The directory the benchmark binary was built into — where cargo also puts
/// `euler-worker` and `euler-serve`, and (being inside the checkout) the only
/// place the benchmark writes to.
pub fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the benchmark binary has no parent directory".to_string())
}

/// Path of a sibling program binary, or an error that says how to build it.
pub fn program_bin(name: &str) -> Result<PathBuf, String> {
    let path = bin_dir()?.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "`{name}` not found at {}: run `cargo build --release` at the repository root with the same \
             CARGO_TARGET_DIR as this benchmark (run.sh does both builds)",
            path.display()
        ))
    }
}

/// A scratch directory under the build directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> Result<TempDir, String> {
        let path = bin_dir()?
            .join("bench_e2e.tmp")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no concurrent run has a directory in it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Resets the peak-RSS mark of process `pid` to its current RSS (`5` to
/// `clear_refs`), so the next [`peak_rss_mb`] is the peak since this call.
/// Best effort: where the kernel refuses, readings stay process-wide peaks.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

fn wait_until(child: &mut Child, deadline: Instant) -> Option<std::process::ExitStatus> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => return None,
        }
    }
}

/// Runs `cmd` to completion and returns its standard output. The child gets
/// its own process group; when it outlives `limit` the whole group (the
/// child and any `euler-worker` it spawned) is killed and the call fails.
pub fn run_with_timeout(mut cmd: Command, limit: Duration) -> Result<String, String> {
    use std::os::unix::process::CommandExt;
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cannot spawn the measuring child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = wait_until(&mut child, Instant::now() + limit);
    if status.is_none() {
        // `kill` with a negative pid signals the process group.
        let _ = Command::new("kill")
            .args(["-KILL", "--", &format!("-{}", child.id())])
            .status();
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader.join().map_err(|_| "the stdout reader panicked".to_string())?;
    match status {
        Some(s) if s.success() => Ok(text),
        Some(s) => Err(format!("the measuring child failed ({s})")),
        None => Err(format!("the measuring child hung: killed after {} s", limit.as_secs())),
    }
}

/// A spawned `euler-serve --workers 2`. It serves until its stdin closes;
/// dropping the guard closes stdin, waits briefly, then kills and reaps.
pub struct Server {
    child: Child,
    pub endpoint: String,
    /// Reads the endpoint line; ends at the latest when the child does.
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server with its temp files (fragment spill) under `tmp`
    /// and waits for the endpoint line it prints.
    pub fn spawn(tmp: &Path) -> Result<Server, String> {
        let mut child = Command::new(program_bin("euler-serve")?)
            .args(["--workers", "2"])
            .env("TMPDIR", tmp)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn euler-serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        // From here on the guard reaps the child on every path.
        let mut server = Server {
            child,
            endpoint: String::new(),
            reader: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(line) if !line.trim().is_empty() => {
                server.endpoint = line.trim().to_string();
                Ok(server)
            }
            _ => Err("euler-serve printed no endpoint within 10 s".to_string()),
        }
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        if wait_until(&mut self.child, Instant::now() + Duration::from_secs(5)).is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_that_finishes_hands_back_its_stdout() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo measured"]);
        assert_eq!(
            run_with_timeout(cmd, Duration::from_secs(10)),
            Ok("measured\n".to_string())
        );
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "exit 3"]);
        assert!(run_with_timeout(cmd, Duration::from_secs(10))
            .unwrap_err()
            .contains("failed"));
    }

    #[test]
    fn a_hung_child_is_killed_with_its_process_group_and_reported() {
        // The shell's own child (`sleep`) stands in for an `euler-worker`.
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 30 & echo $!; wait"]);
        let started = Instant::now();
        let err = run_with_timeout(cmd, Duration::from_millis(300)).unwrap_err();
        assert!(err.contains("hung"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the kill must not wait for the child"
        );
    }

    #[test]
    fn peak_rss_of_this_process_is_readable_and_positive() {
        let before = peak_rss_mb(std::process::id()).unwrap();
        assert!(before > 0.0);
        // Resetting the mark can only lower the reading (or leave it).
        reset_peak_rss(std::process::id());
        assert!(peak_rss_mb(std::process::id()).unwrap() <= before);
        assert!(peak_rss_mb(u32::MAX).is_err());
    }
}
