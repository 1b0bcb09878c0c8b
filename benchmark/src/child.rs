//! Driving the real program from outside: building `inferray-cli`, running
//! it as a child process in batch and serve mode, reading its peak memory
//! from `/proc`, and making sure no child and no scratch file outlives the
//! benchmark on any exit path (every handle here cleans up in `Drop`).

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Connection;

/// The target directory this benchmark binary was built into
/// (`<target>/<profile>/benchmark`). The CLI is built into the same one, so
/// the two are siblings and scratch files stay inside the build tree.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Builds `inferray-cli` (release profile) from the repository the
/// benchmark is run in and returns its path. A no-op when it is fresh.
pub fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("src/bin/inferray-cli.rs").is_file() {
        return Err(
            "run the benchmark from the repository root: src/bin/inferray-cli.rs is not here"
                .to_owned(),
        );
    }
    let target = target_dir()?;
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "inferray-cli",
        ])
        .arg("--target-dir")
        .arg(&target)
        // Cargo's own messages go to our stderr; stdout stays the report's.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building inferray-cli failed ({status})"));
    }
    let cli = target.join("release").join("inferray-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!("{} was not produced by the build", cli.display()))
    }
}

/// A scratch directory under the target directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let path = target_dir()?
            .join("bench-work")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size (`VmHWM`) of a live process in kB; `None` once
/// the process is gone.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What one batch run of the CLI did.
pub struct BatchRun {
    pub wall: Duration,
    pub success: bool,
    /// The `N written` count of the CLI's summary line.
    pub written: Option<u64>,
    pub peak_rss_kb: u64,
    pub stderr: String,
}

/// Order-independent digest of a set of lines: their count and the wrapping
/// sum of one FNV-1a hash per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineDigest {
    pub lines: u64,
    pub sum: u64,
}

impl LineDigest {
    pub fn add(&mut self, line: &[u8]) {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in line {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.lines += 1;
        self.sum = self.sum.wrapping_add(hash);
    }
}

/// Runs `inferray-cli --fragment F DOC` to completion. Timed runs discard
/// stdout (`/dev/null`, as a user piping nowhere would); with `digest` the
/// output is read back and digested instead — the untimed verification run.
pub fn run_batch(
    cli: &Path,
    fragment: &str,
    document: &Path,
    digest: Option<&mut LineDigest>,
) -> Result<BatchRun, String> {
    let start = Instant::now();
    let mut child = KillOnDrop(
        Command::new(cli)
            .args(["--fragment", fragment])
            .arg(document)
            .stdin(Stdio::null())
            .stdout(if digest.is_some() {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?,
    );
    let pid = child.0.id();
    let mut stderr_pipe = child.0.stderr.take().expect("stderr was piped");
    let stdout_pipe = child.0.stdout.take();
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let mut stderr = String::new();
    let mut finished = None;
    std::thread::scope(|scope| {
        // The child exits right after its peak; poll while it lives.
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = peak_rss_kb(pid) {
                    peak.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let errors = scope.spawn(|| {
            let mut text = String::new();
            let _ = stderr_pipe.read_to_string(&mut text);
            text
        });
        if let (Some(pipe), Some(digest)) = (stdout_pipe, digest) {
            let mut reader = BufReader::with_capacity(1 << 20, pipe);
            let mut line = Vec::new();
            while reader.read_until(b'\n', &mut line).is_ok_and(|n| n > 0) {
                digest.add(line.strip_suffix(b"\n").unwrap_or(&line));
                line.clear();
            }
        }
        // EOF on stderr means the child closed it: it has exited or is
        // about to. The clock stops at the reap, before the poller is joined.
        stderr = errors.join().unwrap_or_default();
        finished = Some((child.0.wait(), start.elapsed()));
        done.store(true, Ordering::Relaxed);
    });
    let (status, wall) = finished.expect("set in the scope above");
    let status = status.map_err(|e| format!("wait failed: {e}"))?;
    let written = stderr
        .split(" written")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok());
    Ok(BatchRun {
        wall,
        success: status.success(),
        written,
        peak_rss_kb: peak.load(Ordering::Relaxed),
        stderr,
    })
}

/// Runs the CLI with `args` to completion, discarding stdout; `Err` carries
/// its stderr. For untimed helpers such as `inferray-cli snapshot`.
pub fn run_to_completion(cli: &Path, args: &[&str]) -> Result<(), String> {
    let output = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "inferray-cli {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    }
}

struct KillOnDrop(Child);

impl KillOnDrop {
    /// SIGKILL, then reap. Harmless on a child that already exited.
    fn stop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running `inferray-cli serve` child. Dropping it SIGKILLs the process
/// and waits for it — which is also how the workloads crash it on purpose.
pub struct Server {
    child: KillOnDrop,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn → first `200` from `GET /status`.
    pub startup: Duration,
}

impl Server {
    /// Spawns `inferray-cli serve --port 0 --threads T ARGS…` and waits
    /// until `/status` answers. The address is read from the stderr banner.
    pub fn spawn(cli: &Path, threads: usize, args: &[&str]) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = KillOnDrop(
            Command::new(cli)
                .args(["serve", "--port", "0", "--threads", &threads.to_string()])
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?,
        );
        let pipe = child.0.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel::<Result<SocketAddr, String>>();
        // Keeps reading after the banner so the child never blocks on a
        // full pipe; ends at EOF, i.e. when the child dies.
        let drain = std::thread::spawn(move || {
            let mut seen = String::new();
            let mut announced = false;
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if announced {
                    continue;
                }
                if let Some(addr) = banner_address(&line) {
                    announced = true;
                    let _ = tx.send(Ok(addr));
                } else {
                    seen.push_str(&line);
                    seen.push('\n');
                }
            }
            if !announced {
                let _ = tx.send(Err(format!(
                    "server exited before listening: {}",
                    seen.trim()
                )));
            }
        });
        // From here on, an early return drops `server`: child killed and
        // reaped, drain thread joined.
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            startup: Duration::ZERO,
        };
        server.addr = match rx.recv_timeout(Duration::from_secs(150)) {
            Ok(Ok(addr)) => addr,
            Ok(Err(message)) => return Err(message),
            Err(_) => return Err("server did not announce an address in 150 s".to_owned()),
        };
        let mut conn = Connection::open(server.addr).map_err(|e| format!("cannot connect: {e}"))?;
        let status = conn
            .get("/status")
            .map_err(|e| format!("GET /status failed: {e}"))?
            .status;
        if status != 200 {
            return Err(format!("GET /status answered {status}"));
        }
        server.startup = start.elapsed();
        Ok(server)
    }

    pub fn peak_rss_kb(&self) -> u64 {
        peak_rss_kb(self.child.0.id()).unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.stop();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// `inferray: serving SPARQL on http://127.0.0.1:41873/sparql (…)`.
fn banner_address(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("serving SPARQL on http://")?.1;
    rest.split_once("/sparql")?.0.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_address_off_the_banner() {
        let line = "inferray: serving SPARQL on http://127.0.0.1:41873/sparql \
                    (2 worker threads, epoch 0, updates on, durability off)";
        assert_eq!(
            banner_address(line),
            Some("127.0.0.1:41873".parse().unwrap())
        );
        assert_eq!(
            banner_address("inferray: try  curl 'http://127.0.0.1:1/status'"),
            None
        );
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let mut a = LineDigest::default();
        let mut b = LineDigest::default();
        for line in ["<a> <b> <c> .", "<d> <e> <f> .", "<g> <h> <i> ."] {
            a.add(line.as_bytes());
        }
        for line in ["<g> <h> <i> .", "<a> <b> <c> .", "<d> <e> <f> ."] {
            b.add(line.as_bytes());
        }
        assert_eq!(a, b);
        let mut c = LineDigest::default();
        for line in ["<a> <b> <c> .", "<d> <e> <f> .", "<g> <h> <x> ."] {
            c.add(line.as_bytes());
        }
        assert_ne!(a, c);
        assert_eq!(a.lines, 3);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_kb(std::process::id()).is_some_and(|kb| kb > 0));
        assert_eq!(peak_rss_kb(u32::MAX), None);
    }
}
