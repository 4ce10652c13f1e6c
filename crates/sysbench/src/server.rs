//! The `stonne-serve` child process, driven as a black box: CLI flags
//! in, stderr banner and HTTP out. The guard kills and reaps the child
//! on every exit path, panics included.

use crate::http::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads the server runs with: the benchmark's stated load is
/// one closed-loop client against two workers.
pub const WORKERS: usize = 2;

/// How long a freshly spawned server may take to print its banner and
/// answer `/healthz`.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `stonne-serve` child.
#[derive(Debug)]
pub struct ServerGuard {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerGuard {
    /// Spawns `bin --addr 127.0.0.1:0 --workers 2` on `store` (or
    /// `--no-store`), parses the ephemeral port from the stderr banner
    /// and waits until `/healthz` answers.
    ///
    /// # Errors
    ///
    /// Returns a message when the binary cannot be started or does not
    /// come up within the startup timeout.
    pub fn spawn(bin: &Path, store: Option<&Path>) -> Result<Self, String> {
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()]);
        match store {
            Some(dir) => command.arg("--store").arg(dir),
            None => command.arg("--no-store"),
        };
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        // The server logs to stderr for its whole life; a reader thread
        // keeps the pipe drained (a full pipe would block the server)
        // and hands the banner's address back.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = parse_banner(&line) {
                    if let Some(tx) = tx.take() {
                        tx.send(addr).ok();
                    }
                }
            }
        });
        let mut guard = ServerGuard {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        guard.addr = rx
            .recv_timeout(STARTUP_TIMEOUT)
            .map_err(|_| format!("{} printed no listening banner", bin.display()))?;
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            match guard.client().request("GET", "/healthz", "") {
                Ok(r) if r.status == 200 => return Ok(guard),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Ok(r) => return Err(format!("/healthz answered HTTP {}", r.status)),
                Err(e) => return Err(format!("/healthz: {e}")),
            }
        }
    }

    /// A client for this server.
    pub fn client(&self) -> Client {
        Client::new(self.addr)
    }

    /// Peak resident set size of the server so far (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        proc_status_kb(&self.child.id().to_string(), "VmHWM:")
    }

    /// Current resident set size of the server (`VmRSS`), in KiB.
    pub fn rss_kb(&self) -> u64 {
        proc_status_kb(&self.child.id().to_string(), "VmRSS:")
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(reader) = self.stderr.take() {
            reader.join().ok();
        }
    }
}

/// Extracts the address from `stonne-serve listening on http://ADDR (…)`.
fn parse_banner(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on http://").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// A `kB` field of `/proc/<pid>/status` (`pid` may be `self`); 0 where
/// the platform hides it.
pub fn proc_status_kb(pid: &str, field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_yields_the_ephemeral_address() {
        let line =
            "stonne-serve listening on http://127.0.0.1:43117 (2 workers, code v0.1.0-c280ddff)";
        assert_eq!(
            parse_banner(line),
            Some(SocketAddr::from(([127, 0, 0, 1], 43117)))
        );
        assert_eq!(
            parse_banner("store: /tmp/x (0 entries, fingerprint f)"),
            None
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn own_rss_is_readable() {
        assert!(proc_status_kb("self", "VmHWM:") > 0);
        assert_eq!(proc_status_kb("self", "NoSuchField:"), 0);
    }

    #[test]
    fn a_missing_binary_is_an_error() {
        assert!(ServerGuard::spawn(Path::new("/nonexistent/stonne-serve"), None).is_err());
    }

    #[test]
    fn a_binary_without_a_banner_is_reaped_not_waited_on() {
        // `true` exits at once: stderr hits EOF, the banner never comes,
        // the sender drops, and spawn fails fast instead of timing out.
        let start = Instant::now();
        assert!(ServerGuard::spawn(Path::new("true"), None).is_err());
        assert!(start.elapsed() < STARTUP_TIMEOUT);
    }
}
