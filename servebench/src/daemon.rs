//! The daemon under test: a `dbcatcher serve` child process, its one
//! client connection, and what `/proc` says about its CPU and memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single wait on the daemon may take before the run fails.
pub const PATIENCE: Duration = Duration::from_secs(60);

/// Daemon flags of one launch.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Path of the `dbcatcher` binary.
    pub binary: PathBuf,
    /// `--shards`.
    pub shards: usize,
    /// `--units`.
    pub units: usize,
    /// `--hierarchy`, with `--scope-out` at this path.
    pub scope_out: Option<PathBuf>,
}

impl Launch {
    fn args(&self) -> Vec<String> {
        let mut args: Vec<String> = ["serve", "--listen", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.push("--shards".into());
        args.push(self.shards.to_string());
        args.push("--units".into());
        args.push(self.units.to_string());
        if let Some(path) = &self.scope_out {
            args.push("--hierarchy".into());
            args.push("--scope-out".into());
            args.push(path.display().to_string());
        }
        args
    }
}

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    /// Client connection.
    pub stream: TcpStream,
    /// When the process was spawned.
    pub spawned: Instant,
    log: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Spawns the daemon, waits for its listen address and connects.
    pub fn spawn(launch: &Launch) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(&launch.binary)
            .args(launch.args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", launch.binary.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (addr_tx, addr_rx) = mpsc::channel();
        let log = std::thread::spawn(move || drain_log(stderr, addr_tx));
        let connected = addr_rx
            .recv_timeout(PATIENCE)
            .map_err(|_| "daemon never reported its listen address".to_string())
            .and_then(|addr| connect(&addr));
        match connected {
            Ok(stream) => Ok(Daemon {
                child: Some(child),
                stream,
                spawned,
                log: Some(log),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let log = log.join().unwrap_or_default();
                Err(format!("{e}; daemon log:\n{log}"))
            }
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// SIGKILLs the daemon, reaps it and returns its log.
    pub fn kill(&mut self) -> String {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.log
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }

    /// Waits for a clean exit (after a `Stop`), killing it past the
    /// deadline. Returns the daemon's log, or an error with the log if it
    /// exited with a failure or had to be killed.
    pub fn wait_exit(&mut self) -> Result<String, String> {
        let Some(child) = self.child.as_mut() else {
            return Err("daemon already reaped".into());
        };
        let deadline = Instant::now() + PATIENCE;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.child = None;
                    let log = self.kill();
                    return if status.success() {
                        Ok(log)
                    } else {
                        Err(format!("daemon exited with {status}; log:\n{log}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let log = self.kill();
                    return Err(format!("daemon did not stop; log:\n{log}"));
                }
            }
        }
    }

    /// Sends raw bytes on the client connection.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send to daemon: {e}"))
    }

    /// Daemon peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Forwards the listen address from the daemon's first log line, then
/// keeps draining the log so the daemon never blocks on stderr.
fn drain_log(stderr: ChildStderr, addr_tx: mpsc::Sender<String>) -> String {
    let mut log = String::new();
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let mut addr_tx = Some(addr_tx);
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.split("listening on ").nth(1) {
            if let (Some(tx), Some(addr)) = (addr_tx.take(), rest.split_whitespace().next()) {
                let _ = tx.send(addr.to_string());
            }
        }
        log.push_str(&line);
        line.clear();
    }
    log
}

/// CPU seconds process `pid` has run so far, summed over its live
/// threads from `/proc/<pid>/task/*/schedstat` (the scheduler's
/// nanosecond accounting; the tick-sampled `utime`/`stime` of
/// `/proc/<pid>/stat` would add several percent of sampling noise to a
/// ten-second window). A thread that exits drops out of the sum, so only
/// two readings between which the daemon starts and ends no threads are
/// comparable — true of the timed phase, which opens no connections.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))?;
    let mut nanos = 0u64;
    for task in tasks {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between listing and reading; it no longer
        // counts either way.
        let Ok(stat) = std::fs::read_to_string(&path) else {
            continue;
        };
        nanos += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed {}", path.display()))?;
    }
    Ok(nanos as f64 / 1e9)
}

/// Machine-wide `(total, steal)` CPU jiffies from `/proc/stat`: how much
/// CPU time the hypervisor gave to other guests while this one wanted it.
pub fn machine_cpu() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Ok((fields.iter().sum(), fields.get(7).copied().unwrap_or(0)))
}

/// Everything the daemon sent on one connection, with arrival stamps.
///
/// Reads append whole chunks; each chunk is stamped when its `read`
/// returned, and a line takes the stamp of the chunk that completed it.
/// Lines are only classified by prefix while reading (to count the
/// barrier replies); decoding happens after the run.
#[derive(Debug)]
pub struct Inbox {
    /// Raw bytes received.
    pub bytes: Vec<u8>,
    /// `(end offset, arrival)` of every chunk read.
    pub chunks: Vec<(usize, Instant)>,
    scanned: usize,
    /// `HelloAck` lines seen.
    pub hello_acks: usize,
    /// `FlushAck` lines seen.
    pub flush_acks: usize,
    /// `Stats` lines seen.
    pub stats: usize,
}

impl Inbox {
    /// An empty inbox with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Inbox {
            bytes: Vec::with_capacity(capacity),
            chunks: Vec::new(),
            scanned: 0,
            hello_acks: 0,
            flush_acks: 0,
            stats: 0,
        }
    }

    /// Reads from `stream` until `done(self)` holds.
    pub fn read_until(
        &mut self,
        stream: &mut TcpStream,
        done: impl Fn(&Inbox) -> bool,
    ) -> Result<(), String> {
        let mut chunk = vec![0u8; 1 << 16];
        while !done(self) {
            let n = match stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => n,
                Err(e) => return Err(format!("read from daemon: {e}")),
            };
            let arrived = Instant::now();
            self.bytes.extend_from_slice(&chunk[..n]);
            self.chunks.push((self.bytes.len(), arrived));
            self.scan();
        }
        Ok(())
    }

    fn scan(&mut self) {
        while let Some(pos) = self.bytes[self.scanned..].iter().position(|&b| b == b'\n') {
            let line = &self.bytes[self.scanned..self.scanned + pos];
            if line.starts_with(b"{\"HelloAck\"") {
                self.hello_acks += 1;
            } else if line.starts_with(b"{\"FlushAck\"") {
                self.flush_acks += 1;
            } else if line.starts_with(b"{\"Stats\"") {
                self.stats += 1;
            }
            self.scanned += pos + 1;
        }
    }

    /// Every complete line with the arrival of the chunk that ended it.
    pub fn lines(&self) -> Vec<(&[u8], Instant)> {
        let mut out = Vec::new();
        let mut start = 0;
        let mut chunk = 0;
        for (i, &b) in self.bytes.iter().enumerate() {
            if b != b'\n' {
                continue;
            }
            while self.chunks[chunk].0 <= i {
                chunk += 1;
            }
            out.push((&self.bytes[start..i], self.chunks[chunk].1));
            start = i + 1;
        }
        out
    }
}
