//! Spawning and reaping real `ic-prio` processes.

use std::io::{self, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ic_sim::json::{self, Json};

use crate::procfs;

/// How one workload starts its server.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub family: &'static str,
    pub batch: u64,
    pub expect: usize,
    pub lease_ms: Option<u64>,
    /// Serve with `--trace` (the `FileSink` write-ahead log) or without
    /// (`NullSink`).
    pub wal: bool,
}

/// Where the trace goes.
pub enum TraceMode<'a> {
    Off,
    Create(&'a Path),
    ResumeFrom(&'a Path),
}

/// A running `ic-prio serve`.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    pub spawned_at: Instant,
    pub listening_at: Instant,
}

/// What a reaped server left behind.
pub struct Exit {
    pub ok: bool,
    pub exited_at: Instant,
    /// Time the process spent on a CPU, set-up included, in seconds.
    pub cpu_s: f64,
    /// The `data` object of its `--json` report (`Null` if it printed none).
    pub report: Json,
}

impl ServerProc {
    /// Spawn `ic-prio serve` and wait (spinning, like everything else
    /// here) until its port file is complete.
    pub fn spawn(
        bin: &Path,
        spec: &ServeSpec,
        seed: u64,
        trace: TraceMode<'_>,
        port_file: &Path,
    ) -> io::Result<ServerProc> {
        let _ = std::fs::remove_file(port_file);
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--family", spec.family, "--policy", "optimal"])
            .args(["--listen", "127.0.0.1:0"])
            .args(["--batch", &spec.batch.to_string()])
            .args(["--expect", &spec.expect.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--port-file")
            .arg(port_file)
            .arg("--json");
        if let Some(ms) = spec.lease_ms {
            cmd.args(["--lease-ms", &ms.to_string()]);
        }
        match trace {
            TraceMode::Off => {}
            TraceMode::Create(p) => {
                cmd.arg("--trace").arg(p);
            }
            TraceMode::ResumeFrom(p) => {
                cmd.arg("--resume-from").arg(p);
            }
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        let spawned_at = Instant::now();
        let mut child = cmd.spawn()?;
        let deadline = spawned_at + Duration::from_secs(60);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if let Some(line) = text.strip_suffix('\n') {
                    break line
                        .parse::<SocketAddr>()
                        .map_err(|e| io::Error::other(format!("port file {line:?}: {e}")))?;
                }
            }
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "ic-prio serve exited before listening: {status}"
                )));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("ic-prio serve never wrote its port file"));
            }
            // Sleeping, not spinning: the child starts on this core, and a
            // spinning parent would make it wait for a scheduler slice.
            std::thread::sleep(Duration::from_micros(50));
        };
        Ok(ServerProc {
            child,
            addr,
            spawned_at,
            listening_at: Instant::now(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL` the server; returns the instant the signal was sent.
    pub fn kill(&mut self) -> io::Result<Instant> {
        let at = Instant::now();
        self.child.kill()?;
        Ok(at)
    }

    /// Spin until the process has exited, take its CPU time, reap it,
    /// and read its report. A server still running after `patience` is
    /// killed (and `ok` is false).
    pub fn reap(mut self, patience: Duration) -> io::Result<Exit> {
        let pid = self.child.id();
        let deadline = Instant::now() + patience;
        let mut timed_out = false;
        while !procfs::is_zombie(pid) {
            if !timed_out && Instant::now() > deadline {
                timed_out = true;
                self.child.kill()?;
            }
        }
        let exited_at = Instant::now();
        // A zombie keeps its scheduler statistics until it is reaped:
        // exact nanoseconds, where `utime + stime` come in 10 ms ticks
        // sampled at the timer interrupt, which under-counts a server
        // that wakes by timer 8 000 times a second.
        let cpu_s = procfs::on_cpu_s(pid).unwrap_or(0.0);
        let status = self.child.wait()?;
        let mut out = String::new();
        if let Some(mut pipe) = self.child.stdout.take() {
            pipe.read_to_string(&mut out)?;
        }
        let report = out
            .lines()
            .last()
            .and_then(|l| json::parse(l).ok())
            .and_then(|v| v.get("data").cloned())
            .unwrap_or(Json::Null);
        Ok(Exit {
            ok: !timed_out && status.success(),
            exited_at,
            cpu_s,
            report,
        })
    }
}

/// Outcome of `ic-prio audit --schedule <trace> --json`.
pub struct Audit {
    pub ok: bool,
    pub events: u64,
    pub wall: Duration,
}

/// Audit a finished trace with the real CLI.
pub fn audit(bin: &Path, trace: &Path) -> io::Result<Audit> {
    let t0 = Instant::now();
    let out = Command::new(bin)
        .args(["audit", "--schedule"])
        .arg(trace)
        .arg("--json")
        .stdin(Stdio::null())
        .output()?;
    let wall = t0.elapsed();
    let text = String::from_utf8_lossy(&out.stdout);
    let v = text.lines().last().and_then(|l| json::parse(l).ok());
    let ok = out.status.success()
        && v.as_ref()
            .and_then(|v| v.get("ok"))
            .is_some_and(|ok| matches!(ok, Json::Bool(true)));
    let events = v
        .as_ref()
        .and_then(|v| v.get("data"))
        .and_then(|d| d.get("events"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Ok(Audit { ok, events, wall })
}

/// The `ic-prio` binary: `$IC_PRIO`, else next to this executable
/// (both are built into one target directory by `run.sh`).
pub fn ic_prio_path() -> io::Result<PathBuf> {
    if let Some(p) = std::env::var_os("IC_PRIO") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name("ic-prio");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!(
            "{} not found: build it with bench/run.sh or set IC_PRIO",
            path.display()
        )))
    }
}

impl Drop for ServerProc {
    /// A benchmark that fails half-way must not leave a server behind:
    /// kill whatever was not reaped (a no-op on a reaped child).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
