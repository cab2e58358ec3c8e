//! Server child processes: spawning this binary in a server role, reading
//! its CPU time and peak RSS from `/proc/<pid>`, and stopping it.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// A server running in its own process. It serves until its stdin
/// closes, so it also stops if the benchmark dies.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The address the server listens on.
    pub addr: String,
}

impl ServerProc {
    /// Spawns this executable with `args` (a `--child` role); returns once
    /// the child has printed `ready <addr>`.
    pub fn spawn(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut proc = Self {
            child,
            stdin,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read server banner: {e}"))?;
        match line.trim().strip_prefix("ready ") {
            Some(addr) => proc.addr = addr.to_string(),
            None => return Err(format!("server failed to start (banner {:?})", line.trim())),
        }
        Ok(proc)
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system, all threads) the process has used.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(self.pid()).unwrap_or(f64::NAN)
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_kb(self.pid()).map_or(f64::NAN, |kb| kb as f64 / 1024.0)
    }

    /// Closes the child's stdin (its stop signal) and waits for it to
    /// exit, killing it if it has not within ten seconds.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => return,
                Ok(None) if Instant::now() >= deadline => break,
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Kernel clock ticks per second (`getconf CLK_TCK`; 100 on Linux when
/// `getconf` is unavailable).
pub fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// utime + stime of `pid`, in seconds, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks())
}

/// VmHWM of `pid` in KiB, from `/proc/<pid>/status`.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
