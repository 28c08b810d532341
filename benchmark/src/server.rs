//! The server under test: a real `cxu serve` child process.
//!
//! Standard output goes to a file that is polled for the readiness
//! line (`cxu-serve listening on ADDR`), so waiting for readiness needs
//! no reader thread and the child can never block on a full pipe.

use cxu::gen::json::Json;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How long a server may take to announce readiness.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a graceful drain may take before the run fails.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

pub struct ServerProc {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
    /// Spawn → readiness line, seconds.
    pub ready_s: f64,
    /// The `cxu-serve recovered {…}` report (durable stores only).
    pub recovered: Option<Json>,
    stderr_path: PathBuf,
}

impl ServerProc {
    /// Spawns `cxu serve --addr 127.0.0.1:0 <args>` and waits for it to
    /// listen. `tag` names the log files under `out`.
    pub fn spawn(cxu: &Path, args: &[String], out: &Path, tag: &str) -> Result<ServerProc, String> {
        let stdout_path = out.join(format!("{tag}.stdout"));
        let stderr_path = out.join(format!("{tag}.stderr"));
        let stdout =
            File::create(&stdout_path).map_err(|e| format!("{}: {e}", stdout_path.display()))?;
        let stderr =
            File::create(&stderr_path).map_err(|e| format!("{}: {e}", stderr_path.display()))?;
        let t0 = Instant::now();
        let child = Command::new(cxu)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cxu.display()))?;
        let pid = child.id();
        let mut server = ServerProc {
            child: Some(child),
            addr: String::new(),
            pid,
            ready_s: 0.0,
            recovered: None,
            stderr_path,
        };
        loop {
            let text = std::fs::read_to_string(&stdout_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("cxu-serve listening on "))
            {
                server.ready_s = t0.elapsed().as_secs_f64();
                server.addr = addr.trim().to_owned();
                server.recovered = text
                    .lines()
                    .find_map(|l| l.strip_prefix("cxu-serve recovered "))
                    .and_then(|j| Json::parse(j).ok());
                return Ok(server);
            }
            if let Some(status) = server.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "server exited before ready ({status}): {}",
                    server.stderr_tail()
                ));
            }
            if t0.elapsed() > READY_TIMEOUT {
                server.kill();
                return Err(format!("server not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("server child is present until stopped")
    }

    fn stderr_tail(&self) -> String {
        let s = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        s.lines().rev().take(5).collect::<Vec<_>>().join(" | ")
    }

    /// CPU seconds the server has run so far ([`cpu_seconds_of`]).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds_of(self.pid)
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn rss_hwm_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("read /proc/{}/status: {e}", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }

    /// Graceful stop: SIGTERM, then wait for the drain. A drain that
    /// outlives [`DRAIN_TIMEOUT`] is killed and reported as an error —
    /// an undrainable server fails the measurement instead of hanging it.
    pub fn stop(mut self) -> Result<(), String> {
        // SAFETY: `kill` has no memory-safety preconditions; the pid is
        // our own child, which has not been reaped (we still own it).
        unsafe {
            kill(self.pid as i32, SIGTERM);
        }
        let t0 = Instant::now();
        loop {
            match self.child_mut().try_wait() {
                Ok(Some(status)) => {
                    self.child = None;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status} after SIGTERM"))
                    };
                }
                Ok(None) if t0.elapsed() < DRAIN_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    self.kill();
                    return Err(format!(
                        "server did not drain within {DRAIN_TIMEOUT:?}; killed"
                    ));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// CPU seconds process `pid` has run so far: the sum of its threads'
/// run times in `/proc/<pid>/task/*/schedstat`, which count nanoseconds
/// (`stat`'s utime and stime count 10 ms ticks, too coarse for the
/// one-second slices CPU per request is taken over). The server's
/// threads live as long as it does, so no run time is lost to exits.
pub fn cpu_seconds_of(pid: u32) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut ns = 0u64;
    for task in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread that exits between the listing and the read is skipped.
        let Ok(stat) = std::fs::read_to_string(&path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed {}", path.display()))?;
    }
    Ok(ns as f64 / 1e9)
}

/// A parsed `metrics` route snapshot: counters, gauges, and histogram
/// (count, sum) pairs.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub hists: BTreeMap<String, (u64, u64)>,
}

impl Metrics {
    pub fn from_response(v: &Json) -> Result<Metrics, String> {
        let m = v
            .get("metrics")
            .ok_or("metrics response has no 'metrics'")?;
        let mut out = Metrics::default();
        if let Some(Json::Obj(cs)) = m.get("counters") {
            for (k, v) in cs {
                out.counters.insert(k.clone(), v.as_u64().unwrap_or(0));
            }
        }
        if let Some(Json::Obj(gs)) = m.get("gauges") {
            for (k, v) in gs {
                out.gauges
                    .insert(k.clone(), v.as_f64().unwrap_or(0.0) as i64);
            }
        }
        if let Some(Json::Obj(hs)) = m.get("histograms") {
            for (k, h) in hs {
                let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
                let sum = h.get("sum").and_then(Json::as_u64).unwrap_or(0);
                out.hists.insert(k.clone(), (count, sum));
            }
        }
        Ok(out)
    }

    /// Counter and histogram deltas `self − earlier`; gauges keep the
    /// later level.
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.c(k))))
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, &(n, s))| {
                    let (n0, s0) = earlier.hists.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (n.saturating_sub(n0), s.saturating_sub(s0)))
                })
                .collect(),
        }
    }

    /// Adds another delta: counters and histograms sum, gauges take
    /// the later level.
    pub fn add(&mut self, later: &Metrics) {
        for (k, v) in &later.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, &(n, s)) in &later.hists {
            let h = self.hists.entry(k.clone()).or_default();
            h.0 += n;
            h.1 += s;
        }
        self.gauges = later.gauges.clone();
    }

    pub fn c(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix` and ends
    /// with `suffix` (the per-shard `serve.shard.<i>.*` family).
    pub fn c_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    }

    pub fn g(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram sample count.
    pub fn n(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.0)
    }

    /// Histogram mean in microseconds (histograms record nanoseconds).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(n, s)) if n > 0 => s as f64 / n as f64 / 1000.0,
            _ => 0.0,
        }
    }
}
