//! Process-level plumbing: the scratch directory a run works in, peak
//! resident memory, and bench-side trace spans.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use oha_obs::TraceLog;

/// A run's scratch directory under `.bench_e2e/` in the current directory
/// (relative, so Unix socket paths stay short wherever the checkout
/// lives). Removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(label: &str) -> io::Result<Self> {
        let path = PathBuf::from(".bench_e2e").join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still works there).
        let _ = std::fs::remove_dir(".bench_e2e");
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, or `None`
/// when the process is gone or the kernel does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Total bytes of the regular files under `dir` (0 when it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Bench-side spans: each timed call into a layer is recorded as a
/// `bench/<layer>` span in the run's trace log (a no-op when the log is
/// disabled), under one trace ID per operation.
pub struct Spans {
    pub log: TraceLog,
    tid: u64,
    trace_id: u64,
}

impl Spans {
    pub fn new(log: TraceLog) -> Self {
        let tid = log.alloc_tid();
        Self {
            log,
            tid,
            trace_id: 0,
        }
    }

    /// Starts the trace of a new operation (one analysis or request).
    pub fn next_operation(&mut self) {
        self.trace_id = self.log.next_trace_id();
    }

    /// Runs `f` inside a `bench/<name>` span; returns its result and the
    /// wall time in milliseconds.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span_name = format!("bench/{name}");
        let span = self.log.begin(&span_name, self.trace_id, 0, self.tid);
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.log.end(&span_name, self.trace_id, span, 0, self.tid);
        (out, ms)
    }
}
