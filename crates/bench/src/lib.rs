//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each `src/bin/figN_*.rs` / `src/bin/tableN_*.rs` binary reproduces one
//! table or figure; see DESIGN.md's experiment index. This library holds
//! the pieces they share: suite configuration, duration formatting,
//! plain-text table rendering, and the `--json <path>` report plumbing
//! ([`Reporter`]) that turns each binary's output into a machine-readable
//! [`RunReport`].

use std::path::{Path, PathBuf};
use std::time::Duration;

use oha_core::{Pipeline, PipelineConfig};
use oha_interp::MachineConfig;
use oha_obs::{Json, RunReport, TableArtifact, TraceLog, DEFAULT_TRACE_CAPACITY};
use oha_par::Pool;
use oha_workloads::{Workload, WorkloadParams};

/// Whether the `OHA_SMOKE` environment variable selects the small
/// CI-smoke workload scale (any non-empty value other than `0`).
pub fn smoke_mode() -> bool {
    std::env::var("OHA_SMOKE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The workload scale used by every figure/table binary: the benchmark
/// scale, or the sub-second unit-test scale under `OHA_SMOKE` (the CI
/// bench-smoke stage in `ci.sh`).
pub fn params() -> WorkloadParams {
    if smoke_mode() {
        WorkloadParams::small()
    } else {
        WorkloadParams::benchmark()
    }
}

/// Host metadata recorded in every benchmark artifact, collected once
/// here so the bench binaries and the `scripts/bench_*.sh` aggregators
/// can never disagree: the thread budget
/// [`std::thread::available_parallelism`] actually reports (the
/// process's affinity mask, not the machine's raw core count), the
/// OS/architecture pair, and the cargo profile this binary was built
/// with — a `debug`-profile timing artifact is a bug worth catching.
pub fn host_meta() -> Vec<(&'static str, String)> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        (
            "available_parallelism",
            oha_par::hardware_threads().to_string(),
        ),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
        ("cargo_profile", profile.to_string()),
    ]
}

/// [`host_meta`] as the `"host"` object benchmark artifacts embed.
/// `available_parallelism` stays numeric; the rest are strings.
pub fn host_json() -> Json {
    Json::Obj(
        host_meta()
            .into_iter()
            .map(|(key, value)| {
                let json = match value.parse::<f64>() {
                    Ok(n) if key == "available_parallelism" => Json::num(n),
                    _ => Json::str(value),
                };
                (key.to_string(), json)
            })
            .collect(),
    )
}

/// The pipeline configuration used by the OptFT experiments.
pub fn optft_config() -> PipelineConfig {
    PipelineConfig {
        machine: MachineConfig::default(),
        ..PipelineConfig::default()
    }
}

/// The pipeline configuration used by the OptSlice experiments.
///
/// The context budget models the paper's fixed memory/time limit: analyses
/// whose clone count exceeds it "fail to complete" and fall back to the
/// context-insensitive variant. It is sized between the predicated and
/// sound context-space sizes of the `vim`/`nginx`-class benchmarks (see
/// `probe_contexts`).
pub fn optslice_config() -> PipelineConfig {
    PipelineConfig {
        machine: MachineConfig::default(),
        ctx_budget: optslice_ctx_budget(),
        ..PipelineConfig::default()
    }
}

/// `config` on a one-thread pool: every phase of a run, its dynamic
/// executions included, runs on the run's own thread. The figure and
/// table binaries compare per-run phase durations across runs and tools;
/// executions of one run sharing the host with each other would skew
/// those durations. The binaries still fan workloads out over the
/// `OHA_THREADS` pool ([`Reporter::run_workloads_parallel`]).
pub fn one_thread(config: PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        threads: 1,
        ..config
    }
}

/// The OptSlice context budget (kept visible for the probe binary).
///
/// Calibrated by `probe_contexts`: sound CS analyses of nginx/redis/perl/
/// vim/go materialize 750–4200 contexts, their predicated counterparts
/// 5–280 — except `go`, whose realized context space (~380) is nearly as
/// wide as its static one, so even the predicated analysis falls back to
/// CI (Table 2's go row).
pub fn optslice_ctx_budget() -> u32 {
    320
}

/// Builds a [`Pipeline`] for a workload with the given config.
pub fn pipeline(w: &oha_workloads::Workload, config: PipelineConfig) -> Pipeline {
    Pipeline::new(w.program.clone()).with_config(config)
}

/// Builds a [`Pipeline`] that records into `trace` (a no-op when the log
/// is disabled), minting a fresh trace ID so each workload's spans form
/// their own causally-linked tree in the exported file.
pub fn traced_pipeline(
    w: &oha_workloads::Workload,
    config: PipelineConfig,
    trace: &TraceLog,
) -> Pipeline {
    let mut p = pipeline(w, config);
    if trace.is_enabled() {
        p = p.with_trace(trace.clone());
        p.metrics().begin_trace();
    }
    p
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Formats an optional break-even time (`None` = the paper's "–").
pub fn fmt_break_even(t: Option<f64>) -> String {
    match t {
        None => "–".to_string(),
        Some(t) if t <= 0.0 => "0s".to_string(),
        Some(t) => format!("{t:.2}s"),
    }
}

/// Renders rows as a fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(ncols) {
            widths[c] = widths[c].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            for _ in cell.chars().count()..widths[c] {
                line.push(' ');
            }
        }
        line.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Command-line options shared by every figure/table binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// Destination for the machine-readable run report (`--json <path>`).
    pub json: Option<PathBuf>,
    /// Destination for the Chrome trace-event export (`--trace-out <path>`).
    pub trace_out: Option<PathBuf>,
}

/// Parses the shared options from an explicit argument list. Accepts
/// `--json <path>`/`--json=<path>` and `--trace-out <path>`/
/// `--trace-out=<path>`; anything else is ignored so the binaries keep
/// working under external harnesses that add flags.
pub fn parse_args_from(args: impl IntoIterator<Item = String>) -> BenchArgs {
    let mut parsed = BenchArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        for (flag, slot) in [
            ("--json", &mut parsed.json),
            ("--trace-out", &mut parsed.trace_out),
        ] {
            if arg == flag {
                match it.next() {
                    Some(path) => *slot = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("{flag} requires a path argument");
                        std::process::exit(2);
                    }
                }
            } else if let Some(path) = arg.strip_prefix(&format!("{flag}=")) {
                *slot = Some(PathBuf::from(path));
            }
        }
    }
    parsed
}

/// Parses the shared options from the process arguments.
pub fn bench_args() -> BenchArgs {
    parse_args_from(std::env::args().skip(1))
}

/// Collects one binary's output — tables, metadata, per-workload child
/// reports — and writes it as stable JSON when `--json` was given.
///
/// Typical shape: create one per `main`, call [`Reporter::table`] instead
/// of a bare [`render_table`] (it both records the table artifact and
/// returns the rendered text), attach each workload's
/// [`RunReport`] via [`Reporter::child`], and end with
/// [`Reporter::finish`].
#[derive(Debug)]
pub struct Reporter {
    report: RunReport,
    json: Option<PathBuf>,
    trace: TraceLog,
    trace_out: Option<PathBuf>,
}

impl Reporter {
    /// A reporter named after the experiment, honoring the process's
    /// `--json` and `--trace-out` flags.
    pub fn new(name: &str) -> Self {
        Self::with_args(name, &bench_args())
    }

    /// A reporter with explicit options (for tests).
    pub fn with_args(name: &str, args: &BenchArgs) -> Self {
        // $OHA_TRACE sizes the ring; --trace-out alone also turns
        // tracing on so the flag is sufficient by itself.
        let mut trace = TraceLog::from_env();
        if args.trace_out.is_some() && !trace.is_enabled() {
            trace = TraceLog::enabled(DEFAULT_TRACE_CAPACITY);
        }
        let mut report = RunReport::new(name);
        // Every artifact self-describes the machine it ran on.
        for (key, value) in host_meta() {
            report.meta.insert(format!("host.{key}"), value);
        }
        Self {
            report,
            json: args.json.clone(),
            trace,
            trace_out: args.trace_out.clone(),
        }
    }

    /// The event log experiment pipelines should record into (disabled —
    /// and free — unless `--trace-out` or `$OHA_TRACE` asked for it).
    /// Pass it to [`traced_pipeline`].
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Records a metadata key/value pair.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.report.meta.insert(key.to_string(), value.to_string());
    }

    /// Fans the per-workload experiment out over the `OHA_THREADS`-sized
    /// pool. `run` executes once per workload on a worker thread and
    /// returns the workload's child [`RunReport`] plus whatever payload
    /// the caller needs for its table rows; children are attached and
    /// `(workload, payload)` pairs returned **in suite order** regardless
    /// of completion order, so the rendered table and the `--json`
    /// artifact are byte-identical to a serial run (timings aside).
    pub fn run_workloads_parallel<R, F>(
        &mut self,
        workloads: Vec<Workload>,
        run: F,
    ) -> Vec<(Workload, R)>
    where
        R: Send,
        F: Fn(&Workload) -> (RunReport, R) + Sync,
    {
        let results = Pool::from_env().par_map(&workloads, run);
        workloads
            .into_iter()
            .zip(results)
            .map(|(w, (report, payload))| {
                self.child(w.name, report);
                (w, payload)
            })
            .collect()
    }

    /// Records a table artifact and returns its plain-text rendering.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
        self.report.tables.push(TableArtifact {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows.to_vec(),
        });
        render_table(headers, rows)
    }

    /// Attaches a per-workload child report (phase spans, counters, …),
    /// renamed to the workload for a stable lookup key.
    pub fn child(&mut self, name: &str, mut child: RunReport) {
        child.name = name.to_string();
        self.report.children.push(child);
    }

    /// The report built so far.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Writes the JSON artifact if `--json` was given, creating missing
    /// parent directories. A path that still cannot be written is a
    /// clear diagnostic and exit code 1, never a panic.
    pub fn finish(self) {
        if let Some(path) = self.json {
            if let Err(message) = write_json_report(&path, &self.report.to_json_string()) {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
            eprintln!("wrote JSON report to {}", path.display());
        }
        if let Some(path) = self.trace_out {
            if let Err(e) = self.trace.write_chrome_json(&path) {
                eprintln!("error: cannot write trace {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "wrote Chrome trace ({} events, {} dropped) to {}",
                self.trace.events().len(),
                self.trace.dropped(),
                path.display()
            );
        }
    }
}

/// Writes a `--json` artifact, creating missing parent directories.
/// Shared by [`Reporter::finish`] and the non-`Reporter` binaries so
/// every `--json` flag behaves identically.
///
/// # Errors
///
/// Returns a human-readable message naming the path and the failing
/// step (directory creation vs. file write).
pub fn write_json_report(path: &Path, json: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create report directory {} for {}: {e}",
                    parent.display(),
                    path.display()
                )
            })?;
        }
    }
    std::fs::write(path, json)
        .map_err(|e| format!("cannot write JSON report {}: {e}", path.display()))
}

/// Mean of an iterator of f64 (0.0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_dur(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_dur(Duration::from_micros(7)), "7µs");
        assert_eq!(fmt_break_even(None), "–");
        assert_eq!(fmt_break_even(Some(0.0)), "0s");
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn break_even_formats_positive_times() {
        assert_eq!(fmt_break_even(Some(1.5)), "1.50s");
        assert_eq!(fmt_break_even(Some(-3.0)), "0s");
    }

    #[test]
    fn json_flag_parses_in_both_spellings() {
        let args = |v: &[&str]| parse_args_from(v.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]).json, None);
        assert_eq!(
            args(&["--json", "out.json"]).json,
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            args(&["--json=x/y.json"]).json,
            Some(PathBuf::from("x/y.json"))
        );
        assert_eq!(args(&["--bench", "--verbose"]).json, None);
        assert_eq!(
            args(&["--trace-out", "t.json"]).trace_out,
            Some(PathBuf::from("t.json"))
        );
        assert_eq!(
            args(&["--trace-out=t.json", "--json", "r.json"]),
            BenchArgs {
                json: Some(PathBuf::from("r.json")),
                trace_out: Some(PathBuf::from("t.json")),
            }
        );
    }

    #[test]
    fn trace_out_enables_the_reporters_trace_log() {
        let env_traced = std::env::var(oha_obs::TRACE_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
        let off = Reporter::with_args("t", &BenchArgs::default());
        if !env_traced {
            assert!(!off.trace().is_enabled(), "tracing is opt-in");
        }
        let args = BenchArgs {
            trace_out: Some(PathBuf::from("t.json")),
            ..BenchArgs::default()
        };
        let on = Reporter::with_args("t", &args);
        assert!(on.trace().is_enabled(), "--trace-out alone enables tracing");
    }

    #[test]
    fn parallel_workloads_keep_suite_order() {
        use oha_workloads::c_suite;
        let params = WorkloadParams::small();
        let names: Vec<&str> = c_suite::all(&params).iter().map(|w| w.name).collect();
        let mut rep = Reporter::with_args("t", &BenchArgs::default());
        let results = rep.run_workloads_parallel(c_suite::all(&params), |w| {
            (RunReport::new("child"), w.name.to_string())
        });
        assert_eq!(
            results.iter().map(|(w, _)| w.name).collect::<Vec<_>>(),
            names,
            "workload order must match the suite"
        );
        assert_eq!(
            results.iter().map(|(_, p)| p.as_str()).collect::<Vec<_>>(),
            names,
            "payloads must stay aligned with their workloads"
        );
        assert_eq!(
            rep.report()
                .children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            names,
            "child report order must match the suite"
        );
    }

    #[test]
    fn host_meta_names_the_machine_and_profile() {
        let meta = host_meta();
        let get = |key: &str| {
            meta.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("host_meta missing {key}"))
        };
        assert!(get("available_parallelism").parse::<usize>().unwrap() >= 1);
        assert_eq!(get("os"), std::env::consts::OS);
        assert_eq!(get("arch"), std::env::consts::ARCH);
        // Tests build with debug assertions in every profile this repo's
        // CI uses, so pin only the value set, not the value.
        assert!(["debug", "release"].contains(&get("cargo_profile").as_str()));

        let json = host_json();
        assert_eq!(
            json.get("available_parallelism").and_then(Json::as_u64),
            Some(get("available_parallelism").parse().unwrap()),
            "parallelism must stay numeric in the JSON form"
        );
        assert_eq!(
            json.get("os").and_then(Json::as_str),
            Some(std::env::consts::OS)
        );
        // The object round-trips through the parser.
        assert_eq!(Json::parse(&json.to_string_compact()).unwrap(), json);
    }

    #[test]
    fn reporter_records_host_meta_automatically() {
        let rep = Reporter::with_args("t", &BenchArgs::default());
        for (key, value) in host_meta() {
            assert_eq!(
                rep.report().meta.get(&format!("host.{key}")),
                Some(&value),
                "reporter must carry host.{key}"
            );
        }
    }

    #[test]
    fn json_reports_create_missing_parent_dirs() {
        let root = std::env::temp_dir().join(format!("oha-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nested = root.join("a/b/report.json");
        write_json_report(&nested, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "{}");
        // A path whose parent is an existing *file* cannot be created:
        // the error names the path instead of panicking.
        let blocked = nested.join("under-a-file.json");
        let message = write_json_report(&blocked, "{}").unwrap_err();
        assert!(message.contains("under-a-file.json"), "{message}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reporter_accumulates_tables_and_children() {
        let mut rep = Reporter::with_args("fig0", &BenchArgs::default());
        rep.meta("suite", "test");
        let text = rep.table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(text.starts_with("a"));
        rep.child("w1", RunReport::new("inner"));
        let r = rep.report();
        assert_eq!(r.name, "fig0");
        assert_eq!(r.meta["suite"], "test");
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.children[0].name, "w1");
        // The artifact round-trips through the stable JSON form.
        let json = r.to_json_string();
        assert_eq!(&RunReport::from_json_str(&json).unwrap(), r);
    }
}
