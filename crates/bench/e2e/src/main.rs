//! `bench_e2e`: the end-to-end, layer-attributed benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--json <path>] [--trace-out <path>]
//! bench_e2e [--sets <n> --runs <n>] [--seed <n>] [--seconds <s>] [--smoke]
//!           [--results <path>] [--repeat <path>] [--benchmark <path>]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its result: `correct`, `attempted`, `failed` and
//! the metrics by name with their units — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Without it, every
//! workload runs in a child process of its own (see `orchestrate`).
//! Workloads and metrics are listed in `BENCHMARK.json` and
//! `crates/bench/e2e/README.md`.
//!
//! The fleet the serve workloads drive runs this executable in two more
//! modes: `router …` (`oha-router`) and `--socket …` (`oha-serve`, the
//! command line the router's supervisor launches workers with).

mod cold;
mod fleet;
mod orchestrate;
mod report;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::exit;

use oha_obs::{Json, TraceLog, DEFAULT_TRACE_CAPACITY};

use crate::cold::Tool;
use crate::report::{RunResult, END_TO_END, PER_LAYER};
use crate::serve::Mix;

/// The workloads, in the order a full pass runs them.
pub const WORKLOADS: &[&str] = &["cold-optft", "cold-optslice", "serve-warm", "serve-repeat"];

const USAGE: &str = "usage: bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--smoke] [--json <path>] [--trace-out <path>]
       bench_e2e [--sets <n> --runs <n>] [--seed <n>] [--seconds <s>] [--smoke] \
[--results <path>] [--repeat <path>] [--benchmark <path>]
workloads: cold-optft, cold-optslice, serve-warm, serve-repeat";

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub json: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub sets: usize,
    pub runs: usize,
    pub results: Option<PathBuf>,
    pub repeat: Option<PathBuf>,
    pub benchmark: PathBuf,
}

fn usage_error(message: &str) -> ! {
    eprintln!("bench_e2e: {message}\n{USAGE}");
    exit(2);
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        json: None,
        trace_out: None,
        sets: 0,
        runs: 10,
        results: None,
        repeat: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage_error(&format!("{flag} needs a value"));
        };
        let number = |what: &str| -> f64 {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .unwrap_or_else(|| usage_error(&format!("{what}: bad value {value:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    usage_error(&format!("unknown workload {value:?}"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed: bad value {value:?}")))
            }
            "--seconds" => args.seconds = number("--seconds"),
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => usage_error("--trace takes 0 or 1"),
            },
            "--json" => args.json = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--sets" => args.sets = number("--sets") as usize,
            "--runs" => args.runs = number("--runs").max(1.0) as usize,
            "--results" => args.results = Some(PathBuf::from(value)),
            "--repeat" => args.repeat = Some(PathBuf::from(value)),
            "--benchmark" => args.benchmark = PathBuf::from(value),
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke { 2.0 } else { 20.0 };
    }
    args
}

/// Refuses to run with any `OHA_*` variable set: fault injection, the
/// reference dynamic path, solver cutoffs or thread overrides would
/// silently change what is measured.
fn refuse_oha_environment() {
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("OHA_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "bench_e2e: refusing to run with {} set: OHA_* variables change what is measured",
            set.join(", ")
        );
        exit(2);
    }
}

fn run_workload(name: &str, args: &Args, log: &TraceLog) -> std::io::Result<RunResult> {
    let (seed, secs, smoke) = (args.seed, args.seconds, args.smoke);
    match (name, args.trace) {
        ("cold-optft", false) => cold::run(Tool::OptFt, seed, secs, smoke),
        ("cold-optft", true) => cold::layers(Tool::OptFt, seed, secs, smoke, log),
        ("cold-optslice", false) => cold::run(Tool::OptSlice, seed, secs, smoke),
        ("cold-optslice", true) => cold::layers(Tool::OptSlice, seed, secs, smoke, log),
        ("serve-warm", false) => serve::run(Mix::Warm, seed, secs, smoke),
        ("serve-warm", true) => serve::layers(Mix::Warm, seed, secs, smoke, log),
        ("serve-repeat", false) => serve::run(Mix::Repeat, seed, secs, smoke),
        ("serve-repeat", true) => serve::layers(Mix::Repeat, seed, secs, smoke, log),
        _ => unreachable!("workload names are validated while parsing"),
    }
}

fn workload_main(name: &str, args: &Args) -> ! {
    let log = if args.trace {
        TraceLog::enabled(DEFAULT_TRACE_CAPACITY)
    } else {
        TraceLog::disabled()
    };
    let result = match run_workload(name, args, &log) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("bench_e2e: {name}: {e}");
            exit(1);
        }
    };
    for row in &result.rows {
        eprintln!("bench_e2e: {name}: {}", row.to_string_compact());
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result.to_json(catalogue);
    if let Some(path) = &args.json {
        let report = Json::Obj(vec![
            ("workload".into(), Json::str(name)),
            ("seed".into(), Json::num(args.seed as f64)),
            ("seconds".into(), Json::num(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("host".into(), oha_bench::host_json()),
            ("result".into(), line.clone()),
            ("rows".into(), Json::Arr(result.rows.clone())),
        ]);
        if let Err(e) = oha_bench::write_json_report(path, &report.to_string_pretty()) {
            eprintln!("bench_e2e: {e}");
            exit(1);
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = log.write_chrome_json(path) {
            eprintln!("bench_e2e: cannot write trace {}: {e}", path.display());
            exit(1);
        }
    }
    println!("{}", line.to_string_compact());
    exit(if line.get("correct") == Some(&Json::Bool(true)) {
        0
    } else {
        1
    });
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let fleet_mode = match raw.first().map(String::as_str) {
        Some("--socket") => Some(fleet::worker_main(&raw)),
        Some("router") => Some(fleet::router_main(&raw[1..])),
        _ => None,
    };
    if let Some(outcome) = fleet_mode {
        if let Err(e) = outcome {
            eprintln!("bench_e2e fleet process: {e}");
            exit(1);
        }
        return;
    }
    refuse_oha_environment();
    let args = parse_args(&raw);
    match &args.workload {
        Some(name) => workload_main(name, &args),
        None => exit(orchestrate::main(&args)),
    }
}
