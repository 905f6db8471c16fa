//! Runs without `--workload`: every workload in a child process of its
//! own, so peak memory is per workload and no heap state carries from one
//! workload into the next.
//!
//! - One pass (the default) runs each workload untraced and traced and
//!   prints every metric; `--results <path>` also writes them, with the
//!   host metadata and the per-program rows, as the committed baseline.
//! - `--sets <n> --runs <r>` runs `n` independent sets of `r` untraced
//!   runs per workload, each run on its own seed, and writes to
//!   `--repeat <path>` each end-to-end metric's per-set median and
//!   quartiles, its spread (interquartile range over median) and how far
//!   the medians of the sets moved, each against the metric's bound from
//!   `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use oha_obs::Json;

use crate::stats::{median, quartiles};
use crate::sys::WorkDir;
use crate::{Args, WORKLOADS};

/// One child run's result line and, when asked for, its `--json` report.
struct Child {
    line: Json,
    report: Option<Json>,
}

fn run_child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    report: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(path) = report {
        command.arg("--json").arg(path);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .filter(|_| output.status.success());
    match line {
        Some(line) => Ok(Child {
            line,
            report: report
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|text| Json::parse(&text).ok()),
        }),
        None => Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}\n{}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_metrics(workload: &str, line: &Json) {
    for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        println!(
            "{workload:<14} {name:<28} {:>16.6} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    oha_bench::write_json_report(path, &(json.to_string_pretty() + "\n"))
}

pub fn main(args: &Args) -> i32 {
    let outcome = if args.sets > 0 {
        repeat(args)
    } else {
        one_pass(args)
    };
    match outcome {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            1
        }
    }
}

/// The paper's Table 1 (OptFT) and Table 2 (OptSlice) columns, rebuilt
/// from the traced cold rows, with lock-elision validation in a column of
/// its own instead of folded into profiling.
const TABLE_COLUMNS: &[(&str, &str)] = &[
    ("program", "program"),
    ("total_ms", "cold run (ms)"),
    ("profile_ms", "profile (ms)"),
    ("profile_runs", "profile runs"),
    ("elide_ms", "elide (ms)"),
    ("static_sound_ms", "trad static (ms)"),
    ("static_pred_ms", "opt static (ms)"),
    ("dynamic_ms", "dynamic (ms)"),
    ("break_even_hybrid_s", "break-even vs hybrid (s)"),
    ("break_even_trad_s", "break-even vs trad (s)"),
    ("misspec_rate", "misspec rate"),
];

fn print_table(title: &str, rows: &[Json]) {
    let columns: Vec<&(&str, &str)> = TABLE_COLUMNS
        .iter()
        .filter(|(key, _)| rows.iter().any(|r| r.get(key).is_some()))
        .collect();
    println!("\n{title}\n");
    println!(
        "| {} |",
        columns.iter().map(|c| c.1).collect::<Vec<_>>().join(" | ")
    );
    println!("|{}", "---|".repeat(columns.len()));
    for row in rows {
        let cells: Vec<String> = columns
            .iter()
            .map(|(key, _)| match row.get(key) {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) if *key == "profile_runs" => format!("{n:.0}"),
                Some(Json::Num(n)) if key.ends_with("_s") || *key == "misspec_rate" => {
                    format!("{n:.3}")
                }
                Some(Json::Num(n)) => format!("{n:.2}"),
                _ => "–".to_string(),
            })
            .collect();
        println!("| {} |", cells.join(" | "));
    }
}

fn one_pass(args: &Args) -> Result<(), String> {
    let work = WorkDir::create("orchestrate").map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for &workload in WORKLOADS {
        let mut entry = vec![("name".to_string(), Json::str(workload))];
        for trace in [false, true] {
            let report_path = work
                .path()
                .join(format!("{workload}-{}.json", u8::from(trace)));
            let child = run_child(args, workload, args.seed, trace, Some(&report_path))?;
            print_metrics(workload, &child.line);
            let kind = if trace { "per_layer" } else { "end_to_end" };
            entry.push((kind.to_string(), child.line));
            let rows = child
                .report
                .and_then(|r| r.get("rows").cloned())
                .unwrap_or(Json::Arr(Vec::new()));
            if trace && workload.starts_with("cold-") {
                print_table(
                    &format!("{workload}: cold-run breakdown per program (medians)"),
                    rows.as_arr().unwrap_or(&[]),
                );
            }
            entry.push((format!("{kind}_rows"), rows));
        }
        entries.push(Json::Obj(entry));
    }
    if let Some(path) = &args.results {
        let results = Json::Obj(vec![
            ("host".into(), oha_bench::host_json()),
            ("seed".into(), Json::num(args.seed as f64)),
            ("seconds".into(), Json::num(args.seconds)),
            ("workloads".into(), Json::Arr(entries)),
        ]);
        write(path, &results)?;
        eprintln!("bench_e2e: wrote {}", path.display());
    }
    Ok(())
}

/// `(bound, better)` of each end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, String)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("bound")?.as_f64()?,
                    m.get("better")?.as_str()?.to_string(),
                ),
            ))
        })
        .collect())
}

fn repeat(args: &Args) -> Result<(), String> {
    let bounds = bounds(&args.benchmark)?;
    // values[workload][metric][set] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut seeds: Vec<Vec<u64>> = Vec::new();
    for set in 0..args.sets {
        seeds.push(Vec::new());
        for run in 0..args.runs {
            let seed = 1 + (set * args.runs + run) as u64;
            seeds[set].push(seed);
            // Workloads interleave within a run, so slow drift in the
            // host's load spreads over all of them alike.
            for &workload in WORKLOADS {
                let child = run_child(args, workload, seed, false, None)?;
                eprintln!("bench_e2e: set {set} run {run} {workload} seed {seed} done");
                for name in bounds.keys() {
                    let value = metric_value(&child.line, name)
                        .ok_or_else(|| format!("{workload}: no metric {name}"))?;
                    let per_set = values
                        .entry(workload)
                        .or_default()
                        .entry(name.clone())
                        .or_insert_with(|| vec![Vec::new(); args.sets]);
                    per_set[set].push(value);
                }
            }
        }
    }

    let mut all_spreads_within_bound = true;
    let mut all_spreads_within_third = true;
    let mut all_medians_agree = true;
    let mut workloads = Vec::new();
    for (workload, metrics) in &values {
        let mut rows = Vec::new();
        for (name, per_set) in metrics {
            let (bound, better) = &bounds[name];
            let mut sets = Vec::new();
            let mut medians = Vec::new();
            let mut worst_spread: f64 = 0.0;
            for (set, v) in per_set.iter().enumerate() {
                let med = median(v);
                let (q1, q3) = quartiles(v);
                let spread = (q3 - q1) / med;
                worst_spread = worst_spread.max(spread);
                medians.push(med);
                sets.push(Json::Obj(vec![
                    (
                        "seeds".into(),
                        Json::Arr(seeds[set].iter().map(|&s| Json::num(s as f64)).collect()),
                    ),
                    (
                        "values".into(),
                        Json::Arr(v.iter().map(|&x| Json::num(x)).collect()),
                    ),
                    ("median".into(), Json::num(med)),
                    ("q1".into(), Json::num(q1)),
                    ("q3".into(), Json::num(q3)),
                    ("spread".into(), Json::num(spread)),
                ]));
            }
            // How much worse the later sets' medians read than the first.
            let worse_by = medians[1..]
                .iter()
                .map(|m| {
                    let change = (m - medians[0]) / medians[0];
                    if better == "lower" {
                        change
                    } else {
                        -change
                    }
                })
                .fold(0.0f64, f64::max);
            // Either set may be the parent's: the change must stay within
            // the bound in both directions.
            let change_abs = medians[1..]
                .iter()
                .map(|m| ((m - medians[0]) / medians[0]).abs())
                .fold(0.0f64, f64::max);
            let spread_checked = name != "setup_s";
            let spread_ok = !spread_checked || worst_spread <= *bound;
            let third_ok = !spread_checked || worst_spread <= bound / 3.0;
            let medians_ok = change_abs <= *bound;
            all_spreads_within_bound &= spread_ok;
            all_spreads_within_third &= third_ok;
            all_medians_agree &= medians_ok;
            println!(
                "{workload:<14} {name:<18} spread {:>6.2}% (bound {:>4.0}%) median change {:>+6.2}% {}",
                worst_spread * 100.0,
                bound * 100.0,
                change_abs * 100.0,
                if spread_ok && medians_ok { "ok" } else { "OUT OF BOUND" }
            );
            rows.push(Json::Obj(vec![
                ("name".into(), Json::str(name.as_str())),
                ("bound".into(), Json::num(*bound)),
                ("better".into(), Json::str(better.as_str())),
                ("sets".into(), Json::Arr(sets)),
                ("spread_max".into(), Json::num(worst_spread)),
                ("spread_checked".into(), Json::Bool(spread_checked)),
                ("spread_within_bound".into(), Json::Bool(spread_ok)),
                ("spread_within_third_of_bound".into(), Json::Bool(third_ok)),
                ("median_worse_by".into(), Json::num(worse_by)),
                ("median_change_abs".into(), Json::num(change_abs)),
                ("medians_within_bound".into(), Json::Bool(medians_ok)),
            ]));
        }
        workloads.push(Json::Obj(vec![
            ("name".into(), Json::str(*workload)),
            ("metrics".into(), Json::Arr(rows)),
        ]));
    }
    let report = Json::Obj(vec![
        ("host".into(), oha_bench::host_json()),
        ("seconds".into(), Json::num(args.seconds)),
        ("sets".into(), Json::num(args.sets as f64)),
        ("runs_per_set".into(), Json::num(args.runs as f64)),
        (
            "verdict".into(),
            Json::Obj(vec![
                (
                    "spreads_within_bound".into(),
                    Json::Bool(all_spreads_within_bound),
                ),
                (
                    "spreads_within_third_of_bound".into(),
                    Json::Bool(all_spreads_within_third),
                ),
                ("medians_within_bound".into(), Json::Bool(all_medians_agree)),
            ]),
        ),
        ("workloads".into(), Json::Arr(workloads)),
    ]);
    if let Some(path) = &args.repeat {
        write(path, &report)?;
        eprintln!("bench_e2e: wrote {}", path.display());
    }
    if all_spreads_within_bound && all_medians_agree {
        Ok(())
    } else {
        Err("some metric is out of its bound (see above)".into())
    }
}
