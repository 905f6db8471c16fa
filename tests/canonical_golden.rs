//! Golden canonical results for every suite program.
//!
//! One line per (tool, program, workload seed): the tool, the program's
//! name, the seed, the [`Fingerprint::of_bytes`] hex of the outcome's
//! canonical JSON, and a fingerprint of the report's shape — counters
//! with their values, series, meta, span path → count, gauge names and
//! histogram name → count. Timings are left out, so the shape is as
//! deterministic as the canonical JSON.
//!
//! OptFT runs all 21 programs of the Java and C suites, OptSlice the 7 C
//! programs, each at seeds 1 and 16. At `WorkloadParams::small()` the set
//! includes runs that roll back under both tools; at
//! `WorkloadParams::benchmark()` (the `#[ignore]`d test, run in release)
//! only OptSlice rolls back.
//!
//! A changed line is a changed result. On a mismatch the test prints the
//! whole regenerated file, which replaces the committed one once the
//! change is understood and recorded.

use std::fmt::Write as _;

use oha::core::{optft_canonical_json, optslice_canonical_json, Pipeline};
use oha::ir::Fingerprint;
use oha::obs::RunReport;
use oha::workloads::{c_suite, java_suite, WorkloadParams};

const SEEDS: [u64; 2] = [1, 16];

/// Everything in `report` that does not depend on wall-clock time.
fn report_shape(report: &RunReport) -> Fingerprint {
    let mut text = String::new();
    for (name, value) in &report.counters {
        let _ = writeln!(text, "counter {name} {value}");
    }
    for (name, values) in &report.series {
        let _ = writeln!(text, "series {name} {values:?}");
    }
    for (key, value) in &report.meta {
        let _ = writeln!(text, "meta {key} {value}");
    }
    for (path, span) in &report.spans {
        let _ = writeln!(text, "span {path} {}", span.count);
    }
    for name in report.gauges.keys() {
        let _ = writeln!(text, "gauge {name}");
    }
    for (name, hist) in &report.hists {
        let _ = writeln!(text, "hist {name} {}", hist.count());
    }
    Fingerprint::of_bytes(text.as_bytes())
}

/// The golden file's text for `base` at every seed, and how many of its
/// OptFT and OptSlice outcomes rolled back.
fn regenerate(base: WorkloadParams) -> (String, usize, usize) {
    let mut text = String::new();
    let (mut optft_rollbacks, mut optslice_rollbacks) = (0, 0);
    for seed in SEEDS {
        let params = WorkloadParams { seed, ..base };
        let mut java_and_c = java_suite::all(&params);
        java_and_c.extend(c_suite::all(&params));
        for w in &java_and_c {
            let outcome =
                Pipeline::new(w.program.clone()).run_optft(&w.profiling_inputs, &w.testing_inputs);
            optft_rollbacks += usize::from(outcome.runs.iter().any(|r| r.rolled_back));
            let _ = writeln!(
                text,
                "optft {} {seed} {} {}",
                w.name,
                Fingerprint::of_bytes(optft_canonical_json(&outcome).as_bytes()).to_hex(),
                report_shape(&outcome.report).to_hex(),
            );
        }
        for w in &c_suite::all(&params) {
            let outcome = Pipeline::new(w.program.clone()).run_optslice(
                &w.profiling_inputs,
                &w.testing_inputs,
                &w.endpoints,
            );
            optslice_rollbacks += usize::from(outcome.runs.iter().any(|r| r.rolled_back));
            let _ = writeln!(
                text,
                "optslice {} {seed} {} {}",
                w.name,
                Fingerprint::of_bytes(optslice_canonical_json(&outcome).as_bytes()).to_hex(),
                report_shape(&outcome.report).to_hex(),
            );
        }
    }
    (text, optft_rollbacks, optslice_rollbacks)
}

fn check(base: WorkloadParams, file: &str) -> (usize, usize) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let (text, optft_rollbacks, optslice_rollbacks) = regenerate(base);
    assert!(
        text == golden,
        "{path} does not match this build's results; regenerated file:\n{text}"
    );
    (optft_rollbacks, optslice_rollbacks)
}

#[test]
fn small_scale_results_match_the_golden_file() {
    let (optft_rollbacks, optslice_rollbacks) =
        check(WorkloadParams::small(), "canonical_small.txt");
    assert!(optft_rollbacks > 0, "the file must cover OptFT rollbacks");
    assert!(
        optslice_rollbacks > 0,
        "the file must cover OptSlice rollbacks"
    );
}

#[test]
#[ignore = "benchmark scale; run in release: cargo test --release --test canonical_golden -- --ignored"]
fn benchmark_scale_results_match_the_golden_file() {
    let (_, optslice_rollbacks) = check(WorkloadParams::benchmark(), "canonical_benchmark.txt");
    assert!(
        optslice_rollbacks > 0,
        "the file must cover OptSlice rollbacks"
    );
}
