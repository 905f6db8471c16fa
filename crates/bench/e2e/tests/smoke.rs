//! Runs `bench_e2e --smoke` on every workload `BENCHMARK.json` names,
//! untraced and traced, and holds the result lines to the benchmark's
//! contract: every listed metric present with its unit, no failed output
//! check, and the layer residual computed.

use std::path::PathBuf;
use std::process::{Command, Output};

use oha_obs::Json;

fn benchmark() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(list: &'a Json, key: &str) -> Vec<&'a Json> {
    list.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .collect()
}

fn bench(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_bench_e2e"));
    command.args(args);
    command
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    Json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let spec = benchmark();
    for workload in names(&spec, "workloads") {
        let workload = workload.get("name").and_then(Json::as_str).expect("named");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = bench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ])
            .output()
            .expect("bench_e2e runs");
            let line = result_line(&output);
            let context = format!("{workload} --trace {trace}");
            assert!(
                output.status.success(),
                "{context}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(
                line.get("failed").and_then(Json::as_u64),
                Some(0),
                "{context}"
            );
            assert!(
                line.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{context}"
            );

            let metrics = line.get("metrics").expect("metrics object");
            let expected = names(&spec, list);
            assert_eq!(
                metrics.as_obj().map(<[_]>::len),
                Some(expected.len()),
                "{context}: exactly the {list} metrics"
            );
            for m in expected {
                let name = m.get("name").and_then(Json::as_str).expect("metric name");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{context}: {name} missing"));
                assert_eq!(got.get("unit"), m.get("unit"), "{context}: {name} unit");
                let value = got
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{context}: {name} = {value}");
                if list == "end_to_end" {
                    assert!(
                        value > 0.0,
                        "{context}: end-to-end {name} must never read 0"
                    );
                }
            }
            if trace == "1" {
                let value = |name: &str| {
                    metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                };
                assert_eq!(value("bench.error_rate"), Some(0.0), "{context}");
                assert!(
                    value("core.total_ms").unwrap_or(0.0) > 0.0,
                    "{context}: residual base"
                );
                assert!(
                    value("core.residual_frac").is_some_and(f64::is_finite),
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn static_layers_are_timed_on_every_cold_row() {
    // The pipeline's own static-phase spans wrap a parallel join and read
    // (near) zero; the traced pass times the analyses from outside.
    for (workload, layers) in [
        (
            "cold-optft",
            ["pointsto.sound_ms", "pointsto.pred_ms", "races.detect_ms"],
        ),
        (
            "cold-optslice",
            ["pointsto.sound_ms", "pointsto.pred_ms", "slicing.slice_ms"],
        ),
    ] {
        let report =
            std::env::temp_dir().join(format!("bench-e2e-{}-{workload}.json", std::process::id()));
        let output = bench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--smoke",
        ])
        .arg("--json")
        .arg(&report)
        .output()
        .expect("bench_e2e runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = result_line(&output);
        for layer in layers {
            let v = line
                .get("metrics")
                .and_then(|m| m.get(layer))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{workload}: {layer} = {v:?}");
        }
        let text = std::fs::read_to_string(&report).expect("--json report written");
        let _ = std::fs::remove_file(&report);
        let rows = Json::parse(&text).expect("report parses");
        let rows = rows
            .get("rows")
            .and_then(Json::as_arr)
            .expect("per-program rows");
        assert!(!rows.is_empty());
        for row in rows {
            for column in ["static_sound_ms", "static_pred_ms"] {
                let v = row.get(column).and_then(Json::as_f64);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{workload}: {column} in {}",
                    row.to_string_compact()
                );
            }
        }
    }
}

#[test]
fn refuses_to_measure_under_oha_variables() {
    let output = bench(&["--workload", "cold-optft", "--seconds", "1", "--smoke"])
        .env("OHA_THREADS", "1")
        .output()
        .expect("bench_e2e runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result line");
}
