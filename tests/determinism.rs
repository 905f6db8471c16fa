//! Serial vs parallel determinism: the profiling, static and dynamic
//! phases fan out over the `oha-par` pool, and the contract is that
//! thread count is unobservable in every result — same seeds in,
//! byte-identical `InvariantSet`s and counter-identical reports out,
//! whether `OHA_THREADS=1` or N. Only wall-clock span timings may differ.

use std::collections::BTreeMap;

use oha::core::{Pipeline, PipelineConfig};
use oha::obs::RunReport;
use oha::workloads::{c_suite, java_suite, micro, Workload, WorkloadParams};

fn with_threads(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// Both suites at unit-test scale.
fn all_workloads() -> Vec<Workload> {
    let params = WorkloadParams::small();
    java_suite::all(&params)
        .into_iter()
        .chain(c_suite::all(&params))
        .collect()
}

#[test]
fn profile_is_thread_count_invariant() {
    for w in all_workloads() {
        let (base, _) = Pipeline::new(w.program.clone())
            .with_config(with_threads(1))
            .profile(&w.profiling_inputs);
        // 0 = auto (OHA_THREADS env override, then the hardware), so the
        // default path is covered under whatever the harness sets.
        for threads in [2, 4, 0] {
            let (set, _) = Pipeline::new(w.program.clone())
                .with_config(with_threads(threads))
                .profile(&w.profiling_inputs);
            assert_eq!(
                set, base,
                "{}: {threads} threads changed the invariant set",
                w.name
            );
            assert_eq!(
                format!("{set:?}"),
                format!("{base:?}"),
                "{}: {threads} threads changed the set's rendering",
                w.name
            );
        }
    }
}

#[test]
fn profile_until_stable_is_thread_count_invariant() {
    for w in all_workloads() {
        let serial = Pipeline::new(w.program.clone()).with_config(with_threads(1));
        let (base_set, _, base_used) = serial.profile_until_stable(&w.profiling_inputs, 3);
        for threads in [2, 4] {
            let parallel = Pipeline::new(w.program.clone()).with_config(with_threads(threads));
            let (set, _, used) = parallel.profile_until_stable(&w.profiling_inputs, 3);
            assert_eq!(
                set, base_set,
                "{}: {threads} threads changed the stabilized set",
                w.name
            );
            assert_eq!(
                used, base_used,
                "{}: {threads} threads changed the consumed-run count",
                w.name
            );
            // The convergence curve and every absorbed worker counter
            // (profile.hook.*) must match the serial run exactly.
            assert_eq!(
                parallel.metrics().series_values("profile.fact_count"),
                serial.metrics().series_values("profile.fact_count"),
                "{}: {threads} threads changed the fact-count curve",
                w.name
            );
            assert_eq!(
                parallel.metrics().counters(),
                serial.metrics().counters(),
                "{}: {threads} threads changed the counters",
                w.name
            );
        }
    }
}

/// The value-based `profile.run.events` histogram (one sample per
/// profiling input: that run's total event count) is recorded on worker
/// shards and merged in deterministic task order — its buckets, count,
/// sum and extremes must be bit-identical at any thread width. (Timing
/// histograms like `store.load.*_ns` are real wall-clock measurements
/// and are deliberately outside this contract.)
#[test]
fn profile_event_histogram_is_thread_count_invariant() {
    for w in all_workloads() {
        let serial = Pipeline::new(w.program.clone()).with_config(with_threads(1));
        serial.profile(&w.profiling_inputs);
        let base = serial
            .metrics()
            .hist("profile.run.events")
            .expect("profiling records the per-run event histogram");
        assert_eq!(
            base.count(),
            w.profiling_inputs.len() as u64,
            "{}: one sample per profiling input",
            w.name
        );
        for threads in [2, 4] {
            let parallel = Pipeline::new(w.program.clone()).with_config(with_threads(threads));
            parallel.profile(&w.profiling_inputs);
            let hist = parallel.metrics().hist("profile.run.events").unwrap();
            assert_eq!(
                hist, base,
                "{}: {threads} threads changed the event histogram",
                w.name
            );
        }
    }
}

#[test]
fn optft_reports_are_thread_count_invariant() {
    let params = WorkloadParams::small();
    let mut picks = Vec::new();
    picks.push(java_suite::all(&params).swap_remove(0));
    picks.push(c_suite::all(&params).swap_remove(0));
    for w in picks {
        let run = |threads: usize| {
            Pipeline::new(w.program.clone())
                .with_config(with_threads(threads))
                .run_optft(&w.profiling_inputs, &w.testing_inputs)
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.invariants, parallel.invariants, "{}", w.name);
        assert_eq!(
            serial.profiling_runs_used, parallel.profiling_runs_used,
            "{}",
            w.name
        );
        assert_eq!(serial.baseline_races, parallel.baseline_races, "{}", w.name);
        assert_eq!(
            serial.optimistic_races, parallel.optimistic_races,
            "{}",
            w.name
        );
        // Non-timing report content: counters, series and metadata are
        // deterministic; spans and the timing-derived gauges are not.
        assert_eq!(
            serial.report.counters, parallel.report.counters,
            "{}: report counters differ across thread counts",
            w.name
        );
        assert_eq!(serial.report.series, parallel.report.series, "{}", w.name);
        assert_eq!(serial.report.meta, parallel.report.meta, "{}", w.name);
    }
}

#[test]
fn optslice_reports_are_thread_count_invariant() {
    let params = WorkloadParams::small();
    let w = c_suite::all(&params).swap_remove(1);
    let run = |threads: usize| {
        Pipeline::new(w.program.clone())
            .with_config(with_threads(threads))
            .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial.report.counters, parallel.report.counters,
        "{}: report counters differ across thread counts",
        w.name
    );
    assert_eq!(serial.report.series, parallel.report.series, "{}", w.name);
}

/// Entry counts of the dynamic phase's per-configuration spans
/// (`<tool>/dynamic/<config>`).
fn dynamic_span_counts(report: &RunReport) -> BTreeMap<String, u64> {
    report
        .spans
        .iter()
        .filter(|(path, _)| path.contains("/dynamic/"))
        .map(|(path, s)| (path.clone(), s.count))
        .collect()
}

/// Everything deterministic in a report — counters (the speculative
/// `*.spec.hook.*` dispatch counts and `*.rollback.cause.*` included),
/// series, metadata and the dynamic span counts — must not move with the
/// width, on runs that roll back.
fn assert_width_invariant(name: &str, run: impl Fn(usize) -> RunReport, cause_prefix: &str) {
    let base = run(1);
    assert!(
        base.counters
            .iter()
            .any(|(k, &v)| k.starts_with(cause_prefix) && v > 0),
        "{name}: the sweep must cover a rollback"
    );
    assert!(
        !dynamic_span_counts(&base).is_empty(),
        "{name}: no dynamic spans"
    );
    for threads in [2, 3, 8] {
        let report = run(threads);
        assert_eq!(
            report.counters, base.counters,
            "{name}: {threads} threads changed the report counters"
        );
        assert_eq!(report.series, base.series, "{name}: {threads} threads");
        assert_eq!(report.meta, base.meta, "{name}: {threads} threads");
        assert_eq!(
            dynamic_span_counts(&report),
            dynamic_span_counts(&base),
            "{name}: {threads} threads changed the dynamic span counts"
        );
    }
}

#[test]
fn dynamic_phase_reports_are_thread_count_invariant_on_runs_that_roll_back() {
    let w = micro::cold_path_race();
    assert_width_invariant(
        w.name,
        |threads| {
            Pipeline::new(w.program.clone())
                .with_config(with_threads(threads))
                .run_optft(&w.profiling_inputs, &w.testing_inputs)
                .report
        },
        "optft.rollback.cause.",
    );
    let params = WorkloadParams::small();
    for w in [c_suite::go(&params), c_suite::vim(&params)] {
        assert_width_invariant(
            w.name,
            |threads| {
                Pipeline::new(w.program.clone())
                    .with_config(with_threads(threads))
                    .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints)
                    .report
            },
            "optslice.rollback.cause.",
        );
    }
}

/// The cross-mode contract of the store/serve subsystem: the canonical
/// (timing-free) result JSON is byte-identical whether a run is computed
/// cold, served warm from the artifact store, or answered by the daemon
/// to any of N concurrent clients.
#[test]
fn daemon_and_warm_store_match_the_serial_pipeline_byte_for_byte() {
    use oha::core::{optft_canonical_json, optslice_canonical_json, StoreConfig};
    use oha::ir::print_program;
    use oha::serve::{Client, Server, ServerConfig, Tool};

    const CLIENTS: usize = 8;

    let params = WorkloadParams::small();
    let w = c_suite::all(&params).swap_remove(0);
    let text = print_program(&w.program);

    // Cold, storeless serial runs are the oracle.
    let cold = Pipeline::new(w.program.clone());
    let expected_ft = optft_canonical_json(&cold.run_optft(&w.profiling_inputs, &w.testing_inputs));
    let expected_slice = optslice_canonical_json(&Pipeline::new(w.program.clone()).run_optslice(
        &w.profiling_inputs,
        &w.testing_inputs,
        &w.endpoints,
    ));

    let root = std::env::temp_dir().join(format!("oha-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // Cold-then-warm through the store: both byte-identical to storeless.
    let store_config = PipelineConfig {
        store: Some(StoreConfig::new(root.join("store-serial"))),
        ..PipelineConfig::default()
    };
    for pass in ["cold", "warm"] {
        let outcome = Pipeline::new(w.program.clone())
            .with_config(store_config.clone())
            .run_optft(&w.profiling_inputs, &w.testing_inputs);
        assert_eq!(
            optft_canonical_json(&outcome),
            expected_ft,
            "{}: {pass} stored run diverged",
            w.name
        );
    }

    // The daemon (with its own store) under concurrent clients.
    let server = Server::bind(ServerConfig {
        socket: root.join("daemon.sock"),
        store_dir: Some(root.join("store-daemon")),
        ..ServerConfig::default()
    })
    .unwrap();
    let socket = server.socket().to_path_buf();
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    let endpoints: Vec<u32> = w.endpoints.iter().map(|e| e.raw()).collect();

    std::thread::scope(|scope| {
        for n in 0..CLIENTS {
            let (socket, text, w, endpoints) = (&socket, &text, &w, &endpoints);
            let (expected_ft, expected_slice) = (&expected_ft, &expected_slice);
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                // Every client runs both tools; half start with OptSlice
                // so the two artifact families are raced from the start.
                let mut plan = [(Tool::OptFt, expected_ft), (Tool::OptSlice, expected_slice)];
                if n % 2 == 1 {
                    plan.reverse();
                }
                for (tool, expected) in plan {
                    let endpoints: &[u32] = if tool == Tool::OptSlice {
                        endpoints
                    } else {
                        &[]
                    };
                    let response = client
                        .analyze(
                            tool,
                            text,
                            &w.profiling_inputs,
                            &w.testing_inputs,
                            endpoints,
                        )
                        .unwrap();
                    assert!(response.ok, "client {n}: {}", response.body);
                    assert_eq!(
                        &response.body,
                        expected,
                        "{}: client {n} ({}) diverged from the serial pipeline",
                        w.name,
                        tool.name()
                    );
                }
            });
        }
    });

    let mut client = Client::connect(&socket).unwrap();
    client.shutdown().unwrap();
    let drained = server_thread.join().unwrap();
    assert!(drained.requests > 2 * CLIENTS as u64);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pool_sizing_honors_config_then_env() {
    let params = WorkloadParams::small();
    let program = java_suite::all(&params).swap_remove(0).program;
    let prev = std::env::var("OHA_THREADS").ok();

    std::env::set_var("OHA_THREADS", "3");
    let auto = Pipeline::new(program.clone()).with_config(with_threads(0));
    assert_eq!(
        auto.pool().threads(),
        3,
        "threads=0 resolves via OHA_THREADS"
    );
    let explicit = Pipeline::new(program).with_config(with_threads(2));
    assert_eq!(
        explicit.pool().threads(),
        2,
        "explicit config wins over env"
    );

    match prev {
        Some(v) => std::env::set_var("OHA_THREADS", v),
        None => std::env::remove_var("OHA_THREADS"),
    }
}
