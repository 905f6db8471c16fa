//! End-to-end checks for the observability layer: hook-dispatch counters,
//! elision accounting, span hierarchies and the machine-readable run report
//! emitted by the three-phase pipeline.

use oha::core::{Pipeline, PipelineConfig};
use oha::interp::{Machine, MachineConfig, NoopTracer};
use oha::obs::{MetricsRegistry, RunReport};
use oha::workloads::{c_suite, java_suite, WorkloadParams};

/// The exact elision identity for OptFT: every speculative memory access the
/// interpreter dispatched was either elided or handed to FastTrack.
fn assert_optft_elision_identity(registry: &MetricsRegistry, name: &str) {
    let loads = registry.counter_value("optft.spec.hook.load");
    let stores = registry.counter_value("optft.spec.hook.store");
    let elided = registry.counter_value("optft.ft.elided.accesses");
    let reads = registry.counter_value("optft.ft.executed.reads");
    let writes = registry.counter_value("optft.ft.executed.writes");
    assert!(loads + stores > 0, "{name}: no hook dispatches recorded");
    assert_eq!(
        loads + stores,
        elided + reads + writes,
        "{name}: elided + executed must equal total accesses dispatched"
    );
}

#[test]
fn optft_counters_consistent_on_java_workload() {
    let w = java_suite::lusearch(&WorkloadParams::small());
    let pipeline = Pipeline::new(w.program.clone());
    let outcome = pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs);
    let registry = pipeline.metrics();

    assert_optft_elision_identity(registry, w.name);

    // Span hierarchy covers all three phases plus the per-run dynamic spans.
    for path in [
        "optft",
        "optft/profile",
        "optft/static_sound",
        "optft/static_pred",
        "optft/dynamic",
        "optft/dynamic/optimistic",
    ] {
        let stat = registry
            .span_stat(path)
            .unwrap_or_else(|| panic!("missing span {path}"));
        assert!(stat.count > 0, "span {path} never completed");
    }

    // The profiling fact-count curve has one point per profiling run used.
    let curve = registry.series_values("profile.fact_count");
    assert_eq!(curve.len(), outcome.profiling_runs_used);
    assert!(curve.iter().all(|&c| c > 0.0));

    // The outcome carries a populated report that round-trips through JSON.
    assert_eq!(outcome.report.name, "optft");
    assert_eq!(
        outcome
            .report
            .meta
            .get("profiling_runs_used")
            .map(String::as_str),
        Some(outcome.profiling_runs_used.to_string().as_str())
    );
    assert!(outcome.report.counters.contains_key("optft.spec.hook.load"));
    assert!(outcome.report.spans.contains_key("optft/dynamic"));
    let json = outcome.report.to_json_string();
    let back = RunReport::from_json_str(&json).expect("report JSON parses");
    assert_eq!(back, outcome.report);
}

#[test]
fn optft_and_optslice_counters_consistent_on_c_workload() {
    let params = WorkloadParams::small();
    let suite = c_suite::all(&params);
    let w = &suite[0];

    // OptFT elision identity also holds on the C suite.
    let pipeline = Pipeline::new(w.program.clone());
    pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs);
    assert_optft_elision_identity(pipeline.metrics(), w.name);

    // OptSlice: every event Giri saw was either traced or elided, and the
    // tracer can only have been offered events the interpreter dispatched.
    let pipeline = Pipeline::new(w.program.clone());
    let outcome = pipeline.run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints);
    let registry = pipeline.metrics();

    let traced = registry.counter_value("optslice.giri.traced_events");
    let elided = registry.counter_value("optslice.giri.elided_events");
    assert!(
        traced + elided > 0,
        "{name}: Giri saw no events",
        name = w.name
    );
    let dispatched = registry.counter_value("optslice.spec.hook.load")
        + registry.counter_value("optslice.spec.hook.store")
        + registry.counter_value("optslice.spec.hook.compute")
        + registry.counter_value("optslice.spec.hook.call")
        + registry.counter_value("optslice.spec.hook.return")
        + registry.counter_value("optslice.spec.hook.output");
    assert!(
        traced <= dispatched,
        "{}: traced ({traced}) exceeds dispatched hooks ({dispatched})",
        w.name
    );

    for path in [
        "optslice",
        "optslice/static_sound/pointsto",
        "optslice/static_pred/pointsto",
        "optslice/static_pred/slice",
        "optslice/dynamic/optimistic",
    ] {
        assert!(registry.span_stat(path).is_some(), "missing span {path}");
    }

    assert_eq!(outcome.report.name, "optslice");
    assert!(outcome
        .report
        .counters
        .contains_key("optslice.giri.traced_events"));
    let back = RunReport::from_json_str(&outcome.report.to_json_string()).unwrap();
    assert_eq!(back, outcome.report);
}

#[test]
fn unobserved_machine_matches_metered_machine() {
    let w = java_suite::lusearch(&WorkloadParams::small());
    let input = &w.testing_inputs[0];

    let plain = Machine::new(&w.program, MachineConfig::default());
    let plain_result = plain.run(input, &mut NoopTracer);
    // A machine without a registry keeps detached (always-zero) counters.
    assert_eq!(plain.metrics().load.get(), 0);
    assert_eq!(plain.metrics().store.get(), 0);

    let registry = MetricsRegistry::new();
    let metered = Machine::new(&w.program, MachineConfig::default()).with_metrics(&registry, "m");
    let metered_result = metered.run(input, &mut NoopTracer);

    // Instrumentation must not perturb execution.
    assert_eq!(plain_result.status, metered_result.status);
    assert_eq!(plain_result.steps, metered_result.steps);
    assert_eq!(plain_result.outputs, metered_result.outputs);
    assert_eq!(plain_result.num_threads, metered_result.num_threads);
    assert_eq!(plain_result.num_objects, metered_result.num_objects);

    // ...while the registry observes the dispatches.
    assert!(registry.counter_value("m.hook.load") > 0);
    assert!(registry.counter_value("m.hook.store") > 0);
}

/// The static phases run their sound and predicated sides as concurrent
/// pool tasks, timed off the registry; each side's span still records
/// that side's own measured time, so the spans add up to the
/// `<tool>.phase.static_ns` observation.
#[test]
fn static_phase_spans_record_each_sides_time() {
    let serial = PipelineConfig {
        threads: 1,
        ..PipelineConfig::default()
    };
    let static_ns = |report: &RunReport, tool: &str| {
        let hist = &report.hists[&format!("{tool}.phase.static_ns")];
        assert_eq!(hist.count(), 1);
        hist.sum()
    };
    let total = |report: &RunReport, path: &str| {
        let span = report.spans[path];
        assert_eq!(span.count, 1, "{path}");
        assert!(span.total_ns > 0, "{path} recorded no time");
        u128::from(span.total_ns)
    };

    let w = java_suite::lusearch(&WorkloadParams::small());
    let outcome = Pipeline::new(w.program.clone())
        .with_config(serial.clone())
        .run_optft(&w.profiling_inputs, &w.testing_inputs);
    let report = &outcome.report;
    assert_eq!(
        total(report, "optft/static_sound") + total(report, "optft/static_pred"),
        static_ns(report, "optft")
    );

    let w = c_suite::all(&WorkloadParams::small()).swap_remove(0);
    let outcome = Pipeline::new(w.program.clone())
        .with_config(serial)
        .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints);
    let report = &outcome.report;
    let mut sides = 0;
    for side in ["sound", "pred"] {
        let path = format!("optslice/static_{side}");
        let parts =
            total(report, &format!("{path}/pointsto")) + total(report, &format!("{path}/slice"));
        assert_eq!(total(report, &path), parts, "{path}");
        sides += parts;
    }
    assert_eq!(sides, static_ns(report, "optslice"));
}
