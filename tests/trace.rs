//! Event tracing end-to-end: a full OptFT run with a `TraceLog` attached
//! must emit a well-formed span tree — properly nested begin/end pairs
//! with parent links — whose paths and entry counts are exactly the
//! `RunReport`'s span stats, and the Chrome trace-event export must be
//! valid JSON carrying the same events. Tracing must also be inert:
//! attaching a log cannot change the canonical analysis result. With a
//! parallel dynamic phase, the lanes off the caller trace on tracks of
//! their own, and every track must stay balanced.

use std::collections::BTreeMap;

use oha::core::{optft_canonical_json, Pipeline, PipelineConfig};
use oha::obs::{Json, TraceEventKind, TraceLog};
use oha::workloads::{c_suite, WorkloadParams};

#[test]
fn optft_trace_matches_the_reports_span_tree() {
    let params = WorkloadParams::small();
    let w = c_suite::all(&params).swap_remove(0);

    let trace = TraceLog::enabled(1 << 16);
    let pipeline = Pipeline::new(w.program.clone()).with_trace(trace.clone());
    let trace_id = pipeline.metrics().begin_trace();
    assert_ne!(trace_id, 0, "an enabled log mints real trace IDs");
    let outcome = pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs);

    let events = trace.events();
    assert!(!events.is_empty(), "a full run records span events");
    assert_eq!(trace.dropped(), 0, "the ring was sized for the whole run");

    // Replay per-track span stacks: every end must close the innermost
    // open span (matching ID and name), every begin's parent must be the
    // enclosing span, and nothing may stay open.
    let mut stacks: BTreeMap<u64, Vec<(u64, String)>> = BTreeMap::new();
    let mut begin_counts: BTreeMap<String, u64> = BTreeMap::new();
    for e in &events {
        assert_eq!(e.trace_id, trace_id, "{}: rides the begun trace", e.name);
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            TraceEventKind::Begin => {
                let enclosing = stack.last().map_or(0, |(id, _)| *id);
                assert_eq!(
                    e.parent, enclosing,
                    "{}: parent must be the enclosing span",
                    e.name
                );
                stack.push((e.span_id, e.name.clone()));
                *begin_counts.entry(e.name.clone()).or_insert(0) += 1;
            }
            TraceEventKind::End => {
                let (id, name) = stack.pop().expect("end without a begin");
                assert_eq!(e.span_id, id, "{}: end closes the innermost span", e.name);
                assert_eq!(e.name, name, "end names its begin");
            }
            TraceEventKind::Instant => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "track {tid} left spans open: {stack:?}");
    }

    // The trace's span tree is exactly the report's span stats: same
    // `/`-joined paths, same entry counts. (Storeless on purpose —
    // store-warmed runs replay `cached/*` span stats that have no live
    // trace events.)
    let report_counts: BTreeMap<String, u64> = outcome
        .report
        .spans
        .iter()
        .map(|(path, s)| (path.clone(), s.count))
        .collect();
    assert_eq!(
        begin_counts, report_counts,
        "trace span tree diverged from the report's span stats"
    );

    // The on-disk Chrome export is valid JSON with one record per event
    // and microsecond timestamps.
    let path = std::env::temp_dir().join(format!("oha-trace-test-{}.json", std::process::id()));
    trace.write_chrome_json(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).expect("Chrome trace export is valid JSON");
    let exported = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(exported.len(), events.len());
    for record in exported {
        let ph = record.get("ph").and_then(Json::as_str).unwrap();
        assert!(matches!(ph, "B" | "E" | "i"), "unexpected phase {ph}");
        assert!(record.get("ts").and_then(Json::as_f64).is_some());
        if ph == "i" {
            assert_eq!(
                record.get("s").and_then(Json::as_str),
                Some("t"),
                "Perfetto needs a scope on instants"
            );
        }
    }
    let _ = std::fs::remove_file(&path);

    // Tracing is inert: the canonical (timing-free) result is
    // byte-identical to an untraced run.
    let untraced =
        Pipeline::new(w.program.clone()).run_optft(&w.profiling_inputs, &w.testing_inputs);
    assert_eq!(
        optft_canonical_json(&outcome),
        optft_canonical_json(&untraced),
        "attaching a trace log changed the analysis result"
    );
}

/// A width-2 run puts the dynamic phase's lanes on two threads. Its
/// Chrome export must be balanced on every track (each `E` closes the
/// innermost open `B` of its own track, nothing stays open), the lanes
/// off the caller must trace on a track of their own, under the
/// pipeline's trace ID, and the per-configuration span counts must match
/// the report's.
#[test]
fn width_two_chrome_trace_is_balanced_per_track() {
    let params = WorkloadParams::small();
    let w = c_suite::go(&params);
    let width_two = PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    };
    for tool in ["optft", "optslice"] {
        let trace = TraceLog::enabled(1 << 16);
        let pipeline = Pipeline::new(w.program.clone())
            .with_config(width_two.clone())
            .with_trace(trace.clone());
        let trace_id = pipeline.metrics().begin_trace();
        let report = if tool == "optft" {
            pipeline
                .run_optft(&w.profiling_inputs, &w.testing_inputs)
                .report
        } else {
            pipeline
                .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints)
                .report
        };
        assert_eq!(trace.dropped(), 0, "the ring was sized for the whole run");

        let doc = Json::parse(&trace.to_chrome_json().to_string_compact()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mut open: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut dynamic_tracks: BTreeMap<u64, u64> = BTreeMap::new();
        let mut begins: BTreeMap<String, u64> = BTreeMap::new();
        for e in events {
            let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
            let tid = e.get("tid").and_then(Json::as_f64).unwrap() as u64;
            let args = e.get("args").unwrap();
            assert_eq!(
                args.get("trace").and_then(Json::as_f64),
                Some(trace_id as f64),
                "{tool}: {name} rides the pipeline's trace"
            );
            let stack = open.entry(tid).or_default();
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => {
                    if name.starts_with(&format!("{tool}/dynamic/")) {
                        *dynamic_tracks.entry(tid).or_insert(0) += 1;
                    }
                    *begins.entry(name.clone()).or_insert(0) += 1;
                    stack.push(name);
                }
                "E" => {
                    let innermost = stack.pop();
                    assert_eq!(
                        innermost.as_deref(),
                        Some(name.as_str()),
                        "{tool}: track {tid} closes {name} out of order"
                    );
                }
                _ => {}
            }
        }
        for (tid, stack) in &open {
            assert!(stack.is_empty(), "{tool}: track {tid} left {stack:?} open");
        }
        assert!(
            dynamic_tracks.len() >= 2,
            "{tool}: the lanes traced on one track only: {dynamic_tracks:?}"
        );
        for (path, span) in report.spans.iter().filter(|(p, _)| p.contains("/dynamic/")) {
            assert_eq!(
                begins.get(path).copied(),
                Some(span.count),
                "{tool}: {path} traced a different number of times than the report counts"
            );
        }
    }
}
