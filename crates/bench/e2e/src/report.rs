//! The metric catalogue and the one-line result every run prints.
//!
//! `BENCHMARK.json` at the repository root names the same metrics; the
//! package's integration test holds the two lists equal.

use std::collections::BTreeMap;

use oha_obs::Json;

/// End-to-end metrics (untraced runs), each emitted by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (the traced `--trace 1` pass), each emitted by every
/// workload; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("invariants.profile_ms", "ms"),
    ("invariants.profile_runs", "count"),
    ("fasttrack.elide_ms", "ms"),
    ("pointsto.sound_ms", "ms"),
    ("pointsto.pred_ms", "ms"),
    ("pointsto.words_unioned", "count"),
    ("races.detect_ms", "ms"),
    ("slicing.slice_ms", "ms"),
    ("interp.baseline_ms", "ms"),
    ("fasttrack.full_ms", "ms"),
    ("fasttrack.hybrid_ms", "ms"),
    ("fasttrack.optimistic_ms", "ms"),
    ("invariants.checker_ms", "ms"),
    ("giri.hybrid_ms", "ms"),
    ("giri.optimistic_ms", "ms"),
    ("core.rollback_ms", "ms"),
    ("core.dyn_ms_per_exec", "ms"),
    ("core.misspec_rate", "ratio"),
    ("core.overhead_x", "x"),
    ("core.speedup_vs_hybrid", "x"),
    ("core.canonical_us", "us"),
    ("store.bytes_written", "bytes"),
    ("store.load_ms", "ms"),
    ("core.warm_pipeline_ms", "ms"),
    ("ir.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.worker_ms_p50", "ms"),
    ("cluster.router_ms_p50", "ms"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.lru_hit_frac", "ratio"),
    ("serve.busy_rejections", "count"),
    ("client.retries", "count"),
    ("cluster.failovers", "count"),
    ("bench.late_ms_max", "ms"),
    ("bench.error_rate", "ratio"),
    ("core.total_ms", "ms"),
    ("core.residual_frac", "ratio"),
    ("core.trace_overhead_frac", "ratio"),
];

/// What one workload run measured: the operations it attempted, the ones
/// that failed an output check, and its metrics by name.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail rows (per program or per request kind),
    /// printed to stderr and kept in `--json` reports.
    pub rows: Vec<Json>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one operation's output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("bench_e2e: wrong result: {}", what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `catalogue`, each with its unit. A metric the run did not set is
    /// a harness bug, reported as a failed check rather than a silent 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        let mut missing = Vec::new();
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or_else(|| {
                    missing.push(name);
                    0.0
                });
                let value = if value.is_finite() { value } else { f64::MAX };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), Json::str(unit)),
                    ]),
                )
            })
            .collect();
        for name in &missing {
            eprintln!("bench_e2e: metric {name} was not measured");
        }
        let failed = self.failed + missing.len() as u64;
        Json::Obj(vec![
            (
                "correct".to_string(),
                Json::Bool(failed == 0 && self.attempted > 0),
            ),
            (
                "attempted".to_string(),
                Json::num(self.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::num(failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}
