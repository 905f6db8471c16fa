//! Table 1: OptFT end-to-end analysis costs — static, profiling and
//! lock-elision validation times, break-even baseline-time versus hybrid
//! and traditional FastTrack, and dynamic speedups. Benchmarks the sound
//! detector proves race-free are skipped, as in the paper.

use std::time::Duration;

use oha_bench::{fmt_break_even, fmt_dur, optft_config, params, traced_pipeline, Reporter};
use oha_core::{break_even_seconds, CostModel};
use oha_workloads::java_suite;

fn main() {
    let params = params();
    let mut reporter = Reporter::new("table1_optft_endtoend");
    let trace = reporter.trace().clone();
    let mut rows = Vec::new();
    let results = reporter.run_workloads_parallel(java_suite::all(&params), |w| {
        let outcome = traced_pipeline(w, optft_config(), &trace)
            .run_optft(&w.profiling_inputs, &w.testing_inputs);
        (outcome.report.clone(), outcome)
    });
    for (w, outcome) in &results {
        if outcome.statically_race_free {
            continue;
        }
        let sum = |f: &dyn Fn(&oha_core::OptFtRun) -> Duration| -> Duration {
            outcome.runs.iter().map(f).sum()
        };
        let baseline = sum(&|r| r.baseline);
        let trad = CostModel::new(Duration::ZERO, sum(&|r| r.full), baseline);
        let hybrid = CostModel::new(outcome.sound_static_time, sum(&|r| r.hybrid), baseline);
        let opt = CostModel::new(
            outcome.profile_time + outcome.elide_time + outcome.pred_static_time,
            sum(&|r| r.optimistic + r.rollback),
            baseline,
        );
        rows.push(vec![
            w.name.to_string(),
            fmt_dur(outcome.sound_static_time),
            fmt_dur(outcome.profile_time),
            fmt_dur(outcome.elide_time),
            fmt_dur(outcome.pred_static_time),
            fmt_break_even(break_even_seconds(&opt, &hybrid)),
            fmt_break_even(break_even_seconds(&opt, &trad)),
            format!("{:.1}x", outcome.speedup_vs_hybrid()),
            format!("{:.1}x", outcome.speedup_vs_full()),
        ]);
    }
    println!("Table 1 — OptFT end-to-end analysis times\n");
    println!(
        "{}",
        reporter.table(
            "Table 1 — OptFT end-to-end analysis times",
            &[
                "bench",
                "trad static",
                "profile",
                "elide",
                "opt static",
                "break-even/hybrid",
                "break-even/trad",
                "speedup/hybrid",
                "speedup/trad",
            ],
            &rows,
        )
    );
    reporter.finish();
}
