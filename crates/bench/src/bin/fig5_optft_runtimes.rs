//! Figure 5: normalized runtimes of FastTrack, hybrid FastTrack and OptFT
//! over the Java-suite stand-ins, with the OptFT bar decomposed into
//! framework / invariant checks / FastTrack checks / rollbacks.
//!
//! Benchmarks proven race-free by the *sound* static detector are flagged —
//! they need no dynamic analysis at all (the right side of the paper's
//! figure).

use oha_bench::{mean, one_thread, optft_config, params, traced_pipeline, Reporter};
use oha_workloads::java_suite;

fn main() {
    let params = params();
    let mut reporter = Reporter::new("fig5_optft_runtimes");
    let trace = reporter.trace().clone();
    let mut rows = Vec::new();
    let mut sound_violations = 0usize;
    let results = reporter.run_workloads_parallel(java_suite::all(&params), |w| {
        let outcome = traced_pipeline(w, one_thread(optft_config()), &trace)
            .run_optft(&w.profiling_inputs, &w.testing_inputs);
        (outcome.report.clone(), outcome)
    });
    for (w, outcome) in &results {
        if outcome.optimistic_races != outcome.baseline_races {
            sound_violations += 1;
        }
        let norm = |f: &dyn Fn(&oha_core::OptFtRun) -> f64| -> f64 {
            mean(outcome.runs.iter().map(|r| f(r) / r.baseline.as_secs_f64()))
        };
        let full = norm(&|r| r.full.as_secs_f64());
        let hybrid = norm(&|r| r.hybrid.as_secs_f64());
        let opt_total = norm(&|r| (r.optimistic + r.rollback).as_secs_f64());
        // Decomposition of the OptFT bar (all normalized to baseline=1.0).
        let inv_checks = norm(&|r| r.checker_only.saturating_sub(r.baseline).as_secs_f64());
        let rollbacks = norm(&|r| r.rollback.as_secs_f64());
        let ft_checks = (opt_total - 1.0 - inv_checks - rollbacks).max(0.0);

        rows.push(vec![
            w.name.to_string(),
            format!("{full:.2}"),
            format!("{hybrid:.2}"),
            format!("{opt_total:.2}"),
            format!("{inv_checks:.2}"),
            format!("{ft_checks:.2}"),
            format!("{rollbacks:.2}"),
            format!("{:.0}%", outcome.misspeculation_rate() * 100.0),
            if outcome.statically_race_free {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    println!("Figure 5 — normalized runtimes (baseline execution = 1.0)\n");
    println!(
        "{}",
        reporter.table(
            "Figure 5 — normalized runtimes (baseline execution = 1.0)",
            &[
                "bench",
                "FastTrack",
                "Hybrid FT",
                "OptFT",
                "  inv-checks",
                "  FT-checks",
                "  rollbacks",
                "misspec",
                "race-free(static)",
            ],
            &rows,
        )
    );
    println!(
        "soundness: optimistic races == FastTrack races on {}/{} benchmarks",
        rows.len() - sound_violations,
        rows.len()
    );
    reporter.meta("suite", "java");
    reporter.meta("sound_violations", sound_violations);
    reporter.finish();
    assert_eq!(sound_violations, 0, "OptFT diverged from FastTrack");
}
