//! Figure 6: normalized runtimes of the traditional hybrid slicer versus
//! OptSlice over the C-suite stand-ins, with the OptSlice bar decomposed
//! into baseline execution / invariant checks / slicing instrumentation /
//! rollbacks.

use oha_bench::{mean, one_thread, optslice_config, params, pipeline, Reporter};
use oha_workloads::c_suite;

fn main() {
    let params = params();
    let mut reporter = Reporter::new("fig6_optslice_runtimes");
    let mut rows = Vec::new();
    let mut unequal = 0usize;
    let results = reporter.run_workloads_parallel(c_suite::all(&params), |w| {
        let outcome = pipeline(w, one_thread(optslice_config())).run_optslice(
            &w.profiling_inputs,
            &w.testing_inputs,
            &w.endpoints,
        );
        (outcome.report.clone(), outcome)
    });
    for (w, outcome) in &results {
        if !outcome.all_slices_equal() {
            unequal += 1;
        }
        let norm = |f: &dyn Fn(&oha_core::OptSliceRun) -> f64| -> f64 {
            mean(outcome.runs.iter().map(|r| f(r) / r.baseline.as_secs_f64()))
        };
        let hybrid = norm(&|r| r.hybrid.as_secs_f64());
        let opt_total = norm(&|r| (r.optimistic + r.rollback).as_secs_f64());
        let inv_checks = norm(&|r| r.checker_only.saturating_sub(r.baseline).as_secs_f64());
        let rollbacks = norm(&|r| r.rollback.as_secs_f64());
        let tracing = (opt_total - 1.0 - inv_checks - rollbacks).max(0.0);
        let speedup = outcome.speedup_vs_hybrid();
        rows.push(vec![
            w.name.to_string(),
            format!("{hybrid:.2}"),
            format!("{opt_total:.2}"),
            format!("{inv_checks:.2}"),
            format!("{tracing:.2}"),
            format!("{rollbacks:.2}"),
            format!("{:.0}%", outcome.misspeculation_rate() * 100.0),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("Figure 6 — normalized runtimes (baseline execution = 1.0)\n");
    println!(
        "{}",
        reporter.table(
            "Figure 6 — normalized runtimes (baseline execution = 1.0)",
            &[
                "bench",
                "Trad. Hybrid",
                "OptSlice",
                "  inv-checks",
                "  tracing",
                "  rollbacks",
                "misspec",
                "dyn speedup",
            ],
            &rows,
        )
    );
    println!(
        "soundness: final slices equal on {}/{} benchmarks",
        rows.len() - unequal,
        rows.len()
    );
    reporter.meta("suite", "c");
    reporter.meta("unequal_slices", unequal);
    reporter.finish();
    assert_eq!(unequal, 0, "OptSlice diverged from the hybrid slicer");
}
