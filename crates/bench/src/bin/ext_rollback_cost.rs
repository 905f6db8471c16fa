//! Rollback-cost experiment: the paper reports roll-back overheads
//! "ranging from 0.0% to 21.9% and averaging 5.7%" (§6.2) on corpora whose
//! executions occasionally violate the assumed invariants. Here each
//! benchmark's testing corpus is salted with its out-of-distribution
//! inputs (cold modes, dead commands, error storms), forcing real
//! mis-speculations, and we report the rollback share of OptFT/OptSlice
//! runtime — and verify the answers still match the baselines.

use oha_bench::{one_thread, optft_config, optslice_config, params, pipeline, Reporter};
use oha_workloads::{c_suite, java_suite};

fn main() {
    let params = params();
    let mut reporter = Reporter::new("ext_rollback_cost");
    println!("OptFT under adversarial testing inputs\n");
    let mut rows = Vec::new();
    for w in java_suite::all(&params) {
        if w.adversarial_inputs.is_empty() {
            continue;
        }
        let mut testing = w.testing_inputs.clone();
        testing.extend(w.adversarial_inputs.iter().cloned());
        let outcome =
            pipeline(&w, one_thread(optft_config())).run_optft(&w.profiling_inputs, &testing);
        reporter.child(&format!("optft/{}", w.name), outcome.report.clone());
        assert_eq!(
            outcome.optimistic_races, outcome.baseline_races,
            "{}: rollback must preserve race equivalence",
            w.name
        );
        let total: f64 = outcome
            .runs
            .iter()
            .map(|r| (r.optimistic + r.rollback).as_secs_f64())
            .sum();
        let rb: f64 = outcome.runs.iter().map(|r| r.rollback.as_secs_f64()).sum();
        rows.push(vec![
            w.name.to_string(),
            format!("{:.0}%", outcome.misspeculation_rate() * 100.0),
            format!("{:.1}%", 100.0 * rb / total.max(1e-12)),
            format!("{:.1}x", outcome.speedup_vs_hybrid()),
            "races equal".into(),
        ]);
    }
    println!(
        "{}",
        reporter.table(
            "OptFT under adversarial testing inputs",
            &[
                "bench",
                "misspec",
                "rollback share",
                "speedup/hybrid",
                "soundness"
            ],
            &rows
        )
    );

    println!("\nOptSlice under adversarial testing inputs\n");
    let mut rows = Vec::new();
    for w in c_suite::all(&params) {
        if w.adversarial_inputs.is_empty() {
            continue;
        }
        let mut testing = w.testing_inputs.clone();
        testing.extend(w.adversarial_inputs.iter().cloned());
        let outcome = pipeline(&w, one_thread(optslice_config())).run_optslice(
            &w.profiling_inputs,
            &testing,
            &w.endpoints,
        );
        reporter.child(&format!("optslice/{}", w.name), outcome.report.clone());
        assert!(
            outcome.all_slices_equal(),
            "{}: rollback must preserve slice equality",
            w.name
        );
        let total: f64 = outcome
            .runs
            .iter()
            .map(|r| (r.optimistic + r.rollback).as_secs_f64())
            .sum();
        let rb: f64 = outcome.runs.iter().map(|r| r.rollback.as_secs_f64()).sum();
        rows.push(vec![
            w.name.to_string(),
            format!("{:.0}%", outcome.misspeculation_rate() * 100.0),
            format!("{:.1}%", 100.0 * rb / total.max(1e-12)),
            format!("{:.1}x", outcome.speedup_vs_hybrid()),
            "slices equal".into(),
        ]);
    }
    println!(
        "{}",
        reporter.table(
            "OptSlice under adversarial testing inputs",
            &[
                "bench",
                "misspec",
                "rollback share",
                "speedup/hybrid",
                "soundness"
            ],
            &rows
        )
    );
    println!("\nEvery rolled-back run reproduced the baseline answer exactly");
    println!("(replayed schedule + traditional hybrid analysis).");
    reporter.finish();
}
