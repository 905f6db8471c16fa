//! Table 2: OptSlice end-to-end analysis costs — the most accurate
//! analysis type (CS/CI) that completes for the sound and predicated sides,
//! their times, profiling time, break-even baseline-time and dynamic
//! speedup.

use std::time::Duration;

use oha_bench::{fmt_break_even, fmt_dur, one_thread, optslice_config, params, pipeline, Reporter};
use oha_core::{break_even_seconds, CostModel};
use oha_pointsto::Sensitivity;
use oha_workloads::c_suite;

fn at(s: Sensitivity) -> &'static str {
    match s {
        Sensitivity::ContextSensitive => "CS",
        Sensitivity::ContextInsensitive => "CI",
    }
}

fn main() {
    let params = params();
    let mut reporter = Reporter::new("table2_optslice_endtoend");
    let mut rows = Vec::new();
    let results = reporter.run_workloads_parallel(c_suite::all(&params), |w| {
        let outcome = pipeline(w, one_thread(optslice_config())).run_optslice(
            &w.profiling_inputs,
            &w.testing_inputs,
            &w.endpoints,
        );
        (outcome.report.clone(), outcome)
    });
    for (w, outcome) in &results {
        let sum = |f: &dyn Fn(&oha_core::OptSliceRun) -> Duration| -> Duration {
            outcome.runs.iter().map(f).sum()
        };
        let baseline = sum(&|r| r.baseline);
        let hybrid = CostModel::new(
            outcome.sound.points_to_time + outcome.sound.slice_time,
            sum(&|r| r.hybrid),
            baseline,
        );
        let opt = CostModel::new(
            outcome.profile_time + outcome.pred.points_to_time + outcome.pred.slice_time,
            sum(&|r| r.optimistic + r.rollback),
            baseline,
        );
        rows.push(vec![
            format!("{} ({})", w.name, w.program.num_insts()),
            at(outcome.sound.points_to_at).into(),
            fmt_dur(outcome.sound.points_to_time),
            at(outcome.sound.slice_at).into(),
            fmt_dur(outcome.sound.slice_time),
            fmt_dur(outcome.profile_time),
            at(outcome.pred.points_to_at).into(),
            fmt_dur(outcome.pred.points_to_time),
            at(outcome.pred.slice_at).into(),
            fmt_dur(outcome.pred.slice_time),
            fmt_break_even(break_even_seconds(&opt, &hybrid)),
            format!("{:.1}x", outcome.speedup_vs_hybrid()),
        ]);
    }
    println!("Table 2 — OptSlice end-to-end analysis times\n");
    println!(
        "{}",
        reporter.table(
            "Table 2 — OptSlice end-to-end analysis times",
            &[
                "bench (insts)",
                "trad-pt AT",
                "time",
                "trad-slice AT",
                "time",
                "profiling",
                "opt-pt AT",
                "time",
                "opt-slice AT",
                "time",
                "break-even",
                "dyn speedup",
            ],
            &rows,
        )
    );
    reporter.finish();
}
