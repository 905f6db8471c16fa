//! The parallel static and dynamic phases must be unobservable in
//! results: with the sharded Andersen solver, the concurrent sound/pred
//! analysis DAG, the per-function constraint fan-out, the parallel
//! reaching-defs and the dynamic phase's lanes all active, the canonical
//! OptFT and OptSlice JSON is *byte-identical* whether the pipeline runs
//! on 1, 2, 3, 4 or 8 threads — including runs that roll back. A
//! companion test asserts the pool-sharing contract: one `oha_par::Pool`
//! is built per pipeline and every phase borrows that same pool.

use oha::core::{optft_canonical_json, optslice_canonical_json, Pipeline, PipelineConfig};
use oha::workloads::{c_suite, java_suite, micro, Workload, WorkloadParams};

fn with_threads(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// One Java and one C workload at unit-test scale — enough to cover both
/// front ends without turning the width sweep into a benchmark.
fn picks() -> Vec<Workload> {
    let params = WorkloadParams::small();
    vec![
        java_suite::all(&params).swap_remove(0),
        c_suite::all(&params).swap_remove(0),
    ]
}

#[test]
fn optft_canonical_json_is_byte_identical_across_thread_widths() {
    for w in picks() {
        let base = optft_canonical_json(
            &Pipeline::new(w.program.clone())
                .with_config(with_threads(1))
                .run_optft(&w.profiling_inputs, &w.testing_inputs),
        );
        for threads in [2, 4, 8] {
            let json = optft_canonical_json(
                &Pipeline::new(w.program.clone())
                    .with_config(with_threads(threads))
                    .run_optft(&w.profiling_inputs, &w.testing_inputs),
            );
            assert_eq!(
                json, base,
                "{}: {threads} threads changed the OptFT canonical output",
                w.name
            );
        }
    }
}

#[test]
fn optslice_canonical_json_is_byte_identical_across_thread_widths() {
    for w in picks() {
        let base = optslice_canonical_json(
            &Pipeline::new(w.program.clone())
                .with_config(with_threads(1))
                .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints),
        );
        for threads in [2, 4, 8] {
            let json = optslice_canonical_json(
                &Pipeline::new(w.program.clone())
                    .with_config(with_threads(threads))
                    .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints),
            );
            assert_eq!(
                json, base,
                "{}: {threads} threads changed the OptSlice canonical output",
                w.name
            );
        }
    }
}

/// Rollbacks run inside the speculative task and replay its schedule, so
/// the width sweep must cover runs that roll back: the OptFT micro
/// program mis-speculates on one of its two testing inputs, and at
/// unit-test scale OptSlice rolls back on 2 of go's 6 inputs and on all
/// 6 of vim's.
#[test]
fn canonical_json_of_runs_that_roll_back_is_byte_identical_across_thread_widths() {
    let run_optft = |w: &Workload, threads: usize| {
        Pipeline::new(w.program.clone())
            .with_config(with_threads(threads))
            .run_optft(&w.profiling_inputs, &w.testing_inputs)
    };
    let w = micro::cold_path_race();
    let base = run_optft(&w, 1);
    let rollbacks = base.runs.iter().filter(|r| r.rolled_back).count();
    assert_eq!(rollbacks, 1, "{}: one testing input mis-speculates", w.name);
    for threads in [2, 3, 8] {
        assert_eq!(
            optft_canonical_json(&run_optft(&w, threads)),
            optft_canonical_json(&base),
            "{}: {threads} threads changed the OptFT canonical output",
            w.name
        );
    }

    let params = WorkloadParams::small();
    for (w, expected) in [(c_suite::go(&params), 2), (c_suite::vim(&params), 6)] {
        let run = |threads: usize| {
            Pipeline::new(w.program.clone())
                .with_config(with_threads(threads))
                .run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints)
        };
        let base = run(1);
        let rollbacks = base.runs.iter().filter(|r| r.rolled_back).count();
        assert_eq!(
            rollbacks, expected,
            "{}: rollbacks at unit-test scale",
            w.name
        );
        for threads in [2, 3, 8] {
            assert_eq!(
                optslice_canonical_json(&run(threads)),
                optslice_canonical_json(&base),
                "{}: {threads} threads changed the OptSlice canonical output",
                w.name
            );
        }
    }
}

/// The profiling phase, both static phases and the dynamic phase must
/// share the pipeline's one pool: `pipeline.pool.built` never moves after
/// construction, while `pipeline.pool.reuse` counts every phase that
/// borrowed it.
#[test]
fn profiling_and_static_phases_share_one_pool() {
    let params = WorkloadParams::small();
    let w = c_suite::all(&params).swap_remove(0);

    let pipeline = Pipeline::new(w.program.clone());
    let built_before = pipeline.metrics().counter_value("pipeline.pool.built");
    assert_eq!(built_before, 1, "construction builds exactly one pool");

    pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs);

    assert_eq!(
        pipeline.metrics().counter_value("pipeline.pool.built"),
        built_before,
        "a phase constructed its own pool instead of borrowing the pipeline's"
    );
    assert!(
        pipeline.metrics().counter_value("pipeline.pool.reuse") >= 3,
        "profiling, the static phase and the dynamic phase should each borrow the shared pool"
    );

    // Re-sizing via `with_config` is the only other legal construction
    // site; it replaces the pool exactly once.
    let resized = Pipeline::new(w.program).with_config(with_threads(2));
    assert_eq!(
        resized.metrics().counter_value("pipeline.pool.built"),
        2,
        "with_config re-sizes the shared pool exactly once"
    );
}
