//! Criterion benchmarks for the dynamic phase: the interpreter step loop
//! (pre-decoded operand/callee resolution, plan-gated dispatch),
//! FastTrack's same-epoch fast path over dense shadow memory, and Giri's
//! per-event append path.
//!
//! Run via `cargo bench --bench dynamic_phase`; `OHA_SMOKE=1` shrinks the
//! workloads for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use oha_fasttrack::{Detector, FastTrackTool};
use oha_giri::GiriTool;
use oha_interp::{Addr, Machine, MachineConfig, NoopTracer, ObjId, ThreadId};
use oha_ir::InstId;
use oha_workloads::{c_suite, java_suite, WorkloadParams};

fn small_params() -> WorkloadParams {
    // Criterion iterates each body many times; unit-test scale keeps a
    // full run under a few minutes while preserving the loop shapes.
    WorkloadParams::small()
}

fn bench_step_loop(c: &mut Criterion) {
    let params = small_params();
    let mut g = c.benchmark_group("step_loop");
    for w in [java_suite::lusearch(&params), c_suite::vim(&params)] {
        let machine = Machine::new(&w.program, MachineConfig::default());
        let input = &w.testing_inputs[0];
        // Uninstrumented interpretation: the floor every analysis pays.
        g.bench_function(&format!("noop_{}", w.name), |b| {
            b.iter(|| machine.run(black_box(input), &mut NoopTracer));
        });
        // Full FastTrack with and without a (dispatch-everything) plan:
        // the plan's per-site mask load is the only difference.
        let plan = FastTrackTool::plan_for(&w.program, None, None);
        g.bench_function(&format!("fasttrack_planned_{}", w.name), |b| {
            b.iter(|| {
                let mut tool = FastTrackTool::full();
                machine.run_with_plan(black_box(input), &mut tool, Some(&plan));
                plan.take_elisions();
            });
        });
        g.bench_function(&format!("fasttrack_unplanned_{}", w.name), |b| {
            b.iter(|| {
                let mut tool = FastTrackTool::full();
                machine.run(black_box(input), &mut tool);
            });
        });
    }
    g.finish();
}

fn bench_fasttrack_epoch_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("fasttrack_shadow");
    g.bench_function("same_epoch_rw_dense", |b| {
        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        let addrs: Vec<Addr> = (0..256u32).map(|i| Addr::new(ObjId(i), 0)).collect();
        for &a in &addrs {
            d.write(ThreadId(0), a, InstId::new(1));
        }
        b.iter(|| {
            for &a in &addrs {
                d.write(ThreadId(0), black_box(a), InstId::new(1));
                d.read(ThreadId(0), black_box(a), InstId::new(2));
            }
        });
    });
    g.finish();
}

fn bench_giri_event_append(c: &mut Criterion) {
    let params = small_params();
    let w = c_suite::go(&params);
    let machine = Machine::new(&w.program, MachineConfig::default());
    let input = &w.testing_inputs[0];
    let mut g = c.benchmark_group("giri_append");
    g.bench_function(&format!("full_trace_dense_{}", w.name), |b| {
        b.iter(|| {
            let mut tool = GiriTool::full(&w.program);
            machine.run(black_box(input), &mut tool);
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_step_loop, bench_fasttrack_epoch_fast_path, bench_giri_event_append
}
criterion_main!(benches);
