//! Dynamic-phase equivalence: a tool run under its compiled
//! instrumentation plan (the burst step loop, plan-gated dispatch and the
//! machine-side elision tally absorbed afterwards) must be observationally
//! identical to the same tool under [`Machine::run_reference`], the
//! plan-less per-instruction oracle that dispatches every hook.
//!
//! For every suite workload and testing input, FastTrack (full, hybrid,
//! optimistic), Giri (full, hybrid, optimistic), the invariant checker and
//! the speculative tool + checker composite are run both ways. The two runs
//! must agree on the `RunResult`, on races, slices and violations, on the
//! tool's counters, and on every per-hook machine total (dispatched +
//! elided). A third test checks the production pipeline, with its artifact
//! store cold and warm, against the oracle's answers.

use std::fmt::Debug;

use oha::core::{
    optft_canonical_json, optslice_canonical_json, Pipeline, PipelineConfig, StoreConfig,
};
use oha::fasttrack::FastTrackTool;
use oha::giri::{DynamicSlice, GiriTool};
use oha::interp::{
    HookCounters, InstrPlan, Machine, MachineConfig, MultiTracer, PlanElisions, Tracer,
};
use oha::invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha::ir::{InstId, InstKind};
use oha::obs::MetricsRegistry;
use oha::pointsto::{analyze, PointsToConfig};
use oha::races::{detect, StaticRaces};
use oha::slicing::{slice, SliceConfig, StaticSlice};
use oha::workloads::{c_suite, java_suite, Workload, WorkloadParams};

fn all_workloads() -> Vec<Workload> {
    let params = WorkloadParams::small();
    java_suite::all(&params)
        .into_iter()
        .chain(c_suite::all(&params))
        .collect()
}

/// The static-phase results the dynamic tools are configured from: the
/// pipeline's profiled invariants (with its validated lock elisions), and
/// sound and predicated racy sites and slices.
struct Statics {
    invariants: InvariantSet,
    races_sound: StaticRaces,
    races_pred: StaticRaces,
    slice_sound: StaticSlice,
    slice_pred: StaticSlice,
    endpoints: Vec<InstId>,
}

fn statics(w: &Workload) -> Statics {
    let p = &w.program;
    let invariants = Pipeline::new(p.clone())
        .run_optft(&w.profiling_inputs, &[])
        .invariants;
    let pt_sound = analyze(p, &PointsToConfig::default()).expect("CI points-to completes");
    let pt_pred = analyze(
        p,
        &PointsToConfig {
            invariants: Some(&invariants),
            ..PointsToConfig::default()
        },
    )
    .expect("CI points-to completes");
    let endpoints = if w.endpoints.is_empty() {
        p.inst_ids()
            .filter(|&i| matches!(p.inst(i).kind, InstKind::Output { .. }))
            .collect()
    } else {
        w.endpoints.clone()
    };
    let slice_sound =
        slice(p, &pt_sound, &endpoints, &SliceConfig::default()).expect("CI slice completes");
    let slice_pred = slice(
        p,
        &pt_pred,
        &endpoints,
        &SliceConfig {
            invariants: Some(&invariants),
            ..SliceConfig::default()
        },
    )
    .expect("CI slice completes");
    Statics {
        races_sound: detect(p, &pt_sound, None),
        races_pred: detect(p, &pt_pred, Some(&invariants)),
        invariants,
        slice_sound,
        slice_pred,
        endpoints,
    }
}

/// The pipeline's default schedule, plus a one-instruction quantum that
/// hands the burst loop the most cold fallbacks and slot boundaries.
fn schedules() -> [MachineConfig; 2] {
    let default = MachineConfig::default();
    [
        default,
        MachineConfig {
            seed: 16,
            quantum: 1,
            ..default
        },
    ]
}

/// A machine whose hook counters count (detached counters read 0), with
/// its own registry so the totals are per run.
fn counting_machine(w: &Workload, config: MachineConfig) -> Machine<'_> {
    Machine::new(&w.program, config).with_metrics(&MetricsRegistry::new(), "run")
}

/// Every hook and scheduler counter of a machine, in declaration order.
fn hook_totals(h: &HookCounters) -> [u64; 15] {
    [
        &h.load,
        &h.store,
        &h.lock,
        &h.unlock,
        &h.spawn,
        &h.join,
        &h.thread_exit,
        &h.block_enter,
        &h.call,
        &h.ret,
        &h.input,
        &h.output,
        &h.compute,
        &h.sched_decisions,
        &h.sched_preemptions,
    ]
    .map(|c| c.get())
}

/// How one tool configuration is built, planned, credited with the
/// machine's elisions and observed.
struct Tool<'a, T, O> {
    label: &'a str,
    make: &'a dyn Fn() -> T,
    plan: &'a dyn Fn(&T) -> InstrPlan,
    absorb: &'a dyn Fn(&mut T, &PlanElisions),
    observe: &'a dyn Fn(&T) -> O,
}

/// Runs `tool` on `input` under the oracle and under its own plan (each on
/// a fresh counting machine), at every schedule, and requires the two to
/// agree on everything observable.
fn check<T: Tracer, O: PartialEq + Debug>(w: &Workload, input: &[i64], tool: Tool<'_, T, O>) {
    for config in schedules() {
        let machine = counting_machine(w, config);
        let mut reference = (tool.make)();
        let reference_result = machine.run_reference(input, &mut reference);
        let reference_hooks = hook_totals(machine.metrics());

        let machine = counting_machine(w, config);
        let mut planned = (tool.make)();
        let plan = (tool.plan)(&planned);
        let planned_result = machine.run_with_plan(input, &mut planned, Some(&plan));
        (tool.absorb)(&mut planned, &plan.take_elisions());
        let planned_hooks = hook_totals(machine.metrics());

        let at = format!("{}/{} (seed {})", w.name, tool.label, config.seed);
        assert!(
            reference_hooks.iter().any(|&n| n > 0),
            "{at}: no hook was counted"
        );
        assert_eq!(
            reference_result, planned_result,
            "{at}: run results diverged"
        );
        assert_eq!(
            reference_hooks, planned_hooks,
            "{at}: per-hook totals diverged"
        );
        assert_eq!(
            (tool.observe)(&reference),
            (tool.observe)(&planned),
            "{at}: answers or tool counters diverged"
        );
    }
}

fn checker_observables(c: &InvariantChecker<'_>) -> impl PartialEq + Debug {
    (c.violations().cloned().collect::<Vec<_>>(), c.stats())
}

fn fasttrack_observables(t: &FastTrackTool<'_>) -> impl PartialEq + Debug {
    (t.races().clone(), t.counters(), t.detector().counters())
}

fn giri_observables(t: &GiriTool<'_>, endpoints: &[InstId]) -> impl PartialEq + Debug {
    let slices: Vec<DynamicSlice> = endpoints.iter().map(|&e| t.slice_of(e)).collect();
    (slices, t.slice_all_outputs(), t.counters(), t.trace_len())
}

#[test]
fn optft_fast_path_matches_reference_on_all_workloads() {
    for w in all_workloads() {
        let s = statics(&w);
        let p = &w.program;
        let checks = ChecksEnabled::for_optft();
        let hybrid = || FastTrackTool::hybrid(s.races_sound.racy_sites());
        let optimistic =
            || FastTrackTool::optimistic(s.races_pred.racy_sites(), &s.invariants.elidable_locks);
        let checker = || InvariantChecker::new(p, &s.invariants, checks);
        let ft_plan = |t: &FastTrackTool<'_>| t.plan(p);
        let ft_absorb = FastTrackTool::absorb_plan_elisions;
        for input in &w.testing_inputs {
            for (label, make) in [
                ("fasttrack-full", &FastTrackTool::full as &dyn Fn() -> _),
                ("fasttrack-hybrid", &hybrid),
                ("fasttrack-optimistic", &optimistic),
            ] {
                check(
                    &w,
                    input,
                    Tool {
                        label,
                        make,
                        plan: &ft_plan,
                        absorb: &ft_absorb,
                        observe: &fasttrack_observables,
                    },
                );
            }
            check(
                &w,
                input,
                Tool {
                    label: "optft-checker",
                    make: &checker,
                    plan: &|c: &InvariantChecker<'_>| c.plan(p),
                    absorb: &|_, _| {},
                    observe: &checker_observables,
                },
            );
            check(
                &w,
                input,
                Tool {
                    label: "optft-speculative",
                    make: &|| MultiTracer::new(optimistic(), checker()),
                    plan: &|m: &MultiTracer<_, InvariantChecker<'_>>| {
                        let mut plan = m.first.plan(p);
                        plan.union_with(&m.second.plan(p));
                        plan
                    },
                    absorb: &|m, e| m.first.absorb_plan_elisions(e),
                    observe: &|m| {
                        (
                            fasttrack_observables(&m.first),
                            checker_observables(&m.second),
                        )
                    },
                },
            );
        }
    }
}

#[test]
fn optslice_fast_path_matches_reference_on_all_workloads() {
    for w in all_workloads() {
        let s = statics(&w);
        let p = &w.program;
        let checks = ChecksEnabled::for_optslice();
        let full = || GiriTool::full(p);
        let hybrid = || GiriTool::hybrid(p, s.slice_sound.sites());
        let optimistic = || GiriTool::hybrid(p, s.slice_pred.sites());
        let checker = || InvariantChecker::new(p, &s.invariants, checks);
        let giri_plan = |t: &GiriTool<'_>| t.plan();
        let giri_absorb = GiriTool::absorb_plan_elisions;
        let giri_observe = |t: &GiriTool<'_>| giri_observables(t, &s.endpoints);
        for input in &w.testing_inputs {
            for (label, make) in [
                ("giri-full", &full as &dyn Fn() -> _),
                ("giri-hybrid", &hybrid),
                ("giri-optimistic", &optimistic),
            ] {
                check(
                    &w,
                    input,
                    Tool {
                        label,
                        make,
                        plan: &giri_plan,
                        absorb: &giri_absorb,
                        observe: &giri_observe,
                    },
                );
            }
            check(
                &w,
                input,
                Tool {
                    label: "optslice-checker",
                    make: &checker,
                    plan: &|c: &InvariantChecker<'_>| c.plan(p),
                    absorb: &|_, _| {},
                    observe: &checker_observables,
                },
            );
            check(
                &w,
                input,
                Tool {
                    label: "optslice-speculative",
                    make: &|| MultiTracer::new(optimistic(), checker()),
                    plan: &|m: &MultiTracer<GiriTool<'_>, InvariantChecker<'_>>| {
                        let mut plan = m.first.plan();
                        plan.union_with(&m.second.plan(p));
                        plan
                    },
                    absorb: &|m, e| m.first.absorb_plan_elisions(e),
                    observe: &|m| (giri_observe(&m.first), checker_observables(&m.second)),
                },
            );
        }
    }
}

/// The production pipeline (planned dynamic phase), with its artifact
/// store cold and then warm, reports on every testing input exactly the
/// races and slices that full FastTrack and full Giri find under the
/// oracle, and the two passes' canonical bytes are identical.
#[test]
fn fast_path_matches_reference_with_store_cold_and_warm() {
    let params = WorkloadParams::small();
    let workloads = [
        java_suite::all(&params).swap_remove(0),
        c_suite::all(&params).swap_remove(0),
    ];
    let root = std::env::temp_dir().join(format!("oha-dyn-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    for (i, w) in workloads.iter().enumerate() {
        let config = PipelineConfig {
            store: Some(StoreConfig::new(root.join(format!("store-{i}")))),
            ..PipelineConfig::default()
        };
        let machine = Machine::new(&w.program, config.machine);
        let mut oracle_races = Vec::new();
        let mut oracle_slice_lens = Vec::new();
        for input in &w.testing_inputs {
            let mut ft = FastTrackTool::full();
            machine.run_reference(input, &mut ft);
            oracle_races.push(ft.race_pairs());
            let mut giri = GiriTool::full(&w.program);
            machine.run_reference(input, &mut giri);
            let mut slice = DynamicSlice::default();
            for &e in &w.endpoints {
                slice.union_with(&giri.slice_of(e));
            }
            oracle_slice_lens.push(slice.len());
        }

        let mut canonical = Vec::new();
        for pass in ["cold", "warm"] {
            let pipeline = || Pipeline::new(w.program.clone()).with_config(config.clone());
            let ft = pipeline().run_optft(&w.profiling_inputs, &w.testing_inputs);
            for (run, oracle) in ft.runs.iter().zip(&oracle_races) {
                for (kind, races) in [
                    ("full", &run.races_full),
                    ("hybrid", &run.races_hybrid),
                    ("optimistic", &run.races_opt),
                ] {
                    assert_eq!(
                        races, oracle,
                        "{} ({pass} store): {kind} races diverged from the oracle",
                        w.name
                    );
                }
            }
            let sl = pipeline().run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints);
            for (run, &oracle) in sl.runs.iter().zip(&oracle_slice_lens) {
                assert!(
                    run.slices_equal,
                    "{} ({pass} store): slices diverged",
                    w.name
                );
                assert_eq!(
                    (run.hybrid_slice_len, run.opt_slice_len),
                    (oracle, oracle),
                    "{} ({pass} store): slice sizes diverged from the oracle",
                    w.name
                );
            }
            canonical.push((optft_canonical_json(&ft), optslice_canonical_json(&sl)));
        }
        assert_eq!(
            canonical[0], canonical[1],
            "{}: cold and warm canonical JSON diverged",
            w.name
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}
