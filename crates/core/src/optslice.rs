//! OptSlice: optimistic dynamic backward slicing (paper §5).

use std::time::{Duration, Instant};

use oha_giri::{DynamicSlice, GiriTool};
use oha_interp::{fastpath, InstrPlan, Machine, MultiTracer, NoopTracer};
use oha_invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha_ir::{FingerprintHasher, InstId, Program};
use oha_obs::{RunReport, SpanStat};
use oha_pointsto::{analyze, PointsTo, PointsToConfig, Sensitivity};
use oha_slicing::{slice, SliceConfig, StaticSlice};
use oha_store::{ArtifactKey, ArtifactKind, OptSliceArtifact, StaticSideArtifact};

use crate::pipeline::Pipeline;

/// One static-analysis side (sound or predicated) of Table 2.
#[derive(Clone, Debug)]
pub struct StaticSideReport {
    /// The most accurate points-to analysis that completed.
    pub points_to_at: Sensitivity,
    /// Points-to analysis time.
    pub points_to_time: Duration,
    /// The most accurate slicer that completed.
    pub slice_at: Sensitivity,
    /// Slicing time.
    pub slice_time: Duration,
    /// Static slice size in instructions (Figure 10's metric).
    pub slice_size: usize,
    /// Load/store alias rate (Figure 9's metric). On the sound side this
    /// is restricted to the accesses the predicated analysis considers —
    /// the paper's fairness rule (§6.3).
    pub alias_rate: f64,
}

/// One testing-input execution of OptSlice and its baselines.
#[derive(Clone, Debug)]
pub struct OptSliceRun {
    /// Uninstrumented execution time.
    pub baseline: Duration,
    /// Traditional hybrid slicer (traces the sound static slice).
    pub hybrid: Duration,
    /// OptSlice's speculative run (includes invariant checking, excludes
    /// rollback).
    pub optimistic: Duration,
    /// Invariant-checker-only run (the Figure 6 invariant-check component).
    pub checker_only: Duration,
    /// Whether the speculative run rolled back.
    pub rolled_back: bool,
    /// Rollback re-execution time (zero when none).
    pub rollback: Duration,
    /// Dynamic slice from the hybrid slicer.
    pub hybrid_slice_len: usize,
    /// OptSlice's final dynamic slice (speculative or rollback result).
    pub opt_slice_len: usize,
    /// Soundness check: the final optimistic slice equals the hybrid one.
    pub slices_equal: bool,
}

/// The result of the whole OptSlice pipeline on one benchmark.
#[derive(Clone, Debug)]
pub struct OptSliceOutcome {
    /// Merged likely invariants.
    pub invariants: InvariantSet,
    /// Profiling corpus time.
    pub profile_time: Duration,
    /// Profiling runs consumed before the invariant set stabilized.
    pub profiling_runs_used: usize,
    /// The sound static side (feeds the traditional hybrid slicer).
    pub sound: StaticSideReport,
    /// The predicated static side (feeds OptSlice).
    pub pred: StaticSideReport,
    /// Per-testing-input measurements.
    pub runs: Vec<OptSliceRun>,
    /// Machine-readable account of the whole run: phase spans
    /// (`optslice/profile`, `optslice/static_pred/slice`, …), DUG and
    /// budget gauges, tracing counters, and mis-speculation causes by
    /// invariant class (`optslice.rollback.cause.<class>`).
    pub report: RunReport,
}

impl OptSliceOutcome {
    /// Dynamic speedup of OptSlice (incl. rollbacks) over the hybrid
    /// slicer: total analysis overhead above baseline across the corpus
    /// (robust against near-zero per-run denominators).
    pub fn speedup_vs_hybrid(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for r in &self.runs {
            den += (r.optimistic + r.rollback)
                .checked_sub(r.baseline)
                .unwrap_or(Duration::from_nanos(1))
                .as_secs_f64();
            num += r
                .hybrid
                .checked_sub(r.baseline)
                .unwrap_or(Duration::from_nanos(1))
                .as_secs_f64();
        }
        if den <= 0.0 {
            1.0
        } else {
            num / den
        }
    }

    /// Fraction of testing runs that rolled back.
    pub fn misspeculation_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.rolled_back).count() as f64 / self.runs.len() as f64
    }

    /// Whether every final optimistic slice matched the hybrid slicer's.
    pub fn all_slices_equal(&self) -> bool {
        self.runs.iter().all(|r| r.slices_equal)
    }
}

/// The OptSlice driver. Use [`Pipeline::run_optslice`].
pub struct OptSlice<'a> {
    pipeline: &'a Pipeline,
    endpoints: Vec<InstId>,
}

struct StaticSide {
    report: StaticSideReport,
    slice: StaticSlice,
    pt: PointsTo,
}

/// Everything OptSlice's dynamic phase needs from the (cacheable)
/// profiling and static phases, plus save/invalidate bookkeeping.
struct SliceStatics {
    invariants: InvariantSet,
    profile_time: Duration,
    profiling_used: usize,
    sound_report: StaticSideReport,
    pred_report: StaticSideReport,
    sound_slice: StaticSlice,
    pred_slice: StaticSlice,
    from_cache: bool,
    key: Option<ArtifactKey>,
    /// Freshly computed artifact, persisted only after a rollback-free
    /// dynamic phase.
    pending: Option<OptSliceArtifact>,
}

/// Pre-compiled instrumentation plans for the dynamic phase, one per run
/// configuration. Compiled once per pipeline run and reused across every
/// testing input; each tool absorbs (or drains) the plan's elision tally
/// after its run so per-input counters stay exact.
struct OptSlicePlans {
    hybrid: InstrPlan,
    checker: InstrPlan,
    optimistic: InstrPlan,
}

impl OptSlicePlans {
    fn compile(
        program: &Program,
        sound_slice: &StaticSlice,
        pred_slice: &StaticSlice,
        invariants: &InvariantSet,
    ) -> Self {
        let checker =
            InvariantChecker::plan_for(program, invariants, ChecksEnabled::for_optslice());
        // The speculative run multiplexes the optimistic slicer and the
        // invariant checker over one execution: union of both plans. The
        // slicer's elision tally stays exact because the checker never
        // requires a traceable (load/store/compute/input/output) bit the
        // slicer elides.
        let mut optimistic = GiriTool::plan_for(program, Some(pred_slice.sites()));
        optimistic.union_with(&checker);
        Self {
            hybrid: GiriTool::plan_for(program, Some(sound_slice.sites())),
            checker,
            optimistic,
        }
    }
}

fn side_artifact(side: &StaticSide) -> StaticSideArtifact {
    StaticSideArtifact {
        points_to_at: side.report.points_to_at,
        points_to_ns: side.report.points_to_time.as_nanos() as u64,
        slice_at: side.report.slice_at,
        slice_ns: side.report.slice_time.as_nanos() as u64,
        slice: side.slice.clone(),
        alias_rate: side.report.alias_rate,
        pt_stats: side.pt.stats(),
    }
}

fn side_report(side: &StaticSideArtifact, live: Duration) -> StaticSideReport {
    StaticSideReport {
        points_to_at: side.points_to_at,
        points_to_time: live,
        slice_at: side.slice_at,
        slice_time: Duration::ZERO,
        slice_size: side.slice.len(),
        alias_rate: side.alias_rate,
    }
}

impl<'a> OptSlice<'a> {
    pub(crate) fn new(pipeline: &'a Pipeline, endpoints: Vec<InstId>) -> Self {
        Self {
            pipeline,
            endpoints,
        }
    }

    /// Replays one static side's span shape into the registry and records
    /// its stats. The spans carry the tree shape (`static_<label>` >
    /// `pointsto`/`slice`); the measured durations live in the side's
    /// report, because the side may have been computed concurrently with
    /// its sibling on another thread, where the registry's single span
    /// stack cannot time it.
    fn record_side(&self, side: &StaticSide, label: &str) {
        let registry = self.pipeline.metrics();
        let phase_span = registry.span(&format!("static_{label}"));
        let _ = registry.span("pointsto").finish();
        let _ = registry.span("slice").finish();
        let _ = phase_span.finish();
        side.pt
            .stats()
            .record(registry, &format!("optslice.pointsto.{label}"));
        side.slice
            .stats()
            .record(registry, &format!("optslice.slice.{label}"));
    }

    /// Stable fingerprint of the slice endpoints (part of the cache
    /// predicate: different endpoints yield different static slices).
    fn endpoints_fingerprint(&self) -> oha_ir::Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write(b"oha-endpoints-v1");
        h.write_u64(self.endpoints.len() as u64);
        for &e in &self.endpoints {
            h.write_u64(u64::from(e.raw()));
        }
        h.finish()
    }

    /// Phases 1 and 2 (profiling, sound + predicated points-to and
    /// slicing), served from the artifact store when warm. The predicate
    /// side of the key folds together the invariant-set fingerprint, the
    /// endpoints and every static budget (including the slicer's visit
    /// budget, which decides the CS→CI fallback).
    fn static_phase(
        &self,
        profiling: &[Vec<i64>],
        registry: &oha_obs::MetricsRegistry,
    ) -> SliceStatics {
        let program = self.pipeline.program();
        let (invariants, profile_time, profiling_used) = self.pipeline.profile_phase(profiling, 6);

        let key = self.pipeline.store().map(|_| {
            let predicate = invariants
                .fingerprint()
                .combine(self.endpoints_fingerprint())
                .combine(self.pipeline.budget_fingerprint(true));
            ArtifactKey::new(program.fingerprint(), predicate)
        });

        if let (Some(store), Some(key)) = (self.pipeline.store(), &key) {
            let start = Instant::now();
            let loaded = store.load_optslice(key);
            let load_time = start.elapsed();
            if let Some(a) = loaded {
                registry.observe_duration("store.load.hit_ns", load_time);
                registry.trace_instant("store.optslice.hit");
                let elapsed = load_time;
                // Registry parity with the cold path, with the cold
                // durations replayed under `cached/*` spans.
                a.sound.pt_stats.record(registry, "optslice.pointsto.sound");
                a.pred.pt_stats.record(registry, "optslice.pointsto.pred");
                a.sound
                    .slice
                    .stats()
                    .record(registry, "optslice.slice.sound");
                a.pred.slice.stats().record(registry, "optslice.slice.pred");
                for (path, ns) in [
                    ("cached/static_sound/pointsto", a.sound.points_to_ns),
                    ("cached/static_sound/slice", a.sound.slice_ns),
                    ("cached/static_pred/pointsto", a.pred.points_to_ns),
                    ("cached/static_pred/slice", a.pred.slice_ns),
                ] {
                    registry.add_span_stat(
                        path,
                        SpanStat {
                            total: Duration::from_nanos(ns),
                            count: 1,
                        },
                    );
                }
                return SliceStatics {
                    invariants: a.invariants,
                    profile_time,
                    profiling_used,
                    sound_report: side_report(&a.sound, elapsed),
                    pred_report: side_report(&a.pred, Duration::ZERO),
                    sound_slice: a.sound.slice,
                    pred_slice: a.pred.slice,
                    from_cache: true,
                    key: Some(*key),
                    pending: None,
                };
            }
            registry.observe_duration("store.load.miss_ns", load_time);
            registry.trace_instant("store.optslice.miss");
        }

        // The sound and predicated static sides are independent until the
        // alias-rate fairness fixup below, so they run as a two-node task
        // DAG on the pipeline's shared pool (serially, sound first, on a
        // one-thread pool). The branches are registry-free — the
        // single-threaded metrics registry stays on this thread — and
        // their span shapes and stats are replayed in fixed sound-then-
        // pred order after the join, so the registry contents never
        // depend on thread count.
        let pool = self.pipeline.pool();
        let serial_cutoff = oha_pointsto::serial_cutoff_from_env();
        let dense_cutoff = oha_pointsto::dense_cutoff_from_env();
        let cfg = self.pipeline.config();
        let endpoints = &self.endpoints;
        let (mut sound, pred) = pool.join(
            || {
                compute_side(
                    program,
                    endpoints,
                    cfg,
                    pool,
                    serial_cutoff,
                    dense_cutoff,
                    None,
                )
            },
            || {
                compute_side(
                    program,
                    endpoints,
                    cfg,
                    pool,
                    serial_cutoff,
                    dense_cutoff,
                    Some(&invariants),
                )
            },
        );
        self.record_side(&sound, "sound");
        self.record_side(&pred, "pred");
        // Figure 9's fairness rule: report the sound alias rate over the
        // accesses the predicated analysis still considers.
        sound.report.alias_rate = sound.pt.alias_rate_over(&pred.pt);

        let pending = if key.is_some() {
            Some(OptSliceArtifact {
                invariants: invariants.clone(),
                profiling_runs_used: profiling_used as u64,
                profile_ns: profile_time.as_nanos() as u64,
                sound: side_artifact(&sound),
                pred: side_artifact(&pred),
                pt_pred: pred.pt.clone(),
            })
        } else {
            None
        };

        SliceStatics {
            invariants,
            profile_time,
            profiling_used,
            sound_report: sound.report,
            pred_report: pred.report,
            sound_slice: sound.slice,
            pred_slice: pred.slice,
            from_cache: false,
            key,
            pending,
        }
    }

    pub(crate) fn run(self, profiling: &[Vec<i64>], testing: &[Vec<i64>]) -> OptSliceOutcome {
        let program = self.pipeline.program();
        let registry = self.pipeline.metrics().clone();
        let machine = Machine::new(program, self.pipeline.config().machine);
        // The speculative runs dispatch through a metrics-attached machine:
        // `optslice.spec.hook.*` counts every event the optimistic slicer
        // could have seen, elided or traced.
        let spec_machine = Machine::new(program, self.pipeline.config().machine)
            .with_metrics(&registry, "optslice.spec");
        let pipeline_span = registry.span("optslice");

        let statics = self.static_phase(profiling, &registry);
        let SliceStatics {
            invariants,
            profile_time,
            profiling_used,
            sound_report,
            pred_report,
            sound_slice,
            pred_slice,
            from_cache,
            key,
            pending,
        } = statics;

        registry.observe_duration("optslice.phase.profile_ns", profile_time);
        registry.observe_duration(
            "optslice.phase.static_ns",
            sound_report.points_to_time
                + sound_report.slice_time
                + pred_report.points_to_time
                + pred_report.slice_time,
        );

        // Fast path: compile per-instruction instrumentation plans once and
        // reuse them for every testing input. The reference path passes no
        // plan and dispatches every event.
        let plans = fastpath::enabled()
            .then(|| OptSlicePlans::compile(program, &sound_slice, &pred_slice, &invariants));

        let dynamic_span = registry.span("dynamic");
        let mut runs = Vec::with_capacity(testing.len());
        for input in testing {
            let span = registry.span("baseline");
            // Uninstrumented: no plan either (a plan that elides everything
            // would swap free no-op dispatches for elision bookkeeping).
            machine.run(input, &mut NoopTracer);
            let baseline = span.finish();

            let span = registry.span("hybrid");
            let mut hybrid = GiriTool::hybrid(program, sound_slice.sites());
            machine.run_with_plan(input, &mut hybrid, plans.as_ref().map(|p| &p.hybrid));
            let hybrid_time = span.finish();
            if let Some(p) = &plans {
                hybrid.absorb_plan_elisions(&p.hybrid.take_elisions());
            }
            let hybrid_slice = self.slice_endpoints(&hybrid);

            let span = registry.span("checker");
            let mut checker_only =
                InvariantChecker::new(program, &invariants, ChecksEnabled::for_optslice());
            machine.run_with_plan(input, &mut checker_only, plans.as_ref().map(|p| &p.checker));
            let checker_only_time = span.finish();
            if let Some(p) = &plans {
                // Nothing to absorb: the checker's stats count only the
                // events its plan dispatches. Drain the tally for reuse.
                p.checker.take_elisions();
            }

            // Speculative run with the schedule recorded for rollback.
            let span = registry.span("optimistic");
            let opt_tool = GiriTool::hybrid(program, pred_slice.sites());
            let checker =
                InvariantChecker::new(program, &invariants, ChecksEnabled::for_optslice());
            let mut combined = MultiTracer::new(opt_tool, checker);
            let (_, schedule) = spec_machine.run_recording_with_plan(
                input,
                &mut combined,
                plans.as_ref().map(|p| &p.optimistic),
            );
            let optimistic_time = span.finish();
            if let Some(p) = &plans {
                combined
                    .first
                    .absorb_plan_elisions(&p.optimistic.take_elisions());
            }
            combined.first.record_metrics(&registry, "optslice.giri");
            combined.second.record_metrics(&registry, "optslice.check");

            let rolled_back = combined.second.is_violated();
            let (opt_slice, rollback) = if rolled_back {
                registry.add("optslice.rollback", 1);
                for v in combined.second.violations() {
                    registry.add(&format!("optslice.rollback.cause.{}", v.class()), 1);
                }
                // Replay the identical interleaving under the traditional
                // hybrid slicer.
                let span = registry.span("rollback");
                let mut redo = GiriTool::hybrid(program, sound_slice.sites());
                machine.run_replay_with_plan(
                    input,
                    &schedule,
                    &mut redo,
                    plans.as_ref().map(|p| &p.hybrid),
                );
                let rollback_time = span.finish();
                if let Some(p) = &plans {
                    redo.absorb_plan_elisions(&p.hybrid.take_elisions());
                }
                (self.slice_endpoints(&redo), rollback_time)
            } else {
                (self.slice_endpoints(&combined.first), Duration::ZERO)
            };

            registry.observe_duration("optslice.run.baseline_ns", baseline);
            registry.observe_duration("optslice.run.optimistic_ns", optimistic_time + rollback);
            runs.push(OptSliceRun {
                baseline,
                hybrid: hybrid_time,
                optimistic: optimistic_time,
                checker_only: checker_only_time,
                rolled_back,
                rollback,
                hybrid_slice_len: hybrid_slice.len(),
                opt_slice_len: opt_slice.len(),
                slices_equal: hybrid_slice == opt_slice,
            });
        }
        registry.observe_duration("optslice.phase.dynamic_ns", dynamic_span.finish());
        pipeline_span.finish();

        // Store bookkeeping: save a clean cold result; a rollback means
        // the predicate mis-speculated, so skip the save (cold) or
        // invalidate the entry (warm).
        if let (Some(store), Some(key)) = (self.pipeline.store(), &key) {
            let any_rollback = runs.iter().any(|r| r.rolled_back);
            if any_rollback {
                if from_cache {
                    store.invalidate(ArtifactKind::OptSlice, key);
                }
            } else if let Some(artifact) = &pending {
                if store.save_optslice(key, artifact).is_err() {
                    registry.add("store.save_errors", 1);
                }
            }
            store.stats().record(&registry, "store");
        }

        let mut outcome = OptSliceOutcome {
            invariants,
            profile_time,
            profiling_runs_used: profiling_used,
            sound: sound_report,
            pred: pred_report,
            runs,
            report: RunReport::default(),
        };
        registry.set_gauge("optslice.slice_size.sound", outcome.sound.slice_size as f64);
        registry.set_gauge("optslice.slice_size.pred", outcome.pred.slice_size as f64);
        registry.set_gauge("optslice.alias_rate.sound", outcome.sound.alias_rate);
        registry.set_gauge("optslice.alias_rate.pred", outcome.pred.alias_rate);
        registry.set_gauge("optslice.speedup_vs_hybrid", outcome.speedup_vs_hybrid());
        registry.set_gauge(
            "optslice.misspeculation_rate",
            outcome.misspeculation_rate(),
        );
        let mut report = registry.report("optslice");
        report.meta.insert("tool".into(), "optslice".into());
        report
            .meta
            .insert("testing_runs".into(), outcome.runs.len().to_string());
        report
            .meta
            .insert("profiling_runs_used".into(), profiling_used.to_string());
        if self.pipeline.store().is_some() {
            report.meta.insert(
                "static_cache".into(),
                if from_cache { "hit" } else { "miss" }.into(),
            );
        }
        outcome.report = report;
        outcome
    }

    fn slice_endpoints(&self, tool: &GiriTool<'_>) -> DynamicSlice {
        let mut acc = DynamicSlice::default();
        for &e in &self.endpoints {
            acc.union_with(&tool.slice_of(e));
        }
        acc
    }
}

/// Runs the most accurate analyses that complete within budget: CS first,
/// CI as the fallback — the paper's "most accurate static analysis that
/// will complete on that benchmark without exhausting available
/// computational resources" (§6.1.2). Registry-free (each step times
/// itself with a plain clock) so the sound and predicated sides can run
/// concurrently; the caller replays the span shape and stats after the
/// join.
#[allow(clippy::too_many_arguments)]
fn compute_side(
    program: &Program,
    endpoints: &[InstId],
    cfg: &crate::pipeline::PipelineConfig,
    pool: oha_par::Pool,
    serial_cutoff: usize,
    dense_cutoff: usize,
    invariants: Option<&InvariantSet>,
) -> StaticSide {
    let pt_cfg = |sensitivity| PointsToConfig {
        sensitivity,
        invariants,
        clone_budget: cfg.ctx_budget,
        solver_budget: cfg.solver_budget,
        pool,
        serial_cutoff,
        dense_cutoff,
    };
    let start = Instant::now();
    let (pt, pt_at): (PointsTo, Sensitivity) =
        match analyze(program, &pt_cfg(Sensitivity::ContextSensitive)) {
            Ok(pt) => (pt, Sensitivity::ContextSensitive),
            Err(_) => (
                analyze(program, &pt_cfg(Sensitivity::ContextInsensitive))
                    .expect("context-insensitive points-to always completes"),
                Sensitivity::ContextInsensitive,
            ),
        };
    let points_to_time = start.elapsed();

    let sl_cfg = |sensitivity| SliceConfig {
        sensitivity,
        invariants,
        ctx_budget: cfg.ctx_budget,
        visit_budget: cfg.visit_budget,
        pool,
    };
    let start = Instant::now();
    let (static_slice, slice_at) = match slice(
        program,
        &pt,
        endpoints,
        &sl_cfg(Sensitivity::ContextSensitive),
    ) {
        Ok(s) => (s, Sensitivity::ContextSensitive),
        Err(_) => (
            slice(
                program,
                &pt,
                endpoints,
                &sl_cfg(Sensitivity::ContextInsensitive),
            )
            .expect("context-insensitive slicing always completes"),
            Sensitivity::ContextInsensitive,
        ),
    };
    let slice_time = start.elapsed();

    StaticSide {
        report: StaticSideReport {
            points_to_at: pt_at,
            points_to_time,
            slice_at,
            slice_time,
            slice_size: static_slice.len(),
            alias_rate: pt.alias_rate(),
        },
        slice: static_slice,
        pt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_ir::{InstKind, Operand, Program, ProgramBuilder};
    use Operand::{Const, Reg as R};

    /// An interpreter-style program: dispatch through function pointers on
    /// input, with a cold error path.
    fn dispatcher() -> Program {
        let mut pb = ProgramBuilder::new();
        let op_add = pb.declare("op_add", 1);
        let op_mul = pb.declare("op_mul", 1);
        let op_err = pb.declare("op_err", 1);
        let mut m = pb.function("main", 0);
        let head = m.block();
        let body = m.block();
        let pick_mul = m.block();
        let pick_err = m.block();
        let do_call = m.block();
        let exit = m.block();
        let acc = m.copy(Const(0));
        let fp = m.reg();
        m.jump(head);
        m.select(head);
        let more = m.input();
        m.branch(R(more), body, exit);
        m.select(body);
        let sel = m.input();
        let fadd = m.addr_func(op_add);
        m.copy_to(fp, R(fadd));
        let is_mul = m.cmp(oha_ir::CmpOp::Eq, R(sel), Const(1));
        let is_err = m.cmp(oha_ir::CmpOp::Eq, R(sel), Const(2));
        let check_err = m.block();
        m.branch(R(is_mul), pick_mul, check_err);
        m.select(pick_mul);
        let fmul = m.addr_func(op_mul);
        m.copy_to(fp, R(fmul));
        m.jump(do_call);
        m.select(check_err);
        m.branch(R(is_err), pick_err, do_call);
        m.select(pick_err);
        let ferr = m.addr_func(op_err);
        m.copy_to(fp, R(ferr));
        m.jump(do_call);
        m.select(do_call);
        let r = m.call_indirect(R(fp), vec![R(acc)]);
        m.copy_to(acc, R(r));
        m.jump(head);
        m.select(exit);
        m.output(R(acc));
        m.ret(None);
        let main = pb.finish_function(m);
        for (name, op) in [
            ("op_add", oha_ir::BinOp::Add),
            ("op_mul", oha_ir::BinOp::Mul),
        ] {
            let mut f = pb.function(name, 1);
            let v = f.bin(op, R(f.param(0)), Const(3));
            f.ret(Some(R(v)));
            pb.finish_function(f);
        }
        let mut f = pb.function("op_err", 1);
        f.output(Const(-999));
        f.ret(Some(Const(0)));
        pb.finish_function(f);
        pb.finish(main).unwrap()
    }

    fn endpoint(p: &Program) -> InstId {
        p.inst_ids()
            .find(|&i| {
                matches!(p.inst(i).kind, InstKind::Output { .. })
                    && p.function(p.func_of_inst(i)).name == "main"
            })
            .unwrap()
    }

    #[test]
    fn optslice_matches_hybrid_and_shrinks_static_slice() {
        let p = dispatcher();
        let e = endpoint(&p);
        let pipeline = Pipeline::new(p);
        // Profile only add/mul operations (sel 0/1).
        let profiling = vec![vec![1, 0, 1, 1, 0], vec![1, 1, 1, 0, 1, 1, 0, 0], vec![0]];
        let testing = vec![vec![1, 0, 1, 1, 1, 1, 0], vec![1, 1, 0], vec![0]];
        let outcome = pipeline.run_optslice(&profiling, &testing, &[e]);

        assert!(outcome.all_slices_equal(), "OptSlice must match hybrid");
        assert_eq!(outcome.misspeculation_rate(), 0.0);
        assert!(
            outcome.pred.slice_size < outcome.sound.slice_size,
            "predicated static slice smaller ({} !< {})",
            outcome.pred.slice_size,
            outcome.sound.slice_size
        );
        assert!(outcome.pred.alias_rate <= outcome.sound.alias_rate);
    }

    #[test]
    fn optslice_rolls_back_on_new_callee() {
        let p = dispatcher();
        let e = endpoint(&p);
        let pipeline = Pipeline::new(p);
        let profiling = vec![vec![1, 0, 1, 1, 0], vec![0]];
        // sel == 2 dispatches to op_err, a path (and callee) profiling
        // never saw: LUC and callee-set invariants are both violated.
        let testing = vec![vec![1, 2], vec![1, 0, 0]];
        let outcome = pipeline.run_optslice(&profiling, &testing, &[e]);
        assert!(outcome.runs[0].rolled_back, "unprofiled path rolls back");
        assert!(!outcome.runs[1].rolled_back);
        assert!(outcome.all_slices_equal(), "rollback restores the answer");
    }
}
