//! OptSlice: optimistic dynamic backward slicing (paper §5).

use std::io;
use std::time::{Duration, Instant};

use oha_giri::{DynamicSlice, GiriTool};
use oha_interp::{InstrPlan, Machine, PlanElisions};
use oha_invariants::{ChecksEnabled, InvariantSet};
use oha_ir::{Fingerprint, FingerprintHasher, InstId, Program};
use oha_obs::{MetricsRegistry, RunReport};
use oha_pointsto::{analyze, PointsTo, PointsToConfig, Sensitivity};
use oha_slicing::{slice, SliceConfig, StaticSlice};
use oha_store::{ArtifactKey, ArtifactKind, OptSliceArtifact, StaticSideArtifact, Store};

use crate::driver::{
    record_cached_spans, Config, Measured, Optimistic, PlannedTool, Profile, Timed, Variant,
};
use crate::pipeline::{NeedCorpus, Pipeline, PipelineConfig, RunCorpus};

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
#[derive(Clone, Debug, Default)]
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

impl Timed for OptSliceRun {
    fn times(&self) -> (Duration, Duration, Duration) {
        (self.hybrid, self.optimistic + self.rollback, self.baseline)
    }

    fn rolled_back(&self) -> bool {
        self.rolled_back
    }
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
        crate::driver::speedup_vs_hybrid(&self.runs)
    }

    /// Fraction of testing runs that rolled back.
    pub fn misspeculation_rate(&self) -> f64 {
        crate::driver::misspeculation_rate(&self.runs)
    }

    /// Whether every final optimistic slice matched the hybrid slicer's.
    pub fn all_slices_equal(&self) -> bool {
        self.runs.iter().all(|r| r.slices_equal)
    }
}

impl PlannedTool for GiriTool<'_> {
    fn absorb_plan_elisions(&mut self, elisions: &PlanElisions) {
        GiriTool::absorb_plan_elisions(self, elisions);
    }

    fn record_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        GiriTool::record_metrics(self, registry, prefix);
    }

    fn plan(&self, _: &Program) -> InstrPlan {
        GiriTool::plan(self)
    }
}

/// OptSlice as an instance of the optimistic driver. Use
/// [`Pipeline::run_optslice`].
pub(crate) struct OptSlice<'p> {
    pub(crate) program: &'p Program,
    pub(crate) endpoints: &'p [InstId],
}

struct StaticSide {
    report: StaticSideReport,
    slice: StaticSlice,
    pt: PointsTo,
}

/// What OptSlice's dynamic phase reads from its (cacheable) static phase.
pub(crate) struct SliceStatics {
    sound_report: StaticSideReport,
    pred_report: StaticSideReport,
    sound_slice: StaticSlice,
    pred_slice: StaticSlice,
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

/// Records one static side's spans (`static_<label>` > `pointsto`/`slice`)
/// and stats. The side may have been computed concurrently with its
/// sibling on another thread, where the registry's single span stack
/// cannot time it, so each span records the time the side measured.
fn record_side(registry: &MetricsRegistry, side: &StaticSide, label: &str) {
    let phase_span = registry.span(&format!("static_{label}"));
    let report = &side.report;
    registry.span("pointsto").finish_as(report.points_to_time);
    registry.span("slice").finish_as(report.slice_time);
    phase_span.finish_as(report.points_to_time + report.slice_time);
    side.pt
        .stats()
        .record(registry, &format!("optslice.pointsto.{label}"));
    side.slice
        .stats()
        .record(registry, &format!("optslice.slice.{label}"));
}

impl Optimistic for OptSlice<'_> {
    const PREFIX: &'static str = "optslice";
    const TOOL: &'static str = "giri";
    const CHECKS: ChecksEnabled = ChecksEnabled::for_optslice();
    const KIND: ArtifactKind = ArtifactKind::OptSlice;
    /// The runs that hold a Giri trace — the hybrid slicer, the
    /// speculative run and its rollback — share lane 0, so at most one
    /// trace-sized buffer is live per request, on the caller's thread.
    /// The baseline and the checker share lane 1.
    const LANES: &'static [(Config, usize)] = &[
        (Config::Baseline, 1),
        (Config::Hybrid, 0),
        (Config::Checker, 1),
        (Config::Speculative, 0),
    ];

    type Statics = SliceStatics;
    type Artifact = OptSliceArtifact;
    type Tool<'s>
        = GiriTool<'s>
    where
        Self: 's;
    type Answer = DynamicSlice;
    type Run = OptSliceRun;
    type Outcome = OptSliceOutcome;

    /// Folds together the invariant-set fingerprint, the endpoints
    /// (different endpoints yield different static slices) and every
    /// static budget (including the slicer's visit budget, which decides
    /// the CS→CI fallback).
    fn predicate(
        &self,
        pipeline: &Pipeline,
        invariants: &InvariantSet,
        _corpus_key: Fingerprint,
    ) -> Fingerprint {
        let mut endpoints = FingerprintHasher::new();
        endpoints.write(b"oha-endpoints-v1");
        endpoints.write_u64(self.endpoints.len() as u64);
        for &e in self.endpoints {
            endpoints.write_u64(u64::from(e.raw()));
        }
        invariants
            .fingerprint()
            .combine(endpoints.finish())
            .combine(pipeline.budget_fingerprint(true))
    }

    fn load(store: &Store, key: &ArtifactKey) -> Option<OptSliceArtifact> {
        store.load_optslice(key)
    }

    fn save(store: &Store, key: &ArtifactKey, artifact: &OptSliceArtifact) -> io::Result<()> {
        store.save_optslice(key, artifact)
    }

    fn warm(
        &self,
        a: OptSliceArtifact,
        load_time: Duration,
        registry: &MetricsRegistry,
    ) -> (InvariantSet, SliceStatics) {
        a.sound.pt_stats.record(registry, "optslice.pointsto.sound");
        a.pred.pt_stats.record(registry, "optslice.pointsto.pred");
        a.sound
            .slice
            .stats()
            .record(registry, "optslice.slice.sound");
        a.pred.slice.stats().record(registry, "optslice.slice.pred");
        record_cached_spans(
            registry,
            &[
                ("cached/static_sound/pointsto", a.sound.points_to_ns),
                ("cached/static_sound/slice", a.sound.slice_ns),
                ("cached/static_pred/pointsto", a.pred.points_to_ns),
                ("cached/static_pred/slice", a.pred.slice_ns),
            ],
        );
        let statics = SliceStatics {
            sound_report: side_report(&a.sound, load_time),
            pred_report: side_report(&a.pred, Duration::ZERO),
            sound_slice: a.sound.slice,
            pred_slice: a.pred.slice,
        };
        (a.invariants, statics)
    }

    /// Sound and predicated points-to and slicing.
    fn analyze(
        &self,
        pipeline: &Pipeline,
        invariants: &mut InvariantSet,
        profile: Profile,
        _corpus: &RunCorpus<'_>,
        _machine: &Machine<'_>,
        save: bool,
    ) -> Result<(SliceStatics, Option<OptSliceArtifact>), NeedCorpus> {
        // The sound and predicated static sides are independent until the
        // alias-rate fairness fixup below, so they run as a two-node task
        // DAG on the pipeline's shared pool (serially, sound first, on a
        // one-thread pool). The branches are registry-free — the
        // single-threaded metrics registry stays on this thread — and
        // their spans and stats are recorded in fixed sound-then-pred
        // order after the join, so the registry contents never depend on
        // thread count.
        let pool = pipeline.pool();
        let config = pipeline.config();
        let (program, endpoints) = (self.program, self.endpoints);
        let (mut sound, pred) = pool.join(
            || compute_side(program, endpoints, config, config.points_to(pool, None)),
            || {
                compute_side(
                    program,
                    endpoints,
                    config,
                    config.points_to(pool, Some(invariants)),
                )
            },
        );
        let registry = pipeline.metrics();
        record_side(registry, &sound, "sound");
        record_side(registry, &pred, "pred");
        // Figure 9's fairness rule: report the sound alias rate over the
        // accesses the predicated analysis still considers.
        sound.report.alias_rate = sound.pt.alias_rate_over(&pred.pt);

        let artifact = save.then(|| OptSliceArtifact {
            invariants: invariants.clone(),
            profiling_runs_used: profile.runs_used as u64,
            profile_ns: profile.time.as_nanos() as u64,
            sound: side_artifact(&sound),
            pred: side_artifact(&pred),
            pt_pred: pred.pt.clone(),
        });
        let statics = SliceStatics {
            sound_report: sound.report,
            pred_report: pred.report,
            sound_slice: sound.slice,
            pred_slice: pred.slice,
        };
        Ok((statics, artifact))
    }

    fn static_time(statics: &SliceStatics) -> Duration {
        let (sound, pred) = (&statics.sound_report, &statics.pred_report);
        sound.points_to_time + sound.slice_time + pred.points_to_time + pred.slice_time
    }

    fn tool<'s>(
        &'s self,
        statics: &'s SliceStatics,
        _: &'s InvariantSet,
        variant: Variant,
    ) -> GiriTool<'s> {
        let program = self.program;
        match variant {
            Variant::Full => GiriTool::full(program),
            Variant::Hybrid => GiriTool::hybrid(program, statics.sound_slice.sites()),
            Variant::Optimistic => GiriTool::hybrid(program, statics.pred_slice.sites()),
        }
    }

    /// The union of the tool's dynamic slices of the endpoints.
    fn answer(&self, tool: &GiriTool<'_>) -> DynamicSlice {
        let mut acc = DynamicSlice::default();
        for &e in self.endpoints {
            acc.union_with(&tool.slice_of(e));
        }
        acc
    }

    fn run(m: Measured<DynamicSlice>) -> OptSliceRun {
        OptSliceRun {
            baseline: m.baseline,
            hybrid: m.hybrid,
            optimistic: m.optimistic,
            checker_only: m.checker,
            rolled_back: m.rolled_back,
            rollback: m.rollback,
            hybrid_slice_len: m.hybrid_answer.len(),
            opt_slice_len: m.answer.len(),
            slices_equal: m.hybrid_answer == m.answer,
        }
    }

    fn outcome(
        &self,
        statics: SliceStatics,
        invariants: InvariantSet,
        profile: Profile,
        runs: Vec<OptSliceRun>,
        registry: &MetricsRegistry,
    ) -> OptSliceOutcome {
        let (sound, pred) = (statics.sound_report, statics.pred_report);
        registry.set_gauge("optslice.slice_size.sound", sound.slice_size as f64);
        registry.set_gauge("optslice.slice_size.pred", pred.slice_size as f64);
        registry.set_gauge("optslice.alias_rate.sound", sound.alias_rate);
        registry.set_gauge("optslice.alias_rate.pred", pred.alias_rate);
        OptSliceOutcome {
            invariants,
            profile_time: profile.time,
            profiling_runs_used: profile.runs_used,
            sound,
            pred,
            runs,
            report: RunReport::default(),
        }
    }

    fn report(outcome: &mut OptSliceOutcome) -> &mut RunReport {
        &mut outcome.report
    }
}

/// Runs the most accurate analyses that complete within budget: CS first,
/// CI as the fallback — the paper's "most accurate static analysis that
/// will complete on that benchmark without exhausting available
/// computational resources" (§6.1.2). Registry-free (each step times
/// itself with a plain clock) so the sound and predicated sides can run
/// concurrently; the caller records the spans and stats after the join.
/// `points_to` is the context-insensitive configuration.
fn compute_side(
    program: &Program,
    endpoints: &[InstId],
    cfg: &PipelineConfig,
    points_to: PointsToConfig<'_>,
) -> StaticSide {
    let start = Instant::now();
    let context_sensitive = PointsToConfig {
        sensitivity: Sensitivity::ContextSensitive,
        ..points_to
    };
    let (pt, pt_at): (PointsTo, Sensitivity) = match analyze(program, &context_sensitive) {
        Ok(pt) => (pt, Sensitivity::ContextSensitive),
        Err(_) => (
            analyze(program, &points_to).expect("context-insensitive points-to always completes"),
            Sensitivity::ContextInsensitive,
        ),
    };
    let points_to_time = start.elapsed();

    let sl_cfg = |sensitivity| SliceConfig {
        sensitivity,
        invariants: points_to.invariants,
        ctx_budget: cfg.ctx_budget,
        visit_budget: cfg.visit_budget,
        pool: points_to.pool,
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
