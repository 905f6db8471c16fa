//! OptFT: optimistic FastTrack data-race detection (paper §4).

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use oha_dataflow::BitSet;
use oha_fasttrack::FastTrackTool;
use oha_interp::{fastpath, InstrPlan, Machine, MultiTracer, NoopTracer};
use oha_invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha_ir::{InstId, InstKind, Program};
use oha_obs::{MetricsRegistry, RunReport, SpanStat};
use oha_pointsto::{analyze, PointsTo, PointsToConfig, Sensitivity};
use oha_races::{detect, MustLocksets, StaticRaces};
use oha_store::{ArtifactKey, ArtifactKind, OptFtArtifact};

use crate::pipeline::Pipeline;

/// One testing-input execution of OptFT and its baselines.
#[derive(Clone, Debug)]
pub struct OptFtRun {
    /// Uninstrumented execution time (the normalization baseline).
    pub baseline: Duration,
    /// Full FastTrack.
    pub full: Duration,
    /// Traditional hybrid FastTrack (sound static racy set).
    pub hybrid: Duration,
    /// OptFT's speculative run (includes invariant checking, excludes any
    /// rollback).
    pub optimistic: Duration,
    /// A run with only the invariant checker attached — isolates the
    /// invariant-check component of the Figure 5 stack.
    pub checker_only: Duration,
    /// Whether the speculative run had to roll back.
    pub rolled_back: bool,
    /// Time spent in the rollback re-execution (zero when none).
    pub rollback: Duration,
    /// Races from full FastTrack.
    pub races_full: BTreeSet<(InstId, InstId)>,
    /// Races from hybrid FastTrack.
    pub races_hybrid: BTreeSet<(InstId, InstId)>,
    /// OptFT's final answer (speculative result, or the rollback's).
    pub races_opt: BTreeSet<(InstId, InstId)>,
    /// Invariant violations observed by the checker.
    pub violations: usize,
}

/// The result of the whole OptFT pipeline on one benchmark.
#[derive(Clone, Debug)]
pub struct OptFtOutcome {
    /// Merged likely invariants (with the elidable-lock set filled in).
    pub invariants: InvariantSet,
    /// Time to run the profiling corpus until the invariant set
    /// stabilized (the profile artifact's load time on a warm run).
    pub profile_time: Duration,
    /// Lock-elision validation time (§4.2.4) on a cold run; zero on a
    /// warm hit, which loads the validated set with the static phase.
    pub elide_time: Duration,
    /// Sound static analysis (points-to + race detection) time.
    pub sound_static_time: Duration,
    /// Predicated static analysis time.
    pub pred_static_time: Duration,
    /// Loads/stores the sound detector left racy.
    pub racy_sites_sound: usize,
    /// Loads/stores the predicated detector left racy.
    pub racy_sites_pred: usize,
    /// Whether the program is statically provably race-free (sound): no
    /// dynamic analysis is needed at all (the right side of Figure 5).
    pub statically_race_free: bool,
    /// Lock/unlock sites elided under no-custom-synchronization.
    pub elidable_lock_sites: usize,
    /// Profiling runs consumed before the invariant set stabilized.
    pub profiling_runs_used: usize,
    /// Per-testing-input measurements.
    pub runs: Vec<OptFtRun>,
    /// Union of full-FastTrack races over the testing corpus.
    pub baseline_races: BTreeSet<(InstId, InstId)>,
    /// Union of OptFT final races over the testing corpus. Soundness means
    /// this equals [`OptFtOutcome::baseline_races`].
    pub optimistic_races: BTreeSet<(InstId, InstId)>,
    /// Machine-readable account of the whole run: phase spans
    /// (`optft/profile`, `optft/static_pred`, …), hook-dispatch and elision
    /// counters, and mis-speculation causes by invariant class
    /// (`optft.rollback.cause.<class>`).
    pub report: RunReport,
}

impl OptFtOutcome {
    /// Speedup of OptFT (incl. rollbacks) over full FastTrack, measured on
    /// total analysis overhead (time above baseline) across the corpus.
    pub fn speedup_vs_full(&self) -> f64 {
        ratio_of_sums(self.runs.iter().map(|r| {
            (
                sub(r.full, r.baseline),
                sub(r.optimistic + r.rollback, r.baseline),
            )
        }))
    }

    /// Speedup of OptFT over hybrid FastTrack.
    pub fn speedup_vs_hybrid(&self) -> f64 {
        ratio_of_sums(self.runs.iter().map(|r| {
            (
                sub(r.hybrid, r.baseline),
                sub(r.optimistic + r.rollback, r.baseline),
            )
        }))
    }

    /// Fraction of testing runs that rolled back.
    pub fn misspeculation_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.rolled_back).count() as f64 / self.runs.len() as f64
    }
}

fn sub(a: Duration, b: Duration) -> Duration {
    a.checked_sub(b).unwrap_or(Duration::from_nanos(1))
}

/// Corpus-level overhead ratio: total numerator overhead over total
/// denominator overhead (robust against near-zero per-run denominators).
fn ratio_of_sums(pairs: impl Iterator<Item = (Duration, Duration)>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in pairs {
        num += a.as_secs_f64();
        den += b.as_secs_f64();
    }
    if den <= 0.0 {
        1.0
    } else {
        num / den
    }
}

/// The OptFT driver. Use [`Pipeline::run_optft`].
pub struct OptFt<'a> {
    pipeline: &'a Pipeline,
}

/// Instrumentation plans for the dynamic phase, compiled once per
/// pipeline run (they depend only on the program and the elision sets).
/// Present exactly when the [`fastpath`] is enabled; `None` reproduces
/// the reference dispatch-everything behaviour.
struct OptFtPlans {
    full: InstrPlan,
    hybrid: InstrPlan,
    checker: InstrPlan,
    /// Union of the optimistic tool's and the checker's plans (they run
    /// composed in one `MultiTracer`).
    optimistic: InstrPlan,
}

impl OptFtPlans {
    fn compile(
        program: &Program,
        races_sound: &StaticRaces,
        races_pred: &StaticRaces,
        invariants: &InvariantSet,
    ) -> Self {
        let checker = InvariantChecker::plan_for(program, invariants, ChecksEnabled::for_optft());
        let mut optimistic = FastTrackTool::plan_for(
            program,
            Some(races_pred.racy_sites()),
            Some(&invariants.elidable_locks),
        );
        optimistic.union_with(&checker);
        Self {
            full: FastTrackTool::plan_for(program, None, None),
            hybrid: FastTrackTool::plan_for(program, Some(races_sound.racy_sites()), None),
            checker,
            optimistic,
        }
    }
}

/// Everything OptFT's dynamic phase needs from the (cacheable) profiling
/// and static phases, plus the bookkeeping for save-on-clean /
/// invalidate-on-rollback.
struct FtStatics {
    invariants: InvariantSet,
    profile_time: Duration,
    elide_time: Duration,
    profiling_used: usize,
    sound_static_time: Duration,
    pred_static_time: Duration,
    races_sound: StaticRaces,
    races_pred: StaticRaces,
    /// Whether the static phase was served from the artifact store.
    from_cache: bool,
    /// The store key (present exactly when a store is configured).
    key: Option<ArtifactKey>,
    /// A freshly computed artifact awaiting save — persisted only after
    /// the dynamic phase finishes without a rollback, so a mis-speculating
    /// predicate never enters the cache.
    pending: Option<OptFtArtifact>,
}

impl<'a> OptFt<'a> {
    pub(crate) fn new(pipeline: &'a Pipeline) -> Self {
        Self { pipeline }
    }

    /// Phases 1 and 2 (profiling, sound + predicated static analysis,
    /// lock-elision validation), served from the artifact store when warm.
    ///
    /// The cache key's predicate side folds together the invariant-set
    /// fingerprint, the profiling-corpus fingerprint (the elision
    /// validation loop re-executes the corpus) and the static budgets, so
    /// a hit guarantees the cached races and elidable-lock set are what
    /// this exact cold run would recompute.
    fn static_phase(
        &self,
        profiling: &[Vec<i64>],
        machine: &Machine<'_>,
        registry: &MetricsRegistry,
    ) -> FtStatics {
        let program = self.pipeline.program();

        // Phase 1: profile until the invariant set stabilizes (§6.1),
        // store-accelerated when a profile artifact is warm.
        let (mut invariants, profile_time, profiling_used) =
            self.pipeline.profile_phase(profiling, 6);

        let key = self.pipeline.store().map(|_| {
            let predicate = invariants
                .fingerprint()
                .combine(self.pipeline.corpus_fingerprint(profiling, 6))
                .combine(self.pipeline.budget_fingerprint(false));
            ArtifactKey::new(program.fingerprint(), predicate)
        });

        if let (Some(store), Some(key)) = (self.pipeline.store(), &key) {
            let start = Instant::now();
            let loaded = store.load_optft(key);
            let load_time = start.elapsed();
            if let Some(a) = loaded {
                registry.observe_duration("store.load.hit_ns", load_time);
                registry.trace_instant("store.optft.hit");
                let elapsed = load_time;
                // Registry parity with the cold path: the same points-to
                // gauges, plus the cold durations replayed under
                // `cached/*` spans (the live spans only see the load).
                a.pt_sound_stats.record(registry, "optft.pointsto.sound");
                a.pt_pred.stats().record(registry, "optft.pointsto.pred");
                for (path, ns) in [
                    ("cached/static_sound", a.sound_static_ns),
                    ("cached/static_pred", a.pred_static_ns),
                    ("cached/elide", a.elide_ns),
                ] {
                    registry.add_span_stat(
                        path,
                        SpanStat {
                            total: Duration::from_nanos(ns),
                            count: 1,
                        },
                    );
                }
                return FtStatics {
                    invariants: a.invariants,
                    profile_time,
                    elide_time: Duration::ZERO,
                    profiling_used,
                    sound_static_time: elapsed,
                    pred_static_time: Duration::ZERO,
                    races_sound: a.races_sound,
                    races_pred: a.races_pred,
                    from_cache: true,
                    key: Some(*key),
                    pending: None,
                };
            }
            registry.observe_duration("store.load.miss_ns", load_time);
            registry.trace_instant("store.optft.miss");
        }

        // Phases 2a ∥ 2b: the sound and predicated static analyses are
        // independent of each other (and neither touches the registry), so
        // they run as a two-node task DAG on the pipeline's shared pool —
        // serially, in sound-then-pred order, on a one-thread pool. Each
        // branch times itself with a plain clock; the `static_sound` span
        // wraps the whole fused section (the registry's span stack is
        // single-threaded) and `static_pred` closes immediately after it,
        // which keeps the span-tree shape — and any attached trace —
        // identical at every pool width. Branch results and stats are
        // consumed in a fixed order after the join, so the registry
        // contents never depend on which branch finished first.
        let pool = self.pipeline.pool();
        let sound_cfg = self.pt_config(None);
        let pred_cfg = self.pt_config(Some(&invariants));
        let span = registry.span("static_sound");
        let (sound_branch, pred_branch) = pool.join(
            || {
                let start = Instant::now();
                let pt = analyze(program, &sound_cfg)
                    .expect("context-insensitive points-to always completes");
                let races = detect(program, &pt, None);
                (pt, races, start.elapsed())
            },
            || {
                let start = Instant::now();
                let pt = analyze(program, &pred_cfg)
                    .expect("context-insensitive points-to always completes");
                let races = detect(program, &pt, pred_cfg.invariants);
                (pt, races, start.elapsed())
            },
        );
        let _ = span.finish();
        let (pt_sound, races_sound, sound_static_time) = sound_branch;
        pt_sound.stats().record(registry, "optft.pointsto.sound");
        let span = registry.span("static_pred");
        let _ = span.finish();
        let (pt_pred, races_pred, pred_static_time) = pred_branch;
        pt_pred.stats().record(registry, "optft.pointsto.pred");

        // No-custom-synchronization: propose elidable lock/unlock sites and
        // validate them (§4.2.4): any race the elided detector reports that
        // the sound detector does not is a false race caused by a custom
        // synchronization through an elided lock — put that lock's
        // instrumentation back and retry.
        let span = registry.span("elide");
        let elision = validate_elidable_locks(
            program,
            machine,
            &pt_pred,
            &races_pred,
            races_sound.racy_sites(),
            profiling,
        );
        let elide_time = span.finish();
        registry.add("optft.elide.candidates", elision.candidates as u64);
        registry.add(
            "optft.elide.validation_runs",
            elision.validation_runs as u64,
        );
        invariants.elidable_locks = elision.sites;

        let pending = key.as_ref().map(|_| OptFtArtifact {
            invariants: invariants.clone(),
            profiling_runs_used: profiling_used as u64,
            races_sound: races_sound.clone(),
            races_pred: races_pred.clone(),
            pt_sound_stats: pt_sound.stats(),
            pt_pred,
            profile_ns: profile_time.as_nanos() as u64,
            sound_static_ns: sound_static_time.as_nanos() as u64,
            pred_static_ns: pred_static_time.as_nanos() as u64,
            elide_ns: elide_time.as_nanos() as u64,
        });

        FtStatics {
            invariants,
            profile_time,
            elide_time,
            profiling_used,
            sound_static_time,
            pred_static_time,
            races_sound,
            races_pred,
            from_cache: false,
            key,
            pending,
        }
    }

    pub(crate) fn run(self, profiling: &[Vec<i64>], testing: &[Vec<i64>]) -> OptFtOutcome {
        let program = self.pipeline.program();
        let registry = self.pipeline.metrics().clone();
        let machine = Machine::new(program, self.pipeline.config().machine);
        // The speculative runs use a metrics-attached machine, so every
        // tracer-hook dispatch the optimistic tool sees is counted under
        // `optft.spec.hook.*` — the elision identity
        // elided + executed == dispatched holds against those counters.
        let spec_machine = Machine::new(program, self.pipeline.config().machine)
            .with_metrics(&registry, "optft.spec");
        let pipeline_span = registry.span("optft");

        // Phases 1 + 2, warm or cold.
        let statics = self.static_phase(profiling, &machine, &registry);
        let FtStatics {
            invariants,
            profile_time,
            elide_time,
            profiling_used,
            sound_static_time,
            pred_static_time,
            races_sound,
            races_pred,
            from_cache,
            key,
            pending,
        } = statics;

        registry.observe_duration("optft.phase.profile_ns", profile_time);
        registry.observe_duration(
            "optft.phase.static_ns",
            sound_static_time + pred_static_time,
        );

        // Compile the per-instruction instrumentation plans once — they
        // depend only on the program and the static phase's elision sets.
        let plans = fastpath::enabled()
            .then(|| OptFtPlans::compile(program, &races_sound, &races_pred, &invariants));

        // Phase 3: speculative dynamic analysis over the testing corpus.
        let dynamic_span = registry.span("dynamic");
        let mut runs = Vec::with_capacity(testing.len());
        let mut baseline_races = BTreeSet::new();
        let mut optimistic_races = BTreeSet::new();
        for input in testing {
            let run = self.dynamic_run(
                input,
                &machine,
                &spec_machine,
                &registry,
                &races_sound,
                &races_pred,
                &invariants,
                plans.as_ref(),
            );
            registry.observe_duration("optft.run.baseline_ns", run.baseline);
            registry.observe_duration("optft.run.optimistic_ns", run.optimistic + run.rollback);
            baseline_races.extend(run.races_full.iter().copied());
            optimistic_races.extend(run.races_opt.iter().copied());
            runs.push(run);
        }
        registry.observe_duration("optft.phase.dynamic_ns", dynamic_span.finish());
        pipeline_span.finish();

        // Store bookkeeping. A clean cold run persists its artifact; a
        // rollback means the predicate mis-speculated on this corpus, so a
        // cold result is not saved and a warm entry is invalidated (the
        // next run re-analyzes against fresher invariants).
        if let (Some(store), Some(key)) = (self.pipeline.store(), &key) {
            let any_rollback = runs.iter().any(|r| r.rolled_back);
            if any_rollback {
                if from_cache {
                    store.invalidate(ArtifactKind::OptFt, key);
                }
            } else if let Some(artifact) = &pending {
                if store.save_optft(key, artifact).is_err() {
                    registry.add("store.save_errors", 1);
                }
            }
            store.stats().record(&registry, "store");
        }

        let mut outcome = OptFtOutcome {
            profiling_runs_used: profiling_used,
            profile_time,
            elide_time,
            sound_static_time,
            pred_static_time,
            racy_sites_sound: races_sound.stats().racy_accesses,
            racy_sites_pred: races_pred.stats().racy_accesses,
            statically_race_free: races_sound.stats().racy_accesses == 0,
            elidable_lock_sites: invariants.elidable_locks.len(),
            invariants,
            runs,
            baseline_races,
            optimistic_races,
            report: RunReport::default(),
        };
        registry.set_gauge("optft.racy_sites.sound", outcome.racy_sites_sound as f64);
        registry.set_gauge("optft.racy_sites.pred", outcome.racy_sites_pred as f64);
        registry.set_gauge("optft.speedup_vs_full", outcome.speedup_vs_full());
        registry.set_gauge("optft.speedup_vs_hybrid", outcome.speedup_vs_hybrid());
        registry.set_gauge("optft.misspeculation_rate", outcome.misspeculation_rate());
        let mut report = registry.report("optft");
        report.meta.insert("tool".into(), "optft".into());
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

    fn pt_config<'i>(&self, invariants: Option<&'i InvariantSet>) -> PointsToConfig<'i> {
        PointsToConfig {
            sensitivity: Sensitivity::ContextInsensitive,
            invariants,
            clone_budget: self.pipeline.config().ctx_budget,
            solver_budget: self.pipeline.config().solver_budget,
            pool: self.pipeline.pool(),
            serial_cutoff: oha_pointsto::serial_cutoff_from_env(),
            dense_cutoff: oha_pointsto::dense_cutoff_from_env(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dynamic_run(
        &self,
        input: &[i64],
        machine: &Machine<'_>,
        spec_machine: &Machine<'_>,
        registry: &MetricsRegistry,
        races_sound: &StaticRaces,
        races_pred: &StaticRaces,
        invariants: &InvariantSet,
        plans: Option<&OptFtPlans>,
    ) -> OptFtRun {
        let program = self.pipeline.program();

        // The baseline is uninstrumented: no plan either (a plan that
        // elides everything would swap free no-op dispatches for elision
        // bookkeeping).
        let span = registry.span("baseline");
        machine.run(input, &mut NoopTracer);
        let baseline = span.finish();

        let span = registry.span("full");
        let mut full = FastTrackTool::full();
        machine.run_with_plan(input, &mut full, plans.map(|p| &p.full));
        let full_time = span.finish();
        if let Some(p) = plans {
            full.absorb_plan_elisions(&p.full.take_elisions());
        }

        let span = registry.span("hybrid");
        let mut hybrid = FastTrackTool::hybrid(races_sound.racy_sites());
        machine.run_with_plan(input, &mut hybrid, plans.map(|p| &p.hybrid));
        let hybrid_time = span.finish();
        if let Some(p) = plans {
            hybrid.absorb_plan_elisions(&p.hybrid.take_elisions());
        }

        let span = registry.span("checker");
        let mut checker_only =
            InvariantChecker::new(program, invariants, ChecksEnabled::for_optft());
        machine.run_with_plan(input, &mut checker_only, plans.map(|p| &p.checker));
        let checker_only_time = span.finish();
        if let Some(p) = plans {
            // The checker counts only the checks it performs; its plan
            // skips exactly the hooks it ignores, so there is nothing to
            // absorb — just drain the tally.
            p.checker.take_elisions();
        }

        // The speculative run: optimistic FastTrack + invariant checks,
        // with the schedule recorded so a mis-speculation can replay the
        // identical interleaving (the paper's record/replay rollback).
        let span = registry.span("optimistic");
        let opt_tool =
            FastTrackTool::optimistic(races_pred.racy_sites(), &invariants.elidable_locks);
        let checker = InvariantChecker::new(program, invariants, ChecksEnabled::for_optft());
        let mut combined = MultiTracer::new(opt_tool, checker);
        let (_, schedule) = spec_machine.run_recording_with_plan(
            input,
            &mut combined,
            plans.map(|p| &p.optimistic),
        );
        let optimistic_time = span.finish();
        if let Some(p) = plans {
            // Keeps the elision identity balanced: machine-side skips are
            // exactly the accesses/lock ops the tool would have elided.
            combined
                .first
                .absorb_plan_elisions(&p.optimistic.take_elisions());
        }
        combined.first.record_metrics(registry, "optft.ft");
        combined.second.record_metrics(registry, "optft.check");

        let opt_races = combined.first.race_pairs();
        let violations = combined.second.violations().count();
        // Rollback policy: invariant violations always roll back; race
        // reports are potential mis-speculations only when lock
        // instrumentation was elided (§4.2.4).
        let rolled_back = combined.second.is_violated()
            || (!invariants.elidable_locks.is_empty() && !opt_races.is_empty());

        let (races_opt, rollback) = if rolled_back {
            registry.add("optft.rollback", 1);
            for v in combined.second.violations() {
                registry.add(&format!("optft.rollback.cause.{}", v.class()), 1);
            }
            if violations == 0 {
                // Race-triggered rollback with no invariant violation: a
                // potentially-false race through an elided lock.
                registry.add("optft.rollback.cause.race_report", 1);
            }
            // Roll back: replay the recorded schedule under the traditional
            // hybrid analysis, which observes the same execution the failed
            // speculation did.
            let span = registry.span("rollback");
            let mut redo = FastTrackTool::hybrid(races_sound.racy_sites());
            machine.run_replay_with_plan(input, &schedule, &mut redo, plans.map(|p| &p.hybrid));
            if let Some(p) = plans {
                redo.absorb_plan_elisions(&p.hybrid.take_elisions());
            }
            (redo.race_pairs(), span.finish())
        } else {
            (opt_races, Duration::ZERO)
        };

        OptFtRun {
            baseline,
            full: full_time,
            hybrid: hybrid_time,
            optimistic: optimistic_time,
            checker_only: checker_only_time,
            rolled_back,
            rollback,
            races_full: full.race_pairs(),
            races_hybrid: hybrid.race_pairs(),
            races_opt,
            violations,
        }
    }
}

/// The lock elision decided for one cold OptFT run (§4.2.4).
struct Elision {
    /// Lock/unlock sites whose instrumentation the optimistic detector
    /// skips.
    sites: BTreeSet<InstId>,
    /// Lock/unlock sites proposed before validation.
    candidates: usize,
    /// Detector executions the corpus loop spent (two per profiling input
    /// it ran); 0 when the answer was decided statically.
    validation_runs: usize,
}

/// Proposes and validates lock/unlock sites whose instrumentation can be
/// elided (no-custom-synchronization, §4.2.4).
///
/// When no load or store is in the predicated racy set, the answer is
/// decided without running anything: the optimistic detector instruments
/// no access, and only accesses report races, so it reports none on any
/// input — trivially a subset of the sound detector's races, which is all
/// [`validate_on_corpus`] checks. It would return the candidates unchanged.
fn validate_elidable_locks(
    program: &Program,
    machine: &Machine<'_>,
    pt_pred: &PointsTo,
    races_pred: &StaticRaces,
    sound_racy: &BitSet,
    profiling: &[Vec<i64>],
) -> Elision {
    let (proposed, racy_access) = propose_elidable_locks(program, pt_pred, races_pred);
    let candidates = proposed.len();
    let (sites, validation_runs) = if racy_access {
        validate_on_corpus(
            program, machine, races_pred, sound_racy, &proposed, profiling,
        )
    } else {
        (proposed, 0)
    };
    Elision {
        sites,
        candidates,
        validation_runs,
    }
}

/// Groups lock/unlock sites into alias classes (shared lock cells) and
/// proposes the sites of every class that guards no predicated-racy
/// access. Also says whether any load or store is predicated-racy at all.
fn propose_elidable_locks(
    program: &Program,
    pt_pred: &PointsTo,
    races_pred: &StaticRaces,
) -> (BTreeSet<InstId>, bool) {
    let sites: Vec<InstId> = program
        .insts()
        .filter(|i| matches!(i.kind, InstKind::Lock { .. } | InstKind::Unlock { .. }))
        .map(|i| i.id)
        .collect();
    if sites.is_empty() {
        return (BTreeSet::new(), false);
    }
    let mut class_of: HashMap<InstId, usize> = HashMap::new();
    let mut classes: Vec<Vec<InstId>> = Vec::new();
    let mut class_cells: Vec<BitSet> = Vec::new();
    for &s in &sites {
        let cells = pt_pred.lock_cells(s);
        let found = class_cells.iter().position(|c| c.intersects(cells));
        match found {
            Some(k) => {
                classes[k].push(s);
                class_cells[k].union_with(cells);
                class_of.insert(s, k);
            }
            None => {
                class_of.insert(s, classes.len());
                classes.push(vec![s]);
                class_cells.push(cells.clone());
            }
        }
    }

    // A class is a candidate when no access it guards needs instrumentation.
    let locksets = MustLocksets::new(program, pt_pred);
    let mut candidate = vec![true; classes.len()];
    let mut racy_access = false;
    for inst in program.insts() {
        if !inst.kind.is_memory_access() {
            continue;
        }
        if races_pred.is_racy(inst.id) {
            racy_access = true;
            for &l in locksets.held_at(inst.id) {
                if let Some(&k) = class_of.get(&l) {
                    candidate[k] = false;
                }
            }
        }
    }
    let proposed = classes
        .into_iter()
        .zip(candidate)
        .filter(|&(_, keep)| keep)
        .flat_map(|(c, _)| c)
        .collect();
    (proposed, racy_access)
}

/// The validation loop: runs the elided detector on the profiling corpus
/// and compares against the sound hybrid detector. Returns the validated
/// sites and the detector executions spent.
fn validate_on_corpus(
    program: &Program,
    machine: &Machine<'_>,
    races_pred: &StaticRaces,
    sound_racy: &BitSet,
    elided: &BTreeSet<InstId>,
    profiling: &[Vec<i64>],
) -> (BTreeSet<InstId>, usize) {
    if elided.is_empty() {
        return (BTreeSet::new(), 0);
    }
    let fast = fastpath::enabled();
    let hybrid_plan = fast.then(|| FastTrackTool::plan_for(program, Some(sound_racy), None));
    let opt_plan =
        fast.then(|| FastTrackTool::plan_for(program, Some(races_pred.racy_sites()), Some(elided)));
    let mut runs = 0;
    for input in profiling {
        let mut sound = FastTrackTool::hybrid(sound_racy);
        machine.run_with_plan(input, &mut sound, hybrid_plan.as_ref());
        let mut opt = FastTrackTool::optimistic(races_pred.racy_sites(), elided);
        machine.run_with_plan(input, &mut opt, opt_plan.as_ref());
        runs += 2;
        // These tools' counters are never published, but the reused
        // plans' tallies must still be drained between runs so the
        // machine's end-of-run counter flush stays per-run exact.
        if let Some(p) = &hybrid_plan {
            p.take_elisions();
        }
        if let Some(p) = &opt_plan {
            p.take_elisions();
        }
        if !opt.race_pairs().is_subset(&sound.race_pairs()) {
            // Give up elision entirely on a false race: simple and sound.
            // A finer policy would de-elide only the offending class, as
            // the paper's "return the lock/unlock instrumentation to the
            // offending locks" does, iterating until the false races
            // disappear.
            return (BTreeSet::new(), runs);
        }
    }
    (elided.clone(), runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_ir::{Operand, ProgramBuilder};
    use Operand::{Const, Reg as R};

    /// Two workers increment a shared counter under a lock.
    fn locked_counter() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("shared", 1);
        let w = pb.declare("worker", 1);
        let mut m = pb.function("main", 0);
        let n1 = m.input();
        let t1 = m.spawn(w, R(n1));
        let t2 = m.spawn(w, R(n1));
        m.join(R(t1));
        m.join(R(t2));
        let ga = m.addr_global(g);
        let v = m.load(R(ga), 0);
        m.output(R(v));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut wf = pb.function("worker", 1);
        let iters = wf.param(0);
        let head = wf.block();
        let body = wf.block();
        let exit = wf.block();
        let ga = wf.addr_global(g);
        let i = wf.copy(Const(0));
        wf.jump(head);
        wf.select(head);
        let c = wf.cmp(oha_ir::CmpOp::Lt, R(i), R(iters));
        wf.branch(R(c), body, exit);
        wf.select(body);
        wf.lock(R(ga));
        let v = wf.load(R(ga), 0);
        let v1 = wf.bin(oha_ir::BinOp::Add, R(v), Const(1));
        wf.store(R(ga), 0, R(v1));
        wf.unlock(R(ga));
        let i1 = wf.bin(oha_ir::BinOp::Add, R(i), Const(1));
        wf.copy_to(i, R(i1));
        wf.jump(head);
        wf.select(exit);
        wf.ret(None);
        pb.finish_function(wf);
        pb.finish(main).unwrap()
    }

    #[test]
    fn optft_is_race_equivalent_and_elides_work() {
        let pipeline = Pipeline::new(locked_counter());
        let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 10]).collect();
        let testing: Vec<Vec<i64>> = (1..6).map(|n| vec![n * 7]).collect();
        let outcome = pipeline.run_optft(&profiling, &testing);

        assert_eq!(outcome.optimistic_races, outcome.baseline_races);
        assert!(
            outcome.baseline_races.is_empty(),
            "the counter is race-free"
        );
        assert!(
            outcome.racy_sites_pred < outcome.racy_sites_sound,
            "guarding locks prune candidates ({} !< {})",
            outcome.racy_sites_pred,
            outcome.racy_sites_sound
        );
        assert_eq!(outcome.racy_sites_pred, 0);
        assert!(outcome.elidable_lock_sites > 0, "locks elided");
        assert_eq!(outcome.misspeculation_rate(), 0.0);
    }

    /// With no predicated-racy access, elision is decided without running
    /// the corpus, and the decision is the one the corpus loop reaches.
    #[test]
    fn static_elision_decision_matches_the_corpus_loop() {
        let program = locked_counter();
        let pipeline = Pipeline::new(program.clone());
        let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 10]).collect();
        let outcome = pipeline.run_optft(&profiling, &[vec![7]]);
        assert_eq!(outcome.report.counter("optft.elide.validation_runs"), 0);
        assert_eq!(
            outcome.report.counter("optft.elide.candidates"),
            outcome.elidable_lock_sites as u64
        );

        let optft = OptFt::new(&pipeline);
        let pt_sound = analyze(&program, &optft.pt_config(None)).unwrap();
        let pt_pred = analyze(&program, &optft.pt_config(Some(&outcome.invariants))).unwrap();
        let races_sound = detect(&program, &pt_sound, None);
        let races_pred = detect(&program, &pt_pred, Some(&outcome.invariants));
        let (proposed, racy_access) = propose_elidable_locks(&program, &pt_pred, &races_pred);
        assert!(!racy_access);
        let machine = Machine::new(&program, pipeline.config().machine);
        let (sites, runs) = validate_on_corpus(
            &program,
            &machine,
            &races_pred,
            races_sound.racy_sites(),
            &proposed,
            &profiling,
        );
        assert_eq!(runs, 2 * profiling.len(), "the loop ran the whole corpus");
        assert_eq!(sites, outcome.invariants.elidable_locks);
    }

    /// Custom synchronization: a producer writes `data` unguarded, then
    /// hands a flag off under a lock; a consumer spins on the flag under
    /// the same lock and then reads `data` unguarded. The lock guards no
    /// predicated-racy access (the flag accesses are all locked), so it is
    /// an elision candidate — but it is what orders the `data` accesses,
    /// which the static detector leaves racy.
    fn flag_handoff() -> Program {
        let mut pb = ProgramBuilder::new();
        let data = pb.global("data", 1);
        let flag = pb.global("flag", 1);
        let lock = pb.global("lock", 1);
        let producer = pb.declare("producer", 1);
        let consumer = pb.declare("consumer", 1);
        let mut m = pb.function("main", 0);
        let n = m.input();
        let t1 = m.spawn(producer, R(n));
        let t2 = m.spawn(consumer, Const(0));
        m.join(R(t1));
        m.join(R(t2));
        m.ret(None);
        let main = pb.finish_function(m);

        let mut pf = pb.function("producer", 1);
        let v = pf.param(0);
        let da = pf.addr_global(data);
        pf.store(R(da), 0, R(v));
        let la = pf.addr_global(lock);
        let fa = pf.addr_global(flag);
        pf.lock(R(la));
        pf.store(R(fa), 0, Const(1));
        pf.unlock(R(la));
        pf.ret(None);
        pb.finish_function(pf);

        let mut cf = pb.function("consumer", 1);
        let head = cf.block();
        let done = cf.block();
        let da = cf.addr_global(data);
        let la = cf.addr_global(lock);
        let fa = cf.addr_global(flag);
        cf.jump(head);
        cf.select(head);
        cf.lock(R(la));
        let f = cf.load(R(fa), 0);
        cf.unlock(R(la));
        cf.branch(R(f), done, head);
        cf.select(done);
        let d = cf.load(R(da), 0);
        cf.output(R(d));
        cf.ret(None);
        pb.finish_function(cf);
        pb.finish(main).unwrap()
    }

    #[test]
    fn validation_de_elides_a_lock_used_for_custom_synchronization() {
        let pipeline = Pipeline::new(flag_handoff());
        let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n]).collect();
        let testing: Vec<Vec<i64>> = (5..8).map(|n| vec![n]).collect();
        let outcome = pipeline.run_optft(&profiling, &testing);

        assert!(outcome.racy_sites_pred > 0, "the data accesses stay racy");
        assert_eq!(outcome.report.counter("optft.elide.candidates"), 4);
        assert!(
            outcome.report.counter("optft.elide.validation_runs") > 0,
            "a predicated-racy access forces the corpus loop"
        );
        assert_eq!(outcome.elidable_lock_sites, 0, "the false race de-elides");
        assert!(
            outcome.baseline_races.is_empty(),
            "the flag orders the data"
        );
        assert_eq!(outcome.optimistic_races, outcome.baseline_races);
    }

    /// An input-dependent cold path makes the LUC invariant fail on a
    /// testing input outside the profiled distribution — OptFT must roll
    /// back and still produce the sound answer.
    #[test]
    fn optft_rolls_back_on_invariant_violation() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("shared", 1);
        let w = pb.declare("worker", 1);
        let mut m = pb.function("main", 0);
        let sel = m.input();
        let cold = m.block();
        let spawn_b = m.block();
        m.branch(R(sel), cold, spawn_b);
        m.select(cold);
        // The cold path writes the shared global unlocked, racing with the
        // workers.
        let ga = m.addr_global(g);
        let t1 = m.spawn(w, Const(5));
        m.store(R(ga), 0, Const(-1));
        m.join(R(t1));
        m.ret(None);
        m.select(spawn_b);
        let t1 = m.spawn(w, Const(5));
        m.join(R(t1));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut wf = pb.function("worker", 1);
        let ga = wf.addr_global(g);
        let v = wf.load(R(ga), 0);
        wf.store(R(ga), 0, R(v));
        wf.ret(None);
        pb.finish_function(wf);
        let p = pb.finish(main).unwrap();

        let pipeline = Pipeline::new(p);
        // Profile only the hot path (sel == 0).
        let profiling = vec![vec![0], vec![0]];
        // Test includes the cold path (sel == 1).
        let testing = vec![vec![0], vec![1]];
        let outcome = pipeline.run_optft(&profiling, &testing);

        assert!(outcome.runs[1].rolled_back, "cold path must mis-speculate");
        assert!(!outcome.runs[0].rolled_back);
        assert_eq!(
            outcome.optimistic_races, outcome.baseline_races,
            "rollback restores soundness"
        );
    }
}
