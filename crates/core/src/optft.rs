//! OptFT: optimistic FastTrack data-race detection (paper §4).

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::time::{Duration, Instant};

use oha_dataflow::BitSet;
use oha_fasttrack::FastTrackTool;
use oha_interp::{InstrPlan, Machine, PlanElisions};
use oha_invariants::{ChecksEnabled, InvariantSet};
use oha_ir::{Fingerprint, InstId, InstKind, Program};
use oha_obs::{MetricsRegistry, RunReport};
use oha_pointsto::{analyze, PointsTo};
use oha_races::{detect, MustLocksets, StaticRaces};
use oha_store::{ArtifactKey, ArtifactKind, OptFtArtifact, Store};

use crate::driver::{
    overhead_ratio, record_cached_spans, Config, Measured, Optimistic, PlannedTool, Profile, Timed,
    Variant,
};
use crate::pipeline::{NeedCorpus, Pipeline, RunCorpus};

/// One testing-input execution of OptFT and its baselines.
#[derive(Clone, Debug, Default)]
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

impl Timed for OptFtRun {
    fn times(&self) -> (Duration, Duration, Duration) {
        (self.hybrid, self.optimistic + self.rollback, self.baseline)
    }

    fn rolled_back(&self) -> bool {
        self.rolled_back
    }
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
        overhead_ratio(
            self.runs
                .iter()
                .map(|r| (r.full, r.optimistic + r.rollback, r.baseline)),
        )
    }

    /// Speedup of OptFT over hybrid FastTrack.
    pub fn speedup_vs_hybrid(&self) -> f64 {
        crate::driver::speedup_vs_hybrid(&self.runs)
    }

    /// Fraction of testing runs that rolled back.
    pub fn misspeculation_rate(&self) -> f64 {
        crate::driver::misspeculation_rate(&self.runs)
    }
}

impl PlannedTool for FastTrackTool<'_> {
    fn absorb_plan_elisions(&mut self, elisions: &PlanElisions) {
        FastTrackTool::absorb_plan_elisions(self, elisions);
    }

    fn record_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        FastTrackTool::record_metrics(self, registry, prefix);
    }

    fn plan(&self, program: &Program) -> InstrPlan {
        FastTrackTool::plan(self, program)
    }
}

/// OptFT as an instance of the optimistic driver. Use
/// [`Pipeline::run_optft`].
pub(crate) struct OptFt<'p> {
    pub(crate) program: &'p Program,
}

/// What OptFT's dynamic phase reads from its (cacheable) static phase.
pub(crate) struct FtStatics {
    elide_time: Duration,
    sound_static_time: Duration,
    pred_static_time: Duration,
    races_sound: StaticRaces,
    races_pred: StaticRaces,
}

impl Optimistic for OptFt<'_> {
    const PREFIX: &'static str = "optft";
    const TOOL: &'static str = "ft";
    const CHECKS: ChecksEnabled = ChecksEnabled::for_optft();
    const KIND: ArtifactKind = ArtifactKind::OptFt;
    /// Lane 0 holds the speculative run, whose recorded schedule its
    /// rollback replays, and the hybrid run, whose plan the rollback
    /// reuses. Full FastTrack and the checker share lane 1; the baseline
    /// has lane 2, so at width 2 the caller pairs it with lane 0.
    const LANES: &'static [(Config, usize)] = &[
        (Config::Baseline, 2),
        (Config::Full, 1),
        (Config::Hybrid, 0),
        (Config::Checker, 1),
        (Config::Speculative, 0),
    ];

    type Statics = FtStatics;
    type Artifact = OptFtArtifact;
    type Tool<'s>
        = FastTrackTool<'s>
    where
        Self: 's;
    type Answer = BTreeSet<(InstId, InstId)>;
    type Run = OptFtRun;
    type Outcome = OptFtOutcome;

    /// Folds together the invariant-set fingerprint, the profiling-corpus
    /// fingerprint (the elision validation loop re-executes the corpus)
    /// and the static budgets, so a hit guarantees the cached races and
    /// elidable-lock set are what this exact cold run would recompute.
    fn predicate(
        &self,
        pipeline: &Pipeline,
        invariants: &InvariantSet,
        corpus_key: Fingerprint,
    ) -> Fingerprint {
        invariants
            .fingerprint()
            .combine(corpus_key)
            .combine(pipeline.budget_fingerprint(false))
    }

    fn load(store: &Store, key: &ArtifactKey) -> Option<OptFtArtifact> {
        store.load_optft(key)
    }

    fn save(store: &Store, key: &ArtifactKey, artifact: &OptFtArtifact) -> io::Result<()> {
        store.save_optft(key, artifact)
    }

    fn warm(
        &self,
        a: OptFtArtifact,
        load_time: Duration,
        registry: &MetricsRegistry,
    ) -> (InvariantSet, FtStatics) {
        a.pt_sound_stats.record(registry, "optft.pointsto.sound");
        a.pt_pred.stats().record(registry, "optft.pointsto.pred");
        record_cached_spans(
            registry,
            &[
                ("cached/static_sound", a.sound_static_ns),
                ("cached/static_pred", a.pred_static_ns),
                ("cached/elide", a.elide_ns),
            ],
        );
        let statics = FtStatics {
            elide_time: Duration::ZERO,
            sound_static_time: load_time,
            pred_static_time: Duration::ZERO,
            races_sound: a.races_sound,
            races_pred: a.races_pred,
        };
        (a.invariants, statics)
    }

    /// Sound and predicated points-to and race detection, then lock-elision
    /// validation (§4.2.4).
    fn analyze(
        &self,
        pipeline: &Pipeline,
        invariants: &mut InvariantSet,
        profile: Profile,
        corpus: &RunCorpus<'_>,
        machine: &Machine<'_>,
        save: bool,
    ) -> Result<(FtStatics, Option<OptFtArtifact>), NeedCorpus> {
        let (program, registry) = (self.program, pipeline.metrics());
        // Phases 2a ∥ 2b: the sound and predicated static analyses are
        // independent of each other (and neither touches the registry), so
        // they run as a two-node task DAG on the pipeline's shared pool —
        // serially, in sound-then-pred order, on a one-thread pool. Each
        // branch times itself with a plain clock. The `static_sound` span
        // wraps the whole fused section (the registry's span stack is
        // single-threaded) and `static_pred` closes right after it; each
        // records its own branch's time. That keeps the span-tree shape —
        // and any attached trace — identical at every pool width. Branch
        // results and stats are consumed in a fixed order after the join,
        // so the registry contents never depend on which branch finished
        // first.
        let config = pipeline.config();
        let sound_cfg = config.points_to(pipeline.pool(), None);
        let pred_cfg = config.points_to(pipeline.pool(), Some(invariants));
        let span = registry.span("static_sound");
        let (sound_branch, pred_branch) = pipeline.pool().join(
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
        let (pt_sound, races_sound, sound_static_time) = sound_branch;
        span.finish_as(sound_static_time);
        pt_sound.stats().record(registry, "optft.pointsto.sound");
        let (pt_pred, races_pred, pred_static_time) = pred_branch;
        registry.span("static_pred").finish_as(pred_static_time);
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
            corpus,
        )?;
        let elide_time = span.finish();
        registry.add("optft.elide.candidates", elision.candidates as u64);
        registry.add(
            "optft.elide.validation_runs",
            elision.validation_runs as u64,
        );
        invariants.elidable_locks = elision.sites;

        let artifact = save.then(|| OptFtArtifact {
            invariants: invariants.clone(),
            profiling_runs_used: profile.runs_used as u64,
            races_sound: races_sound.clone(),
            races_pred: races_pred.clone(),
            pt_sound_stats: pt_sound.stats(),
            pt_pred,
            profile_ns: profile.time.as_nanos() as u64,
            sound_static_ns: sound_static_time.as_nanos() as u64,
            pred_static_ns: pred_static_time.as_nanos() as u64,
            elide_ns: elide_time.as_nanos() as u64,
        });
        let statics = FtStatics {
            elide_time,
            sound_static_time,
            pred_static_time,
            races_sound,
            races_pred,
        };
        Ok((statics, artifact))
    }

    fn static_time(statics: &FtStatics) -> Duration {
        statics.sound_static_time + statics.pred_static_time
    }

    fn tool<'s>(
        &'s self,
        statics: &'s FtStatics,
        invariants: &'s InvariantSet,
        variant: Variant,
    ) -> FastTrackTool<'s> {
        match variant {
            Variant::Full => FastTrackTool::full(),
            Variant::Hybrid => FastTrackTool::hybrid(statics.races_sound.racy_sites()),
            Variant::Optimistic => FastTrackTool::optimistic(
                statics.races_pred.racy_sites(),
                &invariants.elidable_locks,
            ),
        }
    }

    fn answer(&self, tool: &FastTrackTool<'_>) -> BTreeSet<(InstId, InstId)> {
        tool.race_pairs()
    }

    /// A race report is a potential mis-speculation when lock
    /// instrumentation was elided (§4.2.4): it may be a false race through
    /// an elided lock.
    fn rollback_cause(
        &self,
        tool: &FastTrackTool<'_>,
        invariants: &InvariantSet,
    ) -> Option<&'static str> {
        (!invariants.elidable_locks.is_empty() && !tool.races().is_empty()).then_some("race_report")
    }

    fn run(m: Measured<BTreeSet<(InstId, InstId)>>) -> OptFtRun {
        OptFtRun {
            baseline: m.baseline,
            full: m.full,
            hybrid: m.hybrid,
            optimistic: m.optimistic,
            checker_only: m.checker,
            rolled_back: m.rolled_back,
            rollback: m.rollback,
            races_full: m.full_answer,
            races_hybrid: m.hybrid_answer,
            races_opt: m.answer,
            violations: m.violations,
        }
    }

    fn outcome(
        &self,
        statics: FtStatics,
        invariants: InvariantSet,
        profile: Profile,
        runs: Vec<OptFtRun>,
        registry: &MetricsRegistry,
    ) -> OptFtOutcome {
        let baseline_races = runs.iter().flat_map(|r| &r.races_full).copied().collect();
        let optimistic_races = runs.iter().flat_map(|r| &r.races_opt).copied().collect();
        let outcome = OptFtOutcome {
            profiling_runs_used: profile.runs_used,
            profile_time: profile.time,
            elide_time: statics.elide_time,
            sound_static_time: statics.sound_static_time,
            pred_static_time: statics.pred_static_time,
            racy_sites_sound: statics.races_sound.stats().racy_accesses,
            racy_sites_pred: statics.races_pred.stats().racy_accesses,
            statically_race_free: statics.races_sound.stats().racy_accesses == 0,
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
        outcome
    }

    fn report(outcome: &mut OptFtOutcome) -> &mut RunReport {
        &mut outcome.report
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
/// With no candidates there is nothing to validate either. Only the
/// remaining case reads the corpus.
fn validate_elidable_locks(
    program: &Program,
    machine: &Machine<'_>,
    pt_pred: &PointsTo,
    races_pred: &StaticRaces,
    sound_racy: &BitSet,
    corpus: &RunCorpus<'_>,
) -> Result<Elision, NeedCorpus> {
    let (proposed, racy_access) = propose_elidable_locks(program, pt_pred, races_pred);
    let candidates = proposed.len();
    let (sites, validation_runs) = if racy_access && !proposed.is_empty() {
        validate_on_corpus(
            program,
            machine,
            races_pred,
            sound_racy,
            &proposed,
            corpus.inputs()?,
        )
    } else {
        (proposed, 0)
    };
    Ok(Elision {
        sites,
        candidates,
        validation_runs,
    })
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
/// sites and the detector executions spent. `elided` is non-empty: an
/// empty candidate set is decided without the corpus.
fn validate_on_corpus(
    program: &Program,
    machine: &Machine<'_>,
    races_pred: &StaticRaces,
    sound_racy: &BitSet,
    elided: &BTreeSet<InstId>,
    profiling: &[Vec<i64>],
) -> (BTreeSet<InstId>, usize) {
    let hybrid_plan = FastTrackTool::plan_for(program, Some(sound_racy), None);
    let opt_plan = FastTrackTool::plan_for(program, Some(races_pred.racy_sites()), Some(elided));
    let mut runs = 0;
    for input in profiling {
        let mut sound = FastTrackTool::hybrid(sound_racy);
        machine.run_with_plan(input, &mut sound, Some(&hybrid_plan));
        let mut opt = FastTrackTool::optimistic(races_pred.racy_sites(), elided);
        machine.run_with_plan(input, &mut opt, Some(&opt_plan));
        runs += 2;
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
    use crate::pipeline::{Corpus, PATIENCE};
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

        let config = pipeline.config();
        let pt_sound = analyze(&program, &config.points_to(pipeline.pool(), None)).unwrap();
        let pt_pred = analyze(
            &program,
            &config.points_to(pipeline.pool(), Some(&outcome.invariants)),
        )
        .unwrap();
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

    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oha-optft-stored-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stored_pipeline(program: Program, dir: &std::path::Path) -> Pipeline {
        let store = oha_store::Store::open(dir.to_path_buf()).unwrap();
        Pipeline::new(program).with_store(std::sync::Arc::new(store))
    }

    /// A run given only the corpus fingerprint needs the corpus exactly
    /// where it would read it: without a store, on a profile miss, and in
    /// lock-elision validation on a static miss. Everything else is
    /// served from the store with the inline run's bytes.
    #[test]
    fn stored_corpus_runs_need_the_corpus_only_where_they_read_it() {
        let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n]).collect();
        let testing: Vec<Vec<i64>> = (5..7).map(|n| vec![n]).collect();
        let stored = Corpus::Stored(crate::corpus_content_fingerprint(&profiling));
        let storeless = Pipeline::new(flag_handoff());
        assert_eq!(
            storeless.run_optft_from(stored, &testing).unwrap_err(),
            NeedCorpus
        );

        // Elision is validated on the corpus for this program: with only
        // the profile artifact warm, the static miss still needs it.
        let dirs = [store_dir("validate"), store_dir("static")];
        let pipeline = stored_pipeline(flag_handoff(), &dirs[0]);
        assert_eq!(
            pipeline.run_optft_from(stored, &testing).unwrap_err(),
            NeedCorpus,
            "profile miss"
        );
        let corpus = pipeline.run_corpus(Corpus::Inputs(&profiling), PATIENCE);
        pipeline.profile_phase(&corpus).unwrap();
        assert_eq!(
            pipeline.run_optft_from(stored, &testing).unwrap_err(),
            NeedCorpus,
            "validation on a static miss"
        );
        let inline = pipeline.run_optft(&profiling, &testing);
        let warm = pipeline.run_optft_from(stored, &testing).unwrap();
        assert_eq!(
            crate::optft_canonical_json(&warm),
            crate::optft_canonical_json(&inline)
        );

        // Elision decided statically: the profile artifact is enough.
        let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 10]).collect();
        let stored = Corpus::Stored(crate::corpus_content_fingerprint(&profiling));
        let pipeline = stored_pipeline(locked_counter(), &dirs[1]);
        let corpus = pipeline.run_corpus(Corpus::Inputs(&profiling), PATIENCE);
        pipeline.profile_phase(&corpus).unwrap();
        let from_profile = pipeline.run_optft_from(stored, &[vec![7]]).unwrap();
        assert_eq!(
            crate::optft_canonical_json(&from_profile),
            crate::optft_canonical_json(
                &Pipeline::new(locked_counter()).run_optft(&profiling, &[vec![7]])
            )
        );
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// An input-dependent cold path makes the LUC invariant fail on a
    /// testing input outside the profiled distribution — OptFT must roll
    /// back and still produce the sound answer.
    #[test]
    fn optft_rolls_back_on_invariant_violation() {
        let w = oha_workloads::micro::cold_path_race();
        let pipeline = Pipeline::new(w.program);
        // Profiling sees only the hot path; testing includes the cold one.
        let outcome = pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs);

        assert!(outcome.runs[1].rolled_back, "cold path must mis-speculate");
        assert!(!outcome.runs[0].rolled_back);
        assert_eq!(
            outcome.optimistic_races, outcome.baseline_races,
            "rollback restores soundness"
        );
    }
}
