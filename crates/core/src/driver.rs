//! The optimistic driver: the paper's recipe (§2) written once, for any
//! dynamic analysis that has a hybrid variant.
//!
//! A tool implements [`Optimistic`] and supplies only its own parts: its
//! static phase (cold, and read back from a warm store artifact), how to
//! build its full, hybrid and optimistic tools from the static results,
//! how to read the answer out of a finished tool, any rollback trigger
//! beyond an invariant violation, its invariant checks, metric prefixes
//! and lane table. [`run`] owns the rest: the profiling phase and the
//! store lookup around the tool's static phase, the dynamic phase's
//! (input, configuration) tasks on the pool's lanes and their per-input
//! merge, the speculative run with its record/replay rollback,
//! save-on-clean and invalidate-on-rollback, and the report.

use std::io;
use std::time::{Duration, Instant};

use oha_interp::{InstrPlan, Machine, MultiTracer, NoopTracer, PlanElisions, Tracer};
use oha_invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha_ir::{Fingerprint, Program};
use oha_obs::{MetricsRegistry, RunReport, SpanStat};
use oha_par::Pool;
use oha_store::{ArtifactKey, ArtifactKind, Store};

use crate::pipeline::{Corpus, NeedCorpus, Pipeline, RunCorpus, PATIENCE};

/// A variant of a tool's dynamic analysis.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Variant {
    /// Every site instrumented.
    Full,
    /// Instrumentation cut down by the sound static analysis.
    Hybrid,
    /// Instrumentation cut down by the predicated static analysis.
    Optimistic,
}

/// One run configuration of the dynamic phase.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Config {
    /// Uninstrumented.
    Baseline,
    /// The full tool.
    Full,
    /// The hybrid tool.
    Hybrid,
    /// The invariant checker alone.
    Checker,
    /// The optimistic tool plus the checker, recording the schedule, and
    /// the rollback that replays it under the hybrid tool when the
    /// speculation fails.
    Speculative,
}

/// A dynamic analysis the driver runs under an instrumentation plan.
pub(crate) trait PlannedTool: Tracer {
    /// Folds the machine-side elision tally of a plan-gated run into the
    /// tool's own counters, keeping its elision identity exact.
    fn absorb_plan_elisions(&mut self, elisions: &PlanElisions);
    /// Publishes the tool's counters under `prefix`.
    fn record_metrics(&self, registry: &MetricsRegistry, prefix: &str);
    /// The plan matching the tool's own elision sets.
    fn plan(&self, program: &Program) -> InstrPlan;
}

/// What the profiling phase hands the static phase besides the
/// invariants.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Profile {
    /// Time spent profiling (the profile artifact's load time when warm).
    pub(crate) time: Duration,
    /// Profiling runs consumed before the invariant set stabilized.
    pub(crate) runs_used: usize,
}

/// One optimistic hybrid analysis: the parts of the recipe that differ
/// between tools.
pub(crate) trait Optimistic: Sync {
    /// Report name, top-level span and metric prefix (`optft`).
    const PREFIX: &'static str;
    /// Metric segment of the speculative tool's counters (`ft` gives
    /// `optft.ft.*`).
    const TOOL: &'static str;
    /// The invariant checks the predicated static analysis relies on.
    const CHECKS: ChecksEnabled;
    /// The store kind of the tool's static artifact.
    const KIND: ArtifactKind;
    /// The run configurations every testing input runs, in order, each
    /// with its fixed lane (see [`Runner`]). The hybrid and speculative
    /// runs belong on lane 0, the caller: the rollback replays the
    /// speculative run's schedule and reuses the hybrid run's plan, whose
    /// elision tally one thread drains at a time.
    const LANES: &'static [(Config, usize)];

    /// The static results the dynamic phase reads.
    type Statics: Sync;
    /// The static phase's store artifact.
    type Artifact;
    /// The dynamic analysis, borrowing from the statics.
    type Tool<'s>: PlannedTool
    where
        Self: 's;
    /// What a finished tool answers.
    type Answer: Default + Send;
    /// The public record of one testing input.
    type Run: Timed;
    /// The public result of a whole run.
    type Outcome;

    /// The predicate side of the static artifact's store key: everything
    /// besides the program that the cold static phase depends on.
    fn predicate(
        &self,
        pipeline: &Pipeline,
        invariants: &InvariantSet,
        corpus_key: Fingerprint,
    ) -> Fingerprint;
    /// Loads the static artifact, or `None` on a miss.
    fn load(store: &Store, key: &ArtifactKey) -> Option<Self::Artifact>;
    /// Saves the static artifact.
    fn save(store: &Store, key: &ArtifactKey, artifact: &Self::Artifact) -> io::Result<()>;
    /// The statics of a warm artifact, loaded in `load_time`. Replays the
    /// cold run's gauges and its durations under `cached/*` spans, so a
    /// warm report has the cold one's shape.
    fn warm(
        &self,
        artifact: Self::Artifact,
        load_time: Duration,
        registry: &MetricsRegistry,
    ) -> (InvariantSet, Self::Statics);
    /// The cold static phase, which may refine `invariants`, with the
    /// artifact to save when `save`.
    fn analyze(
        &self,
        pipeline: &Pipeline,
        invariants: &mut InvariantSet,
        profile: Profile,
        corpus: &RunCorpus<'_>,
        machine: &Machine<'_>,
        save: bool,
    ) -> Result<(Self::Statics, Option<Self::Artifact>), NeedCorpus>;
    /// The static phase's time, as `<prefix>.phase.static_ns` observes it.
    fn static_time(statics: &Self::Statics) -> Duration;

    /// A fresh tool of one variant.
    fn tool<'s>(
        &'s self,
        statics: &'s Self::Statics,
        invariants: &'s InvariantSet,
        variant: Variant,
    ) -> Self::Tool<'s>;
    /// The answer of a finished tool.
    fn answer(&self, tool: &Self::Tool<'_>) -> Self::Answer;
    /// A rollback cause besides an invariant violation. It applies, and
    /// counts as `<prefix>.rollback.cause.<cause>`, only when the
    /// speculative run violated no invariant.
    fn rollback_cause(
        &self,
        _tool: &Self::Tool<'_>,
        _invariants: &InvariantSet,
    ) -> Option<&'static str> {
        None
    }
    /// The public record of one testing input's executions.
    fn run(measured: Measured<Self::Answer>) -> Self::Run;
    /// The outcome (with an empty report), having recorded the tool's own
    /// gauges into `registry`.
    fn outcome(
        &self,
        statics: Self::Statics,
        invariants: InvariantSet,
        profile: Profile,
        runs: Vec<Self::Run>,
        registry: &MetricsRegistry,
    ) -> Self::Outcome;
    /// Where the outcome keeps its report.
    fn report(outcome: &mut Self::Outcome) -> &mut RunReport;
}

/// One testing input's executions under every configuration of a lane
/// table (fields of configurations the table lacks stay default).
#[derive(Default)]
pub(crate) struct Measured<A> {
    pub(crate) baseline: Duration,
    pub(crate) full: Duration,
    pub(crate) hybrid: Duration,
    pub(crate) checker: Duration,
    /// The speculative run, excluding any rollback.
    pub(crate) optimistic: Duration,
    pub(crate) rolled_back: bool,
    /// The rollback's replay (zero when none).
    pub(crate) rollback: Duration,
    /// Invariant violations the speculative run observed.
    pub(crate) violations: usize,
    pub(crate) full_answer: A,
    pub(crate) hybrid_answer: A,
    /// The speculative answer, or the rollback's.
    pub(crate) answer: A,
}

/// What one execution contributes to its input's [`Measured`].
enum Output<A> {
    Baseline(Duration),
    Full(Duration, A),
    Hybrid(Duration, A),
    Checker(Duration),
    /// The speculative run's time and invariant violations, the replay's
    /// time when it rolled back, and the final answer.
    Speculative(Duration, usize, Option<Duration>, A),
}

impl<A> Measured<A> {
    fn fill(&mut self, output: Output<A>) {
        match output {
            Output::Baseline(time) => self.baseline = time,
            Output::Full(time, answer) => (self.full, self.full_answer) = (time, answer),
            Output::Hybrid(time, answer) => (self.hybrid, self.hybrid_answer) = (time, answer),
            Output::Checker(time) => self.checker = time,
            Output::Speculative(time, violations, rollback, answer) => {
                self.optimistic = time;
                self.rolled_back = rollback.is_some();
                self.rollback = rollback.unwrap_or_default();
                self.violations = violations;
                self.answer = answer;
            }
        }
    }
}

/// A per-input record, as the speculation gauges read it.
pub(crate) trait Timed {
    /// The hybrid and speculative (plus any rollback) times, and the
    /// uninstrumented baseline.
    fn times(&self) -> (Duration, Duration, Duration);
    fn rolled_back(&self) -> bool;
}

/// Fraction of testing runs that rolled back.
pub(crate) fn misspeculation_rate(runs: &[impl Timed]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().filter(|r| r.rolled_back()).count() as f64 / runs.len() as f64
}

/// Speedup of the speculative runs (including rollbacks) over the hybrid
/// tool.
pub(crate) fn speedup_vs_hybrid(runs: &[impl Timed]) -> f64 {
    overhead_ratio(runs.iter().map(Timed::times))
}

/// Loads a store artifact, observing the load time under
/// `store.load.{hit,miss}_ns` and marking the trace `store.<name>.{hit,miss}`.
pub(crate) fn load_timed<A>(
    registry: &MetricsRegistry,
    name: &str,
    load: impl FnOnce() -> Option<A>,
) -> (Option<A>, Duration) {
    let start = Instant::now();
    let loaded = load();
    let load_time = start.elapsed();
    let outcome = if loaded.is_some() { "hit" } else { "miss" };
    registry.observe_duration(&format!("store.load.{outcome}_ns"), load_time);
    registry.trace_instant(&format!("store.{name}.{outcome}"));
    (loaded, load_time)
}

/// Replays a warm artifact's cold durations as `cached/*` span stats.
pub(crate) fn record_cached_spans(registry: &MetricsRegistry, spans: &[(&str, u64)]) {
    for &(path, ns) in spans {
        let total = Duration::from_nanos(ns);
        registry.add_span_stat(path, SpanStat { total, count: 1 });
    }
}

/// Corpus-level speedup from `(reference, optimistic, baseline)` times:
/// total reference overhead above the baseline over total optimistic
/// overhead, summed first so near-zero per-run overheads cannot dominate.
pub(crate) fn overhead_ratio(runs: impl Iterator<Item = (Duration, Duration, Duration)>) -> f64 {
    let overhead =
        |d: Duration, baseline| d.checked_sub(baseline).unwrap_or(Duration::from_nanos(1));
    let (mut num, mut den) = (0.0, 0.0);
    for (reference, optimistic, baseline) in runs {
        num += overhead(reference, baseline).as_secs_f64();
        den += overhead(optimistic, baseline).as_secs_f64();
    }
    if den <= 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Where a run's static phase came from, for the store bookkeeping.
enum Cache<A> {
    /// No store is configured.
    Off,
    /// Served from the store under this key.
    Hit(ArtifactKey),
    /// Computed cold. The artifact is saved under this key only after the
    /// dynamic phase finishes without a rollback, so a mis-speculating
    /// predicate never enters the cache.
    Miss(ArtifactKey, A),
}

/// Runs `tool`'s whole pipeline: profile, predicated static analysis,
/// speculative dynamic analysis with rollback.
pub(crate) fn run<T: Optimistic>(
    tool: &T,
    pipeline: &Pipeline,
    profiling: Corpus<'_>,
    testing: &[Vec<i64>],
) -> Result<T::Outcome, NeedCorpus> {
    let program = pipeline.program();
    let registry = pipeline.metrics().clone();
    let metric = |name: &str| format!("{}.{name}", T::PREFIX);
    // The speculative runs use a metrics-attached machine, so every hook
    // dispatch the optimistic tool sees is counted under
    // `<prefix>.spec.hook.*`: the elision identity
    // elided + executed == dispatched holds against those counters.
    let runner = Runner::new(
        Machine::new(program, pipeline.config().machine),
        registry.clone(),
        T::PREFIX,
    );
    let pipeline_span = registry.span(T::PREFIX);

    // Phase 1: profile until the invariant set stabilizes (§6.1),
    // store-accelerated when a profile artifact is warm.
    let corpus = pipeline.run_corpus(profiling, PATIENCE);
    let (mut invariants, time, runs_used) = pipeline.profile_phase(&corpus)?;
    let profile = Profile { time, runs_used };
    let (statics, cache) = static_phase(
        tool,
        pipeline,
        &mut invariants,
        profile,
        &corpus,
        &runner.machine,
    )?;
    registry.observe_duration(&metric("phase.profile_ns"), profile.time);
    registry.observe_duration(&metric("phase.static_ns"), T::static_time(&statics));

    // Phase 3: every testing input under every configuration.
    let dynamic = Dynamic::new(tool, program, &statics, &invariants);
    let dynamic_span = registry.span("dynamic");
    let mut runs = Vec::with_capacity(testing.len());
    for measured in dynamic.run_all(&runner, pipeline.pool(), testing) {
        let optimistic = measured.optimistic + measured.rollback;
        registry.observe_duration(&metric("run.baseline_ns"), measured.baseline);
        registry.observe_duration(&metric("run.optimistic_ns"), optimistic);
        runs.push(T::run(measured));
    }
    registry.observe_duration(&metric("phase.dynamic_ns"), dynamic_span.finish());
    pipeline_span.finish();
    // Ends the borrows of the statics, which the outcome takes.
    drop(dynamic);

    // Store bookkeeping. A clean cold run persists its artifact; a
    // rollback means the predicate mis-speculated on this corpus, so a
    // cold result is not saved and a warm entry is invalidated (the next
    // run re-analyzes against fresher invariants).
    if let Some(store) = pipeline.store() {
        let rolled_back = runs.iter().any(Timed::rolled_back);
        match &cache {
            Cache::Hit(key) if rolled_back => {
                store.invalidate(T::KIND, key);
            }
            Cache::Miss(key, artifact) if !rolled_back => {
                let saved = T::save(store, key, artifact);
                if saved.is_err() {
                    registry.add("store.save_errors", 1);
                }
            }
            _ => {}
        }
        store.stats().record(&registry, "store");
    }

    registry.set_gauge(&metric("speedup_vs_hybrid"), speedup_vs_hybrid(&runs));
    registry.set_gauge(&metric("misspeculation_rate"), misspeculation_rate(&runs));
    let testing_runs = runs.len().to_string();
    let mut outcome = tool.outcome(statics, invariants, profile, runs, &registry);
    let mut report = registry.report(T::PREFIX);
    let meta = &mut report.meta;
    meta.insert("tool".into(), T::PREFIX.into());
    meta.insert("testing_runs".into(), testing_runs);
    meta.insert("profiling_runs_used".into(), runs_used.to_string());
    if pipeline.store().is_some() {
        let state = if matches!(cache, Cache::Hit(_)) {
            "hit"
        } else {
            "miss"
        };
        meta.insert("static_cache".into(), state.into());
    }
    *T::report(&mut outcome) = report;
    Ok(outcome)
}

/// Phase 2: the tool's static phase, served from its store artifact when
/// warm.
fn static_phase<T: Optimistic>(
    tool: &T,
    pipeline: &Pipeline,
    invariants: &mut InvariantSet,
    profile: Profile,
    corpus: &RunCorpus<'_>,
    machine: &Machine<'_>,
) -> Result<(T::Statics, Cache<T::Artifact>), NeedCorpus> {
    let registry = pipeline.metrics();
    let stored = match (pipeline.store(), corpus.key()) {
        (Some(store), Some(corpus_key)) => {
            let predicate = tool.predicate(pipeline, invariants, corpus_key);
            Some((
                store,
                ArtifactKey::new(pipeline.program_fingerprint(), predicate),
            ))
        }
        _ => None,
    };
    if let Some((store, key)) = stored {
        let (loaded, load_time) = load_timed(registry, T::PREFIX, || T::load(store, &key));
        if let Some(artifact) = loaded {
            let statics;
            (*invariants, statics) = tool.warm(artifact, load_time, registry);
            return Ok((statics, Cache::Hit(key)));
        }
    }
    let save = stored.is_some();
    let (statics, artifact) = tool.analyze(pipeline, invariants, profile, corpus, machine, save)?;
    let cache = match (stored, artifact) {
        (Some((_, key)), Some(artifact)) => Cache::Miss(key, artifact),
        _ => Cache::Off,
    };
    Ok((statics, cache))
}

/// Everything the dynamic phase reads, shared by every lane: the static
/// results and the instrumentation plans, compiled once per pipeline run.
struct Dynamic<'s, T: Optimistic> {
    tool: &'s T,
    program: &'s Program,
    statics: &'s T::Statics,
    invariants: &'s InvariantSet,
    /// Compiled only for a lane table with a full run.
    full: Option<InstrPlan>,
    hybrid: InstrPlan,
    checker: InstrPlan,
    /// Union of the optimistic tool's and the checker's plans (they run
    /// composed in one `MultiTracer`). A site the union dispatches but
    /// the tool's own plan elides reaches the tool, which skips and
    /// counts it itself, so its elision tally stays exact.
    optimistic: InstrPlan,
}

impl<'s, T: Optimistic> Dynamic<'s, T> {
    fn new(
        tool: &'s T,
        program: &'s Program,
        statics: &'s T::Statics,
        invariants: &'s InvariantSet,
    ) -> Self {
        debug_assert!(
            T::LANES.iter().all(|&(config, lane)| lane == 0
                || !matches!(config, Config::Hybrid | Config::Speculative)),
            "the hybrid and speculative runs belong on lane 0"
        );
        let plan = |variant| tool.tool(statics, invariants, variant).plan(program);
        let checker = InvariantChecker::plan_for(program, invariants, T::CHECKS);
        let mut optimistic = plan(Variant::Optimistic);
        optimistic.union_with(&checker);
        let full = T::LANES
            .iter()
            .any(|&(config, _)| matches!(config, Config::Full))
            .then(|| plan(Variant::Full));
        Self {
            tool,
            program,
            statics,
            invariants,
            full,
            hybrid: plan(Variant::Hybrid),
            checker,
            optimistic,
        }
    }

    fn new_tool(&self, variant: Variant) -> T::Tool<'s> {
        self.tool.tool(self.statics, self.invariants, variant)
    }

    /// Runs every testing input under every configuration of the lane
    /// table, one task each on `pool`'s fixed lanes, and merges each
    /// input's executions. `runner` is the caller's; every other busy
    /// thread builds its own from the caller's machine image and a fork of
    /// its registry, whose frame is absorbed back in thread order. Those
    /// frames must commute: lanes off the caller may add counters, spans
    /// and histograms only.
    fn run_all(
        &self,
        runner: &Runner<'_>,
        pool: Pool,
        testing: &[Vec<i64>],
    ) -> Vec<Measured<T::Answer>> {
        let tasks: Vec<(&[i64], Config, usize)> = testing
            .iter()
            .flat_map(|input| {
                T::LANES
                    .iter()
                    .map(move |&(c, lane)| (input.as_slice(), c, lane))
            })
            .collect();
        let lanes: Vec<usize> = tasks.iter().map(|&(_, _, lane)| lane).collect();
        let run = |runner: &Runner<'_>, share: &[usize]| -> Vec<_> {
            let task = |&i: &usize| self.execute(runner, tasks[i].0, tasks[i].1);
            share.iter().map(task).collect()
        };
        let image = runner.machine.image();
        let fork = (pool.threads() > 1).then(|| runner.registry.fork());
        let (outputs, frames) = pool.run_lanes(
            &lanes,
            |share| run(runner, share),
            |_, share| {
                let fork = fork.as_ref().expect("workers exist only at width > 1");
                let worker = Runner::new(image.machine(), fork.registry(), T::PREFIX);
                (run(&worker, share), worker.registry.frame())
            },
        );
        for frame in &frames {
            debug_assert!(
                frame.commutes(),
                "a lane off the caller recorded a gauge or series"
            );
            runner.registry.absorb(frame);
        }
        let mut outputs = outputs.into_iter();
        let mut per_input = Vec::with_capacity(testing.len());
        for _ in testing {
            let mut measured = Measured::default();
            for output in outputs.by_ref().take(T::LANES.len()) {
                measured.fill(output);
            }
            per_input.push(measured);
        }
        per_input
    }

    /// Runs `input` under one configuration on `runner`'s machines,
    /// recording its span and counters into `runner`'s registry.
    fn execute(&self, runner: &Runner<'_>, input: &[i64], config: Config) -> Output<T::Answer> {
        let (machine, registry) = (&runner.machine, &runner.registry);
        match config {
            Config::Baseline => {
                // Uninstrumented: no plan either (a plan that elides
                // everything would swap free no-op dispatches for elision
                // bookkeeping).
                let span = registry.span("baseline");
                machine.run(input, &mut NoopTracer);
                Output::Baseline(span.finish())
            }
            Config::Full => {
                let plan = self.full.as_ref().expect("compiled for a full run");
                let (time, answer) = self.run_tool(runner, input, "full", Variant::Full, plan);
                Output::Full(time, answer)
            }
            Config::Hybrid => {
                let plan = &self.hybrid;
                let (time, answer) = self.run_tool(runner, input, "hybrid", Variant::Hybrid, plan);
                Output::Hybrid(time, answer)
            }
            Config::Checker => {
                let span = registry.span("checker");
                let mut checker = InvariantChecker::new(self.program, self.invariants, T::CHECKS);
                machine.run_with_plan(input, &mut checker, Some(&self.checker));
                // The checker counts only the checks it performs; its plan
                // skips exactly the hooks it ignores, so it absorbs nothing.
                Output::Checker(span.finish())
            }
            Config::Speculative => self.speculate(runner, input),
        }
    }

    /// One tool variant alone, under its plan.
    fn run_tool(
        &self,
        runner: &Runner<'_>,
        input: &[i64],
        span: &str,
        variant: Variant,
        plan: &InstrPlan,
    ) -> (Duration, T::Answer) {
        let span = runner.registry.span(span);
        let mut tool = self.new_tool(variant);
        runner.machine.run_with_plan(input, &mut tool, Some(plan));
        let time = span.finish();
        tool.absorb_plan_elisions(&plan.take_elisions());
        (time, self.tool.answer(&tool))
    }

    /// The speculative run: the optimistic tool plus the invariant checks,
    /// with the schedule recorded so a mis-speculation can replay the
    /// identical interleaving under the hybrid tool (the paper's
    /// record/replay rollback).
    fn speculate(&self, runner: &Runner<'_>, input: &[i64]) -> Output<T::Answer> {
        let registry = &runner.registry;
        let metric = |name: &str| format!("{}.{name}", T::PREFIX);
        let span = registry.span("optimistic");
        let checker = InvariantChecker::new(self.program, self.invariants, T::CHECKS);
        let mut combined = MultiTracer::new(self.new_tool(Variant::Optimistic), checker);
        let (_, schedule) = runner.spec_machine.run_recording_with_plan(
            input,
            &mut combined,
            Some(&self.optimistic),
        );
        let time = span.finish();
        combined
            .first
            .absorb_plan_elisions(&self.optimistic.take_elisions());
        combined.first.record_metrics(registry, &metric(T::TOOL));
        combined.second.record_metrics(registry, &metric("check"));

        let violations = combined.second.violations().count();
        let cause = (self.tool)
            .rollback_cause(&combined.first, self.invariants)
            .filter(|_| violations == 0);
        let (rollback, answer) = if violations == 0 && cause.is_none() {
            (None, self.tool.answer(&combined.first))
        } else {
            registry.add(&metric("rollback"), 1);
            for v in combined.second.violations() {
                registry.add(&metric(&format!("rollback.cause.{}", v.class())), 1);
            }
            if let Some(cause) = cause {
                registry.add(&metric(&format!("rollback.cause.{cause}")), 1);
            }
            // The speculative tool is done with: drop it before the replay
            // builds the next one.
            drop(combined);
            let span = registry.span("rollback");
            let mut redo = self.new_tool(Variant::Hybrid);
            runner
                .machine
                .run_replay_with_plan(input, &schedule, &mut redo, Some(&self.hybrid));
            let rollback = span.finish();
            redo.absorb_plan_elisions(&self.hybrid.take_elisions());
            (Some(rollback), self.tool.answer(&redo))
        };
        Output::Speculative(time, violations, rollback, answer)
    }
}

/// What a dynamic-phase execution runs with: the machines and the
/// metrics registry of the pool thread its lane landed on. Lane `k` runs
/// on pool thread `k mod width`, the caller being thread 0; at width 1
/// every task runs inline on the caller, exactly as a serial loop would.
struct Runner<'p> {
    /// Plain machine for every unmetered run.
    machine: Machine<'p>,
    /// Machine whose hook counters record under `<prefix>.spec`, for the
    /// speculative runs.
    spec_machine: Machine<'p>,
    /// Where the executions' spans and counters go.
    registry: MetricsRegistry,
}

impl<'p> Runner<'p> {
    /// A runner over `machine` recording into `registry`, its speculative
    /// hook counters under `<prefix>.spec`. The driver makes the caller's
    /// with the pipeline's registry; [`Dynamic::run_all`] makes the others.
    fn new(machine: Machine<'p>, registry: MetricsRegistry, prefix: &str) -> Self {
        let spec_machine = machine
            .image()
            .machine()
            .with_metrics(&registry, &format!("{prefix}.spec"));
        Self {
            machine,
            spec_machine,
            registry,
        }
    }
}
