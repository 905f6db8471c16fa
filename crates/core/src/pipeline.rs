//! The shared pipeline scaffolding: configuration, the profiling phase,
//! and the artifact-store plumbing both tools share.

use std::cell::OnceCell;
use std::env;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use oha_faults::FaultPlan;
use oha_interp::{Machine, MachineConfig};
use oha_invariants::{InvariantAccumulator, InvariantSet, ProfileTracer, RunProfile};
use oha_ir::{Fingerprint, FingerprintHasher, InstId, Program};
use oha_obs::{MetricsFrame, MetricsRegistry, TraceLog};
use oha_par::Pool;
use oha_pointsto::{PointsToConfig, Sensitivity};
use oha_store::{ArtifactKey, ProfileArtifact, Store};

use crate::driver::{load_timed, record_cached_spans};
use crate::optft::{OptFt, OptFtOutcome};
use crate::optslice::{OptSlice, OptSliceOutcome};

/// Environment variable naming the on-disk artifact-store directory.
/// When set (and non-empty), [`StoreConfig::from_env`] returns a config
/// pointing at it; a default [`Pipeline`] stays uncached.
pub const STORE_DIR_ENV: &str = "OHA_STORE_DIR";

/// The profiling patience both tools run with: profiling stops once
/// this many consecutive runs add no new invariant facts (§6.1).
pub(crate) const PATIENCE: usize = 6;

/// The profiling corpus a run reads.
#[derive(Clone, Copy, Debug)]
pub enum Corpus<'a> {
    /// The inputs themselves.
    Inputs(&'a [Vec<i64>]),
    /// Only the inputs' [`corpus_content_fingerprint`]. The run serves
    /// every corpus-derived phase from the artifact store and returns
    /// [`NeedCorpus`] at the first point that would read the inputs.
    Stored(Fingerprint),
}

/// A [`Corpus::Stored`] run reached a point that reads the profiling
/// corpus: a profile-artifact miss (or no store at all), or OptFT's
/// lock-elision validation on a static-phase miss when elision is not
/// decided statically. Rerunning with [`Corpus::Inputs`] completes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeedCorpus;

/// Content fingerprint of a profiling corpus: the inputs alone, with no
/// machine configuration or patience. The daemon protocol names a corpus
/// by this value, and [`Pipeline::corpus_fingerprint`] folds it into the
/// store key, so the corpus is hashed at most once per run.
pub fn corpus_content_fingerprint(inputs: &[Vec<i64>]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write(b"oha-corpus-content-v1");
    h.write_u64(inputs.len() as u64);
    for input in inputs {
        h.write_u64(input.len() as u64);
        for &v in input {
            h.write_u64(v as u64);
        }
    }
    h.finish()
}

/// One run's profiling corpus together with the store key derived from
/// it, computed once and shared by every phase that keys on the corpus.
pub(crate) struct RunCorpus<'a> {
    inputs: Option<&'a [Vec<i64>]>,
    patience: usize,
    /// [`Pipeline::corpus_fingerprint`]; present exactly when a store is
    /// configured.
    key: Option<Fingerprint>,
}

impl<'a> RunCorpus<'a> {
    /// The inputs, or [`NeedCorpus`] when the run was given only their
    /// fingerprint.
    pub(crate) fn inputs(&self) -> Result<&'a [Vec<i64>], NeedCorpus> {
        self.inputs.ok_or(NeedCorpus)
    }

    /// The corpus side of every store key this run derives.
    pub(crate) fn key(&self) -> Option<Fingerprint> {
        self.key
    }
}

/// Where (and whether) the pipeline persists static-phase artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Root directory of the on-disk store (created on first use).
    pub dir: PathBuf,
}

impl StoreConfig {
    /// A store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The `OHA_STORE_DIR` environment override: `Some` when the variable
    /// is set to a non-empty path, `None` otherwise.
    pub fn from_env() -> Option<Self> {
        env::var(STORE_DIR_ENV)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .map(Self::new)
    }
}

/// Knobs shared by both tools.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Interpreter configuration (seed, quantum, step budget). The same
    /// seed is reused for a rollback re-execution, which is what makes the
    /// rollback observe the identical interleaving.
    pub machine: MachineConfig,
    /// Context budget for context-sensitive static analyses; exceeding it
    /// makes an analysis "fail to complete" and the pipeline falls back to
    /// the context-insensitive variant (Table 2's AT columns).
    pub ctx_budget: u32,
    /// Iteration budget for the points-to solver.
    pub solver_budget: u64,
    /// Visit budget for the static slicer.
    pub visit_budget: u64,
    /// Worker threads of the pipeline's one pool, which runs the
    /// profiling phase's executions, the static phase's sound and
    /// predicated sides, and the dynamic phase's executions of each
    /// testing input. `0` (the default) resolves at run time to the
    /// `OHA_THREADS` environment override, falling back to
    /// [`std::thread::available_parallelism`]. The thread count never
    /// changes results: each interpreter run is seeded and deterministic on
    /// its own, and profiles, static sides and dynamic-phase outcomes
    /// merge in a fixed order (see DESIGN.md "Parallelism").
    pub threads: usize,
    /// Optional persistent artifact store. When set, the expensive pure
    /// phases (profiling, predicated static analysis) are keyed by content
    /// fingerprints and cached on disk: a warm key skips straight to the
    /// speculative dynamic phase, and a rollback on a warm run invalidates
    /// only the violated key. `None` (the default) runs fully in memory.
    pub store: Option<StoreConfig>,
    /// Fault-injection plan the store opened from
    /// [`PipelineConfig::store`] rolls against. Defaults to the
    /// `OHA_FAULTS` environment spec (disabled when unset); injected
    /// store failures exercise the delete-and-recompute path without
    /// ever changing canonical results.
    pub faults: FaultPlan,
}

impl PipelineConfig {
    /// The context-insensitive points-to configuration both static phases
    /// start from: this configuration's budgets, `pool`, and the solver
    /// cutoffs from the environment.
    pub(crate) fn points_to<'i>(
        &self,
        pool: Pool,
        invariants: Option<&'i InvariantSet>,
    ) -> PointsToConfig<'i> {
        PointsToConfig {
            sensitivity: Sensitivity::ContextInsensitive,
            invariants,
            clone_budget: self.ctx_budget,
            solver_budget: self.solver_budget,
            pool,
            serial_cutoff: oha_pointsto::serial_cutoff_from_env(),
            dense_cutoff: oha_pointsto::dense_cutoff_from_env(),
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::default(),
            ctx_budget: 4096,
            solver_budget: 20_000_000,
            visit_budget: 5_000_000,
            threads: 0,
            store: None,
            faults: FaultPlan::from_env(),
        }
    }
}

/// The three-phase optimistic hybrid analysis driver for one program.
///
/// # Examples
///
/// Profiling runs fan out over a worker pool sized by
/// [`PipelineConfig::threads`] (default `0` = the `OHA_THREADS`
/// environment override, then [`std::thread::available_parallelism`]).
/// The merge is order-deterministic, so any thread count produces the
/// same invariants:
///
/// ```
/// use oha_core::{Pipeline, PipelineConfig};
/// use oha_ir::{Operand, ProgramBuilder};
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0);
/// let x = f.input();
/// f.output(Operand::Reg(x));
/// f.ret(None);
/// let main = pb.finish_function(f);
/// let program = pb.finish(main).unwrap();
///
/// let pipeline = Pipeline::new(program.clone());
/// let (invariants, _time) = pipeline.profile(&[vec![1], vec![2]]);
/// assert_eq!(invariants.num_profiles, 2);
///
/// let serial = Pipeline::new(program)
///     .with_config(PipelineConfig { threads: 1, ..PipelineConfig::default() });
/// let (serial_invariants, _time) = serial.profile(&[vec![1], vec![2]]);
/// assert_eq!(serial_invariants, invariants);
/// ```
#[derive(Clone, Debug)]
pub struct Pipeline {
    program: Program,
    config: PipelineConfig,
    metrics: MetricsRegistry,
    store: Option<Arc<Store>>,
    /// The one worker pool every phase shares, sized when the
    /// configuration is set (see [`Pipeline::pool`]).
    pool: Pool,
    /// [`Program::fingerprint`], computed on first use: it prints and
    /// hashes the whole program.
    program_fingerprint: OnceCell<Fingerprint>,
}

/// The pool sizing rule shared by every phase:
/// [`PipelineConfig::threads`] when set, otherwise the `OHA_THREADS`
/// environment override, otherwise
/// [`std::thread::available_parallelism`].
fn resolve_pool(config: &PipelineConfig) -> Pool {
    if config.threads == 0 {
        Pool::from_env()
    } else {
        Pool::new(config.threads)
    }
}

impl Pipeline {
    /// A pipeline with default configuration and a fresh metrics registry.
    pub fn new(program: Program) -> Self {
        let config = PipelineConfig::default();
        let metrics = MetricsRegistry::new();
        let pool = resolve_pool(&config);
        let me = Self {
            program,
            config,
            metrics,
            store: None,
            pool,
            program_fingerprint: OnceCell::new(),
        };
        me.record_pool_built();
        me
    }

    /// Overrides the configuration. When [`PipelineConfig::store`] names a
    /// directory (and no store was injected via [`Pipeline::with_store`]),
    /// the on-disk store is opened here; an unopenable directory degrades
    /// to running uncached rather than failing the pipeline. The shared
    /// worker pool is (re)sized here — phases only ever copy
    /// [`Pipeline::pool`], they never construct their own.
    pub fn with_config(mut self, config: PipelineConfig) -> Self {
        if self.store.is_none() {
            if let Some(sc) = &config.store {
                self.store = Store::open_with(sc.dir.clone(), config.faults.clone())
                    .ok()
                    .map(Arc::new);
            }
        }
        self.pool = resolve_pool(&config);
        self.config = config;
        self.record_pool_built();
        self
    }

    /// Counts pool constructions (and publishes the width) so tests can
    /// assert that profiling and the static phases share one pool rather
    /// than re-deriving their own.
    fn record_pool_built(&self) {
        self.metrics.add("pipeline.pool.built", 1);
        self.metrics
            .set_gauge("pipeline.pool.width", self.pool.threads() as f64);
    }

    /// Shares an already-open artifact store (the daemon opens one store
    /// and hands it to every per-request pipeline).
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// The artifact store, when caching is enabled.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Shares an external metrics registry, so a caller (for instance a
    /// benchmark harness) can read phase spans and counters after a run.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches a trace log: every phase span this pipeline opens is also
    /// emitted as a causally-linked begin/end event (the span path is the
    /// event name). Pass [`TraceLog::from_env`] to honor the `OHA_TRACE`
    /// knob; a disabled log keeps the pipeline's zero-overhead-when-off
    /// guarantee.
    pub fn with_trace(self, trace: TraceLog) -> Self {
        self.metrics.set_trace(trace);
        self
    }

    /// The program under analysis.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The program's [`Program::fingerprint`], computed once per pipeline.
    pub fn program_fingerprint(&self) -> Fingerprint {
        *self
            .program_fingerprint
            .get_or_init(|| self.program.fingerprint())
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The metrics registry every phase reports into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The worker pool shared by the profiling, static and dynamic
    /// phases. Sized once when the configuration is set
    /// ([`PipelineConfig::threads`] when non-zero, otherwise the
    /// `OHA_THREADS` environment override, otherwise
    /// [`std::thread::available_parallelism`]); every call hands out a
    /// copy of the same pool and bumps the `pipeline.pool.reuse` counter so
    /// tests can assert the sharing.
    pub fn pool(&self) -> Pool {
        self.metrics.add("pipeline.pool.reuse", 1);
        self.pool
    }

    /// Phase 1: runs the profiling corpus and merges the likely invariants.
    ///
    /// Runs execute in parallel on [`Pipeline::pool`] (each interpreter
    /// execution is an independent, seeded simulation); the resulting
    /// profiles merge in input order, so the returned set is identical at
    /// any thread count. Worker hook counters (`profile.hook.*`) are
    /// absorbed into [`Pipeline::metrics`] in the same order.
    pub fn profile(&self, inputs: &[Vec<i64>]) -> (InvariantSet, Duration) {
        let span = self.metrics.span("profile");
        let (program, mcfg) = (&self.program, self.config.machine);
        let results = self
            .pool()
            .par_map(inputs, |input| profile_one(program, mcfg, input));
        let mut profiles = Vec::with_capacity(results.len());
        for (profile, frame) in results {
            self.metrics.absorb(&frame);
            profiles.push(profile);
        }
        let set = InvariantSet::from_profiles(&profiles);
        (set, span.finish())
    }

    /// Phase 1 with the paper's stopping rule: profile additional inputs
    /// "until the number of dynamic invariants stabilizes" (§6.1) — i.e.
    /// until `patience` consecutive runs add no new facts (or the corpus is
    /// exhausted). Returns the merged set, the time spent, and how many
    /// inputs were consumed.
    ///
    /// Profiles fold into an [`InvariantAccumulator`] as they arrive, so the
    /// whole loop is linear in the number of runs, and the per-run fact
    /// count lands in the `profile.fact_count` series of
    /// [`Pipeline::metrics`] (the Figure 8 convergence curve).
    ///
    /// Executions run in pool-width batches on [`Pipeline::pool`], but the
    /// accumulator folds, the series points and the stopping decision all
    /// happen serially in input order, so the merged set, the consumed-run
    /// count and every recorded metric are identical at any thread count.
    /// (A wider pool may *execute* a few runs past the stopping point; their
    /// profiles and counters are discarded.)
    pub fn profile_until_stable(
        &self,
        inputs: &[Vec<i64>],
        patience: usize,
    ) -> (InvariantSet, Duration, usize) {
        let span = self.metrics.span("profile");
        let pool = self.pool();
        let mut acc = InvariantAccumulator::new();
        let mut last_count = usize::MAX;
        let mut stable_for = 0usize;
        let mut used = 0usize;
        let (program, mcfg) = (&self.program, self.config.machine);
        'corpus: for batch in inputs.chunks(pool.threads()) {
            let results = pool.par_map(batch, |input| profile_one(program, mcfg, input));
            for (profile, frame) in results {
                self.metrics.absorb(&frame);
                acc.add(&profile);
                used += 1;
                let count = acc.fact_count();
                self.metrics.push_series("profile.fact_count", count as f64);
                if count == last_count {
                    stable_for += 1;
                    if stable_for >= patience {
                        break 'corpus;
                    }
                } else {
                    stable_for = 0;
                    last_count = count;
                }
            }
        }
        (acc.finish(), span.finish(), used)
    }

    /// Stable fingerprint of a profiling corpus plus everything the
    /// profiling phase consults besides the program: the interpreter
    /// configuration (seed, step budget, quantum) and the stopping
    /// patience, combined with the corpus's
    /// [`corpus_content_fingerprint`]. Equal fingerprints guarantee
    /// byte-identical merged invariant sets, which is what makes the
    /// fingerprint a safe cache key.
    pub fn corpus_fingerprint(&self, inputs: &[Vec<i64>], patience: usize) -> Fingerprint {
        self.corpus_key(corpus_content_fingerprint(inputs), patience)
    }

    /// [`Pipeline::corpus_fingerprint`] from the corpus's content
    /// fingerprint.
    fn corpus_key(&self, content: Fingerprint, patience: usize) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write(b"oha-corpus-v2");
        let m = &self.config.machine;
        h.write_u64(m.seed);
        h.write_u64(m.max_steps);
        h.write_u64(u64::from(m.quantum));
        h.write_u64(patience as u64);
        h.finish().combine(content)
    }

    /// Resolves a run's corpus, hashing the inputs only when a store is
    /// configured and the caller did not already name them by
    /// fingerprint.
    pub(crate) fn run_corpus<'c>(&self, corpus: Corpus<'c>, patience: usize) -> RunCorpus<'c> {
        let key = self.store.as_ref().map(|_| {
            let content = match corpus {
                Corpus::Inputs(inputs) => corpus_content_fingerprint(inputs),
                Corpus::Stored(content) => content,
            };
            self.corpus_key(content, patience)
        });
        RunCorpus {
            inputs: match corpus {
                Corpus::Inputs(inputs) => Some(inputs),
                Corpus::Stored(_) => None,
            },
            patience,
            key,
        }
    }

    /// Fingerprint of the static-analysis budgets a cached phase consults.
    /// Budgets are part of the predicate: a bigger budget can change which
    /// sensitivity completes, and with it the cached artifact.
    pub fn budget_fingerprint(&self, include_visit: bool) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write(b"oha-budgets-v1");
        h.write_u64(u64::from(self.config.ctx_budget));
        h.write_u64(self.config.solver_budget);
        if include_visit {
            h.write_u64(self.config.visit_budget);
        }
        h.finish()
    }

    /// The profiling phase's cache key: the program fingerprint paired
    /// with the corpus fingerprint.
    pub fn profile_key(&self, inputs: &[Vec<i64>], patience: usize) -> ArtifactKey {
        ArtifactKey::new(
            self.program_fingerprint(),
            self.corpus_fingerprint(inputs, patience),
        )
    }

    /// Phase 1 with the artifact store in front: a warm
    /// [`ProfileArtifact`] replaces the whole profiling loop (byte-
    /// identical invariants by the corpus-fingerprint contract); a miss
    /// runs [`Pipeline::profile_until_stable`] and persists the result.
    ///
    /// The returned duration is the *actual* time spent this run (tiny on
    /// a hit); the cold run's duration is replayed into the registry under
    /// the `cached/profile` span so reports can still account for it.
    pub(crate) fn profile_phase(
        &self,
        corpus: &RunCorpus<'_>,
    ) -> Result<(InvariantSet, Duration, usize), NeedCorpus> {
        let patience = corpus.patience;
        let (Some(store), Some(corpus_key)) = (self.store.clone(), corpus.key()) else {
            return Ok(self.profile_until_stable(corpus.inputs()?, patience));
        };
        let key = ArtifactKey::new(self.program_fingerprint(), corpus_key);
        let (loaded, load_time) = load_timed(&self.metrics, "profile", || store.load_profile(&key));
        if let Some(artifact) = loaded {
            // Mirror the cold shape: the (tiny) load lands on the live
            // `profile` span, the cold run's duration on `cached/profile`.
            let span = self.metrics.span("profile");
            record_cached_spans(&self.metrics, &[("cached/profile", artifact.profile_ns)]);
            span.finish();
            return Ok((artifact.invariants, load_time, artifact.runs_used as usize));
        }
        let (invariants, time, used) = self.profile_until_stable(corpus.inputs()?, patience);
        let artifact = ProfileArtifact {
            invariants: invariants.clone(),
            runs_used: used as u64,
            profile_ns: time.as_nanos() as u64,
        };
        if store.save_profile(&key, &artifact).is_err() {
            self.metrics.add("store.save_errors", 1);
        }
        Ok((invariants, time, used))
    }

    /// Runs the full OptFT pipeline (profile → predicated static race
    /// detection → speculative FastTrack with rollback) and every baseline.
    pub fn run_optft(&self, profiling: &[Vec<i64>], testing: &[Vec<i64>]) -> OptFtOutcome {
        self.run_optft_from(Corpus::Inputs(profiling), testing)
            .expect("a run given its inputs never needs them")
    }

    /// [`Pipeline::run_optft`] on a corpus that may be named only by its
    /// fingerprint; see [`NeedCorpus`] for when that is not enough.
    pub fn run_optft_from(
        &self,
        profiling: Corpus<'_>,
        testing: &[Vec<i64>],
    ) -> Result<OptFtOutcome, NeedCorpus> {
        let program = &self.program;
        crate::driver::run(&OptFt { program }, self, profiling, testing)
    }

    /// Runs the full OptSlice pipeline for the given slice endpoints.
    pub fn run_optslice(
        &self,
        profiling: &[Vec<i64>],
        testing: &[Vec<i64>],
        endpoints: &[InstId],
    ) -> OptSliceOutcome {
        self.run_optslice_from(Corpus::Inputs(profiling), testing, endpoints)
            .expect("a run given its inputs never needs them")
    }

    /// [`Pipeline::run_optslice`] on a corpus that may be named only by
    /// its fingerprint; see [`NeedCorpus`] for when that is not enough.
    pub fn run_optslice_from(
        &self,
        profiling: Corpus<'_>,
        testing: &[Vec<i64>],
        endpoints: &[InstId],
    ) -> Result<OptSliceOutcome, NeedCorpus> {
        let program = &self.program;
        crate::driver::run(&OptSlice { program, endpoints }, self, profiling, testing)
    }
}

/// One metered profiling execution. Runs on a worker thread, so it records
/// into a thread-local registry and ships the hook counters back as a
/// detachable [`MetricsFrame`] for in-order absorption by the coordinator.
fn profile_one(
    program: &Program,
    machine: MachineConfig,
    input: &[i64],
) -> (RunProfile, MetricsFrame) {
    let local = MetricsRegistry::new();
    let mut tracer = ProfileTracer::new(program);
    Machine::new(program, machine)
        .with_metrics(&local, "profile")
        .run(input, &mut tracer);
    // Distribution of per-run hook-event volume. The value is a pure
    // function of the input (the interpreter is deterministic), and
    // histogram merge is order-independent, so the merged buckets are
    // bit-identical at any thread count — the distribution-side analogue
    // of the counter determinism contract.
    let events: u64 = local.counters().values().sum();
    local.observe("profile.run.events", events);
    (tracer.into_profile(), local.frame())
}
