//! `cold-optft` and `cold-optslice`: one cold pipeline run at a time, each
//! on a fresh, empty artifact store, cycling through the workload's
//! programs until the run's time is up.
//!
//! The traced pass (`--trace 1`) runs every program three ways per round:
//! untraced (the end-to-end time the layers must add up to), with the
//! pipeline's own trace attached (trace overhead, and the `optft/elide`
//! span — lock-elision validation has no public entry point), and layer
//! by layer, calling each crate's public function from here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use oha_core::{
    break_even_seconds, optft_canonical_json, optslice_canonical_json, CostModel, OptFtOutcome,
    OptSliceOutcome, Pipeline, PipelineConfig, StoreConfig,
};
use oha_fasttrack::FastTrackTool;
use oha_faults::{splitmix64, FaultPlan};
use oha_giri::{DynamicSlice, GiriTool};
use oha_interp::{Machine, MachineConfig, MultiTracer, NoopTracer};
use oha_invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha_ir::InstId;
use oha_obs::{Json, MetricsRegistry, TraceLog};
use oha_par::Pool;
use oha_pointsto::{analyze, PointsTo, PointsToConfig, Sensitivity};
use oha_races::{detect, StaticRaces};
use oha_slicing::{slice, SliceConfig, StaticSlice};
use oha_workloads::{c_suite, java_suite, Workload, WorkloadParams};

use crate::report::RunResult;
use crate::stats::{geomean, mean, median, quantile};
use crate::sys::{dir_bytes, peak_rss_mb, Spans, WorkDir};

/// Profiling fan-out and static-phase pool width of every cold run. One
/// thread: on the 2-vCPU host the baseline was measured on, width 2 made
/// lusearch both slower (median 170 vs 160 ms) and far noisier
/// (interquartile range 15% vs 4% of the median) than width 1.
const POOL_WIDTH: usize = 1;

/// The stop-when-stable patience (§6.1) both tools pass to the profiling
/// phase; the traced pass replays profiling with the same value.
const PATIENCE: usize = 6;

/// Set-up (program and corpus generation, a few milliseconds at most) is
/// repeated this many times and reported as the median.
const SETUP_REPS: usize = 21;

/// Input corpora per run, drawn from seeds derived from the run's seed.
/// A program's cold time moves by about 10% from one corpus to the next;
/// a run that cycles through several measures the program, not the draw.
const CORPORA: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    OptFt,
    OptSlice,
}

impl Tool {
    fn label(self) -> &'static str {
        match self {
            Tool::OptFt => "cold-optft",
            Tool::OptSlice => "cold-optslice",
        }
    }
}

/// The workload scale: the figures' benchmark scale, or the unit-test
/// scale under `--smoke`, with the run's seed.
pub fn params(seed: u64, smoke: bool) -> WorkloadParams {
    let base = if smoke {
        WorkloadParams::small()
    } else {
        WorkloadParams::benchmark()
    };
    WorkloadParams { seed, ..base }
}

/// The programs each cold workload cycles through. lusearch, moldyn and
/// raytracer spend most of their cold time validating lock elision and in
/// FastTrack; pmd and sunflow have no elision work, so an elision change
/// must leave them flat. vim and go profile for 21 and 45 runs, and go
/// rolls back.
fn programs(tool: Tool, params: &WorkloadParams) -> Vec<Workload> {
    match tool {
        Tool::OptFt => vec![
            java_suite::lusearch(params),
            java_suite::moldyn(params),
            java_suite::raytracer(params),
            java_suite::batik(params),
            java_suite::pmd(params),
            java_suite::sunflow(params),
        ],
        Tool::OptSlice => vec![
            c_suite::vim(params),
            c_suite::go(params),
            c_suite::nginx(params),
            c_suite::perl(params),
            c_suite::redis(params),
        ],
    }
}

/// Every knob set explicitly, so nothing in the environment changes what
/// is measured. OptSlice uses the figures' context budget
/// (`oha_bench::optslice_ctx_budget`).
fn config(tool: Tool, store: Option<&Path>) -> PipelineConfig {
    PipelineConfig {
        machine: MachineConfig::default(),
        ctx_budget: match tool {
            Tool::OptFt => 4096,
            Tool::OptSlice => oha_bench::optslice_ctx_budget(),
        },
        solver_budget: 20_000_000,
        visit_budget: 5_000_000,
        threads: POOL_WIDTH,
        store: store.map(StoreConfig::new),
        faults: FaultPlan::disabled(),
    }
}

enum Outcome {
    Ft(OptFtOutcome),
    Slice(OptSliceOutcome),
}

impl Outcome {
    /// The paper's soundness promise for this outcome.
    fn sound(&self) -> bool {
        match self {
            Outcome::Ft(o) => o.optimistic_races == o.baseline_races,
            Outcome::Slice(o) => o.all_slices_equal(),
        }
    }

    fn canonical(&self) -> String {
        match self {
            Outcome::Ft(o) => optft_canonical_json(o),
            Outcome::Slice(o) => optslice_canonical_json(o),
        }
    }

    fn misspeculation_rate(&self) -> f64 {
        match self {
            Outcome::Ft(o) => o.misspeculation_rate(),
            Outcome::Slice(o) => o.misspeculation_rate(),
        }
    }

    fn speedup_vs_hybrid(&self) -> f64 {
        match self {
            Outcome::Ft(o) => o.speedup_vs_hybrid(),
            Outcome::Slice(o) => o.speedup_vs_hybrid(),
        }
    }

    /// Uninstrumented and optimistic (rollbacks included) seconds summed
    /// over the testing corpus, and the number of testing executions.
    fn dynamic_totals(&self) -> (f64, f64, usize) {
        let runs: Vec<(Duration, Duration)> = match self {
            Outcome::Ft(o) => o
                .runs
                .iter()
                .map(|r| (r.baseline, r.optimistic + r.rollback))
                .collect(),
            Outcome::Slice(o) => o
                .runs
                .iter()
                .map(|r| (r.baseline, r.optimistic + r.rollback))
                .collect(),
        };
        let sum = |f: fn(&(Duration, Duration)) -> Duration| {
            runs.iter().map(f).sum::<Duration>().as_secs_f64()
        };
        (sum(|r| r.0), sum(|r| r.1), runs.len())
    }

    fn span_ms(&self, path: &str) -> f64 {
        let report = match self {
            Outcome::Ft(o) => &o.report,
            Outcome::Slice(o) => &o.report,
        };
        report
            .spans
            .get(path)
            .map_or(0.0, |s| s.total().as_secs_f64() * 1e3)
    }
}

/// One cold pipeline run on `w` with an empty store at `store`.
fn analyze_cold(tool: Tool, w: &Workload, store: &Path, trace: Option<&TraceLog>) -> Outcome {
    let mut pipeline = Pipeline::new(w.program.clone()).with_config(config(tool, Some(store)));
    if let Some(log) = trace {
        pipeline = pipeline.with_trace(log.clone());
        pipeline.metrics().begin_trace();
    }
    match tool {
        Tool::OptFt => Outcome::Ft(pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs)),
        Tool::OptSlice => Outcome::Slice(pipeline.run_optslice(
            &w.profiling_inputs,
            &w.testing_inputs,
            &w.endpoints,
        )),
    }
}

/// Generates the programs with every corpus of the run `SETUP_REPS`
/// times; returns the last set, indexed `[corpus][program]`, and the
/// median generation time in seconds.
fn set_up(tool: Tool, seed: u64, smoke: bool) -> (Vec<Vec<Workload>>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut set = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        set = (0..CORPORA)
            .map(|k| {
                let corpus_seed = splitmix64(seed.wrapping_mul(CORPORA).wrapping_add(k));
                programs(tool, &params(corpus_seed, smoke))
            })
            .collect();
        times.push(start.elapsed().as_secs_f64());
    }
    (set, median(&times))
}

/// Output checks shared by both passes: the optimistic answer equals the
/// full analysis, and the canonical bytes equal the program's first run.
fn check(result: &mut RunResult, name: &str, outcome: &Outcome, first: &mut Option<String>) {
    result.check(outcome.sound(), || {
        format!("{name}: optimistic result differs from the full analysis")
    });
    let canonical = outcome.canonical();
    match first {
        None => *first = Some(canonical),
        Some(expected) => {
            let same = *expected == canonical;
            // One operation, two checks: count the canonical mismatch
            // without counting a second attempt.
            if !same {
                result.failed += 1;
                eprintln!("bench_e2e: wrong result: {name}: canonical JSON changed between runs");
            }
        }
    }
}

/// The untraced end-to-end run.
pub fn run(tool: Tool, seed: u64, seconds: f64, smoke: bool) -> std::io::Result<RunResult> {
    let (corpora, setup_s) = set_up(tool, seed, smoke);
    let programs = &corpora[0];
    let work = WorkDir::create(tool.label())?;
    let mut result = RunResult::default();
    let mut wall_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut first: Vec<Vec<Option<String>>> = vec![vec![None; programs.len()]; corpora.len()];
    let mut round_rates = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // A round runs every program on every corpus once.
    while round_rates.is_empty() || Instant::now() < deadline {
        let mut busy_s = 0.0;
        for (c, corpus) in corpora.iter().enumerate() {
            for (i, w) in corpus.iter().enumerate() {
                let store = work.fresh("store");
                let start = Instant::now();
                let outcome = analyze_cold(tool, w, &store, None);
                let elapsed = start.elapsed().as_secs_f64();
                busy_s += elapsed;
                wall_ms[i].push(elapsed * 1e3);
                check(&mut result, w.name, &outcome, &mut first[c][i]);
                let _ = std::fs::remove_dir_all(&store);
            }
        }
        round_rates.push((corpora.len() * programs.len()) as f64 / busy_s);
    }

    // The median analysis is the geometric mean of the programs' medians;
    // the tail is the 90th percentile of every analysis of the run pooled,
    // which leaves more than ten samples beyond it (a per-program p90
    // would not).
    let medians: Vec<f64> = wall_ms.iter().map(|v| median(v)).collect();
    let p90s: Vec<f64> = wall_ms.iter().map(|v| quantile(v, 0.9)).collect();
    result.set("setup_s", setup_s);
    result.set("throughput_per_s", median(&round_rates));
    result.set("p50_ms", geomean(&medians));
    result.set("p90_ms", quantile(&wall_ms.concat(), 0.9));
    result.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    for (i, w) in programs.iter().enumerate() {
        result.rows.push(Json::Obj(vec![
            ("program".into(), Json::str(w.name)),
            ("runs".into(), Json::num(wall_ms[i].len() as f64)),
            ("p50_ms".into(), Json::num(medians[i])),
            ("p90_ms".into(), Json::num(p90s[i])),
        ]));
    }
    Ok(result)
}

/// Per-program samples of every layer, keyed by name.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// One-time layers of a cold run: profiling, elision validation and the
/// static phase.
const ONE_TIME_LAYERS: &[&str] = &[
    "invariants.profile_ms",
    "fasttrack.elide_ms",
    "pointsto.sound_ms",
    "pointsto.pred_ms",
    "races.detect_ms",
    "slicing.slice_ms",
];

/// Dynamic-phase layers: every testing input under each configuration.
/// With [`ONE_TIME_LAYERS`] these add up to one cold run; what they miss
/// is the residual.
const DYNAMIC_LAYERS: &[&str] = &[
    "interp.baseline_ms",
    "fasttrack.full_ms",
    "fasttrack.hybrid_ms",
    "fasttrack.optimistic_ms",
    "invariants.checker_ms",
    "giri.hybrid_ms",
    "giri.optimistic_ms",
    "core.rollback_ms",
];

/// The traced pass: per-layer metrics, the residual and Table 1/2 rows.
pub fn layers(
    tool: Tool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    log: &TraceLog,
) -> std::io::Result<RunResult> {
    let (corpora, _) = set_up(tool, seed, smoke);
    let programs = &corpora[0];
    let work = WorkDir::create(tool.label())?;
    let mut result = RunResult::default();
    let mut spans = Spans::new(log.clone());
    let mut samples: Vec<Samples> = vec![Samples::new(); programs.len()];
    let mut first: Vec<Vec<Option<String>>> = vec![vec![None; programs.len()]; corpora.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        for (c, i, w) in corpora
            .iter()
            .enumerate()
            .flat_map(|(c, corpus)| corpus.iter().enumerate().map(move |(i, w)| (c, i, w)))
        {
            spans.next_operation();
            let s = &mut samples[i];
            let mut push = |name: &'static str, v: f64| s.entry(name).or_default().push(v);

            let store = work.fresh("store");
            let start = Instant::now();
            let outcome = analyze_cold(tool, w, &store, None);
            push("core.total_ms", start.elapsed().as_secs_f64() * 1e3);
            push("store.bytes_written", dir_bytes(&store) as f64);
            check(&mut result, w.name, &outcome, &mut first[c][i]);
            let _ = std::fs::remove_dir_all(&store);

            let store = work.fresh("store");
            let start = Instant::now();
            let traced = analyze_cold(tool, w, &store, Some(log));
            push("traced_ms", start.elapsed().as_secs_f64() * 1e3);
            push("fasttrack.elide_ms", traced.span_ms("optft/elide"));
            check(&mut result, w.name, &traced, &mut first[c][i]);
            let _ = std::fs::remove_dir_all(&store);

            let start = Instant::now();
            let _ = outcome.canonical();
            push("core.canonical_us", start.elapsed().as_secs_f64() * 1e6);
            push("core.misspec_rate", outcome.misspeculation_rate());
            push("core.speedup_vs_hybrid", outcome.speedup_vs_hybrid());
            let (base, opt, executions) = outcome.dynamic_totals();
            push("core.overhead_x", opt / base.max(1e-9));
            push("core.dyn_ms_per_exec", opt * 1e3 / executions.max(1) as f64);

            let outer = match &outcome {
                Outcome::Ft(o) => replay_optft(w, &o.invariants, &spans),
                Outcome::Slice(_) => replay_optslice(w, &spans),
            };
            for (name, v) in outer {
                push(name, v);
            }
        }
    }

    // Each metric is the mean over programs of the per-program median:
    // a per-analysis cost with every program weighted equally.
    let per_program = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.get(name).map_or(0.0, |v| median(v)))
            .collect()
    };
    let metric = |name: &str| mean(&per_program(name));
    for &(name, _) in crate::report::PER_LAYER {
        result.set(name, metric(name));
    }
    let total = metric("core.total_ms");
    let layer_sum: f64 = ONE_TIME_LAYERS
        .iter()
        .chain(DYNAMIC_LAYERS)
        .map(|name| metric(name))
        .sum();
    result.set("core.residual_frac", (total - layer_sum) / total);
    result.set(
        "core.trace_overhead_frac",
        metric("traced_ms") / total - 1.0,
    );
    result.set(
        "bench.error_rate",
        result.failed as f64 / result.attempted.max(1) as f64,
    );

    for (i, w) in programs.iter().enumerate() {
        result.rows.push(table_row(tool, w, &samples[i]));
    }
    eprintln!("bench_e2e: {} traced rounds", rounds);
    Ok(result)
}

/// One Table 1 (OptFT) or Table 2 (OptSlice) row from a program's median
/// layer times, with lock-elision validation split out of profiling.
fn table_row(tool: Tool, w: &Workload, s: &Samples) -> Json {
    let m = |name: &str| s.get(name).map_or(0.0, |v| median(v));
    let secs = |ms: f64| Duration::from_secs_f64(ms.max(0.0) / 1e3);
    let dynamic: f64 = DYNAMIC_LAYERS.iter().map(|name| m(name)).sum();
    let baseline = secs(m("interp.baseline_ms"));
    let (sound_static, pred_static, hybrid_dyn, opt_dyn) = match tool {
        Tool::OptFt => (
            m("pointsto.sound_ms") + m("detect_sound_ms"),
            m("pointsto.pred_ms") + m("detect_pred_ms"),
            m("fasttrack.hybrid_ms"),
            m("fasttrack.optimistic_ms") + m("core.rollback_ms"),
        ),
        Tool::OptSlice => (
            m("pointsto.sound_ms") + m("slice_sound_ms"),
            m("pointsto.pred_ms") + m("slice_pred_ms"),
            m("giri.hybrid_ms"),
            m("giri.optimistic_ms") + m("core.rollback_ms"),
        ),
    };
    let hybrid = CostModel::new(secs(sound_static), secs(hybrid_dyn), baseline);
    let opt = CostModel::new(
        secs(m("invariants.profile_ms") + m("fasttrack.elide_ms") + pred_static),
        secs(opt_dyn),
        baseline,
    );
    let trad = CostModel::new(Duration::ZERO, secs(m("fasttrack.full_ms")), baseline);
    let break_even = |t: Option<f64>| t.map_or(Json::Null, Json::num);
    let mut row = vec![
        ("program".to_string(), Json::str(w.name)),
        ("total_ms".to_string(), Json::num(m("core.total_ms"))),
        (
            "profile_ms".to_string(),
            Json::num(m("invariants.profile_ms")),
        ),
        (
            "profile_runs".to_string(),
            Json::num(m("invariants.profile_runs")),
        ),
        ("elide_ms".to_string(), Json::num(m("fasttrack.elide_ms"))),
        ("static_sound_ms".to_string(), Json::num(sound_static)),
        ("static_pred_ms".to_string(), Json::num(pred_static)),
        ("dynamic_ms".to_string(), Json::num(dynamic)),
        (
            "break_even_hybrid_s".to_string(),
            break_even(break_even_seconds(&opt, &hybrid)),
        ),
    ];
    if tool == Tool::OptFt {
        row.push((
            "break_even_trad_s".to_string(),
            break_even(break_even_seconds(&opt, &trad)),
        ));
    }
    row.push((
        "misspec_rate".to_string(),
        Json::num(m("core.misspec_rate")),
    ));
    Json::Obj(row)
}

fn pt_config<'i>(
    cfg: &PipelineConfig,
    sensitivity: Sensitivity,
    invariants: Option<&'i InvariantSet>,
) -> PointsToConfig<'i> {
    PointsToConfig {
        sensitivity,
        invariants,
        clone_budget: cfg.ctx_budget,
        solver_budget: cfg.solver_budget,
        pool: Pool::new(POOL_WIDTH),
        serial_cutoff: oha_pointsto::serial_cutoff_from_env(),
        dense_cutoff: oha_pointsto::dense_cutoff_from_env(),
    }
}

/// Profiling as the pipeline runs it: `Pipeline::profile_until_stable`.
fn replay_profile(
    tool: Tool,
    w: &Workload,
    spans: &Spans,
    out: &mut Vec<(&'static str, f64)>,
) -> InvariantSet {
    let pipeline = Pipeline::new(w.program.clone()).with_config(config(tool, None));
    let ((invariants, _, used), ms) = spans.time("invariants.profile_until_stable", || {
        pipeline.profile_until_stable(&w.profiling_inputs, PATIENCE)
    });
    out.push(("invariants.profile_ms", ms));
    out.push(("invariants.profile_runs", used as f64));
    invariants
}

/// OptFT layer by layer: profiling, sound and predicated points-to and
/// race detection, then each testing input under every dynamic
/// configuration the pipeline runs, with the invariants (and validated
/// elidable locks) the pipeline produced.
fn replay_optft(w: &Workload, validated: &InvariantSet, spans: &Spans) -> Vec<(&'static str, f64)> {
    let program = &w.program;
    let cfg = config(Tool::OptFt, None);
    let mut out = Vec::new();
    let invariants = replay_profile(Tool::OptFt, w, spans, &mut out);
    let ci = Sensitivity::ContextInsensitive;
    let (pt_sound, sound_ms) = spans.time("pointsto.analyze", || {
        analyze(program, &pt_config(&cfg, ci, None)).expect("CI points-to completes")
    });
    let (pt_pred, pred_ms) = spans.time("pointsto.analyze", || {
        analyze(program, &pt_config(&cfg, ci, Some(&invariants))).expect("CI points-to completes")
    });
    let (races_sound, d_sound) = spans.time("races.detect", || detect(program, &pt_sound, None));
    let (races_pred, d_pred) = spans.time("races.detect", || {
        detect(program, &pt_pred, Some(&invariants))
    });
    out.extend([
        ("pointsto.sound_ms", sound_ms),
        ("pointsto.pred_ms", pred_ms),
        ("pointsto.words_unioned", words_unioned(&pt_sound, &pt_pred)),
        ("races.detect_ms", d_sound + d_pred),
        ("detect_sound_ms", d_sound),
        ("detect_pred_ms", d_pred),
    ]);
    replay_optft_dynamic(w, validated, &races_sound, &races_pred, spans, &mut out);
    out
}

fn replay_optft_dynamic(
    w: &Workload,
    invariants: &InvariantSet,
    races_sound: &StaticRaces,
    races_pred: &StaticRaces,
    spans: &Spans,
    out: &mut Vec<(&'static str, f64)>,
) {
    let program = &w.program;
    let machine = Machine::new(program, MachineConfig::default());
    let registry = MetricsRegistry::new();
    let spec_machine =
        Machine::new(program, MachineConfig::default()).with_metrics(&registry, "spec");
    let elided = &invariants.elidable_locks;
    let checks = ChecksEnabled::for_optft();
    let full_plan = FastTrackTool::plan_for(program, None, None);
    let hybrid_plan = FastTrackTool::plan_for(program, Some(races_sound.racy_sites()), None);
    let checker_plan = InvariantChecker::plan_for(program, invariants, checks);
    let mut opt_plan =
        FastTrackTool::plan_for(program, Some(races_pred.racy_sites()), Some(elided));
    opt_plan.union_with(&checker_plan);

    let mut t = [0.0f64; 6];
    for input in &w.testing_inputs {
        t[0] += spans
            .time("interp.run", || machine.run(input, &mut NoopTracer))
            .1;
        let mut full = FastTrackTool::full();
        t[1] += spans
            .time("fasttrack.full", || {
                machine.run_with_plan(input, &mut full, Some(&full_plan))
            })
            .1;
        full_plan.take_elisions();
        let mut hybrid = FastTrackTool::hybrid(races_sound.racy_sites());
        t[2] += spans
            .time("fasttrack.hybrid", || {
                machine.run_with_plan(input, &mut hybrid, Some(&hybrid_plan))
            })
            .1;
        hybrid_plan.take_elisions();
        let mut checker = InvariantChecker::new(program, invariants, checks);
        t[3] += spans
            .time("invariants.check", || {
                machine.run_with_plan(input, &mut checker, Some(&checker_plan))
            })
            .1;
        checker_plan.take_elisions();
        let mut combined = MultiTracer::new(
            FastTrackTool::optimistic(races_pred.racy_sites(), elided),
            InvariantChecker::new(program, invariants, checks),
        );
        let ((_, schedule), ms) = spans.time("fasttrack.optimistic", || {
            spec_machine.run_recording_with_plan(input, &mut combined, Some(&opt_plan))
        });
        t[4] += ms;
        opt_plan.take_elisions();
        let rolled_back = combined.second.is_violated()
            || (!elided.is_empty() && !combined.first.race_pairs().is_empty());
        if rolled_back {
            let mut redo = FastTrackTool::hybrid(races_sound.racy_sites());
            t[5] += spans
                .time("core.rollback", || {
                    machine.run_replay_with_plan(input, &schedule, &mut redo, Some(&hybrid_plan))
                })
                .1;
            hybrid_plan.take_elisions();
        }
    }
    out.extend([
        ("interp.baseline_ms", t[0]),
        ("fasttrack.full_ms", t[1]),
        ("fasttrack.hybrid_ms", t[2]),
        ("invariants.checker_ms", t[3]),
        ("fasttrack.optimistic_ms", t[4]),
        ("core.rollback_ms", t[5]),
    ]);
}

/// OptSlice layer by layer: profiling; per side, the most accurate
/// points-to analysis and static slice that complete (context-sensitive,
/// falling back to insensitive, as the pipeline does); then each testing
/// input under Giri, the checker and the speculative run.
fn replay_optslice(w: &Workload, spans: &Spans) -> Vec<(&'static str, f64)> {
    let program = &w.program;
    let cfg = config(Tool::OptSlice, None);
    let mut out = Vec::new();
    let invariants = replay_profile(Tool::OptSlice, w, spans, &mut out);
    let side = |inv: Option<&InvariantSet>| -> (PointsTo, StaticSlice, f64, f64) {
        let (pt, pt_ms) = spans.time("pointsto.analyze", || {
            analyze(
                program,
                &pt_config(&cfg, Sensitivity::ContextSensitive, inv),
            )
            .unwrap_or_else(|_| {
                analyze(
                    program,
                    &pt_config(&cfg, Sensitivity::ContextInsensitive, inv),
                )
                .expect("CI points-to completes")
            })
        });
        let sl_config = |sensitivity| SliceConfig {
            sensitivity,
            invariants: inv,
            ctx_budget: cfg.ctx_budget,
            visit_budget: cfg.visit_budget,
            pool: Pool::new(POOL_WIDTH),
        };
        let (sl, sl_ms) = spans.time("slicing.slice", || {
            slice(
                program,
                &pt,
                &w.endpoints,
                &sl_config(Sensitivity::ContextSensitive),
            )
            .unwrap_or_else(|_| {
                slice(
                    program,
                    &pt,
                    &w.endpoints,
                    &sl_config(Sensitivity::ContextInsensitive),
                )
                .expect("CI slicing completes")
            })
        });
        (pt, sl, pt_ms, sl_ms)
    };
    let (pt_sound, slice_sound, pt_sound_ms, sl_sound_ms) = side(None);
    let (pt_pred, slice_pred, pt_pred_ms, sl_pred_ms) = side(Some(&invariants));
    out.extend([
        ("pointsto.sound_ms", pt_sound_ms),
        ("pointsto.pred_ms", pt_pred_ms),
        ("pointsto.words_unioned", words_unioned(&pt_sound, &pt_pred)),
        ("slicing.slice_ms", sl_sound_ms + sl_pred_ms),
        ("slice_sound_ms", sl_sound_ms),
        ("slice_pred_ms", sl_pred_ms),
    ]);

    let machine = Machine::new(program, MachineConfig::default());
    let registry = MetricsRegistry::new();
    let spec_machine =
        Machine::new(program, MachineConfig::default()).with_metrics(&registry, "spec");
    let checks = ChecksEnabled::for_optslice();
    let hybrid_plan = GiriTool::plan_for(program, Some(slice_sound.sites()));
    let checker_plan = InvariantChecker::plan_for(program, &invariants, checks);
    let mut opt_plan = GiriTool::plan_for(program, Some(slice_pred.sites()));
    opt_plan.union_with(&checker_plan);
    let mut t = [0.0f64; 5];
    for input in &w.testing_inputs {
        t[0] += spans
            .time("interp.run", || machine.run(input, &mut NoopTracer))
            .1;
        t[1] += spans
            .time("giri.hybrid", || {
                let mut hybrid = GiriTool::hybrid(program, slice_sound.sites());
                machine.run_with_plan(input, &mut hybrid, Some(&hybrid_plan));
                slice_endpoints(&hybrid, &w.endpoints)
            })
            .1;
        hybrid_plan.take_elisions();
        let mut checker = InvariantChecker::new(program, &invariants, checks);
        t[2] += spans
            .time("invariants.check", || {
                machine.run_with_plan(input, &mut checker, Some(&checker_plan))
            })
            .1;
        checker_plan.take_elisions();
        let mut combined = MultiTracer::new(
            GiriTool::hybrid(program, slice_pred.sites()),
            InvariantChecker::new(program, &invariants, checks),
        );
        let ((_, schedule), ms) = spans.time("giri.optimistic", || {
            let ran = spec_machine.run_recording_with_plan(input, &mut combined, Some(&opt_plan));
            slice_endpoints(&combined.first, &w.endpoints);
            ran
        });
        t[3] += ms;
        opt_plan.take_elisions();
        if combined.second.is_violated() {
            t[4] += spans
                .time("core.rollback", || {
                    let mut redo = GiriTool::hybrid(program, slice_sound.sites());
                    machine.run_replay_with_plan(input, &schedule, &mut redo, Some(&hybrid_plan));
                    slice_endpoints(&redo, &w.endpoints)
                })
                .1;
            hybrid_plan.take_elisions();
        }
    }
    out.extend([
        ("interp.baseline_ms", t[0]),
        ("giri.hybrid_ms", t[1]),
        ("invariants.checker_ms", t[2]),
        ("giri.optimistic_ms", t[3]),
        ("core.rollback_ms", t[4]),
    ]);
    out
}

fn slice_endpoints(tool: &GiriTool<'_>, endpoints: &[InstId]) -> DynamicSlice {
    let mut acc = DynamicSlice::default();
    for &e in endpoints {
        acc.union_with(&tool.slice_of(e));
    }
    acc
}

fn words_unioned(sound: &PointsTo, pred: &PointsTo) -> f64 {
    (sound.stats().words_unioned + pred.stats().words_unioned) as f64
}
