//! `serve-warm` and `serve-repeat`: requests through `oha-router` to a
//! two-worker fleet whose store was warmed during set-up.
//!
//! Load comes from this one process over [`CONNECTIONS`] connections, one
//! thread each: first an open loop (seeded Poisson arrivals at a fixed
//! rate; each request is timed from when it was due, so a stall also
//! delays the requests queued behind it), then a closed loop that
//! measures the highest rate the fleet sustains.
//!
//! - `serve-warm` sends a seeded 50/50 mix of vim OptSlice and nginx
//!   OptFT requests. Each carries one fresh testing input, drawn from the
//!   same programs at other seeds, so every request misses the workers'
//!   in-memory response cache (the LRU front) and hits the store: store
//!   load, the dynamic phase for one input, parsing, the request codec
//!   and the router carry the time; profiling and static analysis do
//!   nothing.
//! - `serve-repeat` replays 8 requests the fleet has already answered, so
//!   every request is an LRU hit and no pipeline runs: the request codec,
//!   cache-key hashing and forwarding of ~1 MB frames carry the time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oha_cluster::Topology;
use oha_core::{optft_canonical_json, optslice_canonical_json, Pipeline, PipelineConfig};
use oha_faults::{splitmix64, FaultPlan};
use oha_interp::{Machine, MachineConfig};
use oha_invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha_ir::{parse_program, print_program, Fingerprint, FingerprintHasher, InstId, Program};
use oha_obs::Json;
use oha_serve::{Client, Request, Response, Tool};
use oha_store::{ArtifactKey, Store};
use oha_workloads::{c_suite, Workload, WorkloadParams};

use crate::cold::params;
use crate::fleet::{Fleet, WORKERS};
use crate::report::RunResult;
use crate::stats::{mean, median, quantile};
use crate::sys::{Spans, WorkDir};

/// Open-loop arrival rates, fixed and never calibrated per run: about a
/// third of the closed-loop capacity each mix measured on the 2-vCPU
/// baseline host (about 75 and 210 requests/s).
const WARM_RPS: f64 = 25.0;
const REPEAT_RPS: f64 = 60.0;

/// About the closed-loop rate `serve-warm` reaches, for sizing the inputs
/// drawn before a run.
const WARM_CLOSED_RPS: f64 = 70.0;

/// Client connections (and load threads) — no more than the host's cores.
const CONNECTIONS: usize = 2;

/// Share of the run spent in the open loop; the closed loop takes the rest.
const OPEN_SHARE: f64 = 2.0 / 3.0;

/// Fleet start plus store warm-up is repeated this many times (each on a
/// fresh store) and reported as the median.
const SETUP_REPS: usize = 3;

/// One in this many served responses is byte-compared against an
/// in-process oracle, chosen by seed.
const ORACLE_ONE_IN: u64 = 20;

/// Distinct requests `serve-repeat` replays.
const REPEAT_SET: usize = 8;

/// The stop-when-stable patience the pipeline's profiling phase uses; part
/// of the store keys the layer pass derives.
const PATIENCE: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Warm,
    Repeat,
}

impl Mix {
    fn label(self) -> &'static str {
        match self {
            Mix::Warm => "serve-warm",
            Mix::Repeat => "serve-repeat",
        }
    }

    fn rate(self) -> f64 {
        match self {
            Mix::Warm => WARM_RPS,
            Mix::Repeat => REPEAT_RPS,
        }
    }
}

/// One request kind of the mix: a program shipped as IR text with the
/// profiling corpus of the run's seed, and the likely invariants the
/// fleet learns from that corpus.
struct Kind {
    tool: Tool,
    name: &'static str,
    program: Program,
    text: String,
    profiling: Vec<Vec<i64>>,
    endpoints: Vec<u32>,
    warm_input: Vec<i64>,
    invariants: InvariantSet,
    checks: ChecksEnabled,
}

impl Kind {
    /// Whether `input` keeps every invariant the speculative run checks.
    /// One that does not would roll back and invalidate the warm store
    /// entry, turning later requests cold; how often that happens depends
    /// on the seed's corpus, so such inputs are not sent (`cold-optslice`'s
    /// go measures rollback cost).
    fn keeps_invariants(&self, input: &[i64]) -> bool {
        let mut checker = InvariantChecker::new(&self.program, &self.invariants, self.checks);
        Machine::new(&self.program, MachineConfig::default()).run(input, &mut checker);
        !checker.is_violated()
    }
}

/// Generates kind `k` (vim OptSlice, nginx OptFT) at `params`.
fn workload(k: usize, params: &WorkloadParams) -> Workload {
    match k {
        0 => c_suite::vim(params),
        _ => c_suite::nginx(params),
    }
}

/// Fresh testing inputs of one kind, generated from seeds derived from
/// (never equal to) the run's seed, deduplicated so no two requests of a
/// run share their bytes, and kept only when they keep the invariants.
struct FreshInputs {
    inputs: Vec<Vec<i64>>,
    seen: HashSet<Vec<i64>>,
    draws: u64,
}

/// Hands out requests in a fixed order: request `i`'s kind and input
/// depend only on the seed and `i`, whatever thread sends it.
struct Cursor {
    next: usize,
    taken: [usize; 2],
}

#[derive(Clone, Copy, Debug)]
enum Spec {
    Fresh { kind: usize, input: usize },
    Repeat(usize),
}

struct Requests {
    mix: Mix,
    seed: u64,
    params: WorkloadParams,
    kinds: Vec<Kind>,
    fresh: Vec<Mutex<FreshInputs>>,
    cursor: Mutex<Cursor>,
    /// `serve-repeat`'s set: two requests of each kind per worker, so both
    /// workers carry the same load at every seed.
    repeats: Vec<Spec>,
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl Requests {
    fn new(mix: Mix, seed: u64, smoke: bool) -> Self {
        let params = params(seed, smoke);
        let tools = [Tool::OptSlice, Tool::OptFt];
        let kinds: Vec<Kind> = (0..2)
            .map(|k| {
                let w = workload(k, &params);
                let (invariants, _, _) = Pipeline::new(w.program.clone())
                    .with_config(server_config(1))
                    .profile_until_stable(&w.profiling_inputs, PATIENCE);
                Kind {
                    tool: tools[k],
                    name: w.name,
                    text: print_program(&w.program),
                    endpoints: w.endpoints.iter().map(|e| e.raw()).collect(),
                    // A profiled input: the warm-up run cannot roll back.
                    warm_input: w.profiling_inputs[0].clone(),
                    profiling: w.profiling_inputs,
                    program: w.program,
                    invariants,
                    checks: match tools[k] {
                        Tool::OptFt => ChecksEnabled::for_optft(),
                        Tool::OptSlice => ChecksEnabled::for_optslice(),
                    },
                }
            })
            .collect();
        let fresh = kinds
            .iter()
            .map(|k| {
                Mutex::new(FreshInputs {
                    inputs: Vec::new(),
                    seen: HashSet::from([k.warm_input.clone()]),
                    draws: 0,
                })
            })
            .collect();
        let mut requests = Self {
            mix,
            seed,
            params,
            kinds,
            fresh,
            cursor: Mutex::new(Cursor {
                next: 0,
                taken: [0; 2],
            }),
            repeats: Vec::new(),
        };
        if mix == Mix::Repeat {
            requests.repeats = requests.balanced_repeat_set();
        }
        requests
    }

    fn balanced_repeat_set(&self) -> Vec<Spec> {
        let topology = Topology::new(WORKERS);
        let per_cell = REPEAT_SET / (WORKERS * self.kinds.len());
        let mut filled = vec![vec![0usize; WORKERS]; self.kinds.len()];
        let mut set = Vec::new();
        let mut next = [0usize; 2];
        while set.len() < REPEAT_SET {
            for (kind, filled) in filled.iter_mut().enumerate() {
                let spec = Spec::Fresh {
                    kind,
                    input: next[kind],
                };
                next[kind] += 1;
                let home = topology.rank(shard_key(&self.build(spec, 0)))[0];
                if filled[home] < per_cell {
                    filled[home] += 1;
                    set.push(spec);
                }
            }
        }
        set
    }

    fn input(&self, kind: usize, index: usize) -> Vec<i64> {
        let mut pool = self.fresh[kind].lock().expect("input pool poisoned");
        while pool.inputs.len() <= index {
            pool.draws += 1;
            let seed = splitmix64(self.seed ^ splitmix64(pool.draws ^ (kind as u64) << 32));
            let params = WorkloadParams {
                seed,
                num_profiling: 1,
                num_testing: 64,
                ..self.params
            };
            for input in workload(kind, &params).testing_inputs {
                if pool.seen.insert(input.clone()) && self.kinds[kind].keeps_invariants(&input) {
                    pool.inputs.push(input);
                }
            }
        }
        pool.inputs[index].clone()
    }

    /// Draws the fresh inputs a run of `secs` will about need before any
    /// clock starts, so drawing them stays out of the timed windows (a run
    /// that needs more draws the rest on demand).
    fn prepare(&self, secs: f64) {
        if self.mix == Mix::Warm {
            let expected =
                WARM_RPS * secs * OPEN_SHARE + WARM_CLOSED_RPS * secs * (1.0 - OPEN_SHARE);
            let per_kind = (expected * 0.6) as usize + 10;
            for kind in 0..self.kinds.len() {
                self.input(kind, per_kind);
            }
        }
    }

    /// The next request of the run's sequence: its index and what it is.
    fn take(&self) -> (usize, Spec) {
        let mut cursor = self.cursor.lock().expect("cursor poisoned");
        let i = cursor.next;
        cursor.next += 1;
        let draw = splitmix64(self.seed ^ 0x6d69_7865 ^ splitmix64(i as u64));
        let spec = match self.mix {
            Mix::Warm => {
                let kind = (draw & 1) as usize;
                cursor.taken[kind] += 1;
                Spec::Fresh {
                    kind,
                    input: cursor.taken[kind] - 1,
                }
            }
            Mix::Repeat => Spec::Repeat((draw % REPEAT_SET as u64) as usize),
        };
        (i, spec)
    }

    fn kind(&self, spec: Spec) -> &Kind {
        match spec {
            Spec::Fresh { kind, .. } => &self.kinds[kind],
            Spec::Repeat(r) => self.kind(self.repeats[r]),
        }
    }

    fn build(&self, spec: Spec, trace_id: u64) -> Request {
        let (kind, testing) = match spec {
            Spec::Fresh { kind, input } => (&self.kinds[kind], self.input(kind, input)),
            Spec::Repeat(r) => return self.build(self.repeats[r], trace_id),
        };
        Request::Analyze {
            tool: kind.tool,
            program: kind.text.clone(),
            profiling: kind.profiling.clone(),
            testing: vec![testing],
            endpoints: kind.endpoints.clone(),
            trace_id,
        }
    }

    fn warm_request(&self, kind: usize) -> Request {
        let k = &self.kinds[kind];
        Request::Analyze {
            tool: k.tool,
            program: k.text.clone(),
            profiling: k.profiling.clone(),
            testing: vec![k.warm_input.clone()],
            endpoints: k.endpoints.clone(),
            trace_id: 0,
        }
    }
}

/// The router's (and the client's) shard key for a request.
fn shard_key(request: &Request) -> u64 {
    Fingerprint::of_bytes(&request.cache_key_bytes()).0 as u64
}

/// One answered (or failed) request.
struct Sample {
    index: usize,
    spec: Spec,
    /// Milliseconds; `+inf` for a failed or refused request.
    latency_ms: f64,
    body: Option<String>,
}

fn send(client: &mut Client, request: &Request) -> Option<String> {
    match client.call(request) {
        Ok(Response { ok: true, body, .. }) => Some(body),
        Ok(response) => {
            eprintln!("bench_e2e: request refused: {}", response.body);
            None
        }
        Err(e) => {
            eprintln!("bench_e2e: request failed: {e}");
            None
        }
    }
}

/// What one load phase observed.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    late_max_ms: f64,
    retries: u64,
    /// When each request completed, in seconds since the phase started.
    done_s: Vec<f64>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.late_max_ms = self.late_max_ms.max(other.late_max_ms);
        self.retries += other.retries;
        self.done_s.extend(other.done_s);
    }

    /// Completions per second: the median over the phase's whole
    /// one-second windows, so a burst of interference from other tenants
    /// of the host moves one window rather than the result (the plain
    /// rate when the phase spans fewer than three windows).
    fn throughput(&self) -> f64 {
        let end = self.done_s.iter().copied().fold(0.0, f64::max);
        let windows = end.floor() as usize;
        if windows < 3 {
            return self.done_s.len() as f64 / end;
        }
        let mut counts = vec![0.0; windows];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut(t as usize) {
                *c += 1.0;
            }
        }
        median(&counts)
    }
}

/// Seeded Poisson arrival offsets (seconds) over `secs` at `rate`.
fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    for k in 0u64.. {
        t += -(1.0 - unit(splitmix64(seed ^ 0x0a11_0ca7 ^ splitmix64(k)))).ln() / rate;
        if t >= secs {
            break;
        }
        due.push(t);
    }
    due
}

fn open_loop(fleet: &Fleet, reqs: &Requests, secs: f64, spans: &Spans) -> io::Result<Phase> {
    let due = schedule(reqs.seed, reqs.mix.rate(), secs);
    let first = reqs.cursor.lock().expect("cursor poisoned").next;
    let start = Instant::now() + Duration::from_millis(20);
    load(fleet, |client, phase| loop {
        let (i, spec) = reqs.take();
        let Some(&offset) = due.get(i - first) else {
            return;
        };
        let request = reqs.build(spec, 0);
        let due_at = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
            let late = Instant::now().saturating_duration_since(due_at);
            phase.late_max_ms = phase.late_max_ms.max(late.as_secs_f64() * 1e3);
        }
        let (body, _) = spans.time("serve.request", || send(client, &request));
        let latency = due_at.elapsed().as_secs_f64() * 1e3;
        phase.samples.push(Sample {
            index: i,
            spec,
            latency_ms: if body.is_some() {
                latency
            } else {
                f64::INFINITY
            },
            body,
        });
        phase.done_s.push(start.elapsed().as_secs_f64());
    })
}

fn closed_loop(fleet: &Fleet, reqs: &Requests, secs: f64) -> io::Result<Phase> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    load(fleet, |client, phase| {
        while Instant::now() < deadline {
            let (i, spec) = reqs.take();
            let request = reqs.build(spec, 0);
            let sent = Instant::now();
            let body = send(client, &request);
            let latency = sent.elapsed().as_secs_f64() * 1e3;
            phase.samples.push(Sample {
                index: i,
                spec,
                latency_ms: if body.is_some() {
                    latency
                } else {
                    f64::INFINITY
                },
                body,
            });
            phase.done_s.push(start.elapsed().as_secs_f64());
        }
    })
}

/// Runs `each` on [`CONNECTIONS`] threads, one router connection each.
fn load<F>(fleet: &Fleet, each: F) -> io::Result<Phase>
where
    F: Fn(&mut Client, &mut Phase) + Sync,
{
    let phases: Vec<io::Result<Phase>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(fleet.socket())?;
                    let mut phase = Phase::default();
                    each(&mut client, &mut phase);
                    phase.retries = client.retries();
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut merged = Phase::default();
    for phase in phases {
        merged.absorb(phase?);
    }
    Ok(merged)
}

/// The fleet after set-up, with the store it serves from.
struct Ready {
    fleet: Fleet,
    store: std::path::PathBuf,
    setup_s: f64,
    /// `serve-repeat`: the first answer to each request of the set.
    answers: Vec<String>,
}

/// Starts the fleet on a fresh store, warms the store with one cold
/// request per kind and, for `serve-repeat`, answers the repeat set once.
/// Repeated `reps` times; the last fleet stays up.
fn set_up(reqs: &Requests, work: &WorkDir, reps: usize) -> io::Result<Ready> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let store = work.fresh(&format!("store-{rep}"));
        let start = Instant::now();
        let fleet = Fleet::start(&work.path().join(format!("fleet-{rep}")), &store)?;
        let mut client = Client::connect(fleet.socket())?;
        for kind in 0..reqs.kinds.len() {
            if send(&mut client, &reqs.warm_request(kind)).is_none() {
                return Err(io::Error::other("store warm-up failed"));
            }
        }
        let mut answers = Vec::new();
        for &spec in &reqs.repeats {
            let body = send(&mut client, &reqs.build(spec, 0))
                .ok_or_else(|| io::Error::other("repeat-set priming failed"))?;
            answers.push(body);
        }
        drop(client);
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            return Ok(Ready {
                fleet,
                store,
                setup_s: median(&times),
                answers,
            });
        }
        fleet.shutdown()?;
        let _ = std::fs::remove_dir_all(&store);
    }
    unreachable!("reps >= 1")
}

/// The daemon's own pipeline configuration (`oha-serve` runs the defaults
/// at a given width), for the oracle and the in-process layer timings.
fn server_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        store: None,
        faults: FaultPlan::disabled(),
        ..PipelineConfig::default()
    }
}

fn endpoints(raw: &[u32]) -> Vec<InstId> {
    raw.iter().map(|&r| InstId::new(r)).collect()
}

fn canonical(pipeline: &Pipeline, kind: &Kind, testing: &[Vec<i64>]) -> String {
    match kind.tool {
        Tool::OptFt => optft_canonical_json(&pipeline.run_optft(&kind.profiling, testing)),
        Tool::OptSlice => optslice_canonical_json(&pipeline.run_optslice(
            &kind.profiling,
            testing,
            &endpoints(&kind.endpoints),
        )),
    }
}

/// In-process single-thread pipelines over a store of their own: the bytes
/// a sampled response must equal.
struct Oracle {
    store: Arc<Store>,
    programs: Vec<Program>,
}

impl Oracle {
    fn new(reqs: &Requests, dir: &std::path::Path) -> io::Result<Self> {
        let programs = reqs
            .kinds
            .iter()
            .map(|k| parse_program(&k.text).expect("printed programs parse"))
            .collect();
        Ok(Self {
            store: Arc::new(Store::open(dir)?),
            programs,
        })
    }

    fn answer(&self, reqs: &Requests, spec: Spec) -> String {
        let (kind, input) = match spec {
            Spec::Fresh { kind, input } => (kind, input),
            Spec::Repeat(r) => return self.answer(reqs, reqs.repeats[r]),
        };
        let pipeline = Pipeline::new(self.programs[kind].clone())
            .with_config(server_config(1))
            .with_store(Arc::clone(&self.store));
        canonical(&pipeline, &reqs.kinds[kind], &[reqs.input(kind, input)])
    }
}

/// Whether a canonical body states the soundness promise (the optimistic
/// result equals the full analysis), and whether any of its runs rolled
/// back.
fn sound(tool: Tool, body: &str) -> (bool, bool) {
    let Ok(json) = Json::parse(body) else {
        return (false, false);
    };
    let sound = match tool {
        Tool::OptFt => {
            json.get("baseline_races").is_some()
                && json.get("baseline_races") == json.get("optimistic_races")
        }
        Tool::OptSlice => json.get("all_slices_equal") == Some(&Json::Bool(true)),
    };
    let rolled_back = json.get("runs").and_then(Json::as_arr).is_some_and(|runs| {
        runs.iter()
            .any(|r| r.get("rolled_back") == Some(&Json::Bool(true)))
    });
    (sound, rolled_back)
}

/// Output checks, outside every timed window: each response is a success
/// stating the optimistic result equals the full analysis; repeats are
/// byte-equal to their first answer; a seeded 1-in-20 sample is
/// byte-equal to the oracle. Returns the kinds some response of which
/// rolled back (a warm rollback invalidates that kind's stored artifact).
fn validate(
    result: &mut RunResult,
    reqs: &Requests,
    answers: &[String],
    oracle: &Oracle,
    samples: &[Sample],
) -> HashSet<&'static str> {
    let mut oracle_cache: HashMap<String, String> = HashMap::new();
    let mut rolled_back = HashSet::new();
    for s in samples {
        let kind = reqs.kind(s.spec);
        let Some(body) = &s.body else {
            result.check(false, || {
                format!("{} request {} failed", kind.name, s.index)
            });
            continue;
        };
        let (mut ok, rollback) = sound(kind.tool, body);
        if rollback {
            rolled_back.insert(kind.name);
        }
        if let Spec::Repeat(r) = s.spec {
            ok &= *body == answers[r];
        }
        if splitmix64(reqs.seed ^ 0x0ac1_e5a1 ^ splitmix64(s.index as u64)) % ORACLE_ONE_IN == 0 {
            let key = format!("{:?}", s.spec);
            let expected = oracle_cache
                .entry(key)
                .or_insert_with(|| oracle.answer(reqs, s.spec));
            ok &= body == expected;
        }
        result.check(ok, || {
            format!("{} request {}: wrong response", kind.name, s.index)
        });
    }
    rolled_back
}

/// The untraced end-to-end run.
pub fn run(mix: Mix, seed: u64, seconds: f64, smoke: bool) -> io::Result<RunResult> {
    let reqs = Requests::new(mix, seed, smoke);
    reqs.prepare(seconds);
    let work = WorkDir::create(mix.label())?;
    let ready = set_up(&reqs, &work, SETUP_REPS)?;
    let spans = Spans::new(oha_obs::TraceLog::disabled());
    let open = open_loop(&ready.fleet, &reqs, seconds * OPEN_SHARE, &spans)?;
    let closed = closed_loop(&ready.fleet, &reqs, seconds * (1.0 - OPEN_SHARE))?;
    let rss = ready.fleet.peak_rss_mb();
    ready.fleet.shutdown()?;

    let mut result = RunResult::default();
    let oracle = Oracle::new(&reqs, &work.fresh("oracle-store"))?;
    validate(&mut result, &reqs, &ready.answers, &oracle, &open.samples);
    validate(&mut result, &reqs, &ready.answers, &oracle, &closed.samples);

    let latencies = open.latencies();
    result.set("setup_s", ready.setup_s);
    result.set("throughput_per_s", closed.throughput());
    result.set("p50_ms", median(&latencies));
    result.set("p90_ms", quantile(&latencies, 0.9));
    result.set("peak_rss_mb", rss);
    result.rows.push(Json::Obj(vec![
        ("open_loop_rps".into(), Json::num(mix.rate())),
        (
            "open_loop_requests".into(),
            Json::num(latencies.len() as f64),
        ),
        (
            "closed_loop_requests".into(),
            Json::num(closed.samples.len() as f64),
        ),
        ("late_ms_max".into(), Json::num(open.late_max_ms)),
        (
            "retries".into(),
            Json::num((open.retries + closed.retries) as f64),
        ),
    ]));
    Ok(result)
}

/// Fleet-wide counters and the merged queue-wait histogram at one moment.
struct Snapshot {
    lru_hits: f64,
    busy: f64,
    failovers: f64,
    queue_wait_ns_sum: f64,
    queue_wait_count: f64,
}

impl Snapshot {
    fn take(fleet: &Fleet) -> io::Result<Self> {
        let metrics = fleet.metrics()?;
        let totals = metrics.get("totals");
        let total = |name: &str| totals.and_then(|t| t.get(name)).and_then(Json::as_f64);
        let wait = totals
            .and_then(|t| t.get("queue_wait_ns"))
            .and_then(|h| oha_obs::Histogram::from_json(h).ok())
            .unwrap_or_default();
        Ok(Self {
            lru_hits: total("lru_hits").unwrap_or(0.0),
            busy: total("busy_rejections").unwrap_or(0.0),
            failovers: metrics
                .get("cluster")
                .and_then(|c| c.get("failovers"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            queue_wait_ns_sum: wait.sum() as f64,
            queue_wait_count: wait.count() as f64,
        })
    }

    /// Mean queue wait (ms) of the compute jobs started since `before`.
    fn queue_wait_ms_since(&self, before: &Snapshot) -> f64 {
        let count = self.queue_wait_count - before.queue_wait_count;
        if count > 0.0 {
            (self.queue_wait_ns_sum - before.queue_wait_ns_sum) / count / 1e6
        } else {
            0.0
        }
    }
}

/// Interleaved request triples — straight to the home worker, through the
/// router, through the router with a trace ID — rotating which goes first.
struct Triples {
    direct: Vec<f64>,
    router: Vec<f64>,
    traced: Vec<f64>,
    router_minus_direct: Vec<f64>,
    samples: Vec<Sample>,
    retries: u64,
}

fn triples(fleet: &Fleet, reqs: &Requests, secs: f64, spans: &Spans) -> io::Result<Triples> {
    let topology = Topology::new(WORKERS);
    let mut workers: Vec<Client> = (0..WORKERS)
        .map(|w| Client::connect(fleet.worker_socket(w)))
        .collect::<io::Result<_>>()?;
    let mut router = Client::connect(fleet.socket())?;
    let mut out = Triples {
        direct: Vec::new(),
        router: Vec::new(),
        traced: Vec::new(),
        router_minus_direct: Vec::new(),
        samples: Vec::new(),
        retries: 0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut round = 0usize;
    while round < 10 || Instant::now() < deadline {
        // Three requests of one kind; serve-warm draws three fresh inputs.
        let (i, spec) = reqs.take();
        let specs = match spec {
            Spec::Fresh { kind, .. } => {
                let mut specs = vec![(i, spec)];
                while specs.len() < 3 {
                    let next = reqs.take();
                    if matches!(next.1, Spec::Fresh { kind: k, .. } if k == kind) {
                        specs.push(next);
                    }
                }
                specs
            }
            Spec::Repeat(_) => vec![(i, spec); 3],
        };
        let mut times = [0.0f64; 3];
        for slot in 0..3 {
            let which = (slot + round) % 3;
            let (index, spec) = specs[which];
            let trace_id = if which == 2 {
                spans.log.next_trace_id().max(1)
            } else {
                0
            };
            let request = reqs.build(spec, trace_id);
            let (body, ms) = if which == 0 {
                let home = topology.rank(shard_key(&request))[0];
                spans.time("serve.direct", || send(&mut workers[home], &request))
            } else {
                spans.time("cluster.router", || send(&mut router, &request))
            };
            times[which] = ms;
            out.samples.push(Sample {
                index,
                spec,
                latency_ms: ms,
                body,
            });
        }
        out.direct.push(times[0]);
        out.router.push(times[1]);
        out.traced.push(times[2]);
        out.router_minus_direct.push(times[1] - times[0]);
        round += 1;
    }
    out.retries = router.retries() + workers.iter().map(Client::retries).sum::<u64>();
    Ok(out)
}

/// Medians of the layers a request crosses, timed in-process on requests
/// of one kind: the codec and cache key every hop pays, and — for
/// `serve-warm` — what a worker does on an LRU miss.
fn in_process(
    reqs: &Requests,
    kind: usize,
    store: &Arc<Store>,
    spans: &Spans,
) -> BTreeMap<&'static str, f64> {
    const SAMPLES: usize = 9;
    let k = &reqs.kinds[kind];
    let mut s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| s.entry(name).or_default().push(v);
    for j in 0..SAMPLES {
        let spec = Spec::Fresh { kind, input: j };
        let request = reqs.build(spec, 0);
        let (bytes, ms) = spans.time("serve.encode", || request.encode());
        push("serve.encode_us", ms * 1e3);
        let (decoded, ms) = spans.time("serve.decode", || Request::decode(&bytes));
        push("serve.decode_us", ms * 1e3);
        assert!(decoded.is_ok(), "an encoded request decodes");
        let (_, ms) = spans.time("serve.cache_key", || {
            Fingerprint::of_bytes(&request.cache_key_bytes())
        });
        push("serve.cache_key_us", ms * 1e3);
        if reqs.mix == Mix::Repeat {
            continue;
        }

        let (program, ms) = spans.time("ir.parse_program", || {
            parse_program(&k.text).expect("printed programs parse")
        });
        push("ir.parse_us", ms * 1e3);
        // A one-thread worker gives each request's pipeline the whole
        // host's width.
        let pipeline = Pipeline::new(program)
            .with_config(server_config(oha_par::thread_count()))
            .with_store(Arc::clone(store));
        let (loaded, ms) = spans.time("store.load", || load_artifacts(&pipeline, k, store));
        push("store.load_ms", ms);
        push("store.load_hit", f64::from(u8::from(loaded)));
        let testing = [reqs.input(kind, j)];
        let start = Instant::now();
        let times = match k.tool {
            Tool::OptFt => {
                let (o, _) = spans.time("core.run_optft", || {
                    pipeline.run_optft(&k.profiling, &testing)
                });
                push("core.warm_pipeline_ms", start.elapsed().as_secs_f64() * 1e3);
                let (_, ms) = spans.time("core.canonical", || optft_canonical_json(&o));
                push("core.canonical_us", ms * 1e3);
                let r = &o.runs[0];
                push("fasttrack.full_ms", r.full.as_secs_f64() * 1e3);
                push("fasttrack.hybrid_ms", r.hybrid.as_secs_f64() * 1e3);
                push("fasttrack.optimistic_ms", r.optimistic.as_secs_f64() * 1e3);
                push("core.speedup_vs_hybrid", o.speedup_vs_hybrid());
                (
                    r.baseline,
                    r.checker_only,
                    r.optimistic + r.rollback,
                    r.rollback,
                    r.rolled_back,
                )
            }
            Tool::OptSlice => {
                let eps = endpoints(&k.endpoints);
                let (o, _) = spans.time("core.run_optslice", || {
                    pipeline.run_optslice(&k.profiling, &testing, &eps)
                });
                push("core.warm_pipeline_ms", start.elapsed().as_secs_f64() * 1e3);
                let (_, ms) = spans.time("core.canonical", || optslice_canonical_json(&o));
                push("core.canonical_us", ms * 1e3);
                let r = &o.runs[0];
                push("giri.hybrid_ms", r.hybrid.as_secs_f64() * 1e3);
                push("giri.optimistic_ms", r.optimistic.as_secs_f64() * 1e3);
                push("core.speedup_vs_hybrid", o.speedup_vs_hybrid());
                (
                    r.baseline,
                    r.checker_only,
                    r.optimistic + r.rollback,
                    r.rollback,
                    r.rolled_back,
                )
            }
        };
        let (baseline, checker, opt, rollback, rolled_back) = times;
        push("interp.baseline_ms", baseline.as_secs_f64() * 1e3);
        push("invariants.checker_ms", checker.as_secs_f64() * 1e3);
        push("core.rollback_ms", rollback.as_secs_f64() * 1e3);
        push("core.dyn_ms_per_exec", opt.as_secs_f64() * 1e3);
        push(
            "core.overhead_x",
            opt.as_secs_f64() / baseline.as_secs_f64().max(1e-9),
        );
        push("core.misspec_rate", f64::from(u8::from(rolled_back)));
    }
    s.into_iter().map(|(name, v)| (name, median(&v))).collect()
}

/// Loads a warm request's profile and static artifacts the way the
/// pipeline does, with keys from the public fingerprint functions;
/// returns whether both were present.
fn load_artifacts(pipeline: &Pipeline, kind: &Kind, store: &Store) -> bool {
    let program = pipeline.program().fingerprint();
    let Some(profile) = store.load_profile(&pipeline.profile_key(&kind.profiling, PATIENCE)) else {
        return false;
    };
    let invariants = profile.invariants.fingerprint();
    match kind.tool {
        Tool::OptFt => {
            let predicate = invariants
                .combine(pipeline.corpus_fingerprint(&kind.profiling, PATIENCE))
                .combine(pipeline.budget_fingerprint(false));
            store
                .load_optft(&ArtifactKey::new(program, predicate))
                .is_some()
        }
        Tool::OptSlice => {
            let mut h = FingerprintHasher::new();
            h.write(b"oha-endpoints-v1");
            h.write_u64(kind.endpoints.len() as u64);
            for &e in &kind.endpoints {
                h.write_u64(u64::from(e));
            }
            let predicate = invariants
                .combine(h.finish())
                .combine(pipeline.budget_fingerprint(true));
            store
                .load_optslice(&ArtifactKey::new(program, predicate))
                .is_some()
        }
    }
}

/// The traced pass: an open-loop phase for the load-dependent layers,
/// interleaved direct/router/traced triples, then in-process layer
/// timings on the warmed store.
pub fn layers(
    mix: Mix,
    seed: u64,
    seconds: f64,
    smoke: bool,
    log: &oha_obs::TraceLog,
) -> io::Result<RunResult> {
    let reqs = Requests::new(mix, seed, smoke);
    reqs.prepare(seconds);
    let work = WorkDir::create(mix.label())?;
    let ready = set_up(&reqs, &work, 1)?;
    let mut spans = Spans::new(log.clone());
    spans.next_operation();
    let fleet = &ready.fleet;

    let before_open = Snapshot::take(fleet)?;
    let open = open_loop(fleet, &reqs, seconds * 0.5, &spans)?;
    let after_open = Snapshot::take(fleet)?;
    let triples = triples(fleet, &reqs, seconds * 0.3, &spans)?;
    let after_triples = Snapshot::take(fleet)?;

    let store = Arc::new(Store::open(&ready.store)?);
    let kinds: Vec<BTreeMap<&'static str, f64>> = (0..reqs.kinds.len())
        .map(|kind| in_process(&reqs, kind, &store, &spans))
        .collect();
    drop(store);
    ready.fleet.shutdown()?;

    let mut result = RunResult::default();
    let oracle = Oracle::new(&reqs, &work.fresh("oracle-store"))?;
    let mut rolled_back = validate(&mut result, &reqs, &ready.answers, &oracle, &open.samples);
    rolled_back.extend(validate(
        &mut result,
        &reqs,
        &ready.answers,
        &oracle,
        &triples.samples,
    ));

    // The mix is 50/50, so a layer's per-request cost is the mean over
    // kinds; a layer a kind never enters counts 0 for it.
    for &(name, _) in crate::report::PER_LAYER {
        let per_kind: Vec<f64> = kinds
            .iter()
            .map(|k| k.get(name).copied().unwrap_or(0.0))
            .collect();
        result.set(name, mean(&per_kind));
    }
    // Without a rollback the warm artifacts must still be in the store,
    // under the keys the public fingerprint functions derive.
    for (k, layer) in kinds.iter().enumerate() {
        let name = reqs.kinds[k].name;
        if mix == Mix::Warm
            && !rolled_back.contains(name)
            && layer.get("core.misspec_rate") == Some(&0.0)
        {
            result.check(layer.get("store.load_hit") == Some(&1.0), || {
                format!("{name}: warm store has no artifacts under the pipeline's keys")
            });
        }
    }
    let sent = open.samples.len() as f64;
    result.set("serve.worker_ms_p50", median(&triples.direct));
    result.set(
        "cluster.router_ms_p50",
        median(&triples.router_minus_direct),
    );
    result.set(
        "serve.queue_wait_ms_mean",
        after_open.queue_wait_ms_since(&before_open),
    );
    result.set(
        "serve.lru_hit_frac",
        (after_open.lru_hits - before_open.lru_hits) / sent.max(1.0),
    );
    result.set(
        "serve.busy_rejections",
        after_triples.busy - before_open.busy,
    );
    result.set(
        "cluster.failovers",
        after_triples.failovers - before_open.failovers,
    );
    result.set("client.retries", (open.retries + triples.retries) as f64);
    result.set("bench.late_ms_max", open.late_max_ms);
    result.set(
        "bench.error_rate",
        result.failed as f64 / result.attempted.max(1) as f64,
    );

    // A request through the router is the router hop, the client's
    // encode and cache key, the worker's decode and cache key, its queue
    // wait and — on an LRU miss — parsing, the warm pipeline and the
    // canonical rendering. What those miss is the residual.
    let total = median(&triples.router);
    let m = |name: &str| result.metrics.get(name).copied().unwrap_or(0.0);
    let layer_sum = m("cluster.router_ms_p50")
        + (m("serve.encode_us") + 2.0 * m("serve.cache_key_us") + m("serve.decode_us")) / 1e3
        + after_triples.queue_wait_ms_since(&after_open)
        + m("ir.parse_us") / 1e3
        + m("core.warm_pipeline_ms")
        + m("core.canonical_us") / 1e3;
    result.set("core.total_ms", total);
    result.set("core.residual_frac", (total - layer_sum) / total);
    result.set(
        "core.trace_overhead_frac",
        median(&triples.traced) / total - 1.0,
    );
    for (k, layer) in kinds.iter().enumerate() {
        let mut row = vec![("kind".to_string(), Json::str(reqs.kinds[k].name))];
        row.extend(
            layer
                .iter()
                .map(|(name, v)| (name.to_string(), Json::num(*v))),
        );
        result.rows.push(Json::Obj(row));
    }
    Ok(result)
}
