//! The cluster front door: one socket speaking the ordinary daemon
//! protocol, backed by a supervised fleet of `oha-serve` workers.
//!
//! Routing: an `analyze` request's shard key is its cache key — the
//! same fingerprint the workers' LRU fronts and the retry jitter key on
//! — so identical requests always land on the same *home* worker and
//! its LRU absorbs the repeats. Analyze frames are recognised by their
//! op byte, keyed straight from the payload
//! ([`cache_key_of_payload`]) and forwarded verbatim: the router never
//! decodes or re-encodes them, so the worker is the one validator of an
//! analyze payload (a malformed one comes back as the worker's typed
//! `bad request` error, which is deterministic and not failed over). On a
//! transport error or a typed `busy` shed the router walks the key's
//! rendezvous ranking to the next live worker (capped-backoff delays
//! between attempts, the client crate's own discipline), which is safe
//! for exactly the reason client retries are: `analyze` is idempotent,
//! every worker derives the same canonical bytes. Non-busy error
//! responses (parse failures, bad endpoints) are *deterministic* —
//! every worker would say the same — so they return to the client
//! as-is, without failover. A typed need-corpus answer to a
//! by-reference frame is one of those: it goes back to the client, which
//! resends the corpus inline through the router to the same home worker
//! (both forms share a key). The router itself never resends.
//!
//! Telemetry: `stats` and `metrics` fan out to every worker and merge.
//! Counters sum; latency histograms merge bucket-by-bucket
//! ([`Histogram::merge`]), so the cluster-wide distribution is exact,
//! not an approximation. The Prometheus exposition renders through the
//! same [`oha_obs::prom`] module the workers use, plus
//! `oha_cluster_*` families for the fleet itself.
//!
//! Shutdown: the `shutdown` op acknowledges, stops accepting, finishes
//! in-flight requests, then drains workers in sequence before the
//! router exits — one graceful cascade from a single client call.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oha_faults::{sites, FaultPlan};
use oha_obs::{prom, Histogram, Json};
use oha_par::TaskPool;
use oha_serve::proto::{cache_key_of_payload, is_analyze_payload, read_frame, write_frame};
use oha_serve::{Client, ClientConfig, MetricsFormat, Request, Response, RetryPolicy};

use crate::supervisor::{Supervisor, SupervisorConfig};
use crate::topology::Topology;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The socket clients connect to (`oha-client` works unchanged).
    pub socket: PathBuf,
    /// Fleet definition; the router starts and owns the supervisor.
    pub supervisor: SupervisorConfig,
    /// Connection-handler threads (`0` = `4 × workers + 4`).
    pub io_threads: usize,
    /// Deadline on each forwarded request's response read. The default
    /// (150 s) outlasts the workers' own 120 s compute deadline, so a
    /// worker times out (typed error) before the router gives up on it.
    pub forward_read_timeout: Duration,
    /// How long a forward attempt waits for a worker socket to accept
    /// (kept short: a restarting worker should cost one failover, not a
    /// long stall).
    pub forward_connect_timeout: Duration,
    /// Failover/retry schedule: `max_retries + 1` passes over the key's
    /// ranking, with `backoff(key, attempt)` sleeps between attempts.
    pub retry: RetryPolicy,
    /// Client-facing socket read/write deadline.
    pub io_timeout: Duration,
    /// Router-side fault plan ([`sites::CLUSTER_ROUTE_DELAY`] before
    /// each forward; the supervisor consults
    /// [`sites::CLUSTER_WORKER_KILL`]).
    pub faults: FaultPlan,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            socket: PathBuf::from("oha-router.sock"),
            supervisor: SupervisorConfig::default(),
            io_threads: 0,
            forward_read_timeout: Duration::from_secs(150),
            forward_connect_timeout: Duration::from_millis(500),
            retry: RetryPolicy::default(),
            io_timeout: Duration::from_secs(300),
            faults: FaultPlan::disabled(),
        }
    }
}

/// Counters the router reports through `stats` and returns from
/// [`Router::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Client requests answered (all ops).
    pub requests: u64,
    /// Analyze requests forwarded to a worker and answered.
    pub forwarded: u64,
    /// Answers that came from a non-home worker.
    pub failovers: u64,
    /// Analyze requests no worker could answer.
    pub router_errors: u64,
}

struct Shared {
    socket: PathBuf,
    topology: Topology,
    supervisor: Supervisor,
    retry: RetryPolicy,
    forward_config: ClientConfig,
    faults: FaultPlan,
    io_timeout: Duration,
    shutting: AtomicBool,
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    router_errors: AtomicU64,
    shard_requests: Vec<AtomicU64>,
}

/// Per-connection cache of worker clients: one lazily-opened connection
/// per worker per client connection, healing itself on transport errors
/// (the [`Client`] reconnects on the next call).
type WorkerClients = HashMap<usize, Client>;

impl Shared {
    fn stats(&self) -> RouterStats {
        RouterStats {
            requests: self.requests.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            router_errors: self.router_errors.load(Ordering::Relaxed),
        }
    }

    /// Sends one encoded request to `worker` and returns its answer.
    fn forward(
        &self,
        worker: usize,
        payload: &[u8],
        clients: &mut WorkerClients,
    ) -> io::Result<Response> {
        let client = match clients.entry(worker) {
            Entry::Occupied(occupied) => occupied.into_mut(),
            Entry::Vacant(vacant) => vacant.insert(Client::connect_with(
                self.supervisor.socket(worker),
                self.forward_config.clone(),
            )?),
        };
        client.call_encoded(payload)
    }

    /// Routes one analyze payload, as the client sent it: home worker
    /// first, then the key's rendezvous failover order, `max_retries + 1`
    /// passes with backoff between attempts. Early passes skip workers
    /// the supervisor knows are down; the last pass tries everything,
    /// since supervision can lag reality in both directions.
    fn route(&self, payload: &[u8], clients: &mut WorkerClients) -> Response {
        let key = cache_key_of_payload(payload).0 as u64;
        let ranking = self.topology.rank(key);
        let home = ranking[0];
        let passes = self.retry.max_retries as usize + 1;
        let mut attempt = 0u32;
        let mut last_busy: Option<Response> = None;
        for pass in 0..passes {
            for &worker in &ranking {
                if pass + 1 < passes && !self.supervisor.is_up(worker) {
                    continue;
                }
                if attempt > 0 {
                    std::thread::sleep(self.retry.backoff(key, attempt));
                }
                attempt += 1;
                if self.faults.should_inject(sites::CLUSTER_ROUTE_DELAY) {
                    std::thread::sleep(self.faults.delay());
                }
                match self.forward(worker, payload, clients) {
                    Ok(response) if !response.busy => {
                        self.forwarded.fetch_add(1, Ordering::Relaxed);
                        self.shard_requests[worker].fetch_add(1, Ordering::Relaxed);
                        if worker != home {
                            self.failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        return response;
                    }
                    Ok(busy) => last_busy = Some(busy),
                    Err(_) => {}
                }
            }
        }
        self.router_errors.fetch_add(1, Ordering::Relaxed);
        // A fleet-wide `busy` propagates as `busy` — still typed, still
        // safe for the client to retry with its own backoff.
        last_busy.unwrap_or_else(|| {
            Response::err(format!(
                "cluster: no worker answered after {attempt} attempts"
            ))
        })
    }

    /// Fans `request` out to every worker, `None` where a worker fails
    /// to answer.
    fn fan_out(&self, request: &Request, clients: &mut WorkerClients) -> Vec<Option<Response>> {
        let payload = request.encode();
        (0..self.topology.workers())
            .map(|worker| match self.forward(worker, &payload, clients) {
                Ok(response) if response.ok => Some(response),
                _ => None,
            })
            .collect()
    }

    fn cluster_json(&self) -> Json {
        let s = self.stats();
        let num = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("workers".to_string(), num(self.topology.workers() as u64)),
            (
                "live_workers".to_string(),
                num(self.supervisor.live_workers()),
            ),
            (
                "restarts".to_string(),
                num(self.supervisor.restarts_total()),
            ),
            (
                "chaos_kills".to_string(),
                num(self.supervisor.chaos_kills_total()),
            ),
            ("requests".to_string(), num(s.requests)),
            ("forwarded".to_string(), num(s.forwarded)),
            ("failovers".to_string(), num(s.failovers)),
            ("router_errors".to_string(), num(s.router_errors)),
            (
                "shard_requests".to_string(),
                Json::Arr(
                    self.shard_requests
                        .iter()
                        .map(|c| num(c.load(Ordering::Relaxed)))
                        .collect(),
                ),
            ),
            (
                "pids".to_string(),
                Json::Arr(self.supervisor.worker_pids().into_iter().map(num).collect()),
            ),
        ])
    }

    /// The cluster `stats` body: the fleet section, each worker's own
    /// stats snapshot (`null` for an unreachable worker) and the
    /// numeric sum over the reachable ones.
    fn stats_json(&self, clients: &mut WorkerClients) -> String {
        let snapshots: Vec<Option<Json>> = self
            .fan_out(&Request::Stats, clients)
            .into_iter()
            .map(|r| r.and_then(|response| Json::parse(&response.body).ok()))
            .collect();
        let totals = merge_snapshots(&snapshots, &[]);
        Json::Obj(vec![
            ("cluster".to_string(), self.cluster_json()),
            (
                "workers".to_string(),
                Json::Arr(
                    snapshots
                        .into_iter()
                        .map(|s| s.unwrap_or(Json::Null))
                        .collect(),
                ),
            ),
            ("totals".to_string(), totals),
        ])
        .to_string_compact()
    }

    /// The cluster `metrics` JSON: like stats, but the latency
    /// histograms are merged exactly instead of numerically summed.
    fn metrics_json(&self, clients: &mut WorkerClients) -> (Json, Vec<Option<Json>>) {
        let snapshots: Vec<Option<Json>> = self
            .fan_out(
                &Request::Metrics {
                    format: MetricsFormat::Json,
                },
                clients,
            )
            .into_iter()
            .map(|r| r.and_then(|response| Json::parse(&response.body).ok()))
            .collect();
        let totals = merge_snapshots(&snapshots, &["request_latency_ns", "queue_wait_ns"]);
        let merged = Json::Obj(vec![
            ("cluster".to_string(), self.cluster_json()),
            (
                "workers".to_string(),
                Json::Arr(
                    snapshots
                        .iter()
                        .map(|s| s.clone().unwrap_or(Json::Null))
                        .collect(),
                ),
            ),
            ("totals".to_string(), totals),
        ]);
        (merged, snapshots)
    }

    /// The cluster Prometheus exposition: the same families a single
    /// daemon exposes (summed counters, exactly-merged histograms) plus
    /// the `oha_cluster_*` fleet families — a scraper pointed here sees
    /// a strict superset of a worker's exposition.
    fn metrics_prometheus(&self, clients: &mut WorkerClients) -> String {
        let (_, snapshots) = self.metrics_json(clients);
        let totals = merge_snapshots(&snapshots, &["request_latency_ns", "queue_wait_ns"]);
        let field = |name: &str| totals.get(name).and_then(Json::as_u64).unwrap_or(0);
        let mut out = String::new();
        let counter = "counter";
        let gauge = "gauge";
        prom::sample(
            &mut out,
            counter,
            "oha_requests_total",
            "Requests answered (all ops, summed over workers).",
            field("requests"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_lru_hits_total",
            "Analyze responses served from worker LRU fronts.",
            field("lru_hits"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_lru_evictions_total",
            "Responses evicted from worker LRU fronts.",
            field("lru_evictions"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_timeouts_total",
            "Requests that overran a worker's compute deadline.",
            field("timeouts"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_errors_total",
            "Malformed or failed requests across the fleet.",
            field("errors"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_busy_rejections_total",
            "Analyze requests shed Busy at worker queue bounds.",
            field("busy_rejections"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_need_corpus_total",
            "By-reference analyze requests answered need-corpus across the fleet.",
            field("need_corpus"),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_panicked_jobs_total",
            "Worker compute jobs whose closure panicked.",
            field("panicked_jobs"),
        );
        prom::sample(
            &mut out,
            gauge,
            "oha_queue_depth",
            "Compute jobs queued across the fleet.",
            field("queue_depth"),
        );
        prom::sample(
            &mut out,
            gauge,
            "oha_in_flight",
            "Analyze requests in flight across the fleet.",
            field("in_flight"),
        );
        prom::sample(
            &mut out,
            gauge,
            "oha_open_connections",
            "Open worker-side client connections.",
            field("open_connections"),
        );
        prom::sample(
            &mut out,
            gauge,
            "oha_lru_entries",
            "Entries held by worker LRU fronts.",
            field("lru_len"),
        );
        for (name, key, help) in [
            (
                "oha_request_latency_seconds",
                "request_latency_ns",
                "Wall-clock time per answered request (exact merge over workers).",
            ),
            (
                "oha_queue_wait_seconds",
                "queue_wait_ns",
                "Time compute jobs spent queued (exact merge over workers).",
            ),
        ] {
            let merged = totals
                .get(key)
                .and_then(|j| Histogram::from_json(j).ok())
                .unwrap_or_default();
            prom::histogram(&mut out, name, help, &merged);
        }
        let s = self.stats();
        prom::sample(
            &mut out,
            gauge,
            "oha_cluster_workers",
            "Configured fleet size.",
            self.topology.workers() as u64,
        );
        prom::sample(
            &mut out,
            gauge,
            "oha_cluster_live_workers",
            "Workers currently serving.",
            self.supervisor.live_workers(),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_cluster_worker_restarts_total",
            "Worker respawns after deaths.",
            self.supervisor.restarts_total(),
        );
        prom::sample(
            &mut out,
            counter,
            "oha_cluster_forwarded_total",
            "Analyze requests forwarded to a worker and answered.",
            s.forwarded,
        );
        prom::sample(
            &mut out,
            counter,
            "oha_cluster_failovers_total",
            "Answers served by a non-home worker.",
            s.failovers,
        );
        prom::sample(
            &mut out,
            counter,
            "oha_cluster_router_errors_total",
            "Analyze requests no worker could answer.",
            s.router_errors,
        );
        out.push_str("# HELP oha_cluster_shard_requests_total Answered requests per shard.\n");
        out.push_str("# TYPE oha_cluster_shard_requests_total counter\n");
        for (shard, count) in self.shard_requests.iter().enumerate() {
            out.push_str(&format!(
                "oha_cluster_shard_requests_total{{shard=\"{shard}\"}} {}\n",
                count.load(Ordering::Relaxed)
            ));
        }
        out
    }
}

/// Sums worker snapshots field-by-field: numbers add, booleans OR,
/// objects recurse, `null`/missing contribute nothing, strings keep the
/// first value. Fields named in `histograms` (at any nesting level) are
/// merged through [`Histogram::merge`] instead — bucket-exact — and
/// per-worker identity fields (`worker_id`) are dropped.
fn merge_snapshots(snapshots: &[Option<Json>], histograms: &[&str]) -> Json {
    let mut totals = Json::Null;
    for snapshot in snapshots.iter().flatten() {
        totals = merge_value(totals, snapshot, "", histograms);
    }
    totals
}

fn merge_value(acc: Json, incoming: &Json, key: &str, histograms: &[&str]) -> Json {
    if histograms.contains(&key) {
        let mut merged = match Histogram::from_json(&acc) {
            Ok(h) => h,
            Err(_) => Histogram::new(),
        };
        if let Ok(h) = Histogram::from_json(incoming) {
            merged.merge(&h);
        }
        return merged.to_json();
    }
    match (acc, incoming) {
        (acc, Json::Null) => acc,
        (Json::Null, other) => merge_value(zero_like(other), other, key, histograms),
        (Json::Num(a), Json::Num(b)) => Json::Num(a + b),
        (Json::Bool(a), Json::Bool(b)) => Json::Bool(a || *b),
        (Json::Obj(acc_fields), Json::Obj(fields)) => {
            let mut acc_fields = acc_fields;
            for (k, v) in fields {
                if k == "worker_id" {
                    continue;
                }
                match acc_fields.iter_mut().find(|(name, _)| name == k) {
                    Some((_, slot)) => {
                        let prev = std::mem::replace(slot, Json::Null);
                        *slot = merge_value(prev, v, k, histograms);
                    }
                    None => {
                        acc_fields.push((k.clone(), merge_value(Json::Null, v, k, histograms)));
                    }
                }
            }
            Json::Obj(acc_fields)
        }
        (acc, _) => acc,
    }
}

/// The additive identity shaped like `value`, so the first snapshot
/// merges into a neutral accumulator instead of being copied verbatim
/// (which would skip the histogram special-casing).
fn zero_like(value: &Json) -> Json {
    match value {
        Json::Num(_) => Json::Num(0.0),
        Json::Bool(_) => Json::Bool(false),
        Json::Obj(_) => Json::Obj(Vec::new()),
        other => other.clone(),
    }
}

/// The cluster front door. [`Router::bind`] starts the worker fleet and
/// binds the client socket; [`Router::run`] serves until a `shutdown`
/// request, then drains the fleet and itself.
pub struct Router {
    listener: UnixListener,
    shared: Arc<Shared>,
    io_pool: TaskPool,
}

impl Router {
    /// Starts the supervisor (workers boot asynchronously) and binds
    /// the router socket.
    pub fn bind(config: RouterConfig) -> io::Result<Self> {
        let workers = config.supervisor.workers;
        let supervisor = Supervisor::start(config.supervisor)?;
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        let io_threads = if config.io_threads == 0 {
            workers * 4 + 4
        } else {
            config.io_threads
        };
        let shared = Arc::new(Shared {
            socket: config.socket,
            topology: Topology::new(workers),
            supervisor,
            retry: config.retry,
            forward_config: ClientConfig {
                read_timeout: Some(config.forward_read_timeout),
                // The router *is* the retry loop; a forwarded attempt
                // must fail fast so failover stays prompt.
                retry: RetryPolicy::none(),
                connect_timeout: config.forward_connect_timeout,
            },
            faults: config.faults,
            io_timeout: config.io_timeout.max(Duration::from_secs(1)),
            shutting: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            router_errors: AtomicU64::new(0),
            shard_requests: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        Ok(Self {
            listener,
            shared,
            io_pool: TaskPool::new(io_threads),
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.shared.socket
    }

    /// The worker fleet (tests use it to kill workers and watch
    /// recovery).
    pub fn supervisor(&self) -> &Supervisor {
        &self.shared.supervisor
    }

    /// Serves until a `shutdown` request arrives, then drains: handlers
    /// finish, workers drain in sequence, the socket file is removed.
    pub fn run(self) -> io::Result<RouterStats> {
        for stream in self.listener.incoming() {
            if self.shared.shutting.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&self.shared);
            self.io_pool
                .submit(move || handle_connection(stream, &shared));
        }
        self.io_pool.shutdown();
        self.shared.supervisor.drain();
        let stats = self.shared.stats();
        let _ = std::fs::remove_file(&self.shared.socket);
        Ok(stats)
    }
}

fn handle_connection(stream: UnixStream, shared: &Arc<Shared>) {
    // A stalled or half-open client must not pin a handler or wedge the
    // graceful drain: cap every socket read and write.
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut clients: WorkerClients = HashMap::new();
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let response = dispatch(&payload, shared, &mut clients);
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
        if shared.shutting.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn dispatch(payload: &[u8], shared: &Arc<Shared>, clients: &mut WorkerClients) -> Response {
    // Analyze frames travel to a worker verbatim; it decodes them.
    if is_analyze_payload(payload) {
        return shared.route(payload, clients);
    }
    match Request::decode(payload) {
        Ok(Request::Stats) => Response::ok(shared.stats_json(clients)),
        Ok(Request::Metrics { format }) => Response::ok(match format {
            MetricsFormat::Json => shared.metrics_json(clients).0.to_string_pretty(),
            MetricsFormat::Prometheus => shared.metrics_prometheus(clients),
        }),
        Ok(Request::Shutdown) => {
            shared.shutting.store(true, Ordering::SeqCst);
            // Wake the accept loop so it can observe the flag; worker
            // drain happens in `run` after the handlers finish.
            let _ = UnixStream::connect(&shared.socket);
            Response::ok("{\"shutting_down\":true}")
        }
        Ok(Request::Analyze { .. }) => unreachable!("only an analyze op byte decodes to Analyze"),
        Err(e) => Response::err(format!("bad request: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: f64) -> Json {
        Json::Num(v)
    }

    #[test]
    fn merge_sums_numbers_and_recurses_into_objects() {
        let a = Json::Obj(vec![
            ("requests".to_string(), num(3.0)),
            ("worker_id".to_string(), num(0.0)),
            (
                "store".to_string(),
                Json::Obj(vec![("hits".to_string(), num(2.0))]),
            ),
        ]);
        let b = Json::Obj(vec![
            ("requests".to_string(), num(4.0)),
            ("worker_id".to_string(), num(1.0)),
            (
                "store".to_string(),
                Json::Obj(vec![("hits".to_string(), num(5.0))]),
            ),
        ]);
        let merged = merge_snapshots(&[Some(a), Some(b), None], &[]);
        assert_eq!(merged.get("requests").and_then(Json::as_u64), Some(7));
        assert_eq!(
            merged
                .get("store")
                .and_then(|s| s.get("hits"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert!(merged.get("worker_id").is_none());
    }

    #[test]
    fn merge_treats_named_histograms_exactly() {
        let mut h1 = Histogram::new();
        let mut h2 = Histogram::new();
        h1.record(100);
        h1.record(1_000);
        h2.record(100_000);
        let a = Json::Obj(vec![("request_latency_ns".to_string(), h1.to_json())]);
        let b = Json::Obj(vec![("request_latency_ns".to_string(), h2.to_json())]);
        let merged = merge_snapshots(&[Some(a), Some(b)], &["request_latency_ns"]);
        let hist = Histogram::from_json(merged.get("request_latency_ns").unwrap()).unwrap();
        let mut expected = h1.clone();
        expected.merge(&h2);
        assert_eq!(hist.count(), expected.count());
        assert_eq!(hist.sum(), expected.sum());
        assert_eq!(
            hist.to_json().to_string_compact(),
            expected.to_json().to_string_compact()
        );
    }
}
