//! The analysis daemon: a Unix-domain-socket server dispatching pipeline
//! requests onto a persistent worker pool.
//!
//! Concurrency shape:
//!
//! - an accept loop (the thread that called [`Server::run`]) hands each
//!   connection to the I/O pool,
//! - each connection handler reads frames and submits the compute to the
//!   *work* pool, waiting on a per-request channel with a deadline
//!   ([`ServerConfig::request_timeout`]) — a wedged analysis times the
//!   request out without wedging the connection or the daemon,
//! - compute jobs build a fresh [`Pipeline`] per request (the metrics
//!   registry is deliberately thread-local) over the *shared*
//!   [`Store`], and identical requests are answered from an in-memory
//!   LRU front without touching a pipeline at all.
//!
//! Telemetry: every request's wall-clock latency lands in a log₂
//! [`Histogram`], the `metrics` op answers with a JSON snapshot or a
//! Prometheus-style text exposition of the live gauges (queue depth,
//! in-flight compute, open connections, LRU occupancy) and latency
//! distributions, and when a [`TraceLog`] is configured each `analyze`
//! request records a causally-linked span tree — the connection handler's
//! `serve/request` span on one track, the compute pipeline's phase spans
//! on another, all under one trace ID that is echoed to the client.
//!
//! Shutdown is a graceful drain: the `shutdown` op stops the accept
//! loop (a self-connection wakes it), in-flight requests finish, then
//! both pools join their workers and the Chrome trace JSON (if
//! [`ServerConfig::trace_out`] is set) is written.

use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use oha_core::{optft_canonical_json, optslice_canonical_json, Pipeline, PipelineConfig};
use oha_faults::{sites, FaultPlan};
use oha_ir::{parse_program, Fingerprint, InstId, InstKind, Program};
use oha_obs::{Histogram, Json, TraceLog, DEFAULT_TRACE_CAPACITY};
use oha_par::TaskPool;
use oha_store::{Lru, Store};

use crate::proto::{
    cache_key_of_payload, read_frame, write_frame, MetricsFormat, Request, Response, Tool,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix-domain socket path (a stale file at this path is removed on
    /// bind).
    pub socket: PathBuf,
    /// Artifact-store directory; `None` serves without persistence (the
    /// LRU front still deduplicates identical requests).
    pub store_dir: Option<PathBuf>,
    /// Compute-pool worker threads (`0` = the `OHA_THREADS` override,
    /// then the hardware default). The connection-handler pool is sized
    /// `threads + max_queue + 1`, so the compute queue can reach its
    /// bound and the arrival after that gets the `Busy` shed.
    pub threads: usize,
    /// Per-request compute deadline; an overrun answers the client with
    /// an error while the stray job finishes in the background.
    pub request_timeout: Duration,
    /// Response-cache capacity in entries.
    pub lru_capacity: usize,
    /// Trace-event log shared by every request. Disabled by default;
    /// when [`trace_out`](ServerConfig::trace_out) is set and this is
    /// still disabled, [`Server::bind`] enables a default-capacity log.
    pub trace: TraceLog,
    /// Write the Chrome trace-event JSON here on graceful drain.
    pub trace_out: Option<PathBuf>,
    /// Bound on compute jobs queued (not yet running) on the work pool.
    /// An analyze request arriving past the bound is refused with a
    /// typed `Busy` response instead of queuing without limit. `0` (the
    /// default) resolves to 4× the worker count.
    pub max_queue: usize,
    /// Per-operation deadline for the connection handlers' socket reads
    /// and writes (the I/O pool's analogue of the compute deadline): a
    /// stalled or half-open peer errors out instead of pinning a
    /// handler forever. `None` (the default) resolves to twice
    /// [`request_timeout`](ServerConfig::request_timeout), at least one
    /// second.
    pub io_timeout: Option<Duration>,
    /// Fault-injection plan shared by the store, the connection
    /// handlers and the compute jobs. Disabled by default; the
    /// `oha-serve` binary arms it from `OHA_FAULTS`.
    pub faults: FaultPlan,
    /// Shard identity when this daemon runs as a cluster worker under
    /// `oha-router`; echoed as `worker_id` in `stats`/`metrics`
    /// snapshots so aggregated telemetry can attribute each snapshot.
    /// `None` (the default) reports `null` — a standalone daemon.
    pub worker_id: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            socket: PathBuf::from("oha-serve.sock"),
            store_dir: None,
            threads: 0,
            request_timeout: Duration::from_secs(120),
            lru_capacity: 64,
            trace: TraceLog::disabled(),
            trace_out: None,
            max_queue: 0,
            io_timeout: None,
            faults: FaultPlan::disabled(),
            worker_id: None,
        }
    }
}

/// Counters and gauges the daemon reports through the `stats` op and
/// returns from [`Server::run`]. The gauge fields (`queue_depth`,
/// `in_flight`, `open_connections`, `lru_len`) are point-in-time
/// snapshots — in the final stats returned by a drained server they are
/// normally zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (all ops).
    pub requests: u64,
    /// Analyze responses served from the in-memory LRU front.
    pub lru_hits: u64,
    /// Responses evicted from the LRU front.
    pub lru_evictions: u64,
    /// Requests that overran the compute deadline.
    pub timeouts: u64,
    /// Malformed or failed requests.
    pub errors: u64,
    /// Analyze requests shed with a `Busy` response at the queue bound.
    pub busy_rejections: u64,
    /// Compute jobs queued on the work pool but not yet started.
    pub queue_depth: u64,
    /// Analyze requests currently waiting on compute.
    pub in_flight: u64,
    /// Client connections currently open.
    pub open_connections: u64,
    /// Entries currently held by the LRU front.
    pub lru_len: u64,
}

struct Shared {
    store: Option<Arc<Store>>,
    lru: Mutex<Lru<Fingerprint, Response>>,
    work: TaskPool,
    timeout: Duration,
    io_timeout: Duration,
    max_queue: usize,
    faults: FaultPlan,
    worker_id: Option<u64>,
    /// Worker threads each request's pipeline may use for its own
    /// parallel phases (profiling fan-out, sharded static solve). Capped
    /// at `host threads / compute workers` so concurrent requests never
    /// oversubscribe the host; results are width-invariant, so the cap
    /// only affects latency.
    pipeline_threads: usize,
    shutting: AtomicBool,
    socket: PathBuf,
    trace: TraceLog,
    requests: AtomicU64,
    lru_hits: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
    busy_rejections: AtomicU64,
    in_flight: AtomicU64,
    open_connections: AtomicU64,
    /// Wall-clock nanoseconds per answered request (all ops), recorded
    /// at the same site as the `requests` counter so the histogram's
    /// count always equals it.
    request_latency: Mutex<Histogram>,
}

/// Decrements an atomic gauge on drop, so early returns cannot leak an
/// increment.
struct GaugeGuard<'a>(&'a AtomicU64);

impl<'a> GaugeGuard<'a> {
    fn enter(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Shared {
    fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            lru_hits: self.lru_hits.load(Ordering::Relaxed),
            lru_evictions: self.lru.lock().map(|l| l.evictions()).unwrap_or(0),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            queue_depth: self.work.pending() as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            lru_len: self.lru.lock().map(|l| l.len() as u64).unwrap_or(0),
        }
    }

    fn request_latency(&self) -> Histogram {
        self.request_latency
            .lock()
            .map(|h| h.clone())
            .unwrap_or_default()
    }

    fn stats_json(&self) -> String {
        let s = self.stats();
        let store = match &self.store {
            Some(store) => {
                let ss = store.stats();
                format!(
                    "{{\"hits\":{},\"misses\":{},\"writes\":{},\"corruptions\":{},\
                     \"version_mismatches\":{},\"invalidations\":{},\"stale_tmp_cleaned\":{}}}",
                    ss.hits,
                    ss.misses,
                    ss.writes,
                    ss.corruptions,
                    ss.version_mismatches,
                    ss.invalidations,
                    ss.stale_tmp_cleaned
                )
            }
            None => "null".to_string(),
        };
        let worker_id = match self.worker_id {
            Some(id) => id.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"worker_id\":{worker_id},\"requests\":{},\"lru_hits\":{},\
             \"lru_evictions\":{},\"timeouts\":{},\
             \"errors\":{},\"busy_rejections\":{},\"panicked_jobs\":{},\"queue_depth\":{},\
             \"in_flight\":{},\"open_connections\":{},\"lru_len\":{},\"store\":{store},\
             \"faults\":{}}}",
            s.requests,
            s.lru_hits,
            s.lru_evictions,
            s.timeouts,
            s.errors,
            s.busy_rejections,
            self.work.panicked_jobs(),
            s.queue_depth,
            s.in_flight,
            s.open_connections,
            s.lru_len,
            self.faults_json().to_string_compact(),
        )
    }

    /// The fault-injection record: `null` with injection disabled, else
    /// per-site injected counts plus the total — the chaos CI artifact.
    fn faults_json(&self) -> Json {
        if !self.faults.is_enabled() {
            return Json::Null;
        }
        let injected = self.faults.injected();
        let mut fields: Vec<(String, Json)> = vec![(
            "injected_total".to_string(),
            Json::Num(injected.values().sum::<u64>() as f64),
        )];
        fields.extend(
            injected
                .into_iter()
                .map(|(site, n)| (site, Json::Num(n as f64))),
        );
        Json::Obj(fields)
    }

    /// The `metrics` op's JSON form: the live gauges and counters plus
    /// the request-latency and queue-wait histograms in the same sparse
    /// shape `RunReport` uses.
    fn metrics_json(&self) -> Json {
        let s = self.stats();
        let num = |v: u64| Json::Num(v as f64);
        let worker_id = match self.worker_id {
            Some(id) => Json::Num(id as f64),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("worker_id".to_string(), worker_id),
            ("queue_depth".to_string(), num(s.queue_depth)),
            ("in_flight".to_string(), num(s.in_flight)),
            ("open_connections".to_string(), num(s.open_connections)),
            ("lru_len".to_string(), num(s.lru_len)),
            ("requests".to_string(), num(s.requests)),
            ("lru_hits".to_string(), num(s.lru_hits)),
            ("lru_evictions".to_string(), num(s.lru_evictions)),
            ("timeouts".to_string(), num(s.timeouts)),
            ("errors".to_string(), num(s.errors)),
            ("busy_rejections".to_string(), num(s.busy_rejections)),
            ("panicked_jobs".to_string(), num(self.work.panicked_jobs())),
            ("faults".to_string(), self.faults_json()),
            (
                "request_latency_ns".to_string(),
                self.request_latency().to_json(),
            ),
            (
                "queue_wait_ns".to_string(),
                self.work.queue_wait().to_json(),
            ),
            (
                "trace".to_string(),
                Json::Obj(vec![
                    ("enabled".to_string(), Json::Bool(self.trace.is_enabled())),
                    ("events".to_string(), num(self.trace.events().len() as u64)),
                    ("dropped".to_string(), num(self.trace.dropped())),
                ]),
            ),
        ])
    }

    /// The `metrics` op's Prometheus-style text exposition, rendered by
    /// the shared [`oha_obs::prom`] module so worker and router
    /// expositions stay field-for-field compatible.
    fn metrics_prometheus(&self) -> String {
        use oha_obs::prom::{histogram as prom_histogram, sample};
        let s = self.stats();
        let mut out = String::new();
        let counter = "counter";
        let gauge = "gauge";
        sample(
            &mut out,
            counter,
            "oha_requests_total",
            "Requests answered (all ops).",
            s.requests,
        );
        sample(
            &mut out,
            counter,
            "oha_lru_hits_total",
            "Analyze responses served from the LRU front.",
            s.lru_hits,
        );
        sample(
            &mut out,
            counter,
            "oha_lru_evictions_total",
            "Responses evicted from the LRU front.",
            s.lru_evictions,
        );
        sample(
            &mut out,
            counter,
            "oha_timeouts_total",
            "Requests that overran the compute deadline.",
            s.timeouts,
        );
        sample(
            &mut out,
            counter,
            "oha_errors_total",
            "Malformed or failed requests.",
            s.errors,
        );
        sample(
            &mut out,
            counter,
            "oha_busy_rejections_total",
            "Analyze requests shed with a Busy response at the queue bound.",
            s.busy_rejections,
        );
        sample(
            &mut out,
            counter,
            "oha_panicked_jobs_total",
            "Compute jobs whose closure panicked.",
            self.work.panicked_jobs(),
        );
        if self.faults.is_enabled() {
            let injected = self.faults.injected();
            let _ = writeln!(
                out,
                "# HELP oha_injected_faults_total Faults injected by the OHA_FAULTS plan."
            );
            let _ = writeln!(out, "# TYPE oha_injected_faults_total counter");
            for (site, n) in &injected {
                let _ = writeln!(out, "oha_injected_faults_total{{site=\"{site}\"}} {n}");
            }
        }
        sample(
            &mut out,
            counter,
            "oha_trace_dropped_events_total",
            "Trace events evicted from the ring buffer.",
            self.trace.dropped(),
        );
        sample(
            &mut out,
            gauge,
            "oha_queue_depth",
            "Compute jobs queued but not yet started.",
            s.queue_depth,
        );
        sample(
            &mut out,
            gauge,
            "oha_in_flight",
            "Analyze requests currently waiting on compute.",
            s.in_flight,
        );
        sample(
            &mut out,
            gauge,
            "oha_open_connections",
            "Client connections currently open.",
            s.open_connections,
        );
        sample(
            &mut out,
            gauge,
            "oha_lru_entries",
            "Entries currently held by the LRU front.",
            s.lru_len,
        );
        prom_histogram(
            &mut out,
            "oha_request_latency_seconds",
            "Wall-clock time per answered request.",
            &self.request_latency(),
        );
        prom_histogram(
            &mut out,
            "oha_queue_wait_seconds",
            "Time compute jobs spent queued before a worker picked them up.",
            &self.work.queue_wait(),
        );
        out
    }
}

/// The analysis daemon. [`Server::bind`], then [`Server::run`].
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
    io_pool: TaskPool,
    trace_out: Option<PathBuf>,
}

impl Server {
    /// Binds the socket (replacing a stale socket file), opens the store
    /// and starts the worker pools. The server does not accept
    /// connections until [`Server::run`].
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(Store::open_with(
                dir.clone(),
                config.faults.clone(),
            )?)),
            None => None,
        };
        let threads = if config.threads == 0 {
            oha_par::thread_count()
        } else {
            config.threads
        };
        let io_timeout = config
            .io_timeout
            .unwrap_or_else(|| config.request_timeout.saturating_mul(2))
            .max(Duration::from_secs(1));
        let max_queue = if config.max_queue == 0 {
            threads.saturating_mul(4).max(1)
        } else {
            config.max_queue
        };
        // A trace destination implies tracing even when the caller left
        // the log disabled.
        let trace = if config.trace_out.is_some() && !config.trace.is_enabled() {
            TraceLog::enabled(DEFAULT_TRACE_CAPACITY)
        } else {
            config.trace.clone()
        };
        let shared = Arc::new(Shared {
            store,
            lru: Mutex::new(Lru::new(config.lru_capacity.max(1))),
            work: TaskPool::new(threads),
            timeout: config.request_timeout,
            io_timeout,
            max_queue,
            faults: config.faults.clone(),
            worker_id: config.worker_id,
            pipeline_threads: (oha_par::thread_count() / threads).max(1),
            shutting: AtomicBool::new(false),
            socket: config.socket.clone(),
            trace,
            requests: AtomicU64::new(0),
            lru_hits: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            request_latency: Mutex::new(Histogram::new()),
        });
        // The I/O pool must out-size compute for the queue bound to mean
        // anything: each connection handler parks while its request
        // computes, so with only `threads` handlers the work queue could
        // never reach `max_queue` and the Busy path would be dead code.
        // `threads + max_queue + 1` lets the queue fill to its bound and
        // still leaves a handler free to answer (or shed) the next
        // arrival.
        Ok(Self {
            listener,
            shared,
            io_pool: TaskPool::new(threads + max_queue + 1),
            trace_out: config.trace_out,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.shared.socket
    }

    /// The shared artifact store, when persistence is configured.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.shared.store.as_ref()
    }

    /// The trace log every request records into (disabled unless
    /// configured).
    pub fn trace(&self) -> &TraceLog {
        &self.shared.trace
    }

    /// Serves until a `shutdown` request arrives, then drains gracefully
    /// and returns the final counters. Consumes the server; the socket
    /// file is removed on exit and the Chrome trace JSON is written when
    /// [`ServerConfig::trace_out`] was set.
    pub fn run(self) -> io::Result<ServeStats> {
        for stream in self.listener.incoming() {
            if self.shared.shutting.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&self.shared);
            self.io_pool
                .submit(move || handle_connection(stream, &shared));
        }
        // Graceful drain: no new connections; finish queued handlers,
        // which in turn wait out their in-flight compute jobs.
        self.io_pool.shutdown();
        self.shared.work.wait_idle();
        let stats = self.shared.stats();
        let _ = std::fs::remove_file(&self.shared.socket);
        if let Some(path) = &self.trace_out {
            // A failed trace write must not discard the drain's stats.
            if let Err(e) = self.shared.trace.write_chrome_json(path) {
                eprintln!("oha-serve: cannot write trace {}: {e}", path.display());
            }
        }
        Ok(stats)
    }
}

fn handle_connection(stream: UnixStream, shared: &Arc<Shared>) {
    let _open = GaugeGuard::enter(&shared.open_connections);
    // One virtual trace track per connection: the I/O-side request spans
    // render as a row separate from the compute pipelines'.
    let conn_tid = shared.trace.alloc_tid();
    // A stalled or half-open peer must not pin a handler (or wedge the
    // graceful drain): cap every socket read and write. (Waiting for a
    // response is server-side compute, bounded separately by the request
    // timeout.)
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.faults.should_inject(sites::SERVE_READ_STALL) {
            std::thread::sleep(shared.faults.delay());
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let started = Instant::now();
        let decoded = Request::decode(&payload);
        let is_analyze = matches!(decoded, Ok(Request::Analyze { .. }));
        let response = match decoded {
            Ok(request) => dispatch(request, &payload, shared, conn_tid),
            Err(e) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                Response::err(format!("bad request: {e}"))
            }
        };
        if let Ok(mut latency) = shared.request_latency.lock() {
            latency.record_duration(started.elapsed());
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        // Mid-frame disconnect: the peer sees a length prefix promising
        // more bytes than ever arrive, then EOF — exactly a daemon dying
        // mid-response. Control-plane ops (stats, metrics, shutdown) are
        // exempt so chaos harnesses can always drain and read counters.
        if is_analyze && shared.faults.should_inject(sites::SERVE_WRITE_DISCONNECT) {
            let encoded = response.encode();
            let len = encoded.len() as u32;
            let _ = writer.write_all(&len.to_le_bytes());
            let _ = writer.write_all(&encoded[..encoded.len() / 2]);
            let _ = writer.flush();
            return;
        }
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
        // Once a drain starts, keepalive ends: close after the response
        // in hand (including the shutdown acknowledgement itself) so an
        // open connection cannot hold the drain hostage.
        if shared.shutting.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn dispatch(request: Request, payload: &[u8], shared: &Arc<Shared>, conn_tid: u64) -> Response {
    match request {
        Request::Stats => Response::ok(shared.stats_json()),
        Request::Metrics { format } => Response::ok(match format {
            MetricsFormat::Json => shared.metrics_json().to_string_pretty(),
            MetricsFormat::Prometheus => shared.metrics_prometheus(),
        }),
        Request::Shutdown => {
            shared.shutting.store(true, Ordering::SeqCst);
            // The accept loop is blocked in `accept`; a throwaway
            // connection wakes it so it can observe the flag.
            let _ = UnixStream::connect(&shared.socket);
            Response::ok("{\"shutting_down\":true}")
        }
        Request::Analyze { .. } => analyze(request, payload, shared, conn_tid),
    }
}

fn analyze(request: Request, payload: &[u8], shared: &Arc<Shared>, conn_tid: u64) -> Response {
    // One trace groups everything this request causes, across the I/O
    // handler and the compute pipeline: the client's ID when it sent
    // one, a daemon-minted one otherwise (0 while tracing is off).
    let trace_id = match &request {
        Request::Analyze { trace_id, .. } if *trace_id != 0 => *trace_id,
        _ => shared.trace.next_trace_id(),
    };
    let span = shared.trace.begin("serve/request", trace_id, 0, conn_tid);
    let mut response = analyze_inner(request, payload, shared, trace_id, span, conn_tid);
    shared
        .trace
        .end("serve/request", trace_id, span, 0, conn_tid);
    response.trace_id = trace_id;
    response
}

fn analyze_inner(
    request: Request,
    payload: &[u8],
    shared: &Arc<Shared>,
    trace_id: u64,
    span: u64,
    conn_tid: u64,
) -> Response {
    // Identical request bytes (trace ID aside) → identical canonical
    // response; serve repeats from the LRU front without touching a
    // pipeline. The key hashes the payload in hand rather than
    // re-encoding the decoded request.
    let key = cache_key_of_payload(payload);
    if let Ok(mut lru) = shared.lru.lock() {
        if let Some(hit) = lru.get(&key) {
            shared.lru_hits.fetch_add(1, Ordering::Relaxed);
            shared
                .trace
                .instant("serve/lru.hit", trace_id, span, conn_tid);
            let mut response = hit.clone();
            response.cached = true;
            return response;
        }
    }

    // Load shed at the queue bound: refusing with a typed `Busy` — which
    // clients know is safe to retry — beats queuing without limit until
    // every request times out.
    if shared.work.pending() >= shared.max_queue {
        shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
        shared.trace.instant("serve/busy", trace_id, span, conn_tid);
        return Response::busy(format!(
            "compute queue full ({} jobs pending); retry with backoff",
            shared.max_queue
        ));
    }

    let started = Instant::now();
    let _in_flight = GaugeGuard::enter(&shared.in_flight);
    let (tx, rx) = mpsc::channel();
    let store = shared.store.clone();
    let trace = shared.trace.clone();
    let faults = shared.faults.clone();
    let pipeline_threads = shared.pipeline_threads;
    let submitted = shared.work.submit(move || {
        let _ = tx.send(compute(
            request,
            store,
            trace,
            trace_id,
            &faults,
            pipeline_threads,
        ));
    });
    if !submitted {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        return Response::err("daemon is shutting down");
    }
    match rx.recv_timeout(shared.timeout) {
        Ok(Ok(body)) => {
            let mut response = Response::ok(body);
            response.elapsed_ns = started.elapsed().as_nanos() as u64;
            if let Ok(mut lru) = shared.lru.lock() {
                lru.insert(key, response.clone());
            }
            response
        }
        Ok(Err(message)) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            Response::err(message)
        }
        Err(_) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            shared
                .trace
                .instant("serve/timeout", trace_id, span, conn_tid);
            Response::err(format!(
                "request timed out after {:?} (the job keeps running in the background)",
                shared.timeout
            ))
        }
    }
}

/// Runs one pipeline on a work-pool thread. The registry inside
/// [`Pipeline`] is `Rc`-based, so the pipeline is constructed *here*,
/// never shipped across threads; the shared [`TraceLog`] (an `Arc`) is
/// what links its span events back to the request's trace.
fn compute(
    request: Request,
    store: Option<Arc<Store>>,
    trace: TraceLog,
    trace_id: u64,
    faults: &FaultPlan,
    pipeline_threads: usize,
) -> Result<String, String> {
    // A slow analysis, injected: exercises the request deadline and the
    // client's retry budget without needing a pathological input.
    if faults.should_inject(sites::SERVE_COMPUTE_DELAY) {
        std::thread::sleep(faults.delay());
    }
    let Request::Analyze {
        tool,
        program,
        profiling,
        testing,
        endpoints,
        ..
    } = request
    else {
        return Err("not an analyze request".to_string());
    };
    let program = parse_program(&program).map_err(|e| format!("parse error: {e}"))?;
    let endpoints = resolve_endpoints(&program, &endpoints)?;
    // Nested-parallelism cap: the request already runs on a compute-pool
    // thread, so its pipeline only gets the host's leftover share. The
    // canonical output is identical at any width (tests/determinism.rs),
    // so this is purely a scheduling decision.
    let config = PipelineConfig {
        threads: pipeline_threads.max(1),
        ..PipelineConfig::default()
    };
    let mut pipeline = Pipeline::new(program).with_config(config);
    if let Some(store) = store {
        pipeline = pipeline.with_store(store);
    }
    if trace.is_enabled() {
        pipeline = pipeline.with_trace(trace);
        pipeline.metrics().set_trace_id(trace_id);
    }
    Ok(match tool {
        Tool::OptFt => optft_canonical_json(&pipeline.run_optft(&profiling, &testing)),
        Tool::OptSlice => {
            let outcome = pipeline.run_optslice(&profiling, &testing, &endpoints);
            optslice_canonical_json(&outcome)
        }
    })
}

/// Maps raw endpoint ids to [`InstId`]s, defaulting to every `output`
/// instruction when the request names none.
fn resolve_endpoints(program: &Program, raw: &[u32]) -> Result<Vec<InstId>, String> {
    if raw.is_empty() {
        return Ok(program
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Output { .. }))
            .map(|i| i.id)
            .collect());
    }
    let total = program.insts().count() as u32;
    raw.iter()
        .map(|&r| {
            if r < total {
                Ok(InstId::new(r))
            } else {
                Err(format!(
                    "endpoint i{r} out of range (program has {total} instructions)"
                ))
            }
        })
        .collect()
}
