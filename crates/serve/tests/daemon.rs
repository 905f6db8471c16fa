//! End-to-end daemon tests: many concurrent clients must get responses
//! byte-identical to a serial in-process pipeline, malformed requests
//! must get error responses (not a dead daemon), and shutdown must
//! drain gracefully. Corpora travel by reference: a daemon whose store
//! lacks what a run needs answers need-corpus, and the client resends
//! once, inline.

use std::fs;
use std::path::{Path, PathBuf};
use std::thread;

use oha_core::{
    corpus_content_fingerprint, optft_canonical_json, optslice_canonical_json, Pipeline,
    PipelineConfig,
};
use oha_ir::{print_program, InstKind, Operand, Program, ProgramBuilder};
use oha_obs::{Json, TraceEventKind, TraceLog};
use oha_serve::{Client, MetricsFormat, Request, Server, ServerConfig, Tool};
use Operand::{Const, Reg as R};

const CLIENTS: usize = 16;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oha-daemon-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn corpora() -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let profiling = (1..5).map(|n| vec![n * 10]).collect();
    let testing = (1..4).map(|n| vec![n * 7]).collect();
    (profiling, testing)
}

#[test]
fn concurrent_clients_match_the_serial_pipeline_byte_for_byte() {
    let dir = tmp_dir("concurrent");
    let socket = dir.join("daemon.sock");
    let store_dir = dir.join("store");

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();

    // The serial, storeless in-process runs are the oracle. Empty
    // endpoints on the wire mean "every output instruction" — mirror
    // that here.
    let expected_ft =
        optft_canonical_json(&Pipeline::new(program.clone()).run_optft(&profiling, &testing));
    let endpoints: Vec<_> = program
        .insts()
        .filter(|i| matches!(i.kind, InstKind::Output { .. }))
        .map(|i| i.id)
        .collect();
    let expected_slice = optslice_canonical_json(
        &Pipeline::new(program.clone()).run_optslice(&profiling, &testing, &endpoints),
    );

    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: Some(store_dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    thread::scope(|scope| {
        for n in 0..CLIENTS {
            let (socket, text) = (&socket, &text);
            let (profiling, testing) = (&profiling, &testing);
            let (expected_ft, expected_slice) = (&expected_ft, &expected_slice);
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                let (tool, expected) = if n % 2 == 0 {
                    (Tool::OptFt, expected_ft)
                } else {
                    (Tool::OptSlice, expected_slice)
                };
                let response = client.analyze(tool, text, profiling, testing, &[]).unwrap();
                assert!(response.ok, "client {n}: {}", response.body);
                assert_eq!(
                    &response.body,
                    expected,
                    "client {n} ({}) diverged from the serial pipeline",
                    tool.name()
                );
            });
        }
    });

    // A repeat of an already-answered request is served from the LRU
    // front and flagged as cached — with the same bytes.
    let mut client = Client::connect(&socket).unwrap();
    let repeat = client
        .analyze(Tool::OptFt, &text, &profiling, &testing, &[])
        .unwrap();
    assert!(repeat.ok);
    assert!(repeat.cached, "identical request must hit the LRU front");
    assert_eq!(repeat.body, expected_ft);

    let stats = client.stats().unwrap();
    assert!(stats.ok);
    assert!(
        stats.body.contains("\"requests\""),
        "stats is JSON: {}",
        stats.body
    );

    let bye = client.shutdown().unwrap();
    assert!(bye.ok);
    let drained = server_thread.join().unwrap();
    assert!(drained.requests >= CLIENTS as u64 + 2);
    assert!(drained.lru_hits >= 1);
    assert!(!socket.exists(), "graceful drain removes the socket file");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_error_responses_and_the_daemon_survives() {
    let dir = tmp_dir("bad-requests");
    let socket = dir.join("daemon.sock");

    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();
    let mut client = Client::connect(&socket).unwrap();

    // Unparsable program: an error response, not a hangup.
    let garbage = client
        .analyze(Tool::OptFt, "fn main( {", &profiling, &testing, &[])
        .unwrap();
    assert!(!garbage.ok);

    // Out-of-range endpoint id: likewise.
    let out_of_range = client
        .analyze(Tool::OptSlice, &text, &profiling, &testing, &[u32::MAX])
        .unwrap();
    assert!(!out_of_range.ok);
    assert!(
        out_of_range.body.contains("endpoint"),
        "diagnosable error: {}",
        out_of_range.body
    );

    // The same connection still serves good requests afterwards.
    let good = client
        .analyze(Tool::OptFt, &text, &profiling, &testing, &[])
        .unwrap();
    assert!(good.ok, "{}", good.body);

    client.shutdown().unwrap();
    let drained = server_thread.join().unwrap();
    assert_eq!(drained.errors, 2);
    let _ = fs::remove_dir_all(&dir);
}

/// The `metrics` op under concurrent load: the Prometheus exposition
/// parses, and the request-latency histogram's count equals the requests
/// counter in the same snapshot (both recorded at the same site).
#[test]
fn metrics_endpoint_reports_live_gauges_and_latency() {
    let dir = tmp_dir("metrics");
    let socket = dir.join("daemon.sock");

    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: None,
        // This test pins exact request counts; a queue bound wider than
        // the client burst keeps Busy sheds (and their hidden retries)
        // out of the arithmetic.
        max_queue: CLIENTS * 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();

    thread::scope(|scope| {
        for n in 0..CLIENTS {
            let (socket, text) = (&socket, &text);
            let (profiling, testing) = (&profiling, &testing);
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                let response = client
                    .analyze(Tool::OptFt, text, profiling, testing, &[])
                    .unwrap();
                assert!(response.ok, "client {n}: {}", response.body);
            });
        }
    });

    let mut client = Client::connect(&socket).unwrap();

    // JSON snapshot first: at this point exactly CLIENTS requests were
    // answered, and the latency histogram must account for every one.
    let snapshot = client.metrics(MetricsFormat::Json).unwrap();
    assert!(snapshot.ok, "{}", snapshot.body);
    let doc = Json::parse(&snapshot.body).expect("metrics JSON must parse");
    let requests = doc.get("requests").and_then(Json::as_u64).unwrap();
    // A storeless daemon answers a by-reference request need-corpus
    // unless its LRU already holds the answer; each such client resent
    // its corpus once, inline, and that resend is a request too.
    let need_corpus = doc.get("need_corpus").and_then(Json::as_u64).unwrap();
    assert!(
        need_corpus >= 1,
        "the first request cannot be served by reference"
    );
    assert_eq!(requests, CLIENTS as u64 + need_corpus);
    let latency = doc.get("request_latency_ns").expect("latency histogram");
    let hist = oha_obs::Histogram::from_json(latency).expect("histogram parses");
    assert_eq!(
        hist.count(),
        requests,
        "one latency sample per answered request"
    );
    assert!(hist.max() > 0, "analyze requests take measurable time");
    // This client is connected; handlers for the 16 just-closed
    // connections may not have observed EOF yet.
    let open = doc.get("open_connections").and_then(Json::as_u64).unwrap();
    assert!(
        (1..=CLIENTS as u64 + 1).contains(&open),
        "open_connections gauge out of range: {open}"
    );
    assert!(doc.get("queue_wait_ns").is_some());
    assert_eq!(
        doc.get("trace")
            .and_then(|t| t.get("enabled"))
            .and_then(|e| match e {
                Json::Bool(b) => Some(*b),
                _ => None,
            }),
        Some(false),
        "tracing stays off unless configured"
    );

    // Prometheus exposition second (it sees the metrics request too):
    // every non-comment line is `name[{labels}] value` with a numeric
    // value, and the core families are present.
    let prom = client.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(prom.ok);
    let body = &prom.body;
    for family in [
        "oha_requests_total",
        "oha_request_latency_seconds_bucket",
        "oha_request_latency_seconds_count",
        "oha_queue_wait_seconds_count",
        "oha_queue_depth",
        "oha_open_connections",
        "oha_lru_entries",
        "oha_need_corpus_total",
    ] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("sample line shape");
        assert!(!name.is_empty(), "unnamed sample: {line}");
        value.parse::<f64>().unwrap_or_else(|_| {
            panic!("non-numeric sample value in line: {line}");
        });
    }
    assert!(
        body.contains(&format!(
            "oha_requests_total {}",
            requests + 1 // the JSON metrics request was answered too
        )),
        "{body}"
    );
    assert!(
        body.contains("oha_request_latency_seconds_bucket{le=\"+Inf\"}"),
        "histograms end with the +Inf bucket"
    );

    client.shutdown().unwrap();
    let drained = server_thread.join().unwrap();
    assert_eq!(drained.requests, requests + 3);
    assert_eq!(drained.need_corpus, need_corpus);
    assert_eq!(drained.open_connections, 0, "drained gauges settle to zero");
    assert_eq!(drained.in_flight, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// With tracing enabled, one analyze request yields causally-linked
/// events across the I/O handler and the compute pipeline (distinct
/// virtual tracks, one trace ID), the trace ID round-trips to the
/// client, an LRU repeat records a hit instant, and the drain writes a
/// parseable Chrome trace file.
#[test]
fn traced_requests_link_io_and_compute_events() {
    let dir = tmp_dir("traced");
    let socket = dir.join("daemon.sock");
    let trace_path = dir.join("trace.json");

    let trace = TraceLog::enabled(1 << 14);
    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: None,
        trace: trace.clone(),
        trace_out: Some(trace_path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();
    let mut client = Client::connect(&socket).unwrap();

    const TRACE_ID: u64 = 7777;
    let response = client
        .analyze_traced(Tool::OptFt, &text, &profiling, &testing, &[], TRACE_ID)
        .unwrap();
    assert!(response.ok, "{}", response.body);
    assert_eq!(
        response.trace_id, TRACE_ID,
        "the client's trace ID is echoed back"
    );

    // A daemon-minted ID when the client sends 0 — and the repeat is an
    // LRU hit despite the different trace ID (the cache key ignores it).
    let repeat = client
        .analyze(Tool::OptFt, &text, &profiling, &testing, &[])
        .unwrap();
    assert!(repeat.ok);
    assert!(repeat.cached, "trace IDs must not defeat the LRU front");
    assert_ne!(repeat.trace_id, 0, "daemon mints an ID for trace_id 0");
    assert_ne!(repeat.trace_id, TRACE_ID);

    let events = trace.events();
    let request_spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Begin && e.name == "serve/request")
        .collect();
    // The storeless daemon cannot serve the first request by reference:
    // it answers need-corpus and the client resends once, inline, under
    // the same trace. The repeat is an LRU hit on the by-reference frame.
    assert_eq!(client.corpus_resends(), 1);
    assert_eq!(
        request_spans.len(),
        3,
        "one request span per frame: by reference, the inline resend, the repeat"
    );
    assert!(
        events.iter().any(|e| e.kind == TraceEventKind::Instant
            && e.name == "serve/need_corpus"
            && e.trace_id == TRACE_ID),
        "the need-corpus answer records an instant under the request's trace"
    );
    let first = request_spans
        .iter()
        .find(|e| e.trace_id == TRACE_ID)
        .expect("the traced request's span");
    let compute_event = events
        .iter()
        .find(|e| {
            e.trace_id == TRACE_ID && e.kind == TraceEventKind::Begin && e.name != "serve/request"
        })
        .expect("compute-side pipeline spans share the request's trace ID");
    assert_ne!(
        compute_event.tid, first.tid,
        "I/O handler and compute pipeline record on distinct tracks"
    );
    assert!(
        events.iter().any(|e| e.kind == TraceEventKind::Instant
            && e.name == "serve/lru.hit"
            && e.trace_id == repeat.trace_id),
        "the LRU repeat records a hit instant under its own trace"
    );

    client.shutdown().unwrap();
    server_thread.join().unwrap();

    // The drain wrote a Perfetto-loadable Chrome trace document.
    let written = fs::read_to_string(&trace_path).expect("trace file written on drain");
    let doc = Json::parse(&written).expect("trace file is valid JSON");
    let trace_events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!trace_events.is_empty());
    assert!(trace_events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("serve/request")
            && e.get("ph").and_then(Json::as_str) == Some("B")
    }));
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: a half-open peer — accepts the connection, reads the
/// request, never replies — used to block the client forever. The
/// client-side read deadline must turn that into a prompt typed error.
#[test]
fn client_read_deadline_unwedges_a_half_open_daemon() {
    use std::io::Read as _;
    use std::os::unix::net::UnixListener;
    use std::time::{Duration, Instant};

    let dir = tmp_dir("half-open");
    let socket = dir.join("wedged.sock");
    let listener = UnixListener::bind(&socket).unwrap();
    let wedge = thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        // Swallow the request bytes, then go silent without hanging up
        // (an EOF would be detected immediately; silence is the trap).
        let mut sink = [0u8; 4096];
        while let Ok(n) = conn.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });

    let mut client = Client::connect_with(
        &socket,
        oha_serve::ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            retry: oha_serve::RetryPolicy::none(),
            ..oha_serve::ClientConfig::default()
        },
    )
    .unwrap();
    let started = Instant::now();
    let err = client.stats().unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a read-deadline error, got: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline must fire promptly, took {:?}",
        started.elapsed()
    );
    drop(client);
    wedge.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// A client that stays connected and idle through `shutdown` must not
/// hold the drain until its I/O timeout, and a request already in flight
/// when the drain starts must still be answered.
#[test]
fn an_idle_client_does_not_stall_the_drain_and_in_flight_requests_are_answered() {
    use std::time::{Duration, Instant};

    let dir = tmp_dir("idle-drain");
    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: None,
        // Every analysis is slowed so it is still computing when the
        // drain starts; a stalled drain would wait the I/O timeout out.
        faults: oha_faults::FaultPlan::parse("delay_ms=1500; serve.compute.delay=%1").unwrap(),
        io_timeout: Some(Duration::from_secs(60)),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    // Connected, served once, then idle between frames.
    let mut idle = Client::connect(&socket).unwrap();
    assert!(idle.stats().unwrap().ok);

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();
    let expected =
        optft_canonical_json(&Pipeline::new(program.clone()).run_optft(&profiling, &testing));
    let in_flight = {
        let (socket, text) = (socket.clone(), text.clone());
        let (profiling, testing) = (profiling.clone(), testing.clone());
        thread::spawn(move || {
            // Inline, so the request is one exchange: a storeless daemon
            // would answer a by-reference frame with need-corpus, and the
            // resend would meet a closed socket.
            let request = Request::Analyze {
                tool: Tool::OptFt,
                program: text,
                profiling,
                testing,
                endpoints: Vec::new(),
                trace_id: 0,
            };
            Client::connect(&socket)
                .unwrap()
                .call_encoded(&request.encode())
                .unwrap()
        })
    };
    // Let the analyze frame reach its handler before the drain starts.
    thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    let mut admin = Client::connect(&socket).unwrap();
    assert!(admin.shutdown().unwrap().ok);
    let drained = server_thread.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the drain waited on the idle client: {:?}",
        started.elapsed()
    );
    let response = in_flight.join().unwrap();
    assert!(response.ok, "in-flight request failed: {}", response.body);
    assert_eq!(response.body, expected);
    assert!(drained.requests >= 3);
    drop(idle);
    let _ = fs::remove_dir_all(&dir);
}

/// At the queue bound the daemon sheds load with a typed `Busy` response
/// instead of queueing without limit; a non-retrying client sees the
/// flag, and the drain counts the rejections.
#[test]
fn saturated_daemon_sheds_load_with_typed_busy_responses() {
    let dir = tmp_dir("busy");
    let socket = dir.join("daemon.sock");

    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: None,
        threads: 1,
        max_queue: 1,
        lru_capacity: 1,
        faults: oha_faults::FaultPlan::parse("delay_ms=400; serve.compute.delay=%1").unwrap(),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    let program = locked_counter();
    let text = print_program(&program);

    // Distinct corpora defeat the LRU front, so every request really
    // queues compute. One worker, each job stalled 400 ms, queue bound
    // 1: burst of 8 → some must be shed.
    let outcomes: Vec<bool> = thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|n| {
                let (socket, text) = (&socket, &text);
                scope.spawn(move || {
                    let mut client = Client::connect_with(
                        socket,
                        oha_serve::ClientConfig {
                            retry: oha_serve::RetryPolicy::none(),
                            ..oha_serve::ClientConfig::default()
                        },
                    )
                    .unwrap();
                    let response = client
                        .analyze(Tool::OptFt, text, &[vec![n]], &[vec![n + 1]], &[])
                        .unwrap();
                    assert!(
                        response.ok || response.busy,
                        "only Busy may fail here: {}",
                        response.body
                    );
                    response.busy
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed = outcomes.iter().filter(|&&b| b).count();
    assert!(shed >= 1, "an 8-deep burst into a 1-slot queue must shed");
    assert!(shed < 8, "the worker must still make progress");

    let mut client = Client::connect(&socket).unwrap();
    client.shutdown().unwrap();
    let drained = server_thread.join().unwrap();
    assert_eq!(drained.busy_rejections, shed as u64);
    let _ = fs::remove_dir_all(&dir);
}

/// Chaos invariant, end to end: under a multi-site fault plan (torn
/// response frames, compute delays, read stalls, short store writes,
/// read corruption) every retrying client must end with bytes identical
/// to the clean serial pipeline — faults may cost retries and
/// recomputes, never a wrong answer.
#[test]
fn retrying_clients_survive_a_multi_site_fault_plan_with_correct_bytes() {
    let dir = tmp_dir("chaos");
    let socket = dir.join("daemon.sock");
    let store_dir = dir.join("store");

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();
    let expected =
        optft_canonical_json(&Pipeline::new(program.clone()).run_optft(&profiling, &testing));

    let plan = oha_faults::FaultPlan::parse(
        "seed=7; delay_ms=5; serve.write.disconnect=%3; serve.compute.delay=%4; \
         serve.read.stall=%5; store.write.short=%2; store.read.corrupt=%3",
    )
    .unwrap();
    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        store_dir: Some(store_dir),
        faults: plan.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let server_thread = thread::spawn(move || server.run().unwrap());

    thread::scope(|scope| {
        for n in 0..CLIENTS {
            let (socket, text) = (&socket, &text);
            let (profiling, testing) = (&profiling, &testing);
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                let response = client
                    .analyze(Tool::OptFt, text, profiling, testing, &[])
                    .unwrap_or_else(|e| panic!("client {n} exhausted retries: {e}"));
                assert!(response.ok, "client {n}: {}", response.body);
                assert_eq!(
                    &response.body, expected,
                    "client {n}: an injected fault changed the answer"
                );
            });
        }
    });

    // The control plane is exempt from response-tearing, so the fault
    // report is always reachable: the plan really fired.
    let mut client = Client::connect(&socket).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.ok);
    let doc = Json::parse(&stats.body).unwrap();
    let injected = doc
        .get("faults")
        .and_then(|f| f.get("injected_total"))
        .and_then(Json::as_u64)
        .expect("armed plan reports fault counters in stats");
    assert!(injected > 0, "the chaos plan never fired");

    client.shutdown().unwrap();
    server_thread.join().unwrap();
    assert!(plan.injected()[oha_faults::sites::SERVE_WRITE_DISCONNECT] > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Two daemons over one store directory: the atomic temp-write→rename
/// discipline (with injected delays widening the race window) must keep
/// every served artifact whole, and neither store may count a single
/// corruption.
#[test]
fn two_daemons_share_one_store_dir_without_torn_artifacts() {
    let dir = tmp_dir("shared-store");
    let store_dir = dir.join("store");
    let sockets = [dir.join("a.sock"), dir.join("b.sock")];

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();
    let expected =
        optft_canonical_json(&Pipeline::new(program.clone()).run_optft(&profiling, &testing));

    let servers: Vec<Server> = sockets
        .iter()
        .map(|socket| {
            Server::bind(ServerConfig {
                socket: socket.clone(),
                store_dir: Some(store_dir.clone()),
                // Defeat each daemon's LRU front so both really hit disk.
                lru_capacity: 1,
                faults: oha_faults::FaultPlan::parse("delay_ms=10; store.rename.delay=%1").unwrap(),
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();
    let threads: Vec<_> = servers
        .into_iter()
        .map(|s| thread::spawn(move || s.run().unwrap()))
        .collect();

    thread::scope(|scope| {
        for n in 0..8 {
            let socket = &sockets[n % 2];
            let (text, profiling, testing) = (&text, &profiling, &testing);
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                let response = client
                    .analyze(Tool::OptFt, text, profiling, testing, &[])
                    .unwrap();
                assert!(response.ok, "client {n}: {}", response.body);
                assert_eq!(&response.body, expected, "client {n} got torn bytes");
            });
        }
    });

    // Neither daemon may have seen a corrupt (torn) artifact: renames
    // are atomic however they interleave.
    for socket in &sockets {
        let mut client = Client::connect(socket).unwrap();
        let stats = client.stats().unwrap();
        let doc = Json::parse(&stats.body).unwrap();
        let corruptions = doc
            .get("store")
            .and_then(|s| s.get("corruptions"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(corruptions, 0, "torn artifact observed via {socket:?}");
        client.shutdown().unwrap();
    }
    for t in threads {
        t.join().unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

fn serve(socket: &Path, store_dir: &Path) -> thread::JoinHandle<oha_serve::ServeStats> {
    let server = Server::bind(ServerConfig {
        socket: socket.to_path_buf(),
        store_dir: Some(store_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .unwrap();
    thread::spawn(move || server.run().unwrap())
}

fn stats_field(client: &mut Client, path: &[&str]) -> u64 {
    let stats = client.stats().unwrap();
    let mut doc = &Json::parse(&stats.body).unwrap();
    for field in path {
        doc = doc
            .get(field)
            .unwrap_or_else(|| panic!("stats lack {path:?}"));
    }
    doc.as_u64().unwrap()
}

/// Store files (`*.oha`) under `dir`.
fn artifacts(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "oha") {
                files.push(path);
            }
        }
    }
    files
}

/// On an empty store the by-reference frame cannot be served: the
/// daemon answers need-corpus, the client resends once inline and gets
/// the oracle's bytes, and the repeat is an LRU hit. A fresh client with
/// a new testing input is then served by reference from the store.
#[test]
fn an_empty_store_costs_one_inline_resend_then_serves_by_reference() {
    let dir = tmp_dir("resend");
    let socket = dir.join("daemon.sock");
    let server_thread = serve(&socket, &dir.join("store"));

    let program = locked_counter();
    let text = print_program(&program);
    let (profiling, testing) = corpora();
    let oracle = |testing: &[Vec<i64>]| {
        optft_canonical_json(&Pipeline::new(program.clone()).run_optft(&profiling, testing))
    };

    let mut client = Client::connect(&socket).unwrap();
    let first = client
        .analyze(Tool::OptFt, &text, &profiling, &testing, &[])
        .unwrap();
    assert!(first.ok, "{}", first.body);
    assert_eq!(first.body, oracle(&testing));
    assert_eq!(client.corpus_resends(), 1, "one resend on the cold store");
    let repeat = client
        .analyze(Tool::OptFt, &text, &profiling, &testing, &[])
        .unwrap();
    assert!(repeat.cached, "the repeat is an LRU hit");
    assert_eq!(repeat.body, first.body);
    assert_eq!(client.corpus_resends(), 1, "an LRU hit needs no corpus");
    assert_eq!(stats_field(&mut client, &["need_corpus"]), 1);

    let fresh_testing = vec![vec![5]];
    let mut fresh = Client::connect(&socket).unwrap();
    let warm = fresh
        .analyze(Tool::OptFt, &text, &profiling, &fresh_testing, &[])
        .unwrap();
    assert!(warm.ok && !warm.cached, "{}", warm.body);
    assert_eq!(warm.body, oracle(&fresh_testing));
    assert_eq!(
        fresh.corpus_resends(),
        0,
        "the warm store serves by reference"
    );
    // An idle connection would hold the drain open until its io timeout.
    drop(fresh);

    client.shutdown().unwrap();
    let drained = server_thread.join().unwrap();
    assert_eq!(drained.need_corpus, 1);
    assert_eq!(drained.errors, 0, "need-corpus is not an error");
    let _ = fs::remove_dir_all(&dir);
}

/// An inline corpus that is not the one its fingerprint names must not
/// key any artifact: the daemon rejects the frame before the pipeline
/// runs.
#[test]
fn a_mismatched_inline_fingerprint_is_a_bad_request_and_saves_nothing() {
    let dir = tmp_dir("mismatch");
    let socket = dir.join("daemon.sock");
    let store_dir = dir.join("store");
    let server_thread = serve(&socket, &store_dir);

    let (profiling, testing) = corpora();
    let request = Request::Analyze {
        tool: Tool::OptFt,
        program: print_program(&locked_counter()),
        profiling,
        testing,
        endpoints: Vec::new(),
        trace_id: 0,
    };
    let wrong = corpus_content_fingerprint(&[vec![1]]);
    let mut client = Client::connect(&socket).unwrap();
    let response = client.call_encoded(&request.encode_inline(wrong)).unwrap();
    assert!(!response.ok && !response.busy, "{response:?}");
    assert!(
        response.body.starts_with("bad request:"),
        "{}",
        response.body
    );
    assert!(artifacts(&store_dir).is_empty(), "no artifact was saved");
    assert_eq!(stats_field(&mut client, &["store", "writes"]), 0);

    client.shutdown().unwrap();
    let drained = server_thread.join().unwrap();
    assert_eq!(drained.errors, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// The program of [`oha_workloads::micro::cold_path_race`]: input `1`
/// takes a cold path that writes the shared global unlocked, so after
/// profiling only `0` it mis-speculates.
fn cold_path_racer() -> Program {
    oha_workloads::micro::cold_path_race().program
}

/// A warm request that rolls back invalidates its static artifact, so
/// correctness cannot lean on the store staying warm: the next request
/// for the same corpus is re-analyzed (resending the corpus if the run
/// needs it) and still matches the single-thread oracle.
#[test]
fn after_a_warm_rollback_the_same_corpus_matches_the_serial_oracle() {
    let dir = tmp_dir("rollback");
    let socket = dir.join("daemon.sock");
    let server_thread = serve(&socket, &dir.join("store"));

    let program = cold_path_racer();
    let text = print_program(&program);
    let profiling = vec![vec![0], vec![0]];
    let oracle = |testing: &[Vec<i64>]| {
        let serial = PipelineConfig {
            threads: 1,
            ..PipelineConfig::default()
        };
        optft_canonical_json(
            &Pipeline::new(program.clone())
                .with_config(serial)
                .run_optft(&profiling, testing),
        )
    };

    let mut client = Client::connect(&socket).unwrap();
    for testing in [
        vec![vec![0]],          // clean: saves the static artifact
        vec![vec![0], vec![1]], // warm hit, rolls back, invalidates
        vec![vec![1], vec![0]], // the same corpus after the invalidation
    ] {
        let response = client
            .analyze(Tool::OptFt, &text, &profiling, &testing, &[])
            .unwrap();
        assert!(response.ok, "{}", response.body);
        assert_eq!(response.body, oracle(&testing), "testing {testing:?}");
    }
    assert_eq!(stats_field(&mut client, &["store", "invalidations"]), 1);

    client.shutdown().unwrap();
    server_thread.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// The steady-state frame a client sends for a benchmark-scale vim
/// request names its corpus instead of carrying it.
#[test]
fn a_benchmark_scale_vim_frame_by_reference_is_under_64_kb() {
    let w = oha_workloads::c_suite::vim(&oha_workloads::WorkloadParams::benchmark());
    let request = Request::Analyze {
        tool: Tool::OptSlice,
        program: print_program(&w.program),
        testing: vec![w.testing_inputs[0].clone()],
        endpoints: w.endpoints.iter().map(|e| e.raw()).collect(),
        trace_id: 0,
        profiling: w.profiling_inputs,
    };
    let Request::Analyze { profiling, .. } = &request else {
        unreachable!()
    };
    let corpus = corpus_content_fingerprint(profiling);
    let by_reference = request.encode_by_reference(corpus).len();
    let inline = request.encode_inline(corpus).len();
    assert!(
        by_reference < 64 * 1024,
        "{by_reference} bytes by reference"
    );
    assert!(
        inline > 8 * by_reference,
        "the corpus dominates the inline frame: {inline} vs {by_reference} bytes"
    );
}
