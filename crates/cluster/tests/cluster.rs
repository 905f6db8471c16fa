//! End-to-end cluster tests: requests through the router must return
//! bytes identical to a serial in-process pipeline (the single-daemon
//! oracle), across concurrent clients, shards, and a worker SIGKILLed
//! mid-run under an armed fault plan.
//!
//! Workers are real `oha-serve` processes (resolved from the build's
//! `target/<profile>/` directory), because chaos kills need a process
//! boundary — killing a thread would take the whole test down.

use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use oha_cluster::{Router, RouterConfig, SupervisorConfig, Topology, WorkerSpec};
use oha_core::{
    corpus_content_fingerprint, optft_canonical_json, optslice_canonical_json, Pipeline,
};
use oha_faults::FaultPlan;
use oha_ir::{print_program, Fingerprint, InstKind, Operand, Program, ProgramBuilder};
use oha_obs::Json;
use oha_serve::proto::{cache_key_of_payload, Request};
use oha_serve::{Client, MetricsFormat, Tool};
use Operand::{Const, Reg as R};

const CLIENTS: usize = 16;
const WORKERS: usize = 3;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oha-cluster-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two workers increment a shared counter under a lock — the workload
/// the daemon suite uses, exercising both tools end to end.
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

/// A corpus variant: (profiling inputs, testing inputs).
type Corpus = (Vec<Vec<i64>>, Vec<Vec<i64>>);

/// Several distinct corpora so the request keys spread over multiple
/// shards (one corpus would pin every request to one home worker).
fn corpus_variants() -> Vec<Corpus> {
    (0..4i64)
        .map(|variant| {
            let profiling = (1..4).map(|n| vec![n * 10 + variant]).collect();
            let testing = (1..3).map(|n| vec![n * 7 + variant]).collect();
            (profiling, testing)
        })
        .collect()
}

struct Oracle {
    text: String,
    /// Per corpus variant: (optft canonical JSON, optslice canonical
    /// JSON).
    expected: Vec<(String, String)>,
}

fn oracle() -> Oracle {
    let program = locked_counter();
    let text = print_program(&program);
    let endpoints: Vec<_> = program
        .insts()
        .filter(|i| matches!(i.kind, InstKind::Output { .. }))
        .map(|i| i.id)
        .collect();
    let expected = corpus_variants()
        .iter()
        .map(|(profiling, testing)| {
            let ft =
                optft_canonical_json(&Pipeline::new(program.clone()).run_optft(profiling, testing));
            let slice = optslice_canonical_json(
                &Pipeline::new(program.clone()).run_optslice(profiling, testing, &endpoints),
            );
            (ft, slice)
        })
        .collect();
    Oracle { text, expected }
}

fn router_config(dir: &Path) -> RouterConfig {
    RouterConfig {
        socket: dir.join("router.sock"),
        supervisor: SupervisorConfig {
            workers: WORKERS,
            dir: dir.join("fleet"),
            spec: WorkerSpec {
                store_dir: Some(dir.join("store")),
                threads: 2,
                ..WorkerSpec::default()
            },
            restart_backoff: Duration::from_millis(50),
            health_interval: Duration::from_millis(200),
            ..SupervisorConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// The shard key the router derives for an analyze request, rebuilt
/// here so the kill test can target a key's home worker precisely.
fn shard_key(text: &str, tool: Tool, profiling: &[Vec<i64>], testing: &[Vec<i64>]) -> u64 {
    let request = Request::Analyze {
        tool,
        program: text.to_string(),
        profiling: profiling.to_vec(),
        testing: testing.to_vec(),
        endpoints: Vec::new(),
        trace_id: 0,
    };
    Fingerprint::of_bytes(&request.cache_key_bytes()).0 as u64
}

/// Blocks until every worker is up, so requests land on their home
/// workers instead of failing over past one still booting.
fn wait_for_fleet(router: &Router) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.supervisor().live_workers() < WORKERS as u64 {
        assert!(Instant::now() < deadline, "fleet never came up");
        thread::sleep(Duration::from_millis(20));
    }
}

fn cluster_stats(socket: &Path) -> Json {
    let mut client = Client::connect(socket).unwrap();
    let response = client.stats().unwrap();
    assert!(response.ok, "stats failed: {}", response.body);
    Json::parse(&response.body).unwrap()
}

fn cluster_field(stats: &Json, field: &str) -> u64 {
    stats
        .get("cluster")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing cluster.{field}"))
}

#[test]
fn concurrent_clients_match_the_single_daemon_oracle_byte_for_byte() {
    let dir = tmp_dir("oracle");
    let oracle = oracle();
    let variants = corpus_variants();

    let config = router_config(&dir);
    let socket = config.socket.clone();
    let router = Router::bind(config).unwrap();
    wait_for_fleet(&router);
    let router_thread = thread::spawn(move || router.run().unwrap());

    thread::scope(|scope| {
        for n in 0..CLIENTS {
            let socket = &socket;
            let oracle = &oracle;
            let variants = &variants;
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                let (profiling, testing) = &variants[n % variants.len()];
                let (expected_ft, expected_slice) = &oracle.expected[n % variants.len()];
                let (tool, expected) = if n % 2 == 0 {
                    (Tool::OptFt, expected_ft)
                } else {
                    (Tool::OptSlice, expected_slice)
                };
                let response = client
                    .analyze(tool, &oracle.text, profiling, testing, &[])
                    .unwrap();
                assert!(response.ok, "client {n}: {}", response.body);
                assert_eq!(
                    &response.body, expected,
                    "client {n}: cluster bytes diverged from the oracle"
                );
            });
        }
    });

    // The fleet stayed whole and multiple shards did real work.
    let stats = cluster_stats(&socket);
    assert_eq!(cluster_field(&stats, "live_workers"), WORKERS as u64);
    assert_eq!(cluster_field(&stats, "restarts"), 0);
    assert!(cluster_field(&stats, "forwarded") >= CLIENTS as u64);
    let shards = stats
        .get("cluster")
        .and_then(|c| c.get("shard_requests"))
        .and_then(Json::as_arr)
        .unwrap();
    let busy: usize = shards
        .iter()
        .filter(|s| s.as_u64().unwrap_or(0) > 0)
        .count();
    assert!(
        busy >= 2,
        "requests all landed on one shard: {}",
        stats.to_string_compact()
    );
    // Worker snapshots carry their shard identity.
    let worker_ids: Vec<u64> = stats
        .get("workers")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("worker_id").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(worker_ids, vec![0, 1, 2]);

    let mut client = Client::connect(&socket).unwrap();
    let shutdown = client.shutdown().unwrap();
    assert!(shutdown.ok);
    let final_stats = router_thread.join().unwrap();
    assert!(final_stats.forwarded >= CLIENTS as u64);
    assert_eq!(final_stats.router_errors, 0);
    assert!(!socket.exists(), "drain must remove the router socket");
}

#[test]
fn killing_a_worker_mid_run_fails_over_and_the_supervisor_restarts_it() {
    let dir = tmp_dir("failover");
    let oracle = oracle();
    let variants = corpus_variants();

    let mut config = router_config(&dir);
    // Armed plan on the route path: deterministic delays on every 5th
    // forward shake the failover interleavings without changing bytes.
    config.faults = FaultPlan::parse("seed=11; delay_ms=5; cluster.route.delay=%5").unwrap();
    // Keep the killed worker down for a full second while forwards give
    // up on it quickly — otherwise the connect retry would absorb the
    // restart and the failover path would never fire.
    config.supervisor.restart_backoff = Duration::from_secs(1);
    config.forward_connect_timeout = Duration::from_millis(100);
    let socket = config.socket.clone();
    let router = Router::bind(config).unwrap();

    // Wait for the full fleet before aiming the kill.
    wait_for_fleet(&router);

    // Derive the first corpus variant's home worker with the same
    // rendezvous topology the router uses — that worker is the kill
    // target, so the retried request *must* fail over.
    let topology = Topology::new(WORKERS);
    let (profiling, testing) = &variants[0];
    let expected = &oracle.expected[0].0;
    let home = topology.home(shard_key(&oracle.text, Tool::OptFt, profiling, testing));

    let router_thread = thread::spawn(move || router.run().unwrap());

    // Warm the home worker, then kill it and immediately re-ask: the
    // router must fail over to the next shard in the ranking and still
    // return oracle bytes. The client is scoped so its connection closes
    // here — an idle connection held across shutdown would pin its
    // handler (and drain) until the router's io timeout.
    {
        let mut warm_client = Client::connect(&socket).unwrap();
        let warm = warm_client
            .analyze(Tool::OptFt, &oracle.text, profiling, testing, &[])
            .unwrap();
        assert!(warm.ok, "{}", warm.body);
        assert_eq!(&warm.body, expected);
    }

    let stats_before = cluster_stats(&socket);
    let failovers_before = cluster_field(&stats_before, "failovers");

    // SIGKILL the home worker from outside the supervisor (its pid
    // comes from the stats op), so the test exercises real death
    // detection, not a cooperative code path.
    let pids = stats_before
        .get("cluster")
        .and_then(|c| c.get("pids"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_u64().unwrap())
        .collect::<Vec<_>>();
    let victim = pids[home];
    assert!(victim > 0, "home worker has no pid");
    // The workspace links no libc crate, so signal through the
    // standard `kill` utility.
    let killed = std::process::Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .unwrap();
    assert!(killed.success());

    // Concurrent clients through the kill window: every response must
    // be oracle bytes (failover) — typed errors would also satisfy the
    // protocol contract, but with retries budgeted this workload always
    // lands.
    thread::scope(|scope| {
        for n in 0..8 {
            let socket = &socket;
            let oracle = &oracle;
            scope.spawn(move || {
                let mut client = Client::connect(socket).unwrap();
                let response = client
                    .analyze(Tool::OptFt, &oracle.text, profiling, testing, &[])
                    .unwrap();
                assert!(response.ok, "client {n}: {}", response.body);
                assert_eq!(&response.body, expected, "client {n} got non-oracle bytes");
            });
        }
    });

    // The supervisor must notice the death and bring the worker back.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = cluster_stats(&socket);
        if cluster_field(&stats, "live_workers") == WORKERS as u64
            && cluster_field(&stats, "restarts") >= 1
        {
            assert!(
                cluster_field(&stats, "failovers") > failovers_before,
                "no failovers recorded despite the home worker dying: {}",
                stats.to_string_compact()
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never restarted the killed worker: {}",
            stats.to_string_compact()
        );
        thread::sleep(Duration::from_millis(50));
    }

    // Telemetry aggregation stays sound under churn: the Prometheus
    // exposition parses and carries the cluster families.
    let mut client = Client::connect(&socket).unwrap();
    let metrics = client.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(metrics.ok);
    for family in [
        "oha_requests_total",
        "oha_request_latency_seconds_bucket{le=\"+Inf\"}",
        "oha_cluster_live_workers",
        "oha_cluster_worker_restarts_total",
        "oha_cluster_failovers_total",
        "oha_cluster_shard_requests_total{shard=\"0\"}",
    ] {
        assert!(
            metrics.body.contains(family),
            "exposition missing {family}:\n{}",
            metrics.body
        );
    }

    let shutdown = client.shutdown().unwrap();
    assert!(shutdown.ok);
    let final_stats = router_thread.join().unwrap();
    assert!(final_stats.failovers > 0);
}

#[test]
fn cluster_metrics_json_merges_worker_histograms_exactly() {
    let dir = tmp_dir("metrics");
    let oracle = oracle();
    let variants = corpus_variants();

    let config = router_config(&dir);
    let socket = config.socket.clone();
    let router = Router::bind(config).unwrap();
    let router_thread = thread::spawn(move || router.run().unwrap());

    let mut client = Client::connect(&socket).unwrap();
    for (profiling, testing) in &variants {
        let response = client
            .analyze(Tool::OptFt, &oracle.text, profiling, testing, &[])
            .unwrap();
        assert!(response.ok, "{}", response.body);
    }

    let metrics = client.metrics(MetricsFormat::Json).unwrap();
    assert!(metrics.ok);
    let doc = Json::parse(&metrics.body).unwrap();
    let total_hist = doc
        .get("totals")
        .and_then(|t| t.get("request_latency_ns"))
        .map(|j| oha_obs::Histogram::from_json(j).unwrap())
        .unwrap();
    let worker_hists: Vec<oha_obs::Histogram> = doc
        .get("workers")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("request_latency_ns"))
        .map(|j| oha_obs::Histogram::from_json(j).unwrap())
        .collect();
    assert_eq!(worker_hists.len(), WORKERS);
    let mut expected = oha_obs::Histogram::new();
    for h in &worker_hists {
        expected.merge(h);
    }
    // Exact aggregation: the cluster histogram IS the merge, bucket for
    // bucket, not an approximation of it.
    assert_eq!(
        total_hist.to_json().to_string_compact(),
        expected.to_json().to_string_compact()
    );
    // Every worker answered at least one request or stats probe; the
    // summed request counter covers the fan-out itself too.
    let total_requests = doc
        .get("totals")
        .and_then(|t| t.get("requests"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(total_requests >= variants.len() as u64);

    let shutdown = client.shutdown().unwrap();
    assert!(shutdown.ok);
    router_thread.join().unwrap();
}

/// The router keys analyze frames from their payload bytes; the homes
/// it picks must be the homes the decoded requests' `cache_key_bytes`
/// have always picked, and those homes are pinned here so a change to
/// either the key or the topology shows up as a diff.
#[test]
fn payload_keys_route_every_request_to_its_cache_key_bytes_home() {
    let text = print_program(&locked_counter());
    let topology = Topology::new(WORKERS);
    let mut homes = Vec::new();
    for (variant, (profiling, testing)) in corpus_variants().into_iter().enumerate() {
        for (tool, trace_id) in [(Tool::OptFt, 0), (Tool::OptSlice, 1000 + variant as u64)] {
            let request = Request::Analyze {
                tool,
                program: text.clone(),
                profiling: profiling.clone(),
                testing: testing.clone(),
                endpoints: Vec::new(),
                trace_id,
            };
            let by_payload = cache_key_of_payload(&request.encode()).0 as u64;
            let by_bytes = Fingerprint::of_bytes(&request.cache_key_bytes()).0 as u64;
            assert_eq!(by_payload, by_bytes, "variant {variant}, {tool:?}");
            // Both frame forms route to the same home.
            let corpus = corpus_content_fingerprint(&profiling);
            for frame in [
                request.encode_by_reference(corpus),
                request.encode_inline(corpus),
            ] {
                assert_eq!(cache_key_of_payload(&frame).0 as u64, by_payload);
            }
            assert_eq!(topology.rank(by_payload), topology.rank(by_bytes));
            homes.push(topology.home(by_payload));
        }
    }
    assert_eq!(homes, GOLDEN_HOMES, "routing moved");
}

/// Home workers of [`payload_keys_route_every_request_to_its_cache_key_bytes_home`]'s
/// requests, in order. They also depend on the program's printed text
/// and on the corpus fingerprint, so an IR printer change or a new
/// corpus derivation moves them without any routing change.
const GOLDEN_HOMES: [usize; 8] = [2, 1, 0, 1, 0, 2, 2, 0];

#[test]
fn trace_ids_survive_the_router_and_repeats_hit_the_lru() {
    let dir = tmp_dir("trace");
    let oracle = oracle();
    let (profiling, testing) = &corpus_variants()[0];

    let config = router_config(&dir);
    let socket = config.socket.clone();
    let router = Router::bind(config).unwrap();
    wait_for_fleet(&router);
    let router_thread = thread::spawn(move || router.run().unwrap());

    let mut client = Client::connect(&socket).unwrap();
    let first = client
        .analyze_traced(Tool::OptFt, &oracle.text, profiling, testing, &[], 0xC0FFEE)
        .unwrap();
    assert!(first.ok, "{}", first.body);
    assert_eq!(
        first.trace_id, 0xC0FFEE,
        "the router must forward the trace ID"
    );
    assert_eq!(&first.body, &oracle.expected[0].0);

    // Same analysis, another trace: the cache key ignores the trace ID,
    // so the home worker answers from its LRU with the same bytes.
    let repeat = client
        .analyze_traced(Tool::OptFt, &oracle.text, profiling, testing, &[], 0xBEEF)
        .unwrap();
    assert!(repeat.ok, "{}", repeat.body);
    assert!(
        repeat.cached,
        "a repeat under a new trace ID missed the LRU"
    );
    assert_eq!(repeat.trace_id, 0xBEEF);
    assert_eq!(repeat.body, first.body);

    assert!(client.shutdown().unwrap().ok);
    router_thread.join().unwrap();
}

#[test]
fn malformed_analyze_frames_get_the_workers_typed_error_without_failover() {
    let dir = tmp_dir("malformed");
    let oracle = oracle();
    let (profiling, testing) = &corpus_variants()[1];

    let config = router_config(&dir);
    let socket = config.socket.clone();
    let router = Router::bind(config).unwrap();
    wait_for_fleet(&router);
    let router_thread = thread::spawn(move || router.run().unwrap());

    let valid = Request::Analyze {
        tool: Tool::OptSlice,
        program: oracle.text.clone(),
        profiling: profiling.clone(),
        testing: testing.clone(),
        endpoints: Vec::new(),
        trace_id: 0,
    }
    .encode();
    let truncated = valid[..valid.len() / 2].to_vec();
    // The analyze op byte, then a tool tag no codec version assigns.
    let mut garbage = vec![0xFF; 10];
    garbage[0] = valid[0];
    // The retired analyze op, whose frames carried the whole corpus.
    let mut retired = valid.clone();
    retired[0] = 1;

    let failovers_before = cluster_field(&cluster_stats(&socket), "failovers");
    let mut client = Client::connect(&socket).unwrap();
    for (name, payload) in [
        ("truncated", &truncated),
        ("garbage", &garbage),
        ("retired", &retired),
    ] {
        let response = client.call_encoded(payload).unwrap();
        assert!(!response.ok && !response.busy, "{name}: {response:?}");
        assert!(
            response.body.starts_with("bad request:"),
            "{name}: {}",
            response.body
        );
    }
    assert_eq!(
        cluster_field(&cluster_stats(&socket), "failovers"),
        failovers_before,
        "a deterministic rejection must not fail over"
    );

    // The connection is still good for real work.
    let response = client.call_encoded(&valid).unwrap();
    assert!(response.ok, "{}", response.body);
    assert_eq!(&response.body, &oracle.expected[1].1);
    assert_eq!(client.retries(), 0);

    assert!(client.shutdown().unwrap().ok);
    router_thread.join().unwrap();
}

/// A cold fleet answers a by-reference frame need-corpus. The router
/// hands that answer back as it is: no failover, no router error. The
/// client resends once, inline, to the same home worker, and the repeat
/// is that worker's LRU hit.
#[test]
fn need_corpus_passes_through_the_router_without_failover_or_router_errors() {
    let dir = tmp_dir("need-corpus");
    let oracle = oracle();
    let (profiling, testing) = &corpus_variants()[2];

    let config = router_config(&dir);
    let socket = config.socket.clone();
    let router = Router::bind(config).unwrap();
    wait_for_fleet(&router);
    let router_thread = thread::spawn(move || router.run().unwrap());

    let mut client = Client::connect(&socket).unwrap();
    let first = client
        .analyze(Tool::OptSlice, &oracle.text, profiling, testing, &[])
        .unwrap();
    assert!(first.ok, "{}", first.body);
    assert_eq!(&first.body, &oracle.expected[2].1);
    assert_eq!(client.corpus_resends(), 1);
    let repeat = client
        .analyze(Tool::OptSlice, &oracle.text, profiling, testing, &[])
        .unwrap();
    assert!(repeat.cached, "the resend landed on the home worker's LRU");
    assert_eq!(repeat.body, first.body);
    assert_eq!(client.corpus_resends(), 1);

    let stats = cluster_stats(&socket);
    assert_eq!(cluster_field(&stats, "failovers"), 0);
    assert_eq!(cluster_field(&stats, "router_errors"), 0);
    assert_eq!(
        stats
            .get("totals")
            .and_then(|t| t.get("need_corpus"))
            .and_then(Json::as_u64),
        Some(1),
        "the merged totals count the worker's need-corpus answer"
    );
    let metrics = client.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(
        metrics.body.contains("oha_need_corpus_total 1"),
        "{}",
        metrics.body
    );

    assert!(client.shutdown().unwrap().ok);
    let final_stats = router_thread.join().unwrap();
    assert_eq!(final_stats.failovers, 0);
    assert_eq!(final_stats.router_errors, 0);
}
