//! The serving fleet: `oha-router` supervising two `oha-serve` workers
//! with one compute thread each, over one shared artifact store.
//!
//! The router and the workers are this executable in its `router` and
//! worker modes, which run exactly what the `oha-router` and `oha-serve`
//! binaries run (`Router::bind(..).run()`, `Server::bind(..).run()`), so
//! the benchmark stays one package that builds from source. Each fleet
//! process exits when its parent does, so a killed benchmark leaves no
//! daemons behind.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use oha_cluster::{Router, RouterConfig, SupervisorConfig, WorkerSpec};
use oha_obs::Json;
use oha_serve::{Client, ClientConfig, MetricsFormat, RetryPolicy, Server, ServerConfig};

use crate::sys::peak_rss_mb;

/// Fleet size.
pub const WORKERS: usize = 2;

/// Compute threads per worker.
const WORKER_THREADS: usize = 1;

fn fail(message: String) -> io::Error {
    io::Error::other(message)
}

/// Exits this process once its parent is gone (the supervisor's or the
/// benchmark's `Drop` never runs if that parent is killed).
fn exit_with_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(100));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(0);
        }
    });
}

fn flag_values(args: &[String]) -> io::Result<Vec<(&str, &str)>> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] => Ok((flag.as_str(), value.as_str())),
            _ => Err(fail(format!("flag {} needs a value", pair[0]))),
        })
        .collect()
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> io::Result<T> {
    value
        .parse()
        .map_err(|_| fail(format!("{flag}: unparsable value {value:?}")))
}

/// Worker mode, as the router's supervisor launches `oha-serve`:
/// `--socket P --worker-id N [--store D] [--threads N] [--max-queue N]`.
pub fn worker_main(args: &[String]) -> io::Result<()> {
    let mut config = ServerConfig::default();
    for (flag, value) in flag_values(args)? {
        match flag {
            "--socket" => config.socket = PathBuf::from(value),
            "--worker-id" => config.worker_id = Some(parse(flag, value)?),
            "--store" => config.store_dir = Some(PathBuf::from(value)),
            "--threads" => config.threads = parse(flag, value)?,
            "--max-queue" => config.max_queue = parse(flag, value)?,
            other => return Err(fail(format!("worker: unknown flag {other}"))),
        }
    }
    exit_with_parent();
    Server::bind(config)?.run().map(drop)
}

/// Router mode: `router --socket P --dir D --store S`.
pub fn router_main(args: &[String]) -> io::Result<()> {
    let mut config = RouterConfig {
        supervisor: SupervisorConfig {
            workers: WORKERS,
            spec: WorkerSpec {
                serve_bin: Some(std::env::current_exe()?),
                threads: WORKER_THREADS,
                ..WorkerSpec::default()
            },
            ..SupervisorConfig::default()
        },
        ..RouterConfig::default()
    };
    for (flag, value) in flag_values(args)? {
        match flag {
            "--socket" => config.socket = PathBuf::from(value),
            "--dir" => config.supervisor.dir = PathBuf::from(value),
            "--store" => config.supervisor.spec.store_dir = Some(PathBuf::from(value)),
            other => return Err(fail(format!("router: unknown flag {other}"))),
        }
    }
    exit_with_parent();
    Router::bind(config)?.run().map(drop)
}

/// A running fleet. [`Fleet::shutdown`] drains it; dropping an undrained
/// fleet kills the router (its workers follow).
pub struct Fleet {
    router: Option<Child>,
    socket: PathBuf,
    dir: PathBuf,
    worker_pids: Vec<u64>,
}

/// A control-plane client: no retries, short deadlines.
fn control_client(socket: &Path) -> io::Result<Client> {
    Client::connect_with(
        socket,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::none(),
            connect_timeout: Duration::from_secs(10),
        },
    )
}

impl Fleet {
    /// Starts the router under `root` over the store at `store` and waits
    /// until every worker answers its health probe.
    pub fn start(root: &Path, store: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(root)?;
        let socket = root.join("router.sock");
        let dir = root.join("fleet");
        let log = std::fs::File::create(root.join("router.log"))?;
        let router = Command::new(std::env::current_exe()?)
            .arg("router")
            .arg("--socket")
            .arg(&socket)
            .arg("--dir")
            .arg(&dir)
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        let mut fleet = Self {
            router: Some(router),
            socket,
            dir,
            worker_pids: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(stats) = fleet.stats() {
                let cluster = stats.get("cluster");
                let live = cluster
                    .and_then(|c| c.get("live_workers"))
                    .and_then(Json::as_u64);
                if live == Some(WORKERS as u64) {
                    fleet.worker_pids = cluster
                        .and_then(|c| c.get("pids"))
                        .and_then(Json::as_arr)
                        .map(|pids| pids.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default();
                    return Ok(fleet);
                }
            }
            if Instant::now() > deadline {
                return Err(fail("fleet did not come up within 30 s".into()));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The router's front socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Worker `i`'s own socket (the supervisor's naming), for requests
    /// that bypass the router.
    pub fn worker_socket(&self, worker: usize) -> PathBuf {
        self.dir.join(format!("worker-{worker}.sock"))
    }

    /// The router's `stats` body.
    pub fn stats(&self) -> io::Result<Json> {
        let response = control_client(&self.socket)?.stats()?;
        Json::parse(&response.body).map_err(|e| fail(format!("bad stats body: {e:?}")))
    }

    /// The router's fleet-wide `metrics` snapshot (histograms merged).
    pub fn metrics(&self) -> io::Result<Json> {
        let response = control_client(&self.socket)?.metrics(MetricsFormat::Json)?;
        Json::parse(&response.body).map_err(|e| fail(format!("bad metrics body: {e:?}")))
    }

    /// Peak resident memory of the largest fleet process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let router = self.router.as_ref().map(|c| u64::from(c.id()));
        router
            .iter()
            .chain(&self.worker_pids)
            .filter_map(|pid| peak_rss_mb(&pid.to_string()))
            .fold(0.0, f64::max)
    }

    /// Graceful drain: the router drains its workers, then exits.
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = control_client(&self.socket).and_then(|mut c| c.shutdown());
        let mut router = self.router.take().expect("router still owned");
        let deadline = Instant::now() + Duration::from_secs(30);
        while router.try_wait()?.is_none() {
            if Instant::now() > deadline {
                let _ = router.kill();
                let _ = router.wait();
                return Err(fail("router did not drain within 30 s".into()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        acked.map(drop)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(mut router) = self.router.take() {
            let _ = router.kill();
            let _ = router.wait();
            // The workers notice their parent is gone and exit; wait for
            // that so no process outlives the benchmark.
            let deadline = Instant::now() + Duration::from_secs(5);
            while self
                .worker_pids
                .iter()
                .any(|pid| Path::new(&format!("/proc/{pid}")).exists())
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}
