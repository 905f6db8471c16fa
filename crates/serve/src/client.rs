//! A small blocking client for the daemon protocol, shared by the
//! `oha-client` binary, the benchmark harness and the test suite.
//!
//! Resilience: every socket read carries a deadline
//! ([`ClientConfig::read_timeout`]) so a half-open or wedged daemon
//! errors out instead of blocking the caller forever, and *idempotent*
//! requests (analyze, stats, metrics — everything but shutdown) are
//! retried with capped exponential backoff on transport errors and on
//! typed `Busy` load-shed responses. Retry is safe precisely because
//! the analyze protocol is idempotent: the request's cache key is a
//! pure function of its bytes, so replaying it can only re-derive (or
//! fetch from the LRU/store) the same canonical result. Backoff jitter
//! is deterministic — keyed off the request's cache-key fingerprint and
//! the attempt number — so a chaos run replays byte-identically.
//!
//! Corpora travel by reference: [`Client::call`] names an analyze
//! request's profiling corpus by its content fingerprint, remembered for
//! the last [`CORPUS_MEMO_SIZE`] corpora, and sends the corpus itself only
//! when the daemon answers need-corpus — once, inline.

use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use oha_core::corpus_content_fingerprint;
use oha_faults::splitmix64;
use oha_ir::Fingerprint;

use crate::proto::{
    cache_key_of_payload, is_shutdown_payload, read_frame, write_frame, MetricsFormat, Request,
    Response, Tool,
};

/// How many profiling corpora a [`Client`] remembers the content
/// fingerprints of. A caller cycles through a few corpora (one per
/// program it analyzes); each one remembered saves hashing it, about a
/// megabyte for a benchmark-scale corpus, on every request.
pub const CORPUS_MEMO_SIZE: usize = 4;

/// Capped-exponential-backoff schedule for idempotent retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry; attempt `n` waits `base × 2ⁿ`.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, errors surface immediately.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// The backoff before retry number `attempt` (1-based), for the
    /// request whose cache key hashes to `key`: `base × 2^(attempt-1)`
    /// capped at [`max_delay`](RetryPolicy::max_delay), scaled by a
    /// deterministic jitter factor in `[0.5, 1.0)` drawn from
    /// `splitmix64(key ⊕ attempt)` — different requests desynchronize,
    /// identical runs replay identically.
    pub fn backoff(&self, key: u64, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_delay);
        let jitter =
            0.5 + ((splitmix64(key ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64) / 2.0;
        exp.mul_f64(jitter)
    }
}

/// Connection- and retry-behaviour knobs for [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Deadline on every socket read; `None` waits forever (not
    /// recommended — a half-open daemon then wedges the caller). The
    /// default (150 s) comfortably exceeds the daemon's own 120 s
    /// compute deadline, so the server times out first.
    pub read_timeout: Option<Duration>,
    /// Retry schedule for idempotent requests.
    pub retry: RetryPolicy,
    /// Deadline on establishing a connection. `ConnectionRefused` /
    /// `NotFound` are retried with a short doubling backoff until the
    /// deadline, so a client racing a daemon's startup (its socket not
    /// yet bound, or a stale file still in place) waits the daemon out
    /// instead of failing — scripts need no sleep-and-poll loops. Other
    /// connect errors, and `Duration::ZERO`, fail immediately.
    pub connect_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(150)),
            retry: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// Connects to a Unix socket, absorbing the startup race: while the
/// error is `ConnectionRefused` (stale socket file) or `NotFound` (not
/// bound yet) and the deadline has not passed, sleep briefly (5 ms
/// doubling to a 100 ms cap) and try again. Every other error — and the
/// deadline running out — surfaces to the caller.
pub(crate) fn connect_with_deadline(
    socket: &Path,
    connect_timeout: Duration,
) -> io::Result<UnixStream> {
    let deadline = Instant::now() + connect_timeout;
    let mut delay = Duration::from_millis(5);
    loop {
        match UnixStream::connect(socket) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound
                ) && Instant::now() + delay <= deadline =>
            {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

/// A client holding (at most) one connection to a running daemon.
/// Requests are answered in order over the same connection; after a
/// transport error the connection is dropped and the next attempt
/// reconnects.
pub struct Client {
    socket: PathBuf,
    config: ClientConfig,
    conn: Option<Conn>,
    retries: u64,
    /// Recently used corpora with their content fingerprints, most
    /// recent first.
    corpus_memo: Vec<(Vec<Vec<i64>>, Fingerprint)>,
    corpus_resends: u64,
}

impl Client {
    /// Connects to the daemon's socket with default configuration.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Self> {
        Self::connect_with(socket, ClientConfig::default())
    }

    /// Connects with explicit timeout/retry configuration.
    pub fn connect_with(socket: impl AsRef<Path>, config: ClientConfig) -> io::Result<Self> {
        let mut client = Self {
            socket: socket.as_ref().to_path_buf(),
            config,
            conn: None,
            retries: 0,
            corpus_memo: Vec::with_capacity(CORPUS_MEMO_SIZE),
            corpus_resends: 0,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Transport-level retries performed so far (reconnects after I/O
    /// errors plus backoffs after `Busy` responses).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Analyze requests resent with their corpus inline after a
    /// need-corpus answer.
    pub fn corpus_resends(&self) -> u64 {
        self.corpus_resends
    }

    /// The content fingerprint of `corpus`, from the memo when an equal
    /// corpus is there (compared by value, not hashed again).
    fn corpus_fingerprint(&mut self, corpus: &[Vec<i64>]) -> Fingerprint {
        let entry = match self.corpus_memo.iter().position(|(c, _)| c == corpus) {
            Some(i) => self.corpus_memo.remove(i),
            None => {
                self.corpus_memo.truncate(CORPUS_MEMO_SIZE - 1);
                (corpus.to_vec(), corpus_content_fingerprint(corpus))
            }
        };
        let fingerprint = entry.1;
        self.corpus_memo.insert(0, entry);
        fingerprint
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.conn = None;
        let stream = connect_with_deadline(&self.socket, self.config.connect_timeout)?;
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.read_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some(Conn {
            reader,
            writer: BufWriter::new(stream),
        });
        Ok(())
    }

    /// One request/response exchange on the current connection. Any
    /// error poisons the connection (a frame may be half-read or
    /// half-written), so it is dropped for the next attempt.
    fn exchange(&mut self, payload: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self.conn.as_mut().expect("reconnect populated conn");
        let result = (|| {
            write_frame(&mut conn.writer, payload)?;
            let payload = read_frame(&mut conn.reader)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
            })?;
            Response::decode(&payload).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}"))
            })
        })();
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Sends one request and waits for its response, retrying transport
    /// errors and `Busy` load-sheds with capped exponential backoff —
    /// except for `shutdown`, which is single-shot (replaying it against
    /// a *new* daemon instance on the same socket would not be
    /// idempotent). An analyze request goes by reference first; a
    /// need-corpus answer is followed by exactly one inline resend.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let Request::Analyze { profiling, .. } = request else {
            return self.call_encoded(&request.encode());
        };
        let corpus = self.corpus_fingerprint(profiling);
        let response = self.call_encoded(&request.encode_by_reference(corpus))?;
        if !response.is_need_corpus() {
            return Ok(response);
        }
        self.corpus_resends += 1;
        self.call_encoded(&request.encode_inline(corpus))
    }

    /// [`Client::call`] for a request that is already an encoded payload
    /// (a router forwarding a client's frame verbatim). The payload is
    /// sent as-is and never decoded; a `shutdown` op byte makes the call
    /// single-shot, and a need-corpus answer is returned, not resent. The
    /// backoff jitter key — the payload's cache key — is hashed only once
    /// a retry actually happens.
    pub fn call_encoded(&mut self, payload: &[u8]) -> io::Result<Response> {
        if is_shutdown_payload(payload) {
            return self.exchange(payload);
        }
        let mut key = None;
        let mut attempt = 0u32;
        loop {
            let outcome = self.exchange(payload);
            let retryable = match &outcome {
                Ok(response) => response.busy,
                Err(_) => true,
            };
            if !retryable || attempt >= self.config.retry.max_retries {
                return outcome;
            }
            attempt += 1;
            self.retries += 1;
            let key = *key.get_or_insert_with(|| cache_key_of_payload(payload).0 as u64);
            std::thread::sleep(self.config.retry.backoff(key, attempt));
        }
    }

    /// Runs a pipeline on a program shipped as IR text. Empty `endpoints`
    /// means "every `output` instruction" for OptSlice (ignored for
    /// OptFT).
    pub fn analyze(
        &mut self,
        tool: Tool,
        program: &str,
        profiling: &[Vec<i64>],
        testing: &[Vec<i64>],
        endpoints: &[u32],
    ) -> io::Result<Response> {
        self.analyze_traced(tool, program, profiling, testing, endpoints, 0)
    }

    /// Like [`Client::analyze`], but records the daemon-side events of
    /// this request under `trace_id` (0 asks the daemon to mint one;
    /// either way the ID used comes back in [`Response::trace_id`]).
    pub fn analyze_traced(
        &mut self,
        tool: Tool,
        program: &str,
        profiling: &[Vec<i64>],
        testing: &[Vec<i64>],
        endpoints: &[u32],
        trace_id: u64,
    ) -> io::Result<Response> {
        self.call(&Request::Analyze {
            tool,
            program: program.to_string(),
            profiling: profiling.to_vec(),
            testing: testing.to_vec(),
            endpoints: endpoints.to_vec(),
            trace_id,
        })
    }

    /// Fetches daemon statistics as JSON.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.call(&Request::Stats)
    }

    /// Fetches live telemetry (gauges, counters, latency histograms) as
    /// a JSON snapshot or a Prometheus-style text exposition.
    pub fn metrics(&mut self, format: MetricsFormat) -> io::Result<Response> {
        self.call(&Request::Metrics { format })
    }

    /// Asks the daemon to drain and exit (never retried).
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy::default();
        let a1 = policy.backoff(7, 1);
        let a2 = policy.backoff(7, 2);
        let a5 = policy.backoff(7, 5);
        // Jitter is bounded: each delay sits in [0.5, 1.0) × nominal.
        assert!(a1 >= Duration::from_micros(12_500) && a1 < Duration::from_millis(25));
        assert!(a2 >= Duration::from_millis(25) && a2 < Duration::from_millis(50));
        // Attempt 5 nominal is 400 ms, still under the 1 s cap.
        assert!(a5 >= Duration::from_millis(200) && a5 < Duration::from_millis(400));
        // Deterministic: same (key, attempt) → same delay.
        assert_eq!(policy.backoff(7, 3), policy.backoff(7, 3));
        // Distinct keys desynchronize.
        assert_ne!(policy.backoff(7, 3), policy.backoff(8, 3));
    }

    #[test]
    fn backoff_respects_the_cap_at_large_attempts() {
        let policy = RetryPolicy::default();
        for attempt in 6..40 {
            assert!(policy.backoff(1, attempt) < Duration::from_secs(1));
        }
    }

    #[test]
    fn the_corpus_memo_matches_by_value_and_keeps_the_most_recent() {
        let mut client = Client {
            socket: PathBuf::new(),
            config: ClientConfig::default(),
            conn: None,
            retries: 0,
            corpus_memo: Vec::new(),
            corpus_resends: 0,
        };
        let corpora: Vec<Vec<Vec<i64>>> = (0..=CORPUS_MEMO_SIZE as i64)
            .map(|n| vec![vec![n], vec![n, n]])
            .collect();
        for corpus in &corpora {
            assert_eq!(
                client.corpus_fingerprint(corpus),
                corpus_content_fingerprint(corpus)
            );
        }
        assert_eq!(client.corpus_memo.len(), CORPUS_MEMO_SIZE);
        assert!(
            client.corpus_memo.iter().all(|(c, _)| c != &corpora[0]),
            "the least recently used corpus is evicted"
        );
        // An equal corpus in a fresh allocation hits and moves to the front.
        let again = corpora[1].clone();
        assert_eq!(
            client.corpus_fingerprint(&again),
            corpus_content_fingerprint(&corpora[1])
        );
        assert_eq!(client.corpus_memo[0].0, corpora[1]);
        assert_eq!(client.corpus_memo.len(), CORPUS_MEMO_SIZE);
    }

    #[test]
    fn connect_deadline_zero_fails_immediately_on_a_missing_socket() {
        let path = std::env::temp_dir().join(format!("oha-no-daemon-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let started = Instant::now();
        let err = connect_with_deadline(&path, Duration::ZERO).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
        ));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn connect_retry_waits_out_a_daemon_that_binds_late() {
        use std::os::unix::net::UnixListener;
        let path = std::env::temp_dir().join(format!("oha-late-bind-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let bind_path = path.clone();
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let listener = UnixListener::bind(&bind_path).unwrap();
            // Accept the probe so the connect fully completes.
            let _ = listener.accept();
        });
        let stream = connect_with_deadline(&path, Duration::from_secs(10))
            .expect("retry must absorb the startup race");
        drop(stream);
        binder.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
