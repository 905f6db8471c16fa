//! `oha-serve`: the OHA analysis daemon.
//!
//! The store (`oha-store`) makes the expensive phases of the pipeline
//! reusable across *processes*; this crate makes them reusable across
//! *clients*. A daemon holds one open [`Store`](oha_store::Store) and a
//! persistent worker pool, and serves `analyze` requests over a
//! Unix-domain socket: the first request for a `(program, corpus)` pair
//! pays for profiling and predicated static analysis, every later one —
//! from any client, concurrently — reuses the cached artifacts, or the
//! in-memory LRU front when the request is identical (trace ID aside).
//!
//! Responses to `analyze` are *canonical result JSON*
//! ([`oha_core::optft_canonical_json`]): timing-free and byte-identical
//! whether computed cold, served warm from disk, or replayed from the
//! LRU — the determinism suite holds the daemon to that contract.
//!
//! The protocol ([`proto`]) is length-prefixed frames in the
//! workspace's hand-rolled codec; ops are `analyze`, `stats`, `metrics`
//! (live gauges and latency histograms, as JSON or Prometheus text) and
//! `shutdown` (graceful drain). An `analyze` frame names its profiling
//! corpus by content fingerprint: [`Client::call`] sends it by
//! reference, and only when the daemon's store lacks what the run needs
//! (a typed need-corpus answer) resends it once with the corpus inline.
//! Both forms share one cache key. Each `analyze` request can carry a trace
//! ID; with tracing enabled ([`ServerConfig::trace`] or `--trace-out`)
//! the daemon records a causally-linked span tree per request. See the
//! `oha-serve` / `oha-client` binaries for the command-line surface.

#![warn(missing_docs)]

pub mod proto;

mod client;
mod server;

pub use client::{Client, ClientConfig, RetryPolicy, CORPUS_MEMO_SIZE};
pub use proto::{MetricsFormat, Request, Response, Tool, MAX_FRAME};
pub use server::{ServeStats, Server, ServerConfig};
