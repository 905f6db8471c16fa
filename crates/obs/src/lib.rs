//! # oha-obs — observability substrate
//!
//! A zero-dependency metrics layer for the OHA pipeline:
//!
//! - [`MetricsRegistry`]: named monotonic [`Counter`]s, gauges, and value
//!   series behind cheap clonable handles. Detached handles (the default)
//!   make instrumentation free-when-unobserved.
//! - Hierarchical timing spans: [`MetricsRegistry::span`] returns an RAII
//!   [`SpanGuard`]; nested guards accumulate under `/`-joined paths like
//!   `optft/pred_static/pointsto`.
//! - Thread-safe ingestion for parallel sections: per-worker
//!   [`MetricsFrame`] shards absorbed in deterministic task order via
//!   [`MetricsRegistry::absorb`], or a mutex-merged shared [`SyncFrame`].
//! - [`RunReport`]: the serializable artifact of a run — counters, gauges,
//!   series, span timings, histograms, rendered tables, nested children —
//!   with a human text renderer ([`RunReport::render_text`]) and a stable
//!   JSON round-trip ([`RunReport::to_json_string`] /
//!   [`RunReport::from_json_str`]).
//! - [`Histogram`]: a log₂-bucketed latency distribution with a
//!   deterministic, order-independent merge, sharded through
//!   [`MetricsFrame`]s like counters.
//! - [`TraceLog`]: a bounded ring of begin/end/instant events with
//!   trace/span IDs and parent links, exported as Chrome trace-event JSON
//!   ([`TraceLog::to_chrome_json`], loadable in Perfetto). Disabled by
//!   default and free when off; enabled via [`TraceLog::enabled`] or the
//!   `OHA_TRACE` env knob ([`TraceLog::from_env`]).
//!
//! Metric naming convention (see DESIGN.md "Observability"): dot-separated
//! lowercase components, `<area>.<subsystem>.<metric>`, e.g.
//! `interp.hook.load`, `pointsto.cycle_collapses`, `optft.rollback.cause.lock_alias`.

mod frame;
mod hist;
pub mod json;
pub mod prom;
mod registry;
mod report;
mod trace;

pub use frame::{MetricsFrame, SyncFrame};
pub use hist::{bucket_bound, bucket_of, Histogram, HIST_BUCKETS};
pub use json::{Json, JsonError};
pub use registry::{Counter, MetricsRegistry, RegistryFork, SpanGuard, SpanStat};
pub use report::{RunReport, SpanEntry, TableArtifact, NON_FINITE_DROPPED};
pub use trace::{TraceEvent, TraceEventKind, TraceLog, DEFAULT_TRACE_CAPACITY, TRACE_ENV};
