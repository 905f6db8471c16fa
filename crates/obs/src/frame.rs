//! Thread-safe metric ingestion for parallel sections.
//!
//! The [`MetricsRegistry`](crate::MetricsRegistry) is deliberately
//! single-threaded (`Rc`-based handles keep attached counters one add).
//! Parallel sections — the `oha-par` profiling pool, the benchmark
//! workload fan-out — instead record into one of two `Send` sinks and
//! merge into the registry afterwards:
//!
//! - **Sharded**: each worker owns a plain [`MetricsFrame`] (or a whole
//!   worker-local registry snapshot via
//!   [`MetricsRegistry::frame`](crate::MetricsRegistry::frame)) and the
//!   coordinator absorbs the frames *in task input order* with
//!   [`MetricsRegistry::absorb`](crate::MetricsRegistry::absorb). This is
//!   the deterministic path: same inputs, same merged registry, whatever
//!   the thread count.
//! - **Mutex-merged**: workers share one [`SyncFrame`] and the coordinator
//!   absorbs it once at the end. Counter totals stay deterministic
//!   (addition commutes); series element order follows completion order,
//!   so this path suits counters-only instrumentation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::Histogram;
use crate::registry::SpanStat;

/// A detachable, `Send + Sync` bundle of metric deltas: counters, gauges,
/// series, span statistics and histograms, mergeable into another frame
/// or into a [`MetricsRegistry`](crate::MetricsRegistry).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsFrame {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) series: BTreeMap<String, Vec<f64>>,
    pub(crate) spans: BTreeMap<String, SpanStat>,
    pub(crate) hists: BTreeMap<String, Histogram>,
}

impl MetricsFrame {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Adds one to counter `name`.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never written).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Appends `value` to series `name`.
    pub fn push_series(&mut self, name: &str, value: f64) {
        self.series.entry(name.to_string()).or_default().push(value);
    }

    /// Records one completed span entry of `elapsed` under `path`.
    pub fn add_span(&mut self, path: &str, elapsed: Duration) {
        let stat = self.spans.entry(path.to_string()).or_default();
        stat.total += elapsed;
        stat.count += 1;
    }

    /// Records `value` into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records a duration (as nanoseconds) into the histogram `name`.
    pub fn observe_duration(&mut self, name: &str, d: Duration) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record_duration(d);
    }

    /// A copy of the histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<Histogram> {
        self.hists.get(name).cloned()
    }

    /// Whether the frame carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.series.is_empty()
            && self.spans.is_empty()
            && self.hists.is_empty()
    }

    /// Whether absorbing this frame commutes with absorbing any other: it
    /// carries only counters, span statistics and histograms, which add.
    /// Gauges (last write wins) and series (appended) do not commute.
    pub fn commutes(&self) -> bool {
        self.gauges.is_empty() && self.series.is_empty()
    }

    /// Folds `other` into `self`: counters, span stats and histograms
    /// add, series append (`other`'s elements after `self`'s), gauges
    /// last-write-wins.
    pub fn merge(&mut self, other: &MetricsFrame) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, vs) in &other.series {
            self.series.entry(k.clone()).or_default().extend(vs);
        }
        for (k, s) in &other.spans {
            let stat = self.spans.entry(k.clone()).or_default();
            stat.total += s.total;
            stat.count += s.count;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// The mutex-merged ingestion path: a clonable, `Send + Sync` handle to a
/// shared [`MetricsFrame`]. Workers record through cheap locked mutators;
/// the coordinator drains with [`SyncFrame::take`] and absorbs the result
/// into a registry.
#[derive(Clone, Debug, Default)]
pub struct SyncFrame {
    inner: Arc<Mutex<MetricsFrame>>,
}

impl SyncFrame {
    /// An empty shared frame.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<T>(&self, f: impl FnOnce(&mut MetricsFrame) -> T) -> T {
        f(&mut self.inner.lock().expect("metrics frame poisoned"))
    }

    /// Adds `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.with(|fr| fr.add(name, n));
    }

    /// Adds one to counter `name`.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.with(|fr| fr.set_gauge(name, value));
    }

    /// Appends `value` to series `name`. Element order across threads
    /// follows lock-acquisition order; prefer per-worker frames when
    /// series order must be reproducible.
    pub fn push_series(&self, name: &str, value: f64) {
        self.with(|fr| fr.push_series(name, value));
    }

    /// Records one completed span entry under `path`.
    pub fn add_span(&self, path: &str, elapsed: Duration) {
        self.with(|fr| fr.add_span(path, elapsed));
    }

    /// Records `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.with(|fr| fr.observe(name, value));
    }

    /// Records a duration (as nanoseconds) into the histogram `name`.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.with(|fr| fr.observe_duration(name, d));
    }

    /// Folds a worker-local frame in (one lock per worker instead of one
    /// per event).
    pub fn merge(&self, frame: &MetricsFrame) {
        self.with(|fr| fr.merge(frame));
    }

    /// Drains the accumulated frame, leaving the shared frame empty.
    pub fn take(&self) -> MetricsFrame {
        self.with(std::mem::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn frame_mutators_and_merge() {
        let mut a = MetricsFrame::new();
        assert!(a.is_empty());
        a.add("hits", 2);
        a.inc("hits");
        a.set_gauge("g", 1.0);
        a.push_series("s", 1.0);
        a.add_span("p", Duration::from_millis(2));

        let mut b = MetricsFrame::new();
        b.add("hits", 10);
        b.set_gauge("g", 2.0);
        b.push_series("s", 2.0);
        b.add_span("p", Duration::from_millis(3));

        assert!(!a.commutes(), "gauges and series do not commute");
        a.merge(&b);
        assert_eq!(a.counter_value("hits"), 13);
        assert_eq!(a.gauges["g"], 2.0);
        assert_eq!(a.series["s"], [1.0, 2.0]);
        assert_eq!(a.spans["p"].count, 2);
        assert_eq!(a.spans["p"].total, Duration::from_millis(5));
    }

    #[test]
    fn histograms_shard_and_absorb() {
        let mut a = MetricsFrame::new();
        a.add("n", 1);
        a.add_span("p", Duration::from_millis(1));
        a.observe("lat", 10);
        assert!(a.commutes(), "counters, spans and histograms add");
        a.observe_duration("lat", Duration::from_nanos(20));
        let mut b = MetricsFrame::new();
        b.observe("lat", 1 << 40);
        a.merge(&b);
        let merged = a.hist("lat").unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 1 << 40);

        let reg = MetricsRegistry::new();
        reg.absorb(&a);
        assert_eq!(reg.hist("lat").unwrap(), merged);
        assert!(!a.is_empty());
    }

    #[test]
    fn registry_frame_absorb_round_trip() {
        let src = MetricsRegistry::new();
        src.add("x", 7);
        src.set_gauge("g", 0.5);
        src.push_series("s", 1.0);
        src.span("work").finish();

        let dst = MetricsRegistry::new();
        dst.add("x", 1);
        dst.absorb(&src.frame());
        assert_eq!(dst.counter_value("x"), 8);
        assert_eq!(dst.gauge_value("g"), Some(0.5));
        assert_eq!(dst.series_values("s"), [1.0]);
        assert_eq!(dst.span_stat("work").unwrap().count, 1);
    }

    #[test]
    fn sharded_absorb_is_order_deterministic() {
        // Two "workers" record frames; absorbing in input order yields the
        // same registry bytes no matter which worker finished first.
        let worker = |id: u64| {
            let mut f = MetricsFrame::new();
            f.add("runs", 1);
            f.push_series("seen", id as f64);
            f
        };
        let reg = MetricsRegistry::new();
        for frame in [worker(0), worker(1), worker(2)] {
            reg.absorb(&frame);
        }
        assert_eq!(reg.counter_value("runs"), 3);
        assert_eq!(reg.series_values("seen"), [0.0, 1.0, 2.0]);
    }

    #[test]
    fn sync_frame_merges_across_threads() {
        let shared = SyncFrame::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = shared.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        shared.inc("events");
                    }
                });
            }
        });
        let frame = shared.take();
        assert_eq!(frame.counter_value("events"), 400);
        assert!(shared.take().is_empty(), "take drains the shared frame");

        let reg = MetricsRegistry::new();
        reg.absorb(&frame);
        assert_eq!(reg.counter_value("events"), 400);
    }
}
