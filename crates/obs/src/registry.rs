//! The metrics registry: named monotonic counters, gauges, value series,
//! and hierarchical timing spans.
//!
//! Handles are cheap to clone and cheap to use: a [`Counter`] is an
//! `Rc<Cell<u64>>` behind an `Option`, so incrementing an attached counter
//! is a plain add and incrementing a detached one is a single branch.
//! [`SpanGuard`]s are RAII: the time between construction and drop (or an
//! explicit [`SpanGuard::finish`]) is accumulated under a `/`-joined path
//! reflecting span nesting. Detached guards do not even read the clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::frame::MetricsFrame;
use crate::hist::Histogram;
use crate::report::{RunReport, SpanEntry};
use crate::trace::TraceLog;

/// A monotonic counter handle. The default handle is detached: increments
/// are dropped at the cost of one branch, which keeps unobserved
/// instrumentation effectively free.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// A detached counter that ignores increments.
    pub fn detached() -> Self {
        Counter(None)
    }

    /// Whether the counter is attached to a registry.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.set(cell.get().wrapping_add(n));
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for detached counters).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.get())
    }
}

/// Accumulated time for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Total time spent in the span.
    pub total: Duration,
    /// Number of completed entries.
    pub count: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<f64>>,
    spans: BTreeMap<String, SpanStat>,
    hists: BTreeMap<String, Histogram>,
    /// Currently-open spans: path segment plus the trace span ID (0 when
    /// tracing is disabled).
    stack: Vec<(String, u64)>,
    /// Event sink for span begin/end; disabled (free) by default.
    trace: TraceLog,
    /// Trace ID stamped on emitted events (0 = untraced context).
    trace_id: u64,
    /// Virtual viewer track allocated when a trace log is attached.
    tid: u64,
}

/// A registry of named metrics. Clones share state; the registry is
/// single-threaded by design (the whole interpreter is a deterministic
/// single-threaded simulation).
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Inner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the counter handle for `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(Cell::new(0)))
            .clone();
        Counter(Some(cell))
    }

    /// Adds `n` to the counter `name` (registering it on first use).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Current value of counter `name`, or 0 if it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .map_or(0, |cell| cell.get())
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner
            .borrow_mut()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Appends `value` to the series `name`.
    pub fn push_series(&self, name: &str, value: f64) {
        self.inner
            .borrow_mut()
            .series
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// A copy of the series `name` (empty if never written).
    pub fn series_values(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .series
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Opens a timing span named `segment`, nested inside any span that is
    /// currently open on this registry. The returned guard records on drop.
    /// When a [`TraceLog`] is attached, the open and close are also emitted
    /// as causally-linked begin/end events.
    pub fn span(&self, segment: &str) -> SpanGuard {
        debug_assert!(
            !segment.contains('/'),
            "span segments must not contain '/': {segment:?}"
        );
        let (path, depth, span_id, parent) = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.stack.last().map_or(0, |(_, id)| *id);
            inner.stack.push((segment.to_string(), 0));
            let depth = inner.stack.len() - 1;
            let path = inner
                .stack
                .iter()
                .map(|(s, _)| s.as_str())
                .collect::<Vec<_>>()
                .join("/");
            let span_id = if inner.trace.is_enabled() {
                let id = inner.trace.begin(&path, inner.trace_id, parent, inner.tid);
                inner.stack.last_mut().expect("just pushed").1 = id;
                id
            } else {
                0
            };
            (path, depth, span_id, parent)
        };
        SpanGuard {
            inner: Some(SpanGuardInner {
                registry: self.clone(),
                path,
                depth,
                start: Instant::now(),
                span_id,
                parent,
            }),
        }
    }

    /// Where this registry's open spans stand, as a `Send` value another
    /// thread can build its own registry from (see [`RegistryFork`]).
    pub fn fork(&self) -> RegistryFork {
        let inner = self.inner.borrow();
        RegistryFork {
            prefix: inner.stack.iter().map(|(s, _)| s.clone()).collect(),
            trace: inner.trace.clone(),
            trace_id: inner.trace_id,
        }
    }

    /// Attaches a trace log, allocating this registry its own viewer
    /// track. Spans opened afterwards emit begin/end events.
    pub fn set_trace(&self, trace: TraceLog) {
        let mut inner = self.inner.borrow_mut();
        inner.tid = trace.alloc_tid();
        inner.trace = trace;
    }

    /// The attached trace log (disabled by default).
    pub fn trace(&self) -> TraceLog {
        self.inner.borrow().trace.clone()
    }

    /// Stamps subsequent events with `trace_id` (carry an existing
    /// request's ID into a worker-side registry).
    pub fn set_trace_id(&self, trace_id: u64) {
        self.inner.borrow_mut().trace_id = trace_id;
    }

    /// The current trace ID (0 = untraced context).
    pub fn trace_id(&self) -> u64 {
        self.inner.borrow().trace_id
    }

    /// Allocates a fresh trace ID from the attached log and makes it
    /// current. Returns 0 when tracing is disabled.
    pub fn begin_trace(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.trace_id = inner.trace.next_trace_id();
        inner.trace_id
    }

    /// Emits a point event parented to the innermost open span. Free when
    /// no trace log is attached.
    pub fn trace_instant(&self, name: &str) {
        let inner = self.inner.borrow();
        if inner.trace.is_enabled() {
            let parent = inner.stack.last().map_or(0, |(_, id)| *id);
            inner.trace.instant(name, inner.trace_id, parent, inner.tid);
        }
    }

    /// Accumulated statistics for span `path` (`a/b/c`-style).
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        self.inner.borrow().spans.get(path).copied()
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner
            .borrow()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all gauges.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.inner.borrow().gauges.clone()
    }

    /// Snapshot of all series.
    pub fn series(&self) -> BTreeMap<String, Vec<f64>> {
        self.inner.borrow().series.clone()
    }

    /// Snapshot of all span statistics.
    pub fn spans(&self) -> BTreeMap<String, SpanStat> {
        self.inner.borrow().spans.clone()
    }

    /// Records `value` into the histogram `name` (creating it on first
    /// use).
    pub fn observe(&self, name: &str, value: u64) {
        self.inner
            .borrow_mut()
            .hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records a duration (as nanoseconds) into the histogram `name`.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.inner
            .borrow_mut()
            .hists
            .entry(name.to_string())
            .or_default()
            .record_duration(d);
    }

    /// Folds a pre-aggregated histogram into `name` (the ingestion
    /// counterpart of [`observe`](MetricsRegistry::observe)).
    pub fn merge_hist(&self, name: &str, h: &Histogram) {
        self.inner
            .borrow_mut()
            .hists
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// A copy of the histogram `name`, if it was ever written.
    pub fn hist(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().hists.get(name).cloned()
    }

    /// Snapshot of all histograms.
    pub fn hists(&self) -> BTreeMap<String, Histogram> {
        self.inner.borrow().hists.clone()
    }

    /// Adds one pre-aggregated span statistic under `path` (the ingestion
    /// counterpart of [`MetricsRegistry::span`], for merging spans timed
    /// off-registry).
    pub fn add_span_stat(&self, path: &str, stat: SpanStat) {
        let mut inner = self.inner.borrow_mut();
        let s = inner.spans.entry(path.to_string()).or_default();
        s.total += stat.total;
        s.count += stat.count;
    }

    /// Snapshots the registry's data into a detachable, `Send`
    /// [`MetricsFrame`] — the sharded half of the thread-safe ingestion
    /// path: workers record into thread-local registries (or plain
    /// frames) and the coordinator [`absorb`](MetricsRegistry::absorb)s
    /// the frames in deterministic task order.
    pub fn frame(&self) -> MetricsFrame {
        let inner = self.inner.borrow();
        MetricsFrame {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner.gauges.clone(),
            series: inner.series.clone(),
            spans: inner.spans.clone(),
            hists: inner.hists.clone(),
        }
    }

    /// Merges a frame recorded elsewhere: counters, span stats and
    /// histograms add, series append in call order, gauges
    /// last-write-wins. Absorbing worker frames in task input order keeps
    /// the merged registry identical across thread counts.
    pub fn absorb(&self, frame: &MetricsFrame) {
        for (name, &v) in &frame.counters {
            if v > 0 {
                self.counter(name).add(v);
            } else {
                // Register the name so zero-valued counters still appear.
                self.counter(name);
            }
        }
        for (name, &v) in &frame.gauges {
            self.set_gauge(name, v);
        }
        for (name, vs) in &frame.series {
            for &v in vs {
                self.push_series(name, v);
            }
        }
        for (path, &stat) in &frame.spans {
            self.add_span_stat(path, stat);
        }
        for (name, h) in &frame.hists {
            self.merge_hist(name, h);
        }
    }

    /// Dumps the registry into a named [`RunReport`].
    pub fn report(&self, name: &str) -> RunReport {
        let inner = self.inner.borrow();
        RunReport {
            name: name.to_string(),
            meta: BTreeMap::new(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner.gauges.clone(),
            series: inner.series.clone(),
            spans: inner
                .spans
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        SpanEntry {
                            total_ns: s.total.as_nanos() as u64,
                            count: s.count,
                        },
                    )
                })
                .collect(),
            hists: inner.hists.clone(),
            tables: Vec::new(),
            children: Vec::new(),
        }
    }

    fn record_span(&self, path: &str, depth: usize, elapsed: Duration, span_id: u64, parent: u64) {
        let mut inner = self.inner.borrow_mut();
        if span_id != 0 {
            inner
                .trace
                .end(path, inner.trace_id, span_id, parent, inner.tid);
        }
        let stat = inner.spans.entry(path.to_string()).or_default();
        stat.total += elapsed;
        stat.count += 1;
        inner.stack.truncate(depth);
    }
}

/// A registry's open span path, trace log and trace ID, taken by
/// [`MetricsRegistry::fork`]. Work that runs on another thread inside
/// those spans records into [`RegistryFork::registry`] and hands the
/// result back as a [`MetricsFrame`] for the forked registry to
/// [`absorb`](MetricsRegistry::absorb).
#[derive(Clone, Debug)]
pub struct RegistryFork {
    prefix: Vec<String>,
    trace: TraceLog,
    trace_id: u64,
}

impl RegistryFork {
    /// A fresh registry whose spans nest under the forked path: a span
    /// `s` opened on it records as `<forked path>/s`, and the forked spans
    /// themselves are not recorded again. When tracing, its events carry
    /// the forked trace ID on a viewer track of their own, each span
    /// opened at the top rooted on that track.
    pub fn registry(&self) -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        {
            let mut inner = registry.inner.borrow_mut();
            inner.stack = self.prefix.iter().map(|s| (s.clone(), 0)).collect();
            inner.tid = self.trace.alloc_tid();
            inner.trace = self.trace.clone();
            inner.trace_id = self.trace_id;
        }
        registry
    }
}

#[derive(Debug)]
struct SpanGuardInner {
    registry: MetricsRegistry,
    path: String,
    depth: usize,
    start: Instant,
    span_id: u64,
    parent: u64,
}

/// RAII guard for a timing span. Records elapsed time under its path when
/// dropped or explicitly [`finish`](SpanGuard::finish)ed.
#[derive(Debug, Default)]
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

impl SpanGuard {
    /// A guard that records nothing (for disabled instrumentation paths).
    pub fn detached() -> Self {
        SpanGuard { inner: None }
    }

    /// Ends the span now and returns its elapsed time (zero if detached).
    pub fn finish(mut self) -> Duration {
        self.record()
    }

    fn record(&mut self) -> Duration {
        match self.inner.take() {
            Some(g) => {
                let elapsed = g.start.elapsed();
                g.registry
                    .record_span(&g.path, g.depth, elapsed, g.span_id, g.parent);
                elapsed
            }
            None => Duration::ZERO,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter_value("x"), 3);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn detached_counters_cost_nothing_and_record_nothing() {
        let c = Counter::detached();
        c.add(100);
        assert_eq!(c.get(), 0);
        assert!(!c.is_attached());
    }

    #[test]
    fn spans_nest_by_path() {
        let reg = MetricsRegistry::new();
        {
            let _outer = reg.span("pipeline");
            {
                let inner = reg.span("profile");
                std::thread::sleep(Duration::from_millis(1));
                let d = inner.finish();
                assert!(d >= Duration::from_millis(1));
            }
            let _second = reg.span("static");
        }
        let spans = reg.spans();
        assert_eq!(
            spans.keys().collect::<Vec<_>>(),
            ["pipeline", "pipeline/profile", "pipeline/static"]
        );
        assert_eq!(spans["pipeline/profile"].count, 1);
        assert!(spans["pipeline"].total >= spans["pipeline/profile"].total);
    }

    #[test]
    fn detached_span_is_a_no_op() {
        let g = SpanGuard::detached();
        assert_eq!(g.finish(), Duration::ZERO);
    }

    #[test]
    fn histograms_record_and_merge() {
        let reg = MetricsRegistry::new();
        reg.observe("lat", 100);
        reg.observe_duration("lat", Duration::from_nanos(100));
        let mut extra = Histogram::new();
        extra.record(7);
        reg.merge_hist("lat", &extra);
        let h = reg.hist("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 207);
        assert!(reg.hist("nope").is_none());
        assert_eq!(reg.hists().len(), 1);
    }

    #[test]
    fn spans_emit_linked_trace_events_when_enabled() {
        let reg = MetricsRegistry::new();
        let log = TraceLog::enabled(64);
        reg.set_trace(log.clone());
        let trace_id = reg.begin_trace();
        assert_ne!(trace_id, 0);
        {
            let _outer = reg.span("optft");
            reg.trace_instant("cache-miss");
            let _inner = reg.span("profile");
        }
        let events = log.events();
        // B(optft), i(cache-miss), B(optft/profile), E(optft/profile), E(optft)
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].name, "optft");
        assert_eq!(events[1].parent, events[0].span_id);
        assert_eq!(events[2].name, "optft/profile");
        assert_eq!(events[2].parent, events[0].span_id);
        assert_eq!(events[3].span_id, events[2].span_id);
        assert_eq!(events[4].span_id, events[0].span_id);
        assert!(events.iter().all(|e| e.trace_id == trace_id));
        // The aggregate span stats are unchanged by tracing.
        assert_eq!(reg.span_stat("optft/profile").unwrap().count, 1);
    }

    #[test]
    fn forked_registries_nest_under_the_open_path_on_their_own_track() {
        let reg = MetricsRegistry::new();
        let log = TraceLog::enabled(64);
        reg.set_trace(log.clone());
        let trace_id = reg.begin_trace();
        let outer = reg.span("optft");
        let fork = reg.fork();
        let lane = std::thread::spawn(move || {
            let lane = fork.registry();
            lane.span("full").finish();
            lane.add("lane.runs", 1);
            lane.frame()
        })
        .join()
        .unwrap();
        outer.finish();
        reg.absorb(&lane);

        let spans = reg.spans();
        assert_eq!(spans.keys().collect::<Vec<_>>(), ["optft", "optft/full"]);
        assert_eq!(
            spans["optft"].count, 1,
            "the forked span is not re-recorded"
        );
        assert_eq!(reg.counter_value("lane.runs"), 1);
        let events = log.events();
        let lane_events: Vec<_> = events.iter().filter(|e| e.name == "optft/full").collect();
        assert_eq!(lane_events.len(), 2);
        assert!(lane_events.iter().all(|e| e.trace_id == trace_id));
        assert!(lane_events.iter().all(|e| e.parent == 0));
        assert_ne!(lane_events[0].tid, events[0].tid, "a track of its own");
    }

    #[test]
    fn untraced_registry_emits_nothing() {
        let reg = MetricsRegistry::new();
        assert!(!reg.trace().is_enabled());
        assert_eq!(reg.begin_trace(), 0);
        reg.trace_instant("noop");
        reg.span("a").finish();
        assert_eq!(reg.trace().events().len(), 0);
        assert_eq!(reg.span_stat("a").unwrap().count, 1);
    }

    #[test]
    fn gauges_and_series_snapshot() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("budget.used", 0.5);
        reg.push_series("facts", 10.0);
        reg.push_series("facts", 12.0);
        assert_eq!(reg.gauge_value("budget.used"), Some(0.5));
        assert_eq!(reg.series_values("facts"), [10.0, 12.0]);
    }
}
