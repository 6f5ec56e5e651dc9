//! # fabric-telemetry
//!
//! Unified observability layer for the temporal-fabric stack: hierarchical
//! spans, log-bucketed latency histograms, named counters/gauges, and
//! exporters (human table, JSON-lines, CSV).
//!
//! ## Design constraints
//!
//! * **Zero-cost when disabled.** Every recording entry point first loads
//!   one relaxed [`AtomicBool`]; a disabled [`Telemetry`] takes no locks,
//!   allocates nothing and touches no shared state on the data path.
//! * **Global-free.** There is no process-wide registry; a [`Telemetry`]
//!   handle is plumbed explicitly (the ledger owns one and shares it with
//!   its stores) and is cheap to clone (`Arc` inside).
//! * **Thread-safe recorders.** Finished spans are pushed onto a mutex-held
//!   vector; counters and histogram buckets are relaxed atomics; the
//!   name→instrument maps take a short lock only on first registration.
//!
//! ## Span model
//!
//! [`Telemetry::span`] returns a [`SpanGuard`] that records its duration
//! on drop. Parent/child links come from a thread-local "current span"
//! cell: spans opened while another guard is alive on the same thread
//! become its children, which is what turns a query into a tree —
//! `query → ghfk(key) → block.deserialize(n)`. Guards may be stored in
//! structs (e.g. a lazy history iterator) so that work performed while
//! the guard lives nests under it. Every span's duration also feeds a
//! histogram named after the span, so p50/p95/p99 per stage come for free.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod chrome;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod http;
pub mod profile;
pub mod prometheus;
pub mod queue;
pub mod registry;
pub mod slowlog;
pub mod span;

pub use alloc::CountingAlloc;
pub use chrome::{chrome_trace, chrome_trace_with_counters};
pub use export::{render_table, Report};
pub use flight::FlightRecorder;
pub use histogram::{Histogram, HistogramSnapshot};
pub use http::{http_get, MetricsServer};
pub use profile::{top_spans, Profile, Profiler, TopEntry};
pub use prometheus::render_prometheus;
pub use queue::QueueProbe;
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use slowlog::{SlowLog, SlowLogConfig};
pub use span::{build_tree, render_tree, SpanContext, SpanGuard, SpanNode, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One timestamped value of a named counter track (e.g. a queue depth
/// sample), for the Chrome exporter's `ph:"C"` counter rows. Recorded
/// only while [`Telemetry::enable_track_points`] is on.
#[derive(Debug, Clone)]
pub struct TrackPoint {
    /// Track name (e.g. `queue.query.slots.depth`), shared not copied.
    pub name: Arc<str>,
    /// Sample time in nanoseconds since the telemetry epoch.
    pub at_ns: u64,
    /// Sampled value.
    pub value: i64,
}

/// Bound on buffered [`TrackPoint`]s; newest win once full.
const TRACK_POINTS_CAP: usize = 65_536;

pub(crate) struct Inner {
    enabled: AtomicBool,
    /// Reference instant for span timestamps (relative ns).
    epoch: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    registry: Registry,
    flight: FlightRecorder,
    /// Fast-path check for the slow log; avoids the RwLock on every root
    /// span when no log is installed (the common case).
    slow_installed: AtomicBool,
    slow: RwLock<Option<Arc<SlowLog>>>,
    /// Counter-track sampling for trace exports: off by default so queue
    /// probes cost nothing extra outside `tfq trace/profile` sessions.
    track_on: AtomicBool,
    track: Mutex<std::collections::VecDeque<TrackPoint>>,
}

/// A shared telemetry handle. Cheap to clone; all clones observe the same
/// recorders and the same enabled flag, so enabling telemetry on the
/// ledger's handle enables it inside its stores too.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    fn with_enabled(enabled: bool) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                registry: Registry::new(),
                flight: FlightRecorder::default(),
                slow_installed: AtomicBool::new(false),
                slow: RwLock::new(None),
                track_on: AtomicBool::new(false),
                track: Mutex::new(std::collections::VecDeque::new()),
            }),
        }
    }

    /// A handle that records nothing until [`Telemetry::enable`] is called.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// A handle that records immediately.
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on (affects every clone of this handle).
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording off.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// The named-instrument registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Nanoseconds since this handle was created.
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn inner_ptr(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    pub(crate) fn push_span(&self, record: SpanRecord) {
        // Feed the per-stage latency histogram before queueing the record.
        self.inner
            .registry
            .histogram(record.name)
            .record(record.dur_ns);
        // Flight recorder first so a slow root can reassemble its subtree
        // (children completed — and were recorded — before their parent).
        self.inner.flight.record(&record);
        if record.parent.is_none() && self.inner.slow_installed.load(Ordering::Relaxed) {
            self.maybe_log_slow(&record);
        }
        self.inner
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    /// Cold path: a root span finished while a slow log is installed.
    fn maybe_log_slow(&self, record: &SpanRecord) {
        let Some(slow) = self
            .inner
            .slow
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
        else {
            return;
        };
        let threshold = if slow.config().p99_factor.is_some() {
            let snapshot = self.inner.registry.histogram(record.name).snapshot();
            slow.config().effective_threshold(Some(&snapshot))
        } else {
            slow.config().effective_threshold(None)
        };
        if record.dur_ns >= threshold.max(1) {
            let tree = self.inner.flight.tree_for_root(record);
            slow.log(&tree, threshold);
        }
    }

    /// The always-on flight recorder (recent completed spans).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Install (or replace) the slow-query log. Root spans finishing
    /// slower than the configured threshold are dumped as JSONL to `sink`.
    pub fn install_slow_log(&self, config: SlowLogConfig, sink: Box<dyn std::io::Write + Send>) {
        *self.inner.slow.write().unwrap_or_else(|e| e.into_inner()) =
            Some(Arc::new(SlowLog::new(config, sink)));
        self.inner.slow_installed.store(true, Ordering::Relaxed);
    }

    /// Remove the slow-query log, if any.
    pub fn remove_slow_log(&self) {
        self.inner.slow_installed.store(false, Ordering::Relaxed);
        *self.inner.slow.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// The installed slow-query log, if any.
    pub fn slow_log(&self) -> Option<Arc<SlowLog>> {
        self.inner
            .slow
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Open a span named `name`. Returns an inert guard when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::inert();
        }
        SpanGuard::start(self.clone(), name)
    }

    /// Open a span that *follows from* the span behind `ctx`, regardless
    /// of which thread it runs on: the new span becomes a child of `ctx`
    /// and joins its trace. With `ctx == None` this is [`Telemetry::span`]
    /// — convenient for call sites that may or may not hold a token.
    #[inline]
    pub fn span_in(&self, name: &'static str, ctx: Option<SpanContext>) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::inert();
        }
        match ctx {
            Some(ctx) => SpanGuard::start_in(self.clone(), name, ctx),
            None => SpanGuard::start(self.clone(), name),
        }
    }

    /// Handoff token for the innermost live span of *this* instance on the
    /// calling thread, if any. Capture it before crossing a thread
    /// boundary and redeem it with [`Telemetry::span_in`] on the far side.
    pub fn current_context(&self) -> Option<SpanContext> {
        span::current_context_for(self.inner_ptr())
    }

    /// Add `n` to the named counter (no-op when disabled).
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if self.is_enabled() {
            self.inner.registry.counter(name).add(n);
        }
    }

    /// Record `value` into the named histogram (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if self.is_enabled() {
            self.inner.registry.histogram(name).record(value);
        }
    }

    /// Remove and return every finished span recorded so far, ordered by
    /// start time.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        let mut out =
            std::mem::take(&mut *self.inner.spans.lock().unwrap_or_else(|e| e.into_inner()));
        out.sort_by_key(|r| r.start_ns);
        out
    }

    /// Drain finished spans and assemble them into parent→child trees.
    pub fn span_tree(&self) -> Vec<SpanNode> {
        build_tree(self.drain_spans())
    }

    /// Point-in-time copy of every named instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.inner.registry.snapshot()
    }

    /// Drop all recorded spans (including the flight-recorder window) and
    /// reset every counter/gauge/histogram. The enabled flag and any
    /// installed slow log are left unchanged.
    pub fn reset(&self) {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.inner.registry.reset();
        self.inner.flight.clear();
        self.inner
            .track
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Turn counter-track sampling on or off (see [`TrackPoint`]). Off by
    /// default; `tfq trace --export chrome` and `tfq profile` turn it on
    /// for the session so queue-depth tracks land in the export.
    pub fn enable_track_points(&self, on: bool) {
        self.inner.track_on.store(on, Ordering::Relaxed);
    }

    /// Whether counter-track sampling is on.
    #[inline]
    pub fn track_points_on(&self) -> bool {
        self.inner.track_on.load(Ordering::Relaxed)
    }

    /// Record one counter-track sample at the current time. No-op unless
    /// track sampling is on; bounded by an internal cap (oldest dropped).
    pub fn record_track_point(&self, name: &Arc<str>, value: i64) {
        if !self.track_points_on() {
            return;
        }
        let at_ns = self.now_ns();
        let mut track = self.inner.track.lock().unwrap_or_else(|e| e.into_inner());
        if track.len() >= TRACK_POINTS_CAP {
            track.pop_front();
        }
        track.push_back(TrackPoint {
            name: Arc::clone(name),
            at_ns,
            value,
        });
    }

    /// Remove and return every buffered counter-track sample, in record
    /// order.
    pub fn drain_track_points(&self) -> Vec<TrackPoint> {
        self.inner
            .track
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let mut s = tel.span("work");
            s.record("blocks", 3);
        }
        tel.count("ops", 5);
        tel.observe("lat", 100);
        assert!(tel.drain_spans().is_empty());
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn spans_nest_by_thread() {
        let tel = Telemetry::enabled();
        {
            let _q = tel.span("query");
            {
                let _g = tel.span("ghfk");
                let _b = tel.span("block.deserialize");
            }
            let _g2 = tel.span("ghfk");
        }
        let tree = tel.span_tree();
        assert_eq!(tree.len(), 1, "one root");
        let query = &tree[0];
        assert_eq!(query.record.name, "query");
        assert_eq!(query.children.len(), 2);
        assert_eq!(query.children[0].record.name, "ghfk");
        assert_eq!(query.children[0].children.len(), 1);
        assert_eq!(
            query.children[0].children[0].record.name,
            "block.deserialize"
        );
        assert_eq!(query.depth(), 3);
    }

    #[test]
    fn span_metrics_and_labels_survive() {
        let tel = Telemetry::enabled();
        {
            let mut s = tel.span("ghfk").with_label("S00001");
            s.record("blocks", 2);
            s.record("blocks", 1);
        }
        let spans = tel.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label.as_deref(), Some("S00001"));
        assert_eq!(spans[0].metric("blocks"), Some(3));
    }

    #[test]
    fn enable_disable_is_shared_across_clones() {
        let a = Telemetry::disabled();
        let b = a.clone();
        b.enable();
        assert!(a.is_enabled());
        {
            let _s = a.span("x");
        }
        assert_eq!(b.drain_spans().len(), 1);
    }

    #[test]
    fn span_durations_feed_histograms() {
        let tel = Telemetry::enabled();
        for _ in 0..4 {
            let _s = tel.span("stage");
        }
        let snap = tel.snapshot();
        assert_eq!(snap.histograms["stage"].count, 4);
    }

    #[test]
    fn flight_recorder_retains_spans_and_roots() {
        let tel = Telemetry::enabled();
        {
            let _q = tel.span("query");
            let _g = tel.span("ghfk");
        }
        {
            let _q = tel.span("query");
        }
        let recent = tel.flight().recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(tel.flight().recent_roots().len(), 2);
        // Draining the span queue must not empty the flight window.
        let _ = tel.drain_spans();
        assert_eq!(tel.flight().recent().len(), 3);
    }

    #[test]
    fn slow_log_fires_on_slow_roots_only() {
        let tel = Telemetry::enabled();
        let (buffer, sink) = slowlog::memory_sink();
        tel.install_slow_log(
            SlowLogConfig {
                threshold_ns: 1, // everything with a measurable duration
                p99_factor: None,
                min_samples: 0,
            },
            sink,
        );
        {
            let _q = tel.span("query.ferry");
            let _g = tel.span("ghfk");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            1,
            "only the root span may produce a record: {text}"
        );
        assert!(lines[0].contains("\"name\":\"query.ferry\""));
        assert!(
            lines[0].contains("\"name\":\"ghfk\""),
            "tree must include the child: {}",
            lines[0]
        );
        assert_eq!(tel.slow_log().unwrap().records_written(), 1);
        tel.remove_slow_log();
        {
            let _q = tel.span("query.ferry");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1, "removed log must stay silent");
    }

    #[test]
    fn fast_roots_stay_out_of_the_slow_log() {
        let tel = Telemetry::enabled();
        let (buffer, sink) = slowlog::memory_sink();
        tel.install_slow_log(SlowLogConfig::threshold_ms(10_000), sink);
        for _ in 0..100 {
            let _q = tel.span("query.ferry");
        }
        assert!(buffer.lock().unwrap().is_empty());
        assert_eq!(tel.slow_log().unwrap().records_written(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let tel = Telemetry::enabled();
        tel.count("c", 1);
        {
            let _s = tel.span("s");
        }
        tel.reset();
        assert!(tel.drain_spans().is_empty());
        assert!(tel.snapshot().counters.is_empty());
        assert!(tel.flight().is_empty(), "reset clears the flight window");
        assert!(tel.is_enabled(), "reset must not flip the enabled bit");
    }
}
