//! Tracing spans, metrics, and Chrome-trace export for the Geyser
//! pipeline.
//!
//! The subsystem is built around a single cheap [`Telemetry`] handle
//! that is threaded through `CompileContext` so every layer — pass
//! manager, mapper, blocker, composer, simulator, bench harness — can
//! open hierarchical spans and bump named metrics without knowing who
//! (if anyone) is listening.
//!
//! # Overhead contract
//!
//! A disabled handle ([`Telemetry::disabled`], also the `Default`)
//! carries no allocation at all: every instrumentation call is a
//! single `Option` check. An enabled handle additionally gates on an
//! atomic flag before any formatting or allocation happens, so a
//! runtime [`Telemetry::set_enabled`]`(false)` returns the pipeline to
//! near-zero overhead.
//!
//! Span records land in mutex-sharded **bounded** buffers via
//! `try_lock`: a full shard or a contended lock increments a drop
//! counter and discards the record instead of blocking compilation.
//! Overload can lose telemetry, never progress.
//!
//! # Determinism contract
//!
//! Timings are recorded but never read back by the pipeline, so a
//! seeded compilation is bit-identical with telemetry enabled or
//! disabled (`tests/telemetry.rs` asserts this end to end).
//!
//! # Exporters
//!
//! * [`Telemetry::chrome_trace_json`] — trace-event JSON with balanced
//!   `B`/`E` pairs, loadable in `chrome://tracing` or Perfetto.
//! * [`Telemetry::metrics_snapshot`] — counters and log₂
//!   histograms as a serializable [`MetricsSnapshot`], folded into the
//!   bench `--report` JSON.

#![forbid(unsafe_code)]

mod export;
mod metrics;
mod span;

pub use export::{validate_chrome_trace, ChromeEvent, TraceSummary};
pub use metrics::{
    histogram_bucket_index, histogram_bucket_lo, CounterEntry, HistogramBucket, HistogramEntry,
    MetricsSnapshot,
};
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use metrics::Registry;

/// Per-shard span capacity of [`Telemetry::enabled`].
pub const DEFAULT_SPAN_CAPACITY: usize = 32_768;

/// Number of mutex shards the span buffer is split across. Threads map
/// to shards by thread id, so workers rarely contend.
const SHARDS: usize = 8;

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

pub(crate) struct Inner {
    /// Distinguishes this recorder on the thread-local parent stack so
    /// two live `Telemetry` instances never adopt each other's spans.
    pub(crate) instance: u64,
    /// Monotonic zero point all span timestamps are relative to.
    pub(crate) epoch: Instant,
    enabled: AtomicBool,
    next_span_id: AtomicU64,
    /// Global open/close sequence; per-thread span events stay in
    /// stack order under it, which is what makes the exported `B`/`E`
    /// stream balanced by construction.
    pub(crate) seq: AtomicU64,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    per_shard_capacity: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    registry: Mutex<Registry>,
}

impl Inner {
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Files a finished span. Never blocks: a contended or full shard
    /// drops the record and accounts for it.
    pub(crate) fn record(&self, record: SpanRecord) {
        let shard = (record.tid as usize) % self.shards.len();
        match self.shards[shard].try_lock() {
            Ok(mut buf) if buf.len() < self.per_shard_capacity => {
                buf.push(record);
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn collect_spans(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let buf = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(buf.iter().cloned());
        }
        all.sort_by_key(|r| r.open_seq);
        all
    }
}

/// Cheap, clonable handle to the telemetry recorder (or to nothing).
///
/// The default handle is disabled; see the crate docs for the overhead
/// and determinism contracts.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled recorder with [`DEFAULT_SPAN_CAPACITY`] spans per
    /// shard.
    pub fn enabled() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled recorder bounded to `per_shard` span records in each
    /// of its shards. Overflow increments the drop counter instead of
    /// growing or blocking.
    pub fn with_span_capacity(per_shard: usize) -> Self {
        let inner = Inner {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            next_span_id: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard_capacity: per_shard.max(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            registry: Mutex::new(Registry::default()),
        };
        Telemetry {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Whether instrumentation is currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.active().is_some()
    }

    /// Flips recording on or off at runtime (no-op on a disabled
    /// handle). Spans already open keep recording when they close.
    pub fn set_enabled(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.enabled.store(on, Ordering::Relaxed);
        }
    }

    fn active(&self) -> Option<&Arc<Inner>> {
        self.inner
            .as_ref()
            .filter(|inner| inner.enabled.load(Ordering::Relaxed))
    }

    /// Opens a span under category `cat` (by convention the crate
    /// short-name: `core`, `map`, `blocking`, `compose`, `sim`,
    /// `bench`). The span closes — and is recorded —
    /// when the returned guard drops, including during unwinding, so a
    /// panicking pass never leaves an orphaned open span.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard {
        match self.active() {
            Some(inner) => SpanGuard::open(Arc::clone(inner), cat, name),
            None => SpanGuard::inert(),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = self.active() {
            inner.registry().counter_add(name, delta);
        }
    }

    /// Records one observation into the named log₂-bucketed histogram.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        if let Some(inner) = self.active() {
            inner.registry().histogram_record(name, value);
        }
    }

    /// Current value of a counter, if it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.registry().counter_value(name))
    }

    /// Spans recorded so far (drops excluded).
    pub fn spans_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.recorded.load(Ordering::Relaxed))
    }

    /// Spans lost to full or contended shards.
    pub fn spans_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// All span records so far, ordered by open time. `None` on a
    /// disabled handle.
    pub fn span_records(&self) -> Option<Vec<SpanRecord>> {
        self.inner.as_ref().map(|inner| inner.collect_spans())
    }

    /// Metrics snapshot (counters, histograms plus span
    /// accounting). `None` on a disabled handle.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| {
            inner.registry().snapshot(
                inner.recorded.load(Ordering::Relaxed),
                inner.dropped.load(Ordering::Relaxed),
            )
        })
    }

    /// Renders every recorded span as Chrome trace-event JSON
    /// (balanced `B`/`E` pairs; open `chrome://tracing` or Perfetto
    /// and load the file). `None` on a disabled handle.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|inner| export::chrome_trace_json(&inner.collect_spans()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut span = tel.span("core", "nothing");
        span.attr("k", 1);
        drop(span);
        tel.counter_add("c", 1);
        assert_eq!(tel.spans_recorded(), 0);
        assert!(tel.metrics_snapshot().is_none());
        assert!(tel.chrome_trace_json().is_none());
    }

    #[test]
    fn default_handle_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn spans_nest_parent_child_on_one_thread() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("core", "outer");
            let _inner = tel.span("map", "inner");
        }
        let records = tel.span_records().unwrap();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tel = Telemetry::enabled();
        {
            let _root = tel.span("core", "root");
            drop(tel.span("map", "a"));
            drop(tel.span("map", "b"));
        }
        let records = tel.span_records().unwrap();
        let root_id = records.iter().find(|r| r.name == "root").unwrap().id;
        for name in ["a", "b"] {
            let r = records.iter().find(|r| r.name == name).unwrap();
            assert_eq!(r.parent, Some(root_id));
        }
    }

    #[test]
    fn two_instances_do_not_adopt_each_others_spans() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        let _outer_a = a.span("core", "outer-a");
        {
            let _inner_b = b.span("core", "inner-b");
        }
        let records = b.span_records().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].parent, None, "span crossed instances");
    }

    #[test]
    fn overflow_counts_drops_without_blocking() {
        let tel = Telemetry::with_span_capacity(2);
        for _ in 0..10 {
            drop(tel.span("core", "s"));
        }
        assert_eq!(tel.spans_recorded(), 2);
        assert_eq!(tel.spans_dropped(), 8);
        let snap = tel.metrics_snapshot().unwrap();
        assert_eq!(snap.spans_dropped, 8);
    }

    #[test]
    fn runtime_disable_stops_recording() {
        let tel = Telemetry::enabled();
        drop(tel.span("core", "kept"));
        tel.set_enabled(false);
        drop(tel.span("core", "lost"));
        tel.counter_add("lost", 1);
        assert_eq!(tel.spans_recorded(), 1);
        assert_eq!(tel.counter_value("lost"), None);
        tel.set_enabled(true);
        drop(tel.span("core", "kept-again"));
        assert_eq!(tel.spans_recorded(), 2);
    }

    #[test]
    fn attrs_are_recorded_in_order() {
        let tel = Telemetry::enabled();
        {
            let mut span = tel.span("compose", "block");
            span.attr("index", 3);
            span.attr("outcome", "composed");
        }
        let records = tel.span_records().unwrap();
        assert_eq!(
            records[0].attrs,
            vec![
                ("index", "3".to_string()),
                ("outcome", "composed".to_string())
            ]
        );
    }

    #[test]
    fn cross_thread_spans_get_distinct_tids() {
        let tel = Telemetry::enabled();
        {
            let _main = tel.span("core", "main");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let tel = tel.clone();
                    scope.spawn(move || {
                        let _w = tel.span("compose", "worker");
                    });
                }
            });
        }
        let records = tel.span_records().unwrap();
        let main_tid = records.iter().find(|r| r.name == "main").unwrap().tid;
        for worker in records.iter().filter(|r| r.name == "worker") {
            assert_ne!(worker.tid, main_tid);
            // Worker spans root their own thread, not the main span.
            assert_eq!(worker.parent, None);
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let tel = Telemetry::enabled();
        tel.counter_add("map.swaps_inserted", 3);
        tel.counter_add("map.swaps_inserted", 4);
        tel.histogram_record("compose.acceptance_permille", 500);
        assert_eq!(tel.counter_value("map.swaps_inserted"), Some(7));
        let snap = tel.metrics_snapshot().unwrap();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 7);
        assert_eq!(snap.histograms[0].count, 1);
    }
}
