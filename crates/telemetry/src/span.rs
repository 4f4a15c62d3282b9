//! Span records and the RAII guard that produces them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::Inner;

/// One closed span: a named, categorized interval with its position in
/// the parent/child tree and any key=value attributes attached while
/// it was open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique (per recorder) span id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Process-global numeric id of the recording thread.
    pub tid: u64,
    /// Category — by convention the originating crate's short name.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Open time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Global sequence number at open; totally orders events while
    /// preserving each thread's stack order.
    pub open_seq: u64,
    /// Global sequence number at close.
    pub close_seq: u64,
    /// Attributes in the order they were attached.
    pub attrs: Vec<(&'static str, String)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of open spans on this thread as `(instance, span id)`,
    /// so concurrently-live recorders never adopt each other's spans.
    static OPEN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// RAII guard for an open span. Dropping it — normally or during a
/// panic unwind — closes the span and files its [`SpanRecord`].
///
/// A guard from a disabled [`crate::Telemetry`] handle is inert:
/// creating it, attaching attributes, and dropping it do nothing.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    tid: u64,
    cat: &'static str,
    name: &'static str,
    opened: Instant,
    start_ns: u64,
    open_seq: u64,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    pub(crate) fn inert() -> Self {
        SpanGuard { active: None }
    }

    pub(crate) fn open(inner: Arc<Inner>, cat: &'static str, name: &'static str) -> Self {
        let id = inner.next_span_id();
        let tid = current_tid();
        let open_seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|&&(instance, _)| instance == inner.instance)
                .map(|&(_, id)| id);
            stack.push((inner.instance, id));
            parent
        });
        let opened = Instant::now();
        let start_ns = opened.duration_since(inner.epoch).as_nanos() as u64;
        SpanGuard {
            active: Some(ActiveSpan {
                inner,
                id,
                parent,
                tid,
                cat,
                name,
                opened,
                start_ns,
                open_seq,
                attrs: Vec::new(),
            }),
        }
    }

    /// Attaches a key=value attribute. The value is formatted only
    /// when the span is live, so this is free on a disabled handle.
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(active) = self.active.as_mut() {
            active.attrs.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_ns = active.opened.elapsed().as_nanos() as u64;
        let close_seq = active.inner.seq.fetch_add(1, Ordering::Relaxed);
        OPEN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&entry| entry == (active.inner.instance, active.id))
            {
                stack.remove(pos);
            }
        });
        active.inner.record(SpanRecord {
            id: active.id,
            parent: active.parent,
            tid: active.tid,
            cat: active.cat,
            name: active.name,
            start_ns: active.start_ns,
            dur_ns,
            open_seq: active.open_seq,
            close_seq,
            attrs: active.attrs,
        });
    }
}
