//! Span and event recording: RAII guards, the finished-span registry, and
//! the drain cursors used to ship worker telemetry home.

use crate::enabled;
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A finished span: a named, timed region with a parent link.
#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    /// Unique id (> 0) within this process.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Static name, or an owned name for spans absorbed from workers.
    pub name: Cow<'static, str>,
    /// Rendered `key=value` fields, space-separated; may be empty.
    pub fields: String,
    /// Dense per-thread id (0 marks spans absorbed from a remote process).
    pub thread: u64,
    /// Start time in microseconds since the process telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A point-in-time event.
#[derive(Clone, Debug)]
pub(crate) struct EventRecord {
    /// Static name, or an owned name for events absorbed from workers.
    pub name: Cow<'static, str>,
    /// Rendered `key=value` fields, space-separated; may be empty.
    pub fields: String,
    /// Dense per-thread id (0 marks events absorbed from a remote process).
    pub thread: u64,
    /// Timestamp in microseconds since the process telemetry epoch.
    pub at_us: u64,
}

struct Registry<T> {
    records: Vec<T>,
    drained: usize,
}

impl<T> Registry<T> {
    const fn new() -> Self {
        Registry { records: Vec::new(), drained: 0 }
    }
}

static SPANS: Mutex<Registry<SpanRecord>> = Mutex::new(Registry::new());
static EVENTS: Mutex<Registry<EventRecord>> = Mutex::new(Registry::new());
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    // Current innermost span id (0 = root) and this thread's dense id
    // (0 = unassigned). Const-initialized: no allocation on first touch.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// Microseconds since the process telemetry epoch (first telemetry use).
pub(crate) fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// RAII guard for a span; records the span into the registry when dropped.
/// Created via the [`span!`](crate::span) macro.
#[must_use = "a span guard times the region it is alive in; bind it to a variable"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    fields: String,
    start_us: u64,
    start: Instant,
}

impl SpanGuard {
    /// Starts a span with no fields. A no-op when telemetry is disabled.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard::enter_with(name, String::new)
    }

    /// Starts a span, rendering its fields with `fields` — the closure is
    /// only invoked while telemetry is enabled, so the disabled path does
    /// not allocate.
    #[inline]
    pub fn enter_with<F: FnOnce() -> String>(name: &'static str, fields: F) -> SpanGuard {
        if !enabled() {
            return SpanGuard { inner: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            inner: Some(SpanInner {
                id,
                parent,
                name: Cow::Borrowed(name),
                fields: fields(),
                start_us: now_us(),
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur_us = inner.start.elapsed().as_micros() as u64;
        CURRENT.with(|c| c.set(inner.parent));
        let record = SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            fields: inner.fields,
            thread: thread_id(),
            start_us: inner.start_us,
            dur_us,
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).records.push(record);
    }
}

/// Records a point event. The `fields` closure is only invoked while
/// telemetry is enabled. Called by the [`event!`](crate::event) macro.
#[inline]
pub fn record_event<F: FnOnce() -> String>(name: &'static str, fields: F) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        name: Cow::Borrowed(name),
        fields: fields(),
        thread: thread_id(),
        at_us: now_us(),
    };
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).records.push(record);
}

fn join_fields(fields: &str, extra: &str) -> String {
    match (fields.is_empty(), extra.is_empty()) {
        (true, _) => extra.to_string(),
        (_, true) => fields.to_string(),
        _ => format!("{fields} {extra}"),
    }
}

/// Records a span absorbed from a remote process, tagging it with `extra`
/// (e.g. `"worker=1 gen=0"`). Remote spans are roots with thread id 0; their
/// `start_us` is in the remote process's own clock.
pub(crate) fn record_remote_span(
    name: &str,
    fields: &str,
    extra: &str,
    start_us: u64,
    dur_us: u64,
) {
    if !enabled() {
        return;
    }
    let record = SpanRecord {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        name: Cow::Owned(name.to_string()),
        fields: join_fields(fields, extra),
        thread: 0,
        start_us,
        dur_us,
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).records.push(record);
}

/// Records an event absorbed from a remote process, tagging it with `extra`.
pub(crate) fn record_remote_event(name: &str, fields: &str, extra: &str, at_us: u64) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        name: Cow::Owned(name.to_string()),
        fields: join_fields(fields, extra),
        thread: 0,
        at_us,
    };
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).records.push(record);
}

/// Clones every finished span (drained or not), in finish order.
pub(crate) fn finished() -> Vec<SpanRecord> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).records.clone()
}

/// Clones every recorded event (drained or not), in record order.
pub(crate) fn all_events() -> Vec<EventRecord> {
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).records.clone()
}

pub(crate) fn drain_spans() -> Vec<(String, String, u64, u64)> {
    let mut reg = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let from = reg.drained;
    reg.drained = reg.records.len();
    reg.records[from..]
        .iter()
        .map(|r| (r.name.to_string(), r.fields.clone(), r.start_us, r.dur_us))
        .collect()
}

pub(crate) fn drain_events() -> Vec<(String, String, u64)> {
    let mut reg = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    let from = reg.drained;
    reg.drained = reg.records.len();
    reg.records[from..].iter().map(|r| (r.name.to_string(), r.fields.clone(), r.at_us)).collect()
}

pub(crate) fn reset() {
    let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    spans.records.clear();
    spans.drained = 0;
    drop(spans);
    let mut events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    events.records.clear();
    events.drained = 0;
}
