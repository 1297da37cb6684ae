//! Hierarchical wall-time spans with pluggable sinks.
//!
//! A [`Span`] measures one unit of work and knows its parent, giving a
//! `session > query > term-select > list-read` tree. Spans report to a
//! [`SpanSink`] when dropped; the sink decides what to do with the
//! record — nothing ([`NoopSink`]), keep it for a test to inspect
//! ([`MemorySink`]), or append one JSON object per line to a writer
//! ([`JsonlSink`]). A [`Tracer`] without a sink hands out inert spans:
//! the tree is built only when someone receives it.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The level of the span tree a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One user session (a refinement sequence).
    Session,
    /// One query evaluation within a session.
    Query,
    /// One BAF/RAP term-selection round within a query.
    TermSelect,
    /// One posting-list scan within a round.
    ListRead,
    /// Anything else (bench harness phases, setup).
    Other,
}

/// A finished span, as delivered to a sink.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within this process.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Tree level.
    pub kind: SpanKind,
    /// Human-readable label ("q17", "term:databas").
    pub name: String,
    /// Wall-clock duration in microseconds.
    pub elapsed_us: u64,
    /// Free-form `key=value` attributes attached during the span.
    pub attrs: Vec<(String, i64)>,
}

/// Where finished spans go.
pub trait SpanSink: Send + Sync + std::fmt::Debug {
    /// Accepts one finished span.
    fn record(&self, record: SpanRecord);
}

/// Discards everything. Installing it is still installing a sink —
/// spans take ids and read the clock; with *no* sink they are inert.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl SpanSink for NoopSink {
    fn record(&self, _record: SpanRecord) {}
}

/// Keeps finished spans in memory, in completion order, for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: parking_lot::Mutex<Vec<SpanRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Drains and returns every record collected so far.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpanSink for MemorySink {
    fn record(&self, record: SpanRecord) {
        self.records.lock().push(record);
    }
}

/// Writes each finished span as one JSON object per line. Wrap a
/// `File`, a `Vec<u8>`, or anything else `Write`.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send + std::fmt::Debug> {
    writer: parking_lot::Mutex<W>,
}

impl<W: Write + Send + std::fmt::Debug> JsonlSink<W> {
    /// A sink appending to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: parking_lot::Mutex::new(writer),
        }
    }

    /// Consumes the sink and returns the writer (tests use this to
    /// inspect what was written).
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

impl<W: Write + Send + std::fmt::Debug> SpanSink for JsonlSink<W> {
    fn record(&self, record: SpanRecord) {
        if let Ok(line) = serde_json::to_string(&record) {
            let mut w = self.writer.lock();
            // An observability write failure must never take down the
            // query path; drop the record instead.
            let _ = writeln!(w, "{line}");
        }
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost live span on this thread; spans started through a
    /// [`Tracer`] nest under it automatically, so layers that cannot
    /// pass a parent around (the evaluator under a session driver)
    /// still produce a correct tree.
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Hands out spans bound to one sink — or, without a sink, inert spans
/// that cost nothing. Cheap to clone.
#[derive(Clone, Debug)]
pub struct Tracer {
    sink: Option<Arc<dyn SpanSink>>,
}

impl Tracer {
    /// A tracer reporting to `sink`.
    pub fn new(sink: Arc<dyn SpanSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// A tracer nobody listens to: every span it starts is inert.
    pub fn noop() -> Self {
        Tracer { sink: None }
    }

    /// Starts a span. It nests under the innermost live span on this
    /// thread, if any; otherwise it is a root. `name` is formatted only
    /// when a sink will receive it, so `format_args!` names are free on
    /// an unobserved query path.
    pub fn span(&self, kind: SpanKind, name: impl fmt::Display) -> Span {
        Span(self.sink.as_ref().map(|sink| {
            let parent = CURRENT_SPAN.get();
            Live::start(sink.clone(), kind, name.to_string(), parent)
        }))
    }
}

/// A span. With a sink it is live: it records itself on drop; use
/// [`Span::child`] to build the hierarchy and [`Span::attr`] to attach
/// numbers observed along the way. Without one it is inert — no id, no
/// clock read, no name, nothing on drop — and so are its children.
#[derive(Debug)]
pub struct Span(Option<Live>);

/// What a span with a listener carries.
#[derive(Debug)]
struct Live {
    sink: Arc<dyn SpanSink>,
    id: u64,
    parent: u64,
    /// Value of `CURRENT_SPAN` before this span started, restored on
    /// drop (spans are used strictly stack-like within a thread).
    restore: u64,
    kind: SpanKind,
    name: String,
    started: Instant,
    attrs: Vec<(String, i64)>,
}

impl Live {
    fn start(sink: Arc<dyn SpanSink>, kind: SpanKind, name: String, parent: u64) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT_SPAN.replace(id);
        Live {
            sink,
            id,
            parent,
            restore,
            kind,
            name,
            started: Instant::now(),
            attrs: Vec::new(),
        }
    }
}

impl Span {
    /// Starts a span nested under this one (inert under an inert
    /// parent, with `name` left unformatted).
    pub fn child(&self, kind: SpanKind, name: impl fmt::Display) -> Span {
        Span(
            self.0
                .as_ref()
                .map(|p| Live::start(p.sink.clone(), kind, name.to_string(), p.id)),
        )
    }

    /// Attaches a numeric attribute (e.g. `pages_read=3`).
    pub fn attr(&mut self, key: impl Into<String>, value: i64) {
        if let Some(live) = &mut self.0 {
            live.attrs.push((key.into(), value));
        }
    }

    /// This span's id (children reference it as `parent`); 0 for an
    /// inert span, which consumes none.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |live| live.id)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        CURRENT_SPAN.set(self.restore);
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            kind: self.kind,
            name: std::mem::take(&mut self.name),
            elapsed_us: self.started.elapsed().as_micros() as u64,
            attrs: std::mem::take(&mut self.attrs),
        };
        self.sink.record(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_sees_hierarchy_in_completion_order() {
        let mem = Arc::new(MemorySink::new());
        let tracer = Tracer::new(mem.clone());
        {
            let mut session = tracer.span(SpanKind::Session, "s0");
            session.attr("steps", 3);
            {
                let query = session.child(SpanKind::Query, "q0");
                let _scan = query.child(SpanKind::ListRead, "term:a");
            }
        }
        let records = mem.take();
        assert_eq!(records.len(), 3);
        // Inner spans complete first.
        assert_eq!(records[0].kind, SpanKind::ListRead);
        assert_eq!(records[1].kind, SpanKind::Query);
        assert_eq!(records[2].kind, SpanKind::Session);
        // Parent links form the declared tree.
        assert_eq!(records[0].parent, records[1].id);
        assert_eq!(records[1].parent, records[2].id);
        assert_eq!(records[2].parent, 0);
        assert_eq!(records[2].attrs, vec![("steps".to_string(), 3)]);
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let sink = JsonlSink::new(Vec::new());
        {
            let tracer = Tracer::new(Arc::new(NoopSink));
            // Build records by hand so the test controls every field.
            let _ = tracer;
        }
        sink.record(SpanRecord {
            id: 7,
            parent: 0,
            kind: SpanKind::Query,
            name: "q1".into(),
            elapsed_us: 42,
            attrs: vec![("pages".into(), 3)],
        });
        sink.record(SpanRecord {
            id: 8,
            parent: 7,
            kind: SpanKind::ListRead,
            name: "term:x".into(),
            elapsed_us: 5,
            attrs: Vec::new(),
        });
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        // Each line round-trips as a SpanRecord.
        let first: SpanRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.id, 7);
        assert_eq!(first.name, "q1");
        assert_eq!(first.elapsed_us, 42);
        assert_eq!(first.attrs, vec![("pages".to_string(), 3)]);
        let second: SpanRecord = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.parent, 7);
        assert_eq!(second.kind, SpanKind::ListRead);
    }

    #[test]
    fn tracer_spans_nest_under_the_innermost_live_span() {
        let mem = Arc::new(MemorySink::new());
        let tracer = Tracer::new(mem.clone());
        {
            let _outer = tracer.span(SpanKind::Session, "outer");
            let _inner = tracer.span(SpanKind::Query, "inner"); // ambient
        }
        let records = mem.take();
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].parent, records[1].id, "ambient nesting");
        assert_eq!(records[1].parent, 0);
        // Both dropped: the next tracer span is a root again.
        drop(tracer.span(SpanKind::Other, "root"));
        assert_eq!(mem.take()[0].parent, 0);
    }

    #[test]
    fn noop_tracer_costs_nothing_observable() {
        let tracer = Tracer::noop();
        let mut s = tracer.span(SpanKind::Other, "setup");
        s.attr("n", 1);
        drop(s); // must not panic or write anywhere
    }
}
