//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of the public API —
//! around the calls into each layer — kept in memory, and written as
//! JSONL when the traced pass ends. A span names the span that caused
//! it (`parent`) and the query it belongs to, so one query's spans
//! share an identifier.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Position in the recorder, 1-based.
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// The query this span belongs to (index into the traced stream).
    pub query: u32,
    /// Layer-qualified name, from [`crate::catalogue`]'s vocabulary.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one traced pass.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanRecorder {
    /// Records the interval `[start, end]` and returns the span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        query: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        query: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, query, start, Instant::now());
        out
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
