//! # ir-observe
//!
//! The observability substrate of the workspace: every layer of the
//! stack (storage, index, evaluation, engine, bench harness) records
//! what it does through this crate, so the paper's quantities — disk
//! reads per refinement, hit/eviction behaviour per policy, `d_t`
//! estimator error — are measured once, uniformly, instead of through
//! per-crate ad-hoc counters.
//!
//! Two complementary facilities:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   named monotonic counters, gauges and fixed-bucket histograms.
//!   Handles are `Arc`-backed atomics — recording is lock-free and
//!   wait-free, so the threaded `SessionServer` can count from N
//!   sessions without contention. Registration (name → handle) takes a
//!   short mutex once per metric; the hot path never does.
//! * **Spans** ([`Tracer`], [`Span`], [`SpanSink`]): a hierarchical
//!   wall-time trace (`session > query > term-select > list-read`)
//!   with a pluggable sink — [`MemorySink`] (tests), [`JsonlSink`]
//!   (one JSON object per line, for offline analysis) — and no sink at
//!   all by default, under which spans are inert.
//!
//! A process-wide [`global`] registry and [`tracer`] serve layers that
//! have no natural place to thread a handle through (the index decode
//! path, the evaluator); components with per-instance statistics (each
//! buffer pool) create private registries.
//!
//! Overhead expectations: a counter bump is one relaxed atomic add
//! (~1 ns); a histogram record is a branchless bucket search over ≤ 32
//! bounds plus two atomic adds. Until [`set_span_sink`] is called,
//! [`tracer`] is one atomic load — no lock, no allocation — and the
//! spans it hands out, and their children, are inert: no id, no clock
//! read, no name (a `format_args!` name is never formatted), `attr`
//! returns at once, drop does nothing. With a sink installed a span
//! costs one `NEXT_SPAN_ID` bump, one thread-local swap, two
//! `Instant::now` calls, its formatted name and a `String` per
//! attribute, and `tracer` takes a short lock to clone the sink handle.
//! Nothing here affects the simulator's deterministic read counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, DECODE_NS_BOUNDS,
    DEFAULT_LATENCY_BOUNDS, IO_LATENCY_US_BOUNDS,
};
pub use span::{JsonlSink, MemorySink, NoopSink, Span, SpanKind, SpanRecord, SpanSink, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The process-wide registry, for layers without a per-instance home
/// (index decode counters, evaluator aggregates).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

static GLOBAL_SINK: std::sync::Mutex<Option<Arc<dyn SpanSink>>> = std::sync::Mutex::new(None);

/// Whether a sink was ever installed: lets [`tracer`] skip the lock on
/// a process nobody traces. Set under the `GLOBAL_SINK` lock, so a
/// thread that sees `true` finds the sink there.
static SINK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Replaces the process-wide span sink (returns the previous one).
/// There is none by default, and spans are inert until one is set.
pub fn set_span_sink(sink: Arc<dyn SpanSink>) -> Option<Arc<dyn SpanSink>> {
    let mut slot = GLOBAL_SINK.lock().expect("span sink lock");
    SINK_INSTALLED.store(true, Ordering::Release);
    slot.replace(sink)
}

/// A tracer bound to the current process-wide span sink: one atomic
/// load when none was ever installed, else one short lock to clone the
/// sink handle.
pub fn tracer() -> Tracer {
    if !SINK_INSTALLED.load(Ordering::Acquire) {
        return Tracer::noop();
    }
    let sink = GLOBAL_SINK.lock().expect("span sink lock").clone();
    sink.map_or_else(Tracer::noop, Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("lib.test.counter").add(2);
        assert_eq!(global().counter("lib.test.counter").get(), 2);
    }

    #[test]
    fn global_tracer_swaps_sinks() {
        let mem = Arc::new(MemorySink::new());
        let prev = set_span_sink(mem.clone());
        {
            let t = tracer();
            let _s = t.span(SpanKind::Session, "swap-test");
        }
        assert_eq!(mem.take().len(), 1);
        // Restore whatever was installed before this test.
        match prev {
            Some(p) => drop(set_span_sink(p)),
            None => drop(set_span_sink(Arc::new(NoopSink))),
        }
    }
}
