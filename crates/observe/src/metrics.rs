//! The lock-free metrics registry: named counters and fixed-bucket
//! histograms behind atomics.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap clones of
//! `Arc`-backed atomics: once obtained, recording never takes a lock,
//! so a free-running session server can bump counters from every
//! session thread without contention. The registry itself (name → handle) is
//! behind a short mutex that only registration and snapshotting touch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
///
/// The one deliberate exception to monotonicity is
/// [`reset`](Counter::reset): the experiment harness re-uses pools
/// across grid cells and zeroes counters between them, exactly as the
/// old ad-hoc `u64` fields were zeroed.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (experiment-harness reuse; see type docs).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Histogram bounds for modeled device I/O latencies, µs: powers of
/// four from 4 µs to ~65 ms, then powers of two to ~1 s. A page
/// transfer under the storage tier's seek+bandwidth model sits in the
/// tens-to-hundreds of microseconds, where the 4 µs floor still tells a
/// sequential transfer from a seek.
pub const IO_LATENCY_US_BOUNDS: [u64; 12] = [
    4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 131_072, 262_144, 524_288, 1_048_576,
];

/// Histogram bounds for posting-list decode times, **nanoseconds**:
/// powers of four from 250 ns to ~16 ms. Decoding one ≈400-entry page
/// takes well under a microsecond on modern hardware, so a µs grid
/// would collapse every decode into the first bucket; the decode
/// histogram (`index.decode_ns.golden`) records nanoseconds and report
/// layers convert to µs/entry.
pub const DECODE_NS_BOUNDS: [u64; 12] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
];

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of the first `bounds.len()` buckets; one
    /// implicit overflow bucket follows.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram: values are counted into the first bucket
/// whose (inclusive) upper bound is ≥ the value; larger values land in
/// the overflow bucket. Bounds are fixed at registration, so recording
/// is three relaxed atomic adds plus a small search — no locks, no
/// allocation.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A free-standing histogram with the given (sorted, deduplicated)
    /// upper bounds. Panics if `bounds` is empty or not strictly
    /// increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let i = self
            .inner
            .bounds
            .partition_point(|&b| b < value)
            .min(self.inner.bounds.len());
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Bucket upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Takes a registry map's lock, poisoned or not: every touch leaves
/// the map whole.
fn locked<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A namespace of metrics. Cloning shares the underlying store, so a
/// registry handle can be passed to every layer that should report
/// into the same namespace.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = locked(&self.inner.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`; `bounds` applies only on first
    /// registration (later callers share the existing instance).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = locked(&self.inner.histograms);
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Zeroes every counter (histograms are left alone) —
    /// the experiment-harness reset path.
    pub fn reset_counters(&self) {
        for c in locked(&self.inner.counters).values() {
            c.reset();
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = locked(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = locked(&self.inner.histograms)
            .iter()
            .map(|(k, v)| HistogramSnapshot {
                name: k.clone(),
                bounds: v.bounds().to_vec(),
                counts: v.bucket_counts(),
                count: v.count(),
                sum: v.sum(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// Frozen copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds (overflow bucket implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts, overflow last (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

/// Frozen copy of a whole registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram copies, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, or `None` if it was never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Handles alias the registered metric.
        assert_eq!(r.counter("x").get(), 5);
        r.reset_counters();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.record(0); // → bucket 0 (≤ 10)
        h.record(10); // boundary value → bucket 0, not bucket 1
        h.record(11); // → bucket 1 (≤ 100)
        h.record(100); // boundary → bucket 1
        h.record(101); // → overflow
        h.record(u64::MAX / 2); // → overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_sums_observations() {
        let h = Histogram::with_bounds(&[100]);
        h.record(10);
        h.record(30);
        assert_eq!((h.count(), h.sum()), (2, 40));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::with_bounds(&[5, 5]);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("z.second").add(2);
        r.counter("a.first").inc();
        r.histogram("h", &[1, 2]).record(1);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counter("z.second"), Some(2));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.histograms[0].counts, vec![1, 0, 0]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Registry::new();
        let c = r.counter("contended");
        let h = r.histogram("hist", &[1_000]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.record(i % 7);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.count(), 4_000);
    }
}
