//! Buffer-pool accounting on `ir-observe` registry handles.
//!
//! [`BufferStats`] remains the value type experiments snapshot and
//! diff; the counters behind it live in [`BufferMetrics`] — lock-free
//! `ir-observe` handles registered per pool, finer-grained than the
//! snapshot (evictions split head/tail, retries and torn deliveries).

use ir_observe::{Counter, Histogram, MetricsSnapshot, Registry};

/// Bucket bounds for the pages-per-batch histogram: powers of two up
/// to a generously sized plan (larger batches land in the overflow
/// bucket).
pub const BATCH_PAGES_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Cumulative buffer-pool statistics.
///
/// `misses` equals the number of disk reads issued through the pool —
/// the paper's headline metric. Experiments take [`BufferStats`]
/// snapshots before and after a refinement and report the delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served (hits + misses).
    pub requests: u64,
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that went to disk (page reads).
    pub misses: u64,
    /// Pages pushed out to make room.
    pub evictions: u64,
}

impl BufferStats {
    /// Difference `self − earlier`, for per-query accounting.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not actually earlier
    /// (any counter larger than in `self`).
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        debug_assert!(self.requests >= earlier.requests);
        debug_assert!(self.hits >= earlier.hits);
        debug_assert!(self.misses >= earlier.misses);
        debug_assert!(self.evictions >= earlier.evictions);
        BufferStats {
            requests: self.requests - earlier.requests,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Hit ratio in `[0, 1]`; 0 when no requests have been made.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Componentwise sum — how per-shard snapshots roll up.
impl std::ops::AddAssign for BufferStats {
    fn add_assign(&mut self, other: BufferStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// The live counters of one buffer pool, as `ir-observe` registry
/// handles. Recording is a relaxed atomic add per event; the
/// [`BufferStats`] the rest of the stack consumes is derived on demand
/// by [`snapshot`](BufferMetrics::snapshot).
///
/// The registry is per-pool, so counter names need no policy suffix:
/// each pool runs exactly one policy, the one its owner built it with.
#[derive(Clone, Debug)]
pub struct BufferMetrics {
    registry: Registry,
    /// Page requests (hits + misses + failed fetches). Advances once
    /// per resident run of a plan — by the run's length, right after
    /// the run's pages are in the caller's `out` and just before `hits`
    /// does — and once per miss, not once per page. A concurrent reader
    /// can therefore see the pair a run behind `out`, or `requests` a
    /// step ahead of `hits + loads`; whenever no fetch is in flight,
    /// requests = hits + loads + failed fetches exactly.
    pub requests: Counter,
    /// Requests served from a resident frame; advances with `requests`,
    /// once per resident run.
    pub hits: Counter,
    /// Pages read from the store into a frame (disk reads).
    pub loads: Counter,
    /// Evictions of list-head pages (`PageNo` 0).
    pub evictions_head: Counter,
    /// Evictions of non-head pages.
    pub evictions_tail: Counter,
    /// Store reads re-attempted after a transient failure (one per
    /// retry attempt, not per failed fetch).
    pub retries: Counter,
    /// Fetches abandoned with a transient error after exhausting the
    /// retry budget.
    pub gave_up: Counter,
    /// Deliveries rejected because the page content failed checksum
    /// verification (torn reads).
    pub torn_pages: Counter,
    /// Read plans executed, one per plan whatever its length: a
    /// single-page `fetch` is a one-entry plan and counts too.
    pub batches: Counter,
    /// Plan sizes (entries per executed batch), as a histogram.
    pub batch_pages: Histogram,
}

impl Default for BufferMetrics {
    fn default() -> Self {
        BufferMetrics::new()
    }
}

impl BufferMetrics {
    /// Fresh counters in a private registry, under the canonical
    /// `buffer.*` names.
    pub fn new() -> Self {
        let registry = Registry::new();
        BufferMetrics {
            requests: registry.counter("buffer.requests"),
            hits: registry.counter("buffer.hits"),
            loads: registry.counter("buffer.loads"),
            evictions_head: registry.counter("buffer.evictions.head"),
            evictions_tail: registry.counter("buffer.evictions.tail"),
            retries: registry.counter("buffer.retries"),
            gave_up: registry.counter("buffer.gave_up"),
            torn_pages: registry.counter("buffer.torn_pages"),
            batches: registry.counter("buffer.batches"),
            batch_pages: registry.histogram("buffer.batch_pages", &BATCH_PAGES_BOUNDS),
            registry,
        }
    }

    /// The classic four-counter snapshot: `misses` is exactly `loads`
    /// (every miss that completed read one page) and `evictions`
    /// merges the head/tail split.
    pub fn snapshot(&self) -> BufferStats {
        BufferStats {
            requests: self.requests.get(),
            hits: self.hits.get(),
            misses: self.loads.get(),
            evictions: self.evictions_head.get() + self.evictions_tail.get(),
        }
    }

    /// Full registry dump including the fine-grained counters the
    /// snapshot folds away.
    pub fn dump(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Zeroes every counter (the pool's `reset_stats`).
    pub fn reset(&self) {
        self.registry.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_componentwise() {
        let early = BufferStats {
            requests: 10,
            hits: 6,
            misses: 4,
            evictions: 2,
        };
        let late = BufferStats {
            requests: 25,
            hits: 16,
            misses: 9,
            evictions: 5,
        };
        let d = late.since(&early);
        assert_eq!(d.requests, 15);
        assert_eq!(d.hits, 10);
        assert_eq!(d.misses, 5);
        assert_eq!(d.evictions, 3);
    }

    #[test]
    fn hit_ratio_bounds() {
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
        let s = BufferStats {
            requests: 4,
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_derives_the_classic_view() {
        let m = BufferMetrics::new();
        m.requests.add(5);
        m.hits.add(2);
        m.loads.add(3);
        m.evictions_head.inc();
        m.evictions_tail.add(2);
        let s = m.snapshot();
        assert_eq!(
            s,
            BufferStats {
                requests: 5,
                hits: 2,
                misses: 3,
                evictions: 3,
            }
        );
        m.reset();
        assert_eq!(m.snapshot(), BufferStats::default());
    }

    #[test]
    fn dump_exposes_fine_grained_counters() {
        let m = BufferMetrics::new();
        m.evictions_tail.add(4);
        m.retries.add(3);
        m.gave_up.inc();
        m.torn_pages.add(2);
        let d = m.dump();
        assert_eq!(d.counter("buffer.evictions.tail"), Some(4));
        assert_eq!(d.counter("buffer.loads"), Some(0));
        assert_eq!(d.counter("buffer.retries"), Some(3));
        assert_eq!(d.counter("buffer.gave_up"), Some(1));
        assert_eq!(d.counter("buffer.torn_pages"), Some(2));
    }

    #[test]
    fn batch_metrics_register_and_record() {
        let m = BufferMetrics::new();
        m.batches.inc();
        m.batch_pages.record(3);
        m.batch_pages.record(200);
        let d = m.dump();
        assert_eq!(d.counter("buffer.batches"), Some(1));
        let h = d
            .histograms
            .iter()
            .find(|h| h.name == "buffer.batch_pages")
            .expect("batch_pages registered");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 203);
        assert_eq!(h.bounds, BATCH_PAGES_BOUNDS.to_vec());
    }
}
