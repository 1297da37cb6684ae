//! Thread-safe buffer sharing for multi-session workloads.
//!
//! The paper's §3.3 multi-user discussion assumes concurrent queries
//! against one pool. This module provides the two building blocks the
//! session server needs:
//!
//! * [`QueryBuffer`] — the capability the evaluation algorithms
//!   actually require from a buffer (fetch, `b_t`, query announcement,
//!   statistics), so they run unchanged against a private pool, a
//!   mutex-shared pool, one partition of a partitioned pool, or a
//!   lock-striped [`ShardedBufferPool`](crate::ShardedBufferPool);
//! * [`Shared<T>`] — the one generic `Arc<Mutex<T>>` locking adapter
//!   behind every mutex-shared pool flavour.
//!   [`SharedBufferManager`] and [`SharedPartitionedBuffer`] are thin
//!   aliases of it. Locking is per-call: a page fetch (or one whole
//!   [`ReadPlan`]) is a critical section, a whole query is not, so
//!   sessions interleave at page granularity exactly like the
//!   time-sliced multi-user runs the paper envisions.

use crate::buffer::{BufferManager, FetchOutcome};
use crate::disk::PageStore;
use crate::page::Page;
use crate::partition::{PartitionId, PartitionedBuffer};
use crate::stats::BufferStats;
use ir_types::{IrError, IrResult, PageId, ReadPlan, TermId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// What query evaluation needs from a buffer pool: fetch a list prefix,
/// ask `b_t`, announce `w_{q,t}`.
///
/// A fetch is one blocking call,
/// [`fetch_batch_into`](Self::fetch_batch_into); the other forms —
/// `fetch`, `fetch_traced`, `fetch_batch` — are compositions of it
/// written once in [`QueryBufferExt`], which no implementor can
/// override.
///
/// Implemented by [`BufferManager`] (private pool), [`Shared<T>`] for
/// any `T: QueryBuffer` (one pool, many sessions), [`PartitionHandle`]
/// (one partition of a [`PartitionedBuffer`]) and
/// [`ShardedBufferPool`](crate::ShardedBufferPool) (lock-striped pool);
/// the evaluation algorithms in `ir-core` are generic over it.
pub trait QueryBuffer {
    /// Serves every entry of `plan` **in plan order** into `out`
    /// (cleared first), reporting how each was served. Shared
    /// implementations take their lock once for the whole batch.
    /// Transient failures (torn pages, injected faults) are retried
    /// here, under the pool's `FetchPolicy`; on error `out` holds the
    /// entries served before the failure.
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()>;

    /// `b_t` for every term in `terms`, in order: resident pages of
    /// each term's inverted list. One call is one pass over the pool's
    /// locks, however many terms are asked about.
    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32>;

    /// Announces the term weights `w_{q,t}` of the query about to run.
    fn begin_query(&mut self, weights: &HashMap<TermId, f64>);

    /// Snapshot of the pool counters this buffer draws on. For a
    /// shared pool the numbers aggregate every session's traffic.
    fn stats(&self) -> BufferStats;

    /// Routing granularity a plan should be chunked to, in pages:
    /// `Some(chunk)` when plans aligned to `chunk`-page boundaries of
    /// one term's list each land on a single shard of a lock-striped
    /// pool, `None` (the default) when alignment buys nothing.
    fn plan_alignment(&self) -> Option<u32> {
        None
    }

    /// Pages this buffer obtained without a disk read by borrowing a
    /// sibling partition's frame. Zero for unpartitioned pools.
    fn borrows(&self) -> u64 {
        0
    }
}

/// The convenience forms of a fetch, each written once over
/// [`QueryBuffer::fetch_batch_into`]. Blanket-implemented, so an
/// implementor of [`QueryBuffer`] gets all of them and can override
/// none.
pub trait QueryBufferExt: QueryBuffer {
    /// Executes `plan`, serving every entry in plan order and
    /// reporting each entry's outcome.
    fn fetch_batch(&mut self, plan: &ReadPlan) -> IrResult<Vec<(Page, FetchOutcome)>> {
        let mut out = Vec::with_capacity(plan.len());
        self.fetch_batch_into(plan, &mut out)?;
        Ok(out)
    }

    /// Fetches one page — a one-entry plan — reporting how it was
    /// served. The outcome is observed inside the fetch's own critical
    /// section, so attribution is exact for the calling session even
    /// when other sessions hammer the same pool concurrently.
    fn fetch_traced(&mut self, id: PageId) -> IrResult<(Page, FetchOutcome)> {
        let mut served = self.fetch_batch(&ReadPlan::single(id))?;
        Ok(served.pop().expect("a one-entry plan yields one result"))
    }

    /// Fetches one page, counting a hit or a disk read.
    fn fetch(&mut self, id: PageId) -> IrResult<Page> {
        self.fetch_traced(id).map(|(page, _)| page)
    }

    /// `b_t` of a single term.
    fn resident_pages(&self, term: TermId) -> u32 {
        self.resident_pages_many(&[term])[0]
    }
}

impl<B: QueryBuffer + ?Sized> QueryBufferExt for B {}

/// The generic locking adapter: any value behind an `Arc<Mutex<_>>`,
/// cloneable into one handle per session, usable from any thread.
///
/// Everything mutex-shared in this crate is an instantiation —
/// [`SharedBufferManager`] and [`SharedPartitionedBuffer`] are plain
/// aliases, so the wrapper boilerplate (handle cloning, `with`-style
/// locked access, the whole-plan-per-lock [`QueryBuffer`] forwarding)
/// exists once rather than once per pool flavour.
#[derive(Debug)]
pub struct Shared<T> {
    inner: Arc<Mutex<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Shared<T> {
    /// Wraps an existing value for sharing.
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(Mutex::new(value)),
        }
    }

    /// Runs `f` with the value locked — for operations the
    /// [`QueryBuffer`] surface does not cover (pinning, flushing,
    /// observers, store access).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

/// Any shared queryable pool is itself a [`QueryBuffer`]: each call —
/// including a whole [`ReadPlan`] — is one lock acquisition on the
/// wrapped pool.
impl<T: QueryBuffer> QueryBuffer for Shared<T> {
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        // One lock acquisition for the whole batch: the batch is the
        // critical section, not each page.
        self.inner.lock().fetch_batch_into(plan, out)
    }

    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        self.inner.lock().resident_pages_many(terms)
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        self.inner.lock().begin_query(weights);
    }

    fn stats(&self) -> BufferStats {
        self.inner.lock().stats()
    }

    fn plan_alignment(&self) -> Option<u32> {
        self.inner.lock().plan_alignment()
    }

    fn borrows(&self) -> u64 {
        self.inner.lock().borrows()
    }
}

/// A [`BufferManager`] behind an `Arc<Mutex<_>>`: clone one handle per
/// session and fetch from any thread.
pub type SharedBufferManager<S> = Shared<BufferManager<S>>;

impl<S: PageStore> Shared<BufferManager<S>> {
    /// Number of frames in use.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity()
    }

    /// Empties the pool (statistics survive).
    pub fn flush(&self) {
        self.inner.lock().flush();
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.inner.lock().reset_stats();
    }
}

/// A [`PartitionedBuffer`] behind an `Arc<Mutex<_>>`; sessions address
/// their partition through a [`PartitionHandle`].
pub type SharedPartitionedBuffer<S> = Shared<PartitionedBuffer<S>>;

impl<S: PageStore> Shared<PartitionedBuffer<S>> {
    /// A [`QueryBuffer`] view of partition `pid`; sibling borrowing
    /// stays active across partitions. The id is validated here, so a
    /// handle that exists always addresses a real partition — the old
    /// unvalidated construction let an out-of-range handle silently
    /// report zeroed statistics.
    ///
    /// # Errors
    /// [`IrError::InvalidConfig`] when `pid` is out of range.
    pub fn handle(&self, pid: PartitionId) -> IrResult<PartitionHandle<S>> {
        let n = self.inner.lock().n_partitions();
        if pid >= n {
            return Err(IrError::InvalidConfig(format!(
                "partition {pid} out of range (have {n})"
            )));
        }
        Ok(PartitionHandle {
            pool: self.clone(),
            pid,
        })
    }

    /// Disk reads avoided by cross-partition borrowing so far.
    pub fn sibling_hits(&self) -> u64 {
        self.inner.lock().sibling_hits()
    }

    /// Aggregate statistics over all partitions.
    pub fn total_stats(&self) -> BufferStats {
        self.inner.lock().total_stats()
    }
}

/// One partition of a [`SharedPartitionedBuffer`], usable wherever a
/// [`QueryBuffer`] is expected.
#[derive(Debug)]
pub struct PartitionHandle<S: PageStore> {
    pool: Shared<PartitionedBuffer<S>>,
    pid: PartitionId,
}

impl<S: PageStore> Clone for PartitionHandle<S> {
    fn clone(&self) -> Self {
        PartitionHandle {
            pool: self.pool.clone(),
            pid: self.pid,
        }
    }
}

impl<S: PageStore> QueryBuffer for PartitionHandle<S> {
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        self.pool.with(|p| p.fetch_batch_into(self.pid, plan, out))
    }

    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        self.pool.with(|p| {
            terms
                .iter()
                .map(|t| p.resident_pages(self.pid, *t))
                .collect()
        })
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        self.pool.with(|p| p.begin_query(self.pid, weights));
    }

    fn stats(&self) -> BufferStats {
        // The pid was validated when the handle was constructed
        // (`SharedPartitionedBuffer::handle`), so the partition always
        // exists — no silent zeroed-stats fallback.
        self.pool
            .with(|p| p.stats(self.pid))
            .expect("PartitionHandle pid validated at construction")
    }

    fn borrows(&self) -> u64 {
        self.pool.with(|p| p.borrows(self.pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::policy::PolicyKind;
    use ir_types::Posting;

    fn store(n_terms: u32, pages: u32) -> DiskSim {
        let lists = (0..n_terms)
            .map(|t| {
                (0..pages)
                    .map(|p| {
                        let postings: Vec<Posting> = vec![Posting::new(p, pages - p)];
                        Page::new(PageId::new(TermId(t), p), postings.into(), 1.0)
                    })
                    .collect()
            })
            .collect();
        DiskSim::new(lists)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    #[test]
    fn shared_pool_serves_clones() {
        let bm = BufferManager::new(store(1, 4), 4, PolicyKind::Lru).unwrap();
        let mut a = SharedBufferManager::new(bm);
        let mut b = a.clone();
        a.fetch(pid(0, 0)).unwrap();
        b.fetch(pid(0, 0)).unwrap(); // hit via the other handle
        let s = a.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.resident_pages(TermId(0)), 1);
    }

    #[test]
    fn shared_pool_is_actually_threadable() {
        let bm = BufferManager::new(store(2, 8), 6, PolicyKind::Lru).unwrap();
        let pool = SharedBufferManager::new(bm);
        crossbeam::thread::scope(|scope| {
            for t in 0..2u32 {
                let mut handle = pool.clone();
                scope.spawn(move |_| {
                    for p in 0..8 {
                        handle.fetch(pid(t, p)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let s = pool.stats();
        assert_eq!(s.requests, 16);
        assert_eq!(s.hits + s.misses, 16);
        assert!(pool.len() <= 6);
    }

    #[test]
    fn partition_handles_route_to_their_partition() {
        let pb = PartitionedBuffer::new(Arc::new(store(1, 4)), 2, 2, PolicyKind::Lru).unwrap();
        let shared = SharedPartitionedBuffer::new(pb);
        let mut h0 = shared.handle(0).unwrap();
        let mut h1 = shared.handle(1).unwrap();
        h0.fetch(pid(0, 0)).unwrap();
        h1.fetch(pid(0, 0)).unwrap(); // sibling borrow, no disk read
        assert_eq!(shared.sibling_hits(), 1);
        assert_eq!(h0.stats().misses, 1);
        assert_eq!(h1.stats().misses, 0);
        assert_eq!(h1.stats().hits, 1);
        assert_eq!(h0.resident_pages(TermId(0)), 1);
        assert_eq!(h1.resident_pages(TermId(0)), 1);
    }

    #[test]
    fn out_of_range_handle_is_rejected_at_construction() {
        // Regression: an invalid pid used to yield a working handle
        // whose stats() silently returned zeroes, so a session could
        // run a whole experiment against a nonexistent partition and
        // report a perfect (empty) cost profile.
        let pb = PartitionedBuffer::new(Arc::new(store(1, 4)), 2, 2, PolicyKind::Lru).unwrap();
        let shared = SharedPartitionedBuffer::new(pb);
        let err = shared.handle(2).unwrap_err();
        assert!(matches!(err, ir_types::IrError::InvalidConfig(_)));
        assert!(err.to_string().contains("partition 2 out of range"));
        // Valid handles keep reporting real statistics.
        let mut h = shared.handle(1).unwrap();
        h.fetch(pid(0, 0)).unwrap();
        assert_eq!(h.stats().requests, 1);
    }

    #[test]
    fn fetch_traced_labels_borrows_across_partitions() {
        use crate::buffer::FetchOutcome;
        let pb = PartitionedBuffer::new(Arc::new(store(1, 4)), 2, 2, PolicyKind::Lru).unwrap();
        let shared = SharedPartitionedBuffer::new(pb);
        let mut h0 = shared.handle(0).unwrap();
        let mut h1 = shared.handle(1).unwrap();
        let (_, a) = h0.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(a, FetchOutcome::Miss);
        let (_, b) = h1.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(b, FetchOutcome::Borrowed, "sibling copy is a borrow");
        let (_, c) = h1.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(c, FetchOutcome::Hit, "borrowed copy now serves local hits");
    }

    #[test]
    fn generic_shared_adapter_wraps_any_query_buffer() {
        // The adapter is one type: instantiating it over a plain
        // BufferManager must behave exactly like the old bespoke
        // SharedBufferManager wrapper, including whole-plan batching.
        let bm = BufferManager::new(store(1, 4), 4, PolicyKind::Lru).unwrap();
        let mut shared: Shared<BufferManager<DiskSim>> = Shared::new(bm);
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
        let out = shared.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(shared.with(|bm| bm.metrics().batches.get()), 1);
        assert_eq!(shared.capacity(), 4);
        assert_eq!(shared.borrows(), 0);
    }
}
