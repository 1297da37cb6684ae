//! The shard core of the [`BufferManager`](crate::BufferManager): one
//! shard's page frames, with the paper's per-term resident counts
//! (`b_t`), its replacement policy, observer and retry budget. The pool
//! owns the store, the routing and the locks, and drives every core
//! through the single-fetch protocol below.

use crate::disk::PageStore;
use crate::observe::{BufferEvent, BufferObserver};
use crate::page::Page;
use crate::policy::ReplacementPolicy;
use crate::stats::BufferMetrics;
use ir_types::{sync, IdMap, IrError, IrResult, PageId, PlanEntry, TermId};
use std::sync::{Arc, Mutex, RwLock};

/// A shard's resident-frame table behind a read-write lock, shared so
/// the pool can serve buffer hits under a shared read lock without
/// entering the shard's mutex. Every mutation goes through
/// `&mut ShardCore` methods, which the pool calls only under that
/// mutex.
pub(crate) type FrameView = Arc<RwLock<IdMap<PageId, Page>>>;

/// The pool's one observer, shared by every shard core, so it sees the
/// whole pool's events in occurrence order. Its mutex is taken under a
/// shard mutex and holds no other lock.
pub(crate) type SharedObserver = Arc<Mutex<Box<dyn BufferObserver>>>;

/// How a completed fetch was served — reported per call so each
/// session can attribute its own hits and reads exactly, with no
/// pool-delta measurement (which mis-attributes under concurrency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Served from a resident frame.
    Hit,
    /// Read from the store into a frame (a disk read).
    Miss,
}

/// Bounded retry policy for page reads that fail transiently
/// ([`IrError::is_transient`]: injected transient errors and torn
/// pages). The default is [`NO_RETRY`](FetchPolicy::NO_RETRY) — the
/// historical behaviour, where the first failure propagates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
}

impl FetchPolicy {
    /// Fail on the first error; no retries (the default).
    pub const NO_RETRY: FetchPolicy = FetchPolicy { max_retries: 0 };

    /// Retry up to `n` times, immediately: injected faults are drawn
    /// per attempt, not per unit of time, so waiting buys nothing.
    pub fn retries(n: u32) -> FetchPolicy {
        FetchPolicy { max_retries: n }
    }
}

/// The hit run — the pool's one hit path. Serves the maximal resident
/// run of leading `entries` under *one* read lock of `frames`, cloning
/// each page straight into `out`, adds `requests` / `hits` once for the
/// run, and returns its length. What a hit owes its consumers (the
/// policy's `on_hit`, the observer's `Hit` event) is paid by
/// [`ShardCore::serve_hits`], in serve order over `out`'s new tail; a
/// shard that does not [consume hits](ShardCore::consumes_hits) owes
/// nothing, and the pool serves its hits without the shard mutex.
pub(crate) fn serve_hit_run(
    frames: &FrameView,
    metrics: &BufferMetrics,
    entries: &[PlanEntry],
    out: &mut Vec<(Page, FetchOutcome)>,
) -> usize {
    let start = out.len();
    {
        let frames = sync::read(frames);
        for entry in entries {
            match frames.get(&entry.page) {
                Some(page) => out.push((page.clone(), FetchOutcome::Hit)),
                None => break,
            }
        }
    }
    let served = out.len() - start;
    if served > 0 {
        metrics.requests.add(served as u64);
        metrics.hits.add(served as u64);
    }
    served
}

/// One shard: `capacity` page frames, their `b_t` counters, the
/// shard's replacement policy, retry budget and observer, counting into
/// the pool's shared [`BufferMetrics`]. It reads through whatever store
/// the pool hands it and keeps no lock of its own beyond the two views.
///
/// # No pins
///
/// Pages handed out are `Arc`-backed and stay valid regardless of
/// eviction, so a caller never has to hold a frame in place while it
/// reads one: every resident page is evictable. In particular RAP may
/// evict not-yet-scanned pages of the active list (the paper's §5.2.1
/// observation) — nothing protects them.
///
/// # `b_t` counters
///
/// The per-term counters answer "how many pages of the inverted list
/// for term `t` are in buffers" in O(1), maintained on every
/// load/evict — the implementation §3.2.2 calls for ("a hash-table or
/// an array of counters, which are updated whenever a page is moved in
/// or out of buffers").
#[derive(Debug)]
pub(crate) struct ShardCore {
    /// The shard's frame quota.
    pub(crate) capacity: usize,
    pub(crate) frames: FrameView,
    policy: Box<dyn ReplacementPolicy>,
    /// The per-term resident-page counters (`b_t`), shared like the
    /// frames for BAF's term-selection reads. They change only on
    /// load/evict/flush — never on a hit — so readers holding only the
    /// `RwLock` see exactly the values a locked read would return, and
    /// the term selector never queues behind a shard serving disk
    /// reads.
    pub(crate) resident_per_term: Arc<RwLock<IdMap<TermId, u32>>>,
    fetch_policy: FetchPolicy,
    metrics: BufferMetrics,
    observer: Option<SharedObserver>,
}

impl ShardCore {
    /// An empty shard of `capacity` frames (at least one) run by
    /// `policy`, counting into `metrics`.
    pub(crate) fn new(
        capacity: usize,
        policy: Box<dyn ReplacementPolicy>,
        metrics: BufferMetrics,
    ) -> Self {
        ShardCore {
            capacity,
            frames: Arc::new(RwLock::new(IdMap::with_capacity_and_hasher(
                capacity,
                Default::default(),
            ))),
            policy,
            resident_per_term: Arc::default(),
            fetch_policy: FetchPolicy::NO_RETRY,
            metrics,
            observer: None,
        }
    }

    /// Whether a buffer hit has a consumer on this shard: a policy
    /// that [uses hits](ReplacementPolicy::uses_hits), or an attached
    /// observer. When neither, a hit is a page handed out and two
    /// counter adds — the hit run calls nobody, and the pool serves it
    /// without taking the shard mutex.
    pub(crate) fn consumes_hits(&self) -> bool {
        self.policy.uses_hits() || self.observer.is_some()
    }

    /// The [hit run](serve_hit_run) of leading `entries`, each served
    /// page then handed to the hit's consumers in serve order — the
    /// policy's `on_hit` and the observer's `Hit` event — when the
    /// shard [consumes hits](Self::consumes_hits). Returns the run's
    /// length.
    pub(crate) fn serve_hits(
        &mut self,
        entries: &[PlanEntry],
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> usize {
        let served = serve_hit_run(&self.frames, &self.metrics, entries, out);
        if served > 0 && self.consumes_hits() {
            for (page, _) in &out[out.len() - served..] {
                self.policy.on_hit(page);
                self.emit(BufferEvent::Hit(page.id()));
            }
        }
        served
    }

    /// Serves `entries` — all routed to this shard, the first of them
    /// seen non-resident under the shard mutex the caller still holds —
    /// **in plan order**, appending to `out`: alternately one entry
    /// through [`load_one`](Self::load_one) and the
    /// [hit run](Self::serve_hits) of what follows it, until the
    /// entries are done or one fails. Event for event, counter for
    /// counter and store read for store read, this is the single-fetch
    /// protocol applied entry by entry, so a duplicated page costs one
    /// load and one hit, and an error leaves the entries before it
    /// served. Staging and the batch metrics are the pool's.
    pub(crate) fn fetch_entries<S: PageStore>(
        &mut self,
        store: &S,
        entries: &[PlanEntry],
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        let mut rest = entries;
        while let Some((entry, tail)) = rest.split_first() {
            out.push((self.load_one(store, entry.page)?, FetchOutcome::Miss));
            rest = &tail[self.serve_hits(tail, out)..];
        }
        Ok(())
    }

    /// The miss half of the single-fetch protocol, and the only miss
    /// path: counts the request, reads the page under the shard's
    /// [`FetchPolicy`] and installs it. The caller has seen the page
    /// non-resident under the shard mutex and holds `&mut self`, so it
    /// still is.
    fn load_one<S: PageStore>(&mut self, store: &S, id: PageId) -> IrResult<Page> {
        self.metrics.requests.inc();
        // Read the replacement first, then make room. A failed read
        // therefore leaves the shard exactly as it was — the old
        // evict-then-read order destroyed a victim frame for a page
        // that never arrived.
        let page = self.read_with_retry(store, id)?;
        self.install(page.clone());
        Ok(page)
    }

    /// Reads `id` under the shard's [`FetchPolicy`]: transient failures
    /// ([`IrError::is_transient`]) are retried up to `max_retries`
    /// times; terminal errors and exhausted budgets propagate. A torn
    /// delivery — content failing checksum verification — is rejected
    /// as a transient failure and never reaches a frame. Verification
    /// re-hashes the whole page, so it only runs when the store can
    /// actually tear ([`PageStore::can_tear`]) — a clean store's reads
    /// stay checksum-free.
    fn read_with_retry<S: PageStore>(&mut self, store: &S, id: PageId) -> IrResult<Page> {
        let mut attempt = 0u32;
        loop {
            let err = match store.read_page(id) {
                Ok(page) if !store.can_tear() || page.is_intact() => return Ok(page),
                Ok(_) => {
                    self.metrics.torn_pages.inc();
                    self.emit(BufferEvent::Torn(id));
                    IrError::TornPage { page: id }
                }
                Err(e) => e,
            };
            if !err.is_transient() {
                return Err(err);
            }
            if attempt >= self.fetch_policy.max_retries {
                self.metrics.gave_up.inc();
                return Err(err);
            }
            attempt += 1;
            self.metrics.retries.inc();
            self.emit(BufferEvent::Retry(id));
        }
    }

    /// Makes room for a freshly read, non-resident page and puts it in
    /// a frame, wiring up the counters, policy and observer.
    ///
    /// The frame table's and the `b_t` table's write locks are taken
    /// once each, here — after the store read has returned, never
    /// across it (a read may sleep, and the pool's lock-light readers
    /// share these locks) — and cover the evictions and the install
    /// together.
    fn install(&mut self, page: Page) {
        let mut frames = sync::write(&self.frames);
        let mut terms = sync::write(&self.resident_per_term);
        while frames.len() >= self.capacity {
            let victim = self
                .policy
                .choose_victim()
                .expect("a full shard of at least one frame tracks a victim");
            let evicted = frames.remove(&victim);
            debug_assert!(evicted.is_some(), "policy returned a non-resident victim");
            if victim.page.0 == 0 {
                self.metrics.evictions_head.inc();
            } else {
                self.metrics.evictions_tail.inc();
            }
            self.emit(BufferEvent::Evict(victim));
            if let Some(count) = terms.get_mut(&victim.term) {
                *count -= 1;
                if *count == 0 {
                    terms.remove(&victim.term);
                }
            }
        }
        let id = page.id();
        debug_assert!(!frames.contains_key(&id), "loaded a resident page");
        *terms.entry(id.term).or_insert(0) += 1;
        self.policy.on_insert(&page);
        frames.insert(id, page);
        self.metrics.loads.inc();
        self.emit(BufferEvent::Load(id));
    }

    /// Sets the retry policy applied to store reads on the miss path.
    pub(crate) fn set_fetch_policy(&mut self, policy: FetchPolicy) {
        self.fetch_policy = policy;
    }

    /// Hands `announcer`'s query weights `w_{q,t}` to the policy: RAP
    /// re-values the resident pages of terms whose weight changed;
    /// other policies ignore it.
    pub(crate) fn begin_query(&mut self, announcer: u32, weights: &IdMap<TermId, f64>) {
        self.policy.begin_query(announcer, weights);
    }

    /// Empties the shard. Statistics survive; the pool reports the
    /// flush once, through [`emit`](Self::emit).
    pub(crate) fn flush(&mut self) {
        sync::write(&self.frames).clear();
        sync::write(&self.resident_per_term).clear();
        self.policy.clear();
    }

    /// Delivers `event` to the shard's observer, if one is attached.
    #[inline]
    pub(crate) fn emit(&self, event: BufferEvent) {
        if let Some(observer) = &self.observer {
            sync::lock(observer).event(event);
        }
    }

    /// Attaches `observer` (or detaches, with `None`), dropping the
    /// shard's hold on the previous one.
    pub(crate) fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::policy::PolicyKind;
    use crate::stats::BufferStats;
    use crate::BufferManager;
    use ir_types::{Posting, ReadPlan};

    /// `n_terms` lists × `pages_per_term` pages; page p of any term has
    /// max_freq = pages_per_term - p (decreasing along the list).
    fn store(n_terms: u32, pages_per_term: u32) -> DiskSim {
        let lists = (0..n_terms)
            .map(|t| {
                (0..pages_per_term)
                    .map(|p| {
                        let postings: Vec<Posting> = vec![Posting::new(p, pages_per_term - p)];
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

    /// An observer whose log the test can read while the pool owns the
    /// observer box.
    #[derive(Clone, Debug, Default)]
    struct SharedLog(std::sync::Arc<std::sync::Mutex<Vec<BufferEvent>>>);

    impl BufferObserver for SharedLog {
        fn event(&mut self, event: BufferEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            BufferManager::new(store(1, 1), 0, PolicyKind::Lru),
            Err(IrError::EmptyBufferPool)
        ));
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut bm = BufferManager::new(store(1, 3), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap(); // miss
        bm.fetch(pid(0, 0)).unwrap(); // hit
        bm.fetch(pid(0, 1)).unwrap(); // miss
        let s = bm.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 0);
        // Buffer misses == disk reads.
        assert_eq!(bm.store().stats().reads, 2);
        // A single-page fetch is a one-entry plan: each counts a batch,
        // hit or miss.
        assert_eq!(bm.metrics().batches.get(), 3);
        assert_eq!(bm.metrics().batch_pages.sum(), 3);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut bm = BufferManager::new(store(1, 5), 2, PolicyKind::Lru).unwrap();
        for p in 0..5 {
            bm.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.stats().evictions, 3);
    }

    #[test]
    fn resident_counters_track_loads_and_evictions() {
        let mut bm = BufferManager::new(store(2, 3), 3, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.fetch(pid(0, 1)).unwrap();
        bm.fetch(pid(1, 0)).unwrap();
        assert_eq!(bm.resident_pages(TermId(0)), 2);
        assert_eq!(bm.resident_pages(TermId(1)), 1);
        // Next fetch evicts LRU = t0:p0.
        bm.fetch(pid(1, 1)).unwrap();
        assert_eq!(bm.resident_pages(TermId(0)), 1);
        assert_eq!(bm.resident_pages(TermId(1)), 2);
        bm.flush();
        assert_eq!(bm.resident_pages(TermId(0)), 0);
        assert_eq!(bm.resident_pages(TermId(1)), 0);
    }

    #[test]
    fn capacity_one_pool_works() {
        // The paper's buffer-size sweep starts at 1 page.
        let mut bm = BufferManager::new(store(1, 4), 1, PolicyKind::Lru).unwrap();
        for p in 0..4 {
            bm.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.len(), 1);
        assert_eq!(bm.stats().misses, 4);
        // Rescan: every fetch misses again (sequential flooding).
        for p in 0..4 {
            bm.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.stats().misses, 8);
    }

    #[test]
    fn rap_eviction_order_in_pool() {
        let mut bm = BufferManager::new(store(2, 3), 3, PolicyKind::Rap).unwrap();
        // Query uses term 0 only.
        let weights: IdMap<TermId, f64> = [(TermId(0), 1.0)].into_iter().collect();
        bm.begin_query(&weights);
        bm.fetch(pid(0, 0)).unwrap(); // value: 3·1 = 3
        bm.fetch(pid(0, 2)).unwrap(); // value: 1·1 = 1
        bm.fetch(pid(1, 0)).unwrap(); // term 1 not in query: value 0
                                      // Next fetch evicts the zero-valued dropped-term page first.
        bm.fetch(pid(0, 1)).unwrap();
        assert!(!bm.is_resident(pid(1, 0)));
        assert!(bm.is_resident(pid(0, 0)));
        assert!(bm.is_resident(pid(0, 2)));
    }

    #[test]
    fn flush_keeps_stats_reset_clears_them() {
        let mut bm = BufferManager::new(store(1, 2), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.flush();
        assert_eq!(bm.stats().misses, 1);
        assert!(bm.is_empty());
        bm.reset_stats();
        assert_eq!(bm.stats(), BufferStats::default());
    }

    #[test]
    fn refetch_after_flush_is_a_miss() {
        let mut bm = BufferManager::new(store(1, 1), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.flush();
        bm.fetch(pid(0, 0)).unwrap();
        assert_eq!(bm.stats().misses, 2);
    }

    #[test]
    fn all_policies_respect_capacity_under_random_workload() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for kind in PolicyKind::ALL {
            let mut bm = BufferManager::new(store(4, 8), 5, kind).unwrap();
            let mut rng = SmallRng::seed_from_u64(42);
            for _ in 0..500 {
                let t = rng.gen_range(0..4);
                let p = rng.gen_range(0..8);
                bm.fetch(pid(t, p)).unwrap();
                assert!(bm.len() <= 5, "{kind} overflowed the pool");
            }
            let s = bm.stats();
            assert_eq!(s.requests, 500);
            assert_eq!(s.hits + s.misses, 500);
            assert_eq!(
                s.misses,
                bm.store().stats().reads,
                "{kind} miss/disk mismatch"
            );
            // b_t counters must sum to pool occupancy.
            let total: u32 = (0..4).map(|t| bm.resident_pages(TermId(t))).sum();
            assert_eq!(total as usize, bm.len(), "{kind} b_t drift");
        }
    }

    /// A store that fails every read after the first `allow` fetches —
    /// exercises the error path through the pool.
    #[derive(Debug)]
    struct FailingStore {
        inner: DiskSim,
        allow: std::cell::Cell<u32>,
    }

    impl PageStore for FailingStore {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            if self.allow.get() == 0 {
                return Err(IrError::CorruptPage {
                    page: id,
                    reason: "injected failure".into(),
                });
            }
            self.allow.set(self.allow.get() - 1);
            self.inner.read_page(id)
        }
    }

    #[test]
    fn store_errors_propagate_without_corrupting_the_pool() {
        let failing = FailingStore {
            inner: store(1, 4),
            allow: std::cell::Cell::new(2),
        };
        let mut bm = BufferManager::new(failing, 4, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.fetch(pid(0, 1)).unwrap();
        // Third read fails; the pool must stay consistent.
        let err = bm.fetch(pid(0, 2)).unwrap_err();
        assert!(matches!(err, IrError::CorruptPage { .. }));
        assert_eq!(bm.len(), 2, "failed read must not occupy a frame");
        assert_eq!(
            bm.resident_pages(TermId(0)),
            2,
            "b_t must not drift on failure"
        );
        let s = bm.stats();
        assert_eq!(s.misses, 2, "a failed read is not a completed miss");
        // The resident pages are still served from the pool.
        bm.fetch(pid(0, 0)).unwrap();
        assert_eq!(bm.stats().hits, 1);
    }

    #[test]
    fn failed_read_keeps_victim_resident() {
        // Capacity 1: the replacement is read BEFORE any eviction, so
        // a failed read leaves the victim frame untouched — the old
        // evict-then-read order emptied the pool for nothing.
        let failing = FailingStore {
            inner: store(1, 3),
            allow: std::cell::Cell::new(1),
        };
        let mut bm = BufferManager::new(failing, 1, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        assert!(bm.fetch(pid(0, 1)).is_err());
        assert_eq!(bm.len(), 1, "victim must survive a failed replacement read");
        assert!(bm.is_resident(pid(0, 0)));
        assert_eq!(bm.resident_pages(TermId(0)), 1);
        assert_eq!(
            bm.stats().evictions,
            0,
            "no eviction for a page that never arrived"
        );
        // The survivor still serves hits.
        bm.fetch(pid(0, 0)).unwrap();
        assert_eq!(bm.stats().hits, 1);
    }

    #[test]
    fn fetch_traced_labels_hits_and_misses() {
        let mut bm = BufferManager::new(store(1, 3), 2, PolicyKind::Lru).unwrap();
        let (_, first) = bm.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(first, FetchOutcome::Miss);
        let (_, second) = bm.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(second, FetchOutcome::Hit);
        // Outcome counting reproduces the pool counters exactly.
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 2,
            transient_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(1, 4), cfg);
        let mut bm = BufferManager::new(faulty, 2, PolicyKind::Lru).unwrap();
        // Budget of 1 retry < 2 consecutive faults: the fetch fails
        // and the give-up is counted.
        bm.set_fetch_policy(FetchPolicy::retries(1));
        let err = bm.fetch(pid(0, 0)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(bm.metrics().retries.get(), 1);
        assert_eq!(bm.metrics().gave_up.get(), 1);
        assert_eq!(bm.len(), 0, "failed fetch must not occupy a frame");
        // Budget of 2 covers the cap: a fresh page (fresh consecutive
        // count) faults twice, then the capped third attempt delivers.
        bm.set_fetch_policy(FetchPolicy::retries(2));
        let (_, outcome) = bm.fetch_traced(pid(0, 1)).unwrap();
        assert_eq!(outcome, FetchOutcome::Miss);
        assert_eq!(bm.metrics().retries.get(), 3, "two more retries spent");
        assert_eq!(bm.metrics().gave_up.get(), 1);
        assert!(bm.is_resident(pid(0, 1)));
        let s = bm.stats();
        assert_eq!(
            (s.requests, s.hits, s.misses),
            (2, 0, 1),
            "only the delivered read is a completed miss"
        );
    }

    #[test]
    fn torn_pages_never_enter_a_frame() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 9,
            torn_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(1, 2), cfg);
        let mut bm = BufferManager::new(faulty, 2, PolicyKind::Lru).unwrap();
        // No retries: the torn delivery is detected and rejected.
        let err = bm.fetch(pid(0, 0)).unwrap_err();
        assert!(matches!(err, IrError::TornPage { .. }));
        assert_eq!(bm.metrics().torn_pages.get(), 1);
        assert_eq!(bm.len(), 0);
        // With one retry the clean re-read lands, and the resident
        // copy verifies.
        bm.set_fetch_policy(FetchPolicy::retries(1));
        let page = bm.fetch(pid(0, 0)).unwrap();
        assert!(page.is_intact());
        assert!(bm.peek(pid(0, 0)).unwrap().is_intact());
        assert_eq!(bm.metrics().torn_pages.get(), 2);
        assert_eq!(bm.metrics().retries.get(), 1);
    }

    #[test]
    fn retry_events_flow_to_the_observer() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 4,
            transient_rate: 0.5,
            torn_rate: 0.3,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(2, 4), cfg);
        let mut bm = BufferManager::new(faulty, 3, PolicyKind::Lru).unwrap();
        bm.set_fetch_policy(FetchPolicy::retries(4));
        let log = SharedLog::default();
        bm.set_observer(Box::new(log.clone()));
        for t in 0..2 {
            for p in 0..4 {
                bm.fetch(pid(t, p)).unwrap();
            }
        }
        let events = log.0.lock().unwrap();
        let count = |f: fn(&BufferEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        let retries = count(|e| matches!(e, BufferEvent::Retry(_)));
        assert_eq!(retries, bm.metrics().retries.get());
        let torn = count(|e| matches!(e, BufferEvent::Torn(_)));
        assert_eq!(torn, bm.metrics().torn_pages.get());
        assert!(retries > 0, "this seed must exercise the retry path");
    }

    #[test]
    fn fetch_batch_preserves_flooding_read_counts() {
        // Capacity 4, plan [p0..p3, p0..p3] under LRU: sequential
        // fetches give 8 misses on the first pass... no — capacity 4
        // holds all four, so pass two is 4 hits. The interesting case
        // is capacity 3: LRU floods, every fetch of the cycle misses.
        // A batch that resolved hits up front would wrongly serve the
        // second pass from frames that sequential execution has already
        // evicted.
        let mut seq = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let mut plan = ReadPlan::new();
        for pass in 0..2 {
            let _ = pass;
            for p in 0..4 {
                plan.push(PlanEntry::new(pid(0, p)));
            }
        }
        for entry in plan.iter() {
            seq.fetch(entry.page).unwrap();
        }
        let mut batched = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let out = batched.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Miss));
        assert_eq!(batched.stats(), seq.stats());
        assert_eq!(
            batched.store().stats().reads,
            seq.store().stats().reads,
            "batched reads must equal sequential reads under flooding"
        );
        assert_eq!(batched.resident_ids(), seq.resident_ids());
        assert_eq!(batched.metrics().batches.get(), 1);
        assert_eq!(batched.metrics().batch_pages.sum(), 8);
    }

    #[test]
    fn fetch_batch_duplicate_page_counts_one_load_one_hit() {
        let mut bm = BufferManager::new(store(1, 4), 4, PolicyKind::Lru).unwrap();
        let plan: ReadPlan = [pid(0, 0), pid(0, 0)]
            .into_iter()
            .map(PlanEntry::new)
            .collect();
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out[0].1, FetchOutcome::Miss);
        assert_eq!(out[1].1, FetchOutcome::Hit);
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
        assert_eq!(bm.store().stats().reads, 1, "one load, not two");
    }

    #[test]
    fn fetch_batch_reads_a_cold_scan_sequentially() {
        // A cold scan reaches the store front to back, so it is
        // classified fully sequential after the first page.
        let mut bm = BufferManager::new(store(1, 6), 8, PolicyKind::Lru).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 6);
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 6);
        let ds = bm.store().stats();
        assert_eq!(ds.reads, 6);
        assert_eq!(ds.sequential_reads, 5);
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (6, 0, 6));
        // Rescan: all hits, no store traffic.
        let out = bm.fetch_batch(&plan).unwrap();
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Hit));
        assert_eq!(bm.store().stats().reads, 6);
        assert_eq!(bm.metrics().batches.get(), 2);
    }

    #[test]
    fn fetch_batch_error_preserves_prefix() {
        let failing = FailingStore {
            inner: store(1, 4),
            allow: std::cell::Cell::new(2),
        };
        let mut bm = BufferManager::new(failing, 4, PolicyKind::Lru).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 4);
        let err = bm.fetch_batch(&plan).unwrap_err();
        assert!(matches!(err, IrError::CorruptPage { .. }));
        // The two delivered pages keep their frames and counters, the
        // failed and unattempted entries leave no trace — identical to
        // the sequential outcome.
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.resident_pages(TermId(0)), 2);
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (3, 0, 2));
    }

    #[test]
    fn fetch_batch_retries_transient_faults_mid_run() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 2,
            transient_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        // Transient-only faults (can_tear() is false): every entry must
        // recover in place, mid-plan.
        let faulty = FaultStore::new(store(1, 4), cfg);
        assert!(!faulty.can_tear());
        let mut bm = BufferManager::new(faulty, 8, PolicyKind::Lru).unwrap();
        bm.set_fetch_policy(FetchPolicy::retries(2));
        let plan = ReadPlan::for_term_pages(TermId(0), 4);
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Miss));
        assert!(bm.metrics().retries.get() > 0, "seed must exercise retries");
        assert_eq!(bm.metrics().gave_up.get(), 0);
        // Sequential reference run over a store with identical fault
        // schedule: metrics must match exactly.
        let reference = FaultStore::new(store(1, 4), cfg);
        let mut seq = BufferManager::new(reference, 8, PolicyKind::Lru).unwrap();
        seq.set_fetch_policy(FetchPolicy::retries(2));
        for p in 0..4 {
            seq.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.metrics().retries.get(), seq.metrics().retries.get());
        assert_eq!(bm.stats(), seq.stats());
    }

    #[test]
    fn fetch_batch_on_tearing_store_delivers_only_intact_pages() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 9,
            torn_rate: 0.4,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(1, 4), cfg);
        assert!(faulty.can_tear());
        let mut bm = BufferManager::new(faulty, 8, PolicyKind::Lru).unwrap();
        bm.set_fetch_policy(FetchPolicy::retries(2));
        let plan = ReadPlan::for_term_pages(TermId(0), 4);
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|(p, _)| p.is_intact()),
            "no torn page may reach the caller"
        );
        // Identical to the sequential run under the same schedule.
        let mut seq =
            BufferManager::new(FaultStore::new(store(1, 4), cfg), 8, PolicyKind::Lru).unwrap();
        seq.set_fetch_policy(FetchPolicy::retries(2));
        for p in 0..4 {
            seq.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(
            bm.metrics().torn_pages.get(),
            seq.metrics().torn_pages.get()
        );
        assert_eq!(bm.stats(), seq.stats());
    }

    #[test]
    fn fetch_batch_empty_plan_is_a_noop() {
        let mut bm = BufferManager::new(store(1, 1), 1, PolicyKind::Lru).unwrap();
        let out = bm.fetch_batch(&ReadPlan::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(bm.stats(), BufferStats::default());
        assert_eq!(bm.metrics().batches.get(), 1);
        assert_eq!(bm.metrics().batch_pages.count(), 1);
    }

    #[test]
    fn staged_plan_matches_an_unstaged_one_under_flooding() {
        use crate::disk::tests::{StagingProbe, StoreCall};
        // Flooding workload, the hard case: capacity 3, two passes over
        // 4 pages, page 1 resident beforehand. Staging must change
        // nothing the pool or the device can observe, and the store
        // must see the plan's distinct non-resident pages once, in plan
        // order, ahead of every demand read — dropping that call would
        // silently turn a queue-depth-4 device into a serial one.
        let mut plan = ReadPlan::new();
        for _ in 0..2 {
            for p in 0..4 {
                plan.push(PlanEntry::new(pid(0, p)));
            }
        }
        let mut plain = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let mut staged =
            BufferManager::new(StagingProbe::new(store(1, 4)), 3, PolicyKind::Lru).unwrap();
        let (plain_log, staged_log) = (SharedLog::default(), SharedLog::default());
        plain.set_observer(Box::new(plain_log.clone()));
        staged.set_observer(Box::new(staged_log.clone()));
        plain.fetch(pid(0, 1)).unwrap();
        staged.fetch(pid(0, 1)).unwrap();
        let warmup_calls = staged.store().calls().len();

        let expected = plain.fetch_batch(&plan).unwrap();
        let served = staged.fetch_batch(&plan).unwrap();
        assert_eq!(
            served.iter().map(|(_, how)| *how).collect::<Vec<_>>(),
            expected.iter().map(|(_, how)| *how).collect::<Vec<_>>()
        );
        assert_eq!(*staged_log.0.lock().unwrap(), *plain_log.0.lock().unwrap());
        assert_eq!(staged.stats(), plain.stats());
        assert_eq!(staged.store().inner.stats(), plain.store().stats());
        assert_eq!(staged.resident_ids(), plain.resident_ids());
        assert_eq!(
            staged.metrics().batches.get(),
            plain.metrics().batches.get()
        );

        let calls = staged.store().calls();
        assert_eq!(
            calls[warmup_calls],
            StoreCall::Submit(vec![pid(0, 0), pid(0, 2), pid(0, 3)]),
            "the plan's distinct non-resident pages, in plan order, before any demand read"
        );
        assert!(
            calls[warmup_calls + 1..]
                .iter()
                .all(|c| matches!(c, StoreCall::Read(_))),
            "one submit per plan"
        );
    }

    #[test]
    fn hits_never_touch_disk() {
        for kind in PolicyKind::ALL {
            let mut bm = BufferManager::new(store(1, 2), 4, kind).unwrap();
            bm.fetch(pid(0, 0)).unwrap();
            let before = bm.store().stats().reads;
            for _ in 0..10 {
                bm.fetch(pid(0, 0)).unwrap();
            }
            assert_eq!(bm.store().stats().reads, before, "{kind}");
        }
    }
}
