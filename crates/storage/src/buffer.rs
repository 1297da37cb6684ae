//! The buffer manager: a fixed pool of page frames in front of a
//! [`PageStore`], with the paper's two IR-specific extensions —
//! per-term resident counts (`b_t`) and query-context announcements.

use crate::disk::PageStore;
use crate::observe::{BufferEvent, BufferObserver};
use crate::page::Page;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::query_buffer::{QueryBuffer, QueryBufferExt};
use crate::stats::{BufferMetrics, BufferStats};
use ir_types::{IdMap, IdSet, IrError, IrResult, PageId, PlanEntry, ReadPlan, TermId};
use parking_lot::RwLock;
use std::sync::Arc;

/// The resident-frame table behind a read-write lock, cloneable so a
/// lock-striped wrapper ([`ShardedBufferPool`](crate::ShardedBufferPool))
/// can serve buffer hits under a shared read lock without entering the
/// manager's exclusive critical section. Every mutation goes through
/// `&mut BufferManager` methods, so in single-owner use the lock is
/// always uncontended and the manager behaves exactly as it did when
/// the map was a plain field.
pub(crate) type FrameView = Arc<RwLock<IdMap<PageId, Page>>>;

/// Shared handle to the manager's per-term resident-page counters
/// (`b_t`), the [`FrameView`] pattern applied to BAF's term-selection
/// reads. The counters change only on load/evict/flush — never on a
/// hit — so readers holding only the `RwLock` see exactly the values a
/// locked [`resident_pages`](BufferManager::resident_pages) call would
/// return, and the sharded pool's term selector never has to queue
/// behind a shard serving disk reads.
pub(crate) type TermView = Arc<RwLock<IdMap<TermId, u32>>>;

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

/// Delivers `event` to the observer, if one is attached. A free
/// function over the field so it can run while the frame-table guards
/// borrow the manager's other fields.
#[inline]
fn emit(observer: &mut Option<Box<dyn BufferObserver>>, event: BufferEvent) {
    if let Some(obs) = observer.as_mut() {
        obs.event(event);
    }
}

/// The hit run — the one hit path of both pools. Serves the maximal
/// resident run of leading `entries` under *one* read lock of `frames`,
/// cloning each page straight into `out`, adds `requests` / `hits` once
/// for the run, and returns its length. What a hit owes its consumers
/// (the policy's `on_hit`, the observer's `Hit` event) is the caller's
/// business, in serve order over `out`'s new tail: the reference pool
/// pays it on the spot, the sharded pool queues it — each only when
/// [`BufferManager::consumes_hits`].
pub(crate) fn serve_hit_run(
    frames: &FrameView,
    metrics: &BufferMetrics,
    entries: &[PlanEntry],
    out: &mut Vec<(Page, FetchOutcome)>,
) -> usize {
    let start = out.len();
    {
        let frames = frames.read();
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

/// A buffer pool of `capacity` page frames over a page store.
///
/// ```
/// use ir_storage::{BufferManager, DiskSim, Page, PolicyKind};
/// use ir_types::{PageId, Posting, TermId};
///
/// // One term with two pages, pool of one frame.
/// let pages = vec![vec![
///     Page::new(PageId::new(TermId(0), 0), vec![Posting::new(0, 3)].into(), 1.0),
///     Page::new(PageId::new(TermId(0), 1), vec![Posting::new(1, 1)].into(), 1.0),
/// ]];
/// let mut pool = BufferManager::new(DiskSim::new(pages), 1, PolicyKind::Lru)?;
/// pool.fetch(PageId::new(TermId(0), 0))?; // miss
/// pool.fetch(PageId::new(TermId(0), 0))?; // hit
/// pool.fetch(PageId::new(TermId(0), 1))?; // miss, evicts page 0
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(pool.stats().misses, 2);
/// assert_eq!(pool.resident_pages(TermId(0)), 1); // the b_t counter
/// # Ok::<(), ir_types::IrError>(())
/// ```
///
/// # No pins
///
/// Pages returned by [`fetch`](BufferManager::fetch) are `Arc`-backed
/// and stay valid regardless of eviction, so a caller never has to hold
/// a frame in place while it reads one: every resident page is
/// evictable. In particular RAP may evict not-yet-scanned pages of the
/// active list (the paper's §5.2.1 observation) — nothing protects
/// them.
///
/// # `b_t` counters
///
/// [`resident_pages`](BufferManager::resident_pages) answers "how many
/// pages of the inverted list for term `t` are in buffers" in O(1),
/// maintained on every load/evict — the implementation §3.2.2 calls for
/// ("a hash-table or an array of counters, which are updated whenever a
/// page is moved in or out of buffers").
#[derive(Debug)]
pub struct BufferManager<S: PageStore> {
    store: S,
    capacity: usize,
    frames: FrameView,
    policy: Box<dyn ReplacementPolicy>,
    policy_kind: PolicyKind,
    resident_per_term: TermView,
    fetch_policy: FetchPolicy,
    metrics: BufferMetrics,
    observer: Option<Box<dyn BufferObserver>>,
}

impl<S: PageStore> BufferManager<S> {
    /// Creates a pool of `capacity` frames with the given policy.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] if `capacity` is zero.
    pub fn new(store: S, capacity: usize, policy: PolicyKind) -> IrResult<Self> {
        if capacity == 0 {
            return Err(IrError::EmptyBufferPool);
        }
        BufferManager::with_policy(store, capacity, policy.build(capacity), policy)
    }

    /// Creates a pool around an explicit policy instance — the way to
    /// run a custom expert panel
    /// ([`ExpertMixturePolicy::with_panel`](crate::policy::ExpertMixturePolicy::with_panel))
    /// or any out-of-tree [`ReplacementPolicy`]. `kind` is the label
    /// reports attribute the pool to.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] if `capacity` is zero.
    pub fn with_policy(
        store: S,
        capacity: usize,
        mut policy: Box<dyn ReplacementPolicy>,
        kind: PolicyKind,
    ) -> IrResult<Self> {
        if capacity == 0 {
            return Err(IrError::EmptyBufferPool);
        }
        let metrics = BufferMetrics::new();
        // Adaptive policies register their `adaptive.*` counters in the
        // pool's registry; classic policies ignore the offer, leaving
        // the metric namespace untouched.
        policy.attach_metrics(metrics.registry());
        Ok(BufferManager {
            store,
            capacity,
            frames: Arc::new(RwLock::new(IdMap::with_capacity_and_hasher(
                capacity,
                Default::default(),
            ))),
            policy,
            policy_kind: kind,
            resident_per_term: Arc::default(),
            fetch_policy: FetchPolicy::NO_RETRY,
            metrics,
            observer: None,
        })
    }

    /// Fetches a page through the pool, counting a hit or a disk read.
    pub fn fetch(&mut self, id: PageId) -> IrResult<Page> {
        QueryBufferExt::fetch(self, id)
    }

    /// [`fetch`](Self::fetch), also reporting how the request was
    /// served — the per-call attribution concurrent sessions need.
    /// A single fetch is a one-entry [`ReadPlan`].
    pub fn fetch_traced(&mut self, id: PageId) -> IrResult<(Page, FetchOutcome)> {
        QueryBufferExt::fetch_traced(self, id)
    }

    /// The miss half of the single-fetch protocol, and the only miss
    /// path: counts the request, reads the page under the pool's
    /// [`FetchPolicy`] and installs it, handing the entry's value hint
    /// to admission. The caller has just seen the page non-resident
    /// (the hit run stopped at it) and holds `&mut self`, so it still
    /// is.
    fn load_one(&mut self, entry: PlanEntry) -> IrResult<Page> {
        self.metrics.requests.inc();
        // Read the replacement first, then make room. A failed read
        // therefore leaves the pool exactly as it was — the old
        // evict-then-read order destroyed a victim frame for a page
        // that never arrived.
        let page = self.read_with_retry(entry.page)?;
        self.install(page.clone(), entry.value_hint);
        Ok(page)
    }

    /// A cloneable handle to the resident-frame table, for wrappers
    /// that serve hits under a shared read lock.
    pub(crate) fn frame_view(&self) -> FrameView {
        Arc::clone(&self.frames)
    }

    /// A cloneable handle to the `b_t` counters, for wrappers that
    /// answer resident-page inquiries without the manager's lock.
    pub(crate) fn term_view(&self) -> TermView {
        Arc::clone(&self.resident_per_term)
    }

    /// Whether the replacement policy reacts to
    /// [`begin_query`](Self::begin_query) at all (only RAP does).
    /// Wrappers use this to skip the announcement — and the locking it
    /// costs — for context-oblivious policies.
    pub fn uses_query_context(&self) -> bool {
        self.policy.uses_query_context()
    }

    /// Whether a buffer hit has a consumer on this pool: a policy that
    /// [uses hits](ReplacementPolicy::uses_hits), or an attached
    /// observer. When neither, a hit is a page handed out and two
    /// counter adds — the hit run calls nobody, and a lock-light
    /// wrapper queues nothing.
    pub fn consumes_hits(&self) -> bool {
        self.policy.uses_hits() || self.observer.is_some()
    }

    /// Applies a buffer hit that a lock-light wrapper already served
    /// and counted, and queued because the pool
    /// [consumes hits](Self::consumes_hits): the replacement policy
    /// sees the hit and the observer sees the event, in the order the
    /// wrapper recorded them. The request/hit counters were
    /// incremented at serve time (the handles are atomic), so only the
    /// deferred effects run here. If the page was evicted between
    /// serve and replay the policy update is moot and is skipped; the
    /// event still fires because the request *was* served from a
    /// resident frame.
    pub(crate) fn apply_deferred_hit(&mut self, id: PageId) {
        let page = self.frames.read().get(&id).cloned();
        if let Some(page) = page {
            self.policy.on_hit(&page);
        }
        self.notify(BufferEvent::Hit(id));
    }

    /// Executes a [`ReadPlan`]: every entry is served — hit, store
    /// read, or error — **in plan order**, so the pool's
    /// hit/miss/eviction sequence (and therefore every counter and the
    /// store's own read accounting) is that of fetching the plan's
    /// pages one at a time. What a plan adds:
    ///
    /// * consecutive resident entries are one *hit run*: one read lock
    ///   of the frame table and one add to `requests` / `hits` for the
    ///   run, and a call per page only where the policy or an observer
    ///   [consumes hits](Self::consumes_hits);
    /// * a store that overlaps reads is handed the plan's non-resident
    ///   pages in one [`PageStore::submit`] at the first miss, before
    ///   the first demand read — a fully resident plan submits nothing;
    /// * each entry's `value_hint` reaches the replacement policy at
    ///   admission ([`ReplacementPolicy::on_insert_hinted`]), so a
    ///   hint-aware policy values the page *before* any later eviction
    ///   decision;
    /// * a duplicated page id costs one load and one hit — the second
    ///   occurrence finds the first's frame resident.
    ///
    /// Errors abort the remainder of the plan; entries already served
    /// keep their effects, exactly as sequential fetches would.
    pub fn fetch_batch(&mut self, plan: &ReadPlan) -> IrResult<Vec<(Page, FetchOutcome)>> {
        QueryBufferExt::fetch_batch(self, plan)
    }

    /// Executes `entries` from index `start` onward, **appending** to
    /// `out`, and records the batch metrics for *all* of `entries`. For
    /// lock-light wrappers that already served `entries[..start]` as
    /// resident hits (with eager counters and deferred policy effects
    /// replayed before this call): the combined accounting — counters,
    /// events, store reads, batch histogram — is exactly what
    /// [`fetch_batch`](Self::fetch_batch) would have produced for the
    /// whole slice, because the wrapper's prefix is precisely the hits
    /// this method would have served first.
    pub(crate) fn fetch_batch_tail(
        &mut self,
        entries: &[PlanEntry],
        start: usize,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        self.metrics.batches.inc();
        self.metrics.batch_pages.record(entries.len() as u64);
        self.fetch_entries(&entries[start..], out)
    }

    /// The batch execution loop over a slice of plan entries,
    /// appending to `out`: alternately the [hit run](serve_hit_run) of
    /// what is left — one read lock and one `requests` / `hits` add for
    /// the whole run, then each served page handed to the hit's
    /// consumers in serve order, before anything else happens — and
    /// the one entry the run stopped at through [`load_one`]
    /// (Self::load_one), until the plan is done. Event for event,
    /// counter for counter and store read for store read the
    /// single-fetch protocol applied entry by entry (which this
    /// module's tests keep as the oracle). Batch-level metrics are the
    /// caller's responsibility.
    fn fetch_entries(
        &mut self,
        entries: &[PlanEntry],
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        out.reserve(entries.len());
        let mut rest = entries;
        loop {
            let served = serve_hit_run(&self.frames, &self.metrics, rest, out);
            if served > 0 && self.consumes_hits() {
                for (page, _) in &out[out.len() - served..] {
                    self.policy.on_hit(page);
                    emit(&mut self.observer, BufferEvent::Hit(page.id()));
                }
            }
            let Some(&entry) = rest.get(served) else {
                return Ok(());
            };
            // `rest` is cut only after a miss, so it is still the
            // whole slice exactly at the plan's first one.
            if rest.len() == entries.len() {
                self.stage(&rest[served..]);
            }
            out.push((self.load_one(entry)?, FetchOutcome::Miss));
            rest = &rest[served + 1..];
        }
    }

    /// Staging, at a plan's first miss: a store that can keep several
    /// reads in flight gets the distinct non-resident pages of
    /// `entries` — the plan from its first miss on — in plan order,
    /// before the first demand read, so the transfers queue on its
    /// channels instead of each waiting for the previous demand to
    /// return. The demand reads then claim the staged completions.
    /// Everything before the first miss was resident and would have
    /// been filtered out, so this is what staging the whole plan up
    /// front submitted — and a fully resident plan allocates and
    /// submits nothing.
    fn stage(&self, entries: &[PlanEntry]) {
        if self.store.overlap_depth() <= 1 {
            return;
        }
        let mut seen: IdSet<PageId> =
            IdSet::with_capacity_and_hasher(entries.len(), Default::default());
        let staged: Vec<PageId> = {
            let frames = self.frames.read();
            entries
                .iter()
                .map(|e| e.page)
                .filter(|id| seen.insert(*id) && !frames.contains_key(id))
                .collect()
        };
        self.store.submit(&staged);
    }

    /// One store read, rejecting torn deliveries: a page whose content
    /// fails checksum verification never reaches a frame. Verification
    /// re-hashes the whole page, so it only runs when the store can
    /// actually tear ([`PageStore::can_tear`]) — a clean store's reads
    /// stay checksum-free.
    fn read_verified(&mut self, id: PageId) -> IrResult<Page> {
        let page = self.store.read_page(id)?;
        if self.store.can_tear() && !page.is_intact() {
            self.metrics.torn_pages.inc();
            self.notify(BufferEvent::Torn(id));
            return Err(IrError::TornPage { page: id });
        }
        Ok(page)
    }

    /// Reads `id` under the pool's [`FetchPolicy`]: transient failures
    /// ([`IrError::is_transient`]) are retried up to `max_retries`
    /// times; terminal errors and exhausted budgets propagate.
    fn read_with_retry(&mut self, id: PageId) -> IrResult<Page> {
        let mut attempt = 0u32;
        loop {
            let err = match self.read_verified(id) {
                Ok(page) => return Ok(page),
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
            self.notify(BufferEvent::Retry(id));
        }
    }

    /// Makes room for a freshly read, non-resident page and puts it in
    /// a frame, wiring up the counters, policy and observer and handing
    /// the read-plan value hint to the policy at admission.
    ///
    /// The frame table's and the `b_t` table's write locks are taken
    /// once each, here — after the store read has returned, never
    /// across it (a read may sleep, and a sharded pool's lock-light
    /// readers share these locks) — and cover the evictions and the
    /// install together.
    fn install(&mut self, page: Page, hint: Option<f64>) {
        let mut frames = self.frames.write();
        let mut terms = self.resident_per_term.write();
        while frames.len() >= self.capacity {
            let victim = self
                .policy
                .choose_victim()
                .expect("a full pool of at least one frame tracks a victim");
            let evicted = frames.remove(&victim);
            debug_assert!(evicted.is_some(), "policy returned a non-resident victim");
            if victim.page.0 == 0 {
                self.metrics.evictions_head.inc();
            } else {
                self.metrics.evictions_tail.inc();
            }
            emit(&mut self.observer, BufferEvent::Evict(victim));
            if let Some(count) = terms.get_mut(&victim.term) {
                *count -= 1;
                if *count == 0 {
                    terms.remove(&victim.term);
                }
            }
        }
        let id = page.id();
        *terms.entry(id.term).or_insert(0) += 1;
        self.policy.on_insert_hinted(&page, hint);
        frames.insert(id, page);
        self.metrics.loads.inc();
        emit(&mut self.observer, BufferEvent::Load(id));
    }

    #[inline]
    fn notify(&mut self, event: BufferEvent) {
        emit(&mut self.observer, event);
    }

    /// `b_t`: number of pages of `term`'s inverted list currently in
    /// the pool. O(1).
    #[inline]
    pub fn resident_pages(&self, term: TermId) -> u32 {
        self.resident_per_term
            .read()
            .get(&term)
            .copied()
            .unwrap_or(0)
    }

    /// Is a specific page resident?
    #[inline]
    pub fn is_resident(&self, id: PageId) -> bool {
        self.frames.read().contains_key(&id)
    }

    /// Returns the resident page without touching statistics, the
    /// replacement policy, or the observer — a side-effect-free read
    /// for diagnostics.
    #[inline]
    pub fn peek(&self, id: PageId) -> Option<Page> {
        self.frames.read().get(&id).cloned()
    }

    /// Every resident page id, sorted — the pool's frame contents as a
    /// comparable value (chaos and property tests diff two pools with
    /// it).
    pub fn resident_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.frames.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Sets the retry policy applied to store reads on the miss path.
    pub fn set_fetch_policy(&mut self, policy: FetchPolicy) {
        self.fetch_policy = policy;
    }

    /// The retry policy applied to store reads.
    pub fn fetch_policy(&self) -> FetchPolicy {
        self.fetch_policy
    }

    /// Announces the term weights `w_{q,t}` of the query about to be
    /// evaluated. RAP re-values the resident pages of terms whose weight
    /// changed; other policies ignore it. A single-owner pool has one
    /// session: announcer 0.
    pub fn begin_query(&mut self, weights: &IdMap<TermId, f64>) {
        self.begin_query_as(0, weights);
    }

    /// [`begin_query`](Self::begin_query) on behalf of `announcer` —
    /// how a pool shared through several handles keeps each handle's
    /// query apart from the others'.
    pub(crate) fn begin_query_as(&mut self, announcer: u32, weights: &IdMap<TermId, f64>) {
        self.policy.begin_query(announcer, weights);
    }

    /// Empties the pool (the paper flushes buffers between refinement
    /// *sequences*, never between refinements). Statistics survive;
    /// use [`reset_stats`](Self::reset_stats) to zero them.
    pub fn flush(&mut self) {
        self.frames.write().clear();
        self.resident_per_term.write().clear();
        self.policy.clear();
        self.notify(BufferEvent::Flush);
    }

    /// Attaches an event observer (replacing any previous one).
    pub fn set_observer(&mut self, observer: Box<dyn BufferObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn BufferObserver>> {
        self.observer.take()
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.metrics.reset();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BufferStats {
        self.metrics.snapshot()
    }

    /// The pool's live `ir-observe` counter handles — finer-grained
    /// than [`stats`](Self::stats) (head/tail evictions, retries, torn
    /// deliveries) and shareable across threads.
    pub fn metrics(&self) -> &BufferMetrics {
        &self.metrics
    }

    /// Number of frames in use.
    pub fn len(&self) -> usize {
        self.frames.read().len()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.frames.read().is_empty()
    }

    /// Pool capacity in pages (`BufferSize` in Table 3).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured replacement policy.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy_kind
    }

    /// The underlying page store.
    pub fn store(&self) -> &S {
        &self.store
    }
}

/// The reference implementation of the fetch protocol: the sharded
/// pool runs one of these per shard and is compared against it.
impl<S: PageStore> QueryBuffer for BufferManager<S> {
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        out.clear();
        self.fetch_batch_tail(plan.entries(), 0, out)
    }

    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        let counters = self.resident_per_term.read();
        terms
            .iter()
            .map(|t| counters.get(t).copied().unwrap_or(0))
            .collect()
    }

    fn begin_query(&mut self, weights: &IdMap<TermId, f64>) {
        BufferManager::begin_query(self, weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::page::Page;
    use ir_types::Posting;

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
        use crate::observe::EventCounts;
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
        let counts = EventCounts::tally(&log.0.lock().unwrap());
        assert_eq!(counts.retries, bm.metrics().retries.get());
        assert_eq!(counts.torn, bm.metrics().torn_pages.get());
        assert!(counts.retries > 0, "this seed must exercise the retry path");
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
        let plan = ReadPlan::for_term_pages(TermId(0), 6, None);
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
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
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
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
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
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
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
    fn fetch_batch_hint_reaches_rap() {
        let mut bm = BufferManager::new(store(2, 3), 3, PolicyKind::Rap).unwrap();
        // No begin_query: only the hint values the pages. Term 0's two
        // pages are hinted (3·2 and 2·2), term 1's head is not (0).
        bm.fetch_batch(&ReadPlan::for_term_pages(TermId(0), 2, Some(2.0)))
            .unwrap();
        bm.fetch(pid(1, 0)).unwrap();
        // The next load evicts the unvalued page; had the hints been
        // dropped, all three would tie at 0 and the tail t0:p1 would go.
        bm.fetch(pid(1, 1)).unwrap();
        assert!(!bm.is_resident(pid(1, 0)));
        assert!(bm.is_resident(pid(0, 0)) && bm.is_resident(pid(0, 1)));
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

    /// The per-entry loop the hit run replaced, kept as its oracle:
    /// the staging block over the whole plan, then per entry a request
    /// add, a read-lock round trip, a probe, a clone and — for a hit —
    /// a hit add, an unconditional `on_hit` and the `Hit` event.
    impl<S: PageStore> BufferManager<S> {
        fn fetch_batch_per_entry(
            &mut self,
            plan: &ReadPlan,
            out: &mut Vec<(Page, FetchOutcome)>,
        ) -> IrResult<()> {
            out.clear();
            self.metrics.batches.inc();
            self.metrics.batch_pages.record(plan.len() as u64);
            if self.store.overlap_depth() > 1 {
                let mut seen: IdSet<PageId> = IdSet::default();
                let staged: Vec<PageId> = {
                    let frames = self.frames.read();
                    plan.iter()
                        .map(|e| e.page)
                        .filter(|id| seen.insert(*id) && !frames.contains_key(id))
                        .collect()
                };
                if !staged.is_empty() {
                    self.store.submit(&staged);
                }
            }
            for &entry in plan.iter() {
                self.metrics.requests.inc();
                let resident = self.frames.read().get(&entry.page).cloned();
                if let Some(page) = resident {
                    self.metrics.hits.inc();
                    self.policy.on_hit(&page);
                    self.notify(BufferEvent::Hit(entry.page));
                    out.push((page, FetchOutcome::Hit));
                    continue;
                }
                let page = self.read_with_retry(entry.page)?;
                self.install(page.clone(), entry.value_hint);
                out.push((page, FetchOutcome::Miss));
            }
            Ok(())
        }
    }

    /// One seeded case of the hit-run differential: twin pools over
    /// twin stores, one serving every plan through the run loop, the
    /// other through the per-entry oracle. Three terms of six pages, so
    /// plans are full of duplicates and hit / miss / hit interleavings;
    /// every so often a plan names a page past its list's end (`Err`
    /// mid-plan) or the query context changes. `view` is what the store
    /// saw. With `observed` both pools carry a log; without, the run
    /// loop of a policy that does not use hits calls nobody while the
    /// oracle still calls `on_hit`.
    fn run_hit_run_differential<S: PageStore, V: PartialEq + std::fmt::Debug>(
        seed: u64,
        kind: PolicyKind,
        capacity: usize,
        observed: bool,
        make_store: impl Fn() -> S,
        view: impl Fn(&S) -> V,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let what = format!("seed {seed}, {kind}, {capacity} frames, observed {observed}");
        let make = || {
            let mut bm = BufferManager::new(make_store(), capacity, kind).unwrap();
            bm.set_fetch_policy(FetchPolicy::retries(2));
            let log = SharedLog::default();
            if observed {
                bm.set_observer(Box::new(log.clone()));
            }
            (bm, log)
        };
        let ((mut run, run_log), (mut oracle, oracle_log)) = (make(), make());
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for step in 0..24 {
            if rng.gen_range(0..6) == 0 {
                let weights: IdMap<TermId, f64> = (0..3)
                    .map(|t| (TermId(t), f64::from(rng.gen_range(0..4u32))))
                    .filter(|(_, w)| *w > 0.0)
                    .collect();
                run.begin_query(&weights);
                oracle.begin_query(&weights);
            }
            let plan: ReadPlan = (0..rng.gen_range(0..10))
                .map(|_| {
                    // One entry in 40 is out of range.
                    let page = match rng.gen_range(0..40) {
                        0 => 6,
                        _ => rng.gen_range(0..6),
                    };
                    let id = pid(rng.gen_range(0..3), page);
                    match rng.gen_range(0..3) {
                        0 => PlanEntry::hinted(id, 1.5),
                        _ => PlanEntry::new(id),
                    }
                })
                .collect();
            let result = run.fetch_batch_into(&plan, &mut got);
            let expected = oracle.fetch_batch_per_entry(&plan, &mut want);
            assert_eq!(result, expected, "{what}, step {step}: result");
            let served = |out: &[(Page, FetchOutcome)]| -> Vec<(PageId, FetchOutcome)> {
                out.iter().map(|(page, how)| (page.id(), *how)).collect()
            };
            assert_eq!(served(&got), served(&want), "{what}, step {step}: out");
            assert_eq!(run.stats(), oracle.stats(), "{what}, step {step}: stats");
        }
        assert_eq!(
            *run_log.0.lock().unwrap(),
            *oracle_log.0.lock().unwrap(),
            "{what}: event logs"
        );
        assert_eq!(run.resident_ids(), oracle.resident_ids(), "{what}: frames");
        assert_eq!(
            run.metrics().dump().counters,
            oracle.metrics().dump().counters,
            "{what}: every buffer.* counter"
        );
        assert_eq!(view(run.store()), view(oracle.store()), "{what}: store");
    }

    /// The run loop against the per-entry oracle: all eight kinds,
    /// pools of 1 / 3 / 16 frames, with and without observers, over a
    /// clean store, a faulting one (retries, give-ups, torn pages) and
    /// one that overlaps (what is staged, and when). Planted and caught:
    /// consumers replayed after the following miss (seed 0, LRU, 1
    /// frame: the late `on_hit` re-tracks the page the miss evicted and
    /// `install` is handed a non-resident victim), `requests` added for
    /// the whole plan up front (seed 0, step 4: the plan that errs),
    /// a duplicate of a just-loaded page counted as a second load
    /// (seed 0, step 6), a run's `Hit` events without its `on_hit`
    /// calls (seed 0, ADAPTIVE: its shadows' counters), `uses_hits`
    /// wrongly `false` on LRU (seed 1, step 14, unobserved).
    #[test]
    fn hit_run_loop_matches_the_per_entry_oracle() {
        use crate::disk::tests::StagingProbe;
        use crate::fault::{FaultConfig, FaultStore};
        for seed in 0..48 {
            for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
                let capacity = [1, 3, 16][(seed % 3) as usize];
                let observed = seed % 2 == 0;
                run_hit_run_differential(
                    seed,
                    kind,
                    capacity,
                    observed,
                    || store(3, 6),
                    |s| s.stats(),
                );
                run_hit_run_differential(
                    seed,
                    kind,
                    capacity,
                    observed,
                    || FaultStore::new(store(3, 6), FaultConfig::chaos(seed)),
                    |s| (s.inner().stats(), s.stats()),
                );
                run_hit_run_differential(
                    seed,
                    kind,
                    capacity,
                    observed,
                    || StagingProbe::new(store(3, 6)),
                    |s| (s.inner.stats(), s.calls()),
                );
            }
        }
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
