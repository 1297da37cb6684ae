//! The buffer manager: a fixed pool of page frames in front of a
//! [`PageStore`], with the paper's two IR-specific extensions —
//! per-term resident counts (`b_t`) and query-context announcements —
//! striped over `P` shards so sessions on several cores can share it.
//!
//! [`BufferManager::new`] builds one shard: the paper's single pool.
//! [`BufferManager::sharded`] partitions the frames across `P` shards
//! (the LevelDB/RocksDB `ShardedCache` construction): each shard owns
//! its own frame table, `b_t` counters, replacement-policy instance and
//! [`Mutex`], so concurrent traffic on different shards never contends
//! and no global lock exists on the hot path. Every shard counts into
//! the pool's one [`BufferMetrics`].
//!
//! ## Locking protocol
//!
//! * **Term-chunk routing.** Pages route to shards by
//!   `(term, page / chunk_pages)`, so a prefix scan of up to
//!   `chunk_pages` pages — the common single-list [`ReadPlan`] — lands
//!   entirely on one shard and locks exactly one mutex. Only lists
//!   longer than a chunk subdivide, at chunk granularity. The map is a
//!   pure function of the [`PageId`] and the pool geometry; tests pin
//!   `chunk_pages = 1`, a per-page scatter, to force plans across
//!   shards.
//! * **Lock-light hit path.** On a shard whose policy ignores hits
//!   (RAP, FIFO) and that nobody observes, a run of buffer hits is
//!   served under the shard's frame-table *read* lock: the pages are
//!   cloned and the request/hit counters bump atomically once for the
//!   run. A hit there writes no state two sessions share beyond the
//!   lock's reader count, the counters and the pages' reference
//!   counts; only misses, evictions, announcements and observer
//!   changes take the exclusive mutex. A shard whose hits have a
//!   consumer serves them under its mutex, so the policy and the
//!   observer see each hit when it is served.
//! * **One lock at a time.** A plan
//!   ([`fetch_batch_into`](QueryBuffer::fetch_batch_into)) is walked
//!   once, in plan order, and cut into maximal runs of consecutive
//!   entries that route to one shard; each run locks its shard *only
//!   while it executes* (and not at all when it is fully resident and
//!   unconsumed) — at most one shard mutex is held at any moment, so a
//!   thread serving shard 0's disk reads never idles holding shard 3's
//!   lock, and deadlock is impossible by construction. Under a shard
//!   mutex the only other locks taken are that shard's frame and `b_t`
//!   tables, the other shards' frame tables for reading (staging), and
//!   a shared observer's mutex; none of them is held while waiting for
//!   a shard mutex.
//! * **Retry, then park.** A thread that finds a shard's mutex held
//!   retries it for a few tens of microseconds before it parks: holds
//!   are short, and sessions that park on every contended acquisition
//!   leave it to the scheduler whether they run side by side or take
//!   turns in long time slices, which changes how their queries
//!   interleave — and with it how many pages they read — from one run
//!   to the next (DESIGN.md §10).
//!
//! ## Semantics
//!
//! * **`P = 1` is the paper's pool.** One shard serves every plan
//!   entry by entry through the single-fetch protocol; the storage
//!   crate's identity tests check it, fetch for fetch, against a
//!   test-only reference pool with no hit runs, staging or locks, for
//!   every policy kind, with and without fault injection.
//! * **A handle is a session.** Every handle to the pool — the one a
//!   constructor returns, and each [`Clone`] of it — announces under
//!   its own id, and a query-aware policy (RAP) values a page by the
//!   highest weight any handle's *current* query gives its term: one
//!   session's [`begin_query`] replaces only that session's previous
//!   announcement and cannot zero the pages another session is still
//!   using. Dropping a handle retires its announcement. Handles that
//!   never announce — every handle of an LRU pool, a monitoring clone
//!   that only reads counters — cost nothing.
//! * **Striped replacement (deliberate deviation).** Each shard evicts
//!   its own local minimum, so a query-aware policy such as RAP keeps
//!   a *striped* value index rather than the paper's single global
//!   one: the globally least-valuable page survives whenever its shard
//!   has a colder page to give up. [`begin_query`] announcements fan
//!   out to every shard, so within a shard the ordering is exactly the
//!   paper's. DESIGN.md §10 discusses the approximation.
//! * **Strict plan order.** Entries are served in plan order whatever
//!   the shard count, so everything below the pool — the store's head
//!   position, a seeded fault stream — sees the plan's own sequence, a
//!   duplicate costs one load plus one hit, and an error leaves exactly
//!   the entries before it served and in `out`.
//!   [`BufferMetrics::batch_splits`] counts the plans that were cut at
//!   all.
//! * **Staging is the plan's.** Over a store that overlaps reads, the
//!   plan's first miss hands the store the plan's non-resident pages
//!   from there on, then its lookahead's prefixes, in one submit before
//!   the first demand read, whatever shards the pages route to. Each
//!   page's residency is asked of the shard that owns it, under that
//!   shard's frame-table read lock.
//!
//! [`begin_query`]: BufferManager::begin_query

use crate::buffer::{
    serve_hit_run, FetchOutcome, FetchPolicy, FrameView, ShardCore, SharedObserver,
};
use crate::disk::PageStore;
use crate::observe::{BufferEvent, BufferObserver};
use crate::page::Page;
use crate::policy::PolicyKind;
use crate::query_buffer::QueryBuffer;
use crate::stats::{BufferMetrics, BufferStats};
use ir_types::idmap::splitmix64;
use ir_types::{sync, IdMap, IdSet, IrError, IrResult, PageId, PlanEntry, ReadPlan, TermId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How long a contended shard lock is retried before the thread parks
/// on it. A hold is a run of misses or one re-valuation — mostly
/// shorter than being parked and woken — and every park hands the
/// scheduler a placement decision: two free-running sessions that
/// parked on each contended acquisition spent whole passes taking
/// turns in time slices of some 44 queries (stacked on one core, it
/// would seem) and others query by query, and their page reads per
/// query (18 against 36), latencies and throughput flipped with it
/// from run to run. Measured on the benchmark's two-session workload:
/// 5 µs did not stop that; 20 µs, 200 µs and 2 ms all did.
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(50);

/// What a plan stages at its first miss on a store that overlaps
/// reads: the distinct pages of `entries` (the plan from its first miss
/// on) that are not `resident`, in plan order, then, prefix by prefix
/// in the order given, the distinct non-resident pages of each
/// lookahead prefix `(term, n_pages)` — the lists the planner expects
/// to read next, queued on the device while this plan's own reads are
/// in flight instead of each starting its seek only when its own plan
/// runs. Deeper pages of a prefix are the ones a rising `S_max` may cut
/// before their plan runs: they are the staging's cost, device reads
/// nobody claims. The pool demands only the plan's own pages, so the
/// lookahead can change what the store reads and waits, never what the
/// pool loads or evicts.
fn staged_ids(
    entries: &[PlanEntry],
    lookahead: &[(TermId, u32)],
    resident: impl Fn(PageId) -> bool,
) -> Vec<PageId> {
    let ahead: usize = lookahead.iter().map(|&(_, n)| n as usize).sum();
    let mut seen: IdSet<PageId> =
        IdSet::with_capacity_and_hasher(entries.len() + ahead, Default::default());
    let mut staged: Vec<PageId> = entries
        .iter()
        .map(|e| e.page)
        .filter(|id| seen.insert(*id) && !resident(*id))
        .collect();
    for &(term, n_pages) in lookahead {
        staged.extend(
            (0..n_pages)
                .map(|p| PageId::new(term, p))
                .filter(|id| seen.insert(*id) && !resident(*id)),
        );
    }
    staged
}

/// One shard: its core behind the mutex, plus the handles the
/// lock-light paths use without that mutex — shared views of the
/// shard's resident-frame table and `b_t` counters, and whether
/// anything consumes a hit.
#[derive(Debug)]
struct Shard {
    core: Mutex<ShardCore>,
    /// The core's resident-frame table, readable without the mutex.
    frames: FrameView,
    /// The core's `b_t` counters, readable without the mutex (they
    /// change only on load/evict, which hold the mutex anyway).
    terms: Arc<RwLock<IdMap<TermId, u32>>>,
    /// The core's [`consumes_hits`](ShardCore::consumes_hits), cached
    /// where the lock-light path can read it; stored under the shard
    /// mutex whenever the answer can change (an observer attached or
    /// detached). While set, hits are served under the mutex.
    consumes_hits: AtomicBool,
}

impl Shard {
    fn new(core: ShardCore) -> Self {
        Shard {
            frames: Arc::clone(&core.frames),
            terms: Arc::clone(&core.resident_per_term),
            consumes_hits: AtomicBool::new(core.consumes_hits()),
            core: Mutex::new(core),
        }
    }
}

/// What every handle to one pool shares.
#[derive(Debug)]
struct Pool<S> {
    store: S,
    shards: Box<[Shard]>,
    /// Frames over all shards (the quotas never change).
    capacity: usize,
    /// Pages per routing chunk: `(term, page / chunk_pages)` picks the
    /// shard, so a list prefix of up to this many pages is owned by
    /// one shard.
    chunk_pages: u32,
    /// Whether the shards' policy reacts to `begin_query` (RAP). When
    /// `false`, query announcements skip all `P` shard locks.
    uses_query_context: bool,
    metrics: BufferMetrics,
    /// The observer every shard core holds a clone of. Its mutex
    /// serializes attaching and detaching, and is taken before any
    /// shard mutex.
    observer: Mutex<Option<SharedObserver>>,
    /// The announcer id the next clone takes.
    next_announcer: AtomicU32,
}

/// A buffer pool of `capacity` page frames over a page store, striped
/// across `P ≥ 1` shards by term-chunk hash, each shard behind its own
/// mutex. Cloning yields another handle to the same pool — another
/// *session*, announcing its queries under an id of its own — so N
/// session threads each hold a clone; dropping a handle retires what it
/// announced.
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
#[derive(Debug)]
pub struct BufferManager<S: PageStore> {
    pool: Arc<Pool<S>>,
    /// The id this handle announces under; no other handle has it.
    announcer: u32,
    /// Whether the shards hold a query context of this handle's.
    announced: bool,
}

impl<S: PageStore> Clone for BufferManager<S> {
    /// Another handle to the same pool, with an announcer id of its
    /// own and nothing announced yet.
    fn clone(&self) -> Self {
        BufferManager {
            pool: Arc::clone(&self.pool),
            // Relaxed: the counter hands out distinct numbers and
            // publishes nothing else.
            announcer: self.pool.next_announcer.fetch_add(1, Ordering::Relaxed),
            announced: false,
        }
    }
}

impl<S: PageStore> Drop for BufferManager<S> {
    /// Retires this handle's announcement, so the pages only its last
    /// query valued fall to 0 in every shard.
    fn drop(&mut self) {
        if self.announced {
            self.begin_query(&IdMap::default());
        }
    }
}

impl<S: PageStore> BufferManager<S> {
    /// Creates the paper's pool: one shard of `capacity` frames with
    /// the given policy.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] if `capacity` is zero.
    pub fn new(store: S, capacity: usize, policy: PolicyKind) -> IrResult<Self> {
        BufferManager::sharded(store, capacity, policy, 1)
    }

    /// Creates a pool of `total_frames` frames striped over `shards`
    /// shards, every shard running `policy`. Frame quotas differ by at
    /// most one: shard `i` gets `total/P`, plus one of the `total % P`
    /// leftovers for `i < total % P`.
    ///
    /// The routing chunk defaults to half a shard's frame quota
    /// (`max(1, total/P/2)`): a list scan no longer than that locks
    /// exactly one shard, while any single chunk still fits its
    /// shard's frames with headroom.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] when `total_frames` is zero;
    /// [`IrError::InvalidConfig`] when `shards` is zero or exceeds
    /// `total_frames` (every shard needs at least one frame).
    pub fn sharded(
        store: S,
        total_frames: usize,
        policy: PolicyKind,
        shards: usize,
    ) -> IrResult<Self> {
        let chunk_pages = (total_frames / shards.max(1) / 2).max(1) as u32;
        BufferManager::with_chunk_pages(store, total_frames, policy, shards, chunk_pages)
    }

    /// [`sharded`](Self::sharded) with an explicit routing-chunk size
    /// — the constructor the others call. `chunk_pages = 1` scatters
    /// page by page; larger chunks keep longer list prefixes on one
    /// shard. Hidden from the docs: only tests need a chunk other than
    /// `sharded`'s — this module's, the storage integration tests and
    /// `ir-core`'s scan test — and a `cfg(test)` item is not visible
    /// to the last two.
    ///
    /// # Errors
    /// As [`sharded`](Self::sharded), plus [`IrError::InvalidConfig`]
    /// when `chunk_pages` is zero.
    #[doc(hidden)]
    pub fn with_chunk_pages(
        store: S,
        total_frames: usize,
        policy: PolicyKind,
        shards: usize,
        chunk_pages: u32,
    ) -> IrResult<Self> {
        if total_frames == 0 {
            return Err(IrError::EmptyBufferPool);
        }
        if shards == 0 {
            return Err(IrError::InvalidConfig(
                "a buffer pool needs at least one shard".into(),
            ));
        }
        if shards > total_frames {
            return Err(IrError::InvalidConfig(format!(
                "{shards} shards over {total_frames} frames: every shard needs at least one frame"
            )));
        }
        if chunk_pages == 0 {
            return Err(IrError::InvalidConfig(
                "a buffer pool needs a non-zero routing chunk".into(),
            ));
        }
        let (base, extra) = (total_frames / shards, total_frames % shards);
        let metrics = BufferMetrics::new();
        let mut uses_query_context = false;
        let shards: Box<[Shard]> = (0..shards)
            .map(|i| {
                let quota = base + usize::from(i < extra);
                let policy = policy.build(quota);
                uses_query_context = policy.uses_query_context();
                Shard::new(ShardCore::new(quota, policy, metrics.clone()))
            })
            .collect();
        Ok(BufferManager {
            pool: Arc::new(Pool {
                store,
                uses_query_context,
                shards,
                capacity: total_frames,
                chunk_pages,
                metrics,
                observer: Mutex::new(None),
                next_announcer: AtomicU32::new(1),
            }),
            announcer: 0,
            announced: false,
        })
    }

    /// Executes a [`ReadPlan`], serving every entry in plan order and
    /// reporting each entry's outcome
    /// ([`fetch_batch_into`](QueryBuffer::fetch_batch_into)).
    pub fn fetch_batch(&mut self, plan: &ReadPlan) -> IrResult<Vec<(Page, FetchOutcome)>> {
        let mut out = Vec::with_capacity(plan.len());
        self.fetch_batch_into(plan, &mut out)?;
        Ok(out)
    }

    /// Fetches one page — a one-entry plan — reporting how it was
    /// served. The outcome is observed inside the fetch's own critical
    /// section, so attribution is exact for the calling session even
    /// when other sessions hammer the same pool concurrently.
    pub fn fetch_traced(&mut self, id: PageId) -> IrResult<(Page, FetchOutcome)> {
        let mut served = self.fetch_batch(&ReadPlan::single(id))?;
        Ok(served.pop().expect("a one-entry plan yields one result"))
    }

    /// Fetches one page, counting a hit or a disk read.
    pub fn fetch(&mut self, id: PageId) -> IrResult<Page> {
        self.fetch_traced(id).map(|(page, _)| page)
    }

    /// `b_t`: number of pages of `term`'s inverted list currently in
    /// the pool, over every shard.
    pub fn resident_pages(&self, term: TermId) -> u32 {
        self.resident_pages_many(&[term])[0]
    }

    /// Announces this handle's query to **every** shard, in place of
    /// whatever the handle announced before, so each shard's policy
    /// re-values its own residents of the terms whose weight changed —
    /// the striped equivalent of the paper's global RAP re-valuation,
    /// holding each shard's lock only for that. Other handles'
    /// announcements stand. For policies that ignore query context
    /// (everything but RAP) the announcement is a no-op per shard, so
    /// it is skipped without taking a single lock.
    pub fn begin_query(&mut self, weights: &IdMap<TermId, f64>) {
        if !self.pool.uses_query_context {
            return;
        }
        for s in 0..self.pool.shards.len() {
            self.pool.lock(s).begin_query(self.announcer, weights);
        }
        self.announced = !weights.is_empty();
    }

    /// The shard `id` routes to: `(term, page / chunk_pages)` hashed
    /// with [`splitmix64`] — a fixed map, so shard contents are
    /// reproducible run to run (unlike `DefaultHasher`, whose keys are
    /// randomized per process). A whole chunk of a list shares one
    /// shard, so a prefix scan of at most `chunk_pages` pages —
    /// `ReadPlan::for_term_pages` always plans a prefix — touches
    /// exactly one shard.
    #[inline]
    pub fn shard_of(&self, id: PageId) -> usize {
        self.pool.shard_of(id)
    }

    /// Number of shards (`P`).
    pub fn n_shards(&self) -> usize {
        self.pool.shards.len()
    }

    /// Pool capacity in frames, summed over shards (`BufferSize` in
    /// Table 3).
    pub fn capacity(&self) -> usize {
        self.pool.capacity
    }

    /// Frames in use, summed over shards.
    pub fn len(&self) -> usize {
        self.pool
            .shards
            .iter()
            .map(|shard| sync::read(&shard.frames).len())
            .sum()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is a specific page resident?
    pub fn is_resident(&self, id: PageId) -> bool {
        self.peek(id).is_some()
    }

    /// Returns the resident page without touching statistics, the
    /// replacement policy, or the observer — a side-effect-free read
    /// for diagnostics.
    pub fn peek(&self, id: PageId) -> Option<Page> {
        sync::read(&self.pool.shards[self.shard_of(id)].frames)
            .get(&id)
            .cloned()
    }

    /// Every resident page id, sorted — the pool's frame contents as a
    /// comparable value (chaos and property tests diff two pools with
    /// it).
    pub fn resident_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = (0..self.n_shards())
            .flat_map(|s| self.shard_resident_ids(s))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The page ids resident in shard `s`, sorted — where a test
    /// checks that every page lives in the shard it routes to.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_resident_ids(&self, s: usize) -> Vec<PageId> {
        let mut ids: Vec<PageId> = sync::read(&self.pool.shards[s].frames)
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> BufferStats {
        self.pool.metrics.snapshot()
    }

    /// The pool's live `ir-observe` handles, one set for every shard —
    /// finer-grained than [`stats`](Self::stats) (head/tail evictions,
    /// retries, torn deliveries, shard-lock waits) and shareable across
    /// threads.
    pub fn metrics(&self) -> &BufferMetrics {
        &self.pool.metrics
    }

    /// Zeroes the counters (histograms keep their observations).
    pub fn reset_stats(&self) {
        self.pool.metrics.reset();
    }

    /// Sets the store-read retry policy on every shard.
    pub fn set_fetch_policy(&self, policy: FetchPolicy) {
        for s in 0..self.n_shards() {
            self.pool.lock(s).set_fetch_policy(policy);
        }
    }

    /// Empties every shard (the paper flushes buffers between
    /// refinement *sequences*, never between refinements), and reports
    /// one [`BufferEvent::Flush`] once the last shard is empty.
    /// Statistics survive; use [`reset_stats`](Self::reset_stats) to
    /// zero them.
    pub fn flush(&self) {
        let last = self.n_shards() - 1;
        for s in 0..=last {
            let mut core = self.pool.lock(s);
            core.flush();
            if s == last {
                core.emit(BufferEvent::Flush);
            }
        }
    }

    /// Attaches an event observer to the pool, replacing any previous
    /// one. Every shard shares it behind a mutex, so it sees the whole
    /// pool's events in occurrence order, and every hit served after
    /// this returns.
    pub fn set_observer(&self, observer: Box<dyn BufferObserver>) {
        let mut slot = sync::lock(&self.pool.observer);
        let shared = Arc::new(Mutex::new(observer));
        for s in 0..self.n_shards() {
            self.pool.attach_observer(s, Some(Arc::clone(&shared)));
        }
        *slot = Some(shared);
    }

    /// Detaches and returns the observer given to
    /// [`set_observer`](Self::set_observer), if any.
    pub fn take_observer(&self) -> Option<Box<dyn BufferObserver>> {
        let mut slot = sync::lock(&self.pool.observer);
        for s in 0..self.n_shards() {
            self.pool.attach_observer(s, None);
        }
        // Every shard has dropped its clone: the slot's is the last.
        let shared = Arc::into_inner(slot.take()?).expect("no shard holds the observer");
        Some(shared.into_inner().unwrap_or_else(PoisonError::into_inner))
    }

    /// The underlying page store.
    pub fn store(&self) -> &S {
        &self.pool.store
    }
}

impl<S: PageStore> Pool<S> {
    #[inline]
    fn shard_of(&self, id: PageId) -> usize {
        (splitmix64(self.chunk_key(id)) % self.shards.len() as u64) as usize
    }

    /// The routing key `(term, page / chunk_pages)` packed into a
    /// `u64`. Equal keys always route to the same shard, which lets
    /// hot loops skip the hash while consecutive plan entries stay in
    /// one chunk.
    #[inline]
    fn chunk_key(&self, id: PageId) -> u64 {
        (u64::from(id.term.0) << 32) | u64::from(id.page.0 / self.chunk_pages)
    }

    /// Locks shard `s` exclusively. The uncontended fast path is a
    /// bare `try_lock`; only a failed attempt pays for the clock reads
    /// and the contention counters, retries for [`SPIN_BEFORE_PARK`],
    /// and parks after that.
    fn lock(&self, s: usize) -> MutexGuard<'_, ShardCore> {
        let core = &self.shards[s].core;
        if let Some(guard) = sync::try_lock(core) {
            return guard;
        }
        self.metrics.contended_locks.inc();
        let started = Instant::now();
        let guard = loop {
            std::hint::spin_loop();
            if let Some(guard) = sync::try_lock(core) {
                break guard;
            }
            if started.elapsed() >= SPIN_BEFORE_PARK {
                break sync::lock(core);
            }
        };
        let waited_ns = (started.elapsed().as_nanos() as u64).max(1);
        self.metrics.lock_wait_ns.record(waited_ns);
        crate::waits::charge_lock(waited_ns);
        guard
    }

    /// Sets shard `s`'s observer under its mutex, and refreshes there
    /// whether the shard's hits have a consumer: an observer attached
    /// here is owed every hit served after this returns.
    fn attach_observer(&self, s: usize, observer: Option<SharedObserver>) {
        let mut core = self.lock(s);
        core.set_observer(observer);
        // Release pairs with `serve_resident_prefix`'s Acquire load: a
        // thread that sees the flag set by an attach sees the attach.
        self.shards[s]
            .consumes_hits
            .store(core.consumes_hits(), Ordering::Release);
    }

    /// Serves the longest resident *prefix* of a one-shard run of plan
    /// entries, appending the hits to `out` in plan order, and returns
    /// how many entries were served — with the shard's mutex guard when
    /// the shard [consumes hits](ShardCore::consumes_hits): such a
    /// shard serves the prefix under its mutex through
    /// [`ShardCore::serve_hits`], paying the policy and the observer as
    /// it goes. Any other shard serves the [hit run](serve_hit_run) on
    /// its frame table, under the read lock alone. Either way the
    /// prefix is exactly the hits the exclusive path would have served
    /// before its first miss.
    fn serve_resident_prefix(
        &self,
        s: usize,
        entries: &[PlanEntry],
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> (usize, Option<MutexGuard<'_, ShardCore>>) {
        let shard = &self.shards[s];
        let mut locked = shard
            .consumes_hits
            .load(Ordering::Acquire)
            .then(|| self.lock(s));
        let served = match locked.as_deref_mut() {
            Some(core) => core.serve_hits(entries, out),
            None => serve_hit_run(&shard.frames, &self.metrics, entries, out),
        };
        (served, locked)
    }

    /// The maximal run of leading `entries` that route to one shard:
    /// that shard, and the run's length. A one-shard pool is one run
    /// whatever the plan, and so is an empty plan.
    fn leading_run(&self, entries: &[PlanEntry]) -> (usize, usize) {
        if self.shards.len() == 1 || entries.is_empty() {
            return (0, entries.len());
        }
        let s = self.shard_of(entries[0].page);
        // Consecutive entries usually share a routing chunk (plans are
        // per-term page prefixes), so only re-hash when the chunk key
        // changes.
        let mut key = self.chunk_key(entries[0].page);
        let len = entries.iter().position(|e| {
            let k = self.chunk_key(e.page);
            k != key && {
                key = k;
                self.shard_of(e.page) != s
            }
        });
        (s, len.unwrap_or(entries.len()))
    }

    /// Staging, at a plan's first miss: a store that can keep several
    /// reads in flight gets the plan's [staged pages](staged_ids) — its
    /// misses from `entries` on, across every shard they route to, then
    /// its lookahead's prefixes — before the first demand read, so the
    /// transfers queue on its channels instead of each waiting for the
    /// previous demand to return. Each page's residency is asked of its
    /// owner shard's frame table under that read lock alone.
    /// Everything before the first miss was resident and would have
    /// been filtered out, so this is what staging the whole plan up
    /// front submitted — and a fully resident plan submits nothing.
    fn stage(&self, entries: &[PlanEntry], lookahead: &[(TermId, u32)]) {
        if self.store.overlap_depth() <= 1 {
            return;
        }
        let staged = staged_ids(entries, lookahead, |id| {
            sync::read(&self.shards[self.shard_of(id)].frames).contains_key(&id)
        });
        self.store.submit(&staged);
    }
}

/// The one implementation of the fetch protocol.
impl<S: PageStore> QueryBuffer for BufferManager<S> {
    /// Walks the plan once, in plan order, cutting it into maximal runs
    /// of consecutive entries that route to one shard, and serves each
    /// run: its resident prefix (lock-light unless the shard consumes
    /// hits), then the remainder (first miss onward) under the shard
    /// mutex through the shard core, results appended straight to
    /// `out`. The plan's first miss stages the rest of the plan first.
    /// An error ends the walk; everything before it keeps its effects
    /// and its place in `out`.
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        let pool = &*self.pool;
        out.clear();
        out.reserve(plan.len());
        pool.metrics.batches.inc();
        pool.metrics.batch_pages.record(plan.len() as u64);
        let mut rest = plan.entries();
        let mut staged = false;
        loop {
            let (s, len) = pool.leading_run(rest);
            let (run, tail) = rest.split_at(len);
            let (served, locked) = pool.serve_resident_prefix(s, run, out);
            if served < run.len() {
                if !staged {
                    staged = true;
                    pool.stage(&rest[served..], plan.lookahead());
                }
                let (mut core, misses) = match locked {
                    // The prefix ended at a miss seen under this mutex.
                    Some(core) => (core, &run[served..]),
                    // Seen without the mutex: another session may have
                    // loaded the page since, so look again under it.
                    None => {
                        let mut core = pool.lock(s);
                        let more = core.serve_hits(&run[served..], out);
                        (core, &run[served + more..])
                    }
                };
                core.fetch_entries(&pool.store, misses, out)?;
            }
            if tail.is_empty() {
                return Ok(());
            }
            // Counted once per plan, at its first cut.
            if rest.len() == plan.len() {
                pool.metrics.batch_splits.inc();
            }
            rest = tail;
        }
    }

    /// `b_t` across the whole pool: a term's chunks may hash to
    /// several shards, so every shard's counter table is consulted —
    /// under its read lock only, never the shard mutex, so a `b_t`
    /// inquiry never queues behind a shard serving disk reads. The
    /// counters change only on load/evict (which hold the mutex), so
    /// the values match what a locked read would return. Each shard's
    /// counter lock is taken exactly once — `P` passes total instead
    /// of the `terms.len() × P` a per-term loop costs. The BAF term
    /// selector inquires every live candidate's `b_t` each round
    /// through this.
    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        let mut totals = vec![0u32; terms.len()];
        for shard in self.pool.shards.iter() {
            let counters = sync::read(&shard.terms);
            for (slot, term) in totals.iter_mut().zip(terms) {
                *slot += counters.get(term).copied().unwrap_or(0);
            }
        }
        totals
    }

    fn begin_query(&mut self, weights: &IdMap<TermId, f64>) {
        BufferManager::begin_query(self, weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::observe::BufferEvent;
    use ir_types::Posting;

    fn store(n_terms: u32, pages: u32) -> Arc<DiskSim> {
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
        Arc::new(DiskSim::new(lists))
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    /// An observer whose log the test can read while the pool owns the
    /// observer box.
    #[derive(Clone, Default, Debug)]
    struct SharedLog(Arc<std::sync::Mutex<Vec<BufferEvent>>>);

    impl crate::observe::BufferObserver for SharedLog {
        fn event(&mut self, event: BufferEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn construction_validates_shard_and_frame_counts() {
        let s = store(1, 4);
        assert!(matches!(
            BufferManager::sharded(Arc::clone(&s), 0, PolicyKind::Lru, 1),
            Err(IrError::EmptyBufferPool)
        ));
        assert!(matches!(
            BufferManager::sharded(Arc::clone(&s), 4, PolicyKind::Lru, 0),
            Err(IrError::InvalidConfig(_))
        ));
        assert!(matches!(
            BufferManager::sharded(Arc::clone(&s), 3, PolicyKind::Lru, 4),
            Err(IrError::InvalidConfig(_))
        ));
        let pool = BufferManager::sharded(s, 7, PolicyKind::Lru, 4).unwrap();
        assert_eq!(pool.n_shards(), 4);
        assert_eq!(pool.capacity(), 7, "quotas must sum to the total");
    }

    /// `w_{q,t} = w` for the one term `t`.
    fn one_term(t: u32, w: f64) -> IdMap<TermId, f64> {
        [(TermId(t), w)].into_iter().collect()
    }

    #[test]
    fn clones_are_handles_to_one_pool() {
        let mut a = BufferManager::sharded(store(3, 4), 4, PolicyKind::Rap, 1).unwrap();
        let mut b = a.clone();
        a.fetch(pid(0, 0)).unwrap();
        b.fetch(pid(0, 0)).unwrap(); // hit via the other handle
        let s = a.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.resident_pages(TermId(0)), 1);
        // One pool, two sessions: `b`'s announcement stands beside
        // `a`'s instead of replacing it, so the victim is the cheapest
        // page of the two queries (3 · 0.1) — not `a`'s tail, which a
        // pool that knew only the last announcement would value at 0.
        assert_ne!(a.announcer, b.announcer);
        a.begin_query(&one_term(0, 1.0));
        b.begin_query(&one_term(1, 0.1));
        for id in [pid(0, 1), pid(1, 0), pid(1, 1), pid(2, 0)] {
            b.fetch(id).unwrap();
        }
        assert!(!a.is_resident(pid(1, 1)));
        assert_eq!(a.resident_pages(TermId(0)), 2);
    }

    #[test]
    fn a_dropped_handles_terms_go_first() {
        let mut a = BufferManager::sharded(store(2, 4), 4, PolicyKind::Rap, 1).unwrap();
        let mut b = a.clone();
        a.begin_query(&one_term(0, 0.1));
        b.begin_query(&one_term(1, 1.0));
        for p in 0..2 {
            a.fetch(pid(0, p)).unwrap();
            b.fetch(pid(1, p)).unwrap();
        }
        // While `b` lives its pages are the valuable ones (4, 3 against
        // 0.4, 0.3); once it is gone they are worth nothing, and the
        // next eviction takes its tail.
        drop(b);
        a.fetch(pid(0, 2)).unwrap();
        assert!(!a.is_resident(pid(1, 1)));
        assert_eq!(a.resident_pages(TermId(0)), 3);
    }

    #[test]
    fn quota_split_differs_by_at_most_one() {
        let pool = BufferManager::sharded(store(1, 4), 10, PolicyKind::Lru, 4).unwrap();
        let caps: Vec<usize> = (0..4).map(|s| pool.pool.lock(s).capacity).collect();
        assert_eq!(caps.iter().sum::<usize>(), 10);
        assert_eq!(*caps.iter().max().unwrap() - *caps.iter().min().unwrap(), 1);
    }

    #[test]
    fn page_to_shard_map_is_fixed_and_total() {
        let pool = BufferManager::sharded(store(4, 16), 8, PolicyKind::Lru, 4).unwrap();
        let mut seen = vec![0u32; 4];
        for t in 0..4 {
            for p in 0..16 {
                let s = pool.shard_of(pid(t, p));
                assert_eq!(s, pool.shard_of(pid(t, p)), "map must be deterministic");
                seen[s] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "64 pages must spread over all 4 shards: {seen:?}"
        );
    }

    #[test]
    fn fetches_route_to_the_owning_shard_and_counters_add_up() {
        // 64 frames = 16 per shard: even if every page hashed to one
        // shard nothing would evict, so the counters are exact.
        let s = store(2, 8);
        let mut pool = BufferManager::sharded(Arc::clone(&s), 64, PolicyKind::Lru, 4).unwrap();
        for t in 0..2 {
            for p in 0..8 {
                pool.fetch(pid(t, p)).unwrap();
                pool.fetch(pid(t, p)).unwrap(); // second fetch hits
            }
        }
        let total = pool.stats();
        assert_eq!(total.requests, 32);
        assert_eq!(total.hits, 16);
        assert_eq!(total.misses, 16);
        assert_eq!(s.stats().reads, 16);
        // Every page is resident in exactly its own shard.
        for t in 0..2 {
            for p in 0..8 {
                let owner = pool.shard_of(pid(t, p));
                for shard in 0..4 {
                    let resident = pool.shard_resident_ids(shard).contains(&pid(t, p));
                    assert_eq!(resident, shard == owner);
                }
            }
        }
        assert_eq!(pool.len(), 16);
        assert_eq!(pool.resident_pages(TermId(0)), 8);
    }

    #[test]
    fn single_shard_batch_is_one_critical_section() {
        let mut pool = BufferManager::sharded(store(1, 6), 8, PolicyKind::Lru, 1).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 6);
        let out = pool.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Miss));
        assert_eq!(pool.metrics().batch_splits.get(), 0);
        assert_eq!(pool.metrics().batches.get(), 1);
    }

    #[test]
    fn cross_shard_batch_reassembles_plan_order() {
        // chunk_pages = 1 pins the original per-page scatter, so this
        // plan deterministically spans several shards (headroom per
        // shard: no eviction regardless of hash skew).
        let mut pool =
            BufferManager::with_chunk_pages(store(2, 8), 32, PolicyKind::Lru, 4, 1).unwrap();
        let mut plan = ReadPlan::new();
        for p in 0..8 {
            plan.push(PlanEntry::new(pid(0, p)));
        }
        plan.push(PlanEntry::new(pid(0, 3))); // duplicate: hit in its shard
        let out = pool.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 9);
        for (i, (page, outcome)) in out.iter().enumerate().take(8) {
            assert_eq!(page.id(), pid(0, i as u32), "plan order preserved");
            assert_eq!(*outcome, FetchOutcome::Miss);
        }
        assert_eq!(out[8].1, FetchOutcome::Hit, "duplicate costs one load");
        assert_eq!(pool.metrics().batch_splits.get(), 1);
        let s = pool.stats();
        assert_eq!((s.requests, s.hits, s.misses), (9, 1, 8));
    }

    #[test]
    fn striped_rap_announcement_reaches_every_shard() {
        // 6 frames over 2 shards, 16 pages wanted: both shards evict.
        let mut pool = BufferManager::sharded(store(2, 8), 6, PolicyKind::Rap, 2).unwrap();
        // Announced through one handle, fetched through another: the
        // announcement lives in the shards, under the handle's id.
        let mut session = pool.clone();
        session.begin_query(&one_term(0, 1.0));
        for p in 0..4 {
            pool.fetch(pid(0, p)).unwrap();
        }
        for p in 0..4 {
            pool.fetch(pid(1, p)).unwrap();
        }
        for p in 4..8 {
            pool.fetch(pid(0, p)).unwrap();
        }
        // Zero-valued term-1 pages are the preferred victims in every
        // shard, so term 0 keeps more residents than term 1.
        assert!(pool.resident_pages(TermId(0)) > pool.resident_pages(TermId(1)));
        for shard in &pool.pool.shards[..] {
            let terms = sync::read(&shard.terms);
            let t0 = terms.get(&TermId(0)).copied().unwrap_or(0);
            let t1 = terms.get(&TermId(1)).copied().unwrap_or(0);
            assert_eq!((t0 + t1) as usize, sync::read(&shard.frames).len());
        }
    }

    #[test]
    fn concurrent_hits_on_distinct_shards_do_not_contend_logically() {
        // 128 frames = 32 per shard: hash skew can never force an
        // eviction, so every page loads exactly once.
        let pool = BufferManager::sharded(store(4, 8), 128, PolicyKind::Lru, 4).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let mut handle = pool.clone();
                scope.spawn(move || {
                    for _ in 0..3 {
                        for p in 0..8 {
                            handle.fetch(pid(t, p)).unwrap();
                        }
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.requests, 96);
        assert_eq!(s.hits + s.misses, 96);
        assert_eq!(s.misses, 32, "every page loads exactly once");
    }

    #[test]
    fn batch_error_keeps_completed_shards() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 11,
            transient_rate: 1.0,
            max_consecutive_faults: 100,
            ..FaultConfig::DISABLED
        };
        let faulty = Arc::new(FaultStore::new(store(1, 8), cfg));
        let mut pool = BufferManager::sharded(faulty, 8, PolicyKind::Lru, 4).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 8);
        // Every read faults and there are no retries: the plan's first
        // entry fails and nothing after it runs.
        let err = pool.fetch_batch(&plan).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(pool.len(), 0, "no page may land from a failed batch");
    }

    #[test]
    fn batch_error_keeps_the_served_prefix_across_shards() {
        // Per-page scatter; the plan is a valid page followed by the
        // first out-of-range page that routes to a *different* shard.
        let mut pool =
            BufferManager::with_chunk_pages(store(1, 8), 32, PolicyKind::Lru, 4, 1).unwrap();
        let first = pid(0, 0);
        let bad = (8..)
            .map(|p| pid(0, p))
            .find(|id| pool.shard_of(*id) != pool.shard_of(first))
            .unwrap();
        let plan: ReadPlan = [first, bad].into_iter().map(PlanEntry::new).collect();
        let mut out = Vec::new();
        let err = pool.fetch_batch_into(&plan, &mut out).unwrap_err();
        assert!(matches!(err, IrError::PageOutOfRange { .. }));
        assert_eq!(out.len(), 1, "the entry served before the failure");
        assert_eq!(out[0].0.id(), first);
        assert!(pool
            .shard_resident_ids(pool.shard_of(first))
            .contains(&first));
    }

    #[test]
    fn term_routed_scan_locks_one_shard() {
        // 64 frames / 4 shards → chunk_pages = 8: a whole-list prefix
        // scan of any term routes to exactly one shard, cold or warm.
        let mut pool = BufferManager::sharded(store(4, 8), 64, PolicyKind::Lru, 4).unwrap();
        assert_eq!(pool.pool.chunk_pages, 8);
        for t in 0..4 {
            let plan = ReadPlan::for_term_pages(TermId(t), 8);
            let owner = pool.shard_of(pid(t, 0));
            assert!(
                plan.iter().all(|e| pool.shard_of(e.page) == owner),
                "a one-chunk prefix must have a single owner shard"
            );
            pool.fetch_batch(&plan).unwrap(); // cold: one exclusive section
            pool.fetch_batch(&plan).unwrap(); // warm: lock-light hits
        }
        assert_eq!(
            pool.metrics().batch_splits.get(),
            0,
            "term-routed single-list scans must never split"
        );
        let s = pool.stats();
        assert_eq!((s.requests, s.hits, s.misses), (64, 32, 32));
    }

    #[test]
    fn long_list_subdivides_at_chunk_granularity() {
        // chunk_pages = 2 over a 8-page list: chunks {0,1},{2,3},{4,5},
        // {6,7} may land on different shards, and the plan reassembles
        // in plan order with one split at most.
        let mut pool =
            BufferManager::with_chunk_pages(store(1, 8), 32, PolicyKind::Lru, 4, 2).unwrap();
        for p in 0..8 {
            assert_eq!(
                pool.shard_of(pid(0, p)),
                pool.shard_of(pid(0, (p / 2) * 2)),
                "pages of one chunk share a shard"
            );
        }
        let plan = ReadPlan::for_term_pages(TermId(0), 8);
        let out = pool.fetch_batch(&plan).unwrap();
        for (i, (page, outcome)) in out.iter().enumerate() {
            assert_eq!(page.id(), pid(0, i as u32), "plan order preserved");
            assert_eq!(*outcome, FetchOutcome::Miss);
        }
        let distinct: std::collections::HashSet<usize> =
            (0..8).map(|p| pool.shard_of(pid(0, p))).collect();
        let expected_splits = u64::from(distinct.len() > 1);
        assert_eq!(pool.metrics().batch_splits.get(), expected_splits);
    }

    /// Load A and B into a two-frame LRU shard, hit A, load C: the hit
    /// reaches the policy when it is served, so C evicts B, and the
    /// shard's observer sees `Hit(A)` before `Load(C)` — on a one-shard
    /// pool, and on a two-shard pool whose other shard sits idle.
    #[test]
    fn a_consumed_hit_reaches_the_policy_before_the_next_load() {
        for shards in [1, 2] {
            let mut pool =
                BufferManager::sharded(store(8, 1), 2 * shards, PolicyKind::Lru, shards).unwrap();
            let s = pool.shard_of(pid(0, 0));
            let [a, b, c]: [PageId; 3] = (0..8)
                .map(|t| pid(t, 0))
                .filter(|&id| pool.shard_of(id) == s)
                .take(3)
                .collect::<Vec<_>>()
                .try_into()
                .expect("three of eight heads share a shard");
            let log = SharedLog::default();
            pool.set_observer(Box::new(log.clone()));
            for id in [a, b, a, c] {
                pool.fetch(id).unwrap();
            }
            assert!(
                pool.is_resident(a) && !pool.is_resident(b),
                "{shards} shards: the hit on A did not reach LRU before C loaded"
            );
            assert_eq!(
                *log.0.lock().unwrap(),
                [
                    BufferEvent::Load(a),
                    BufferEvent::Load(b),
                    BufferEvent::Hit(a),
                    BufferEvent::Evict(b),
                    BufferEvent::Load(c),
                ],
                "{shards} shards"
            );
            let st = pool.stats();
            assert_eq!((st.requests, st.hits, st.misses), (4, 1, 3));
        }
    }

    #[test]
    fn hits_nobody_consumes_never_take_the_shard_mutex() {
        // RAP ignores hits and nobody observes: with every shard's
        // mutex held, a fully resident plan through another handle
        // still completes, and the counters are eager and whole.
        let mut pool = BufferManager::sharded(store(2, 8), 32, PolicyKind::Rap, 2).unwrap();
        let plans = [0, 1].map(|t| ReadPlan::for_term_pages(TermId(t), 8));
        for plan in &plans {
            pool.fetch_batch(plan).unwrap();
        }
        let held: Vec<_> = (0..2).map(|s| pool.pool.lock(s)).collect();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let mut reader = pool.clone();
            scope.spawn(move || {
                for _ in 0..2 {
                    for plan in &plans {
                        let out = reader.fetch_batch(plan).unwrap();
                        assert!(out.iter().all(|(_, how)| *how == FetchOutcome::Hit));
                    }
                }
                done.send(()).unwrap();
            });
            let served = finished.recv_timeout(Duration::from_secs(30));
            drop(held);
            assert!(
                served.is_ok(),
                "a hit nobody consumes waited for a shard mutex"
            );
        });
        assert_eq!(pool.metrics().contended_locks.get(), 0);
        let st = pool.stats();
        assert_eq!((st.requests, st.hits, st.misses), (48, 32, 16));
    }

    #[test]
    fn an_observer_attached_mid_run_sees_every_later_hit_in_serve_order() {
        // Attaching refreshes the shard's consumer flag: without that,
        // a RAP pool would go on serving its hits lock-light after the
        // attach and the log below would stay empty.
        let mut pool = BufferManager::sharded(store(1, 4), 8, PolicyKind::Rap, 1).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 4);
        pool.fetch_batch(&plan).unwrap(); // four loads
        pool.fetch_batch(&plan).unwrap(); // four hits nobody consumes
        let log = SharedLog::default();
        pool.set_observer(Box::new(log.clone()));
        let order = [pid(0, 2), pid(0, 0), pid(0, 3), pid(0, 0)];
        pool.fetch_batch(&order.into_iter().map(PlanEntry::new).collect())
            .unwrap();
        assert_eq!(
            *log.0.lock().unwrap(),
            order.map(BufferEvent::Hit).to_vec(),
            "every hit after the attach, none from before, in serve order"
        );
        // Detaching clears the flag again: the hits after it are the
        // detached observer's no longer.
        let detached = pool.take_observer();
        assert!(detached.is_some());
        assert!(!pool.pool.shards[0].consumes_hits.load(Ordering::Acquire));
        pool.fetch_batch(&plan).unwrap();
        assert_eq!(log.0.lock().unwrap().len(), 4);
        assert_eq!(pool.stats().hits, 12);
    }

    /// One flush of a pool is one `Flush` event, reported once every
    /// shard is empty, however many shards there are; and
    /// `take_observer` hands back the very box `set_observer` was
    /// given, not a wrapper around it.
    #[test]
    fn a_flush_is_one_event_and_the_observer_comes_back_unwrapped() {
        for shards in [1, 2, 4] {
            let mut pool =
                BufferManager::sharded(store(4, 4), 16, PolicyKind::Lru, shards).unwrap();
            let log = SharedLog::default();
            let given: Box<dyn BufferObserver> = Box::new(log.clone());
            let address = &*given as *const dyn BufferObserver as *const ();
            pool.set_observer(given);
            for t in 0..4 {
                pool.fetch_batch(&ReadPlan::for_term_pages(TermId(t), 4))
                    .unwrap();
            }
            pool.flush();
            assert!(pool.is_empty());
            let events = log.0.lock().unwrap().clone();
            let flushes = events.iter().filter(|e| **e == BufferEvent::Flush).count();
            assert_eq!(flushes, 1, "{shards} shards");
            assert_eq!(events.last(), Some(&BufferEvent::Flush), "{shards} shards");
            let taken = pool.take_observer().expect("an observer is attached");
            assert_eq!(
                &*taken as *const dyn BufferObserver as *const (), address,
                "{shards} shards"
            );
            assert!(pool.take_observer().is_none());
        }
    }

    #[test]
    fn resident_pages_many_matches_per_term_loop() {
        let mut pool = BufferManager::sharded(store(4, 8), 64, PolicyKind::Lru, 4).unwrap();
        for t in 0..3 {
            for p in 0..(t + 2).min(8) {
                pool.fetch(pid(t, p)).unwrap();
            }
        }
        let terms: Vec<TermId> = (0..4).map(TermId).collect();
        let batched = pool.resident_pages_many(&terms);
        let looped: Vec<u32> = terms.iter().map(|t| pool.resident_pages(*t)).collect();
        assert_eq!(batched, looped);
        assert_eq!(batched, vec![2, 3, 4, 0]);
    }

    /// Over random plans — duplicates, hit / miss / hit, one entry in
    /// 40 past its list's end — and query announcements, a plan hands
    /// the store, before its first demand read and only if it misses
    /// at all, its distinct pages that were not resident when it began,
    /// in plan order; then the store sees one read per entry served as
    /// a miss, in serve order, and, when the plan errs, the failed read
    /// last. On one shard and two, for every kind, observed on even
    /// seeds only: unobserved, RAP and FIFO serve their resident
    /// prefixes lock-light before staging.
    #[test]
    fn a_plan_stages_its_misses_before_its_first_read() {
        use crate::disk::tests::{StagingProbe, StoreCall};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for seed in 0..24u64 {
            for kind in PolicyKind::ALL {
                for shards in [1, 2] {
                    let frames = [2, 4, 16][(seed % 3) as usize];
                    let observed = seed % 2 == 0;
                    let what = format!(
                        "seed {seed}, {kind}, {shards} shards, {frames} frames, observed {observed}"
                    );
                    let probe = StagingProbe::new(store(3, 6));
                    let mut pool = BufferManager::sharded(probe, frames, kind, shards).unwrap();
                    if observed {
                        pool.set_observer(Box::new(SharedLog::default()));
                    }
                    let consumed = (0..shards)
                        .all(|s| pool.pool.shards[s].consumes_hits.load(Ordering::Acquire));
                    assert_eq!(
                        consumed,
                        observed || !matches!(kind, PolicyKind::Rap | PolicyKind::Fifo),
                        "{what}"
                    );
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut out = Vec::new();
                    for step in 0..24 {
                        if rng.gen_range(0..6) == 0 {
                            let weights: IdMap<TermId, f64> = (0..3)
                                .map(|t| (TermId(t), f64::from(rng.gen_range(0..4u32))))
                                .filter(|(_, w)| *w > 0.0)
                                .collect();
                            pool.begin_query(&weights);
                        }
                        let plan: ReadPlan = (0..rng.gen_range(0..10))
                            .map(|_| {
                                let page = match rng.gen_range(0..40) {
                                    0 => 6,
                                    _ => rng.gen_range(0..6),
                                };
                                PlanEntry::new(pid(rng.gen_range(0..3), page))
                            })
                            .collect();
                        let resident = pool.resident_ids();
                        let calls = pool.store().calls().len();
                        let result = pool.fetch_batch_into(&plan, &mut out);
                        let mut seen = std::collections::HashSet::new();
                        let staged: Vec<PageId> = plan
                            .iter()
                            .map(|e| e.page)
                            .filter(|id| seen.insert(*id) && resident.binary_search(id).is_err())
                            .collect();
                        let mut expected: Vec<StoreCall> = Vec::new();
                        if !staged.is_empty() {
                            expected.push(StoreCall::Submit(staged));
                        }
                        expected.extend(
                            out.iter()
                                .filter(|(_, how)| *how == FetchOutcome::Miss)
                                .map(|(page, _)| StoreCall::Read(page.id())),
                        );
                        match result {
                            Ok(()) => assert_eq!(out.len(), plan.len(), "{what}, step {step}"),
                            Err(_) => {
                                let failed = plan.entries()[out.len()].page;
                                assert_eq!(failed.page.0, 6, "{what}, step {step}");
                                expected.push(StoreCall::Read(failed));
                            }
                        }
                        assert_eq!(
                            pool.store().calls()[calls..],
                            expected,
                            "{what}, step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn staged_plans_match_unstaged_ones_per_shard() {
        use crate::disk::tests::{StagingProbe, StoreCall};
        // Twin pools over twin stores, one of which can overlap.
        // Counters and device traffic must be identical, and
        // the overlapping store must have been handed each cold plan
        // whole — one submit, in plan order, ahead of its demand
        // reads — and nothing for a warm one.
        let (sa, sb) = (store(4, 8), store(4, 8));
        let mut plain = BufferManager::sharded(Arc::clone(&sa), 64, PolicyKind::Lru, 4).unwrap();
        let probe = Arc::new(StagingProbe::new(Arc::clone(&sb)));
        let mut staged =
            BufferManager::sharded(Arc::clone(&probe), 64, PolicyKind::Lru, 4).unwrap();
        let mut expected_calls = Vec::new();
        for t in 0..4 {
            let plan = ReadPlan::for_term_pages(TermId(t), 8);
            let pages: Vec<PageId> = plan.iter().map(|e| e.page).collect();
            expected_calls.push(StoreCall::Submit(pages.clone()));
            expected_calls.extend(pages.into_iter().map(StoreCall::Read));
            for _ in 0..2 {
                // cold pass, then warm pass
                plain.fetch_batch(&plan).unwrap();
                staged.fetch_batch(&plan).unwrap();
            }
        }
        assert_eq!(staged.stats(), plain.stats());
        assert_eq!(sb.stats(), sa.stats());
        assert_eq!(staged.metrics().batch_splits.get(), 0);
        assert_eq!(staged.resident_ids(), plain.resident_ids());
        assert_eq!(probe.calls(), expected_calls);
    }

    #[test]
    fn contended_lock_wait_records_nanoseconds() {
        let mut pool = BufferManager::sharded(store(1, 4), 8, PolicyKind::Lru, 1).unwrap();
        pool.fetch(pid(0, 0)).unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let holder = pool.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let _held = holder.pool.lock(0);
                barrier.wait();
                // Hold the shard until the main thread has found it
                // locked: a fixed sleep can end before a descheduled
                // waiter ever tries. The waiter bumps the counter
                // before it spins, so this cannot deadlock.
                let deadline = Instant::now() + Duration::from_secs(10);
                while holder.metrics().contended_locks.get() == 0 {
                    assert!(
                        Instant::now() < deadline,
                        "the waiter never contended for the held shard"
                    );
                    std::thread::yield_now();
                }
            });
            barrier.wait();
            // The shard mutex is held: this miss must wait, and the
            // wait lands in the ns histogram (≥ 1, never truncated to
            // zero the way microsecond truncation did).
            pool.fetch(pid(0, 1)).unwrap();
        });
        assert!(pool.metrics().contended_locks.get() >= 1);
        let h = &pool.metrics().lock_wait_ns;
        assert!(h.count() >= 1);
        assert!(
            h.sum() >= h.count(),
            "every contended wait records at least one nanosecond"
        );
    }
}
