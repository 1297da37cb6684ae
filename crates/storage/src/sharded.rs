//! The concurrent buffer pool: the one pool the engine's
//! `SessionServer` shares among its sessions.
//!
//! One mutex around a [`BufferManager`] would serialize *every* fetch —
//! including pure buffer hits on Arc-shared pages — so N sessions on N
//! cores collapse to one core's worth of buffer throughput.
//! [`ShardedBufferPool`] partitions the frames across `P` shards (the
//! LevelDB/RocksDB `ShardedCache` construction): each shard owns its
//! own frame table, replacement-policy instance, [`BufferMetrics`] and
//! [`Mutex`], so concurrent traffic on different shards
//! never contends and no global lock exists on the hot path. A pool of
//! one shard is the paper's single shared pool (`P = 1` below).
//!
//! ## Locking protocol
//!
//! * **Term-chunk routing.** Pages route to shards by
//!   `(term, page / chunk_pages)`, so a prefix scan of up to
//!   `chunk_pages` pages — the common single-list [`ReadPlan`] — lands
//!   entirely on one shard and locks exactly one mutex. Only lists
//!   longer than a chunk subdivide, at chunk granularity. The map is a
//!   pure function of the [`PageId`] and the pool geometry; with
//!   `chunk_pages = 1` it degenerates to the original per-page
//!   scatter (see [`with_chunk_pages`]).
//! * **Lock-light hit path.** On a shard whose policy ignores hits
//!   (RAP, FIFO) and that nobody observes
//!   ([`BufferManager::consumes_hits`] is `false`), a run of buffer
//!   hits is served under the shard's frame-table *read* lock by the
//!   same hit-run routine the reference pool uses: the pages are
//!   cloned and the request/hit counters bump atomically once for the
//!   run. A hit there writes no state two sessions share beyond the
//!   lock's reader count, the counters and the pages' reference
//!   counts; only misses, evictions, announcements and inspection take
//!   the exclusive mutex. A shard whose hits have a consumer serves
//!   them under its mutex, through the reference pool's own loop, so
//!   the policy and the observer see each hit when it is served.
//! * **One lock at a time.** A plan
//!   ([`fetch_batch_into`](QueryBuffer::fetch_batch_into)) is walked
//!   once, in plan order, and cut into maximal runs of consecutive
//!   entries that route to one shard; each run locks its shard *only
//!   while it executes* (and not at all when it is fully resident) —
//!   at most one shard lock is held at any moment, so a thread serving
//!   shard 0's disk reads never idles holding shard 3's lock, and
//!   deadlock is impossible by construction.
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
//! * **`P = 1` is the reference pool.** A one-shard pool's event log,
//!   metrics and store traffic are identical, fetch for fetch, to a
//!   bare [`BufferManager`]'s (a property test pins this for every
//!   policy kind, with and without fault injection).
//! * **A handle is a session.** Every handle to the pool — the one
//!   [`new`] returns, and each [`Clone`] of it — announces under its
//!   own id, and a query-aware policy (RAP) values a page by the
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
//! * **Strict plan order.** Entries are served in plan order on every
//!   pool, so everything below the pool — the store's head position, a
//!   seeded fault stream — sees the plan's own sequence whatever the
//!   shard count, a duplicate costs one load plus one hit, and an error
//!   leaves exactly the entries before it served and in `out`.
//!   [`ShardMetrics::batch_splits`] counts the plans that were cut at all.
//! * **Staging is the plan's.** Over a store that overlaps reads, the
//!   plan's first miss stages what the reference pool stages — the
//!   plan's non-resident pages from there on, then its lookahead's
//!   prefixes — in one submit before the first demand read, whatever
//!   shards the pages route to. Each page's residency is asked of the
//!   shard that owns it, under that shard's frame-table read lock.
//!
//! [`begin_query`]: QueryBuffer::begin_query
//! [`new`]: ShardedBufferPool::new
//! [`with_chunk_pages`]: ShardedBufferPool::with_chunk_pages

use crate::buffer::{
    serve_hit_run, staged_ids, BufferManager, FetchOutcome, FetchPolicy, FrameView, TermView,
};
use crate::disk::PageStore;
use crate::page::Page;
use crate::policy::PolicyKind;
use crate::query_buffer::QueryBuffer;
use crate::stats::{BufferMetrics, BufferStats};
use ir_observe::{Counter, Histogram};
use ir_types::idmap::splitmix64;
use ir_types::{sync, IdMap, IrError, IrResult, PageId, PlanEntry, ReadPlan, TermId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Bucket bounds (ns) for the shard-lock wait-time histogram. Waits
/// used to be recorded in truncated microseconds, which zeroed every
/// sub-µs wait — the overwhelming majority on a shard mutex — and
/// made the histogram's mass vanish exactly when contention was
/// sharpest. Nanosecond resolution keeps the sub-µs onset visible; the
/// tail buckets still catch convoys.
pub const LOCK_WAIT_NS_BOUNDS: [u64; 10] = [
    250, 500, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000,
];

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

/// Contention counters of a [`ShardedBufferPool`] — pool-level, next
/// to (not mixed into) the per-shard [`BufferMetrics`], so a one-shard
/// pool's buffer counters stay bit-identical to an unsharded
/// [`BufferManager`]'s.
///
/// [`BufferMetrics`]: crate::BufferMetrics
#[derive(Clone, Debug)]
pub struct ShardMetrics {
    /// Time spent waiting for shard locks — retrying, then parked —
    /// one observation per *contended* acquisition (ns; saturated to
    /// ≥ 1 so a recorded wait is never mistaken for no wait) — the
    /// uncontended fast path records nothing, so hot loops pay no
    /// histogram write. The sum is the pool's total lock-wait in
    /// nanoseconds. Each wait is also charged to the thread that waited
    /// ([`thread_waits`](crate::thread_waits)).
    pub lock_wait_ns: Histogram,
    /// Acquisitions that found the shard lock already held and had to
    /// wait (the fast `try_lock` failed).
    pub contended_locks: Counter,
    /// Read plans whose pages hashed to more than one shard (each such
    /// plan is cut into per-shard runs).
    pub batch_splits: Counter,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        ShardMetrics::new()
    }
}

impl ShardMetrics {
    /// Fresh free-standing handles.
    pub fn new() -> Self {
        ShardMetrics {
            lock_wait_ns: Histogram::with_bounds(&LOCK_WAIT_NS_BOUNDS),
            contended_locks: Counter::new(),
            batch_splits: Counter::new(),
        }
    }
}

/// One shard: a [`BufferManager`] behind its mutex, plus the handles
/// the lock-light hit path uses without that mutex — a shared view of
/// the shard's resident-frame table, clones of the shard's atomic
/// counter handles, and whether anything consumes a hit.
#[derive(Debug)]
struct Shard<S: PageStore> {
    manager: Mutex<BufferManager<Arc<S>>>,
    /// The manager's resident-frame table, readable without the mutex.
    frames: FrameView,
    /// The manager's `b_t` counters, readable without the mutex (they
    /// change only on load/evict, which hold the mutex anyway).
    terms: TermView,
    /// Clones of the manager's `buffer.*` counter handles (atomic), so
    /// a lock-light hit counts exactly like a locked one.
    metrics: BufferMetrics,
    /// The manager's [`consumes_hits`](BufferManager::consumes_hits),
    /// cached where the lock-light path can read it; stored under the
    /// shard mutex whenever a caller could have changed the answer
    /// ([`ShardedBufferPool::with_shard`]). While set, hits are served
    /// under the mutex.
    consumes_hits: AtomicBool,
}

impl<S: PageStore> Shard<S> {
    fn new(manager: BufferManager<Arc<S>>) -> Self {
        Shard {
            frames: manager.frame_view(),
            terms: manager.term_view(),
            metrics: manager.metrics().clone(),
            consumes_hits: AtomicBool::new(manager.consumes_hits()),
            manager: Mutex::new(manager),
        }
    }
}

/// A buffer pool of `total_frames` frames striped across `P` shards by
/// term-chunk hash, each shard an independent [`BufferManager`] behind
/// its own mutex. Cloning yields another handle to the same pool —
/// another *session*, announcing its queries under an id of its own —
/// so N session threads each hold a clone; dropping a handle retires
/// what it announced.
#[derive(Debug)]
pub struct ShardedBufferPool<S: PageStore> {
    shards: Arc<[Shard<S>]>,
    /// The store every shard reads from, for staging a plan across
    /// shards.
    store: Arc<S>,
    /// Frames over all shards (the quotas never change).
    capacity: usize,
    /// Pages per routing chunk: `(term, page / chunk_pages)` picks the
    /// shard, so a list prefix of up to this many pages is owned by
    /// one shard.
    chunk_pages: u32,
    /// Whether the shards' policy reacts to `begin_query` (RAP). When
    /// `false`, query announcements skip all `P` shard locks.
    uses_query_context: bool,
    metrics: ShardMetrics,
    /// The id this handle announces under; no other handle has it.
    announcer: u32,
    /// The id the next clone takes, shared by every handle.
    next_announcer: Arc<AtomicU32>,
    /// Whether the shards hold a query context of this handle's.
    announced: bool,
}

impl<S: PageStore> Clone for ShardedBufferPool<S> {
    /// Another handle to the same pool, with an announcer id of its
    /// own and nothing announced yet.
    fn clone(&self) -> Self {
        ShardedBufferPool {
            shards: Arc::clone(&self.shards),
            store: Arc::clone(&self.store),
            capacity: self.capacity,
            chunk_pages: self.chunk_pages,
            uses_query_context: self.uses_query_context,
            metrics: self.metrics.clone(),
            // Relaxed: the counter hands out distinct numbers and
            // publishes nothing else.
            announcer: self.next_announcer.fetch_add(1, Ordering::Relaxed),
            next_announcer: Arc::clone(&self.next_announcer),
            announced: false,
        }
    }
}

impl<S: PageStore> Drop for ShardedBufferPool<S> {
    /// Retires this handle's announcement, so the pages only its last
    /// query valued fall to 0 in every shard.
    fn drop(&mut self) {
        if self.announced {
            self.begin_query(&IdMap::default());
        }
    }
}

impl<S: PageStore> ShardedBufferPool<S> {
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
    pub fn new(
        store: Arc<S>,
        total_frames: usize,
        policy: PolicyKind,
        shards: usize,
    ) -> IrResult<Self> {
        let chunk_pages = (total_frames / shards.max(1) / 2).max(1) as u32;
        ShardedBufferPool::with_chunk_pages(store, total_frames, policy, shards, chunk_pages)
    }

    /// [`new`](Self::new) with an explicit routing-chunk size.
    /// `chunk_pages = 1` reproduces the original per-page scatter
    /// (every page hashed independently); larger chunks keep longer
    /// list prefixes on one shard. Exposed for tests and tuning.
    ///
    /// # Errors
    /// As [`new`](Self::new), plus [`IrError::InvalidConfig`] when
    /// `chunk_pages` is zero.
    pub fn with_chunk_pages(
        store: Arc<S>,
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
                "sharded pool needs at least one shard".into(),
            ));
        }
        if shards > total_frames {
            return Err(IrError::InvalidConfig(format!(
                "{shards} shards over {total_frames} frames: every shard needs at least one frame"
            )));
        }
        if chunk_pages == 0 {
            return Err(IrError::InvalidConfig(
                "sharded pool needs a non-zero routing chunk".into(),
            ));
        }
        let base = total_frames / shards;
        let extra = total_frames % shards;
        let mut uses_query_context = false;
        let pools = (0..shards)
            .map(|i| {
                let capacity = base + usize::from(i < extra);
                BufferManager::new(Arc::clone(&store), capacity, policy).map(|manager| {
                    uses_query_context = manager.uses_query_context();
                    Shard::new(manager)
                })
            })
            .collect::<IrResult<Vec<_>>>()?;
        Ok(ShardedBufferPool {
            shards: pools.into(),
            store,
            capacity: total_frames,
            chunk_pages,
            uses_query_context,
            metrics: ShardMetrics::new(),
            announcer: 0,
            next_announcer: Arc::new(AtomicU32::new(1)),
            announced: false,
        })
    }

    /// The shard `id` routes to: `(term, page / chunk_pages)` hashed
    /// with [`splitmix64`] — a fixed map, so shard contents are
    /// reproducible run to run (unlike `DefaultHasher`, whose keys are
    /// randomized per process). A whole chunk of a list shares one
    /// shard, so a prefix scan of at most
    /// [`chunk_pages`](Self::chunk_pages) pages —
    /// `ReadPlan::for_term_pages` always plans a prefix — touches
    /// exactly one shard.
    #[inline]
    pub fn shard_of(&self, id: PageId) -> usize {
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

    /// Pages per routing chunk.
    #[inline]
    pub fn chunk_pages(&self) -> u32 {
        self.chunk_pages
    }

    /// Locks shard `s` exclusively. The uncontended fast path is a
    /// bare `try_lock`; only a failed attempt pays for the clock reads
    /// and the contention counters, retries for [`SPIN_BEFORE_PARK`],
    /// and parks after that.
    fn lock(&self, s: usize) -> MutexGuard<'_, BufferManager<Arc<S>>> {
        let manager = &self.shards[s].manager;
        if let Some(guard) = sync::try_lock(manager) {
            return guard;
        }
        self.metrics.contended_locks.inc();
        let started = Instant::now();
        let guard = loop {
            std::hint::spin_loop();
            if let Some(guard) = sync::try_lock(manager) {
                break guard;
            }
            if started.elapsed() >= SPIN_BEFORE_PARK {
                break sync::lock(manager);
            }
        };
        let waited_ns = (started.elapsed().as_nanos() as u64).max(1);
        self.metrics.lock_wait_ns.record(waited_ns);
        crate::waits::charge_lock(waited_ns);
        guard
    }

    /// Serves the longest resident *prefix* of a one-shard run of plan
    /// entries, appending the hits to `out` in plan order, and returns
    /// how many entries were served — with the shard's mutex guard when
    /// the shard [consumes hits](BufferManager::consumes_hits): such a
    /// shard serves the prefix under its mutex through
    /// [`BufferManager::serve_hits`], paying the policy and the
    /// observer as it goes. Any other shard serves the [hit
    /// run](serve_hit_run) on its frame table, under the read lock
    /// alone. Either way the prefix is exactly the hits the exclusive
    /// path would have served before its first miss, so a caller that
    /// hands the remainder to [`BufferManager::fetch_batch_tail`]
    /// reproduces the locked path's accounting event for event. A
    /// fully-resident run also records its batch metrics here, since
    /// the tail never runs.
    fn serve_resident_prefix(
        &self,
        s: usize,
        entries: &[PlanEntry],
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> (usize, Option<MutexGuard<'_, BufferManager<Arc<S>>>>) {
        let shard = &self.shards[s];
        // Acquire pairs with `with_shard`'s Release store: a thread
        // that sees the flag set by an attach sees the attach.
        let mut locked = shard
            .consumes_hits
            .load(Ordering::Acquire)
            .then(|| self.lock(s));
        let served = match locked.as_deref_mut() {
            Some(manager) => manager.serve_hits(entries, out),
            None => serve_hit_run(&shard.frames, &shard.metrics, entries, out),
        };
        if served == entries.len() {
            shard.metrics.batches.inc();
            shard.metrics.batch_pages.record(entries.len() as u64);
        }
        (served, locked)
    }

    /// The maximal run of leading `entries` that route to one shard:
    /// that shard, and the run's length. A one-shard pool is one run
    /// whatever the plan, and so is an empty plan (on shard 0: it still
    /// counts one empty batch, as on the reference pool).
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

    /// Staging at a plan's first miss, as the reference pool stages:
    /// [`staged_ids`] of `entries` — the plan from that miss on, across
    /// every shard it routes to — and of the plan's lookahead, each
    /// page's residency asked of its owner shard's frame table under
    /// that read lock alone, handed to the store in one submit. On a
    /// shard whose hits have no consumer it runs before the miss's
    /// shard is locked.
    fn stage(&self, entries: &[PlanEntry], lookahead: &[(TermId, u32)]) {
        if self.store.overlap_depth() <= 1 {
            return;
        }
        let staged = staged_ids(entries, lookahead, |id| {
            sync::read(&self.shards[self.shard_of(id)].frames).contains_key(&id)
        });
        self.store.submit(&staged);
    }

    /// Runs `f` with shard `s` locked — for operations the pool
    /// surface does not cover (observers, per-shard metrics). The one
    /// way to a shard's `&mut BufferManager`, so also where the shard
    /// re-reads whether its hits have a consumer: an observer attached
    /// here is owed every hit served after this returns.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&mut BufferManager<Arc<S>>) -> R) -> R {
        let mut manager = self.lock(s);
        let result = f(&mut manager);
        // `f` may have attached or detached an observer: refresh what
        // the lock-light path reads, still under the shard mutex.
        self.shards[s]
            .consumes_hits
            .store(manager.consumes_hits(), Ordering::Release);
        result
    }

    /// Number of shards (`P`).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Pool capacity in frames, summed over shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames in use, summed over shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).len()).sum()
    }

    /// `true` when no shard holds a page.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|s| self.lock(s).is_empty())
    }

    /// One shard's counter snapshot.
    pub fn shard_stats(&self, s: usize) -> BufferStats {
        self.lock(s).stats()
    }

    /// Pool counters summed over every shard.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in 0..self.shards.len() {
            total += self.lock(s).stats();
        }
        total
    }

    /// Sum of `f` over every shard's [`BufferManager`] (lock per
    /// shard) — the rollup primitive behind the totals below.
    fn sum_shards(&self, f: impl Fn(&BufferManager<Arc<S>>) -> u64) -> u64 {
        (0..self.shards.len()).map(|s| f(&self.lock(s))).sum()
    }

    /// Store reads re-attempted after transient failures, pool-wide.
    pub fn retries(&self) -> u64 {
        self.sum_shards(|bm| bm.metrics().retries.get())
    }

    /// Fetches abandoned after exhausting the retry budget, pool-wide.
    pub fn gave_up(&self) -> u64 {
        self.sum_shards(|bm| bm.metrics().gave_up.get())
    }

    /// Torn deliveries rejected by checksum verification, pool-wide.
    pub fn torn_pages(&self) -> u64 {
        self.sum_shards(|bm| bm.metrics().torn_pages.get())
    }

    /// The pool-level contention counters (lock waits, batch splits).
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    /// Sets the store-read retry policy on every shard.
    pub fn set_fetch_policy(&self, policy: FetchPolicy) {
        for s in 0..self.shards.len() {
            self.lock(s).set_fetch_policy(policy);
        }
    }

    /// Empties every shard (statistics survive).
    pub fn flush(&self) {
        for s in 0..self.shards.len() {
            self.lock(s).flush();
        }
    }

    /// Zeroes every shard's buffer counters and the pool's contention
    /// counters (histograms keep their observations).
    pub fn reset_stats(&self) {
        for s in 0..self.shards.len() {
            self.lock(s).reset_stats();
        }
        self.metrics.contended_locks.reset();
        self.metrics.batch_splits.reset();
    }
}

impl<S: PageStore> QueryBuffer for ShardedBufferPool<S> {
    /// Walks the plan once, in plan order, cutting it into maximal runs
    /// of consecutive entries that route to one shard, and serves each
    /// run as a one-shard plan: its resident prefix (lock-light unless
    /// the shard consumes hits), the remainder (first miss onward)
    /// under the shard mutex, results appended straight to `out`. The
    /// plan's first miss stages the rest of the plan first. An error
    /// ends the walk; everything before it keeps its effects and its
    /// place in `out`.
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        out.clear();
        let mut rest = plan.entries();
        let mut staged = false;
        loop {
            let (s, len) = self.leading_run(rest);
            let (run, tail) = rest.split_at(len);
            let (served, locked) = self.serve_resident_prefix(s, run, out);
            if served < run.len() {
                if !staged {
                    staged = true;
                    self.stage(&rest[served..], plan.lookahead());
                }
                locked
                    .unwrap_or_else(|| self.lock(s))
                    .fetch_batch_tail(run, served, out)?;
            }
            if tail.is_empty() {
                return Ok(());
            }
            // Counted once per plan, at its first cut.
            if rest.len() == plan.len() {
                self.metrics.batch_splits.inc();
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
        for shard in self.shards.iter() {
            let counters = sync::read(&shard.terms);
            for (slot, term) in totals.iter_mut().zip(terms) {
                *slot += counters.get(term).copied().unwrap_or(0);
            }
        }
        totals
    }

    /// Announces this handle's query to **every** shard, in place of
    /// whatever the handle announced before, so each shard's policy
    /// re-values its own residents of the terms whose weight changed —
    /// the striped equivalent of the paper's global RAP re-valuation,
    /// holding each shard's lock only for that. Other handles'
    /// announcements stand. For policies that ignore query context
    /// (everything but RAP) the announcement is a no-op per shard, so
    /// it is skipped without taking a single lock.
    fn begin_query(&mut self, weights: &IdMap<TermId, f64>) {
        if !self.uses_query_context {
            return;
        }
        for s in 0..self.shards.len() {
            self.lock(s).begin_query_as(self.announcer, weights);
        }
        self.announced = !weights.is_empty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::observe::BufferEvent;
    use crate::query_buffer::QueryBufferExt;
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

    /// An observer whose log the test can read while the shard's
    /// manager owns the observer box.
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
            ShardedBufferPool::new(Arc::clone(&s), 0, PolicyKind::Lru, 1),
            Err(IrError::EmptyBufferPool)
        ));
        assert!(matches!(
            ShardedBufferPool::new(Arc::clone(&s), 4, PolicyKind::Lru, 0),
            Err(IrError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBufferPool::new(Arc::clone(&s), 3, PolicyKind::Lru, 4),
            Err(IrError::InvalidConfig(_))
        ));
        let pool = ShardedBufferPool::new(s, 7, PolicyKind::Lru, 4).unwrap();
        assert_eq!(pool.n_shards(), 4);
        assert_eq!(pool.capacity(), 7, "quotas must sum to the total");
    }

    /// `w_{q,t} = w` for the one term `t`.
    fn one_term(t: u32, w: f64) -> IdMap<TermId, f64> {
        [(TermId(t), w)].into_iter().collect()
    }

    #[test]
    fn clones_are_handles_to_one_pool() {
        let mut a = ShardedBufferPool::new(store(3, 4), 4, PolicyKind::Rap, 1).unwrap();
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
        assert!(!a.with_shard(0, |bm| bm.is_resident(pid(1, 1))));
        assert_eq!(a.resident_pages(TermId(0)), 2);
    }

    #[test]
    fn a_dropped_handles_terms_go_first() {
        let mut a = ShardedBufferPool::new(store(2, 4), 4, PolicyKind::Rap, 1).unwrap();
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
        assert!(!a.with_shard(0, |bm| bm.is_resident(pid(1, 1))));
        assert_eq!(a.resident_pages(TermId(0)), 3);
    }

    #[test]
    fn quota_split_differs_by_at_most_one() {
        let pool = ShardedBufferPool::new(store(1, 4), 10, PolicyKind::Lru, 4).unwrap();
        let caps: Vec<usize> = (0..4)
            .map(|s| pool.with_shard(s, |bm| bm.capacity()))
            .collect();
        assert_eq!(caps.iter().sum::<usize>(), 10);
        assert_eq!(*caps.iter().max().unwrap() - *caps.iter().min().unwrap(), 1);
    }

    #[test]
    fn page_to_shard_map_is_fixed_and_total() {
        let pool = ShardedBufferPool::new(store(4, 16), 8, PolicyKind::Lru, 4).unwrap();
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
        let mut pool = ShardedBufferPool::new(Arc::clone(&s), 64, PolicyKind::Lru, 4).unwrap();
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
                    let resident = pool.with_shard(shard, |bm| bm.is_resident(pid(t, p)));
                    assert_eq!(resident, shard == owner);
                }
            }
        }
        assert_eq!(pool.len(), 16);
        assert_eq!(pool.resident_pages(TermId(0)), 8);
    }

    #[test]
    fn single_shard_batch_is_one_critical_section() {
        let mut pool = ShardedBufferPool::new(store(1, 6), 8, PolicyKind::Lru, 1).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 6);
        let out = pool.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Miss));
        assert_eq!(pool.metrics().batch_splits.get(), 0);
        assert_eq!(pool.with_shard(0, |bm| bm.metrics().batches.get()), 1);
    }

    #[test]
    fn cross_shard_batch_reassembles_plan_order() {
        // chunk_pages = 1 pins the original per-page scatter, so this
        // plan deterministically spans several shards (headroom per
        // shard: no eviction regardless of hash skew).
        let mut pool =
            ShardedBufferPool::with_chunk_pages(store(2, 8), 32, PolicyKind::Lru, 4, 1).unwrap();
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
        let mut pool = ShardedBufferPool::new(store(2, 8), 6, PolicyKind::Rap, 2).unwrap();
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
        for shard in 0..2 {
            pool.with_shard(shard, |bm| {
                let t0 = bm.resident_pages(TermId(0));
                let t1 = bm.resident_pages(TermId(1));
                assert_eq!((t0 + t1) as usize, bm.len());
            });
        }
    }

    #[test]
    fn concurrent_hits_on_distinct_shards_do_not_contend_logically() {
        // 128 frames = 32 per shard: hash skew can never force an
        // eviction, so every page loads exactly once.
        let pool = ShardedBufferPool::new(store(4, 8), 128, PolicyKind::Lru, 4).unwrap();
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
        // Per-shard conservation: hits + loads == requests on each
        // shard's own counters.
        for shard in 0..4 {
            let ss = pool.shard_stats(shard);
            assert_eq!(ss.hits + ss.misses, ss.requests, "shard {shard}");
        }
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
        let mut pool = ShardedBufferPool::new(faulty, 8, PolicyKind::Lru, 4).unwrap();
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
            ShardedBufferPool::with_chunk_pages(store(1, 8), 32, PolicyKind::Lru, 4, 1).unwrap();
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
        assert!(pool.with_shard(pool.shard_of(first), |bm| bm.is_resident(first)));
    }

    #[test]
    fn term_routed_scan_locks_one_shard() {
        // 64 frames / 4 shards → chunk_pages = 8: a whole-list prefix
        // scan of any term routes to exactly one shard, cold or warm.
        let mut pool = ShardedBufferPool::new(store(4, 8), 64, PolicyKind::Lru, 4).unwrap();
        assert_eq!(pool.chunk_pages(), 8);
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
            ShardedBufferPool::with_chunk_pages(store(1, 8), 32, PolicyKind::Lru, 4, 2).unwrap();
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
                ShardedBufferPool::new(store(8, 1), 2 * shards, PolicyKind::Lru, shards).unwrap();
            let s = pool.shard_of(pid(0, 0));
            let [a, b, c]: [PageId; 3] = (0..8)
                .map(|t| pid(t, 0))
                .filter(|&id| pool.shard_of(id) == s)
                .take(3)
                .collect::<Vec<_>>()
                .try_into()
                .expect("three of eight heads share a shard");
            let log = SharedLog::default();
            pool.with_shard(s, |bm| bm.set_observer(Box::new(log.clone())));
            for id in [a, b, a, c] {
                pool.fetch(id).unwrap();
            }
            assert!(
                pool.with_shard(s, |bm| bm.is_resident(a) && !bm.is_resident(b)),
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
        let mut pool = ShardedBufferPool::new(store(2, 8), 32, PolicyKind::Rap, 2).unwrap();
        let plans = [0, 1].map(|t| ReadPlan::for_term_pages(TermId(t), 8));
        for plan in &plans {
            pool.fetch_batch(plan).unwrap();
        }
        let held: Vec<_> = (0..2).map(|s| pool.lock(s)).collect();
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
        // `with_shard` refreshes the shard's consumer flag: without
        // that, a RAP pool would go on serving its hits lock-light
        // after the attach and the log below would stay empty.
        let mut pool = ShardedBufferPool::new(store(1, 4), 8, PolicyKind::Rap, 1).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 4);
        pool.fetch_batch(&plan).unwrap(); // four loads
        pool.fetch_batch(&plan).unwrap(); // four hits nobody consumes
        let log = SharedLog::default();
        pool.with_shard(0, |bm| bm.set_observer(Box::new(log.clone())));
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
        let detached = pool.with_shard(0, |bm| bm.take_observer());
        assert!(detached.is_some());
        assert!(!pool.shards[0].consumes_hits.load(Ordering::Acquire));
        pool.fetch_batch(&plan).unwrap();
        assert_eq!(log.0.lock().unwrap().len(), 4);
        assert_eq!(pool.stats().hits, 12);
    }

    #[test]
    fn resident_pages_many_matches_per_term_loop() {
        let mut pool = ShardedBufferPool::new(store(4, 8), 64, PolicyKind::Lru, 4).unwrap();
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

    #[test]
    fn staged_plans_match_unstaged_ones_per_shard() {
        use crate::disk::tests::{StagingProbe, StoreCall};
        // Twin pools over twin stores, one of which can overlap.
        // Counters and device traffic must be identical, and
        // the overlapping store must have been handed each cold plan
        // whole — one submit, in plan order, ahead of its demand
        // reads — and nothing for a warm one.
        let (sa, sb) = (store(4, 8), store(4, 8));
        let mut plain = ShardedBufferPool::new(Arc::clone(&sa), 64, PolicyKind::Lru, 4).unwrap();
        let probe = Arc::new(StagingProbe::new(Arc::clone(&sb)));
        let mut staged =
            ShardedBufferPool::new(Arc::clone(&probe), 64, PolicyKind::Lru, 4).unwrap();
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
        for s in 0..4 {
            assert_eq!(staged.shard_stats(s), plain.shard_stats(s), "shard {s}");
        }
        assert_eq!(probe.calls(), expected_calls);
    }

    #[test]
    fn contended_lock_wait_records_nanoseconds() {
        let mut pool = ShardedBufferPool::new(store(1, 4), 8, PolicyKind::Lru, 1).unwrap();
        pool.fetch(pid(0, 0)).unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let holder = pool.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                holder.with_shard(0, |_| {
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
