//! The I/O scheduler: a submission/completion queue over any
//! [`PageStore`], pricing every read with a seek+bandwidth latency
//! model and letting submitted reads complete while the caller computes.
//!
//! The model is the classic shared-disk shape: a request costs
//! `transfer_us`, plus `seek_us` when the head has to move (the read
//! is not the physical successor of the previous one — the same
//! sequential/random rule [`DiskSim`](crate::DiskSim) uses for its
//! counters). The device exposes `queue_depth` channels, each serving
//! its reads one after another, and it is work-conserving: every
//! physical read — staged by [`submit`](PageStore::submit) or demanded
//! by [`read_page`](PageStore::read_page) — goes to the channel that
//! frees up first and starts once that channel is free. Channels that
//! are free alike (every idle channel, say) tie, and the tie goes to
//! the first of them in turn from the channel after the last one used,
//! so an idle device still deals its reads round robin. A plan's
//! transfers therefore never queue behind its own seek while another
//! channel idles. Channels keep their backlog across calls, so a read
//! staged ahead of need occupies its channel like any other and delays
//! whatever queues behind it. A demand read that claims a staged page
//! waits only for what is still in flight. Depth 1 therefore
//! degenerates to a strictly serial disk (total wait = sum of costs),
//! while depth `d` brings a submitted plan's wait down to what its
//! busiest channel serves — the effect the
//! `serial_disk_pays_the_sum_deeper_queues_pay_the_max` and
//! `a_read_takes_the_channel_that_frees_up_first` tests below and
//! `ir-engine`'s `storage_backend` suite pin.
//!
//! Every wait is also charged to the thread that waited
//! ([`thread_waits`](crate::thread_waits)), demand reads apart from
//! staged completions, so a query's share of a device that several
//! sessions drive is exact.
//!
//! One µs timeline serves both clocks ([`ClockKind`]): the *virtual*
//! clock advances only by the waits it accounts in `io_wait_us`,
//! without sleeping (deterministic — two identical runs report
//! identical waits); the *real* clock is µs since construction, and
//! every read blocks until its modeled completion on the timeline, so
//! queue depth and read-ahead show up in wall time. The wait ends at
//! that deadline, so the inner store's own read time falls inside it
//! and no timer slack is added after it: on the real clock
//! `io_wait_us` equals the time callers block.
//!
//! **Determinism contract**: with `queue_depth <= 1` submission
//! is a no-op and every read is forwarded to the inner store in
//! request order, so the scheduler is invisible to the event stream;
//! zero the model and it is invisible to the accounting too.

use crate::disk::PageStore;
use crate::page::Page;
use ir_observe::{Counter, Histogram, IO_LATENCY_US_BOUNDS};
use ir_types::{sync, ClockKind, IdMap, IrResult, PageId};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Seek + bandwidth pricing of one page read, dslab-`SharedDisk`
/// style: every request pays the transfer, and a head movement pays
/// the seek on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of repositioning the head, µs. Charged when the request is
    /// not the physical successor of the previous physical read.
    pub seek_us: u64,
    /// Cost of transferring one page, µs. Charged on every request.
    pub transfer_us: u64,
}

impl LatencyModel {
    /// The free disk: every read completes instantly. This is the
    /// model under which the scheduler must be observationally
    /// invisible.
    pub const ZERO: LatencyModel = LatencyModel {
        seek_us: 0,
        transfer_us: 0,
    };

    /// True when no read can ever cost anything.
    pub fn is_zero(&self) -> bool {
        self.seek_us == 0 && self.transfer_us == 0
    }

    /// Modeled device time for one request, µs.
    pub fn cost_us(&self, sequential: bool) -> u64 {
        self.transfer_us + if sequential { 0 } else { self.seek_us }
    }
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct IoConfig {
    /// Number of device channels requests are spread across. Depth 1
    /// is a strictly serial disk and disables submission.
    pub queue_depth: usize,
    /// The per-request pricing model.
    pub model: LatencyModel,
    /// Whether each read blocks until its modeled completion on the
    /// timeline ([`ClockKind::Real`]) or its wait is only accounted
    /// ([`ClockKind::Virtual`]).
    pub clock: ClockKind,
}

impl Default for IoConfig {
    /// Depth 1, zero cost, virtual clock: the configuration under
    /// which the scheduler is event-for-event invisible.
    fn default() -> Self {
        IoConfig {
            queue_depth: 1,
            model: LatencyModel::ZERO,
            clock: ClockKind::Virtual,
        }
    }
}

/// Instruments exposed by an [`IoScheduler`] (its queue depth is in
/// [`IoScheduler::config`]).
#[derive(Clone, Debug)]
pub struct IoMetrics {
    /// Modeled device time per demand-side request, µs (prefetch
    /// device time is excluded: it is the part callers never wait on).
    pub latency_us: Histogram,
    /// Demand reads answered from the prefetch cache — each one is a
    /// read whose transfer overlapped with compute.
    pub overlap_hits: Counter,
    /// Demand reads that had to go to the device.
    pub demand_reads: Counter,
    /// Cumulative modeled wait imposed on callers, µs: accounted under
    /// the virtual clock; under the real one each read blocks until its
    /// modeled completion on the timeline, so this equals the time
    /// callers block.
    pub io_wait_us: Counter,
    /// Completions an earlier submission staged that a later one
    /// pushed out of the bounded prefetch cache before any demand read
    /// claimed them.
    pub prefetch_evicted: Counter,
    /// Prefetched pages whose device read never served a demand from
    /// the cache: capacity evictions plus copies discarded by the
    /// torn-page re-verification. Each one is a speculative read the
    /// device performed for nothing.
    pub prefetch_wasted: Counter,
}

/// A page the scheduler read ahead of demand.
#[derive(Debug)]
struct Prefetched {
    page: Page,
    /// When its read completes on the timeline, µs.
    ready_at_us: u64,
    /// The submission that staged it (submissions count from 1).
    submit: u64,
}

#[derive(Debug)]
struct SchedState {
    /// Head position after the last *physical* read (demand or
    /// prefetch), for the sequential/random pricing decision.
    last: Option<PageId>,
    /// The virtual clock, µs: advances by each wait it accounts (read
    /// only under [`ClockKind::Virtual`]).
    now_us: u64,
    /// When each channel finishes the reads queued on it, µs on the
    /// timeline.
    free_at: Vec<u64>,
    /// Where the search for the next physical read's channel starts:
    /// the channel after the last one used, so ties rotate.
    next_ch: usize,
    /// Submissions so far.
    submits: u64,
    cache: IdMap<PageId, Prefetched>,
    /// Insertion order of `cache`, for capacity eviction.
    order: VecDeque<PageId>,
}

/// Prefetch cache capacity: enough for several plan tails, small
/// enough that the scheduler never shadows the buffer pool's job. One
/// submission may stage more: capacity pressure evicts only what
/// earlier submissions staged and this one does not name.
const PREFETCH_CAP: usize = 64;

/// How far ahead of a real-clock deadline a wait stops sleeping and
/// spins instead. `thread::sleep` returns late by the kernel's timer
/// slack (50 µs by default on Linux) plus the wake-up: for 400–500 µs
/// sleeps on a 2-vCPU Linux VM about 60 µs at p50 and 110 µs at p99.
/// Sleeping to one tail short of the deadline and spinning the rest
/// ends a wait at its deadline, for at most one tail of CPU per wait.
/// The tail spins rather than yields: with a CPU-bound thread on every
/// core, `yield_now` hands the core away for a whole scheduler tick
/// (≈ 4 ms a read on that VM), while a spin keeps it.
const SPIN_TAIL: Duration = Duration::from_micros(100);

/// Blocks the calling thread until `deadline`: sleeps to [`SPIN_TAIL`]
/// short of it, then spins until it has passed.
fn block_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if left > SPIN_TAIL {
        thread::sleep(left - SPIN_TAIL);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// A latency-modeling submission/completion queue wrapped around an
/// inner [`PageStore`].
///
/// All scheduling state sits behind one mutex — the single device
/// being modeled — so concurrent sessions serialize here exactly as
/// they would on one spindle, and the accounting order equals the
/// request order.
#[derive(Debug)]
pub struct IoScheduler<S> {
    inner: S,
    config: IoConfig,
    metrics: IoMetrics,
    /// Zero of the real clock's timeline.
    epoch: Instant,
    state: Mutex<SchedState>,
}

impl<S: PageStore> IoScheduler<S> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: S, config: IoConfig) -> Self {
        let queue_depth = config.queue_depth.max(1);
        IoScheduler {
            inner,
            config: IoConfig {
                queue_depth,
                ..config
            },
            metrics: IoMetrics {
                latency_us: Histogram::with_bounds(&IO_LATENCY_US_BOUNDS),
                overlap_hits: Counter::new(),
                demand_reads: Counter::new(),
                io_wait_us: Counter::new(),
                prefetch_evicted: Counter::new(),
                prefetch_wasted: Counter::new(),
            },
            epoch: Instant::now(),
            state: Mutex::new(SchedState {
                last: None,
                now_us: 0,
                free_at: vec![0; queue_depth],
                next_ch: 0,
                submits: 0,
                cache: IdMap::default(),
                order: VecDeque::new(),
            }),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> IoConfig {
        self.config
    }

    /// The scheduler's instruments.
    pub fn metrics(&self) -> &IoMetrics {
        &self.metrics
    }

    /// Staged completions no demand read has claimed (yet): the pages
    /// in the staging cache.
    pub fn staged_pages(&self) -> usize {
        sync::lock(&self.state).cache.len()
    }

    /// Current reading of the timeline, µs: the virtual clock, or µs
    /// since construction under the real one.
    pub fn now_us(&self) -> u64 {
        self.clock_us(&sync::lock(&self.state))
    }

    fn clock_us(&self, state: &SchedState) -> u64 {
        match self.config.clock {
            ClockKind::Virtual => state.now_us,
            ClockKind::Real => self.epoch.elapsed().as_micros() as u64,
        }
    }

    fn classify(last: &mut Option<PageId>, id: PageId) -> bool {
        let sequential = matches!(
            *last,
            Some(prev) if prev.term == id.term && prev.page.0 + 1 == id.page.0
        );
        *last = Some(id);
        sequential
    }

    /// Prices a physical read of `id` and queues it on the channel that
    /// frees up first, behind whatever that channel still has in flight
    /// at `now` (ties go to the first in turn from `next_ch`): returns
    /// its cost and when it completes, µs.
    fn enqueue(&self, state: &mut SchedState, id: PageId, now: u64) -> (u64, u64) {
        let cost = self
            .config
            .model
            .cost_us(Self::classify(&mut state.last, id));
        let n = state.free_at.len();
        let ch = (0..n)
            .map(|i| (state.next_ch + i) % n)
            .min_by_key(|&ch| state.free_at[ch].max(now))
            .expect("a scheduler has at least one channel");
        state.next_ch = (ch + 1) % n;
        let done = state.free_at[ch].max(now) + cost;
        state.free_at[ch] = done;
        (cost, done)
    }
}

impl<S: PageStore> PageStore for IoScheduler<S> {
    /// The one demand read: a staged completion costs only the part of
    /// its read still in flight; anything else goes to the device,
    /// queues on the channel that frees up first and waits until it
    /// completes. More than one channel at a time is reached only
    /// through [`submit`](PageStore::submit). The wait is charged to
    /// the calling thread, as a staged or a demand wait.
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        let mut state = sync::lock(&self.state);
        let now = self.clock_us(&state);
        let mut cached = state.cache.remove(&id);
        if cached.is_some() {
            state.order.retain(|p| *p != id);
        }
        // Integrity re-check: direct reads get the inner store's
        // per-read fault/checksum path; a cached completion must not
        // dodge it. Over a store that can deliver torn copies, a cached
        // page that fails verification is discarded and the request
        // falls through to a fresh demand read.
        if self.inner.can_tear() && cached.as_ref().is_some_and(|pf| !pf.page.is_intact()) {
            cached = None;
            // The speculative read bought nothing: the demand read
            // below re-reads the page from the device.
            self.metrics.prefetch_wasted.inc();
        }
        let staged = cached.is_some();
        let (page, done) = match cached {
            Some(pf) => {
                self.metrics.overlap_hits.inc();
                (pf.page, pf.ready_at_us)
            }
            None => {
                // Same contract as the stores underneath: errors cost
                // nothing.
                let page = self.inner.read_page(id)?;
                self.metrics.demand_reads.inc();
                let (cost, done) = self.enqueue(&mut state, id, now);
                self.metrics.latency_us.record(cost);
                (page, done)
            }
        };
        let wait = done.saturating_sub(now);
        state.now_us += wait;
        drop(state);
        if wait > 0 {
            self.metrics.io_wait_us.add(wait);
            crate::waits::charge_io(wait, staged);
            if self.config.clock == ClockKind::Real {
                block_until(self.epoch + Duration::from_micros(done));
            }
        }
        Ok(page)
    }

    fn can_tear(&self) -> bool {
        self.inner.can_tear()
    }

    /// Reads `ids` ahead of demand, queues each read on the channels
    /// like any other, parks the completions in the bounded staging
    /// cache, and charges no one a wait: the demand read that claims a
    /// staged page pays only the residual. No-op at depth 1 — a serial
    /// disk has no spare channel to read ahead on, which is what makes
    /// submit + demand provably identical to the demand read alone
    /// there. Read failures are dropped here and resurface on the
    /// demand read. A page already staged is not read again: it joins
    /// this submission, stamp and place in the eviction order, since
    /// this submission's plan may be the one that claims it.
    fn submit(&self, ids: &[PageId]) {
        if self.config.queue_depth <= 1 || ids.is_empty() {
            return;
        }
        let mut guard = sync::lock(&self.state);
        let now = self.clock_us(&guard);
        let state = &mut *guard;
        state.submits += 1;
        let submit = state.submits;
        for &id in ids {
            if let Some(staged) = state.cache.get_mut(&id) {
                // Already staged: this submission now owns it, so its
                // own capacity pressure below cannot evict it as an
                // earlier submission's page before its demand claims it.
                staged.submit = submit;
                if let Some(at) = state.order.iter().position(|p| *p == id) {
                    state.order.remove(at);
                }
                state.order.push_back(id);
                continue;
            }
            let Ok(page) = self.inner.read_page(id) else {
                // Don't cache failures; the demand read will hit the
                // same error and report it through the normal path.
                break;
            };
            let (_, ready_at_us) = self.enqueue(state, id, now);
            if self.inner.can_tear() && !page.is_intact() {
                // A torn copy must never enter the completion cache —
                // served from there it would skip the per-read
                // fault/checksum path direct reads get. The device
                // still did the read; the demand read re-runs the
                // store's fault machinery.
                self.metrics.prefetch_wasted.inc();
                continue;
            }
            // Capacity pressure evicts only what an earlier submission
            // staged: a plan longer than the cache must not push out
            // its own first pages before its demand reads claim them.
            while state.order.len() >= PREFETCH_CAP {
                let oldest = state.order[0];
                if state.cache[&oldest].submit == submit {
                    break;
                }
                state.order.pop_front();
                state.cache.remove(&oldest);
                self.metrics.prefetch_evicted.inc();
                self.metrics.prefetch_wasted.inc();
            }
            state.cache.insert(
                id,
                Prefetched {
                    page,
                    ready_at_us,
                    submit,
                },
            );
            state.order.push_back(id);
        }
    }

    fn overlap_depth(&self) -> usize {
        self.config.queue_depth
    }

    fn io_wait_us(&self) -> u64 {
        self.metrics.io_wait_us.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use ir_types::{Posting, TermId};
    use std::sync::Arc;

    fn store(pages_per_term: u32) -> DiskSim {
        let lists = (0..3u32)
            .map(|t| {
                (0..pages_per_term)
                    .map(|p| {
                        let postings: Vec<Posting> =
                            (0..3).map(|d| Posting::new(d, d + 1)).collect();
                        Page::new(PageId::new(TermId(t), p), postings.into(), 1.5)
                    })
                    .collect()
            })
            .collect();
        DiskSim::new(lists)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    fn ids(n: u32) -> Vec<PageId> {
        (0..n).map(|p| pid(0, p)).collect()
    }

    /// Demands `ids` one page at a time, as the buffer pool does.
    fn read_each(store: &impl PageStore, ids: &[PageId]) -> Vec<IrResult<Page>> {
        ids.iter().map(|&id| store.read_page(id)).collect()
    }

    #[test]
    fn zero_model_depth_one_is_invisible() {
        let sched = IoScheduler::new(Arc::new(store(4)), IoConfig::default());
        let raw = store(4);
        let request = [pid(0, 0), pid(0, 1), pid(2, 3), pid(0, 2)];
        let a = read_each(&sched, &request);
        let b = read_each(&raw, &request);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.as_ref().unwrap().postings(),
                y.as_ref().unwrap().postings()
            );
        }
        assert_eq!(sched.inner().stats(), raw.stats());
        assert_eq!(sched.io_wait_us(), 0);
        assert_eq!(sched.now_us(), 0);
        // Submission is a no-op on a serial disk: no cache, no reads.
        sched.submit(&[pid(1, 0)]);
        assert_eq!(sched.inner().stats().reads, raw.stats().reads);
        assert_eq!(sched.metrics().overlap_hits.get(), 0);
    }

    #[test]
    fn serial_disk_pays_the_sum_deeper_queues_pay_the_max() {
        let model = LatencyModel {
            seek_us: 200,
            transfer_us: 50,
        };
        let batch = ids(4); // seq after the first: 200+50 + 3×50 = 400
        let qd = |depth| {
            let sched = IoScheduler::new(
                store(4),
                IoConfig {
                    queue_depth: depth,
                    model,
                    clock: ClockKind::Virtual,
                },
            );
            // What the pool does with a plan: stage it, then demand it.
            sched.submit(&batch);
            assert!(read_each(&sched, &batch).iter().all(Result::is_ok));
            sched.io_wait_us()
        };
        let serial = qd(1);
        assert_eq!(serial, 400);
        let four = qd(4);
        // One read a channel: {250, 50, 50, 50} → 250.
        assert_eq!(four, 250);
        assert!(four < serial, "depth must shorten the critical path");
        assert_eq!(qd(16), 250, "past the plan width, depth stops helping");
    }

    #[test]
    fn virtual_clock_is_deterministic_across_runs() {
        let run = || {
            let sched = IoScheduler::new(
                store(6),
                IoConfig {
                    queue_depth: 4,
                    model: LatencyModel {
                        seek_us: 120,
                        transfer_us: 30,
                    },
                    clock: ClockKind::Virtual,
                },
            );
            sched.submit(&[pid(1, 0), pid(1, 1)]);
            read_each(&sched, &ids(5));
            read_each(&sched, &[pid(1, 0), pid(1, 1), pid(2, 0)]);
            (
                sched.io_wait_us(),
                sched.now_us(),
                sched.metrics().overlap_hits.get(),
                sched.metrics().demand_reads.get(),
                sched.metrics().latency_us.sum(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn prefetched_pages_overlap_compute() {
        let sched = IoScheduler::new(
            store(4),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel {
                    seek_us: 100,
                    transfer_us: 25,
                },
                clock: ClockKind::Virtual,
            },
        );
        sched.submit(&ids(3));
        assert_eq!(
            sched.inner().stats().reads,
            3,
            "prefetch reads are physical"
        );
        assert_eq!(sched.io_wait_us(), 0, "nobody waited yet");
        // Demand the pages: they come from the cache, the only wait
        // is the still-in-flight residual.
        let out = read_each(&sched, &ids(3));
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(sched.metrics().overlap_hits.get(), 3);
        assert_eq!(sched.metrics().demand_reads.get(), 0);
        assert_eq!(sched.inner().stats().reads, 3, "no duplicate device reads");
        // Residual equals the slowest channel of the prefetch round.
        assert_eq!(sched.io_wait_us(), 125);
        // A second demand of the same pages goes to the device again.
        let again = read_each(&sched, &ids(3));
        assert!(again.iter().all(Result::is_ok));
        assert_eq!(sched.metrics().demand_reads.get(), 3);
    }

    #[test]
    fn errors_cost_nothing() {
        let sched = IoScheduler::new(
            store(2),
            IoConfig {
                queue_depth: 2,
                model: LatencyModel {
                    seek_us: 10,
                    transfer_us: 10,
                },
                clock: ClockKind::Virtual,
            },
        );
        assert!(sched.read_page(pid(0, 0)).is_ok());
        assert!(sched.read_page(pid(0, 9)).is_err());
        // Only the successful read was priced.
        assert_eq!(sched.metrics().latency_us.count(), 1);
        assert_eq!(sched.io_wait_us(), 20);
    }

    /// One list of `pages` single-posting pages.
    fn long_list(pages: u32) -> DiskSim {
        let list = (0..pages)
            .map(|p| Page::new(pid(0, p), vec![Posting::new(1, 1)].into(), 1.0))
            .collect();
        DiskSim::new(vec![list])
    }

    fn free_qd4(inner: DiskSim) -> IoScheduler<DiskSim> {
        IoScheduler::new(
            inner,
            IoConfig {
                queue_depth: 4,
                model: LatencyModel::ZERO,
                clock: ClockKind::Virtual,
            },
        )
    }

    /// `inner` behind a depth-4 scheduler on the virtual clock, seek
    /// 400 and transfer 100: the benchmark's device.
    fn benchmark_device<S: PageStore>(inner: S) -> IoScheduler<S> {
        IoScheduler::new(
            inner,
            IoConfig {
                queue_depth: 4,
                model: LatencyModel {
                    seek_us: 400,
                    transfer_us: 100,
                },
                clock: ClockKind::Virtual,
            },
        )
    }

    #[test]
    fn prefetch_cache_is_bounded() {
        let cap = PREFETCH_CAP as u32;
        let sched = free_qd4(long_list(cap + 8));
        sched.submit(&ids(cap));
        sched.submit(&(cap..cap + 8).map(|p| pid(0, p)).collect::<Vec<_>>());
        let state = sync::lock(&sched.state);
        assert_eq!(state.cache.len(), PREFETCH_CAP);
        assert_eq!(state.order.len(), PREFETCH_CAP);
        assert!(
            !state.cache.contains_key(&pid(0, 0)),
            "oldest entries were evicted"
        );
    }

    /// A submission longer than the cache keeps all of its own pages:
    /// capacity pressure only evicts what an earlier one staged.
    #[test]
    fn one_submission_never_evicts_its_own_pages() {
        let cap = PREFETCH_CAP as u32;
        let sched = free_qd4(long_list(cap + 8));
        sched.submit(&ids(cap + 8));
        assert_eq!(sync::lock(&sched.state).cache.len(), PREFETCH_CAP + 8);
        assert_eq!(sched.metrics().prefetch_evicted.get(), 0);
        // The next submission trims the earlier one's leftovers back
        // below the cap before it keeps its own page.
        sched.read_page(pid(0, 1)).unwrap();
        sched.submit(&[pid(0, 1)]);
        let state = sync::lock(&sched.state);
        assert_eq!(state.cache.len(), PREFETCH_CAP);
        assert_eq!(sched.metrics().prefetch_evicted.get(), 8);
        assert!(state.cache.contains_key(&pid(0, 1)), "its own page stays");
    }

    /// A page an earlier submission staged and this one names again
    /// joins this one: the pages this submission stages past the cap
    /// evict earlier submissions' pages, never it. Left with its old
    /// stamp at the front of the eviction order, it went first, and
    /// the demand read that claims it read it from the device again.
    #[test]
    fn a_submission_never_evicts_a_page_it_names_itself() {
        let cap = PREFETCH_CAP as u32;
        let sched = free_qd4(long_list(cap + 2));
        sched.submit(&[pid(0, 0)]);
        // Page 0 again, then cap + 1 pages nobody staged yet.
        sched.submit(&ids(cap + 2));
        assert_eq!(sched.metrics().prefetch_evicted.get(), 0);
        sched.read_page(pid(0, 0)).unwrap();
        assert_eq!(sched.metrics().overlap_hits.get(), 1, "claimed as staged");
        assert_eq!(sched.metrics().demand_reads.get(), 0);
        assert_eq!(
            sched.inner().stats().reads,
            u64::from(cap + 2),
            "one device read a page"
        );
    }

    /// A plan longer than the cache is read once: were its first
    /// staged pages pushed out before its demand reads claimed them,
    /// the device would read them twice and `prefetch_wasted` would
    /// count every one.
    #[test]
    fn a_plan_longer_than_the_cache_is_read_once() {
        use crate::policy::PolicyKind;
        use crate::BufferManager;
        use ir_types::ReadPlan;
        let sched = Arc::new(benchmark_device(long_list(70)));
        let mut pool = BufferManager::new(Arc::clone(&sched), 70, PolicyKind::Lru).unwrap();
        pool.fetch_batch(&ReadPlan::for_term_pages(TermId(0), 70))
            .unwrap();
        assert_eq!(pool.stats().misses, 70);
        assert_eq!(sched.inner().stats().reads, 70, "one device read a page");
        assert_eq!(sched.metrics().overlap_hits.get(), 70);
        assert_eq!(sched.metrics().prefetch_wasted.get(), 0);
    }

    /// Seeded `FaultStore`-over-`IoScheduler` regression: a torn copy
    /// delivered to the *prefetch* path must never be parked in the
    /// completion cache, where a later demand read would receive it
    /// without the per-read fault/checksum path direct reads get.
    #[test]
    fn torn_prefetch_is_never_served_from_the_cache() {
        use crate::fault::{FaultConfig, FaultStore};
        // torn_rate 1.0 with a consecutive cap of 1: the first read of
        // a page delivers a torn copy, the retry is clean.
        let sched = IoScheduler::new(
            FaultStore::new(
                store(4),
                FaultConfig {
                    seed: 5,
                    torn_rate: 1.0,
                    max_consecutive_faults: 1,
                    ..FaultConfig::DISABLED
                },
            ),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel {
                    seek_us: 100,
                    transfer_us: 25,
                },
                clock: ClockKind::Virtual,
            },
        );
        assert!(sched.can_tear());
        sched.submit(&[pid(0, 0)]);
        assert!(
            sync::lock(&sched.state).cache.is_empty(),
            "a torn prefetch completion entered the cache"
        );
        // The demand read re-runs the store's fault machinery; the
        // consecutive-fault cap guarantees this second read is clean.
        let page = sched.read_page(pid(0, 0)).unwrap();
        assert!(page.is_intact(), "demand read served a torn page");
        assert_eq!(sched.metrics().overlap_hits.get(), 0);
        assert_eq!(sched.inner().stats().torn_faults, 1);
    }

    /// Defense in depth on the service side: even a torn page that
    /// somehow sits in the completion cache is discarded and re-read,
    /// not served.
    #[test]
    fn cached_completions_are_reverified_on_demand() {
        use crate::fault::{FaultConfig, FaultStore};
        // A store that *can* tear (rate > 0) but whose draws never
        // fire at this seed, so every physical read is delivered
        // clean and the only torn page is the one we plant.
        let sched = IoScheduler::new(
            FaultStore::new(
                store(4),
                FaultConfig {
                    seed: 9,
                    torn_rate: 1e-12,
                    ..FaultConfig::DISABLED
                },
            ),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel::ZERO,
                clock: ClockKind::Virtual,
            },
        );
        assert!(sched.can_tear());
        {
            let torn = store(4).read_page(pid(0, 1)).unwrap().into_torn();
            assert!(!torn.is_intact());
            let mut state = sync::lock(&sched.state);
            state.cache.insert(
                pid(0, 1),
                Prefetched {
                    page: torn,
                    ready_at_us: 0,
                    submit: 0,
                },
            );
            state.order.push_back(pid(0, 1));
        }
        let page = sched.read_page(pid(0, 1)).unwrap();
        assert!(page.is_intact(), "torn cache entry served to a demand read");
        assert_eq!(
            sched.metrics().overlap_hits.get(),
            0,
            "a discarded entry is not an overlap hit"
        );
        assert_eq!(sched.metrics().demand_reads.get(), 1);
        assert!(sync::lock(&sched.state).cache.is_empty());
    }

    #[test]
    fn submit_prices_each_read_on_its_channel_and_charges_no_wait() {
        let sched = IoScheduler::new(
            store(4),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel {
                    seek_us: 100,
                    transfer_us: 25,
                },
                clock: ClockKind::Virtual,
            },
        );
        sched.submit(&ids(3));
        // Channel math: the random head costs 125 on channel 0, the two
        // sequential successors 25 each on their own channels.
        let readies: Vec<u64> = {
            let state = sync::lock(&sched.state);
            ids(3)
                .iter()
                .map(|id| state.cache[id].ready_at_us)
                .collect()
        };
        assert_eq!(readies, vec![125, 25, 25]);
        assert_eq!(sched.io_wait_us(), 0, "submission charges no wait");
        // A failed speculative read stages nothing and stays silent;
        // the error resurfaces on the demand read.
        sched.submit(&[pid(0, 9)]);
        assert_eq!(
            sync::lock(&sched.state).cache.len(),
            3,
            "bad id: nothing staged"
        );
        assert!(sched.read_page(pid(0, 9)).is_err());
        assert_eq!(sched.io_wait_us(), 0, "errors cost nothing");
    }

    fn virtual_qd(queue_depth: usize, inner: DiskSim) -> IoScheduler<DiskSim> {
        IoScheduler::new(
            inner,
            IoConfig {
                queue_depth,
                model: LatencyModel {
                    seek_us: 100,
                    transfer_us: 50,
                },
                clock: ClockKind::Virtual,
            },
        )
    }

    /// Channels keep their backlog across calls: a read — staged or
    /// demanded — that lands on a busy channel starts when that
    /// channel is free, not when it was asked for.
    #[test]
    fn a_read_on_a_busy_channel_waits_for_that_channel() {
        let sched = virtual_qd(2, store(2));
        sched.submit(&[pid(0, 0), pid(1, 0)]); // 150 on each channel
        sched.submit(&[pid(2, 0)]); // back on channel 0: 150 + 150
        assert_eq!(sync::lock(&sched.state).cache[&pid(2, 0)].ready_at_us, 300);
        read_each(&sched, &[pid(2, 0), pid(0, 0), pid(1, 0)]);
        assert_eq!(sched.io_wait_us(), 300, "the first two were done by then");

        let sched = virtual_qd(2, store(2));
        sched.submit(&[pid(0, 0), pid(1, 0)]);
        sched.read_page(pid(2, 0)).unwrap(); // nobody staged it: channel 0
        assert_eq!(sched.io_wait_us(), 300);
        assert_eq!(sched.now_us(), 300);
    }

    /// One list, one seek then seven transfers (seek 400, transfer
    /// 100), staged at depth 4: the seek holds channel 0 for 500 µs
    /// while the transfers take the channel that frees up first, three
    /// at a time on the other three, so the plan waits 500 µs. Dealt
    /// round robin, page 4 would queue behind the seek on channel 0 and
    /// the plan would wait 600.
    #[test]
    fn a_read_takes_the_channel_that_frees_up_first() {
        let sched = benchmark_device(long_list(8));
        sched.submit(&ids(8));
        let readies: Vec<u64> = {
            let state = sync::lock(&sched.state);
            ids(8)
                .iter()
                .map(|id| state.cache[id].ready_at_us)
                .collect()
        };
        assert_eq!(readies, [500, 100, 100, 100, 200, 200, 200, 300]);
        assert!(read_each(&sched, &ids(8)).iter().all(Result::is_ok));
        assert_eq!(sched.io_wait_us(), 500);
        assert_eq!(sched.now_us(), 500);
    }

    /// The calling thread is charged exactly the waits it paid, staged
    /// completions apart from demand reads.
    #[test]
    fn each_wait_is_charged_to_the_thread_that_waited() {
        let sched = virtual_qd(2, store(2));
        let before = crate::thread_waits();
        sched.submit(&[pid(0, 0), pid(1, 0)]); // 150 on each channel
        sched.read_page(pid(0, 0)).unwrap(); // staged: waits 150
        sched.read_page(pid(2, 0)).unwrap(); // demand: 150 + 150 → 150
        let mine = crate::thread_waits().since(&before);
        assert_eq!((mine.staged_us, mine.demand_us), (150, 150));
        let other = std::thread::scope(|s| {
            s.spawn(|| {
                let before = crate::thread_waits();
                sched.read_page(pid(1, 0)).unwrap(); // staged, done by now
                sched.read_page(pid(0, 1)).unwrap(); // demand: 300 + 150
                crate::thread_waits().since(&before)
            })
            .join()
            .unwrap()
        });
        assert_eq!((other.staged_us, other.demand_us), (0, 150));
        assert_eq!(crate::thread_waits().since(&before), mine);
        assert_eq!(sched.io_wait_us(), 450);
    }

    /// Plan A, then plan B, through a pool at depth 4 (seek 400,
    /// transfer 100, the benchmark's device). Alone, B's first read
    /// seeks after A's demand reads have returned: 500 + 500. Named as
    /// A's lookahead, B's prefix is staged with A's pages: its seek
    /// runs on the fourth channel beside A's, and its transfers on the
    /// channels A's transfers free, so B waits for nothing: 500 + 0.
    /// (Staging only B's first page, the rule until the whole prefix
    /// was staged, left B its transfers to wait for: 500 + 100.)
    #[test]
    fn a_lookahead_overlaps_the_next_plans_seek() {
        use crate::policy::PolicyKind;
        use crate::BufferManager;
        use ir_types::ReadPlan;
        let run = |lookahead: Vec<(TermId, u32)>| {
            let sched = Arc::new(benchmark_device(store(3)));
            let mut pool = BufferManager::new(Arc::clone(&sched), 8, PolicyKind::Lru).unwrap();
            let a = ReadPlan::for_term_pages(TermId(0), 3).with_lookahead(lookahead);
            pool.fetch_batch(&a).unwrap();
            let after_a = sched.io_wait_us();
            pool.fetch_batch(&ReadPlan::for_term_pages(TermId(1), 3))
                .unwrap();
            let m = sched.metrics();
            (
                after_a,
                sched.io_wait_us(),
                sched.inner().stats().reads,
                m.overlap_hits.get(),
                m.prefetch_wasted.get(),
            )
        };
        assert_eq!(run(Vec::new()), (500, 1_000, 6, 6, 0));
        assert_eq!(run(vec![(TermId(1), 3)]), (500, 500, 6, 6, 0));
    }

    /// Three lists of 2, 4 and 8 pages, read shortest first as BAF
    /// reads a cold ADD-ONLY step, each plan naming the lists still to
    /// come as its lookahead, through a pool at depth 4 on the
    /// benchmark's device. Staging every named prefix behind the first
    /// plan's reads puts the two longer lists' seeks on the channels
    /// the first plan leaves idle: the second plan then waits for
    /// nothing and the third 200 µs, 500 + 0 + 200 = 700 µs, with all
    /// 14 pages read once and claimed. Staging only the first page of
    /// the lookahead's head, the rule until every prefix was staged,
    /// waits 500 + 100 + 400 = 1 000 µs for the same 14 reads.
    #[test]
    fn every_named_prefix_is_staged_behind_the_first_read() {
        use crate::policy::PolicyKind;
        use crate::BufferManager;
        use ir_types::ReadPlan;
        let lists = [2u32, 4, 8]
            .iter()
            .enumerate()
            .map(|(t, &n)| {
                (0..n)
                    .map(|p| {
                        let id = pid(t as u32, p);
                        Page::new(id, vec![Posting::new(p, n - p)].into(), 1.0)
                    })
                    .collect()
            })
            .collect();
        let sched = Arc::new(benchmark_device(DiskSim::new(lists)));
        let plan = |t: u32, n: u32, ahead: &[(u32, u32)]| {
            ReadPlan::for_term_pages(TermId(t), n)
                .with_lookahead(ahead.iter().map(|&(t, n)| (TermId(t), n)).collect())
        };
        let mut pool = BufferManager::new(Arc::clone(&sched), 16, PolicyKind::Lru).unwrap();
        for plan in [
            plan(0, 2, &[(1, 4), (2, 8)]),
            plan(1, 4, &[(2, 8)]),
            plan(2, 8, &[]),
        ] {
            pool.fetch_batch(&plan).unwrap();
        }
        let m = sched.metrics();
        assert_eq!(sched.io_wait_us(), 700);
        assert_eq!(sched.inner().stats().reads, 14);
        assert_eq!((m.overlap_hits.get(), m.demand_reads.get()), (14, 0));
        assert_eq!(m.prefetch_wasted.get(), 0);
    }

    #[test]
    fn submit_is_a_no_op_on_a_serial_disk() {
        let sched = IoScheduler::new(store(4), IoConfig::default());
        assert_eq!(sched.overlap_depth(), 1);
        sched.submit(&ids(3));
        assert_eq!(sched.inner().stats().reads, 0, "nothing was read");
        let deep = IoScheduler::new(
            store(4),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel::ZERO,
                clock: ClockKind::Virtual,
            },
        );
        assert_eq!(deep.overlap_depth(), 4);
    }

    #[test]
    fn cache_evictions_and_waste_are_counted() {
        let cap = PREFETCH_CAP as u32;
        let sched = free_qd4(long_list(cap + 8));
        sched.submit(&ids(cap));
        sched.submit(&(cap..cap + 8).map(|p| pid(0, p)).collect::<Vec<_>>());
        assert_eq!(sched.metrics().prefetch_evicted.get(), 8);
        assert_eq!(sched.metrics().prefetch_wasted.get(), 8);
        // Serving a surviving entry is not waste.
        sched.read_page(pid(0, cap)).expect("cached page serves");
        assert_eq!(sched.metrics().overlap_hits.get(), 1);
        assert_eq!(sched.metrics().prefetch_wasted.get(), 8);
    }

    #[test]
    fn real_clock_actually_sleeps() {
        let sched = IoScheduler::new(
            store(4),
            IoConfig {
                queue_depth: 1,
                model: LatencyModel {
                    seek_us: 2_000,
                    transfer_us: 500,
                },
                clock: ClockKind::Real,
            },
        );
        let t0 = Instant::now();
        read_each(&sched, &ids(2)); // 2500 + 500 = 3000µs modeled
        let elapsed = t0.elapsed();
        assert_eq!(sched.io_wait_us(), 3_000);
        assert!(
            elapsed.as_micros() >= 2_500,
            "real clock must sleep the modeled wait (slept {elapsed:?})"
        );
    }

    /// A store whose every read takes at least 300 µs of wall time.
    struct SlowStore(DiskSim);

    impl PageStore for SlowStore {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            thread::sleep(Duration::from_micros(300));
            self.0.read_page(id)
        }
    }

    /// On the real clock a read returns at its modeled completion: not
    /// before it, and not the inner store's read time plus a slept wait
    /// plus the timer's slack after it. Eight reads that each seek at
    /// depth 1 are modeled at 500 µs apiece, of which the inner store
    /// takes 300; a wait that slept its duration after the inner read
    /// took ≈ 940 µs a read.
    #[test]
    fn a_real_clock_wait_ends_at_the_modeled_completion() {
        let sched = IoScheduler::new(
            SlowStore(store(4)),
            IoConfig {
                queue_depth: 1,
                model: LatencyModel {
                    seek_us: 400,
                    transfer_us: 100,
                },
                clock: ClockKind::Real,
            },
        );
        // Terms in turn: no read is its predecessor's successor.
        let request: Vec<PageId> = (0..8).map(|i| pid(i % 3, i / 3)).collect();
        let mut took: Vec<Duration> = request
            .iter()
            .map(|&id| {
                let asked = Instant::now();
                sched.read_page(id).unwrap();
                let returned = Instant::now();
                let done = sync::lock(&sched.state).free_at[0];
                assert!(
                    returned >= sched.epoch + Duration::from_micros(done),
                    "{id:?} returned before its modeled completion at {done} µs"
                );
                returned - asked
            })
            .collect();
        assert_eq!(sched.metrics().latency_us.sum(), 8 * 500);
        took.sort_unstable();
        assert!(
            took[4] < Duration::from_micros(700),
            "median read {:?} of {took:?}",
            took[4]
        );
    }
}
