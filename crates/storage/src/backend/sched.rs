//! The I/O scheduler: a submission/completion queue over any
//! [`PageStore`], pricing every read with a seek+bandwidth latency
//! model and letting submitted reads complete while the caller computes.
//!
//! The model is the classic shared-disk shape: a request costs
//! `transfer_us`, plus `seek_us` when the head has to move (the read
//! is not the physical successor of the previous one — the same
//! sequential/random rule [`DiskSim`](crate::DiskSim) uses for its
//! counters). The device exposes `queue_depth` channels; the reads of
//! one [`submit`](PageStore::submit) are spread round-robin across
//! them, each channel serves its share serially, and a demand read
//! that claims a staged page waits only for what is still in flight. A
//! demand read nobody submitted goes to the device alone and pays its
//! full price. Depth 1 therefore degenerates to a strictly serial disk
//! (total wait = sum of costs), while depth `d` brings a submitted
//! plan's wait down to its slowest channel's share — the effect the
//! `serial_disk_pays_the_sum_deeper_queues_pay_the_max` test below and
//! `ir-engine`'s `storage_backend` suite pin.
//!
//! Two clocks ([`ClockKind`]): *virtual* accounts every wait in
//! `io_wait_us` without sleeping (deterministic — two identical runs
//! report identical waits), *real* additionally sleeps the modeled
//! wait so queue depth shows up in wall time.
//!
//! **Determinism contract**: with `queue_depth <= 1` submission
//! is a no-op and every read is forwarded to the inner store in
//! request order, so the scheduler is invisible to the event stream;
//! zero the model and it is invisible to the accounting too.

use crate::disk::PageStore;
use crate::page::Page;
use ir_observe::{Counter, Gauge, Histogram, IO_LATENCY_US_BOUNDS};
use ir_types::{ClockKind, IdMap, IrResult, PageId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

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
    /// Whether modeled waits are slept ([`ClockKind::Real`]) or only
    /// accounted ([`ClockKind::Virtual`]).
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

/// Instruments exposed by an [`IoScheduler`].
#[derive(Clone, Debug)]
pub struct IoMetrics {
    /// Configured queue depth (channels available to the device).
    pub queue_depth: Gauge,
    /// Modeled device time per demand-side request, µs (prefetch
    /// device time is excluded: it is the part callers never wait on).
    pub latency_us: Histogram,
    /// Demand reads answered from the prefetch cache — each one is a
    /// read whose transfer overlapped with compute.
    pub overlap_hits: Counter,
    /// Demand reads that had to go to the device.
    pub demand_reads: Counter,
    /// Cumulative modeled wait imposed on callers, µs (slept under the
    /// real clock, accounted under the virtual one).
    pub io_wait_us: Counter,
    /// Completions pushed out of the bounded prefetch cache by newer
    /// submissions before any demand read claimed them.
    pub prefetch_evicted: Counter,
    /// Prefetched pages whose device read never served a demand from
    /// the cache: capacity evictions plus copies discarded by the
    /// torn-page re-verification. Each one is a speculative read the
    /// device performed for nothing.
    pub prefetch_wasted: Counter,
}

impl IoMetrics {
    fn new(queue_depth: usize) -> Self {
        let m = IoMetrics {
            queue_depth: Gauge::new(),
            latency_us: Histogram::with_bounds(&IO_LATENCY_US_BOUNDS),
            overlap_hits: Counter::new(),
            demand_reads: Counter::new(),
            io_wait_us: Counter::new(),
            prefetch_evicted: Counter::new(),
            prefetch_wasted: Counter::new(),
        };
        m.queue_depth.set(queue_depth as i64);
        m
    }
}

/// A page the scheduler read ahead of demand.
#[derive(Debug)]
struct Prefetched {
    page: Page,
    /// Completion instant on the virtual timeline, µs.
    ready_at_us: u64,
    /// Device time this read was priced at.
    cost_us: u64,
    /// When the read was issued on the wall clock (real mode only):
    /// the demand-side wait is whatever part of `cost_us` compute has
    /// not already covered.
    issued: Option<Instant>,
}

#[derive(Debug, Default)]
struct SchedState {
    /// Head position after the last *physical* read (demand or
    /// prefetch), for the sequential/random pricing decision.
    last: Option<PageId>,
    /// The virtual timeline, µs. Advances by each batch's wait.
    now_us: u64,
    cache: IdMap<PageId, Prefetched>,
    /// Insertion order of `cache`, for capacity eviction.
    order: VecDeque<PageId>,
}

/// Prefetch cache capacity: enough for several plan tails, small
/// enough that the scheduler never shadows the buffer pool's job.
const PREFETCH_CAP: usize = 64;

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
    state: Mutex<SchedState>,
}

impl<S: PageStore> IoScheduler<S> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: S, config: IoConfig) -> Self {
        let depth = config.queue_depth.max(1);
        IoScheduler {
            inner,
            config: IoConfig {
                queue_depth: depth,
                ..config
            },
            metrics: IoMetrics::new(depth),
            state: Mutex::new(SchedState::default()),
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

    /// Current reading of the virtual timeline, µs.
    pub fn virtual_now_us(&self) -> u64 {
        self.state.lock().now_us
    }

    fn classify(last: &mut Option<PageId>, id: PageId) -> bool {
        let sequential = matches!(
            *last,
            Some(prev) if prev.term == id.term && prev.page.0 + 1 == id.page.0
        );
        *last = Some(id);
        sequential
    }
}

impl<S: PageStore> PageStore for IoScheduler<S> {
    /// The one demand read: a staged completion costs only the part of
    /// its transfer still in flight, anything else goes to the device
    /// and pays its full price on one channel. More than one channel
    /// is reached only through [`submit`](PageStore::submit).
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        let mut state = self.state.lock();
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
        let (page, wait) = match cached {
            Some(pf) => {
                self.metrics.overlap_hits.inc();
                let remaining = match (self.config.clock, pf.issued) {
                    (ClockKind::Real, Some(at)) => {
                        pf.cost_us.saturating_sub(at.elapsed().as_micros() as u64)
                    }
                    _ => pf.ready_at_us.saturating_sub(state.now_us),
                };
                (pf.page, remaining)
            }
            None => {
                // Same contract as the stores underneath: errors cost
                // nothing.
                let page = self.inner.read_page(id)?;
                self.metrics.demand_reads.inc();
                let sequential = Self::classify(&mut state.last, id);
                let cost = self.config.model.cost_us(sequential);
                self.metrics.latency_us.record(cost);
                (page, cost)
            }
        };
        state.now_us += wait;
        drop(state);
        if wait > 0 {
            self.metrics.io_wait_us.add(wait);
            if self.config.clock == ClockKind::Real {
                std::thread::sleep(std::time::Duration::from_micros(wait));
            }
        }
        Ok(page)
    }

    fn can_tear(&self) -> bool {
        self.inner.can_tear()
    }

    /// Reads `ids` ahead of demand, parks the completions in the
    /// bounded staging cache, and prices the transfers without
    /// charging anyone a wait: the demand read that claims a staged
    /// page pays only the residual. No-op at depth 1 — a serial disk
    /// has no spare channel to read ahead on, which is what makes
    /// submit + demand provably identical to the demand read alone
    /// there. Read failures are dropped here and resurface on the
    /// demand read.
    fn submit(&self, ids: &[PageId]) {
        if self.config.queue_depth <= 1 || ids.is_empty() {
            return;
        }
        let issued_at = match self.config.clock {
            ClockKind::Real => Some(Instant::now()),
            ClockKind::Virtual => None,
        };
        let mut state = self.state.lock();
        let mut channels = vec![0u64; self.config.queue_depth];
        let mut next_ch = 0usize;
        for &id in ids {
            if state.cache.contains_key(&id) {
                continue;
            }
            let Ok(page) = self.inner.read_page(id) else {
                // Don't cache failures; the demand read will hit the
                // same error and report it through the normal path.
                break;
            };
            if self.inner.can_tear() && !page.is_intact() {
                // A torn copy must never enter the completion cache —
                // served from there it would skip the per-read
                // fault/checksum path direct reads get. The head still
                // moved, so pricing classification advances; the
                // demand read re-runs the store's fault machinery.
                let _ = Self::classify(&mut state.last, id);
                self.metrics.prefetch_wasted.inc();
                continue;
            }
            let sequential = Self::classify(&mut state.last, id);
            let ch = next_ch % self.config.queue_depth;
            next_ch += 1;
            channels[ch] += self.config.model.cost_us(sequential);
            if state.order.len() >= PREFETCH_CAP {
                if let Some(old) = state.order.pop_front() {
                    state.cache.remove(&old);
                    self.metrics.prefetch_evicted.inc();
                    self.metrics.prefetch_wasted.inc();
                }
            }
            let ready_at_us = state.now_us + channels[ch];
            state.cache.insert(
                id,
                Prefetched {
                    page,
                    ready_at_us,
                    cost_us: channels[ch],
                    issued: issued_at,
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
        assert_eq!(sched.virtual_now_us(), 0);
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
        // Round-robin over 4 channels: {250, 50, 50, 50} → 250.
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
                sched.virtual_now_us(),
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

    #[test]
    fn prefetch_cache_is_bounded() {
        let lists = (0..1u32)
            .map(|t| {
                (0..(PREFETCH_CAP as u32 + 8))
                    .map(|p| {
                        Page::new(
                            PageId::new(TermId(t), p),
                            vec![Posting::new(1, 1)].into(),
                            1.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let sched = IoScheduler::new(
            DiskSim::new(lists),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel::ZERO,
                clock: ClockKind::Virtual,
            },
        );
        let all: Vec<PageId> = (0..(PREFETCH_CAP as u32 + 8)).map(|p| pid(0, p)).collect();
        sched.submit(&all);
        let state = sched.state.lock();
        assert_eq!(state.cache.len(), PREFETCH_CAP);
        assert_eq!(state.order.len(), PREFETCH_CAP);
        assert!(
            !state.cache.contains_key(&pid(0, 0)),
            "oldest entries were evicted"
        );
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
            sched.state.lock().cache.is_empty(),
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
            let mut state = sched.state.lock();
            state.cache.insert(
                pid(0, 1),
                Prefetched {
                    page: torn,
                    ready_at_us: 0,
                    cost_us: 0,
                    issued: None,
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
        assert!(sched.state.lock().cache.is_empty());
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
            let state = sched.state.lock();
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
        assert_eq!(sched.state.lock().cache.len(), 3, "bad id: nothing staged");
        assert!(sched.read_page(pid(0, 9)).is_err());
        assert_eq!(sched.io_wait_us(), 0, "errors cost nothing");
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
        let lists = (0..1u32)
            .map(|t| {
                (0..(PREFETCH_CAP as u32 + 8))
                    .map(|p| {
                        Page::new(
                            PageId::new(TermId(t), p),
                            vec![Posting::new(1, 1)].into(),
                            1.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let sched = IoScheduler::new(
            DiskSim::new(lists),
            IoConfig {
                queue_depth: 4,
                model: LatencyModel::ZERO,
                clock: ClockKind::Virtual,
            },
        );
        let all: Vec<PageId> = (0..(PREFETCH_CAP as u32 + 8)).map(|p| pid(0, p)).collect();
        sched.submit(&all);
        assert_eq!(sched.metrics().prefetch_evicted.get(), 8);
        assert_eq!(sched.metrics().prefetch_wasted.get(), 8);
        // Serving a surviving entry is not waste.
        sched
            .read_page(pid(0, PREFETCH_CAP as u32))
            .expect("cached page serves");
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
}
