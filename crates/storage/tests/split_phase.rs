//! The fetch protocol's contracts, tested from outside the crate.
//!
//! A fetch is one call, `fetch_batch_into`, so what is two-sided is:
//!
//! * **single fetches are one-entry plans**: `fetch_traced` reports
//!   `Miss` then `Hit` on a pool of one shard and of two;
//! * **a plan's lookahead never reaches the pool** — the same plans
//!   with and without random lookaheads are served identically by
//!   pools of one and two shards, over a store that stages them and
//!   over one that cannot.
//!
//! That a one-shard pool is the reference pool, fetch for fetch, is
//! `sharded_equiv.rs`'s.

mod support;

use ir_storage::{
    BufferEvent, BufferManager, BufferStats, DiskSim, FetchOutcome, IoConfig, IoScheduler,
    LatencyModel, Page, PageStore, PolicyKind, QueryBuffer,
};
use ir_types::{ClockKind, PageId, PlanEntry, Posting, ReadPlan, TermId};
use proptest::{collection, proptest, ProptestConfig};
use std::sync::Arc;
use support::SharedLog;

const N_TERMS: u32 = 4;
const PAGES_PER_TERM: u32 = 8;
const FRAMES: usize = 12;

fn store() -> DiskSim {
    let lists = (0..N_TERMS)
        .map(|t| {
            (0..PAGES_PER_TERM)
                .map(|p| {
                    let postings: Vec<Posting> = vec![Posting::new(p, PAGES_PER_TERM - p)];
                    Page::new(PageId::new(TermId(t), p), postings.into(), f64::from(t + 1))
                })
                .collect()
        })
        .collect();
    DiskSim::new(lists)
}

fn pid(t: u32, p: u32) -> PageId {
    PageId::new(TermId(t), p)
}

/// One workload step: a plan over `len` pages of term `t`
/// starting at `p0` (clamped to the list).
type Op = (u32, u32, u32);

fn plan_for(&(t, p0, len): &Op) -> ReadPlan {
    let start = p0.min(PAGES_PER_TERM - 1);
    let end = (start + len.max(1)).min(PAGES_PER_TERM);
    (start..end).map(|p| PlanEntry::new(pid(t, p))).collect()
}

/// Miss on the first touch, Hit on the second — the outcome sequence
/// `fetch_traced` reported before it became a one-entry plan.
fn assert_miss_then_hit<S: PageStore>(pool: &mut BufferManager<S>, label: &str) {
    let (page, first) = pool.fetch_traced(pid(2, 3)).unwrap();
    assert_eq!(page.id(), pid(2, 3), "{label}: wrong page");
    assert_eq!(first, FetchOutcome::Miss, "{label}: cold fetch");
    let (_, second) = pool.fetch_traced(pid(2, 3)).unwrap();
    assert_eq!(second, FetchOutcome::Hit, "{label}: warm fetch");
    assert_eq!(pool.fetch(pid(2, 3)).unwrap().id(), pid(2, 3));
}

#[test]
fn a_single_fetch_is_a_one_entry_plan_on_one_and_two_shards() {
    for shards in [1, 2] {
        let kind = PolicyKind::Lru;
        let mut pool = BufferManager::sharded(store(), shards * FRAMES, kind, shards).unwrap();
        assert_miss_then_hit(&mut pool, &format!("{shards} shards"));
        let s = pool.stats();
        assert_eq!((s.requests, s.hits, s.misses), (3, 2, 1), "{shards} shards");
        assert_eq!(pool.metrics().batches.get(), 3, "one batch per fetch");
        assert_eq!(pool.metrics().batch_pages.sum(), 3);
    }
}

/// Everything a pool shows its caller over a plan sequence: what each
/// plan served and how, the event log, the counters and the resident
/// set, shard by shard.
#[derive(Debug, PartialEq)]
struct PoolView {
    served: Vec<Vec<(PageId, FetchOutcome)>>,
    events: Vec<BufferEvent>,
    stats: BufferStats,
    counters: Vec<(String, u64)>,
    resident: Vec<Vec<PageId>>,
}

fn serve<B: QueryBuffer>(pool: &mut B, plans: &[ReadPlan]) -> Vec<Vec<(PageId, FetchOutcome)>> {
    let mut out = Vec::new();
    plans
        .iter()
        .map(|plan| {
            pool.fetch_batch_into(plan, &mut out)
                .expect("plans stay in range");
            out.iter().map(|(page, how)| (page.id(), *how)).collect()
        })
        .collect()
}

/// `plans` through a pool of `shards` shards over `store`.
fn pool_view<S: PageStore>(
    store: S,
    frames: usize,
    kind: PolicyKind,
    shards: usize,
    plans: &[ReadPlan],
) -> PoolView {
    let mut pool = BufferManager::sharded(store, frames, kind, shards).unwrap();
    let log = SharedLog::default();
    pool.set_observer(Box::new(log.clone()));
    let served = serve(&mut pool, plans);
    let events = std::mem::take(&mut *log.0.lock().unwrap());
    PoolView {
        served,
        events,
        stats: pool.stats(),
        counters: pool.metrics().dump().counters,
        resident: (0..shards).map(|s| pool.shard_resident_ids(s)).collect(),
    }
}

/// A store that stages: depth 4, the benchmark's seek and transfer
/// prices, on the virtual clock.
fn staging_store() -> Arc<IoScheduler<DiskSim>> {
    Arc::new(IoScheduler::new(
        store(),
        IoConfig {
            queue_depth: 4,
            model: LatencyModel {
                seek_us: 400,
                transfer_us: 100,
            },
            clock: ClockKind::Virtual,
        },
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lookahead is stage-only: one random plan sequence, served
    /// with random lookaheads (none to four prefixes of any lists,
    /// repeats and the plan's own term included, some running past a
    /// list's end) and without, gives equal views on pools of one and
    /// two shards under every policy — over a store that stages at
    /// depth 4, where it only moves device reads and waits, and over
    /// `DiskSim`, which cannot stage and so also sees the same reads.
    #[test]
    fn a_lookahead_never_reaches_the_pool(
        ops in collection::vec(
            (
                (0u32..N_TERMS, 0u32..PAGES_PER_TERM, 1u32..PAGES_PER_TERM),
                collection::vec((0u32..N_TERMS, 1u32..PAGES_PER_TERM + 3), 0..5),
            ),
            1..24,
        ),
        frames in 2usize..FRAMES,
    ) {
        let plain: Vec<ReadPlan> = ops.iter().map(|(op, _)| plan_for(op)).collect();
        let ahead: Vec<ReadPlan> = ops
            .iter()
            .map(|(op, prefixes)| {
                let named = prefixes.iter().map(|&(t, n)| (TermId(t), n)).collect();
                plan_for(op).with_lookahead(named)
            })
            .collect();
        for kind in PolicyKind::ALL {
            let views = |plans: &[ReadPlan]| {
                let (sim_a, sim_b) = (Arc::new(store()), Arc::new(store()));
                let views = (
                    pool_view(staging_store(), frames, kind, 1, plans),
                    pool_view(staging_store(), frames, kind, 2, plans),
                    pool_view(Arc::clone(&sim_a), frames, kind, 1, plans),
                    pool_view(Arc::clone(&sim_b), frames, kind, 2, plans),
                );
                (views, sim_a.stats(), sim_b.stats())
            };
            let (with, with_reads_a, with_reads_b) = views(&ahead);
            let (without, without_reads_a, without_reads_b) = views(&plain);
            assert_eq!(with.0, without.0, "{kind}: one shard over the scheduler");
            assert_eq!(with.1, without.1, "{kind}: two shards over the scheduler");
            assert_eq!(with.2, without.2, "{kind}: one shard over DiskSim");
            assert_eq!(with.3, without.3, "{kind}: two shards over DiskSim");
            assert_eq!(with_reads_a, without_reads_a, "{kind}: one shard's DiskSim reads");
            assert_eq!(with_reads_b, without_reads_b, "{kind}: two shards' DiskSim reads");
        }
    }
}
