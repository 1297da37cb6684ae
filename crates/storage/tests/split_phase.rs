//! The fetch protocol's contracts, tested from outside the crate.
//!
//! A fetch is one call, `fetch_batch_into`, so what is two-sided is:
//!
//! * **the concurrent pool ≡ the reference pool** — a one-shard
//!   [`ShardedBufferPool`] driven through the trait's
//!   `fetch_batch_into`, against a bare [`BufferManager`] driven
//!   through its inherent `fetch_batch`: same delivered pages,
//!   outcomes, counters, store traffic, `b_t`, event log and resident
//!   set, for **every** replacement policy, with and without a seeded
//!   fault schedule injecting transient failures and torn pages into
//!   both sides alike;
//! * **single fetches are one-entry plans**: `fetch_traced` reports
//!   `Miss` then `Hit` through both implementors.

use ir_storage::{
    BufferEvent, BufferManager, BufferObserver, DiskSim, DiskStats, FaultConfig, FaultStats,
    FaultStore, FetchOutcome, FetchPolicy, Page, PolicyKind, QueryBuffer, QueryBufferExt,
    ShardedBufferPool,
};
use ir_types::{PageId, PlanEntry, Posting, ReadPlan, TermId};
use proptest::{collection, proptest, ProptestConfig};
use std::sync::{Arc, Mutex};

/// An observer whose log outlives the pool, so two pools' event
/// streams can be compared after the pools are gone.
#[derive(Clone, Debug, Default)]
struct SharedLog(Arc<Mutex<Vec<BufferEvent>>>);

impl BufferObserver for SharedLog {
    fn event(&mut self, event: BufferEvent) {
        self.0.lock().unwrap().push(event);
    }
}

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

/// One workload step: a hinted plan over `len` pages of term `t`
/// starting at `p0` (clamped to the list).
type Op = (u32, u32, u32);

fn plan_for(&(t, p0, len): &Op) -> ReadPlan {
    let start = p0.min(PAGES_PER_TERM - 1);
    let end = (start + len.max(1)).min(PAGES_PER_TERM);
    (start..end)
        .map(|p| PlanEntry::hinted(pid(t, p), f64::from(t + 1)))
        .collect()
}

/// The seeded fault configurations each layout is exercised under:
/// a clean store, and a chaos schedule (transient faults + torn
/// pages, bounded so `retries(4)` always recovers).
fn fault_modes() -> [(FaultConfig, FetchPolicy); 2] {
    [
        (FaultConfig::DISABLED, FetchPolicy::NO_RETRY),
        (FaultConfig::chaos(193), FetchPolicy::retries(4)),
    ]
}

type Faulted = Arc<FaultStore<DiskSim>>;

fn faulted(config: FaultConfig) -> Faulted {
    Arc::new(FaultStore::new(store(), config))
}

/// Everything a store can tell about the traffic it saw: the fault
/// draws and the simulated disk's read classification.
fn traffic(store: &Faulted) -> (FaultStats, DiskStats) {
    (store.stats(), store.inner().stats())
}

/// The bare reference pool over its own twin store, with an event log.
fn reference(
    config: FaultConfig,
    fetch: FetchPolicy,
    frames: usize,
    kind: PolicyKind,
) -> (BufferManager<Faulted>, SharedLog) {
    let mut bm = BufferManager::new(faulted(config), frames, kind).unwrap();
    bm.set_fetch_policy(fetch);
    let log = SharedLog::default();
    bm.set_observer(Box::new(log.clone()));
    (bm, log)
}

/// Drives `wrapper` through the trait's `fetch_batch_into` and
/// `reference` through `BufferManager`'s inherent `fetch_batch` over
/// the same plans, asserting after every step that
/// the served pages and outcomes agree, and at the end that per-term
/// `b_t` does too. (Counters are not part of the trait; the caller
/// compares them on the concrete pools.)
fn assert_wrapper_matches_reference<B: QueryBuffer>(
    wrapper: &mut B,
    reference: &mut BufferManager<Faulted>,
    ops: &[Op],
    label: &str,
) {
    let mut served = Vec::new();
    for op in ops {
        let plan = plan_for(op);
        let expected = reference
            .fetch_batch(&plan)
            .unwrap_or_else(|e| panic!("{label}: reference fetch failed: {e}"));
        wrapper
            .fetch_batch_into(&plan, &mut served)
            .unwrap_or_else(|e| panic!("{label}: fetch failed: {e}"));
        assert_eq!(
            served.len(),
            expected.len(),
            "{label}: served counts differ"
        );
        for ((pa, oa), (pb, ob)) in served.iter().zip(&expected) {
            assert_eq!(pa.id(), pb.id(), "{label}: page order differs");
            assert_eq!(oa, ob, "{label}: outcome differs for {:?}", pa.id());
            assert_eq!(
                pa.postings(),
                pb.postings(),
                "{label}: delivered bytes differ for {:?}",
                pa.id()
            );
        }
    }
    let terms: Vec<TermId> = (0..N_TERMS).map(TermId).collect();
    assert_eq!(
        wrapper.resident_pages_many(&terms),
        QueryBuffer::resident_pages_many(reference, &terms),
        "{label}: per-term b_t differs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A one-shard pool serves resident prefixes lock-light and defers
    /// their hit events; after a quiesce it must be indistinguishable
    /// from the reference pool, batch metrics included.
    #[test]
    fn one_shard_pool_matches_bare_manager(
        ops in collection::vec((0u32..N_TERMS, 0u32..PAGES_PER_TERM, 1u32..PAGES_PER_TERM), 1..24),
    ) {
        for kind in PolicyKind::ALL {
            for (config, fetch) in fault_modes() {
                let label = format!("sharded/{kind}/faults={}", !config.is_disabled());
                let (mut bare, bare_log) = reference(config, fetch, FRAMES, kind);
                let twin = faulted(config);
                let mut pool = ShardedBufferPool::new(Arc::clone(&twin), FRAMES, kind, 1).unwrap();
                pool.set_fetch_policy(fetch);
                let log = SharedLog::default();
                pool.with_shard(0, |bm| bm.set_observer(Box::new(log.clone())));
                assert_wrapper_matches_reference(&mut pool, &mut bare, &ops, &label);
                assert_eq!(pool.stats(), bare.stats(), "{label}: pool counters differ");
                pool.quiesce();
                assert_eq!(
                    traffic(&twin),
                    traffic(bare.store()),
                    "{label}: store traffic (and fault draws) differ"
                );
                pool.with_shard(0, |bm| {
                    assert_eq!(
                        bm.resident_ids(),
                        bare.resident_ids(),
                        "{label}: resident sets differ"
                    );
                    assert_eq!(
                        bm.metrics().batches.get(),
                        bare.metrics().batches.get(),
                        "{label}: batch counts differ"
                    );
                });
                assert_eq!(
                    *log.0.lock().unwrap(),
                    *bare_log.0.lock().unwrap(),
                    "{label}: event logs differ"
                );
            }
        }
    }
}

/// Miss on the first touch, Hit on the second — the outcome sequence
/// `fetch_traced` reported before it became a one-entry plan.
fn assert_miss_then_hit<B: QueryBuffer>(pool: &mut B, label: &str) {
    let (page, first) = pool.fetch_traced(pid(2, 3)).unwrap();
    assert_eq!(page.id(), pid(2, 3), "{label}: wrong page");
    assert_eq!(first, FetchOutcome::Miss, "{label}: cold fetch");
    let (_, second) = pool.fetch_traced(pid(2, 3)).unwrap();
    assert_eq!(second, FetchOutcome::Hit, "{label}: warm fetch");
    assert_eq!(pool.fetch(pid(2, 3)).unwrap().id(), pid(2, 3));
}

#[test]
fn a_single_fetch_is_a_one_entry_plan_through_both_implementors() {
    let kind = PolicyKind::Lru;
    let mut bare = BufferManager::new(store(), FRAMES, kind).unwrap();
    assert_miss_then_hit(&mut bare, "manager");
    let s = bare.stats();
    assert_eq!((s.requests, s.hits, s.misses), (3, 2, 1), "manager");
    assert_eq!(bare.metrics().batches.get(), 3, "one batch per fetch");
    assert_eq!(bare.metrics().batch_pages.sum(), 3);

    let mut sharded = ShardedBufferPool::new(Arc::new(store()), 2 * FRAMES, kind, 2).unwrap();
    assert_miss_then_hit(&mut sharded, "sharded");
    let s = sharded.stats();
    assert_eq!((s.requests, s.hits, s.misses), (3, 2, 1), "sharded");
}
