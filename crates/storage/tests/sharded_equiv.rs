//! The buffer manager's load-bearing contracts, tested end to end:
//!
//! * **P = 1 identity** — a one-shard [`BufferManager`] is
//!   indistinguishable from the test-only [`ReferencePool`] (the
//!   single-fetch protocol applied entry by entry, with no hit runs,
//!   staging or locks) over the same request stream: same results,
//!   delivered pages and outcomes, event log, every counter, resident
//!   set and `b_t` counters — under every policy, observed or not, over
//!   a clean store, stores that fault transiently, tear pages and give
//!   up, and a store that stages. Σ`b_t` = occupancy and hits + loads
//!   (+ failed fetches) = requests hold after every operation.
//! * **K handles ≡ the merged map** — K handles to a one-shard pool,
//!   each announcing its own queries, leave the pool exactly where the
//!   reference pool is left by one announcer that is told the per-term
//!   maximum over the K current queries: the registry the session
//!   server used to keep above the pool, kept here as the oracle.
//! * **One plan ≡ page-at-a-time, on P > 1 too** — a multi-shard pool
//!   serves a plan strictly in plan order, so a whole-stream plan and
//!   the same stream as one-entry plans are indistinguishable from
//!   above (outcomes), inside (counters, events, per-shard resident
//!   sets) and *below* the pool (the store's head movement and its
//!   seeded fault stream).
//! * **Shard accounting under real concurrency** — hammered by
//!   threads, `hits + loads == requests`, the per-term `b_t` counters
//!   sum to the pool's occupancy (no lost or duplicated frames), and
//!   every resident page lives in exactly the shard the hash routes it
//!   to — on shards that serve hits lock-light and on shards that serve
//!   them under the mutex.

mod support;

use ir_storage::{
    BufferEvent, BufferManager, BufferStats, DiskSim, DiskStats, FaultConfig, FaultStats,
    FaultStore, FetchOutcome, FetchPolicy, IoConfig, IoScheduler, LatencyModel, Page, PageStore,
    PolicyKind, QueryBuffer,
};
use ir_types::{ClockKind, IdMap, IrResult, PageId, PlanEntry, Posting, ReadPlan, TermId};
use proptest::{collection, proptest, ProptestConfig};
use std::sync::Arc;
use support::{assert_identical, assert_invariants, ReferencePool, SharedLog};

const N_TERMS: u32 = 4;
const PAGES_PER_TERM: u32 = 8;

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

fn all_terms() -> Vec<TermId> {
    (0..N_TERMS).map(TermId).collect()
}

/// One step of the identity workload: `action` selects the call
/// shape, `(t, p)` the page.
type Op = (u32, u32, u8);

/// The query history as the session server kept it above the pool
/// before the policy held one context per announcer: records `user`'s
/// current query weights and returns the per-term max over every
/// user's current query.
fn merge_weights(
    registry: &mut [IdMap<TermId, f64>],
    user: usize,
    weights: IdMap<TermId, f64>,
) -> IdMap<TermId, f64> {
    registry[user] = weights;
    let mut merged: IdMap<TermId, f64> = IdMap::default();
    for per_user in registry.iter() {
        for (&t, &w) in per_user {
            let e = merged.entry(t).or_insert(w);
            if w > *e {
                *e = w;
            }
        }
    }
    merged
}

/// The plan `shape` (0..64) asks for at `(t, p)`: one of
/// * a three-entry plan spanning two terms;
/// * a list prefix from `p` with a stage-only lookahead of another
///   list's prefix, which may run past that list's end;
/// * a plan that repeats a page around a miss, and one time in eight
///   names a page past its list's end, so it errs mid-plan.
fn plan_for(t: u32, p: u32, shape: u8) -> ReadPlan {
    let id = PageId::new(TermId(t), p);
    let next = TermId((t + 1) % N_TERMS);
    let draw = u32::from(shape / 3);
    match shape % 3 {
        0 => [
            id,
            PageId::new(TermId(t), (p + 1) % PAGES_PER_TERM),
            PageId::new(next, p),
        ]
        .into_iter()
        .map(PlanEntry::new)
        .collect(),
        1 => {
            let end = p + draw % (PAGES_PER_TERM - p) + 1;
            (p..end)
                .map(|page| PlanEntry::new(PageId::new(TermId(t), page)))
                .collect::<ReadPlan>()
                .with_lookahead(vec![(next, (draw + p) % (PAGES_PER_TERM + 3))])
        }
        _ => {
            let other = PageId::new(next, (p + 3) % PAGES_PER_TERM);
            let mut pages = vec![id, other, id];
            if draw % 8 == 7 {
                pages.push(PageId::new(next, PAGES_PER_TERM));
            }
            pages.push(other);
            pages.into_iter().map(PlanEntry::new).collect()
        }
    }
}

/// What one call served, comparable across the two pools: its result,
/// and each page's id, outcome and postings.
type Served = (IrResult<()>, Vec<(PageId, FetchOutcome, Vec<Posting>)>);

/// What one call served, comparable across the two pools.
fn served(result: IrResult<()>, out: &[(Page, FetchOutcome)]) -> Served {
    let pages = out
        .iter()
        .map(|(page, how)| (page.id(), *how, page.postings().to_vec()))
        .collect();
    (result, pages)
}

/// Drives `handles` handles to the one-shard `pool`, taking turns op by
/// op, and `reference` with the same interleaving of announcements,
/// traced and plain single fetches and multi-page plans — each handle
/// announcing its own query, the reference's one announcer the
/// [`merge_weights`] of them — asserting after every op that both
/// served the same pages with the same outcomes (or the same error)
/// and that the pool invariants hold, and at the end that the two
/// pools are indistinguishable. With `observed` the pool carries an
/// event log; without, its RAP and FIFO shards serve hits lock-light.
fn assert_matches_reference<S: PageStore, R: PageStore>(
    pool: BufferManager<S>,
    reference: &mut ReferencePool<R>,
    observed: bool,
    ops: &[Op],
    handles: usize,
    label: &str,
) -> BufferManager<S> {
    let log = SharedLog::default();
    if observed {
        pool.set_observer(Box::new(log.clone()));
    }
    let mut sessions = vec![pool];
    for _ in 1..handles {
        sessions.push(sessions[0].clone());
    }
    let mut registry = vec![IdMap::default(); handles];
    let terms = all_terms();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (i, &(t, p, action)) in ops.iter().enumerate() {
        let label = format!("{label}, op {i}");
        let id = PageId::new(TermId(t), p);
        let user = i % handles;
        let pool = &mut sessions[user];
        match action % 4 {
            0 => {
                // RAP announcement — no, one or two terms, by the
                // action's upper bits.
                let mut weights: IdMap<TermId, f64> = IdMap::default();
                if action & 4 == 0 {
                    weights.insert(TermId(t), f64::from(p + 1));
                }
                if action & 8 == 0 {
                    weights.insert(TermId((t + 1) % N_TERMS), 2.5);
                }
                pool.begin_query(&weights);
                reference.begin_query(&merge_weights(&mut registry, user, weights));
            }
            1 => {
                let a = pool.fetch_traced(id).map(|(page, how)| vec![(page, how)]);
                let b = reference.fetch_batch_into(&ReadPlan::single(id), &mut want);
                let a = a.map_or_else(|e| (Err(e), Vec::new()), |out| (Ok(()), out));
                assert_eq!(
                    served(a.0, &a.1),
                    served(b, &want),
                    "{label}: fetch_traced({id:?})"
                );
            }
            2 => {
                let plan = plan_for(t, p, action >> 2);
                let a = pool.fetch_batch_into(&plan, &mut got);
                let b = reference.fetch_batch_into(&plan, &mut want);
                assert_eq!(served(a, &got), served(b, &want), "{label}: plan {plan:?}");
            }
            _ => {
                let a = pool.fetch(id).map(|page| page.postings().to_vec());
                let b = reference.fetch_batch_into(&ReadPlan::single(id), &mut want);
                let b = b.map(|()| want[0].0.postings().to_vec());
                assert_eq!(a, b, "{label}: fetch({id:?})");
            }
        }
        assert_invariants(&sessions[0], reference, &terms, &label);
    }
    let pool = sessions.swap_remove(0);
    assert_identical(&pool, observed.then_some(&log), reference, &terms, label);
    // A one-shard pool never splits a batch and never waits on another
    // session's shard in this single-threaded stream.
    assert_eq!(pool.metrics().batch_splits.get(), 0, "{label}: splits");
    assert_eq!(
        pool.metrics().contended_locks.get(),
        0,
        "{label}: contention"
    );
    pool
}

/// A store that stages: depth 4 on the virtual clock.
fn staging_store() -> IoScheduler<DiskSim> {
    IoScheduler::new(
        store(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// P = 1 identity under every policy, observed and not, pools of
    /// one to five frames, over four stores: a clean one; one failing
    /// every read transiently with a retry budget covering the cap; a
    /// seeded chaos schedule (transient faults, torn pages, and
    /// give-ups when `retries` is short of its cap of 3); and one that
    /// stages at depth 4, where the pool-visible state must still
    /// match. Twin stores with the same seed see the same faults in
    /// the same order, so store traffic must match too.
    #[test]
    fn one_shard_pool_is_identical_to_the_reference_pool(
        capacity in 1usize..6,
        observed in proptest::any::<bool>(),
        cap in 1u32..4,
        retries in 0u32..5,
        seed in proptest::any::<u64>(),
        ops in collection::vec(
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM, proptest::any::<u8>()),
            150..400,
        ),
    ) {
        for kind in PolicyKind::ALL {
            let label = format!("{kind}, {capacity} frames, observed {observed}");
            let pool = BufferManager::new(store(), capacity, kind).unwrap();
            let mut reference = ReferencePool::new(store(), capacity, kind);
            let pool = assert_matches_reference(pool, &mut reference, observed, &ops, 1, &format!("{label}, clean"));
            assert_eq!(pool.store().stats(), reference.store.stats(), "{label}: clean store");

            let transient = FaultConfig {
                seed,
                transient_rate: 1.0,
                max_consecutive_faults: cap,
                ..FaultConfig::DISABLED
            };
            for (config, fetch) in [
                (transient, FetchPolicy::retries(cap)),
                (FaultConfig::chaos(seed), FetchPolicy::retries(retries)),
            ] {
                let label = format!("{label}, faults {config:?}, {fetch:?}");
                let pool = BufferManager::new(FaultStore::new(store(), config), capacity, kind).unwrap();
                pool.set_fetch_policy(fetch);
                let mut reference = ReferencePool::new(FaultStore::new(store(), config), capacity, kind);
                reference.fetch_policy = fetch;
                let pool = assert_matches_reference(pool, &mut reference, observed, &ops, 1, &label);
                let traffic = |s: &FaultStore<DiskSim>| (s.stats(), s.inner().stats());
                assert_eq!(traffic(pool.store()), traffic(&reference.store), "{label}: store traffic");
            }

            let pool = BufferManager::new(staging_store(), capacity, kind).unwrap();
            let mut reference = ReferencePool::new(store(), capacity, kind);
            assert_matches_reference(pool, &mut reference, observed, &ops, 1, &format!("{label}, staging"));
        }
    }

    /// Sessions in the policy ≡ the registry above the pool: three
    /// handles announcing for themselves against one announcer told
    /// the merged map, under RAP, the one policy that listens.
    #[test]
    fn k_handles_match_a_reference_announced_the_merged_map(
        capacity in 2usize..10,
        ops in collection::vec(
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM, proptest::any::<u8>()),
            150..400,
        ),
    ) {
        let kind = PolicyKind::Rap;
        let pool = BufferManager::new(store(), capacity, kind).unwrap();
        let mut reference = ReferencePool::new(store(), capacity, kind);
        assert_matches_reference(pool, &mut reference, true, &ops, 3, "RAP, 3 handles");
    }
}

/// Everything a run leaves observable: above the pool, inside it
/// (shard by shard where the pool keeps shards apart), and below it.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<FetchOutcome>,
    stats: BufferStats,
    events: Vec<BufferEvent>,
    shard_residents: Vec<Vec<PageId>>,
    disk: DiskStats,
    faults: FaultStats,
}

/// Runs `plans` through a fresh 4-shard pool (`chunk`-page routing, or
/// the default chunk for `None`) over a fresh seeded store.
fn drive_four_shards(
    kind: PolicyKind,
    frames: usize,
    chunk: Option<u32>,
    config: FaultConfig,
    plans: &[ReadPlan],
) -> Observed {
    let faulty = FaultStore::new(store(), config);
    let mut pool = match chunk {
        Some(c) => BufferManager::with_chunk_pages(faulty, frames, kind, 4, c),
        None => BufferManager::sharded(faulty, frames, kind, 4),
    }
    .unwrap();
    // `FaultConfig::chaos` caps consecutive faults at 3.
    pool.set_fetch_policy(FetchPolicy::retries(4));
    let log = SharedLog::default();
    pool.set_observer(Box::new(log.clone()));
    let weights: IdMap<TermId, f64> = [(TermId(0), 2.0), (TermId(1), 0.5)].into_iter().collect();
    pool.begin_query(&weights);
    let mut outcomes = Vec::new();
    for plan in plans {
        let served = pool.fetch_batch(plan).unwrap();
        outcomes.extend(served.into_iter().map(|(_, how)| how));
    }
    let events = log.0.lock().unwrap().clone();
    Observed {
        outcomes,
        stats: pool.stats(),
        events,
        shard_residents: (0..pool.n_shards())
            .map(|s| pool.shard_resident_ids(s))
            .collect(),
        disk: pool.store().inner().stats(),
        faults: pool.store().stats(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `one_plan_matches_page_at_a_time_fetches` on the concurrent
    /// pool: under per-page scatter and under the default chunk, for
    /// every policy, over a clean store and a seeded chaos schedule.
    #[test]
    fn one_plan_matches_page_at_a_time_fetches_on_four_shards(
        frames in 8usize..24,
        seed in proptest::any::<u64>(),
        ops in collection::vec(
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM),
            1..60,
        ),
    ) {
        let whole: ReadPlan = ops
            .iter()
            .map(|&(t, p)| PlanEntry::new(PageId::new(TermId(t), p)))
            .collect();
        let singles: Vec<ReadPlan> = whole.iter().map(|e| [*e].into_iter().collect()).collect();
        for kind in PolicyKind::ALL {
            for chunk in [Some(1), None] {
                for config in [FaultConfig::DISABLED, FaultConfig::chaos(seed)] {
                    let one_plan =
                        drive_four_shards(kind, frames, chunk, config, std::slice::from_ref(&whole));
                    let page_at_a_time = drive_four_shards(kind, frames, chunk, config, &singles);
                    assert_eq!(
                        one_plan,
                        page_at_a_time,
                        "{kind}, chunk {chunk:?}, {frames} frames, fault seed {seed}, faults {}",
                        !config.is_disabled()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hit paths under real contention: eight threads hammer
    /// overlapping single-term plans against a pool whose warmed
    /// working set never evicts, so every post-warm request is a hit —
    /// served off the shared read lock with only atomic counter updates
    /// on FIFO, whose hits nobody consumes, and under the shard mutex
    /// on LRU. The counters must be exact either way — per-shard
    /// `hits + loads == requests`, the global totals match the workload
    /// arithmetic (no lost updates), and every resident page lives in
    /// the shard the hash owns.
    #[test]
    fn lock_light_hit_path_loses_no_counters(
        seed in proptest::any::<u64>(),
        ops_per_thread in 16u64..64,
    ) {
        for kind in [PolicyKind::Fifo, PolicyKind::Lru] {
            let mut pool = BufferManager::sharded(Arc::new(store()), 128, kind, 4).unwrap();
            // Warm the full working set: 32 requests, all loads.
            for t in 0..N_TERMS {
                for p in 0..PAGES_PER_TERM {
                    pool.fetch(PageId::new(TermId(t), p)).unwrap();
                }
            }
            let warmed = u64::from(N_TERMS * PAGES_PER_TERM);
            let n_threads = 8u64;
            std::thread::scope(|scope| {
                for th in 0..n_threads {
                    let mut pool = pool.clone();
                    scope.spawn(move || {
                        let mut rng = seed ^ (th << 11) ^ 0x5bd1_e995;
                        for _ in 0..ops_per_thread {
                            // Overlapping term plans: every thread scans
                            // the same four lists in thread-local order.
                            let t = (next_rand(&mut rng) % u64::from(N_TERMS)) as u32;
                            let plan: ReadPlan = (0..PAGES_PER_TERM)
                                .map(|p| PlanEntry::new(PageId::new(TermId(t), p)))
                                .collect();
                            pool.fetch_batch(&plan).unwrap();
                        }
                    });
                }
            });

            let expected = warmed + n_threads * ops_per_thread * u64::from(PAGES_PER_TERM);
            let stats = pool.stats();
            assert_eq!(stats.hits + stats.misses, stats.requests, "{kind}: split");
            assert_eq!(stats.requests, expected, "{kind}: lost or duplicated requests");
            assert_eq!(stats.misses, warmed, "{kind}: post-warm traffic must all hit");
            assert_eq!(stats.hits, expected - warmed, "{kind}");
            // Hash-owned residency survives the hammering.
            for s in 0..pool.n_shards() {
                for id in pool.shard_resident_ids(s) {
                    assert_eq!(pool.shard_of(id), s, "{kind}: page {id:?} in wrong shard");
                }
            }
            assert_eq!(pool.len(), warmed as usize, "{kind}: nothing may evict");
        }
    }
}

/// Tiny deterministic generator for the stress threads (the test must
/// not depend on OS entropy).
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn concurrent_stress_keeps_shard_accounting_exact() {
    // Capacity 128 over 4 shards: even a worst-case hash skew (all 32
    // pages in one shard) cannot force an eviction, so the final
    // resident set is the full working set and loss shows up exactly.
    let pool = BufferManager::sharded(Arc::new(store()), 128, PolicyKind::Lru, 4).unwrap();
    let n_threads = 4;
    let ops_per_thread = 500u64;
    std::thread::scope(|scope| {
        for th in 0..n_threads {
            let mut pool = pool.clone();
            scope.spawn(move || {
                let mut rng = 0x9e37_79b9_u64 ^ ((th as u64) << 7);
                for _ in 0..ops_per_thread {
                    let t = (next_rand(&mut rng) % u64::from(N_TERMS)) as u32;
                    let p = (next_rand(&mut rng) % u64::from(PAGES_PER_TERM)) as u32;
                    let id = PageId::new(TermId(t), p);
                    match next_rand(&mut rng) % 3 {
                        0 => {
                            let plan: ReadPlan = [
                                PlanEntry::new(id),
                                PlanEntry::new(PageId::new(
                                    TermId((t + 1) % N_TERMS),
                                    (p + 3) % PAGES_PER_TERM,
                                )),
                            ]
                            .into_iter()
                            .collect();
                            pool.fetch_batch(&plan).unwrap();
                        }
                        1 => {
                            let weights: IdMap<TermId, f64> =
                                [(TermId(t), 1.0)].into_iter().collect();
                            pool.begin_query(&weights);
                        }
                        _ => {
                            pool.fetch(id).unwrap();
                        }
                    }
                }
            });
        }
    });

    // Request split: every fetch was a hit or a load, nothing
    // double-counted even under interleaving.
    let st = pool.stats();
    assert_eq!(st.hits + st.misses, st.requests, "hits + loads != requests");
    assert!(st.requests > 0, "stress drove no traffic");
    let m = pool.metrics();
    assert_eq!(
        m.hits.get() + m.loads.get(),
        st.requests,
        "metrics disagree with stats"
    );

    // No lost or duplicated frames: occupancy within capacity, b_t
    // sums to occupancy, and every resident page sits in the shard the
    // hash routes it to.
    assert!(pool.len() <= pool.capacity(), "pool over capacity");
    let bt_sum: u64 = (0..N_TERMS)
        .map(|t| u64::from(pool.resident_pages(TermId(t))))
        .sum();
    assert_eq!(bt_sum, pool.len() as u64, "b_t disagrees with occupancy");
    let mut resident_total = 0;
    for s in 0..pool.n_shards() {
        let ids = pool.shard_resident_ids(s);
        resident_total += ids.len();
        for id in ids {
            assert_eq!(
                pool.shard_of(id),
                s,
                "page {id:?} resident in a shard the hash does not own"
            );
        }
    }
    assert_eq!(resident_total, pool.len(), "shard occupancy sums wrong");
    // With capacity beyond the whole working set, nothing was evicted:
    // the resident set is exactly every distinct page ever requested.
    assert_eq!(
        pool.len(),
        (N_TERMS * PAGES_PER_TERM) as usize,
        "working set fits, so every page stays resident"
    );
}
