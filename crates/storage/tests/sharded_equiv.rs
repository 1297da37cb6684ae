//! The sharded pool's two load-bearing contracts, tested end to end:
//!
//! * **P = 1 identity** — a one-shard [`ShardedBufferPool`] is
//!   indistinguishable from a bare [`BufferManager`] over the same
//!   request stream: same event log, same metrics, same stats, same
//!   resident set, same `b_t` counters — under every policy, with and
//!   without seeded transient faults. This is what lets the engine
//!   swap the pool in without disturbing any golden CSV.
//! * **K handles ≡ the merged map** — K handles to a one-shard pool,
//!   each announcing its own queries, leave the pool exactly where a
//!   `BufferManager` is left by one announcer that is told the per-term
//!   maximum over the K current queries: the registry the session
//!   server used to keep above the pool, kept here as the oracle.
//! * **One plan ≡ page-at-a-time, on P > 1 too** — a multi-shard pool
//!   serves a plan strictly in plan order, so a whole-stream plan and
//!   the same stream as one-entry plans are indistinguishable from
//!   above (outcomes), inside (per-shard counters, events, resident
//!   sets) and *below* the pool (the store's head movement and its
//!   seeded fault stream).
//! * **Shard accounting under real concurrency** — hammered by
//!   threads, every shard's `hits + loads == requests`, the per-term
//!   `b_t` counters sum to the pool's occupancy (no lost or duplicated
//!   frames), and every resident page lives in exactly the shard the
//!   hash routes it to — even while a hammer thread drains the deferred
//!   hit queue with `quiesce` mid-flight.
//! * **Single-expert mixture identity** — a buffer pool running
//!   [`ExpertMixturePolicy`] over a one-policy panel is event-log- and
//!   metrics-identical to a pool running that expert directly, so the
//!   adaptive machinery provably adds no replacement behaviour of its
//!   own.

use ir_storage::policy::ExpertMixturePolicy;
use ir_storage::{
    BufferEvent, BufferManager, BufferObserver, BufferStats, DiskSim, DiskStats, FaultConfig,
    FaultStats, FaultStore, FetchOutcome, FetchPolicy, Page, PageStore, PolicyKind, QueryBuffer,
    QueryBufferExt, ShardedBufferPool,
};
use ir_types::{IdMap, PageId, PlanEntry, Posting, ReadPlan, TermId};
use proptest::{collection, proptest, ProptestConfig};
use std::sync::{Arc, Mutex};

/// An observer whose log outlives the pool, so a test can tally events
/// while the manager still owns the observer box.
#[derive(Clone, Debug, Default)]
struct SharedLog(Arc<Mutex<Vec<BufferEvent>>>);

impl BufferObserver for SharedLog {
    fn event(&mut self, event: BufferEvent) {
        self.0.lock().unwrap().push(event);
    }
}

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

/// One step of the equivalence workload: `action` selects the call
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

/// Drives `handles` handles to the one-shard pool, taking turns op by
/// op, and the reference manager with the same interleaving of plain
/// fetches, traced fetches, multi-page plans and RAP announcements —
/// each handle announcing its own query, the manager's one announcer
/// the [`merge_weights`] of them — then asserts the two pools are
/// indistinguishable.
fn assert_one_shard_matches_manager<S: PageStore>(
    pool: ShardedBufferPool<S>,
    mut reference: BufferManager<Arc<S>>,
    ops: &[Op],
    kind: PolicyKind,
    handles: usize,
) {
    let pool_log = SharedLog::default();
    pool.with_shard(0, |bm| bm.set_observer(Box::new(pool_log.clone())));
    let ref_log = SharedLog::default();
    reference.set_observer(Box::new(ref_log.clone()));
    let mut sessions = vec![pool];
    for _ in 1..handles {
        sessions.push(sessions[0].clone());
    }
    let mut registry = vec![IdMap::default(); handles];

    for (i, (t, p, action)) in ops.iter().enumerate() {
        let id = PageId::new(TermId(*t), *p);
        let user = i % handles;
        let pool = &mut sessions[user];
        match action % 4 {
            0 => {
                // RAP announcement — no, one or two terms, by the
                // action's upper bits.
                let mut weights: IdMap<TermId, f64> = IdMap::default();
                if action & 4 == 0 {
                    weights.insert(TermId(*t), f64::from(*p + 1));
                }
                if action & 8 == 0 {
                    weights.insert(TermId((*t + 1) % N_TERMS), 2.5);
                }
                pool.begin_query(&weights);
                reference.begin_query(&merge_weights(&mut registry, user, weights));
            }
            1 => {
                let (pa, ha) = pool
                    .fetch_traced(id)
                    .unwrap_or_else(|e| panic!("{kind}: pool fetch failed: {e}"));
                let (pb, hb) = reference.fetch_traced(id).unwrap();
                assert_eq!(ha, hb, "{kind}: outcome differs for {id:?}");
                assert_eq!(pa.postings(), pb.postings(), "{kind}: bytes differ");
            }
            2 => {
                // A three-entry plan spanning two terms, one hinted.
                let plan: ReadPlan = [
                    PlanEntry::new(id),
                    PlanEntry::hinted(PageId::new(TermId(*t), (*p + 1) % PAGES_PER_TERM), 0.5),
                    PlanEntry::new(PageId::new(TermId((*t + 1) % N_TERMS), *p)),
                ]
                .into_iter()
                .collect();
                let a = pool
                    .fetch_batch(&plan)
                    .unwrap_or_else(|e| panic!("{kind}: pool batch failed: {e}"));
                let b = reference.fetch_batch(&plan).unwrap();
                assert_eq!(a.len(), b.len(), "{kind}: batch result lengths differ");
                for ((pa, ha), (pb, hb)) in a.iter().zip(&b) {
                    assert_eq!(ha, hb, "{kind}: batch outcome differs");
                    assert_eq!(pa.postings(), pb.postings(), "{kind}: batch bytes differ");
                }
            }
            _ => {
                let pa = pool.fetch(id).unwrap();
                let pb = reference.fetch(id).unwrap();
                assert_eq!(pa.postings(), pb.postings(), "{kind}: bytes differ");
            }
        }
    }

    // The lock-light hit path defers policy touches and Hit events;
    // replay them in serve order before comparing against the
    // reference, exactly as any exclusive operation would.
    let pool = &sessions[0];
    pool.quiesce();
    assert_eq!(
        *pool_log.0.lock().unwrap(),
        *ref_log.0.lock().unwrap(),
        "{kind}: event logs differ"
    );
    let (sa, sb) = (pool.stats(), reference.stats());
    assert_eq!(
        (sa.requests, sa.hits, sa.misses, sa.evictions),
        (sb.requests, sb.hits, sb.misses, sb.evictions),
        "{kind}: stats differ"
    );
    pool.with_shard(0, |bm| {
        let (ma, mb) = (bm.metrics(), reference.metrics());
        assert_eq!(ma.loads.get(), mb.loads.get(), "{kind}: loads");
        assert_eq!(ma.hits.get(), mb.hits.get(), "{kind}: hits");
        assert_eq!(ma.retries.get(), mb.retries.get(), "{kind}: retries");
        assert_eq!(ma.gave_up.get(), mb.gave_up.get(), "{kind}: gave up");
        assert_eq!(ma.torn_pages.get(), mb.torn_pages.get(), "{kind}: torn");
        assert_eq!(ma.batches.get(), mb.batches.get(), "{kind}: batches");
        assert_eq!(
            ma.batch_pages.sum(),
            mb.batch_pages.sum(),
            "{kind}: batch pages"
        );
        assert_eq!(
            bm.resident_ids(),
            reference.resident_ids(),
            "{kind}: resident sets differ"
        );
    });
    for t in 0..N_TERMS {
        assert_eq!(
            pool.resident_pages(TermId(t)),
            reference.resident_pages(TermId(t)),
            "{kind}: b_t differs for term {t}"
        );
    }
    // A one-shard pool never splits a batch and never waits on another
    // session's shard in this single-threaded stream.
    assert_eq!(pool.metrics().batch_splits.get(), 0, "{kind}: splits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// P = 1 equivalence under every policy, fault-free and through a
    /// [`FaultStore`] failing every read transiently (retry budget
    /// covering the cap), over an arbitrary mix of call shapes.
    #[test]
    fn one_shard_pool_is_identical_to_buffer_manager(
        capacity in 2usize..6,
        with_faults in proptest::any::<bool>(),
        cap in 1u32..4,
        seed in proptest::any::<u64>(),
        ops in collection::vec(
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM, proptest::any::<u8>()),
            150..400,
        ),
    ) {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
            if with_faults {
                let cfg = FaultConfig {
                    seed,
                    transient_rate: 1.0,
                    max_consecutive_faults: cap,
                    ..FaultConfig::DISABLED
                };
                let faulty = Arc::new(FaultStore::new(store(), cfg));
                let pool = ShardedBufferPool::new(Arc::clone(&faulty), capacity, kind, 1)
                    .unwrap();
                pool.set_fetch_policy(FetchPolicy::retries(cap));
                // Twin store with the same seed: the fault schedule is
                // per-store deterministic, so both sides see the same
                // faults in the same order.
                let twin = Arc::new(FaultStore::new(store(), cfg));
                let mut reference = BufferManager::new(twin, capacity, kind).unwrap();
                reference.set_fetch_policy(FetchPolicy::retries(cap));
                assert_one_shard_matches_manager(pool, reference, &ops, kind, 1);
            } else {
                let pool =
                    ShardedBufferPool::new(Arc::new(store()), capacity, kind, 1).unwrap();
                let reference =
                    BufferManager::new(Arc::new(store()), capacity, kind).unwrap();
                assert_one_shard_matches_manager(pool, reference, &ops, kind, 1);
            }
        }
    }

    /// Sessions in the policy ≡ the registry above the pool: three
    /// handles announcing for themselves against one announcer told
    /// the merged map, for the two policy kinds that listen.
    #[test]
    fn k_handles_match_a_manager_announced_the_merged_map(
        capacity in 2usize..10,
        ops in collection::vec(
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM, proptest::any::<u8>()),
            150..400,
        ),
    ) {
        for kind in [PolicyKind::Rap, PolicyKind::Adaptive] {
            let pool = ShardedBufferPool::new(Arc::new(store()), capacity, kind, 1).unwrap();
            let reference = BufferManager::new(Arc::new(store()), capacity, kind).unwrap();
            assert_one_shard_matches_manager(pool, reference, &ops, kind, 3);
        }
    }
}

/// Everything a run leaves observable: above the pool, inside each
/// shard (after a quiesce), and below it.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<FetchOutcome>,
    shard_stats: Vec<BufferStats>,
    shard_events: Vec<Vec<BufferEvent>>,
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
    let faulty = Arc::new(FaultStore::new(store(), config));
    let mut pool = match chunk {
        Some(c) => ShardedBufferPool::with_chunk_pages(Arc::clone(&faulty), frames, kind, 4, c),
        None => ShardedBufferPool::new(Arc::clone(&faulty), frames, kind, 4),
    }
    .unwrap();
    // `FaultConfig::chaos` caps consecutive faults at 3.
    pool.set_fetch_policy(FetchPolicy::retries(4));
    let logs: Vec<SharedLog> = (0..pool.n_shards())
        .map(|s| {
            let log = SharedLog::default();
            pool.with_shard(s, |bm| bm.set_observer(Box::new(log.clone())));
            log
        })
        .collect();
    let weights: IdMap<TermId, f64> = [(TermId(0), 2.0), (TermId(1), 0.5)].into_iter().collect();
    pool.begin_query(&weights);
    let mut outcomes = Vec::new();
    for plan in plans {
        let served = pool.fetch_batch(plan).unwrap();
        outcomes.extend(served.into_iter().map(|(_, how)| how));
    }
    pool.quiesce();
    Observed {
        outcomes,
        shard_stats: (0..pool.n_shards()).map(|s| pool.shard_stats(s)).collect(),
        shard_events: logs.iter().map(|l| l.0.lock().unwrap().clone()).collect(),
        shard_residents: (0..pool.n_shards())
            .map(|s| pool.with_shard(s, |bm| bm.resident_ids()))
            .collect(),
        disk: faulty.inner().stats(),
        faults: faulty.stats(),
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
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM, proptest::any::<bool>()),
            1..60,
        ),
    ) {
        let whole: ReadPlan = ops
            .iter()
            .map(|&(t, p, hinted)| {
                let id = PageId::new(TermId(t), p);
                if hinted {
                    PlanEntry::hinted(id, f64::from(t + 1))
                } else {
                    PlanEntry::new(id)
                }
            })
            .collect();
        let singles: Vec<ReadPlan> = whole.iter().map(|e| [*e].into_iter().collect()).collect();
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
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

/// Drives a pool whose policy is a single-expert [`ExpertMixturePolicy`]
/// and a reference pool running the expert directly through the same
/// interleaving of fetches, traced fetches, hinted plans and RAP
/// announcements, then asserts the mixture is a perfect passthrough:
/// same event log, same stats, same buffer metrics, same resident set,
/// same `b_t` counters.
fn assert_mixture_matches_expert<S: PageStore>(
    mut mixture: BufferManager<Arc<S>>,
    mut reference: BufferManager<Arc<S>>,
    ops: &[Op],
    kind: PolicyKind,
) {
    let mix_log = SharedLog::default();
    mixture.set_observer(Box::new(mix_log.clone()));
    let ref_log = SharedLog::default();
    reference.set_observer(Box::new(ref_log.clone()));

    for (t, p, action) in ops {
        let id = PageId::new(TermId(*t), *p);
        match action % 4 {
            0 => {
                let weights: IdMap<TermId, f64> =
                    [(TermId(*t), f64::from(*p + 1))].into_iter().collect();
                mixture.begin_query(&weights);
                reference.begin_query(&weights);
            }
            1 => {
                let (pa, ha) = mixture
                    .fetch_traced(id)
                    .unwrap_or_else(|e| panic!("mixture[{kind}]: fetch failed: {e}"));
                let (pb, hb) = reference.fetch_traced(id).unwrap();
                assert_eq!(ha, hb, "mixture[{kind}]: outcome differs for {id:?}");
                assert_eq!(
                    pa.postings(),
                    pb.postings(),
                    "mixture[{kind}]: bytes differ"
                );
            }
            2 => {
                let plan: ReadPlan = [
                    PlanEntry::new(id),
                    PlanEntry::hinted(PageId::new(TermId(*t), (*p + 1) % PAGES_PER_TERM), 0.5),
                    PlanEntry::new(PageId::new(TermId((*t + 1) % N_TERMS), *p)),
                ]
                .into_iter()
                .collect();
                let a = mixture
                    .fetch_batch(&plan)
                    .unwrap_or_else(|e| panic!("mixture[{kind}]: batch failed: {e}"));
                let b = reference.fetch_batch(&plan).unwrap();
                assert_eq!(a.len(), b.len(), "mixture[{kind}]: batch lengths differ");
                for ((pa, ha), (pb, hb)) in a.iter().zip(&b) {
                    assert_eq!(ha, hb, "mixture[{kind}]: batch outcome differs");
                    assert_eq!(pa.postings(), pb.postings(), "mixture[{kind}]: batch bytes");
                }
            }
            _ => {
                let pa = mixture.fetch(id).unwrap();
                let pb = reference.fetch(id).unwrap();
                assert_eq!(
                    pa.postings(),
                    pb.postings(),
                    "mixture[{kind}]: bytes differ"
                );
            }
        }
    }

    assert_eq!(
        *mix_log.0.lock().unwrap(),
        *ref_log.0.lock().unwrap(),
        "mixture[{kind}]: event logs differ"
    );
    let (sa, sb) = (mixture.stats(), reference.stats());
    assert_eq!(
        (sa.requests, sa.hits, sa.misses, sa.evictions),
        (sb.requests, sb.hits, sb.misses, sb.evictions),
        "mixture[{kind}]: stats differ"
    );
    let (ma, mb) = (mixture.metrics(), reference.metrics());
    assert_eq!(ma.loads.get(), mb.loads.get(), "mixture[{kind}]: loads");
    assert_eq!(ma.hits.get(), mb.hits.get(), "mixture[{kind}]: hits");
    assert_eq!(
        ma.retries.get(),
        mb.retries.get(),
        "mixture[{kind}]: retries"
    );
    assert_eq!(
        ma.gave_up.get(),
        mb.gave_up.get(),
        "mixture[{kind}]: gave up"
    );
    assert_eq!(
        ma.torn_pages.get(),
        mb.torn_pages.get(),
        "mixture[{kind}]: torn"
    );
    assert_eq!(
        mixture.resident_ids(),
        reference.resident_ids(),
        "mixture[{kind}]: resident sets differ"
    );
    for t in 0..N_TERMS {
        assert_eq!(
            mixture.resident_pages(TermId(t)),
            reference.resident_pages(TermId(t)),
            "mixture[{kind}]: b_t differs for term {t}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A single-expert mixture must be indistinguishable from the
    /// expert it wraps — under every policy in the static panel, with
    /// and without seeded transient faults. This pins down the adaptive
    /// layer's passthrough contract at the pool level: shadow scoring
    /// and leader election may run, but with one expert they can never
    /// change a single victim choice.
    #[test]
    fn single_expert_mixture_is_identical_to_the_expert(
        capacity in 2usize..6,
        with_faults in proptest::any::<bool>(),
        cap in 1u32..4,
        seed in proptest::any::<u64>(),
        ops in collection::vec(
            (0u32..N_TERMS, 0u32..PAGES_PER_TERM, proptest::any::<u8>()),
            1..50,
        ),
    ) {
        for kind in PolicyKind::ALL {
            let panel = Box::new(ExpertMixturePolicy::with_panel(&[kind], capacity));
            if with_faults {
                let cfg = FaultConfig {
                    seed,
                    transient_rate: 1.0,
                    max_consecutive_faults: cap,
                    ..FaultConfig::DISABLED
                };
                let mut mixture = BufferManager::with_policy(
                    Arc::new(FaultStore::new(store(), cfg)),
                    capacity,
                    panel,
                    PolicyKind::Adaptive,
                )
                .unwrap();
                mixture.set_fetch_policy(FetchPolicy::retries(cap));
                // Twin store, same seed: both sides see the same faults.
                let twin = Arc::new(FaultStore::new(store(), cfg));
                let mut reference = BufferManager::new(twin, capacity, kind).unwrap();
                reference.set_fetch_policy(FetchPolicy::retries(cap));
                assert_mixture_matches_expert(mixture, reference, &ops, kind);
            } else {
                let mixture = BufferManager::with_policy(
                    Arc::new(store()),
                    capacity,
                    panel,
                    PolicyKind::Adaptive,
                )
                .unwrap();
                let reference =
                    BufferManager::new(Arc::new(store()), capacity, kind).unwrap();
                assert_mixture_matches_expert(mixture, reference, &ops, kind);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The lock-light hit path under real contention: eight threads
    /// hammer overlapping single-term plans against a pool whose warmed
    /// working set never evicts, so every post-warm request is served
    /// off the shared read lock with only atomic counter updates, while
    /// a ninth thread drains the deferred hit queue with `quiesce` in a
    /// tight loop. A replay racing live traffic is exactly the window
    /// the pending-hits dirty flag guards, so the eager counters must
    /// still be exact — per-shard `hits + loads == requests`, the
    /// global totals match the workload arithmetic (no lost updates),
    /// and every resident page lives in the shard the hash owns.
    #[test]
    fn lock_light_hit_path_loses_no_counters(
        seed in proptest::any::<u64>(),
        ops_per_thread in 16u64..64,
    ) {
        let mut pool =
            ShardedBufferPool::new(Arc::new(store()), 128, PolicyKind::Lru, 4).unwrap();
        // Warm the full working set: 32 requests, all loads.
        for t in 0..N_TERMS {
            for p in 0..PAGES_PER_TERM {
                pool.fetch(PageId::new(TermId(t), p)).unwrap();
            }
        }
        let warmed = u64::from(N_TERMS * PAGES_PER_TERM);
        let n_threads = 8u64;
        let stop = std::sync::atomic::AtomicBool::new(false);
        crossbeam::thread::scope(|scope| {
            let mut workers = Vec::new();
            for th in 0..n_threads {
                let mut pool = pool.clone();
                workers.push(scope.spawn(move |_| {
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
                }));
            }
            // Quiesce hammer: replay the deferred hit queue while the
            // workers are mid-batch, over and over. Every drain races
            // the dirty flag against live appends.
            let hammer = {
                let pool = pool.clone();
                let stop = &stop;
                scope.spawn(move |_| {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        pool.quiesce();
                        std::thread::yield_now();
                    }
                })
            };
            for worker in workers {
                worker.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            hammer.join().unwrap();
        })
        .unwrap();

        let expected = warmed + n_threads * ops_per_thread * u64::from(PAGES_PER_TERM);
        let mut per_shard = 0;
        for s in 0..pool.n_shards() {
            let st = pool.shard_stats(s);
            assert_eq!(st.hits + st.misses, st.requests, "shard {s} split");
            per_shard += st.requests;
        }
        assert_eq!(per_shard, expected, "lost or duplicated requests");
        let stats = pool.stats();
        assert_eq!(stats.requests, expected);
        assert_eq!(stats.misses, warmed, "post-warm traffic must all hit");
        assert_eq!(stats.hits, expected - warmed);
        // Replaying deferred hit effects moves policy state only —
        // never a counter.
        pool.quiesce();
        assert_eq!(pool.stats().requests, expected);
        // Hash-owned residency survives the hammering.
        for s in 0..pool.n_shards() {
            for id in pool.with_shard(s, |bm| bm.resident_ids()) {
                assert_eq!(pool.shard_of(id), s, "page {id:?} in wrong shard");
            }
        }
        assert_eq!(pool.len(), warmed as usize, "nothing may evict");
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
    let pool = ShardedBufferPool::new(Arc::new(store()), 128, PolicyKind::Lru, 4).unwrap();
    let n_threads = 4;
    let ops_per_thread = 500u64;
    crossbeam::thread::scope(|scope| {
        for th in 0..n_threads {
            let mut pool = pool.clone();
            scope.spawn(move |_| {
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
    })
    .unwrap();

    // Per-shard request split: every fetch was a hit or a load,
    // nothing double-counted even under interleaving.
    let mut total_requests = 0;
    for s in 0..pool.n_shards() {
        let st = pool.shard_stats(s);
        assert_eq!(
            st.hits + st.misses,
            st.requests,
            "shard {s}: hits + loads != requests"
        );
        total_requests += st.requests;
        pool.with_shard(s, |bm| {
            let m = bm.metrics();
            assert_eq!(
                m.hits.get() + m.loads.get(),
                st.requests,
                "shard {s}: metrics disagree with stats"
            );
        });
    }
    assert!(total_requests > 0, "stress drove no traffic");
    assert_eq!(pool.stats().requests, total_requests, "rollup disagrees");

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
        let ids = pool.with_shard(s, |bm| bm.resident_ids());
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
