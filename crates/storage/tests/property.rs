//! Cross-policy property tests for the [`BufferManager`]'s accounting
//! contracts: counters ≡ event log, fault recovery is invisible, a
//! duplicate loads once, one plan ≡ page-at-a-time fetches — under
//! every policy and any workload.

use ir_storage::{
    BufferEvent, BufferManager, BufferObserver, DiskSim, EventCounts, FaultConfig, FaultStore,
    FetchOutcome, FetchPolicy, Page, PageStore, PolicyKind,
};
use ir_types::{PageId, PlanEntry, Posting, ReadPlan, TermId};
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

/// Drives `plain` with one `fetch_traced` per request (each a
/// one-entry plan) and `batched` with the whole request stream as a
/// single [`ReadPlan`], then asserts the two pools are
/// indistinguishable: delivered bytes, fetch outcomes, the full event
/// log, and every metric but the batch counters — the batch loop
/// against the page-at-a-time sequence it must equal.
fn assert_one_plan_matches_page_at_a_time<S: PageStore>(
    mut plain: BufferManager<S>,
    mut batched: BufferManager<S>,
    ops: &[(u32, u32)],
    kind: PolicyKind,
) {
    let plain_log = SharedLog::default();
    plain.set_observer(Box::new(plain_log.clone()));
    let batched_log = SharedLog::default();
    batched.set_observer(Box::new(batched_log.clone()));
    let plan: ReadPlan = ops
        .iter()
        .map(|(t, p)| PlanEntry::new(PageId::new(TermId(*t), *p)))
        .collect();
    let out = batched
        .fetch_batch(&plan)
        .unwrap_or_else(|e| panic!("{kind}: whole-stream batch failed: {e}"));
    assert_eq!(out.len(), ops.len(), "{kind}: one result per entry");
    for (entry, (pb, hb)) in plan.iter().zip(&out) {
        let id = entry.page;
        let (pa, ha) = plain.fetch_traced(id).unwrap();
        assert_eq!(ha, *hb, "{kind}: fetch outcome differs for {id:?}");
        assert_eq!(
            pa.postings(),
            pb.postings(),
            "{kind}: delivered bytes differ"
        );
    }
    assert_eq!(
        *plain_log.0.lock().unwrap(),
        *batched_log.0.lock().unwrap(),
        "{kind}: event logs differ"
    );
    let (ma, mb) = (plain.metrics(), batched.metrics());
    assert_eq!(ma.loads.get(), mb.loads.get(), "{kind}: loads");
    assert_eq!(ma.hits.get(), mb.hits.get(), "{kind}: hits");
    assert_eq!(
        ma.evictions_head.get(),
        mb.evictions_head.get(),
        "{kind}: head evictions"
    );
    assert_eq!(
        ma.evictions_tail.get(),
        mb.evictions_tail.get(),
        "{kind}: tail evictions"
    );
    assert_eq!(ma.retries.get(), mb.retries.get(), "{kind}: retries");
    assert_eq!(ma.gave_up.get(), mb.gave_up.get(), "{kind}: gave up");
    assert_eq!(ma.torn_pages.get(), mb.torn_pages.get(), "{kind}: torn");
    let (sa, sb) = (plain.stats(), batched.stats());
    assert_eq!(
        (sa.requests, sa.hits, sa.misses, sa.evictions),
        (sb.requests, sb.hits, sb.misses, sb.evictions),
        "{kind}: snapshot stats differ"
    );
    assert_eq!(
        plain.resident_ids(),
        batched.resident_ids(),
        "{kind}: resident sets differ"
    );
    assert_eq!(mb.batches.get(), 1, "{kind}: the stream went as one batch");
    assert_eq!(
        ma.batches.get(),
        ops.len() as u64,
        "{kind}: every single fetch is a one-entry batch"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dual-accounting invariant: for any fetch/flush
    /// workload, the lock-free `BufferMetrics` counters equal the fold
    /// of the event stream the observer saw ([`EventCounts::tally`]) —
    /// the two accounting paths can never disagree.
    #[test]
    fn metrics_counters_equal_the_event_log_tally(
        capacity in 2usize..6,
        ops in collection::vec((0u32..N_TERMS, 0u32..PAGES_PER_TERM), 1..80),
        flush_at_end in proptest::any::<bool>(),
    ) {
        for kind in PolicyKind::ALL {
            let mut bm = BufferManager::new(store(), capacity, kind).unwrap();
            let log = SharedLog::default();
            bm.set_observer(Box::new(log.clone()));
            for (t, p) in &ops {
                bm.fetch(PageId::new(TermId(*t), *p)).unwrap();
            }
            if flush_at_end {
                bm.flush();
            }
            let counts = EventCounts::tally(&log.0.lock().unwrap());
            let m = bm.metrics();
            assert_eq!(m.loads.get(), counts.loads, "{kind}: loads");
            assert_eq!(m.hits.get(), counts.hits, "{kind}: hits");
            assert_eq!(
                m.evictions_head.get(),
                counts.evictions_head,
                "{kind}: head evictions"
            );
            assert_eq!(
                m.evictions_tail.get(),
                counts.evictions_tail,
                "{kind}: tail evictions"
            );
            assert_eq!(m.retries.get(), counts.retries, "{kind}: retries");
            assert_eq!(m.torn_pages.get(), counts.torn, "{kind}: torn");
            // The snapshot view agrees with both accounting paths:
            // every fetch succeeded, so requests = hits + misses, and
            // misses are exactly the loads.
            let s = bm.stats();
            assert_eq!(s.requests, s.hits + s.misses, "{kind}: request split");
            assert_eq!(s.misses, counts.loads, "{kind}: misses are loads");
            assert_eq!(
                s.evictions,
                counts.evictions_head + counts.evictions_tail,
                "{kind}: eviction split"
            );
        }
    }

    /// Fault-recovery transparency: a pool reading through a
    /// [`FaultStore`] that fails EVERY read transiently (until the
    /// consecutive-fault cap forces delivery), with a retry budget
    /// covering the cap, ends byte-identical to a pool that never saw
    /// a fault — same resident set, same page contents, same hit/miss
    /// accounting, same `b_t` — under every policy.
    #[test]
    fn full_transient_fault_recovery_is_invisible(
        capacity in 2usize..6,
        cap in 1u32..4,
        seed in proptest::any::<u64>(),
        ops in collection::vec((0u32..N_TERMS, 0u32..PAGES_PER_TERM), 1..60),
    ) {
        for kind in PolicyKind::ALL {
            let mut clean = BufferManager::new(store(), capacity, kind).unwrap();
            let cfg = FaultConfig {
                seed,
                transient_rate: 1.0,
                max_consecutive_faults: cap,
                ..FaultConfig::DISABLED
            };
            let mut faulty = BufferManager::new(FaultStore::new(store(), cfg), capacity, kind)
                .unwrap();
            faulty.set_fetch_policy(FetchPolicy::retries(cap));
            for (t, p) in &ops {
                let id = PageId::new(TermId(*t), *p);
                let a = clean.fetch(id).unwrap();
                let b = faulty
                    .fetch(id)
                    .unwrap_or_else(|e| panic!("{kind}: recovery failed: {e}"));
                assert_eq!(a.postings(), b.postings(), "{kind}: delivered bytes differ");
                assert!(b.is_intact(), "{kind}: recovered page fails checksum");
            }
            assert_eq!(
                clean.resident_ids(),
                faulty.resident_ids(),
                "{kind}: resident sets differ"
            );
            for id in clean.resident_ids() {
                let a = clean.peek(id).unwrap();
                let b = faulty.peek(id).unwrap();
                assert_eq!(a.postings(), b.postings(), "{kind}: resident bytes differ");
                assert!(b.is_intact(), "{kind}: resident page fails checksum");
            }
            let (sa, sb) = (clean.stats(), faulty.stats());
            assert_eq!(
                (sa.requests, sa.hits, sa.misses, sa.evictions),
                (sb.requests, sb.hits, sb.misses, sb.evictions),
                "{kind}: accounting differs"
            );
            for t in 0..N_TERMS {
                assert_eq!(
                    clean.resident_pages(TermId(t)),
                    faulty.resident_pages(TermId(t)),
                    "{kind}: b_t differs for term {t}"
                );
            }
            assert_eq!(faulty.metrics().gave_up.get(), 0, "{kind}: budget covers the cap");
        }
    }

    /// Duplicate-page accounting: a plan naming the same page more
    /// than once performs ONE store read — every later occurrence is a
    /// buffer hit. (The pre-batching draft double-counted the reload,
    /// charging two loads for one resident page.)
    #[test]
    fn duplicate_pages_in_one_batch_load_once(
        capacity in 2usize..6,
        t in 0u32..N_TERMS,
        p in 0u32..PAGES_PER_TERM,
        dupes in 1usize..4,
        hinted in proptest::any::<bool>(),
    ) {
        for kind in PolicyKind::ALL {
            let mut bm = BufferManager::new(store(), capacity, kind).unwrap();
            let id = PageId::new(TermId(t), p);
            let entry = if hinted {
                PlanEntry::hinted(id, 0.5)
            } else {
                PlanEntry::new(id)
            };
            let plan: ReadPlan = (0..=dupes).map(|_| entry).collect();
            let fetched = bm.fetch_batch(&plan).unwrap();
            assert_eq!(fetched.len(), dupes + 1, "{kind}: every entry yields a page");
            assert_eq!(
                fetched[0].1,
                FetchOutcome::Miss,
                "{kind}: first occurrence loads"
            );
            for (pg, how) in &fetched[1..] {
                assert_eq!(
                    *how,
                    FetchOutcome::Hit,
                    "{kind}: a duplicate is a hit, never a second load"
                );
                assert_eq!(pg.id(), id, "{kind}: wrong page delivered");
            }
            let m = bm.metrics();
            assert_eq!(m.loads.get(), 1, "{kind}: exactly one store read");
            assert_eq!(m.hits.get(), dupes as u64, "{kind}: duplicates counted as hits");
            let s = bm.stats();
            assert_eq!(s.requests, dupes as u64 + 1, "{kind}: one request per entry");
            assert_eq!(s.misses, 1, "{kind}: duplicate load double-counted");
        }
    }

    /// Batched/plain equivalence: a pool served one whole-stream plan
    /// is metrics- and event-log-identical to a twin fetching the same
    /// pages one at a time, under every policy, with and without
    /// seeded transient faults in the store.
    #[test]
    fn one_plan_matches_page_at_a_time_fetches(
        capacity in 2usize..6,
        with_faults in proptest::any::<bool>(),
        cap in 1u32..4,
        seed in proptest::any::<u64>(),
        ops in collection::vec((0u32..N_TERMS, 0u32..PAGES_PER_TERM), 1..60),
    ) {
        for kind in PolicyKind::ALL {
            if with_faults {
                let cfg = FaultConfig {
                    seed,
                    transient_rate: 1.0,
                    max_consecutive_faults: cap,
                    ..FaultConfig::DISABLED
                };
                let make = || {
                    let mut bm =
                        BufferManager::new(FaultStore::new(store(), cfg), capacity, kind)
                            .unwrap();
                    bm.set_fetch_policy(FetchPolicy::retries(cap));
                    bm
                };
                assert_one_plan_matches_page_at_a_time(make(), make(), &ops, kind);
            } else {
                let make = || BufferManager::new(store(), capacity, kind).unwrap();
                assert_one_plan_matches_page_at_a_time(make(), make(), &ops, kind);
            }
        }
    }
}
