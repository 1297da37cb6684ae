//! Equivalence suite for the persistent storage tier: an index
//! exported to a `BFPG` page file and read back through
//! [`FilePageStore`] — directly, or behind an [`IoScheduler`] with the
//! latency model zeroed at queue depth 1 — must be **event-for-event
//! identical** to the in-memory [`DiskSim`]: same ranked answers
//! (bit-equal scores), same [`EvalStats`], same buffer event stream,
//! same pool counters, same disk-level stats. A deeper queue under a
//! priced model keeps the pool's view identical and only shortens the
//! accounted wait.
//! The same holds with a [`FaultStore`] injecting an identical seeded
//! fault schedule above either backend.

use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{Algorithm, EvalStats, Query};
use ir_index::{save_page_file, BuildOptions, IndexBuilder, InvertedIndex};
use ir_storage::{
    BufferEvent, BufferManager, BufferObserver, BufferStats, FaultConfig, FaultStore, FetchPolicy,
    FileMode, FilePageStore, IoConfig, IoScheduler, LatencyModel, PageStore, PolicyKind,
};
use ir_types::{ClockKind, DocId, FilterParams, IndexParams, TermId};
use proptest::{collection, proptest, ProptestConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// An observer whose log outlives the pool, so the test can compare
/// event streams after the manager is dropped.
#[derive(Clone, Debug, Default)]
struct SharedLog(Arc<Mutex<Vec<BufferEvent>>>);

impl BufferObserver for SharedLog {
    fn event(&mut self, event: BufferEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// A collection with enough overlap and list length that refinement
/// queries hit, miss, and evict under a small pool.
fn index() -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for d in 0..80u32 {
        let mut doc = vec![["red", "green", "blue"][(d % 3) as usize]];
        if d % 2 == 0 {
            doc.push("alpha");
        }
        if d % 3 == 0 {
            doc.push("beta");
        }
        if d % 4 == 0 {
            doc.push("gamma");
        }
        if d % 5 == 0 {
            doc.push("delta");
        }
        if d % 7 == 0 {
            doc.extend(["epsilon", "epsilon"]);
        }
        b.add_document(doc);
    }
    b.build(BuildOptions {
        params: IndexParams::with_page_size(2),
        ..BuildOptions::default()
    })
    .unwrap()
}

/// An AddOnly refinement workload over `names`: step `k` queries the
/// first `k + 1` names.
fn workload(idx: &InvertedIndex, names: &[&str]) -> Vec<Vec<(TermId, u32)>> {
    let t = |n: &str| idx.lexicon().lookup(n).unwrap();
    (0..names.len())
        .map(|k| names[..=k].iter().map(|n| (t(n), 1)).collect())
        .collect()
}

fn options() -> EvalOptions {
    EvalOptions {
        params: FilterParams::PERSIN,
        top_n: 10,
        baf_force_first_page: false,
    }
}

/// Everything one run observes; two backends are interchangeable iff
/// their traces are equal.
#[derive(Debug, PartialEq)]
struct RunTrace {
    answers: Vec<Vec<(DocId, u64)>>,
    stats: Vec<EvalStats>,
    pool: BufferStats,
    events: Vec<BufferEvent>,
}

/// Replays `steps` through one cold pool over `store` and captures the
/// full observable trace. Scores are compared via their bit patterns:
/// the backends must produce *identical* floats, not merely close
/// ones.
fn run<S: PageStore>(
    idx: &InvertedIndex,
    store: S,
    frames: usize,
    policy: PolicyKind,
    fetch: FetchPolicy,
    algorithm: Algorithm,
    steps: &[Vec<(TermId, u32)>],
) -> RunTrace {
    let log = SharedLog::default();
    let mut buffer = BufferManager::new(store, frames, policy).unwrap();
    buffer.set_fetch_policy(fetch);
    buffer.set_observer(Box::new(log.clone()));
    let mut answers = Vec::new();
    let mut stats = Vec::new();
    for terms in steps {
        let q = Query::from_ids(idx, terms).unwrap();
        let r = evaluate(algorithm, idx, &mut buffer, &q, options()).unwrap();
        answers.push(r.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect());
        stats.push(r.stats);
    }
    let pool = buffer.stats();
    drop(buffer);
    let events = std::mem::take(&mut *log.0.lock().unwrap());
    RunTrace {
        answers,
        stats,
        pool,
        events,
    }
}

fn page_file(idx: &InvertedIndex, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("buffir-storage-backend-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.bfpg", std::process::id()));
    save_page_file(idx, &path).unwrap();
    path
}

const FRAMES: usize = 8;
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// The tentpole contract: with the latency model zeroed and queue
/// depth 1, the file backend (scheduled or not) is indistinguishable
/// from the simulator for every policy — down to the disk-level
/// stats. At queue depth 4 under a priced virtual-clock model the pool
/// still cannot tell: staging happens below it, may read more from
/// the device than was demanded, and pays a strictly shorter wait than
/// the serial disk does for the same workload.
#[test]
fn file_backend_is_event_identical_to_disksim_for_every_policy() {
    let idx = index();
    let steps = workload(&idx, &NAMES);
    let path = page_file(&idx, "equiv");
    for algorithm in [Algorithm::Baf, Algorithm::Df] {
        for policy in PolicyKind::ALL {
            idx.disk().reset_stats();
            let reference = run(
                &idx,
                Arc::clone(idx.disk()),
                FRAMES,
                policy,
                FetchPolicy::NO_RETRY,
                algorithm,
                &steps,
            );
            let sim_stats = idx.disk().stats();
            idx.disk().reset_stats();

            let store = Arc::new(FilePageStore::open(&path, FileMode::Buffered).unwrap());
            let trace = run(
                &idx,
                Arc::clone(&store),
                FRAMES,
                policy,
                FetchPolicy::NO_RETRY,
                algorithm,
                &steps,
            );
            assert_eq!(trace, reference, "{algorithm:?}/{policy}");
            assert_eq!(store.stats(), sim_stats, "{algorithm:?}/{policy}");

            // One scheduled run: its trace, the device-level stats
            // underneath, and the wait the model accounted.
            let scheduled = |queue_depth: usize, model: LatencyModel| {
                let inner = Arc::new(FilePageStore::open(&path, FileMode::Buffered).unwrap());
                let sched = Arc::new(IoScheduler::new(
                    Arc::clone(&inner),
                    IoConfig {
                        queue_depth,
                        model,
                        clock: ClockKind::Virtual,
                    },
                ));
                let trace = run(
                    &idx,
                    Arc::clone(&sched),
                    FRAMES,
                    policy,
                    FetchPolicy::NO_RETRY,
                    algorithm,
                    &steps,
                );
                (trace, inner.stats(), sched.io_wait_us())
            };
            let (trace, device, wait) = scheduled(1, LatencyModel::ZERO);
            assert_eq!(trace, reference, "{algorithm:?}/{policy}/sched[qd1,zero]");
            assert_eq!(device, sim_stats, "{algorithm:?}/{policy}/sched");
            assert_eq!(wait, 0, "a zeroed model must account no wait");

            let disk = LatencyModel {
                seek_us: 200,
                transfer_us: 50,
            };
            let (serial_trace, serial_device, serial_wait) = scheduled(1, disk);
            let (deep_trace, deep_device, deep_wait) = scheduled(4, disk);
            assert_eq!(serial_trace, reference, "{algorithm:?}/{policy}/sched[qd1]");
            assert_eq!(
                serial_device, sim_stats,
                "{algorithm:?}/{policy}/sched[qd1]"
            );
            assert_eq!(deep_trace, reference, "{algorithm:?}/{policy}/sched[qd4]");
            assert!(
                deep_device.reads >= sim_stats.reads,
                "{algorithm:?}/{policy}: {} device reads for {} demanded",
                deep_device.reads,
                sim_stats.reads
            );
            assert!(
                deep_wait < serial_wait,
                "{algorithm:?}/{policy}: qd4 waited {deep_wait} µs, qd1 {serial_wait} µs"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The same seeded fault schedule above either backend injects the
/// same faults at the same draws, so the recovered runs stay
/// event-identical too.
#[test]
fn seeded_faults_are_backend_agnostic() {
    let idx = index();
    let steps = workload(&idx, &NAMES);
    let path = page_file(&idx, "faults");
    let retries = FetchPolicy::retries(4);
    for policy in PolicyKind::ALL {
        idx.disk().reset_stats();
        let sim_faults = Arc::new(FaultStore::new(
            Arc::clone(idx.disk()),
            FaultConfig::chaos(193),
        ));
        let reference = run(
            &idx,
            Arc::clone(&sim_faults),
            FRAMES,
            policy,
            retries,
            Algorithm::Baf,
            &steps,
        );
        idx.disk().reset_stats();

        let store = Arc::new(FilePageStore::open(&path, FileMode::Buffered).unwrap());
        let file_faults = Arc::new(FaultStore::new(Arc::clone(&store), FaultConfig::chaos(193)));
        let trace = run(
            &idx,
            Arc::clone(&file_faults),
            FRAMES,
            policy,
            retries,
            Algorithm::Baf,
            &steps,
        );
        assert_eq!(trace, reference, "{policy} under faults");
        assert_eq!(
            file_faults.stats(),
            sim_faults.stats(),
            "{policy}: both backends must draw the same fault schedule"
        );
        assert!(
            sim_faults.stats().total_faults() > 0,
            "{policy}: seed injected nothing"
        );
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary refinement workloads (any mix of the five topic
    /// terms, any small pool) evaluate identically over the simulator
    /// and the page file.
    #[test]
    fn arbitrary_workloads_are_backend_identical(
        picks in collection::vec(collection::vec(0usize..NAMES.len(), 1..4), 1..6),
        frames in 2usize..12,
    ) {
        let idx = index();
        let t = |n: &str| idx.lexicon().lookup(n).unwrap();
        let steps: Vec<Vec<(TermId, u32)>> = picks
            .iter()
            .map(|q| q.iter().map(|&i| (t(NAMES[i]), 1)).collect())
            .collect();
        let path = page_file(&idx, "prop");
        idx.disk().reset_stats();
        let reference = run(
            &idx,
            Arc::clone(idx.disk()),
            frames,
            PolicyKind::Rap,
            FetchPolicy::NO_RETRY,
            Algorithm::Baf,
            &steps,
        );
        let sim_stats = idx.disk().stats();
        idx.disk().reset_stats();
        let store = Arc::new(FilePageStore::open(&path, FileMode::Buffered).unwrap());
        let trace = run(
            &idx,
            Arc::clone(&store),
            frames,
            PolicyKind::Rap,
            FetchPolicy::NO_RETRY,
            Algorithm::Baf,
            &steps,
        );
        let _ = std::fs::remove_file(&path);
        assert_eq!(trace, reference);
        assert_eq!(store.stats(), sim_stats);
    }
}
