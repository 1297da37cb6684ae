//! The multi-session server: N refinement sessions over one shared
//! buffer pool (paper §3.3).
//!
//! The paper sketches two ways to extend RAP to multiple users —
//! partitioned pools, and a shared pool with a merged ("global") query
//! history — and leaves the trade-off open. [`SessionServer`] runs the
//! second: every run provisions one [`BufferManager`], and each
//! session drives its own refinement sequence through a handle of its
//! own to it. The query history lives in the
//! pool: a handle is a session, and RAP values a page by the highest
//! weight any session's current query gives its term, so the shared
//! pool *is* the paper's option 2 with nothing above it. A private
//! partition reads exactly what its session reads alone on a pool of
//! the partition's size, which is how the multi-user experiment prices
//! option 1 (EXPERIMENTS.md, "Multi-user buffering").
//!
//! Two schedules are offered, and they differ only in who steps the
//! sessions. [`Schedule::RoundRobin`] steps them on the calling
//! thread, refinement `k` of user `u` right after refinement `k` of
//! user `u − 1`: the page request stream is deterministic, which is
//! what a reproducible experiment needs. [`Schedule::FreeRunning`]
//! gives each session a scoped thread of its own and lets the OS
//! interleave them — the realistic mode. Locking is per read plan, so
//! free-running sessions genuinely interleave inside a single query.
//! Per-session counters stay exact even then: every fetch reports its
//! own outcome (hit or miss) to the calling session inside the fetch's
//! critical section, so attribution never leaks across sessions, and
//! the store and the pool charge every I/O and shard-lock wait to the
//! thread that waited, so the ledger's wait columns are exact too.
//!
//! ## Fault tolerance
//!
//! The server is built to degrade, not collapse:
//!
//! * The store can be wrapped in a seeded [`FaultStore`]
//!   ([`SessionServer::with_faults`]) injecting transient read errors,
//!   torn pages and latency spikes; sessions then ride the pool's
//!   bounded retry ([`SessionServer::with_fetch_policy`]).
//! * A session that hits a terminal [`IrError`] — or panics — is
//!   reported as [`SessionOutcome::Failed`] while every other session
//!   runs to completion: each step evaluates under `catch_unwind`, and
//!   the pool's locks ignore poisoning ([`ir_types::sync`]).

use crate::ledger::{query_cost, CostLedger, QueryCost};
use ir_core::eval::{evaluate_on, Clock, EvalOptions, RealClock};
use ir_core::{Algorithm, Query, RefinementSequence, SequenceOutcome, StepOutcome};
use ir_index::InvertedIndex;
use ir_storage::{
    BufferManager, BufferStats, FaultConfig, FaultStats, FaultStore, FetchPolicy, PageStore,
    PolicyKind, QueryBuffer,
};
use ir_types::{IrError, IrResult, TermId};
use std::sync::Arc;

/// The buffer memory a run provisions for its sessions: one
/// [`BufferManager`] every session shares.
#[derive(Clone, Copy, Debug)]
pub enum PoolLayout {
    /// One pool of `shards` shards shared by every session (paper
    /// §3.3, option 2: RAP keeps every session's current query and
    /// values a term at the highest weight any of them gives it).
    /// Frames are striped by term-chunk hash, each shard behind its
    /// own mutex, so concurrent traffic on different shards never
    /// contends. With `shards = 1` this is the paper's single shared
    /// pool, the one `BufferManager::new` builds; with
    /// more shards it is the scaling configuration (each shard evicts
    /// its local minimum — a documented approximation of global RAP).
    Sharded {
        /// Pool size in frames, summed over all shards.
        total_frames: usize,
        /// Replacement policy run inside every shard.
        policy: PolicyKind,
        /// Number of lock stripes (`P ≥ 1`).
        shards: usize,
    },
}

/// How sessions are interleaved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// One thread per session, no coordination: the OS scheduler
    /// interleaves page requests. Realistic; per-session counters stay
    /// exact (per-fetch outcome attribution), but the request stream
    /// varies run to run.
    FreeRunning,
    /// Refinements run one at a time on the calling thread, in
    /// round-robin order (user 0's step `k`, then user 1's step `k`,
    /// ...): deterministic request stream, reproducible counters.
    RoundRobin,
}

/// One session's workload: a refinement sequence and how to evaluate
/// it.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// The refinement sequence this session submits.
    pub sequence: RefinementSequence,
    /// Evaluation algorithm (the paper's multi-user runs use BAF).
    pub algorithm: Algorithm,
    /// Evaluation knobs.
    pub options: EvalOptions,
    /// Chaos hook: panic deliberately before evaluating this step
    /// (0-based). The panic is caught by the session guard and must
    /// degrade to [`SessionOutcome::Failed`] without disturbing the
    /// other sessions — the property the chaos suite asserts.
    pub chaos_panic_at: Option<u32>,
}

impl SessionSpec {
    /// A session with the paper's default evaluation options.
    pub fn new(sequence: RefinementSequence, algorithm: Algorithm) -> Self {
        SessionSpec {
            sequence,
            algorithm,
            options: EvalOptions::default(),
            chaos_panic_at: None,
        }
    }
}

/// How one session's run ended.
#[derive(Clone, Debug)]
pub enum SessionOutcome {
    /// Every refinement evaluated.
    Completed(SequenceOutcome),
    /// The session hit a terminal error (or panicked) and stopped
    /// evaluating; the steps completed before the failure are kept.
    Failed {
        /// Outcomes of the steps that finished before the failure.
        completed: SequenceOutcome,
        /// What ended the session.
        error: IrError,
    },
}

impl SessionOutcome {
    /// The steps this session did evaluate (all of them when
    /// [`Completed`](SessionOutcome::Completed)).
    pub fn sequence(&self) -> &SequenceOutcome {
        match self {
            SessionOutcome::Completed(s) => s,
            SessionOutcome::Failed { completed, .. } => completed,
        }
    }

    /// The terminal error, if the session failed.
    pub fn error(&self) -> Option<&IrError> {
        match self {
            SessionOutcome::Completed(_) => None,
            SessionOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// True when the session did not finish its sequence.
    pub fn is_failed(&self) -> bool {
        matches!(self, SessionOutcome::Failed { .. })
    }

    /// Disk reads over the evaluated steps.
    pub fn total_disk_reads(&self) -> u64 {
        self.sequence().total_disk_reads()
    }
}

/// What a [`SessionServer::run`] call observed of its sessions and of
/// the run's pool.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Per-session outcomes, in spec order.
    pub sessions: Vec<SessionOutcome>,
    /// Pool counters aggregated over every session's traffic.
    pub pool_stats: BufferStats,
    /// Frames the pool was provisioned with.
    pub total_frames: usize,
    /// Frames occupied when the last session finished.
    pub final_occupancy: usize,
    /// Sum of per-term resident page counts (`b_t`) at the end of the
    /// run. Always equals `final_occupancy`: every frame holds exactly
    /// one page of exactly one term's list.
    pub resident_term_pages: u64,
    /// Store reads re-attempted under the pool's [`FetchPolicy`].
    pub retries: u64,
    /// Fetches abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Checksum-failing (torn) deliveries the pool rejected.
    pub torn_pages: u64,
    /// What the fault-injection layer did (all-zero when faults are
    /// disabled, or when the run was over a pool the caller built).
    pub fault_stats: FaultStats,
    /// One [`QueryCost`] row per evaluated refinement, across every
    /// session. Hits and misses are attributed per fetch, and I/O and
    /// lock waits per thread, so rows are exact under either
    /// schedule.
    pub ledger: CostLedger,
    /// Wall-clock time of the whole run (first step to last), µs.
    pub wall_us: u64,
    /// Total time sessions spent waiting on shard locks, µs.
    /// Accumulated at nanosecond resolution — sub-µs contended waits
    /// do not truncate to zero — then reported in µs.
    pub lock_wait_us: u64,
    /// Read plans that spanned more than one shard (0 whenever the
    /// pool has one shard).
    pub batch_splits: u64,
}

impl ServerReport {
    /// The sessions that failed, as `(index, error)` pairs.
    pub fn failed_sessions(&self) -> Vec<(usize, &IrError)> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.error().map(|e| (i, e)))
            .collect()
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs N refinement sessions against one shared pool.
///
/// Each [`run`](SessionServer::run) provisions a **cold** pool (the
/// paper clears the cache before each sequence, §5.2.1) and runs every
/// [`SessionSpec`] to its end under the [`Schedule`] before
/// returning, so the report reflects a complete run. Every
/// query is timed on the clock `C` — the real one, unless
/// [`with_clock`](SessionServer::with_clock) swaps in another — and
/// its row in the report's ledger splits the time by layer.
#[derive(Clone, Copy, Debug)]
pub struct SessionServer<'a, C = RealClock> {
    index: &'a InvertedIndex,
    layout: PoolLayout,
    faults: FaultConfig,
    fetch_policy: FetchPolicy,
    clock: C,
}

impl<'a> SessionServer<'a> {
    /// A server over `index` with the given pool layout, faults
    /// disabled and no fetch retries.
    pub fn new(index: &'a InvertedIndex, layout: PoolLayout) -> Self {
        SessionServer {
            index,
            layout,
            faults: FaultConfig::DISABLED,
            fetch_policy: FetchPolicy::NO_RETRY,
            clock: RealClock::new(),
        }
    }
}

impl<'a, C: Clock + Sync> SessionServer<'a, C> {
    /// The same server, timing its queries on `clock`.
    pub fn with_clock<D: Clock + Sync>(self, clock: D) -> SessionServer<'a, D> {
        SessionServer {
            index: self.index,
            layout: self.layout,
            faults: self.faults,
            fetch_policy: self.fetch_policy,
            clock,
        }
    }

    /// Injects seeded faults between the pool and the simulated disk.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy every pool fetch runs under.
    pub fn with_fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Runs one session per spec under `schedule` and reports the
    /// combined outcome.
    ///
    /// A session that hits an evaluation error or panics is degraded
    /// to [`SessionOutcome::Failed`] and stops evaluating; the other
    /// sessions still run to completion and the report is still `Ok`.
    ///
    /// # Errors
    /// Pool construction errors only ([`IrError::EmptyBufferPool`]).
    pub fn run(&self, specs: &[SessionSpec], schedule: Schedule) -> IrResult<ServerReport> {
        let store = Arc::new(FaultStore::new(Arc::clone(self.index.disk()), self.faults));
        let PoolLayout::Sharded {
            total_frames,
            policy,
            shards,
        } = self.layout;
        let pool = BufferManager::sharded(Arc::clone(&store), total_frames, policy, shards)?;
        pool.set_fetch_policy(self.fetch_policy);
        let mut report = self.run_on(&pool, specs, schedule);
        report.fault_stats = store.stats();
        Ok(report)
    }

    /// Runs one session per spec under `schedule` over `pool` — a
    /// pool the caller built over a store of its own, such as a device
    /// behind an [`IoScheduler`](ir_storage::IoScheduler) — and reports
    /// as [`run`](Self::run) does. The server's layout, faults and
    /// fetch policy are the caller's to give the pool; the report's
    /// `fault_stats` stay zero.
    pub fn run_on<S: PageStore + Send + Sync>(
        &self,
        pool: &BufferManager<S>,
        specs: &[SessionSpec],
        schedule: Schedule,
    ) -> ServerReport {
        let (sessions, ledger, wall_us) = self.run_sessions(specs, schedule, pool);
        // The counters are eager, and a hit's policy and observer
        // effects happen when it is served: nothing is owed here.
        let all_terms: Vec<TermId> = (0..self.index.lexicon().len() as u32).map(TermId).collect();
        ServerReport {
            sessions,
            pool_stats: pool.stats(),
            total_frames: pool.capacity(),
            final_occupancy: pool.len(),
            resident_term_pages: pool
                .resident_pages_many(&all_terms)
                .into_iter()
                .map(u64::from)
                .sum(),
            retries: pool.metrics().retries.get(),
            gave_up: pool.metrics().gave_up.get(),
            torn_pages: pool.metrics().torn_pages.get(),
            fault_stats: FaultStats::default(),
            ledger,
            wall_us,
            lock_wait_us: pool.metrics().lock_wait_ns.sum() / 1_000,
            batch_splits: pool.metrics().batch_splits.get(),
        }
    }

    /// Gives each spec a handle of its own to `pool` — in spec order,
    /// before the first step, so the announcers are the same run to
    /// run — and has the schedule step the sessions: in turn on the
    /// calling thread, or each on a scoped thread of its own. Returns
    /// the outcomes in spec order, their rows session after session,
    /// and the run's wall time, µs.
    fn run_sessions<S: PageStore + Send + Sync>(
        &self,
        specs: &[SessionSpec],
        schedule: Schedule,
        pool: &BufferManager<S>,
    ) -> (Vec<SessionOutcome>, CostLedger, u64) {
        let max_steps = specs
            .iter()
            .map(|s| s.sequence.steps.len())
            .max()
            .unwrap_or(0);
        let mut sessions: Vec<Session<'_, S>> = specs
            .iter()
            .enumerate()
            .map(|(user, spec)| Session {
                user: user as u32,
                spec,
                buffer: Some(pool.clone()),
                steps: Vec::with_capacity(spec.sequence.steps.len()),
                costs: Vec::with_capacity(spec.sequence.steps.len()),
                failure: None,
            })
            .collect();
        let (index, clock) = (self.index, &self.clock);
        let run_started = std::time::Instant::now();
        match schedule {
            Schedule::RoundRobin => {
                for k in 0..max_steps {
                    for session in &mut sessions {
                        session.step(k, index, clock);
                    }
                }
            }
            Schedule::FreeRunning => std::thread::scope(|scope| {
                for session in &mut sessions {
                    scope.spawn(move || (0..max_steps).for_each(|k| session.step(k, index, clock)));
                }
            }),
        }
        let wall_us = run_started.elapsed().as_micros() as u64;
        let mut ledger = CostLedger::new();
        let outcomes = sessions
            .into_iter()
            .map(|session| {
                ledger.entries.extend(session.costs);
                let completed = SequenceOutcome {
                    steps: session.steps,
                };
                match session.failure {
                    None => SessionOutcome::Completed(completed),
                    Some(error) => SessionOutcome::Failed { completed, error },
                }
            })
            .collect();
        (outcomes, ledger, wall_us)
    }
}

/// One session of a run: its spec, its handle to the pool for as long
/// as it has queries left, and what its steps produced.
struct Session<'s, S: PageStore> {
    user: u32,
    spec: &'s SessionSpec,
    buffer: Option<BufferManager<S>>,
    steps: Vec<StepOutcome>,
    costs: Vec<QueryCost>,
    failure: Option<IrError>,
}

impl<S: PageStore> Session<'_, S> {
    /// Evaluates step `k`, if the session has it and has not failed,
    /// timing the query on `clock` from its start to its answers. A
    /// panic inside evaluation fails the session like any other error.
    /// A session that failed or has no query left is a user who is
    /// gone: dropping its handle takes its last query out of the pool's
    /// history, inside the session's own step, so under `RoundRobin`
    /// the re-valuation is part of the deterministic stream.
    fn step<C: Clock>(&mut self, k: usize, index: &InvertedIndex, clock: &C) {
        let spec = self.spec;
        if let Some((buffer, terms)) = self.buffer.as_mut().zip(spec.sequence.steps.get(k)) {
            let started = clock.now_ns();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if spec.chaos_panic_at == Some(k as u32) {
                    panic!("chaos: injected panic at step {k}");
                }
                Query::from_ids(index, terms).and_then(|q| {
                    evaluate_on(spec.algorithm, index, buffer, &q, spec.options, clock)
                })
            }))
            .unwrap_or_else(|payload| Err(IrError::SessionPanicked(panic_message(payload))));
            match outcome {
                Ok(result) => {
                    self.costs.push(query_cost(
                        self.user,
                        k as u32,
                        &result.stats,
                        &result.layers,
                        clock.now_ns() - started,
                    ));
                    self.steps.push(StepOutcome {
                        stats: result.stats,
                        hits: result.hits,
                        avg_precision: None,
                    });
                }
                Err(e) => self.failure = Some(e),
            }
        }
        if self.failure.is_some() || k + 1 >= spec.sequence.steps.len() {
            self.buffer = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::{BufferEvent, BufferObserver};
    use ir_types::IndexParams;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A collection where four topic terms overlap in every document
    /// mix, so concurrent sessions contend for the same pages.
    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in 0..60u32 {
            // Every doc carries a filler term with positive idf, so no
            // candidate ever has a zero-length weight vector.
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

    /// An ADD-ONLY sequence over `names`: step k queries names[..=k].
    fn seq(idx: &InvertedIndex, names: &[&str]) -> RefinementSequence {
        let t = |n: &str| idx.lexicon().lookup(n).unwrap();
        let steps = (0..names.len())
            .map(|k| names[..=k].iter().map(|n| (t(n), 1)).collect())
            .collect();
        RefinementSequence {
            kind: ir_core::RefinementKind::AddOnly,
            source: 0,
            steps,
        }
    }

    /// Disk reads summed over every session's outcome.
    fn session_reads(report: &ServerReport) -> u64 {
        report
            .sessions
            .iter()
            .map(SessionOutcome::total_disk_reads)
            .sum()
    }

    /// Four users whose refinements all lean on the common terms.
    fn specs(idx: &InvertedIndex) -> Vec<SessionSpec> {
        [
            ["alpha", "beta", "gamma"],
            ["beta", "alpha", "delta"],
            ["gamma", "alpha", "epsilon"],
            ["delta", "beta", "alpha"],
        ]
        .iter()
        .map(|names| SessionSpec::new(seq(idx, names), Algorithm::Baf))
        .collect()
    }

    #[test]
    fn four_threaded_sessions_on_a_shared_pool_keep_invariants() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 12,
                policy: PolicyKind::Lru,
                shards: 1,
            },
        );
        let report = server.run(&specs(&idx), Schedule::FreeRunning).unwrap();
        assert_eq!(report.sessions.len(), 4);
        assert!(report
            .sessions
            .iter()
            .all(|s| !s.is_failed() && s.sequence().steps.len() == 3));
        let s = report.pool_stats;
        assert_eq!(s.hits + s.misses, s.requests, "{s:?}");
        assert!(report.final_occupancy <= report.total_frames);
        assert_eq!(report.resident_term_pages, report.final_occupancy as u64);
        // Per-fetch outcome attribution: even under FreeRunning the
        // per-session read counts carve up the pool's misses exactly.
        assert_eq!(report.pool_stats.misses, session_reads(&report));
        assert!(s.misses > 0);
    }

    #[test]
    fn round_robin_read_attribution_matches_the_pool() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 12,
                policy: PolicyKind::Lru,
                shards: 1,
            },
        );
        let report = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
        assert_eq!(report.pool_stats.misses, session_reads(&report));
        assert_eq!(
            report.pool_stats.hits + report.pool_stats.misses,
            report.pool_stats.requests
        );
    }

    #[test]
    fn round_robin_schedule_is_deterministic() {
        let idx = index();
        for layout in [
            PoolLayout::Sharded {
                total_frames: 10,
                policy: PolicyKind::Rap,
                shards: 1,
            },
            PoolLayout::Sharded {
                total_frames: 10,
                policy: PolicyKind::Rap,
                shards: 2,
            },
        ] {
            // Sessions of unequal length: one that runs out of queries
            // retires its announcement inside its own turn, so that
            // re-valuation is part of the schedule as well.
            let mut specs = specs(&idx);
            specs[1].sequence.steps.truncate(1);
            let server = SessionServer::new(&idx, layout);
            let a = server.run(&specs, Schedule::RoundRobin).unwrap();
            let b = server.run(&specs, Schedule::RoundRobin).unwrap();
            let reads = |r: &ServerReport| r.sessions.iter().map(step_reads).collect::<Vec<_>>();
            assert_eq!(reads(&a), reads(&b), "{layout:?}");
            assert_eq!(reads(&a)[1].len(), 1, "{layout:?}");
        }
    }

    /// Records the thread every pool event happens on.
    #[derive(Debug)]
    struct EventThreads(Arc<Mutex<Vec<ThreadId>>>);

    impl BufferObserver for EventThreads {
        fn event(&mut self, _: BufferEvent) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    #[test]
    fn round_robin_runs_on_the_calling_thread_and_free_running_off_it() {
        let idx = index();
        let layout = PoolLayout::Sharded {
            total_frames: 12,
            policy: PolicyKind::Rap,
            shards: 2,
        };
        let caller = std::thread::current().id();
        for (schedule, on_caller) in [(Schedule::RoundRobin, true), (Schedule::FreeRunning, false)]
        {
            let pool =
                BufferManager::sharded(Arc::clone(idx.disk()), 12, PolicyKind::Rap, 2).unwrap();
            let threads = Arc::new(Mutex::new(Vec::new()));
            pool.set_observer(Box::new(EventThreads(Arc::clone(&threads))));
            let report = SessionServer::new(&idx, layout).run_on(&pool, &specs(&idx), schedule);
            assert!(report.failed_sessions().is_empty(), "{schedule:?}");
            let threads = threads.lock().unwrap();
            assert!(
                threads.len() as u64 >= report.pool_stats.requests,
                "{schedule:?}"
            );
            assert!(
                threads.iter().all(|&t| (t == caller) == on_caller),
                "{schedule:?}: events on the calling thread: {} of {}",
                threads.iter().filter(|&&t| t == caller).count(),
                threads.len()
            );
        }
    }

    /// Disk reads of each step of one session.
    fn step_reads(session: &SessionOutcome) -> Vec<u64> {
        let steps = &session.sequence().steps;
        steps.iter().map(|s| s.stats.disk_reads).collect()
    }

    #[test]
    fn report_reads_the_runs_one_pool() {
        // Two shards under a policy whose hits reach the policy under
        // the shard mutex, one under a policy whose hits stay
        // lock-light: the report adds up either way, and a one-shard
        // pool never splits a plan.
        let idx = index();
        for (policy, shards) in [(PolicyKind::Rap, 1), (PolicyKind::Lru, 2)] {
            let layout = PoolLayout::Sharded {
                total_frames: 10,
                policy,
                shards,
            };
            let report = SessionServer::new(&idx, layout)
                .run(&specs(&idx), Schedule::RoundRobin)
                .unwrap();
            assert_eq!(report.total_frames, 10, "{layout:?}");
            assert_eq!(
                report.resident_term_pages, report.final_occupancy as u64,
                "{layout:?}: every frame holds one page of one term"
            );
            assert!(report.final_occupancy <= report.total_frames, "{layout:?}");
            let s = report.pool_stats;
            assert!(s.hits > 0, "{layout:?}: warm rounds must hit");
            assert_eq!(s.misses, session_reads(&report), "{layout:?}");
            assert_eq!(s.hits + s.misses, s.requests, "{layout:?}");
            if shards == 1 {
                assert_eq!(report.batch_splits, 0, "{layout:?}");
            }
        }
    }

    #[test]
    fn ledger_carries_one_row_per_refinement_matching_session_stats() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 12,
                policy: PolicyKind::Rap,
                shards: 1,
            },
        );
        let report = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
        assert_eq!(report.ledger.len(), 4 * 3, "4 users × 3 refinements");
        assert_eq!(report.ledger.total_disk_reads(), session_reads(&report));
        // Rows agree with the per-session outcomes they were built from.
        for row in &report.ledger.entries {
            let stats =
                &report.sessions[row.session as usize].sequence().steps[row.step as usize].stats;
            assert_eq!(row.disk_reads, stats.disk_reads);
            assert_eq!(row.buffer_hits, stats.buffer_hits);
            assert_eq!(
                row.disk_reads + row.buffer_hits,
                stats.pages_processed,
                "hits + misses must cover every processed page"
            );
            assert_eq!(row.candidates, stats.peak_accumulators as u64);
        }
        // The rollup covers every session once.
        let sessions = report.ledger.session_costs();
        assert_eq!(sessions.len(), 4);
        assert!(sessions.iter().all(|s| s.queries == 3));
    }

    #[test]
    fn empty_spec_list_is_a_clean_noop() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 4,
                policy: PolicyKind::Lru,
                shards: 1,
            },
        );
        let report = server.run(&[], Schedule::FreeRunning).unwrap();
        assert!(report.sessions.is_empty());
        assert_eq!(report.pool_stats.requests, 0);
    }

    #[test]
    fn failed_session_does_not_wedge_the_others() {
        let idx = index();
        let mut bad = specs(&idx);
        bad[2].sequence.steps[1] = vec![(TermId(9999), 1)];
        let server = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 8,
                policy: PolicyKind::Lru,
                shards: 1,
            },
        );
        // The bad session degrades to Failed (keeping its completed
        // step); the others run to completion and the report is Ok.
        let report = server.run(&bad, Schedule::RoundRobin).unwrap();
        assert_eq!(report.failed_sessions().len(), 1);
        assert!(report.sessions[2].is_failed());
        assert_eq!(report.sessions[2].sequence().steps.len(), 1);
        for (i, s) in report.sessions.iter().enumerate() {
            if i != 2 {
                assert!(!s.is_failed());
                assert_eq!(s.sequence().steps.len(), 3);
            }
        }
    }

    #[test]
    fn panicking_session_degrades_to_failed_outcome() {
        let idx = index();
        let mut chaotic = specs(&idx);
        chaotic[1].chaos_panic_at = Some(1);
        let server = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 8,
                policy: PolicyKind::Lru,
                shards: 1,
            },
        );
        let report = server.run(&chaotic, Schedule::RoundRobin).unwrap();
        let failed = report.failed_sessions();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 1);
        assert!(matches!(failed[0].1, IrError::SessionPanicked(_)));
        assert_eq!(report.sessions[1].sequence().steps.len(), 1);
        for (i, s) in report.sessions.iter().enumerate() {
            if i != 1 {
                assert!(!s.is_failed(), "session {i} must finish: {:?}", s.error());
                assert_eq!(s.sequence().steps.len(), 3);
            }
        }
        // The pool stays consistent after the panic.
        let s = report.pool_stats;
        assert_eq!(s.hits + s.misses, s.requests);
        assert!(report.final_occupancy <= report.total_frames);
    }

    #[test]
    fn recoverable_faults_retry_to_the_same_answer() {
        let idx = index();
        let layout = PoolLayout::Sharded {
            total_frames: 12,
            policy: PolicyKind::Lru,
            shards: 1,
        };
        let clean = SessionServer::new(&idx, layout)
            .run(&specs(&idx), Schedule::RoundRobin)
            .unwrap();
        let faulty = SessionServer::new(&idx, layout)
            .with_faults(FaultConfig {
                seed: 77,
                transient_rate: 0.3,
                torn_rate: 0.2,
                max_consecutive_faults: 3,
                ..FaultConfig::DISABLED
            })
            .with_fetch_policy(FetchPolicy::retries(4))
            .run(&specs(&idx), Schedule::RoundRobin)
            .unwrap();
        assert!(faulty.sessions.iter().all(|s| !s.is_failed()));
        assert!(faulty.retries > 0, "this seed must exercise retries");
        assert_eq!(faulty.gave_up, 0, "budget must absorb every fault");
        assert!(faulty.fault_stats.total_faults() > 0);
        // Retries are invisible to the paper's metrics: same request
        // stream, same per-session reads as the fault-free run.
        let reads = |r: &ServerReport| {
            r.sessions
                .iter()
                .map(SessionOutcome::total_disk_reads)
                .collect::<Vec<_>>()
        };
        assert_eq!(reads(&clean), reads(&faulty));
        assert_eq!(clean.pool_stats.misses, faulty.pool_stats.misses);
    }
}
