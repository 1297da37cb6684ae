//! Every call into the engine, in one file.
//!
//! The rest of the benchmark sees plain numbers and benchmark-owned
//! types. Only public API is used, always with
//! `EvalOptions::default()`, and the only engine trait implemented is
//! the one-method `BufferObserver` (a shared handle around the public
//! `EventLog`): wrapping `QueryBuffer` or `PageStore` would freeze the
//! surfaces the roadmap wants to collapse.

use crate::stream::{Fnv, SessionRef};
use crate::trace::SpanRecorder;
use ir_core::effectiveness::average_precision;
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{
    contribution_ranking, make_sequence, Algorithm, EvalStats, Hit, Query, RefinementKind,
    RefinementSequence,
};
use ir_corpus::{Corpus, CorpusConfig};
use ir_engine::{index_corpus_with, PoolLayout, Schedule, SessionServer, SessionSpec};
use ir_index::{save_page_file, InvertedIndex};
use ir_storage::{
    BufferEvent, BufferManager, BufferObserver, BufferStats, DiskSim, DiskStats, EventLog,
    FileMode, FilePageStore, IoConfig, IoScheduler, LatencyModel, PageStore, PolicyKind,
};
use ir_types::{ClockKind, DocId, PageId, PlanEntry, ReadPlan, TermId};
use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Terms per refinement group (the paper uses 3).
const GROUP_SIZE: usize = 3;
/// Answers ranked per query and used for contribution ranking.
const TOP_N: usize = 20;
/// The modeled device of `ooc_qd4`.
const OOC_IO: IoConfig = IoConfig {
    queue_depth: 4,
    model: LatencyModel {
        seek_us: 400,
        transfer_us: 100,
    },
    clock: ClockKind::Real,
};

/// Which collection the testbed generates.
#[derive(Clone, Copy, Debug)]
pub enum Geometry {
    /// `CorpusConfig::paper_scaled(scale)`.
    Paper(f64),
    /// `CorpusConfig::tiny()`, for the benchmark's own tests.
    Tiny,
}

/// Wall time of the four set-up stages, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// `Corpus::generate`.
    pub generate_s: f64,
    /// `index_corpus_with`.
    pub index_s: f64,
    /// `contribution_ranking` + `make_sequence`, every topic, both patterns.
    pub rank_s: f64,
    /// `save_page_file`.
    pub export_s: f64,
}

impl StageTimes {
    /// The cold-start time a user waits: all four stages.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.index_s + self.rank_s + self.export_s
    }
}

/// Corpus, index, refinement sequences and the exported page file.
pub struct Testbed {
    index: InvertedIndex,
    /// `[ADD-ONLY, ADD-DROP]` per topic.
    sequences: Vec<[RefinementSequence; 2]>,
    relevant: Vec<HashSet<DocId>>,
    page_file: PathBuf,
    /// Size of the exported page file.
    pub page_file_bytes: u64,
    /// Postings in the collection.
    pub total_postings: u64,
    /// How long each set-up stage took.
    pub stages: StageTimes,
}

impl Drop for Testbed {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.page_file);
    }
}

/// One refinement of a stream: the complete query submitted.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// The topic the session refines (keys the relevance judgments).
    pub topic: usize,
    terms: &'a [(TermId, u32)],
}

impl Testbed {
    /// Generates, indexes, ranks and exports; the page file lands at
    /// `page_file` and is removed when the testbed is dropped.
    pub fn build(geometry: Geometry, page_file: &Path) -> Result<Testbed, String> {
        let config = match geometry {
            Geometry::Paper(scale) => CorpusConfig::paper_scaled(scale),
            Geometry::Tiny => CorpusConfig::tiny(),
        };
        let t = Instant::now();
        let corpus = Corpus::generate(config);
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let index = index_corpus_with(&corpus, false, false).map_err(|e| format!("index: {e}"))?;
        let index_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut sequences = Vec::new();
        for (topic, q) in corpus.queries().iter().enumerate() {
            let query = Query::from_named(&index, &q.terms);
            let ranked = contribution_ranking(&index, &query, TOP_N)
                .map_err(|e| format!("ranking topic {topic}: {e}"))?;
            sequences.push([
                make_sequence(&ranked, RefinementKind::AddOnly, GROUP_SIZE, topic),
                make_sequence(&ranked, RefinementKind::AddDrop, GROUP_SIZE, topic),
            ]);
        }
        index.disk().reset_stats();
        let rank_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        save_page_file(&index, page_file).map_err(|e| format!("page-file export: {e}"))?;
        let export_s = t.elapsed().as_secs_f64();
        let page_file_bytes = std::fs::metadata(page_file)
            .map_err(|e| format!("stat {}: {e}", page_file.display()))?
            .len();

        let relevant = (0..sequences.len())
            .map(|t| corpus.relevant_docs(t).iter().map(|&d| DocId(d)).collect())
            .collect();
        Ok(Testbed {
            total_postings: corpus.total_postings(),
            index,
            sequences,
            relevant,
            page_file: page_file.to_path_buf(),
            page_file_bytes,
            stages: StageTimes {
                generate_s,
                index_s,
                rank_s,
                export_s,
            },
        })
    }

    /// Topics in the collection.
    pub fn n_topics(&self) -> usize {
        self.sequences.len()
    }

    /// Pages in the index.
    pub fn total_pages(&self) -> usize {
        self.index.total_pages()
    }

    /// Page capacity in entries.
    pub fn entries_per_page(&self) -> usize {
        self.index.params().page_size
    }

    /// Expands sessions into their refinements, in submission order.
    pub fn steps(&self, sessions: &[SessionRef]) -> Vec<Step<'_>> {
        sessions
            .iter()
            .flat_map(|s| {
                self.sequences[s.topic][usize::from(s.add_drop)]
                    .steps
                    .iter()
                    .map(|terms| Step {
                        topic: s.topic,
                        terms,
                    })
            })
            .collect()
    }

    /// The last ADD-ONLY refinement — the query with every term — of
    /// each distinct topic among `sessions`, in order of first
    /// appearance.
    pub fn full_queries(&self, sessions: &[SessionRef]) -> Vec<Step<'_>> {
        let mut seen = BTreeSet::new();
        sessions
            .iter()
            .filter(|s| seen.insert(s.topic))
            .filter_map(|s| {
                self.sequences[s.topic][0].steps.last().map(|terms| Step {
                    topic: s.topic,
                    terms,
                })
            })
            .collect()
    }

    /// Pages of the distinct terms a stream touches: the working set a
    /// pool would need to never evict.
    pub fn footprint(&self, steps: &[Step<'_>]) -> Result<usize, String> {
        let terms: BTreeSet<TermId> = steps
            .iter()
            .flat_map(|s| s.terms.iter().map(|&(t, _)| t))
            .collect();
        let mut pages = 0usize;
        for t in terms {
            pages += self.index.n_pages(t).map_err(|e| format!("{t}: {e}"))? as usize;
        }
        Ok(pages)
    }

    /// Digest of a stream's queries: same seed, same digest.
    pub fn stream_digest(steps: &[Step<'_>]) -> u64 {
        let mut fnv = Fnv::default();
        for s in steps {
            fnv.word(s.topic as u64);
            fnv.word(s.terms.len() as u64);
            for &(t, f) in s.terms {
                fnv.word(u64::from(t.0) << 32 | u64::from(f));
            }
        }
        fnv.finish()
    }

    /// Whether the step resolves through `Query::from_ids` to a
    /// non-empty query.
    pub fn resolves(&self, step: &Step<'_>) -> bool {
        Query::from_ids(&self.index, step.terms).is_ok_and(|q| !q.is_empty())
    }

    /// Checks one answer list (sorted by score, at most [`TOP_N`],
    /// finite scores, valid documents, page accounting closed), folds
    /// it into `digest`, and returns its average precision.
    pub fn check_answer(
        &self,
        step: &Step<'_>,
        outcome: &QueryOutcome,
        digest: &mut Fnv,
    ) -> Result<f64, String> {
        let hits = &outcome.hits;
        if hits.len() > TOP_N {
            return Err(format!("{} hits exceed top-{TOP_N}", hits.len()));
        }
        for pair in hits.windows(2) {
            if pair[0].score < pair[1].score {
                return Err("hits not sorted by score".into());
            }
        }
        for h in hits {
            if !h.score.is_finite() {
                return Err(format!("non-finite score for {}", h.doc));
            }
            if h.doc.0 >= self.index.n_docs() {
                return Err(format!("document {} out of range", h.doc));
            }
            digest.word(u64::from(h.doc.0));
            digest.word(h.score.to_bits());
        }
        let c = &outcome.counts;
        if c.pages != c.disk_reads + c.buffer_hits {
            return Err(format!(
                "pages_processed {} != disk_reads {} + buffer_hits {}",
                c.pages, c.disk_reads, c.buffer_hits
            ));
        }
        Ok(average_precision(hits, &self.relevant[step.topic]))
    }
}

/// The `EvalStats` fields the benchmark reports, as plain numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Pages read from the store.
    pub disk_reads: u64,
    /// Pages served from the pool.
    pub buffer_hits: u64,
    /// Pages examined.
    pub pages: u64,
    /// Posting entries examined.
    pub entries: u64,
    /// Terms whose lists were scanned.
    pub terms_scanned: u64,
    /// Terms skipped outright.
    pub terms_skipped: u64,
    /// High-water mark of the candidate set.
    pub peak_accumulators: u64,
    /// BAF's `b_t` inquiries.
    pub bt_inquiries: u64,
    /// BAF's `Σ |d_t − actual reads|`.
    pub baf_abs_error: u64,
}

impl From<&EvalStats> for Counts {
    fn from(s: &EvalStats) -> Self {
        Counts {
            disk_reads: s.disk_reads,
            buffer_hits: s.buffer_hits,
            pages: s.pages_processed,
            entries: s.entries_processed,
            terms_scanned: s.terms_scanned as u64,
            terms_skipped: s.terms_skipped as u64,
            peak_accumulators: s.peak_accumulators as u64,
            bt_inquiries: s.bt_inquiries,
            baf_abs_error: s.baf_estimate_abs_error,
        }
    }
}

/// What one evaluated query returned.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Wall time around `Query::from_ids` + `evaluate`, ns.
    pub latency_ns: u64,
    /// The evaluation's counters.
    pub counts: Counts,
    hits: Vec<Hit>,
}

/// The two algorithm × policy pairings the paper compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pairing {
    /// Buffer-aware filtering over the ranking-aware policy.
    BafRap,
    /// Document filtering over LRU, the paper's baseline.
    DfLru,
}

impl Pairing {
    fn parts(self) -> (Algorithm, PolicyKind) {
        match self {
            Pairing::BafRap => (Algorithm::Baf, PolicyKind::Rap),
            Pairing::DfLru => (Algorithm::Df, PolicyKind::Lru),
        }
    }
}

/// What a single-session pool reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The in-memory simulator (`index.make_buffer`).
    DiskSim,
    /// The exported page file, buffered reads, behind the latency
    /// scheduler at queue depth 4 on the real clock.
    FileQd4,
}

type Sched = IoScheduler<Arc<FilePageStore>>;

enum Pool {
    Sim(BufferManager<Arc<DiskSim>>),
    File(BufferManager<Arc<Sched>>),
}

/// Pool counters the benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounts {
    /// Page requests.
    pub requests: u64,
    /// Served from a frame.
    pub hits: u64,
    /// Went to the store.
    pub misses: u64,
    /// Pages pushed out.
    pub evictions: u64,
    /// Frames in use now.
    pub occupancy: u64,
    /// Store reads re-attempted.
    pub retries: u64,
    /// Fetches abandoned.
    pub gave_up: u64,
}

/// Store counters the benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Reads the device performed.
    pub device_reads: u64,
    /// Of those, reads that continued the previous one.
    pub sequential_reads: u64,
    /// Time callers waited for completions, µs.
    pub io_wait_us: u64,
    /// Demand reads answered from a staged completion.
    pub overlap_hits: u64,
    /// Staged reads that never served a demand.
    pub prefetch_wasted: u64,
}

fn make_sched(page_file: &Path) -> Result<Arc<Sched>, String> {
    let file = FilePageStore::open(page_file, FileMode::Buffered)
        .map_err(|e| format!("open {}: {e}", page_file.display()))?;
    Ok(Arc::new(IoScheduler::new(Arc::new(file), OOC_IO)))
}

fn store_counts(disk: DiskStats, sched: Option<&Sched>) -> StoreCounts {
    StoreCounts {
        device_reads: disk.reads,
        sequential_reads: disk.sequential_reads,
        io_wait_us: sched.map_or(0, PageStore::io_wait_us),
        overlap_hits: sched.map_or(0, |s| s.metrics().overlap_hits.get()),
        prefetch_wasted: sched.map_or(0, |s| s.metrics().prefetch_wasted.get()),
    }
}

fn pool_counts<S: PageStore>(pool: &BufferManager<S>) -> PoolCounts {
    let s = pool.stats();
    PoolCounts {
        requests: s.requests,
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        occupancy: pool.len() as u64,
        retries: pool.metrics().retries.get(),
        gave_up: pool.metrics().gave_up.get(),
    }
}

/// The one engine trait the benchmark implements: hands every pool
/// event to an `EventLog` the benchmark can still reach after the pool
/// has taken ownership of the observer.
#[derive(Debug)]
struct Tap(Arc<Mutex<EventLog>>);

impl BufferObserver for Tap {
    fn event(&mut self, event: BufferEvent) {
        self.0
            .lock()
            .expect("event log poisoned by a panicking query")
            .event(event);
    }
}

/// Twin objects a traced rig replays each query into, one layer at a
/// time.
struct Twin {
    log: Arc<Mutex<EventLog>>,
    /// Same capacity and policy as the real pool, over the simulator.
    pool: BufferManager<Arc<DiskSim>>,
    /// A second handle of the real backend kind (`None`: the simulator).
    sched: Option<Arc<Sched>>,
    sim: Arc<DiskSim>,
}

/// A single-session pool with its algorithm: the thing the `solo_*`
/// and `ooc_*` workloads drive.
pub struct SoloRig<'a> {
    bed: &'a Testbed,
    algorithm: Algorithm,
    pool: Pool,
    twin: Option<Twin>,
}

/// Span names of the traced single-session path.
pub mod span {
    /// Root of one query.
    pub const QUERY: &str = "bench.query";
    /// `Query::from_ids`.
    pub const RESOLVE: &str = "core.query.resolve";
    /// `evaluate`.
    pub const EVAL: &str = "core.eval";
    /// Replay of `begin_query` on the twin pool.
    pub const BEGIN_QUERY: &str = "storage.policy.begin_query";
    /// Replay of the query's page sequence on the twin pool.
    pub const POOL_FETCH: &str = "storage.pool.fetch";
    /// Replay of the query's loads on a twin of the backend.
    pub const BACKEND_READ: &str = "storage.backend.read";
    /// The simulator reads inside the twin pool's fetch, replayed so
    /// they can be subtracted when the real backend is not the
    /// simulator.
    pub const TWIN_SIM_READ: &str = "bench.twin_sim_read";
}

impl<'a> SoloRig<'a> {
    /// A cold pool of `frames` frames. With `traced`, an observer is
    /// attached and twins are provisioned for replay.
    pub fn new(
        bed: &'a Testbed,
        pairing: Pairing,
        backend: Backend,
        frames: usize,
        traced: bool,
    ) -> Result<SoloRig<'a>, String> {
        let (algorithm, policy) = pairing.parts();
        let pool_err = |e| format!("pool of {frames} frames: {e}");
        let mut pool = match backend {
            Backend::DiskSim => Pool::Sim(bed.index.make_buffer(frames, policy).map_err(pool_err)?),
            Backend::FileQd4 => Pool::File(
                BufferManager::new(make_sched(&bed.page_file)?, frames, policy)
                    .map_err(pool_err)?,
            ),
        };
        let twin = if traced {
            let log = Arc::new(Mutex::new(EventLog::new()));
            let tap = Box::new(Tap(Arc::clone(&log)));
            match &mut pool {
                Pool::Sim(p) => p.set_observer(tap),
                Pool::File(p) => p.set_observer(tap),
            }
            Some(Twin {
                log,
                pool: bed.index.make_buffer(frames, policy).map_err(pool_err)?,
                sched: match backend {
                    Backend::DiskSim => None,
                    Backend::FileQd4 => Some(make_sched(&bed.page_file)?),
                },
                sim: Arc::clone(bed.index.disk()),
            })
        } else {
            None
        };
        Ok(SoloRig {
            bed,
            algorithm,
            pool,
            twin,
        })
    }

    fn evaluate(&mut self, query: &Query) -> ir_types::IrResult<ir_core::QueryResult> {
        let (index, alg, opts) = (&self.bed.index, self.algorithm, EvalOptions::default());
        match &mut self.pool {
            Pool::Sim(p) => evaluate(alg, index, p, query, opts),
            Pool::File(p) => evaluate(alg, index, p, query, opts),
        }
    }

    /// Resolves and evaluates one query, timing the pair.
    pub fn query(&mut self, step: &Step<'_>) -> Result<QueryOutcome, String> {
        let started = Instant::now();
        let result = Query::from_ids(&self.bed.index, step.terms).and_then(|q| self.evaluate(&q));
        let latency_ns = started.elapsed().as_nanos() as u64;
        let result = result.map_err(|e| e.to_string())?;
        Ok(QueryOutcome {
            latency_ns,
            counts: Counts::from(&result.stats),
            hits: result.hits,
        })
    }

    /// [`query`](Self::query) with spans: the two public calls in
    /// flow, then the captured inputs replayed into the twins as
    /// children of the evaluation span. The store counters the
    /// evaluation alone moved (replays excluded) are added to `store`.
    ///
    /// # Panics
    /// Panics if the rig was not built with `traced`.
    pub fn query_traced(
        &mut self,
        step: &Step<'_>,
        rec: &mut SpanRecorder,
        qid: u32,
        store: &mut StoreCounts,
    ) -> Result<QueryOutcome, String> {
        let t0 = Instant::now();
        let query = Query::from_ids(&self.bed.index, step.terms);
        let t1 = Instant::now();
        let query = query.map_err(|e| e.to_string())?;
        let before = self.store_counts();
        let t2 = Instant::now();
        let result = self.evaluate(&query);
        let t3 = Instant::now();
        let after = self.store_counts();
        let root = rec.record(span::QUERY, 0, qid, t0, t3);
        rec.record(span::RESOLVE, root, qid, t0, t1);
        let eval = rec.record(span::EVAL, root, qid, t2, t3);
        let result = result.map_err(|e| e.to_string())?;

        let twin = self.twin.as_mut().expect("rig built without tracing");
        let events = std::mem::take(&mut *twin.log.lock().expect("event log poisoned"));

        // The page sequence, regrouped into the per-term plans the
        // evaluator issued (one scan per term per query).
        let weights = query.weights();
        let mut plans: Vec<(ReadPlan, Vec<PageId>)> = Vec::new();
        let mut last_term = None;
        for e in events.events() {
            let (id, load) = match *e {
                BufferEvent::Hit(id) => (id, false),
                BufferEvent::Load(id) => (id, true),
                _ => continue,
            };
            if last_term != Some(id.term) {
                plans.push((ReadPlan::new(), Vec::new()));
                last_term = Some(id.term);
            }
            let (plan, loads) = plans.last_mut().expect("pushed above");
            plan.push(match weights.get(&id.term) {
                Some(&w) => PlanEntry::hinted(id, w),
                None => PlanEntry::new(id),
            });
            if load {
                loads.push(id);
            }
        }

        rec.time(span::BEGIN_QUERY, eval, qid, || {
            twin.pool.begin_query(&weights)
        });
        rec.time(span::POOL_FETCH, eval, qid, || {
            plans
                .iter()
                .try_for_each(|(plan, _)| twin.pool.fetch_batch(plan).map(drop))
        })
        .map_err(|e| format!("twin pool replay: {e}"))?;
        let replay_reads = |store: &dyn PageStore| {
            for (_, loads) in &plans {
                store.submit(loads);
                for &id in loads {
                    let _ = store.read_page(id);
                }
            }
        };
        match &twin.sched {
            None => {
                rec.time(span::BACKEND_READ, eval, qid, || replay_reads(&*twin.sim));
            }
            Some(sched) => {
                rec.time(span::BACKEND_READ, eval, qid, || replay_reads(&**sched));
                rec.time(span::TWIN_SIM_READ, eval, qid, || replay_reads(&*twin.sim));
            }
        }

        store.device_reads += after.device_reads - before.device_reads;
        store.sequential_reads += after.sequential_reads - before.sequential_reads;
        store.io_wait_us += after.io_wait_us - before.io_wait_us;
        store.overlap_hits += after.overlap_hits - before.overlap_hits;
        store.prefetch_wasted += after.prefetch_wasted - before.prefetch_wasted;
        Ok(QueryOutcome {
            latency_ns: (t3 - t0).as_nanos() as u64,
            counts: Counts::from(&result.stats),
            hits: result.hits,
        })
    }

    /// The pool's counters.
    pub fn pool_counts(&self) -> PoolCounts {
        match &self.pool {
            Pool::Sim(p) => pool_counts(p),
            Pool::File(p) => pool_counts(p),
        }
    }

    /// The backing store's counters. The simulator is shared by every
    /// pool over this testbed; call
    /// [`reset_sim_stats`](Self::reset_sim_stats) first when an exact
    /// delta is wanted.
    pub fn store_counts(&self) -> StoreCounts {
        match &self.pool {
            Pool::Sim(p) => store_counts(p.store().stats(), None),
            Pool::File(p) => store_counts(p.store().inner().stats(), Some(p.store())),
        }
    }

    /// Zeroes the shared simulator's counters.
    pub fn reset_sim_stats(&self) {
        self.bed.index.disk().reset_stats();
    }

    /// Whether the twin pool's `stats()` equal the real pool's — the
    /// replay's fidelity check (`None` on an untraced rig).
    pub fn twin_agrees(&self) -> Option<bool> {
        let twin = self.twin.as_ref()?;
        let real: BufferStats = match &self.pool {
            Pool::Sim(p) => p.stats(),
            Pool::File(p) => p.stats(),
        };
        Some(twin.pool.stats() == real)
    }
}

/// One session's view of a server run.
#[derive(Clone, Debug)]
pub struct ServedSession {
    /// One outcome per evaluated step, in order (`latency_ns` is the
    /// ledger's `eval_us`).
    pub outcomes: Vec<QueryOutcome>,
    /// Whether the session ended early.
    pub failed: bool,
}

/// What one `SessionServer::run` reported.
#[derive(Clone, Debug)]
pub struct ServerRun {
    /// Per-session outcomes, in spec order.
    pub sessions: Vec<ServedSession>,
    /// Spawn-to-join wall time, µs.
    pub wall_us: u64,
    /// Pool counters over all sessions.
    pub pool: PoolCounts,
    /// Time sessions waited on shard locks, µs.
    pub lock_wait_us: u64,
    /// Read plans that spanned shards.
    pub batch_splits: u64,
}

/// Runs one session per stream, free-running, BAF over a RAP pool of
/// `frames` frames in `shards` shards.
pub fn serve_sharded(
    bed: &Testbed,
    streams: &[Vec<Step<'_>>],
    frames: usize,
    shards: usize,
) -> Result<ServerRun, String> {
    let specs: Vec<SessionSpec> = streams
        .iter()
        .enumerate()
        .map(|(i, steps)| {
            SessionSpec::new(
                RefinementSequence {
                    kind: RefinementKind::AddOnly,
                    source: i,
                    steps: steps.iter().map(|s| s.terms.to_vec()).collect(),
                },
                Algorithm::Baf,
            )
        })
        .collect();
    let layout = PoolLayout::Sharded {
        total_frames: frames,
        policy: PolicyKind::Rap,
        shards,
    };
    let report = SessionServer::new(&bed.index, layout)
        .run(&specs, Schedule::FreeRunning)
        .map_err(|e| format!("server: {e}"))?;
    let mut eval_us: Vec<Vec<u64>> = streams.iter().map(|s| vec![0; s.len()]).collect();
    for e in &report.ledger.entries {
        if let Some(slot) = eval_us
            .get_mut(e.session as usize)
            .and_then(|s| s.get_mut(e.step as usize))
        {
            *slot = e.eval_us;
        }
    }
    let sessions = report
        .sessions
        .iter()
        .zip(eval_us)
        .map(|(s, eval_us)| ServedSession {
            outcomes: s
                .sequence()
                .steps
                .iter()
                .zip(eval_us)
                .map(|(step, us)| QueryOutcome {
                    latency_ns: us * 1_000,
                    counts: Counts::from(&step.stats),
                    hits: step.hits.clone(),
                })
                .collect(),
            failed: s.is_failed(),
        })
        .collect();
    Ok(ServerRun {
        sessions,
        wall_us: report.wall_us,
        pool: PoolCounts {
            requests: report.pool_stats.requests,
            hits: report.pool_stats.hits,
            misses: report.pool_stats.misses,
            evictions: report.pool_stats.evictions,
            occupancy: report.final_occupancy as u64,
            retries: report.retries,
            gave_up: report.gave_up,
        },
        lock_wait_us: report.lock_wait_us,
        batch_splits: report.batch_splits,
    })
}

/// Cumulative `(decode ns, decoded entries)` over every codec, from
/// the engine's global `index.decode_ns.*` / `index.decoded_entries.*`
/// meters.
pub fn decode_meters() -> (u64, u64) {
    let snapshot = ir_observe::global().snapshot();
    let ns = snapshot
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("index.decode_ns."))
        .map(|h| h.sum)
        .sum();
    let entries = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("index.decoded_entries."))
        .map(|(_, v)| *v)
        .sum();
    (ns, entries)
}
