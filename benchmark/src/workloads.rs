//! The five workloads and the passes that measure them.
//!
//! A *pass* provisions a cold pool, runs an untimed warm-up stream,
//! then times the workload's stream once. A run repeats passes over
//! the same stream until its time budget is spent; timings are the
//! median over passes, and on single-session workloads every count and
//! the answer digest must be identical from pass to pass.

use crate::adapter::{
    serve_sharded, Backend, Counts, Pairing, PoolCounts, QueryOutcome, SoloRig, Step, StoreCounts,
    Testbed,
};
use crate::stream::{sessions, Fnv};
use std::time::Instant;

/// How a workload is provisioned.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// One session on one thread over a private pool.
    Solo {
        /// Algorithm × policy.
        pairing: Pairing,
        /// What the pool reads from.
        backend: Backend,
    },
    /// `min(nproc, 2)` sessions through `SessionServer` over a sharded
    /// RAP pool with as many shards.
    Duo,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Normative name.
    pub name: &'static str,
    /// Why it exists, one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Provisioning.
    pub shape: Shape,
    /// Pool frames = stream footprint / this.
    pub pool_divisor: usize,
    /// Sessions in the timed stream (per session thread for `Duo`).
    pub sessions: usize,
    /// What runs, untimed, on the cold pool before the timed stream.
    pub warmup: Warmup,
}

/// How a pass warms its cold pool.
#[derive(Clone, Copy, Debug)]
pub enum Warmup {
    /// A stream of this share of the timed stream's sessions, same
    /// composition rule, other seed. A pool that evicts is in its
    /// steady state once it is full, so a tenth is enough.
    Stream(f64),
    /// Every topic of the timed stream once, as its full query. A pool
    /// that never evicts keeps growing — and RAP's per-query re-keying
    /// with it — until it holds what the stream can touch; this gets
    /// it there in tens of queries, so when in the stream a topic
    /// first appears no longer decides the pass's latency.
    FullQueries,
}
/// Queries of a traced pass.
pub const TRACED_QUERIES: usize = 1_000;

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solo_fit_rap",
        why: "BAF/RAP, pool = stream footprint: nothing is evicted, so cost is eval CPU plus RAP re-keying every resident page per query",
        shape: Shape::Solo {
            pairing: Pairing::BafRap,
            backend: Backend::DiskSim,
        },
        pool_divisor: 1,
        sessions: 60,
        warmup: Warmup::FullQueries,
    },
    Workload {
        name: "solo_tight_rap",
        why: "BAF/RAP, pool = footprint/16: the paper's Fig. 5-8 regime, where eviction quality and BAF's read estimate decide page reads",
        shape: Shape::Solo {
            pairing: Pairing::BafRap,
            backend: Backend::DiskSim,
        },
        pool_divisor: 16,
        sessions: 240,
        warmup: Warmup::Stream(0.1),
    },
    Workload {
        name: "solo_tight_dflru",
        why: "DF/LRU, same tight pool: the paper's baseline pairing; no b_t inquiries or query context, so a BAF- or RAP-only gain must leave it flat",
        shape: Shape::Solo {
            pairing: Pairing::DfLru,
            backend: Backend::DiskSim,
        },
        pool_divisor: 16,
        sessions: 240,
        warmup: Warmup::Stream(0.1),
    },
    Workload {
        name: "ooc_qd4",
        why: "BAF/RAP over the page file behind the qd-4 latency scheduler on the real clock, pool = footprint/16: the only workload where backend waits dominate",
        shape: Shape::Solo {
            pairing: Pairing::BafRap,
            backend: Backend::FileQd4,
        },
        pool_divisor: 16,
        sessions: 60,
        warmup: Warmup::Stream(0.1),
    },
    Workload {
        name: "duo_sharded",
        why: "two closed-loop sessions through SessionServer over a 2-shard RAP pool of footprint/8: lock wait, begin_query fan-out and pool sharing",
        shape: Shape::Duo,
        pool_divisor: 8,
        sessions: 90,
        warmup: Warmup::Stream(0.1),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Session threads of the `Duo` shape on this machine.
pub fn duo_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The inputs of one workload at one seed.
pub struct Plan<'a> {
    /// The workload.
    pub workload: &'static Workload,
    /// Untimed warm-up refinements, per session thread.
    pub warmup: Vec<Vec<Step<'a>>>,
    /// Timed refinements, per session thread.
    pub timed: Vec<Vec<Step<'a>>>,
    /// Pages of the distinct terms of the first thread's timed stream.
    pub footprint: usize,
    /// Pool size.
    pub frames: usize,
    /// Digest of every thread's timed stream.
    pub stream_digest: u64,
}

impl<'a> Plan<'a> {
    /// Generates the workload's streams from `seed`. `sessions`
    /// overrides the workload's stream length (quick mode).
    pub fn new(
        bed: &'a Testbed,
        workload: &'static Workload,
        seed: u64,
        sessions_override: Option<usize>,
    ) -> Result<Plan<'a>, String> {
        let n = sessions_override.unwrap_or(workload.sessions);
        let threads = match workload.shape {
            Shape::Solo { .. } => 1,
            Shape::Duo => duo_threads(),
        };
        let mut warmup = Vec::new();
        let mut timed = Vec::new();
        let mut digest = Fnv::default();
        for i in 0..threads as u64 {
            // Single-session workloads use the seed itself, so they
            // all draw the same session order; session threads of the
            // server workload get `seed·1000 + i`.
            let stream_seed = match workload.shape {
                Shape::Solo { .. } => seed,
                Shape::Duo => seed * 1_000 + i,
            };
            let timed_sessions = sessions(bed.n_topics(), n, stream_seed);
            let t = bed.steps(&timed_sessions);
            digest.word(Testbed::stream_digest(&t));
            timed.push(t);
            warmup.push(match workload.warmup {
                Warmup::Stream(share) => bed.steps(&sessions(
                    bed.n_topics(),
                    ((n as f64 * share).round() as usize).max(1),
                    stream_seed ^ 0x5eed_0000_0000_0000,
                )),
                Warmup::FullQueries => bed.full_queries(&timed_sessions),
            });
        }
        let footprint = bed.footprint(&timed[0])?;
        Ok(Plan {
            workload,
            warmup,
            timed,
            footprint,
            frames: (footprint / workload.pool_divisor).max(threads * 2),
            stream_digest: digest.finish(),
        })
    }

    /// Timed queries of one pass, all threads.
    pub fn timed_queries(&self) -> usize {
        self.timed.iter().map(Vec::len).sum()
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Timed wall, seconds.
    pub wall_s: f64,
    /// Queries the qps figure counts.
    pub qps_queries: u64,
    /// Timed latencies in stream order (session by session for `Duo`),
    /// ns: position `i` is the same query in every pass.
    pub latencies_ns: Vec<u64>,
    /// Counters summed over the timed queries.
    pub counts: Counts,
    /// Sum of average precision over the timed queries.
    pub ap_sum: f64,
    /// Digest of every timed answer list.
    pub answer_digest: u64,
    /// Per-query disk reads, warm-up included (the event-identity
    /// fingerprint).
    pub reads_fingerprint: Vec<u64>,
    /// Pool counters at the end of the pass.
    pub pool: PoolCounts,
    /// Store counters over the pass.
    pub store: StoreCounts,
    /// Ledger evaluation time of every query, warm-up included, ns
    /// (`Duo`).
    pub busy_ns: u64,
    /// Time sessions waited on shard locks, µs (`Duo`).
    pub lock_wait_us: u64,
    /// Read plans that spanned shards (`Duo`).
    pub batch_splits: u64,
    /// Queries and invariants attempted.
    pub attempted: u64,
    /// Queries that erred, sessions that failed, invariants violated.
    pub failed: u64,
}

impl Pass {
    /// Queries per second.
    pub fn qps(&self) -> f64 {
        self.qps_queries as f64 / self.wall_s
    }

    /// The `q`-quantile of this pass's timed latencies, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        quantile_ms(&sorted, q)
    }

    /// Timed queries that completed.
    pub fn samples(&self) -> usize {
        self.latencies_ns.len()
    }

    /// Disk reads per query over the whole pass, cold pool to last
    /// query. Counting the warm-up keeps the figure meaningful where a
    /// warmed pool no longer reads at all.
    pub fn reads_per_query(&self) -> f64 {
        self.reads_fingerprint.iter().sum::<u64>() as f64
            / self.reads_fingerprint.len().max(1) as f64
    }

    /// Mean average precision over the timed queries.
    pub fn mean_avg_precision(&self) -> f64 {
        self.ap_sum / self.samples().max(1) as f64
    }

    /// Everything that must repeat exactly on a single-session
    /// workload.
    pub fn exact(&self) -> (Counts, u64, PoolCounts, u64) {
        (
            self.counts,
            self.answer_digest,
            self.pool,
            self.ap_sum.to_bits(),
        )
    }

    fn violation(&mut self, workload: &str, what: String) {
        eprintln!("[{workload}] check failed: {what}");
        self.failed += 1;
    }

    /// Folds the timed outcomes in: answer checks, counters, digest.
    fn absorb(&mut self, bed: &Testbed, name: &str, steps: &[Step<'_>], outcomes: &[QueryOutcome]) {
        let mut digest = Fnv::default();
        digest.word(self.answer_digest);
        for (step, outcome) in steps.iter().zip(outcomes) {
            self.latencies_ns.push(outcome.latency_ns);
            add_counts(&mut self.counts, &outcome.counts);
            match bed.check_answer(step, outcome, &mut digest) {
                Ok(ap) => self.ap_sum += ap,
                Err(e) => self.violation(name, e),
            }
        }
        self.answer_digest = digest.finish();
    }

    fn check_pool(&mut self, name: &str) {
        self.attempted += 1;
        let p = self.pool;
        if p.hits + p.misses != p.requests {
            self.violation(
                name,
                format!(
                    "pool hits {} + misses {} != requests {}",
                    p.hits, p.misses, p.requests
                ),
            );
        }
    }
}

/// The `q`-quantile of sorted latencies, ms (nearest rank).
pub fn quantile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// Adds `b` into `a`, keeping the high-water mark for accumulators.
pub fn add_counts(a: &mut Counts, b: &Counts) {
    a.disk_reads += b.disk_reads;
    a.buffer_hits += b.buffer_hits;
    a.pages += b.pages;
    a.entries += b.entries;
    a.terms_scanned += b.terms_scanned;
    a.terms_skipped += b.terms_skipped;
    a.peak_accumulators = a.peak_accumulators.max(b.peak_accumulators);
    a.bt_inquiries += b.bt_inquiries;
    a.baf_abs_error += b.baf_abs_error;
}

/// One pass of a single-session workload with its configured backend,
/// or with `backend_override` (the identity reference of `ooc_qd4`).
pub fn solo_pass(
    bed: &Testbed,
    plan: &Plan<'_>,
    backend_override: Option<Backend>,
) -> Result<Pass, String> {
    let Shape::Solo { pairing, backend } = plan.workload.shape else {
        return Err(format!("{} is not single-session", plan.workload.name));
    };
    let backend = backend_override.unwrap_or(backend);
    let name = plan.workload.name;
    let mut rig = SoloRig::new(bed, pairing, backend, plan.frames, false)?;
    rig.reset_sim_stats();
    let mut pass = Pass::default();
    let (warmup, timed) = (&plan.warmup[0], &plan.timed[0]);
    for step in warmup {
        pass.attempted += 1;
        match rig.query(step) {
            Ok(o) => pass.reads_fingerprint.push(o.counts.disk_reads),
            Err(e) => pass.violation(name, format!("warm-up query: {e}")),
        }
    }
    let mut outcomes = Vec::with_capacity(timed.len());
    let mut answered = Vec::with_capacity(timed.len());
    let started = Instant::now();
    for step in timed {
        match rig.query(step) {
            Ok(o) => {
                outcomes.push(o);
                answered.push(*step);
            }
            Err(e) => pass.violation(name, format!("query: {e}")),
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.attempted += timed.len() as u64;
    pass.qps_queries = outcomes.len() as u64;
    pass.reads_fingerprint
        .extend(outcomes.iter().map(|o| o.counts.disk_reads));
    pass.absorb(bed, name, &answered, &outcomes);
    pass.pool = rig.pool_counts();
    pass.store = rig.store_counts();
    pass.check_pool(name);
    if backend == Backend::DiskSim {
        // Every read the evaluator was charged is a read the store saw.
        pass.attempted += 1;
        let charged: u64 = pass.reads_fingerprint.iter().sum();
        if charged != pass.store.device_reads {
            pass.violation(
                name,
                format!(
                    "per-query disk reads sum to {charged}, store counted {}",
                    pass.store.device_reads
                ),
            );
        }
    }
    Ok(pass)
}

/// One pass of the server workload with the first `sessions` of the
/// plan's session threads (all of them for the workload proper; one
/// for the traced pass's single-session reference). The pool layout is
/// the workload's either way.
pub fn duo_pass(bed: &Testbed, plan: &Plan<'_>, sessions: usize) -> Result<Pass, String> {
    let name = plan.workload.name;
    let streams: Vec<Vec<Step<'_>>> = (0..sessions)
        .map(|i| {
            let mut s = plan.warmup[i].clone();
            s.extend_from_slice(&plan.timed[i]);
            s
        })
        .collect();
    let run = serve_sharded(bed, &streams, plan.frames, plan.timed.len())?;
    let mut pass = Pass {
        wall_s: run.wall_us as f64 / 1e6,
        pool: run.pool,
        lock_wait_us: run.lock_wait_us,
        batch_splits: run.batch_splits,
        ..Pass::default()
    };
    for (i, session) in run.sessions.iter().enumerate() {
        pass.attempted += streams[i].len() as u64 + 1;
        if session.failed {
            pass.violation(name, format!("session {i} failed"));
        }
        pass.failed += (streams[i].len() - session.outcomes.len()) as u64;
        pass.qps_queries += session.outcomes.len() as u64;
        pass.busy_ns += session.outcomes.iter().map(|o| o.latency_ns).sum::<u64>();
        let warm = plan.warmup[i].len().min(session.outcomes.len());
        pass.reads_fingerprint
            .extend(session.outcomes.iter().map(|o| o.counts.disk_reads));
        pass.absorb(
            bed,
            name,
            &streams[i][warm..session.outcomes.len()],
            &session.outcomes[warm..],
        );
    }
    pass.check_pool(name);
    Ok(pass)
}
