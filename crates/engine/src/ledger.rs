//! The per-query cost ledger: one row per evaluated query, carrying
//! every cost the paper argues about (disk reads, buffer hits,
//! evaluation wall time, candidate-set size) plus the BAF estimator's
//! predicted reads and where the wall time went by layer, aggregated
//! per session on demand.
//!
//! [`SearchEngine`](crate::SearchEngine) appends a row per search;
//! [`SessionServer`](crate::SessionServer) collects one ledger per run
//! and returns it in the [`ServerReport`](crate::ServerReport). Both
//! time their queries on a [`Clock`](ir_core::eval::Clock), the real
//! one unless a test hands them another; the split by layer is the
//! evaluator's [`Layers`], and what they leave of the wall time is
//! scoring.

use ir_core::eval::Layers;

/// One query's wall time split by layer, µs. The layers sum to the
/// query's `eval_us` exactly: each is rounded on the running total, so
/// no layer is off by a whole µs and the rounding does not pile up in
/// one of them, and scoring is the remainder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCost {
    /// Term selection: BAF's rounds, DF's `idf` order and conversion
    /// lookups.
    pub selection_us: u64,
    /// The replacement policy's `begin_query`.
    pub policy_us: u64,
    /// The pool's fetches less their waits.
    pub pool_us: u64,
    /// Waits for demand reads the device served.
    pub demand_wait_us: u64,
    /// Waits for completions a submission staged.
    pub staged_wait_us: u64,
    /// Waits for shard locks another session held.
    pub lock_wait_us: u64,
    /// The remainder: the postings, the ranking, resolving the query
    /// and the bookkeeping around them.
    pub scoring_us: u64,
}

impl LayerCost {
    /// Splits a query's `eval_ns` into layers: the evaluator's
    /// `layers`, and scoring as what they leave.
    pub fn split(layers: &Layers, eval_ns: u64) -> LayerCost {
        let mut running_ns = 0;
        let mut rounded_us = 0;
        let mut next = |ns: u64| {
            running_ns += ns;
            let us = running_ns / 1_000 - rounded_us;
            rounded_us += us;
            us
        };
        let mut cost = LayerCost {
            selection_us: next(layers.selection_ns),
            policy_us: next(layers.policy_ns),
            pool_us: next(layers.pool_ns),
            demand_wait_us: next(layers.demand_wait_ns),
            staged_wait_us: next(layers.staged_wait_ns),
            lock_wait_us: next(layers.lock_wait_ns),
            scoring_us: 0,
        };
        debug_assert!(
            running_ns <= eval_ns,
            "layers of {running_ns} ns in a query of {eval_ns} ns"
        );
        cost.scoring_us = (eval_ns / 1_000).saturating_sub(rounded_us);
        cost
    }

    /// The layers' `(name, µs)` pairs, in ledger order.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("selection", self.selection_us),
            ("policy", self.policy_us),
            ("pool", self.pool_us),
            ("demand wait", self.demand_wait_us),
            ("staged wait", self.staged_wait_us),
            ("lock wait", self.lock_wait_us),
            ("scoring", self.scoring_us),
        ]
    }

    /// The sum of the layers, µs.
    pub fn total_us(&self) -> u64 {
        self.named().iter().map(|&(_, us)| us).sum()
    }

    fn absorb(&mut self, other: &LayerCost) {
        self.selection_us += other.selection_us;
        self.policy_us += other.policy_us;
        self.pool_us += other.pool_us;
        self.demand_wait_us += other.demand_wait_us;
        self.staged_wait_us += other.staged_wait_us;
        self.lock_wait_us += other.lock_wait_us;
        self.scoring_us += other.scoring_us;
    }
}

/// The cost of one evaluated query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Which session submitted the query (0 for a single-user engine).
    pub session: u32,
    /// Position within the session's refinement sequence.
    pub step: u32,
    /// Pages read from disk (the paper's headline cost).
    pub disk_reads: u64,
    /// Pages served from the buffer pool without a disk read. Counted
    /// per fetch by the evaluator, so the figure is exact under any
    /// schedule: `disk_reads + buffer_hits = pages_processed`.
    pub buffer_hits: u64,
    /// The query's wall time in microseconds, from its start to its
    /// answers.
    pub eval_us: u64,
    /// Where `eval_us` went, by layer; sums to it exactly.
    pub layers: LayerCost,
    /// Candidate-set size (peak accumulator count, §5.2.3).
    pub candidates: u64,
    /// Sum of the BAF estimator's `d_t` predictions for the terms it
    /// selected (0 for DF/Full, which do not estimate).
    pub estimated_reads: u64,
    /// Read plans the evaluator issued as batched fetches.
    pub batches: u64,
    /// Microseconds the query's disk reads made it wait for I/O
    /// completions, as the store's latency model accounted them to the
    /// query's own thread — exact even when other sessions drive the
    /// same device. Zero for the in-memory simulator.
    pub io_wait_us: u64,
}

/// One session's costs, summed over its queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCost {
    /// The session these totals cover.
    pub session: u32,
    /// Number of queries the session evaluated.
    pub queries: u64,
    /// Total pages read from disk.
    pub disk_reads: u64,
    /// Total pages served from the buffer pool.
    pub buffer_hits: u64,
    /// Total evaluation wall time in microseconds.
    pub eval_us: u64,
    /// Total time by layer.
    pub layers: LayerCost,
    /// Largest candidate set any single query built.
    pub peak_candidates: u64,
    /// Total batched read plans issued.
    pub batches: u64,
    /// Total microseconds spent waiting on I/O completions.
    pub io_wait_us: u64,
}

impl SessionCost {
    fn absorb(&mut self, q: &QueryCost) {
        self.queries += 1;
        self.disk_reads += q.disk_reads;
        self.buffer_hits += q.buffer_hits;
        self.eval_us += q.eval_us;
        self.layers.absorb(&q.layers);
        self.peak_candidates = self.peak_candidates.max(q.candidates);
        self.batches += q.batches;
        self.io_wait_us += q.io_wait_us;
    }
}

/// An append-only log of [`QueryCost`] rows with per-session rollups.
#[derive(Clone, Debug, Default)]
pub struct CostLedger {
    /// Every recorded query, in completion order.
    pub entries: Vec<QueryCost>,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Appends one query's costs.
    pub fn record(&mut self, cost: QueryCost) {
        self.entries.push(cost);
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total disk reads over every recorded query.
    pub fn total_disk_reads(&self) -> u64 {
        self.entries.iter().map(|e| e.disk_reads).sum()
    }

    /// Every recorded query rolled up as one session (its `session`
    /// is 0).
    pub fn total(&self) -> SessionCost {
        let mut total = SessionCost::default();
        self.entries.iter().for_each(|e| total.absorb(e));
        total
    }

    /// Per-session rollups, ordered by session id.
    pub fn session_costs(&self) -> Vec<SessionCost> {
        let mut out: Vec<SessionCost> = Vec::new();
        for e in &self.entries {
            match out.iter_mut().find(|s| s.session == e.session) {
                Some(s) => s.absorb(e),
                None => {
                    let mut s = SessionCost {
                        session: e.session,
                        ..SessionCost::default()
                    };
                    s.absorb(e);
                    out.push(s);
                }
            }
        }
        out.sort_by_key(|s| s.session);
        out
    }
}

/// Builds a [`QueryCost`] from one evaluation's
/// [`EvalStats`](ir_core::EvalStats) and [`Layers`] plus what the
/// evaluator cannot see: the query's wall time, ns on the clock the
/// evaluator ran under. Hits come straight from the evaluator's
/// per-fetch counters and I/O waits from the store's per-thread
/// accounting, so the row is exact even when other sessions drive the
/// same pool concurrently.
pub fn query_cost(
    session: u32,
    step: u32,
    stats: &ir_core::EvalStats,
    layers: &Layers,
    eval_ns: u64,
) -> QueryCost {
    QueryCost {
        session,
        step,
        disk_reads: stats.disk_reads,
        buffer_hits: stats.buffer_hits,
        eval_us: eval_ns / 1_000,
        layers: LayerCost::split(layers, eval_ns),
        candidates: stats.peak_accumulators as u64,
        estimated_reads: stats.baf_estimated_reads,
        batches: stats.batches_issued,
        io_wait_us: layers.io_wait_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(session: u32, step: u32, reads: u64, cands: u64) -> QueryCost {
        QueryCost {
            session,
            step,
            disk_reads: reads,
            buffer_hits: 2,
            eval_us: 10,
            layers: LayerCost {
                pool_us: 4,
                scoring_us: 6,
                ..LayerCost::default()
            },
            candidates: cands,
            estimated_reads: reads + 1,
            batches: 3,
            io_wait_us: 250,
        }
    }

    #[test]
    fn session_rollups_sum_and_peak() {
        let mut ledger = CostLedger::new();
        ledger.record(cost(0, 0, 5, 40));
        ledger.record(cost(1, 0, 7, 90));
        ledger.record(cost(0, 1, 3, 60));
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.total_disk_reads(), 15);
        let sessions = ledger.session_costs();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].session, 0);
        assert_eq!(sessions[0].queries, 2);
        assert_eq!(sessions[0].disk_reads, 8);
        assert_eq!(sessions[0].buffer_hits, 4);
        assert_eq!(sessions[0].eval_us, 20);
        assert_eq!(sessions[0].layers.total_us(), 20);
        assert_eq!(sessions[0].layers.pool_us, 8);
        assert_eq!(ledger.total().queries, 3);
        assert_eq!(ledger.total().layers.scoring_us, 18);
        assert_eq!(sessions[0].peak_candidates, 60);
        assert_eq!(sessions[0].batches, 6);
        assert_eq!(sessions[0].io_wait_us, 500);
        assert_eq!(sessions[1].queries, 1);
        assert_eq!(sessions[1].peak_candidates, 90);
    }

    #[test]
    fn query_cost_sources_hits_from_the_evaluator_not_subtraction() {
        // The evaluator counts hits per fetch; the ledger must copy
        // that figure, not infer it from pages_processed − disk_reads.
        let stats = ir_core::EvalStats {
            disk_reads: 3,
            pages_processed: 10,
            buffer_hits: 7,
            peak_accumulators: 5,
            ..ir_core::EvalStats::default()
        };
        let layers = Layers {
            io_wait_us: 77,
            ..Layers::default()
        };
        let row = query_cost(4, 1, &stats, &layers, 123_000);
        assert_eq!(row.buffer_hits, stats.buffer_hits);
        assert_eq!(row.io_wait_us, 77);
        assert_eq!(
            row.disk_reads + row.buffer_hits,
            stats.pages_processed,
            "every processed page is exactly one of: disk read, buffer hit"
        );
    }

    /// Layers are rounded on the running total: sub-µs layers come out
    /// as 0 or 1 µs as their running sum crosses a µs, never as a
    /// negative remainder, and always sum to the query's µs.
    #[test]
    fn layers_round_on_the_running_total_and_sum_to_the_wall_time() {
        let layers = Layers {
            selection_ns: 400,
            policy_ns: 400,
            pool_ns: 400,
            demand_wait_ns: 2_600,
            staged_wait_ns: 0,
            lock_wait_ns: 1_999,
            io_wait_us: 3,
        };
        let cost = LayerCost::split(&layers, 6_000);
        assert_eq!(
            cost.named().map(|(_, us)| us),
            [0, 0, 1, 2, 0, 2, 1],
            "running totals 0.4, 0.8, 1.2, 3.8, 3.8, 5.799 of 6 µs"
        );
        assert_eq!(cost.total_us(), 6);
        let whole = LayerCost::split(&Layers::default(), 2_500);
        assert_eq!((whole.scoring_us, whole.total_us()), (2, 2));
    }
}
