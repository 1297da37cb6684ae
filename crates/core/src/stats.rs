//! Evaluation metrics and per-term traces.
//!
//! The paper's metrics (§4.1): disk reads (headline), inverted-list
//! entries processed (CPU proxy), and candidate-set size (memory
//! proxy). The per-term trace reproduces the columns of Tables 1 and 2.

use crate::rank::Hit;
use ir_types::TermId;
use serde::Serialize;

/// Counters for one query evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct EvalStats {
    /// Pages read from disk (buffer misses) — the paper's headline
    /// metric. Attributed per fetch, so the count belongs to *this*
    /// query even on a pool shared with concurrent sessions.
    pub disk_reads: u64,
    /// Pages examined (buffer hits + misses).
    pub pages_processed: u64,
    /// Pages served from a resident frame, without a disk read.
    /// `pages_processed = disk_reads + buffer_hits` always.
    pub buffer_hits: u64,
    /// `(d, f_{d,t})` entries examined, including the terminating one.
    pub entries_processed: u64,
    /// High-water mark of the candidate set.
    pub peak_accumulators: usize,
    /// Candidate-set size at the end of evaluation.
    pub final_accumulators: usize,
    /// Terms whose lists were scanned (at least one page).
    pub terms_scanned: usize,
    /// Terms skipped entirely by the `f_max ≤ f_add` test (step 4b/3c).
    pub terms_skipped: usize,
    /// BAF only: `b_t` inquiries actually made to the buffer manager,
    /// one per term asked about. Every unmarked term is asked in the
    /// first round and after each round that read a page, so the
    /// paper's `T(T+1)/2` is the cold query's count and the upper
    /// bound; a warm step asks about `T`.
    pub bt_inquiries: u64,
    /// BAF only: `(f_add, p_t)` pairs actually recomputed — a term's
    /// when a round looks at it and `S_max` has moved since its last
    /// refresh. At most one per unmarked term per round.
    pub threshold_recomputes: u64,
    /// BAF only: sum of the selected terms' `d_t = max(p_t − b_t, 0)`
    /// estimates — what BAF *predicted* its scans would read.
    pub baf_estimated_reads: u64,
    /// BAF only: `Σ |d_t − actual reads|` over scanned terms — the
    /// estimator's absolute error, a measured quantity.
    pub baf_estimate_abs_error: u64,
    /// Read plans issued as batched fetches: one per scanned list (plus
    /// one per forced first-page touch under BAF's safety fix).
    pub batches_issued: u64,
}

/// One row of a Table 1/2-style evaluation trace: the state of the
/// algorithm when a term came up for processing.
#[derive(Clone, Debug, Serialize)]
pub struct TermTraceRow {
    /// The term.
    pub term: TermId,
    /// `idf_t`.
    pub idf: f64,
    /// `f_{q,t}`.
    pub query_freq: u32,
    /// Pages in the term's inverted list ("Pages").
    pub list_pages: u32,
    /// `S_max` before this term was processed.
    pub s_max_before: f64,
    /// The insertion threshold used.
    pub f_ins: f64,
    /// The addition threshold used.
    pub f_add: f64,
    /// Pages of the list examined ("Proc.").
    pub pages_processed: u32,
    /// Pages read from disk ("Read").
    pub pages_read: u32,
    /// BAF's read estimate `d_t` when the term was selected (0 for
    /// algorithms that do not estimate).
    pub est_reads: u32,
}

/// The outcome of one query evaluation.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// The ranked answers (top `n`).
    pub hits: Vec<Hit>,
    /// Counters.
    pub stats: EvalStats,
    /// Per-term trace, in processing order.
    pub trace: Vec<TermTraceRow>,
}

impl QueryResult {
    /// Terms in processing order (convenience for trace assertions).
    pub fn processing_order(&self) -> Vec<TermId> {
        self.trace.iter().map(|r| r.term).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = EvalStats::default();
        assert_eq!(s.disk_reads, 0);
        assert_eq!(s.peak_accumulators, 0);
    }

    #[test]
    fn processing_order_reads_trace() {
        let r = QueryResult {
            hits: vec![],
            stats: EvalStats::default(),
            trace: vec![
                TermTraceRow {
                    term: TermId(4),
                    idf: 1.0,
                    query_freq: 1,
                    list_pages: 2,
                    s_max_before: 0.0,
                    f_ins: 0.0,
                    f_add: 0.0,
                    pages_processed: 2,
                    pages_read: 2,
                    est_reads: 2,
                },
                TermTraceRow {
                    term: TermId(1),
                    idf: 0.5,
                    query_freq: 1,
                    list_pages: 1,
                    s_max_before: 3.0,
                    f_ins: 1.0,
                    f_add: 0.1,
                    pages_processed: 1,
                    pages_read: 0,
                    est_reads: 0,
                },
            ],
        };
        assert_eq!(r.processing_order(), vec![TermId(4), TermId(1)]);
    }
}
