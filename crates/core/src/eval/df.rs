//! Document Filtering (Fig. 1): terms in decreasing-`idf_t` order,
//! thresholds from Eq. 5, early list termination.

use super::clock::{Clock, Layer, NoClock, Stopwatch};
use super::scan::scan_term;
use super::EvalOptions;
use crate::accumulator::Accumulators;
use crate::query::Query;
use crate::rank;
use crate::stats::{EvalStats, QueryResult, TermTraceRow};
use ir_index::InvertedIndex;
use ir_storage::QueryBuffer;
use ir_types::{IrResult, ListOrdering};

/// Runs DF. With `options.params == FilterParams::OFF` this is the
/// paper's safe baseline ("full evaluation").
pub fn evaluate_df<B: QueryBuffer>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
) -> IrResult<QueryResult> {
    evaluate_df_on(index, buffer, query, options, &NoClock)
}

/// [`evaluate_df`] keeping the per-layer ledger under `clock`.
pub(crate) fn evaluate_df_on<B: QueryBuffer, C: Clock>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
    clock: &C,
) -> IrResult<QueryResult> {
    let mut watch = Stopwatch::start(clock);
    buffer.begin_query(&query.weights());
    watch.lap(Layer::Policy);
    Accumulators::with_scratch(index.n_docs() as usize, |accs| {
        df_over(index, buffer, query, options, accs, &mut watch)
    })
}

/// Fig. 1 over the caller's (empty) accumulator set. Selection is the
/// `idf` order and each scanned term's conversion lookup: one clock
/// read a scanned term, beside the scan's two.
fn df_over<B: QueryBuffer, C: Clock>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
    accs: &mut Accumulators,
    watch: &mut Stopwatch<'_, C>,
) -> IrResult<QueryResult> {
    // Frequency-sorted lists allow terminating a scan at the first
    // entry below f_add; doc-ordered lists must be scanned fully.
    let early_stop = index.params().ordering == ListOrdering::FrequencySorted;

    // Step 3: decreasing idf_t (shortest inverted lists first); term id
    // breaks exact-idf ties deterministically.
    let mut terms = query.terms().to_vec();
    terms.sort_by(|a, b| b.idf.total_cmp(&a.idf).then(a.term.cmp(&b.term)));

    let mut s_max = 0.0f64;
    let mut stats = EvalStats::default();
    let mut trace = Vec::with_capacity(terms.len());

    for t in &terms {
        // Step 4a: thresholds from the current S_max.
        let f_ins = options.params.f_ins(s_max, t.query_freq, t.idf);
        let f_add = options.params.f_add(s_max, t.query_freq, t.idf);
        let mut row = TermTraceRow {
            term: t.term,
            idf: t.idf,
            query_freq: t.query_freq,
            list_pages: t.n_pages,
            s_max_before: s_max,
            f_ins,
            f_add,
            pages_processed: 0,
            pages_read: 0,
            est_reads: 0,
            inquired: 0,
            lookahead: None,
        };
        // Step 4b: skip the whole list without reading when even its
        // best entry cannot pass the addition threshold.
        if f64::from(t.f_max) <= f_add {
            stats.terms_skipped += 1;
            trace.push(row);
            continue;
        }
        // The conversion table (§3.2.2) sizes the term's read plan
        // exactly: the scan's batched fetch covers precisely the pages
        // the threshold-f_add scan will process.
        let plan_pages = index.conversion().pages_to_process(t.term, f_add)?;
        watch.lap(Layer::Selection);
        let out = scan_term(
            buffer, accs, &mut s_max, t, f_ins, f_add, early_stop, plan_pages, None, watch,
        )?;
        stats.record_scan(&out);
        row.pages_processed = out.pages_processed;
        row.pages_read = out.pages_read;
        trace.push(row);
    }

    // Steps 5–6: normalize by W_d, return the n best.
    let hits = rank::top_n(accs, index.doc_stats(), options.top_n)?;
    stats.peak_accumulators = accs.peak();
    stats.final_accumulators = accs.len();
    Ok(QueryResult {
        hits,
        stats,
        trace,
        layers: watch.layers(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, Algorithm};
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::PolicyKind;
    use ir_types::{FilterParams, IndexParams};

    /// A small controlled index:
    /// - "rare"  in 1 doc  (idf = log2(8) = 3),
    /// - "mid"   in 2 docs (idf = 2),
    /// - "commn" in 4 docs (idf = 1).
    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["rare", "mid", "commn", "commn", "commn"]); // d0
        b.add_document(["mid", "mid", "commn"]); // d1
        b.add_document(["commn"]); // d2
        b.add_document(["commn", "filler"]); // d3
        for _ in 0..4 {
            b.add_document(["filler"]); // d4..d7
        }
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    fn query(idx: &InvertedIndex, terms: &[(&str, u32)]) -> Query {
        let named: Vec<(String, u32)> = terms.iter().map(|&(n, f)| (n.to_string(), f)).collect();
        Query::from_named(idx, &named)
    }

    #[test]
    fn processes_terms_in_idf_order() {
        let idx = index();
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        let r = evaluate_df(&idx, &mut buf, &q, EvalOptions::default()).unwrap();
        let idfs: Vec<f64> = r.trace.iter().map(|row| row.idf).collect();
        assert!(idfs.windows(2).all(|w| w[0] >= w[1]), "idf order: {idfs:?}");
        assert_eq!(r.trace.len(), 3);
    }

    #[test]
    fn full_evaluation_scores_match_hand_cosine() {
        let idx = index();
        let q = query(&idx, &[("rare", 1), ("mid", 2)]);
        let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        let r = evaluate(Algorithm::Full, &idx, &mut buf, &q, EvalOptions::default()).unwrap();
        // Raw scores: d0 has rare×1 (idf 3) and mid×1 (idf 2):
        //   raw(d0) = (1·3)(1·3) + (1·2)(2·2) = 17, W_d0 = sqrt(9+4+9) = √22;
        // d1 has mid×2: raw(d1) = (2·2)(2·2) = 16, W_d1 = sqrt(16+1) = √17.
        // Normalized, d1 (16/√17 ≈ 3.88) outranks d0 (17/√22 ≈ 3.62).
        let w_d0 = idx.doc_stats().vector_length(ir_types::DocId(0)).unwrap();
        let w_d1 = idx.doc_stats().vector_length(ir_types::DocId(1)).unwrap();
        assert_eq!(r.hits[0].doc, ir_types::DocId(1));
        assert!((r.hits[0].score - 16.0 / w_d1).abs() < 1e-9);
        assert_eq!(r.hits[1].doc, ir_types::DocId(0));
        assert!((r.hits[1].score - 17.0 / w_d0).abs() < 1e-9);
        assert!((w_d0 - 22f64.sqrt()).abs() < 1e-9);
        assert!((w_d1 - 17f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn full_evaluation_reads_every_query_page() {
        let idx = index();
        let q = query(&idx, &[("rare", 1), ("mid", 1), ("commn", 1)]);
        let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        let r = evaluate(Algorithm::Full, &idx, &mut buf, &q, EvalOptions::default()).unwrap();
        assert_eq!(r.stats.disk_reads, q.total_pages());
        assert_eq!(r.stats.pages_processed, q.total_pages());
        assert_eq!(r.stats.terms_skipped, 0);
    }

    #[test]
    fn aggressive_thresholds_reduce_reads_and_accumulators() {
        let idx = index();
        let q = query(&idx, &[("rare", 3), ("mid", 1), ("commn", 1)]);
        let run = |params: FilterParams| {
            let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
            evaluate_df(
                &idx,
                &mut buf,
                &q,
                EvalOptions {
                    params,
                    ..EvalOptions::default()
                },
            )
            .unwrap()
        };
        let full = run(FilterParams::OFF);
        let filtered = run(FilterParams::new(5.0, 0.5));
        assert!(filtered.stats.entries_processed <= full.stats.entries_processed);
        assert!(filtered.stats.peak_accumulators <= full.stats.peak_accumulators);
        // The filtered run must still rank *something*.
        assert!(!filtered.hits.is_empty());
    }

    #[test]
    fn fmax_skip_avoids_all_reads_for_hopeless_terms() {
        let idx = index();
        // rare first (f_max 1, idf 3, fq 5): builds S_max; then commn
        // (idf 1, f_max 3). With huge c_add, f_add for commn exceeds
        // f_max → skipped without reads.
        let q = query(&idx, &[("rare", 5), ("commn", 1)]);
        let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        let r = evaluate_df(
            &idx,
            &mut buf,
            &q,
            EvalOptions {
                params: FilterParams::new(100.0, 100.0),
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.stats.terms_skipped, 1);
        let commn_row = r.trace.iter().find(|row| row.idf < 2.0).unwrap();
        assert_eq!(commn_row.pages_processed, 0);
        assert_eq!(commn_row.pages_read, 0);
    }

    #[test]
    fn trace_smax_is_nondecreasing() {
        let idx = index();
        let q = query(&idx, &[("rare", 1), ("mid", 1), ("commn", 1)]);
        let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        let r = evaluate_df(&idx, &mut buf, &q, EvalOptions::default()).unwrap();
        let smaxes: Vec<f64> = r.trace.iter().map(|row| row.s_max_before).collect();
        assert!(smaxes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(smaxes[0], 0.0, "S_max starts at 0 (step 2)");
    }

    #[test]
    fn empty_query_returns_empty_result() {
        let idx = index();
        let q = Query::default();
        let mut buf = idx.make_buffer(4, PolicyKind::Lru).unwrap();
        let r = evaluate_df(&idx, &mut buf, &q, EvalOptions::default()).unwrap();
        assert!(r.hits.is_empty());
        assert_eq!(r.stats.disk_reads, 0);
    }
}
