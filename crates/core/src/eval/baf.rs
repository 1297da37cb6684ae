//! Buffer-Aware Filtering (Fig. 2): DF's per-term processing, with the
//! processing *order* chosen round-by-round to minimize estimated disk
//! reads `d_t = max(p_t − b_t, 0)`.
//!
//! Implementation notes from §3.2.2, all honoured here:
//!
//! * `p_t` comes from the memory-resident conversion table, looked up
//!   at the term's would-be `f_add`;
//! * `b_t` comes from the buffer manager and is re-queried for every
//!   unmarked term in every round (up to `T(T+1)/2` inquiries);
//! * the `(f_add, p_t)` arrays are cached and recomputed **only when
//!   `S_max` changed** since the previous round;
//! * ties in `d_t` break toward higher `idf_t`.

use super::scan::{scan_term, with_fetched};
use super::EvalOptions;
use crate::accumulator::Accumulators;
use crate::query::{Query, QueryTerm};
use crate::rank;
use crate::stats::{EvalStats, QueryResult, TermTraceRow};
use ir_index::InvertedIndex;
use ir_observe::SpanKind;
use ir_storage::{FetchOutcome, QueryBuffer};
use ir_types::{IrResult, ListOrdering, PageId, ReadPlan, TermId};

/// The §3.2.2 safety fix for a term the `f_max` skip would ignore
/// outright: touch its first page anyway, so a newly added term is
/// never silently dropped. A one-entry plan keeps even this touch on
/// the batch path (and hints the page with `w_{q,t}`).
fn touch_first_page<B: QueryBuffer>(
    buffer: &mut B,
    t: &QueryTerm,
    stats: &mut EvalStats,
    row: &mut TermTraceRow,
) -> IrResult<()> {
    let plan = ReadPlan::single_hinted(PageId::new(t.term, 0), t.weight());
    let how = with_fetched(buffer, &plan, |fetched| fetched[0].1)?;
    stats.batches_issued += 1;
    row.pages_processed = 1;
    row.pages_read = u32::from(how == FetchOutcome::Miss);
    stats.pages_processed += 1;
    stats.disk_reads += u64::from(row.pages_read);
    stats.buffer_hits += u64::from(how == FetchOutcome::Hit);
    Ok(())
}

/// Runs BAF.
pub fn evaluate_baf<B: QueryBuffer>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
) -> IrResult<QueryResult> {
    buffer.begin_query(&query.weights());
    Accumulators::with_scratch(index.n_docs() as usize, |accs| {
        baf_over(index, buffer, query, options, accs)
    })
}

/// Fig. 2 over the caller's (empty) accumulator set.
fn baf_over<B: QueryBuffer>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
    accs: &mut Accumulators,
) -> IrResult<QueryResult> {
    // Frequency-sorted lists allow terminating a scan at the first
    // entry below f_add; doc-ordered lists must be scanned fully.
    let early_stop = index.params().ordering == ListOrdering::FrequencySorted;

    let terms = query.terms().to_vec();
    let n = terms.len();
    let mut done = vec![false; n];
    let mut f_add_cache = vec![0.0f64; n];
    let mut pt_cache = vec![0u32; n];
    // Forces a recompute on the first round (S_max starts at 0).
    let mut cache_valid_for = f64::NEG_INFINITY;

    let mut s_max = 0.0f64;
    let mut stats = EvalStats::default();
    let mut trace = Vec::with_capacity(n);

    let mut qspan = ir_observe::tracer().span(SpanKind::Query, "baf");
    qspan.attr("terms", n as i64);

    // Round-reused scratch for the live candidate set, so the selection
    // loop allocates nothing after the first round.
    let mut live: Vec<usize> = Vec::with_capacity(n);
    let mut live_terms: Vec<TermId> = Vec::with_capacity(n);

    for round in 0..n {
        // Step 3a-i/ii: refresh (f_add, p_t) only if S_max moved.
        if s_max != cache_valid_for {
            for (i, t) in terms.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let f_add = options.params.f_add(s_max, t.query_freq, t.idf);
                f_add_cache[i] = f_add;
                pt_cache[i] = index.conversion().pages_to_process(t.term, f_add)?;
                stats.threshold_recomputes += 1;
            }
            cache_valid_for = s_max;
        }
        // Step 3a-iii/iv: live b_t per unmarked term; pick min d_t.
        // The whole round — selection plus the chosen term's scan —
        // reports as one `term-select` span under the query.
        // One batched `b_t` inquiry per round: against a sharded pool a
        // per-term `resident_pages` call locks every shard, so a round
        // over T candidates took T·P locks; `resident_pages_many` takes
        // one pass (P locks) for the whole candidate set. Each term
        // still counts as one inquiry, preserving the paper's
        // T(T+1)/2 accounting.
        let mut sel_span = qspan.child(SpanKind::TermSelect, format_args!("round:{round}"));
        live.clear();
        live_terms.clear();
        for (i, t) in terms.iter().enumerate() {
            if !done[i] {
                live.push(i);
                live_terms.push(t.term);
            }
        }
        let b_ts = buffer.resident_pages_many(&live_terms);
        stats.bt_inquiries += live.len() as u64;
        let mut best: Option<(usize, u32)> = None;
        for (k, &i) in live.iter().enumerate() {
            let t = &terms[i];
            let d_t = pt_cache[i].saturating_sub(b_ts[k]);
            let better = match best {
                None => true,
                Some((j, best_d)) => {
                    d_t < best_d
                        || (d_t == best_d
                            && (t.idf > terms[j].idf
                                || (t.idf == terms[j].idf && t.term < terms[j].term)))
                }
            };
            if better {
                best = Some((i, d_t));
            }
        }
        let (i, est_reads) = best.expect("an unmarked term exists in every round");
        done[i] = true;
        let t = &terms[i];
        sel_span.attr("term", i64::from(t.term.0));
        sel_span.attr("est_reads", i64::from(est_reads));

        // Step 3b: fresh thresholds (f_add equals the cached value — the
        // cache was refreshed against the current S_max above).
        let f_ins = options.params.f_ins(s_max, t.query_freq, t.idf);
        let f_add = f_add_cache[i];
        debug_assert_eq!(f_add, options.params.f_add(s_max, t.query_freq, t.idf));

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
            est_reads,
        };
        // Step 3c: f_max skip.
        if f64::from(t.f_max) <= f_add {
            stats.terms_skipped += 1;
            if options.baf_force_first_page && t.n_pages > 0 {
                touch_first_page(buffer, t, &mut stats, &mut row)?;
            }
            trace.push(row);
            continue;
        }
        // The cached `p_t` (refreshed against the current S_max above)
        // is exactly the page count a threshold-f_add scan processes —
        // it sizes both the d_t estimate and the term's read plan.
        let out = scan_term(
            buffer,
            accs,
            &mut s_max,
            t,
            f_ins,
            f_add,
            early_stop,
            pt_cache[i],
            Some(&sel_span),
        )?;
        stats.record_scan(&out);
        // The estimator's quality, measured: what d_t promised vs what
        // the scan actually pulled from disk.
        stats.baf_estimated_reads += u64::from(est_reads);
        stats.baf_estimate_abs_error += u64::from(est_reads.abs_diff(out.pages_read));
        row.pages_processed = out.pages_processed;
        row.pages_read = out.pages_read;
        trace.push(row);
    }

    let hits = rank::top_n(accs, index.doc_stats(), options.top_n)?;
    stats.peak_accumulators = accs.peak();
    stats.final_accumulators = accs.len();
    qspan.attr("disk_reads", stats.disk_reads as i64);
    qspan.attr("est_reads", stats.baf_estimated_reads as i64);
    qspan.attr("est_abs_error", stats.baf_estimate_abs_error as i64);
    qspan.attr("candidates", stats.peak_accumulators as i64);
    Ok(QueryResult { hits, stats, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, evaluate_df, Algorithm};
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::PolicyKind;
    use ir_types::{FilterParams, IndexParams};

    /// Index with one long list ("commn", 8 docs) and short ones.
    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in 0..8u32 {
            let mut doc = vec!["commn"];
            if d == 0 {
                doc.extend(["rare", "rare", "rare", "mid"]);
            }
            if d < 2 {
                doc.push("mid");
            }
            b.add_document(doc);
        }
        for _ in 0..8 {
            b.add_document(["filler"]);
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
    fn cold_buffers_fall_back_to_idf_order() {
        // With nothing resident, every term has d_t = p_t > 0... not
        // necessarily idf order; but with filters OFF and cold buffers,
        // d_t = list pages, so the *shortest list* goes first — and the
        // tie-break is idf. Verify ordering is by (d_t, idf desc).
        let idx = index();
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let r = evaluate(
            Algorithm::Baf,
            &idx,
            &mut buf,
            &q,
            EvalOptions {
                params: FilterParams::OFF,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let pages: Vec<u32> = r.trace.iter().map(|row| row.list_pages).collect();
        assert!(
            pages.windows(2).all(|w| w[0] <= w[1]),
            "cold BAF must process shorter lists first: {pages:?}"
        );
    }

    #[test]
    fn warm_terms_are_preferred() {
        let idx = index();
        let commn = idx.lexicon().lookup("commn").unwrap();
        let q_warm = query(&idx, &[("commn", 1)]);
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        // Warm the long list.
        evaluate(
            Algorithm::Baf,
            &idx,
            &mut buf,
            &q_warm,
            EvalOptions {
                params: FilterParams::OFF,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert!(buf.resident_pages(commn) > 0);
        // Now the long-but-warm list has d_t = 0 and must go first.
        let r = evaluate(
            Algorithm::Baf,
            &idx,
            &mut buf,
            &q,
            EvalOptions {
                params: FilterParams::OFF,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            r.trace[0].term, commn,
            "resident list must be processed first"
        );
        assert_eq!(r.trace[0].pages_read, 0);
    }

    #[test]
    fn baf_matches_full_df_scores_when_filters_off() {
        // With c_ins = c_add = 0 the processing order cannot change the
        // final accumulated scores: BAF and DF must return identical
        // rankings.
        let idx = index();
        let q = query(&idx, &[("commn", 1), ("rare", 2), ("mid", 1)]);
        let opts = EvalOptions {
            params: FilterParams::OFF,
            ..EvalOptions::default()
        };
        let mut b1 = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let df = evaluate_df(&idx, &mut b1, &q, opts).unwrap();
        let mut b2 = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let baf = evaluate_baf(&idx, &mut b2, &q, opts).unwrap();
        assert_eq!(df.hits.len(), baf.hits.len());
        for (a, b) in df.hits.iter().zip(&baf.hits) {
            assert_eq!(a.doc, b.doc);
            assert!((a.score - b.score).abs() < 1e-9);
        }
        // And with everything processed, reads are identical too.
        assert_eq!(df.stats.disk_reads, baf.stats.disk_reads);
    }

    #[test]
    fn bt_inquiries_are_quadratic_in_terms() {
        let idx = index();
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let r = evaluate_baf(&idx, &mut buf, &q, EvalOptions::default()).unwrap();
        // T(T+1)/2 with T = 3.
        assert_eq!(r.stats.bt_inquiries, 6);
    }

    #[test]
    fn threshold_cache_not_recomputed_when_smax_static() {
        let idx = index();
        // Filters OFF → f_add stays 0 → S_max changes after first term
        // only... S_max does change (starts 0, grows). But with OFF the
        // f_add values stay 0; the cache still recomputes when S_max
        // moves. Verify the count is bounded by T + T-1 (first round T,
        // at most T-1 after each scan) rather than T(T+1)/2 when S_max
        // stops moving early.
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let r = evaluate_baf(&idx, &mut buf, &q, EvalOptions::default()).unwrap();
        assert!(r.stats.threshold_recomputes <= 6);
        assert!(
            r.stats.threshold_recomputes >= 3,
            "first round recomputes all"
        );
    }

    #[test]
    fn force_first_page_touches_skipped_terms() {
        let idx = index();
        // Build S_max high with rare (fq 5), then a term whose f_max
        // fails the addition threshold gets skipped; with the safety
        // fix its first page is still read.
        let q = query(&idx, &[("rare", 5), ("commn", 1)]);
        let params = FilterParams::new(100.0, 100.0);
        let run = |force: bool| {
            let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
            evaluate_baf(
                &idx,
                &mut buf,
                &q,
                EvalOptions {
                    params,
                    baf_force_first_page: force,
                    ..EvalOptions::default()
                },
            )
            .unwrap()
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(without.stats.terms_skipped, with.stats.terms_skipped);
        assert!(
            with.stats.disk_reads > without.stats.disk_reads
                || with.stats.pages_processed > without.stats.pages_processed,
            "the safety fix must touch at least one extra page"
        );
    }

    #[test]
    fn refinement_pushes_new_term_back() {
        // The §3.2.1 scenario in miniature: evaluate a query, then add
        // a term and re-evaluate with warm buffers. The added term must
        // be processed last (its pages are cold) and the retained terms
        // first.
        let idx = index();
        let q1 = query(&idx, &[("commn", 1), ("mid", 1)]);
        let q2 = query(&idx, &[("commn", 1), ("mid", 1), ("rare", 1)]);
        let rare = idx.lexicon().lookup("rare").unwrap();
        let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let opts = EvalOptions {
            params: FilterParams::OFF,
            ..EvalOptions::default()
        };
        evaluate_baf(&idx, &mut buf, &q1, opts).unwrap();
        let r2 = evaluate_baf(&idx, &mut buf, &q2, opts).unwrap();
        let order = r2.processing_order();
        assert_eq!(
            *order.last().unwrap(),
            rare,
            "added term must be pushed back: {order:?}"
        );
        // Retained terms read nothing.
        for row in &r2.trace {
            if row.term != rare {
                assert_eq!(
                    row.pages_read, 0,
                    "retained term {:?} re-read pages",
                    row.term
                );
            }
        }
    }

    #[test]
    fn a_deep_queue_shadows_io_waits_without_changing_reads() {
        use ir_storage::{BufferManager, IoConfig, IoScheduler, LatencyModel};
        use ir_types::ClockKind;
        use std::sync::Arc;

        // Same workload over the simulator and over the latency
        // scheduler at queue depth 1 and 4 (virtual clock). Each plan
        // is staged whole before its first demand read, so at depth 4
        // demands are served from staged completions and the modeled
        // wait shrinks — while the pool, and hence every per-query read
        // count, sees the same page sequence as over `DiskSim`.
        let idx = index();
        let queries = [
            query(&idx, &[("commn", 1), ("rare", 2), ("mid", 1)]),
            query(&idx, &[("commn", 2), ("filler", 1)]),
        ];
        let opts = EvalOptions {
            params: FilterParams::OFF,
            ..EvalOptions::default()
        };
        let mut sim = idx.make_buffer(3, PolicyKind::Lru).unwrap();
        let sim_reads: Vec<u64> = queries
            .iter()
            .map(|q| {
                evaluate_baf(&idx, &mut sim, q, opts)
                    .unwrap()
                    .stats
                    .disk_reads
            })
            .collect();
        let run = |queue_depth: usize| {
            let sched = Arc::new(IoScheduler::new(
                Arc::clone(idx.disk()),
                IoConfig {
                    queue_depth,
                    model: LatencyModel {
                        seek_us: 200,
                        transfer_us: 100,
                    },
                    clock: ClockKind::Virtual,
                },
            ));
            let mut buf = BufferManager::new(Arc::clone(&sched), 3, PolicyKind::Lru).unwrap();
            let reads: Vec<u64> = queries
                .iter()
                .map(|q| {
                    evaluate_baf(&idx, &mut buf, q, opts)
                        .unwrap()
                        .stats
                        .disk_reads
                })
                .collect();
            let m = sched.metrics();
            (reads, m.overlap_hits.get(), m.io_wait_us.get())
        };
        let (reads_1, _, wait_1) = run(1);
        let (reads_4, overlap_hits, wait_4) = run(4);
        assert_eq!(reads_1, sim_reads);
        assert_eq!(reads_4, sim_reads);
        assert!(overlap_hits > 0, "no demand was served from a staged read");
        assert!(
            wait_4 < wait_1,
            "depth 4 must shadow some wait: {wait_4} vs {wait_1}"
        );
    }

    #[test]
    fn ties_break_toward_higher_idf() {
        let idx = index();
        // rare (1 page, idf high) and mid (1 page, idf lower): equal
        // d_t on cold buffers with OFF → rare first.
        let q = query(&idx, &[("mid", 1), ("rare", 1)]);
        let mut buf = idx.make_buffer(32, PolicyKind::Lru).unwrap();
        let r = evaluate_baf(
            &idx,
            &mut buf,
            &q,
            EvalOptions {
                params: FilterParams::OFF,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let rare = idx.lexicon().lookup("rare").unwrap();
        let mid = idx.lexicon().lookup("mid").unwrap();
        let rare_pages = idx.n_pages(rare).unwrap();
        let mid_pages = idx.n_pages(mid).unwrap();
        if rare_pages == mid_pages {
            assert_eq!(r.trace[0].term, rare);
        }
        let _ = mid;
    }
}
