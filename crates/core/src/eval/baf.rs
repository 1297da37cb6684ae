//! Buffer-Aware Filtering (Fig. 2): DF's per-term processing, with the
//! processing *order* chosen round-by-round to minimize estimated disk
//! reads `d_t = max(p_t − b_t, 0)`.
//!
//! Implementation notes from §3.2.2, all honoured here:
//!
//! * `p_t` comes from the memory-resident conversion table, looked up
//!   at the term's would-be `f_add`;
//! * `b_t` comes from the buffer manager — asked for every unmarked
//!   term in the first round and again after every round in which this
//!   query read a page. A round of hits changes no residency, so the
//!   previous answers still stand: "up to `T(T+1)/2` inquiries" is the
//!   cold query's count, a warm refinement step asks about `T`;
//! * a term's `(f_add, p_t)` is cached and recomputed **only when
//!   `S_max` changed** since that term's own last refresh, and only
//!   when the round looks at the term;
//! * ties in `d_t` break toward higher `idf_t` (then the lower term
//!   id): the unmarked terms are kept in that order, so the first term
//!   with the least `d_t` is Fig. 2's pick and a round stops looking at
//!   the first `d_t = 0` — nothing after it can win.
//!
//! The pick, its `d_t` and everything the scan then does are those of
//! the round that re-asks and recomputes everything every time (kept as
//! the test oracle below); only the work to find the pick differs.
//!
//! A round whose pick must read (`d_t > 0`) has compared every unmarked
//! term, so it knows every other term's `p_t` and `b_t` too, at no
//! extra inquiry, and each of them must read as well (its `d_t` is no
//! less than the pick's). The pick's plan names all of their `[0, p_t)`
//! prefixes as its stage-only lookahead, ordered as the round would
//! pick them (`d_t`, then the tie-break): a store that overlaps reads
//! may start on every list the query has left while the pick's own
//! reads are in flight. The pool never demands them, so they change no
//! load, no victim and no answer.

use super::clock::{Clock, Layer, NoClock, Stopwatch};
use super::scan::{scan_term, with_fetched};
use super::EvalOptions;
use crate::accumulator::Accumulators;
use crate::query::{Query, QueryTerm};
use crate::rank;
use crate::stats::{EvalStats, QueryResult, TermTraceRow};
use ir_index::InvertedIndex;
use ir_storage::{FetchOutcome, QueryBuffer};
use ir_types::{FilterParams, IrResult, ListOrdering, PageId, ReadPlan, TermId};

/// The §3.2.2 safety fix for a term the `f_max` skip would ignore
/// outright: touch its first page anyway, so a newly added term is
/// never silently dropped. A one-entry plan keeps even this touch on
/// the batch path.
fn touch_first_page<B: QueryBuffer, C: Clock>(
    buffer: &mut B,
    t: &QueryTerm,
    stats: &mut EvalStats,
    row: &mut TermTraceRow,
    watch: &mut Stopwatch<'_, C>,
) -> IrResult<()> {
    let plan = ReadPlan::single(PageId::new(t.term, 0));
    let how = with_fetched(buffer, &plan, watch, |fetched| fetched[0].1)?;
    stats.batches_issued += 1;
    row.pages_processed = 1;
    row.pages_read = u32::from(how == FetchOutcome::Miss);
    stats.pages_processed += 1;
    stats.disk_reads += u64::from(row.pages_read);
    stats.buffer_hits += u64::from(how == FetchOutcome::Hit);
    Ok(())
}

/// An unmarked term and what is known about it.
struct Candidate<'q> {
    term: &'q QueryTerm,
    /// `(f_add, p_t)` as of `S_max = fresh_at` (NaN: never computed).
    f_add: f64,
    p_t: u32,
    fresh_at: f64,
    /// `b_t` as last asked.
    b_t: u32,
}

/// Fig. 2's tie-break among equal `d_t`: higher `idf_t` first, then
/// the lower term id.
fn tie_break(a: &QueryTerm, b: &QueryTerm) -> std::cmp::Ordering {
    let by_idf = b.idf.partial_cmp(&a.idf).expect("idf is a number");
    by_idf.then(a.term.cmp(&b.term))
}

/// What a selection round settled on.
struct Pick<'q> {
    /// The term, with `(f_add, p_t)` fresh at the round's `S_max`.
    chosen: Candidate<'q>,
    /// Its `d_t`.
    est_reads: u32,
    /// Terms whose `b_t` the round asked for.
    inquired: usize,
    /// When the pick must read (`d_t > 0`): every other unmarked term's
    /// `(term, p_t)`, in the order the round would pick them; else
    /// empty.
    lookahead: Vec<(TermId, u32)>,
}

/// Steps 3a-i–iv of Fig. 2, paying only for what can change the pick.
struct Selection<'q> {
    index: &'q InvertedIndex,
    params: FilterParams,
    /// The unmarked terms, `idf` descending then term id ascending.
    live: Vec<Candidate<'q>>,
}

impl<'q> Selection<'q> {
    fn new(index: &'q InvertedIndex, terms: &'q [QueryTerm], params: FilterParams) -> Self {
        let unknown = |term| Candidate {
            term,
            f_add: 0.0,
            p_t: 0,
            fresh_at: f64::NAN,
            b_t: 0,
        };
        let mut live: Vec<Candidate> = terms.iter().map(unknown).collect();
        live.sort_by(|a, b| tie_break(a.term, b.term));
        Selection {
            index,
            params,
            live,
        }
    }

    /// Picks and unmarks the term with the least `d_t` under `s_max`,
    /// and, when the loop had to see every term, names the rest in the
    /// order it would pick them. `read_since` says whether the query
    /// read a page since the last pick (`true` for the first), i.e.
    /// whether residency can have moved under the `b_t` answers held.
    fn pick<B: QueryBuffer>(
        &mut self,
        buffer: &B,
        s_max: f64,
        read_since: bool,
        stats: &mut EvalStats,
    ) -> IrResult<Pick<'q>> {
        let mut inquired = 0;
        if read_since {
            // One batched inquiry: against a sharded pool a per-term
            // call locks every shard, `resident_pages_many` takes one
            // pass for the whole candidate set. Each term asked about
            // still counts as one inquiry.
            let ids: Vec<TermId> = self.live.iter().map(|c| c.term.term).collect();
            let b_ts = buffer.resident_pages_many(&ids);
            for (c, b_t) in self.live.iter_mut().zip(b_ts) {
                c.b_t = b_t;
            }
            inquired = self.live.len();
            stats.bt_inquiries += inquired as u64;
        }
        // (position in `live`, d_t) of the best so far.
        let mut best: Option<(usize, u32)> = None;
        for (at, c) in self.live.iter_mut().enumerate() {
            if c.fresh_at != s_max {
                let t = c.term;
                c.f_add = self.params.f_add(s_max, t.query_freq, t.idf);
                c.p_t = self.index.conversion().pages_to_process(t.term, c.f_add)?;
                c.fresh_at = s_max;
                stats.threshold_recomputes += 1;
            }
            let d_t = c.p_t.saturating_sub(c.b_t);
            if best.is_none_or(|(_, least)| d_t < least) {
                best = Some((at, d_t));
                if d_t == 0 {
                    break;
                }
            }
        }
        let (at, est_reads) = best.expect("an unmarked term exists in every round");
        let chosen = self.live.remove(at);
        // A pick with d_t = 0 may have stopped the loop early, before
        // the rest were seen; one that must read saw them all, fresh.
        let mut lookahead = Vec::new();
        if est_reads > 0 {
            let mut rest: Vec<(u32, TermId, u32)> = self
                .live
                .iter()
                .map(|c| (c.p_t.saturating_sub(c.b_t), c.term.term, c.p_t))
                .collect();
            // Stable: equal d_t keep `live`'s tie-break order.
            rest.sort_by_key(|&(d_t, ..)| d_t);
            lookahead = rest.into_iter().map(|(_, term, p_t)| (term, p_t)).collect();
        }
        Ok(Pick {
            chosen,
            est_reads,
            inquired,
            lookahead,
        })
    }
}

/// Runs BAF.
pub fn evaluate_baf<B: QueryBuffer>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
) -> IrResult<QueryResult> {
    evaluate_baf_on(index, buffer, query, options, &NoClock)
}

/// [`evaluate_baf`] keeping the per-layer ledger under `clock`.
pub(crate) fn evaluate_baf_on<B: QueryBuffer, C: Clock>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
    clock: &C,
) -> IrResult<QueryResult> {
    let mut watch = Stopwatch::start(clock);
    buffer.begin_query(&query.weights());
    watch.lap(Layer::Policy);
    let mut rounds = Selection::new(index, query.terms(), options.params);
    Accumulators::with_scratch(index.n_docs() as usize, |accs| {
        baf_over(
            index,
            buffer,
            query,
            options,
            accs,
            &mut watch,
            |b, s_max, read, stats| rounds.pick(b, s_max, read, stats),
        )
    })
}

/// Fig. 2 over the caller's (empty) accumulator set, one `pick` a
/// round: `pick(buffer, S_max, read a page since the last pick, stats)`.
/// Each round's pick is selection: one clock read a round, beside a
/// scan's two.
fn baf_over<'q, B: QueryBuffer, C: Clock>(
    index: &InvertedIndex,
    buffer: &mut B,
    query: &'q Query,
    options: EvalOptions,
    accs: &mut Accumulators,
    watch: &mut Stopwatch<'_, C>,
    mut pick: impl FnMut(&B, f64, bool, &mut EvalStats) -> IrResult<Pick<'q>>,
) -> IrResult<QueryResult> {
    // Frequency-sorted lists allow terminating a scan at the first
    // entry below f_add; doc-ordered lists must be scanned fully.
    let early_stop = index.params().ordering == ListOrdering::FrequencySorted;

    let n = query.len();
    let mut s_max = 0.0f64;
    let mut stats = EvalStats::default();
    let mut trace = Vec::with_capacity(n);

    let mut read_since = true;
    for _ in 0..n {
        // Step 3a: select the term with the least d_t.
        let picked = pick(buffer, s_max, read_since, &mut stats)?;
        watch.lap(Layer::Selection);
        let (t, f_add, est_reads) = (picked.chosen.term, picked.chosen.f_add, picked.est_reads);
        if trace.last().and_then(|row: &TermTraceRow| row.lookahead) == Some(t.term) {
            stats.lookahead_confirmed += 1;
        }

        // Step 3b: fresh thresholds (the pick's f_add was computed
        // against the current S_max).
        let f_ins = options.params.f_ins(s_max, t.query_freq, t.idf);
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
            inquired: picked.inquired as u32,
            lookahead: None,
        };
        // Step 3c: f_max skip.
        if f64::from(t.f_max) <= f_add {
            stats.terms_skipped += 1;
            if options.baf_force_first_page && t.n_pages > 0 {
                touch_first_page(buffer, t, &mut stats, &mut row, watch)?;
            }
        } else {
            row.lookahead = picked.lookahead.first().map(|&(term, _)| term);
            // The pick's `p_t` is exactly the page count a
            // threshold-f_add scan processes — it sizes both the d_t
            // estimate and the term's read plan.
            let out = scan_term(
                buffer,
                accs,
                &mut s_max,
                t,
                f_ins,
                f_add,
                early_stop,
                picked.chosen.p_t,
                picked.lookahead,
                watch,
            )?;
            stats.record_scan(&out);
            // The estimator's quality, measured: what d_t promised vs
            // what the scan actually pulled from disk.
            stats.baf_estimated_reads += u64::from(est_reads);
            stats.baf_estimate_abs_error += u64::from(est_reads.abs_diff(out.pages_read));
            row.pages_processed = out.pages_processed;
            row.pages_read = out.pages_read;
        }
        read_since = row.pages_read > 0;
        trace.push(row);
    }

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
    use crate::eval::{evaluate, evaluate_df, Algorithm};
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::PolicyKind;
    use ir_types::IndexParams;
    use proptest::TestRng;

    /// Fig. 2's round as the paper writes it, the oracle the lazy
    /// [`Selection`] is held to: every round asks `b_t` of every
    /// unmarked term, refreshes every unmarked term's `(f_add, p_t)`
    /// whenever `S_max` moved since the previous round, and compares
    /// all of them in query (term-id) order with the tie-break spelled
    /// out.
    struct EagerSelection<'q> {
        index: &'q InvertedIndex,
        params: FilterParams,
        terms: &'q [QueryTerm],
        done: Vec<bool>,
        f_add: Vec<f64>,
        p_t: Vec<u32>,
        valid_for: f64,
    }

    impl<'q> EagerSelection<'q> {
        fn new(index: &'q InvertedIndex, terms: &'q [QueryTerm], params: FilterParams) -> Self {
            EagerSelection {
                index,
                params,
                terms,
                done: vec![false; terms.len()],
                f_add: vec![0.0; terms.len()],
                p_t: vec![0; terms.len()],
                // Forces a recompute on the first round (S_max starts at 0).
                valid_for: f64::NEG_INFINITY,
            }
        }

        fn pick<B: QueryBuffer>(
            &mut self,
            buffer: &B,
            s_max: f64,
            stats: &mut EvalStats,
        ) -> IrResult<Pick<'q>> {
            let terms = self.terms;
            let live: Vec<usize> = (0..terms.len()).filter(|&i| !self.done[i]).collect();
            if s_max != self.valid_for {
                for &i in &live {
                    let t = &terms[i];
                    self.f_add[i] = self.params.f_add(s_max, t.query_freq, t.idf);
                    self.p_t[i] = self
                        .index
                        .conversion()
                        .pages_to_process(t.term, self.f_add[i])?;
                    stats.threshold_recomputes += 1;
                }
                self.valid_for = s_max;
            }
            let ids: Vec<TermId> = live.iter().map(|&i| terms[i].term).collect();
            let b_ts = buffer.resident_pages_many(&ids);
            stats.bt_inquiries += live.len() as u64;
            // The best `(position in live, d_t)` among the positions
            // `consider` lets through.
            let d = |k: usize| self.p_t[live[k]].saturating_sub(b_ts[k]);
            let best_of = |consider: &dyn Fn(usize) -> bool| {
                let mut best: Option<(usize, u32)> = None;
                for k in (0..live.len()).filter(|&k| consider(k)) {
                    let (t, d_t) = (&terms[live[k]], d(k));
                    let better = match best {
                        None => true,
                        Some((at, best_d)) => {
                            let held = &terms[live[at]];
                            d_t < best_d
                                || (d_t == best_d
                                    && (t.idf > held.idf
                                        || (t.idf == held.idf && t.term < held.term)))
                        }
                    };
                    if better {
                        best = Some((k, d_t));
                    }
                }
                best
            };
            let (k, est_reads) =
                best_of(&|_| true).expect("an unmarked term exists in every round");
            // A pick that must read names the rest, best first, each
            // found the way the pick was.
            let mut lookahead = Vec::new();
            let mut named = vec![k];
            while est_reads > 0 && named.len() < live.len() {
                let (r, _) = best_of(&|other| !named.contains(&other)).expect("one is left");
                named.push(r);
                lookahead.push((terms[live[r]].term, self.p_t[live[r]]));
            }
            let i = live[k];
            self.done[i] = true;
            Ok(Pick {
                chosen: Candidate {
                    term: &terms[i],
                    f_add: self.f_add[i],
                    p_t: self.p_t[i],
                    fresh_at: s_max,
                    b_t: b_ts[k],
                },
                est_reads,
                inquired: live.len(),
                lookahead,
            })
        }
    }

    /// Each round's whole lookahead, as the round named it.
    type Named = Vec<Vec<(TermId, u32)>>;

    /// Fig. 2 over `pick`'s rounds, logging each round's lookahead.
    fn evaluate_logged<'q, B: QueryBuffer>(
        index: &InvertedIndex,
        buffer: &mut B,
        query: &'q Query,
        options: EvalOptions,
        mut pick: impl FnMut(&B, f64, bool, &mut EvalStats) -> IrResult<Pick<'q>>,
    ) -> IrResult<(QueryResult, Named)> {
        buffer.begin_query(&query.weights());
        let mut named = Vec::new();
        let mut watch = Stopwatch::start(&NoClock);
        let result = Accumulators::with_scratch(index.n_docs() as usize, |accs| {
            baf_over(
                index,
                buffer,
                query,
                options,
                accs,
                &mut watch,
                |b, s_max, read, stats| {
                    let picked = pick(b, s_max, read, stats)?;
                    named.push(picked.lookahead.clone());
                    Ok(picked)
                },
            )
        })?;
        Ok((result, named))
    }

    /// 48 terms over 400 documents, four entries a page: term `t` is in
    /// every `1 + t/3`-th document, so lists run from 100 pages down to
    /// seven, three terms share each length (ties in `d_t`) and
    /// frequencies of 1–9 leave the thresholds something to cut.
    fn wide_index() -> InvertedIndex {
        let names: Vec<String> = (0..48).map(|t| format!("w{t}")).collect();
        let mut rng = TestRng::from_name("wide_index");
        let mut b = IndexBuilder::new();
        for d in 0..400u64 {
            let mut doc: Vec<&str> = vec!["filler"];
            for (t, name) in names.iter().enumerate() {
                if d % (1 + t as u64 / 3) == 0 {
                    let f = 1 + rng.below(3) * rng.below(4);
                    doc.extend(std::iter::repeat_n(name.as_str(), f as usize));
                }
            }
            b.add_document(doc);
        }
        b.build(BuildOptions {
            params: IndexParams::with_page_size(4),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    /// A refinement sequence: 6–14 of the 48 terms, then seven steps
    /// that each add, drop or re-weight up to three.
    fn refinement_sequence(idx: &InvertedIndex, rng: &mut TestRng) -> Vec<Query> {
        let mut freqs = [0u32; 48];
        (0..8)
            .map(|step| {
                let changes = if step == 0 {
                    6 + rng.below(9)
                } else {
                    1 + rng.below(3)
                };
                for _ in 0..changes {
                    freqs[rng.below(48) as usize] = rng.below(4) as u32;
                }
                let named: Vec<(String, u32)> = (0..48)
                    .filter(|&t| freqs[t] > 0)
                    .map(|t| (format!("w{t}"), freqs[t]))
                    .collect();
                Query::from_named(idx, &named)
            })
            .collect()
    }

    /// Runs one seeded refinement sequence through the lazy round and
    /// the eager oracle on twin pools and holds them to the same picks,
    /// estimates, reads and answers; returns how many inquiries and
    /// recomputes (lazy, eager) it took.
    fn run_selection_differential(idx: &InvertedIndex, seed: u64) -> [u64; 4] {
        let mut rng = TestRng::from_name(&format!("baf selection {seed}"));
        let queries = refinement_sequence(idx, &mut rng);
        let capacity = [idx.total_pages(), idx.total_pages() / 12][(seed % 2) as usize];
        let policy = [PolicyKind::Lru, PolicyKind::Rap][(seed / 2 % 2) as usize];
        let options = EvalOptions {
            params: [FilterParams::new(1.0, 0.1), FilterParams::PERSIN][(seed / 4 % 2) as usize],
            baf_force_first_page: seed / 8 % 2 == 1,
            ..EvalOptions::default()
        };
        let mut lazy_pool = idx.make_buffer(capacity, policy).unwrap();
        let mut eager_pool = idx.make_buffer(capacity, policy).unwrap();
        let mut work = [0u64; 4];
        for (step, q) in queries.iter().enumerate() {
            let ctx = format!("seed {seed}, step {step} ({policy}, {capacity} frames)");
            let mut lazy_round = Selection::new(idx, q.terms(), options.params);
            let (lazy, lazy_named) =
                evaluate_logged(idx, &mut lazy_pool, q, options, |b, s_max, read, stats| {
                    lazy_round.pick(b, s_max, read, stats)
                })
                .unwrap();
            let mut eager_round = EagerSelection::new(idx, q.terms(), options.params);
            let (eager, eager_named) =
                evaluate_logged(idx, &mut eager_pool, q, options, |b, s_max, _, stats| {
                    eager_round.pick(b, s_max, stats)
                })
                .unwrap();
            assert_eq!(lazy_named, eager_named, "{ctx}: lookaheads");
            type Row = (TermId, u32, u32, u32, u64, Option<TermId>);
            let rows = |r: &QueryResult| -> Vec<Row> {
                let row = |t: &TermTraceRow| {
                    let (est, read, processed) = (t.est_reads, t.pages_read, t.pages_processed);
                    (t.term, est, read, processed, t.f_add.to_bits(), t.lookahead)
                };
                r.trace.iter().map(row).collect()
            };
            assert_eq!(rows(&lazy), rows(&eager), "{ctx}: trace");
            assert_eq!(lazy.hits, eager.hits, "{ctx}: hits");
            let (l, e) = (lazy.stats, eager.stats);
            let inquired =
                |r: &QueryResult| -> u64 { r.trace.iter().map(|t| u64::from(t.inquired)).sum() };
            assert_eq!(
                inquired(&lazy),
                l.bt_inquiries,
                "{ctx}: lazy rows' inquiries"
            );
            assert_eq!(
                inquired(&eager),
                e.bt_inquiries,
                "{ctx}: eager rows' inquiries"
            );
            assert!(l.bt_inquiries <= e.bt_inquiries, "{ctx}: inquiries");
            assert!(
                l.threshold_recomputes <= e.threshold_recomputes,
                "{ctx}: recomputes"
            );
            let work_free = EvalStats {
                bt_inquiries: 0,
                threshold_recomputes: 0,
                ..l
            };
            assert_eq!(
                work_free,
                EvalStats {
                    bt_inquiries: 0,
                    threshold_recomputes: 0,
                    ..e
                },
                "{ctx}: stats"
            );
            let asked = [
                l.bt_inquiries,
                e.bt_inquiries,
                l.threshold_recomputes,
                e.threshold_recomputes,
            ];
            for (total, n) in work.iter_mut().zip(asked) {
                *total += n;
            }
        }
        assert_eq!(lazy_pool.stats(), eager_pool.stats(), "seed {seed}: pool");
        work
    }

    /// Same terms in the same order, same estimates, whole lookahead
    /// lists, pages, hits and pool counters as the eager round, for
    /// less asking. Planted and caught, with the first failing seed:
    /// `<=` for `<` (0), no re-ask after a round that read (5), one
    /// `S_max` stamp shared by all terms (0), terms left in term-id
    /// order (0), equal `d_t` named in reverse tie-break order (0), a
    /// lookahead named after a `d_t = 0` pick stopped the loop early
    /// (0).
    #[test]
    fn lazy_selection_matches_the_eager_round() {
        let idx = wide_index();
        let mut work = [0u64; 4];
        for seed in 0..64 {
            for (total, n) in work.iter_mut().zip(run_selection_differential(&idx, seed)) {
                *total += n;
            }
        }
        let [lazy_asked, eager_asked, lazy_recomputed, eager_recomputed] = work;
        assert!(
            lazy_asked * 2 < eager_asked,
            "{lazy_asked} vs {eager_asked}"
        );
        assert!(
            lazy_recomputed * 2 < eager_recomputed,
            "{lazy_recomputed} vs {eager_recomputed}"
        );
    }

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
        // A cold query reads in every round, so every round asks again:
        // the paper's T(T+1)/2 with T = 3.
        assert_eq!(r.stats.bt_inquiries, 6);
    }

    /// Each round's `b_t` questions land in its trace row: the rows sum
    /// to `bt_inquiries`, the first round asks about every term, a round
    /// after one that read nothing asks nobody, and DF asks nothing.
    #[test]
    fn trace_rows_carry_each_rounds_inquiries() {
        let idx = index();
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let opts = EvalOptions {
            params: FilterParams::OFF,
            ..EvalOptions::default()
        };
        let inquired =
            |r: &QueryResult| -> Vec<u32> { r.trace.iter().map(|t| t.inquired).collect() };
        let mut buf = idx.make_buffer(32, PolicyKind::Rap).unwrap();
        let cold = evaluate_baf(&idx, &mut buf, &q, opts).unwrap();
        assert_eq!(
            inquired(&cold),
            [3, 2, 1],
            "a cold round reads, so the next asks again"
        );
        assert_eq!(cold.stats.bt_inquiries, 6);
        let warm = evaluate_baf(&idx, &mut buf, &q, opts).unwrap();
        assert_eq!(
            inquired(&warm),
            [3, 0, 0],
            "rounds of hits reuse the answers"
        );
        assert_eq!(warm.stats.bt_inquiries, 3);
        let df = evaluate_df(&idx, &mut buf, &q, opts).unwrap();
        assert_eq!(inquired(&df), [0, 0, 0]);
    }

    /// A round that must read names its runner-up as the head of the
    /// plan's lookahead; the next round picking that term confirms the
    /// guess. A round whose pick reads nothing, and the last round,
    /// name none.
    #[test]
    fn trace_rows_name_the_runner_up_as_lookahead() {
        let idx = index();
        let q = query(&idx, &[("commn", 1), ("rare", 1), ("mid", 1)]);
        let opts = EvalOptions {
            params: FilterParams::OFF,
            ..EvalOptions::default()
        };
        let mut buf = idx.make_buffer(32, PolicyKind::Rap).unwrap();
        let cold = evaluate_baf(&idx, &mut buf, &q, opts).unwrap();
        let order = cold.processing_order();
        let lookaheads: Vec<Option<TermId>> = cold.trace.iter().map(|t| t.lookahead).collect();
        assert_eq!(lookaheads, [Some(order[1]), Some(order[2]), None]);
        assert_eq!(cold.stats.lookahead_confirmed, 2);
        let warm = evaluate_baf(&idx, &mut buf, &q, opts).unwrap();
        assert!(warm.trace.iter().all(|t| t.lookahead.is_none()));
        assert_eq!(warm.stats.lookahead_confirmed, 0);
        let df = evaluate_df(&idx, &mut buf, &q, opts).unwrap();
        assert!(df.trace.iter().all(|t| t.lookahead.is_none()));
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
