//! The shared inner loop: scanning one term's inverted list under the
//! filtering thresholds (step 4(c) of Fig. 1 == step 3(d) of Fig. 2).

use super::clock::{Clock, Layer, Stopwatch};
use crate::accumulator::Accumulators;
use crate::query::QueryTerm;
use crate::stats::EvalStats;
use ir_storage::{FetchOutcome, Page, QueryBuffer};
use ir_types::{IrResult, ReadPlan, TermId};
use std::cell::RefCell;

thread_local! {
    /// Reusable batch-result scratch: `scan_term` runs once per term per
    /// query on every session thread, and a fresh `Vec<(Page,
    /// FetchOutcome)>` per scan was measurable allocator traffic under
    /// the throughput bench. The vector is taken for the duration of
    /// one fetch and handed back cleared (dropping its page refs), so
    /// its capacity — not its contents — survives between scans.
    static FETCH_SCRATCH: RefCell<Vec<(Page, FetchOutcome)>> = const { RefCell::new(Vec::new()) };
}

/// Fetches `plan` into the thread's scratch vector and hands the served
/// pages to `f` — the one place the evaluators call the buffer's fetch,
/// and so the one place the ledger's pool layer closes.
pub(crate) fn with_fetched<B: QueryBuffer, C: Clock, R>(
    buffer: &mut B,
    plan: &ReadPlan,
    watch: &mut Stopwatch<'_, C>,
    f: impl FnOnce(&[(Page, FetchOutcome)]) -> R,
) -> IrResult<R> {
    let mut fetched = FETCH_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    let served = buffer.fetch_batch_into(plan, &mut fetched);
    watch.lap(Layer::Pool);
    let out = served.map(|()| f(&fetched));
    fetched.clear();
    FETCH_SCRATCH.with(|c| *c.borrow_mut() = fetched);
    out
}

/// What one term scan did.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ScanOutcome {
    /// Pages of the list examined.
    pub pages_processed: u32,
    /// Of those, pages that came from disk.
    pub pages_read: u32,
    /// Entries examined (including the terminating one).
    pub entries: u64,
    /// The frequency-ordered early stop fired: nothing further in the
    /// list can pass `f_add`.
    pub stopped: bool,
}

impl EvalStats {
    /// Folds one scanned term into the query's counters.
    pub(crate) fn record_scan(&mut self, out: &ScanOutcome) {
        self.batches_issued += 1;
        self.terms_scanned += 1;
        self.pages_processed += u64::from(out.pages_processed);
        self.disk_reads += u64::from(out.pages_read);
        self.buffer_hits += u64::from(out.pages_processed - out.pages_read);
        self.entries_processed += out.entries;
    }
}

/// The posting-processing core: folds one completed batch into `accs` /
/// `s_max` and reports what it did.
fn process_fetched(
    fetched: &[(Page, FetchOutcome)],
    accs: &mut Accumulators,
    s_max: &mut f64,
    term: &QueryTerm,
    f_ins: f64,
    f_add: f64,
    early_stop: bool,
) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let w_q = term.weight();
    for (i, (page, how)) in fetched.iter().enumerate() {
        out.pages_processed += 1;
        out.pages_read += u32::from(*how == FetchOutcome::Miss);
        for posting in page.postings() {
            out.entries += 1;
            let f = f64::from(posting.freq);
            if f <= f_add {
                if early_stop {
                    // Frequency ordering: nothing further in this list
                    // can pass the addition threshold — and the plan
                    // was sized so this entry sits on its last page.
                    debug_assert!(i + 1 == fetched.len(), "plan over-covered the scan");
                    out.stopped = true;
                    return out;
                }
                // Doc ordering: the entry is filtered, but later ones
                // may still pass — keep scanning (footnote 14).
                continue;
            }
            // Left to right, `(f · idf) · w_q`: hoisting `idf · w_q`
            // out of the loop rounds differently and moves score bits,
            // answer digests and possibly a golden.
            let partial = f64::from(posting.freq) * term.idf * w_q;
            if f > f_ins {
                let v = accs.upsert(posting.doc, partial);
                if v > *s_max {
                    *s_max = v;
                }
            } else if let Some(v) = accs.add_existing(posting.doc, partial) {
                if v > *s_max {
                    *s_max = v;
                }
            }
        }
    }
    out
}

/// Scans `term`'s list in frequency order, accumulating partial
/// similarities under `f_ins` / `f_add`, terminating at the first entry
/// with `f_{d,t} ≤ f_add`. Updates `s_max` whenever an accumulator is
/// touched (step 4(c)v).
///
/// The term is issued as one [`ReadPlan`] covering pages
/// `[0, plan_pages)` in order, fetched and then processed. The caller
/// sizes the plan from the conversion table
/// (§3.2.2), which is exact: under frequency ordering the page holding
/// the first entry with `f ≤ f_add` is the plan's last page; under doc
/// ordering the plan covers the full list. Batching therefore fetches
/// exactly the pages a page-at-a-time loop would, in the same order —
/// on a lock-striped pool too, which cuts the plan at its own shard
/// boundaries.
///
/// Each plan entry reports whether it was served from the pool's frames
/// or from disk — so the counts stay per-query even when other sessions
/// drive the same pool concurrently (pool-wide miss deltas don't).
///
/// `lookahead`, `(term, n_pages)` pairs, are the list prefixes the
/// caller expects to scan next, in that order; the plan carries them as
/// stage-only, for a store that can read them while this scan's own
/// reads are in flight.
///
/// `watch` closes the pool layer after the fetch and the scoring after
/// the postings: two clock reads a scanned list.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_term<B: QueryBuffer, C: Clock>(
    buffer: &mut B,
    accs: &mut Accumulators,
    s_max: &mut f64,
    term: &QueryTerm,
    f_ins: f64,
    f_add: f64,
    early_stop: bool,
    plan_pages: u32,
    lookahead: Vec<(TermId, u32)>,
    watch: &mut Stopwatch<'_, C>,
) -> IrResult<ScanOutcome> {
    let plan = ReadPlan::for_term_pages(term.term, plan_pages).with_lookahead(lookahead);
    let out = with_fetched(buffer, &plan, watch, |fetched| {
        process_fetched(fetched, accs, s_max, term, f_ins, f_add, early_stop)
    });
    watch.lap(Layer::Scoring);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::clock::NoClock;

    /// [`scan_term`] with early stopping, no lookahead and no ledger:
    /// `thresholds` is `(f_ins, f_add)`.
    fn scan<B: QueryBuffer>(
        buffer: &mut B,
        accs: &mut Accumulators,
        s_max: &mut f64,
        term: &QueryTerm,
        (f_ins, f_add): (f64, f64),
        plan_pages: u32,
    ) -> ScanOutcome {
        let mut watch = Stopwatch::start(&NoClock);
        scan_term(
            buffer,
            accs,
            s_max,
            term,
            f_ins,
            f_add,
            true,
            plan_pages,
            Vec::new(),
            &mut watch,
        )
        .unwrap()
    }
    use ir_storage::{BufferManager, DiskSim, Page, PolicyKind};
    use ir_types::{DocId, PageId, Posting, TermId};

    /// One term, postings (doc, freq) frequency-sorted, `page_size`
    /// entries per page, idf 2.0.
    fn setup(entries: &[(u32, u32)], page_size: usize) -> (BufferManager<DiskSim>, QueryTerm) {
        let postings: Vec<Posting> = entries.iter().map(|&(d, f)| Posting::new(d, f)).collect();
        assert!(ir_types::is_frequency_sorted(&postings));
        let idf = 2.0;
        let pages: Vec<Page> = postings
            .chunks(page_size)
            .enumerate()
            .map(|(i, c)| Page::new(PageId::new(TermId(0), i as u32), c.to_vec().into(), idf))
            .collect();
        let n_pages = pages.len() as u32;
        let f_max = postings.first().map_or(0, |p| p.freq);
        let disk = DiskSim::new(vec![pages]);
        let buffer = BufferManager::new(disk, 64, PolicyKind::Lru).unwrap();
        let term = QueryTerm {
            term: TermId(0),
            query_freq: 1,
            idf,
            f_max,
            n_pages,
        };
        (buffer, term)
    }

    #[test]
    fn zero_thresholds_process_everything() {
        let (mut buf, term) = setup(&[(0, 5), (1, 3), (2, 1), (3, 1)], 2);
        let mut accs = Accumulators::new();
        let mut s_max = 0.0;
        let out = scan(&mut buf, &mut accs, &mut s_max, &term, (0.0, 0.0), 2);
        assert_eq!(out.pages_processed, 2);
        assert_eq!(out.pages_read, 2);
        assert_eq!(out.entries, 4);
        assert_eq!(accs.len(), 4);
        // Highest partial: f=5 → 5·idf · 1·idf = 5·4 = 20.
        assert!((s_max - 20.0).abs() < 1e-12);
    }

    #[test]
    fn f_add_terminates_scan_on_failing_entry() {
        let (mut buf, term) = setup(&[(0, 5), (1, 3), (2, 1), (3, 1)], 2);
        let mut accs = Accumulators::new();
        let mut s_max = 0.0;
        // f_add = 2: f=1 fails; the failing entry is on page 1, so both
        // its page and page 0 are processed, and entries = 3 (5, 3, 1).
        let out = scan(&mut buf, &mut accs, &mut s_max, &term, (0.0, 2.0), 2);
        assert_eq!(out.pages_processed, 2);
        assert_eq!(out.entries, 3);
        assert_eq!(accs.len(), 2);
    }

    #[test]
    fn f_add_within_first_page_stops_there() {
        let (mut buf, term) = setup(&[(0, 5), (1, 1), (2, 1), (3, 1)], 2);
        let mut accs = Accumulators::new();
        let mut s_max = 0.0;
        let out = scan(&mut buf, &mut accs, &mut s_max, &term, (0.0, 1.0), 1);
        assert_eq!(out.pages_processed, 1, "page 1 must not be fetched");
        assert_eq!(out.entries, 2);
        assert_eq!(accs.len(), 1);
    }

    #[test]
    fn f_ins_gates_new_accumulators_but_not_additions() {
        let (mut buf, term) = setup(&[(0, 5), (1, 3), (2, 2)], 4);
        let mut accs = Accumulators::new();
        accs.upsert(DocId(2), 1.0); // doc 2 already a candidate
        let mut s_max = 0.0;
        // f_ins = 4: only f=5 creates; f=3 (doc 1) is filtered out
        // entirely; f=2 (doc 2) passes f_add and doc 2 exists → added.
        let out = scan(&mut buf, &mut accs, &mut s_max, &term, (4.0, 1.0), 1);
        assert_eq!(out.entries, 3);
        assert_eq!(accs.len(), 2);
        assert!(accs.contains(DocId(0)));
        assert!(!accs.contains(DocId(1)));
        // doc 2: 1.0 + 2·2·1·2 = 9.
        let d2 = accs.iter().find(|(d, _)| *d == DocId(2)).unwrap().1;
        assert!((d2 - 9.0).abs() < 1e-12);
    }

    #[test]
    fn warm_buffer_reads_nothing() {
        let (mut buf, term) = setup(&[(0, 5), (1, 3), (2, 1), (3, 1)], 2);
        let mut accs = Accumulators::new();
        let mut s_max = 0.0;
        scan(&mut buf, &mut accs, &mut s_max, &term, (0.0, 0.0), 2);
        let mut accs2 = Accumulators::new();
        let mut s2 = 0.0;
        let out = scan(&mut buf, &mut accs2, &mut s2, &term, (0.0, 0.0), 2);
        assert_eq!(out.pages_processed, 2);
        assert_eq!(out.pages_read, 0, "everything was resident");
    }

    #[test]
    fn one_scan_issues_one_batch_of_plan_size() {
        let (mut buf, term) = setup(&[(0, 5), (1, 3), (2, 1), (3, 1)], 2);
        let mut accs = Accumulators::new();
        let mut s_max = 0.0;
        scan(&mut buf, &mut accs, &mut s_max, &term, (0.0, 0.0), 2);
        let dump = buf.metrics().dump();
        assert_eq!(dump.counter("buffer.batches"), Some(1));
        let h = dump
            .histograms
            .iter()
            .find(|h| h.name == "buffer.batch_pages")
            .unwrap();
        assert_eq!((h.count, h.sum), (1, 2), "one plan covering two pages");
    }

    #[test]
    fn sharded_scan_is_one_plan_served_in_page_order() {
        use std::sync::Arc;

        // 24 postings, 2 per page → 12 pages, three 4-page routing
        // chunks: the pool, not the scan, cuts the plan at them.
        let postings: Vec<Posting> = (0..24).map(|d| Posting::new(d, 30 - d)).collect();
        let pages: Vec<Page> = postings
            .chunks(2)
            .enumerate()
            .map(|(i, c)| Page::new(PageId::new(TermId(0), i as u32), c.to_vec().into(), 2.0))
            .collect();
        let n_pages = pages.len() as u32;
        let disk = Arc::new(DiskSim::new(vec![pages]));
        let mut pool =
            BufferManager::with_chunk_pages(Arc::clone(&disk), 32, PolicyKind::Lru, 4, 4).unwrap();
        let term = QueryTerm {
            term: TermId(0),
            query_freq: 1,
            idf: 2.0,
            f_max: 30,
            n_pages,
        };
        let mut accs = Accumulators::new();
        let mut s_max = 0.0;
        let out = scan(&mut pool, &mut accs, &mut s_max, &term, (0.0, 0.0), n_pages);
        assert_eq!(out.pages_processed, n_pages, "every page processed once");
        assert_eq!((out.pages_read, out.entries), (n_pages, 24));
        assert_eq!(accs.len(), 24);
        let reads = disk.stats();
        assert_eq!(
            (reads.reads, reads.sequential_reads),
            (u64::from(n_pages), u64::from(n_pages) - 1),
            "read front to back, whichever shards the chunks hash to"
        );
        let shards: std::collections::HashSet<usize> = (0..n_pages)
            .map(|p| pool.shard_of(PageId::new(TermId(0), p)))
            .collect();
        assert_eq!(
            pool.metrics().batch_splits.get(),
            u64::from(shards.len() > 1),
            "one plan: cut once if its chunks span shards, never more"
        );
    }

    #[test]
    fn smax_only_grows() {
        let (mut buf, term) = setup(&[(0, 5), (1, 3)], 4);
        let mut accs = Accumulators::new();
        let mut s_max = 1000.0;
        scan(&mut buf, &mut accs, &mut s_max, &term, (0.0, 0.0), 1);
        assert_eq!(s_max, 1000.0);
    }
}
