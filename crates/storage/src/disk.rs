//! The simulated disk: one "file" of pages per inverted list, with
//! fetch counting.
//!
//! The paper's experiments run on the in-memory simulator of
//! [FJK96, DFJ⁺96]; the number of page reads issued to the disk layer
//! *is* the performance metric (§4.1). [`DiskSim`] therefore keeps every
//! page in memory and counts fetches; there is no real I/O anywhere in
//! the workspace.

use crate::page::Page;
use ir_types::{IrError, IrResult, PageId, ReadHandle, TermId};
use parking_lot::Mutex;
use serde::Serialize;

/// Abstract source of inverted-list pages, so the buffer manager can be
/// tested against hand-built stores and run against [`DiskSim`].
pub trait PageStore {
    /// Fetches a page. Implementations count this as one disk read.
    fn read_page(&self, id: PageId) -> IrResult<Page>;

    /// Number of pages in `term`'s inverted list, or `None` if the term
    /// has no list.
    fn list_len(&self, term: TermId) -> Option<u32>;

    /// Number of inverted lists (terms) in the store.
    fn n_lists(&self) -> usize;

    /// Can [`read_page`](Self::read_page) ever deliver a torn page —
    /// one whose content no longer matches its stored checksum? A
    /// buffer pool only pays for checksum verification when this is
    /// `true`; the default (`false`) is right for any store that
    /// serves pages exactly as they were built.
    fn can_tear(&self) -> bool {
        false
    }

    /// Vectored read: fetches `ids` **in order**, stopping at the first
    /// failure. The result is always a prefix of successes optionally
    /// followed by exactly one `Err`; ids after a failure are never
    /// attempted, so a store's per-read accounting (counters, fault
    /// draws, head position) sees exactly the same sequence as `ids`
    /// issued through [`read_page`](Self::read_page) one at a time.
    ///
    /// The default implementation is that loop; stores with per-call
    /// overhead (a lock, a syscall) may batch internally as long as
    /// they preserve the in-order prefix contract.
    fn read_pages(&self, ids: &[PageId]) -> Vec<IrResult<Page>> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let result = self.read_page(id);
            let failed = result.is_err();
            out.push(result);
            if failed {
                break;
            }
        }
        out
    }

    /// Submission half of a split-phase read: starts asynchronous reads
    /// of `ids`, in order, and returns one [`ReadHandle`] per read the
    /// store actually scheduled, each carrying its completion token
    /// and modeled ready time, so the caller can reason about the
    /// in-flight set. The pages are then demanded through
    /// [`read_page`](Self::read_page) / [`read_pages`](Self::read_pages)
    /// as usual; errors are *not* reported here, they surface on the
    /// demand read. The default schedules nothing, which is exact for
    /// synchronous stores, where an early read saves nothing.
    fn submit(&self, _ids: &[PageId]) -> Vec<ReadHandle> {
        Vec::new()
    }

    /// How many reads this store can usefully keep in flight at once.
    /// 1 (the default) means submission buys nothing: submit followed
    /// by the demand read is event-identical to the demand read alone.
    fn overlap_depth(&self) -> usize {
        1
    }

    /// Cumulative microseconds this store made callers wait for I/O
    /// completions (modeled or slept). Zero for stores that do not
    /// model latency.
    fn io_wait_us(&self) -> u64 {
        0
    }
}

/// Cumulative disk counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DiskStats {
    /// Pages fetched from "disk".
    pub reads: u64,
    /// Posting entries delivered by those fetches (a CPU-cost proxy:
    /// the paper notes decompression + scoring cost is proportional to
    /// the data read, §2.4).
    pub entries_read: u64,
    /// Reads that continued the previous access (same list, next page):
    /// a real disk serves these at transfer rate, without a seek.
    pub sequential_reads: u64,
    /// Reads that jumped lists or skipped pages (seek + rotation).
    pub random_reads: u64,
}

impl DiskStats {
    /// Models wall-clock I/O time under a simple two-parameter disk:
    /// every read transfers one page (`transfer_ms`), non-sequential
    /// reads additionally pay `seek_ms`. With 1998-era defaults
    /// (`seek ≈ 10 ms`, 4 KB transfer ≈ 0.5 ms) this turns the paper's
    /// read counts into the response-time trends its introduction
    /// argues about.
    pub fn modeled_io_ms(&self, seek_ms: f64, transfer_ms: f64) -> f64 {
        self.reads as f64 * transfer_ms + self.random_reads as f64 * seek_ms
    }
}

/// In-memory paged store for a whole inverted index.
///
/// Pages are organized per term ("each inverted list is a separate
/// file", §4.1), addressed by [`PageId`]. Thread-safe: counters are
/// behind a mutex so `read_page` can take `&self` (the buffer manager
/// holds the store immutably).
#[derive(Debug)]
pub struct DiskSim {
    lists: Vec<Vec<Page>>,
    state: Mutex<DiskState>,
}

#[derive(Debug, Default)]
struct DiskState {
    stats: DiskStats,
    /// Head position: the last page fetched, for the
    /// sequential-vs-random classification.
    last: Option<PageId>,
}

impl DiskSim {
    /// Builds a store from per-term page vectors; index = term id.
    pub fn new(lists: Vec<Vec<Page>>) -> Self {
        DiskSim {
            lists,
            state: Mutex::new(DiskState::default()),
        }
    }

    /// Total pages across all lists.
    pub fn total_pages(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        self.state.lock().stats
    }

    /// Resets the counters and the modeled head position (not the
    /// data).
    pub fn reset_stats(&self) {
        *self.state.lock() = DiskState::default();
    }
}

impl PageStore for DiskSim {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        let list = self
            .lists
            .get(id.term.index())
            .ok_or(IrError::UnknownTerm(id.term))?;
        let page = list.get(id.page.index()).ok_or(IrError::PageOutOfRange {
            page: id,
            list_len: list.len() as u32,
        })?;
        let mut state = self.state.lock();
        state.stats.reads += 1;
        state.stats.entries_read += page.len() as u64;
        // Sequential = the next page of the list the head is already on
        // ("each inverted list is a separate file", read front to back).
        let sequential = matches!(
            state.last,
            Some(prev) if prev.term == id.term && prev.page.0 + 1 == id.page.0
        );
        if sequential {
            state.stats.sequential_reads += 1;
        } else {
            state.stats.random_reads += 1;
        }
        state.last = Some(id);
        Ok(page.clone())
    }

    fn list_len(&self, term: TermId) -> Option<u32> {
        self.lists.get(term.index()).map(|l| l.len() as u32)
    }

    fn n_lists(&self) -> usize {
        self.lists.len()
    }

    /// Batched read taking the state lock once for the whole run.
    /// Counter updates and the sequential/random classification happen
    /// per page, in order, so the stats are identical to issuing the
    /// same ids through `read_page` one at a time.
    fn read_pages(&self, ids: &[PageId]) -> Vec<IrResult<Page>> {
        let mut out = Vec::with_capacity(ids.len());
        let mut state = self.state.lock();
        for &id in ids {
            let page = self
                .lists
                .get(id.term.index())
                .ok_or(IrError::UnknownTerm(id.term))
                .and_then(|list| {
                    list.get(id.page.index())
                        .ok_or(IrError::PageOutOfRange {
                            page: id,
                            list_len: list.len() as u32,
                        })
                        .cloned()
                });
            match page {
                Ok(page) => {
                    state.stats.reads += 1;
                    state.stats.entries_read += page.len() as u64;
                    let sequential = matches!(
                        state.last,
                        Some(prev) if prev.term == id.term && prev.page.0 + 1 == id.page.0
                    );
                    if sequential {
                        state.stats.sequential_reads += 1;
                    } else {
                        state.stats.random_reads += 1;
                    }
                    state.last = Some(id);
                    out.push(Ok(page));
                }
                Err(e) => {
                    // Errors bump nothing (matching `read_page`) and
                    // end the batch: prefix-of-successes contract.
                    out.push(Err(e));
                    break;
                }
            }
        }
        out
    }
}

impl<S: PageStore + ?Sized> PageStore for &S {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        (**self).read_page(id)
    }

    fn list_len(&self, term: TermId) -> Option<u32> {
        (**self).list_len(term)
    }

    fn n_lists(&self) -> usize {
        (**self).n_lists()
    }

    fn can_tear(&self) -> bool {
        (**self).can_tear()
    }

    fn read_pages(&self, ids: &[PageId]) -> Vec<IrResult<Page>> {
        (**self).read_pages(ids)
    }

    fn submit(&self, ids: &[PageId]) -> Vec<ReadHandle> {
        (**self).submit(ids)
    }

    fn overlap_depth(&self) -> usize {
        (**self).overlap_depth()
    }

    fn io_wait_us(&self) -> u64 {
        (**self).io_wait_us()
    }
}

impl<S: PageStore + ?Sized> PageStore for std::sync::Arc<S> {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        (**self).read_page(id)
    }

    fn list_len(&self, term: TermId) -> Option<u32> {
        (**self).list_len(term)
    }

    fn n_lists(&self) -> usize {
        (**self).n_lists()
    }

    fn can_tear(&self) -> bool {
        (**self).can_tear()
    }

    fn read_pages(&self, ids: &[PageId]) -> Vec<IrResult<Page>> {
        (**self).read_pages(ids)
    }

    fn submit(&self, ids: &[PageId]) -> Vec<ReadHandle> {
        (**self).submit(ids)
    }

    fn overlap_depth(&self) -> usize {
        (**self).overlap_depth()
    }

    fn io_wait_us(&self) -> u64 {
        (**self).io_wait_us()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ir_types::Posting;

    /// One call a [`StagingProbe`] received.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) enum StoreCall {
        Submit(Vec<PageId>),
        Read(PageId),
    }

    /// Forwards to the inner store but advertises a 2-deep overlap
    /// window and logs every `submit` and `read_page` in call order, so
    /// pool tests can check what was staged, and when, without a
    /// latency model. Nothing is actually scheduled.
    #[derive(Debug)]
    pub(crate) struct StagingProbe<S> {
        pub inner: S,
        calls: Mutex<Vec<StoreCall>>,
    }

    impl<S> StagingProbe<S> {
        pub(crate) fn new(inner: S) -> Self {
            StagingProbe {
                inner,
                calls: Mutex::new(Vec::new()),
            }
        }

        pub(crate) fn calls(&self) -> Vec<StoreCall> {
            self.calls.lock().clone()
        }
    }

    impl<S: PageStore> PageStore for StagingProbe<S> {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            self.calls.lock().push(StoreCall::Read(id));
            self.inner.read_page(id)
        }

        fn list_len(&self, term: TermId) -> Option<u32> {
            self.inner.list_len(term)
        }

        fn n_lists(&self) -> usize {
            self.inner.n_lists()
        }

        fn submit(&self, ids: &[PageId]) -> Vec<ReadHandle> {
            self.calls.lock().push(StoreCall::Submit(ids.to_vec()));
            Vec::new()
        }

        fn overlap_depth(&self) -> usize {
            2
        }
    }

    /// A store with `n_terms` lists of `pages_per_term` single-posting
    /// pages each — shared by several test modules in this crate.
    pub(crate) fn tiny_store(n_terms: u32, pages_per_term: u32) -> DiskSim {
        let lists = (0..n_terms)
            .map(|t| {
                (0..pages_per_term)
                    .map(|p| {
                        let postings: Vec<Posting> = vec![Posting::new(p, pages_per_term - p)];
                        Page::new(PageId::new(TermId(t), p), postings.into(), 1.0)
                    })
                    .collect()
            })
            .collect();
        DiskSim::new(lists)
    }

    #[test]
    fn read_counts_pages_and_entries() {
        let d = tiny_store(2, 3);
        assert_eq!(d.total_pages(), 6);
        d.read_page(PageId::new(TermId(0), 0)).unwrap();
        d.read_page(PageId::new(TermId(1), 2)).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.entries_read, 2);
    }

    #[test]
    fn sequential_and_random_reads_classified() {
        let d = tiny_store(2, 3);
        // First read is always a seek; front-to-back within a list is
        // sequential; switching lists seeks again.
        d.read_page(PageId::new(TermId(0), 0)).unwrap(); // random
        d.read_page(PageId::new(TermId(0), 1)).unwrap(); // sequential
        d.read_page(PageId::new(TermId(0), 2)).unwrap(); // sequential
        d.read_page(PageId::new(TermId(1), 0)).unwrap(); // random
        d.read_page(PageId::new(TermId(1), 2)).unwrap(); // skip: random
        let s = d.stats();
        assert_eq!(s.sequential_reads, 2);
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.sequential_reads + s.random_reads, s.reads);
        // Modeled time: 5 transfers + 3 seeks.
        let ms = s.modeled_io_ms(10.0, 0.5);
        assert!((ms - (5.0 * 0.5 + 3.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn reset_also_clears_head_position() {
        let d = tiny_store(1, 2);
        d.read_page(PageId::new(TermId(0), 0)).unwrap();
        d.reset_stats();
        // Without the reset clearing `last`, this would count as
        // sequential.
        d.read_page(PageId::new(TermId(0), 1)).unwrap();
        assert_eq!(d.stats().random_reads, 1);
    }

    #[test]
    fn unknown_term_and_page_error() {
        let d = tiny_store(1, 1);
        assert!(matches!(
            d.read_page(PageId::new(TermId(5), 0)),
            Err(IrError::UnknownTerm(_))
        ));
        assert!(matches!(
            d.read_page(PageId::new(TermId(0), 9)),
            Err(IrError::PageOutOfRange { .. })
        ));
        // Errors do not bump the counters.
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn list_len_reports() {
        let d = tiny_store(3, 4);
        assert_eq!(d.list_len(TermId(2)), Some(4));
        assert_eq!(d.list_len(TermId(3)), None);
        assert_eq!(d.n_lists(), 3);
    }

    #[test]
    fn reset_clears_counters() {
        let d = tiny_store(1, 1);
        d.read_page(PageId::new(TermId(0), 0)).unwrap();
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn read_pages_matches_sequential_reads() {
        let batched = tiny_store(2, 3);
        let sequential = tiny_store(2, 3);
        let ids = [
            PageId::new(TermId(0), 0),
            PageId::new(TermId(0), 1),
            PageId::new(TermId(1), 0),
            PageId::new(TermId(1), 1),
            PageId::new(TermId(1), 2),
        ];
        let batch = batched.read_pages(&ids);
        assert_eq!(batch.len(), 5);
        for (id, result) in ids.iter().zip(&batch) {
            let single = sequential.read_page(*id).unwrap();
            assert_eq!(result.as_ref().unwrap().id(), single.id());
        }
        // Same reads, same order ⇒ identical classification.
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.stats().sequential_reads, 3);
    }

    #[test]
    fn read_pages_stops_at_first_error() {
        let d = tiny_store(1, 2);
        let ids = [
            PageId::new(TermId(0), 0),
            PageId::new(TermId(0), 9), // out of range
            PageId::new(TermId(0), 1), // never attempted
        ];
        let out = d.read_pages(&ids);
        assert_eq!(out.len(), 2, "prefix of successes plus one error");
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(IrError::PageOutOfRange { .. })));
        // Only the successful read counted.
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn ref_and_arc_forward() {
        let d = tiny_store(1, 2);
        let by_ref: &DiskSim = &d;
        assert_eq!(by_ref.list_len(TermId(0)), Some(2));
        by_ref.read_page(PageId::new(TermId(0), 1)).unwrap();
        assert_eq!(d.stats().reads, 1);
    }
}
