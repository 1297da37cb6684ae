//! The simulated disk: one "file" of pages per inverted list, with
//! fetch counting.
//!
//! The paper's experiments run on the in-memory simulator of
//! [FJK96, DFJ⁺96]; the number of page reads issued to the disk layer
//! *is* the performance metric (§4.1). [`DiskSim`] therefore keeps every
//! page in memory and counts fetches; there is no real I/O anywhere in
//! the workspace.

use crate::page::Page;
use ir_types::{IrError, IrResult, PageId};
use parking_lot::Mutex;
use serde::Serialize;

/// Abstract source of inverted-list pages, so the buffer manager can be
/// tested against hand-built stores and run against [`DiskSim`].
///
/// Five methods: the demand read, and four with defaults that are exact
/// for a synchronous, untearing, latency-free store.
pub trait PageStore {
    /// Fetches a page. Implementations count this as one disk read.
    fn read_page(&self, id: PageId) -> IrResult<Page>;

    /// Can [`read_page`](Self::read_page) ever deliver a torn page —
    /// one whose content no longer matches its stored checksum? A
    /// buffer pool only pays for checksum verification when this is
    /// `true`; the default (`false`) is right for any store that
    /// serves pages exactly as they were built.
    fn can_tear(&self) -> bool {
        false
    }

    /// Starts asynchronous reads of `ids`, in order, ahead of the
    /// demand reads that will claim them through
    /// [`read_page`](Self::read_page) — the only way a caller reaches
    /// more than one device channel. Errors are *not* reported here,
    /// they surface on the demand read. The default schedules nothing,
    /// which is exact for synchronous stores, where an early read
    /// saves nothing.
    fn submit(&self, _ids: &[PageId]) {}

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
}

impl<S: PageStore + ?Sized> PageStore for &S {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        (**self).read_page(id)
    }

    fn can_tear(&self) -> bool {
        (**self).can_tear()
    }

    fn submit(&self, ids: &[PageId]) {
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

    fn can_tear(&self) -> bool {
        (**self).can_tear()
    }

    fn submit(&self, ids: &[PageId]) {
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
    use ir_types::{Posting, TermId};

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

        fn submit(&self, ids: &[PageId]) {
            self.calls.lock().push(StoreCall::Submit(ids.to_vec()));
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
    fn reset_clears_counters() {
        let d = tiny_store(1, 1);
        d.read_page(PageId::new(TermId(0), 0)).unwrap();
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn ref_and_arc_forward() {
        let d = tiny_store(1, 2);
        let by_ref: &DiskSim = &d;
        by_ref.read_page(PageId::new(TermId(0), 1)).unwrap();
        let by_arc = std::sync::Arc::new(&d);
        by_arc.read_page(PageId::new(TermId(0), 0)).unwrap();
        assert_eq!(d.stats().reads, 2);
    }
}
