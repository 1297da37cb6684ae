//! The simulated disk: one "file" of pages per inverted list, with
//! fetch counting.
//!
//! The paper's experiments run on the in-memory simulator of
//! [FJK96, DFJ⁺96]; the number of page reads issued to the disk layer
//! *is* the performance metric (§4.1). [`DiskSim`] therefore keeps every
//! page in memory and counts fetches; the only real I/O in the
//! workspace is the page file's (`backend::file`).
//!
//! The pages are held as the index stores only what it cannot derive:
//! every posting in one shared slab, list after list in term-id order,
//! and one 24-byte record per page — where it starts and the header a
//! real page would carry (`max_freq`, `w*_{d,t}`, checksum). A page
//! ends where the next one starts. A read hands out a [`Page`] that
//! shares the slab, so it allocates nothing.

use crate::page::{self, Page};
use ir_types::{sync, IrError, IrResult, PageId, Posting, TermId};
use std::sync::{Arc, Mutex};

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
    /// completions (modeled, or blocked on under a real clock). Zero
    /// for stores that do not model latency.
    fn io_wait_us(&self) -> u64 {
        0
    }
}

/// Cumulative disk counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// Every page's postings, back to back in page order.
    slab: Arc<[Posting]>,
    /// One record per page, term after term.
    records: Vec<PageRecord>,
    /// Term `t`'s pages are `records[term_first[t]..term_first[t + 1]]`.
    term_first: Vec<u32>,
    state: Mutex<DiskState>,
}

/// Where a page starts in the slab, and its header. The page ends where
/// the next record's starts (the last one at the slab's end).
#[derive(Clone, Copy, Debug, Default)]
struct PageRecord {
    start: u32,
    max_freq: u32,
    max_weight: f64,
    checksum: u64,
}

impl PageRecord {
    fn of(page: &Page, start: u32) -> Self {
        PageRecord {
            start,
            max_freq: page.max_freq(),
            max_weight: page.max_weight(),
            checksum: page.checksum(),
        }
    }
}

#[derive(Debug, Default)]
struct DiskState {
    stats: DiskStats,
    /// Head position: the last page fetched, for the
    /// sequential-vs-random classification.
    last: Option<PageId>,
}

impl DiskSim {
    /// Builds a store from per-term page vectors (index = term id) by
    /// packing their postings into one slab. Each page's stored
    /// metadata is kept as it is, so a read returns the page given here
    /// field for field, torn or not.
    ///
    /// # Panics
    /// Panics if the pages hold more than `u32::MAX` postings.
    pub fn new(lists: Vec<Vec<Page>>) -> Self {
        let slab: Arc<[Posting]> = lists
            .iter()
            .flatten()
            .flat_map(|page| page.postings().iter().copied())
            .collect();
        let mut records = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let mut term_first = Vec::with_capacity(lists.len() + 1);
        let mut start = 0u32;
        for list in &lists {
            term_first.push(records.len() as u32);
            for page in list {
                records.push(PageRecord::of(page, start));
                start = u32::try_from(page.len())
                    .ok()
                    .and_then(|len| start.checked_add(len))
                    .expect("a store holds at most u32::MAX postings");
            }
        }
        term_first.push(records.len() as u32);
        DiskSim::from_records(slab, records, term_first)
    }

    /// A store over `slab`, which holds every inverted list back to
    /// back in term-id order: term `t`'s list is
    /// `slab[list_starts[t]..list_starts[t + 1]]`, and `idf` gives its
    /// `idf_t`. Each list is cut into pages of `page_size` postings (the
    /// last may be shorter), whose metadata is computed exactly as
    /// [`Page::new`] computes it, over term ranges on one part per core
    /// (`ir_types::parts`).
    ///
    /// # Panics
    /// Panics if `page_size` is zero, the slab holds more than
    /// `u32::MAX` postings, or the lists do not tile the slab.
    pub fn from_slab(
        slab: Arc<[Posting]>,
        list_starts: &[u32],
        idf: impl Fn(TermId) -> f64 + Sync,
        page_size: usize,
    ) -> Self {
        DiskSim::from_slab_in(
            slab,
            list_starts,
            idf,
            page_size,
            ir_types::parts::available(),
        )
    }

    /// [`from_slab`](Self::from_slab) split into `parts` parts.
    pub(crate) fn from_slab_in(
        slab: Arc<[Posting]>,
        list_starts: &[u32],
        idf: impl Fn(TermId) -> f64 + Sync,
        page_size: usize,
        parts: usize,
    ) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        let total = u32::try_from(slab.len()).expect("a store holds at most u32::MAX postings");
        let tiles = list_starts.first() == Some(&0)
            && list_starts.last() == Some(&total)
            && list_starts.windows(2).all(|w| w[0] <= w[1]);
        assert!(tiles, "the lists must tile the slab");
        let page_len = u32::try_from(page_size).unwrap_or(u32::MAX);
        let mut term_first = Vec::with_capacity(list_starts.len());
        term_first.push(0u32);
        for w in list_starts.windows(2) {
            let pages = (w[1] - w[0]).div_ceil(page_len);
            term_first.push(term_first[term_first.len() - 1] + pages);
        }
        let mut records = vec![PageRecord::default(); term_first[term_first.len() - 1] as usize];
        let n_terms = list_starts.len() - 1;
        let bounds = ir_types::parts::split(n_terms, parts, |t| u64::from(list_starts[t]));
        let pieces =
            ir_types::parts::carve(&mut records, bounds.iter().map(|&t| term_first[t] as usize));
        let work = bounds.windows(2).map(|w| w[0]..w[1]).zip(pieces);
        ir_types::parts::run(work.collect(), |(terms, records)| {
            let mut records = records.iter_mut();
            for t in terms {
                let (start, end) = (list_starts[t], list_starts[t + 1]);
                let idf = idf(TermId(t as u32));
                for (p, page_start) in (start..end).step_by(page_size).enumerate() {
                    let page_end = page_start + (end - page_start).min(page_len);
                    let id = PageId::new(TermId(t as u32), p as u32);
                    let postings = &slab[page_start as usize..page_end as usize];
                    let (max_freq, max_weight, checksum) = page::header(id, postings, idf);
                    *records.next().expect("a record per page") = PageRecord {
                        start: page_start,
                        max_freq,
                        max_weight,
                        checksum,
                    };
                }
            }
        });
        DiskSim::from_records(slab, records, term_first)
    }

    fn from_records(slab: Arc<[Posting]>, records: Vec<PageRecord>, term_first: Vec<u32>) -> Self {
        DiskSim {
            slab,
            records,
            term_first,
            state: Mutex::new(DiskState::default()),
        }
    }

    /// Total pages across all lists.
    pub fn total_pages(&self) -> usize {
        self.records.len()
    }

    /// Bytes of the posting slab.
    pub fn postings_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slab)
    }

    /// Bytes of the page records (24 a page) and of the index from
    /// terms to their first records (4 a term).
    pub fn records_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<PageRecord>()
            + self.term_first.len() * std::mem::size_of::<u32>()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        sync::lock(&self.state).stats
    }

    /// Resets the counters and the modeled head position (not the
    /// data).
    pub fn reset_stats(&self) {
        *sync::lock(&self.state) = DiskState::default();
    }
}

impl PageStore for DiskSim {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        let t = id.term.index();
        let (first, next) = match (self.term_first.get(t), self.term_first.get(t + 1)) {
            (Some(&first), Some(&next)) => (first, next),
            _ => return Err(IrError::UnknownTerm(id.term)),
        };
        if id.page.0 >= next - first {
            return Err(IrError::PageOutOfRange {
                page: id,
                list_len: next - first,
            });
        }
        let at = (first + id.page.0) as usize;
        let record = self.records[at];
        let end = self
            .records
            .get(at + 1)
            .map_or(self.slab.len() as u32, |next| next.start);
        let page = Page::from_parts(
            id,
            Arc::clone(&self.slab),
            record.start,
            end,
            record.max_freq,
            record.max_weight,
            record.checksum,
        );
        let mut state = sync::lock(&self.state);
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
        Ok(page)
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
            sync::lock(&self.calls).clone()
        }
    }

    impl<S: PageStore> PageStore for StagingProbe<S> {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            sync::lock(&self.calls).push(StoreCall::Read(id));
            self.inner.read_page(id)
        }

        fn submit(&self, ids: &[PageId]) {
            sync::lock(&self.calls).push(StoreCall::Submit(ids.to_vec()));
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
    fn packing_reads_back_every_page_field_for_field() {
        // Lists of uneven pages, an empty list in the middle, a page
        // longer than its list's first, and a torn page: packing must
        // keep every page's own bounds and stored header.
        let lens: [&[usize]; 4] = [&[3, 3, 1], &[], &[1, 4, 2], &[5]];
        let mut doc = 0;
        let lists: Vec<Vec<Page>> = lens
            .iter()
            .enumerate()
            .map(|(t, pages)| {
                pages
                    .iter()
                    .enumerate()
                    .map(|(p, &len)| {
                        let postings: Vec<Posting> = (0..len)
                            .map(|i| {
                                doc += 1;
                                Posting::new(doc, (len - i) as u32)
                            })
                            .collect();
                        let page = Page::new(
                            PageId::new(TermId(t as u32), p as u32),
                            postings.into(),
                            0.5 + t as f64,
                        );
                        if (t, p) == (2, 1) {
                            page.into_torn()
                        } else {
                            page
                        }
                    })
                    .collect()
            })
            .collect();
        let d = DiskSim::new(lists.clone());
        assert_eq!(d.total_pages(), 7);
        assert_eq!(d.postings_bytes(), 19 * 8);
        assert_eq!(d.records_bytes(), 7 * 24 + 5 * 4);
        for list in &lists {
            for want in list {
                let got = d.read_page(want.id()).unwrap();
                assert_eq!(got.id(), want.id());
                assert_eq!(got.postings(), want.postings(), "{:?}", want.id());
                assert_eq!(got.max_freq(), want.max_freq());
                assert_eq!(got.max_weight().to_bits(), want.max_weight().to_bits());
                assert_eq!(got.checksum(), want.checksum());
                assert_eq!(got.is_intact(), want.is_intact());
            }
        }
        assert!(!d.read_page(PageId::new(TermId(2), 1)).unwrap().is_intact());
        let reads = d.stats().reads;
        assert_eq!(
            d.read_page(PageId::new(TermId(4), 0)).unwrap_err(),
            IrError::UnknownTerm(TermId(4))
        );
        for (t, len) in [(1, 0), (2, 3)] {
            let id = PageId::new(TermId(t), len);
            assert_eq!(
                d.read_page(id).unwrap_err(),
                IrError::PageOutOfRange {
                    page: id,
                    list_len: len
                }
            );
        }
        assert_eq!(d.stats().reads, reads, "errors do not count as reads");
    }

    #[test]
    fn slab_pages_are_the_same_for_any_part_count() {
        // Lists of 7, 0, 3, 1 and 9 postings cut into pages of 3: what
        // `DiskSim::new` packs from `Page::new` pages, field for field.
        let lens = [7u32, 0, 3, 1, 9];
        let mut list_starts = vec![0u32];
        for len in lens {
            list_starts.push(list_starts[list_starts.len() - 1] + len);
        }
        let slab: Vec<Posting> = (0..list_starts[lens.len()])
            .map(|i| Posting::new(i * 7 % 11, 1 + i % 4))
            .collect();
        let idf = |t: TermId| 0.25 + f64::from(t.0);
        let lists: Vec<Vec<Page>> = list_starts
            .windows(2)
            .enumerate()
            .map(|(t, w)| {
                slab[w[0] as usize..w[1] as usize]
                    .chunks(3)
                    .enumerate()
                    .map(|(p, chunk)| {
                        let id = PageId::new(TermId(t as u32), p as u32);
                        Page::new(id, chunk.into(), idf(id.term))
                    })
                    .collect()
            })
            .collect();
        let want = DiskSim::new(lists.clone());
        for parts in [1, 2, 3, lens.len() + 1] {
            let got = DiskSim::from_slab_in(slab.clone().into(), &list_starts, idf, 3, parts);
            assert_eq!(got.term_first, want.term_first, "{parts} parts");
            assert_eq!(got.total_pages(), want.total_pages());
            for page in lists.iter().flatten() {
                let (a, b) = (got.read_page(page.id()).unwrap(), page);
                assert_eq!(a.postings(), b.postings(), "{:?}, {parts} parts", b.id());
                assert_eq!(a.max_freq(), b.max_freq());
                assert_eq!(a.max_weight().to_bits(), b.max_weight().to_bits());
                assert_eq!(a.checksum(), b.checksum());
            }
        }
    }

    #[test]
    fn reset_clears_counters() {
        let d = tiny_store(1, 1);
        d.read_page(PageId::new(TermId(0), 0)).unwrap();
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn arc_forwards() {
        let by_arc = std::sync::Arc::new(tiny_store(1, 2));
        PageStore::read_page(&by_arc, PageId::new(TermId(0), 0)).unwrap();
        assert_eq!(by_arc.stats().reads, 1);
    }
}
