//! On-disk index persistence.
//!
//! The simulator keeps pages in memory (disk *reads* are a counted
//! metric, not real I/O), but a library users can adopt needs to build
//! an index once and reopen it later. An index is saved as a `BFPG`
//! page file (`ir_storage::backend::file`), whose section holds what
//! the pages cannot give:
//!
//! ```text
//! u8 ordering (0 frequency-sorted, 1 doc-id-sorted)
//! per term in id order: v-byte name length, the name's UTF-8 bytes,
//!                       u8 stopped (0 or 1; 1 only on a term with f_t 0)
//! to the end: v-byte id of every document no posting names, ascending
//! ```
//!
//! With that list every document costs the file a byte, a posting's in
//! the payload or its own in the section, so `N` is held to the file's
//! length before anything is sized by it.
//!
//! Everything else is rebuilt at load from what the page file gives:
//! `idf_t` and the page boundaries from `f_t`, `f_max` from the pages'
//! `max_freq`, the conversion table from the decoded lists, and `W_d`
//! summed over the lists in term-id order, the builder's own sum
//! ([`DocStats`]), so it comes back to the bit. A doc-ordered page is
//! stored as a frequency-sorted copy (the only order the codec
//! encodes) and put back in document order at load. The optional
//! forward index and build-time compression statistics are *not*
//! persisted.
//!
//! [`save_page_file`] writes the same file without a section, for the
//! file-backed store; the term names would add about a seventh to its
//! size. Corruption anywhere (truncation, bit flips, a section or page
//! that does not hold together) is reported as
//! [`PersistError::Corrupt`]; loading never panics on hostile input.

use crate::conversion::ConversionTable;
use crate::docstats::DocStats;
use crate::index::InvertedIndex;
use crate::lexicon::Lexicon;
use ir_storage::codec::{get_vbyte, put_vbyte};
use ir_storage::{DiskSim, FileMode, FilePageStore, Page, PageFileWriter, PageStore};
use ir_types::{doc_order, frequency_order, IrError, ListOrdering, PageId, Posting, TermId};
use std::cmp::Ordering;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Errors from saving/loading an index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The file is not a valid index (bad magic/version/checksum or
    /// malformed structure).
    Corrupt(String),
    /// An internal consistency error while reassembling, or an index
    /// the call cannot write.
    Ir(IrError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt index file: {msg}"),
            PersistError::Ir(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<ir_storage::PageFileError> for PersistError {
    fn from(e: ir_storage::PageFileError) -> Self {
        match e {
            ir_storage::PageFileError::Io(io) => PersistError::Io(io),
            ir_storage::PageFileError::Corrupt(msg) => PersistError::Corrupt(msg),
        }
    }
}

impl From<IrError> for PersistError {
    fn from(e: IrError) -> Self {
        PersistError::Ir(e)
    }
}

fn corrupt(msg: String) -> PersistError {
    PersistError::Corrupt(msg)
}

/// Saves the whole index to `path` as a `BFPG` page file with its
/// lexicon section (see the module docs), for [`load_index`] to
/// rebuild. The write is atomic, as [`PageFileWriter`]'s: a save that
/// fails leaves no temp file and whatever was at `path` as it was. The
/// save's own reads are wiped from the simulator's counters afterwards.
pub fn save_index(index: &InvertedIndex, path: &Path) -> Result<(), PersistError> {
    write_pages(index, path, &lexicon_section(index)?)
}

/// Exports the index's inverted-list pages to a `BFPG` page file, the
/// on-disk tier a [`FilePageStore`] serves queries from: same page
/// boundaries, same `idf_t`, same build-time checksums, so a
/// file-backed run demands exactly the pages a `DiskSim`-backed run
/// would. The file has no section, so [`load_index`] refuses it. Pages
/// stream from the simulator through a [`PageFileWriter`], each encoded
/// once and written out, so the export holds no more than a page's
/// bytes. As with [`save_index`], the export's own reads are wiped from
/// the simulator's counters and the write is atomic.
///
/// # Errors
/// [`PersistError::Ir`] for a doc-ordered index, before any file is
/// created: without a section, the file cannot say that its pages are
/// stored out of their order.
pub fn save_page_file(index: &InvertedIndex, path: &Path) -> Result<(), PersistError> {
    if index.params().ordering == ListOrdering::DocIdSorted {
        return Err(PersistError::Ir(IrError::InvalidConfig(
            "a pages-only export cannot record doc-id order; save_index can".into(),
        )));
    }
    write_pages(index, path, &[])
}

/// The ordering byte, each term's name and stopped flag, then the
/// documents no posting names.
fn lexicon_section(index: &InvertedIndex) -> Result<Vec<u8>, PersistError> {
    let doc_ordered = index.params().ordering == ListOrdering::DocIdSorted;
    let mut section = vec![u8::from(doc_ordered)];
    let mut named = vec![false; index.n_docs() as usize];
    for (term, e) in index.lexicon().iter() {
        let name = index.lexicon().name(term).as_bytes();
        put_vbyte(&mut section, name.len() as u64);
        section.extend_from_slice(name);
        section.push(u8::from(e.stopped));
        for p in 0..e.n_pages {
            for x in index.disk().read_page(PageId::new(term, p))?.postings() {
                named[x.doc.index()] = true;
            }
        }
    }
    for d in (0..named.len()).filter(|&d| !named[d]) {
        put_vbyte(&mut section, d as u64);
    }
    Ok(section)
}

/// Streams every page to a page file at `path` with `section`; a
/// doc-ordered page goes as a frequency-sorted copy.
fn write_pages(index: &InvertedIndex, path: &Path, section: &[u8]) -> Result<(), PersistError> {
    let doc_ordered = index.params().ordering == ListOrdering::DocIdSorted;
    let mut file = PageFileWriter::create(
        path,
        index.n_docs(),
        index.params().page_size,
        index.n_terms(),
    )?;
    for (term, e) in index.lexicon().iter() {
        file.push_term(e.n_postings())?;
        for p in 0..e.n_pages {
            let page = index.disk().read_page(PageId::new(term, p))?;
            if doc_ordered {
                let mut postings = page.postings().to_vec();
                postings.sort_unstable_by(frequency_order);
                file.push_page(&Page::new(page.id(), postings.into(), e.idf))?;
            } else {
                file.push_page(&page)?;
            }
        }
    }
    index.disk().reset_stats(); // export reads are not query reads
    Ok(file.finish(section)?)
}

/// Takes `n` bytes off the front of the section's `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], PersistError> {
    let (bytes, tail) = rest
        .split_at_checked(n)
        .ok_or_else(|| corrupt("lexicon section truncated".into()))?;
    *rest = tail;
    Ok(bytes)
}

/// Loads an index saved by [`save_index`]: opens the page file, reads
/// every page into a [`DiskSim`] and rebuilds the rest (see the module
/// docs).
pub fn load_index(path: &Path) -> Result<InvertedIndex, PersistError> {
    let store = FilePageStore::open(path, FileMode::Buffered)?;
    let (n_docs, page_size) = (store.n_docs(), store.page_size());
    let mut rest = store.section();
    if rest.is_empty() {
        return Err(corrupt(
            "no lexicon section: a pages-only export, not a saved index".into(),
        ));
    }
    type Order = fn(&Posting, &Posting) -> Ordering;
    let (ordering, in_order): (_, Order) = match take(&mut rest, 1)?[0] {
        0 => (ListOrdering::FrequencySorted, frequency_order),
        1 => (ListOrdering::DocIdSorted, doc_order),
        other => return Err(corrupt(format!("invalid list ordering {other}"))),
    };
    // A posting takes at least a byte of payload, and a store holds at
    // most `u32::MAX`: a count past either is refused before the slab is
    // sized.
    let total: u64 = store.list_lengths().map(u64::from).sum();
    if total > store.payload_bytes().min(u64::from(u32::MAX)) {
        return Err(corrupt(format!("{total} postings cannot fit the file")));
    }
    let mut slab: Arc<[Posting]> =
        std::iter::repeat_n(Posting::new(0, 0), total as usize).collect();
    let out = Arc::get_mut(&mut slab).expect("a fresh slab is unshared");
    let (mut lexicon, mut list_starts, mut end) = (Lexicon::new(), vec![0u32], 0);
    for (t, f_t) in store.list_lengths().enumerate() {
        let term = TermId(t as u32);
        // An unreadable length takes more than is left.
        let len =
            get_vbyte(&mut rest).map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
        let name = std::str::from_utf8(take(&mut rest, len)?)
            .map_err(|_| corrupt(format!("term {t}: non-UTF-8 name")))?;
        let stopped = match take(&mut rest, 1)?[0] {
            0 => false,
            1 if f_t == 0 => true,
            1 => return Err(corrupt(format!("stopped term {t} has f_t {f_t}"))),
            other => return Err(corrupt(format!("term {t}: stopped flag {other}"))),
        };
        if lexicon.intern(name) != term {
            return Err(corrupt(format!("duplicate term name {name:?}")));
        }
        let n_pages = f_t.div_ceil(page_size as u32);
        let mut f_max = 0;
        for p in 0..n_pages {
            let page = store
                .read_page(PageId::new(term, p))
                .map_err(|e| corrupt(e.to_string()))?;
            f_max = f_max.max(page.max_freq());
            let (start, placed) = (end, &mut out[end..end + page.len()]);
            placed.copy_from_slice(page.postings());
            if ordering == ListOrdering::DocIdSorted {
                placed.sort_unstable_by(doc_order);
            }
            end += page.len();
            if p > 0 && in_order(&out[start - 1], &out[start]) != Ordering::Less {
                return Err(corrupt(format!("page {} out of order", page.id())));
            }
        }
        let e = lexicon.entry_mut(term);
        (e.doc_freq, e.f_max, e.n_pages, e.stopped) = (f_t, f_max, n_pages, stopped);
        if f_t > 0 {
            e.idf = ir_types::weights::idf(n_docs, f_t);
        }
        list_starts.push(end as u32);
    }
    // Then the documents no posting names: each costs a byte, so `N`
    // is held to the file before anything is sized by it.
    let mut listed = Vec::new();
    while !rest.is_empty() {
        listed
            .push(get_vbyte(&mut rest).ok_or_else(|| corrupt("lexicon section truncated".into()))?);
    }
    if u64::from(n_docs) > total + listed.len() as u64 {
        let n = listed.len();
        return Err(corrupt(format!(
            "N = {n_docs} documents, {total} postings and {n} listed"
        )));
    }
    let mut named = vec![false; n_docs as usize];
    for x in slab.iter() {
        let beyond = || corrupt(format!("document {} beyond N = {n_docs}", x.doc));
        *named.get_mut(x.doc.index()).ok_or_else(beyond)? = true;
    }
    let unnamed = (0..n_docs).filter(|&d| !named[d as usize]).map(u64::from);
    if !unnamed.eq(listed) {
        return Err(corrupt(
            "the listed documents are not the ones no posting names".into(),
        ));
    }

    let lists = || {
        list_starts
            .windows(2)
            .map(|w| &slab[w[0] as usize..w[1] as usize])
    };
    let conversion = ConversionTable::build_with_ordering(lists(), page_size, ordering);
    let doc_stats = DocStats::from_lists(n_docs, lexicon.iter().map(|(_, e)| e.idf).zip(lists()));
    let disk = DiskSim::from_slab(
        slab,
        &list_starts,
        |t| lexicon.entry(t).map_or(0.0, |e| e.idf),
        page_size,
    );
    Ok(InvertedIndex::from_parts(
        lexicon,
        doc_stats,
        conversion,
        ir_types::IndexParams::with_page_size(page_size).with_ordering(ordering),
        Arc::new(disk),
        None,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};
    use ir_types::IndexParams;
    use std::fs;
    use std::io::Write;
    use std::path::PathBuf;

    /// Five documents on pages of two: `stock` and `bond` span two
    /// pages, and their frequency and document orders differ.
    fn sample_index_ordered(ordering: ListOrdering) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["stock", "price", "stock", "crash"]);
        b.add_document(["price", "bond"]);
        b.add_document(["stock"]);
        b.add_document(["drought", "bond", "bond", "bond"]);
        b.add_document(["bond", "stock", "stock", "stock"]);
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2).with_ordering(ordering),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    fn sample_index() -> InvertedIndex {
        sample_index_ordered(ListOrdering::FrequencySorted)
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("buffir-persist-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn page_file_round_trips_every_page_and_resets_export_reads() {
        let idx = sample_index();
        let path = tmpfile("pages.bfpg");
        save_page_file(&idx, &path).unwrap();
        assert_eq!(
            idx.disk().stats().reads,
            0,
            "export reads must not pollute the simulator's counters"
        );
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert!(
            store.section().is_empty(),
            "a pages-only export has no names"
        );
        assert!(matches!(
            store.read_page(PageId::new(TermId(idx.n_terms() as u32), 0)),
            Err(IrError::UnknownTerm(_))
        ));
        assert_eq!(store.total_pages(), idx.total_pages());
        for (term, e) in idx.lexicon().iter() {
            assert!(matches!(
                store.read_page(PageId::new(term, e.n_pages)),
                Err(IrError::PageOutOfRange { list_len, .. }) if list_len == e.n_pages
            ));
            for p in 0..e.n_pages {
                let id = PageId::new(term, p);
                let a = idx.disk().read_page(id).unwrap();
                let b = store.read_page(id).unwrap();
                assert_eq!(a.postings(), b.postings());
                assert_eq!(a.checksum(), b.checksum());
                assert_eq!(
                    a.max_weight().to_bits(),
                    b.max_weight().to_bits(),
                    "idf must survive the page file bit-exactly"
                );
            }
        }
        idx.disk().reset_stats();
    }

    #[test]
    fn a_pages_only_export_of_a_doc_ordered_index_is_refused_before_any_file() {
        let idx = sample_index_ordered(ListOrdering::DocIdSorted);
        let path = tmpfile("doc_ordered.bfpg");
        let _ = fs::remove_file(&path);
        assert!(matches!(
            save_page_file(&idx, &path),
            Err(PersistError::Ir(IrError::InvalidConfig(_)))
        ));
        for file in [path.clone(), tmpfile("doc_ordered.bfpg.tmp")] {
            assert!(!file.exists(), "{} was created", file.display());
        }
        // The whole index, with its ordering byte, saves.
        save_index(&idx, &path).unwrap();
        assert_eq!(
            load_index(&path).unwrap().params().ordering,
            ListOrdering::DocIdSorted
        );
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        for ordering in [ListOrdering::FrequencySorted, ListOrdering::DocIdSorted] {
            let idx = sample_index_ordered(ordering);
            let path = tmpfile("round_trip.bfpg");
            save_index(&idx, &path).unwrap();
            let loaded = load_index(&path).unwrap();

            assert_eq!(loaded.n_docs(), idx.n_docs());
            assert_eq!(loaded.n_terms(), idx.n_terms());
            assert_eq!(loaded.total_pages(), idx.total_pages());
            assert_eq!(loaded.total_postings(), idx.total_postings());
            assert_eq!(loaded.params(), idx.params());
            for (term, e) in idx.lexicon().iter() {
                let l = loaded.lexicon().entry(term).unwrap();
                assert_eq!(loaded.lexicon().name(term), idx.lexicon().name(term));
                assert_eq!(l.doc_freq, e.doc_freq);
                assert_eq!(l.f_max, e.f_max);
                assert_eq!(l.n_pages, e.n_pages);
                assert_eq!(l.stopped, e.stopped);
                assert_eq!(
                    l.idf.to_bits(),
                    e.idf.to_bits(),
                    "idf must reconstruct exactly"
                );
            }
            for d in 0..idx.n_docs() {
                let a = idx.doc_stats().vector_length(ir_types::DocId(d)).unwrap();
                let b = loaded
                    .doc_stats()
                    .vector_length(ir_types::DocId(d))
                    .unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "W_d must round-trip bit-exactly");
            }
            // Page contents identical, in the index's own order.
            for (term, e) in idx.lexicon().iter() {
                for p in 0..e.n_pages {
                    let a = idx.disk().read_page(PageId::new(term, p)).unwrap();
                    let b = loaded.disk().read_page(PageId::new(term, p)).unwrap();
                    assert_eq!(a.postings(), b.postings());
                    assert_eq!(a.checksum(), b.checksum());
                    assert_eq!(a.max_weight().to_bits(), b.max_weight().to_bits());
                }
            }
            // Conversion tables answer identically.
            for (term, e) in idx.lexicon().iter() {
                for f in 0..=e.f_max + 1 {
                    assert_eq!(
                        idx.conversion()
                            .pages_to_process(term, f64::from(f))
                            .unwrap(),
                        loaded
                            .conversion()
                            .pages_to_process(term, f64::from(f))
                            .unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn loaded_index_scans_identically() {
        // Full evaluation equivalence lives in the integration tests
        // (ir-core cannot be a dev-dependency here without a cycle);
        // at this layer, verify that a buffered scan of a list sees
        // the same data and pays the same reads.
        let idx = sample_index();
        let path = tmpfile("evaluates.bfpg");
        save_index(&idx, &path).unwrap();
        let loaded = load_index(&path).unwrap();
        use ir_storage::PolicyKind;
        let run = |index: &InvertedIndex| {
            let mut buf = index.make_buffer(8, PolicyKind::Rap).unwrap();
            let stock = index.lexicon().lookup("stock").unwrap();
            let mut total = 0u64;
            for p in 0..index.n_pages(stock).unwrap() {
                let page = buf.fetch(PageId::new(stock, p)).unwrap();
                total += page
                    .postings()
                    .iter()
                    .map(|x| u64::from(x.freq))
                    .sum::<u64>();
            }
            (total, buf.stats().misses)
        };
        assert_eq!(run(&idx), run(&loaded));
    }

    fn assert_corrupt(got: Result<InvertedIndex, PersistError>, names: &str, what: &str) {
        match got {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains(names), "{what}: {msg}"),
            Err(other) => panic!("{what}: unexpected error kind {other}"),
            Ok(_) => panic!("{what}: loaded"),
        }
    }

    /// Each check of the section refuses its own damage. The pages and
    /// the trailer are sound, so the section's check is what must say
    /// no.
    #[test]
    fn a_damaged_lexicon_section_is_refused() {
        let freq = sample_index();
        let doc = sample_index_ordered(ListOrdering::DocIdSorted);
        let section = lexicon_section(&freq).unwrap();
        // Term 0 is `stock` (a length byte, five bytes, a flag), term 1
        // `price`.
        assert_eq!(&section[..8], b"\0\x85stock\0");
        assert_eq!(&section[8..14], b"\x85price");
        type Edit = fn(&mut Vec<u8>);
        let rows: [(&str, Edit, &str); 11] = [
            ("no section", |s| s.clear(), "no lexicon section"),
            ("ordering 2", |s| s[0] = 2, "ordering"),
            ("frequency pages as doc order", |s| s[0] = 1, "out of order"),
            ("a name past the end", |s| s[1] = 0xff, "truncated"),
            ("an unended name length", |s| *s = vec![0, 1], "truncated"),
            ("non-UTF-8 name", |s| s[2] = 0xff, "UTF-8"),
            (
                "duplicate name",
                |s| s[9..14].copy_from_slice(b"stock"),
                "duplicate",
            ),
            ("stopped flag 2", |s| s[7] = 2, "stopped flag"),
            ("stopped term with postings", |s| s[7] = 1, "stopped term"),
            ("an unended document id", |s| s.push(0), "truncated"),
            (
                "cut inside the last flag",
                |s| s.truncate(s.len() - 1),
                "truncated",
            ),
        ];
        let path = tmpfile("section_mut.bfpg");
        for (what, edit, names) in rows {
            let mut bad = section.clone();
            edit(&mut bad);
            write_pages(&freq, &path, &bad).unwrap();
            assert_corrupt(load_index(&path), names, what);
        }
        let mut bad = lexicon_section(&doc).unwrap();
        bad[0] = 0;
        write_pages(&doc, &path, &bad).unwrap();
        assert_corrupt(
            load_index(&path),
            "out of order",
            "doc pages as frequency order",
        );
        // A page whose postings name a document past `N` (its checksum
        // and the trailer are sound).
        let mut file = PageFileWriter::create(&path, 1, 2, 1).unwrap();
        file.push_term(1).unwrap();
        let postings = vec![Posting::new(5, 1)];
        let idf = ir_types::weights::idf(1, 1);
        file.push_page(&Page::new(PageId::new(TermId(0), 0), postings.into(), idf))
            .unwrap();
        file.finish(b"\0\x81a\0").unwrap();
        assert_corrupt(load_index(&path), "beyond N", "a document past N");
    }

    /// Documents no posting names — an empty one, one of stop words
    /// only, the last — are listed at the section's end and come back;
    /// a list that is not exactly those documents is refused.
    #[test]
    fn documents_without_postings_are_listed_exactly() {
        let mut b = IndexBuilder::new();
        b.add_document(["the", "stock"]);
        b.add_document(Vec::<&str>::new());
        b.add_document(["the"]);
        b.add_document(["stock", "bond"]);
        b.add_document(Vec::<&str>::new());
        let idx = b
            .build(BuildOptions {
                derive_stop_words: 1,
                ..BuildOptions::default()
            })
            .unwrap();
        let section = lexicon_section(&idx).unwrap();
        assert!(section.ends_with(b"bond\0\x81\x82\x84"), "{section:?}");
        let path = tmpfile("unnamed.bfpg");
        save_index(&idx, &path).unwrap();
        let loaded = load_index(&path).unwrap();
        let bits = |i: &InvertedIndex| -> Vec<u64> {
            let w = i.doc_stats().as_slice();
            w.iter().map(|w| w.to_bits()).collect()
        };
        assert_eq!(bits(&loaded), bits(&idx));
        type Edit = fn(&mut Vec<u8>);
        let rows: [(&str, Edit, &str); 4] = [
            ("no list", |s| s.truncate(s.len() - 3), "N = 5 documents"),
            (
                "a named document",
                |s| *s.last_mut().unwrap() = 0x83,
                "no posting",
            ),
            ("a document twice", |s| s.push(0x84), "no posting"),
            (
                "a document past N",
                |s| *s.last_mut().unwrap() = 0x85,
                "no posting",
            ),
        ];
        for (what, edit, names) in rows {
            let mut bad = section.clone();
            edit(&mut bad);
            write_pages(&idx, &path, &bad).unwrap();
            assert_corrupt(load_index(&path), names, what);
        }
    }

    /// `N` from a resealed header, far past what one posting and an
    /// empty list can back, is refused before `W_d` is sized by it (at
    /// `u32::MAX`, 32 GiB).
    #[test]
    fn n_docs_beyond_the_file_is_an_error_not_an_allocation() {
        let path = tmpfile("n_docs.bfpg");
        for n_docs in [1 << 24, u32::MAX] {
            let mut file = PageFileWriter::create(&path, n_docs, 2, 1).unwrap();
            file.push_term(1).unwrap();
            let (postings, idf) = (vec![Posting::new(0, 1)], ir_types::weights::idf(n_docs, 1));
            file.push_page(&Page::new(PageId::new(TermId(0), 0), postings.into(), idf))
                .unwrap();
            file.finish(b"\0\x81a\0").unwrap();
            assert_corrupt(load_index(&path), &format!("N = {n_docs} documents"), "N");
        }
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let idx = sample_index();
        let path = tmpfile("corrupt.bfpg");
        save_index(&idx, &path).unwrap();
        let original = fs::read(&path).unwrap();
        // Flip one byte at a spread of offsets: every mutation must be
        // rejected (checksum, structure or a torn page), never panic,
        // never load garbage.
        for offset in (0..original.len()).step_by(original.len() / 23 + 1) {
            let mut bad = original.clone();
            bad[offset] ^= 0x5a;
            let bad_path = tmpfile("corrupt_mut.bfpg");
            fs::write(&bad_path, &bad).unwrap();
            match load_index(&bad_path) {
                Err(PersistError::Corrupt(_)) => {}
                Err(other) => panic!("offset {offset}: unexpected error kind {other}"),
                Ok(_) => panic!("offset {offset}: corruption not detected"),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let idx = sample_index();
        let path = tmpfile("trunc.bfpg");
        save_index(&idx, &path).unwrap();
        let original = fs::read(&path).unwrap();
        for keep in [0, 3, 10, original.len() / 2, original.len() - 1] {
            let bad_path = tmpfile("trunc_mut.bfpg");
            fs::write(&bad_path, &original[..keep]).unwrap();
            assert!(
                matches!(load_index(&bad_path), Err(PersistError::Corrupt(_))),
                "keep {keep}"
            );
        }
    }

    #[test]
    fn an_unrelated_tmp_file_survives_a_save() {
        let idx = sample_index();
        let (path, bystander) = (tmpfile("bystander.idx"), tmpfile("bystander.tmp"));
        let _ = fs::remove_file(tmpfile("bystander.idx.tmp"));
        fs::write(&bystander, b"not the index's").unwrap();
        save_index(&idx, &path).unwrap();
        assert_eq!(fs::read(&bystander).unwrap(), b"not the index's");
        assert!(load_index(&path).is_ok());
        assert!(!tmpfile("bystander.idx.tmp").exists());
    }

    #[test]
    fn a_save_whose_rename_fails_leaves_no_temp_file() {
        let idx = sample_index();
        let dir = tmpfile("rename_fails.idx");
        let temps = [
            "rename_fails.idx.tmp",
            "rename_fails.idx.payload.tmp",
            "rename_fails.tmp",
        ];
        for stale in temps {
            let _ = fs::remove_file(tmpfile(stale));
        }
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("kept"), b"kept").unwrap();
        assert!(matches!(save_index(&idx, &dir), Err(PersistError::Io(_))));
        for stale in temps {
            assert!(!tmpfile(stale).exists(), "{stale} left behind");
        }
        assert_eq!(fs::read(dir.join("kept")).unwrap(), b"kept");
    }

    /// What the killed exporter prints once every page is written.
    #[cfg(unix)]
    const WRITTEN: &str = "every page written, finish not called";

    /// The page file the killed exporter writes, named after the test
    /// process that starts it, so concurrent runs never share one.
    #[cfg(unix)]
    fn killed_export_path(test_pid: u32) -> std::path::PathBuf {
        tmpfile(&format!("killed_export_{test_pid}.bfpg"))
    }

    /// Run only as the child of
    /// `an_export_killed_before_its_rename_leaves_the_old_file`, which
    /// kills it: streams every page of the sample index through a
    /// `PageFileWriter` to its parent's path, says so on stdout and
    /// waits, never calling `finish`.
    #[cfg(unix)]
    #[test]
    #[ignore = "the child process of an_export_killed_before_its_rename_leaves_the_old_file"]
    fn killed_export_child() {
        use ir_storage::{PageFileWriter, PageStore};
        let idx = sample_index();
        let path = killed_export_path(std::os::unix::process::parent_id());
        let mut file =
            PageFileWriter::create(&path, idx.n_docs(), idx.params().page_size, idx.n_terms())
                .unwrap();
        for (term, e) in idx.lexicon().iter() {
            file.push_term(e.n_postings()).unwrap();
            for p in 0..e.n_pages {
                file.push_page(&idx.disk().read_page(PageId::new(term, p)).unwrap())
                    .unwrap();
            }
        }
        println!("{WRITTEN}");
        std::io::stdout().flush().unwrap();
        std::thread::sleep(std::time::Duration::from_secs(60));
        panic!("not killed within a minute: run only by its parent test");
    }

    /// A process killed between writing an export's temp files and the
    /// rename: the file at the path is still the old one, byte for
    /// byte; the next export over the leftover temp files is the clean
    /// export's bytes; and it leaves no temp file.
    #[cfg(unix)]
    #[test]
    fn an_export_killed_before_its_rename_leaves_the_old_file() {
        use std::io::{BufRead, BufReader};
        use std::process::{Command, Stdio};
        let path = killed_export_path(std::process::id());
        let temps = [".tmp", ".payload.tmp"].map(|suffix| {
            let mut name = path.as_os_str().to_owned();
            name.push(suffix);
            PathBuf::from(name)
        });
        let mut b = IndexBuilder::new();
        b.add_document(["old", "file"]);
        let old_index = b.build(BuildOptions::default()).unwrap();
        save_page_file(&old_index, &path).unwrap();
        let old = fs::read(&path).unwrap();

        let mut child = Command::new(std::env::current_exe().unwrap())
            .args([
                "persist::tests::killed_export_child",
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let written = BufReader::new(child.stdout.take().unwrap())
            .lines()
            .map_while(Result::ok)
            .any(|line| line.ends_with(WRITTEN));
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(written, "the child exited before it wrote every page");
        for temp in &temps {
            assert!(
                temp.exists(),
                "the killed export left no {}",
                temp.display()
            );
        }
        assert_eq!(
            fs::read(&path).unwrap(),
            old,
            "the killed export moved the file"
        );

        // Whatever of the killed writer's buffers reached the disk,
        // lengthen both leftovers: an export that reused them without
        // truncating would show.
        for temp in &temps {
            let mut leftover = fs::OpenOptions::new().append(true).open(temp).unwrap();
            leftover.write_all(&[0xA5; 4096]).unwrap();
        }
        let idx = sample_index();
        save_page_file(&idx, &path).unwrap();
        let clean = tmpfile(&format!("clean_export_{}.bfpg", std::process::id()));
        save_page_file(&idx, &clean).unwrap();
        assert_eq!(fs::read(&path).unwrap(), fs::read(&clean).unwrap());
        for temp in &temps {
            assert!(!temp.exists(), "{} left behind", temp.display());
        }
        for file in [path, clean] {
            fs::remove_file(file).unwrap();
        }
    }

    #[test]
    fn save_excludes_serialization_reads_from_stats() {
        let idx = sample_index();
        let path = tmpfile("stats.idx");
        save_index(&idx, &path).unwrap();
        assert_eq!(idx.disk().stats().reads, 0);
    }
}
