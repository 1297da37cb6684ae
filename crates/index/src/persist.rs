//! On-disk index persistence.
//!
//! The simulator keeps pages in memory (disk *reads* are a counted
//! metric, not real I/O), but a library users can adopt needs to build
//! an index once and reopen it later. This module defines a
//! self-contained binary format:
//!
//! ```text
//! "BFIR" magic | u32 version | u32 n_docs | u32 n_terms | u64 page_size
//! u8 ordering | u8 encoding id (0) | u32 reserved length (0)
//! lexicon:   per term: name (u16 len + bytes), u32 doc_freq, u32 f_max,
//!            u64 n_postings, u8 stopped
//! doc stats: n_docs × f64 vector lengths
//! postings:  per term: u32 encoded byte length + the whole list in
//!            one [`ir_storage::codec`] blob
//! trailer:   u64 FNV-1a checksum of everything above
//! ```
//!
//! There is one version (2) and one posting encoding. The encoding id
//! and the reserved length keep the layout of every file already
//! written; a file where either is not 0 is [`PersistError::Corrupt`].
//!
//! Everything derivable is rebuilt at load time — `idf_t` from
//! `(N, f_t)`, page boundaries from `page_size`, the conversion table
//! from the decoded lists — so the format stays small and cannot drift
//! out of sync with the statistics. The optional forward index and
//! build-time compression statistics are *not* persisted.
//!
//! Corruption anywhere (truncation, bit flips, bad magic/version) is
//! detected by the checksum or by structural validation and reported as
//! [`PersistError::Corrupt`]; loading never panics on hostile input.

use crate::conversion::ConversionTable;
use crate::docstats::DocStats;
use crate::index::InvertedIndex;
use crate::lexicon::Lexicon;
use ir_storage::codec::{decode_postings, encode_postings, ENCODING_ID};
use ir_storage::{DiskSim, Page};
use ir_types::{
    doc_order, frequency_order, IndexParams, IrError, ListOrdering, PageId, Posting, TermId,
};
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BFIR";
const VERSION: u32 = 2;

/// Errors from saving/loading an index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The file is not a valid index (bad magic/version/checksum or
    /// malformed structure).
    Corrupt(String),
    /// An internal consistency error while reassembling.
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
            other => PersistError::Corrupt(other.to_string()),
        }
    }
}

impl From<IrError> for PersistError {
    fn from(e: IrError) -> Self {
        PersistError::Ir(e)
    }
}

/// FNV-1a, 64-bit — small, dependency-free integrity check.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.pos + n > self.data.len() {
            return Err(PersistError::Corrupt(format!(
                "truncated at offset {} (wanted {} more bytes)",
                self.pos, n
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Serializes the index to `path` (atomically: written to a temp file,
/// then renamed).
pub fn save_index(index: &InvertedIndex, path: &Path) -> Result<(), PersistError> {
    use ir_storage::PageStore;
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(index.n_docs());
    w.u32(index.n_terms() as u32);
    w.u64(index.params().page_size as u64);
    let ordering = index.params().ordering;
    w.u8(match ordering {
        ListOrdering::FrequencySorted => 0,
        ListOrdering::DocIdSorted => 1,
    });
    w.u8(ENCODING_ID);
    w.u32(0); // reserved length

    // Lexicon.
    for (term, e) in index.lexicon().iter() {
        let name = index.lexicon().name(term).as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(PersistError::Corrupt(format!(
                "term name too long ({} bytes)",
                name.len()
            )));
        }
        w.u16(name.len() as u16);
        w.bytes(name);
        w.u32(e.doc_freq);
        w.u32(e.f_max);
        w.u64(u64::from(e.n_postings()));
        w.u8(u8::from(e.stopped));
    }

    // Document statistics.
    for &wd in index.doc_stats().as_slice() {
        w.f64(wd);
    }

    // Postings: whole list per term, one encoded blob.
    for (term, e) in index.lexicon().iter() {
        let mut list: Vec<Posting> = Vec::with_capacity(e.n_postings() as usize);
        for p in 0..e.n_pages {
            let page = index.disk().read_page(PageId::new(term, p))?;
            list.extend_from_slice(page.postings());
        }
        if ordering == ListOrdering::DocIdSorted {
            // The encoder requires frequency order; the load path re-sorts.
            list.sort_unstable_by(frequency_order);
        }
        let encoded = encode_postings(&list);
        w.u32(encoded.len() as u32);
        w.bytes(&encoded);
    }
    index.disk().reset_stats(); // serialization reads are not query reads

    let checksum = fnv1a(&w.buf);
    w.u64(checksum);

    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&w.buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Exports the index's inverted-list pages to a `BFPG` page file (see
/// `ir_storage::backend::file`), the on-disk tier a
/// [`FilePageStore`](ir_storage::FilePageStore) serves queries from.
///
/// Complements [`save_index`]: the BFIR file carries the whole index
/// (lexicon, document statistics, compressed postings) for
/// rebuilding `InvertedIndex` in memory; the page file carries the
/// *page images* — same page boundaries, same `idf_t`, same build-time
/// checksums — so a file-backed run demands exactly the pages a
/// `DiskSim`-backed run would. Like `BFIR`, it stores per term only
/// `f_t`, from which the reader rebuilds `idf_t` and the page
/// boundaries. Pages stream from the simulator through a
/// [`PageFileWriter`](ir_storage::PageFileWriter), each encoded once
/// and written out, so the export holds no more than a page's bytes.
/// Like `save_index`, the export's own reads are wiped from the
/// simulator's counters afterwards, and the write is atomic (temp
/// files + rename): an export that fails leaves no temp file and
/// whatever was at `path` as it was.
pub fn save_page_file(index: &InvertedIndex, path: &Path) -> Result<(), PersistError> {
    use ir_storage::{PageFileWriter, PageStore};
    let mut file = PageFileWriter::create(
        path,
        index.n_docs(),
        index.params().page_size,
        index.n_terms(),
    )?;
    for (term, e) in index.lexicon().iter() {
        file.push_term(e.n_postings())?;
        for p in 0..e.n_pages {
            file.push_page(&index.disk().read_page(PageId::new(term, p))?)?;
        }
    }
    index.disk().reset_stats(); // export reads are not query reads
    Ok(file.finish()?)
}

/// Loads an index saved by [`save_index`].
pub fn load_index(path: &Path) -> Result<InvertedIndex, PersistError> {
    let mut data = Vec::new();
    fs::File::open(path)?.read_to_end(&mut data)?;
    if data.len() < MAGIC.len() + 8 {
        return Err(PersistError::Corrupt("file too small".into()));
    }
    // Verify trailer checksum first: everything else assumes integrity.
    let (body, trailer) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    let actual = fnv1a(body);
    if stored != actual {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch (stored {stored:#x}, computed {actual:#x})"
        )));
    }

    let mut r = Reader::new(body);
    if r.take(4)? != MAGIC {
        return Err(PersistError::Corrupt("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::Corrupt(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let n_docs = r.u32()?;
    let n_terms = r.u32()? as usize;
    let page_size = r.u64()? as usize;
    let ordering = match r.u8()? {
        0 => ListOrdering::FrequencySorted,
        1 => ListOrdering::DocIdSorted,
        other => {
            return Err(PersistError::Corrupt(format!(
                "invalid list ordering {other}"
            )))
        }
    };
    let encoding = r.u8()?;
    if encoding != ENCODING_ID {
        return Err(PersistError::Corrupt(format!(
            "unknown encoding id {encoding} (expected {ENCODING_ID})"
        )));
    }
    let reserved = r.u32()?;
    if reserved != 0 {
        return Err(PersistError::Corrupt(format!(
            "reserved header length is {reserved}, must be 0"
        )));
    }
    if n_docs == 0 || page_size == 0 {
        return Err(PersistError::Corrupt(
            "empty collection or zero page size".into(),
        ));
    }

    // Both counts size allocations below and both come from the file:
    // bound them by the bytes that are left (a term costs at least 19
    // in the lexicon, a document 8) before reserving anything.
    let left = body.len() - r.pos;
    for (name, count, min_bytes) in [("n_terms", n_terms, 19), ("n_docs", n_docs as usize, 8)] {
        if count > left / min_bytes {
            return Err(PersistError::Corrupt(format!(
                "{name} {count} exceeds what the {left} bytes after the header can hold"
            )));
        }
    }

    // Lexicon.
    let mut lexicon = Lexicon::new();
    let mut metas = Vec::with_capacity(n_terms);
    for t in 0..n_terms {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| PersistError::Corrupt(format!("term {t}: non-UTF-8 name")))?
            .to_string();
        let doc_freq = r.u32()?;
        let f_max = r.u32()?;
        let n_postings = r.u64()?;
        let stopped = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(PersistError::Corrupt(format!(
                    "term {t}: invalid stopped flag {other}"
                )))
            }
        };
        // The list holds `f_t` postings, none once stopped.
        if n_postings != if stopped { 0 } else { u64::from(doc_freq) } {
            return Err(PersistError::Corrupt(format!(
                "term {t}: {n_postings} postings for f_t {doc_freq}"
            )));
        }
        let id = lexicon.intern(&name);
        if id != TermId(t as u32) {
            return Err(PersistError::Corrupt(format!(
                "duplicate term name {name:?}"
            )));
        }
        metas.push((doc_freq, f_max, n_postings, stopped));
    }

    // Document statistics.
    let mut lengths = Vec::with_capacity(n_docs as usize);
    for _ in 0..n_docs {
        lengths.push(r.f64()?);
    }

    // Postings.
    let params = IndexParams::with_page_size(page_size).with_ordering(ordering);
    let mut lists: Vec<Vec<Page>> = Vec::with_capacity(n_terms);
    let mut decoded_lists: Vec<Vec<Posting>> = Vec::with_capacity(n_terms);
    for (t, &(doc_freq, f_max, n_postings, stopped)) in metas.iter().enumerate() {
        let term = TermId(t as u32);
        let len = r.u32()? as usize;
        let blob = r.take(len)?;
        let mut postings = decode_postings(bytes::Bytes::copy_from_slice(blob))
            .ok_or_else(|| PersistError::Corrupt(format!("term {t}: undecodable postings")))?;
        if postings.len() as u64 != n_postings {
            return Err(PersistError::Corrupt(format!(
                "term {t}: posting count mismatch ({} vs {n_postings})",
                postings.len()
            )));
        }
        if postings.first().map_or(0, |p| p.freq) != f_max {
            return Err(PersistError::Corrupt(format!("term {t}: f_max mismatch")));
        }
        if ordering == ListOrdering::DocIdSorted {
            postings.sort_unstable_by(doc_order);
        }
        let idf = if doc_freq > 0 {
            ir_types::weights::idf(n_docs, doc_freq)
        } else {
            0.0
        };
        let pages: Vec<Page> = postings
            .chunks(page_size)
            .enumerate()
            .map(|(i, chunk)| Page::new(PageId::new(term, i as u32), chunk.to_vec().into(), idf))
            .collect();
        {
            let e = lexicon.entry_mut(term);
            e.doc_freq = doc_freq;
            e.idf = idf;
            e.f_max = f_max;
            e.n_pages = pages.len() as u32;
            e.stopped = stopped;
        }
        lists.push(pages);
        decoded_lists.push(postings);
    }
    if r.pos != body.len() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after postings",
            body.len() - r.pos
        )));
    }

    let conversion = ConversionTable::build_with_ordering(
        decoded_lists.iter().map(|l| l.as_slice()),
        page_size,
        ordering,
    );
    Ok(InvertedIndex::from_parts(
        lexicon,
        DocStats::new(lengths),
        conversion,
        params,
        Arc::new(DiskSim::new(lists)),
        None,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["stock", "price", "stock", "crash"]);
        b.add_document(["price", "bond"]);
        b.add_document(["stock"]);
        b.add_document(["drought", "bond", "bond", "bond"]);
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("buffir-persist-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn page_file_round_trips_every_page_and_resets_export_reads() {
        use ir_storage::{FileMode, FilePageStore, PageStore};
        let idx = sample_index();
        let path = tmpfile("pages.bfpg");
        save_page_file(&idx, &path).unwrap();
        assert_eq!(
            idx.disk().stats().reads,
            0,
            "export reads must not pollute the simulator's counters"
        );
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
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
    fn round_trip_preserves_everything_observable() {
        let idx = sample_index();
        let path = tmpfile("round_trip.idx");
        save_index(&idx, &path).unwrap();
        let loaded = load_index(&path).unwrap();

        assert_eq!(loaded.n_docs(), idx.n_docs());
        assert_eq!(loaded.n_terms(), idx.n_terms());
        assert_eq!(loaded.total_pages(), idx.total_pages());
        assert_eq!(loaded.total_postings(), idx.total_postings());
        assert_eq!(loaded.params().page_size, idx.params().page_size);
        for (term, e) in idx.lexicon().iter() {
            let l = loaded.lexicon().entry(term).unwrap();
            assert_eq!(loaded.lexicon().name(term), idx.lexicon().name(term));
            assert_eq!(l.doc_freq, e.doc_freq);
            assert_eq!(l.f_max, e.f_max);
            assert_eq!(l.n_pages, e.n_pages);
            assert_eq!(l.stopped, e.stopped);
            assert!(
                (l.idf - e.idf).abs() < 1e-15,
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
        // Page contents identical.
        use ir_storage::PageStore;
        for (term, e) in idx.lexicon().iter() {
            for p in 0..e.n_pages {
                let a = idx.disk().read_page(PageId::new(term, p)).unwrap();
                let b = loaded.disk().read_page(PageId::new(term, p)).unwrap();
                assert_eq!(a.postings(), b.postings());
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

    #[test]
    fn loaded_index_scans_identically() {
        // Full evaluation equivalence lives in the integration tests
        // (ir-core cannot be a dev-dependency here without a cycle);
        // at this layer, verify that a buffered scan of a list sees
        // the same data and pays the same reads.
        let idx = sample_index();
        let path = tmpfile("evaluates.idx");
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

    /// Writes `data` with its FNV trailer recomputed, so a patched
    /// header reaches the structural checks instead of the checksum.
    fn resealed(name: &str, mut data: Vec<u8>) -> std::path::PathBuf {
        let n = data.len();
        let sum = fnv1a(&data[..n - 8]);
        data[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let path = tmpfile(name);
        fs::write(&path, &data).unwrap();
        path
    }

    #[test]
    fn foreign_encoding_reserved_length_and_version_are_rejected() {
        let path = tmpfile("header_fields.idx");
        save_index(&sample_index(), &path).unwrap();
        let original = fs::read(&path).unwrap();
        // Bytes 4..8 are the version, 25 the encoding id, 26..30 the
        // reserved length.
        let patches: [(&str, usize, u8, &str); 6] = [
            ("encoding 1 (was bulk v-byte)", 25, 1, "encoding"),
            ("encoding 2 (was Re-Pair)", 25, 2, "encoding"),
            ("encoding 9", 25, 9, "encoding"),
            ("reserved length 1", 26, 1, "reserved"),
            ("reserved length 1 << 24", 29, 1, "reserved"),
            ("version 1", 4, 1, "version"),
        ];
        for (what, offset, value, names) in patches {
            let mut bad = original.clone();
            bad[offset] = value;
            match load_index(&resealed("header_fields_mut.idx", bad)) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(names), "{what}: {msg}"),
                Err(other) => panic!("{what}: unexpected error kind {other}"),
                Ok(_) => panic!("{what}: loaded"),
            }
        }
    }

    #[test]
    fn header_counts_beyond_the_file_are_errors_not_allocations() {
        // A bare 30-byte header plus trailer: whatever n_terms and
        // n_docs claim, nothing follows to back them.
        let path = tmpfile("counts.idx");
        save_index(&sample_index(), &path).unwrap();
        let mut header = fs::read(&path).unwrap();
        header.truncate(30 + 8);
        header[12..16].copy_from_slice(&0u32.to_le_bytes()); // n_terms
        for (field, offset) in [("n_docs", 8), ("n_terms", 12)] {
            let mut bad = header.clone();
            bad[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            match load_index(&resealed("counts_mut.idx", bad)) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                Err(other) => panic!("{field}: unexpected error kind {other}"),
                Ok(_) => panic!("{field}: loaded"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let idx = sample_index();
        let path = tmpfile("corrupt.idx");
        save_index(&idx, &path).unwrap();
        let original = fs::read(&path).unwrap();
        // Flip one byte at a spread of offsets: every mutation must be
        // rejected (checksum), never panic, never load garbage.
        for offset in (0..original.len()).step_by(original.len() / 23 + 1) {
            let mut bad = original.clone();
            bad[offset] ^= 0x5a;
            let bad_path = tmpfile("corrupt_mut.idx");
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
        let path = tmpfile("trunc.idx");
        save_index(&idx, &path).unwrap();
        let original = fs::read(&path).unwrap();
        for keep in [0, 3, 10, original.len() / 2, original.len() - 1] {
            let bad_path = tmpfile("trunc_mut.idx");
            fs::write(&bad_path, &original[..keep]).unwrap();
            assert!(
                matches!(load_index(&bad_path), Err(PersistError::Corrupt(_))),
                "keep {keep}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let idx = sample_index();
        let path = tmpfile("magic.idx");
        save_index(&idx, &path).unwrap();
        let mut data = fs::read(&path).unwrap();
        data[0] = b'X';
        // Fix up the checksum so only the magic is wrong.
        let err = load_index(&resealed("magic_mut.idx", data)).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn save_excludes_serialization_reads_from_stats() {
        let idx = sample_index();
        let path = tmpfile("stats.idx");
        save_index(&idx, &path).unwrap();
        assert_eq!(idx.disk().stats().reads, 0);
    }
}
