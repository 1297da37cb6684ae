//! A seeded, structure-aware mutator for the `BFPG` page file.
//!
//! The tiny corpus's page file is damaged 2 000 ways at a fixed seed:
//! bit flips, truncations, edits of a term's `f_t` or a page's
//! `byte_len` v-byte (alone, or a length moved from one page to another
//! so the lengths still tile the payload), and splices of one byte range
//! over another. A mutation that reaches the header or directory
//! re-seals the FNV trailer — and one that changes the directory's
//! length records the new length — so the structural checks, not the
//! checksum, are what must refuse it.
//!
//! The property: `FilePageStore::open` returns `Err`, or every page read
//! returns the original page (postings, checksum and `max_weight` bits)
//! or `Err(TornPage)` — never a panic, never a different page. Reading
//! every page of every opened file would take minutes, so each case
//! reads the pages around every byte it touched plus a seeded sample of
//! the rest.
//!
//! A second mutator damages the lexicon section of a saved index (the
//! ordering byte, the term names and stopped flags `save_index` adds):
//! a name's length v-byte, a name made non-UTF-8 or a copy of another
//! term's, a stopped flag on a term with postings, an ordering byte
//! other than the one written, a truncation inside the section, a
//! document id appended to the list of documents no posting names, and
//! unsealed bit flips. `load_index` must return `Err` or an index
//! identical to the original, never panic.

use ir_corpus::{Corpus, CorpusConfig};
use ir_engine::index_corpus;
use ir_index::InvertedIndex;
use ir_storage::{FileMode, FilePageStore, Page, PageStore};
use ir_types::{IrError, PageId};
use proptest::TestRng;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Bytes before the directory: magic, version, encoding id, section
/// length, `n_docs`, `page_size`, `n_terms` and the directory length.
const HEADER_LEN: usize = 29;
/// Where the header stores the section length.
const SECTION_LEN_AT: usize = 9;
/// Where the header stores the directory length.
const DIR_LEN_AT: usize = 25;
const CASES: u32 = 2_000;
const SECTION_CASES: u32 = 300;
/// Pages read after each touched byte, and pages sampled at random.
const WINDOW: usize = 48;
const SAMPLE: usize = 32;

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

fn put_vbyte(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte | 0x80);
            return;
        }
        out.push(byte);
    }
}

/// The value and width of the v-byte at `at`.
fn get_vbyte(data: &[u8], at: usize) -> (u64, usize) {
    let mut v = 0;
    for (i, &b) in data[at..].iter().enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 != 0 {
            return (v, i + 1);
        }
    }
    panic!("unterminated v-byte at {at}");
}

/// Where the original file keeps each field the mutator edits, and the
/// byte range of every page's payload, in (term, page) order.
struct Layout {
    dir_end: usize,
    f_t_at: Vec<usize>,
    len_at: Vec<usize>,
    /// Index of each term's first page.
    first_page: Vec<usize>,
    payload: Vec<Range<usize>>,
}

impl Layout {
    fn parse(data: &[u8]) -> Layout {
        let field = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
        let (page_size, n_terms) = (u64::from(field(17)), field(21));
        let dir_end = HEADER_LEN + field(DIR_LEN_AT) as usize;
        let mut l = Layout {
            dir_end,
            f_t_at: Vec::new(),
            len_at: Vec::new(),
            first_page: Vec::new(),
            payload: Vec::new(),
        };
        let (mut at, mut offset) = (HEADER_LEN, dir_end + 8);
        for _ in 0..n_terms {
            l.f_t_at.push(at);
            l.first_page.push(l.len_at.len());
            let (f_t, w) = get_vbyte(data, at);
            at += w;
            for _ in 0..f_t.div_ceil(page_size) {
                l.len_at.push(at);
                let (len, w) = get_vbyte(data, at);
                at += w + 8;
                l.payload.push(offset..offset + len as usize);
                offset += len as usize;
            }
        }
        assert_eq!((at, offset), (dir_end, data.len()));
        l
    }

    /// The first page whose directory entry or payload is at or after
    /// byte `at` of the original file.
    fn page_at(&self, at: usize) -> usize {
        if at >= self.dir_end {
            self.payload.partition_point(|r| r.end <= at)
        } else {
            let term = self.f_t_at.partition_point(|&f| f <= at).saturating_sub(1);
            let page = self.len_at.partition_point(|&p| p + 9 <= at);
            page.min(self.first_page[term])
        }
    }
}

/// One damaged copy of the file and the original bytes it touched.
struct Mutant {
    data: Vec<u8>,
    touched: Vec<usize>,
}

/// Replaces the v-byte at `at` with `value`'s, keeping the directory
/// length in the header; returns the change in the directory's end.
fn rewrite_vbyte(data: &mut Vec<u8>, at: usize, value: u64) -> isize {
    let (_, old) = get_vbyte(data, at);
    let mut new = Vec::new();
    put_vbyte(&mut new, value);
    let delta = new.len() as isize - old as isize;
    data.splice(at..at + old, new);
    let dir_len = u32::from_le_bytes(data[DIR_LEN_AT..DIR_LEN_AT + 4].try_into().unwrap());
    let dir_len = (dir_len as isize + delta) as u32;
    data[DIR_LEN_AT..DIR_LEN_AT + 4].copy_from_slice(&dir_len.to_le_bytes());
    delta
}

/// Recomputes the FNV trailer after the directory ending at `dir_end`.
fn reseal(data: &mut [u8], dir_end: usize) {
    if dir_end + 8 <= data.len() {
        let sum = fnv1a(&data[..dir_end]);
        data[dir_end..dir_end + 8].copy_from_slice(&sum.to_le_bytes());
    }
}

/// A small edit of `old`: a few up or down, zero, or anything.
fn nearby(rng: &mut TestRng, old: u64) -> u64 {
    match rng.below(4) {
        0 => old + 1 + rng.below(8),
        1 => old.saturating_sub(1 + rng.below(8)),
        2 => 0,
        _ => rng.below(1 << 33),
    }
}

fn mutate(rng: &mut TestRng, original: &[u8], l: &Layout) -> Mutant {
    let mut data = original.to_vec();
    let n = data.len() as u64;
    let mut touched = Vec::new();
    match rng.below(6) {
        0 => {
            let at = rng.below(n) as usize;
            data[at] ^= 1 << rng.below(8);
            touched.push(at);
        }
        1 => {
            let keep = rng.below(n) as usize;
            data.truncate(keep);
            touched.push(keep);
        }
        2 => {
            let at = l.f_t_at[rng.below(l.f_t_at.len() as u64) as usize];
            let value = nearby(rng, get_vbyte(&data, at).0);
            let delta = rewrite_vbyte(&mut data, at, value);
            reseal(&mut data, (l.dir_end as isize + delta) as usize);
            touched.push(at);
        }
        3 => {
            let at = l.len_at[rng.below(l.len_at.len() as u64) as usize];
            let value = nearby(rng, get_vbyte(&data, at).0);
            let delta = rewrite_vbyte(&mut data, at, value);
            reseal(&mut data, (l.dir_end as isize + delta) as usize);
            touched.push(at);
        }
        4 => {
            // Move `d` bytes of length from one page to a later one: the
            // lengths still tile the payload, so the open succeeds.
            let pages = l.len_at.len() as u64;
            let i = rng.below(pages - 1) as usize;
            let j = i + 1 + rng.below((pages - 1 - i as u64).min(64)) as usize;
            let (from, to) = (l.len_at[i], l.len_at[j]);
            let old_i = get_vbyte(&data, from).0;
            let d = 1 + rng.below(old_i.max(2) - 1);
            let old_j = get_vbyte(&data, to).0;
            // The later field first, so the earlier one's offset holds.
            let mut delta = rewrite_vbyte(&mut data, to, old_j + d);
            delta += rewrite_vbyte(&mut data, from, old_i.saturating_sub(d));
            reseal(&mut data, (l.dir_end as isize + delta) as usize);
            touched.extend([from, to]);
        }
        _ => {
            let len = 1 + rng.below(64);
            let src = rng.below(n - len) as usize;
            let dst = rng.below(n - len) as usize;
            let chunk = data[src..src + len as usize].to_vec();
            data[dst..dst + len as usize].copy_from_slice(&chunk);
            if dst < l.dir_end {
                reseal(&mut data, l.dir_end);
            }
            touched.push(dst);
        }
    }
    Mutant { data, touched }
}

fn scratch_path() -> PathBuf {
    let dir = std::env::temp_dir().join("buffir-mutator-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("mutant-{}.bfpg", std::process::id()))
}

#[derive(Debug, Default)]
struct Tally {
    refused: u32,
    opened: u32,
    served: u64,
    torn: u64,
}

/// Opens `data` and checks every read it makes against `originals`.
fn check(
    path: &Path,
    m: &Mutant,
    l: &Layout,
    originals: &[Page],
    rng: &mut TestRng,
    t: &mut Tally,
) {
    std::fs::write(path, &m.data).unwrap();
    let Ok(store) = FilePageStore::open(path, FileMode::Buffered) else {
        t.refused += 1;
        return;
    };
    t.opened += 1;
    let mut pages: Vec<usize> = m
        .touched
        .iter()
        .flat_map(|&at| {
            let first = l.page_at(at).saturating_sub(1);
            first..(first + WINDOW).min(originals.len())
        })
        .collect();
    pages.extend((0..SAMPLE).map(|_| rng.below(originals.len() as u64) as usize));
    for i in pages {
        let want = &originals[i];
        match store.read_page(want.id()) {
            Ok(got) => {
                assert_eq!(got.id(), want.id());
                assert_eq!(got.postings(), want.postings(), "{}", want.id());
                assert_eq!(got.checksum(), want.checksum(), "{}", want.id());
                assert_eq!(
                    got.max_weight().to_bits(),
                    want.max_weight().to_bits(),
                    "{} served with another idf_t",
                    want.id()
                );
                t.served += 1;
            }
            Err(IrError::TornPage { page }) => {
                assert_eq!(page, want.id());
                t.torn += 1;
            }
            Err(other) => panic!("{}: {other}", want.id()),
        }
    }
}

#[test]
fn a_mutated_page_file_is_refused_or_serves_only_original_or_torn_pages() {
    let corpus = Corpus::generate(CorpusConfig::tiny());
    let idx = index_corpus(&corpus, false).unwrap();
    let path = scratch_path();
    ir_index::save_page_file(&idx, &path).unwrap();
    let original = std::fs::read(&path).unwrap();
    let layout = Layout::parse(&original);
    let originals: Vec<Page> = idx
        .lexicon()
        .iter()
        .flat_map(|(term, e)| (0..e.n_pages).map(move |p| PageId::new(term, p)))
        .map(|id| idx.disk().read_page(id).unwrap())
        .collect();
    assert_eq!(originals.len(), layout.payload.len());

    let mut rng = TestRng::from_name("bfpg-mutator");
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let mutant = mutate(&mut rng, &original, &layout);
        check(&path, &mutant, &layout, &originals, &mut rng, &mut tally);
    }
    std::fs::remove_file(&path).unwrap();
    // Every kind of outcome happened, so the property was not met
    // vacuously.
    assert_eq!(tally.refused + tally.opened, CASES);
    assert!(
        tally.refused > CASES / 4 && tally.opened > CASES / 4,
        "{tally:?}"
    );
    assert!(tally.served > 0 && tally.torn > 0, "{tally:?}");
    eprintln!("{tally:?}");
}

/// Where a saved index's section keeps each field the section mutator
/// edits, as offsets into the file.
struct Section {
    start: usize,
    end: usize,
    /// `N`, which the appended document ids are drawn below.
    n_docs: u64,
    /// Each term's name-length v-byte, name bytes and stopped flag.
    len_at: Vec<usize>,
    names: Vec<Range<usize>>,
    flag_at: Vec<usize>,
}

impl Section {
    fn parse(data: &[u8]) -> Section {
        let field = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
        let start = HEADER_LEN + field(DIR_LEN_AT);
        let end = start + field(SECTION_LEN_AT);
        let mut l = Section {
            start,
            end,
            n_docs: field(13) as u64,
            len_at: Vec::new(),
            names: Vec::new(),
            flag_at: Vec::new(),
        };
        let mut at = start + 1; // past the ordering byte
        while l.names.len() < field(21) {
            let (len, w) = get_vbyte(data, at);
            l.len_at.push(at);
            l.names.push(at + w..at + w + len as usize);
            l.flag_at.push(at + w + len as usize);
            at += w + len as usize + 1;
        }
        assert!(at <= end);
        l
    }
}

/// Replaces `data[range]`, inside the section, with `bytes`, keeping
/// the section length in the header and re-sealing the trailer.
fn splice_section(data: &mut Vec<u8>, l: &Section, range: Range<usize>, bytes: &[u8]) {
    let delta = bytes.len() as isize - range.len() as isize;
    data.splice(range, bytes.iter().copied());
    let len = ((l.end - l.start) as isize + delta) as u32;
    data[SECTION_LEN_AT..SECTION_LEN_AT + 4].copy_from_slice(&len.to_le_bytes());
    reseal(data, (l.end as isize + delta) as usize);
}

/// One damaged copy of a saved index, and which of the eight kinds of
/// damage it took.
fn mutate_section(rng: &mut TestRng, original: &[u8], l: &Section) -> (Vec<u8>, usize) {
    let mut data = original.to_vec();
    let term = rng.below(l.names.len() as u64) as usize;
    let kind = rng.below(8) as usize;
    match kind {
        0 => {
            let at = l.len_at[term];
            let (old, w) = get_vbyte(&data, at);
            let mut new = Vec::new();
            put_vbyte(&mut new, nearby(rng, old));
            splice_section(&mut data, l, at..at + w, &new);
        }
        1 => {
            let name = l.names[term].clone();
            let at = name.start + rng.below(name.len() as u64) as usize;
            let byte = 0x80 | rng.below(0x80) as u8;
            splice_section(&mut data, l, at..at + 1, &[byte]);
        }
        2 => {
            // Term `term` takes another term's name, length and all.
            let other = (term + 1 + rng.below(l.names.len() as u64 - 1) as usize) % l.names.len();
            let copy = original[l.len_at[other]..l.names[other].end].to_vec();
            splice_section(&mut data, l, l.len_at[term]..l.names[term].end, &copy);
        }
        3 => {
            let flag = l.flag_at[term];
            let byte = 1 + rng.below(255) as u8;
            splice_section(&mut data, l, flag..flag + 1, &[byte]);
        }
        4 => {
            let byte = original[l.start] ^ (1 + rng.below(255) as u8);
            splice_section(&mut data, l, l.start..l.start + 1, &[byte]);
        }
        5 => data.truncate(l.start + rng.below((l.end - l.start) as u64) as usize),
        6 => {
            let mut id = Vec::new();
            put_vbyte(&mut id, rng.below(l.n_docs + 2));
            splice_section(&mut data, l, l.end..l.end, &id);
        }
        _ => {
            let at = l.start + rng.below((l.end - l.start) as u64) as usize;
            data[at] ^= 1 << rng.below(8);
        }
    }
    (data, kind)
}

/// `loaded` is `index` field for field: names, lexicon entries, `W_d`
/// bits and every page.
fn assert_identical(index: &InvertedIndex, loaded: &InvertedIndex) {
    assert_eq!(loaded.params(), index.params());
    assert_eq!(loaded.n_terms(), index.n_terms());
    for (term, e) in index.lexicon().iter() {
        let l = loaded.lexicon().entry(term).unwrap();
        assert_eq!(loaded.lexicon().name(term), index.lexicon().name(term));
        assert_eq!(
            (l.doc_freq, l.f_max, l.n_pages, l.stopped, l.idf.to_bits()),
            (e.doc_freq, e.f_max, e.n_pages, e.stopped, e.idf.to_bits())
        );
        for p in 0..e.n_pages {
            let id = PageId::new(term, p);
            let (a, b) = (index.disk().read_page(id), loaded.disk().read_page(id));
            assert_eq!(a.unwrap().postings(), b.unwrap().postings());
        }
    }
    let bits = |i: &InvertedIndex| -> Vec<u64> {
        i.doc_stats()
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect()
    };
    assert_eq!(bits(loaded), bits(index));
}

#[test]
fn a_mutated_lexicon_section_is_refused_or_loads_the_same_index() {
    let corpus = Corpus::generate(CorpusConfig::tiny());
    let idx = index_corpus(&corpus, false).unwrap();
    let path = scratch_path().with_extension("index.bfpg");
    ir_index::save_index(&idx, &path).unwrap();
    let original = std::fs::read(&path).unwrap();
    let section = Section::parse(&original);
    assert_eq!(section.names.len(), idx.n_terms());

    let mut rng = TestRng::from_name("bfpg-section-mutator");
    let (mut refused, mut kinds) = (0, [0u32; 8]);
    for _ in 0..SECTION_CASES {
        let (data, kind) = mutate_section(&mut rng, &original, &section);
        kinds[kind] += 1;
        std::fs::write(&path, &data).unwrap();
        match ir_index::load_index(&path) {
            Err(_) => refused += 1,
            Ok(loaded) => assert_identical(&idx, &loaded),
        }
    }
    std::fs::remove_file(&path).unwrap();
    assert!(kinds.iter().all(|&n| n > 0), "{kinds:?}");
    assert!(
        refused > SECTION_CASES * 9 / 10,
        "{refused} of {SECTION_CASES} refused"
    );
    eprintln!("{refused} of {SECTION_CASES} refused; cases by kind {kinds:?}");
}

/// A saved index whose directory claims more postings than the file
/// has bytes (each takes at least one) is refused before `load_index`
/// sizes its slab for them.
#[test]
fn a_posting_count_past_the_file_is_refused_before_the_slab() {
    // One term `a` of f_t = 2^20 on one page, whose payload is a byte.
    let f_t: u32 = 1 << 20;
    let (mut dir, section) = (Vec::new(), [0, 0x81, b'a', 0]);
    put_vbyte(&mut dir, u64::from(f_t));
    put_vbyte(&mut dir, 1);
    dir.extend_from_slice(&0u64.to_le_bytes());
    let mut data = b"BFPG".to_vec();
    data.extend_from_slice(&3u32.to_le_bytes());
    data.push(0);
    for v in [section.len() as u32, f_t, f_t, 1, dir.len() as u32] {
        data.extend_from_slice(&v.to_le_bytes());
    }
    data.extend_from_slice(&dir);
    data.extend_from_slice(&section);
    data.extend_from_slice(&fnv1a(&data).to_le_bytes());
    data.push(0x80);
    let path = scratch_path().with_extension("claims.bfpg");
    std::fs::write(&path, &data).unwrap();
    assert!(FilePageStore::open(&path, FileMode::Buffered).is_ok());
    match ir_index::load_index(&path) {
        Err(ir_index::PersistError::Corrupt(msg)) => assert!(msg.contains("cannot fit"), "{msg}"),
        other => panic!("loaded or another error: {:?}", other.map(|_| ())),
    }
    std::fs::remove_file(&path).unwrap();
}
