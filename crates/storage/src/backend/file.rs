//! The `BFPG` page file: the index's inverted-list pages persisted to
//! one real file, served back through [`PageStore`] with positioned
//! (`pread`-style) reads.
//!
//! ```text
//! "BFPG" magic | u32 version (2)
//! u8 encoding id (0) | u32 reserved length (0)
//! u32 n_terms
//! directory, per term:  u32 n_pages, f64 idf
//!                       per page: u64 offset, u32 byte_len,
//!                                 u32 n_postings, u64 checksum
//! u64 FNV-1a over everything above
//! payload:  per page, `byte_len` bytes of [`crate::codec`] encoding
//! ```
//!
//! There is one version and one posting encoding. The encoding id and
//! the reserved length keep the layout of every file already written;
//! a file where either is not 0, or whose version is not 2, is rejected
//! at open as [`PageFileError::Corrupt`].
//!
//! The directory (offsets, idfs, and the per-page checksums computed
//! by [`Page::new`] at build time) is loaded into memory at open and
//! guarded by its own FNV trailer; the payload is fetched on demand.
//! Every delivered page is decoded, rebuilt with [`Page::new`] and its
//! recomputed checksum — computed over the *decoded* postings —
//! compared against the stored one. A short read, a truncated file, a
//! flipped payload bit, or an undecodable payload surfaces as
//! [`IrError::TornPage`] — the same retryable error the fault injector
//! produces — never as a panic or a silently corrupt page.
//!
//! Payload reads are one positioned read per page against the open
//! file descriptor ([`FileMode::Buffered`], the only mode).
//!
//! Statistics bookkeeping (counter updates, the sequential/random head
//! classification, errors bumping nothing) is kept line-for-line
//! equivalent to [`DiskSim`](crate::DiskSim)'s, which is what makes the
//! zero-latency file backend event-for-event identical to the
//! simulator.

use crate::codec::{decode_postings, encode_postings, ENCODING_ID};
use crate::disk::{DiskStats, PageStore};
use crate::page::Page;
use bytes::Bytes;
use ir_types::{IrError, IrResult, PageId};
use parking_lot::Mutex;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"BFPG";
const VERSION: u32 = 2;

/// Errors from writing or opening a page file.
#[derive(Debug)]
pub enum PageFileError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The file is not a valid page file (bad magic/version, directory
    /// checksum mismatch, malformed structure).
    Corrupt(String),
}

impl fmt::Display for PageFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageFileError::Io(e) => write!(f, "i/o error: {e}"),
            PageFileError::Corrupt(msg) => write!(f, "corrupt page file: {msg}"),
        }
    }
}

impl std::error::Error for PageFileError {}

impl From<std::io::Error> for PageFileError {
    fn from(e: std::io::Error) -> Self {
        PageFileError::Io(e)
    }
}

/// FNV-1a, 64-bit — the same dependency-free integrity check the BFIR
/// index format uses.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One term's pages plus the `idf_t` needed to rebuild them: the unit
/// [`write_page_file`] persists. The idf is stored bit-exactly so the
/// reconstructed pages carry the same `w*_{d,t}` (RAP's value input)
/// as the originals.
#[derive(Clone, Debug)]
pub struct TermPages {
    /// The term's inverse document frequency.
    pub idf: f64,
    /// The inverted list's pages, in page order.
    pub pages: Vec<Page>,
}

/// Serializes `terms` (index = term id) to `path` as a `BFPG` page
/// file, atomically (temp file + rename).
pub fn write_page_file(terms: &[TermPages], path: &Path) -> Result<(), PageFileError> {
    // Encode every page first so each payload length — and therefore
    // every page's absolute offset — is known before the directory is
    // written.
    let encoded: Vec<Vec<Bytes>> = terms
        .iter()
        .map(|t| {
            t.pages
                .iter()
                .map(|p| encode_postings(p.postings()))
                .collect()
        })
        .collect();
    let header_len = 4 + 4 + 1 + 4 + 4;
    let dir_len: usize = terms.iter().map(|t| 4 + 8 + t.pages.len() * 24).sum();
    let mut offset = (header_len + dir_len + 8) as u64;

    let mut buf = Vec::with_capacity(offset as usize);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(ENCODING_ID);
    buf.extend_from_slice(&0u32.to_le_bytes()); // reserved length
    buf.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for (t, pages) in terms.iter().zip(&encoded) {
        buf.extend_from_slice(&(t.pages.len() as u32).to_le_bytes());
        buf.extend_from_slice(&t.idf.to_le_bytes());
        for (page, payload) in t.pages.iter().zip(pages) {
            let byte_len = payload.len() as u32;
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(&byte_len.to_le_bytes());
            buf.extend_from_slice(&(page.len() as u32).to_le_bytes());
            buf.extend_from_slice(&page.checksum().to_le_bytes());
            offset += u64::from(byte_len);
        }
    }
    let trailer = fnv1a(&buf);
    buf.extend_from_slice(&trailer.to_le_bytes());
    for pages in &encoded {
        for payload in pages {
            buf.extend_from_slice(payload);
        }
    }
    write_atomically(&buf, path)
}

fn write_atomically(buf: &[u8], path: &Path) -> Result<(), PageFileError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// How a [`FilePageStore`] services payload reads.
// One variant: the enum and `open`'s `mode` parameter keep their shape
// only because the frozen `benchmark/src/adapter.rs` spells them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FileMode {
    /// One positioned (`pread`-style) read per page against the open
    /// descriptor — the out-of-core mode.
    #[default]
    Buffered,
}

#[derive(Clone, Copy, Debug)]
struct PageDir {
    offset: u64,
    byte_len: u32,
    n_postings: u32,
    checksum: u64,
}

#[derive(Clone, Debug)]
struct TermDir {
    idf: f64,
    pages: Vec<PageDir>,
}

#[derive(Debug, Default)]
struct FileState {
    stats: DiskStats,
    /// Head position, for the sequential/random classification — same
    /// rule as `DiskSim`.
    last: Option<PageId>,
}

/// A [`PageStore`] serving a `BFPG` page file.
///
/// Thread-safe: reads are serialized through the state mutex — one
/// head, like the device being modeled — which also keeps the
/// stats-update order identical to the read order.
pub struct FilePageStore {
    file: fs::File,
    dir: Vec<TermDir>,
    state: Mutex<FileState>,
}

impl fmt::Debug for FilePageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilePageStore")
            .field("n_terms", &self.dir.len())
            .finish()
    }
}

/// Positioned read. On unix this is a true `pread` (no shared cursor);
/// elsewhere it falls back to seek+read, which is safe because every
/// caller holds the store's state lock.
#[cfg(unix)]
fn pread(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn pread(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl FilePageStore {
    /// Opens a page file written by [`write_page_file`], loading and
    /// verifying the directory.
    pub fn open(path: &Path, _mode: FileMode) -> Result<Self, PageFileError> {
        let mut file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = Vec::new();
        let mut take = |n: usize, head: &mut Vec<u8>| -> Result<usize, PageFileError> {
            let start = head.len();
            // Sizes here come from the (not yet verified) directory
            // itself — bound them by the file before allocating, so a
            // corrupt count is an error, not a giant zeroed buffer.
            if (start + n) as u64 > file_len {
                return Err(PageFileError::Corrupt(format!(
                    "directory claims {n} bytes at {start}, file has {file_len}"
                )));
            }
            head.resize(start + n, 0);
            file.read_exact(&mut head[start..]).map_err(|e| {
                PageFileError::Corrupt(format!("truncated directory at byte {start}: {e}"))
            })?;
            Ok(start)
        };
        let at = take(8, &mut head)?;
        if &head[at..at + 4] != MAGIC {
            return Err(PageFileError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(head[at + 4..at + 8].try_into().unwrap());
        if version != VERSION {
            return Err(PageFileError::Corrupt(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let at = take(5, &mut head)?;
        let encoding = head[at];
        if encoding != ENCODING_ID {
            return Err(PageFileError::Corrupt(format!(
                "unknown encoding id {encoding} (expected {ENCODING_ID})"
            )));
        }
        let reserved = u32::from_le_bytes(head[at + 1..at + 5].try_into().unwrap());
        if reserved != 0 {
            return Err(PageFileError::Corrupt(format!(
                "reserved header length is {reserved}, must be 0"
            )));
        }
        let at = take(4, &mut head)?;
        let n_terms = u32::from_le_bytes(head[at..at + 4].try_into().unwrap()) as usize;
        // A term's directory entry is at least 12 bytes, so the file
        // bounds how many the count can honestly claim.
        let mut dir = Vec::with_capacity(n_terms.min((file_len / 12) as usize));
        for _ in 0..n_terms {
            let at = take(12, &mut head)?;
            let n_pages = u32::from_le_bytes(head[at..at + 4].try_into().unwrap()) as usize;
            let idf = f64::from_le_bytes(head[at + 4..at + 12].try_into().unwrap());
            let at = take(n_pages * 24, &mut head)?;
            let pages = (0..n_pages)
                .map(|i| {
                    let e = &head[at + i * 24..at + (i + 1) * 24];
                    PageDir {
                        offset: u64::from_le_bytes(e[0..8].try_into().unwrap()),
                        byte_len: u32::from_le_bytes(e[8..12].try_into().unwrap()),
                        n_postings: u32::from_le_bytes(e[12..16].try_into().unwrap()),
                        checksum: u64::from_le_bytes(e[16..24].try_into().unwrap()),
                    }
                })
                .collect();
            dir.push(TermDir { idf, pages });
        }
        let computed = fnv1a(&head);
        let mut trailer = [0u8; 8];
        file.read_exact(&mut trailer)
            .map_err(|e| PageFileError::Corrupt(format!("missing directory checksum: {e}")))?;
        let stored = u64::from_le_bytes(trailer);
        if stored != computed {
            return Err(PageFileError::Corrupt(format!(
                "directory checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            )));
        }
        Ok(FilePageStore {
            file,
            dir,
            state: Mutex::new(FileState::default()),
        })
    }

    /// Total pages across all lists.
    pub fn total_pages(&self) -> usize {
        self.dir.iter().map(|t| t.pages.len()).sum()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        self.state.lock().stats
    }

    /// Resets the counters and the modeled head position.
    pub fn reset_stats(&self) {
        *self.state.lock() = FileState::default();
    }

    /// Locates `id` in the directory. Errors match `DiskSim`'s exactly.
    fn entry(&self, id: PageId) -> IrResult<(&TermDir, &PageDir)> {
        let term = self
            .dir
            .get(id.term.index())
            .ok_or(IrError::UnknownTerm(id.term))?;
        let page = term
            .pages
            .get(id.page.index())
            .ok_or(IrError::PageOutOfRange {
                page: id,
                list_len: term.pages.len() as u32,
            })?;
        Ok((term, page))
    }

    /// Fetches and verifies one page. Any payload problem — short
    /// read, truncation, flipped bit, nonsensical directory entry —
    /// comes back as the retryable [`IrError::TornPage`]; this path
    /// never panics on a damaged file.
    fn load_verified(&self, id: PageId) -> IrResult<Page> {
        let (term, d) = self.entry(id)?;
        let torn = || IrError::TornPage { page: id };
        let len = d.byte_len as usize;
        if d.n_postings == 0 || len == 0 {
            return Err(torn());
        }
        let mut buf = vec![0u8; len];
        pread(&self.file, &mut buf, d.offset).map_err(|_| torn())?;
        let postings = decode_postings(Bytes::from(buf)).ok_or_else(torn)?;
        if postings.len() != d.n_postings as usize {
            return Err(torn());
        }
        let page = Page::new(id, postings.into(), term.idf);
        // `Page::new` recomputed the content checksum from what was
        // actually delivered; the directory holds the build-time one.
        if page.checksum() != d.checksum {
            return Err(torn());
        }
        Ok(page)
    }

    /// Counter update for one successful read — `DiskSim`'s rule.
    fn count_read(state: &mut FileState, id: PageId, entries: u64) {
        state.stats.reads += 1;
        state.stats.entries_read += entries;
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
    }
}

impl PageStore for FilePageStore {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        let mut state = self.state.lock();
        let page = self.load_verified(id)?;
        Self::count_read(&mut state, id, page.len() as u64);
        Ok(page)
    }

    /// `false`: a damaged payload surfaces as an `Err`, never as a
    /// delivered page that fails verification — so the buffer pool
    /// does not pay for a second checksum pass.
    fn can_tear(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use ir_types::{Posting, TermId};

    fn sample_terms(n_terms: u32, pages_per_term: u32) -> Vec<TermPages> {
        (0..n_terms)
            .map(|t| TermPages {
                idf: f64::from(t + 1) * 0.5,
                pages: (0..pages_per_term)
                    .map(|p| {
                        // Frequency-sorted within the page (f desc, d
                        // asc), like every page the builder cuts.
                        let postings: Vec<Posting> = (0..=p)
                            .map(|d| Posting::new(d, pages_per_term + p - d))
                            .collect();
                        Page::new(
                            PageId::new(TermId(t), p),
                            postings.into(),
                            f64::from(t + 1) * 0.5,
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("buffir-backend-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    #[test]
    fn round_trips_pages_bit_exactly() {
        let terms = sample_terms(3, 4);
        let path = tmpfile("round_trip.bfpg");
        write_page_file(&terms, &path).unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert_eq!(store.total_pages(), 12);
        for (t, term) in terms.iter().enumerate() {
            for (p, original) in term.pages.iter().enumerate() {
                let got = store.read_page(pid(t as u32, p as u32)).unwrap();
                assert_eq!(got.postings(), original.postings());
                assert_eq!(got.checksum(), original.checksum());
                assert_eq!(
                    got.max_weight().to_bits(),
                    original.max_weight().to_bits(),
                    "RAP's value input must survive the round trip bit-exactly"
                );
                assert!(got.is_intact());
            }
        }
    }

    #[test]
    fn stats_bookkeeping_matches_disksim_event_for_event() {
        let terms = sample_terms(2, 3);
        let path = tmpfile("stats_parity.bfpg");
        write_page_file(&terms, &path).unwrap();
        let file = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        let sim = DiskSim::new(terms.iter().map(|t| t.pages.clone()).collect());
        let ids = [
            pid(0, 0),
            pid(0, 1),
            pid(0, 2),
            pid(1, 0),
            pid(1, 2),
            pid(0, 0),
        ];
        for &id in &ids {
            let a = file.read_page(id).unwrap();
            let b = sim.read_page(id).unwrap();
            assert_eq!(a.postings(), b.postings());
        }
        assert_eq!(file.stats(), sim.stats());
        // And again from a reset head position.
        file.reset_stats();
        sim.reset_stats();
        for &id in &ids {
            file.read_page(id).unwrap();
            sim.read_page(id).unwrap();
        }
        assert_eq!(file.stats(), sim.stats());
        assert!(file.stats().sequential_reads > 0);
    }

    #[test]
    fn errors_match_disksim_and_bump_nothing() {
        let terms = sample_terms(1, 2);
        let path = tmpfile("errors.bfpg");
        write_page_file(&terms, &path).unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert!(matches!(
            store.read_page(pid(9, 0)),
            Err(IrError::UnknownTerm(_))
        ));
        assert!(matches!(
            store.read_page(pid(0, 7)),
            Err(IrError::PageOutOfRange { list_len: 2, .. })
        ));
        assert_eq!(store.stats(), DiskStats::default());
        // Only a delivered read counts.
        store.read_page(pid(0, 0)).unwrap();
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn truncated_payload_surfaces_torn_page_not_panic() {
        let terms = sample_terms(1, 3);
        let path = tmpfile("trunc.bfpg");
        write_page_file(&terms, &path).unwrap();
        let full = fs::read(&path).unwrap();
        // Cut the file mid-payload: the directory stays intact, so the
        // open succeeds, but the last pages are short reads.
        let cut = tmpfile("trunc_cut.bfpg");
        fs::write(&cut, &full[..full.len() - 10]).unwrap();
        let store = FilePageStore::open(&cut, FileMode::Buffered).unwrap();
        assert!(store.read_page(pid(0, 0)).is_ok());
        let err = store.read_page(pid(0, 2)).unwrap_err();
        assert!(matches!(err, IrError::TornPage { page } if page == pid(0, 2)));
        assert!(err.is_transient(), "torn pages are retryable");
        // The failed read bumped nothing.
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn flipped_payload_bit_surfaces_torn_page() {
        let terms = sample_terms(1, 2);
        let path = tmpfile("bitflip.bfpg");
        write_page_file(&terms, &path).unwrap();
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0x40; // inside the last page's payload
        let bad = tmpfile("bitflip_mut.bfpg");
        fs::write(&bad, &data).unwrap();
        let store = FilePageStore::open(&bad, FileMode::Buffered).unwrap();
        assert!(store.read_page(pid(0, 0)).is_ok());
        assert!(matches!(
            store.read_page(pid(0, 1)),
            Err(IrError::TornPage { .. })
        ));
    }

    #[test]
    fn corrupt_directory_is_rejected_at_open() {
        let terms = sample_terms(2, 2);
        let path = tmpfile("dir.bfpg");
        write_page_file(&terms, &path).unwrap();
        let original = fs::read(&path).unwrap();
        // Directory region: header (magic, version, encoding id,
        // reserved length, n_terms) through its trailer.
        let dir_end = 17 + 2 * (12 + 2 * 24) + 8;
        for offset in [0, 5, 13, 20, dir_end - 4] {
            let mut bad = original.clone();
            bad[offset] ^= 0x5a;
            let p = tmpfile("dir_mut.bfpg");
            fs::write(&p, &bad).unwrap();
            assert!(
                matches!(
                    FilePageStore::open(&p, FileMode::Buffered),
                    Err(PageFileError::Corrupt(_))
                ),
                "offset {offset}"
            );
        }
        // Truncating inside the directory is also an open-time error.
        let p = tmpfile("dir_trunc.bfpg");
        fs::write(&p, &original[..20]).unwrap();
        assert!(matches!(
            FilePageStore::open(&p, FileMode::Buffered),
            Err(PageFileError::Corrupt(_))
        ));
    }

    #[test]
    fn file_store_never_tears_silently() {
        let terms = sample_terms(1, 1);
        let path = tmpfile("tear.bfpg");
        write_page_file(&terms, &path).unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert!(!store.can_tear(), "damage is an Err, not a torn delivery");
    }

    #[test]
    fn foreign_encoding_reserved_length_and_version_are_rejected_at_open() {
        let terms = sample_terms(1, 1);
        let path = tmpfile("header_fields.bfpg");
        write_page_file(&terms, &path).unwrap();
        let original = fs::read(&path).unwrap();
        let dir_end = 17 + (12 + 24);
        // Bytes 4..8 are the version, 8 the encoding id, 9..13 the
        // reserved length. Each patch re-seals the directory trailer,
        // so the field check itself — not the checksum — must refuse.
        let patches: [(&str, usize, u8, &str); 6] = [
            ("encoding 1 (was bulk v-byte)", 8, 1, "encoding"),
            ("encoding 2 (was Re-Pair)", 8, 2, "encoding"),
            ("encoding 9", 8, 9, "encoding"),
            ("reserved length 1", 9, 1, "reserved"),
            ("reserved length 1 << 24", 12, 1, "reserved"),
            ("version 1", 4, 1, "version"),
        ];
        for (what, offset, value, names) in patches {
            let mut bad = original.clone();
            bad[offset] = value;
            let trailer = fnv1a(&bad[..dir_end]);
            bad[dir_end..dir_end + 8].copy_from_slice(&trailer.to_le_bytes());
            let p = tmpfile("header_fields_mut.bfpg");
            fs::write(&p, &bad).unwrap();
            match FilePageStore::open(&p, FileMode::Buffered) {
                Err(PageFileError::Corrupt(msg)) => {
                    assert!(msg.contains(names), "{what}: {msg}")
                }
                other => panic!("{what}: expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn term_count_beyond_the_file_is_an_error_not_an_allocation() {
        let terms = sample_terms(1, 1);
        let path = tmpfile("n_terms.bfpg");
        write_page_file(&terms, &path).unwrap();
        let mut bad = fs::read(&path).unwrap();
        bad[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let p = tmpfile("n_terms_mut.bfpg");
        fs::write(&p, &bad).unwrap();
        assert!(matches!(
            FilePageStore::open(&p, FileMode::Buffered),
            Err(PageFileError::Corrupt(_))
        ));
    }
}
