//! The `BFPG` page file: the index's inverted-list pages persisted to
//! one real file, served back through [`PageStore`] with positioned
//! (`pread`-style) reads.
//!
//! ```text
//! "BFPG" | u32 version (3) | u8 encoding id (0) | u32 section length
//! u32 n_docs | u32 page_size | u32 n_terms | u32 directory length
//! directory, per term in id order:  v-byte f_t
//!            then per page (⌈f_t / page_size⌉ of them):  v-byte byte_len,
//!                                                        u64 checksum ^ idf_t bits
//! section:   the section length's opaque bytes
//! u64 FNV-1a over header + directory + section
//! payload: every page's codec bytes, back to back in (term, page) order
//! ```
//!
//! The file stores only what the reader cannot derive: per term `f_t`,
//! per page the byte length of its [`crate::codec`] encoding and the
//! checksum [`Page::new`] computed at build time, sealed with the bits
//! of the `idf_t` the page is weighed with. The reader rebuilds the
//! rest. A page's offset is the payload's start plus the lengths before
//! it. Its posting count is `page_size`, the last page of a list the
//! remainder. `idf_t` is [`weights::idf`]`(n_docs, f_t)` — the builder's
//! own call — so rebuilt pages carry the builder's `w*_{d,t}` bit for
//! bit; [`PageFileWriter`] refuses any page the reader would rebuild
//! differently, and the seal makes a page read under any other `idf_t`
//! fail its checksum.
//!
//! The section is the caller's: `ir-index` keeps the term names, the
//! stopped flags and the list ordering there, and a pages-only export
//! writes none. Its length sits in the header field that was a
//! reserved length, always 0, so a file without a section is byte for
//! byte what it was before sections existed. There is one version and
//! one posting encoding: a file whose encoding id is not 0, or whose
//! version is not 3, is rejected at open as [`PageFileError::Corrupt`].
//!
//! [`FilePageStore::open`] reads the header, then the directory, the
//! section and the trailer in one read bounded by the file length, and
//! checks them before building anything from them: the directory and
//! section fit the file, `page_size ≥ 1`, the terms fit the directory,
//! every `f_t ≤ n_docs` and every `byte_len ≥ 1` (each at most 32
//! bits), the lengths sum to exactly the payload's length, and the FNV
//! trailer matches. Every failure is [`PageFileError::Corrupt`], never
//! a panic. The directory is then held as flat arrays; the payload is
//! fetched on demand. Every delivered page is decoded, rebuilt with
//! [`Page::new`] and its recomputed checksum — computed over the
//! *decoded* postings — compared against the stored one. A short read, a truncated file, a
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

use crate::codec::{decode_postings, encode_postings_into, put_vbyte, ENCODING_ID};
use crate::disk::{DiskStats, PageStore};
use crate::page::Page;
use ir_types::{sync, weights, IrError, IrResult, PageId, TermId};
use std::fmt;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"BFPG";
const VERSION: u32 = 3;

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

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit — a small, dependency-free integrity check.
fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, data)
}

/// FNV-1a continued over `data` from the hash `h` of the bytes before.
fn fnv1a_from(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Length of the fixed header: magic, version, encoding id, section
/// length, `n_docs`, `page_size`, `n_terms` and the directory length.
const HEADER_LEN: usize = 4 + 4 + 1 + 4 + 4 * 4;

/// `idf_t` as the builder computed it; a term with no postings has no
/// pages to carry one.
fn term_idf(n_docs: u32, f_t: u32) -> f64 {
    if f_t == 0 {
        0.0
    } else {
        weights::idf(n_docs, f_t)
    }
}

/// A page's stored checksum: the one [`Page::new`] computed, sealed
/// with the bits of the `idf_t` it is weighed with. The page checksum
/// covers only the page's id and postings, so without the seal a
/// directory whose `f_t` was changed without changing its page count
/// would serve the list's full pages with another `idf_t`. Sealing is
/// its own inverse: the reader unseals with the `idf_t` it derived.
fn seal(checksum: u64, idf: f64) -> u64 {
    checksum ^ idf.to_bits()
}

/// Postings on page `page` of a list of `f_t`: `page_size`, the last
/// page the remainder.
fn page_postings(f_t: u32, page_size: u32, page: u32) -> u32 {
    if page + 1 == f_t.div_ceil(page_size) {
        f_t - page * page_size
    } else {
        page_size
    }
}

/// Streams a `BFPG` page file to disk in a single pass, holding no
/// more than one page's bytes, and puts it in place atomically
/// (temp file + `fsync` + rename).
///
/// The file is assembled in `PATH.tmp`: a header whose directory length
/// [`finish`](Self::finish) fills in, then the directory as it grows.
/// Each page is encoded once and streamed to a second temp file,
/// `PATH.payload.tmp`, because the payload follows the directory and
/// its trailer, whose lengths the last page fixes. `finish` appends the
/// section, seals the directory and section, appends the payload
/// behind them with an in-kernel copy, syncs and renames. A writer
/// dropped before it finishes — an error, a panic — removes both temp
/// files and leaves whatever is at the path untouched. Terms come in term-id order, each
/// [`push_term`](Self::push_term) followed by exactly its
/// `⌈f_t / page_size⌉` pages in page order.
#[derive(Debug)]
pub struct PageFileWriter {
    /// The file being assembled, positioned after the directory so far.
    dir: BufWriter<fs::File>,
    /// The payload so far.
    payload: BufWriter<fs::File>,
    /// Where the file goes, and the two temp files.
    path: PathBuf,
    dir_tmp: PathBuf,
    payload_tmp: PathBuf,
    /// Directory bytes written so far.
    dir_len: u64,
    /// One page's codec bytes, or one directory entry's.
    scratch: Vec<u8>,
    n_docs: u32,
    page_size: u32,
    n_terms: u32,
    /// Terms started so far: the current term's id is one less.
    started: u32,
    /// The current term's `f_t` and `idf_t`.
    f_t: u32,
    idf: f64,
    /// The current term's pages that have arrived.
    pages: u32,
}

/// Write buffer of each temp file.
const STREAM_BUF: usize = 1 << 16;

/// `path` with `suffix` appended: a temp file beside it that is never
/// `path` itself, whatever its extension.
fn temp_path(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

impl PageFileWriter {
    /// A writer of the page file at `path` for `n_terms` lists over a
    /// collection of `n_docs` documents, cut into pages of `page_size`
    /// postings. Creates the two temp files beside `path`.
    ///
    /// # Errors
    /// [`PageFileError::Io`] if a temp file cannot be created.
    ///
    /// # Panics
    /// If `page_size` is 0 or either count exceeds `u32::MAX`.
    pub fn create(
        path: &Path,
        n_docs: u32,
        page_size: usize,
        n_terms: usize,
    ) -> Result<Self, PageFileError> {
        let page_size = u32::try_from(page_size)
            .ok()
            .filter(|&p| p > 0)
            .expect("page_size must be in 1..=u32::MAX");
        let n_terms = u32::try_from(n_terms).expect("more than u32::MAX terms");
        let (dir_tmp, payload_tmp) = (temp_path(path, ".tmp"), temp_path(path, ".payload.tmp"));
        let temp = |at: &Path| -> std::io::Result<_> {
            let file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(at)?;
            Ok(BufWriter::with_capacity(STREAM_BUF, file))
        };
        let dir = temp(&dir_tmp)?;
        let payload = match temp(&payload_tmp) {
            Ok(payload) => payload,
            Err(e) => {
                drop(dir);
                let _ = fs::remove_file(&dir_tmp);
                return Err(e.into());
            }
        };
        let mut writer = PageFileWriter {
            dir,
            payload,
            path: path.to_path_buf(),
            dir_tmp,
            payload_tmp,
            dir_len: 0,
            scratch: Vec::new(),
            n_docs,
            page_size,
            n_terms,
            started: 0,
            f_t: 0,
            idf: 0.0,
            pages: 0,
        };
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.push(ENCODING_ID);
        // `finish` sets the section and directory lengths.
        for v in [0, n_docs, page_size, n_terms, 0] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        writer.dir.write_all(&header)?;
        Ok(writer)
    }

    /// Starts the next term, whose list holds `f_t` postings.
    ///
    /// # Errors
    /// [`PageFileError::Io`] if the directory cannot be written.
    ///
    /// # Panics
    /// If the previous term still expects pages, every declared term has
    /// started, or `f_t` exceeds `n_docs`.
    pub fn push_term(&mut self, f_t: u32) -> Result<(), PageFileError> {
        assert_eq!(
            self.pages,
            self.f_t.div_ceil(self.page_size),
            "the previous term is missing pages"
        );
        assert!(self.started < self.n_terms, "more terms than declared");
        assert!(
            f_t <= self.n_docs,
            "f_t {f_t} exceeds n_docs {}",
            self.n_docs
        );
        self.started += 1;
        self.f_t = f_t;
        self.idf = term_idf(self.n_docs, f_t);
        self.pages = 0;
        self.scratch.clear();
        put_vbyte(&mut self.scratch, u64::from(f_t));
        self.put_dir()
    }

    /// Encodes the current term's next page onto the payload and
    /// records its byte length and build-time checksum.
    ///
    /// # Errors
    /// [`PageFileError::Io`] if a temp file cannot be written.
    ///
    /// # Panics
    /// If the current term already has all its pages, or the page is
    /// not one the reader would rebuild: a different id, another
    /// posting count than `f_t` and `page_size` give, or a
    /// `max_weight` that `idf(n_docs, f_t)` does not reproduce bit for
    /// bit.
    pub fn push_page(&mut self, page: &Page) -> Result<(), PageFileError> {
        assert!(
            self.started > 0 && self.pages < self.f_t.div_ceil(self.page_size),
            "more pages than the term's f_t gives"
        );
        let id = PageId::new(TermId(self.started - 1), self.pages);
        assert_eq!(page.id(), id, "pages must arrive in (term, page) order");
        assert_eq!(
            page.len(),
            page_postings(self.f_t, self.page_size, self.pages) as usize,
            "page {id} does not hold the posting count f_t and page_size give"
        );
        assert_eq!(
            weights::term_weight(page.max_freq(), self.idf).to_bits(),
            page.max_weight().to_bits(),
            "page {id}: idf(n_docs, f_t) does not reproduce its max_weight"
        );
        self.pages += 1;
        self.scratch.clear();
        encode_postings_into(page.postings(), &mut self.scratch);
        self.payload.write_all(&self.scratch)?;
        let len = self.scratch.len() as u64;
        self.scratch.clear();
        put_vbyte(&mut self.scratch, len);
        self.scratch
            .extend_from_slice(&seal(page.checksum(), self.idf).to_le_bytes());
        self.put_dir()
    }

    /// Appends the scratch bytes to the directory.
    fn put_dir(&mut self) -> Result<(), PageFileError> {
        self.dir.write_all(&self.scratch)?;
        self.dir_len += self.scratch.len() as u64;
        Ok(())
    }

    /// Appends `section` behind the directory, seals both with their
    /// lengths and the FNV trailer, appends the payload and puts the
    /// file at the path given to [`create`](Self::create).
    ///
    /// # Errors
    /// [`PageFileError::Io`] if a temp file cannot be read, written,
    /// synced or renamed; the temp files are removed and the path is
    /// left as it was.
    ///
    /// # Panics
    /// If fewer terms or pages arrived than were declared, or the
    /// directory or the section is over 4 GiB.
    pub fn finish(mut self, section: &[u8]) -> Result<(), PageFileError> {
        assert!(
            self.started == self.n_terms && self.pages == self.f_t.div_ceil(self.page_size),
            "fewer terms or pages than declared"
        );
        let dir_len = u32::try_from(self.dir_len).expect("directory over 4 GiB");
        let section_len = u32::try_from(section.len()).expect("section over 4 GiB");
        self.dir.write_all(section)?;
        self.dir.flush()?;
        self.payload.flush()?;
        let (mut file, mut payload) = (self.dir.get_ref(), self.payload.get_ref());
        for (at, len) in [(9, section_len), (HEADER_LEN as u64 - 4, dir_len)] {
            file.seek(SeekFrom::Start(at))?;
            file.write_all(&len.to_le_bytes())?;
        }
        // The trailer hashes the header, the directory and the section,
        // read back.
        file.seek(SeekFrom::Start(0))?;
        let mut sealed = file.take(HEADER_LEN as u64 + self.dir_len + u64::from(section_len));
        let mut trailer = FNV_OFFSET;
        self.scratch.resize(STREAM_BUF, 0);
        loop {
            let n = sealed.read(&mut self.scratch)?;
            if n == 0 {
                break;
            }
            trailer = fnv1a_from(trailer, &self.scratch[..n]);
        }
        file.seek(SeekFrom::End(0))?;
        file.write_all(&trailer.to_le_bytes())?;
        payload.seek(SeekFrom::Start(0))?;
        std::io::copy(&mut payload, &mut file)?;
        file.sync_all()?;
        fs::rename(&self.dir_tmp, &self.path)?;
        Ok(())
    }
}

impl Drop for PageFileWriter {
    /// Removes the temp files: the payload's always, the file's unless
    /// [`finish`](Self::finish) renamed it into place.
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.payload_tmp);
        let _ = fs::remove_file(&self.dir_tmp);
    }
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

/// One term's directory entry, as rebuilt at open.
#[derive(Clone, Copy, Debug)]
struct TermDir {
    /// `f_t`: postings in the list.
    f_t: u32,
    /// Index of the list's first page in the per-page arrays.
    first_page: u32,
    idf: f64,
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
    n_docs: u32,
    page_size: u32,
    terms: Vec<TermDir>,
    /// The section's bytes, as the writer was given them.
    section: Vec<u8>,
    /// Every page's absolute offset, then the payload's end: page `i`
    /// spans `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u64>,
    /// Every page's build-time checksum, unsealed with the `idf_t` its
    /// list's `f_t` gives.
    checksums: Vec<u64>,
    state: Mutex<FileState>,
}

impl fmt::Debug for FilePageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilePageStore")
            .field("n_terms", &self.terms.len())
            .field("n_pages", &self.checksums.len())
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
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

fn corrupt(msg: String) -> PageFileError {
    PageFileError::Corrupt(msg)
}

/// A cursor over the directory bytes.
struct DirReader<'a> {
    dir: &'a [u8],
    at: usize,
}

impl DirReader<'_> {
    /// A v-byte field of at most 32 bits; `None` if the directory ends
    /// inside it or it overflows.
    fn vbyte(&mut self) -> Option<u32> {
        let mut v: u64 = 0;
        for shift in (0..35).step_by(7) {
            let byte = *self.dir.get(self.at)?;
            self.at += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 != 0 {
                return u32::try_from(v).ok();
            }
        }
        None
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.dir.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }
}

impl FilePageStore {
    /// Opens a page file written by [`PageFileWriter`], reading its
    /// header, directory and trailer and checking them (see the
    /// module doc) before the directory is rebuilt.
    pub fn open(path: &Path, _mode: FileMode) -> Result<Self, PageFileError> {
        let file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (HEADER_LEN + 8) as u64 {
            return Err(corrupt(format!(
                "{file_len} bytes cannot hold a header and trailer"
            )));
        }
        let mut head = vec![0u8; HEADER_LEN];
        pread(&file, &mut head, 0)?;
        if &head[..4] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let field = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().unwrap());
        let version = field(4);
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let encoding = head[8];
        if encoding != ENCODING_ID {
            return Err(corrupt(format!(
                "unknown encoding id {encoding} (expected {ENCODING_ID})"
            )));
        }
        let (section_len, n_docs, page_size, n_terms, dir_len) =
            (field(9), field(13), field(17), field(21), field(25));
        let dir_end = HEADER_LEN as u64 + u64::from(dir_len);
        let sealed_end = dir_end + u64::from(section_len);
        if sealed_end + 8 > file_len {
            return Err(corrupt(format!(
                "a {dir_len}-byte directory and a {section_len}-byte section \
                 do not fit a {file_len}-byte file"
            )));
        }
        if page_size == 0 {
            return Err(corrupt("page size 0".into()));
        }
        // Every term takes at least one directory byte.
        if n_terms > dir_len {
            return Err(corrupt(format!(
                "{n_terms} terms cannot fit a {dir_len}-byte directory"
            )));
        }
        head.resize(sealed_end as usize + 8, 0);
        pread(&file, &mut head[HEADER_LEN..], HEADER_LEN as u64)?;
        let (dir_end, sealed_end) = (dir_end as usize, sealed_end as usize);

        let mut r = DirReader {
            dir: &head[HEADER_LEN..dir_end],
            at: 0,
        };
        let mut terms = Vec::with_capacity(n_terms as usize);
        // A page's entry takes at least nine bytes.
        let max_pages = dir_len as usize / 9;
        let mut offsets = Vec::with_capacity(max_pages + 1);
        let mut checksums = Vec::with_capacity(max_pages);
        let mut offset = sealed_end as u64 + 8; // the payload's start
        for t in 0..n_terms {
            let f_t = r
                .vbyte()
                .ok_or_else(|| corrupt(format!("term {t}: unreadable f_t")))?;
            if f_t > n_docs {
                return Err(corrupt(format!(
                    "term {t}: f_t {f_t} exceeds n_docs {n_docs}"
                )));
            }
            let idf = term_idf(n_docs, f_t);
            terms.push(TermDir {
                f_t,
                first_page: checksums.len() as u32,
                idf,
            });
            for p in 0..f_t.div_ceil(page_size) {
                let (len, checksum) = r
                    .vbyte()
                    .zip(r.u64())
                    .ok_or_else(|| corrupt(format!("page t{t}:p{p}: unreadable entry")))?;
                if len == 0 {
                    return Err(corrupt(format!("page t{t}:p{p}: zero length")));
                }
                offsets.push(offset);
                checksums.push(seal(checksum, idf));
                offset += u64::from(len);
            }
        }
        if r.at != r.dir.len() {
            return Err(corrupt(format!(
                "{} directory bytes after the last term",
                r.dir.len() - r.at
            )));
        }
        if offset != file_len {
            return Err(corrupt(format!(
                "page lengths end at byte {offset}, the payload at {file_len}"
            )));
        }
        offsets.push(offset);

        let stored = u64::from_le_bytes(head[sealed_end..].try_into().unwrap());
        let computed = fnv1a(&head[..sealed_end]);
        if stored != computed {
            return Err(corrupt(format!(
                "directory checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            )));
        }
        Ok(FilePageStore {
            file,
            n_docs,
            page_size,
            terms,
            section: head[dir_end..sealed_end].to_vec(),
            offsets,
            checksums,
            state: Mutex::new(FileState::default()),
        })
    }

    /// Total pages across all lists.
    pub fn total_pages(&self) -> usize {
        self.checksums.len()
    }

    /// `N`, the collection's documents.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Postings on a full page.
    pub fn page_size(&self) -> usize {
        self.page_size as usize
    }

    /// Every list's `f_t`, in term-id order.
    pub fn list_lengths(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.terms.iter().map(|t| t.f_t)
    }

    /// Bytes of the payload, every page's encoding back to back.
    pub fn payload_bytes(&self) -> u64 {
        self.offsets[self.offsets.len() - 1] - self.offsets[0]
    }

    /// The section given to [`PageFileWriter::finish`]; empty in a
    /// pages-only export.
    pub fn section(&self) -> &[u8] {
        &self.section
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        sync::lock(&self.state).stats
    }

    /// Resets the counters and the modeled head position.
    pub fn reset_stats(&self) {
        *sync::lock(&self.state) = FileState::default();
    }

    /// Locates `id`: its list's `idf_t`, its index in the per-page
    /// arrays and its posting count. Errors match `DiskSim`'s exactly.
    fn entry(&self, id: PageId) -> IrResult<(f64, usize, usize)> {
        let term = self
            .terms
            .get(id.term.index())
            .ok_or(IrError::UnknownTerm(id.term))?;
        let list_len = term.f_t.div_ceil(self.page_size);
        if id.page.0 >= list_len {
            return Err(IrError::PageOutOfRange { page: id, list_len });
        }
        Ok((
            term.idf,
            term.first_page as usize + id.page.index(),
            page_postings(term.f_t, self.page_size, id.page.0) as usize,
        ))
    }

    /// Fetches and verifies one page. Any payload problem — short
    /// read, truncation, flipped bit, undecodable bytes — comes back as
    /// the retryable [`IrError::TornPage`]; this path never panics on a
    /// damaged file.
    fn load_verified(&self, id: PageId) -> IrResult<Page> {
        let (idf, i, n_postings) = self.entry(id)?;
        let torn = || IrError::TornPage { page: id };
        let mut buf = vec![0u8; (self.offsets[i + 1] - self.offsets[i]) as usize];
        pread(&self.file, &mut buf, self.offsets[i]).map_err(|_| torn())?;
        let postings = decode_postings(&buf).ok_or_else(torn)?;
        if postings.len() != n_postings {
            return Err(torn());
        }
        let page = Page::new(id, postings.into(), idf);
        // `Page::new` recomputed the content checksum from what was
        // actually delivered; the directory holds the build-time one.
        if page.checksum() != self.checksums[i] {
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
        let mut state = sync::lock(&self.state);
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
    use ir_types::Posting;

    const N_DOCS: u32 = 64;
    const PAGE_SIZE: u32 = 4;

    /// `n_terms` lists of `pages_per_term` pages each, cut the builder's
    /// way: full pages, then a last page of 1–4 postings, every page
    /// built with `idf(N_DOCS, f_t)`.
    fn sample_terms(n_terms: u32, pages_per_term: u32) -> Vec<Vec<Page>> {
        (0..n_terms)
            .map(|t| {
                let f_t = (pages_per_term - 1) * PAGE_SIZE + 1 + t % PAGE_SIZE;
                let idf = weights::idf(N_DOCS, f_t);
                // Frequency-sorted (f desc, d asc), with ties.
                let list: Vec<Posting> = (0..f_t)
                    .map(|d| Posting::new(d, 1 + (f_t - d) / 2))
                    .collect();
                list.chunks(PAGE_SIZE as usize)
                    .enumerate()
                    .map(|(p, chunk)| Page::new(pid(t, p as u32), chunk.into(), idf))
                    .collect()
            })
            .collect()
    }

    fn write_page_file(terms: &[Vec<Page>], path: &Path) -> Result<(), PageFileError> {
        let mut file = PageFileWriter::create(path, N_DOCS, PAGE_SIZE as usize, terms.len())?;
        for pages in terms {
            file.push_term(pages.iter().map(|p| p.len() as u32).sum())?;
            for page in pages {
                file.push_page(page)?;
            }
        }
        file.finish(&[])
    }

    /// A one-term writer at a fresh temp path.
    fn one_term_writer(name: &str) -> PageFileWriter {
        PageFileWriter::create(&tmpfile(name), N_DOCS, PAGE_SIZE as usize, 1).unwrap()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("buffir-backend-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    /// The sample file's bytes and where its directory ends.
    fn sample_file(name: &str, n_terms: u32, pages_per_term: u32) -> (Vec<Page>, Vec<u8>, usize) {
        let terms = sample_terms(n_terms, pages_per_term);
        let path = tmpfile(name);
        write_page_file(&terms, &path).unwrap();
        let data = fs::read(&path).unwrap();
        let dir_len = u32::from_le_bytes(data[25..29].try_into().unwrap()) as usize;
        (terms.concat(), data, HEADER_LEN + dir_len)
    }

    /// Writes `data` with the directory's FNV trailer recomputed, so a
    /// patched header or directory reaches the structural checks
    /// instead of the checksum, and opens it.
    fn open_resealed(
        name: &str,
        mut data: Vec<u8>,
        dir_end: usize,
    ) -> Result<FilePageStore, PageFileError> {
        let trailer = fnv1a(&data[..dir_end]);
        data[dir_end..dir_end + 8].copy_from_slice(&trailer.to_le_bytes());
        let p = tmpfile(name);
        fs::write(&p, &data).unwrap();
        FilePageStore::open(&p, FileMode::Buffered)
    }

    fn assert_corrupt(got: Result<FilePageStore, PageFileError>, names: &str, what: &str) {
        match got {
            Err(PageFileError::Corrupt(msg)) => assert!(msg.contains(names), "{what}: {msg}"),
            other => panic!("{what}: expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_pages_bit_exactly() {
        let terms = sample_terms(3, 4);
        let path = tmpfile("round_trip.bfpg");
        write_page_file(&terms, &path).unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert_eq!(store.total_pages(), 12);
        assert_eq!(
            (store.n_docs(), store.page_size()),
            (N_DOCS, PAGE_SIZE as usize)
        );
        assert!(
            store.section().is_empty(),
            "a pages-only file has no section"
        );
        let f_ts: Vec<u32> = terms
            .iter()
            .map(|p| p.iter().map(|p| p.len() as u32).sum())
            .collect();
        assert_eq!(store.list_lengths().collect::<Vec<_>>(), f_ts);
        for (t, pages) in terms.iter().enumerate() {
            assert!(
                pages.last().unwrap().len() < PAGE_SIZE as usize,
                "a partial last page"
            );
            for (p, original) in pages.iter().enumerate() {
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
    fn the_file_holds_only_lengths_checksums_and_f_t() {
        let (pages, data, dir_end) = sample_file("sizing.bfpg", 3, 4);
        let payload: usize = pages
            .iter()
            .map(|p| crate::codec::encode_postings(p.postings()).len())
            .sum();
        // Three one-byte f_t, twelve one-byte lengths and checksums.
        assert_eq!(dir_end, HEADER_LEN + 3 + 12 * (1 + 8));
        assert_eq!(data.len(), dir_end + 8 + payload);
    }

    #[test]
    #[should_panic(expected = "more pages than the term's f_t gives")]
    fn a_writer_refuses_pages_beyond_the_terms_f_t() {
        let page = &sample_terms(1, 1)[0][0];
        let mut file = one_term_writer("beyond_f_t.bfpg");
        file.push_term(page.len() as u32).unwrap();
        file.push_page(page).unwrap();
        file.push_page(page).unwrap();
    }

    #[test]
    #[should_panic(expected = "does not reproduce its max_weight")]
    fn a_writer_refuses_a_page_the_reader_would_weigh_differently() {
        let postings: Vec<Posting> = vec![Posting::new(0, 3), Posting::new(1, 1)];
        let mut file = one_term_writer("weighed_differently.bfpg");
        file.push_term(2).unwrap();
        file.push_page(&Page::new(pid(0, 0), postings.into(), 0.5))
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "does not hold the posting count")]
    fn a_writer_refuses_a_short_page_before_the_last() {
        let idf = weights::idf(N_DOCS, 6);
        let postings: Vec<Posting> = (0..3).map(|d| Posting::new(d, 1)).collect();
        let mut file = one_term_writer("short_page.bfpg");
        file.push_term(6).unwrap();
        file.push_page(&Page::new(pid(0, 0), postings.into(), idf))
            .unwrap();
    }

    /// The two temp files a writer of `path` assembles it in.
    fn temps(path: &Path) -> [std::path::PathBuf; 2] {
        [temp_path(path, ".tmp"), temp_path(path, ".payload.tmp")]
    }

    #[test]
    fn a_failed_export_leaves_no_temp_file_and_the_old_file_in_place() {
        let terms = sample_terms(3, 4);
        let path = tmpfile("failed_export.bfpg");
        write_page_file(&terms[..1], &path).unwrap();
        let old = fs::read(&path).unwrap();
        let unchanged = |what: &str| {
            for temp in temps(&path) {
                assert!(!temp.exists(), "{what}: {} left behind", temp.display());
            }
            assert_eq!(
                fs::read(&path).unwrap(),
                old,
                "{what}: the old file changed"
            );
        };
        // A writer abandoned halfway, as an error returned between two
        // pages abandons it.
        let mut file = PageFileWriter::create(&path, N_DOCS, PAGE_SIZE as usize, 3).unwrap();
        for temp in temps(&path) {
            assert!(temp.exists(), "{} not created", temp.display());
        }
        file.push_term(terms[0].iter().map(|p| p.len() as u32).sum())
            .unwrap();
        file.push_page(&terms[0][0]).unwrap();
        drop(file);
        unchanged("dropped");
        // A writer that panics on a page out of order.
        let panicked = std::panic::catch_unwind(|| {
            let mut file = PageFileWriter::create(&path, N_DOCS, PAGE_SIZE as usize, 3).unwrap();
            file.push_term(terms[0].iter().map(|p| p.len() as u32).sum())
                .unwrap();
            file.push_page(&terms[0][1]).unwrap();
        });
        assert!(panicked.is_err());
        unchanged("panicked");
        // A finish whose rename fails: the path is a directory.
        let dir = tmpfile("failed_export_dir.bfpg");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("kept"), b"kept").unwrap();
        match write_page_file(&terms, &dir) {
            Err(PageFileError::Io(_)) => {}
            other => panic!("finish onto a directory: {other:?}"),
        }
        for temp in temps(&dir) {
            assert!(
                !temp.exists(),
                "rename failed: {} left behind",
                temp.display()
            );
        }
        assert_eq!(fs::read(dir.join("kept")).unwrap(), b"kept");
        // The same writer's bytes, finished, replace the old file; a
        // path that itself ends in `.tmp` is kept too.
        for path in [path, tmpfile("failed_export.tmp")] {
            write_page_file(&terms, &path).unwrap();
            assert_ne!(fs::read(&path).unwrap(), old);
            for temp in temps(&path) {
                assert!(!temp.exists(), "finished: {} left behind", temp.display());
            }
        }
    }

    #[test]
    fn stats_bookkeeping_matches_disksim_event_for_event() {
        let terms = sample_terms(2, 3);
        let path = tmpfile("stats_parity.bfpg");
        write_page_file(&terms, &path).unwrap();
        let file = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        let sim = DiskSim::new(terms.clone());
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
        // Cut before open: the lengths no longer tile the payload.
        let cut = tmpfile("trunc_cut.bfpg");
        fs::write(&cut, &full[..full.len() - 10]).unwrap();
        assert_corrupt(
            FilePageStore::open(&cut, FileMode::Buffered),
            "payload",
            "cut before open",
        );
        // Cut under an open store: the last pages are short reads.
        fs::write(&cut, &full).unwrap();
        let store = FilePageStore::open(&cut, FileMode::Buffered).unwrap();
        fs::OpenOptions::new()
            .write(true)
            .open(&cut)
            .unwrap()
            .set_len(full.len() as u64 - 10)
            .unwrap();
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
        let (_, original, dir_end) = sample_file("dir.bfpg", 2, 2);
        for offset in [0, 5, 13, 17, 21, 25, 30, dir_end - 4, dir_end + 3] {
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
        // Truncating inside the header or directory is also an open-time
        // error.
        for keep in [20, HEADER_LEN + 8, dir_end] {
            let p = tmpfile("dir_trunc.bfpg");
            fs::write(&p, &original[..keep]).unwrap();
            assert!(
                matches!(
                    FilePageStore::open(&p, FileMode::Buffered),
                    Err(PageFileError::Corrupt(_))
                ),
                "keep {keep}"
            );
        }
    }

    #[test]
    fn a_directory_whose_lengths_do_not_tile_the_payload_is_refused() {
        let (_, original, dir_end) = sample_file("tile.bfpg", 2, 2);
        // Byte HEADER_LEN is term 0's one-byte f_t; the next is its
        // first page's one-byte length.
        let mut bad = original.clone();
        assert_eq!(bad[HEADER_LEN + 1] & 0x80, 0x80, "a one-byte length");
        bad[HEADER_LEN + 1] += 1;
        assert_corrupt(
            open_resealed("tile_mut.bfpg", bad, dir_end),
            "payload",
            "length + 1",
        );
        // A byte of length moved from one page to the next still tiles:
        // the open succeeds, and both pages are torn.
        let mut moved = original.clone();
        moved[HEADER_LEN + 1] -= 1;
        moved[HEADER_LEN + 1 + 9] += 1;
        let store = open_resealed("tile_moved.bfpg", moved, dir_end).unwrap();
        assert!(matches!(
            store.read_page(pid(0, 0)),
            Err(IrError::TornPage { .. })
        ));
        assert!(matches!(
            store.read_page(pid(0, 1)),
            Err(IrError::TornPage { .. })
        ));
        assert!(store.read_page(pid(1, 0)).is_ok());
    }

    #[test]
    fn resealed_structural_damage_is_refused_at_open() {
        let (_, original, dir_end) = sample_file("structure.bfpg", 2, 2);
        let f_t = HEADER_LEN;
        let patches: [(&str, usize, &[u8], &str); 6] = [
            ("page size 0", 17, &[0], "page size"),
            ("f_t above n_docs", f_t, &[0x80 | 65], "exceeds n_docs"),
            ("zero page length", f_t + 1, &[0x80], "zero length"),
            ("an f_t over 32 bits", f_t, &[0x7f; 5], "unreadable f_t"),
            ("n_terms 3", 21, &[3], "unreadable f_t"),
            ("n_terms 1", 21, &[1], "after the last term"),
        ];
        for (what, offset, bytes, names) in patches {
            let mut bad = original.clone();
            bad[offset..offset + bytes.len()].copy_from_slice(bytes);
            assert_corrupt(
                open_resealed("structure_mut.bfpg", bad, dir_end),
                names,
                what,
            );
        }
    }

    #[test]
    fn a_page_count_preserving_f_t_edit_tears_every_page() {
        // f_t 9 → 12 keeps three pages of four, so the directory still
        // parses and tiles; the seal makes the full pages, now weighed
        // with idf(N, 12), fail their checksums.
        let (_, original, dir_end) = sample_file("f_t_edit.bfpg", 1, 3);
        assert_eq!(original[HEADER_LEN], 0x80 | 9);
        let mut bad = original.clone();
        bad[HEADER_LEN] = 0x80 | 12;
        let store = open_resealed("f_t_edit_mut.bfpg", bad, dir_end).unwrap();
        for p in 0..3 {
            assert!(matches!(
                store.read_page(pid(0, p)),
                Err(IrError::TornPage { .. })
            ));
        }
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
        let (_, original, dir_end) = sample_file("header_fields.bfpg", 1, 1);
        // Bytes 4..8 are the version, 8 the encoding id, 9..13 the
        // section length (once a reserved length). Each patch re-seals
        // the directory trailer, so the field check itself — not the
        // checksum — must refuse.
        let patches: [(&str, usize, u8, &str); 6] = [
            ("encoding 1 (was bulk v-byte)", 8, 1, "encoding"),
            ("encoding 2 (was Re-Pair)", 8, 2, "encoding"),
            ("encoding 9", 8, 9, "encoding"),
            ("a section longer than the file", 12, 1, "do not fit"),
            ("version 1", 4, 1, "version"),
            ("version 2", 4, 2, "version"),
        ];
        for (what, offset, value, names) in patches {
            let mut bad = original.clone();
            bad[offset] = value;
            assert_corrupt(
                open_resealed("header_fields_mut.bfpg", bad, dir_end),
                names,
                what,
            );
        }
        // A section comes back as written, and its bytes are under the
        // trailer: one flipped byte of it fails the checksum.
        let path = tmpfile("section.bfpg");
        let page = &sample_terms(1, 1)[0][0];
        let mut file = one_term_writer("section.bfpg");
        file.push_term(page.len() as u32).unwrap();
        file.push_page(page).unwrap();
        file.finish(b"lexicon").unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert_eq!(store.section(), b"lexicon");
        let mut bad = fs::read(&path).unwrap();
        bad[dir_end + 3] ^= 1;
        fs::write(&path, &bad).unwrap();
        assert_corrupt(
            FilePageStore::open(&path, FileMode::Buffered),
            "checksum",
            "a flipped section byte",
        );
    }

    #[test]
    fn a_version_2_file_is_refused() {
        // A one-term, one-page file in the version-2 layout: every page's
        // offset, length, posting count and checksum, and each term's
        // page count and stored idf.
        let page = &sample_terms(1, 1)[0][0];
        let payload = crate::codec::encode_postings(page.postings());
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.push(ENCODING_ID);
        v2.extend_from_slice(&0u32.to_le_bytes());
        v2.extend_from_slice(&1u32.to_le_bytes()); // n_terms
        v2.extend_from_slice(&1u32.to_le_bytes()); // n_pages
        v2.extend_from_slice(&weights::idf(N_DOCS, page.len() as u32).to_le_bytes());
        v2.extend_from_slice(&(17u64 + 12 + 24 + 8).to_le_bytes());
        v2.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v2.extend_from_slice(&(page.len() as u32).to_le_bytes());
        v2.extend_from_slice(&page.checksum().to_le_bytes());
        let trailer = fnv1a(&v2);
        v2.extend_from_slice(&trailer.to_le_bytes());
        v2.extend_from_slice(&payload);
        let p = tmpfile("v2.bfpg");
        fs::write(&p, &v2).unwrap();
        assert_corrupt(
            FilePageStore::open(&p, FileMode::Buffered),
            "version 2",
            "a v2 file",
        );
    }

    #[test]
    fn counts_beyond_the_file_are_errors_not_allocations() {
        let (_, original, dir_end) = sample_file("counts.bfpg", 1, 1);
        for (what, offset, names) in [
            ("n_terms", 21, "terms cannot fit"),
            ("directory length", 25, "do not fit"),
        ] {
            let mut bad = original.clone();
            bad[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_corrupt(open_resealed("counts_mut.bfpg", bad, dir_end), names, what);
        }
    }
}
