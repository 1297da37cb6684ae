//! The unit of disk transfer: one page of a frequency-sorted inverted
//! list.

use ir_types::{PageId, Posting};
use std::sync::Arc;

/// A disk page holding up to `PageSize` `(d, f_{d,t})` entries of one
/// term's inverted list. The paper's organization is frequency order
/// (`f_{d,t}` descending); the traditional doc-id order is also
/// supported (see [`ListOrdering`](ir_types::ListOrdering)).
///
/// Two pieces of metadata ride on the page, both computed at index
/// build time (the paper's "database creation/update time", §3.3):
///
/// * [`max_freq`](Page::max_freq) — the largest `f_{d,t}` on the page;
/// * [`max_weight`](Page::max_weight) — `w*_{d,t} = max_freq · idf_t`,
///   the quantity RAP multiplies with the current query's `w_{q,t}` to
///   obtain the page's replacement value.
///
/// A page is a range of a shared `Arc<[Posting]>`: the buffer manager,
/// the disk simulator and an evaluator holding a page under scan all
/// refer to the same allocation, and "copying" a page is a pointer
/// bump. A page built by [`Page::new`] owns its whole allocation; a
/// page [`DiskSim`](crate::DiskSim) serves is a window on the one slab
/// that holds every posting of the index.
#[derive(Clone, Debug)]
pub struct Page {
    id: PageId,
    slab: Arc<[Posting]>,
    /// The page is `slab[start..end]`.
    start: u32,
    end: u32,
    max_freq: u32,
    max_weight: f64,
    checksum: u64,
}

/// FNV-1a over the page address and every posting — the "stored"
/// checksum a real page format would carry in its header, computed at
/// page-build time and verified on delivery.
fn content_checksum(id: PageId, postings: &[Posting]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(id.term.0);
    mix(id.page.0);
    for p in postings {
        mix(p.doc.0);
        mix(p.freq);
    }
    h
}

/// The header [`Page::new`] computes for `postings` at `id`:
/// `max_freq`, `w*_{d,t}` and the checksum.
pub(crate) fn header(id: PageId, postings: &[Posting], idf: f64) -> (u32, f64, u64) {
    debug_assert!(!postings.is_empty(), "pages are never empty");
    let max_freq = postings.iter().map(|p| p.freq).max().unwrap_or(0);
    let max_weight = ir_types::weights::term_weight(max_freq, idf);
    (max_freq, max_weight, content_checksum(id, postings))
}

impl Page {
    /// Creates a page. `idf` is the term's inverse document frequency,
    /// used to precompute the RAP value component.
    ///
    /// # Panics
    /// Panics (debug builds) if `postings` is empty — the index builder
    /// never emits an empty page.
    pub fn new(id: PageId, postings: Arc<[Posting]>, idf: f64) -> Self {
        let end = u32::try_from(postings.len()).expect("a page holds at most u32::MAX postings");
        let (max_freq, max_weight, checksum) = header(id, &postings, idf);
        Page::from_parts(id, postings, 0, end, max_freq, max_weight, checksum)
    }

    /// Reassembles a page from stored metadata, trusting it as is.
    pub(crate) fn from_parts(
        id: PageId,
        slab: Arc<[Posting]>,
        start: u32,
        end: u32,
        max_freq: u32,
        max_weight: f64,
        checksum: u64,
    ) -> Self {
        Page {
            id,
            slab,
            start,
            end,
            max_freq,
            max_weight,
            checksum,
        }
    }

    /// The checksum stored with the page at build time.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Does the page content still match its stored checksum? `false`
    /// marks a torn read: the delivered image and the checksum written
    /// at build time disagree, so the copy must not be trusted.
    pub fn is_intact(&self) -> bool {
        self.checksum == content_checksum(self.id, self.postings())
    }

    /// A copy of this page whose stored checksum no longer matches its
    /// content — how a fault injector models a torn read. The posting
    /// data itself is shared untouched; only the delivered copy's
    /// integrity metadata is damaged, exactly what
    /// [`is_intact`](Page::is_intact) exists to catch.
    pub fn into_torn(mut self) -> Page {
        self.checksum ^= 0xdead_beef_dead_beef;
        self
    }

    /// The page's address.
    #[inline]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// The decoded entries, in frequency order.
    #[inline]
    pub fn postings(&self) -> &[Posting] {
        &self.slab[self.start as usize..self.end as usize]
    }

    /// Number of entries on the page.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Pages are never empty, but the method exists for completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Largest `f_{d,t}` on the page.
    #[inline]
    pub fn max_freq(&self) -> u32 {
        self.max_freq
    }

    /// Smallest `f_{d,t}` on the page — useful for deciding whether a
    /// threshold cut falls inside this page.
    #[inline]
    pub fn min_freq(&self) -> u32 {
        self.postings().iter().map(|p| p.freq).min().unwrap_or(0)
    }

    /// `w*_{d,t}` — the highest document term weight on the page,
    /// precomputed at build time for RAP (§3.3, Eq. 6).
    #[inline]
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::TermId;

    fn page(entries: &[(u32, u32)], idf: f64) -> Page {
        let postings: Vec<Posting> = entries.iter().map(|&(d, f)| Posting::new(d, f)).collect();
        Page::new(PageId::new(TermId(7), 0), postings.into(), idf)
    }

    #[test]
    fn metadata_reflects_first_and_last_entries() {
        let p = page(&[(3, 9), (1, 5), (2, 5), (8, 1)], 2.0);
        assert_eq!(p.max_freq(), 9);
        assert_eq!(p.min_freq(), 1);
        assert_eq!(p.len(), 4);
        assert!((p.max_weight() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn clone_shares_postings() {
        let p = page(&[(1, 2)], 1.0);
        let q = p.clone();
        assert!(
            std::ptr::eq(p.postings().as_ptr(), q.postings().as_ptr()),
            "cloned pages must share the posting allocation"
        );
    }

    #[test]
    fn fresh_pages_verify_and_torn_copies_do_not() {
        let p = page(&[(3, 9), (1, 5)], 2.0);
        assert!(p.is_intact());
        assert_ne!(p.checksum(), 0);
        let torn = p.clone().into_torn();
        assert!(!torn.is_intact(), "torn copy must fail verification");
        // Tearing damages only the delivered copy's metadata: the data
        // is shared and the original still verifies.
        assert!(p.is_intact());
        assert_eq!(torn.postings(), p.postings());
    }

    #[test]
    fn checksum_covers_the_page_address() {
        let postings: Vec<Posting> = vec![Posting::new(1, 2)];
        let a = Page::new(PageId::new(TermId(7), 0), postings.clone().into(), 1.0);
        let b = Page::new(PageId::new(TermId(7), 1), postings.into(), 1.0);
        assert_ne!(
            a.checksum(),
            b.checksum(),
            "same content at a different address must checksum differently"
        );
    }

    #[test]
    fn metadata_is_order_independent() {
        // A doc-ordered page (frequencies not monotone) still reports
        // the true maximum, which is what RAP's value needs.
        let p = page(&[(1, 1), (2, 5), (3, 2)], 2.0);
        assert_eq!(p.max_freq(), 5);
        assert_eq!(p.min_freq(), 1);
        assert!((p.max_weight() - 10.0).abs() < 1e-12);
    }
}
