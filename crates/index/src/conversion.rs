//! The BAF conversion table (§3.2.2): `f_add → p_t`.
//!
//! To estimate disk reads for an unprocessed term, BAF needs `p_t`, the
//! number of pages a DF-style scan of the term's list would process
//! under a hypothetical addition threshold `f_add`. The paper keeps a
//! memory-resident table "maintained ... and shared by concurrent
//! queries", noting that only a small threshold range matters (their
//! setup: `f_add ≤ 10`, multi-page terms only, ~121 KB total).
//!
//! We store, per term, the cumulative posting counts above each integer
//! frequency, from which `p_t` follows exactly:
//!
//! * a scan stops at the **first** entry with `f_{d,t} ≤ f_add`, so the
//!   page containing that entry is still processed;
//! * if no entry fails, every page is processed;
//! * if even the first entry fails (`f_max ≤ f_add`), DF/BAF skip the
//!   list without reading (step 3c / 4b), so `p_t = 0`.

use ir_types::{IrError, IrResult, ListOrdering, Posting, TermId};

/// Per-term cumulative counts: `counts_gt[t][f]` = postings of term `t`
/// with `f_{d,t} > f`, for `f ∈ 0..=f_max(t)` (so `counts_gt[t][0]` is
/// the list length and `counts_gt[t][f_max]` is 0).
#[derive(Debug, Default)]
pub struct ConversionTable {
    counts_gt: Vec<Vec<u64>>,
    page_size: usize,
    /// Doc-ordered lists cannot terminate early: any passing entry
    /// forces a full-list scan.
    doc_ordered: bool,
}

impl ConversionTable {
    /// Builds the table from each term's frequency-sorted postings.
    /// `lists` yields term lists in term-id order; `page_size` is
    /// entries per page.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn build<'a>(lists: impl Iterator<Item = &'a [Posting]>, page_size: usize) -> Self {
        Self::build_with_ordering(lists, page_size, ListOrdering::FrequencySorted)
    }

    /// Builds the table for lists stored under `ordering`. The counts
    /// themselves are order-independent histograms; only the
    /// page-estimate formula differs (doc-ordered scans cannot stop at
    /// the first failing entry).
    pub fn build_with_ordering<'a>(
        lists: impl Iterator<Item = &'a [Posting]>,
        page_size: usize,
        ordering: ListOrdering,
    ) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        let counts_gt = lists
            .map(|postings| {
                let f_max = postings.iter().map(|p| p.freq).max().unwrap_or(0) as usize;
                // hist[f] = number of postings with frequency exactly f.
                let mut hist = vec![0u64; f_max + 1];
                for p in postings {
                    debug_assert!(p.freq >= 1 && p.freq as usize <= f_max);
                    hist[p.freq as usize] += 1;
                }
                // counts[f] = Σ_{g > f} hist[g], f ∈ 0..=f_max.
                let mut counts = vec![0u64; f_max + 1];
                for f in (0..f_max).rev() {
                    counts[f] = counts[f + 1] + hist[f + 1];
                }
                counts
            })
            .collect();
        ConversionTable {
            counts_gt,
            page_size,
            doc_ordered: ordering == ListOrdering::DocIdSorted,
        }
    }

    /// `term`'s cumulative counts.
    fn counts(&self, term: TermId) -> IrResult<&[u64]> {
        let counts = self.counts_gt.get(term.index());
        counts.map(Vec::as_slice).ok_or(IrError::UnknownTerm(term))
    }

    /// Number of postings of `term` with `f_{d,t}` strictly above
    /// `f_add`.
    pub fn postings_above(&self, term: TermId, f_add: f64) -> IrResult<u64> {
        Ok(above(self.counts(term)?, f_add))
    }

    /// `p_t`: pages processed when scanning `term` under threshold
    /// `f_add` (0 when the whole list is below the threshold).
    pub fn pages_to_process(&self, term: TermId, f_add: f64) -> IrResult<u32> {
        let counts = self.counts(term)?;
        Ok(crate::scan_geometry::pages_for_scan(
            above(counts, f_add),
            counts.first().copied().unwrap_or(0),
            self.page_size,
            !self.doc_ordered,
        ))
    }

    /// Number of terms covered.
    pub fn len(&self) -> usize {
        self.counts_gt.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.counts_gt.is_empty()
    }

    /// Approximate memory footprint in bytes (for the §3.2.2 size
    /// discussion in reports).
    pub fn memory_bytes(&self) -> usize {
        self.counts_gt
            .iter()
            .map(|c| c.len() * std::mem::size_of::<u64>())
            .sum::<usize>()
            + self.counts_gt.len() * std::mem::size_of::<Vec<u64>>()
    }
}

/// The entry of one term's `counts` for threshold `f_add`: postings
/// with `f_{d,t} > f_add`.
fn above(counts: &[u64], f_add: f64) -> u64 {
    if f_add < 0.0 {
        return counts.first().copied().unwrap_or(0);
    }
    if !f_add.is_finite() {
        return 0;
    }
    // Integer frequencies: f > f_add  ⟺  f ≥ ⌊f_add⌋ + 1.
    counts.get(f_add.floor() as usize).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::frequency_order;

    fn table(lists: &[&[(u32, u32)]], page_size: usize) -> ConversionTable {
        let lists: Vec<Vec<Posting>> = lists
            .iter()
            .map(|l| {
                let mut v: Vec<Posting> = l.iter().map(|&(d, f)| Posting::new(d, f)).collect();
                v.sort_by(frequency_order);
                v
            })
            .collect();
        ConversionTable::build(lists.iter().map(|v| v.as_slice()), page_size)
    }

    #[test]
    fn postings_above_matches_definition() {
        // freqs: 5, 3, 3, 1, 1, 1
        let t = table(&[&[(0, 5), (1, 3), (2, 3), (3, 1), (4, 1), (5, 1)]], 2);
        let term = TermId(0);
        assert_eq!(t.postings_above(term, 0.0).unwrap(), 6);
        assert_eq!(t.postings_above(term, 0.5).unwrap(), 6);
        assert_eq!(t.postings_above(term, 1.0).unwrap(), 3);
        assert_eq!(t.postings_above(term, 2.9).unwrap(), 3);
        assert_eq!(t.postings_above(term, 3.0).unwrap(), 1);
        assert_eq!(t.postings_above(term, 4.99).unwrap(), 1);
        assert_eq!(t.postings_above(term, 5.0).unwrap(), 0);
        assert_eq!(t.postings_above(term, 100.0).unwrap(), 0);
        assert_eq!(t.postings_above(term, f64::INFINITY).unwrap(), 0);
        assert_eq!(t.postings_above(term, -1.0).unwrap(), 6);
    }

    #[test]
    fn pages_to_process_counts_the_failing_page() {
        // 6 postings, 2 per page → 3 pages. Layout:
        // page 0: f=5, f=3 | page 1: f=3, f=1 | page 2: f=1, f=1
        let t = table(&[&[(0, 5), (1, 3), (2, 3), (3, 1), (4, 1), (5, 1)]], 2);
        let term = TermId(0);
        // Threshold 0: everything passes → all 3 pages.
        assert_eq!(t.pages_to_process(term, 0.0).unwrap(), 3);
        // Threshold 1: 3 postings pass; the 4th (on page 1) fails and
        // terminates the scan there → 2 pages.
        assert_eq!(t.pages_to_process(term, 1.0).unwrap(), 2);
        // Threshold 3: only f=5 passes; the 2nd entry (page 0) fails →
        // 1 page.
        assert_eq!(t.pages_to_process(term, 3.0).unwrap(), 1);
        // Threshold 5 = f_max: nothing passes → the list is skipped
        // entirely without reading (step 3c).
        assert_eq!(t.pages_to_process(term, 5.0).unwrap(), 0);
    }

    #[test]
    fn exact_page_boundary() {
        // 4 postings, 2 per page; threshold cuts exactly at the page
        // boundary: 2 pass (all of page 0), first entry of page 1 fails
        // → 2 pages (the failing entry is read).
        let t = table(&[&[(0, 4), (1, 4), (2, 1), (3, 1)]], 2);
        assert_eq!(t.pages_to_process(TermId(0), 2.0).unwrap(), 2);
        // Everything passes → 2 pages, not 3.
        assert_eq!(t.pages_to_process(TermId(0), 0.0).unwrap(), 2);
    }

    #[test]
    fn single_page_term() {
        let t = table(&[&[(0, 2)]], 404);
        assert_eq!(t.pages_to_process(TermId(0), 0.0).unwrap(), 1);
        assert_eq!(t.pages_to_process(TermId(0), 2.0).unwrap(), 0);
    }

    #[test]
    fn empty_list_never_processes() {
        let t = table(&[&[]], 2);
        assert_eq!(t.pages_to_process(TermId(0), 0.0).unwrap(), 0);
        assert_eq!(t.postings_above(TermId(0), 0.0).unwrap(), 0);
    }

    #[test]
    fn unknown_term_errors() {
        let t = table(&[&[(0, 1)]], 2);
        assert!(t.pages_to_process(TermId(9), 0.0).is_err());
    }

    #[test]
    fn memory_estimate_positive() {
        let t = table(&[&[(0, 5), (1, 1)]], 2);
        assert!(t.memory_bytes() > 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
