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

/// Per-term cumulative counts: term `t`'s row holds, at `f`, the
/// postings of `t` with `f_{d,t} > f`, for `f ∈ 0..=f_max(t)` (so the
/// row starts with the list length and ends with 0). All rows live in
/// one vector, term after term. A cell holds at most one list's length
/// and a row start at most the table's cells, so both are `u32`s: the
/// builder refuses a collection of more than `u32::MAX` postings.
#[derive(Debug)]
pub struct ConversionTable {
    counts: Vec<u32>,
    /// Term `t`'s row is `counts[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
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
        let lists: Vec<&[Posting]> = lists.collect();
        let f_max: Vec<u32> = lists
            .iter()
            .map(|l| l.iter().map(|p| p.freq).max().unwrap_or(0))
            .collect();
        let mut table = ConversionTable::with_rows(page_size, ordering, &f_max);
        for (t, list) in lists.iter().enumerate() {
            for p in *list {
                table.count(t, p.freq);
            }
        }
        table.finish();
        table
    }

    /// A table of zeroed rows, term `t`'s with `f_max[t] + 1` cells, to
    /// [`count`](Self::count) postings into and then
    /// [`finish`](Self::finish).
    ///
    /// # Panics
    /// Panics if `page_size` is zero or the rows hold more than
    /// `u32::MAX` cells.
    pub(crate) fn with_rows(page_size: usize, ordering: ListOrdering, f_max: &[u32]) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        let mut starts = Vec::with_capacity(f_max.len() + 1);
        let mut end = 0u32;
        starts.push(end);
        for &f in f_max {
            end = f
                .checked_add(1)
                .and_then(|cells| end.checked_add(cells))
                .expect("conversion rows over u32::MAX cells");
            starts.push(end);
        }
        ConversionTable {
            counts: vec![0; end as usize],
            starts,
            page_size,
            doc_ordered: ordering == ListOrdering::DocIdSorted,
        }
    }

    /// Counts one posting of term `t` with frequency `freq` (≥ 1) into
    /// its row: until [`finish`](Self::finish), cell `f - 1` holds the
    /// postings with frequency exactly `f`.
    #[inline]
    pub(crate) fn count(&mut self, t: usize, freq: u32) {
        debug_assert!(freq >= 1);
        self.counts[self.starts[t] as usize + freq as usize - 1] += 1;
    }

    /// Turns every counted row into its cumulative counts: cell `f`
    /// becomes the postings with frequency above `f`.
    pub(crate) fn finish(&mut self) {
        let (starts, counts) = self.cells_mut();
        for w in starts.windows(2) {
            cumulate(&mut counts[w[0] as usize..w[1] as usize]);
        }
    }

    /// The row starts (term `t`'s row is `cells[starts[t]..starts[t +
    /// 1]]`) and every row's cells, for a build that counts and
    /// [`cumulate`]s term ranges of rows in parallel.
    pub(crate) fn cells_mut(&mut self) -> (&[u32], &mut [u32]) {
        (&self.starts, &mut self.counts)
    }

    /// `term`'s cumulative counts.
    fn counts(&self, term: TermId) -> IrResult<&[u32]> {
        let t = term.index();
        match (self.starts.get(t), self.starts.get(t + 1)) {
            (Some(&start), Some(&end)) => Ok(&self.counts[start as usize..end as usize]),
            _ => Err(IrError::UnknownTerm(term)),
        }
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
            counts.first().map_or(0, |&n| u64::from(n)),
            self.page_size,
            !self.doc_ordered,
        ))
    }

    /// Number of terms covered.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the cells and the row starts hold (for the §3.2.2 size
    /// discussion in reports).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.counts.as_slice())
            + std::mem::size_of_val(self.starts.as_slice())
    }
}

/// Turns one counted row (cell `f - 1` holds the postings with
/// frequency exactly `f`) into its cumulative counts (cell `f` holds
/// those above `f`).
pub(crate) fn cumulate(row: &mut [u32]) {
    for f in (0..row.len().saturating_sub(1)).rev() {
        row[f] += row[f + 1];
    }
}

/// The entry of one term's `counts` for threshold `f_add`: postings
/// with `f_{d,t} > f_add`.
fn above(counts: &[u32], f_add: f64) -> u64 {
    if f_add < 0.0 {
        return counts.first().map_or(0, |&n| u64::from(n));
    }
    if !f_add.is_finite() {
        return 0;
    }
    // Integer frequencies: f > f_add  ⟺  f ≥ ⌊f_add⌋ + 1.
    counts
        .get(f_add.floor() as usize)
        .map_or(0, |&n| u64::from(n))
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
    fn memory_is_four_bytes_a_cell_and_a_row_start() {
        // Rows of f_max + 1 cells: 6 and 2, plus three row starts.
        let t = table(&[&[(0, 5), (1, 1)], &[(0, 1)]], 2);
        assert_eq!(t.memory_bytes(), 4 * (6 + 2) + 4 * 3);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
