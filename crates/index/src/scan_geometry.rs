//! The one formula the conversion table decodes `f_add` with: how many
//! pages a DF/BAF scan of one term's list processes, given how many of
//! its postings pass the addition threshold.
//!
//! [`ConversionTable`](crate::ConversionTable) reduces the threshold to
//! `above`, the number of postings with `f_{d,t} > f_add` (from a
//! cumulative frequency histogram), and then applies the page geometry
//! below — the same geometry the evaluators' read-plan sizing is built
//! on, so the table can never disagree with what a scan touches.

/// Pages a scan of a `total`-posting list processes when `above`
/// postings pass the addition threshold, with `page_size` entries per
/// page.
///
/// * `above == 0`: the `f_max ≤ f_add` case — DF/BAF skip the list
///   without reading (Fig. 1 step 4b / Fig. 2 step 3c), so 0 pages.
/// * `early_stop == false` (doc-ordered lists): any passing entry
///   forces a full scan — every page (footnote 14's regime).
/// * Otherwise (frequency-sorted): the first failing entry is posting
///   `above` (0-based), so its page is the last one processed.
///
/// The result is always a **prefix**: a scan of `k` pages touches pages
/// `0..k` of the list, never a gap. The sharded buffer pool's term-chunk
/// routing relies on this — `ReadPlan::for_term_pages` plans exactly
/// such a prefix, so any scan no longer than the pool's chunk size maps
/// onto a single shard and the batch never splits.
pub fn pages_for_scan(above: u64, total: u64, page_size: usize, early_stop: bool) -> u32 {
    if above == 0 {
        return 0;
    }
    if !early_stop || above == total {
        return total.div_ceil(page_size as u64) as u32;
    }
    (above / page_size as u64 + 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_passing_means_skip() {
        assert_eq!(pages_for_scan(0, 10, 2, true), 0);
        assert_eq!(pages_for_scan(0, 10, 2, false), 0);
    }

    #[test]
    fn failing_entry_page_is_processed() {
        // 6 postings, 2/page: postings 0..above pass, posting `above`
        // fails on page above/2.
        assert_eq!(pages_for_scan(1, 6, 2, true), 1);
        assert_eq!(pages_for_scan(2, 6, 2, true), 2, "fail lands on page 1");
        assert_eq!(pages_for_scan(3, 6, 2, true), 2);
        assert_eq!(pages_for_scan(5, 6, 2, true), 3);
    }

    #[test]
    fn all_passing_covers_every_page_exactly() {
        assert_eq!(pages_for_scan(6, 6, 2, true), 3);
        assert_eq!(pages_for_scan(5, 5, 2, true), 3, "ragged last page");
    }

    #[test]
    fn doc_ordered_scans_fully_once_anything_passes() {
        assert_eq!(pages_for_scan(1, 6, 2, false), 3);
        assert_eq!(pages_for_scan(6, 6, 2, false), 3);
    }
}
