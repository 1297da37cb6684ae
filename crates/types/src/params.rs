//! Tuning parameters for the filtering algorithms and the physical index.
//!
//! Table 3 of the paper lists the experimental knobs: `PageSize` (entries
//! per page), `BufferSize` (pages of buffer pool), and the two filtering
//! constants `c_add` / `c_ins`. `BufferSize` belongs to the buffer
//! manager (`ir-storage`); the rest live here because both the index
//! builder and the evaluator need them.

/// The paper's page capacity: one tenth of a 4 KB page holding
/// compressed ≈1-byte entries with "reasonable overhead" → 404 entries
/// (§4.2). The tenfold shrink scales the 530 MB WSJ collection to behave
/// like a 5 GB one.
pub const DEFAULT_PAGE_SIZE: usize = 404;

/// Default answer-set size `n`; the paper uses the top 20 documents both
/// for reporting and for workload construction (§5.1.2).
pub const DEFAULT_TOP_N: usize = 20;

/// Filtering constants for the DF/BAF threshold formulas (Eq. 5):
///
/// ```text
/// f_ins = c_ins · S_max / (f_{q,t} · idf_t²)
/// f_add = c_add · S_max / (f_{q,t} · idf_t²)
/// ```
///
/// `c_ins` bounds the candidate set (higher ⇒ fewer accumulators);
/// `c_add` bounds disk reads (higher ⇒ earlier list cut-off). The paper
/// requires `f_ins ≥ f_add`, i.e. `c_ins ≥ c_add`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FilterParams {
    /// Insertion-threshold constant `c_ins`.
    pub c_ins: f64,
    /// Addition-threshold constant `c_add`.
    pub c_add: f64,
}

impl FilterParams {
    /// Persin's tuned values used for all performance experiments
    /// (§4.1): `c_ins = 0.07`, `c_add = 0.002`.
    pub const PERSIN: FilterParams = FilterParams {
        c_ins: 0.07,
        c_add: 0.002,
    };

    /// The deliberately aggressive values of the §3.2.1 walk-through
    /// example (`c_ins = 0.2`, `c_add = 0.02`), chosen there so the
    /// thresholds rise quickly on a six-term query.
    pub const EXAMPLE: FilterParams = FilterParams {
        c_ins: 0.2,
        c_add: 0.02,
    };

    /// Filtering disabled (`c_ins = c_add = 0`): every posting of every
    /// query term is processed. This is the paper's *safe* baseline used
    /// to gauge the unsafe optimization and to build refinement
    /// workloads.
    pub const OFF: FilterParams = FilterParams {
        c_ins: 0.0,
        c_add: 0.0,
    };

    /// Creates validated parameters.
    ///
    /// # Panics
    /// Panics if either constant is negative, not finite, or if
    /// `c_ins < c_add` (which would invert the threshold relationship
    /// `f_ins ≥ f_add` the algorithm relies on).
    pub fn new(c_ins: f64, c_add: f64) -> Self {
        assert!(
            c_ins.is_finite() && c_ins >= 0.0,
            "c_ins must be finite and >= 0"
        );
        assert!(
            c_add.is_finite() && c_add >= 0.0,
            "c_add must be finite and >= 0"
        );
        assert!(
            c_ins >= c_add,
            "c_ins must be >= c_add so that f_ins >= f_add"
        );
        FilterParams { c_ins, c_add }
    }

    /// `true` when both constants are zero, i.e. safe full evaluation.
    #[inline]
    pub fn is_off(&self) -> bool {
        self.c_ins == 0.0 && self.c_add == 0.0
    }

    /// Insertion threshold `f_ins` for a term (Eq. 5). Returns 0 while
    /// `S_max` is 0 (nothing has been scored yet, so everything passes).
    #[inline]
    pub fn f_ins(&self, s_max: f64, query_freq: u32, idf: f64) -> f64 {
        threshold(self.c_ins, s_max, query_freq, idf)
    }

    /// Addition threshold `f_add` for a term (Eq. 5).
    #[inline]
    pub fn f_add(&self, s_max: f64, query_freq: u32, idf: f64) -> f64 {
        threshold(self.c_add, s_max, query_freq, idf)
    }
}

impl Default for FilterParams {
    fn default() -> Self {
        FilterParams::PERSIN
    }
}

#[inline]
fn threshold(c: f64, s_max: f64, query_freq: u32, idf: f64) -> f64 {
    let denom = query_freq as f64 * idf * idf;
    if denom <= 0.0 {
        // idf = 0 terms (present in every document) contribute nothing;
        // an infinite threshold makes the evaluator skip them outright,
        // with the filters off and before the first score too.
        return f64::INFINITY;
    }
    if c == 0.0 || s_max == 0.0 {
        return 0.0;
    }
    c * s_max / denom
}

/// Physical ordering of the `(d, f_{d,t})` entries inside an inverted
/// list (§2.3).
///
/// The paper uses the **frequency ordering** of [WL93, Per94]
/// (`f_{d,t}` descending), which is what allows DF/BAF to terminate a
/// list scan at the first entry below the addition threshold. The
/// traditional **document ordering** (doc id ascending) is provided to
/// test footnote 14's claim that algorithms over doc-ordered lists
/// "can be expected to read most of the inverted list pages" and "would
/// perform significantly worse than DF here".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ListOrdering {
    /// `f_{d,t}` descending, doc id ascending within ties (the paper's
    /// organization; enables early termination).
    #[default]
    FrequencySorted,
    /// Doc id ascending (the traditional organization; thresholds still
    /// filter entries, but the scan cannot stop early).
    DocIdSorted,
}

/// Physical index parameters shared by the builder and the evaluator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexParams {
    /// Number of `(d, f_{d,t})` entries per page (`PageSize` in Table 3).
    pub page_size: usize,
    /// Entry ordering inside each inverted list.
    pub ordering: ListOrdering,
}

impl IndexParams {
    /// Parameters matching the paper's scaled WSJ setup.
    pub fn paper() -> Self {
        IndexParams {
            page_size: DEFAULT_PAGE_SIZE,
            ordering: ListOrdering::FrequencySorted,
        }
    }

    /// Creates parameters with an explicit page capacity.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size > 0, "a page must hold at least one entry");
        IndexParams {
            page_size,
            ordering: ListOrdering::FrequencySorted,
        }
    }

    /// Same page capacity, different list ordering.
    pub fn with_ordering(mut self, ordering: ListOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Number of pages needed to hold `n_postings` entries.
    #[inline]
    pub fn pages_for(&self, n_postings: usize) -> usize {
        n_postings.div_ceil(self.page_size)
    }
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(FilterParams::PERSIN.c_ins, 0.07);
        assert_eq!(FilterParams::PERSIN.c_add, 0.002);
        assert_eq!(FilterParams::EXAMPLE.c_ins, 0.2);
        assert_eq!(FilterParams::EXAMPLE.c_add, 0.02);
        assert!(FilterParams::OFF.is_off());
        assert!(!FilterParams::PERSIN.is_off());
    }

    #[test]
    fn thresholds_zero_before_first_score() {
        let p = FilterParams::PERSIN;
        assert_eq!(p.f_ins(0.0, 3, 7.0), 0.0);
        assert_eq!(p.f_add(0.0, 3, 7.0), 0.0);
    }

    #[test]
    fn thresholds_scale_with_smax_and_idf() {
        let p = FilterParams::PERSIN;
        let base = p.f_add(100.0, 1, 2.0);
        assert!(
            p.f_add(200.0, 1, 2.0) > base,
            "higher S_max, higher threshold"
        );
        assert!(p.f_add(100.0, 1, 4.0) < base, "higher idf, lower threshold");
        assert!(
            p.f_add(100.0, 2, 2.0) < base,
            "higher query freq, lower threshold"
        );
    }

    #[test]
    fn f_ins_dominates_f_add() {
        let p = FilterParams::PERSIN;
        for s in [1.0, 10.0, 1e4] {
            assert!(p.f_ins(s, 2, 3.0) >= p.f_add(s, 2, 3.0));
        }
    }

    #[test]
    fn zero_idf_term_gets_infinite_threshold() {
        let p = FilterParams::PERSIN;
        assert!(p.f_add(10.0, 1, 0.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "c_ins must be >= c_add")]
    fn new_rejects_inverted_constants() {
        let _ = FilterParams::new(0.001, 0.07);
    }

    #[test]
    fn pages_for_rounds_up() {
        let p = IndexParams::with_page_size(404);
        assert_eq!(p.pages_for(0), 0);
        assert_eq!(p.pages_for(1), 1);
        assert_eq!(p.pages_for(404), 1);
        assert_eq!(p.pages_for(405), 2);
        assert_eq!(p.pages_for(4040), 10);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_page_size_rejected() {
        let _ = IndexParams::with_page_size(0);
    }
}
