//! Declarative read plans: the pages a scan intends to fetch.
//!
//! The paper's evaluators know, before touching storage, exactly which
//! pages a term scan will process: DF derives the page count from the
//! conversion table (`pages_to_process`, §2.4), BAF's `p_t` estimate
//! *is* that count, and Full evaluation reads the whole list. A
//! [`ReadPlan`] makes that knowledge a first-class value the buffer
//! layer can act on — batching the store reads and staging them on a
//! device that overlaps reads.
//!
//! A plan is an *ordered* list: the buffer manager processes entries
//! strictly in plan order, so a plan of `[p0, p1, p2]` produces the
//! same hit/miss/eviction sequence as three sequential `fetch` calls.
//! That ordering contract is what makes the batched path
//! behavior-preserving for every replacement policy.
//!
//! A plan may also name a *lookahead*: the list prefixes its planner
//! expects to read next, in the order it expects to read them (every
//! other term BAF has yet to process, ordered as it would pick them).
//! The pool may hand those pages to a store that overlaps reads, to be
//! read while the plan's own reads are in flight, but never demands
//! them — so nothing the pool does depends on it.

use crate::ids::{PageId, TermId};

/// One planned page read. What a page is worth to the running query
/// is the pool's business: RAP values it from the weights announced
/// through `begin_query`, never from the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// The page to fetch.
    pub page: PageId,
}

impl PlanEntry {
    /// A planned read of `page`.
    #[inline]
    pub fn new(page: PageId) -> Self {
        PlanEntry { page }
    }

    /// The same as [`new`](Self::new); the weight is ignored. Kept only
    /// because the frozen `benchmark/src/adapter.rs` spells it (ROADMAP
    /// item 10).
    #[inline]
    pub fn hinted(page: PageId, _weight: f64) -> Self {
        PlanEntry::new(page)
    }
}

/// An ordered batch of planned page reads.
///
/// Invariants the buffer layer relies on (and preserves):
/// - entries are fetched **in order**; the plan is a program, not a set;
/// - duplicate pages are legal — the second occurrence is a buffer hit
///   (one load, one hit), never a second store read;
/// - a failed entry aborts the rest of the plan, leaving earlier
///   entries' effects (admissions, evictions, counters) in place —
///   exactly as a sequence of single fetches would.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadPlan {
    entries: Vec<PlanEntry>,
    /// Stage-only: `(term, n_pages)` pairs, each the prefix
    /// `[0, n_pages)` of `term`'s list, in the order the planner
    /// expects to read them.
    lookahead: Vec<(TermId, u32)>,
}

impl ReadPlan {
    /// An empty plan.
    #[inline]
    pub fn new() -> Self {
        ReadPlan::default()
    }

    /// A one-entry plan — the shape of a plain `fetch`.
    pub fn single(page: PageId) -> Self {
        ReadPlan::from_iter([PlanEntry::new(page)])
    }

    /// The front-to-back scan of `term`'s first `n_pages` pages.
    pub fn for_term_pages(term: TermId, n_pages: u32) -> Self {
        (0..n_pages)
            .map(|p| PlanEntry::new(PageId::new(term, p)))
            .collect()
    }

    /// The plan with its stage-only lookahead set to `lookahead`, each
    /// `(term, n_pages)` the prefix `[0, n_pages)` of `term`'s list, in
    /// the order the planner expects to read them (empty clears it):
    /// pages the pool may stage below itself while this plan reads, and
    /// never fetches.
    pub fn with_lookahead(self, lookahead: Vec<(TermId, u32)>) -> Self {
        ReadPlan { lookahead, ..self }
    }

    /// The stage-only lookahead, `(term, n_pages)` prefixes in the
    /// order the planner expects to read them; empty if it named none.
    pub fn lookahead(&self) -> &[(TermId, u32)] {
        &self.lookahead
    }

    /// Appends one planned read.
    pub fn push(&mut self, entry: PlanEntry) {
        self.entries.push(entry);
    }

    /// The planned reads, in fetch order.
    pub fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Iterates the planned reads in fetch order.
    pub fn iter(&self) -> std::slice::Iter<'_, PlanEntry> {
        self.entries.iter()
    }

    /// Number of planned reads (counting duplicates).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<'a> IntoIterator for &'a ReadPlan {
    type Item = &'a PlanEntry;
    type IntoIter = std::slice::Iter<'a, PlanEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl FromIterator<PlanEntry> for ReadPlan {
    fn from_iter<I: IntoIterator<Item = PlanEntry>>(iter: I) -> Self {
        ReadPlan {
            entries: iter.into_iter().collect(),
            lookahead: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_scan_plan_orders_pages() {
        let plan = ReadPlan::for_term_pages(TermId(3), 4);
        assert_eq!(plan.len(), 4);
        let pages: Vec<u32> = plan.iter().map(|e| e.page.page.0).collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
        assert!(plan.iter().all(|e| e.page.term == TermId(3)));
    }

    #[test]
    fn single_matches_fetch_shape() {
        let id = PageId::new(TermId(1), 7);
        let plan = ReadPlan::single(id);
        assert_eq!(plan.entries(), &[PlanEntry::new(id)]);
    }

    #[test]
    fn lookahead_is_stage_only_metadata() {
        let plan = ReadPlan::for_term_pages(TermId(3), 2);
        assert!(plan.lookahead().is_empty());
        let named = vec![(TermId(5), 4), (TermId(1), 9)];
        let ahead = plan.clone().with_lookahead(named.clone());
        assert_eq!(ahead.lookahead(), named.as_slice(), "kept in order");
        assert_eq!(ahead.entries(), plan.entries(), "entries untouched");
        assert_eq!(ahead.with_lookahead(Vec::new()), plan);
    }

    #[test]
    fn empty_and_push() {
        let mut plan = ReadPlan::new();
        assert!(plan.is_empty());
        plan.push(PlanEntry::new(PageId::new(TermId(0), 0)));
        assert_eq!(plan.len(), 1);
        let collected: ReadPlan = plan.iter().copied().collect();
        assert_eq!(collected, plan);
    }
}
