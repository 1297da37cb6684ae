//! Declarative read plans: the pages a scan intends to fetch, with
//! optional value hints.
//!
//! The paper's evaluators know, before touching storage, exactly which
//! pages a term scan will process: DF derives the page count from the
//! conversion table (`pages_to_process`, §2.4), BAF's `p_t` estimate
//! *is* that count, and a boolean scan reads the whole list. A
//! [`ReadPlan`] makes that knowledge a first-class value the buffer
//! layer can act on — batching the store reads, and valuing pages for
//! replacement *before* eviction decisions instead of after admission
//! (the RAP insight of §3.2 moved one layer down).
//!
//! A plan is an *ordered* list: the buffer manager processes entries
//! strictly in plan order, so a plan of `[p0, p1, p2]` produces the
//! same hit/miss/eviction sequence as three sequential `fetch` calls.
//! That ordering contract is what makes the batched path
//! behavior-preserving for every replacement policy.
//!
//! A plan may also name a *lookahead*: the list prefix its planner
//! expects to read next (BAF's runner-up term). The pool may hand those
//! pages to a store that overlaps reads, to be read while the plan's
//! own reads are in flight, but never demands them — so nothing the
//! pool does depends on it.

use crate::ids::{PageId, TermId};
use serde::{Deserialize, Serialize};

/// One planned page read: the page, plus an optional estimate of its
/// value to the running query.
///
/// The hint is the query-term weight `w_{q,t}` of the term whose scan
/// planned the read. A hint-aware replacement policy (RAP) can combine
/// it with the page's own maximum document weight to value the page at
/// admission — `w*_{d,t} · w_{q,t}`, the paper's eq. for page worth —
/// even when the query was never announced via `begin_query`. Policies
/// that do not understand hints ignore them.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// The page to fetch.
    pub page: PageId,
    /// Estimated query-side value of the page (`w_{q,t}`), if the
    /// planner knows it.
    pub value_hint: Option<f64>,
}

impl PlanEntry {
    /// A planned read with no value hint.
    #[inline]
    pub fn new(page: PageId) -> Self {
        PlanEntry {
            page,
            value_hint: None,
        }
    }

    /// A planned read carrying a value hint.
    #[inline]
    pub fn hinted(page: PageId, value_hint: f64) -> Self {
        PlanEntry {
            page,
            value_hint: Some(value_hint),
        }
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
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReadPlan {
    entries: Vec<PlanEntry>,
    /// Stage-only: `(term, n_pages)`, the prefix `[0, n_pages)` of
    /// `term`'s list.
    lookahead: Option<(TermId, u32)>,
}

impl ReadPlan {
    /// An empty plan.
    #[inline]
    pub fn new() -> Self {
        ReadPlan::default()
    }

    /// A one-entry plan with no hint — the shape of a plain `fetch`.
    pub fn single(page: PageId) -> Self {
        ReadPlan::from_iter([PlanEntry::new(page)])
    }

    /// A one-entry plan carrying a value hint.
    pub fn single_hinted(page: PageId, value_hint: f64) -> Self {
        ReadPlan::from_iter([PlanEntry::hinted(page, value_hint)])
    }

    /// The front-to-back scan of `term`'s first `n_pages` pages, every
    /// entry carrying the same hint (the term's query weight) when one
    /// is given.
    pub fn for_term_pages(term: TermId, n_pages: u32, value_hint: Option<f64>) -> Self {
        (0..n_pages)
            .map(|p| PlanEntry {
                page: PageId::new(term, p),
                value_hint,
            })
            .collect()
    }

    /// The plan with its stage-only lookahead set to the prefix
    /// `[0, n_pages)` of `term`'s list (`None` clears it): pages the
    /// pool may stage below itself while this plan reads, and never
    /// fetches.
    pub fn with_lookahead(self, lookahead: Option<(TermId, u32)>) -> Self {
        ReadPlan { lookahead, ..self }
    }

    /// The stage-only lookahead, `(term, n_pages)`, if the planner named
    /// one.
    pub fn lookahead(&self) -> Option<(TermId, u32)> {
        self.lookahead
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
            lookahead: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_scan_plan_orders_pages() {
        let plan = ReadPlan::for_term_pages(TermId(3), 4, Some(0.5));
        assert_eq!(plan.len(), 4);
        let pages: Vec<u32> = plan.iter().map(|e| e.page.page.0).collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
        assert!(plan.iter().all(|e| e.page.term == TermId(3)));
        assert!(plan.iter().all(|e| e.value_hint == Some(0.5)));
    }

    #[test]
    fn single_matches_fetch_shape() {
        let id = PageId::new(TermId(1), 7);
        let plan = ReadPlan::single(id);
        assert_eq!(plan.entries(), &[PlanEntry::new(id)]);
        let hinted = ReadPlan::single_hinted(id, 2.0);
        assert_eq!(hinted.entries()[0].value_hint, Some(2.0));
    }

    #[test]
    fn lookahead_is_stage_only_metadata() {
        let plan = ReadPlan::for_term_pages(TermId(3), 2, None);
        assert_eq!(plan.lookahead(), None);
        let ahead = plan.clone().with_lookahead(Some((TermId(5), 4)));
        assert_eq!(ahead.lookahead(), Some((TermId(5), 4)));
        assert_eq!(ahead.entries(), plan.entries(), "entries untouched");
        assert_eq!(ahead.with_lookahead(None), plan);
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
