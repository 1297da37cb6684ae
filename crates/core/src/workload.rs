//! Query-refinement workload construction (§5.1.2).
//!
//! For each source query the paper ranks its terms "by their average
//! contribution to the cosine similarity of the 20 highest ranked
//! documents returned by the DF algorithm when the unsafe optimization
//! is turned off", then builds refinement sequences in groups of three:
//!
//! * **ADD-ONLY** — refinement *k* consists of the first 3·(k+1) terms;
//! * **ADD-DROP** — terms are added the same way, but each refinement
//!   after the first also drops the lowest-contribution term of the
//!   previously added group.

use crate::eval::{evaluate, Algorithm, EvalOptions};
use crate::query::Query;
use ir_index::InvertedIndex;
use ir_storage::{PageStore, PolicyKind};
use ir_types::{IrResult, TermId};

/// Which refinement pattern to build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RefinementKind {
    /// Terms are only ever added (§5.2).
    AddOnly,
    /// Each refinement (after the first) also drops the weakest term of
    /// the previous group (§5.3).
    AddDrop,
}

impl std::fmt::Display for RefinementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RefinementKind::AddOnly => "ADD-ONLY",
            RefinementKind::AddDrop => "ADD-DROP",
        })
    }
}

/// A refinement sequence: each step is the complete query submitted at
/// that refinement (terms with `f_{q,t}`).
#[derive(Clone, Debug)]
pub struct RefinementSequence {
    /// Which workload pattern generated it.
    pub kind: RefinementKind,
    /// The source topic/query identifier (for joining with qrels).
    pub source: usize,
    /// The refinements, in submission order.
    pub steps: Vec<Vec<(TermId, u32)>>,
}

impl RefinementSequence {
    /// Number of refinements.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for a degenerate empty sequence.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The §5.2.2 "collapsed" variant: all refinements but the last
    /// merged into one large first query, followed by the original last
    /// refinement.
    pub fn collapsed(&self) -> RefinementSequence {
        if self.steps.len() < 2 {
            return self.clone();
        }
        let penultimate = self.steps[self.steps.len() - 2].clone();
        let last = self.steps[self.steps.len() - 1].clone();
        RefinementSequence {
            kind: self.kind,
            source: self.source,
            steps: vec![penultimate, last],
        }
    }
}

/// One term's contribution statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TermContribution {
    /// The term.
    pub term: TermId,
    /// Its query frequency.
    pub query_freq: u32,
    /// Average contribution to the cosine score of the top-20 documents
    /// under full evaluation.
    pub contribution: f64,
}

/// Ranks a query's terms by average contribution (§5.1.2).
///
/// Runs a full (filters-off) evaluation with a private buffer pool
/// sized to hold the whole query; the disk reads it performs are
/// workload *construction* and must be excluded from experiment
/// counters (callers reset disk statistics afterwards).
pub fn contribution_ranking(
    index: &InvertedIndex,
    query: &Query,
    top_n: usize,
) -> IrResult<Vec<TermContribution>> {
    if query.is_empty() {
        return Ok(Vec::new());
    }
    let pool = (query.total_pages() as usize).max(1);
    let mut buffer = index.make_buffer(pool, PolicyKind::Lru)?;
    let options = EvalOptions {
        top_n,
        ..EvalOptions::default()
    };
    let result = evaluate(Algorithm::Full, index, &mut buffer, query, options)?;
    // `W_d` of each top document, by document id.
    let mut top_docs: Vec<Option<f64>> = vec![None; index.n_docs() as usize];
    let mut n_top = 0usize;
    for h in &result.hits {
        if let Some(slot) = top_docs.get_mut(h.doc.index()) {
            n_top += usize::from(slot.is_none());
            *slot = Some(index.doc_stats().vector_length(h.doc).unwrap_or(1.0));
        }
    }
    if n_top == 0 {
        // No document matched anything: contributions are all zero.
        return Ok(query
            .terms()
            .iter()
            .map(|t| TermContribution {
                term: t.term,
                query_freq: t.query_freq,
                contribution: 0.0,
            })
            .collect());
    }

    // Per term: avg over top docs of w_{d,t}·w_{q,t} / W_d. Scan each
    // term's list once for the f_{d,t} of the top documents.
    let mut out = Vec::with_capacity(query.len());
    for t in query.terms() {
        let mut sum = 0.0;
        let store = index.disk();
        // No early exit: document ids are scattered across the
        // frequency-sorted list, so the whole list must be scanned.
        for p in 0..t.n_pages {
            let page = store.read_page(ir_types::PageId::new(t.term, p))?;
            for posting in page.postings() {
                if let Some(Some(w_d)) = top_docs.get(posting.doc.index()) {
                    let partial =
                        ir_types::weights::partial_similarity(posting.freq, t.query_freq, t.idf);
                    sum += partial / w_d;
                }
            }
        }
        out.push(TermContribution {
            term: t.term,
            query_freq: t.query_freq,
            contribution: sum / n_top as f64,
        });
    }
    out.sort_by(|a, b| {
        b.contribution
            .total_cmp(&a.contribution)
            .then(a.term.cmp(&b.term))
    });
    Ok(out)
}

/// Builds a refinement sequence from a contribution ranking, in groups
/// of `group_size` (the paper uses 3).
///
/// # Panics
/// Panics if `group_size` is zero.
pub fn make_sequence(
    ranked: &[TermContribution],
    kind: RefinementKind,
    group_size: usize,
    source: usize,
) -> RefinementSequence {
    assert!(group_size > 0, "group_size must be positive");
    let groups: Vec<&[TermContribution]> = ranked.chunks(group_size).collect();
    let mut steps = Vec::with_capacity(groups.len());
    let mut current: Vec<(TermId, u32)> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        if kind == RefinementKind::AddDrop && g > 0 {
            // Drop the lowest-contribution term of the previous group
            // (its last element, since groups are contribution-ranked).
            let prev = groups[g - 1];
            if let Some(weakest) = prev.last() {
                current.retain(|(t, _)| *t != weakest.term);
            }
        }
        current.extend(group.iter().map(|c| (c.term, c.query_freq)));
        steps.push(current.clone());
    }
    RefinementSequence {
        kind,
        source,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(n: usize) -> Vec<TermContribution> {
        (0..n)
            .map(|i| TermContribution {
                term: TermId(i as u32),
                query_freq: 1,
                contribution: (n - i) as f64,
            })
            .collect()
    }

    #[test]
    fn add_only_grows_by_group() {
        let seq = make_sequence(&ranked(7), RefinementKind::AddOnly, 3, 0);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.steps[0].len(), 3);
        assert_eq!(seq.steps[1].len(), 6);
        assert_eq!(seq.steps[2].len(), 7);
        // Prefix property: each step contains the previous one.
        for w in seq.steps.windows(2) {
            for t in &w[0] {
                assert!(w[1].contains(t));
            }
        }
    }

    #[test]
    fn add_drop_removes_weakest_of_previous_group() {
        // Ranked terms 0..7 (term 2 is the weakest of group 0, term 5
        // of group 1).
        let seq = make_sequence(&ranked(7), RefinementKind::AddDrop, 3, 0);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.steps[0].len(), 3);
        // Step 1: +group1 (3 terms), −term2 → 5 terms.
        assert_eq!(seq.steps[1].len(), 5);
        assert!(!seq.steps[1].iter().any(|(t, _)| *t == TermId(2)));
        // Step 2: +group2 (1 term), −term5 → 5 terms.
        assert_eq!(seq.steps[2].len(), 5);
        assert!(!seq.steps[2].iter().any(|(t, _)| *t == TermId(5)));
        assert!(seq.steps[2].iter().any(|(t, _)| *t == TermId(6)));
    }

    #[test]
    fn collapsed_merges_all_but_last() {
        let seq = make_sequence(&ranked(9), RefinementKind::AddOnly, 3, 7);
        let c = seq.collapsed();
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.steps[0].len(),
            6,
            "penultimate step is the big first query"
        );
        assert_eq!(c.steps[1].len(), 9);
        assert_eq!(c.source, 7);
        // A 1-step sequence collapses to itself.
        let short = make_sequence(&ranked(2), RefinementKind::AddOnly, 3, 0);
        assert_eq!(short.collapsed().len(), 1);
    }

    #[test]
    #[should_panic(expected = "group_size")]
    fn zero_group_size_rejected() {
        let _ = make_sequence(&ranked(3), RefinementKind::AddOnly, 0, 0);
    }

    #[test]
    fn kind_displays() {
        assert_eq!(RefinementKind::AddOnly.to_string(), "ADD-ONLY");
        assert_eq!(RefinementKind::AddDrop.to_string(), "ADD-DROP");
    }
}
