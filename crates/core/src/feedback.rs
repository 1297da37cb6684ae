//! Relevance-feedback query expansion and the refinement workload it
//! induces (paper §2.1 and §7: refinement "workloads generated using
//! relevance feedback" are named future work; \[SB90\] is the classic
//! reference).
//!
//! Expansion follows the Rocchio idea restricted to positive feedback:
//! the terms of the top-ranked documents are scored by their summed
//! document weight `Σ_d w_{d,t}` over the feedback set, and the best
//! new terms join the query. Repeating evaluate→expand→resubmit yields
//! an ADD-ONLY-like refinement sequence whose added terms are chosen by
//! the *system* rather than by contribution ranking — a different but
//! equally buffer-friendly access pattern, which the `feedback`
//! experiment measures under the paper's algorithm/policy grid.

use crate::query::Query;
use crate::rank::Hit;
use crate::workload::{RefinementKind, RefinementSequence};
use ir_index::InvertedIndex;
use ir_types::{IrError, IrResult, TermId};
use std::collections::HashMap;

/// Expansion knobs.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackOptions {
    /// Feedback depth: how many top documents count as (pseudo-)
    /// relevant.
    pub feedback_docs: usize,
    /// New terms added per round.
    pub terms_per_round: usize,
    /// Query frequency assigned to expansion terms.
    pub expansion_freq: u32,
}

impl Default for FeedbackOptions {
    fn default() -> Self {
        FeedbackOptions {
            feedback_docs: 10,
            terms_per_round: 3,
            expansion_freq: 1,
        }
    }
}

/// Scores candidate expansion terms from the feedback documents and
/// returns the best `terms_per_round` terms not already in the query,
/// strongest first.
///
/// # Errors
/// [`IrError::InvalidConfig`] if the index was built without a forward
/// index (`BuildOptions::keep_forward`).
pub fn expansion_terms(
    index: &InvertedIndex,
    query: &Query,
    hits: &[Hit],
    options: FeedbackOptions,
) -> IrResult<Vec<(TermId, u32)>> {
    let forward = index.forward().ok_or_else(|| {
        IrError::InvalidConfig(
            "relevance feedback needs a forward index (BuildOptions::keep_forward)".into(),
        )
    })?;
    let present: std::collections::HashSet<TermId> = query.terms().iter().map(|t| t.term).collect();
    let mut scores: HashMap<TermId, f64> = HashMap::new();
    for hit in hits.iter().take(options.feedback_docs) {
        for &(term, freq) in forward.terms(hit.doc)? {
            if present.contains(&term) {
                continue;
            }
            let e = index.lexicon().entry(term)?;
            if e.n_postings() == 0 {
                continue;
            }
            *scores.entry(term).or_insert(0.0) += ir_types::weights::term_weight(freq, e.idf);
        }
    }
    let mut ranked: Vec<(TermId, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(ranked
        .into_iter()
        .take(options.terms_per_round)
        .map(|(t, _)| (t, options.expansion_freq))
        .collect())
}

/// Builds a feedback-driven refinement sequence: starting from
/// `initial`, each round runs a full evaluation, expands the query with
/// [`expansion_terms`], and records the grown query as the next
/// refinement. Evaluation reads during construction are excluded from
/// experiment counters (disk statistics are reset before returning).
pub fn feedback_sequence(
    index: &InvertedIndex,
    initial: &[(TermId, u32)],
    rounds: usize,
    options: FeedbackOptions,
    source: usize,
) -> IrResult<RefinementSequence> {
    use crate::eval::{evaluate, Algorithm, EvalOptions};
    use ir_storage::PolicyKind;

    let mut current: Vec<(TermId, u32)> = initial.to_vec();
    let mut steps = vec![current.clone()];
    for _ in 0..rounds {
        let query = Query::from_ids(index, &current)?;
        if query.is_empty() {
            break;
        }
        let pool = (query.total_pages() as usize).max(1);
        let mut buffer = index.make_buffer(pool, PolicyKind::Lru)?;
        let full = EvalOptions {
            top_n: options.feedback_docs.max(20),
            ..EvalOptions::default()
        };
        let result = evaluate(Algorithm::Full, index, &mut buffer, &query, full)?;
        let additions = expansion_terms(index, &query, &result.hits, options)?;
        if additions.is_empty() {
            break;
        }
        current.extend(additions);
        steps.push(current.clone());
    }
    index.disk().reset_stats();
    Ok(RefinementSequence {
        kind: RefinementKind::AddOnly,
        source,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, Algorithm, EvalOptions};
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::PolicyKind;
    use ir_types::IndexParams;

    fn index(keep_forward: bool) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["stock", "price", "crash", "panic"]);
        b.add_document(["stock", "price", "rally"]);
        b.add_document(["bond", "yield"]);
        b.add_document(["stock", "crash", "panic", "panic"]);
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2),
            keep_forward,
            ..BuildOptions::default()
        })
        .unwrap()
    }

    fn named(idx: &InvertedIndex, terms: &[(&str, u32)]) -> Vec<(TermId, u32)> {
        terms
            .iter()
            .map(|&(n, f)| (idx.lexicon().lookup(n).unwrap(), f))
            .collect()
    }

    #[test]
    fn expansion_requires_forward_index() {
        let idx = index(false);
        let q = Query::from_ids(&idx, &named(&idx, &[("stock", 1)])).unwrap();
        let err = expansion_terms(&idx, &q, &[], FeedbackOptions::default());
        assert!(matches!(err, Err(IrError::InvalidConfig(_))));
    }

    #[test]
    fn expansion_suggests_cooccurring_terms() {
        let idx = index(true);
        let initial = named(&idx, &[("stock", 1)]);
        let q = Query::from_ids(&idx, &initial).unwrap();
        let mut buffer = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        let r = evaluate(Algorithm::Df, &idx, &mut buffer, &q, EvalOptions::default()).unwrap();
        let exp = expansion_terms(&idx, &q, &r.hits, FeedbackOptions::default()).unwrap();
        assert!(!exp.is_empty());
        // "panic" (doubled in a stock doc, rare) must be among the
        // suggestions; "stock" itself must not.
        let stock = idx.lexicon().lookup("stock").unwrap();
        let panic_t = idx.lexicon().lookup("panic").unwrap();
        assert!(exp.iter().all(|(t, _)| *t != stock));
        assert!(exp.iter().any(|(t, _)| *t == panic_t), "{exp:?}");
    }

    #[test]
    fn feedback_sequence_grows_monotonically() {
        let idx = index(true);
        let initial = named(&idx, &[("stock", 2)]);
        let seq = feedback_sequence(&idx, &initial, 3, FeedbackOptions::default(), 7).unwrap();
        assert!(seq.len() >= 2, "at least one expansion round");
        for w in seq.steps.windows(2) {
            assert!(w[1].len() > w[0].len());
            for t in &w[0] {
                assert!(w[1].contains(t), "feedback never drops terms");
            }
        }
        assert_eq!(seq.source, 7);
        // Construction reads were reset.
        assert_eq!(idx.disk().stats().reads, 0);
    }

    #[test]
    fn feedback_sequence_terminates_when_vocabulary_exhausted() {
        let idx = index(true);
        let initial = named(&idx, &[("stock", 1), ("price", 1)]);
        // Far more rounds than there are terms: must stop early, not
        // loop.
        let seq = feedback_sequence(&idx, &initial, 50, FeedbackOptions::default(), 0).unwrap();
        let distinct_terms = idx.lexicon().len();
        assert!(seq.steps.last().unwrap().len() <= distinct_terms);
        assert!(seq.len() < 50);
    }
}
