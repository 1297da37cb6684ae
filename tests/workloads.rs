//! Refinement-workload construction over a real generated corpus
//! (§5.1.2's recipe end-to-end).

use buffir::core::eval::{evaluate, EvalOptions};
use buffir::core::{contribution_ranking, make_sequence, Query, RefinementKind};
use buffir::index::InvertedIndex;
use buffir::storage::PageStore;
use buffir::types::{weights, DocId, PageId, TermId};
use buffir::{Algorithm, PolicyKind};
use std::collections::HashMap;

mod common;

#[test]
fn contribution_ranking_is_complete_and_sorted() {
    let (corpus, index) = common::tiny_indexed();
    for q in corpus.queries().iter().take(5) {
        let query = Query::from_named(&index, &q.terms);
        let ranked = contribution_ranking(&index, &query, 20).unwrap();
        assert_eq!(ranked.len(), query.len(), "every resolved term is ranked");
        assert!(
            ranked
                .windows(2)
                .all(|w| w[0].contribution >= w[1].contribution),
            "ranking must be contribution-descending"
        );
        // Top contributions should be positive: the query's own topical
        // terms score against the top-20 documents.
        assert!(ranked[0].contribution > 0.0, "topic {}", q.topic);
    }
}

/// §5.1.2's average contributions as first written: the top documents'
/// `W_d` in a map, looked up for every posting of every query term.
fn map_based_contributions(index: &InvertedIndex, query: &Query) -> Vec<(TermId, f64)> {
    let pool = (query.total_pages() as usize).max(1);
    let mut buffer = index.make_buffer(pool, PolicyKind::Lru).unwrap();
    let options = EvalOptions {
        top_n: 20,
        ..EvalOptions::default()
    };
    let result = evaluate(Algorithm::Full, index, &mut buffer, query, options).unwrap();
    let top: HashMap<DocId, f64> = result
        .hits
        .iter()
        .map(|h| (h.doc, index.doc_stats().vector_length(h.doc).unwrap_or(1.0)))
        .collect();
    query
        .terms()
        .iter()
        .map(|t| {
            let mut sum = 0.0;
            for p in 0..t.n_pages {
                let page = index.disk().read_page(PageId::new(t.term, p)).unwrap();
                for posting in page.postings() {
                    if let Some(w_d) = top.get(&posting.doc) {
                        sum += weights::partial_similarity(posting.freq, t.query_freq, t.idf) / w_d;
                    }
                }
            }
            let n = top.len().max(1) as f64;
            (t.term, sum / n)
        })
        .collect()
}

#[test]
fn contributions_match_the_map_based_reference_bit_for_bit() {
    let (corpus, index) = common::tiny_indexed();
    for q in corpus.queries() {
        let query = Query::from_named(&index, &q.terms);
        let want = map_based_contributions(&index, &query);
        let got = contribution_ranking(&index, &query, 20).unwrap();
        assert_eq!(got.len(), want.len(), "topic {}", q.topic);
        for c in &got {
            let (_, w) = want.iter().find(|(t, _)| *t == c.term).unwrap();
            assert_eq!(
                c.contribution.to_bits(),
                w.to_bits(),
                "topic {}, term {}",
                q.topic,
                c.term
            );
        }
    }
}

#[test]
fn add_only_steps_are_prefix_chains() {
    let (corpus, index) = common::tiny_indexed();
    let q = &corpus.queries()[0];
    let query = Query::from_named(&index, &q.terms);
    let ranked = contribution_ranking(&index, &query, 20).unwrap();
    let seq = make_sequence(&ranked, RefinementKind::AddOnly, 3, q.topic);
    assert_eq!(seq.len(), ranked.len().div_ceil(3));
    for (k, w) in seq.steps.windows(2).enumerate() {
        assert!(
            w[0].iter().all(|t| w[1].contains(t)),
            "step {k} is not a prefix of step {}",
            k + 1
        );
        assert!(w[1].len() > w[0].len());
    }
    // The final step is the full query.
    assert_eq!(seq.steps.last().unwrap().len(), ranked.len());
}

#[test]
fn add_drop_removes_exactly_the_weakest_of_previous_group() {
    let (corpus, index) = common::tiny_indexed();
    let q = corpus
        .queries()
        .into_iter()
        .max_by_key(|q| q.len())
        .unwrap();
    let query = Query::from_named(&index, &q.terms);
    let ranked = contribution_ranking(&index, &query, 20).unwrap();
    let seq = make_sequence(&ranked, RefinementKind::AddDrop, 3, q.topic);
    for k in 1..seq.len() {
        let prev_group: Vec<_> = ranked.chunks(3).nth(k - 1).unwrap().to_vec();
        let weakest = prev_group.last().unwrap().term;
        assert!(
            !seq.steps[k].iter().any(|(t, _)| *t == weakest),
            "step {k} still contains the weakest term of group {}",
            k - 1
        );
        // Everything else from the previous step survives.
        let survivors = seq.steps[k - 1]
            .iter()
            .filter(|(t, _)| *t != weakest)
            .count();
        assert_eq!(
            seq.steps[k].len(),
            survivors + ranked.chunks(3).nth(k).unwrap().len()
        );
    }
}

#[test]
fn sequences_are_deterministic() {
    let (corpus, index) = common::tiny_indexed();
    let q = &corpus.queries()[2];
    let query = Query::from_named(&index, &q.terms);
    let r1 = contribution_ranking(&index, &query, 20).unwrap();
    let r2 = contribution_ranking(&index, &query, 20).unwrap();
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.term, b.term);
        assert_eq!(a.contribution, b.contribution);
    }
    let s1 = make_sequence(&r1, RefinementKind::AddDrop, 3, q.topic);
    let s2 = make_sequence(&r2, RefinementKind::AddDrop, 3, q.topic);
    assert_eq!(s1.steps, s2.steps);
}

#[test]
fn collapsed_variant_preserves_the_last_refinement() {
    let (corpus, index) = common::tiny_indexed();
    let q = &corpus.queries()[1];
    let query = Query::from_named(&index, &q.terms);
    let ranked = contribution_ranking(&index, &query, 20).unwrap();
    let seq = make_sequence(&ranked, RefinementKind::AddOnly, 3, q.topic);
    let collapsed = seq.collapsed();
    assert_eq!(collapsed.steps.last(), seq.steps.last());
    assert!(collapsed.len() <= 2);
}
