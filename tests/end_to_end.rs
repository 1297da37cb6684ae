//! Cross-crate integration: corpus → index → evaluation → ranking,
//! checked against an independent brute-force scorer that never touches
//! the inverted index.

use buffir::core::eval::{evaluate, EvalOptions};
use buffir::core::{rank::Hit, Query};
use buffir::corpus::{term_rank, Corpus, CorpusConfig};
use buffir::engine::index_corpus;
use buffir::{Algorithm, FilterParams, PolicyKind};
use std::collections::HashMap;

mod common;

/// Brute-force cosine over the raw corpus bags: for every document,
/// score = Σ_t w_{d,t}·w_{q,t} / W_d, computed without the inverted
/// index. The full (filters-off) evaluator must agree exactly.
fn brute_force_top(
    corpus: &Corpus,
    index: &buffir::index::InvertedIndex,
    query_terms: &[(String, u32)],
    n: usize,
) -> Vec<Hit> {
    // Map query names to ranks.
    let terms: Vec<(u32, u32, f64)> = query_terms
        .iter()
        .filter_map(|(name, fq)| {
            let rank = term_rank(name)?;
            let id = index.lexicon().lookup(name)?;
            let e = index.lexicon().entry(id).ok()?;
            if e.n_postings() == 0 {
                return None;
            }
            Some((rank, *fq, e.idf))
        })
        .collect();
    let mut hits: Vec<Hit> = Vec::new();
    for (d, bag) in corpus.docs().enumerate() {
        let by_rank: HashMap<u32, u32> = bag.collect();
        let mut raw = 0.0;
        for &(rank, fq, idf) in &terms {
            if let Some(&f) = by_rank.get(&rank) {
                raw += (f as f64 * idf) * (fq as f64 * idf);
            }
        }
        if raw > 0.0 {
            let wd = index
                .doc_stats()
                .vector_length(ir_types::DocId(d as u32))
                .unwrap();
            hits.push(Hit {
                doc: ir_types::DocId(d as u32),
                score: raw / wd,
            });
        }
    }
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
    hits.truncate(n);
    hits
}

#[test]
fn full_evaluation_agrees_with_brute_force() {
    let corpus = Corpus::generate(CorpusConfig::tiny());
    let index = index_corpus(&corpus, false).unwrap();
    for q in corpus.queries().iter().take(4) {
        let query = Query::from_named(&index, &q.terms);
        let mut buffer = index
            .make_buffer((query.total_pages() as usize).max(1), PolicyKind::Lru)
            .unwrap();
        let result = evaluate(
            Algorithm::Full,
            &index,
            &mut buffer,
            &query,
            EvalOptions::default(),
        )
        .unwrap();
        let expected = brute_force_top(&corpus, &index, &q.terms, 20);
        assert_eq!(
            result.hits.len(),
            expected.len().min(20),
            "topic {}",
            q.topic
        );
        for (got, want) in result.hits.iter().zip(&expected) {
            assert_eq!(got.doc, want.doc, "topic {}", q.topic);
            assert!(
                (got.score - want.score).abs() < 1e-9,
                "topic {}: {} vs {}",
                q.topic,
                got.score,
                want.score
            );
        }
    }
}

#[test]
fn full_evaluation_reads_exactly_the_query_pages() {
    let (corpus, index) = common::tiny_indexed();
    let q = &corpus.queries()[0];
    let query = Query::from_named(&index, &q.terms);
    let mut buffer = index
        .make_buffer((query.total_pages() as usize).max(1), PolicyKind::Lru)
        .unwrap();
    let before = index.disk().stats().reads;
    let r = evaluate(
        Algorithm::Full,
        &index,
        &mut buffer,
        &query,
        EvalOptions::default(),
    )
    .unwrap();
    assert_eq!(r.stats.disk_reads, query.total_pages());
    assert_eq!(index.disk().stats().reads - before, query.total_pages());
}

#[test]
fn df_never_reads_more_than_full_and_baf_matches_df_cold() {
    let (corpus, index) = common::tiny_indexed();
    for q in corpus.queries().iter().take(6) {
        let query = Query::from_named(&index, &q.terms);
        let pool = (query.total_pages() as usize).max(1);
        let run = |alg: Algorithm| {
            let mut buffer = index.make_buffer(pool, PolicyKind::Lru).unwrap();
            evaluate(alg, &index, &mut buffer, &query, EvalOptions::default())
                .unwrap()
                .stats
        };
        let full = run(Algorithm::Full);
        let df = run(Algorithm::Df);
        let baf = run(Algorithm::Baf);
        assert!(df.disk_reads <= full.disk_reads, "topic {}", q.topic);
        assert!(df.peak_accumulators <= full.peak_accumulators);
        // Cold + ample buffers: BAF's reorder cannot *increase* total
        // page reads beyond DF by more than the threshold-path
        // difference; both must stay within the full bound.
        assert!(baf.disk_reads <= full.disk_reads, "topic {}", q.topic);
    }
}

#[test]
fn warm_refinement_reads_only_new_term_pages_with_ample_buffers() {
    let (corpus, index) = common::tiny_indexed();
    let q = corpus
        .queries()
        .into_iter()
        .max_by_key(|q| q.len())
        .unwrap();
    let all_terms = q.terms.clone();
    let (head, tail) = all_terms.split_at(all_terms.len() - 1);
    let q1 = Query::from_named(&index, head);
    let q2 = Query::from_named(&index, &all_terms);
    if q2.len() != q1.len() + 1 {
        // The dropped last term didn't resolve; nothing to test.
        return;
    }
    let added_name = &tail[0].0;
    let added = index.lexicon().lookup(added_name).unwrap();
    let added_pages = u64::from(index.n_pages(added).unwrap());
    let pool = (q2.total_pages() as usize * 2).max(8);
    for alg in [Algorithm::Df, Algorithm::Baf] {
        let mut buffer = index.make_buffer(pool, PolicyKind::Rap).unwrap();
        let opts = EvalOptions {
            params: FilterParams::OFF,
            ..EvalOptions::default()
        };
        evaluate(alg, &index, &mut buffer, &q1, opts).unwrap();
        let r2 = evaluate(alg, &index, &mut buffer, &q2, opts).unwrap();
        assert_eq!(
            r2.stats.disk_reads, added_pages,
            "{alg}: warm refinement must read only the added term"
        );
    }
}

#[test]
fn effectiveness_reference_is_sane() {
    // The generator's qrels must be discoverable by the ranker: mean AP
    // over topics should beat a random baseline by a wide margin.
    let (corpus, index) = common::tiny_indexed();
    let mut aps = Vec::new();
    for q in corpus.queries().iter().take(8) {
        let query = Query::from_named(&index, &q.terms);
        let mut buffer = index
            .make_buffer((query.total_pages() as usize).max(1), PolicyKind::Lru)
            .unwrap();
        let r = evaluate(
            Algorithm::Full,
            &index,
            &mut buffer,
            &query,
            EvalOptions::default(),
        )
        .unwrap();
        let rel = buffir::core::effectiveness::relevance_set(corpus.relevant_docs(q.topic));
        aps.push(buffir::core::effectiveness::average_precision(
            &r.hits, &rel,
        ));
    }
    let mean = aps.iter().sum::<f64>() / aps.len() as f64;
    assert!(
        mean > 0.05,
        "mean AP {mean} too low: topical structure is not retrievable"
    );
}
