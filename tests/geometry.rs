//! Corpus-geometry regression: the paper-scaled generator must keep
//! producing the Table 4 shape (these bounds were calibrated against
//! the paper's published statistics; see DESIGN.md §1 and
//! `CorpusConfig` docs). Runs at σ = 1/64 to stay fast in debug mode.

use buffir::corpus::{Corpus, CorpusConfig};

fn corpus() -> Corpus {
    let mut cfg = CorpusConfig::paper_scaled(1.0 / 64.0);
    cfg.n_topics = 20; // geometry is topic-independent; keep it quick
    Corpus::generate(cfg)
}

#[test]
fn table4_geometry_holds_at_paper_scale() {
    let c = corpus();
    let page = c.config.page_size;
    let n_docs = c.config.n_docs;
    let mut df = vec![0u32; c.config.vocab_size as usize];
    for (r, _) in c.docs().flatten() {
        df[r as usize] += 1;
    }
    let present = df.iter().filter(|&&f| f > 0).count();
    assert!(present > 50_000, "vocabulary too small: {present}");

    // Longest list lands in the paper's low-idf band (51–115 pages).
    let max_df = *df.iter().max().unwrap();
    let max_pages = (max_df as usize).div_ceil(page);
    assert!(
        (50..=160).contains(&max_pages),
        "longest list {max_pages} pages (paper: up to 115)"
    );

    // Multi-page terms are a small minority (paper: 3.6 %; the
    // generator lands at 7–12 % depending on σ — the fraction creeps up
    // at small scales because the one-page threshold shrinks faster
    // than the present vocabulary).
    let multi = df.iter().filter(|&&f| f as usize > page).count();
    let frac = multi as f64 / present as f64;
    assert!(frac < 0.15, "multi-page fraction {frac}");

    // idf of the most common kept term near the paper's 1.91 band edge.
    let idf_min = (f64::from(n_docs) / f64::from(max_df)).log2();
    assert!(
        (1.2..=3.2).contains(&idf_min),
        "most common kept term idf {idf_min} (paper band starts at 1.91)"
    );

    // Posting-frequency skew: the vast majority of entries are f = 1.
    let total = c.total_postings();
    let f1 = c.docs().flatten().filter(|&(_, f)| f == 1).count() as u64;
    assert!(
        f1 as f64 / total as f64 > 0.90,
        "f=1 fraction {}",
        f1 as f64 / total as f64
    );
}

#[test]
fn distinct_terms_per_document_matches_wsj() {
    // Paper: ~31.5 M postings over 173,252 docs ≈ 182 distinct
    // terms/doc. Allow a generous band.
    let c = corpus();
    let per_doc = c.total_postings() as f64 / c.config.n_docs as f64;
    assert!(
        (120.0..=260.0).contains(&per_doc),
        "distinct terms per doc {per_doc} (paper ≈ 182)"
    );
}

#[test]
fn queries_span_the_paper_term_range() {
    // §2.1: studies use 35–100 terms per query; our topics are drawn
    // from (30, 100).
    let c = corpus();
    for q in c.queries() {
        assert!((30..=100).contains(&q.len()), "query of {} terms", q.len());
    }
}
