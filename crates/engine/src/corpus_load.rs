//! Bridging a synthetic [`Corpus`] into an [`InvertedIndex`].

use ir_corpus::{term_name, Corpus, TopicQuery};
use ir_index::{BuildOptions, IndexBuilder, InvertedIndex};
use ir_types::{IndexParams, IrResult, ListOrdering, TermId};

/// Options for [`index_corpus_opts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexCorpusOptions {
    /// Measure \[PZSD96\]-style compression during the build.
    pub measure_compression: bool,
    /// Retain the forward index (needed for relevance feedback).
    pub keep_forward: bool,
    /// Inverted-list ordering (the paper's frequency ordering by
    /// default; doc-id ordering for the footnote-14 ablation).
    pub ordering: ListOrdering,
}

/// Indexes a generated corpus.
///
/// Terms are interned under their [`term_name`] so queries (which carry
/// names) resolve through the lexicon like real text would. The page
/// capacity comes from the corpus configuration (the scaled geometry);
/// stop words were already removed at generation time, so no build-time
/// stop derivation is applied.
pub fn index_corpus(corpus: &Corpus, measure_compression: bool) -> IrResult<InvertedIndex> {
    index_corpus_with(corpus, measure_compression, false)
}

/// Like [`index_corpus`], optionally retaining the forward index
/// (document → term vector) that relevance feedback requires.
pub fn index_corpus_with(
    corpus: &Corpus,
    measure_compression: bool,
    keep_forward: bool,
) -> IrResult<InvertedIndex> {
    index_corpus_opts(
        corpus,
        IndexCorpusOptions {
            measure_compression,
            keep_forward,
            ordering: ListOrdering::FrequencySorted,
        },
    )
}

/// Fully parameterized corpus indexing.
pub fn index_corpus_opts(corpus: &Corpus, options: IndexCorpusOptions) -> IrResult<InvertedIndex> {
    let mut builder = IndexBuilder::new();
    // Intern only the ranks that occur, densely, in rank order.
    let vocab = corpus.config.vocab_size as usize;
    let mut ids: Vec<Option<TermId>> = vec![None; vocab];
    let mut occurs = vec![false; vocab];
    for doc in &corpus.docs {
        for &(rank, _) in doc {
            occurs[rank as usize] = true;
        }
    }
    for (rank, o) in occurs.iter().enumerate() {
        if *o {
            ids[rank] = Some(builder.intern(&term_name(rank as u32)));
        }
    }
    for doc in &corpus.docs {
        let counts = doc
            .iter()
            .map(|&(rank, f)| (ids[rank as usize].expect("occurring rank interned"), f));
        builder.add_document_counts(counts)?;
    }
    builder.build(BuildOptions {
        params: IndexParams::with_page_size(corpus.config.page_size)
            .with_ordering(options.ordering),
        derive_stop_words: 0,
        measure_compression: options.measure_compression,
        parallel: true,
        keep_forward: options.keep_forward,
    })
}

/// Converts a topic query into the `(name, f_{q,t})` pairs the core
/// [`Query`](ir_core::Query) constructor expects.
pub fn topic_query_terms(query: &TopicQuery) -> Vec<(String, u32)> {
    query.terms.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_corpus::CorpusConfig;

    #[test]
    fn corpus_round_trips_into_index() {
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let idx = index_corpus(&corpus, false).unwrap();
        assert_eq!(idx.n_docs(), corpus.config.n_docs);
        assert_eq!(idx.total_postings(), corpus.total_postings());
        assert_eq!(idx.n_terms(), corpus.distinct_terms());
        // Every query term of every topic resolves (salient terms occur
        // in generated documents with overwhelming probability; allow a
        // handful of misses for ultra-rare never-drawn terms).
        let queries = corpus.queries();
        let mut missing = 0;
        let mut total = 0;
        for q in &queries {
            for name in q.term_names() {
                total += 1;
                if idx.lexicon().lookup(name).is_none() {
                    missing += 1;
                }
            }
        }
        assert!(
            (missing as f64) < total as f64 * 0.05,
            "{missing}/{total} query terms missing from lexicon"
        );
    }

    #[test]
    fn page_size_follows_corpus_config() {
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let idx = index_corpus(&corpus, false).unwrap();
        assert_eq!(idx.params().page_size, corpus.config.page_size);
    }
}
