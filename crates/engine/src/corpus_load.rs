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

/// Fully parameterized corpus indexing. The build reads the corpus's
/// packed bags in place ([`IndexBuilder::build_from`]), without a copy.
pub fn index_corpus_opts(corpus: &Corpus, options: IndexCorpusOptions) -> IrResult<InvertedIndex> {
    let mut builder = IndexBuilder::new();
    // Intern only the ranks that occur, densely, in rank order. A rank
    // that never occurs keeps an id no term has.
    let vocab = corpus.config.vocab_size as usize;
    let mut ids = vec![TermId(u32::MAX); vocab];
    let mut occurs = vec![false; vocab];
    for (rank, _) in corpus.docs().flatten() {
        occurs[rank as usize] = true;
    }
    for (rank, o) in occurs.iter().enumerate() {
        if *o {
            ids[rank] = builder.intern(&term_name(rank as u32));
        }
    }
    let docs = || {
        corpus
            .docs()
            .map(|doc| doc.map(|(rank, f)| (ids[rank as usize], f)))
    };
    builder.build_from(
        docs,
        BuildOptions {
            params: IndexParams::with_page_size(corpus.config.page_size)
                .with_ordering(options.ordering),
            derive_stop_words: 0,
            measure_compression: options.measure_compression,
            keep_forward: options.keep_forward,
        },
    )
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
    fn tiny_corpus_page_file_is_pinned_byte_for_byte() {
        // The out-of-core workloads serve this export's bytes; a faster
        // build or export must write exactly the same file.
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let idx = index_corpus(&corpus, false).unwrap();
        let dir = std::env::temp_dir().join("buffir-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("tiny-{}.bfpg", std::process::id()));
        ir_index::save_page_file(&idx, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (80_044, 0x214b_3da1_0575_39a8));
    }

    #[test]
    fn the_borrowed_corpus_builds_what_added_documents_build() {
        use ir_storage::PageStore;
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let borrowed = index_corpus(&corpus, false).unwrap();
        // The same documents added one by one, under the same ids.
        let mut builder = IndexBuilder::new();
        for (t, _) in borrowed.lexicon().iter() {
            builder.intern(borrowed.lexicon().name(t));
        }
        for doc in corpus.docs() {
            let counts: Vec<(TermId, u32)> = doc
                .map(|(rank, f)| (builder.intern(&term_name(rank)), f))
                .collect();
            builder.add_document_counts(counts).unwrap();
        }
        let added = builder
            .build(BuildOptions {
                params: IndexParams::with_page_size(corpus.config.page_size),
                ..BuildOptions::default()
            })
            .unwrap();
        assert_eq!(added.total_pages(), borrowed.total_pages());
        for (term, e) in borrowed.lexicon().iter() {
            assert_eq!(added.lexicon().entry(term).unwrap().n_pages, e.n_pages);
            for p in 0..e.n_pages {
                let id = ir_types::PageId::new(term, p);
                let (a, b) = (
                    added.disk().read_page(id).unwrap(),
                    borrowed.disk().read_page(id).unwrap(),
                );
                assert_eq!(a.postings(), b.postings(), "{id:?}");
                assert_eq!(a.checksum(), b.checksum(), "{id:?}");
                assert_eq!(a.max_weight().to_bits(), b.max_weight().to_bits(), "{id:?}");
            }
        }
        let bits = |idx: &InvertedIndex| -> Vec<u64> {
            idx.doc_stats()
                .as_slice()
                .iter()
                .map(|w| w.to_bits())
                .collect()
        };
        assert_eq!(bits(&added), bits(&borrowed));
    }

    #[test]
    fn the_index_reports_one_slab_and_a_record_per_page() {
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let idx = index_corpus(&corpus, false).unwrap();
        let memory = idx.memory();
        assert_eq!(memory.postings as u64, 8 * corpus.total_postings());
        assert_eq!(
            memory.page_records,
            24 * idx.total_pages() + 4 * (idx.n_terms() + 1)
        );
        assert_eq!(memory.vector_lengths, 8 * corpus.config.n_docs as usize);
        // A 4 B cell per frequency 0..=f_max of each term, a 4 B row
        // start per term and one past the last.
        let cells: usize = idx
            .lexicon()
            .iter()
            .map(|(_, e)| e.f_max as usize + 1)
            .sum();
        assert_eq!(memory.conversion, 4 * cells + 4 * (idx.n_terms() + 1));
        assert!(memory.lexicon > 0);
    }

    #[test]
    fn frequencies_past_a_byte_reach_the_index() {
        // Long documents over a small vocabulary: the head ranks occur
        // hundreds of times a document, past a packed cell's low byte.
        let corpus = Corpus::generate(CorpusConfig {
            n_docs: 40,
            vocab_size: 200,
            skip_top_ranks: 1,
            mean_doc_tokens: 4_000,
            ..CorpusConfig::tiny()
        });
        let idx = index_corpus(&corpus, false).unwrap();
        let f_max = idx.lexicon().iter().map(|(_, e)| e.f_max).max();
        assert!(f_max >= Some(256), "f_max {f_max:?}");
        assert_eq!(idx.total_postings(), corpus.total_postings());
        // Each term's postings sum to its occurrences in the corpus.
        let mut occurrences = vec![0u64; corpus.config.vocab_size as usize];
        for (rank, f) in corpus.docs().flatten() {
            occurrences[rank as usize] += u64::from(f);
        }
        for (rank, &n) in occurrences.iter().enumerate().filter(|(_, &n)| n > 0) {
            let term = idx.lexicon().lookup(&term_name(rank as u32)).unwrap();
            let mut sum = 0u64;
            for p in 0..idx.n_pages(term).unwrap() {
                use ir_storage::PageStore;
                let page = idx
                    .disk()
                    .read_page(ir_types::PageId::new(term, p))
                    .unwrap();
                sum += page
                    .postings()
                    .iter()
                    .map(|p| u64::from(p.freq))
                    .sum::<u64>();
            }
            assert_eq!(sum, n, "rank {rank}");
        }
    }

    #[test]
    fn page_size_follows_corpus_config() {
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let idx = index_corpus(&corpus, false).unwrap();
        assert_eq!(idx.params().page_size, corpus.config.page_size);
    }
}
