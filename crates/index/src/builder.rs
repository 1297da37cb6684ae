//! Index construction (§4.2's procedure, generalized).
//!
//! The paper builds its index by summing term occurrences per document
//! into `(d, f_{d,t})` entries, grouping them into inverted lists, and
//! sorting each list with `f_{d,t}` as primary and `d` as secondary key.
//! [`IndexBuilder`] does exactly that, from either analyzed token
//! streams ([`IndexBuilder::add_document`]) or pre-counted term
//! frequencies ([`IndexBuilder::add_document_counts`], used by the
//! synthetic corpus generator).
//!
//! The collection-derived stop list (the 100 terms with highest `f_t`,
//! §4.2 footnote 11) is applied at build time via
//! [`BuildOptions::derive_stop_words`]: stopped terms keep their lexicon
//! slot but lose their inverted list and contribute nothing to `W_d`.

use crate::conversion::ConversionTable;
use crate::docstats::DocStats;
use crate::forward::ForwardIndex;
use crate::index::InvertedIndex;
use crate::lexicon::Lexicon;
use ir_storage::codec::{self, CompressionStats};
use ir_storage::{DiskSim, Page};
use ir_types::{
    doc_order, frequency_order, DocId, IndexParams, IrError, IrResult, ListOrdering, PageId,
    Posting, TermId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Build-time configuration.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Physical parameters (page capacity).
    pub params: IndexParams,
    /// If nonzero, mark this many highest-`f_t` terms as stop words at
    /// build time (the paper uses 100).
    pub derive_stop_words: usize,
    /// Measure \[PZSD96\]-style compression during the build (adds one
    /// encode pass; reported via
    /// [`InvertedIndex::compression_stats`]).
    pub measure_compression: bool,
    /// Sort/paginate inverted lists on multiple threads.
    pub parallel: bool,
    /// Retain a document → term-vector forward index (needed for
    /// relevance feedback; costs about as much memory as the postings).
    pub keep_forward: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            params: IndexParams::paper(),
            derive_stop_words: 0,
            measure_compression: false,
            parallel: true,
            keep_forward: false,
        }
    }
}

impl BuildOptions {
    /// The paper's §4.2 configuration: `PageSize = 404` and a
    /// collection-derived 100-term stop list.
    pub fn paper() -> Self {
        BuildOptions {
            derive_stop_words: 100,
            ..BuildOptions::default()
        }
    }
}

/// Accumulates documents, then produces an [`InvertedIndex`].
///
/// ```
/// use ir_index::{BuildOptions, IndexBuilder};
///
/// let mut builder = IndexBuilder::new();
/// builder.add_document(["stock", "price", "stock"]);
/// builder.add_document(["bond", "price"]);
/// let index = builder.build(BuildOptions::default())?;
/// assert_eq!(index.n_docs(), 2);
/// let stock = index.lexicon().lookup("stock").unwrap();
/// assert_eq!(index.f_max(stock)?, 2); // stock appears twice in doc 0
/// # Ok::<(), ir_types::IrError>(())
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    lexicon: Lexicon,
    postings: Vec<Vec<Posting>>,
    n_docs: u32,
}

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IndexBuilder::default()
    }

    /// Interns a term ahead of time (for the counts-based path).
    pub fn intern(&mut self, name: &str) -> TermId {
        let id = self.lexicon.intern(name);
        if id.index() >= self.postings.len() {
            self.postings.resize_with(id.index() + 1, Vec::new);
        }
        id
    }

    /// Adds one document given its token stream (already analyzed:
    /// stop-word-free, stemmed). Occurrences are summed into
    /// `(d, f_{d,t})` entries. Returns the new document's id.
    pub fn add_document<I>(&mut self, tokens: I) -> DocId
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for tok in tokens {
            let id = self.intern(tok.as_ref());
            *counts.entry(id).or_insert(0) += 1;
        }
        self.add_counts_internal(counts.into_iter())
    }

    /// Adds one document from pre-counted `(term, f_{d,t})` pairs.
    /// Terms must have been interned; frequencies must be ≥ 1 and terms
    /// distinct.
    ///
    /// # Errors
    /// [`IrError::UnknownTerm`] for an uninterned term,
    /// [`IrError::InvalidConfig`] for a zero frequency.
    pub fn add_document_counts(
        &mut self,
        counts: impl IntoIterator<Item = (TermId, u32)>,
    ) -> IrResult<DocId> {
        let counts: Vec<(TermId, u32)> = counts.into_iter().collect();
        for &(t, f) in &counts {
            if t.index() >= self.postings.len() {
                return Err(IrError::UnknownTerm(t));
            }
            if f == 0 {
                return Err(IrError::InvalidConfig(format!(
                    "zero frequency for term {t} in document {}",
                    self.n_docs
                )));
            }
        }
        Ok(self.add_counts_internal(counts.into_iter()))
    }

    fn add_counts_internal(&mut self, counts: impl Iterator<Item = (TermId, u32)>) -> DocId {
        let doc = DocId(self.n_docs);
        self.n_docs += 1;
        for (t, f) in counts {
            self.postings[t.index()].push(Posting { doc, freq: f });
        }
        doc
    }

    /// Documents added so far.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Terms interned so far.
    pub fn n_terms(&self) -> usize {
        self.lexicon.len()
    }

    /// Finalizes the index.
    ///
    /// # Errors
    /// [`IrError::InvalidConfig`] if no documents were added.
    pub fn build(self, options: BuildOptions) -> IrResult<InvertedIndex> {
        let IndexBuilder {
            mut lexicon,
            mut postings,
            n_docs,
        } = self;
        if n_docs == 0 {
            return Err(IrError::InvalidConfig(
                "cannot build an index over zero documents".into(),
            ));
        }
        let page_size = options.params.page_size;

        // 1. Collection-derived stop words: top-k by document frequency.
        if options.derive_stop_words > 0 {
            let mut by_df: Vec<(usize, usize)> = postings
                .iter()
                .enumerate()
                .map(|(t, l)| (t, l.len()))
                .collect();
            by_df.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(t, _) in by_df.iter().take(options.derive_stop_words) {
                lexicon.entry_mut(TermId(t as u32)).stopped = true;
                postings[t].clear();
                postings[t].shrink_to_fit();
            }
        }

        // Optional forward index, inverted back out of the (not yet
        // sorted) postings; stopped terms were already cleared.
        let forward = options.keep_forward.then(|| {
            let mut docs: Vec<Vec<(TermId, u32)>> = vec![Vec::new(); n_docs as usize];
            for (t, list) in postings.iter().enumerate() {
                for p in list {
                    docs[p.doc.index()].push((TermId(t as u32), p.freq));
                }
            }
            for d in docs.iter_mut() {
                d.sort_unstable_by_key(|&(t, _)| t);
            }
            ForwardIndex::new(docs)
        });

        // 2-4. Per-term: stats, sort, paginate (parallelizable: terms
        // are independent; W_d accumulation uses per-chunk partials).
        let n_terms = postings.len();
        let threads = if options.parallel {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(n_terms.max(1))
        } else {
            1
        };

        struct ChunkResult {
            first_term: usize,
            stats: Vec<(u32, f64, u32, u64, u32)>, // (doc_freq, idf, f_max, n_postings, n_pages)
            pages: Vec<Vec<Page>>,
            wd_sq: Vec<f64>,
            compression: CompressionStats,
        }

        fn process_chunk(
            first_term: usize,
            lists: &mut [Vec<Posting>],
            n_docs: u32,
            page_size: usize,
            measure_compression: bool,
            ordering: ListOrdering,
        ) -> ChunkResult {
            let mut stats = Vec::with_capacity(lists.len());
            let mut pages = Vec::with_capacity(lists.len());
            let mut wd_sq = vec![0.0f64; n_docs as usize];
            let mut compression = CompressionStats::default();
            for (offset, list) in lists.iter_mut().enumerate() {
                let term = TermId((first_term + offset) as u32);
                let doc_freq = list.len() as u32;
                if doc_freq == 0 {
                    stats.push((0, 0.0, 0, 0, 0));
                    pages.push(Vec::new());
                    continue;
                }
                match ordering {
                    ListOrdering::FrequencySorted => list.sort_unstable_by(frequency_order),
                    ListOrdering::DocIdSorted => list.sort_unstable_by(doc_order),
                }
                let idf = ir_types::weights::idf(n_docs, doc_freq);
                let f_max = list.iter().map(|p| p.freq).max().unwrap_or(0);
                for p in list.iter() {
                    let w = ir_types::weights::term_weight(p.freq, idf);
                    wd_sq[p.doc.index()] += w * w;
                }
                if measure_compression {
                    match ordering {
                        ListOrdering::FrequencySorted => compression.add(codec::measure(list)),
                        ListOrdering::DocIdSorted => {
                            // The encoder requires frequency order; measure
                            // on a sorted copy (sizes are what matter).
                            let mut copy = list.clone();
                            copy.sort_unstable_by(frequency_order);
                            compression.add(codec::measure(&copy));
                        }
                    }
                }
                let term_pages: Vec<Page> = list
                    .chunks(page_size)
                    .enumerate()
                    .map(|(i, chunk)| {
                        Page::new(PageId::new(term, i as u32), chunk.to_vec().into(), idf)
                    })
                    .collect();
                stats.push((
                    doc_freq,
                    idf,
                    f_max,
                    list.len() as u64,
                    term_pages.len() as u32,
                ));
                pages.push(term_pages);
            }
            ChunkResult {
                first_term,
                stats,
                pages,
                wd_sq,
                compression,
            }
        }

        let ordering = options.params.ordering;
        let chunk_size = n_terms.div_ceil(threads.max(1)).max(1);
        let mut results: Vec<ChunkResult> = if threads <= 1 || n_terms < 2 * chunk_size {
            vec![process_chunk(
                0,
                &mut postings,
                n_docs,
                page_size,
                options.measure_compression,
                ordering,
            )]
        } else {
            let measure = options.measure_compression;
            let mut out: Vec<ChunkResult> = Vec::new();
            crossbeam::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (i, chunk) in postings.chunks_mut(chunk_size).enumerate() {
                    let first = i * chunk_size;
                    handles.push(scope.spawn(move |_| {
                        process_chunk(first, chunk, n_docs, page_size, measure, ordering)
                    }));
                }
                for h in handles {
                    out.push(h.join().expect("index build worker panicked"));
                }
            })
            .expect("index build scope failed");
            out
        };
        results.sort_by_key(|r| r.first_term);

        // Merge chunk results.
        let mut lists: Vec<Vec<Page>> = Vec::with_capacity(n_terms);
        let mut wd_sq = vec![0.0f64; n_docs as usize];
        let mut compression = CompressionStats::default();
        for r in &mut results {
            for (offset, (doc_freq, idf, f_max, n_postings, n_pages)) in
                r.stats.iter().copied().enumerate()
            {
                let e = lexicon.entry_mut(TermId((r.first_term + offset) as u32));
                e.doc_freq = doc_freq;
                e.idf = idf;
                e.f_max = f_max;
                e.n_postings = n_postings;
                e.n_pages = n_pages;
            }
            lists.append(&mut r.pages);
            for (d, sq) in r.wd_sq.iter().enumerate() {
                wd_sq[d] += sq;
            }
            compression.add(r.compression);
        }
        let vector_lengths: Vec<f64> = wd_sq.into_iter().map(f64::sqrt).collect();

        // 5. The BAF conversion table, from the sorted lists.
        let conversion = ConversionTable::build_with_ordering(
            postings.iter().map(|l| l.as_slice()),
            page_size,
            ordering,
        );

        Ok(InvertedIndex::from_parts(
            lexicon,
            DocStats::new(vector_lengths),
            conversion,
            options.params,
            Arc::new(DiskSim::new(lists)),
            options.measure_compression.then_some(compression),
            forward,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tiny documents with known statistics.
    fn small_index(options: BuildOptions) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["stock", "price", "stock"]); // d0: stock×2, price×1
        b.add_document(["price", "bond"]); // d1
        b.add_document(["stock"]); // d2
        b.build(options).unwrap()
    }

    #[test]
    fn term_stats_are_correct() {
        let idx = small_index(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        });
        let lex = idx.lexicon();
        let stock = lex.lookup("stock").unwrap();
        let price = lex.lookup("price").unwrap();
        let bond = lex.lookup("bond").unwrap();
        assert_eq!(lex.entry(stock).unwrap().doc_freq, 2);
        assert_eq!(lex.entry(price).unwrap().doc_freq, 2);
        assert_eq!(lex.entry(bond).unwrap().doc_freq, 1);
        assert_eq!(lex.entry(stock).unwrap().f_max, 2);
        // idf = log2(3/2) for stock/price, log2(3) for bond.
        assert!((lex.entry(bond).unwrap().idf - 3f64.log2()).abs() < 1e-12);
        assert!((lex.entry(stock).unwrap().idf - (3f64 / 2.0).log2()).abs() < 1e-12);
    }

    #[test]
    fn lists_are_frequency_sorted_and_paged() {
        let idx = small_index(BuildOptions {
            params: IndexParams::with_page_size(1),
            ..BuildOptions::default()
        });
        let stock = idx.lexicon().lookup("stock").unwrap();
        // stock: (d0, 2), (d2, 1) → freq-sorted, one entry per page.
        assert_eq!(idx.lexicon().entry(stock).unwrap().n_pages, 2);
        let disk = idx.disk();
        use ir_storage::PageStore;
        let p0 = disk.read_page(PageId::new(stock, 0)).unwrap();
        let p1 = disk.read_page(PageId::new(stock, 1)).unwrap();
        assert_eq!(p0.postings()[0], Posting::new(0, 2));
        assert_eq!(p1.postings()[0], Posting::new(2, 1));
    }

    #[test]
    fn vector_lengths_match_hand_computation() {
        let idx = small_index(BuildOptions::default());
        let lex = idx.lexicon();
        let idf_stock = lex.entry(lex.lookup("stock").unwrap()).unwrap().idf;
        let idf_price = lex.entry(lex.lookup("price").unwrap()).unwrap().idf;
        // d0: stock×2, price×1 → sqrt((2·idf_s)² + (1·idf_p)²)
        let expected = ((2.0 * idf_stock).powi(2) + idf_price.powi(2)).sqrt();
        let got = idx.doc_stats().vector_length(DocId(0)).unwrap();
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn stop_word_derivation_drops_top_terms() {
        let mut b = IndexBuilder::new();
        for _ in 0..5 {
            b.add_document(["the", "market"]);
        }
        b.add_document(["the", "rare"]);
        let idx = b
            .build(BuildOptions {
                derive_stop_words: 1,
                ..BuildOptions::default()
            })
            .unwrap();
        let lex = idx.lexicon();
        let the = lex.lookup("the").unwrap();
        assert!(lex.entry(the).unwrap().stopped);
        assert_eq!(lex.entry(the).unwrap().n_pages, 0);
        // Stopped terms contribute nothing to W_d: doc 5 = {the, rare},
        // so W_d = idf_rare.
        let rare = lex.lookup("rare").unwrap();
        let idf_rare = lex.entry(rare).unwrap().idf;
        let wd = idx.doc_stats().vector_length(DocId(5)).unwrap();
        assert!((wd - idf_rare).abs() < 1e-12);
    }

    #[test]
    fn counts_path_matches_token_path() {
        let mut b1 = IndexBuilder::new();
        b1.add_document(["a", "a", "b"]);
        b1.add_document(["b", "c"]);
        let i1 = b1.build(BuildOptions::default()).unwrap();

        let mut b2 = IndexBuilder::new();
        let a = b2.intern("a");
        let b = b2.intern("b");
        let c = b2.intern("c");
        b2.add_document_counts([(a, 2), (b, 1)]).unwrap();
        b2.add_document_counts([(b, 1), (c, 1)]).unwrap();
        let i2 = b2.build(BuildOptions::default()).unwrap();

        assert_eq!(i1.n_docs(), i2.n_docs());
        for name in ["a", "b", "c"] {
            let e1 = i1
                .lexicon()
                .entry(i1.lexicon().lookup(name).unwrap())
                .unwrap();
            let e2 = i2
                .lexicon()
                .entry(i2.lexicon().lookup(name).unwrap())
                .unwrap();
            assert_eq!(e1.doc_freq, e2.doc_freq, "{name}");
            assert_eq!(e1.f_max, e2.f_max, "{name}");
        }
    }

    #[test]
    fn counts_path_validates_input() {
        let mut b = IndexBuilder::new();
        let a = b.intern("a");
        assert!(b.add_document_counts([(TermId(9), 1)]).is_err());
        assert!(b.add_document_counts([(a, 0)]).is_err());
        assert_eq!(b.n_docs(), 0, "failed adds must not consume a doc id");
    }

    #[test]
    fn empty_build_rejected() {
        let b = IndexBuilder::new();
        assert!(matches!(
            b.build(BuildOptions::default()),
            Err(IrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let docs: Vec<Vec<(u32, u32)>> = (0..200)
            .map(|_| {
                let n = rng.gen_range(1..20);
                (0..n)
                    .map(|_| (rng.gen_range(0..50), rng.gen_range(1..6)))
                    .collect()
            })
            .collect();
        let build = |parallel: bool| {
            let mut b = IndexBuilder::new();
            let ids: Vec<TermId> = (0..50).map(|t| b.intern(&format!("t{t}"))).collect();
            for d in &docs {
                let mut seen = std::collections::HashMap::new();
                for &(t, f) in d {
                    *seen.entry(ids[t as usize]).or_insert(0) += f;
                }
                b.add_document_counts(seen).unwrap();
            }
            b.build(BuildOptions {
                parallel,
                measure_compression: true,
                params: IndexParams::with_page_size(3),
                ..BuildOptions::default()
            })
            .unwrap()
        };
        let serial = build(false);
        let parallel = build(true);
        assert_eq!(serial.total_pages(), parallel.total_pages());
        for t in 0..50u32 {
            let e1 = serial.lexicon().entry(TermId(t)).unwrap();
            let e2 = parallel.lexicon().entry(TermId(t)).unwrap();
            assert_eq!(e1.doc_freq, e2.doc_freq);
            assert_eq!(e1.n_pages, e2.n_pages);
            assert!((e1.idf - e2.idf).abs() < 1e-12);
        }
        for d in 0..serial.n_docs() {
            let w1 = serial.doc_stats().vector_length(DocId(d)).unwrap();
            let w2 = parallel.doc_stats().vector_length(DocId(d)).unwrap();
            assert!((w1 - w2).abs() < 1e-9);
        }
        assert_eq!(
            serial.compression_stats().unwrap().n_postings,
            parallel.compression_stats().unwrap().n_postings
        );
    }
}
