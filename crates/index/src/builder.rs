//! Index construction (§4.2's procedure, generalized).
//!
//! The paper builds its index by summing term occurrences per document
//! into `(d, f_{d,t})` entries, grouping them into inverted lists, and
//! sorting each list with `f_{d,t}` as primary and `d` as secondary key.
//! [`IndexBuilder`] builds the same lists from analyzed token streams
//! ([`IndexBuilder::add_document`]), from pre-counted term frequencies
//! ([`IndexBuilder::add_document_counts`]), or over a borrowed
//! collection without copying it ([`IndexBuilder::build_from`], used
//! for the synthetic corpus).
//!
//! The collection-derived stop list (the 100 terms with highest `f_t`,
//! §4.2 footnote 11) is applied at build time via
//! [`BuildOptions::derive_stop_words`]: stopped terms keep their lexicon
//! slot but lose their inverted list and contribute nothing to `W_d`.
//!
//! The build inverts by counting and never holds a list of its own:
//! every posting goes straight to its final slot in the one slab the
//! [`DiskSim`] then serves. It runs on one part per core
//! ([`ir_types::parts`]), each writing only its own slice of buffers
//! the calling thread sized, so the bytes are the same for any part
//! count. Pass 1, over document ranges, counts each term's `f_t` and
//! `f_max`; the parts' tallies are merged, and they place each list in
//! the slab and size its conversion-table row. Then each part takes a
//! range of terms holding about an equal share of the work (its
//! postings, plus `LIST_COST` a list): pass 2
//! fills its terms' rows, whose suffix sums say where each frequency's
//! run starts, and pass 3 scatters its terms' `(d, f_{d,t})` to the
//! next free slot of their run. Documents are visited in id order, so
//! each run comes out document-ascending — the paper's order, with no
//! sort. The lexicon, the stop words, and, per term in term-id order,
//! `idf_t` and the `W_d²` sums stay on the calling thread, so the
//! lengths are the same to the bit on every machine; the page records
//! are cut over term ranges again ([`DiskSim::from_slab`]).

use crate::conversion::{self, ConversionTable};
use crate::docstats::DocStats;
use crate::forward::ForwardIndex;
use crate::index::InvertedIndex;
use crate::lexicon::Lexicon;
use ir_storage::codec::{self, CompressionStats};
use ir_storage::DiskSim;
use ir_types::{
    frequency_order, DocId, IndexParams, IrError, IrResult, ListOrdering, Posting, TermId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// What one inverted list costs passes 2 and 3 beyond its postings, in
/// postings: its row and its runs' cursors are cold lines, so a range
/// of many short lists is slower than one of as many postings in a few
/// long lists. Measured at σ = 1/16, where about ten balanced two
/// parts.
const LIST_COST: u64 = 10;

/// Build-time configuration. Every field changes what is built; none
/// changes how (the build splits over the cores it finds, and its
/// output does not depend on how many).
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
    /// Every added document's `(t, f_{d,t})` pairs, back to back.
    pairs: Vec<(TermId, u32)>,
    /// Document `d`'s pairs end at `pairs[doc_ends[d]]`.
    doc_ends: Vec<usize>,
}

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IndexBuilder::default()
    }

    /// Interns a term ahead of time (for the counts-based path).
    pub fn intern(&mut self, name: &str) -> TermId {
        self.lexicon.intern(name)
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
        self.pairs.extend(counts);
        self.end_document()
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
        let start = self.pairs.len();
        self.pairs.extend(counts);
        let checked = self.pairs[start..]
            .iter()
            .try_for_each(|&(t, f)| check_pair(&self.lexicon, self.n_docs(), t, f));
        if let Err(e) = checked {
            self.pairs.truncate(start);
            return Err(e);
        }
        Ok(self.end_document())
    }

    fn end_document(&mut self) -> DocId {
        let doc = DocId(self.n_docs());
        self.doc_ends.push(self.pairs.len());
        doc
    }

    /// Documents added so far.
    pub fn n_docs(&self) -> u32 {
        self.doc_ends.len() as u32
    }

    /// Terms interned so far.
    pub fn n_terms(&self) -> usize {
        self.lexicon.len()
    }

    /// Finalizes the index over the documents added so far.
    ///
    /// # Errors
    /// [`IrError::InvalidConfig`] if no documents were added or the
    /// collection holds more than `u32::MAX` postings.
    pub fn build(self, options: BuildOptions) -> IrResult<InvertedIndex> {
        self.build_in(options, ir_types::parts::available())
    }

    /// [`build`](Self::build) split into `parts` parts.
    pub(crate) fn build_in(self, options: BuildOptions, parts: usize) -> IrResult<InvertedIndex> {
        let IndexBuilder {
            lexicon,
            pairs,
            doc_ends,
        } = self;
        let docs = || {
            let starts = std::iter::once(0).chain(doc_ends.iter().copied());
            starts
                .zip(&doc_ends)
                .map(|(start, &end)| pairs[start..end].iter().copied())
        };
        invert(lexicon, docs, options, parts)
    }

    /// Finalizes the index over `docs` instead of documents added one
    /// by one, without copying them. Every call of `docs` must yield
    /// the same documents in id order, each as `(t, f_{d,t})` pairs of
    /// interned terms: the build makes any number of passes over them,
    /// from several threads at once (hence `Sync`).
    ///
    /// # Errors
    /// [`IrError::InvalidConfig`] if documents were also added one by
    /// one, `docs` yields none, a frequency is zero or the collection
    /// holds more than `u32::MAX` postings; [`IrError::UnknownTerm`]
    /// for an uninterned term.
    pub fn build_from<D, I, J>(self, docs: D, options: BuildOptions) -> IrResult<InvertedIndex>
    where
        D: Fn() -> I + Sync,
        I: Iterator<Item = J>,
        J: IntoIterator<Item = (TermId, u32)>,
    {
        if !self.doc_ends.is_empty() {
            return Err(IrError::InvalidConfig(
                "build_from cannot also build over added documents".into(),
            ));
        }
        invert(self.lexicon, docs, options, ir_types::parts::available())
    }
}

/// The per-posting checks: the term is interned and the frequency at
/// least 1.
fn check_pair(lexicon: &Lexicon, doc: u32, t: TermId, f: u32) -> IrResult<()> {
    if t.index() >= lexicon.len() {
        return Err(IrError::UnknownTerm(t));
    }
    if f == 0 {
        return Err(IrError::InvalidConfig(format!(
            "zero frequency for term {t} in document {doc}"
        )));
    }
    Ok(())
}

/// The build (see the module docs): inverts `docs` by counting into one
/// slab over `parts` contiguous parts, then seals each list in term-id
/// order.
fn invert<D, I, J>(
    mut lexicon: Lexicon,
    docs: D,
    options: BuildOptions,
    parts: usize,
) -> IrResult<InvertedIndex>
where
    D: Fn() -> I + Sync,
    I: Iterator<Item = J>,
    J: IntoIterator<Item = (TermId, u32)>,
{
    let n_terms = lexicon.len();
    let page_size = options.params.page_size;
    let ordering = options.params.ordering;
    // Slab offsets are `u32`s, so the collection's postings (and with
    // them each `f_t`) must fit one.
    let too_many = |what: &str| IrError::InvalidConfig(format!("more than {} {what}", u32::MAX));
    let n_docs = u32::try_from(docs().count()).map_err(|_| too_many("documents"))?;
    if n_docs == 0 {
        return Err(IrError::InvalidConfig(
            "cannot build an index over zero documents".into(),
        ));
    }

    // Pass 1, over document ranges: f_t and f_max per term, each part
    // into tallies of its own, merged in part order.
    let mut tallies: Vec<(Vec<u32>, Vec<u32>)> = (0..parts)
        .map(|_| (vec![0; n_terms], vec![0; n_terms]))
        .collect();
    let first_doc = |k| k * n_docs as usize / parts;
    let work = tallies
        .iter_mut()
        .enumerate()
        .map(|(k, tally)| (first_doc(k)..first_doc(k + 1), tally));
    let counted = ir_types::parts::run(work.collect(), |(range, (doc_freq, f_max))| {
        let mut n_postings = 0u64;
        for (d, doc) in docs().enumerate().skip(range.start).take(range.len()) {
            for (t, f) in doc {
                check_pair(&lexicon, d as u32, t, f)?;
                n_postings += 1;
                doc_freq[t.index()] += 1;
                f_max[t.index()] = f_max[t.index()].max(f);
            }
        }
        Ok::<_, IrError>(n_postings)
    });
    let mut n_postings = 0u64;
    for n in counted {
        n_postings += n?;
    }
    if n_postings > u64::from(u32::MAX) {
        return Err(too_many("postings"));
    }
    let mut tallies = tallies.into_iter();
    let (mut doc_freq, mut f_max) = tallies.next().expect("at least one part");
    for (part_freq, part_max) in tallies {
        for t in 0..n_terms {
            doc_freq[t] += part_freq[t];
            f_max[t] = f_max[t].max(part_max[t]);
        }
    }

    // Collection-derived stop words: top-k by document frequency. A
    // stopped term's list is empty from here on, so a posting is kept
    // exactly when its term's `doc_freq` is nonzero.
    if options.derive_stop_words > 0 {
        let mut by_df: Vec<usize> = (0..n_terms).collect();
        by_df.sort_by(|&a, &b| doc_freq[b].cmp(&doc_freq[a]).then(a.cmp(&b)));
        for &t in by_df.iter().take(options.derive_stop_words) {
            lexicon.entry_mut(TermId(t as u32)).stopped = true;
            doc_freq[t] = 0;
            f_max[t] = 0;
        }
    }

    // Each list's place in the slab.
    let mut term_start = Vec::with_capacity(n_terms + 1);
    let mut total = 0u32;
    term_start.push(0);
    for &f_t in &doc_freq {
        total += f_t;
        term_start.push(total);
    }

    // Passes 2 and 3, over term ranges of about equal cost: each
    // part counts and cumulates its terms' conversion-table rows, sets
    // their cursors, and scatters their postings. Under frequency
    // order, frequency `f`'s run in term `t`'s list starts past the
    // postings above `f` — cell `f` of the term's row — and has its own
    // cursor; under document order a term's whole list is one run.
    let per_frequency = ordering == ListOrdering::FrequencySorted;
    let mut conversion = ConversionTable::with_rows(page_size, ordering, &f_max);
    let (row_start, cells) = conversion.cells_mut();
    let row_start = |t: usize| row_start[t] as usize;
    let run_start = |t: usize| if per_frequency { row_start(t) } else { t };
    let mut cursor = vec![0u32; run_start(n_terms)];
    let mut slab: Arc<[Posting]> =
        std::iter::repeat_n(Posting::new(0, 0), total as usize).collect();
    let out = Arc::get_mut(&mut slab).expect("a fresh slab is unshared");
    let bounds = ir_types::parts::split(n_terms, parts, |t| {
        u64::from(term_start[t]) + LIST_COST * t as u64
    });
    let work = bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .zip(ir_types::parts::carve(
            cells,
            bounds.iter().map(|&t| row_start(t)),
        ))
        .zip(ir_types::parts::carve(
            &mut cursor,
            bounds.iter().map(|&t| run_start(t)),
        ))
        .zip(ir_types::parts::carve(
            out,
            bounds.iter().map(|&t| term_start[t] as usize),
        ));
    ir_types::parts::run(work.collect(), |(((terms, rows), cursor), out)| {
        let mine = |t: usize| terms.contains(&t) && doc_freq[t] != 0;
        let row_base = row_start(terms.start);
        let slab_base = term_start[terms.start];
        for doc in docs() {
            for (t, f) in doc {
                if mine(t.index()) {
                    rows[row_start(t.index()) - row_base + f as usize - 1] += 1;
                }
            }
        }
        let cursor_base = run_start(terms.start);
        for t in terms.clone() {
            let start = term_start[t] - slab_base;
            let row = &mut rows[row_start(t) - row_base..row_start(t + 1) - row_base];
            conversion::cumulate(row);
            if per_frequency {
                let runs = &mut cursor[row_start(t) - cursor_base..row_start(t + 1) - cursor_base];
                for (at, &above) in runs.iter_mut().zip(row.iter()) {
                    *at = start + above;
                }
            } else {
                cursor[t - cursor_base] = start;
            }
        }
        for (d, doc) in docs().enumerate() {
            for (t, f) in doc {
                if mine(t.index()) {
                    let run = if per_frequency {
                        row_start(t.index()) + f as usize
                    } else {
                        t.index()
                    };
                    let at = &mut cursor[run - cursor_base];
                    out[*at as usize] = Posting::new(d as u32, f);
                    *at += 1;
                }
            }
        }
    });
    drop(cursor);
    let kept = |&(t, _): &(TermId, u32)| doc_freq[t.index()] != 0;

    // Optional forward index, read from the same documents, without
    // the stopped terms.
    let forward = options.keep_forward.then(|| {
        ForwardIndex::new(
            docs()
                .map(|doc| {
                    let mut terms: Vec<(TermId, u32)> = doc.into_iter().filter(kept).collect();
                    terms.sort_by_key(|&(t, _)| t);
                    terms
                })
                .collect(),
        )
    });

    // Per term, in term-id order (see the module docs): idf and the
    // lexicon entry, then W_d; the store then cuts the pages.
    let list_of = |t: usize| &slab[term_start[t] as usize..term_start[t + 1] as usize];
    let mut compression = CompressionStats::default();
    for t in 0..n_terms {
        let list = list_of(t);
        if list.is_empty() {
            continue;
        }
        let idf = ir_types::weights::idf(n_docs, doc_freq[t]);
        if options.measure_compression {
            match ordering {
                ListOrdering::FrequencySorted => compression.add(codec::measure(list)),
                ListOrdering::DocIdSorted => {
                    // The encoder requires frequency order; measure
                    // on a sorted copy (sizes are what matter).
                    let mut copy = list.to_vec();
                    copy.sort_unstable_by(frequency_order);
                    compression.add(codec::measure(&copy));
                }
            }
        }
        let e = lexicon.entry_mut(TermId(t as u32));
        e.doc_freq = doc_freq[t];
        e.idf = idf;
        e.f_max = f_max[t];
        e.n_pages = list.len().div_ceil(page_size) as u32;
    }
    let doc_stats = DocStats::from_lists(
        n_docs,
        lexicon.iter().map(|(t, e)| (e.idf, list_of(t.index()))),
    );
    let disk = DiskSim::from_slab(
        slab,
        &term_start,
        |t| lexicon.entry(t).map_or(0.0, |e| e.idf),
        page_size,
    );

    Ok(InvertedIndex::from_parts(
        lexicon,
        doc_stats,
        conversion,
        options.params,
        Arc::new(disk),
        options.measure_compression.then_some(compression),
        forward,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_storage::Page;
    use ir_types::PageId;

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

    /// The inversion as it was specified before the counting build:
    /// each term's list collected in document order, stable-sorted on
    /// descending frequency under frequency order, after the top-`f_t`
    /// stop words are cleared.
    struct Reference {
        lists: Vec<Vec<Posting>>,
        stopped: Vec<bool>,
    }

    impl Reference {
        fn new(
            docs: &[Vec<(TermId, u32)>],
            n_terms: usize,
            stop: usize,
            ordering: ListOrdering,
        ) -> Self {
            let mut lists = vec![Vec::new(); n_terms];
            for (d, doc) in docs.iter().enumerate() {
                for &(t, f) in doc {
                    lists[t.index()].push(Posting::new(d as u32, f));
                }
            }
            let mut by_df: Vec<usize> = (0..n_terms).collect();
            by_df.sort_by(|&a, &b| lists[b].len().cmp(&lists[a].len()).then(a.cmp(&b)));
            let mut stopped = vec![false; n_terms];
            for &t in by_df.iter().take(stop) {
                stopped[t] = true;
                lists[t].clear();
            }
            if ordering == ListOrdering::FrequencySorted {
                for list in &mut lists {
                    list.sort_by_key(|p| std::cmp::Reverse(p.freq));
                }
            }
            Reference { lists, stopped }
        }
    }

    /// Checks `index` against the reference, page by page and bit by bit.
    fn assert_matches(index: &InvertedIndex, reference: &Reference, docs: &[Vec<(TermId, u32)>]) {
        use ir_storage::PageStore;
        let n_docs = docs.len() as u32;
        let page_size = index.params().page_size;
        for (t, list) in reference.lists.iter().enumerate() {
            let term = TermId(t as u32);
            let e = index.lexicon().entry(term).unwrap();
            assert_eq!(e.stopped, reference.stopped[t], "term {t}");
            assert_eq!(e.n_postings() as usize, list.len(), "term {t}");
            let f_max = list.iter().map(|p| p.freq).max().unwrap_or(0);
            assert_eq!(e.f_max, f_max, "term {t}");
            for f in 0..=f_max + 1 {
                let above = list.iter().filter(|p| p.freq > f).count() as u64;
                let got = index.conversion().postings_above(term, f64::from(f));
                assert_eq!(got.unwrap(), above, "term {t}, f {f}");
            }
            let idf = if list.is_empty() {
                0.0
            } else {
                ir_types::weights::idf(n_docs, list.len() as u32)
            };
            assert_eq!(e.idf.to_bits(), idf.to_bits(), "term {t}");
            assert_eq!(e.n_pages as usize, list.chunks(page_size).len(), "term {t}");
            for (i, chunk) in list.chunks(page_size).enumerate() {
                let id = PageId::new(term, i as u32);
                let want = Page::new(id, chunk.into(), idf);
                let got = index.disk().read_page(id).unwrap();
                assert_eq!(got.id(), id);
                assert_eq!(got.postings(), want.postings(), "{id:?}");
                assert_eq!(got.max_freq(), want.max_freq(), "{id:?}");
                assert_eq!(
                    got.max_weight().to_bits(),
                    want.max_weight().to_bits(),
                    "{id:?}"
                );
                assert_eq!(got.checksum(), want.checksum(), "{id:?}");
            }
        }
        for (d, doc) in docs.iter().enumerate() {
            let mut terms: Vec<(TermId, u32)> = doc
                .iter()
                .copied()
                .filter(|&(t, _)| !reference.stopped[t.index()])
                .collect();
            terms.sort_by_key(|&(t, _)| t);
            let mut sum = 0.0f64;
            for &(t, f) in &terms {
                let w = ir_types::weights::term_weight(f, index.idf(t).unwrap());
                sum += w * w;
            }
            let got = index.doc_stats().vector_length(DocId(d as u32)).unwrap();
            assert_eq!(got.to_bits(), sum.sqrt().to_bits(), "doc {d}");
            let forward = index.forward().expect("kept");
            assert_eq!(forward.terms(DocId(d as u32)).unwrap(), terms.as_slice());
        }
    }

    #[test]
    fn inversion_matches_the_per_term_reference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(37);
        for case in 0..=60 {
            let (n_terms, docs) = if case == 0 {
                // Term 0's frequency-2 run spans all four documents, so
                // two parts' document ranges cut it in the middle.
                (2, vec![vec![(TermId(0), 2), (TermId(1), 1)]; 4])
            } else {
                let n_terms = rng.gen_range(1..40usize);
                let docs: Vec<Vec<(TermId, u32)>> = (0..rng.gen_range(1..60))
                    .map(|_| {
                        let mut doc: Vec<(TermId, u32)> = Vec::new();
                        for _ in 0..rng.gen_range(0..12) {
                            let t = TermId(rng.gen_range(0..n_terms as u32));
                            if doc.iter().all(|&(u, _)| u != t) {
                                let f = if rng.gen_range(0..10) == 0 {
                                    rng.gen_range(1..40)
                                } else {
                                    rng.gen_range(1..4)
                                };
                                doc.push((t, f));
                            }
                        }
                        doc
                    })
                    .collect();
                (n_terms, docs)
            };
            let ordering = [ListOrdering::FrequencySorted, ListOrdering::DocIdSorted][case % 2];
            let options = BuildOptions {
                params: IndexParams::with_page_size(rng.gen_range(1..6)).with_ordering(ordering),
                derive_stop_words: if case == 0 { 0 } else { rng.gen_range(0..3) },
                measure_compression: case % 3 == 0,
                keep_forward: true,
            };
            let reference = Reference::new(&docs, n_terms, options.derive_stop_words, ordering);
            let names: Vec<String> = (0..n_terms).map(|t| format!("t{t}")).collect();
            let interned = || {
                let mut b = IndexBuilder::new();
                for name in &names {
                    b.intern(name);
                }
                b
            };
            // One part, a few, and more parts than documents or terms.
            for parts in [1, 2, 3, n_terms + docs.len() + 1] {
                // The token path, the counts path and the borrowed path.
                let mut by_tokens = interned();
                let mut by_counts = interned();
                for doc in &docs {
                    by_tokens.add_document(doc.iter().flat_map(|&(t, f)| {
                        std::iter::repeat_n(names[t.index()].as_str(), f as usize)
                    }));
                    by_counts.add_document_counts(doc.iter().copied()).unwrap();
                }
                let borrowed = invert(
                    interned().lexicon,
                    || docs.iter().map(|doc| doc.iter().copied()),
                    options,
                    parts,
                )
                .unwrap();
                for index in [
                    by_tokens.build_in(options, parts).unwrap(),
                    by_counts.build_in(options, parts).unwrap(),
                    borrowed,
                ] {
                    assert_matches(&index, &reference, &docs);
                }
            }
        }
    }

    #[test]
    fn every_page_is_a_window_on_one_slab() {
        use ir_storage::PageStore;
        let idx = small_index(BuildOptions {
            params: IndexParams::with_page_size(1),
            ..BuildOptions::default()
        });
        let mut pages = Vec::new();
        for (term, e) in idx.lexicon().iter() {
            for p in 0..e.n_pages {
                pages.push(idx.disk().read_page(PageId::new(term, p)).unwrap());
            }
        }
        assert_eq!(pages.len(), 5);
        // In term-id order, each page starts where the one before ends:
        // the postings are one allocation.
        for w in pages.windows(2) {
            assert_eq!(w[0].postings().as_ptr_range().end, w[1].postings().as_ptr());
        }
    }

    #[test]
    fn build_from_checks_its_input() {
        let mut b = IndexBuilder::new();
        let a = b.intern("a");
        b.add_document_counts([(a, 1)]).unwrap();
        let docs = || std::iter::once([(a, 1)]);
        assert!(matches!(
            b.build_from(docs, BuildOptions::default()),
            Err(IrError::InvalidConfig(_))
        ));
        let b = IndexBuilder::new();
        assert!(matches!(
            b.build_from(docs, BuildOptions::default()),
            Err(IrError::UnknownTerm(_))
        ));
        let mut b = IndexBuilder::new();
        let a = b.intern("a");
        assert!(matches!(
            b.build_from(|| std::iter::once([(a, 0)]), BuildOptions::default()),
            Err(IrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn vector_lengths_are_term_order_sums_bit_for_bit() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        // Each document's distinct terms with summed frequencies.
        let docs: Vec<std::collections::BTreeMap<u32, u32>> = (0..200)
            .map(|_| {
                let mut doc = std::collections::BTreeMap::new();
                for _ in 0..rng.gen_range(1..20) {
                    *doc.entry(rng.gen_range(0..50)).or_insert(0) += rng.gen_range(1..6u32);
                }
                doc
            })
            .collect();
        let mut b = IndexBuilder::new();
        let ids: Vec<TermId> = (0..50).map(|t| b.intern(&format!("t{t}"))).collect();
        for doc in &docs {
            b.add_document_counts(doc.iter().map(|(&t, &f)| (ids[t as usize], f)))
                .unwrap();
        }
        let index = b
            .build(BuildOptions {
                measure_compression: true,
                params: IndexParams::with_page_size(3),
                ..BuildOptions::default()
            })
            .unwrap();
        let n_postings: usize = docs.iter().map(|d| d.len()).sum();
        assert_eq!(
            index.compression_stats().unwrap().n_postings,
            n_postings as u64
        );
        // W_d² is accumulated from 0 in term-id order, one addition per
        // term, on every machine: the stored length must equal that sum
        // to the last bit.
        for (d, doc) in docs.iter().enumerate() {
            let mut sum = 0.0f64;
            for (&t, &f) in doc {
                let idf = index.lexicon().entry(ids[t as usize]).unwrap().idf;
                let w = ir_types::weights::term_weight(f, idf);
                sum += w * w;
            }
            let got = index.doc_stats().vector_length(DocId(d as u32)).unwrap();
            assert_eq!(got.to_bits(), sum.sqrt().to_bits(), "doc {d}");
        }
    }
}
