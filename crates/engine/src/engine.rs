//! The `SearchEngine` facade.

use crate::ledger::{query_cost, CostLedger};
use ir_core::eval::{evaluate_on, Clock, EvalOptions, RealClock};
use ir_core::{Algorithm, Query, QueryResult};
use ir_index::{BuildOptions, IndexBuilder, InvertedIndex};
use ir_storage::{BufferManager, BufferStats, DiskSim, PolicyKind};
use ir_text::Analyzer;
use ir_types::{FilterParams, IrResult, DEFAULT_TOP_N};
use std::collections::HashMap;
use std::sync::Arc;

/// Runtime configuration: algorithm × policy × buffer size, plus the
/// filtering constants.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Evaluation algorithm.
    pub algorithm: Algorithm,
    /// Buffer replacement policy.
    pub policy: PolicyKind,
    /// Buffer pool size in pages.
    pub buffer_pages: usize,
    /// Filtering constants.
    pub params: FilterParams,
    /// Answer-set size `n`.
    pub top_n: usize,
}

impl Default for EngineConfig {
    /// The paper's proposed configuration: BAF over RAP, Persin
    /// constants, 128 buffer pages, top-20 answers.
    fn default() -> Self {
        EngineConfig {
            algorithm: Algorithm::Baf,
            policy: PolicyKind::Rap,
            buffer_pages: 128,
            params: FilterParams::PERSIN,
            top_n: DEFAULT_TOP_N,
        }
    }
}

impl EngineConfig {
    /// The configuration the paper identifies as the pre-existing state
    /// of practice: DF over the file system's LRU.
    pub fn paper_baseline() -> Self {
        EngineConfig {
            algorithm: Algorithm::Df,
            policy: PolicyKind::Lru,
            ..EngineConfig::default()
        }
    }
}

/// A ready-to-query retrieval engine: an inverted index, a buffer pool,
/// and an analysis pipeline for free-text queries.
///
/// Successive [`search_text`](SearchEngine::search_text) /
/// [`search_terms`](SearchEngine::search_terms) calls share the buffer
/// pool — exactly the query-refinement situation the paper studies.
/// Call [`flush_buffers`](SearchEngine::flush_buffers) to start a cold
/// session.
///
/// Every search is timed on the clock `C` — the real one, unless
/// [`with_clock`](SearchEngine::with_clock) swaps in another — and
/// recorded in the engine's [cost ledger](SearchEngine::ledger) by
/// layer.
#[derive(Debug)]
pub struct SearchEngine<C = RealClock> {
    index: Arc<InvertedIndex>,
    analyzer: Analyzer,
    buffer: BufferManager<Arc<DiskSim>>,
    config: EngineConfig,
    ledger: CostLedger,
    clock: C,
}

impl SearchEngine {
    /// Builds an engine over an existing index.
    pub fn new(index: InvertedIndex, config: EngineConfig) -> IrResult<Self> {
        let index = Arc::new(index);
        let buffer = index.make_buffer(config.buffer_pages, config.policy)?;
        Ok(SearchEngine {
            index,
            analyzer: Analyzer::english(),
            buffer,
            config,
            ledger: CostLedger::new(),
            clock: RealClock::new(),
        })
    }

    /// Opens an engine over an index previously saved with
    /// [`save_index`](ir_index::save_index) / [`SearchEngine::save`].
    pub fn open(
        path: &std::path::Path,
        config: EngineConfig,
    ) -> Result<Self, ir_index::PersistError> {
        let index = ir_index::load_index(path)?;
        SearchEngine::new(index, config).map_err(ir_index::PersistError::from)
    }

    /// Indexes a set of raw text documents with the paper's pipeline
    /// (stop-word removal + Porter stemming) and builds an engine.
    pub fn from_texts<I>(docs: I, config: EngineConfig) -> IrResult<Self>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let analyzer = Analyzer::english();
        let mut builder = IndexBuilder::new();
        for doc in docs {
            builder.add_document(analyzer.analyze(doc.as_ref()));
        }
        let index = builder.build(BuildOptions::default())?;
        let mut engine = SearchEngine::new(index, config)?;
        engine.analyzer = analyzer;
        Ok(engine)
    }
}

impl<C: Clock> SearchEngine<C> {
    /// The same engine, timing its searches on `clock` from now on.
    pub fn with_clock<D: Clock>(self, clock: D) -> SearchEngine<D> {
        SearchEngine {
            index: self.index,
            analyzer: self.analyzer,
            buffer: self.buffer,
            config: self.config,
            ledger: self.ledger,
            clock,
        }
    }

    /// Persists the underlying index to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), ir_index::PersistError> {
        ir_index::save_index(&self.index, path)
    }

    /// Runs a free-text query through the analysis pipeline and
    /// evaluates it.
    pub fn search_text(&mut self, text: &str) -> IrResult<QueryResult> {
        let mut counts: HashMap<String, u32> = HashMap::new();
        for token in self.analyzer.analyze(text) {
            *counts.entry(token).or_insert(0) += 1;
        }
        let terms: Vec<(String, u32)> = counts.into_iter().collect();
        self.search_terms(&terms)
    }

    /// Evaluates a pre-analyzed `(term, f_{q,t})` query and appends one
    /// row to the engine's [cost ledger](SearchEngine::ledger).
    pub fn search_terms(&mut self, terms: &[(String, u32)]) -> IrResult<QueryResult> {
        let started = self.clock.now_ns();
        let query = Query::from_named(&self.index, terms);
        let result = evaluate_on(
            self.config.algorithm,
            &self.index,
            &mut self.buffer,
            &query,
            EvalOptions {
                params: self.config.params,
                top_n: self.config.top_n,
                baf_force_first_page: false,
            },
            &self.clock,
        )?;
        let eval_ns = self.clock.now_ns() - started;
        let step = self.ledger.len() as u32;
        self.ledger.record(query_cost(
            0,
            step,
            &result.stats,
            &result.layers,
            eval_ns,
            0,
        ));
        Ok(result)
    }

    /// Empties the buffer pool (start of a cold refinement sequence).
    pub fn flush_buffers(&mut self) {
        self.buffer.flush();
    }

    /// Switches algorithm/policy/buffer size. The pool is rebuilt
    /// (cold) if the policy or capacity changed.
    pub fn reconfigure(&mut self, config: EngineConfig) -> IrResult<()> {
        let rebuild =
            config.policy != self.config.policy || config.buffer_pages != self.config.buffer_pages;
        if rebuild {
            self.buffer = self.index.make_buffer(config.buffer_pages, config.policy)?;
        }
        self.config = config;
        Ok(())
    }

    /// The current configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Buffer-pool statistics since construction / last reset.
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffer.stats()
    }

    /// The per-query cost ledger accumulated over this engine's
    /// searches (one row per query, in submission order).
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Drains and returns the cost ledger (e.g. between benchmark
    /// phases).
    pub fn take_ledger(&mut self) -> CostLedger {
        std::mem::take(&mut self.ledger)
    }

    /// Zeroes buffer and disk statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.buffer.reset_stats();
        self.index.disk().reset_stats();
    }

    /// The underlying index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The analysis pipeline used for text queries.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::DocId;

    fn docs() -> Vec<&'static str> {
        vec![
            "drastic price increases in American stockmarkets today",
            "quiet trading day on the bond market",
            "stockmarket prices rally strongly after the crash",
            "bond yields drift as traders wait",
            "the American economy grows; prices stable",
        ]
    }

    #[test]
    fn text_search_finds_relevant_documents() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        let r = e.search_text("stockmarket price crash").unwrap();
        assert!(!r.hits.is_empty());
        // Document 2 mentions all three concepts (after stemming).
        assert_eq!(r.hits[0].doc, DocId(2));
    }

    #[test]
    fn refinement_reuses_buffers() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        e.search_text("stockmarket price").unwrap();
        let before = e.buffer_stats();
        // Refined query: retained terms should hit in buffers.
        e.search_text("stockmarket price crash").unwrap();
        let delta = e.buffer_stats().since(&before);
        assert!(delta.hits > 0, "refinement must reuse resident pages");
    }

    #[test]
    fn flush_makes_session_cold() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        e.search_text("bond market").unwrap();
        let warm = e.buffer_stats();
        e.flush_buffers();
        e.search_text("bond market").unwrap();
        let delta = e.buffer_stats().since(&warm);
        assert!(delta.misses > 0, "flushed pool must re-read from disk");
    }

    #[test]
    fn reconfigure_switches_policy() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        assert_eq!(e.config().policy, PolicyKind::Rap);
        e.reconfigure(EngineConfig::paper_baseline()).unwrap();
        assert_eq!(e.config().policy, PolicyKind::Lru);
        assert_eq!(e.config().algorithm, Algorithm::Df);
        let r = e.search_text("price").unwrap();
        assert!(!r.hits.is_empty());
    }

    #[test]
    fn unknown_terms_yield_empty_result() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        let r = e.search_text("zyzzogeton quux").unwrap();
        assert!(r.hits.is_empty());
        assert_eq!(r.stats.disk_reads, 0);
    }

    #[test]
    fn save_and_open_round_trip() {
        let dir = std::env::temp_dir().join("buffir-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.bfpg");
        let mut original = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        original.save(&path).unwrap();
        let mut reopened = SearchEngine::open(&path, EngineConfig::default()).unwrap();
        let a = original.search_text("stockmarket price crash").unwrap();
        let b = reopened.search_text("stockmarket price crash").unwrap();
        assert_eq!(a.hits.len(), b.hits.len());
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // The load rebuilds W_d and the conversion table: the builder's
        // to the bit, row for row.
        let (built, loaded) = (original.index(), reopened.index());
        let bits = |s: &[f64]| s.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(built.doc_stats().as_slice()),
            bits(loaded.doc_stats().as_slice())
        );
        for (term, e) in built.lexicon().iter() {
            for f in 0..=e.f_max + 1 {
                let row = |i: &ir_index::InvertedIndex| {
                    i.conversion().postings_above(term, f64::from(f)).unwrap()
                };
                assert_eq!(row(built), row(loaded), "{term}, cell {f}");
            }
        }
    }

    #[test]
    fn ledger_records_one_row_per_query_with_matching_reads() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        let a = e.search_text("stockmarket price").unwrap();
        let b = e.search_text("stockmarket price crash").unwrap();
        let ledger = e.ledger();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.entries[0].step, 0);
        assert_eq!(ledger.entries[1].step, 1);
        assert_eq!(ledger.entries[0].disk_reads, a.stats.disk_reads);
        assert_eq!(ledger.entries[1].disk_reads, b.stats.disk_reads);
        assert_eq!(ledger.entries[1].buffer_hits, b.stats.buffer_hits);
        for (row, r) in ledger.entries.iter().zip([&a, &b]) {
            assert_eq!(
                row.disk_reads + row.buffer_hits,
                r.stats.pages_processed,
                "hits + misses must cover every processed page"
            );
        }
        let sessions = ledger.session_costs();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].queries, 2);
        assert_eq!(sessions[0].disk_reads, ledger.total_disk_reads());
        let drained = e.take_ledger();
        assert_eq!(drained.len(), 2);
        assert!(e.ledger().is_empty());
    }

    #[test]
    fn stop_words_do_not_reach_the_evaluator() {
        let mut e = SearchEngine::from_texts(docs(), EngineConfig::default()).unwrap();
        let r = e.search_text("the of and").unwrap();
        assert!(r.hits.is_empty());
        assert!(r.trace.is_empty());
    }
}
