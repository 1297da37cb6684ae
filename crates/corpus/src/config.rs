//! Corpus generation parameters and the paper-calibrated presets.
//!
//! # Calibration to the paper's WSJ statistics (§4.2, Table 4)
//!
//! The WSJ index has N = 173,252 documents, 167,017 terms after
//! stop-word removal and stemming, ≈31.5 M postings (≈182 distinct
//! terms per document), `PageSize = 404` entries, and only 6,060 terms
//! with more than one page. A background token stream that is
//! Zipf(s = 1) over the vocabulary, with the top 100 ranks removed as
//! stop words, reproduces this geometry almost exactly:
//!
//! * `f_t(r) ≈ T / (H_V · r)` for rank `r` (T = total tokens), so with
//!   T ≈ 38 M the first kept rank has `f_t ≈ 30–40 k` docs — inverted
//!   lists of ~75–115 pages, the paper's "Low-idf" band;
//! * terms with `f_t > 404` (multi-page) are those with
//!   `r ≲ T/(H_V·404) ≈ 6×10³` — the paper counts 6,060;
//! * the tail is tens of thousands of 1-page terms, idf up to
//!   `log₂ N ≈ 17.4`.
//!
//! # Proportional down-scaling
//!
//! The paper itself scales WSJ ×10 by shrinking the page capacity
//! (§4.2). [`CorpusConfig::paper_scaled`] applies the same trick in
//! reverse: documents *and* `page_size` shrink by the same factor σ, so
//! pages-per-term, idf spectra, `f_{d,t}` distributions and therefore
//! threshold dynamics are preserved, while generation and sweep time
//! drop by σ. Experiments default to σ = 1/4.

use serde::{Deserialize, Serialize};

/// All generator knobs. Construct via a preset and adjust.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Collection size N.
    pub n_docs: u32,
    /// Vocabulary size (term ranks `0..vocab_size`).
    pub vocab_size: u32,
    /// Top ranks excluded from generation — the collection-derived stop
    /// words of §4.2, removed before indexing.
    pub skip_top_ranks: u32,
    /// Zipf exponent of the background token stream.
    pub zipf_exponent: f64,
    /// Mean tokens per document (after stop-word removal).
    pub mean_doc_tokens: u32,
    /// Log-normal shape parameter for document length.
    pub doc_length_sigma: f64,
    /// Number of TREC-like topics.
    pub n_topics: u32,
    /// Salient terms per topic: sampled uniformly from this inclusive
    /// range (the paper's queries run 35–100 terms).
    pub salient_range: (u32, u32),
    /// Zipf exponent over a topic's salient list (burstiness of the
    /// topical stream).
    pub salient_exponent: f64,
    /// Per-topic fraction of a relevant document's tokens drawn from
    /// the topic: sampled uniformly from this range. Low concentration
    /// topics yield flat `S_max` curves (paper's QUERY3 archetype),
    /// high ones steep curves (QUERY1).
    pub concentration_range: (f64, f64),
    /// Probability a document is about at least one topic.
    pub topic_assign_prob: f64,
    /// Probability a topical document has a second topic.
    pub second_topic_prob: f64,
    /// Page capacity the collection is meant to be indexed with
    /// (scaled together with `n_docs`; see module docs).
    pub page_size: usize,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

/// Full-scale WSJ document count.
pub const WSJ_DOCS: u32 = 173_252;
/// Full-scale WSJ vocabulary (terms after stemming, incl. stop words).
pub const WSJ_VOCAB: u32 = 167_117;
/// Full-scale page capacity (§4.2).
pub const WSJ_PAGE_SIZE: usize = 404;
/// The largest vocabulary: a packed bag cell holds a rank in 24 bits
/// ([`Corpus`](crate::Corpus)).
pub const MAX_VOCAB: u32 = 1 << 24;

impl CorpusConfig {
    /// The paper's geometry at scale σ ∈ (0, 1]: documents and page
    /// size shrink together, preserving pages-per-term and idf spectra.
    ///
    /// # Panics
    /// Panics unless `0 < sigma <= 1` and the scaled page size is ≥ 1.
    pub fn paper_scaled(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma <= 1.0, "scale must be in (0, 1]");
        let page_size = ((WSJ_PAGE_SIZE as f64 * sigma).round() as usize).max(1);
        CorpusConfig {
            n_docs: ((WSJ_DOCS as f64 * sigma).round() as u32).max(1),
            vocab_size: WSJ_VOCAB,
            skip_top_ranks: 100,
            zipf_exponent: 1.05,
            mean_doc_tokens: 220,
            doc_length_sigma: 0.4,
            n_topics: 100,
            salient_range: (30, 100),
            salient_exponent: 0.9,
            concentration_range: (0.03, 0.30),
            topic_assign_prob: 0.5,
            second_topic_prob: 0.2,
            page_size,
            seed: 0x5161_9d98, // SIGMOD '98
        }
    }

    /// Full-scale WSJ geometry (σ = 1). Generation takes a few minutes
    /// and ~1 GB; experiments default to [`CorpusConfig::medium`].
    pub fn wsj() -> Self {
        CorpusConfig::paper_scaled(1.0)
    }

    /// σ = 1/4 (default experiment scale): ~43 k documents,
    /// `page_size = 101`.
    pub fn medium() -> Self {
        CorpusConfig::paper_scaled(0.25)
    }

    /// σ = 1/16: ~11 k documents, `page_size = 25`. For quick runs and
    /// integration tests.
    pub fn small() -> Self {
        CorpusConfig::paper_scaled(1.0 / 16.0)
    }

    /// A deliberately tiny, fast configuration for unit tests. Not
    /// proportional to the paper's geometry.
    pub fn tiny() -> Self {
        CorpusConfig {
            n_docs: 400,
            vocab_size: 3_000,
            skip_top_ranks: 20,
            zipf_exponent: 1.0,
            mean_doc_tokens: 60,
            doc_length_sigma: 0.4,
            n_topics: 8,
            salient_range: (10, 20),
            salient_exponent: 0.9,
            concentration_range: (0.05, 0.3),
            topic_assign_prob: 0.6,
            second_topic_prob: 0.2,
            page_size: 8,
            seed: 42,
        }
    }

    /// Derived: first generated (non-stop) rank.
    pub fn first_rank(&self) -> u32 {
        self.skip_top_ranks
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_docs == 0 {
            return Err("n_docs must be positive".into());
        }
        if self.vocab_size <= self.skip_top_ranks {
            return Err("vocabulary must extend past the stop ranks".into());
        }
        if self.vocab_size > MAX_VOCAB {
            return Err(format!(
                "vocab_size {} exceeds 2^24, the ranks a packed bag cell holds",
                self.vocab_size
            ));
        }
        if self.mean_doc_tokens == 0 {
            return Err("documents must have tokens".into());
        }
        if self.salient_range.0 == 0 || self.salient_range.0 > self.salient_range.1 {
            return Err("salient_range must be a nonempty 1-based range".into());
        }
        if self.salient_range.1 > self.vocab_size - self.skip_top_ranks {
            return Err("salient terms cannot exceed the usable vocabulary".into());
        }
        let (lo, hi) = self.concentration_range;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return Err("concentration_range must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.topic_assign_prob)
            || !(0.0..=1.0).contains(&self.second_topic_prob)
        {
            return Err("probabilities must be within [0, 1]".into());
        }
        if self.page_size == 0 {
            return Err("page_size must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            CorpusConfig::tiny(),
            CorpusConfig::small(),
            CorpusConfig::medium(),
            CorpusConfig::wsj(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn scaling_preserves_geometry_ratio() {
        let full = CorpusConfig::wsj();
        let quarter = CorpusConfig::medium();
        let ratio_docs = full.n_docs as f64 / quarter.n_docs as f64;
        let ratio_page = full.page_size as f64 / quarter.page_size as f64;
        assert!((ratio_docs - 4.0).abs() < 0.01);
        assert!((ratio_page - 4.0).abs() < 0.01);
        // Vocabulary and per-document statistics are scale-invariant.
        assert_eq!(full.vocab_size, quarter.vocab_size);
        assert_eq!(full.mean_doc_tokens, quarter.mean_doc_tokens);
    }

    #[test]
    fn wsj_matches_paper_constants() {
        let cfg = CorpusConfig::wsj();
        assert_eq!(cfg.n_docs, 173_252);
        assert_eq!(cfg.page_size, 404);
        assert_eq!(cfg.skip_top_ranks, 100);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        let _ = CorpusConfig::paper_scaled(0.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = CorpusConfig::tiny();
        cfg.vocab_size = cfg.skip_top_ranks;
        assert!(cfg.validate().is_err());

        let mut cfg = CorpusConfig::tiny();
        cfg.salient_range = (0, 5);
        assert!(cfg.validate().is_err());

        let mut cfg = CorpusConfig::tiny();
        cfg.concentration_range = (0.5, 0.2);
        assert!(cfg.validate().is_err());

        let mut cfg = CorpusConfig::tiny();
        cfg.page_size = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn a_vocabulary_past_the_packed_ranks_is_refused() {
        let mut cfg = CorpusConfig::tiny();
        cfg.vocab_size = MAX_VOCAB;
        cfg.validate().unwrap();
        cfg.vocab_size = MAX_VOCAB + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("2^24"), "{err}");
    }
}
