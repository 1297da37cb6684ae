//! # ir-corpus
//!
//! Calibrated synthetic document collections standing in for the
//! paper's TREC WSJ data (§4.2), which is licensed and unavailable
//! offline. The generator is **shape-calibrated**, not text-realistic:
//! what the paper's experiments depend on is the *statistical geometry*
//! of the index and queries, namely
//!
//! 1. a Zipfian document-frequency spectrum — after stop-word removal,
//!    a few hundred terms with multi-page inverted lists and a huge
//!    single-page tail (Table 4: 6,060 of 167,017 terms multi-page);
//! 2. within-document term frequencies skewed hard toward 1, with
//!    occasional topical bursts (what makes `f_add` cut-offs effective);
//! 3. TREC-like *topics*: queries of 30–100 terms of widely varying
//!    `idf_t` and contribution, with a known set of relevant documents
//!    (what makes contribution-ranked refinement sequences and average
//!    precision measurable).
//!
//! A document mixes a background Zipf token stream with a topical
//! stream drawn from its topics' salient terms; queries are the salient
//! terms of a topic; the relevance judgments are the documents that
//! were *actually generated* from that topic. DESIGN.md records the
//! substitution rationale in full.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod generator;
pub mod query;
pub mod words;
pub mod zipf;

pub use config::CorpusConfig;
pub use generator::{Bag, Corpus, Topic};
pub use query::TopicQuery;
pub use words::{term_name, term_rank};
pub use zipf::Zipf;
