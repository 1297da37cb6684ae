//! # ir-text
//!
//! The document-analysis pipeline of §4.2 of the paper: lexical analysis
//! (tokenization, non-word removal, case folding), stop-word removal
//! \[Fox92\], and Porter stemming \[Fra92\].
//!
//! The index in the paper was built by: removing all non-words
//! (punctuation, numbers), removing stop words (the 100 most frequent
//! terms of the collection), lower-casing, and stemming with a Porter
//! stemmer; queries go through the identical pipeline so that query
//! terms meet the lexicon on equal footing. [`Analyzer`] packages those
//! stages; [`porter::stem`] is a faithful implementation of Porter's
//! 1980 algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod porter;
pub mod stopwords;
pub mod tokenizer;

pub use analyzer::{Analyzer, AnalyzerBuilder};
pub use porter::stem;
pub use stopwords::StopList;
pub use tokenizer::{tokenize, Tokenizer};
