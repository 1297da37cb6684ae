//! # ir-engine
//!
//! The user-facing facade over the buffir stack: build or load a
//! document collection, pick an evaluation algorithm and a buffer
//! configuration, and run queries or whole refinement sessions.
//!
//! ```
//! use ir_engine::{EngineConfig, SearchEngine};
//!
//! let docs = [
//!     "drastic price increases in American stockmarkets",
//!     "quiet trading day on the bond market",
//!     "stockmarket prices rally after the crash",
//! ];
//! let mut engine = SearchEngine::from_texts(docs, EngineConfig::default()).unwrap();
//! let result = engine.search_text("stockmarket price crash").unwrap();
//! assert!(!result.hits.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus_load;
pub mod engine;
pub mod ledger;
pub mod server;

pub use corpus_load::{
    index_corpus, index_corpus_opts, index_corpus_with, topic_query_terms, IndexCorpusOptions,
};
pub use engine::{EngineConfig, SearchEngine};
pub use ledger::{CostLedger, QueryCost, SessionCost};
pub use server::{PoolLayout, Schedule, ServerReport, SessionOutcome, SessionServer, SessionSpec};
