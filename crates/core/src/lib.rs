//! # ir-core
//!
//! The paper's query-evaluation layer: ranked retrieval over a
//! frequency-sorted inverted index, under a buffer manager.
//!
//! Three algorithms (all §3):
//!
//! * **Full** — safe evaluation: every posting of every query term is
//!   scored (`c_add = c_ins = 0`). The effectiveness reference and the
//!   basis of contribution-ranked refinement workloads.
//! * **DF** — Persin's Document Filtering (Fig. 1): terms in decreasing
//!   `idf_t` order; per-term insertion/addition thresholds (Eq. 5)
//!   prune accumulators and cut list scans short.
//! * **BAF** — Buffer-Aware Filtering (Fig. 2, the paper's proposal):
//!   identical per-term processing, but each round selects the
//!   unprocessed term with the fewest *estimated disk reads*
//!   `d_t = max(p_t − b_t, 0)`, combining the conversion table (`p_t`)
//!   with live buffer contents (`b_t`).
//!
//! On top of these: top-`n` cosine ranking ([`rank`]), retrieval
//! effectiveness ([`effectiveness`]), the ADD-ONLY / ADD-DROP
//! query-refinement workload constructions of §5.1.2 ([`workload`]),
//! and the refinement-session driver that reproduces the experiment
//! grid ([`session`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod boolean;
pub mod effectiveness;
pub mod eval;
pub mod feedback;
pub mod query;
pub mod rank;
pub mod session;
pub mod stats;
pub mod workload;

pub use accumulator::Accumulators;
pub use boolean::{BooleanQuery, BooleanResult};
pub use eval::{evaluate, Algorithm};
pub use feedback::{expansion_terms, feedback_sequence, FeedbackOptions};
pub use query::{Query, QueryTerm};
pub use rank::Hit;
pub use session::{run_sequence, run_sequence_by, SequenceOutcome, SessionConfig, StepOutcome};
pub use stats::{EvalStats, QueryResult, TermTraceRow};
pub use workload::{contribution_ranking, make_sequence, RefinementKind, RefinementSequence};
