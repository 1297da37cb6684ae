//! # ir-types
//!
//! Foundational vocabulary types shared by every crate in the `buffir`
//! workspace: identifier newtypes ([`DocId`], [`TermId`], [`PageId`]) and
//! the hash tables keyed by them ([`IdMap`], [`IdSet`]),
//! the inverted-list [`Posting`] record with the paper's *frequency
//! ordering*, cosine weight arithmetic ([`weights`]), tuning parameters
//! for the filtering algorithms ([`params`]), the common error type
//! ([`IrError`]), and the split of set-up work over the cores
//! ([`parts`]).
//!
//! The types here deliberately carry no behaviour beyond what every layer
//! agrees on; algorithms live in `ir-core`, storage in `ir-storage`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod idmap;
pub mod ids;
pub mod io;
pub mod params;
pub mod parts;
pub mod posting;
pub mod read_plan;
pub mod weights;

pub use error::{IrError, IrResult};
pub use idmap::{IdMap, IdSet};
pub use ids::{DocId, PageId, PageNo, TermId};
pub use io::ClockKind;
pub use params::{FilterParams, IndexParams, ListOrdering, DEFAULT_PAGE_SIZE, DEFAULT_TOP_N};
pub use posting::{doc_order, frequency_order, is_frequency_sorted, Posting};
pub use read_plan::{PlanEntry, ReadPlan};
