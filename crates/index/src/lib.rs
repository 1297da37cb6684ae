//! # ir-index
//!
//! The frequency-sorted inverted index of §2.3/§4.2: one inverted list
//! per term, `(d, f_{d,t})` entries ordered by `f_{d,t}` descending
//! (document id ascending within ties), packed into fixed-capacity
//! pages, with the memory-resident side structures the paper's
//! algorithms require:
//!
//! * the [`Lexicon`] — term names, `idf_t`, `f_max`, list lengths
//!   ("this step requires that the `idf_t` value of all terms in the
//!   collection be maintained in memory", §3.1; `f_max` "is stored
//!   separately (with the `idf_t` values)", footnote 3);
//! * per-document vector lengths `W_d` ([`DocStats`]);
//! * the BAF [`ConversionTable`] mapping an addition threshold `f_add`
//!   to `p_t`, the number of pages a term's scan would process (§3.2.2);
//! * the ≈1-byte-per-entry posting compression of \[PZSD96\] that
//!   motivates the paper's `PageSize = 404` ([`ir_storage::codec`],
//!   re-exported here as [`encode_postings`] / [`decode_postings`]).
//!
//! [`IndexBuilder`] turns documents into an [`InvertedIndex`], whose
//! pages live in an `ir-storage` [`DiskSim`](ir_storage::DiskSim).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod conversion;
pub mod docstats;
pub mod forward;
pub mod index;
pub mod lexicon;
pub mod persist;
pub mod scan_geometry;

pub use builder::{BuildOptions, IndexBuilder};
pub use conversion::ConversionTable;
pub use docstats::DocStats;
pub use forward::ForwardIndex;
pub use index::InvertedIndex;
pub use ir_storage::codec::{
    decode_postings, decode_postings_into, encode_postings, CompressionStats,
};
pub use lexicon::{Lexicon, TermEntry};
pub use persist::{load_index, save_index, save_page_file, PersistError};
