//! # ir-storage
//!
//! The storage substrate of the paper's experimental system (§4.1):
//! a simulated paged disk holding one file per inverted list, and a
//! buffer manager with pluggable replacement policies.
//!
//! The paper's performance metric is **disk page reads**; the simulator
//! runs in memory and counts page fetches ([`DiskSim`]). The buffer
//! manager ([`BufferManager`]) implements the three policies the paper
//! evaluates — LRU, MRU, and the proposed **Ranking-Aware Policy (RAP)**
//! — plus LRU-2, 2Q, FIFO and Clock so that the paper's §6 claim
//! ("the newer LRU/k and 2Q policies will fare no better than LRU in
//! this case") can be tested rather than taken on faith.
//!
//! Two paper-specific capabilities distinguish this buffer manager from
//! a generic one:
//!
//! * **`b_t` queries** ([`BufferManager::resident_pages`]): the BAF
//!   algorithm asks, per candidate term per selection round, how many
//!   pages of that term's inverted list are resident. Maintained as O(1)
//!   per-term counters updated on load/evict, as §3.2.2 prescribes.
//! * **Query-context values** ([`BufferManager::begin_query`]): RAP's
//!   replacement value `w*_{d,t} · w_{q,t}` depends on the query being
//!   processed; the evaluator announces its term weights at query start
//!   and the policy re-values the pages of terms whose weight changed.
//!   Sessions sharing a [`ShardedBufferPool`] each announce through a
//!   handle of their own, and a term is worth the highest weight any of
//!   their current queries gives it.
//!
//! The crate also owns the one posting-list encoding ([`codec`]: runs of
//! equal frequency, v-byte gaps) and the persistent tier that carries it
//! ([`backend`]: the `BFPG` page file and the I/O scheduler).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod fault;
pub mod observe;
pub mod page;
pub mod policy;
pub mod query_buffer;
pub mod sharded;
pub mod stats;

pub use backend::{
    write_page_file, FileMode, FilePageStore, IoConfig, IoMetrics, IoScheduler, LatencyModel,
    PageFileError, TermPages,
};
pub use buffer::{BufferManager, FetchOutcome, FetchPolicy};
pub use codec::CompressionStats;
pub use disk::{DiskSim, DiskStats, PageStore};
pub use fault::{FaultConfig, FaultStats, FaultStore};
pub use observe::{BufferEvent, BufferObserver, EventCounts, EventLog};
pub use page::Page;
pub use policy::{PolicyKind, ReplacementPolicy};
pub use query_buffer::{QueryBuffer, QueryBufferExt};
pub use sharded::{ShardMetrics, ShardedBufferPool, LOCK_WAIT_NS_BOUNDS};
pub use stats::{BufferMetrics, BufferStats, BATCH_PAGES_BOUNDS};
