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
//! There is one pool type. [`BufferManager::new`] builds the paper's
//! pool, one shard of frames; [`BufferManager::sharded`] stripes the
//! same frames over `P` shards, each behind its own lock, so sessions
//! on several cores can share one pool. Two paper-specific capabilities
//! distinguish it from a generic buffer manager:
//!
//! * **`b_t` queries** ([`BufferManager::resident_pages`],
//!   [`QueryBuffer::resident_pages_many`]): the BAF algorithm asks, per
//!   candidate term per selection round, how many pages of that term's
//!   inverted list are resident. Maintained as O(1) per-term counters
//!   updated on load/evict, as §3.2.2 prescribes.
//! * **Query-context values** ([`BufferManager::begin_query`]): RAP's
//!   replacement value `w*_{d,t} · w_{q,t}` depends on the query being
//!   processed; the evaluator announces its term weights at query start
//!   and the policy re-values the pages of terms whose weight changed.
//!   Sessions sharing a pool each announce through a handle of their
//!   own (a clone), and a term is worth the highest weight any of their
//!   current queries gives it.
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
pub mod waits;

pub use backend::{
    FileMode, FilePageStore, IoConfig, IoMetrics, IoScheduler, LatencyModel, PageFileError,
    PageFileWriter,
};
pub use buffer::{FetchOutcome, FetchPolicy};
pub use codec::CompressionStats;
pub use disk::{DiskSim, DiskStats, PageStore};
pub use fault::{FaultConfig, FaultStats, FaultStore};
pub use observe::{BufferEvent, BufferObserver, EventLog};
pub use page::Page;
pub use policy::{PolicyKind, ReplacementPolicy};
pub use query_buffer::QueryBuffer;
pub use sharded::BufferManager;
pub use stats::{BufferMetrics, BufferStats, BATCH_PAGES_BOUNDS, LOCK_WAIT_NS_BOUNDS};
pub use waits::{thread_waits, ThreadWaits};
