//! The persistent storage tier: a real page file behind the
//! [`PageStore`](crate::PageStore) trait, and an I/O scheduler that
//! prices every read under a seek+bandwidth latency model.
//!
//! The paper's experiments count page reads against an in-memory
//! simulator ([`DiskSim`](crate::DiskSim)); this module is the tier
//! that turns those counted reads into *real* positioned reads against
//! a file, without changing a single observable event:
//!
//! * [`FilePageStore`] ([`mod@file`]) — serves pages from a `BFPG` page
//!   file with `pread`-style positioned reads, keeping
//!   [`DiskStats`](crate::DiskStats) bookkeeping identical to
//!   `DiskSim`'s, and surfacing any short read or checksum mismatch as
//!   [`IrError::TornPage`](ir_types::IrError::TornPage) so the buffer
//!   manager's existing retry machinery applies unchanged.
//! * [`IoScheduler`] ([`sched`]) — wraps any `PageStore` in a
//!   submission/completion queue of configurable depth. A submitted
//!   `ReadPlan` spreads across the queue's channels (a deeper queue
//!   completes it in fewer serial device-times), a
//!   dslab-`SharedDisk`-style seek+transfer model prices each request,
//!   and `submit` lets completions overlap compute. The clock
//!   is pluggable ([`ClockKind`](ir_types::ClockKind)): virtual for
//!   deterministic tests, real for wall-clock benchmarks.
//!
//! **The determinism contract**: with the latency model zeroed and
//! queue depth 1, `FilePageStore` (with or without the scheduler) is
//! event-for-event identical to `DiskSim` over the same request
//! sequence — same pages, same stats, same errors, same buffer events.
//! `ir-engine`'s `storage_backend` suite pins this in CI.

pub mod file;
pub mod sched;

pub use file::{FileMode, FilePageStore, PageFileError, PageFileWriter};
pub use sched::{IoConfig, IoMetrics, IoScheduler, LatencyModel};
