//! # ir-observe
//!
//! The storage tier's counters: named monotonic [`Counter`]s and
//! fixed-bucket [`Histogram`]s, handed out by a [`Registry`]. Handles
//! are `Arc`-backed atomics — recording is lock-free and wait-free, so
//! a free-running `SessionServer` can count from N sessions without
//! contention. Registration (name → handle) takes a short mutex once
//! per metric; the hot path never does.
//!
//! `ir-storage` is the one crate of the workspace that records here:
//! each buffer pool keeps its own registry, the sharded pool and the
//! I/O scheduler hold free-standing handles, and the list codec counts
//! decodes on the process-wide [`global`] registry. The per-query
//! account — which term was processed when, with what thresholds, what
//! it read and how many `b_t` questions its round asked — is not here:
//! it is `ir-core`'s `TermTraceRow` and `EvalStats`, rolled up by
//! `ir-engine`'s cost ledger.
//!
//! Overhead: a counter bump is one relaxed atomic add (~1 ns); a
//! histogram record is a bucket search over ≤ 32 bounds plus three
//! atomic adds. Nothing here affects the simulator's deterministic read
//! counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;

pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, DECODE_NS_BOUNDS,
    IO_LATENCY_US_BOUNDS,
};

use std::sync::OnceLock;

/// The process-wide registry, for counters without a per-instance home
/// (the list codec's decode meters).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("lib.test.counter").add(2);
        assert_eq!(global().counter("lib.test.counter").get(), 2);
    }
}
