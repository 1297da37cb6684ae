//! What query evaluation needs from a buffer pool.
//!
//! [`QueryBuffer`] is the capability the evaluation algorithms in
//! `ir-core` are generic over — the paper's three calls: fetch a plan,
//! ask `b_t`, announce `w_{q,t}` — so they see a pool only through
//! them, whether it has one shard or many and one session or many.

use crate::buffer::FetchOutcome;
use crate::page::Page;
use ir_types::{IdMap, IrResult, ReadPlan, TermId};

/// What query evaluation needs from a buffer pool, and all of it: fetch
/// a list prefix, ask `b_t`, announce `w_{q,t}` — three methods.
/// Counters, routing and the convenience forms of a fetch are inherent
/// methods of the pool.
///
/// A fetch is one blocking call,
/// [`fetch_batch_into`](Self::fetch_batch_into); `fetch`,
/// `fetch_traced` and `fetch_batch` on the pool are compositions of it.
///
/// One implementor: [`BufferManager`](crate::BufferManager), whose
/// one-shard form is the paper's pool (the storage crate's tests also
/// implement it for their reference pool).
pub trait QueryBuffer {
    /// Serves every entry of `plan` **in plan order** into `out`
    /// (cleared first), reporting how each was served. A hit reaches
    /// the replacement policy and any observer when it is served. Transient failures (torn pages, injected faults)
    /// are retried here, under the pool's `FetchPolicy`; on error `out`
    /// holds the entries served before the failure.
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()>;

    /// `b_t` for every term in `terms`, in order: resident pages of
    /// each term's inverted list. One call is one pass over the pool's
    /// locks, however many terms are asked about.
    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32>;

    /// Announces the term weights `w_{q,t}` of the query this caller
    /// is about to run — the one way a query-aware policy (RAP) learns
    /// what a page is worth; a plan carries no weights. A pool that
    /// several sessions share tells them apart by the handle they call
    /// through.
    fn begin_query(&mut self, weights: &IdMap<TermId, f64>);
}
