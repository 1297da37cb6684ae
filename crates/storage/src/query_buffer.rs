//! What query evaluation needs from a buffer pool.
//!
//! [`QueryBuffer`] is the capability the evaluation algorithms in
//! `ir-core` are generic over — the paper's three calls: fetch a plan,
//! ask `b_t`, announce `w_{q,t}` — so they run unchanged against a
//! private [`BufferManager`](crate::BufferManager) and against the
//! concurrent [`ShardedBufferPool`](crate::ShardedBufferPool) that
//! multi-session servers share. [`QueryBufferExt`] writes the
//! convenience forms of a fetch once, over the one required call.

use crate::buffer::FetchOutcome;
use crate::page::Page;
use ir_types::{IdMap, IrResult, PageId, ReadPlan, TermId};

/// What query evaluation needs from a buffer pool, and all of it: fetch
/// a list prefix, ask `b_t`, announce `w_{q,t}` — three methods.
/// Counters, routing and everything else a pool offers are inherent
/// methods of the concrete pools.
///
/// A fetch is one blocking call,
/// [`fetch_batch_into`](Self::fetch_batch_into); the other forms —
/// `fetch`, `fetch_traced`, `fetch_batch` — are compositions of it
/// written once in [`QueryBufferExt`], which no implementor can
/// override.
///
/// Two implementors: [`BufferManager`](crate::BufferManager), the
/// single-owner reference, and
/// [`ShardedBufferPool`](crate::ShardedBufferPool), the concurrent pool
/// — identical to the reference at one shard, by test.
pub trait QueryBuffer {
    /// Serves every entry of `plan` **in plan order** into `out`
    /// (cleared first), reporting how each was served. Transient
    /// failures (torn pages, injected faults) are retried here, under
    /// the pool's `FetchPolicy`; on error `out` holds the entries
    /// served before the failure.
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
    /// is about to run. A pool that several sessions share tells them
    /// apart by the handle they call through.
    fn begin_query(&mut self, weights: &IdMap<TermId, f64>);
}

/// The convenience forms of a fetch, each written once over
/// [`QueryBuffer::fetch_batch_into`]. Blanket-implemented, so an
/// implementor of [`QueryBuffer`] gets all of them and can override
/// none.
pub trait QueryBufferExt: QueryBuffer {
    /// Executes `plan`, serving every entry in plan order and
    /// reporting each entry's outcome.
    fn fetch_batch(&mut self, plan: &ReadPlan) -> IrResult<Vec<(Page, FetchOutcome)>> {
        let mut out = Vec::with_capacity(plan.len());
        self.fetch_batch_into(plan, &mut out)?;
        Ok(out)
    }

    /// Fetches one page — a one-entry plan — reporting how it was
    /// served. The outcome is observed inside the fetch's own critical
    /// section, so attribution is exact for the calling session even
    /// when other sessions hammer the same pool concurrently.
    fn fetch_traced(&mut self, id: PageId) -> IrResult<(Page, FetchOutcome)> {
        let mut served = self.fetch_batch(&ReadPlan::single(id))?;
        Ok(served.pop().expect("a one-entry plan yields one result"))
    }

    /// Fetches one page, counting a hit or a disk read.
    fn fetch(&mut self, id: PageId) -> IrResult<Page> {
        self.fetch_traced(id).map(|(page, _)| page)
    }

    /// `b_t` of a single term.
    fn resident_pages(&self, term: TermId) -> u32 {
        self.resident_pages_many(&[term])[0]
    }
}

impl<B: QueryBuffer + ?Sized> QueryBufferExt for B {}
