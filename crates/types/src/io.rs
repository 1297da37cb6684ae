//! Vocabulary for asynchronous page I/O: completion tokens, read
//! handles, and the clock a latency-modeling scheduler runs on.
//!
//! The storage tier's `IoScheduler` (in `ir-storage::backend`) submits
//! page reads to a bounded set of device channels and completes them
//! under a seek+bandwidth latency model. These types are the shared
//! vocabulary of that submission/completion protocol; they live here so
//! every layer (storage, engine, bench) can talk about an in-flight
//! read without depending on the scheduler's implementation.

use crate::ids::PageId;
use crate::read_plan::ReadPlan;

/// Identifies one submitted read for its whole lifetime: assigned at
/// submission, quoted at completion. Tokens are unique per scheduler
/// instance and strictly increasing in submission order, so they also
/// serve as a deterministic tiebreaker when two completions carry the
/// same modeled timestamp.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompletionToken(pub u64);

impl CompletionToken {
    /// The token after this one in submission order.
    #[must_use]
    pub fn next(self) -> CompletionToken {
        CompletionToken(self.0 + 1)
    }
}

/// An in-flight asynchronous page read: which page was asked for, the
/// token naming the submission, and when the modeling clock says the
/// device will deliver it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadHandle {
    /// The submission this handle tracks.
    pub token: CompletionToken,
    /// The page being read.
    pub page: PageId,
    /// Modeled completion time, µs on the scheduler's clock
    /// ([`ClockKind`]). A demand read that arrives after this instant
    /// waits zero time: the transfer overlapped with compute.
    pub ready_at_us: u64,
}

/// One submitted batch of page reads, alive between `submit_batch` and
/// `complete_into` (or `cancel_batch`) on a `QueryBuffer`.
///
/// The handle owns everything the completing side needs to finish the
/// batch and undo the submission's bookkeeping: the plan itself, the
/// pages the pool pinned at submission (so in-flight pages cannot be
/// chosen as replacement victims), the pages it counted as in-flight
/// toward `b_t`, and the per-read [`ReadHandle`]s a latency-modeling
/// store returned for the transfers it actually scheduled.
///
/// Deliberately neither `Copy` nor `Clone`: a submission is completed
/// (or cancelled) exactly once, and moving the handle into
/// `complete_into` enforces that at the type level. Dropping a handle
/// without completing it leaks the submission's pins — callers that
/// bail out early must route the handle through `cancel_batch`.
#[must_use = "a submission owns pins and in-flight b_t counts: pass it to complete_into or cancel_batch"]
#[derive(Debug, Default, PartialEq)]
pub struct BatchHandle {
    /// The plan this submission covers; completion fetches exactly
    /// these entries, in order.
    pub plan: ReadPlan,
    /// Distinct pages the submitting pool pinned, to be unpinned at
    /// completion before the demand fetches run.
    pub pinned: Vec<PageId>,
    /// Distinct pages that were not resident at submission and are
    /// therefore counted as in-flight toward their term's `b_t` until
    /// completion.
    pub loading: Vec<PageId>,
    /// Handles for the reads the store actually scheduled (empty for
    /// synchronous stores and at queue depth ≤ 1, where submission
    /// starts nothing).
    pub reads: Vec<ReadHandle>,
}

impl BatchHandle {
    /// A submission that scheduled nothing: no pins, no in-flight
    /// pages, no device activity. Completing it is the whole fetch of
    /// `plan`.
    pub fn unscheduled(plan: ReadPlan) -> Self {
        BatchHandle {
            plan,
            ..BatchHandle::default()
        }
    }

    /// The modeled instant the last scheduled read completes, if any
    /// read was scheduled at all.
    pub fn ready_at_us(&self) -> Option<u64> {
        self.reads.iter().map(|r| r.ready_at_us).max()
    }

    /// Number of planned reads (counting duplicates).
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// `true` when the underlying plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }
}

/// Which clock a latency-modeling I/O layer runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockKind {
    /// A deterministic virtual clock: waits are *accounted* (the
    /// modeled microseconds accumulate in `io_wait_us`) but never
    /// slept. Two runs over the same read sequence report identical
    /// waits — what tests and the CI determinism gate need.
    #[default]
    Virtual,
    /// The wall clock: modeled waits are actually slept, so queue
    /// depth and prefetch overlap show up in end-to-end wall time —
    /// what the `bench storage` sweep measures.
    Real,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TermId;

    #[test]
    fn tokens_order_by_submission() {
        let a = CompletionToken(1);
        let b = a.next();
        assert!(a < b);
        assert_eq!(b, CompletionToken(2));
    }

    #[test]
    fn handles_carry_their_deadline() {
        let h = ReadHandle {
            token: CompletionToken(0),
            page: PageId::new(TermId(3), 1),
            ready_at_us: 250,
        };
        assert_eq!(h.page.term, TermId(3));
        assert_eq!(h.ready_at_us, 250);
    }

    #[test]
    fn clock_defaults_to_deterministic() {
        assert_eq!(ClockKind::default(), ClockKind::Virtual);
    }

    #[test]
    fn unscheduled_handles_carry_only_the_plan() {
        let plan = ReadPlan::for_term_pages(TermId(2), 3, None);
        let h = BatchHandle::unscheduled(plan.clone());
        assert_eq!(h.plan, plan);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert!(h.pinned.is_empty() && h.loading.is_empty());
        assert_eq!(h.ready_at_us(), None, "nothing was scheduled");
    }

    #[test]
    fn ready_at_is_the_last_scheduled_completion() {
        let mut h = BatchHandle::unscheduled(ReadPlan::single(PageId::new(TermId(0), 0)));
        for (i, at) in [(0u64, 120u64), (1, 90)] {
            h.reads.push(ReadHandle {
                token: CompletionToken(i),
                page: PageId::new(TermId(0), i as u32),
                ready_at_us: at,
            });
        }
        assert_eq!(h.ready_at_us(), Some(120));
    }
}
