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
    /// what the benchmark's `ooc_qd4` workload measures.
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
}
