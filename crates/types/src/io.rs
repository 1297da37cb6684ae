//! The clock a latency-modeling I/O layer runs on.
//!
//! The storage tier's `IoScheduler` (in `ir-storage::backend`) prices
//! page reads under a seek+bandwidth latency model; [`ClockKind`] says
//! whether those modeled waits are slept or only accounted. It lives
//! here so every layer (storage, engine, bench) can name the clock
//! without depending on the scheduler's implementation.

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

    #[test]
    fn clock_defaults_to_deterministic() {
        assert_eq!(ClockKind::default(), ClockKind::Virtual);
    }
}
