//! Buffer-pool event observation.
//!
//! The paper's analysis repeatedly reasons about *which* pages a policy
//! keeps or evicts (dropped-term pages first, tail before head, MRU
//! never evicting cold pages, ...). An optional observer on the buffer
//! manager makes those micro-claims directly testable against the real
//! pool instead of the policy in isolation, and gives tools like the
//! CLI a hook for live diagnostics.

use ir_types::PageId;
use std::fmt;

/// One buffer-pool event, in occurrence order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferEvent {
    /// A page was read from disk into a frame.
    Load(PageId),
    /// A resident page was referenced again.
    Hit(PageId),
    /// A page was chosen as the replacement victim.
    Evict(PageId),
    /// A store read of the page failed transiently and is being
    /// re-attempted under the pool's `FetchPolicy` (one event per
    /// retry attempt).
    Retry(PageId),
    /// A delivered copy of the page failed checksum verification and
    /// was rejected (torn read).
    Torn(PageId),
    /// The pool was emptied.
    Flush,
}

/// Receiver of buffer events. Implementations must be `Debug` (the
/// buffer manager derives it) and `Send` (so an observed pool can be
/// shared across session threads) — a plain struct around whatever
/// state you collect.
pub trait BufferObserver: fmt::Debug + Send {
    /// Called for every event, in order.
    fn event(&mut self, event: BufferEvent);
}

/// The trivial observer: records everything in a vector.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<BufferEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events.
    pub fn events(&self) -> &[BufferEvent] {
        &self.events
    }

    /// Only the evictions, in order — the sequence most paper claims
    /// are about.
    pub fn evictions(&self) -> Vec<PageId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                BufferEvent::Evict(id) => Some(*id),
                _ => None,
            })
            .collect()
    }
}

impl BufferObserver for EventLog {
    fn event(&mut self, event: BufferEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::TermId;

    #[test]
    fn log_records_in_order() {
        let mut log = EventLog::new();
        let a = PageId::new(TermId(0), 0);
        let b = PageId::new(TermId(0), 1);
        log.event(BufferEvent::Load(a));
        log.event(BufferEvent::Hit(a));
        log.event(BufferEvent::Evict(a));
        log.event(BufferEvent::Load(b));
        log.event(BufferEvent::Flush);
        assert_eq!(log.events().len(), 5);
        assert_eq!(log.evictions(), vec![a]);
    }
}
