//! A recency queue shared by the LRU-family policies.
//!
//! Pages are stamped with a monotonically increasing tick on insertion
//! and (optionally) on re-reference; a `BTreeMap` keyed by tick gives
//! O(log n) access to the coldest and hottest entries.

use ir_types::PageId;
use std::collections::{BTreeMap, HashMap};

/// Recency-ordered set of pages.
#[derive(Debug, Default)]
pub(crate) struct TickQueue {
    next_tick: u64,
    by_tick: BTreeMap<u64, PageId>,
    ticks: HashMap<PageId, u64>,
}

impl TickQueue {
    pub(crate) fn new() -> Self {
        TickQueue::default()
    }

    /// Inserts `id` or refreshes it to most-recent.
    pub(crate) fn touch(&mut self, id: PageId) {
        if let Some(old) = self.ticks.remove(&id) {
            self.by_tick.remove(&old);
        }
        let t = self.next_tick;
        self.next_tick += 1;
        self.by_tick.insert(t, id);
        self.ticks.insert(id, t);
    }

    /// Inserts `id` only if absent (FIFO semantics: references do not
    /// refresh position).
    pub(crate) fn insert_if_absent(&mut self, id: PageId) {
        if !self.ticks.contains_key(&id) {
            self.touch(id);
        }
    }

    /// Removes `id`; returns whether it was present.
    pub(crate) fn remove(&mut self, id: PageId) -> bool {
        match self.ticks.remove(&id) {
            Some(t) => {
                self.by_tick.remove(&t);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the oldest entry.
    pub(crate) fn pop_oldest(&mut self) -> Option<PageId> {
        let (_, id) = self.by_tick.pop_first()?;
        self.ticks.remove(&id);
        Some(id)
    }

    /// Removes and returns the newest entry.
    pub(crate) fn pop_newest(&mut self) -> Option<PageId> {
        let (_, id) = self.by_tick.pop_last()?;
        self.ticks.remove(&id);
        Some(id)
    }

    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.ticks.contains_key(&id)
    }

    pub(crate) fn len(&self) -> usize {
        self.ticks.len()
    }

    pub(crate) fn clear(&mut self) {
        self.by_tick.clear();
        self.ticks.clear();
        self.next_tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::TermId;

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    #[test]
    fn oldest_and_newest_follow_touch_order() {
        let mut q = TickQueue::new();
        q.touch(pid(0, 0));
        q.touch(pid(0, 1));
        q.touch(pid(0, 2));
        q.touch(pid(0, 0)); // refresh: 0 becomes newest
        assert_eq!(q.pop_oldest(), Some(pid(0, 1)));
        assert_eq!(q.pop_newest(), Some(pid(0, 0)));
        assert_eq!(q.pop_oldest(), Some(pid(0, 2)));
        assert_eq!(q.pop_oldest(), None);
    }

    #[test]
    fn insert_if_absent_keeps_position() {
        let mut q = TickQueue::new();
        q.insert_if_absent(pid(0, 0));
        q.insert_if_absent(pid(0, 1));
        q.insert_if_absent(pid(0, 0)); // no refresh
        assert_eq!(q.pop_oldest(), Some(pid(0, 0)));
    }

    #[test]
    fn remove_and_clear() {
        let mut q = TickQueue::new();
        q.touch(pid(0, 0));
        q.touch(pid(1, 0));
        assert!(q.remove(pid(0, 0)));
        assert!(!q.remove(pid(0, 0)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop_oldest(), None);
    }
}
