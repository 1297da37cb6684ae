//! Clock / second-chance (extension baseline, not in the paper's grid).
//!
//! The usual low-overhead LRU approximation: a circular queue of pages
//! with one reference bit each. The victim sweep clears bits until it
//! finds an unreferenced page. Behaves like LRU on refinement scans —
//! which is exactly why it is here as a control.

use super::ReplacementPolicy;
use crate::page::Page;
use ir_types::{IdMap, PageId};
use std::collections::VecDeque;

/// Clock replacement.
#[derive(Debug, Default)]
pub struct Clock {
    // Front of the deque is the clock hand.
    ring: VecDeque<PageId>,
    referenced: IdMap<PageId, bool>,
}

impl Clock {
    /// Creates an empty Clock policy.
    pub fn new() -> Self {
        Clock::default()
    }
}

impl ReplacementPolicy for Clock {
    fn name(&self) -> &'static str {
        "CLOCK"
    }

    fn on_insert(&mut self, page: &Page) {
        let id = page.id();
        if !self.referenced.contains_key(&id) {
            self.ring.push_back(id);
        }
        self.referenced.insert(id, true);
    }

    fn on_hit(&mut self, page: &Page) {
        if let Some(bit) = self.referenced.get_mut(&page.id()) {
            *bit = true;
        }
    }

    fn choose_victim(&mut self) -> Option<PageId> {
        // The first pass over the ring clears reference bits, so the
        // sweep ends within two.
        loop {
            let id = self.ring.pop_front()?;
            let bit = self.referenced.get_mut(&id).expect("ring/bits in sync");
            if *bit {
                *bit = false;
                self.ring.push_back(id);
            } else {
                self.referenced.remove(&id);
                return Some(id);
            }
        }
    }

    fn remove(&mut self, id: PageId) {
        if self.referenced.remove(&id).is_some() {
            self.ring.retain(|p| *p != id);
        }
    }

    fn clear(&mut self) {
        self.ring.clear();
        self.referenced.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{insert_all, page};
    use super::*;

    #[test]
    fn second_chance_spares_referenced_pages() {
        let mut p = Clock::new();
        let pages = [page(0, 0, 1, 1.0), page(0, 1, 1, 1.0), page(0, 2, 1, 1.0)];
        insert_all(&mut p, &pages);
        // All bits set: first sweep clears 0,1 and then 2; second pass
        // evicts page 0 (oldest).
        assert_eq!(p.choose_victim(), Some(pages[0].id()));
        // Page 1's bit is now clear; a hit re-arms it, pushing the
        // victim choice to page 2.
        p.on_hit(&pages[1]);
        assert_eq!(p.choose_victim(), Some(pages[2].id()));
    }

    #[test]
    fn remove_detaches_from_ring() {
        let mut p = Clock::new();
        let a = page(0, 0, 1, 1.0);
        let b = page(0, 1, 1, 1.0);
        p.on_insert(&a);
        p.on_insert(&b);
        p.remove(a.id());
        assert_eq!(p.choose_victim(), Some(b.id()));
        assert_eq!(p.choose_victim(), None);
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut p = Clock::new();
        let a = page(0, 0, 1, 1.0);
        p.on_insert(&a);
        p.on_insert(&a);
        assert_eq!(p.choose_victim(), Some(a.id()));
        assert_eq!(p.choose_victim(), None);
    }
}
