//! Most-recently-used.
//!
//! The textbook remedy for repeated sequential scans [CD85]: evicting
//! the page just used keeps the *rest* of the scanned data resident for
//! the next round. The paper shows MRU helps on ADD-ONLY refinement but
//! fails on ADD-DROP (§5.3): pages of dropped terms were referenced long
//! ago, so MRU — which always victimizes the *newest* page — keeps the
//! dropped, useless pages pinned in the pool indefinitely.

use super::tick::TickQueue;
use super::ReplacementPolicy;
use crate::page::Page;
use ir_types::PageId;

/// MRU replacement.
#[derive(Debug, Default)]
pub struct Mru {
    queue: TickQueue,
}

impl Mru {
    /// Creates an empty MRU policy.
    pub fn new() -> Self {
        Mru::default()
    }
}

impl ReplacementPolicy for Mru {
    fn name(&self) -> &'static str {
        "MRU"
    }

    fn on_insert(&mut self, page: &Page) {
        self.queue.touch(page.id());
    }

    fn on_hit(&mut self, page: &Page) {
        self.queue.touch(page.id());
    }

    fn choose_victim(&mut self) -> Option<PageId> {
        self.queue.pop_newest()
    }

    fn remove(&mut self, id: PageId) {
        self.queue.remove(id);
    }

    fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{insert_all, page};
    use super::*;
    use ir_types::TermId;

    #[test]
    fn evicts_most_recently_used() {
        let mut p = Mru::new();
        let pages = [page(0, 0, 1, 1.0), page(0, 1, 1, 1.0), page(0, 2, 1, 1.0)];
        insert_all(&mut p, &pages);
        assert_eq!(p.choose_victim(), Some(PageId::new(TermId(0), 2)));
        p.on_hit(&pages[0]);
        assert_eq!(p.choose_victim(), Some(PageId::new(TermId(0), 0)));
    }

    #[test]
    fn keeps_old_pages_forever() {
        // The ADD-DROP failure mode in miniature: an old (dropped-term)
        // page is never the MRU victim as long as new pages keep coming.
        let mut p = Mru::new();
        let old = page(9, 0, 1, 1.0);
        p.on_insert(&old);
        for i in 0..50 {
            let fresh = page(0, i, 1, 1.0);
            p.on_insert(&fresh);
            let v = p.choose_victim().unwrap();
            assert_ne!(v, old.id(), "MRU must never evict the cold page");
        }
    }
}
