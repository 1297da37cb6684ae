//! Least-recently-used.
//!
//! The paper's baseline: "most document retrieval systems are built on
//! top of file systems, which use LRU" (§3.3). On refinement workloads
//! whose inverted lists exceed the pool, LRU exhibits the classic
//! sequential-flooding pathology [Sto81]: every page is evicted just
//! before its re-reference, rendering the buffers useless.

use super::tick::TickQueue;
use super::ReplacementPolicy;
use crate::page::Page;
use ir_types::PageId;

/// LRU replacement.
#[derive(Debug, Default)]
pub struct Lru {
    queue: TickQueue,
}

impl Lru {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Lru::default()
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_insert(&mut self, page: &Page) {
        self.queue.touch(page.id());
    }

    fn on_hit(&mut self, page: &Page) {
        self.queue.touch(page.id());
    }

    fn choose_victim(&mut self) -> Option<PageId> {
        self.queue.pop_oldest()
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
    use super::super::testutil::{drain, insert_all, page};
    use super::*;
    use ir_types::TermId;

    #[test]
    fn evicts_least_recently_used() {
        let mut p = Lru::new();
        let pages = [page(0, 0, 1, 1.0), page(0, 1, 1, 1.0), page(0, 2, 1, 1.0)];
        insert_all(&mut p, &pages);
        p.on_hit(&pages[0]); // page 0 refreshed
        assert_eq!(p.choose_victim(), Some(PageId::new(TermId(0), 1)));
    }

    #[test]
    fn sequential_flooding_pathology() {
        // Repeatedly scanning pages 0..3 through a 2-frame-worth of
        // tracked state evicts each page right before its reuse: every
        // victim is exactly the page the next round needs first.
        let mut p = Lru::new();
        let pages: Vec<_> = (0..4).map(|i| page(0, i, 1, 1.0)).collect();
        p.on_insert(&pages[0]);
        p.on_insert(&pages[1]);
        for round in 0..3 {
            for pg in &pages {
                // "fetch": if tracked it's a hit, else evict + insert.
                if p.queue.contains(pg.id()) {
                    p.on_hit(pg);
                } else {
                    let victim = p.choose_victim().unwrap();
                    // The victim is never the page we are about to need
                    // *this* step, which is exactly the pathology: it is
                    // the one we will need soonest afterwards.
                    assert_ne!(victim, pg.id(), "round {round}");
                    p.on_insert(pg);
                }
            }
        }
    }

    #[test]
    fn drain_order_is_insertion_order_without_hits() {
        let mut p = Lru::new();
        let pages: Vec<_> = (0..3).map(|i| page(1, i, 1, 1.0)).collect();
        insert_all(&mut p, &pages);
        let order = drain(&mut p);
        assert_eq!(
            order,
            vec![
                PageId::new(TermId(1), 0),
                PageId::new(TermId(1), 1),
                PageId::new(TermId(1), 2)
            ]
        );
    }

    #[test]
    fn clear_forgets_everything() {
        let mut p = Lru::new();
        p.on_insert(&page(0, 0, 1, 1.0));
        p.clear();
        assert_eq!(p.choose_victim(), None);
    }
}
