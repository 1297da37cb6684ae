//! First-in-first-out (extension baseline, not in the paper's grid).
//!
//! Included as a reference point: FIFO shares LRU's sequential-flooding
//! behaviour on scans but ignores re-references entirely, which makes
//! the contribution of recency visible in the ablation experiment.

use super::tick::TickQueue;
use super::ReplacementPolicy;
use crate::page::Page;
use ir_types::PageId;

/// FIFO replacement.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: TickQueue,
}

impl Fifo {
    /// Creates an empty FIFO policy.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn on_insert(&mut self, page: &Page) {
        self.queue.insert_if_absent(page.id());
    }

    fn on_hit(&mut self, _page: &Page) {
        // References never change FIFO order.
    }

    fn uses_hits(&self) -> bool {
        false
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
    use super::super::testutil::{insert_all, page};
    use super::*;
    use ir_types::TermId;

    #[test]
    fn hits_do_not_refresh() {
        let mut p = Fifo::new();
        let pages = [page(0, 0, 1, 1.0), page(0, 1, 1, 1.0)];
        insert_all(&mut p, &pages);
        p.on_hit(&pages[0]);
        p.on_hit(&pages[0]);
        assert_eq!(p.choose_victim(), Some(PageId::new(TermId(0), 0)));
    }

    #[test]
    fn eviction_is_arrival_order() {
        let mut p = Fifo::new();
        let pages: Vec<_> = (0..4).map(|i| page(0, i, 1, 1.0)).collect();
        insert_all(&mut p, &pages);
        for pg in &pages {
            assert_eq!(p.choose_victim(), Some(pg.id()));
        }
    }
}
