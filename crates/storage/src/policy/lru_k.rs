//! LRU-K [OOW93] (extension; K = 2 in the paper's §6 discussion).
//!
//! The victim is the page with the greatest *backward K-distance*: the
//! page whose K-th most recent reference lies furthest in the past.
//! Pages with fewer than K references have infinite backward distance
//! and are evicted first, ties broken by the older most-recent
//! reference. Per [OOW93], reference history is *retained* for pages
//! after eviction (the "retained information" period) so a page's
//! second reference shortly after reload still counts — the simulator
//! retains history for the whole run, which is the most favourable
//! setting for LRU-K and still, as the paper predicts, does not help on
//! refinement scans.

use super::ReplacementPolicy;
use crate::page::Page;
use ir_types::{IdMap, IdSet, PageId};

/// LRU-K replacement.
#[derive(Debug)]
pub struct LruK {
    k: usize,
    tick: u64,
    /// Reference history (most recent first, at most `k` entries) for
    /// every page ever seen — the retained-information store.
    history: IdMap<PageId, Vec<u64>>,
    resident: IdSet<PageId>,
}

impl LruK {
    /// Creates the policy with history depth `k` (`k ≥ 1`; `k = 1` is
    /// plain LRU).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "LRU-K needs k >= 1");
        LruK {
            k,
            tick: 0,
            history: IdMap::default(),
            resident: IdSet::default(),
        }
    }

    fn reference(&mut self, id: PageId) {
        self.tick += 1;
        let h = self.history.entry(id).or_default();
        h.insert(0, self.tick);
        h.truncate(self.k);
    }

    /// Backward K-distance key: smaller = better victim.
    /// `(kth_most_recent_or_0, most_recent)` — pages without a full
    /// history get 0 and are evicted first.
    fn victim_key(&self, id: PageId) -> (u64, u64) {
        let h = &self.history[&id];
        let kth = h.get(self.k - 1).copied().unwrap_or(0);
        let last = h.first().copied().unwrap_or(0);
        (kth, last)
    }
}

impl ReplacementPolicy for LruK {
    fn name(&self) -> &'static str {
        "LRU-2"
    }

    fn on_insert(&mut self, page: &Page) {
        self.resident.insert(page.id());
        self.reference(page.id());
    }

    fn on_hit(&mut self, page: &Page) {
        self.reference(page.id());
    }

    fn choose_victim(&mut self) -> Option<PageId> {
        let victim = self
            .resident
            .iter()
            .min_by_key(|id| {
                let (kth, last) = self.victim_key(**id);
                // Deterministic total order: distance key then page id.
                (kth, last, id.term.0, id.page.0)
            })
            .copied()?;
        self.resident.remove(&victim);
        Some(victim)
    }

    fn remove(&mut self, id: PageId) {
        self.resident.remove(&id);
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.history.clear();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::page;
    use super::*;

    #[test]
    fn single_reference_pages_evicted_before_doubly_referenced() {
        let mut p = LruK::new(2);
        let a = page(0, 0, 1, 1.0);
        let b = page(0, 1, 1, 1.0);
        p.on_insert(&a);
        p.on_hit(&a); // a has 2 references
        p.on_insert(&b); // b has 1, newer
        assert_eq!(p.choose_victim(), Some(b.id()));
    }

    #[test]
    fn among_full_histories_oldest_kth_reference_loses() {
        let mut p = LruK::new(2);
        let a = page(0, 0, 1, 1.0);
        let b = page(0, 1, 1, 1.0);
        p.on_insert(&a); // t1
        p.on_hit(&a); // t2: a's 2nd-most-recent = t1
        p.on_insert(&b); // t3
        p.on_hit(&b); // t4: b's 2nd-most-recent = t3
        assert_eq!(p.choose_victim(), Some(a.id()));
    }

    #[test]
    fn history_survives_eviction() {
        let mut p = LruK::new(2);
        let a = page(0, 0, 1, 1.0);
        let b = page(0, 1, 1, 1.0);
        p.on_insert(&a);
        p.on_hit(&a);
        assert_eq!(p.choose_victim(), Some(a.id()));
        // `a` returns: its retained history gives it a full K-distance,
        // so the never-rereferenced `b` is the victim.
        p.on_insert(&b);
        p.on_insert(&a);
        assert_eq!(p.choose_victim(), Some(b.id()));
    }

    #[test]
    fn k1_degenerates_to_lru() {
        let mut p = LruK::new(1);
        let a = page(0, 0, 1, 1.0);
        let b = page(0, 1, 1, 1.0);
        p.on_insert(&a);
        p.on_insert(&b);
        p.on_hit(&a);
        assert_eq!(p.choose_victim(), Some(b.id()));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = LruK::new(0);
    }
}
