//! A recency queue shared by the LRU-family policies.
//!
//! An intrusive doubly-linked list over a slab of nodes, oldest at the
//! head, plus a page → slot table: inserting, refreshing, removing and
//! popping either end are O(1), one table probe each. A page moves to
//! the tail whenever it is stamped, so list order *is* stamp order —
//! there are no ticks to compare.

use ir_types::{IdMap, PageId};

/// "No slot": the `prev` of the head, the `next` of the tail.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    id: PageId,
    /// Towards the head (older).
    prev: u32,
    /// Towards the tail (newer).
    next: u32,
}

/// Recency-ordered set of pages.
#[derive(Debug)]
pub(crate) struct TickQueue {
    nodes: Vec<Node>,
    /// Slots of `nodes` not on the list, reused before the slab grows.
    free: Vec<u32>,
    slots: IdMap<PageId, u32>,
    /// Oldest entry.
    head: u32,
    /// Newest entry.
    tail: u32,
}

impl Default for TickQueue {
    fn default() -> Self {
        TickQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            slots: IdMap::default(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl TickQueue {
    pub(crate) fn new() -> Self {
        TickQueue::default()
    }

    /// Takes `slot` off the list, joining its neighbours; its own links
    /// are left for the caller to overwrite.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Appends `slot` as the newest entry, overwriting both its links.
    fn push_newest(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Takes `slot` off the list and frees it, returning its page; the
    /// page's `slots` entry is the caller's to drop.
    fn release(&mut self, slot: u32) -> PageId {
        self.unlink(slot);
        self.free.push(slot);
        self.nodes[slot as usize].id
    }

    /// Releases the entry at `slot` (an end of the list), if any.
    fn pop(&mut self, slot: u32) -> Option<PageId> {
        (slot != NIL).then(|| {
            let id = self.release(slot);
            self.slots.remove(&id);
            id
        })
    }

    /// Inserts `id` or refreshes it to most-recent.
    pub(crate) fn touch(&mut self, id: PageId) {
        let slot = match self.slots.get(&id) {
            Some(&slot) => {
                self.unlink(slot);
                slot
            }
            None => {
                let node = Node {
                    id,
                    prev: NIL,
                    next: NIL,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.nodes[slot as usize] = node;
                        slot
                    }
                    None => {
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                };
                self.slots.insert(id, slot);
                slot
            }
        };
        self.push_newest(slot);
    }

    /// Inserts `id` only if absent (FIFO semantics: references do not
    /// refresh position).
    pub(crate) fn insert_if_absent(&mut self, id: PageId) {
        if !self.slots.contains_key(&id) {
            self.touch(id);
        }
    }

    /// Removes `id`; returns whether it was present.
    pub(crate) fn remove(&mut self, id: PageId) -> bool {
        match self.slots.remove(&id) {
            Some(slot) => {
                self.release(slot);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the oldest entry.
    pub(crate) fn pop_oldest(&mut self) -> Option<PageId> {
        self.pop(self.head)
    }

    /// Removes and returns the newest entry.
    pub(crate) fn pop_newest(&mut self) -> Option<PageId> {
        self.pop(self.tail)
    }

    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.slots.contains_key(&id)
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::TermId;
    use proptest::TestRng;
    use std::collections::{BTreeMap, HashMap};

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    /// The reference the list is held to: the queue this module used to
    /// be — every stamp a fresh tick, a `BTreeMap` ordered by tick.
    #[derive(Debug, Default)]
    struct BTreeTickQueue {
        next_tick: u64,
        by_tick: BTreeMap<u64, PageId>,
        ticks: HashMap<PageId, u64>,
    }

    impl BTreeTickQueue {
        fn touch(&mut self, id: PageId) {
            if let Some(old) = self.ticks.remove(&id) {
                self.by_tick.remove(&old);
            }
            self.by_tick.insert(self.next_tick, id);
            self.ticks.insert(id, self.next_tick);
            self.next_tick += 1;
        }
        fn insert_if_absent(&mut self, id: PageId) {
            if !self.ticks.contains_key(&id) {
                self.touch(id);
            }
        }
        fn remove(&mut self, id: PageId) -> bool {
            self.ticks
                .remove(&id)
                .is_some_and(|t| self.by_tick.remove(&t).is_some())
        }
        fn pop_oldest(&mut self) -> Option<PageId> {
            let (_, id) = self.by_tick.pop_first()?;
            self.ticks.remove(&id);
            Some(id)
        }
        fn pop_newest(&mut self) -> Option<PageId> {
            let (_, id) = self.by_tick.pop_last()?;
            self.ticks.remove(&id);
            Some(id)
        }
        fn clear(&mut self) {
            *self = BTreeTickQueue::default();
        }
    }

    /// Drives the list and the `BTreeMap` queue with one seeded stream
    /// over a small page universe (so re-touches, removals of absent
    /// pages and slot reuse are all common) and compares every return
    /// value, `len` and `contains` after every step.
    fn run_differential(seed: u64, steps: usize) {
        const TERMS: u32 = 3;
        const PAGES: u32 = 4;
        let mut rng = TestRng::from_name(&format!("tick-queue-{seed}"));
        let mut pick = move |n: u32| rng.below(u64::from(n)) as u32;
        let (mut list, mut oracle) = (TickQueue::new(), BTreeTickQueue::default());
        for step in 0..steps {
            let ctx = format!("seed {seed}, step {step}");
            let id = pid(pick(TERMS), pick(PAGES));
            match pick(16) {
                0..=5 => {
                    list.touch(id);
                    oracle.touch(id);
                }
                6..=7 => {
                    list.insert_if_absent(id);
                    oracle.insert_if_absent(id);
                }
                8..=10 => assert_eq!(list.remove(id), oracle.remove(id), "{ctx}: remove {id}"),
                11..=12 => assert_eq!(list.pop_oldest(), oracle.pop_oldest(), "{ctx}: oldest"),
                13..=14 => assert_eq!(list.pop_newest(), oracle.pop_newest(), "{ctx}: newest"),
                _ => {
                    if pick(8) == 0 {
                        list.clear();
                        oracle.clear();
                    }
                }
            }
            assert_eq!(list.len(), oracle.ticks.len(), "{ctx}: len");
            for t in 0..TERMS {
                for p in 0..PAGES {
                    let id = pid(t, p);
                    assert_eq!(
                        list.contains(id),
                        oracle.ticks.contains_key(&id),
                        "{ctx}: contains {id}"
                    );
                }
            }
        }
        // What is left comes out in the same order.
        while let Some(id) = oracle.pop_oldest() {
            assert_eq!(list.pop_oldest(), Some(id), "seed {seed}: drain");
        }
        assert_eq!(list.pop_oldest(), None, "seed {seed}: drained");
    }

    #[test]
    fn list_matches_the_btree_queue() {
        for seed in 0..64 {
            run_differential(seed, 600);
        }
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
