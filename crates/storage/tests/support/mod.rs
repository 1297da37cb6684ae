//! The test-only reference pool: the paper's buffer manager written as
//! the single-fetch protocol applied entry by entry — a frame map,
//! `b_t`, a boxed policy, the `buffer.*` counters and an event log, with
//! no hit runs, no staging and no locks. The identity tests hold a
//! one-shard `BufferManager` to it, fetch for fetch.
#![allow(dead_code)]

use ir_storage::{
    BufferEvent, BufferManager, BufferMetrics, BufferObserver, FetchOutcome, FetchPolicy, Page,
    PageStore, PolicyKind, QueryBuffer, ReplacementPolicy,
};
use ir_types::{IdMap, IrError, IrResult, PageId, ReadPlan, TermId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An observer whose log outlives the pool that owns it.
#[derive(Clone, Debug, Default)]
pub struct SharedLog(pub Arc<Mutex<Vec<BufferEvent>>>);

impl BufferObserver for SharedLog {
    fn event(&mut self, event: BufferEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// One pool of `capacity` frames over `store`, one announcer.
pub struct ReferencePool<S> {
    pub store: S,
    capacity: usize,
    frames: HashMap<PageId, Page>,
    b_t: HashMap<TermId, u32>,
    policy: Box<dyn ReplacementPolicy>,
    pub fetch_policy: FetchPolicy,
    pub metrics: BufferMetrics,
    pub events: Vec<BufferEvent>,
    /// Fetches that ended in an error; each counted one request.
    pub failed: u64,
}

impl<S: PageStore> ReferencePool<S> {
    pub fn new(store: S, capacity: usize, kind: PolicyKind) -> Self {
        ReferencePool {
            store,
            capacity,
            frames: HashMap::new(),
            b_t: HashMap::new(),
            policy: kind.build(capacity),
            fetch_policy: FetchPolicy::NO_RETRY,
            metrics: BufferMetrics::new(),
            events: Vec::new(),
            failed: 0,
        }
    }

    pub fn resident_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.frames.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// One request: a hit, or a read under the retry budget followed
    /// by evictions down to a free frame and the install.
    fn fetch_one(&mut self, id: PageId) -> IrResult<(Page, FetchOutcome)> {
        self.metrics.requests.inc();
        if let Some(page) = self.frames.get(&id).cloned() {
            self.metrics.hits.inc();
            self.policy.on_hit(&page);
            self.events.push(BufferEvent::Hit(id));
            return Ok((page, FetchOutcome::Hit));
        }
        let page = self.read(id).inspect_err(|_| self.failed += 1)?;
        while self.frames.len() >= self.capacity {
            let victim = self
                .policy
                .choose_victim()
                .expect("a full pool has a victim");
            assert!(self.frames.remove(&victim).is_some(), "non-resident victim");
            let evictions = match victim.page.0 {
                0 => &self.metrics.evictions_head,
                _ => &self.metrics.evictions_tail,
            };
            evictions.inc();
            self.events.push(BufferEvent::Evict(victim));
            *self
                .b_t
                .get_mut(&victim.term)
                .expect("victim's term counted") -= 1;
        }
        *self.b_t.entry(id.term).or_insert(0) += 1;
        self.policy.on_insert(&page);
        self.frames.insert(id, page.clone());
        self.metrics.loads.inc();
        self.events.push(BufferEvent::Load(id));
        Ok((page, FetchOutcome::Miss))
    }

    fn read(&mut self, id: PageId) -> IrResult<Page> {
        let mut attempt = 0;
        loop {
            let err = match self.store.read_page(id) {
                Ok(page) if !self.store.can_tear() || page.is_intact() => return Ok(page),
                Ok(_) => {
                    self.metrics.torn_pages.inc();
                    self.events.push(BufferEvent::Torn(id));
                    IrError::TornPage { page: id }
                }
                Err(e) => e,
            };
            if !err.is_transient() {
                return Err(err);
            }
            if attempt == self.fetch_policy.max_retries {
                self.metrics.gave_up.inc();
                return Err(err);
            }
            attempt += 1;
            self.metrics.retries.inc();
            self.events.push(BufferEvent::Retry(id));
        }
    }
}

impl<S: PageStore> QueryBuffer for ReferencePool<S> {
    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        out.clear();
        self.metrics.batches.inc();
        self.metrics.batch_pages.record(plan.len() as u64);
        for entry in plan.iter() {
            out.push(self.fetch_one(entry.page)?);
        }
        Ok(())
    }

    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        terms
            .iter()
            .map(|t| self.b_t.get(t).copied().unwrap_or(0))
            .collect()
    }

    fn begin_query(&mut self, weights: &IdMap<TermId, f64>) {
        self.policy.begin_query(0, weights);
    }
}

/// What must hold after every operation, on both pools: Σ`b_t` equals
/// occupancy within capacity, and every request was a hit, a load or a
/// failed fetch (hits + loads = requests when nothing failed).
pub fn assert_invariants<S: PageStore, R: PageStore>(
    pool: &BufferManager<S>,
    reference: &ReferencePool<R>,
    terms: &[TermId],
    label: &str,
) {
    let b_t: u32 = pool.resident_pages_many(terms).iter().sum();
    assert_eq!(b_t as usize, pool.len(), "{label}: pool Σb_t ≠ occupancy");
    assert!(pool.len() <= pool.capacity(), "{label}: pool over capacity");
    let b_t: u32 = reference.resident_pages_many(terms).iter().sum();
    assert_eq!(
        b_t as usize,
        reference.frames.len(),
        "{label}: reference Σb_t"
    );
    for m in [pool.metrics(), &reference.metrics] {
        let (requests, served) = (m.requests.get(), m.hits.get() + m.loads.get());
        assert_eq!(
            requests,
            served + reference.failed,
            "{label}: requests ≠ hits + loads + failed"
        );
    }
}

/// The two pools are indistinguishable: counters (every `buffer.*`
/// counter and the plan-size histogram), resident set, `b_t` of each of
/// `terms`, and — when the pool carries `log` — the event log.
pub fn assert_identical<S: PageStore, R: PageStore>(
    pool: &BufferManager<S>,
    log: Option<&SharedLog>,
    reference: &ReferencePool<R>,
    terms: &[TermId],
    label: &str,
) {
    if let Some(log) = log {
        assert_eq!(
            *log.0.lock().unwrap(),
            reference.events,
            "{label}: event logs"
        );
    }
    assert_eq!(pool.stats(), reference.metrics.snapshot(), "{label}: stats");
    let (a, b) = (pool.metrics(), &reference.metrics);
    assert_eq!(
        a.dump().counters,
        b.dump().counters,
        "{label}: buffer.* counters"
    );
    assert_eq!(
        a.batch_pages.sum(),
        b.batch_pages.sum(),
        "{label}: batch pages"
    );
    assert_eq!(
        pool.resident_ids(),
        reference.resident_ids(),
        "{label}: resident sets"
    );
    assert_eq!(
        pool.resident_pages_many(terms),
        reference.resident_pages_many(terms),
        "{label}: b_t"
    );
}
