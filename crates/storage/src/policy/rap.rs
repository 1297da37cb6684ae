//! The Ranking-Aware Policy (RAP) — the paper's proposal (§3.3, Eq. 6),
//! extended to several users the way the paper sketches.
//!
//! Every resident page is valued at
//!
//! ```text
//! replacement_value = w*_{d,t} · eff_t
//! eff_t             = max over announcers s carrying t of w_{q_s,t}
//! ```
//!
//! where `w*_{d,t}` is the highest document term weight stored on the
//! page (precomputed at index build time and carried by
//! [`Page::max_weight`]) and `w_{q_s,t}` is the weight of the page's
//! term in the query announcer `s` — a session — is **currently
//! processing**: "a global query history … if a term is shared by many
//! queries, the highest `w_{q,t}` could be used" (§3.3, option 2). The
//! maximum is `total_cmp`'s; `eff_t` is `+0.0` when no announcer
//! carries `t`, and that announcer's bits verbatim when exactly one
//! does, so with one announcer this is Eq. 6 with the one current
//! query. The victim is the page with the lowest value.
//!
//! Consequences the paper calls out, all encoded here:
//! * head pages of a list (largest `f_{d,t}`) have the highest value and
//!   are kept — every query touching the term needs them;
//! * terms **dropped** during refinement by every session that held
//!   them have `eff_t = 0`, so their pages value to 0 and are evicted
//!   first — and one session's announcement cannot zero the pages
//!   another session's current query still needs;
//! * among zero/equal values, the **tail is evicted before the head**
//!   (tie-break: higher page number first);
//! * values are query-dependent, so [`Rap::begin_query`] re-values the
//!   pages of terms whose `eff_t` changed ("a reorganizing capability is
//!   required") — a page's value can only move when its own term's
//!   `eff_t` does, an announcement can only move the terms whose weight
//!   *that announcer* changed, and a refinement step changes a handful.
//!
//! The value queue has two levels, both exactly ordered by (value,
//! ¬page-no, term) — footnote 8 notes full ordering is not strictly
//! required, but an exact queue is deterministic and, kept this way,
//! cheap. Each resident term holds its pages as one **run** in key
//! order; a pool-wide ordered set holds one **candidate** per resident
//! term, the lowest key of its run, so the set's first entry is the
//! pool's lowest page. A page going in or out edits one run and swaps
//! at most one candidate; an announcement recomputes the products of
//! each changed term's run in place, sorts the run — on a real list
//! `w*` falls with the page number and the run is already in order, so
//! the sort is one verifying pass; when rounding collapses or separates
//! two products, or a `-0.0` flips the sign, it is what restores the
//! order — and swaps that term's candidate. The cost of an
//! announcement is the terms it changed, not the pages resident.

use super::{OrdF64, ReplacementPolicy};
use crate::page::Page;
use ir_types::{IdMap, PageId, TermId};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Ordering key: ascending value; within equal values evict the highest
/// page number first (tail before head), then lower term id for
/// determinism.
type RapKey = (OrdF64, Reverse<u32>, u32);

fn key(id: PageId, value: f64) -> RapKey {
    (OrdF64(value), Reverse(id.page.0), id.term.0)
}

/// The weight of `term` under `weights`; absent terms weigh `+0.0`.
fn weight_of(weights: &IdMap<TermId, f64>, term: TermId) -> f64 {
    weights.get(&term).copied().unwrap_or(0.0)
}

/// One resident page in its term's run.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Valued {
    page: u32,
    /// `w*_{d,t}`.
    max_weight: f64,
    /// The value the page is queued at.
    value: f64,
}

impl Valued {
    fn key(&self, term: TermId) -> RapKey {
        key(PageId::new(term, self.page), self.value)
    }
}

/// A term's resident pages in **descending** key order: the term's
/// next victim is the last entry, a scan's next page (lower `w*`,
/// higher page number) is appended, and both are O(1).
type Run = Vec<Valued>;

/// Takes `page` out of `run`, searching from the victim's end.
fn take(run: &mut Run, page: u32) -> Option<Valued> {
    let at = run.iter().rposition(|e| e.page == page)?;
    Some(run.remove(at))
}

/// Applies `edit` to `term`'s run and, if the run's lowest key moved,
/// swaps the term's candidate for the new one.
fn reseat(
    candidates: &mut BTreeSet<RapKey>,
    term: TermId,
    run: &mut Run,
    edit: impl FnOnce(&mut Run),
) {
    let before = run.last().map(|e| e.key(term));
    edit(run);
    let after = run.last().map(|e| e.key(term));
    if before != after {
        if let Some(k) = before {
            candidates.remove(&k);
        }
        candidates.extend(after);
    }
}

/// RAP replacement.
///
/// Invariants: `effective` holds exactly the terms some context
/// carries, each at the `total_cmp`-maximum of the weights carried for
/// it; every resident page is queued at exactly `w* · eff_t` (bit for
/// bit). So an announcement that leaves a term's `eff_t` bits alone has
/// nothing to do for that term's pages.
/// Every run is strictly ordered, and `candidates` holds exactly the
/// last key of every run.
#[derive(Debug, Default)]
pub struct Rap {
    /// `w_{q_s,t}` of the query each announcer `s` is processing. An
    /// announcer with no current query has no entry.
    contexts: IdMap<u32, IdMap<TermId, f64>>,
    /// `eff_t` of every term some context carries.
    effective: IdMap<TermId, f64>,
    /// The lowest key of every resident term's run; the first is the
    /// pool's next victim.
    candidates: BTreeSet<RapKey>,
    /// Resident pages per term. A term's entry goes when its last page
    /// does.
    resident: IdMap<TermId, Run>,
}

impl Rap {
    /// Creates the policy with no query context (all values 0).
    pub fn new() -> Self {
        Rap::default()
    }

    /// [`begin_query`](ReplacementPolicy::begin_query), returning how
    /// many pages it re-valued: the resident pages of terms whose
    /// `eff_t` bits moved (`-0.0` and NaN payloads count). Only the
    /// terms whose entry in `announcer`'s own
    /// context moved — weight bits or presence — can have a new
    /// `eff_t`, so only those terms' runs are looked at.
    fn announce(&mut self, announcer: u32, weights: &IdMap<TermId, f64>) -> usize {
        let context = self.contexts.entry(announcer).or_default();
        let mut changed: Vec<TermId> = weights
            .iter()
            .filter(|&(t, w)| context.get(t).map(|old| old.to_bits()) != Some(w.to_bits()))
            .map(|(&t, _)| t)
            .chain(context.keys().copied().filter(|t| !weights.contains_key(t)))
            .collect();
        if weights.is_empty() {
            self.contexts.remove(&announcer);
        } else {
            context.clone_from(weights);
        }
        changed.retain(|&t| {
            let carried = self.contexts.values().filter_map(|c| c.get(&t));
            let eff = carried.copied().max_by(f64::total_cmp);
            let before = match eff {
                Some(w) => self.effective.insert(t, w),
                None => self.effective.remove(&t),
            };
            before.unwrap_or(0.0).to_bits() != eff.unwrap_or(0.0).to_bits()
        });
        let mut revalued = 0;
        for term in changed {
            let Some(run) = self.resident.get_mut(&term) else {
                continue;
            };
            let eff = weight_of(&self.effective, term);
            reseat(&mut self.candidates, term, run, |run| {
                for e in run.iter_mut() {
                    e.value = e.max_weight * eff;
                }
                // The order is the products', whatever rounding and
                // signs made of them; a run still in order costs the
                // sort one pass.
                run.sort_unstable_by_key(|e| Reverse(e.key(term)));
            });
            revalued += run.len();
        }
        revalued
    }

    /// Current replacement value of a resident page (for tests and
    /// instrumentation).
    pub fn current_value(&self, id: PageId) -> Option<f64> {
        let run = self.resident.get(&id.term)?;
        Some(run.iter().find(|e| e.page == id.page.0)?.value)
    }
}

impl ReplacementPolicy for Rap {
    fn name(&self) -> &'static str {
        "RAP"
    }

    fn on_insert(&mut self, page: &Page) {
        let id = page.id();
        let max_weight = page.max_weight();
        let entry = Valued {
            page: id.page.0,
            max_weight,
            value: max_weight * weight_of(&self.effective, id.term),
        };
        let run = self.resident.entry(id.term).or_default();
        reseat(&mut self.candidates, id.term, run, |run| {
            // A re-insert replaces the page's previous entry, or the
            // stale one could later be handed out as a victim for a
            // page the queue no longer tracks.
            take(run, entry.page);
            let at = run.partition_point(|e| e.key(id.term) > entry.key(id.term));
            run.insert(at, entry);
        });
    }

    fn on_hit(&mut self, _page: &Page) {
        // Value is determined by data + query, not recency: a hit
        // changes nothing.
    }

    fn uses_hits(&self) -> bool {
        false
    }

    fn choose_victim(&mut self) -> Option<PageId> {
        let &(_, Reverse(page), term) = self.candidates.first()?;
        let victim = PageId::new(TermId(term), page);
        self.remove(victim);
        Some(victim)
    }

    fn remove(&mut self, id: PageId) {
        let Some(run) = self.resident.get_mut(&id.term) else {
            return;
        };
        reseat(&mut self.candidates, id.term, run, |run| {
            take(run, id.page.0);
        });
        // The index tracks resident terms, not every term ever seen.
        if run.is_empty() {
            self.resident.remove(&id.term);
        }
    }

    fn clear(&mut self) {
        *self = Rap::default();
    }

    fn begin_query(&mut self, announcer: u32, weights: &IdMap<TermId, f64>) {
        self.announce(announcer, weights);
    }

    fn uses_query_context(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{drain, page};
    use super::*;
    use crate::buffer::ShardCore;
    use crate::disk::DiskSim;
    use crate::observe::{BufferEvent, BufferObserver};
    use crate::stats::BufferMetrics;
    use ir_types::{sync, IdSet, PlanEntry};
    use proptest::{proptest, ProptestConfig, TestRng};
    use std::collections::{BTreeMap, HashMap};
    use std::sync::{Arc, Mutex};

    fn weights(pairs: &[(u32, f64)]) -> IdMap<TermId, f64> {
        pairs.iter().map(|&(t, w)| (TermId(t), w)).collect()
    }

    /// The reference the incremental re-key is held to: the same value
    /// rule over one flat page map and a plain `Vec` of contexts
    /// (indexed by announcer, empty when retired), re-valuing **every**
    /// resident page from scratch on every announcement.
    #[derive(Debug, Default)]
    struct FullRekeyRap {
        contexts: Vec<IdMap<TermId, f64>>,
        by_value: BTreeMap<RapKey, PageId>,
        /// Resident page → (`w*`, queued value).
        pages: HashMap<PageId, (f64, f64)>,
    }

    impl FullRekeyRap {
        fn current_value(&self, id: PageId) -> Option<f64> {
            self.pages.get(&id).map(|e| e.1)
        }

        /// `eff_t`, if any context carries `term`: the last of the
        /// carried weights in `total_cmp` order.
        fn effective(&self, term: TermId) -> Option<f64> {
            let mut carried: Vec<f64> = self
                .contexts
                .iter()
                .filter_map(|c| c.get(&term).copied())
                .collect();
            carried.sort_by(f64::total_cmp);
            carried.pop()
        }
    }

    impl ReplacementPolicy for FullRekeyRap {
        fn name(&self) -> &'static str {
            "RAP"
        }
        fn on_insert(&mut self, page: &Page) {
            let (id, w) = (page.id(), page.max_weight());
            let value = w * self.effective(id.term).unwrap_or(0.0);
            if let Some((_, old)) = self.pages.insert(id, (w, value)) {
                self.by_value.remove(&key(id, old));
            }
            self.by_value.insert(key(id, value), id);
        }
        fn on_hit(&mut self, _page: &Page) {}
        fn choose_victim(&mut self) -> Option<PageId> {
            let victim = *self.by_value.values().next()?;
            self.remove(victim);
            Some(victim)
        }
        fn remove(&mut self, id: PageId) {
            if let Some((_, value)) = self.pages.remove(&id) {
                self.by_value.remove(&key(id, value));
            }
        }
        fn clear(&mut self) {
            *self = FullRekeyRap::default();
        }
        fn begin_query(&mut self, announcer: u32, weights: &IdMap<TermId, f64>) {
            let slot = announcer as usize;
            if self.contexts.len() <= slot {
                self.contexts.resize_with(slot + 1, IdMap::default);
            }
            self.contexts[slot] = weights.clone();
            let mut pages = std::mem::take(&mut self.pages);
            self.by_value = pages
                .iter_mut()
                .map(|(&id, (w, value))| {
                    *value = *w * self.effective(id.term).unwrap_or(0.0);
                    (key(id, *value), id)
                })
                .collect();
            self.pages = pages;
        }
        fn uses_query_context(&self) -> bool {
            true
        }
    }

    /// The structural half of the work bound: every page is queued at
    /// exactly `w* · eff_t`, every run is strictly ordered and holds a
    /// page once, there is exactly one candidate per resident term and
    /// it is the run's lowest key, no term entry outlives its last
    /// page, no retired announcer keeps a context, and `effective` is
    /// the carried terms and nothing else.
    fn assert_index_is_tight(p: &Rap) {
        for (&term, run) in &p.resident {
            let eff = weight_of(&p.effective, term);
            for e in run {
                assert_eq!(
                    e.value.to_bits(),
                    (e.max_weight * eff).to_bits(),
                    "page {} of {term:?} is not at w* · eff_t",
                    e.page
                );
            }
            assert!(
                run.windows(2).all(|w| w[0].key(term) > w[1].key(term)),
                "run of {term:?} out of order: {run:?}"
            );
            let pages: IdSet<u32> = run.iter().map(|e| e.page).collect();
            assert_eq!(pages.len(), run.len(), "{term:?} holds a page twice");
        }
        let lowest: BTreeSet<RapKey> = p
            .resident
            .iter()
            .map(|(&t, run)| run.last().expect("a term outlived its pages").key(t))
            .collect();
        assert_eq!(p.candidates, lowest, "candidates are not the runs' lows");
        assert_eq!(p.candidates.len(), p.resident.len());
        assert!(p.contexts.values().all(|c| !c.is_empty()));
        let carried: IdSet<TermId> = p
            .contexts
            .values()
            .flat_map(|c| c.keys().copied())
            .collect();
        let effective: IdSet<TermId> = p.effective.keys().copied().collect();
        assert_eq!(
            effective, carried,
            "effective weights and contexts disagree"
        );
    }

    const TERMS: u32 = 6;
    const PAGES: u32 = 5;
    /// Query weights and idfs: signed zeros, and thirds so that
    /// distinct `w*` and `w_q` pairs round to equal products.
    const ALPHABET: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 2.0, 1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0];

    /// Drives [`Rap`] and [`FullRekeyRap`] with one random operation
    /// stream — announcements drawn from `announcers` sessions, one in
    /// nine of them empty (retiring) — and asserts they are
    /// indistinguishable after every step.
    fn run_differential(seed: u64, len: usize, announcers: u32) {
        let mut rng = TestRng::from_name(&seed.to_string());
        let mut pick = move |n: u32| rng.below(u64::from(n)) as u32;
        let (mut rap, mut oracle) = (Rap::new(), FullRekeyRap::default());
        for step in 0..len {
            let ctx = format!("seed {seed}, step {step}");
            match pick(12) {
                0..=1 => {
                    let who = pick(announcers);
                    let w: IdMap<TermId, f64> = (0..pick(9))
                        .map(|_| (TermId(pick(TERMS)), ALPHABET[pick(8) as usize]))
                        .collect();
                    rap.begin_query(who, &w);
                    oracle.begin_query(who, &w);
                    if announcers == 1 {
                        // One announcer is the single-context rule the
                        // policy had before it knew about sessions,
                        // spelled out: every page at `w* · w_{q,t}` of
                        // the one current query.
                        for (id, (w_star, value)) in &oracle.pages {
                            let old_rule = *w_star * weight_of(&w, id.term);
                            assert_eq!(value.to_bits(), old_rule.to_bits(), "{ctx}: {id:?}");
                        }
                    }
                }
                // Inserts, including re-inserts of a resident page with
                // a changed `w*`, announced term or not.
                2..=6 => {
                    let pg = page(
                        pick(TERMS),
                        pick(PAGES),
                        pick(4),
                        ALPHABET[pick(8) as usize],
                    );
                    rap.on_insert(&pg);
                    oracle.on_insert(&pg);
                }
                7..=8 => {
                    assert_eq!(rap.choose_victim(), oracle.choose_victim(), "{ctx}: victim");
                }
                9..=10 => {
                    let id = PageId::new(TermId(pick(TERMS)), pick(PAGES));
                    rap.remove(id);
                    oracle.remove(id);
                }
                _ => {
                    if pick(8) == 0 {
                        rap.clear();
                        oracle.clear();
                    }
                }
            }
            assert_index_is_tight(&rap);
            for t in 0..TERMS {
                for p in 0..PAGES {
                    let id = PageId::new(TermId(t), p);
                    assert_eq!(
                        rap.current_value(id).map(f64::to_bits),
                        oracle.current_value(id).map(f64::to_bits),
                        "{ctx}: value of {id:?}"
                    );
                }
            }
        }
        assert_eq!(
            drain(&mut rap),
            drain(&mut oracle),
            "seed {seed}: drain order"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Re-keying only what one session's announcement changed is
        /// indistinguishable from re-valuing the pool from every
        /// session's context. Fails with an `==` weight diff (`-0.0`)
        /// and with a `>` maximum.
        #[test]
        fn incremental_rekey_matches_the_full_rekey(
            seed in proptest::any::<u64>(),
            len in 1usize..400,
        ) {
            run_differential(seed, len, 3);
        }
    }

    #[test]
    fn one_announcer_is_the_single_context_policy() {
        for seed in [15, 193, 2024] {
            run_differential(seed, 400, 1);
        }
    }

    /// A pool of `terms × pages_per_term` one-posting pages whose `w*`
    /// falls from head to tail.
    fn store(terms: u32, pages_per_term: u32) -> DiskSim {
        DiskSim::new(
            (0..terms)
                .map(|t| {
                    (0..pages_per_term)
                        .map(|p| page(t, p, pages_per_term - p, 1.0 + f64::from(t % 5)))
                        .collect()
                })
                .collect(),
        )
    }

    #[derive(Clone, Debug, Default)]
    struct Evictions(Arc<Mutex<Vec<PageId>>>);

    impl BufferObserver for Evictions {
        fn event(&mut self, event: BufferEvent) {
            if let BufferEvent::Evict(id) = event {
                self.0.lock().unwrap().push(id);
            }
        }
    }

    #[test]
    fn refinement_over_a_full_pool_evicts_as_the_full_rekey_does() {
        let query = |terms: std::ops::Range<u32>| -> IdMap<TermId, f64> {
            terms.map(|t| (TermId(t), 0.5 + f64::from(t % 7))).collect()
        };
        // One shard core driven page by page: a pool of one shard, with
        // the policy under test in place of a built-in one.
        let run = |policy: Box<dyn ReplacementPolicy>| {
            let store = store(40, 32);
            let mut core = ShardCore::new(1024, policy, BufferMetrics::new());
            let log = Evictions::default();
            core.set_observer(Some(Arc::new(std::sync::Mutex::new(Box::new(log.clone())))));
            let mut out = Vec::new();
            let mut fetch = |core: &mut ShardCore, t: u32, p: u32| {
                let entry = PlanEntry::new(PageId::new(TermId(t), p));
                core.fetch_entries(&store, &[entry], &mut out).unwrap();
            };
            // Fill all 1 024 frames: 16 query terms, 16 left over from
            // earlier queries.
            core.begin_query(0, &query(16..32));
            for t in 0..32 {
                for p in 0..32 {
                    fetch(&mut core, t, p);
                }
            }
            let frames = Arc::clone(&core.frames);
            let resident = || -> Vec<PageId> {
                let mut ids: Vec<PageId> = sync::read(&frames).keys().copied().collect();
                ids.sort_unstable();
                ids
            };
            assert_eq!((resident().len(), log.0.lock().unwrap().len()), (1024, 0));
            // Refinement step: terms 16..19 out, 32..35 in.
            core.begin_query(0, &query(19..35));
            for t in 32..35 {
                for p in 0..32 {
                    fetch(&mut core, t, p);
                }
            }
            let evicted = log.0.lock().unwrap().clone();
            (evicted, resident())
        };
        let (evicted, resident) = run(Box::new(Rap::new()));
        assert_eq!(evicted.len(), 96);
        assert_eq!((evicted, resident), run(Box::<FullRekeyRap>::default()));
    }

    /// 4 terms × 3 pages, `w*` = 3, 2, 1 from head to tail.
    fn loaded() -> Rap {
        let mut p = Rap::new();
        for t in 0..4 {
            for pg in 0..3 {
                p.on_insert(&page(t, pg, 3 - pg, 1.0));
            }
        }
        p
    }

    #[test]
    fn announcing_the_same_weights_rekeys_nothing() {
        let mut p = loaded();
        let q = weights(&[(0, 1.0), (1, 2.0), (9, 4.0)]);
        assert_eq!(p.announce(0, &q), 6, "terms 0 and 1; term 9 has no pages");
        assert_eq!(p.announce(0, &q), 0);
        // An explicit +0.0 is the weight an absent term already has …
        assert_eq!(p.announce(0, &weights(&[(0, 1.0), (1, 2.0), (2, 0.0)])), 0);
        // … and -0.0 is not.
        assert_eq!(p.announce(0, &weights(&[(0, 1.0), (1, 2.0), (2, -0.0)])), 3);
    }

    #[test]
    fn adding_a_term_rekeys_only_its_pages() {
        let mut p = loaded();
        p.announce(0, &weights(&[(0, 1.0), (1, 2.0)]));
        assert_eq!(p.announce(0, &weights(&[(0, 1.0), (1, 2.0), (3, 5.0)])), 3);
        assert_eq!(p.current_value(PageId::new(TermId(3), 0)), Some(15.0));
        assert_eq!(p.current_value(PageId::new(TermId(1), 0)), Some(6.0));
    }

    #[test]
    fn dropping_a_term_rekeys_only_its_pages_and_they_go_first() {
        let mut p = loaded();
        p.announce(0, &weights(&[(0, 1.0), (1, 2.0), (2, 1.0), (3, 1.0)]));
        assert_eq!(p.announce(0, &weights(&[(0, 1.0), (2, 1.0), (3, 1.0)])), 3);
        let first: Vec<PageId> = (0..3).filter_map(|_| p.choose_victim()).collect();
        let tail_first: Vec<PageId> = (0..3).rev().map(|pg| PageId::new(TermId(1), pg)).collect();
        assert_eq!(first, tail_first);
    }

    /// Two `w*` one apart in the last place, the lower one on the
    /// *head* page: a third rounds them to one product (the tie goes to
    /// the higher page number), 1.0 separates them again (the lower
    /// value goes first) — so the run's order flips with each
    /// announcement and only the products say how.
    #[test]
    fn products_that_collapse_and_separate_reorder_the_run() {
        let (hi, lo) = (2.0 - f64::EPSILON, 2.0 - 2.0 * f64::EPSILON);
        assert_eq!((hi * (1.0 / 3.0)).to_bits(), (lo * (1.0 / 3.0)).to_bits());
        let head = PageId::new(TermId(0), 0);
        let tail = PageId::new(TermId(0), 1);
        let drained_after = |announcements: &[f64]| {
            let (mut rap, mut oracle) = (Rap::new(), FullRekeyRap::default());
            for p in [&mut rap as &mut dyn ReplacementPolicy, &mut oracle] {
                p.on_insert(&page(0, 0, 1, lo));
                p.on_insert(&page(0, 1, 1, hi));
                p.on_insert(&page(1, 0, 1, 1.0));
                for &w in announcements {
                    p.begin_query(0, &weights(&[(0, w), (1, 1.0)]));
                }
            }
            assert_index_is_tight(&rap);
            let order = drain(&mut rap);
            assert_eq!(order, drain(&mut oracle), "after {announcements:?}");
            order
        };
        let other = PageId::new(TermId(1), 0);
        assert_eq!(drained_after(&[1.0 / 3.0]), [tail, head, other]);
        assert_eq!(drained_after(&[1.0 / 3.0, 1.0]), [other, head, tail]);
        assert_eq!(
            drained_after(&[1.0 / 3.0, 1.0, 1.0 / 3.0]),
            [tail, head, other]
        );
        assert_eq!(drained_after(&[1.0, -0.0]), [tail, head, other]);
    }

    #[test]
    fn a_dropped_term_drains_tail_first_one_candidate_at_a_time() {
        let mut p = loaded();
        p.announce(0, &weights(&[(0, 1.0), (1, 2.0), (2, 1.0), (3, 1.0)]));
        p.announce(0, &weights(&[(0, 1.0), (1, 2.0), (3, 1.0)]));
        for pg in (0..3).rev() {
            let low = *p.candidates.first().unwrap();
            assert_eq!(low, key(PageId::new(TermId(2), pg), 0.0));
            assert_eq!(p.choose_victim(), Some(PageId::new(TermId(2), pg)));
            assert_eq!(p.candidates.len(), if pg == 0 { 3 } else { 4 });
            assert_index_is_tight(&p);
        }
        assert!(!p.resident.contains_key(&TermId(2)));
    }

    /// The work bound: an announcement that changes `k` terms edits
    /// `k` runs and swaps at most `k` candidates, whatever else is
    /// resident, and returns the pages of those runs.
    #[test]
    fn an_announcement_touches_only_the_runs_it_changes() {
        let mut p = Rap::new();
        for t in 0..64 {
            for pg in 0..(1 + t % 7) {
                p.on_insert(&page(t, pg, 9 - pg, 1.0 + f64::from(t % 3)));
            }
        }
        let all: Vec<(u32, f64)> = (0..64).map(|t| (t, 1.0 + f64::from(t % 5))).collect();
        p.announce(0, &weights(&all));
        for k in [0usize, 1, 3, 8] {
            let mut next = all.clone();
            // Re-weight the first `k` terms of a stride; drop none.
            for entry in next.iter_mut().step_by(7).take(k) {
                entry.1 += 0.25;
            }
            let (runs, candidates) = (p.resident.clone(), p.candidates.clone());
            let revalued = p.announce(0, &weights(&next));
            let edited: Vec<TermId> = (0..64)
                .map(TermId)
                .filter(|t| runs[t] != p.resident[t])
                .collect();
            assert_eq!(edited.len(), k);
            assert_eq!(
                revalued,
                edited.iter().map(|t| runs[t].len()).sum::<usize>()
            );
            assert!(candidates.difference(&p.candidates).count() <= k);
            assert!(p.candidates.difference(&candidates).count() <= k);
            assert_index_is_tight(&p);
            p.announce(0, &weights(&all));
        }
    }

    #[test]
    fn reweighting_a_term_keeps_its_pages_in_order() {
        let mut p = loaded();
        p.announce(0, &weights(&[(2, 0.5)]));
        assert_eq!(p.announce(0, &weights(&[(2, 4.0)])), 3);
        for pg in 0..3 {
            let id = PageId::new(TermId(2), pg);
            assert_eq!(p.current_value(id), Some(f64::from(3 - pg) * 4.0));
        }
        let order = drain(&mut p);
        let of_term_2: Vec<u32> = order
            .iter()
            .filter(|id| id.term == TermId(2))
            .map(|id| id.page.0)
            .collect();
        assert_eq!(
            of_term_2,
            [2, 1, 0],
            "tail before head, as before the change"
        );
        assert_eq!(order.len(), 12);
    }

    #[test]
    fn a_term_is_worth_the_highest_weight_any_session_gives_it() {
        let mut p = loaded();
        p.announce(0, &weights(&[(0, 1.0), (1, 2.0)]));
        // Session 1 shares term 1 at a lower weight and brings term 2:
        // only term 2's pages move, and nothing of session 0's falls.
        assert_eq!(p.announce(1, &weights(&[(1, 0.5), (2, 3.0)])), 3);
        assert_eq!(p.current_value(PageId::new(TermId(0), 0)), Some(3.0));
        assert_eq!(p.current_value(PageId::new(TermId(1), 0)), Some(6.0));
        assert_eq!(p.current_value(PageId::new(TermId(2), 0)), Some(9.0));
        // Session 0 drops term 1: it falls to session 1's weight, not
        // to zero.
        assert_eq!(p.announce(0, &weights(&[(0, 1.0)])), 3);
        assert_eq!(p.current_value(PageId::new(TermId(1), 0)), Some(1.5));
        // Re-announcing under another id is another session.
        assert_eq!(p.announce(2, &weights(&[(0, 1.0)])), 0);
    }

    #[test]
    fn an_empty_announcement_retires_the_session() {
        let mut p = loaded();
        p.announce(0, &weights(&[(0, 1.0)]));
        p.announce(1, &weights(&[(0, 4.0), (1, 1.0)]));
        assert_eq!(p.current_value(PageId::new(TermId(0), 0)), Some(12.0));
        assert_eq!(p.announce(1, &weights(&[])), 6, "terms 0 and 1");
        assert!(!p.contexts.contains_key(&1));
        assert_eq!(p.current_value(PageId::new(TermId(0), 0)), Some(3.0));
        assert_eq!(p.current_value(PageId::new(TermId(1), 0)), Some(0.0));
        assert_eq!(p.announce(1, &weights(&[])), 0, "nothing left to retire");
        assert_index_is_tight(&p);
    }

    #[test]
    fn lowest_value_is_victim() {
        let mut p = Rap::new();
        // Term 0 with idf 2.0: head page max_freq 9 (w*=18), tail page
        // max_freq 2 (w*=4).
        let head = page(0, 0, 9, 2.0);
        let tail = page(0, 3, 2, 2.0);
        p.on_insert(&head);
        p.on_insert(&tail);
        p.begin_query(0, &weights(&[(0, 1.0)]));
        assert_eq!(p.choose_victim(), Some(tail.id()));
        assert_eq!(p.choose_victim(), Some(head.id()));
    }

    #[test]
    fn dropped_terms_value_zero_and_go_first() {
        let mut p = Rap::new();
        let kept = page(0, 0, 1, 1.0); // tiny w*, but in query
        let dropped_head = page(1, 0, 100, 10.0); // huge w*, not in query
        p.on_insert(&kept);
        p.on_insert(&dropped_head);
        p.begin_query(0, &weights(&[(0, 0.5)]));
        assert_eq!(
            p.choose_victim(),
            Some(dropped_head.id()),
            "pages of dropped terms must be evicted first regardless of data value"
        );
    }

    #[test]
    fn tail_evicted_before_head_on_value_ties() {
        let mut p = Rap::new();
        // Same term, same max_freq on both pages → identical values.
        let head = page(0, 0, 5, 1.0);
        let tail = page(0, 7, 5, 1.0);
        p.on_insert(&head);
        p.on_insert(&tail);
        p.begin_query(0, &weights(&[(0, 1.0)]));
        assert_eq!(p.choose_victim(), Some(tail.id()));
        // Also holds for the all-zero no-query state.
        let mut q = Rap::new();
        q.on_insert(&head);
        q.on_insert(&tail);
        assert_eq!(q.choose_victim(), Some(tail.id()));
    }

    #[test]
    fn requery_reorganizes_values() {
        let mut p = Rap::new();
        let a = page(0, 0, 5, 1.0); // w* = 5
        let b = page(1, 0, 3, 1.0); // w* = 3
        p.on_insert(&a);
        p.on_insert(&b);
        p.begin_query(0, &weights(&[(0, 1.0), (1, 1.0)]));
        assert_eq!(p.current_value(a.id()), Some(5.0));
        assert_eq!(p.current_value(b.id()), Some(3.0));
        // Refinement drops term 0 and boosts term 1.
        p.begin_query(0, &weights(&[(1, 10.0)]));
        assert_eq!(p.current_value(a.id()), Some(0.0));
        assert_eq!(p.current_value(b.id()), Some(30.0));
        assert_eq!(p.choose_victim(), Some(a.id()));
    }

    #[test]
    fn hits_do_not_change_order() {
        let mut p = Rap::new();
        let a = page(0, 0, 5, 1.0);
        let b = page(0, 1, 1, 1.0);
        p.on_insert(&a);
        p.on_insert(&b);
        p.begin_query(0, &weights(&[(0, 1.0)]));
        for _ in 0..5 {
            p.on_hit(&b);
        }
        assert_eq!(
            p.choose_victim(),
            Some(b.id()),
            "recency is irrelevant to RAP"
        );
    }

    #[test]
    fn double_insert_leaves_no_stale_queue_entry() {
        let mut p = Rap::new();
        p.begin_query(0, &weights(&[(0, 1.0)]));
        // Same page re-inserted with a different max weight (e.g. the
        // page image was rebuilt): the old key must leave the queue.
        let v1 = page(0, 0, 2, 1.0); // w* = 2
        let v2 = page(0, 0, 5, 1.0); // w* = 5
        p.on_insert(&v1);
        p.on_insert(&v2);
        assert_eq!(p.current_value(v2.id()), Some(5.0));
        // Exactly one victim comes out — a stale `by_value` entry would
        // produce the same page twice.
        assert_eq!(p.choose_victim(), Some(v2.id()));
        assert_eq!(p.choose_victim(), None);
        // Re-insert with an identical key is also single-tracked.
        p.on_insert(&v1);
        p.on_insert(&v1);
        assert_eq!(p.choose_victim(), Some(v1.id()));
        assert_eq!(p.choose_victim(), None);
    }

    #[test]
    fn remove_and_clear() {
        let mut p = Rap::new();
        let a = page(0, 0, 5, 1.0);
        p.on_insert(&a);
        p.remove(a.id());
        assert_eq!(p.choose_victim(), None);
        p.begin_query(0, &weights(&[(0, 1.0)]));
        p.on_insert(&a);
        p.clear();
        assert_eq!(p.choose_victim(), None);
        assert!(p.contexts.is_empty() && p.effective.is_empty());
        assert!(p.resident.is_empty());
    }

    #[test]
    fn a_term_leaves_the_index_with_its_last_page() {
        let mut p = Rap::new();
        let (a, b) = (page(0, 0, 5, 1.0), page(0, 1, 2, 1.0));
        p.on_insert(&a);
        p.on_insert(&b);
        p.remove(a.id());
        assert!(p.resident.contains_key(&TermId(0)));
        assert_eq!(p.choose_victim(), Some(b.id()));
        assert!(p.resident.is_empty());
    }
}
