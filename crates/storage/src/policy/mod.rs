//! Buffer replacement policies.
//!
//! The paper evaluates three policies (§3.3, §5): **LRU** (the file-system
//! default most IR systems inherit), **MRU** (the classic fix for repeated
//! sequential scans \[CD85\]), and the proposed **RAP** (Ranking-Aware
//! Policy). Its §6 discussion also claims LRU-K \[OOW93\] and 2Q \[JS94\]
//! "will fare no better than LRU" on refinement workloads; we implement
//! both (plus FIFO and Clock as sanity baselines) so the claim is
//! testable — see the `ablation_policies` experiment.
//!
//! A policy only *ranks* resident pages; residency itself (the frame
//! table, `b_t` counters, statistics) is owned by
//! [`BufferManager`](crate::buffer::BufferManager), which drives the
//! policy through the [`ReplacementPolicy`] trait.

mod adaptive;
mod clock;
mod fifo;
mod lru;
mod lru_k;
mod mru;
mod rap;
mod tick;
mod two_q;

pub use adaptive::{ExpertMixturePolicy, DEFAULT_PANEL};
pub use clock::Clock;
pub use fifo::Fifo;
pub use lru::Lru;
pub use lru_k::LruK;
pub use mru::Mru;
pub use rap::Rap;
pub use two_q::TwoQ;

use crate::page::Page;
use ir_observe::Registry;
use ir_types::{IdMap, PageId, TermId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The contract between the buffer manager and a replacement policy.
///
/// Invariants the buffer manager maintains (and tests enforce):
/// * `on_insert` is called exactly once per page while it is resident;
/// * `on_hit` is only called for pages previously inserted, in serve
///   order — and not at all when the policy answers
///   [`uses_hits`](ReplacementPolicy::uses_hits) `false`;
/// * `choose_victim` must return a currently tracked page (and forget
///   it);
/// * after `clear` the policy tracks nothing.
///
/// Policies are `Send` so a pool can move behind a shared-pool mutex;
/// they still need no internal synchronization (the pool serializes
/// all calls).
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Short human-readable name (e.g. `"LRU"`), used in reports.
    fn name(&self) -> &'static str;

    /// A page became resident.
    fn on_insert(&mut self, page: &Page);

    /// A resident page was referenced again.
    fn on_hit(&mut self, page: &Page);

    /// Selects a victim among tracked pages and stops tracking it.
    /// Returns `None` only if nothing is tracked.
    fn choose_victim(&mut self) -> Option<PageId>;

    /// Stops tracking `id` without an eviction decision (external
    /// removal, e.g. a targeted invalidation).
    fn remove(&mut self, id: PageId);

    /// Forgets all pages and any query context.
    fn clear(&mut self);

    /// Announces the term weights `w_{q,t}` of the query `announcer`
    /// is about to run, replacing whatever `announcer` — a session, in
    /// practice a pool handle — announced before. Empty `weights`
    /// retire the announcer.
    ///
    /// Only RAP reacts (re-valuing the resident pages of terms whose
    /// weight changed); the default is a no-op, matching the paper's
    /// observation that classic policies are oblivious to the query
    /// (§3.3).
    fn begin_query(&mut self, announcer: u32, weights: &IdMap<TermId, f64>) {
        let _ = (announcer, weights);
    }

    /// Does [`begin_query`](Self::begin_query) do anything for this
    /// policy? `false` (the default) tells pool wrappers the
    /// announcement is a no-op, so they may skip it — and any lock
    /// acquisitions it would cost — entirely. Only RAP returns `true`.
    fn uses_query_context(&self) -> bool {
        false
    }

    /// Does [`on_hit`](Self::on_hit) do anything for this policy?
    /// `true` (the default, and the safe answer for a policy that has
    /// not thought about it) makes the pool deliver every hit, in serve
    /// order. `false` promises an empty `on_hit`: the pool may then
    /// drop the calls — and a lock-striped pool the queue that carries
    /// them across threads — unless an observer wants the events. RAP
    /// and FIFO return `false`.
    fn uses_hits(&self) -> bool {
        true
    }

    /// A page became resident, with the read plan's value hint (the
    /// planning query's `w_{q,t}` for the page's term) if the planner
    /// supplied one.
    ///
    /// The default ignores the hint and delegates to
    /// [`on_insert`](Self::on_insert); a hint-aware policy (RAP) may
    /// use the hint to value a page whose query was never announced via
    /// [`begin_query`](Self::begin_query). An announced query always
    /// wins over the hint, which keeps hinted and unhinted fetches
    /// identical in the normal announce-then-scan protocol.
    fn on_insert_hinted(&mut self, page: &Page, value_hint: Option<f64>) {
        let _ = value_hint;
        self.on_insert(page);
    }

    /// Offers the pool's metrics registry to the policy, right after
    /// the pool registers its own counters there. The default is a
    /// no-op — classic policies export nothing, so non-adaptive pools
    /// keep their metric namespace byte-identical. The adaptive
    /// policy registers its `adaptive.*` counters in it.
    fn attach_metrics(&mut self, registry: &Registry) {
        let _ = registry;
    }
}

/// Selector for the available policies; the unit of configuration in
/// experiments (`DF/LRU`, `BAF/RAP`, ...).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least-recently-used — the paper's default/worst case.
    Lru,
    /// Most-recently-used — the classic answer to sequential flooding.
    Mru,
    /// Ranking-aware policy — the paper's proposal (§3.3).
    Rap,
    /// LRU-K with `k = 2` \[OOW93\] (extension; §6 claim check).
    Lru2,
    /// 2Q \[JS94\] (extension; §6 claim check).
    TwoQ,
    /// First-in-first-out (extension baseline).
    Fifo,
    /// Clock / second-chance (extension baseline).
    Clock,
    /// Expert-mixture adaptive policy (EEvA-style shadow voting).
    Adaptive,
}

impl PolicyKind {
    /// All implemented policies, paper's three first.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Mru,
        PolicyKind::Rap,
        PolicyKind::Lru2,
        PolicyKind::TwoQ,
        PolicyKind::Fifo,
        PolicyKind::Clock,
    ];

    /// The three policies evaluated in the paper's figures.
    pub const PAPER: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Rap];

    /// The adaptive policy. Deliberately *not* part of
    /// [`ALL`](Self::ALL): experiment harnesses index `ALL`
    /// positionally and golden CSVs enumerate it, so the adaptive row
    /// is opt-in everywhere (the chaos matrix's extra rows, the
    /// `adaptive` experiment).
    pub const ADAPTIVE: [PolicyKind; 1] = [PolicyKind::Adaptive];

    /// Instantiates the policy. `capacity` is the buffer-pool size in
    /// pages (2Q sizes its queues from it).
    pub fn build(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Mru => Box::new(Mru::new()),
            PolicyKind::Rap => Box::new(Rap::new()),
            PolicyKind::Lru2 => Box::new(LruK::new(2)),
            PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Clock => Box::new(Clock::new()),
            PolicyKind::Adaptive => Box::new(ExpertMixturePolicy::new(capacity)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Mru => "MRU",
            PolicyKind::Rap => "RAP",
            PolicyKind::Lru2 => "LRU-2",
            PolicyKind::TwoQ => "2Q",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Clock => "CLOCK",
            PolicyKind::Adaptive => "ADAPTIVE",
        };
        f.write_str(s)
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "mru" => Ok(PolicyKind::Mru),
            "rap" => Ok(PolicyKind::Rap),
            "lru2" | "lru-2" | "lruk" => Ok(PolicyKind::Lru2),
            "2q" | "twoq" => Ok(PolicyKind::TwoQ),
            "fifo" => Ok(PolicyKind::Fifo),
            "clock" => Ok(PolicyKind::Clock),
            "adaptive" | "mixture" | "eeva" => Ok(PolicyKind::Adaptive),
            other => Err(format!("unknown policy {other:?}")),
        }
    }
}

/// Totally ordered `f64` wrapper (via `total_cmp`) for value-sorted
/// policy structures. NaN sorts last; the buffer manager never produces
/// NaN values but the ordering must still be total. Equality is the
/// order's: `+0.0` and `-0.0` differ, a NaN equals itself.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use ir_types::Posting;

    /// Builds a standalone page for policy tests: term `t`, page `p`,
    /// one posting with frequency `f` (so `max_weight = f · idf`).
    pub(crate) fn page(t: u32, p: u32, f: u32, idf: f64) -> Page {
        let postings: Vec<Posting> = vec![Posting::new(0, f)];
        Page::new(PageId::new(TermId(t), p), postings.into(), idf)
    }

    /// Feeds pages through insert in order.
    pub(crate) fn insert_all(policy: &mut dyn ReplacementPolicy, pages: &[Page]) {
        for pg in pages {
            policy.on_insert(pg);
        }
    }

    /// Drains victims until empty, returning eviction order.
    pub(crate) fn drain(policy: &mut dyn ReplacementPolicy) -> Vec<PageId> {
        let mut out = Vec::new();
        while let Some(v) = policy.choose_victim() {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_str() {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
            let s = kind.to_string();
            let parsed: PolicyKind = s.parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn build_constructs_matching_policy() {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
            let p = kind.build(16);
            assert_eq!(p.name(), kind.to_string());
        }
    }

    #[test]
    fn adaptive_kinds_stay_out_of_all() {
        for kind in PolicyKind::ADAPTIVE {
            assert!(
                !PolicyKind::ALL.contains(&kind),
                "{kind}: ALL is indexed positionally by harnesses and goldens"
            );
        }
    }

    /// Victim sequence of `kind` over a seeded insert / hit / evict
    /// trace on an 8-frame pool's worth of pages, with the `on_hit`
    /// calls delivered or dropped.
    fn victims(kind: PolicyKind, seed: u64, deliver_hits: bool) -> (bool, Vec<PageId>) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut policy = kind.build(8);
        let weights: IdMap<TermId, f64> =
            [(TermId(0), 2.0), (TermId(2), 0.5)].into_iter().collect();
        policy.begin_query(0, &weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut resident: Vec<Page> = Vec::new();
        let mut evicted = Vec::new();
        for _ in 0..600 {
            let (t, p) = (rng.gen_range(0..4u32), rng.gen_range(0..6u32));
            let id = PageId::new(TermId(t), p);
            if let Some(page) = resident.iter().find(|pg| pg.id() == id) {
                if deliver_hits {
                    policy.on_hit(page);
                }
                continue;
            }
            if resident.len() == 8 {
                let victim = policy.choose_victim().expect("a full pool has a victim");
                resident.retain(|pg| pg.id() != victim);
                evicted.push(victim);
            }
            let page = testutil::page(t, p, 6 - p, f64::from(t + 1));
            policy.on_insert(&page);
            resident.push(page);
        }
        (policy.uses_hits(), evicted)
    }

    /// `uses_hits` per kind, pinned both ways: a policy answering
    /// `false` evicts the same pages in the same order with its
    /// `on_hit` calls dropped, and every policy answering `true` needs
    /// them — over this trace its victims change without. A new policy
    /// inherits `true`.
    #[test]
    fn uses_hits_is_false_exactly_where_on_hit_is_empty() {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
            let expected = !matches!(kind, PolicyKind::Rap | PolicyKind::Fifo);
            for seed in [15, 193, 2024] {
                let (uses_hits, with_hits) = victims(kind, seed, true);
                let (_, without) = victims(kind, seed, false);
                assert_eq!(uses_hits, expected, "{kind}");
                assert!(with_hits.len() > 100, "{kind}: the trace must evict");
                assert_eq!(
                    with_hits != without,
                    expected,
                    "{kind}, seed {seed}: does dropping on_hit move a victim?"
                );
            }
        }
    }

    #[test]
    fn ordf64_total_order() {
        let mut v = [OrdF64(2.0), OrdF64(f64::NAN), OrdF64(-1.0), OrdF64(0.0)];
        v.sort();
        assert_eq!(v[0], OrdF64(-1.0));
        assert_eq!(v[1], OrdF64(0.0));
        assert_eq!(v[2], OrdF64(2.0));
        assert!(v[3].0.is_nan());
    }

    #[test]
    fn ordf64_equality_is_the_orders() {
        assert_ne!(OrdF64(0.0), OrdF64(-0.0));
        assert!(OrdF64(-0.0) < OrdF64(0.0));
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
        assert_ne!(OrdF64(f64::NAN), OrdF64(-f64::NAN));
        assert_eq!(OrdF64(1.5), OrdF64(1.5));
    }
}
