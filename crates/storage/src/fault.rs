//! Deterministic fault injection for the storage layer.
//!
//! The paper's simulator assumes page reads never fail; a production
//! server cannot. [`FaultStore`] wraps any [`PageStore`] and injects
//! three failure modes at configurable per-read probabilities, all
//! driven by a seeded splitmix64 stream so a fault schedule is exactly
//! reproducible run to run:
//!
//! * **transient errors** — the read returns
//!   [`IrError::TransientRead`]; an immediate retry of the same page
//!   may succeed;
//! * **torn pages** — the read "succeeds" but delivers a copy whose
//!   stored checksum no longer matches its content
//!   ([`Page::is_intact`] fails); the buffer manager detects and
//!   rejects it;
//! * **latency spikes** — the read is delivered and counted as slow,
//!   marking a slow device rather than a broken one; no time passes
//!   (modelled device latency is [`IoScheduler`](crate::IoScheduler)'s).
//!
//! A per-page consecutive-fault cap ([`FaultConfig::max_consecutive_faults`])
//! guarantees forward progress: after that many back-to-back faults on
//! one page the next attempt is delivered cleanly, so even a 100%
//! fault rate converges under a sufficiently patient retry policy.

use crate::disk::PageStore;
use crate::page::Page;
use ir_types::{sync, IdMap, IrError, IrResult, PageId};
use std::sync::Mutex;

/// What a [`FaultStore`] injects, and how often.
///
/// Rates are independent per-read probabilities in `[0, 1]`, each
/// consuming one draw from the seeded stream (in the fixed order
/// transient → torn → latency), so two runs with the same seed and the
/// same read sequence see the same faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the splitmix64 stream driving every probability draw.
    pub seed: u64,
    /// Probability a read fails with [`IrError::TransientRead`].
    pub transient_rate: f64,
    /// Probability a read delivers a torn copy (checksum mismatch).
    pub torn_rate: f64,
    /// Probability a read is counted as a latency spike.
    pub latency_rate: f64,
    /// After this many back-to-back faults (transient or torn) on one
    /// page, the next read of it is delivered cleanly. Must be at
    /// least 1 for a 100% fault rate to terminate.
    pub max_consecutive_faults: u32,
}

impl FaultConfig {
    /// No injection at all: every read passes straight through with
    /// zero overhead (no lock, no RNG draw).
    pub const DISABLED: FaultConfig = FaultConfig {
        seed: 0,
        transient_rate: 0.0,
        torn_rate: 0.0,
        latency_rate: 0.0,
        max_consecutive_faults: 0,
    };

    /// A seeded config with every fault mode active at moderate rates
    /// — the chaos suite's workhorse.
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: 0.2,
            torn_rate: 0.1,
            latency_rate: 0.1,
            max_consecutive_faults: 3,
        }
    }

    /// True when no fault mode can fire, enabling the passthrough
    /// fast path.
    pub fn is_disabled(&self) -> bool {
        self.transient_rate <= 0.0 && self.torn_rate <= 0.0 && self.latency_rate <= 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::DISABLED
    }
}

/// Counts of what a [`FaultStore`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads that failed with [`IrError::TransientRead`].
    pub transient_faults: u64,
    /// Reads that delivered a torn copy.
    pub torn_faults: u64,
    /// Reads counted as latency spikes (delivered successfully).
    pub latency_spikes: u64,
    /// Reads delivered intact (including spiked ones).
    pub reads_delivered: u64,
}

impl FaultStats {
    /// Total injected faults (transient + torn; spikes deliver).
    pub fn total_faults(&self) -> u64 {
        self.transient_faults + self.torn_faults
    }
}

/// The seeded generator state plus per-page fault bookkeeping.
#[derive(Debug)]
struct FaultState {
    rng: u64,
    consecutive: IdMap<PageId, u32>,
    stats: FaultStats,
}

/// Sebastiano Vigna's splitmix64: the standard seed-expansion step,
/// chosen for exact reproducibility with no dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of one step.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`PageStore`] wrapper injecting seeded, deterministic faults.
/// See the [module docs](self) for the fault model.
#[derive(Debug)]
pub struct FaultStore<S: PageStore> {
    inner: S,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner`, injecting per `config`.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        FaultStore {
            inner,
            config,
            state: Mutex::new(FaultState {
                rng: config.seed,
                consecutive: IdMap::default(),
                stats: FaultStats::default(),
            }),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The injection configuration.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Snapshot of what has been injected so far.
    pub fn stats(&self) -> FaultStats {
        sync::lock(&self.state).stats
    }

    /// Rewinds the generator to its seed and zeroes the bookkeeping —
    /// the same instance can then replay an identical fault schedule.
    pub fn reset(&self) {
        let mut s = sync::lock(&self.state);
        s.rng = self.config.seed;
        s.consecutive.clear();
        s.stats = FaultStats::default();
    }

    /// Decides one read's fate. Returns `Err` for an injected
    /// transient failure, `Ok(torn)` otherwise.
    fn decide(&self, id: PageId) -> IrResult<bool> {
        let mut s = sync::lock(&self.state);
        // Always consume the three draws in fixed order, even when a
        // cap or an earlier fault decides the outcome — the stream
        // position then depends only on the read sequence, never on
        // which faults happened to fire.
        let transient = unit(&mut s.rng) < self.config.transient_rate;
        let torn = unit(&mut s.rng) < self.config.torn_rate;
        let spike = unit(&mut s.rng) < self.config.latency_rate;
        let worn_out = self.config.max_consecutive_faults > 0
            && s.consecutive.get(&id).copied().unwrap_or(0) >= self.config.max_consecutive_faults;
        if !worn_out && transient {
            *s.consecutive.entry(id).or_insert(0) += 1;
            s.stats.transient_faults += 1;
            return Err(IrError::TransientRead {
                page: id,
                reason: "injected fault".into(),
            });
        }
        if !worn_out && torn {
            *s.consecutive.entry(id).or_insert(0) += 1;
            s.stats.torn_faults += 1;
            return Ok(true);
        }
        s.consecutive.remove(&id);
        s.stats.reads_delivered += 1;
        if spike {
            s.stats.latency_spikes += 1;
        }
        Ok(false)
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        if self.config.is_disabled() {
            return self.inner.read_page(id);
        }
        let torn = self.decide(id)?;
        let page = self.inner.read_page(id)?;
        Ok(if torn { page.into_torn() } else { page })
    }

    fn can_tear(&self) -> bool {
        (!self.config.is_disabled() && self.config.torn_rate > 0.0) || self.inner.can_tear()
    }

    // `submit` / `overlap_depth` deliberately keep the trait defaults
    // rather than forwarding: a read-ahead issued below the injector
    // would consume pages outside the fault stream's draw order, and
    // the schedule would stop being a pure function of the
    // demand-read sequence.

    fn io_wait_us(&self) -> u64 {
        self.inner.io_wait_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use ir_types::{Posting, TermId};

    fn store(n_terms: u32, pages: u32) -> DiskSim {
        let lists = (0..n_terms)
            .map(|t| {
                (0..pages)
                    .map(|p| {
                        let postings: Vec<Posting> = vec![Posting::new(p, pages - p)];
                        Page::new(PageId::new(TermId(t), p), postings.into(), 1.0)
                    })
                    .collect()
            })
            .collect();
        DiskSim::new(lists)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    #[test]
    fn disabled_config_is_pure_passthrough() {
        let fs = FaultStore::new(store(1, 4), FaultConfig::DISABLED);
        for p in 0..4 {
            let page = fs.read_page(pid(0, p)).unwrap();
            assert!(page.is_intact());
        }
        assert_eq!(
            fs.stats(),
            FaultStats::default(),
            "fast path keeps no books"
        );
        assert_eq!(fs.inner().stats().reads, 4);
    }

    #[test]
    fn same_seed_same_read_sequence_same_fault_schedule() {
        let cfg = FaultConfig::chaos(7);
        let run = || {
            let fs = FaultStore::new(store(2, 8), cfg);
            let mut outcomes = Vec::new();
            for t in 0..2 {
                for p in 0..8 {
                    for _ in 0..3 {
                        outcomes.push(match fs.read_page(pid(t, p)) {
                            Ok(page) => {
                                if page.is_intact() {
                                    0u8
                                } else {
                                    1
                                }
                            }
                            Err(IrError::TransientRead { .. }) => 2,
                            Err(e) => panic!("unexpected error {e}"),
                        });
                    }
                }
            }
            (outcomes, fs.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "fault schedule must be a pure function of the seed");
        assert_eq!(sa, sb);
        assert!(sa.total_faults() > 0, "chaos rates must actually fire");
    }

    #[test]
    fn different_seeds_differ() {
        let read_all = |seed: u64| {
            let fs = FaultStore::new(store(2, 8), FaultConfig::chaos(seed));
            (0..2)
                .flat_map(|t| (0..8).map(move |p| (t, p)))
                .map(|(t, p)| fs.read_page(pid(t, p)).is_err())
                .collect::<Vec<_>>()
        };
        assert_ne!(read_all(1), read_all(99));
    }

    #[test]
    fn consecutive_fault_cap_guarantees_delivery() {
        // 100% transient rate: without the cap no read would ever
        // succeed; with cap k the (k+1)-th attempt delivers.
        let cfg = FaultConfig {
            seed: 3,
            transient_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let fs = FaultStore::new(store(1, 1), cfg);
        assert!(fs.read_page(pid(0, 0)).is_err());
        assert!(fs.read_page(pid(0, 0)).is_err());
        let page = fs.read_page(pid(0, 0)).unwrap();
        assert!(page.is_intact());
        // The cap resets on delivery: the next read faults again.
        assert!(fs.read_page(pid(0, 0)).is_err());
        let s = fs.stats();
        assert_eq!(s.transient_faults, 3);
        assert_eq!(s.reads_delivered, 1);
    }

    #[test]
    fn torn_pages_fail_verification_but_not_the_read() {
        let cfg = FaultConfig {
            seed: 5,
            torn_rate: 1.0,
            max_consecutive_faults: 1,
            ..FaultConfig::DISABLED
        };
        let fs = FaultStore::new(store(1, 1), cfg);
        let torn = fs.read_page(pid(0, 0)).unwrap();
        assert!(!torn.is_intact(), "first read must deliver a torn copy");
        let clean = fs.read_page(pid(0, 0)).unwrap();
        assert!(clean.is_intact(), "cap forces clean delivery on retry");
        assert_eq!(torn.postings(), clean.postings());
        let s = fs.stats();
        // A torn delivery is a fault, not a delivered read.
        assert_eq!((s.torn_faults, s.reads_delivered), (1, 1));
    }

    #[test]
    fn reset_replays_the_identical_schedule() {
        let fs = FaultStore::new(store(2, 4), FaultConfig::chaos(11));
        let sweep = |fs: &FaultStore<DiskSim>| {
            (0..2)
                .flat_map(|t| (0..4).map(move |p| (t, p)))
                .map(|(t, p)| fs.read_page(pid(t, p)).is_err())
                .collect::<Vec<_>>()
        };
        let first = sweep(&fs);
        let stats_first = fs.stats();
        fs.reset();
        assert_eq!(sweep(&fs), first);
        assert_eq!(fs.stats(), stats_first);
    }

    #[test]
    fn latency_spikes_are_counted() {
        let cfg = FaultConfig {
            seed: 1,
            latency_rate: 1.0,
            ..FaultConfig::DISABLED
        };
        let fs = FaultStore::new(store(1, 2), cfg);
        fs.read_page(pid(0, 0)).unwrap();
        fs.read_page(pid(0, 1)).unwrap();
        let s = fs.stats();
        assert_eq!(s.latency_spikes, 2);
        assert_eq!(s.reads_delivered, 2);
        assert_eq!(s.total_faults(), 0, "a spike is a delay, not a fault");
    }
}
