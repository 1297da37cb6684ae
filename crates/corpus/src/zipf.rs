//! Zipf-distributed sampling over term ranks.
//!
//! Term popularity in text famously follows a Zipf law with exponent
//! ≈ 1; that single fact reproduces the paper's index geometry (see the
//! crate docs). The sampler precomputes the cumulative distribution
//! once and inverts it per draw: a guide table of one bucket per rank
//! maps a uniform `u` to the first rank whose CDF reaches `u`'s bucket,
//! and a short walk from there finds the same rank a binary search over
//! the whole CDF would — O(1) expected steps per token, one RNG draw per
//! token, deterministic given the RNG. We implement it here rather than
//! pull in a distributions crate (the allowed dependency set has `rand`
//! only).

use rand::Rng;

/// A Zipf(s) distribution over ranks `lo..hi` (0-based, `lo`
/// inclusive, `hi` exclusive): `P(rank = r) ∝ 1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    lo: u32,
    /// Cumulative weights for ranks `lo..hi`, normalized to end at 1.
    cdf: Vec<f64>,
    /// `K + 1` entries for `K = cdf.len()` buckets: `guide[j]` is the
    /// first index whose CDF is at least `j / K`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if the range is empty or `s` is not finite.
    pub fn new(lo: u32, hi: u32, s: f64) -> Self {
        assert!(lo < hi, "empty rank range {lo}..{hi}");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity((hi - lo) as usize);
        let mut acc = 0.0f64;
        for r in lo..hi {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf::from_cdf(lo, cdf)
    }

    /// Builds the guide table over a nondecreasing `cdf`; its last
    /// entry is forced to 1.
    fn from_cdf(lo: u32, mut cdf: Vec<f64>) -> Self {
        // Guard against floating-point shortfall at the end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let k = cdf.len();
        let mut guide = Vec::with_capacity(k + 1);
        let mut i = 0;
        for j in 0..=k {
            // Terminates at the last entry: its CDF is 1 >= every edge.
            let edge = j as f64 / k as f64;
            while cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { lo, cdf, guide }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.lo + self.index_of(rng.gen()) as u32
    }

    /// The first index whose CDF is at least `u ∈ [0, 1)`: exactly
    /// `cdf.partition_point(|&c| c < u)`. The walk starts at bucket
    /// `⌊u · K⌋`'s guide entry and stops only where `cdf[i - 1] < u <=
    /// cdf[i]`. `u · K` and the edges `j / K` round independently, so a
    /// `u` just below an edge can land one bucket high, past the answer:
    /// the backward step covers that; the forward walk crosses at most
    /// the bucket's own entries.
    fn index_of(&self, u: f64) -> usize {
        let k = self.cdf.len();
        let mut i = self.guide[((u * k as f64) as usize).min(k - 1)] as usize;
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        while i + 1 < k && self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Probability mass of a rank, or 0 outside the range.
    pub fn pmf(&self, rank: u32) -> f64 {
        if rank < self.lo {
            return 0.0;
        }
        let i = (rank - self.lo) as usize;
        match i {
            0 => self.cdf.first().copied().unwrap_or(0.0),
            _ => match (self.cdf.get(i), self.cdf.get(i - 1)) {
                (Some(hi), Some(lo)) => hi - lo,
                _ => 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(100, 1100, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((100..1100).contains(&r));
        }
    }

    #[test]
    fn head_ranks_dominate() {
        let z = Zipf::new(0, 10_000, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 100_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) < 100).count() as f64;
        // With s = 1 and V = 10^4, the top 100 ranks carry
        // H(100)/H(10000) ≈ 5.19/9.79 ≈ 53 % of the mass.
        let frac = head / n as f64;
        assert!((0.45..0.60).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(5, 105, 1.2);
        let total: f64 = (5..105).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(5) > z.pmf(6));
        assert!(z.pmf(6) > z.pmf(104));
        assert_eq!(z.pmf(4), 0.0);
        assert_eq!(z.pmf(200), 0.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(0, 4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(0, 1000, 1.0);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..100).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// What `index_of` must equal: a binary search over the whole CDF.
    fn reference(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        if x == 0.0 {
            0.0
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    /// `u`s where a bucketed search could go wrong: 0, the largest draw
    /// below 1, every CDF value and every bucket edge with their float
    /// neighbours, and seeded uniform draws.
    fn probes(z: &Zipf, seed: u64) -> Vec<f64> {
        let k = z.cdf.len();
        let edges = (0..=k).map(|j| j as f64 / k as f64);
        let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for x in z.cdf.iter().copied().chain(edges) {
            us.extend([next_down(x), x, next_up(x)]);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        us.extend((0..2_000).map(|_| rng.gen::<f64>()));
        us.retain(|u| (0.0..1.0).contains(u));
        us
    }

    #[test]
    fn guide_table_matches_the_full_binary_search() {
        for (support, lo) in [
            (1, 0),
            (2, 0),
            (4, 0),
            (4, 7),
            (7, 3),
            (100, 0),
            (5_000, 100),
        ] {
            for s in [0.0, 0.5, 1.0, 1.05, 2.0] {
                let z = Zipf::new(lo, lo + support, s);
                for u in probes(&z, u64::from(support)) {
                    assert_eq!(
                        z.index_of(u),
                        reference(&z, u),
                        "support {support}, exponent {s}, u {u:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_cdf_one_ulp_below_each_bucket_edge_is_still_exact() {
        // Each CDF value sits one ulp below the edge `(i + 1) / K`; for
        // some of them `u · K` rounds up into the next bucket, whose
        // guide entry already lies past the answer.
        for k in 1..=64usize {
            let cdf = (1..=k).map(|i| next_down(i as f64 / k as f64)).collect();
            let z = Zipf::from_cdf(0, cdf);
            for u in probes(&z, k as u64) {
                assert_eq!(z.index_of(u), reference(&z, u), "K {k}, u {u:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty rank range")]
    fn empty_range_rejected() {
        let _ = Zipf::new(5, 5, 1.0);
    }
}
