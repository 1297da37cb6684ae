//! The benchmark-owned query-stream generator.
//!
//! A stream is a list of refinement *sessions*; each session names a
//! topic and a refinement pattern (ADD-ONLY or ADD-DROP), and the
//! testbed expands it into that sequence's refinements, in order. The
//! engine never sees the seed, only the expanded queries.
//!
//! Popularity is Zipf(s = 1) over the topics **in topic order**, and
//! the composition of a stream is *apportioned*, not sampled: with `n`
//! sessions, topic `i` gets its largest-remainder share of
//! `n / ((i + 1) · H)` sessions, split evenly between the two
//! patterns. The seed decides which pattern a topic starts with and
//! the order of the sessions. Two seeds therefore submit the same
//! multiset of queries in different interleavings: the pool sees a
//! different reference string (which is what a held-out seed has to
//! vary for a buffer-management benchmark), while the amount of work
//! per run — and with it every end-to-end metric — stays comparable
//! from seed to seed. An i.i.d. draw of ~150 sessions moves the head
//! topic's share by ±13 %, more than any bound this benchmark sets.

/// SplitMix64: the benchmark's own generator, so a change to the
/// vendored `rand` stand-in cannot move the streams.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so small ranges are
    /// unbiased.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

/// One refinement session of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionRef {
    /// The topic whose contribution-ranked terms are refined.
    pub topic: usize,
    /// ADD-DROP when true, ADD-ONLY otherwise.
    pub add_drop: bool,
}

/// Sessions per topic for a stream of `n_sessions` under Zipf(1)
/// popularity in topic order, by largest remainder (ties to the more
/// popular topic). Sums to `n_sessions` exactly.
pub fn zipf_quotas(n_topics: usize, n_sessions: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=n_topics).map(|r| 1.0 / r as f64).sum();
    let ideal: Vec<f64> = (1..=n_topics)
        .map(|r| n_sessions as f64 / (r as f64 * harmonic))
        .collect();
    let mut quotas: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n_topics).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (ideal[a].fract(), ideal[b].fract());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let assigned: usize = quotas.iter().sum();
    for &topic in by_remainder.iter().take(n_sessions - assigned) {
        quotas[topic] += 1;
    }
    quotas
}

/// The session list of one stream: apportioned composition, seeded
/// pattern phase and order.
pub fn sessions(n_topics: usize, n_sessions: usize, seed: u64) -> Vec<SessionRef> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n_sessions);
    for (topic, &quota) in zipf_quotas(n_topics, n_sessions).iter().enumerate() {
        let phase = rng.next_u64() & 1 == 1;
        for k in 0..quota {
            out.push(SessionRef {
                topic,
                add_drop: (k % 2 == 1) != phase,
            });
        }
    }
    // Fisher–Yates.
    for i in (1..out.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

/// FNV-1a over 64-bit words: the digest every "two runs agree" check
/// in the benchmark uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
