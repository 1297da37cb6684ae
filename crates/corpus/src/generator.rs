//! The collection generator: background Zipf stream + topical bursts.

use crate::config::CorpusConfig;
use crate::query::TopicQuery;
use crate::words::term_name;
use crate::zipf::Zipf;
use rand::{rngs::SmallRng, Rng, RngCore, SeedableRng};
use std::ops::Range;

/// Tokens one part samples between two copy-outs of its bags: bounds
/// each part's bag space.
const RUN_TOKENS: usize = 1 << 17;

/// One TREC-like topic: an ordered list of salient terms (most salient
/// first) with query frequencies, plus the topical concentration its
/// relevant documents were generated with.
#[derive(Clone, Debug)]
pub struct Topic {
    /// Topic index (position in [`Corpus::topics`]).
    pub id: usize,
    /// `(rank, f_{q,t})` pairs, descending salience.
    pub salient: Vec<(u32, u32)>,
    /// Fraction of a relevant document's tokens drawn from this topic.
    pub concentration: f64,
}

/// A generated collection: documents as `(term rank, f_{d,t})` bags,
/// topics, and relevance judgments (which documents were generated from
/// which topic).
///
/// Every bag lives in one slab of 4-byte cells, `rank << 8 | f_{d,t}`,
/// read back through [`Corpus::doc`] and [`Corpus::docs`]. A frequency
/// of 256 or more leaves the low byte 0 and sits in a side list, read
/// in cell order; ranks stay below 2^24 ([`CorpusConfig::validate`]).
#[derive(Debug)]
pub struct Corpus {
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
    /// The topics.
    pub topics: Vec<Topic>,
    /// Every document's bag, back to back in document order, each in
    /// rank order: one packed cell a term.
    cells: Vec<u32>,
    /// The frequencies of 256 or more, in cell order, each with the
    /// index of its cell.
    escapes: Vec<(u32, u32)>,
    /// Document `d`'s cells end at `cells[doc_ends[d]]`.
    doc_ends: Vec<u32>,
    /// Every document's topics (usually 0–2), back to back.
    topic_ids: Vec<u16>,
    /// Document `d`'s topics end at `topic_ids[topic_ends[d]]`.
    topic_ends: Vec<u32>,
    /// Relevance judgments: documents per topic, ascending.
    relevant: Vec<Vec<u32>>,
}

/// Bits of a packed cell that hold the frequency.
const F_BITS: u32 = 8;

/// The packed cell of `(rank, f)` (`rank` below 2^24, `f` at least 1):
/// the frequency in the low byte, or 0 there and `f` appended to
/// `escapes` when it does not fit.
fn pack(rank: u32, f: u32, at: usize, escapes: &mut Vec<(u32, u32)>) -> u32 {
    debug_assert!(rank < 1 << (32 - F_BITS) && f >= 1);
    if f < 1 << F_BITS {
        rank << F_BITS | f
    } else {
        let at = u32::try_from(at).expect("at most u32::MAX postings");
        escapes.push((at, f));
        rank << F_BITS
    }
}

/// One document's bag: its `(rank, f_{d,t})` pairs in rank order.
#[derive(Clone, Debug)]
pub struct Bag<'a> {
    cells: std::slice::Iter<'a, u32>,
    /// The escaped frequencies from the document's first on.
    escapes: std::slice::Iter<'a, (u32, u32)>,
}

impl Iterator for Bag<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        let &cell = self.cells.next()?;
        let f = match cell & ((1 << F_BITS) - 1) {
            0 => {
                self.escapes
                    .next()
                    .expect("an escape for each zero low byte")
                    .1
            }
            f => f,
        };
        Some((cell >> F_BITS, f))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.cells.size_hint()
    }
}

impl ExactSizeIterator for Bag<'_> {}

impl Corpus {
    /// Generates a corpus. Deterministic in `config.seed`.
    ///
    /// ```
    /// use ir_corpus::{Corpus, CorpusConfig};
    ///
    /// let corpus = Corpus::generate(CorpusConfig::tiny());
    /// assert_eq!(corpus.n_docs(), corpus.config.n_docs as usize);
    /// let queries = corpus.queries();
    /// assert_eq!(queries.len(), corpus.topics.len());
    /// // Relevance judgments come straight from the generator.
    /// assert!(!corpus.relevant_docs(queries[0].topic).is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics if the configuration fails [`CorpusConfig::validate`].
    pub fn generate(config: CorpusConfig) -> Self {
        Corpus::generate_in(config, ir_types::parts::available())
    }

    /// [`generate`](Self::generate) with the token bags sampled over
    /// `parts` parts; the corpus is the same for any part count.
    pub(crate) fn generate_in(config: CorpusConfig, parts: usize) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid corpus config: {e}");
        }
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let background = Zipf::new(
            config.skip_top_ranks,
            config.vocab_size,
            config.zipf_exponent,
        );
        let topics = Self::make_topics(&config, &mut rng);
        // Per-topic burst distribution over the salient list positions.
        let burst: Vec<Zipf> = topics
            .iter()
            .map(|t| Zipf::new(0, t.salient.len() as u32, config.salient_exponent))
            .collect();

        // One pass draws each document's length and topics, keeps the
        // RNG as it stands at the document's first token draw, and skips
        // the document's `len` token draws (one draw per token, see
        // `zipf`): the token bags can then be sampled in any order.
        let n_docs = config.n_docs as usize;
        let mut plans: Vec<DocPlan> = ir_types::parts::scratch(n_docs);
        let mu = (config.mean_doc_tokens as f64).ln() - config.doc_length_sigma.powi(2) / 2.0;
        for _ in 0..n_docs {
            // Document length: log-normal, at least 5 tokens.
            let z = gaussian(&mut rng);
            let len = ((mu + config.doc_length_sigma * z).exp().round() as usize).max(5);

            // Topic assignment.
            let (mut assigned, mut n_topics) = ([0u16; 2], 0);
            if rng.gen::<f64>() < config.topic_assign_prob {
                assigned[0] = rng.gen_range(0..topics.len()) as u16;
                n_topics = 1;
                if rng.gen::<f64>() < config.second_topic_prob {
                    let second = rng.gen_range(0..topics.len()) as u16;
                    if second != assigned[0] {
                        assigned[1] = second;
                        n_topics = 2;
                    }
                }
            }
            plans.push(DocPlan {
                rng: rng.clone(),
                len,
                topics: assigned,
                n_topics,
            });
            for _ in 0..len {
                rng.next_u64();
            }
        }

        // Each document's topics, and each topic's documents (ascending:
        // documents in id order, and a document's two topics differ).
        // Filled before the slab and the sampling scratch: filled after
        // the bags, these few kilobytes put ≈ 0.5 MB on the peak RSS
        // (DESIGN.md § 17).
        let mut topic_ids = Vec::with_capacity(plans.iter().map(|p| p.n_topics).sum());
        let mut topic_ends = Vec::with_capacity(n_docs);
        let mut relevant = vec![Vec::new(); topics.len()];
        for (d, plan) in plans.iter().enumerate() {
            for &t in plan.topics() {
                relevant[t as usize].push(d as u32);
            }
            topic_ids.extend_from_slice(plan.topics());
            topic_ends.push(u32::try_from(topic_ids.len()).expect("at most u32::MAX topic ids"));
        }

        // Samples the bags of a run of documents back to back into
        // `bags`, and their lengths into `lens`.
        let sample = |docs: Range<usize>,
                      counts: &mut [u32],
                      bags: &mut [(u32, u32)],
                      lens: &mut [usize]| {
            let mut at = 0;
            for (plan, distinct) in plans[docs].iter().zip(lens) {
                let mut rng = plan.rng.clone();
                let len = plan.len;
                // The bag's first slots collect its ranks in the order
                // they first occur.
                let bag = &mut bags[at..at + len];
                *distinct = 0;
                let mut add = |rank: u32| {
                    let c = &mut counts[rank as usize];
                    if *c == 0 {
                        bag[*distinct].0 = rank;
                        *distinct += 1;
                    }
                    *c += 1;
                };
                // Topical tokens first.
                let mut topical_total = 0usize;
                for &t in plan.topics() {
                    let topic = &topics[t as usize];
                    let n = ((topic.concentration * len as f64).round() as usize)
                        .min(len - topical_total);
                    for _ in 0..n {
                        let pos = burst[t as usize].sample(&mut rng) as usize;
                        add(topic.salient[pos].0);
                    }
                    topical_total += n;
                }
                // Background tokens.
                for _ in topical_total..len {
                    add(background.sample(&mut rng));
                }
                // The bag in rank order; every count back at zero for
                // the next document.
                let bag = &mut bag[..*distinct];
                bag.sort_unstable_by_key(|&(rank, _)| rank);
                for (rank, f) in bag.iter_mut() {
                    *f = std::mem::take(&mut counts[*rank as usize]);
                }
                at += *distinct;
            }
        };

        // Runs of consecutive documents of at most `room` tokens, taken
        // `parts` at a time, one a part. A worker allocates nothing
        // (glibc keeps what a thread's malloc arena frees): this thread
        // sizes each part's dense count per rank, bag space and bag
        // lengths, and packs the bags into the slab in document order.
        // The slab is sized once, for one cell a token (a bag has no
        // more terms than tokens), and trimmed at the end.
        let max_len = plans.iter().map(|p| p.len).max().unwrap_or(0);
        let total: usize = plans.iter().map(|p| p.len).sum();
        let room = max_len.max(RUN_TOKENS.min(total.div_ceil(parts)));
        let mut runs = Vec::new();
        let mut next = 0;
        while next < n_docs {
            let (first, mut tokens) = (next, 0);
            while next < n_docs && tokens + plans[next].len <= room {
                tokens += plans[next].len;
                next += 1;
            }
            runs.push(first..next);
        }
        let run_docs = runs.iter().map(Range::len).max().unwrap_or(0);
        let vocab = config.vocab_size as usize;
        let mut counts = ir_types::parts::scratch(parts * vocab);
        counts.resize(parts * vocab, 0u32);
        let mut bags = ir_types::parts::scratch(parts * room);
        bags.resize(parts * room, (0u32, 0u32));
        let mut lens = ir_types::parts::scratch(parts * run_docs);
        lens.resize(parts * run_docs, 0usize);
        let mut cells = Vec::with_capacity(total);
        let mut escapes = Vec::new();
        let mut doc_ends = Vec::with_capacity(n_docs);
        for round in runs.chunks(parts) {
            let work = round
                .iter()
                .cloned()
                .zip(counts.chunks_mut(vocab))
                .zip(bags.chunks_mut(room).zip(lens.chunks_mut(run_docs)));
            ir_types::parts::run(work.collect(), |((run, counts), (bags, lens))| {
                sample(run, counts, bags, lens)
            });
            for (run, (bags, lens)) in round
                .iter()
                .zip(bags.chunks(room).zip(lens.chunks(run_docs)))
            {
                let mut at = 0;
                for &len in &lens[..run.len()] {
                    for &(rank, f) in &bags[at..at + len] {
                        let cell = pack(rank, f, cells.len(), &mut escapes);
                        cells.push(cell);
                    }
                    doc_ends.push(u32::try_from(cells.len()).expect("at most u32::MAX postings"));
                    at += len;
                }
            }
        }
        cells.shrink_to_fit();
        Corpus {
            config,
            topics,
            cells,
            escapes,
            doc_ends,
            topic_ids,
            topic_ends,
            relevant,
        }
    }

    fn make_topics(config: &CorpusConfig, rng: &mut SmallRng) -> Vec<Topic> {
        let lo = (config.skip_top_ranks + 50).min(config.vocab_size - 1) as f64;
        let hi = config.vocab_size as f64;
        (0..config.n_topics as usize)
            .map(|id| {
                let n_salient =
                    rng.gen_range(config.salient_range.0..=config.salient_range.1) as usize;
                // Per-topic commonness bias: low gamma pulls salient
                // terms toward common ranks (long lists, the QUERY4
                // archetype), high gamma toward rare ranks.
                let gamma = rng.gen_range(0.5..1.6);
                let mut seen = std::collections::HashSet::new();
                let mut salient = Vec::with_capacity(n_salient);
                while salient.len() < n_salient {
                    let u: f64 = rng.gen::<f64>().powf(gamma);
                    let rank = (lo.ln() + u * (hi.ln() - lo.ln())).exp().floor() as u32;
                    let rank = rank.clamp(config.skip_top_ranks, config.vocab_size - 1);
                    if seen.insert(rank) {
                        salient.push(rank);
                    }
                }
                // Query frequencies: the few most salient terms carry
                // relevance-feedback-style weight (cf. Table 6's f_{q,t}
                // of 1–5 skewed toward high-contribution terms).
                let salient = salient
                    .into_iter()
                    .enumerate()
                    .map(|(j, rank)| {
                        let fq = match j {
                            0 => 5,
                            1 => 4,
                            2 => 3,
                            3..=7 => 2,
                            _ => 1,
                        };
                        (rank, fq)
                    })
                    .collect();
                let concentration =
                    rng.gen_range(config.concentration_range.0..=config.concentration_range.1);
                Topic {
                    id,
                    salient,
                    concentration,
                }
            })
            .collect()
    }

    /// One query per topic, in topic order (the analogue of the paper's
    /// 100 TREC queries 51–150).
    pub fn queries(&self) -> Vec<TopicQuery> {
        self.topics
            .iter()
            .map(|t| TopicQuery {
                topic: t.id,
                terms: t
                    .salient
                    .iter()
                    .map(|&(rank, fq)| (term_name(rank), fq))
                    .collect(),
            })
            .collect()
    }

    /// Documents judged relevant to `topic` (those generated from it).
    pub fn relevant_docs(&self, topic: usize) -> &[u32] {
        self.relevant.get(topic).map_or(&[], Vec::as_slice)
    }

    /// Documents in the collection.
    pub fn n_docs(&self) -> usize {
        self.doc_ends.len()
    }

    /// Document `d`'s bag: `(rank, f_{d,t})` in rank order.
    ///
    /// # Panics
    /// Panics if `d` is not below [`n_docs`](Self::n_docs).
    pub fn doc(&self, d: usize) -> Bag<'_> {
        let cells = span(&self.doc_ends, d);
        let first_escape = self
            .escapes
            .partition_point(|&(at, _)| (at as usize) < cells.start);
        Bag {
            cells: self.cells[cells].iter(),
            escapes: self.escapes[first_escape..].iter(),
        }
    }

    /// Every document's bag, in document order.
    pub fn docs(&self) -> impl Iterator<Item = Bag<'_>> {
        (0..self.n_docs()).map(|d| self.doc(d))
    }

    /// The topics document `d` was generated from (usually 0–2).
    ///
    /// # Panics
    /// Panics if `d` is not below [`n_docs`](Self::n_docs).
    pub fn doc_topics(&self, d: usize) -> &[u16] {
        &self.topic_ids[span(&self.topic_ends, d)]
    }

    /// Total `(d, f_{d,t})` postings over all documents.
    pub fn total_postings(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Number of distinct terms that actually occur.
    pub fn distinct_terms(&self) -> usize {
        let mut seen = vec![false; self.config.vocab_size as usize];
        for &cell in &self.cells {
            seen[(cell >> F_BITS) as usize] = true;
        }
        seen.into_iter().filter(|&b| b).count()
    }

    /// Bytes the corpus holds: the bag cells, the escaped frequencies,
    /// the document ends, each document's topics and their ends, the
    /// relevance judgments and the topics.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.cells.as_slice())
            + size_of_val(self.escapes.as_slice())
            + size_of_val(self.doc_ends.as_slice())
            + size_of_val(self.topic_ids.as_slice())
            + size_of_val(self.topic_ends.as_slice())
            + size_of_val(self.relevant.as_slice())
            + size_of_val(self.topics.as_slice())
            + self
                .relevant
                .iter()
                .map(|r| size_of_val(r.as_slice()))
                .sum::<usize>()
            + self
                .topics
                .iter()
                .map(|t| size_of_val(t.salient.as_slice()))
                .sum::<usize>()
    }
}

/// Item `i`'s range in a flat array whose items end at `ends[..]`.
fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

/// What the first pass fixes of one document: the RNG at its first
/// token draw, its length in tokens, and the topics it was generated
/// from (at most two).
struct DocPlan {
    rng: SmallRng,
    len: usize,
    topics: [u16; 2],
    n_topics: usize,
}

impl DocPlan {
    fn topics(&self) -> &[u16] {
        &self.topics[..self.n_topics]
    }
}

/// Standard normal via Box–Muller (rand's distribution crates are
/// outside the allowed dependency set).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;

    fn tiny() -> Corpus {
        Corpus::generate(CorpusConfig::tiny())
    }

    /// Every bag as a list.
    fn bags(c: &Corpus) -> Vec<Vec<(u32, u32)>> {
        c.docs().map(Iterator::collect).collect()
    }

    /// Every document's topics.
    fn topics(c: &Corpus) -> Vec<&[u16]> {
        (0..c.n_docs()).map(|d| c.doc_topics(d)).collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(bags(&a), bags(&b));
        assert_eq!(topics(&a), topics(&b));
        assert_eq!(a.total_postings(), b.total_postings());
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny();
        let mut cfg = CorpusConfig::tiny();
        cfg.seed = 99;
        let b = Corpus::generate(cfg);
        assert_ne!(bags(&a), bags(&b));
    }

    #[test]
    fn documents_respect_config_bounds() {
        let c = tiny();
        assert_eq!(c.n_docs(), c.config.n_docs as usize);
        for doc in bags(&c) {
            assert!(!doc.is_empty());
            for &(rank, freq) in &doc {
                assert!(rank >= c.config.skip_top_ranks, "stop rank {rank} leaked");
                assert!(rank < c.config.vocab_size);
                assert!(freq >= 1);
            }
            // Bags are sorted and duplicate-free.
            assert!(doc.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn relevance_judgments_match_assignments() {
        let c = tiny();
        for d in 0..c.n_docs() {
            for &t in c.doc_topics(d) {
                assert!(
                    c.relevant_docs(t as usize)
                        .binary_search(&(d as u32))
                        .is_ok(),
                    "doc {d} generated from topic {t} must be judged relevant"
                );
            }
        }
        let total_rel: usize = (0..c.topics.len()).map(|t| c.relevant_docs(t).len()).sum();
        assert!(total_rel > 0, "some documents must be topical");
    }

    #[test]
    fn queries_mirror_topics() {
        let c = tiny();
        let qs = c.queries();
        assert_eq!(qs.len(), c.topics.len());
        for (q, t) in qs.iter().zip(&c.topics) {
            assert_eq!(q.topic, t.id);
            assert_eq!(q.len(), t.salient.len());
            let (lo, hi) = c.config.salient_range;
            assert!((lo as usize..=hi as usize).contains(&q.len()));
            // Query frequencies are skewed toward the head.
            assert_eq!(q.terms[0].1, 5);
            assert_eq!(*q.terms.last().map(|(_, f)| f).unwrap(), 1);
        }
    }

    #[test]
    fn token_stream_is_zipf_skewed() {
        let c = tiny();
        // Terms in the first decile of kept ranks should carry far more
        // than a tenth of the postings.
        let kept = c.config.vocab_size - c.config.skip_top_ranks;
        let cut = c.config.skip_top_ranks + kept / 10;
        let head: u64 = c
            .docs()
            .flatten()
            .filter(|(r, _)| *r < cut)
            .map(|(_, f)| u64::from(f))
            .sum();
        let total: u64 = c.docs().flatten().map(|(_, f)| u64::from(f)).sum();
        assert!(
            head as f64 / total as f64 > 0.4,
            "head fraction {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn topical_docs_burst_salient_terms() {
        let c = tiny();
        // For each topic, its most salient term should occur with
        // f_{d,t} >= 2 in at least one relevant document.
        let mut bursts = 0;
        for t in &c.topics {
            let top_rank = t.salient[0].0;
            let has_burst = c
                .relevant_docs(t.id)
                .iter()
                .any(|&d| c.doc(d as usize).any(|(r, f)| r == top_rank && f >= 2));
            if has_burst {
                bursts += 1;
            }
        }
        assert!(
            bursts * 2 >= c.topics.len(),
            "only {bursts}/{} topics show bursts",
            c.topics.len()
        );
    }

    /// FNV-1a over every document's length, `(rank, f_{d,t})` pairs and
    /// topics, all as little-endian `u32` / `u16`.
    fn digest(c: &Corpus) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for d in 0..c.n_docs() {
            let doc = c.doc(d);
            eat(&(doc.len() as u32).to_le_bytes());
            for (rank, f) in doc {
                eat(&rank.to_le_bytes());
                eat(&f.to_le_bytes());
            }
            let topics = c.doc_topics(d);
            eat(&(topics.len() as u32).to_le_bytes());
            for &t in topics {
                eat(&t.to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn generated_corpora_are_pinned_byte_for_byte() {
        // Every golden CSV descends from these bytes: a faster sampler
        // or counter must reproduce them exactly, for any part count —
        // one, a few, and (tiny) more parts than documents.
        let tiny = CorpusConfig::tiny();
        let tiny_parts = [1, 2, 3, tiny.n_docs as usize + 1];
        let small = CorpusConfig::paper_scaled(1.0 / 64.0);
        assert_eq!(small.n_docs, 2_707);
        for (config, parts, pin) in [
            (tiny, &tiny_parts[..], 0xe5a9_c1e0_6739_059e),
            (small, &[1, 2, 3][..], 0xcf71_cc25_e312_9735),
        ] {
            let one = Corpus::generate_in(config.clone(), 1);
            for &parts in parts {
                let c = Corpus::generate_in(config.clone(), parts);
                assert_eq!(digest(&c), pin, "{} docs, {parts} parts", config.n_docs);
                assert_eq!(c.relevant, one.relevant, "{parts} parts");
                assert_eq!(c.topics.len(), one.topics.len());
                for (a, b) in c.topics.iter().zip(&one.topics) {
                    assert_eq!((a.id, &a.salient), (b.id, &b.salient));
                    assert_eq!(a.concentration.to_bits(), b.concentration.to_bits());
                }
            }
        }
    }

    /// A few long documents over a small vocabulary: the head ranks
    /// occur hundreds of times a document, past a cell's low byte.
    fn long_docs() -> CorpusConfig {
        CorpusConfig {
            n_docs: 40,
            vocab_size: 200,
            skip_top_ranks: 1,
            mean_doc_tokens: 4_000,
            ..CorpusConfig::tiny()
        }
    }

    #[test]
    fn packed_cells_round_trip_every_frequency_width() {
        let top = crate::config::MAX_VOCAB - 1;
        let pairs = [
            (0, 1),
            (3, 255),
            (4, 256),
            (5, u32::MAX),
            (top, 1),
            (top, 255),
            (top, 256),
            (top, u32::MAX),
            (9, 2),
        ];
        let mut escapes = Vec::new();
        let cells: Vec<u32> = pairs
            .iter()
            .enumerate()
            .map(|(at, &(rank, f))| pack(rank, f, at, &mut escapes))
            .collect();
        assert_eq!(escapes, [(2, 256), (3, u32::MAX), (6, 256), (7, u32::MAX)]);
        let bag = Bag {
            cells: cells.iter(),
            escapes: escapes.iter(),
        };
        assert_eq!(bag.len(), pairs.len());
        assert_eq!(bag.collect::<Vec<_>>(), pairs);
    }

    #[test]
    fn frequencies_past_a_byte_come_back_for_any_part_count() {
        let one = Corpus::generate_in(long_docs(), 1);
        assert!(
            one.escapes.len() >= one.n_docs(),
            "{} escapes",
            one.escapes.len()
        );
        let f_max = bags(&one).into_iter().flatten().map(|(_, f)| f).max();
        assert!(f_max >= Some(256), "f_max {f_max:?}");
        for parts in [2, 3] {
            let c = Corpus::generate_in(long_docs(), parts);
            assert_eq!(c.escapes, one.escapes, "{parts} parts");
            assert_eq!(bags(&c), bags(&one), "{parts} parts");
            assert_eq!(topics(&c), topics(&one), "{parts} parts");
            assert_eq!(c.relevant, one.relevant, "{parts} parts");
        }
    }

    #[test]
    fn memory_is_four_bytes_a_posting_and_the_flat_arrays() {
        for c in [tiny(), Corpus::generate(long_docs())] {
            let assigned: usize = (0..c.n_docs()).map(|d| c.doc_topics(d).len()).sum();
            let judged: usize = (0..c.topics.len()).map(|t| c.relevant_docs(t).len()).sum();
            let salient: usize = c.topics.iter().map(|t| t.salient.len()).sum();
            assert_eq!(judged, assigned);
            let expect = 4 * c.total_postings() as usize
                + 8 * c.escapes.len()
                + 4 * c.n_docs()
                + (2 + 4) * assigned
                + 4 * c.n_docs()
                + std::mem::size_of::<Vec<u32>>() * c.topics.len()
                + std::mem::size_of::<Topic>() * c.topics.len()
                + 8 * salient;
            assert_eq!(c.memory_bytes(), expect);
        }
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
